"""Gap resolvents, the principal-value Green operator, and energy flux."""
import numpy as np
import pytest

from hexamer import green, kernels

import paper_checks


@pytest.fixture(scope="module")
def resolvent(bulk_strip, iface, dirac):
    plus = kernels.BlockedStripOperator(iface.right)
    lam = dirac.lambda_star  # mid-gap for the +delta bulk
    return plus, lam, paper_checks.gap_blocks(plus, lam, range(-8, 9))[0]


def test_resolvent_identity(resolvent):
    strip, lam, g = resolvent
    eye = np.eye(strip.blockdim)
    for n in range(-6, 7):
        acc = -lam * g[n]
        for d in (-1, 0, 1):
            acc = acc + strip.block(0, d) @ g[n + d]
        target = eye if n == 0 else np.zeros_like(eye)
        assert np.abs(acc - target).max() < 1e-8


@pytest.fixture(scope="module")
def truncated_inverse(resolvent):
    """Blocks inv(n, 0), |n| <= 100, of a 201-block Dirichlet truncation."""
    strip, lam, _ = resolvent
    t = 100
    mat = strip.csr(t).toarray()
    inv = np.linalg.inv(mat - lam * np.eye(mat.shape[0]))
    mid = t  # block index of cell 0
    return lambda d: inv[6 * (mid + d) : 6 * (mid + d + 1), 6 * mid : 6 * (mid + 1)]


def test_resolvent_matches_truncated_inverse(resolvent, truncated_inverse):
    """Brute-force oracle: invert a 200-block Dirichlet truncation directly."""
    _, _, g = resolvent
    for d in range(-6, 7):
        assert np.abs(truncated_inverse(d) - g[d]).max() < 1e-6


def test_decay_operators_generate_resolvent(resolvent, truncated_inverse):
    """G(d) = X^d G(0) and G(-d) = Y^d G(0) with X = G(1) G(0)^-1, Y = G(-1) G(0)^-1."""
    _, _, g = resolvent
    x = g[1] @ np.linalg.inv(g[0])
    y = g[-1] @ np.linalg.inv(g[0])

    def power(d):
        return np.linalg.matrix_power(x if d >= 0 else y, abs(d)) @ g[0]

    for d in [*range(-8, -1), *range(2, 9)]:
        assert np.abs(power(d) - g[d]).max() <= 1e-12 * np.abs(g[d]).max()
    for d in range(-40, 41):
        ref = truncated_inverse(d)
        assert np.abs(power(d) - ref).max() <= 1e-11 * np.abs(ref).max()


def test_resolvent_hermitian_covariance(resolvent):
    _, _, g = resolvent
    for d in range(0, 8):
        assert np.abs(g[d] - g[-d].conj().T).max() < 1e-10


def test_resolvent_exponential_decay(resolvent):
    _, _, g = resolvent
    norms = [np.linalg.norm(g[d], 2) for d in range(0, 9)]
    ratios = [norms[i + 1] / norms[i] for i in range(2, 8)]
    assert max(ratios) < 1.0
    assert np.std(ratios[2:]) < 0.05  # ratio stabilizes


def test_resolvent_quadrature_convergence(bulk_strip, iface, dirac):
    plus = kernels.BlockedStripOperator(iface.right)
    lam = dirac.lambda_star
    fine, quad_error = paper_checks.gap_blocks(plus, lam, (-1, 0, 1), levels=14, order=16)
    finer, _ = paper_checks.gap_blocks(plus, lam, (-1, 0, 1), levels=16, order=16)
    for d in (-1, 0, 1):
        diff = np.abs(fine[d] - finer[d]).max()
        assert diff <= max(quad_error, 1e-13)


def test_pv_right_inverse(bulk_strip, dirac, green_pv):
    eye = np.eye(bulk_strip.blockdim)
    for n in range(-10, 10):
        acc = -dirac.lambda_star * green_pv.blocks[n]
        for d in (-1, 0, 1):
            acc = acc + bulk_strip.block(0, d) @ green_pv.blocks[n + d]
        target = eye if n == 0 else np.zeros_like(eye)
        assert np.abs(acc - target).max() < 1e-6


def test_pv_hermiticity(green_pv):
    for d in range(0, 13):
        assert np.abs(green_pv.blocks[d] - green_pv.blocks[-d].conj().T).max() < 1e-8


def test_pv_far_field(bulk_strip, dirac, vgauge, green_pv):
    limit = green.far_field_matrix(vgauge, dirac.alpha_star)
    report = green.far_field_report(green_pv, limit)
    for side in ("plus", "minus"):
        rate = report[side]["rate"]
        assert 0.0 < rate < 0.9
        resid = report[side]["residuals"]
        assert resid[-1] < 1e-6  # residual reaches the quadrature floor


def test_flux_values(bulk_strip, dirac, vgauge):
    w = vgauge.vectors
    fl = green.flux_matrix(bulk_strip, w)
    a = abs(dirac.alpha_star)
    for j, sign in enumerate((1.0, 1.0, -1.0, -1.0)):
        assert abs(fl[j, j] - 1j * sign * a) < 1e-8
        assert abs(fl[j, j].real) < 1e-10  # diagonal purely imaginary
    off = fl - np.diag(np.diag(fl))
    assert np.abs(off).max() < 1e-8
    # antisymmetry for eigenmodes at the same energy
    assert np.abs(fl + fl.conj().T).max() < 1e-10


def test_flux_site_independence(bulk_strip, vgauge):
    w = vgauge.vectors
    dev = paper_checks.flux_site_independence(
        bulk_strip, w[:, 0], w[:, 0], list(range(0, 10))
    )
    assert dev < 1e-8


def test_flux_non_eigenmode_varies(bulk_strip):
    rng = np.random.default_rng(2)
    phi = {n: rng.normal(size=6) + 1j * rng.normal(size=6) for n in range(-2, 12)}
    f = lambda n: phi[n]
    dev = paper_checks.flux_site_independence(bulk_strip, f, f, list(range(0, 10)))
    assert dev > 1e-3  # constancy is special to eigenmodes; reported only


def test_green_identity(bulk_strip, dirac, vgauge):
    """Discrete Gauss-Green summation identity on a window."""
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    w = vgauge.vectors

    def mode(c):
        vec = w @ c
        return lambda n: vec

    resid = paper_checks.green_identity_residual(
        bulk_strip, dirac.lambda_star, mode(coeffs[0]), mode(coeffs[1]), k=-3, p=9
    )
    assert resid < 1e-10


def test_quadrature_metadata(green_pv):
    assert np.isfinite(green_pv.quad_error)


def test_limiting_absorption_decomposition(bulk_strip, dirac, vgauge, green_pv):
    """The upper-half-plane resolvent limit equals G^pv plus the projection.

    (H - lam* - i eps)^-1 -> G^pv + (i / 2|a*|) sum_k v_k v_k^H as eps -> 0+,
    checked by Richardson extrapolation over eps on a few offsets.
    """
    w = vgauge.vectors
    proj = sum(np.outer(w[:, k], w[:, k].conj()) for k in range(4))
    target = {
        d: green_pv.blocks[d] + 1j / (2.0 * abs(dirac.alpha_star)) * proj
        for d in (0, 1, 2)
    }

    def la_blocks(eps, m=2**14):
        kaps = -np.pi + 2.0 * np.pi * np.arange(m) / m
        rs = np.linalg.inv(
            bulk_strip.bloch_batch(kaps) - (dirac.lambda_star + 1j * eps) * np.eye(6)
        )
        g = np.fft.ifft(rs, axis=0)
        return {d: ((-1) ** (d % 2)) * g[d % m] for d in (0, 1, 2)}

    g1, g2 = la_blocks(4e-3), la_blocks(2e-3)
    for d in (0, 1, 2):
        extrap = 2.0 * g2[d] - g1[d]  # first-order Richardson in eps
        assert np.abs(extrap - target[d]).max() < 2e-3


def _inverse_quadrature(strip, lam, offsets, levels=14, order=16, power=1):
    """Reference panel quadrature: one inverse of (H(kappa) - lam)^power per node."""
    x, wq = np.polynomial.legendre.leggauss(order)
    out = {d: 0.0 for d in offsets}
    for a, b in green.dyadic_panels(levels):
        ks = 0.5 * (a + b) + 0.5 * (b - a) * x
        rs = np.linalg.inv(strip.bloch_batch(ks) - lam * np.eye(strip.blockdim))
        rs = np.linalg.matrix_power(rs, power)
        for d in offsets:
            out[d] = out[d] + np.einsum("k,kij->ij", 0.5 * (b - a) * wq * np.exp(1j * ks * d), rs)
    return {d: g / (2.0 * np.pi) for d, g in out.items()}


def test_spectral_resolvent_matches_inverse_quadrature(iface, dirac, beta_star):
    offsets = range(-8, 9)
    for bulk in (iface.right, iface.left):
        strip = kernels.BlockedStripOperator(bulk)
        for h in np.linspace(-0.8, 0.8, 5) * beta_star:
            lam = dirac.lambda_star + iface.delta * h
            g, quad_error = paper_checks.gap_blocks(strip, lam, offsets)
            ref = _inverse_quadrature(strip, lam, offsets)
            scale = max(np.abs(ref[d]).max() for d in offsets)
            assert max(np.abs(g[d] - ref[d]).max() for d in offsets) <= 1e-12 * scale
            assert quad_error <= 1e-13


def test_batched_quadrature_matches_inverse_quadrature(iface, dirac, beta_star):
    """Power 1 gives G(d) and power 2 dG(d)/dlam = ((H - lam)^-2)(d), chunk by chunk."""
    r = 0.9 * iface.delta * beta_star
    lams = dirac.lambda_star + np.linspace(-r, r, 150)  # several chunks of energies
    for bulk in (iface.right, iface.left):
        strip = kernels.BlockedStripOperator(bulk)
        for power in (1, 2):
            batch = green._gl_quadrature(strip, lams, (-1, 0, 1), 14, 16, power)
            for i in (0, 63, 64, 100, 149):
                ref = _inverse_quadrature(strip, lams[i], (-1, 0, 1), power=power)
                scale = max(np.abs(ref[d]).max() for d in ref)
                assert max(np.abs(batch[d][i] - ref[d]).max() for d in ref) <= 1e-12 * scale


def test_spectral_data_built_once_per_strip(iface, dirac, beta_star):
    strip = kernels.BlockedStripOperator(iface.right)
    sizes = []
    bloch_batch = strip.bloch_batch

    def counting(kaps):
        sizes.append(len(kaps))
        return bloch_batch(kaps)

    strip.bloch_batch = counting
    r = 0.9 * iface.delta * beta_star
    for lam in np.linspace(dirac.lambda_star - r, dirac.lambda_star + r, 50):
        green._band_distance(strip, lam, None)
        paper_checks.gap_blocks(strip, lam, (-1, 0, 1))
    # band edges, then the (14, 16) and (12, 16) node sets, folded to kappa > 0
    assert sizes == [512, 224, 192]


@pytest.mark.parametrize("power", [1, 2])
def test_folded_blocks_real_and_transposed(iface, dirac, beta_star, power):
    """G(d) = R_d - A_d and G(-d) = R_d + A_d: real blocks with G(-d) = G(d)^T to the bit."""
    r = 0.9 * iface.delta * beta_star
    lams = dirac.lambda_star + np.linspace(-r, r, 40)
    for bulk in (iface.right, iface.left):
        strip = kernels.BlockedStripOperator(bulk)
        blocks = green._gl_quadrature(strip, lams, range(-8, 9), 14, 16, power)
        assert all(g.dtype == np.float64 for g in blocks.values())
        for d in range(1, 9):
            assert np.array_equal(blocks[-d], blocks[d].swapaxes(-1, -2))


def test_folded_quadrature_refuses_complex_strip(iface, dirac):
    """Off kpar = 0 the blocks are complex and the -kappa nodes cannot be folded."""
    for bulk in (iface.right, iface.left):
        strip = kernels.BlockedStripOperator(bulk, kpar=0.3)
        assert green._band_distance(strip, dirac.lambda_star, None) > 0.1  # in the gap
        with pytest.raises(ValueError, match="real strip blocks"):
            green._gl_quadrature(strip, [dirac.lambda_star], (-1, 0, 1), 14, 16, 1)


def test_cached_edges_reject_spectrum_energy(blended, dirac):
    strip = kernels.BlockedStripOperator(blended)
    for _ in range(2):  # the second call reads the cached band edges
        # the unperturbed cone bands sweep through lambda* + 0.05
        assert green._band_distance(strip, dirac.lambda_star + 0.05, None) == 0.0
    assert "edges" in strip.spectral_cache


def test_band_edges_contain_dense_scan(iface):
    # off kpar = 0 the band extrema fall between the 512 samples
    for bulk in (iface.right, iface.left):
        strip = kernels.BlockedStripOperator(bulk, kpar=0.3)
        lo, hi = green.band_edges(strip)
        kaps = np.linspace(-np.pi, np.pi, 8192, endpoint=False)
        w = np.linalg.eigvalsh(strip.bloch_batch(kaps))
        assert np.all(lo <= w.min(axis=0) + 1e-12)
        assert np.all(hi >= w.max(axis=0) - 1e-12)
        assert np.all(lo > w.min(axis=0) - 1e-4) and np.all(hi < w.max(axis=0) + 1e-4)


def _scalar_band_edges(strip):
    """The band edges by one scalar golden-section search per band extremum."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0

    def golden(f, a, b, tol=1e-12):
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = f(c), f(d)
        while abs(b - a) > tol:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = f(d)
        return 0.5 * (a + b)

    kaps = np.linspace(-np.pi, np.pi, 512, endpoint=False)
    step = kaps[1] - kaps[0]
    w = np.linalg.eigvalsh(strip.bloch_batch(kaps))
    edges = []
    for sign in (1.0, -1.0):
        f = sign * w
        best = f.min(axis=0)
        for b, i in enumerate(f.argmin(axis=0)):
            band = lambda k: sign * np.linalg.eigvalsh(strip.bloch(k))[b]
            best[b] = min(best[b], band(golden(band, kaps[i] - step, kaps[i] + step)))
        edges.append(sign * best)
    return edges


def test_band_edges_match_scalar_polish(iface):
    """The twelve golden-section polishes run as one vectorised loop give the scalar edges."""
    for bulk in (iface.right, iface.left):
        for kpar in (0.0, 0.3, np.pi):
            lo, hi = green.band_edges(kernels.BlockedStripOperator(bulk, kpar=kpar))
            ref_lo, ref_hi = _scalar_band_edges(kernels.BlockedStripOperator(bulk, kpar=kpar))
            assert np.abs(lo - ref_lo).max() <= 1e-14
            assert np.abs(hi - ref_hi).max() <= 1e-14

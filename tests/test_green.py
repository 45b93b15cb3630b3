"""Gap resolvents, the principal-value Green operator, and energy flux."""
import numpy as np
import pytest

from hexamer import green, kernels
from hexamer.errors import EnergyInSpectrum, GaugeMissing


@pytest.fixture(scope="module")
def resolvent(bulk_strip, iface, dirac):
    plus = kernels.BlockedStripOperator(iface.right)
    lam = dirac.lambda_star  # mid-gap for the +delta bulk
    return plus, lam, green.gap_resolvent(plus, lam, range(-8, 9))


def test_resolvent_identity(resolvent):
    strip, lam, g = resolvent
    eye = np.eye(strip.blockdim)
    for n in range(-6, 7):
        acc = -lam * g.blocks[n]
        for d in (-1, 0, 1):
            acc = acc + strip.block(0, d) @ g.blocks[n + d]
        target = eye if n == 0 else np.zeros_like(eye)
        assert np.abs(acc - target).max() < 1e-8


def test_resolvent_matches_truncated_inverse(resolvent):
    """Brute-force oracle: invert a 200-block Dirichlet truncation directly."""
    strip, lam, g = resolvent
    t = 100
    mat = strip.materialize(-t, t)
    inv = np.linalg.inv(mat - lam * np.eye(mat.shape[0]))
    mid = t  # block index of cell 0
    for d in range(-6, 7):
        blk = inv[6 * (mid + d) : 6 * (mid + d + 1), 6 * mid : 6 * (mid + 1)]
        assert np.abs(blk - g.blocks[d]).max() < 1e-6


def test_resolvent_hermitian_covariance(resolvent):
    _, _, g = resolvent
    for d in range(0, 8):
        assert np.abs(g.blocks[d] - g.blocks[-d].conj().T).max() < 1e-10


def test_resolvent_exponential_decay(resolvent):
    _, _, g = resolvent
    norms = [np.linalg.norm(g.blocks[d], 2) for d in range(0, 9)]
    ratios = [norms[i + 1] / norms[i] for i in range(2, 8)]
    assert max(ratios) < 1.0
    assert np.std(ratios[2:]) < 0.05  # ratio stabilizes


def test_resolvent_quadrature_convergence(bulk_strip, iface, dirac):
    plus = kernels.BlockedStripOperator(iface.right)
    lam = dirac.lambda_star
    fine = green.gap_resolvent(plus, lam, (-1, 0, 1), levels=14, order=16)
    finer = green.gap_resolvent(plus, lam, (-1, 0, 1), levels=16, order=16)
    for d in (-1, 0, 1):
        diff = np.abs(fine.blocks[d] - finer.blocks[d]).max()
        assert diff <= max(fine.quad_error, 1e-13)


def test_resolvent_rejects_spectrum_energy(bulk_strip, dirac):
    with pytest.raises(EnergyInSpectrum):
        # the unperturbed cone bands sweep through lambda* + 0.05
        green.gap_resolvent(bulk_strip, dirac.lambda_star + 0.05, (0,))


def test_fft_route_matches_panels(iface, dirac):
    plus = kernels.BlockedStripOperator(iface.right)
    lam = dirac.lambda_star
    small = green.gap_resolvent(plus, lam, range(-3, 4))
    large = green.gap_resolvent(plus, lam, range(-20, 21))  # triggers FFT route
    for d in range(-3, 4):
        assert np.abs(small.blocks[d] - large.blocks[d]).max() < 1e-9


def test_pv_requires_gauge(bulk_strip, dirac):
    with pytest.raises(GaugeMissing):
        green.physical_green_pv(bulk_strip, dirac, None, (0,))


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
    limit = green.far_field_matrix(vgauge, dirac.alpha_star, bulk_strip.range_)
    report = green.far_field_report(green_pv, limit)
    for side in ("plus", "minus"):
        rate = report[side]["rate"]
        assert 0.0 < rate < 0.9
        resid = report[side]["residuals"]
        assert resid[-1] < 1e-6  # residual reaches the quadrature floor


def test_flux_values(bulk_strip, dirac, vgauge):
    w = green.blocked_cone_modes(vgauge, bulk_strip.range_)
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
    w = green.blocked_cone_modes(vgauge, bulk_strip.range_)
    dev = green.flux_site_independence(
        bulk_strip, w[:, 0], w[:, 0], list(range(0, 10))
    )
    assert dev < 1e-8


def test_flux_non_eigenmode_varies(bulk_strip):
    rng = np.random.default_rng(2)
    phi = {n: rng.normal(size=6) + 1j * rng.normal(size=6) for n in range(-2, 12)}
    f = lambda n: phi[n]
    dev = green.flux_site_independence(bulk_strip, f, f, list(range(0, 10)))
    assert dev > 1e-3  # constancy is special to eigenmodes; reported only


def test_green_identity(bulk_strip, dirac, vgauge):
    """Discrete Gauss-Green summation identity on a window."""
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    w = green.blocked_cone_modes(vgauge, bulk_strip.range_)

    def mode(c):
        vec = w @ c
        return lambda n: vec

    resid = green.green_identity_residual(
        bulk_strip, dirac.lambda_star, mode(coeffs[0]), mode(coeffs[1]), k=-3, p=9
    )
    assert resid < 1e-10


def test_quadrature_metadata(green_pv):
    assert green_pv.levels == 14
    assert green_pv.order == 16
    assert np.isfinite(green_pv.quad_error)


def test_limiting_absorption_decomposition(bulk_strip, dirac, vgauge, green_pv):
    """The upper-half-plane resolvent limit equals G^pv plus the projection.

    (H - lam* - i eps)^-1 -> G^pv + (i / 2|a*|) sum_k v_k v_k^H as eps -> 0+,
    checked by Richardson extrapolation over eps on a few offsets.
    """
    w = green.blocked_cone_modes(vgauge, bulk_strip.range_)
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


def _inverse_quadrature(strip, lam, offsets, levels=14, order=16):
    """Reference panel quadrature: one inverse of H(kappa) - lam per node."""
    x, wq = np.polynomial.legendre.leggauss(order)
    out = {d: 0.0 for d in offsets}
    for a, b in green.dyadic_panels(levels):
        ks = 0.5 * (a + b) + 0.5 * (b - a) * x
        rs = np.linalg.inv(strip.bloch_batch(ks) - lam * np.eye(strip.blockdim))
        for d in offsets:
            out[d] = out[d] + np.einsum("k,kij->ij", 0.5 * (b - a) * wq * np.exp(1j * ks * d), rs)
    return {d: g / (2.0 * np.pi) for d, g in out.items()}


def test_spectral_resolvent_matches_inverse_quadrature(iface, dirac, beta_star):
    offsets = range(-8, 9)
    for bulk in (iface.right, iface.left):
        strip = kernels.BlockedStripOperator(bulk)
        for h in np.linspace(-0.8, 0.8, 5) * beta_star:
            lam = dirac.lambda_star + iface.delta * h
            g = green.gap_resolvent(strip, lam, offsets)
            ref = _inverse_quadrature(strip, lam, offsets)
            scale = max(np.abs(ref[d]).max() for d in offsets)
            assert max(np.abs(g.blocks[d] - ref[d]).max() for d in offsets) <= 1e-12 * scale
            assert g.quad_error <= 1e-13


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
        green.gap_resolvent(strip, lam, (-1, 0, 1))
    # band edges, then the (14, 16) and (12, 16) node sets
    assert len(sizes) <= 3


def test_cached_edges_reject_spectrum_energy(blended, dirac):
    strip = kernels.BlockedStripOperator(blended)
    for _ in range(2):  # the second call reads the cached band edges
        with pytest.raises(EnergyInSpectrum):
            green.gap_resolvent(strip, dirac.lambda_star + 0.05, (0,))


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

"""Dirac-point location, gap/band-inversion scans, labeling, and gauges."""
import numpy as np
import pytest

from hexamer import kernels, lattice, spectra
from hexamer.errors import NoFourFoldDegeneracy

import paper_checks


def test_locate_double_dirac_toy(dirac_toy):
    assert abs(dirac_toy.lambda_star) < 1e-12
    assert abs(dirac_toy.alpha_star + 1.0 / np.sqrt(3.0)) < 1e-12
    assert abs(dirac_toy.slope_fit - dirac_toy.alpha_star) < 1e-9
    u = dirac_toy.ustar
    assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_locate_double_dirac_extended(extended):
    dd = spectra.locate_double_dirac(extended)
    assert abs(dd.lambda_star - (2.0 - np.sqrt(3.0))) < 1e-12
    assert dd.alpha_star > 0.2


def test_blended_interpolates(dirac_toy, dirac):
    ext = spectra.locate_double_dirac(kernels.build_extended_bulk())
    mix = 0.2
    assert abs(dirac.lambda_star - mix * ext.lambda_star) < 1e-12
    expect = (1 - mix) * dirac_toy.alpha_star + mix * ext.alpha_star
    assert abs(dirac.alpha_star - expect) < 1e-12


def test_alignment_matches_rho_tilde(dirac):
    rep = lattice.rep_rho_tilde()
    u = dirac.ustar
    for name, g in (
        ("R6", lattice.R6_INT),
        ("Fx", lattice.FX_INT),
        ("T", lattice.T_GAMMA),
    ):
        assert np.abs(g @ u - u @ rep[name]).max() < 1e-8, name


def test_no_four_fold_raises(blended, hper):
    perturbed = blended.plus(hper, 0.3)
    with pytest.raises(NoFourFoldDegeneracy):
        spectra.locate_double_dirac(perturbed)


def test_cone_slopes_match_reduced_model(blended, dirac):
    """One-sided slopes of the exact bands versus the 4x4 model eigenvalues."""
    t = 1e-3
    rng = np.random.default_rng(5)
    for _ in range(6):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        k = t * direction
        w = np.linalg.eigvalsh(blended.bloch_rad(*k))
        cone = np.sort(w[np.argsort(np.abs(w - dirac.lambda_star))[:4]])
        slopes = (cone - dirac.lambda_star) / t
        model = paper_checks.reduced_model_slopes(dirac.alpha_star, direction)
        assert np.abs(slopes - model).max() < 1e-3 * abs(model).max()


def test_gap_report_toy(toy, hper):
    for delta, tol in ((0.1, 0.10), (0.05, 0.10), (0.025, 0.05)):
        rep = spectra.gap_report(toy, hper, delta, grid_points=61)
        assert abs(rep.width_ratio - 1.0) < tol
        assert abs(rep.beta_star - 2.0) < 1e-10
        scores = rep.inversion_scores
        assert scores["plus"]["lower_rho2"] >= 0.99
        assert scores["plus"]["upper_rho1"] >= 0.99
        assert scores["minus"]["lower_rho1"] >= 0.99
        assert scores["minus"]["upper_rho2"] >= 0.99


def test_gap_report_zero_delta(toy, hper):
    rep = spectra.gap_report(toy, hper, 0.0, grid_points=41)
    assert rep.width <= 1e-12  # double Dirac cone is gapless


def test_gap_midpoint_first_order(toy, hper):
    """Gap midpoint drifts from lambda* at most quadratically in delta."""
    drifts = []
    for delta in (0.1, 0.05):
        rep = spectra.gap_report(toy, hper, delta, grid_points=61)
        lo, hi = rep.gap_interval
        drifts.append(abs(0.5 * (lo + hi) - rep.lambda_star))
    c_fit = max(d / delta**2 for d, delta in zip(drifts, (0.1, 0.05)))
    assert c_fit < 10.0


def test_extended_nofold_failure_reported(extended, hper):
    """The inverse-distance model folds back onto lambda*; reported, not hidden."""
    rep = spectra.gap_report(extended, hper, 0.05, grid_points=61)
    assert rep.nofold_margin < 1e-3
    assert rep.width < 0.1 * rep.predicted_width


def test_blended_nofold_margin(blended, hper):
    rep = spectra.gap_report(blended, hper, 0.05, grid_points=61)
    assert rep.nofold_margin > 0.05
    assert abs(rep.width_ratio - 1.0) < 0.02


def _scan_grids(n, delta):
    """gap_report's grids as (momenta, the same points as integers, period)."""
    coarse = (np.linspace(-np.pi, np.pi, n, endpoint=False), 2 * np.arange(n) - n, 2 * n)
    return [coarse] + [(np.linspace(-h, h, 81), np.arange(-40, 41), None)
                       for h in (0.6, min(0.15, 12.0 * delta + 1e-3))]


def _full_edges(bulks, lam, grids):
    """Gap edges about ``lam`` from every point of every grid, no reduction."""
    w = np.concatenate([
        np.linalg.eigvalsh(b.bloch_rad(*np.meshgrid(ks, ks, indexing="ij"))).ravel()
        for ks, _, _ in grids for b in bulks
    ])
    return w[w <= lam].max(), w[w > lam].min()


@pytest.mark.parametrize("model", ["toy", "extended", "blended"])
def test_reduced_gap_scan_equals_full_scan(model, hper, request):
    """The orbit-reduced scan finds the full grid's edges and margin to 1e-14."""
    kb = request.getfixturevalue(model)
    dd = spectra.locate_double_dirac(kb)
    _, _, kper = spectra.verify_gap_criterion(dd, hper)
    lam = dd.lambda_star
    for n in (41, 60, 101):
        ks = np.linspace(-np.pi, np.pi, n, endpoint=False)
        k1, k2 = np.meshgrid(ks, ks, indexing="ij")
        w = np.linalg.eigvalsh(kb.bloch_rad(k1, k2))
        margin = np.abs(w[np.hypot(k1, k2) >= 0.35] - lam).min()
        for delta in (0.0, 0.025, 0.1):
            rep = spectra.gap_report(kb, hper, delta, grid_points=n)
            edges = (lam, lam) if delta == 0.0 else _full_edges(
                kernels.perturbed_bulks(kb, kper, delta), lam, _scan_grids(n, delta))
            assert np.abs(np.subtract(rep.gap_interval, edges)).max() <= 1e-14
            assert abs(rep.nofold_margin - margin) <= 1e-14


def test_reduced_gap_scan_with_broken_symmetry(blended, hper, dirac):
    """An on-site energy on sublattice 1 leaves only the ops that fix it.

    Near lambda* the edges sit at Gamma, which every op fixes, so the levels
    are also compared about energies inside the bands, where the nearest
    level lies at a generic momentum.
    """
    onsite = np.zeros((6, 6))
    onsite[0, 0] = 0.01
    bulks = kernels.perturbed_bulks(blended, hper, 0.05)
    broken = [b.plus(kernels.HoppingKernel("onsite", {(0, 0): onsite})) for b in bulks]
    assert len(spectra._invariant_duals(bulks)) == 12
    assert 1 < len(spectra._invariant_duals(broken)) < 12
    grids = _scan_grids(41, 0.05)
    for lam in dirac.lambda_star + np.array([-0.3, 0.0, 0.3]):
        got = spectra._edges_around(broken, lam, grids)
        assert np.abs(np.subtract(got, _full_edges(broken, lam, grids))).max() <= 1e-14


def test_orbit_counts_at_full_c6v():
    """{I, -I, swap, -swap} act on the odd periodic grid and the box; R6 acts on neither."""
    duals = [op.dual for op in lattice.generate_group()]
    r6 = [lattice.rotation_op().dual]
    coarse, box, _ = _scan_grids(101, 0.05)
    for grid, count in ((coarse, 2601), (box, 1681)):
        n = len(grid[0])
        assert len(spectra._orbit_representatives(*grid, duals)[0]) == count
        assert len(spectra._orbit_representatives(*grid, r6)[0]) == n * n


def test_eigenpair_asymptotics(blended, hper, dirac):
    beta = 2.0
    # kappa = 0: eigenvalues lambda* +- beta delta to O(delta^2)
    for delta in (0.05, 0.02):
        rep = paper_checks.eigenpair_asymptotics_check(blended, hper, delta, (0.0, 0.0))
        assert rep["plus"]["eigenvalue_residual"] < 2.0 * delta**2
        assert abs(rep["s"] - beta * delta) < 1e-12
    # kappa = 0, H_{+delta}: lower eigenspace is span{u3, u4} up to O(delta)
    delta = 0.05
    plus, _ = kernels.perturbed_bulks(blended, hper, delta)
    w, v = np.linalg.eigh(plus.bloch_rad(0.0, 0.0))
    lower = [i for i in range(6) if abs(w[i] - (dirac.lambda_star - beta * delta)) < 1e-6]
    assert len(lower) == 2
    dist = paper_checks.subspace_distance(v[:, lower], dirac.ustar[:, 2:])
    assert dist < 2.0 * delta


def test_asymptotics_residual_scales_linearly(blended, hper):
    base = paper_checks.eigenpair_asymptotics_check(blended, hper, 0.04, (0.016, 0.008))
    half = paper_checks.eigenpair_asymptotics_check(blended, hper, 0.02, (0.008, 0.004))
    for tag in ("plus", "minus"):
        for key in ("lower_subspace_residual", "upper_subspace_residual"):
            ratio = half[tag][key] / base[tag][key]
            assert ratio < 1.0 / 1.5  # halving the parameters halves the residual


@pytest.fixture(scope="module")
def labeled(blended):
    return paper_checks.analytic_label(blended, paper_checks.default_k1_grid(1201))


def test_analytic_label_slope_and_symmetry(labeled, dirac):
    k = labeled.k1
    i0 = int(np.argmin(np.abs(k)))
    a = abs(dirac.alpha_star)
    j = i0 + 60
    slope = (labeled.mu[j, 0] - labeled.mu[i0, 0]) / (k[j] - k[i0])
    assert abs(slope - a) < 1e-3
    # branch symmetry mu1(k) = mu3(-k), mu2(k) = mu4(-k)
    rev = slice(None, None, -1)
    assert np.abs(labeled.mu[:, 0] - labeled.mu[rev, 2]).max() < 1e-8
    assert np.abs(labeled.mu[:, 1] - labeled.mu[rev, 3]).max() < 1e-8


def test_analytic_label_multiset(labeled, blended):
    for i in range(0, len(labeled.k1), 137):
        w = np.linalg.eigvalsh(blended.bloch_rad(labeled.k1[i], 0.0))
        assert np.abs(np.sort(labeled.mu[i]) - w).max() < 1e-10


def test_analytic_label_smooth_through_zero(labeled):
    """No kink at k1 = 0: second divided differences stay bounded."""
    k = labeled.k1
    i0 = int(np.argmin(np.abs(k)))
    for n in range(4):
        mu = labeled.mu[i0 - 2 : i0 + 3, n]
        kk = k[i0 - 2 : i0 + 3]
        d1 = np.diff(mu) / np.diff(kk)
        assert np.abs(np.diff(d1)).max() < 1.0  # sorted labels would jump ~2|a*|/dk


def test_analytic_label_reverse_consistency(blended, labeled):
    """Continuation is direction-independent: eigenvector residuals per branch."""
    k = labeled.k1
    for i in (3, len(k) // 4, len(k) - 5):
        h = blended.bloch_rad(k[i], 0.0)
        for n in range(6):
            v = labeled.vectors[i, :, n]
            r = np.linalg.norm(h @ v - labeled.mu[i, n] * v)
            assert r < 1e-9


def test_vgauge_combination(dirac, vgauge):
    u = dirac.ustar
    s = np.sign(dirac.alpha_star)
    v1 = 0.5 * (s * u[:, 0] + s * u[:, 1] + u[:, 2] + u[:, 3])
    assert np.abs(vgauge.vectors[:, 0] - v1).max() < 1e-12
    gram = vgauge.vectors.conj().T @ vgauge.vectors
    assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_vgauge_parities_and_fy(vgauge):
    fx = lattice.FX_INT
    # v1 and v3 are even under the x-reflection, v2 and v4 odd
    for k, parity in enumerate((1, -1, 1, -1)):
        v = vgauge.vectors[:, k]
        assert np.abs(fx @ v - parity * v).max() < 1e-12
    fy = np.linalg.matrix_power(lattice.R6_INT, 3) @ lattice.FX_INT
    assert np.abs(fy @ vgauge.vectors[:, 0] - vgauge.vectors[:, 2]).max() < 1e-12
    assert np.abs(fy @ vgauge.vectors[:, 1] - vgauge.vectors[:, 3]).max() < 1e-12


def test_vgauge_eigenvectors(blended, dirac, vgauge):
    h0 = blended.bloch_rad(0.0, 0.0)
    for k in range(4):
        v = vgauge.vectors[:, k]
        assert np.linalg.norm(h0 @ v - dirac.lambda_star * v) < 1e-10


def test_two_fold_flatness(blended, hper):
    perturbed = blended.plus(hper, 0.3)
    report = paper_checks.two_fold_flatness(perturbed)
    assert len(report) == 2
    irreps = {r["irrep"] for r in report}
    assert irreps == {"rho1", "rho2"}
    for r in report:
        assert r["h1_norm"] < 1e-10
        assert r["h2_norm"] < 1e-10


def test_nofold_spectral_check(blended, hper):
    """Away from the Gamma disk no band returns to lambda* (reported margin)."""
    rep = spectra.gap_report(blended, hper, 0.05, grid_points=61)
    assert rep.nofold_margin > 0.05


def test_cone_euclidean_slope_convention(blended, dirac):
    """In Euclidean physical momentum the cone slope is (sqrt(3)/2)|alpha*|.

    With radian dual coefficients the slopes are +-|alpha*| |k1 + conj(tau)^2
    k2|; measured against the Euclidean norm of k1*l1^ + k2*l2^ (unit-dual
    vectors) the prefactor becomes sqrt(3)/2, reconciling the two statements
    of the dispersion law.
    """
    dual1 = np.array([2.0 / np.sqrt(3.0), 0.0])
    dual2 = np.array([-1.0 / np.sqrt(3.0), 1.0])
    assert abs(dual1 @ lattice.ELL1 - 1.0) < 1e-15  # duality of the bases
    assert abs(dual1 @ lattice.ELL2) < 1e-15
    rng = np.random.default_rng(9)
    t = 1e-3
    for _ in range(4):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        k = t * d
        w = np.linalg.eigvalsh(blended.bloch_rad(*k))
        top = np.sort(w[np.argsort(np.abs(w - dirac.lambda_star))[:4]])[-1]
        k_eucl = np.linalg.norm(k[0] * dual1 + k[1] * dual2)
        slope = (top - dirac.lambda_star) / k_eucl
        assert abs(slope - np.sqrt(3.0) / 2.0 * abs(dirac.alpha_star)) < 1e-3

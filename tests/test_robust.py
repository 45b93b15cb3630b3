"""Periodized strips, parity sectors, class-(A) perturbations, band curve."""
import json
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hexamer import cli, kernels, lattice, matching, robust
from hexamer.errors import GapCollapse, ModelValidationError, NumericError

import paper_checks

DELTA_R = 0.025  # robustness runs use the smaller coupling where the
                 # pi-sector emptiness (and hence sector uniqueness) holds


@pytest.fixture(scope="module")
def setup_r(blended, hper, dirac, beta_star):
    iface = kernels.InterfaceKernel.from_bulks(blended, hper, DELTA_R)
    r = 0.9 * DELTA_R * beta_star
    gap = (dirac.lambda_star - r, dirac.lambda_star + r)
    pipe = matching.MatchingPipeline(iface)
    modes = matching.count_interface_modes(pipe, dirac.lambda_star, beta_star, 0.9, 201)
    assert modes.count == 2
    lam = {m.parity: m.lambda_zig for m in modes.modes}
    d_zig = {p: min(v - gap[0], gap[1] - v) for p, v in lam.items()}
    return iface, gap, lam, d_zig


class _AssembledSector:
    """`robust._BlochSector` with both sectors assembled in full space (`robust.assembled_solve`): the oracle."""

    def __init__(self, strips, L, t, parity):
        self.iface, self.gap, self.L, self.t, self.parity = strips.iface, strips.gap, L, t, parity

    def unperturbed_pairs(self):
        return self.perturbed_pairs(None)

    def perturbed_pairs(self, w):
        return robust.assembled_solve(self.iface, w, self.L, self.parity, self.gap, self.t)


def _assembled(monkeypatch, iface, gap, w, L, parity, lam_ref, d_zig, start=40, cap=320):
    """`robust.sector_pair` of (L, parity) with the defect ``w``, both sectors assembled."""
    with monkeypatch.context() as patch:
        patch.setattr(robust, "_BlochSector", _AssembledSector)
        return robust.sector_pair(robust.MomentumStrips(iface, gap), w, L, parity, lam_ref, d_zig, start, cap, True)


def test_build_w_compact():
    w = robust.build_W("compact", 1e-4)
    # 23 nonzero rows per central column, each an all-ones 6x6 of norm 6 amp
    assert abs(w.m_w - 23 * 6 * 1e-4) < 1e-12
    assert w.fx_defect == 0.0
    assert robust.build_W("compact", 0.0).m_w == 0.0


def test_build_w_line():
    w = robust.build_W("line", 1e-4)
    # the central column meets 23 cell pairs of the line too
    assert abs(w.m_w - 23 * 6 * 1e-4) < 1e-12
    assert w.fx_defect == 0.0
    with pytest.raises(ModelValidationError):
        robust.build_W("blob", 1.0)


def _near(kind, c1, c2):
    """The defect rule written out: the cell lies within unit distance of the origin or the line n.l2 = 0."""
    if kind == "compact":
        x, y = c1 * lattice.ELL1 + c2 * lattice.ELL2
        return math.hypot(x, y) <= 1.0 + 1e-9
    return abs(0.5 * c1 + c2) <= 1.0 + 1e-9


def test_periodized_equals_w_on_window():
    """The periodized defect's cell pairs are W's pairs with the row cell within |n.l2| <= L/4."""
    t = 5
    for kind in ("compact", "line"):
        w = robust.build_W(kind, 0.5)
        for L in (16, 8):
            expected = set()
            for n1 in range(-t, t + 1):
                for n2 in range(-L, L + 1):
                    if abs(0.5 * n1 + n2) > L / 4:
                        continue
                    for d1, d2 in kernels.RANGE1_OFFSETS:
                        m1, m2 = n1 + d1, n2 + d2
                        if abs(m1) <= t and (_near(kind, n1, n2) or _near(kind, m1, m2)):
                            i = int(robust._site_indices(L, t, n1, n2))
                            j = int(robust._site_indices(L, t, m1, m2))
                            expected |= {(6 * i + a, 6 * j + b) for a in range(6) for b in range(6)}
            ri, ci, vv = robust._defect_entries(w, L, t)
            assert sorted(zip(ri.tolist(), ci.tolist())) == sorted(expected)
            assert np.all(vv == 0.5)


def test_short_period_defect_not_hermitian(setup_r):
    """Below L = 8 the cut |n.l2| <= L/4 splits cell pairs of either defect, so W^L is not Hermitian."""
    iface = setup_r[0]
    for kind in ("compact", "line"):
        w = robust.build_W(kind, 2e-5)
        for L in (4, 5, 6, 7):
            with pytest.raises(ModelValidationError, match="not Hermitian"):
                robust.assemble_strip(iface, L, 3, w)
            with pytest.raises(ModelValidationError, match="not Hermitian"):
                robust._defect_entries(w, L, 3)
        mat = robust.assemble_strip(iface, 8, 3, w)
        assert abs(mat - mat.getH()).max() < 1e-14
        assert len(robust._defect_entries(w, 8, 3)[2]) > 0


def test_off_centre_defect_not_reflection_symmetric(setup_r, monkeypatch):
    """A defect one row off centre is refused on both sector paths.

    At L = 16 the cut |n.l2| <= L/4 holds all of its pairs, so W^L is
    Hermitian but not reflection symmetric; at L = 8 the cut splits pairs
    and the Hermiticity check fires first.
    """
    iface, gap, _, _ = setup_r
    w = robust.build_W("compact", 2e-5)
    couples = robust.PerturbationW._couples
    monkeypatch.setattr(
        robust.PerturbationW, "_couples", lambda self, n1, n2, d1, d2: couples(self, n1, n2 + 1, d1, d2)
    )
    strips = robust.MomentumStrips(iface, gap)
    for L, message in ((16, "not reflection symmetric"), (8, "not Hermitian")):
        with pytest.raises(ModelValidationError, match=message):
            robust.assemble_strip(iface, L, 4, w)
        with pytest.raises(ModelValidationError, match=message):
            robust._BlochSector(strips, L, 4, 1).defect(w)


def test_strip_hermitian_and_reflection(setup_r):
    iface, _, _, _ = setup_r
    w = robust.build_W("compact", 1e-4)
    mat = robust.assemble_strip(iface, 8, 30, w)
    assert abs(mat - mat.getH()).max() < 1e-14
    perm = paper_checks.reflection_permutation(8, 30)
    assert abs(perm @ mat - mat @ perm).max() < 1e-14


def test_one_cell_strip_is_the_kpar_zero_strip(iface):
    """At L = 1 the periodized strip is the kpar = 0 strip: both builders take one seam rule."""
    for t in (1, 5, 40):
        periodized = robust.assemble_strip(iface, 1, t, None).toarray()
        assert np.array_equal(periodized, kernels.BlockedStripOperator(iface).csr(t).toarray())


def test_parity_isometries(setup_r):
    iface, _, _, _ = setup_r
    mat = robust.assemble_strip(iface, 8, 20, None)
    qe = robust.parity_isometry(8, 20, 1)
    qo = robust.parity_isometry(8, 20, -1)
    n = mat.shape[0]
    assert qe.shape[1] + qo.shape[1] == n
    assert abs(qe.getH() @ qe - np.eye(qe.shape[1])).max() < 1e-14
    assert abs((qe @ qe.getH() + qo @ qo.getH()) - np.eye(n)).max() < 1e-14
    # sector reduction is exact: no coupling between sectors
    cross = qo.getH() @ mat @ qe
    assert abs(cross).max() < 1e-14


def test_sector_unique_unperturbed(setup_r, monkeypatch):
    iface, gap, lam, d_zig = setup_r
    no_defect = robust.build_W("compact", 0.0)
    for parity in (1, -1):
        sector, _ = _assembled(monkeypatch, iface, gap, no_defect, 8, parity, lam[parity], d_zig[parity])
        assert len(sector.eigenvalues) == 1
        assert sector.ingap_count >= len(sector.eigenvalues)
        assert abs(sector.eigenvalues[sector.tracked] - lam[parity]) < 1e-8


def test_sampling_identity_lemma(setup_r):
    """Full-strip in-gap set equals the kpar-curve samples on A_L."""
    iface, gap, lam, _ = setup_r
    vals = paper_checks.full_strip_ingap(iface, 8, 60, gap)
    curve = []
    for n in range(-4, 5):
        kp = 2.0 * np.pi * n / 8
        curve.extend(
            v for v, _, _ in paper_checks.direct_oracle(iface, gap, 120, kpar=kp)
        )
    curve = np.unique(np.round(sorted(curve), 9))
    vals = np.unique(np.round(sorted(vals), 9))
    assert len(vals) == len(curve)
    assert np.abs(vals - curve).max() < 1e-8


def test_sector_perturbed_convergence(setup_r, monkeypatch):
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 2e-5)
    assert w.m_w < 0.25 * min(d_zig.values())
    seq = {}
    for parity in (1, -1):
        vals = []
        for L in (8, 16, 32):
            _, sector = _assembled(monkeypatch, iface, gap, w, L, parity, lam[parity], d_zig[parity])
            assert abs(sector.eigenvalues[sector.tracked] - lam[parity]) < 0.5 * d_zig[parity]
            vals.append(sector.eigenvalues[sector.tracked])
        seq[parity] = vals
        # Cauchy: successive differences shrink (allow exact-zero floor)
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 <= d1 + 1e-12
    # the defect acts nontrivially on the even sector
    assert abs(seq[1][0] - lam[1]) > 1e-9


def test_farfield_persistence(setup_r, monkeypatch):
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 2e-5)
    base, pert = _assembled(monkeypatch, iface, gap, w, 8, 1, lam[1], d_zig[1])
    ff = robust.farfield_persistence(pert, base)
    assert ff["overlap_outside"] >= 0.99
    # zero perturbation: identical modes
    same = robust.farfield_persistence(base, base)
    assert same["difference_norm"] < 1e-12


def test_line_defect_difference_localized(setup_r, monkeypatch):
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("line", 2e-5)
    base, pert = _assembled(monkeypatch, iface, gap, w, 16, 1, lam[1], d_zig[1])
    ff = robust.farfield_persistence(pert, base)
    assert ff["overlap_outside"] >= 0.99
    prof = ff["difference_profile"]
    if ff["difference_norm"] > 1e-10:
        # scattering concentrated near the defect line, decaying along the
        # interface window by window
        assert prof[0] > prof[-1]


def test_gap_collapse_detection(setup_r, monkeypatch):
    """Both failure signatures raise: eigenvalue drift and an emptied window."""
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 5e-4)
    # an artificially tight isolation distance forces the drift check to trip
    with pytest.raises(GapCollapse, match="drifted beyond d_zig/2"):
        _assembled(monkeypatch, iface, gap, w, 8, 1, lam[1], 1e-8)
    # a spectrum-free sub-window has no isolated eigenvalue at all
    empty = (gap[0], 0.5 * (gap[0] + lam[-1]))
    with pytest.raises(GapCollapse, match="no isolated in-gap eigenvalue"):
        _assembled(monkeypatch, iface, empty, w, 8, 1, lam[1], None)


def test_protection_beyond_proven_bound(setup_r, monkeypatch):
    """The compact all-ones defect barely couples to the interface mode.

    Far beyond the proven localization bound the mode still persists; the
    bound is sufficient, not necessary (and the defect annihilates odd
    internal vectors exactly).
    """
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 0.05)
    assert w.m_w > 100 * 0.25 * min(d_zig.values())
    base, pert = _assembled(monkeypatch, iface, gap, w, 8, 1, lam[1], d_zig[1])
    ff = robust.farfield_persistence(pert, base)
    assert ff["overlap_outside"] > 0.99


def test_scattering_norm_bounded(setup_r, monkeypatch):
    """The correction u^(1) stays bounded uniformly in L."""
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 2e-5)
    norms = []
    for L in (8, 16):
        base, pert = _assembled(monkeypatch, iface, gap, w, L, 1, lam[1], d_zig[1])
        u0 = base.tracked_vector / np.linalg.norm(base.tracked_vector)
        u1 = pert.tracked_vector / np.linalg.norm(pert.tracked_vector)
        u1 = u1 * np.exp(-1j * np.angle(np.vdot(u0, u1)))
        norms.append(np.linalg.norm(u1 - u0))
    assert max(norms) < 0.5


def test_neumann_series_crosscheck(setup_r):
    iface, gap, lam, _ = setup_r
    w = robust.build_W("compact", 2e-5)
    rep = paper_checks.neumann_mode_check(iface, w, 8, 1, gap, lam[1], t=30)
    assert rep["mode_difference"] < 1e-6
    assert rep["series_terms"] < 25


def test_band_curve(setup_r, blended, hper, beta_star):
    iface, gap, lam, _ = setup_r
    curve = paper_checks.interface_band_curve(
        iface, gap, kpars=np.linspace(-np.pi, np.pi, 17),
        n_blocks=160,
    )
    assert curve["empty_at_pi"] is True
    i0 = int(np.argmin(np.abs(curve["kpar"])))
    center = sorted(curve["samples"][i0])
    assert np.abs(np.array(center) - np.array(sorted(lam.values()))).max() < 1e-6


def test_band_curve_solves_each_momentum_pair_once(setup_r, monkeypatch, tmp_path):
    """H(-k) = conj H(k): band-curve solves every |k| of its grid once, for +-k, and each sample is the complex strip's at k."""
    iface, gap, _, _ = setup_r
    solved, solve = [], robust.strip_modes

    def counted(strips, t, fracs, parities):
        solved.extend((t, f, tuple(parities)) for f in fracs)
        return solve(strips, t, fracs, parities)

    monkeypatch.setattr(robust, "strip_modes", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # both halves in this process
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"delta": DELTA_R, "truncation": {"oracle_blocks": 320}}))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "band-curve"]) == 0
    assert sorted(solved) == sorted((80, f, (1, -1)) for f in robust._momenta(40))
    rows = np.loadtxt(tmp_path / "o" / "band_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    kpars = np.linspace(-np.pi, np.pi, 41)   # the command's grid, symmetric to the bit
    assert set(rows[:, 0]) <= set(kpars)
    for kp in kpars:
        got = rows[rows[:, 0] == kp, 1]
        ref = [v for v, _, _ in paper_checks.direct_oracle(iface, gap, 160, kpar=float(kp))]
        assert len(got) == len(ref)
        assert np.abs(got - ref).max(initial=0.0) < 1e-12
    assert json.loads((tmp_path / "o" / "band_curve_summary.json").read_text())["empty_at_pi"] is True


def test_band_curve_continuity_refinement(setup_r):
    """Successive jumps scale linearly with the momentum step."""
    iface, gap, _, _ = setup_r
    jumps = {}
    for npts in (9, 17):
        ks = np.linspace(-0.06, 0.06, npts)
        curve = paper_checks.interface_band_curve(
            iface, gap, kpars=ks, n_blocks=160
        )
        vals = np.array([sorted(s) for s in curve["samples"]])
        assert vals.shape[1] == 2  # both branches stay in the gap here
        jumps[npts] = np.abs(np.diff(vals, axis=0)).max()
    assert jumps[17] < 0.7 * jumps[9]


def test_pi_sector_empty_small_delta(setup_r):
    iface, gap, _, _ = setup_r
    vals = paper_checks.direct_oracle(iface, gap, 160, kpar=np.pi)
    assert vals == []
    vals = paper_checks.direct_oracle(iface, gap, 160, kpar=-np.pi)
    assert vals == []


def test_ingap_eigsh_rejects_pairs_with_large_residual(setup_r):
    """A shift on an eigenvalue passes the inertia count but returns wrong pairs."""
    iface, gap, _, _ = setup_r
    strip = kernels.BlockedStripOperator(iface).csr(160)
    # 0.0519702019820843 is the odd interface mode's eigenvalue to 5e-16; the
    # centre of this gap is that float exactly
    centred = (0.0519702019820843 - 2.0**-7, 0.0519702019820843 + 2.0**-7)
    assert 0.5 * (centred[0] + centred[1]) == 0.0519702019820843 and gap[0] < centred[0] < centred[1] < gap[1]
    with pytest.raises(NumericError, match="residual"):
        paper_checks.ingap_pairs(strip, centred)
    w, v, _ = paper_checks.ingap_pairs(strip, gap)
    assert np.abs(strip @ v - v * w).max() < 1e-12


def _assembled_sector(iface, L, t, parity, w=None):
    mat = robust.assemble_strip(iface, L, t, w)
    q = robust.parity_isometry(L, t, parity)
    return (q.getH() @ mat @ q).tocsr().real


def test_momentum_split_sector_inertia(setup_r):
    """The momentum strips of one parity carry the assembled sector's inertia.

    L = 4, 6, 8 cover the self-conjugate momenta k = 0 and pi, where each
    strip splits by R_k = exp(-i k n1) FX, and the generic pairs (k, -k).
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    t = 6
    for L in (4, 6, 8):
        for parity in (1, -1):
            sector = _assembled_sector(iface, L, t, parity)
            dense = np.linalg.eigvalsh(sector.toarray())
            picks = (np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * (len(dense) - 1)).astype(int)
            blocks = strips.blocks(t, robust._momenta(L), parity)
            assert sum(b.mat.shape[0] for b in blocks) == sector.shape[0]
            for i in picks:
                shift = 0.5 * (dense[i] + dense[i + 1])
                assert sum(matching._inertia(b.mat, shift) for b in blocks) == i + 1


def test_momentum_sector_matches_assembled_spectrum(setup_r):
    """The momentum-coordinate matrix K of the perturbed sector is unitarily the assembled sector.

    Its dense spectrum equals the assembled one, so every weight of the
    defect's momentum coordinates (sqrt(2) at 0 < k < pi, q^T at k = 0 and
    pi, the mirror phase) is checked; at 0.5 the defect moves eigenvalues
    all over the spectrum.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    L, t = 8, 20
    for amplitude in (2e-5, 0.05, 0.5):
        w = robust.build_W("compact", amplitude)
        for parity in (1, -1):
            sector = robust._BlochSector(strips, L, t, parity)
            k = paper_checks.sector_matrix(sector, sector.defect(w))
            assembled = _assembled_sector(iface, L, t, parity, w)
            assert abs(k - k.getH()).max() < 1e-15
            dense = np.linalg.eigvalsh(assembled.toarray())
            assert np.abs(np.linalg.eigvalsh(k.toarray()) - dense).max() < 1e-12


@pytest.mark.parametrize("L", [8, 16])
def test_bordered_count_matches_assembled_sector(setup_r, L):
    """The bordered count of K below a shift is the inertia of the assembled perturbed sector and of the reference K.

    The shifts are both gap edges, points inside the gap and points across
    the whole spectrum; at 0.5 the defect moves eigenvalues all over it.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    t = 12
    inside = gap[0] + np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * (gap[1] - gap[0])
    for amplitude in (2e-5, 0.05, 0.5):
        w = robust.build_W("compact", amplitude)
        for parity in (1, -1):
            sector = robust._BlochSector(strips, L, t, parity)
            assembled = _assembled_sector(iface, L, t, parity, w)
            reach = float(abs(assembled).sum(axis=1).max())
            defect = sector.defect(w)
            k = paper_checks.sector_matrix(sector, defect)
            for shift in np.concatenate([inside, np.linspace(-0.93, 0.97, 9) * reach]):
                cores = strips.resolvent_cores(t, robust._momenta(L), parity, [shift])[0]
                count = robust._bordered_inertia(cores, *defect)
                assert count == matching._inertia(assembled, shift) == matching._inertia(k, shift)


def test_tail_cores_match_superlu(setup_r):
    """The half-strip Schur recursion gives each momentum strip's count and core block of a SuperLU factor.

    Both the gap-edge cores the strips keep and those `resolvent_cores`
    gives at further shifts are checked.  t <= CORE_COLUMNS has no tail,
    t = 3 a one-column tail, and the odd widths run the period-2 blocks at
    k = pi from both ends; t = 4 right after t = 3 must not resume the odd
    width's recursion.  Both solves
    are backward stable, so G may differ by eps times the condition number
    kappa = ||mat|| / dist(shift, spectrum): at the gap edges the two agree
    to 1e-12 relative, and across the spectrum, where the shifts lie half a
    level spacing from an eigenvalue, to the larger of 1e-12 and 64 eps kappa.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    fracs = robust._momenta(8)
    for t in (1, 2, 3, 4, 12, 81):
        for parity in (1, -1):
            for frac, blk in zip(fracs, strips.blocks(t, fracs, parity)):
                dense = np.linalg.eigvalsh(blk.mat.toarray())
                picks = (np.array([0.1, 0.3, 0.5, 0.7, 0.9]) * (len(dense) - 2)).astype(int)
                shifts = [*gap, *(0.5 * (dense[picks] + dense[picks + 1]))]
                cores = strips.resolvent_cores(t, [frac], parity, shifts)
                rhs = np.zeros((blk.size, len(blk.core)))
                rhs[blk.core, np.arange(len(blk.core))] = 1.0
                for shift, [(nu, g)] in [*zip(gap, ([edge] for edge in blk.edges)), *zip(shifts, cores)]:
                    ref = matching._factor(blk.mat, shift).solve(rhs)[blk.core]
                    kappa = np.abs(dense).max() / np.abs(dense - shift).min()
                    tol = 1e-12 if shift in gap else max(1e-12, 64 * np.finfo(float).eps * kappa)
                    assert nu == matching._inertia(blk.mat, shift)
                    assert np.abs(g - ref).max() <= tol * np.abs(ref).max()


def test_singular_tail_block_is_numeric(setup_r):
    """A shift on an eigenvalue of the end-cell block makes the first Schur block singular: NumericError, not LinAlgError."""
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    t = 12
    for frac, parity in (((1, 8), 1), ((1, 2), -1)):
        mat = strips.blocks(t, [frac], parity)[0].mat
        cell = mat.shape[0] // (2 * t + 1)
        for end in (mat[:cell, :cell], mat[-cell:, -cell:]):
            shift = float(np.linalg.eigvalsh(end.toarray())[1])
            with pytest.raises(NumericError, match=r"strip factor at shift .* failed: .* is singular"):
                strips.resolvent_cores(t, [frac], parity, [shift])


@pytest.mark.parametrize("parity", [1, -1])
def test_sector_pairs_factor_no_gap_edge(setup_r, monkeypatch, parity):
    """sector_pair at L = 8 and then 16, from L = 8's width, counts every strip without a factor, each width from the Dirichlet end.

    No `_inertia` runs; the tails step over t - 2 columns at each width:
    the 20 lanes of L = 8 (5 strips, 2 sides, 2 gap edges) at t0 = 80 and
    again at the certified width t, where L = 16 adds only the 16 lanes of
    its 4 new momenta.  No strip is built as a sparse complex strip, at any
    width: each is assembled from its cells, and at both widths only the
    strip with in-gap pairs (k = 0) is, for its shift-invert solve; the
    perturbed sector multiplies by its strips block by block.
    """
    iface, gap, lam, d_zig = setup_r
    inertia, tails, csr, assembled = [], [], [], []
    count, inverse, strip = matching._inertia, robust._inverse, robust._Cells.strip

    def counted_inverse(s, counted, singular):
        if counted and s.ndim == 3:
            tails.append(len(s))
        return inverse(s, counted, singular)

    def spy_strip(cells, t):
        assembled.append((cells, t))
        return strip(cells, t)

    monkeypatch.setattr(matching, "_inertia", lambda *a: inertia.append(a) or count(*a))
    monkeypatch.setattr(robust, "_inverse", counted_inverse)
    monkeypatch.setattr(kernels.BlockedStripOperator, "csr", lambda self, half: csr.append(half))
    monkeypatch.setattr(robust._Cells, "strip", spy_strip)
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 2e-5)
    widths = []
    for L in (8, 16):
        start = widths[-1] if widths else 80
        base, pert = robust.sector_pair(strips, w, L, parity, lam[parity], d_zig[parity], start, 640, True)
        widths.append(pert.t_used)
    t = widths[0]
    assert widths == [t, t] and t > 80
    assert inertia == [] and csr == []
    assert sum(tails) == 20 * (80 - robust.CORE_COLUMNS) + 36 * (t - robust.CORE_COLUMNS)
    momentum = {id(cells): frac for (frac, _), cells in strips._cells.items()}
    assert {(momentum[id(cells)], width) for cells, width in assembled} == {((0, 1), 80), ((0, 1), t)}


@pytest.mark.parametrize("parity", [1, -1])
def test_sector_pair_from_carried_width(setup_r, parity):
    """L = 16 started at the width L = 8 certified gives, to the bit, the sector pair started at t0 = 80."""
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 2e-5)
    args = (w, 16, parity, lam[parity], d_zig[parity])
    strips = robust.MomentumStrips(iface, gap)
    start = robust.sector_pair(strips, w, 8, parity, lam[parity], d_zig[parity], 80, 640, True)[1].t_used
    carried = robust.sector_pair(strips, *args, start, 640, True)
    fresh = robust.sector_pair(robust.MomentumStrips(iface, gap), *args, 80, 640, True)
    for got, ref in zip(carried, fresh):
        assert got.t_used == ref.t_used == start
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.vectors, ref.vectors)


@pytest.mark.parametrize("parity", [1, -1])
def test_sector_pair_solves_perturbed_once_unperturbed_certified(setup_r, monkeypatch, parity):
    """sector_pair at L = 8 and then 16 solves the perturbed sector only where the unperturbed one is certified, or at the cap.

    Both sectors leave at the width of the last solves; an unperturbed
    sector that is still uncertified at the cap (from a first width of 4,
    cap 32) has the perturbed one solved there too.
    """
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 2e-5)
    solves = []
    unperturbed_pairs, perturbed_pairs = robust._BlochSector.unperturbed_pairs, robust._BlochSector.perturbed_pairs

    def spy_unperturbed(sector):
        solves.append((sector.L, False, sector.t))
        return unperturbed_pairs(sector)

    def spy_perturbed(sector, defect):
        solves.append((sector.L, True, sector.t))
        return perturbed_pairs(sector, defect)

    def certified(L, t):
        """Whether the unperturbed sector alone is certified at the width t, solved on fresh strips.

        The zero defect makes the perturbed sector the unperturbed one.
        """
        alone = robust.build_W("compact", 0.0)
        try:
            pair = robust.sector_pair(
                robust.MomentumStrips(iface, gap), alone, L, parity, lam[parity], d_zig[parity], t, t, True
            )
        except GapCollapse:   # no pair kept
            return False
        return pair[0].t_converged

    monkeypatch.setattr(robust._BlochSector, "unperturbed_pairs", spy_unperturbed)
    monkeypatch.setattr(robust._BlochSector, "perturbed_pairs", spy_perturbed)
    strips = robust.MomentumStrips(iface, gap)
    base = None
    for L, start, cap in ((8, 80, 640), (16, None, 640), (8, 4, 32)):
        solves.clear()
        start = start or base.t_used   # L = 16 starts where L = 8 certified
        base, pert = robust.sector_pair(strips, w, L, parity, lam[parity], d_zig[parity], start, cap, True)
        assert base.t_used == pert.t_used and solves[-1] == (L, True, pert.t_used)
        seen = list(solves)   # `certified` solves more
        for n, (_, perturbed, t) in enumerate(seen):
            if perturbed:   # right after the unperturbed solve at its width
                assert seen[n - 1] == (L, False, t)
            else:
                following = seen[n + 1] if n + 1 < len(seen) else None
                assert (following == (L, True, t)) == (t == cap or certified(L, t))
        assert base.t_converged == (base.t_used < cap or certified(L, cap))
    assert base.t_used == pert.t_used == 32 and not base.t_converged


def test_strip_cache_keeps_one_width(setup_r):
    """Asking for the strips of a new width drops those of the last one."""
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    fracs = robust._momenta(8)
    for parity in (1, -1):
        strips.blocks(12, fracs, parity)
    assert {t for t, _, _ in strips._blocks} == {12} and len(strips._blocks) == 7
    strips.blocks(16, fracs[:2], 1)
    assert list(strips._blocks) == [(16, (0, 1), 1), (16, (1, 8), 0)]


def test_perturbed_pairs_form_no_k(setup_r, monkeypatch):
    """Once the strips are solved, the perturbed sector makes no SuperLU factor and no Lanczos run, and matches a cold solve of K.

    At L = 16 on the certified widths of delta = 0.025 its values agree
    with `paper_checks.ingap_pairs` on the reference K
    (`paper_checks.sector_matrix`) to 1e-13 relative, and its vectors
    overlap that solve's to 1 - 1e-12.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 2e-5)
    calls = []
    factor, eigsh = matching._factor, spla.eigsh
    monkeypatch.setattr(matching, "_factor", lambda *a, **k: calls.append("factor") or factor(*a, **k))
    monkeypatch.setattr(spla, "eigsh", lambda *a, **k: calls.append("eigsh") or eigsh(*a, **k))
    for parity, t in ((1, 192), (-1, 184)):
        sector = robust._BlochSector(strips, 16, t, parity)
        sector.unperturbed_pairs()
        calls.clear()
        vals, vecs, _ = sector.perturbed_pairs(w)
        assert calls == []
        cold, z, _ = paper_checks.ingap_pairs(paper_checks.sector_matrix(sector, sector.defect(w)), gap)
        assert calls.count("eigsh") == 1   # the spies see the reference solve
        assert len(vals) == len(cold) > 0
        assert np.abs(vals - cold).max() <= 1e-13 * np.abs(cold).max()
        overlap = np.abs(np.sum(vecs * sector.to_full(z).real, axis=0))
        assert overlap.min() >= 1.0 - 1e-12


@pytest.mark.parametrize("amplitude, L, parity, passes", [(0.05, 8, 1, 3), (2e-5, 16, 1, 2), (2e-5, 16, -1, 0)])
def test_secular_hard_cases_match_oracle(setup_r, monkeypatch, amplitude, L, parity, passes):
    """The secular solve matches the assembled oracle where it is hardest, and shifts no strip onto its own pole.

    At amplitude 0.05 the even pair moves by 4.5e-5, far beyond
    ``POLE_OFFSET``, in three Newton passes.  At amplitude 2e-5 and L = 16
    the even pair moves by 1.5e-8, within ``POLE_OFFSET``, so the strip that
    carries it is shifted to either side of its own eigenvalue in both
    passes; the odd pairs move by rounding only and run no pass at all.  No
    lane of any pass lies nearer than ``POLE_OFFSET`` / 2 to an in-gap
    eigenvalue of its strip.
    """
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", amplitude)
    strips = robust.MomentumStrips(iface, gap)
    widths, nearest = [], []
    secular_pass, schur_lanes = robust._BlochSector._secular_pass, robust._schur_lanes

    def spy_pass(sector, *args):
        widths.append(sector.t)
        poles = {id(blk.cells): blk.pairs[0] for blk in sector.blocks}

        def spy_lanes(lanes, t, count):
            nearest.extend(np.abs(poles[id(cells)] - s).min(initial=np.inf) for cells, s, _ in lanes)
            return schur_lanes(lanes, t, count)

        with monkeypatch.context() as patch:
            patch.setattr(robust, "_schur_lanes", spy_lanes)
            return secular_pass(sector, *args)

    monkeypatch.setattr(robust._BlochSector, "_secular_pass", spy_pass)
    pair = robust.sector_pair(strips, w, L, parity, lam[parity], d_zig[parity], 40, 320, True)
    ref = _assembled(monkeypatch, iface, gap, w, L, parity, lam[parity], d_zig[parity])
    for new, old in zip(pair, ref):
        assert (new.t_used, new.t_converged, new.ingap_count) == (old.t_used, old.t_converged, old.ingap_count)
        assert np.abs(new.eigenvalues - old.eigenvalues).max() < 1e-13
        assert abs(np.vdot(old.tracked_vector, new.tracked_vector)) >= 1 - 1e-10
    base, pert = pair
    shift = abs(pert.eigenvalues[pert.tracked] - base.eigenvalues[base.tracked])
    assert widths.count(pert.t_used) == passes
    if passes == 3:
        assert shift > 10 * robust.POLE_OFFSET
    elif passes == 2:
        assert 1e-9 < shift < robust.POLE_OFFSET   # a lane at the iterate itself would lie within the shift
    else:
        assert shift < 1e-14
    assert min(nearest, default=np.inf) >= 0.5 * robust.POLE_OFFSET


def test_secular_residual_beyond_tolerance_is_numeric(setup_r, monkeypatch):
    """A secular pair whose residual exceeds a shrunken ``RESIDUAL_RTOL`` raises NumericError (exit 3).

    The strips solve their own pairs first, at the usual tolerance.
    """
    iface, gap, _, _ = setup_r
    sector = robust._BlochSector(robust.MomentumStrips(iface, gap), 8, 24, 1)
    assert len(sector.unperturbed_pairs()[0]) == 2
    monkeypatch.setattr(matching, "RESIDUAL_RTOL", 1e-20)
    with pytest.raises(NumericError, match=r"in-gap pair .* of the secular equation has relative residual .* > 1e-20$"):
        sector.perturbed_pairs(robust.build_W("compact", 0.05))


def test_secular_root_leaving_the_gap_is_numeric(setup_r):
    """A root that a Newton pass moves out of the gap raises NumericError (exit 3).

    At L = 8 and t = 24 the defect of amplitude 0.05 lifts the even
    sector's upper in-gap pair by 5e-6; the gap is narrowed to 1e-6 beyond
    the unperturbed pairs once the strips have counted it.
    """
    iface, gap, _, _ = setup_r
    sector = robust._BlochSector(robust.MomentumStrips(iface, gap), 8, 24, 1)
    lam = sector.unperturbed_pairs()[0]
    sector.gap = (lam.min() - 1e-6, lam.max() + 1e-6)
    with pytest.raises(NumericError, match="a root of the secular equation left the gap"):
        sector.perturbed_pairs(robust.build_W("compact", 0.05))


def test_secular_roots_from_several_strips(setup_r):
    """Pairs of several momenta, out of order between them, each become the right root of the secular equation.

    At L = 64 and t = 24 the strips at k = 0 and k = 2 pi 21/64 carry the
    five in-gap pairs, listed 0.05, 0.07, 0.02, 0.08, 0.09; at amplitude
    0.05 the values match a cold solve of the reference K to 1e-13
    relative and the vectors overlap its vectors to 1 - 1e-12.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 0.05)
    for parity in (1, -1):
        sector = robust._BlochSector(strips, 64, 24, parity)
        listed = np.concatenate([blk.pairs[0] for blk in sector.blocks])
        assert sum(len(blk.pairs[0]) > 0 for blk in sector.blocks) == 2 and (np.diff(listed) < 0).any()
        vals, vecs, _ = sector.perturbed_pairs(w)
        cold, z, _ = paper_checks.ingap_pairs(paper_checks.sector_matrix(sector, sector.defect(w)), gap)
        assert len(vals) == len(cold) == len(listed)
        assert np.abs(vals - cold).max() <= 1e-13 * np.abs(cold).max()
        overlap = np.abs(np.sum(vecs * sector.to_full(z).real, axis=0))
        assert overlap.min() >= 1.0 - 1e-12


def test_secular_count_mismatch_and_cap_raise(setup_r, monkeypatch):
    """A bordered count other than the number of unperturbed pairs, and a secular solve still moving at its cap, raise NumericError."""
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 0.05)
    sector = robust._BlochSector(strips, 8, 40, 1)
    count = robust._bordered_inertia
    with monkeypatch.context() as patch:   # one more eigenvalue below the upper gap edge
        patch.setattr(robust, "_bordered_inertia", lambda cores, u, d: count(cores, u, d) + (cores[0] is sector.blocks[0].edges[1]))
        with pytest.raises(NumericError, match="bordered count puts 3 .* has 2 roots"):
            sector.perturbed_pairs(w)
    monkeypatch.setattr(robust, "SECULAR_CAP", 2)   # amplitude 0.05 takes three passes
    with pytest.raises(NumericError, match="did not converge in 2 passes"):
        sector.perturbed_pairs(w)


def test_momentum_coordinates_back_map(setup_r):
    """Momentum coordinates map onto the parity sector isometrically and really.

    Identity columns go to real orthonormal vectors with P x = p x at every
    momentum, not only at k = 0 and pi; the perturbed pairs come back real,
    of unit norm and eigenpairs of the assembled strip.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    L, t = 8, 4
    perm = paper_checks.reflection_permutation(L, t)
    for parity in (1, -1):
        sector = robust._BlochSector(strips, L, t, parity)
        eye = np.eye(sector.bounds[-1])
        x = sector.to_full(eye)
        assert np.abs(x.conj().T @ x - eye).max() < 1e-13
        assert np.abs(perm @ x - parity * x).max() < 1e-14
        assert np.abs(sector.to_momentum(x) - eye).max() < 1e-13
        assert np.abs(x.imag).max() < 1e-15

    t = 20
    w = robust.build_W("compact", 0.05)
    mat = robust.assemble_strip(iface, L, t, w)
    perm = paper_checks.reflection_permutation(L, t)
    for parity in (1, -1):
        vals, vecs, resid = robust._BlochSector(strips, L, t, parity).perturbed_pairs(w)
        assert len(vals) > 0 and not np.iscomplexobj(vecs)
        assert resid < 1e-12
        assert np.abs(np.linalg.norm(vecs, axis=0) - 1.0).max() < 1e-13
        assert np.abs(perm @ vecs - parity * vecs).max() < 1e-14
        assert np.abs(mat @ vecs - vecs * vals).max() < 1e-12


def test_momentum_blocks_real(setup_r):
    """Every momentum block is real in its reflection-adapted basis, with the strip's spectrum.

    At 0 < k < pi the block is S^H H_k S for the complex Hermitian H_k; at
    k = 0 and pi the two parity parts together carry H_k.  The reference
    sector matrix K with the defect (`paper_checks.sector_matrix`) is real
    in both parities.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    t = 20
    for L in (8, 16):
        for frac in robust._momenta(L):
            strip = kernels.BlockedStripOperator(iface, 2.0 * np.pi * frac[0] / frac[1]).csr(t)
            ref = np.linalg.eigvalsh(strip.toarray())
            parts = (1, -1) if frac[1] <= 2 else (1,)
            mats = [strips.blocks(t, [frac], p)[0].mat for p in parts]
            assert all(m.dtype == np.float64 for m in mats)
            dense = np.sort(np.concatenate([np.linalg.eigvalsh(m.toarray()) for m in mats]))
            assert np.abs(dense - ref).max() < 1e-12
    L = 8
    w = robust.build_W("compact", 0.05)
    for parity in (1, -1):
        sector = robust._BlochSector(strips, L, t, parity)
        assert paper_checks.sector_matrix(sector, sector.defect(w)).dtype == np.float64
    # an imaginary on-site hopping breaks the symmetry that makes the blocks real
    onsite = np.zeros((6, 6), dtype=complex)
    onsite[0, 1], onsite[1, 0] = 0.01j, -0.01j
    right = iface.right.plus(kernels.HoppingKernel("twist", {(0, 0): onsite}))
    twisted = kernels.InterfaceKernel(right, iface.left, iface.seam, iface.delta)
    with pytest.raises(ModelValidationError, match="not real"):
        robust.MomentumStrips(twisted, gap).blocks(t, [(1, 8)], 1)


def test_momentum_strip_matches_sparse_reference(setup_r):
    """Each momentum strip, assembled from its cells, is S^H H_k S of the complex strip in the sparse basis S, and its basis is S cell by cell.

    The momenta of L = 16 and 40, with both parity parts at k = 0 and pi, at
    the widths 0 and 1 (inside the core columns), 3 (one tail column), 100
    and 192.
    """
    iface, gap, _, _ = setup_r
    strips = robust.MomentumStrips(iface, gap)
    fracs = list(dict.fromkeys(robust._momenta(16) + robust._momenta(40)))
    for t in (0, 1, 3, 100, 192):
        for parity in (1, -1):
            for frac, blk in zip(fracs, strips.blocks(t, fracs, parity)):
                q = paper_checks.sector_isometry(t, frac, blk.part)
                assert (q != sp.block_diag(list(blk.basis), format="csr")).nnz == 0
                assert blk.mat.dtype == np.float64
                assert abs(blk.mat - paper_checks.real_strip(iface, t, frac, q)).max() < 1e-14


def test_sector_width_doubles_while_no_pair_is_kept(setup_r, monkeypatch):
    """Without a kept pair the width doubles up to its cap, then the unperturbed sector collapses unsolved by the perturbed one."""
    iface, gap, lam, d_zig = setup_r
    widths = []
    sector = robust._BlochSector
    monkeypatch.setattr(
        robust, "_BlochSector", lambda strips, L, t, parity: widths.append(t) or sector(strips, L, t, parity)
    )
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 2e-5)
    with pytest.raises(GapCollapse, match="no isolated"):   # widths 1 to 8 hold no isolated interface mode
        robust.sector_pair(strips, w, 8, 1, lam[1], d_zig[1], 1, 8, True)
    assert widths == [1, 2, 4, 8]


def test_certificate_fits_the_decay_rate():
    """Column norms r^|n1| give back r, and eps adds h times the two boundary columns."""
    L, t, r, h = 2, 40, 0.8, 2.0
    cols = r ** np.abs(np.arange(-t, t + 1))
    vec = np.repeat(cols / np.sqrt(6 * L), 6 * L)[:, None]
    eps, rate = robust._certificate(vec, 1e-15, h, L, t)
    scale = np.linalg.norm(cols)
    assert abs(rate - r) < 1e-12
    assert abs(eps - (1e-15 + h * np.sqrt(2.0) * r**t / scale)) < 1e-12 * eps
    assert np.isnan(robust._certificate(vec[: 6 * L * 5], 0.0, h, L, 2)[1])


@pytest.mark.parametrize("L", [8, 16])
def test_certificate_is_sound(setup_r, L):
    """Doubling the certified width moves no kept eigenvalue by more than the certificate."""
    iface, gap, lam, d_zig = setup_r
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 2e-5)
    for parity in (1, -1):
        pair = robust.sector_pair(strips, w, L, parity, lam[parity], d_zig[parity], 80, 640, True)
        t = 2 * pair[0].t_used
        for sector, wide in zip(pair, robust.sector_pair(strips, w, L, parity, lam[parity], d_zig[parity], t, t, True)):
            assert sector.t_converged and sector.residual_bound <= 1e-9
            assert len(wide.eigenvalues) == len(sector.eigenvalues)
            assert np.abs(wide.eigenvalues - sector.eigenvalues).max() <= sector.residual_bound


def test_rate_step_reaches_certified_width(setup_r, monkeypatch):
    """From a first width of 40 one step of the fitted decay rate reaches a certified width."""
    iface, gap, lam, d_zig = setup_r
    widths = []
    sector = robust._BlochSector
    monkeypatch.setattr(
        robust, "_BlochSector", lambda strips, L, t, parity: widths.append(t) or sector(strips, L, t, parity)
    )
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 2e-5)
    for parity in (1, -1):
        widths.clear()
        _, result = robust.sector_pair(strips, w, 8, parity, lam[parity], d_zig[parity], 40, 320, True)
        assert widths == [40, result.t_used]     # not 40, 80, 160, 320
        assert result.t_used % 8 == 0 and 40 < result.t_used < 320
        assert result.t_converged and result.residual_bound <= 1e-9


def test_sector_solves_stay_real(setup_r, monkeypatch):
    """Every matrix the momentum-coordinate sector solves hand to `_ingap_eigsh` is real."""
    iface, gap, lam, d_zig = setup_r
    seen = []

    def real_only(mat, gap, count, **options):
        seen.append(mat.dtype)
        return matching._ingap_eigsh(mat, gap, count, **options)

    monkeypatch.setattr(robust, "_ingap_eigsh", real_only)
    strips = robust.MomentumStrips(iface, gap)
    w = robust.build_W("compact", 2e-5)
    for parity in (1, -1):
        robust.sector_pair(strips, w, 8, parity, lam[parity], d_zig[parity], 20, 160, True)
    assert len(seen) > 0 and all(dtype == np.float64 for dtype in seen)


def test_sector_solves_shift_at_gap_centre(setup_r, monkeypatch):
    """Both sector paths factor every shift-invert solve at the gap centre; ``lam_ref`` only picks the tracked pair.

    The other factors count the line defect's assembled sectors at the gap edges (`_inertia`).
    """
    iface, gap, lam, d_zig = setup_r
    shifts = []
    factor = matching._factor

    def spy(mat, shift, **options):
        shifts.append(shift if not options else "inertia")
        return factor(mat, shift, **options)

    monkeypatch.setattr(matching, "_factor", spy)
    strips = robust.MomentumStrips(iface, gap)
    # the line defect's perturbed sector is assembled (`assembled_solve`)
    for w in (robust.build_W("compact", 2e-5), robust.build_W("line", 2e-5)):
        for parity in (1, -1):
            robust.sector_pair(strips, w, 8, parity, lam[parity], d_zig[parity], 20, 160, True)
    assert set(shifts) == {0.5 * (gap[0] + gap[1]), "inertia"}


@pytest.mark.parametrize("kind", [None, "compact"])
def test_bloch_sector_matches_oracle(setup_r, monkeypatch, kind):
    """Both momentum-coordinate sectors match the assembled ones; without a defect (kind None) the zero defect stands in."""
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("compact", 0.0 if kind is None else 2e-5)
    strips = robust.MomentumStrips(iface, gap)
    for L in (8, 16):
        for parity in (1, -1):
            pair = robust.sector_pair(strips, w, L, parity, lam[parity], d_zig[parity], 40, 320, True)
            for ref, new in zip(_assembled(monkeypatch, iface, gap, w, L, parity, lam[parity], d_zig[parity]), pair):
                assert (new.t_used, new.t_converged, new.ingap_count) == (
                    ref.t_used, ref.t_converged, ref.ingap_count
                )
                assert np.abs(new.eigenvalues - ref.eigenvalues).max() < 1e-13
                overlap = abs(np.vdot(ref.tracked_vector, new.tracked_vector))
                assert overlap >= 1 - 1e-10


def test_bloch_sector_line_defect(setup_r, monkeypatch):
    """The line defect has no low-rank form; its sector is the assembled solve."""
    iface, gap, lam, d_zig = setup_r
    w = robust.build_W("line", 2e-5)
    assert not w.compact and robust.build_W("compact", 2e-5).compact
    strips = robust.MomentumStrips(iface, gap)
    base, pert = robust.sector_pair(strips, w, 16, 1, lam[1], d_zig[1], 40, 320, True)
    _, ref = _assembled(monkeypatch, iface, gap, w, 16, 1, lam[1], d_zig[1])
    assert (pert.t_used, pert.ingap_count) == (ref.t_used, ref.ingap_count)
    assert np.abs(pert.eigenvalues - ref.eigenvalues).max() < 1e-13
    ff = robust.farfield_persistence(pert, base)
    assert ff["overlap_outside"] >= 0.99

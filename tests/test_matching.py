"""Boundary matching: limits, characteristic values, and interface modes."""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hexamer import green, kernels, lattice, matching, robust
from hexamer.errors import DegenerateBoundaryData, EnergyOutsideGap, NumericError

import paper_checks


FX_PAIR = np.kron(np.eye(2), lattice.FX_INT)


@pytest.fixture(scope="module")
def limits(blended, dirac, vgauge, beta_star):
    return paper_checks.limit_pieces(blended, dirac, vgauge, beta_star)


def test_matching_hermitian(pipeline, dirac):
    for h in (-1.2, 0.0, 0.8):
        mm = pipeline.matrices(dirac.lambda_star + 0.05 * h)
        assert np.abs(mm.matrix - mm.matrix.conj().T).max() < 1e-10


def test_matching_rejects_outside_gap(pipeline, dirac):
    with pytest.raises(EnergyOutsideGap):
        pipeline.matrices(dirac.lambda_star + 0.3)


def test_mpv_kernel(limits):
    m = limits.m_pv
    assert np.abs(m - m.conj().T).max() < 1e-10
    sv = np.linalg.svd(m, compute_uv=False)
    assert (sv < 1e-6).sum() == 4
    assert sv[-5] > 1e-3  # spectral gap to the fifth singular value
    for k in range(4):
        assert np.linalg.norm(m @ limits.kernel_vectors[:, k]) < 1e-6


def test_a_projection_rank(limits):
    sv = np.linalg.svd(limits.a_proj, compute_uv=False)
    assert (sv > 1e-10).sum() == 4
    assert np.abs(limits.a_proj - limits.a_proj.conj().T).max() < 1e-12
    # A is negative semidefinite: x^H A x = -sum |...|^2
    w = np.linalg.eigvalsh(limits.a_proj)
    assert w.max() < 1e-12


def test_xi_eta_profiles(limits, dirac, beta_star):
    assert limits.xi(0.0) == 0.0
    assert abs(limits.eta(0.0) - np.sign(beta_star) / abs(dirac.alpha_star)) < 1e-12
    h = 0.7 * beta_star
    expect = h / (abs(dirac.alpha_star) * np.sqrt(beta_star**2 - h**2))
    assert abs(limits.xi(h) - expect) < 1e-12
    assert limits.xi(-h) == -limits.xi(h)  # odd profile


def test_maux_pv_fixed_point_half(limits):
    """M^aux,pv maps each cone boundary pair to half of itself."""
    for k in range(4):
        x = limits.kernel_vectors[:, k]
        assert np.linalg.norm(limits.maux_pv @ x - 0.5 * x) < 1e-6


def test_maux_limit_combination(limits, dirac, beta_star, vgauge):
    """(M^aux,pv + sgn(beta)/|a*| A2) couples v1 to +i sgn(beta) v3."""
    lim = limits.maux_pv + (np.sign(beta_star) / abs(dirac.alpha_star)) * limits.aaux2
    for k, partner, sgn in ((0, 2, 1.0), (1, 3, -1.0)):
        x = limits.kernel_vectors[:, k]
        y = limits.kernel_vectors[:, partner]
        got = lim @ x
        expect = 0.5 * x + sgn * 1j * np.sign(beta_star) * 0.5 * y
        assert np.linalg.norm(got - expect) < 1e-6


def test_matching_converges_to_limit(blended, hper, dirac, vgauge, beta_star, limits):
    """||M(lam* + delta h, delta) - (Mpv + xi(h) A)|| decreases in delta."""
    hs = np.linspace(-0.9 * beta_star, 0.9 * beta_star, 21) * (1.0 - 1e-6)
    errs = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        iface = kernels.InterfaceKernel.from_bulks(blended, hper, delta)
        pipe = matching.MatchingPipeline(iface)
        row = []
        for h in hs:
            m = pipe.matrices(dirac.lambda_star + delta * h).matrix
            target = limits.m_pv + limits.xi(h) * limits.a_proj
            row.append(np.linalg.norm(m - target, 2))
        errs.append(row)
    errs = np.array(errs)
    for i in range(len(errs) - 1):
        assert np.all(errs[i + 1] <= 1.2 * errs[i])  # 20% slack per halving
    assert np.all(errs[-1] < errs[0])


def test_green_operator_convergence_signs(blended, hper, dirac, vgauge, beta_star):
    """Resolvent limit (5.34): the eta-term enters with +/- per bulk sign."""
    w = vgauge.vectors
    gpv = green.physical_green_pv(
        kernels.BlockedStripOperator(blended), dirac, vgauge, (-1, 0, 1)
    )
    h = 0.5 * beta_star
    xi = h / (abs(dirac.alpha_star) * np.sqrt(beta_star**2 - h**2))
    eta = beta_star / (abs(dirac.alpha_star) * np.sqrt(beta_star**2 - h**2))
    sym = sum(np.outer(w[:, k], w[:, k].conj()) for k in range(4))
    perm = (2, 3, 0, 1)
    skew = sum(
        (1.0 if k % 2 else -1.0) * np.outer(w[:, k], w[:, perm[k]].conj())
        for k in range(4)
    )
    errs = {+1: [], -1: []}
    for delta in (0.1, 0.05, 0.025):
        iface = kernels.InterfaceKernel.from_bulks(blended, hper, delta)
        for sgn, kern in ((+1, iface.right), (-1, iface.left)):
            strip = kernels.BlockedStripOperator(kern)
            g, _ = paper_checks.gap_blocks(strip, dirac.lambda_star + delta * h, (0,))
            target = gpv.blocks[0] + 0.5 * xi * sym + sgn * 0.5 * eta * skew
            errs[sgn].append(np.abs(g[0] - target).max())
    for sgn in (+1, -1):
        assert errs[sgn][-1] < errs[sgn][0]  # slow O(delta^(1/3)) convergence
        assert errs[sgn][-1] < 0.15
    # the opposite sign does not converge: the eta-term is sign-definite
    strip = kernels.BlockedStripOperator(
        kernels.InterfaceKernel.from_bulks(blended, hper, 0.025).right
    )
    g, _ = paper_checks.gap_blocks(strip, dirac.lambda_star + 0.025 * h, (0,))
    wrong = gpv.blocks[0] + 0.5 * xi * sym - 0.5 * eta * skew
    assert np.abs(g[0] - wrong).max() > 3.0 * errs[+1][-1]


def test_characteristic_search(modes, beta_star):
    search = modes.characteristic
    assert len(search.values) == 2
    assert search.total_multiplicity() == 4  # two roots, multiplicity two each
    for v in search.values:
        assert v.sigma_min < 1e-10
        assert abs(v.h) < 0.25 * beta_star  # bifurcating from h = 0


def test_characteristic_values_frozen(modes, dirac):
    lams = sorted(v.lam for v in modes.characteristic.values)
    assert abs(lams[0] - 0.04742126608737) < 1e-8
    assert abs(lams[1] - 0.05058086836622) < 1e-8


def _grid(dirac, beta_star, delta, n):
    r = 0.9 * beta_star * delta * (1.0 - 1e-3)
    return dirac.lambda_star + np.linspace(-r, r, n)


@pytest.mark.parametrize("delta", [0.05, 0.025])
@pytest.mark.parametrize("inverted", [True, False])
def test_matching_derivative_negative_definite(blended, hper, dirac, beta_star, delta, inverted):
    """The spectral dM/dlam is a central difference of M, and it is < 0 on J.

    It is <= 0 to rounding at every energy of the search grid too, on which
    the certified count rests.
    """
    pipe = matching.MatchingPipeline(
        kernels.InterfaceKernel.from_bulks(blended, hper, delta, inverted=inverted)
    )
    lams = _grid(dirac, beta_star, delta, 50)
    dm = pipe.matrix_stack(lams, derivative=True)
    step = 1e-6 * delta
    fd = (pipe.matrix_stack(lams + step) - pipe.matrix_stack(lams - step)) / (2.0 * step)
    rel = np.linalg.norm(dm - fd, axis=(1, 2)) / np.linalg.norm(dm, axis=(1, 2))
    assert rel.max() < 1e-6
    assert np.linalg.eigvalsh(dm).max() < 0.0
    hs = matching.characteristic_search(pipe, dirac.lambda_star, beta_star).h_grid
    w = np.linalg.eigvalsh(pipe.matrix_stack(dirac.lambda_star + delta * hs, derivative=True))
    assert (w.max(axis=1) <= 1e-12 * np.abs(w).max(axis=1)).all()


def test_matching_commutes_with_reflection(pipeline, dirac, beta_star):
    lams = _grid(dirac, beta_star, 0.05, 50)
    for m in (pipeline.matrix_stack(lams), pipeline.matrix_stack(lams, derivative=True)):
        assert np.abs(m @ FX_PAIR - FX_PAIR @ m).max() < 1e-12


def test_sector_bases_split_reflection():
    q = np.hstack([matching.SECTOR_BASES[1], matching.SECTOR_BASES[-1]])
    assert np.abs(q.T @ q - np.eye(12)).max() < 1e-14
    for s, qs in matching.SECTOR_BASES.items():
        assert qs.shape == (12, 6)
        assert np.abs(FX_PAIR @ qs - s * qs).max() < 1e-14


def test_matrix_stack_matches_single_energy(pipeline, dirac, beta_star):
    lams = _grid(dirac, beta_star, 0.05, 150)  # several chunks of energies
    stack = pipeline.matrix_stack(lams)
    # relative to ||M(lam*)||, the scale of the search's root tolerances:
    # near a root M is a sum of O(1) terms that cancel to O(0.1)
    scale = np.linalg.norm(pipeline.matrices(dirac.lambda_star).matrix, 2)
    for i in range(0, 150, 7):
        m = pipeline.matrices(lams[i]).matrix
        assert np.abs(stack[i] - m).max() <= 1e-14 * scale


def test_sector_counts_certify_roots(modes):
    search = modes.characteristic
    assert search.sector_counts == {1: (2, 4), -1: (2, 4)}
    assert search.evaluations["grid"] == len(search.h_grid)
    # one Newton solve per root, quadratic once bracketed
    assert len(search.evaluations["newton"]) == 2
    assert max(search.evaluations["newton"]) <= 8
    for v in search.values:
        parity = np.vdot(v.null_vectors, FX_PAIR @ v.null_vectors).real / v.multiplicity
        assert abs(abs(parity) - 1.0) < 1e-12  # each null space lies in one sector


def test_control_sector_counts_flat(blended, hper, dirac, beta_star):
    pipe = matching.MatchingPipeline(
        kernels.InterfaceKernel.from_bulks(blended, hper, 0.05, inverted=False)
    )
    search = matching.characteristic_search(pipe, dirac.lambda_star, beta_star, n_points=41)
    assert search.values == []
    for lo, hi in search.sector_counts.values():
        assert lo == hi
    assert search.evaluations["newton"] == []


def test_falling_sector_count_raises(pipeline, dirac, beta_star, monkeypatch):
    stack = pipeline.matrix_stack
    monkeypatch.setattr(
        pipeline, "matrix_stack", lambda lams, derivative=False: -stack(lams, derivative)
    )
    with pytest.raises(NumericError, match="falls"):
        matching.characteristic_search(pipeline, dirac.lambda_star, beta_star, n_points=41)


def test_unvalidated_root_raises(pipeline, dirac, beta_star, monkeypatch):
    matrices = pipeline.matrices

    def shifted(lam):
        mm = matrices(lam)
        mm.matrix = mm.matrix + 1e-6 * np.eye(12)
        return mm

    monkeypatch.setattr(pipeline, "matrices", shifted)
    with pytest.raises(NumericError, match="sigma_min"):
        matching.characteristic_search(pipeline, dirac.lambda_star, beta_star, n_points=41)


def test_two_modes_opposite_parity(modes, dirac):
    assert modes.count == 2
    assert sorted(m.parity for m in modes.modes) == [-1, 1]
    for m in modes.modes:
        assert abs(m.lambda_zig - dirac.lambda_star) < 0.01  # near mid-gap
        assert m.residual < 1e-8
        assert 0.0 < m.decay_rate_right < 0.9
        assert 0.0 < m.decay_rate_left < 0.9


def test_modes_match_direct_oracle(modes, oracle):
    assert len(oracle) == 2
    by_parity = {p: v for v, p, _ in oracle}
    for m in modes.modes:
        assert abs(m.lambda_zig - by_parity[m.parity]) < 1e-6


def test_mode_boundary_leading_order(modes, vgauge, beta_star):
    """Boundary data is v1 + i sgn(beta) v3 (even) and v2 - i sgn(beta) v4 (odd)."""
    s = np.sign(beta_star)
    targets = {
        1: (vgauge.vectors[:, 0] + 1j * s * vgauge.vectors[:, 2]) / np.sqrt(2.0),
        -1: (vgauge.vectors[:, 1] - 1j * s * vgauge.vectors[:, 3]) / np.sqrt(2.0),
    }
    for m in modes.modes:
        a = m.boundary_a / np.linalg.norm(m.boundary_a)
        t = targets[m.parity]
        overlap = abs(np.vdot(t, a))
        assert overlap > 0.95  # leading order up to o(1) corrections


def test_mode_profile_phase_fixed(pipeline, modes):
    # the boundary pair's phase is arbitrary; the profile must not follow it
    for mode, theta in zip(modes.modes, (0.7, 2.5)):
        z = np.exp(1j * theta)
        rot = matching.mode_from_boundary(
            pipeline, pipeline.matrices(mode.lambda_zig), z * mode.boundary_a, z * mode.boundary_b
        )
        assert np.abs(rot.profile - mode.profile).max() < 1e-12
        # the kpar = 0 operator is real, so the fixed phase makes the mode real
        assert np.abs(rot.profile.imag).max() < 1e-12


def test_mode_profile_matches_layer_potential(pipeline, modes):
    """Near the seam the decay recurrence reproduces the quadrature layer potential."""
    offsets = range(-8, 9)  # the panel route's range; rows -8..7 need no more
    levels, order = pipeline.levels, pipeline.order
    for m in modes.modes:
        gp, _ = paper_checks.gap_blocks(pipeline.right, m.lambda_zig, offsets, levels, order)
        gm, _ = paper_checks.gap_blocks(pipeline.left, m.lambda_zig, offsets, levels, order)
        a, b = m.boundary_a, m.boundary_b
        rp, rz = pipeline.hp_10 @ a, pipeline.hz_01 @ b
        lz, lm = pipeline.hz_10 @ a, pipeline.hm_01 @ b
        scale = np.abs(m.profile).max()
        for n in range(-8, 8):
            if n >= 0:
                direct = gp[n + 1] @ rp - gp[n] @ rz
            else:
                direct = -gm[n + 1] @ lz + gm[n] @ lm
            assert np.abs(m.profile[n - m.n_lo] - direct).max() <= 1e-12 * scale


def test_edge_filter_keeps_centred_ingap_pairs():
    cols = np.arange(-20, 21)  # window t = 20; edge band |n1| >= 20 - 3

    def vec(weights):
        v = np.zeros((len(cols), 6))
        for col, wt in weights.items():
            v[cols == col] = wt
        return v.ravel()

    cases = [  # (eigenvalue, column weights, kept)
        (0.1, {0: 1.0}, True),                       # centred in-gap mode
        (0.2, {0: 1.0, -16: 0.1, 16: 0.1}, True),    # tail just inside the band
        (0.3, {0: 1.0, -17: 0.1, 17: 0.1}, False),   # 17% of the weight in the band
        (0.4, {-20: 1.0, 20: 1.0}, False),           # weight at both window ends
        (0.5, {12: 1.0}, False),                     # centred beyond t / 2
        (2.0, {0: 1.0}, False),                      # outside the gap
    ]
    w = np.array([c[0] for c in cases])
    vectors = np.column_stack([vec(c[1]) for c in cases])
    kept = matching._edge_filtered(w, vectors, cols, (-1.0, 1.0), 3)
    assert [val for val, _, _ in kept] == [c[0] for c in cases if c[2]]
    assert np.array_equal(kept[0][1], vectors[:, 0])
    assert [center for _, _, center in kept] == [0.0, 0.0]


def test_mode_profile_boundary_consistency(modes):
    for m in modes.modes:
        i0 = -m.n_lo
        assert np.abs(m.profile[i0] - m.boundary_a).max() < 1e-7
        assert np.abs(m.profile[i0 - 1] - m.boundary_b).max() < 1e-7


def test_mode_tail_decay(modes):
    for m in modes.modes:
        mags = np.linalg.norm(m.profile, axis=1)
        assert mags[0] < 1e-9 * mags.max()
        assert mags[-1] < 1e-9 * mags.max()


def test_o_delta_shrinkage(blended, hper, dirac, beta_star, modes):
    """|lambda_zig - lambda*| / delta decreases when delta is halved."""
    iface_small = kernels.InterfaceKernel.from_bulks(blended, hper, 0.025)
    pipe = matching.MatchingPipeline(iface_small)
    small = matching.count_interface_modes(pipe, dirac.lambda_star, beta_star)
    assert small.count == 2
    h_large = max(abs(m.lambda_zig - dirac.lambda_star) / 0.05 for m in modes.modes)
    h_small = max(abs(m.lambda_zig - dirac.lambda_star) / 0.025 for m in small.modes)
    assert h_small < h_large


def test_control_interface_no_modes(blended, hper, dirac, beta_star, gap):
    iface = kernels.InterfaceKernel.from_bulks(blended, hper, 0.05, inverted=False)
    pipe = matching.MatchingPipeline(iface)
    search = matching.characteristic_search(
        pipe, dirac.lambda_star, beta_star, n_points=81
    )
    assert len(search.values) == 0
    assert search.sigma_min.min() > 1e-4
    assert paper_checks.direct_oracle(iface, dirac.lambda_star, gap) == []


def test_ghost_boundary_data_rejected(pipeline, modes):
    """The non-fixed-point null direction is annihilated up to o(1) by Maux."""
    cv = modes.characteristic.values[0]
    mm = pipeline.matrices(cv.lam)
    basis = cv.null_vectors
    gram = (mm.aux - np.eye(12)) @ basis
    _, sv, vt = np.linalg.svd(gram)
    ghost = basis @ vt[0].conj()
    # for the ghost the fixed-point defect is order one
    assert np.linalg.norm(mm.aux @ ghost - ghost) > 0.5
    scaled = ghost - (mm.aux @ ghost)  # mostly annihilated direction
    with pytest.raises(DegenerateBoundaryData):
        matching.mode_from_boundary(
            pipeline, mm, np.zeros(6, dtype=complex), np.zeros(6, dtype=complex)
        )


def test_mode_decay_consistent_with_resolvent(modes, pipeline):
    """Mode tails decay at the bulk-resolvent rate at the same energy."""
    for m in modes.modes:
        g, _ = paper_checks.gap_blocks(pipeline.right, m.lambda_zig, range(0, 9))
        norms = [np.linalg.norm(g[d], 2) for d in range(3, 9)]
        res_rate = np.exp(np.polyfit(range(len(norms)), np.log(norms), 1)[0])
        assert abs(m.decay_rate_right - res_rate) < 0.1


def test_inertia_count_matches_dense(iface, gap, dirac):
    """Negative diagonal pivots count the eigenvalues below each shift."""
    mat = robust.assemble_strip(iface, 4, 6)
    q = robust.parity_isometry(4, 6, 1)
    sector = (q.getH() @ mat @ q).tocsr().real
    strip = kernels.BlockedStripOperator(iface, 0.3).csr(20)
    assert np.abs(strip.data.imag).max() > 0.1
    shifts = (gap[0], gap[1], dirac.lambda_star, gap[1] + 0.2, -0.7)
    for m in (sector, strip):
        dense = np.linalg.eigvalsh(m.toarray())
        for s in shifts:
            assert matching._inertia(m, s) == int((dense < s).sum())


def test_ingap_eigsh_grows_k_near_gap_edge(iface, gap, monkeypatch):
    """With the shift by a gap edge the nearest pairs lie in the band."""
    mat = kernels.BlockedStripOperator(iface).csr(20)
    dense = np.linalg.eigvalsh(mat.toarray())
    expect = dense[(gap[0] < dense) & (dense < gap[1])]
    sigma = gap[1] - 1e-4
    assert len(expect) > 0
    assert not gap[0] < dense[np.argmin(np.abs(dense - sigma))] < gap[1]
    ks = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        ks.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    w, v, resid = matching._ingap_eigsh(mat, sigma, gap)
    assert ks[0] == len(expect) and ks[-1] > len(expect)
    assert len(w) == len(expect)
    assert np.abs(w - expect).max() < 1e-10
    assert np.abs(mat @ v - v * w).max() < 1e-10
    assert resid == np.linalg.norm(mat @ v - v * w, axis=0).max()


def test_ingap_eigsh_zero_count_skips_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigsh called for an empty gap")

    monkeypatch.setattr(spla, "eigsh", refuse)
    mat = sp.diags([-2.0, -1.0, 1.0, 2.0, 3.0]).tocsr()
    w, v, resid = matching._ingap_eigsh(mat, 0.0, (-0.5, 0.5))
    assert w.shape == (0,) and v.shape == (5, 0) and resid == 0.0


@pytest.mark.parametrize(
    "error",
    [spla.ArpackNoConvergence("no convergence", np.empty(0), np.empty((5, 0))), spla.ArpackError(-9999)],
)
def test_ingap_eigsh_arpack_failure_is_numeric(error, monkeypatch):
    """An ARPACK failure leaves `_ingap_eigsh` as NumericError (exit 3), not as a traceback."""
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(spla, "eigsh", fail)
    mat = sp.diags([-2.0, -0.1, 0.2, 2.0, 3.0]).tocsr()
    with pytest.raises(NumericError, match="Lanczos"):
        matching._ingap_eigsh(mat, 0.0, (-0.5, 0.5))
    with pytest.raises(NumericError, match="Lanczos"):
        matching._ingap_eigsh(mat, 0.0, (-0.5, 0.5), count=2, v0=np.ones(5) / np.sqrt(5.0))


def test_inertia_certificate_failures_raise():
    mat = sp.diags([-1.0, 0.3, 1.0, 2.0, 3.0]).tocsr()
    # a gap edge on an eigenvalue makes that factor exactly singular
    with pytest.raises(NumericError):
        matching._ingap_eigsh(mat, 0.8, (0.3, 1.5))
    # a zero diagonal forces an off-diagonal pivot, which voids the count
    swap = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    with pytest.raises(NumericError):
        matching._inertia(swap, 0.0)


def _block_loop_strip(source, half, kpar):
    """The strip assembled block by block from `BlockedStripOperator.block`."""
    op = kernels.BlockedStripOperator(source, kpar)
    rows, cols, vals = [], [], []
    for i, n in enumerate(range(-half, half + 1)):
        for j_off in (-1, 0, 1):
            if not -half <= n + j_off <= half:
                continue
            b = op.block(n, n + j_off)
            bi, bj = np.nonzero(b)
            rows.append(i * 6 + bi)
            cols.append((i + j_off) * 6 + bj)
            vals.append(b[bi, bj])
    size = (2 * half + 1) * 6
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    ).tocsr()


@pytest.mark.parametrize("kpar", [0.0, 0.3, np.pi, -2.9])
def test_truncated_strip_matches_block_loop(iface, blended, kpar):
    for source in (iface, blended):
        for half in (1, 120, 320):
            got = kernels.BlockedStripOperator(source, kpar).csr(half)
            ref = _block_loop_strip(source, half, kpar)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr)), (source, half, attr)

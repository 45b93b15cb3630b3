"""Geometry, symmetry group, representations, and first-order machinery."""
import numpy as np
from hypothesis import given, settings, strategies as st

from hexamer import kernels, lattice

import paper_checks


def test_site_positions():
    p = lattice.CellIndex(0, 0).vector() + lattice.SITE_OFFSETS[0]  # site 1
    assert np.allclose(p, [0.0, 1.0 / 3.0])
    p = lattice.CellIndex(0, 0).vector() + lattice.SITE_OFFSETS[5]  # site 6
    assert np.allclose(p, [0.0, -1.0 / 3.0])
    p = lattice.CellIndex(1, 0).vector() + lattice.SITE_OFFSETS[3]  # site 4
    assert np.allclose(p, [np.sqrt(3.0) / 3.0, 1.0 / 3.0])


def test_sublattice_ring_distances():
    # hexagonal ring: all sites at radius 1/3, nearest pairs at distance 1/3
    for i in range(1, 7):
        assert np.isclose(np.linalg.norm(lattice.SITE_OFFSETS[i - 1]), 1.0 / 3.0)
    assert np.isclose(lattice.site_distance((0, 0), 1, 3), 1.0 / 3.0)
    assert np.isclose(lattice.site_distance((0, 0), 1, 6), 2.0 / 3.0)
    assert np.isclose(lattice.site_distance((0, 1), 1, 6), 1.0 / 3.0)


def test_point_group_order_and_closure():
    group = lattice.generate_group(include_supersymmetry=False)
    assert len(group) == 12
    mats = [(g.int_, g.cell) for g in group]

    def member(op):
        return any(
            np.allclose(op.int_, m, atol=1e-12) and np.array_equal(op.cell, c)
            for m, c in mats
        )

    for g in group:
        for h in group:
            assert member(g.compose(h))


def test_extended_group_order_and_closure():
    elems = lattice.generate_group(include_supersymmetry=True)
    assert len(elems) == 36
    mats = [m for _, m in elems]

    def member(x):
        return any(np.allclose(x, m, atol=1e-12) for m in mats)

    rng = np.random.default_rng(3)
    idx = rng.integers(0, 36, size=(40, 2))
    for i, j in idx:
        assert member(mats[i] @ mats[j])


def test_group_elements_in_breadth_first_order():
    """Both closures list elements by word length, each named by its product."""
    names = [g.name for g in lattice.generate_group(include_supersymmetry=False)]
    assert names == [
        "e", "R6*e", "Fx*e", "R6*R6*e", "Fx*R6*e", "R6*Fx*e", "R6*R6*R6*e", "Fx*R6*R6*e",
        "R6*R6*Fx*e", "Fx*R6*Fx*e", "R6*R6*R6*R6*e", "Fx*R6*R6*R6*e",
    ]
    elems = lattice.generate_group(include_supersymmetry=True)
    assert [n for n, _ in elems[:11]] == [
        "e", "R6", "Fx", "T", "R6*R6", "Fx*R6", "T*R6", "R6*Fx", "T*Fx", "R6*T", "T*T",
    ]
    gens = dict(lattice.EXTENDED_GENERATORS)
    lengths = [len(name.split("*")) for name, _ in elems[1:]]
    assert lengths == sorted(lengths)
    for name, m in elems[1:]:
        assert np.array_equal(np.linalg.multi_dot([np.eye(6)] + [gens[x] for x in name.split("*")]), m)


def test_generator_relations():
    r6, fx = lattice.R6_INT, lattice.FX_INT
    t = lattice.T_GAMMA
    eye = np.eye(6)
    assert np.allclose(np.linalg.matrix_power(r6, 6), eye)
    assert np.allclose(fx @ fx, eye)
    assert np.array_equal(fx, eye[lattice.FX_PERM])  # a permutation matrix, row i = e_FX_PERM[i]
    assert np.allclose(r6 @ fx @ r6 @ fx, eye)  # R6 Fx = Fx R6^-1
    assert np.allclose(np.linalg.matrix_power(t, 3), eye)
    assert np.allclose(fx @ t, t @ fx)
    assert np.allclose(r6 @ t, np.linalg.matrix_power(t, 2) @ r6)


def test_representation_relations_and_homomorphism():
    for rep, dim in ((lattice.rep_rho1(), 2), (lattice.rep_rho2(), 2), (lattice.rep_rho_tilde(), 4)):
        r, f = rep["R6"], rep["Fx"]
        eye = np.eye(dim)
        assert np.abs(np.linalg.matrix_power(r, 6) - eye).max() < 1e-12
        assert np.abs(f @ f - eye).max() < 1e-12
        assert np.abs(r @ f - f @ np.linalg.inv(r)).max() < 1e-12
        if "T" in rep:
            t = rep["T"]
            assert np.abs(np.linalg.matrix_power(t, 3) - eye).max() < 1e-12
            assert np.abs(f @ t - t @ f).max() < 1e-12
            assert np.abs(r @ t - np.linalg.inv(t) @ r).max() < 1e-12
        # homomorphism on random words
        rng = np.random.default_rng(7)
        letters = [k for k in rep if k in ("R6", "Fx", "T")]
        for _ in range(25):
            w1 = rng.choice(letters, size=3)
            w2 = rng.choice(letters, size=2)
            m = lambda word: np.linalg.multi_dot([rep[x] for x in word])
            assert np.abs(m(list(w1) + list(w2)) - m(w1) @ m(w2)).max() < 1e-12


def test_commutators_symmetric_models(toy, extended, blended, hper):
    group = lattice.generate_group(include_supersymmetry=False)
    tsym = lattice.supersymmetry_op()
    for kern in (toy, extended, blended):
        assert max(lattice.commutator_norm(kern.blocks, g) for g in group) < 1e-12
        assert lattice.commutator_norm(kern.blocks, tsym) < 1e-12
    assert max(lattice.commutator_norm(hper.blocks, g) for g in group) < 1e-12
    assert lattice.commutator_norm(hper.blocks, tsym) > 0.1


def _bloch_scalar(blocks, kap1, kap2):
    """One Bloch matrix, summed block by block: the scalar reference."""
    h = np.zeros((6, 6), dtype=complex)
    for (e1, e2), b in blocks.items():
        h = h + np.exp(1j * (kap1 * e1 + kap2 * e2)) * b
    return h


def _commutator_scalar(blocks, op):
    """Largest 2-norm of g H g^-1 - H over the 9x9 grid, one momentum at a time."""
    conj = lattice.conjugate_kernel(blocks, op)
    kaps = 2.0 * np.pi * (np.arange(9) / 9 - 0.5)
    worst = 0.0
    for ka in kaps:
        for kb in kaps:
            diff = _bloch_scalar(conj, ka, kb) - _bloch_scalar(blocks, ka, kb)
            worst = max(worst, float(np.linalg.norm(diff, 2)))
    return worst


def _kernel_cases(toy, extended, blended, hper):
    cases = [k.blocks for k in (toy, extended, blended, hper)]
    # the detuning breaks T, so its image under T is a kernel of its own
    return cases + [lattice.conjugate_kernel(hper.blocks, lattice.supersymmetry_op())]


def test_bloch_grid_matches_scalar_calls(toy, extended, blended, hper):
    kaps = 2.0 * np.pi * (np.arange(9) / 9 - 0.5)
    ka, kb = np.meshgrid(kaps, kaps, indexing="ij")
    for blocks in _kernel_cases(toy, extended, blended, hper):
        stacked = lattice.bloch(blocks, ka, kb)
        assert stacked.shape == (9, 9, 6, 6)
        for bloch in (lattice.bloch, _bloch_scalar):
            one_by_one = np.array(
                [[bloch(blocks, a, b) for a, b in zip(ra, rb)] for ra, rb in zip(ka, kb)]
            )
            assert np.array_equal(stacked, one_by_one)


def test_commutator_norm_matches_scalar_loop(toy, extended, blended, hper):
    ops = lattice.generate_group(include_supersymmetry=False) + [lattice.supersymmetry_op()]
    assert len(ops) == 13
    for blocks in _kernel_cases(toy, extended, blended, hper):
        for op in ops:
            assert lattice.commutator_norm(blocks, op) == _commutator_scalar(blocks, op), op.name


def test_supersymmetry_kernel_inverse():
    t = dict(lattice.supersymmetry_op().shifts)
    tinv = lattice.supersymmetry_inverse_kernel()
    prod = lattice._convolve(t, tinv)
    assert set(prod) == {(0, 0)}
    assert np.allclose(prod[(0, 0)], np.eye(6))


def test_isotypic_projectors_complete():
    projs = lattice.c6v_isotypic_projectors()
    total = sum(projs.values())
    assert np.abs(total - np.eye(6)).max() < 1e-12
    for p in projs.values():
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
    assert abs(np.trace(projs["E1"]).real - 2.0) < 1e-12
    assert abs(np.trace(projs["E2"]).real - 2.0) < 1e-12


def test_rho_tilde_projector(dirac_toy):
    p = paper_checks.rho_tilde_projector()
    assert np.abs(p @ p - p).max() < 1e-10
    assert abs(np.trace(p).real - 4.0) < 1e-10
    # the aligned quadruplet spans exactly the rho~ component
    u = dirac_toy.ustar
    assert np.abs(p @ u - u).max() < 1e-10


def test_rho1_dimension_inside_quadruplet(dirac_toy):
    projs = lattice.c6v_isotypic_projectors()
    d1 = lattice.isotypic_dimension(projs["E1"], dirac_toy.ustar)
    d2 = lattice.isotypic_dimension(projs["E2"], dirac_toy.ustar)
    assert abs(d1 - 2.0) < 1e-10
    assert abs(d2 - 2.0) < 1e-10


def test_first_order_matrices_pattern(toy, dirac_toy):
    h1, h2 = paper_checks.first_order_matrices(toy.blocks, dirac_toy.ustar)
    a = dirac_toy.alpha_star
    tau2c = lattice.TAU.conjugate() ** 2
    expect1 = np.zeros((4, 4), dtype=complex)
    expect1[0, 2] = expect1[2, 0] = expect1[1, 3] = expect1[3, 1] = a
    expect2 = np.zeros((4, 4), dtype=complex)
    expect2[0, 2] = tau2c * a
    expect2[1, 3] = np.conj(tau2c) * a
    expect2[2, 0] = np.conj(tau2c) * a
    expect2[3, 1] = tau2c * a
    assert np.abs(h1 - expect1).max() < 1e-10
    assert np.abs(h2 - expect2).max() < 1e-10
    assert abs(a + 1.0 / np.sqrt(3.0)) < 1e-12  # toy cone coefficient is -1/sqrt(3)


def test_first_order_symmetry_relations(toy, dirac_toy):
    """The reduced matrices transform by the dual-basis momentum maps."""
    h1, h2 = paper_checks.first_order_matrices(toy.blocks, dirac_toy.ustar)
    hs = [h1, h2]
    rep = lattice.rep_rho_tilde()
    for name, op in (("R6", lattice.rotation_op()), ("Fx", lattice.reflection_op())):
        rho = rep[name]
        hat = op.dual
        for j in range(2):
            lhs = np.linalg.inv(rho) @ hs[j] @ rho
            rhs = sum(hat[i, j] * hs[i] for i in range(2))
            assert np.abs(lhs - rhs).max() < 1e-10, name


def test_momentum_space_conjugation(toy):
    rng = np.random.default_rng(11)
    for op in (lattice.rotation_op(), lattice.reflection_op()):
        for _ in range(5):
            k = rng.uniform(-np.pi, np.pi, size=2)
            lhs = np.linalg.inv(op.int_) @ toy.bloch_rad(*k) @ op.int_
            kk = op.dual @ k
            assert np.abs(lhs - toy.bloch_rad(*kk)).max() < 1e-12


def test_dispersion_det_roots(dirac_toy, toy):
    h1, h2 = paper_checks.first_order_matrices(toy.blocks, dirac_toy.ustar)
    assert np.allclose(np.linalg.eigvalsh(0.0 * h1 + 0.0 * h2), 0.0)
    a = abs(dirac_toy.alpha_star)
    t = 0.37
    roots = np.linalg.eigvalsh(t * h1 + 0.0 * h2)
    assert np.allclose(roots, [-a * t, -a * t, a * t, a * t], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    k1=st.floats(-1.0, 1.0, allow_nan=False),
    k2=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_dispersion_roots_match_reduced_model(k1, k2):
    toy = kernels.build_toy_bulk()
    from hexamer import spectra

    dd = spectra.locate_double_dirac(toy)
    h1, h2 = paper_checks.first_order_matrices(toy.blocks, dd.ustar)
    roots = np.linalg.eigvalsh(k1 * h1 + k2 * h2)
    model = paper_checks.reduced_model_slopes(dd.alpha_star, (k1, k2))
    assert np.abs(roots - model).max() < 1e-10


def test_reflection_y_convention():
    r = lattice.rotation_op()
    fy = r.compose(r).compose(r).compose(lattice.reflection_op())  # R6^3 Fx
    # external action is the y-axis reflection
    assert np.allclose(fy.ext, [[-1.0, 0.0], [0.0, 1.0]])


@settings(max_examples=25, deadline=None)
@given(
    k1=st.floats(-3.0, 3.0, allow_nan=False),
    k2=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_dual_momentum_canonicalization(k1, k2):
    dm = lattice.DualMomentum(k1, k2).canonical()
    assert -0.5 <= dm.k1 < 0.5 and -0.5 <= dm.k2 < 0.5
    toy = kernels.build_toy_bulk()
    h_a = toy.bloch_rad(*lattice.DualMomentum(k1, k2).radians)
    h_b = toy.bloch_rad(*dm.radians)
    assert np.abs(h_a - h_b).max() < 1e-10

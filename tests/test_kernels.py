"""Kernel builders, Bloch matrices, strips, blocking, and the interface."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexamer import kernels, lattice, spectra
from hexamer.errors import ModelValidationError, NearZeroCoupling

import paper_checks


def test_toy_kernel_entries(toy):
    assert toy.blocks[(0, 0)][0, 2] == 1.0  # sites 1-3 at distance 1/3
    assert toy.blocks[(0, 0)][0, 5] == 0.0  # sites 1-6 at distance 2/3
    assert toy.blocks[(0, 1)][0, 5] == 1.0  # site 1 to l2-shifted site 6


def test_extended_kernel_weights(extended):
    assert np.isclose(extended.blocks[(0, 0)][0, 2], 1.0)       # r = 1/3
    assert np.isclose(extended.blocks[(0, 0)][0, 5], 0.5)       # r = 2/3
    # distance-1 pair: same sublattice in the neighboring cell
    assert np.isclose(extended.blocks[(1, 0)][0, 0], 1.0 / 3.0)


def test_hper_entries(hper):
    assert hper.blocks[(0, 0)][0, 2] == 1.0   # intra-cell bond
    assert hper.blocks[(0, 1)][0, 5] == -1.0  # inter-cell bond


def test_kernel_hermiticity_validated():
    bad = {(1, 0): np.eye(6), (-1, 0): 2 * np.eye(6)}
    with pytest.raises(ModelValidationError):
        kernels.HoppingKernel("bad", bad)


def test_blend_range_guard():
    with pytest.raises(ModelValidationError):
        kernels.build_blended_bulk(0.7)


def test_toy_gamma_spectrum(toy):
    h0 = toy.bloch_rad(0.0, 0.0)
    assert np.allclose(h0.sum(axis=1), 3.0)  # three bonds per site
    w = np.linalg.eigvalsh(h0)
    assert np.abs(w - np.array([-3.0, 0, 0, 0, 0, 3.0])).max() < 1e-12


def test_honeycomb_folding_oracle(toy):
    """Independent oracle: the toy model is a folded honeycomb lattice.

    The primitive cell has two sites and nearest-neighbor hopping 1; folding
    onto the hexamer cell maps the primitive spectra at Gamma, K, K' onto the
    Gamma point.
    """
    d = lattice.SITE_OFFSETS

    def primitive_spectrum(k_cart):
        # bond vectors from site 1 (sublattice A) to its three neighbors
        bonds = np.array([d[2] - d[0], d[1] - d[0], lattice.ELL2 + d[5] - d[0]])
        f = np.exp(1j * bonds @ k_cart).sum()
        return np.array([-abs(f), abs(f)])

    # honeycomb Bravais vectors: nearest same-sublattice separations
    b1 = d[2] - d[1]
    b2 = d[5] - d[1]
    gmat = 2.0 * np.pi * np.linalg.inv(np.column_stack([b1, b2])).T
    g1, g2 = gmat[:, 0], gmat[:, 1]
    corners = [(g1 - g2) / 3.0, (g1 + 2 * g2) / 3.0, (2 * g1 + g2) / 3.0]
    kpoint = next(
        k for k in corners if primitive_spectrum(k)[1] < 1e-9
    )

    folded = np.sort(
        np.concatenate(
            [primitive_spectrum(np.zeros(2)), primitive_spectrum(kpoint),
             primitive_spectrum(-kpoint)]
        )
    )
    toy_gamma = np.linalg.eigvalsh(kernels.build_toy_bulk().bloch_rad(0.0, 0.0))
    assert np.abs(np.sort(toy_gamma) - folded).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    k1=st.floats(-np.pi, np.pi, allow_nan=False),
    k2=st.floats(-np.pi, np.pi, allow_nan=False),
)
def test_bloch_hermitian_and_periodic(k1, k2):
    kern = kernels.build_blended_bulk()
    h = kern.bloch_rad(k1, k2)
    assert np.abs(h - h.conj().T).max() < 1e-12
    h_shift = kern.bloch_rad(k1 + 2.0 * np.pi, k2 - 4.0 * np.pi)
    assert np.abs(h - h_shift).max() < 1e-12


def test_strip_blocks_match_bloch_slice(blended):
    for kpar in (0.0, 0.7, np.pi):
        s = blended.strip_blocks(kpar)
        for k in (0.0, 0.31, -2.2):
            h1 = sum(np.exp(1j * k * d) * b for d, b in s.items())
            assert np.abs(h1 - blended.bloch_rad(k, kpar)).max() < 1e-12


def test_strip_block_hermiticity(blended):
    s = blended.strip_blocks(0.4)
    for d, b in s.items():
        assert np.abs(s[-d] - b.conj().T).max() < 1e-12


def test_blocked_operator_structure(blended):
    op = kernels.BlockedStripOperator(blended)
    assert op.blockdim == 6
    assert np.abs(op.block(0, 2)).max() == 0.0
    assert np.abs(op.block(1, 0) - op.block(0, 1).conj().T).max() < 1e-12
    # bulk Bloch matrix equals the kernel Bloch slice
    for k in (0.0, 1.234):
        assert np.abs(op.bloch(k) - blended.bloch_rad(k, 0.0)).max() < 1e-12
    # a wider kernel would couple blocks two apart, outside the tridiagonal form
    with pytest.raises(ModelValidationError):
        kernels.HoppingKernel("wide", {(2, 0): np.eye(6), (-2, 0): np.eye(6)})


def test_truncation_spectra_fill_band_slices(blended):
    """Eigenvalues of a large symmetric truncation sample the kpar = 0 bands."""
    op = kernels.BlockedStripOperator(blended)
    t = 60
    mat = op.csr(t).toarray()
    w_trunc = np.linalg.eigvalsh(mat)
    ks = np.linspace(-np.pi, np.pi, 241)
    bands = np.linalg.eigvalsh(op.bloch_batch(ks))
    # every truncation eigenvalue lies within the band hull
    assert w_trunc.min() > bands.min() - 1e-6
    assert w_trunc.max() < bands.max() + 1e-6
    # interior band values are approximated well by the truncation
    probes = bands[::40].ravel()
    dist = np.abs(w_trunc[None, :] - probes[:, None]).min(axis=1)
    assert dist.max() < 0.05


def test_interface_blocks(iface, blended):
    op = kernels.BlockedStripOperator(iface)
    plus = kernels.BlockedStripOperator(iface.right)
    minus = kernels.BlockedStripOperator(iface.left)
    # away from the seam the blocks are exactly the bulk blocks
    for n in range(1, 4):
        assert np.abs(op.block(n, n) - plus.block(0, 0)).max() == 0.0
        assert np.abs(op.block(-n, -n) - minus.block(0, 0)).max() == 0.0
        assert np.abs(op.block(n, n + 1) - plus.block(0, 1)).max() == 0.0
        assert np.abs(op.block(-n - 1, -n) - minus.block(0, 1)).max() == 0.0
    # seam blocks carry the unperturbed kernel (E = 0)
    seam = kernels.BlockedStripOperator(blended)
    assert np.abs(op.block(0, -1) - seam.block(0, -1)).max() == 0.0
    # global hermiticity across the seam
    for n in range(-3, 3):
        assert np.abs(op.block(n + 1, n) - op.block(n, n + 1).conj().T).max() < 1e-14


def test_interface_reflection_symmetry(iface):
    op = kernels.BlockedStripOperator(iface)
    fx = lattice.FX_INT
    for n in range(-3, 4):
        for m in (n - 1, n, n + 1):
            b = op.block(n, m)
            assert np.abs(fx @ b @ fx - b).max() < 1e-12


def test_nonsingular_hopping(toy, extended, blended):
    ok_toy, cond_toy = paper_checks.check_nonsingular_hopping(toy)
    assert ok_toy is False and cond_toy == np.inf
    ok_ext, cond_ext = paper_checks.check_nonsingular_hopping(extended)
    assert ok_ext and np.isfinite(cond_ext)
    ok_blend, cond_blend = paper_checks.check_nonsingular_hopping(blended)
    assert ok_blend and cond_blend < 1e4


def test_gap_criterion_values(toy, extended, blended, hper):
    for kern in (toy, extended, blended):
        b1, b3, oriented = spectra.verify_gap_criterion(spectra.locate_double_dirac(kern), hper)
        assert abs(b1 - 2.0) < 1e-10
        assert abs(b3 + 2.0) < 1e-10
        assert oriented is hper


def test_gap_criterion_rejects_zero(toy):
    zero = kernels.HoppingKernel("zero", {(0, 0): np.zeros((6, 6))})
    with pytest.raises(NearZeroCoupling):
        spectra.verify_gap_criterion(spectra.locate_double_dirac(toy), zero)


def test_gap_criterion_flips_sign(dirac_toy, hper):
    flipped = hper.scaled(-1.0)
    b1, b3, oriented = spectra.verify_gap_criterion(dirac_toy, flipped)
    assert b1 < 0 < b3
    assert oriented is not flipped
    b1o, _, _ = spectra.verify_gap_criterion(dirac_toy, oriented)
    assert b1o > 0


def test_describe_serializable(blended, iface):
    import json

    json.dumps(blended.describe())
    json.dumps(iface.describe())


def test_reduced_perturbation_matrix_diagonal(blended, hper, dirac):
    """The reduced 4x4 perturbation matrix is diag(b, b, -b, -b)."""
    red = dirac.ustar.conj().T @ hper.bloch_rad(0.0, 0.0) @ dirac.ustar
    assert np.abs(red - np.diag([2.0, 2.0, -2.0, -2.0])).max() < 1e-10


def test_nonsingular_check_zero_kernel():
    zero = kernels.HoppingKernel("zero", {(0, 0): np.zeros((6, 6))})
    ok, cond = paper_checks.check_nonsingular_hopping(zero)
    assert ok is False and cond == np.inf


def test_strip_describe(iface):
    import json

    op = kernels.BlockedStripOperator(iface, kpar=0.3)
    d = op.describe()
    assert d["kpar"] == 0.3
    json.dumps(d)

"""Lattice geometry, symmetry group, and representation machinery.

The triangular lattice is spanned by l1 = (sqrt(3)/2, 1/2) and l2 = (0, 1),
with six sublattice sites per cell arranged on a hexagonal ring of radius
1/3.  Momenta are handled in two equivalent parameterizations:

* ``DualMomentum`` carries coefficients (k1, k2) of the dual basis with
  period 1 (the Brillouin zone is [-1/2, 1/2)^2);
* internal numerics use the radian phases ``kappa_i = 2*pi*k_i`` so a Bloch
  phase is ``exp(i*(kappa1*n1 + kappa2*n2))``.

All momentum derivatives (and hence the cone coefficient ``alpha*``) are
taken per radian.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError

# Lattice vectors and sublattice offsets.
ELL1 = np.array([np.sqrt(3.0) / 2.0, 0.5])
ELL2 = np.array([0.0, 1.0])

# Site offsets d_1..d_6 inside one cell (hexagonal ring, radius 1/3).
SITE_OFFSETS = np.array(
    [
        ELL2 / 3.0,
        -ELL1 / 3.0 + ELL2 / 3.0,
        ELL1 / 3.0,
        -ELL1 / 3.0,
        ELL1 / 3.0 - ELL2 / 3.0,
        -ELL2 / 3.0,
    ]
)

NN_DISTANCE = 1.0 / 3.0


def _unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((6, 6))
    m[i - 1, j - 1] = 1.0
    return m


# Internal (sublattice) actions of the generators.
R6_INT = _unit(1, 3) + _unit(2, 1) + _unit(3, 5) + _unit(4, 2) + _unit(5, 6) + _unit(6, 4)
FX_INT = _unit(1, 6) + _unit(2, 4) + _unit(3, 5) + _unit(4, 2) + _unit(5, 3) + _unit(6, 1)
# Fx as a sublattice permutation (0-based): (FX_INT x)[i] = x[FX_PERM[i]].
FX_PERM = FX_INT.argmax(axis=1)
# Supersymmetry translation restricted to the periodic (Gamma) Bloch space.
T_GAMMA = _unit(1, 5) + _unit(2, 6) + _unit(3, 2) + _unit(4, 1) + _unit(5, 4) + _unit(6, 3)

R6_EXT = np.array([[0.5, -np.sqrt(3.0) / 2.0], [np.sqrt(3.0) / 2.0, 0.5]])
FX_EXT = np.array([[1.0, 0.0], [0.0, -1.0]])

TAU = np.exp(1j * np.pi / 3.0)

# Generators of the extended group on the Gamma Bloch space, with their names.
EXTENDED_GENERATORS = (("R6", R6_INT), ("Fx", FX_INT), ("T", T_GAMMA))


@dataclass(frozen=True)
class CellIndex:
    """Integer coefficients (n1, n2) of a lattice cell n1*l1 + n2*l2."""

    n1: int
    n2: int

    def vector(self) -> np.ndarray:
        return self.n1 * ELL1 + self.n2 * ELL2


@dataclass(frozen=True)
class SiteIndex:
    """A lattice site: cell plus sublattice label in 1..6."""

    cell: CellIndex
    sub: int

    def __post_init__(self):
        if not 1 <= self.sub <= 6:
            raise ModelValidationError(f"sublattice index {self.sub} not in 1..6")


@dataclass(frozen=True)
class DualMomentum:
    """Coefficients of the dual basis; one Brillouin-zone period equals 1."""

    k1: float
    k2: float

    def canonical(self) -> "DualMomentum":
        """Representative reduced to [-1/2, 1/2)^2."""
        red = lambda k: (k + 0.5) % 1.0 - 0.5
        return DualMomentum(red(self.k1), red(self.k2))

    @property
    def radians(self) -> tuple[float, float]:
        return 2.0 * np.pi * self.k1, 2.0 * np.pi * self.k2


def site_distance(cell_offset, i, j):
    """Distance between site (0, i) and site (cell_offset, j).

    Arrays broadcast: ``cell_offset`` holds (e1, e2) on its last axis, and
    the site numbers i, j (1..6) broadcast against its other axes.
    """
    e = np.asarray(cell_offset)
    d = (
        e[..., :1] * ELL1
        + e[..., 1:] * ELL2
        + SITE_OFFSETS[np.asarray(j) - 1]
        - SITE_OFFSETS[np.asarray(i) - 1]
    )
    return np.hypot(d[..., 0], d[..., 1])


def _cell_matrix(ext: np.ndarray) -> np.ndarray:
    """Integer matrix C with ext @ (n . l) = (C n) . l."""
    basis = np.column_stack([ELL1, ELL2])
    c = np.linalg.solve(basis, ext @ basis)
    ci = np.rint(c)
    if not np.allclose(c, ci, atol=1e-12):
        raise ModelValidationError("external action does not preserve the lattice")
    return ci.astype(int)


@dataclass(frozen=True)
class SymmetryOp:
    """A point-group element or the supersymmetry translation.

    Point-group elements act as ``(g u)(n) = int @ u(cell^-1 n)``; their
    momentum-space action in dual coefficients is ``k -> dual @ k`` in the
    sense ``int^-1 H(k) int = H(dual @ k)``.  The supersymmetry element is
    stored through its translation-invariant kernel ``shifts`` instead of a
    point action; on the Gamma Bloch space it reduces to ``int``.
    """

    name: str
    int_: np.ndarray
    ext: np.ndarray | None = None
    cell: np.ndarray | None = None
    shifts: tuple[tuple[tuple[int, int], np.ndarray], ...] | None = None

    @property
    def is_point_op(self) -> bool:
        return self.cell is not None

    @property
    def dual(self) -> np.ndarray:
        """Momentum map [g^] in dual coefficients (transpose of the cell map)."""
        if self.cell is None:
            raise ModelValidationError(f"{self.name} has no point-group momentum map")
        return self.cell.T

    def compose(self, other: "SymmetryOp") -> "SymmetryOp":
        if not (self.is_point_op and other.is_point_op):
            raise ModelValidationError("compose is defined for point ops only")
        return SymmetryOp(
            name=f"{self.name}*{other.name}",
            int_=self.int_ @ other.int_,
            ext=self.ext @ other.ext,
            cell=self.cell @ other.cell,
        )


def rotation_op() -> SymmetryOp:
    return SymmetryOp("R6", R6_INT, R6_EXT, _cell_matrix(R6_EXT))


def reflection_op() -> SymmetryOp:
    return SymmetryOp("Fx", FX_INT, FX_EXT, _cell_matrix(FX_EXT))


def supersymmetry_op() -> SymmetryOp:
    """Translation by (sqrt(3)/3, 0) as a translation-invariant kernel.

    The kernel entries are the coefficients of u(m + e) in (T u)(m).
    """
    b1 = _unit(3, 2) + _unit(5, 4)
    b2 = _unit(4, 1) + _unit(6, 3)
    b3 = _unit(1, 5) + _unit(2, 6)
    shifts = (((0, 0), b1), ((-1, 0), b2), ((-1, 1), b3))
    return SymmetryOp("T", T_GAMMA, shifts=shifts)


def supersymmetry_inverse_kernel() -> dict[tuple[int, int], np.ndarray]:
    """Kernel of T^-1 = T^2 * (shift by 2 l1 - l2)^-1."""
    t = dict(supersymmetry_op().shifts)
    t2 = _convolve(t, t)
    # inverse of the pure translation T^3 = S_{2 l1 - l2} has kernel {(2,-1): I}
    return _convolve(t2, {(2, -1): np.eye(6)})


def _convolve(a: dict, b: dict) -> dict:
    """Kernel of the operator product A B for translation-invariant kernels."""
    out: dict[tuple[int, int], np.ndarray] = {}
    for ea, ba in a.items():
        for eb, bb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            blk = ba @ bb
            if e in out:
                out[e] = out[e] + blk
            else:
                out[e] = blk
    return {e: blk for e, blk in out.items() if np.abs(blk).max() > 1e-15}


def _closure(identity, gens, compose, key):
    """Breadth-first closure of ``gens`` from ``identity``, in discovery order.

    ``compose(f, g)`` extends a found element ``f`` by a generator ``g``;
    ``key`` must be exact (``tobytes`` of integer or permutation matrices).
    """
    elems, seen, frontier = [identity], {key(identity)}, [identity]
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(f, g)
                k = key(h)
                if k not in seen:
                    seen.add(k)
                    elems.append(h)
                    new.append(h)
        frontier = new
    return elems


def generate_group(include_supersymmetry: bool = False):
    """Close the generated symmetry group.

    Without the supersymmetry the result is the 12-element point group as
    full ``SymmetryOp`` objects.  With it, the closure is taken on the Gamma
    Bloch space where the translation acts as a 6x6 matrix; the result is a
    list of (name, matrix) pairs of length 36.
    """
    if not include_supersymmetry:
        ident = SymmetryOp("e", np.eye(6), np.eye(2), np.eye(2, dtype=int))
        return _closure(
            ident,
            [rotation_op(), reflection_op()],
            lambda f, g: g.compose(f),
            lambda op: op.int_.tobytes() + op.cell.tobytes(),
        )
    return _closure(
        ("e", np.eye(6)),
        EXTENDED_GENERATORS,
        lambda f, g: (f"{g[0]}*{f[0]}".replace("*e", ""), g[1] @ f[1]),
        lambda item: item[1].tobytes(),
    )


def conjugate_kernel(blocks: dict, op: SymmetryOp) -> dict:
    """Kernel of g H g^-1 for a translation-invariant kernel H."""
    if op.is_point_op:
        p = op.int_
        pinv = np.linalg.inv(p)
        out = {}
        for e, b in blocks.items():
            ep = tuple(int(v) for v in op.cell @ np.array(e))
            out[ep] = p @ b @ pinv
        return out
    t = dict(op.shifts)
    tinv = supersymmetry_inverse_kernel()
    return _convolve(t, _convolve(blocks, tinv))


def bloch(blocks: dict, kap1, kap2) -> np.ndarray:
    """Bloch matrices sum_e exp(i kappa.e) K(e) at momenta in radians.

    ``kap1`` and ``kap2`` are scalars or arrays of one common shape S; the
    result has shape S + (6, 6).
    """
    h = np.zeros(np.broadcast(kap1, kap2).shape + (6, 6), dtype=complex)
    for (e1, e2), b in blocks.items():
        h += np.exp(1j * (kap1 * e1 + kap2 * e2))[..., None, None] * b
    return h


def commutator_norm(blocks: dict, op: SymmetryOp) -> float:
    """Operator norm of g H g^-1 - H for the kernel H given by ``blocks`` (offset -> 6x6 block).

    The norm is the maximum over a 9 x 9 grid of Bloch momenta.
    """
    kaps = 2.0 * np.pi * (np.arange(9) / 9 - 0.5)
    ka, kb = np.meshgrid(kaps, kaps, indexing="ij")
    diff = bloch(conjugate_kernel(blocks, op), ka, kb) - bloch(blocks, ka, kb)
    return float(np.linalg.norm(diff, 2, axis=(-2, -1)).max())


# ---------------------------------------------------------------------------
# Representations


def rep_rho1() -> dict[str, np.ndarray]:
    return {
        "R6": np.diag([TAU, TAU.conjugate()]),
        "Fx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    }


def rep_rho2() -> dict[str, np.ndarray]:
    return {
        "R6": np.diag([TAU**2, TAU.conjugate() ** 2]),
        "Fx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    }


def rep_rho_tilde() -> dict[str, np.ndarray]:
    """The unique four-dimensional irrep of the extended symmetry group."""
    s32 = np.sqrt(3.0) / 2.0
    t = np.array(
        [
            [-0.5, 0, 0, 1j * s32],
            [0, -0.5, 1j * s32, 0],
            [0, 1j * s32, -0.5, 0],
            [1j * s32, 0, 0, -0.5],
        ]
    )
    f = np.zeros((4, 4), dtype=complex)
    f[0, 1] = f[1, 0] = f[2, 3] = f[3, 2] = 1.0
    return {
        "R6": np.diag([TAU, TAU.conjugate(), TAU**2, TAU.conjugate() ** 2]),
        "Fx": f,
        "T": t,
    }


def _rep_of_word(word, rep: dict) -> np.ndarray:
    dim = rep["R6"].shape[0]
    m = np.eye(dim, dtype=complex)
    for letter in word:
        m = m @ rep[letter]
    return m


def _isotypic_projector(elems, rep: dict) -> np.ndarray:
    """(dim rep / |G|) sum_g conj(chi(g)) g over the (word, matrix) pairs ``elems`` of G."""
    coef = rep["R6"].shape[0] / len(elems)
    p = np.zeros((6, 6), dtype=complex)
    for word, u in elems:
        p += coef * np.conj(np.trace(_rep_of_word(word, rep))) * u
    return p


def c6v_isotypic_projectors() -> dict[str, np.ndarray]:
    """Isotypic projectors of the point group on the sublattice space C^6.

    Returns all six irreducible components; the four one-dimensional irreps
    are labelled by the character values (chi(R6), chi(Fx)).
    """
    # each element's word is its name, R6 and Fx joined by "*" and ended by "e"
    words = [([w for w in op.name.split("*") if w != "e"], op.int_) for op in generate_group()]
    reps = {"E1": rep_rho1(), "E2": rep_rho2()}
    for r in (1, -1):
        for f in (1, -1):
            reps[f"1d({r:+d},{f:+d})"] = {"R6": np.array([[r]]), "Fx": np.array([[f]])}
    return {name: _isotypic_projector(words, rep) for name, rep in reps.items()}


def isotypic_dimension(projector: np.ndarray, basis: np.ndarray) -> float:
    """Trace of the projector restricted to span(basis columns)."""
    q, _ = np.linalg.qr(basis)
    return float(np.real(np.trace(q.conj().T @ projector @ q)))


def isotypic_score(projector: np.ndarray, basis: np.ndarray) -> float:
    """Fraction of the subspace carried by the isotypic component, in [0, 1]."""
    return isotypic_dimension(projector, basis) / basis.shape[1]


# ---------------------------------------------------------------------------
# First-order perturbation matrices


def momentum_derivative_blocks(blocks: dict, j: int) -> np.ndarray:
    """Exact d/d kappa_j of the Bloch matrix at Gamma (per-radian units)."""
    d = np.zeros((6, 6), dtype=complex)
    for e, b in blocks.items():
        d = d + 1j * e[j] * b
    return d

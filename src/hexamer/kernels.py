"""Hopping kernels and the operators built from them.

A translation-invariant Hamiltonian is stored through its hopping kernel
``K(e) = H(n, n+e)`` (6x6 block per cell offset ``e``), so the Bloch matrix
is ``H(kappa) = sum_e exp(i kappa.e) K(e)`` with ``kappa`` in radians.
Strip operators live on the cylinder with quasi-momentum ``kpar`` along l2;
their cell blocks are ``S(d) = sum_s exp(i kpar s) K((d, s))``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import lattice
from .errors import ModelValidationError

_Z6 = np.zeros((6, 6), dtype=complex)

# Cell offsets a kernel may use: every kernel has range 1 (|e1 l1 + e2 l2| <= 1).
RANGE1_OFFSETS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]


@dataclass(frozen=True)
class HoppingKernel:
    """Range-1, translation-invariant hopping data.

    ``blocks`` maps a cell offset ``e`` in ``RANGE1_OFFSETS`` to the 6x6
    block ``H(n, n+e)``; Hermiticity requires
    ``blocks[-e] == blocks[e].conj().T``.
    """

    name: str
    blocks: dict = field(repr=False)

    def __post_init__(self):
        for e, b in self.blocks.items():
            em = (-e[0], -e[1])
            if em not in self.blocks or not np.allclose(
                self.blocks[em], np.asarray(b).conj().T, atol=1e-12
            ):
                raise ModelValidationError(f"kernel {self.name}: not Hermitian at offset {e}")
            if e not in RANGE1_OFFSETS:
                raise ModelValidationError(f"kernel {self.name}: offset {e} beyond range 1")

    def block(self, e: tuple[int, int]) -> np.ndarray:
        return self.blocks.get(e, _Z6)

    def bloch_rad(self, kap1, kap2) -> np.ndarray:
        """Bloch matrix at momenta in radians; arrays give a stack (``lattice.bloch``)."""
        return lattice.bloch(self.blocks, kap1, kap2)

    def strip_blocks(self, kpar: float = 0.0) -> dict[int, np.ndarray]:
        """Cell blocks S(d) of the strip operator at quasi-momentum kpar."""
        s: dict[int, np.ndarray] = {}
        for (e1, e2), b in self.blocks.items():
            s[e1] = s.get(e1, _Z6) + np.exp(1j * kpar * e2) * b
        return s

    def scaled(self, c: float, name: str | None = None) -> "HoppingKernel":
        return HoppingKernel(name or f"{c}*{self.name}", {e: c * b for e, b in self.blocks.items()})

    def plus(self, other: "HoppingKernel", c: float = 1.0, name: str | None = None):
        blocks = {e: b.copy() for e, b in self.blocks.items()}
        for e, b in other.blocks.items():
            blocks[e] = blocks.get(e, _Z6) + c * b
        return HoppingKernel(name or f"{self.name}+{c}*{other.name}", blocks)

    def describe(self) -> dict:
        return {"generator": self.name, "range": 1}


def _distance_kernel(name: str, weight: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> HoppingKernel:
    """Kernel whose hopping from site i to site j of the cell e is ``weight(e, r)``, r their distance.

    ``weight`` is evaluated once on all offsets of ``RANGE1_OFFSETS`` at once:
    e of shape (7, 1, 1, 2) and r of shape (7, 6, 6).  Offsets with no
    nonzero weight get no block.
    """
    offsets = np.array(RANGE1_OFFSETS)[:, None, None, :]
    sites = np.arange(1, 7)
    weights = weight(offsets, lattice.site_distance(offsets, sites[:, None], sites))
    return HoppingKernel(
        name, {e: b.astype(complex) for e, b in zip(RANGE1_OFFSETS, weights) if np.abs(b).max() > 0}
    )


def build_toy_bulk() -> HoppingKernel:
    """Constant nearest-neighbor hopping on the hexamer structure."""
    return _distance_kernel(
        "toy", lambda e, r: np.where(np.abs(r - lattice.NN_DISTANCE) < 1e-12, 1.0, 0.0)
    )


def build_extended_bulk() -> HoppingKernel:
    """Inverse-distance hopping for site distances in [1/3, 1]."""

    def w(e, r):
        near = (1.0 / 3.0 - 1e-12 <= r) & (r <= 1.0 + 1e-12)
        return np.where(near, (1.0 / 3.0) / np.where(near, r, 1.0), 0.0)

    return _distance_kernel("extended", w)


def build_blended_bulk(mix: float = 0.2) -> HoppingKernel:
    """Toy kernel blended with the inverse-distance corrections.

    ``(1-mix)*toy + mix*extended`` keeps the toy model's band topology (no
    spectral folding back onto the degenerate energy) while making the
    forward hopping block invertible, which the layer-potential pipeline
    requires.  ``mix`` must stay below ~0.3; beyond that the long bonds start
    closing the bulk gap.
    """
    if not 0.0 < mix < 0.5:
        raise ModelValidationError(f"blend fraction {mix} outside (0, 0.5)")
    toy, ext = build_toy_bulk(), build_extended_bulk()
    return toy.scaled(1.0 - mix).plus(ext, mix, name=f"blended({mix})")


def build_hper() -> HoppingKernel:
    """Symmetry-breaking detuning: +1 on intra-cell bonds, -1 on inter-cell."""

    def w(e, r):
        intra = (e == 0).all(axis=-1)
        return np.where(np.abs(r - lattice.NN_DISTANCE) > 1e-12, 0.0, np.where(intra, 1.0, -1.0))

    return _distance_kernel("detuning", w)


def bulk_model(name: str, mix: float) -> HoppingKernel:
    if name == "toy":
        return build_toy_bulk()
    if name == "extended":
        return build_extended_bulk()
    if name == "blended":
        return build_blended_bulk(mix)
    raise ModelValidationError(f"unknown model '{name}'")


def perturbed_bulks(kb: HoppingKernel, kper: HoppingKernel, delta: float):
    """The pair (H_{+delta}, H_{-delta})."""
    if delta < 0:
        raise ModelValidationError("delta must be nonnegative")
    return (
        kb.plus(kper, +delta, name=f"{kb.name}+{delta}*per"),
        kb.plus(kper, -delta, name=f"{kb.name}-{delta}*per"),
    )


# ---------------------------------------------------------------------------
# Interface kernel and blocked strip operators


@dataclass(frozen=True)
class InterfaceKernel:
    """Two bulk kernels glued along the zigzag line n1 = 0.

    Cell pairs with both columns >= 0 use ``right`` (the +delta bulk), both
    < 0 use ``left`` (-delta), and pairs straddling the seam use ``seam``,
    the unperturbed bulk.
    """

    right: HoppingKernel
    left: HoppingKernel
    seam: HoppingKernel
    delta: float

    @classmethod
    def from_bulks(cls, kb, kper, delta, inverted: bool = True):
        """Standard construction; ``inverted=False`` puts +delta on both sides."""
        plus, minus = perturbed_bulks(kb, kper, delta)
        left = minus if inverted else plus
        return cls(right=plus, left=left, seam=kb, delta=delta)

    def describe(self) -> dict:
        return {
            "right": self.right.describe(),
            "left": self.left.describe(),
            "seam": self.seam.describe(),
            "delta": self.delta,
        }


def _side(n, m):
    """Kernel of the cell pair (n, m) of an interface strip, scalars or arrays.

    0 = right (both columns >= 0), 1 = left (both < 0), 2 = seam.
    """
    return 2 - 2 * ((n >= 0) & (m >= 0)) - ((n < 0) & (m < 0))


class BlockedStripOperator:
    """Block-tridiagonal operator on the cylinder strip.

    Every kernel has range 1, so each block is one cell column and couples
    only to its two neighbours.  Blocks deviate from translation invariance
    only across the seam window for interface kernels.
    """

    blockdim = 6

    def __init__(self, source, kpar: float = 0.0):
        self.kpar = float(kpar)
        self.interface = source if isinstance(source, InterfaceKernel) else None
        # strip blocks S(d) of the right, left and seam kernels (`_side`); a
        # bulk kernel fills all three
        kerns = (source.right, source.left, source.seam) if self.interface else (source,) * 3
        self._sides = tuple(k.strip_blocks(kpar) for k in kerns)
        # energy-independent spectral data of a bulk strip (band edges, Bloch
        # eigenpairs at quadrature nodes), filled lazily by hexamer.green
        self.spectral_cache: dict = {}

    def block(self, n: int, m: int) -> np.ndarray:
        """6x6 block H~(n, m) = S(m - n); zero when |n - m| > 1."""
        return self._sides[_side(n, m)].get(m - n, _Z6)

    def _bulk_triple(self):
        if self.interface is not None:
            raise ModelValidationError("Bloch matrix undefined for interface operators")
        if not hasattr(self, "_triple"):
            self._triple = (self.block(0, 0), self.block(0, 1), self.block(0, -1))
        return self._triple

    def bloch(self, kap: float) -> np.ndarray:
        """Blocked Bloch matrix (bulk operators only); ``kap`` of shape (n, 1, 1) gives n of them."""
        b0, bp, bm = self._bulk_triple()
        return b0 + np.exp(1j * kap) * bp + np.exp(-1j * kap) * bm

    def bloch_batch(self, kaps: np.ndarray) -> np.ndarray:
        """Stacked blocked Bloch matrices over an array of momenta."""
        b0, bp, bm = self._bulk_triple()
        ph = np.exp(1j * np.asarray(kaps))
        return b0 + ph[:, None, None] * bp + ph.conj()[:, None, None] * bm

    def csr(self, half: int):
        """Sparse Dirichlet truncation to the columns |n| <= ``half``: its block (n, m) is `block(n, m)`."""
        import scipy.sparse as sp  # deferred: only the sparse strip solves need scipy

        ns = np.arange(-half, half + 1)
        rows, cols, vals = [], [], []
        for d in (-1, 0, 1):
            n = ns[np.abs(ns + d) <= half]
            side = _side(n, n + d)
            for s, blocks in enumerate(self._sides):
                b = blocks.get(d, _Z6)
                bi, bj = np.nonzero(b)
                i = n[side == s, None] + half
                rows.append((6 * i + bi).ravel())
                cols.append((6 * (i + d) + bj).ravel())
                vals.append(np.tile(b[bi, bj], len(i)))
        size = 6 * len(ns)
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
        ).tocsr()

    def describe(self) -> dict:
        src = self.interface.describe() if self.interface else {"bulk": True}
        return {"kpar": self.kpar, "blockdim": self.blockdim, "source": src}

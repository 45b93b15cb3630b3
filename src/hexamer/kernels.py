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
from .errors import ModelValidationError, NearZeroCoupling

_Z6 = np.zeros((6, 6), dtype=complex)

# Cell offsets reachable by a range-1 kernel (|e1 l1 + e2 l2| <= 1).
RANGE1_OFFSETS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]


@dataclass(frozen=True)
class HoppingKernel:
    """Finite-range, translation-invariant hopping data.

    ``blocks`` maps a cell offset ``e`` to the 6x6 block ``H(n, n+e)``;
    Hermiticity requires ``blocks[-e] == blocks[e].conj().T``.
    """

    name: str
    range_: int
    blocks: dict = field(repr=False)

    def __post_init__(self):
        for e, b in self.blocks.items():
            em = (-e[0], -e[1])
            if em not in self.blocks or not np.allclose(
                self.blocks[em], np.asarray(b).conj().T, atol=1e-12
            ):
                raise ModelValidationError(f"kernel {self.name}: not Hermitian at offset {e}")
            if np.linalg.norm(e[0] * lattice.ELL1 + e[1] * lattice.ELL2) > self.range_ + 1e-9:
                raise ModelValidationError(f"kernel {self.name}: offset {e} beyond range")

    def block(self, e: tuple[int, int]) -> np.ndarray:
        return self.blocks.get(e, _Z6)

    def bloch_rad(self, kap1: float, kap2: float) -> np.ndarray:
        h = np.zeros((6, 6), dtype=complex)
        for (e1, e2), b in self.blocks.items():
            h = h + np.exp(1j * (kap1 * e1 + kap2 * e2)) * b
        return h

    def bloch_rad_batch(self, kap1: np.ndarray, kap2: np.ndarray) -> np.ndarray:
        """Stacked Bloch matrices over momentum arrays (radians)."""
        h = np.zeros(np.shape(kap1) + (6, 6), dtype=complex)
        for (e1, e2), b in self.blocks.items():
            h += np.exp(1j * (kap1 * e1 + kap2 * e2))[..., None, None] * b
        return h

    def strip_blocks(self, kpar: float = 0.0) -> dict[int, np.ndarray]:
        """Cell blocks S(d) of the strip operator at quasi-momentum kpar."""
        s: dict[int, np.ndarray] = {}
        for (e1, e2), b in self.blocks.items():
            s[e1] = s.get(e1, _Z6) + np.exp(1j * kpar * e2) * b
        return s

    def scaled(self, c: float, name: str | None = None) -> "HoppingKernel":
        return HoppingKernel(
            name or f"{c}*{self.name}",
            self.range_,
            {e: c * b for e, b in self.blocks.items()},
        )

    def plus(self, other: "HoppingKernel", c: float = 1.0, name: str | None = None):
        blocks = {e: b.copy() for e, b in self.blocks.items()}
        for e, b in other.blocks.items():
            blocks[e] = blocks.get(e, _Z6) + c * b
        return HoppingKernel(
            name or f"{self.name}+{c}*{other.name}",
            max(self.range_, other.range_),
            blocks,
        )

    def describe(self) -> dict:
        return {"generator": self.name, "range": self.range_}


def bloch_matrix(kernel: HoppingKernel, kappa) -> np.ndarray:
    """Bloch matrix at a dual momentum given in period-1 coefficients."""
    if isinstance(kappa, lattice.DualMomentum):
        k1, k2 = kappa.radians
    else:
        k1, k2 = 2.0 * np.pi * kappa[0], 2.0 * np.pi * kappa[1]
    return kernel.bloch_rad(k1, k2)


def _distance_kernel(name: str, weight: Callable[[tuple, float], float]) -> HoppingKernel:
    blocks = {}
    for e in RANGE1_OFFSETS:
        b = np.zeros((6, 6), dtype=complex)
        for i in range(1, 7):
            for j in range(1, 7):
                b[i - 1, j - 1] = weight(e, lattice.site_distance(e, i, j))
        if np.abs(b).max() > 0:
            blocks[e] = b
    return HoppingKernel(name, 1, blocks)


def build_toy_bulk() -> HoppingKernel:
    """Constant nearest-neighbor hopping on the hexamer structure."""
    return _distance_kernel(
        "toy", lambda e, r: 1.0 if abs(r - lattice.NN_DISTANCE) < 1e-12 else 0.0
    )


def build_extended_bulk() -> HoppingKernel:
    """Inverse-distance hopping for site distances in [1/3, 1]."""
    return _distance_kernel(
        "extended",
        lambda e, r: (1.0 / 3.0) / r if 1.0 / 3.0 - 1e-12 <= r <= 1.0 + 1e-12 else 0.0,
    )


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
        if abs(r - lattice.NN_DISTANCE) > 1e-12:
            return 0.0
        return 1.0 if e == (0, 0) else -1.0

    return _distance_kernel("detuning", w)


def bulk_model(name: str, mix: float = 0.2) -> HoppingKernel:
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


def check_nonsingular_hopping(kernel: HoppingKernel):
    """Invertibility of the l2-summed forward hopping block (reported).

    Returns (is_nonsingular, condition_number); the block tested is
    ``sum_s K((N, s))`` for kernel range N.
    """
    n = kernel.range_
    blk = sum(
        (b for (e1, e2), b in kernel.blocks.items() if e1 == n),
        np.zeros((6, 6), dtype=complex),
    )
    svals = np.linalg.svd(blk, compute_uv=False)
    if svals[-1] < 1e-12 * max(svals[0], 1.0):
        return False, np.inf
    return True, float(svals[0] / svals[-1])


def verify_gap_criterion(kb: HoppingKernel, kper: HoppingKernel):
    """First-order gap-opening data on the cone quadruplet.

    Returns ``(beta1, beta3, oriented_perturbation)`` where the returned
    kernel equals ``kper`` with its sign flipped if necessary so that
    ``beta* = beta1 = -beta3 > 0`` holds verbatim.  Raises
    ``NearZeroCoupling`` when the perturbation does not split the cone at
    first order, and checks that the reduced 4x4 perturbation matrix is
    diagonal with paired entries.
    """
    from .spectra import locate_double_dirac  # deferred: spectra imports kernels

    dd = locate_double_dirac(kb)
    hper0 = kper.bloch_rad(0.0, 0.0)
    red = dd.ustar.conj().T @ hper0 @ dd.ustar
    beta1 = float(np.real(red[0, 0]))
    beta3 = float(np.real(red[2, 2]))
    offdiag = np.abs(red - np.diag(np.diag(red))).max()
    if offdiag > 1e-10:
        raise NearZeroCoupling(f"reduced perturbation matrix not diagonal ({offdiag:.2e})")
    if abs(beta1 + beta3) > 1e-8 or abs(red[1, 1] - red[0, 0]) > 1e-10:
        raise NearZeroCoupling("perturbation does not satisfy beta1 = -beta3 pairing")
    if abs(beta1) <= 1e-6:
        raise NearZeroCoupling(f"|beta1| = {abs(beta1):.2e} <= 1e-6")
    oriented = kper if beta1 > 0 else kper.scaled(-1.0, name=f"-{kper.name}")
    return beta1, beta3, oriented


# ---------------------------------------------------------------------------
# Interface kernel and blocked strip operators


@dataclass(frozen=True)
class InterfaceKernel:
    """Two bulk kernels glued along the zigzag line n1 = 0.

    Cell pairs with both columns >= 0 use ``right`` (the +delta bulk), both
    < 0 use ``left`` (-delta), and pairs straddling the seam use
    ``seam`` = unperturbed bulk + delta * seam_extra.
    """

    right: HoppingKernel
    left: HoppingKernel
    seam: HoppingKernel
    delta: float

    @classmethod
    def from_bulks(cls, kb, kper, delta, seam_extra: HoppingKernel | None = None,
                   inverted: bool = True):
        """Standard construction; ``inverted=False`` puts +delta on both sides."""
        plus, minus = perturbed_bulks(kb, kper, delta)
        seam = kb if seam_extra is None else kb.plus(seam_extra, delta, name="seam")
        left = minus if inverted else plus
        return cls(right=plus, left=left, seam=seam, delta=delta)

    def kernel_for(self, c1: int, c2: int) -> HoppingKernel:
        if c1 >= 0 and c2 >= 0:
            return self.right
        if c1 < 0 and c2 < 0:
            return self.left
        return self.seam

    def describe(self) -> dict:
        return {
            "right": self.right.describe(),
            "left": self.left.describe(),
            "seam": self.seam.describe(),
            "delta": self.delta,
        }


class BlockedStripOperator:
    """Block-tridiagonal operator on the blocked strip space.

    Cells of the cylinder strip are grouped N at a time (N = kernel range),
    which makes any range-N operator nearest-neighbor in the block index.
    Blocks deviate from translation invariance only across the seam window
    for interface kernels.
    """

    def __init__(self, source, kpar: float = 0.0):
        self.kpar = float(kpar)
        if isinstance(source, InterfaceKernel):
            self.interface = source
            self.range_ = max(source.right.range_, source.left.range_, source.seam.range_)
            self._strips = {
                id(k): k.strip_blocks(kpar)
                for k in (source.right, source.left, source.seam)
            }
            self._uniform = None
        else:
            self.interface = None
            self.range_ = source.range_
            self._uniform = source.strip_blocks(kpar)
        self.blockdim = 6 * self.range_
        # energy-independent spectral data of a bulk strip (band edges, Bloch
        # eigenpairs at quadrature nodes), filled lazily by hexamer.green
        self.spectral_cache: dict = {}

    # -- cell-level strip blocks ------------------------------------------------
    def _cell_block(self, c1: int, c2: int) -> np.ndarray:
        d = c2 - c1
        if abs(d) > self.range_:
            return None
        if self._uniform is not None:
            s = self._uniform
        else:
            k = self.interface.kernel_for(c1, c2)
            s = self._strips[id(k)]
        b = s.get(d)
        return None if b is None else b

    # -- blocked access -----------------------------------------------------------
    def block(self, n: int, m: int) -> np.ndarray:
        """6N x 6N block H~(n, m); zero when |n - m| > 1."""
        nn = self.range_
        out = np.zeros((self.blockdim, self.blockdim), dtype=complex)
        if abs(n - m) > 1:
            return out
        for s1 in range(nn):
            for s2 in range(nn):
                b = self._cell_block(n * nn + s1, m * nn + s2)
                if b is not None:
                    out[6 * s1 : 6 * s1 + 6, 6 * s2 : 6 * s2 + 6] = b
        return out

    def diag(self, n: int) -> np.ndarray:
        return self.block(n, n)

    def upper(self, n: int) -> np.ndarray:
        """Coupling H~(n, n+1)."""
        return self.block(n, n + 1)

    def lower(self, n: int) -> np.ndarray:
        """Coupling H~(n, n-1) = upper(n-1)^H."""
        return self.block(n, n - 1)

    def _bulk_triple(self):
        if self._uniform is None:
            raise ModelValidationError("Bloch matrix undefined for interface operators")
        if not hasattr(self, "_triple"):
            self._triple = (self.block(0, 0), self.block(0, 1), self.block(0, -1))
        return self._triple

    def bloch(self, kap: float) -> np.ndarray:
        """Blocked Bloch matrix (bulk operators only)."""
        b0, bp, bm = self._bulk_triple()
        return b0 + np.exp(1j * kap) * bp + np.exp(-1j * kap) * bm

    def bloch_batch(self, kaps: np.ndarray) -> np.ndarray:
        """Stacked blocked Bloch matrices over an array of momenta."""
        b0, bp, bm = self._bulk_triple()
        ph = np.exp(1j * np.asarray(kaps))
        return b0 + ph[:, None, None] * bp + ph.conj()[:, None, None] * bm

    def materialize(self, n_lo: int, n_hi: int) -> np.ndarray:
        """Dense matrix of the truncation to blocks n_lo..n_hi (Dirichlet)."""
        nb = n_hi - n_lo + 1
        d = self.blockdim
        out = np.zeros((nb * d, nb * d), dtype=complex)
        for i, n in enumerate(range(n_lo, n_hi + 1)):
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = self.diag(n)
            if i + 1 < nb:
                out[i * d : (i + 1) * d, (i + 1) * d : (i + 2) * d] = self.upper(n)
                out[(i + 1) * d : (i + 2) * d, i * d : (i + 1) * d] = self.lower(n + 1)
        return out

    def describe(self) -> dict:
        src = self.interface.describe() if self.interface else {"bulk": True}
        return {"kpar": self.kpar, "blockdim": self.blockdim, "source": src}

    def apply_blocks(self, profile: np.ndarray, n_lo: int) -> np.ndarray:
        """Apply the operator to a block profile (rows = consecutive blocks)."""
        nb = profile.shape[0]
        out = np.zeros_like(profile)
        for i in range(nb):
            n = n_lo + i
            acc = self.diag(n) @ profile[i]
            if i + 1 < nb:
                acc = acc + self.upper(n) @ profile[i + 1]
            if i - 1 >= 0:
                acc = acc + self.lower(n) @ profile[i - 1]
            out[i] = acc
        return out


def blocked_gamma_reflection(range_: int) -> np.ndarray:
    """Blocked x-axis reflection on the kpar = 0 strip (acts within blocks)."""
    return np.kron(np.eye(range_), lattice.FX_INT)

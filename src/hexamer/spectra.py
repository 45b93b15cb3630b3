"""Eigen-analysis of Bloch matrices.

Locates the double Dirac cone, aligns the degenerate eigenbasis to the
four-dimensional irrep, measures gap opening and band inversion of the
perturbed bulks, and fixes the analytic gauge used by the Green-operator
machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import (
    AlignmentFailure,
    GridTooCoarse,
    NearZeroCoupling,
    NoFourFoldDegeneracy,
    VanishingSlope,
)
from .kernels import HoppingKernel, perturbed_bulks

# Relative tolerance for grouping eigenvalues into degenerate clusters.
CLUSTER_RTOL = 1e-8


@dataclass
class EigenBundle:
    """Eigenpairs of one Bloch matrix with degeneracy clustering."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: list

    @classmethod
    def of(cls, h: np.ndarray) -> "EigenBundle":
        w, v = np.linalg.eigh(h)
        scale = max(np.abs(w).max(), 1.0)
        resid = np.abs(h @ v - v * w).max()
        if resid > 1e-10 * scale:
            raise AlignmentFailure(f"eigen residual {resid:.2e} exceeds 1e-10*|H|")
        clusters, cur = [], [0]
        for i in range(1, len(w)):
            if w[i] - w[cur[-1]] < CLUSTER_RTOL * scale:
                cur.append(i)
            else:
                clusters.append(cur)
                cur = [i]
        clusters.append(cur)
        return cls(w, v, clusters)

    def cluster_of_size(self, size: int):
        return [c for c in self.clusters if len(c) == size]


@dataclass
class DiracData:
    """Aligned data of the four-fold degeneracy at the Gamma point.

    ``alpha_star`` is the cone coefficient in per-radian units: the exact
    first-order slopes along the dual directions are the eigenvalues of
    ``k1*H1 + k2*H2`` with entries built from ``alpha_star``.  ``slope_fit``
    is an independent central-difference/Richardson estimate of the same
    derivative, kept as a cross-check.
    """

    lambda_star: float
    ustar: np.ndarray
    alpha_star: float
    slope_fit: float


def _align_four_fold(v4: np.ndarray) -> np.ndarray:
    """Rotate an orthonormal basis of the 4-fold eigenspace onto rho~.

    The returned columns (u1..u4) satisfy ``g @ U = U @ rho~(g)`` for the
    three generator matrices on the Gamma space.
    """
    rv = v4.conj().T @ lattice.R6_INT @ v4
    ev, evec = np.linalg.eig(rv)
    i1 = int(np.argmin(np.abs(ev - lattice.TAU)))
    if abs(ev[i1] - lattice.TAU) > 1e-8:
        raise AlignmentFailure("eigenspace carries no tau-eigenvector of R6")
    u1 = v4 @ evec[:, i1]
    u1 = u1 / np.linalg.norm(u1)
    # reproducible global phase: largest-magnitude component real positive
    p = int(np.argmax(np.abs(u1)))
    u1 = u1 * np.exp(-1j * np.angle(u1[p]))
    u2 = lattice.FX_INT @ u1
    u4 = (lattice.T_GAMMA @ u1 + 0.5 * u1) / (1j * np.sqrt(3.0) / 2.0)
    u3 = lattice.FX_INT @ u4
    u = np.column_stack([u1, u2, u3, u4])
    rep = lattice.rep_rho_tilde()
    for name, g in (("R6", lattice.R6_INT), ("Fx", lattice.FX_INT), ("T", lattice.T_GAMMA)):
        resid = np.abs(g @ u - u @ rep[name]).max()
        if resid > 1e-8:
            raise AlignmentFailure(f"rho~ alignment failed for {name} ({resid:.2e})")
    if np.abs(u.conj().T @ u - np.eye(4)).max() > 1e-10:
        raise AlignmentFailure("aligned basis lost orthonormality")
    return u


def _richardson_slope(kernel: HoppingKernel, u1, u3) -> float:
    def fd(h):
        hp = kernel.bloch_rad(h, 0.0)
        hm = kernel.bloch_rad(-h, 0.0)
        return (u1.conj() @ ((hp - hm) @ u3)) / (2.0 * h)

    a, b = fd(1e-5), fd(1e-5 / 2.0)
    return float(np.real((4.0 * b - a) / 3.0))


def locate_double_dirac(kernel: HoppingKernel) -> DiracData:
    """Find the Gamma quadruplet and its aligned, gauge-fixed data."""
    bundle = EigenBundle.of(kernel.bloch_rad(0.0, 0.0))
    quads = bundle.cluster_of_size(4)
    if not quads:
        raise NoFourFoldDegeneracy(
            f"Gamma clusters have sizes {[len(c) for c in bundle.clusters]}"
        )
    idx = quads[0]
    lam = float(np.mean(bundle.eigenvalues[idx]))
    u = _align_four_fold(bundle.eigenvectors[:, idx])
    d1 = lattice.momentum_derivative_blocks(kernel.blocks, 0)
    alpha = complex(u[:, 0].conj() @ (d1 @ u[:, 2]))
    if abs(alpha.imag) > 1e-10 * max(abs(alpha), 1.0):
        raise AlignmentFailure(f"alpha* not real: {alpha}")
    if abs(alpha) < 1e-8:
        raise VanishingSlope(f"|alpha*| = {abs(alpha):.2e}")
    fit = _richardson_slope(kernel, u[:, 0], u[:, 2])
    return DiracData(lam, u, float(alpha.real), fit)


def verify_gap_criterion(dd: DiracData, kper: HoppingKernel):
    """First-order gap-opening data of ``kper`` on the cone quadruplet ``dd``.

    Returns ``(beta1, beta3, oriented_perturbation)`` where the returned
    kernel equals ``kper`` with its sign flipped if necessary so that
    ``beta* = beta1 = -beta3 > 0`` holds verbatim.  Raises
    ``NearZeroCoupling`` when the perturbation does not split the cone at
    first order, and checks that the reduced 4x4 perturbation matrix is
    diagonal with paired entries.
    """
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
# Analytic v-gauge


@dataclass
class VGauge:
    """Analytic eigenvectors at k1 = 0 in the propagation-adapted gauge.

    Columns v1, v2 carry slope +|alpha*| (right-movers), v3, v4 slope
    -|alpha*|; v1, v3 are even and v2, v4 odd under the x-reflection.
    """

    vectors: np.ndarray
    slopes: np.ndarray


def fix_gauge_v(dirac: DiracData) -> VGauge:
    s = float(np.sign(dirac.alpha_star))
    mix = 0.5 * np.array(
        [
            [s, s, 1, 1],
            [s, -s, 1, -1],
            [-s, -s, 1, 1],
            [s, -s, -1, 1],
        ]
    )
    v = dirac.ustar @ mix.T
    a = abs(dirac.alpha_star)
    return VGauge(v, np.array([a, a, -a, -a]))


# ---------------------------------------------------------------------------
# Gap opening and band inversion


@dataclass
class GapReport:
    delta: float
    lambda_star: float
    beta_star: float
    c_star: float
    gap_interval: tuple
    predicted_width: float
    inversion_scores: dict
    nofold_margin: float
    nofold_disk: float

    @property
    def width(self) -> float:
        lo, hi = self.gap_interval
        return max(hi - lo, 0.0)

    @property
    def width_ratio(self) -> float:
        return self.width / self.predicted_width if self.predicted_width > 0 else np.nan

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "lambda_star": self.lambda_star,
            "beta_star": self.beta_star,
            "c_star": self.c_star,
            "gap_lo": self.gap_interval[0],
            "gap_hi": self.gap_interval[1],
            "width": self.width,
            "predicted_width": self.predicted_width,
            "width_ratio": self.width_ratio,
            "inversion_scores": self.inversion_scores,
            "nofold_margin": self.nofold_margin,
            "nofold_disk_radius": self.nofold_disk,
        }


def _invariant_duals(kernels) -> list[np.ndarray]:
    """Momentum maps of the point-group ops that fix every kernel's blocks to 1e-12."""
    zero = np.zeros((6, 6))

    def fixes(blocks, op):
        conj = lattice.conjugate_kernel(blocks, op)
        return all(np.abs(conj.get(e, zero) - blocks.get(e, zero)).max() <= 1e-12
                   for e in conj.keys() | blocks.keys())

    return [op.dual for op in lattice.generate_group()
            if all(fixes(k.blocks, op) for k in kernels)]


def _orbit_representatives(ks, axis, period, duals) -> tuple[np.ndarray, np.ndarray]:
    """Momenta of the lowest-index point of each orbit on the grid ``ks`` x ``ks``.

    ``axis`` holds the grid's points as exact integers and ``period`` their
    period in those units (None for a box); only the ``duals`` that map that
    integer grid onto itself act.
    """
    n = len(axis)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij")).reshape(2, -1)
    flat = np.arange(n * n)
    rep = flat
    for d in duals:
        img = d @ pts
        if period is not None:
            img = (img - axis[0]) % period + axis[0]
        j = np.searchsorted(axis, img).clip(max=n - 1)
        if (axis[j] == img).all():
            rep = np.minimum(rep, j[0] * n + j[1])
    keep = flat[rep == flat]
    return ks[keep // n], ks[keep % n]


def _edges_around(kernels, lam, grids) -> tuple[float, float]:
    """Highest level <= ``lam`` and lowest level > ``lam`` of all ``kernels``."""
    duals = _invariant_duals(kernels)
    reps = [_orbit_representatives(*grid, duals) for grid in grids]
    w = np.concatenate([np.linalg.eigvalsh(k.bloch_rad(*r)).ravel() for r in reps for k in kernels])
    below, above = w[w <= lam], w[w > lam]
    return (float(below.max()) if below.size else -np.inf,
            float(above.min()) if above.size else np.inf)


def gap_report(
    kb: HoppingKernel,
    kper: HoppingKernel,
    delta: float,
    c_star: float = 0.9,
    grid_points: int = 101,
) -> GapReport:
    """Scan the Brillouin zone for the common gap of the two perturbed bulks.

    The coarse periodic grid is refined with two nested boxes around Gamma
    (the gap edges live at momentum scale ~delta).  Inversion scores are the
    isotypic weights of the two gap-edge eigenspaces at Gamma.

    Each grid is scanned at one point per orbit of the point-group ops that
    fix the scanned kernels and map the grid onto itself (the margin scan
    also needs them to keep the norm ``outside`` uses), so edges and margin
    equal the full grid's up to rounding.  On C6v models these are {I, -I,
    swap, -swap}: R6 maps neither the odd coarse grid nor the boxes onto itself.
    """
    dd = locate_double_dirac(kb)
    beta1, _, kper_or = verify_gap_criterion(dd, kper)
    beta = abs(beta1)
    lam = dd.lambda_star

    n = grid_points
    # (momenta, the same as integers, their period); k = pi (2j - n) / n
    coarse = (np.linspace(-np.pi, np.pi, n, endpoint=False), 2 * np.arange(n) - n, 2 * n)
    grids = [coarse] + [(np.linspace(-h, h, 81), np.arange(-40, 41), None)
                        for h in (0.6, min(0.15, 12.0 * delta + 1e-3))]

    plus, minus = perturbed_bulks(kb, kper_or, delta)
    lo, hi = _edges_around((plus, minus), lam, grids)
    if delta == 0.0:
        # the cone pins lambda* in the spectrum; any measured width is grid noise
        lo = hi = lam

    if delta > 0 and hi <= lo:
        # distinguish genuine collapse from failed band separation at Gamma
        wg = np.linalg.eigvalsh(plus.bloch_rad(0.0, 0.0))
        split = np.min(np.diff(np.sort(np.abs(wg - lam)))[:1])
        if split < 1e-12:
            raise GridTooCoarse("bands 2 and 3 not separated at Gamma")

    scores: dict = {}
    projs = lattice.c6v_isotypic_projectors()
    p1, p2 = projs["E1"], projs["E2"]
    for tag, k in (("plus", plus), ("minus", minus)):
        w, v = np.linalg.eigh(k.bloch_rad(0.0, 0.0))
        lower = [i for i in range(6) if w[i] <= lam][-2:]
        upper = [i for i in range(6) if w[i] > lam][:2]
        scores[tag] = {
            "lower_rho1": lattice.isotypic_score(p1, v[:, lower]),
            "lower_rho2": lattice.isotypic_score(p2, v[:, lower]),
            "upper_rho1": lattice.isotypic_score(p1, v[:, upper]),
            "upper_rho2": lattice.isotypic_score(p2, v[:, upper]),
        } if delta > 0 else {}

    # spectral no-fold margin of the unperturbed bands (reported, not assumed)
    disk = 0.35
    isometries = [d for d in _invariant_duals([kb]) if (d.T @ d == np.eye(2)).all()]
    k1, k2 = _orbit_representatives(*coarse, isometries)
    w = np.linalg.eigvalsh(kb.bloch_rad(k1, k2))
    outside = np.hypot(k1, k2) >= disk
    margin = float(np.abs(w[outside] - lam).min()) if outside.any() else np.nan

    return GapReport(
        delta=delta,
        lambda_star=lam,
        beta_star=beta,
        c_star=c_star,
        gap_interval=(lo, hi),
        predicted_width=2.0 * beta * delta,
        inversion_scores=scores,
        nofold_margin=margin,
        nofold_disk=disk,
    )

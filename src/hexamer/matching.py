"""Boundary matching matrices, characteristic values, and interface modes.

An in-gap eigenmode of the blocked interface operator is equivalent to a
pair (a, b) of boundary blocks solving M(lam, delta) (a, b) = 0 together
with the auxiliary fixed-point condition Maux (a, b) = (a, b); the mode is
then reconstructed everywhere by the discrete layer potential built from
the two bulk resolvents.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import green, kernels, lattice
from .errors import DegenerateBoundaryData, EnergyOutsideGap, NumericError

# Dirichlet truncation sheds edge-localized in-gap states carrying O(1)
# weight at the window ends; genuine interface modes keep at most a
# few-percent tail there.
EDGE_WEIGHT_TOL = 0.05

# Largest residual ||(A - w) v|| / ||A|| accepted for a computed eigenpair;
# converged shift-invert pairs reach about 1e-15.
RESIDUAL_RTOL = 1e-10

BOUNDARY_TOL = 1e-6     # a pair (a, b), or its Maux image relative to it, below this is degenerate
TAIL_RTOL = 1e-10       # a profile has converged when its 3 end blocks a side hold less of its norm
FIXED_POINT_TOL = 1e-4  # largest singular value of Maux - 1 still a fixed point (ghosts are O(1))

# Orthonormal real bases Q_s of the parity sectors s = +1, -1 of boundary
# pairs (a, b), the eigenspaces of diag(Fx, Fx): Fx swaps sites 1, 2, 3 with
# 6, 4, 5, so columns 1-3 of each block of (1 + s Fx) / sqrt(2) span sector s.
SECTOR_BASES = {
    s: np.kron(np.eye(2), np.eye(6) + s * lattice.FX_INT)[:, [0, 1, 2, 6, 7, 8]] / np.sqrt(2.0)
    for s in (1, -1)
}

# Generic real weights (sublattice index 1..6 on each boundary block) that fix
# the global phase of a boundary pair x through <r, x> > 0.  Entries that Fx
# pairs have equal modulus, so a rule keyed to the largest entry could flip.
_PHASE_REF = np.tile(np.arange(1.0, 7.0), 2)


@dataclass
class MatchingMatrix:
    matrix: np.ndarray
    aux: np.ndarray
    lam: float
    gp: dict   # bulk resolvent blocks G+(d), d = -1, 0, 1, at lam
    gm: dict   # the same for G-


@dataclass
class CharacteristicValue:
    h: float
    lam: float
    sigma_min: float
    multiplicity: int
    null_vectors: np.ndarray  # 12 x multiplicity
    matrices: MatchingMatrix  # M, Maux and the resolvent blocks at lam, which validated the root


@dataclass
class InterfaceMode:
    lambda_zig: float
    boundary_a: np.ndarray
    boundary_b: np.ndarray
    profile: np.ndarray    # (n_blocks, 6) complex
    n_lo: int
    parity: int
    residual: float
    decay_rate_right: float
    decay_rate_left: float
    profile_converged: bool  # False when the window hit its cap 8 * window


@dataclass
class SearchResult:
    h_grid: np.ndarray
    sigma_min: np.ndarray
    values: list
    sector_counts: dict  # parity -> (nu_s at the low end of J, nu_s at the high end)
    evaluations: dict    # "grid": energies in the batched pass, "newton": steps per root

    def total_multiplicity(self) -> int:
        return sum(v.multiplicity for v in self.values)


class MatchingPipeline:
    """Assembles matching matrices for one interface kernel at kpar = 0."""

    def __init__(self, iface: kernels.InterfaceKernel, levels: int = 14, order: int = 16):
        self.iface = iface
        self.levels = levels
        self.order = order
        self.op = kernels.BlockedStripOperator(iface)
        self.right = kernels.BlockedStripOperator(iface.right)
        self.left = kernels.BlockedStripOperator(iface.left)
        # hopping blocks entering the matching formulas
        self.hops = tuple(s.block(n, m) for s in (self.right, self.left, self.op)
                          for n, m in ((0, -1), (-1, 0)))
        _, self.hp_10, self.hm_01, _, self.hz_01, self.hz_10 = self.hops

    def guard_in_gap(self, lo: float, hi: float | None = None):
        """Refuse an energy lo, or every energy of [lo, hi], within 1e-9 of a bulk strip band."""
        for strip in (self.right, self.left):
            if green._band_distance(strip, lo, hi) < 1e-9:
                raise EnergyOutsideGap(f"[{lo}, {lo if hi is None else hi}] touches a bulk band")

    def _blocks(self, lams, power: int = 1):
        return tuple(
            green._gl_quadrature(s, lams, (-1, 0, 1), self.levels, self.order, power)
            for s in (self.right, self.left)
        )

    def matrix_stack(self, lams, derivative: bool = False) -> np.ndarray:
        """M at every energy of ``lams``, shape (n, 12, 12); dM/dlam with ``derivative``.

        M = M0 - J+^H S G+ S J+ - J-^H S G- S J-, with S = diag(1, -1),
        J+ = diag(H+(-1, 0), Hz(0, -1)), J- = diag(Hz(-1, 0), H-(0, -1)), M0
        the constant seam hoppings (dropped by ``derivative``) and G+- =
        [[G(0), G(-1)], [G(1), G(0)]] the compression of (H+- - lam)^-1 to two
        adjacent columns.  dG+-/dlam compresses (H+- - lam)^-2 >= 0, so
        dM/dlam <= 0.  The quadrature keeps this: its dG+-/dlam is
        sum_kj w_k u u^H / (2 pi (eps_kj - lam)^2), u = (v_kj, exp(i kappa_k)
        v_kj), with positive Gauss-Legendre weights w_k.  The energies are not
        guarded; callers check all of J at once (`guard_in_gap`).
        """
        gp, gm = self._blocks(lams, 2 if derivative else 1)
        return _matching(self.hops, gp, gm, hopping=not derivative)

    def matrices(self, lam: float) -> MatchingMatrix:
        self.guard_in_gap(lam)
        gp, gm = ({d: g[0] for d, g in blocks.items()} for blocks in self._blocks([lam]))
        m, aux = _matching(self.hops, gp, gm), _auxiliary(self.hops, gp, gm)
        return MatchingMatrix(m, aux, lam, gp, gm)


def _matching(hops, gp, gm, hopping: bool = True):
    """M from the hopping blocks ``hops`` = (H+(0, -1), H+(-1, 0), H-(0, -1),
    H-(-1, 0), Hz(0, -1), Hz(-1, 0)) and the blocks G+-(d), d = -1, 0, 1, at
    one energy or stacked over energies; without the constant hopping terms
    when ``hopping`` is false."""
    hp01, hp10, hm01, hm10, hz01, hz10 = hops
    m11 = -hp01 @ gp[0] @ hp10 - hz01 @ gm[0] @ hz10
    m12 = (-hz01 if hopping else 0) + hp01 @ gp[-1] @ hz01 + hz01 @ gm[-1] @ hm01
    m21 = (-hz10 if hopping else 0) + hm10 @ gm[1] @ hz10 + hz10 @ gp[1] @ hp10
    m22 = -hm10 @ gm[0] @ hm01 - hz10 @ gp[0] @ hz01
    return np.block([[m11, m12], [m21, m22]])


def _auxiliary(hops, gp, gm):
    hp01, hp10, hm01, hm10, hz01, hz10 = hops
    return np.block([[gp[1] @ hp10, -gp[0] @ hz01], [-gm[0] @ hz10, gm[-1] @ hm01]])


def _sector_root(pipeline, q, i: int, a: float, b: float, lam_of):
    """(h, steps): the zero in (a, b) of the i-th eigenvalue of q^T M(lam_of(h)) q.

    Safeguarded Newton with the Hellmann-Feynman slope v^H M' v: a step that
    leaves the bracket is a bisection.  Stops at a step of at most 4 ulp of lam.
    """
    delta = pipeline.iface.delta
    h = 0.5 * (a + b)
    for steps in range(1, 101):
        lam = lam_of(h)
        w, v = np.linalg.eigh(q.T @ pipeline.matrix_stack([lam])[0] @ q)
        if w[i] == 0.0:
            return h, steps
        a, b = (h, b) if w[i] > 0 else (a, h)
        vi = q @ v[:, i]
        slope = delta * np.real(vi.conj() @ pipeline.matrix_stack([lam], True)[0] @ vi)
        new = h - w[i] / slope if slope < 0 else 0.5 * (a + b)
        if not a < new < b:
            new = 0.5 * (a + b)
        if abs(lam_of(new) - lam) <= 4 * np.spacing(lam) or not a < new < b:
            return new, steps  # a step of 4 ulp, or a bracket of adjacent floats
        h = new
    raise NumericError(f"Newton on sector eigenvalue {i} did not converge in [{a!r}, {b!r}]")


def characteristic_search(
    pipeline: MatchingPipeline,
    lambda_star: float,
    beta_star: float,
    c_star: float,
    n_points: int,
) -> SearchResult:
    """Locate and count the zeros of M(lam* + delta h, delta) over h in J.

    M commutes with diag(Fx, Fx), so it splits into 6x6 parity sectors
    M_s = Q_s^T M Q_s, and dM/dlam <= 0 (`MatchingPipeline.matrix_stack`).  So
    the number nu_s of negative eigenvalues of M_s rises along J by exactly
    the number of zeros it passes (Haynsworth, Linear Algebra Appl. 1 (1968)
    73).  One batched pass evaluates M on the grid, giving nu_s and
    ``sigma_min`` = |eigenvalue of M nearest 0|.  Where nu_s rises from i in a
    cell, the i-th eigenvalue of M_s has one zero there (`_sector_root`).  A
    root needs sigma_min(M) <= 1e-8 ||M(lam*)||; its multiplicity (sector
    eigenvalues below 1e-7 ||M(lam*)||) advances i until the rise is used up.
    A falling nu_s, a failed root or a multiplicity beyond the rise raise
    NumericError.
    """
    delta = pipeline.iface.delta
    edge = c_star * beta_star * (1.0 - 1e-3)
    # characteristic values bifurcate from h = 0; always resolve a dense core
    # there in addition to the configured grid over all of J
    core = np.linspace(-0.3 * edge, 0.3 * edge, 121)
    hs = np.unique(np.concatenate([np.linspace(-edge, edge, n_points), core]))
    lam_of = lambda h: lambda_star + delta * h
    pipeline.guard_in_gap(lam_of(hs[0]), lam_of(hs[-1]))
    stack = pipeline.matrix_stack(lam_of(hs))
    sigma = np.abs(np.linalg.eigvalsh(stack)).min(axis=1)
    scale = np.linalg.norm(stack[np.argmin(np.abs(hs))], 2)
    root_tol, mult_tol = 1e-8 * scale, 1e-7 * scale
    values, counts, newton = [], {}, []
    for s, q in SECTOR_BASES.items():
        nu = (np.linalg.eigvalsh(q.T @ stack @ q) < 0).sum(axis=1)
        if (np.diff(nu) < 0).any():
            raise NumericError(f"sector {s:+d}: negative count falls along J: {nu.tolist()}")
        counts[s] = (int(nu[0]), int(nu[-1]))
        for c in np.flatnonzero(np.diff(nu)):
            i, a = nu[c], hs[c]
            while i < nu[c + 1]:
                h0, steps = _sector_root(pipeline, q, i, a, hs[c + 1], lam_of)
                newton.append(steps)
                mm = pipeline.matrices(lam_of(h0))
                smin = np.linalg.svd(mm.matrix, compute_uv=False)[-1]
                w, v = np.linalg.eigh(q.T @ mm.matrix @ q)
                null = np.abs(w) < mult_tol
                mult = int(null.sum())
                if smin > root_tol or not 0 < mult <= nu[c + 1] - i:
                    raise NumericError(
                        f"sector {s:+d}: root at h = {h0!r} has sigma_min {smin:.2e} and "
                        f"multiplicity {mult}, but the count rises by {nu[c + 1] - i}"
                    )
                values.append(CharacteristicValue(h0, lam_of(h0), float(smin), mult, q @ v[:, null], mm))
                i, a = i + mult, h0
    values.sort(key=lambda v: v.h)
    return SearchResult(hs, sigma, values, counts, {"grid": len(hs), "newton": newton})


def mode_from_boundary(
    pipeline: MatchingPipeline,
    mm: MatchingMatrix,
    a: np.ndarray,
    b: np.ndarray,
    window: int,
) -> InterfaceMode:
    """Reconstruct a mode by the layer potential and validate it.

    Requires a genuine boundary pair: Maux (a, b) must be nonzero and is, for
    eigen-data, the pair itself.  The pair is first rotated to the phase
    that makes <r, (a, b)> real and positive for fixed generic real weights
    r, so the profile does not depend on the phase of the input.

    On each side the layer potential is a bulk resolvent applied to the
    boundary pair, and G+(d) = X^d G+(0), G-(-d) = Y^d G-(0) for d >= 0 with
    the decay operators X = G+(1) G+(0)^-1 and Y = G-(-1) G-(0)^-1.  So
    psi(0) = G+(1) rp - G+(0) rz with psi(n+1) = X psi(n), and
    psi(-1) = -G-(0) lz + G-(-1) lm with psi(n-1) = Y psi(n).  The profile
    window is grown from ``window`` until the tail norm drops below
    ``TAIL_RTOL``, or up to 8 * ``window`` (then ``profile_converged`` is
    False).  ``mm`` is ``pipeline.matrices(lam)`` at the mode's energy lam;
    its resolvent blocks serve the recurrence.
    """
    lam = mm.lam
    x = np.concatenate([a, b])
    nx = np.linalg.norm(x)
    if nx < BOUNDARY_TOL or np.linalg.norm(mm.aux @ x) < BOUNDARY_TOL * nx:
        raise DegenerateBoundaryData("auxiliary matrix annihilates the boundary pair")
    x = x * np.exp(-1j * np.angle(np.vdot(_PHASE_REF, x)))
    a, b = np.split(x, 2)

    rp = pipeline.hp_10 @ a
    rz = pipeline.hz_01 @ b
    lz = pipeline.hz_10 @ a
    lm = pipeline.hm_01 @ b
    gp, gm = mm.gp, mm.gm
    x_op = np.linalg.solve(gp[0].T, gp[1].T).T
    y_op = np.linalg.solve(gm[0].T, gm[-1].T).T

    def attempt(t):
        prof = np.empty((2 * t + 1, pipeline.op.blockdim), dtype=complex)  # row i: psi(i - t)
        prof[t] = gp[1] @ rp - gp[0] @ rz
        prof[t - 1] = -gm[0] @ lz + gm[-1] @ lm
        for i in range(t + 1, 2 * t + 1):
            prof[i] = x_op @ prof[i - 1]
        for i in range(t - 2, -1, -1):
            prof[i] = y_op @ prof[i + 1]
        tail = np.linalg.norm(prof[:3]) + np.linalg.norm(prof[-3:])
        return (None if tail < TAIL_RTOL * np.linalg.norm(prof) else 2 * t), prof

    prof, t, converged = green._grow_until(window, 8 * window, attempt)
    ns = np.arange(-t, t + 1)
    applied = (pipeline.op.csr(t) @ prof.ravel()).reshape(prof.shape)
    interior = slice(2, len(ns) - 2)
    resid = float(np.abs(applied[interior] - lam * prof[interior]).max())
    nrm = np.linalg.norm(prof)

    flipped = prof @ lattice.FX_INT.T
    par_val = float(np.real(np.vdot(prof.ravel(), flipped.ravel())) / nrm**2)
    parity = 1 if par_val > 0 else -1

    def decay(side):
        mags = np.linalg.norm(prof, axis=1)
        half = mags[len(ns) // 2 :] if side > 0 else mags[: len(ns) // 2][::-1]
        good = half > max(1e-12 * mags.max(), 1e-300)
        idx = np.arange(len(half))[good][5:-2]
        if len(idx) < 4:
            return 0.0
        coef = np.polyfit(idx, np.log(half[idx]), 1)
        return float(np.exp(coef[0]))

    return InterfaceMode(
        lambda_zig=lam,
        boundary_a=a,
        boundary_b=b,
        profile=prof,
        n_lo=int(ns[0]),
        parity=parity,
        residual=resid / max(nrm, 1e-300),
        decay_rate_right=decay(+1),
        decay_rate_left=decay(-1),
        profile_converged=converged,
    )


@dataclass
class ModesResult:
    characteristic: SearchResult
    modes: list
    fixed_point_defects: list

    @property
    def count(self) -> int:
        return len(self.modes)

    @property
    def eigenvalues(self) -> list:
        return [m.lambda_zig for m in self.modes]


def count_interface_modes(
    pipeline: MatchingPipeline,
    lambda_star: float,
    beta_star: float,
    c_star: float,
    n_points: int,
    window: int = 120,
) -> ModesResult:
    """Characteristic values filtered by the auxiliary fixed-point condition.

    Within each characteristic null space the surviving directions are those
    fixed by Maux; the remaining ("ghost") directions do not generate modes.
    ``window`` is the initial profile half-width of each reconstructed mode.
    """
    search = characteristic_search(pipeline, lambda_star, beta_star, c_star, n_points)
    modes, defects = [], []
    for cv in search.values:
        mm = cv.matrices
        basis = cv.null_vectors
        gram = (mm.aux - np.eye(mm.aux.shape[0])) @ basis
        _, svals, vt = np.linalg.svd(gram)
        for defect, row in zip(svals, vt):
            if defect < FIXED_POINT_TOL:
                x = basis @ row.conj()
                a, b = np.split(x / np.linalg.norm(x), 2)
                modes.append(mode_from_boundary(pipeline, mm, a, b, window))
                defects.append(float(defect))
    modes.sort(key=lambda m: -m.parity)
    return ModesResult(search, modes, defects)


# ---------------------------------------------------------------------------
# Truncated strips: the edge filter and the certified in-gap solve


def _edge_filtered(w, vectors, cols, gap, edge: int) -> list:
    """In-gap eigenpairs of a truncated strip that are not edge states.

    ``cols`` holds the transverse column n1 of each block (all of one size)
    of a vector column; the window is |n1| <= t with t = max |cols|.  A pair
    is dropped when its eigenvalue lies outside the open gap, its weight
    centre lies beyond t / 2, or more than ``EDGE_WEIGHT_TOL`` of its block
    weight sits in the columns |n1| >= t - edge.  Returns the kept
    (eigenvalue, vector, centre) triples in ascending eigenvalue order.
    """
    t = int(np.abs(cols).max())
    kept = []
    for i in np.argsort(w):
        if not gap[0] < w[i] < gap[1]:
            continue
        prof = np.linalg.norm(vectors[:, i].reshape(len(cols), -1), axis=1)
        total = prof.sum()
        center = float((prof * cols).sum() / total)
        edge_weight = (prof[cols <= -t + edge].sum() + prof[cols >= t - edge].sum()) / total
        if abs(center) > t / 2 or edge_weight > EDGE_WEIGHT_TOL:
            continue
        kept.append((float(w[i]), vectors[:, i], center))
    return kept


def _factor(mat, shift: float, **options):
    """SuperLU factor of ``mat - shift``; a singular factor raises NumericError."""
    shifted = (mat - shift * sp.identity(mat.shape[0], dtype=mat.dtype, format="csr")).tocsc()
    try:
        return spla.splu(shifted, **options)
    except RuntimeError as exc:
        raise NumericError(f"strip factor at shift {shift!r} failed: {exc}") from exc


def _inertia(mat, shift: float) -> int:
    """Number of eigenvalues of the Hermitian ``mat`` below ``shift``.

    With diagonal pivots SuperLU factors P (mat - shift) P^T = L U, and for a
    Hermitian matrix U = D L^H; by Sylvester's law of inertia the negative
    pivots in D count the eigenvalues below the shift.  The symmetric
    ordering suits this mode and halves the factor time of COLAMD.
    """
    lu = _factor(
        mat, shift, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericError(f"off-diagonal pivot in the inertia factor at shift {shift!r}")
    return int((lu.U.diagonal().real < 0).sum())


def _ingap_eigsh(mat, gap: tuple, count: int):
    """Every eigenpair of the sparse Hermitian ``mat`` inside the open ``gap``, of which there are ``count``.

    The caller certifies ``count``, from the inertia at both gap edges or
    otherwise, so nothing in the gap is missed.  Every in-gap eigenvalue
    lies strictly nearer the gap centre than any eigenvalue outside the
    open gap, so shift-invert Lanczos about the centre asks for exactly
    ``count`` pairs, from the normalised all-ones vector.  Each returned pair
    (w, v) must have a residual ||(mat - w) v|| of at most ``RESIDUAL_RTOL``
    times the largest absolute row sum of ``mat``: a centre on an
    eigenvalue passes the count and yet returns wrong pairs.  An exactly
    real matrix is solved in real arithmetic.  Returns the eigenvalues
    ascending, their vector columns and the largest absolute residual
    ||(mat - w) v|| (0 without pairs); raises NumericError when the
    certificate fails (another number of pairs in the gap than ``count``,
    a bad factor, a pair with a large residual) or ARPACK does not
    converge.
    """
    if not mat.data.imag.any():
        mat = mat.real
    n = mat.shape[0]
    if count == 0:
        return np.empty(0), np.empty((n, 0), dtype=mat.dtype), 0.0
    sigma = 0.5 * (gap[0] + gap[1])
    opinv = spla.LinearOperator(mat.shape, matvec=_factor(mat, sigma).solve, dtype=mat.dtype)
    try:
        w, v = spla.eigsh(mat, k=count, sigma=sigma, which="LM", v0=np.ones(n) / np.sqrt(n), OPinv=opinv)
    except spla.ArpackError as exc:
        raise NumericError(f"shift-invert Lanczos failed with k = {count} (shift {sigma!r}): {exc}") from exc
    inside = np.flatnonzero((gap[0] < w) & (w < gap[1]))
    if len(inside) != count:
        raise NumericError(f"shift-invert found {len(inside)} in-gap eigenvalues, the certificate counts {count}")
    inside = inside[np.argsort(w[inside])]
    w, v = w[inside], v[:, inside]
    resid = np.linalg.norm(mat @ v - v * w, axis=0)
    # the largest absolute row sum bounds ||mat|| for a Hermitian mat
    return w, v, _residual_gate(resid, w, float(abs(mat).sum(axis=1).max()), "", f" (shift {sigma!r})")


def _residual_gate(resid: np.ndarray, vals: np.ndarray, bound: float, pair: str, after: str) -> float:
    """The largest of the residuals ||(mat - w) v|| ``resid`` of the pairs with eigenvalues ``vals``, each held to ``RESIDUAL_RTOL`` times ``bound`` >= ||mat||.

    Beyond it, ``NumericError`` names the worst pair: its eigenvalue, then
    ``pair``, its relative residual, then ``after``.
    """
    rel = resid / bound
    if rel.max() > RESIDUAL_RTOL:
        raise NumericError(
            f"in-gap pair {float(vals[np.argmax(rel)]):.12g}{pair} has relative residual "
            f"{rel.max():.2e} > {RESIDUAL_RTOL:.0e}{after}"
        )
    return float(resid.max())

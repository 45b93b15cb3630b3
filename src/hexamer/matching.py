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

from . import green, kernels, lattice, spectra
from .errors import (
    DegenerateBoundaryData,
    EnergyOutsideGap,
    NoCharacteristicValue,
    NumericError,
)

# Dirichlet truncation sheds edge-localized in-gap states carrying O(1)
# weight at the window ends; genuine interface modes keep at most a
# few-percent tail there.
EDGE_WEIGHT_TOL = 0.05

# Largest residual ||(A - w) v|| / ||A|| accepted for a computed eigenpair;
# converged shift-invert pairs reach about 1e-15.
RESIDUAL_RTOL = 1e-10

# Generic real weights (sublattice index 1..6 on each boundary block) that fix
# the global phase of a boundary pair x through <r, x> > 0.  Entries that Fx
# pairs have equal modulus, so a rule keyed to the largest entry could flip.
_PHASE_REF = np.tile(np.arange(1.0, 7.0), 2)


@dataclass
class MatchingMatrix:
    matrix: np.ndarray
    aux: np.ndarray
    lam: float
    delta: float
    gp: dict   # bulk resolvent blocks G+(d), d = -1, 0, 1, at lam
    gm: dict   # the same for G-

    @property
    def hermiticity_defect(self) -> float:
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


@dataclass
class LimitPieces:
    """delta -> 0 limit data of the matching matrices."""

    m_pv: np.ndarray
    a_proj: np.ndarray
    aaux1: np.ndarray
    aaux2: np.ndarray
    maux_pv: np.ndarray
    alpha_star: float
    beta_star: float
    kernel_vectors: np.ndarray  # columns (w_k, w_k), k = 1..4

    def xi(self, h: float) -> float:
        return h / (abs(self.alpha_star) * np.sqrt(self.beta_star**2 - h**2))

    def eta(self, h: float) -> float:
        return self.beta_star / (abs(self.alpha_star) * np.sqrt(self.beta_star**2 - h**2))


@dataclass
class CharacteristicValue:
    h: float
    lam: float
    sigma_min: float
    multiplicity: int
    null_vectors: np.ndarray  # 12 x multiplicity


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
        self.hp_01 = self.right.block(0, -1)
        self.hp_10 = self.right.block(-1, 0)
        self.hm_01 = self.left.block(0, -1)
        self.hm_10 = self.left.block(-1, 0)
        self.hz_01 = self.op.block(0, -1)
        self.hz_10 = self.op.block(-1, 0)

    def _resolvents(self, lam: float):
        gp = green.gap_resolvent(self.right, lam, (-1, 0, 1), self.levels, self.order)
        gm = green.gap_resolvent(self.left, lam, (-1, 0, 1), self.levels, self.order)
        return gp.blocks, gm.blocks

    def guard_in_gap(self, lam: float, margin: float = 1e-9):
        for strip in (self.right, self.left):
            if green._band_distance(strip, lam) < margin:
                raise EnergyOutsideGap(f"energy {lam} touches a bulk strip band")

    def matrices(self, lam: float) -> MatchingMatrix:
        self.guard_in_gap(lam)
        gp, gm = self._resolvents(lam)
        hp01, hp10, hm01, hm10, hz01, hz10 = (
            self.hp_01, self.hp_10, self.hm_01, self.hm_10, self.hz_01, self.hz_10,
        )
        m11 = -hp01 @ gp[0] @ hp10 - hz01 @ gm[0] @ hz10
        m12 = -hz01 + hp01 @ gp[-1] @ hz01 + hz01 @ gm[-1] @ hm01
        m21 = -hz10 + hm10 @ gm[1] @ hz10 + hz10 @ gp[1] @ hp10
        m22 = -hm10 @ gm[0] @ hm01 - hz10 @ gp[0] @ hz01
        m = np.block([[m11, m12], [m21, m22]])
        aux = np.block(
            [
                [gp[1] @ hp10, -gp[0] @ hz01],
                [-gm[0] @ hz10, gm[-1] @ hm01],
            ]
        )
        return MatchingMatrix(m, aux, lam, self.iface.delta, gp, gm)

    def sigma_min(self, lam: float) -> float:
        return float(np.linalg.svd(self.matrices(lam).matrix, compute_uv=False)[-1])


def limit_pieces(
    kb: kernels.HoppingKernel,
    dirac: spectra.DiracData,
    vgauge: spectra.VGauge,
    beta_star: float,
    levels: int = 14,
    order: int = 16,
) -> LimitPieces:
    """Limit matrices M^pv, A, A^aux1, A^aux2 and the scalar profiles."""
    strip = kernels.BlockedStripOperator(kb)
    gpv = green.physical_green_pv(strip, dirac, vgauge, (-1, 0, 1), levels, order)
    g = gpv.blocks
    h01 = strip.block(0, -1)
    h10 = strip.block(-1, 0)
    m_pv = np.block(
        [
            [-2.0 * h01 @ g[0] @ h10, -h01 + 2.0 * h01 @ g[-1] @ h01],
            [-h10 + 2.0 * h10 @ g[1] @ h10, -2.0 * h10 @ g[0] @ h01],
        ]
    )
    maux_pv = np.block(
        [
            [g[1] @ h10, -g[0] @ h01],
            [-g[0] @ h10, g[-1] @ h01],
        ]
    )
    w = vgauge.vectors
    dim = w.shape[0]
    a_proj = np.zeros((2 * dim, 2 * dim), dtype=complex)
    aaux1 = np.zeros_like(a_proj)
    aaux2 = np.zeros_like(a_proj)
    sgn = (-1.0, 1.0, -1.0, 1.0)       # s(k) = +1 for even k
    perm = (2, 3, 0, 1)                # p = (13)(24)
    for k in range(4):
        p = h01 @ w[:, k]
        q = h10 @ w[:, k]
        a_proj += np.block(
            [
                [-np.outer(p, p.conj()), np.outer(p, q.conj())],
                [np.outer(q, p.conj()), -np.outer(q, q.conj())],
            ]
        )
        pp = h01 @ w[:, perm[k]]
        qp = h10 @ w[:, perm[k]]
        wk = w[:, k]
        aaux1 += 0.5 * np.block(
            [
                [np.outer(wk, p.conj()), -np.outer(wk, q.conj())],
                [-np.outer(wk, p.conj()), np.outer(wk, q.conj())],
            ]
        )
        aaux2 += 0.5 * sgn[k] * np.block(
            [
                [np.outer(wk, pp.conj()), -np.outer(wk, qp.conj())],
                [np.outer(wk, pp.conj()), -np.outer(wk, qp.conj())],
            ]
        )
    kvecs = np.vstack([w, w])
    return LimitPieces(
        m_pv, a_proj, aaux1, aaux2, maux_pv, dirac.alpha_star, beta_star, kvecs
    )


def _bisect(f, a, b, fa, fb, tol=1e-13):
    while b - a > tol:
        c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if (fa < 0) != (fc < 0):
            b, fb = c, fc
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def characteristic_search(
    pipeline: MatchingPipeline,
    lambda_star: float,
    beta_star: float,
    c_star: float = 0.9,
    n_points: int = 201,
    refine: bool = True,
    require: bool = False,
) -> SearchResult:
    """Locate the zeros of M(lam* + delta h, delta) over h in J.

    M is Hermitian, so its eigenvalue branch nearest zero is a signed scalar
    whose sign changes bracket every transversal crossing; brackets are
    resolved by bisection and validated through the singular values (which
    also supply the multiplicity, counted below 1e-7 * ||M||).  A golden-
    section polish on sigma_min removes the residual bisection error.
    """
    delta = pipeline.iface.delta
    edge = c_star * beta_star * (1.0 - 1e-3)
    # characteristic values bifurcate from h = 0; always resolve a dense core
    # there in addition to the configured grid over all of J
    hs = np.unique(
        np.concatenate(
            [np.linspace(-edge, edge, n_points), np.linspace(-0.3 * edge, 0.3 * edge, 121)]
        )
    )

    def signed_min(h):
        w = np.linalg.eigvalsh(pipeline.matrices(lambda_star + delta * h).matrix)
        return float(w[np.argmin(np.abs(w))])

    signed = np.array([signed_min(h) for h in hs])
    sigma = np.abs(signed)
    scale = np.linalg.norm(pipeline.matrices(lambda_star).matrix, 2)
    root_tol = 1e-8 * scale
    mult_tol = 1e-7 * scale
    values = []
    if refine:
        fsig = lambda h: pipeline.sigma_min(lambda_star + delta * h)
        for i in range(len(hs) - 1):
            if (signed[i] < 0) == (signed[i + 1] < 0):
                continue
            h0 = _bisect(signed_min, hs[i], hs[i + 1], signed[i], signed[i + 1])
            h0 = green._golden(fsig, h0 - 1e-10, h0 + 1e-10, tol=1e-14)
            if any(abs(h0 - v.h) < 1e-9 for v in values):
                continue
            lam0 = lambda_star + delta * h0
            mm = pipeline.matrices(lam0)
            svals = np.linalg.svd(mm.matrix, compute_uv=False)
            if svals[-1] > root_tol:
                continue  # sign flip from a branch switch, not a zero crossing
            mult = int((svals < mult_tol).sum())
            _, _, vt = np.linalg.svd(mm.matrix)
            nulls = vt[-mult:].conj().T
            values.append(CharacteristicValue(h0, lam0, float(svals[-1]), mult, nulls))
    values.sort(key=lambda v: v.h)
    if require and not values:
        raise NoCharacteristicValue(
            f"no characteristic value in J (min sigma_min = {sigma.min():.3e}); "
            "this is the expected outcome for a band-inversion-free interface"
        )
    return SearchResult(hs, sigma, values)


def mode_from_boundary(
    pipeline: MatchingPipeline,
    lam: float,
    a: np.ndarray,
    b: np.ndarray,
    window: int = 120,
    tail_tol: float = 1e-10,
    fp_tol: float = 1e-6,
    mm: MatchingMatrix | None = None,
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
    ``tail_tol``, or up to 8 * ``window`` (then ``profile_converged`` is
    False).  ``mm`` is ``pipeline.matrices(lam)`` when the caller already has
    it; its resolvent blocks serve the recurrence.
    """
    if mm is None:
        mm = pipeline.matrices(lam)
    x = np.concatenate([a, b])
    if np.linalg.norm(x) < fp_tol or np.linalg.norm(mm.aux @ x) < fp_tol * np.linalg.norm(x):
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
        return tail < tail_tol * np.linalg.norm(prof), prof

    prof, t, converged = green._double_until(window, 8 * window, attempt)
    ns = np.arange(-t, t + 1)
    applied = pipeline.op.apply_blocks(prof, int(ns[0]))
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
    c_star: float = 0.9,
    n_points: int = 201,
    fp_tol: float = 1e-4,
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
        mm = pipeline.matrices(cv.lam)
        basis = cv.null_vectors
        gram = (mm.aux - np.eye(mm.aux.shape[0])) @ basis
        _, svals, vt = np.linalg.svd(gram)
        for j in range(basis.shape[1]):
            defect = svals[j]
            if defect < fp_tol:
                x = basis @ vt[j].conj()
                x = x / np.linalg.norm(x)
                n6 = x.shape[0] // 2
                mode = mode_from_boundary(pipeline, cv.lam, x[:n6], x[n6:], window, mm=mm)
                modes.append(mode)
                defects.append(float(defect))
    modes.sort(key=lambda m: -m.parity)
    return ModesResult(search, modes, defects)


# ---------------------------------------------------------------------------
# Direct truncated-strip oracle


def _edge_filtered(w, vectors, cols, gap, edge: int) -> list:
    """In-gap eigenpairs of a truncated strip that are not edge states.

    ``cols`` holds the transverse column n1 of each 6-row block of a vector
    column; the window is |n1| <= t with t = max |cols|.  A pair is dropped
    when its eigenvalue lies outside the open gap, its weight centre lies
    beyond t / 2, or more than ``EDGE_WEIGHT_TOL`` of its block weight sits
    in the columns |n1| >= t - edge.  Returns the kept (eigenvalue, vector,
    centre) triples in ascending eigenvalue order.
    """
    t = int(np.abs(cols).max())
    kept = []
    for i in np.argsort(w):
        if not gap[0] < w[i] < gap[1]:
            continue
        prof = np.linalg.norm(vectors[:, i].reshape(len(cols), 6), axis=1)
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


def _norm_bound(mat) -> float:
    """Largest absolute row sum of a sparse matrix, a bound on its 2-norm when Hermitian."""
    return float(abs(mat).sum(axis=1).max())


def _ingap_eigsh(mat, sigma: float, gap: tuple):
    """Every eigenpair of the sparse Hermitian ``mat`` inside the open ``gap``.

    The in-gap count comes from the inertia at both gap edges, so nothing in
    the gap is missed; `_certified_pairs` then finds exactly that many.  An
    exactly real matrix is solved in real arithmetic.  Returns (eigenvalues
    ascending, vector columns); raises NumericError when the certificate
    fails (more pairs than counted, ``k`` reaching n - 2, a bad factor, a
    pair with a large residual).
    """
    if not mat.data.imag.any():
        mat = mat.real
    n = mat.shape[0]
    count = _inertia(mat, gap[1]) - _inertia(mat, gap[0])
    if count == 0:
        return np.empty(0), np.empty((n, 0), dtype=mat.dtype)
    lu = _factor(mat, sigma)
    v0 = np.ones(n) / np.sqrt(n)
    return _certified_pairs(mat, lu.solve, sigma, gap, count, v0, _norm_bound(mat))


def _certified_pairs(op, solve, sigma: float, gap: tuple, count: int, v0, scale: float):
    """The ``count`` eigenpairs of the Hermitian ``op`` inside the open ``gap``.

    Shift-invert Lanczos about ``sigma``, with ``solve`` applying
    (op - sigma)^-1, asks for ``count`` pairs and doubles ``k`` until all of
    them are found.  Each returned pair (w, v) must have a residual
    ||(op - w) v|| of at most ``RESIDUAL_RTOL * scale``, with ``scale`` a
    bound on ||op||: a shift on an eigenvalue of ``op`` passes the count and
    yet returns wrong pairs.  Returns (eigenvalues ascending, vector
    columns); raises NumericError when any of this fails.
    """
    n = op.shape[0]
    opinv = spla.LinearOperator(op.shape, matvec=solve, dtype=op.dtype)
    k = count
    while True:
        w, v = spla.eigsh(op, k=k, sigma=sigma, which="LM", v0=v0, OPinv=opinv)
        inside = np.flatnonzero((gap[0] < w) & (w < gap[1]))
        if len(inside) == count:
            inside = inside[np.argsort(w[inside])]
            w, v = w[inside], v[:, inside]
            resid = np.linalg.norm(op @ v - v * w, axis=0) / scale
            if resid.max() > RESIDUAL_RTOL:
                raise NumericError(
                    f"in-gap pair {float(w[np.argmax(resid)]):.12g} has relative residual "
                    f"{resid.max():.2e} > {RESIDUAL_RTOL:.0e} (shift {sigma!r})"
                )
            return w, v
        if len(inside) > count or k >= n - 2:
            raise NumericError(
                f"shift-invert found {len(inside)} in-gap eigenvalues with k = {k}, "
                f"inertia counts {count}"
            )
        k = min(2 * k, n - 2)


def _truncated_strip(iface: kernels.InterfaceKernel, half: int, kpar: float):
    """Sparse interface strip at ``kpar`` on the columns |n| <= ``half``."""
    op = kernels.BlockedStripOperator(iface, kpar)
    dim = op.blockdim
    nb = 2 * half + 1
    rows, cols, vals = [], [], []
    for i, n in enumerate(range(-half, half + 1)):
        for j_off in (-1, 0, 1):
            if not -half <= n + j_off <= half:
                continue
            b = op.block(n, n + j_off)
            bi, bj = np.nonzero(b)
            rows.append(i * dim + bi)
            cols.append((i + j_off) * dim + bj)
            vals.append(b[bi, bj])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nb * dim, nb * dim),
    ).tocsr()


def direct_oracle(
    iface: kernels.InterfaceKernel,
    lambda_star: float,
    gap: tuple,
    n_blocks: int = 400,
    kpar: float = 0.0,
):
    """In-gap eigenvalues of the Dirichlet-truncated interface strip.

    Artificial truncation can shed edge-localized in-gap states; eigenpairs
    whose weight concentrates near the window ends are discarded.  Returns
    the kept (eigenvalue, parity, center) triples sorted by eigenvalue.
    """
    half = n_blocks // 2
    nb = 2 * half + 1
    dim = kernels.BlockedStripOperator.blockdim
    w, v = _ingap_eigsh(_truncated_strip(iface, half, kpar), lambda_star, gap)
    # the edge band is the outermost max(4, nb // 10) columns on each side
    edge = max(4, nb // 10) - 1
    kept = []
    for val, vec, center in _edge_filtered(w, v, np.arange(-half, half + 1), gap, edge):
        parity = 0
        if kpar == 0.0:
            blocks = vec.reshape(nb, dim)
            pv = float(
                np.real(np.vdot(blocks.ravel(), (blocks @ lattice.FX_INT.T).ravel()))
                / np.vdot(blocks.ravel(), blocks.ravel()).real
            )
            parity = 1 if pv > 0 else -1
        kept.append((val, parity, center))
    return kept

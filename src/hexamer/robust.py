"""Symmetry-protected robustness on periodized strips.

The interface operator is restricted to L-cell-wide strips with periodic
boundary conditions along the interface, split into x-reflection parity
sectors, and perturbed by reflection-symmetric localized defects.  The
perturbed in-gap eigenpairs are tracked across L; their far fields must
reproduce the unperturbed interface modes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import green, kernels, lattice
from .errors import BranchLost, GapCollapse, ModelValidationError
from .matching import _edge_filtered, _ingap_eigsh

_OFF = kernels.RANGE1_OFFSETS


def _ell2_coord(n1: int, n2: int) -> float:
    # n . l2 = n1/2 + n2 for the triangular basis
    return 0.5 * n1 + n2


# ---------------------------------------------------------------------------
# Class-(A) perturbations


@dataclass
class PerturbationW:
    """Reflection-symmetric, longitudinally localized perturbation.

    ``block(n, m)`` returns the 6x6 kernel block for absolute cell pairs or
    None outside the support; ``m_w`` is the longitudinal localization
    constant (sup over columns of summed block norms).
    """

    kind: str
    amplitude: float
    m_w: float
    fx_defect: float
    _support_radius: int = 3

    def block(self, n: tuple, m: tuple):
        raise NotImplementedError

    def support_rows(self, n1: int) -> list:
        """n2 values with a potentially nonzero row at transverse index n1."""
        raise NotImplementedError

    def transverse_range(self, t: int):
        """n1 values with potentially nonzero rows inside a width-t window."""
        return range(-self._support_radius, self._support_radius + 1)


def _cell_norm(n1: int, n2: int) -> float:
    v = n1 * lattice.ELL1 + n2 * lattice.ELL2
    return float(np.hypot(v[0], v[1]))


class _CompactW(PerturbationW):
    def block(self, n, m):
        if _cell_norm(n[0] - m[0], n[1] - m[1]) > 1.0 + 1e-9:
            return None
        if _cell_norm(*n) <= 1.0 + 1e-9 or _cell_norm(*m) <= 1.0 + 1e-9:
            return np.full((6, 6), self.amplitude, dtype=complex)
        return None

    def support_rows(self, n1):
        if abs(n1) > 2:
            return []
        return [n2 for n2 in range(-3, 4)]


class _LineW(PerturbationW):
    def block(self, n, m):
        if _cell_norm(n[0] - m[0], n[1] - m[1]) > 1.0 + 1e-9:
            return None
        if abs(_ell2_coord(*n)) <= 1.0 + 1e-9 or abs(_ell2_coord(*m)) <= 1.0 + 1e-9:
            return np.full((6, 6), self.amplitude, dtype=complex)
        return None

    def support_rows(self, n1):
        base = int(np.floor(-0.5 * n1))
        return [base + d for d in range(-3, 5)]

    def transverse_range(self, t):
        return range(-t, t + 1)


def build_W(kind: str, amplitude: float) -> PerturbationW:
    """Compact or line defect with constant blocks of the given amplitude.

    The localization constant M_W is evaluated exactly by finite summation
    and the reflection commutator is verified on the support.
    """
    if amplitude < 0:
        raise ModelValidationError("amplitude must be nonnegative")
    cls = {"compact": _CompactW, "line": _LineW}.get(kind)
    if cls is None:
        raise ModelValidationError(f"unknown perturbation kind '{kind}'")
    w = cls(kind=kind, amplitude=amplitude, m_w=0.0, fx_defect=0.0)

    # M_W = sup_n1 sum_{n2, m} ||W(n, m)||; by symmetry a few columns suffice
    m_w = 0.0
    for n1 in range(-4, 5):
        acc = 0.0
        for n2 in range(-8, 9):
            for d in _OFF:
                b = w.block((n1, n2), (n1 + d[0], n2 + d[1]))
                if b is not None:
                    acc += float(np.linalg.norm(b, 2))
        m_w = max(m_w, acc)
    w.m_w = m_w

    fxc = lattice.FX_INT
    defect = 0.0
    for n1 in range(-3, 4):
        for n2 in range(-4, 5):
            for d in _OFF:
                n, m = (n1, n2), (n1 + d[0], n2 + d[1])
                fn = (n[0], -n[0] - n[1])
                fm = (m[0], -m[0] - m[1])
                b = w.block(n, m)
                bf = w.block(fn, fm)
                b = np.zeros((6, 6)) if b is None else b
                bf = np.zeros((6, 6)) if bf is None else bf
                defect = max(defect, float(np.abs(fxc @ bf @ fxc - b).max()))
    w.fx_defect = defect
    return w


def periodized_block(w: PerturbationW, n, m, L: int):
    """Block of W^L = (periodize . W . restrict) for window representatives.

    Rows with representative outside the half-width window are zero; for the
    localized perturbations used here this reproduces W exactly once L
    exceeds twice the support radius.
    """
    if w is None:
        return None
    if abs(_ell2_coord(*n)) > L / 4.0 + 1e-9:
        return None
    return w.block(n, m)


# ---------------------------------------------------------------------------
# L-strip assembly and parity sectors


@dataclass
class StripSector:
    L: int
    parity: int
    t_used: int
    t_converged: bool      # False when the width hit its cap 8 * t0
    ingap_count: int       # in-gap eigenvalues by inertia, before edge filtering
    sites: dict            # (n1, n2) -> site index
    isometry: sp.csr_matrix
    eigenvalues: np.ndarray
    vectors: np.ndarray    # full-space columns
    centers: np.ndarray
    tracked: int = 0       # index of the interface branch among the kept pairs

    @property
    def tracked_eigenvalue(self) -> float:
        return float(self.eigenvalues[self.tracked])

    @property
    def tracked_vector(self) -> np.ndarray:
        return self.vectors[:, self.tracked]


def window_rows(L: int, n1: int) -> list:
    """Fundamental n2 rows: -L/2 <= n.l2 < L/2 (symmetric, half-open)."""
    lo = int(np.ceil(-L / 2.0 - 0.5 * n1 - 1e-9))
    rows = []
    n2 = lo
    while _ell2_coord(n1, n2) < L / 2.0 - 1e-9:
        if _ell2_coord(n1, n2) >= -L / 2.0 - 1e-9:
            rows.append(n2)
        n2 += 1
    return rows


def _wrap_row(L: int, n1, n2):
    """n2 shifted by a multiple of L into the window -L/2 <= n.l2 < L/2 (arrays too)."""
    return n2 - L * np.floor((_ell2_coord(n1, n2) + L / 2.0 + 1e-9) / L).astype(int)


def _site_indices(sites: dict, L: int, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Site indices of the cells (n1, n2), each n2 first wrapped into the window."""
    return np.array([sites[key] for key in zip(n1, _wrap_row(L, n1, n2))], dtype=int)


def strip_sites(L: int, t: int) -> dict:
    sites = {}
    idx = 0
    for n1 in range(-t, t + 1):
        for n2 in window_rows(L, n1):
            sites[(n1, n2)] = idx
            idx += 1
    return sites


def assemble_strip(
    iface: kernels.InterfaceKernel, L: int, t: int, w: PerturbationW | None = None
):
    """Sparse L-periodic interface strip on cells |n1| <= t, plus site map.

    The translation-invariant part is assembled offset by offset with the
    bulk/seam block selected per transverse sign pair; the localized
    perturbation is added separately over its small support.
    """
    sites = strip_sites(L, t)
    nc = len(sites)
    n1s = np.empty(nc, dtype=int)
    n2s = np.empty(nc, dtype=int)
    for (n1, n2), i in sites.items():
        n1s[i], n2s[i] = n1, n2

    ri_parts, ci_parts, vv_parts = [], [], []
    for d in _OFF:
        m1 = n1s + d[0]
        valid = (m1 >= -t) & (m1 <= t)
        if not valid.any():
            continue
        i_idx = np.nonzero(valid)[0]
        j_idx = _site_indices(sites, L, m1[i_idx], n2s[i_idx] + d[1])
        cat_right = (n1s[i_idx] >= 0) & (m1[i_idx] >= 0)
        cat_left = (n1s[i_idx] < 0) & (m1[i_idx] < 0)
        for mask, kern in (
            (cat_right, iface.right),
            (cat_left, iface.left),
            (~cat_right & ~cat_left, iface.seam),
        ):
            b = kern.blocks.get(d)
            if b is None or not mask.any():
                continue
            bi, bj = np.nonzero(b)
            vals = b[bi, bj]
            ii = i_idx[mask]
            jj = j_idx[mask]
            ri_parts.append((6 * ii[:, None] + bi[None, :]).ravel())
            ci_parts.append((6 * jj[:, None] + bj[None, :]).ravel())
            vv_parts.append(np.tile(vals, len(ii)))

    if w is not None:
        for n1 in w.transverse_range(t):
            if not -t <= n1 <= t:
                continue
            for n2 in w.support_rows(n1):
                key = (n1, _wrap_row(L, n1, n2))
                if key not in sites:
                    continue
                i = sites[key]
                for d in _OFF:
                    m1, m2 = n1 + d[0], n2 + d[1]
                    if not -t <= m1 <= t:
                        continue
                    wb = periodized_block(w, (n1, n2), (m1, m2), L)
                    if wb is None:
                        continue
                    j = sites[(m1, _wrap_row(L, m1, m2))]
                    bi, bj = np.nonzero(wb)
                    ri_parts.append(6 * i + bi)
                    ci_parts.append(6 * j + bj)
                    vv_parts.append(wb[bi, bj])

    mat = sp.coo_matrix(
        (np.concatenate(vv_parts), (np.concatenate(ri_parts), np.concatenate(ci_parts))),
        shape=(6 * nc, 6 * nc),
    ).tocsr()
    return mat, sites


_FX_PERM = [5, 3, 4, 1, 2, 0]  # new sublattice value index i comes from perm[i]


def reflection_permutation(L: int, sites: dict) -> sp.csr_matrix:
    nc = len(sites)
    n1, n2 = np.array(list(sites)).T
    i = np.fromiter(sites.values(), dtype=int, count=nc)
    j = _site_indices(sites, L, n1, -n1 - n2)
    ri = (6 * i[:, None] + np.arange(6)).ravel()
    ci = (6 * j[:, None] + np.array(_FX_PERM)).ravel()
    return sp.coo_matrix((np.ones(len(ri)), (ri, ci)), shape=(6 * nc, 6 * nc)).tocsr()


def parity_isometry(L: int, sites: dict, parity: int) -> sp.csr_matrix:
    """Columns form an orthonormal basis of the chosen parity sector."""
    p = reflection_permutation(L, sites).tocoo()
    n = p.shape[0]
    img = np.empty(n, dtype=int)
    img[p.col] = p.row  # P e_j = e_{img[j]}
    seen = np.zeros(n, dtype=bool)
    ri, ci, vv = [], [], []
    col = 0
    for s in range(n):
        if seen[s]:
            continue
        t = int(img[s])
        seen[s] = seen[t] = True
        if t == s:
            if parity == 1:
                ri.append(s)
                ci.append(col)
                vv.append(1.0)
                col += 1
            continue
        ri.extend([s, t])
        ci.extend([col, col])
        vv.extend([1.0 / np.sqrt(2.0), parity / np.sqrt(2.0)])
        col += 1
    return sp.coo_matrix((vv, (ri, ci)), shape=(n, col)).tocsr()


def strip_sector_eigen(
    iface: kernels.InterfaceKernel,
    w: PerturbationW | None,
    L: int,
    parity: int,
    gap: tuple,
    lam_ref: float | None = None,
    d_zig: float | None = None,
    t0: int = 80,
    move_tol: float = 1e-9,
) -> StripSector:
    """In-gap eigenpairs of one parity sector of the (perturbed) L-strip.

    The transverse truncation starts at ``t0`` cells per side and doubles
    until the in-gap eigenvalues move by less than ``move_tol``, or up to
    8 * ``t0`` (then ``t_converged`` is False).  Raises
    ``GapCollapse`` when the perturbed sector shows no isolated in-gap
    eigenvalue, and checks the localization bound |lam - lam_ref| < d_zig/2
    when the reference data is supplied.
    """
    lam_center = 0.5 * (gap[0] + gap[1]) if lam_ref is None else lam_ref
    prev = None

    def attempt(t):
        nonlocal prev
        mat, sites = assemble_strip(iface, L, t, w)
        q = parity_isometry(L, sites, parity)
        mat_p = (q.getH() @ mat @ q).tocsr()
        wr, vr = _ingap_eigsh(mat_p, lam_center, gap)
        n1s = np.array([key[0] for key in sorted(sites, key=sites.get)])
        kept = _edge_filtered(wr, q @ vr, n1s, gap, max(4, t // 8))
        tracked = min((v for v, _, _ in kept), key=lambda v: abs(v - lam_center), default=None)
        done = prev is not None and tracked is not None and abs(tracked - prev) < move_tol
        prev = tracked
        return done, (kept, sites, q, len(wr))

    (kept, sites, q, count), t, converged = green._double_until(t0, 8 * t0, attempt)
    if len(kept) == 0:
        raise GapCollapse(f"no isolated in-gap eigenvalue in parity {parity} sector")
    tracked = 0
    if lam_ref is not None:
        tracked = int(np.argmin([abs(val - lam_ref) for val, _, _ in kept]))
        if d_zig is not None and abs(kept[tracked][0] - lam_ref) >= 0.5 * d_zig:
            raise GapCollapse(
                f"tracked eigenvalue {kept[tracked][0]:.8f} drifted beyond "
                f"d_zig/2 of {lam_ref:.8f}"
            )
    return StripSector(
        L=L,
        parity=parity,
        t_used=t,
        t_converged=converged,
        ingap_count=count,
        sites=sites,
        isometry=q,
        eigenvalues=np.array([v for v, _, _ in kept]),
        vectors=np.column_stack([vec for _, vec, _ in kept]),
        centers=np.array([c for _, _, c in kept]),
        tracked=tracked,
    )


def full_strip_ingap(iface, L, t, gap, lam_center):
    """In-gap eigenvalues of the full (unreduced) L-strip, edge-filtered."""
    mat, sites = assemble_strip(iface, L, t)
    w, v = _ingap_eigsh(mat, lam_center, gap)
    n1s = np.array([key[0] for key in sorted(sites, key=sites.get)])
    return [val for val, _, _ in _edge_filtered(w, v, n1s, gap, max(4, t // 8))], sites


# ---------------------------------------------------------------------------
# Far-field persistence


def farfield_persistence(
    sector_pert: StripSector,
    sector_unpert: StripSector,
    exclusion_radius: float,
) -> dict:
    """Overlap of perturbed and unperturbed modes away from the defect.

    Returns the normalized far-field overlap after optimal global phase
    alignment and the windowed l2 profile of the difference versus distance
    from the defect center.
    """
    if sector_pert.sites.keys() != sector_unpert.sites.keys():
        raise ModelValidationError("sectors live on different windows")
    u1 = sector_pert.tracked_vector
    u0 = sector_unpert.tracked_vector
    u0 = u0 / np.linalg.norm(u0)
    u1 = u1 / np.linalg.norm(u1)
    phase = np.vdot(u0, u1)
    u1 = u1 * np.exp(-1j * np.angle(phase)) if abs(phase) > 0 else u1

    keys = sorted(sector_pert.sites, key=sector_pert.sites.get)
    radii = np.array([_cell_norm(*k) for k in keys])
    mask = np.repeat(radii > exclusion_radius, 6)
    a, b = u0[mask], u1[mask]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    overlap = float(abs(np.vdot(a, b)) / (na * nb)) if na > 0 and nb > 0 else 1.0

    diff = (u1 - u0).reshape(-1, 6)
    coords = np.array([abs(_ell2_coord(*k)) for k in keys])
    edges = np.arange(0.0, coords.max() + 2.0, 2.0)
    prof = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (coords >= lo) & (coords < hi)
        prof.append(float(np.linalg.norm(diff[sel])))
    return {
        "overlap_outside": overlap,
        "difference_norm": float(np.linalg.norm(diff)),
        "window_edges": edges.tolist(),
        "difference_profile": prof,
    }


# ---------------------------------------------------------------------------
# Interface band curve in the parallel momentum


def interface_band_curve(
    iface: kernels.InterfaceKernel,
    gap: tuple,
    lam_star: float,
    kpars: np.ndarray | None = None,
    n_blocks: int = 240,
) -> dict:
    """Track the in-gap eigenvalue branches of the interface strip in kpar.

    Branches are matched between neighboring momenta by proximity; a matched
    jump larger than half the gap width raises ``BranchLost``.  The result
    reports per-momentum samples and the emptiness of the pi sectors.
    """
    from .matching import direct_oracle

    if kpars is None:
        kpars = np.linspace(-np.pi, np.pi, 41)
    samples = []
    for kp in kpars:
        vals = [v for v, _, _ in direct_oracle(iface, lam_star, gap, n_blocks, kpar=float(kp))]
        samples.append(sorted(vals))
    width = gap[1] - gap[0]
    for i in range(1, len(kpars)):
        prev, cur = samples[i - 1], samples[i]
        for v in cur:
            if prev and min(abs(v - p) for p in prev) > 0.5 * width and len(prev) == len(cur):
                raise BranchLost(f"branch continuity failed at kpar = {kpars[i]:.4f}")
    return {
        "kpar": np.asarray(kpars),
        "samples": samples,
        "empty_at_pi": (len(samples[0]) == 0 and len(samples[-1]) == 0)
        if abs(abs(kpars[0]) - np.pi) < 1e-9
        else None,
    }


# ---------------------------------------------------------------------------
# Optional Neumann-series cross-check of the perturbed eigenmode


def neumann_mode_check(
    iface, w: PerturbationW, L: int, parity: int, gap: tuple, t: int = 40,
    tol: float = 1e-10, max_terms: int = 60,
) -> dict:
    """Perturbed sector mode via the reduced-resolvent series versus direct solve.

    Dense eigendecomposition of the unperturbed sector operator supplies the
    exact reduced resolvent; the series is summed until increments fall
    below ``tol``.
    """
    mat0, sites = assemble_strip(iface, L, t)
    matw, _ = assemble_strip(iface, L, t, w)
    q = parity_isometry(L, sites, parity)
    h0 = (q.getH() @ mat0 @ q).toarray()
    hw = (q.getH() @ matw @ q).toarray()
    wmat = hw - h0

    evals, evecs = np.linalg.eigh(h0)
    ingap = [i for i, v in enumerate(evals) if gap[0] < v < gap[1]]
    # pick the isolated interface level (edge-filtered by transverse profile)
    n1s = np.array([k[0] for k in sorted(sites, key=sites.get)])
    best = None
    for i in ingap:
        full = q @ evecs[:, i]
        prof = np.linalg.norm(full.reshape(-1, 6), axis=1)
        center = abs(float((prof * n1s).sum() / prof.sum()))
        if center < t / 2 and (best is None or center < best[1]):
            best = (i, center)
    if best is None:
        raise GapCollapse("no unperturbed in-gap sector eigenvalue")
    i0 = best[0]
    lam0 = evals[i0]
    u0 = evecs[:, i0]

    wpert, vpert = np.linalg.eigh(hw)
    j0 = int(np.argmin(np.abs(wpert - lam0)))
    lam_w, u_direct = wpert[j0], vpert[:, j0]

    inv = np.zeros_like(evals)
    mask = np.arange(len(evals)) != i0
    inv[mask] = 1.0 / (evals[mask] - lam0)

    def qinv(y):
        c = evecs.conj().T @ y
        return evecs @ (inv * c)

    dl = lam_w - lam0
    y = qinv(wmat @ u0)
    series = -y.copy()
    term = y
    n_terms = 1
    for n_terms in range(2, max_terms + 2):
        term = -qinv(wmat @ term - dl * term)
        series -= term
        if np.linalg.norm(term) < tol:
            break
    u_series = u0 + series
    u_series /= np.linalg.norm(u_series)
    u_cmp = u_direct * np.exp(-1j * np.angle(np.vdot(u_series, u_direct)))
    return {
        "lambda_unperturbed": float(lam0),
        "lambda_perturbed": float(lam_w),
        "series_terms": n_terms,
        "mode_difference": float(np.linalg.norm(u_series - u_cmp)),
    }

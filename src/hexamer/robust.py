"""Symmetry-protected robustness on periodized strips.

The interface operator is restricted to L-cell-wide strips with periodic
boundary conditions along the interface, split into x-reflection parity
sectors, and perturbed by reflection-symmetric localized defects.  The
perturbed in-gap eigenpairs are tracked across L; their far fields must
reproduce the unperturbed interface modes.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import ceil, gcd

import numpy as np
import scipy.sparse as sp
from scipy.linalg import block_diag

from . import green, kernels, lattice
from .errors import BranchLost, GapCollapse, ModelValidationError, NumericError
from .matching import _edge_filtered, _inertia, _ingap_eigsh, _residual_gate

_OFF = kernels.RANGE1_OFFSETS
MOVE_TOL = 1e-9   # the certificate eps that every kept sector pair must reach
CORE_COLUMNS = 2  # the compact defect couples only the columns |n1| <= 2
EXCLUSION_RADIUS = 3.0  # farfield_persistence compares modes beyond this cell norm
POLE_OFFSET = 1e-6  # a secular pass shifts no strip nearer than this to one of its own in-gap eigenvalues
SECULAR_CAP = 16    # Newton passes of the secular equation before NumericError
SECULAR_ULPS = 4    # the passes stop once no root moves by more than this many ulp


def _ell2_coord(n1: int, n2: int) -> float:
    # n . l2 = n1/2 + n2 for the triangular basis
    return 0.5 * n1 + n2


# ---------------------------------------------------------------------------
# Class-(A) perturbations


@dataclass(frozen=True)
class PerturbationW:
    """Reflection-symmetric, longitudinally localized perturbation.

    W couples the cells n and n + d (d a range-1 offset) by the 6x6 block of
    all ``amplitude`` when n or n + d lies within unit distance of the origin
    (``compact``) or of the line n.l2 = 0 (``line``); ``m_w`` is the
    longitudinal localization constant (sup over columns of summed block
    norms) and ``fx_defect`` the reflection commutator on the support.
    """

    kind: str
    amplitude: float
    m_w: float
    fx_defect: float

    @property
    def compact(self) -> bool:
        """Whether the support has a fixed transverse extent, whatever the window width."""
        return self.kind == "compact"

    def _couples(self, n1, n2, d1, d2):
        """Whether W couples the cells n and n + d (arrays too)."""
        near = _cell_norm if self.compact else (lambda c1, c2: np.abs(_ell2_coord(c1, c2)))
        return (near(n1, n2) <= 1.0 + 1e-9) | (near(n1 + d1, n2 + d2) <= 1.0 + 1e-9)


def _cell_norm(n1, n2):
    """Length of the cell vector n1 l1 + n2 l2 (scalars or arrays)."""
    x = n1 * lattice.ELL1[0] + n2 * lattice.ELL2[0]
    y = n1 * lattice.ELL1[1] + n2 * lattice.ELL2[1]
    return np.hypot(x, y)


def _box(h1: int, h2: int):
    """(n1, n2, d1, d2): cells |n1| <= h1, |n2| <= h2 on the first two axes, offsets d on the last."""
    n1, n2 = np.ogrid[-h1 : h1 + 1, -h2 : h2 + 1]
    d1, d2 = np.array(_OFF).T
    return n1[..., None], n2[..., None], d1, d2


def build_W(kind: str, amplitude: float) -> PerturbationW:
    """Compact or line defect with constant blocks of the given amplitude.

    The localization constant M_W is evaluated exactly by finite summation
    and the reflection commutator is verified on the support.
    """
    if amplitude < 0:
        raise ModelValidationError("amplitude must be nonnegative")
    if kind not in ("compact", "line"):
        raise ModelValidationError(f"unknown perturbation kind '{kind}'")
    w = PerturbationW(kind, amplitude, 0.0, 0.0)

    # M_W = sup_n1 sum_{n2, d} ||W(n, n + d)||; by symmetry a few columns suffice.
    # Every block has the norm of the all-amplitude block, summed one by one.
    norm = float(np.linalg.norm(np.full((6, 6), amplitude, dtype=complex), 2))
    coupled = w._couples(*_box(4, 8)).sum(axis=(1, 2))
    m_w = max([0.0] + [sum([norm] * int(c), 0.0) for c in coupled])

    # P maps the pair (n, n + d) to (Pn, Pn + (d1, -d1 - d2)), and FX J FX = J for the all-ones J
    n1, n2, d1, d2 = _box(3, 4)
    moved = w._couples(n1, n2, d1, d2) != w._couples(n1, -n1 - n2, d1, -d1 - d2)
    defect = float(amplitude) if moved.any() else 0.0
    return replace(w, m_w=m_w, fx_defect=defect)


# ---------------------------------------------------------------------------
# L-strip assembly and parity sectors


@dataclass
class StripSector:
    L: int
    t_used: int
    t_converged: bool      # False when the certificate still failed at the cap
    residual_bound: float  # the kept pairs' certificate at t_used (`_certificate`)
    ingap_count: int       # in-gap eigenvalues by inertia, before edge filtering
    eigenvalues: np.ndarray
    vectors: np.ndarray    # full-space columns
    tracked: int           # index of the interface branch among the kept pairs

    @property
    def tracked_vector(self) -> np.ndarray:
        return self.vectors[:, self.tracked]


def _window_start(L: int, n1):
    """First row n2 of the window -L/2 <= n.l2 < L/2 at column n1 (arrays too)."""
    return np.ceil(-L / 2.0 - 0.5 * np.asarray(n1) - 1e-9).astype(int)


def _wrap_row(L: int, n1, n2):
    """n2 shifted by a multiple of L into the window -L/2 <= n.l2 < L/2 (arrays too)."""
    return n2 - L * np.floor((_ell2_coord(n1, n2) + L / 2.0 + 1e-9) / L).astype(int)


def _site_indices(L: int, t: int, n1, n2):
    """Site indices of the cells (n1, n2), |n1| <= t, each n2 first wrapped into the window.

    Sites are numbered column by column, n1 = -t..t, and within a column by
    the window rows in ascending order.
    """
    return (n1 + t) * L + _wrap_row(L, n1, n2) - _window_start(L, n1)


def _site_cells(L: int, t: int, idx):
    """Cells (n1, n2) of the site indices ``idx``; the inverse of `_site_indices`."""
    n1 = idx // L - t
    return n1, _window_start(L, n1) + idx % L


def assemble_strip(iface: kernels.InterfaceKernel, L: int, t: int, w: PerturbationW | None) -> sp.csr_matrix:
    """Sparse L-periodic interface strip on cells |n1| <= t.

    The translation-invariant part is assembled offset by offset, each cell
    pair taking the kernel of its side of the seam (`kernels._side`); the
    localized perturbation is added separately over its small support.
    """
    nc = (2 * t + 1) * L
    n1s, n2s = _site_cells(L, t, np.arange(nc))

    ri_parts, ci_parts, vv_parts = [], [], []
    for d in _OFF:
        m1 = n1s + d[0]
        valid = (m1 >= -t) & (m1 <= t)
        if not valid.any():
            continue
        i_idx = np.nonzero(valid)[0]
        j_idx = _site_indices(L, t, m1[i_idx], n2s[i_idx] + d[1])
        side = kernels._side(n1s[i_idx], m1[i_idx])
        for s, kern in enumerate((iface.right, iface.left, iface.seam)):
            b = kern.blocks.get(d)
            mask = side == s
            if b is None or not mask.any():
                continue
            bi, bj = np.nonzero(b)
            ii = i_idx[mask]
            jj = j_idx[mask]
            ri_parts.append((6 * ii[:, None] + bi[None, :]).ravel())
            ci_parts.append((6 * jj[:, None] + bj[None, :]).ravel())
            vv_parts.append(np.tile(b[bi, bj], len(ii)))

    if w is not None:
        for parts, entries in zip((ri_parts, ci_parts, vv_parts), _defect_entries(w, L, t)):
            parts.append(entries)

    return sp.coo_matrix(
        (np.concatenate(vv_parts), (np.concatenate(ri_parts), np.concatenate(ci_parts))),
        shape=(6 * nc, 6 * nc),
    ).tocsr()


def _defect_entries(w: PerturbationW, L: int, t: int):
    """Row, column and value arrays of the periodized defect W^L on the width-t strip.

    W^L keeps W's pairs (n, n + d) whose row cell lies within |n.l2| <= L/4
    of the defect, n + d wrapped into the window, on columns |n1| <= t; this
    reproduces W once L exceeds twice its support.  Raises
    ``ModelValidationError`` when the kept cell pairs are not symmetric, so
    that W^L is not Hermitian (below L = 8 for both kinds), or when their
    set is not its own image under the reflection P.  Values are complex; a
    zero amplitude gives no entries.
    """
    nc = (2 * t + 1) * L
    n1, n2 = (c[:, None] for c in _site_cells(L, t, np.arange(nc)))
    d1, d2 = np.array(_OFF).T
    cut = np.abs(_ell2_coord(n1, n2)) <= L / 4.0 + 1e-9
    inside = np.abs(n1 + d1) <= t
    i, off = np.nonzero(cut & inside & w._couples(n1, n2, d1, d2) & (w.amplitude != 0))
    j = _site_indices(L, t, n1[i, 0] + d1[off], n2[i, 0] + d2[off])
    pairs = np.sort(i * nc + j)
    if not np.array_equal(pairs, np.sort(j * nc + i)):
        raise ModelValidationError(f"the periodized defect is not Hermitian at L = {L}")
    ip, jp = (_reflection_image(L, t, 6 * c) // 6 for c in (i, j))
    if not np.array_equal(pairs, np.sort(ip * nc + jp)):
        raise ModelValidationError(f"the periodized defect is not reflection symmetric at L = {L}")
    sub = np.arange(36)
    rows = (6 * i[:, None] + sub // 6).ravel()
    cols = (6 * j[:, None] + sub % 6).ravel()
    return rows, cols, np.full(len(rows), w.amplitude, dtype=complex)


def _reflection_image(L: int, t: int, idx):
    """Full-space index of P e_idx for each index ``idx`` of the width-t L-strip.

    P maps the cell (n1, n2) to (n1, -n1 - n2) and permutes the sites within
    the cell by Fx; it is an involution.
    """
    site, sub = np.divmod(idx, 6)
    n1, n2 = _site_cells(L, t, site)
    return 6 * _site_indices(L, t, n1, -n1 - n2) + lattice.FX_PERM[sub]


def parity_isometry(L: int, t: int, parity: int) -> sp.csr_matrix:
    """Columns form an orthonormal basis of the chosen parity sector.

    Fx fixes no site of the cell, so every orbit of P is a pair {s, P s};
    its column is (e_s + parity e_Ps) / sqrt(2), and the columns follow the
    smaller index of each pair.
    """
    idx = np.arange(6 * L * (2 * t + 1))
    img = _reflection_image(L, t, idx)
    lead = idx[idx < img]
    col = np.arange(len(lead))
    vals = np.repeat([1.0 / np.sqrt(2.0), parity / np.sqrt(2.0)], len(lead))
    return sp.csr_matrix(
        (vals, (np.concatenate([lead, img[lead]]), np.concatenate([col, col]))),
        shape=(len(idx), len(lead)),
    )


def assembled_solve(
    iface: kernels.InterfaceKernel, w: PerturbationW | None, L: int, parity: int, gap: tuple, t: int
):
    """In-gap eigenvalues, full-space vectors and largest residual of one parity sector of the width-t (perturbed) L-strip.

    The strip is assembled, reduced to the sector by `parity_isometry`,
    counted by `_inertia` at both gap edges and solved by `_ingap_eigsh`.
    """
    mat = assemble_strip(iface, L, t, w)
    q = parity_isometry(L, t, parity)
    sector = (q.getH() @ mat @ q).tocsr()
    wr, vr, resid = _ingap_eigsh(sector, gap, _inertia(sector, gap[1]) - _inertia(sector, gap[0]))
    return wr, q @ vr, resid


def _column_coupling(iface: kernels.InterfaceKernel, w: PerturbationW | None) -> float:
    """h: a bound on the norm of the strip's coupling from one column n1 to the next.

    Each kernel couples neighbouring columns by its blocks b_d with d1 = 1
    (or their adjoints), each a permutation of the rows times b_d.  The
    line defect adds at most its localization constant M_W.  The compact
    one couples only the columns |n1| <= 2, inside every strip on which
    the edge filter keeps a pair (its edge band of at least 4 columns per
    side covers all of a strip with t <= 4).
    """
    sums = [
        sum(np.linalg.norm(b, 2) for d, b in kern.blocks.items() if d[0] == 1)
        for kern in (iface.right, iface.left, iface.seam)
    ]
    return float(max(sums)) + (w.m_w if w is not None and not w.compact else 0.0)


def _certificate(vectors, resid: float, h: float, L: int, t: int):
    """(eps, r) of the kept width-t sector pairs: their Weyl certificate and slowest decay per column.

    Zero-padded, a unit pair (lam, v) of the width-t strip has the residual
    (A_t - lam) v inside and, on the columns +-(t + 1), at most h ||v(+-t)||
    (`_column_coupling`) on the infinite strip, so the infinite strip has
    an eigenvalue within eps = ||(A_t - lam) v|| + h (||v(-t)||^2 + ||v(t)||^2)^1/2
    of lam; ``resid`` bounds the first term for every pair.  r is the
    largest column-norm ratio fitted over t/4 <= |n1| <= 3t/4 on either
    side, NaN when that range holds fewer than two columns.
    """
    cols = np.linalg.norm(vectors.reshape(2 * t + 1, 6 * L, -1), axis=1)
    cols /= np.linalg.norm(cols, axis=0)
    eps = resid + h * float(np.hypot(cols[0], cols[-1]).max())
    dist = np.arange(ceil(t / 4), 3 * t // 4 + 1)
    if len(dist) < 2:
        return eps, float("nan")
    sides = np.concatenate([cols[t + dist], cols[t - dist]], axis=1)
    slopes = np.polyfit(dist, np.log(np.maximum(sides, np.finfo(float).tiny)), 1)[0]
    return eps, float(np.exp(slopes.max()))


# ---------------------------------------------------------------------------
# Bloch-reduced sector solves
#
# Without the defect the L-periodic strip on |n1| <= t is unitarily the direct
# sum of the 1-D strips H_k of `BlockedStripOperator(iface, k)` on |n1| <= t at k = 2 pi j / L:
# a full-space vector x(n1, n2) has the momentum components
#     x_j(n1) = L^-1/2 sum_n2 exp(-i k n2) x(n1, n2),
# an FFT along each column.  The reflection P (n1, n2) -> (n1, -n1 - n2) maps
# the component at k to the one at -k through R_k phi(n1) = exp(-i k n1) FX
# phi(n1).  So a vector of parity p has x_{-k} = p R_k x_k: it is fixed by its
# components j = 0..L//2, and its sector holds one copy of each H_k with
# 0 < k < pi plus, at the self-conjugate k = 0 and pi, the part of H_k where
# R_k = p.


def _momenta(L: int) -> list:
    """j / L as reduced (numerator, denominator) for j = 0..L//2: one k = 2 pi j / L per pair (k, -k)."""
    return [(j // gcd(j, L), L // gcd(j, L)) for j in range(L // 2 + 1)]


def _cell_basis(n1, frac: tuple, part: int) -> np.ndarray:
    """c(n1): the columns in cell n1 of the basis S of the strip at k = 2 pi frac[0] / frac[1] in which S^H H_k S is real.

    Per Fx pair (a, b) the columns exp(i k n1 / 2) (e_a + e_b) / sqrt(2) and
    i exp(i k n1 / 2) (e_a - e_b) / sqrt(2) are fixed by x -> M conj(x),
    M = diag(exp(i k n1)) FX, a symmetry of H_k as the hoppings are real: an
    array (len(n1), 6, 6).  At k = 0 and pi it is (len(n1), 6, 3), real, the
    part where R_k = ``part``.
    """
    a, b = np.arange(3), lattice.FX_PERM[:3]
    if frac[1] <= 2:
        c = np.zeros((len(n1), 6, 3))
        c[:, a, a] = 1.0
        c[:, b, a] = part * (-1.0) ** (np.abs(n1) * frac[0])[:, None]   # part * exp(-i k n1)
    else:
        phase = np.exp(1j * np.pi * frac[0] / frac[1] * n1)[:, None]   # exp(i k n1 / 2)
        c = np.zeros((len(n1), 6, 6), dtype=complex)
        c[:, a, a] = c[:, b, a] = phase
        c[:, a, a + 3], c[:, b, a + 3] = 1j * phase, -1j * phase
    return c / np.sqrt(2.0)


def _part(frac: tuple, parity: int) -> int:
    """The part of the strip at k = 2 pi frac[0] / frac[1] that a parity sector holds: ``parity`` at k = 0 and pi, else 0 (all of it)."""
    return parity if frac[1] <= 2 else 0


@dataclass
class _Cells:
    """The cell blocks of one momentum strip in its real basis.

    ``core`` is the block of the columns |n1| <= ``CORE_COLUMNS``.  On side
    s (0: n1 > 0, 1: n1 < 0) and for a column j = |n1| >= ``CORE_COLUMNS``,
    ``diag[s, j % 2]`` is its diagonal block and ``out[s, j % 2]`` its
    coupling to the column j + 1 further out; every such column sees one
    bulk, and the basis repeats with period 2 in n1 (at k = pi; period 1
    elsewhere).  A cell of 3 rows (k = 0 and pi) is padded to 6, ``diag``
    with the identity and ``out`` with zeros, so that a padded block keeps
    its count and inverse; ``eye`` is the identity on the cell's own rows.
    """

    core: np.ndarray
    diag: np.ndarray
    out: np.ndarray
    eye: np.ndarray

    @classmethod
    def of(cls, iface: kernels.InterfaceKernel, frac: tuple, part: int) -> "_Cells":
        """The blocks c(n)^H H_k(n, m) c(m) (`_cell_basis`) on |n|, |m| <= ``CORE_COLUMNS`` + 2; ``ModelValidationError`` if not real."""
        reach = CORE_COLUMNS + 2
        n = np.arange(-reach, reach + 1)
        op = kernels.BlockedStripOperator(iface, 2.0 * np.pi * frac[0] / frac[1])
        c = _cell_basis(n, frac, part)
        ch = c.conj().swapaxes(1, 2)
        # the diagonal block of each column n and its coupling to the column n + 1
        blocks = np.concatenate([
            ch @ np.stack([op.block(i, i) for i in n]) @ c,
            ch[:-1] @ np.stack([op.block(i, i + 1) for i in n[:-1]]) @ c[1:],
        ])
        if abs(blocks.imag).max() > 1e-12 * abs(blocks).max():
            raise ModelValidationError(f"the momentum strip at k = 2 pi {frac[0]}/{frac[1]} is not real")
        dd, uu = np.split(blocks.real, [len(n)])
        p = c.shape[2]
        diag, out = np.zeros((2, 2, 6, 6)), np.zeros((2, 2, 6, 6))
        diag[..., p:, p:] = np.eye(6 - p)
        j = np.array([CORE_COLUMNS, CORE_COLUMNS + 1])   # out couples the column j to j + 1 further out
        diag[:, (j + 1) % 2, :p, :p] = dd[reach + j + 1], dd[reach - j - 1]
        out[:, j % 2, :p, :p] = uu[reach + j], uu[reach - j - 1].swapaxes(1, 2)
        core = _tridiagonal(dd[2:-2], uu[2:-2]).toarray()   # the columns |n1| <= CORE_COLUMNS
        return cls(core, diag, out, np.diag(np.arange(6) < p).astype(float))

    @property
    def per_cell(self) -> int:
        return int(self.eye.sum())

    def core_block(self, t: int, s: float, tails: np.ndarray) -> np.ndarray:
        """C - s on the core columns |n1| <= min(``CORE_COLUMNS``, t), less ``tails`` (side 0, side 1; `_schur_lanes`) on its two outer columns."""
        p, drop = self.per_cell, self.per_cell * (CORE_COLUMNS - min(CORE_COLUMNS, t))
        block = self.core[drop : len(self.core) - drop, drop : len(self.core) - drop] - s * np.eye(len(self.core) - 2 * drop)
        block[:p, :p] -= tails[1, :p, :p]
        block[-p:, -p:] -= tails[0, :p, :p]
        return block

    @cached_property
    def row_bound(self) -> float:
        """A bound on the absolute row sums, so on the norm, of the strip of any width.

        A core row sees the core block and at most one coupling to a tail
        column, a tail row its diagonal block and two couplings.
        """
        rows = lambda blocks: np.abs(blocks).sum(axis=-1).max()
        return float(max(rows(self.core), rows(self.diag)) + 2 * max(rows(self.out), rows(self.out.swapaxes(-1, -2))))

    def strip(self, t: int) -> sp.csr_matrix:
        """The width-t strip S^H H_k S, sparse (`columns`)."""
        return _tridiagonal(*self.columns(t))

    def times(self, t: int, z: np.ndarray) -> np.ndarray:
        """The width-t strip S^H H_k S times the columns ``z``, block by block (`columns`)."""
        dd, uu = self.columns(t)
        z = z.reshape(len(dd), dd.shape[1], -1)
        y = dd @ z
        y[:-1] += uu @ z[1:]
        y[1:] += uu.swapaxes(1, 2) @ z[:-1]
        return y.reshape(-1, z.shape[-1])

    def columns(self, t: int):
        """The width-t strip's diagonal block of each column n1 = -t..t and its coupling to the column n1 + 1.

        The core block, then ``diag`` and ``out`` on each side out to
        column t; each block below the diagonal is the one above
        transposed, as in `MomentumStrips.resolvent_cores`.
        """
        p, reach, m = self.per_cell, min(CORE_COLUMNS, t), 2 * CORE_COLUMNS + 1
        core = self.core.reshape(m, p, m, p)
        diag, out = self.diag[..., :p, :p], self.out[..., :p, :p]
        i = np.arange(CORE_COLUMNS - reach, CORE_COLUMNS + reach + 1)
        j = np.arange(reach + 1, t + 1)   # the tail columns |n1| of a side
        # the diagonal block of each column n1 = -t..t and its coupling to the column n1 + 1
        dd = np.concatenate([diag[1, j[::-1] % 2], core[i, :, i, :], diag[0, j % 2]])
        uu = np.concatenate([out[1, (j[::-1] - 1) % 2].swapaxes(1, 2), core[i[:-1], :, i[1:], :], out[0, (j - 1) % 2]])
        return dd, uu


def _tridiagonal(diag: np.ndarray, upper: np.ndarray) -> sp.csr_matrix:
    """The symmetric block-tridiagonal matrix of the stacked (n, p, p) ``diag`` and (n - 1, p, p) ``upper`` blocks."""
    n, p = diag.shape[:2]
    b = np.arange(n)
    rows = np.concatenate([b, b[:-1], b[1:]])[:, None, None] * p + np.arange(p)[:, None]
    cols = np.concatenate([b, b[1:], b[:-1]])[:, None, None] * p + np.arange(p)
    vals = np.concatenate([diag, upper, upper.swapaxes(1, 2)])
    rows, cols = np.broadcast_arrays(rows, cols)
    keep = vals != 0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n * p, n * p))


@dataclass
class _MomentumStrip:
    """One momentum strip of width t in its real basis, its ``part`` at k = 0 and pi, with its in-gap pairs.

    ``edges`` holds (nu, G) at both gap edges (`MomentumStrips.resolvent_cores`):
    its count of eigenvalues below each edge and the block of its resolvent
    on ``core``, the rows of the columns |n1| <= ``CORE_COLUMNS`` where a
    compact defect acts.  The real symmetric ``mat`` = S^H H_k S (from
    ``cells``) and the blocks c(n1) of S (``basis``) are built on first use:
    ``mat`` only when the strip has in-gap pairs, for their shift-invert
    solve; a perturbed sector multiplies by the strip block by block
    (`_Cells.times`).
    """

    cells: _Cells
    t: int
    frac: tuple
    part: int
    gap: tuple
    edges: tuple

    @property
    def size(self) -> int:
        return self.cells.per_cell * (2 * self.t + 1)

    @property
    def core(self) -> np.ndarray:
        per_cell, reach = self.cells.per_cell, min(CORE_COLUMNS, self.t)
        return np.arange(per_cell * (self.t - reach), per_cell * (self.t + reach + 1))

    @cached_property
    def basis(self) -> np.ndarray:
        return _cell_basis(np.arange(-self.t, self.t + 1), self.frac, self.part)

    @cached_property
    def mat(self) -> sp.csr_matrix:
        return self.cells.strip(self.t)

    @cached_property
    def pairs(self):
        """In-gap eigenvalues and vectors of ``mat``, and their largest residual."""
        (below0, _), (below1, _) = self.edges
        if below1 == below0:
            return np.empty(0), np.empty((self.size, 0)), 0.0
        return _ingap_eigsh(self.mat, self.gap, below1 - below0)


def _inverse(s: np.ndarray, count: bool, singular):
    """(S^-1, nu(S)) of each of the stacked real symmetric S, nu the count of its negative eigenvalues, or (S^-1, None) without ``count``.

    An S whose smallest absolute eigenvalue is at most its size times the
    machine epsilon times its largest is singular: ``NumericError`` with
    the message ``singular(i)`` for the first such S.  Without ``count``
    the eigenvalues are computed only when LU finds some S exactly
    singular.  The inverse is LU's: on the near-singular Schur blocks of a
    shift inside the bulk bands it keeps G about ten times closer to an
    iteratively refined solve than V diag(1/w) V^T does.
    """
    try:
        inverse = np.linalg.inv(s)
    except np.linalg.LinAlgError:
        inverse = None
    if inverse is not None and not count:
        return inverse, None
    w = np.linalg.eigvalsh(s)
    size = np.abs(w)
    bad = size.min(axis=-1) <= s.shape[-1] * np.finfo(float).eps * size.max(axis=-1)
    if bad.any() or inverse is None:
        raise NumericError(singular(int(np.argmax(bad))))
    return inverse, (w < 0).sum(axis=-1)


def _schur_lanes(lanes, t: int, count: bool):
    """((nu, G) of each lane, tail) for the width-t momentum strip ``mat`` of each lane (cells, s, frac), shifted by s.

    Beyond the columns |n1| <= ``CORE_COLUMNS`` each side of a momentum
    strip is a half-strip of one bulk (`_Cells`): the columns
    j = ``CORE_COLUMNS`` + 1..t, each with the block diag[j % 2] - s and
    the coupling out[j % 2] to j + 1.  Block cyclic reduction (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627) eliminates them
    in O(log t) steps, each one batch over both sides of all the lanes.
    The Dirichlet end column t goes first.  The columns left split by the
    binary digits of their count into segments of 2, 4, 8, ... columns,
    all starting on one column parity, so that every segment of m columns
    has the same Schur complement [[P, Q], [Q^T, R]] on its two end
    columns; two of m columns join into one of 2m through their middle
    columns, M = [[R, b], [b^T, P]], b the coupling between them.  From
    the Dirichlet end inward, the largest first, each segment a..c - 1
    meets the Schur block S_c of the columns already eliminated in
    K = [[P, Q], [Q^T, R - b S_c^-1 b^T]], and S_a^-1 is the corner of
    K^-1; the column ``CORE_COLUMNS`` + 1 goes last when the count is
    odd.  That leaves the core block C - s less the tail term
    out S^-1 out^T on each of its two outer columns (`_Cells.core_block`);
    G, its inverse, is the block of (mat - s)^-1 on the core rows.  With
    ``count``, nu counts the eigenvalues of ``mat`` below s: by
    Haynsworth's inertia additivity, nu of the core block plus that of
    every eliminated block, the interior of 2m columns counting
    2 nu(interior of m columns) + nu(M); without it nu is None.
    ``tail(y)`` gives the tail columns j = ``CORE_COLUMNS`` + 1..t of
    (mat - s)^-1 f, f zero there, from its column ``CORE_COLUMNS`` y on
    each side of each lane (side 0, n1 > 0, then side 1): across each
    eliminated block by its stored inverse, then the middle columns of
    each segment by M^-1, largest segments first.  Every block goes
    through `_inverse`, so a singular one raises ``NumericError``.
    """
    diag = np.stack([c.diag[side] - s * c.eye for c, s, _ in lanes for side in (0, 1)])
    out = np.stack([c.out[side] for c, _, _ in lanes for side in (0, 1)])
    tr = lambda a: a.swapaxes(-1, -2)

    def singular(n: int, block: str) -> str:
        _, s, f = lanes[n]
        return f"strip factor at shift {s!r} failed: the {block} at k = 2 pi {f[0]}/{f[1]} is singular"

    def invert(block, what: str, *cols):
        """(block^-1, nu), nu 0 without ``count``; ``what`` and its columns n1 on a side name a singular block."""
        name = lambda i: f"{what} n1 = {'..'.join(str(-j if i % 2 else j) for j in cols)}"
        inverse, nu = _inverse(block, count, lambda i: singular(i // 2, name(i)))
        return inverse, nu if count else 0

    state, pieces, below = np.zeros_like(diag[:, 0]), [], 0   # S_c^-1 of the innermost column c eliminated yet

    def eliminate(a: int, m: int):
        """Eliminate the column a (m = 1) or the end columns of the segment a..a + m - 1, against the state."""
        nonlocal state, below
        b, inner = out[:, (a + m - 1) % 2], 0
        if m == 1:
            k_inv, nu = invert(diag[:, a % 2] - b @ state @ tr(b), "half-strip Schur block of column", a)
        else:
            p, q, r, inner = levels[m]
            k_inv, nu = invert(np.block([[p, q], [tr(q), r - b @ state @ tr(b)]]), "Schur block of the segment", a, a + m - 1)
        state, below = k_inv[:, :6, :6], below + inner + nu
        pieces.append((a, m, k_inv))

    if t > CORE_COLUMNS:
        eliminate(t, 1)
    rest = max(t - CORE_COLUMNS - 1, 0)   # the columns left once the end column is eliminated
    first, span, m = CORE_COLUMNS + 1 + rest % 2, rest - rest % 2, 2
    levels = {2: (diag[:, first % 2], out[:, first % 2], diag[:, (first + 1) % 2], 0)}   # P, Q, R, nu(interior)
    joins = {}   # (Q of m columns, M^-1) of each joined size 2m
    while 2 * m <= span:
        p, q, r, inner = levels[m]
        b = out[:, (first + m - 1) % 2]
        join, nu = invert(np.block([[r, b], [tr(b), p]]), "join block of the segment", first, first + 2 * m - 1)
        joins[2 * m] = q, join
        levels[2 * m] = p - q @ join[:, :6, :6] @ tr(q), -(q @ join[:, :6, 6:] @ q), r - tr(q) @ join[:, 6:, 6:] @ q, 2 * inner + nu
        m *= 2
    for m in sorted(levels, reverse=True):
        if span & m:
            eliminate(pieces[-1][0] - m, m)   # the segment just inside the last piece
    if rest % 2:
        eliminate(first - 1, 1)

    def tail(y):
        x = np.zeros((max(t, CORE_COLUMNS) + 1,) + y.shape + (1,))
        x[CORE_COLUMNS, ..., 0] = y
        for a, m, k_inv in reversed(pieces):   # the end columns of each piece, outward from the core
            v = tr(out[:, (a - 1) % 2]) @ x[a - 1]
            x[a] = -(k_inv[:, :6, :6] @ v)
            if m > 1:
                x[a + m - 1] = -(k_inv[:, 6:, :6] @ v)
        starts = []
        for size in sorted(joins, reverse=True):   # the middle columns of every segment, largest first
            starts += [a for a, m, _ in pieces if m == size]
            lo = np.array(starts, dtype=int)
            q, join = joins[size]
            mid = -(join @ np.concatenate([tr(q) @ x[lo], q @ x[lo + size - 1]], axis=-2))
            x[lo + size // 2 - 1], x[lo + size // 2] = mid[..., :6, :], mid[..., 6:, :]
            starts += list(lo + size // 2)   # the right halves; the left ones keep their starts
        return x[CORE_COLUMNS + 1 : t + 1, ..., 0]

    coupling = out[:, CORE_COLUMNS % 2]
    tails = (coupling @ state @ tr(coupling)).reshape(len(lanes), 2, 6, 6)
    below = np.broadcast_to(below, len(diag)).reshape(-1, 2).sum(axis=1)
    cores = []
    for n, ((cells, s, _), end, tail_below) in enumerate(zip(lanes, tails, below)):
        g, nu = _inverse(cells.core_block(t, s, end), count, lambda _: singular(n, "core block"))
        cores.append((int(nu + tail_below) if count else None, g))
    return cores, tail


class MomentumStrips:
    """Momentum strips of one interface kernel and gap, cached by (t, k, part) for one width t.

    The unperturbed and the perturbed sector of one width share the strips,
    their in-gap pairs and their resolvent cores at the gap edges, and so
    does a later L at the same width: the momenta of L = 8 are among those
    of L = 16.  Asking for another width drops the strips of the last one,
    so the two parities of `robustness` share none: on two CPUs they run
    in separate processes, and on one the second parity's pi-sector strips
    (`strip_modes`) drop the first parity's.  The cores come from the
    strips' cell blocks, which do not depend on the width, not from a
    factor of the strip (`resolvent_cores`).  Every shift-invert solve
    shifts at the gap centre, away from the interface eigenvalues.
    """

    def __init__(self, iface: kernels.InterfaceKernel, gap: tuple):
        self.iface = iface
        self.gap = tuple(gap)
        self._blocks = {}
        self._cells = {}

    def blocks(self, t: int, fracs: list, parity: int) -> list:
        """The strips of width t at k = 2 pi f[0] / f[1] for f in ``fracs``, each its ``parity`` part at k = 0 and pi.

        The strips not yet cached get their gap-edge cores in one batch; the
        strips of any other width are dropped.
        """
        if any(key[0] != t for key in self._blocks):
            self._blocks = {}
        keys = [(t, f, _part(f, parity)) for f in fracs]
        new = [key for key in dict.fromkeys(keys) if key not in self._blocks]
        if new:
            lower, upper = self.resolvent_cores(t, [f for _, f, _ in new], parity, self.gap)
            for key, edges in zip(new, zip(lower, upper)):
                self._blocks[key] = _MomentumStrip(self._cell_blocks(*key[1:]), *key, self.gap, edges)
        return [self._blocks[key] for key in keys]

    def _cell_blocks(self, frac: tuple, part: int) -> _Cells:
        if (frac, part) not in self._cells:
            self._cells[frac, part] = _Cells.of(self.iface, frac, part)
        return self._cells[frac, part]

    def resolvent_cores(self, t: int, fracs: list, parity: int, shifts) -> list:
        """(nu, G) of the width-t strip at each of ``fracs`` (its ``parity`` part at k = 0 and pi) and each shift s (`_schur_lanes`).

        nu counts the eigenvalues of the strip's ``mat`` below s and G is the
        block of (mat - s)^-1 on its core rows, from the strip's cells with
        no factor.  Returns one list per shift, in the order of ``fracs``.
        """
        lanes = [(self._cell_blocks(f, _part(f, parity)), s, f) for s in shifts for f in fracs]
        cores, _ = _schur_lanes(lanes, t, count=True)
        return [cores[m * len(fracs) : (m + 1) * len(fracs)] for m in range(len(shifts))]


def _bordered_inertia(cores, u, d) -> int:
    """Eigenvalues of K = A + U D U^T below a shift s, from the resolvent core of each block of A at s.

    ``cores`` holds (nu_j, G_j) of each diagonal block A_j
    (`MomentumStrips.resolvent_cores`: its count below s and the core
    block of (A_j - s)^-1, from its cells, no factor), ``u`` is U on
    the stacked core rows (zero elsewhere) and ``d`` the diagonal of D.
    The bordered matrix M = [[A - s, U], [U^T, -D^-1]] has two Schur
    complements: M/(A - s) = S(s) = -D^-1 - U^T (A - s)^-1 U, and
    M/(-D^-1) = A - s + U D U^T = K - s.  Haynsworth's inertia additivity
    (Linear Algebra Appl. 1 (1968) 73) counts the negative eigenvalues nu
    of M both ways:
        nu(A - s) + nu(S(s)) = nu(M) = nu(-D^-1) + nu(K - s).
    A is block diagonal and U vanishes off the core rows, so
    U^T (A - s)^-1 U = U^T blockdiag(G_j) U, and nu(A - s) = sum nu_j.
    The in-gap count of K is the difference at the two gap edges, where
    nu(-D^-1), the number of positive d, cancels.  A - s must be
    nonsingular, as the Schur recursion of its cores requires.
    """
    below = sum(nu for nu, _ in cores)
    schur = -np.diag(1.0 / d) - u.T @ block_diag(*(g for _, g in cores)) @ u
    negative = int((np.linalg.eigvalsh(0.5 * (schur + schur.T)) < 0).sum())
    return below + negative - int((d > 0).sum())


class _BlochSector:
    """Parity sector of the width-t L-strip in momentum coordinates.

    The coordinates stack the blocks of j = 0..L//2.  `to_full` is the
    isometry B from them onto the sector in full strip space: a block
    column z at 0 < k < pi is the component c_p S z / sqrt(2) at k and its
    image p R_k at -k, and one at k = 0 or pi is S z (S the real basis,
    applied cell by cell as its blocks c(n1), `_cell_basis`).
    c_p = 1 (even) or i (odd) makes the components at k and -k complex
    conjugates, so B is real (`to_full` leaves rounding-level imaginary
    parts), B^T A B = blockdiag(S^H H_k S) for the unperturbed strip A, and
    `to_momentum` is B^T.
    """

    def __init__(self, strips: MomentumStrips, L: int, t: int, parity: int):
        self.L, self.t, self.parity = L, t, parity
        fracs = _momenta(L)
        self.blocks = strips.blocks(t, fracs, parity)
        self.bounds = np.cumsum([0] + [blk.size for blk in self.blocks])
        self.core = np.concatenate([lo + blk.core for lo, blk in zip(self.bounds, self.blocks)])
        self.gap = strips.gap
        cp = 1.0 if parity == 1 else 1j
        self.scale = [1.0 if f[1] <= 2 else cp / np.sqrt(2.0) for f in fracs]
        j = np.arange(L)
        n1 = np.arange(-t, t + 1)[:, None]
        # exp(-i k_j n2) = exp(-i k_j lo(n1)) * (FFT phase of the window row)
        self.lo_phase = np.exp(-2j * np.pi * ((j * _window_start(L, n1)) % L) / L)
        self.r_phase = np.exp(-2j * np.pi * ((j * n1) % L) / L)    # R_k: exp(-i k_j n1)
        self.half = np.arange(len(fracs))
        self.generic = self.half[(self.half > 0) & (2 * self.half < L)]

    def _to_half(self, x):
        """The columns n1 on which ``x`` is nonzero, and their components j = 0..L//2 of the sector projection of ``x``.

        Only those columns are transformed; the components of the others are zero.
        """
        x = x.reshape(2 * self.t + 1, self.L, 6, -1)
        cols = np.flatnonzero(x.any(axis=(1, 2, 3)))
        xh = np.fft.fft(x[cols], axis=1, norm="ortho")
        xh *= self.lo_phase[cols, :, None, None]
        mirror = xh[:, (-self.half) % self.L][:, :, lattice.FX_PERM]
        mirror *= self.r_phase[cols][:, self.half, None, None].conj()
        return cols, 0.5 * (xh[:, self.half] + self.parity * mirror)

    def _from_half(self, yh):
        """Full-space columns of the sector vectors with components ``yh``, j = 0..L//2."""
        full = np.zeros((2 * self.t + 1, self.L) + yh.shape[2:], dtype=complex)
        full[:, self.half] = yh
        g = self.generic
        full[:, self.L - g] = self.parity * yh[:, g][:, :, lattice.FX_PERM] * self.r_phase[:, g, None, None]
        full *= self.lo_phase.conj()[:, :, None, None]
        return np.fft.ifft(full, axis=1, norm="ortho").reshape(6 * self.L * (2 * self.t + 1), -1)

    def to_momentum(self, x):
        """Momentum coordinates B^H x of the full-space columns ``x``."""
        cols, xh = self._to_half(x)
        parts = []
        for pos, blk in enumerate(self.blocks):
            part = np.zeros((2 * self.t + 1, blk.cells.per_cell, xh.shape[-1]), dtype=complex)
            part[cols] = blk.basis[cols].conj().swapaxes(1, 2) @ xh[:, pos] / self.scale[pos]
            parts.append(part.reshape(-1, xh.shape[-1]))
        return np.vstack(parts)

    def to_full(self, z):
        """Full-space columns B z of the momentum-coordinate columns ``z``; a zero block of ``z`` needs no basis."""
        m = z.shape[1]
        yh = np.zeros((2 * self.t + 1, len(self.blocks), 6, m), dtype=complex)
        for pos, blk in enumerate(self.blocks):
            part = z[self.bounds[pos] : self.bounds[pos + 1]]
            if part.any():
                yh[:, pos] = self.scale[pos] * (blk.basis @ part.reshape(2 * self.t + 1, -1, m))
        return self._from_half(yh)

    def unperturbed_pairs(self):
        """In-gap eigenvalues and full-space vectors of the sector, and their largest residual."""
        vals, vecs, resid = zip(*(blk.pairs for blk in self.blocks))
        return np.concatenate(vals), self.to_full(block_diag(*vecs)).real, max(resid)

    def defect(self, w: PerturbationW):
        """(U, D): the defect W^L in momentum coordinates as U D U^T, U on the core rows.

        W^L's real block on its support rows is factored as V D V^T, D its
        nonzero eigenvalues, and U = B^T V: B^T maps onto the sector, so V
        needs no parity projection, and U is nonzero only on the rows of
        the columns n1 that V touches.  Raises ``ModelValidationError``
        when those reach beyond the core columns |n1| <= ``CORE_COLUMNS``.
        """
        ri, ci, vv = _defect_entries(w, self.L, self.t)
        supp, row = np.unique(ri, return_inverse=True)   # W^L is Hermitian: its columns are its rows
        dense = np.zeros((len(supp), len(supp)))
        np.add.at(dense, (row, np.searchsorted(supp, ci)), vv.real)
        d, vecs = np.linalg.eigh(dense)
        keep = np.abs(d) > 1e-12 * np.abs(d).max()
        v = np.zeros((6 * self.L * (2 * self.t + 1), keep.sum()))
        v[supp] = vecs[:, keep]
        u = self.to_momentum(v).real
        if np.count_nonzero(u[self.core]) < np.count_nonzero(u):
            raise ModelValidationError(f"the defect acts beyond the columns |n1| <= {CORE_COLUMNS}")
        return u[self.core], d[keep]

    def perturbed_pairs(self, w: PerturbationW):
        """In-gap eigenvalues, full-space vectors and largest residual of the sector plus the defect, from its secular equation.

        With the defect (U, D) (`defect`), the perturbed sector is
        K = A + U D U^T, A = blockdiag(S^H H_k S).  Its in-gap count is the
        strips' own count corrected at each gap edge by the Schur complement
        of the bordered K, of the defect's rank, from the resolvent cores the
        strips keep there (`_bordered_inertia`).  K itself is never formed.

        The equation (Weinstein-Aronszajn; Kato, Perturbation Theory for
        Linear Operators).  Let Lam, Phi be A's m in-gap pairs, the strips'
        own (`_MomentumStrip.pairs`), Phi_U = U^T Phi, R(lam) = (A - lam)^-1
        with those m poles removed, analytic across the gap, and
        Q(lam) = U^T R(lam) U.  Write an eigenvector of K as
        x = Phi a + x', x' orthogonal to Phi, and c = D U^T x.  Then
        (K - lam) x = 0 splits into (Lam - lam) a + Phi_U^T c = 0 and
        x' = -R(lam) U c, so that (D^-1 + Q(lam)) c = Phi_U a, and
            T(lam) a = lam a,   T(lam) = Lam + Phi_U^T (D^-1 + Q(lam))^-1 Phi_U:
        lam is an eigenvalue of K with a != 0 exactly when it is one of the
        m x m T(lam), and x = Phi a - R(lam) U c, c = (D^-1 + Q)^-1 Phi_U a.
        An eigenvalue whose vector misses every unperturbed pair (a = 0)
        has no root here, so the m roots must be all of the bordered count,
        and each must stay in the gap: otherwise ``NumericError``.

        Q' and the passes.  Q'(lam) = U^T R(lam)^2 U, so for the root i with
        unit a the derivative of the i-th eigenvalue g_i(lam) of T(lam) is
        -a^T Phi_U^T (D^-1 + Q)^-1 Q' (D^-1 + Q)^-1 Phi_U a = -||x'||^2:
        each g_i(lam) - lam falls with slope -(1 + ||x'||^2), so root i is
        its one zero, and Newton's step (g_i - lam) / (1 + ||x'||^2) needs Q'
        only through x', which each pass builds anyway.  A pass
        (`_secular_pass`) evaluates T at every moving root's iterate; the
        passes stop once no root moves by more than tol = ``SECULAR_ULPS``
        ulp of the row-sum bound on ||K|| (the strips' own eigenvalues, from
        which the roots are found, carry rounding errors of that size), and
        ``SECULAR_CAP`` passes without that raise ``NumericError``.  The
        vectors are those of the last pass.

        A root whose pair barely reaches the defect does not move.  Let
        r_i = ||Phi_U e_i|| and delta_i the distance from lam_i to the gap
        edges.  Within delta_i / 2 of lam_i, ||Q|| <= 2 / delta_i (||U|| <= 1),
        so 4 ||D|| <= delta_i gives ||(D^-1 + Q)^-1|| <= 2 ||D||, and T(lam)
        differs from T with row and column i set to lam_i e_i by at most
        2 ||D|| r_i (2 ||Phi_U|| + r_i) in norm.  When that is at most tol,
        by Weyl's inequality the pair stays (lam_i, phi_i), split off, and
        the equation is solved on the others, each root moving by at most
        tol more; its poles stay removed from R.  That holds for the edge
        states of the Dirichlet ends and, with the all-ones defect, for the
        odd sector's pairs, which move by rounding only.

        The pairs are returned in ascending order, each held to a residual
        ||(K - lam) x|| of at most ``RESIDUAL_RTOL`` times the row-sum bound
        on ||K||, computed from the strips and (U, D) without K
        (`_residual`), as `_ingap_eigsh` holds its pairs.
        """
        if w.amplitude == 0:
            return self.unperturbed_pairs()   # W^L has no entries
        u, d = self.defect(w)
        count = _bordered_inertia([blk.edges[1] for blk in self.blocks], u, d) - _bordered_inertia(
            [blk.edges[0] for blk in self.blocks], u, d
        )
        lam = np.concatenate([blk.pairs[0] for blk in self.blocks])
        if count != len(lam):
            raise NumericError(
                f"the bordered count puts {count} eigenvalues of the perturbed sector in the gap; "
                f"its secular equation has {len(lam)} roots"
            )
        if count == 0:
            return lam, np.zeros((6 * self.L * (2 * self.t + 1), 0)), 0.0
        order = np.argsort(lam)   # root i of the secular equation is its i-th eigenvalue
        owner = np.repeat(np.arange(len(self.blocks)), [len(blk.pairs[0]) for blk in self.blocks])[order]
        lam, phi = lam[order], block_diag(*(blk.pairs[1] for blk in self.blocks))[:, order]
        phi_u = u.T @ phi[self.core]
        # the strips' absolute row sums plus those of |U| |D| |U|^T bound ||K||
        bound = max(blk.cells.row_bound for blk in self.blocks) + float((np.abs(u) @ (np.abs(d) * np.abs(u).sum(axis=0))).max())
        tol = SECULAR_ULPS * np.spacing(bound)
        reach, norm_d = np.linalg.norm(phi_u, axis=0), np.abs(d).max()
        still = (4 * norm_d <= np.minimum(lam - self.gap[0], self.gap[1] - lam)) & (
            2 * norm_d * reach * (2 * np.linalg.norm(phi_u) + reach) <= tol
        )
        live = np.flatnonzero(~still)
        mu, a, perp = lam.copy(), np.eye(len(lam)), np.zeros((self.bounds[-1], len(lam)))
        done = len(live) == 0
        for _ in range(SECULAR_CAP):
            if done:
                break
            lift, a[np.ix_(live, live)], perp[:, live] = self._secular_pass(live, mu[live], (lam, owner, phi, phi_u), u, d)
            step = lift / (1.0 + (perp[:, live] ** 2).sum(axis=0))
            done = np.abs(step).max() <= tol
            mu[live] += step
            if not ((self.gap[0] < mu) & (mu < self.gap[1])).all():
                raise NumericError(f"a root of the secular equation left the gap: {mu.tolist()}")
        if not done:
            raise NumericError(f"the secular equation did not converge in {SECULAR_CAP} passes")
        order = np.argsort(mu)
        z = (phi @ a + perp)[:, order]
        z /= np.linalg.norm(z, axis=0)
        return mu[order], self.to_full(z).real, self._residual(z, mu[order], u, d, bound)

    def _secular_pass(self, roots, mu, pairs, u, d):
        """(g - mu, a, x'): T on the pairs ``roots`` and, for its i-th root at its iterate mu_i, the i-th eigenvalue g and unit vector a of T(mu_i), and x' = -R(mu_i) U c.

        R removes the poles of all the ``pairs``: (Lam, the strip of each,
        Phi, Phi_U), in ascending order.

        Each lane (strip, root, shift) runs the half-strip recursion
        (`_schur_lanes`) inverse only, all of them in one batch, and
        its core block gives U^T (A_j - s)^-1 U, from which the strip's
        own in-gap poles are subtracted.  A strip with an in-gap eigenvalue
        within h = ``POLE_OFFSET`` of mu_i is shifted to mu_i -+ h instead,
        and the two lanes averaged, so that no strip is factored at or
        within rounding of its own eigenvalue, and two values within h of
        each other at different momenta get the same treatment.  The linear
        term of R cancels in the mean, which differs from R(mu_i) by
            sum_e psi psi^T h^2 / ((e - mu)((e - mu)^2 - h^2))
        over the pairs (e, psi) of A outside the gap.  So the mean moves g
        by at most (h^2 / delta) ||x'||^2 (1 + O(h^2 / delta^2)), delta the
        distance from mu_i to the gap edges: 2e-22 on the ``robustness-d025``
        config (delta = 0.04, ||x'||^2 = 7e-12), and 5e-16 even at amplitude
        0.05 (||x'||^2 = 2e-5).  A root within h of its own unperturbed
        value keeps both lanes to the end.  The vectors (A_j - s)^-1 U c
        come from the core block and then, on the tail columns, from the
        lane pass's back-substitution through its stored inverses.
        """
        lam, owner, phi, phi_u = pairs
        lanes = []   # (strip, root, shift, weight)
        for pos, blk in enumerate(self.blocks):
            for i, m in enumerate(mu):
                if np.abs(blk.pairs[0] - m).min(initial=np.inf) < POLE_OFFSET:
                    lanes += [(pos, i, m - POLE_OFFSET, 0.5), (pos, i, m + POLE_OFFSET, 0.5)]
                else:
                    lanes.append((pos, i, m, 1.0))
        cells = [self.blocks[pos].cells for pos, _, _, _ in lanes]
        cores, tail = _schur_lanes([(cell, s, self.blocks[pos].frac) for cell, (pos, _, s, _) in zip(cells, lanes)], self.t, count=False)
        rows = np.split(u, np.cumsum([len(blk.core) for blk in self.blocks])[:-1])   # U on each strip's core
        poles = [
            (phi_u[:, owner == pos], lam[owner == pos], phi[lo:hi, owner == pos])
            for pos, (lo, hi) in enumerate(zip(self.bounds[:-1], self.bounds[1:]))
        ]
        q = np.zeros((len(mu), len(d), len(d)))
        for (pos, i, s, weight), (_, g) in zip(lanes, cores):
            pu, vals, _ = poles[pos]
            q[i] += weight * (rows[pos].T @ g @ rows[pos] - (pu / (vals - s)) @ pu.T)

        b = np.linalg.solve(np.diag(1.0 / d) + q, phi_u[:, roots])   # (D^-1 + Q_i)^-1 Phi_U for each root i
        # T(mu_i) - mu_i on the pairs of ``roots``, exact near its root
        tmat = (lam[roots] - mu[:, None])[:, None] * np.eye(len(roots)) + phi_u[:, roots].T @ b
        evals, evecs = np.linalg.eigh(0.5 * (tmat + tmat.swapaxes(1, 2)))
        picks = np.arange(len(roots))
        a = evecs[picks, :, picks].T
        c = np.einsum("irk,ki->ri", b, a)

        # (A_j - s)^-1 U c: the core, then each side's tail
        core = [g @ (rows[pos] @ c[:, i]) for (pos, i, _, _), (_, g) in zip(lanes, cores)]
        y = np.zeros((2 * len(lanes), 6))
        for n, (cell, vec) in enumerate(zip(cells, core)):
            p = cell.per_cell
            y[2 * n, :p], y[2 * n + 1, :p] = vec[-p:], vec[:p]
        steps = tail(y).reshape(-1, len(lanes), 2, 6)
        perp = np.zeros((self.bounds[-1], len(mu)))
        for n, ((pos, i, s, weight), cell, vec) in enumerate(zip(lanes, cells, core)):
            p, (pu, vals, vecs) = cell.per_cell, poles[pos]
            strip = np.concatenate([steps[::-1, n, 1, :p].ravel(), vec, steps[:, n, 0, :p].ravel()])
            perp[self.bounds[pos] : self.bounds[pos + 1], i] -= weight * (strip - vecs @ ((pu.T @ c[:, i]) / (vals - s)))
        return evals[picks, picks], a, perp

    def _residual(self, z, vals, u, d, bound: float) -> float:
        """Largest ||(K - w) z|| of the unit momentum-coordinate columns ``z`` with eigenvalues ``vals``, from the strips and (U, D) without K.

        Held to ``RESIDUAL_RTOL`` times ``bound`` >= ||K|| (`_residual_gate`).
        """
        kz = -z * vals
        for blk, lo, hi in zip(self.blocks, self.bounds[:-1], self.bounds[1:]):
            if z[lo:hi].any():
                kz[lo:hi] += blk.cells.times(self.t, z[lo:hi])
        kz[self.core] += u @ (d[:, None] * (u.T @ z[self.core]))
        return _residual_gate(np.linalg.norm(kz, axis=0), vals, bound, " of the secular equation", "")


def sector_pair(
    strips: MomentumStrips,
    w: PerturbationW,
    L: int,
    parity: int,
    lam_ref: float,
    d_zig: float,
    start: int,
    cap: int,
    bound_perturbed: bool,
) -> tuple:
    """The unperturbed and the perturbed sector of (L, parity), in order, certified to ``MOVE_TOL`` on one strip width.

    This is the one width loop of the sectors.  At each width one
    `_BlochSector` on the momentum strips of ``strips`` serves both: the
    unperturbed sector is its `unperturbed_pairs` and the perturbed one its
    `perturbed_pairs`, except for a defect that spans the whole window (the
    line defect): it has no low-rank form, so its sector is assembled
    (`assembled_solve`).  Each solve gives all the in-gap eigenvalues of
    its width-t sector, their full-space vectors and a bound on their
    residuals, and each sector has its `_column_coupling` h.

    The width starts at ``start`` cells per side.  At each width the
    perturbed sector is solved only once the `_certificate` eps of the
    pairs the edge filter keeps in the unperturbed one is at most
    ``MOVE_TOL``: each kept eigenvalue then lies within eps of one of the
    infinite strip.  When a sector fails, the width grows by the step that
    its fitted decay rate r predicts to reach ``MOVE_TOL``,
    ln(eps / MOVE_TOL) / -ln r rounded up to a multiple of 8, and it
    doubles while the sector keeps no pair (or r is not below 1).  At
    ``cap`` both sectors are solved, and ``t_converged`` is False for one
    whose certificate still fails.  Once a sector's width is final, and
    before the next sector is solved, it raises ``GapCollapse`` when it
    shows no isolated in-gap eigenvalue, or when its tracked pair, the one
    nearest ``lam_ref``, lies ``d_zig``/2 or more from it; the perturbed
    sector is held to that only if ``bound_perturbed``.
    """
    hs = (_column_coupling(strips.iface, None), _column_coupling(strips.iface, w))
    d_zigs = (d_zig, d_zig if bound_perturbed else None)

    def attempt(t):
        sector = _BlochSector(strips, L, t, parity)
        solves = (
            sector.unperturbed_pairs,
            lambda: sector.perturbed_pairs(w) if w.compact else assembled_solve(strips.iface, w, L, parity, strips.gap, t),
        )
        sectors = []
        for solve, h, bound in zip(solves, hs, d_zigs):
            wr, vectors, resid = solve()
            kept = _edge_filtered(wr, vectors, np.repeat(np.arange(-t, t + 1), L), strips.gap, max(4, t // 8))
            following, eps = 2 * t, float("inf")
            if kept:
                vecs = np.column_stack([vec for _, vec, _ in kept])
                eps, rate = _certificate(vecs, resid, h, L, t)
                if eps <= MOVE_TOL:
                    following = None
                elif rate < 1.0:
                    step = ceil(np.log(eps / MOVE_TOL) / -np.log(rate))
                    following = t + 8 * ceil(step / 8)
            if following is not None and t < cap:
                return following, None
            if not kept:
                raise GapCollapse(f"no isolated in-gap eigenvalue in parity {parity} sector")
            vals = np.array([val for val, _, _ in kept])
            tracked = int(np.argmin(np.abs(vals - lam_ref)))
            if bound is not None and abs(vals[tracked] - lam_ref) >= 0.5 * bound:
                raise GapCollapse(f"tracked eigenvalue {vals[tracked]:.8f} drifted beyond d_zig/2 of {lam_ref:.8f}")
            sectors.append(StripSector(L, t, following is None, eps, len(wr), vals, vecs, tracked))
        return None, tuple(sectors)

    return green._grow_until(start, cap, attempt)[0]


# ---------------------------------------------------------------------------
# Far-field persistence


def farfield_persistence(
    sector_pert: StripSector,
    sector_unpert: StripSector,
) -> dict:
    """Overlap of perturbed and unperturbed modes beyond ``EXCLUSION_RADIUS`` of the defect.

    Returns the normalized far-field overlap after optimal global phase
    alignment and the windowed l2 profile of the difference versus distance
    from the defect center.  Both sectors come from one `sector_pair` call,
    so they share the window (L, t_used).
    """
    L, t = sector_pert.L, sector_pert.t_used
    u1 = sector_pert.tracked_vector
    u0 = sector_unpert.tracked_vector
    u0 = u0 / np.linalg.norm(u0)
    u1 = u1 / np.linalg.norm(u1)
    phase = np.vdot(u0, u1)
    u1 = u1 * np.exp(-1j * np.angle(phase)) if abs(phase) > 0 else u1

    n1, n2 = _site_cells(L, t, np.arange(len(u0) // 6))
    radii = _cell_norm(n1, n2)
    mask = np.repeat(radii > EXCLUSION_RADIUS, 6)
    a, b = u0[mask], u1[mask]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    overlap = float(abs(np.vdot(a, b)) / (na * nb)) if na > 0 and nb > 0 else 1.0

    diff = (u1 - u0).reshape(-1, 6)
    coords = np.abs(_ell2_coord(n1, n2))
    edges = np.arange(0.0, coords.max() + 2.0, 2.0)
    prof = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (coords >= lo) & (coords < hi)
        prof.append(float(np.linalg.norm(diff[sel])))
    return {
        "overlap_outside": overlap,
        "difference_norm": float(np.linalg.norm(diff)),
        "difference_profile": prof,
    }


# ---------------------------------------------------------------------------
# Truncated strips at a parallel momentum: the oracles and the band curve


def strip_modes(strips: MomentumStrips, t: int, fracs: list, parities) -> list:
    """The in-gap (eigenvalue, part, centre) triples of the width-t strip at each of ``fracs`` that are not edge states.

    At k = 0 and pi the parts of ``parities`` are solved, elsewhere the whole
    strip, each (momentum, part) once.  The edge band of `_edge_filtered` is
    the outermost max(4, (2t + 1) // 10) columns a side.  One list per
    momentum, ascending.
    """
    solved = {(f, blk.part): blk for parity in parities for f, blk in zip(fracs, strips.blocks(t, fracs, parity))}
    cols, edge = np.arange(-t, t + 1), max(4, (2 * t + 1) // 10) - 1
    modes = {f: [] for f in fracs}
    for (f, part), blk in solved.items():
        modes[f] += [(val, part, centre) for val, _, centre in _edge_filtered(*blk.pairs[:2], cols, strips.gap, edge)]
    return [sorted(modes[f]) for f in fracs]


def band_curve_momenta() -> tuple:
    """The kpar grid 2 pi j / 40 over [-pi, pi], and its distinct |kpar| mapped to their `_momenta` fractions.

    The hoppings are real, so the strip at -kpar is the complex conjugate of
    the one at kpar: each |kpar| is solved once for both signs, in the order
    the grid first reaches it.
    """
    kpars = np.linspace(-np.pi, np.pi, 41)
    return kpars, dict(zip(dict.fromkeys(abs(float(kp)) for kp in kpars), _momenta(40)[::-1]))


def assemble_band_curve(kpars: np.ndarray, solved: dict, gap: tuple) -> dict:
    """The in-gap branches on ``kpars`` from ``solved``, the samples keyed by |kpar|.

    Branches are matched between neighboring momenta by proximity; a matched
    jump larger than half the gap width raises ``BranchLost``.  The result
    reports per-momentum samples and the emptiness of the pi sectors.
    """
    samples = [list(solved[abs(float(kp))]) for kp in kpars]
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

"""The paper's claims that the tests check and no command computes.

Closed-form cone eigenpairs (criterion 2), flatness of the two-fold levels
(criterion 3), flux site independence (criterion 6), the small-coupling limits
of the matching matrices (criterion 7) and cross-checks of the strip machinery,
built from the package's own pieces.  Test modules ``import paper_checks``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from hexamer import green, kernels, lattice, spectra
from hexamer.errors import GapCollapse, ModelValidationError
from hexamer.green import _as_profile, energy_flux
from hexamer.kernels import HoppingKernel, perturbed_bulks
from hexamer.lattice import (
    EXTENDED_GENERATORS, TAU, _closure, _isotypic_projector, momentum_derivative_blocks,
    rep_rho_tilde,
)
from hexamer.matching import _auxiliary, _edge_filtered, _inertia, _ingap_eigsh, _matching
from hexamer.robust import (
    CORE_COLUMNS, PerturbationW, _defect_entries, _inverse, _reflection_image, assemble_band_curve,
    assemble_strip, parity_isometry,
)
from hexamer.spectra import EigenBundle, fix_gauge_v, locate_double_dirac, verify_gap_criterion


# ---------------------------------------------------------------------------
# The 4d-irrep projector, the first-order cone model (criterion 2) and the
# forward hopping


def rho_tilde_projector() -> np.ndarray:
    """Isotypic projector of the 4d irrep on C^6 (extended group of order 36)."""
    elems = _closure(
        ((), np.eye(6)),
        EXTENDED_GENERATORS,
        lambda f, g: (f[0] + (g[0],), f[1] @ g[1]),
        lambda item: item[1].tobytes(),
    )
    if len(elems) != 36:
        raise ModelValidationError(f"extended group closure has {len(elems)} elements")
    return _isotypic_projector(elems, rep_rho_tilde())


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral-norm distance between the orthogonal projectors onto the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return float(np.linalg.norm(qa @ qa.conj().T - qb @ qb.conj().T, 2))


def first_order_matrices(blocks: dict, basis: np.ndarray):
    """Reduced matrices H_j = [ (u_k, dH/dkappa_j(0) u_p) ] on an eigenbasis.

    ``basis`` holds the aligned eigenvectors as columns (4 for the cone
    quadruplet, 2 for a doubly degenerate level).  Hermiticity of each H_j is
    enforced to machine precision before returning.
    """
    blocks = getattr(blocks, "blocks", blocks)
    out = []
    for j in (0, 1):
        d = momentum_derivative_blocks(blocks, j)
        h = basis.conj().T @ d @ basis
        out.append(0.5 * (h + h.conj().T))
    return out[0], out[1]


def reduced_model_slopes(alpha_star: float, kappa) -> np.ndarray:
    """Eigenvalues +-|alpha*| |kappa1 + conj(tau)^2 kappa2| of the 4x4 model."""
    k1, k2 = kappa
    m = abs(alpha_star) * abs(k1 + TAU.conjugate() ** 2 * k2)
    return np.array([-m, -m, m, m])


def check_nonsingular_hopping(kernel: HoppingKernel):
    """Invertibility of the l2-summed forward hopping block (reported).

    Returns (is_nonsingular, condition_number); the block tested is
    ``sum_s K((1, s))``.
    """
    blk = sum(
        (b for (e1, e2), b in kernel.blocks.items() if e1 == 1),
        np.zeros((6, 6), dtype=complex),
    )
    svals = np.linalg.svd(blk, compute_uv=False)
    if svals[-1] < 1e-12 * max(svals[0], 1.0):
        return False, np.inf
    return True, float(svals[0] / svals[-1])


# ---------------------------------------------------------------------------
# Closed-form eigenpairs of the perturbed bulks (criterion 2)


def eigenpair_asymptotics_check(
    kb: HoppingKernel, kper: HoppingKernel, delta: float, kappa
) -> dict:
    """Residuals of the closed-form leading eigenpairs of both bulks.

    ``kappa`` is in radians.  Eigenvalue models are lam* -+ sqrt(beta^2
    delta^2 + |q|^2) with q = alpha*(k1 + conj(tau)^2 k2); eigenvector models
    are the stated u-combinations, compared as two-dimensional subspaces.
    """
    dd = locate_double_dirac(kb)
    beta1, _, kper_or = verify_gap_criterion(dd, kper)
    beta = abs(beta1)
    u = dd.ustar
    a = dd.alpha_star
    k1, k2 = kappa
    t2 = lattice.TAU**2
    q = (k1 + np.conj(t2) * k2) * a
    qb = (k1 + t2 * k2) * a
    s = np.sqrt(beta**2 * delta**2 + abs(q) ** 2)
    den = beta * delta + s

    models = {
        "plus": {
            "lower": np.column_stack([-(q / den) * u[:, 0] + u[:, 2],
                                      -(qb / den) * u[:, 1] + u[:, 3]]),
            "upper": np.column_stack([u[:, 1] + (q / den) * u[:, 3],
                                      u[:, 0] + (qb / den) * u[:, 2]]),
        },
        "minus": {
            "lower": np.column_stack([u[:, 0] - (qb / den) * u[:, 2],
                                      u[:, 1] - (q / den) * u[:, 3]]),
            "upper": np.column_stack([(qb / den) * u[:, 1] + u[:, 3],
                                      (q / den) * u[:, 0] + u[:, 2]]),
        },
    }

    plus, minus = perturbed_bulks(kb, kper_or, delta)
    out = {"lambda_star": dd.lambda_star, "s": float(s)}
    for tag, kernel in (("plus", plus), ("minus", minus)):
        w, v = np.linalg.eigh(kernel.bloch_rad(float(k1), float(k2)))
        order = np.argsort(np.abs(w - dd.lambda_star))
        cone = np.sort(order[:4])
        lower = [i for i in cone if w[i] <= dd.lambda_star]
        upper = [i for i in cone if w[i] > dd.lambda_star]
        ev_resid = max(
            abs(w[i] - (dd.lambda_star - s)) for i in lower
        ) if lower else np.nan
        ev_resid = max(ev_resid, max(abs(w[i] - (dd.lambda_star + s)) for i in upper))

        def subspace_gap(exact_cols, model):
            qe, _ = np.linalg.qr(exact_cols)
            qm, _ = np.linalg.qr(model)
            pe = qe @ qe.conj().T
            pm = qm @ qm.conj().T
            return float(np.linalg.norm(pe - pm, 2))

        out[tag] = {
            "eigenvalue_residual": float(ev_resid),
            "lower_subspace_residual": subspace_gap(v[:, lower], models[tag]["lower"]),
            "upper_subspace_residual": subspace_gap(v[:, upper], models[tag]["upper"]),
        }
    return out


# ---------------------------------------------------------------------------
# Analytic labeling along the kpar = 0 strip


@dataclass
class AnalyticBands:
    """Smoothly labeled strip bands mu_n(k1) and eigenvectors along k2 = 0.

    Branch order: (v1, v2, v3, v4) continuation of the cone quadruplet,
    then the remaining even and odd branches.
    """

    k1: np.ndarray
    mu: np.ndarray          # shape (n_k, 6)
    vectors: np.ndarray     # shape (n_k, 6, 6), columns are branches
    parities: tuple = (1, -1, 1, -1, 1, -1)


def _parity_basis() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal even/odd bases of C^6 under the internal x-reflection."""
    w, v = np.linalg.eigh(lattice.FX_INT)
    odd = v[:, np.isclose(w, -1.0)]
    even = v[:, np.isclose(w, 1.0)]
    return even, odd


def default_k1_grid(n: int = 2001, kmin: float = 1e-6) -> np.ndarray:
    """Symmetric grid on [-pi, pi], geometrically refined toward 0."""
    half = np.geomspace(kmin, np.pi, n // 2)
    return np.concatenate([-half[::-1], [0.0], half])


def analytic_label(kernel: HoppingKernel, k1_grid: np.ndarray | None = None) -> AnalyticBands:
    """Continue strip eigenpairs smoothly through the cone crossing.

    Within each x-reflection parity sector the branches are continued from
    k1 = 0 outward by maximal eigenvector overlap; the starting basis at 0
    is the analytic v-gauge, which splits the crossing correctly.
    """
    if k1_grid is None:
        k1_grid = default_k1_grid()
    k1_grid = np.asarray(k1_grid, dtype=float)
    if not np.allclose(k1_grid, -k1_grid[::-1], atol=1e-15):
        raise AssertionError("k1 grid must be symmetric about 0")

    dd = locate_double_dirac(kernel)
    vg = fix_gauge_v(dd)
    bundle = EigenBundle.of(kernel.bloch_rad(0.0, 0.0))
    rest_idx = [c for c in bundle.clusters if abs(bundle.eigenvalues[c[0]] - dd.lambda_star) > 1e-8]
    rest = np.column_stack([bundle.eigenvectors[:, c] for c in rest_idx])
    # classify remaining branches by parity
    par_rest = []
    for j in range(rest.shape[1]):
        p = float(np.real(rest[:, j].conj() @ (lattice.FX_INT @ rest[:, j])))
        par_rest.append(1 if p > 0 else -1)
    order = [i for i, p in enumerate(par_rest) if p == 1] + [
        i for i, p in enumerate(par_rest) if p == -1
    ]
    rest = rest[:, order]

    start = np.column_stack([vg.vectors, rest])  # v1 v2 v3 v4, even rest, odd rest
    parities = (1, -1, 1, -1, 1, -1)
    n_k = len(k1_grid)
    mu = np.zeros((n_k, 6))
    vecs = np.zeros((n_k, 6, 6), dtype=complex)
    i0 = int(np.argmin(np.abs(k1_grid)))
    rest_vals = np.concatenate([bundle.eigenvalues[c] for c in rest_idx])[order]   # in the order of ``rest``
    mu[i0] = np.concatenate([[dd.lambda_star] * 4, rest_vals])
    vecs[i0] = start

    even_b, odd_b = _parity_basis()
    sector_cols = {1: [0, 2, 4], -1: [1, 3, 5]}

    def march(direction: int):
        prev = {1: None, -1: None}
        for p in (1, -1):
            basis = even_b if p == 1 else odd_b
            prev[p] = basis.conj().T @ start[:, sector_cols[p]]
        i = i0 + direction
        while 0 <= i < n_k:
            h = kernel.bloch_rad(k1_grid[i], 0.0)
            for p in (1, -1):
                basis = even_b if p == 1 else odd_b
                hp = basis.conj().T @ h @ basis
                w, v = np.linalg.eigh(hp)
                ov = np.abs(prev[p].conj().T @ v)  # rows: branches, cols: new states
                cols = []
                for r in range(3):
                    ranked = np.argsort(ov[r])[::-1]
                    best, second = ov[r, ranked[0]], ov[r, ranked[1]]
                    if best - second < 1e-6 and abs(k1_grid[i]) > 1e-9:
                        raise AssertionError(
                            f"branch overlap tie at k1 = {k1_grid[i]:.6e}"
                        )
                    pick = next(c for c in ranked if c not in cols)
                    cols.append(pick)
                newv = v[:, cols]
                # align phases to the previous step for smooth vectors
                ph = np.exp(-1j * np.angle(np.sum(prev[p].conj() * newv, axis=0)))
                newv = newv * ph
                for slot, c in zip(sector_cols[p], range(3)):
                    mu[i, slot] = w[cols[c]]
                    vecs[i, :, slot] = basis @ newv[:, c]
                prev[p] = newv
            i += direction

    march(+1)
    march(-1)
    return AnalyticBands(k1_grid, mu, vecs, parities)


# ---------------------------------------------------------------------------
# Local flatness of doubly degenerate levels (criterion 3)


def two_fold_flatness(kernel: HoppingKernel) -> list[dict]:
    """First-order 2x2 matrices of every rho1/rho2 doublet at Gamma.

    For a C6v-symmetric kernel each genuinely two-fold level must have
    vanishing first-order dispersion; the report carries the matrix norms.
    """
    bundle = EigenBundle.of(kernel.bloch_rad(0.0, 0.0))
    projs = lattice.c6v_isotypic_projectors()
    out = []
    for cluster in bundle.cluster_of_size(2):
        basis = bundle.eigenvectors[:, cluster]
        d1 = lattice.isotypic_dimension(projs["E1"], basis)
        d2 = lattice.isotypic_dimension(projs["E2"], basis)
        irrep = "rho1" if d1 > 1.5 else ("rho2" if d2 > 1.5 else None)
        if irrep is None:
            continue
        h1, h2 = first_order_matrices(kernel.blocks, basis)
        out.append(
            {
                "eigenvalue": float(bundle.eigenvalues[cluster[0]]),
                "irrep": irrep,
                "h1_norm": float(np.linalg.norm(h1, 2)),
                "h2_norm": float(np.linalg.norm(h2, 2)),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Discrete energy flux (criterion 6)


def flux_site_independence(strip, phi, psi, sites) -> float:
    """Max deviation of the flux over the given sites from its value at the first."""
    base = energy_flux(strip, phi, psi, sites[0])
    return max(abs(energy_flux(strip, phi, psi, n) - base) for n in sites)


def gap_blocks(strip, lam, offsets, levels: int = 14, order: int = 16):
    """The resolvent blocks G(d) of a bulk strip at one in-gap energy, and their quadrature error.

    The blocks are `green._gl_quadrature`'s at ``levels``; the error is their
    largest change from ``levels - 2``.
    """
    fine = green._gl_quadrature(strip, [lam], offsets, levels, order, 1)
    coarse = green._gl_quadrature(strip, [lam], offsets, levels - 2, order, 1)
    return {d: g[0] for d, g in fine.items()}, max(np.abs(fine[d] - coarse[d]).max() for d in offsets)


def green_identity_residual(strip, lam, phi_i, phi_j, k: int, p: int) -> float:
    """Residual of the discrete Gauss-Green summation identity on [k, k+p]."""
    phi_i, phi_j = _as_profile(phi_i), _as_profile(phi_j)

    def f(prof, n):
        return (
            strip.block(n, n - 1) @ prof(n - 1)
            + (strip.block(n, n) - lam * np.eye(strip.blockdim)) @ prof(n)
            + strip.block(n, n + 1) @ prof(n + 1)
        )

    lhs = 0.0 + 0.0j
    for m in range(k, k + p + 1):
        lhs += phi_j(m).conj() @ f(phi_i, m) - f(phi_j, m).conj() @ phi_i(m)
    rhs = energy_flux(strip, phi_i, phi_j, k) - energy_flux(strip, phi_i, phi_j, k + p + 1)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Small-coupling limits of the matching matrices (criterion 7)


@dataclass
class LimitPieces:
    """delta -> 0 limit data of the matching matrices."""

    m_pv: np.ndarray
    a_proj: np.ndarray
    aaux2: np.ndarray
    maux_pv: np.ndarray
    alpha_star: float
    beta_star: float
    kernel_vectors: np.ndarray  # columns (w_k, w_k), k = 1..4

    def xi(self, h: float) -> float:
        return h / (abs(self.alpha_star) * np.sqrt(self.beta_star**2 - h**2))

    def eta(self, h: float) -> float:
        return self.beta_star / (abs(self.alpha_star) * np.sqrt(self.beta_star**2 - h**2))


def limit_pieces(
    kb: kernels.HoppingKernel,
    dirac: spectra.DiracData,
    vgauge: spectra.VGauge,
    beta_star: float,
    levels: int = 14,
    order: int = 16,
) -> LimitPieces:
    """Limit matrices M^pv, A, A^aux2 and the scalar profiles."""
    strip = kernels.BlockedStripOperator(kb)
    g = green.physical_green_pv(strip, dirac, vgauge, (-1, 0, 1), levels, order).blocks
    hops = (strip.block(0, -1), strip.block(-1, 0)) * 3  # the same bulk on both sides
    w = vgauge.vectors
    kvecs = np.vstack([w, w])
    u = np.vstack([hops[0] @ w, -hops[1] @ w])  # columns (H(0, -1) w_k, -H(-1, 0) w_k)
    # A^aux2 = 1/2 sum_k s(k) (w_k, w_k) u_p(k)^H, s(k) = +1 for even k, p = (13)(24)
    aaux2 = 0.5 * (kvecs * [-1.0, 1.0, -1.0, 1.0]) @ u[:, [2, 3, 0, 1]].conj().T
    return LimitPieces(
        _matching(hops, g, g), -u @ u.conj().T, aaux2, _auxiliary(hops, g, g),
        dirac.alpha_star, beta_star, kvecs,
    )


# ---------------------------------------------------------------------------
# Truncated and periodized strips: the direct oracle on the complex strip at a
# momentum, the sparse real momentum strip, reflection, full-strip spectrum,
# band curve, Neumann series


NEUMANN_TOL = 1e-10     # neumann_mode_check stops at a series increment below this
NEUMANN_MAX_TERMS = 60  # ... or after this many terms


def reflection_permutation(L: int, t: int) -> sp.csr_matrix:
    """The reflection P on the width-t L-strip as a permutation matrix."""
    idx = np.arange(6 * L * (2 * t + 1))
    return sp.csr_matrix(
        (np.ones(len(idx)), (idx, _reflection_image(L, t, idx))), shape=(len(idx), len(idx))
    )


def ingap_pairs(mat, gap: tuple):
    """`_ingap_eigsh` of ``mat`` with the in-gap count of its inertia at both gap edges."""
    return _ingap_eigsh(mat, gap, _inertia(mat, gap[1]) - _inertia(mat, gap[0]))


def sector_matrix(sector, defect) -> sp.csr_matrix:
    """The perturbed sector K = blockdiag(S^H H_k S) + U D U^T of a `robust._BlochSector`, assembled: the reference K.

    ``defect`` is (U, D) from `_BlochSector.defect`; U D U^T is one dense
    block on the rows where U is nonzero.
    """
    u, d = defect
    live = np.flatnonzero(u.any(axis=1))
    rows = sector.core[live]
    core = (u[live] * d) @ u[live].T
    core = 0.5 * (core + core.T)
    mi, mj = np.meshgrid(rows, rows, indexing="ij")
    n = sector.bounds[-1]
    k = sp.block_diag([blk.mat for blk in sector.blocks], format="csr")
    return (k + sp.csr_matrix((core.ravel(), (mi.ravel(), mj.ravel())), shape=(n, n))).tocsr()


def full_strip_ingap(iface, L, t, gap):
    """In-gap eigenvalues of the full (unreduced) L-strip, edge-filtered."""
    w, v, _ = ingap_pairs(assemble_strip(iface, L, t, None), gap)
    n1s = np.repeat(np.arange(-t, t + 1), L)
    return [val for val, _, _ in _edge_filtered(w, v, n1s, gap, max(4, t // 8))]


def direct_oracle(
    iface: kernels.InterfaceKernel,
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
    w, v, _ = ingap_pairs(kernels.BlockedStripOperator(iface, kpar).csr(half), gap)
    # the edge band is the outermost max(4, nb // 10) columns on each side
    edge = max(4, (2 * half + 1) // 10) - 1
    kept = []
    for val, vec, center in _edge_filtered(w, v, np.arange(-half, half + 1), gap, edge):
        blocks = vec.reshape(-1, 6)
        even = kpar == 0.0 and np.vdot(blocks, blocks @ lattice.FX_INT.T).real > 0
        parity = 0 if kpar != 0.0 else 1 if even else -1
        kept.append((val, parity, center))
    return kept


def band_curve_samples(iface: kernels.InterfaceKernel, gap: tuple, momenta, n_blocks: int) -> list:
    """The sorted in-gap eigenvalues of the interface strip at each of ``momenta``, in order."""
    return [
        sorted(v for v, _, _ in direct_oracle(iface, gap, n_blocks, kpar=k))
        for k in momenta
    ]


def interface_band_curve(
    iface: kernels.InterfaceKernel,
    gap: tuple,
    kpars: np.ndarray,
    n_blocks: int = 240,
) -> dict:
    """Track the in-gap eigenvalue branches of the interface strip in kpar.

    Solves each distinct |kpar| once (`band_curve_samples`), for both signs,
    and matches the branches (`assemble_band_curve`).
    """
    kpars = np.asarray(kpars)
    momenta = list(dict.fromkeys(abs(float(kp)) for kp in kpars))
    samples = band_curve_samples(iface, gap, momenta, n_blocks)
    return assemble_band_curve(kpars, dict(zip(momenta, samples)), gap)


def sector_isometry(t: int, frac: tuple, parity: int) -> sp.csr_matrix:
    """Orthonormal basis S of the strip at k = 2 pi frac[0] / frac[1] in which S^H H_k S is real.

    Per cell n1 and Fx pair (a, b) the columns exp(i k n1 / 2) (e_a + e_b) / sqrt(2)
    and i exp(i k n1 / 2) (e_a - e_b) / sqrt(2) are fixed by x -> M conj(x),
    M = diag(exp(i k n1)) FX, a symmetry of H_k as the hoppings are real.  At
    k = 0 and pi the columns are real and span the part where R_k = parity.
    """
    n1 = np.arange(-t, t + 1)
    rows_a = (6 * (n1 + t)[:, None] + np.array([0, 1, 2])).ravel()
    rows_b = (6 * (n1 + t)[:, None] + lattice.FX_PERM[:3]).ravel()
    if frac[1] <= 2:
        cols = np.arange(3 * len(n1))
        vals_a = np.ones(len(cols))
        vals_b = np.repeat(parity * (-1.0) ** (np.abs(n1) * frac[0]), 3)   # parity * exp(-i k n1)
    else:
        phase = np.repeat(np.exp(1j * np.pi * frac[0] / frac[1] * n1), 3)   # exp(i k n1 / 2)
        cols = np.concatenate([rows_a, rows_a + 3])
        rows_a, rows_b = np.tile(rows_a, 2), np.tile(rows_b, 2)
        vals_a = np.concatenate([phase, 1j * phase])
        vals_b = np.concatenate([phase, -1j * phase])
    return sp.coo_matrix(
        (np.concatenate([vals_a, vals_b]) / np.sqrt(2.0),
         (np.concatenate([rows_a, rows_b]), np.concatenate([cols, cols]))),
        shape=(6 * len(n1), len(cols)),
    ).tocsr()


def real_strip(iface: kernels.InterfaceKernel, t: int, frac: tuple, q: sp.csr_matrix) -> sp.csr_matrix:
    """S^H H_k S: the width-t strip H_k at k = 2 pi frac[0] / frac[1] in the basis S = ``q`` of `sector_isometry`.

    Raises ``ModelValidationError`` when its imaginary part is more than rounding.
    """
    strip = kernels.BlockedStripOperator(iface, 2.0 * np.pi * frac[0] / frac[1]).csr(t)
    mat = (q.getH().tocsr() @ strip @ q).tocsr()
    mat.sort_indices()
    if abs(mat.imag).max() > 1e-12 * abs(mat).max():
        raise ModelValidationError(f"the momentum strip at k = 2 pi {frac[0]}/{frac[1]} is not real")
    return mat.real


def sequential_schur_lanes(lanes, t: int, count: bool):
    """`robust._schur_lanes` by the column-by-column half-strip recursion: the reference of its doubling.

    From the Dirichlet end j = t inward, with S_{t+1}^-1 = 0 and ``diag``
    shifted by s,
        S_j = diag[j % 2] - out[j % 2] S_{j+1}^-1 out[j % 2]^T,
    both sides of all the lanes as one batch; nu adds the nu(S_j) of both
    tails to that of the core block, and ``tail(y)`` steps outward from the
    core's outer columns y by y_j = -S_j^-1 out[(j - 1) % 2]^T y_{j-1}.
    """
    diag = np.stack([c.diag[side] - s * c.eye for c, s, _ in lanes for side in (0, 1)])
    out = np.stack([c.out[side] for c, _, _ in lanes for side in (0, 1)])
    inverse, kept = np.zeros_like(diag[:, 0]), []
    below = np.zeros(2 * len(lanes), dtype=int)
    for j in range(t, CORE_COLUMNS, -1):
        b = out[:, j % 2]
        inverse, nu = _inverse(diag[:, j % 2] - b @ inverse @ b.swapaxes(1, 2), count, lambda i: f"column {j}")
        kept.append(inverse)
        if count:
            below += nu
    coupling = out[:, CORE_COLUMNS % 2]
    tails = (coupling @ inverse @ coupling.swapaxes(1, 2)).reshape(len(lanes), 2, 6, 6)
    cores = []
    for (cells, s, _), tail, tail_below in zip(lanes, tails, below.reshape(-1, 2).sum(axis=1)):
        g, nu = _inverse(cells.core_block(t, s, tail), count, lambda _: "core block")
        cores.append((int(nu + tail_below) if count else None, g))

    def tail(y):
        y, steps = y[..., None], []
        for j in range(CORE_COLUMNS + 1, t + 1):
            y = -(kept[t - j] @ (out[:, (j - 1) % 2].swapaxes(1, 2) @ y))
            steps.append(y[..., 0])
        return np.array(steps).reshape(-1, *y.shape[:-1])

    return cores, tail


def neumann_mode_check(
    iface, w: PerturbationW, L: int, parity: int, gap: tuple, lam_ref: float,
    t: int = 40,
) -> dict:
    """Perturbed sector mode via the reduced-resolvent series versus direct solve.

    Dense eigendecomposition of the unperturbed sector operator supplies the
    exact reduced resolvent; the series is summed until increments fall
    below ``NEUMANN_TOL``.  The unperturbed level is the in-gap sector eigenvalue
    nearest ``lam_ref`` (the interface-mode eigenvalue of this parity); the
    perturbed pair nearest it comes from one shift-invert solve.
    """
    q = parity_isometry(L, t, parity)
    ri, ci, vv = _defect_entries(w, L, t)
    wfull = sp.csr_matrix((vv, (ri, ci)), shape=(q.shape[0],) * 2)
    h0 = (q.getH() @ assemble_strip(iface, L, t, None) @ q).toarray()
    wmat = (q.getH() @ wfull @ q).toarray()
    hw = h0 + wmat

    evals, evecs = np.linalg.eigh(h0)
    ingap = np.flatnonzero((gap[0] < evals) & (evals < gap[1]))
    if len(ingap) == 0:
        raise GapCollapse("no unperturbed in-gap sector eigenvalue")
    i0 = ingap[np.argmin(np.abs(evals[ingap] - lam_ref))]
    lam0 = evals[i0]
    u0 = evecs[:, i0]

    wpert, vpert = sp.linalg.eigsh(hw, k=1, sigma=lam0, v0=np.ones(len(hw)))
    lam_w, u_direct = wpert[0], vpert[:, 0]

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
    for n_terms in range(2, NEUMANN_MAX_TERMS + 2):
        term = -qinv(wmat @ term - dl * term)
        series -= term
        if np.linalg.norm(term) < NEUMANN_TOL:
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

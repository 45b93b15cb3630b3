"""Resolvent kernels of bulk strip operators and the discrete energy flux.

The momentum integral of the resolvent is computed by composite Gauss-
Legendre panels on a dyadic subdivision of [-pi, pi] refined toward 0 (the
integrand near-singularity sits at momentum ~ delta), for block offsets
|d| <= 8; beyond that the panels would have to track the phase
exp(i*kappa*d).  Longer in-gap profiles need no quadrature: the resolvent of
a block-tridiagonal strip obeys G(d) = X^d G(0) and G(-d) = Y^d G(0) for
d >= 0, with X = G(1) G(0)^-1 and Y = G(-1) G(0)^-1.

Everything on the panel route that does not depend on the energy is computed
once per bulk strip and kept in ``strip.spectral_cache``: the band edges and,
for each (levels, order), the nodes, the weights and the eigenvalues eps_kj
and projectors P_kj = v_kj v_kj^H of the Bloch matrices at the nodes.  An
in-gap resolvent and its energy derivative (p = 1, 2) are then the sums

    d^(p-1)/dlam^(p-1) G(d) = sum_{k,j} w_k exp(i kappa_k d) / (2 pi (eps_kj - lam)^p) P_kj,

with no inverse per energy.  The strip blocks are real (kpar = 0; others are
refused), so H(-kappa) = conj H(kappa): the mirror node -kappa adds conj P,
and the pair gives 2 Re(exp(i kappa d) P).  So over the nodes kappa > 0 alone,
with c = w / (pi (eps - lam)^p), R_d = sum c cos(kappa d) Re P (symmetric) and
A_d = sum c sin(kappa d) Im P (antisymmetric), G(d) = R_d - A_d and
G(-d) = R_d + A_d = G(d)^T: real blocks from half the nodes and offsets.

At the degenerate energy the principal value is computed by subtracting the
exact singular model (cone modes over their exact slopes), whose symmetric
principal value vanishes.  That route keeps the per-node inverse: at lambda*
the cone denominators eps_kj - lam vanish as kappa -> 0, and a spectral sum
there drifted by about 1e-9 relative from the inverse, while the outputs of
``green-check`` must not move.  It is a one-shot computation, so nothing is
cached for it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GaugeMissing
from .kernels import BlockedStripOperator
from .spectra import DiracData, VGauge


def dyadic_panels(levels: int = 14) -> list[tuple[float, float]]:
    """Symmetric dyadic subdivision of [-pi, pi] refined toward 0."""
    edges = [np.pi * 2.0 ** (-j) for j in range(levels)]
    out = []
    for a, b in zip(edges[1:], edges[:-1]):
        out.append((a, b))
        out.append((-b, -a))
    out.append((0.0, edges[-1]))
    out.append((-edges[-1], 0.0))
    return out


@dataclass
class GreenKernel:
    """Translation-covariant resolvent blocks of a bulk strip operator."""

    energy: float
    blocks: dict = field(repr=False)
    blockdim: int
    quad_error: float
    levels: int
    order: int


def _golden(f, a, b):
    """Golden-section minimisers of f on the brackets [a, b], arrays of lanes.

    ``f`` maps one point per lane to its values; a lane stops once its bracket is at most 1e-12.
    """
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while (live := np.abs(b - a) > 1e-12).any():
        left = live & (fc < fd)     # keep [a, d], probe a new c
        right = live & ~(fc < fd)   # keep [c, b], probe a new d
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        x = np.where(left, b - gr * (b - a), a + gr * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
    return 0.5 * (a + b)


def band_edges(strip: BlockedStripOperator):
    """Per-band minima and maxima (lo, hi) of the strip spectrum over kappa.

    Computed once per strip: the extremes over 512 equispaced momenta are
    polished by a golden-section search over the two sample intervals around
    each, so an extremum between samples is not missed; the searches run as lanes of one loop.
    """
    if "edges" not in strip.spectral_cache:
        kaps = np.linspace(-np.pi, np.pi, 512, endpoint=False)
        step = kaps[1] - kaps[0]
        w = np.linalg.eigvalsh(strip.bloch_batch(kaps))
        nb = w.shape[1]
        f = np.hstack([w, -w])   # minima, then maxima as minima of -w
        sign = np.repeat([1.0, -1.0], nb)
        lane, band = np.arange(2 * nb), np.tile(np.arange(nb), 2)
        lanes = lambda ks: sign * np.linalg.eigvalsh(strip.bloch(ks[:, None, None]))[lane, band]
        centre = kaps[f.argmin(axis=0)]
        best = np.minimum(f.min(axis=0), lanes(_golden(lanes, centre - step, centre + step)))
        strip.spectral_cache["edges"] = (best[:nb], -best[nb:])
    return strip.spectral_cache["edges"]


def _band_distance(strip: BlockedStripOperator, lo: float, hi: float | None = None) -> float:
    """Distance from the energy interval [lo, hi] (default: the point lo) to the strip spectrum."""
    band_lo, band_hi = band_edges(strip)
    hi = lo if hi is None else hi
    dist = np.maximum(np.maximum(band_lo - hi, lo - band_hi), 0.0)
    return float(dist.min())


def _gl_nodes(levels, order):
    x, wq = leggauss(order)
    ks, ws = [], []
    for a, b in dyadic_panels(levels):
        km, kr = 0.5 * (a + b), 0.5 * (b - a)
        ks.append(km + kr * x)
        ws.append(kr * wq)
    return np.concatenate(ks), np.concatenate(ws)


def _spectral_nodes(strip, levels, order):
    """Cached nodes kappa > 0, weights w / pi, Bloch eigenvalues, Re P and Im P.

    Each -kappa node is folded into its mirror (see the module docstring);
    Re P and Im P have rows (node, band) and 36 real columns.
    """
    key = ("gl", levels, order)
    if key not in strip.spectral_cache:
        if any(strip.block(0, d).imag.any() for d in (-1, 0, 1)):
            raise ValueError("the folded quadrature needs real strip blocks (kpar = 0)")
        ks, ws = _gl_nodes(levels, order)
        m = np.argsort(ks)  # the panels mirror bit for bit about 0, and no node lies at 0
        assert np.array_equal(ks[m], -ks[m][::-1]) and np.array_equal(ws[m], ws[m][::-1])
        assert ks.all()
        ks, ws = ks[ks > 0], ws[ks > 0]
        eps, v = np.linalg.eigh(strip.bloch_batch(ks))
        proj = np.einsum("kaj,kbj->kjab", v, v.conj()).reshape(eps.size, -1)
        strip.spectral_cache[key] = (ks, ws[:, None] / np.pi, eps, proj.real.copy(), proj.imag.copy())
    return strip.spectral_cache[key]


def _gl_quadrature(strip, lams, offsets, levels, order, power=1):
    """Real blocks {d: (len(lams), 6, 6) array} of G(d) (``power`` 1) or dG(d)/dlam (2).

    G(d) = R_d - A_d and G(-d) = R_d + A_d (module docstring).  Per chunk of 32
    energies one real product gives every R_d, and one every A_d, d > 0.
    """
    ks, ws, eps, re_p, im_p = _spectral_nodes(strip, levels, order)
    lams = np.asarray(lams, dtype=float)
    mags = np.array(sorted({abs(d) for d in offsets}))
    odd = mags > 0
    parts = ((np.cos(np.outer(mags, ks)), re_p, mags >= 0), (np.sin(np.outer(mags[odd], ks)), im_p, odd))
    out = np.zeros((2, len(mags), len(lams), strip.blockdim, strip.blockdim))
    for s in range(0, len(lams), 32):
        w = ws / (eps - lams[s : s + 32, None, None]) ** power
        for o, (trig, proj, rows) in zip(out, parts):
            prod = (trig[:, None, :, None] * w).reshape(-1, proj.shape[0]) @ proj
            o[rows, s : s + 32] = prod.reshape(len(trig), len(w), *o.shape[2:])
    r, a = (dict(zip(mags, x)) for x in out)
    return {d: r[abs(d)] - np.sign(d) * a[abs(d)] for d in offsets}


def _pv_quadrature(strip, lam, offsets, levels, order, subtract):
    """Per-node inverse quadrature with the phase-free singular model removed."""
    ks, ws = _gl_nodes(levels, order)
    dim = strip.blockdim
    rs = np.linalg.inv(strip.bloch_batch(ks) - lam * np.eye(dim))
    rs = 0.5 * (rs + rs.conj().swapaxes(-1, -2))  # Hermitian at real in-gap energy
    out = {}
    for d in offsets:
        integrand = np.exp(1j * ks * d)[:, None, None] * rs
        # phase-free singular model; its symmetric p.v. is exactly zero
        integrand = integrand - subtract[None, :, :] / ks[:, None, None]
        out[d] = np.tensordot(ws, integrand, axes=(0, 0)) / (2.0 * np.pi)
    return out


def _grow_until(start: int, cap: int, attempt):
    """Run ``attempt(n)`` from n = ``start`` until it is done or n has reached ``cap``.

    ``attempt`` returns ``(following, result)``: ``following`` is None when
    the attempt is done, else the next n to try, held to ``cap``.  Returns
    ``(result, n, converged)`` of the last attempt, where ``converged`` says
    whether it was done.
    """
    n = start
    while True:
        following, result = attempt(n)
        if following is None or n >= cap:
            return result, n, following is None
        n = min(following, cap)


def physical_green_pv(
    strip: BlockedStripOperator,
    dirac: DiracData,
    vgauge: VGauge | None,
    offsets,
    levels: int = 14,
    order: int = 16,
) -> GreenKernel:
    """Principal-value Green blocks at the degenerate energy lambda*.

    The singular model sum_k w_k w_k^H / (mu_k'(0) kappa) is removed at every
    node; its symmetric principal value is exactly zero over the mirror-
    symmetric panel set, so what remains is the smooth part.
    """
    if vgauge is None:
        raise GaugeMissing("physical Green operator requires the fixed v-gauge")
    offsets = sorted(set(int(d) for d in offsets))
    w = vgauge.vectors
    sub = np.zeros((strip.blockdim, strip.blockdim), dtype=complex)
    for k in range(4):
        sub += np.outer(w[:, k], w[:, k].conj()) / vgauge.slopes[k]
    blocks = _pv_quadrature(strip, dirac.lambda_star, offsets, levels, order, sub)
    coarse = _pv_quadrature(strip, dirac.lambda_star, offsets, levels - 2, order, sub)
    err = max(np.abs(blocks[d] - coarse[d]).max() for d in offsets)
    return GreenKernel(dirac.lambda_star, blocks, strip.blockdim, err, levels, order)


def far_field_matrix(vgauge: VGauge, alpha_star: float) -> np.ndarray:
    """Limit matrix (i/2|a*|)(v1 v1^H + v2 v2^H - v3 v3^H - v4 v4^H)."""
    w = vgauge.vectors
    s = np.zeros((6, 6), dtype=complex)
    for k, sign in enumerate((1.0, 1.0, -1.0, -1.0)):
        s += sign * np.outer(w[:, k], w[:, k].conj())
    return 1j / (2.0 * abs(alpha_star)) * s


def far_field_report(green: GreenKernel, limit: np.ndarray) -> dict:
    """Exponential-decay fit of the far-field residuals on both sides, from the offsets +-2 outward."""
    out = {}
    for side, sgn in (("plus", 1), ("minus", -1)):
        ns, resid = [], []
        d = 2 * sgn
        while d in green.blocks:
            r = float(np.abs(green.blocks[d] - sgn * limit).max())
            ns.append(abs(d))
            resid.append(r)
            d += sgn
        resid = np.array(resid)
        floor = max(10.0 * green.quad_error, 1e-12)
        keep = resid > floor
        if keep.sum() >= 3:
            coeff = np.polyfit(np.array(ns)[keep], np.log(resid[keep]), 1)
            rate = float(np.exp(coeff[0]))
        else:
            rate = 0.0
        out[side] = {"offsets": ns, "residuals": resid.tolist(), "rate": rate}
    return out


# ---------------------------------------------------------------------------
# Discrete energy flux


def _as_profile(phi):
    if callable(phi):
        return phi
    return lambda n: phi  # constant block profile (Gamma Bloch mode)


def energy_flux(strip: BlockedStripOperator, phi, psi, n: int) -> complex:
    """Sesquilinear energy-flux form a(phi, psi; n) at block site n.

    ``phi`` and ``psi`` are block profiles: callables n -> C^6 or constant
    vectors.  The form is (H(n,n-1) phi(n-1), psi(n)) - (H(n-1,n) phi(n),
    psi(n-1)) with the inner product conjugate-linear in the second slot.
    """
    phi, psi = _as_profile(phi), _as_profile(psi)
    up = strip.block(n, n - 1) @ phi(n - 1)
    dn = strip.block(n - 1, n) @ phi(n)
    return complex(psi(n).conj() @ up - psi(n - 1).conj() @ dn)


def flux_matrix(strip: BlockedStripOperator, vectors: np.ndarray) -> np.ndarray:
    """Flux form at n = 0 evaluated pairwise on constant block profiles (columns)."""
    m = vectors.shape[1]
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            out[i, j] = energy_flux(strip, vectors[:, i], vectors[:, j], 0)
    return out

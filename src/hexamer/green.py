"""Resolvent kernels of bulk strip operators and the discrete energy flux.

Two quadrature routes are used for the momentum integral of the resolvent:

* composite Gauss-Legendre panels on a dyadic subdivision of [-pi, pi]
  refined toward 0, for small block offsets (the integrand near-singularity
  sits at momentum ~ delta);
* a uniform grid summed by FFT for long profiles, where panel quadrature
  would have to track the phase exp(i*kappa*d).

Everything on the panel route that does not depend on the energy is computed
once per bulk strip and kept in ``strip.spectral_cache``: the band edges and,
for each (levels, order), the nodes, the weights and the eigenpairs
(eps_kj, v_kj) of the Bloch matrices at the nodes.  An in-gap resolvent is
then the spectral sum

    G(d) = sum_{k,j} w_k exp(i kappa_k d) / (2 pi (eps_kj - lam)) v_kj v_kj^H,

one matrix product over all offsets, with no inverse per energy.

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

from .errors import EnergyInSpectrum, GaugeMissing
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
    blockdim: int = 6
    quad_error: float = np.nan
    levels: int = 0
    order: int = 0

    def block(self, n: int, m: int) -> np.ndarray:
        return self.blocks[n - m]


def _golden(f, a, b, tol=1e-12):
    """Golden-section minimiser of f on [a, b]."""
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def band_edges(strip: BlockedStripOperator):
    """Per-band minima and maxima (lo, hi) of the strip spectrum over kappa.

    Computed once per strip: the extremes over 512 equispaced momenta are
    polished by a golden-section search over the two sample intervals around
    each, so an extremum between samples is not missed.
    """
    if "edges" not in strip.spectral_cache:
        kaps = np.linspace(-np.pi, np.pi, 512, endpoint=False)
        step = kaps[1] - kaps[0]
        w = np.linalg.eigvalsh(strip.bloch_batch(kaps))
        edges = []
        for sign in (1.0, -1.0):  # minima, then maxima as minima of -w
            f = sign * w
            best = f.min(axis=0)
            for b, i in enumerate(f.argmin(axis=0)):
                band = lambda k: sign * np.linalg.eigvalsh(strip.bloch(k))[b]
                best[b] = min(best[b], band(_golden(band, kaps[i] - step, kaps[i] + step)))
            edges.append(sign * best)
        strip.spectral_cache["edges"] = tuple(edges)
    return strip.spectral_cache["edges"]


def _band_distance(strip: BlockedStripOperator, lam: float) -> float:
    """Distance from lam to the strip spectrum (union of band intervals)."""
    lo, hi = band_edges(strip)
    dist = np.maximum(np.maximum(lo - lam, lam - hi), 0.0)
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
    """Cached nodes, weights / 2 pi, Bloch eigenvalues and packed projectors.

    Each projector P = v v^H is stored as the real matrix Q = Re P + Im P;
    as Re P is symmetric and Im P antisymmetric, P = ((1+i) Q + (1-i) Q^T) / 2,
    which is linear in Q, so sums over projectors run in real arithmetic.
    """
    key = ("gl", levels, order)
    if key not in strip.spectral_cache:
        ks, ws = _gl_nodes(levels, order)
        eps, v = np.linalg.eigh(strip.bloch_batch(ks))
        proj = np.einsum("kaj,kbj->kjab", v, v.conj())
        packed = (proj.real + proj.imag).reshape(eps.size, -1)
        strip.spectral_cache[key] = (ks, ws[:, None] / (2.0 * np.pi), eps, packed)
    return strip.spectral_cache[key]


def _gl_quadrature(strip, lam, offsets, levels, order):
    """Panel-quadrature blocks G(d) for all offsets as one spectral sum."""
    ks, ws, eps, packed = _spectral_nodes(strip, levels, order)
    phase = np.outer(offsets, ks)
    trig = np.concatenate([np.cos(phase), np.sin(phase)])
    coef = (trig[:, :, None] * (ws / (eps - lam))).reshape(len(trig), -1)
    re, im = np.split(coef @ packed, 2)
    c = (re + 1j * im).reshape(len(offsets), strip.blockdim, strip.blockdim)
    g = 0.5 * ((1 + 1j) * c + (1 - 1j) * c.swapaxes(-1, -2))
    return dict(zip(offsets, g))


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


def gap_resolvent(
    strip: BlockedStripOperator,
    lam: float,
    offsets,
    levels: int = 14,
    order: int = 16,
) -> GreenKernel:
    """Resolvent blocks G(d) = ((H - lam)^-1)(n+d, n) at an in-gap energy."""
    offsets = sorted(set(int(d) for d in offsets))
    if _band_distance(strip, lam) < 1e-10:
        raise EnergyInSpectrum(f"energy {lam} within 1e-10 of the strip spectrum")
    if max(abs(d) for d in offsets) > 8:
        blocks = _fft_resolvent(strip, lam, max(abs(d) for d in offsets))
        blocks = {d: blocks[d] for d in offsets}
        err = np.nan
    else:
        blocks = _gl_quadrature(strip, lam, offsets, levels, order)
        coarse = _gl_quadrature(strip, lam, offsets, levels - 2, order)
        err = max(np.abs(blocks[d] - coarse[d]).max() for d in offsets)
    return GreenKernel(lam, blocks, strip.blockdim, err, levels, order)


def _fft_resolvent(strip, lam, nmax, m0: int = 8192, tol: float = 1e-11):
    """All offsets |d| <= nmax via uniform-grid trapezoid summed by FFT.

    With nodes kappa_j = -pi + 2 pi j / m the trapezoid sum is an inverse
    DFT up to a (-1)^d phase; it converges spectrally since the integrand is
    periodic and analytic for in-gap energies.  The grid is doubled until
    probe blocks stabilize.
    """
    dim = strip.blockdim
    prev = None
    m = m0
    while True:
        kaps = -np.pi + 2.0 * np.pi * np.arange(m) / m
        hs = strip.bloch_batch(kaps)
        rs = np.linalg.inv(hs - lam * np.eye(dim))
        g = np.fft.ifft(rs, axis=0)
        blocks = {d: ((-1) ** (d % 2)) * g[d % m] for d in range(-nmax, nmax + 1)}
        if prev is not None:
            diff = max(np.abs(blocks[d] - prev[d]).max() for d in (0, 1, nmax))
            if diff < tol or m >= 2**17:
                return blocks
        prev = blocks
        m *= 2


def blocked_cone_modes(vgauge: VGauge, range_: int) -> np.ndarray:
    """Blocked cone eigenvectors at k1 = 0 (unit norm per block)."""
    if range_ == 1:
        return vgauge.vectors.copy()
    return np.kron(np.ones((range_, 1)), vgauge.vectors) / np.sqrt(range_)


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
    w = blocked_cone_modes(vgauge, strip.range_)
    sub = np.zeros((strip.blockdim, strip.blockdim), dtype=complex)
    for k in range(4):
        sub += np.outer(w[:, k], w[:, k].conj()) / vgauge.slopes[k]
    blocks = _pv_quadrature(strip, dirac.lambda_star, offsets, levels, order, sub)
    coarse = _pv_quadrature(strip, dirac.lambda_star, offsets, levels - 2, order, sub)
    err = max(np.abs(blocks[d] - coarse[d]).max() for d in offsets)
    return GreenKernel(dirac.lambda_star, blocks, strip.blockdim, err, levels, order)


def far_field_matrix(vgauge: VGauge, alpha_star: float, range_: int) -> np.ndarray:
    """Limit matrix (i/2|a*|)(v1 v1^H + v2 v2^H - v3 v3^H - v4 v4^H)."""
    w = blocked_cone_modes(vgauge, range_)
    s = np.zeros((6 * range_, 6 * range_), dtype=complex)
    for k, sign in enumerate((1.0, 1.0, -1.0, -1.0)):
        s += sign * np.outer(w[:, k], w[:, k].conj())
    return 1j / (2.0 * abs(alpha_star)) * s


def far_field_report(green: GreenKernel, limit: np.ndarray, n_from: int = 2) -> dict:
    """Exponential-decay fit of the far-field residuals on both sides."""
    out = {}
    for side, sgn in (("plus", 1), ("minus", -1)):
        ns, resid = [], []
        d = n_from * sgn
        while d in green.blocks:
            r = float(np.abs(green.blocks[d] - sgn * limit).max())
            ns.append(abs(d))
            resid.append(r)
            d += sgn
        resid = np.array(resid)
        floor = max(10.0 * green.quad_error, 1e-12) if np.isfinite(green.quad_error) else 1e-9
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

    ``phi`` and ``psi`` are block profiles: callables n -> C^{6N} or constant
    vectors.  The form is (H(n,n-1) phi(n-1), psi(n)) - (H(n-1,n) phi(n),
    psi(n-1)) with the inner product conjugate-linear in the second slot.
    """
    phi, psi = _as_profile(phi), _as_profile(psi)
    up = strip.block(n, n - 1) @ phi(n - 1)
    dn = strip.block(n - 1, n) @ phi(n)
    return complex(psi(n).conj() @ up - psi(n - 1).conj() @ dn)


def flux_site_independence(strip, phi, psi, sites) -> float:
    """Max deviation of the flux over the given sites from its value at the first."""
    base = energy_flux(strip, phi, psi, sites[0])
    return max(abs(energy_flux(strip, phi, psi, n) - base) for n in sites)


def flux_matrix(strip: BlockedStripOperator, vectors: np.ndarray, n: int = 0) -> np.ndarray:
    """Flux form evaluated pairwise on constant block profiles (columns)."""
    m = vectors.shape[1]
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            out[i, j] = energy_flux(strip, vectors[:, i], vectors[:, j], n)
    return out


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

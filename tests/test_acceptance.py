"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria run at their stated tolerances on the models that satisfy the
required hypotheses: the constant-hopping (toy) model for the global
gap/inversion scan, and the blended kernel (toy plus inverse-distance
corrections) for the layer-potential pipeline, which needs invertible
forward hopping together with an unfolded band structure.
"""
import time

import numpy as np

from hexamer import green, kernels, lattice, matching, robust, spectra

import paper_checks


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_symmetry_suite(toy, extended, hper):
    t0 = time.perf_counter()
    group = lattice.generate_group(include_supersymmetry=False)
    tsym = lattice.supersymmetry_op()
    worst = 0.0
    for kern in (toy, extended):
        worst = max(worst, max(lattice.commutator_norm(kern.blocks, g) for g in group))
        worst = max(worst, lattice.commutator_norm(kern.blocks, tsym))
    rep_res = 0.0
    for rep in (lattice.rep_rho1(), lattice.rep_rho2(), lattice.rep_rho_tilde()):
        r, f = rep["R6"], rep["Fx"]
        dim = r.shape[0]
        rep_res = max(
            rep_res,
            np.abs(np.linalg.matrix_power(r, 6) - np.eye(dim)).max(),
            np.abs(f @ f - np.eye(dim)).max(),
            np.abs(r @ f - f @ np.linalg.inv(r)).max(),
        )
        if "T" in rep:
            t = rep["T"]
            rep_res = max(
                rep_res,
                np.abs(np.linalg.matrix_power(t, 3) - np.eye(4)).max(),
                np.abs(f @ t - t @ f).max(),
                np.abs(r @ t - np.linalg.inv(t) @ r).max(),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and rep_res <= 1e-12 and elapsed < 1.0
    _report(
        1,
        ok,
        f"commutators <= {worst:.1e}, rep relations <= {rep_res:.1e}, {elapsed:.2f}s",
    )


def test_criterion_2_double_dirac(toy, dirac_toy):
    t0 = time.perf_counter()
    w = np.linalg.eigvalsh(toy.bloch_rad(0.0, 0.0))
    spec_err = np.abs(w - np.array([-3.0, 0, 0, 0, 0, 3.0])).max()
    worst_rel = 0.0
    rng = np.random.default_rng(8)
    for _ in range(8):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        t = 1e-3
        wb = np.linalg.eigvalsh(toy.bloch_rad(*(t * direction)))
        cone = np.sort(wb[np.argsort(np.abs(wb))[:4]])
        slopes = cone / t
        model = paper_checks.reduced_model_slopes(dirac_toy.alpha_star, direction)
        worst_rel = max(worst_rel, np.abs(slopes - model).max() / np.abs(model).max())
    elapsed = time.perf_counter() - t0
    ok = spec_err <= 1e-10 and worst_rel <= 1e-3 and elapsed < 10.0
    _report(
        2,
        ok,
        f"Gamma spectrum err {spec_err:.1e}, cone slope rel err {worst_rel:.1e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_flatness(toy, blended, hper):
    worst = 0.0
    found = 0
    for kern in (toy, blended):
        for delta in (0.2, 0.35):
            report = paper_checks.two_fold_flatness(kern.plus(hper, delta))
            found += len(report)
            for r in report:
                worst = max(worst, r["h1_norm"], r["h2_norm"])
    ok = found >= 4 and worst <= 1e-10
    _report(3, ok, f"{found} two-fold clusters, first-order norms <= {worst:.1e}")


def test_criterion_4_gap_and_inversion(toy, blended, hper):
    lines = []
    ok = True
    for kern, name in ((toy, "toy"), (blended, "blended")):
        for delta, tol in ((0.1, 0.10), (0.05, 0.10), (0.025, 0.05)):
            t0 = time.perf_counter()
            rep = spectra.gap_report(kern, hper, delta)
            elapsed = time.perf_counter() - t0
            ratio_ok = abs(rep.width_ratio - 1.0) <= tol
            s = rep.inversion_scores
            inv_ok = (
                s["plus"]["lower_rho2"] >= 0.99
                and s["plus"]["upper_rho1"] >= 0.99
                and s["minus"]["lower_rho1"] >= 0.99
                and s["minus"]["upper_rho2"] >= 0.99
            )
            ok = ok and ratio_ok and inv_ok and elapsed < 60.0
            lines.append(f"{name} d={delta}: ratio {rep.width_ratio:.4f} ({elapsed:.1f}s)")
    _report(4, ok, "; ".join(lines))


def test_criterion_5_physical_green(bulk_strip, dirac, vgauge, green_pv):
    t0 = time.perf_counter()
    eye = np.eye(bulk_strip.blockdim)
    worst = 0.0
    probes = range(-10, 10)  # 20 probe blocks, all unit sources at once
    for n in probes:
        acc = -dirac.lambda_star * green_pv.blocks[n]
        for d in (-1, 0, 1):
            acc = acc + bulk_strip.block(0, d) @ green_pv.blocks[n + d]
        worst = max(worst, np.abs(acc - (eye if n == 0 else 0)).max())
    limit = green.far_field_matrix(vgauge, dirac.alpha_star)
    ff = green.far_field_report(green_pv, limit)
    rates = (ff["plus"]["rate"], ff["minus"]["rate"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and all(0 < r < 0.9 for r in rates) and elapsed < 120.0
    _report(
        5,
        ok,
        f"right-inverse {worst:.1e}, far-field rates {rates[0]:.3f}/{rates[1]:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_energy_flux(bulk_strip, dirac, vgauge):
    w = vgauge.vectors
    fl = green.flux_matrix(bulk_strip, w)
    a = abs(dirac.alpha_star)
    sign = (1, 1, -1, -1)
    diag_err = max(abs(fl[j, j] - 1j * sign[j] * a) for j in range(4))
    off_err = np.abs(fl - np.diag(np.diag(fl))).max()
    site_dev = max(
        paper_checks.flux_site_independence(bulk_strip, w[:, i], w[:, j], list(range(10)))
        for i in range(4)
        for j in range(4)
    )
    ok = diag_err <= 1e-8 and off_err <= 1e-8 and site_dev <= 1e-8
    _report(
        6,
        ok,
        f"diag err {diag_err:.1e}, offdiag {off_err:.1e}, site dev {site_dev:.1e}",
    )


def test_criterion_7_limit_operators(blended, hper, dirac, vgauge, beta_star):
    lp = paper_checks.limit_pieces(blended, dirac, vgauge, beta_star)
    herm = np.abs(lp.m_pv - lp.m_pv.conj().T).max()
    sv = np.linalg.svd(lp.m_pv, compute_uv=False)
    n_null = int((sv <= 1e-6).sum())
    gap5 = sv[-5]
    hs = np.linspace(-0.9 * beta_star, 0.9 * beta_star, 21) * (1 - 1e-6)
    errs = []
    for delta in (0.2, 0.1, 0.05, 0.025):
        iface = kernels.InterfaceKernel.from_bulks(blended, hper, delta)
        pipe = matching.MatchingPipeline(iface)
        errs.append(
            [
                np.linalg.norm(
                    pipe.matrices(dirac.lambda_star + delta * h).matrix
                    - (lp.m_pv + lp.xi(h) * lp.a_proj),
                    2,
                )
                for h in hs
            ]
        )
    errs = np.array(errs)
    monotone = all(np.all(errs[i + 1] <= 1.2 * errs[i]) for i in range(3))
    ok = herm <= 1e-10 and n_null == 4 and monotone
    _report(
        7,
        ok,
        f"Mpv hermiticity {herm:.1e}, null svals {n_null}, 5th sval {gap5:.2e}, "
        f"limit errors {errs.max(axis=1).round(3).tolist()} decreasing={monotone}",
    )


def test_criterion_8_interface_modes(
    blended, hper, dirac, beta_star, modes, oracle, gap
):
    t0 = time.perf_counter()
    count_ok = modes.count == 2
    parity_ok = sorted(m.parity for m in modes.modes) == [-1, 1]
    oracle_dev = max(
        min(abs(m.lambda_zig - v) for v, _, _ in oracle) for m in modes.modes
    )
    iface_small = kernels.InterfaceKernel.from_bulks(blended, hper, 0.025)
    small = matching.count_interface_modes(
        matching.MatchingPipeline(iface_small), dirac.lambda_star, beta_star, 0.9, 201
    )
    h_large = max(abs(m.lambda_zig - dirac.lambda_star) / 0.05 for m in modes.modes)
    h_small = max(abs(m.lambda_zig - dirac.lambda_star) / 0.025 for m in small.modes)
    elapsed = time.perf_counter() - t0
    ok = (
        count_ok
        and parity_ok
        and oracle_dev <= 1e-6
        and small.count == 2
        and h_small < h_large
        and elapsed < 300.0
    )
    _report(
        8,
        ok,
        f"2 modes {[round(m.lambda_zig, 8) for m in modes.modes]}, parities "
        f"{[m.parity for m in modes.modes]}, oracle dev {oracle_dev:.1e}, "
        f"|h| {h_large:.4f}->{h_small:.4f}, {elapsed:.0f}s (plus shared setup)",
    )


def test_criterion_9_no_inversion_control(blended, hper, dirac, beta_star, gap):
    iface = kernels.InterfaceKernel.from_bulks(blended, hper, 0.05, inverted=False)
    pipe = matching.MatchingPipeline(iface)
    search = matching.characteristic_search(pipe, dirac.lambda_star, beta_star, 0.9, 101)
    oracle_vals = paper_checks.direct_oracle(iface, gap)
    ok = len(search.values) == 0 and search.sigma_min.min() > 1e-4 and not oracle_vals
    _report(
        9,
        ok,
        f"characteristic values {len(search.values)}, min sigma "
        f"{search.sigma_min.min():.2e}, oracle in-gap states {len(oracle_vals)}",
    )


def test_criterion_10_robustness(blended, hper, dirac, beta_star):
    t0 = time.perf_counter()
    delta = 0.025
    iface = kernels.InterfaceKernel.from_bulks(blended, hper, delta)
    r = 0.9 * delta * beta_star
    gap = (dirac.lambda_star - r, dirac.lambda_star + r)
    pipe = matching.MatchingPipeline(iface)
    modes = matching.count_interface_modes(pipe, dirac.lambda_star, beta_star, 0.9, 201)
    assert modes.count == 2
    lam = {m.parity: m.lambda_zig for m in modes.modes}
    d_zig = {p: min(v - gap[0], gap[1] - v) for p, v in lam.items()}

    w = robust.build_W("compact", 2e-5)
    bound_ok = w.m_w < 0.25 * min(d_zig.values())

    unique_ok = True
    cauchy_ok = True
    bound62_ok = True
    overlap_min = 1.0
    strips = robust.MomentumStrips(iface, gap)
    for parity in (1, -1):
        vals = []
        base = pert = None
        for L in (8, 16, 32):
            base, pert = robust.sector_pair(
                strips, w, L, parity, lam[parity], d_zig[parity], 80, 640, True
            )
            unique_ok = unique_ok and len(base.eigenvalues) == 1 and len(pert.eigenvalues) == 1
            bound62_ok = bound62_ok and abs(pert.eigenvalues[pert.tracked] - lam[parity]) < 0.5 * d_zig[parity]
            vals.append(pert.eigenvalues[pert.tracked])
        diffs = np.abs(np.diff(vals))
        cauchy_ok = cauchy_ok and diffs[1] <= diffs[0] + 1e-12
        ff = robust.farfield_persistence(pert, base)
        overlap_min = min(overlap_min, ff["overlap_outside"])

    pi_vals = paper_checks.direct_oracle(iface, gap, 160, kpar=np.pi)
    elapsed = time.perf_counter() - t0
    ok = (
        bound_ok
        and unique_ok
        and cauchy_ok
        and bound62_ok
        and overlap_min >= 0.99
        and pi_vals == []
        and elapsed < 600.0
    )
    _report(
        10,
        ok,
        f"M_W {w.m_w:.2e} within bound {bound_ok}, unique {unique_ok}, Cauchy "
        f"{cauchy_ok}, overlap {overlap_min:.6f}, pi-sector empty {not pi_vals}, "
        f"{elapsed:.0f}s",
    )

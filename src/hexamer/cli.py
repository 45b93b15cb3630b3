"""Command-line front end.

Subcommands: bands, symmetry-report, green-check, interface, robustness,
band-curve.  All numeric work is deterministic; identical configurations
produce identical outputs.  Exit codes: 0 success, 2 model validation,
3 numeric failure, 4 unexpected interface-mode count, 5 perturbation bound
violated without override.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import emit, green, kernels, lattice, matching, robust, spectra
from .errors import BoundViolation, HexamerError, ModelValidationError, NumericError

DEFAULTS = {
    "model": "blended",
    "mix": 0.2,
    "delta": 0.05,
    "c_star": 0.9,
    "quadrature": {"levels": 14, "order": 16},
    "truncation": {"oracle_blocks": 400, "mode_window": 120, "strip_t0": 80},
    "perturbation": {"kind": "compact", "amplitude": 5e-5},
    "robustness": {"L_values": [8, 16, 32], "c_w": 0.25},
    "grid_points": 101,
    "search_points": 201,
    "out": "out",
}


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))
    if path:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ModelValidationError("config root must be a JSON object")
        for key, val in user.items():
            if key not in cfg:
                raise ModelValidationError(f"unknown config key '{key}'")
            if isinstance(cfg[key], dict):
                if not isinstance(val, dict):
                    raise ModelValidationError(f"config key '{key}' must be an object")
                unknown = set(val) - set(cfg[key])
                if unknown:
                    raise ModelValidationError(f"unknown keys {sorted(unknown)} in '{key}'")
                cfg[key].update(val)
            else:
                cfg[key] = val
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    if cfg["model"] not in ("toy", "extended", "blended"):
        raise ModelValidationError(f"model must be toy|extended|blended, got {cfg['model']!r}")
    if not 0.0 <= float(cfg["delta"]) < 0.5:
        raise ModelValidationError("delta must lie in [0, 0.5)")
    if not 0.0 < float(cfg["c_star"]) < 1.0:
        raise ModelValidationError("c_star must lie in (0, 1)")
    if int(cfg["quadrature"]["levels"]) < 3:
        # the quadrature error estimate reruns the panels at levels - 2
        raise ModelValidationError("quadrature.levels must be at least 3")
    if int(cfg["quadrature"]["order"]) <= 0:
        raise ModelValidationError("quadrature.order must be positive")
    if float(cfg["perturbation"]["amplitude"]) < 0:
        raise ModelValidationError("perturbation amplitude must be nonnegative")
    if not 0.0 < float(cfg["robustness"]["c_w"]) < 0.5:
        raise ModelValidationError("robustness.c_w must lie in (0, 1/2)")


@dataclasses.dataclass
class Workspace:
    cfg: dict
    kb: kernels.HoppingKernel
    kper: kernels.HoppingKernel
    dirac: spectra.DiracData
    vgauge: spectra.VGauge
    beta_star: float

    @classmethod
    def build(cls, cfg: dict) -> "Workspace":
        kb = kernels.bulk_model(cfg["model"], float(cfg["mix"]))
        beta1, _, kper = kernels.verify_gap_criterion(kb, kernels.build_hper())
        dirac = spectra.locate_double_dirac(kb)
        return cls(cfg, kb, kper, dirac, spectra.fix_gauge_v(dirac), abs(beta1))

    def interface(self, inverted: bool = True) -> kernels.InterfaceKernel:
        return kernels.InterfaceKernel.from_bulks(
            self.kb, self.kper, float(self.cfg["delta"]), inverted=inverted
        )

    def gap(self) -> tuple:
        r = float(self.cfg["c_star"]) * float(self.cfg["delta"]) * self.beta_star
        return (self.dirac.lambda_star - r, self.dirac.lambda_star + r)


def _echo_config(cfg: dict, out: Path):
    emit.write_json(out / "effective_config.json", cfg)


def cmd_bands(cfg: dict) -> int:
    out = Path(cfg["out"])
    _echo_config(cfg, out)
    ws = Workspace.build(cfg)
    delta = float(cfg["delta"])
    report = spectra.gap_report(
        ws.kb, ws.kper, delta, float(cfg["c_star"]), int(cfg["grid_points"])
    )
    # band structure along Gamma-centered rays in dual coordinates
    rows = []
    plus, minus = kernels.perturbed_bulks(ws.kb, ws.kper, delta)
    for seg_id, (d1, d2) in enumerate([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]):
        ts = np.linspace(-np.pi, np.pi, 201)
        for t in ts:
            for tag, kern in (("plus", plus), ("minus", minus)):
                w = np.linalg.eigvalsh(kern.bloch_rad(t * d1, t * d2))
                rows.append([seg_id, tag, t * d1, t * d2, *w])
    emit.write_csv(
        out / "bands.csv",
        ["segment", "bulk", "kappa1", "kappa2", *[f"lambda{i}" for i in range(1, 7)]],
        rows,
        meta={"eigen_residual_tol": 1e-10, "cluster_rtol": spectra.CLUSTER_RTOL},
    )
    emit.write_csv(
        out / "kernel_blocks.csv",
        ["e1", "e2", *sum([[f"re{i}{j}", f"im{i}{j}"] for i in range(6) for j in range(6)], [])],
        emit.kernel_block_rows(ws.kb),
        meta=ws.kb.describe(),
    )
    payload = report.to_dict()
    payload["alpha_star"] = ws.dirac.alpha_star
    payload["alpha_star_fd_crosscheck"] = ws.dirac.slope_fit
    emit.write_json(out / "gap_report.json", payload)
    emit.write_json(
        out / "inversion_scores.json",
        {"delta": delta, "scores": report.inversion_scores},
    )
    if delta > 0 and report.width <= 0:
        print("numeric failure: expected open gap, scan found none", file=sys.stderr)
        return 3
    print(f"gap ({report.gap_interval[0]:.6f}, {report.gap_interval[1]:.6f}) "
          f"width ratio {report.width_ratio:.4f}")
    return 0


def cmd_symmetry_report(cfg: dict) -> int:
    out = Path(cfg["out"])
    _echo_config(cfg, out)
    group = lattice.generate_group(include_supersymmetry=False)
    gamma_group = lattice.generate_group(include_supersymmetry=True)
    tsym = lattice.supersymmetry_op()
    payload = {
        "point_group_order": len(group),
        "extended_group_order": len(gamma_group),
        "commutators": {},
        "representation_relation_residuals": _rep_relation_residuals(),
    }
    for name in ("toy", "extended", "blended"):
        kb = kernels.bulk_model(name, float(cfg["mix"]))
        worst = max(lattice.commutator_norm(kb.blocks, op) for op in group)
        payload["commutators"][name] = {
            "max_point_group": worst,
            "supersymmetry": lattice.commutator_norm(kb.blocks, tsym),
        }
    kper = kernels.build_hper()
    payload["commutators"]["detuning"] = {
        "max_point_group": max(lattice.commutator_norm(kper.blocks, op) for op in group),
        "supersymmetry": lattice.commutator_norm(kper.blocks, tsym),
    }
    emit.write_json(out / "symmetry_report.json", payload)
    print(f"point group order {len(group)}, extended order {len(gamma_group)}")
    return 0


def _rep_relation_residuals() -> dict:
    reps = lattice.RepMatrixSet()
    out = {}
    for name, rep in (("rho1", reps.rho1), ("rho2", reps.rho2), ("rho_tilde", reps.rho_tilde)):
        r, f = rep["R6"], rep["Fx"]
        res = {
            "R6^6": float(np.abs(np.linalg.matrix_power(r, 6) - np.eye(r.shape[0])).max()),
            "Fx^2": float(np.abs(f @ f - np.eye(r.shape[0])).max()),
            "braid": float(np.abs(r @ f - f @ np.linalg.inv(r)).max()),
        }
        if "T" in rep:
            t = rep["T"]
            res["T^3"] = float(np.abs(np.linalg.matrix_power(t, 3) - np.eye(4)).max())
            res["Fx T commute"] = float(np.abs(f @ t - t @ f).max())
            res["R6 T braid"] = float(np.abs(r @ t - np.linalg.inv(t) @ r).max())
        out[name] = res
    return out


def cmd_green_check(cfg: dict) -> int:
    out = Path(cfg["out"])
    _echo_config(cfg, out)
    ws = Workspace.build(cfg)
    q = cfg["quadrature"]
    strip = kernels.BlockedStripOperator(ws.kb)
    gpv = green.physical_green_pv(
        strip, ws.dirac, ws.vgauge, range(-12, 13), int(q["levels"]), int(q["order"])
    )
    eye = np.eye(strip.blockdim)
    worst = 0.0
    for n in range(-10, 10):
        acc = -ws.dirac.lambda_star * gpv.blocks[n]
        for d in (-1, 0, 1):
            acc = acc + strip.block(0, d) @ gpv.blocks[n + d]
        worst = max(worst, float(np.abs(acc - (eye if n == 0 else 0)).max()))
    limit = green.far_field_matrix(ws.vgauge, ws.dirac.alpha_star, strip.range_)
    ff = green.far_field_report(gpv, limit)
    w = green.blocked_cone_modes(ws.vgauge, strip.range_)
    fluxes = green.flux_matrix(strip, w)
    payload = {
        "right_inverse_residual": worst,
        "quadrature_error_estimate": gpv.quad_error,
        "far_field": ff,
        "flux_diagonal_im": [float(fluxes[i, i].imag) for i in range(4)],
        "flux_offdiagonal_max": float(
            np.abs(fluxes - np.diag(np.diag(fluxes))).max()
        ),
        "alpha_star_abs": abs(ws.dirac.alpha_star),
    }
    emit.write_json(out / "green_check.json", payload)
    emit.write_csv(
        out / "green_pv_blocks.csv",
        ["n", "m", *sum([[f"re{i}{j}", f"im{i}{j}"] for i in range(6) for j in range(6)], [])],
        emit.green_block_rows(gpv),
        meta={"energy": ws.dirac.lambda_star, "quadrature_error": gpv.quad_error},
    )
    print(f"right-inverse residual {worst:.2e}, "
          f"far-field rates {ff['plus']['rate']:.3f}/{ff['minus']['rate']:.3f}")
    return 0


def cmd_interface(cfg: dict, no_inversion: bool = False, oracle: bool = False) -> int:
    out = Path(cfg["out"])
    _echo_config(cfg, out)
    ws = Workspace.build(cfg)
    q = cfg["quadrature"]
    iface = ws.interface(inverted=not no_inversion)
    pipeline = matching.MatchingPipeline(iface, int(q["levels"]), int(q["order"]))
    result = matching.count_interface_modes(
        pipeline, ws.dirac.lambda_star, ws.beta_star, float(cfg["c_star"]),
        n_points=int(cfg["search_points"]),
        window=int(cfg["truncation"]["mode_window"]),
    )
    emit.write_json(
        out / "search_trace.json",
        {
            "h": result.characteristic.h_grid,
            "sigma_min": result.characteristic.sigma_min,
            "characteristic_values": [
                {"h": v.h, "lambda": v.lam, "sigma_min": v.sigma_min, "multiplicity": v.multiplicity}
                for v in result.characteristic.values
            ],
            "characteristic_multiplicity_total": result.characteristic.total_multiplicity(),
            "fixed_point_defects": result.fixed_point_defects,
        },
    )
    for i, mode in enumerate(result.modes, start=1):
        emit.write_csv(
            out / f"mode_{i}.csv",
            ["block", *sum([[f"re{j}", f"im{j}"] for j in range(mode.profile.shape[1])], [])],
            emit.mode_profile_rows(mode),
            meta={
                "lambda_zig": mode.lambda_zig,
                "parity": mode.parity,
                "eigen_residual": mode.residual,
                "decay_rate_right": mode.decay_rate_right,
                "decay_rate_left": mode.decay_rate_left,
            },
        )
    summary = {
        "count": result.count,
        "eigenvalues": result.eigenvalues,
        "parities": [m.parity for m in result.modes],
        "lambda_star": ws.dirac.lambda_star,
    }
    if oracle:
        oracle_vals = matching.direct_oracle(
            iface, ws.dirac.lambda_star, ws.gap(), int(cfg["truncation"]["oracle_blocks"])
        )
        summary["oracle"] = [
            {"lambda": v, "parity": p, "center": c} for v, p, c in oracle_vals
        ]
        summary["oracle_max_deviation"] = (
            max(
                min(abs(v - m) for v, _, _ in oracle_vals)
                for m in result.eigenvalues
            )
            if oracle_vals and result.modes
            else None
        )
    emit.write_json(out / "interface_summary.json", summary)
    if result.count != 2:
        both = (result.characteristic.total_multiplicity(), result.count)
        print(
            f"interface-mode count {result.count} != 2 "
            f"(characteristic multiplicity {both[0]}, surviving modes {both[1]}); "
            + ("expected for the no-inversion control" if no_inversion else "unexpected"),
            file=sys.stderr,
        )
        return 4
    print(
        "modes:",
        ", ".join(f"{m.lambda_zig:.8f} (parity {m.parity:+d})" for m in result.modes),
    )
    return 0


def cmd_robustness(cfg: dict, override_bound: bool = False) -> int:
    out = Path(cfg["out"])
    _echo_config(cfg, out)
    ws = Workspace.build(cfg)
    iface = ws.interface()
    gap = ws.gap()
    q = cfg["quadrature"]
    pipeline = matching.MatchingPipeline(iface, int(q["levels"]), int(q["order"]))
    modes = matching.count_interface_modes(
        pipeline, ws.dirac.lambda_star, ws.beta_star, float(cfg["c_star"]),
        n_points=int(cfg["search_points"]),
        window=int(cfg["truncation"]["mode_window"]),
    )
    if modes.count != 2:
        print("numeric failure: unperturbed interface does not show 2 modes", file=sys.stderr)
        return 3
    lam_by_parity = {m.parity: m.lambda_zig for m in modes.modes}
    d_zig = {
        p: min(lam - gap[0], gap[1] - lam) for p, lam in lam_by_parity.items()
    }
    w = robust.build_W(cfg["perturbation"]["kind"], float(cfg["perturbation"]["amplitude"]))
    bound = float(cfg["robustness"]["c_w"]) * min(d_zig.values())
    in_theory = w.m_w < bound
    if not in_theory and not override_bound:
        print(
            f"perturbation bound violated: M_W = {w.m_w:.4e} >= {bound:.4e}; "
            "pass --override-bound to proceed (results labeled out-of-theory)",
            file=sys.stderr,
        )
        return 5
    pi_spectrum = matching.direct_oracle(
        iface, ws.dirac.lambda_star, gap,
        int(cfg["truncation"]["oracle_blocks"]) // 2, kpar=np.pi,
    )
    report = {
        "pi_sector_ingap": [v for v, _, _ in pi_spectrum],
        "pi_sector_empty": len(pi_spectrum) == 0,
        "perturbation": {
            "kind": w.kind,
            "amplitude": w.amplitude,
            "M_W": w.m_w,
            "fx_commutator": w.fx_defect,
            "bound": bound,
            "within_theory": bool(in_theory),
        },
        "unperturbed": {str(p): lam for p, lam in lam_by_parity.items()},
        "d_zig": {str(p): d for p, d in d_zig.items()},
        "sectors": {},
    }
    t0 = int(cfg["truncation"]["strip_t0"])
    for parity in (1, -1):
        per_l = []
        base_sector = None
        pert_sector = None
        for L in cfg["robustness"]["L_values"]:
            base = robust.strip_sector_eigen(
                iface, None, int(L), parity, gap, lam_by_parity[parity],
                d_zig[parity], t0=t0,
            )
            pert = robust.strip_sector_eigen(
                iface, w, int(L), parity, gap, lam_by_parity[parity],
                d_zig[parity] if in_theory else None, t0=t0,
            )
            ff = robust.farfield_persistence(pert, base, exclusion_radius=3.0)
            per_l.append(
                {
                    "L": int(L),
                    "unperturbed": base.eigenvalues.tolist(),
                    "perturbed": pert.eigenvalues.tolist(),
                    "t_used": pert.t_used,
                    "farfield_overlap": ff["overlap_outside"],
                    "difference_profile": ff["difference_profile"],
                }
            )
        report["sectors"][str(parity)] = per_l
    emit.write_json(out / "robustness_report.json", report)
    diff_rows = []
    for parity, entries in report["sectors"].items():
        for entry in entries:
            for i, v in enumerate(entry["difference_profile"]):
                diff_rows.append([parity, entry["L"], i, v])
    emit.write_csv(
        out / "mode_difference_profiles.csv",
        ["parity", "L", "window", "l2_norm"],
        diff_rows,
        meta={"window_width_cells": 2.0},
    )
    print("robustness report written")
    return 0


def cmd_band_curve(cfg: dict) -> int:
    out = Path(cfg["out"])
    _echo_config(cfg, out)
    ws = Workspace.build(cfg)
    iface = ws.interface()
    curve = robust.interface_band_curve(
        iface, ws.gap(), ws.dirac.lambda_star,
        n_blocks=int(cfg["truncation"]["oracle_blocks"]) // 2,
    )
    rows = []
    for kp, vals in zip(curve["kpar"], curve["samples"]):
        for v in vals:
            rows.append([kp, v])
    emit.write_csv(
        out / "band_curve.csv",
        ["kpar", "lambda"],
        rows,
        meta={"gap": ws.gap(), "empty_at_pi": curve["empty_at_pi"]},
    )
    emit.write_json(
        out / "band_curve_summary.json",
        {
            "kpar": curve["kpar"],
            "counts": [len(v) for v in curve["samples"]],
            "empty_at_pi": curve["empty_at_pi"],
        },
    )
    print(f"band curve sampled at {len(curve['kpar'])} momenta; "
          f"empty at pi: {curve['empty_at_pi']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexamer",
        description="Interface modes bifurcating from a double Dirac cone "
        "(tight-binding layer-potential pipeline).",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (default 'out')")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap; computations are deterministic regardless")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bands", help="band structure, gap report, inversion scores")
    sub.add_parser("symmetry-report", help="group closure and commutator report")
    sub.add_parser("green-check", help="physical Green operator diagnostics")
    p_int = sub.add_parser("interface", help="interface-mode search and profiles")
    p_int.add_argument("--no-inversion", action="store_true",
                       help="control run with +delta bulk on both sides")
    p_int.add_argument("--oracle", action="store_true",
                       help="include direct truncated-strip comparison")
    p_rob = sub.add_parser("robustness", help="periodized-strip robustness study")
    p_rob.add_argument("--override-bound", action="store_true",
                       help="proceed even when M_W exceeds the localization bound")
    sub.add_parser("band-curve", help="in-gap eigenvalue curve in the parallel momentum")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("--threads must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, {"out": args.out})
        if args.command == "bands":
            return cmd_bands(cfg)
        if args.command == "symmetry-report":
            return cmd_symmetry_report(cfg)
        if args.command == "green-check":
            return cmd_green_check(cfg)
        if args.command == "interface":
            return cmd_interface(cfg, args.no_inversion, args.oracle)
        if args.command == "robustness":
            return cmd_robustness(cfg, args.override_bound)
        if args.command == "band-curve":
            return cmd_band_curve(cfg)
        raise ModelValidationError(f"unknown command {args.command}")
    except ModelValidationError as exc:
        print(f"model validation failed: {exc}", file=sys.stderr)
        return 2
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 5
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except HexamerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: bands, symmetry-report, green-check, interface, robustness,
band-curve.  All numeric work is deterministic; identical configurations
produce identical outputs.  Each command runs BLAS on one thread (see
``one_blas_thread``); robustness, band-curve and interface --oracle run
their independent halves in two processes when two CPUs are usable (see
``fork_join``).  Exit codes: 0 success, 2 model validation or outputs that
cannot be written, 3 numeric failure, 4 unexpected interface-mode count,
5 perturbation bound violated without override.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import pickle
import signal
import sys
import traceback
from pathlib import Path

import numpy as np
import scipy

from . import emit, green, kernels, lattice, matching, robust, spectra
from .errors import ModelValidationError, NumericError

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
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ModelValidationError(f"cannot read config: {exc}") from exc
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
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise ModelValidationError(f"out must be a non-empty string, got {cfg['out']!r}")
    if cfg["model"] not in ("toy", "extended", "blended"):
        raise ModelValidationError(f"model must be toy|extended|blended, got {cfg['model']!r}")
    _require_number(cfg, "mix")
    if not 0.0 <= _require_number(cfg, "delta") < 0.5:
        raise ModelValidationError("delta must lie in [0, 0.5)")
    if not 0.0 < _require_number(cfg, "c_star") < 1.0:
        raise ModelValidationError("c_star must lie in (0, 1)")
    # the quadrature error estimate reruns the panels at levels - 2
    _require_int(cfg["quadrature"], "levels", 3, "quadrature.")
    _require_int(cfg["quadrature"], "order", 1, "quadrature.")
    _require_int(cfg, "grid_points", 1)
    _require_int(cfg, "search_points", 2)
    for key in ("mode_window", "strip_t0", "oracle_blocks"):
        _require_int(cfg["truncation"], key, 1, "truncation.")
    if cfg["perturbation"]["kind"] not in ("compact", "line"):
        raise ModelValidationError(
            f"perturbation.kind must be compact|line, got {cfg['perturbation']['kind']!r}"
        )
    if _require_number(cfg["perturbation"], "amplitude", "perturbation.") < 0:
        raise ModelValidationError("perturbation amplitude must be nonnegative")
    if not 0.0 < _require_number(cfg["robustness"], "c_w", "robustness.") < 0.5:
        raise ModelValidationError("robustness.c_w must lie in (0, 1/2)")
    ls = cfg["robustness"]["L_values"]
    if not isinstance(ls, list) or not ls or any(
        isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in ls
    ):
        raise ModelValidationError(
            f"robustness.L_values must be a non-empty list of integers >= 1, got {ls!r}"
        )


def _require_int(section: dict, key: str, least: int, prefix: str = ""):
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int) or val < least:
        raise ModelValidationError(f"{prefix}{key} must be an integer >= {least}, got {val!r}")


def _require_number(section: dict, key: str, prefix: str = "") -> float:
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not np.isfinite(val):
        raise ModelValidationError(f"{prefix}{key} must be a finite number, got {val!r}")
    return float(val)


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
        dirac = spectra.locate_double_dirac(kb)
        beta1, _, kper = spectra.verify_gap_criterion(dirac, kernels.build_hper())
        return cls(cfg, kb, kper, dirac, spectra.fix_gauge_v(dirac), abs(beta1))

    def interface(self, inverted: bool = True) -> kernels.InterfaceKernel:
        return kernels.InterfaceKernel.from_bulks(
            self.kb, self.kper, float(self.cfg["delta"]), inverted=inverted
        )

    def gap(self) -> tuple:
        r = float(self.cfg["c_star"]) * float(self.cfg["delta"]) * self.beta_star
        return (self.dirac.lambda_star - r, self.dirac.lambda_star + r)

    def modes(self, iface: kernels.InterfaceKernel) -> matching.ModesResult:
        """The interface modes of ``iface`` found by the layer-potential search."""
        cfg, q = self.cfg, self.cfg["quadrature"]
        pipeline = matching.MatchingPipeline(iface, int(q["levels"]), int(q["order"]))
        return matching.count_interface_modes(
            pipeline, self.dirac.lambda_star, self.beta_star, float(cfg["c_star"]),
            n_points=int(cfg["search_points"]),
            window=int(cfg["truncation"]["mode_window"]),
        )


def cmd_bands(cfg: dict) -> int:
    out = Path(cfg["out"])
    ws = Workspace.build(cfg)
    delta = float(cfg["delta"])
    report = spectra.gap_report(
        ws.kb, ws.kper, delta, float(cfg["c_star"]), int(cfg["grid_points"])
    )
    # band structure along Gamma-centered rays in dual coordinates
    rows = []
    plus, minus = kernels.perturbed_bulks(ws.kb, ws.kper, delta)
    ts = np.linspace(-np.pi, np.pi, 201)
    for seg_id, (d1, d2) in enumerate([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]):
        k1, k2 = ts * d1, ts * d2
        w_plus, w_minus = (np.linalg.eigvalsh(k.bloch_rad(k1, k2)) for k in (plus, minus))
        for i in range(ts.size):
            rows.append([seg_id, "plus", k1[i], k2[i], *w_plus[i]])
            rows.append([seg_id, "minus", k1[i], k2[i], *w_minus[i]])
    emit.write_csv(
        out / "bands.csv",
        ["segment", "bulk", "kappa1", "kappa2", *[f"lambda{i}" for i in range(1, 7)]],
        rows,
        meta={"eigen_residual_tol": 1e-10, "cluster_rtol": spectra.CLUSTER_RTOL},
    )
    offsets = sorted(ws.kb.blocks)
    emit.write_complex_csv(
        out / "kernel_blocks.csv", ["e1", "e2"], offsets, [ws.kb.blocks[e] for e in offsets],
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
    out = {}
    for name, rep in (("rho1", lattice.rep_rho1()), ("rho2", lattice.rep_rho2()),
                      ("rho_tilde", lattice.rep_rho_tilde())):
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
    limit = green.far_field_matrix(ws.vgauge, ws.dirac.alpha_star)
    ff = green.far_field_report(gpv, limit)
    fluxes = green.flux_matrix(strip, ws.vgauge.vectors)
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
    offsets = sorted(gpv.blocks)
    emit.write_complex_csv(
        out / "green_pv_blocks.csv", ["n", "m"], [(d, 0) for d in offsets],
        [gpv.blocks[d] for d in offsets],
        meta={"energy": ws.dirac.lambda_star, "quadrature_error": gpv.quad_error},
    )
    print(f"right-inverse residual {worst:.2e}, "
          f"far-field rates {ff['plus']['rate']:.3f}/{ff['minus']['rate']:.3f}")
    return 0


def cmd_interface(cfg: dict, no_inversion: bool, oracle: bool) -> int:
    out = Path(cfg["out"])
    ws = Workspace.build(cfg)
    iface = ws.interface(inverted=not no_inversion)

    def search() -> matching.ModesResult:
        result = ws.modes(iface)
        emit.write_json(
            out / "search_trace.json",
            {
                "h": result.characteristic.h_grid,
                "sigma_min": result.characteristic.sigma_min,
                "characteristic_values": [
                    {"h": v.h, "lambda": v.lam, "sigma_min": v.sigma_min,
                     "multiplicity": v.multiplicity}
                    for v in result.characteristic.values
                ],
                "characteristic_multiplicity_total": result.characteristic.total_multiplicity(),
                "sector_counts": result.characteristic.sector_counts,
                "evaluations": result.characteristic.evaluations,
                "fixed_point_defects": result.fixed_point_defects,
            },
        )
        for i, mode in enumerate(result.modes, start=1):
            emit.write_complex_csv(
                out / f"mode_{i}.csv", ["block"],
                [(mode.n_lo + j,) for j in range(len(mode.profile))], mode.profile,
                meta={
                    "lambda_zig": mode.lambda_zig,
                    "parity": mode.parity,
                    "eigen_residual": mode.residual,
                    "decay_rate_right": mode.decay_rate_right,
                    "decay_rate_left": mode.decay_rate_left,
                    "profile_converged": mode.profile_converged,
                },
            )
        return result

    if not oracle:
        result = search()
    else:
        # the worker solves both parity parts of the k = 0 strip during the layer-potential search
        strips, t = robust.MomentumStrips(iface, ws.gap()), int(cfg["truncation"]["oracle_blocks"]) // 2
        result, (oracle_vals,) = fork_join(search, lambda: robust.strip_modes(strips, t, [(0, 1)], (1, -1)))
    summary = {
        "count": result.count,
        "eigenvalues": result.eigenvalues,
        "parities": [m.parity for m in result.modes],
        "lambda_star": ws.dirac.lambda_star,
    }
    if oracle:
        summary["oracle"] = [{"lambda": v, "parity": p, "center": c} for v, p, c in oracle_vals]
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
        print(
            f"interface-mode count {result.count} != 2 (characteristic multiplicity "
            f"{result.characteristic.total_multiplicity()}, surviving modes {result.count}); "
            + ("expected for the no-inversion control" if no_inversion else "unexpected"),
            file=sys.stderr,
        )
        return 4
    print(
        "modes:",
        ", ".join(f"{m.lambda_zig:.8f} (parity {m.parity:+d})" for m in result.modes),
    )
    return 0


def cmd_robustness(cfg: dict, override_bound: bool) -> int:
    out = Path(cfg["out"])
    ws = Workspace.build(cfg)
    iface = ws.interface()
    gap = ws.gap()
    modes = ws.modes(iface)
    if modes.count != 2:
        print("numeric failure: unperturbed interface does not show 2 modes", file=sys.stderr)
        return 3
    lam_by_parity = {m.parity: m.lambda_zig for m in modes.modes}
    if sorted(lam_by_parity) != [-1, 1]:
        print(
            "numeric failure: the two interface modes must have one mode per parity, got parities "
            + ", ".join(f"{m.parity:+d}" for m in modes.modes),
            file=sys.stderr,
        )
        return 3
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
    t0, t_pi = int(cfg["truncation"]["strip_t0"]), int(cfg["truncation"]["oracle_blocks"]) // 4
    strips = robust.MomentumStrips(iface, gap)

    def sectors(parity: int) -> tuple:
        # each later L starts at the width the previous L certified: narrower widths would be thrown away
        (pi_modes,) = robust.strip_modes(strips, t_pi, [(1, 2)], [parity])
        per_l, start = [], t0
        for L in cfg["robustness"]["L_values"]:
            base, pert = robust.sector_pair(
                strips, w, int(L), parity, lam_by_parity[parity], d_zig[parity], start, 8 * t0, in_theory,
            )
            start = pert.t_used
            ff = robust.farfield_persistence(pert, base)
            per_l.append(
                {
                    "L": int(L),
                    "unperturbed": base.eigenvalues.tolist(),
                    "perturbed": pert.eigenvalues.tolist(),
                    "t_used": pert.t_used,
                    "t_converged": base.t_converged and pert.t_converged,
                    "residual_bound": max(base.residual_bound, pert.residual_bound),
                    "ingap_count": {
                        "unperturbed": base.ingap_count,
                        "perturbed": pert.ingap_count,
                    },
                    "farfield_overlap": ff["overlap_outside"],
                    "difference_profile": ff["difference_profile"],
                }
            )
        return [v for v, _, _ in pi_modes], per_l

    # the reflection parities are decoupled: the worker solves -1 while this process solves +1
    (pi_even, even), (pi_odd, odd) = fork_join(lambda: sectors(1), lambda: sectors(-1))
    report = {
        "pi_sector_ingap": sorted(pi_even + pi_odd),
        "pi_sector_empty": not (pi_even or pi_odd),
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
        "sectors": {"1": even, "-1": odd},
    }
    emit.write_json(out / "robustness_report.json", report)
    diff_rows = [
        [parity, entry["L"], i, v] for parity, entries in report["sectors"].items()
        for entry in entries for i, v in enumerate(entry["difference_profile"])
    ]
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
    ws = Workspace.build(cfg)
    iface, gap = ws.interface(), ws.gap()
    # the strips count bulk states as in-gap when the gap touches a bulk band
    matching.MatchingPipeline(iface).guard_in_gap(*gap)
    kpars, fracs = robust.band_curve_momenta()
    momenta = list(fracs)
    strips, t = robust.MomentumStrips(iface, gap), int(cfg["truncation"]["oracle_blocks"]) // 4

    def solve(ks: list) -> dict:
        modes = robust.strip_modes(strips, t, [fracs[k] for k in ks], (1, -1))
        return {k: [v for v, _, _ in found] for k, found in zip(ks, modes)}

    # this process solves every other momentum, the worker the rest: the costly |kpar| nearest 0 are neighbours
    first, rest = fork_join(lambda: solve(momenta[::2]), lambda: solve(momenta[1::2]))
    curve = robust.assemble_band_curve(kpars, first | rest, gap)
    rows = [[kp, v] for kp, vals in zip(curve["kpar"], curve["samples"]) for v in vals]
    emit.write_csv(
        out / "band_curve.csv",
        ["kpar", "lambda"],
        rows,
        meta={"gap": gap, "empty_at_pi": curve["empty_at_pi"]},
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


# The OpenBLAS copy each wheel bundles: package, library folder, thread getter, setter.
# NumPy's serves eigh, eigvalsh and matmul; SciPy's serves SuperLU and ARPACK.
_OPENBLAS = (
    (np, "numpy.libs", "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy.libs", "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_threads() -> list:
    """(get, set) thread-count functions of each bundled OpenBLAS copy already loaded.

    ``RTLD_NOLOAD`` opens a library only if the process has loaded it, so a copy
    that is missing or not loaded is skipped, and nothing new is loaded.
    """
    found = []
    for pkg, folder, get_name, set_name in _OPENBLAS:
        for path in sorted((Path(pkg.__file__).parent.parent / folder).glob("libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            found.append((get, set_))
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with both OpenBLAS copies on one thread; restore their counts after.

    The matrices here are small, so a second BLAS thread costs more time than
    it saves (README, Threads and processes).  On one thread every summation
    order, and so every output byte, is the same whatever thread count the
    process started with.  Without a bundled copy this does nothing.
    """
    copies = _openblas_threads()
    saved = [get() for get, _ in copies]
    try:
        for _, set_ in copies:
            set_(1)
        yield
    finally:
        for (_, set_), n in zip(copies, saved):
            set_(n)


def fork_join(first, second) -> tuple:
    """``(first(), second())``, with ``second`` run in a forked worker while this process runs ``first``.

    The worker inherits the process as it stands (the built workspace, the
    one BLAS thread), writes no file and prints nothing: it sends back its
    result, or its exception, pickled over a pipe.  The worker is reaped on
    every path.  An exception of ``first`` wins and kills the worker, as it
    would have stopped the run before ``second`` began; a worker killed by a
    signal raises `NumericError`.  With fewer than two usable CPUs, or when
    no worker can be started, the two run in order in this process.
    """
    if len(os.sched_getaffinity(0)) < 2:
        return first(), second()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return first(), second()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(_outcome(second))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            mine = first()
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise NumericError(f"the worker process was killed by {signal.Signals(-code).name}")
    if code != 0:
        raise NumericError(f"the worker process exited with status {code}")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return mine, theirs


def _outcome(fn) -> bytes:
    """The pickled ``(True, fn())``, or ``(False, exception)`` if ``fn`` raised."""
    try:
        return pickle.dumps((True, fn()))
    except BaseException as exc:
        exc.add_note("raised in the worker process:\n" + traceback.format_exc())
        return pickle.dumps((False, exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexamer",
        description="Interface modes bifurcating from a double Dirac cone "
        "(tight-binding layer-potential pipeline).",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (default 'out')")
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
    try:
        cfg = load_config(args.config, {"out": args.out})
        emit.write_json(Path(cfg["out"]) / "effective_config.json", cfg)
        with one_blas_thread():
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
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of the hexamer CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  Every CLI subcommand runs in a fresh interpreter, one at a time,
and times one call of ``hexamer.cli.main``.  Whole rounds of the workload's
subcommands repeat until ``--seconds`` have passed (at least one round).

``--trace 0`` first starts a few set-up probes (import plus one
``Workspace.build``) and prints the end-to-end metrics.  ``--trace 1`` runs
each round once untraced and once with span wrappers installed, and prints
the per-layer metrics plus the tracing overhead.  All outputs are checked
(see ``checks.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, logs
and span files go to ``.perfbench_out/<workload>/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 7
DEADLINE_S = 170.0   # every child is killed by then; the run must end within 180 s
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class Runner:
    """Starts the child processes of one benchmark run and keeps their records."""

    def __init__(self, root: Path, out: Path, config: Path):
        self.root, self.out, self.config = root, out, config
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, TMPDIR=str(out / "tmp"))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        (out / "tmp").mkdir(parents=True)
        self.ops: list = []

    def _child(self, tag: str, args: list) -> dict | None:
        result = self.out / f"{tag}.json"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.out / f"{tag}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), args[0], str(result), *args[1:]],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                return None
            finally:
                if proc.poll() is None:  # timed out or interrupted: stop it first
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result.exists():
            return None
        return json.loads(result.read_text())

    def setup_probe(self, i: int):
        spawn = time.monotonic()
        rec = self._child(f"setup{i}", ["setup", repr(spawn), str(self.config)])
        self.ops.append({"name": "setup", "ok": rec is not None, **(rec or {})})

    def command(self, cmd, rnd: int, traced: bool):
        tag = f"r{rnd}{'t' if traced else ''}_{cmd.name}"
        out = self.out / tag
        rec = self._child(
            tag, ["cmd", "1" if traced else "0", str(self.config), str(out), *cmd.argv]
        )
        op = {"name": cmd.name, "round": rnd, "traced": traced, "out": out, **(rec or {})}
        op["ok"] = rec is not None and rec["rc"] == cmd.exit_code
        self.ops.append(op)


def _median(values):
    return statistics.median(values) if values else 0.0


def _rounds(ops, traced: bool) -> dict:
    """Round number -> that round's command records, rounds with a failure left out."""
    by_round: dict = {}
    for op in ops:
        if op["name"] != "setup" and op["traced"] == traced:
            by_round.setdefault(op["round"], []).append(op)
    return {r: rs for r, rs in by_round.items() if all(op["ok"] for op in rs)}


def end_to_end(ops) -> dict:
    rounds = list(_rounds(ops, False).values())
    return {
        "setup_s": _median([op["setup_s"] for op in ops if op["name"] == "setup" and op["ok"]]),
        "wall_s": _median([sum(op["wall_s"] for op in rs) for rs in rounds]),
        "peak_rss_mb": _median([max(op["rss_mb"] for op in rs) for rs in rounds]),
    }


def per_layer(ops) -> dict:
    plain, traced = _rounds(ops, False), _rounds(ops, True)
    paired = sorted(set(plain) & set(traced))
    base = sum(op["wall_s"] for r in paired for op in plain[r])
    with_spans = sum(op["wall_s"] for r in paired for op in traced[r])
    overhead = 100.0 * (with_spans / base - 1.0) if base else 0.0
    per_round = []
    for r in paired:
        tot: dict = {}
        for op in traced[r]:
            tot = tracing.add_totals(tot, op["totals"])
        per_round.append(tracing.layer_metrics(tot, overhead))
    # median_low keeps counts integral: they are equal in every round
    return {k: statistics.median_low([m[k] for m in per_round]) if per_round else 0
            for k in tracing.LAYER_UNITS}


def check_outputs(ops, ref) -> list:
    errs = []
    for op in ops:
        if op["name"] == "setup" or not op["ok"]:
            continue
        try:
            errs += checks.CHECKS[op["name"]](op["out"], ref)
        except Exception as exc:  # a malformed output or a failing reference is a failed check
            errs.append(f"{op['name']}: check of {op['out']} raised {exc!r}")
    return errs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted for a uniform command line; the inputs are not random")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hexamer" / "cli.py").is_file():
        print(f"no hexamer sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    wl = WORKLOADS[args.workload]
    out = root / OUT_DIR / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(wl.config))

    runner = Runner(root, out, config)
    start = time.monotonic()
    if not args.trace:
        for i in range(SETUP_PROBES):
            runner.setup_probe(i)
    rnd = 0
    while rnd == 0 or time.monotonic() - start < args.seconds:
        for traced in ((False, True) if args.trace else (False,)):
            for cmd in wl.commands:
                runner.command(cmd, rnd, traced)
        rnd += 1

    ops = runner.ops
    errs = check_outputs(ops, checks.Reference(config, root / OUT_DIR / "reference"))
    failed = [op for op in ops if not op["ok"]]
    if args.trace:
        metrics, units = per_layer(ops), tracing.LAYER_UNITS
    else:
        metrics, units = end_to_end(ops), END_TO_END_UNITS

    print(f"workload {wl.name}: {rnd} round(s), {len(ops)} operations, {len(failed)} failed, "
          f"{'all checks passed' if not errs else f'{len(errs)} check failures'}")
    for op in failed:
        print(f"  FAILED {op['name']} (rc {op.get('rc')}), see {out}")
    for err in errs:
        print(f"  CHECK {err}")
    for cmd in wl.commands:
        walls = [op["wall_s"] for op in ops
                 if op["name"] == cmd.name and op["ok"] and not op["traced"]]
        print(f"  {cmd.name + '_s':34s} {_median(walls):12.4f} s   (median of {len(walls)})")
    for name, val in metrics.items():
        print(f"  {name:34s} {val:12.4f} {units[name]}")
    (out / "ops.json").write_text(json.dumps(
        [{k: (str(v) if k == "out" else v) for k, v in op.items() if k != "totals"} for op in ops],
        indent=1,
    ))
    print(json.dumps({
        "correct": not errs,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

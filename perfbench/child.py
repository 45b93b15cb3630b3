"""One benchmark operation in a fresh interpreter.

    python3 child.py setup RESULT SPAWN_T CONFIG
    python3 child.py cmd RESULT TRACE CONFIG OUT ARG...

``setup`` imports ``hexamer.cli`` and builds one ``Workspace`` from CONFIG;
it reports the time since SPAWN_T, a ``time.monotonic`` reading the parent
took just before it started this process.  ``cmd`` imports ``hexamer.cli``
and times one call of ``hexamer.cli.main``; with TRACE = 1 the span wrappers
are installed first and the spans are written next to RESULT.  The package is
imported from ``src/`` of the current directory (PYTHONPATH is set by the
parent) and RESULT is a JSON file.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_source():
    import hexamer

    src = (Path.cwd() / "src" / "hexamer").resolve()
    if Path(hexamer.__file__).resolve().parent != src:
        raise SystemExit(f"hexamer imported from {hexamer.__file__}, not from {src}")


def setup(spawn_t: str, config: str) -> dict:
    from hexamer import cli

    _check_source()
    cli.Workspace.build(cli.load_config(config))
    return {"setup_s": time.monotonic() - float(spawn_t), "rss_mb": _peak_rss_mb()}


def cmd(result: str, trace: str, config: str, out: str, *argv) -> dict:
    from hexamer import cli

    _check_source()
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = time.perf_counter()
    try:
        rc = cli.main(["--config", config, "--out", out, *argv])
    except Exception:  # an uncaught error is the operation's outcome, not ours
        traceback.print_exc()
        rc = "uncaught"
    wall = time.perf_counter() - t0
    rec = {"rc": rc, "wall_s": wall, "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        spans_path = Path(result).with_suffix(".spans.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
        rec["totals"] = tracing.layer_totals(tracer.spans)
    return rec


if __name__ == "__main__":
    mode, result, *rest = sys.argv[1:]
    rec = setup(*rest) if mode == "setup" else cmd(result, *rest)
    Path(result).write_text(json.dumps(rec))

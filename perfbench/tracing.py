"""Span tracing for the per-layer figures, installed from outside the package.

``install`` replaces the public functions and methods of the hexamer modules
(and ``scipy.sparse.linalg.eigsh``, the shift-invert solver) with wrappers
that record one span per call: name, start, end, parent span and an optional
attribute taken from the arguments or the result.  Nothing under ``src/`` is
changed; the wrappers live only in the traced process.

``layer_totals`` reduces the spans of one process to additive sums, and
``layer_metrics`` turns the sums of one or more processes into the named
per-layer metrics of BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np
import scipy.sparse.linalg as spla

MODULES = ("cli", "kernels", "lattice", "spectra", "green", "matching", "robust", "emit")
EIGSH = "scipy.eigsh"

# metric prefix -> span names whose calls and time it sums
GROUPS = {
    "cli.workspace_build": ("cli.Workspace.build",),
    "kernels.bloch_batch": ("kernels.BlockedStripOperator.bloch_batch",),
    "lattice.commutator_norm": ("lattice.commutator_norm",),
    "spectra.gap_report": ("spectra.gap_report",),
    "green.gap_resolvent": ("green.gap_resolvent",),
    "green.physical_green_pv": ("green.physical_green_pv",),
    "matching.matrices": ("matching.MatchingPipeline.matrices",),
    "matching.guard_in_gap": ("matching.MatchingPipeline.guard_in_gap",),
    "matching.characteristic_search": ("matching.characteristic_search",),
    "matching.mode_from_boundary": ("matching.mode_from_boundary",),
    "matching.direct_oracle": ("matching.direct_oracle",),
    "robust.assemble_strip": ("robust.assemble_strip",),
    "robust.parity_isometry": ("robust.parity_isometry",),
    "robust.strip_sector_eigen": ("robust.strip_sector_eigen",),
    "robust.farfield_persistence": ("robust.farfield_persistence",),
    "emit.write": ("emit.write_csv", "emit.write_json"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> attribute recorded on return: f(args, kwargs, result)
ATTRS = {
    "kernels.BlockedStripOperator.bloch_batch": lambda a, k, r: int(np.size(_arg(a, k, 1, "kaps"))),
    "matching.MatchingPipeline.matrices": lambda a, k, r: float(_arg(a, k, 1, "lam")),
    "matching.direct_oracle": lambda a, k, r: len(r),
    "robust.strip_sector_eigen": lambda a, k, r: len(r.eigenvalues),
    "emit.write_csv": lambda a, k, r: os.path.getsize(r),
    "emit.write_json": lambda a, k, r: os.path.getsize(r),
    EIGSH: lambda a, k, r: (int(_arg(a, k, 0, "A").shape[0]), int(k.get("k", 6))),
}


class Tracer:
    """Records spans as ``[name, start, end, parent, attr]`` lists in call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn):
        attr = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer):
    """Wrap the public functions and methods of every hexamer module, and eigsh."""
    mods = [importlib.import_module(f"hexamer.{m}") for m in MODULES]
    wrapped = {}
    for mod in mods:
        short = mod.__name__.split(".")[-1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
                setattr(mod, name, wrapped[obj])
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, f"{short}.{name}")
    # module-level aliases made by ``from .x import f`` point at the originals
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    spla.eigsh = tracer.wrap(EIGSH, spla.eigsh)


def _wrap_class(tracer, cls, prefix):
    for name, member in list(vars(cls).items()):
        if name.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            kind = type(member)
            setattr(cls, name, kind(tracer.wrap(f"{prefix}.{name}", member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, name, tracer.wrap(f"{prefix}.{name}", member))


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def layer_totals(spans) -> dict:
    """Additive per-process sums from which ``layer_metrics`` derives the metrics."""
    own = self_times(spans)
    tot: dict = {"trace.spans": len(spans)}
    for prefix, names in GROUPS.items():
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        tot[f"{prefix}.calls"] = len(idx)
        # nested spans of the same group (write_csv -> write_json) count once
        tot[f"{prefix}.time_s"] = sum(
            spans[i][2] - spans[i][1] for i in idx if not _has_ancestor(spans, i, names)
        )
        tot[f"{prefix}.self_s"] = sum(own[i] for i in idx)

    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def attrs(name):
        return [spans[i][4] for i in by_name.get(name, [])]

    tot["kernels.bloch_batch.matrices"] = sum(attrs("kernels.BlockedStripOperator.bloch_batch"))
    tot["matching.matrices.distinct_energies"] = len(set(attrs("matching.MatchingPipeline.matrices")))
    tot["matching.characteristic_search.matrices"] = sum(
        _has_ancestor(spans, i, ("matching.characteristic_search",))
        for i in by_name.get("matching.MatchingPipeline.matrices", [])
    )
    tot["emit.bytes"] = sum(attrs("emit.write_csv")) + sum(attrs("emit.write_json"))
    tot["matching.direct_oracle.kept"] = sum(attrs("matching.direct_oracle"))
    tot["robust.strip_sector_eigen.kept"] = sum(attrs("robust.strip_sector_eigen"))

    solve = {"matching.direct_oracle": [], "robust.strip_sector_eigen": []}
    for i in by_name.get(EIGSH, []):
        parent = spans[i][3]
        if parent >= 0 and spans[parent][0] in solve:
            solve[spans[parent][0]].append(i)
    oracle, sector = solve["matching.direct_oracle"], solve["robust.strip_sector_eigen"]
    tot["matching.direct_oracle.solve_s"] = sum(spans[i][2] - spans[i][1] for i in oracle)
    tot["matching.direct_oracle.requested"] = sum(spans[i][4][1] for i in oracle)
    tot["robust.sector_solve.calls"] = len(sector)
    tot["robust.sector_solve.time_s"] = sum(spans[i][2] - spans[i][1] for i in sector)
    tot["robust.sector_solve.rows"] = sum(spans[i][4][0] for i in sector)
    tot["robust.sector_solve.dim_max"] = max((spans[i][4][0] for i in sector), default=0)
    # strip_sector_eigen keeps the pairs of its last solve only
    last = {spans[i][3]: i for i in sector}
    tot["robust.sector_solve.requested_last"] = sum(spans[i][4][1] for i in last.values())
    return tot


def add_totals(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, val in b.items():
        out[key] = max(out.get(key, 0), val) if key.endswith(".dim_max") else out.get(key, 0) + val
    return out


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric name -> unit
LAYER_UNITS = {
    "cli.workspace_build.time_s": "s",
    "kernels.bloch_batch.calls": "count",
    "kernels.bloch_batch.matrices": "count",
    "kernels.bloch_batch.time_s": "s",
    "lattice.commutator_norm.time_s": "s",
    "spectra.gap_report.time_s": "s",
    "green.gap_resolvent.calls": "count",
    "green.gap_resolvent.time_s": "s",
    "green.gap_resolvent.self_s": "s",
    "green.physical_green_pv.time_s": "s",
    "matching.matrices.calls": "count",
    "matching.matrices.time_s": "s",
    "matching.matrices.self_s": "s",
    "matching.matrices.distinct_energies": "count",
    "matching.matrices.reuse_ratio": "ratio",
    "matching.guard_in_gap.calls": "count",
    "matching.guard_in_gap.time_s": "s",
    "matching.characteristic_search.time_s": "s",
    "matching.characteristic_search.matrices_per_search": "count",
    "matching.mode_from_boundary.calls": "count",
    "matching.mode_from_boundary.time_s": "s",
    "matching.direct_oracle.calls": "count",
    "matching.direct_oracle.time_s": "s",
    "matching.direct_oracle.solve_s": "s",
    "matching.direct_oracle.kept_ratio": "ratio",
    "robust.assemble_strip.calls": "count",
    "robust.assemble_strip.time_s": "s",
    "robust.parity_isometry.time_s": "s",
    "robust.strip_sector_eigen.calls": "count",
    "robust.strip_sector_eigen.time_s": "s",
    "robust.strip_sector_eigen.solves_per_call": "count",
    "robust.sector_solve.calls": "count",
    "robust.sector_solve.time_s": "s",
    "robust.sector_solve.dim_max": "count",
    "robust.sector_solve.rows": "count",
    "robust.sector_solve.kept_ratio": "ratio",
    "robust.farfield_persistence.time_s": "s",
    "emit.write.time_s": "s",
    "emit.bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def layer_metrics(tot: dict, overhead_pct: float) -> dict:
    """Named per-layer metrics from summed totals (ratios of sums, not sums of ratios)."""
    m = {k: tot.get(k, 0) for k in LAYER_UNITS}
    m["matching.matrices.reuse_ratio"] = _ratio(
        tot["matching.matrices.distinct_energies"], tot["matching.matrices.calls"]
    )
    m["matching.characteristic_search.matrices_per_search"] = _ratio(
        tot["matching.characteristic_search.matrices"], tot["matching.characteristic_search.calls"]
    )
    m["matching.direct_oracle.kept_ratio"] = _ratio(
        tot["matching.direct_oracle.kept"], tot["matching.direct_oracle.requested"]
    )
    m["robust.strip_sector_eigen.solves_per_call"] = _ratio(
        tot["robust.sector_solve.calls"], tot["robust.strip_sector_eigen.calls"]
    )
    m["robust.sector_solve.kept_ratio"] = _ratio(
        tot["robust.strip_sector_eigen.kept"], tot["robust.sector_solve.requested_last"]
    )
    m["trace.overhead_pct"] = overhead_pct
    return m

"""Span bookkeeping: parents, self times and the per-layer reductions."""
import itertools
import json
import os
import subprocess
import sys

import pytest
import tracing
from conftest import BENCH, ROOT


def _fake_tracer():
    # integer clock: every reading advances by 1, so sums compare exactly
    return tracing.Tracer(clock=itertools.count().__next__)


def test_self_times_add_up_to_inclusive_times():
    tr = _fake_tracer()
    leaf = tr.wrap("leaf", lambda: None)
    mid = tr.wrap("mid", lambda: [leaf(), leaf()])
    root = tr.wrap("root", lambda: [mid(), leaf(), mid()])
    root()
    root()
    spans = tr.spans
    assert [s[0] for s in spans[:4]] == ["root", "mid", "leaf", "leaf"]
    assert spans[1][3] == 0 and spans[2][3] == 1 and spans[0][3] == -1
    own = tracing.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    assert sum(own) == sum(spans[i][2] - spans[i][1] for i in roots)
    # each subtree: self times of the subtree sum to the subtree root's duration
    for i, s in enumerate(spans):
        subtree = [j for j in range(len(spans)) if _descends(spans, j, i)]
        assert sum(own[j] for j in subtree) == s[2] - s[1]
    assert all(t > 0 for t in own)


def _descends(spans, j, i):
    while j >= 0:
        if j == i:
            return True
        j = spans[j][3]
    return False


def test_span_closes_when_the_call_raises():
    tr = _fake_tracer()

    def boom():
        raise ValueError("x")

    wrapped = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    after = tr.wrap("after", lambda: None)
    after()
    assert tr.spans[0][2] > tr.spans[0][1]
    assert tr.spans[1][3] == -1  # the stack was unwound


def test_nested_spans_of_one_group_count_once():
    spans = [
        ["emit.write_csv", 0.0, 4.0, -1, 100],
        ["emit.write_json", 1.0, 2.0, 0, 10],
        ["emit.write_json", 5.0, 6.0, -1, 7],
    ]
    tot = tracing.layer_totals(spans)
    assert tot["emit.write.calls"] == 3
    assert tot["emit.write.time_s"] == 5.0
    assert tot["emit.write.self_s"] == 5.0
    assert tot["emit.bytes"] == 117


def test_solve_spans_are_attributed_by_parent():
    spans = [
        ["robust.strip_sector_eigen", 0.0, 10.0, -1, 1],
        [tracing.EIGSH, 1.0, 3.0, 0, (100, 6)],
        [tracing.EIGSH, 4.0, 9.0, 0, (400, 6)],
        ["matching.direct_oracle", 11.0, 14.0, -1, 2],
        [tracing.EIGSH, 12.0, 13.0, 3, (50, 10)],
    ]
    m = tracing.layer_metrics(tracing.layer_totals(spans), 0.0)
    assert m["robust.sector_solve.calls"] == 2
    assert m["robust.sector_solve.rows"] == 500
    assert m["robust.sector_solve.dim_max"] == 400
    assert m["robust.sector_solve.time_s"] == 7.0
    assert m["robust.strip_sector_eigen.solves_per_call"] == 2.0
    assert m["robust.sector_solve.kept_ratio"] == 1 / 6
    assert m["matching.direct_oracle.solve_s"] == 1.0
    assert m["matching.direct_oracle.kept_ratio"] == 0.2


def test_traced_cli_run_is_consistent(tmp_path):
    """A real traced subcommand: spans nest properly and self times add up."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    result = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "cmd", str(result), "1", str(cfg),
         str(tmp_path / "out"), "symmetry-report"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rec = json.loads(result.read_text())
    spans = json.loads(result.with_suffix(".spans.json").read_text())
    assert rec["rc"] == 0 and len(spans) == rec["totals"]["trace.spans"] > 0
    for s in spans:
        assert s[1] <= s[2]
        if s[3] >= 0:
            p = spans[s[3]]
            assert p[1] <= s[1] and s[2] <= p[2]
    own = tracing.self_times(spans)
    roots = [s for s in spans if s[3] < 0]
    assert sum(own) == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9, abs=1e-9)
    assert sum(s[2] - s[1] for s in roots) <= rec["wall_s"]
    assert rec["totals"]["lattice.commutator_norm.calls"] == 52
    assert rec["totals"]["emit.write.calls"] == 2

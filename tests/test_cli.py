"""CLI subcommands, exit codes, and deterministic emission."""
import filecmp
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import scipy.sparse.linalg as spla

from hexamer import cli
from hexamer import robust
from hexamer.errors import GapCollapse, NumericError

import paper_checks

FAST = {
    "model": "blended",
    "delta": 0.05,
    "grid_points": 41,
    "quadrature": {"levels": 11, "order": 12},
    "search_points": 41,
    "truncation": {"oracle_blocks": 240, "mode_window": 100, "strip_t0": 30},
    "robustness": {"L_values": [8], "c_w": 0.25},
    "perturbation": {"kind": "compact", "amplitude": 2e-5},
}


def run_cli(tmp_path, *args, cfg=None, env=None):
    argv = [sys.executable, "-m", "hexamer.cli"]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    argv += list(args)
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def _run_main(tmp_path, out, *command, cfg=FAST):
    """`cli.main` in this process on ``cfg``: its exit code (what it prints goes to capsys)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["--config", str(path), "--out", str(out), *command])


def _append_record(path, record):
    """Append one JSON line to ``path``: a spy's record that survives the worker process."""
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def _read_records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_bands_command(tmp_path):
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "bands") == 0
    payload = json.loads((out / "gap_report.json").read_text())
    assert abs(payload["width_ratio"] - 1.0) < 0.05
    assert (out / "bands.csv").exists()
    assert (out / "bands.csv.meta.json").exists()
    assert (out / "effective_config.json").exists()


def test_malformed_config(tmp_path):
    for cfg in ({"model": "exotic"}, {"unknown_key": 1}, {"delta": -0.1}):
        assert _run_main(tmp_path, tmp_path / "o", "bands", cfg=cfg) == 2


@pytest.mark.parametrize("out", [5, None, ""])
def test_out_must_be_a_nonempty_string(tmp_path, capsys, out):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"out": out}))
    assert cli.main(["--config", str(path), "bands"]) == 2
    assert capsys.readouterr().err == f"model validation failed: out must be a non-empty string, got {out!r}\n"


@pytest.mark.parametrize(
    "cfg, command",
    [
        ({"delta": "abc"}, ["bands"]),
        ({"mix": "abc"}, ["bands"]),
        ({"c_star": "abc"}, ["bands"]),
        ({"model": "toy", "mix": True}, ["bands"]),
        ({"grid_points": "abc"}, ["bands"]),
        ({"grid_points": 0}, ["bands"]),
        ({"perturbation": {"amplitude": "x"}}, ["robustness"]),
        ({"robustness": {"c_w": "x"}}, ["robustness"]),
        ({"robustness": {"L_values": [0]}}, ["robustness"]),
        ({"robustness": {"L_values": 16}}, ["robustness"]),
        ({"robustness": {"L_values": []}}, ["robustness"]),
        ({"perturbation": {"kind": "foo"}}, ["bands"]),
        ({"perturbation": {"kind": 5}}, ["symmetry-report"]),
    ],
)
def test_malformed_values_exit_two(tmp_path, capsys, cfg, command):
    assert _run_main(tmp_path, tmp_path / "o", *command, cfg=cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("model validation failed: ") and err.count("\n") == 1


def test_quadrature_levels_below_three(tmp_path):
    # the error estimate reruns the panels at levels - 2
    assert _run_main(tmp_path, tmp_path / "o", "green-check", cfg={"quadrature": {"levels": 2}}) == 2


@pytest.mark.parametrize(
    "cfg, command",
    [
        ({"search_points": -5}, ["interface"]),
        ({"search_points": "abc"}, ["interface"]),
        ({"search_points": 2.7}, ["interface"]),
        ({"quadrature": {"order": 1.5}}, ["interface"]),
        ({"truncation": {"mode_window": 0}}, ["interface"]),
        ({"truncation": {"oracle_blocks": 0}}, ["interface", "--oracle"]),
    ],
)
def test_invalid_sizes_exit_two(tmp_path, capsys, cfg, command):
    assert _run_main(tmp_path, tmp_path / "o", *command, cfg=cfg) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_symmetry_report(tmp_path):
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "symmetry-report") == 0
    payload = json.loads((out / "symmetry_report.json").read_text())
    assert payload["point_group_order"] == 12
    assert payload["extended_group_order"] == 36
    assert payload["commutators"]["blended"]["max_point_group"] < 1e-12


def test_green_check(tmp_path):
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "green-check") == 0
    payload = json.loads((out / "green_check.json").read_text())
    assert payload["right_inverse_residual"] < 1e-6
    assert payload["far_field"]["plus"]["rate"] < 0.9


def test_interface_command(tmp_path):
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "interface", "--oracle") == 0
    payload = json.loads((out / "interface_summary.json").read_text())
    assert payload["count"] == 2
    assert sorted(payload["parities"]) == [-1, 1]
    assert payload["oracle_max_deviation"] < 1e-6
    assert (out / "mode_1.csv").exists()
    trace = json.loads((out / "search_trace.json").read_text())
    assert trace["sector_counts"] == {"1": [2, 4], "-1": [2, 4]}
    assert trace["evaluations"]["grid"] == len(trace["h"])
    assert len(trace["evaluations"]["newton"]) == 2


@pytest.mark.parametrize("delta", [0.025, 0.05])
def test_strip_oracles_match_complex_strip(tmp_path, capsys, delta):
    """The oracle list, the pi sector and the band-curve samples match the oracle on the complex strip at each momentum.

    The commands solve the real momentum strips (`robust.strip_modes`) at
    the widths oracle_blocks // 2 (k = 0) and oracle_blocks // 4 (pi and
    the band curve); the reference solves the complex strip of the same
    width.  Counts and parities are equal, eigenvalues agree to 1e-13 and
    centres to 1e-12.  Without inversion only `interface` runs (the others
    have no control), so its pi and band-curve strips are compared directly.
    """
    cfg = dict(FAST, delta=delta)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(cfg))
    ws = cli.Workspace.build(cli.load_config(str(path)))
    lam, gap, blocks = ws.dirac.lambda_star, ws.gap(), FAST["truncation"]["oracle_blocks"]
    kpars = np.linspace(-np.pi, np.pi, 41)

    def close(got, ref, tol=1e-13):
        assert len(got) == len(ref) and np.abs(np.subtract(got, ref)).max(initial=0.0) < tol

    for inverted in (True, False):
        iface = ws.interface(inverted)
        out = tmp_path / str(inverted)
        flags = [] if inverted else ["--no-inversion"]
        assert _run_main(tmp_path, out / "i", "interface", "--oracle", *flags, cfg=cfg) == (0 if inverted else 4)
        oracle = json.loads((out / "i" / "interface_summary.json").read_text())["oracle"]
        ref = paper_checks.direct_oracle(iface, lam, gap, blocks)
        assert [o["parity"] for o in oracle] == [p for _, p, _ in ref]
        close([o["lambda"] for o in oracle], [v for v, _, _ in ref])
        close([o["center"] for o in oracle], [c for _, _, c in ref], 1e-12)
        ref_pi = paper_checks.direct_oracle(iface, lam, gap, blocks // 2, kpar=np.pi)
        ref_curve = [paper_checks.direct_oracle(iface, lam, gap, blocks // 2, kpar=float(kp)) for kp in kpars]
        if inverted:
            assert _run_main(tmp_path, out / "r", "robustness", cfg=cfg) == 0
            pi = json.loads((out / "r" / "robustness_report.json").read_text())["pi_sector_ingap"]
            assert _run_main(tmp_path, out / "b", "band-curve", cfg=cfg) == 0
            rows = np.loadtxt(out / "b" / "band_curve.csv", delimiter=",", skiprows=1, ndmin=2)
            curve = [rows[rows[:, 0] == kp, 1].tolist() for kp in kpars]
        else:
            strips = robust.MomentumStrips(iface, gap)
            pi = sorted(v for p in (1, -1) for v, _, _ in robust.strip_modes(strips, blocks // 4, [(1, 2)], [p])[0])
            _, fracs = robust.band_curve_momenta()
            found = dict(zip(fracs, robust.strip_modes(strips, blocks // 4, list(fracs.values()), (1, -1))))
            curve = [[v for v, _, _ in found[abs(float(kp))]] for kp in kpars]
        close(pi, [v for v, _, _ in ref_pi])
        for got, ref in zip(curve, ref_curve):
            close(got, [v for v, _, _ in ref])
    capsys.readouterr()


def test_sparse_solves_get_real_matrices(tmp_path, monkeypatch):
    """No command hands SuperLU or shift-invert Lanczos a matrix with a nonzero imaginary part."""
    seen = []

    def spy(solve):
        def recorded(mat, *args, **kwargs):
            seen.append((solve.__name__, bool(np.iscomplexobj(mat.data) and mat.data.imag.any())))
            return solve(mat, *args, **kwargs)
        return recorded

    monkeypatch.setattr(spla, "eigsh", spy(spla.eigsh))
    monkeypatch.setattr(spla, "splu", spy(spla.splu))
    _usable_cpus(monkeypatch, 1)   # both halves of a split command run in this process
    commands = [
        ["bands"], ["symmetry-report"], ["green-check"], ["interface", "--oracle"],
        ["interface", "--no-inversion", "--oracle"], ["robustness"], ["band-curve"],
    ]
    for n, command in enumerate(commands):
        assert _run_main(tmp_path, tmp_path / str(n), *command) == (4 if "--no-inversion" in command else 0)
    assert {name for name, _ in seen} == {"eigsh", "splu"}
    assert not any(imaginary for _, imaginary in seen)


@pytest.mark.parametrize("cfg", [{"model": "extended"}, {"delta": 0.0}])
@pytest.mark.parametrize("command", ["interface", "band-curve"])
def test_gap_on_a_bulk_band_exits_three(tmp_path, monkeypatch, capsys, cfg, command):
    """A gap interval that touches a bulk band exits 3 before any strip is solved or table written."""
    solved = []
    monkeypatch.setattr(robust, "strip_modes", lambda *args: solved.append(args))
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, command, cfg=dict(FAST, **cfg)) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: [") and err.endswith("] touches a bulk band\n")
    assert solved == [] and sorted(p.name for p in out.iterdir()) == ["effective_config.json"]


def test_interface_mode_window(tmp_path):
    cfg = dict(FAST)
    cfg["truncation"] = dict(FAST["truncation"], mode_window=10)
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "interface", cfg=cfg) == 0
    for i in (1, 2):
        rows = (out / f"mode_{i}.csv").read_text().splitlines()[1:]
        assert len(rows) <= 161  # half-width capped at 8 * mode_window
        meta = json.loads((out / f"mode_{i}.csv.meta.json").read_text())
        assert meta["profile_converged"] is False


def test_interface_control_exits_four(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "interface", "--no-inversion") == 4
    assert "control" in capsys.readouterr().err
    counts = json.loads((out / "search_trace.json").read_text())["sector_counts"]
    assert all(lo == hi for lo, hi in counts.values())


def test_robustness_bound_violation(tmp_path, capsys):
    cfg = dict(FAST)
    cfg["delta"] = 0.025
    cfg["perturbation"] = {"kind": "compact", "amplitude": 0.01}
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "robustness", cfg=cfg) == 5
    assert "override-bound" in capsys.readouterr().err


def test_robustness_command(tmp_path):
    # the compact defect takes the momentum-coordinate solve, the line defect the assembled one
    for kind in ("compact", "line"):
        cfg = dict(FAST)
        cfg["delta"] = 0.025
        cfg["perturbation"] = dict(FAST["perturbation"], kind=kind)
        out = tmp_path / kind
        assert _run_main(tmp_path, out, "robustness", cfg=cfg) == 0
        payload = json.loads((out / "robustness_report.json").read_text())
        assert payload["pi_sector_empty"] is True
        assert payload["perturbation"]["kind"] == kind
        assert payload["perturbation"]["within_theory"] is True
        for parity in ("1", "-1"):
            entry = payload["sectors"][parity][0]
            assert entry["farfield_overlap"] >= 0.99
            for side in ("unperturbed", "perturbed"):
                assert entry["ingap_count"][side] >= len(entry[side])


def test_robustness_sectors_share_one_window(tmp_path, monkeypatch):
    """A perturbed certificate that fails at the unperturbed width makes the unperturbed sector solve again at the wider one."""
    solve = robust.momentum_solve
    record = tmp_path / "solves.jsonl"
    failed = []   # each process forces one failure: the worker is forked before either solves

    def fail_once(strips, w, L, parity, t):
        _append_record(record, [parity, w is not None, t])
        vals, vecs, resid = solve(strips, w, L, parity, t)
        if w is not None and not failed:   # the perturbed sector keeps no pair, so the width doubles
            failed.append(t)
            return vals[:0], vecs[:, :0], resid
        return vals, vecs, resid

    monkeypatch.setattr(robust, "momentum_solve", fail_once)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(FAST, delta=0.025)))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "robustness"]) == 0
    payload = json.loads((tmp_path / "o" / "robustness_report.json").read_text())
    cap = 8 * FAST["truncation"]["strip_t0"]
    for parity in ("1", "-1"):
        solves = [(pert, t) for p, pert, t in _read_records(record) if p == int(parity)]
        entry = payload["sectors"][parity][0]
        # the unperturbed sector is certified at t, the forced perturbed failure there moves both to min(2 t, cap)
        t = solves[-4][1]
        wide = min(2 * t, cap)
        assert solves[-4:] == [(False, t), (True, t), (False, wide), (True, wide)] and t < wide
        assert not any(pert for pert, _ in solves[:-3])   # the forced failure is the first perturbed solve
        assert entry["t_used"] == wide and entry["t_converged"] and entry["residual_bound"] <= 1e-9
        assert entry["farfield_overlap"] >= 0.99


def test_robustness_modes_of_one_parity_exit_three(tmp_path, monkeypatch, capsys):
    """Two interface modes of one parity break the one-mode-per-parity invariant: exit 3, no traceback."""
    from dataclasses import replace

    from hexamer import matching

    count = matching.count_interface_modes

    def one_parity(*args, **kwargs):
        result = count(*args, **kwargs)
        return replace(result, modes=[replace(m, parity=1) for m in result.modes])

    monkeypatch.setattr(matching, "count_interface_modes", one_parity)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(FAST, delta=0.025)))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "robustness"]) == 3
    err = capsys.readouterr().err
    assert "one mode per parity" in err and "+1, +1" in err
    assert not (tmp_path / "o" / "robustness_report.json").exists()


def test_robustness_short_period_exits_two(tmp_path, capsys):
    # below L = 8 the periodized line defect is not Hermitian
    cfg = dict(FAST)
    cfg["perturbation"] = {"kind": "line", "amplitude": 2e-6}
    cfg["robustness"] = dict(FAST["robustness"], L_values=[6])
    assert _run_main(tmp_path, tmp_path / "o", "robustness", cfg=cfg) == 2
    assert "not Hermitian at L = 6" in capsys.readouterr().err


def test_band_curve_command(tmp_path):
    cfg = dict(FAST)
    cfg["delta"] = 0.025
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "band-curve", cfg=cfg) == 0
    payload = json.loads((out / "band_curve_summary.json").read_text())
    assert payload["empty_at_pi"] is True


def test_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = run_cli(tmp_path, "--out", str(out), "bands", cfg=FAST)
        assert res.returncode == 0
        res = run_cli(tmp_path, "--out", str(out), "interface", "--oracle", cfg=FAST)
        assert res.returncode == 0, res.stderr
        res = run_cli(tmp_path, "--out", str(out / "robust"), "robustness", cfg=FAST)
        assert res.returncode == 0, res.stderr
        res = run_cli(tmp_path, "--out", str(out), "symmetry-report", cfg=FAST)
        assert res.returncode == 0, res.stderr
        res = run_cli(tmp_path, "--out", str(out), "band-curve", cfg=FAST)
        assert res.returncode == 0, res.stderr
        outs.append(out)
    modes = sorted(p.name for p in outs[0].glob("mode_*.csv*"))
    assert len(modes) == 4  # two profiles and their .meta.json
    for name in (
        "bands.csv", "gap_report.json", "inversion_scores.json",
        "search_trace.json", "interface_summary.json", *modes, "robust/robustness_report.json",
        "symmetry_report.json", "band_curve.csv", "band_curve_summary.json",
    ):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_unknown_global_flag_exits_two(tmp_path):
    res = run_cli(tmp_path, "--threads", "0", "bands", cfg=FAST)
    assert res.returncode == 2


def test_debug_csv_exports(tmp_path):
    out = tmp_path / "o"
    assert _run_main(tmp_path, out, "bands") == 0
    assert (out / "kernel_blocks.csv").exists()
    assert _run_main(tmp_path, out, "green-check") == 0
    assert (out / "green_pv_blocks.csv").exists()


def test_write_complex_csv(tmp_path):
    """Key integers, then re/im of each entry in row-major order, headed by the index digits."""
    from hexamer import emit

    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    blocks = rng.standard_normal((2, 6, 6)) + 1j * rng.standard_normal((2, 6, 6))
    emit.write_complex_csv(tmp_path / "v.csv", ["block"], [(-1,), (0,), (1,)], vecs, meta={})
    emit.write_complex_csv(
        tmp_path / "b.csv", ["e1", "e2"], [(0, 0), (1, -1)], blocks, meta={"range": 1}
    )
    head_v = (tmp_path / "v.csv").read_text().splitlines()[0].split(",")
    head_b = (tmp_path / "b.csv").read_text().splitlines()[0].split(",")
    assert head_v == ["block", "re0", "im0", "re1", "im1", "re2", "im2",
                      "re3", "im3", "re4", "im4", "re5", "im5"]
    assert len(head_b) == 2 + 72 and head_b[:6] == ["e1", "e2", "re00", "im00", "re01", "im01"]
    assert head_b[2 + 12:2 + 14] == ["re10", "im10"] and head_b[-2:] == ["re55", "im55"]
    assert json.loads((tmp_path / "b.csv.meta.json").read_text()) == {"range": 1}
    for name, keys, arr in (("v.csv", [[-1], [0], [1]], vecs), ("b.csv", [[0, 0], [1, -1]], blocks)):
        data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1, ndmin=2)
        nk = len(keys[0])
        assert data[:, :nk].tolist() == keys
        back = (data[:, nk::2] + 1j * data[:, nk + 1::2]).reshape(arr.shape)
        assert np.array_equal(back, arr)  # 17 significant digits round-trip every float64


def test_commands_run_on_one_blas_thread(tmp_path, monkeypatch):
    """main pins both OpenBLAS copies to one thread and restores their counts, also on error."""
    copies = cli._openblas_threads()
    assert len(copies) == 2  # NumPy's libscipy_openblas64_ and SciPy's libscipy_openblas
    inside = []

    def recording(outcome):
        def cmd(cfg):
            inside.append([get() for get, _ in copies])
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
        return cmd

    monkeypatch.setattr(cli, "cmd_bands", recording(0))
    monkeypatch.setattr(cli, "cmd_green_check", recording(NumericError("forced")))
    monkeypatch.setattr(cli, "cmd_symmetry_report", recording(RuntimeError("forced")))
    argv = ["--out", str(tmp_path / "o")]
    before = [get() for get, _ in copies]
    try:
        for _, set_ in copies:
            set_(2)
        assert cli.main([*argv, "bands"]) == 0
        assert [get() for get, _ in copies] == [2, 2]
        assert cli.main([*argv, "green-check"]) == 3
        assert [get() for get, _ in copies] == [2, 2]
        with pytest.raises(RuntimeError):
            cli.main([*argv, "symmetry-report"])
        assert [get() for get, _ in copies] == [2, 2]
    finally:
        for (_, set_), n in zip(copies, before):
            set_(n)
    assert inside == [[1, 1]] * 3


def test_main_runs_without_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: [])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(FAST))
    out = tmp_path / "o"
    assert cli.main(["--config", str(path), "--out", str(out), "symmetry-report"]) == 0
    assert (out / "symmetry_report.json").exists()


def test_outputs_independent_of_blas_threads(tmp_path):
    """Every output but the echoed config is the same bytes at 1 and 2 OpenBLAS threads."""
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        for command in ("green-check", "robustness"):
            res = run_cli(tmp_path, "--out", str(out / command), command, cfg=FAST, env=env)
            assert res.returncode == 0, res.stderr
        outs.append(out)
    names = sorted(str(p.relative_to(outs[0])) for p in outs[0].rglob("*.*"))
    assert names == sorted(str(p.relative_to(outs[1])) for p in outs[1].rglob("*.*"))
    compared = [n for n in names if not n.endswith("effective_config.json")]
    assert len(compared) == 6  # green-check 3 files, robustness 3 (with .meta.json)
    for name in compared:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_unwritable_outputs_exit_two(tmp_path, capsys):
    """An output directory below a regular file, or an unreadable config, exits 2 in one line."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert _run_main(tmp_path, blocker / "o", "symmetry-report") == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write outputs: ") and err.count("\n") == 1
    assert cli.main(["--config", str(tmp_path / "missing.json"), "symmetry-report"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("model validation failed: cannot read config") and err.count("\n") == 1


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _sector_pair_with(monkeypatch, action):
    """Run ``action(parity)`` before each `robust.sector_pair` of the robustness command."""
    pair = robust.sector_pair

    def patched(strips, w, L, parity, *args):
        action(parity)
        return pair(strips, w, L, parity, *args)

    monkeypatch.setattr(robust, "sector_pair", patched)


@pytest.mark.parametrize("command", [["robustness"], ["band-curve"], ["interface", "--oracle"]])
def test_forked_run_matches_one_cpu(tmp_path, monkeypatch, capsys, command):
    """A split command writes the same bytes and stdout with its worker process as without.

    robustness runs two L values, so each later L's start at the width the
    one before certified is compared too.
    """
    fork, forks = os.fork, []
    cfg = dict(FAST, robustness=dict(FAST["robustness"], L_values=[8, 16])) if command == ["robustness"] else FAST

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    outs, captured = [], []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        outs.append(tmp_path / str(cpus))
        assert _run_main(tmp_path, outs[-1], *command, cfg=cfg) == 0
        captured.append(capsys.readouterr())
    assert forks == [os.getpid()]  # the 2-CPU run forked once, the 1-CPU run never
    assert captured[0] == captured[1] and captured[0].out
    names = [sorted(str(p.relative_to(o)) for p in o.rglob("*.*")) for o in outs]
    assert names[0] == names[1]
    compared = [n for n in names[0] if n != "effective_config.json"]
    assert compared
    for name in compared:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


@pytest.mark.parametrize(
    "errors, code, message",
    [
        ({-1: GapCollapse("forced in parity -1")}, 3, "numeric failure: forced in parity -1"),
        # parity +1 runs first in order, so its error wins over the worker's
        ({1: GapCollapse("forced in parity +1"), -1: GapCollapse("forced in parity -1")},
         3, "numeric failure: forced in parity +1"),
        ({-1: OSError(28, "No space left on device")},
         2, "cannot write outputs: [Errno 28] No space left on device"),
    ],
)
def test_worker_errors_exit_as_in_order(tmp_path, monkeypatch, capsys, errors, code, message):
    """An error in either half exits with the code and message of the one-process run."""

    def fail(parity):
        if parity in errors:
            raise errors[parity]

    _sector_pair_with(monkeypatch, fail)
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        assert _run_main(tmp_path, tmp_path / str(cpus), "robustness") == code
        assert capsys.readouterr().err == message + "\n"


def test_parent_error_reaps_worker(tmp_path, monkeypatch, capsys):
    """An error in this process's half kills the worker and leaves no child behind."""

    def fail_or_stall(parity):
        if parity == 1:
            raise GapCollapse("forced in parity +1")
        time.sleep(60)

    _sector_pair_with(monkeypatch, fail_or_stall)
    _usable_cpus(monkeypatch, 2)
    start = time.monotonic()
    assert _run_main(tmp_path, tmp_path / "o", "robustness") == 3
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == "numeric failure: forced in parity +1\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_killed_by_signal_exits_three(tmp_path, monkeypatch, capsys):
    test_pid = os.getpid()

    def die(parity):
        if parity == -1 and os.getpid() != test_pid:  # only ever the worker
            os.kill(os.getpid(), signal.SIGKILL)

    _sector_pair_with(monkeypatch, die)
    _usable_cpus(monkeypatch, 2)
    assert _run_main(tmp_path, tmp_path / "o", "robustness") == 3
    assert capsys.readouterr().err == "numeric failure: the worker process was killed by SIGKILL\n"
    assert not (tmp_path / "o" / "robustness_report.json").exists()


def test_worker_runs_on_one_blas_thread(tmp_path, monkeypatch):
    """The worker inherits the one BLAS thread of both OpenBLAS copies."""
    copies = cli._openblas_threads()
    record = tmp_path / "threads.jsonl"
    _sector_pair_with(monkeypatch, lambda parity: _append_record(
        record, [parity, os.getpid(), [get() for get, _ in cli._openblas_threads()]]
    ))
    _usable_cpus(monkeypatch, 2)
    before = [get() for get, _ in copies]
    try:
        for _, set_ in copies:
            set_(2)
        assert _run_main(tmp_path, tmp_path / "o", "robustness") == 0
    finally:
        for (_, set_), n in zip(copies, before):
            set_(n)
    records = _read_records(record)
    pids = {parity: pid for parity, pid, _ in records}
    assert sorted(pids) == [-1, 1] and pids[1] == os.getpid() and pids[-1] != os.getpid()
    assert len(copies) == 2 and all(threads == [1, 1] for _, _, threads in records)

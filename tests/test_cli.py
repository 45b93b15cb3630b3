"""CLI subcommands, exit codes, and deterministic emission."""
import filecmp
import json
import subprocess
import sys

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


def run_cli(tmp_path, *args, cfg=None):
    argv = [sys.executable, "-m", "hexamer.cli"]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    argv += list(args)
    return subprocess.run(argv, capture_output=True, text=True)


def test_bands_command(tmp_path):
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "bands", cfg=FAST)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "gap_report.json").read_text())
    assert abs(payload["width_ratio"] - 1.0) < 0.05
    assert (out / "bands.csv").exists()
    assert (out / "bands.csv.meta.json").exists()
    assert (out / "effective_config.json").exists()


def test_malformed_config(tmp_path):
    res = run_cli(tmp_path, "bands", cfg={"model": "exotic"})
    assert res.returncode == 2
    res = run_cli(tmp_path, "bands", cfg={"unknown_key": 1})
    assert res.returncode == 2
    res = run_cli(tmp_path, "bands", cfg={"delta": -0.1})
    assert res.returncode == 2


def test_quadrature_levels_below_three(tmp_path):
    # the error estimate reruns the panels at levels - 2
    res = run_cli(tmp_path, "green-check", cfg={"quadrature": {"levels": 2}})
    assert res.returncode == 2, res.stderr


def test_symmetry_report(tmp_path):
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "symmetry-report", cfg=FAST)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "symmetry_report.json").read_text())
    assert payload["point_group_order"] == 12
    assert payload["extended_group_order"] == 36
    assert payload["commutators"]["blended"]["max_point_group"] < 1e-12


def test_green_check(tmp_path):
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "green-check", cfg=FAST)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "green_check.json").read_text())
    assert payload["right_inverse_residual"] < 1e-6
    assert payload["far_field"]["plus"]["rate"] < 0.9


def test_interface_command(tmp_path):
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "interface", "--oracle", cfg=FAST)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "interface_summary.json").read_text())
    assert payload["count"] == 2
    assert sorted(payload["parities"]) == [-1, 1]
    assert payload["oracle_max_deviation"] < 1e-6
    assert (out / "mode_1.csv").exists()
    assert (out / "search_trace.json").exists()


def test_interface_mode_window(tmp_path):
    cfg = dict(FAST)
    cfg["truncation"] = dict(FAST["truncation"], mode_window=10)
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "interface", cfg=cfg)
    assert res.returncode == 0, res.stderr
    for i in (1, 2):
        rows = (out / f"mode_{i}.csv").read_text().splitlines()[1:]
        assert len(rows) <= 161  # half-width capped at 8 * mode_window


def test_interface_control_exits_four(tmp_path):
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "interface", "--no-inversion", cfg=FAST)
    assert res.returncode == 4
    assert "control" in res.stderr


def test_robustness_bound_violation(tmp_path):
    cfg = dict(FAST)
    cfg["delta"] = 0.025
    cfg["perturbation"] = {"kind": "compact", "amplitude": 0.01}
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "robustness", cfg=cfg)
    assert res.returncode == 5
    assert "override-bound" in res.stderr


def test_robustness_command(tmp_path):
    cfg = dict(FAST)
    cfg["delta"] = 0.025
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "robustness", cfg=cfg)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "robustness_report.json").read_text())
    assert payload["pi_sector_empty"] is True
    assert payload["perturbation"]["within_theory"] is True
    for parity in ("1", "-1"):
        entry = payload["sectors"][parity][0]
        assert entry["farfield_overlap"] >= 0.99


def test_band_curve_command(tmp_path):
    cfg = dict(FAST)
    cfg["delta"] = 0.025
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "band-curve", cfg=cfg)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "band_curve_summary.json").read_text())
    assert payload["empty_at_pi"] is True


def test_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = run_cli(tmp_path, "--out", str(out), "bands", cfg=FAST)
        assert res.returncode == 0
        outs.append(out)
    for name in ("bands.csv", "gap_report.json", "inversion_scores.json"):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_threads_flag_validation(tmp_path):
    res = run_cli(tmp_path, "--threads", "0", "bands", cfg=FAST)
    assert res.returncode == 2


def test_debug_csv_exports(tmp_path):
    out = tmp_path / "o"
    res = run_cli(tmp_path, "--out", str(out), "bands", cfg=FAST)
    assert res.returncode == 0
    assert (out / "kernel_blocks.csv").exists()
    res = run_cli(tmp_path, "--out", str(out), "green-check", cfg=FAST)
    assert res.returncode == 0
    assert (out / "green_pv_blocks.csv").exists()

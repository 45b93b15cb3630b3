"""Every output check passes on real output and fails on a corrupted copy of it."""
import json
import shutil

import numpy as np
import pytest
from checks import CHECKS, Reference

from hexamer import cli

# small but converged: default quadrature (the eigen-equation check needs it)
CONFIG = {
    "delta": 0.05,
    "search_points": 41,
    "truncation": {"oracle_blocks": 240, "strip_t0": 30},
    "robustness": {"L_values": [8]},
    "perturbation": {"kind": "compact", "amplitude": 2e-5},
}
COMMANDS = {
    "bands": ["bands"],
    "symmetry_report": ["symmetry-report"],
    "green_check": ["green-check"],
    "interface": ["interface", "--oracle"],
    "control": ["interface", "--no-inversion", "--oracle"],
    "robustness": ["robustness"],
    "band_curve": ["band-curve"],
}
EXIT = {"control": 4}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    config = base / "config.json"
    config.write_text(json.dumps(CONFIG))
    dirs = {}
    for name, argv in COMMANDS.items():
        dirs[name] = base / name
        rc = cli.main(["--config", str(config), "--out", str(dirs[name]), *argv])
        assert rc == EXIT.get(name, 0), name
    return config, dirs


@pytest.fixture
def case(produced, tmp_path):
    """A fresh copy of the outputs and a reference primed by the bands check."""
    config, dirs = produced
    copies = {}
    for name, src in dirs.items():
        copies[name] = tmp_path / name
        shutil.copytree(src, copies[name])
    ref = Reference(config)
    assert CHECKS["bands"](dirs["bands"], ref) == []
    return copies, ref


def edit_json(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def failures(name, case):
    copies, ref = case
    return CHECKS[name](copies[name], ref)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_real_output_passes(name, case):
    assert failures(name, case) == []


def test_bands(case):
    path = case[0]["bands"] / "gap_report.json"
    edit_json(path, lambda d: d.update(width_ratio=1.07))
    assert failures("bands", case)
    edit_json(path, lambda d: d.update(width_ratio=1.0, lambda_star=d["gap_hi"] + 1e-9))
    assert failures("bands", case)


def test_symmetry_report(case):
    path = case[0]["symmetry_report"] / "symmetry_report.json"
    edit_json(path, lambda d: d.update(extended_group_order=12))
    assert failures("symmetry_report", case)
    edit_json(path, lambda d: d.update(extended_group_order=36))
    assert failures("symmetry_report", case) == []
    edit_json(path, lambda d: d["commutators"]["blended"].update(max_point_group=1e-9))
    assert failures("symmetry_report", case)


def test_green_check(case):
    path = case[0]["green_check"] / "green_check.json"
    orig = json.loads(path.read_text())
    edit_json(path, lambda d: d["flux_diagonal_im"].__setitem__(0, d["flux_diagonal_im"][0] + 1e-6))
    assert failures("green_check", case)
    path.write_text(json.dumps(orig))
    edit_json(path, lambda d: d["flux_diagonal_im"].__setitem__(2, -d["flux_diagonal_im"][2]))
    assert failures("green_check", case)
    path.write_text(json.dumps(orig))
    edit_json(path, lambda d: d["far_field"]["minus"].update(rate=0.95))
    assert failures("green_check", case)
    path.write_text(json.dumps(orig))
    edit_json(path, lambda d: d.update(right_inverse_residual=1e-4))
    assert failures("green_check", case)


def _set_mode(out, i, **fields):
    """Change mode i (0-based) consistently in the summary and its metadata."""
    def summary(d):
        if "lambda_zig" in fields:
            d["eigenvalues"][i] = fields["lambda_zig"]
        if "parity" in fields:
            d["parities"][i] = fields["parity"]
    edit_json(out / "interface_summary.json", summary)
    edit_json(out / f"mode_{i + 1}.csv.meta.json", lambda d: d.update(fields))


def test_interface_shifted_eigenvalue(case):
    out = case[0]["interface"]
    lam = json.loads((out / "interface_summary.json").read_text())["eigenvalues"][0]
    _set_mode(out, 0, lambda_zig=lam + 1e-7)
    errs = failures("interface", case)
    # caught by the operator applied to the emitted profile
    assert any("eigen-equation" in e for e in errs)


def test_interface_shifted_oracle(case):
    out = case[0]["interface"]
    edit_json(out / "interface_summary.json",
              lambda d: [o.update({"lambda": o["lambda"] + 2e-6}) for o in d["oracle"]])
    assert any("oracle" in e for e in failures("interface", case))


def test_interface_flipped_parity(case):
    out = case[0]["interface"]
    summ = json.loads((out / "interface_summary.json").read_text())
    _set_mode(out, 0, parity=summ["parities"][1])
    _set_mode(out, 1, parity=summ["parities"][0])
    assert failures("interface", case)
    # flipped in the oracle list too: only the profile's reflection parity disagrees
    edit_json(out / "interface_summary.json",
              lambda d: [o.update(parity=-o["parity"]) for o in d["oracle"]])
    assert any("reflection parity" in e for e in failures("interface", case))


def test_interface_corrupted_profile(case):
    path = case[0]["interface"] / "mode_2.csv"
    lines = path.read_text().splitlines()
    mid = len(lines) // 2
    cells = lines[mid].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[mid] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("eigen-equation" in e for e in failures("interface", case))


def test_interface_missing_mode(case):
    out = case[0]["interface"]
    (out / "mode_2.csv").unlink()
    assert failures("interface", case)
    edit_json(out / "interface_summary.json",
              lambda d: d.update(count=1, eigenvalues=d["eigenvalues"][:1], parities=d["parities"][:1]))
    assert failures("interface", case)


def test_interface_mode_outside_gap(case):
    copies, ref = case
    lam = json.loads((copies["interface"] / "interface_summary.json").read_text())["eigenvalues"]
    ref.gap = (min(lam) + 1e-9, ref.gap[1])
    assert any("outside the gap" in e for e in failures("interface", case))


def test_control(case):
    out = case[0]["control"]
    edit_json(out / "interface_summary.json",
              lambda d: d.update(oracle=[{"lambda": 0.05, "parity": 1, "center": 0.0}]))
    assert failures("control", case)
    edit_json(out / "interface_summary.json", lambda d: d.update(oracle=[]))
    assert failures("control", case) == []
    edit_json(out / "search_trace.json",
              lambda d: d.update(characteristic_values=[{"h": 0.1, "lambda": 0.05}]))
    assert failures("control", case)


def test_robustness(case):
    path = case[0]["robustness"] / "robustness_report.json"
    orig = json.loads(path.read_text())

    def corrupt(fn):
        path.write_text(json.dumps(orig))
        edit_json(path, fn)
        return failures("robustness", case)

    assert corrupt(lambda d: d["sectors"]["1"][0]["unperturbed"].__setitem__(0, d["unperturbed"]["1"] + 1e-7))
    assert corrupt(lambda d: d["sectors"]["-1"][0]["perturbed"].append(d["unperturbed"]["-1"]))
    assert corrupt(lambda d: d["sectors"]["-1"][0].update(perturbed=[]))
    assert corrupt(lambda d: d["sectors"]["1"][0].update(
        perturbed=[d["unperturbed"]["1"] + 0.6 * d["d_zig"]["1"]]))
    assert corrupt(lambda d: d["sectors"]["1"][0].update(farfield_overlap=0.98))
    assert corrupt(lambda d: d.update(pi_sector_empty=False))
    assert corrupt(lambda d: d["perturbation"].update(within_theory=False))
    assert corrupt(lambda d: d["sectors"].update({"1": []}))


def _rewrite_curve(out, fn):
    path = out / "band_curve.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = fn(rows)
    path.write_text("kpar,lambda\n" + "".join(f"{float(k)!r},{float(v)!r}\n" for k, v in rows))
    kpars = json.loads((out / "band_curve_summary.json").read_text())["kpar"]
    edit_json(out / "band_curve_summary.json",
              lambda d: d.update(counts=[int((rows[:, 0] == k).sum()) for k in kpars]))


def test_band_curve_shifted_zero_sample(case):
    out = case[0]["band_curve"]

    def shift(rows):
        rows[rows[:, 0] == 0.0, 1] += 2e-6
        return rows

    _rewrite_curve(out, shift)
    assert failures("band_curve", case)


def test_band_curve_asymmetric(case):
    out = case[0]["band_curve"]
    kpars = json.loads((out / "band_curve_summary.json").read_text())["kpar"]
    lam = json.loads((case[0]["interface"] / "interface_summary.json").read_text())["eigenvalues"]
    # an extra sample at one momentum and not at its mirror image
    _rewrite_curve(out, lambda rows: np.vstack([rows, [[kpars[5], lam[0]]]]))
    assert any("differ" in e for e in failures("band_curve", case))


def test_band_curve_missing_zero_sample(case):
    out = case[0]["band_curve"]
    _rewrite_curve(out, lambda rows: rows[~((rows[:, 0] == 0.0) & (rows[:, 1] == rows[rows[:, 0] == 0.0, 1].max()))])
    assert failures("band_curve", case)


def test_band_curve_not_empty_at_pi(case):
    out = case[0]["band_curve"]
    edit_json(out / "band_curve_summary.json", lambda d: d.update(empty_at_pi=False))
    assert failures("band_curve", case)

"""Output checks: properties the method must have, or agreement with a second method.

Each ``check_<command>(out, ref)`` reads the files one subcommand wrote to
``out`` and returns a list of failure messages (empty when the output is
correct).  ``ref`` supplies what a check compares against: the bulk gap and
cone slope measured by ``bands`` in the same round, the interface operator
(applied here, not through the package) and the layer-potential eigenvalues.
No check compares against stored copies of earlier output.
"""
from __future__ import annotations

import hashlib
import json
from functools import cached_property
from pathlib import Path

import numpy as np

SYMMETRY_TOL = 1e-12
RIGHT_INVERSE_TOL = 1e-6
FLUX_TOL = 1e-8
ORACLE_TOL = 1e-6
# the profiles carry quadrature-accurate resolvent blocks (relative residual ~1e-14)
MODE_RESIDUAL_TOL = 1e-9
PARITY_TOL = 1e-6
SECTOR_TOL = 1e-8
KPAR_SYMMETRY_TOL = 1e-8
FARFIELD_MIN = 0.99


def _json(path: Path):
    return json.loads(path.read_text())


class Reference:
    """Comparison data for one workload config, computed in the benchmark process."""

    def __init__(self, config_path: Path, cache_dir: Path | None = None):
        self.config_path = config_path
        self.cache_dir = cache_dir
        self.gap = None          # (lo, hi) from the round's gap_report.json
        self.alpha_star = None   # |alpha*| from the round's gap_report.json

    @cached_property
    def config(self) -> dict:
        from hexamer import cli

        return cli.load_config(str(self.config_path))

    @cached_property
    def _workspace(self):
        from hexamer import cli

        return cli.Workspace.build(self.config)

    def gap_interval(self) -> tuple:
        """The measured bulk gap, or the search interval when bands did not run."""
        return self.gap if self.gap is not None else self._workspace.gap()

    @cached_property
    def strip_blocks(self) -> dict:
        """Strip blocks S(d) at kpar = 0 of the three kernels of the interface."""
        iface = self._workspace.interface()
        return {
            side: getattr(iface, side).strip_blocks(0.0) for side in ("right", "left", "seam")
        }

    @cached_property
    def reflection(self) -> np.ndarray:
        from hexamer import lattice

        return lattice.FX_INT

    @cached_property
    def interface_eigenvalues(self) -> list:
        """In-gap interface-mode eigenvalues from the layer-potential search.

        They depend only on the package sources and the config, so with a
        ``cache_dir`` they are kept there under a hash of both: the search
        costs about 10 s and runs once per checkout.
        """
        from hexamer import cli, matching

        key = hashlib.sha256(json.dumps(self.config, sort_keys=True).encode())
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            key.update(path.read_bytes())
        cached = self.cache_dir / f"modes-{key.hexdigest()[:16]}.json" if self.cache_dir else None
        if cached is not None and cached.exists():
            return json.loads(cached.read_text())
        ws, cfg = self._workspace, self.config
        pipeline = matching.MatchingPipeline(
            ws.interface(), int(cfg["quadrature"]["levels"]), int(cfg["quadrature"]["order"])
        )
        result = matching.count_interface_modes(
            pipeline, ws.dirac.lambda_star, ws.beta_star, float(cfg["c_star"]),
            n_points=int(cfg["search_points"]),
        )
        values = sorted(result.eigenvalues)
        if cached is not None:
            cached.parent.mkdir(parents=True, exist_ok=True)
            cached.write_text(json.dumps(values))
        return values


def apply_interface(blocks: dict, profile: np.ndarray, n_lo: int) -> np.ndarray:
    """(H psi)(n) on the rows of a Dirichlet-truncated block profile."""
    nb = len(profile)
    out = np.zeros_like(profile)
    for i in range(nb):
        n = n_lo + i
        for d in (-1, 0, 1):
            if 0 <= i + d < nb:
                m = n + d
                side = "right" if n >= 0 and m >= 0 else "left" if n < 0 and m < 0 else "seam"
                out[i] += blocks[side][d] @ profile[i + d]
    return out


def read_profile(path: Path):
    """Block indices and the complex (blocks, 6) profile of a ``mode_*.csv``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(int), data[:, 1::2] + 1j * data[:, 2::2]


def check_bands(out: Path, ref: Reference) -> list:
    rep = _json(out / "gap_report.json")
    errs = []
    if not abs(rep["width_ratio"] - 1.0) <= 0.05:
        errs.append(f"bands: width_ratio {rep['width_ratio']} not within 0.05 of 1")
    if not rep["gap_lo"] < rep["lambda_star"] < rep["gap_hi"]:
        errs.append(f"bands: lambda* {rep['lambda_star']} outside gap ({rep['gap_lo']}, {rep['gap_hi']})")
    ref.gap = (rep["gap_lo"], rep["gap_hi"])
    ref.alpha_star = abs(rep["alpha_star"])
    return errs


def check_symmetry_report(out: Path, ref: Reference) -> list:
    rep = _json(out / "symmetry_report.json")
    errs = []
    if rep["point_group_order"] != 12 or rep["extended_group_order"] != 36:
        errs.append(
            f"symmetry-report: group orders {rep['point_group_order']}/"
            f"{rep['extended_group_order']}, expected 12/36"
        )
    comm = rep["commutators"]
    values = {f"{m}.{k}": v for m in ("toy", "extended", "blended") for k, v in comm[m].items()}
    values["detuning.max_point_group"] = comm["detuning"]["max_point_group"]
    for rep_name, res in rep["representation_relation_residuals"].items():
        values.update({f"{rep_name}.{k}": v for k, v in res.items()})
    errs += [f"symmetry-report: {k} = {v} > {SYMMETRY_TOL}" for k, v in values.items()
             if not v <= SYMMETRY_TOL]
    # the detuning must break the extra translation, or no gap could open
    if not comm["detuning"]["supersymmetry"] > 1e-3:
        errs.append("symmetry-report: detuning commutes with the extra translation")
    return errs


def check_green_check(out: Path, ref: Reference) -> list:
    rep = _json(out / "green_check.json")
    errs = []
    if not rep["right_inverse_residual"] <= RIGHT_INVERSE_TOL:
        errs.append(f"green-check: right-inverse residual {rep['right_inverse_residual']}")
    for side in ("plus", "minus"):
        rate = rep["far_field"][side]["rate"]
        if not 0.0 < rate < 0.9:
            errs.append(f"green-check: far-field rate {side} = {rate} not in (0, 0.9)")
    alpha = rep["alpha_star_abs"] if ref.alpha_star is None else ref.alpha_star
    diag = sorted(rep["flux_diagonal_im"])
    expect = [-alpha, -alpha, alpha, alpha]
    if len(diag) != 4 or max(abs(a - b) for a, b in zip(diag, expect)) > FLUX_TOL:
        errs.append(f"green-check: flux diagonals {diag} are not +-|alpha*| = +-{alpha}")
    return errs


def check_interface(out: Path, ref: Reference) -> list:
    summ = _json(out / "interface_summary.json")
    errs = []
    lams, pars = summ["eigenvalues"], summ["parities"]
    if summ["count"] != 2 or len(lams) != 2 or sorted(pars) != [-1, 1]:
        return [f"interface: expected 2 modes of parity +1/-1, got {lams} / {pars}"]
    lo, hi = ref.gap_interval()
    errs += [f"interface: mode {lam} outside the gap ({lo}, {hi})" for lam in lams
             if not lo < lam < hi]
    oracle = summ["oracle"]
    for lam, par in zip(lams, pars):
        near = min(oracle, key=lambda o: abs(o["lambda"] - lam), default=None)
        if near is None or abs(near["lambda"] - lam) > ORACLE_TOL or near["parity"] != par:
            errs.append(f"interface: mode {lam} (parity {par:+d}) has no oracle match in {oracle}")
    files = sorted(out.glob("mode_*.csv"))
    if [f.name for f in files] != ["mode_1.csv", "mode_2.csv"]:
        return errs + [f"interface: mode files {[f.name for f in files]}"]
    for f, lam, par in zip(files, lams, pars):
        meta = _json(f.with_name(f.name + ".meta.json"))
        if meta["lambda_zig"] != lam or meta["parity"] != par:
            errs.append(f"interface: {f.name} metadata disagrees with the summary")
        ns, prof = read_profile(f)
        if not np.array_equal(ns, np.arange(ns[0], ns[0] + len(ns))):
            errs.append(f"interface: {f.name} block indices are not consecutive")
            continue
        nrm = np.linalg.norm(prof)
        resid = apply_interface(ref.strip_blocks, prof, int(ns[0])) - lam * prof
        rel = float(np.abs(resid[2:-2]).max() / nrm)
        if not rel <= MODE_RESIDUAL_TOL:
            errs.append(f"interface: {f.name} eigen-equation residual {rel:.3e}")
        parity = float(np.real(np.vdot(prof, prof @ ref.reflection.T)) / nrm**2)
        if not abs(parity - par) <= PARITY_TOL:
            errs.append(f"interface: {f.name} reflection parity {parity:.6f}, summary says {par:+d}")
    return errs


def check_control(out: Path, ref: Reference) -> list:
    summ = _json(out / "interface_summary.json")
    trace = _json(out / "search_trace.json")
    errs = []
    if trace["characteristic_values"]:
        errs.append(f"control: characteristic values found: {trace['characteristic_values']}")
    if summ["count"] != 0 or summ["oracle"]:
        errs.append(f"control: modes {summ['eigenvalues']} / oracle {summ['oracle']}, expected none")
    if list(out.glob("mode_*.csv")):
        errs.append("control: mode profiles written")
    return errs


def check_robustness(out: Path, ref: Reference) -> list:
    rep = _json(out / "robustness_report.json")
    errs = []
    if rep["pi_sector_empty"] is not True:
        errs.append(f"robustness: pi sector not empty: {rep['pi_sector_ingap']}")
    if rep["perturbation"]["within_theory"] is not True:
        errs.append("robustness: perturbation outside the localization bound")
    L_values = ref.config["robustness"]["L_values"]
    for parity in ("1", "-1"):
        lam, d_zig = rep["unperturbed"][parity], rep["d_zig"][parity]
        entries = rep["sectors"].get(parity, [])
        if [e["L"] for e in entries] != L_values:
            errs.append(f"robustness: parity {parity} has L {[e['L'] for e in entries]}")
        for e in entries:
            tag = f"robustness: parity {parity}, L={e['L']}"
            if len(e["unperturbed"]) != 1 or len(e["perturbed"]) != 1:
                errs.append(f"{tag}: in-gap values {e['unperturbed']} / {e['perturbed']}")
                continue
            if not abs(e["unperturbed"][0] - lam) <= SECTOR_TOL:
                errs.append(f"{tag}: sector value {e['unperturbed'][0]} != lambda_zig {lam}")
            if not abs(e["perturbed"][0] - lam) < 0.5 * d_zig:
                errs.append(f"{tag}: perturbed {e['perturbed'][0]} beyond d_zig/2 of {lam}")
            if not e["farfield_overlap"] >= FARFIELD_MIN:
                errs.append(f"{tag}: far-field overlap {e['farfield_overlap']}")
    return errs


def check_band_curve(out: Path, ref: Reference) -> list:
    summ = _json(out / "band_curve_summary.json")
    errs = []
    if summ["empty_at_pi"] is not True:
        errs.append("band-curve: in-gap samples at kpar = +-pi")
    rows = np.loadtxt(out / "band_curve.csv", delimiter=",", skiprows=1, ndmin=2)
    kpars = summ["kpar"]
    samples = [np.sort(rows[rows[:, 0] == k, 1]) if len(rows) else np.array([]) for k in kpars]
    if sum(map(len, samples)) != len(rows) or [len(s) for s in samples] != summ["counts"]:
        errs.append("band-curve: CSV rows disagree with the summary counts")
    n = len(kpars)
    for i in range(n // 2 + 1):
        a, b = samples[i], samples[n - 1 - i]
        if abs(kpars[i] + kpars[n - 1 - i]) > 1e-12:
            errs.append(f"band-curve: momentum grid not symmetric at {kpars[i]}")
        elif len(a) != len(b) or (len(a) and np.abs(a - b).max() > KPAR_SYMMETRY_TOL):
            errs.append(f"band-curve: samples at kpar = +-{abs(kpars[i]):.6f} differ: {a} / {b}")
    at_zero = [s for k, s in zip(kpars, samples) if k == 0.0]
    modes = ref.interface_eigenvalues
    if len(at_zero) != 1 or len(at_zero[0]) != len(modes) or len(modes) != 2:
        errs.append(f"band-curve: kpar = 0 samples {at_zero} vs interface modes {modes}")
    elif np.abs(at_zero[0] - np.asarray(modes)).max() > ORACLE_TOL:
        errs.append(f"band-curve: kpar = 0 samples {at_zero[0]} vs interface modes {modes}")
    return errs


CHECKS = {
    "bands": check_bands,
    "symmetry_report": check_symmetry_report,
    "green_check": check_green_check,
    "interface": check_interface,
    "control": check_control,
    "robustness": check_robustness,
    "band_curve": check_band_curve,
}

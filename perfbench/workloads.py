"""The three benchmark workloads: a CLI config plus subcommands run in order.

No input is random: every subcommand is deterministic and the shift-invert
solves start ``eigsh`` from a fixed vector, so the ``--seed`` of the
benchmark selects nothing and each workload runs the same inputs every time.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str          # metric stem, e.g. "green_check" -> green_check_s
    argv: tuple        # subcommand and flags after the global options
    exit_code: int     # documented exit code of a correct run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict       # partial config; every other key keeps its CLI default
    commands: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "study-d050",
            "default delta=0.05 interface study: the green and matching layers do "
            "almost all the work; bulk subcommands guard green-check against search-only gains",
            {},
            (
                Command("bands", ("bands",), 0),
                Command("symmetry_report", ("symmetry-report",), 0),
                Command("green_check", ("green-check",), 0),
                Command("interface", ("interface", "--oracle"), 0),
                # the inversion-free control: same search, no zero to bracket
                Command("control", ("interface", "--no-inversion", "--oracle"), 4),
            ),
        ),
        Workload(
            "robustness-d025",
            "delta=0.025 robustness on L=8,16 periodized strips: strip assembly and "
            "sector shift-invert solves take about two thirds of the time",
            {
                "delta": 0.025,
                "perturbation": {"kind": "compact", "amplitude": 2e-5},
                "robustness": {"L_values": [8, 16]},
                "truncation": {"strip_t0": 80},
            },
            (Command("robustness", ("robustness",), 0),),
        ),
        Workload(
            "band-curve-d025",
            "delta=0.025 band curve: 41 direct-oracle sparse solves and no resolvent, "
            "so resolvent-path changes must leave it unchanged",
            {"delta": 0.025},
            (Command("band_curve", ("band-curve",), 0),),
        ),
    )
}

"""Deterministic CSV/JSON emission helpers.

CSV cells use 17 significant digits with '.' as the decimal separator and
RFC 4180 quoting; every emitted table gets a sibling ``<name>.meta.json``
carrying the tolerance metadata of the producing module.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path, header, rows, meta: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    write_json(path.with_suffix(path.suffix + ".meta.json"), meta)
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_complex_csv(path, key_header, keys, arrays, meta: dict) -> Path:
    """One row per key: its integers, then re and im of each entry of its array, row-major.

    Entry columns are named by their index digits: ``re0, im0, ..., im5`` for
    arrays of shape (6,), ``re00, im00, ..., im55`` for arrays of shape (6, 6).
    """
    digits = ["".join(map(str, ix)) for ix in np.ndindex(np.shape(arrays[0]))]
    header = [*key_header, *(part + d for d in digits for part in ("re", "im"))]
    rows = [[*key, *np.stack([z.real, z.imag], -1).ravel()]
            for key, z in zip(keys, map(np.ravel, arrays))]
    return write_csv(path, header, rows, meta)

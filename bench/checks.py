"""Output checks: read a run's files, compare cells with a reference.

A cell is one (N, seed, task).  Scan tasks store one value per cell in
``summary.json`` and ``<task>.csv``; the ``effective`` task stores one
3x3 matrix per cell in ``effective.csv`` and per-N mean matrices in
``summary.json``.  A cell fails when its value is missing or not finite,
or when it differs from the reference of its workload and seed by more
than the task's tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

# Relative tolerances per task, none looser than tests/ uses for the same
# quantity: h1 as the h1 oracle test (1e-10), h2 as the ascent-value oracle
# test (1e-6), log moment as its reference tests (1e-12).  The cluster
# moment is a seeded Monte-Carlo mean of exact diameters, so it must
# reproduce to rounding.  Network tensor entries are relative to the
# largest entry of the cell's matrix (the diagonal oracle test uses 1e-10).
TOLERANCES = {
    "h1": 1e-10,
    "h2": 1e-6,
    "logmoment": 1e-12,
    "clustermoment": 1e-12,
    "effective": 1e-10,
}


def derive_cell_seed(base_seed: int, N: float, seed_index: int) -> int:
    """The per-cell seed contract of ``stiffnet.criteria.derive_cell_seed``."""
    key = f"{int(base_seed)}|{float(N)!r}|{int(seed_index)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _number(text):
    return math.nan if text in (None, "null") else float(text)


def read_outputs(out_dir) -> dict:
    """Per-task cells ``[N, seed, value...]`` plus the effective mean matrices.

    Raises ValueError when the files disagree with each other or with the
    seeding contract; these are whole-run failures, not cell failures.
    """
    out = Path(out_dir)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    spec = summary["spec"]
    outputs = {}
    for task in spec["tasks"]:
        with open(out / f"{task}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = [[float(r[0]), int(r[1])] + [_number(v) for v in r[2:]]
                 for r in rows]
        expected_seeds = [[derive_cell_seed(spec["base_seed"], N, k)
                           for k in range(spec["n_seeds"])]
                          for N in spec["N_grid"]]
        if summary["seeds_used"][task] != expected_seeds:
            raise ValueError(f"{task}: cell seeds differ from the seeding contract")
        if [c[:2] for c in cells] != [[float(N), s] for N, seeds in
                                      zip(spec["N_grid"], expected_seeds)
                                      for s in seeds]:
            raise ValueError(f"{task}.csv: cells out of grid order")
        if task == "effective":
            outputs["effective.mean_matrices"] = [
                [[_number(v) for v in row] for row in m]
                for m in summary["tasks"][task]["mean_matrices"]]
        else:
            values = [_number(v) for vals in summary["tasks"][task]["values"]
                      for v in vals]
            csv_values = [c[2] for c in cells]
            if not all(a == b or (math.isnan(a) and math.isnan(b))
                       for a, b in zip(values, csv_values)):
                raise ValueError(f"{task}: CSV and summary.json values differ")
        outputs[task] = cells
    return outputs


def output_digest(out_dir) -> str:
    """SHA-256 over the names and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{int(seed)}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _close(value, ref, tol, scale):
    return math.isfinite(value) and abs(value - ref) <= tol * scale


def check_cells(outputs: dict, reference):
    """(cells attempted, one message per failed cell, whole-run problems).

    With ``reference`` None only finiteness is checked; the caller reports
    the value check as skipped.
    """
    attempted, failures, problems = 0, [], []
    for task, cells in outputs.items():
        if task == "effective.mean_matrices":
            continue
        ref_cells = reference["tasks"][task] if reference else None
        if ref_cells is not None and len(ref_cells) != len(cells):
            problems.append(f"{task}: {len(cells)} cells, reference has "
                            f"{len(ref_cells)}")
            ref_cells = None
        for i, cell in enumerate(cells):
            attempted += 1
            values = cell[2:]
            label = f"{task} N={cell[0]} seed={cell[1]}"
            if not all(math.isfinite(v) for v in values):
                failures.append(f"{label}: not finite")
            elif ref_cells is not None:
                ref = ref_cells[i][2:]
                scale = max(abs(v) for v in ref) if task == "effective" else None
                if not all(_close(v, r, TOLERANCES[task],
                                  scale if scale is not None else abs(r))
                           for v, r in zip(values, ref)):
                    failures.append(f"{label}: {values} differs from "
                                    f"reference {ref}")
    if reference and "effective.mean_matrices" in outputs:
        for m, ref in zip(outputs["effective.mean_matrices"],
                          reference["tasks"]["effective.mean_matrices"]):
            flat, ref_flat = sum(m, []), sum(ref, [])
            scale = max(abs(v) for v in ref_flat)
            if not all(_close(v, r, TOLERANCES["effective"], scale)
                       for v, r in zip(flat, ref_flat)):
                problems.append(f"effective mean matrix {m} differs from "
                                f"reference {ref}")
    return attempted, failures, problems

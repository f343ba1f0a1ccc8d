"""Record reference outputs that later runs are checked against.

    python3 bench/record_references.py --workload all --seeds 0 1 2

Runs each workload once per seed, exactly as run.py does, and writes the
per-cell values and effective matrices to
``bench/references/<workload>/seed-<n>.json``.  Record references only
from a commit whose outputs are trusted; a run with a failed cell writes
nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from checks import read_outputs, reference_path
from run import Runner, scratch_dir
from workloads import WORKLOADS


def record(workload: str, seed: int) -> Path:
    with scratch_dir(f"ref-{workload}-") as work:
        child = Runner(workload, seed, work).child("run", "reference")
        outputs = read_outputs(child["out_dir"])
    for task, cells in outputs.items():
        flat = json.dumps(cells)
        if "NaN" in flat or "Infinity" in flat:
            raise ValueError(f"{workload} seed {seed}: {task} has failed cells")
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "seed": seed, "tasks": outputs}
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        for seed in args.seeds:
            print(record(workload, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``stiffnet`` experiment runs, end to end and per layer.

    python3 bench/run.py --workload lattice_scan --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  Every ``run_experiment`` call runs in a
fresh interpreter (bench/child.py) with ``src`` on ``PYTHONPATH``, so the
program is measured from source as a user runs it.

Each invocation first starts one untimed warm-up interpreter that imports
the package and loads the spec, which compiles the ``.pyc`` files and
fills the page cache; nothing else carries over between fresh
interpreters.  ``--trace 0`` then times set-up alone a few times, makes
timed runs until ``--seconds`` are spent, and reports the medians of the
end-to-end metrics in BENCHMARK.json.  ``--trace 1`` makes
pairs of an untraced and a traced run and reports the per-layer metrics
of BENCHMARK.json from the traced run's spans (bench/tracer.py).

Every run's outputs are checked (bench/checks.py) and a result file with
the environment goes to ``--results``.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_cells, load_reference, output_digest, read_outputs  # noqa: E402
from workloads import WORKLOADS, spec_for  # noqa: E402

SETUP_SAMPLES = 3       # set-up-only interpreters per --trace 0 run
CHILD_TIMEOUT_S = 150   # one child; a whole run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here or a child failed."""


def benchmark_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tail_percentile(samples):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, None
    ordered = sorted(samples)
    return f"p{math.floor(100.0 * (n - 10) / n)}", ordered[n - 11]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest() -> str:
    """SHA-256 of the package sources; identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Starts children for one workload inside a scratch directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.threads = WORKLOADS[workload]["threads"]
        self.blas_threads = max(1, nproc() // self.threads)
        self.work = work
        self.spec_path = work / "spec.json"
        self.spec_path.write_text(json.dumps(spec_for(workload, seed)),
                                  encoding="utf-8")
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        blas = str(self.blas_threads)
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""),
                        OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas,
                        MKL_NUM_THREADS=blas)

    def child(self, mode: str, name: str) -> dict:
        """Run bench/child.py once; returns its result plus the output dir."""
        out_dir = self.work / name
        result_path = self.work / f"{name}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.spec_path),
               str(out_dir), str(self.threads), mode, str(result_path)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: child exceeded {CHILD_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{name}: child exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["out_dir"] = out_dir
        return result


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under ``.bench_work`` in the checkout, removed after."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=work_root))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_loop(seconds: float, step):
    """Call ``step(k)`` until ``seconds`` are spent; at least once.

    Another step starts only if the longest step so far still fits, so a
    run measures at most about ``seconds`` after its first step.
    """
    start = time.perf_counter()
    longest, k, results = 0.0, 0, []
    while True:
        t0 = time.perf_counter()
        results.append(step(k))
        longest = max(longest, time.perf_counter() - t0)
        k += 1
        if time.perf_counter() - start + longest > seconds:
            return results


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, names, output_bytes) -> dict:
    """Per-layer metrics of one traced run, summed over the workload.

    A span's self time is its duration minus the union of its children's
    intervals.  ``*_frac`` counters are pooled ratios over all calls.
    """
    children = defaultdict(list)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    for i, (name, t0, t1, _, counters) in enumerate(spans):
        self_s[name] += (t1 - t0) - _union_length(children[i], t0, t1)
        calls[name] += 1
        for key, value in (counters or {}).items():
            counts[name][key] += value
    ratios = {"kept_frac": ("kept", "input"),
              "largest_frac": ("largest", "nodes")}
    metrics = {}
    for metric in names:
        layer, field = metric.rsplit(".", 1)
        if metric == "cli.output_bytes":
            value = output_bytes
        elif field == "self_s":
            value = self_s[layer]
        elif field == "calls":
            value = calls[layer]
        elif field in ratios:
            num, den = ratios[field]
            value = (counts[layer][num] / counts[layer][den]
                     if counts[layer][den] else 0.0)
        else:
            value = counts[layer][field]
        metrics[metric] = value
    return metrics


class Checker:
    """Output checks over all runs of one benchmark invocation."""

    def __init__(self, workload: str, seed: int):
        self.reference = load_reference(workload, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, name: str, child: dict):
        try:
            outputs = read_outputs(child["out_dir"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.problems.append(f"{name}: unreadable outputs: {exc}")
            return
        attempted, failures, problems = check_cells(outputs, self.reference)
        self.attempted += attempted
        self.failures += [f"{name}: {f}" for f in failures]
        self.problems += [f"{name}: {p}" for p in problems]
        self.digests[name] = output_digest(child["out_dir"])

    def same_outputs(self, a: str, b: str, what: str):
        if a in self.digests and self.digests[a] != self.digests.get(b):
            self.problems.append(f"{b}: outputs differ from {a} ({what})")

    @property
    def value_check(self) -> str:
        if self.reference is None:
            return "skipped: no reference for this seed"
        return "passed" if not self.failures and not self.problems else "failed"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 config: dict) -> dict:
    with scratch_dir(f"{workload}-") as work:
        runner = Runner(workload, seed, work)
        checker = Checker(workload, seed)
        runner.child("setup", "warmup-setup")
        samples = defaultdict(list)
        metrics = {}
        if not trace:
            for k in range(SETUP_SAMPLES):
                samples["setup_s"].append(runner.child("setup", f"setup-{k}")["setup_s"])

            def step(k):
                res = runner.child("run", f"run-{k}")
                checker.check(f"run-{k}", res)
                checker.same_outputs("run-0", f"run-{k}", "determinism")
                return res

            runs = timed_loop(seconds, step)
            for res in runs:
                for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
                    samples[key].append(res[key])
            environment = runs[0]["environment"]
            for m in config["end_to_end"]:
                metrics[m["name"]] = statistics.median(samples[m["name"]])
        else:
            names = [m["name"] for m in config["per_layer"]]

            def step(k):
                plain = runner.child("run", f"plain-{k}")
                traced = runner.child("trace", f"traced-{k}")
                checker.check(f"plain-{k}", plain)
                checker.check(f"traced-{k}", traced)
                checker.same_outputs(f"plain-{k}", f"traced-{k}",
                                     "tracing must not change outputs")
                out_bytes = sum(p.stat().st_size
                                for p in traced["out_dir"].iterdir())
                return plain, traced, layer_metrics(traced["spans"], names,
                                                    out_bytes)

            pairs = timed_loop(seconds, step)
            plain_wall = statistics.median(p["wall_s"] for p, _, _ in pairs)
            traced_wall = statistics.median(t["wall_s"] for _, t, _ in pairs)
            samples["wall_s"] = [p["wall_s"] for p, _, _ in pairs]
            samples["traced_wall_s"] = [t["wall_s"] for _, t, _ in pairs]
            environment = pairs[0][0]["environment"]
            for name in names:
                if name == "trace.overhead_frac":
                    metrics[name] = traced_wall / plain_wall - 1.0
                else:
                    metrics[name] = statistics.median(m[name] for _, _, m in pairs)

    failed = len(checker.failures)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": {
            "nproc": nproc(),
            "workers": runner.threads,
            "blas_threads": runner.blas_threads,
            **environment,
            "git_commit": git_commit(),
            "src_sha256": src_digest(),
        },
        "samples": dict(samples),
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": failed,
        "failed_frac": failed / checker.attempted if checker.attempted else 1.0,
        "value_check": checker.value_check,
        "failures": checker.failures,
        "problems": checker.problems,
        "correct": failed == 0 and not checker.problems and checker.attempted > 0,
    }


def _units(config, trace):
    group = config["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def print_report(result: dict, config: dict):
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  nproc {env['nproc']}  "
          f"workers {env['workers']}  BLAS threads {env['blas_threads']}  "
          f"commit {env['git_commit'][:12]}")
    units = _units(config, result["trace"])
    for name, value in result["metrics"].items():
        line = f"  {name:<44} {value:>14.6g} {units[name]}"
        values = result["samples"].get(name)
        if values:
            label, tail = tail_percentile(values)
            line += f"   median of n={len(values)}"
            line += f", {label} {tail:.6g}" if label else " (no tail percentile below n=11)"
        print(line)
    print(f"  {'failed_frac':<44} {result['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} cells)")
    print(f"  value check: {result['value_check']}")
    for msg in result["failures"] + result["problems"]:
        print(f"  FAIL {msg}")


def write_result(result: dict, results_dir: Path):
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / (f"{result['workload']}-seed{result['seed']}-"
                          f"trace{result['trace']}-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=ROOT / ".bench_results",
                        help="directory for result files")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that subprocess.run kills and reaps
    # the running child and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "stiffnet" / "cli.py").is_file():
        print(f"error: no stiffnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = benchmark_config()
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, seconds, bool(args.trace),
                                  config)
            write_result(result, args.results)
            print_report(result, config)
            results.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    units = _units(config, args.trace)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, value in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner and command-line interface.

An experiment file is a JSON document (with a ``"version"`` field)
describing a model, a box grid, seeds and a set of tasks; ``run_experiment``
executes every task, writes one CSV per task plus a JSON summary, and
returns a record carrying the spec hash, the seeds used and per-task wall
clock.  Outputs are deterministic: identical specs produce byte-identical
files regardless of the worker count.

Subcommands: generate, graph, energy, criteria, effective, keller, run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import (
    CriterionSeries,
    H2Options,
    derive_cell_seed,
    generate_model,
    h1_statistic,
    scan_limsup,
)
from .effective import EffectiveSeries, effective_scan, network_effective_tensor
from .energy import (
    BoundaryFamily,
    KellerParams,
    SolverOptions,
    affine_boundary_family,
    keller_energy,
    midpoint_boundary_family,
    minimize_energy,
)
from .geometry import SphereConfig, components, restrict_box
from .multigraph import InclusionGraph, build_graph

__all__ = [
    "SchemaError",
    "ValidationError",
    "ExperimentSpec",
    "ResultRecord",
    "run_experiment",
    "roundtrip",
    "save_json",
    "load_json",
    "dumps_17g",
    "main",
]

TASKS = ("h1", "h2", "logmoment", "clustermoment", "effective", "keller")

EXIT_OK = 0
EXIT_CELL_ERRORS = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3


class SchemaError(ValueError):
    """A document does not match its expected schema."""


class ValidationError(ValueError):
    """An experiment spec parsed but is not executable."""


# ---------------------------------------------------------------------------
# Serialization: floats with 17 significant digits, exact round trips
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"   # JSON has no non-finite literals; failed cells
    return format(x, ".17g")


def dumps_17g(obj) -> str:
    """JSON with floats written at 17 significant digits."""
    parts: list[str] = []
    _write_json(obj, parts)
    return "".join(parts)


def _write_json(obj, parts):
    if isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(k)))
            parts.append(": ")
            _write_json(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _write_json(v, parts)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def save_json(obj, path):
    """Write a configuration or graph to disk (17-digit floats)."""
    if isinstance(obj, SphereConfig):
        doc = obj.to_dict()
    elif isinstance(obj, InclusionGraph):
        doc = obj.to_dict()
    elif isinstance(obj, dict):
        doc = obj
    else:
        raise TypeError(f"cannot save {type(obj).__name__}")
    Path(path).write_text(dumps_17g(doc) + "\n", encoding="utf-8")


def load_json(path, kind=None):
    """Load a configuration or graph; ``kind`` forces the schema.

    Without ``kind`` the schema is inferred from the document's fields.
    Raises SchemaError on malformed documents; never returns a partial
    object.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    if kind is None:
        if isinstance(data, dict) and "spheres" in data:
            kind = "config"
        elif isinstance(data, dict) and "nodes" in data and "edges" in data:
            kind = "graph"
        else:
            raise SchemaError("document is neither a configuration nor a graph")
    if kind == "config":
        return SphereConfig.from_dict(data)
    if kind == "graph":
        return InclusionGraph.from_dict(data)
    raise ValueError(f"unknown kind {kind!r}")


def roundtrip(obj, path):
    """Save then load; the result must equal the input exactly."""
    save_json(obj, path)
    kind = "config" if isinstance(obj, SphereConfig) else "graph"
    loaded = load_json(path, kind=kind)
    if loaded != obj:
        raise SchemaError(f"roundtrip through {path} did not reproduce the object")
    return loaded


# ---------------------------------------------------------------------------
# Experiment spec and result record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment: model, grid, tasks and their parameters."""

    version: int
    model: str
    model_params: dict
    delta: float
    N_grid: tuple[float, ...]
    n_seeds: int
    base_seed: int
    tasks: tuple[str, ...]
    task_params: dict = field(default_factory=dict)
    out_dir: str = "results"

    @classmethod
    def from_dict(cls, data) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise SchemaError("experiment spec must be a JSON object")
        if "version" not in data:
            raise SchemaError("experiment spec missing 'version'")
        required = ["model", "delta", "N_grid", "n_seeds", "base_seed", "tasks"]
        missing = [k for k in required if k not in data]
        if missing:
            raise SchemaError(f"experiment spec missing fields: {missing}")
        spec = cls(
            version=int(data["version"]),
            model=str(data["model"]),
            model_params=dict(data.get("model_params", {})),
            delta=float(data["delta"]),
            N_grid=tuple(float(v) for v in data["N_grid"]),
            n_seeds=int(data["n_seeds"]),
            base_seed=int(data["base_seed"]),
            tasks=tuple(str(t) for t in data["tasks"]),
            task_params=dict(data.get("task_params", {})),
            out_dir=str(data.get("out_dir", "results")),
        )
        spec.validate()
        return spec

    def validate(self):
        if self.version != 1:
            raise ValidationError(f"unsupported spec version {self.version}")
        if not self.tasks:
            raise ValidationError("tasks must be a nonempty subset of "
                                  f"{TASKS}")
        unknown = [t for t in self.tasks if t not in TASKS]
        if unknown:
            raise ValidationError(f"unknown tasks: {unknown}")
        if self.model not in ("hardcore", "lattice", "chains") and \
                set(self.tasks) != {"keller"}:
            raise ValidationError(f"unknown model {self.model!r}")
        needs_grid = [t for t in self.tasks if t != "keller"]
        if needs_grid:
            if len(self.N_grid) < 3:
                raise ValidationError("N_grid needs at least 3 entries")
            if any(b <= a for a, b in zip(self.N_grid, self.N_grid[1:])):
                raise ValidationError("N_grid must be strictly increasing")
            if self.n_seeds < 1:
                raise ValidationError("n_seeds must be >= 1")
        if not (0.0 < self.delta < 1.0) and needs_grid:
            raise ValidationError("delta must lie in (0, 1)")

    def to_dict(self):
        return {
            "version": self.version,
            "model": self.model,
            "model_params": self.model_params,
            "delta": self.delta,
            "N_grid": list(self.N_grid),
            "n_seeds": self.n_seeds,
            "base_seed": self.base_seed,
            "tasks": list(self.tasks),
            "task_params": self.task_params,
            "out_dir": self.out_dir,
        }

    def hash(self) -> str:
        return hashlib.sha256(dumps_17g(self.to_dict()).encode()).hexdigest()


@dataclass
class ResultRecord:
    """Everything an experiment produced, with provenance."""

    spec_hash: str
    tool_version: str
    task_outputs: dict
    seeds_used: dict
    wall_clock: dict
    cell_errors: tuple[str, ...] = ()

    @property
    def ok(self):
        return not self.cell_errors


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _keller_table(params: dict):
    """Rows over the nu grid plus the slope of the closed form vs ln(1/nu)."""
    a = float(params.get("a", 1.0))
    d = float(params.get("d", 1.0))
    gamma = float(params.get("gamma", 1.0))
    nu_grid = [float(v) for v in params.get(
        "nu_grid", (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))]
    rows = []
    for nu in nu_grid:
        out = keller_energy(KellerParams(a=a, nu=nu, d=d, gamma=gamma))
        rows.append((nu, out["z_closed_form"], out["z_quadrature"],
                     out["full_quadrature"], out["weighted_quadrature"]))
    x = np.log(1.0 / np.array(nu_grid))
    y = np.array([r[1] for r in rows])
    slope = float(np.polyfit(x, y, 1)[0]) if len(rows) > 1 else math.nan
    return rows, slope


def _scan_statistic_params(spec: ExperimentSpec, task: str) -> dict:
    tp = spec.task_params
    params: dict = {}
    if task == "h1":
        params["xi"] = tuple(tp.get("xi", (1.0, 0.0, 0.0)))
    elif task == "h2":
        opts = H2Options(
            s=float(tp.get("s", 4.0)),
            n_starts=int(tp.get("n_starts", 16)),
            max_ascent_iters=int(tp.get("max_ascent_iters", 500)),
            tol=float(tp.get("tol", 1e-8)),
            seed=spec.base_seed,
        )
        params["opts"] = opts
        if tp.get("kappa") is not None:
            params["kappa"] = float(tp["kappa"])
    elif task == "logmoment":
        params["k"] = float(tp.get("k", 2.0))
        if tp.get("kappa") is not None:
            params["kappa"] = float(tp["kappa"])
    elif task == "clustermoment":
        params["p"] = float(tp.get("p", 2.0))
        params["n_samples"] = int(tp.get("n_samples", 2000))
        params["quantity"] = str(tp.get("quantity", "diam"))
    return params


def run_experiment(spec, out_dir=None, threads=1) -> ResultRecord:
    """Execute every task of a spec; write CSVs and a JSON summary.

    ``spec`` may be a path to a JSON spec file or an ExperimentSpec.
    Partial results are written even when some cells error.
    """
    if not isinstance(spec, ExperimentSpec):
        try:
            data = json.loads(Path(spec).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot parse spec: {exc}") from None
        spec = ExperimentSpec.from_dict(data)

    out = Path(out_dir if out_dir is not None else spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model_params = {"model": spec.model, **spec.model_params}
    task_outputs: dict = {}
    seeds_used: dict = {}
    wall_clock: dict = {}
    cell_errors: list[str] = []

    def _run_task(task):
        t0 = time.perf_counter()
        if task == "keller":
            rows, slope = _keller_table(spec.task_params.get("keller", {}))
            result = {"rows": rows, "slope": slope}
        elif task == "effective":
            series = effective_scan(
                model_params, spec.delta, spec.N_grid, spec.n_seeds,
                layer_width=spec.task_params.get("layer_width"),
                base_seed=spec.base_seed)
            result = series
        else:
            series = scan_limsup(
                model_params, spec.delta, spec.N_grid, spec.n_seeds,
                statistic_selector=task,
                statistic_params=_scan_statistic_params(spec, task),
                base_seed=spec.base_seed)
            result = series
        return task, result, time.perf_counter() - t0

    if threads > 1 and len(spec.tasks) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_task, spec.tasks))
    else:
        results = [_run_task(t) for t in spec.tasks]
    results.sort(key=lambda r: spec.tasks.index(r[0]))

    for task, result, elapsed in results:
        wall_clock[task] = elapsed
        if task == "keller":
            task_outputs[task] = {
                "rows": [[float(v) for v in row] for row in result["rows"]],
                "slope": result["slope"],
            }
            _write_csv(out / "keller.csv",
                       ("nu", "z_closed_form", "z_quadrature",
                        "full_quadrature", "weighted_quadrature"),
                       result["rows"])
        elif task == "effective":
            series: EffectiveSeries = result
            _write_csv(out / "effective.csv",
                       ("N", "seed", "a11", "a22", "a33", "a12", "a13", "a23"),
                       series.to_rows())
            task_outputs[task] = {
                "mean_matrices": [[[float(v) for v in row] for row in m]
                                  for m in series.mean_matrices],
                "frobenius_stderrs": [float(v) for v in series.frobenius_stderrs],
            }
            seeds_used[task] = [list(s) for s in series.seeds]
            cell_errors.extend(series.errors)
        else:
            series: CriterionSeries = result
            _write_csv(out / f"{task}.csv", ("N", "seed", "value"),
                       series.to_rows())
            task_outputs[task] = series.to_summary_dict()
            seeds_used[task] = [list(s) for s in series.seeds]
            cell_errors.extend(series.errors)

    record = ResultRecord(
        spec_hash=spec.hash(),
        tool_version=__version__,
        task_outputs=task_outputs,
        seeds_used=seeds_used,
        wall_clock=wall_clock,
        cell_errors=tuple(cell_errors),
    )
    summary = {
        "spec_hash": record.spec_hash,
        "tool_version": record.tool_version,
        "spec": spec.to_dict(),
        "tasks": task_outputs,
        "seeds_used": seeds_used,
        "cell_errors": list(record.cell_errors),
    }
    Path(out / "summary.json").write_text(dumps_17g(summary) + "\n",
                                          encoding="utf-8")
    return record


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _parse_xi(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("xi must be three comma-separated floats")
    return tuple(parts)


def _add_model_arguments(p, require_N=True):
    p.add_argument("--model", required=True,
                   choices=("hardcore", "lattice", "chains"))
    p.add_argument("--N", type=float, required=require_N)
    p.add_argument("--intensity", type=float, default=0.02)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--min-gap", type=float, default=0.2)
    p.add_argument("--spacing", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--chain-len-max", type=int, default=8)
    p.add_argument("--gap-min", type=float, default=0.01)
    p.add_argument("--gap-max", type=float, default=0.1)


def _model_params_from_args(args):
    if args.model == "hardcore":
        return {"intensity": args.intensity, "radius": args.radius,
                "min_gap": args.min_gap}
    if args.model == "lattice":
        return {"spacing": args.spacing, "radius": args.radius,
                "jitter": args.jitter}
    return {"radius": args.radius, "chain_len_max": args.chain_len_max,
            "gap_range": (args.gap_min, args.gap_max)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stiffnet",
        description="Gap networks of sphere configurations: generation, "
                    "energies, homogenization criteria, effective tensors.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a configuration")
    _add_model_arguments(p_gen)

    p_graph = sub.add_parser("graph", help="build the gap multigraph")
    p_graph.add_argument("--config", required=True)
    p_graph.add_argument("--delta", type=float, required=True)

    p_energy = sub.add_parser("energy", help="minimize the energy on a graph")
    p_energy.add_argument("--graph", required=True)
    p_energy.add_argument("--family", choices=("affine", "midpoint"),
                          default="affine")
    p_energy.add_argument("--xi", type=_parse_xi, default=(1.0, 0.0, 0.0))

    p_crit = sub.add_parser("criteria", help="scan a criterion statistic")
    _add_model_arguments(p_crit, require_N=False)
    p_crit.add_argument("--statistic", required=True,
                        choices=("h1", "h2", "logmoment", "clustermoment",
                                 "density"))
    p_crit.add_argument("--delta", type=float, required=True)
    p_crit.add_argument("--N-grid", type=str, required=True,
                        help="comma-separated box half-widths")
    p_crit.add_argument("--n-seeds", type=int, default=4)
    p_crit.add_argument("--s", type=float, default=4.0)
    p_crit.add_argument("--k", type=float, default=2.0)
    p_crit.add_argument("--p", type=float, default=2.0)
    p_crit.add_argument("--xi", type=_parse_xi, default=(1.0, 0.0, 0.0))

    p_eff = sub.add_parser("effective", help="network tensor scan")
    _add_model_arguments(p_eff, require_N=False)
    p_eff.add_argument("--delta", type=float, required=True)
    p_eff.add_argument("--N-grid", type=str, required=True)
    p_eff.add_argument("--n-seeds", type=int, default=1)
    p_eff.add_argument("--layer-width", type=float, default=None)

    p_keller = sub.add_parser("keller", help="gap-profile energy table")
    p_keller.add_argument("--a", type=float, default=1.0)
    p_keller.add_argument("--d", type=float, default=1.0)
    p_keller.add_argument("--gamma", type=float, default=1.0)
    p_keller.add_argument("--nu-grid", type=str,
                          default="1e-2,1e-3,1e-4,1e-5,1e-6")

    p_run = sub.add_parser("run", help="run an experiment spec file")
    p_run.add_argument("--spec", required=True)

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


def _emit(args, payload: dict, default_name: str):
    text = dumps_17g(payload) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dispatch(args) -> int:
    if args.command == "generate":
        config = generate_model(args.model, _model_params_from_args(args),
                                args.N, args.seed)
        if args.out:
            save_json(config, args.out)
        else:
            sys.stdout.write(dumps_17g(config.to_dict()) + "\n")
        return EXIT_OK

    if args.command == "graph":
        config = load_json(args.config, kind="config")
        restricted = restrict_box(config, config.box_half_width)
        graph = build_graph(components(restricted), restricted, args.delta)
        if args.out:
            save_json(graph, args.out)
        else:
            sys.stdout.write(dumps_17g(graph.to_dict()) + "\n")
        return EXIT_OK

    if args.command == "energy":
        graph = load_json(args.graph, kind="graph")
        family = (affine_boundary_family if args.family == "affine"
                  else midpoint_boundary_family)
        b = family(graph, args.xi)
        _, breakdown = minimize_energy(graph, b)
        _emit(args, {"gap": breakdown.gap, "mass": breakdown.mass,
                     "total": breakdown.total}, "energy.json")
        return EXIT_OK

    if args.command == "criteria":
        N_grid = [float(v) for v in args.N_grid.split(",")]
        model_params = {"model": args.model, **_model_params_from_args(args)}
        statistic_params = {"xi": args.xi, "s": args.s, "k": args.k,
                            "p": args.p}
        if args.statistic == "h2":
            statistic_params["opts"] = H2Options(s=args.s, seed=args.seed)
        series = scan_limsup(model_params, args.delta, N_grid, args.n_seeds,
                             args.statistic, statistic_params,
                             base_seed=args.seed)
        if args.format == "csv":
            rows = "\n".join(f"{N},{seed},{value!r}"
                             for N, seed, value in series.to_rows())
            text = "N,seed,value\n" + rows + "\n"
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
        else:
            _emit(args, series.to_summary_dict(), "criteria.json")
        return EXIT_OK

    if args.command == "effective":
        N_grid = [float(v) for v in args.N_grid.split(",")]
        model_params = {"model": args.model, **_model_params_from_args(args)}
        series = effective_scan(model_params, args.delta, N_grid,
                                args.n_seeds, layer_width=args.layer_width,
                                base_seed=args.seed)
        if args.format == "csv":
            header = "N,seed,a11,a22,a33,a12,a13,a23"
            rows = "\n".join(",".join([str(r[0]), str(r[1])]
                                      + [repr(float(v)) for v in r[2:]])
                             for r in series.to_rows())
            text = header + "\n" + rows + "\n"
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
            else:
                sys.stdout.write(text)
        else:
            payload = {
                "N_grid": list(series.N_grid),
                "mean_matrices": [[[float(v) for v in row] for row in m]
                                  for m in series.mean_matrices],
                "frobenius_stderrs": [float(v) for v in series.frobenius_stderrs],
            }
            _emit(args, payload, "effective.json")
        return EXIT_OK

    if args.command == "keller":
        nu_grid = [float(v) for v in args.nu_grid.split(",")]
        rows, slope = _keller_table({"a": args.a, "d": args.d,
                                     "gamma": args.gamma, "nu_grid": nu_grid})
        payload = {
            "rows": [[float(v) for v in row] for row in rows],
            "slope": slope,
        }
        _emit(args, payload, "keller.json")
        return EXIT_OK

    if args.command == "run":
        record = run_experiment(args.spec, out_dir=args.out,
                                threads=args.threads)
        print(f"spec {record.spec_hash[:12]}: "
              f"{len(record.task_outputs)} tasks, "
              f"{len(record.cell_errors)} cell errors")
        return EXIT_OK if record.ok else EXIT_CELL_ERRORS

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

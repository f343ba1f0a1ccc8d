"""Experiment runner and command-line interface.

An experiment file is a JSON document (with a ``"version"`` field)
describing a model, a box grid, seeds and a set of tasks; ``run_experiment``
builds each (N, seed) cell once, evaluates every task on it, writes one
CSV per task plus a JSON summary, and returns a record carrying the spec
hash, the seeds used and ``wall_clock``: the wall time of each cell, keyed
``(N, seed_index)``, covering its build and all its tasks (there is no
per-task time; it is not written to disk).  Outputs are deterministic:
identical specs produce byte-identical files regardless of the worker
count.  The ``criteria`` and ``effective`` subcommands write the same CSV
rows and summary dicts, report each failed cell on stderr and exit 1, as
``run`` does.

Subcommands: generate, graph, energy, criteria, effective, keller, run.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .criteria import (
    MODELS,
    STATISTICS,
    TASK_PARAMS,
    CriterionSeries,
    check_scan_grid,
    generate_model,
    scan_cells,
    scan_limsup,
    task_evaluator,
)
from .effective import EffectiveSeries, effective_scan
from .energy import (
    KellerParams,
    affine_boundary_family,
    keller_energy,
    midpoint_boundary_family,
    minimize_energy,
)
from .geometry import (SchemaError, SphereConfig, _json_int, components,
                       restrict_box)
from .multigraph import InclusionGraph, build_graph

__all__ = [
    "SchemaError",
    "ValidationError",
    "ExperimentSpec",
    "ResultRecord",
    "run_experiment",
    "save_json",
    "load_json",
    "dumps_17g",
    "main",
]

TASKS = tuple(TASK_PARAMS)

EXIT_OK = 0
EXIT_CELL_ERRORS = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3


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
    if isinstance(obj, (SphereConfig, InclusionGraph)):
        obj = obj.to_dict()
    elif not isinstance(obj, dict):
        raise TypeError(f"cannot save {type(obj).__name__}")
    Path(path).write_text(dumps_17g(obj) + "\n", encoding="utf-8")


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


# ---------------------------------------------------------------------------
# Experiment spec and result record
# ---------------------------------------------------------------------------

def _model_parameters(model):
    """The keyword parameters of a model's generator, less seed and N."""
    params = inspect.signature(MODELS[model]).parameters
    return {k: p for k, p in params.items() if k not in ("seed", "N")}


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
        for key, kind in (("N_grid", list), ("tasks", list),
                          ("model_params", dict), ("task_params", dict)):
            if not isinstance(data.get(key, kind()), kind):
                raise SchemaError(
                    f"experiment spec field {key!r} must be a JSON "
                    f"{'list' if kind is list else 'object'}")
        if not isinstance(data.get("task_params", {}).get("keller", {}), dict):
            raise SchemaError("experiment spec field 'task_params.keller' "
                              "must be a JSON object")
        version, n_seeds, base_seed = (
            _json_int(data[key], f"experiment spec field {key!r}")
            for key in ("version", "n_seeds", "base_seed"))
        try:
            spec = cls(
                version=version,
                model=str(data["model"]),
                model_params=dict(data.get("model_params", {})),
                delta=float(data["delta"]),
                N_grid=tuple(float(v) for v in data["N_grid"]),
                n_seeds=n_seeds,
                base_seed=base_seed,
                tasks=tuple(str(t) for t in data["tasks"]),
                task_params=dict(data.get("task_params", {})),
                out_dir=str(data.get("out_dir", "results")),
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(
                f"invalid experiment spec values: {exc}") from None
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
        read = {key for task in self.tasks for key in TASK_PARAMS[task]}
        unread = sorted(set(self.task_params) - read)
        if unread:
            raise ValidationError(f"task_params keys that no task of "
                                  f"{list(self.tasks)} reads: {unread}")
        needs_grid = [t for t in self.tasks if t != "keller"]
        if needs_grid:
            if self.model not in MODELS:
                raise ValidationError(f"unknown model {self.model!r}")
            params = _model_parameters(self.model)
            unknown = sorted(set(self.model_params) - set(params))
            missing = [k for k, p in params.items()
                       if p.default is p.empty and k not in self.model_params]
            if unknown or missing:
                raise ValidationError(
                    f"{self.model} model_params: unknown {unknown}, missing "
                    f"{missing}; the generator takes {list(params)}")
            try:
                check_scan_grid(self.N_grid, self.n_seeds)
            except ValueError as exc:
                raise ValidationError(str(exc)) from None
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


def _csv_text(header, rows) -> str:
    """CSV with a header line; floats in ``repr`` form, exact round trips."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _keller_table(params: dict):
    """Rows over the nu grid and the slope of the closed form vs ln(1/nu)."""
    a = float(params.get("a", 1.0))
    d = float(params.get("d", 1.0))
    gamma = float(params.get("gamma", 1.0))
    nu_grid = [float(v) for v in params.get(
        "nu_grid", (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))]
    rows = []
    for nu in nu_grid:
        out = keller_energy(KellerParams(a=a, nu=nu, d=d, gamma=gamma))
        rows.append([nu, out["z_closed_form"], out["z_quadrature"],
                     out["full_quadrature"], out["weighted_quadrature"]])
    x = np.log(1.0 / np.array(nu_grid))
    y = np.array([r[1] for r in rows])
    slope = float(np.polyfit(x, y, 1)[0]) if len(rows) > 1 else math.nan
    return {"rows": rows, "slope": slope}


def run_experiment(spec, out_dir=None, threads=1) -> ResultRecord:
    """Execute every task of a spec; write CSVs and a JSON summary.

    ``spec`` may be a path to a JSON spec file or an ExperimentSpec.  The
    scan tasks share one pass over the (N, seed) grid, ``threads`` cells at
    a time.  Partial results are written even when some cells error.
    """
    if not isinstance(spec, ExperimentSpec):
        try:
            data = json.loads(Path(spec).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot parse spec: {exc}") from None
        spec = ExperimentSpec.from_dict(data)

    evaluators = {task: task_evaluator(task, spec.task_params, spec.base_seed)
                  for task in spec.tasks if task != "keller"}
    out = Path(out_dir if out_dir is not None else spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    scan = None
    if evaluators:
        scan = scan_cells({"model": spec.model, **spec.model_params},
                          spec.delta, spec.N_grid, spec.n_seeds, evaluators,
                          base_seed=spec.base_seed, threads=threads)

    task_outputs: dict = {}
    seeds_used: dict = {}
    cell_errors: list[str] = []
    for task in spec.tasks:
        if task == "keller":
            table = _keller_table(spec.task_params.get("keller", {}))
            header = ("nu", "z_closed_form", "z_quadrature",
                      "full_quadrature", "weighted_quadrature")
            task_outputs[task], rows = table, table["rows"]
        else:
            series = (EffectiveSeries if task == "effective"
                      else CriterionSeries).from_scan(scan, task)
            header, rows = series.CSV_HEADER, series.to_rows()
            task_outputs[task] = series.to_summary_dict()
            seeds_used[task] = [list(s) for s in series.seeds]
            cell_errors.extend(series.errors)
        (out / f"{task}.csv").write_text(_csv_text(header, rows),
                                         encoding="utf-8")

    record = ResultRecord(
        spec_hash=spec.hash(),
        tool_version=__version__,
        task_outputs=task_outputs,
        seeds_used=seeds_used,
        wall_clock=scan.wall_clock if scan is not None else {},
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
    save_json(summary, out / "summary.json")
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
    p.add_argument("--model", required=True, choices=tuple(MODELS))
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
    given = {**vars(args), "gap_range": (args.gap_min, args.gap_max)}
    return {k: given[k] for k in _model_parameters(args.model) if k in given}


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
    p_crit.add_argument("--statistic", required=True, choices=STATISTICS)
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


def _emit(args, text: str):
    """Write ``text`` to ``--out``, or to stdout without it."""
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _exit_code(cell_errors) -> int:
    """Report each failed cell on stderr; EXIT_CELL_ERRORS if there is one."""
    for message in cell_errors:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_CELL_ERRORS if cell_errors else EXIT_OK


def _dispatch(args) -> int:
    if args.command == "generate":
        config = generate_model(args.model, _model_params_from_args(args),
                                args.N, args.seed)
        for message in config.warnings:
            print(f"warning: {message}", file=sys.stderr)
        _emit(args, dumps_17g(config.to_dict()) + "\n")
        return EXIT_OK

    if args.command == "graph":
        config = load_json(args.config, kind="config")
        restricted = restrict_box(config, config.box_half_width)
        graph = build_graph(components(restricted), restricted, args.delta)
        graph.check_volumes()
        _emit(args, dumps_17g(graph.to_dict()) + "\n")
        return EXIT_OK

    if args.command == "energy":
        graph = load_json(args.graph, kind="graph")
        family = (affine_boundary_family if args.family == "affine"
                  else midpoint_boundary_family)
        b = family(graph, args.xi)
        _, breakdown = minimize_energy(graph, b)
        _emit(args, dumps_17g({"gap": breakdown.gap, "mass": breakdown.mass,
                               "total": breakdown.total}) + "\n")
        return EXIT_OK

    if args.command in ("criteria", "effective"):
        N_grid = [float(v) for v in args.N_grid.split(",")]
        model_params = {"model": args.model, **_model_params_from_args(args)}
        if args.command == "criteria":
            statistic_params = {"xi": args.xi, "s": args.s, "k": args.k,
                                "p": args.p}
            series = scan_limsup(model_params, args.delta, N_grid,
                                 args.n_seeds, args.statistic,
                                 statistic_params, base_seed=args.seed,
                                 threads=args.threads)
            payload = series.to_summary_dict()
        else:
            series = effective_scan(model_params, args.delta, N_grid,
                                    args.n_seeds, layer_width=args.layer_width,
                                    base_seed=args.seed, threads=args.threads)
            payload = {"N_grid": list(series.N_grid),
                       **series.to_summary_dict()}
        if args.format == "csv":
            _emit(args, _csv_text(series.CSV_HEADER, series.to_rows()))
        else:
            _emit(args, dumps_17g(payload) + "\n")
        return _exit_code(series.errors)

    if args.command == "keller":
        nu_grid = [float(v) for v in args.nu_grid.split(",")]
        table = _keller_table({"a": args.a, "d": args.d, "gamma": args.gamma,
                               "nu_grid": nu_grid})
        _emit(args, dumps_17g(table) + "\n")
        return EXIT_OK

    if args.command == "run":
        record = run_experiment(args.spec, out_dir=args.out,
                                threads=args.threads)
        print(f"spec {record.spec_hash[:12]}: "
              f"{len(record.task_outputs)} tasks, "
              f"{len(record.cell_errors)} cell errors")
        return _exit_code(record.cell_errors)

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

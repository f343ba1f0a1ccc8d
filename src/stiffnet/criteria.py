"""Homogenization-criterion statistics over growing boxes.

Two normalized quantities drive everything:

* the affine statistic: (1/|Q_N|) inf_u E(u, affine family), finite in the
  large-box limit exactly when the configuration admits a homogenized
  matrix,
* the family-uniform ratio: sup over boundary families of
  inf_u E(u, b) / ( |Q_N| ((1/|Q_N|) S_s(b))^(2/s) ), whose boundedness is
  the sufficient criterion for homogenization.  Here S_s(b) counts both
  oriented values of every edge under the same ordered-pair convention as
  the energy: S_s(b) = 2 sum_e (|b_ab|^s + |b_ba|^s).

The ratio reads only Q beta and beta^T Q beta of the condensed form
Q = W - W A K^-1 A^T W, with inf_u E(u, b(beta)) = beta^T Q beta: K =
D + A^T W A is the system matrix, W = diag(2 mu), D = diag(|I|) and A
the edge-node incidence.  By the Woodbury identity Q = P^-1 for the
explicit edge matrix P = W^-1 + A D^-1 A^T, each gap conductance in
series with the mass terms of its two inclusions; P is block diagonal
by cluster.  ``_h2_operator`` builds Q once per graph: from the batched
inverses of P's cluster blocks, with no solve, when every cluster has
fewer than this module's ``DENSE_CUTOFF`` nodes, else as a
``LinearOperator`` with one conjugate-gradient solve of K per product.
Both paths first certify K and P positive definite from the volumes.
At s = 2 the sup is exactly Q's top eigenvalue: batched dense
eigensolves of the blocks, or Lanczos on the operator.

For s > 2 the sup is estimated from below by projected gradient ascent
over antisymmetric families on the unit l_s sphere (the sup is attained
on antisymmetric families: for fixed differences beta the denominator is
minimized by b = (beta/2, -beta/2)).  The energy's gradient is
2 Q beta = 4 mu r, r the gap residuals at the minimizer.  Each step
makes one Q product; Q's linearity scores its trials.  Equal starts
ascend once.

``TASKS`` is the task table: each task's output, and each task
parameter's JSON reader, default and range rule, through which spec files
and subcommands alike read them (``task_evaluator``).  ``scan_cells`` is
the one loop over an (N, seed) grid: it checks the scan's inputs
(``check_scan_grid``, ``check_model``) before any cell, then builds each
cell's configuration and graph once and evaluates every requested task
on it.  ``scan_limsup`` runs one task; a statistic's series has a plateau
estimate, the empirical surrogate for an almost-sure limsup.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import time
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import effective, geometry
from .energy import (
    SOLVE_GATE,
    SOLVE_TOL,
    KellerParams,
    KellerTable,
    LaplacianAssembly,
    SolverError,
    SPDSolver,
    affine_boundary_family,
    midpoint_boundary_family,
    minimize_energy,
)
from .geometry import (
    SchemaError,
    SphereConfig,
    _CLUSTER_MOMENT_RULES,
    _CONTACT_TOL,
    _check_range,
    _json_int,
    _json_number,
    _json_numbers,
    _json_str,
    _near_pairs,
    _once,
    cluster_moment_statistic,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
    restrict_box,
)
from .multigraph import InclusionGraph, build_graph, short_kappa

__all__ = [
    "H2Options",
    "H2Estimate",
    "CriterionSeries",
    "h2_statistic",
    "h2_exact_s2",
    "log_moment_statistic",
    "scan_limsup",
    "scan_cells",
    "TASKS",
    "task_evaluator",
    "ScanCell",
    "CellScan",
    "derive_cell_seed",
    "MODELS",
    "generate_model",
]


@dataclass(frozen=True)
class H2Options:
    """The exponent s of the ratio and controls of its sup ascent.

    The zero family is always excluded from the sup.  ``s = 2`` is allowed
    and solved exactly, as an eigenvalue, so the ascent fields
    (``n_starts``, ``max_ascent_iters``, ``tol``, ``seed``) apply only
    when s > 2; the conjugate exponent s/(s-2) is finite only for s > 2.
    The ascent holds all its starts at once, one value per edge each, so
    ``n_starts`` is at most 256; ``max_ascent_iters`` is at most 10**5.
    """

    s: float = 4.0
    n_starts: int = 16
    max_ascent_iters: int = 500
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (2.0 <= self.s < math.inf):
            raise ValueError("s must be finite and >= 2")
        if not 1 <= self.n_starts <= 256:
            raise ValueError("n_starts must be in [1, 256]")
        if not 1 <= self.max_ascent_iters <= 10 ** 5:
            raise ValueError("max_ascent_iters must be in [1, 10**5]")
        if not (0.0 < self.tol < math.inf):
            raise ValueError("tol must be finite and positive")


@dataclass(frozen=True)
class H2Estimate:
    """Result of the sup estimation.

    At s = 2 ``value`` is the exact sup (``h2_exact_s2``) and
    ``per_start`` is empty.  For s > 2 ``value`` is the best ascent value,
    a lower bound of the sup, and ``per_start`` records every nonzero
    start's final ratio.
    """

    value: float
    per_start: tuple[float, ...]


def _affine_energy_density(graph: InclusionGraph, xi) -> float:
    """inf_u E(u, affine family of xi) / |Q_N| on a built graph."""
    _, breakdown = minimize_energy(graph, affine_boundary_family(graph, xi))
    return breakdown.total / graph.box_volume()


# Graphs whose clusters all have fewer nodes get Q from P's inverted
# blocks; a larger cluster sends the whole graph to the CG operator.
DENSE_CUTOFF = 200


def _edge_blocks(graph: InclusionGraph):
    """Q's cluster blocks as inverses of the edge matrix P, or None.

    P = W^-1 + A D^-1 A^T, D = diag(|I|), is explicit and block diagonal
    by cluster: P_ee = 1/w_e + 1/|I_a| + 1/|I_b|, and P_ef = +-1/|I_v|
    for edges e, f that share node v (+ when v is the same end of both).
    When every cluster has fewer than ``DENSE_CUTOFF`` nodes, returns one
    pair per edge count m: the (k, m) edge ids, ascending, of the k
    clusters with m edges, and their (k, m, m) blocks Q_c = P_c^-1,
    inverted batched.  Otherwise None: the CG path.  On both paths a node
    volume that is not finite and positive raises SchemaError.
    """
    graph.check_volumes()
    _, cluster = graph._node_clusters
    if np.bincount(cluster, minlength=1).max() >= DENSE_CUTOFF:
        return None
    edge_cluster = cluster[graph.a]
    by_cluster = np.argsort(edge_cluster, kind="stable")
    count = np.bincount(edge_cluster)
    start = np.cumsum(count) - count
    inv_w, inv_vol = 1.0 / (2.0 * graph.mu), 1.0 / graph.volumes
    blocks = []
    for m in np.unique(count[count > 0]):
        ids = by_cluster[start[count == m][:, None] + np.arange(m)]
        a, b = graph.a[ids], graph.b[ids]
        P = inv_w[ids][:, :, None] * np.eye(m)
        for x, y, sign in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0),
                           (b, a, -1.0)):
            P += np.where(x[:, :, None] == y[:, None, :],
                          sign * inv_vol[x][:, :, None], 0.0)
        Q = np.linalg.inv(P)
        residual = float(np.abs(P @ Q - np.eye(m)).max())
        if not residual <= SOLVE_GATE:
            raise SolverError(
                f"edge block inverse rejected: max |P Q - I| {residual:.3e} "
                f"exceeds {SOLVE_GATE:.1e}", residual=residual)
        blocks.append((ids, Q))
    return blocks


def _h2_operator(graph: InclusionGraph):
    """The condensed form Q of h2: inf_u E(u, b(beta)) = beta^T Q beta.

    The system matrix K = D + A^T W A does not depend on beta, so Q is
    built once per graph.  When every cluster is small, Q is the sparse
    matrix of ``_edge_blocks``, built with no solve.  Otherwise (a cluster
    of ``DENSE_CUTOFF`` or more nodes) Q is a ``LinearOperator`` whose
    product is W ((beta + u[a]) - u[b]), u = G beta from one certified
    ``SPDSolver.solve``.  beta^T Q beta is the minimal energy:
    stationarity gives A^T W r = -D u, so beta^T W r = r^T W r + u^T D u.
    """
    blocks = _edge_blocks(graph)
    if blocks is None:
        return _cg_operator(graph)
    # Woodbury: Q = W - W A K^-1 A^T W = (W^-1 + A D^-1 A^T)^-1 = P^-1.
    # check_volumes certifies D > 0, which makes K and P positive
    # definite, and each block's |P_c Q_c - I| gate certifies Q_c.
    entries = [(Q.ravel(), np.repeat(ids, ids.shape[1]),
                np.tile(ids, ids.shape[1]).ravel()) for ids, Q in blocks]
    data, rows, cols = ((np.concatenate(column) for column in
                         zip(*entries)) if entries else ((), (), ()))
    return scipy.sparse.csr_matrix((data, (rows, cols)),
                                   shape=(graph.n_edges, graph.n_edges))


def _cg_operator(graph: InclusionGraph):
    """Q of a graph on the CG path, after ``_edge_blocks`` certified it."""
    assembly = LaplacianAssembly(graph)
    solver = SPDSolver(assembly.system_matrix)
    w = 2.0 * graph.mu

    def product(beta):
        beta = np.ravel(beta)
        u = solver.solve(assembly.rhs(beta))
        return w * ((beta + u[graph.a]) - u[graph.b])

    return scipy.sparse.linalg.LinearOperator(
        (graph.n_edges, graph.n_edges), matvec=product, dtype=float)


def h2_exact_s2(graph: InclusionGraph) -> float:
    """Exact sup of the s = 2 ratio: the top eigenvalue of the condensed form.

    The ratio of the family (beta/2, -beta/2) is the Rayleigh quotient
    beta^T Q beta / beta^T beta.  With ``_edge_blocks``: the largest
    batched ``eigvalsh`` of the symmetrised blocks.  Otherwise: the
    quotient, attained, at the vector of one ``eigsh`` Lanczos run (fixed
    start) on Q, each product one certified solve.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    blocks = _edge_blocks(graph)
    if blocks is not None:
        return max(float(np.linalg.eigvalsh(
            0.5 * (Q + Q.transpose(0, 2, 1)))[:, -1].max())
            for _, Q in blocks)
    Q = _cg_operator(graph)
    _, vectors = scipy.sparse.linalg.eigsh(
        Q, k=1, which="LA", tol=SOLVE_TOL,
        v0=np.random.default_rng(0).standard_normal(graph.n_edges))
    beta = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    return float(beta @ (Q @ beta))


def _power_sum(x, s):
    """sum |x|^s, as sum (x^2)^(s/2-1) x^2: at s = 4 no power is taken."""
    x2 = x * x
    return float((x2 ** (0.5 * s - 1.0)) @ x2)


def _ratio_pieces(beta, q_beta, s, denom):
    """(beta^T Q beta, ratio, its gradient) at a unit beta, from Q beta.

    On the unit l_s sphere S_s = 2^(2-s) for the family (beta/2, -beta/2),
    so the ratio is beta^T Q beta / denom, denom = |Q_N|^(1-2/s) 2^(4/s-2),
    with gradient (2/denom) (Q beta - beta^T Q beta |beta|^(s-2) beta): the
    numerator's gradient is 2 Q beta by the envelope theorem.
    """
    num = float(beta @ q_beta)
    grad = (2.0 / denom) * (q_beta - num * (np.abs(beta) ** (s - 2.0) * beta))
    return num, num / denom, grad


def _ascend_from(Q, box_volume, beta0, opts: H2Options):
    """Projected gradient ascent on the unit l_s sphere, backtracking steps.

    One Q product per step, on the unit gradient d: by Q's linearity a
    trial x = beta + t d is scored from its power sum and x^T Q x = beta^T
    Q beta + t (d^T Q beta + beta^T Q d) + t^2 d^T Q d; an accepted one
    moves beta and Q beta.  A fresh product gives the value, free of the
    recurrence's drift.  Returns (value, unit beta), or None if beta0 = 0.
    """
    s = opts.s
    norm = _power_sum(beta0, s) ** (1.0 / s)
    if norm == 0.0:
        return None
    denom = box_volume ** (1.0 - 2.0 / s) * 2.0 ** (4.0 / s - 2.0)
    beta = beta0 / norm
    q_beta = Q @ beta
    step, stall = 1.0, 0
    for _ in range(opts.max_ascent_iters):
        num, value, grad = _ratio_pieces(beta, q_beta, s, denom)
        gnorm = math.sqrt(grad @ grad)
        if gnorm == 0.0:
            break
        d = grad / gnorm
        q_d = Q @ d
        cross, curv = float(d @ q_beta + beta @ q_d), float(d @ q_d)
        trial_step = step
        for _bt in range(30):
            x = beta + trial_step * d
            power = _power_sum(x, s)    # > 0: d is orthogonal to beta
            trial = ((num + trial_step * (cross + trial_step * curv))
                     / (power ** (2.0 / s) * denom))
            if trial > value:
                break
            trial_step *= 0.5
        else:
            break
        norm = power ** (1.0 / s)
        beta, q_beta = x / norm, (q_beta + trial_step * q_d) / norm
        step = min(trial_step * 2.0, 1e6)
        gain = trial - value
        stall = stall + 1 if gain <= opts.tol * max(abs(trial), 1e-30) else 0
        if stall >= 3:
            break
    return float(beta @ (Q @ beta)) / denom, beta


def h2_statistic(graph: InclusionGraph, opts: H2Options) -> H2Estimate:
    """The sup of the ratio over nonzero boundary families.

    At s = 2 it is exact: ``h2_exact_s2``, with no ascent and an empty
    ``per_start``.  For s > 2 it is a multi-start projected gradient
    ascent over antisymmetric families, warm-started from random Gaussian
    families plus the affine and midpoint canonical families along the
    coordinate axes.  The ascent is deterministic, so a start bitwise
    equal to an earlier one (the affine and midpoint starts often are)
    reuses that start's result; ``per_start`` still has one entry per
    nonzero start.  All starts share one Q from ``_h2_operator``, whose
    every product is certified; an ascent makes one per step, and a fresh
    one gives its value, a certified lower bound of the true sup.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges; the sup statistic is undefined")
    if opts.s == 2.0:
        return H2Estimate(value=h2_exact_s2(graph), per_start=())
    rng = np.random.default_rng(opts.seed)
    starts = [rng.normal(size=graph.n_edges) for _ in range(opts.n_starts)]
    for xi in np.eye(3):
        starts.append(affine_boundary_family(graph, xi).antisymmetric_part())
        try:
            starts.append(
                midpoint_boundary_family(graph, xi).antisymmetric_part())
        except ValueError:
            pass    # graph lacks consistent contact geometry; start skipped

    Q = _h2_operator(graph)
    box_volume = graph.box_volume()
    per_start = []
    ascents = {}    # start bytes -> result: equal starts ascend identically
    for beta0 in starts:
        key = beta0.tobytes()
        if key not in ascents:
            ascents[key] = _ascend_from(Q, box_volume, beta0, opts)
        if ascents[key] is not None:    # a zero start is excluded
            per_start.append(ascents[key][0])
    if not per_start:
        raise ValueError("all ascent starts degenerate to the zero family")
    return H2Estimate(value=max(per_start), per_start=tuple(per_start))


# The range rule of log_moment_statistic's k, also the logmoment task's.
_LOG_MOMENT_K = (lambda v: 1.0 <= v < math.inf, "a finite number >= 1")


def log_moment_statistic(graph: InclusionGraph, k: float) -> float:
    """(1/|Q_N|) sum over edges of mu_e^k, each undirected edge once."""
    _check_range(k, _LOG_MOMENT_K, "k")
    return float(np.sum(graph.mu ** k)) / graph.box_volume()


# ---------------------------------------------------------------------------
# Scans over (N, seed) grids
# ---------------------------------------------------------------------------

def derive_cell_seed(base_seed: int, N: float, seed_index: int) -> int:
    """Stable per-cell seed; adding N values never perturbs other cells."""
    key = f"{int(base_seed)}|{float(N)!r}|{int(seed_index)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


# Model name -> generator; each takes ``seed`` and ``N`` plus its model
# parameters as keywords.
MODELS = {"hardcore": generate_hardcore, "lattice": generate_lattice_jitter,
          "chains": generate_chain_forest}
# Model name -> the range check its generator runs first.
_MODEL_RANGES = {"hardcore": geometry.check_hardcore,
                 "lattice": geometry.check_lattice_jitter,
                 "chains": geometry.check_chain_forest}


def _model_parameters(model: str) -> dict:
    """The keyword parameters of a model's generator, less seed and N."""
    params = inspect.signature(MODELS[model]).parameters
    return {k: p for k, p in params.items() if k not in ("seed", "N")}


def check_model(model: str, params: dict, N_grid) -> None:
    """Raise ValueError unless the model's generator takes ``params`` at all N.

    The model must be known, and ``params`` must hold each generator
    parameter without a default and no other key.  Then the generator's
    range check runs at each N and ``contact_tol`` meets SphereConfig's
    rule, both on ``params`` over the generator's defaults.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{sorted(MODELS)}")
    takes = _model_parameters(model)
    unknown = sorted(set(params) - set(takes))
    missing = [k for k, p in takes.items()
               if p.default is p.empty and k not in params]
    if unknown or missing:
        raise ValueError(f"{model} model_params: unknown {unknown}, missing "
                         f"{missing}; the generator takes {list(takes)}")
    values = {**{k: p.default for k, p in takes.items()}, **params}
    _check_range(values["contact_tol"], _CONTACT_TOL, "contact_tol")
    check = _MODEL_RANGES[model]
    names = [key for key in inspect.signature(check).parameters if key != "N"]
    for N in N_grid:
        check(N=N, **{key: values[key] for key in names})


def generate_model(model: str, params: dict, N: float, seed: int) -> SphereConfig:
    """Draw a configuration from the named model with keyword params."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{sorted(MODELS)}")
    if not (0.0 < N < math.inf):
        raise ValueError(f"box half-width N must be finite and positive, "
                         f"got {N!r}")
    # Called by name, so that a wrapper bound in ``geometry`` sees the call.
    return getattr(geometry, MODELS[model].__name__)(seed=seed, N=N, **params)


@dataclass(frozen=True)
class CriterionSeries:
    """Per-(N, seed) statistic values with a plateau estimate.

    The plateau estimate is the max of the per-N means over the larger
    half of the N grid; ``plateau_ok`` records whether the last-to-first
    mean ratio over that half stays within [0.5, 2].
    """

    statistic: str
    N_grid: tuple[float, ...]
    seeds: tuple[tuple[int, ...], ...]
    values: tuple[tuple[float, ...], ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    plateau_estimate: float
    plateau_ok: bool
    errors: tuple[str, ...] = ()

    CSV_HEADER = ("N", "seed", "value")

    @classmethod
    def from_scan(cls, scan: "CellScan", task: str) -> "CriterionSeries":
        """Series of one scalar task; failed cells read NaN, means skip NaN."""
        values = tuple(tuple(math.nan if v is None else float(v) for v in row)
                       for row in scan.values[task])
        means, stderrs = [], []
        for vals in values:
            arr = np.array(vals)
            good = arr[~np.isnan(arr)]
            if good.size == 0:
                means.append(math.nan)
                stderrs.append(math.nan)
            else:
                means.append(float(good.mean()))
                stderrs.append(float(good.std(ddof=1) / math.sqrt(good.size))
                               if good.size > 1 else 0.0)
        estimate, ok = _plateau(means)
        return cls(
            statistic=task,
            N_grid=scan.N_grid,
            seeds=scan.seeds,
            values=values,
            means=tuple(means),
            stderrs=tuple(stderrs),
            plateau_estimate=estimate,
            plateau_ok=ok,
            errors=scan.errors[task],
        )

    def to_rows(self):
        """CSV rows (N, seed, value), cells in grid order."""
        rows = []
        for N, seeds, vals in zip(self.N_grid, self.seeds, self.values):
            for seed, v in zip(seeds, vals):
                rows.append((N, seed, v))
        return rows

    def to_summary_dict(self):
        return {
            "statistic": self.statistic,
            "N_grid": list(self.N_grid),
            "seeds": [list(s) for s in self.seeds],
            "values": [list(v) for v in self.values],
            "means": list(self.means),
            "stderrs": list(self.stderrs),
            "plateau_estimate": self.plateau_estimate,
            "plateau_ok": self.plateau_ok,
            "errors": list(self.errors),
        }


def _plateau(means):
    """Plateau estimate and stability flag from per-N means.

    A failed (NaN) mean in the upper half gives a NaN estimate, flagged bad.
    """
    half = list(means[len(means) // 2:])
    if any(math.isnan(v) for v in half):
        return math.nan, False
    estimate = max(half)
    first, last = half[0], half[-1]
    if first == 0.0 and last == 0.0:
        ok = True
    elif first == 0.0:
        ok = False
    else:
        ratio = last / first
        ok = 0.5 <= ratio <= 2.0
    return float(estimate), bool(ok)


class ScanCell:
    """One (N, seed) cell of a scan; each stage is built on first use, once.

    Every task evaluated on the cell shares its stages.  A stage that
    raises is not cached, so each task needing it records the failure.
    ``sample_seed`` seeds the cluster-moment sample points.
    """

    def __init__(self, model: str, model_params: dict, delta: float,
                 N: float, seed: int, sample_seed: int):
        self.model, self.model_params, self.delta = model, model_params, delta
        self.N, self.seed, self.sample_seed = N, seed, sample_seed

    @_once
    def config(self) -> SphereConfig:
        return generate_model(self.model, self.model_params, self.N, self.seed)

    @_once
    def restricted(self) -> SphereConfig:
        # One pair query at delta, handed down by restrict_box, serves the
        # contacts of restrict_box and components and the gaps of the graph.
        _near_pairs(self.config, self.delta)
        return restrict_box(self.config, self.config.box_half_width)

    @_once
    def comp(self):
        return components(self.restricted)

    @_once
    def graph(self) -> InclusionGraph:
        return build_graph(self.comp, self.restricted, self.delta)


# The task table, ``TASKS``: each task's output, the class whose
# ``from_scan`` builds it from a scan (None: the task runs no cells, and its
# evaluator, called with no cell, returns it), and a TaskValue(read,
# default, check) for each task parameter it reads.  ``read(value, what)``
# raises SchemaError on a wrong JSON type; a None default leaves the
# parameter unset when absent or null; ``check`` is the range rule, (test,
# statement), or None where H2Options or KellerParams checks the range.
# The k, p, n_samples and quantity rules are the ones log_moment_statistic
# and cluster_moment_statistic check their arguments by.  kappa is one row
# that h2 and logmoment share; keller reads one object.
Task = namedtuple("Task", "output params")
TaskValue = namedtuple("TaskValue", "read default check", defaults=(None,))


def _task_values(params: dict, rows: dict) -> dict:
    """The value in ``params`` of each key of ``rows``, read by its row.

    A wrong JSON type raises SchemaError, a value out of range ValueError.
    """
    values = {}
    for key, (read, default, check) in rows.items():
        value = params.get(key, default)
        if value is not None or default is not None:
            what = f"task parameter {key!r}"
            value = read(value, what)
            if check is not None:
                _check_range(value, check, what)
        values[key] = value
    return values


def _keller_grid(value, what) -> list:
    """One KellerParams per nu of keller's object of table parameters."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got {value!r}")
    values = _task_values(value, _KELLER)
    unknown = sorted(set(value) - set(_KELLER))
    if unknown:
        raise ValueError(f"unknown keller parameters {unknown}; the table "
                         f"takes {list(_KELLER)}")
    nu_grid = values.pop("nu_grid")
    return [KellerParams(nu=nu, **values) for nu in nu_grid]


_KAPPA = TaskValue(_json_number, None, (lambda v: 0.0 < v < 1.0, "in (0, 1)"))
_KELLER = {
    "a": TaskValue(_json_number, 1.0),
    "d": TaskValue(_json_number, 1.0),
    "gamma": TaskValue(_json_number, 1.0),
    "nu_grid": TaskValue(_json_numbers, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]),
}
TASKS = {
    "h1": Task(CriterionSeries, {
        "xi": TaskValue(_json_numbers, (1.0, 0.0, 0.0), (
            lambda v: len(v) == 3 and all(map(math.isfinite, v)) and any(v),
            "three finite numbers, not all zero"))}),
    "h2": Task(CriterionSeries, {
        "s": TaskValue(_json_number, H2Options.s),
        "n_starts": TaskValue(_json_int, H2Options.n_starts),
        "max_ascent_iters": TaskValue(_json_int, H2Options.max_ascent_iters),
        "tol": TaskValue(_json_number, H2Options.tol),
        "kappa": _KAPPA}),
    "logmoment": Task(CriterionSeries, {
        "k": TaskValue(_json_number, 2.0, _LOG_MOMENT_K),
        "kappa": _KAPPA}),
    "clustermoment": Task(CriterionSeries, {
        "p": TaskValue(_json_number, 2.0, _CLUSTER_MOMENT_RULES["p"]),
        "n_samples": TaskValue(_json_int, 2000,
                               _CLUSTER_MOMENT_RULES["n_samples"]),
        "quantity": TaskValue(_json_str, "diam",
                              _CLUSTER_MOMENT_RULES["quantity"])}),
    "density": Task(CriterionSeries, {}),
    "effective": Task(effective.EffectiveSeries, {
        "layer_width": TaskValue(_json_number, None, (
            lambda v: 0.0 < v < math.inf, "finite and positive"))}),
    "keller": Task(None, {"keller": TaskValue(_keller_grid, {})}),
}


def task_evaluator(task: str, params: dict, base_seed: int):
    """The evaluator of a task, built from the ``TASKS`` values of ``params``.

    ``params`` are a spec's flat task parameters, read and checked here,
    before any cell runs.  A scan task's evaluator maps a ScanCell to the
    task's value; h2's ascent is seeded by ``base_seed``.  keller's takes
    no cell and returns its KellerTable.
    """
    if task not in TASKS:
        raise ValueError(f"unknown statistic {task!r}")
    values = _task_values(params, TASKS[task].params)
    kappa = values.pop("kappa", None)
    if task == "keller":
        return functools.partial(KellerTable, values["keller"])
    if task == "density":
        return lambda cell: (float(np.sum(cell.comp.volumes))
                             / cell.restricted.box_volume())
    if task == "h1":
        return lambda cell: _affine_energy_density(cell.graph, values["xi"])
    if task == "clustermoment":
        return lambda cell: cluster_moment_statistic(
            config=cell.restricted, graph=cell.graph, seed=cell.sample_seed,
            **values).mean
    if task == "effective":
        layer = values["layer_width"]
        return lambda cell: effective.network_effective_tensor(
            cell.graph, cell.delta if layer is None else layer)

    def graph(cell):
        return cell.graph if kappa is None else short_kappa(cell.graph, kappa)

    if task == "logmoment":
        return lambda cell: log_moment_statistic(graph(cell), values["k"])
    opts = H2Options(seed=base_seed, **values)
    return lambda cell: h2_statistic(graph(cell), opts).value


def check_scan_grid(N_grid, n_seeds: int, delta: float) -> list[float]:
    """The grid as floats; raises ValueError unless it is scannable.

    A scan needs at least 3 strictly increasing box sizes (the plateau
    estimate reads the larger half), 1 to 10**4 seeds per size and a gap
    threshold delta in (0, 1).
    """
    N_grid = [float(N) for N in N_grid]
    if not all(0.0 < N < math.inf for N in N_grid):
        raise ValueError("N_grid entries must be finite and positive")
    if len(N_grid) < 3:
        raise ValueError("N_grid needs at least 3 entries")
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise ValueError("N_grid must be strictly increasing")
    if not 1 <= n_seeds <= 10 ** 4:
        raise ValueError("n_seeds must be in [1, 10**4]")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    return N_grid


@dataclass(frozen=True)
class CellScan:
    """Every task's results over an (N, seed) grid, in grid order.

    ``values[task]`` has one tuple per N, ``None`` where the task failed;
    ``errors[task]`` lists those failures.  ``wall_clock`` maps
    ``(N, seed_index)`` to the time spent building and evaluating a cell.
    """

    N_grid: tuple[float, ...]
    seeds: tuple[tuple[int, ...], ...]
    values: dict
    errors: dict
    wall_clock: dict


def scan_cells(model_params: dict, delta: float, N_grid, n_seeds: int,
               tasks: dict, base_seed: int = 0, threads: int = 1) -> CellScan:
    """Evaluate every task on each (N, seed) cell of fresh configurations.

    ``tasks`` maps a name to an evaluator, ScanCell -> value.  The grid
    and delta (``check_scan_grid``), then the model (``check_model``), are
    checked before any cell.  Each cell draws its configuration at its own
    derived seed and is dropped once its tasks are done.  A failure is
    recorded per (cell, task) without aborting anything else.  With
    ``threads > 1`` cells run on a thread pool; results are collected in
    grid order, so they do not depend on it.
    """
    N_grid = check_scan_grid(N_grid, n_seeds, delta)
    model = dict(model_params)
    model_name = model.pop("model")
    check_model(model_name, model, N_grid)

    def run_cell(N, k):
        t0 = time.perf_counter()
        cell = ScanCell(model_name, model, delta, N,
                        derive_cell_seed(base_seed, N, k),
                        derive_cell_seed(base_seed + 1, N, k))
        results = {}
        for task, evaluate in tasks.items():
            try:
                results[task] = (evaluate(cell), None)
            except Exception as exc:   # noqa: BLE001 - per-(cell, task) isolation
                results[task] = (None, f"N={N} seed_index={k}: {exc}")
        return cell.seed, results, time.perf_counter() - t0

    grid = [(N, k) for N in N_grid for k in range(n_seeds)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            cells = list(pool.map(run_cell, *zip(*grid)))
    else:
        cells = [run_cell(N, k) for N, k in grid]
    rows = [cells[i:i + n_seeds] for i in range(0, len(cells), n_seeds)]
    return CellScan(
        N_grid=tuple(N_grid),
        seeds=tuple(tuple(seed for seed, _, _ in row) for row in rows),
        values={task: tuple(tuple(res[task][0] for _, res, _ in row)
                            for row in rows) for task in tasks},
        errors={task: tuple(res[task][1] for _, res, _ in cells
                            if res[task][1] is not None) for task in tasks},
        wall_clock={cell: elapsed for cell, (_, _, elapsed) in zip(grid, cells)},
    )


def scan_limsup(model_params: dict, delta: float, N_grid, n_seeds: int,
                statistic_selector: str, statistic_params: dict | None = None,
                base_seed: int = 0, threads: int = 1):
    """Evaluate a scan task over an (N, seed) grid of fresh configurations.

    Returns the task's ``TASKS`` output: a CriterionSeries with its plateau
    estimate, or the EffectiveSeries of effective.  ``statistic_params``
    are the flat task parameters that ``task_evaluator`` reads.  Each cell
    draws an independent configuration from the model at its own derived
    seed; failures are recorded per cell without aborting the scan.
    ``threads`` cells run at a time (see ``scan_cells``).
    """
    task = task_evaluator(statistic_selector, statistic_params or {},
                          base_seed)
    scan = scan_cells(model_params, delta, N_grid, n_seeds,
                      {statistic_selector: task}, base_seed, threads)
    return TASKS[statistic_selector].output.from_scan(scan,
                                                      statistic_selector)

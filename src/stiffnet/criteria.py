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

At s = 2 the sup is exactly the top eigenvalue of the condensed form
Q = W (I + A G), G = -K^-1 A^T W the potential operator, with
inf_u E(u, b(beta)) = beta^T Q beta.  Q is block diagonal by cluster, so
when the system matrix K factors directly its blocks go through batched
dense eigensolves; otherwise Lanczos iterates on products Q beta.

For s > 2 the sup is estimated from below by projected gradient ascent
over antisymmetric families on the unit l_s sphere (the sup is attained
on antisymmetric families: for fixed differences beta the denominator is
minimized by b = (beta/2, -beta/2)).  The energy's gradient 2 Q beta =
4 mu r, r the gap residuals at the minimizer, costs one sparse product
when K factors directly, else one solve.  Equal starts ascend once.

``scan_cells`` is the one loop over an (N, seed) grid: it builds each
cell's configuration and graph once and evaluates every requested task on
it, each task made by ``task_evaluator`` from the flat task parameters.
``scan_limsup`` runs one statistic and reports a plateau estimate, the
empirical surrogate for an almost-sure limsup.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import geometry
from .energy import (
    SOLVE_TOL,
    BoundaryFamily,
    LaplacianAssembly,
    SPDSolver,
    affine_boundary_family,
    midpoint_boundary_family,
    minimize_energy,
)
from .geometry import (
    SphereConfig,
    _connected_labels,
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
    "h2_ratio",
    "h2_statistic",
    "h2_exact_s2",
    "log_moment_statistic",
    "scan_limsup",
    "scan_cells",
    "STATISTICS",
    "TASK_PARAMS",
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
    """

    s: float = 4.0
    n_starts: int = 16
    max_ascent_iters: int = 500
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not (self.s >= 2.0):
            raise ValueError("s must be >= 2")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


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


def _ordered_pair_power_sum(b: BoundaryFamily, s: float) -> float:
    """S_s(b): both oriented values per edge, ordered-pair double count."""
    return float(2.0 * (np.sum(np.abs(b.ab) ** s) + np.sum(np.abs(b.ba) ** s)))


def _affine_energy_density(graph: InclusionGraph, xi) -> float:
    """inf_u E(u, affine family of xi) / |Q_N| on a built graph."""
    _, breakdown = minimize_energy(graph, affine_boundary_family(graph, xi))
    return breakdown.total / graph.box_volume()


def _direction(xi) -> np.ndarray:
    """``xi`` as a float 3-vector: three finite numbers, not all zero."""
    try:
        arr = np.asarray(xi)
        ok = arr.dtype.kind in "iuf" and arr.shape == (3,)
    except ValueError:      # ragged nesting
        ok = False
    if not (ok and np.all(np.isfinite(arr)) and np.any(arr)):
        raise ValueError("task parameter 'xi' must be three finite numbers, "
                         "not all zero")
    return arr.astype(float)


def h2_ratio(graph: InclusionGraph, b: BoundaryFamily, s: float) -> float:
    """Normalized ratio of minimal energy to the l_s size of the family.

    inf_u E(u, b) / ( |Q_N| ((1/|Q_N|) S_s(b))^(2/s) ); invariant under
    scaling of ``b``, and independent of |Q_N| at s = 2.
    """
    if not (s >= 2.0):
        raise ValueError("s must be >= 2")
    if not (np.any(b.ab != 0.0) or np.any(b.ba != 0.0)):
        raise ValueError("the zero family is excluded from the ratio")
    _, breakdown = minimize_energy(graph, b)
    S = _ordered_pair_power_sum(b, s)
    Q = graph.box_volume()
    return breakdown.total / (Q * (S / Q) ** (2.0 / s))


# The dense temporaries of the operator build, one row per node or edge,
# hold at most this many entries, or four times Q's, whichever is more.
_BLOCK_ENTRIES = 1 << 20


def _condensed_operator(graph: InclusionGraph, solver: SPDSolver):
    """Sparse Q = W (I + A G) with inf_u E(u, b(beta)) = beta^T Q beta.

    W = diag(2 mu), row e of the incidence A is +1 at a_e and -1 at b_e,
    and G = -K^-1 A^T W is the potential operator: u* = G beta minimizes
    E(., b(beta)), and Q beta = W (beta + A u*) = 2 mu r, r the gap
    residuals at the minimizer.  Column g_e of G solves
    K g_e = -A^T W 1_e, which lives on the cluster of edge e (K is block
    diagonal by cluster), so Q is block diagonal with one m_c x m_c block
    per cluster of m_c edges.  Edges of different clusters therefore share
    one right-hand side: edge e goes to column rank(e), its rank within its
    cluster, so one ``solver.solve`` with as many columns as the largest
    cluster has edges yields every g_e, certified by its column's residual
    gate.  Row e of Q is w_e (1_e + x[a_e] - x[b_e]) over the first m_c
    columns of that solution x, stored in rank order.  Columns are solved
    in blocks when the dense temporaries would dwarf Q.
    """
    n, m = graph.n_nodes, graph.n_edges
    n_clusters, cluster = _connected_labels(n, graph.a, graph.b)
    edge_cluster = cluster[graph.a]
    edge_count = np.bincount(edge_cluster, minlength=n_clusters)
    edge_start = np.cumsum(edge_count) - edge_count
    by_cluster = np.argsort(edge_cluster, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[by_cluster] = np.arange(m) - edge_start[edge_cluster[by_cluster]]

    width = int(edge_count.max(initial=0))
    per_row = edge_count[edge_cluster]
    indptr = np.concatenate([[0], np.cumsum(per_row)])
    step = max(1, min(width,
                      max(_BLOCK_ENTRIES, 4 * indptr[-1]) // max(n, m, 1)))
    data = np.empty(indptr[-1])
    w = 2.0 * graph.mu
    for lo in range(0, width, step):
        hi = min(lo + step, width)
        rhs = np.zeros((n, hi - lo))
        sel = (rank >= lo) & (rank < hi)
        rhs[graph.a[sel], rank[sel] - lo] = -w[sel]
        rhs[graph.b[sel], rank[sel] - lo] = w[sel]
        x = solver.solve(rhs)
        rows = x[graph.a]
        rows[sel, rank[sel] - lo] += 1.0
        rows = w[:, None] * (rows - x[graph.b])
        held = np.arange(lo, hi) < per_row[:, None]
        data[(indptr[:-1, None] + np.arange(lo, hi))[held]] = rows[held]
    held = np.arange(width) < per_row[:, None]
    columns = edge_start[edge_cluster][:, None] + np.arange(width)
    return scipy.sparse.csr_matrix((data, by_cluster[columns[held]], indptr),
                                   shape=(m, m))


class _CachedMinimizer:
    """Minimum energy over potentials for a fixed graph, beta varying.

    The system matrix does not depend on the boundary family.  On the
    direct solver path the minimizer is the condensed operator Q, built
    once from one multi-column solve, and each ``minimum`` is the sparse
    product Q beta = 2 mu r and the dot beta^T Q beta, the minimal energy
    (stationarity gives A^T W r = -D u*, so beta^T W r = r^T W r +
    u*^T D u*).  Q beta is W (beta + A u) for the potentials u = G beta,
    and each column g_e of G is the part of a certified solution column
    that lies on e's cluster; the clusters sharing that column are
    decoupled, so its absolute residual residual_e = |K g_e + A^T W 1_e|
    is at most that column's.  By linearity every step is certified:
    those potentials satisfy |K u + A^T W beta| <= sum_e |beta_e|
    residual_e.  A graph with a block of ``DENSE_CUTOFF`` or more nodes
    solves once per ``minimum`` instead and sums the energy from u.
    """

    def __init__(self, graph: InclusionGraph):
        self.a_idx, self.b_idx, self.mu = graph.a, graph.b, graph.mu
        self.volumes = graph.volumes
        assembly = LaplacianAssembly(graph)
        self.rhs = assembly.rhs
        self.solver = SPDSolver(assembly.system_matrix)
        self.condensed = (_condensed_operator(graph, self.solver)
                          if self.solver.direct else None)

    def minimum(self, beta):
        """(Q beta, minimal energy) at the antisymmetric family beta."""
        if self.condensed is not None:
            q_beta = self.condensed @ beta
            return q_beta, float(beta @ q_beta)
        u = self.solver.solve(self.rhs(beta))
        r = (beta + u[self.a_idx]) - u[self.b_idx]
        num = float(np.sum(2.0 * self.mu * r * r)
                    + np.sum(self.volumes * u * u))
        return 2.0 * self.mu * r, num


def _condensed_blocks(Q):
    """The diagonal blocks of ``_condensed_operator``'s Q, stacked by size.

    Each row of a cluster lists the cluster's edges in rank order, so the
    rank-0 edge is the row whose first column is itself.  Yields one
    (k, m, m) array per block size m, k the clusters of m edges.
    """
    counts = np.diff(Q.indptr)
    heads = np.flatnonzero(Q.indices[Q.indptr[:-1]] == np.arange(Q.shape[0]))
    for m in np.unique(counts[heads]):
        rows = heads[counts[heads] == m]
        edges = Q.indices[Q.indptr[rows][:, None] + np.arange(m)]
        yield Q.data[Q.indptr[edges][..., None] + np.arange(m)]


def h2_exact_s2(graph: InclusionGraph) -> float:
    """Exact sup of the s = 2 ratio: the top eigenvalue of the condensed form.

    The ratio of the family (beta/2, -beta/2) is the Rayleigh quotient
    beta^T Q beta / beta^T beta.  On the direct path: the largest batched
    ``eigvalsh`` of Q's symmetrised cluster blocks.  Otherwise: the
    quotient, attained, at the vector of one ``eigsh`` Lanczos run (fixed
    start) on Q beta products, each one certified solve.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    minimizer = _CachedMinimizer(graph)
    if minimizer.condensed is not None:
        return max(float(np.linalg.eigvalsh(
            0.5 * (blocks + blocks.transpose(0, 2, 1)))[:, -1].max())
            for blocks in _condensed_blocks(minimizer.condensed))
    m = graph.n_edges
    operator = scipy.sparse.linalg.LinearOperator(
        (m, m), matvec=lambda beta: minimizer.minimum(beta)[0], dtype=float)
    _, vectors = scipy.sparse.linalg.eigsh(
        operator, k=1, which="LA", tol=SOLVE_TOL,
        v0=np.random.default_rng(0).standard_normal(m))
    return minimizer.minimum(vectors[:, 0] / np.linalg.norm(vectors[:, 0]))[1]


def _ratio_pieces(minimizer, box_volume, beta, s):
    """beta scaled onto the unit l_s sphere, and the ratio there.

    Returns (unit beta, ratio value, ratio gradient, Q beta), or None for
    the zero family.  One power p = |beta|^(s-2) serves the whole
    evaluation: sum |beta|^s = sum p beta^2, and sign(beta) |beta|^(s-1)
    = p beta.  On the unit sphere S_s = 2^(2-s) for the family
    (beta/2, -beta/2), so the denominator is the constant
    |Q_N|^(1-2/s) 2^(4/s-2) and its gradient is 2 denom p beta; the
    numerator gradient is 2 Q beta by the envelope theorem.
    """
    p = np.abs(beta) ** (s - 2.0)
    norm = float(p @ (beta * beta)) ** (1.0 / s)
    if norm == 0.0:
        return None
    beta = beta / norm
    q_beta, num = minimizer.minimum(beta)
    denom = box_volume ** (1.0 - 2.0 / s) * 2.0 ** (4.0 / s - 2.0)
    grad = (2.0 / denom) * (q_beta - (num * norm ** (2.0 - s)) * (p * beta))
    return beta, num / denom, grad, q_beta


def _ascend_from(minimizer, box_volume, beta0, opts: H2Options):
    """Projected gradient ascent on the unit l_s sphere, backtracking steps.

    Returns (value, unit beta), or None for a zero start.
    """
    start = _ratio_pieces(minimizer, box_volume, beta0, opts.s)
    if start is None:
        return None
    beta, value, grad, _ = start
    step = 1.0
    stall = 0
    for _ in range(opts.max_ascent_iters):
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        trial_step = step
        for _bt in range(30):
            cand = _ratio_pieces(minimizer, box_volume,
                                 beta + trial_step * grad / gnorm, opts.s)
            if cand is not None and cand[1] > value:
                break
            trial_step *= 0.5
        else:
            break
        gain = cand[1] - value
        beta, value, grad, _ = cand
        step = min(trial_step * 2.0, 1e6)
        stall = stall + 1 if gain <= opts.tol * max(abs(value), 1e-30) else 0
        if stall >= 3:
            break
    return value, beta


def h2_statistic(graph: InclusionGraph, opts: H2Options) -> H2Estimate:
    """The sup of the ratio over nonzero boundary families.

    At s = 2 it is exact: ``h2_exact_s2``, with no ascent and an empty
    ``per_start``.  For s > 2 it is a multi-start projected gradient
    ascent over antisymmetric families, warm-started from random Gaussian
    families plus the affine and midpoint canonical families along the
    coordinate axes.  The ascent is deterministic, so a start bitwise
    equal to an earlier one (the affine and midpoint starts often are)
    reuses that start's result; ``per_start`` still has one entry per
    nonzero start.  All starts share one ``_CachedMinimizer``, whose
    condensed operator Q (built from certified solve columns) or per-step
    solve certifies every step.  The ascent value is a certified lower
    bound of the true sup.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges; the sup statistic is undefined")
    if opts.s == 2.0:
        return H2Estimate(value=h2_exact_s2(graph), per_start=())
    rng = np.random.default_rng(opts.seed)
    starts = [rng.normal(size=graph.n_edges) for _ in range(opts.n_starts)]
    for axis in range(3):
        xi = np.zeros(3)
        xi[axis] = 1.0
        starts.append(affine_boundary_family(graph, xi).antisymmetric_part())
        try:
            starts.append(
                midpoint_boundary_family(graph, xi).antisymmetric_part())
        except RuntimeError:
            pass    # graph lacks consistent contact geometry; start skipped

    minimizer = _CachedMinimizer(graph)
    box_volume = graph.box_volume()
    per_start = []
    ascents = {}    # start bytes -> result: equal starts ascend identically
    for beta0 in starts:
        key = beta0.tobytes()
        if key not in ascents:
            ascents[key] = _ascend_from(minimizer, box_volume, beta0, opts)
        out = ascents[key]
        if out is None:
            continue    # zero start (excluded from the sup)
        per_start.append(out[0])
    if not per_start:
        raise ValueError("all ascent starts degenerate to the zero family")
    return H2Estimate(value=max(per_start), per_start=tuple(per_start))


def log_moment_statistic(graph: InclusionGraph, k: float) -> float:
    """(1/|Q_N|) sum over edges of mu_e^k, each undirected edge once."""
    if not (k >= 1.0):
        raise ValueError("k must be >= 1")
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


def generate_model(model: str, params: dict, N: float, seed: int) -> SphereConfig:
    """Draw a configuration from the named model with keyword params."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of "
                         f"{sorted(MODELS)}")
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

    @functools.cached_property
    def config(self) -> SphereConfig:
        return generate_model(self.model, self.model_params, self.N, self.seed)

    @functools.cached_property
    def restricted(self) -> SphereConfig:
        return restrict_box(self.config, self.config.box_half_width)

    @functools.cached_property
    def comp(self):
        return components(self.restricted)

    @functools.cached_property
    def graph(self) -> InclusionGraph:
        return build_graph(self.comp, self.restricted, self.delta)


# Every scan task but "effective" yields one number per cell.
STATISTICS = ("h1", "h2", "logmoment", "clustermoment", "density")

# The H2Options fields a spec may set, with their casts.
_H2_PARAMS = {"s": float, "n_starts": int, "max_ascent_iters": int,
              "tol": float}

# The task_params keys each task reads: the scan tasks through
# ``task_evaluator``, and keller its own object of table parameters.
TASK_PARAMS = {
    "h1": ("xi",),
    "h2": (*_H2_PARAMS, "kappa"),
    "logmoment": ("k", "kappa"),
    "clustermoment": ("p", "n_samples", "quantity"),
    "density": (),
    "effective": ("layer_width",),
    "keller": ("keller",),
}


def task_evaluator(task: str, params: dict, base_seed: int):
    """The ScanCell -> value evaluator of a scan task: the task table.

    ``params`` are a spec's flat task parameters, cast and checked here.
    h1 reads ``xi`` (default (1, 0, 0)); h2 the ``_H2_PARAMS`` fields,
    seeded by ``base_seed``; logmoment ``k`` (2); h2 and logmoment
    ``kappa``, which shorts the graph first; clustermoment ``p`` (2),
    ``n_samples`` (2000) and ``quantity`` ("diam"), sampled at the cell's
    ``sample_seed``; effective ``layer_width`` (the cell's delta); density
    nothing.
    """
    get = params.get
    if task == "density":
        return lambda cell: (float(np.sum(cell.comp.volumes))
                             / cell.restricted.box_volume())
    if task == "h1":
        xi = _direction(get("xi", (1.0, 0.0, 0.0)))
        return lambda cell: _affine_energy_density(cell.graph, xi)
    if task == "clustermoment":
        kwargs = {"p": float(get("p", 2.0)),
                  "n_samples": int(get("n_samples", 2000)),
                  "quantity": str(get("quantity", "diam"))}
        return lambda cell: cluster_moment_statistic(
            config=cell.restricted, graph=cell.graph, seed=cell.sample_seed,
            **kwargs).mean
    if task == "effective":
        from .effective import network_effective_tensor   # imports criteria
        layer = None if get("layer_width") is None else float(
            params["layer_width"])
        return lambda cell: network_effective_tensor(
            cell.graph, cell.delta if layer is None else layer)
    if task not in ("h2", "logmoment"):
        raise ValueError(f"unknown statistic {task!r}")
    kappa = None if get("kappa") is None else float(params["kappa"])

    def graph(cell):
        return cell.graph if kappa is None else short_kappa(cell.graph, (),
                                                            kappa)

    if task == "logmoment":
        k = float(get("k", 2.0))
        return lambda cell: log_moment_statistic(graph(cell), k)
    opts = H2Options(seed=base_seed, **{
        key: cast(params[key]) for key, cast in _H2_PARAMS.items()
        if key in params})
    return lambda cell: h2_statistic(graph(cell), opts).value


def check_scan_grid(N_grid, n_seeds: int) -> list[float]:
    """The grid as floats; raises ValueError unless it is scannable.

    A scan needs at least 3 strictly increasing box sizes (the plateau
    estimate reads the larger half) and at least one seed per size.
    """
    N_grid = [float(N) for N in N_grid]
    if len(N_grid) < 3:
        raise ValueError("N_grid needs at least 3 entries")
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise ValueError("N_grid must be strictly increasing")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
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

    ``tasks`` maps a name to an evaluator, ScanCell -> value.  Each cell
    draws its configuration at its own derived seed and is dropped once
    its tasks are done.  A failure is recorded per (cell, task) without
    aborting anything else.  With ``threads > 1`` cells run on a thread
    pool; results are collected in grid order, so they do not depend on it.
    """
    N_grid = check_scan_grid(N_grid, n_seeds)
    model = dict(model_params)
    model_name = model.pop("model")

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
                base_seed: int = 0, threads: int = 1) -> CriterionSeries:
    """Evaluate a statistic over an (N, seed) grid of fresh configurations.

    ``statistic_params`` are the flat task parameters that
    ``task_evaluator`` reads.  Each cell draws an independent configuration
    from the model at its own derived seed; failures are recorded per cell
    (value NaN) without aborting the scan.  ``threads`` cells run at a time
    (see ``scan_cells``).
    """
    task = task_evaluator(statistic_selector, statistic_params or {},
                          base_seed)
    scan = scan_cells(model_params, delta, N_grid, n_seeds,
                      {statistic_selector: task}, base_seed, threads)
    return CriterionSeries.from_scan(scan, statistic_selector)

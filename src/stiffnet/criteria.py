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

The sup is estimated from below by projected gradient ascent over
antisymmetric families on the unit l_s sphere (the sup is attained on
antisymmetric families: for fixed differences beta the denominator is
minimized by b = (beta/2, -beta/2)).  For s = 2 on small graphs the sup is
also computed exactly as the top eigenvalue of the condensed quadratic
form.

``scan_limsup`` evaluates a statistic over an (N, seed) grid and reports a
plateau estimate, the empirical surrogate for an almost-sure limsup.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .energy import (
    BoundaryFamily,
    SolverOptions,
    affine_boundary_family,
    midpoint_boundary_family,
    minimize_energy,
)
from .geometry import (
    SphereConfig,
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
    "h1_statistic",
    "h2_ratio",
    "h2_statistic",
    "h2_exact_s2",
    "log_moment_statistic",
    "density_estimate",
    "scan_limsup",
    "derive_cell_seed",
    "generate_model",
]


@dataclass(frozen=True)
class H2Options:
    """Controls for the sup-over-families ascent.

    The zero family is always excluded from the sup.  ``s = 2`` is allowed
    (it is the exactly solvable case used as an oracle); the conjugate
    exponent s/(s-2) is finite only for s > 2.
    """

    s: float = 4.0
    n_starts: int = 16
    max_ascent_iters: int = 500
    tol: float = 1e-8
    seed: int = 0
    exclude_zero: bool = True
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not (self.s >= 2.0):
            raise ValueError("s must be >= 2")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass(frozen=True)
class H2Estimate:
    """Result of the sup estimation.

    ``value`` is the exact eigensolve when available (s = 2, small graph),
    otherwise the best ascent value.  ``ascent_value`` is always the best
    over starts; ``per_start`` records every start's final ratio.
    """

    value: float
    ascent_value: float
    per_start: tuple[float, ...]
    exact: float | None
    s: float


def _ordered_pair_power_sum(b: BoundaryFamily, s: float) -> float:
    """S_s(b): both oriented values per edge, ordered-pair double count."""
    return float(2.0 * (np.sum(np.abs(b.ab) ** s) + np.sum(np.abs(b.ba) ** s)))


def h1_statistic(config: SphereConfig, delta: float, xi,
                 solver_opts: SolverOptions | None = None) -> float:
    """Normalized minimal energy with the affine boundary family.

    Builds the box-restricted configuration, its gap multigraph at
    threshold ``delta``, and returns inf_u E / |Q_N|.
    """
    xi = np.asarray(xi, dtype=float).reshape(3)
    if not (np.linalg.norm(xi) > 0.0):
        raise ValueError("xi must be nonzero")
    restricted = restrict_box(config, config.box_half_width)
    comp = components(restricted)
    graph = build_graph(comp, restricted, delta)
    b = affine_boundary_family(graph, xi)
    _, breakdown = minimize_energy(graph, b, solver_opts)
    return breakdown.total / graph.box_volume()


def h2_ratio(graph: InclusionGraph, b: BoundaryFamily, s: float,
             solver_opts: SolverOptions | None = None) -> float:
    """Normalized ratio of minimal energy to the l_s size of the family.

    inf_u E(u, b) / ( |Q_N| ((1/|Q_N|) S_s(b))^(2/s) ); invariant under
    scaling of ``b``, and independent of |Q_N| at s = 2.
    """
    if not (s >= 2.0):
        raise ValueError("s must be >= 2")
    if not (np.any(b.ab != 0.0) or np.any(b.ba != 0.0)):
        raise ValueError("the zero family is excluded from the ratio")
    _, breakdown = minimize_energy(graph, b, solver_opts)
    S = _ordered_pair_power_sum(b, s)
    Q = graph.box_volume()
    return breakdown.total / (Q * (S / Q) ** (2.0 / s))


def _condensed_quadratic_form(graph: InclusionGraph,
                              identity_mass: bool = False) -> np.ndarray:
    """Dense matrix Q with inf_u E(u, b(beta)) = beta^T Q beta.

    beta is the per-edge antisymmetric part; eliminating the potentials
    from the stationarity system leaves the Schur complement
    Q = W - W A K^-1 A^T W with W = diag(2 mu), K = D + 2 L.
    """
    from .energy import LaplacianAssembly

    n, m = graph.n_nodes, graph.n_edges
    a_idx, b_idx, mu, _ = graph.edge_arrays
    W = np.diag(2.0 * mu)
    A = np.zeros((m, n))
    A[np.arange(m), a_idx] += 1.0
    A[np.arange(m), b_idx] -= 1.0
    K = LaplacianAssembly(graph, identity_mass=identity_mass).system_matrix.toarray()
    WA = W @ A
    return W - WA @ np.linalg.solve(K, WA.T)


def h2_exact_s2(graph: InclusionGraph) -> float:
    """Exact sup of the s = 2 ratio: top eigenvalue of the condensed form."""
    if graph.n_edges == 0:
        raise ValueError("graph has no edges")
    Q = _condensed_quadratic_form(graph)
    return float(scipy.linalg.eigvalsh(Q)[-1])


class _CachedMinimizer:
    """Minimum energy over potentials for a fixed graph, beta varying.

    The system matrix does not depend on the boundary family, so it is
    factored (dense) or preconditioned (sparse) once and reused across all
    ascent iterations.
    """

    def __init__(self, graph: InclusionGraph, opts: SolverOptions):
        from .energy import LaplacianAssembly, SolverError

        self._solver_error = SolverError
        a_idx, b_idx, mu, _ = graph.edge_arrays
        self.a_idx, self.b_idx, self.mu = a_idx, b_idx, mu
        self.n = graph.n_nodes
        self.volumes = (np.ones(self.n) if opts.identity_mass
                        else graph.node_volumes)
        K = LaplacianAssembly(graph, identity_mass=opts.identity_mass
                              ).system_matrix
        if self.n < opts.dense_cutoff:
            self.chol = scipy.linalg.cho_factor(K.toarray())
            self.K = None
        else:
            self.chol = None
            self.K = K
            self.precond = scipy.sparse.diags(1.0 / K.diagonal())
            self.max_iter = (opts.max_iter if opts.max_iter is not None
                             else 10 * self.n)
            self.tol = opts.tol

    def minimum(self, beta):
        """(residuals, minimal energy) at the antisymmetric family beta."""
        rhs = np.zeros(self.n)
        np.subtract.at(rhs, self.a_idx, 2.0 * self.mu * beta)
        np.add.at(rhs, self.b_idx, 2.0 * self.mu * beta)
        if self.chol is not None:
            u = scipy.linalg.cho_solve(self.chol, rhs)
        else:
            u, info = scipy.sparse.linalg.cg(
                self.K, rhs, rtol=self.tol, atol=0.0,
                maxiter=self.max_iter, M=self.precond)
            if info != 0:
                raise self._solver_error(
                    "ascent inner solve did not converge")
        r = (beta + u[self.a_idx]) - u[self.b_idx]
        num = float(np.sum(2.0 * self.mu * r * r)
                    + np.sum(self.volumes * u * u))
        return r, num


def _ratio_pieces(minimizer, box_volume, beta, s):
    """(ratio value, ratio gradient, Q beta) for the antisymmetric family.

    The numerator gradient is 4 mu r by the envelope theorem (r the gap
    residuals at the minimizer), hence Q beta = 2 mu r; the denominator is
    smooth away from 0.
    """
    r, num = minimizer.minimum(beta)
    q_beta = 2.0 * minimizer.mu * r
    grad_num = 2.0 * q_beta

    S = (2.0 ** (2.0 - s)) * float(np.sum(np.abs(beta) ** s))
    denom = box_volume * (S / box_volume) ** (2.0 / s)
    grad_S = (2.0 ** (2.0 - s)) * s * np.abs(beta) ** (s - 1.0) * np.sign(beta)
    grad_denom = (box_volume ** (1.0 - 2.0 / s) * (2.0 / s)
                  * S ** (2.0 / s - 1.0) * grad_S)
    value = num / denom
    grad = (grad_num - value * grad_denom) / denom
    return value, grad, q_beta


def _normalize_ls(beta, s):
    norm = float(np.sum(np.abs(beta) ** s)) ** (1.0 / s)
    if norm == 0.0:
        return None
    return beta / norm


def _subspace_max_s2(minimizer, beta, q_beta):
    """Maximize beta^T Q beta / |beta|^2 over span{beta, Q beta} (s = 2).

    Steepest ascent with exact line search for the Rayleigh quotient; one
    extra inner solve for the orthogonalized direction.
    """
    q_orth = q_beta - (q_beta @ beta) / (beta @ beta) * beta
    nq = float(np.linalg.norm(q_orth))
    if nq <= 1e-14 * max(1.0, float(np.linalg.norm(q_beta))):
        return None
    v = q_orth / nq
    r_v, _ = minimizer.minimum(v)
    q_v = 2.0 * minimizer.mu * r_v
    Amat = np.array([[beta @ q_beta, beta @ q_v],
                     [v @ q_beta, v @ q_v]])
    Amat = 0.5 * (Amat + Amat.T)
    Bmat = np.array([[beta @ beta, beta @ v], [beta @ v, v @ v]])
    vals, vecs = scipy.linalg.eigh(Amat, Bmat)
    c = vecs[:, -1]
    new_beta = c[0] * beta + c[1] * v
    norm = float(np.linalg.norm(new_beta))
    if norm == 0.0:
        return None
    return new_beta / norm, float(vals[-1])


def _ascend_from(minimizer, box_volume, beta0, opts: H2Options):
    """Projected gradient ascent on the unit l_s sphere, backtracking steps.

    For s = 2 every step maximizes over span{beta, gradient} exactly (a
    2x2 eigenproblem), which converges much faster near the top
    eigenvector than a fixed-step ascent.
    """
    s = opts.s
    beta = _normalize_ls(beta0, s)
    if beta is None:
        return None
    value, grad, q_beta = _ratio_pieces(minimizer, box_volume, beta, s)
    step = 1.0
    stall = 0
    for _ in range(opts.max_ascent_iters):
        improved = False
        if s == 2.0:
            cand = _subspace_max_s2(minimizer, beta, q_beta)
            if cand is not None:
                new_beta, predicted = cand
                if predicted > value * (1.0 + 1e-16):
                    new_value, new_grad, new_q = _ratio_pieces(
                        minimizer, box_volume, new_beta, s)
                    if new_value >= value:
                        if new_value - value <= opts.tol * max(abs(value), 1e-30):
                            stall += 1
                        else:
                            stall = 0
                        beta, value, grad, q_beta = (new_beta, new_value,
                                                     new_grad, new_q)
                        improved = True
        if not improved:
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            trial_step = step
            accepted = None
            for _bt in range(30):
                cand = _normalize_ls(beta + trial_step * grad / gnorm, s)
                if cand is not None:
                    cand_value, cand_grad, cand_q = _ratio_pieces(
                        minimizer, box_volume, cand, s)
                    if cand_value > value:
                        accepted = (cand, cand_value, cand_grad, cand_q)
                        break
                trial_step *= 0.5
            if accepted is None:
                break
            gain = accepted[1] - value
            beta, value, grad, q_beta = accepted
            step = min(trial_step * 2.0, 1e6)
            if gain <= opts.tol * max(abs(value), 1e-30):
                stall += 1
            else:
                stall = 0
        if stall >= 3:
            break
    return value, beta


def h2_statistic(graph: InclusionGraph, opts: H2Options) -> H2Estimate:
    """Estimate the sup of the ratio over nonzero boundary families.

    Multi-start projected gradient ascent over antisymmetric families,
    warm-started from random Gaussian families plus the affine and midpoint
    canonical families along the coordinate axes.  The ascent value is a
    certified lower bound of the true sup.  For s = 2 on graphs with at
    most 20 nodes the exact top eigenvalue is computed as well and returned
    as the value.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges; the sup statistic is undefined")
    rng = np.random.default_rng(opts.seed)
    m = graph.n_edges

    starts = []
    for _ in range(opts.n_starts):
        starts.append(rng.normal(size=m))
    for axis in range(3):
        xi = np.zeros(3)
        xi[axis] = 1.0
        starts.append(affine_boundary_family(graph, xi).antisymmetric_part())
        try:
            starts.append(
                midpoint_boundary_family(graph, xi).antisymmetric_part())
        except RuntimeError:
            pass    # graph lacks consistent contact geometry; start skipped

    minimizer = _CachedMinimizer(graph, opts.solver)
    box_volume = graph.box_volume()
    per_start = []
    best = -math.inf
    for beta0 in starts:
        out = _ascend_from(minimizer, box_volume, beta0, opts)
        if out is None:
            continue    # zero start (excluded from the sup)
        value, _ = out
        per_start.append(value)
        best = max(best, value)
    if not per_start:
        raise ValueError("all ascent starts degenerate to the zero family")

    exact = None
    if opts.s == 2.0 and graph.n_nodes <= 20:
        exact = h2_exact_s2(graph)
    value = exact if exact is not None else best
    return H2Estimate(value=value, ascent_value=best,
                      per_start=tuple(per_start), exact=exact, s=opts.s)


def log_moment_statistic(graph: InclusionGraph, k: float) -> float:
    """(1/|Q_N|) sum over edges of mu_e^k, each undirected edge once."""
    if not (k >= 1.0):
        raise ValueError("k must be >= 1")
    _, _, mu, _ = graph.edge_arrays
    return float(np.sum(mu ** k)) / graph.box_volume()


def density_estimate(config: SphereConfig) -> float:
    """Volume fraction of the configuration: component volume / |Q_N|."""
    comp = components(config)
    return float(np.sum(comp.volumes)) / config.box_volume()


# ---------------------------------------------------------------------------
# Scans over (N, seed) grids
# ---------------------------------------------------------------------------

def derive_cell_seed(base_seed: int, N: float, seed_index: int) -> int:
    """Stable per-cell seed; adding N values never perturbs other cells."""
    key = f"{int(base_seed)}|{float(N)!r}|{int(seed_index)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def generate_model(model: str, params: dict, N: float, seed: int) -> SphereConfig:
    """Dispatch a generator by model name with keyword params."""
    if model == "hardcore":
        return generate_hardcore(seed=seed, N=N, **params)
    if model == "lattice":
        return generate_lattice_jitter(seed=seed, N=N, **params)
    if model == "chains":
        return generate_chain_forest(seed=seed, N=N, **params)
    raise ValueError(f"unknown model {model!r}; expected hardcore, lattice or chains")


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


def _evaluate_statistic(statistic, config, delta, params):
    """One scan cell: restricted configuration -> statistic value."""
    restricted = restrict_box(config, config.box_half_width)
    if statistic == "density":
        return density_estimate(restricted)
    if statistic == "h1":
        xi = params.get("xi", (1.0, 0.0, 0.0))
        return h1_statistic(restricted, delta, xi,
                            params.get("solver"))
    comp = components(restricted)
    graph = build_graph(comp, restricted, delta)
    kappa = params.get("kappa")
    if kappa is not None and statistic in ("h2", "logmoment"):
        graph = short_kappa(graph, params.get("protected_edges", ()), kappa)
    if statistic == "h2":
        opts = params.get("opts")
        if opts is None:
            opts = H2Options(s=params.get("s", 4.0))
        return h2_statistic(graph, opts).value
    if statistic == "logmoment":
        return log_moment_statistic(graph, params.get("k", 2.0))
    if statistic == "clustermoment":
        est = cluster_moment_statistic(
            config=restricted, graph=graph, p=params.get("p", 2.0),
            n_samples=params.get("n_samples", 2000),
            seed=params.get("sample_seed", 0),
            quantity=params.get("quantity", "diam"))
        return est.mean
    raise ValueError(f"unknown statistic {statistic!r}")


def scan_limsup(model_params: dict, delta: float, N_grid, n_seeds: int,
                statistic_selector: str, statistic_params: dict | None = None,
                base_seed: int = 0) -> CriterionSeries:
    """Evaluate a statistic over an (N, seed) grid of fresh configurations.

    Each cell draws an independent configuration from the model at its own
    derived seed; failures are recorded per cell (value NaN) without
    aborting the scan.
    """
    N_grid = [float(N) for N in N_grid]
    if len(N_grid) < 3:
        raise ValueError("N_grid needs at least 3 entries")
    if any(b <= a for a, b in zip(N_grid, N_grid[1:])):
        raise ValueError("N_grid must be strictly increasing")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    params = dict(statistic_params or {})
    model = dict(model_params)
    model_name = model.pop("model")

    seeds_out, values_out, errors = [], [], []
    for N in N_grid:
        cell_seeds, cell_values = [], []
        for k in range(n_seeds):
            cell_seed = derive_cell_seed(base_seed, N, k)
            cell_seeds.append(cell_seed)
            try:
                config = generate_model(model_name, model, N, cell_seed)
                cell_params = dict(params)
                if statistic_selector == "clustermoment":
                    cell_params.setdefault("sample_seed",
                                           derive_cell_seed(base_seed + 1, N, k))
                value = _evaluate_statistic(statistic_selector, config,
                                            delta, cell_params)
            except Exception as exc:   # noqa: BLE001 - per-cell isolation
                errors.append(f"N={N} seed_index={k}: {exc}")
                value = math.nan
            cell_values.append(float(value))
        seeds_out.append(tuple(cell_seeds))
        values_out.append(tuple(cell_values))

    means, stderrs = [], []
    for vals in values_out:
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
    return CriterionSeries(
        statistic=statistic_selector,
        N_grid=tuple(N_grid),
        seeds=tuple(seeds_out),
        values=tuple(values_out),
        means=tuple(means),
        stderrs=tuple(stderrs),
        plateau_estimate=estimate,
        plateau_ok=ok,
        errors=tuple(errors),
    )

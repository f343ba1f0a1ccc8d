"""Network effective-conductivity tensor from boundary-clamped solves.

The inclusion network alone (gap conductances 2 mu_e, no ambient medium)
is driven by clamping the potential to the affine field xi . x on every
node touching a boundary layer of the box, and minimizing the pure gap
energy sum_e 2 mu_e (u_a - u_b)^2 over the interior nodes.  The map
xi -> min-energy / |Q_N| is a quadratic form; its matrix A_net is
recovered from six directions by polarization.

A_net measures the inclusion-network contribution only: no ambient-medium
conductance is added in parallel, and no claim is made that A_net
converges to the continuum homogenized matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .criteria import derive_cell_seed, generate_model
from .energy import SolverError, SolverOptions
from .geometry import _connected_labels, components, restrict_box
from .multigraph import InclusionGraph, build_graph

__all__ = [
    "EffectiveTensor",
    "EffectiveSeries",
    "boundary_nodes",
    "network_effective_tensor",
    "effective_scan",
    "TENSOR_DIRECTIONS",
]

_SQ2 = 1.0 / math.sqrt(2.0)

# Three axes plus three face diagonals: enough to polarize a symmetric form.
TENSOR_DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (_SQ2, _SQ2, 0.0),
    (_SQ2, 0.0, _SQ2),
    (0.0, _SQ2, _SQ2),
)


@dataclass(frozen=True)
class EffectiveTensor:
    """Symmetric 3x3 network tensor with its per-direction energy densities."""

    matrix: np.ndarray                  # (3, 3)
    direction_energies: tuple[float, ...]
    box_half_width: float
    delta: float
    layer_width: float

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.matrix)

    def to_dict(self):
        return {
            "matrix": [[float(v) for v in row] for row in self.matrix],
            "direction_energies": [float(v) for v in self.direction_energies],
            "N": self.box_half_width,
            "delta": self.delta,
            "layer_width": self.layer_width,
        }


def boundary_nodes(graph: InclusionGraph, layer_width: float) -> set[int]:
    """Nodes whose component meets the layer of width ``layer_width`` at the box boundary.

    A ball (c, r) meets { x : dist(x, boundary) <= layer_width } exactly
    when max_i |c_i| + r >= N - layer_width.  Requires the graph to carry
    sphere geometry (graphs built from a configuration do).
    """
    if not (layer_width > 0.0):
        raise ValueError("layer_width must be positive")
    if not graph.has_geometry():
        raise ValueError("graph carries no sphere geometry; boundary layers "
                         "need a graph built from its configuration")
    threshold = graph.box_half_width - layer_width
    out = set()
    for node in graph.nodes:
        reach = np.max(np.abs(node.sphere_centers), axis=1) + node.sphere_radii
        if float(reach.max()) >= threshold:
            out.add(node.id)
    return out


def _clamped_gap_minimum(graph, clamped, u_clamped, solver_opts):
    """Minimize sum_e 2 mu_e (u_a - u_b)^2 with the given nodes clamped.

    Interior clusters with no path to a clamped node are free up to a
    constant; they are set to zero (their edges contribute nothing).
    Returns the minimal gap energy.
    """
    opts = solver_opts or SolverOptions()
    n = graph.n_nodes
    a_idx, b_idx, mu, _ = graph.edge_arrays
    u = np.zeros(n)
    u[list(u_clamped)] = list(u_clamped.values())

    free = np.ones(n, dtype=bool)
    free[list(clamped)] = False
    if free.any() and graph.n_edges:
        # Keep only free nodes connected to the clamped set through edges.
        m, cluster = _connected_labels(n, a_idx, b_idx)
        anchored = np.zeros(m, dtype=bool)
        anchored[cluster[list(clamped)]] = True
        solvable = free & anchored[cluster]
        idx_of = -np.ones(n, dtype=np.int64)
        solve_ids = np.nonzero(solvable)[0]
        idx_of[solve_ids] = np.arange(solve_ids.size)
        if solve_ids.size:
            # Per edge, in edge order: (ia, ia, w), (ib, ib, w) for each
            # solvable end and (ia, ib, -w), (ib, ia, -w) when both are;
            # the CSR duplicate sums then add in a fixed order.
            ia, ib = idx_of[a_idx], idx_of[b_idx]
            both = (ia >= 0) & (ib >= 0)
            entry = np.stack([ia >= 0, ib >= 0, both, both], axis=1)
            rows = np.stack([ia, ib, ia, ib], axis=1)[entry]
            cols = np.stack([ia, ib, ib, ia], axis=1)[entry]
            vals = np.stack([mu, mu, -mu, -mu], axis=1)[entry]
            rhs = np.zeros(solve_ids.size)
            # An edge with one solvable end feeds the clamped end's value.
            one_end = (ia >= 0) != (ib >= 0)
            far = np.where(ia >= 0, u[b_idx], u[a_idx])
            np.add.at(rhs, np.maximum(ia, ib)[one_end], (mu * far)[one_end])
            L = scipy.sparse.csr_matrix(
                (vals, (rows, cols)), shape=(solve_ids.size, solve_ids.size))
            if solve_ids.size < opts.dense_cutoff:
                chol = scipy.linalg.cho_factor(L.toarray())
                x = scipy.linalg.cho_solve(chol, rhs)
            else:
                max_iter = (opts.max_iter if opts.max_iter is not None
                            else 10 * solve_ids.size)
                precond = scipy.sparse.diags(1.0 / L.diagonal())
                x, info = scipy.sparse.linalg.cg(
                    L, rhs, rtol=opts.tol, atol=0.0, maxiter=max_iter, M=precond)
                if info != 0:
                    raise SolverError("clamped network solve did not converge")
            rhs_norm = float(np.linalg.norm(rhs))
            if rhs_norm > 0.0:
                res = float(np.linalg.norm(L @ x - rhs)) / rhs_norm
                if res > max(opts.tol, 1e-12) * 10.0:
                    raise SolverError(
                        f"clamped solve residual {res:.3e} above tolerance",
                        residual=res)
            u[solve_ids] = x

    diff = u[a_idx] - u[b_idx]
    return float(np.sum(2.0 * mu * diff * diff))


def network_effective_tensor(graph: InclusionGraph, layer_width: float,
                             solver_opts: SolverOptions | None = None
                             ) -> EffectiveTensor:
    """Network tensor by clamping affine data on the boundary layer.

    For each probe direction xi the boundary nodes carry u = xi . x_I and
    the interior minimizes the pure gap energy; e(xi) = E_min / |Q_N|.
    Axes give the diagonal of A_net, the face diagonals give the
    off-diagonal entries by polarization.
    """
    if graph.n_nodes == 0:
        zero = np.zeros((3, 3))
        return EffectiveTensor(zero, (0.0,) * 6, graph.box_half_width,
                               graph.delta, layer_width)
    clamped = boundary_nodes(graph, layer_width)
    volume = graph.box_volume()
    energies = []
    for direction in TENSOR_DIRECTIONS:
        xi = np.asarray(direction, dtype=float)
        u_clamped = {i: float(graph.nodes[i].centroid @ xi) for i in clamped}
        e = _clamped_gap_minimum(graph, clamped, u_clamped, solver_opts)
        energies.append(e / volume)

    A = np.zeros((3, 3))
    A[0, 0], A[1, 1], A[2, 2] = energies[0], energies[1], energies[2]
    pairs = ((0, 1), (0, 2), (1, 2))
    for (i, j), e_diag in zip(pairs, energies[3:]):
        A[i, j] = A[j, i] = e_diag - 0.5 * (A[i, i] + A[j, j])
    return EffectiveTensor(A, tuple(energies), graph.box_half_width,
                           graph.delta, layer_width)


@dataclass(frozen=True)
class EffectiveSeries:
    """Per-(N, seed) tensors with entrywise means and Frobenius spread."""

    N_grid: tuple[float, ...]
    seeds: tuple[tuple[int, ...], ...]
    tensors: tuple[tuple[EffectiveTensor, ...], ...]
    mean_matrices: tuple[np.ndarray, ...]
    frobenius_stderrs: tuple[float, ...]
    errors: tuple[str, ...] = ()

    def to_rows(self):
        """CSV rows (N, seed, a11, a22, a33, a12, a13, a23)."""
        rows = []
        for N, seeds, tens in zip(self.N_grid, self.seeds, self.tensors):
            for seed, t in zip(seeds, tens):
                m = t.matrix
                rows.append((N, seed, m[0, 0], m[1, 1], m[2, 2],
                             m[0, 1], m[0, 2], m[1, 2]))
        return rows


def effective_scan(model_params: dict, delta: float, N_grid, n_seeds: int,
                   layer_width: float | None = None, base_seed: int = 0,
                   solver_opts: SolverOptions | None = None) -> EffectiveSeries:
    """Tensors over an (N, seed) grid; clamping layer defaults to delta."""
    N_grid = [float(N) for N in N_grid]
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    layer = float(layer_width) if layer_width is not None else float(delta)
    model = dict(model_params)
    model_name = model.pop("model")

    seeds_out, tensors_out, errors = [], [], []
    means, stderrs = [], []
    for N in N_grid:
        cell_seeds, cell_tensors, mats = [], [], []
        for k in range(n_seeds):
            cell_seed = derive_cell_seed(base_seed, N, k)
            cell_seeds.append(cell_seed)
            try:
                config = generate_model(model_name, model, N, cell_seed)
                restricted = restrict_box(config, config.box_half_width)
                comp = components(restricted)
                graph = build_graph(comp, restricted, delta)
                tensor = network_effective_tensor(graph, layer, solver_opts)
            except Exception as exc:   # noqa: BLE001 - per-cell isolation
                errors.append(f"N={N} seed_index={k}: {exc}")
                tensor = EffectiveTensor(np.full((3, 3), np.nan), (math.nan,) * 6,
                                         N, delta, layer)
            cell_tensors.append(tensor)
            if np.all(np.isfinite(tensor.matrix)):
                mats.append(tensor.matrix)
        seeds_out.append(tuple(cell_seeds))
        tensors_out.append(tuple(cell_tensors))
        if mats:
            stack = np.stack(mats)
            mean = stack.mean(axis=0)
            means.append(mean)
            if len(mats) > 1:
                frob = np.array([np.linalg.norm(m - mean) for m in mats])
                stderrs.append(float(np.sqrt(np.sum(frob ** 2)
                                             / (len(mats) - 1))
                                     / math.sqrt(len(mats))))
            else:
                stderrs.append(0.0)
        else:
            means.append(np.full((3, 3), np.nan))
            stderrs.append(math.nan)
    return EffectiveSeries(
        N_grid=tuple(N_grid),
        seeds=tuple(seeds_out),
        tensors=tuple(tensors_out),
        mean_matrices=tuple(means),
        frobenius_stderrs=tuple(stderrs),
        errors=tuple(errors),
    )

"""Network effective-conductivity tensor from boundary-clamped solves.

The inclusion network alone (gap conductances 2 mu_e, no ambient medium)
is driven by clamping the potential to the affine field xi . x on every
node touching a boundary layer of the box, and minimizing the pure gap
energy sum_e 2 mu_e (u_a - u_b)^2 over the interior nodes.  The map
xi -> min-energy / |Q_N| is a quadratic form; its matrix A_net is
recovered from six directions by polarization.  The clamped system
matrix does not depend on xi: it is assembled and factored once per
graph, and the six directions differ only in the right-hand side.

A_net measures the inclusion-network contribution only: no ambient-medium
conductance is added in parallel, and no claim is made that A_net
converges to the continuum homogenized matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .criteria import CellScan, scan_cells
from .energy import SolverOptions, SPDSolver
from .geometry import _connected_labels
from .multigraph import InclusionGraph

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


def boundary_nodes(graph: InclusionGraph, layer_width: float) -> set[int]:
    """Nodes whose component meets the layer of width ``layer_width`` at the box boundary.

    A ball (c, r) meets { x : dist(x, boundary) <= layer_width } exactly
    when max_i |c_i| + r >= N - layer_width.  Requires the graph to carry
    sphere geometry (graphs built from a configuration do).
    """
    if not (layer_width > 0.0):
        raise ValueError("layer_width must be positive")
    if graph.spheres is None:
        raise ValueError("graph carries no sphere geometry; boundary layers "
                         "need a graph built from its configuration")
    centers, radii = graph.spheres.centers, graph.spheres.radii
    reach = np.max(np.abs(centers), axis=1) + radii
    return set(np.unique(
        graph.sphere_node[reach >= graph.box_half_width - layer_width]).tolist())


def network_effective_tensor(graph: InclusionGraph, layer_width: float,
                             solver_opts: SolverOptions | None = None
                             ) -> EffectiveTensor:
    """Network tensor by clamping affine data on the boundary layer.

    For each probe direction xi the boundary nodes carry u = xi . x_I and
    the interior minimizes the pure gap energy; e(xi) = E_min / |Q_N|.
    Axes give the diagonal of A_net, the face diagonals give the
    off-diagonal entries by polarization.  Interior clusters with no path
    to a clamped node are free up to a constant; they are set to zero
    (their edges contribute nothing).
    """
    n = graph.n_nodes
    a_idx, b_idx, mu = graph.a, graph.b, graph.mu
    clamped = sorted(boundary_nodes(graph, layer_width))
    solvable = np.zeros(n, dtype=bool)
    if graph.n_edges:
        # Keep only free nodes connected to the clamped set through edges.
        m, cluster = _connected_labels(n, a_idx, b_idx)
        anchored = np.zeros(m, dtype=bool)
        anchored[cluster[clamped]] = True
        solvable = anchored[cluster]
        solvable[clamped] = False
    solve_ids = np.nonzero(solvable)[0]
    idx_of = -np.ones(n, dtype=np.int64)
    idx_of[solve_ids] = np.arange(solve_ids.size)
    ia, ib = idx_of[a_idx], idx_of[b_idx]
    if solve_ids.size:
        # Per edge, in edge order: (ia, ia, w), (ib, ib, w) for each
        # solvable end and (ia, ib, -w), (ib, ia, -w) when both are;
        # the CSR duplicate sums then add in a fixed order.
        both = (ia >= 0) & (ib >= 0)
        entry = np.stack([ia >= 0, ib >= 0, both, both], axis=1)
        rows = np.stack([ia, ib, ia, ib], axis=1)[entry]
        cols = np.stack([ia, ib, ib, ia], axis=1)[entry]
        vals = np.stack([mu, mu, -mu, -mu], axis=1)[entry]
        solver = SPDSolver(scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(solve_ids.size, solve_ids.size)),
            solver_opts or SolverOptions())
    # An edge with one solvable end feeds the clamped end's value.
    one_end = (ia >= 0) != (ib >= 0)

    energies = []
    for direction in TENSOR_DIRECTIONS:
        xi = np.asarray(direction, dtype=float)
        u = np.zeros(n)
        # Row-by-row dot products, rounded as ``centroid @ xi`` on one row.
        u[clamped] = (graph.centroids[clamped, None, :] @ xi[:, None])[:, 0, 0]
        if solve_ids.size:
            rhs = np.zeros(solve_ids.size)
            far = np.where(ia >= 0, u[b_idx], u[a_idx])
            np.add.at(rhs, np.maximum(ia, ib)[one_end], (mu * far)[one_end])
            u[solve_ids] = solver.solve(rhs)
        diff = u[a_idx] - u[b_idx]
        energies.append(float(np.sum(2.0 * mu * diff * diff))
                        / graph.box_volume())

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

    CSV_HEADER = ("N", "seed", "a11", "a22", "a33", "a12", "a13", "a23")

    @classmethod
    def from_scan(cls, scan: CellScan, task: str, delta: float,
                  layer: float) -> "EffectiveSeries":
        """Series of one tensor task; failed cells read an all-NaN tensor.

        Means and spreads skip every tensor with a non-finite entry.
        """
        tensors, means, stderrs = [], [], []
        for N, row in zip(scan.N_grid, scan.values[task]):
            row = tuple(EffectiveTensor(np.full((3, 3), np.nan), (math.nan,) * 6,
                                        N, delta, layer) if t is None else t
                        for t in row)
            tensors.append(row)
            mats = [t.matrix for t in row if np.all(np.isfinite(t.matrix))]
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
        return cls(
            N_grid=scan.N_grid,
            seeds=scan.seeds,
            tensors=tuple(tensors),
            mean_matrices=tuple(means),
            frobenius_stderrs=tuple(stderrs),
            errors=scan.errors[task],
        )

    def to_rows(self):
        """CSV rows (N, seed, a11, a22, a33, a12, a13, a23)."""
        rows = []
        for N, seeds, tens in zip(self.N_grid, self.seeds, self.tensors):
            for seed, t in zip(seeds, tens):
                m = t.matrix
                rows.append((N, seed, m[0, 0], m[1, 1], m[2, 2],
                             m[0, 1], m[0, 2], m[1, 2]))
        return rows

    def to_summary_dict(self):
        return {
            "mean_matrices": [[[float(v) for v in row] for row in m]
                              for m in self.mean_matrices],
            "frobenius_stderrs": [float(v) for v in self.frobenius_stderrs],
        }


def effective_scan(model_params: dict, delta: float, N_grid, n_seeds: int,
                   layer_width: float | None = None, base_seed: int = 0,
                   solver_opts: SolverOptions | None = None,
                   threads: int = 1) -> EffectiveSeries:
    """Tensors over an (N, seed) grid, ``threads`` cells at a time.

    The clamping layer defaults to delta.
    """
    layer = float(layer_width) if layer_width is not None else float(delta)
    scan = scan_cells(model_params, delta, N_grid, n_seeds, {
        "effective": lambda cell: network_effective_tensor(
            cell.graph, layer, solver_opts)}, base_seed, threads)
    return EffectiveSeries.from_scan(scan, "effective", delta, layer)

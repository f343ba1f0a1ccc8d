"""Network effective-conductivity tensor from boundary-clamped solves.

The inclusion network alone (gap conductances 2 mu_e, no ambient medium)
is driven by clamping the potential to the affine field xi . x on every
node touching a boundary layer of the box, and minimizing the pure gap
energy sum_e 2 mu_e (u_a - u_b)^2 over the interior nodes.  The map
xi -> min-energy / |Q_N| is a quadratic form with matrix A_net.  The
minimizer is linear in xi, so the three axis fields x_1, x_2, x_3 give
all of it: their clamped minimizers U = (u_1, u_2, u_3) come from one
three-column solve of the free block of the graph Laplacian, and A_net
is the Gram matrix dU^T diag(2 mu) dU / |Q_N| of their edge differences.
``network_effective_tensor`` returns A_net as a symmetric (3, 3) array.

A_net measures the inclusion-network contribution only: no ambient-medium
conductance is added in parallel, and no claim is made that A_net
converges to the continuum homogenized matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import LaplacianAssembly, SPDSolver
from .multigraph import InclusionGraph

__all__ = [
    "EffectiveSeries",
    "boundary_nodes",
    "network_effective_tensor",
    "effective_scan",
]


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


def network_effective_tensor(graph: InclusionGraph,
                             layer_width: float) -> np.ndarray:
    """Network tensor A, a symmetric (3, 3) array, from clamped affine data.

    The boundary nodes carry U = x_I, one column per axis, and the
    interior nodes minimize the pure gap energy of each column: with L the
    graph Laplacian, U_free solves L_ff U_free = -L_fc U_clamped, all three
    columns in one certified solve.  Then A = dU^T diag(2 mu) dU / |Q_N|
    with dU = U_a - U_b per edge, so xi^T A xi = E_min(xi) / |Q_N|.
    Clusters (the graph's ``_node_clusters``) that hold no clamped node
    are free up to a constant; they are set to zero (no edge energy).
    """
    clamped = np.array(sorted(boundary_nodes(graph, layer_width)),
                       dtype=np.int64)
    cluster = graph._node_clusters[1]
    free = np.setdiff1d(np.flatnonzero(np.isin(cluster, cluster[clamped])),
                        clamped, assume_unique=True)
    U = np.zeros((graph.n_nodes, 3))
    U[clamped] = graph.centroids[clamped]
    if free.size:
        # L_ff is SPD: every mu > 0, and every free node's cluster holds a
        # clamped node, so no nonzero U_free leaves the gap energy at 0.
        rows = LaplacianAssembly(graph).laplacian[free]
        U[free] = SPDSolver(rows[:, free]).solve(
            -(rows[:, clamped] @ U[clamped]))
    dU = U[graph.a] - U[graph.b]
    A = dU.T @ (2.0 * graph.mu[:, None] * dU) / graph.box_volume()
    return 0.5 * (A + A.T)


@dataclass(frozen=True)
class EffectiveSeries:
    """Per-(N, seed) tensors with entrywise means and Frobenius spread."""

    N_grid: tuple[float, ...]
    seeds: tuple[tuple[int, ...], ...]
    tensors: tuple[tuple[np.ndarray, ...], ...]
    mean_matrices: tuple[np.ndarray, ...]
    frobenius_stderrs: tuple[float, ...]
    errors: tuple[str, ...] = ()

    CSV_HEADER = ("N", "seed", "a11", "a22", "a33", "a12", "a13", "a23")

    @classmethod
    def from_scan(cls, scan, task: str) -> "EffectiveSeries":
        """Series of one tensor task; a failed cell reads an all-NaN array.

        Means and spreads skip every tensor with a non-finite entry.
        """
        tensors, means, stderrs = [], [], []
        for row in scan.values[task]:
            row = tuple(np.full((3, 3), np.nan) if t is None else t
                        for t in row)
            tensors.append(row)
            mats = [t for t in row if np.all(np.isfinite(t))]
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
            for seed, m in zip(seeds, tens):
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
                   threads: int = 1) -> EffectiveSeries:
    """Tensors over an (N, seed) grid, ``threads`` cells at a time.

    The clamping layer defaults to delta.
    """
    from .criteria import scan_limsup   # imports effective
    return scan_limsup(model_params, delta, N_grid, n_seeds, "effective",
                       {"layer_width": layer_width}, base_seed, threads)

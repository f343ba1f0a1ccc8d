"""The discrete gap energy and its minimization in the node potentials.

For a graph with edge weights ``mu_e``, node volumes ``|I|``, a boundary
family b and node potentials u (a float vector, one entry per node), the
energy is

    E(u, b) = sum_e 2 mu_e (b_ab - b_ba + u_a - u_b)^2 + sum_I |I| u_I^2 .

It reads b only through beta_e = b_ab - b_ba, so a family is passed as
that float vector, one entry per edge.

The factor 2 comes from counting each undirected edge once per orientation;
every statistic built on E is a ratio, so the convention only has to be
applied consistently (and it is, everywhere in this package).

Minimizing over u is a symmetric positive definite linear system

    (D + 2 L) u = -2 A^T diag(mu) beta,      beta_e = b_ab - b_ba,

with L the weighted graph Laplacian and D = diag(|I|).  ``SPDSolver`` is
the single solve path of the package (this minimization, the h2 operator
of a large cluster, the clamped network): Jacobi-preconditioned
conjugate gradients, every solution certified by its residual against
the fixed tolerance ``SOLVE_TOL``.  The CG loop, ``_jacobi_cg``, is the
arithmetic of ``scipy.sparse.linalg.cg`` written out, without scipy's
operator dispatch, and it returns its iteration count.  Positive
definiteness is the caller's certificate, read off the data before the
matrix is assembled: here every volume is finite and positive
(``check_volumes``) and every mu > 0, so D + 2 L is SPD.

The module also evaluates the explicit gap profile

    w(r, z) = (a r^2 + nu - z) / (2 a r^2 + nu)

between two paraboloids: the z-part of its Dirichlet energy has the closed
form (pi/2a) ln(1 + 2 a d^2 / nu), the source of the |ln gap| edge weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .multigraph import InclusionGraph

__all__ = [
    "EnergyBreakdown",
    "SolverError",
    "SPDSolver",
    "LaplacianAssembly",
    "energy",
    "minimize_energy",
    "affine_boundary_family",
    "midpoint_boundary_family",
    "KellerParams",
    "KellerTable",
    "keller_energy",
]


class SolverError(RuntimeError):
    """A linear solve failed to reach the requested residual.

    ``residual`` is the relative residual of the rejected solution (NaN
    when the solution is not finite).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EnergyBreakdown:
    """Gap term, mass term and their sum."""

    gap: float
    mass: float
    total: float


# Relative residual every solve aims for; CG stops there, and the gate
# rejects a solution 10 times above it.
SOLVE_TOL = 1e-10
SOLVE_GATE = 10.0 * SOLVE_TOL


def _jacobi_cg(K, inv_diag, b, max_iter):
    """Jacobi-preconditioned CG on K x = b from x = 0.

    The arithmetic, step for step, of ``scipy.sparse.linalg.cg(K, b,
    rtol=SOLVE_TOL, atol=0, maxiter=max_iter, M=diags(inv_diag))``, so
    the solution is bitwise scipy's.  Returns ``(x, iterations,
    converged)``: the steps taken, and whether the residual test passed
    before ``max_iter`` steps ran out.
    """
    x = np.zeros(b.shape)
    r = b.copy()
    stop = SOLVE_TOL * np.linalg.norm(b)
    p = None
    for iteration in range(max_iter):
        if np.linalg.norm(r) < stop:
            return x, iteration, True
        z = inv_diag * r
        rho = np.dot(r, z)
        if p is None:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        q = K @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, max_iter, False


class SPDSolver:
    """Solves K x = rhs for one SPD matrix K and many right-hand sides.

    Conjugate gradients with K's Jacobi preconditioner (``_jacobi_cg``,
    scipy's ``cg`` arithmetic written out, which returns its iteration
    count) run per right-hand side, at most 10 n iterations each, to the
    relative residual ``SOLVE_TOL``.  K is a sparse matrix, symmetric
    positive definite; the caller certifies that from the data K is
    built from.  ``solve`` takes one right-hand side or an (n, k) block
    of them.  Every solution column is certified: a relative residual
    |K x - rhs| / |rhs| above ``SOLVE_GATE``, or NaN, raises
    ``SolverError`` carrying that residual.
    """

    def __init__(self, K):
        self.K = K
        self.n = K.shape[0]
        self._inv_diag = 1.0 / K.diagonal()
        self._max_iter = 10 * self.n

    def solve(self, rhs):
        """The solution x of K x = rhs, certified column by column.

        ``rhs`` is a vector of length n or an (n, k) array of k
        right-hand sides, and x has its shape; CG runs once per column.
        A zero column gives zeros; a column whose relative residual fails
        the gate raises ``SolverError`` carrying that residual.  Each
        column is solved divided by the smallest power of two above its
        largest entry, so its norms neither underflow nor overflow; the
        scaling is exact, and the solution bitwise that of the unscaled
        column wherever nothing underflows.
        """
        rhs = np.asarray(rhs, dtype=float)
        cols = rhs.reshape(self.n, -1)
        x = np.zeros(cols.shape)
        peak = np.abs(cols).max(axis=0, initial=0.0)
        live = np.flatnonzero(peak)
        if live.size == 0:
            return x.reshape(rhs.shape)
        scale = np.ldexp(1.0, np.frexp(peak[live])[1])
        cols = cols[:, live] / scale
        rhs_norm = np.linalg.norm(cols, axis=0)
        converged = np.ones(live.size, dtype=bool)
        for k, j in enumerate(live):
            x[:, j], _, converged[k] = _jacobi_cg(
                self.K, self._inv_diag, np.ascontiguousarray(cols[:, k]),
                self._max_iter)
        residual = np.linalg.norm(self.K @ x[:, live] - cols, axis=0) / rhs_norm
        if not converged.all():
            worst = float(residual[np.flatnonzero(~converged)[0]])
            raise SolverError(
                f"conjugate gradients did not converge in {self._max_iter} "
                f"iterations (relative residual {worst:.3e})", residual=worst)
        bad = np.flatnonzero(~(residual <= SOLVE_GATE))
        if bad.size:
            worst = float(residual[bad[0]])
            raise SolverError(
                f"solution rejected: relative residual {worst:.3e} exceeds "
                f"tolerance {SOLVE_TOL:.1e}", residual=worst)
        x[:, live] *= scale
        return x.reshape(rhs.shape)


def _check_indexing(graph, u=None, beta=None):
    if u is not None and u.size != graph.n_nodes:
        raise ValueError(f"potential vector has {u.size} entries, "
                         f"graph has {graph.n_nodes} nodes")
    if beta is not None:
        if beta.size != graph.n_edges:
            raise ValueError(f"boundary family has {beta.size} entries, "
                             f"graph has {graph.n_edges} edges")
        if not np.all(np.isfinite(beta)):
            raise ValueError("boundary family values must be finite")


def _gap_residuals(graph, u, beta):
    """Per-edge residuals (beta + u_a - u_b), with beta = b_ab - b_ba.

    Evaluation order is fixed ((beta + u_a) - u_b) so that potentials
    built by telescoping the same differences cancel exactly in floating
    point; the test oracle ``cycle_free_potentials`` in
    ``tests/conftest.py`` relies on this.
    """
    return (beta + u[graph.a]) - u[graph.b]


def energy(graph: InclusionGraph, u, beta) -> EnergyBreakdown:
    """Evaluate the energy at node potentials ``u`` and family ``beta``,
    each read as a 1-D float vector; each undirected edge contributes
    twice.  A sum that overflows (a huge but finite family) raises
    ValueError."""
    u = np.asarray(u, dtype=float).reshape(-1)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    _check_indexing(graph, u, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        r = _gap_residuals(graph, u, beta)
        gap = float(np.sum(2.0 * graph.mu * r * r))
        mass = float(np.sum(graph.volumes * u * u))
    if not (math.isfinite(gap) and math.isfinite(mass)):
        raise ValueError(f"energy is not finite: gap {gap!r}, mass {mass!r}")
    return EnergyBreakdown(gap=gap, mass=mass, total=gap + mass)


class LaplacianAssembly:
    """Sparse assembly of the minimization system for a fixed graph.

    ``laplacian`` sums parallel-edge weights into node-pair entries
    (positive semidefinite, annihilates constants), and ``system_matrix
    = diag(|I|) + 2 laplacian`` is the SPD matrix of the stationarity
    equations.
    """

    def __init__(self, graph: InclusionGraph):
        n = graph.n_nodes
        a_idx, b_idx, mu = graph.a, graph.b, graph.mu
        rows = np.concatenate([a_idx, b_idx, a_idx, b_idx])
        cols = np.concatenate([a_idx, b_idx, b_idx, a_idx])
        vals = np.concatenate([mu, mu, -mu, -mu])
        self.laplacian = scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(n, n))
        self.system_matrix = (scipy.sparse.diags(graph.volumes, format="csr")
                              + 2.0 * self.laplacian).tocsr()
        self._graph = graph

    def rhs(self, beta):
        """Right-hand side -2 A^T diag(mu) beta of the antisymmetric part."""
        graph = self._graph
        rhs = np.zeros(graph.n_nodes)
        np.add.at(rhs, graph.a, -2.0 * graph.mu * beta)
        np.add.at(rhs, graph.b, 2.0 * graph.mu * beta)
        return rhs


def minimize_energy(graph: InclusionGraph, beta):
    """Minimize the energy over the node potentials at the family ``beta``.

    Returns ``(u_star, breakdown)``, ``u_star`` the float vector of node
    potentials.  The minimizer is unique and is certified by
    ``SPDSolver``'s residual gate.  A node volume that is not finite and
    positive raises SchemaError.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    _check_indexing(graph, beta=beta)
    # Every mu = |ln d| > 0 since 0 < d < 1, so D > 0 makes K = D + 2 L SPD.
    graph.check_volumes()
    if graph.n_nodes == 0:
        return np.zeros(0), EnergyBreakdown(0.0, 0.0, 0.0)
    assembly = LaplacianAssembly(graph)
    u = SPDSolver(assembly.system_matrix).solve(assembly.rhs(beta))
    return u, energy(graph, u, beta)


# ---------------------------------------------------------------------------
# Canonical boundary families
# ---------------------------------------------------------------------------
# Each returns beta = b_ab - b_ba; an overflow from a huge xi leaves a
# non-finite beta, which the energy refuses.

def affine_boundary_family(graph: InclusionGraph, xi):
    """The family b_ab = xi . x_a_centroid, b_ba = xi . x_b_centroid."""
    with np.errstate(over="ignore", invalid="ignore"):
        proj = graph.centroids @ np.asarray(xi, dtype=float).reshape(3)
        return proj[graph.a] - proj[graph.b]


def midpoint_boundary_family(graph: InclusionGraph, xi):
    """Affine values measured from each edge's contact midpoint.

    b_ab = xi . (x_a_centroid - m_e), with m_e the midpoint of the
    edge's two contact points; these values stay bounded by
    |xi| (diam + delta) regardless of where the box sits.
    """
    xi = np.asarray(xi, dtype=float).reshape(3)
    with np.errstate(over="ignore", invalid="ignore"):
        proj = graph.centroids @ xi
        mid_proj = ((graph.xa + graph.xb) * 0.5) @ xi
        ab = proj[graph.a] - mid_proj
        ba = proj[graph.b] - mid_proj
        diam = graph.diameters
        bound = (np.linalg.norm(xi) * (np.maximum(diam[graph.a], diam[graph.b])
                                       + graph.delta)) * (1.0 + 1e-9) + 1e-12
        if np.any(np.abs(ab) > bound) or np.any(np.abs(ba) > bound):
            raise ValueError("midpoint family out of its guaranteed bound; "
                             "graph data is inconsistent")
        return ab - ba


# ---------------------------------------------------------------------------
# Gap profile (Keller) energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KellerParams:
    """Paraboloid gap geometry: curvature a, width nu, radius d, weight gamma."""

    a: float
    nu: float
    d: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.a < math.inf):
            raise ValueError("curvature a must be finite and positive")
        if not (0.0 < self.nu < 1.0):
            raise ValueError("gap width nu must lie in (0, 1)")
        if not (0.0 < self.d < math.inf):
            raise ValueError("gap radius d must be finite and positive")
        if not (0.0 <= self.gamma < math.inf):
            raise ValueError("weight exponent gamma must be finite and >= 0")


def _keller_midpoint(params: KellerParams, n_r: int, n_z: int):
    """Midpoint quadratures of the gap-profile gradient over the gap.

    The gap region is { r <= d, -a r^2 <= z <= nu + a r^2 }; the angular
    integral is analytic (factor 2 pi).  Returns (z-part, full, weighted)
    where the weight is |x|^(2 gamma) measured from the gap center.
    """
    a, nu, d, gamma = params.a, params.nu, params.d, params.gamma
    r = (np.arange(n_r) + 0.5) * (d / n_r)
    h = nu + 2.0 * a * r * r            # z-range length at radius r
    denom = 2.0 * a * r * r + nu
    wz2 = 1.0 / (denom * denom)         # (dw/dz)^2, independent of z
    base = 2.0 * math.pi * r * (d / n_r) * (h / n_z)

    acc_z = 0.0
    acc_full = 0.0
    acc_weighted = 0.0
    for k in range(n_z):
        t = (k + 0.5) / n_z
        z = -a * r * r + t * h
        wr = 2.0 * a * r * (2.0 * z - nu) / (denom * denom)
        grad2 = wr * wr + wz2
        acc_z += float(np.sum(base * wz2))
        acc_full += float(np.sum(base * grad2))
        if gamma > 0.0:
            weight = (r * r + z * z) ** gamma
            acc_weighted += float(np.sum(base * grad2 * weight))
    if gamma == 0.0:
        acc_weighted = acc_full
    return acc_z, acc_full, acc_weighted


def keller_energy(params: KellerParams) -> dict:
    """Dirichlet energies of the explicit gap profile.

    Returns a dict with

    * ``z_closed_form``       -- exact value of the z-derivative energy,
                                 (pi / 2a) ln(1 + 2 a d^2 / nu),
    * ``z_quadrature``        -- midpoint quadrature of the same integral,
    * ``full_quadrature``     -- quadrature of the full squared gradient,
    * ``weighted_quadrature`` -- full gradient weighted by |x|^(2 gamma).

    Quadratures use the tensor midpoint rule in (r, z) on a 1024 x 32 grid
    with the angular factor analytic, refined once by grid doubling and
    Richardson extrapolated.  The radial resolution is raised automatically
    for small ``nu`` so the near-axis peak of the integrand stays resolved.
    """
    # Resolve the integrand's peak at r ~ sqrt(nu / a).
    n_r = max(1024, int(math.ceil(8.0 * params.d / math.sqrt(params.nu / params.a))))
    n_z = 32

    coarse = _keller_midpoint(params, n_r, n_z)
    fine = _keller_midpoint(params, 2 * n_r, 2 * n_z)
    z_quad, full_quad, weighted_quad = (
        (4.0 * f - c) / 3.0 for c, f in zip(coarse, fine))

    a, nu, d = params.a, params.nu, params.d
    z_closed = (math.pi / (2.0 * a)) * math.log1p(2.0 * a * d * d / nu)
    return {
        "z_closed_form": z_closed,
        "z_quadrature": z_quad,
        "full_quadrature": full_quad,
        "weighted_quadrature": weighted_quad,
    }


class KellerTable:
    """``keller_energy`` over a grid of widths nu, one row per nu, and the
    slope of the closed form against ln(1/nu) (NaN for a single nu)."""

    CSV_HEADER = ("nu", "z_closed_form", "z_quadrature", "full_quadrature",
                  "weighted_quadrature")

    def __init__(self, grid: list[KellerParams]):
        self.rows = [[p.nu, *map(keller_energy(p).get, self.CSV_HEADER[1:])]
                     for p in grid]
        x = np.log(1.0 / np.array([row[0] for row in self.rows]))
        y = np.array([row[1] for row in self.rows])
        self.slope = (float(np.polyfit(x, y, 1)[0]) if len(self.rows) > 1
                      else math.nan)

    def to_rows(self):
        return self.rows

    def to_summary_dict(self):
        return {"rows": self.rows, "slope": self.slope}

"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive quantities from first principles
(dense matrices assembled by explicit loops, brute-force pair scans) so
they share no code path with the package internals they check.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from stiffnet.criteria import ScanCell, task_evaluator
from stiffnet.energy import BoundaryFamily, minimize_energy
from stiffnet.multigraph import InclusionGraph


class NodeRow(NamedTuple):
    """One node of a graph: volume, centroid, diameter and boundary flag."""

    id: int
    volume: float
    centroid: np.ndarray
    diameter: float
    boundary: bool


class EdgeRow(NamedTuple):
    """One edge of a graph: its ends, contact points, gap ``d`` and ``mu``."""

    id: int
    a: int
    b: int
    xa: np.ndarray
    xb: np.ndarray
    d: float
    mu: float


def node_rows(graph):
    """The graph's node columns as rows, in node order."""
    return [NodeRow(k, vol, x, diam, bd) for k, (vol, x, diam, bd) in
            enumerate(zip(graph.volumes.tolist(), list(graph.centroids),
                          graph.diameters.tolist(), graph.boundary.tolist()))]


def edge_rows(graph):
    """The graph's edge columns as rows, in edge order."""
    return [EdgeRow(*row) for row in zip(
        graph.edge_ids.tolist(), graph.a.tolist(), graph.b.tolist(),
        list(graph.xa), list(graph.xb), graph.d.tolist(), graph.mu.tolist())]


def make_graph(volumes, positions, edge_list, delta=0.5, N=1.0,
               boundary=None):
    """Hand-build a graph: edge_list entries are (a, b, d) gap triples.

    Contact points are synthesized on the segment between the node
    centroids (their exact location only matters for midpoint families).
    """
    volumes = [float(v) for v in volumes]
    positions = [np.asarray(p, dtype=float) for p in positions]
    n = len(volumes)
    boundary = boundary or [False] * n
    records = []
    for (a, b, d) in edge_list:
        a, b = int(a), int(b)
        if a > b:
            a, b = b, a
        pa, pb = positions[a], positions[b]
        direction = pb - pa
        norm = np.linalg.norm(direction)
        direction = direction / norm if norm > 0 else np.array([1.0, 0.0, 0.0])
        mid = 0.5 * (pa + pb)
        records.append((a, b, float(d),
                        mid - 0.5 * d * direction, mid + 0.5 * d * direction))
    records.sort(key=lambda r: (r[0], r[1], r[2]))
    m = len(records)
    a, b, d, xa, xb = (list(col) for col in zip(*records)) if m else [[]] * 5
    return InclusionGraph(
        volumes=np.array(volumes), centroids=np.array(positions).reshape(n, 3),
        diameters=np.ones(n), boundary=np.array(boundary, dtype=bool),
        edge_ids=np.arange(m), a=np.array(a, dtype=np.int64),
        b=np.array(b, dtype=np.int64), xa=np.array(xa).reshape(m, 3),
        xb=np.array(xb).reshape(m, 3), d=np.array(d, dtype=float),
        mu=np.array([abs(math.log(v)) for v in d]), delta=delta,
        box_half_width=N)


def evaluate_task(task, config, delta=0.5, **params):
    """A scan task's value on one ScanCell holding ``config``."""
    cell = ScanCell(config.model, {}, delta, config.box_half_width,
                    config.seed, 0)
    cell.config = config    # fills the cached stage ahead of its first use
    return task_evaluator(task, params, 0)(cell)


def single_edge_graph(mu=2.0, volumes=(1.0, 1.0)):
    """Two nodes, one edge of weight mu (gap exp(-mu))."""
    return make_graph(volumes, [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)],
                      [(0, 1, math.exp(-mu))])


def random_test_graph(rng, n_nodes_max=20, n_edges_max=40, connected=False):
    """A random multigraph with positive volumes and gap widths in (0, 1)."""
    n = int(rng.integers(2, n_nodes_max + 1))
    volumes = rng.uniform(0.2, 3.0, size=n)
    positions = rng.uniform(-2.0, 2.0, size=(n, 3))
    m = int(rng.integers(1, n_edges_max + 1))
    edges = []
    if connected:
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((j, i, float(rng.uniform(0.01, 0.5))))
    while len(edges) < m:
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        edges.append((int(a), int(b), float(rng.uniform(0.01, 0.5))))
    return make_graph(volumes, positions, edges, N=2.0)


def dense_minimum_oracle(graph, b_ab, b_ba):
    """Independent dense solve of the energy minimization.

    Assembles K = D + 2 L and the right-hand side entry by entry with
    explicit loops, solves with numpy, and evaluates the energy by the
    textbook formula.  Returns (u, total energy).
    """
    n = graph.n_nodes
    nodes, edges = node_rows(graph), edge_rows(graph)
    K = np.zeros((n, n))
    rhs = np.zeros(n)
    for i, node in enumerate(nodes):
        K[i, i] += node.volume
    for k, e in enumerate(edges):
        beta = b_ab[k] - b_ba[k]
        K[e.a, e.a] += 2.0 * e.mu
        K[e.b, e.b] += 2.0 * e.mu
        K[e.a, e.b] -= 2.0 * e.mu
        K[e.b, e.a] -= 2.0 * e.mu
        rhs[e.a] -= 2.0 * e.mu * beta
        rhs[e.b] += 2.0 * e.mu * beta
    u = np.linalg.solve(K, rhs) if n else np.zeros(0)
    total = 0.0
    for k, e in enumerate(edges):
        r = b_ab[k] - b_ba[k] + u[e.a] - u[e.b]
        total += 2.0 * e.mu * r * r
    for i, node in enumerate(nodes):
        total += node.volume * u[i] * u[i]
    return u, total


def eigensolve_oracle(graph):
    """Top generalized eigenvalue via polarization of the minimum energy.

    Assembles the condensed quadratic form entry by entry from minimum
    energies of basis families (independent of the package's Schur-
    complement assembly), then takes the largest eigenvalue.
    """
    m = graph.n_edges

    def N_of(beta):
        b = BoundaryFamily.from_antisymmetric(beta)
        _, out = minimize_energy(graph, b)
        return out.total

    Q = np.zeros((m, m))
    singles = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        singles.append(N_of(e))
        Q[i, i] = singles[i]
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros(m)
            e[i] = e[j] = 1.0
            Q[i, j] = Q[j, i] = 0.5 * (N_of(e) - singles[i] - singles[j])
    return float(np.linalg.eigvalsh(Q)[-1])


def energy_gradient(graph, u, b):
    """Gradient of the energy with respect to the node potentials."""
    r = (b.antisymmetric_part() + u.u[graph.a]) - u.u[graph.b]
    g = 2.0 * graph.volumes * u.u
    np.add.at(g, graph.a, 4.0 * graph.mu * r)
    np.add.at(g, graph.b, -4.0 * graph.mu * r)
    return g


def closest_points(sphere_a, sphere_b):
    """Closest surface points of two disjoint spheres and their gap.

    Spheres are (center, radius) pairs.
    The points lie on the center line; rejects overlapping spheres.
    """
    ca, ra = np.asarray(sphere_a[0], dtype=float), float(sphere_a[1])
    cb, rb = np.asarray(sphere_b[0], dtype=float), float(sphere_b[1])
    dist = float(np.linalg.norm(cb - ca))
    if dist <= ra + rb:
        raise ValueError("spheres overlap or touch; merge them into one "
                         "component instead of building a gap")
    u = (cb - ca) / dist
    xa = ca + ra * u
    xb = cb - rb * u
    return xa, xb, dist - ra - rb


class ScatterSolveMinimizer:
    """The h2 ascent's minimizer with one certified solve per call.

    Each ``minimum`` scatters the right-hand side -A^T W beta with
    ``np.add.at`` and solves the system once; it shares only ``SPDSolver``
    with the package's condensed operator and stands in for
    ``criteria._CachedMinimizer`` as its oracle.
    """

    def __init__(self, graph):
        from stiffnet.energy import LaplacianAssembly, SPDSolver

        self.a_idx, self.b_idx, self.mu = graph.a, graph.b, graph.mu
        self.n = graph.n_nodes
        self.volumes = graph.volumes
        self.solver = SPDSolver(LaplacianAssembly(graph).system_matrix)

    def minimum(self, beta):
        """(2 mu r, minimal energy) at the antisymmetric family beta.

        r are the gap residuals at the minimizer, so 2 mu r = Q beta for
        the condensed form Q; the energy is summed from the potentials.
        """
        rhs = np.zeros(self.n)
        np.subtract.at(rhs, self.a_idx, 2.0 * self.mu * beta)
        np.add.at(rhs, self.b_idx, 2.0 * self.mu * beta)
        u = self.solver.solve(rhs)
        r = (beta + u[self.a_idx]) - u[self.b_idx]
        num = float(np.sum(2.0 * self.mu * r * r)
                    + np.sum(self.volumes * u * u))
        return 2.0 * self.mu * r, num


def brute_force_gap_pairs(config, delta):
    """All sphere pairs across distinct components with gap <= delta, O(n^2)."""
    from stiffnet.geometry import components

    comp = components(config)
    labels = comp.labels
    n = config.n_spheres
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                continue
            dist = float(np.linalg.norm(config.centers[i] - config.centers[j]))
            gap = dist - config.radii[i] - config.radii[j]
            if gap <= delta:
                out.append((i, j, gap))
    return out


def scalar_g2_violations(config, pairs, dist, delta):
    """Spheres with overlapping contact caps, by explicit per-cap loops.

    ``pairs`` are sphere index pairs and ``dist`` their center distances;
    pairs with gap above ``2*delta`` are skipped.  A sphere counts once as
    soon as two of its caps overlap.
    """
    def cap_cos(r_self, r_other, center_dist):
        c = (center_dist ** 2 + r_self ** 2 - (r_other + delta) ** 2) / (
            2.0 * center_dist * r_self)
        return min(1.0, max(-1.0, c))

    by_sphere = {}
    centers, radii = config.centers, config.radii
    for (i, j), dij in zip(pairs, dist):
        if dij - radii[i] - radii[j] > 2.0 * delta:
            continue
        axis = (centers[j] - centers[i]) / dij
        by_sphere.setdefault(int(i), []).append(
            (math.acos(cap_cos(radii[i], radii[j], dij)), axis))
        by_sphere.setdefault(int(j), []).append(
            (math.acos(cap_cos(radii[j], radii[i], dij)), -axis))
    violations = 0
    for caps in by_sphere.values():
        bad = False
        for k in range(len(caps)):
            for l in range(k + 1, len(caps)):
                dot = float(caps[k][1] @ caps[l][1])
                if math.acos(min(1.0, max(-1.0, dot))) < caps[k][0] + caps[l][0]:
                    bad = True
                    break
            if bad:
                break
        violations += bad
    return violations


def quadratic_extent(centers, radii):
    """Ball-family diameter from the full pairwise matrix, no pruning."""
    dmat = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    return float((dmat + radii[:, None] + radii[None, :]).max())


def bfs_labels(n, pairs):
    """Connected-component labels of ``n`` vertices joined by ``pairs``.

    Breadth-first search from each unlabelled vertex in ascending order,
    so components are numbered by their smallest vertex.
    """
    adjacency = [[] for _ in range(n)]
    for a, b in pairs:
        adjacency[int(a)].append(int(b))
        adjacency[int(b)].append(int(a))
    label = [-1] * n
    current = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        queue = [start]
        label[start] = current
        while queue:
            v = queue.pop()
            for w in adjacency[v]:
                if label[w] < 0:
                    label[w] = current
                    queue.append(w)
        current += 1
    return label


def bfs_clusters(graph):
    """Cluster membership by breadth-first search (oracle for union-find)."""
    return bfs_labels(graph.n_nodes, zip(graph.a.tolist(), graph.b.tolist()))


def node_ball_lists(comp, merge_map=None):
    """Ball indices of each node, from the components (and a short's merge map).

    A merged node holds the sorted union of its source nodes' balls.
    """
    lists = [np.flatnonzero(comp.labels == k).tolist()
             for k in range(comp.n_components)]
    if merge_map is None:
        return lists
    merged = [[] for _ in range(max(merge_map, default=-1) + 1)]
    for k, target in enumerate(merge_map):
        merged[target].extend(lists[k])
    return [sorted(balls) for balls in merged]


def sphere_node_oracle(n_spheres, ball_lists):
    """Ball -> node map filled node by node; -1 marks a ball in no node."""
    sphere_to_node = np.full(n_spheres, -1, dtype=np.int64)
    for node_id, balls in enumerate(ball_lists):
        sphere_to_node[balls] = node_id
    return sphere_to_node


def boundary_nodes_oracle(config, ball_lists, layer_width):
    """Nodes with a ball meeting the boundary layer, one node at a time."""
    threshold = config.box_half_width - layer_width
    out = set()
    for node_id, balls in enumerate(ball_lists):
        reach = (np.max(np.abs(config.centers[balls]), axis=1)
                 + config.radii[balls])
        if float(reach.max()) >= threshold:
            out.add(node_id)
    return out


def short_oracle(graph, node_pairs):
    """A short by per-group and per-edge loops over the graph's rows.

    Returns ``(merge_map, nodes, edges)``: node rows ``(volume, centroid,
    boundary)`` with the merged volume an fsum and the centroid summed in
    ascending node order, and surviving edge rows ``(id, a, b, xa, xb, d,
    mu)`` remapped, swapped where the merged ends change order, and sorted
    by ``(a, b, d, id)``.
    """
    merge_map = bfs_labels(graph.n_nodes, node_pairs)
    rows = node_rows(graph)
    nodes = []
    for k in range(max(merge_map, default=-1) + 1):
        mem = [nd for nd in rows if merge_map[nd.id] == k]
        if len(mem) == 1:
            nodes.append((mem[0].volume, tuple(mem[0].centroid),
                          mem[0].boundary))
            continue
        volume = math.fsum(nd.volume for nd in mem)
        centroid = sum((nd.volume * nd.centroid for nd in mem),
                       start=np.zeros(3)) / volume
        nodes.append((volume, tuple(centroid), any(nd.boundary for nd in mem)))
    edges = []
    for e in edge_rows(graph):
        na, nb = merge_map[e.a], merge_map[e.b]
        if na < nb:
            edges.append((e.id, na, nb, tuple(e.xa), tuple(e.xb), e.d, e.mu))
        elif na > nb:
            edges.append((e.id, nb, na, tuple(e.xb), tuple(e.xa), e.d, e.mu))
    edges.sort(key=lambda r: (r[1], r[2], r[5], r[0]))
    return merge_map, nodes, edges


def sequential_hardcore(seed, N, intensity, radius, min_gap,
                        max_attempts=200):
    """Hard-core placement one draw at a time, through a grid hash.

    Each attempt draws one ``rng.uniform(-N, N, size=3)`` centre and tests
    it by the scalar formula against the accepted centres in the 27 grid
    cells around it (cells at least the minimum distance wide); returns
    ``(centers, warnings)`` as ``generate_hardcore`` does.
    """
    rng = np.random.default_rng(seed)
    n_target = int(round(intensity * (2.0 * N) ** 3))
    min_dist = 2.0 * radius + min_gap
    min_dist2 = min_dist * min_dist
    accepted = np.empty((n_target, 3))
    n_placed = 0
    warnings = ()
    cell = max(min_dist, 1e-9)
    grid = {}

    def cell_of(p):
        return (int(math.floor(p[0] / cell)), int(math.floor(p[1] / cell)),
                int(math.floor(p[2] / cell)))

    def conflicts(p):
        cx, cy, cz = cell_of(p)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for k in grid.get((cx + dx, cy + dy, cz + dz), ()):
                        q = accepted[k]
                        if ((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                                + (p[2] - q[2]) ** 2) < min_dist2:
                            return True
        return False

    for _ in range(n_target):
        for _attempt in range(max_attempts):
            p = rng.uniform(-N, N, size=3)
            if not conflicts(p):
                accepted[n_placed] = p
                grid.setdefault(cell_of(p), []).append(n_placed)
                n_placed += 1
                break
        else:
            warnings = (f"saturated: placed {n_placed} of {n_target} balls",)
            break
    return accepted[:n_placed], warnings


def quadratic_chain_forest(seed, N, radius, chain_len_max, gap_range,
                           chain_density=0.002, max_attempts=200):
    """Chain placement checked against every placed centre, O(n^2).

    Draws exactly as ``generate_chain_forest`` and rejects a chain by the
    same distance test; returns ``(centers, warnings)``.
    """
    g_min, g_max = float(gap_range[0]), float(gap_range[1])
    rng = np.random.default_rng(seed)
    n_chains_target = max(1, int(round(chain_density * (2.0 * N) ** 3)))
    min_center_dist = 2.0 * radius + 2.0 * g_max
    chains = []
    occupied = np.empty((0, 3))
    warnings = ()
    for _ in range(n_chains_target):
        placed = False
        for _attempt in range(max_attempts):
            length = int(rng.integers(1, chain_len_max + 1))
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            gaps = rng.uniform(g_min, g_max, size=max(length - 1, 0))
            steps = np.concatenate([[0.0], np.cumsum(2.0 * radius + gaps)])
            start = rng.uniform(-N + radius, N - radius, size=3)
            chain = start[None, :] + steps[:, None] * direction[None, :]
            if np.max(np.abs(chain)) + radius >= N:
                continue
            if occupied.shape[0]:
                d2 = np.sum((chain[:, None, :] - occupied[None, :, :]) ** 2,
                            axis=2)
                if d2.min() <= min_center_dist * min_center_dist:
                    continue
            chains.append(chain)
            occupied = np.concatenate([occupied, chain], axis=0)
            placed = True
            break
        if not placed:
            warnings = (f"placement budget exhausted after "
                        f"{len(chains)} of {n_chains_target} chains",)
            break
    return occupied, warnings


def polarised_tensor(graph, layer_width):
    """Network tensor from six clamped solves and polarisation.

    One solve per probe direction (three axes, three face diagonals) of
    the clamped system, assembled entry by entry; the axes give the
    diagonal, e(x_i + x_j) - (A_ii + A_jj)/2 the off-diagonal entries.
    """
    from stiffnet.effective import boundary_nodes
    from stiffnet.energy import SPDSolver
    from stiffnet.geometry import _connected_labels

    n = graph.n_nodes
    a_idx, b_idx, mu = graph.a, graph.b, graph.mu
    clamped = sorted(boundary_nodes(graph, layer_width))
    solvable = np.zeros(n, dtype=bool)
    if graph.n_edges:
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
        both = (ia >= 0) & (ib >= 0)
        entry = np.stack([ia >= 0, ib >= 0, both, both], axis=1)
        rows = np.stack([ia, ib, ia, ib], axis=1)[entry]
        cols = np.stack([ia, ib, ib, ia], axis=1)[entry]
        vals = np.stack([mu, mu, -mu, -mu], axis=1)[entry]
        solver = SPDSolver(scipy.sparse.csr_matrix(
            (vals, (rows, cols)), shape=(solve_ids.size, solve_ids.size)))
    one_end = (ia >= 0) != (ib >= 0)

    sq2 = 1.0 / math.sqrt(2.0)
    directions = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                  (sq2, sq2, 0.0), (sq2, 0.0, sq2), (0.0, sq2, sq2))
    energies = []
    for direction in directions:
        xi = np.asarray(direction)
        u = np.zeros(n)
        u[clamped] = graph.centroids[clamped] @ xi
        if solve_ids.size:
            rhs = np.zeros(solve_ids.size)
            far = np.where(ia >= 0, u[b_idx], u[a_idx])
            np.add.at(rhs, np.maximum(ia, ib)[one_end], (mu * far)[one_end])
            u[solve_ids] = solver.solve(rhs)
        diff = u[a_idx] - u[b_idx]
        energies.append(float(np.sum(2.0 * mu * diff * diff))
                        / graph.box_volume())

    A = np.diag(energies[:3])
    for (i, j), e_diag in zip(((0, 1), (0, 2), (1, 2)), energies[3:]):
        A[i, j] = A[j, i] = e_diag - 0.5 * (A[i, i] + A[j, j])
    return A


def affine_extension_energy(graph):
    """sum_e 2 mu_e |x_a - x_b|^2 / |Q_N|, the scale of the tensor entries."""
    dx = graph.centroids[graph.a] - graph.centroids[graph.b]
    return float(np.sum(2.0 * graph.mu * np.sum(dx * dx, axis=1))
                 / graph.box_volume())


def count_calls(monkeypatch, owner, name):
    """Record each call of ``owner.name`` (patched for the test's duration)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def cap_cg_iterations(monkeypatch, cap):
    """Make every ``scipy.sparse.linalg.cg`` call stop after ``cap`` steps."""
    cg = scipy.sparse.linalg.cg

    def capped(*args, **kwargs):
        return cg(*args, **{**kwargs, "maxiter": cap})

    monkeypatch.setattr(scipy.sparse.linalg, "cg", capped)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

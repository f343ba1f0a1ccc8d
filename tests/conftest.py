"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive quantities from first principles
(dense matrices assembled by explicit loops, brute-force pair scans) so
they share no code path with the package internals they check.
"""

from __future__ import annotations

import importlib
import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from scipy.spatial import cKDTree

import stiffnet.criteria as criteria
from stiffnet.criteria import ScanCell, task_evaluator
from stiffnet.energy import minimize_energy
from stiffnet.multigraph import InclusionGraph, clusters

# The module itself: the package rebinds ``stiffnet.energy`` to the function.
ENERGY = importlib.import_module("stiffnet.energy")

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
        _, out = minimize_energy(graph, beta)
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


def _ordered_pair_power_sum(ab, ba, s):
    """S_s(b): both oriented values per edge, ordered-pair double count."""
    return float(2.0 * (np.sum(np.abs(ab) ** s) + np.sum(np.abs(ba) ** s)))


def h2_ratio(graph, ab, ba, s):
    """Normalized ratio of minimal energy to the l_s size of the family.

    inf_u E(u, b) / ( |Q_N| ((1/|Q_N|) S_s(b))^(2/s) ) for the family b
    with oriented values ``ab`` and ``ba``, the energy from
    ``minimize_energy``; invariant under scaling of ``b``, and independent
    of |Q_N| at s = 2.  The reference that h2's ascent values are checked
    against.
    """
    ab = np.asarray(ab, dtype=float).reshape(-1)
    ba = np.asarray(ba, dtype=float).reshape(-1)
    if not (s >= 2.0):
        raise ValueError("s must be >= 2")
    if not (np.any(ab != 0.0) or np.any(ba != 0.0)):
        raise ValueError("the zero family is excluded from the ratio")
    _, breakdown = minimize_energy(graph, ab - ba)
    S = _ordered_pair_power_sum(ab, ba, s)
    Q = graph.box_volume()
    return breakdown.total / (Q * (S / Q) ** (2.0 / s))


def _power_sum_oracle(x, s):
    x2 = x * x
    return float((x2 ** (0.5 * s - 1.0)) @ x2)


def _ratio_pieces_oracle(beta, q_beta, s, denom):
    num = float(beta @ q_beta)
    grad = (2.0 / denom) * (q_beta - num * (np.abs(beta) ** (s - 2.0) * beta))
    return num, num / denom, grad


def ascend_oracle(Q, box_volume, beta0, opts):
    """``criteria._ascend_from`` written out of place: a power at every s
    and a fresh array for every intermediate vector, in the same operand
    order, so the package's in-place ascent must match it bit for bit."""
    s = opts.s
    norm = _power_sum_oracle(beta0, s) ** (1.0 / s)
    if norm == 0.0:
        return None
    denom = box_volume ** (1.0 - 2.0 / s) * 2.0 ** (4.0 / s - 2.0)
    beta = beta0 / norm
    q_beta = Q @ beta
    step, stall = 1.0, 0
    for _ in range(opts.max_ascent_iters):
        num, value, grad = _ratio_pieces_oracle(beta, q_beta, s, denom)
        gnorm = math.sqrt(grad @ grad)
        if gnorm == 0.0:
            break
        d = grad / gnorm
        q_d = Q @ d
        cross, curv = float(d @ q_beta + beta @ q_d), float(d @ q_d)
        trial_step = step
        for _bt in range(30):
            x = beta + trial_step * d
            power = _power_sum_oracle(x, s)
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


def energy_gradient(graph, u, beta):
    """Gradient of the energy with respect to the node potentials, for
    the family whose per-edge differences are ``beta``."""
    r = (beta + u[graph.a]) - u[graph.b]
    g = 2.0 * graph.volumes * u
    np.add.at(g, graph.a, 4.0 * graph.mu * r)
    np.add.at(g, graph.b, -4.0 * graph.mu * r)
    return g


def antisymmetric_family(beta):
    """The oriented values (ab, ba) = (beta/2, -beta/2), the minimal-norm
    lift of beta."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    return 0.5 * beta, -0.5 * beta


def cluster_members(part):
    """Node ids of each cluster, ascending, read off ``node_cluster``."""
    labels = part.node_cluster.tolist()
    return [[i for i, lab in enumerate(labels) if lab == k]
            for k in range(len(set(labels)))]


def is_cycle_free(graph):
    """True when the multigraph has no cycle.

    Any pair of parallel edges counts as a cycle, so this is exactly
    ``n_edges == n_nodes - n_clusters``.
    """
    return graph.n_edges == graph.n_nodes - graph._node_clusters[0]


def cycle_free_potentials(graph, beta, roots=None):
    """Telescoped potentials that cancel every gap residual on a forest.

    Along each tree branch from the cluster root, the potential accumulates
    the oriented differences beta = b_ab - b_ba; the root potential is
    zero.  The construction matches the energy's floating-point evaluation
    order (``energy._gap_residuals``), so the resulting gap term is exactly
    zero.
    """
    if not is_cycle_free(graph):
        raise ValueError("graph has a cycle; telescoped potentials need a forest")
    d1 = np.asarray(beta, dtype=float).reshape(-1)
    if d1.size != graph.n_edges:
        raise ValueError(f"boundary family has {d1.size} entries, "
                         f"graph has {graph.n_edges} edges")

    n = graph.n_nodes
    u = np.zeros(n)

    adjacency = [[] for _ in range(n)]
    for k, (lo, hi) in enumerate(zip(graph.a.tolist(), graph.b.tolist())):
        adjacency[lo].append((hi, k, True))    # traversal along storage
        adjacency[hi].append((lo, k, False))   # traversal against storage

    _, cluster = graph._node_clusters
    # Labels are ordered by smallest node, so first occurrences are roots.
    root_by_cluster = np.unique(cluster, return_index=True)[1].tolist()
    if roots is not None:
        for r in roots:
            root_by_cluster[cluster[int(r)]] = int(r)

    visited = np.zeros(n, dtype=bool)
    for root in root_by_cluster:
        u[root] = 0.0
        visited[root] = True
        stack = [root]
        while stack:
            parent = stack.pop()
            for child, k, along in adjacency[parent]:
                if visited[child]:
                    continue
                if along:
                    # residual ((d1 + u_a) - u_b) vanishes bitwise
                    u[child] = d1[k] + u[parent]
                else:
                    # Solve fl(d1 + u_child) == u_parent; the first guess is
                    # off by at most an ulp, a couple of nudges settle it.
                    guess = u[parent] - d1[k]
                    for _ in range(4):
                        probe = d1[k] + guess
                        if probe == u[parent]:
                            break
                        guess = guess + (u[parent] - probe)
                    u[child] = guess
                visited[child] = True
                stack.append(child)
    return u


def lift_short_potentials(graph_F, graph_Fprime, u_prime, xi):
    """Pull node potentials back from a short to the finer graph.

    Each fine node inherits u_I = xi . x_I + u'_{I'} - xi . x_{I'} from the
    merged node containing it; requires the merge map recorded by the short.
    """
    if graph_Fprime.node_merge_map is None:
        raise ValueError("shorted graph carries no merge map; produce it "
                         "with short_at/short_kappa from the source graph")
    merge_map = np.asarray(graph_Fprime.node_merge_map, dtype=np.int64)
    if merge_map.size != graph_F.n_nodes:
        raise ValueError("merge map does not index the source graph's nodes")
    u_prime = np.asarray(u_prime, dtype=float)
    if u_prime.size != graph_Fprime.n_nodes:
        raise ValueError(f"potential vector has {u_prime.size} entries, "
                         f"graph has {graph_Fprime.n_nodes} nodes")
    xi = np.asarray(xi, dtype=float).reshape(3)
    proj_fine = graph_F.centroids @ xi
    proj_coarse = graph_Fprime.centroids @ xi
    return proj_fine + u_prime[merge_map] - proj_coarse[merge_map]


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
    """The h2 energy minimum with one certified solve per call.

    Each ``minimum`` scatters the right-hand side -A^T W beta with
    ``np.add.at`` and solves the system once with SciPy's sparse direct
    ``spsolve``; it shares only ``LaplacianAssembly`` with the package's
    operator ``criteria._h2_operator``, and ``scatter_solve_operator``
    stands in for that operator as its oracle.
    """

    def __init__(self, graph):
        from stiffnet.energy import LaplacianAssembly

        self.a_idx, self.b_idx, self.mu = graph.a, graph.b, graph.mu
        self.n = graph.n_nodes
        self.volumes = graph.volumes
        self.K = LaplacianAssembly(graph).system_matrix.tocsc()

    def minimum(self, beta):
        """(2 mu r, minimal energy) at the antisymmetric family beta.

        r are the gap residuals at the minimizer, so 2 mu r = Q beta for
        the condensed form Q; the energy is summed from the potentials.
        """
        rhs = np.zeros(self.n)
        np.subtract.at(rhs, self.a_idx, 2.0 * self.mu * beta)
        np.add.at(rhs, self.b_idx, 2.0 * self.mu * beta)
        u = scipy.sparse.linalg.spsolve(self.K, rhs)
        r = (beta + u[self.a_idx]) - u[self.b_idx]
        num = float(np.sum(2.0 * self.mu * r * r)
                    + np.sum(self.volumes * u * u))
        return 2.0 * self.mu * r, num


def scatter_solve_operator(graph):
    """The h2 operator Q as products Q beta of ``ScatterSolveMinimizer``."""
    oracle = ScatterSolveMinimizer(graph)
    return scipy.sparse.linalg.LinearOperator(
        (graph.n_edges, graph.n_edges), dtype=float,
        matvec=lambda beta: oracle.minimum(np.ravel(beta))[0])


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


def pointwise_cluster_moment(config, graph, p, n_samples, seed, quantity):
    """``cluster_moment_statistic`` by a loop over the sample points.

    Each point's candidate balls come from its own KD-tree query at twice
    the largest radius, a clear superset; the candidates are tried in
    index order with the exact test ``dx @ dx <= r ** 2``, and the first
    ball that holds the point gives its cluster.
    """
    points = np.random.default_rng(seed).uniform(
        -config.box_half_width, config.box_half_width, size=(n_samples, 3))
    part = clusters(graph)
    sphere_cluster = part.node_cluster[graph.sphere_node]
    cluster_value = np.asarray(
        part.diameters if quantity == "diam" else part.cardinalities,
        dtype=float)
    tree = cKDTree(config.centers)
    hits = tree.query_ball_point(points, r=2.0 * float(config.radii.max()),
                                 return_sorted=True)
    values = np.zeros(n_samples)
    for k, cand in enumerate(hits):
        for idx in cand:
            dx = points[k] - config.centers[idx]
            if dx @ dx <= config.radii[idx] ** 2:
                values[k] = cluster_value[sphere_cluster[idx]] ** p
                break
    mean = float(values.mean())
    stderr = (float(values.std(ddof=1) / math.sqrt(n_samples))
              if n_samples > 1 else 0.0)
    return mean, stderr


def polarised_tensor(graph, layer_width):
    """Network tensor from six clamped solves and polarisation.

    One solve per probe direction (three axes, three face diagonals) of
    the clamped system, assembled entry by entry; the axes give the
    diagonal, e(x_i + x_j) - (A_ii + A_jj)/2 the off-diagonal entries.
    Each solve is SciPy's sparse direct ``spsolve``.
    """
    from stiffnet.effective import boundary_nodes
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
        L_ff = scipy.sparse.csc_matrix(
            (vals, (rows, cols)), shape=(solve_ids.size, solve_ids.size))
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
            u[solve_ids] = scipy.sparse.linalg.spsolve(L_ff, rhs)
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


def count_cg_runs(monkeypatch):
    """Record each run of ``SPDSolver``'s CG loop, one per solved column."""
    return count_calls(monkeypatch, ENERGY, "_jacobi_cg")


def count_h2_products(monkeypatch):
    """Record each product of the operator Q that ``h2_statistic`` builds."""
    products = []
    build = criteria._h2_operator

    def counting(graph):
        Q = build(graph)

        def product(beta):
            products.append(1)
            return Q @ beta

        return scipy.sparse.linalg.LinearOperator(Q.shape, matvec=product,
                                                  dtype=float)

    monkeypatch.setattr(criteria, "_h2_operator", counting)
    return products


def record_ascents(monkeypatch):
    """Record each ``_ascend_from`` call as (Q, box volume, its result)."""
    ascents = []
    ascend = criteria._ascend_from

    def recording(Q, box_volume, beta0, opts):
        ascents.append((Q, box_volume, ascend(Q, box_volume, beta0, opts)))
        return ascents[-1][2]

    monkeypatch.setattr(criteria, "_ascend_from", recording)
    return ascents


def fresh_ratio(Q, box_volume, beta, s):
    """The ratio at a unit beta from one fresh product: beta^T Q beta over
    the l_s denominator |Q_N|^(1-2/s) 2^(4/s-2), written as the ascent
    writes it, so an ascent value read this way matches bit for bit."""
    return (float(beta @ (Q @ beta))
            / (box_volume ** (1.0 - 2.0 / s) * 2.0 ** (4.0 / s - 2.0)))


def cap_cg_iterations(monkeypatch, cap):
    """Make every run of ``SPDSolver``'s CG loop stop after ``cap`` steps."""
    loop = ENERGY._jacobi_cg

    def capped(K, inv_diag, b, max_iter):
        return loop(K, inv_diag, b, cap)

    monkeypatch.setattr(ENERGY, "_jacobi_cg", capped)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

"""Shared builders and independent oracles for the test suite.

The oracles here deliberately re-derive quantities from first principles
(dense matrices assembled by explicit loops, brute-force pair scans) so
they share no code path with the package internals they check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from stiffnet.multigraph import Edge, InclusionGraph, Node


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
    nodes = tuple(
        Node(id=i, volume=volumes[i], centroid=positions[i],
             diameter=1.0, boundary=bool(boundary[i]))
        for i in range(n)
    )
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
    edges = tuple(
        Edge(id=k, a=a, b=b, xa=xa, xb=xb, d=d, mu=abs(math.log(d)))
        for k, (a, b, d, xa, xb) in enumerate(records)
    )
    return InclusionGraph(nodes=nodes, edges=edges, delta=delta,
                          box_half_width=N)


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


def dense_minimum_oracle(graph, b_ab, b_ba, identity_mass=False):
    """Independent dense solve of the energy minimization.

    Assembles K = D + 2 L and the right-hand side entry by entry with
    explicit loops, solves with numpy, and evaluates the energy by the
    textbook formula.  Returns (u, total energy).
    """
    n = graph.n_nodes
    K = np.zeros((n, n))
    rhs = np.zeros(n)
    for i, node in enumerate(graph.nodes):
        K[i, i] += 1.0 if identity_mass else node.volume
    for e in graph.edges:
        beta = b_ab[_edge_pos(graph, e)] - b_ba[_edge_pos(graph, e)]
        K[e.a, e.a] += 2.0 * e.mu
        K[e.b, e.b] += 2.0 * e.mu
        K[e.a, e.b] -= 2.0 * e.mu
        K[e.b, e.a] -= 2.0 * e.mu
        rhs[e.a] -= 2.0 * e.mu * beta
        rhs[e.b] += 2.0 * e.mu * beta
    u = np.linalg.solve(K, rhs) if n else np.zeros(0)
    total = 0.0
    for e in graph.edges:
        k = _edge_pos(graph, e)
        r = b_ab[k] - b_ba[k] + u[e.a] - u[e.b]
        total += 2.0 * e.mu * r * r
    for i, node in enumerate(graph.nodes):
        w = 1.0 if identity_mass else node.volume
        total += w * u[i] * u[i]
    return u, total


def _edge_pos(graph, e):
    # Edge ids equal positions on freshly built graphs; stay safe anyway.
    for k, other in enumerate(graph.edges):
        if other is e:
            return k
    raise AssertionError("edge not in graph")


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


def bfs_clusters(graph):
    """Cluster membership by breadth-first search (oracle for union-find)."""
    n = graph.n_nodes
    adjacency = [[] for _ in range(n)]
    for e in graph.edges:
        adjacency[e.a].append(e.b)
        adjacency[e.b].append(e.a)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

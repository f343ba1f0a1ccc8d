"""Array fast paths of the graph layer against independent oracles.

``build_graph``, ``clusters``, ``short_at``, ``is_cycle_free``, the cap
overlap count and the ball-family diameter all run on arrays; the oracles
in ``conftest.py`` and here re-derive the same quantities with per-pair
loops, breadth-first search and full pairwise matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stiffnet.geometry as geometry
from conftest import (
    bfs_clusters,
    brute_force_gap_pairs,
    make_graph,
    quadratic_extent,
    scalar_g2_violations,
)
from stiffnet.geometry import (
    SphereConfig,
    _pairwise_extent,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
)
from stiffnet.multigraph import (
    build_graph,
    closest_points,
    clusters,
    is_cycle_free,
    short_at,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
radius = st.floats(0.2, 0.9)


@st.composite
def configurations(draw, max_spheres=25):
    n = draw(st.integers(2, max_spheres))
    centers = draw(hnp.arrays(np.float64, (n, 3), elements=coords))
    if draw(st.booleans()):
        radii = np.full(n, draw(radius))
    else:
        radii = draw(hnp.arrays(np.float64, n, elements=radius))
    return SphereConfig(centers, radii, 4.0)


@st.composite
def multigraphs(draw, parallel=False):
    n = draw(st.integers(2, 15))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(
        st.tuples(node, node, st.floats(0.01, 0.5)).filter(lambda e: e[0] != e[1]),
        min_size=int(parallel), max_size=30))
    if parallel:
        a, b, d = edges[draw(st.integers(0, len(edges) - 1))]
        edges.append((b, a, d / 2.0))
    positions = draw(hnp.arrays(np.float64, (n, 3), elements=coords))
    diameters = draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 2.0)))
    graph = make_graph(np.ones(n), positions, edges)
    for nd, diam in zip(graph.nodes, diameters):
        nd.diameter = float(diam)
    return graph


def closest_point_edges(config, delta):
    """Edge records from brute-force pairs and per-pair closest_points."""
    labels = components(config).labels
    records = []
    for i, j, _ in brute_force_gap_pairs(config, delta):
        xa, xb, d = closest_points((config.centers[i], config.radii[i]),
                                   (config.centers[j], config.radii[j]))
        na, nb = int(labels[i]), int(labels[j])
        if na > nb:
            na, nb, xa, xb = nb, na, xb, xa
        records.append((na, nb, d, tuple(xa), tuple(xb)))
    return sorted(records)


def scalar_g2_count(config, delta):
    """Cap-overlap count from every cross-component pair within 2*delta."""
    labels = components(config).labels
    i, j = np.triu_indices(config.n_spheres, k=1)
    dist = np.linalg.norm(config.centers[i] - config.centers[j], axis=1)
    gap = dist - config.radii[i] - config.radii[j]
    near = (labels[i] != labels[j]) & (gap <= 2.0 * delta)
    pairs = np.stack([i[near], j[near]], axis=1)
    return scalar_g2_violations(config, pairs, dist[near], delta)


def node_bound_oracle(graph, members):
    """Node-data diameter bound of each cluster by explicit pair loops."""
    out = []
    for mem in members:
        best = max(graph.nodes[i].diameter for i in mem)
        for ii in range(len(mem)):
            for jj in range(ii + 1, len(mem)):
                na, nb = graph.nodes[mem[ii]], graph.nodes[mem[jj]]
                best = max(best, float(np.linalg.norm(na.centroid - nb.centroid))
                           + 0.5 * na.diameter + 0.5 * nb.diameter)
        out.append(best)
    return out


GENERATED = [
    (generate_lattice_jitter(3, 4, 1.0, 0.4, 0.05), 0.5),
    (generate_lattice_jitter(0, 3, 1.0, 0.45, 0.0), 0.5),
    (generate_hardcore(seed=31, N=5, intensity=0.05, radius=0.9,
                       min_gap=0.05), 0.45),
    (generate_chain_forest(5, 12, 1.0, 8, (0.01, 0.1)), 0.2),
]


class TestLabelOrder:
    """Components, clusters and merged nodes are numbered by smallest member."""

    centers = [[0, 4, 0], [10, 10, 10], [2, 0, 0], [-2, 0, 0],
               [-10, -10, -10], [0, 2, 0], [0, 0, 0]]
    pairs = [(0, 5), (2, 6), (3, 6), (5, 6)]
    expected = [0, 1, 0, 0, 2, 0, 0]

    def test_components(self):
        config = SphereConfig(self.centers, [1.0] * 7, 12.0)
        assert components(config).labels.tolist() == self.expected

    def test_clusters(self):
        graph = make_graph([1.0] * 7, self.centers,
                           [(a, b, 0.1) for a, b in self.pairs])
        assert clusters(graph).node_cluster.tolist() == self.expected

    def test_short_at(self):
        graph = make_graph([1.0] * 7, self.centers, [])
        assert list(short_at(graph, self.pairs).node_merge_map) == self.expected


class TestBuildGraphOracle:
    @PROPERTY
    @given(configurations(), st.floats(0.05, 0.95))
    def test_edges_are_per_pair_closest_points(self, config, delta):
        graph = build_graph(components(config), config, delta)
        got = [(e.a, e.b, e.d, tuple(e.xa), tuple(e.xb)) for e in graph.edges]
        assert got == closest_point_edges(config, delta)
        assert all(e.mu == abs(math.log(e.d)) for e in graph.edges)

    @pytest.mark.parametrize("config,delta", GENERATED)
    def test_generated_edges_are_per_pair_closest_points(self, config, delta):
        graph = build_graph(components(config), config, delta)
        got = [(e.a, e.b, e.d, tuple(e.xa), tuple(e.xb)) for e in graph.edges]
        assert got == closest_point_edges(config, delta)

    @PROPERTY
    @given(configurations(), st.floats(0.05, 0.95))
    def test_g2_violations_match_scalar_loop(self, config, delta):
        graph = build_graph(components(config), config, delta)
        assert graph.g2_violations == scalar_g2_count(config, delta)

    @pytest.mark.parametrize("config,delta", GENERATED)
    def test_generated_g2_violations_match_scalar_loop(self, config, delta):
        graph = build_graph(components(config), config, delta)
        assert graph.g2_violations == scalar_g2_count(config, delta)


class TestConnectivity:
    @PROPERTY
    @given(multigraphs())
    def test_clusters_match_bfs(self, graph):
        part = clusters(graph)
        assert part.node_cluster.tolist() == bfs_clusters(graph)
        assert [list(m) for m in part.members] == [
            [i for i, lab in enumerate(part.node_cluster) if lab == k]
            for k in range(part.n_clusters)]

    @PROPERTY
    @given(multigraphs())
    def test_node_bound_diameters_match_pair_loop(self, graph):
        part = clusters(graph)
        assert part.diameters.tolist() == node_bound_oracle(graph, part.members)

    @PROPERTY
    @given(multigraphs())
    def test_cycle_free_is_euler_count(self, graph):
        n_clusters = len(set(bfs_clusters(graph)))
        assert is_cycle_free(graph) == (graph.n_edges
                                        == graph.n_nodes - n_clusters)

    @PROPERTY
    @given(multigraphs(parallel=True))
    def test_parallel_edges_are_a_cycle(self, graph):
        assert not is_cycle_free(graph)


def _cloud(kind, n, rng):
    if kind == "random":
        return rng.uniform(-5.0, 5.0, size=(n, 3))
    if kind == "collinear":
        t = rng.uniform(-5.0, 5.0, size=n)
        return np.array([0.3, -1.0, 2.0]) + t[:, None] * np.array([1.0, 2.0, -0.5])
    if kind == "coplanar":
        uv = rng.uniform(-5.0, 5.0, size=(n, 2))
        return np.stack([uv[:, 0], uv[:, 1], np.full(n, 1.5)], axis=1)
    if kind == "tilted_plane":
        uv = rng.uniform(-5.0, 5.0, size=(n, 2))
        return (uv[:, :1] * np.array([1.0, 1.0, 0.0])
                + uv[:, 1:] * np.array([0.0, 1.0, 1.0]))
    if kind == "duplicates":
        base = rng.uniform(-5.0, 5.0, size=(max(n // 4, 1), 3))
        return base[rng.integers(0, base.shape[0], size=n)]
    if kind == "lattice":
        k = int(round(n ** (1.0 / 3.0))) + 1
        g = np.stack(np.meshgrid(*[np.arange(k)] * 3, indexing="ij"), -1)
        return g.reshape(-1, 3)[:n].astype(float)
    raise ValueError(kind)


class TestDiameter:
    @pytest.mark.parametrize("kind", ["random", "collinear", "coplanar",
                                      "tilted_plane", "duplicates", "lattice"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 70, 300, 1500])
    @pytest.mark.parametrize("equal", [True, False])
    def test_matches_quadratic_scan(self, kind, n, equal):
        rng = np.random.default_rng(n)
        centers = _cloud(kind, n, rng)
        radii = (np.full(n, 0.4) if equal
                 else rng.uniform(0.2, 0.6, size=n))
        assert _pairwise_extent(centers, radii) == quadratic_extent(centers, radii)

    @PROPERTY
    @given(hnp.arrays(np.float64, st.tuples(st.integers(64, 200), st.just(3)),
                      elements=coords), radius)
    def test_hull_path_matches_quadratic_scan(self, centers, r):
        radii = np.full(centers.shape[0], r)
        assert _pairwise_extent(centers, radii) == quadratic_extent(centers, radii)

    def test_large_equal_radii_cloud_uses_hull(self, monkeypatch):
        calls = []

        def recording_hull(points):
            calls.append(points.shape[0])
            return hull(points)

        hull = geometry.ConvexHull
        monkeypatch.setattr(geometry, "ConvexHull", recording_hull)
        centers = np.random.default_rng(5).uniform(-5.0, 5.0, size=(500, 3))
        radii = np.full(500, 0.4)
        assert _pairwise_extent(centers, radii) == quadratic_extent(centers, radii)
        assert calls == [500]

"""Array fast paths of the graph layer against independent oracles.

``build_graph``, ``clusters``, ``short_at``, the cap overlap count, the
ball-family diameter, the ball -> node column and ``boundary_nodes`` all
run on arrays; the oracles in ``conftest.py`` and here re-derive the same
quantities with per-pair, per-node and per-edge loops, breadth-first
search and full pairwise matrices.  ``is_cycle_free`` is a test helper in
``conftest.py``; it is checked here against the Euler count.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stiffnet.geometry as geometry
import stiffnet.multigraph as multigraph
from conftest import (
    bfs_clusters,
    boundary_nodes_oracle,
    brute_force_gap_pairs,
    closest_points,
    cluster_members,
    edge_rows,
    is_cycle_free,
    make_graph,
    node_ball_lists,
    node_rows,
    polarised_tensor,
    quadratic_extent,
    scalar_g2_violations,
    short_oracle,
    sphere_node_oracle,
)
from stiffnet.cli import dumps_17g
from stiffnet.effective import boundary_nodes
from stiffnet.geometry import (
    SphereConfig,
    _pairwise_extent,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
)
from stiffnet.multigraph import (
    InclusionGraph,
    build_graph,
    clusters,
    short_at,
    short_kappa,
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
    return dataclasses.replace(make_graph(np.ones(n), positions, edges),
                               diameters=diameters)


@st.composite
def built_graphs(draw):
    """(config, components, graph) for a random configuration and delta."""
    config = draw(configurations())
    comp = components(config)
    return config, comp, build_graph(comp, config, draw(st.floats(0.05, 0.95)))


def node_pairs(data, n_nodes):
    node = st.integers(0, n_nodes - 1)
    return data.draw(st.lists(st.tuples(node, node), max_size=8))


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
    nodes = node_rows(graph)
    out = []
    for mem in members:
        best = max(nodes[i].diameter for i in mem)
        for ii in range(len(mem)):
            for jj in range(ii + 1, len(mem)):
                na, nb = nodes[mem[ii]], nodes[mem[jj]]
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
        got = [(e.a, e.b, e.d, tuple(e.xa), tuple(e.xb))
               for e in edge_rows(graph)]
        assert got == closest_point_edges(config, delta)
        assert all(e.mu == abs(math.log(e.d)) for e in edge_rows(graph))

    @pytest.mark.parametrize("config,delta", GENERATED)
    def test_generated_edges_are_per_pair_closest_points(self, config, delta):
        graph = build_graph(components(config), config, delta)
        got = [(e.a, e.b, e.d, tuple(e.xa), tuple(e.xb))
               for e in edge_rows(graph)]
        assert got == closest_point_edges(config, delta)

    def test_parallel_edges_with_equal_gaps_ordered_by_contact_point(self):
        """A dumbbell faces a ball on its axis of symmetry: two parallel
        edges with bitwise-equal gaps, which pair order lists with xa
        descending."""
        config = SphereConfig([[0.75, 0.0, 0.0], [-0.75, 0.0, 0.0],
                               [0.0, 2.3, 0.0]], [1.0, 1.0, 1.0], 4.0)
        graph = build_graph(components(config), config, 0.5)
        got = [(e.a, e.b, e.d, tuple(e.xa), tuple(e.xb))
               for e in edge_rows(graph)]
        assert graph.n_edges == 2 and graph.d[0] == graph.d[1]
        assert graph.xa[0, 0] < 0.0 < graph.xa[1, 0]
        assert got == closest_point_edges(config, 0.5)

    @PROPERTY
    @given(configurations(), st.floats(0.05, 0.95))
    def test_g2_violations_match_scalar_loop(self, config, delta):
        graph = build_graph(components(config), config, delta)
        assert graph.g2_violations == scalar_g2_count(config, delta)

    @pytest.mark.parametrize("config,delta", GENERATED)
    def test_generated_g2_violations_match_scalar_loop(self, config, delta):
        graph = build_graph(components(config), config, delta)
        assert graph.g2_violations == scalar_g2_count(config, delta)


class TestDeferredCapCount:
    """``g2_violations`` is computed on its first read, not by build_graph."""

    config, delta = GENERATED[0]

    @pytest.fixture
    def fresh(self):
        """A copy of the configuration with no pair table yet, and its
        components; ``components`` queries through ``_pairs_within`` too."""
        config = SphereConfig(self.config.centers, self.config.radii,
                              self.config.box_half_width)
        return config, components(config)

    @pytest.fixture
    def spies(self, monkeypatch, fresh):
        """Record each _pairs_within slack and each cap count call."""
        calls = {"slack": [], "count": 0}
        pairs_within = geometry._pairs_within
        count = multigraph._count_g2_violations

        def pairs_spy(centers, radii, slack):
            calls["slack"].append(slack)
            return pairs_within(centers, radii, slack)

        def count_spy(*args):
            calls["count"] += 1
            return count(*args)

        monkeypatch.setattr(geometry, "_pairs_within", pairs_spy)
        monkeypatch.setattr(multigraph, "_count_g2_violations", count_spy)
        return calls

    def build(self):
        return build_graph(components(self.config), self.config, self.delta)

    def test_build_graph_queries_at_delta_and_counts_nothing(self, fresh,
                                                             spies):
        config, comp = fresh
        build_graph(comp, config, self.delta)
        assert spies == {"slack": [self.delta], "count": 0}

    def test_first_read_counts_once(self, spies):
        graph = self.build()
        expected = scalar_g2_count(self.config, self.delta)
        assert expected > 0
        assert graph.g2_violations == expected
        assert spies["count"] == 1
        assert graph.g2_violations == expected
        assert spies["count"] == 1

    def test_shorts_read_the_source_count(self, spies):
        graph = self.build()
        expected = scalar_g2_count(self.config, self.delta)
        shorted = short_at(graph, [(int(graph.a[0]), int(graph.b[0]))])
        kappa = short_kappa(graph, float(np.median(graph.d)))
        identity = short_kappa(graph, 0.5 * float(graph.d.min()))
        assert shorted.n_nodes < graph.n_nodes
        assert kappa.n_nodes < graph.n_nodes
        assert [g.g2_violations for g in (shorted, kappa, identity, graph)] \
            == [expected] * 4
        assert spies["count"] == 1

    def test_deserialized_graph_reads_zero(self):
        graph = self.build()
        assert graph.g2_violations > 0
        assert InclusionGraph.from_dict(graph.to_dict()).g2_violations == 0


class TestConnectivity:
    @PROPERTY
    @given(multigraphs())
    def test_clusters_match_bfs(self, graph):
        part = clusters(graph)
        assert part.node_cluster.tolist() == bfs_clusters(graph)

    @PROPERTY
    @given(multigraphs())
    def test_node_bound_diameters_match_pair_loop(self, graph):
        part = clusters(graph)
        members = cluster_members(part)
        assert part.diameters.tolist() == node_bound_oracle(graph, members)

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


class TestSharedClusterLabels:
    """Each graph partitions its own nodes: a short never reads its
    source's clusters, and the oracles never read the graph's."""

    # Clusters {0, 1}, {2, 3} and {4}; shorting (1, 2) joins the first two.
    GRAPH = make_graph([1.0] * 5, [[float(k), 0.0, 0.0] for k in range(5)],
                       [(0, 1, 0.1), (2, 3, 0.2)])

    def test_short_reads_its_own_clusters(self):
        graph = dataclasses.replace(self.GRAPH)
        assert clusters(graph).node_cluster.tolist() == [0, 0, 1, 1, 2]
        shorted = short_at(graph, [(1, 2)])
        assert clusters(shorted).node_cluster.tolist() == \
            bfs_clusters(shorted) == [0, 0, 0, 1]
        assert is_cycle_free(shorted) and is_cycle_free(graph)

    def test_identity_short_equals_its_source(self):
        graph = dataclasses.replace(self.GRAPH)
        part = clusters(graph)
        identity = short_kappa(graph, 0.5 * float(graph.d.min()))
        assert "_node_clusters" not in vars(identity)
        assert identity == graph
        assert clusters(identity).node_cluster.tolist() == \
            part.node_cluster.tolist()

    def test_oracles_ignore_the_cached_partition(self):
        config = generate_lattice_jitter(seed=0, N=3, spacing=1, radius=0.4,
                                         jitter=0.05)
        graph = build_graph(components(config), config, 0.5)
        want = bfs_clusters(graph), polarised_tensor(graph, 0.5)
        # Every node its own cluster: wrong for this connected lattice.
        graph.__dict__["_node_clusters"] = (graph.n_nodes,
                                            np.arange(graph.n_nodes))
        got = bfs_clusters(graph), polarised_tensor(graph, 0.5)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert len(set(want[0])) == 1


class TestColumnOracles:
    """Node, edge and ball columns against per-node and per-edge loops."""

    @PROPERTY
    @given(built_graphs())
    def test_sphere_node_matches_node_loop(self, built):
        config, comp, graph = built
        expected = sphere_node_oracle(config.n_spheres, node_ball_lists(comp))
        assert graph.sphere_node.tolist() == expected.tolist()

    @PROPERTY
    @given(built_graphs(), st.floats(0.05, 4.0))
    def test_boundary_nodes_match_node_loop(self, built, layer):
        config, comp, graph = built
        assert boundary_nodes(graph, layer) == boundary_nodes_oracle(
            config, node_ball_lists(comp), layer)

    @PROPERTY
    @given(built_graphs(), st.data())
    def test_short_at_matches_row_loops(self, built, data):
        config, comp, graph = built
        pairs = node_pairs(data, graph.n_nodes)
        out = short_at(graph, pairs)
        merge_map, nodes, edges = short_oracle(graph, pairs)
        if pairs:
            assert list(out.node_merge_map) == merge_map
        assert [(nd.volume, tuple(nd.centroid), nd.boundary)
                for nd in node_rows(out)] == nodes
        assert [(e.id, e.a, e.b, tuple(e.xa), tuple(e.xb), e.d, e.mu)
                for e in edge_rows(out)] == edges
        balls = node_ball_lists(comp, merge_map)
        assert out.sphere_node.tolist() == sphere_node_oracle(
            config.n_spheres, balls).tolist()
        assert boundary_nodes(out, 1.0) == boundary_nodes_oracle(
            config, balls, 1.0)

    def test_short_swaps_contact_points_of_reversed_edges(self):
        graph = make_graph([1.0] * 4, [(k, 0, 0) for k in range(4)],
                           [(1, 2, 0.1)])
        out = short_at(graph, [(1, 3), (0, 2)])
        assert out.node_merge_map == (0, 1, 0, 1)
        e, src = edge_rows(out)[0], edge_rows(graph)[0]
        assert (e.a, e.b) == (0, 1)
        assert tuple(e.xa) == tuple(src.xb) and tuple(e.xb) == tuple(src.xa)

    @PROPERTY
    @given(built_graphs(), st.data())
    def test_json_round_trip(self, built, data):
        graph = built[2]
        # Pairwise lens corrections can drive a triple overlap's volume
        # negative, which graph documents reject.
        assume(np.all(graph.volumes > 0.0))
        shorted = short_at(graph, node_pairs(data, graph.n_nodes))
        for g in (graph, shorted):
            doc = json.loads(dumps_17g(g.to_dict()))
            assert InclusionGraph.from_dict(doc) == g


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

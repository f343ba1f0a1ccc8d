"""Graph construction, clusters, shorts and cycle detection."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    bfs_clusters,
    brute_force_gap_pairs,
    closest_points,
    cluster_members,
    edge_rows,
    is_cycle_free,
    make_graph,
    node_rows,
)
from stiffnet.geometry import SphereConfig, components, generate_hardcore
from stiffnet.multigraph import (
    build_graph,
    clusters,
    short_at,
    short_kappa,
)


class TestClosestPoints:
    def test_collinear_unit_spheres(self):
        xa, xb, d = closest_points(((0, 0, 0), 1.0), ((3, 0, 0), 1.0))
        assert np.allclose(xa, [1, 0, 0])
        assert np.allclose(xb, [2, 0, 0])
        assert d == pytest.approx(1.0)

    def test_swap_symmetry(self):
        a, b = ((0.3, -1, 2), 0.7), ((2, 0.5, -1), 1.1)
        xa, xb, d = closest_points(a, b)
        ya, yb, d2 = closest_points(b, a)
        assert np.allclose(xa, yb) and np.allclose(xb, ya)
        assert d == pytest.approx(d2)

    def test_small_gap_weight(self):
        xa, xb, d = closest_points(((0, 0, 0), 1.0), ((0, 2.05, 0), 1.0))
        assert d == pytest.approx(0.05)
        assert abs(math.log(d)) == pytest.approx(2.9957, abs=1e-4)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            closest_points(((0, 0, 0), 1.0), ((1.5, 0, 0), 1.0))


class TestBuildGraph:
    def test_single_gap_edge(self):
        config = SphereConfig([[0, 0, 0], [2.1, 0, 0]], [1.0, 1.0], 4.0)
        graph = build_graph(components(config), config, 0.3)
        assert graph.n_edges == 1
        e = edge_rows(graph)[0]
        assert e.d == pytest.approx(0.1)
        assert e.mu == pytest.approx(abs(math.log(0.1)))
        assert np.allclose(e.xa, [1, 0, 0]) and np.allclose(e.xb, [1.1, 0, 0])

    def test_gap_above_threshold_excluded(self):
        config = SphereConfig([[0, 0, 0], [2.5, 0, 0]], [1.0, 1.0], 4.0)
        graph = build_graph(components(config), config, 0.3)
        assert graph.n_edges == 0

    def test_parallel_edges_from_dumbbell(self):
        # Two overlapping spheres form one node; both its balls sit within
        # delta of a third ball -> two parallel edges between one node pair.
        config = SphereConfig(
            [[0, 0, 0], [1.5, 0, 0], [0.75, 2.15, 0]],
            [1.0, 1.0, 1.0],
            5.0,
        )
        comp = components(config)
        assert comp.n_components == 2
        graph = build_graph(comp, config, 0.5)
        oracle = brute_force_gap_pairs(config, 0.5)
        assert graph.n_edges == len(oracle) == 2
        assert edge_rows(graph)[0].a == edge_rows(graph)[0].b - 1
        assert {(e.a, e.b) for e in edge_rows(graph)} == {(0, 1)}

    def test_edge_count_matches_brute_force(self):
        config = generate_hardcore(seed=31, N=5, intensity=0.05, radius=0.9,
                                   min_gap=0.05)
        graph = build_graph(components(config), config, 0.45)
        oracle = brute_force_gap_pairs(config, 0.45)
        assert graph.n_edges == len(oracle)
        got = sorted(round(e.d, 12) for e in edge_rows(graph))
        want = sorted(round(g, 12) for _, _, g in oracle)
        assert got == want

    def test_weight_gap_consistency(self):
        config = generate_hardcore(seed=37, N=5, intensity=0.04, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.4)
        assert graph.n_edges > 0
        for e in edge_rows(graph):
            assert math.exp(-e.mu) == pytest.approx(e.d, rel=1e-12)
            assert 0.0 < e.d <= graph.delta
            # contact points sit on sphere surfaces, |xa - xb| = d
            assert np.linalg.norm(e.xa - e.xb) == pytest.approx(e.d, abs=1e-9)

    def test_contact_points_on_surfaces(self):
        config = generate_hardcore(seed=41, N=4, intensity=0.05, radius=0.8,
                                   min_gap=0.05)
        graph = build_graph(components(config), config, 0.4)
        for e in edge_rows(graph):
            hit_a = min(abs(np.linalg.norm(e.xa - c) - r)
                        for c, r in zip(config.centers, config.radii))
            hit_b = min(abs(np.linalg.norm(e.xb - c) - r)
                        for c, r in zip(config.centers, config.radii))
            assert hit_a < 1e-9 and hit_b < 1e-9

    def test_delta_out_of_range_rejected(self):
        config = SphereConfig([[0, 0, 0], [3, 0, 0]], [1.0, 1.0], 4.0)
        comp = components(config)
        for delta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                build_graph(comp, config, delta)

    def test_deterministic_edge_order(self):
        config = generate_hardcore(seed=43, N=5, intensity=0.05, radius=0.9,
                                   min_gap=0.05)
        g1 = build_graph(components(config), config, 0.45)
        g2 = build_graph(components(config), config, 0.45)
        assert g1 == g2
        keys = [(e.a, e.b, e.d) for e in edge_rows(g1)]
        assert keys == sorted(keys)


class TestClusters:
    def test_three_sphere_chain(self):
        config = SphereConfig([[0, 0, 0], [2.1, 0, 0], [4.2, 0, 0]],
                              [1.0, 1.0, 1.0], 8.0)
        graph = build_graph(components(config), config, 0.3)
        part = clusters(graph)
        assert np.unique(part.node_cluster).size == 1
        assert part.cardinalities[0] == 3

    def test_edgeless_graph_all_singletons(self):
        graph = make_graph([1, 1, 1], [(0, 0, 0), (1, 0, 0), (2, 0, 0)], [])
        part = clusters(graph)
        assert np.unique(part.node_cluster).size == 3

    def test_matches_bfs_oracle(self, rng):
        config = generate_hardcore(seed=47, N=6, intensity=0.05, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.45)
        part = clusters(graph)
        oracle = bfs_clusters(graph)
        # same partition up to relabeling
        mapping = {}
        for node_id, lab in enumerate(oracle):
            mine = int(part.node_cluster[node_id])
            assert mapping.setdefault(lab, mine) == mine
        assert len(set(mapping.values())) == np.unique(part.node_cluster).size

    def test_cluster_stats(self):
        config = SphereConfig([[0, 0, 0], [2.1, 0, 0]], [1.0, 1.0], 6.0)
        graph = build_graph(components(config), config, 0.3)
        part = clusters(graph)
        assert math.fsum(graph.volumes[part.node_cluster == 0]) == \
            pytest.approx(2 * 4 * math.pi / 3)
        assert part.diameters[0] == pytest.approx(4.1)  # 2.1 + 1 + 1


class TestShortAt:
    def path_graph(self):
        return make_graph([1.0, 2.0, 3.0],
                          [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                          [(0, 1, 0.1), (1, 2, 0.2)])

    def test_merge_two_of_three(self):
        graph = self.path_graph()
        out = short_at(graph, [(0, 1)])
        assert out.n_nodes == 2
        assert out.n_edges == 1
        e = edge_rows(out)[0]
        assert (e.a, e.b) == (0, 1)
        assert e.d == pytest.approx(0.2)
        assert out.node_merge_map == (0, 0, 1)
        assert node_rows(out)[0].volume == pytest.approx(3.0)

    def test_empty_pairs_identity(self):
        graph = self.path_graph()
        assert short_at(graph, []) is graph

    def test_collapse_whole_cluster(self):
        graph = self.path_graph()
        out = short_at(graph, [(0, 1), (1, 2)])
        assert out.n_nodes == 1
        assert out.n_edges == 0
        assert node_rows(out)[0].volume == pytest.approx(6.0)

    def test_exhaustive_contraction_oracle(self, rng):
        # contract every adjacent pair of one cluster: the survivor keeps
        # exactly the edges with at most one endpoint in the cluster.
        config = generate_hardcore(seed=53, N=6, intensity=0.05, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.45)
        part = clusters(graph)
        sizes = [len(m) for m in cluster_members(part)]
        big = int(np.argmax(sizes))
        pairs = [(e.a, e.b) for e in edge_rows(graph)
                 if part.node_cluster[e.a] == big]
        if not pairs:
            pytest.skip("no multi-node cluster in this draw")
        out = short_at(graph, pairs)
        expected_edges = [e for e in edge_rows(graph)
                          if not (part.node_cluster[e.a] == big
                                  and part.node_cluster[e.b] == big)]
        assert out.n_edges == len(expected_edges)
        assert {e.id for e in edge_rows(out)} == {e.id for e in expected_edges}

    def test_never_increases_counts_and_conserves_volume(self):
        config = generate_hardcore(seed=59, N=6, intensity=0.05, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.45)
        if graph.n_edges == 0:
            pytest.skip("edgeless draw")
        edges = edge_rows(graph)
        pairs = [(edges[0].a, edges[0].b), (edges[-1].a, edges[-1].b)]
        out = short_at(graph, pairs)
        assert out.n_nodes <= graph.n_nodes
        assert out.n_edges <= graph.n_edges
        # exact conservation at rational level
        nodes, out_nodes = node_rows(graph), node_rows(out)
        total_before = sum(Fraction(n.volume) for n in nodes)
        merged_groups = {}
        for old_id, new_id in enumerate(out.node_merge_map):
            merged_groups.setdefault(new_id, []).append(old_id)
        for new_id, group in merged_groups.items():
            expected = math.fsum(nodes[i].volume for i in group)
            assert out_nodes[new_id].volume == expected
        total_after = sum(Fraction(n.volume) for n in out_nodes)
        assert abs(total_after - total_before) <= Fraction(1, 10**12)

    def test_missing_node_rejected(self):
        graph = self.path_graph()
        with pytest.raises(ValueError):
            short_at(graph, [(0, 7)])

    def test_cluster_membership_preserved(self):
        config = generate_hardcore(seed=61, N=6, intensity=0.05, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.45)
        if graph.n_edges == 0:
            pytest.skip("edgeless draw")
        part = clusters(graph)
        e = edge_rows(graph)[0]
        out = short_at(graph, [(e.a, e.b)])
        part_out = clusters(out)
        # nodes sharing a cluster before still share one after
        for edge in edge_rows(graph):
            ca = part_out.node_cluster[out.node_merge_map[edge.a]]
            cb = part_out.node_cluster[out.node_merge_map[edge.b]]
            assert ca == cb or part.node_cluster[edge.a] != part.node_cluster[edge.b]


class TestShortKappa:
    def path_with_gaps(self, d1, d2):
        return make_graph([1.0, 1.0, 1.0],
                          [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                          [(0, 1, d1), (1, 2, d2)])

    def test_kappa_below_all_gaps_is_identity(self):
        graph = self.path_with_gaps(0.1, 0.2)
        out = short_kappa(graph, 0.05)
        assert out.n_nodes == graph.n_nodes
        assert out.n_edges == graph.n_edges
        assert out.node_merge_map == (0, 1, 2)

    def test_kappa_near_one_shorts_everything(self):
        graph = self.path_with_gaps(0.1, 0.2)
        out = short_kappa(graph, np.nextafter(1.0, 0.0))
        assert out.n_edges == 0
        assert out.n_nodes == 1

    def test_hand_checkable_threshold(self):
        graph = self.path_with_gaps(0.01, 0.2)
        out = short_kappa(graph, 0.1)
        assert out.n_nodes == 2
        assert out.n_edges == 1
        assert edge_rows(out)[0].d == pytest.approx(0.2)

    def test_edge_sets_monotone_in_kappa(self):
        config = generate_hardcore(seed=67, N=6, intensity=0.05, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.45)
        if graph.n_edges == 0:
            pytest.skip("edgeless draw")
        previous = None
        for kappa in (0.05, 0.15, 0.3, 0.6):
            ids = {e.id for e in edge_rows(short_kappa(graph, kappa))}
            if previous is not None:
                assert ids <= previous
            previous = ids

    def test_invalid_kappa_rejected(self):
        graph = self.path_with_gaps(0.1, 0.2)
        for kappa in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                short_kappa(graph, kappa)


class TestCycleFree:
    def test_path_true(self):
        graph = make_graph([1, 1, 1], [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                           [(0, 1, 0.1), (1, 2, 0.1)])
        assert is_cycle_free(graph)

    def test_triangle_false(self):
        graph = make_graph([1, 1, 1], [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                           [(0, 1, 0.1), (1, 2, 0.1), (0, 2, 0.1)])
        assert not is_cycle_free(graph)

    def test_parallel_pair_false(self):
        graph = make_graph([1, 1], [(0, 0, 0), (1, 0, 0)],
                           [(0, 1, 0.1), (0, 1, 0.2)])
        assert not is_cycle_free(graph)

    def test_euler_characterization(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(0, 14))
            edges = []
            for _ in range(m):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edges.append((int(a), int(b), float(rng.uniform(0.05, 0.5))))
            graph = make_graph(np.ones(n), rng.uniform(-1, 1, size=(n, 3)),
                               edges)
            part = clusters(graph)
            n_clusters = np.unique(part.node_cluster).size
            expected = graph.n_edges == graph.n_nodes - n_clusters
            assert is_cycle_free(graph) == expected

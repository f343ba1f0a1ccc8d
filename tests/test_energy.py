"""Energy evaluation, minimization, canonical families, potentials."""

import warnings

import numpy as np
import pytest

from conftest import (
    cycle_free_potentials,
    dense_minimum_oracle,
    edge_rows,
    energy_gradient,
    lift_short_potentials,
    make_graph,
    node_rows,
    random_test_graph,
    single_edge_graph,
)
from stiffnet.energy import (
    affine_boundary_family,
    energy,
    midpoint_boundary_family,
    minimize_energy,
)
from stiffnet.geometry import SphereConfig, components
from stiffnet.multigraph import build_graph, short_at


def single_edge_minimum(mu, beta):
    """Hand calculus: min of 2 mu (beta + u1 - u2)^2 + u1^2 + u2^2.

    Stationarity gives u2 = -u1 and u1 = -2 mu beta / (4 mu + 1), hence
    the minimum value 2 mu beta^2 / (4 mu + 1).
    """
    return 2.0 * mu * beta * beta / (4.0 * mu + 1.0)


class TestEnergyEvaluation:
    def test_symmetric_family_zero_total(self, rng):
        graph = random_test_graph(rng)
        vals = rng.normal(size=graph.n_edges)
        beta = vals - vals.copy()
        u = np.zeros(graph.n_nodes)
        out = energy(graph, u, beta)
        assert out.total == 0.0

    def test_worked_single_edge_value(self):
        graph = single_edge_graph(mu=2.0)
        beta = np.array([1.0]) - np.array([0.0])
        u = [-4.0 / 9.0, 4.0 / 9.0]
        out = energy(graph, u, beta)
        assert out.total == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert out.gap == pytest.approx(4.0 / 81.0, abs=1e-15)
        assert out.mass == pytest.approx(32.0 / 81.0, abs=1e-15)

    def test_empty_graph(self):
        graph = make_graph([], [], [])
        out = energy(graph, np.zeros(0), np.zeros(0))
        assert out.total == 0.0

    def test_breakdown_consistency(self, rng):
        graph = random_test_graph(rng)
        beta = (rng.normal(size=graph.n_edges)
                - rng.normal(size=graph.n_edges))
        u = rng.normal(size=graph.n_nodes)
        out = energy(graph, u, beta)
        assert out.total == out.gap + out.mass
        assert out.gap >= 0.0 and out.mass >= 0.0

    def test_overflowing_sums_rejected_without_warnings(self, rng):
        # A finite family and potentials whose squares overflow.
        graph = random_test_graph(rng, connected=True)
        beta = 1e200 * rng.normal(size=graph.n_edges)
        u = np.zeros(graph.n_nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="energy is not finite"):
                energy(graph, u, beta)
            with pytest.raises(ValueError, match="energy is not finite"):
                energy(graph, np.full(graph.n_nodes, 1e200),
                       np.zeros(graph.n_edges))
            with pytest.raises(ValueError, match="energy is not finite"):
                minimize_energy(graph, beta)

    def test_index_mismatch_rejected(self):
        graph = single_edge_graph()
        with pytest.raises(ValueError):
            energy(graph, np.zeros(3), np.zeros(1))
        with pytest.raises(ValueError):
            energy(graph, np.zeros(2), np.zeros(4))


class TestMinimizeEnergy:
    def test_single_edge_analytic(self):
        graph = single_edge_graph(mu=2.0)
        beta = np.array([1.0]) - np.array([0.0])
        u, out = minimize_energy(graph, beta)
        assert u == pytest.approx([-4.0 / 9.0, 4.0 / 9.0], abs=1e-14)
        assert out.total == pytest.approx(4.0 / 9.0, abs=1e-14)
        assert out.total == pytest.approx(single_edge_minimum(2.0, 1.0),
                                          abs=1e-14)

    def test_zero_antisymmetric_part_gives_zero(self, rng):
        graph = random_test_graph(rng)
        vals = rng.normal(size=graph.n_edges)
        u, out = minimize_energy(graph, vals - vals.copy())
        assert np.all(u == 0.0)
        assert out.total == 0.0

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            graph = random_test_graph(rng, n_nodes_max=50, n_edges_max=150)
            ab = rng.normal(size=graph.n_edges)
            ba = rng.normal(size=graph.n_edges)
            _, out = minimize_energy(graph, ab - ba)
            _, oracle = dense_minimum_oracle(graph, ab, ba)
            assert out.total == pytest.approx(oracle, rel=1e-8)

    def test_large_graph_uses_cg(self, rng):
        # ~300 nodes exceeds the dense cutoff; answer must match the oracle.
        n = 300
        volumes = rng.uniform(0.5, 2.0, size=n)
        positions = rng.uniform(-3, 3, size=(n, 3))
        edges = [(i, i + 1, float(rng.uniform(0.05, 0.4)))
                 for i in range(n - 1)]
        edges += [(int(rng.integers(0, n // 2)),
                   int(rng.integers(n // 2, n)),
                   float(rng.uniform(0.05, 0.4))) for _ in range(120)]
        graph = make_graph(volumes, positions, edges, N=3.0)
        ab = rng.normal(size=graph.n_edges)
        ba = rng.normal(size=graph.n_edges)
        _, out = minimize_energy(graph, ab - ba)
        _, oracle = dense_minimum_oracle(graph, ab, ba)
        assert out.total == pytest.approx(oracle, rel=1e-8)

    def test_optimality_against_random_competitors(self, rng):
        graph = random_test_graph(rng)
        beta = (rng.normal(size=graph.n_edges)
                - rng.normal(size=graph.n_edges))
        u_star, out = minimize_energy(graph, beta)
        for _ in range(100):
            u = u_star + rng.normal(
                scale=rng.uniform(1e-4, 1.0), size=graph.n_nodes)
            assert energy(graph, u, beta).total >= out.total - 1e-12

    def test_gradient_zero_at_minimizer(self, rng):
        graph = random_test_graph(rng)
        beta = (rng.normal(size=graph.n_edges)
                - rng.normal(size=graph.n_edges))
        u_star, out = minimize_energy(graph, beta)
        g = energy_gradient(graph, u_star, beta)
        scale = max(1.0, energy(graph, np.zeros(graph.n_nodes),
                                beta).total)
        assert np.linalg.norm(g) <= 1e-8 * scale

    def test_empty_graph(self):
        graph = make_graph([], [], [])
        u, out = minimize_energy(graph, np.zeros(0))
        assert u.size == 0 and out.total == 0.0


class TestGradient:
    def test_matches_central_differences(self, rng):
        for _ in range(5):
            graph = random_test_graph(rng)
            beta = (rng.normal(size=graph.n_edges)
                    - rng.normal(size=graph.n_edges))
            u0 = rng.normal(size=graph.n_nodes)
            g = energy_gradient(graph, u0, beta)
            scale = max(1.0, float(np.max(np.abs(u0))))
            h = 1e-6 * scale
            for i in range(graph.n_nodes):
                up, dn = u0.copy(), u0.copy()
                up[i] += h
                dn[i] -= h
                fd = (energy(graph, up, beta).total
                      - energy(graph, dn, beta).total) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-6 * scale)


class TestMonotonicity:
    def test_extension_never_decreases_energy(self, rng):
        # disjoint-union extensions: new nodes, new edges touching them
        for _ in range(100):
            graph = random_test_graph(rng, n_nodes_max=12, n_edges_max=20)
            n, m = graph.n_nodes, graph.n_edges
            extra_nodes = int(rng.integers(1, 5))
            volumes = [nd.volume for nd in node_rows(graph)]
            positions = [nd.centroid for nd in node_rows(graph)]
            edges = [(e.a, e.b, e.d) for e in edge_rows(graph)]
            volumes += list(rng.uniform(0.2, 2.0, size=extra_nodes))
            positions += list(rng.uniform(-2, 2, size=(extra_nodes, 3)))
            for _ in range(int(rng.integers(1, 6))):
                a = int(rng.integers(0, n + extra_nodes))
                b = int(rng.integers(n, n + extra_nodes))
                if a == b:
                    continue
                edges.append((a, b, float(rng.uniform(0.02, 0.5))))
            extended = make_graph(volumes, positions, edges, N=2.0)

            u = rng.normal(size=n)
            b_ab = rng.normal(size=m)
            b_ba = rng.normal(size=m)
            e_small = energy(graph, u, b_ab - b_ba).total

            # extend the families: old edges of the extension correspond to
            # the first m sorted edges only up to reordering; map by key.
            key_to_old = {}
            for k, e in enumerate(edge_rows(graph)):
                key_to_old.setdefault((e.a, e.b, e.d), []).append(k)
            ab_ext, ba_ext = [], []
            used = {k: 0 for k in key_to_old}
            for e in edge_rows(extended):
                key = (e.a, e.b, e.d)
                if key in key_to_old and used[key] < len(key_to_old[key]):
                    old = key_to_old[key][used[key]]
                    used[key] += 1
                    ab_ext.append(b_ab[old])
                    ba_ext.append(b_ba[old])
                else:
                    ab_ext.append(float(rng.normal()))
                    ba_ext.append(float(rng.normal()))
            u_ext = np.concatenate([u, rng.normal(size=extra_nodes)])
            e_big = energy(extended, u_ext,
                           np.array(ab_ext) - np.array(ba_ext)).total
            scale = max(1.0, abs(e_big))
            assert e_small <= e_big + 1e-12 * scale


class TestRigidMotion:
    def test_minimized_affine_energy_invariant(self, rng):
        for _ in range(5):
            config = SphereConfig(rng.uniform(-3, 3, size=(25, 3)),
                                  np.full(25, 0.8), 4.0)
            graph = build_graph(components(config), config, 0.8 * 0.6)
            xi = rng.normal(size=3)
            _, out = minimize_energy(graph, affine_boundary_family(graph, xi))

            # random rotation + shift
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            t = rng.normal(size=3)
            moved = SphereConfig(config.centers @ q.T + t, config.radii, 8.0)
            graph_m = build_graph(components(moved), moved, 0.8 * 0.6)
            _, out_m = minimize_energy(graph_m,
                                       affine_boundary_family(graph_m, q @ xi))
            if out.total > 0:
                assert out_m.total == pytest.approx(out.total, rel=1e-10)


class TestBoundaryFamilies:
    def test_affine_zero_direction(self, rng):
        graph = random_test_graph(rng)
        beta = affine_boundary_family(graph, (0, 0, 0))
        assert beta.shape == (graph.n_edges,) and np.all(beta == 0.0)

    def test_affine_dot_products(self):
        graph = make_graph([1, 1], [(0, 0, 0), (1, 0, 0)], [(0, 1, 0.1)])
        beta = affine_boundary_family(graph, (1, 0, 0))
        assert beta.tolist() == [-1.0]

    def test_affine_linearity(self, rng):
        graph = random_test_graph(rng)
        xi = rng.normal(size=3)
        one = affine_boundary_family(graph, xi)
        two = affine_boundary_family(graph, 2 * xi)
        assert np.allclose(two, 2 * one)

    def test_midpoint_centroid_at_midpoint_gives_zero(self):
        # centroids at +-0.5 along x, contacts symmetric about the origin:
        # node 0's centroid sits at the contact midpoint after shifting
        graph = make_graph([1, 1], [(0, 0, 0), (1, 0, 0)], [(0, 1, 1.0)])
        # the synthesized contacts straddle the segment midpoint (0.5,0,0)
        beta = midpoint_boundary_family(graph, (1, 0, 0))
        assert beta[0] == pytest.approx(-1.0)

    def test_midpoint_orthogonal_direction_gives_zero(self):
        graph = make_graph([1, 1], [(0, 0, 0), (1, 0, 0)], [(0, 1, 0.2)])
        beta = midpoint_boundary_family(graph, (0, 1, 0))
        assert beta.tolist() == [0.0]

    def test_midpoint_worked_example(self):
        config = SphereConfig([[0, 0, 0], [2.1, 0, 0]], [1.0, 1.0], 4.0)
        graph = build_graph(components(config), config, 0.3)
        beta = midpoint_boundary_family(graph, (1, 0, 0))
        assert beta[0] == pytest.approx(-2.1, abs=1e-12)


class TestCycleFreePotentials:
    def test_one_edge_telescoping(self):
        graph = single_edge_graph(mu=1.0)
        beta = np.array([0.7]) - np.array([0.2])
        u = cycle_free_potentials(graph, beta)
        assert u[0] == 0.0
        assert u[1] == pytest.approx(0.5)
        assert energy(graph, u, beta).gap == 0.0

    def test_star_with_zero_family(self):
        graph = make_graph([1] * 4,
                           [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
                           [(0, 1, 0.1), (0, 2, 0.1), (0, 3, 0.1)])
        u = cycle_free_potentials(graph, np.zeros(3))
        assert np.all(u == 0.0)

    def test_random_forest_gap_exactly_zero(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            edges = []
            for i in range(1, n):
                if rng.uniform() < 0.8:     # forest, not always a tree
                    j = int(rng.integers(0, i))
                    edges.append((j, i, float(rng.uniform(0.01, 0.5))))
            graph = make_graph(rng.uniform(0.3, 2.0, size=n),
                               rng.uniform(-2, 2, size=(n, 3)), edges)
            beta = (rng.normal(size=graph.n_edges)
                    - rng.normal(size=graph.n_edges))
            u = cycle_free_potentials(graph, beta)
            out = energy(graph, u, beta)
            assert out.gap == 0.0
            _, best = minimize_energy(graph, beta)
            assert out.total >= best.total - 1e-12 * max(1.0, out.total)

    def test_custom_roots_respected(self):
        graph = make_graph([1, 1, 1], [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                           [(0, 1, 0.1), (1, 2, 0.1)])
        beta = np.array([0.3, 0.4]) - np.array([0.1, 0.6])
        u = cycle_free_potentials(graph, beta, roots=[2])
        assert u[2] == 0.0
        assert energy(graph, u, beta).gap == 0.0

    def test_cyclic_graph_rejected(self):
        graph = make_graph([1, 1, 1], [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                           [(0, 1, 0.1), (1, 2, 0.1), (0, 2, 0.1)])
        with pytest.raises(ValueError):
            cycle_free_potentials(graph, np.zeros(3))


class TestLiftShortPotentials:
    def test_trivial_short_reproduces_input(self, rng):
        graph = random_test_graph(rng)
        trivial = short_at(graph, [(0, 0)])
        assert trivial.n_nodes == graph.n_nodes
        u_prime = rng.normal(size=graph.n_nodes)
        xi = rng.normal(size=3)
        u = lift_short_potentials(graph, trivial, u_prime, xi)
        assert np.allclose(u, u_prime[list(trivial.node_merge_map)])

    def test_zero_direction_constant_on_groups(self, rng):
        graph = random_test_graph(rng, n_nodes_max=8)
        e = edge_rows(graph)[0]
        shorted = short_at(graph, [(e.a, e.b)])
        u_prime = rng.normal(size=shorted.n_nodes)
        u = lift_short_potentials(graph, shorted, u_prime, (0, 0, 0))
        for old_id, new_id in enumerate(shorted.node_merge_map):
            assert u[old_id] == u_prime[new_id]

    def test_two_node_merge_hand_values(self):
        graph = make_graph([1.0, 3.0], [(0, 0, 0), (2, 0, 0)], [(0, 1, 0.1)])
        shorted = short_at(graph, [(0, 1)])
        # merged centroid: volume weighted = (1*0 + 3*2)/4 = 1.5
        assert node_rows(shorted)[0].centroid[0] == pytest.approx(1.5)
        u = lift_short_potentials(graph, shorted, [5.0], (1.0, 0.0, 0.0))
        assert u[0] == pytest.approx(0.0 + 5.0 - 1.5)
        assert u[1] == pytest.approx(2.0 + 5.0 - 1.5)

    def test_missing_merge_map_rejected(self, rng):
        graph = random_test_graph(rng)
        with pytest.raises(ValueError):
            lift_short_potentials(graph, graph,
                                  np.zeros(graph.n_nodes),
                                  (1, 0, 0))

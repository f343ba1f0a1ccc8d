"""Generators, components, restriction and the cluster moment statistic."""

import math

import numpy as np
import pytest

from stiffnet.cli import dumps_17g
from stiffnet.geometry import (
    Sphere,
    SphereConfig,
    cluster_moment_statistic,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
    restrict_box,
)
from stiffnet.multigraph import build_graph, is_cycle_free

FOUR_THIRDS_PI = 4.0 * math.pi / 3.0


def min_pairwise_gap(config):
    """O(n^2) oracle: smallest surface-to-surface distance."""
    best = math.inf
    c, r = config.centers, config.radii
    for i in range(config.n_spheres):
        for j in range(i + 1, config.n_spheres):
            best = min(best, float(np.linalg.norm(c[i] - c[j])) - r[i] - r[j])
    return best


def lens_volume_oracle(r1, r2, d):
    """Analytic two-ball intersection volume."""
    return (math.pi * (r1 + r2 - d) ** 2
            * (d * d + 2 * d * (r1 + r2) - 3 * (r1 - r2) ** 2) / (12 * d))


class TestSphere:
    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            Sphere((0.0, 0.0, 0.0), -1.0)

    def test_non_finite_center_rejected(self):
        with pytest.raises(ValueError):
            Sphere((math.inf, 0.0, 0.0), 1.0)


class TestHardcore:
    def test_target_count_and_min_gap(self):
        config = generate_hardcore(seed=7, N=10, intensity=0.05, radius=1,
                                   min_gap=0.2)
        assert config.n_spheres == 400           # 0.05 * 20^3
        assert config.warnings == ()
        assert min_pairwise_gap(config) >= 0.2   # exact hard-core check

    def test_zero_intensity_empty(self):
        config = generate_hardcore(seed=7, N=1, intensity=0, radius=1,
                                   min_gap=0)
        assert config.n_spheres == 0

    def test_determinism_bit_identical(self):
        a = generate_hardcore(seed=11, N=5, intensity=0.03, radius=1,
                              min_gap=0.1)
        b = generate_hardcore(seed=11, N=5, intensity=0.03, radius=1,
                              min_gap=0.1)
        assert a == b
        assert dumps_17g(a.to_dict()) == dumps_17g(b.to_dict())

    def test_saturation_reports_partial(self):
        config = generate_hardcore(seed=3, N=2, intensity=2.0, radius=1,
                                   min_gap=0.5)
        assert config.warnings
        assert "saturated" in config.warnings[0]
        assert 0 < config.n_spheres < round(2.0 * 4 ** 3)
        assert min_pairwise_gap(config) >= 0.5


class TestLatticeJitter:
    def test_regular_lattice_counts_and_gaps(self):
        config = generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.3,
                                         jitter=0)
        assert config.n_spheres == 64
        # nearest-neighbor oracle: smallest gap is spacing - 2r
        assert min_pairwise_gap(config) == pytest.approx(0.4, abs=1e-12)

    def test_jitter_free_is_seed_independent(self):
        a = generate_lattice_jitter(seed=1, N=2, spacing=1, radius=0.3, jitter=0)
        b = generate_lattice_jitter(seed=2, N=2, spacing=1, radius=0.3, jitter=0)
        assert np.array_equal(a.centers, b.centers)

    def test_jittered_gaps_stay_in_band(self):
        config = generate_lattice_jitter(seed=5, N=2, spacing=1, radius=0.3,
                                         jitter=0.05)
        gap = min_pairwise_gap(config)
        assert 0.2 <= gap <= 0.6
        # axial neighbors: center distance within [0.9, sqrt(1.1^2+2*0.1^2)]
        assert gap >= 0.9 - 0.6

    def test_overlap_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.6,
                                    jitter=0)
        with pytest.raises(ValueError):
            generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.3,
                                    jitter=0.25)

    def test_component_count_equals_sphere_count(self):
        config = generate_lattice_jitter(seed=0, N=3, spacing=1, radius=0.3,
                                         jitter=0)
        comp = components(config)
        assert comp.n_components == config.n_spheres


class TestChainForest:
    def test_single_chain_is_a_path(self):
        config = generate_chain_forest(seed=5, N=10, radius=1,
                                       chain_len_max=3, gap_range=(0.1, 0.1),
                                       chain_density=1e-9)
        comp = components(config)
        graph = build_graph(comp, config, 0.2)
        assert graph.n_nodes == config.n_spheres
        assert graph.n_edges == graph.n_nodes - 1
        assert is_cycle_free(graph)

    def test_len_one_chains_have_no_edges(self):
        config = generate_chain_forest(seed=2, N=8, radius=1,
                                       chain_len_max=1, gap_range=(0.05, 0.1))
        comp = components(config)
        graph = build_graph(comp, config, 0.2)
        assert graph.n_edges == 0

    def test_reference_forest_is_cycle_free(self):
        config = generate_chain_forest(seed=3, N=20, radius=1,
                                       chain_len_max=8, gap_range=(0.01, 0.1))
        comp = components(config)
        graph = build_graph(comp, config, 0.2)
        assert is_cycle_free(graph)
        assert graph.n_edges > 0

    def test_spheres_stay_inside_box(self):
        config = generate_chain_forest(seed=4, N=12, radius=1,
                                       chain_len_max=6, gap_range=(0.02, 0.2))
        reach = np.max(np.abs(config.centers), axis=1) + config.radii
        assert np.all(reach < config.box_half_width)


class TestRestrictBox:
    def test_identity_when_all_inside(self):
        config = generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.3,
                                         jitter=0)
        out = restrict_box(config, 2)
        assert out.n_spheres == 64

    def test_lattice_count_after_restriction(self):
        config = generate_lattice_jitter(seed=0, N=4, spacing=1, radius=0.3,
                                         jitter=0)
        out = restrict_box(config, 2)
        assert out.n_spheres == 64

    def test_straddling_component_fully_removed(self):
        # Two overlapping spheres: one inside Q_1, one crossing the boundary.
        config = SphereConfig(
            centers=[[0.2, 0.0, 0.0], [0.9, 0.0, 0.0], [-0.5, 0.0, 0.0]],
            radii=[0.4, 0.4, 0.1],
            box_half_width=2.0,
        )
        out = restrict_box(config, 1.0)
        # The dumbbell reaches |x| = 1.3 > 1: both its spheres go, the
        # small separate ball stays.
        assert out.n_spheres == 1
        assert out.radii[0] == 0.1

    def test_empty_configuration(self):
        config = SphereConfig(np.empty((0, 3)), np.empty(0), 3.0)
        out = restrict_box(config, 2.0)
        assert out.n_spheres == 0 and out.box_half_width == 2.0

    def test_idempotent(self):
        config = generate_hardcore(seed=5, N=6, intensity=0.02, radius=1,
                                   min_gap=0.2)
        once = restrict_box(config, 4)
        twice = restrict_box(once, 4)
        assert once == twice

    def test_invalid_m_rejected(self):
        config = generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.3,
                                         jitter=0)
        with pytest.raises(ValueError):
            restrict_box(config, 3.0)
        with pytest.raises(ValueError):
            restrict_box(config, 0.0)


class TestComponents:
    def test_two_disjoint_spheres(self):
        config = SphereConfig([[0, 0, 0], [3, 0, 0]], [1.0, 1.0], 5.0)
        comp = components(config)
        assert comp.n_components == 2

    def test_overlap_volume_matches_lens_oracle(self):
        d = 1.5
        config = SphereConfig([[0, 0, 0], [d, 0, 0]], [1.0, 1.0], 5.0)
        comp = components(config)
        assert comp.n_components == 1
        expected = 2 * FOUR_THIRDS_PI - lens_volume_oracle(1.0, 1.0, d)
        assert comp.volumes[0] == pytest.approx(expected, rel=1e-12)
        assert comp.volumes[0] < 2 * FOUR_THIRDS_PI

    def test_unit_ball_stats(self):
        config = SphereConfig([[0, 0, 0]], [1.0], 5.0)
        comp = components(config)
        assert comp.volumes[0] == pytest.approx(FOUR_THIRDS_PI, rel=1e-15)
        assert comp.diameters[0] == 2.0
        assert not comp.boundary[0]

    def test_partition_property(self):
        config = generate_hardcore(seed=9, N=5, intensity=0.05, radius=0.8,
                                   min_gap=0.05)
        comp = components(config)
        seen = np.zeros(config.n_spheres, dtype=int)
        for k in range(comp.n_components):
            seen[comp.sphere_indices(k)] += 1
        assert np.all(seen == 1)

    def test_chain_diameter_exceeds_ball_diameter(self):
        config = SphereConfig([[0, 0, 0], [1.8, 0, 0]], [1.0, 1.0], 5.0)
        comp = components(config)
        assert comp.n_components == 1
        assert comp.diameters[0] == pytest.approx(3.8)  # 1.8 + 1 + 1

    def test_boundary_flag_set_on_touching_component(self):
        config = SphereConfig([[4.5, 0, 0]], [0.6], 5.0)
        comp = components(config)
        assert bool(comp.boundary[0])   # reaches 5.1 >= 5


class TestClusterMoment:
    def test_empty_config_gives_zero(self):
        config = SphereConfig(np.empty((0, 3)), np.empty(0), 3.0)
        graph = build_graph(components(config), config, 0.3)
        est = cluster_moment_statistic(config, graph, p=2, n_samples=100,
                                       seed=0)
        assert est.mean == 0.0

    def test_singleton_unit_balls_match_density_times_four(self):
        config = generate_hardcore(seed=21, N=6, intensity=0.02, radius=1,
                                   min_gap=1.5)   # all gaps > delta
        config = restrict_box(config, 6)          # keep balls fully inside
        graph = build_graph(components(config), config, 0.5)
        assert graph.n_edges == 0
        est = cluster_moment_statistic(config, graph, p=2, n_samples=40000,
                                       seed=1)
        lam = config.n_spheres * FOUR_THIRDS_PI / config.box_volume()
        assert est.mean == pytest.approx(4.0 * lam, abs=5 * est.stderr + 1e-12)

    def test_matches_exhaustive_cluster_enumeration(self):
        config = generate_chain_forest(seed=13, N=8, radius=0.8,
                                       chain_len_max=5, gap_range=(0.05, 0.15),
                                       chain_density=0.004)
        comp = components(config)
        graph = build_graph(comp, config, 0.3)
        from stiffnet.multigraph import clusters

        part = clusters(graph)
        # Exact spatial average: balls are disjoint here, so the average of
        # diam(C_y)^2 over the box is sum_C diam(C)^2 vol(C) / |Q_N|.
        exact = 0.0
        for k, mem in enumerate(part.members):
            vol = sum(graph.nodes[i].volume for i in mem)
            exact += part.diameters[k] ** 2 * vol
        exact /= config.box_volume()
        est = cluster_moment_statistic(config, graph, p=2, n_samples=60000,
                                       seed=2)
        assert est.mean == pytest.approx(exact, abs=5 * est.stderr + 1e-12)

    def test_moment_grows_with_chain_length(self):
        kwargs = dict(seed=17, N=10, radius=0.8, gap_range=(0.05, 0.15),
                      chain_density=0.003)
        short_chains = generate_chain_forest(chain_len_max=1, **kwargs)
        long_chains = generate_chain_forest(chain_len_max=7, **kwargs)
        vals = []
        for config in (short_chains, long_chains):
            graph = build_graph(components(config), config, 0.3)
            vals.append(cluster_moment_statistic(config, graph, p=2,
                                                 n_samples=30000, seed=3).mean)
        assert vals[1] > vals[0]

    def test_count_moment_supported(self):
        config = generate_chain_forest(seed=19, N=8, radius=0.8,
                                       chain_len_max=4, gap_range=(0.05, 0.1),
                                       chain_density=0.003)
        graph = build_graph(components(config), config, 0.3)
        est = cluster_moment_statistic(config, graph, p=1, n_samples=20000,
                                       seed=4, quantity="count")
        assert est.mean > 0.0

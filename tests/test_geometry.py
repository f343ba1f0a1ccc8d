"""Generators, components, restriction and the cluster moment statistic."""

import dataclasses
import math

import numpy as np
import pytest

from stiffnet import geometry
from stiffnet.cli import dumps_17g
from stiffnet.criteria import ScanCell, derive_cell_seed
from stiffnet.geometry import (
    SphereConfig,
    cluster_moment_statistic,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
    restrict_box,
)
from stiffnet.multigraph import build_graph

from conftest import (
    cluster_members,
    count_calls,
    is_cycle_free,
    node_rows,
    pointwise_cluster_moment,
    quadratic_chain_forest,
    sequential_hardcore,
)

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


class TestSphereConfig:
    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            SphereConfig([(0.0, 0.0, 0.0)], [-1.0], 2.0)

    def test_non_finite_center_rejected(self):
        with pytest.raises(ValueError):
            SphereConfig([(math.inf, 0.0, 0.0)], [1.0], 2.0)


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

    def test_nan_min_gap_rejected(self):
        with pytest.raises(ValueError, match="min_gap"):
            generate_hardcore(seed=0, N=4, intensity=0.05, radius=1.0,
                              min_gap=math.nan)

    @pytest.mark.parametrize("max_attempts", [0, -5])
    def test_attempt_budget_below_one_rejected(self, max_attempts):
        with pytest.raises(ValueError, match="max_attempts must be >= 1"):
            generate_hardcore(seed=0, N=4, intensity=0.05, radius=1.0,
                              min_gap=0.2, max_attempts=max_attempts)

    def test_saturation_reports_partial(self):
        config = generate_hardcore(seed=3, N=2, intensity=2.0, radius=1,
                                   min_gap=0.5)
        assert config.warnings
        assert "saturated" in config.warnings[0]
        assert 0 < config.n_spheres < round(2.0 * 4 ** 3)
        assert min_pairwise_gap(config) >= 0.5

    @pytest.mark.parametrize("block", [None, 1, 5, 64])
    @pytest.mark.parametrize("seed, N, params, saturates", [
        (7, 10.0, {}, False),
        (7, 1.0, {"intensity": 0.0}, False),
        (0, 5.0, {"intensity": 0.5}, True),
        (3, 2.0, {"intensity": 2.0, "min_gap": 0.5}, True),
        (9, 6.0, {"intensity": 0.2, "max_attempts": 7}, True),
        (0, 6.0, {"intensity": 0.2, "max_attempts": 1}, True),
    ], ids=["target", "empty", "saturated", "saturated-small", "budget",
            "one-attempt"])
    def test_matches_sequential_oracle(self, monkeypatch, seed, N, params,
                                       saturates, block):
        """Byte-identical to one draw at a time for any block size.

        With blocks of 1 or 5 attempts, the last ball's attempts in the
        saturated and budget cases run out across block boundaries.
        """
        if block is not None:
            monkeypatch.setattr(geometry, "_BLOCK_BALLS", block)
        kwargs = {"intensity": 0.03, "radius": 1.0, "min_gap": 0.2, **params}
        config = generate_hardcore(seed=seed, N=N, **kwargs)
        centers, warnings = sequential_hardcore(seed, N, **kwargs)
        assert config.centers.tobytes() == centers.tobytes()
        assert config.warnings == warnings
        assert bool(warnings) == saturates


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

    def test_nan_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.4,
                                    jitter=math.nan)

    @pytest.mark.parametrize("N", [10000, math.inf],
                             ids=["huge-box", "infinite-box"])
    def test_cell_count_above_cap_rejected(self, N):
        # Refused before any array is drawn: the cells would take 58 TiB.
        with pytest.raises(ValueError, match="lattice cell count"):
            generate_lattice_jitter(seed=0, N=N, spacing=1, radius=0.4,
                                    jitter=0)

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


    @pytest.mark.parametrize("seed, N, params", [
        (0, 30.0, {}),
        (1, 12.0, {"chain_len_max": 3}),
        (7, 9.0, {"chain_density": 0.02}),
        (11, 6.0, {"chain_density": 0.05, "max_attempts": 20}),
        (12, 8.0, {"radius": 0.5, "gap_range": (0.2, 0.4),
                   "chain_density": 0.01, "max_attempts": 5}),
        (0, 30.0, {"radius": 0.01, "chain_len_max": 3000,
                   "gap_range": (0.001, 0.002), "chain_density": 2e-5}),
        (3, 10.0, {"chain_len_max": 5, "chain_density": 0.01}),
        (4, 10.0, {"gap_range": (0.05, 0.05), "chain_density": 0.01}),
        (5, 12, {"radius": 1}),
    ])
    def test_matches_quadratic_oracle(self, seed, N, params):
        """Bitwise the oracle's chains, drawn by the four ``rng`` calls
        the generator's three replace: also where ``integers`` rejects
        draws (a bound that is not a power of two), where the gaps have
        zero span, and with an integer box and radius."""
        kwargs = {"radius": 1.0, "chain_len_max": 8,
                  "gap_range": (0.01, 0.1), **params}
        config = generate_chain_forest(seed=seed, N=N, **kwargs)
        centers, warnings = quadratic_chain_forest(seed, N, **kwargs)
        assert config.centers.tobytes() == centers.tobytes()
        assert config.warnings == warnings
        if "max_attempts" in params:
            assert warnings     # the run hit its placement budget

    @pytest.mark.parametrize("block", [1, 5, 64])
    @pytest.mark.parametrize("seed, N, params", [
        (0, 16.0, {}),
        (11, 6.0, {"chain_density": 0.05, "max_attempts": 20}),
        (5, 6.0, {"chain_density": 0.05, "max_attempts": 3}),
        (12, 8.0, {"radius": 0.5, "gap_range": (0.2, 0.4),
                   "chain_density": 0.01, "max_attempts": 5}),
        (0, 30.0, {"radius": 0.01, "chain_len_max": 3000,
                   "gap_range": (0.001, 0.002), "chain_density": 2e-5}),
    ])
    def test_small_blocks_match_quadratic_oracle(self, monkeypatch, seed, N,
                                                 params, block):
        monkeypatch.setattr(geometry, "_BLOCK_BALLS", block)
        kwargs = {"radius": 1.0, "chain_len_max": 8,
                  "gap_range": (0.01, 0.1), **params}
        config = generate_chain_forest(seed=seed, N=N, **kwargs)
        centers, warnings = quadratic_chain_forest(seed, N, **kwargs)
        assert config.centers.tobytes() == centers.tobytes()
        assert config.warnings == warnings

    def test_block_size_keeps_the_chains_cell(self, monkeypatch):
        """The seed-0 N 50 cell of the chains benchmark workload places
        the same centres in blocks of 2048 and of 8192 balls."""
        kwargs = {"radius": 1.0, "chain_len_max": 8, "gap_range": (0.01, 0.1)}
        centers = []
        for block in (2048, 8192):
            monkeypatch.setattr(geometry, "_BLOCK_BALLS", block)
            config = generate_chain_forest(seed=derive_cell_seed(0, 50.0, 0),
                                           N=50.0, **kwargs)
            centers.append(config.centers.tobytes())
        assert centers[0] == centers[1]

    @pytest.mark.parametrize("params, message", [
        ({"max_attempts": 0}, "max_attempts must be >= 1"),
        ({"max_attempts": -5}, "max_attempts must be >= 1"),
        ({"chain_density": -1.0}, "chain_density must be finite and >= 0"),
        ({"chain_density": math.inf}, "chain_density must be finite"),
        ({"chain_density": math.nan}, "chain_density must be finite"),
        ({"chain_len_max": 0}, r"chain_len_max must be in \[1, 10\*\*6\]"),
        ({"chain_len_max": 10 ** 6 + 1}, "chain_len_max must be in"),
        ({"chain_len_max": 1e12}, "chain_len_max must be in"),
    ], ids=["zero-attempts", "negative-attempts", "negative-density",
            "infinite-density", "nan-density", "zero-length",
            "length-above-cap", "huge-length"])
    def test_bad_parameters_rejected(self, params, message):
        kwargs = {"radius": 1.0, "chain_len_max": 8,
                  "gap_range": (0.01, 0.1), **params}
        with pytest.raises(ValueError, match=message):
            generate_chain_forest(seed=0, N=10.0, **kwargs)

    def test_default_blocks_check_placed_balls(self, monkeypatch):
        trees = count_calls(monkeypatch, geometry, "cKDTree")
        kwargs = {"radius": 1.0, "chain_len_max": 8, "gap_range": (0.01, 0.1)}
        config = generate_chain_forest(seed=3, N=40.0, **kwargs)
        centers, warnings = quadratic_chain_forest(3, 40.0, **kwargs)
        assert config.centers.tobytes() == centers.tobytes()
        assert config.warnings == warnings == ()
        assert len(trees) >= 6      # two trees a block, at least 3 blocks


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

    @pytest.mark.parametrize("width", [None, 0.5],
                             ids=["own-contact-table", "delta-table"])
    @pytest.mark.parametrize("source", [
        generate_hardcore(seed=5, N=6, intensity=0.05, radius=0.9,
                          min_gap=0.05),
        generate_lattice_jitter(seed=2, N=4, spacing=1.0, radius=0.45,
                                jitter=0.2, allow_overlap=True),
    ], ids=["hardcore", "overlapping-lattice"])
    def test_handed_down_pairs_give_fresh_components(self, monkeypatch,
                                                     source, width):
        """The restricted configuration answers from the pair table it
        inherits, and its components and graph are those of a fresh copy."""
        config = SphereConfig(source.centers, source.radii,
                              source.box_half_width)
        if width is not None:
            geometry._near_pairs(config, width)
        out = restrict_box(config, config.box_half_width - 1.0)
        fresh = SphereConfig(out.centers, out.radii, out.box_half_width)
        assert 0 < out.n_spheres < config.n_spheres
        queries = count_calls(monkeypatch, geometry, "_pairs_within")
        got = components(out)
        assert queries == []
        monkeypatch.undo()
        want = components(fresh)
        for f in dataclasses.fields(want):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name))
        if source.model == "lattice_jitter":
            assert np.bincount(want.labels).max() > 1      # overlaps kept
        assert build_graph(got, out, 0.5) == build_graph(want, fresh, 0.5)

    @pytest.mark.parametrize("case", ["hardcore-cell", "straddling"])
    def test_handed_down_partition_gives_fresh_components(self, case):
        """The contact partition restrict_box hands down is, bit for bit,
        the one a fresh configuration of the kept balls computes."""
        if case == "hardcore-cell":
            cell = ScanCell("hardcore", {"intensity": 0.03, "radius": 1.0,
                                         "min_gap": 0.2}, 0.3, 8.0, seed=3,
                            sample_seed=4)
            config, out = cell.config, cell.restricted
        else:
            # Kept and dropped balls interleave: a touching pair that
            # straddles |x| = 2.5, an overlapping pair and two singletons.
            config = SphereConfig(
                [[-1.0, -1.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0],
                 [-1.0, -1.0, 0.9], [2.5, 0.0, 0.0], [0.0, 0.0, -1.5]],
                [0.5] * 6, 3.0)
            out = restrict_box(config, 2.5)
        assert 0 < out.n_spheres < config.n_spheres
        assert out._contact is not None          # handed down, not computed
        fresh = SphereConfig(out.centers, out.radii, out.box_half_width,
                             contact_tol=out.contact_tol)
        got, want = components(out), components(fresh)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.array_equal(a, b)
        if case == "straddling":
            assert want.labels.tolist() == [0, 1, 0, 2]

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
            seen[np.flatnonzero(comp.labels == k)] += 1
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
    def test_infinite_p_rejected(self):
        config = generate_lattice_jitter(0, 2, 1.0, 0.4, 0.05)
        graph = build_graph(components(config), config, 0.5)
        with pytest.raises(ValueError, match="a finite number > 0"):
            cluster_moment_statistic(config, graph, p=math.inf, n_samples=10,
                                     seed=0, quantity="diam")

    def test_empty_config_gives_zero(self):
        config = SphereConfig(np.empty((0, 3)), np.empty(0), 3.0)
        graph = build_graph(components(config), config, 0.3)
        est = cluster_moment_statistic(config, graph, p=2, n_samples=100,
                                       seed=0, quantity="diam")
        assert est.mean == 0.0

    def test_singleton_unit_balls_match_density_times_four(self):
        config = generate_hardcore(seed=21, N=6, intensity=0.02, radius=1,
                                   min_gap=1.5)   # all gaps > delta
        config = restrict_box(config, 6)          # keep balls fully inside
        graph = build_graph(components(config), config, 0.5)
        assert graph.n_edges == 0
        est = cluster_moment_statistic(config, graph, p=2, n_samples=40000,
                                       seed=1, quantity="diam")
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
        nodes = node_rows(graph)
        for k, mem in enumerate(cluster_members(part)):
            vol = sum(nodes[i].volume for i in mem)
            exact += part.diameters[k] ** 2 * vol
        exact /= config.box_volume()
        est = cluster_moment_statistic(config, graph, p=2, n_samples=60000,
                                       seed=2, quantity="diam")
        assert est.mean == pytest.approx(exact, abs=5 * est.stderr + 1e-12)

    def test_moment_grows_with_chain_length(self):
        kwargs = dict(seed=17, N=10, radius=0.8, gap_range=(0.05, 0.15),
                      chain_density=0.003)
        short_chains = generate_chain_forest(chain_len_max=1, **kwargs)
        long_chains = generate_chain_forest(chain_len_max=7, **kwargs)
        vals = []
        for config in (short_chains, long_chains):
            graph = build_graph(components(config), config, 0.3)
            vals.append(cluster_moment_statistic(
                config, graph, p=2, n_samples=30000, seed=3,
                quantity="diam").mean)
        assert vals[1] > vals[0]

    @staticmethod
    def moment_case(name):
        """A configuration and its graph for the oracle comparisons."""
        if name == "lattice":
            config = generate_lattice_jitter(seed=1, N=4, spacing=1,
                                             radius=0.4, jitter=0.05)
            delta = 0.5
        elif name == "hardcore":
            config = generate_hardcore(seed=2, N=5, intensity=0.1, radius=0.5,
                                       min_gap=0.05)
            delta = 0.3
        else:
            config = generate_chain_forest(seed=13, N=8, radius=0.8,
                                           chain_len_max=5,
                                           gap_range=(0.05, 0.15),
                                           chain_density=0.004)
            delta = 0.3
        return config, build_graph(components(config), config, delta)

    @pytest.mark.parametrize("n_samples", [1, 2000])
    @pytest.mark.parametrize("p", [2, 1.5])
    @pytest.mark.parametrize("quantity", ["diam", "count"])
    @pytest.mark.parametrize("case", ["lattice", "hardcore", "chains"])
    def test_matches_pointwise_oracle(self, case, quantity, p, n_samples):
        config, graph = self.moment_case(case)
        est = cluster_moment_statistic(config, graph, p=p, n_samples=n_samples,
                                       seed=7, quantity=quantity)
        assert (est.mean, est.stderr) == pointwise_cluster_moment(
            config, graph, p, n_samples, 7, quantity)

    def test_point_in_a_ball_that_is_not_the_nearest(self):
        # Balls 0 and 2 overlap with unequal radii; ball 1 lies 0.1 past
        # ball 0, beyond delta, so it is a cluster of its own, and points
        # of ball 0 near it have ball 1's centre as their nearest.
        config = SphereConfig([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0],
                               [-0.9, 0.6, 0.0], [0.0, 0.0, 1.6]],
                              [1.0, 0.2, 0.5, 0.3], 2.0)
        graph = build_graph(components(config), config, 0.05)
        n_samples, seed = 4000, 11
        points = np.random.default_rng(seed).uniform(-2.0, 2.0,
                                                     size=(n_samples, 3))
        dist = np.linalg.norm(points[:, None, :] - config.centers, axis=2)
        inside = dist <= config.radii
        nearest = np.argmin(dist, axis=1)
        assert np.any(inside.any(axis=1)
                      & ~inside[np.arange(n_samples), nearest])
        assert np.any(inside[:, 0] & inside[:, 2])
        for quantity in ("diam", "count"):
            est = cluster_moment_statistic(config, graph, p=1.5,
                                           n_samples=n_samples, seed=seed,
                                           quantity=quantity)
            assert (est.mean, est.stderr) == pointwise_cluster_moment(
                config, graph, 1.5, n_samples, seed, quantity)

    def test_point_at_the_largest_radius_is_kept(self):
        # The one sample point lies on the sphere of the larger ball: its
        # radius is the least float r with dx @ dx <= r ** 2.  At this
        # seed a KD-tree query at exactly r misses the point.
        seed = 4
        point = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(1, 3))[0]
        center = point + np.array([0.7, -0.4, 0.25])
        dx = point - center
        r = np.sqrt(dx @ dx)
        while r ** 2 < dx @ dx:
            r = np.nextafter(r, math.inf)
        while np.nextafter(r, 0.0) ** 2 >= dx @ dx:
            r = np.nextafter(r, 0.0)
        means = []
        for radius in (r, np.nextafter(r, 0.0)):
            config = SphereConfig([center, [-2.0, -2.0, -2.0]],
                                  [radius, 0.3], 3.0)
            graph = build_graph(components(config), config, 0.1)
            est = cluster_moment_statistic(config, graph, p=2, n_samples=1,
                                           seed=seed, quantity="diam")
            assert (est.mean, est.stderr) == pointwise_cluster_moment(
                config, graph, 2, 1, seed, "diam")
            means.append(est.mean)
        assert means[0] == (2.0 * r) ** 2 and means[1] == 0.0

    def test_count_moment_supported(self):
        config = generate_chain_forest(seed=19, N=8, radius=0.8,
                                       chain_len_max=4, gap_range=(0.05, 0.1),
                                       chain_density=0.003)
        graph = build_graph(components(config), config, 0.3)
        est = cluster_moment_statistic(config, graph, p=1, n_samples=20000,
                                       seed=4, quantity="count")
        assert est.mean > 0.0

"""Criterion statistics: affine energy, family-uniform ratio, moments, scans."""

import math

import numpy as np
import pytest

from conftest import make_graph, random_test_graph, single_edge_graph
from stiffnet.criteria import (
    H2Options,
    _plateau,
    density_estimate,
    derive_cell_seed,
    h1_statistic,
    h2_exact_s2,
    h2_ratio,
    h2_statistic,
    log_moment_statistic,
    scan_limsup,
)
from stiffnet.energy import (
    BoundaryFamily,
    PotentialFamily,
    affine_boundary_family,
    energy,
    minimize_energy,
)
from stiffnet.geometry import SphereConfig, components, generate_lattice_jitter
from stiffnet.multigraph import build_graph


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


class TestH1Statistic:
    def test_edgeless_configuration_zero(self):
        config = SphereConfig([[0, 0, 0], [3, 0, 0]], [1.0, 1.0], 4.0)
        assert h1_statistic(config, 0.3, (1, 0, 0)) == 0.0

    def test_single_edge_matches_two_variable_oracle(self):
        # gap exp(-2) so mu = 2; centroids differ by 2 + d along x.
        # Two-variable calculus with equal node volumes V gives the minimum
        # 2 mu beta^2 V / (4 mu + V) (stationarity forces u2 = -u1).
        d = math.exp(-2.0)
        config = SphereConfig([[0, 0, 0], [2 + d, 0, 0]], [1.0, 1.0], 4.0)
        graph = build_graph(components(config), config, 0.5)
        assert graph.n_edges == 1 and graph.edges[0].mu == pytest.approx(2.0)
        beta = -(2 + d)     # xi . (x_I - x_J) for xi = e1
        V = 4.0 * math.pi / 3.0
        expected = 2 * 2.0 * beta ** 2 * V / (4 * 2.0 + V) / config.box_volume()
        assert h1_statistic(config, 0.5, (1, 0, 0)) == pytest.approx(
            expected, rel=1e-10)

    def test_upper_bounded_by_zero_potential_energy(self, rng):
        config = SphereConfig(rng.uniform(-2.5, 2.5, size=(30, 3)),
                              np.full(30, 0.7), 4.0)
        graph = build_graph(components(config), config, 0.4)
        b = affine_boundary_family(graph, (1, 0, 0))
        at_zero = energy(graph, PotentialFamily.zeros(graph.n_nodes), b)
        stat = h1_statistic(config, 0.4, (1, 0, 0))
        assert stat <= at_zero.total / config.box_volume() + 1e-12

    def test_zero_direction_rejected(self):
        config = SphereConfig([[0, 0, 0]], [1.0], 2.0)
        with pytest.raises(ValueError):
            h1_statistic(config, 0.3, (0, 0, 0))

    def test_quadratic_form_parallelogram_identity(self, rng):
        config = SphereConfig(rng.uniform(-2.5, 2.5, size=(40, 3)),
                              np.full(40, 0.7), 4.0)
        xi = rng.normal(size=3)
        eta = rng.normal(size=3)
        h = {key: h1_statistic(config, 0.5, v) for key, v in
             (("x", xi), ("e", eta), ("p", xi + eta), ("m", xi - eta))}
        lhs = h["p"] + h["m"]
        rhs = 2 * h["x"] + 2 * h["e"]
        assert lhs == pytest.approx(rhs, rel=1e-8)


class TestH2Ratio:
    def test_single_edge_reference_value(self):
        graph = single_edge_graph(mu=2.0)
        b = BoundaryFamily([1.0], [0.0])
        assert h2_ratio(graph, b, 2.0) == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_scaling_invariance(self, rng):
        graph = random_test_graph(rng)
        b = BoundaryFamily(rng.normal(size=graph.n_edges),
                           rng.normal(size=graph.n_edges))
        base = h2_ratio(graph, b, 3.5)
        for t in (0.1, -2.0, 37.0):
            scaled = BoundaryFamily(t * b.ab, t * b.ba)
            assert h2_ratio(graph, scaled, 3.5) == pytest.approx(
                base, rel=1e-12)

    def test_symmetric_family_zero(self, rng):
        graph = random_test_graph(rng)
        vals = rng.normal(size=graph.n_edges)
        while not np.any(vals):
            vals = rng.normal(size=graph.n_edges)
        b = BoundaryFamily(vals, vals.copy())
        assert h2_ratio(graph, b, 4.0) == 0.0

    def test_zero_family_rejected(self, rng):
        graph = random_test_graph(rng)
        with pytest.raises(ValueError):
            h2_ratio(graph, BoundaryFamily.zeros(graph.n_edges), 4.0)


class TestH2Statistic:
    def test_single_edge_exact_value(self):
        graph = single_edge_graph(mu=2.0)
        est = h2_statistic(graph, H2Options(s=2.0, n_starts=4))
        assert est.exact == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert est.value == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert est.ascent_value == pytest.approx(4.0 / 9.0, rel=1e-10)

    def test_ascent_matches_eigensolve_oracle(self, rng):
        for _ in range(5):
            graph = random_test_graph(rng, n_nodes_max=10, n_edges_max=15)
            est = h2_statistic(graph, H2Options(s=2.0, n_starts=8, seed=1))
            oracle = eigensolve_oracle(graph)
            assert est.ascent_value == pytest.approx(oracle, rel=1e-6)
            assert est.exact == pytest.approx(oracle, rel=1e-9)

    def test_lower_bounds_any_supplied_family(self, rng):
        graph = random_test_graph(rng, n_nodes_max=8, n_edges_max=12)
        opts = H2Options(s=4.0, n_starts=8, seed=2)
        est = h2_statistic(graph, opts)
        for _ in range(20):
            b = BoundaryFamily(rng.normal(size=graph.n_edges),
                               rng.normal(size=graph.n_edges))
            assert est.value >= h2_ratio(graph, b, 4.0) - 1e-9

    def test_canonical_families_lower_bound(self, rng):
        graph = random_test_graph(rng, n_nodes_max=10, n_edges_max=14,
                                  connected=True)
        opts = H2Options(s=4.0, n_starts=4, seed=3)
        est = h2_statistic(graph, opts)
        for axis in range(3):
            xi = np.zeros(3)
            xi[axis] = 1.0
            fam = affine_boundary_family(graph, xi)
            if np.any(fam.ab != fam.ba):
                assert est.value >= h2_ratio(graph, fam, 4.0) - 1e-9

    def test_monotone_under_weight_scaling(self):
        base = make_graph([1.0, 1.0, 2.0],
                          [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                          [(0, 1, 0.1), (1, 2, 0.3)])
        # scale all weights up by shrinking every gap (mu = |ln d| grows)
        heavier = make_graph([1.0, 1.0, 2.0],
                             [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                             [(0, 1, 0.01), (1, 2, 0.03)])
        lo = h2_statistic(base, H2Options(s=2.0, n_starts=6, seed=4))
        hi = h2_statistic(heavier, H2Options(s=2.0, n_starts=6, seed=4))
        assert hi.value >= lo.value

    def test_no_edges_rejected(self):
        graph = make_graph([1.0], [(0, 0, 0)], [])
        with pytest.raises(ValueError):
            h2_statistic(graph, H2Options(s=4.0))

    def test_s_below_two_rejected(self):
        with pytest.raises(ValueError):
            H2Options(s=1.5)


class TestLogMoment:
    def test_edgeless_zero(self):
        graph = make_graph([1.0, 1.0], [(0, 0, 0), (3, 0, 0)], [])
        assert log_moment_statistic(graph, 2.0) == 0.0

    def test_single_edge_reference(self):
        graph = make_graph([1.0, 1.0], [(0, 0, 0), (1, 0, 0)],
                           [(0, 1, math.exp(-3.0))], N=1.0)
        assert log_moment_statistic(graph, 2.0) == pytest.approx(9.0 / 8.0,
                                                                 rel=1e-12)

    def test_lattice_uniform_gap_count(self):
        config = generate_lattice_jitter(seed=0, N=2, spacing=1, radius=0.3,
                                         jitter=0)
        graph = build_graph(components(config), config, 0.5)
        # 4^3 lattice: 3 * 16 axial bonds per direction = 144 edges, gap 0.4
        assert graph.n_edges == 144
        expected = 144 * abs(math.log(0.4)) ** 2 / 64.0
        assert log_moment_statistic(graph, 2.0) == pytest.approx(expected,
                                                                 rel=1e-12)

    def test_monotone_in_k_for_small_gaps(self):
        graph = make_graph([1.0] * 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
                           [(0, 1, 0.05), (1, 2, 0.2)])   # gaps < 1/e
        values = [log_moment_statistic(graph, k) for k in (1.0, 1.5, 2.0, 3.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_hoelder_bound_on_zero_potential_gap_term(self, rng):
        # gap term at u = 0 is 2 sum mu beta^2 <= 2 (sum mu^k)^(1/k)
        #                                          (sum |beta|^s)^(2/s)
        for _ in range(20):
            graph = random_test_graph(rng)
            b = BoundaryFamily(rng.normal(size=graph.n_edges),
                               rng.normal(size=graph.n_edges))
            u0 = PotentialFamily.zeros(graph.n_nodes)
            gap = energy(graph, u0, b).gap
            s = 4.0
            k = s / (s - 2.0)
            mu = np.array([e.mu for e in graph.edges])
            beta = b.antisymmetric_part()
            bound = 2.0 * (np.sum(mu ** k)) ** (1 / k) \
                * (np.sum(np.abs(beta) ** s)) ** (2 / s)
            assert gap <= bound * (1 + 1e-12)

    def test_k_below_one_rejected(self):
        graph = single_edge_graph()
        with pytest.raises(ValueError):
            log_moment_statistic(graph, 0.5)


class TestDensity:
    def test_empty_config(self):
        config = SphereConfig(np.empty((0, 3)), np.empty(0), 2.0)
        assert density_estimate(config) == 0.0

    def test_two_unit_balls_in_q2(self):
        config = SphereConfig([[0, 0, 0], [0, 0, 2.5]], [1.0, 1.0], 2.0)
        expected = 2 * (4 * math.pi / 3) / 64
        assert density_estimate(config) == pytest.approx(expected, rel=1e-12)

    def test_lattice_matches_cell_volume(self):
        config = generate_lattice_jitter(seed=0, N=8, spacing=1, radius=0.3,
                                         jitter=0)
        expected = (4.0 / 3.0) * math.pi * 0.3 ** 3
        assert density_estimate(config) == pytest.approx(expected, rel=1e-12)


class TestScan:
    def test_density_series_flat_on_lattice(self):
        series = scan_limsup(
            {"model": "lattice", "spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            0.5, [3, 4, 5], 2, "density")
        expected = (4.0 / 3.0) * math.pi * 0.027
        for mean in series.means:
            assert mean == pytest.approx(expected, rel=1e-12)
        assert series.plateau_ok
        assert series.plateau_estimate == pytest.approx(expected, rel=1e-12)

    def test_single_seed_zero_stderr(self):
        series = scan_limsup(
            {"model": "lattice", "spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            0.5, [3, 4, 5], 1, "density")
        assert series.stderrs == (0.0, 0.0, 0.0)

    def test_cell_errors_isolated(self):
        # h2 on an edgeless lattice fails per cell but the scan completes.
        series = scan_limsup(
            {"model": "lattice", "spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            0.05, [3, 4, 5], 1, "h2", {"s": 4.0})
        assert len(series.errors) == 3
        assert all(math.isnan(v) for row in series.values for v in row)

    def test_seed_derivation_stable(self):
        a = derive_cell_seed(42, 10.0, 3)
        b = derive_cell_seed(42, 10.0, 3)
        c = derive_cell_seed(42, 20.0, 3)
        assert a == b != c
        # regenerating the grid with extra N values keeps old cells intact
        series1 = scan_limsup(
            {"model": "lattice", "spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            0.5, [3, 4, 5], 2, "density", base_seed=9)
        series2 = scan_limsup(
            {"model": "lattice", "spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            0.5, [3, 4, 5, 6], 2, "density", base_seed=9)
        assert series1.seeds == series2.seeds[:3]

    def test_invalid_grid_rejected(self):
        model = {"model": "lattice", "spacing": 1.0, "radius": 0.3,
                 "jitter": 0.0}
        with pytest.raises(ValueError):
            scan_limsup(model, 0.5, [3, 4], 1, "density")
        with pytest.raises(ValueError):
            scan_limsup(model, 0.5, [3, 5, 4], 1, "density")
        with pytest.raises(ValueError):
            scan_limsup(model, 0.5, [3, 4, 5], 0, "density")

    def test_h1_series_on_chains(self):
        series = scan_limsup(
            {"model": "chains", "radius": 1.0, "chain_len_max": 4,
             "gap_range": (0.05, 0.15), "chain_density": 0.003},
            0.2, [6, 8, 10], 2, "h1", {"xi": (1.0, 0.0, 0.0)})
        assert not series.errors
        assert all(v >= 0.0 for row in series.values for v in row)


class TestPlateau:
    def test_nan_in_upper_half_voids_plateau(self):
        estimate, ok = _plateau([1.0, 1.0, 1.0, math.nan, 1.1])
        assert math.isnan(estimate) and ok is False

    def test_nan_in_lower_half_ignored(self):
        assert _plateau([math.nan, 1.0, 1.0, 1.1]) == (1.1, True)

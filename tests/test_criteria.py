"""Criterion statistics: affine energy, family-uniform ratio, moments, scans."""

import math

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stiffnet.criteria as criteria
from conftest import (
    ScatterSolveMinimizer,
    antisymmetric_family,
    count_calls,
    count_cg_runs,
    count_h2_products,
    edge_rows,
    eigensolve_oracle,
    evaluate_task,
    fresh_ratio,
    h2_ratio,
    make_graph,
    random_test_graph,
    record_ascents,
    scatter_solve_operator,
    single_edge_graph,
)
from stiffnet.criteria import (
    TASKS,
    H2Options,
    _h2_operator,
    _plateau,
    derive_cell_seed,
    h2_exact_s2,
    h2_statistic,
    log_moment_statistic,
    scan_limsup,
    task_evaluator,
)
from stiffnet.energy import (
    BoundaryFamily,
    SolverError,
    SPDSolver,
    affine_boundary_family,
    energy,
)
from stiffnet.geometry import (
    SchemaError,
    SphereConfig,
    cluster_moment_statistic,
    components,
    generate_chain_forest,
    generate_lattice_jitter,
)
from stiffnet.multigraph import build_graph


class TestH1Statistic:
    def test_edgeless_configuration_zero(self):
        config = SphereConfig([[0, 0, 0], [3, 0, 0]], [1.0, 1.0], 4.0)
        assert evaluate_task("h1", config, 0.3, xi=(1, 0, 0)) == 0.0

    def test_single_edge_matches_two_variable_oracle(self):
        # gap exp(-2) so mu = 2; centroids differ by 2 + d along x.
        # Two-variable calculus with equal node volumes V gives the minimum
        # 2 mu beta^2 V / (4 mu + V) (stationarity forces u2 = -u1).
        d = math.exp(-2.0)
        config = SphereConfig([[0, 0, 0], [2 + d, 0, 0]], [1.0, 1.0], 4.0)
        graph = build_graph(components(config), config, 0.5)
        assert graph.n_edges == 1
        assert edge_rows(graph)[0].mu == pytest.approx(2.0)
        beta = -(2 + d)     # xi . (x_I - x_J) for xi = e1
        V = 4.0 * math.pi / 3.0
        expected = 2 * 2.0 * beta ** 2 * V / (4 * 2.0 + V) / config.box_volume()
        assert evaluate_task("h1", config, 0.5, xi=(1, 0, 0)) == \
            pytest.approx(expected, rel=1e-10)

    def test_upper_bounded_by_zero_potential_energy(self, rng):
        config = SphereConfig(rng.uniform(-2.5, 2.5, size=(30, 3)),
                              np.full(30, 0.7), 4.0)
        graph = build_graph(components(config), config, 0.4)
        b = affine_boundary_family(graph, (1, 0, 0))
        at_zero = energy(graph, np.zeros(graph.n_nodes), b)
        stat = evaluate_task("h1", config, 0.4, xi=(1, 0, 0))
        assert stat <= at_zero.total / config.box_volume() + 1e-12

    def test_zero_direction_rejected(self):
        config = SphereConfig([[0, 0, 0]], [1.0], 2.0)
        with pytest.raises(ValueError):
            evaluate_task("h1", config, 0.3, xi=(0, 0, 0))

    def test_quadratic_form_parallelogram_identity(self, rng):
        config = SphereConfig(rng.uniform(-2.5, 2.5, size=(40, 3)),
                              np.full(40, 0.7), 4.0)
        xi = rng.normal(size=3)
        eta = rng.normal(size=3)
        h = {key: evaluate_task("h1", config, 0.5, xi=v) for key, v in
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
        assert est.value == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert est.per_start == ()

    def test_value_matches_eigensolve_oracle(self, rng):
        for _ in range(5):
            graph = random_test_graph(rng, n_nodes_max=10, n_edges_max=15)
            est = h2_statistic(graph, H2Options(s=2.0, n_starts=8, seed=1))
            assert est.value == pytest.approx(eigensolve_oracle(graph),
                                              rel=1e-9)

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


@st.composite
def weighted_multigraphs(draw):
    """Random volumes, at least one parallel edge and one isolated node."""
    n = draw(st.integers(3, 14))
    node = st.integers(0, n - 2)        # node n - 1 stays isolated
    edges = draw(st.lists(
        st.tuples(node, node, st.floats(0.01, 0.9)).filter(
            lambda e: e[0] != e[1]), min_size=1, max_size=25))
    a, b, d = edges[draw(st.integers(0, len(edges) - 1))]
    edges.append((b, a, d / 3.0))
    volumes = draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 4.0)))
    positions = draw(hnp.arrays(np.float64, (n, 3),
                                elements=st.floats(-3.0, 3.0)))
    return make_graph(volumes, positions, edges, N=2.0)


@pytest.fixture(scope="module")
def chain_forest_graph():
    config = generate_chain_forest(seed=2, N=22, radius=1.0, chain_len_max=8,
                                   gap_range=(0.01, 0.1))
    graph = build_graph(components(config), config, 0.2)
    assert graph.n_nodes >= 500
    return graph


class TestPotentialOperator:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(graph=weighted_multigraphs(), data=st.data())
    def test_minimum_matches_scatter_solve(self, graph, data):
        Q = _h2_operator(graph)
        oracle = ScatterSolveMinimizer(graph)
        assert scipy.sparse.issparse(Q)
        beta = data.draw(hnp.arrays(np.float64, graph.n_edges,
                                    elements=st.floats(-5.0, 5.0)))
        q_beta = Q @ beta
        num = float(beta @ q_beta)
        q_ref, num_ref = oracle.minimum(beta)
        scale = max(float(np.abs(2.0 * graph.mu * beta).max()), 1e-300)
        np.testing.assert_allclose(q_beta, q_ref, rtol=1e-12,
                                   atol=1e-12 * scale)
        assert num == pytest.approx(num_ref, rel=1e-12, abs=1e-300)

    def test_chain_forest_h2_makes_no_solve(self, chain_forest_graph,
                                            monkeypatch):
        opts = H2Options(s=4.0, n_starts=3, max_ascent_iters=40, tol=1e-6)
        solvers = count_calls(monkeypatch, SPDSolver, "__init__")
        solves = count_calls(monkeypatch, SPDSolver, "solve")
        cgs = count_cg_runs(monkeypatch)
        est = h2_statistic(chain_forest_graph, opts)
        h2_exact_s2(chain_forest_graph)
        assert solvers == [] and solves == [] and cgs == []
        monkeypatch.setattr(criteria, "_h2_operator", scatter_solve_operator)
        old = h2_statistic(chain_forest_graph, opts)
        assert len(est.per_start) == len(old.per_start)
        for new_value, old_value in zip(est.per_start, old.per_start):
            assert new_value == pytest.approx(old_value, rel=1e-12)
        assert est.value == pytest.approx(old.value, rel=1e-12)

    @pytest.mark.parametrize("s", [2.0, 4.0])
    def test_non_positive_volume_raises(self, s):
        # The isolated node makes K indefinite: the energy has no minimum.
        graph = make_graph([1.0, 2.0, -0.5],
                           [(0, 0, 0), (1, 0, 0), (5, 0, 0)],
                           [(0, 1, 0.1), (0, 1, 0.2)])
        with pytest.raises(SchemaError, match="finite positive volume"):
            h2_statistic(graph, H2Options(s=s))

    def test_corrupted_block_inverse_is_rejected(self, monkeypatch):
        graph = random_test_graph(np.random.default_rng(8), n_nodes_max=12,
                                  n_edges_max=20)
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda P: inv(P) + 1e-6)
        with pytest.raises(SolverError, match=r"\|P Q - I\|") as info:
            h2_statistic(graph, H2Options(s=2.0))
        assert info.value.residual > 1e-9

    def test_duplicate_starts_ascend_once(self, monkeypatch):
        # Along x the affine and midpoint starts of one unit edge are both
        # -1; along y and z both are zero.
        graph = single_edge_graph(mu=2.0)
        ascents = count_calls(monkeypatch, criteria, "_ascend_from")
        est = h2_statistic(graph, H2Options(s=4.0, n_starts=4, seed=5))
        assert len(ascents) == 4 + 1 + 1
        assert len(est.per_start) == 4 + 2
        assert est.per_start[4] == est.per_start[5]

    def test_chain_forest_ascent_values_are_attained(self, chain_forest_graph,
                                                     monkeypatch):
        # h2_ratio sums the energy of minimize_energy's potentials, so this
        # checks the beta^T Q beta numerator independently.
        ascents = record_ascents(monkeypatch)
        opts = H2Options(s=4.0, n_starts=3, max_ascent_iters=40, tol=1e-6)
        h2_statistic(chain_forest_graph, opts)
        results = [result for _, _, result in ascents]
        assert len(results) >= 3 and None not in results
        for value, beta in results:
            family = antisymmetric_family(beta)
            assert value == pytest.approx(
                h2_ratio(chain_forest_graph, family, opts.s), rel=1e-10)

    def test_chain_forest_h2_values_are_pinned(self, chain_forest_graph,
                                               monkeypatch):
        # Recorded when every backtracking trial made its own Q product;
        # each value is one fresh product at the returned beta.
        ascents = record_ascents(monkeypatch)
        opts = H2Options(s=4.0, n_starts=3, max_ascent_iters=40, tol=1e-6)
        est = h2_statistic(chain_forest_graph, opts)
        assert est.value == pytest.approx(0.5402317196029478, rel=1e-12)
        assert est.per_start == pytest.approx(
            [0.5287374176993355, 0.5270312606696376, 0.5277158400702149,
             0.5402317196029478, 0.5402317196029478, 0.5402317194639792,
             0.5402317194639792, 0.5402317174213468, 0.5402317174213468],
            rel=1e-12)
        for Q, volume, (value, beta) in ascents:
            assert value == fresh_ratio(Q, volume, beta, opts.s)

    def test_chain_forest_h2_ascent_product_count(self, chain_forest_graph,
                                                  monkeypatch):
        # Trials are scored from Q's linearity: one product for the start,
        # one per step and one fresh at the end.
        products = count_h2_products(monkeypatch)
        ascents = count_calls(monkeypatch, criteria, "_ascend_from")
        opts = H2Options(s=4.0, n_starts=3, max_ascent_iters=40, tol=1e-6)
        h2_statistic(chain_forest_graph, opts)
        assert ascents
        assert len(products) <= len(ascents) * (opts.max_ascent_iters + 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graph=weighted_multigraphs(), s=st.sampled_from([2.0, 3.5, 4.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_ascent_values_are_attained(self, graph, s, seed):
        opts = H2Options(s=s, max_ascent_iters=60)
        Q = _h2_operator(graph)
        beta0 = np.random.default_rng(seed).normal(size=graph.n_edges)
        value, beta = criteria._ascend_from(Q, graph.box_volume(), beta0,
                                            opts)
        family = antisymmetric_family(beta)
        assert value == pytest.approx(h2_ratio(graph, family, s), rel=1e-10)

    @pytest.mark.parametrize("s", [2.0, 3.5, 4.0])
    def test_ratio_gradient_matches_finite_differences(self, s):
        rng = np.random.default_rng(21)
        graph = random_test_graph(rng, n_nodes_max=12, n_edges_max=20)
        Q = _h2_operator(graph)
        denom = graph.box_volume() ** (1.0 - 2.0 / s) * 2.0 ** (4.0 / s - 2.0)

        def unit(beta):
            return beta / np.sum(np.abs(beta) ** s) ** (1.0 / s)

        def ratio(beta):
            beta = unit(beta)
            return criteria._ratio_pieces(beta, Q @ beta, s, denom)[1]

        beta = unit(rng.normal(size=graph.n_edges))
        _, _, grad = criteria._ratio_pieces(beta, Q @ beta, s, denom)
        h = 1e-6
        central = np.array([(ratio(beta + h * e) - ratio(beta - h * e))
                            / (2 * h) for e in np.eye(graph.n_edges)])
        np.testing.assert_allclose(grad, central, rtol=1e-6,
                                   atol=1e-6 * float(np.abs(grad).max()))

    def test_chain_forest_s2_value_is_the_dense_eigenvalue(
            self, chain_forest_graph):
        # Q column by column from the scatter-and-solve oracle, whose
        # columns Q e_i = 2 mu r share only LaplacianAssembly with the package.
        oracle = ScatterSolveMinimizer(chain_forest_graph)
        Q = np.column_stack([oracle.minimum(e)[0]
                             for e in np.eye(chain_forest_graph.n_edges)])
        dense = float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1])
        est = h2_statistic(chain_forest_graph, H2Options(s=2.0))
        assert est.value == pytest.approx(dense, rel=1e-10)

    def test_exact_value_on_both_solver_paths(self, monkeypatch):
        graph = random_test_graph(np.random.default_rng(8), n_nodes_max=12,
                                  n_edges_max=20)
        direct = h2_exact_s2(graph)
        assert direct == pytest.approx(eigensolve_oracle(graph), rel=1e-9)
        monkeypatch.setattr(criteria, "DENSE_CUTOFF", 1)
        cgs = count_cg_runs(monkeypatch)
        assert h2_exact_s2(graph) == pytest.approx(direct, rel=1e-8)
        assert cgs


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
            u0 = np.zeros(graph.n_nodes)
            gap = energy(graph, u0, b).gap
            s = 4.0
            k = s / (s - 2.0)
            mu = np.array([e.mu for e in edge_rows(graph)])
            beta = b.antisymmetric_part()
            bound = 2.0 * (np.sum(mu ** k)) ** (1 / k) \
                * (np.sum(np.abs(beta) ** s)) ** (2 / s)
            assert gap <= bound * (1 + 1e-12)

    def test_k_below_one_rejected(self):
        graph = single_edge_graph()
        with pytest.raises(ValueError):
            log_moment_statistic(graph, 0.5)

    def test_infinite_k_rejected(self):
        with pytest.raises(ValueError, match="a finite number >= 1"):
            log_moment_statistic(single_edge_graph(), math.inf)


class TestDensity:
    def test_empty_config(self):
        config = SphereConfig(np.empty((0, 3)), np.empty(0), 2.0)
        assert evaluate_task("density", config) == 0.0

    def test_two_unit_balls_in_q2(self):
        config = SphereConfig([[-0.9, -0.9, -0.9], [0.9, 0.9, 0.9]],
                              [1.0, 1.0], 2.0)
        expected = 2 * (4 * math.pi / 3) / 64
        assert evaluate_task("density", config) == pytest.approx(
            expected, rel=1e-12)

    def test_ball_crossing_the_box_is_not_counted(self):
        config = SphereConfig([[0, 0, 0], [0, 0, 2.5]], [1.0, 1.0], 2.0)
        expected = (4 * math.pi / 3) / 64
        assert evaluate_task("density", config) == pytest.approx(
            expected, rel=1e-12)

    def test_lattice_matches_cell_volume(self):
        config = generate_lattice_jitter(seed=0, N=8, spacing=1, radius=0.3,
                                         jitter=0)
        expected = (4.0 / 3.0) * math.pi * 0.3 ** 3
        assert evaluate_task("density", config) == pytest.approx(
            expected, rel=1e-12)


class TestTaskTable:
    class RecordingParams(dict):
        """Task parameters that record every key looked up."""

        def __init__(self):
            super().__init__()
            self.read = set()

        def get(self, key, default=None):
            self.read.add(key)
            return super().get(key, default)

        def __getitem__(self, key):
            self.read.add(key)
            return super().__getitem__(key)

        def __contains__(self, key):
            self.read.add(key)
            return super().__contains__(key)

    @pytest.mark.parametrize("task", TASKS)
    def test_evaluator_reads_exactly_the_listed_keys(self, task):
        params = self.RecordingParams()
        task_evaluator(task, params, 0)
        assert params.read == set(TASKS[task].params)

    def test_keller_reads_exactly_its_listed_keys(self):
        keller = self.RecordingParams()
        task_evaluator("keller", {"keller": keller}, 0)
        assert keller.read == set(criteria._KELLER)

    @staticmethod
    def refuses(call):
        try:
            call()
        except ValueError:
            return True
        return False

    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0, math.inf, math.nan])
    def test_logmoment_k_rule_is_the_functions(self, k):
        graph = single_edge_graph()
        assert (self.refuses(lambda: task_evaluator("logmoment", {"k": k}, 0))
                == self.refuses(lambda: log_moment_statistic(graph, k)))

    @pytest.mark.parametrize("key,value", [
        ("p", 0.0), ("p", 0.5), ("p", math.inf), ("p", math.nan),
        ("n_samples", 0), ("n_samples", 5), ("quantity", "count"),
        ("quantity", "volume")])
    def test_clustermoment_rules_are_the_functions(self, key, value):
        config = generate_lattice_jitter(0, 2, 1.0, 0.4, 0.05)
        graph = build_graph(components(config), config, 0.5)
        args = {"p": 2.0, "n_samples": 10, "quantity": "diam", key: value}
        assert (self.refuses(lambda: task_evaluator("clustermoment",
                                                    {key: value}, 0))
                == self.refuses(lambda: cluster_moment_statistic(
                    config, graph, seed=0, **args)))


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

    @pytest.mark.parametrize("changes, delta, message", [
        ({"foo": 1}, 0.5, r"lattice model_params: unknown \['foo'\]"),
        ({"model": "cubic"}, 0.5, "unknown model 'cubic'"),
        ({"contact_tol": -1.0}, 0.5, "contact_tol must be positive"),
        ({}, 1.5, r"delta must lie in \(0, 1\)"),
        ({}, 0.0, r"delta must lie in \(0, 1\)"),
    ], ids=["unknown-key", "unknown-model", "negative-contact-tol",
            "delta-above-one", "zero-delta"])
    def test_bad_input_rejected_before_any_cell(self, monkeypatch, changes,
                                                delta, message):
        cells = count_calls(monkeypatch, criteria, "ScanCell")
        model = {"model": "lattice", "spacing": 1.0, "radius": 0.3,
                 "jitter": 0.0, **changes}
        with pytest.raises(ValueError, match=message):
            scan_limsup(model, delta, [3, 4, 5], 1, "density")
        assert cells == []

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

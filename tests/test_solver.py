"""The shared SPD solve layer: conjugate gradients and certification."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import stiffnet.criteria as criteria
import stiffnet.multigraph
from conftest import (
    ENERGY,
    antisymmetric_family,
    cap_cg_iterations,
    count_calls,
    count_cg_runs,
    count_h2_products,
    fresh_ratio,
    h2_ratio,
    make_graph,
    record_ascents,
)
from stiffnet.criteria import (
    DENSE_CUTOFF,
    H2Options,
    ScanCell,
    h2_exact_s2,
    h2_statistic,
    task_evaluator,
)
from stiffnet.effective import network_effective_tensor
from stiffnet.energy import (
    LaplacianAssembly,
    SolverError,
    SPDSolver,
    affine_boundary_family,
    minimize_energy,
)
from stiffnet.geometry import (
    SchemaError,
    components,
    generate_chain_forest,
    generate_lattice_jitter,
)
from stiffnet.multigraph import InclusionGraph, build_graph


@pytest.fixture
def tight_tol(monkeypatch):
    """Solve to a relative residual of 1e-12 instead of ``SOLVE_TOL``."""
    monkeypatch.setattr(ENERGY, "SOLVE_TOL", 1e-12)


def jitter_lattice_graph(N):
    config = generate_lattice_jitter(seed=0, N=N, spacing=1, radius=0.4,
                                     jitter=0.05)
    return build_graph(components(config), config, 0.5)


@pytest.fixture(scope="module")
def lattice_512():
    graph = jitter_lattice_graph(4)
    assert graph.n_nodes == 512
    return graph


class TestSPDSolver:
    @pytest.mark.parametrize("n", [DENSE_CUTOFF - 1, DENSE_CUTOFF,
                                   "block-diagonal"])
    def test_both_paths_match_dense_solve(self, n, tight_tol):
        if n == "block-diagonal":
            rng = np.random.default_rng(3)
            K = self.block_diagonal(
                rng, [DENSE_CUTOFF - 1, 1, 57, DENSE_CUTOFF - 1, 120], 1.0)
        else:
            rng = np.random.default_rng(n)
            # Diagonally dominant tridiagonal matrix: SPD, well conditioned.
            off = -rng.uniform(0.1, 1.0, size=n - 1)
            diag = 2.5 + rng.uniform(0.0, 1.0, size=n)
            K = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
        solver = SPDSolver(K)
        for _ in range(3):
            rhs = rng.normal(size=K.shape[0])
            x = solver.solve(rhs)
            np.testing.assert_allclose(x, np.linalg.solve(K.toarray(), rhs),
                                       rtol=1e-9, atol=1e-12)

    def test_zero_rhs_returns_zeros_without_iterating(self, monkeypatch):
        K = scipy.sparse.identity(DENSE_CUTOFF, format="csr")
        calls = count_cg_runs(monkeypatch)
        x = SPDSolver(K).solve(np.zeros(DENSE_CUTOFF))
        assert np.array_equal(x, np.zeros(DENSE_CUTOFF))
        assert calls == []

    def test_iteration_cap_raises_with_residual(self, lattice_512,
                                                monkeypatch):
        K = LaplacianAssembly(lattice_512).system_matrix
        rhs = np.ones(lattice_512.n_nodes)
        cap_cg_iterations(monkeypatch, 1)
        with pytest.raises(SolverError) as info:
            SPDSolver(K).solve(rhs)
        assert math.isfinite(info.value.residual)
        assert info.value.residual > 1e-9

    @pytest.mark.parametrize("tiny", [1e-200, 5.75e-264])
    @pytest.mark.parametrize("cutoff", [DENSE_CUTOFF, 1], ids=["direct", "cg"])
    def test_tiny_rhs_gives_the_scaled_solution(self, cutoff, tiny,
                                                monkeypatch):
        # Below ~1e-154 the squares in a column's 2-norm underflow to 0;
        # such a column is still nonzero and must be solved.  The cutoff
        # picks h2's path for Q: P's inverted blocks, or the CG operator.
        monkeypatch.setattr(criteria, "DENSE_CUTOFF", cutoff)
        graph = make_graph([1.0, 1.0, 1.0],
                           [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (3.0, 0.0, 0.0)],
                           [(0, 1, 0.5), (0, 1, 1.0 / 6.0)])
        solver = SPDSolver(LaplacianAssembly(graph).system_matrix)
        rhs = np.array([-1.0, 1.0, 0.0])
        x = solver.solve(tiny * rhs)
        assert np.all(x[:2] != 0.0)
        np.testing.assert_allclose(x, tiny * solver.solve(rhs), rtol=1e-12,
                                   atol=0.0)
        Q = criteria._h2_operator(graph)
        assert isinstance(Q, scipy.sparse.csr_matrix) == (cutoff > 1)
        beta = np.array([1.0, -0.5])
        y = Q @ (tiny * beta)
        assert np.all(y != 0.0)
        np.testing.assert_allclose(y, tiny * (Q @ beta), rtol=1e-12,
                                   atol=0.0)

    @staticmethod
    def block_diagonal(rng, sizes, shift):
        """Random symmetric blocks ``B B^T + shift I`` on the diagonal."""
        blocks = []
        for m in sizes:
            B = rng.normal(size=(m, m))
            blocks.append(B @ B.T + shift * m * np.eye(m))
        return scipy.sparse.block_diag(blocks, format="csr")

    def test_one_block_at_the_cutoff_takes_cg(self, monkeypatch,
                                              tight_tol):
        rng = np.random.default_rng(5)
        K = self.block_diagonal(rng, [DENSE_CUTOFF, 3, 10], 1.0)
        calls = count_cg_runs(monkeypatch)
        solver = SPDSolver(K)
        rhs = rng.normal(size=K.shape[0])
        np.testing.assert_allclose(solver.solve(rhs),
                                   np.linalg.solve(K.toarray(), rhs),
                                   rtol=1e-9, atol=1e-12)
        assert calls == ["_jacobi_cg"]

    def test_chain_forest_h2_makes_no_cg_call(self, monkeypatch):
        config = generate_chain_forest(seed=3, N=20, radius=1,
                                       chain_len_max=8, gap_range=(0.01, 0.1))
        graph = build_graph(components(config), config, 0.2)
        assert graph.n_nodes > DENSE_CUTOFF
        calls = count_cg_runs(monkeypatch)
        estimate = h2_statistic(graph, H2Options(s=4.0, n_starts=2))
        assert math.isfinite(estimate.value) and estimate.value > 0.0
        assert calls == []


class TestManyRightHandSides:
    # The ids name the h2 path a graph with these cluster sizes takes;
    # SPDSolver runs CG on both matrices.
    @pytest.mark.parametrize("sizes", [[DENSE_CUTOFF - 1, 40, 7],
                                       [DENSE_CUTOFF, 3]],
                             ids=["direct", "cg"])
    def test_columns_equal_single_solves(self, sizes, monkeypatch,
                                         tight_tol):
        rng = np.random.default_rng(len(sizes))
        K = TestSPDSolver.block_diagonal(rng, sizes, 1.0)
        solver = SPDSolver(K)
        rhs = rng.normal(size=(K.shape[0], 4))
        rhs[:, 2] = 0.0
        singles = [solver.solve(np.ascontiguousarray(col)) for col in rhs.T]
        cgs = count_cg_runs(monkeypatch)
        x = solver.solve(rhs)
        assert x.shape == rhs.shape
        for j, single in enumerate(singles):
            assert np.array_equal(x[:, j], single)
        assert np.array_equal(x[:, 2], np.zeros(K.shape[0]))
        assert len(cgs) == 3

    def test_all_zero_block_gives_zeros(self):
        K = scipy.sparse.identity(5, format="csr")
        x = SPDSolver(K).solve(np.zeros((5, 3)))
        assert np.array_equal(x, np.zeros((5, 3)))

    def test_failing_column_raises_with_residual(self, lattice_512,
                                                 monkeypatch):
        K = LaplacianAssembly(lattice_512).system_matrix
        rhs = np.zeros((lattice_512.n_nodes, 2))
        rhs[:, 1] = 1.0
        cap_cg_iterations(monkeypatch, 1)
        with pytest.raises(SolverError) as info:
            SPDSolver(K).solve(rhs)
        assert math.isfinite(info.value.residual)
        assert info.value.residual > 1e-9

    def test_large_block_h2_solves_once_per_step(self, lattice_512,
                                                 monkeypatch):
        products = count_h2_products(monkeypatch)
        solves = count_calls(monkeypatch, SPDSolver, "solve")
        h2_statistic(lattice_512, H2Options(s=4.0, n_starts=1,
                                            max_ascent_iters=3))
        assert len(products) > 1 and len(solves) == len(products)

    def test_large_block_exact_s2_builds_edge_blocks_once(self, lattice_512,
                                                          monkeypatch):
        # Lanczos stubbed by a fixed vector: only the set-up is counted.
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda Q, **kw: (
            None, np.ones((Q.shape[0], 1))))
        # A copy, so the graph's cluster partition is not yet computed.
        graph = dataclasses.replace(lattice_512)
        labels = count_calls(monkeypatch, stiffnet.multigraph,
                             "_connected_labels")
        checks = count_calls(monkeypatch, InclusionGraph, "check_volumes")
        assert math.isfinite(h2_exact_s2(graph))
        assert len(labels) == 1 and len(checks) == 1

    def test_large_block_ascent_values_are_attained(self, lattice_512,
                                                    monkeypatch):
        # h2_ratio sums the energy of minimize_energy's potentials; the
        # ascent reads beta^T Q beta from the operator's solves.
        ascents = record_ascents(monkeypatch)
        opts = H2Options(s=4.0, n_starts=2, max_ascent_iters=5)
        h2_statistic(lattice_512, opts)
        results = [result for _, _, result in ascents]
        assert len(results) >= 2 and None not in results
        for value, beta in results:
            family = antisymmetric_family(beta)
            assert value == pytest.approx(
                h2_ratio(lattice_512, family, opts.s), rel=1e-8)

    def test_large_block_h2_values_are_pinned(self, lattice_512,
                                              monkeypatch):
        # Recorded when every backtracking trial made its own solve; each
        # value is one fresh solve at the returned beta.
        ascents = record_ascents(monkeypatch)
        opts = H2Options(s=4.0, n_starts=2, max_ascent_iters=30, tol=1e-6)
        est = h2_statistic(lattice_512, opts)
        assert est.value == pytest.approx(10.062212095430706, rel=1e-9)
        assert est.per_start == pytest.approx(
            [10.03178611334461, 10.062212095430706, 9.877012797848748,
             9.877012797848746, 9.962759753251543, 9.962759753251532,
             9.968508459192515, 9.968508459192519], rel=1e-9)
        for Q, volume, (value, beta) in ascents:
            assert value == fresh_ratio(Q, volume, beta, opts.s)

    def test_large_block_h2_ascent_solve_count(self, lattice_512, monkeypatch):
        # Trials are scored from Q's linearity: one solve for the start,
        # one per step and one fresh at the end.
        cgs = count_cg_runs(monkeypatch)
        ascents = count_calls(monkeypatch, criteria, "_ascend_from")
        opts = H2Options(s=4.0, n_starts=2, max_ascent_iters=8)
        h2_statistic(lattice_512, opts)
        assert ascents
        assert len(cgs) <= len(ascents) * (opts.max_ascent_iters + 2)

    def test_large_block_s2_value_matches_the_direct_one(self, lattice_512,
                                                         monkeypatch):
        cgs = count_cg_runs(monkeypatch)
        lanczos = h2_statistic(lattice_512, H2Options(s=2.0)).value
        assert cgs
        monkeypatch.setattr(criteria, "DENSE_CUTOFF", lattice_512.n_nodes + 1)
        assert lanczos == pytest.approx(criteria.h2_exact_s2(lattice_512),
                                        rel=1e-8)


def recorded_systems(monkeypatch, run):
    """The (K, inv_diag, b, max_iter) of every CG run that ``run()`` makes."""
    systems = []
    loop = ENERGY._jacobi_cg

    def recording(K, inv_diag, b, max_iter):
        systems.append((K, inv_diag, b.copy(), max_iter))
        return loop(K, inv_diag, b, max_iter)

    with monkeypatch.context() as patch:
        patch.setattr(ENERGY, "_jacobi_cg", recording)
        run()
    return systems


def scipy_cg(K, b, max_iter):
    """scipy's Jacobi CG: the solution, its step count and its info."""
    steps = []
    x, info = scipy.sparse.linalg.cg(
        K, b, rtol=ENERGY.SOLVE_TOL, atol=0.0, maxiter=max_iter,
        M=scipy.sparse.diags(1.0 / K.diagonal()), callback=steps.append)
    return x, len(steps), info


class TestLoopAgainstScipy:
    """``_jacobi_cg`` is scipy's ``cg`` arithmetic: the same solution bit
    for bit, after the same number of steps, on every system it solves."""

    @staticmethod
    def run_case(case, graph):
        if case == "system":
            return lambda: minimize_energy(
                graph, affine_boundary_family(graph, (1.0, 0.5, 0.25)))
        if case == "clamped":
            return lambda: network_effective_tensor(graph, 0.5)
        if case == "h2-product":
            Q = criteria._h2_operator(graph)
            assert not scipy.sparse.issparse(Q)
            beta = np.random.default_rng(4).normal(size=graph.n_edges)
            return lambda: Q @ beta
        rng = np.random.default_rng(9)
        K = TestSPDSolver.block_diagonal(rng, [DENSE_CUTOFF, 7, 30, 2], 0.05)
        return lambda: SPDSolver(K).solve(rng.normal(size=(K.shape[0], 2)))

    @pytest.mark.parametrize("case", ["system", "clamped", "h2-product",
                                      "block-diagonal"])
    def test_solutions_and_steps_equal_scipy(self, case, lattice_512,
                                             monkeypatch):
        systems = recorded_systems(monkeypatch,
                                   self.run_case(case, lattice_512))
        assert systems
        for K, inv_diag, b, max_iter in systems:
            assert np.array_equal(inv_diag, 1.0 / K.diagonal())
            x, steps, converged = ENERGY._jacobi_cg(K, inv_diag, b, max_iter)
            x_ref, steps_ref, info = scipy_cg(K, b, max_iter)
            assert converged and info == 0
            assert 0 < steps == steps_ref < max_iter
            assert x.tobytes() == x_ref.tobytes()
            x, steps, converged = ENERGY._jacobi_cg(K, inv_diag, b, 1)
            x_ref, steps_ref, info = scipy_cg(K, b, 1)
            assert not converged and info == 1
            assert steps == steps_ref == 1
            assert x.tobytes() == x_ref.tobytes()


class TestCertifiedCallers:
    """Every solve of the package reports its residual when it fails."""

    @pytest.fixture(autouse=True)
    def one_cg_step(self, monkeypatch):
        cap_cg_iterations(monkeypatch, 1)

    def test_minimize_energy(self, lattice_512):
        b = affine_boundary_family(lattice_512, (1.0, 0.0, 0.0))
        with pytest.raises(SolverError) as info:
            minimize_energy(lattice_512, b)
        assert math.isfinite(info.value.residual)

    def test_h2_inner_solve(self, lattice_512):
        with pytest.raises(SolverError) as info:
            h2_statistic(lattice_512, H2Options(s=4.0, n_starts=1))
        assert math.isfinite(info.value.residual)

    def test_clamped_network_solve(self, lattice_512):
        with pytest.raises(SolverError) as info:
            network_effective_tensor(lattice_512, 0.5)
        assert math.isfinite(info.value.residual)


def h1_task(graph):
    """The h1 task of a scan evaluated on ``graph``."""
    cell = ScanCell("lattice", {}, graph.delta, graph.box_half_width, 0, 0)
    cell.graph = graph      # fills the cached stage ahead of its first use
    return task_evaluator("h1", {}, 0)(cell)


class TestVolumeCertificate:
    """K = D + 2 L is SPD because every volume is positive; each solving
    caller checks that before it assembles K, on the CG path too."""

    @pytest.mark.parametrize("volume", [0.0, -0.5])
    @pytest.mark.parametrize("caller", [
        lambda g: minimize_energy(g, affine_boundary_family(g, (1, 0, 0))),
        lambda g: h2_ratio(g, affine_boundary_family(g, (1, 0, 0)), 4.0),
        h1_task,
        lambda g: h2_statistic(g, H2Options(s=4.0, n_starts=1)),
    ], ids=["minimize_energy", "h2_ratio", "h1", "h2_statistic"])
    def test_non_positive_volume_raises(self, lattice_512, caller, volume):
        assert lattice_512.n_nodes >= DENSE_CUTOFF
        volumes = lattice_512.volumes.copy()
        volumes[100] = volume
        graph = dataclasses.replace(lattice_512, volumes=volumes)
        with pytest.raises(SchemaError, match="finite positive volume"):
            caller(graph)

"""The shared SPD solve layer: both paths, certification, reuse per graph."""

import importlib
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import stiffnet.criteria as criteria
from conftest import cap_cg_iterations, count_calls, make_graph
from stiffnet.criteria import H2Options, h2_statistic
from stiffnet.effective import network_effective_tensor
from stiffnet.energy import (
    DENSE_CUTOFF,
    LaplacianAssembly,
    SolverError,
    SPDSolver,
    affine_boundary_family,
    minimize_energy,
)
from stiffnet.geometry import (
    components,
    generate_chain_forest,
    generate_lattice_jitter,
)
from stiffnet.multigraph import build_graph

ENERGY = importlib.import_module("stiffnet.energy")


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
    @pytest.mark.parametrize("n", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
    def test_both_paths_match_dense_solve(self, n, tight_tol):
        rng = np.random.default_rng(n)
        # Diagonally dominant tridiagonal matrix: SPD, well conditioned.
        off = -rng.uniform(0.1, 1.0, size=n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, size=n)
        K = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
        solver = SPDSolver(K)
        for _ in range(3):
            rhs = rng.normal(size=n)
            x = solver.solve(rhs)
            np.testing.assert_allclose(x, np.linalg.solve(K.toarray(), rhs),
                                       rtol=1e-9, atol=1e-12)

    def test_zero_rhs_returns_zeros_without_iterating(self, monkeypatch):
        K = scipy.sparse.identity(DENSE_CUTOFF, format="csr")
        calls = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        x = SPDSolver(K).solve(np.zeros(DENSE_CUTOFF))
        assert np.array_equal(x, np.zeros(DENSE_CUTOFF))
        assert calls == []

    def test_indefinite_dense_matrix_raises_solver_error(self):
        K = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SolverError) as info:
            SPDSolver(K)
        assert math.isnan(info.value.residual)

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
        # such a column is still nonzero and must be solved.
        monkeypatch.setattr(ENERGY, "DENSE_CUTOFF", cutoff)
        graph = make_graph([1.0, 1.0, 1.0],
                           [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (3.0, 0.0, 0.0)],
                           [(0, 1, 0.5), (0, 1, 1.0 / 6.0)])
        solver = SPDSolver(LaplacianAssembly(graph).system_matrix)
        assert solver.direct == (cutoff == DENSE_CUTOFF)
        rhs = np.array([-1.0, 1.0, 0.0])
        x = solver.solve(tiny * rhs)
        assert np.all(x[:2] != 0.0)
        np.testing.assert_allclose(x, tiny * solver.solve(rhs), rtol=1e-12,
                                   atol=0.0)

    @staticmethod
    def block_diagonal(rng, sizes, shift):
        """Random symmetric blocks ``B B^T + shift I`` on the diagonal."""
        blocks = []
        for m in sizes:
            B = rng.normal(size=(m, m))
            blocks.append(B @ B.T + shift * m * np.eye(m))
        return scipy.sparse.block_diag(blocks, format="csr")

    def test_small_blocks_factor_directly(self, monkeypatch, tight_tol):
        rng = np.random.default_rng(3)
        sizes = [DENSE_CUTOFF - 1, 1, 57, DENSE_CUTOFF - 1, 120]
        assert sum(sizes) >= 2 * DENSE_CUTOFF
        K = self.block_diagonal(rng, sizes, 1.0)
        calls = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        solver = SPDSolver(K)
        for _ in range(3):
            rhs = rng.normal(size=K.shape[0])
            np.testing.assert_allclose(solver.solve(rhs),
                                       np.linalg.solve(K.toarray(), rhs),
                                       rtol=1e-9, atol=1e-12)
        assert calls == []

    def test_indefinite_small_blocks_raise_solver_error(self):
        rng = np.random.default_rng(4)
        sizes = [DENSE_CUTOFF - 1, 80, DENSE_CUTOFF - 1]
        # For square Gaussian B the spectrum of B B^T - m I spans about
        # [-m, 3m]: every block is indefinite.
        K = self.block_diagonal(rng, sizes, -1.0)
        with pytest.raises(SolverError) as info:
            SPDSolver(K)
        assert math.isnan(info.value.residual)

    def test_one_block_at_the_cutoff_takes_cg(self, monkeypatch,
                                              tight_tol):
        rng = np.random.default_rng(5)
        K = self.block_diagonal(rng, [DENSE_CUTOFF, 3, 10], 1.0)
        calls = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        solver = SPDSolver(K)
        rhs = rng.normal(size=K.shape[0])
        np.testing.assert_allclose(solver.solve(rhs),
                                   np.linalg.solve(K.toarray(), rhs),
                                   rtol=1e-9, atol=1e-12)
        assert calls == ["cg"]

    def test_chain_forest_h2_makes_no_cg_call(self, monkeypatch):
        config = generate_chain_forest(seed=3, N=20, radius=1,
                                       chain_len_max=8, gap_range=(0.01, 0.1))
        graph = build_graph(components(config), config, 0.2)
        assert graph.n_nodes > DENSE_CUTOFF
        calls = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        estimate = h2_statistic(graph, H2Options(s=4.0, n_starts=2))
        assert math.isfinite(estimate.value) and estimate.value > 0.0
        assert calls == []


class TestManyRightHandSides:
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
        cgs = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        x = solver.solve(rhs)
        assert x.shape == rhs.shape
        for j, single in enumerate(singles):
            assert np.array_equal(x[:, j], single)
        assert np.array_equal(x[:, 2], np.zeros(K.shape[0]))
        assert len(cgs) == (0 if solver.direct else 3)

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
        minima = count_calls(monkeypatch, criteria._CachedMinimizer, "minimum")
        solves = count_calls(monkeypatch, SPDSolver, "solve")
        h2_statistic(lattice_512, H2Options(s=4.0, n_starts=1,
                                            max_ascent_iters=3))
        assert len(minima) > 1 and len(solves) == len(minima)

    def test_large_block_s2_value_matches_the_direct_one(self, lattice_512,
                                                         monkeypatch):
        cgs = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        lanczos = h2_statistic(lattice_512, H2Options(s=2.0)).value
        assert cgs
        monkeypatch.setattr(ENERGY, "DENSE_CUTOFF", lattice_512.n_nodes + 1)
        assert lanczos == pytest.approx(criteria.h2_exact_s2(lattice_512),
                                        rel=1e-8)


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


class TestClampedSystemReuse:
    def test_one_factorization_per_graph(self, monkeypatch):
        graph = jitter_lattice_graph(2)
        assert graph.n_nodes < DENSE_CUTOFF
        calls = count_calls(monkeypatch, scipy.sparse.linalg, "splu")
        tensor = network_effective_tensor(graph, 0.5)
        assert calls == ["splu"]
        assert np.all(np.diag(tensor.matrix) > 0.0)

"""The shared SPD solve layer: both paths, certification, reuse per graph."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from stiffnet.criteria import H2Options, h2_statistic
from stiffnet.effective import network_effective_tensor
from stiffnet.energy import (
    DENSE_CUTOFF,
    LaplacianAssembly,
    SolverError,
    SolverOptions,
    SPDSolver,
    affine_boundary_family,
    minimize_energy,
)
from stiffnet.geometry import components, generate_lattice_jitter
from stiffnet.multigraph import build_graph


def jitter_lattice_graph(N):
    config = generate_lattice_jitter(seed=0, N=N, spacing=1, radius=0.4,
                                     jitter=0.05)
    return build_graph(components(config), config, 0.5)


@pytest.fixture(scope="module")
def lattice_512():
    graph = jitter_lattice_graph(4)
    assert graph.n_nodes == 512
    return graph


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestSPDSolver:
    @pytest.mark.parametrize("n", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
    def test_both_paths_match_dense_solve(self, n):
        rng = np.random.default_rng(n)
        # Diagonally dominant tridiagonal matrix: SPD, well conditioned.
        off = -rng.uniform(0.1, 1.0, size=n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, size=n)
        K = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
        solver = SPDSolver(K, SolverOptions(tol=1e-12))
        for _ in range(3):
            rhs = rng.normal(size=n)
            x = solver.solve(rhs)
            np.testing.assert_allclose(x, np.linalg.solve(K.toarray(), rhs),
                                       rtol=1e-9, atol=1e-12)

    def test_zero_rhs_returns_zeros_without_iterating(self, monkeypatch):
        K = scipy.sparse.identity(DENSE_CUTOFF, format="csr")
        calls = count_calls(monkeypatch, scipy.sparse.linalg, "cg")
        x = SPDSolver(K, SolverOptions()).solve(np.zeros(DENSE_CUTOFF))
        assert np.array_equal(x, np.zeros(DENSE_CUTOFF))
        assert calls == []

    def test_indefinite_dense_matrix_raises_solver_error(self):
        K = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SolverError) as info:
            SPDSolver(K, SolverOptions())
        assert math.isnan(info.value.residual)

    def test_iteration_cap_raises_with_residual(self, lattice_512):
        K = LaplacianAssembly(lattice_512).system_matrix
        rhs = np.ones(lattice_512.n_nodes)
        with pytest.raises(SolverError) as info:
            SPDSolver(K, SolverOptions(max_iter=1)).solve(rhs)
        assert math.isfinite(info.value.residual)
        assert info.value.residual > 1e-9


class TestCertifiedCallers:
    """Every solve of the package reports its residual when it fails."""

    def test_minimize_energy(self, lattice_512):
        b = affine_boundary_family(lattice_512, (1.0, 0.0, 0.0))
        with pytest.raises(SolverError) as info:
            minimize_energy(lattice_512, b, SolverOptions(max_iter=1))
        assert math.isfinite(info.value.residual)

    def test_h2_inner_solve(self, lattice_512):
        opts = H2Options(s=4.0, n_starts=1, solver=SolverOptions(max_iter=1))
        with pytest.raises(SolverError) as info:
            h2_statistic(lattice_512, opts)
        assert math.isfinite(info.value.residual)

    def test_clamped_network_solve(self, lattice_512):
        with pytest.raises(SolverError) as info:
            network_effective_tensor(lattice_512, 0.5,
                                     SolverOptions(max_iter=1))
        assert math.isfinite(info.value.residual)


class TestClampedSystemReuse:
    def test_one_factorization_per_graph(self, monkeypatch):
        graph = jitter_lattice_graph(2)
        assert graph.n_nodes < DENSE_CUTOFF
        calls = count_calls(monkeypatch, scipy.linalg, "cho_factor")
        tensor = network_effective_tensor(graph, 0.5)
        assert calls == ["cho_factor"]
        assert np.all(np.diag(tensor.matrix) > 0.0)

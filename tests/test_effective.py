"""Boundary layers, clamped network solves, tensor assembly and scans."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    affine_extension_energy,
    count_calls,
    count_cg_runs,
    edge_rows,
    is_cycle_free,
    node_rows,
    polarised_tensor,
)
from stiffnet.effective import (
    boundary_nodes,
    effective_scan,
    network_effective_tensor,
)
from stiffnet.energy import SPDSolver
from stiffnet.geometry import (
    SphereConfig,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
    restrict_box,
)
from stiffnet.multigraph import InclusionGraph, build_graph


# Three axes plus three face diagonals.
_SQ2 = 1.0 / math.sqrt(2.0)
DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
              (_SQ2, _SQ2, 0.0), (_SQ2, 0.0, _SQ2), (0.0, _SQ2, _SQ2))


def direction_energies(tensor):
    """Energy densities xi^T A xi over the six directions."""
    return [float(np.asarray(xi) @ tensor @ np.asarray(xi))
            for xi in DIRECTIONS]


def lattice_graph(N, radius, delta):
    config = generate_lattice_jitter(seed=0, N=N, spacing=1, radius=radius,
                                     jitter=0)
    config = restrict_box(config, N)
    return build_graph(components(config), config, delta)


class TestBoundaryNodes:
    def test_wide_layer_selects_everything(self):
        graph = lattice_graph(3, 0.3, 0.5)
        assert boundary_nodes(graph, 2 * 3.0) == {
            n.id for n in node_rows(graph)}

    def test_centered_ball_far_from_boundary_excluded(self):
        config = SphereConfig([[0, 0, 0]], [1.0], 10.0)
        graph = build_graph(components(config), config, 0.5)
        assert boundary_nodes(graph, 1.0) == set()

    def test_lattice_outermost_shell(self):
        graph = lattice_graph(3, 0.3, 0.5)
        # 6^3 lattice; layer of one spacing catches |c|inf = 2.5 shell only
        shell = boundary_nodes(graph, 1.0)
        assert len(shell) == 6 ** 3 - 4 ** 3

    def test_geometry_required(self):
        graph = lattice_graph(3, 0.3, 0.5)
        stripped = InclusionGraph.from_dict(graph.to_dict())
        with pytest.raises(ValueError):
            boundary_nodes(stripped, 1.0)


class TestNetworkTensor:
    def test_edgeless_graph_zero_tensor(self):
        config = SphereConfig([[0, 0, 0], [4, 0, 0]], [1.0, 1.0], 8.0)
        graph = build_graph(components(config), config, 0.5)
        tensor = network_effective_tensor(graph, 0.5)
        assert np.all(tensor == 0.0)

    def test_single_clamped_edge_hand_value(self):
        # both nodes inside the boundary layer: u = xi . x clamped, so
        # e(xi) = 2 mu (xi . (x_I - x_J))^2 / |Q_N|
        config = SphereConfig([[-1.05, 0, 0], [1.05, 0, 0]], [1.0, 1.0], 2.0)
        graph = build_graph(components(config), config, 0.5)
        assert graph.n_edges == 1
        mu = edge_rows(graph)[0].mu
        tensor = network_effective_tensor(graph, 1.9)
        expected = 2 * mu * 2.1 ** 2 / 4.0 ** 3
        assert tensor[0, 0] == pytest.approx(expected, rel=1e-12)
        assert tensor[1, 1] == pytest.approx(0.0, abs=1e-15)

    def test_weight_scaling_is_exactly_linear(self):
        graph = lattice_graph(3, 0.3, 0.5)
        t = 3.5
        scaled = dataclasses.replace(graph, mu=t * graph.mu)
        base = network_effective_tensor(graph, 0.5)
        up = network_effective_tensor(scaled, 0.5)
        for e_base, e_up in zip(direction_energies(base),
                                direction_energies(up)):
            assert e_up == pytest.approx(t * e_base, rel=1e-12)

    def test_clamping_more_nodes_never_decreases(self):
        graph = lattice_graph(3, 0.3, 0.5)
        narrow = network_effective_tensor(graph, 0.6)
        wide = network_effective_tensor(graph, 2.2)
        for e_n, e_w in zip(direction_energies(narrow),
                            direction_energies(wide)):
            assert e_w >= e_n - 1e-12

    def test_cubic_rotation_covariance(self):
        graph = lattice_graph(3, 0.3, 0.5)
        tensor = network_effective_tensor(graph, 0.5)
        # rotate the configuration by the cubic symmetry x->y->z->x and
        # rebuild: the tensor must be conjugated by the same rotation.
        config = generate_lattice_jitter(seed=0, N=3, spacing=1, radius=0.3,
                                         jitter=0)
        perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
        rotated = SphereConfig(config.centers @ perm.T, config.radii, 3.0)
        graph_r = build_graph(components(rotated), rotated, 0.5)
        tensor_r = network_effective_tensor(graph_r, 0.5)
        expected = perm @ tensor @ perm.T
        assert np.allclose(tensor_r, expected, atol=1e-8)

    def test_isotropic_on_cubic_lattice(self):
        graph = lattice_graph(4, 0.3, 0.5)
        tensor = network_effective_tensor(graph, 0.5)
        diag = np.diag(tensor)
        trace = float(np.trace(tensor))
        off = tensor - np.diag(diag)
        assert np.max(np.abs(off)) <= 1e-8 * trace
        assert float(diag.max() - diag.min()) <= 1e-8
        # interior solution is the affine field itself: energy counts the
        # axial bonds exactly
        n_side = 8
        expected = 2 * abs(math.log(0.4)) * (n_side - 1) * n_side ** 2 \
            / (2 * 4.0) ** 3
        assert diag[0] == pytest.approx(expected, rel=1e-10)

    def test_positive_semidefinite(self):
        graph = lattice_graph(3, 0.45, 0.5)
        tensor = network_effective_tensor(graph, 0.5)
        eigs = np.linalg.eigvalsh(tensor)
        assert float(eigs.min()) >= -1e-10 * float(np.trace(tensor))


def tensor_test_graphs():
    """(id, graph, layer, CG runs): small clusters, one large cluster and a
    forest; the clamped solve runs CG once per axis column."""
    hardcore = generate_hardcore(seed=13, N=5, intensity=0.05, radius=0.9,
                                 min_gap=0.02)
    lattice = generate_lattice_jitter(seed=0, N=4, spacing=1, radius=0.4,
                                      jitter=0.05)
    chains = generate_chain_forest(seed=1, N=12, radius=1.0, chain_len_max=8,
                                   gap_range=[0.01, 0.1])
    return [("hardcore", build_graph(components(hardcore), hardcore, 0.45),
             0.45, 3),
            ("lattice-512", build_graph(components(lattice), lattice, 0.5),
             0.5, 3),
            ("chain-forest", build_graph(components(chains), chains, 0.2),
             0.2, 3)]


class TestAgainstPolarisation:
    @pytest.mark.parametrize("case", tensor_test_graphs(),
                             ids=lambda case: case[0])
    def test_one_solve_matches_six_direction_polarisation(self, case,
                                                          monkeypatch):
        _, graph, layer, cg_runs = case
        cgs = count_cg_runs(monkeypatch)
        solves = count_calls(monkeypatch, SPDSolver, "solve")
        tensor = network_effective_tensor(graph, layer)
        assert cgs == ["_jacobi_cg"] * cg_runs
        assert solves == ["solve"]
        monkeypatch.undo()
        scale = affine_extension_energy(graph)
        assert scale > 0.0
        np.testing.assert_allclose(tensor,
                                   polarised_tensor(graph, layer),
                                   rtol=0.0, atol=1e-12 * scale)
        assert np.array_equal(tensor, tensor.T)

    def test_chain_forest_tensor_vanishes(self):
        _, graph, layer, _ = tensor_test_graphs()[2]
        assert is_cycle_free(graph) and boundary_nodes(graph, layer)
        tensor = network_effective_tensor(graph, layer)
        scale = affine_extension_energy(graph)
        assert np.max(np.abs(tensor)) <= 1e-12 * scale


class TestEffectiveScan:
    def test_jitter_free_lattice_identical_across_seeds(self):
        series = effective_scan(
            {"model": "lattice", "spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            0.5, [3, 4, 5], 3)
        for tensors in series.tensors:
            for t in tensors[1:]:
                assert np.array_equal(t, tensors[0])
        # mean roundoff leaves at most ulp-level spread
        assert all(s <= 1e-12 for s in series.frobenius_stderrs)

    @pytest.mark.parametrize("N_grid, n_seeds", [
        ([3, 2, 1], 1), ([3, 4], 1), ([3, 4, 5], 0)])
    def test_unscannable_grid_rejected(self, N_grid, n_seeds):
        model = {"model": "lattice", "spacing": 1.0, "radius": 0.3,
                 "jitter": 0.0}
        with pytest.raises(ValueError):
            effective_scan(model, 0.5, N_grid, n_seeds)

    def test_hardcore_scatter_shrinks_with_more_seeds(self):
        model = {"model": "hardcore", "intensity": 0.03, "radius": 1.0,
                 "min_gap": 0.1}
        few = effective_scan(model, 0.5, [5, 6, 7], 4, base_seed=5)
        many = effective_scan(model, 0.5, [5, 6, 7], 16, base_seed=5)
        # stderr ~ 1/sqrt(n): 16 seeds should sit well below 4 seeds
        ratio = many.frobenius_stderrs[0] / few.frobenius_stderrs[0]
        assert ratio < 1.0

    def test_radius_sweep_monotone_diagonal(self):
        traces = []
        for radius in (0.3, 0.4, 0.45):
            series = effective_scan(
                {"model": "lattice", "spacing": 1.0, "radius": radius,
                 "jitter": 0.0}, 0.5, [3, 4, 5], 1)
            traces.append(float(np.trace(series.mean_matrices[-1])))
        assert traces[0] < traces[1] < traces[2]

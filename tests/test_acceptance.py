"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` for the per-criterion
pass/fail listing; every tolerance below is fixed, nothing is calibrated
at run time.
"""

import importlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    dense_minimum_oracle,
    edge_rows,
    eigensolve_oracle,
    energy_gradient,
    evaluate_task,
    make_graph,
    node_rows,
    random_test_graph,
    single_edge_graph,
)
from stiffnet.criteria import (
    H2Options,
    derive_cell_seed,
    h2_ratio,
    h2_statistic,
    log_moment_statistic,
    scan_limsup,
)
from stiffnet.energy import (
    BoundaryFamily,
    PotentialFamily,
    affine_boundary_family,
    cycle_free_potentials,
    energy,
    keller_energy,
    KellerParams,
    minimize_energy,
)
from stiffnet.effective import network_effective_tensor
from stiffnet.geometry import (
    SphereConfig,
    components,
    generate_chain_forest,
    generate_hardcore,
    generate_lattice_jitter,
    restrict_box,
)
from stiffnet.multigraph import build_graph, is_cycle_free, short_kappa


def report(cid, detail):
    print(f"ACCEPTANCE criterion {cid}: PASS ({detail})")


def test_criterion_01_keller_closed_form():
    t0 = time.perf_counter()
    out = keller_energy(KellerParams(a=1.0, nu=1e-2, d=1.0))
    reference = (math.pi / 2.0) * math.log(201.0)
    assert out["z_closed_form"] == pytest.approx(reference, rel=1e-13)
    assert out["z_closed_form"] == pytest.approx(8.3300, abs=5e-4)
    rel = abs(out["z_quadrature"] - out["z_closed_form"]) / out["z_closed_form"]
    assert rel <= 1e-4

    nus = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    ys = [keller_energy(KellerParams(a=1.0, nu=nu, d=1.0))["z_closed_form"]
          for nu in nus]
    xs = [math.log(1.0 / nu) for nu in nus]
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope == pytest.approx(math.pi / 2.0, rel=1e-2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(1, f"closed form {out['z_closed_form']:.4f}, quadrature rel "
              f"{rel:.1e}, slope {slope:.4f}, {elapsed:.2f}s")


def test_criterion_02_weighted_keller_bounded():
    t0 = time.perf_counter()
    vals = []
    for nu in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        out = keller_energy(KellerParams(a=1.0, nu=nu, d=1.0, gamma=1.0))
        vals.append(out["weighted_quadrature"])
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"weighted energies in [{min(vals):.4f}, {max(vals):.4f}], "
              f"spread {100 * spread:.2f}%, {elapsed:.2f}s")


def test_criterion_03_solver_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(50):
        graph = random_test_graph(rng, n_nodes_max=50, n_edges_max=150)
        b = BoundaryFamily(rng.normal(size=graph.n_edges),
                           rng.normal(size=graph.n_edges))
        u_star, out = minimize_energy(graph, b)
        _, oracle = dense_minimum_oracle(graph, b.ab, b.ba)
        rel = abs(out.total - oracle) / max(abs(oracle), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-8
        scale = max(1.0, energy(graph, PotentialFamily.zeros(graph.n_nodes),
                                b).total)
        assert np.linalg.norm(energy_gradient(graph, u_star, b)) <= 1e-8 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"50 graphs, worst oracle deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_analytic_single_edge():
    graph = single_edge_graph(mu=2.0)
    b = BoundaryFamily([1.0], [0.0])
    _, out = minimize_energy(graph, b)
    assert abs(out.total - 4.0 / 9.0) <= 1e-10
    ratio = h2_ratio(graph, b, 2.0)
    assert abs(ratio - 2.0 / 9.0) <= 1e-10
    report(4, f"E* = {out.total:.12f}, ratio = {ratio:.12f}")


def test_criterion_05_h2_eigen_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        graph = random_test_graph(rng, n_nodes_max=20, n_edges_max=40)
        est = h2_statistic(graph, H2Options(s=2.0, n_starts=16, seed=1))
        exact = eigensolve_oracle(graph)
        rel = abs(est.value - exact) / exact
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"20 graphs, worst deviation from the eigensolve oracle "
              f"{worst:.2e}, {elapsed:.2f}s")


def _component_side_split(config, axis, offset):
    """Component-wise split by the plane x[axis] = offset.

    Returns sub-configurations of the components lying strictly below and
    strictly above the plane (straddling components belong to neither).
    """
    comp = components(config)
    lows, highs = [], []
    for k in range(comp.n_components):
        idx = np.flatnonzero(comp.labels == k)
        upper = np.max(config.centers[idx, axis] + config.radii[idx])
        lower = np.min(config.centers[idx, axis] - config.radii[idx])
        if upper < offset:
            lows.append(idx)
        elif lower > offset:
            highs.append(idx)
    out = []
    for group in (lows, highs):
        if group:
            sel = np.sort(np.concatenate(group))
            out.append(SphereConfig(config.centers[sel], config.radii[sel],
                                    config.box_half_width,
                                    contact_tol=config.contact_tol))
        else:
            out.append(SphereConfig(np.empty((0, 3)), np.empty(0),
                                    config.box_half_width,
                                    contact_tol=config.contact_tol))
    return out


def _affine_minimum(config, delta, xi):
    graph = build_graph(components(config), config, delta)
    _, out = minimize_energy(graph, affine_boundary_family(graph, xi))
    return out.total


def test_criterion_06_superadditivity():
    rng = np.random.default_rng(606)
    delta = 0.45
    checked = 0
    for trial in range(100):
        config = generate_hardcore(seed=10_000 + trial, N=4.0,
                                   intensity=0.06, radius=0.8, min_gap=0.05)
        config = restrict_box(config, 4.0)
        axis = int(rng.integers(0, 3))
        offset = float(rng.uniform(-2.0, 2.0))
        xi = rng.normal(size=3)
        xi /= np.linalg.norm(xi)
        whole = _affine_minimum(config, delta, xi)
        low, high = _component_side_split(config, axis, offset)
        parts = sum(_affine_minimum(c, delta, xi) for c in (low, high)
                    if c.n_spheres)
        scale = max(1.0, whole)
        assert whole >= parts - 1e-10 * scale
        checked += 1
    report(6, f"{checked} plane splits, all superadditive")


def test_criterion_07_monotonicity_under_extension():
    rng = np.random.default_rng(707)
    for _ in range(100):
        graph = random_test_graph(rng, n_nodes_max=12, n_edges_max=20)
        n, m = graph.n_nodes, graph.n_edges
        volumes = [nd.volume for nd in node_rows(graph)]
        positions = [nd.centroid for nd in node_rows(graph)]
        edges = [(e.a, e.b, e.d) for e in edge_rows(graph)]
        extra = int(rng.integers(1, 5))
        volumes += list(rng.uniform(0.2, 2.0, size=extra))
        positions += list(rng.uniform(-2, 2, size=(extra, 3)))
        for _ in range(int(rng.integers(1, 6))):
            a = int(rng.integers(0, n + extra))
            b = int(rng.integers(n, n + extra))
            if a != b:
                edges.append((a, b, float(rng.uniform(0.02, 0.5))))
        extended = make_graph(volumes, positions, edges, N=2.0)

        u = rng.normal(size=n)
        b_ab, b_ba = rng.normal(size=m), rng.normal(size=m)
        e_small = energy(graph, PotentialFamily(u),
                         BoundaryFamily(b_ab, b_ba)).total

        key_to_old = {}
        for k, e in enumerate(edge_rows(graph)):
            key_to_old.setdefault((e.a, e.b, e.d), []).append(k)
        used = {k: 0 for k in key_to_old}
        ab_ext, ba_ext = [], []
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
        u_ext = np.concatenate([u, rng.normal(size=extra)])
        e_big = energy(extended, PotentialFamily(u_ext),
                       BoundaryFamily(ab_ext, ba_ext)).total
        assert e_small <= e_big + 1e-12 * max(1.0, abs(e_big))
    report(7, "100 graph extensions, energy monotone every time")


def test_criterion_08_cycle_free_pipeline():
    t0 = time.perf_counter()
    N_grid = (10.0, 20.0, 40.0)
    n_seeds = 4
    model = {"radius": 1.0, "chain_len_max": 8, "gap_range": (0.01, 0.1)}
    delta = 0.2
    base_seed = 808

    for N in N_grid:
        for k in range(n_seeds):
            seed = derive_cell_seed(base_seed, N, k)
            config = generate_chain_forest(seed=seed, N=N, **model)
            config = restrict_box(config, N)
            graph = build_graph(components(config), config, delta)
            assert is_cycle_free(graph)
            b = affine_boundary_family(graph, (1.0, 0.0, 0.0))
            u = cycle_free_potentials(graph, b)
            out = energy(graph, u, b)
            assert out.gap == 0.0
            _, best = minimize_energy(graph, b)
            assert out.total >= best.total - 1e-12 * max(1.0, out.total)

    h2_params = {"s": 4.0, "n_starts": 4, "max_ascent_iters": 120,
                 "tol": 1e-6}
    series = scan_limsup({"model": "chains", **model}, delta, N_grid, n_seeds,
                         "h2", h2_params, base_seed=base_seed)
    assert not series.errors
    assert series.plateau_ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, f"cycle-free cells verified; s=4 series means "
              f"{[round(m, 4) for m in series.means]}, plateau_ok, "
              f"{elapsed:.1f}s")


def test_criterion_09_cubic_symmetry_isotropy(monkeypatch):
    monkeypatch.setattr(importlib.import_module("stiffnet.energy"),
                        "SOLVE_TOL", 1e-12)
    t0 = time.perf_counter()
    diagonals = []
    for radius in (0.3, 0.4, 0.45):
        config = generate_lattice_jitter(seed=0, N=10, spacing=1.0,
                                         radius=radius, jitter=0.0)
        config = restrict_box(config, 10.0)
        graph = build_graph(components(config), config, 0.5)
        tensor = network_effective_tensor(graph, 0.5)
        diag = np.diag(tensor.matrix)
        trace = float(np.trace(tensor.matrix))
        off = tensor.matrix - np.diag(diag)
        if radius == 0.3:
            assert np.max(np.abs(off)) <= 1e-8 * trace
            assert float(diag.max() - diag.min()) <= 1e-8
        diagonals.append(float(diag.mean()))
    assert diagonals[0] < diagonals[1] < diagonals[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(9, f"isotropic at r=0.3; diagonal {diagonals[0]:.3f} -> "
              f"{diagonals[1]:.3f} -> {diagonals[2]:.3f}, {elapsed:.1f}s")


def test_criterion_10_density():
    config = generate_lattice_jitter(seed=0, N=40, spacing=1.0, radius=0.3,
                                     jitter=0.0)
    config = restrict_box(config, 40.0)
    density = evaluate_task("density", config)
    expected = (4.0 / 3.0) * math.pi * 0.3 ** 3
    assert density == pytest.approx(expected, rel=1e-2)

    values = []
    for k in range(8):
        seed = derive_cell_seed(1010, 20.0, k)
        hc = generate_hardcore(seed=seed, N=20.0, intensity=0.015,
                               radius=1.0, min_gap=0.2)
        values.append(evaluate_task("density", restrict_box(hc, 20.0)))
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    assert stderr / mean < 0.10
    report(10, f"lattice density {density:.6f} vs {expected:.6f}; hardcore "
               f"stderr/mean {stderr / mean:.3%}")


def test_criterion_11_log_moment_stability():
    series = scan_limsup(
        {"model": "hardcore", "intensity": 0.015, "radius": 1.0,
         "min_gap": 0.2},
        0.5, (10.0, 20.0, 40.0), 8, "logmoment", {"k": 2.0}, base_seed=1111)
    assert not series.errors
    assert series.plateau_ok
    assert series.plateau_estimate > 0.0
    report(11, f"k=2 moment means {[round(m, 5) for m in series.means]}, "
               f"plateau {series.plateau_estimate:.5f}")


def test_criterion_12_short_consistency():
    config = generate_hardcore(seed=1212, N=8.0, intensity=0.03, radius=0.9,
                               min_gap=0.05)
    config = restrict_box(config, 8.0)
    graph = build_graph(components(config), config, 0.45)
    assert graph.n_edges > 0
    gaps = [e.d for e in edge_rows(graph)]

    below = short_kappa(graph, [], min(gaps) / 2.0)
    assert below.n_nodes == graph.n_nodes and below.n_edges == graph.n_edges

    top = short_kappa(graph, [], np.nextafter(1.0, 0.0))
    assert top.n_edges == 0

    previous = None
    nodes = node_rows(graph)
    total_before = sum(Fraction(n.volume) for n in nodes)
    for kappa in (0.01, 0.05, 0.1, 0.2, 0.45, 0.9):
        shorted = short_kappa(graph, [], kappa)
        shorted_nodes = node_rows(shorted)
        ids = {e.id for e in edge_rows(shorted)}
        if previous is not None:
            assert ids <= previous
        previous = ids
        # volume conservation: each merged node is the correctly rounded
        # sum of its group; the grand total matches at rational precision
        groups = {}
        for old_id, new_id in enumerate(shorted.node_merge_map):
            groups.setdefault(new_id, []).append(old_id)
        for new_id, group in groups.items():
            assert shorted_nodes[new_id].volume == \
                math.fsum(nodes[i].volume for i in group)
        total_after = sum(Fraction(n.volume) for n in shorted_nodes)
        assert abs(total_after - total_before) \
            <= Fraction(1, 10 ** 9) * total_before
    report(12, f"shorts over kappa grid on {graph.n_edges} edges: identity, "
               f"edgeless limit, monotone edge sets, volume conserved")

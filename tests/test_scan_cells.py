"""The cell-major scan loop: each (N, seed) cell is built once for all tasks."""

import dataclasses
import math
import sys
import threading

import pytest

import stiffnet.cli
import stiffnet.criteria
import stiffnet.effective
import stiffnet.geometry
import stiffnet.multigraph
from stiffnet.cli import ExperimentSpec, run_experiment
from stiffnet.criteria import ScanCell, scan_limsup, task_evaluator
from stiffnet.effective import effective_scan

MODEL = {"spacing": 1.0, "radius": 0.4, "jitter": 0.05}


def count_calls(monkeypatch, name):
    """Wrap ``name`` in every stiffnet module that binds it; returns the tally."""
    calls = []
    original = getattr(stiffnet.criteria, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in (stiffnet.criteria, stiffnet.effective, stiffnet.cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def spec(**overrides):
    data = {
        "version": 1,
        "model": "lattice",
        "model_params": MODEL,
        "delta": 0.5,
        "N_grid": [3, 4, 5],
        "n_seeds": 1,
        "base_seed": 11,
        "tasks": ["h1", "logmoment", "clustermoment", "effective"],
        "task_params": {"p": 2.0, "n_samples": 200},
    }
    data.update(overrides)
    return ExperimentSpec.from_dict(data)


def test_each_cell_generated_and_built_once(tmp_path, monkeypatch):
    h2 = {"s": 4.0, "n_starts": 1, "max_ascent_iters": 5}
    generated = count_calls(monkeypatch, "generate_model")
    built = count_calls(monkeypatch, "build_graph")
    record = run_experiment(spec(
        tasks=["h1", "h2", "logmoment", "clustermoment", "density",
               "effective"],
        task_params={"p": 2.0, "n_samples": 200, **h2}), out_dir=tmp_path)
    assert record.ok
    assert len(generated) == 3
    assert len(built) == 3
    assert set(record.wall_clock) == {(3.0, 0), (4.0, 0), (5.0, 0)}

    model = {"model": "lattice", **MODEL}
    task_params = {"h1": {"xi": (1.0, 0.0, 0.0)}, "h2": h2,
                   "logmoment": {"k": 2.0},
                   "clustermoment": {"p": 2.0, "n_samples": 200},
                   "density": {}}
    for task, params in task_params.items():
        series = scan_limsup(model, 0.5, [3, 4, 5], 1, task, params,
                             base_seed=11)
        assert record.task_outputs[task]["values"] == \
            [list(v) for v in series.values]
    tensors = effective_scan(model, 0.5, [3, 4, 5], 1, base_seed=11)
    assert record.task_outputs["effective"]["mean_matrices"] == \
        [m.tolist() for m in tensors.mean_matrices]


def test_build_failure_recorded_by_every_task(tmp_path, monkeypatch):
    # Every input rule runs before any cell, so the build failure comes
    # from the generator itself, which generate_model looks up by name.
    def fail(**kwargs):
        raise RuntimeError("generator failed")

    monkeypatch.setattr(stiffnet.geometry, "generate_lattice_jitter", fail)
    bad = spec(tasks=["logmoment", "effective", "h1"], task_params={})
    record = run_experiment(bad, out_dir=tmp_path, threads=2)
    messages = [f"N={N} seed_index=0: generator failed"
                for N in (3.0, 4.0, 5.0)]
    assert record.cell_errors == tuple(messages * 3)
    assert all(math.isnan(v) for row in record.task_outputs["h1"]["values"]
               for v in row)


def test_cell_threads_byte_identical(tmp_path):
    one = spec(n_seeds=2)
    run_experiment(one, out_dir=tmp_path / "a")
    run_experiment(one, out_dir=tmp_path / "b", threads=3)
    for name in ("h1.csv", "logmoment.csv", "clustermoment.csv",
                 "effective.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("model, params, delta, N", [
    ("lattice", MODEL, 0.5, 4.0),
    ("hardcore", {"intensity": 0.03, "radius": 1.0, "min_gap": 0.2}, 0.3,
     8.0),
    ("chains", {"radius": 1.0, "chain_len_max": 8,
                "gap_range": [0.01, 0.1]}, 0.2, 12.0),
])
def test_one_pair_query_per_cell(monkeypatch, model, params, delta, N):
    """restrict_box, components and build_graph share one KD-tree query."""
    cell = ScanCell(model, params, delta, N, seed=3, sample_seed=4)
    queries = []
    original = stiffnet.geometry._pairs_within

    def counted(*args):
        queries.append(args[2])
        return original(*args)

    for module in (stiffnet.geometry, stiffnet.multigraph):
        if getattr(module, "_pairs_within", None) is original:
            monkeypatch.setattr(module, "_pairs_within", counted)
    assert cell.graph.n_edges > 0
    for task in ("h1", "logmoment", "clustermoment", "effective"):
        task_evaluator(task, {"n_samples": 200}, base_seed=0)(cell)
    assert queries == [delta]
    if model == "hardcore":
        assert cell.restricted.n_spheres < cell.config.n_spheres


@pytest.mark.parametrize("model, params, delta, N, tasks, params_task", [
    ("lattice", MODEL, 0.5, 4.0,
     ("h1", "logmoment", "clustermoment", "effective"), {"n_samples": 200}),
    ("chains", {"radius": 1.0, "chain_len_max": 8,
                "gap_range": [0.01, 0.1]}, 0.2, 12.0, ("h2",),
     {"s": 4.0, "n_starts": 2, "max_ascent_iters": 20}),
    ("hardcore", {"intensity": 0.03, "radius": 1.0, "min_gap": 0.2}, 0.3,
     8.0, ("h2", "clustermoment"), {"s": 4.0, "n_starts": 2,
                                    "max_ascent_iters": 20,
                                    "n_samples": 200}),
], ids=["lattice", "chains", "hardcore"])
def test_one_partition_per_object(monkeypatch, model, params, delta, N, tasks,
                                  params_task):
    """A cell partitions its balls once (restrict_box) and its graph once,
    whichever tasks read the contact components or the clusters."""
    cell = ScanCell(model, params, delta, N, seed=3, sample_seed=4)
    runs = []
    original = stiffnet.geometry._connected_labels

    def counted(n, a, b):
        runs.append(n)
        return original(n, a, b)

    # By sys.modules: the package rebinds ``stiffnet.energy`` to a function.
    for name in ("geometry", "multigraph", "criteria", "effective", "energy"):
        module = sys.modules[f"stiffnet.{name}"]
        if getattr(module, "_connected_labels", None) is original:
            monkeypatch.setattr(module, "_connected_labels", counted)
    for task in tasks:
        task_evaluator(task, params_task, base_seed=0)(cell)
    assert cell.graph.n_edges > 0
    assert runs == [cell.config.n_spheres, cell.graph.n_nodes]



@pytest.mark.parametrize("owner, stage", [
    (stiffnet.criteria, "config"),
    (stiffnet.multigraph, "_node_clusters"),
], ids=["ScanCell.config", "InclusionGraph._node_clusters"])
def test_one_stage_of_two_objects_computes_at_once(monkeypatch, owner, stage):
    """Two threads that compute a stage of two different objects both reach
    a barrier inside it: no lock shared by the class holds one back."""
    cells = [ScanCell("lattice", MODEL, 0.5, N, seed=3, sample_seed=4)
             for N in (2.0, 3.0)]
    objects = (cells if stage == "config" else
               [dataclasses.replace(cell.graph) for cell in cells])
    name = "generate_model" if stage == "config" else "_connected_labels"
    original = getattr(owner, name)
    barrier = threading.Barrier(2, timeout=2)

    def meeting(*args):
        barrier.wait()
        return original(*args)

    monkeypatch.setattr(owner, name, meeting)
    results = [None, None]

    def read(k):
        try:
            results[k] = getattr(objects[k], stage)
        except threading.BrokenBarrierError as exc:
            results[k] = exc

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    for obj, result in zip(objects, results):
        assert not isinstance(result, threading.BrokenBarrierError)
        assert vars(obj)[stage] is result

"""Serialization, experiment specs, the runner, and the console interface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import stiffnet.criteria
from conftest import count_calls
from stiffnet.cli import (
    EXIT_CELL_ERRORS,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VALIDATION_ERROR,
    ExperimentSpec,
    SchemaError,
    ValidationError,
    dumps_17g,
    load_json,
    main,
    run_experiment,
    save_json,
)
from stiffnet.criteria import (
    H2Options,
    derive_cell_seed,
    generate_model,
    h2_statistic,
    log_moment_statistic,
)
from stiffnet.geometry import (
    SphereConfig,
    components,
    generate_hardcore,
    restrict_box,
)
from stiffnet.multigraph import build_graph, short_kappa


def spec_dict(**overrides):
    base = {
        "version": 1,
        "model": "lattice",
        "model_params": {"spacing": 1.0, "radius": 0.3, "jitter": 0.0},
        "delta": 0.5,
        "N_grid": [3, 4, 5],
        "n_seeds": 1,
        "base_seed": 7,
        "tasks": ["logmoment"],
        "task_params": {"k": 2.0},
    }
    base.update(overrides)
    return base


def hardcore_graph():
    config = generate_hardcore(seed=13, N=5, intensity=0.05, radius=0.9,
                               min_gap=0.02)
    return build_graph(components(config), config, 0.45)


class TestSerialization:
    def test_float_format_17_digits(self):
        assert dumps_17g({"x": 0.1}) == '{"x": 0.10000000000000001}'
        assert json.loads(dumps_17g({"x": 0.1}))["x"] == 0.1

    def test_config_roundtrip(self, tmp_path):
        config = generate_hardcore(seed=7, N=4, intensity=0.03, radius=1,
                                   min_gap=0.1)
        save_json(config, tmp_path / "config.json")
        back = load_json(tmp_path / "config.json", kind="config")
        assert back == config

    def test_graph_roundtrip(self, tmp_path):
        config = generate_hardcore(seed=13, N=5, intensity=0.05, radius=0.9,
                                   min_gap=0.02)
        graph = build_graph(components(config), config, 0.45)
        assert graph.n_edges > 0
        save_json(graph, tmp_path / "graph.json")
        back = load_json(tmp_path / "graph.json", kind="graph")
        assert back == graph

    def test_shorted_graph_roundtrip(self, tmp_path):
        graph = hardcore_graph()
        shorted = short_kappa(graph, (), sorted(graph.d.tolist())[2])
        assert shorted.n_nodes < graph.n_nodes
        save_json(shorted, tmp_path / "shorted.json")
        assert load_json(tmp_path / "shorted.json", kind="graph") == shorted

    def test_corrupted_file_raises_schema_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"spheres": [{"c": [0, 0], "r": 1.0}]}')
        with pytest.raises(SchemaError):
            load_json(path, kind="config")
        path.write_text("not json at all {{{")
        with pytest.raises(SchemaError):
            load_json(path)

    def test_missing_fields_raise(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"model": "hardcore", "spheres": []}')
        with pytest.raises(SchemaError):
            load_json(path, kind="config")


class TestExperimentSpec:
    def test_valid_spec_parses(self):
        spec = ExperimentSpec.from_dict(spec_dict())
        assert spec.tasks == ("logmoment",)
        assert len(spec.hash()) == 64

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict(spec_dict(tasks=[]))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict(spec_dict(tasks=["h1", "nope"]))

    def test_missing_version_rejected(self):
        data = spec_dict()
        del data["version"]
        with pytest.raises(SchemaError):
            ExperimentSpec.from_dict(data)

    def test_bad_grid_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict(spec_dict(N_grid=[3, 4]))
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict(spec_dict(N_grid=[3, 5, 4]))

    def test_integral_float_seed_count_keeps_the_hash(self):
        spec = ExperimentSpec.from_dict(spec_dict(n_seeds=2.0))
        assert spec.n_seeds == 2
        assert spec.hash() == ExperimentSpec.from_dict(
            spec_dict(n_seeds=2)).hash()

    def test_integral_float_seed_and_version_keep_the_hash(self):
        spec = ExperimentSpec.from_dict(spec_dict(base_seed=7.0, version=1.0))
        assert (spec.base_seed, spec.version) == (7, 1)
        assert spec.hash() == ExperimentSpec.from_dict(spec_dict()).hash()

    @pytest.mark.parametrize("key, value", [
        ("base_seed", 7.5), ("base_seed", "7"), ("base_seed", True),
        ("version", 1.5), ("version", True), ("version", "1"),
        ("n_seeds", False),
    ])
    def test_non_integer_field_rejected(self, key, value):
        with pytest.raises(SchemaError, match=key):
            ExperimentSpec.from_dict(spec_dict(**{key: value}))


class TestRunExperiment:
    def test_logmoment_run_writes_outputs(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict())
        record = run_experiment(spec, out_dir=tmp_path)
        assert record.ok
        assert (tmp_path / "logmoment.csv").exists()
        assert (tmp_path / "summary.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["spec_hash"] == spec.hash()
        assert summary["tasks"]["logmoment"]["plateau_ok"] is True

    def test_identical_runs_byte_identical(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict(tasks=["logmoment", "h1"]))
        run_experiment(spec, out_dir=tmp_path / "a")
        run_experiment(spec, out_dir=tmp_path / "b", threads=2)
        for name in ("logmoment.csv", "h1.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_keller_task_slope(self, tmp_path):
        spec = ExperimentSpec.from_dict(spec_dict(
            tasks=["keller"],
            task_params={"keller": {"a": 1.0, "d": 1.0,
                                    "nu_grid": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]}}))
        record = run_experiment(spec, out_dir=tmp_path)
        slope = record.task_outputs["keller"]["slope"]
        assert slope == pytest.approx(math.pi / 2, rel=1e-2)
        assert (tmp_path / "keller.csv").exists()

    def test_partial_failure_isolation(self, tmp_path):
        # delta small enough that the lattice graph has no edges: the h2
        # cells fail, the logmoment cells still produce output.
        spec = ExperimentSpec.from_dict(spec_dict(
            delta=0.05, tasks=["h2", "logmoment"],
            task_params={"s": 4.0, "k": 2.0}))
        record = run_experiment(spec, out_dir=tmp_path)
        assert not record.ok
        assert len(record.cell_errors) == 3
        assert (tmp_path / "h2.csv").exists()
        assert (tmp_path / "logmoment.csv").exists()
        values = [row for row in
                  (tmp_path / "logmoment.csv").read_text().splitlines()[1:]]
        assert len(values) == 3

    def test_kappa_shorts_h2_and_logmoment(self, tmp_path):
        model = {"intensity": 0.06, "radius": 0.9, "min_gap": 0.02}
        kappa, h2 = 0.15, {"s": 4.0, "n_starts": 2, "max_ascent_iters": 20}
        spec = ExperimentSpec.from_dict(spec_dict(
            model="hardcore", model_params=model, delta=0.45,
            N_grid=[4, 5, 6], tasks=["h2", "logmoment"],
            task_params={"kappa": kappa, "k": 2.0, **h2}))
        record = run_experiment(spec, out_dir=tmp_path)
        assert record.ok
        outputs = record.task_outputs
        for i, N in enumerate(spec.N_grid):
            config = generate_model("hardcore", model, N,
                                    derive_cell_seed(spec.base_seed, N, 0))
            config = restrict_box(config, N)
            graph = build_graph(components(config), config, spec.delta)
            shorted = short_kappa(graph, (), kappa)
            assert 0 < shorted.n_nodes < graph.n_nodes
            assert outputs["h2"]["values"][i] == [h2_statistic(
                shorted, H2Options(seed=spec.base_seed, **h2)).value]
            assert outputs["logmoment"]["values"][i] == [
                log_moment_statistic(shorted, 2.0)]

    def test_spec_file_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SchemaError):
            run_experiment(bad, out_dir=tmp_path)


class TestMain:
    def test_generate_and_graph_pipeline(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        code = main(["--seed", "3", "--out", str(cfg_path), "generate",
                     "--model", "hardcore", "--N", "5", "--intensity", "0.05",
                     "--radius", "0.9", "--min-gap", "0.05"])
        assert code == EXIT_OK
        graph_path = tmp_path / "graph.json"
        code = main(["--out", str(graph_path), "graph",
                     "--config", str(cfg_path), "--delta", "0.45"])
        assert code == EXIT_OK
        code = main(["energy", "--graph", str(graph_path),
                     "--family", "affine", "--xi", "1,0,0"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["total"] >= 0.0

    def test_generate_reports_saturation(self, tmp_path, capsys):
        argv = ["generate", "--model", "hardcore", "--N", "5",
                "--intensity", "0.5", "--radius", "1.0", "--min-gap", "0.2"]
        config = generate_hardcore(seed=0, N=5, intensity=0.5, radius=1.0,
                                   min_gap=0.2)
        assert config.n_spheres == 70
        assert main(["--seed", "0", *argv]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == dumps_17g(config.to_dict()) + "\n"
        assert captured.err == "warning: saturated: placed 70 of 500 balls\n"
        path = tmp_path / "config.json"
        assert main(["--seed", "0", "--out", str(path), *argv]) == EXIT_OK
        assert path.read_text() == captured.out
        assert capsys.readouterr().err == captured.err

    def test_generate_without_saturation_is_silent(self, capsys):
        assert main(["--seed", "3", "generate", "--model", "hardcore",
                     "--N", "5", "--intensity", "0.05", "--radius", "0.9",
                     "--min-gap", "0.05"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["edges"][0].update(b=10 ** 6),
        lambda doc: [e.update(mu=-5.0) for e in doc["edges"]],
        lambda doc: doc["nodes"][0].update(id=7),
        lambda doc: doc["edges"][0].update(d=1.5),
        lambda doc: doc["edges"][0].update(mu=doc["edges"][0]["mu"] * 2),
        lambda doc: doc["nodes"][1].update(vol=0.0),
    ], ids=["far-endpoint", "negative-mu", "misnumbered-node", "wide-gap",
            "inconsistent-mu", "zero-volume"])
    def test_energy_rejects_out_of_range_graph(self, tmp_path, capsys,
                                               corrupt):
        doc = hardcore_graph().to_dict()
        corrupt(doc)
        path = tmp_path / "graph.json"
        path.write_text(dumps_17g(doc))
        code = main(["energy", "--graph", str(path)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_effective_with_decreasing_grid_exits_3(self, capsys):
        code = main(["effective", "--model", "lattice", "--radius", "0.3",
                     "--delta", "0.5", "--N-grid", "3,2"])
        assert code == EXIT_VALIDATION_ERROR
        assert "N_grid" in capsys.readouterr().err

    def test_run_with_empty_tasks_exits_3(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(tasks=[])))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR

    @pytest.mark.parametrize("task_params", [{"kk": 3}, {"s": 4}],
                             ids=["misspelt-k", "h2-key"])
    def test_run_with_unread_task_param_exits_3(self, tmp_path, capsys,
                                                task_params):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            task_params=task_params, out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("overrides", [
        {"model_params": {"spacing": 1.0, "radius": 0.3, "jitter": 0.0,
                          "foo": 1}},
        {"model_params": {"spacing": 1.0, "radius": 0.3}},
        {"tasks": ["h1"], "task_params": {"xi": [1, 0]}},
        {"tasks": ["h1"], "task_params": {"xi": [0, 0, 0]}},
        {"tasks": ["h1"], "task_params": {"xi": ["1", "0", "0"]}},
    ], ids=["unknown-model-key", "missing-model-key", "short-xi", "zero-xi",
            "string-xi"])
    def test_run_with_bad_parameters_exits_3_before_any_cell(
            self, tmp_path, capsys, monkeypatch, overrides):
        cells = count_calls(monkeypatch, stiffnet.criteria, "ScanCell")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            out_dir=str(tmp_path / "results"), **overrides)))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert cells == [] and not (tmp_path / "results").exists()

    def test_run_with_broken_spec_exits_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{broken")
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_PARSE_ERROR

    def test_run_with_cell_errors_exits_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            delta=0.05, tasks=["h2"], task_params={"s": 4.0},
            out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_CELL_ERRORS

    def test_keller_subcommand(self, capsys):
        code = main(["keller", "--a", "1", "--d", "1",
                     "--nu-grid", "1e-2,1e-3,1e-4"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(math.pi / 2, rel=0.02)

    @pytest.mark.parametrize("argv, message", [
        (["criteria", "--model", "lattice", "--radius", "0.3",
          "--delta", "0.05", "--N-grid", "3,4,5", "--n-seeds", "1",
          "--statistic", "h2"], "graph has no edges"),
        (["effective", "--model", "lattice", "--radius", "0.3",
          "--delta", "0.5", "--N-grid", "3,4,5", "--layer-width", "-1"],
         "layer_width must be positive"),
    ], ids=["criteria-h2-edgeless", "effective-negative-layer"])
    def test_scan_subcommand_reports_cell_errors(self, tmp_path, capsys,
                                                 argv, message):
        out_path = tmp_path / "series.csv"
        code = main(["--format", "csv", "--out", str(out_path), *argv])
        assert code == EXIT_CELL_ERRORS
        assert len(out_path.read_text().splitlines()) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        for line, N in zip(err, (3.0, 4.0, 5.0)):
            assert line.startswith(f"error: N={N} seed_index=0: {message}")

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["spheres"][0]["c"].__setitem__(1, math.nan),
        lambda doc: doc.update(box_half_width=math.inf),
    ], ids=["nan-center", "infinite-box"])
    def test_graph_rejects_non_finite_config(self, tmp_path, capsys, corrupt):
        doc = generate_hardcore(seed=3, N=4, intensity=0.05, radius=0.9,
                                min_gap=0.05).to_dict()
        corrupt(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = main(["graph", "--config", str(path), "--delta", "0.45"])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, corrupt", [
        ("config", lambda doc: doc["spheres"][0].update(c=[None, 0, 0])),
        ("config", lambda doc: doc["spheres"][0].update(r="x")),
        ("spec", lambda doc: doc.update(N_grid=5)),
        ("spec", lambda doc: doc.update(n_seeds=None)),
        ("spec", lambda doc: doc.update(task_params=[1])),
        ("spec", lambda doc: doc.update(N_grid="345")),
        ("spec", lambda doc: doc.update(tasks="logmoment")),
        ("spec", lambda doc: doc.update(
            model_params=[["spacing", 1.0], ["radius", 0.3]])),
        ("spec", lambda doc: doc.update(task_params=[["k", 2.0]])),
        ("spec", lambda doc: doc.update(n_seeds=1.5)),
        ("spec", lambda doc: doc.update(tasks=["keller"],
                                        task_params={"keller": "x"})),
        ("graph", lambda doc: doc.update(N=-2.0)),
        ("graph", lambda doc: doc.update(N=0.0)),
        ("graph", lambda doc: doc.update(delta=1.5)),
        ("spec", lambda doc: doc.update(base_seed=7.5)),
        ("spec", lambda doc: doc.update(base_seed="7")),
        ("spec", lambda doc: doc.update(base_seed=True)),
        ("spec", lambda doc: doc.update(version=1.5)),
        ("spec", lambda doc: doc.update(version=True)),
        ("spec", lambda doc: doc.update(version="1")),
        ("graph", lambda doc: doc["nodes"][0].update(boundary="no")),
        ("graph", lambda doc: doc["nodes"][0].update(boundary=0)),
        ("graph", lambda doc: doc["nodes"][1].update(id=True)),
        ("graph", lambda doc: doc["edges"][0].update(id=2.9)),
        ("graph", lambda doc: doc["edges"][0].update(b=doc["edges"][0]["b"]
                                                     + 0.5)),
        ("graph", lambda doc: doc["edges"][0].update(a="0")),
        ("config", lambda doc: doc.update(seed=7.5)),
        ("config", lambda doc: doc.update(seed=True)),
        ("config", lambda doc: doc.update(seed="3")),
    ], ids=["null-center", "string-radius", "scalar-grid", "null-seeds",
            "list-task-params", "string-grid", "string-tasks",
            "pair-list-model-params", "pair-list-task-params",
            "fractional-seeds", "string-keller-params", "negative-box",
            "zero-box", "threshold-above-one", "fractional-base-seed",
            "string-base-seed", "bool-base-seed", "fractional-version",
            "bool-version", "string-version", "string-boundary",
            "integer-boundary", "bool-node-id", "fractional-edge-id",
            "fractional-edge-end", "string-edge-end", "fractional-config-seed",
            "bool-config-seed", "string-config-seed"])
    def test_mistyped_document_exits_2(self, tmp_path, capsys, kind,
                                       corrupt):
        if kind == "config":
            doc = generate_hardcore(seed=3, N=4, intensity=0.05, radius=0.9,
                                    min_gap=0.05).to_dict()
            argv = ["graph", "--config", "{}", "--delta", "0.45"]
        elif kind == "graph":
            doc = hardcore_graph().to_dict()
            argv = ["energy", "--graph", "{}"]
        else:
            doc = spec_dict(out_dir=str(tmp_path / "results"))
            argv = ["run", "--spec", "{}"]
        corrupt(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = main([arg.format(path) for arg in argv])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_graph_refuses_negative_component_volume(self, tmp_path, capsys):
        # Pairwise lens corrections give four coincident balls a negative
        # union volume; the document would fail its own reader.
        centers = [[0.0, 0.0, 0.0]] * 4 + [[1.2, 0.0, 0.0]]
        path = tmp_path / "config.json"
        save_json(SphereConfig(centers, [0.5] * 5, 3.0), path)
        out_path = tmp_path / "graph.json"
        code = main(["--out", str(out_path), "graph", "--config", str(path),
                     "--delta", "0.5"])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite positive volume" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["criteria", "--statistic", "logmoment"],
        ["effective"],
    ], ids=["criteria", "effective"])
    def test_scan_subcommands_honour_threads(self, capsys, monkeypatch, argv):
        pools = []
        executor = stiffnet.criteria.ThreadPoolExecutor

        def recording_pool(*args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            return executor(*args, **kwargs)

        monkeypatch.setattr(stiffnet.criteria, "ThreadPoolExecutor",
                            recording_pool)
        scan = [*argv, "--model", "lattice", "--radius", "0.4",
                "--jitter", "0.05", "--delta", "0.5", "--N-grid", "2,3,4",
                "--n-seeds", "2"]
        assert main(["--threads", "1", *scan]) == EXIT_OK
        serial = capsys.readouterr().out
        assert pools == []
        assert main(["--threads", "2", *scan]) == EXIT_OK
        assert pools == [2]
        assert capsys.readouterr().out == serial

    def test_criteria_subcommand_csv(self, tmp_path):
        out_path = tmp_path / "series.csv"
        code = main(["--format", "csv", "--out", str(out_path), "criteria",
                     "--model", "lattice", "--spacing", "1", "--radius", "0.3",
                     "--jitter", "0", "--statistic", "density",
                     "--delta", "0.5", "--N-grid", "3,4,5", "--n-seeds", "1"])
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "N,seed,value"
        assert len(lines) == 4

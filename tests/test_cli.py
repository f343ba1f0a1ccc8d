"""Serialization, experiment specs, the runner, and the console interface."""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stiffnet.criteria
import stiffnet.effective
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
    TASKS,
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
    generate_lattice_jitter,
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


def _value_id(value):
    return json.dumps(value).strip('"')


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
        shorted = short_kappa(graph, sorted(graph.d.tolist())[2])
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
            load_json(path, kind="config")

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

    @pytest.mark.parametrize("overrides, spec_hash", [
        ({}, "d6cb5413e55ae134528b8cd8ea8ea18c1ce0bbcd7c4ed87d15ec49db5f686bd4"),
        ({"delta": 0.25, "N_grid": [2, 3.5, 4]},
         "2f75243ca2f6bd296fb852c590503d697028cfe3b66c343a2dfb3c11ed307d3d"),
        ({"tasks": ["keller"],
          "task_params": {"keller": {"a": 1, "d": 1.0, "gamma": 0,
                                     "nu_grid": [1e-2, 1e-3]}}},
         "6cbb99570187d5102b0963389131719ca007717a86943f5affdaa7ad8ae0eae6"),
    ], ids=["logmoment", "integer-grid", "keller"])
    def test_number_checks_keep_the_spec_hash(self, overrides, spec_hash):
        assert ExperimentSpec.from_dict(spec_dict(**overrides)).hash() == \
            spec_hash

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
            shorted = short_kappa(graph, kappa)
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

    @pytest.mark.parametrize("argv", [
        ["--model", "lattice", "--N", "2", "--radius", "0.4",
         "--jitter", "nan"],
        ["--model", "hardcore", "--N", "4", "--intensity", "0.05",
         "--radius", "0.9", "--min-gap", "nan"],
        ["--model", "lattice", "--N", "inf", "--radius", "0.4"],
        ["--model", "chains", "--N", "inf", "--radius", "0.4"],
        ["--model", "lattice", "--N", "10000", "--radius", "0.4"],
    ], ids=["nan-jitter", "nan-min-gap", "infinite-lattice-box",
            "infinite-chains-box", "huge-lattice-box"])
    def test_generate_refuses_non_finite_arguments(self, capsys, argv):
        assert main(["generate", *argv]) == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and captured.err.count("\n") == 1)

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

    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["edges"][0]["xa"].__setitem__(0, math.nan),
        lambda doc: doc["edges"][0]["xb"].__setitem__(1, math.inf),
        lambda doc: doc["nodes"][0]["x"].__setitem__(2, -math.inf),
        lambda doc: doc["nodes"][0].update(diam=math.nan),
    ], ids=["nan-contact-point", "infinite-contact-point",
            "infinite-centroid", "nan-diameter"])
    def test_energy_rejects_non_finite_geometry(self, tmp_path, capsys,
                                                corrupt):
        doc = hardcore_graph().to_dict()
        corrupt(doc)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))   # NaN and Infinity literals
        code = main(["energy", "--graph", str(path)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_energy_refuses_inconsistent_midpoint_geometry(self, tmp_path,
                                                          capsys):
        # A centroid moved far from its contact points breaks the midpoint
        # family's bound |xi| (diam + delta).
        doc = hardcore_graph().to_dict()
        doc["nodes"][doc["edges"][0]["a"]]["x"][0] += 3.0
        path = tmp_path / "graph.json"
        path.write_text(dumps_17g(doc))
        assert main(["energy", "--graph", str(path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["energy", "--graph", str(path), "--family", "midpoint"])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: midpoint family") and err.count("\n") == 1

    @pytest.mark.parametrize("family", ["affine", "midpoint"])
    @pytest.mark.parametrize("xi", ["inf,0,0", "nan,0,0", "1e308,1e308,0",
                                    "1e200,0,0"])
    def test_energy_refuses_non_finite_xi_in_one_line(self, tmp_path, capsys,
                                                      xi, family):
        # An infinite or NaN entry is refused before any arithmetic; a
        # family that overflows is refused by the family's finite check,
        # and a finite family whose energy sums overflow by the energy's.
        path = tmp_path / "graph.json"
        path.write_text(dumps_17g(hardcore_graph().to_dict()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["energy", "--graph", str(path), "--family", family,
                         "--xi", xi])
        assert code == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (captured.err.startswith("error: ")
                and captured.err.count("\n") == 1), captured.err

    @pytest.mark.parametrize("family", ["affine", "midpoint"])
    def test_energy_with_zero_xi_prints_zeros(self, tmp_path, capsys, family):
        path = tmp_path / "graph.json"
        path.write_text(dumps_17g(hardcore_graph().to_dict()))
        code = main(["energy", "--graph", str(path), "--family", family,
                     "--xi", "0,0,0"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "gap": 0.0, "mass": 0.0, "total": 0.0}

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
        {"model_params": {"spacing": 1.0, "radius": 0.3, "jitter": 0.0,
                          "contact_tol": -1.0}},
        {"tasks": ["h1"], "task_params": {"xi": [1, 0]}},
        {"tasks": ["h1"], "task_params": {"xi": [0, 0, 0]}},
        {"task_params": {"k": 0.5}},
        {"task_params": {"k": math.nan}},
        {"task_params": {"k": math.inf}},
        {"tasks": ["clustermoment"], "task_params": {"p": 0.0}},
        {"tasks": ["clustermoment"], "task_params": {"p": math.nan}},
        {"tasks": ["clustermoment"], "task_params": {"n_samples": 0}},
        {"tasks": ["clustermoment"], "task_params": {"n_samples": 1e15}},
        {"tasks": ["clustermoment"], "task_params": {"quantity": "radius"}},
        {"task_params": {"kappa": 0.0}},
        {"task_params": {"kappa": 1.5}},
        {"task_params": {"kappa": math.nan}},
        {"tasks": ["h2"], "task_params": {"s": 1.5}},
        {"tasks": ["h2"], "task_params": {"s": math.inf}},
        {"tasks": ["h2"], "task_params": {"n_starts": 0}},
        {"tasks": ["h2"], "task_params": {"n_starts": 10 ** 9}},
        {"tasks": ["h2"], "task_params": {"max_ascent_iters": 0}},
        {"tasks": ["h2"], "task_params": {"max_ascent_iters": 10 ** 9}},
        {"tasks": ["h2"], "task_params": {"max_ascent_iters": -3}},
        {"tasks": ["h2"], "task_params": {"tol": -1e-6}},
        {"tasks": ["h2"], "task_params": {"tol": 0.0}},
        {"tasks": ["h2"], "task_params": {"tol": 10 ** 400}},
        {"tasks": ["h2"], "task_params": {"tol": -10 ** 400}},
        {"tasks": ["effective"], "task_params": {"layer_width": math.nan}},
        {"tasks": ["effective"], "task_params": {"layer_width": -math.inf}},
        {"tasks": ["effective"], "task_params": {"layer_width": -1}},
        {"tasks": ["effective"], "task_params": {"layer_width": 0}},
        {"N_grid": [math.nan, 3, 4]},
        {"N_grid": [3, 4, math.inf]},
        {"N_grid": [-1, 3, 4]},
        {"N_grid": [2, 3, 10000]},
        {"n_seeds": 10 ** 9},
    ], ids=["unknown-model-key", "missing-model-key",
            "negative-contact-tol", "short-xi", "zero-xi",
            "k-below-one", "nan-k", "infinite-k", "zero-p",
            "nan-p", "zero-samples", "huge-samples", "unknown-quantity",
            "zero-kappa", "kappa-above-one", "nan-kappa", "s-below-two",
            "infinite-s", "zero-starts", "huge-starts", "zero-ascent-iters",
            "huge-ascent-iters", "negative-ascent-iters",
            "negative-tol", "zero-tol", "huge-tol", "negative-huge-tol",
            "nan-layer", "negative-infinite-layer", "negative-layer",
            "zero-layer", "nan-grid-entry", "infinite-grid-entry",
            "negative-grid-entry", "huge-lattice-grid", "huge-seed-count"])
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

    @pytest.mark.parametrize("task, key, value", [
        (task, key, value)
        for task, key in [("logmoment", "k"), ("clustermoment", "p"),
                          ("clustermoment", "n_samples"),
                          ("logmoment", "kappa"), ("effective", "layer_width")]
        for value in ([], {}, [[1]], *([None] if key in ("k", "p",
                                                         "n_samples")
                                       else []))
    ] + [
        ("clustermoment", "n_samples", math.inf),
        ("clustermoment", "n_samples", -math.inf),
        ("clustermoment", "n_samples", 2.5),
        ("clustermoment", "quantity", 5),
        ("h2", "s", "4"),
        ("h2", "s", True),
        ("h2", "n_starts", 2.5),
        ("h2", "n_starts", None),
        ("h2", "max_ascent_iters", [5]),
        ("h2", "tol", "x"),
        pytest.param("h1", "xi", ["1", "0", "0"], id="string-xi"),
        pytest.param("h1", "xi", [True, 0, 0], id="bool-xi"),
    ], ids=_value_id)
    def test_run_with_mistyped_task_value_exits_2_before_any_cell(
            self, tmp_path, capsys, monkeypatch, task, key, value):
        cells = count_calls(monkeypatch, stiffnet.criteria, "ScanCell")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            tasks=[task], task_params={key: value},
            out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert cells == [] and not (tmp_path / "results").exists()

    @pytest.mark.parametrize("overrides", [
        {"delta": "0.5"},
        {"delta": True},
        {"delta": None},
        {"N_grid": ["2", "3", "4"]},
        {"N_grid": [3, 4, False]},
        {"tasks": ["keller"], "task_params": {"keller": {"a": None}}},
        {"tasks": ["keller"], "task_params": {"keller": {"d": "1"}}},
        {"tasks": ["keller"], "task_params": {"keller": {"gamma": True}}},
        {"tasks": ["keller"], "task_params": {"keller": {"nu_grid": 5}}},
        {"tasks": ["keller"], "task_params": {"keller": {"nu_grid": []}}},
        {"tasks": ["keller"],
         "task_params": {"keller": {"nu_grid": [1e-2, "1e-3"]}}},
    ], ids=["string-delta", "bool-delta", "null-delta", "string-grid-entries",
            "bool-grid-entry", "null-keller-a", "string-keller-d",
            "bool-keller-gamma", "scalar-nu-grid", "empty-nu-grid",
            "string-nu"])
    def test_run_with_non_number_exits_2_before_writing(self, tmp_path, capsys,
                                                        overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            out_dir=str(tmp_path / "results"), **overrides)))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("keller", [
        {"gamma": math.inf}, {"zzz": 1}, {"a": -1.0}, {"d": math.nan},
        {"nu_grid": [1e-2, 2.0]}, {"nu_grid": [1e-2, -math.inf]},
    ], ids=["infinite-gamma", "unknown-key", "negative-a", "nan-d",
            "nu-above-one", "infinite-nu"])
    def test_run_with_bad_keller_value_exits_3_before_writing(
            self, tmp_path, capsys, keller):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            tasks=["keller"], task_params={"keller": keller},
            out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("overrides", [
        {"delta": 10 ** 400}, {"delta": 2.0}, {"N_grid": [1, 2]},
        {"N_grid": [3, 2, 1]}, {"N_grid": [0, 1, 2]}, {"n_seeds": 0},
    ], ids=["huge-delta", "delta-above-one", "two-entry-grid",
            "decreasing-grid", "zero-grid-entry", "zero-seeds"])
    def test_keller_spec_checks_its_grid_before_writing(self, tmp_path,
                                                        capsys, overrides):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            tasks=["keller"], model_params={}, task_params={},
            out_dir=str(tmp_path / "results"), **overrides)))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("model, key, value", [
        ("lattice", "radius", "a"),
        ("lattice", "jitter", math.nan),
        ("lattice", "spacing", math.inf),
        ("lattice", "radius", True),
        ("lattice", "jitter", None),
        ("lattice", "allow_overlap", "no"),
        ("lattice", "allow_overlap", 0),
        ("lattice", "contact_tol", [1e-12]),
        ("chains", "chain_len_max", 2.5),
        ("chains", "max_attempts", "200"),
        ("chains", "gap_range", [0.01, 0.1, 0.2]),
        ("chains", "gap_range", [0.01, math.nan]),
        ("chains", "gap_range", 0.1),
        ("hardcore", "min_gap", -math.inf),
    ], ids=_value_id)
    def test_run_with_mistyped_model_value_exits_2(self, tmp_path, capsys,
                                                   model, key, value):
        model_params = {
            "lattice": {"spacing": 1.0, "radius": 0.3, "jitter": 0.0},
            "chains": {"radius": 1.0, "chain_len_max": 8,
                       "gap_range": [0.01, 0.1]},
            "hardcore": {"intensity": 0.05, "radius": 0.9, "min_gap": 0.05},
        }[model]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            model=model, model_params={**model_params, key: value},
            out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_PARSE_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("model, model_params, spec_hash", [
        ("chains", {"radius": 1, "chain_len_max": 8.0,
                    "gap_range": [0.01, 0.1], "chain_density": 0.002,
                    "max_attempts": 200},
         "2f3e254f40015fd720f1106cae69e731fbfe7eae08d99aa9237fdb94d8f1ef2f"),
        ("lattice", {"spacing": 1, "radius": 0.3, "jitter": 0.0,
                     "allow_overlap": False, "contact_tol": 1e-12},
         "4ec0cca94f940bbd6943c308cbc99ca42284ae0ce88491fc7c103c6347d1a8a8"),
    ], ids=["chains", "lattice"])
    def test_model_value_checks_keep_the_spec_hash(self, model, model_params,
                                                   spec_hash):
        doc = spec_dict(model=model, model_params=model_params)
        if model == "chains":
            doc.update(delta=0.2, N_grid=[30, 40, 50])
        spec = ExperimentSpec.from_dict(doc)
        assert spec.model_params == model_params
        assert spec.hash() == spec_hash

    def test_run_with_broken_spec_exits_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{broken")
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize("model, key, value, message", [
        ("chains", "max_attempts", 0, "max_attempts must be >= 1"),
        ("chains", "max_attempts", -5, "max_attempts must be >= 1"),
        ("chains", "chain_density", -1, "chain_density must be finite"),
        ("chains", "chain_len_max", 1e12, "chain_len_max must be in"),
        ("hardcore", "max_attempts", 0, "max_attempts must be >= 1"),
        ("hardcore", "max_attempts", -5, "max_attempts must be >= 1"),
        ("chains", "chain_density", 1e305,
         "chain_density * (2N)^3 must be at most 10**8"),
        ("hardcore", "intensity", 1e305,
         "intensity * (2N)^3 must be at most 10**8"),
    ], ids=["chains-zero-attempts", "chains-negative-attempts",
            "chains-negative-density", "chains-huge-length",
            "hardcore-zero-attempts", "hardcore-negative-attempts",
            "chains-huge-density", "hardcore-huge-intensity"])
    def test_run_with_out_of_range_generator_value_fails_every_cell(
            self, tmp_path, capsys, model, key, value, message):
        # The generator's range check runs at validation, so no cell fails:
        # the spec exits 3 with one line and creates nothing.
        model_params = {
            "chains": {"radius": 1.0, "chain_len_max": 8,
                       "gap_range": [0.01, 0.1]},
            "hardcore": {"intensity": 0.05, "radius": 0.9, "min_gap": 0.05},
        }[model]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            model=model, model_params={**model_params, key: value},
            N_grid=[6, 7, 8], out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and message in errors[0]
        assert not (tmp_path / "results").exists()

    def test_criteria_with_out_of_range_generator_value_exits_3(
            self, tmp_path, capsys):
        out_path = tmp_path / "series.json"
        code = main(["--out", str(out_path), "criteria", "--model", "chains",
                     "--chain-len-max", "0", "--statistic", "logmoment",
                     "--delta", "0.2", "--N-grid", "10,12,14",
                     "--n-seeds", "1"])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err == "error: chain_len_max must be in [1, 10**6]\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["criteria", "--statistic", "logmoment", "--delta", "1.5"],
        ["effective", "--delta", "0"],
    ], ids=["criteria-delta-above-one", "effective-zero-delta"])
    def test_scan_subcommand_with_bad_delta_exits_3_before_any_cell(
            self, tmp_path, capsys, monkeypatch, argv):
        cells = count_calls(monkeypatch, stiffnet.criteria, "ScanCell")
        out_path = tmp_path / "series.json"
        code = main(["--out", str(out_path), argv[0], "--model", "lattice",
                     "--radius", "0.3", "--N-grid", "3,4,5", "--n-seeds", "1",
                     *argv[1:]])
        assert code == EXIT_VALIDATION_ERROR
        assert capsys.readouterr().err == "error: delta must lie in (0, 1)\n"
        assert cells == [] and not out_path.exists()

    @pytest.mark.parametrize("layer", ["-1", "0"])
    def test_effective_with_bad_layer_width_exits_3_before_any_cell(
            self, tmp_path, capsys, monkeypatch, layer):
        cells = count_calls(monkeypatch, stiffnet.criteria, "ScanCell")
        out_path = tmp_path / "tensors.json"
        code = main(["--out", str(out_path), "effective", "--model",
                     "lattice", "--radius", "0.3", "--delta", "0.5",
                     "--N-grid", "3,4,5", "--layer-width", layer])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: task parameter 'layer_width' must be "
                              "finite and positive") and err.count("\n") == 1
        assert cells == [] and not out_path.exists()

    def test_run_with_cell_errors_exits_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            delta=0.05, tasks=["h2"], task_params={"s": 4.0},
            out_dir=str(tmp_path / "results"))))
        code = main(["run", "--spec", str(spec_path)])
        assert code == EXIT_CELL_ERRORS

    def test_h1_with_overflowing_energy_reports_each_cell(self, capsys):
        # A finite family whose energy overflows is a cell error, not a
        # null value, and prints no numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["criteria", "--statistic", "h1", "--model",
                         "lattice", "--radius", "0.4", "--jitter", "0.05",
                         "--N-grid", "2,3,4", "--n-seeds", "1",
                         "--delta", "0.5", "--xi", "1e200,0,0"])
        assert code == EXIT_CELL_ERRORS
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["errors"]) == 3
        err = captured.err.splitlines()
        assert len(err) == 3
        for line, N in zip(err, (2.0, 3.0, 4.0)):
            assert line.startswith(f"error: N={N} seed_index=0: energy is "
                                   "not finite")

    def test_keller_subcommand(self, capsys):
        code = main(["keller", "--a", "1", "--d", "1",
                     "--nu-grid", "1e-2,1e-3,1e-4"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(math.pi / 2, rel=0.02)

    def test_keller_subcommand_refuses_infinite_gamma(self, capsys):
        assert main(["keller", "--gamma", "inf"]) == EXIT_VALIDATION_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["criteria", "--model", "lattice", "--radius", "0.3",
          "--delta", "0.05", "--N-grid", "3,4,5", "--n-seeds", "1",
          "--statistic", "h2"], "graph has no edges"),
        (["effective", "--model", "lattice", "--radius", "0.3",
          "--delta", "0.5", "--N-grid", "3,4,5"], "tensor solve failed"),
    ], ids=["criteria-h2-edgeless", "effective-failed-tensor"])
    def test_scan_subcommand_reports_cell_errors(self, tmp_path, capsys,
                                                 monkeypatch, argv, message):
        def failed_tensor(graph, layer_width):
            raise RuntimeError("tensor solve failed")

        monkeypatch.setattr(stiffnet.effective, "network_effective_tensor",
                            failed_tensor)
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

    @pytest.mark.parametrize("threads", ["0", "-1", "65"])
    def test_threads_out_of_range_exits_3_before_writing(
            self, tmp_path, capsys, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(stiffnet.criteria, "ThreadPoolExecutor", no_pool)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec_dict(
            out_dir=str(tmp_path / "results"))))
        code = main(["--threads", threads, "run", "--spec", str(spec_path)])
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert err == f"error: --threads must be in [1, 64], got {threads}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("argv, defaults", [
        *((["criteria", "--statistic", statistic],
           ["--s", "4.0", "--k", "2.0", "--p", "2.0", "--xi", "1,0,0"])
          for statistic in ("h1", "h2", "logmoment", "clustermoment",
                            "density")),
        (["effective"], ["--layer-width", "0.5"]),      # the delta
        (["keller"], ["--a", "1.0", "--d", "1.0", "--gamma", "1.0",
                      "--nu-grid", "1e-2,1e-3,1e-4,1e-5,1e-6"]),
    ], ids=["criteria-h1", "criteria-h2", "criteria-logmoment",
            "criteria-clustermoment", "criteria-density", "effective",
            "keller"])
    def test_task_flags_at_their_old_defaults_print_the_same(
            self, capsys, argv, defaults):
        if argv[0] != "keller":
            argv = [*argv, "--model", "lattice", "--radius", "0.4",
                    "--jitter", "0.05", "--delta", "0.5",
                    "--N-grid", "1,1.5,2", "--n-seeds", "1"]
        assert main(argv) == EXIT_OK
        implicit = capsys.readouterr().out
        assert main([*argv, *defaults]) == EXIT_OK
        assert capsys.readouterr().out == implicit

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


# A small lattice spec that sets every key of every scan task.
EVERY_SCAN_KEY_SPEC = {
    "version": 1, "model": "lattice",
    "model_params": {"spacing": 1.0, "radius": 0.4, "jitter": 0.05},
    "delta": 0.5, "N_grid": [1, 1.5, 2], "n_seeds": 1, "base_seed": 0,
    "tasks": ["h1", "h2", "logmoment", "clustermoment", "density",
              "effective"],
    "task_params": {"xi": [1, 0, 0], "s": 4.0, "n_starts": 1,
                    "max_ascent_iters": 5, "tol": 1e-6, "kappa": 0.05,
                    "k": 2.0, "p": 2.0, "n_samples": 50, "quantity": "diam",
                    "layer_width": 0.5},
}

DOCUMENTED_EXITS = (EXIT_OK, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR)

# One value of each JSON type: string, boolean, null, list, object, number.
JSON_TYPES = ("x", True, None, [], {}, 1)


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _paths(doc, path=()):
    """The path of every value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """``doc`` after one mutation, and the exit codes it may give.

    Drop a key or list entry, add a key to an object, change a value's
    JSON type, put NaN or an infinity in its place, or nest it in a list:
    any documented exit.  Replace a number by an integer beyond the float
    range: any documented exit.  Write a number as a string: exit 2.
    """
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(["drop", "add", "retype", "non-finite",
                                 "nest", "huge", "string"]))
    if kind == "add":
        objects = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
        _at(doc, draw(st.sampled_from(objects)))["extra"] = 1
        return doc, DOCUMENTED_EXITS
    if kind in ("huge", "string"):
        paths = [p for p in paths if _json_type(_at(doc, p)) == "number"]
    path = draw(st.sampled_from(paths))
    *head, key = path
    parent = _at(doc, head)
    if kind == "huge":
        parent[key] = draw(st.sampled_from([10 ** 400, -10 ** 400]))
    elif kind == "string":
        parent[key] = str(parent[key])
        return doc, (EXIT_PARSE_ERROR,)
    elif kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = copy.deepcopy(draw(st.sampled_from(
            [v for v in JSON_TYPES
             if _json_type(v) != _json_type(parent[key])])))
    elif kind == "non-finite":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        parent[key] = [parent[key]]
    return doc, DOCUMENTED_EXITS


def assert_documented_exit(doc, argv, exits=DOCUMENTED_EXITS):
    """Run ``main`` on ``doc`` written to a file: an exit in ``exits``,
    and a nonzero one with exactly one ``error:`` line on stderr."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "doc.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["--out", str(Path(work) / "out"),
                         *(arg.format(path) for arg in argv)])
    err = err.getvalue()
    assert code in exits, err
    if code != EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def lattice_config_doc():
    return generate_lattice_jitter(seed=0, N=1, spacing=1.0, radius=0.4,
                                   jitter=0.05).to_dict()


def lattice_graph_doc():
    config = SphereConfig.from_dict(lattice_config_doc())
    return build_graph(components(config), config, 0.5).to_dict()


# A keller-only spec that sets every keller key.
KELLER_SPEC = {
    "version": 1, "model": "lattice", "model_params": {}, "delta": 0.5,
    "N_grid": [1, 2, 3], "n_seeds": 1, "base_seed": 0, "tasks": ["keller"],
    "task_params": {"keller": {"a": 1.0, "d": 1.0, "gamma": 1.0,
                               "nu_grid": [1e-2, 1e-3]}},
}


class TestMalformedDocuments:
    """Each reader answers a mutated document with a documented exit."""

    def test_unmutated_documents_run(self):
        config = lattice_config_doc()
        assert_documented_exit(EVERY_SCAN_KEY_SPEC, ["run", "--spec", "{}"])
        assert_documented_exit(KELLER_SPEC, ["run", "--spec", "{}"])
        assert set(EVERY_SCAN_KEY_SPEC["task_params"]) == {
            key for row in TASKS.values() if row.output for key in row.params}
        assert set(KELLER_SPEC["task_params"]["keller"]) == set(
            stiffnet.criteria._KELLER)
        assert len(config["spheres"]) == 8

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=mutated(EVERY_SCAN_KEY_SPEC))
    def test_run_spec(self, case):
        assert_documented_exit(case[0], ["run", "--spec", "{}"], case[1])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=mutated(KELLER_SPEC))
    def test_run_keller_spec(self, case):
        assert_documented_exit(case[0], ["run", "--spec", "{}"], case[1])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=mutated(lattice_config_doc()))
    def test_graph_config(self, case):
        assert_documented_exit(case[0], ["graph", "--config", "{}",
                                         "--delta", "0.5"], case[1])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=mutated(lattice_graph_doc()),
           family=st.sampled_from(["affine", "midpoint"]))
    def test_energy_graph(self, case, family):
        assert_documented_exit(case[0], ["energy", "--graph", "{}",
                                         "--family", family], case[1])

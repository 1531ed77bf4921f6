"""Tests for the benchmark harness, config handling and the CLI."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from anovagp import emulator, gp
from anovagp.anova import IndexSelection
from anovagp.bench import (ExperimentConfig, build_simulator, derive_seed,
                           load_config, relative_error, run_experiment)
from anovagp.cli import main
from anovagp.emulator import load_emulator
from anovagp.exceptions import ConfigError, TrainingFailedError
from anovagp.simulators import ANALYTIC_SIMULATORS

CHEAP = {
    "simulator": {"name": "additive", "m": 2, "output_dim": 5},
    "tol_index": 1e-8,
    "n_train": 8,
    "n_test": 20,
    "pool_size": 40,
    "gp_restarts": 2,
    "gp_max_iter": 50,
    "sgp_gp_restarts": 1,
    "sgp_gp_max_iter": 50,
    "seed": 0,
}


def npz_bytes(meta: str, **members) -> bytes:
    """An npz archive of ``meta`` and ``members``, as bytes."""
    buf = io.BytesIO()
    np.savez(buf, meta=np.array(meta), **members)
    return buf.getvalue()


_ARCHIVE_META = {"schema_version": 2, "kind": "sgp"}

# a block over coordinates [1, 2]: 6 training points, outputs of size 4,
# rank 2; each archive below changes one member of it
_BLOCK = {"b0_mean": np.zeros(4), "b0_components": np.eye(4)[:, :2],
          "b0_eigenvalues": np.array([2.0, 1.0]),
          "b0_total_variance": np.float64(3.0),
          "b0_inputs": np.linspace(0.0, 1.0, 12).reshape(6, 2),
          "b0_values": np.zeros((6, 4)), "b0_targets": np.zeros((2, 6)),
          "b0_loghyp": np.zeros((2, 4))}
_SGP_META = {**_ARCHIVE_META, "blocks": [[1, 2]]}
_ANOVA_META = {**_ARCHIVE_META, "kind": "anova-gp", "blocks": [[1, 2]],
               "selection": {"orders": {"2": [[1, 2]]}, "weights": {},
                             "candidate_counts": {}}}
_ANOVA = {**_BLOCK, "anchor": np.zeros(3), "anchor_output": np.zeros(4)}


def sgp_bytes(**changes) -> bytes:
    return npz_bytes(json.dumps(_SGP_META), **{**_BLOCK, **changes})


def anova_bytes(meta=_ANOVA_META, **changes) -> bytes:
    return npz_bytes(json.dumps(meta), **{**_ANOVA, **changes})


# broken emulator archives and the end of the message each is reported with
BROKEN_ARCHIVES = {
    "meta-not-json": (npz_bytes("{not json"),
                      "is an npz archive whose 'meta' member is not a JSON "
                      "object"),
    "meta-without-blocks": (npz_bytes(json.dumps(_ARCHIVE_META)),
                            "is an emulator archive whose meta lists no "
                            "'blocks'"),
    "meta-only": (npz_bytes(json.dumps({**_ARCHIVE_META, "blocks": [[1]]})),
                  "is an incomplete emulator archive: b0_mean is not a file "
                  "in the archive"),
    "sgp-without-block": (npz_bytes(json.dumps({**_ARCHIVE_META,
                                                "blocks": []})),
                          "is an S-GP archive whose meta lists 0 blocks "
                          "instead of one"),
    "blocks-not-coordinates": (npz_bytes(json.dumps({**_ARCHIVE_META,
                                                     "blocks": [5]})),
                               "is an emulator archive whose meta 'blocks' "
                               "is not a list of coordinate lists"),
    "selection-not-mapping": (npz_bytes(json.dumps({
        **_ARCHIVE_META, "kind": "anova-gp", "blocks": [],
        "selection": []})),
        "is an emulator archive whose meta 'selection' is malformed"),
    "loghyp-columns": (sgp_bytes(b0_loghyp=np.zeros((2, 3))),
                       "is an emulator archive whose b0_loghyp has shape "
                       "(2, 3) where the other members of its block need "
                       "(2, 4)"),
    "inputs-rows": (sgp_bytes(b0_inputs=_BLOCK["b0_inputs"][:5]),
                    "is an emulator archive whose b0_values has shape (6, 4) "
                    "where the other members of its block need (5, 4)"),
    "targets-extra-row": (sgp_bytes(b0_targets=np.zeros((3, 6))),
                          "is an emulator archive whose b0_targets has shape "
                          "(3, 6) where the other members of its block need "
                          "(2, 6)"),
    "components-rows": (sgp_bytes(b0_components=np.eye(4)[:3, :2]),
                        "is an emulator archive whose b0_components has "
                        "shape (3, 2) where the other members of its block "
                        "need (4, 2)"),
    "mean-cut": (sgp_bytes(b0_mean=np.zeros(3)),
                 "is an emulator archive whose b0_components has shape "
                 "(4, 2) where the other members of its block need (3, 2)"),
    "anchor-output-cut": (anova_bytes(anchor_output=np.zeros(3)),
                          "is an ANOVA-GP archive whose block [1, 2] has 4 "
                          "outputs, its anchor_output 3"),
    "block-outside-anchor": (anova_bytes({**_ANOVA_META, "blocks": [[2, 7]]}),
                             "is an ANOVA-GP archive whose block [2, 7] has "
                             "coordinates outside 1..3, the inputs of its "
                             "anchor"),
    "anchor-cut": (anova_bytes(anchor=np.zeros(1)),
                   "is an ANOVA-GP archive whose block [1, 2] has "
                   "coordinates outside 1..1, the inputs of its anchor"),
}


class TestRelativeError:
    def test_exact_prediction(self):
        y = np.array([1.0, -2.0, 3.0])
        assert relative_error(y, y) == 0.0

    def test_zero_prediction(self):
        y = np.array([3.0, 4.0])
        assert relative_error(np.zeros(2), y) == 1.0

    def test_squared_scaling(self):
        y = np.array([2.0, 0.0])
        assert np.isclose(relative_error(np.array([3.0, 0.0]), y), 0.25)

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(2), np.zeros(2))


def selection(*indices):
    """An IndexSelection holding the given indices, grouped by order in the
    order given."""
    orders = {}
    for t in indices:
        orders.setdefault(len(t), []).append(t)
    return IndexSelection(orders=orders)


class TestIndexOrder:
    """``IndexSelection.indices`` is the one alphabetical term order."""

    def test_order_dominates(self):
        assert selection((3,), (1, 2)).indices == [(3,), (1, 2)]
        assert selection((1, 2), (3,)).indices == [(3,), (1, 2)]

    def test_lexicographic_within_order(self):
        assert selection((1, 3), (2, 3)).indices == [(1, 3), (2, 3)]
        assert selection((2, 3), (1, 3)).indices == [(1, 3), (2, 3)]

    def test_equal(self):
        assert (selection((), (1, 2), (2,), (1,)).indices
                == selection((1,), (1, 2), (), (2,)).indices
                == [(), (1,), (2,), (1, 2)])

    def test_sorting(self):
        items = [(2, 3), (1,), (1, 2), (3,), (1, 2, 3)]
        assert selection(*items).indices == [(1,), (3,), (1, 2), (2, 3),
                                             (1, 2, 3)]

    def test_dict_roundtrip(self):
        sel = selection((), (2,), (1,), (1, 2))
        sel.weights = {(1,): 0.5, (2,): 0.25, (1, 2): 1e-3}
        sel.candidate_counts = {1: 2, 2: 1}
        data = json.loads(json.dumps(sel.to_dict()))
        assert data["orders"] == {"0": [[]], "1": [[1], [2]], "2": [[1, 2]]}
        again = IndexSelection.from_dict(data)
        assert again.indices == sel.indices
        assert again.weights == sel.weights
        assert again.candidate_counts == sel.candidate_counts


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_distinct_stages(self):
        seeds = {derive_seed(0, s) for s in range(1, 5)}
        assert len(seeds) == 4

    def test_master_changes_everything(self):
        assert derive_seed(0, 1) != derive_seed(1, 1)


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict(dict(CHEAP))
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"tol_idx": 1e-4})

    @pytest.mark.parametrize("patch", [
        {"tol_index": 0.0},
        {"tol_pca": 1.5},
        {"n_test": 0},
        {"pool_size": 5, "n_train": 10},
        {"denominator": "frozen"},
        {"sgp_budget": 0},
        {"simulator": {"elements_per_side": 8}},
    ])
    def test_invalid_values_rejected(self, patch):
        data = dict(CHEAP)
        data.update(patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("patch", [
        {"n_train": 2.5},
        {"n_test": True},
        {"max_order": True},
        {"seed": "x"},
        {"seed": -1},
        {"gp_restarts": -3},
        {"sgp_gp_max_iter": 0},
        {"gp_max_iter": 0},
        {"sgp_gp_restarts": 0},
        {"sgp_budget": True},
        {"tol_index": True},
        {"tol_index": "nan"},
        {"simulator": "filename"},
        {"simulator": {"name": "additive", "m": 2, "outputdim": 5}},
        {"simulator": {"name": "additive", "m": 2.5}},
        {"simulator": {"name": "additive", "m": -1}},
        {"simulator": {"name": "additive", "m": 0}},
        {"simulator": {"name": "additive", "output_dim": 0}},
        {"simulator": {"name": "rank-one-product", "output_dim": -2}},
        {"simulator": {"name": "polynomial-mix", "output_dim": 0}},
        {"simulator": {"name": "diffusion", "elements": 8}},
        {"simulator": {"name": "diffusion", "k_side": True}},
        {"simulator": {"name": ["diffusion"]}},
        *({"simulator": {"name": "diffusion", "coeff_interval": interval}}
          for interval in ([0.0, 1.0], [1.0, 0.5], [0.5, 0.5], [-1.0, 1.0],
                           [0.1, math.inf], [math.nan, 1.0], [0.1],
                           [0.1, 0.5, 1.0], "ab")),
    ])
    def test_bad_values_exit_code(self, tmp_path, capsys, patch):
        """Each bad value raises ConfigError and exits 2 from the CLI,
        whether ``load_config`` or ``build_simulator`` catches it."""
        data = {**CHEAP, **patch}
        with pytest.raises(ConfigError):
            build_simulator(ExperimentConfig.from_dict(data).simulator)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["decompose", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    @pytest.mark.parametrize("name", sorted(ANALYTIC_SIMULATORS))
    def test_every_analytic_simulator_is_a_config_name(self, name):
        sim = build_simulator({"name": name, "m": 3, "output_dim": 5})
        assert type(sim) is ANALYTIC_SIMULATORS[name]
        assert (sim.input_dim, sim.output_dim) == (3, 5)

    def test_load_json_and_yaml(self, tmp_path):
        jpath = tmp_path / "c.json"
        jpath.write_text(json.dumps(CHEAP))
        ypath = tmp_path / "c.yaml"
        ypath.write_text("\n".join(
            f"{k}: {json.dumps(v)}" for k, v in CHEAP.items()))
        assert load_config(str(jpath)) == load_config(str(ypath))

    def test_load_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig.from_dict(dict(CHEAP))
    return run_experiment(cfg, out_dir=str(out)), out


class TestRunExperiment:
    def test_error_counts(self, report):
        rep, _ = report
        assert len(rep.errors["anova_gp"]) == 20
        assert len(rep.errors["sgp"]) == 20
        assert not rep.undefined_errors

    def test_additive_emulator_wins(self, report):
        rep, _ = report
        # the additive simulator is exactly captured by first-order terms
        assert rep.summaries["anova_gp"]["median"] < 1e-8
        assert rep.summaries["anova_gp"]["median"] <= rep.summaries["sgp"]["median"]

    def test_term_table(self, report):
        rep, _ = report
        by_order = {row["order"]: row for row in rep.term_table}
        assert by_order[1] == {"order": 1, "candidates": 2, "selected": 2}
        assert by_order[2]["selected"] == 0

    def test_call_accounting(self, report):
        rep, _ = report
        calls = rep.simulator_calls
        assert calls["total"] == (calls["decomposition"]
                                  + calls["active_training"]
                                  + calls["sgp_training"] + calls["testing"])
        # matched budget: n_train * number of selected nonempty terms
        assert calls["sgp_training"] == 8 * 2
        assert calls["testing"] == 20

    def test_artifacts_written(self, report):
        _, out = report
        for name in ("errors.csv", "report.json", "config.json",
                     "anova_gp.npz", "sgp.npz"):
            assert (out / name).exists()

    def test_errors_csv_exact_floats(self, report):
        rep, out = report
        with open(out / "errors.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        got = [float(r["relative_error"]) for r in rows
               if r["method"] == "anova_gp"]
        assert got == rep.errors["anova_gp"]

    def test_report_json_matches(self, report):
        rep, out = report
        with open(out / "report.json") as fh:
            data = json.load(fh)
        assert data["summaries"] == rep.summaries
        assert data["config"] == rep.config

    def test_report_records_blas_threads(self, report):
        """report.json holds the OpenBLAS thread count per library file
        the run ran at; the run leaves every count as it found it."""
        rep, out = report
        with open(out / "report.json") as fh:
            recorded = json.load(fh)["blas_threads"]
        assert recorded == rep.blas_threads == gp.blas_thread_counts()
        assert all(name.endswith(".so") and count >= 1
                   for name, count in recorded.items())

    def test_seed_reproducibility(self, report):
        rep, _ = report
        again = run_experiment(ExperimentConfig.from_dict(dict(CHEAP)))
        assert again.errors == rep.errors

    def test_different_seed_differs(self, report):
        rep, _ = report
        data = dict(CHEAP)
        data["seed"] = 1
        other = run_experiment(ExperimentConfig.from_dict(data))
        assert other.errors["anova_gp"] != rep.errors["anova_gp"]

    def test_explicit_sgp_budget(self):
        data = dict(CHEAP)
        data["sgp_budget"] = 5
        data["n_test"] = 5
        rep = run_experiment(ExperimentConfig.from_dict(data))
        assert rep.simulator_calls["sgp_training"] == 5


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CHEAP))
        return str(path)

    def test_benchmark_and_artifacts(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        code = main(["benchmark", "--config", config_path,
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "anova_gp" in printed and "sgp" in printed
        assert (out / "errors.csv").exists()

    def test_train_and_benchmark_print_the_medians(self, tmp_path,
                                                   config_path, capsys):
        printed = []
        for name in ("train", "benchmark"):
            assert main([name, "--config", config_path,
                         "--out", str(tmp_path / name)]) == 0
            printed.append(capsys.readouterr().out.splitlines())
        assert printed[0] == printed[1]
        assert [line.split(":")[0] for line in printed[0]] == ["anova_gp",
                                                               "sgp"]

    def test_decompose_stdout(self, config_path, capsys):
        assert main(["decompose", "--config", config_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orders"]["1"] == [[1], [2]]
        assert payload["candidate_counts"]["2"] == 1

    def test_predict_and_inspect(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_path,
                     "--out", str(out)]) == 0
        capsys.readouterr()

        points_cfg = tmp_path / "points.json"
        points_cfg.write_text(json.dumps(
            {"points": [[0.2, 0.7], [0.9, 0.1]]}))
        assert main(["predict", "--config", str(points_cfg),
                     "--emulator", str(out / "anova_gp.npz")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        row = lines[0].split(",")
        assert row[0] == "0" and len(row) == 6

        assert main(["inspect", "--emulator",
                     str(out / "anova_gp.npz")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "anova-gp"
        assert [t["index"] for t in payload["terms"]] == [[1], [2]]

        assert main(["inspect", "--emulator", str(out / "sgp.npz"),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "sgp"

    @pytest.mark.parametrize("argv", [
        ["predict", "--config", "p.json", "--emulator", "e.npz", "--seed", "1"],
        ["predict", "--config", "p.json", "--emulator", "e.npz",
         "--format", "csv"],
        ["inspect", "--emulator", "e.npz", "--seed", "1"],
        ["inspect", "--emulator", "e.npz", "--out", "x"],
        ["decompose", "--config", "c.json", "--format", "csv"],
        ["train", "--config", "c.json", "--format", "json"],
    ])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("width, n_rows, expected", [
        (1, 7, "term (1,), mode 0, train_local refit 2 (N=7): "),
        (2, 16, "term sgp, mode 0, train_sgp (N=16): "),
    ])
    def test_training_failure_names_source(self, tmp_path, config_path,
                                           monkeypatch, capsys, width,
                                           n_rows, expected):
        """A failed GP fit exits 1 naming the term, the mode and the stage:
        the first fit on 7 rows of a one-input term (its third refit) or
        the first fit on the S-GP's two inputs."""
        real_train_gp = emulator.train_gp

        def failing(inputs, targets, configs):
            if inputs.shape == (n_rows, width):
                raise TrainingFailedError("all restarts failed", mode=0)
            return real_train_gp(inputs, targets, configs)

        monkeypatch.setattr(emulator, "train_gp", failing)
        assert main(["train", "--config", config_path,
                     "--out", str(tmp_path / "run")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "TrainingFailedError",
                       "message": expected + "all restarts failed"}

    def test_memory_guard_exits_1(self, tmp_path, config_path, monkeypatch,
                                  capsys):
        """With physical memory set to 1 kB, the local fits (at most 8 rows
        of one input) run and the S-GP's pairs (16 rows of two inputs) fail
        before they are built: exit 1 naming the term, N, M and the
        bytes."""
        monkeypatch.setattr(gp, "_physical_memory", lambda: 1000.0)
        assert main(["train", "--config", config_path,
                     "--out", str(tmp_path / "run")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "TrainingFailedError",
            "message": "term sgp, mode None, train_sgp (N=16): the pair "
                       "distances of N=16 training rows in M=2 dimensions "
                       "need 3.74e+03 bytes, more than the 1e+03 bytes of "
                       "physical memory"}

    def test_inspect_sgp_csv(self, report, capsys):
        _, out = report
        capsys.readouterr()
        assert main(["inspect", "--emulator", str(out / "sgp.npz"),
                     "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "config"
        assert main(["inspect", "--emulator", str(out / "anova_gp.npz"),
                     "--format", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        locals_map = load_emulator(str(out / "anova_gp.npz")).locals
        assert rows == [["index", "rank", "n_train"]] + [
            [str(t[0]), str(block.rank), "8"] for t, block in locals_map.items()]
        assert list(locals_map) == [(1,), (2,)]

    def test_seed_override(self, tmp_path, config_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", config_path, "--out",
                     str(out_a), "--seed", "7"]) == 0
        assert main(["train", "--config", config_path, "--out",
                     str(out_b), "--seed", "7"]) == 0
        assert ((out_a / "errors.csv").read_bytes()
                == (out_b / "errors.csv").read_bytes())
        with open(out_a / "config.json") as fh:
            assert json.load(fh)["seed"] == 7

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tol_index": -1.0}))
        assert main(["benchmark", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["benchmark", "--config",
                     str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("name, text", [
        ("bad.json", '{"n_train": 8,'),
        ("bad.yaml", "n_train: [8\n"),
        ("bad.yml", "points: {a: 1\n"),
        ("binary.json", b"\xff\xfe{}"),
    ])
    @pytest.mark.parametrize("command", ["decompose", "predict"])
    def test_malformed_file_exit_code(self, tmp_path, report, capsys, name,
                                      text, command):
        """A config or points file that does not parse exits 2 with one
        JSON error line that names it, never with a traceback."""
        _, out = report
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = [command, "--config", str(path)]
        if command == "predict":
            argv += ["--emulator", str(out / "sgp.npz")]
        capsys.readouterr()
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config"
        assert err["message"].startswith(f"config file {path} does not parse")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("content", [b"not an archive\n", b"",
                                         b"PK\x03\x04truncated"] + [
        pytest.param(content, id=name)
        for name, (content, _) in BROKEN_ARCHIVES.items()])
    def test_inspect_non_archive_exit_code(self, tmp_path, capsys, content):
        path = tmp_path / "emulator.npz"
        path.write_bytes(content)
        assert main(["inspect", "--emulator", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        message = dict(BROKEN_ARCHIVES.values()).get(
            content, "is not an npz archive")
        assert json.loads(line) == {"error": "config",
                                    "message": f"{path} {message}"}

    def test_bad_predict_payload(self, tmp_path, config_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", config_path,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad_points.json"
        for payload in ({"wrong": 1}, {"points": [[0.5, 0.5], [0.5]]},
                        {"points": [["a", "b"]]}):
            bad.write_text(json.dumps(payload))
            assert main(["predict", "--config", str(bad),
                         "--emulator", str(out / "anova_gp.npz")]) == 2

    @pytest.mark.parametrize("archive", ["anova_gp.npz", "sgp.npz"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_predict_point_width(self, tmp_path, report, capsys, archive,
                                 width):
        _, out = report
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [[0.5] * width] * 2}))
        capsys.readouterr()
        assert main(["predict", "--config", str(points),
                     "--emulator", str(out / archive)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "config"

    @pytest.mark.parametrize("archive", ["anova_gp.npz", "sgp.npz"])
    @pytest.mark.parametrize("csv_file", [False, True])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_predict_non_finite_points(self, tmp_path, report, capsys,
                                       archive, csv_file, value):
        """A non-finite point exits 2 before any row is written; JSON reads
        1e400 as inf, a CSV reads nan and inf as themselves."""
        _, out = report
        points = tmp_path / "points.json"
        if csv_file:
            table = tmp_path / "points.csv"
            table.write_text(f"0.5,0.5\n0.5,{value}\n")
            points.write_text(json.dumps({"points_csv": str(table)}))
        else:
            text = {"nan": "NaN", "inf": "1e400"}[value]
            points.write_text(f'{{"points": [[0.5, 0.5], [{text}, 0.5]]}}')
        capsys.readouterr()
        assert main(["predict", "--config", str(points),
                     "--emulator", str(out / archive)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "config" and "finite; row 1 " in err["message"]

    @pytest.mark.parametrize("payload", [{"points": [[None, 0.5]]},
                                         {"points": {"x": 0.5}},
                                         {"points_csv": 5}])
    def test_predict_points_of_wrong_type(self, tmp_path, report, capsys,
                                          payload):
        """Points that are not numbers, or a points_csv that is not a path,
        exit 2 with one JSON error line."""
        _, out = report
        points = tmp_path / "points.json"
        points.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["predict", "--config", str(points),
                     "--emulator", str(out / "sgp.npz")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "config"

    @pytest.mark.parametrize("archive", ["anova_gp.npz", "sgp.npz"])
    def test_predict_relative_points_csv(self, tmp_path, report, capsys,
                                         monkeypatch, archive):
        """A relative points_csv is read beside its config, whatever the
        working directory; an absolute one is read as it stands."""
        _, out = report
        rows = [[0.5, 0.5], [0.2, 0.7]]
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "points.csv").write_text("0.5,0.5\n0.2,0.7\n")
        (sub / "cfg.json").write_text(json.dumps({"points_csv": "points.csv"}))
        (sub / "abs.json").write_text(
            json.dumps({"points_csv": str(sub / "points.csv")}))
        (sub / "inline.json").write_text(json.dumps({"points": rows}))
        # a table of another width in the working directory must not be read
        (tmp_path / "points.csv").write_text("0.5\n")
        monkeypatch.chdir(tmp_path)
        emulator_path = str(out / archive)
        printed = []
        for config in ("inline.json", "cfg.json", "abs.json"):
            capsys.readouterr()
            assert main(["predict", "--config", f"sub/{config}",
                         "--emulator", emulator_path]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0].count("\n") == 2
        assert printed[1] == printed[0] and printed[2] == printed[0]

    @pytest.mark.parametrize("csv_file", [False, True])
    def test_predict_empty_points(self, tmp_path, report, capsys, csv_file):
        """An empty table exits 2 with one JSON error line that says so, and
        writes nothing; an empty file is named and raises no warning."""
        _, out = report
        points = tmp_path / "points.json"
        table = tmp_path / "points.csv"
        if csv_file:
            table.write_text("")
            points.write_text(json.dumps({"points_csv": "points.csv"}))
        else:
            points.write_text(json.dumps({"points": []}))
        dest = tmp_path / "pred"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["predict", "--config", str(points), "--emulator",
                         str(out / "sgp.npz"), "--out", str(dest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not dest.exists()
        [line] = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "config" and "is empty" in err["message"]
        if csv_file:
            assert str(table) in err["message"]

    @pytest.mark.parametrize("patch", [{"schema_version": 1}, {"kind": "x"}])
    def test_bad_archive_exit_code(self, tmp_path, report, capsys, patch):
        _, out = report
        with np.load(str(out / "sgp.npz"), allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta.update(patch)
        arrays["meta"] = np.array(json.dumps(meta))
        bad = tmp_path / "bad.npz"
        np.savez(str(bad), **arrays)
        points = tmp_path / "points.json"
        points.write_text(json.dumps({"points": [[0.5, 0.5]]}))
        capsys.readouterr()
        assert main(["predict", "--config", str(points),
                     "--emulator", str(bad)]) == 2
        assert main(["inspect", "--emulator", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err.splitlines()[0])[
            "error"] == "config"

"""Config parsing/validation and the command-line surface."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedmmg
from fedmmg.cli import COLUMNS, main, write_outputs
from fedmmg.config import (ConfigError, DataSection, ExperimentConfig,
                           FederationSection, MissingnessSection, ModelSection,
                           assemble_run, parse_config, validate_config)
from fedmmg.federation import (FederationAborted, RoundHistory, RoundRecord,
                               run_federation, worker_count)
from fedmmg.graphdata import load_graph
from fedmmg.metrics import MetricsRow
from fedmmg.tasks import LossBreakdown

# JSON values of every shape, plus values of the right type near the ranges
# validate_config checks, so documents reach both the type and range checks.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_VALUE = (st.integers(-3, 300) | st.floats(-1.0, 2.0)
          | st.sampled_from(["sbm", "file", "node", "mixed", "fedavg", "nc", "mr"])
          | st.lists(st.floats(0.0, 1.0), max_size=4) | _JSON)


def _float_settings():
    """(dotted key, holds a list) of every float setting of the four sections."""
    for section in ("data", "missingness", "federation", "model"):
        hints = typing.get_type_hints(type(getattr(ExperimentConfig(), section)))
        for key, hint in hints.items():
            args = typing.get_args(hint)
            if hint is float or float in args or list[float] in args:
                yield f"{section}.{key}", list[float] in args


def _section_docs(cls):
    keys = st.sampled_from([f.name for f in dataclasses.fields(cls)])
    return st.dictionaries(keys, _VALUE, max_size=4) | _JSON


_DOCS = _JSON | st.fixed_dictionaries({}, optional={
    "seed": _VALUE, "task": _VALUE, "out": _VALUE,
    "data": _section_docs(DataSection),
    "missingness": _section_docs(MissingnessSection),
    "federation": _section_docs(FederationSection),
    "model": _section_docs(ModelSection)})


class TestConfigDefaults:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = parse_config(str(path))
        assert cfg.missingness.rate == 0.3
        assert cfg.federation.alpha == 0.5
        assert cfg.model.lr == 0.005
        assert cfg.model.local_epochs == 3
        assert cfg.model.hidden_dim == 256
        assert cfg.model.router_temperature == 1.0
        assert cfg.model.warmup_rounds == 30
        assert cfg.model.heads == 4
        assert cfg.model.neighbor_cap == 16
        assert cfg.model.clip_norm == 1.0
        assert cfg.federation.fraction == 1.0
        assert (cfg.federation.eta_u, cfg.federation.eta_e,
                cfg.federation.eta_rho) == (1.0, 1.0, 1.0)
        assert cfg.data.d_img == 512 and cfg.data.d_txt == 768

    def test_no_file_same_as_empty(self):
        assert parse_config(None).to_dict() == ExperimentConfig().to_dict()

    def test_assemble_run_carries_every_model_setting(self):
        # every model setting, each off its default, and the task reach the
        # model config
        doc = _small_cfg_doc()
        doc["model"] = {"hidden_dim": 12, "heads": 3, "neighbor_cap": 5,
                        "warmup_rounds": 7, "router_temperature": 0.5,
                        "gnn_layers": 1, "lr": 0.002, "local_epochs": 2,
                        "clip_norm": 0.5, "lambda_rec": 0.3, "lambda_align": 0.02,
                        "lambda_route": 0.03, "lambda_bal": 0.25}
        cfg = ExperimentConfig.from_dict(doc)
        section = dataclasses.asdict(cfg.model)
        defaults = dataclasses.asdict(ModelSection())
        assert all(section[key] != defaults[key] for key in defaults)
        setup = assemble_run(cfg).setup
        assert {key: getattr(setup.model_cfg, key) for key in section} == section
        assert setup.model_cfg.task == cfg.task and setup.model_cfg.rec_weight == 0.3

    @pytest.mark.parametrize("task, lambda_rec", [("nc", 0.05), ("lp", 0.05),
                                                  ("mr", 0.5)])
    def test_unset_reconstruction_weight_takes_the_task_default(self, task, lambda_rec):
        doc = _small_cfg_doc()
        doc["task"] = task
        model_cfg = assemble_run(ExperimentConfig.from_dict(doc)).setup.model_cfg
        assert model_cfg.task == task and model_cfg.rec_weight == lambda_rec


class TestConfigValidation:
    def test_out_of_range_rate(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"missingness": {"rate": 1.5}}))
        with pytest.raises(ConfigError, match="missingness.rate"):
            parse_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"federation": {"stragglers": 2}}))
        with pytest.raises(ConfigError, match="stragglers"):
            parse_config(str(path))

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"telemetry": True}))
        with pytest.raises(ConfigError, match="telemetry"):
            parse_config(str(path))

    def test_flag_overrides_file_value(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "federation": {"mode": "fedavg"}}))
        cfg = parse_config(str(path), {"seed": 9,
                                       "federation.mode": "reliability"})
        assert cfg.seed == 9
        assert cfg.federation.mode == "reliability"

    def test_flag_override_creates_a_missing_section(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1}))
        cfg = parse_config(str(path), {"federation.rounds": 3})
        assert (cfg.seed, cfg.federation.rounds) == (1, 3)
        assert cfg.federation.clients == FederationSection().clients

    @pytest.mark.parametrize("dotted, unknown", [
        ("federation.stragglers", "federation: unknown key 'stragglers'"),
        ("telemetry.on", "<root>: unknown key 'telemetry'"),
        ("telemetry", "<root>: unknown key 'telemetry'")])
    def test_unknown_flag_override_rejected(self, dotted, unknown):
        with pytest.raises(ConfigError, match=f"^{re.escape(unknown)}$"):
            parse_config(None, {dotted: 1})

    def test_wrongly_typed_flag_override_rejected(self):
        with pytest.raises(ConfigError, match="wrong type for 'federation.rounds'"):
            parse_config(None, {"federation.rounds": "3"})

    @pytest.mark.parametrize("doc", [{"federation": 3}, [1, 2]], ids=["section", "root"])
    def test_flag_override_into_a_non_object_rejected(self, tmp_path, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            parse_config(str(path), {"federation.mode": "fedavg"})

    def test_round_trip_equality(self, tmp_path):
        cfg = parse_config(None, {"seed": 5, "task": "lp",
                                  "federation.rounds": 7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        again = parse_config(str(path))
        assert again.to_dict() == cfg.to_dict()

    def test_wrong_type_rejected_before_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"hidden_dim": "32"}}))
        with pytest.raises(ConfigError, match="model.hidden_dim"):
            parse_config(str(path))

    def test_bool_is_not_a_number_but_int_is_a_float(self):
        with pytest.raises(ConfigError, match="federation.clients"):
            parse_config(None, {"federation.clients": True})
        assert parse_config(None, {"data.p_in": 1}).data.p_in == 1

    @settings(max_examples=300, deadline=None)
    @given(doc=_DOCS)
    def test_any_json_document_parses_or_raises_config_error(
            self, doc, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc))
        try:
            cfg = parse_config(str(path))
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key, is_list", list(_float_settings()))
    def test_non_finite_float_rejected(self, key, is_list, value):
        # json reads Infinity and NaN; no setting may take one
        section, name = key.split(".")
        doc = {section: {name: [value] if is_list else value}}
        with pytest.raises(ConfigError,
                           match=f"^value out of range for {re.escape(repr(key))}$"):
            ExperimentConfig.from_dict(doc)

    def test_per_client_rates_need_one_rate_per_client(self, tmp_path, capsys,
                                                       monkeypatch):
        def generate(**kwargs):
            raise AssertionError("a graph was generated")
        monkeypatch.setattr("fedmmg.config.generate_sbm_multimodal", generate)
        cfg_path = tmp_path / "rates.json"
        cfg_path.write_text(json.dumps({"federation": {"clients": 3},
                                        "missingness": {"per_client_rates": [0.1, 0.2]}}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "invalid configuration: value out of range for 'missingness.per_client_rates'\n")

    def test_invalid_mode_strings(self):
        cfg = ExperimentConfig()
        cfg.federation.mode = "secure-agg"
        with pytest.raises(ConfigError):
            validate_config(cfg)
        cfg = ExperimentConfig()
        cfg.task = "regression"
        with pytest.raises(ConfigError):
            validate_config(cfg)


def python_m_fedmmg(*args):
    """``python -m fedmmg *args`` in a fresh interpreter that imports this
    fedmmg, with its output captured."""
    src = os.path.dirname(os.path.dirname(fedmmg.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "fedmmg", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)


def _small_cfg_doc():
    return {
        "data": {"blocks": 2, "nodes_per_block": 10, "d_img": 8, "d_txt": 6},
        "federation": {"clients": 2, "rounds": 2},
        "model": {"hidden_dim": 8, "warmup_rounds": 5},
    }


class TestCli:
    def test_run_writes_outputs_and_is_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["run", "--config", str(cfg_path), "--seed", "3",
                         "--out", str(out)])
            assert code == 0
            outs.append(out)
        for fname in ("metrics.csv", "rounds.jsonl"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b

    def test_worker_flag_preserves_bytes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        blobs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            assert main(["run", "--config", str(cfg_path), "--seed", "5",
                         "--workers", workers, "--out", str(out)]) == 0
            blobs.append(((out / "metrics.csv").read_bytes(),
                          (out / "rounds.jsonl").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_csv_has_one_row_per_round(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        doc = _small_cfg_doc()
        doc["federation"]["rounds"] = 3
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == ("round,client_frac,omega_min,omega_max,"
                            "loss_task,loss_rec,loss_align,loss_route,"
                            "metric_1,metric_2")
        assert len(lines) == 1 + 3

    def test_outputs_have_only_the_declared_columns_and_keys(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        header, *rows = (out / "metrics.csv").read_text().strip().split("\n")
        assert header.split(",") == [name for name, _ in COLUMNS]
        assert rows and all(len(row.split(",")) == len(COLUMNS) for row in rows)
        records = [json.loads(line)
                   for line in (out / "rounds.jsonl").read_text().splitlines()]
        summary = json.loads((out / "summary.json").read_text())
        records += [summary["last_round"], summary["best_round"]]
        keys = {"round", "client_frac", "omega", "losses", "mean_loss", "metrics",
                "errors"}
        assert all(isinstance(rec, dict) and set(rec) == keys for rec in records)

    @pytest.mark.parametrize("omega, metric_1", [
        ({0: 0.3, 1: math.nan, 2: 0.2}, 0.5),   # min() and max() would skip it
        ({0: 0.3, 1: 0.5, 2: 0.2}, math.inf),
    ], ids=["nan-omega-not-first", "infinite-metric-1"])
    def test_non_finite_round_aborts_without_writing(self, tmp_path, omega, metric_1):
        loss = LossBreakdown(task=1.0, rec=1.0, align=1.0, route=1.0, total=1.0)

        def record(index, omega, metric_1):
            return RoundRecord(round_index=index, client_frac=1.0, omega=omega,
                               losses={c: loss for c in omega}, mean_loss=loss,
                               metrics=MetricsRow(("accuracy", "macro_f1"),
                                                  (metric_1, 0.5)))

        history = RoundHistory(mode="reliability", task="nc", records=[
            record(0, {0: 0.3, 1: 0.5, 2: 0.2}, 0.5), record(1, omega, metric_1)])
        with pytest.raises(FederationAborted) as err:
            write_outputs(str(tmp_path), ExperimentConfig(), history, 0.0)
        assert str(err.value) == "non-finite value in round 1"
        assert not (tmp_path / "metrics.csv").exists()

    def test_mode_recorded_in_summary(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        for mode in ("reliability", "fedavg", "fedavg-zero"):
            out = tmp_path / mode
            assert main(["run", "--config", str(cfg_path), "--mode", mode,
                         "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["mode"] == mode
            assert summary["config"]["federation"]["mode"] == mode

    def test_every_emitted_number_finite(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            for field in row.split(","):
                assert np.isfinite(float(field))

    def test_per_round_timings_on_stderr(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = _small_cfg_doc()
        doc["federation"]["rounds"] = 3
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 0
        rounds = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("round ")]
        assert [line.split(":")[0] for line in rounds] == \
            ["round 0", "round 1", "round 2"]
        assert all(line.endswith(" ms") for line in rounds)

    def test_zero_rounds_still_prints_the_completion_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = _small_cfg_doc()
        doc["federation"]["rounds"] = 0
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(rf"completed 0 rounds in 0 ms \(outputs in {re.escape(str(out))}\); "
                            r"peak RSS \d+\.\d MB", err[0])

    def test_peak_rss_goes_to_stderr_only(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--workers", "2",
                     "--out", str(out)]) == 0
        done = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("completed ")]
        assert len(done) == 1
        assert re.search(r"; peak RSS \d+\.\d MB", done[0])
        # the same run written without the command line gives the same bytes
        cfg = parse_config(str(cfg_path), {"federation.workers": 2, "out": str(out)})
        assembly = assemble_run(cfg)
        forked = re.search(r", largest worker \d+\.\d MB$", done[0]) is not None
        assert forked == (worker_count(assembly.setup) > 1)
        plain = tmp_path / "plain"
        write_outputs(str(plain), cfg, run_federation(assembly.setup),
                      assembly.missing_fraction)
        for name in ("metrics.csv", "rounds.jsonl", "summary.json"):
            assert (out / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize("key", ["federation.eta_u", "federation.alpha"])
    def test_non_finite_value_exits_one(self, tmp_path, capsys, key):
        section, name = key.split(".")
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(f'{{"{section}": {{"{name}": Infinity}}}}')
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"invalid configuration: value out of range for '{key}'\n"

    def test_wrong_type_exits_one_without_traceback(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"model": {"hidden_dim": "32"}}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and "model.hidden_dim" in err

    @staticmethod
    def _graph_file(tmp_path, edit):
        """A generated graph file changed by ``edit``, and a config using it."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        target = tmp_path / "graph.json"
        assert main(["gen-data", "--config", str(cfg_path),
                     "--out", str(target)]) == 0
        doc = json.loads(target.read_text())
        edit(doc)
        target.write_text(json.dumps(doc))
        run_doc = _small_cfg_doc()
        run_doc["data"] = {"kind": "file", "path": str(target)}
        cfg_path.write_text(json.dumps(run_doc))
        return cfg_path

    def test_one_dimensional_mask_file_exits_one(self, tmp_path, capsys):
        def flatten(doc):
            doc["natural_mask"] = [row[0] for row in doc["natural_mask"]]
        cfg_path = self._graph_file(tmp_path, flatten)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "natural_mask" in err

    def test_retrieval_on_one_modality_exits_one(self, tmp_path, capsys):
        def drop_txt(doc):
            doc["modalities"] = doc["modalities"][:1]
            doc["natural_mask"] = [row[:1] for row in doc["natural_mask"]]
        cfg_path = self._graph_file(tmp_path, drop_txt)
        assert main(["run", "--config", str(cfg_path), "--task", "mr",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "two modalities" in err
        assert not (tmp_path / "out").exists()

    def test_classification_without_labels_exits_one(self, tmp_path, capsys):
        def drop_labels(doc):
            doc["labels"] = None
        cfg_path = self._graph_file(tmp_path, drop_labels)
        assert main(["run", "--config", str(cfg_path), "--task", "nc"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "labels" in err

    def test_link_prediction_without_edges_exits_one(self, tmp_path, capsys):
        def drop_edges(doc):
            doc["edges"] = []
        cfg_path = self._graph_file(tmp_path, drop_edges)
        assert main(["run", "--config", str(cfg_path), "--task", "lp",
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "edge" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_link_prediction_without_non_edges_exits_one(self, tmp_path, capsys):
        def complete(doc):
            doc["edges"] = [[u, v] for u in range(doc["n"]) for v in range(u + 1, doc["n"])]
        cfg_path = self._graph_file(tmp_path, complete)
        assert main(["run", "--config", str(cfg_path), "--task", "lp",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "invalid configuration: task 'lp' needs a graph with at least one non-edge\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_partition_that_cannot_be_drawn_exits_one(self, tmp_path, capsys, command):
        doc = _small_cfg_doc()
        doc["data"]["blocks"] = 1
        doc["federation"].update(clients=3, alpha=1e-4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "invalid configuration: could not draw a partition covering all 3 "
            "clients at alpha 0.0001\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("columns", [[], [0, 0], [0, 1]],
                             ids=["none", "one-name-twice", "one-name-two-dims"])
    def test_graph_without_distinct_modalities_exits_one(self, tmp_path, columns):
        def rename(doc):
            doc["modalities"] = [dict(doc["modalities"][c], name="a") for c in columns]
            doc["natural_mask"] = [[row[c] for c in columns] for row in doc["natural_mask"]]
        cfg_path = self._graph_file(tmp_path, rename)
        proc = python_m_fedmmg("run", "--config", str(cfg_path),
                               "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and "invalid graph in" in proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels", [lambda n: [-1] * n,
                                        lambda n: [[0]] * n,
                                        lambda n: [0] * (n - 1),
                                        lambda n: [0.5] * n,
                                        lambda n: [True] * n,
                                        lambda n: [0] * (n - 1) + [n],
                                        lambda n: [10 ** 10] * n])
    def test_bad_labels_file_exits_one(self, tmp_path, capsys, labels):
        def set_labels(doc):
            doc["labels"] = labels(doc["n"])
        cfg_path = self._graph_file(tmp_path, set_labels)
        assert main(["run", "--config", str(cfg_path), "--task", "nc"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "labels" in err

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["natural_mask"][0].__setitem__(0, 0.5), "0/1"),
        (lambda doc: doc.__setitem__("n", doc["n"] + 0.7), "n must be an integer"),
        (lambda doc: doc.__setitem__("n", float(doc["n"])), "n must be an integer"),
        (lambda doc: doc.__setitem__("n", True), "n must be an integer"),
        (lambda doc: doc["modalities"][0].__setitem__("dim", 1.5), "dim must be"),
        (lambda doc: doc["edges"][0].__setitem__(1, doc["edges"][0][1] + 0.9),
         "edges must be"),
        (lambda doc: doc["edges"].__setitem__(0, [True, False]), "edges must be"),
        (lambda doc: doc["edges"].__setitem__(0, ["0", "1"]), "edges must be"),
    ])
    def test_bad_number_in_graph_file_exits_one(self, tmp_path, capsys, edit, match):
        cfg_path = self._graph_file(tmp_path, edit)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and match in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", [None, 5, ["img"]], ids=["null", "number", "list"])
    def test_modality_name_that_is_not_a_string_exits_one(self, tmp_path, capsys, name):
        def rename(doc):
            doc["modalities"][0]["name"] = name
        cfg_path = self._graph_file(tmp_path, rename)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: malformed graph file")
        assert err.endswith("modality name must be a string\n") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_value_error_inside_run_exits_two(self, tmp_path, capsys, monkeypatch):
        def failing_run(setup):
            raise ValueError("simulated failure inside the run")
        monkeypatch.setattr("fedmmg.cli.run_federation", failing_run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "run failed: simulated failure inside the run\n"

    @pytest.mark.parametrize("command, out", [("run", "results"),
                                              ("gen-data", "graph.json")])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, command, out):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main([command, "--config", str(cfg_path),
                     "--out", str(blocker / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and str(blocker) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_config_too_large_for_memory_exits_two(self, tmp_path, capsys, command):
        # the 2.78 EiB label array is larger than any user address space, so
        # its allocation fails under every overcommit mode before a page is
        # touched
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps({"data": {"nodes_per_block": 10 ** 17}}))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: out of memory: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_out_of_memory_in_a_worker_exits_two(self, tmp_path, capfd, monkeypatch):
        from fedmmg import federation
        parent = os.getpid()
        real_round = federation.client_local_round

        def failing_round(*args):
            if os.getpid() != parent:
                raise MemoryError("simulated in a worker")
            return real_round(*args)

        monkeypatch.setattr(federation, "client_local_round", failing_round)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        assert main(["run", "--config", str(cfg_path), "--workers", "2",
                     "--out", str(tmp_path / "out")]) == 2
        assert capfd.readouterr().err == "run failed: out of memory: simulated in a worker\n"

    def test_dead_worker_exits_two(self, tmp_path, capfd, monkeypatch):
        # fd-level capture: a worker's own output would show here too
        import multiprocessing

        from fedmmg import federation
        parent = os.getpid()
        real_round = federation.client_local_round

        def dying_round(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_round(*args)

        monkeypatch.setattr(federation, "client_local_round", dying_round)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        assert main(["run", "--config", str(cfg_path), "--workers", "2",
                     "--out", str(tmp_path / "out")]) == 2
        err = capfd.readouterr().err
        assert err.startswith("run failed: the worker process running the train job")
        assert err.count("\n") == 1
        assert multiprocessing.active_children() == []

    def test_gen_data_and_run_build_the_same_data(self, tmp_path):
        # one graph, mask and zeroed features, whether run builds them from
        # the config or reads the file gen-data wrote from the same config
        doc = _small_cfg_doc()
        doc["missingness"] = {"mode": "mixed", "rate": 0.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        target = tmp_path / "graph.json"
        assert main(["gen-data", "--config", str(cfg_path),
                     "--out", str(target)]) == 0
        saved = load_graph(str(target))
        assert (saved.natural_mask == 0).any()
        doc["data"] = {"kind": "file", "path": str(target)}
        file_path = tmp_path / "cfg-file.json"
        file_path.write_text(json.dumps(doc))
        built = assemble_run(parse_config(str(cfg_path))).setup.clients
        loaded = assemble_run(parse_config(str(file_path))).setup.clients
        assert len(built) == len(loaded) == 2
        for a, b in zip(built, loaded):
            ga, gb = a.graph, b.graph
            np.testing.assert_array_equal(ga.edges, gb.edges)
            np.testing.assert_array_equal(ga.natural_mask, gb.natural_mask)
            for m, (ma, mb) in enumerate(zip(ga.modalities, gb.modalities)):
                np.testing.assert_array_equal(ma.features, mb.features)
                assert (ma.features[ga.natural_mask[:, m] == 0] == 0).all()

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"missingness": {"rate": 2.0}}))
        assert main(["run", "--config", str(cfg_path)]) == 1

    def test_gen_data_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_small_cfg_doc()))
        target = tmp_path / "graph.json"
        assert main(["gen-data", "--config", str(cfg_path), "--seed", "2",
                     "--out", str(target)]) == 0
        from fedmmg.graphdata import load_graph
        graph = load_graph(str(target))
        assert graph.n == 20
        # run an experiment straight from the generated file
        doc = _small_cfg_doc()
        doc["data"] = {"kind": "file", "path": str(target)}
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(doc))
        out = tmp_path / "from-file"
        assert main(["run", "--config", str(cfg2), "--out", str(out)]) == 0

    def test_metrics_oracle_subcommand(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["metrics-oracle", "--instances", "20",
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["agreements"] == 20

    def test_python_m_fedmmg_runs_the_command_line(self):
        assert python_m_fedmmg("metrics-oracle", "--instances", "1").returncode == 0

    def test_theory_check_subcommand_small(self, tmp_path):
        report_path = tmp_path / "theory.json"
        assert main(["theory-check", "--configs", "20", "--trials", "2000",
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["holds_fraction"] >= 0.99

    def test_gradcheck_subcommand_small(self, tmp_path):
        report_path = tmp_path / "grad.json"
        assert main(["gradcheck", "--seeds", "2", "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["max_rel_err"] <= 1e-3

    @pytest.mark.parametrize("argv", [
        ["theory-check", "--configs", "0"],
        ["gradcheck", "--seeds", "0"],
        ["metrics-oracle", "--instances", "0"],
        ["metrics-oracle", "--instances", "-3"],
    ])
    def test_verification_count_below_one_exits_one(self, tmp_path, capsys, argv):
        report_path = tmp_path / "report.json"
        assert main(argv + ["--out", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1 and argv[1][2:] in captured.err
        assert captured.out == "" and not report_path.exists()

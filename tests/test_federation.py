"""Client rounds, reliability aggregation, round loop, job runner,
baseline pairing."""

import copy
import dataclasses
import gc
import inspect
import json
import multiprocessing
import multiprocessing.connection
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from fedmmg import encoding, federation, fusion, generation, model, numerics, tasks
from fedmmg.config import (ConfigError, ExperimentConfig, FederationSection,
                           assemble_run)
from fedmmg.federation import (ClientData, ClientRoundError, FederationAborted,
                               FederationSetup, ReliabilityStats, aggregate,
                               build_client_data, client_local_round,
                               evaluate_client, fedavg_zero_setup,
                               reliability_score, run_federation)
from fedmmg.graphdata import Modality, MultimodalGraph, sample_artificial_mask
from fedmmg.model import ModelConfig, forward_pass, init_params, make_plan
from fedmmg.numerics import AdamState, ParamStore

from test_pinned_outputs import seed3_config


def reachable_arrays(root) -> list[np.ndarray]:
    """The arrays reachable from ``root`` through the objects it refers to,
    not counting classes, modules and functions."""
    seen, todo, arrays = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        todo.extend(gc.get_referents(obj))
    return arrays


def small_experiment(seed=0, rounds=2, **kw):
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.data.blocks = 2
    cfg.data.nodes_per_block = 12
    cfg.data.d_img = 10
    cfg.data.d_txt = 9
    cfg.federation.clients = 2
    cfg.federation.rounds = rounds
    cfg.model.hidden_dim = 8
    cfg.model.warmup_rounds = 5
    for key, value in kw.items():
        section, field = key.split(".")
        setattr(getattr(cfg, section), field, value)
    return cfg


class TestSetupReadsTheConfig:
    """A setup holds the validated config itself, and the run reads every
    setting from it."""

    @pytest.mark.parametrize("mode", ["reliability", "fedavg-zero"])
    def test_setup_holds_the_config_and_no_mirror(self, mode):
        cfg = small_experiment(**{"federation.mode": mode})
        setup = assemble_run(cfg).setup
        assert [f.name for f in dataclasses.fields(setup)] == \
            ["clients", "cfg", "model_cfg"]
        assert setup.cfg.to_dict() == cfg.to_dict()
        assert setup.cfg.federation.mode == mode
        assert setup.model_cfg.bypass_generation == (mode == "fedavg-zero")
        assert setup.model_cfg.task == cfg.task

    def test_assembly_validates_the_config(self):
        cfg = small_experiment()
        cfg.federation.workers = 0
        with pytest.raises(ConfigError, match="federation.workers"):
            assemble_run(cfg)

    def test_run_reads_the_rounds_from_the_setups_config(self):
        setup = assemble_run(small_experiment(rounds=2)).setup
        setup.cfg.federation.rounds = 1
        assert len(run_federation(setup).records) == 1

    def test_fedavg_zero_setup_leaves_the_callers_setup_alone(self):
        cfg = small_experiment()
        setup = assemble_run(cfg).setup
        before, model_before = cfg.to_dict(), dict(vars(setup.model_cfg))
        zero = fedavg_zero_setup(setup)
        expected = copy.deepcopy(before)
        expected["federation"]["mode"] = "fedavg-zero"
        assert zero.cfg.to_dict() == expected
        assert vars(zero.model_cfg) == {**model_before, "bypass_generation": True}
        assert zero.clients is setup.clients
        assert setup.cfg is cfg and cfg.to_dict() == before
        assert vars(setup.model_cfg) == model_before


class TestReliabilityScore:
    def test_zero_stats_give_unit_score(self):
        stats = ReliabilityStats(0.0, 0.0, 0.0, size=5)
        assert reliability_score(stats, FederationSection()) == 1.0

    def test_hand_value(self):
        stats = ReliabilityStats(0.5, 0.5, 0.5, size=5)
        np.testing.assert_allclose(reliability_score(stats, FederationSection()),
                                   np.exp(-1.5), atol=1e-9)
        assert abs(reliability_score(stats, FederationSection()) - 0.22313) < 1e-5

    def test_zero_coefficients_degenerate_to_fedavg(self):
        cfg = FederationSection(eta_u=0.0, eta_e=0.0, eta_rho=0.0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            stats = ReliabilityStats(*rng.uniform(0, 1, 3), size=7)
            assert reliability_score(stats, cfg) == 1.0

    def test_score_positive_always(self):
        stats = ReliabilityStats(1.0, 1.0, 1.0, size=1)
        assert reliability_score(stats, FederationSection()) > 0

    def test_stats_range_checked(self):
        with pytest.raises(ValueError):
            ReliabilityStats(1.5, 0.0, 0.0, size=1)
        with pytest.raises(ValueError):
            ReliabilityStats(0.0, 0.0, 0.0, size=0)


class TestAggregate:
    def test_single_client_passthrough(self):
        params = np.array([1.0, 2.0, 3.0])
        merged, omega = aggregate({0: params}, {0: 10}, {0: 0.7})
        np.testing.assert_allclose(merged, params)
        np.testing.assert_allclose(omega[0], 1.0, atol=1e-12)

    def test_symmetric_cancellation(self):
        theta = np.array([1.0, -2.0, 3.0])
        merged, _ = aggregate({0: theta, 1: -theta},
                              {0: 5, 1: 5}, {0: 1.0, 1: 1.0})
        np.testing.assert_allclose(merged, 0.0, atol=1e-12)

    def test_equal_scores_match_fedavg_weights(self):
        rng = np.random.default_rng(0)
        sizes = {i: int(rng.integers(1, 100)) for i in range(6)}
        params = {i: rng.normal(size=3) for i in range(6)}
        _, omega = aggregate(params, sizes, {i: 0.37 for i in range(6)})
        total = sum(sizes.values())
        for i in range(6):
            assert abs(omega[i] - sizes[i] / total) < 1e-12

    def test_weights_sum_with_small_deficit(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            k = int(rng.integers(2, 8))
            sizes = {i: int(rng.integers(1, 200)) for i in range(k)}
            scores = {i: float(np.exp(-rng.uniform(0, 3))) for i in range(k)}
            params = {i: rng.normal(size=2) for i in range(k)}
            _, omega = aggregate(params, sizes, scores, eps=1e-12)
            assert all(w > 0 for w in omega.values())
            deficit = 1.0 - sum(omega.values())
            assert 0 <= deficit < 1e-9

    def test_monotone_in_uncertainty(self):
        server = FederationSection()
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            sizes = {i: int(rng.integers(1, 50)) for i in range(k)}
            stats = {i: ReliabilityStats(float(rng.uniform(0, 0.9)),
                                         float(rng.uniform(0, 1)),
                                         float(rng.uniform(0, 1)),
                                         size=sizes[i]) for i in range(k)}
            params = {i: np.zeros(1) for i in range(k)}
            scores = {i: reliability_score(stats[i], server) for i in range(k)}
            _, omega = aggregate(params, sizes, scores)
            bumped = dict(stats)
            bumped[0] = ReliabilityStats(stats[0].mean_uncertainty + 0.1,
                                         stats[0].mean_recon_error,
                                         stats[0].missing_ratio, sizes[0])
            scores2 = {i: reliability_score(bumped[i], server) for i in range(k)}
            _, omega2 = aggregate(params, sizes, scores2)
            assert omega2[0] < omega[0]
            for j in range(1, k):
                assert omega2[j] > omega[j]

    def test_identical_params_any_weights(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=4)
        merged, _ = aggregate({0: theta.copy(), 1: theta.copy()},
                              {0: 3, 1: 17}, {0: 0.2, 1: 0.9})
        np.testing.assert_allclose(merged, theta, atol=1e-12)

    def test_vectors_match_per_name_reference_bit_for_bit(self):
        # the per-name reduction aggregate replaced: one weighted sum per
        # parameter, clients added in cid order
        shapes = {"a": (), "b": (3,), "c": (2, 3)}
        rng = np.random.default_rng(4)
        cids = (3, 0, 2, 1)
        per_client = {c: {n: rng.normal(size=s) for n, s in shapes.items()}
                      for c in cids}
        sizes = {c: int(rng.integers(1, 50)) for c in cids}
        scores = {c: float(rng.uniform(0.1, 1.0)) for c in cids}
        vectors = {c: np.concatenate([np.reshape(p[n], -1) for n in sorted(shapes)])
                   for c, p in per_client.items()}
        merged, omega = aggregate(vectors, sizes, scores)
        offset = 0
        for name in sorted(shapes):
            acc = np.zeros(shapes[name])
            for c in sorted(cids):
                acc += omega[c] * per_client[c][name]
            assert merged[offset:offset + acc.size].tobytes() == \
                acc.reshape(-1).tobytes()
            offset += acc.size
        assert offset == merged.size

    def test_shape_mismatch_names_clients(self):
        with pytest.raises(ValueError, match="clients 0 and 1"):
            aggregate({0: np.zeros(2), 1: np.zeros(3)},
                      {0: 1, 1: 1}, {0: 1.0, 1: 1.0})


def train_client_zero(setup: FederationSetup) -> tuple[ParamStore, ReliabilityStats]:
    """Client 0's round 0 from the initial model; the store holds its update."""
    store = init_params(setup.model_cfg, setup.cfg.seed)
    stats, _ = client_local_round(setup, store, AdamState.for_params(store),
                                  setup.clients[0], 0)
    return store, stats


class TestClientRound:
    def test_zero_lr_returns_global_exactly(self):
        cfg = small_experiment(rounds=1)
        cfg.model.lr = 0.0
        setup = assemble_run(cfg).setup
        store, _ = train_client_zero(setup)
        global_params = init_params(setup.model_cfg, cfg.seed).snapshot()
        np.testing.assert_array_equal(store.vector, global_params)

    def test_training_settings_are_read_from_the_model_config(self):
        setup = assemble_run(small_experiment(rounds=1)).setup
        frozen = dataclasses.replace(
            setup, model_cfg=dataclasses.replace(setup.model_cfg, lr=0.0))
        store, _ = train_client_zero(frozen)
        global_params = init_params(setup.model_cfg, setup.cfg.seed).snapshot()
        np.testing.assert_array_equal(store.vector, global_params)

    @pytest.mark.parametrize("task, bound", [("nc", 176), ("lp", 191)])
    def test_training_forward_records_few_ops(self, monkeypatch, task, bound):
        # ops on the tape after one training forward plus the task loss,
        # read as each local epoch of client 0 forms its objective. Picking
        # each modality embedding row without a reshape and swapping the
        # routing weights once took it from 179 to 176 (nc) and from 194
        # to 191 (lp)
        lengths = []
        objective = tasks.local_objective

        def counted(*args):
            lengths.append(len(numerics._active_tape()))
            return objective(*args)

        monkeypatch.setattr(tasks, "local_objective", counted)
        train_client_zero(assemble_run(seed3_config(task, "reliability")).setup)
        assert lengths and max(lengths) <= bound

    @staticmethod
    def _missing_ratio_and_hand_count(p_mask):
        cfg = small_experiment(rounds=1)
        cfg.missingness.rate = 0.4
        cfg.missingness.p_mask = p_mask
        setup = assemble_run(cfg).setup
        _, stats = train_client_zero(setup)
        natural = setup.clients[0].graph.natural_mask
        return stats.missing_ratio, (natural == 0).sum() / natural.size

    def test_missing_ratio_matches_hand_count(self):
        rho, hand = self._missing_ratio_and_hand_count(p_mask=0.0)
        np.testing.assert_allclose(rho, hand, atol=1e-12)

    def test_missing_ratio_ignores_artificial_masking(self):
        rho, hand = self._missing_ratio_and_hand_count(p_mask=0.3)
        np.testing.assert_allclose(rho, hand, atol=1e-12)

    def test_stats_in_unit_interval(self):
        cfg = small_experiment(rounds=1)
        asm = assemble_run(cfg)
        history = run_federation(asm.setup)
        rec = history.records[-1]
        assert all(0 < w for w in rec.omega.values())
        np.testing.assert_allclose(sum(rec.omega.values()), 1.0, atol=1e-9)

    def test_an_epoch_frees_the_last_ones_forward(self, monkeypatch):
        # one 1,000-node link-prediction client, 2 local epochs. Keeping the
        # first epoch's forward and plan through the second left 7.6 MiB
        # more live at the second backward entry than at the first, and
        # keeping the first step's gradient vector 0.57 MiB; with both
        # freed the two entries differ by 0.02 MiB.
        cfg = ExperimentConfig.from_dict({
            "task": "lp",
            "data": {"kind": "sbm", "blocks": 4, "nodes_per_block": 250,
                     "p_in": 0.01, "p_out": 0.001, "d_img": 512, "d_txt": 768},
            "missingness": {"rate": 0.3, "mode": "node", "p_mask": 0.3},
            "federation": {"clients": 1, "rounds": 1, "workers": 1},
            "model": {"hidden_dim": 32, "local_epochs": 2}})
        setup = assemble_run(cfg).setup
        store = init_params(setup.model_cfg, cfg.seed)
        live: list[int] = []
        real_backward = numerics.Tape.backward

        def backward(tape, loss):
            live.append(tracemalloc.get_traced_memory()[0])
            real_backward(tape, loss)

        monkeypatch.setattr(numerics.Tape, "backward", backward)
        tracemalloc.start()
        try:
            client_local_round(setup, store, AdamState.for_params(store),
                               setup.clients[0], 0)
        finally:
            tracemalloc.stop()
        assert len(live) == 2
        assert max(live) - live[0] < 0.25 * 2**20

    def test_no_scatter_index_outlives_a_job(self):
        # sums onto rows run on jagged-diagonal schedules, which need no
        # [nnz x width] scatter index: once the run is over a client's
        # caches keep none, and the pattern's row and column schedules,
        # built by the run, keep nothing larger than the graph's arrays
        cfg = small_experiment(**{"federation.workers": 1})
        cfg.task = "lp"
        setup = assemble_run(cfg).setup
        run_federation(setup)
        for client in setup.clients:
            pattern = client.caches.neigh_mat.pattern
            assert {"by_row", "by_column"} <= vars(pattern).keys()
            nnz = pattern.indices.size
            sizes = [a.size for a in reachable_arrays(client.caches)]
            assert nnz in sizes
            assert max(sizes) <= max(nnz, pattern.n + 1)


class TestLinkPredictionWithoutNonEdges:
    """A complete client graph has no pair to draw a negative from."""

    @staticmethod
    def _lp_client(cid, n, edges):
        rng = np.random.default_rng(cid)
        graph = MultimodalGraph(
            n=n, edges=edges,
            modalities=[Modality("img", 4, rng.normal(size=(n, 4))),
                        Modality("txt", 3, rng.normal(size=(n, 3)))],
            labels=None, natural_mask=np.ones((n, 2)))
        cfg = ModelConfig(task="lp", modalities=[("img", 4), ("txt", 3)], hidden_dim=8,
                          warmup_rounds=5)
        data = build_client_data(cid, graph, "lp", seed=0)
        assert data.test_edges.shape[0] > 0
        return data, cfg

    @classmethod
    def _triangle_client(cls):
        return cls._lp_client(0, 3, [(0, 1), (1, 2), (0, 2)])

    def test_evaluation_reports_no_metrics(self):
        data, cfg = self._triangle_client()
        assert evaluate_client(init_params(cfg, 0), cfg, data, 0, 0) == (None, 0)

    def test_training_fails_the_client_round(self):
        data, cfg = self._triangle_client()
        setup = FederationSetup(clients=[data], cfg=ExperimentConfig(), model_cfg=cfg)
        store = init_params(cfg, 0)
        with pytest.raises(ClientRoundError, match="non-edge"):
            client_local_round(setup, store, AdamState.for_params(store), data, 0)


    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_round_is_recorded_in_any_lane(self, workers, monkeypatch):
        # client 0 cannot draw a negative; client 1, a 6-node path, can
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        triangle, cfg = self._triangle_client()
        path, _ = self._lp_client(1, 6, [(i, i + 1) for i in range(5)])
        run_cfg = ExperimentConfig()
        run_cfg.federation.rounds = 2
        run_cfg.federation.workers = workers
        setup = FederationSetup(clients=[triangle, path], cfg=run_cfg, model_cfg=cfg)
        history = run_federation(setup)
        for rec in history.records:
            assert list(rec.errors) == [0] and "non-edge" in rec.errors[0]
            assert list(rec.omega) == [1]
        assert multiprocessing.active_children() == []


class TestRunFederation:
    def test_deterministic_across_runs(self):
        cfg = small_experiment(rounds=2)
        h1 = run_federation(assemble_run(cfg).setup)
        h2 = run_federation(assemble_run(cfg).setup)
        assert len(h1.records) == len(h2.records)
        for a, b in zip(h1.records, h2.records):
            assert a.to_json_dict() == b.to_json_dict()
        np.testing.assert_array_equal(h1.final_params, h2.final_params)

    def test_one_setup_run_twice_repeats_itself(self):
        # every run starts each client's optimizer afresh
        setup = assemble_run(small_experiment(seed=3, rounds=2)).setup
        h1 = run_federation(setup)
        h2 = run_federation(setup)
        assert [r.to_json_dict() for r in h1.records] == \
            [r.to_json_dict() for r in h2.records]
        assert h1.final_params.tobytes() == h2.final_params.tobytes()

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # three clients of unequal size: a three-term sum depends on its
        # order, so reducing in any order but cid order would show
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        forks = count_forks(monkeypatch)
        for fraction in (1.0, 0.5):
            histories = []
            for workers in (1, 2, 3):
                cfg = small_experiment(rounds=2)
                cfg.data.blocks = 3
                cfg.federation.clients = 3
                cfg.federation.workers = workers
                cfg.federation.fraction = fraction
                setup = assemble_run(cfg).setup
                assert len({data.graph.n for data in setup.clients}) == 3
                forks.clear()
                histories.append(run_federation(setup))
                assert len(forks) == (workers if workers > 1 else 0)
            ref = histories[0]
            if fraction < 1.0:
                assert all(len(r.omega) == 2 for r in ref.records)
            for h in histories[1:]:
                assert [r.to_json_dict() for r in h.records] == \
                    [r.to_json_dict() for r in ref.records]
                assert h.final_params.tobytes() == ref.final_params.tobytes()
                for key, values in ref.calibration.items():
                    assert h.calibration[key].tobytes() == values.tobytes()
        assert multiprocessing.active_children() == []

    def test_zero_rounds_returns_initial_model(self):
        cfg = small_experiment(rounds=0)
        asm = assemble_run(cfg)
        history = run_federation(asm.setup)
        assert history.records == []
        init = init_params(asm.setup.model_cfg, cfg.seed).snapshot()
        np.testing.assert_array_equal(history.final_params, init)

    def test_equal_stats_make_modes_identical(self):
        # no missingness and no artificial masking: every reliability stat is
        # exactly zero, so both aggregation modes follow the same trajectory
        base = dict(rounds=3)
        cfg_rel = small_experiment(**{"federation.mode": "reliability"}, **base)
        cfg_avg = small_experiment(**{"federation.mode": "fedavg"}, **base)
        for cfg in (cfg_rel, cfg_avg):
            cfg.missingness.rate = 0.0
            cfg.missingness.p_mask = 0.0
        h_rel = run_federation(assemble_run(cfg_rel).setup)
        h_avg = run_federation(assemble_run(cfg_avg).setup)
        np.testing.assert_allclose(h_rel.final_params, h_avg.final_params,
                                   atol=1e-12)

    def test_one_model_is_initialised_per_run(self, monkeypatch):
        # clients hold no parameters: the run makes the one model that seeds
        # the broadcast and whose layout every job uses, whatever the client
        # count
        calls = []
        real_init = federation.init_params

        def counting_init(*args):
            calls.append(args)
            return real_init(*args)
        monkeypatch.setattr(federation, "init_params", counting_init)
        cfg = small_experiment(rounds=1)
        cfg.federation.clients = 3
        setup = assemble_run(cfg).setup
        assert len(calls) == 0
        run_federation(setup)
        assert len(calls) == 1

    def test_fraction_selects_subset(self):
        cfg = small_experiment(rounds=2)
        cfg.federation.clients = 2
        cfg.federation.fraction = 0.5
        history = run_federation(assemble_run(cfg).setup)
        for rec in history.records:
            assert len(rec.omega) == 1
            assert rec.client_frac == 0.5


def count_forks(monkeypatch) -> list:
    """Record every worker process a run starts (a list the caller may clear)."""
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(self):
        started.append(self)
        real_start(self)
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    return started


_BLAS_RUN = """
import json, os, sys
from fedmmg.cli import write_outputs
from fedmmg.config import ExperimentConfig, assemble_run
from fedmmg.federation import run_federation
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[2]))
run = assemble_run(cfg)
history = run_federation(run.setup)
write_outputs(sys.argv[1], cfg, history, run.missing_fraction)
with open(os.path.join(sys.argv[1], "final_params.bin"), "wb") as fh:
    fh.write(history.final_params.tobytes())
"""


class TestBlasThreads:
    @pytest.mark.skipif(not numerics.BLAS_PINNED,
                        reason="numpy's BLAS has no scipy_openblas_set_num_threads64_ "
                               "to pin, so outputs repeat only at a fixed BLAS "
                               "thread count")
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # one round of link prediction on one client of 2,000 nodes: its
        # weight gradients are products with an inner dimension of 2,000,
        # which a threaded BLAS splits by its thread count
        doc = {"task": "lp", "seed": 0,
               "data": {"kind": "sbm", "blocks": 4, "nodes_per_block": 500,
                        "p_in": 0.02, "p_out": 0.002, "d_img": 512, "d_txt": 768},
               "federation": {"clients": 1, "rounds": 1, "workers": 1},
               "model": {"hidden_dim": 32, "local_epochs": 1}}
        src = os.path.dirname(os.path.dirname(numerics.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-c", _BLAS_RUN, str(out), json.dumps(doc)],
                           env=env, check=True, timeout=300)
            outputs.append([(out / name).read_bytes() for name in
                            ("metrics.csv", "rounds.jsonl", "final_params.bin")])
        assert outputs[0] == outputs[1]


class TestClientLanes:
    """The job runner's processes: the calling process, or forked workers."""

    def test_lane_count_is_capped_by_clients_and_cores(self, monkeypatch):
        forks = count_forks(monkeypatch)
        cfg = small_experiment(rounds=1)
        cfg.federation.clients = 4
        cfg.federation.workers = 10**6
        setup = assemble_run(cfg).setup
        for cores in (1, 2, 3, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            forks.clear()
            run_federation(setup)
            count = min(10**6, len(setup.clients), cores)
            assert len(forks) == (count if count > 1 else 0)
            assert multiprocessing.active_children() == []

    def test_jobs_go_out_longest_first(self, monkeypatch):
        # one process runs each phase's jobs in list order: train jobs by
        # descending client size (ties by cid), then evaluate, then calibrate
        cfg = small_experiment(rounds=2)
        cfg.federation.clients = 4
        setup = assemble_run(cfg).setup
        sizes = [data.graph.n for data in setup.clients]
        assert len(set(sizes)) < len(sizes)  # a tie to break
        jobs = []
        real_job = federation._run_job

        def record(setup, store, shared, job):
            jobs.append(job)
            return real_job(setup, store, shared, job)
        monkeypatch.setattr(federation, "_run_job", record)
        run_federation(setup)
        order = sorted(range(4), key=lambda c: (-sizes[c], c))
        assert jobs == ([("train", c, 0) for c in order]
                        + [("train", c, 1) for c in order]
                        + [("evaluate", c, 0) for c in order]
                        + [("evaluate", c, 1) for c in order]
                        + [("calibrate", c, 2) for c in order])

    def test_one_lane_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(federation, "_worker", None)
        forks = count_forks(monkeypatch)
        history = run_federation(assemble_run(small_experiment(rounds=1)).setup)
        assert len(history.records) == 1
        assert forks == []

    @staticmethod
    def _two_lane_setup(monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = small_experiment(rounds=2)
        cfg.federation.workers = 2
        return assemble_run(cfg).setup

    def test_dead_worker_aborts_the_run_naming_its_clients(self, monkeypatch):
        setup = self._two_lane_setup(monkeypatch)
        parent = os.getpid()
        real_round = federation.client_local_round

        def dying_round(setup, store, adam, data, round_t):
            if os.getpid() != parent and data.cid == 1 and round_t == 1:
                os._exit(3)
            return real_round(setup, store, adam, data, round_t)

        monkeypatch.setattr(federation, "client_local_round", dying_round)
        with pytest.raises(FederationAborted,
                           match=r"running the train job of client 1 exited "
                                 r"with code 3"):
            run_federation(setup)
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_raised_in_the_parent(self, monkeypatch):
        setup = self._two_lane_setup(monkeypatch)

        def failing_round(setup, store, adam, data, round_t):
            raise ValueError(f"simulated failure of client {data.cid}")

        monkeypatch.setattr(federation, "client_local_round", failing_round)
        with pytest.raises(ValueError, match="simulated failure of client") as info:
            run_federation(setup)
        assert "failing_round" in info.value.__notes__[0]
        assert multiprocessing.active_children() == []

    def test_unpicklable_worker_exception_keeps_its_message(self, monkeypatch):
        setup = self._two_lane_setup(monkeypatch)

        class LocalError(Exception):  # a local class does not pickle
            pass

        def failing_round(setup, store, adam, data, round_t):
            raise LocalError("not picklable")

        monkeypatch.setattr(federation, "client_local_round", failing_round)
        with pytest.raises(RuntimeError, match="LocalError: not picklable"):
            run_federation(setup)
        assert multiprocessing.active_children() == []

    def test_no_message_is_as_large_as_a_parameter_vector(self, monkeypatch):
        # the broadcast and the updates stay in the shared block; every
        # message the parent sends or receives goes through these two
        setup = self._two_lane_setup(monkeypatch)
        parent, sizes = os.getpid(), []
        conn = multiprocessing.connection.Connection
        real_send, real_recv = conn._send_bytes, conn._recv_bytes

        def send(self, buf):
            if os.getpid() == parent:
                sizes.append(len(buf))
            real_send(self, buf)

        def recv(self, maxsize=None):
            buf = real_recv(self, maxsize)
            if os.getpid() == parent:
                sizes.append(len(buf.getbuffer()))
            return buf
        monkeypatch.setattr(conn, "_send_bytes", send)
        monkeypatch.setattr(conn, "_recv_bytes", recv)
        history = run_federation(setup)
        jobs = setup.cfg.federation.rounds * 2 * len(setup.clients) + len(setup.clients)
        assert len(sizes) >= 2 * jobs
        assert max(sizes) < 8 * history.final_params.size


class TestSharedBlock:
    def test_a_second_copy_continues_the_first_copys_optimizer(self):
        # client 0's rounds 0 and 1 in two copies of the setup, each with its
        # own parameter layout, as two forked workers hold them, against both
        # in one copy
        def setup_and_block():
            setup = assemble_run(small_experiment(seed=3)).setup
            params = init_params(setup.model_cfg, 3).snapshot()
            return setup, federation._SharedBlock(params, len(setup.clients))

        one, one_block = setup_and_block()
        first, block = setup_and_block()
        copies = [(s, init_params(s.model_cfg, 3)) for s in (first, copy.deepcopy(first))]
        single = (one, init_params(one.model_cfg, 3))
        for round_t in (0, 1):
            for (setup, store), shared in ((copies[round_t], block), (single, one_block)):
                assert federation._run_job(setup, store, shared, ("train", 0, round_t))
                shared.broadcast[:] = shared.updates[0]
        assert block.steps[0] == 2 * one.model_cfg.local_epochs
        for name in ("broadcast", "updates", "m", "v", "steps"):
            assert getattr(block, name).tobytes() == getattr(one_block, name).tobytes()

    def test_evaluate_and_calibrate_jobs_read_the_broadcast_only(self, monkeypatch):
        stores = []
        for name in ("evaluate_client", "_calibrate_client"):
            def spy(*args, real=getattr(federation, name)):
                stores.extend(a for a in args if isinstance(a, ParamStore))
                return real(*args)
            monkeypatch.setattr(federation, name, spy)
        setup = assemble_run(small_experiment(seed=3)).setup
        model = init_params(setup.model_cfg, 3)
        shared = federation._SharedBlock(model.vector, len(setup.clients))
        for kind in ("evaluate", "calibrate"):
            federation._run_job(setup, model, shared, (kind, 0, 0))
        assert len(stores) == 2
        for store in stores:
            assert np.shares_memory(store.vector, shared.broadcast)
            assert not any(store[name].data.flags.writeable for name, _ in store.layout())
            with pytest.raises(ValueError, match="read-only"):
                store.load(shared.broadcast)


def full_forward_calibration(setup: FederationSetup, data: ClientData,
                             global_params: np.ndarray, round_t: int
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``federation._calibrate_client``: one full
    ``forward_pass`` for each of 8 mask draws, read at the recon cells."""
    store = init_params(setup.model_cfg, setup.cfg.seed)
    store.load(global_params)
    cal_u, cal_e = [], []
    for draw in range(8):
        rng = np.random.default_rng(
            [setup.cfg.seed, data.cid, round_t, draw,
             federation._CAL_TAG])
        masks = sample_artificial_mask(data.graph.natural_mask,
                                       setup.cfg.missingness.p_mask, rng)
        plan = make_plan(data.graph, data.caches, masks, setup.model_cfg, rng)
        bundle = forward_pass(store, setup.model_cfg, plan, round_t)
        cells = plan.recon_flat == 1.0
        if cells.any():
            cal_u.append(bundle.uncertainty.data.reshape(-1)[cells])
            cal_e.append(bundle.norm_err[cells])
    if not cal_u:
        return np.empty(0), np.empty(0)
    return np.concatenate(cal_u), np.concatenate(cal_e)


class TestCalibration:
    @pytest.mark.parametrize("task", ["nc", "lp", "mr"])
    def test_matches_the_full_forward_reference(self, task):
        """The exact comparison assumes that a product over some rows equals
        those rows of the full product, byte for byte. That holds for the
        SkylakeX and Sandybridge OpenBLAS kernels, not for Haswell or
        Nehalem."""
        setup = assemble_run(seed3_config(task, "reliability")).setup
        history = run_federation(setup)
        rounds = setup.cfg.federation.rounds
        pairs = [full_forward_calibration(setup, data, history.final_params, rounds)
                 for data in setup.clients]
        ref_u = np.concatenate([u for u, _ in pairs])
        ref_e = np.concatenate([e for _, e in pairs])
        got_u, got_e = history.calibration["uncertainty"], history.calibration["norm_err"]
        assert got_u.shape == got_e.shape == ref_u.shape and ref_u.size > 0
        assert got_e.tobytes() == ref_e.tobytes()
        np.testing.assert_allclose(got_u, ref_u, rtol=0, atol=1e-15)

    def test_encodes_once_per_client_and_runs_no_full_forward(self, monkeypatch):
        calls = {}

        def count(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((encoding, "encode_modalities"),
                             (federation, "forward_pass"), (model, "forward_pass"),
                             (encoding, "structure_only_repr"), (fusion, "fuse"),
                             (tasks, "refine"), (generation, "alignment_loss")):
            count(module, name)
        setup = assemble_run(small_experiment(seed=3)).setup
        store = init_params(setup.model_cfg, 3)
        shared = federation._SharedBlock(store.vector, len(setup.clients))
        cids = range(len(setup.clients))
        out = [federation._run_job(setup, store, shared, ("calibrate", cid, 2))
               for cid in cids]
        assert all(u.size > 0 for u, _e in out)
        assert calls == {"encode_modalities": len(cids)}


class TestFedAvgZero:
    def test_missing_cell_contributes_zero_vector(self):
        cfg = small_experiment(rounds=1)
        cfg.missingness.rate = 0.5
        asm = assemble_run(cfg)
        setup = fedavg_zero_setup(asm.setup)
        graph = setup.clients[0].graph
        m = 0
        hidden = np.flatnonzero(graph.natural_mask[:, m] == 0)
        if hidden.size:
            store = init_params(setup.model_cfg, cfg.seed)
            z = encoding.encode_modality(store, "img", graph.modalities[m].features,
                                         graph.natural_mask[:, m])
            np.testing.assert_array_equal(z.data[hidden], 0.0)

    def test_paired_run_matches_bypassed_pipeline(self):
        # no missingness, no regularizers: the baseline and a generator-
        # bypassed run of the full system are the same computation
        cfg_a = small_experiment(rounds=2)
        cfg_b = small_experiment(rounds=2)
        for cfg in (cfg_a, cfg_b):
            cfg.missingness.rate = 0.0
            cfg.missingness.p_mask = 0.0
            cfg.model.lambda_rec = 0.0
            cfg.model.lambda_align = 0.0
            cfg.model.lambda_route = 0.0
        cfg_b.federation.mode = "fedavg-zero"

        asm_a = assemble_run(cfg_a)
        asm_a.setup.model_cfg.bypass_generation = True
        asm_a.setup.cfg.federation.mode = "fedavg"
        h_bypass = run_federation(asm_a.setup)

        asm_b = assemble_run(cfg_b)
        h_zero = run_federation(fedavg_zero_setup(asm_b.setup))

        for a, b in zip(h_bypass.records, h_zero.records):
            assert abs(a.mean_loss.task - b.mean_loss.task) < 1e-6
        np.testing.assert_allclose(h_bypass.final_params, h_zero.final_params,
                                   atol=1e-9)

    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_config_mode_matches_baseline_function(self, task):
        cfg_zero = small_experiment(rounds=2, **{"federation.mode": "fedavg-zero"})
        cfg_rel = small_experiment(rounds=2)
        cfg_zero.task = cfg_rel.task = task
        h_cfg = run_federation(assemble_run(cfg_zero).setup)
        h_fn = run_federation(fedavg_zero_setup(assemble_run(cfg_rel).setup))
        assert h_cfg.mode == h_fn.mode == "fedavg-zero"
        assert [r.to_json_dict() for r in h_cfg.records] == \
            [r.to_json_dict() for r in h_fn.records]

    def test_deterministic(self):
        cfg = small_experiment(rounds=2)
        h1 = run_federation(fedavg_zero_setup(assemble_run(cfg).setup))
        h2 = run_federation(fedavg_zero_setup(assemble_run(cfg).setup))
        for a, b in zip(h1.records, h2.records):
            assert a.to_json_dict() == b.to_json_dict()
        assert h1.mode == "fedavg-zero"


class TestTracedNames:
    """The names and argument positions the benchmark's span tracer reads."""

    def test_round_index_is_the_fifth_positional_argument(self):
        params = list(inspect.signature(client_local_round).parameters.values())
        assert params[4].name == "round_t"
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                   for p in params[:5])

    def test_wrapped_functions_keep_their_names(self):
        assert hasattr(ParamStore, "snapshot") and hasattr(ParamStore, "load")
        assert hasattr(numerics, "adam_step")
        assert hasattr(federation, "evaluate_client")
        assert hasattr(federation, "aggregate")

"""Client rounds, reliability aggregation, round loop, client lanes,
baseline pairing."""

import multiprocessing
import os

import numpy as np
import pytest

from fedmmg import federation
from fedmmg.config import ExperimentConfig, assemble_run
from fedmmg.federation import (ClientRoundError, ClientState, FederationAborted,
                               FederationSetup, ReliabilityStats, ServerConfig,
                               TrainConfig, aggregate, assign_lanes,
                               build_client_data, client_local_round,
                               evaluate_client, fedavg_zero_baseline,
                               fedavg_zero_setup, reliability_score,
                               run_federation)
from fedmmg.graphdata import Modality, MultimodalGraph
from fedmmg.model import ModelConfig, init_params
from fedmmg.numerics import AdamState
from fedmmg.tasks import TaskSpec


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


class TestReliabilityScore:
    def test_zero_stats_give_unit_score(self):
        stats = ReliabilityStats(0.0, 0.0, 0.0, size=5)
        assert reliability_score(stats, ServerConfig()) == 1.0

    def test_hand_value(self):
        stats = ReliabilityStats(0.5, 0.5, 0.5, size=5)
        np.testing.assert_allclose(reliability_score(stats, ServerConfig()),
                                   np.exp(-1.5), atol=1e-9)
        assert abs(reliability_score(stats, ServerConfig()) - 0.22313) < 1e-5

    def test_zero_coefficients_degenerate_to_fedavg(self):
        cfg = ServerConfig(eta_u=0.0, eta_e=0.0, eta_rho=0.0)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            stats = ReliabilityStats(*rng.uniform(0, 1, 3), size=7)
            assert reliability_score(stats, cfg) == 1.0

    def test_score_positive_always(self):
        stats = ReliabilityStats(1.0, 1.0, 1.0, size=1)
        assert reliability_score(stats, ServerConfig()) > 0

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
        server = ServerConfig()
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


class TestClientRound:
    def test_zero_lr_returns_global_exactly(self):
        cfg = small_experiment(rounds=1)
        cfg.model.lr = 0.0
        asm = assemble_run(cfg)
        from fedmmg.federation import client_local_round
        from fedmmg.model import init_params
        global_params = init_params(asm.setup.model_cfg, cfg.seed).snapshot()
        result = client_local_round(asm.setup.clients[0], global_params,
                                    asm.setup.model_cfg, asm.setup.task_spec,
                                    0, asm.setup.train_cfg, cfg.seed)
        np.testing.assert_array_equal(result.params, global_params)

    @staticmethod
    def _missing_ratio_and_hand_count(p_mask):
        cfg = small_experiment(rounds=1)
        cfg.missingness.rate = 0.4
        cfg.missingness.p_mask = p_mask
        asm = assemble_run(cfg)
        from fedmmg.federation import client_local_round
        from fedmmg.model import init_params
        state = asm.setup.clients[0]
        global_params = init_params(asm.setup.model_cfg, cfg.seed).snapshot()
        result = client_local_round(state, global_params, asm.setup.model_cfg,
                                    asm.setup.task_spec, 0,
                                    asm.setup.train_cfg, cfg.seed)
        natural = state.data.graph.natural_mask
        return result.stats.missing_ratio, (natural == 0).sum() / natural.size

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
        cfg = ModelConfig(modalities=[("img", 4), ("txt", 3)], hidden_dim=8,
                          warmup_rounds=5)
        data = build_client_data(cid, graph, "lp", seed=0)
        assert data.test_edges.shape[0] > 0
        store = init_params(cfg, 0)
        return ClientState(data=data, store=store,
                           adam=AdamState.for_params(store)), cfg

    @classmethod
    def _triangle_client(cls):
        return cls._lp_client(0, 3, [(0, 1), (1, 2), (0, 2)])

    def test_evaluation_reports_no_metrics(self):
        state, cfg = self._triangle_client()
        assert evaluate_client(state.store, cfg, TaskSpec.for_kind("lp"),
                               state.data, 0, 0) == (None, 0)

    def test_training_fails_the_client_round(self):
        state, cfg = self._triangle_client()
        with pytest.raises(ClientRoundError, match="non-edge"):
            client_local_round(state, state.store.snapshot(), cfg,
                               TaskSpec.for_kind("lp"), 0, TrainConfig(), 0)


    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_round_is_recorded_in_any_lane(self, workers, monkeypatch):
        # client 0 cannot draw a negative; client 1, a 6-node path, can
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        triangle, cfg = self._triangle_client()
        path, _ = self._lp_client(1, 6, [(i, i + 1) for i in range(5)])
        setup = FederationSetup(clients=[triangle, path], model_cfg=cfg,
                                task_spec=TaskSpec.for_kind("lp"),
                                server_cfg=ServerConfig(rounds=2, workers=workers),
                                train_cfg=TrainConfig(), seed=0)
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
        # order, so merging lanes out of cid order would show
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        histories = []
        for workers in (1, 2, 3):
            cfg = small_experiment(rounds=2)
            cfg.data.blocks = 3
            cfg.federation.clients = 3
            cfg.federation.workers = workers
            setup = assemble_run(cfg).setup
            sizes = [state.data.graph.n for state in setup.clients]
            assert len(set(sizes)) == 3
            assert len(assign_lanes(workers, sizes)) == workers
            histories.append(run_federation(setup))
        ref = histories[0]
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
        from fedmmg.model import init_params
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

    def test_fraction_selects_subset(self):
        cfg = small_experiment(rounds=2)
        cfg.federation.clients = 2
        cfg.federation.fraction = 0.5
        history = run_federation(assemble_run(cfg).setup)
        for rec in history.records:
            assert len(rec.omega) == 1
            assert rec.client_frac == 0.5


class TestClientLanes:
    def test_lane_count_is_capped_by_clients_and_cores(self, monkeypatch):
        sizes = [30, 10, 20, 10]
        for cores in (1, 2, 3, 64):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            lanes = assign_lanes(10**6, sizes)
            assert len(lanes) == min(10**6, len(sizes), cores)
            assert sorted(c for lane in lanes for c in lane) == [0, 1, 2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert assign_lanes(1, sizes) == [[0, 1, 2, 3]]
        # largest first, ties by cid, each onto the lightest lane
        assert assign_lanes(2, sizes) == [[0, 3], [1, 2]]
        assert assign_lanes(3, sizes) == [[0], [2], [1, 3]]
        assert multiprocessing.active_children() == []

    def test_one_lane_starts_no_process(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(federation, "_WorkerLane", None)
        history = run_federation(assemble_run(small_experiment(rounds=1)).setup)
        assert len(history.records) == 1

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

        def dying_round(state, *args):
            if os.getpid() != parent and state.data.cid == 1:
                os._exit(3)
            return real_round(state, *args)

        monkeypatch.setattr(federation, "client_local_round", dying_round)
        sizes = [state.data.graph.n for state in setup.clients]
        lane = next(lane for lane in assign_lanes(2, sizes) if 1 in lane)
        with pytest.raises(FederationAborted,
                           match=rf"clients \{lane}\ exited with code 3"):
            run_federation(setup)
        assert multiprocessing.active_children() == []

    def test_worker_exception_is_raised_in_the_parent(self, monkeypatch):
        setup = self._two_lane_setup(monkeypatch)

        def failing_round(state, *args):
            raise ValueError(f"simulated failure of client {state.data.cid}")

        monkeypatch.setattr(federation, "client_local_round", failing_round)
        with pytest.raises(ValueError, match="simulated failure of client") as info:
            run_federation(setup)
        assert "failing_round" in info.value.__notes__[0]
        assert multiprocessing.active_children() == []

    def test_unpicklable_worker_exception_keeps_its_message(self, monkeypatch):
        setup = self._two_lane_setup(monkeypatch)

        class LocalError(Exception):  # a local class does not pickle
            pass

        def failing_round(state, *args):
            raise LocalError("not picklable")

        monkeypatch.setattr(federation, "client_local_round", failing_round)
        with pytest.raises(RuntimeError, match="LocalError: not picklable"):
            run_federation(setup)
        assert multiprocessing.active_children() == []


class TestFedAvgZero:
    def test_missing_cell_contributes_zero_vector(self):
        cfg = small_experiment(rounds=1)
        cfg.missingness.rate = 0.5
        asm = assemble_run(cfg)
        setup = fedavg_zero_setup(asm.setup)
        from fedmmg import encoding
        state = setup.clients[0]
        graph = state.data.graph
        m = 0
        hidden = np.flatnonzero(graph.natural_mask[:, m] == 0)
        if hidden.size:
            z = encoding.encode_modality(state.store, "img",
                                         graph.modalities[m].features,
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
        asm_a.setup.server_cfg.mode = "fedavg"
        h_bypass = run_federation(asm_a.setup)

        asm_b = assemble_run(cfg_b)
        h_zero = fedavg_zero_baseline(asm_b.setup)

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
        h_fn = fedavg_zero_baseline(assemble_run(cfg_rel).setup)
        assert h_cfg.mode == h_fn.mode == "fedavg-zero"
        assert [r.to_json_dict() for r in h_cfg.records] == \
            [r.to_json_dict() for r in h_fn.records]

    def test_deterministic(self):
        cfg = small_experiment(rounds=2)
        h1 = fedavg_zero_baseline(assemble_run(cfg).setup)
        h2 = fedavg_zero_baseline(assemble_run(cfg).setup)
        for a, b in zip(h1.records, h2.records):
            assert a.to_json_dict() == b.to_json_dict()
        assert h1.mode == "fedavg-zero"

"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The end-to-end criteria reuse one shared set of seeded runs.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from fedmmg import numerics as nx
from fedmmg.config import ExperimentConfig, assemble_run
from fedmmg.federation import (ReliabilityStats, aggregate, fedavg_zero_setup,
                               reliability_score, run_federation)
from fedmmg.fusion import monte_carlo_bound_check
from fedmmg.graphdata import MaskSet, sample_artificial_mask
from fedmmg.model import GraphCaches, forward_pass, init_params, make_plan
from fedmmg.numerics import MASK_NEG, SparsePattern, bank_attention, const
from fedmmg.verify import (run_gradcheck_suite, run_metrics_oracle,
                           run_theory_check)

SMOKE_SEEDS = (0, 1, 2, 3, 4)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def smoke_config(seed: int) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.seed = seed
    cfg.data.blocks = 4
    cfg.data.nodes_per_block = 50
    cfg.federation.clients = 4
    cfg.federation.alpha = 0.5
    cfg.federation.rounds = 30
    cfg.missingness.rate = 0.3
    cfg.model.hidden_dim = 32
    return cfg


@lru_cache(maxsize=1)
def smoke_runs():
    """Five seeded pairs of (full pipeline, zero-fill baseline) runs."""
    out = []
    for seed in SMOKE_SEEDS:
        t0 = time.perf_counter()
        full = run_federation(assemble_run(smoke_config(seed)).setup)
        full_secs = time.perf_counter() - t0
        t0 = time.perf_counter()
        zero = run_federation(fedavg_zero_setup(assemble_run(smoke_config(seed)).setup))
        zero_secs = time.perf_counter() - t0
        out.append((full, zero, full_secs, zero_secs))
    return out


@lru_cache(maxsize=1)
def heterogeneity_runs():
    """Reliability vs plain FedAvg with one client at 80% missingness."""
    out = []
    for seed in SMOKE_SEEDS:
        accs = []
        for mode in ("reliability", "fedavg"):
            cfg = smoke_config(seed)
            cfg.federation.mode = mode
            cfg.missingness.per_client_rates = [0.8, 0.1, 0.1, 0.1]
            history = run_federation(assemble_run(cfg).setup)
            accs.append(history.records[-1].metrics.values[0])
        out.append(tuple(accs))
    return out


def test_criterion_1_mask_algebra():
    start = time.perf_counter()
    natural = np.array([[0.0, 0.0], [1.0, 1.0]])
    keep = np.array([[0.0, 1.0], [0.0, 1.0]])
    masks = MaskSet(natural=natural, keep=keep)
    table_ok = (
        np.array_equal(masks.effective, natural * keep)
        and np.array_equal(masks.recon, natural - natural * keep)
        and (masks.recon[natural == 0] == 0).all()
    )
    rng = np.random.default_rng(0)
    for _ in range(50):
        nat = (rng.random((20, 2)) > 0.3).astype(float)
        drawn = sample_artificial_mask(nat, 0.4, rng)
        table_ok = table_ok and (drawn.recon[nat == 0] == 0).all() \
            and np.array_equal(drawn.effective, nat * drawn.keep)
    elapsed = time.perf_counter() - start
    _report("criterion 1 (mask algebra)", table_ok and elapsed < 1.0,
            f"truth table exhaustive, naturally-missing never a target, {elapsed:.3f}s")


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    report_nc = run_gradcheck_suite(seeds=10, h=1e-5, tasks=("nc",))
    report_lp_mr = run_gradcheck_suite(seeds=5, h=1e-4, tasks=("lp", "mr"))
    elapsed = time.perf_counter() - start
    worst = max(report_nc["max_rel_err"], report_lp_mr["max_rel_err"])
    checks = report_nc["checks"] + report_lp_mr["checks"]
    groups = set(report_nc["per_subnetwork"]) | set(report_lp_mr["per_subnetwork"])
    needed = {"enc", "adapter", "gnn", "gen", "unc", "router", "expert",
              "fallback", "head", "strenc", "refine", "fuse"}
    _report("criterion 2 (gradient suite)",
            worst <= 1e-3 and checks == 20 and needed <= groups and elapsed < 60,
            f"max rel err {worst:.2e} over {checks} seeded checks, {elapsed:.1f}s")


def test_criterion_3_aggregation_reduction():
    rng = np.random.default_rng(1)
    ok = True
    # equal reliability stats reduce to data-size weighting
    for _ in range(20):
        k = int(rng.integers(2, 8))
        sizes = {i: int(rng.integers(1, 300)) for i in range(k)}
        params = {i: rng.normal(size=3) for i in range(k)}
        score = float(np.exp(-rng.uniform(0, 2)))
        _, omega = aggregate(params, sizes, {i: score for i in range(k)})
        total = sum(sizes.values())
        ok = ok and all(abs(omega[i] - sizes[i] / total) < 1e-12 for i in range(k))
        ok = ok and all(w > 0 for w in omega.values())
        ok = ok and 0 <= 1.0 - sum(omega.values()) < 1e-9
    # strict monotone decrease in mean uncertainty, others increasing
    server = ExperimentConfig().federation
    for _ in range(100):
        k = int(rng.integers(2, 6))
        sizes = {i: int(rng.integers(1, 80)) for i in range(k)}
        stats = {i: ReliabilityStats(float(rng.uniform(0, 0.85)),
                                     float(rng.uniform(0, 1)),
                                     float(rng.uniform(0, 1)), sizes[i])
                 for i in range(k)}
        params = {i: np.zeros(1) for i in range(k)}
        w1 = aggregate(params, sizes,
                       {i: reliability_score(stats[i], server) for i in range(k)})[1]
        stats[0] = ReliabilityStats(stats[0].mean_uncertainty + 0.1,
                                    stats[0].mean_recon_error,
                                    stats[0].missing_ratio, sizes[0])
        w2 = aggregate(params, sizes,
                       {i: reliability_score(stats[i], server) for i in range(k)})[1]
        ok = ok and w2[0] < w1[0] and all(w2[j] > w1[j] for j in range(1, k))
    _report("criterion 3 (aggregation reduction)", ok,
            "equal-stat FedAvg match to 1e-12, sum deficit < 1e-9, monotone x100")


def test_criterion_4_fusion_error_bound():
    start = time.perf_counter()
    report = run_theory_check(configs=1000, trials=10000, seed=0)
    elapsed = time.perf_counter() - start
    _report("criterion 4 (fusion error bound)",
            report["holds_fraction"] >= 0.99 and report["suppression_ok"]
            and report["fallback_ok"] and elapsed < 120,
            f"holds {report['holds_fraction']:.3f}, suppressed weight "
            f"{report['suppressed_weight']:.1e}, fallback ok, {elapsed:.1f}s")


def test_criterion_5_self_leakage():
    # a masked token has no attention slot, so its row cannot reach the output
    d = 8
    rng = np.random.default_rng(2)
    eye = const(np.eye(d))
    query = const(rng.normal(size=(1, d)))
    rows = rng.normal(size=(3, d))
    slots = SparsePattern.of_banks(np.arange(3).reshape(1, -1),
                                   np.array([[0.0, MASK_NEG, 0.0]]))
    before, _ = bank_attention(query, const(rows), eye, eye, eye, slots, 2)
    rows[1] += 2.5
    after, _ = bank_attention(query, const(rows), eye, eye, eye, slots, 2)
    no_slot = 1 not in slots.indices and after.data.tobytes() == before.data.tobytes()

    # star graph, one conv layer: perturbation probes
    from test_encoding import small_cfg, star_graph
    cfg = small_cfg(gnn_layers=1)
    graph = star_graph(seed=5)
    keep = np.ones((graph.n, 2))
    keep[0, 0] = 0.0  # the hub's target cell is artificially masked
    masks = MaskSet(natural=graph.natural_mask, keep=keep)

    def run_probe():
        params = init_params(cfg, 5)
        caches = GraphCaches.build(graph)
        plan = make_plan(graph, caches, masks, cfg, np.random.default_rng(9))
        bundle = forward_pass(params, cfg, plan, 7)
        from fedmmg import encoding
        raw = encoding.encode_modalities(params, graph, masks.natural)
        anchors, contexts = [], []
        for m, (name, _dim) in enumerate(cfg.modalities):
            anc = encoding.structural_anchor(
                params, name, raw[m],
                *encoding.anchor_coefficients(caches.neigh_mat,
                                              masks.effective[:, m]))
            anchors.append(anc)
            contexts.append(encoding.graph_context(params, name, raw[m], anc,
                                                   masks.effective[:, m],
                                                   caches.neigh_mat,
                                                   cfg.gnn_layers))
        excl = encoding.target_exclusive_context(contexts, masks.effective, 0)
        return bundle.generated.data[0].copy(), excl.data[0].copy()

    gen_before, excl_before = run_probe()
    graph.modalities[0].features[0] += 2.5
    gen_after, excl_after = run_probe()
    gen_delta = np.abs(gen_after - gen_before).max()
    excl_delta = np.abs(excl_after - excl_before).max()
    _report("criterion 5 (self-leakage)",
            no_slot and gen_delta == 0.0 and excl_delta < 1e-12,
            f"masked token has no slot; probe deltas gen={gen_delta:.1e} "
            f"excl={excl_delta:.1e}")


def test_criterion_6_metrics_oracle():
    report = run_metrics_oracle(instances=100, seed=0, atol=1e-9)
    _report("criterion 6 (metrics oracle)",
            report["agreements"] == 100 and report["hand_cases_ok"],
            f"{report['agreements']}/100 agree within 1e-9, hand cases ok")


def test_criterion_7_end_to_end_smoke():
    ratios, at_least, run_times = [], 0, []
    for (full, zero, full_secs, zero_secs) in smoke_runs():
        ratios.append(full.records[-1].mean_loss.total
                      / full.records[0].mean_loss.total)
        at_least += (full.records[-1].metrics.values[0]
                     >= zero.records[-1].metrics.values[0])
        run_times.extend([full_secs, zero_secs])
    median_ratio = float(np.median(ratios))
    _report("criterion 7 (end-to-end smoke)",
            median_ratio < 0.6 and at_least >= 4 and max(run_times) < 120,
            f"median loss ratio {median_ratio:.3f}, full>=zero in {at_least}/5 "
            f"seeds, slowest run {max(run_times):.1f}s")


def test_criterion_8_uncertainty_calibration():
    pearsons = []
    for (full, _zero, _t1, _t2) in smoke_runs():
        cal = full.calibration
        pearsons.append(float(np.corrcoef(cal["uncertainty"],
                                          cal["norm_err"])[0, 1]))
    median = float(np.median(pearsons))
    _report("criterion 8 (uncertainty calibration)", median > 0.3,
            f"median Pearson(u, NormErr) = {median:.3f} over 5 seeds")


def test_criterion_9_determinism(tmp_path):
    import json
    from fedmmg.cli import main
    cfg_doc = {
        "data": {"blocks": 4, "nodes_per_block": 12, "d_img": 24, "d_txt": 18},
        "federation": {"clients": 3, "rounds": 3},
        "model": {"hidden_dim": 16, "warmup_rounds": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    blobs = []
    for tag, workers in (("a1", "1"), ("b1", "1"), ("a4", "4")):
        out = tmp_path / tag
        code = main(["run", "--config", str(cfg_path), "--seed", "11",
                     "--workers", workers, "--out", str(out)])
        assert code == 0
        blobs.append(((out / "metrics.csv").read_bytes(),
                      (out / "rounds.jsonl").read_bytes()))
    _report("criterion 9 (determinism)",
            blobs[0] == blobs[1] == blobs[2],
            "metrics.csv and rounds.jsonl byte-identical across reruns and "
            "worker counts 1/4")


def test_criterion_10_heterogeneity_direction():
    at_least = sum(rel >= avg for rel, avg in heterogeneity_runs())
    detail = ", ".join(f"{rel:.3f}/{avg:.3f}" for rel, avg in heterogeneity_runs())
    _report("criterion 10 (heterogeneity direction)", at_least >= 4,
            f"reliability>=fedavg in {at_least}/5 seeds ({detail})")

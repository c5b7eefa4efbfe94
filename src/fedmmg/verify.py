"""Verification harnesses: finite-difference gradients, fusion-bound Monte
Carlo sweep, and brute-force metric oracles.

Each harness returns a plain dict report so the CLI can emit it as JSON and
tests can assert on it directly.
"""

from __future__ import annotations

import numpy as np

from . import metrics as metrics_impl
from . import tasks as task_ops
from .fusion import monte_carlo_bound_check
from .graphdata import MaskSet, Modality, MultimodalGraph
from .model import (FrozenTargets, GraphCaches, ModelConfig, forward_pass,
                    init_params, make_plan)
from .numerics import KinkWatch, Tape, grad_check

GRAD_TOL = 1e-3
DEFAULT_GRAD_SEEDS = 20

_SUBNETWORKS = ("enc", "adapter", "gnn", "anchor", "strenc", "gen", "unc",
                "router", "expert", "fallback", "fuse", "refine", "head")


def _toy_graph(seed: int) -> MultimodalGraph:
    """Six nodes, two modalities, one isolated node, mixed visibility."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x706])
    n, d_a, d_b = 6, 10, 12
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]  # node 5 isolated
    natural = np.ones((n, 2))
    natural[4, 0] = 0.0  # one naturally missing cell
    feats_a = rng.normal(size=(n, d_a))
    feats_b = rng.normal(size=(n, d_b))
    return MultimodalGraph(
        n=n, edges=edges,
        modalities=[Modality("img", d_a, feats_a), Modality("txt", d_b, feats_b)],
        labels=np.array([0, 1, 0, 1, 0, 1]), natural_mask=natural)


def _toy_masks(graph: MultimodalGraph, seed: int) -> MaskSet:
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x3A5])
    keep = np.ones_like(graph.natural_mask)
    observed = np.argwhere(graph.natural_mask == 1.0)
    hide = rng.choice(len(observed), size=3, replace=False)
    for row in observed[hide]:
        keep[tuple(row)] = 0.0
    return MaskSet(natural=graph.natural_mask, keep=keep)


def _local_objective_fn(graph, masks, cfg, seed, store):
    """Scalar training objective with the stop-gradient targets pinned to
    their base-point values, which is the function the tape differentiates.
    Every probe runs on one plan, so all of them see the same banks."""
    plan = make_plan(graph, GraphCaches.build(graph), masks, cfg,
                     np.random.default_rng([seed & 0xFFFFFFFF, 0xF0]))
    train_idx = np.array([0, 1, 2, 3])
    base = forward_pass(store, cfg, plan, round_t=5)
    frozen = FrozenTargets(raw_targets=base.raw_cells, norm_err=base.norm_err)

    def fn(store):
        bundle = forward_pass(store, cfg, plan, round_t=5, frozen=frozen)
        if cfg.task == "nc":
            task = task_ops.nc_task_loss(store, bundle.refined, graph.labels,
                                         train_idx)
        elif cfg.task == "mr":
            task = task_ops.mr_task_loss(store, bundle.expert_flat, graph.n,
                                         train_idx, refined=bundle.refined,
                                         labels=graph.labels)
        else:
            pos = graph.edges[:3]
            neg = np.array([[0, 4], [1, 5], [2, 5]], dtype=np.intp)
            task = task_ops.lp_pair_loss(bundle.refined, pos, neg)
        total, _ = task_ops.local_objective(cfg, task, bundle.rec_loss,
                                            bundle.align_loss, bundle.route_loss)
        return total

    return fn


def _well_conditioned_seed(fn_builder, base_seed: int, margin: float):
    """First derived seed whose forward keeps every relu input away from its
    kink, so central differences see a locally linear activation pattern.

    The required margin is the probe step scaled by a generous bound on how
    far one perturbed entry can move any pre-activation."""
    for attempt in range(0, 200):
        seed = (base_seed * 1000003 + attempt) & 0x7FFFFFFF
        fn, store = fn_builder(seed)
        with KinkWatch() as watch, Tape():
            fn(store)
        if watch.margin > margin:
            return seed, fn, store
    raise RuntimeError("no well-conditioned seed found for gradient check")


def run_gradcheck_suite(seeds: int = DEFAULT_GRAD_SEEDS, h: float = 1e-5,
                        max_entries: int = 12, tasks: tuple[str, ...] = ("nc",)
                        ) -> dict:
    """Check every trainable sub-network and the full local objective against
    central finite differences across independent seeds."""
    if seeds < 1:  # a suite that checks nothing must not report a pass
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    if max_entries < 1:
        raise ValueError(f"max_entries must be at least 1, got {max_entries}")
    if not set(tasks) <= set(task_ops.TASK_KINDS):
        raise ValueError(f"tasks must be among {task_ops.TASK_KINDS}, got {tasks}")

    def builder_for(task_kind):
        def build(seed):
            graph = _toy_graph(seed)
            masks = _toy_masks(graph, seed)
            cfg = ModelConfig(task=task_kind, modalities=[("img", 10), ("txt", 12)],
                              hidden_dim=8, heads=4, neighbor_cap=4, warmup_rounds=10,
                              num_classes=2)
            store = init_params(cfg, seed)
            return _local_objective_fn(graph, masks, cfg, seed, store), store
        return build

    worst: dict[str, float] = {}
    overall = 0.0
    checks = 0
    for task_kind in tasks:
        build = builder_for(task_kind)
        for s in range(seeds):
            seed, fn, store = _well_conditioned_seed(build, s, margin=30 * h)
            report = grad_check(fn, store, h=h, max_entries_per_param=max_entries,
                                rng=np.random.default_rng([seed, 0x6C]))
            checks += 1
            overall = max(overall, report.max_rel_err)
            for name, err in report.per_param.items():
                group = next((g for g in _SUBNETWORKS if name.startswith(g)), name)
                worst[group] = max(worst.get(group, 0.0), err)
    return {
        "max_rel_err": float(overall),
        "tolerance": GRAD_TOL,
        "per_subnetwork": {k: float(worst[k]) for k in sorted(worst)},
        "seeds": seeds,
        "checks": checks,
        "h": h,
        "passed": bool(overall <= GRAD_TOL),
    }


# ---------------------------------------------------------------------------
# Fusion bound sweep
# ---------------------------------------------------------------------------


def run_theory_check(configs: int = 1000, trials: int = 10000, seed: int = 0,
                     required_fraction: float = 0.99) -> dict:
    """Monte Carlo sweep of the fusion error bound over random settings."""
    if configs < 1:
        raise ValueError(f"configs must be at least 1, got {configs}")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x7E0])
    holds = 0
    failures = []
    for i in range(configs):
        m_count = int(rng.integers(2, 5))
        variances = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=m_count))
        v_str = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        uncertainties = rng.uniform(0.0, 3.0, size=m_count)
        alpha = float(rng.uniform(0.0, 1.0))
        report = monte_carlo_bound_check(variances, v_str, uncertainties, alpha,
                                         trials=trials, seed=seed + i)
        if report.holds:
            holds += 1
        elif len(failures) < 5:
            failures.append({"config": i, "empirical": report.empirical_mse,
                             "bound": report.analytic_bound})
    fraction = holds / configs
    suppression = monte_carlo_bound_check(np.array([1.0, 1.0]), 1.0,
                                          np.array([0.0, 20.0]), 0.0,
                                          trials=trials, seed=seed)
    fallback = monte_carlo_bound_check(np.array([5.0, 5.0]), 1.0,
                                       np.array([1.0, 1.0]), 1.0,
                                       trials=trials, seed=seed)
    suppressed_weight = float(suppression.weights[1])
    return {
        "configs": configs,
        "trials": trials,
        "holds_fraction": fraction,
        "required_fraction": required_fraction,
        "suppressed_weight": suppressed_weight,
        "suppression_ok": suppressed_weight < 1e-8,
        "fallback_empirical": fallback.empirical_mse,
        "fallback_bound": fallback.analytic_bound,
        "fallback_ok": bool(fallback.holds),
        "failures": failures,
        "passed": bool(fraction >= required_fraction
                       and suppressed_weight < 1e-8 and fallback.holds),
    }


# ---------------------------------------------------------------------------
# Brute-force metric oracles
# ---------------------------------------------------------------------------


def oracle_accuracy(labels, predicted) -> float:
    hits = sum(1 for a, b in zip(labels, predicted) if a == b)
    return hits / len(labels)


def oracle_macro_f1(labels, predicted, num_classes) -> float:
    scores = []
    for c in range(num_classes):
        if c not in labels and c not in predicted:
            continue
        tp = sum(1 for a, b in zip(labels, predicted) if a == c and b == c)
        fp = sum(1 for a, b in zip(labels, predicted) if a != c and b == c)
        fn = sum(1 for a, b in zip(labels, predicted) if a == c and b != c)
        scores.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
    return sum(scores) / len(scores)


def oracle_auc(pos, neg) -> float:
    """Exhaustive pair counting: wins plus half-credit for ties."""
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_average_precision(pos, neg) -> float:
    scored = [(s, 1) for s in pos] + [(s, 0) for s in neg]
    thresholds = sorted({s for s, _ in scored}, reverse=True)
    ap, prev_recall = 0.0, 0.0
    total_pos = len(pos)
    for th in thresholds:
        retrieved = [lab for s, lab in scored if s >= th]
        tp = sum(retrieved)
        precision = tp / len(retrieved)
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def oracle_rank(scores, target_idx) -> float:
    """Descending rank of the target with mean rank over its tied block."""
    target = scores[target_idx]
    greater = sum(1 for s in scores if s > target)
    equal = sum(1 for s in scores if s == target)
    return greater + (equal + 1) / 2.0


def run_metrics_oracle(instances: int = 100, seed: int = 0,
                       max_items: int = 50, atol: float = 1e-9) -> dict:
    """Compare the metric implementations against exhaustive references on
    random instances (with occasional forced ties)."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x0AC])
    agree = 0
    mismatches = []
    for i in range(instances):
        n = int(rng.integers(4, max_items + 1))
        n_classes = int(rng.integers(2, 6))
        labels = rng.integers(0, n_classes, size=n)
        logits = rng.normal(size=(n, n_classes))
        predicted = logits.argmax(axis=1)

        p = int(rng.integers(2, max(3, n // 2)))
        q = int(rng.integers(2, max(3, n // 2)))
        pos = rng.normal(size=p)
        neg = rng.normal(size=q)
        if rng.random() < 0.3:  # force score ties across the two sets
            neg[0] = pos[0]
        sim = rng.normal(size=(min(n, 12), min(n, 12)))
        if rng.random() < 0.3:
            sim[0, :2] = sim[0, 0]
        targets = rng.integers(0, sim.shape[1], size=sim.shape[0])

        row_nc = metrics_impl.evaluate_metrics("nc", logits, labels)
        row_lp = metrics_impl.evaluate_metrics("lp", (pos, neg), None)
        ranks = metrics_impl.retrieval_ranks(sim, targets)
        oracle_ranks = np.array([oracle_rank(sim[r].tolist(), targets[r])
                                 for r in range(sim.shape[0])])

        expected = {
            "accuracy": oracle_accuracy(labels.tolist(), predicted.tolist()),
            "macro_f1": oracle_macro_f1(labels.tolist(), predicted.tolist(), n_classes),
            "auc": oracle_auc(pos.tolist(), neg.tolist()),
            "ap": oracle_average_precision(pos.tolist(), neg.tolist()),
            "recall_at_5": float((oracle_ranks <= 5).mean()),
            "mrr": float((1.0 / oracle_ranks).mean()),
        }
        got = {
            "accuracy": row_nc.values[0], "macro_f1": row_nc.values[1],
            "auc": row_lp.values[0], "ap": row_lp.values[1],
            "recall_at_5": metrics_impl.recall_at_k(ranks, 5),
            "mrr": metrics_impl.mrr(ranks),
        }
        deltas = {k: abs(expected[k] - got[k]) for k in expected}
        if max(deltas.values()) <= atol:
            agree += 1
        elif len(mismatches) < 5:
            mismatches.append({"instance": i, "deltas": deltas})

    hand_mrr = metrics_impl.mrr(np.array([1.0, 2.0, 4.0]))
    hand_auc = metrics_impl.auc_score(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
    hand_ok = abs(hand_mrr - (1 + 0.5 + 0.25) / 3) < 1e-12 and hand_auc == 1.0
    return {
        "instances": instances,
        "agreements": agree,
        "atol": atol,
        "hand_cases_ok": bool(hand_ok),
        "mismatches": mismatches,
        "passed": bool(agree == instances and hand_ok),
    }

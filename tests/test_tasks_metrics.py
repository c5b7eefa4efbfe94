"""Stage-4 heads/losses/objective and the evaluation metrics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmmg import metrics
from fedmmg import numerics as nx
from fedmmg import tasks, verify
from fedmmg.metrics import (MetricError, auc_score, average_precision,
                            evaluate_metrics, macro_f1, mrr, recall_at_k,
                            retrieval_ranks)
from fedmmg.model import GraphCaches, init_params
from fedmmg.numerics import const, neighbor_mean_matrix
from fedmmg.tasks import cross_entropy, refine

from test_encoding import edge_array, small_cfg, star_graph
from test_graphdata import _bare_graph


def link_graph(n, edges):
    return _bare_graph(n, sorted(edges))


def one_shot_hard_negatives(refined, graph, batch, rng):
    """``sample_hard_negatives`` scoring its whole pool at once, from two
    [pool x d] row gathers: the composition the grouped scoring replaced."""
    pool_size = max(tasks.HARD_NEGATIVE_MIN_POOL, int(tasks.HARD_NEGATIVE_SCALE * batch))
    pool = tasks.draw_non_edges(graph, 2 * pool_size, 1, rng)[:pool_size]
    scores = (refined[pool[:, 0]] * refined[pool[:, 1]]).sum(axis=1)
    order = np.argsort(-scores, kind="stable")[:batch]
    return pool[np.sort(order)]


class TestLossWeights:
    @pytest.mark.parametrize("task, default", [("nc", 0.05), ("lp", 0.05),
                                               ("mr", 0.5)])
    def test_reconstruction_weight_by_task(self, task, default):
        assert small_cfg(task=task).rec_weight == default
        assert small_cfg(task=task, lambda_rec=0.3).rec_weight == 0.3
        assert small_cfg(task=task, lambda_rec=0.0).rec_weight == 0.0

    def test_default_weights(self):
        cfg = small_cfg()
        assert cfg.lambda_align == 0.01 and cfg.lambda_route == 0.01
        assert tasks.NCE_TEMPERATURE == 0.07
        assert (tasks.LP_BCE_WEIGHT, tasks.LP_BPR_WEIGHT, tasks.LP_MARGIN_WEIGHT,
                tasks.LP_MARGIN) == (1.0, 0.5, 0.3, 0.1)
        assert tasks.HARD_NEGATIVE_SCALE == 4.0
        assert tasks.HARD_NEGATIVE_MIN_POOL == 256

    def test_gradient_suite_rejects_an_unknown_task(self):
        with pytest.raises(ValueError, match="tasks must be among"):
            verify.run_gradcheck_suite(seeds=1, tasks=("nc", "graph-level"))

    @pytest.mark.parametrize("arg", ["seeds", "max_entries"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_gradient_suite_that_would_probe_nothing_is_rejected(self, arg, value):
        with pytest.raises(ValueError, match=f"^{arg} must be at least 1, got {value}$"):
            verify.run_gradcheck_suite(**{"seeds": 1, arg: value})


class TestRefine:
    def test_zero_conv_gives_halfshift_layer_norm(self):
        params = init_params(small_cfg(), 0)
        params["refine.w_self"].data[:] = 0.0
        params["refine.w_neigh"].data[:] = 0.0
        params["refine.b"].data[:] = 0.0
        rng = np.random.default_rng(0)
        fused = rng.normal(size=(3, 8))
        mat = neighbor_mean_matrix(3, edge_array([(0, 1)]))
        out = refine(params, const(fused), mat)
        shifted = fused + 0.5
        mu = shifted.mean(axis=1, keepdims=True)
        var = shifted.var(axis=1, keepdims=True)
        expected = (shifted - mu) / np.sqrt(var + 1e-8)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_row_mean_matches_bias(self):
        params = init_params(small_cfg(), 1)
        rng = np.random.default_rng(1)
        out = refine(params, const(rng.normal(size=(4, 8))),
                     neighbor_mean_matrix(4, edge_array([(0, 1), (2, 3)])))
        np.testing.assert_allclose(out.data.mean(axis=1),
                                   params["refine.ln_b"].data.mean(), atol=1e-10)

    def test_isolated_node_finite(self):
        params = init_params(small_cfg(), 2)
        out = refine(params, const(np.random.default_rng(2).normal(size=(2, 8))),
                     neighbor_mean_matrix(2, edge_array([])))
        assert np.isfinite(out.data).all()


class TestLosses:
    def test_uniform_logits_cross_entropy_is_log_c(self):
        for c in (2, 5, 9):
            logits = const(np.zeros((7, c)))
            labels = np.arange(7) % c
            np.testing.assert_allclose(cross_entropy(logits, labels).data,
                                       np.log(c), atol=1e-12)

    def test_perfect_one_hot_predictor_near_zero(self):
        labels = np.array([0, 1, 2])
        logits = const(np.eye(3) * 50.0)
        assert cross_entropy(logits, labels).data < 1e-12

    def test_lp_scores_symmetric(self):
        rng = np.random.default_rng(3)
        refined = const(rng.normal(size=(6, 4)))
        ij = np.array([[0, 3], [2, 5]])
        ji = ij[:, ::-1]
        np.testing.assert_allclose(nx.pair_dots(refined, ij).data,
                                   nx.pair_dots(refined, ji).data)

    def test_bpr_saturates_for_wide_margin(self):
        # positive score far above negative: pairwise-rank term goes to 0
        refined = const(np.array([[10.0, 0.0], [10.0, 0.0], [-10.0, 0.0]]))
        loss = tasks.lp_task_loss(refined, np.array([[0, 1]]), link_graph(3, [(0, 1)]),
                                  np.random.default_rng(4))
        diff = 100.0 - (-100.0)
        assert loss.data < tasks.LP_BCE_WEIGHT * 200  # BCE pos term dominates
        bpr_part = np.log1p(np.exp(-diff))
        assert bpr_part < 1e-12

    def test_lp_requires_positive_edges(self):
        refined = const(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="positive"):
            tasks.lp_task_loss(refined, np.empty((0, 2), dtype=np.intp),
                               link_graph(3, []), np.random.default_rng(5))

    def test_infonce_singleton_is_zero(self):
        params = init_params(small_cfg(), 3)
        expert = const(np.random.default_rng(6).normal(size=(2, 8)))  # 1 node, 2 cells
        loss = tasks.mr_task_loss(params, expert, 1, np.array([0]))
        np.testing.assert_allclose(loss.data, 0.0, atol=1e-12)

    def test_hard_negatives_avoid_real_edges(self):
        # the second graph has one non-edge in 780 pairs, which a first
        # pool of 512 draws often misses
        complete = {(u, v) for u in range(40) for v in range(u + 1, 40)}
        for n, edges, draws in ((10, {(0, 1), (2, 3), (4, 5)}, 1),
                                (40, complete - {(3, 17)}, 20)):
            rng = np.random.default_rng(7)
            refined = rng.normal(size=(n, 4))
            graph = link_graph(n, edges)
            for _ in range(draws):
                for u, v in tasks.sample_hard_negatives(refined, graph, 4, rng):
                    assert (min(u, v), max(u, v)) not in edges
                    assert u != v

    def test_hard_negatives_match_one_shot_scoring(self):
        # a pool of 6,000 pairs spans two groups; the second half of the
        # rows repeats the first, so many scores tie and the stable order
        # of the ties decides which pairs are kept
        n, batch = 300, 1500
        assert tasks.HARD_NEGATIVE_SCALE * batch > nx._GROUP
        refined = np.random.default_rng(12).normal(size=(n, 32))
        refined[n // 2:] = refined[:n // 2]
        graph = link_graph(n, {(u, u + 1) for u in range(n - 1)})
        got = tasks.sample_hard_negatives(refined, graph, batch, np.random.default_rng(13))
        want = one_shot_hard_negatives(refined, graph, batch, np.random.default_rng(13))
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_hard_negative_scoring_needs_one_group_of_rows(self):
        # 20,000 nodes at width 32 and a batch of 10,000, so a pool of
        # 40,000 pairs: scoring it from whole [pool x 32] gathers peaked at
        # 20.8 MiB, and one group of pairs at a time at 4.4 MiB, most of it
        # the drawn candidate pairs
        n, width, batch = 20000, 32, 10000
        rng = np.random.default_rng(14)
        refined = rng.normal(size=(n, width))
        graph = link_graph(n, {(u, u + 1) for u in range(n - 1)})
        pool = int(tasks.HARD_NEGATIVE_SCALE * batch)
        drawn = 2 * pool * 2 * 8  # the [2 x pool, 2] candidate pairs
        group = 2 * nx._GROUP * width * 8  # one group's two gathered row blocks
        tracemalloc.start()
        try:
            tasks.sample_hard_negatives(refined, graph, batch, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * drawn + group

    def test_hard_negatives_need_a_non_edge(self):
        complete = link_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert not complete.has_non_edge
        assert link_graph(3, [(0, 1), (1, 2)]).has_non_edge
        with pytest.raises(ValueError, match="non-edge"):
            tasks.sample_hard_negatives(np.zeros((3, 2)), complete, 2,
                                        np.random.default_rng(8))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_drawing_from_a_complete_graph_raises(self, n):
        complete = link_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        with pytest.raises(ValueError, match="non-edge"):
            tasks.draw_non_edges(complete, 8, 1, np.random.default_rng(10))

    def test_non_edges_come_in_draw_order_until_enough(self):
        graph = link_graph(5, [(0, 1), (1, 2), (3, 4)])
        drawn = tasks.draw_non_edges(graph, 3, 7, np.random.default_rng(11))
        stream, expected = np.random.default_rng(11), []
        while len(expected) < 7:
            expected += graph.non_edges(stream.integers(0, 5, size=(3, 2))).tolist()
        assert drawn.dtype == np.intp and drawn.tolist() == expected

    def test_non_edge_filter_matches_pair_set(self):
        rng = np.random.default_rng(9)
        edges = {(0, 1), (2, 3), (4, 5), (1, 7)}
        pairs = rng.integers(0, 8, size=(200, 2))
        expected = [p for p in pairs.tolist()
                    if p[0] != p[1] and (min(p), max(p)) not in edges]
        assert link_graph(8, edges).non_edges(pairs).tolist() == expected
        assert link_graph(8, []).non_edges(pairs).tolist() == \
            [p for p in pairs.tolist() if p[0] != p[1]]


def _weights(lambda_rec, lambda_align, lambda_route):
    return small_cfg(lambda_rec=lambda_rec, lambda_align=lambda_align,
                     lambda_route=lambda_route)


def _float_total(cfg, task, rec, align, route):
    """The breakdown's total as it was computed beside the tensor, in Python
    floats; kept as the reference the tensor's total must equal."""
    return (task + cfg.rec_weight * rec + cfg.lambda_align * align
            + cfg.lambda_route * route)


class TestLocalObjective:
    def test_identity_holds_exactly(self):
        cfg = _weights(0.5, 0.1, 0.2)
        total, b = tasks.local_objective(
            cfg, const(np.asarray(1.0)), const(np.asarray(2.0)),
            const(np.asarray(3.0)), const(np.asarray(4.0)))
        np.testing.assert_allclose(b.total, 3.1, atol=1e-15)
        assert b.total == float(total.data)
        assert (b.task, b.rec, b.align, b.route) == (1.0, 2.0, 3.0, 4.0)

    def test_zero_weights_reduce_to_task(self):
        cfg = _weights(0.0, 0.0, 0.0)
        total, b = tasks.local_objective(
            cfg, const(np.asarray(1.7)), const(np.asarray(9.0)),
            const(np.asarray(9.0)), const(np.asarray(9.0)))
        assert float(total.data) == 1.7 and b.total == 1.7

    @settings(max_examples=200, deadline=None)
    @given(parts=st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
           weights=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3),
           task=st.sampled_from(tasks.TASK_KINDS), rec_unset=st.booleans())
    def test_breakdown_total_is_the_float_formula_byte_for_byte(
            self, parts, weights, task, rec_unset):
        cfg = small_cfg(task=task, lambda_rec=None if rec_unset else weights[0],
                        lambda_align=weights[1], lambda_route=weights[2])
        total, b = tasks.local_objective(cfg, *(const(np.asarray(p)) for p in parts))
        assert b.total == float(total.data)
        assert np.float64(b.total).tobytes() == \
            np.float64(_float_total(cfg, *parts)).tobytes()


class TestMetrics:
    def test_mrr_hand_case(self):
        np.testing.assert_allclose(mrr(np.array([1.0, 2.0, 4.0])),
                                   (1 + 0.5 + 0.25) / 3, atol=1e-12)

    def test_recall_at_5_excludes_rank_6(self):
        assert recall_at_k(np.array([6.0]), 5) == 0.0
        assert recall_at_k(np.array([5.0, 1.0]), 5) == 1.0

    def test_separated_scores_auc_ap_one(self):
        pos = np.array([5.0, 4.0, 3.0])
        neg = np.array([1.0, 0.5])
        assert auc_score(pos, neg) == 1.0
        assert average_precision(pos, neg) == 1.0

    def test_auc_monotone_invariance(self):
        rng = np.random.default_rng(9)
        pos, neg = rng.normal(size=8), rng.normal(size=11)
        base = auc_score(pos, neg)
        np.testing.assert_allclose(auc_score(np.exp(pos), np.exp(neg)), base,
                                   atol=1e-12)
        np.testing.assert_allclose(auc_score(3 * pos + 7, 3 * neg + 7), base,
                                   atol=1e-12)

    def test_tied_scores_get_mean_rank(self):
        # one positive tied with one negative: the tie is worth half a win
        assert auc_score(np.array([1.0]), np.array([1.0])) == 0.5
        ranks = retrieval_ranks(np.array([[2.0, 2.0, 1.0]]), np.array([0]))
        np.testing.assert_allclose(ranks, [1.5])

    def test_single_class_auc_flagged(self):
        with pytest.raises(MetricError):
            auc_score(np.array([1.0]), np.empty(0))
        with pytest.raises(MetricError):
            evaluate_metrics("lp", (np.array([1.0]), np.empty(0)), None)

    def test_macro_f1_unweighted(self):
        labels = np.array([0, 0, 0, 1])
        predicted = np.array([0, 0, 0, 0])
        # class 0: f1 = 6/7; class 1: f1 = 0
        np.testing.assert_allclose(macro_f1(labels, predicted),
                                   0.5 * (6 / 7), atol=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(3, 30))
            logits = rng.normal(size=(n, 3))
            labels = rng.integers(0, 3, size=n)
            row = evaluate_metrics("nc", logits, labels)
            assert all(0.0 <= v <= 1.0 for v in row.values)
            pos, neg = rng.normal(size=5), rng.normal(size=7)
            row = evaluate_metrics("lp", (pos, neg), None)
            assert all(0.0 <= v <= 1.0 for v in row.values)
            sim = rng.normal(size=(6, 9))
            row = evaluate_metrics("mr", sim, rng.integers(0, 9, size=6))
            assert all(0.0 <= v <= 1.0 for v in row.values)

    def test_nc_row_names(self):
        row = evaluate_metrics("nc", np.array([[2.0, 1.0]]), np.array([0]))
        assert row.names == ("accuracy", "macro_f1")
        assert row.values == (1.0, 1.0)


def loop_average_precision(pos_scores, neg_scores):
    """The threshold loop ``average_precision`` replaced: one ``scores >= th``
    pass per distinct score, descending, summed in that order."""
    p = len(pos_scores)
    scores = np.concatenate([pos_scores, neg_scores])
    is_pos = np.concatenate([np.ones(p), np.zeros(len(neg_scores))])
    ap, prev_recall = 0.0, 0.0
    for th in np.unique(scores)[::-1]:
        sel = scores >= th
        tp = float(is_pos[sel].sum())
        precision = tp / float(sel.sum())
        recall = tp / p
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return float(ap)


def loop_mean_ranks(scores):
    """The block-walking loop ``_mean_ranks`` replaced."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# few distinct values, so most draws are heavily tied, plus the extremes
TIED_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, 1e-300, 1e308, -1e308,
                     np.inf, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=True, width=64))


class TestMetricsMatchLoops:
    @given(st.lists(TIED_SCORES, min_size=1, max_size=40),
           st.lists(TIED_SCORES, min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_average_precision_bit_for_bit(self, pos, neg):
        pos, neg = np.array(pos), np.array(neg)
        assert average_precision(pos, neg) == loop_average_precision(pos, neg)

    @given(st.lists(st.one_of(TIED_SCORES, st.just(np.nan)), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_mean_ranks_bit_for_bit(self, values):
        scores = np.array(values, dtype=np.float64)
        assert metrics._mean_ranks(scores).tobytes() == loop_mean_ranks(scores).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_large_tied_inputs(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.integers(0, 50, 3000) / 50.0
        neg = rng.integers(0, 50, 5000) / 50.0 - 0.1
        assert average_precision(pos, neg) == loop_average_precision(pos, neg)
        scores = np.concatenate([pos, neg])
        assert metrics._mean_ranks(scores).tobytes() == loop_mean_ranks(scores).tobytes()

"""Stage 3: uncertainty, routing, expert mixing, fusion, bound checker."""

import numpy as np
import pytest

from fedmmg import encoding, fusion
from fedmmg import numerics as nx
from fedmmg.fusion import (monte_carlo_bound_check, normalized_errors,
                           relative_recon_error, reliability_weights,
                           routing_loss)
from fedmmg.graphdata import MaskSet, missing_ratios
from fedmmg.model import GraphCaches, forward_pass, init_params, make_plan
from fedmmg.numerics import ParamStore, const

from test_encoding import small_cfg, star_graph


def _bundle(seed=0, keep=None, round_t=5):
    cfg = small_cfg()
    graph = star_graph(seed=seed)
    params = init_params(cfg, seed)
    if keep is None:
        keep = np.ones((graph.n, 2))
    masks = MaskSet(natural=graph.natural_mask, keep=keep)
    caches = GraphCaches.build(graph)
    plan = make_plan(graph, caches, masks, cfg, np.random.default_rng(0))
    bundle = forward_pass(params, cfg, plan, round_t)
    return cfg, params, graph, masks, bundle


class TestUncertainty:
    def test_zero_at_visible_cells_for_any_params(self):
        for seed in range(3):
            keep = (np.random.default_rng(seed).random((5, 2)) > 0.4).astype(float)
            _, _, _, masks, bundle = _bundle(seed=seed, keep=keep)
            u = bundle.uncertainty.data.reshape(-1)
            eff = masks.effective.T.reshape(-1)
            assert (u[eff == 1.0] == 0.0).all()

    def test_open_interval_at_hidden_cells(self):
        keep = np.zeros((5, 2))
        _, _, _, masks, bundle = _bundle(seed=1, keep=keep)
        u = bundle.uncertainty.data.reshape(-1)
        assert ((u > 0.0) & (u < 1.0)).all()

    def test_identical_inputs_identical_uncertainty(self):
        params = init_params(small_cfg(), 2)
        feats = const(np.tile(np.random.default_rng(2).normal(size=(1, 24)), (3, 1)))
        gen, excl, anc = (nx.rows(feats, [0, 1, 2]) for _ in range(3))
        gen = nx.rows(const(np.tile(np.random.default_rng(3).normal(size=(1, 8)), (3, 1))), [0, 1, 2])
        excl = nx.rows(const(np.tile(np.random.default_rng(4).normal(size=(1, 8)), (3, 1))), [0, 1, 2])
        anc = nx.rows(const(np.tile(np.random.default_rng(5).normal(size=(1, 8)), (3, 1))), [0, 1, 2])
        u = fusion.estimate_uncertainty(params, gen, excl, anc, np.zeros(3))
        np.testing.assert_allclose(u.data[0], u.data[1])
        np.testing.assert_allclose(u.data[1], u.data[2])


class TestRouting:
    def test_weights_sum_to_one(self):
        cfg, params, _, masks, bundle = _bundle(seed=3, keep=np.zeros((5, 2)))
        rho = missing_ratios(masks)
        w = fusion.route(params, masks.effective.T.reshape(-1), bundle.uncertainty,
                         rho, float(rho.mean()), cfg.router_temperature, 2).data
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert (w > 0).all()

    def test_equal_logits_split_evenly(self):
        params = init_params(small_cfg(), 4)
        params["router.l1.w"].data[:] = 0.0
        params["router.l1.b"].data[:] = 0.0
        params["router.l2.w"].data[:] = 0.0
        params["router.l2.b"].data[:] = 0.0
        u = const(np.full((4, 1), 0.3))
        w = fusion.route(params, np.zeros(4), u, np.zeros(2), 0.0, 1.0, 2)
        np.testing.assert_allclose(w.data, 0.5, atol=1e-12)

    def test_low_temperature_saturates(self):
        logits = const(np.array([[2.0, 0.0]]))
        w = nx.softmax(logits, temperature=0.1)
        assert w.data[0, 0] > 1 - 1e-8

    def test_temperature_sharpening_is_monotone(self):
        logits = const(np.array([[1.3, 0.2]]))
        top_hot = nx.softmax(logits, temperature=1.0).data[0, 0]
        top_cold = nx.softmax(logits, temperature=0.3).data[0, 0]
        assert top_cold > top_hot

    def test_invalid_temperature_rejected(self):
        params = init_params(small_cfg(), 5)
        with pytest.raises(ValueError):
            fusion.route(params, np.zeros(2), const(np.zeros((2, 1))),
                         np.zeros(1), 0.0, 0.0, 2)


class TestExpertMix:
    def test_hidden_cells_ignore_routing_weights(self):
        params = init_params(small_cfg(), 6)
        rng = np.random.default_rng(6)
        raw = const(rng.normal(size=(4, 8)))
        gen = const(rng.normal(size=(4, 8)))
        eff = np.array([0.0, 0.0, 1.0, 1.0])
        w_a = const(np.column_stack([np.full(4, 0.9), np.full(4, 0.1)]))
        w_b = const(np.column_stack([np.full(4, 0.2), np.full(4, 0.8)]))
        out_a = fusion.expert_mix(params, raw, gen, w_a, eff).data
        out_b = fusion.expert_mix(params, raw, gen, w_b, eff).data
        np.testing.assert_array_equal(out_a[:2], out_b[:2])
        assert np.abs(out_a[2:] - out_b[2:]).max() > 0

    def test_pure_observed_weight(self):
        params = init_params(small_cfg(), 7)
        rng = np.random.default_rng(7)
        raw = const(rng.normal(size=(2, 8)))
        gen = const(rng.normal(size=(2, 8)))
        w = const(np.column_stack([np.ones(2), np.zeros(2)]))
        out = fusion.expert_mix(params, raw, gen, w, np.ones(2)).data
        expected = np.maximum(
            raw.data @ params["expert.obs.w"].data + params["expert.obs.b"].data, 0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_even_mixture_with_identity_experts(self):
        params = init_params(small_cfg(), 8)
        params["expert.obs.w"].data = np.eye(8)
        params["expert.obs.b"].data[:] = 0.0
        params["expert.rec.w"].data = np.eye(8)
        params["expert.rec.b"].data[:] = 0.0
        raw = const(np.full((1, 8), 2.0))
        gen = const(np.zeros((1, 8)))
        w = const(np.array([[0.5, 0.5]]))
        out = fusion.expert_mix(params, raw, gen, w, np.ones(1)).data
        np.testing.assert_allclose(out, 1.0)


class TestFusion:
    def test_equal_uncertainty_gives_uniform_weights(self):
        w = reliability_weights(np.array([0.4, 0.4, 0.4]))
        np.testing.assert_allclose(w, 1 / 3, atol=1e-9)

    def test_hand_weights(self):
        w = reliability_weights(np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-9)

    def test_shift_invariance(self):
        u = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(reliability_weights(u),
                                   reliability_weights(u + 0.37), atol=1e-12)

    def test_weight_sum_within_tolerance(self):
        for seed in range(5):
            u = np.random.default_rng(seed).uniform(0, 1, size=3)
            assert abs(reliability_weights(u).sum() - 1.0) <= 1e-12

    def test_forced_fallback_removes_modality_dependence(self):
        params = init_params(small_cfg(), 9)
        params["fallback.w"].data[:] = 0.0
        params["fallback.b"].data[:] = 1e3  # saturate the gate to 1
        rng = np.random.default_rng(9)
        struct = const(rng.normal(size=(3, 8)))
        u = const(rng.uniform(0.1, 0.9, size=(6, 1)))
        out_a, _, alpha = fusion.fuse(params, const(rng.normal(size=(6, 8))), u,
                                      np.zeros(3), struct, 2)
        out_b, _, _ = fusion.fuse(params, const(rng.normal(size=(6, 8))), u,
                                  np.zeros(3), struct, 2)
        np.testing.assert_allclose(alpha, 1.0)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_fused_is_finite_and_shaped(self):
        cfg, params, graph, masks, bundle = _bundle(seed=10, keep=np.zeros((5, 2)))
        assert bundle.refined.data.shape == (graph.n, 8)
        assert np.isfinite(bundle.refined.data).all()
        caches = GraphCaches.build(graph)
        struct = encoding.structure_only_repr(params, caches.degrees,
                                              caches.neigh_mat, cfg.gnn_layers)
        _, reliability, alpha_fb = fusion.fuse(
            params, bundle.expert_flat, bundle.uncertainty, missing_ratios(masks),
            struct, 2)
        assert ((alpha_fb > 0) & (alpha_fb < 1)).all()
        np.testing.assert_allclose(reliability.sum(axis=1), 1.0, atol=1e-12)


class TestRoutingLoss:
    def test_perfect_calibration_and_balance(self):
        u = const(np.array([[0.2], [0.7], [0.0], [0.0]]))
        norm_err = np.array([0.2, 0.7, 0.0, 0.0])
        recon = np.array([1.0, 1.0, 0.0, 0.0])
        weights = const(np.column_stack([np.full(4, 0.5), np.full(4, 0.5)]))
        total, unc, bal = routing_loss(u, norm_err, recon, weights, 0.5)
        np.testing.assert_allclose(unc.data, 0.0, atol=1e-15)
        np.testing.assert_allclose(bal.data, 0.0, atol=1e-15)
        np.testing.assert_allclose(total.data, 0.0, atol=1e-15)

    def test_fully_collapsed_balance_is_half(self):
        u = const(np.zeros((4, 1)))
        weights = const(np.column_stack([np.ones(4), np.zeros(4)]))
        _, _, bal = routing_loss(u, np.zeros(4), np.zeros(4), weights, 0.5)
        np.testing.assert_allclose(bal.data, 0.5)

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = const(rng.uniform(0, 1, size=(6, 1)))
            err = rng.uniform(0, 1, size=6)
            recon = (rng.random(6) > 0.5).astype(float)
            w_raw = rng.uniform(0.05, 0.95, size=(6, 1))
            weights = const(np.column_stack([w_raw[:, 0], 1 - w_raw[:, 0]]))
            total, unc, bal = routing_loss(u, err, recon, weights, 0.5)
            assert unc.data >= 0 and bal.data >= 0 and total.data >= 0


class TestNormalizedErrors:
    def test_minmax_by_modality(self):
        errors = np.array([1.0, 5.0, 9.0, 100.0, 300.0, 200.0])
        recon = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        out = normalized_errors(errors, recon, m_count=2)
        np.testing.assert_allclose(out[:3], [0.0, 0.5, 1.0], atol=1e-9)
        np.testing.assert_allclose(out[3:], [0.0, 1.0, 0.5], atol=1e-9)

    def test_cells_outside_recon_set_are_zero(self):
        errors = np.array([4.0, 8.0, 2.0, 6.0])
        recon = np.array([1.0, 0.0, 1.0, 0.0])
        out = normalized_errors(errors, recon, m_count=1)
        assert out[1] == 0.0 and out[3] == 0.0
        assert ((out >= 0) & (out <= 1)).all()


def _sq_err(generated, targets):
    return ((generated - targets) ** 2).sum(axis=1)


class TestRelativeReconError:
    targets = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5], [-2.0, 4.0]])
    recon = np.array([1.0, 1.0, 0.0, 1.0])

    def test_perfect_reconstruction_is_zero(self):
        err = _sq_err(self.targets, self.targets)
        assert relative_recon_error(err, self.targets, self.recon) == 0.0

    def test_zero_generation_is_one(self):
        err = _sq_err(np.zeros_like(self.targets), self.targets)
        np.testing.assert_allclose(
            relative_recon_error(err, self.targets, self.recon), 1.0, atol=1e-12)

    def test_clipped_at_one(self):
        # cell 0 is 9x its target norm off, cell 1 a quarter: mean(1, 0.25, 1)
        generated = self.targets.copy()
        generated[0] = -2.0 * self.targets[0]
        generated[1] = 1.5 * self.targets[1]
        generated[3] = -self.targets[3]
        err = _sq_err(generated, self.targets)
        np.testing.assert_allclose(
            relative_recon_error(err, self.targets, self.recon), 2.25 / 3, atol=1e-12)

    def test_cells_outside_recon_set_ignored(self):
        generated = 1.1 * self.targets
        err = _sq_err(generated, self.targets)
        base = relative_recon_error(err, self.targets, self.recon)
        generated[2] = 100.0
        err = _sq_err(generated, self.targets)
        assert relative_recon_error(err, self.targets, self.recon) == base
        np.testing.assert_allclose(base, 0.01, atol=1e-12)
        assert relative_recon_error(err, self.targets, np.zeros(4)) == 0.0

    def test_uniformly_small_errors_give_small_value(self):
        rng = np.random.default_rng(0)
        targets = rng.normal(size=(40, 6))
        generated = targets + 1e-3 * rng.normal(size=targets.shape)
        err = _sq_err(generated, targets)
        recon = np.ones(40)
        assert relative_recon_error(err, targets, recon) < 1e-4
        # batch min-max scaling stretches the same errors over [0, 1]
        assert normalized_errors(err, recon, m_count=1).mean() > 0.1


class TestBoundCheck:
    def test_uniform_case_matches_theory(self):
        m = 4
        report = monte_carlo_bound_check(np.full(m, 2.0), 1.0, np.zeros(m),
                                         alpha_fb=0.0, trials=10000, seed=0)
        np.testing.assert_allclose(report.analytic_bound, 2 * 2.0 / m, rtol=1e-9)
        assert report.holds
        assert report.empirical_mse == pytest.approx(2.0 / m, rel=0.1)

    def test_full_fallback_limit(self):
        report = monte_carlo_bound_check(np.array([5.0, 5.0]), 1.5,
                                         np.array([0.2, 0.8]), alpha_fb=1.0,
                                         trials=10000, seed=1)
        assert report.holds
        assert report.empirical_mse == pytest.approx(1.5, rel=0.1)
        np.testing.assert_allclose(report.analytic_bound, 3.0)

    def test_unreliable_modality_is_suppressed(self):
        report = monte_carlo_bound_check(np.array([1.0, 1.0]), 1.0,
                                         np.array([0.0, 20.0]), alpha_fb=0.0,
                                         trials=10000, seed=2)
        assert report.weights[1] < 1e-8
        assert report.holds

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            monte_carlo_bound_check(np.array([1.0, -1.0]), 1.0,
                                    np.zeros(2), 0.0, trials=10000)
        with pytest.raises(ValueError):
            monte_carlo_bound_check(np.array([1.0, 1.0]), 1.0,
                                    np.zeros(2), 0.0, trials=10)

    def test_random_configurations_hold(self):
        rng = np.random.default_rng(3)
        held = 0
        for i in range(50):
            m = int(rng.integers(2, 5))
            report = monte_carlo_bound_check(
                np.exp(rng.uniform(-1, 1, size=m)),
                float(np.exp(rng.uniform(-1, 1))),
                rng.uniform(0, 3, size=m), float(rng.uniform(0, 1)),
                trials=10000, seed=100 + i)
            held += report.holds
        assert held >= 50 * 0.99

"""Stage 1: encoders, anchors, graph context, target exclusivity."""

import numpy as np
import pytest

from fedmmg import encoding
from fedmmg import numerics as nx
from fedmmg.graphdata import MaskSet, Modality, MultimodalGraph
from fedmmg.model import GraphCaches, ModelConfig, init_params
from fedmmg.numerics import const


def edge_array(pairs) -> np.ndarray:
    """An [E, 2] integer edge array from a list of (u, v) pairs."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def star_graph(n_leaves=4, d_img=6, d_txt=5, seed=0):
    """Leaves attach only to the hub (node 0)."""
    rng = np.random.default_rng(seed)
    n = n_leaves + 1
    edges = [(0, i) for i in range(1, n)]
    return MultimodalGraph(
        n=n, edges=edges,
        modalities=[Modality("img", d_img, rng.normal(size=(n, d_img))),
                    Modality("txt", d_txt, rng.normal(size=(n, d_txt)))],
        labels=np.zeros(n, dtype=np.int64), natural_mask=np.ones((n, 2)))


def small_cfg(**kw):
    defaults = dict(task="nc", modalities=[("img", 6), ("txt", 5)], hidden_dim=8,
                    heads=4, neighbor_cap=4, warmup_rounds=10, num_classes=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestEncoder:
    def test_hidden_dim_and_masking(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=0)
        graph = star_graph()
        natural = graph.natural_mask.copy()
        natural[2, 0] = 0.0
        graph.modalities[0].features[2] = 0.0
        z = encoding.encode_modality(params, "img", graph.modalities[0].features,
                                     natural[:, 0])
        assert z.shape == (graph.n, 8)
        np.testing.assert_array_equal(z.data[2], 0.0)  # absent row stays null

    def test_identical_rows_encode_identically(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=1)
        feats = np.tile(np.random.default_rng(1).normal(size=(1, 6)), (3, 1))
        z = encoding.encode_modality(params, "img", feats, np.ones(3))
        np.testing.assert_allclose(z.data[0], z.data[1])
        np.testing.assert_allclose(z.data[1], z.data[2])

    def test_dimension_mismatch_raises(self):
        params = init_params(small_cfg(), seed=2)
        with pytest.raises(ValueError, match="raw dim"):
            encoding.encode_modality(params, "img", np.zeros((3, 7)), np.ones(3))

    def test_default_hidden_dim_is_256(self):
        cfg = ModelConfig(task="nc", modalities=[("img", 16), ("txt", 12)])
        params = init_params(cfg, seed=0)
        assert params["enc.img.w"].shape == (16, 256)


class TestStructuralAnchor:
    def test_uniform_mean_of_visible_neighbors(self):
        neigh_mat = nx.neighbor_mean_matrix(3, edge_array([(0, 1), (0, 2)]))
        embed = const(np.array([[9.0, 9.0], [1.0, 0.0], [3.0, 0.0]]))
        coeff, flags = encoding.anchor_coefficients(neigh_mat, np.array([1.0, 1.0, 1.0]))
        anchor = coeff.dot(embed.data)
        np.testing.assert_allclose(anchor[0], [2.0, 0.0], atol=1e-9)
        assert flags[0] == 0.0

    def test_forced_weights(self):
        # weights (0.75, 0.25) on values 4 and 0 -> 3.0
        coeff = np.array([[0.0, 0.75, 0.25]])
        values = np.array([[0.0], [4.0], [0.0]])
        np.testing.assert_allclose(coeff @ values, [[3.0]])

    def test_no_visible_neighbor_uses_null_token(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=3)
        null = params["anchor.null.img"]
        null.data = np.arange(8.0)
        graph = star_graph()
        eff = np.ones(graph.n)
        eff[0] = 0.0  # hub invisible => leaves have no visible neighbor
        raw = const(np.random.default_rng(3).normal(size=(graph.n, 8)))
        coeff, flags = encoding.anchor_coefficients(
            GraphCaches.build(graph).neigh_mat, eff)
        anchor = encoding.structural_anchor(params, "img", raw, coeff, flags)
        assert flags[1] == 1.0
        np.testing.assert_allclose(anchor.data[1], np.arange(8.0))

    def test_anchor_is_subconvex_combination(self):
        rng = np.random.default_rng(4)
        graph = star_graph()
        raw = rng.normal(size=(graph.n, 3))
        eff = np.ones(graph.n)
        neigh_mat = GraphCaches.build(graph).neigh_mat
        coeff, flags = encoding.anchor_coefficients(neigh_mat, eff)
        anchor = coeff.dot(raw)
        for i in range(graph.n):
            if flags[i]:
                continue
            neigh = neigh_mat.indices[neigh_mat.indptr[i]:neigh_mat.indptr[i + 1]]
            lo, hi = raw[neigh].min(axis=0), raw[neigh].max(axis=0)
            assert (anchor[i] >= lo - 1e-9).all() and (anchor[i] <= hi + 1e-9).all()

    def test_isolated_node_is_flagged(self):
        coeff, flags = encoding.anchor_coefficients(
            nx.neighbor_mean_matrix(3, edge_array([(0, 1)])), np.ones(3))
        assert flags[2] == 1.0
        np.testing.assert_array_equal(coeff.dot(np.ones((3, 2)))[2], 0.0)


class TestGraphContext:
    def _setup(self, seed=0):
        cfg = small_cfg()
        params = init_params(cfg, seed=seed)
        graph = star_graph(seed=seed)
        caches = GraphCaches.build(graph)
        return cfg, params, graph, caches

    def test_visible_cell_uses_raw_embedding(self):
        cfg, params, graph, caches = self._setup()
        rng = np.random.default_rng(5)
        raw = const(rng.normal(size=(graph.n, 8)))
        anchor = const(rng.normal(size=(graph.n, 8)))
        eff = np.ones(graph.n)
        vis = encoding.graph_context(params, "img", raw, anchor, eff,
                                     caches.neigh_mat)
        anchor2 = const(rng.normal(size=(graph.n, 8)))
        vis2 = encoding.graph_context(params, "img", raw, anchor2, eff,
                                      caches.neigh_mat)
        np.testing.assert_allclose(vis.data, vis2.data)  # anchors unused

    def test_invisible_cell_uses_anchor(self):
        cfg, params, graph, caches = self._setup()
        rng = np.random.default_rng(6)
        anchor = const(rng.normal(size=(graph.n, 8)))
        eff = np.zeros(graph.n)
        out1 = encoding.graph_context(params, "img",
                                      const(rng.normal(size=(graph.n, 8))),
                                      anchor, eff, caches.neigh_mat)
        out2 = encoding.graph_context(params, "img",
                                      const(rng.normal(size=(graph.n, 8))),
                                      anchor, eff, caches.neigh_mat)
        np.testing.assert_allclose(out1.data, out2.data)  # raw unused

    def test_determinism(self):
        cfg, params, graph, caches = self._setup()
        rng = np.random.default_rng(7)
        raw = const(rng.normal(size=(graph.n, 8)))
        anchor = const(rng.normal(size=(graph.n, 8)))
        eff = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        a = encoding.graph_context(params, "img", raw, anchor, eff, caches.neigh_mat)
        b = encoding.graph_context(params, "img", raw, anchor, eff, caches.neigh_mat)
        np.testing.assert_array_equal(a.data, b.data)


class TestTargetExclusiveContext:
    def test_single_other_modality(self):
        rng = np.random.default_rng(8)
        ctx = [const(rng.normal(size=(4, 3))), const(rng.normal(size=(4, 3)))]
        eff = np.ones((4, 2))
        excl = encoding.target_exclusive_context(ctx, eff, target=0)
        np.testing.assert_allclose(excl.data, ctx[1].data)

    def test_no_other_visible_modality_gives_zero(self):
        rng = np.random.default_rng(9)
        ctx = [const(rng.normal(size=(4, 3))), const(rng.normal(size=(4, 3)))]
        eff = np.ones((4, 2))
        eff[2, 1] = 0.0
        excl = encoding.target_exclusive_context(ctx, eff, target=0)
        np.testing.assert_array_equal(excl.data[2], 0.0)

    def test_zero_sensitivity_to_target_modality(self):
        # perturbing the hub's target-modality feature must not move its own
        # target-exclusive context (single conv layer, star graph)
        cfg = small_cfg(gnn_layers=1)
        graph = star_graph(seed=10)
        params = init_params(cfg, seed=10)
        caches = GraphCaches.build(graph)
        masks = MaskSet.full_visibility(graph.natural_mask)
        rng = np.random.default_rng(10)

        def excl_at_hub():
            raw = encoding.encode_modalities(params, graph, masks.natural)
            anchors, contexts = [], []
            for m, (name, _d) in enumerate(cfg.modalities):
                anc = encoding.structural_anchor(
                    params, name, raw[m],
                    *encoding.anchor_coefficients(caches.neigh_mat,
                                                  masks.effective[:, m]))
                anchors.append(anc)
                contexts.append(encoding.graph_context(
                    params, name, raw[m], anc, masks.effective[:, m],
                    caches.neigh_mat, cfg.gnn_layers))
            return encoding.target_exclusive_context(
                contexts, masks.effective, 0).data[0].copy()

        before = excl_at_hub()
        graph.modalities[0].features[0] += rng.normal(size=6)
        after = excl_at_hub()
        assert np.abs(after - before).max() < 1e-12


class TestStructureOnly:
    def test_ignores_all_modality_features(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=11)
        graph = star_graph(seed=11)
        caches = GraphCaches.build(graph)
        before = encoding.structure_only_repr(params, caches.degrees,
                                              caches.neigh_mat).data.copy()
        graph.modalities[0].features += 100.0
        graph.modalities[1].features -= 50.0
        after = encoding.structure_only_repr(params, caches.degrees,
                                             caches.neigh_mat).data
        np.testing.assert_array_equal(before, after)

    def test_matched_degrees_give_matched_rows(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=12)
        graph = star_graph(n_leaves=3, seed=12)
        caches = GraphCaches.build(graph)
        out = encoding.structure_only_repr(params, caches.degrees,
                                           caches.neigh_mat).data
        # all leaves are isomorphic
        np.testing.assert_allclose(out[1], out[2], atol=1e-12)
        np.testing.assert_allclose(out[2], out[3], atol=1e-12)

    def test_isolated_node_deterministic(self):
        cfg = small_cfg()
        params = init_params(cfg, seed=13)
        g = MultimodalGraph(
            n=2, edges=[],
            modalities=[Modality("img", 6, np.zeros((2, 6))),
                        Modality("txt", 5, np.zeros((2, 5)))],
            labels=None, natural_mask=np.ones((2, 2)))
        caches = GraphCaches.build(g)
        out = encoding.structure_only_repr(params, caches.degrees, caches.neigh_mat)
        np.testing.assert_allclose(out.data[0], out.data[1])
        assert np.isfinite(out.data).all()

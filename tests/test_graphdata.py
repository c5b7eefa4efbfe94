"""Graph data model, generators, partitioning, masks, file round trip."""

import json
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmmg import graphdata
from fedmmg.config import MissingnessSection
from fedmmg.graphdata import (GraphFileError, MaskSet, MultimodalGraph, Modality,
                              apply_natural_missingness,
                              empirical_missing_fraction,
                              generate_sbm_multimodal, induced_subgraph,
                              load_graph, missing_ratios, partition_dirichlet,
                              sample_artificial_mask, save_graph)
from fedmmg.model import GraphCaches

from test_config_cli import _JSON


class TestMaskAlgebra:
    def test_exhaustive_truth_table(self):
        # all combinations of (natural, keep) on a 2x2 grid of cells
        natural = np.array([[0.0, 0.0], [1.0, 1.0]])
        keep = np.array([[0.0, 1.0], [0.0, 1.0]])
        masks = MaskSet(natural=natural, keep=keep)
        np.testing.assert_array_equal(masks.effective, [[0, 0], [0, 1]])
        np.testing.assert_array_equal(masks.recon, [[0, 0], [1, 0]])
        # invariants: recon=1 implies natural=1; natural=0 implies both zero
        assert ((masks.recon == 1) <= (natural == 1)).all()
        assert ((natural == 0) <= ((masks.effective == 0) & (masks.recon == 0))).all()

    def test_naturally_missing_never_a_target(self):
        rng = np.random.default_rng(0)
        natural = (rng.random((30, 2)) > 0.4).astype(float)
        masks = sample_artificial_mask(natural, 0.5, rng)
        assert (masks.recon[natural == 0] == 0).all()
        assert (masks.effective[natural == 0] == 0).all()

    def test_keep_all_and_mask_all(self):
        natural = np.ones((4, 2))
        all_kept = MaskSet(natural=natural, keep=np.ones((4, 2)))
        assert (all_kept.effective == 1).all() and (all_kept.recon == 0).all()
        none_kept = MaskSet(natural=natural, keep=np.zeros((4, 2)))
        assert (none_kept.effective == 0).all() and (none_kept.recon == 1).all()

    def test_non_binary_mask_rejected(self):
        with pytest.raises(ValueError):
            MaskSet(natural=np.array([[0.5]]), keep=np.array([[1.0]]))


class TestSBM:
    def test_two_isolated_cliques(self):
        g = generate_sbm_multimodal(2, 5, p_in=1.0, p_out=0.0, d_img=8,
                                    d_txt=6, noise=0.1, seed=3)
        neigh_mat = GraphCaches.build(g).neigh_mat
        for i in range(10):
            block = set(range(5)) if i < 5 else set(range(5, 10))
            row = neigh_mat.indices[neigh_mat.indptr[i]:neigh_mat.indptr[i + 1]]
            assert set(row.tolist()) == block - {i}

    def test_zero_noise_gives_identical_block_features(self):
        g = generate_sbm_multimodal(3, 4, 0.5, 0.1, d_img=8, d_txt=6,
                                    noise=0.0, seed=4)
        for mod in g.modalities:
            for b in range(3):
                block = mod.features[g.labels == b]
                np.testing.assert_allclose(block, np.tile(block[0], (len(block), 1)))

    def test_empirical_densities(self):
        p_in, p_out = 0.3, 0.05
        intra_rate, inter_rate, intra_n, inter_n = 0.0, 0.0, 0, 0
        for seed in range(10):
            g = generate_sbm_multimodal(4, 50, p_in, p_out, d_img=4, d_txt=4,
                                        noise=1.0, seed=seed)
            same = g.labels[:, None] == g.labels[None, :]
            adj = np.zeros((g.n, g.n), dtype=bool)
            for u, v in g.edges:
                adj[u, v] = adj[v, u] = True
            iu = np.triu_indices(g.n, 1)
            intra = same[iu]
            intra_rate += adj[iu][intra].sum()
            intra_n += intra.sum()
            inter_rate += adj[iu][~intra].sum()
            inter_n += (~intra).sum()
        assert abs(intra_rate / intra_n - p_in) < 0.05
        assert abs(inter_rate / inter_n - p_out) < 0.05

    def test_cross_modal_recovery_is_learnable(self):
        # both feature channels are linear images of one latent, so a linear
        # map fitted from one channel predicts the other above chance
        g = generate_sbm_multimodal(4, 30, 0.3, 0.05, d_img=16, d_txt=12,
                                    noise=0.2, seed=5)
        x = g.modalities[0].features
        y = g.modalities[1].features
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        residual = np.linalg.norm(y - x @ coef) / np.linalg.norm(y)
        assert residual < 0.5

    def test_small_block_rejected(self):
        with pytest.raises(ValueError):
            generate_sbm_multimodal(2, 1, 0.3, 0.1)

    def test_scale_point_working_memory_stays_small(self):
        # the 4,000-node point: features take 41 MB; scoring all 8M pairs
        # at once took 292 MB, the chunked candidate-first draw about 64 MB
        tracemalloc.start()
        try:
            g = generate_sbm_multimodal(4, 1000, 0.01, 0.001, d_img=512,
                                        d_txt=768, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edges.shape[1] == 2 and g.edges.shape[0] > 0
        assert peak < 100e6


class TestPartition:
    def test_single_client_owns_everything(self):
        g = generate_sbm_multimodal(2, 6, 0.4, 0.1, d_img=4, d_txt=4, seed=0)
        part = partition_dirichlet(g, 1, alpha=0.5, seed=0)
        np.testing.assert_array_equal(part.node_lists[0], np.arange(g.n))
        assert len(induced_subgraph(g, part.node_lists[0]).edges) == len(g.edges)

    def test_disjoint_cover(self):
        g = generate_sbm_multimodal(4, 25, 0.3, 0.05, d_img=4, d_txt=4, seed=1)
        for seed in range(5):
            part = partition_dirichlet(g, 4, alpha=0.5, seed=seed)
            seen = [n for lst in part.node_lists for n in lst]
            assert sorted(seen) == list(range(g.n))
            assert min(len(lst) for lst in part.node_lists) >= 1

    def test_large_alpha_approaches_global_histogram(self):
        g = generate_sbm_multimodal(4, 50, 0.3, 0.05, d_img=4, d_txt=4, seed=2)
        global_hist = np.bincount(g.labels, minlength=4) / g.n
        tv_max = 0.0
        for seed in range(10):
            part = partition_dirichlet(g, 4, alpha=1000.0, seed=seed)
            for nodes in part.node_lists:
                hist = np.bincount(g.labels[nodes], minlength=4) / len(nodes)
                tv_max = max(tv_max, 0.5 * np.abs(hist - global_hist).sum())
        assert tv_max < 0.1

    def test_induced_edges_stay_internal(self):
        g = generate_sbm_multimodal(3, 20, 0.3, 0.1, d_img=4, d_txt=4, seed=3)
        part = partition_dirichlet(g, 3, alpha=0.5, seed=3)
        for nodes in part.node_lists:
            members = set(nodes)
            internal = [(u, v) for u, v in g.edges if u in members and v in members]
            sub = induced_subgraph(g, nodes)
            assert sorted((nodes[u], nodes[v]) for u, v in sub.edges) == internal

    def test_too_many_clients_rejected(self):
        g = generate_sbm_multimodal(2, 2, 0.5, 0.1, d_img=4, d_txt=4, seed=4)
        with pytest.raises(ValueError):
            partition_dirichlet(g, g.n + 1, alpha=0.5, seed=0)


class TestMissingness:
    def test_zero_rate_keeps_everything(self):
        g = generate_sbm_multimodal(2, 10, 0.4, 0.1, d_img=4, d_txt=4, seed=0)
        mask = apply_natural_missingness(g, MissingnessSection(rate=0.0), 0)
        assert (mask == 1).all()

    def test_node_level_rate_matches_target(self):
        g = generate_sbm_multimodal(4, 250, 0.01, 0.001, d_img=2, d_txt=2, seed=1)
        assert g.n * 2 == 2000
        mask = apply_natural_missingness(g, MissingnessSection(rate=0.3), 7)
        frac = empirical_missing_fraction(mask)
        assert abs(frac - 0.30) < 0.03

    def test_client_mode_drops_single_modality(self):
        g = generate_sbm_multimodal(4, 25, 0.3, 0.05, d_img=4, d_txt=4, seed=2)
        part = partition_dirichlet(g, 4, alpha=0.5, seed=2)
        mask = apply_natural_missingness(
            g, MissingnessSection(rate=0.3, mode="client"), 2, part)
        dropped_clients = 0
        for nodes in part.node_lists:
            col_gone = [(mask[nodes, m] == 0).all() for m in range(2)]
            assert sum(col_gone) <= 1  # never strips a client of all modalities
            dropped_clients += any(col_gone)
        assert dropped_clients == int(np.ceil(0.3 * 4))

    def test_per_client_rates(self):
        g = generate_sbm_multimodal(4, 50, 0.3, 0.05, d_img=2, d_txt=2, seed=3)
        part = partition_dirichlet(g, 4, alpha=100.0, seed=3)
        cfg = MissingnessSection(rate=0.3, per_client_rates=[0.8, 0.1, 0.1, 0.1])
        mask = apply_natural_missingness(g, cfg, 3, part)
        rates = [1.0 - mask[nodes].mean() for nodes in part.node_lists]
        assert rates[0] > 0.6
        assert max(rates[1:]) < 0.3

    def test_missing_ratio_hand_cases(self):
        natural = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
        masks = MaskSet.full_visibility(natural)
        rho_nodes = missing_ratios(masks)
        np.testing.assert_allclose(rho_nodes, [0.0, 0.5, 1.0])
        assert ((rho_nodes >= 0) & (rho_nodes <= 1)).all()

    def test_artificial_mask_resamples_between_draws(self):
        natural = np.ones((50, 2))
        rng = np.random.default_rng(11)
        first = sample_artificial_mask(natural, 0.3, rng)
        second = sample_artificial_mask(natural, 0.3, rng)
        assert (first.keep != second.keep).any()


class TestGraphIO:
    def _graph(self):
        g = generate_sbm_multimodal(2, 4, 0.5, 0.1, d_img=3, d_txt=2,
                                    noise=0.7, seed=9)
        g.set_natural_mask(apply_natural_missingness(g, MissingnessSection(rate=0.4), 9))
        return g

    def test_round_trip_is_exact(self, tmp_path):
        g = self._graph()
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.n == g.n
        assert loaded.edges.dtype == np.int64
        np.testing.assert_array_equal(loaded.edges, g.edges)
        np.testing.assert_array_equal(loaded.natural_mask, g.natural_mask)
        np.testing.assert_array_equal(loaded.labels, g.labels)
        for a, b in zip(loaded.modalities, g.modalities):
            assert a.name == b.name and a.dim == b.dim
            np.testing.assert_array_equal(a.features, b.features)

    def test_truncated_file_fails_cleanly(self, tmp_path):
        g = self._graph()
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(GraphFileError):
            load_graph(path)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"schema": 99}, fh)
        with pytest.raises(GraphFileError, match="schema"):
            load_graph(path)

    def test_nonzero_missing_row_rejected(self, tmp_path):
        g = self._graph()
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        with open(path) as fh:
            doc = json.load(fh)
        hidden = np.argwhere(np.asarray(doc["natural_mask"]) == 0)
        i, m = hidden[0]
        doc["modalities"][m]["features"][i][0] = 5.0
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(GraphFileError, match="missing"):
            load_graph(path)

    def test_one_dimensional_mask_rejected(self, tmp_path):
        g = self._graph()
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["natural_mask"] = [row[0] for row in doc["natural_mask"]]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(GraphFileError, match="natural_mask"):
            load_graph(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        g = self._graph()
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["edges"].append(doc["edges"][0])
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(GraphFileError, match="listed twice"):
            load_graph(path)

    def test_empty_edge_list_is_legal(self, tmp_path):
        g = MultimodalGraph(
            n=3, edges=[],
            modalities=[Modality("img", 2, np.zeros((3, 2))),
                        Modality("txt", 2, np.zeros((3, 2)))],
            labels=None, natural_mask=np.ones((3, 2)))
        path = str(tmp_path / "empty.json")
        save_graph(g, path)
        assert load_graph(path).edges.shape == (0, 2)


# JSON values of every shape, and values near a valid three-node graph
# document, so fuzzed documents reach every check in load_graph.
_INTS = st.lists(st.integers(-2, 4) | st.booleans() | st.floats(-1, 4), max_size=4)
_MATRIX = st.lists(st.lists(st.integers(0, 1) | st.floats(-1, 2), min_size=0,
                            max_size=3), max_size=4)
_MODALITY = st.fixed_dictionaries({"name": st.text(max_size=3) | _JSON,
                                   "dim": st.integers(-1, 3) | _JSON,
                                   "features": _MATRIX | _JSON})
_VALID_DOC = {"schema": 1, "n": 3,
              "modalities": [{"name": "img", "dim": 2, "features": [[1, 0], [0, 1], [1, 1]]}],
              "edges": [[0, 1], [1, 2]], "labels": [0, 1, 0],
              "natural_mask": [[1], [1], [1]]}
_GRAPH_DOCS = _JSON | st.fixed_dictionaries({}, optional={
    "schema": st.just(1) | _JSON,
    "n": st.integers(-1, 4) | _JSON,
    "modalities": st.lists(_MODALITY, max_size=2) | _JSON,
    "edges": st.lists(st.lists(st.integers(-1, 4), min_size=2, max_size=2)
                      | _JSON, max_size=4) | _JSON,
    "labels": _INTS | st.lists(_INTS, max_size=3) | _JSON,
    "natural_mask": _MATRIX | _JSON,
    "pairs": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3) | _JSON,
}).map(lambda partial: {**_VALID_DOC, **partial})


class TestGraphDocuments:
    @staticmethod
    def _load(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "graph.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return load_graph(path)

    def test_valid_document_loads(self):
        g = self._load(_VALID_DOC)
        assert g.n == 3 and g.labels.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("labels", [[-1, 0, 1], [[0], [1], [0]], [0, 1],
                                        [0.0, 1.0, 0.0], [True, False, True],
                                        ["0", "1", "0"], 7, [0, 3, 0],
                                        [0, 10 ** 10, 0]])
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(GraphFileError, match="labels"):
            self._load({**_VALID_DOC, "labels": labels})

    @pytest.mark.parametrize("pairs", [[[0, 99], [-5, 1]], [[0, 3]], [[-1, 2]],
                                       [[0, 2], [1, 1]], None])
    def test_old_pairs_key_is_ignored(self, pairs):
        # schema-v1 files written before the field was dropped still load
        g = self._load({**_VALID_DOC, "pairs": pairs})
        assert not hasattr(g, "pairs")
        np.testing.assert_array_equal(g.edges, _VALID_DOC["edges"])

    @pytest.mark.parametrize("edit, match", [
        ({"n": 3.7}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"n": "3"}, "n must be an integer"),
        ({"modalities": [{**_VALID_DOC["modalities"][0], "dim": 1.5}]},
         "dim must be an integer"),
        ({"modalities": [{**_VALID_DOC["modalities"][0], "dim": True}]},
         "dim must be an integer"),
        ({"edges": [[0, 1.9]]}, "edges must be a list of integers"),
        ({"edges": [[True, False]]}, "edges must be a list of integers"),
        ({"edges": [["0", "1"]]}, "edges must be a list of integers"),
        ({"edges": [[0, 1], [0, 1, 2]]}, "malformed"),
        ({"edges": [[0, 1, 2]]}, r"edges must be \[E, 2\]"),
        ({"edges": [[0]]}, r"edges must be \[E, 2\]"),
        ({"edges": [0, 1]}, "edges must be a list of integers"),
        ({"edges": {"0": 1}}, "edges must be a list of integers"),
        ({"edges": [[0, 10 ** 30]]}, "malformed"),
        ({"natural_mask": [[0.5], [1], [1]]}, "0/1"),
        ({"natural_mask": [[1], [2], [1]]}, "0/1"),
        ({"natural_mask": [[1], [-1], [1]]}, "0/1"),
    ])
    def test_bad_numbers_rejected(self, edit, match):
        with pytest.raises(GraphFileError, match=match):
            self._load({**_VALID_DOC, **edit})

    @pytest.mark.parametrize("modalities", [
        [],
        [_VALID_DOC["modalities"][0]] * 2,
        [_VALID_DOC["modalities"][0],
         {"name": "img", "dim": 1, "features": [[1], [0], [1]]}],
    ], ids=["none", "one-name-twice", "one-name-two-dims"])
    def test_modalities_must_exist_and_have_distinct_names(self, modalities):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphFileError, match="invalid graph in") as err:
                self._load({**_VALID_DOC, "modalities": modalities,
                            "natural_mask": [[1] * len(modalities)] * 3})
        assert "\n" not in str(err.value)

    @settings(max_examples=400, deadline=None)
    @given(doc=_GRAPH_DOCS)
    def test_any_document_loads_or_raises_graph_file_error(self, doc):
        try:
            graph = self._load(doc)
        except GraphFileError:
            return
        assert isinstance(graph, MultimodalGraph)


class TestDuplicateEdges:
    @staticmethod
    def _graph(edges):
        return MultimodalGraph(
            n=3, edges=edges,
            modalities=[Modality("img", 2, np.ones((3, 2)))],
            labels=None, natural_mask=np.ones((3, 1)))

    @pytest.mark.parametrize("edges", [[(0, 1), (0, 1)], [(0, 1), (1, 2), (1, 0)]])
    def test_pair_listed_twice_rejected(self, edges):
        with pytest.raises(ValueError, match="listed twice"):
            self._graph(edges)

    def test_adjacency_agrees_with_neighbor_matrix(self):
        caches = GraphCaches.build(self._graph([(0, 1), (2, 0)]))
        np.testing.assert_array_equal(caches.neigh_mat.indptr, [0, 2, 3, 4])
        np.testing.assert_array_equal(caches.neigh_mat.indices, [1, 2, 0, 0])
        np.testing.assert_array_equal(caches.degrees, [2, 1, 1])
        np.testing.assert_array_equal(np.diff(caches.neigh_mat.indptr),
                                      caches.degrees)


class TestInducedSubgraph:
    def test_relabeling(self):
        g = generate_sbm_multimodal(2, 5, 0.6, 0.2, d_img=3, d_txt=3, seed=6)
        nodes = [1, 3, 4, 7]
        sub = induced_subgraph(g, nodes)
        assert sub.n == 4
        for u, v in sub.edges:
            assert (min(nodes[u], nodes[v]), max(nodes[u], nodes[v])) in {
                (min(a, b), max(a, b)) for a, b in g.edges}
        np.testing.assert_array_equal(sub.labels, g.labels[nodes])

    @pytest.mark.parametrize("seed", range(3))
    def test_client_subgraphs_cut_one_modality_at_a_time(self, seed):
        # the same subgraphs, byte for byte, as one induced_subgraph per
        # client, and the graph gives up every feature matrix it had
        def graph():
            g = generate_sbm_multimodal(3, 8, 0.5, 0.1, d_img=5, d_txt=4, seed=seed)
            g.set_natural_mask(np.random.default_rng(seed).random((g.n, 2)) < 0.7)
            return g

        reference, g = graph(), graph()
        parts = partition_dirichlet(reference, 3, 1.0, seed).node_lists
        features = [mod.features for mod in g.modalities]
        subs = graphdata.client_subgraphs(g, parts)
        assert g.modalities == []
        for sub, nodes in zip(subs, parts):
            want = induced_subgraph(reference, nodes)
            assert sub.n == want.n and [m.name for m in sub.modalities] == ["img", "txt"]
            for got, expected in [(m.features, w.features)
                                  for m, w in zip(sub.modalities, want.modalities)] + [
                    (sub.edges, want.edges), (sub.labels, want.labels),
                    (sub.natural_mask, want.natural_mask), (sub.edge_keys, want.edge_keys)]:
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            assert not any(np.shares_memory(m.features, f)
                           for m in sub.modalities for f in features)

    def test_edges_become_one_int64_array(self):
        g = MultimodalGraph(n=3, edges=[(2, 0), (1, 2)],
                            modalities=[Modality("img", 2, np.ones((3, 2)))],
                            labels=None, natural_mask=np.ones((3, 1)))
        assert g.edges.dtype == np.int64
        np.testing.assert_array_equal(g.edges, [[2, 0], [1, 2]])
        sub = induced_subgraph(g, np.array([2, 1]))
        assert sub.edges.dtype == np.int64 and sub.edges.shape == (1, 2)
        np.testing.assert_array_equal(sub.edges, [[1, 0]])
        assert induced_subgraph(g, [0]).edges.shape == (0, 2)


# The loop forms these functions had before edges became one [E, 2] array,
# kept as references: the array forms must give equal arrays in the same
# order and the same message for the first bad edge.


def _edge_error_loop(n, edges):
    seen = set()
    for u, v in edges:
        if u == v:
            return f"self-loop on node {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"edge ({u}, {v}) listed twice"
        seen.add(key)
    return None


def _induced_edges_loop(edges, nodes):
    remap = {old: new for new, old in enumerate(nodes)}
    return [(remap[u], remap[v]) for u, v in edges if u in remap and v in remap]


def _partition_loop(labels, clients, alpha, seed):
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xD17])
    n = labels.size
    for _attempt in range(1000):
        assign = np.full(n, -1, dtype=np.int64)
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            shares = rng.dirichlet(np.full(clients, alpha))
            counts = np.floor(shares * idx.size).astype(np.int64)
            remainder = idx.size - counts.sum()
            if remainder > 0:
                frac = shares * idx.size - counts
                for k in np.argsort(-frac)[:remainder]:
                    counts[k] += 1
            pos = 0
            for k in range(clients):
                assign[idx[pos:pos + counts[k]]] = k
                pos += counts[k]
        sizes = np.bincount(assign, minlength=clients)
        if sizes.min() >= 1:
            return [sorted(np.flatnonzero(assign == k).tolist()) for k in range(clients)]
    return None


def _bare_graph(n, edges):
    return MultimodalGraph(n=n, edges=edges,
                           modalities=[Modality("img", 1, np.ones((n, 1)))],
                           labels=None, natural_mask=np.ones((n, 1)))


_EDGE_LISTS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)),
                         max_size=12)))


class TestArrayFormsMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(case=_EDGE_LISTS)
    def test_edge_checks_name_the_same_first_bad_edge(self, case):
        n, edges = case
        expected = _edge_error_loop(n, edges)
        if expected is None:
            np.testing.assert_array_equal(_bare_graph(n, edges).edges,
                                          np.asarray(edges).reshape(-1, 2))
        else:
            with pytest.raises(ValueError) as err:
                _bare_graph(n, edges)
            assert str(err.value) == expected

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_induced_subgraph_keeps_order_and_orientation(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=30))
        edges, seen = [], set()
        for u, v in pairs:
            if u != v and (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                edges.append((u, v))
        nodes = data.draw(st.permutations(range(n)).flatmap(
            lambda perm: st.integers(1, n).map(lambda k: perm[:k])))
        sub = induced_subgraph(_bare_graph(n, edges), nodes)
        np.testing.assert_array_equal(
            sub.edges, np.asarray(_induced_edges_loop(edges, nodes)).reshape(-1, 2))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_edge_index_matches_the_pair_set(self, n, data):
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=30))
        edges, seen = [], set()
        for u, v in pairs:
            if u != v and (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                edges.append((u, v))
        graph = _bare_graph(n, edges)
        assert graph.edge_keys.tolist() == sorted(u * n + v for u, v in seen)
        probes = np.array(data.draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)),
            dtype=np.int64).reshape(-1, 2)
        assert graph.non_edges(probes).tolist() == [
            [u, v] for u, v in probes.tolist() if u != v and (min(u, v), max(u, v)) not in seen]
        assert graph.has_non_edge == (len(seen) < n * (n - 1) // 2)

    @settings(max_examples=100, deadline=None)
    @given(blocks=st.integers(1, 4), per_block=st.integers(2, 8),
           clients=st.integers(1, 4), alpha=st.sampled_from([0.1, 0.5, 1.0, 100.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_partition_matches_the_loop_split(self, blocks, per_block, clients,
                                              alpha, seed):
        g = generate_sbm_multimodal(blocks, per_block, 0.5, 0.1, d_img=1, d_txt=1,
                                    seed=0)
        clients = min(clients, g.n)
        expected = _partition_loop(g.labels, clients, alpha, seed)
        if expected is None:  # no draw in 1000 covered every client
            with pytest.raises(ValueError, match=f"all {clients} clients at alpha"):
                partition_dirichlet(g, clients, alpha, seed)
            return
        part = partition_dirichlet(g, clients, alpha, seed)
        assert len(part.node_lists) == clients
        for got, want in zip(part.node_lists, expected):
            np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))


# The one-shot form the SBM generator had before it drew its pairs in chunks,
# kept as the reference: it scores every upper-triangle pair at once.


def _sbm_one_shot(blocks, nodes_per_block, p_in, p_out, d_img, d_txt, noise,
                  seed, latent_dim=16):
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0x5B3])
    n = blocks * nodes_per_block
    labels = np.repeat(np.arange(blocks), nodes_per_block)
    centers = rng.normal(size=(blocks, latent_dim))
    proj_img = rng.normal(size=(latent_dim, d_img)) / np.sqrt(latent_dim)
    proj_txt = rng.normal(size=(latent_dim, d_txt)) / np.sqrt(latent_dim)
    latent = centers[labels]
    feat_img = latent @ proj_img + noise * rng.normal(size=(n, d_img))
    feat_txt = latent @ proj_txt + noise * rng.normal(size=(n, d_txt))
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    hit = rng.random(iu.size) < prob
    return np.stack([iu[hit], ju[hit]], axis=1), feat_img, feat_txt


def _assert_same_graph(g, want):
    edges, feat_img, feat_txt = want
    assert g.edges.dtype == edges.dtype and g.edges.shape == edges.shape
    np.testing.assert_array_equal(g.edges, edges)
    assert g.modalities[0].features.tobytes() == feat_img.tobytes()
    assert g.modalities[1].features.tobytes() == feat_txt.tobytes()


_EDGE_PROBS = st.sampled_from([(0.3, 0.3), (1.0, 0.2), (1.0, 1.0), (0.0, 0.0),
                               (0.4, 0.0), (1.0, 0.0)]) | st.tuples(
    st.floats(0, 1), st.floats(0, 1)).map(lambda p: (max(p), min(p)))


class TestChunkedSBMMatchesOneShot:
    @settings(max_examples=200, deadline=None)
    @given(blocks=st.integers(1, 4), per_block=st.integers(2, 9), probs=_EDGE_PROBS,
           chunk=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_small_chunks_split_rows_and_blocks(self, blocks, per_block, probs,
                                                chunk, seed):
        p_in, p_out = probs
        with mock.patch.object(graphdata, "_PAIR_CHUNK", chunk):
            g = generate_sbm_multimodal(blocks, per_block, p_in, p_out, d_img=3,
                                        d_txt=2, noise=0.7, seed=seed)
        _assert_same_graph(g, _sbm_one_shot(blocks, per_block, p_in, p_out, 3, 2,
                                            0.7, seed))

    def test_pair_count_past_one_chunk(self):
        # 1,500 nodes have 1,124,250 pairs, more than one 2**20 chunk
        assert 1500 * 1499 // 2 > graphdata._PAIR_CHUNK
        g = generate_sbm_multimodal(2, 750, 0.05, 0.01, d_img=3, d_txt=2, seed=11)
        _assert_same_graph(g, _sbm_one_shot(2, 750, 0.05, 0.01, 3, 2, 2.0, 11))

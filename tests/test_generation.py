"""Stage 2: context banks, warmup schedule, generation, losses."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmmg import encoding, generation
from fedmmg import numerics as nx
from fedmmg.generation import (build_bank_batch, reconstruction_loss,
                               squared_cell_errors, warmup_coefficient)
from fedmmg.graphdata import (MaskSet, Modality, MultimodalGraph, generate_sbm_multimodal,
                              sample_artificial_mask)
from fedmmg.model import (GraphCaches, ModelConfig, forward_pass, init_params,
                          make_plan, score_recon_cells)
from fedmmg.numerics import const

from test_encoding import edge_array, small_cfg, star_graph
from test_numerics import attend, gate_chain, identity_attention, projected_attention


@dataclass
class ContextBank:
    """Token sources for one (node, target modality) cell: (node, modality)
    pairs, and ``empty`` when there is none."""

    tokens: list[tuple[int, int]]
    empty: bool


def build_context_bank(node: int, target: int, neigh_mat: nx.CSRMatrix,
                       eff: np.ndarray, cap: int,
                       rng: np.random.Generator) -> ContextBank:
    """Per-cell reference for ``build_bank_batch``: own other-modality tokens
    plus at most ``cap`` visible neighbor tokens sampled without replacement."""
    m_count = eff.shape[1]
    tokens = [(node, m) for m in range(m_count)
              if m != target and eff[node, m] == 1.0]
    neighbors = neigh_mat.indices[neigh_mat.indptr[node]:neigh_mat.indptr[node + 1]]
    candidates = [(int(j), m) for j in neighbors
                  for m in range(m_count) if eff[j, m] == 1.0]
    if len(candidates) > cap:
        picks = rng.choice(len(candidates), size=cap, replace=False)
        candidates = [candidates[p] for p in sorted(picks)]
    tokens.extend(candidates)
    return ContextBank(tokens=tokens, empty=len(tokens) == 0)


def empty_banks(batch):
    """Whether each bank has no usable slot: its row of the slot pattern is empty."""
    return np.diff(batch.slots.indptr) == 0


class TestContextBank:
    def test_self_tokens_only_when_no_neighbors(self):
        eff = np.ones((1, 2))
        bank = build_context_bank(0, 0, nx.neighbor_mean_matrix(1, edge_array([])),
                                  eff, cap=4, rng=np.random.default_rng(0))
        assert bank.tokens == [(0, 1)]
        assert not bank.empty

    def test_target_token_never_included(self):
        rng = np.random.default_rng(1)
        neigh_mat = nx.neighbor_mean_matrix(3, edge_array([(0, 1), (0, 2), (1, 2)]))
        eff = np.ones((3, 2))
        for node in range(3):
            for target in range(2):
                bank = build_context_bank(node, target, neigh_mat, eff, 8, rng)
                assert (node, target) not in bank.tokens

    def test_cap_enforced_on_high_degree_node(self):
        n = 41
        neigh_mat = nx.neighbor_mean_matrix(n, edge_array([(0, j) for j in range(1, n)]))
        eff = np.ones((n, 2))
        bank = build_context_bank(0, 0, neigh_mat, eff, cap=16,
                                  rng=np.random.default_rng(2))
        neighbor_tokens = [t for t in bank.tokens if t[0] != 0]
        assert len(neighbor_tokens) <= 16
        assert len(bank.tokens) <= 2 + 16  # modalities + cap

    def test_empty_bank_flagged(self):
        eff = np.zeros((2, 2))
        neigh_mat = nx.neighbor_mean_matrix(2, edge_array([(0, 1)]))
        bank = build_context_bank(0, 0, neigh_mat, eff, 4,
                                  np.random.default_rng(3))
        assert bank.empty and bank.tokens == []

    def test_invisible_tokens_excluded(self):
        eff = np.array([[1.0, 0.0], [0.0, 1.0]])
        neigh_mat = nx.neighbor_mean_matrix(2, edge_array([(0, 1)]))
        bank = build_context_bank(0, 0, neigh_mat, eff, 4,
                                  np.random.default_rng(4))
        assert bank.tokens == [(1, 1)]

    def test_batch_layout_matches_per_cell_banks(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        neigh_mat = nx.neighbor_mean_matrix(3, edge_array([(0, 1), (0, 2)]))
        eff = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        n = 3
        batch = build_bank_batch(neigh_mat, eff, cap=4, rng=rng_a)
        for m in range(2):
            for i in range(n):
                bank = build_context_bank(i, m, neigh_mat, eff, 4, rng_b)
                g = m * n + i
                got = [idx for idx, mk in zip(batch.token_index[g],
                                              batch.additive_mask[g]) if mk == 0.0]
                expect = [mm * n + jj for jj, mm in bank.tokens]
                assert got == expect
                assert bool(empty_banks(batch)[g]) == bank.empty


_BANK_CASES = st.tuples(st.integers(1, 14), st.integers(1, 3)).flatmap(
    lambda nm: st.tuples(
        st.just(nm[0]), st.just(nm[1]),
        st.lists(st.tuples(st.integers(0, nm[0] - 1), st.integers(0, nm[0] - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=40),
        st.integers(0, 6), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1)))


class TestBankBatchMatchesPerCellBanks:
    @settings(max_examples=200, deadline=None)
    @given(case=_BANK_CASES)
    def test_identical_arrays_and_rng_state(self, case):
        n, m_count, edges, cap, p_visible, seed = case
        eff = (np.random.default_rng(seed).random((n, m_count)) < p_visible
               ).astype(np.float64)
        neigh_mat = nx.neighbor_mean_matrix(n, edge_array(edges))
        rng_batch, rng_cells = np.random.default_rng(seed), np.random.default_rng(seed)
        batch = build_bank_batch(neigh_mat, eff, cap, rng_batch)
        banks = [build_context_bank(i, m, neigh_mat, eff, cap, rng_cells)
                 for m in range(m_count) for i in range(n)]
        width = max(1, max(len(b.tokens) for b in banks))
        index = np.full((n * m_count, width), n * m_count, dtype=np.intp)
        for g, bank in enumerate(banks):
            for s, (j, m) in enumerate(bank.tokens):
                index[g, s] = m * n + j
        assert batch.token_index.shape[1] == width
        np.testing.assert_array_equal(batch.token_index, index)
        np.testing.assert_array_equal(batch.additive_mask,
                                      np.where(index == n * m_count, nx.MASK_NEG, 0.0))
        np.testing.assert_array_equal(empty_banks(batch), [b.empty for b in banks])
        assert rng_batch.random() == rng_cells.random()


class TestBankCut:
    @staticmethod
    def _attend(batch, rows, queries, memory, att):
        banks = batch if rows is None else batch.take(rows)
        query = queries if rows is None else nx.rows(queries, rows)
        out, _ = attend(query, memory, banks.slots, 4, att)
        return out.data

    @staticmethod
    def _operands(g_count, rng, d=8):
        # identity projections are exact for any row count, so BLAS's
        # shape-dependent summation order stays out of the comparison
        memory = const(rng.normal(size=(g_count + 1, d)))
        queries = const(rng.normal(size=(g_count, d)))
        return queries, memory, identity_attention(d)

    @settings(max_examples=60, deadline=None)
    @given(case=_BANK_CASES, pick=st.integers(0, 2 ** 32 - 1))
    def test_cut_gives_its_rows_attention_bit_for_bit(self, case, pick):
        n, m_count, edges, cap, p_visible, seed = case
        rng = np.random.default_rng(seed)
        eff = (rng.random((n, m_count)) < p_visible).astype(np.float64)
        batch = build_bank_batch(nx.neighbor_mean_matrix(n, edge_array(edges)),
                                 eff, cap, rng)
        queries, memory, att = self._operands(n * m_count, rng)
        full = self._attend(batch, None, queries, memory, att)
        rows = np.flatnonzero(np.random.default_rng(pick).random(n * m_count) < 0.5)
        cut = self._attend(batch, rows, queries, memory, att)
        assert cut.tobytes() == full[rows].tobytes()
        np.testing.assert_array_equal(empty_banks(batch.take(rows)),
                                      empty_banks(batch)[rows])

    def test_cut_with_empty_banks_and_with_no_rows(self):
        # node 2 is isolated with nothing visible: both its banks are empty
        eff = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        neigh_mat = nx.neighbor_mean_matrix(4, edge_array([(0, 1)]))
        batch = build_bank_batch(neigh_mat, eff, 4, np.random.default_rng(5))
        assert empty_banks(batch)[[2, 6]].tolist() == [True, True]
        queries, memory, att = self._operands(8, np.random.default_rng(6))
        full = self._attend(batch, None, queries, memory, att)
        for rows in ([0, 2, 5, 6, 7], [2, 6], []):
            rows = np.asarray(rows, dtype=np.intp)
            cut = self._attend(batch, rows, queries, memory, att)
            assert cut.shape == (rows.size, 8)
            assert cut.tobytes() == full[rows].tobytes()


class TestScoreReconCells:
    @staticmethod
    def _plan(cfg, p_mask, seed=40):
        graph = star_graph(seed=seed)
        natural = graph.natural_mask.copy()
        natural[3, 1] = 0.0  # a naturally missing cell is never scored
        rng = np.random.default_rng(seed)
        masks = sample_artificial_mask(natural, p_mask, rng)
        return graph, make_plan(graph, GraphCaches.build(graph), masks, cfg, rng)

    @pytest.mark.parametrize("round_t", [0, 4, 20])
    def test_matches_the_full_forward_at_recon_cells(self, round_t):
        cfg = small_cfg()
        graph, plan = self._plan(cfg, 0.5)
        params = init_params(cfg, 40)
        bundle = forward_pass(params, cfg, plan, round_t)
        raw = encoding.encode_modalities(params, graph, plan.masks.natural)
        uncertainty, errors = score_recon_cells(params, cfg, plan, raw, round_t)
        cells = plan.recon_flat == 1.0
        assert 0 < cells.sum() < cells.size
        assert errors.tobytes() == bundle.cell_errors[cells].tobytes()
        np.testing.assert_allclose(uncertainty,
                                   bundle.uncertainty.data.reshape(-1)[cells],
                                   rtol=0, atol=1e-15)

    def test_no_recon_cells_scores_nothing(self):
        cfg = small_cfg()
        graph, plan = self._plan(cfg, 0.0)
        params = init_params(cfg, 40)
        raw = encoding.encode_modalities(params, graph, plan.masks.natural)
        uncertainty, errors = score_recon_cells(params, cfg, plan, raw, 4)
        assert uncertainty.shape == errors.shape == (0,)


class TestWarmup:
    def test_schedule_shape(self):
        assert warmup_coefficient(0, 30) == 0.0
        assert warmup_coefficient(15, 30) == 0.5
        assert warmup_coefficient(30, 30) == 1.0
        assert warmup_coefficient(90, 30) == 1.0

    def test_nondecreasing_and_clamped(self):
        values = [warmup_coefficient(t, 30) for t in range(100)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


def _forward(graph, masks, cfg, seed, round_t, rng_seed=99):
    params = init_params(cfg, seed)
    caches = GraphCaches.build(graph)
    plan = make_plan(graph, caches, masks, cfg, np.random.default_rng(rng_seed))
    return params, forward_pass(params, cfg, plan, round_t)


def _bundle_arrays(bundle):
    out = {}
    for key, value in vars(bundle).items():
        if value is not None:
            out[key] = value.data if isinstance(value, nx.Tensor) else np.asarray(value)
    return out


class TestForwardPlan:
    def test_forwards_on_one_plan_are_bit_identical(self):
        cfg = small_cfg()
        graph = star_graph(seed=30)
        rng = np.random.default_rng(30)
        masks = sample_artificial_mask(graph.natural_mask, 0.4, rng)
        plan = make_plan(graph, GraphCaches.build(graph), masks, cfg, rng)
        params = init_params(cfg, 30)
        first = _bundle_arrays(forward_pass(params, cfg, plan, 4))
        # draws elsewhere, on the plan's own stream included, change nothing
        rng.random(17)
        np.random.default_rng(31).permutation(50)
        second = _bundle_arrays(forward_pass(params, cfg, plan, 4))
        assert first.keys() == second.keys() and "generated" in first
        for key in first:
            np.testing.assert_array_equal(first[key], second[key], err_msg=key)

    @pytest.mark.parametrize("bypass", [False, True])
    def test_plan_draws_exactly_the_banks(self, bypass):
        cfg = small_cfg(neighbor_cap=1, bypass_generation=bypass)
        graph = star_graph(seed=32)
        caches = GraphCaches.build(graph)
        masks = MaskSet.full_visibility(graph.natural_mask)
        rng_plan, rng_banks = np.random.default_rng(32), np.random.default_rng(32)
        plan = make_plan(graph, caches, masks, cfg, rng_plan)
        if not bypass:
            banks = build_bank_batch(caches.neigh_mat, masks.effective, 1, rng_banks)
            np.testing.assert_array_equal(plan.banks.token_index, banks.token_index)
        assert rng_plan.random() == rng_banks.random()

    def test_gradcheck_probes_reuse_the_plan(self, monkeypatch):
        from fedmmg import verify
        calls = {"banks": 0, "anchors": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(generation, "build_bank_batch",
                            counting("banks", generation.build_bank_batch))
        monkeypatch.setattr(encoding, "anchor_coefficients",
                            counting("anchors", encoding.anchor_coefficients))
        graph = verify._toy_graph(3)
        cfg = ModelConfig(task="nc", modalities=[("img", 10), ("txt", 12)], hidden_dim=8,
                          heads=4, neighbor_cap=4, warmup_rounds=10, num_classes=2)
        store = init_params(cfg, 3)
        fn = verify._local_objective_fn(graph, verify._toy_masks(graph, 3), cfg, 3, store)
        assert calls == {"banks": 1, "anchors": 2}
        base = fn(store).data
        store["gen.att.wq"].data[0, 0] += 1e-3
        assert fn(store).data != base
        assert calls == {"banks": 1, "anchors": 2}


class TestGenerationMatchesTheOpChain:
    """Attention and the warm-up blend, each one op, give the values and
    every parameter's gradient of the op chain they stand for, byte for
    byte, through a whole training forward and its backward."""

    @settings(max_examples=15, deadline=None)
    @given(round_t=st.sampled_from([0, 5, 10]), group=st.sampled_from([1, 3, nx._GROUP]),
           seed=st.integers(0, 2 ** 16))
    def test_training_step(self, round_t, group, seed):
        # warm-up over 10 rounds: gamma 0, 0.5 and 1
        cfg = small_cfg()
        graph = generate_sbm_multimodal(3, 8, 0.4, 0.05, d_img=6, d_txt=5, seed=seed)
        masks = sample_artificial_mask(graph.natural_mask, 0.4,
                                       np.random.default_rng(seed))

        def run():
            params = init_params(cfg, seed)
            plan = make_plan(graph, GraphCaches.build(graph), masks, cfg,
                             np.random.default_rng(seed))
            with nx.Tape() as tape:
                bundle = forward_pass(params, cfg, plan, round_t)
                tape.backward(nx.add(nx.add(bundle.rec_loss, bundle.align_loss),
                                     nx.add(bundle.route_loss,
                                            nx.mean(nx.mul(bundle.refined,
                                                           bundle.refined)))))
            return [bundle.generated.data.tobytes(), params.take_grads().tobytes()]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "_GROUP", group)
            fused = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "bank_attention", projected_attention)
            mp.setattr(nx, "gated_blend", gate_chain)
            assert run() == fused


class TestGeneration:
    def test_round_zero_is_pure_anchor_branch(self):
        cfg = small_cfg()
        graph = star_graph(seed=20)
        masks = MaskSet.full_visibility(graph.natural_mask)
        params, bundle = _forward(graph, masks, cfg, seed=20, round_t=0)

        # expected: generated = anchors @ anchor projection, exactly
        raw = encoding.encode_modalities(params, graph, masks.natural)
        expected = []
        neigh_mat = GraphCaches.build(graph).neigh_mat
        for m, (name, _d) in enumerate(cfg.modalities):
            anc = encoding.structural_anchor(
                params, name, raw[m],
                *encoding.anchor_coefficients(neigh_mat, masks.effective[:, m]))
            expected.append(anc.data @ params["gen.anchor_proj.w"].data)
        np.testing.assert_allclose(bundle.generated.data,
                                   np.vstack(expected), atol=1e-12)
        assert warmup_coefficient(0, cfg.warmup_rounds) == 0.0

    def test_gamma_midpoint_mixture_hand_evaluated(self):
        # one node, no neighbors: bank holds only the other modality token
        cfg = small_cfg(warmup_rounds=30)
        rng = np.random.default_rng(21)
        graph = MultimodalGraph(
            n=2, edges=[(0, 1)],
            modalities=[Modality("img", 6, rng.normal(size=(2, 6))),
                        Modality("txt", 5, rng.normal(size=(2, 5)))],
            labels=np.array([0, 1]), natural_mask=np.ones((2, 2)))
        masks = MaskSet.full_visibility(graph.natural_mask)
        params, bundle = _forward(graph, masks, cfg, seed=21, round_t=15)
        assert warmup_coefficient(15, cfg.warmup_rounds) == 0.5

        # hand evaluation of the mixture for cell (node 0, target modality 0)
        caches = GraphCaches.build(graph)
        raw = encoding.encode_modalities(params, graph, masks.natural)
        anchors, contexts = [], []
        for m, (name, _d) in enumerate(cfg.modalities):
            anc = encoding.structural_anchor(
                params, name, raw[m],
                *encoding.anchor_coefficients(caches.neigh_mat,
                                              masks.effective[:, m]))
            anchors.append(anc)
            contexts.append(encoding.graph_context(params, name, raw[m], anc,
                                                   masks.effective[:, m],
                                                   caches.neigh_mat))
        excl = [encoding.target_exclusive_context(contexts, masks.effective, m)
                for m in range(2)]
        excl_flat = nx.concat(excl, axis=0)
        banks = generation.build_bank_batch(caches.neigh_mat, masks.effective,
                                            cfg.neighbor_cap,
                                            np.random.default_rng(99))
        queries = generation.build_query(params, excl_flat, masks.effective, 2)
        stacked = nx.concat(contexts + [const(np.zeros((1, 8)))], 0)
        ctx, _ = nx.bank_attention(queries, stacked, params["gen.att.wq"],
                                   params["gen.att.wk"], params["gen.att.wv"],
                                   banks.slots, cfg.heads)
        evidence = nx.matmul(ctx, params["gen.att.wo"])
        self_ctx = excl_flat.data @ params["gen.self_proj.w"].data
        gate_in = np.concatenate([evidence.data, self_ctx], axis=1)
        gate = 1.0 / (1.0 + np.exp(-(gate_in @ params["gen.gate.w"].data
                                     + params["gen.gate.b"].data)))
        warmed = gate * evidence.data + (1 - gate) * self_ctx
        anchored = np.vstack([a.data for a in anchors]) @ params["gen.anchor_proj.w"].data
        expected = 0.5 * warmed + 0.5 * anchored
        np.testing.assert_allclose(bundle.generated.data, expected, atol=1e-10)

    def test_empty_bank_falls_back_to_anchor_branch(self):
        # isolated node with only modality 0 visible: the bank for target
        # modality 1 is empty, its excluded-modality context is zero by the
        # same token set, so only the anchor branch remains
        cfg = small_cfg()
        rng = np.random.default_rng(22)
        graph = MultimodalGraph(
            n=1, edges=[],
            modalities=[Modality("img", 6, rng.normal(size=(1, 6))),
                        Modality("txt", 5, rng.normal(size=(1, 5)))],
            labels=np.array([0]), natural_mask=np.ones((1, 2)))
        keep = np.array([[0.0, 1.0]])
        masks = MaskSet(natural=graph.natural_mask, keep=keep)
        params = init_params(cfg, 22)
        params["anchor.null.txt"].data = np.linspace(-1.0, 1.0, 8)
        plan = make_plan(graph, GraphCaches.build(graph), masks, cfg,
                         np.random.default_rng(99))
        bundle = forward_pass(params, cfg, plan, 5)  # gamma = 0.5
        # target modality 1 sees only masked modality-0 tokens: empty bank
        expected = 0.5 * (params["anchor.null.txt"].data
                          @ params["gen.anchor_proj.w"].data)
        np.testing.assert_allclose(bundle.generated.data[1], expected, atol=1e-12)


class TestSelfLeakage:
    def test_generated_cell_insensitive_to_its_own_raw_embedding(self):
        # star hub, one conv layer: hide the hub's target modality and poke
        # the hidden raw feature; the generated stand-in must not move
        cfg = small_cfg(gnn_layers=1)
        graph = star_graph(seed=23)
        keep = np.ones((graph.n, 2))
        keep[0, 0] = 0.0
        masks = MaskSet(natural=graph.natural_mask, keep=keep)
        params, bundle = _forward(graph, masks, cfg, seed=23, round_t=7)
        before = bundle.generated.data[0].copy()  # cell (hub, modality 0)

        graph.modalities[0].features[0] += 3.0
        params2 = init_params(cfg, 23)
        plan = make_plan(graph, GraphCaches.build(graph), masks, cfg,
                         np.random.default_rng(99))
        bundle2 = forward_pass(params2, cfg, plan, 7)
        np.testing.assert_array_equal(before, bundle2.generated.data[0])

    def test_bank_has_no_target_tag_for_any_cell(self):
        graph = star_graph(seed=24)
        neigh_mat = GraphCaches.build(graph).neigh_mat
        eff = np.ones((graph.n, 2))
        rng = np.random.default_rng(24)
        for m in range(2):
            for i in range(graph.n):
                bank = build_context_bank(i, m, neigh_mat, eff, 16, rng)
                assert all(tag != (i, m) for tag in bank.tokens)


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        z = const(np.random.default_rng(25).normal(size=(4, 3)))
        errors = squared_cell_errors(z, z)
        loss = reconstruction_loss(errors, np.array([1.0, 0.0, 1.0, 0.0]))
        assert loss.data == 0.0

    def test_no_masked_cells_is_zero_without_error(self):
        rng = np.random.default_rng(26)
        errors = squared_cell_errors(const(rng.normal(size=(4, 3))),
                                     const(rng.normal(size=(4, 3))))
        loss = reconstruction_loss(errors, np.zeros(4))
        assert loss.data == 0.0

    def test_single_cell_hand_value(self):
        generated = const(np.array([[1.0, 1.0], [5.0, 5.0]]))
        target = const(np.array([[0.0, 0.0], [5.0, 5.0]]))
        errors = squared_cell_errors(generated, target)
        loss = reconstruction_loss(errors, np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss.data, 2.0, rtol=1e-9)

    def test_invariant_to_unmasked_cells(self):
        rng = np.random.default_rng(27)
        target = const(rng.normal(size=(4, 3)))
        gen_a = rng.normal(size=(4, 3))
        gen_b = gen_a.copy()
        gen_b[1] += 100.0  # an unmasked cell
        recon = np.array([1.0, 0.0, 1.0, 0.0])
        la = reconstruction_loss(squared_cell_errors(const(gen_a), target), recon)
        lb = reconstruction_loss(squared_cell_errors(const(gen_b), target), recon)
        np.testing.assert_allclose(la.data, lb.data)

    def test_gradient_stops_at_target(self):
        from fedmmg.numerics import ParamStore, Tape
        store = ParamStore.pack({"gen": np.array([[1.0, 2.0]]),
                                 "target": np.array([[0.5, 0.5]])})
        gen, target = store["gen"], store["target"]
        with Tape() as tape:
            loss = reconstruction_loss(squared_cell_errors(gen, target),
                                       np.array([1.0]))
            tape.backward(loss)
        assert gen.grad is not None and np.abs(gen.grad).max() > 0
        assert target.grad is None  # stop-gradient on the target side


class TestAlignmentLoss:
    def _loss_for(self, vec_a, vec_b):
        params_like = {"gen.align.w": const(np.eye(2))}

        class Fake(dict):
            def __getitem__(self, k):
                return params_like[k]

        raw = const(np.vstack([vec_a, vec_b]))
        generated = const(np.zeros((2, 2)))
        eff = np.ones((1, 2))
        return generation.alignment_loss(Fake(), raw, generated, eff).data

    def test_identical_pair_zero(self):
        np.testing.assert_allclose(self._loss_for([[1.0, 0.0]], [[1.0, 0.0]]), 0.0,
                                   atol=1e-9)

    def test_orthogonal_pair_one(self):
        np.testing.assert_allclose(self._loss_for([[1.0, 0.0]], [[0.0, 1.0]]), 1.0,
                                   atol=1e-9)

    def test_antiparallel_pair_two(self):
        np.testing.assert_allclose(self._loss_for([[1.0, 0.0]], [[-1.0, 0.0]]), 2.0,
                                   atol=1e-9)

    def test_range_bounds(self):
        rng = np.random.default_rng(28)
        graph = star_graph(seed=28)
        cfg = small_cfg()
        keep = (rng.random((graph.n, 2)) > 0.4).astype(float)
        masks = MaskSet(natural=graph.natural_mask, keep=keep)
        _, bundle = _forward(graph, masks, cfg, seed=28, round_t=3)
        assert 0.0 <= bundle.align_loss.data <= 2.0

    def test_all_visible_unmasked_still_generates_with_zero_rec(self):
        cfg = small_cfg()
        graph = star_graph(seed=29)
        masks = MaskSet.full_visibility(graph.natural_mask)
        _, bundle = _forward(graph, masks, cfg, seed=29, round_t=3)
        assert bundle.generated is not None
        assert bundle.rec_loss.data == 0.0

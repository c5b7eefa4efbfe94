"""Tensor engine: gradients, attention masking, conv, optimizer, layer norm."""

import copy
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmmg import generation, tasks
from fedmmg import numerics as nx
from fedmmg.config import ExperimentConfig, assemble_run
from fedmmg.federation import client_local_round, run_federation
from fedmmg.generation import BankBatch
from fedmmg.model import init_params
from fedmmg.numerics import (MASK_NEG, AdamState, GradientError, ParamStore, Tape, Tensor,
                             adam_step, const, grad_check, neighbor_mean_matrix,
                             sage_conv)

from test_encoding import edge_array


def identity_attention(d: int) -> dict:
    eye = const(np.eye(d))
    return {"wq": eye, "wk": eye, "wv": eye, "wo": eye}


def attention_arrays(rng, dq, dm, da) -> dict:
    """Random projection arrays named wq, wk, wv, wo."""
    return {"wq": rng.normal(size=(dq, da)) * 0.3, "wk": rng.normal(size=(dm, da)) * 0.3,
            "wv": rng.normal(size=(dm, da)) * 0.3, "wo": rng.normal(size=(da, dm)) * 0.3}


def attend(query, memory, slots, heads, params):
    """``bank_attention`` and the output projection, as generation applies
    them; ``params`` maps wq, wk, wv and wo to tensors."""
    ctx, weights = nx.bank_attention(query, memory, params["wq"], params["wk"],
                                     params["wv"], slots, heads)
    return nx.matmul(ctx, params["wo"]), weights


def attend_one_bank(query, memory, mask, heads, params):
    """``attend`` over one bank whose slot s reads row s of ``memory``;
    returns the output, the weights and the bank's slots."""
    slots = nx.SparsePattern.of_banks(np.arange(memory.shape[0]).reshape(1, -1),
                                      mask.reshape(1, -1))
    out, weights = attend(query, memory, slots, heads, params)
    return out, weights, slots


class TestAttention:
    def test_single_token_returns_value_row(self):
        d = 4
        rng = np.random.default_rng(0)
        v = rng.normal(size=(1, d))
        out, weights, _ = attend_one_bank(const(rng.normal(size=(1, d))), const(v),
                                          np.zeros(1), heads=2,
                                          params=identity_attention(d))
        np.testing.assert_allclose(out.data, v, atol=1e-12)
        np.testing.assert_allclose(weights, 1.0)

    def test_identical_rows_split_weight_evenly(self):
        d = 4
        rng = np.random.default_rng(1)
        row = rng.normal(size=(1, d))
        bank = const(np.vstack([row, row]))
        out, weights, _ = attend_one_bank(const(rng.normal(size=(1, d))), bank,
                                          np.zeros(2), heads=2,
                                          params=identity_attention(d))
        np.testing.assert_allclose(weights, 0.5, atol=1e-12)

    def test_masked_token_has_no_slot_and_no_influence(self):
        d = 4
        rng = np.random.default_rng(2)
        query = const(rng.normal(size=(1, d)))
        rows = rng.normal(size=(2, d))
        mask = np.array([0.0, MASK_NEG])
        out, weights, slots = attend_one_bank(query, const(rows), mask, heads=2,
                                              params=identity_attention(d))
        assert slots.indices.tolist() == [0]
        np.testing.assert_allclose(weights, 1.0)
        rows[1] += 2.5
        moved, _, _ = attend_one_bank(query, const(rows), mask, heads=2,
                                      params=identity_attention(d))
        assert moved.data.tobytes() == out.data.tobytes()

    def test_output_in_convex_hull_of_values(self):
        # identity projections: per-head output is a convex combination of rows
        d = 4
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, d))
        out, weights, _ = attend_one_bank(const(rng.normal(size=(1, d))),
                                          const(values), np.zeros(5), heads=1,
                                          params=identity_attention(d))
        assert (out.data >= values.min(axis=0) - 1e-12).all()
        assert (out.data <= values.max(axis=0) + 1e-12).all()
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)

    def test_attention_gradients(self):
        rng = np.random.default_rng(4)
        store = ParamStore.pack(attention_arrays(rng, 6, 6, 8))
        query = const(rng.normal(size=(1, 6)))
        bank = const(rng.normal(size=(4, 6)))
        mask = np.array([0.0, 0.0, MASK_NEG, 0.0])

        def f(s):
            out, _, _ = attend_one_bank(query, bank, mask, 2, store)
            return nx.total_sum(nx.mul(out, out))

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-6


def gathered_attention(query, memory, token_index, mask, heads, params):
    """Gather-then-project reference in plain numpy: every bank slot's
    memory row is gathered first and projected on its own."""
    g_count, s_count = token_index.shape
    q = query @ params["wq"].data
    k = memory[token_index] @ params["wk"].data       # [G, S, d_attn]
    v = memory[token_index] @ params["wv"].data
    dh = q.shape[1] // heads
    ctx = np.zeros_like(q)
    weights = np.zeros((g_count, heads, s_count))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = np.einsum("gd,gsd->gs", q[:, cols], k[:, :, cols]) / np.sqrt(dh) + mask
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights[:, h] = e / e.sum(axis=1, keepdims=True)
        ctx[:, cols] = np.einsum("gs,gsd->gd", weights[:, h], v[:, :, cols])
    return ctx @ params["wo"].data, weights


def slot_weights_of(weights, mask):
    """The [G, H, S] weights at the usable slots, in (bank, column) order:
    the per-slot layout ``bank_attention`` returns."""
    bank, column = np.nonzero(mask == 0.0)
    return weights[bank, :, column]


def bank_weight_sums(slot_weights, mask):
    """Each bank's per-head sum of its usable slots' weights: [G, H]."""
    bank = np.nonzero(mask == 0.0)[0]
    sums = np.zeros((mask.shape[0], slot_weights.shape[1]))
    np.add.at(sums, bank, slot_weights)
    return sums


def shared_memory_banks(rng, t_count, g_count, s_count, empty=()):
    """Banks over T memory rows plus a zero padding row at index T: slots
    repeat tokens, and every bank but those listed in ``empty`` has at least
    one usable slot."""
    index = rng.integers(0, t_count, size=(g_count, s_count))
    index[:, 0] = rng.integers(0, 2, size=g_count)     # repeats across banks
    pad = rng.random((g_count, s_count)) < 0.4
    pad[:, 0] = False
    pad[list(empty)] = True
    index[pad] = t_count
    return index, np.where(pad, MASK_NEG, 0.0)


def with_padding_columns(rng, index, mask, extra, pad_row):
    """The same banks with ``extra`` all-masked columns inserted at random
    positions; returns the widened index and mask and the new columns."""
    width = index.shape[1] + extra
    new_cols = np.sort(rng.choice(width, size=extra, replace=False))
    old_cols = np.setdiff1d(np.arange(width), new_cols)
    wide_index = np.full((index.shape[0], width), pad_row)
    wide_mask = np.full((index.shape[0], width), MASK_NEG)
    wide_index[:, old_cols] = index
    wide_mask[:, old_cols] = mask
    return wide_index, wide_mask, new_cols


class TestSharedMemoryAttention:
    def test_matches_gather_then_project(self):
        rng = np.random.default_rng(11)
        params = ParamStore.pack(attention_arrays(rng, 5, 6, 8))
        memory = np.vstack([rng.normal(size=(7, 6)), np.zeros((1, 6))])
        index, mask = shared_memory_banks(rng, 7, 9, 5)
        query = rng.normal(size=(9, 5))
        out, weights = attend(const(query), const(memory),
                              nx.SparsePattern.of_banks(index, mask),
                              2, params)
        ref_out, ref_weights = gathered_attention(query, memory, index, mask, 2, params)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        # one weight per usable slot and head, and they carry every bank's
        # whole softmax mass: none is left for an excluded slot
        assert weights.shape == (int((mask == 0.0).sum()), 2)
        np.testing.assert_allclose(weights, slot_weights_of(ref_weights, mask),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(bank_weight_sums(weights, mask), 1.0, atol=1e-12)

    def test_gradients_of_projections_and_memory_rows(self):
        rng = np.random.default_rng(12)
        arrays = attention_arrays(rng, 5, 6, 8)
        store = ParamStore.pack({**arrays, "memory": rng.normal(size=(7, 6))})
        pad_row = const(np.zeros((1, 6)))
        index, mask = shared_memory_banks(rng, 7, 9, 5, empty=(2, 6))
        query = const(rng.normal(size=(9, 5)))
        probe = const(rng.normal(size=(9, 6)))

        def f(s):
            stacked = nx.concat([s["memory"], pad_row], axis=0)
            out, _ = attend(query, stacked, nx.SparsePattern.of_banks(index, mask), 2, store)
            return nx.total_sum(nx.mul(out, probe))

        report = grad_check(f, store, h=1e-5)
        assert set(report.per_param) == {"wq", "wk", "wv", "wo", "memory"}
        assert report.max_rel_err < 1e-6

    @staticmethod
    def _run(params, memory, pad_row, query, index, mask, slots=None):
        """Output, weights and the gradients of wq, wk, wv, wo, query and
        memory, in that order, of one attention call whose loss weighs every
        output entry. It lists the banks' slots unless it is given them."""
        tensors = [params[name] for name in ("wq", "wk", "wv", "wo")] + [query, memory]
        for t in tensors:
            t.grad = None
        with Tape() as tape:
            stacked = nx.concat([memory, pad_row], axis=0)
            if slots is None:
                slots = nx.SparsePattern.of_banks(index, mask)
            out, weights = attend(query, stacked, slots, 2, params)
            probe = np.arange(out.data.size, dtype=np.float64).reshape(out.shape)
            tape.backward(nx.total_sum(nx.mul(out, const(np.sin(probe)))))
        return out.data, weights, [t.grad for t in tensors]

    def _setup(self, seed, empty=()):
        rng = np.random.default_rng(seed)
        params = ParamStore.pack(attention_arrays(rng, 5, 6, 8))
        memory = Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        query = Tensor(rng.normal(size=(9, 5)), requires_grad=True)
        index, mask = shared_memory_banks(rng, 7, 9, 5, empty)
        return rng, params, memory, const(np.zeros((1, 6))), query, index, mask

    @pytest.mark.parametrize("seed", range(4))
    def test_padding_columns_change_nothing(self, seed):
        rng, params, memory, pad_row, query, index, mask = self._setup(seed, empty=(3,))
        out, weights, grads = self._run(params, memory, pad_row, query, index, mask)
        wide_index, wide_mask, new_cols = with_padding_columns(rng, index, mask, 4, 7)
        wide_out, wide_weights, wide_grads = self._run(params, memory, pad_row, query,
                                                       wide_index, wide_mask)
        assert wide_out.tobytes() == out.tobytes()
        for g, wide_g in zip(grads, wide_grads):
            assert wide_g.tobytes() == g.tobytes()
        # the padding columns add no slot, and every usable slot keeps its weights
        assert wide_weights.shape == weights.shape
        assert wide_weights.tobytes() == weights.tobytes()

    def test_empty_bank_gives_zero_context_and_weights(self):
        _, params, memory, pad_row, query, index, mask = self._setup(5, empty=(0, 4))
        out, weights, grads = self._run(params, memory, pad_row, query, index, mask)
        sums = bank_weight_sums(weights, mask)
        assert (out[[0, 4]] == 0.0).all()
        assert (sums[[0, 4]] == 0.0).all()        # no slot, so no weight
        assert (grads[4][[0, 4]] == 0.0).all()     # no gradient to their queries
        np.testing.assert_allclose(sums[[1, 2, 3]], 1.0, atol=1e-12)

    def test_every_bank_empty(self):
        _, params, memory, pad_row, query, index, mask = self._setup(6, empty=range(9))
        out, weights, grads = self._run(params, memory, pad_row, query, index, mask)
        assert (out == 0.0).all() and weights.shape == (0, 2)
        assert (grads[4] == 0.0).all() and (grads[5] == 0.0).all()

    def test_mask_values_other_than_the_sentinel_are_rejected(self):
        _, params, memory, pad_row, query, index, mask = self._setup(7)
        mask = mask.copy()
        mask[0, 1] = -1.0
        with pytest.raises(ValueError, match="MASK_NEG"):
            self._run(params, memory, pad_row, query, index, mask)

    def test_a_reused_bank_batch_keeps_gradients_bit_for_bit(self):
        # a bank batch lists its usable slots once; attention over it again
        # reuses them and gives the bytes that a fresh batch gives
        _, params, memory, pad_row, query, index, mask = self._setup(13)

        def batch():
            return BankBatch(token_index=index, additive_mask=mask)

        def run(banks):
            out, weights, grads = self._run(params, memory, pad_row, query, index,
                                            mask, banks.slots)
            return [out.tobytes(), weights.tobytes()] + [g.tobytes() for g in grads]

        reference = run(batch())
        reused = batch()
        assert run(reused) == reference
        slots = reused.slots
        assert run(reused) == reference
        assert reused.slots is slots


def scatter_sum_attention(q, k, v, slots, heads):
    """Reference for the attention of projected rows: the op that took q, k
    and v already projected, with every sum onto banks or tokens one
    ``scatter_sum``."""
    g_count, d = q.shape
    t_count = k.shape[0]
    dh = d // heads
    c = 1.0 / np.sqrt(dh)
    bank, token = slots.row_of, slots.indices
    u = bank.size
    qd, kd, vd = q.data, k.data, v.data

    def gather(x, at):
        return x[at].reshape(u, heads, dh)

    def scatter(values, to_tokens, n):
        targets = token if to_tokens else bank
        return scatter_sum(values, targets, n)

    logits = np.einsum("uhd,uhd->uh", gather(qd, bank), gather(kd, token)) * c
    # each slot's bank max, over the bank's slots: its row of the pattern
    top = np.empty_like(logits)
    for lo, hi in zip(slots.indptr[:-1], slots.indptr[1:]):
        if hi > lo:
            top[lo:hi] = logits[lo:hi].max(axis=0)
    logits = logits - top
    e = np.exp(logits)
    w = e / scatter(e, False, g_count)[bank]
    data = scatter((w[:, :, None] * gather(vd, token)).reshape(u, d), False, g_count)
    sq, sk, sv = q.slot, k.slot, v.slot

    def backward(g):
        gs = gather(g, bank)
        if sv is not None:
            sv.accumulate(scatter((w[:, :, None] * gs).reshape(u, d), True, t_count))
        if sq is None and sk is None:
            return
        wg = w * np.einsum("uhd,uhd->uh", gs, gather(vd, token))
        dlogits = (wg - w * scatter(wg, False, g_count)[bank]) * c
        if sq is not None:
            sq.accumulate(scatter((dlogits[:, :, None] * gather(kd, token))
                                  .reshape(u, d), False, g_count))
        if sk is not None:
            sk.accumulate(scatter((dlogits[:, :, None] * gather(qd, bank))
                                  .reshape(u, d), True, t_count))

    return nx._result(data, any(s is not None for s in (sq, sk, sv)), backward), w


def projected_attention(query, memory, wq, wk, wv, slots, heads):
    """Reference for ``bank_attention``: the wq, wk and wv projections as
    ``matmul`` ops and ``scatter_sum_attention`` of their outputs."""
    return scatter_sum_attention(nx.matmul(query, wq), nx.matmul(memory, wk),
                                 nx.matmul(memory, wv), slots, heads)


def gate_chain(evidence, self_in, anchor_in, w_self, w_gate, b_gate, w_anchor, usable,
               gamma):
    """Reference for ``gated_blend``: the op chain generation recorded."""
    self_ctx = nx.matmul(self_in, w_self)
    gate = nx.sigmoid(nx.linear([evidence, self_ctx], w_gate, b_gate))
    gate = nx.mul(gate, const(usable))
    one = const(np.ones((1, 1)))
    warmed = nx.add(nx.mul(gate, evidence), nx.mul(nx.sub(one, gate), self_ctx))
    anchored = nx.matmul(anchor_in, w_anchor)
    return nx.add(nx.scale(warmed, gamma), nx.scale(anchored, 1.0 - gamma))


def concat_then_linear(pieces, w, b):
    """Reference for ``linear`` over pieces: the three ops it stands for."""
    return nx.add(nx.matmul(nx.concat(pieces, axis=1), w), b)


def matmul_then_add(x, w, b):
    """Reference for ``linear`` over one input: the two ops it stands for."""
    return nx.add(nx.matmul(x, w), b)


def gathered_pair_dots(a, pairs):
    """Reference for ``pair_dots``: the chain link-prediction scores recorded."""
    left = nx.rows(a, pairs[:, 0])
    right = nx.rows(a, pairs[:, 1])
    return nx.sum_axis(nx.mul(left, right), -1, keepdims=True)


def grad_bytes(tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


# random pairs, and pairs shaped like a hub: node 0 is in most of them, on
# either side, and pairs repeat
_PAIRS = st.one_of(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=10),
    st.lists(st.sampled_from([(0, 1), (2, 0), (0, 0), (0, 3), (5, 0), (4, 6)]),
             min_size=1, max_size=24))


class TestFusedOpsMatchTheirCompositions:
    """Each op that stands for a chain of ops gives the chain's values and
    gradients byte for byte, with every gradient slot summed in the chain's
    order, also where another op reaches the same input."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 6), widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           out_width=st.integers(1, 4), takes=st.lists(st.booleans(), min_size=6, max_size=6),
           repeat_first=st.booleans(), row_bias=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_linear_over_pieces(self, n, widths, out_width, takes, repeat_first, row_bias,
                                seed):
        def run(op):
            rng = np.random.default_rng(seed)
            xs = [Tensor(varied_normal(rng, (n, wd)), requires_grad=take)
                  for wd, take in zip(widths, takes)]
            pieces = xs + xs[:1] if repeat_first else xs
            width = sum(p.shape[1] for p in pieces)
            w = Tensor(varied_normal(rng, (width, out_width)), requires_grad=takes[4])
            b = Tensor(varied_normal(rng, (1, out_width) if row_bias else (out_width,)),
                       requires_grad=takes[5])
            probe = const(varied_normal(rng, (n, out_width)))
            with Tape() as tape:
                # other ops reach the first piece before and after the fused one
                early = nx.total_sum(nx.mul(xs[0], const(varied_normal(rng, xs[0].shape))))
                out = op(pieces, w, b)
                late = nx.total_sum(nx.mul(xs[0], const(varied_normal(rng, xs[0].shape))))
                tape.backward(nx.add(nx.add(early, nx.total_sum(nx.mul(out, probe))), late))
            return [out.data.tobytes()] + grad_bytes(xs + [w, b])

        assert run(nx.linear) == run(concat_then_linear)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 6), width=st.integers(1, 4), out_width=st.integers(1, 4),
           takes=st.lists(st.booleans(), min_size=3, max_size=3), row_bias=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_linear_over_one_input(self, n, width, out_width, takes, row_bias, seed):
        def run(op):
            rng = np.random.default_rng(seed)
            x = Tensor(varied_normal(rng, (n, width)), requires_grad=takes[0])
            w = Tensor(varied_normal(rng, (width, out_width)), requires_grad=takes[1])
            b = Tensor(varied_normal(rng, (1, out_width) if row_bias else (out_width,)),
                       requires_grad=takes[2])
            probe = const(varied_normal(rng, (n, out_width)))
            with Tape() as tape:
                # another op reaches x before the linear one
                early = nx.total_sum(nx.mul(x, const(varied_normal(rng, x.shape))))
                out = op(x, w, b)
                tape.backward(nx.add(early, nx.total_sum(nx.mul(out, probe))))
            return [out.data.tobytes()] + grad_bytes([x, w, b])

        assert run(nx.linear) == run(matmul_then_add)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), width=st.integers(1, 4), pos=_PAIRS, neg=_PAIRS,
           group=st.sampled_from([1, 3, nx._GROUP]), seed=st.integers(0, 2 ** 32 - 1))
    def test_pair_dots(self, n, width, pos, neg, group, seed):
        # both sides sum on jagged-diagonal schedules (the chain through
        # ``rows``), so test_rows_backward_is_add_at ties them to np.add.at
        pos = np.array(pos, dtype=np.int64) % n
        neg = np.array(neg, dtype=np.int64) % n

        def run(op):
            rng = np.random.default_rng(seed)
            a = Tensor(varied_normal(rng, (n, width)), requires_grad=True)
            with Tape() as tape:
                # a takes four scatters from the two calls and one earlier term
                early = nx.total_sum(nx.mul(a, const(varied_normal(rng, (n, width)))))
                s_pos, s_neg = op(a, pos), op(a, neg)
                loss = nx.add(early, nx.total_sum(nx.mul(
                    nx.concat([s_pos, s_neg], axis=0),
                    const(varied_normal(rng, (pos.shape[0] + neg.shape[0], 1))))))
                tape.backward(loss)
            return [s_pos.data.tobytes(), s_neg.data.tobytes(), a.grad.tobytes()]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "_GROUP", group)
            assert run(nx.pair_dots) == run(gathered_pair_dots)

    @pytest.mark.parametrize("width", [1, 8, 32])
    @pytest.mark.parametrize("count", [0, 1, nx._GROUP - 1, nx._GROUP, nx._GROUP + 1,
                                       2 * nx._GROUP + 3])
    def test_pair_scores_are_the_one_shot_sums(self, count, width):
        # scoring a group of pairs at a time sums each pair's row of
        # products as the sum over the whole [count x width] gather does
        rng = np.random.default_rng([count, width])
        x = varied_normal(rng, (97, width))
        pairs = rng.integers(0, 97, size=(count, 2))
        expected = (x[pairs[:, 0]] * x[pairs[:, 1]]).sum(axis=1)
        got = nx.pair_scores(x, pairs)
        assert got.shape == (count,) and got.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), pos=_PAIRS, neg=_PAIRS, seed=st.integers(0, 2 ** 32 - 1))
    def test_link_loss_through_lp_scores(self, n, pos, neg, seed):
        # the whole link-prediction loss, whose two pair_dots calls both
        # scatter onto the refined rows
        pos = np.array(pos, dtype=np.int64) % n
        neg = np.resize(np.array(neg, dtype=np.int64) % n, pos.shape)

        def run():
            refined = Tensor(varied_normal(np.random.default_rng(seed), (n, 3)),
                             requires_grad=True)
            with Tape() as tape:
                loss = tasks.lp_pair_loss(refined, pos, neg)
                tape.backward(loss)
            return [loss.data.tobytes(), refined.grad.tobytes()]

        fused = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "pair_dots", gathered_pair_dots)
            assert run() == fused

    @settings(max_examples=120, deadline=None)
    @given(g_count=st.integers(1, 9), s_count=st.integers(1, 5), heads=st.sampled_from([1, 2]),
           empty=st.lists(st.integers(0, 8), max_size=3),
           single=st.lists(st.integers(0, 8), max_size=3),
           takes=st.lists(st.booleans(), min_size=5, max_size=5),
           group=st.sampled_from([1, 2, 3, 5, nx._GROUP]), seed=st.integers(0, 2 ** 32 - 1))
    def test_bank_attention(self, g_count, s_count, heads, empty, single, takes, group,
                            seed):
        # empty banks, one-slot banks, any subset of the operands taking a
        # gradient, and slot rows formed in groups of a few entries
        def run(attention):
            rng = np.random.default_rng(seed)
            arrays = attention_arrays(rng, 5, 6, 8)
            wq, wk, wv = (Tensor(arrays[name], requires_grad=take)
                          for name, take in zip(("wq", "wk", "wv"), takes))
            memory = Tensor(rng.normal(size=(7, 6)), requires_grad=takes[3])
            query = Tensor(rng.normal(size=(g_count, 5)), requires_grad=takes[4])
            index, mask = shared_memory_banks(rng, 7, g_count, s_count,
                                              [e for e in empty if e < g_count])
            for b in single:
                if b < g_count and (mask[b] == 0.0).any():
                    mask[b, 1:] = MASK_NEG   # column 0 stays, as its only slot
            probe = const(rng.normal(size=(g_count, 8)))
            pad = const(np.zeros((1, 6)))
            late = const(varied_normal(rng, (8, 6)))
            with Tape() as tape:
                # the memory rows reach other ops before and after, so the
                # order of the key and value gradients shows
                early = nx.total_sum(nx.mul(memory, memory))
                stacked = nx.concat([memory, pad], axis=0)
                out, weights = attention(query, stacked, wq, wk, wv,
                                         nx.SparsePattern.of_banks(index, mask), heads)
                loss = nx.add(nx.add(early, nx.total_sum(nx.mul(out, probe))),
                              nx.add(nx.total_sum(nx.mul(stacked, late)),
                                     nx.total_sum(nx.mul(query, query))))
                if any(takes):
                    tape.backward(loss)
            tensors = [wq, wk, wv, query, memory]
            return [out.data.tobytes(), weights.tobytes()] + grad_bytes(tensors)

        reference = run(projected_attention)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "_GROUP", group)
            assert run(nx.bank_attention) == reference

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 6), width=st.integers(1, 4), gamma=st.sampled_from([0.0, 0.5, 1.0]),
           takes=st.lists(st.booleans(), min_size=7, max_size=7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gated_blend(self, n, width, gamma, takes, seed):
        def run(op):
            rng = np.random.default_rng(seed)

            def operand(shape, take):
                # magnitudes that leave the gate unsaturated
                return Tensor(varied_normal(rng, shape, -4, 0), requires_grad=take)

            evidence, self_in, anchor_in = (operand((n, width), take) for take in takes[:3])
            w_self, w_gate, w_anchor = (
                operand(shape, take)
                for shape, take in zip([(width, width), (2 * width, width), (width, width)],
                                       takes[3:6]))
            b_gate = operand((width,), takes[6])
            usable = (rng.random((n, 1)) < 0.7).astype(np.float64)
            probe = const(varied_normal(rng, (n, width)))
            late_terms = [const(varied_normal(rng, (n, width))) for _ in range(3)]
            with Tape() as tape:
                # each input reaches other ops before and after the blend
                early = nx.total_sum(nx.mul(evidence, self_in))
                out = op(evidence, self_in, anchor_in, w_self, w_gate, b_gate, w_anchor,
                         usable, gamma)
                late = nx.total_sum(nx.concat(
                    [nx.mul(x, c) for x, c in zip((evidence, self_in, anchor_in),
                                                  late_terms)], axis=0))
                loss = nx.add(nx.add(early, nx.total_sum(nx.mul(out, probe))), late)
                if any(takes):
                    tape.backward(loss)
            tensors = [evidence, self_in, anchor_in, w_self, w_gate, b_gate, w_anchor]
            return [out.data.tobytes()] + grad_bytes(tensors)

        with np.errstate(over="ignore"):
            assert run(nx.gated_blend) == run(gate_chain)


class TestAliasedGradients:
    """A first gradient is stored as it is, so it may alias another tensor's
    gradient; later ones must be added without mutating it."""

    def test_add_of_a_tensor_to_itself(self):
        x = nx.Tensor(np.array([[1.5, -2.0], [0.25, 3.0]]), requires_grad=True)
        c = np.array([[0.1, 0.7], [-1.3, 2.9]])
        with Tape() as tape:
            y = nx.add(x, x)
            tape.backward(nx.total_sum(nx.mul(y, const(c))))
        assert np.array_equal(x.grad, c + c)
        assert np.array_equal(y.grad, c)

    def test_mul_of_a_tensor_by_itself(self):
        x = nx.Tensor(np.array([[1.5, -2.0], [0.25, 3.0]]), requires_grad=True)
        c = np.array([[0.1, 0.7], [-1.3, 2.9]])
        with Tape() as tape:
            y = nx.mul(x, x)
            tape.backward(nx.total_sum(nx.mul(y, const(c))))
        assert np.array_equal(x.grad, c * x.data + c * x.data)
        assert np.array_equal(y.grad, c)

    def test_reshape_view_with_two_consumers(self):
        x = nx.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        c1, c2 = np.linspace(-1, 1, 6), np.linspace(0.3, 2.2, 6)
        with Tape() as tape:
            v = nx.reshape(x, (6,))
            z1 = nx.add(v, const(np.ones(6)))     # passes its gradient through
            z2 = nx.add(v, const(np.ones(6)))
            tape.backward(nx.add(nx.total_sum(nx.mul(z1, const(c1))),
                                 nx.total_sum(nx.mul(z2, const(c2)))))
        assert np.array_equal(x.grad, (c1 + c2).reshape(3, 2))
        assert np.array_equal(z1.grad, c1) and np.array_equal(z2.grad, c2)
        assert np.array_equal(v.grad, c1 + c2)


def at_each_backward(monkeypatch, setup, inspect, after=None):
    """Run the federation of ``setup``, calling ``inspect(tape)`` as each
    ``Tape.backward`` is entered and ``after()``, if given, as it returns."""
    real_backward = Tape.backward

    def backward(tape, loss):
        inspect(tape)
        real_backward(tape, loss)
        if after is not None:
            after()

    monkeypatch.setattr(Tape, "backward", backward)
    run_federation(setup)


def benchmark_lp_first_step():
    """The link-prediction benchmark's set-up, its larger client (2,043
    nodes) and fresh parameters for that client's first step."""
    cfg = ExperimentConfig.from_dict({
        "task": "lp",
        "data": {"kind": "sbm", "blocks": 4, "nodes_per_block": 1000,
                 "p_in": 0.01, "p_out": 0.001, "d_img": 512, "d_txt": 768},
        "missingness": {"rate": 0.3, "mode": "node", "p_mask": 0.3},
        "federation": {"clients": 2, "alpha": 1000.0, "rounds": 1,
                       "mode": "reliability", "workers": 1},
        "model": {"hidden_dim": 32, "local_epochs": 1}})
    setup = assemble_run(cfg).setup
    data = max(setup.clients, key=lambda c: c.graph.n)
    return setup, data, init_params(setup.model_cfg, cfg.seed)


def held_objects(value):
    """``value`` and, recursively, the items of the lists and tuples in it
    and the contents of the closure cells of the functions in it."""
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in held_objects(item)]
    cells = getattr(value, "__closure__", None) or ()
    return [value] + [x for cell in cells for x in held_objects(cell.cell_contents)]


class TestTapeLifetime:
    """A tape keeps each op's output slot and only the arrays its backward
    reads; ``backward`` runs once and frees each op's saved arrays as it
    goes."""

    def test_an_intermediate_dies_with_the_callers_last_reference(self):
        x = nx.Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            h = nx.scale(x, 2.0)
            saved = weakref.ref(h.data)
            out = nx.add(h, const(np.ones((3, 2))))
            del h  # no gradient formula of scale or add reads h's values
            assert saved() is None
            tape.backward(nx.total_sum(out))
        assert np.array_equal(x.grad, np.full((3, 2), 2.0))

    def test_mul_keeps_no_reference_to_its_differentiable_operand(self):
        # mul(h, const(c)) needs c for h's gradient, but h's values only for
        # a gradient of c, which takes none
        x = nx.Tensor(np.ones((3, 2)), requires_grad=True)
        c = np.arange(6.0).reshape(3, 2)
        with Tape() as tape:
            h = nx.scale(x, 2.0)
            saved = weakref.ref(h.data)
            loss = nx.total_sum(nx.mul(h, const(c)))
            del h
            assert saved() is None
            tape.backward(loss)
        assert np.array_equal(x.grad, 2.0 * c)

    def test_only_a_tensor_that_takes_a_gradient_has_a_slot(self):
        c = const(np.ones(2))
        assert c.slot is None and c.grad is None and not c.requires_grad
        c.grad = None
        with pytest.raises(ValueError, match="no gradient slot"):
            c.grad = np.ones(2)
        x = nx.Tensor(np.ones(2), requires_grad=True)
        x.grad = np.full(2, 3.0)
        assert x.requires_grad and x.slot.grad is x.grad

    @pytest.mark.parametrize("task", ["nc", "lp", "mr"])
    def test_no_record_holds_a_tensor(self, monkeypatch, task):
        # the records of a seed-3 training forward plus its task loss
        cfg = ExperimentConfig.from_dict({
            "seed": 3, "task": task,
            "data": {"blocks": 3, "nodes_per_block": 12, "d_img": 10, "d_txt": 9},
            "federation": {"clients": 3, "rounds": 1, "workers": 1},
            "model": {"hidden_dim": 8}})
        held: list = []

        def inspect(tape):
            held.extend(held_objects(tape._records))

        at_each_backward(monkeypatch, assemble_run(cfg).setup, inspect)
        assert not [x for x in held if isinstance(x, Tensor)]
        assert sum(isinstance(x, nx._Slot) for x in held) > 500
        # the ops that keep their inputs rather than gathered or joined
        # copies are among the records checked
        ops = {getattr(x, "__qualname__", "").partition(".")[0] for x in held}
        assert {"linear", "bank_attention"} <= ops
        assert ("pair_dots" in ops) == (task == "lp")

    def test_backward_frees_an_array_only_a_closure_holds(self):
        x = nx.Tensor(np.ones((3, 2)), requires_grad=True)
        c = np.arange(6.0).reshape(3, 2)
        saved = weakref.ref(c)
        with Tape() as tape:
            loss = nx.total_sum(nx.mul(x, const(c)))
            del c  # now only mul's backward closure holds it
            assert saved() is not None
            tape.backward(loss)
        assert saved() is None
        assert np.array_equal(x.grad, np.arange(6.0).reshape(3, 2))

    def test_len_counts_every_op_after_backward(self):
        x = nx.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        with Tape() as tape:
            loss = nx.total_sum(nx.mul(nx.relu(x), x))
            before = len(tape)
            tape.backward(loss)
        assert before == 3 and len(tape) == before

    def test_second_backward_is_a_one_line_value_error(self):
        x = nx.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        with Tape() as tape:
            loss = nx.total_sum(nx.mul(x, x))
            tape.backward(loss)
            with pytest.raises(ValueError) as err:
                tape.backward(loss)
        assert "backward already ran" in str(err.value)
        assert "\n" not in str(err.value)

    def test_training_tape_stays_small_at_backward_entry(self, monkeypatch):
        # the link-prediction benchmark's shape at a quarter of its nodes:
        # 2 clients of about 500 nodes. Records that hold their output and
        # operand tensors leave 30.3 MiB live at backward entry; slots and
        # only the arrays backward reads leave 13.4-13.6 MiB, and keeping
        # inputs instead of gathered slot rows, joined linear inputs and
        # gathered edge rows 11.3-11.5 MiB, and building each scatter index
        # where it is used instead of caching it 10.7-10.8 MiB, with
        # backward adding 0.6 MiB. Attention and the generation gate that
        # keep their inputs and recompute the rest leave 9.0 MiB, with
        # backward adding 1.2 MiB.
        cfg = ExperimentConfig.from_dict({
            "task": "lp",
            "data": {"kind": "sbm", "blocks": 4, "nodes_per_block": 250,
                     "p_in": 0.01, "p_out": 0.001, "d_img": 512, "d_txt": 768},
            "missingness": {"rate": 0.3, "mode": "node", "p_mask": 0.3},
            "federation": {"clients": 2, "alpha": 1000.0, "rounds": 1,
                           "mode": "reliability", "workers": 1},
            "model": {"hidden_dim": 32, "local_epochs": 1}})
        setup = assemble_run(cfg).setup
        live: list[int] = []
        peaks: list[int] = []

        def entry(tape):
            live.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            at_each_backward(monkeypatch, setup, entry,
                             lambda: peaks.append(tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        assert len(live) == len(peaks) == 2
        assert max(live) < 9.5 * 2**20
        assert max(peaks) < 10.75 * 2**20

    def test_generation_backward_peak_stays_small(self, monkeypatch):
        # the link-prediction benchmark's larger client (2,043 nodes, about
        # 20,000 usable bank slots) in its first step. Attention that kept
        # q, k and v and summed [U x d] slot rows with one bincount each
        # peaked at 45.9 MiB in generation's backward; recomputing the
        # projections and forming slot rows a group at a time, 38.5 MiB
        setup, data, store = benchmark_lp_first_step()
        inside, peaks = [False], []
        real_generate, real_record = generation.generate_modalities, Tape.record

        def generate(*args, **kwargs):
            inside[0] = True
            try:
                return real_generate(*args, **kwargs)
            finally:
                inside[0] = False

        def record(tape, out, backward):
            if not inside[0]:
                return real_record(tape, out, backward)

            def traced(g):
                if not peaks:  # generation's records run back to back
                    tracemalloc.reset_peak()
                backward(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            return real_record(tape, out, traced)

        monkeypatch.setattr(generation, "generate_modalities", generate)
        monkeypatch.setattr(Tape, "record", record)
        tracemalloc.start()
        try:
            client_local_round(setup, store, AdamState.for_params(store), data, 0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4  # the memory rows' concat, attention, wo, the blend
        assert max(peaks) < 40 * 2**20

    def test_training_step_peak_stays_small(self, monkeypatch):
        # the same first step, traced whole: from the training tape's entry
        # through backward, so a transient of the forward or the loss shows,
        # which the guards above, reset at backward entry, cannot see.
        # Scoring the hard-negative pool of about 13,000 pairs with whole
        # [pool x 32] gathers peaked there, at 44.0 MiB; scoring it one
        # group of pairs at a time leaves the peak to the gated blend's
        # backward and refine, at 38.3 MiB. (At the quarter-size config of
        # test_training_tape_stays_small_at_backward_entry the pool is about
        # 1,100 pairs, and the step peaks in backward, at 10.2 MiB, either
        # way.)
        setup, data, store = benchmark_lp_first_step()
        real_enter, real_backward = Tape.__enter__, Tape.backward
        peaks = []

        def enter(tape):
            tracemalloc.reset_peak()
            return real_enter(tape)

        def backward(tape, loss):
            real_backward(tape, loss)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(Tape, "__enter__", enter)
        monkeypatch.setattr(Tape, "backward", backward)
        tracemalloc.start()
        try:
            client_local_round(setup, store, AdamState.for_params(store), data, 0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] < 39.5 * 2**20


def masked_sigmoid(x):
    """The four-mask form ``_sigmoid_np`` replaced: 1 / (1 + exp(-x)) on the
    nonnegative entries, exp(x) / (1 + exp(x)) on the rest."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.8, -709.8,
                     710.5, -710.5, 745.2, -745.2, 1e308, -1e308, 5e-324, -5e-324]),
    st.floats(allow_nan=True, allow_infinity=True, width=64))


class TestSigmoid:
    @given(st.lists(EXTREME_FLOATS, min_size=0, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_masked_form_bit_for_bit(self, values):
        x = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):
            assert nx._sigmoid_np(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_two_dimensional_input(self):
        x = np.random.default_rng(0).normal(size=(40, 7)) * 400
        assert nx._sigmoid_np(x).tobytes() == masked_sigmoid(x).tobytes()


class TestSoftmax:
    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(5)
        for temperature in (1.0, 0.25, 3.0):
            x = const(rng.normal(size=(40, 7)) * 5)
            s = nx.softmax(x, axis=-1, temperature=temperature)
            np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)
            assert (s.data > 0).all()

    def test_lower_temperature_sharpens(self):
        x = const(np.array([[2.0, 0.0]]))
        hot = nx.softmax(x, temperature=1.0).data[0, 0]
        cold = nx.softmax(x, temperature=0.1).data[0, 0]
        assert cold > hot
        assert nx.softmax(x, temperature=0.1).data[0, 0] > 1 - 1e-8

    def test_softmax_dot_gradients(self):
        rng = np.random.default_rng(6)
        store = ParamStore.pack({"w": rng.normal(size=(5, 5))})
        x = const(rng.normal(size=(3, 5)))
        probe = const(rng.normal(size=(3, 5)))

        def f(s):
            return nx.total_sum(nx.mul(nx.softmax(nx.matmul(x, s["w"])), probe))

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-5


class TestSageConv:
    def test_identity_self_weights(self):
        x = np.random.default_rng(7).normal(size=(4, 3))
        mat = neighbor_mean_matrix(4, edge_array([(0, 1), (1, 2)]))
        out = sage_conv(const(x), mat, const(np.eye(3)), const(np.zeros((3, 3))))
        np.testing.assert_allclose(out.data, x)

    def test_neighbor_mean(self):
        x = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        mat = neighbor_mean_matrix(3, edge_array([(2, 0), (2, 1)]))
        out = sage_conv(const(x), mat, const(np.zeros((2, 2))), const(np.eye(2)))
        np.testing.assert_allclose(out.data[2], [2.0, 0.0])

    def test_isolated_node_gets_zero_neighbor_term(self):
        x = np.random.default_rng(8).normal(size=(3, 2))
        mat = neighbor_mean_matrix(3, edge_array([(0, 1)]))
        out = sage_conv(const(x), mat, const(np.zeros((2, 2))), const(np.eye(2)))
        np.testing.assert_allclose(out.data[2], 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        n, d = 6, 3
        x = rng.normal(size=(n, d))
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]
        w_self, w_neigh = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        out = sage_conv(const(x), neighbor_mean_matrix(n, edge_array(edges)),
                        const(w_self), const(w_neigh)).data

        perm = rng.permutation(n)
        p_edges = [(perm[u], perm[v]) for u, v in edges]
        p_out = sage_conv(const(x[np.argsort(perm)]),
                          neighbor_mean_matrix(n, edge_array(p_edges)),
                          const(w_self), const(w_neigh)).data
        np.testing.assert_allclose(p_out[perm], out, atol=1e-12)


def dense_neighbor_mean(n, edges):
    mat = np.zeros((n, n))
    for u, v in edges:
        mat[u, v] = mat[v, u] = 1.0
    deg = mat.sum(axis=1, keepdims=True)
    return np.divide(mat, deg, out=np.zeros_like(mat), where=deg > 0)


# random graphs: repeated edges and self-loops included, isolated nodes likely
_GRAPHS = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30),
    st.integers(0, 2 ** 32 - 1)))


class TestSparseOps:
    @settings(max_examples=150, deadline=None)
    @given(graph=_GRAPHS, d=st.integers(1, 4))
    def test_spmm_matches_dense_forward_and_transpose(self, graph, d):
        n, edges, seed = graph
        rng = np.random.default_rng(seed)
        mat = neighbor_mean_matrix(n, edge_array(edges))
        dense = dense_neighbor_mean(n, edges)
        x = rng.normal(size=(n, d))
        np.testing.assert_allclose(nx.spmm(mat, const(x)).data, dense @ x,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(mat.tdot(x), dense.T @ x, rtol=0, atol=1e-12)
        # arbitrary values on the same pattern, as the anchor weights use it
        weights = mat.with_data(rng.normal(size=mat.data.shape))
        dense_w = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(mat.indptr))
        dense_w[rows, mat.indices] = weights.data
        np.testing.assert_allclose(weights.dot(x), dense_w @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights.tdot(x), dense_w.T @ x, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(graph=_GRAPHS)
    def test_spmm_gradients(self, graph):
        n, edges, seed = graph
        rng = np.random.default_rng(seed)
        mat = neighbor_mean_matrix(n, edge_array(edges))
        mat = mat.with_data(rng.normal(size=mat.data.shape))
        store = ParamStore.pack({"x": rng.normal(size=(n, 3))})
        probe = const(rng.normal(size=(n, 3)))

        def f(s):
            return nx.total_sum(nx.mul(nx.spmm(mat, s["x"]), probe))

        assert grad_check(f, store, h=1e-5).max_rel_err < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), picks=st.lists(st.integers(0, 7), max_size=20),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_backward_matches_one_hot_product(self, n, picks, seed):
        rng = np.random.default_rng(seed)
        idx = np.array([p % n for p in picks], dtype=np.intp)
        a = nx.Tensor(rng.normal(size=(n, 3)), requires_grad=True)
        g = rng.normal(size=(idx.size, 3))
        with Tape() as tape:
            tape.backward(nx.total_sum(nx.mul(nx.rows(a, idx), const(g))))
        expected = np.eye(n)[idx].T @ g  # repeated picks add up
        np.testing.assert_allclose(a.grad, expected, rtol=0, atol=1e-12)


def scatter_sum(values, targets, n):
    """out[t] = sum of values[k] over targets[k] == t, added in k order, for
    [K] or [K, w] values; rows no target names are zero. One ``np.bincount``
    over a [K x w] flat index built for the call: the kernel every sum onto
    rows ran on before the jagged-diagonal schedule, kept as a reference."""
    width = math.prod(values.shape[1:])
    flat = (targets[:, None] * width + np.arange(width)).reshape(-1)
    shape = (n,) + values.shape[1:]
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)


def varied_normal(rng, shape, low=-8, high=8):
    """Normal draws spread over the magnitudes 10**low to 10**high, so the
    order in which they are added shows in the rounding."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(low, high + 1, size=shape)


class TestScatterKernel:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), picks=st.lists(st.integers(0, 7), max_size=40),
           width=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_scatter_sum_is_a_sequential_loop(self, n, picks, width, seed):
        # the reference kernel the jagged-diagonal tests compare against
        rng = np.random.default_rng(seed)
        targets = np.array([p % n for p in picks], dtype=np.intp)
        values = varied_normal(rng, (targets.size, width))
        expected = np.zeros((n, width))
        for k, t in enumerate(targets):
            for j in range(width):
                expected[t, j] = float(expected[t, j]) + float(values[k, j])
        got = scatter_sum(values, targets, n)
        assert got.shape == (n, width) and got.tobytes() == expected.tobytes()
        flat = scatter_sum(values[:, 0].copy(), targets, n)
        assert flat.tobytes() == expected[:, 0].copy().tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8),
           picks=st.one_of(st.lists(st.integers(0, 7), max_size=24),
                           # a hub: row 0 picked most of the time
                           st.lists(st.sampled_from([0, 0, 0, 2, 5]), max_size=40)),
           two_d=st.booleans(), trailing=st.sampled_from([(), (3,), (2, 3)]),
           group=st.sampled_from([1, 3, nx._GROUP]), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_backward_is_add_at(self, n, picks, two_d, trailing, group, seed):
        rng = np.random.default_rng(seed)
        idx = np.array([p % n for p in picks], dtype=np.intp)
        if two_d and idx.size % 2 == 0:
            idx = idx.reshape(2, -1)
        a = nx.Tensor(rng.normal(size=(n,) + trailing), requires_grad=True)
        g = varied_normal(rng, idx.shape + trailing)
        with pytest.MonkeyPatch.context() as mp, Tape() as tape:
            mp.setattr(nx, "_GROUP", group)
            tape.backward(nx.total_sum(nx.mul(nx.rows(a, idx), const(g))))
        expected = np.zeros((n,) + trailing)
        np.add.at(expected, idx, g)
        assert a.grad.shape == expected.shape
        assert a.grad.tobytes() == expected.tobytes()


def with_special_values(rng, values):
    """``values`` with about a quarter of its entries replaced by -0.0,
    +-inf or NaN."""
    out = values.copy()
    hit = rng.random(out.shape) < 0.25
    out[hit] = rng.choice([-0.0, np.inf, -np.inf, np.nan], size=int(hit.sum()))
    return out


def same_sums(got, expected):
    """Byte-identical arrays, except that a NaN may carry another sign or
    payload: which NaN operand an add passes on differs between numpy's
    vector and scalar loops and ``np.bincount``'s."""
    nan = np.isnan(expected)
    return (got.shape == expected.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == expected[~nan].tobytes())


def bincount_products(mat):
    """The CSR products and row sums as one ``scatter_sum`` each, the kernel
    the jagged-diagonal schedule replaced: (S x, S^T g, row sums)."""
    p = mat.pattern
    return (lambda x: scatter_sum(mat.data[:, None] * x[p.indices], p.row_of, p.n),
            lambda g: scatter_sum(mat.data[:, None] * g[p.row_of], p.indices, p.n),
            lambda: scatter_sum(mat.data, p.row_of, p.n))


def star_edges(n):
    return edge_array([(0, leaf) for leaf in range(1, n)])


# a star (one row of degree n - 1), a random graph whose isolated nodes
# are the ones past ``linked``, and an edgeless graph
_SHAPED_GRAPHS = st.one_of(
    st.integers(2, 40).map(lambda n: (n, star_edges(n))),
    st.integers(2, 16).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n).flatmap(lambda linked: st.lists(
            st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1)),
            max_size=30).map(edge_array)))),
    st.integers(1, 8).map(lambda n: (n, edge_array([]))))


class TestJaggedDiagonals:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), picks=st.lists(st.integers(0, 7), max_size=40),
           width=st.sampled_from([None, 1, 3]), special=st.booleans(),
           group=st.sampled_from([1, 2, 3, 7, nx._GROUP]), extra=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sum_is_scatter_sum_byte_for_byte(self, n, picks, width, special, group, extra,
                                              seed):
        # repeated targets, targets no entry names, no entries at all, and
        # -0.0, +-inf and NaN among the values: the same bytes, up to a
        # NaN's sign and payload, whether the values are formed in groups
        # of a few entries or all at once, and with rows past the targets
        rng = np.random.default_rng(seed)
        targets = np.array([p % n for p in picks], dtype=np.intp)
        shape = (targets.size,) if width is None else (targets.size, width)
        values = varied_normal(rng, shape)
        if special:
            values = with_special_values(rng, values)
        reads = rng.integers(0, n, size=targets.size)
        diagonals = nx._Diagonals.of(targets, reads, n)
        # entries listed by position within their target, then by rank
        pos = np.array([(targets[:k] == t).sum() for k, t in enumerate(targets)], dtype=int)
        assert np.array_equal(diagonals.order,
                              np.lexsort((diagonals.rank[targets], pos)))
        assert np.array_equal(diagonals.reads, reads[diagonals.order])
        spans = []

        def listed(span):
            spans.append(span)
            return values[diagonals.order[span]]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "_GROUP", group)
            got = diagonals.sum(listed, values.shape[1:], n + extra)
        assert all(span.stop - span.start <= group for span in spans)
        expected = scatter_sum(values, targets, n + extra)
        assert same_sums(got, expected)

    @settings(max_examples=150, deadline=None)
    @given(graph=_SHAPED_GRAPHS, d=st.integers(1, 4), special=st.booleans(),
           group=st.sampled_from([1, 3, nx._GROUP]), seed=st.integers(0, 2 ** 32 - 1))
    def test_products_match_the_bincount_composition(self, graph, d, special, group, seed):
        n, edges = graph
        rng = np.random.default_rng(seed)
        mat = neighbor_mean_matrix(n, edges)
        weights = mat.with_data(varied_normal(rng, mat.data.shape))
        x = varied_normal(rng, (n, d))
        if special:
            x = with_special_values(rng, x)
        for m in (mat, weights):
            dot, tdot, row_sums = bincount_products(m)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(nx, "_GROUP", group)
                assert same_sums(m.dot(x), dot(x))
                assert same_sums(m.tdot(x), tdot(x))
                assert m.row_sums().tobytes() == row_sums().tobytes()

    @settings(max_examples=100, deadline=None)
    @given(graph=_SHAPED_GRAPHS, heads=st.integers(1, 3), dh=st.integers(1, 3),
           special=st.booleans(), group=st.sampled_from([1, 3, nx._GROUP]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_per_head_products_match_scatter_sum(self, graph, heads, dh, special, group,
                                                 seed):
        # weights [K, H] scale each of a read row's H blocks of dh columns
        # by their own head's weight, as attention's sums onto banks and
        # tokens do; the row sums of [K, H] values are per head
        n, edges = graph
        rng = np.random.default_rng(seed)
        p = neighbor_mean_matrix(n, edges).pattern
        k = p.indices.size
        weights = varied_normal(rng, (k, heads))
        x = varied_normal(rng, (n, heads * dh))
        if special:
            x = with_special_values(rng, x)

        def terms(read):
            return (weights[:, :, None] * x[read].reshape(k, heads, dh)).reshape(k, heads * dh)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nx, "_GROUP", group)
            assert same_sums(p.by_row.product(weights, x),
                             scatter_sum(terms(p.indices), p.row_of, n))
            assert same_sums(p.by_column.product(weights, x, n + 1),
                             scatter_sum(terms(p.row_of), p.indices, n + 1))
            assert p.row_sums(weights).tobytes() == \
                scatter_sum(weights, p.row_of, n).tobytes()


def out_of_place_adam_step(store: ParamStore, state: AdamState, grad: np.ndarray,
                           lr: float, betas=(0.9, 0.999), eps=1e-8) -> None:
    """Reference for ``adam_step``: the expression it used before it
    updated the moments in place."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    m = state.m = b1 * state.m + (1 - b1) * grad
    v = state.v = b2 * state.v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    store.vector[...] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# zeros, subnormals, ordinary and huge finite values
_ADAM_VALUES = st.one_of(
    st.just(0.0), st.just(-0.0), st.just(5e-324),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _adam_cases(draw):
    n = draw(st.integers(1, 6))
    vector = st.lists(_ADAM_VALUES, min_size=n, max_size=n).map(np.array)
    init = draw(vector)
    grads = draw(st.lists(vector, min_size=1, max_size=5))
    lr = draw(st.sampled_from([0.0, 1e-3, 0.005, 1.0]))
    return init, grads, lr


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        store = ParamStore.pack({"p": np.array([1.0, -2.0])})
        p = store["p"]
        state = AdamState.for_params(store)
        adam_step(store, state, store.take_grads(), lr=0.01)
        np.testing.assert_allclose(p.data, [1.0, -2.0])

    def test_first_step_matches_closed_form(self):
        # m_hat = g, v_hat = g^2 => step = lr * g / (|g| + eps)
        store = ParamStore.pack({"p": np.array([0.7])})
        p = store["p"]
        state = AdamState.for_params(store)
        p.grad = np.array([1.0])
        lr, eps = 0.005, 1e-8
        expected = 0.7 - lr * 1.0 / (1.0 + eps)
        adam_step(store, state, store.take_grads(), lr=lr, eps=eps)
        np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)
        assert abs(0.7 - p.data[0] - lr) < 1e-8
        assert p.grad is None  # cleared after the step

    def test_zero_lr_is_identity(self):
        store = ParamStore.pack({"p": np.array([3.0])})
        p = store["p"]
        state = AdamState.for_params(store)
        p.grad = np.array([123.0])
        adam_step(store, state, store.take_grads(), lr=0.0)
        np.testing.assert_allclose(p.data, [3.0])

    def test_nan_gradient_raises_with_name(self):
        store = ParamStore.pack({"bad.weight": np.array([1.0])})
        p = store["bad.weight"]
        state = AdamState.for_params(store)
        p.grad = np.array([np.nan])
        with pytest.raises(GradientError, match="bad.weight"):
            adam_step(store, state, store.take_grads(), lr=0.01)

    def test_flat_step_matches_per_tensor_reference_bit_for_bit(self):
        # the per-tensor Adam this optimizer replaced, one dict entry per
        # parameter; "d" never receives a gradient
        shapes = {"a": (), "b": (3,), "c": (2, 3), "d": (2,)}
        rng = np.random.default_rng(21)
        init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        store = ParamStore.pack(init)
        tensors = {name: store[name] for name in init}
        state = AdamState.for_params(store)
        ref = {name: np.array(value) for name, value in init.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        lr, (b1, b2), eps = 0.01, (0.9, 0.999), 1e-8
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()
                     if name != "d"}
            for name, g in grads.items():
                tensors[name].grad = g.copy()
            adam_step(store, state, store.take_grads(), lr=lr)
            for name in shapes:
                g = grads.get(name, np.zeros(shapes[name]))
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                m_hat = m[name] / (1 - b1 ** t)
                v_hat = v[name] / (1 - b2 ** t)
                ref[name] = ref[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for name in shapes:
                assert tensors[name].data.shape == shapes[name]
                assert tensors[name].data.tobytes() == ref[name].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(case=_adam_cases())
    def test_in_place_moments_match_the_old_expression_bit_for_bit(self, case):
        init, grads, lr = case
        store, ref_store = ParamStore.pack({"p": init}), ParamStore.pack({"p": init})
        state, ref = AdamState.for_params(store), AdamState.for_params(ref_store)
        m, v = state.m, state.v
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for grad in grads:
                adam_step(store, state, grad.copy(), lr)
                out_of_place_adam_step(ref_store, ref, grad.copy(), lr)
        assert state.m is m and state.v is v
        assert state.step == ref.step == len(grads)
        for got, want in ((store.vector, ref_store.vector), (m, ref.m), (v, ref.v)):
            assert got.tobytes() == want.tobytes()


class TestParamStoreVector:
    @staticmethod
    def _store():
        rng = np.random.default_rng(8)
        store = ParamStore.pack({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2),
                                 "s": np.asarray(0.5)})
        return store, {name: store[name] for name in ("w", "b", "s")}

    @staticmethod
    def _all_views(store):
        return all(np.shares_memory(store[name].data, store.vector)
                   for name, _ in store.layout())

    def test_vector_is_sorted_name_concatenation(self):
        store, tensors = self._store()
        expected = np.concatenate([tensors[n].data.reshape(-1) for n in ("b", "s", "w")])
        assert store.vector.tobytes() == expected.tobytes()
        assert [name for name, _ in store.layout()] == ["b", "s", "w"]
        assert self._all_views(store)

    def test_rejected_load_leaves_store_untouched(self):
        store = ParamStore.pack({"a": np.ones(2), "b": np.zeros(1)})
        a = store["a"]
        for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError):
                store.load(bad)
            np.testing.assert_array_equal(a.data, [1.0, 1.0])
        np.testing.assert_array_equal(store.vector, [1.0, 1.0, 0.0])

    def test_load_snapshot_round_trip(self):
        store, _ = self._store()
        saved = store.snapshot()
        store.load(np.zeros_like(saved))
        assert not store.vector.any()
        store.load(saved)
        assert store.vector.tobytes() == saved.tobytes()
        assert not np.shares_memory(saved, store.vector)

    def test_parameters_stay_live_views(self):
        store, tensors = self._store()
        spans = dict(store.layout())

        def check_live():
            assert self._all_views(store)
            for name, t in tensors.items():
                assert t is store[name]
                assert t.data.tobytes() == store.vector[spans[name]].tobytes()

        store.load(store.vector + 1.0)
        check_live()
        np.testing.assert_array_equal(tensors["s"].data, 1.5)

        before = store.snapshot()
        tensors["w"].grad = np.ones((3, 2))
        adam_step(store, AdamState.for_params(store), store.take_grads(), lr=0.1)
        check_live()
        assert not np.array_equal(tensors["w"].data.reshape(-1), before[spans["w"]])
        assert tensors["b"].data.tobytes() == before[spans["b"]].tobytes()

        probed = []
        at_check = store.snapshot()

        def f(s):
            probed.append(self._all_views(store) and float(s["s"].data))
            return nx.total_sum(nx.mul(s["w"], s["b"]))

        grad_check(f, store, h=1e-5)
        check_live()
        assert all(probed) and len(set(probed)) == 3  # base point, +h, -h
        assert store.vector.tobytes() == at_check.tobytes()

    def test_over_lays_the_layout_over_another_vector(self):
        store, tensors = self._store()
        other = np.arange(store.vector.size, dtype=np.float64)
        laid = store.over(other)
        assert laid.vector is other and self._all_views(laid)
        assert laid.layout() == store.layout()
        tensors["w"].grad = np.ones((3, 2))
        assert laid["w"].grad is None  # fresh slots
        laid.load(store.vector)
        for name, t in tensors.items():
            assert laid[name].data.tobytes() == t.data.tobytes()
        for bad in (np.zeros(other.size + 1), np.zeros(other.size, dtype=np.float32)):
            with pytest.raises(ValueError):
                store.over(bad)

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))])
    def test_a_copy_loads_into_its_own_parameters(self, clone):
        store, _ = self._store()
        saved = store.snapshot()
        twin = clone(store)
        assert self._all_views(twin)
        assert not np.shares_memory(twin.vector, store.vector)
        twin.load(saved + 1.0)
        for name, span in twin.layout():
            assert twin[name].data.reshape(-1).tobytes() == (saved[span] + 1.0).tobytes()
        assert store.vector.tobytes() == saved.tobytes()

    def test_clip_scales_in_place_to_the_bound(self):
        grad = np.array([3.0, 4.0])
        assert nx.clip_grad_norm(grad, 1.0) == 5.0
        np.testing.assert_allclose(grad, [0.6, 0.8], atol=1e-15)
        assert nx.clip_grad_norm(grad, 10.0) == pytest.approx(1.0)
        np.testing.assert_allclose(grad, [0.6, 0.8], atol=1e-15)


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = const(np.full((2, 5), 3.7))
        out = nx.layer_norm(x, const(np.ones(5)), const(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row_is_fixed_point(self):
        # population variance of [1, -1] is exactly 1
        out = nx.layer_norm(const(np.array([[1.0, -1.0]])), const(np.ones(2)),
                            const(np.zeros(2)))
        expected = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + 1e-8)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_output_mean_equals_bias(self):
        rng = np.random.default_rng(10)
        bias = rng.normal(size=6)
        out = nx.layer_norm(const(rng.normal(size=(9, 6))), const(np.ones(6)),
                            const(bias))
        np.testing.assert_allclose(out.data.mean(axis=1), bias.mean(), atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        store = ParamStore.pack({"x": rng.normal(size=(3, 6)), "g": rng.normal(size=6),
                                 "b": rng.normal(size=6)})
        probe = const(rng.normal(size=(3, 6)))

        def f(s):
            return nx.total_sum(nx.mul(nx.layer_norm(s["x"], s["g"], s["b"]), probe))

        assert grad_check(f, store, h=1e-5).max_rel_err < 1e-6


class TestGradCheckHarness:
    def test_simple_square(self):
        store = ParamStore.pack({"x": np.array([3.0])})

        def f(s):
            return nx.total_sum(nx.mul(s["x"], s["x"]))

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-8

    @pytest.mark.parametrize("entries", [0, -1])
    def test_rejects_probing_no_entry(self, entries):
        store = ParamStore.pack({"x": np.array([3.0])})
        with pytest.raises(ValueError, match="^max_entries_per_param must be at least 1"):
            grad_check(lambda s: nx.total_sum(s["x"]), store, max_entries_per_param=entries)

    def test_rejects_bad_step(self):
        store = ParamStore.pack({"x": np.array([1.0])})
        with pytest.raises(ValueError):
            grad_check(lambda s: nx.total_sum(s["x"]), store, h=1e-2)

    def test_nonfinite_objective_raises(self):
        store = ParamStore.pack({"x": np.array([0.0])})

        def f(s):
            return nx.div(const(np.asarray(1.0)), nx.total_sum(nx.mul(s["x"], s["x"])))

        with pytest.raises(GradientError):
            grad_check(f, store, h=1e-5)


class TestMixedOps:
    def test_broadcasting_and_gather_gradients(self):
        rng = np.random.default_rng(12)
        store = ParamStore.pack({"w": rng.normal(size=(4, 3)), "col": rng.normal(size=(5, 1))})
        x = const(rng.normal(size=(5, 4)))
        idx = np.array([0, 2, 2, 4])

        def f(s):
            y = nx.mul(nx.matmul(x, s["w"]), s["col"])
            picked = nx.rows(y, idx)
            z = nx.concat([picked, nx.relu(picked)], axis=1)
            return nx.mean(nx.mul(z, z))

        assert grad_check(f, store, h=1e-5).max_rel_err < 1e-5

    def test_stop_gradient_blocks_flow(self):
        store = ParamStore.pack({"p": np.array([2.0])})
        p = store["p"]
        with Tape() as tape:
            loss = nx.total_sum(nx.mul(nx.stop_gradient(p), p))
            tape.backward(loss)
        np.testing.assert_allclose(p.grad, [2.0])  # only the live branch

    def test_cosine_of_zero_vector_is_zero(self):
        a = const(np.zeros((1, 4)))
        b = const(np.ones((1, 4)))
        assert nx.cosine_rows(a, b).data[0, 0] == 0.0

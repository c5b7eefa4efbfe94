"""Tensor engine: gradients, attention masking, conv, optimizer, layer norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmmg import numerics as nx
from fedmmg.numerics import (MASK_NEG, AdamState, AttentionParams,
                             EmptyAttentionError, GradientError, ParamStore,
                             Tape, adam_step, const, grad_check,
                             multi_head_attention, neighbor_mean_matrix,
                             sage_conv)


def identity_attention(d: int) -> AttentionParams:
    eye = np.eye(d)
    return AttentionParams(wq=const(eye), wk=const(eye), wv=const(eye), wo=const(eye))


def random_attention(store: ParamStore, rng, dq, dk, dv, da) -> AttentionParams:
    return AttentionParams(
        wq=store.add("wq", rng.normal(size=(dq, da)) * 0.3),
        wk=store.add("wk", rng.normal(size=(dk, da)) * 0.3),
        wv=store.add("wv", rng.normal(size=(dv, da)) * 0.3),
        wo=store.add("wo", rng.normal(size=(da, dv)) * 0.3),
    )


class TestAttention:
    def test_single_token_returns_value_row(self):
        d = 4
        rng = np.random.default_rng(0)
        v = rng.normal(size=(1, d))
        out, weights = multi_head_attention(const(rng.normal(size=(1, d))),
                                            const(rng.normal(size=(1, d))),
                                            const(v), np.zeros(1), heads=2,
                                            params=identity_attention(d))
        np.testing.assert_allclose(out.data, v, atol=1e-12)
        np.testing.assert_allclose(weights, 1.0)

    def test_identical_rows_split_weight_evenly(self):
        d = 4
        rng = np.random.default_rng(1)
        row = rng.normal(size=(1, d))
        bank = const(np.vstack([row, row]))
        out, weights = multi_head_attention(const(rng.normal(size=(1, d))), bank,
                                            bank, np.zeros(2), heads=2,
                                            params=identity_attention(d))
        np.testing.assert_allclose(weights, 0.5, atol=1e-12)

    def test_masked_token_weight_is_exactly_zero(self):
        d = 4
        rng = np.random.default_rng(2)
        bank = const(rng.normal(size=(2, d)))
        mask = np.array([0.0, MASK_NEG])
        _, weights = multi_head_attention(const(rng.normal(size=(1, d))), bank,
                                          bank, mask, heads=2,
                                          params=identity_attention(d))
        assert (weights[:, 1] == 0.0).all()
        np.testing.assert_allclose(weights[:, 0], 1.0)

    def test_all_masked_bank_raises(self):
        d = 4
        bank = const(np.ones((3, d)))
        with pytest.raises(EmptyAttentionError):
            multi_head_attention(const(np.ones((1, d))), bank, bank,
                                 np.full(3, MASK_NEG), heads=2,
                                 params=identity_attention(d))

    def test_output_in_convex_hull_of_values(self):
        # identity projections: per-head output is a convex combination of rows
        d = 4
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, d))
        out, weights = multi_head_attention(const(rng.normal(size=(1, d))),
                                            const(rng.normal(size=(5, d))),
                                            const(values), np.zeros(5), heads=1,
                                            params=identity_attention(d))
        assert (out.data >= values.min(axis=0) - 1e-12).all()
        assert (out.data <= values.max(axis=0) + 1e-12).all()
        np.testing.assert_allclose(weights.sum(), 1.0, atol=1e-12)

    def test_attention_gradients(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        params = random_attention(store, rng, 6, 6, 6, 8)
        query = const(rng.normal(size=(1, 6)))
        bank = const(rng.normal(size=(4, 6)))
        mask = np.array([0.0, 0.0, MASK_NEG, 0.0])

        def f(s):
            out, _ = multi_head_attention(query, bank, bank, mask, 2, params)
            return nx.total_sum(nx.mul(out, out))

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-6


def gathered_attention(query, keys, values, token_index, mask, heads, params):
    """Gather-then-project reference in plain numpy: every bank slot's
    memory row is gathered first and projected on its own."""
    g_count, s_count = token_index.shape
    q = query @ params.wq.data
    k = keys[token_index] @ params.wk.data            # [G, S, d_attn]
    v = values[token_index] @ params.wv.data
    dh = q.shape[1] // heads
    ctx = np.zeros_like(q)
    weights = np.zeros((g_count, heads, s_count))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        logits = np.einsum("gd,gsd->gs", q[:, cols], k[:, :, cols]) / np.sqrt(dh) + mask
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights[:, h] = e / e.sum(axis=1, keepdims=True)
        ctx[:, cols] = np.einsum("gs,gsd->gd", weights[:, h], v[:, :, cols])
    return ctx @ params.wo.data, weights


def shared_memory_banks(rng, t_count, g_count, s_count):
    """Banks over T memory rows plus a zero padding row at index T: slots
    repeat tokens, and every bank has at least one usable slot."""
    index = rng.integers(0, t_count, size=(g_count, s_count))
    index[:, 0] = rng.integers(0, 2, size=g_count)     # repeats across banks
    pad = rng.random((g_count, s_count)) < 0.4
    pad[:, 0] = False
    index[pad] = t_count
    return index, np.where(pad, MASK_NEG, 0.0)


class TestSharedMemoryAttention:
    def test_matches_gather_then_project(self):
        rng = np.random.default_rng(11)
        store = ParamStore()
        params = random_attention(store, rng, 5, 6, 6, 8)
        memory = np.vstack([rng.normal(size=(7, 6)), np.zeros((1, 6))])
        index, mask = shared_memory_banks(rng, 7, 9, 5)
        query = rng.normal(size=(9, 5))
        out, weights = nx.attention_batched(const(query), const(memory),
                                            const(memory), index, mask, 2, params)
        ref_out, ref_weights = gathered_attention(query, memory, memory, index,
                                                  mask, 2, params)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-12)
        assert (weights[np.broadcast_to(mask[:, None, :] < 0, weights.shape)] == 0.0).all()

    def test_gradients_of_projections_and_memory_rows(self):
        rng = np.random.default_rng(12)
        store = ParamStore()
        params = random_attention(store, rng, 5, 6, 6, 8)
        memory = store.add("memory", rng.normal(size=(7, 6)))
        pad_row = const(np.zeros((1, 6)))
        index, mask = shared_memory_banks(rng, 7, 9, 5)
        query = const(rng.normal(size=(9, 5)))
        probe = const(rng.normal(size=(9, 6)))

        def f(s):
            stacked = nx.concat([s["memory"], pad_row], axis=0)
            out, _ = nx.attention_batched(query, stacked, stacked, index, mask, 2,
                                          params)
            return nx.total_sum(nx.mul(out, probe))

        report = grad_check(f, store, h=1e-5)
        assert set(report.per_param) == {"wq", "wk", "wv", "wo", "memory"}
        assert report.max_rel_err < 1e-6

    def test_scatter_cache_keeps_gradients_bit_for_bit(self):
        # the key and value gathers share one scatter index per width, built
        # at the first backward and reused by the next one
        rng = np.random.default_rng(13)
        store = ParamStore()
        params = random_attention(store, rng, 5, 6, 6, 8)
        memory = store.add("memory", rng.normal(size=(7, 6)))
        pad_row = const(np.zeros((1, 6)))
        index, mask = shared_memory_banks(rng, 7, 9, 5)
        query = const(rng.normal(size=(9, 5)))

        def grads(cache):
            with Tape() as tape:
                stacked = nx.concat([memory, pad_row], axis=0)
                out, _ = nx.attention_batched(query, stacked, stacked, index,
                                              mask, 2, params, cache)
                tape.backward(nx.total_sum(out))
            return store.take_grads()

        cache: dict = {}
        reference = grads(None)
        assert grads(cache).tobytes() == reference.tobytes()
        assert list(cache) == [8]
        cached = cache[8]
        assert grads(cache).tobytes() == reference.tobytes()
        assert cache[8] is cached


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
        store = ParamStore()
        store.add("w", rng.normal(size=(5, 5)))
        x = const(rng.normal(size=(3, 5)))
        probe = const(rng.normal(size=(3, 5)))

        def f(s):
            return nx.total_sum(nx.mul(nx.softmax(nx.matmul(x, s["w"])), probe))

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-5


class TestSageConv:
    def test_identity_self_weights(self):
        x = np.random.default_rng(7).normal(size=(4, 3))
        mat = neighbor_mean_matrix(4, [(0, 1), (1, 2)])
        out = sage_conv(const(x), mat, const(np.eye(3)), const(np.zeros((3, 3))))
        np.testing.assert_allclose(out.data, x)

    def test_neighbor_mean(self):
        x = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
        mat = neighbor_mean_matrix(3, [(2, 0), (2, 1)])
        out = sage_conv(const(x), mat, const(np.zeros((2, 2))), const(np.eye(2)))
        np.testing.assert_allclose(out.data[2], [2.0, 0.0])

    def test_isolated_node_gets_zero_neighbor_term(self):
        x = np.random.default_rng(8).normal(size=(3, 2))
        mat = neighbor_mean_matrix(3, [(0, 1)])
        out = sage_conv(const(x), mat, const(np.zeros((2, 2))), const(np.eye(2)))
        np.testing.assert_allclose(out.data[2], 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        n, d = 6, 3
        x = rng.normal(size=(n, d))
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)]
        w_self, w_neigh = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        out = sage_conv(const(x), neighbor_mean_matrix(n, edges),
                        const(w_self), const(w_neigh)).data

        perm = rng.permutation(n)
        p_edges = [(perm[u], perm[v]) for u, v in edges]
        p_out = sage_conv(const(x[np.argsort(perm)]),
                          neighbor_mean_matrix(n, p_edges),
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
        mat = neighbor_mean_matrix(n, edges)
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
        mat = neighbor_mean_matrix(n, edges)
        mat = mat.with_data(rng.normal(size=mat.data.shape))
        store = ParamStore()
        store.add("x", rng.normal(size=(n, 3)))
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


def varied_normal(rng, shape):
    """Normal draws spread over many magnitudes, so the order in which
    they are added shows in the rounding."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)


class TestScatterKernel:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), picks=st.lists(st.integers(0, 7), max_size=40),
           width=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_scatter_sum_is_a_sequential_loop(self, n, picks, width, seed):
        rng = np.random.default_rng(seed)
        targets = np.array([p % n for p in picks], dtype=np.intp)
        values = varied_normal(rng, (targets.size, width))
        expected = np.zeros((n, width))
        for k, t in enumerate(targets):
            for j in range(width):
                expected[t, j] = float(expected[t, j]) + float(values[k, j])
        got = nx.scatter_sum(values, nx.scatter_index(targets, width), n)
        assert got.shape == (n, width) and got.tobytes() == expected.tobytes()
        flat = nx.scatter_sum(values[:, 0].copy(), targets, n)
        assert flat.tobytes() == expected[:, 0].copy().tobytes()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 8), picks=st.lists(st.integers(0, 7), max_size=24),
           two_d=st.booleans(), trailing=st.sampled_from([(), (3,), (2, 3)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_backward_is_add_at(self, n, picks, two_d, trailing, seed):
        rng = np.random.default_rng(seed)
        idx = np.array([p % n for p in picks], dtype=np.intp)
        if two_d and idx.size % 2 == 0:
            idx = idx.reshape(2, -1)
        a = nx.Tensor(rng.normal(size=(n,) + trailing), requires_grad=True)
        g = varied_normal(rng, idx.shape + trailing)
        with Tape() as tape:
            tape.backward(nx.total_sum(nx.mul(nx.rows(a, idx), const(g))))
        expected = np.zeros((n,) + trailing)
        np.add.at(expected, idx, g)
        assert a.grad.shape == expected.shape
        assert a.grad.tobytes() == expected.tobytes()


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        store = ParamStore()
        p = store.add("p", np.array([1.0, -2.0]))
        state = AdamState.for_params(store)
        adam_step(store, state, store.take_grads(), lr=0.01)
        np.testing.assert_allclose(p.data, [1.0, -2.0])

    def test_first_step_matches_closed_form(self):
        # m_hat = g, v_hat = g^2 => step = lr * g / (|g| + eps)
        store = ParamStore()
        p = store.add("p", np.array([0.7]))
        state = AdamState.for_params(store)
        p.grad = np.array([1.0])
        lr, eps = 0.005, 1e-8
        expected = 0.7 - lr * 1.0 / (1.0 + eps)
        adam_step(store, state, store.take_grads(), lr=lr, eps=eps)
        np.testing.assert_allclose(p.data, [expected], rtol=0, atol=1e-15)
        assert abs(0.7 - p.data[0] - lr) < 1e-8
        assert p.grad is None  # cleared after the step

    def test_zero_lr_is_identity(self):
        store = ParamStore()
        p = store.add("p", np.array([3.0]))
        state = AdamState.for_params(store)
        p.grad = np.array([123.0])
        adam_step(store, state, store.take_grads(), lr=0.0)
        np.testing.assert_allclose(p.data, [3.0])

    def test_nan_gradient_raises_with_name(self):
        store = ParamStore()
        p = store.add("bad.weight", np.array([1.0]))
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
        store = ParamStore()
        tensors = {name: store.add(name, value) for name, value in init.items()}
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


class TestParamStoreVector:
    @staticmethod
    def _store():
        rng = np.random.default_rng(8)
        store = ParamStore()
        w = store.add("w", rng.normal(size=(3, 2)))
        b = store.add("b", rng.normal(size=2))
        s = store.add("s", np.asarray(0.5))
        return store, {"w": w, "b": b, "s": s}

    @staticmethod
    def _all_views(store):
        return all(np.shares_memory(store[name].data, store.vector)
                   for name in store.names())

    def test_vector_is_sorted_name_concatenation(self):
        store, tensors = self._store()
        expected = np.concatenate([tensors[n].data.reshape(-1) for n in ("b", "s", "w")])
        assert store.vector.tobytes() == expected.tobytes()
        assert [name for name, _ in store.layout()] == ["b", "s", "w"]
        assert self._all_views(store)

    def test_rejected_load_leaves_store_untouched(self):
        store = ParamStore()
        a = store.add("a", np.ones(2))
        store.add("b", np.zeros(1))
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

    def test_add_after_packing_is_rejected(self):
        store, _ = self._store()
        store.vector
        with pytest.raises(ValueError, match="late"):
            store.add("late", np.zeros(1))

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
        store = ParamStore()
        store.add("x", rng.normal(size=(3, 6)))
        store.add("g", rng.normal(size=6))
        store.add("b", rng.normal(size=6))
        probe = const(rng.normal(size=(3, 6)))

        def f(s):
            return nx.total_sum(nx.mul(nx.layer_norm(s["x"], s["g"], s["b"]), probe))

        assert grad_check(f, store, h=1e-5).max_rel_err < 1e-6


class TestGradCheckHarness:
    def test_simple_square(self):
        store = ParamStore()
        store.add("x", np.array([3.0]))

        def f(s):
            return nx.total_sum(nx.mul(s["x"], s["x"]))

        report = grad_check(f, store, h=1e-5)
        assert report.max_rel_err < 1e-8

    def test_rejects_bad_step(self):
        store = ParamStore()
        store.add("x", np.array([1.0]))
        with pytest.raises(ValueError):
            grad_check(lambda s: nx.total_sum(s["x"]), store, h=1e-2)

    def test_nonfinite_objective_raises(self):
        store = ParamStore()
        store.add("x", np.array([0.0]))

        def f(s):
            return nx.div(const(np.asarray(1.0)), nx.total_sum(nx.mul(s["x"], s["x"])))

        with pytest.raises(GradientError):
            grad_check(f, store, h=1e-5)


class TestMixedOps:
    def test_broadcasting_and_gather_gradients(self):
        rng = np.random.default_rng(12)
        store = ParamStore()
        store.add("w", rng.normal(size=(4, 3)))
        store.add("col", rng.normal(size=(5, 1)))
        x = const(rng.normal(size=(5, 4)))
        idx = np.array([0, 2, 2, 4])

        def f(s):
            y = nx.mul(nx.matmul(x, s["w"]), s["col"])
            picked = nx.rows(y, idx)
            z = nx.concat([picked, nx.relu(picked)], axis=1)
            return nx.mean(nx.mul(z, z))

        assert grad_check(f, store, h=1e-5).max_rel_err < 1e-5

    def test_stop_gradient_blocks_flow(self):
        store = ParamStore()
        p = store.add("p", np.array([2.0]))
        with Tape() as tape:
            loss = nx.total_sum(nx.mul(nx.stop_gradient(p), p))
            tape.backward(loss)
        np.testing.assert_allclose(p.grad, [2.0])  # only the live branch

    def test_cosine_of_zero_vector_is_zero(self):
        a = const(np.zeros((1, 4)))
        b = const(np.ones((1, 4)))
        assert nx.cosine_rows(a, b).data[0, 0] == 0.0

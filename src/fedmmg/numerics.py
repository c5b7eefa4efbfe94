"""Dense float64 tensors with tape-based reverse-mode gradients.

The operator set is deliberately small: matrix products, elementwise
arithmetic, the usual activations, masked/temperature softmax, layer
normalization, row gathers, concatenation, products with a constant sparse
(CSR) matrix, and a mean-aggregating graph convolution. Operations record
onto the innermost open tape. Values are never mutated in place, except
a ``ParamStore``'s parameters (views into its flat vector), which only
``ParamStore.load``, ``adam_step`` and ``grad_check`` probes write, never
while a tape is open.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

# Additive attention-mask sentinel. After row-max subtraction, exp() of the
# sentinel underflows to exactly 0.0, so masked weights are exact zeros.
MASK_NEG = -1e30

_LN_EPS = 1e-8


class EmptyAttentionError(ValueError):
    """Every token of an attention bank is masked out."""


class GradientError(RuntimeError):
    """Non-finite value encountered during differentiation."""


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

_TAPES: list = []  # open tapes, innermost last


def _active_tape():
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Records backward closures in execution order."""

    def __init__(self):
        self._records: list = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def record(self, out: "Tensor", backward) -> None:
        self._records.append((out, backward))

    def backward(self, loss: "Tensor") -> None:
        """Propagate d(loss)/d(input) into every reachable .grad slot."""
        if loss.data.size != 1:
            raise ValueError("backward expects a scalar loss")
        if not np.isfinite(loss.data).all():
            raise GradientError("loss is not finite")
        loss.grad = np.ones_like(loss.data)
        for out, fn in reversed(self._records):
            g = out.grad
            if g is not None:
                fn(g)

    def __len__(self) -> int:
        return len(self._records)


class Tensor:
    """Row-major float64 array plus an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient slot. The first gradient is stored as
        it is and later ones are added out of place, so a stored array that
        aliases another tensor's gradient is never mutated."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def const(data) -> Tensor:
    """Wrap an array as a non-differentiable tensor."""
    return Tensor(data, requires_grad=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _result(data: np.ndarray, parents: tuple, backward) -> Tensor:
    tape = _active_tape()
    needs = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _result(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.data.shape))

    return _result(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(-g)

    return _result(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    ad, bd = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * bd, ad.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * ad, bd.shape))

    return _result(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    ad, bd = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / bd, ad.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * ad / (bd * bd), bd.shape))

    return _result(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * c)

    return _result(a.data * c, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must be >= 2-D (leading axes broadcast)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _result(data, (a, b), backward)


class KinkWatch:
    """Tracks how close any relu input comes to its kink during a forward.

    Finite-difference gradient checks are only trustworthy when no hidden
    unit sits within the probe step of zero; callers reseed when the
    recorded margin is too small.
    """

    active: "KinkWatch | None" = None

    def __init__(self):
        self.margin = np.inf

    def __enter__(self) -> "KinkWatch":
        KinkWatch.active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        KinkWatch.active = None


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    watch = KinkWatch.active
    if watch is not None and a.data.size:
        watch.margin = min(watch.margin, float(np.abs(a.data).min()))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * mask)

    return _result(a.data * mask, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid_np(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * data * (1.0 - data))

    return _result(data, (a,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * data)

    return _result(data, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * 0.5 / data)

    return _result(data, (a,), backward)


def softplus(a: Tensor) -> Tensor:
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * _sigmoid_np(x))

    return _result(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Temperature softmax with row-max subtraction.

    Entries at or below the MASK_NEG sentinel come out as exact zeros
    whenever the row contains at least one unmasked entry.
    """
    if temperature <= 0:
        raise ValueError("softmax temperature must be positive")
    x = a.data / temperature
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * data).sum(axis=axis, keepdims=True)
            a.accumulate(data * (g - dot) / temperature)

    return _result(data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    data = x - lse

    def backward(g):
        if a.requires_grad:
            a.accumulate(g - np.exp(data) * g.sum(axis=axis, keepdims=True))

    return _result(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine."""
    x = a.data
    if x.shape[-1] < 2:
        raise ValueError("layer_norm needs a last axis of extent >= 2")
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    data = gain.data * y + bias.data

    def backward(g):
        dy = g * gain.data
        if a.requires_grad:
            m1 = dy.mean(axis=-1, keepdims=True)
            m2 = (dy * y).mean(axis=-1, keepdims=True)
            a.accumulate(inv * (dy - m1 - y * m2))
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * y, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))

    return _result(data, (a, gain, bias), backward)


def total_sum(a: Tensor) -> Tensor:
    shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, shape).copy())

    return _result(np.asarray(a.data.sum()), (a,), backward)


def mean(a: Tensor) -> Tensor:
    return scale(total_sum(a), 1.0 / a.data.size)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            gg = g if keepdims else np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(gg, shape).copy())

    return _result(data, (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                t.accumulate(g[tuple(index)])
            offset += size

    return _result(data, tuple(tensors), backward)


def rows(a: Tensor, index, scatter_cache: dict | None = None) -> Tensor:
    """Gather rows along axis 0 (``index`` of any shape). Backward
    scatter-adds, in index order (deterministic). ``scatter_cache``, when
    given, keeps the backward's ``scatter_index`` of ``index`` per row width,
    for callers that gather by the same index again."""
    idx = np.asarray(index, dtype=np.intp)
    data = a.data[idx]
    shape = a.data.shape

    def backward(g):
        if a.requires_grad:
            width = math.prod(shape[1:])
            cache = {} if scatter_cache is None else scatter_cache
            flat = cache.get(width)
            if flat is None:
                flat = cache[width] = scatter_index(idx.reshape(-1), width)
            a.accumulate(scatter_sum(g.reshape(idx.size, width), flat,
                                     shape[0]).reshape(shape))

    return _result(data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(orig))

    return _result(a.data.reshape(shape), (a,), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate(np.swapaxes(g, ax1, ax2))

    return _result(np.swapaxes(a.data, ax1, ax2), (a,), backward)


def stop_gradient(a: Tensor) -> Tensor:
    """Detach a value from the tape; gradient does not flow past it."""
    return Tensor(a.data, requires_grad=False)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


def cosine_rows(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise cosine similarity with an epsilon-guarded denominator.

    Zero-norm rows get similarity 0 rather than a division error.
    """
    dots = sum_axis(mul(a, b), -1, keepdims=True)
    na = sqrt(add(sum_axis(mul(a, a), -1, keepdims=True), const(1e-24)))
    nb = sqrt(add(sum_axis(mul(b, b), -1, keepdims=True), const(1e-24)))
    return div(dots, add(mul(na, nb), const(eps)))


# ---------------------------------------------------------------------------
# Graph convolution and attention
# ---------------------------------------------------------------------------


def scatter_index(targets: np.ndarray, width: int) -> np.ndarray:
    """Flat index that scatters a [K, width] array onto rows ``targets``:
    entry (k, j) goes to targets[k] * width + j."""
    return (targets[:, None] * width + np.arange(width)).reshape(-1)


def scatter_sum(values: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """out[t] = sum of values[k] over targets[k] == t, added in k order.

    ``values`` is [K] or [K, w] and ``flat`` its ``scatter_index`` (for [K]
    values, the targets themselves); rows no target names are zero. One
    ``np.bincount``, so the sums are those of a sequential loop."""
    shape = (n,) + values.shape[1:]
    return np.bincount(flat, weights=values.reshape(-1),
                       minlength=math.prod(shape)).reshape(shape)


@dataclass(frozen=True, eq=False)
class _CSRPattern:
    """Sparsity pattern of a square matrix.

    Entry k sits at (row_of[k], indices[k]); rows are contiguous and their
    columns ascend. ``scatter_indices`` caches, per target array and row
    width, the flat index that ``scatter_sum`` takes."""

    n: int
    indptr: np.ndarray
    row_of: np.ndarray
    indices: np.ndarray
    scatter_indices: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_sorted(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "_CSRPattern":
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, row_of=rows, indices=cols)

    def scatter(self, values: np.ndarray, onto_columns: bool) -> np.ndarray:
        """Sum the entry rows ``values`` [nnz, w] onto each entry's row, or
        with ``onto_columns`` onto each entry's column: [n, w]."""
        key = (onto_columns, values.shape[1])
        flat = self.scatter_indices.get(key)
        if flat is None:
            targets = self.indices if onto_columns else self.row_of
            flat = self.scatter_indices[key] = scatter_index(targets, values.shape[1])
        return scatter_sum(values, flat, self.n)


class CSRMatrix:
    """Constant n x n sparse matrix in compressed-row form.

    Row i holds the entries indptr[i]:indptr[i+1] at columns indices[...],
    ascending, with values data[...]. An empty row multiplies to a zero row.
    ``with_data`` puts new values on the same pattern. Products with S and
    S^T are both scatter-sums over the entries (onto rows or onto columns),
    so no transposed copy is kept."""

    __slots__ = ("pattern", "data")

    def __init__(self, pattern: _CSRPattern, data: np.ndarray):
        if data.shape != pattern.indices.shape:
            raise ValueError("CSR values and pattern sizes disagree")
        self.pattern = pattern
        self.data = data

    @property
    def indptr(self) -> np.ndarray:
        return self.pattern.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.pattern.indices

    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        return CSRMatrix(self.pattern, np.asarray(data, dtype=np.float64))

    def row_sums(self) -> np.ndarray:
        p = self.pattern
        return scatter_sum(self.data, p.row_of, p.n)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """S x for x [n, d]: row i sums data_k x[indices_k] over row i's entries."""
        return self.pattern.scatter(self.data[:, None] * x[self.pattern.indices],
                                    onto_columns=False)

    def tdot(self, g: np.ndarray) -> np.ndarray:
        """S^T g for g [n, d]: column j sums data_k g[row_of_k] over its entries."""
        return self.pattern.scatter(self.data[:, None] * g[self.pattern.row_of],
                                    onto_columns=True)


def neighbor_mean_matrix(n: int, edges) -> CSRMatrix:
    """Row-normalized undirected adjacency: row i averages the neighbors of i.

    Repeated edges count once; isolated nodes get an empty row."""
    pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    keys = np.unique(np.concatenate([pairs[:, 0] * n + pairs[:, 1],
                                     pairs[:, 1] * n + pairs[:, 0]]))
    rows, cols = keys // n, keys % n
    pattern = _CSRPattern.from_sorted(n, rows, cols)
    deg = np.diff(pattern.indptr)
    return CSRMatrix(pattern, 1.0 / deg[rows])


def spmm(s: CSRMatrix, x: Tensor) -> Tensor:
    """Product of a constant sparse matrix and a tensor; backward is S^T g."""
    def backward(g):
        if x.requires_grad:
            x.accumulate(s.tdot(g))

    return _result(s.dot(x.data), (x,), backward)


def sage_conv(x: Tensor, neigh_mat: CSRMatrix, w_self: Tensor, w_neigh: Tensor,
              bias: Tensor | None = None) -> Tensor:
    """Mean-aggregating graph convolution: W_self x_i + W_neigh mean_j x_j."""
    out = add(matmul(x, w_self), matmul(spmm(neigh_mat, x), w_neigh))
    if bias is not None:
        out = add(out, bias)
    return out


@dataclass
class AttentionParams:
    """Projection weights for multi-head attention (no biases)."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


def attention_batched(query: Tensor, keys: Tensor, values: Tensor,
                      token_index: np.ndarray, add_mask: np.ndarray, heads: int,
                      params: AttentionParams,
                      scatter_cache: dict | None = None) -> tuple[Tensor, np.ndarray]:
    """Batched masked multi-head attention over banks of shared memory rows.

    query [G, dq]; keys [T, dk] and values [T, dv] are the memories, which
    are projected once and then gathered: slot s of bank g attends to row
    token_index[g, s]. add_mask [G, S] holds 0 for usable slots and MASK_NEG
    for excluded ones. Both gathers share ``scatter_cache`` (see ``rows``).
    Returns the attended output [G, dout] and detached per-head weights
    [G, H, S].
    """
    g_count, s_count = add_mask.shape
    d_attn = params.wq.shape[1]
    if d_attn % heads:
        raise ValueError("attention width must be divisible by the head count")
    dh = d_attn // heads

    def split(t: Tensor) -> Tensor:
        # [G, S, d_attn] -> [G, H, S, dh]
        return swapaxes(reshape(t, (g_count, -1, heads, dh)), 1, 2)

    qh = split(reshape(matmul(query, params.wq), (g_count, 1, d_attn)))
    cache = {} if scatter_cache is None else scatter_cache
    kh = split(rows(matmul(keys, params.wk), token_index, cache))
    vh = split(rows(matmul(values, params.wv), token_index, cache))

    logits = scale(matmul(qh, swapaxes(kh, 2, 3)), 1.0 / np.sqrt(dh))
    logits = add(logits, const(add_mask.reshape(g_count, 1, 1, s_count)))
    weights = softmax(logits, axis=-1)
    ctx = matmul(weights, vh)                       # [G, H, 1, dh]
    ctx = reshape(swapaxes(ctx, 1, 2), (g_count, d_attn))
    out = matmul(ctx, params.wo)
    return out, weights.data.reshape(g_count, heads, s_count)


def multi_head_attention(query: Tensor, bank: Tensor, values: Tensor,
                         additive_mask: np.ndarray, heads: int,
                         params: AttentionParams) -> tuple[Tensor, np.ndarray]:
    """Single-query masked attention over a token bank.

    query [1, dq], bank [S, dk], values [S, dv], additive_mask [S] with
    entries 0 or MASK_NEG. Raises EmptyAttentionError when every token is
    masked; callers are expected to fall back to a structural branch.
    """
    mask = np.asarray(additive_mask, dtype=np.float64).reshape(-1)
    s_count = bank.shape[0]
    if s_count < 1 or mask.shape[0] != s_count:
        raise ValueError("bank and mask sizes disagree")
    if np.all(mask <= MASK_NEG / 2):
        raise EmptyAttentionError("every attention token is masked out")
    out, weights = attention_batched(query, bank, values,
                                     np.arange(s_count).reshape(1, -1),
                                     mask.reshape(1, -1), heads, params)
    return out, weights[0]


# ---------------------------------------------------------------------------
# Parameters and optimization
# ---------------------------------------------------------------------------


class ParamStore:
    """Named trainable tensors backed by one contiguous float64 vector.

    Parameters are added one at a time. The first use of ``vector`` packs
    them, in sorted-name order, into one buffer; from then on each tensor's
    ``data`` is a reshaped view into it (so the tensor ``add`` returned stays
    the live parameter) and no parameter can be added."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._vector: np.ndarray | None = None
        self._layout: list[tuple[str, slice]] = []

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if self._vector is not None:
            raise ValueError(f"cannot add parameter {name!r} to a packed store")
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    @property
    def vector(self) -> np.ndarray:
        """All parameter values, flattened and joined in sorted-name order."""
        if self._vector is None:
            ends = np.cumsum([0] + [p.data.size for _, p in self.items()]).tolist()
            self._layout = [(name, slice(a, b))
                            for name, a, b in zip(self.names(), ends, ends[1:])]
            self._vector = np.empty(ends[-1])
            for name, span in self._layout:
                p = self._params[name]
                self._vector[span] = p.data.reshape(-1)
                p.data = self._vector[span].reshape(p.data.shape)
        return self._vector

    def layout(self) -> list[tuple[str, slice]]:
        """Each parameter's name and its slice of ``vector``, in that order."""
        self.vector  # packs on first use
        return self._layout

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def take_grads(self) -> np.ndarray:
        """Gather the gradient slots into one vector (zeros where empty), clear them."""
        grad = np.zeros_like(self.vector)
        for name, span in self._layout:
            p = self._params[name]
            if p.grad is not None:
                grad[span] = p.grad.reshape(-1)
                p.grad = None
        return grad

    def snapshot(self) -> np.ndarray:
        return self.vector.copy()

    def load(self, values: np.ndarray) -> None:
        """Overwrite every parameter from a vector laid out like ``vector``;
        a vector of any other shape is rejected before anything is written."""
        if np.shape(values) != self.vector.shape:
            raise ValueError(f"cannot load a parameter vector of shape "
                             f"{np.shape(values)} into one of {self.vector.shape}")
        self.vector[...] = values


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale ``grad`` in place to norm at most ``max_norm``; return the old norm."""
    norm = float(np.sqrt((grad * grad).sum()))
    if norm > max_norm > 0:
        grad *= max_norm / norm
    return norm


@dataclass
class AdamState:
    """Moment vectors laid out like ``ParamStore.vector``, and the step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, store: ParamStore) -> "AdamState":
        return cls(np.zeros_like(store.vector), np.zeros_like(store.vector))


def adam_step(store: ParamStore, state: AdamState, grad: np.ndarray, lr: float,
              betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8) -> None:
    """Bias-corrected Adam update of the parameter vector from ``grad``
    (``ParamStore.take_grads``); a non-finite gradient raises before any write."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if not np.isfinite(grad).all():
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        name = next(n for n, span in store.layout() if span.start <= bad < span.stop)
        raise GradientError(f"non-finite gradient for parameter {name!r}")
    b1, b2 = betas
    state.step += 1
    t = state.step
    m = state.m = b1 * state.m + (1 - b1) * grad
    v = state.v = b2 * state.v + (1 - b2) * grad * grad
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    store.vector[...] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    per_param: dict[str, float]


def grad_check(fn, store: ParamStore, h: float = 1e-5,
               max_entries_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare tape gradients against central finite differences.

    ``fn(store) -> Tensor`` must be a deterministic scalar function of the
    parameters. Entries may be subsampled per parameter for speed.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError("step h must lie in [1e-6, 1e-3]")
    rng = rng or np.random.default_rng(0)

    store.zero_grads()
    with Tape() as tape:
        loss = fn(store)
        if not np.isfinite(loss.data).all():
            raise GradientError("objective is not finite at the check point")
        tape.backward(loss)
    analytic = store.take_grads()

    flat = store.vector
    per_param: dict[str, float] = {}
    for name, span in store.layout():
        n = span.stop - span.start
        if max_entries_per_param is not None and n > max_entries_per_param:
            picks = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            picks = np.arange(n)
        err = 0.0
        for j in span.start + picks:
            orig = flat[j]
            flat[j] = orig + h
            f_plus = float(fn(store).data)
            flat[j] = orig - h
            f_minus = float(fn(store).data)
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradientError(f"non-finite objective while probing {name!r}")
            numeric = (f_plus - f_minus) / (2 * h)
            a = analytic[j]
            rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-6)
            err = max(err, rel)
        per_param[name] = err
    return GradCheckReport(max_rel_err=max(per_param.values(), default=0.0),
                           per_param=per_param)


# ---------------------------------------------------------------------------
# Initialization helpers
# ---------------------------------------------------------------------------


def param_rng(seed: int, name: str) -> np.random.Generator:
    """Per-parameter stream so init is independent of creation order."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(name.encode())])


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))

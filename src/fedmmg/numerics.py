"""Dense float64 tensors with tape-based reverse-mode gradients.

The operator set is deliberately small: matrix products, elementwise
arithmetic, the usual activations, temperature softmax, layer
normalization, row gathers, concatenation, a linear layer over one input
or concatenated pieces, dot products of row pairs, products with a
constant sparse (CSR) matrix, a mean-aggregating graph convolution,
multi-head attention over the usable slots of padded banks of one
memory whose rows serve as both keys and values (``bank_attention``), and
generation's gated warm-up blend. Most operations record onto the
innermost open tape through one recorder, ``_record``: an op gives its
forward value and one vector-Jacobian product (vjp) per operand, and the
tape keeps the vjps of the operands that take a gradient. The linear
layer, the row-pair dots, attention and the blend, whose gradients share
terms, record one backward of their own through ``_result``. They keep
their inputs, not joined, gathered or projected copies, and make those
again in backward; attention also keeps its slot weights. A vjp captures
only the arrays its formula reads (never a ``Tensor``), so an intermediate
whose values no kept vjp reads is freed as soon as the caller drops it.
``Tape.backward`` runs once per tape and frees each op's saved arrays as
soon as that op's gradient has been passed on. Every sum onto rows runs
on one kernel, a jagged-diagonal schedule (``_Diagonals``), which adds
each row's terms to 0.0 in entry order and forms the summed rows a group
at a time. The schedules of CSR products and of attention's sums onto
banks and tokens are cached with the matrix pattern or the bank slots;
the backward of a row gather or of row-pair dots builds one for the call.
Values are never mutated in place, except a ``ParamStore``'s parameters
(views into the vector it is laid over), which only ``ParamStore.load``,
``adam_step`` and ``grad_check`` probes write, never while a tape is open.
Importing the module pins numpy's bundled OpenBLAS to one thread
(``BLAS_PINNED`` says whether it could), so outputs do not depend on the
BLAS thread count.
"""

from __future__ import annotations

import ctypes
import itertools
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Additive-mask entry of a bank grid's padding slot: ``BankSlots.of`` drops
# every slot whose entry is MASK_NEG, so attention gives it no weight.
MASK_NEG = -1e30

_LN_EPS = 1e-8


def _pin_blas_to_one_thread() -> bool:
    """Pin numpy's bundled OpenBLAS to one thread for the process, since a
    threaded product splits its sums by the thread count, and so would the
    output bytes. Returns whether the library has the call; without it,
    outputs repeat only at a fixed BLAS thread count."""
    try:
        from numpy._core import _multiarray_umath
        set_threads = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return False
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)
    return True


BLAS_PINNED = _pin_blas_to_one_thread()


class GradientError(RuntimeError):
    """Non-finite value encountered during differentiation."""


# ---------------------------------------------------------------------------
# Tape machinery
# ---------------------------------------------------------------------------

_TAPES: list = []  # open tapes, innermost last


def _active_tape():
    return _TAPES[-1] if _TAPES else None


class Tape:
    """Records backward closures in execution order.

    Each record is the output's gradient slot (``_Slot``) and the op's
    backward closure. The closure holds the slots of the operands that take
    a gradient and their vjps, which hold shapes and the arrays their
    formulas read, such as ``matmul``'s operands or ``relu``'s mask; an
    operand's values that only a const operand's vjp would read are not
    kept. Holding a record keeps no ``Tensor`` alive. ``backward`` runs
    once. It frees each record as soon as its closure has run, so the
    arrays an op saved are released as the pass goes instead of when the
    tape dies. ``len`` still counts every op recorded, and the ``.grad``
    slots of tensors the caller holds stay set.
    """

    def __init__(self):
        self._records: list = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def record(self, out: "Tensor", backward) -> None:
        self._records.append((out.slot, backward))

    def backward(self, loss: "Tensor") -> None:
        """Propagate d(loss)/d(input) into every reachable .grad slot."""
        if self._spent:
            raise ValueError("backward already ran on this tape; record a new one")
        if loss.data.size != 1:
            raise ValueError("backward expects a scalar loss")
        if not np.isfinite(loss.data).all():
            raise GradientError("loss is not finite")
        self._spent = True
        if loss.slot is None:
            return  # no recorded op leads to the loss
        loss.slot.grad = np.ones_like(loss.data)
        records = self._records
        for k in range(len(records) - 1, -1, -1):
            slot, fn = records[k]
            records[k] = None
            g = slot.grad
            if g is not None:
                fn(g)

    def __len__(self) -> int:
        return len(self._records)


class _Slot:
    """A tensor's gradient slot, apart from its values: tapes and backward
    closures hold slots, so holding one keeps no array of values alive."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None

    def accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` to the gradient. The first gradient is stored as it is
        and later ones are added out of place, so a stored array that
        aliases another tensor's gradient is never mutated."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g


class Tensor:
    """Row-major float64 array plus its gradient slot, which only a tensor
    that takes a gradient has (``slot`` is None otherwise). ``grad`` and
    ``requires_grad`` read through the slot; ``grad`` may be set."""

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.slot = _Slot() if requires_grad else None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.slot is None else self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.slot is not None:
            self.slot.grad = g
        elif g is not None:
            raise ValueError("a tensor that takes no gradient has no gradient slot")

    @property
    def requires_grad(self) -> bool:
        return self.slot is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

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


def _result(data: np.ndarray, takes_grad: bool, backward) -> Tensor:
    """The op output ``data``; with ``backward`` recorded on the open tape
    when there is one and some operand ``takes_grad``."""
    tape = _active_tape()
    needs = takes_grad and tape is not None
    out = Tensor(data, requires_grad=needs)
    if needs:
        tape.record(out, backward)
    return out


def _record(data: np.ndarray, *operands) -> Tensor:
    """Record an op with output ``data`` and operands given as (tensor, vjp)
    pairs, where vjp maps the output's gradient to that operand's. Only the
    vjps of operands that take a gradient are kept, and backward runs them
    in operand order. A vjp may capture arrays and shapes, never a Tensor,
    so an operand's values live on only if a kept vjp reads them. With no
    tape open, nothing is kept."""
    if not _TAPES:
        return Tensor(data)
    pulls = [(t.slot, vjp) for t, vjp in operands if t.slot is not None]

    def backward(g):
        for slot, vjp in pulls:
            slot.accumulate(vjp(g))

    return _result(data, bool(pulls), backward)


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    return _record(a.data + b.data, (a, lambda g: _unbroadcast(g, a_shape)),
                   (b, lambda g: _unbroadcast(g, b_shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.shape, b.shape
    return _record(a.data - b.data, (a, lambda g: _unbroadcast(g, a_shape)),
                   (b, lambda g: _unbroadcast(-g, b_shape)))


def neg(a: Tensor) -> Tensor:
    return _record(-a.data, (a, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    a_shape, b_shape = ad.shape, bd.shape
    return _record(ad * bd, (a, lambda g: _unbroadcast(g * bd, a_shape)),
                   (b, lambda g: _unbroadcast(g * ad, b_shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    a_shape = ad.shape
    return _record(ad / bd, (a, lambda g: _unbroadcast(g / bd, a_shape)),
                   (b, lambda g: _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record(a.data * c, (a, lambda g: g * c))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must be >= 2-D (leading axes broadcast)."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    ad, bd = a.data, b.data
    a_shape, b_shape = ad.shape, bd.shape
    return _record(ad @ bd,
                   (a, lambda g: _unbroadcast(g @ np.swapaxes(bd, -1, -2), a_shape)),
                   (b, lambda g: _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b_shape)))


def _matmul_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray, sx, sw) -> None:
    """Pass the gradients of the 2-D product x @ w, whose output's gradient
    is ``g``, to the slots ``sx`` and ``sw`` (either may be None), in that
    order, as ``matmul``'s backward does."""
    if sx is not None:
        sx.accumulate(g @ w.T)
    if sw is not None:
        sw.accumulate(x.T @ g)


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
    return _record(a.data * mask, (a, lambda g: g * mask))


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid_np(a.data)
    return _record(data, (a, lambda g: g * data * (1.0 - data)))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; minimum, unlike -abs, keeps a NaN's sign
    ex = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _record(data, (a, lambda g: g * data))


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return _record(data, (a, lambda g: g * 0.5 / data))


def softplus(a: Tensor) -> Tensor:
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _record(data, (a, lambda g: g * _sigmoid_np(x)))


def softmax(a: Tensor, axis: int = -1, temperature: float = 1.0) -> Tensor:
    """Temperature softmax with row-max subtraction."""
    if temperature <= 0:
        raise ValueError("softmax temperature must be positive")
    x = a.data / temperature
    x = x - x.max(axis=axis, keepdims=True)
    e = np.exp(x)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return data * (g - dot) / temperature

    return _record(data, (a, vjp))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))
    data = x - lse
    return _record(data, (a, lambda g: g - np.exp(data) * g.sum(axis=axis, keepdims=True)))


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
    gd = gain.data
    g_shape, b_shape = gd.shape, bias.shape

    def a_vjp(g):
        dy = g * gd
        m1 = dy.mean(axis=-1, keepdims=True)
        m2 = (dy * y).mean(axis=-1, keepdims=True)
        return inv * (dy - m1 - y * m2)

    return _record(gd * y + bias.data, (a, a_vjp),
                   (gain, lambda g: _unbroadcast(g * y, g_shape)),
                   (bias, lambda g: _unbroadcast(g, b_shape)))


def total_sum(a: Tensor) -> Tensor:
    shape = a.shape
    return _record(np.asarray(a.data.sum()),
                   (a, lambda g: np.broadcast_to(g, shape).copy()))


def mean(a: Tensor) -> Tensor:
    return scale(total_sum(a), 1.0 / a.data.size)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    shape = a.shape

    def vjp(g):
        return np.broadcast_to(g if keepdims else np.expand_dims(g, axis), shape).copy()

    return _record(a.data.sum(axis=axis, keepdims=keepdims), (a, vjp))


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ends = list(itertools.accumulate(t.data.shape[axis] for t in tensors))

    def piece(start: int, stop: int):
        index = (slice(None),) * (axis % data.ndim) + (slice(start, stop),)
        return lambda g: g[index]

    return _record(data, *((t, piece(start, stop))
                           for t, start, stop in zip(tensors, [0] + ends, ends)))


def rows(a: Tensor, index) -> Tensor:
    """Gather rows along axis 0 (``index`` of any shape). Backward sums the
    gradient's rows onto the picked rows on a jagged-diagonal schedule built
    for the call, each row adding its picks in index order."""
    idx = np.asarray(index, dtype=np.intp)
    shape = a.shape

    def vjp(g):
        picks = _Diagonals.of(idx.reshape(-1), np.arange(idx.size), shape[0])
        g = g.reshape((idx.size,) + shape[1:])
        return picks.sum(lambda span: g.take(picks.reads[span], axis=0), shape[1:])

    return _record(a.data[idx], (a, vjp))


def pair_dots(a: Tensor, pairs) -> Tensor:
    """Dot products a[i] . a[j] of the rows of each index pair (i, j) of
    ``pairs`` [B, 2], as a [B, 1] column. Backward sums each pair's score
    gradient times one row onto the other, on a schedule built for the
    call, onto the j rows before the i rows: the order of the
    ``rows``/``rows``/``mul``/``sum_axis`` chain, whose gradient this equals
    byte for byte."""
    pairs = np.asarray(pairs, dtype=np.intp)
    left, right = pairs[:, 0], pairs[:, 1]
    ad, slot = a.data, a.slot
    n = ad.shape[0]

    def backward(g):
        g = g[:, 0]
        slot.accumulate(_Diagonals.of(right, left, n).product(g, ad))
        slot.accumulate(_Diagonals.of(left, right, n).product(g, ad))

    return _result((ad[left] * ad[right]).sum(axis=-1, keepdims=True),
                   slot is not None, backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape
    return _record(a.data.reshape(shape), (a, lambda g: g.reshape(orig)))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    return _record(np.swapaxes(a.data, ax1, ax2), (a, lambda g: np.swapaxes(g, ax1, ax2)))


def stop_gradient(a: Tensor) -> Tensor:
    """Detach a value from the tape; gradient does not flow past it."""
    return Tensor(a.data, requires_grad=False)


def _hcat(xs: list[np.ndarray]) -> np.ndarray:
    """The column-wise join of ``xs``; a single array is returned as it is."""
    return xs[0] if len(xs) == 1 else np.concatenate(xs, axis=1)


def linear(x: Tensor | list[Tensor], w: Tensor, b: Tensor) -> Tensor:
    """``add(matmul(concat(pieces, axis=1), w), b)`` as one op, where ``x``
    is one [rows, width] tensor or a list of such pieces. It keeps the
    pieces, not their concatenation, and joins them again in backward for
    w's gradient; a single piece is never copied. Gradients reach b, then
    w, then the pieces in order, and equal the chain's byte for byte."""
    pieces = x if isinstance(x, list) else [x]
    wd, b_shape = w.data, b.shape
    xs = [p.data for p in pieces]
    data = _hcat(xs) @ wd + b.data
    sw, sb = w.slot, b.slot
    if sw is None:
        xs = []  # only w's gradient reads the pieces' values
    ends = list(itertools.accumulate(p.shape[1] for p in pieces))
    pulls = [(p.slot, slice(start, stop))
             for p, start, stop in zip(pieces, [0] + ends, ends) if p.slot is not None]

    def backward(g):
        if sb is not None:
            sb.accumulate(_unbroadcast(g, b_shape))
        if sw is not None:  # the join is unnamed, so it is freed before gx exists
            sw.accumulate(_hcat(xs).T @ g)
        if pulls:
            gx = g @ wd.T
            for slot, span in pulls:
                slot.accumulate(gx[:, span])

    return _result(data, sw is not None or sb is not None or bool(pulls), backward)


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


_GROUP = 4096  # entries whose values a jagged-diagonal sum forms at a time


@dataclass(frozen=True, eq=False)
class _Diagonals:
    """Jagged-diagonal schedule of a sum onto n targets (Saad 1989).

    Entry k of a sum goes to target ``targets[k]``. The targets are stably
    sorted by how many entries they take, most first, and ``rank[t]`` is
    target t's row in that order. Diagonal j holds the j-th entry (in k
    order) of each target with more than j entries; those targets are the
    leading rows, so a diagonal is added with one in-place add over a
    prefix of the rows. ``order`` lists the entries diagonal by diagonal,
    ``runs`` holds each diagonal's (start, stop) in it, and ``reads`` is
    the row each listed entry reads. Every target starts at 0.0 and adds
    its entries in k order, so the sums are those of a sequential loop
    over the entries, byte for byte (up to a NaN's sign and payload); and
    ``sum`` forms the values a group of entries at a time, so no
    [K x width] array or index exists."""

    order: np.ndarray  # [K]
    reads: np.ndarray  # [K]
    rank: np.ndarray   # [n]
    runs: tuple

    @classmethod
    def of(cls, targets: np.ndarray, reads: np.ndarray, n: int | None = None
           ) -> "_Diagonals":
        """The schedule of entries ``targets`` onto n targets (by default
        one past the largest)."""
        if n is None:
            n = int(targets.max()) + 1 if targets.size else 0
        counts = np.bincount(targets, minlength=n)
        rank = np.empty(n, dtype=np.intp)
        rank[np.argsort(-counts, kind="stable")] = np.arange(n)
        # each entry's position among its target's entries, in k order; the
        # keys target * K + k are unique, so any argsort of them is stable
        # (and on unsorted targets numpy's default one is about twice as
        # fast as "stable")
        grouped = np.argsort(targets * targets.size + np.arange(targets.size))
        pos = np.empty(targets.size, dtype=np.intp)
        pos[grouped] = np.arange(targets.size) - np.repeat(np.cumsum(counts) - counts,
                                                           counts)
        # diagonal j lists the targets with more than j entries, which are
        # the leading ones by rank, in rank order
        lengths = np.bincount(pos)
        ends = np.cumsum(lengths)
        order = np.empty(targets.size, dtype=np.intp)
        order[(ends - lengths)[pos] + rank[targets]] = np.arange(targets.size)
        ends = ends.tolist()
        return cls(order=order, reads=reads[order], rank=rank,
                   runs=tuple(zip([0] + ends[:-1], ends)))

    def sum(self, rows, trailing: tuple = (), n: int | None = None) -> np.ndarray:
        """The sums onto the targets, [n, *trailing], where n defaults to
        the schedule's and rows past its targets are zero. ``rows(span)``
        forms the values [len, *trailing] of the listed entries
        ``order[span]``. It is called on consecutive spans of at most
        ``_GROUP`` entries, and a group's values are dropped once the next
        group's are formed, so the values of all the entries never exist
        at once."""
        block = np.zeros(self.rank.shape + trailing)
        size = self.order.size
        lo, hi = 0, min(_GROUP, size)
        values = rows(slice(lo, hi))
        for start, stop in self.runs:
            at = start
            while stop > hi:  # the diagonal runs on past the formed group
                head = block[at - start:hi - start]
                np.add(head, values[at - lo:], out=head)
                at = lo = hi
                hi = min(hi + _GROUP, size)
                values = rows(slice(lo, hi))
            head = block[at - start:stop - start]
            np.add(head, values[at - lo:stop - lo], out=head)
        if n is None or n == self.rank.size:
            return block.take(self.rank, axis=0)
        out = np.zeros((n,) + trailing)
        block.take(self.rank, axis=0, out=out[:self.rank.size])
        return out

    def product(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The sums onto the targets of weights[k] * x[reads_k] over the
        entries k, for weights [K] and x [m, d]: [n, d]. Each group's terms
        are its read rows, multiplied in place."""
        def terms(span):
            out = x.take(self.reads[span], axis=0)
            return np.multiply(weights[self.order[span]][:, None], out, out=out)

        return self.sum(terms, x.shape[1:])


@dataclass(frozen=True, eq=False)
class _CSRPattern:
    """Sparsity pattern of a square matrix.

    Entry k sits at (row_of[k], indices[k]); rows are contiguous and their
    columns ascend. ``by_row`` and ``by_column`` are the jagged-diagonal
    schedules of sums onto rows (reading columns) and onto columns
    (reading rows), each built on first use and shared by every matrix
    on the pattern."""

    n: int
    indptr: np.ndarray
    row_of: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_sorted(cls, n: int, rows: np.ndarray, cols: np.ndarray) -> "_CSRPattern":
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n=n, indptr=indptr, row_of=rows, indices=cols)

    @cached_property
    def by_row(self) -> _Diagonals:
        return _Diagonals.of(self.row_of, self.indices, self.n)

    @cached_property
    def by_column(self) -> _Diagonals:
        return _Diagonals.of(self.indices, self.row_of, self.n)


class CSRMatrix:
    """Constant n x n sparse matrix in compressed-row form.

    Row i holds the entries indptr[i]:indptr[i+1] at columns indices[...],
    ascending, with values data[...]. An empty row multiplies to a zero row.
    ``with_data`` puts new values on the same pattern. Products with S and
    S^T are both jagged-diagonal sums over the entries, on the pattern's
    row or column schedule, so no transposed copy is kept."""

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
        by_row = self.pattern.by_row
        return by_row.sum(lambda span: self.data[by_row.order[span]])

    def dot(self, x: np.ndarray) -> np.ndarray:
        """S x for x [n, d]: row i sums data_k x[indices_k] over row i's entries."""
        return self.pattern.by_row.product(self.data, x)

    def tdot(self, g: np.ndarray) -> np.ndarray:
        """S^T g for g [n, d]: column j sums data_k g[row_of_k] over its entries."""
        return self.pattern.by_column.product(self.data, g)


def neighbor_mean_matrix(n: int, edges: np.ndarray) -> CSRMatrix:
    """Row-normalized undirected adjacency of the [E, 2] integer array
    ``edges``: row i averages the neighbors of i.

    Repeated edges count once; isolated nodes get an empty row."""
    keys = np.unique(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                     edges[:, 1] * n + edges[:, 0]]))
    rows, cols = keys // n, keys % n
    pattern = _CSRPattern.from_sorted(n, rows, cols)
    deg = np.diff(pattern.indptr)
    return CSRMatrix(pattern, 1.0 / deg[rows])


def spmm(s: CSRMatrix, x: Tensor) -> Tensor:
    """Product of a constant sparse matrix and a tensor; backward is S^T g."""
    return _record(s.dot(x.data), (x, s.tdot))


def sage_conv(x: Tensor, neigh_mat: CSRMatrix, w_self: Tensor, w_neigh: Tensor,
              bias: Tensor | None = None) -> Tensor:
    """Mean-aggregating graph convolution: W_self x_i + W_neigh mean_j x_j."""
    out = add(matmul(x, w_self), matmul(spmm(neigh_mat, x), w_neigh))
    if bias is not None:
        out = add(out, bias)
    return out


@dataclass(frozen=True, eq=False)
class BankSlots:
    """The usable slots of a bank batch, in (bank, column) order.

    Slot k sits in bank ``bank[k]`` and reads memory row ``token[k]``. A
    bank's slots are contiguous: ``starts`` holds where each nonempty bank's
    run begins and ``run[k]`` the run slot k is in. Each array has U entries
    or fewer. ``onto_banks`` and ``onto_tokens`` are the jagged-diagonal
    schedules of sums of slot rows onto their banks (reading their tokens)
    and onto their tokens (reading their banks), each adding a target's
    slots in (bank, column) order; each is built on first use and kept with
    the slots. ``of`` lists them from the [G, S] grid that defines the
    banks: slot s of bank g reads row token_index[g, s], and add_mask holds
    0 for a usable slot and MASK_NEG for an excluded one."""

    bank: np.ndarray
    token: np.ndarray
    starts: np.ndarray
    run: np.ndarray

    @classmethod
    def of(cls, token_index: np.ndarray, add_mask: np.ndarray) -> "BankSlots":
        if token_index.shape != add_mask.shape:
            raise ValueError("bank index and mask shapes disagree")
        usable = add_mask == 0.0
        if not (usable | (add_mask == MASK_NEG)).all():
            raise ValueError("attention mask entries must be 0 or MASK_NEG")
        bank, column = np.nonzero(usable)
        counts = np.bincount(bank, minlength=add_mask.shape[0])
        counts = counts[counts > 0]
        return cls(bank=bank, token=token_index[bank, column],
                   starts=np.cumsum(counts) - counts,
                   run=np.repeat(np.arange(counts.size), counts))

    @cached_property
    def onto_banks(self) -> _Diagonals:
        return _Diagonals.of(self.bank, self.token)

    @cached_property
    def onto_tokens(self) -> _Diagonals:
        return _Diagonals.of(self.token, self.bank)


def bank_attention(query: Tensor, memory: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                   slots: BankSlots, heads: int) -> tuple[Tensor, np.ndarray]:
    """Per-head softmax attention of each bank's query row over its usable
    slots only, whose memory rows serve as both keys and values.

    The projected queries q = query wq [G, d], keys k = memory wk and values
    v = memory wv [T, d] are made here. Slot k scores q[bank_k] . k[token_k]
    / sqrt(d / heads) per head; each (bank, head) softmax runs over its own
    slots (max from one ``np.maximum.reduceat``), and the weighted rows
    v[token_k] are summed onto their banks. Excluded slots cost nothing and
    get weight exactly 0.0. Returns the context [G, d], zero for a bank with
    no usable slot, and the detached weights [U, heads] of the slots, in
    (bank, column) order. Callers that attend over the same banks again pass
    the same slots.

    The op keeps its inputs and the weights only, and backward makes q, k
    and v again, each when it is needed. Every sum onto banks or tokens runs
    on the slots' schedules, which form the [U, d] slot rows a group at a
    time. The values and gradients are those of the three ``matmul``s and
    the per-slot attention they stand for, byte for byte: the projections'
    gradients reach memory and wv (values), then memory and wk (keys), then
    query and wq."""
    if wq.shape[1] % heads:
        raise ValueError("attention width must be divisible by the head count")
    xq, xm = query.data, memory.data
    wqd, wkd, wvd = wq.data, wk.data, wv.data
    g_count, t_count = xq.shape[0], xm.shape[0]
    d = wqd.shape[1]
    dh = d // heads
    c = 1.0 / np.sqrt(dh)
    bank, token, u = slots.bank, slots.token, slots.bank.size

    def slot_dots(a, at_a, b, at_b):
        """Per (slot, head) dot of rows a[at_a] and b[at_b], a group at a time."""
        out = np.empty((u, heads))
        for lo in range(0, u, _GROUP):
            span = slice(lo, lo + _GROUP)
            out[span] = np.einsum("uhd,uhd->uh", a[at_a[span]].reshape(-1, heads, dh),
                                  b[at_b[span]].reshape(-1, heads, dh))
        return out

    def onto(schedule, weights, x, n):
        """Sum onto ``schedule``'s targets of the slot rows weights[k] * x[read_k]
        per head: [n, d]."""
        order, reads = schedule.order, schedule.reads
        return schedule.sum(lambda span: (weights[order[span], :, None] *
                                          x[reads[span]].reshape(-1, heads, dh)
                                          ).reshape(-1, d), (d,), n)

    def bank_sums(per_slot):
        by_bank = slots.onto_banks
        return by_bank.sum(lambda span: per_slot[by_bank.order[span]], (heads,), g_count)

    logits = slot_dots(xq @ wqd, bank, xm @ wkd, token)
    logits *= c
    if u:
        logits = logits - np.maximum.reduceat(logits, slots.starts, axis=0)[slots.run]
    e = np.exp(logits)
    w = e / bank_sums(e)[bank]
    data = onto(slots.onto_banks, w, xm @ wvd, g_count)
    sq, swq, sm, swk, swv = (t.slot for t in (query, wq, memory, wk, wv))
    takes_v = sm is not None or swv is not None
    takes_qk = any(slot is not None for slot in (sq, swq, sm, swk))

    def backward(g):
        if takes_v:
            _matmul_grads(onto(slots.onto_tokens, w, g, t_count), xm, wvd, sm, swv)
        if not takes_qk:
            return
        wg = w * slot_dots(g, bank, xm @ wvd, token)
        dlogits = (wg - w * bank_sums(wg)[bank]) * c
        del wg
        gq = onto(slots.onto_banks, dlogits, xm @ wkd, g_count)
        _matmul_grads(onto(slots.onto_tokens, dlogits, xq @ wqd, t_count), xm, wkd, sm, swk)
        _matmul_grads(gq, xq, wqd, sq, swq)

    return _result(data, takes_qk or takes_v, backward), w


def gated_blend(evidence: Tensor, self_in: Tensor, anchor_in: Tensor, w_self: Tensor,
                w_gate: Tensor, b_gate: Tensor, w_anchor: Tensor, usable: np.ndarray,
                gamma: float) -> Tensor:
    """Generation's warm-up blend as one op:
    gamma * (gate * evidence + (1 - gate) * s) + (1 - gamma) * anchor_in w_anchor,
    with s = self_in w_self and
    gate = usable * sigmoid(linear([evidence, s], w_gate, b_gate)).
    evidence, s and the gate are [G, d], and usable is [G, 1].

    It keeps its inputs, and backward makes s and the gate again, dropping
    each array it makes once the next no longer needs it. The values and
    gradients are those of the op chain it stands for (matmul, linear,
    sigmoid, mul, mul, sub, mul, add, matmul, scale, scale, add) byte for
    byte, with every gradient slot summed in the chain's order."""
    ev, xs, xa = evidence.data, self_in.data, anchor_in.data
    wsd, wgd, bgd, wad = w_self.data, w_gate.data, b_gate.data, w_anchor.data
    gamma, keep = float(gamma), float(1.0 - gamma)
    width = ev.shape[1]

    def gate_of(s):
        sig = _sigmoid_np(_hcat([ev, s]) @ wgd + bgd)
        return sig, sig * usable

    s = xs @ wsd
    gate = gate_of(s)[1]
    data = (gate * ev + (1.0 - gate) * s) * gamma + (xa @ wad) * keep
    del s, gate
    s_ev, s_s, s_a = evidence.slot, self_in.slot, anchor_in.slot
    s_ws, s_wg, s_bg, s_wa = w_self.slot, w_gate.slot, b_gate.slot, w_anchor.slot
    takes_gate = any(slot is not None for slot in (s_ev, s_s, s_ws, s_wg, s_bg))

    def backward(g):
        _matmul_grads(g * keep, xa, wad, s_a, s_wa)
        if not takes_gate:
            return
        s = xs @ wsd
        sig, gate = gate_of(s)
        g_warmed = g * gamma
        # -(g_warmed * s) from (1 - gate) * s, then g_warmed * ev from gate * ev
        g_gate = g_warmed * ev - g_warmed * s
        g_s = g_warmed * (1.0 - gate)
        if s_ev is not None:
            s_ev.accumulate(g_warmed * gate)
        del g_warmed, gate
        g_z = g_gate * usable * sig * (1.0 - sig)
        del g_gate, sig
        if s_bg is not None:
            s_bg.accumulate(_unbroadcast(g_z, bgd.shape))
        if s_wg is not None:
            s_wg.accumulate(_hcat([ev, s]).T @ g_z)
        del s
        g_joined = g_z @ wgd.T
        del g_z
        if s_ev is not None:
            s_ev.accumulate(g_joined[:, :width])
        g_s = g_s + g_joined[:, width:]
        del g_joined
        _matmul_grads(g_s, xs, wsd, s_s, s_ws)

    return _result(data, takes_gate or s_a is not None or s_wa is not None, backward)


# ---------------------------------------------------------------------------
# Parameters and optimization
# ---------------------------------------------------------------------------


class ParamStore:
    """Named trainable tensors laid out over one flat float64 vector.

    ``pack`` joins named arrays, in sorted-name order, into a new vector;
    ``over`` lays the same layout over another vector of that length. Each
    parameter's ``data`` is a reshaped view into ``vector``, so writing the
    vector writes the parameters. A copy or pickle rebuilds the views over
    its own vector."""

    def __init__(self, layout: tuple, vector: np.ndarray):
        """Lay ``layout``, (name, slice, shape) triples, over ``vector``."""
        self._layout = layout
        self.vector = vector
        self._params = {name: Tensor(vector[span].reshape(shape), requires_grad=True)
                        for name, span, shape in layout}

    @classmethod
    def pack(cls, arrays: dict) -> "ParamStore":
        names = sorted(arrays)
        values = [np.asarray(arrays[name], dtype=np.float64) for name in names]
        ends = np.cumsum([0] + [v.size for v in values]).tolist()
        layout = tuple((name, slice(a, b), v.shape)
                       for name, v, a, b in zip(names, values, ends, ends[1:]))
        return cls(layout, np.concatenate([v.reshape(-1) for v in values]))

    def over(self, vector: np.ndarray) -> "ParamStore":
        """The same layout over ``vector``, with fresh gradient slots."""
        if vector.shape != self.vector.shape or vector.dtype != np.float64:
            raise ValueError(f"cannot lay a store of shape {self.vector.shape} over "
                             f"a {vector.dtype} vector of shape {vector.shape}")
        return ParamStore(self._layout, vector)

    def __reduce__(self):
        return ParamStore, (self._layout, self.vector)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def layout(self) -> list[tuple[str, slice]]:
        """Each parameter's name and its slice of ``vector``, in that order."""
        return [(name, span) for name, span, _ in self._layout]

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def take_grads(self) -> np.ndarray:
        """Gather the gradient slots into one vector (zeros where empty), clear them."""
        grad = np.zeros_like(self.vector)
        for name, span, _ in self._layout:
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
    (``ParamStore.take_grads``); a non-finite gradient raises before any write.
    The moments are updated in place, so they may live in shared memory;
    ``grad`` is overwritten, as it and one buffer hold the intermediates."""
    if lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if not np.isfinite(grad).all():
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        name = next(n for n, span in store.layout() if span.start <= bad < span.stop)
        raise GradientError(f"non-finite gradient for parameter {name!r}")
    b1, b2 = betas
    state.step += 1
    t = state.step
    m, v, buf = state.m, state.v, np.empty_like(grad)
    m *= b1
    m += np.multiply(1 - b1, grad, out=buf)  # (1 - b1) * grad
    v *= b2
    v += np.multiply(np.multiply(1 - b2, grad, out=buf), grad, out=buf)  # (1 - b2) * grad * grad
    # lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - b1 ** t), v_hat likewise
    np.add(np.sqrt(np.divide(v, 1 - b2 ** t, out=grad), out=grad), eps, out=grad)
    np.multiply(lr, np.divide(m, 1 - b1 ** t, out=buf), out=buf)
    store.vector[...] -= np.divide(buf, grad, out=buf)


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
    if max_entries_per_param is not None and max_entries_per_param < 1:
        # a check that probes no entry must not report a pass
        raise ValueError(f"max_entries_per_param must be at least 1, got {max_entries_per_param}")
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

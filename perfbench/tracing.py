"""Outside-in span tracing of fedmmg's layers.

A traced run wraps each function in ``TARGETS`` at every name a caller
resolves it by (``from ... import`` copies, module attributes and class
attributes), records one span per call, and restores every original binding
afterwards. An untraced run never imports the wrappers into fedmmg at all.

Spans stay in memory. A span's parent is the span open on the same thread;
a span opened on a worker thread with nothing open there takes the run's
root span as its parent, so client rounds run by the federation's thread
pool nest under the round loop like serial ones do.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "fedmmg"
ROOT = "bench.run"

# (module, qualified name) of every wrapped function; the span and metric
# name is "<module>.<qualified name>".
TARGETS = (
    ("graphdata", "generate_sbm_multimodal"),
    ("graphdata", "partition_dirichlet"),
    ("graphdata", "apply_natural_missingness"),
    ("graphdata", "induced_subgraph"),
    ("graphdata", "sample_artificial_mask"),
    ("config", "assemble_run"),
    ("model", "GraphCaches.build"),
    ("model", "init_params"),
    ("model", "forward_pass"),
    ("encoding", "encode_modalities"),
    ("encoding", "structural_anchor"),
    ("encoding", "graph_context"),
    ("encoding", "structure_only_repr"),
    ("generation", "build_bank_batch"),
    ("generation", "build_query"),
    ("generation", "generate_modalities"),
    ("generation", "alignment_loss"),
    ("fusion", "estimate_uncertainty"),
    ("fusion", "route"),
    ("fusion", "expert_mix"),
    ("fusion", "fuse"),
    ("tasks", "refine"),
    ("tasks", "nc_task_loss"),
    ("tasks", "lp_task_loss"),
    ("tasks", "sample_hard_negatives"),
    ("metrics", "evaluate_metrics"),
    ("numerics", "Tape.backward"),
    ("numerics", "adam_step"),
    ("numerics", "ParamStore.load"),
    ("numerics", "ParamStore.snapshot"),
    ("numerics", "grad_check"),
    ("federation", "client_local_round"),
    ("federation", "aggregate"),
    ("federation", "evaluate_client"),
    ("cli", "write_outputs"),
)

# Counts and ratios recorded at the wrapped boundaries or derived from spans.
# Each is (name, unit); the child adds the ones it measures itself.
COUNTERS = (
    ("graphdata.setup_peak_rss_mb", "MB"),
    ("model.graph_cache_bytes", "bytes"),
    ("generation.bank_slots", "count"),
    ("generation.bank_fill_ratio", "ratio"),
    ("numerics.tape_ops", "count"),
    ("federation.client_wait_ms", "ms"),
    ("federation.calibration_ms", "ms"),
    ("federation.client_failures", "ratio"),
    ("verify.probe_forward_ratio", "ratio"),
    ("bench.run.ms", "ms"),
    ("bench.run.self_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for module, qual in TARGETS:
        base = span_name(module, qual)
        names += [(f"{base}.ms", "ms"), (f"{base}.self_ms", "ms"),
                  (f"{base}.calls", "count")]
    return names + list(COUNTERS)


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "tag")

    def __init__(self, sid, name, start, parent, thread):
        self.sid, self.name, self.start = sid, name, start
        self.end = None
        self.parent, self.thread, self.tag = parent, thread, None


class Tracer:
    """In-memory span recorder for one run (one child process)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._root: int | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else self._root
        span = Span(next(self._ids), name, time.perf_counter(), parent,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] += value

    @contextlib.contextmanager
    def root(self, name: str = ROOT):
        """The run's root span; worker threads with no open span parent
        their spans to it."""
        span = self.open(name)
        self._root = span.sid
        try:
            yield span
        finally:
            self._root = None
            self.close(span)


# ---------------------------------------------------------------------------
# Observers: counts taken at a boundary from the call's arguments or result
# ---------------------------------------------------------------------------


def _observe_caches(tracer, span, args, kwargs, result):
    tracer.add("model.graph_cache_bytes", result.neigh_mat.data.nbytes)


def _observe_banks(tracer, span, args, kwargs, result):
    tracer.add("generation.bank_slots", result.token_index.size)
    tracer.add("generation.bank_usable", int((result.additive_mask == 0.0).sum()))


def _observe_backward(tracer, span, args, kwargs, result):
    tracer.add("numerics.tape_ops", len(args[0]))


def _observe_client_round(tracer, span, args, kwargs, result):
    span.tag = kwargs["round_t"] if "round_t" in kwargs else args[4]


OBSERVERS = {
    "model.GraphCaches.build": _observe_caches,
    "generation.build_bank_batch": _observe_banks,
    "numerics.Tape.backward": _observe_backward,
    "federation.client_local_round": _observe_client_round,
}


# ---------------------------------------------------------------------------
# Installing and removing wrappers
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(tracer, span, args, kwargs, result)
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _package_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


class Installation:
    """The bindings a traced run replaced, so they can be put back."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target at every binding inside the package."""
    inst = Installation()
    modules = {module: importlib.import_module(f"{PACKAGE}.{module}")
               for module, _ in targets}
    everywhere = _package_modules()
    for module, qual in targets:
        name = span_name(module, qual)
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:
            cls = getattr(modules[module], owner_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                replacement = _wrap(tracer, name, raw)
            inst.patches.append((cls, attr, raw))
            setattr(cls, attr, replacement)
            continue
        original = getattr(modules[module], attr)
        wrapper = _wrap(tracer, name, original)
        for mod in everywhere:
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst.patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return inst


# ---------------------------------------------------------------------------
# Reduction: spans -> per-layer metrics
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by any of its child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
            for s in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    pid = span.parent
    while pid is not None:
        parent = by_id[pid]
        if parent.name == name:
            return True
        pid = parent.parent
    return False


def summarize(tracer: Tracer, targets=TARGETS) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counts."""
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = {}
    for module, qual in targets:
        base = span_name(module, qual)
        out[f"{base}.ms"] = out[f"{base}.self_ms"] = 0.0
        out[f"{base}.calls"] = 0
    by_id = {s.sid: s for s in spans}
    rounds: dict[object, list[float]] = defaultdict(list)
    forwards = probe_forwards = 0
    for s in spans:
        if s.name == ROOT:
            out[f"{ROOT}.ms"] = out.get(f"{ROOT}.ms", 0.0) + 1000.0 * (s.end - s.start)
            out[f"{ROOT}.self_ms"] = out.get(f"{ROOT}.self_ms", 0.0) + 1000.0 * own[s.sid]
            continue
        if f"{s.name}.calls" not in out:
            continue
        out[f"{s.name}.ms"] += 1000.0 * (s.end - s.start)
        out[f"{s.name}.self_ms"] += 1000.0 * own[s.sid]
        out[f"{s.name}.calls"] += 1
        if s.name == "federation.client_local_round":
            rounds[s.tag].append(s.start)
        elif s.name == "model.forward_pass":
            forwards += 1
            probe_forwards += _has_ancestor(s, "numerics.grad_check", by_id)
    out["federation.client_wait_ms"] = sum(
        1000.0 * (t - min(starts)) for starts in rounds.values() for t in starts)
    out["verify.probe_forward_ratio"] = probe_forwards / forwards if forwards else 0.0
    slots = tracer.counts.get("generation.bank_slots", 0)
    out["generation.bank_slots"] = slots
    out["generation.bank_fill_ratio"] = (
        tracer.counts.get("generation.bank_usable", 0) / slots if slots else 0.0)
    for key in ("model.graph_cache_bytes", "numerics.tape_ops"):
        out[key] = tracer.counts.get(key, 0)
    return out


def run_self_sum_ms(spans: list[Span]) -> float:
    """Summed self time of the root span and every span below it."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    return 1000.0 * sum(own[s.sid] for s in spans
                        if s.name == ROOT or _has_ancestor(s, ROOT, by_id))

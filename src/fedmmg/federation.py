"""Federated round loop: client training, reliability stats, aggregation.

The clients are split over ``min(workers, clients, cores)`` lanes for the
whole run (``assign_lanes``). With one lane the clients run in the calling
process. With more, each lane is a resident worker process, forked once at
the start of the run so that it inherits its clients' state (graph, caches,
parameters, Adam moments); per round only the broadcast parameter vector
goes out and the clients' updates, statistics and metrics come back, over
one pipe per worker. Within a lane clients run in ascending client order.
Every client draws from its own (seed, client, round, epoch) RNG stream and
owns a private parameter copy, and the server reduces results in ascending
client order, so the outputs do not depend on the worker count.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field, fields

import numpy as np

from . import numerics as nx
from . import tasks as task_ops
from .fusion import relative_recon_error
from .graphdata import (ClientPartition, MaskSet, MultimodalGraph,
                        induced_subgraph, sample_artificial_mask)
from .metrics import MetricsRow, evaluate_metrics
from .model import (ForwardBundle, ForwardPlan, GraphCaches, ModelConfig,
                    forward_pass, init_params, make_plan)
from .numerics import AdamState, GradientError, ParamStore, Tape
from .tasks import LossBreakdown, TaskSpec

_EPOCH_TAG = 0xC11E
_EVAL_TAG = 0xE7A1
_SERVER_TAG = 0x5E67
_CAL_TAG = 0xCA11


class ClientRoundError(RuntimeError):
    def __init__(self, cid: int, message: str):
        super().__init__(f"client {cid}: {message}")
        self.cid = cid


class FederationAborted(RuntimeError):
    pass


@dataclass
class ReliabilityStats:
    """Scalar summaries each client uploads next to its parameters.

    All three come from the client's last local epoch:

    - ``mean_uncertainty`` (u): mean uncertainty-head output over the cells
      hidden under the effective mask (naturally missing plus artificially
      masked cells).
    - ``mean_recon_error`` (e): mean relative reconstruction error
      min(1, ||g - h||^2 / ||h||^2) over the artificially masked (recon)
      cells; see ``fusion.relative_recon_error``.
    - ``missing_ratio`` (rho): fraction of cells missing under the natural
      mask. The artificial masking every client applies alike is left out.

    e and rho are on a scale shared by all clients, so the server can
    compare them in ``reliability_score``.
    """

    mean_uncertainty: float
    mean_recon_error: float
    missing_ratio: float
    size: int

    def __post_init__(self):
        for v in (self.mean_uncertainty, self.mean_recon_error, self.missing_ratio):
            if not (0.0 <= v <= 1.0):
                raise ValueError("reliability statistics must lie in [0, 1]")
        if self.size < 1:
            raise ValueError("client size must be at least 1")


@dataclass
class ServerConfig:
    rounds: int = 30
    fraction: float = 1.0
    mode: str = "reliability"          # reliability | fedavg
    eta_u: float = 1.0
    eta_e: float = 1.0
    eta_rho: float = 1.0
    eps: float = 1e-12
    workers: int = 1                   # upper bound on client lanes

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("client fraction must lie in (0, 1]")
        if self.mode not in ("reliability", "fedavg"):
            raise ValueError("aggregation mode must be reliability or fedavg")
        if min(self.eta_u, self.eta_e, self.eta_rho) < 0:
            raise ValueError("reliability coefficients must be nonnegative")


@dataclass
class TrainConfig:
    lr: float = 0.005
    local_epochs: int = 3
    clip_norm: float = 1.0
    p_mask: float = 0.3

    def __post_init__(self):
        if self.lr < 0 or self.local_epochs < 0:
            raise ValueError("invalid training configuration")


@dataclass
class ClientData:
    """A client's induced graph plus its frozen train/test splits."""

    cid: int
    graph: MultimodalGraph
    caches: GraphCaches
    train_nodes: np.ndarray
    test_nodes: np.ndarray
    train_edges: np.ndarray
    test_edges: np.ndarray
    edge_keys: np.ndarray  # tasks.edge_keys of every graph edge


@dataclass
class ClientState:
    data: ClientData
    store: ParamStore
    adam: AdamState


@dataclass
class ClientRoundResult:
    cid: int
    params: np.ndarray  # the client's ParamStore.vector after training
    stats: ReliabilityStats
    breakdown: LossBreakdown


def _node_splits(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    if n >= 5:
        a, b = int(0.6 * n), int(0.8 * n)
        return np.sort(perm[:a]), np.sort(perm[a:b]), np.sort(perm[b:])
    if n >= 3:
        return np.sort(perm[:-1]), np.empty(0, dtype=np.intp), perm[-1:]
    return np.sort(perm), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)


def build_client_data(cid: int, graph: MultimodalGraph, task: str, seed: int) -> ClientData:
    rng = np.random.default_rng([seed & 0xFFFFFFFF, cid, 0x5714])
    edges = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2)
    # the validation share stays held out, unused, so train and test keep
    # their sizes
    train_n, _val_n, test_n = _node_splits(graph.n, rng)
    if task == "lp" and edges.shape[0] >= 1:
        perm = rng.permutation(edges.shape[0])
        a = max(1, int(0.7 * edges.shape[0]))
        b = max(a, int(0.85 * edges.shape[0]))
        train_e, test_e = edges[perm[:a]], edges[perm[b:]]
    else:
        train_e = edges
        test_e = np.empty((0, 2), dtype=np.intp)
    caches = GraphCaches.build(graph, train_e)
    return ClientData(cid=cid, graph=graph, caches=caches,
                      train_nodes=train_n, test_nodes=test_n,
                      train_edges=train_e, test_edges=test_e,
                      edge_keys=task_ops.edge_keys(edges, graph.n))


def _task_loss(params: ParamStore, bundle: ForwardBundle, data: ClientData,
               spec: TaskSpec, rng: np.random.Generator):
    graph = data.graph
    if spec.kind == "nc":
        return task_ops.nc_task_loss(params, bundle.refined, graph.labels,
                                     data.train_nodes)
    if spec.kind == "lp":
        return task_ops.lp_task_loss(bundle.refined, data.train_edges,
                                     data.edge_keys, graph.n, spec, rng)
    if spec.kind == "mr":
        return task_ops.mr_task_loss(params, bundle.expert_flat, graph.n,
                                     graph.num_modalities, data.train_nodes, spec,
                                     refined=bundle.refined, labels=graph.labels)
    raise ValueError(f"unknown task {spec.kind!r}")


def client_local_round(state: ClientState, global_params: np.ndarray,
                       model_cfg: ModelConfig, spec: TaskSpec, round_t: int,
                       train_cfg: TrainConfig, seed: int) -> ClientRoundResult:
    """Load the broadcast model, run the local epochs, return update + stats."""
    data = state.data
    store = state.store
    store.load(global_params)
    store.zero_grads()

    last_bundle: ForwardBundle | None = None
    last_plan: ForwardPlan | None = None
    breakdown = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)

    for epoch in range(max(1, train_cfg.local_epochs)):
        rng = np.random.default_rng(
            [seed & 0xFFFFFFFF, data.cid, round_t, epoch, _EPOCH_TAG])
        if model_cfg.bypass_generation:
            masks = MaskSet.full_visibility(data.graph.natural_mask)
        else:
            masks = sample_artificial_mask(data.graph.natural_mask,
                                           train_cfg.p_mask, rng)
        plan = make_plan(data.graph, data.caches, masks, model_cfg, rng)

        with Tape() as tape:
            bundle = forward_pass(store, model_cfg, plan, round_t)
            try:
                task_loss = _task_loss(store, bundle, data, spec, rng)
            except ValueError as exc:
                raise ClientRoundError(data.cid, str(exc)) from exc
            total, breakdown = task_ops.local_objective(
                spec, task_loss, bundle.rec_loss, bundle.align_loss,
                bundle.route_loss)
            if not np.isfinite(total.data).all():
                raise ClientRoundError(
                    data.cid, f"non-finite loss at round {round_t} epoch {epoch}")
            if train_cfg.local_epochs > 0 and train_cfg.lr > 0:
                try:
                    tape.backward(total)
                except GradientError as exc:
                    raise ClientRoundError(data.cid, str(exc)) from exc

        if train_cfg.local_epochs > 0:
            grad = store.take_grads()
            nx.clip_grad_norm(grad, train_cfg.clip_norm)
            try:
                nx.adam_step(store, state.adam, grad, train_cfg.lr)
            except GradientError as exc:
                raise ClientRoundError(data.cid, str(exc)) from exc
        last_bundle, last_plan = bundle, plan

    assert last_bundle is not None and last_plan is not None
    # Uploaded stats (see ReliabilityStats): u over effective-mask hidden
    # cells, e as relative error over recon cells, rho from the natural mask.
    eff_flat, recon_flat = last_plan.eff_flat, last_plan.recon_flat
    if last_bundle.uncertainty is not None:
        u_vals = last_bundle.uncertainty.data.reshape(-1)
        hidden = eff_flat == 0.0
        mean_u = float(u_vals[hidden].mean()) if hidden.any() else 0.0
        mean_err = relative_recon_error(last_bundle.cell_errors,
                                        last_bundle.raw_cells, recon_flat)
    else:
        mean_u = mean_err = 0.0
    natural = data.graph.natural_mask
    stats = ReliabilityStats(mean_uncertainty=mean_u, mean_recon_error=mean_err,
                             missing_ratio=float((natural == 0.0).mean()),
                             size=data.graph.n)
    return ClientRoundResult(cid=data.cid, params=store.snapshot(), stats=stats,
                             breakdown=breakdown)


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


def reliability_score(stats: ReliabilityStats, cfg: ServerConfig) -> float:
    """exp(-eta_u u - eta_e e - eta_rho rho); always positive, so clients are
    softly rescaled rather than excluded."""
    return float(np.exp(-cfg.eta_u * stats.mean_uncertainty
                        - cfg.eta_e * stats.mean_recon_error
                        - cfg.eta_rho * stats.missing_ratio))


def aggregate(params_by_cid: dict[int, np.ndarray],
              sizes: dict[int, int], scores: dict[int, float],
              eps: float = 1e-12) -> tuple[np.ndarray, dict[int, float]]:
    """Size-and-reliability weighted mean of the clients' parameter vectors,
    summed in cid order."""
    cids = sorted(params_by_cid)
    if not cids:
        raise ValueError("aggregate needs at least one client")
    denom = sum(sizes[c] * scores[c] for c in cids) + eps
    omega = {c: sizes[c] * scores[c] / denom for c in cids}

    merged = np.zeros(params_by_cid[cids[0]].shape)
    for c in cids:
        vec = params_by_cid[c]
        if vec.shape != merged.shape:
            raise ValueError(f"parameter vectors of clients {cids[0]} and {c} "
                             f"differ in shape: {merged.shape} vs {vec.shape}")
        merged += omega[c] * vec
    return merged, omega


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_client(store: ParamStore, model_cfg: ModelConfig, spec: TaskSpec,
                    data: ClientData, round_t: int, seed: int
                    ) -> tuple[MetricsRow | None, int]:
    """Held-out metrics under natural visibility (no artificial masking)."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, data.cid, round_t, _EVAL_TAG])
    masks = MaskSet.full_visibility(data.graph.natural_mask)
    plan = make_plan(data.graph, data.caches, masks, model_cfg, rng)
    bundle = forward_pass(store, model_cfg, plan, round_t)
    graph = data.graph
    if spec.kind == "nc":
        if data.test_nodes.size == 0:
            return None, 0
        logits = task_ops.nc_logits(store, nx.rows(bundle.refined, data.test_nodes))
        return evaluate_metrics("nc", logits.data, graph.labels[data.test_nodes]), \
            int(data.test_nodes.size)
    if spec.kind == "lp":
        if data.test_edges.shape[0] == 0 or \
                not task_ops.has_non_edge(graph.n, data.edge_keys):
            return None, 0
        pos = task_ops.lp_scores(bundle.refined, data.test_edges).data.reshape(-1)
        # uniform non-edges, the first pos.size accepted from a stream of draws
        negs, found = [], 0
        while found < pos.size:
            draw = rng.integers(0, graph.n, size=(pos.size, 2))
            negs.append(task_ops.non_edge_pairs(draw, graph.n, data.edge_keys))
            found += negs[-1].shape[0]
        neg_pairs = np.concatenate(negs)[:pos.size].astype(np.intp)
        neg = task_ops.lp_scores(bundle.refined, neg_pairs).data.reshape(-1)
        row = evaluate_metrics("lp", (pos, neg), None)
        return (row, pos.size) if row.valid else (None, 0)
    if spec.kind == "mr":
        if data.test_nodes.size == 0:
            return None, 0
        queries, gallery = task_ops.mr_embeddings(store, bundle.expert_flat,
                                                  graph.n, graph.num_modalities, spec)
        sim = task_ops.cosine_matrix(nx.rows(queries, data.test_nodes),
                                     nx.rows(gallery, data.test_nodes))
        targets = np.arange(data.test_nodes.size)
        return evaluate_metrics("mr", sim.data, targets), int(data.test_nodes.size)
    raise ValueError(f"unknown task {spec.kind!r}")


# ---------------------------------------------------------------------------
# Round history
# ---------------------------------------------------------------------------


@dataclass
class RoundRecord:
    round_index: int
    client_frac: float
    omega: dict[int, float]
    losses: dict[int, LossBreakdown]
    mean_loss: LossBreakdown
    metrics: MetricsRow
    errors: dict[int, str] = field(default_factory=dict)
    wall_ms: int = 0  # serialized as 0: emitted files must be byte-reproducible

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "client_frac": self.client_frac,
            "omega": {str(c): self.omega[c] for c in sorted(self.omega)},
            "losses": {str(c): vars(self.losses[c]) for c in sorted(self.losses)},
            "mean_loss": vars(self.mean_loss),
            "metrics": {"names": list(self.metrics.names),
                        "values": list(self.metrics.values)},
            "errors": {str(c): self.errors[c] for c in sorted(self.errors)},
            "wall_ms": self.wall_ms,
        }


@dataclass
class RoundHistory:
    mode: str
    task: str
    records: list[RoundRecord] = field(default_factory=list)
    final_params: np.ndarray = field(default_factory=lambda: np.empty(0))
    calibration: dict[str, np.ndarray] = field(default_factory=dict)
    timings_ms: list[float] = field(default_factory=list)

    def best_record(self) -> RoundRecord | None:
        usable = [r for r in self.records if np.isfinite(r.metrics.values[0])]
        if not usable:
            return None
        return max(usable, key=lambda r: r.metrics.values[0])


@dataclass
class FederationSetup:
    """Everything the round loop needs, in pre-validated form."""

    clients: list[ClientState]
    model_cfg: ModelConfig
    task_spec: TaskSpec
    server_cfg: ServerConfig
    train_cfg: TrainConfig
    seed: int


def make_client_states(graph: MultimodalGraph, partition: ClientPartition,
                       model_cfg: ModelConfig, task: str, seed: int
                       ) -> list[ClientState]:
    states = []
    for cid, nodes in enumerate(partition.node_lists):
        sub = induced_subgraph(graph, nodes)
        data = build_client_data(cid, sub, task, seed)
        store = init_params(model_cfg, seed)
        states.append(ClientState(data=data, store=store,
                                  adam=AdamState.for_params(store)))
    return states


# ---------------------------------------------------------------------------
# Client lanes
# ---------------------------------------------------------------------------

_JOIN_S = 10.0  # how long a closing worker may take to exit before it is killed


def assign_lanes(workers: int, sizes: list[int]) -> list[list[int]]:
    """Split the clients (by cid) over ``min(workers, clients, cores)`` lanes.

    Greedy by size: in descending size, ties by cid, each client joins the
    lane with the smallest total size so far, ties by lane index. Each
    lane's cids ascend."""
    count = min(workers, len(sizes), os.cpu_count() or 1)
    lanes: list[list[int]] = [[] for _ in range(count)]
    loads = [0] * count
    for cid in sorted(range(len(sizes)), key=lambda c: (-sizes[c], c)):
        k = loads.index(min(loads))
        lanes[k].append(cid)
        loads[k] += sizes[cid]
    return [sorted(lane) for lane in lanes]


def _calibrate_client(setup: FederationSetup, state: ClientState,
                      global_params: np.ndarray, round_t: int,
                      draws: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty and normalized reconstruction error of one client's
    recon cells under the final global model. Masks are resampled every
    epoch during training, so the natural population is pooled over several
    fresh mask draws."""
    state.store.load(global_params)
    cal_u: list[np.ndarray] = []
    cal_e: list[np.ndarray] = []
    for draw in range(draws):
        rng = np.random.default_rng(
            [setup.seed & 0xFFFFFFFF, state.data.cid, round_t, draw, _CAL_TAG])
        masks = sample_artificial_mask(state.data.graph.natural_mask,
                                       setup.train_cfg.p_mask, rng)
        plan = make_plan(state.data.graph, state.data.caches, masks,
                         setup.model_cfg, rng)
        bundle = forward_pass(state.store, setup.model_cfg, plan, round_t)
        cells = plan.recon_flat == 1.0
        if bundle.uncertainty is not None and cells.any():
            cal_u.append(bundle.uncertainty.data.reshape(-1)[cells])
            cal_e.append(bundle.norm_err[cells])
    if not cal_u:
        return np.empty(0), np.empty(0)
    return np.concatenate(cal_u), np.concatenate(cal_e)


def _serve(setup: FederationSetup, cids: list[int], request: tuple) -> list:
    """Run one request for a lane's clients in ascending cid order; return
    its (cid, outcome) pairs.

    - ``("train", params, round_t, selected)``: each selected client's
      local round. The outcome is its ``ClientRoundResult``, or the message
      of the ``ClientRoundError`` that failed it.
    - ``("evaluate", params, round_t, None)``: ``evaluate_client``'s
      (row, weight) for every client.
    - ``("calibrate", params, round_t, None)``: ``_calibrate_client``'s
      (uncertainty, norm_err) for every client."""
    kind, params, round_t, selected = request
    out = []
    for cid in cids:
        state = setup.clients[cid]
        if kind == "train":
            if cid not in selected:
                continue
            try:
                outcome = client_local_round(
                    state, params, setup.model_cfg, setup.task_spec, round_t,
                    setup.train_cfg, setup.seed)
            except ClientRoundError as exc:
                outcome = str(exc)
        elif kind == "evaluate":
            state.store.load(params)
            outcome = evaluate_client(state.store, setup.model_cfg,
                                      setup.task_spec, state.data, round_t,
                                      setup.seed)
        else:
            outcome = _calibrate_client(setup, state, params, round_t)
        out.append((cid, outcome))
    return out


class _LocalLane:
    """A lane served in the calling process."""

    def __init__(self, setup: FederationSetup, cids: list[int]):
        self.setup, self.cids = setup, cids
        self._reply: list = []

    def send(self, request: tuple) -> None:
        self._reply = _serve(self.setup, self.cids, request)

    def recv(self) -> list:
        return self._reply

    def close(self, graceful: bool) -> None:
        pass


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a RuntimeError with its message;
    either way with the worker's traceback as a note."""
    note = "raised in a client worker:\n" + "".join(traceback.format_exception(exc))
    try:
        exc = pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
    exc.add_note(note)
    return exc


def _lane_worker(conn, setup: FederationSetup, cids: list[int],
                 inherited: list) -> None:
    """Worker main loop: serve requests until the parent sends None or
    closes its end. An exception is sent back, to be raised in the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    for other in inherited:  # earlier lanes' parent ends, copied by the fork
        other.close()
    try:
        while (request := conn.recv()) is not None:
            try:
                reply = (True, _serve(setup, cids, request))
            except Exception as exc:
                reply = (False, _portable(exc))
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent has gone


class _WorkerLane:
    """A lane served by a resident worker process over one pipe."""

    def __init__(self, ctx, setup: FederationSetup, cids: list[int],
                 inherited: list):
        self.cids = cids
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_lane_worker, daemon=True,
                                args=(child, setup, cids, inherited))
        self.proc.start()
        child.close()

    def _lost(self) -> FederationAborted:
        self.proc.join(_JOIN_S)
        return FederationAborted(f"the worker process of clients {self.cids} "
                                 f"exited with code {self.proc.exitcode}")

    def send(self, request: tuple) -> None:
        try:
            self.conn.send(request)
        except OSError:
            raise self._lost() from None

    def recv(self) -> list:
        try:
            ok, value = self.conn.recv()
        except (EOFError, OSError):
            raise self._lost() from None
        if not ok:
            raise value
        return value

    def close(self, graceful: bool) -> None:
        if graceful:
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.proc.join(_JOIN_S)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()


@contextlib.contextmanager
def _client_lanes(setup: FederationSetup):
    """The run's lanes: one in-process lane, or one forked worker per lane.
    Workers are stopped on the way out, killed if the run failed."""
    groups = assign_lanes(setup.server_cfg.workers,
                          [state.data.graph.n for state in setup.clients])
    lanes: list = []
    try:
        if len(groups) == 1:
            lanes.append(_LocalLane(setup, groups[0]))
        else:
            ctx = multiprocessing.get_context("fork")
            for cids in groups:
                lanes.append(_WorkerLane(ctx, setup, cids,
                                         [lane.conn for lane in lanes]))
        yield lanes
    except BaseException:
        for lane in lanes:
            lane.close(graceful=False)
        raise
    for lane in lanes:
        lane.close(graceful=True)


def _gather(lanes: list, request: tuple) -> dict:
    """Send ``request`` to every lane, then collect {cid: outcome} in
    ascending cid order, whatever lane each client runs in."""
    for lane in lanes:
        lane.send(request)
    pairs = [pair for lane in lanes for pair in lane.recv()]
    return dict(sorted(pairs, key=lambda pair: pair[0]))


def run_federation(setup: FederationSetup) -> RoundHistory:
    """Synchronous rounds: broadcast, local training, aggregate, evaluate."""
    server = setup.server_cfg
    mode = "fedavg-zero" if setup.model_cfg.bypass_generation else server.mode
    history = RoundHistory(mode=mode, task=setup.task_spec.kind)
    global_params = init_params(setup.model_cfg, setup.seed).snapshot()
    num_clients = len(setup.clients)
    # every run starts its clients' optimizers afresh, so a reused setup
    # trains exactly as a new one (and workers never write theirs back)
    for state in setup.clients:
        state.adam = AdamState.for_params(state.store)

    with _client_lanes(setup) as lanes:
        for round_t in range(server.rounds):
            start = time.perf_counter()
            if server.fraction < 1.0:
                rng = np.random.default_rng([setup.seed & 0xFFFFFFFF, _SERVER_TAG, round_t])
                count = max(1, int(round(server.fraction * num_clients)))
                selected = sorted(rng.choice(num_clients, size=count, replace=False).tolist())
            else:
                selected = list(range(num_clients))

            outcomes = _gather(lanes, ("train", global_params, round_t, selected))
            results = {c: r for c, r in outcomes.items() if not isinstance(r, str)}
            errors = {c: r for c, r in outcomes.items() if isinstance(r, str)}
            if not results:
                raise FederationAborted(
                    f"every client failed in round {round_t}: {errors}")

            scores = {c: (reliability_score(r.stats, server)
                          if server.mode == "reliability" else 1.0)
                      for c, r in results.items()}
            sizes = {c: r.stats.size for c, r in results.items()}
            global_params, omega = aggregate({c: r.params for c, r in results.items()},
                                             sizes, scores, server.eps)

            total_size = sum(sizes.values())
            mean_loss = LossBreakdown(*(
                sum(getattr(r.breakdown, f.name) * sizes[c] for c, r in results.items())
                / total_size for f in fields(LossBreakdown)))

            metrics = _evaluate_global(lanes, global_params, round_t)
            record = RoundRecord(
                round_index=round_t, client_frac=len(selected) / num_clients,
                omega=omega, losses={c: r.breakdown for c, r in results.items()},
                mean_loss=mean_loss, metrics=metrics, errors=errors)
            history.records.append(record)
            history.timings_ms.append(1000.0 * (time.perf_counter() - start))

        history.final_params = global_params
        history.calibration = _collect_calibration(setup, lanes, global_params)
    return history


def _collect_calibration(setup: FederationSetup, lanes: list,
                         global_params: np.ndarray) -> dict[str, np.ndarray]:
    """Every client's calibration pairs (``_calibrate_client``), in cid order."""
    if setup.model_cfg.bypass_generation:
        return {"uncertainty": np.empty(0), "norm_err": np.empty(0)}
    pairs = list(_gather(lanes, ("calibrate", global_params,
                                 setup.server_cfg.rounds, None)).values())
    if not pairs:
        return {"uncertainty": np.empty(0), "norm_err": np.empty(0)}
    return {"uncertainty": np.concatenate([u for u, _ in pairs]),
            "norm_err": np.concatenate([e for _, e in pairs])}


def _evaluate_global(lanes: list, global_params: np.ndarray,
                     round_t: int) -> MetricsRow:
    """Client-averaged held-out metrics, weighted by client test size."""
    values = np.zeros(2)
    weight_sum = 0
    names = ("metric_1", "metric_2")
    for row, weight in _gather(lanes, ("evaluate", global_params, round_t,
                                       None)).values():
        if row is not None and weight > 0:
            values += weight * np.asarray(row.values)
            weight_sum += weight
            names = row.names
    if weight_sum == 0:
        return MetricsRow(names=names, values=(0.0, 0.0), valid=False)
    vals = values / weight_sum
    return MetricsRow(names=names, values=(float(vals[0]), float(vals[1])))


def fedavg_zero_setup(setup: FederationSetup) -> FederationSetup:
    """Baseline variant: zero-filled missing cells straight into the backbone,
    no generator/router/fallback, data-size FedAvg aggregation."""
    model_cfg = ModelConfig(**{**vars(setup.model_cfg), "bypass_generation": True})
    server_cfg = ServerConfig(**{**vars(setup.server_cfg), "mode": "fedavg"})
    train_cfg = TrainConfig(**{**vars(setup.train_cfg), "p_mask": 0.0})
    return FederationSetup(clients=setup.clients, model_cfg=model_cfg,
                           task_spec=setup.task_spec, server_cfg=server_cfg,
                           train_cfg=train_cfg, seed=setup.seed)


def fedavg_zero_baseline(setup: FederationSetup) -> RoundHistory:
    return run_federation(fedavg_zero_setup(setup))

"""Federated round loop: client training, reliability stats, aggregation.

A run is a sequence of phases, each one list of ``(kind, client, round)``
jobs: phase t trains round t and evaluates round t-1, which read the same
broadcast vector, and a last phase evaluates the final round and
calibrates. The jobs run on ``min(workers, clients, cores)`` processes. With
one, they run in the calling process in list order. With more, workers are
forked once at the start of the run, and the parent hands each next job to
whichever worker is free: train jobs by descending client size, then
evaluate jobs, then calibrate jobs. The broadcast vector, the clients'
update slots and their Adam state live in one shared block mapped before
the fork, so any worker can run any client's job and only small tuples
cross the pipes. A client is just its data: a job lays the model's
parameter layout over a row of the block. A train job lays it over its
client's update slot, loads the broadcast there and trains in place;
evaluate and calibrate jobs lay it over a read-only view of the
broadcast. Every job draws from its own seeded RNG stream, and the server
reduces results in ascending client order, so the outputs do not depend
on the worker count.

Every setting is read from the setup: the validated ``ExperimentConfig``
and the ``ModelConfig`` built from its task, its model section and the
data. ``federation.mode`` is the run's mode as given: ``reliability``
weights each client by its size and ``reliability_score``, ``fedavg`` and
``fedavg-zero`` by size alone, and ``fedavg-zero`` also bypasses
generation (``ModelConfig.bypass_generation``).
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import time
import traceback
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from . import encoding
from . import numerics as nx
from . import tasks as task_ops
from .fusion import normalized_errors, relative_recon_error
from .graphdata import MaskSet, MultimodalGraph, sample_artificial_mask
from .metrics import MetricsRow, evaluate_metrics
from .model import (ForwardBundle, ForwardPlan, GraphCaches, ModelConfig,
                    forward_pass, init_params, make_plan, score_recon_cells)
from .numerics import AdamState, GradientError, ParamStore, Tape
from .tasks import LossBreakdown

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig, FederationSection

_EPOCH_TAG = 0xC11E
_EVAL_TAG = 0xE7A1
_SERVER_TAG = 0x5E67
_CAL_TAG = 0xCA11
_CAL_DRAWS = 8  # fresh mask draws pooled by each client's calibration


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
class ClientData:
    """A client's induced graph plus its frozen train/test splits."""

    cid: int
    graph: MultimodalGraph
    caches: GraphCaches
    train_nodes: np.ndarray
    test_nodes: np.ndarray
    train_edges: np.ndarray
    test_edges: np.ndarray


def _node_splits(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    if n >= 5:
        a, b = int(0.6 * n), int(0.8 * n)
        return np.sort(perm[:a]), np.sort(perm[a:b]), np.sort(perm[b:])
    if n >= 3:
        return np.sort(perm[:-1]), np.empty(0, dtype=np.intp), perm[-1:]
    return np.sort(perm), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)


def build_client_data(cid: int, graph: MultimodalGraph, task: str, seed: int) -> ClientData:
    rng = np.random.default_rng([seed, cid, 0x5714])
    edges = graph.edges
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
                      train_edges=train_e, test_edges=test_e)


def _task_loss(params: ParamStore, bundle: ForwardBundle, data: ClientData,
               task: str, rng: np.random.Generator):
    graph = data.graph
    if task == "nc":
        return task_ops.nc_task_loss(params, bundle.refined, graph.labels,
                                     data.train_nodes)
    if task == "lp":
        return task_ops.lp_task_loss(bundle.refined, data.train_edges, graph, rng)
    if task == "mr":
        return task_ops.mr_task_loss(params, bundle.expert_flat, graph.n,
                                     data.train_nodes, refined=bundle.refined,
                                     labels=graph.labels)
    raise ValueError(f"unknown task {task!r}")


def _uploaded_errors(bundle: ForwardBundle, plan: ForwardPlan) -> tuple[float, float]:
    """The uploaded u and e (see ReliabilityStats) of one epoch's forward: u
    over effective-mask hidden cells, e as relative error over recon cells."""
    if bundle.uncertainty is None:
        return 0.0, 0.0
    u_vals = bundle.uncertainty.data.reshape(-1)
    hidden = plan.eff_flat == 0.0
    mean_u = float(u_vals[hidden].mean()) if hidden.any() else 0.0
    return mean_u, relative_recon_error(bundle.cell_errors, bundle.raw_cells,
                                        plan.recon_flat)


def client_local_round(setup: FederationSetup, store: ParamStore, adam: AdamState,
                       data: ClientData, round_t: int
                       ) -> tuple[ReliabilityStats, LossBreakdown]:
    """Run the local epochs on the broadcast model loaded in ``store``, which
    holds the update afterwards; return the uploaded stats and last losses."""
    cfg, model_cfg = setup.cfg, setup.model_cfg
    store.zero_grads()
    epochs = max(1, model_cfg.local_epochs)

    for epoch in range(epochs):
        rng = np.random.default_rng(
            [cfg.seed, data.cid, round_t, epoch, _EPOCH_TAG])
        if model_cfg.bypass_generation:
            masks = MaskSet.full_visibility(data.graph.natural_mask)
        else:
            masks = sample_artificial_mask(data.graph.natural_mask,
                                           cfg.missingness.p_mask, rng)
        plan = make_plan(data.graph, data.caches, masks, model_cfg, rng)

        with Tape() as tape:
            bundle = forward_pass(store, model_cfg, plan, round_t)
            try:
                task_loss = _task_loss(store, bundle, data, model_cfg.task, rng)
            except ValueError as exc:
                raise ClientRoundError(data.cid, str(exc)) from exc
            total, breakdown = task_ops.local_objective(
                model_cfg, task_loss, bundle.rec_loss, bundle.align_loss,
                bundle.route_loss)
            if not np.isfinite(total.data).all():
                raise ClientRoundError(
                    data.cid, f"non-finite loss at round {round_t} epoch {epoch}")
            if model_cfg.local_epochs > 0 and model_cfg.lr > 0:
                try:
                    tape.backward(total)
                except GradientError as exc:
                    raise ClientRoundError(data.cid, str(exc)) from exc

        if model_cfg.local_epochs > 0:
            grad = store.take_grads()
            nx.clip_grad_norm(grad, model_cfg.clip_norm)
            try:
                nx.adam_step(store, adam, grad, model_cfg.lr)
            except GradientError as exc:
                raise ClientRoundError(data.cid, str(exc)) from exc
            del grad
        if epoch == epochs - 1:
            mean_u, mean_err = _uploaded_errors(bundle, plan)
        # this epoch's forward and its plan's caches must not live on
        # through the next epoch's forward and backward
        del tape, bundle, plan

    natural = data.graph.natural_mask
    stats = ReliabilityStats(mean_uncertainty=mean_u, mean_recon_error=mean_err,
                             missing_ratio=float((natural == 0.0).mean()),
                             size=data.graph.n)
    return stats, breakdown


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


def reliability_score(stats: ReliabilityStats, cfg: FederationSection) -> float:
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


def evaluate_client(store: ParamStore, model_cfg: ModelConfig, data: ClientData,
                    round_t: int, seed: int
                    ) -> tuple[MetricsRow | None, int]:
    """Held-out metrics under natural visibility (no artificial masking)."""
    rng = np.random.default_rng([seed, data.cid, round_t, _EVAL_TAG])
    masks = MaskSet.full_visibility(data.graph.natural_mask)
    plan = make_plan(data.graph, data.caches, masks, model_cfg, rng)
    bundle = forward_pass(store, model_cfg, plan, round_t)
    graph, task = data.graph, model_cfg.task
    if task == "nc":
        if data.test_nodes.size == 0:
            return None, 0
        logits = task_ops.nc_logits(store, nx.rows(bundle.refined, data.test_nodes))
        return evaluate_metrics("nc", logits.data, graph.labels[data.test_nodes]), \
            int(data.test_nodes.size)
    if task == "lp":
        if data.test_edges.shape[0] == 0 or not graph.has_non_edge:
            return None, 0
        pos = nx.pair_dots(bundle.refined, data.test_edges).data.reshape(-1)
        # uniform non-edges, the first pos.size accepted from a stream of draws
        neg_pairs = task_ops.draw_non_edges(graph, pos.size, pos.size, rng)[:pos.size]
        neg = nx.pair_dots(bundle.refined, neg_pairs).data.reshape(-1)
        return evaluate_metrics("lp", (pos, neg), None), pos.size
    if task == "mr":
        if data.test_nodes.size == 0:
            return None, 0
        queries, gallery = task_ops.mr_embeddings(store, bundle.expert_flat, graph.n)
        sim = task_ops.cosine_matrix(nx.rows(queries, data.test_nodes),
                                     nx.rows(gallery, data.test_nodes))
        targets = np.arange(data.test_nodes.size)
        return evaluate_metrics("mr", sim.data, targets), int(data.test_nodes.size)
    raise ValueError(f"unknown task {task!r}")


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
    """Everything the round loop needs. ``model_cfg`` holds the task and
    every model, loss and training setting; the rest is read from ``cfg``,
    the validated experiment config."""

    clients: list[ClientData]  # by cid
    cfg: ExperimentConfig
    model_cfg: ModelConfig


# ---------------------------------------------------------------------------
# Jobs and the job runner
# ---------------------------------------------------------------------------

_JOIN_S = 10.0  # how long a closing worker may take to exit before it is killed


class _SharedBlock:
    """One anonymous shared mapping, made before any worker forks: the
    broadcast vector and, per client, its update slot, its Adam moments and
    its Adam step count. So any process of the run can train any client,
    and only job tuples and small outcomes cross the pipes."""

    def __init__(self, params: np.ndarray, clients: int):
        size, rows = params.size, 1 + 3 * clients
        block = np.frombuffer(mmap.mmap(-1, 8 * (rows * size + clients)))
        self.broadcast = block[:size]
        self.updates, self.m, self.v = block[size:rows * size].reshape(3, clients, size)
        self.steps = block[rows * size:]  # float64 holds every count exactly
        self.broadcast[:] = params


def _calibrate_client(setup: FederationSetup, store: ParamStore, data: ClientData,
                      round_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty and normalized reconstruction error of one client's
    recon cells under the final global model. Masks are resampled every
    epoch during training, so the natural population is pooled over
    ``_CAL_DRAWS`` fresh mask draws.

    No draw changes the natural mask, so the raw features are encoded once.
    Each draw scores its recon cells alone (``score_recon_cells``); their
    errors are min-max scaled per modality over that draw's recon cells,
    as in ``forward_pass``."""
    model_cfg = setup.model_cfg
    natural = data.graph.natural_mask
    raw = encoding.encode_modalities(store, data.graph, natural)
    cal_u: list[np.ndarray] = []
    cal_e: list[np.ndarray] = []
    for draw in range(_CAL_DRAWS):
        rng = np.random.default_rng(
            [setup.cfg.seed, data.cid, round_t, draw, _CAL_TAG])
        masks = sample_artificial_mask(natural, setup.cfg.missingness.p_mask, rng)
        plan = make_plan(data.graph, data.caches, masks, model_cfg, rng)
        cells = plan.recon_flat == 1.0
        if not cells.any():
            continue
        uncertainty, errors = score_recon_cells(store, model_cfg, plan, raw, round_t)
        cell_errors = np.zeros(cells.size)
        cell_errors[cells] = errors
        cal_u.append(uncertainty)
        cal_e.append(normalized_errors(cell_errors, plan.recon_flat,
                                       len(model_cfg.modalities))[cells])
    if not cal_u:
        return np.empty(0), np.empty(0)
    return np.concatenate(cal_u), np.concatenate(cal_e)


def _run_job(setup: FederationSetup, model: ParamStore, shared: _SharedBlock,
             job: tuple):
    """Run one ``(kind, cid, round_t)`` job on ``model``'s layout laid over
    a row of the block and return its outcome.

    - ``train``: the client's local round, trained in place in the client's
      update slot after loading the broadcast there; the Adam state stays
      in the block. The outcome is ``(stats, breakdown)``, or the message
      of the ``ClientRoundError`` that failed the round.
    - ``evaluate``: ``evaluate_client``'s (row, weight), and
    - ``calibrate``: ``_calibrate_client``'s (uncertainty, norm_err), both
      on a read-only view of the broadcast."""
    kind, cid, round_t = job
    data = setup.clients[cid]
    if kind == "train":
        store = model.over(shared.updates[cid])
        store.load(shared.broadcast)
        adam = AdamState(shared.m[cid], shared.v[cid], int(shared.steps[cid]))
        try:
            return client_local_round(setup, store, adam, data, round_t)
        except ClientRoundError as exc:
            return str(exc)
        finally:
            shared.steps[cid] = adam.step
    broadcast = shared.broadcast.view()
    broadcast.flags.writeable = False
    store = model.over(broadcast)
    if kind == "evaluate":
        return evaluate_client(store, setup.model_cfg, data, round_t, setup.cfg.seed)
    return _calibrate_client(setup, store, data, round_t)


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


def _worker(conn, run_job, inherited: list) -> None:
    """Worker main loop: run jobs until the parent sends None or closes its
    end. An exception is sent back, to be raised in the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    for other in inherited:  # earlier workers' parent ends, copied by the fork
        other.close()
    try:
        while (job := conn.recv()) is not None:
            try:
                reply = (True, run_job(job))
            except Exception as exc:
                reply = (False, _portable(exc))
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent has gone


def _lost(proc, job: tuple) -> FederationAborted:
    proc.join(_JOIN_S)
    kind, cid, _ = job
    return FederationAborted(f"the worker process running the {kind} job of "
                             f"client {cid} exited with code {proc.exitcode}")


def _dispatch(workers: dict, jobs: list) -> dict:
    """Run ``jobs`` on the workers ({parent end: process}), each next job
    going to whichever worker is free; return {job: outcome}."""
    todo, busy, outcomes = jobs[::-1], {}, {}
    free = list(workers)
    while todo or busy:
        while free and todo:
            conn, job = free.pop(), todo.pop()
            busy[conn] = job
            try:
                conn.send(job)
            except OSError:
                raise _lost(workers[conn], job) from None
        for conn in multiprocessing.connection.wait(list(busy)):
            job = busy.pop(conn)
            try:
                ok, value = conn.recv()
            except (EOFError, OSError):
                raise _lost(workers[conn], job) from None
            if not ok:
                raise value
            outcomes[job] = value
            free.append(conn)
    return outcomes


@contextlib.contextmanager
def _job_runner(count: int, run_job):
    """Yield the run's ``run(jobs) -> {job: outcome}``, which runs a phase's
    jobs with ``run_job`` on ``count`` processes: the calling process alone,
    in list order, or forked workers. Workers are stopped on the way out,
    killed if the run failed."""
    if count == 1:
        yield lambda jobs: {job: run_job(job) for job in jobs}
        return
    ctx = multiprocessing.get_context("fork")
    workers: dict = {}
    try:
        for _ in range(count):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_worker, daemon=True,
                               args=(child, run_job, list(workers)))
            proc.start()
            child.close()
            workers[conn] = proc
        yield lambda jobs: _dispatch(workers, jobs)
        for conn in workers:
            with contextlib.suppress(OSError):
                conn.send(None)
        for proc in workers.values():
            proc.join(_JOIN_S)
    finally:
        for conn, proc in workers.items():
            if proc.is_alive():
                proc.terminate()
                proc.join()
            conn.close()


def _mean_metrics(evaluations: list) -> MetricsRow:
    """Client-averaged held-out metrics, weighted by client test size."""
    values = np.zeros(2)
    weight_sum = 0
    names = ("metric_1", "metric_2")
    for row, weight in evaluations:
        if row is not None and weight > 0:
            values += weight * np.asarray(row.values)
            weight_sum += weight
            names = row.names
    if weight_sum == 0:
        return MetricsRow(names=names, values=(0.0, 0.0))
    vals = values / weight_sum
    return MetricsRow(names=names, values=(float(vals[0]), float(vals[1])))


def worker_count(setup: FederationSetup) -> int:
    """Processes that run the client jobs (1: no worker is forked)."""
    return min(setup.cfg.federation.workers, len(setup.clients), os.cpu_count() or 1)


def run_federation(setup: FederationSetup) -> RoundHistory:
    """Synchronous rounds: broadcast, local training, aggregate, evaluate.

    Phase t trains round t and evaluates round t-1, which read the same
    broadcast; a last phase evaluates the final round and calibrates."""
    server, seed = setup.cfg.federation, setup.cfg.seed
    history = RoundHistory(mode=server.mode, task=setup.model_cfg.task)
    model = init_params(setup.model_cfg, seed)  # the layout every job uses
    global_params = model.snapshot()
    num_clients = len(setup.clients)
    cids = range(num_clients)
    # longest jobs first: by descending client size, ties by cid
    by_size = sorted(cids, key=lambda c: (-setup.clients[c].graph.n, c))
    # a fresh block, so every run starts its clients' optimizers afresh
    shared = _SharedBlock(global_params, num_clients)
    pending = None  # the last round's record fields, waiting for its metrics
    run_job = functools.partial(_run_job, setup, model, shared)

    with _job_runner(worker_count(setup), run_job) as run_jobs:
        for round_t in range(server.rounds + 1):
            start = time.perf_counter()
            final = round_t == server.rounds
            if final:
                selected = []
            elif server.fraction < 1.0:
                rng = np.random.default_rng([seed, _SERVER_TAG, round_t])
                count = max(1, int(round(server.fraction * num_clients)))
                selected = sorted(rng.choice(num_clients, size=count, replace=False).tolist())
            else:
                selected = list(cids)
            calibrate = final and not setup.model_cfg.bypass_generation

            jobs = [("train", c, round_t) for c in by_size if c in selected]
            if pending is not None:
                jobs += [("evaluate", c, round_t - 1) for c in by_size]
            if calibrate:
                jobs += [("calibrate", c, round_t) for c in by_size]
            outcomes = run_jobs(jobs)

            if pending is not None:
                metrics = _mean_metrics([outcomes[("evaluate", c, round_t - 1)]
                                         for c in cids])
                history.records.append(RoundRecord(**pending, metrics=metrics))
            if final:
                pairs = ([outcomes[("calibrate", c, round_t)] for c in cids]
                         if calibrate else [(np.empty(0), np.empty(0))])
                history.calibration = {"uncertainty": np.concatenate([u for u, _ in pairs]),
                                       "norm_err": np.concatenate([e for _, e in pairs])}
                break

            trained = {c: outcomes[("train", c, round_t)] for c in selected}
            results = {c: r for c, r in trained.items() if not isinstance(r, str)}
            errors = {c: r for c, r in trained.items() if isinstance(r, str)}
            if not results:
                raise FederationAborted(
                    f"every client failed in round {round_t}: {errors}")

            scores = {c: (reliability_score(stats, server)
                          if server.mode == "reliability" else 1.0)
                      for c, (stats, _) in results.items()}
            sizes = {c: stats.size for c, (stats, _) in results.items()}
            losses = {c: breakdown for c, (_, breakdown) in results.items()}
            global_params, omega = aggregate({c: shared.updates[c] for c in results},
                                             sizes, scores, server.eps)
            shared.broadcast[:] = global_params

            total_size = sum(sizes.values())
            mean_loss = LossBreakdown(*(
                sum(getattr(losses[c], f.name) * sizes[c] for c in results)
                / total_size for f in fields(LossBreakdown)))
            pending = dict(round_index=round_t,
                           client_frac=len(selected) / num_clients, omega=omega,
                           losses=losses, mean_loss=mean_loss, errors=errors)
            history.timings_ms.append(1000.0 * (time.perf_counter() - start))

    history.final_params = global_params
    return history


def fedavg_zero_setup(setup: FederationSetup) -> FederationSetup:
    """Baseline variant: zero-filled missing cells straight into the backbone,
    no generator/router/fallback, data-size FedAvg aggregation. The caller's
    setup and config are left as they are."""
    federation = replace(setup.cfg.federation, mode="fedavg-zero")
    return replace(setup, cfg=replace(setup.cfg, federation=federation),
                   model_cfg=replace(setup.model_cfg, bypass_generation=True))

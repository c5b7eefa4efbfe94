"""Multimodal graph data model, synthetic generation, partitioning, masks.

Graphs are small enough to live fully in memory; everything here is a pure
function of its seed, so the parent and its forked client workers agree.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # config imports this module
    from .config import MissingnessSection

GRAPH_SCHEMA_VERSION = 1

MISSING_MODES = ("node", "client", "mixed")


class GraphFileError(ValueError):
    """Malformed or incompatible graph file."""


@dataclass
class Modality:
    name: str
    dim: int
    features: np.ndarray  # [N, dim]


@dataclass
class MultimodalGraph:
    """Undirected graph with one feature matrix per modality.

    ``natural_mask[i, m] == 0`` marks modality m of node i as absent in the
    data itself; the corresponding feature row is an all-zero placeholder
    and must never be read as data.
    """

    n: int
    edges: np.ndarray  # [E, 2] int64; each undirected edge once, either way round
    modalities: list[Modality]
    labels: np.ndarray | None  # [N] nonnegative class ids
    natural_mask: np.ndarray  # [N, M] in {0, 1}
    # sorted keys min(u, v) * n + max(u, v) of the undirected edges
    edge_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.size and (edges.ndim != 2 or edges.shape[1] != 2):
            raise ValueError(f"edges must be [E, 2], got shape {edges.shape}")
        self.edges = edges.reshape(-1, 2)
        lo, hi = self.edges.min(axis=1), self.edges.max(axis=1)
        loop, out = lo == hi, (lo < 0) | (hi >= self.n)
        # an invalid edge gets a key of its own, so only valid edges repeat
        keys = np.where(loop | out, -1 - np.arange(lo.size), lo * self.n + hi)
        repeat = np.ones(lo.size, dtype=bool)
        self.edge_keys, first = np.unique(keys, return_index=True)
        repeat[first] = False
        bad = np.flatnonzero(loop | out | repeat)  # named in list order
        if bad.size:
            k = bad[0]
            u, v = self.edges[k]
            what = "out of range" if out[k] else "listed twice"
            raise ValueError(f"self-loop on node {u}" if loop[k] else f"edge ({u}, {v}) {what}")
        names = [mod.name for mod in self.modalities]
        if not names or len(set(names)) < len(names):
            raise ValueError(f"need one or more modalities with distinct names, got {names}")
        if self.natural_mask.shape != (self.n, self.num_modalities):
            raise ValueError("natural mask shape mismatch")
        if self.labels is not None:
            if self.labels.shape != (self.n,) or self.labels.dtype.kind not in "iu":
                raise ValueError(f"labels must be {self.n} integers, got "
                                 f"shape {self.labels.shape} of {self.labels.dtype}")
            if self.n and self.labels.min() < 0:
                raise ValueError("labels must be nonnegative")
        for mod in self.modalities:
            if mod.features.shape != (self.n, mod.dim):
                raise ValueError(f"feature shape mismatch for modality {mod.name}")
            if not np.isfinite(mod.features).all():
                raise ValueError(f"non-finite features in modality {mod.name}")
        self.set_natural_mask(self.natural_mask)

    @property
    def num_modalities(self) -> int:
        return len(self.modalities)

    @property
    def has_non_edge(self) -> bool:
        """Whether some pair of distinct nodes is not an edge."""
        return self.edge_keys.size < self.n * (self.n - 1) // 2

    def non_edges(self, pairs: np.ndarray) -> np.ndarray:
        """The rows of ``pairs`` [B, 2] that join two distinct non-adjacent nodes."""
        keys = self.edge_keys
        u, v = pairs[:, 0], pairs[:, 1]
        pair_keys = np.minimum(u, v) * self.n + np.maximum(u, v)
        at = np.minimum(np.searchsorted(keys, pair_keys), max(keys.size - 1, 0))
        is_edge = keys[at] == pair_keys if keys.size else np.zeros(u.shape, dtype=bool)
        return pairs[(u != v) & ~is_edge]

    def set_natural_mask(self, mask: np.ndarray) -> None:
        """Install ``mask`` as the natural mask and zero the absent rows."""
        if not np.isin(mask, (0.0, 1.0)).all():
            raise ValueError("natural mask must be 0/1 valued")
        self.natural_mask[:] = mask
        for m, mod in enumerate(self.modalities):
            mod.features[self.natural_mask[:, m] == 0] = 0.0


@dataclass
class MaskSet:
    """Natural mask r, artificial keep-mask, effective mask, recon indicator.

    effective = natural * keep and recon = natural - effective hold cellwise,
    so a naturally missing cell can never become a reconstruction target.
    """

    natural: np.ndarray
    keep: np.ndarray
    effective: np.ndarray = field(init=False)
    recon: np.ndarray = field(init=False)

    def __post_init__(self):
        nat = np.asarray(self.natural, dtype=np.float64)
        keep = np.asarray(self.keep, dtype=np.float64)
        if nat.shape != keep.shape:
            raise ValueError("mask shapes disagree")
        if not (np.isin(nat, (0.0, 1.0)).all() and np.isin(keep, (0.0, 1.0)).all()):
            raise ValueError("masks must be 0/1 valued")
        self.natural = nat
        self.keep = keep
        self.effective = nat * keep
        self.recon = nat - self.effective

    @classmethod
    def full_visibility(cls, natural: np.ndarray) -> "MaskSet":
        return cls(natural=natural, keep=np.ones_like(natural, dtype=np.float64))


@dataclass
class ClientPartition:
    """Disjoint node cover of a graph's nodes."""

    node_lists: list[np.ndarray]  # per client, its node ids ascending

    @property
    def num_clients(self) -> int:
        return len(self.node_lists)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

_PAIR_CHUNK = 1 << 20  # node pairs scored per uniform draw in the SBM


def generate_sbm_multimodal(blocks: int, nodes_per_block: int, p_in: float,
                            p_out: float, d_img: int = 512, d_txt: int = 768,
                            noise: float = 2.0, seed: int = 0,
                            latent_dim: int = 16) -> MultimodalGraph:
    """Stochastic block model with two feature channels per node.

    Both channels are fixed random linear projections of a shared per-block
    latent center plus isotropic noise, so one channel is recoverable from
    the other (and from same-block neighbors) by construction. Labels are
    block ids.

    Pair (i, j), i < j, is an edge when its uniform is below ``p_in`` (same
    block) or ``p_out``. The uniforms are drawn in row-major upper-triangle
    order, ``_PAIR_CHUNK`` at a time, which gives the same doubles as one
    draw. Because ``p_out <= p_in``, only the pairs whose uniform is below
    ``p_in`` are mapped to (i, j) and tested, so the working memory is
    O(chunk + E) beyond the features, not O(N²).
    """
    if nodes_per_block < 2:
        raise ValueError("nodes_per_block must be at least 2")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")
    rng = np.random.default_rng([seed, 0x5B3])
    n = blocks * nodes_per_block
    labels = np.repeat(np.arange(blocks), nodes_per_block)

    centers = rng.normal(size=(blocks, latent_dim))
    proj_img = rng.normal(size=(latent_dim, d_img)) / np.sqrt(latent_dim)
    proj_txt = rng.normal(size=(latent_dim, d_txt)) / np.sqrt(latent_dim)
    latent = centers[labels]
    feat_img = rng.normal(size=(n, d_img))
    feat_img *= noise
    feat_img += latent @ proj_img
    feat_txt = rng.normal(size=(n, d_txt))
    feat_txt *= noise
    feat_txt += latent @ proj_txt

    rows = np.arange(n - 1, dtype=np.int64)
    row_start = rows * (2 * n - rows - 1) // 2  # flat index of pair (i, i + 1)
    total = n * (n - 1) // 2
    chunks = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, total, _PAIR_CHUNK):
        u = rng.random(min(_PAIR_CHUNK, total - lo))
        cand = np.flatnonzero(u < p_in)
        flat = cand + lo
        i = np.searchsorted(row_start, flat, side="right") - 1
        j = flat - row_start[i] + i + 1
        hit = u[cand] < np.where(labels[i] == labels[j], p_in, p_out)
        chunks.append(np.stack([i[hit], j[hit]], axis=1))

    return MultimodalGraph(
        n=n,
        edges=np.concatenate(chunks),
        modalities=[Modality("img", d_img, feat_img), Modality("txt", d_txt, feat_txt)],
        labels=labels,
        natural_mask=np.ones((n, 2)),
    )


def partition_dirichlet(graph: MultimodalGraph, clients: int, alpha: float,
                        seed: int = 0) -> ClientPartition:
    """Label-skewed client split: per class, client shares ~ Dirichlet(alpha).

    Draws are resampled until every client owns at least one node; after
    1000 failed draws this raises ValueError. Cross client edges are
    dropped; each client keeps only its induced subgraph.
    """
    if clients < 1:
        raise ValueError("need at least one client")
    if clients > graph.n:
        raise ValueError("more clients than nodes")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng([seed, 0xD17])
    labels = graph.labels if graph.labels is not None else np.zeros(graph.n, dtype=np.int64)

    for _attempt in range(1000):
        assign = np.full(graph.n, -1, dtype=np.int64)
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            shares = rng.dirichlet(np.full(clients, alpha))
            counts = np.floor(shares * idx.size).astype(np.int64)
            # distribute the remainder to the largest fractional shares
            frac = shares * idx.size - counts
            counts[np.argsort(-frac)[:idx.size - counts.sum()]] += 1
            assign[idx] = np.repeat(np.arange(clients), counts)
        sizes = np.bincount(assign, minlength=clients)
        if sizes.min() >= 1:
            break
    else:
        raise ValueError(f"could not draw a partition covering all {clients} "
                         f"clients at alpha {alpha}")

    return ClientPartition(node_lists=[np.flatnonzero(assign == k) for k in range(clients)])


# ---------------------------------------------------------------------------
# Missingness and mask algebra
# ---------------------------------------------------------------------------


def apply_natural_missingness(graph: MultimodalGraph, missingness: MissingnessSection,
                              seed: int, partition: ClientPartition | None = None
                              ) -> np.ndarray:
    """Draw the natural availability mask for a graph from the config's
    ``missingness`` section (its ``rate``, ``mode`` and ``per_client_rates``).

    node: each (node, modality) cell goes missing independently with
    probability ``rate``. client: one whole modality is dropped on a
    ceil(rate * K) subset of clients. mixed: both effects. Per-client rates,
    when given, replace the single node-level rate.
    """
    rng = np.random.default_rng([seed, 0x315])
    n, m = graph.n, graph.num_modalities
    mask = np.ones((n, m))

    if missingness.per_client_rates is not None:
        if partition is None:
            raise ValueError("per-client rates require a partition")
        if len(missingness.per_client_rates) != partition.num_clients:
            raise ValueError("one rate per client required")
        for nodes, rate in zip(partition.node_lists, missingness.per_client_rates):
            cells = rng.random((len(nodes), m)) < rate
            mask[nodes] = np.where(cells, 0.0, mask[nodes])
        return mask

    if missingness.mode in ("node", "mixed"):
        mask[rng.random((n, m)) < missingness.rate] = 0.0
    if missingness.mode in ("client", "mixed"):
        if partition is None:
            raise ValueError(f"{missingness.mode!r} missingness requires a partition")
        k = partition.num_clients
        affected = rng.permutation(k)[: math.ceil(missingness.rate * k)]
        for cid in affected:
            dropped = int(rng.integers(m))  # at most one modality per client
            mask[partition.node_lists[cid], dropped] = 0.0
    return mask


def empirical_missing_fraction(mask: np.ndarray) -> float:
    return float(1.0 - mask.mean())


def sample_artificial_mask(natural: np.ndarray, p_mask: float,
                           rng: np.random.Generator) -> MaskSet:
    """Hide observed cells with probability ``p_mask`` to create recon targets.

    Naturally missing cells keep keep-mask 1 (a no-op: they stay invisible
    and never enter the reconstruction indicator).
    """
    if not (0.0 <= p_mask < 1.0):
        raise ValueError("p_mask must lie in [0, 1)")
    keep = np.ones_like(natural, dtype=np.float64)
    observed = natural == 1.0
    keep[observed] = (rng.random(int(observed.sum())) >= p_mask).astype(np.float64)
    return MaskSet(natural=natural, keep=keep)


def missing_ratios(masks: MaskSet) -> np.ndarray:
    """Per-node fraction of modalities invisible under the effective mask."""
    m = masks.effective.shape[1]
    return (m - masks.effective.sum(axis=1)) / m


# ---------------------------------------------------------------------------
# Induced subgraphs
# ---------------------------------------------------------------------------


def induced_subgraph(graph: MultimodalGraph, nodes: np.ndarray,
                     modalities: list[Modality] | None = None) -> MultimodalGraph:
    """Relabel a node subset to 0..len-1 and keep internal edges only, in order.

    The subgraph's arrays are the gathers themselves (a gather already
    copies), so it shares no memory with ``graph``. ``modalities``, when
    given, are the subset's feature rows, already cut."""
    idx = np.asarray(nodes, dtype=np.intp)
    remap = np.full(graph.n, -1, dtype=np.int64)
    remap[idx] = np.arange(idx.size)
    edges = remap[graph.edges]
    if modalities is None:
        modalities = [Modality(mod.name, mod.dim, mod.features[idx])
                      for mod in graph.modalities]
    labels = graph.labels[idx] if graph.labels is not None else None
    return MultimodalGraph(n=idx.size, edges=edges[(edges >= 0).all(axis=1)],
                           modalities=modalities, labels=labels,
                           natural_mask=graph.natural_mask[idx])


def client_subgraphs(graph: MultimodalGraph,
                     node_lists: list[np.ndarray]) -> list[MultimodalGraph]:
    """The ``induced_subgraph`` of each node list. The features are cut one
    modality at a time, for every list, and ``graph`` gives up a modality's
    matrix as soon as it is cut, so the graph's features and the subgraphs'
    copies are never all held at once. ``graph`` is left with no modality."""
    idxs = [np.asarray(nodes, dtype=np.intp) for nodes in node_lists]
    cut: list[list[Modality]] = [[] for _ in idxs]
    while graph.modalities:
        mod = graph.modalities.pop(0)
        for part, idx in zip(cut, idxs):
            part.append(Modality(mod.name, mod.dim, mod.features[idx]))
        del mod
    return [induced_subgraph(graph, idx, part) for idx, part in zip(idxs, cut)]


# ---------------------------------------------------------------------------
# File IO (JSON, schema v1)
# ---------------------------------------------------------------------------


def save_graph(graph: MultimodalGraph, path: str) -> None:
    doc = {
        "schema": GRAPH_SCHEMA_VERSION,
        "n": graph.n,
        "modalities": [
            {"name": mod.name, "dim": mod.dim,
             "features": mod.features.tolist()}
            for mod in graph.modalities
        ],
        "edges": graph.edges.tolist(),
        "labels": graph.labels.tolist() if graph.labels is not None else None,
        "natural_mask": graph.natural_mask.astype(int).tolist(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    os.replace(tmp, path)


def _int(value, what: str) -> int:
    """A JSON integer (not a boolean)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer")
    return value


def _int_list(value, what: str) -> np.ndarray:
    """A JSON list of integers (not booleans) as an int64 array."""
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ValueError(f"{what} must be a list of integers")
    return np.asarray(value, dtype=np.int64)


def _str(value, what: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string")
    return value


def load_graph(path: str) -> MultimodalGraph:
    """Read a schema-v1 graph file; keys it does not use are ignored."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFileError(f"cannot read graph file {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != GRAPH_SCHEMA_VERSION:
        raise GraphFileError(
            f"unsupported graph schema {doc.get('schema') if isinstance(doc, dict) else '?'} "
            f"(expected {GRAPH_SCHEMA_VERSION})")
    try:
        n = _int(doc["n"], "n")
        mods = [Modality(_str(m["name"], "modality name"), _int(m["dim"], "dim"),
                         np.asarray(m["features"], dtype=np.float64))
                for m in doc["modalities"]]
        edges = np.asarray([_int_list(row, "edges") for row in doc["edges"]], dtype=np.int64)
        labels = None if doc["labels"] is None else _int_list(doc["labels"], "labels")
        mask = np.asarray(doc["natural_mask"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphFileError(f"malformed graph file {path!r}: {exc}") from exc
    if mask.shape != (n, len(mods)):
        raise GraphFileError(f"natural_mask in {path!r} has shape {mask.shape}, "
                             f"expected ({n}, {len(mods)})")
    for m_idx, mod in enumerate(mods):
        if mod.features.shape != (n, mod.dim):
            raise GraphFileError(f"features of modality {mod.name!r} in {path!r} have "
                                 f"shape {mod.features.shape}, expected ({n}, {mod.dim})")
        bad = (mask[:, m_idx] == 0) & np.any(mod.features != 0.0, axis=1)
        if bad.any():
            raise GraphFileError(
                f"modality {mod.name!r} has nonzero features at naturally missing cells")
    try:
        graph = MultimodalGraph(n=n, edges=edges, modalities=mods, labels=labels,
                                natural_mask=mask)
    except ValueError as exc:
        raise GraphFileError(f"invalid graph in {path!r}: {exc}") from exc
    # the classifier head has max(label) + 1 outputs, so bound the class ids
    if labels is not None and n and labels.max() >= n:
        raise GraphFileError(f"labels in {path!r} must be class ids below n = {n}, "
                             f"got {labels.max()}")
    return graph

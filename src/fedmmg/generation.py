"""Stage 2: context banks, cross-modal queries, gated warmup generation.

Cells are flattened as g = modality * N + node throughout. Each cell's bank
holds the node's other visible modality tokens plus a capped sample of
visible neighbor tokens; the cell's own token is never admitted, which is
what makes masked reconstruction leak-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .numerics import MASK_NEG, AttentionParams, ParamStore, Tensor, const

REC_EPS = 1e-12


@dataclass
class ContextBank:
    """Token sources for one (node, target modality) cell.

    ``tokens`` lists (node, modality) pairs; the additive mask is 0 at every
    included slot. ``empty`` marks a bank with no usable token at all, in
    which case generation falls back to the anchor/self-context branch.
    """

    tokens: list[tuple[int, int]]
    additive_mask: np.ndarray
    empty: bool


def build_context_bank(node: int, target: int, adjacency: list[list[int]],
                       eff: np.ndarray, cap: int,
                       rng: np.random.Generator) -> ContextBank:
    """Enumerate bank tokens for one cell: own other-modality tokens plus at
    most ``cap`` visible neighbor tokens sampled without replacement."""
    if cap < 0:
        raise ValueError("neighbor cap must be nonnegative")
    m_count = eff.shape[1]
    tokens = [(node, m) for m in range(m_count)
              if m != target and eff[node, m] == 1.0]
    candidates = [(j, m) for j in adjacency[node]
                  for m in range(m_count) if eff[j, m] == 1.0]
    if len(candidates) > cap:
        picks = rng.choice(len(candidates), size=cap, replace=False)
        candidates = [candidates[p] for p in sorted(picks)]
    tokens.extend(candidates)
    return ContextBank(tokens=tokens,
                       additive_mask=np.zeros(len(tokens)),
                       empty=len(tokens) == 0)


@dataclass
class BankBatch:
    """All banks of a graph, padded to a common width for batched attention."""

    token_index: np.ndarray    # [G, S] into the stacked context matrix
    additive_mask: np.ndarray  # [G, S]; 0 usable, MASK_NEG padding
    empty: np.ndarray          # [G] 1.0 where the bank has no token
    width: int


def build_bank_batch(adjacency: list[list[int]], eff: np.ndarray, cap: int,
                     rng: np.random.Generator) -> BankBatch:
    """Build every cell's bank; slot indices point into vstack(contexts) with
    one extra all-zero row appended at index N * M for padding."""
    n, m_count = eff.shape
    banks = [build_context_bank(i, m, adjacency, eff, cap, rng)
             for m in range(m_count) for i in range(n)]
    width = max(1, max(len(b.tokens) for b in banks))
    pad_row = n * m_count
    g_count = n * m_count
    index = np.full((g_count, width), pad_row, dtype=np.intp)
    mask = np.full((g_count, width), MASK_NEG)
    empty = np.zeros(g_count)
    for g, bank in enumerate(banks):
        if bank.empty:
            empty[g] = 1.0
            continue
        for s, (j, m) in enumerate(bank.tokens):
            index[g, s] = m * n + j
            mask[g, s] = 0.0
    return BankBatch(token_index=index, additive_mask=mask, empty=empty, width=width)


def build_query(params: ParamStore, excl_flat: Tensor, eff: np.ndarray,
                m_count: int) -> Tensor:
    """Q = W_q [excl-context || mask-pattern embedding || modality embedding]."""
    n = eff.shape[0]
    mask_embed = nx.matmul(const(eff), params["gen.mask_embed.w"])   # [N, e]
    mask_tiled = nx.concat([mask_embed] * m_count, axis=0)           # [G, e]
    ones_col = const(np.ones((n, 1)))
    mod_rows = [nx.matmul(ones_col, nx.reshape(nx.rows(params["gen.mod_embed"], [m]), (1, -1)))
                for m in range(m_count)]
    mod_tiled = nx.concat(mod_rows, axis=0)                          # [G, e]
    q_in = nx.concat([excl_flat, mask_tiled, mod_tiled], axis=1)
    return nx.linear(q_in, params["gen.query.w"], params["gen.query.b"])


def warmup_coefficient(round_t: int, warmup_rounds: int) -> float:
    """Linear schedule min(1, t / T_w)."""
    if warmup_rounds <= 0:
        return 1.0
    return min(1.0, round_t / warmup_rounds)


def generate_modalities(params: ParamStore, queries: Tensor, banks: BankBatch,
                        contexts: list[Tensor], excl_flat: Tensor,
                        anchor_flat: Tensor, round_t: int, warmup_rounds: int,
                        heads: int) -> tuple[Tensor, float, np.ndarray]:
    """Gated mixture of attended evidence, self context, and anchors.

    Empty banks force the gate to zero so those cells use the pure
    self-context branch inside the warmed-up term.
    """
    n, d = contexts[0].shape
    g_count = queries.shape[0]
    stacked = nx.concat(list(contexts) + [const(np.zeros((1, d)))], axis=0)
    tokens = nx.reshape(nx.rows(stacked, banks.token_index.reshape(-1)),
                        (g_count, banks.width, d))
    att = AttentionParams(wq=params["gen.att.wq"], wk=params["gen.att.wk"],
                          wv=params["gen.att.wv"], wo=params["gen.att.wo"])
    evidence, att_weights = nx.attention_batched(queries, tokens, tokens,
                                                 banks.additive_mask, heads, att)

    self_ctx = nx.matmul(excl_flat, params["gen.self_proj.w"])
    gate = nx.sigmoid(nx.linear(nx.concat([evidence, self_ctx], axis=1),
                                params["gen.gate.w"], params["gen.gate.b"]))
    usable = const((1.0 - banks.empty).reshape(-1, 1))
    gate = nx.mul(gate, usable)

    gamma = warmup_coefficient(round_t, warmup_rounds)
    one = const(np.ones((1, 1)))
    warmed = nx.add(nx.mul(gate, evidence), nx.mul(nx.sub(one, gate), self_ctx))
    anchored = nx.matmul(anchor_flat, params["gen.anchor_proj.w"])
    generated = nx.add(nx.scale(warmed, gamma), nx.scale(anchored, 1.0 - gamma))
    return generated, gamma, att_weights


def squared_cell_errors(generated: Tensor, raw_flat: Tensor,
                        frozen_targets: np.ndarray | None = None) -> Tensor:
    """Per-cell squared distance to the stop-gradient reconstruction target.

    Gradient checks pass the base-point targets explicitly so that finite
    differences see the same frozen-target objective the tape differentiates.
    """
    target = const(frozen_targets) if frozen_targets is not None \
        else nx.stop_gradient(raw_flat)
    diff = nx.sub(generated, target)
    return nx.sum_axis(nx.mul(diff, diff), -1, keepdims=True)  # [G, 1]


def reconstruction_loss(cell_errors: Tensor, recon_flat: np.ndarray) -> Tensor:
    """Mean squared error over artificially masked cells only."""
    total = nx.total_sum(nx.mul(cell_errors, const(recon_flat.reshape(-1, 1))))
    return nx.scale(total, 1.0 / (float(recon_flat.sum()) + REC_EPS))


def alignment_loss(params: ParamStore, raw_flat: Tensor, generated: Tensor,
                   eff: np.ndarray) -> Tensor:
    """Mean (1 - cosine) over all unordered modality pairs of each node,
    with visible cells contributing their raw embedding and invisible ones
    their generated stand-in."""
    n, m_count = eff.shape
    eff_col = const(eff.T.reshape(-1, 1))
    one = const(np.ones((1, 1)))
    blended = nx.add(nx.mul(eff_col, raw_flat),
                     nx.mul(nx.sub(one, eff_col), generated))
    projected = nx.matmul(blended, params["gen.align.w"])

    terms = []
    for m_a in range(m_count):
        for m_b in range(m_a + 1, m_count):
            rows_a = np.arange(m_a * n, (m_a + 1) * n)
            rows_b = np.arange(m_b * n, (m_b + 1) * n)
            cos = nx.cosine_rows(nx.rows(projected, rows_a), nx.rows(projected, rows_b))
            terms.append(nx.sub(const(np.ones_like(cos.data)), cos))
    if not terms:
        return const(np.asarray(0.0))
    return nx.mean(nx.concat(terms, axis=0))

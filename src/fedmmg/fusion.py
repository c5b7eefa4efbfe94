"""Stage 3: recovery uncertainty, two-expert routing, reliability fusion.

Visible cells carry uncertainty exactly 0 by a hard branch (a constant mask,
not a learned behavior). The router blends an observed and a recovered
expert; per-node modality weights decay exponentially with uncertainty, and
a gated structural fallback takes over for badly covered nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nx
from .numerics import ParamStore, Tensor, const

FUSE_EPS = 1e-15
ROUTE_EPS = 1e-12


def _mlp2(params: ParamStore, prefix: str, pieces: list[Tensor]) -> Tensor:
    """Two-layer perceptron over the column-wise concatenation of ``pieces``."""
    hidden = nx.relu(nx.linear(pieces, params[f"{prefix}.l1.w"],
                               params[f"{prefix}.l1.b"]))
    return nx.linear(hidden, params[f"{prefix}.l2.w"], params[f"{prefix}.l2.b"])


def estimate_uncertainty(params: ParamStore, generated: Tensor, excl_flat: Tensor,
                         anchor_flat: Tensor, eff_flat: np.ndarray) -> Tensor:
    """Sigmoid uncertainty head over invisible cells; exact 0 at visible ones."""
    raw = nx.sigmoid(_mlp2(params, "unc", [generated, excl_flat, anchor_flat]))
    return nx.mul(raw, const((1.0 - eff_flat).reshape(-1, 1)))


def route(params: ParamStore, eff_flat: np.ndarray, uncertainty: Tensor,
          rho_nodes: np.ndarray, rho_client: float, temperature: float,
          m_count: int) -> Tensor:
    """Observed/recovered weights from visibility, uncertainty, missing ratios."""
    if temperature <= 0:
        raise ValueError("router temperature must be positive")
    g_count = eff_flat.size
    rho_tiled = np.tile(rho_nodes.reshape(-1, 1), (m_count, 1))
    feats = [
        const(eff_flat.reshape(-1, 1)),
        uncertainty,
        const(rho_tiled),
        const(np.full((g_count, 1), rho_client)),
    ]
    return nx.softmax(_mlp2(params, "router", feats), axis=-1,
                      temperature=temperature)


def expert_mix(params: ParamStore, raw_flat: Tensor, generated: Tensor,
               weights: Tensor, eff_flat: np.ndarray) -> Tensor:
    """Visible cells mix both experts; invisible ones use the recovered expert
    alone (their routing weights are unused by construction)."""
    e_obs = nx.relu(nx.linear(raw_flat, params["expert.obs.w"], params["expert.obs.b"]))
    e_rec = nx.relu(nx.linear(generated, params["expert.rec.w"], params["expert.rec.b"]))
    by_expert = nx.swapaxes(weights, 0, 1)                # [2, G]
    w_obs = nx.swapaxes(nx.rows(by_expert, [0]), 0, 1)    # [G, 1]
    w_rec = nx.swapaxes(nx.rows(by_expert, [1]), 0, 1)
    vis = const(eff_flat.reshape(-1, 1))
    inv = const((1.0 - eff_flat).reshape(-1, 1))
    mixed = nx.add(nx.mul(w_obs, e_obs), nx.mul(w_rec, e_rec))
    return nx.add(nx.mul(vis, mixed), nx.mul(inv, e_rec))


def normalized_errors(cell_errors: np.ndarray, recon_flat: np.ndarray,
                      m_count: int) -> np.ndarray:
    """Per-modality min-max scaling of squared errors over this batch's
    artificially masked cells, clamped to [0, 1]. Cells outside the
    reconstruction set get 0."""
    g_count = cell_errors.size
    n = g_count // m_count
    out = np.zeros(g_count)
    err = cell_errors.reshape(m_count, n)
    rec = recon_flat.reshape(m_count, n)
    for m in range(m_count):
        cells = rec[m] == 1.0
        if not cells.any():
            continue
        vals = err[m, cells]
        lo, hi = vals.min(), vals.max()
        scaled = np.clip((vals - lo) / (hi - lo + 1e-12), 0.0, 1.0)
        block = np.zeros(n)
        block[cells] = scaled
        out[m * n:(m + 1) * n] = block
    return out


def relative_recon_error(cell_errors: np.ndarray, raw_cells: np.ndarray,
                         recon_flat: np.ndarray) -> float:
    """Mean of min(1, ||g - h||^2 / ||h||^2) over the reconstruction cells.

    ``cell_errors`` holds ||g - h||^2 per flat cell and ``raw_cells`` the
    targets h [G, d]. Unlike ``normalized_errors`` this is scaled by each
    cell's own target norm, not by the batch's error range, so it can be
    compared across clients. Returns 0 when no cell is a target.
    """
    cells = recon_flat == 1.0
    if not cells.any():
        return 0.0
    target_sq = (raw_cells[cells] ** 2).sum(axis=1)
    ratio = cell_errors[cells] / np.maximum(target_sq, np.finfo(float).tiny)
    return float(np.minimum(ratio, 1.0).mean())


def routing_loss(uncertainty: Tensor, norm_err_flat: np.ndarray,
                 recon_flat: np.ndarray, weights: Tensor,
                 lambda_bal: float) -> tuple[Tensor, Tensor, Tensor]:
    """Calibration toward normalized errors plus expert load balancing."""
    rec = const(recon_flat.reshape(-1, 1))
    diff = nx.sub(uncertainty, const(norm_err_flat.reshape(-1, 1)))
    unc = nx.scale(nx.total_sum(nx.mul(rec, nx.mul(diff, diff))),
                   1.0 / (float(recon_flat.sum()) + ROUTE_EPS))
    mean_w = nx.scale(nx.sum_axis(weights, 0), 1.0 / weights.shape[0])
    dev = nx.sub(mean_w, const(np.array([0.5, 0.5])))
    bal = nx.total_sum(nx.mul(dev, dev))
    total = nx.add(unc, nx.scale(bal, lambda_bal))
    return total, unc, bal


def fuse(params: ParamStore, expert_flat: Tensor, uncertainty: Tensor,
         rho_nodes: np.ndarray, struct_repr: Tensor, m_count: int
         ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Reliability-weighted modality fusion with a structural fallback gate.

    Returns the fused node matrix plus detached reliability weights [N, M]
    and fallback coefficients [N].
    """
    g_count = uncertainty.shape[0]
    n = g_count // m_count
    u3 = nx.reshape(uncertainty, (m_count, n, 1))
    e = nx.exp(nx.neg(u3))
    denom = nx.add(nx.sum_axis(e, 0, keepdims=True), const(np.asarray(FUSE_EPS)))
    rel = nx.div(e, denom)                                     # [M, N, 1]

    f3 = nx.reshape(expert_flat, (m_count, n, -1))
    combined = nx.sum_axis(nx.mul(rel, f3), 0)                 # [N, d]

    mean_u = nx.scale(nx.sum_axis(u3, 0), 1.0 / m_count)       # [N, 1]
    gate_in = nx.concat([const(rho_nodes.reshape(-1, 1)), mean_u], axis=1)
    alpha = nx.sigmoid(nx.linear(gate_in, params["fallback.w"], params["fallback.b"]))

    e_struct = nx.relu(nx.linear(struct_repr, params["expert.struct.w"],
                                 params["expert.struct.b"]))
    one = const(np.ones((1, 1)))
    blend = nx.add(nx.mul(nx.sub(one, alpha), combined), nx.mul(alpha, e_struct))
    fused = nx.layer_norm(blend, params["fuse.ln_g"], params["fuse.ln_b"])
    return fused, rel.data.reshape(m_count, n).T, alpha.data.reshape(-1)


# ---------------------------------------------------------------------------
# Monte Carlo verification of the fusion error bound
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    empirical_mse: float
    analytic_bound: float
    holds: bool
    weights: np.ndarray
    slack: float


def reliability_weights(uncertainties: np.ndarray, eps: float = FUSE_EPS) -> np.ndarray:
    e = np.exp(-np.asarray(uncertainties, dtype=np.float64))
    return e / (e.sum() + eps)


def monte_carlo_bound_check(variances: np.ndarray, struct_variance: float,
                            uncertainties: np.ndarray, alpha_fb: float,
                            trials: int = 10000, seed: int = 0,
                            dim: int = 8) -> BoundReport:
    """Estimate the fused-representation MSE under additive zero-mean noise
    and compare it against twice the weighted variance sum.

    Modality m contributes noise with E||eps||^2 = variances[m]; the
    structural branch contributes struct_variance. The bound is
    2 (1-a)^2 sum_m w_m^2 v_m + 2 a^2 v_str and is declared to hold when
    the empirical mean falls below bound * (1 + 3/sqrt(trials)).
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    variances = np.asarray(variances, dtype=np.float64)
    if (variances <= 0).any() or struct_variance <= 0:
        raise ValueError("variances must be positive")
    if not (0.0 <= alpha_fb <= 1.0):
        raise ValueError("fallback coefficient must lie in [0, 1]")
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 0xB0D])
    m_count = variances.size
    w = reliability_weights(uncertainties)

    target = rng.normal(size=(trials, dim))
    noise = rng.normal(size=(trials, m_count, dim)) * np.sqrt(variances / dim)[None, :, None]
    noise_struct = rng.normal(size=(trials, dim)) * np.sqrt(struct_variance / dim)
    fused = ((1.0 - alpha_fb) * np.einsum("m,tmd->td", w, target[:, None, :] + noise)
             + alpha_fb * (target + noise_struct))
    mse = float(((fused - target) ** 2).sum(axis=1).mean())

    bound = float(2.0 * (1.0 - alpha_fb) ** 2 * (w * w * variances).sum()
                  + 2.0 * alpha_fb ** 2 * struct_variance)
    slack = 1.0 + 3.0 / np.sqrt(trials)
    # the weight deficit (1 - sum w) leaves a tiny deterministic bias; it is
    # orders of magnitude below the factor-2 headroom of the bound
    return BoundReport(empirical_mse=mse, analytic_bound=bound,
                       holds=mse <= bound * slack, weights=w, slack=slack)

"""Graph diffusion with restart, signed spectral aggregation over diffusion
states, identity-gated fusion, and the forecast head.

All station mixing happens in ``ad.diffuse``, one tape op for every step.
On graphs with at most ``ad._DENSE_RATIO`` * K source stations it runs on the
per-batch (N, N_src) operator built from the (N, K) neighbour table; on
larger graphs it gathers from the table, and nothing N x N is formed.
Aggregation runs all heads over the (L, B, T, N, D) state stack with
block-diagonal per-head maps, and the identity gate projects ``e_id`` once
per node.
Signed aggregation is the only way diffusion states are combined; its
``positive`` mode (a softmax over steps) is the smoothing-only control.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .topology import HybridGraph


def diffuse(
    h0: Tensor,
    w_tilde: Tensor,
    graph: HybridGraph,
    steps: int,
    restart: float,
    h_src_stack: Tensor | None = None,
) -> Tensor:
    """Multi-step diffusion h^(l) = sum_j w~_ij h_j^(l-1) + restart * h^(0).

    ``h0`` is (B, T, N, D); ``w_tilde`` is (B, N, K) over ``graph.nbr``.
    Returns all L+1 states as one (L+1, B, T, N, D) tensor. When
    ``h_src_stack`` (another run's stack) is given, messages are gathered
    from its states instead of the receiving stack (directed attachment of
    new nodes).
    """
    if not 0.0 <= restart < 1.0:
        raise ValueError("restart probability must be in [0, 1)")
    return ad.diffuse(h0, w_tilde, graph.nbr, steps, restart, h_src_stack)


def _block_diagonal(w: Tensor) -> Tensor:
    """Per-head (H, dh, dh) maps as one (H*dh, H*dh) block-diagonal matrix."""
    heads, dh, _ = w.shape
    mask = np.eye(heads).reshape(heads, 1, heads, 1)
    return (w.reshape((heads, dh, 1, dh)) * mask).reshape((heads * dh, heads * dh))


def signed_aggregate(
    stack: Tensor,
    params: dict[str, Tensor],
    heads: int,
    mode: str = "signed",
    forced_coeffs: np.ndarray | None = None,
) -> Tensor:
    """Combine the (L, B, T, N, D) diffusion states with per-node step
    coefficients.

    Per head, a pooled query attends over the per-step keys; ``signed`` mode
    squashes scores through tanh and multiplies the learnable step bias, so
    coefficients live in [-|b_l|, |b_l|] and can subtract neighbor states.
    ``positive`` mode replaces that with a softmax over steps (a convex
    combination, used as the smoothing-only control). ``forced_coeffs``
    bypasses attention entirely and applies the given per-step constants.

    All heads and states run in one pass: the per-head maps act as
    block-diagonal (D, D) matrices, and scores and coefficients are
    (L, B, T, N, H).
    """
    n_steps, lead, d = stack.shape[0], stack.shape[1:-1], stack.shape[-1]
    if forced_coeffs is not None:
        if len(forced_coeffs) != n_steps:
            raise ValueError("forced_coeffs must provide one value per state")
        coeffs = np.asarray(forced_coeffs, dtype=np.float64)
        return (stack * coeffs.reshape((n_steps,) + (1,) * (stack.ndim - 1))).sum(axis=0)
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if d % heads != 0:
        raise ValueError(f"head count {heads} must divide feature dim {d}")
    dh = d // heads
    wq, wk = params["agg.wq"], params["agg.wk"]
    if wq.shape != (heads, dh, dh) or wk.shape != (heads, dh, dh):
        raise ValueError(f"agg.wq/agg.wk must be ({heads}, {dh}, {dh}) for {heads} heads")
    query = ad.matmul(stack.mean(axis=0), _block_diagonal(wq))
    key = ad.matmul(stack, _block_diagonal(wk))
    per_head = (n_steps,) + lead + (heads, dh)
    scores = (key * query).reshape(per_head).sum(axis=-1) * (1.0 / math.sqrt(dh))
    if mode == "signed":
        bias = params["agg.step_bias"].reshape((n_steps,) + (1,) * (len(lead) + 1))
        coeffs = ad.tanh(scores) * bias
    else:
        coeffs = ad.softmax(scores, axis=0)
    out = coeffs.reshape(coeffs.shape + (1,)) * stack.reshape(per_head)
    return out.sum(axis=0).reshape(lead + (d,))


def fuse_and_gate(z: Tensor, e_id: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Blend the dynamic state with the static identity via a learned gate.

    ``e_id`` is (N, D) and broadcasts over batch and time. Returns (gate,
    fused) where fused = g * z + (1 - g) * e_id. The gate's map over
    [z || e_id] is split as z W[:D] + e_id W[D:], so the identity half is
    projected once per node.
    """
    n, d = z.shape[2:]
    if e_id.shape != (n, d):
        raise ValueError(f"identity shape {e_id.shape} incompatible with state {z.shape}")
    w = params["out_gate.w"]
    ident = ad.matmul(e_id, ad.slice_axis(w, 0, d, 2 * d)) + params["out_gate.b"]
    g = ad.sigmoid(ad.matmul(z, ad.slice_axis(w, 0, 0, d)) + ident)
    return g, g * z + (1.0 - g) * e_id


def forecast_head(
    zhat: Tensor, params: dict[str, Tensor], tau: int, n_channels: int
) -> Tensor:
    """Per-station MLP over the flattened time axis -> (B, tau, N, C)."""
    b, t, n, d = zhat.shape
    w1 = params["head.w1"]
    if w1.shape[0] != t * d:
        raise ValueError(f"head expects flattened dim {w1.shape[0]}, got {t * d}")
    x = zhat.transpose((0, 2, 1, 3)).reshape((b, n, t * d))
    h = ad.relu(ad.matmul(x, w1) + params["head.b1"])
    y = ad.matmul(h, params["head.w2"]) + params["head.b2"]
    return y.reshape((b, n, tau, n_channels)).transpose((0, 2, 1, 3))

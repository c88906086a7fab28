"""Graph diffusion with restart, signed spectral aggregation over diffusion
states, identity-gated fusion, and the forecast head.

All station mixing happens through ``propagate`` over the (N, K) neighbour
table; no operation ever materializes an N x N matrix. Aggregation runs all
heads and diffusion states as one (L, B, T, N, D) tensor with block-diagonal
per-head maps, and the identity gate projects ``e_id`` once per node.
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
    h_src_stack: list[Tensor] | None = None,
) -> list[Tensor]:
    """Multi-step diffusion h^(l) = sum_j w~_ij h_j^(l-1) + restart * h^(0).

    ``h0`` is (B, T, N, D); ``w_tilde`` is (B, N, K) over ``graph.nbr``.
    Returns all L+1 states. When ``h_src_stack`` is given, messages are
    gathered from those states instead of the receiving stack (directed
    attachment of new nodes).
    """
    if not 0.0 <= restart < 1.0:
        raise ValueError("restart probability must be in [0, 1)")
    stack = [h0]
    restart_h0 = restart * h0
    for step in range(steps):
        source = h_src_stack[step] if h_src_stack is not None else stack[-1]
        stack.append(ad.propagate(source, w_tilde, graph.nbr) + restart_h0)
    return stack


def _block_diagonal(w: Tensor) -> Tensor:
    """Per-head (H, dh, dh) maps as one (H*dh, H*dh) block-diagonal matrix."""
    heads, dh, _ = w.shape
    mask = np.eye(heads).reshape(heads, 1, heads, 1)
    return (w.reshape((heads, dh, 1, dh)) * mask).reshape((heads * dh, heads * dh))


def signed_aggregate(
    stack: list[Tensor],
    params: dict[str, Tensor],
    heads: int,
    mode: str = "signed",
    forced_coeffs: np.ndarray | None = None,
) -> Tensor:
    """Combine diffusion states with per-node step coefficients.

    Per head, a pooled query attends over the per-step keys; ``signed`` mode
    squashes scores through tanh and multiplies the learnable step bias, so
    coefficients live in [-|b_l|, |b_l|] and can subtract neighbor states.
    ``positive`` mode replaces that with a softmax over steps (a convex
    combination, used as the smoothing-only control). ``forced_coeffs``
    bypasses attention entirely and applies the given per-step constants.

    All heads and states run in one pass: the states are stacked to
    (L, B, T, N, D), the per-head maps act as block-diagonal (D, D) matrices,
    and scores and coefficients are (L, B, T, N, H).
    """
    n_steps = len(stack)
    if forced_coeffs is not None:
        if len(forced_coeffs) != n_steps:
            raise ValueError("forced_coeffs must provide one value per state")
        out = float(forced_coeffs[0]) * stack[0]
        for l in range(1, n_steps):
            out = out + float(forced_coeffs[l]) * stack[l]
        return out
    if mode not in ("signed", "positive"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    lead, d = stack[0].shape[:-1], stack[0].shape[-1]
    if d % heads != 0:
        raise ValueError(f"head count {heads} must divide feature dim {d}")
    dh = d // heads
    wq, wk = params["agg.wq"], params["agg.wk"]
    if wq.shape != (heads, dh, dh) or wk.shape != (heads, dh, dh):
        raise ValueError(f"agg.wq/agg.wk must be ({heads}, {dh}, {dh}) for {heads} heads")
    states = ad.concat([h.reshape((1,) + h.shape) for h in stack], axis=0)
    query = ad.matmul(states.mean(axis=0), _block_diagonal(wq))
    key = ad.matmul(states, _block_diagonal(wk))
    per_head = (n_steps,) + lead + (heads, dh)
    scores = (key * query).reshape(per_head).sum(axis=-1) * (1.0 / math.sqrt(dh))
    if mode == "signed":
        bias = params["agg.step_bias"].reshape((n_steps,) + (1,) * (len(lead) + 1))
        coeffs = ad.tanh(scores) * bias
    else:
        coeffs = ad.softmax(scores, axis=0)
    out = coeffs.reshape(coeffs.shape + (1,)) * states.reshape(per_head)
    return out.sum(axis=0).reshape(lead + (d,))


def softmax_fusion(stack: list[Tensor], params: dict[str, Tensor]) -> Tensor:
    """Convex multi-scale fusion z = sum_l softmax(w)_l h^(l)."""
    weights = ad.softmax(params["fusion.w"], axis=0)
    out = ad.slice_axis(weights, 0, 0, 1) * stack[0]
    for l in range(1, len(stack)):
        out = out + ad.slice_axis(weights, 0, l, l + 1) * stack[l]
    return out


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

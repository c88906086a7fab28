"""Graph diffusion with restart, signed spectral aggregation over diffusion
states, identity-gated fusion, and the forecast head.

All station mixing happens through ``propagate`` over the (N, K) neighbour
table; no operation ever materializes an N x N matrix.
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
    for step in range(steps):
        source = h_src_stack[step] if h_src_stack is not None else stack[-1]
        stack.append(ad.propagate(source, w_tilde, graph.nbr) + restart * h0)
    return stack


def _head_slices(d: int, heads: int) -> list[tuple[int, int]]:
    if d % heads != 0:
        raise ValueError(f"head count {heads} must divide feature dim {d}")
    dh = d // heads
    return [(g * dh, (g + 1) * dh) for g in range(heads)]


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
    d = stack[0].shape[-1]
    wq, wk = params["agg.wq"], params["agg.wk"]
    bias = params["agg.step_bias"]
    parts = []
    for g, (lo, hi) in enumerate(_head_slices(d, heads)):
        dh = hi - lo
        wq_g = ad.slice_axis(wq, 0, g, g + 1).reshape((dh, dh))
        wk_g = ad.slice_axis(wk, 0, g, g + 1).reshape((dh, dh))
        states = [ad.slice_axis(h, 3, lo, hi) for h in stack]
        query = ad.matmul(states[0], wq_g)
        for h in states[1:]:
            query = query + ad.matmul(h, wq_g)
        query = (1.0 / n_steps) * query
        scores = []
        for h in states:
            key = ad.matmul(h, wk_g)
            scores.append((query * key).sum(axis=-1) * (1.0 / math.sqrt(dh)))
        if mode == "signed":
            coeffs = [
                ad.tanh(s) * ad.slice_axis(bias, 0, l, l + 1) for l, s in enumerate(scores)
            ]
        else:
            stacked = ad.concat([s.reshape(s.shape + (1,)) for s in scores], axis=-1)
            soft = ad.softmax(stacked, axis=-1)
            coeffs = [
                ad.slice_axis(soft, 3, l, l + 1).reshape(scores[l].shape)
                for l in range(n_steps)
            ]
        out = coeffs[0].reshape(coeffs[0].shape + (1,)) * states[0]
        for l in range(1, n_steps):
            out = out + coeffs[l].reshape(coeffs[l].shape + (1,)) * states[l]
        parts.append(out)
    return parts[0] if heads == 1 else ad.concat(parts, axis=-1)


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
    fused) where fused = g * z + (1 - g) * e_id.
    """
    b, t, n, d = z.shape
    if e_id.shape != (n, d):
        raise ValueError(f"identity shape {e_id.shape} incompatible with state {z.shape}")
    e_b = ad.broadcast_to(e_id.reshape((1, 1, n, d)), (b, t, n, d))
    x = ad.concat([z, e_b], axis=-1)
    g = ad.sigmoid(ad.matmul(x, params["out_gate.w"]) + params["out_gate.b"])
    return g, g * z + (1.0 - g) * e_b


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

"""Graph diffusion with restart, signed spectral aggregation over diffusion
states, identity-gated fusion, and the forecast head.

All station mixing happens in ``ad.diffuse``, one tape op for every step.
``model.forward`` diffuses the C + 1 input channels ``[x || 1]``, not the D
projected features: the operator mixes only the node axis, so it commutes
with the input projection, and the channel stack lifted by ``[W_in; b_in]``
is the feature stack. On graphs with at most ``ad._DENSE_ROWS`` source
stations the op runs on the per-batch (N, N_src) operator built from the
(N, K) neighbour table; on larger graphs it gathers from the table one
column at a time, and nothing N x N is formed.
Aggregation over the lifted (L, B, T, N, D) state stack is one hand-written
tape node for all heads (``ad.step_attention``, per-head maps applied to
(rows, heads, dh) views); the identity gate and the blend are one node each
(``ad.gate``, ``ad.blend``), and the gate projects ``e_id`` once per node.
Signed aggregation is the only way diffusion states are combined; its
``positive`` mode (a softmax over steps) is the smoothing-only control.
"""

from __future__ import annotations

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

    ``h0`` is (B, T, N, F) for any width F (``model.forward`` passes the
    C + 1 input channels); ``w_tilde`` is (B, N, K) over ``graph.nbr``.
    Returns all L+1 states as one (L+1, B, T, N, F) tensor. When
    ``h_src_stack`` (another run's stack) is given, messages are gathered
    from its states instead of the receiving stack (directed attachment of
    new nodes).
    """
    if not 0.0 <= restart < 1.0:
        raise ValueError("restart probability must be in [0, 1)")
    return ad.diffuse(h0, w_tilde, graph.nbr, steps, restart, h_src_stack)


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

    The attention over all heads and states is one ``ad.step_attention``
    node; scores and coefficients are (L, B*T*N, H).
    """
    n_steps, d = stack.shape[0], stack.shape[-1]
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
    wq, wk, bias = params["agg.wq"], params["agg.wk"], params["agg.step_bias"]
    if wq.shape != (heads, dh, dh) or wk.shape != (heads, dh, dh):
        raise ValueError(f"agg.wq/agg.wk must be ({heads}, {dh}, {dh}) for {heads} heads")
    if bias.shape != (n_steps,):
        raise ValueError(f"agg.step_bias must be ({n_steps},) for {n_steps} states")
    return ad.step_attention(stack, wq, wk, bias, signed=mode == "signed")


def fuse_and_gate(z: Tensor, e_id: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Blend the dynamic state with the static identity via a learned gate.

    ``e_id`` is (N, D) and broadcasts over batch and time. Returns (gate,
    fused) where gate = sigmoid([z || e_id] W + b) and fused = g * z +
    (1 - g) * e_id, one tape node each. W is stored as its two (D, D)
    blocks ``out_gate.w_z`` and ``out_gate.w_id``; the identity block is
    applied once per node.
    """
    n, d = z.shape[2:]
    if e_id.shape != (n, d):
        raise ValueError(f"identity shape {e_id.shape} incompatible with state {z.shape}")
    g = ad.gate(z, e_id, params["out_gate.w_z"], params["out_gate.w_id"], params["out_gate.b"])
    return g, ad.blend(g, z, e_id)


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

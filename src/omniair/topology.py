"""Sparse hybrid topology: fixed candidate edges, input-conditioned weights.

The edge SET is built once (geographic k-NN plus semantic k-NN over raw
feature vectors) and never changes during training; only the edge weights
are recomputed per batch. Every node keeps exactly K = k_geo + k_sem
candidates, so the graph is an (N, K) neighbour table and every per-edge
tensor is (B, N, K): owner-side expansions are broadcasts over the K axis
and per-node reductions are sums over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .geo import gaussian_static_weight, haversine, knn_geo, smallest_k

NORM_EPS = 1e-8  # keeps the weight normalization finite for an all-pruned node


@dataclass
class HybridGraph:
    """Fixed-degree candidate edges as an (N, K) neighbour table.

    Row i lists the K nodes that node i gathers messages FROM, geographic
    candidates first; ``w_static`` is aligned with it. With ``cross`` set,
    ``nbr`` indexes a different node set (the base stations that unseen
    nodes attach to).
    """

    nbr: np.ndarray  # (N, K) intp
    w_static: np.ndarray  # (N, K) Gaussian kernel weight of the great-circle distance
    cross: bool = False

    def __post_init__(self):
        self.nbr = np.asarray(self.nbr, dtype=np.intp)
        if not self.cross and np.any(self.nbr == np.arange(self.n_nodes)[:, None]):
            raise ValueError("graph contains self-edges")

    @property
    def n_nodes(self) -> int:
        return self.nbr.shape[0]

    @property
    def k(self) -> int:
        return self.nbr.shape[1]

    @property
    def n_edges(self) -> int:
        return self.nbr.size


def semantic_knn(
    vectors: np.ndarray, k: int, exclude: np.ndarray, queries: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k nearest rows of ``vectors`` by Euclidean distance.

    ``exclude`` is an (M, E) index array of targets each query may not pick.
    Without ``queries`` every row of ``vectors`` is a query and never picks
    itself. Ties break toward the lower index. Returns (idx, dist), each
    (M, k).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    sq = (vectors**2).sum(axis=1)
    cross = queries is not None
    if cross:
        q = np.asarray(queries, dtype=np.float64)
        sq_q = (q**2).sum(axis=1)
    else:
        q, sq_q = vectors, sq

    def block(lo, hi):
        d2 = np.maximum(sq + sq_q[lo:hi, None] - 2.0 * (q[lo:hi] @ vectors.T), 0.0)
        np.put_along_axis(d2, exclude[lo:hi], np.inf, axis=1)
        if not cross:
            d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        return d2

    idx, d2 = smallest_k(block, len(q), len(vectors), k)
    return idx, np.sqrt(d2)


def _hybrid_table(points, vectors, k_geo, k_sem, kappa_km, queries=None, geo_idx=None):
    """Geographic k-NN edges, then semantic k-NN edges to the other nodes.

    ``queries`` holds the (points, vectors) of nodes outside the base set;
    without it the base nodes query themselves and skip their own row.
    ``geo_idx`` is a precomputed geographic neighbour table. The weights
    are ``table_graph``'s, a function of the points and the table alone.
    """
    q_points, q_vectors = (None, None) if queries is None else queries
    if geo_idx is None:
        geo_idx = knn_geo(points, k_geo, queries=q_points)[0]
    sem_idx, _ = semantic_knn(vectors, k_sem, geo_idx, queries=q_vectors)
    return table_graph(points, np.concatenate([geo_idx, sem_idx], axis=1), kappa_km,
                       queries=q_points)


def table_graph(points, nbr, kappa_km, queries=None) -> HybridGraph:
    """The graph of the neighbour table ``nbr`` into ``points``: every edge
    is weighted by the Gaussian kernel of its great-circle length, so the
    points, the table and ``kappa_km`` give the graph exactly. ``queries``
    holds the points of the rows' own nodes when they are outside the base
    set (a ``cross`` table)."""
    points = np.asarray(points, dtype=np.float64)
    q = points if queries is None else np.asarray(queries, dtype=np.float64)
    w_static = gaussian_static_weight(haversine(q[:, None], points[nbr]), kappa_km)
    return HybridGraph(nbr, w_static, cross=queries is not None)


def build_hybrid_graph(
    points: np.ndarray,
    feature_vectors: np.ndarray,
    k_geo: int,
    k_sem: int,
    kappa_km: float,
    *,
    geo_idx: np.ndarray | None = None,
) -> HybridGraph:
    """Geographic k-NN edges followed by semantic k-NN edges per node.

    ``geo_idx`` reuses a ``knn_geo(points, k_geo)`` neighbour table the
    caller already holds instead of searching again.
    """
    n = len(points)
    if n <= k_geo + k_sem:
        raise ValueError(f"need more than k_geo+k_sem={k_geo + k_sem} stations, got {n}")
    return _hybrid_table(points, feature_vectors, k_geo, k_sem, kappa_km, geo_idx=geo_idx)


def attach_new_nodes(
    base_points: np.ndarray,
    base_vectors: np.ndarray,
    new_points: np.ndarray,
    new_vectors: np.ndarray,
    k_geo: int,
    k_sem: int,
    kappa_km: float,
    *,
    geo_idx: np.ndarray | None = None,
) -> HybridGraph:
    """Directed attachment edges for unseen nodes.

    Every returned edge is owned by a new node and gathers from a base node,
    so base-node computations are untouched by construction. ``nbr`` indexes
    the BASE station list. ``geo_idx`` reuses a
    ``knn_geo(base_points, k_geo, queries=new_points)`` table the caller
    already holds instead of searching again.
    """
    if len(base_points) < k_geo + k_sem:
        raise ValueError("not enough base stations to attach new nodes")
    return _hybrid_table(base_points, base_vectors, k_geo, k_sem, kappa_km,
                         queries=(new_points, new_vectors), geo_idx=geo_idx)


# -- dynamic edge weights (tape ops) -------------------------------------------


def dynamic_attention(
    h_own: Tensor, h_src: Tensor, nbr: np.ndarray, params: dict[str, Tensor]
) -> Tensor:
    """Signed attention per edge: tanh(a . leaky_relu(W_e [h_i || h_j])).

    ``h_own`` is (B, N, D) for the nodes owning the edges, ``h_src``
    (B, N_src, D) for the targets and ``nbr`` the (N, K) table into it.
    The map is linear before the LeakyReLU, so W_e [h_i || h_j] =
    h_i W_own + h_j W_src with the two (D, A) blocks ``attn.we_own`` and
    ``attn.we_src``: each node is projected once and only the (B, N, K, A)
    projections are formed per edge. Returns (B, N, K).
    """
    own = ad.matmul(h_own, params["attn.we_own"])
    src = ad.matmul(h_src, params["attn.we_src"])
    pre = ad.gather(src, nbr, axis=1) + own.reshape(own.shape[:-1] + (1, own.shape[-1]))
    score = ad.matmul(ad.leaky_relu(pre, slope=0.1), params["attn.a"])
    return ad.tanh(score.reshape(score.shape[:-1]))


def fuse_gate(
    h_own: Tensor,
    h_src: Tensor,
    nbr: np.ndarray,
    w_static: np.ndarray,
    alpha: Tensor,
    params: dict[str, Tensor],
) -> tuple[Tensor, Tensor]:
    """Gate between static kernel weight and dynamic attention.

    g = sigmoid(w_g . [h_i || h_j || w_static] + b), with w_g stored as its
    blocks ``edge_gate.w_own``, ``edge_gate.w_src`` (each (D, 1)) and
    ``edge_gate.w_static`` (1,). Like ``dynamic_attention`` it projects each
    node once, to one scalar, and gathers only the target's scalar per
    edge. ``w_static`` is the (N, K) kernel weight of the ``nbr`` table.
    Returns (g, w_dyn) with w_dyn = g * w_static + (1 - g) * alpha, one
    ``blend`` node, each (B, N, K).
    """
    own = ad.matmul(h_own, params["edge_gate.w_own"])
    src = ad.matmul(h_src, params["edge_gate.w_src"])
    static = Tensor(w_static)
    edge = static * params["edge_gate.w_static"] + params["edge_gate.b"]
    g = ad.sigmoid(ad.gather(src.reshape(src.shape[:-1]), nbr, axis=1) + own + edge)
    return g, ad.blend(g, static, alpha)


def predict_beta(h_nodes: Tensor, params: dict[str, Tensor], k: int) -> Tensor:
    """Per-node continuous truncation threshold in (0, k), k the number of
    candidates per node."""
    h = ad.tanh(ad.matmul(h_nodes, params["beta_mlp.w1"]) + params["beta_mlp.b1"])
    s = ad.matmul(h, params["beta_mlp.w2"]) + params["beta_mlp.b2"]
    return float(k) * ad.sigmoid(s.reshape(s.shape[:-1]))


def compute_ranks(w_dyn: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """1-based importance ranks within each node's K candidates.

    ``w_dyn`` is (B, N, K) over the (N, K) table ``nbr``, ranked by
    descending magnitude; ties break toward the lower target index.
    Detached from differentiation.
    """
    key = -np.abs(w_dyn)
    order = np.lexsort((np.broadcast_to(nbr, key.shape), key), axis=-1)
    ranks = np.empty(key.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, nbr.shape[-1] + 1), axis=-1)
    return ranks


def prune_mask(ranks: np.ndarray, beta: Tensor, eta: float) -> Tensor:
    """Soft retention mask sigmoid(-eta * (rank - beta_owner)) per edge.

    ``ranks`` is (B, N, K) and ``beta`` (B, N), broadcast over K.
    """
    beta_own = beta.reshape(beta.shape + (1,))
    return ad.sigmoid(-eta * (Tensor(ranks.astype(np.float64)) - beta_own))


def normalize_weights(w_dyn: Tensor, mask: Tensor) -> Tensor:
    """Masked (B, N, K) weights divided by the sum of |w * m| over each
    node's K candidates (safe for signed weights)."""
    wm = w_dyn * mask
    return wm / (ad.abs_(wm).sum(axis=-1, keepdims=True) + NORM_EPS)


def edge_weights(
    h_nodes: Tensor,
    graph: HybridGraph,
    params: dict[str, Tensor],
    *,
    eta: float,
    h_src: Tensor | None = None,
) -> dict[str, Tensor | np.ndarray]:
    """Full dynamic-weight pipeline for one batch of node features.

    ``h_nodes`` is (B, N, D) for the nodes owning the edges; ``h_src``
    (defaulting to ``h_nodes``) is gathered for edge targets, which lets
    unseen nodes attach to a separately computed base state. Every per-edge
    output is (B, N, K). Each node's threshold beta lies in (0, K).
    """
    h_src = h_nodes if h_src is None else h_src
    alpha = dynamic_attention(h_nodes, h_src, graph.nbr, params)
    gate, w_dyn = fuse_gate(h_nodes, h_src, graph.nbr, graph.w_static, alpha, params)
    beta = predict_beta(h_nodes, params, graph.k)
    ranks = compute_ranks(w_dyn.data, graph.nbr)
    mask = prune_mask(ranks, beta, eta)
    w_tilde = normalize_weights(w_dyn, mask)
    return {
        "alpha": alpha,
        "gate": gate,
        "w_dyn": w_dyn,
        "beta": beta,
        "ranks": ranks,
        "mask": mask,
        "w_tilde": w_tilde,
    }

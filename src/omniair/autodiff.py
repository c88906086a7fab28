"""Reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a :class:`Tensor` wraps a numpy array and,
while gradients are enabled, every primitive operation records the closure
needed to push adjoints back to its inputs. Calling ``backward`` on a scalar
replays those closures in reverse topological order and frees each node as
it passes it, so after ``backward`` the tape holds nothing but the leaves'
gradients, and a graph runs backward once: build it again for another
sweep. The operator set is exactly what the forecasting model calls, and
every op heads a node of its training tape: ``add``, ``sub``, ``mul``,
``div`` and ``matmul``; ``reshape``, ``transpose`` and ``sum_``; ``abs_``,
``sigmoid``, ``tanh``, ``relu`` and ``leaky_relu``; row ``gather``; and
three hand-written model ops with closed-form backwards, each one node:
``diffuse`` (the whole multi-step restart diffusion over a fixed-degree
(N, K) neighbour table), ``step_attention`` (per-head step attention per
block of rows; its one optional part, ``fuse``, adds the lift to D before
and the identity gate and blend after, making it the model's row-local
tail) and ``blend`` (``g * a + (1 - g) * b``). No views, no dtype zoo.
Repeated targets add up through ``np.bincount``, never ``np.add.at``.

All data is float64 and all reductions run in a fixed order, so repeated
forward+backward passes over identical inputs are bit-identical.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

_state = threading.local()


def grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables tape recording (inference mode)."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad) and grad_enabled()
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ----------------------------------------------------
    def _accumulate(self, g: Array) -> None:
        # Ops hand the same g, or read-only broadcast views of it, to several
        # parents, so the first g is stored as it is and later contributions
        # are added out of place. Sharing is safe because no backward closure
        # and no optimizer writes into a gradient it receives.
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse sweep seeding d(self)/d(self) = 1; self must be scalar.

        The sweep frees the graph as it goes: once a node's closure has run,
        or been skipped because no gradient reached it, the node drops its
        closure, its parents and its gradient, so each saved array dies as
        soon as nothing later in the sweep needs it. Leaves keep their
        gradients. A graph runs backward once: a graph that reaches a swept
        node raises ``RuntimeError`` before anything is computed.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _swept:
                raise RuntimeError(_SWEPT_MESSAGE)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._backward, node._parents, node.grad = _swept, (), None

    # -- operator sugar ------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, key):
        raise TypeError("use gather for differentiable indexing")

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)


_SWEPT_MESSAGE = "backward() already ran through this graph; build it again"


def _swept(g: Array) -> None:
    """The ``_backward`` of a node that a reverse sweep has passed."""
    raise RuntimeError(_SWEPT_MESSAGE)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: Array, parents: tuple[Tensor, ...], backward: Callable[[Array], None]) -> Tensor:
    out = Tensor(data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic --------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(data, (a, b), backward)


def abs_(a) -> Tensor:
    a = as_tensor(a)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * np.sign(a.data))

    return _node(np.abs(a.data), (a,), backward)


def matmul(a, b) -> Tensor:
    """``a @ b`` where ``b`` is a 2-d weight matrix and ``a`` is (..., k)."""
    a, b = as_tensor(a), as_tensor(b)
    if b.ndim != 2:
        raise ValueError(f"matmul expects a 2-d right operand, got {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            lhs = a.data.reshape(-1, a.shape[-1])
            b._accumulate(lhs.T @ g.reshape(-1, b.shape[1]))

    return _node(data, (a, b), backward)


# -- structure ----------------------------------------------------------------

def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _node(data, (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return _node(data, (a,), backward)


# -- reductions ---------------------------------------------------------------

def _expand_reduced(g: Array, src_shape: tuple[int, ...], axis, keepdims: bool) -> Array:
    if axis is None:
        return np.broadcast_to(g, src_shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(src_shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, src_shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_expand_reduced(g, a.shape, axis, keepdims))

    return _node(data, (a,), backward)


# -- pointwise nonlinearities --------------------------------------------------

def _logistic(x: Array) -> Array:
    # exp(-|x|) never overflows; bit-identical to 1/(1+e^-x) for x >= 0 and
    # e^x/(1+e^x) for x < 0. In place, so only two full-size arrays are new.
    ex = np.abs(x)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    y = np.where(x >= 0, 1.0, ex)
    ex += 1.0
    y /= ex
    return y


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = _logistic(a.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * y * (1.0 - y))

    return _node(y, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * (1.0 - y * y))

    return _node(y, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _node(np.maximum(a.data, 0.0), (a,), backward)


LEAKY_SLOPE = 0.1  # slope of leaky_relu below zero


def leaky_relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.where(a.data > 0, a.data, LEAKY_SLOPE * a.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * np.where(a.data > 0, 1.0, LEAKY_SLOPE))

    return _node(data, (a,), backward)


# -- sparse message-passing primitives ----------------------------------------

def _scatter_add(g: Array, idx: Array, n: int, axis: int) -> Array:
    """Adjoint of ``np.take(a, idx, axis)`` for an ``a`` with ``n`` rows there.

    ``g`` has the ``idx.shape`` axes in place of that axis. Slices sharing a
    target add up in index order through one ``np.bincount`` over a flat
    (lead, target, tail) index, which is deterministic.
    """
    lead, tail = g.shape[:axis], g.shape[axis + idx.ndim :]
    p, q = math.prod(lead), math.prod(tail)
    bins = (np.arange(p)[:, None, None] * n + idx.reshape(1, -1, 1)) * q + np.arange(q)
    out = np.bincount(bins.reshape(-1), weights=g.reshape(-1), minlength=p * n * q)
    return out.reshape(lead + (n,) + tail)


def gather(a: Tensor, idx: Array, axis: int) -> Tensor:
    """Select rows along ``axis``; ``idx`` may repeat and may be n-d, in which
    case its axes replace ``axis`` (as ``np.take``)."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    axis = axis % a.ndim
    data = np.take(a.data, idx, axis=axis)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_scatter_add(g, idx, a.shape[axis], axis))

    return _node(data, (a,), backward)


# Diffusion runs on the dense per-batch operator A_b (N, N_src) when
# N_src <= _DENSE_ROWS and on the (N, K) table otherwise. Measured on one
# thread at width 7 (the C + 1 input channels that ``model.forward`` diffuses,
# two steps), at K 9 and 15 and B * T 16 and 256, the dense forward+backward
# is faster up to 360 source rows, whatever K is; from 384 rows its time
# more than doubles and the table wins everywhere.
_DENSE_ROWS = 360


class _DenseOperator:
    """``A_b[i, j] = sum_{k: nbr[i,k] = j} w[b,i,k]``: the weights scattered
    to their flat (i, j) cells by one bincount."""

    def __init__(self, w: Array, nbr: Array, n_src: int):
        b, n, _ = w.shape
        cells = np.arange(n)[:, None] * n_src + nbr
        self.a = _scatter_add(w, cells, n * n_src, 1).reshape(b, n, n_src)
        self.nbr = nbr

    def apply(self, x: Array, out: Array) -> None:
        np.matmul(self.a[:, None], x, out=out)

    def apply_t(self, g: Array) -> Array:
        return np.matmul(self.a.transpose(0, 2, 1)[:, None], g)

    def edge_grad(self, adj: Array, xs: Array) -> Array:
        # sum over steps and time of adj x^T, sampled at the table
        outer = np.einsum("lbtid,lbtjd->bij", adj, xs, optimize=True)
        return outer[:, np.arange(len(self.nbr))[:, None], self.nbr]


class _TableOperator:
    """``(A x)[b,t,i] = sum_k w[b,i,k] * x[b,t,nbr[i,k]]`` one table column
    at a time: each column k gathers one (B, T, N, F) array. The adjoint
    scatters one (b, t) slice of (N, K, F) edge values at a time, so nothing
    of the size of the (B, T, N, K, F) messages is formed in either
    direction."""

    def __init__(self, w: Array, nbr: Array, n_src: int):
        self.w, self.nbr, self.n_src = w, nbr, n_src

    def apply(self, x: Array, out: Array) -> None:
        out.fill(0.0)  # K = 0, a lone station, leaves A x = 0
        for k in range(self.nbr.shape[1]):
            col = np.take(x, self.nbr[:, k], axis=2)
            col *= self.w[:, None, :, k, None]
            out += col

    def apply_t(self, g: Array) -> Array:
        # one (b, t) slice of (N, K, D) edge values at a time; within a slice
        # each target adds its (i, k, d) contributions in index order
        b, t, _, d = g.shape
        index = (self.nbr[:, :, None] * d + np.arange(d)).ravel()
        out = np.empty((b, t, self.n_src * d))
        for i, j in np.ndindex(b, t):
            edges = g[i, j, :, None, :] * self.w[i, :, :, None]
            out[i, j] = np.bincount(index, weights=edges.ravel(), minlength=out.shape[2])
        return out.reshape(b, t, self.n_src, d)

    def edge_grad(self, adj: Array, xs: Array) -> Array:
        # column k sums adj * (the states gathered again at nbr[:, k])
        out = np.zeros(self.w.shape)
        for a, x in zip(adj, xs):
            for k in range(self.nbr.shape[1]):
                out[:, :, k] += np.einsum("btnd,btnd->bn", a, np.take(x, self.nbr[:, k], axis=2))
        return out


def diffuse(
    h0: Tensor,
    w: Tensor,
    nbr: Array,
    steps: int,
    restart: float,
    sources: Tensor | None = None,
) -> Tensor:
    """All L+1 restart-diffusion states as one (L+1, B, T, N, F) tensor.

    ``s_0 = h0`` and ``s_l = A x_l + restart * h0`` with
    ``(A x)[b,t,i] = sum_k w[b,i,k] * x[b,t,nbr[i,k]]``. ``h0`` is
    (B, T, N, F) for any width F, ``w`` is (B, N, K) and ``nbr`` an (N, K)
    table whose targets may repeat. ``x_l`` is ``s_{l-1}``, or
    ``sources[l-1]`` when a stack of another graph's states is given (N_src
    rows, read, never written). The op keeps nothing from the forward but
    its output. The backward runs the L adjoint steps: the input gradient is
    ``A^T a`` and the weight gradient ``a x^T`` sampled at the table. Graphs
    with N_src <= ``_DENSE_ROWS`` run on the dense per-batch operator,
    larger ones on the table; the two differ only in summation order.
    """
    h0, w = as_tensor(h0), as_tensor(w)
    if not steps:
        return reshape(h0, (1,) + h0.shape)
    src = None if sources is None else as_tensor(sources)
    nbr = np.asarray(nbr, dtype=np.intp)
    n_src = h0.shape[2] if src is None else src.shape[3]
    operator = _DenseOperator if n_src <= _DENSE_ROWS else _TableOperator
    op = operator(w.data, nbr, n_src)
    restart_h0 = restart * h0.data
    out = np.empty((steps + 1,) + h0.shape)
    out[0] = h0.data
    for l in range(steps):
        op.apply(out[l] if src is None else src.data[l], out[l + 1])
        out[l + 1] += restart_h0

    def backward(g: Array) -> None:
        if src is None:  # a_l = g_l + A^T a_{l+1}
            adj = np.empty_like(g)
            adj[steps] = g[steps]
            for l in range(steps - 1, -1, -1):
                np.add(g[l], op.apply_t(adj[l + 1]), out=adj[l])
            xs = out[:-1]
        else:
            adj, xs = g, src.data[:steps]
            if src.requires_grad:
                dsrc = np.zeros_like(src.data)
                for l in range(1, steps + 1):
                    dsrc[l - 1] = op.apply_t(g[l])
                src._accumulate(dsrc)
        if h0.requires_grad:
            h0._accumulate(adj[0] + restart * adj[1:].sum(axis=0))
        if w.requires_grad:
            w._accumulate(op.edge_grad(adj[1:], xs))

    return _node(out, (h0, w) if src is None else (h0, w, src), backward)


# -- the row-local tail: lift, step attention and the identity gate -------------

# Rows per block of ``step_attention``: a block's lifted states and its
# attention and gate temporaries take a few hundred KiB, so they stay in cache.
# A constant, so the blocks, and the order in which their parameter partials
# add up, follow from the shapes alone, never from the machine.
_BLOCK_ROWS = 1024


def _row_blocks(n_slabs: int, n: int) -> list[tuple[slice, slice]]:
    """The (slab, station) slices of the row blocks of an (S, N) row grid:
    runs of whole slabs while N fits the budget, else runs of stations
    inside one slab, so a block's stations are always one slice."""
    if n <= _BLOCK_ROWS:
        per = _BLOCK_ROWS // n
        return [(slice(i, i + per), slice(None)) for i in range(0, n_slabs, per)]
    return [(slice(i, i + 1), slice(j, j + _BLOCK_ROWS))
            for i in range(n_slabs) for j in range(0, n, _BLOCK_ROWS)]


def _per_head(x: Array, w: Array) -> Array:
    """``x[p, h] @ w[h]`` for (P, H, a) rows and (H, a, b) maps, as a
    contiguous (P, H, b) array."""
    out = np.empty((x.shape[0], w.shape[0], w.shape[2]))
    # a strided w halves the speed of the batched product
    np.matmul(x.transpose(1, 0, 2), np.ascontiguousarray(w), out=out.transpose(1, 0, 2))
    return out


def _per_head_outer(x: Array, y: Array) -> Array:
    """``sum_p x[p, h]^T y[p, h]`` for (P, H, a) and (P, H, b) rows: (H, a, b)."""
    return np.matmul(x.transpose(1, 2, 0), y.transpose(1, 0, 2))


def _query(x: Array, wq: Array, k: Array) -> tuple[Array, Array, Array]:
    """The pooled mean, query and score vector ``r`` of (L, P, H, dh) states."""
    mean = x.mean(axis=0)
    q = _per_head(mean, wq)
    return mean, q, _per_head(q, k.transpose(0, 2, 1))


def _attend(x: Array, wq: Array, k: Array, bias: Array, signed: bool) -> tuple[Array, Array]:
    """Step attention of one block of (L, P, H, dh) states: the combined
    (P, H, dh) state and the (L, P, H) memo the backward keeps, tanh of the
    scores when ``signed`` and the softmax coefficients otherwise."""
    score = np.einsum("lphj,phj->lph", x, _query(x, wq, k)[2])
    if signed:
        memo = np.tanh(score)
        c = memo * bias[:, None, None]
    else:
        ex = np.exp(score - score.max(axis=0))
        c = memo = ex / ex.sum(axis=0)
    return np.einsum("lph,lphj->phj", c, x), memo


def _attend_backward(x: Array, wq: Array, k: Array, bias: Array, signed: bool, memo: Array,
                     dz: Array) -> tuple[Array, Array, Array, Array]:
    """Adjoint of :func:`_attend` for the (P, H, dh) gradient ``dz``: the
    (L, P, H, dh) state gradient and the block's partials of ``wq``, of
    ``k`` (unscaled) and of ``bias``. The mean, query and ``r`` are
    recomputed from ``x``."""
    mean, q, r = _query(x, wq, k)
    dc = np.einsum("lphj,phj->lph", x, dz)
    if signed:
        c = memo * bias[:, None, None]
        dbias = np.einsum("lph,lph->l", dc, memo)
        dscore = memo * memo
        np.subtract(1.0, dscore, out=dscore)
        dscore *= bias[:, None, None]
        dscore *= dc
    else:
        c, dbias = memo, np.zeros(len(x))
        dscore = c * (dc - (c * dc).sum(axis=0))
    dr = np.einsum("lph,lphj->phj", dscore, x)
    dq = _per_head(dr, k)
    dmean = _per_head(dq, wq.transpose(0, 2, 1))
    dmean /= len(x)
    ds, tmp = np.empty(x.shape), np.empty(dz.shape)
    for l in range(len(x)):  # step by step, through one reused (P, H, dh) buffer
        np.multiply(c[l, ..., None], dz, out=ds[l])
        ds[l] += np.multiply(dscore[l, ..., None], r, out=tmp)
        ds[l] += dmean
    return ds, _per_head_outer(mean, dq), _per_head_outer(dr, q), dbias


def step_attention(
    stack: Tensor,
    wq: Tensor,
    wk: Tensor,
    bias: Tensor,
    signed: bool,
    fuse: tuple[Tensor, Tensor, Tensor, Tensor, Tensor] | None = None,
    parts: dict | None = None,
) -> Tensor:
    """Combine the L states of an (L, ..., N, F) stack with per-row, per-head
    step coefficients: ``z = sum_l c_l x_l``, shape (..., N, D), as one node.

    Without ``fuse`` the states are D wide and ``x_l`` is the state itself.
    D splits into H heads of dh = D / H columns, and ``wq``, ``wk`` are
    (H, dh, dh). Per head, the pooled query is ``q = mean_l(x_l) wq`` and
    step l scores ``(x_l wk) . q / sqrt(dh)``, computed as ``x_l . r`` with
    ``r = q wk^T / sqrt(dh)``, so no key is formed. ``signed`` coefficients
    are ``tanh(score_l) * bias_l``; otherwise they are a softmax over steps
    and ``bias`` gets no gradient.

    ``fuse = (lift, e, w_z, w_e, b)`` makes the node the model's tail:
    ``x_l = s_l lift`` for an (F, D) ``lift``, and the output is ``e + g *
    (z - e)`` with ``g = sigmoid(z w_z + (e w_e + b))`` for an (N, D)
    identity ``e`` that broadcasts over the leading axes, projected once.

    The node runs per block of at most ``_BLOCK_ROWS`` rows (a row is one
    (..., n) position), forward and backward, so no whole-batch lifted
    stack or attention temporary is formed. It keeps z, the gate and the
    (L, ..., N, H) memo of the coefficients; the backward lifts each block
    again and adds the parameter partials in block order. A ``parts`` dict
    receives what the node holds anyway, as arrays with no tape: ``z``, the
    step ``coeffs`` and, with ``fuse``, the ``gate``.
    """
    s, wq, wk, bias = as_tensor(stack), as_tensor(wq), as_tensor(wk), as_tensor(bias)
    fused = () if fuse is None else tuple(as_tensor(t) for t in fuse)
    w, e, w_z, w_e, b = fused or (None,) * 5
    n_states, n, width = s.shape[0], s.shape[-2], s.shape[-1]
    heads, dh = wq.shape[0], wq.shape[1]
    d = heads * dh
    scale = 1.0 / math.sqrt(dh)
    k = wk.data * scale
    u = s.data.reshape(n_states, -1, n, width)
    n_slabs = u.shape[1]
    blocks = _row_blocks(n_slabs, n)

    def lifted(rows: slice, cols: slice) -> tuple[Array, Array]:
        ub = u[:, rows, cols].reshape(n_states, -1, width)
        return ub, (ub if w is None else ub @ w.data).reshape(n_states, -1, heads, dh)

    z = np.empty((n_slabs, n, d))
    memo = np.empty((n_states, n_slabs, n, heads))
    out, y = z, None
    if fused:
        eb = e.data @ w_e.data + b.data
        out, y = np.empty_like(z), np.empty_like(z)
    for rows, cols in blocks:
        x = lifted(rows, cols)[1]
        zb, mb = _attend(x, wq.data, k, bias.data, signed)
        zb = zb.reshape(z[rows, cols].shape)
        z[rows, cols] = zb
        memo[:, rows, cols] = mb.reshape(memo[:, rows, cols].shape)
        if fused:
            pre = zb @ w_z.data
            pre += eb[cols]
            y[rows, cols] = yb = _logistic(pre)
            eblk = e.data[cols]
            ob = zb - eblk
            ob *= yb
            ob += eblk
            out[rows, cols] = ob
    lead = s.shape[1:-1]
    if parts is not None:
        coeffs = memo * bias.data[:, None, None, None] if signed else memo
        parts.update(z=z.reshape(lead + (d,)), coeffs=coeffs.reshape((n_states,) + lead + (heads,)))
        if fused:
            parts["gate"] = y.reshape(lead + (d,))

    def backward(g: Array) -> None:
        g = g.reshape(n_slabs, n, d)
        ds_all = np.empty(u.shape)
        dwq, dk, dbias = np.zeros(wq.shape), np.zeros(wk.shape), np.zeros(bias.shape)
        if fused:
            dw, dw_z = np.zeros(w.shape), np.zeros(w_z.shape)
            de_blend, da_sum = np.zeros((n, d)), np.zeros((n, d))
        for rows, cols in blocks:
            ub, x = lifted(rows, cols)
            dzb = g[rows, cols]
            if fused:
                zb, yb, eblk = z[rows, cols], y[rows, cols], e.data[cols]
                ga = dzb * yb
                de_blend[cols] += (dzb - ga).sum(axis=0)
                da = 1.0 - yb
                da *= yb
                da *= dzb * (zb - eblk)
                da_sum[cols] += da.sum(axis=0)
                dw_z += zb.reshape(-1, d).T @ da.reshape(-1, d)
                dzb = ga + da @ w_z.data.T
            mb = memo[:, rows, cols].reshape(n_states, -1, heads)
            ds, dwq_b, dk_b, dbias_b = _attend_backward(x, wq.data, k, bias.data, signed, mb,
                                                        dzb.reshape(-1, heads, dh))
            dwq += dwq_b
            dk += dk_b
            dbias += dbias_b
            ds = ds.reshape(n_states, -1, d)
            if fused:
                dw += ub.reshape(-1, width).T @ ds.reshape(-1, d)
                ds = ds @ w.data.T
            ds_all[:, rows, cols] = ds.reshape(ds_all[:, rows, cols].shape)
        if s.requires_grad:
            s._accumulate(ds_all.reshape(s.shape))
        if wq.requires_grad:
            wq._accumulate(dwq)
        if wk.requires_grad:
            wk._accumulate(dk * scale)
        if signed and bias.requires_grad:
            bias._accumulate(dbias)
        if fused:
            if w.requires_grad:
                w._accumulate(dw)
            if e.requires_grad:
                e._accumulate(de_blend + da_sum @ w_e.data.T)
            if w_z.requires_grad:
                w_z._accumulate(dw_z)
            if w_e.requires_grad:
                w_e._accumulate(e.data.T @ da_sum)
            if b.requires_grad:
                b._accumulate(da_sum.sum(axis=0))

    return _node(out.reshape(lead + (d,)), (s, wq, wk, bias) + fused, backward)


def blend(g: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """``g * a + (1 - g) * b`` with broadcasting, as one node, computed as
    ``b + g * (a - b)``."""
    g, a, b = as_tensor(g), as_tensor(a), as_tensor(b)
    diff = a.data - b.data
    data = g.data * diff
    data += b.data

    def backward(gr: Array) -> None:
        if g.requires_grad:
            g._accumulate(_unbroadcast(gr * diff, g.shape))
        ga = gr * g.data
        if a.requires_grad:
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(gr - ga, b.shape))

    return _node(data, (g, a, b), backward)


# -- gradient checking ---------------------------------------------------------

def zero_grads(params: dict[str, Tensor] | Iterable[Tensor]) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.zero_grad()


GRAD_CHECK_STEP = 1e-5  # central-difference step of grad_check


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    samples_per_param: int | None = 8,
    seed: int = 0,
) -> float:
    """Max relative error of reverse-mode gradients vs central differences
    with step ``GRAD_CHECK_STEP``.

    ``f`` must rebuild the loss from the live ``params`` tensors on every
    call. ``samples_per_param=None`` checks every coordinate.
    """
    rng = np.random.default_rng(seed)
    zero_grads(params)
    loss = f()
    if not np.isfinite(loss.data).all():
        raise RuntimeError("grad_check: non-finite loss")
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if samples_per_param is None or samples_per_param >= n:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=samples_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            with no_grad():
                flat[c] = orig + GRAD_CHECK_STEP
                hi = float(f().data)
                flat[c] = orig - GRAD_CHECK_STEP
                lo = float(f().data)
            flat[c] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise RuntimeError("grad_check: non-finite loss at perturbed point")
            numeric = (hi - lo) / (2.0 * GRAD_CHECK_STEP)
            ana = analytic[name].reshape(-1)[c]
            err = abs(ana - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst

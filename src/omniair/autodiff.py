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
four hand-written model ops with closed-form backwards, each one node:
``diffuse`` (the whole multi-step
restart diffusion over a fixed-degree (N, K) neighbour table),
``step_attention`` (per-head signed or softmax attention over the diffusion
states), ``gate`` (a logistic gate over ``[z || e]``, one weight block
each) and ``blend`` (``g * a + (1 - g) * b``). There are no views and no
dtype zoo. Repeated targets add up through ``np.bincount``, never through
``np.add.at``.

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


def leaky_relu(a, slope: float = 0.1) -> Tensor:
    a = as_tensor(a)
    data = np.where(a.data > 0, a.data, slope * a.data)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g * np.where(a.data > 0, 1.0, slope))

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


# -- step attention and the identity gate ----------------------------------------

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


def step_attention(stack: Tensor, wq: Tensor, wk: Tensor, bias: Tensor, signed: bool) -> Tensor:
    """Combine the L states of an (L, ..., D) stack with per-row, per-head
    step coefficients: ``z = sum_l c_l s_l``, shape (..., D).

    D splits into H heads of dh = D / H columns, and ``wq``, ``wk`` are
    (H, dh, dh). Per head, the pooled query is ``q = mean_l(s_l) wq`` and
    step l scores ``(s_l wk) . q / sqrt(dh)``, computed as ``s_l . r`` with
    ``r = q wk^T / sqrt(dh)``, so no key is formed. ``signed`` coefficients
    are ``tanh(score_l) * bias_l``; otherwise they are a softmax over steps
    and ``bias`` gets no gradient. The backward is closed-form.
    """
    s, wq, wk, bias = as_tensor(stack), as_tensor(wq), as_tensor(wk), as_tensor(bias)
    n_steps = s.shape[0]
    heads, dh = wq.shape[0], wq.shape[1]
    scale = 1.0 / math.sqrt(dh)
    x = s.data.reshape(n_steps, -1, heads, dh)
    mean = x.mean(axis=0)
    k = wk.data * scale
    q = _per_head(mean, wq.data)
    r = _per_head(q, k.transpose(0, 2, 1))
    score = np.einsum("lphj,phj->lph", x, r)
    if signed:
        t = np.tanh(score)
        c = t * bias.data[:, None, None]
    else:
        ex = np.exp(score - score.max(axis=0))
        c = ex / ex.sum(axis=0)
    z = np.einsum("lph,lphj->phj", c, x)

    def backward(g: Array) -> None:
        g = g.reshape(z.shape)
        dc = np.einsum("lphj,phj->lph", x, g)
        if signed:
            if bias.requires_grad:
                bias._accumulate(np.einsum("lph,lph->l", dc, t))
            dscore = t * t
            np.subtract(1.0, dscore, out=dscore)
            dscore *= bias.data[:, None, None]
            dscore *= dc
        else:
            dscore = c * (dc - (c * dc).sum(axis=0))
        dr = np.einsum("lph,lphj->phj", dscore, x)
        if wk.requires_grad:
            wk._accumulate(_per_head_outer(dr, q) * scale)
        dq = _per_head(dr, k)
        if wq.requires_grad:
            wq._accumulate(_per_head_outer(mean, dq))
        if s.requires_grad:
            # step by step, into the output and one reused (P, H, dh) buffer
            dmean = _per_head(dq, wq.data.transpose(0, 2, 1))
            dmean /= n_steps
            ds, tmp = np.empty(x.shape), np.empty(g.shape)
            for l in range(n_steps):
                np.einsum("ph,phj->phj", c[l], g, out=ds[l])
                ds[l] += np.einsum("ph,phj->phj", dscore[l], r, out=tmp)
                ds[l] += dmean
            s._accumulate(ds.reshape(s.shape))

    return _node(z.reshape(s.shape[1:]), (s, wq, wk, bias), backward)


def gate(z: Tensor, e: Tensor, w_z: Tensor, w_e: Tensor, b: Tensor) -> Tensor:
    """``sigmoid([z || e] [w_z; w_e] + b)`` for (..., N, D) rows ``z`` and an
    (N, D) ``e`` that broadcasts over the leading axes, computed as
    ``z w_z + (e w_e + b)`` so ``e`` is projected once per row of ``e``.
    The logistic is :func:`sigmoid`'s, bit for bit; the backward is
    closed-form."""
    z, e, w_z, w_e, b = (as_tensor(t) for t in (z, e, w_z, w_e, b))
    pre = z.data @ w_z.data
    pre += e.data @ w_e.data + b.data
    y = _logistic(pre)

    def backward(g: Array) -> None:
        da = 1.0 - y
        da *= y
        da *= g
        de = da.sum(axis=tuple(range(da.ndim - 2)))
        if z.requires_grad:
            z._accumulate(da @ w_z.data.T)
        if e.requires_grad:
            e._accumulate(de @ w_e.data.T)
        if w_z.requires_grad:
            d = z.shape[-1]
            w_z._accumulate(z.data.reshape(-1, d).T @ da.reshape(-1, w_z.shape[1]))
        if w_e.requires_grad:
            w_e._accumulate(e.data.T @ de)
        if b.requires_grad:
            b._accumulate(_unbroadcast(de, b.shape))

    return _node(y, (z, e, w_z, w_e, b), backward)


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

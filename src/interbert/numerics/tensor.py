"""Dense tensors with a dynamic reverse-mode differentiation tape.

Every operation computes its result eagerly with numpy and, when gradient
tracking is enabled, records a backward closure on the output tensor.
``backward`` walks the recorded graph once in reverse topological order and
accumulates gradients into the leaves; an inner node's gradient is dropped
as soon as it has flowed to the node's parents, so only leaves keep one.
The graph is rebuilt from scratch on each forward pass; nothing is cached
between passes, which keeps repeated runs bit-for-bit deterministic.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float64

# Target marker for positions excluded from cross-entropy losses.
IGNORE_INDEX = -1

# Additive logit for masked attention targets. Large enough that exp()
# underflows to exactly 0.0, so padding is invisible bit-for-bit, while the
# arithmetic stays finite (no inf - inf surprises in max-subtraction).
NEG_LOGIT = -1.0e30

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


class NumericsError(ValueError):
    """Shape mismatch, invalid index, or non-finite value."""


@contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense n-d value array, optionally carrying a gradient.

    ``values`` is treated as immutable once the tensor has entered a graph;
    a leaf's ``grad`` is lazily allocated and accumulates across backward
    passes until ``zero_grad`` clears it (an inner node's lasts only while
    ``backward`` passes it on).
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, values, requires_grad: bool = False, *, _parents=(), _backward_fn=None):
        arr = np.asarray(values)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(DEFAULT_DTYPE)
        self.values: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = _parents
        self._backward_fn: Callable[[np.ndarray], None] | None = _backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise NumericsError(f"item() needs a single-element tensor, got shape {self.values.shape}")
        return float(self.values.reshape(()))

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into ``grad``. A ``fresh`` array, allocated for this
        tensor alone, becomes the first gradient as it is; any other is
        copied, since one array may flow to several parents."""
        if self.grad is None:
            if fresh and type(g) is np.ndarray and g.shape == self.values.shape and g.dtype == self.values.dtype:
                self.grad = g
            else:
                self.grad = np.array(np.broadcast_to(g, self.values.shape), dtype=self.values.dtype, order="C")
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.values.shape)}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracks(t: Tensor) -> bool:
    return t.requires_grad or t._backward_fn is not None


def _make(values: np.ndarray, grads: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]],
          shared: Callable[[np.ndarray], object] | None = None) -> Tensor:
    """Wrap an op result, recording per-parent gradient closures.

    ``grads`` pairs each parent with a function mapping the output gradient
    to that parent's gradient contribution. Parents that track nothing are
    dropped, so constant subgraphs never enter the tape. Given ``shared``,
    each backward call maps the output gradient through it once and every
    closure receives that result instead, returning arrays of its own.
    """
    if not _grad_enabled:
        return Tensor(values)
    tracked = [(p, fn) for p, fn in grads if _tracks(p)]
    if not tracked:
        return Tensor(values)

    def backward_fn(g: np.ndarray) -> None:
        h = g if shared is None else shared(g)
        for parent, fn in tracked:
            grad = fn(h)
            # a closure's own allocation (not ``g`` passed through, not a view) is safe to keep
            fresh = shared is not None or (grad is not g and getattr(grad, "base", g) is None)
            parent.accumulate_grad(grad, fresh=fresh)

    return Tensor(values, _parents=tuple(p for p, _ in tracked), _backward_fn=backward_fn)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values + b.values
    return _make(out, [
        (a, lambda g: _unbroadcast(g, a.values.shape)),
        (b, lambda g: _unbroadcast(g, b.values.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values * b.values
    return _make(out, [
        (a, lambda g: _unbroadcast(g * b.values, a.values.shape)),
        (b, lambda g: _unbroadcast(g * a.values, b.values.shape)),
    ])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise NumericsError(f"matmul expects rank-2 operands, got {a.values.shape} @ {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise NumericsError(f"matmul inner dimensions disagree: {a.values.shape} @ {b.values.shape}")
    out = a.values @ b.values
    return _make(out, [
        (a, lambda g: g @ b.values.T),
        (b, lambda g: a.values.T @ g),
    ])


def linear(x, w, b=None) -> Tensor:
    """``x @ w``, plus the bias row ``b`` when given, as one node."""
    x, w = as_tensor(x), as_tensor(w)
    if x.values.ndim != 2 or w.values.ndim != 2 or x.values.shape[1] != w.values.shape[0]:
        raise NumericsError(f"linear needs rank-2 operands with equal inner sizes, got {x.values.shape} @ "
                            f"{w.values.shape}")
    out = x.values @ w.values
    grads = [(x, lambda g: g @ w.values.T), (w, lambda g: x.values.T @ g)]
    if b is not None:
        b = as_tensor(b)
        out += b.values
        grads.append((b, lambda g: g.sum(axis=0)))
    return _make(out, grads)


def transpose(a) -> Tensor:
    """The matrix transpose (all axes reversed)."""
    a = as_tensor(a)
    return _make(np.ascontiguousarray(a.values.T), [(a, lambda g: np.ascontiguousarray(g.T))])


def reshape(a, shape) -> Tensor:
    """A view where numpy can give one: values are never written in place."""
    a = as_tensor(a)
    out = a.values.reshape(shape)
    return _make(out, [(a, lambda g: g.reshape(a.values.shape))])


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    size = a.values.shape[axis]
    if start < 0 or length < 0 or start + length > size:
        raise NumericsError(f"narrow [{start}, {start + length}) outside axis of size {size}")
    index = [slice(None)] * a.values.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def to_parent(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(a.values)
        full[index] = g
        return full

    return _make(a.values[index].copy(), [(a, to_parent)])


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise NumericsError("concat of an empty sequence")
    out = np.concatenate([p.values for p in parts], axis=axis)
    grads = []
    offset = 0
    for p in parts:
        n = p.values.shape[axis]
        index = [slice(None)] * out.ndim
        index[axis] = slice(offset, offset + n)
        grads.append((p, lambda g, index=tuple(index): g[index]))
        offset += n
    return _make(out, grads)


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    x = as_tensor(x)
    v = x.values
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def to_parent(g: np.ndarray) -> np.ndarray:
        inner = (g * s).sum(axis=axis, keepdims=True)
        return s * (g - inner)

    return _make(s, [(x, to_parent)])


def attention(q, k, v, queries, keys, bias, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` holds packed query rows and ``k``, ``v`` packed key/value rows,
    (N, hidden) each; ``queries`` and ``keys`` give the (sequence, position)
    of every row in a padded B×L grid, and ``bias`` is the grid's (B, 1, 1, L)
    additive key bias, which must hide every position no key row fills. Keys
    and values go straight into head-major (B, heads, L, d) grids (keys
    transposed). Queries go into a compact (B, heads, Lq, d) grid, each row
    at its rank among its own sequence's query rows in the order given, Lq
    the most query rows of any one sequence; so scores and probabilities are
    (B, heads, Lq, L), and a query's position plays no part beyond naming its
    sequence. The (Nq, hidden) context comes back gathered at the query rows.
    The tape keeps the three grids and the probabilities only.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    (qb, _), (kb, kl) = queries, keys
    batch, length = bias.shape[0], bias.shape[-1]
    rows, hidden = q.values.shape
    if hidden % heads or k.values.shape != v.values.shape or k.values.shape[1] != hidden:
        raise NumericsError(f"attention over {heads} heads got q {q.values.shape}, k {k.values.shape}, "
                            f"v {v.values.shape}")
    counts = np.bincount(qb, minlength=batch)
    order = np.argsort(qb, kind="stable")
    ql = np.empty(rows, np.int64)
    ql[order] = np.arange(rows) - np.repeat(np.cumsum(counts) - counts, counts)  # rank within its sequence
    d, dtype = hidden // heads, q.values.dtype
    qh = np.zeros((batch, heads, counts.max(initial=0), d), dtype)
    kt = np.zeros((batch, heads, d, length), dtype)
    vh = np.zeros((batch, heads, length, d), dtype)
    qh[qb, :, ql, :] = q.values.reshape(rows, heads, d)
    kt[kb, :, :, kl] = k.values.reshape(-1, heads, d)
    vh[kb, :, kl, :] = v.values.reshape(-1, heads, d)
    scale = dtype.type(1.0 / math.sqrt(d))  # a float64 scalar would promote float32 runs
    probs = np.matmul(qh, kt)
    probs *= scale
    probs += bias.astype(dtype, copy=False)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    out = np.matmul(probs, vh)[qb, :, ql, :].reshape(rows, hidden)

    def grids(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dQ, dK and dV as packed rows, from one dS per gradient."""
        g_ctx = np.zeros_like(qh)
        g_ctx[qb, :, ql, :] = g.reshape(rows, heads, d)
        d_scores = np.matmul(g_ctx, np.swapaxes(vh, -1, -2))
        d_v = np.matmul(np.swapaxes(probs, -1, -2), g_ctx)
        d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)  # softmax backward
        d_scores *= probs
        d_scores *= scale
        d_q = np.matmul(d_scores, np.swapaxes(kt, -1, -2))
        d_kt = np.matmul(np.swapaxes(qh, -1, -2), d_scores)
        return (d_q[qb, :, ql, :].reshape(rows, hidden), d_kt[kb, :, :, kl].reshape(-1, hidden),
                d_v[kb, :, kl, :].reshape(-1, hidden))

    return _make(out, [(q, itemgetter(0)), (k, itemgetter(1)), (v, itemgetter(2))], shared=grids)


def layer_norm(x, gain, bias, eps: float = 1e-12) -> Tensor:
    """Per-row normalization over the last axis, then an affine transform."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    v = x.values
    if v.shape[-1] < 2:
        raise NumericsError("layer_norm needs a last axis of size >= 2")
    xhat = v - v.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    var += eps
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    out = xhat * gain.values
    out += bias.values

    def to_x(g: np.ndarray) -> np.ndarray:
        gd = g * gain.values
        spread = gd * xhat
        np.multiply(xhat, spread.mean(axis=-1, keepdims=True), out=spread)
        gd -= gd.mean(axis=-1, keepdims=True)
        gd -= spread
        gd *= inv
        return gd

    return _make(out, [
        (x, to_x),
        (gain, lambda g: _unbroadcast(g * xhat, gain.values.shape)),
        (bias, lambda g: _unbroadcast(g, bias.values.shape)),
    ])


def gelu(x) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    x = as_tensor(x)
    v = x.values
    cdf = erf(v * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5

    def to_parent(g: np.ndarray) -> np.ndarray:
        slope = -0.5 * v
        slope *= v
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        slope *= v  # v * pdf
        slope += cdf
        slope *= g
        return slope

    return _make(v * cdf, [(x, to_parent)])


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of ``table``; gradients scatter back to those rows only."""
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise NumericsError("embedding ids must form a rank-1 sequence")
    rows = table.values.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise NumericsError(f"embedding id outside table of {rows} rows")

    def to_parent(g: np.ndarray) -> np.ndarray:
        full = np.zeros_like(table.values)
        if np.bincount(idx, minlength=1).max() <= 1:
            full[idx] = g  # a pure row gather: assignment
        else:  # add.at's sums in add.at's order, from one bincount over (id, column) cells
            ids, inverse = np.unique(idx, return_inverse=True)
            width = full.size // rows
            cells = (inverse[:, None] * width + np.arange(width)).reshape(-1)
            sums = np.bincount(cells, weights=g.reshape(-1), minlength=ids.size * width)
            full[ids] = sums.reshape((ids.size,) + full.shape[1:])
        return full

    return _make(table.values[idx], [(table, to_parent)])


def scatter_rows(rows, ids, num_rows: int) -> Tensor:
    """Place ``rows`` at the distinct row ``ids`` of a zero (num_rows, ...)
    array: the inverse of ``embedding_lookup``, whose gather is the backward."""
    rows = as_tensor(rows)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.shape != rows.values.shape[:1]:
        raise NumericsError(f"{idx.shape} row ids for {rows.values.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows or np.bincount(idx).max() > 1):
        raise NumericsError(f"row ids must be distinct and inside [0, {num_rows})")
    out = np.zeros((num_rows,) + rows.values.shape[1:], dtype=rows.values.dtype)
    out[idx] = rows.values
    return _make(out, [(rows, lambda g: g[idx])])


def cross_entropy_logits(logits, targets, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-likelihood over positions whose target is not
    ``ignore_index``; exactly zero when every position is ignored."""
    logits = as_tensor(logits)
    v = logits.values
    if v.ndim != 2:
        raise NumericsError(f"cross_entropy_logits expects rank-2 logits, got shape {v.shape}")
    t = np.asarray(targets, dtype=np.int64)
    if t.shape != (v.shape[0],):
        raise NumericsError(f"targets shape {t.shape} does not match {v.shape[0]} logit rows")
    keep = t != ignore_index
    if np.any((t[keep] < 0) | (t[keep] >= v.shape[1])):
        raise NumericsError(f"target id outside the {v.shape[1]} logit classes")
    count = int(keep.sum())
    if count == 0:
        zero = np.asarray(0.0, dtype=v.dtype)
        return _make(zero, [(logits, lambda g: np.zeros_like(v))])

    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    log_norm = np.log(e.sum(axis=1))
    picked = shifted[np.arange(v.shape[0]), np.where(keep, t, 0)]
    nll = (log_norm - picked)[keep]
    out = np.asarray(nll.sum() / count, dtype=v.dtype)
    rows = np.flatnonzero(keep)

    def to_parent(g: np.ndarray) -> np.ndarray:
        probs = e / e.sum(axis=1, keepdims=True)
        grad = np.zeros_like(v)
        grad[rows] = probs[rows]
        grad[rows, t[rows]] -= 1.0
        grad *= float(g) / count
        return grad

    return _make(out, [(logits, to_parent)])


def binary_cross_entropy_logits(logits, labels) -> Tensor:
    """Mean sigmoid cross-entropy of a logit vector against {0, 1} labels."""
    logits = as_tensor(logits)
    z = logits.values
    if z.ndim != 1:
        raise NumericsError(f"binary_cross_entropy_logits expects a rank-1 vector, got shape {z.shape}")
    y = np.asarray(labels, dtype=z.dtype)
    if y.shape != z.shape:
        raise NumericsError(f"labels shape {y.shape} does not match logits shape {z.shape}")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(per.mean(), dtype=z.dtype)

    def to_parent(g: np.ndarray) -> np.ndarray:
        sig = 1.0 / (1.0 + np.exp(-z))
        return (sig - y) * (float(g) / z.size)

    return _make(out, [(logits, to_parent)])


def backward(loss: Tensor, params=None) -> None:
    """Reverse-mode sweep from a scalar loss.

    Only leaves keep their gradients: an inner node's gradient is freed as
    soon as its closure has passed it on, so the sweep holds the gradients
    of its frontier, not of the whole tape. Leaf gradients accumulate across
    calls until ``zero_grad``, also when a graph is swept twice: each call
    adds its own contribution once. When ``params`` (a ParameterSet) is
    given, every parameter ends up with an allocated gradient, zero-filled
    if the loss never touched it.
    """
    if loss.values.size != 1:
        raise NumericsError(f"backward expects a scalar loss, got shape {loss.values.shape}")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.accumulate_grad(np.ones_like(loss.values))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None

    if params is not None:
        for _, p in params.items():
            if p.grad is None:
                p.grad = np.zeros_like(p.values)

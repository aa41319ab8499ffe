"""Dense tensors with a dynamic reverse-mode differentiation tape.

Every operation computes its result eagerly with numpy and, when gradient
tracking is enabled and an operand is tracked, links a graph node to the
output. The tape is made of nodes, not tensors: a node holds a gradient,
its parents' nodes, a backward closure and a shape and dtype, but no
values, and a closure captures only the arrays its backward reads. So the
tape keeps the nodes plus those saved arrays, and an activation that no
closure reads is freed as soon as the forward drops it. ``backward`` walks
the nodes once in reverse topological order and accumulates gradients into
the leaves; an inner node's gradient is dropped as soon as it has flowed
to the node's parents, so only leaves keep one. The graph is rebuilt from
scratch on each forward pass; nothing is cached between passes, which
keeps repeated runs bit-for-bit deterministic.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

# Target marker for positions excluded from cross-entropy losses.
IGNORE_INDEX = -1

# Additive logit for masked attention targets. Large enough that exp()
# underflows to exactly 0.0, so padding is invisible bit-for-bit, while the
# arithmetic stays finite (no inf - inf surprises in max-subtraction).
NEG_LOGIT = -1.0e30

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class _GradMode(threading.local):
    """Whether this thread records the tape; every thread starts recording."""
    enabled = True


_grad_mode = _GradMode()


class NumericsError(ValueError):
    """Shape mismatch, invalid index, or non-finite value."""


@contextmanager
def no_grad():
    """Disable tape recording inside the block (pure inference), in the
    calling thread only: other threads keep recording."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class _Node:
    """The tape's record of one tracked tensor, without its values: the
    gradient, the parents' nodes, the closure that sends the gradient to
    them (None on a leaf), and the values' shape and dtype."""

    __slots__ = ("grad", "_parents", "_backward_fn", "shape", "dtype")

    def __init__(self, shape, dtype, parents: tuple[_Node, ...] = (), backward_fn=None):
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn: Callable[[np.ndarray], None] | None = backward_fn
        self.shape, self.dtype = shape, dtype

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into ``grad``. A ``fresh`` array, allocated for this
        node alone, becomes the first gradient as it is; any other is
        copied, since one array may flow to several parents."""
        if self.grad is None:
            if fresh and type(g) is np.ndarray and g.shape == self.shape and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype, order="C")
        else:
            self.grad += g


class Tensor:
    """A dense n-d value array and, when it is tracked, its graph node.

    Leaves that require a gradient and op outputs recorded on the tape are
    tracked; constants and tensors made under ``no_grad`` have no node.
    ``grad`` and ``_parents`` are the node's. ``values`` is treated as
    immutable once the tensor has entered a graph; a leaf's ``grad`` is
    lazily allocated and accumulates across backward passes until it is
    cleared (an inner node's lasts only while ``backward`` passes it on).
    """

    __slots__ = ("values", "_node")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values)
        if arr.dtype not in (np.float64, np.float32):
            arr = arr.astype(DEFAULT_DTYPE)
        self.values: np.ndarray = arr
        self._node: _Node | None = _Node(arr.shape, arr.dtype) if requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def requires_grad(self) -> bool:
        """True for a tracked leaf: a tensor whose gradient is wanted."""
        return self._node is not None and self._node._backward_fn is None

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        """Start tracking a leaf; a tracked tensor is never untracked."""
        if not flag:
            raise NumericsError("requires_grad can only be turned on")
        if self._node is None:
            self._node = _Node(self.values.shape, self.values.dtype)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._node.grad = g

    @property
    def _parents(self) -> tuple[_Node, ...]:
        return () if self._node is None else self._node._parents

    def item(self) -> float:
        if self.values.size != 1:
            raise NumericsError(f"item() needs a single-element tensor, got shape {self.values.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.values.shape)}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(values: np.ndarray, grads: Sequence[tuple[Tensor, Callable[[np.ndarray], np.ndarray]]],
          shared: Callable[[np.ndarray], object] | None = None) -> Tensor:
    """Wrap an op result, linking its node to the parents' nodes.

    ``grads`` pairs each parent with a function mapping the output gradient
    to that parent's gradient contribution; it captures the arrays it reads,
    never a tensor. Untracked parents are dropped, so constant subgraphs
    never enter the tape. Given ``shared``, each backward call maps the
    output gradient through it once and every closure receives that result
    instead, returning arrays of its own.
    """
    out = Tensor(values)
    if not _grad_mode.enabled:
        return out
    tracked = [(p._node, fn) for p, fn in grads if p._node is not None]
    if not tracked:
        return out

    def backward_fn(g: np.ndarray) -> None:
        h = g if shared is None else shared(g)
        for parent, fn in tracked:
            grad = fn(h)
            # a closure's own allocation (not ``g`` passed through, not a view) is safe to keep
            fresh = shared is not None or (grad is not g and getattr(grad, "base", g) is None)
            parent.accumulate_grad(grad, fresh=fresh)

    out._node = _Node(out.values.shape, out.values.dtype, tuple(p for p, _ in tracked), backward_fn)
    return out


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
    a_shape, b_shape = a.values.shape, b.values.shape
    return _make(out, [(a, lambda g: _unbroadcast(g, a_shape)), (b, lambda g: _unbroadcast(g, b_shape))])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    return _make(av * bv, [
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ])


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise NumericsError(f"matmul expects rank-2 operands, got {a.values.shape} @ {b.values.shape}")
    if a.values.shape[1] != b.values.shape[0]:
        raise NumericsError(f"matmul inner dimensions disagree: {a.values.shape} @ {b.values.shape}")
    av, bv = a.values, b.values
    return _make(av @ bv, [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])


def linear(x, w, b=None) -> Tensor:
    """``x @ w``, plus the bias row ``b`` when given, as one node."""
    x, w = as_tensor(x), as_tensor(w)
    if x.values.ndim != 2 or w.values.ndim != 2 or x.values.shape[1] != w.values.shape[0]:
        raise NumericsError(f"linear needs rank-2 operands with equal inner sizes, got {x.values.shape} @ "
                            f"{w.values.shape}")
    xv, wv = x.values, w.values
    out = xv @ wv
    grads = [(x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g)]
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
    a_shape = a.values.shape
    return _make(a.values.reshape(shape), [(a, lambda g: g.reshape(a_shape))])


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    a = as_tensor(a)
    size = a.values.shape[axis]
    if start < 0 or length < 0 or start + length > size:
        raise NumericsError(f"narrow [{start}, {start + length}) outside axis of size {size}")
    index = [slice(None)] * a.values.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    a_shape, dtype = a.values.shape, a.values.dtype

    def to_parent(g: np.ndarray) -> np.ndarray:
        full = np.zeros(a_shape, dtype)
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


def _row_max(x: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as a length-1 axis. Taken down the
    columns of a transposed copy: a few long elementwise maxima instead of
    one short reduction per row, and bit-equal, as max ignores order."""
    n = x.shape[-1]
    return np.ascontiguousarray(x.reshape(-1, n).T).max(axis=0).reshape(x.shape[:-1] + (1,))


def _row_sum(x: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Sum of ``weight`` times each entry over the last axis, kept as a
    length-1 axis: one matrix-vector product of the flattened rows with a
    constant vector in ``x``'s dtype, so BLAS does it."""
    n = x.shape[-1]
    return (x.reshape(-1, n) @ np.full((n, 1), weight, x.dtype)).reshape(x.shape[:-1] + (1,))


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept as a length-1 axis."""
    return _row_sum(x, 1.0 / x.shape[-1])


def _ranks(seq: np.ndarray, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank among the rows of its own sequence, in the order
    given, and the row count of every sequence 0..batch-1."""
    counts = np.bincount(seq, minlength=batch)
    rank = np.empty(seq.size, np.int64)
    rank[np.argsort(seq, kind="stable")] = np.arange(seq.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rank, counts


def attention(q, k, v, queries, keys, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` holds packed query rows and ``k``, ``v`` packed key/value rows,
    (N, hidden) each; ``queries`` and ``keys`` are the sequence id of every
    q row and of every k/v row, so a query attends to the keys of its own
    sequence only. The padded layout is scratch space inside this op: each
    row goes to its rank among its own sequence's rows in the order given,
    keys and values into head-major (B, heads, L, d) grids (keys transposed),
    L the most keys of any one sequence, queries into a (B, heads, Lq, d)
    grid, Lq the most queries of any one sequence, and a (B, 1, 1, L) key
    bias built from the key counts hides the unfilled key slots. The
    (Nq, hidden) context comes back gathered at the query rows. The tape
    keeps the three grids and the probabilities only.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    qb, kb = np.asarray(queries, np.int64), np.asarray(keys, np.int64)
    rows, hidden = q.values.shape
    if hidden % heads or k.values.shape != v.values.shape or k.values.shape[1] != hidden:
        raise NumericsError(f"attention over {heads} heads got q {q.values.shape}, k {k.values.shape}, "
                            f"v {v.values.shape}")
    batch = max(qb.max(initial=-1), kb.max(initial=-1)) + 1
    (ql, q_counts), (kl, k_counts) = _ranks(qb, batch), _ranks(kb, batch)
    if np.any(k_counts[qb] == 0):
        raise NumericsError("attention got a query row whose sequence has no key row")
    d, dtype, length = hidden // heads, q.values.dtype, k_counts.max(initial=0)
    bias = np.where(np.arange(length) < k_counts[:, None, None, None], 0.0, NEG_LOGIT).astype(dtype)
    qh = np.zeros((batch, heads, q_counts.max(initial=0), d), dtype)
    kt = np.zeros((batch, heads, d, length), dtype)
    vh = np.zeros((batch, heads, length, d), dtype)
    qh[qb, :, ql, :] = q.values.reshape(rows, heads, d)
    kt[kb, :, :, kl] = k.values.reshape(-1, heads, d)
    vh[kb, :, kl, :] = v.values.reshape(-1, heads, d)
    scale = dtype.type(1.0 / math.sqrt(d))  # a float64 scalar would promote float32 runs
    probs = np.matmul(qh, kt)
    probs *= scale
    probs += bias
    probs -= _row_max(probs)
    np.exp(probs, out=probs)
    probs /= _row_sum(probs)
    if not _grad_mode.enabled or all(t._node is None for t in (q, k, v)):
        # untracked: the context overwrites the query grid, and the other grids go before the gather
        np.matmul(probs, vh, out=qh)
        del probs, kt, vh
        return Tensor(qh[qb, :, ql, :].reshape(rows, hidden))
    out = np.matmul(probs, vh)[qb, :, ql, :].reshape(rows, hidden)

    def grids(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dQ, dK and dV as packed rows, from one dS per gradient."""
        g_ctx = np.zeros_like(qh)
        g_ctx[qb, :, ql, :] = g.reshape(rows, heads, d)
        d_scores = np.matmul(g_ctx, np.swapaxes(vh, -1, -2))
        d_v = np.matmul(np.swapaxes(probs, -1, -2), g_ctx)
        d_scores -= _row_sum(d_scores * probs)  # softmax backward
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
    xhat = v - _row_mean(v)
    var = _row_mean(np.square(xhat))
    var += eps
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    gv, gain_shape, bias_shape = gain.values, gain.values.shape, bias.values.shape
    out = xhat * gv
    out += bias.values

    def to_x(g: np.ndarray) -> np.ndarray:
        gd = g * gv
        spread = gd * xhat
        np.multiply(xhat, _row_mean(spread), out=spread)
        gd -= _row_mean(gd)
        gd -= spread
        gd *= inv
        return gd

    return _make(out, [
        (x, to_x),
        (gain, lambda g: _unbroadcast(g * xhat, gain_shape)),
        (bias, lambda g: _unbroadcast(g, bias_shape)),
    ])


# Cephes' erf and erfc (ndtr.c; Moshier 1989), the rational approximations
# scipy.special.erf evaluates for doubles; _erf takes the same steps in the
# same order, so it gives the same bits.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """Cephes' polevl, or with ``monic`` its p1evl (leading 1 left out of ``coef``), step for step."""
    ans = x + coef[0] if monic else coef[0] * x + coef[1]
    for c in coef[1 if monic else 2:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    """scipy.special.erf's bits: x * T(x²) / U(x²) for |x| <= 1, else
    ±(1 - (exp(-x²) * P(|x|)) / Q(|x|)). Float32 is evaluated in float64
    and rounded once, as scipy's float32 loop does."""
    v = np.asarray(x, np.float64).ravel()
    tail = v.size and not (-1.0 <= v.min() and v.max() <= 1.0)  # NaN fails both tests
    near = np.clip(v, -1.0, 1.0) if tail else v  # tail entries are overwritten below
    z = near * near
    out = _horner(z, _ERF_T)
    out *= near
    out /= _horner(z, _ERF_U, monic=True)
    if tail:
        far = np.flatnonzero(np.abs(v) > 1.0)  # NaN stays near, where it gives NaN
        # from 6 on, every Cephes branch (P/Q below 8, R/S from 8, erfc 0 once a * a > MAXLOG)
        # gives erfc(a) < 2**-54, so erf exactly 1; clipped to 6, P/Q gives the same 1
        a = np.minimum(np.abs(v[far]), 6.0)
        p, q, arg = _horner(a, _ERFC_P), _horner(a, _ERFC_Q, monic=True), -a * a
        z = np.exp(arg)
        # np.exp is within one ulp of libm's exp, which Cephes calls, and 1 - z * p / q falls
        # as z (> 0) rises: where both neighbours of z give one result, so does libm's z
        bits = z.view(np.int64)
        below, above = (bits - 1).view(np.float64), (bits + 1).view(np.float64)
        unsure = np.flatnonzero(1.0 - below * p / q != 1.0 - above * p / q)
        z[unsure] = np.fromiter(map(math.exp, arg[unsure].tolist()), np.float64, unsure.size)
        out[far] = np.copysign(1.0 - z * p / q, v[far])
    return out.reshape(x.shape).astype(x.dtype, copy=False)


def gelu(x) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x). A tracked output saves only its
    slope, Phi(x) + x * pdf(x), computed in the forward; an untracked one is
    computed in one array."""
    x = as_tensor(x)
    v = x.values
    cdf = _erf(v * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    if not _grad_mode.enabled or x._node is None:
        cdf *= v  # v * cdf: the product commutes exactly
        return Tensor(cdf)
    out = v * cdf
    slope = -0.5 * v
    slope *= v
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= v  # v * pdf
    slope += cdf
    return _make(out, [(x, lambda g: g * slope)])


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of ``table``; gradients scatter back to those rows only."""
    table = as_tensor(table)
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise NumericsError("embedding ids must form a rank-1 sequence")
    shape, dtype = table.values.shape, table.values.dtype
    rows = shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise NumericsError(f"embedding id outside table of {rows} rows")

    def to_parent(g: np.ndarray) -> np.ndarray:
        full = np.zeros(shape, dtype)
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


def cross_entropy_logits(logits, targets, ignore_index: int = IGNORE_INDEX, scale: float = 1.0) -> Tensor:
    """Mean negative log-likelihood over positions whose target is not
    ``ignore_index``, times ``scale``; exactly zero when every position is
    ignored. A scale of 1.0 leaves every bit of value and gradient as it is."""
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
        shape, dtype = v.shape, v.dtype
        return _make(np.asarray(0.0, dtype=dtype), [(logits, lambda g: np.zeros(shape, dtype))])

    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    log_norm = np.log(e.sum(axis=1))
    picked = shifted[np.arange(v.shape[0]), np.where(keep, t, 0)]
    nll = (log_norm - picked)[keep]
    out = np.asarray(nll.sum() / count * scale, dtype=v.dtype)
    rows = np.flatnonzero(keep)

    def to_parent(g: np.ndarray) -> np.ndarray:
        probs = e / e.sum(axis=1, keepdims=True)
        grad = np.zeros_like(e)  # e has v's shape, dtype and layout
        grad[rows] = probs[rows]
        grad[rows, t[rows]] -= 1.0
        grad *= float(g) * scale / count
        return grad

    return _make(out, [(logits, to_parent)])


def binary_cross_entropy_logits(logits, labels, scale: float = 1.0) -> Tensor:
    """Mean sigmoid cross-entropy of a logit vector against {0, 1} labels,
    times ``scale`` (1.0 leaves every bit as it is)."""
    logits = as_tensor(logits)
    z = logits.values
    if z.ndim != 1:
        raise NumericsError(f"binary_cross_entropy_logits expects a rank-1 vector, got shape {z.shape}")
    y = np.asarray(labels, dtype=z.dtype)
    if y.shape != z.shape:
        raise NumericsError(f"labels shape {y.shape} does not match logits shape {z.shape}")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(per.mean() * scale, dtype=z.dtype)

    def to_parent(g: np.ndarray) -> np.ndarray:
        sig = 1.0 / (1.0 + np.exp(-z))
        return (sig - y) * (float(g) * scale / z.size)

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

    topo: list[_Node] = []
    seen: set[int] = set()
    stack = [] if loss._node is None else [(loss._node, False)]  # an untracked loss reaches no node
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

    if topo:
        loss._node.accumulate_grad(np.ones_like(loss.values))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None

    if params is not None:
        for _, p in params.items():
            if p.grad is None:
                p.grad = np.zeros_like(p.values)

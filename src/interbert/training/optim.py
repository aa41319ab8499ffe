"""AdamW with decoupled decay, the warmup/decay schedule, and parameter
averaging.

Weight decay applies only to rank-2 parameters: every rank-1 tensor in this
network is a bias or a normalization gain/offset, which stay undecayed.

The arithmetic lives once, in ``adamw_range`` and ``ema_range``: chunked
kernels over a span of flat rows. Training runs them on ranges of its shared
store; ``adamw_step`` and ``ema_update`` run them over each parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import NumericsError, ParameterSet

_CHUNK = 1 << 14  # elements a kernel pass takes at once: its rows and scratch stay in cache


@dataclass
class AdamWState:
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step_count: int = 0

    @classmethod
    def for_params(cls, params: ParameterSet) -> "AdamWState":
        return cls(
            first_moment={name: np.zeros_like(p.values) for name, p in params.items()},
            second_moment={name: np.zeros_like(p.values) for name, p in params.items()},
        )


def decay_runs(arrays) -> list[tuple[int, int]]:
    """Where weight decay applies in ``arrays`` laid end to end: the
    ``(start, stop)`` of each rank-2 one."""
    stops = np.cumsum([array.size for array in arrays]).tolist()
    return [(stop - array.size, stop) for array, stop in zip(arrays, stops) if array.ndim >= 2]


def adamw_range(src, dst, grad: np.ndarray, span: slice, decay, lr: float, t: int, *,
                beta1: float, beta2: float, eps: float, weight_decay: float) -> None:
    """Update ``t`` of AdamW over ``span`` of flat rows: ``src`` holds the
    values and both moments before it, ``dst`` (which may be ``src``) receives
    them after; ``grad`` is the gradient row and ``decay`` the
    ``decay_runs`` of the rows. Only ``span`` of ``dst`` is written."""
    values, first, second = src
    new_values, new_first, new_second = dst
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    decay = decay if weight_decay != 0.0 else ()
    update, scratch = (np.empty(min(_CHUNK, span.stop - span.start), grad.dtype) for _ in range(2))
    for a in range(span.start, span.stop, _CHUNK):
        b = min(a + _CHUNK, span.stop)
        g, u, w = grad[a:b], update[:b - a], scratch[:b - a]
        m = np.multiply(first[a:b], beta1, out=new_first[a:b])
        m += np.multiply(g, 1.0 - beta1, out=u)
        v = np.multiply(second[a:b], beta2, out=new_second[a:b])
        v += np.multiply(np.multiply(g, g, out=u), 1.0 - beta2, out=u)
        np.sqrt(np.divide(v, correction2, out=w), out=w)
        w += eps
        np.divide(np.divide(m, correction1, out=u), w, out=u)
        for start, stop in decay:
            lo, hi = max(start, a) - a, min(stop, b) - a
            if lo < hi:
                u[lo:hi] += np.multiply(values[a + lo:a + hi], weight_decay, out=w[lo:hi])
        np.subtract(values[a:b], np.multiply(u, lr, out=u), out=new_values[a:b])


def ema_range(src: np.ndarray, dst: np.ndarray, values: np.ndarray, span: slice, rate: float) -> None:
    """``dst <- rate * src + (1 - rate) * values`` over ``span`` of flat rows;
    ``dst`` may be ``src``."""
    scratch = np.empty(min(_CHUNK, span.stop - span.start), values.dtype)
    for a in range(span.start, span.stop, _CHUNK):
        b = min(a + _CHUNK, span.stop)
        np.multiply(src[a:b], rate, out=dst[a:b])
        dst[a:b] += np.multiply(values[a:b], 1.0 - rate, out=scratch[:b - a])


def _rows(arrays) -> list[np.ndarray]:
    """Each array as one flat row: a view of a C-contiguous array, else a copy."""
    return [np.ascontiguousarray(array).reshape(-1) for array in arrays]


def _write_back(arrays, rows) -> None:
    """Copy each row that ``_rows`` had to copy back into its array."""
    for array, row in zip(arrays, rows):
        if not np.may_share_memory(array, row):
            array[...] = row.reshape(array.shape)


def adamw_step(params: ParameterSet, state: AdamWState, lr: float, *,
               beta1: float = 0.9, beta2: float = 0.9999,
               eps: float = 1e-6, weight_decay: float = 0.01) -> None:
    """One bias-corrected update with decoupled weight decay, in place. Every
    gradient is checked before any value, moment or the step count moves."""
    for name, p in params.items():
        if p.grad is None:
            raise NumericsError(f"parameter {name} has no gradient; run backward first")
        if not np.all(np.isfinite(p.grad)):
            raise NumericsError(f"non-finite gradient in {name} at step {state.step_count + 1}")
    state.step_count += 1
    for name, p in params.items():
        arrays = [p.values, state.first_moment[name], state.second_moment[name]]
        rows = _rows(arrays)
        adamw_range(rows, rows, _rows([p.grad])[0], slice(0, p.values.size), decay_runs([p.values]), lr,
                    state.step_count, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay)
        _write_back(arrays, rows)


def lr_at(step: int, learning_rate: float, warmup_steps: int, total_steps: int) -> float:
    """Linear 0 -> lr over the warmup, then linear lr -> 0 at total_steps."""
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup_steps > 0 and step < warmup_steps:
        return learning_rate * step / warmup_steps
    if total_steps == warmup_steps:
        return 0.0 if step == total_steps else learning_rate
    return learning_rate * (total_steps - step) / (total_steps - warmup_steps)


def ema_update(shadow: dict[str, np.ndarray], params: ParameterSet, rate: float) -> None:
    """shadow <- rate * shadow + (1 - rate) * params, in place."""
    for name, p in params.items():
        average, values = _rows([shadow[name], p.values])
        ema_range(average, average, values, slice(0, average.size), rate)
        _write_back([shadow[name]], [average])

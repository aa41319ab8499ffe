"""AdamW with decoupled decay, the warmup/decay schedule, and parameter
averaging.

Weight decay applies only to rank-2 parameters: every rank-1 tensor in this
network is a bias or a normalization gain/offset, which stay undecayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..numerics import NumericsError, ParameterSet


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
    t = state.step_count
    correction1 = 1.0 - beta1 ** t
    correction2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / correction1) / (np.sqrt(v / correction2) + eps)
        if weight_decay != 0.0 and p.values.ndim >= 2:
            update = update + weight_decay * p.values
        p.values -= lr * update


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
        s = shadow[name]
        s *= rate
        s += (1.0 - rate) * p.values

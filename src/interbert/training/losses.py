"""Loss assembly for the three pretraining objectives."""

from __future__ import annotations

import numpy as np

from .. import numerics as nt
from ..numerics import Tensor


def msm_loss(token_logits: Tensor, token_targets) -> Tensor:
    """Masked-segment prediction loss: cross-entropy averaged over every
    non-ignored row of the batch's flat (rows, vocab) logits; exactly zero
    when nothing is masked."""
    return nt.cross_entropy_logits(token_logits, token_targets)


def mrm_loss(region_logits: Tensor, region_targets) -> Tensor:
    """Masked-region classification loss over flat (rows, classes) logits,
    averaged like ``msm_loss``."""
    return nt.cross_entropy_logits(region_logits, region_targets)


def itm_loss(logits: Tensor, labels) -> Tensor:
    """Binary matching loss over a batch of (logit, 0/1 label) pairs."""
    return nt.binary_cross_entropy_logits(logits, np.asarray(labels, dtype=np.float64))


def total_loss(msm: Tensor, mrm: Tensor, itm: Tensor,
               weights: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> Tensor:
    """Weighted sum of the three components; gradients flow through all."""
    w1, w2, w3 = weights
    return nt.add(nt.add(nt.mul(msm, w1), nt.mul(mrm, w2)), nt.mul(itm, w3))

"""Loss assembly for the three pretraining objectives."""

from __future__ import annotations

import numpy as np

from .. import numerics as nt
from ..numerics import Tensor


def msm_loss(token_logits: Tensor, token_targets, scale: float = 1.0) -> Tensor:
    """Masked-segment prediction loss: cross-entropy averaged over every
    non-ignored row of the batch's flat (rows, vocab) logits; exactly zero
    when nothing is masked. A shard of a batch passes its share of the
    batch's targets as ``scale``, so the shards' losses sum to the batch's."""
    return nt.cross_entropy_logits(token_logits, token_targets, scale=scale)


def mrm_loss(region_logits: Tensor, region_targets, scale: float = 1.0) -> Tensor:
    """Masked-region classification loss over flat (rows, classes) logits,
    averaged and scaled like ``msm_loss``."""
    return nt.cross_entropy_logits(region_logits, region_targets, scale=scale)


def itm_loss(logits: Tensor, labels, scale: float = 1.0) -> Tensor:
    """Binary matching loss over a batch of (logit, 0/1 label) pairs, scaled
    like ``msm_loss`` by a shard's share of the batch's samples."""
    return nt.binary_cross_entropy_logits(logits, np.asarray(labels, dtype=np.float64), scale=scale)


def total_loss(msm: Tensor, mrm: Tensor, itm: Tensor,
               weights: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> Tensor:
    """Weighted sum of the three components; gradients flow through all."""
    w1, w2, w3 = weights
    return nt.add(nt.add(nt.mul(msm, w1), nt.mul(mrm, w2)), nt.mul(itm, w3))

"""Fused-sequence layouts and packed batches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IMAGE_SEGMENT = 0
TEXT_SEGMENT = 1


@dataclass(frozen=True)
class SequenceLayout:
    """Index bookkeeping for one fused image+text sequence.

    Position 0 is the image summary slot, positions 1..image_length-1 the
    objects, and the remaining text_length positions the token row block.
    """

    image_length: int
    text_length: int

    def key_bias(self) -> np.ndarray:
        """Additive attention bias per key: 0, as no position is padding."""
        return np.zeros(self.image_length + self.text_length)


def build_layout(num_objects: int, num_tokens: int) -> SequenceLayout:
    return SequenceLayout(image_length=num_objects + 1, text_length=num_tokens)


@dataclass
class PackedBatch:
    """Samples concatenated end to end, without padding: each array holds
    every sample's rows in turn, and the per-sample lengths, named as in
    ``SequenceLayout``, split them."""

    tokens: np.ndarray        # (sum of text_length,) int64
    features: np.ndarray      # (sum of objects, feature_dim)
    bboxes: np.ndarray        # (sum of objects, 4)
    widths: np.ndarray        # (B,)
    heights: np.ndarray       # (B,)
    image_length: np.ndarray  # (B,) the summary slot plus the objects
    text_length: np.ndarray   # (B,) the tokens

    def __len__(self) -> int:
        return self.widths.shape[0]

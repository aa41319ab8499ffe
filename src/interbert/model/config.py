"""Architecture hyperparameters, fused-sequence layouts and packed batches."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

VARIANT_INTERBERT = "interbert"
VARIANT_SINGLE_STREAM = "single_stream"

IMAGE_SEGMENT = 0
TEXT_SEGMENT = 1


@dataclass
class ModelConfig:
    """Network dimensions. Widths, depths, vocabulary and feature width
    default to the full-scale configuration, but max_objects (16; 100 under
    --paper-scale) and num_object_classes (the CLI reads it off the corpus)
    do not. The CLI substitutes desk-scale values unless --paper-scale is passed."""

    hidden_size: int = 768
    num_heads: int = 12
    ffn_size: int = 3072
    num_interaction_layers: int = 12
    num_extraction_layers: int = 6
    vocab_size: int = 30522
    object_feature_dim: int = 2048
    max_text_len: int = 40
    max_objects: int = 16
    num_object_classes: int = 33
    ln_eps: float = 1e-12
    init_std: float = 0.02
    architecture_variant: str = VARIANT_INTERBERT
    tie_msm_weights: bool = False

    def validate(self) -> None:
        if self.architecture_variant not in (VARIANT_INTERBERT, VARIANT_SINGLE_STREAM):
            raise ValueError(f"unknown architecture_variant: {self.architecture_variant!r}")
        for name in ("num_heads", "ffn_size", "vocab_size", "object_feature_dim", "max_text_len",
                     "max_objects", "num_object_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_size <= 0 or self.hidden_size % self.num_heads != 0:
            raise ValueError(f"hidden_size {self.hidden_size} must be a positive multiple of num_heads {self.num_heads}")
        if self.num_interaction_layers < 1:
            raise ValueError("need at least one interaction layer")
        if self.architecture_variant == VARIANT_INTERBERT and self.num_extraction_layers < 1:
            raise ValueError("the two-stream variant needs at least one extraction layer per stream")
        if self.num_extraction_layers < 0:
            raise ValueError("num_extraction_layers must be non-negative")
        if self.ln_eps <= 0 or self.init_std <= 0:
            raise ValueError("ln_eps and init_std must be positive")

    @property
    def limits(self) -> dict:
        """What every sample must meet, as keywords of ``data.check_limits``
        and ``make_batch``: the length limits and the object feature width.
        Pretraining, which reads the object labels, adds the class count."""
        return {"max_text_len": self.max_text_len, "max_objects": self.max_objects,
                "feature_dim": self.object_feature_dim}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**data)


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

"""The multimodal encoder: embeddings, a fused interaction stack over the
concatenated image+text sequence, per-modality extraction stacks on top,
and the three pretraining heads.

The forward pass takes a padded batch of B samples. Activations stay rank-2,
one row per position of every sample, (B*L, hidden), so every projection
and FFN is one matrix product. Attention alone reshapes to (B, heads, L, d)
and adds a (B, 1, 1, L) key bias that hides padding. A single sample is the
B=1 case of the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import numerics as nt
from ..numerics import ParameterSet, Tensor, load_checkpoint
from .config import (
    IMAGE_SEGMENT,
    TEXT_SEGMENT,
    VARIANT_INTERBERT,
    VARIANT_SINGLE_STREAM,
    ModelConfig,
    PaddedBatch,
    SequenceLayout,
    build_layout,
)

GEOMETRY_DIM = 5  # x1/W, y1/H, x2/W, y2/H, box area / image area


def _layer_spec(prefix: str, hidden: int, ffn: int) -> Iterator[tuple[str, tuple[int, ...], str]]:
    for name in ("wq", "wk", "wv", "wo"):
        yield prefix + "attn." + name, (hidden, hidden), "weight"
    # no key bias: a constant added to every key shifts each query's scores
    # uniformly, which softmax cancels, so the parameter would be inert
    for name in ("bq", "bv", "bo"):
        yield prefix + "attn." + name, (hidden,), "bias"
    yield prefix + "ln1.gain", (hidden,), "ln_gain"
    yield prefix + "ln1.bias", (hidden,), "ln_bias"
    yield prefix + "ffn.w1", (hidden, ffn), "weight"
    yield prefix + "ffn.b1", (ffn,), "bias"
    yield prefix + "ffn.w2", (ffn, hidden), "weight"
    yield prefix + "ffn.b2", (hidden,), "bias"
    yield prefix + "ln2.gain", (hidden,), "ln_gain"
    yield prefix + "ln2.bias", (hidden,), "ln_bias"


def parameter_spec(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Every parameter of the network: (name, shape, init kind), in the
    fixed construction order used by init_parameters and checkpoints."""
    h, f = config.hidden_size, config.ffn_size
    yield "embed.token_table", (config.vocab_size, h), "weight"
    yield "embed.position_table", (config.max_text_len, h), "weight"
    yield "embed.segment_table", (2, h), "weight"
    yield "embed.text_ln.gain", (h,), "ln_gain"
    yield "embed.text_ln.bias", (h,), "ln_bias"
    yield "embed.feature_proj.w", (config.object_feature_dim, h), "weight"
    yield "embed.feature_proj.b", (h,), "bias"
    yield "embed.box_proj.w", (GEOMETRY_DIM, h), "weight"
    yield "embed.box_proj.b", (h,), "bias"
    yield "embed.image_ln.gain", (h,), "ln_gain"
    yield "embed.image_ln.bias", (h,), "ln_bias"
    for i in range(config.num_interaction_layers):
        yield from _layer_spec(f"interaction.layer{i}.", h, f)
    if config.architecture_variant == VARIANT_INTERBERT:
        for stream in ("extract_image", "extract_text"):
            for i in range(config.num_extraction_layers):
                yield from _layer_spec(f"{stream}.layer{i}.", h, f)
    yield "heads.itm.w1", (h, h), "weight"
    yield "heads.itm.b1", (h,), "bias"
    yield "heads.itm.w2", (h, 1), "weight"
    yield "heads.itm.b2", (1,), "bias"
    if not config.tie_msm_weights:
        yield "heads.msm.w", (h, config.vocab_size), "weight"
    yield "heads.msm.b", (config.vocab_size,), "bias"
    yield "heads.mrm.w", (h, config.num_object_classes), "weight"
    yield "heads.mrm.b", (config.num_object_classes,), "bias"


def count_parameters(config: ModelConfig) -> int:
    """Total parameter count, computed from shapes without allocating."""
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_spec(config))


def init_parameters(config: ModelConfig, seed: int, dtype=np.float64) -> ParameterSet:
    """Gaussian(0, init_std) weights from a seeded generator; biases at 0,
    normalization gains at 1. Bit-identical across runs for a fixed seed."""
    config.validate()
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    for name, shape, kind in parameter_spec(config):
        if kind == "weight":
            values = rng.normal(0.0, config.init_std, size=shape)
        elif kind == "ln_gain":
            values = np.ones(shape)
        else:
            values = np.zeros(shape)
        params.add(name, Tensor(np.asarray(values, dtype=dtype), requires_grad=True))
    return params


@dataclass
class ModelOutputs:
    h_image: Tensor       # (B*(m+1), hidden), each sample's summary row first
    h_text: Tensor        # (B*n_tokens, hidden)
    pooled_image: Tensor  # (B, hidden)
    pooled_text: Tensor   # (B, hidden)


def image_geometry(bboxes: np.ndarray, width, height) -> np.ndarray:
    """Per-row geometry vectors with the whole-image row for the summary
    slot prepended; ``bboxes`` is (m, 4) with scalar sizes or (B, m, 4)
    with one size per sample."""
    boxes = np.asarray(bboxes, dtype=np.float64)
    w = np.asarray(width, dtype=np.float64)[..., None]
    h = np.asarray(height, dtype=np.float64)[..., None]
    x1, y1, x2, y2 = np.moveaxis(boxes, -1, 0)
    area = (x2 - x1) * (y2 - y1) / (w * h)
    rows = np.stack([x1 / w, y1 / h, x2 / w, y2 / h, area], axis=-1)
    summary = np.broadcast_to([0.0, 0.0, 1.0, 1.0, 1.0], rows.shape[:-2] + (1, GEOMETRY_DIM))
    return np.concatenate([summary, rows], axis=-2)


def _key_bias(layouts) -> np.ndarray:
    """(B, 1, 1, L) additive attention bias of one layout or a batch of them."""
    if isinstance(layouts, SequenceLayout):
        layouts = [layouts]
    return np.array([layout.key_bias() for layout in layouts])[:, None, None, :]


def _split_streams(fused: Tensor, layout: SequenceLayout, batch: int) -> tuple[Tensor, Tensor]:
    """Fused (B*L, hidden) rows -> image rows (B*Li, hidden) and text rows
    (B*Lt, hidden), sample-major."""
    rows = np.arange(batch * layout.total_length).reshape(batch, layout.total_length)
    return (nt.embedding_lookup(fused, rows[:, :layout.image_length].reshape(-1)),
            nt.embedding_lookup(fused, rows[:, layout.image_length:].reshape(-1)))


def _outputs(h_image: Tensor, h_text: Tensor, layout: SequenceLayout, batch: int) -> ModelOutputs:
    """Pool each sample's first image row (the summary) and first text row."""
    return ModelOutputs(
        h_image=h_image,
        h_text=h_text,
        pooled_image=nt.embedding_lookup(h_image, np.arange(batch) * layout.image_length),
        pooled_text=nt.embedding_lookup(h_text, np.arange(batch) * layout.text_length),
    )


def _sample_batch(tokens, features, bboxes, width, height, text_valid, object_valid) -> PaddedBatch:
    """One sample, with optional validity masks, as a padded batch of one."""
    ids = np.asarray(tokens, dtype=np.int64)
    feats = np.asarray(features, dtype=np.float64)
    layout = build_layout(feats.shape[0], ids.size, object_valid, text_valid)
    return PaddedBatch(
        tokens=ids[None],
        text_valid=layout.valid[None, layout.image_length:],
        features=feats[None],
        bboxes=np.asarray(bboxes, dtype=np.float64)[None],
        object_valid=layout.valid[None, 1:layout.image_length],
        widths=np.array([width]),
        heights=np.array([height]),
        layouts=[layout],
    )


class InterBert:
    """A configured network bound to its parameter set."""

    def __init__(self, config: ModelConfig, params: ParameterSet):
        config.validate()
        self.config = config
        self.params = params

    @classmethod
    def create(cls, config: ModelConfig, seed: int = 0, dtype=np.float64) -> "InterBert":
        return cls(config, init_parameters(config, seed, dtype))

    @classmethod
    def from_checkpoint(cls, config: ModelConfig, path) -> "InterBert":
        model = cls.create(config, seed=0)
        model.params.load_values(load_checkpoint(path))
        return model

    # -- embeddings ----------------------------------------------------

    def embed_text(self, token_ids, segment: int = TEXT_SEGMENT) -> Tensor:
        """Token + learned positional + segment embedding, normalized; ids
        are (n,) or (B, n), rows come out (B*n, hidden)."""
        ids = np.atleast_2d(np.asarray(token_ids, dtype=np.int64))
        batch, length = ids.shape
        if length > self.config.max_text_len:
            raise ValueError(f"text length {length} exceeds max_text_len {self.config.max_text_len}")
        p = self.params
        x = nt.add(
            nt.add(
                nt.embedding_lookup(p["embed.token_table"], ids.reshape(-1)),
                nt.embedding_lookup(p["embed.position_table"], np.tile(np.arange(length), batch)),
            ),
            nt.embedding_lookup(p["embed.segment_table"], [segment]),
        )
        return nt.layer_norm(x, p["embed.text_ln.gain"], p["embed.text_ln.bias"], self.config.ln_eps)

    def embed_image(self, features, bboxes, width, height,
                    segment: int = IMAGE_SEGMENT, object_valid=None) -> Tensor:
        """Project region features to the hidden size and add box-geometry
        and segment embeddings. The summary row is the mean of the real
        object features, pooled in feature space before projection. Inputs
        are one sample, (m, ...) with scalar sizes, or a batch, (B, m, ...)
        with one size per sample; rows come out (B*(m+1), hidden)."""
        feats = np.asarray(features, dtype=np.float64)
        boxes = np.asarray(bboxes, dtype=np.float64)
        if feats.ndim == 2:
            feats, boxes = feats[None], boxes[None]
            object_valid = None if object_valid is None else np.asarray(object_valid)[None]
        batch, m = feats.shape[:2]
        if m < 1:
            raise ValueError("image must contribute at least one object")
        if feats.shape[2] != self.config.object_feature_dim:
            raise ValueError(f"expected features of width {self.config.object_feature_dim}, got {feats.shape[1:]}")
        valid = np.ones((batch, m), dtype=bool) if object_valid is None else np.asarray(object_valid, dtype=bool)
        if not valid.any(axis=1).all():
            raise ValueError("image must have at least one valid object")
        sizes = np.zeros((batch, 2))
        sizes[:] = np.array([width, height], dtype=np.float64).T  # scalars or one size per sample
        real = boxes[valid]
        real_sizes = np.repeat(sizes, valid.sum(axis=1), axis=0)
        if np.any(real[:, 2] <= real[:, 0]) or np.any(real[:, 3] <= real[:, 1]):
            raise ValueError("degenerate bounding box")
        if real.min() < 0 or np.any(real[:, 2:] > real_sizes):
            raise ValueError("bounding box outside image bounds")

        summary = (feats * valid[..., None]).sum(axis=1, keepdims=True) / valid.sum(axis=1)[:, None, None]
        stacked = np.concatenate([summary, feats], axis=1).reshape(batch * (m + 1), -1)
        geometry = image_geometry(boxes, sizes[:, 0], sizes[:, 1]).reshape(batch * (m + 1), GEOMETRY_DIM)
        p = self.params
        dtype = p["embed.feature_proj.w"].values.dtype  # keep float32 runs in float32
        projected = nt.add(nt.matmul(Tensor(stacked.astype(dtype)), p["embed.feature_proj.w"]),
                           p["embed.feature_proj.b"])
        placed = nt.add(nt.matmul(Tensor(geometry.astype(dtype)), p["embed.box_proj.w"]), p["embed.box_proj.b"])
        seg = nt.embedding_lookup(p["embed.segment_table"], [segment])
        x = nt.add(nt.add(projected, placed), seg)
        return nt.layer_norm(x, p["embed.image_ln.gain"], p["embed.image_ln.bias"], self.config.ln_eps)

    # -- transformer blocks ---------------------------------------------

    def _attention(self, x: Tensor, prefix: str, key_bias: np.ndarray) -> Tensor:
        """Multi-head attention over (B*L, hidden) rows: heads come from a
        reshape to (B, heads, L, d), not from slicing."""
        p, cfg = self.params, self.config
        batch, length = key_bias.shape[0], key_bias.shape[-1]
        head_dim = cfg.hidden_size // cfg.num_heads

        def heads(t: Tensor, axes) -> Tensor:
            return nt.transpose(nt.reshape(t, (batch, length, cfg.num_heads, head_dim)), axes)

        q = heads(nt.add(nt.matmul(x, p[prefix + "attn.wq"]), p[prefix + "attn.bq"]), (0, 2, 1, 3))
        k_t = heads(nt.matmul(x, p[prefix + "attn.wk"]), (0, 2, 3, 1))  # (B, heads, d, L)
        v = heads(nt.add(nt.matmul(x, p[prefix + "attn.wv"]), p[prefix + "attn.bv"]), (0, 2, 1, 3))
        scale = x.dtype.type(1.0 / math.sqrt(head_dim))  # a float64 scalar would promote float32 runs
        scores = nt.add(nt.mul(nt.batch_matmul(q, k_t), scale), key_bias.astype(x.dtype))
        context = nt.batch_matmul(nt.softmax(scores, axis=-1), v)
        merged = nt.reshape(nt.transpose(context, (0, 2, 1, 3)), (batch * length, cfg.hidden_size))
        return nt.add(nt.matmul(merged, p[prefix + "attn.wo"]), p[prefix + "attn.bo"])

    def _encoder_layer(self, x: Tensor, prefix: str, key_bias: np.ndarray) -> Tensor:
        p, eps = self.params, self.config.ln_eps
        attended = self._attention(x, prefix, key_bias)
        mid = nt.layer_norm(nt.add(x, attended), p[prefix + "ln1.gain"], p[prefix + "ln1.bias"], eps)
        inner = nt.gelu(nt.add(nt.matmul(mid, p[prefix + "ffn.w1"]), p[prefix + "ffn.b1"]))
        ff = nt.add(nt.matmul(inner, p[prefix + "ffn.w2"]), p[prefix + "ffn.b2"])
        return nt.layer_norm(nt.add(mid, ff), p[prefix + "ln2.gain"], p[prefix + "ln2.bias"], eps)

    def interaction_forward(self, fused: Tensor, layouts) -> Tensor:
        """Full-context encoder over the concatenated image+text sequences,
        (B*L, hidden) for B layouts (or one); padded positions contribute
        nothing to attention."""
        bias = _key_bias(layouts)
        if fused.shape[0] != bias.shape[0] * bias.shape[-1]:
            raise ValueError(f"fused length {fused.shape[0]} does not match {bias.shape[0]} "
                             f"layouts of length {bias.shape[-1]}")
        x = fused
        for i in range(self.config.num_interaction_layers):
            x = self._encoder_layer(x, f"interaction.layer{i}.", bias)
        return x

    def extraction_forward(self, fused: Tensor, layouts) -> ModelOutputs:
        """Split the fused sequences back into streams and encode each with
        its own stack; attention never crosses the stream boundary."""
        if self.config.architecture_variant != VARIANT_INTERBERT:
            raise ValueError("extraction module is absent under the single_stream variant")
        bias = _key_bias(layouts)
        layout = layouts if isinstance(layouts, SequenceLayout) else layouts[0]
        image, text = _split_streams(fused, layout, bias.shape[0])
        for i in range(self.config.num_extraction_layers):
            image = self._encoder_layer(image, f"extract_image.layer{i}.", bias[..., :layout.image_length])
        for i in range(self.config.num_extraction_layers):
            text = self._encoder_layer(text, f"extract_text.layer{i}.", bias[..., layout.image_length:])
        return _outputs(image, text, layout, bias.shape[0])

    # -- composition -----------------------------------------------------

    def forward(self, tokens=None, features=None, bboxes=None, width=None, height=None,
                text_valid=None, object_valid=None, batch: PaddedBatch | None = None) -> ModelOutputs:
        """Forward a padded batch (see ``data.make_batch``) or, given one
        sample's arrays instead, that sample as the B=1 case of the same path."""
        if batch is None:
            batch = _sample_batch(tokens, features, bboxes, width, height, text_valid, object_valid)
        size, layout = len(batch), batch.layouts[0]
        image = self.embed_image(batch.features, batch.bboxes, batch.widths, batch.heights,
                                 object_valid=batch.object_valid)
        text = self.embed_text(batch.tokens)
        # stacked rows are [every image row; every text row]; fused rows go sample by sample
        image_rows = np.arange(size * layout.image_length).reshape(size, -1)
        text_rows = size * layout.image_length + np.arange(size * layout.text_length).reshape(size, -1)
        fused = nt.embedding_lookup(nt.concat([image, text], axis=0),
                                    np.concatenate([image_rows, text_rows], axis=1).reshape(-1))
        encoded = self.interaction_forward(fused, batch.layouts)
        if self.config.architecture_variant == VARIANT_SINGLE_STREAM:
            return _outputs(*_split_streams(encoded, layout, size), layout, size)
        return self.extraction_forward(encoded, batch.layouts)

    # -- heads ------------------------------------------------------------

    def itm_score(self, pooled_image: Tensor, pooled_text: Tensor) -> Tensor:
        """Matching logit from the elementwise product of the two pooled
        representations; shape (B, 1)."""
        p = self.params
        gated = nt.mul(pooled_image, pooled_text)
        hidden = nt.gelu(nt.add(nt.matmul(gated, p["heads.itm.w1"]), p["heads.itm.b1"]))
        return nt.add(nt.matmul(hidden, p["heads.itm.w2"]), p["heads.itm.b2"])

    def msm_logits(self, h_text: Tensor, rows=None) -> Tensor:
        """Vocabulary logits at the given rows of ``h_text`` (all rows by default)."""
        if rows is not None:
            h_text = nt.embedding_lookup(h_text, rows)
        if self.config.tie_msm_weights:
            weight = nt.transpose(self.params["embed.token_table"])
        else:
            weight = self.params["heads.msm.w"]
        return nt.add(nt.matmul(h_text, weight), self.params["heads.msm.b"])

    def mrm_logits(self, h_image: Tensor, rows=None) -> Tensor:
        """Object-class logits at the given rows of ``h_image``; by default
        the m object rows of one sample (summary excluded)."""
        rows = np.arange(1, h_image.shape[0]) if rows is None else rows
        objects = nt.embedding_lookup(h_image, rows)
        return nt.add(nt.matmul(objects, self.params["heads.mrm.w"]), self.params["heads.mrm.b"])

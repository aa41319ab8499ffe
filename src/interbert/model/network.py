"""The multimodal encoder: embeddings, a fused interaction stack over the
concatenated image+text sequence, per-modality extraction stacks on top,
and the three pretraining heads.

The forward pass takes a padded batch of B samples. Past the embeddings it
computes only the N real positions: one gather packs them into rank-2 rows,
(N, hidden), so every projection is one ``nt.linear`` and every FFN and norm
a row-wise op over real rows. Attention alone works on padded grids, inside
one ``nt.attention`` node: K and V go into (B, heads, L, d) grids, a
(B, 1, 1, L) key bias hides padding, Q goes into a (B, heads, Lq, d) grid
sized to the most query rows of any one sample, and the context comes back
as packed rows. The last extraction layer computes only the rows the caller
reads, so there Lq is the most rows read in any one sample.
A single sample is the B=1 case of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import numerics as nt
from ..numerics import NEG_LOGIT, ParameterSet, Tensor, load_checkpoint
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
    h_image: Tensor       # (B*(m+1), hidden), each sample's summary row first; or the read rows
    h_text: Tensor        # (B*n_tokens, hidden); or the read rows
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


@dataclass
class _Rows:
    """Packed rows of a padded grid of B sequences of length L: row r of a
    packed (N, hidden) tensor sits at flat grid position ``positions[r]``."""

    bias: np.ndarray       # (B, 1, 1, L) additive attention bias of the grid's keys
    positions: np.ndarray  # (N,) ascending flat indices into the B*L grid
    image_length: int = 0  # of a fused image+text grid: where each text block starts

    @classmethod
    def of(cls, layouts) -> "_Rows":
        """Every real position of one layout or a batch of them; a grid
        already built passes through."""
        if isinstance(layouts, _Rows):
            return layouts
        layouts = [layouts] if isinstance(layouts, SequenceLayout) else layouts
        valid = np.array([layout.valid for layout in layouts])
        return cls(np.where(valid, 0.0, NEG_LOGIT)[:, None, None, :], np.flatnonzero(valid),
                   layouts[0].image_length)

    @property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(sequence, position) of every packed row."""
        return np.divmod(self.positions, self.bias.shape[-1])

    @property
    def first_rows(self) -> np.ndarray:
        """Flat grid row of each sequence's first position."""
        return np.arange(self.bias.shape[0]) * self.bias.shape[-1]

    def index(self, flat_rows) -> np.ndarray:
        """Packed index of each flat grid row; padded rows are refused."""
        rows = np.asarray(flat_rows, dtype=np.int64)
        found = np.minimum(np.searchsorted(self.positions, rows), self.positions.size - 1)
        if np.any(self.positions[found] != rows):
            raise ValueError("requested rows include padded or out-of-range positions")
        return found

    def reading(self, wanted) -> "_Rows":
        """The same grid with only the flat rows ``wanted`` and each
        sequence's first row packed."""
        return _Rows(self.bias, self.positions[np.unique(self.index(np.concatenate([self.first_rows, wanted])))])


def _split_streams(fused: Tensor, grid: _Rows) -> list[tuple[Tensor, _Rows]]:
    """Packed fused rows of ``grid`` -> the packed image rows and the packed
    text rows, each with its own grid."""
    at = grid.image_length
    length = grid.bias.shape[-1]
    seq, col = np.divmod(grid.positions, length)
    image = col < at
    return [(nt.embedding_lookup(fused, np.flatnonzero(keep)), _Rows(bias, positions[keep]))
            for keep, bias, positions in ((image, grid.bias[..., :at], seq * at + col),
                                          (~image, grid.bias[..., at:], seq * (length - at) + col - at))]


def _outputs(image, text) -> ModelOutputs:
    """Each stream is (packed rows, their grid, the flat grid rows the caller
    reads). Without rows to read, every grid row comes out, zero at padding."""

    def read(rows: Tensor, grid: _Rows, wanted) -> Tensor:
        if wanted is None:
            return nt.scatter_rows(rows, grid.positions, grid.bias.shape[0] * grid.bias.shape[-1])
        return nt.embedding_lookup(rows, grid.index(wanted))

    def pooled(rows: Tensor, grid: _Rows, _) -> Tensor:
        return nt.embedding_lookup(rows, grid.index(grid.first_rows))

    return ModelOutputs(h_image=read(*image), h_text=read(*text),
                        pooled_image=pooled(*image), pooled_text=pooled(*text))


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
        projected = nt.linear(Tensor(stacked.astype(dtype)), p["embed.feature_proj.w"], p["embed.feature_proj.b"])
        placed = nt.linear(Tensor(geometry.astype(dtype)), p["embed.box_proj.w"], p["embed.box_proj.b"])
        seg = nt.embedding_lookup(p["embed.segment_table"], [segment])
        x = nt.add(nt.add(projected, placed), seg)
        return nt.layer_norm(x, p["embed.image_ln.gain"], p["embed.image_ln.bias"], self.config.ln_eps)

    # -- transformer blocks ---------------------------------------------

    def _attention(self, rows: Tensor, x: Tensor, prefix: str, keys: _Rows, queries: _Rows) -> Tensor:
        """Multi-head attention of the packed query ``rows`` (at ``queries``)
        over the packed rows ``x`` (at ``keys``): one fused ``nt.attention``
        between the projections, the key bias giving padded keys zero weight."""
        p = self.params
        q = nt.linear(rows, p[prefix + "attn.wq"], p[prefix + "attn.bq"])
        k = nt.linear(x, p[prefix + "attn.wk"])
        v = nt.linear(x, p[prefix + "attn.wv"], p[prefix + "attn.bv"])
        context = nt.attention(q, k, v, queries.cells, keys.cells, keys.bias, self.config.num_heads)
        return nt.linear(context, p[prefix + "attn.wo"], p[prefix + "attn.bo"])

    def _encoder_layer(self, x: Tensor, prefix: str, grid: _Rows, out: _Rows | None = None) -> Tensor:
        """One post-LN encoder layer over the packed rows ``x`` of ``grid``.
        Keys and values come from every row; given ``out``, a subset of the
        grid's rows, only those rows are computed and returned."""
        p, eps = self.params, self.config.ln_eps
        rows = x if out is None else nt.embedding_lookup(x, grid.index(out.positions))
        attended = self._attention(rows, x, prefix, grid, grid if out is None else out)
        mid = nt.layer_norm(nt.add(rows, attended), p[prefix + "ln1.gain"], p[prefix + "ln1.bias"], eps)
        inner = nt.gelu(nt.linear(mid, p[prefix + "ffn.w1"], p[prefix + "ffn.b1"]))
        ff = nt.linear(inner, p[prefix + "ffn.w2"], p[prefix + "ffn.b2"])
        return nt.layer_norm(nt.add(mid, ff), p[prefix + "ln2.gain"], p[prefix + "ln2.bias"], eps)

    def interaction_forward(self, fused: Tensor, layouts) -> Tensor:
        """Full-context encoder over the concatenated image+text sequences of
        B layouts (or one, or their grid); ``fused`` holds only their real
        positions, sample by sample, one row each."""
        grid = _Rows.of(layouts)
        if fused.shape[0] != grid.positions.size:
            raise ValueError(f"{fused.shape[0]} fused rows for {grid.positions.size} real positions "
                             f"of {grid.bias.shape[0]} layouts")
        x = fused
        for i in range(self.config.num_interaction_layers):
            x = self._encoder_layer(x, f"interaction.layer{i}.", grid)
        return x

    def extraction_forward(self, fused: Tensor, layouts, image_rows=None, text_rows=None) -> ModelOutputs:
        """Split the packed fused rows back into streams and encode each with
        its own stack; attention never crosses the stream boundary. Given
        flat rows of a padded stream grid to read, that stream's last layer
        computes queries, the FFN and the norms for those rows and each
        sample's first row only, and only the rows read come out."""
        if self.config.architecture_variant != VARIANT_INTERBERT:
            raise ValueError("extraction module is absent under the single_stream variant")
        last = self.config.num_extraction_layers - 1
        streams = []
        split = _split_streams(fused, _Rows.of(layouts))
        for name, (x, grid), wanted in zip(("extract_image", "extract_text"), split, (image_rows, text_rows)):
            read = None if wanted is None else grid.reading(wanted)
            for i in range(last + 1):
                x = self._encoder_layer(x, f"{name}.layer{i}.", grid, read if i == last else None)
            streams.append((x, grid if read is None else read, wanted))
        return _outputs(*streams)

    # -- composition -----------------------------------------------------

    def forward(self, tokens=None, features=None, bboxes=None, width=None, height=None,
                text_valid=None, object_valid=None, batch: PaddedBatch | None = None,
                image_rows=None, text_rows=None) -> ModelOutputs:
        """Forward a padded batch (see ``data.make_batch``) or, given one
        sample's arrays instead, that sample as the B=1 case of the same path.

        Only real positions are computed. ``image_rows`` / ``text_rows`` are
        the flat rows of the padded (B*(m+1)) image or (B*n_tokens) text grid
        the caller will read, and ``h_image`` / ``h_text`` are those rows in
        order (empty: pooled rows only); by default every grid row comes out,
        zero at padding."""
        if batch is None:
            batch = _sample_batch(tokens, features, bboxes, width, height, text_valid, object_valid)
        size, layout = len(batch), batch.layouts[0]
        image = self.embed_image(batch.features, batch.bboxes, batch.widths, batch.heights,
                                 object_valid=batch.object_valid)
        text = self.embed_text(batch.tokens)
        # stacked rows are [every image row; every text row]; packed rows are the real ones, sample by sample
        stacked = np.concatenate([np.arange(size * layout.image_length).reshape(size, -1),
                                  size * layout.image_length + np.arange(size * layout.text_length).reshape(size, -1)],
                                 axis=1).reshape(-1)
        grid = _Rows.of(batch.layouts)
        fused = nt.embedding_lookup(nt.concat([image, text], axis=0), stacked[grid.positions])
        encoded = self.interaction_forward(fused, grid)
        if self.config.architecture_variant == VARIANT_SINGLE_STREAM:
            return _outputs(*[(x, stream, wanted) for (x, stream), wanted
                              in zip(_split_streams(encoded, grid), (image_rows, text_rows))])
        return self.extraction_forward(encoded, grid, image_rows, text_rows)

    # -- heads ------------------------------------------------------------

    def itm_score(self, pooled_image: Tensor, pooled_text: Tensor) -> Tensor:
        """Matching logit from the elementwise product of the two pooled
        representations; shape (B, 1)."""
        p = self.params
        gated = nt.mul(pooled_image, pooled_text)
        hidden = nt.gelu(nt.linear(gated, p["heads.itm.w1"], p["heads.itm.b1"]))
        return nt.linear(hidden, p["heads.itm.w2"], p["heads.itm.b2"])

    def msm_logits(self, h_text: Tensor) -> Tensor:
        """Vocabulary logits at every row of ``h_text``."""
        if self.config.tie_msm_weights:
            weight = nt.transpose(self.params["embed.token_table"])
        else:
            weight = self.params["heads.msm.w"]
        return nt.linear(h_text, weight, self.params["heads.msm.b"])

    def mrm_logits(self, h_image: Tensor, rows=None) -> Tensor:
        """Object-class logits at the given rows of ``h_image``; by default
        the m object rows of one sample (summary excluded)."""
        rows = np.arange(1, h_image.shape[0]) if rows is None else rows
        objects = nt.embedding_lookup(h_image, rows)
        return nt.linear(objects, self.params["heads.mrm.w"], self.params["heads.mrm.b"])

"""The multimodal encoder: embeddings, a fused interaction stack over the
concatenated image+text sequence, per-modality extraction stacks on top,
and the three pretraining heads.

The forward pass takes a packed batch of B samples, concatenated end to end.
The embeddings read it as it is and give N rows (N, hidden), stream-major:
every image row, sample by sample, then every text row. Past them each row
is tagged only by its sequence id, the sample it belongs to. So every
projection is one ``nt.linear``, every FFN and norm a row-wise op, and the
streams split back into two slices. Attention takes the sequence ids of its
query and key rows; padded grids exist only as scratch space inside the one
``nt.attention`` node, the key grid as wide as the longest sequence. The
last extraction layer computes only the rows the caller reads. A single
sample is the B=1 case of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .. import numerics as nt
from ..config import VARIANT_INTERBERT, VARIANT_SINGLE_STREAM, ModelConfig
from ..numerics import NumericsError, ParameterSet, Tensor, load_checkpoint
from .config import IMAGE_SEGMENT, TEXT_SEGMENT, PackedBatch

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
    h_image: Tensor       # (real image rows, hidden), sample by sample, summary row first; or the rows image_rows names
    h_text: Tensor        # (real tokens, hidden), sample by sample; or the rows text_rows names
    pooled_image: Tensor  # (B, hidden)
    pooled_text: Tensor   # (B, hidden)


def image_geometry(bboxes: np.ndarray, width, height) -> np.ndarray:
    """Geometry vectors of (N, 4) boxes, each in its own image's size."""
    x1, y1, x2, y2 = np.asarray(bboxes, dtype=np.float64).T
    w, h = np.asarray(width, dtype=np.float64), np.asarray(height, dtype=np.float64)
    return np.stack([x1 / w, y1 / h, x2 / w, y2 / h, (x2 - x1) * (y2 - y1) / (w * h)], axis=-1)


def summary_rows(feats: np.ndarray, objects: np.ndarray) -> np.ndarray:
    """Each sample's mean row of ``feats``, which holds ``objects[s]`` rows of sample s in turn;
    summed rank by rank, one vector step each, in the order of a per-sample sum down the rows."""
    starts, total = np.cumsum(objects) - objects, np.zeros((objects.size, feats.shape[1]), dtype=feats.dtype)
    for rank in range(objects.max(initial=0)):
        has = objects > rank
        total[has] += feats[starts[has] + rank]
    return total / objects[:, None]


def _sequences(layout) -> tuple[np.ndarray, int]:
    """The sequence id of every position of a packed batch or of one layout,
    stream-major: every image row, sample by sample, then every text row
    (for one sample, layout order); and the number of image rows."""
    image, text = np.atleast_1d(layout.image_length), np.atleast_1d(layout.text_length)
    ids = np.arange(image.size)
    return np.concatenate([np.repeat(ids, image), np.repeat(ids, text)]), int(image.sum())


def _split_streams(fused: Tensor, seq: np.ndarray, n: int) -> list[tuple[Tensor, np.ndarray]]:
    """Stream-major packed rows -> the image rows and the text rows, two
    slices, each with its rows' sequence ids."""
    return [(nt.narrow(fused, 0, 0, n), seq[:n]), (nt.narrow(fused, 0, n, seq.size - n), seq[n:])]


def _sample_batch(tokens, features, bboxes, width, height) -> PackedBatch:
    """One sample as a batch of one."""
    ids, feats = np.asarray(tokens, dtype=np.int64), np.asarray(features, dtype=np.float64)
    return PackedBatch(tokens=ids, features=feats, bboxes=np.asarray(bboxes, dtype=np.float64),
                       widths=np.array([width]), heights=np.array([height]),
                       image_length=np.array([1 + len(feats)]), text_length=np.array([ids.size]))


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
    def from_values(cls, config: ModelConfig, values) -> "InterBert":
        """The network holding the very arrays of ``values``, whose names and
        shapes must be exactly those of ``parameter_spec``."""
        return cls(config, ParameterSet.holding({name: shape for name, shape, _ in parameter_spec(config)}, values))

    @classmethod
    def from_checkpoint(cls, config: ModelConfig, path) -> "InterBert":
        """The network holding a checkpoint's parameters in the arrays they were read into."""
        config.validate()
        values = load_checkpoint(path)
        try:
            return cls.from_values(config, values)
        except NumericsError as exc:  # names or shapes that do not fit ``config``: say which file
            raise NumericsError(f"{path}: {exc}") from None

    # -- embeddings ----------------------------------------------------

    def embed_text(self, batch: PackedBatch) -> Tensor:
        """Token + learned positional + segment embedding, normalized, of the
        batch's tokens: one row each, sample by sample. A token's position is
        its rank within its sample."""
        lengths = batch.text_length
        if lengths.max() > self.config.max_text_len:
            raise ValueError(f"text length {lengths.max()} exceeds max_text_len {self.config.max_text_len}")
        positions = np.arange(batch.tokens.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        p = self.params
        x = nt.add(
            nt.add(
                nt.embedding_lookup(p["embed.token_table"], batch.tokens),
                nt.embedding_lookup(p["embed.position_table"], positions),
            ),
            nt.embedding_lookup(p["embed.segment_table"], [TEXT_SEGMENT]),
        )
        return nt.layer_norm(x, p["embed.text_ln.gain"], p["embed.text_ln.bias"], self.config.ln_eps)

    def embed_image(self, batch: PackedBatch) -> Tensor:
        """Project the batch's region features to the hidden size and add
        box-geometry and segment embeddings. The summary row is the mean of
        a sample's object features, pooled in feature space before
        projection, with the whole image as its box. Rows come out sample by
        sample, the summary row first."""
        feats, boxes, objects = batch.features, batch.bboxes, batch.image_length - 1
        if np.any(objects < 1):
            raise ValueError("image must contribute at least one object")
        if feats.shape[1] != self.config.object_feature_dim:
            raise ValueError(f"expected features of width {self.config.object_feature_dim}, got {feats.shape[1]}")
        widths, heights = np.repeat(batch.widths, objects), np.repeat(batch.heights, objects)
        if np.any(boxes[:, 2] <= boxes[:, 0]) or np.any(boxes[:, 3] <= boxes[:, 1]):
            raise ValueError("degenerate bounding box")
        if boxes.min() < 0 or np.any(boxes[:, 2] > widths) or np.any(boxes[:, 3] > heights):
            raise ValueError("bounding box outside image bounds")

        starts = np.cumsum(objects) - objects
        stacked = np.insert(feats, starts, summary_rows(feats, objects), axis=0)
        geometry = np.insert(image_geometry(boxes, widths, heights), starts, [0.0, 0.0, 1.0, 1.0, 1.0], axis=0)
        p = self.params
        dtype = p["embed.feature_proj.w"].values.dtype  # keep float32 runs in float32
        projected = nt.linear(Tensor(stacked.astype(dtype)), p["embed.feature_proj.w"], p["embed.feature_proj.b"])
        placed = nt.linear(Tensor(geometry.astype(dtype)), p["embed.box_proj.w"], p["embed.box_proj.b"])
        seg = nt.embedding_lookup(p["embed.segment_table"], [IMAGE_SEGMENT])
        x = nt.add(nt.add(projected, placed), seg)
        return nt.layer_norm(x, p["embed.image_ln.gain"], p["embed.image_ln.bias"], self.config.ln_eps)

    # -- transformer blocks ---------------------------------------------

    def _attention(self, rows: Tensor, x: Tensor, prefix: str, queries: np.ndarray, keys: np.ndarray) -> Tensor:
        """Multi-head attention of the packed query ``rows`` over the packed
        rows ``x``, given the sequence id of each: one fused ``nt.attention``
        between the projections."""
        p = self.params
        q = nt.linear(rows, p[prefix + "attn.wq"], p[prefix + "attn.bq"])
        k = nt.linear(x, p[prefix + "attn.wk"])
        v = nt.linear(x, p[prefix + "attn.wv"], p[prefix + "attn.bv"])
        context = nt.attention(q, k, v, queries, keys, self.config.num_heads)
        return nt.linear(context, p[prefix + "attn.wo"], p[prefix + "attn.bo"])

    def _encoder_layer(self, x: Tensor, prefix: str, seq: np.ndarray, out: np.ndarray | None = None) -> Tensor:
        """One post-LN encoder layer over the packed rows ``x`` of sequences
        ``seq``. Keys and values come from every row; given ``out``, indices
        of some rows, only those rows are computed and returned."""
        p, eps = self.params, self.config.ln_eps
        rows = x if out is None else nt.embedding_lookup(x, out)
        attended = self._attention(rows, x, prefix, seq if out is None else seq[out], seq)
        mid = nt.layer_norm(nt.add(rows, attended), p[prefix + "ln1.gain"], p[prefix + "ln1.bias"], eps)
        inner = nt.gelu(nt.linear(mid, p[prefix + "ffn.w1"], p[prefix + "ffn.b1"]))
        ff = nt.linear(inner, p[prefix + "ffn.w2"], p[prefix + "ffn.b2"])
        return nt.layer_norm(nt.add(mid, ff), p[prefix + "ln2.gain"], p[prefix + "ln2.bias"], eps)

    def interaction_forward(self, fused: Tensor, layout) -> Tensor:
        """Full-context encoder over the concatenated image+text sequences of
        a packed batch or one layout; ``fused`` holds their positions, one row
        each, stream-major (see ``_sequences``): for one sample, layout order."""
        seq, _ = _sequences(layout)
        if fused.shape[0] != seq.size:
            raise ValueError(f"{fused.shape[0]} fused rows for {seq.size} positions")
        x = fused
        for i in range(self.config.num_interaction_layers):
            x = self._encoder_layer(x, f"interaction.layer{i}.", seq)
        return x

    def extraction_forward(self, fused: Tensor, layout, image_rows=None, text_rows=None) -> ModelOutputs:
        """Slice the stream-major fused rows into the two streams and encode
        each with its own stack; attention never crosses the stream boundary.
        ``image_rows`` / ``text_rows`` index each stream's packed real rows,
        as in ``forward``."""
        if self.config.architecture_variant != VARIANT_INTERBERT:
            raise ValueError("extraction module is absent under the single_stream variant")
        return self._streams(fused, layout, image_rows, text_rows, self.config.num_extraction_layers)

    def _streams(self, fused: Tensor, layout, image_rows, text_rows, layers: int) -> ModelOutputs:
        """Split the fused rows into the two streams, run ``layers`` layers of
        each stream's stack and read the outputs. Given indices into a
        stream's real rows to read, its last layer computes queries, the FFN
        and the norms for those rows and each sample's first row only (which
        pooling reads: where the sequence id changes)."""
        outputs = []
        for name, (x, seq), wanted in zip(("image", "text"), _split_streams(fused, *_sequences(layout)),
                                          (image_rows, text_rows)):
            first = np.flatnonzero(np.diff(seq, prepend=-1))
            if wanted is not None:
                wanted = np.asarray(wanted, dtype=np.int64).reshape(-1)
                if np.any((wanted < 0) | (wanted >= seq.size)):  # a negative row would wrap around
                    raise ValueError(f"{name}_rows must index the stream's {seq.size} real rows, "
                                     f"got {wanted.min()}..{wanted.max()}")
            kept = np.union1d(first, wanted) if wanted is not None and layers else None
            for i in range(layers):
                x = self._encoder_layer(x, f"extract_{name}.layer{i}.", seq, kept if i == layers - 1 else None)
            if kept is not None:  # the last layer returned the kept rows only
                wanted, first = np.searchsorted(kept, wanted), np.searchsorted(kept, first)
            outputs += [x if wanted is None else nt.embedding_lookup(x, wanted), nt.embedding_lookup(x, first)]
        h_image, pooled_image, h_text, pooled_text = outputs
        return ModelOutputs(h_image, h_text, pooled_image, pooled_text)

    # -- composition -----------------------------------------------------

    def forward(self, tokens=None, features=None, bboxes=None, width=None, height=None,
                batch: PackedBatch | None = None, image_rows=None, text_rows=None) -> ModelOutputs:
        """Forward a packed batch (see ``data.make_batch``) or, given one
        sample's arrays instead, that sample as the B=1 case of the same path.

        By default every row comes out, packed sample by sample.
        ``image_rows`` / ``text_rows`` index those packed image or text rows;
        given them, ``h_image`` / ``h_text`` are those rows in order (empty:
        pooled rows only)."""
        if batch is None:
            batch = _sample_batch(tokens, features, bboxes, width, height)
        encoded = self.interaction_forward(nt.concat([self.embed_image(batch), self.embed_text(batch)]), batch)
        if self.config.architecture_variant == VARIANT_SINGLE_STREAM:
            return self._streams(encoded, batch, image_rows, text_rows, 0)
        return self.extraction_forward(encoded, batch, image_rows, text_rows)

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
        return nt.linear(h_text, self.params["heads.msm.w"], self.params["heads.msm.b"])

    def mrm_logits(self, h_image: Tensor, rows=None) -> Tensor:
        """Object-class logits at the given rows of ``h_image``; by default
        the m object rows of one sample (summary excluded)."""
        rows = np.arange(1, h_image.shape[0]) if rows is None else rows
        objects = nt.embedding_lookup(h_image, rows)
        return nt.linear(objects, self.params["heads.mrm.w"], self.params["heads.mrm.b"])

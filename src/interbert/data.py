"""Corpus representation, JSONL ingestion, synthetic data, and batching.

The on-disk corpus is one JSON object per line with a fixed key order and
floats printed to 9 significant digits, so save -> load -> save is byte
identical. Captions arrive pre-tokenized: the pipeline never sees raw text,
only token ids plus a small vocabulary table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .model.config import PackedBatch


class CorpusError(ValueError):
    """Malformed corpus file or invariant violation."""


# what reading a parsed JSON record of the wrong shape or range can raise
MALFORMED = (AttributeError, LookupError, TypeError, ValueError, ArithmeticError)


def jsonl_lines(path):
    """(line number, stripped text) of each non-blank line; bytes that are
    not UTF-8 are a ``CorpusError`` naming the file and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not UTF-8 text ({exc})") from None
            if line:
                yield lineno, line


@dataclass(frozen=True)
class Vocabulary:
    size: int
    pad_id: int
    cls_id: int
    sep_id: int
    mask_id: int
    names: dict[int, str] | None = None

    def __post_init__(self) -> None:
        specials = (self.pad_id, self.cls_id, self.sep_id, self.mask_id)
        if len(set(specials)) != 4:
            raise CorpusError("special token ids must be distinct")
        if any(t < 0 or t >= self.size for t in specials):
            raise CorpusError("special token id outside the vocabulary")
        if self.size <= 4:
            raise CorpusError("vocabulary needs at least one non-special token")
        if self.names is not None:
            bad = [i for i in self.names if i < 0 or i >= self.size]
            if bad:
                raise CorpusError(f"named token ids outside vocabulary: {bad[:3]}")

    def special_ids(self) -> frozenset[int]:
        return frozenset((self.pad_id, self.cls_id, self.sep_id, self.mask_id))

    @cached_property
    def content_ids(self) -> np.ndarray:
        """The non-special ids, ascending; built once per vocabulary, read-only."""
        keep = np.ones(self.size, dtype=bool)
        keep[list(self.special_ids())] = False
        ids = np.flatnonzero(keep).astype(np.int64, copy=False)
        ids.flags.writeable = False
        return ids


@dataclass
class ImageTextPair:
    image_id: int
    caption_id: int
    tokens: np.ndarray        # (n+2,) int64, [CLS] ... [SEP]
    width: int
    height: int
    features: np.ndarray      # (m, feature_dim) float64
    bboxes: np.ndarray        # (m, 4) float64 pixel corners x1,y1,x2,y2
    labels: np.ndarray        # (m,) int64 object class ids

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.bboxes = np.asarray(self.bboxes, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)

    @property
    def num_objects(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_tokens(self) -> int:
        return int(self.tokens.shape[0])

    def validate(self, vocab: Vocabulary, num_classes: int | None = None) -> None:
        if self.num_objects < 1:
            raise CorpusError("pair needs at least one object")
        if self.num_tokens < 3:
            raise CorpusError("caption needs [CLS], one token, and [SEP]")
        if self.tokens[0] != vocab.cls_id or self.tokens[-1] != vocab.sep_id:
            raise CorpusError("caption must start with [CLS] and end with [SEP]")
        if self.tokens.min() < 0 or self.tokens.max() >= vocab.size:
            raise CorpusError("token id outside the vocabulary")
        if self.features.ndim != 2 or self.bboxes.shape != (self.num_objects, 4):
            raise CorpusError("object arrays have inconsistent shapes")
        if not (np.isfinite(self.features).all() and np.isfinite(self.bboxes).all()):
            raise CorpusError("object features and boxes must be finite")
        if self.labels.shape != (self.num_objects,):
            raise CorpusError("one class label per object required")
        if self.labels.min() < 0:
            raise CorpusError("negative object class label")
        if num_classes is not None and self.labels.max() >= num_classes:
            raise CorpusError(f"object class label >= {num_classes}")
        x1, y1, x2, y2 = self.bboxes.T
        if np.any(x2 <= x1) or np.any(y2 <= y1):
            raise CorpusError("degenerate bounding box")
        if np.any(x1 < 0) or np.any(y1 < 0) or np.any(x2 > self.width) or np.any(y2 > self.height):
            raise CorpusError("bounding box outside image bounds")


@dataclass
class Corpus:
    pairs: list[ImageTextPair]
    vocab: Vocabulary
    image_captions: dict[int, list[int]] = field(init=False, repr=False)
    _pair_by_caption: dict[int, ImageTextPair] = field(init=False, repr=False)
    _positions: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.image_captions = {}
        self._pair_by_caption = {}
        self._positions = {}
        for position, pair in enumerate(self.pairs):
            if pair.caption_id in self._pair_by_caption:
                raise CorpusError(f"duplicate caption id {pair.caption_id}")
            self._pair_by_caption[pair.caption_id] = pair
            self.image_captions.setdefault(pair.image_id, []).append(pair.caption_id)
            self._positions.setdefault(pair.image_id, []).append(position)

    def __len__(self) -> int:
        return len(self.pairs)

    def image_ids(self) -> list[int]:
        return list(self.image_captions)

    def pair_by_caption(self, caption_id: int) -> ImageTextPair:
        return self._pair_by_caption[caption_id]

    def image_entry(self, image_id: int) -> ImageTextPair:
        """First pair of the image; carries the image-side arrays."""
        return self._pair_by_caption[self.image_captions[image_id][0]]

    def other_caption_ids(self, image_id: int) -> np.ndarray:
        """Caption ids belonging to every other image, in corpus order."""
        return np.array([p.caption_id for p in self.pairs if p.image_id != image_id], dtype=np.int64)

    def draw_other_caption(self, image_id: int, rng) -> int:
        """``other_caption_ids(image_id)[rng.integers(0, size)]`` without
        building that array: the draw skips the image's own pair positions."""
        own = self._positions.get(image_id, [])
        if len(own) == len(self.pairs):
            raise ValueError("corpus needs captions from at least two images")
        position = int(rng.integers(0, len(self.pairs) - len(own)))
        for taken in own:  # ascending, so each one at or below the position shifts it up by one
            if taken <= position:
                position += 1
        return self.pairs[position].caption_id

    def validate(self, num_classes: int | None = None) -> None:
        for pair in self.pairs:
            pair.validate(self.vocab, num_classes)


# ---------------------------------------------------------------------------
# canonical JSONL + vocabulary files
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return format(float(x), ".9g")


def _pair_to_line(pair: ImageTextPair) -> str:
    objects = ", ".join(
        '{"feat": [%s], "bbox": [%s], "label": %d}' % (
            ", ".join(_format_float(v) for v in feat),
            ", ".join(_format_float(v) for v in box),
            int(label),
        )
        for feat, box, label in zip(pair.features, pair.bboxes, pair.labels)
    )
    return (
        '{"image_id": %d, "caption_id": %d, "tokens": [%s], "width": %d, "height": %d, "objects": [%s]}'
        % (
            pair.image_id,
            pair.caption_id,
            ", ".join(str(int(t)) for t in pair.tokens),
            pair.width,
            pair.height,
            objects,
        )
    )


def _pair_from_record(record: dict) -> ImageTextPair:
    objects = record["objects"]
    if not isinstance(objects, list) or not objects:
        raise CorpusError("objects must be a non-empty list")
    return ImageTextPair(
        image_id=int(record["image_id"]),
        caption_id=int(record["caption_id"]),
        tokens=np.asarray(record["tokens"], dtype=np.int64),
        width=int(record["width"]),
        height=int(record["height"]),
        features=np.asarray([o["feat"] for o in objects], dtype=np.float64),
        bboxes=np.asarray([o["bbox"] for o in objects], dtype=np.float64),
        labels=np.asarray([o["label"] for o in objects], dtype=np.int64),
    )


def save_corpus(corpus: Corpus, pairs_path, vocab_path) -> None:
    save_vocabulary(corpus.vocab, vocab_path)
    with open(pairs_path, "w", encoding="utf-8") as fh:
        for pair in corpus.pairs:
            fh.write(_pair_to_line(pair))
            fh.write("\n")


def load_corpus(pairs_path, vocab_path, num_classes: int | None = None) -> Corpus:
    """Read a corpus file; a bad line, or an image whose captions disagree on its arrays, is refused."""
    vocab = load_vocabulary(vocab_path)
    pairs = []
    first_caption = {}  # image id -> (line, pair) of its first caption
    for lineno, line in jsonl_lines(pairs_path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{pairs_path}:{lineno}: invalid JSON ({exc})") from None
        try:
            pair = _pair_from_record(record)
            pair.validate(vocab, num_classes)
        except MALFORMED as exc:
            raise CorpusError(f"{pairs_path}:{lineno}: {exc}") from None
        first_line, first = first_caption.setdefault(pair.image_id, (lineno, pair))
        if (first.width, first.height) != (pair.width, pair.height) or not all(
                np.array_equal(getattr(first, k), getattr(pair, k)) for k in ("features", "bboxes", "labels")):
            raise CorpusError(f"{pairs_path}:{lineno}: image {pair.image_id} differs in its width, height, features, "
                              f"bboxes or labels from its first caption at line {first_line}")
        pairs.append(pair)
    return Corpus(pairs=pairs, vocab=vocab)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    record = {"size": vocab.size, "pad_id": vocab.pad_id, "cls_id": vocab.cls_id,
              "sep_id": vocab.sep_id, "mask_id": vocab.mask_id}
    if vocab.names is not None:
        record["names"] = {str(i): vocab.names[i] for i in sorted(vocab.names)}
    Path(path).write_text(json.dumps(record) + "\n", encoding="utf-8")


def load_vocabulary(path) -> Vocabulary:
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: invalid JSON ({exc})") from None
    try:
        names = record.get("names")
        return Vocabulary(
            size=int(record["size"]),
            pad_id=int(record["pad_id"]),
            cls_id=int(record["cls_id"]),
            sep_id=int(record["sep_id"]),
            mask_id=int(record["mask_id"]),
            names=None if names is None else {int(k): str(v) for k, v in names.items()},
        )
    except MALFORMED as exc:
        raise CorpusError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

NUM_FILLER_TOKENS = 8


def synth_vocabulary(num_classes: int) -> Vocabulary:
    names = {4 + c: f"class_{c}" for c in range(num_classes)}
    names.update({4 + num_classes + f: f"filler_{f}" for f in range(NUM_FILLER_TOKENS)})
    return Vocabulary(
        size=4 + num_classes + NUM_FILLER_TOKENS,
        pad_id=0, cls_id=1, sep_id=2, mask_id=3,
        names=names,
    )


def synth_corpus(
    seed: int,
    num_images: int = 200,
    captions_per_image: int = 1,
    num_classes: int = 12,
    feature_dim: int = 16,
    noise_std: float = 0.1,
    min_objects: int = 2,
    max_objects: int = 6,
    max_fillers: int = 3,
    image_size: int = 100,
) -> Corpus:
    """Corpus with an exact, learnable cross-modal correspondence.

    Each object's feature vector is a one-hot class indicator (padded to
    feature_dim) plus Gaussian noise, and each caption spells out the
    image's object classes in random order with a few filler tokens. A
    linear probe can classify objects perfectly at noise_std 0, so any
    failure to learn matching is the model's fault, not the data's.
    """
    if feature_dim < num_classes:
        raise ValueError("feature_dim must be at least num_classes for the one-hot planting")
    if not 1 <= min_objects <= max_objects:
        raise ValueError("object count range is invalid")
    vocab = synth_vocabulary(num_classes)
    rng = np.random.default_rng(seed)
    pairs: list[ImageTextPair] = []
    caption_id = 0
    for image_id in range(num_images):
        m = int(rng.integers(min_objects, max_objects + 1))
        labels = rng.integers(0, num_classes, size=m)
        x1 = rng.uniform(0.0, image_size * 0.7, size=m)
        y1 = rng.uniform(0.0, image_size * 0.7, size=m)
        x2 = x1 + rng.uniform(image_size * 0.1, image_size - x1)
        y2 = y1 + rng.uniform(image_size * 0.1, image_size - y1)
        bboxes = np.stack([x1, y1, x2, y2], axis=1)
        features = np.zeros((m, feature_dim))
        features[np.arange(m), labels] = 1.0
        if noise_std > 0:
            features = features + rng.normal(0.0, noise_std, size=features.shape)
        for _ in range(captions_per_image):
            order = rng.permutation(m)
            body = [4 + int(labels[j]) for j in order]
            n_fill = int(rng.integers(0, max_fillers + 1))
            fillers = [4 + num_classes + int(f) for f in rng.integers(0, NUM_FILLER_TOKENS, size=n_fill)]
            tokens = np.array([vocab.cls_id] + body + fillers + [vocab.sep_id], dtype=np.int64)
            pairs.append(ImageTextPair(
                image_id=image_id,
                caption_id=caption_id,
                tokens=tokens,
                width=image_size,
                height=image_size,
                features=features.copy(),
                bboxes=bboxes.copy(),
                labels=labels.copy(),
            ))
            caption_id += 1
    corpus = Corpus(pairs=pairs, vocab=vocab)
    corpus.validate(num_classes)
    return corpus


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def check_limits(items, max_text_len: int | None = None, max_objects: int | None = None,
                 feature_dim: int | None = None, num_classes: int | None = None) -> None:
    """Refuse any sample the model cannot take, naming its id: a caption or
    an image over the length limits, object features of another width, or
    an object class label outside the model's classes."""
    for item in items:
        if max_text_len is not None and len(item.tokens) > max_text_len:
            raise CorpusError(f"caption {item.caption_id} has {len(item.tokens)} tokens > limit {max_text_len}")
        if max_objects is not None and len(item.features) > max_objects:
            raise CorpusError(f"image {item.image_id} has {len(item.features)} objects > limit {max_objects}")
        if feature_dim is not None and item.features.shape[1] != feature_dim:
            raise CorpusError(f"image {item.image_id} has object features of width {item.features.shape[1]}, "
                              f"the model takes {feature_dim}")
        if num_classes is not None and item.labels.max() >= num_classes:
            raise CorpusError(f"image {item.image_id} has object class {item.labels.max()} outside the "
                              f"model's {num_classes} classes")


def make_batch(items, **limits) -> PackedBatch:
    """Concatenate pairs or masked samples end to end, sample by sample, with
    each sample's lengths. Truncation is forbidden: a sample breaking the
    ``check_limits`` keywords given is an error."""
    if not items:
        raise CorpusError("cannot batch zero samples")
    check_limits(items, **limits)
    if len({p.features.shape[1] for p in items}) > 1:
        raise CorpusError("feature dimensions differ across the batch")
    return PackedBatch(tokens=np.concatenate([p.tokens for p in items], dtype=np.int64),
                       features=np.concatenate([p.features for p in items], dtype=np.float64),
                       bboxes=np.concatenate([p.bboxes for p in items], dtype=np.float64),
                       widths=np.array([p.width for p in items]), heights=np.array([p.height for p in items]),
                       image_length=np.array([1 + len(p.features) for p in items]),
                       text_length=np.array([len(p.tokens) for p in items]))

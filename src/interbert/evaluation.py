"""Retrieval scoring, recall metrics, matching accuracy, and nearest-neighbour
lookup over exported item embeddings."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import numerics as nt
from .data import Corpus, ImageTextPair
from .model import InterBert


@dataclass
class ScoreMatrix:
    scores: np.ndarray  # (num_captions, num_images) matching logits
    gold: np.ndarray    # (num_captions,) gold image column per caption

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.gold = np.asarray(self.gold, dtype=np.int64)
        if self.scores.ndim != 2:
            raise ValueError("score matrix must be rectangular")
        if self.gold.shape != (self.scores.shape[0],):
            raise ValueError("one gold column index per caption required")
        if self.gold.size and (self.gold.min() < 0 or self.gold.max() >= self.scores.shape[1]):
            raise ValueError("gold index outside the image pool")

    @property
    def num_images(self) -> int:
        return int(self.scores.shape[1])


def score_all(model: InterBert, captions: Sequence[tuple[np.ndarray, int]],
              images: Sequence[ImageTextPair]) -> ScoreMatrix:
    """Matching logit for every (caption, image) combination, unmasked."""
    scores = np.empty((len(captions), len(images)))
    with nt.no_grad():
        for row, (tokens, _) in enumerate(captions):
            for col, entry in enumerate(images):
                out = model.forward(tokens=tokens, features=entry.features,
                                    bboxes=entry.bboxes, width=entry.width, height=entry.height)
                scores[row, col] = model.itm_score(out.pooled_image, out.pooled_text).item()
    return ScoreMatrix(scores=scores, gold=np.array([gold for _, gold in captions]))


def recall_at_k(matrix: ScoreMatrix, k: int) -> float:
    """Fraction of captions whose gold image ranks in the descending-score
    top k; ties resolve toward the lower image index."""
    if k < 1 or k > matrix.num_images:
        raise ValueError(f"k={k} outside [1, {matrix.num_images}]")
    hits = 0
    for row, gold in zip(matrix.scores, matrix.gold):
        gold_score = row[gold]
        rank = 1 + int(np.sum(row > gold_score)) + int(np.sum(row[:gold] == gold_score))
        if rank <= k:
            hits += 1
    return hits / max(1, matrix.scores.shape[0])


def retrieval_metrics(matrix: ScoreMatrix, ks: Sequence[int] = (1, 5, 10)) -> dict[int, float]:
    return {k: recall_at_k(matrix, k) for k in ks if k <= matrix.num_images}


def corpus_retrieval_pools(corpus: Corpus) -> tuple[list[tuple[np.ndarray, int]], list[ImageTextPair]]:
    """Every caption paired with its gold column in the corpus image pool."""
    image_ids = sorted(corpus.image_ids())
    images = [corpus.image_entry(i) for i in image_ids]
    column = {image_id: idx for idx, image_id in enumerate(image_ids)}
    captions = [(pair.tokens, column[pair.image_id]) for pair in corpus.pairs]
    return captions, images


def zero_shot_eval(model: InterBert, corpus: Corpus,
                   ks: Sequence[int] = (1, 5, 10)) -> dict:
    """Caption-to-image retrieval with pretrained weights only."""
    captions, images = corpus_retrieval_pools(corpus)
    matrix = score_all(model, captions, images)
    return {
        "num_images": len(images),
        "num_captions": len(captions),
        "recall": retrieval_metrics(matrix, ks),
    }


def itm_accuracy(model: InterBert, corpus: Corpus, rng, num_samples: int = 200) -> float:
    """Accuracy of the matching head on a balanced matched/mismatched set,
    evaluated without masking."""
    correct = 0
    with nt.no_grad():
        for i in range(num_samples):
            pair = corpus.pairs[int(rng.integers(0, len(corpus.pairs)))]
            label = i % 2
            tokens = pair.tokens
            if label == 0:
                others = corpus.other_caption_ids(pair.image_id)
                tokens = corpus.pair_by_caption(int(others[int(rng.integers(0, others.size))])).tokens
            out = model.forward(tokens=tokens, features=pair.features, bboxes=pair.bboxes,
                                width=pair.width, height=pair.height)
            logit = model.itm_score(out.pooled_image, out.pooled_text).item()
            if (logit > 0.0) == (label == 1):
                correct += 1
    return correct / num_samples


def choice_credit(logits) -> np.ndarray:
    """Per row of multiple-choice logits with the gold choice in column 0:
    1 when gold scores strictly highest, 1/k when it shares the top score
    with k-1 others, else 0. Counting ties as wins would let a constant
    scorer reach accuracy 1."""
    rows = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    top = rows.max(axis=1, keepdims=True)
    return (rows[:, 0] == top[:, 0]) / (rows == top).sum(axis=1)


def multiple_choice_accuracy(model: InterBert, corpus: Corpus, rng,
                             num_examples: int = 100, num_distractors: int = 3) -> float:
    """Mean credit (see ``choice_credit``) of the true image against sampled
    distractors."""
    image_index = np.array(corpus.image_ids())
    if image_index.size < num_distractors + 1:
        raise ValueError("not enough images for the requested choice size")
    correct = 0.0
    with nt.no_grad():
        for _ in range(num_examples):
            pair = corpus.pairs[int(rng.integers(0, len(corpus.pairs)))]
            pool = image_index[image_index != pair.image_id]
            distractors = rng.choice(pool, size=num_distractors, replace=False)
            logits = []
            for image_id in (pair.image_id, *distractors.tolist()):
                entry = corpus.image_entry(int(image_id))
                out = model.forward(tokens=pair.tokens, features=entry.features,
                                    bboxes=entry.bboxes, width=entry.width, height=entry.height)
                logits.append(model.itm_score(out.pooled_image, out.pooled_text).item())
            correct += float(choice_credit(logits)[0])
    return correct / num_examples


# ---------------------------------------------------------------------------
# deployment-style nearest-neighbour lookup
# ---------------------------------------------------------------------------

def item_embeddings(model: InterBert, corpus: Corpus) -> np.ndarray:
    """One fused embedding per pair: the elementwise product of the pooled
    image and text representations (the matching head's input)."""
    rows = np.empty((len(corpus.pairs), model.config.hidden_size))
    with nt.no_grad():
        for i, pair in enumerate(corpus.pairs):
            out = model.forward(tokens=pair.tokens, features=pair.features, bboxes=pair.bboxes,
                                width=pair.width, height=pair.height)
            rows[i] = (out.pooled_image.values * out.pooled_text.values)[0]
    return rows


def knn_items(embeddings: np.ndarray, trigger_id: int, k: int) -> list[int]:
    """Top-k row indices by cosine similarity to the trigger row, trigger
    excluded; ties resolve toward the lower index."""
    matrix = np.asarray(embeddings, dtype=np.float64)
    n = matrix.shape[0]
    if not 0 <= trigger_id < n:
        raise ValueError(f"trigger {trigger_id} outside [0, {n})")
    if not 1 <= k < n:
        raise ValueError(f"k={k} outside [1, {n})")
    norms = np.linalg.norm(matrix, axis=1)
    denom = norms * norms[trigger_id]
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = np.where(denom > 0.0, matrix @ matrix[trigger_id] / denom, 0.0)
    order = sorted((i for i in range(n) if i != trigger_id), key=lambda i: (-sims[i], i))
    return order[:k]


def write_embeddings(path, matrix: np.ndarray) -> None:
    """Binary layout: u32 count, u32 dim, then little-endian 8-byte floats."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def read_embeddings(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"truncated embeddings file: {path}")
        count, dim = struct.unpack("<II", header)
        payload = fh.read()
    expected = 8 * count * dim
    if len(payload) != expected:
        raise ValueError(f"embeddings payload has {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(count, dim).copy()

"""Retrieval scoring, recall metrics, matching accuracy, and nearest-neighbour
lookup over exported item embeddings."""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from . import numerics as nt
from .data import Corpus, CorpusError, ImageTextPair, check_limits, make_batch
from .model import InterBert
from .workers import _even_slices, forked, score_workers, shared_array

# Most pairs per inference forward. At the pinned config the cost per pair is
# flat from 20 to 50 pairs a batch; a 50-caption column runs as 2 x 25.
SCORE_BATCH = 32


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


def _check_pool_limits(model: InterBert, captions: Sequence[np.ndarray], images: Sequence[ImageTextPair]) -> None:
    """Refuse a caption (named by its position, as captions carry no id here)
    or an image (named by id) over the model's limits or of another feature width."""
    limit = model.config.max_text_len
    for position, tokens in enumerate(captions):
        if len(tokens) > limit:
            raise CorpusError(f"caption at position {position} has {len(tokens)} tokens > limit {limit}")
    check_limits(images, max_objects=model.config.max_objects, feature_dim=model.config.object_feature_dim)


def _score_batches(model: InterBert, batches: list, logits: np.ndarray, products: np.ndarray | None = None) -> None:
    """Forward each ``(index, captions, images)`` batch of pairs, unmasked and
    without the tape, and write its matching logits to ``logits[index]`` and,
    given ``products``, its pooled image x text products to ``products[index]``.
    The batches run as contiguous shares of at least two batches, one per
    forked child (see ``workers.forked``), writing in place, as both arrays
    are ``shared_array``s; under four batches or at one worker they run in
    the caller. A caller that forks only waits, so its heap takes no
    copy-on-write faults. No batch's arithmetic depends on the process it runs in."""
    def run(share: slice) -> None:
        for index, captions, images in batches[share]:
            with nt.no_grad():
                out = model.forward(batch=make_batch([replace(image, tokens=tokens)
                                                      for tokens, image in zip(captions, images)]),
                                    image_rows=[], text_rows=[])
                if products is not None:
                    products[index] = out.pooled_image.values * out.pooled_text.values
                logits[index] = model.itm_score(out.pooled_image, out.pooled_text).values[:, 0]

    workers = min(score_workers(), len(batches) // 2)
    shares = [slice(0, 0), *_even_slices(len(batches), workers)] if workers > 1 else [slice(0, len(batches))]
    with forked(len(shares), run) as round_:  # a child finds its batches in the memory it was forked with
        round_(shares)


def score_pairs(model: InterBert, captions: Sequence[np.ndarray],
                images: Sequence[ImageTextPair]) -> tuple[np.ndarray, np.ndarray]:
    """Matching logit (N,) and pooled image x text product (N, hidden), the
    matching head's input, of each caption paired with the image at the same
    position, unmasked and without the tape. Pairs run in the fewest packed
    batches of at most ``SCORE_BATCH``, their sizes at most one apart; inputs
    over the model's limits are refused before the first forward."""
    n = len(captions)
    if n != len(images):
        raise ValueError(f"{n} captions for {len(images)} images")
    _check_pool_limits(model, captions, images)
    logits = shared_array(n, np.float64)
    products = shared_array((n, model.config.hidden_size), np.float64)
    _score_batches(model, [(rows, captions[rows], images[rows]) for rows in _even_slices(n, -(-n // SCORE_BATCH))],
                   logits, products)
    return logits, products


def score_all(model: InterBert, captions: Sequence[tuple[np.ndarray, int]],
              images: Sequence[ImageTextPair]) -> ScoreMatrix:
    """Matching logit for every (caption, image) combination, unmasked. Each
    batch holds one image against a run of captions, so a cell's score does
    not depend on the order of the image pool. The whole pool is checked
    against the model's limits before the first forward."""
    tokens = [caption for caption, _ in captions]
    _check_pool_limits(model, tokens, images)
    scores = shared_array((len(captions), len(images)), np.float64)
    plan = _even_slices(len(tokens), -(-len(tokens) // SCORE_BATCH))
    _score_batches(model, [((rows, col), tokens[rows], repeat(entry)) for col, entry in enumerate(images)
                           for rows in plan], scores)
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
    check_limits(corpus.pairs, **model.config.limits)
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
    check_limits(corpus.pairs, **model.config.limits)
    captions, images = [], []
    for i in range(num_samples):
        pair = corpus.pairs[int(rng.integers(0, len(corpus.pairs)))]
        tokens = pair.tokens
        if i % 2 == 0:  # even draws are mismatched
            others = corpus.other_caption_ids(pair.image_id)
            tokens = corpus.pair_by_caption(int(others[int(rng.integers(0, others.size))])).tokens
        captions.append(tokens)
        images.append(pair)
    logits = score_pairs(model, captions, images)[0]
    return int(np.sum((logits > 0.0) == (np.arange(num_samples) % 2 == 1))) / num_samples


def choice_credit(logits) -> np.ndarray:
    """Per row of multiple-choice logits with the gold choice in column 0:
    1 when gold scores strictly highest, 1/k when it shares the top score
    with k-1 others, else 0. Counting ties as wins would let a constant
    scorer reach accuracy 1. A row with a non-finite logit gets NaN credit."""
    rows = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    top = rows.max(axis=1, keepdims=True)
    return np.divide(rows[:, 0] == top[:, 0], (rows == top).sum(axis=1), out=np.full(len(rows), np.nan),
                     where=np.isfinite(rows).all(axis=1))


def choice_images(corpus: Corpus, image_index: np.ndarray, gold: int, rng,
                  num_distractors: int) -> list[ImageTextPair]:
    """The gold image's entry, then ``num_distractors`` other images drawn
    without replacement: one multiple-choice example, gold in slot 0."""
    pool = image_index[image_index != gold]
    drawn = rng.choice(pool, size=num_distractors, replace=False)
    return [corpus.image_entry(int(image_id)) for image_id in (gold, *drawn.tolist())]


def multiple_choice_accuracy(model: InterBert, corpus: Corpus, rng,
                             num_examples: int = 100, num_distractors: int = 3) -> float:
    """Mean credit (see ``choice_credit``) of the true image against sampled
    distractors."""
    check_limits(corpus.pairs, **model.config.limits)
    image_index = np.array(corpus.image_ids())
    if image_index.size < num_distractors + 1:
        raise ValueError("not enough images for the requested choice size")
    captions, images = [], []
    for _ in range(num_examples):
        pair = corpus.pairs[int(rng.integers(0, len(corpus.pairs)))]
        images += choice_images(corpus, image_index, pair.image_id, rng, num_distractors)
        captions += [pair.tokens] * (num_distractors + 1)
    logits = score_pairs(model, captions, images)[0]
    return sum(choice_credit(logits.reshape(num_examples, -1)).tolist()) / num_examples


# ---------------------------------------------------------------------------
# deployment-style nearest-neighbour lookup
# ---------------------------------------------------------------------------

def item_embeddings(model: InterBert, corpus: Corpus) -> np.ndarray:
    """One fused embedding per pair: the elementwise product of the pooled
    image and text representations (the matching head's input)."""
    check_limits(corpus.pairs, **model.config.limits)
    return score_pairs(model, [pair.tokens for pair in corpus.pairs], corpus.pairs)[1]


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
        raise ValueError(f"{path}: embeddings payload has {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(count, dim).copy()

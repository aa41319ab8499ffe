"""TF-IDF caption index, hard-negative mining, and matching-batch assembly.

Hard negatives are captions lexically close to an image's own caption but
below a similarity ceiling, so they are plausibly confusable yet wrong.
The similarity is cosine over L2-normalized TF-IDF vectors with
tf = count / length and idf = ln(N / df) + 1; the 0.5 ceiling and top-30
cut are interpreted against exactly this formula, so changing it moves the
thresholds' meaning.

Corpora carry token ids, so index terms are the content token ids. The
index is a CSR matrix in NumPy arrays, its sums taken in a CSR mat-vec's
order; mining scores blocks of images and sorts only the likely best.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Mapping, Sequence

import numpy as np

from .data import MALFORMED, Corpus, CorpusError, jsonl_lines
from .masking import MaskedSample, MaskingConfig, mask_pair

DEFAULT_SIM_THRESHOLD = 0.5
DEFAULT_MAX_NEGATIVES = 30
DEFAULT_HARD_PROB = 0.2
BLOCK_CELLS = 1 << 19  # similarities per mining block (rows x images, 4 MB), whatever the corpus size


@dataclass
class TfIdfIndex:
    """A CSR matrix in arrays: row i is caption ``caption_ids[i]`` of image
    ``image_ids[i]``, its entries ``data[indptr[i]:indptr[i + 1]]`` the
    caption's L2-normalized TF-IDF weights over the term columns ``indices``
    (``num_terms`` of them), stored in the order the terms first occur."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    num_terms: int
    caption_ids: np.ndarray
    image_ids: np.ndarray

    @classmethod
    def build(cls, caption_terms: Mapping[int, Sequence[Hashable]],
              caption_image: Mapping[int, int]) -> "TfIdfIndex":
        columns: dict[Hashable, int] = {}
        caption_ids, indices, tf, indptr = [], [], [], [0]
        for caption_id, terms in caption_terms.items():
            counts = Counter(terms)
            if not counts:
                warnings.warn(f"caption {caption_id} is empty after tokenization; skipped")
                continue
            length = sum(counts.values())
            caption_ids.append(caption_id)
            indices.extend(columns.setdefault(term, len(columns)) for term in counts)
            tf.extend(count / length for count in counts.values())
            indptr.append(len(indices))
        if len(caption_ids) < 2:
            raise ValueError("need at least two non-empty captions to index")

        indices, indptr = np.asarray(indices), np.asarray(indptr)
        weights = np.asarray(tf) * (np.log(len(caption_ids) / np.bincount(indices)) + 1.0)[indices]
        norms = np.sqrt(_csr_product(weights * weights, indices, indptr, np.ones((len(columns), 1)))[:, 0])
        return cls(weights / np.repeat(norms, np.diff(indptr)), indices, indptr, len(columns),
                   np.asarray(caption_ids), np.asarray([caption_image[c] for c in caption_ids]))

    @cached_property
    def image_captions(self) -> dict[int, list[int]]:
        """Image id -> its indexed caption ids, in row order."""
        out: dict[int, list[int]] = {}
        for caption_id, image_id in zip(self.caption_ids.tolist(), self.image_ids.tolist()):
            out.setdefault(image_id, []).append(caption_id)
        return out

    @cached_property
    def rows(self) -> dict[int, int]:
        """Caption id -> its row."""
        return {caption_id: row for row, caption_id in enumerate(self.caption_ids.tolist())}

    def similarities(self, caption_ids: Sequence[int]) -> np.ndarray:
        """Every row's cosine similarity to each caption (rows are unit length,
        so dots): rows x captions, one CSR product."""
        queries = np.zeros((self.num_terms, len(caption_ids)))
        for column, caption_id in enumerate(caption_ids):
            terms, weights = self._entries(caption_id)
            queries[terms, column] = weights
        return _csr_product(self.data, self.indices, self.indptr, queries)

    def similarity(self, caption_a: int, caption_b: int) -> float:
        """Caption a's cell of ``similarities([caption_b])``, bit for bit: a's
        stored products with b's weights, added in stored order from 0.0."""
        weights_b = dict(zip(*self._entries(caption_b)))
        total = 0.0
        for term, weight in zip(*self._entries(caption_a)):
            total += weight * weights_b.get(term, 0.0)
        return total

    def _entries(self, caption_id: int) -> tuple[list[int], list[float]]:
        lo, hi = self.indptr[self.rows[caption_id]:][:2].tolist()
        return self.indices[lo:hi].tolist(), self.data[lo:hi].tolist()


def _csr_product(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """The CSR matrix times ``dense`` (terms x columns). Each cell adds its
    row's products in stored order from 0.0, as a CSR mat-vec does: rank by
    rank, the rows taken longest first so that each rank's are one slice."""
    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    starts, longest_first = indptr[order], lengths[order]
    sums, out = np.zeros((order.size, dense.shape[1])), np.empty((order.size, dense.shape[1]))
    for rank in range(lengths.max(initial=0)):  # out holds each rank's products until the sums are done
        at = starts[:np.count_nonzero(longest_first > rank)] + rank
        # mode "clip" writes into out directly, where the default mode would buffer a copy
        products = np.take(dense, indices[at], axis=0, out=out[:at.size], mode="clip")
        products *= data[at, None]
        sums[:at.size] += products
    out[order] = sums
    return out


def build_tfidf(corpus: Corpus) -> TfIdfIndex:
    """Index every caption in the corpus by its content token ids."""
    special = corpus.vocab.special_ids()
    terms = {
        p.caption_id: [int(t) for t in p.tokens if int(t) not in special]
        for p in corpus.pairs
    }
    return TfIdfIndex.build(terms, {p.caption_id: p.image_id for p in corpus.pairs})


def mine_hard_negatives(index: TfIdfIndex, image_id: int,
                        sim_threshold: float = DEFAULT_SIM_THRESHOLD,
                        max_negatives: int = DEFAULT_MAX_NEGATIVES) -> list[tuple[int, float]]:
    """The image's hard-negative captions, best first.

    Candidates are every caption of another image whose similarity to the
    image's first caption is strictly below the ceiling; the most similar
    max_negatives survive, ties broken by ascending caption id.
    """
    if not index.image_captions.get(image_id):
        raise KeyError(f"image {image_id} has no indexed caption")
    return _mine(index, [image_id], sim_threshold, max_negatives)[0]


def build_hard_negative_table(index: TfIdfIndex,
                              sim_threshold: float = DEFAULT_SIM_THRESHOLD,
                              max_negatives: int = DEFAULT_MAX_NEGATIVES) -> dict[int, list[tuple[int, float]]]:
    """Mine every image, a block at a time; keys in ascending image id, fully deterministic."""
    images = sorted(index.image_captions)
    step = max(1, BLOCK_CELLS // len(index.caption_ids))
    return dict(zip(images, (row for start in range(0, len(images), step)
                             for row in _mine(index, images[start:start + step], sim_threshold, max_negatives))))


def _mine(index: TfIdfIndex, images: list[int], sim_threshold: float,
          max_negatives: int) -> list[list[tuple[int, float]]]:
    """``mine_hard_negatives`` of each image, one column of a block each.
    Only the candidates at or above the column's max_negatives-th largest
    eligible similarity, ties included, reach the sort."""
    if max_negatives < 0:
        raise ValueError(f"max_negatives must be non-negative, got {max_negatives}")
    sims = index.similarities([index.image_captions[image_id][0] for image_id in images])
    eligible = (sims < sim_threshold) & (index.image_ids[:, None] != np.asarray(images))
    if 0 < max_negatives < len(sims):
        floor = np.where(eligible, sims, -np.inf)
        floor.partition(-max_negatives, axis=0)
        eligible &= sims >= floor[-max_negatives]
    table = []
    for column, candidates in enumerate(eligible.T):
        keep = np.flatnonzero(candidates)
        best = keep[np.lexsort((index.caption_ids[keep], -sims[keep, column]))][:max_negatives]
        table.append(list(zip(index.caption_ids[best].tolist(), sims[best, column].tolist())))
    return table


def save_table(path, table: dict[int, list[tuple[int, float]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(table):
            row = ", ".join(
                '{"caption_id": %d, "sim": %s}' % (cid, format(sim, ".9g"))
                for cid, sim in table[image_id]
            )
            fh.write('{"image_id": %d, "negatives": [%s]}\n' % (image_id, row))


def load_table(path) -> dict[int, list[tuple[int, float]]]:
    """Read a table written by ``save_table``; a malformed line or a second
    row for one image is a ``CorpusError`` naming the file and line."""
    table: dict[int, list[tuple[int, float]]] = {}
    for lineno, line in jsonl_lines(path):
        try:
            record = json.loads(line)
            image_id = int(record["image_id"])
            row = [(int(e["caption_id"]), float(e["sim"])) for e in record["negatives"]]
        except MALFORMED as exc:
            raise CorpusError(f"{path}:{lineno}: malformed negatives line ({exc!r})") from None
        if image_id in table:
            raise CorpusError(f"{path}:{lineno}: second row for image {image_id}")
        table[image_id] = row
    return table


def check_table(table: dict[int, list[tuple[int, float]]], corpus: Corpus) -> None:
    """Refuse a table that names an image or caption id the corpus lacks,
    such as one mined from another corpus, or that offers one of an image's
    own captions as its negative."""
    owners = {pair.caption_id: pair.image_id for pair in corpus.pairs}
    for image_id, row in table.items():
        if image_id not in corpus.image_captions:
            raise CorpusError(f"negatives table names image {image_id}, which is not in the corpus")
        for caption_id, _ in row:
            if caption_id not in owners:
                raise CorpusError(f"negatives table row of image {image_id} names caption {caption_id}, "
                                  "which is not in the corpus")
            if owners[caption_id] == image_id:
                raise CorpusError(f"negatives table row of image {image_id} names caption {caption_id}, "
                                  "which is one of that image's own captions")


def sample_negative(pair, table: dict[int, list[tuple[int, float]]],
                    corpus: Corpus, rng, hard_prob: float = DEFAULT_HARD_PROB) -> int:
    """A mismatched caption id for the pair's image: a mined hard negative
    with probability hard_prob (random fallback when the row is empty),
    otherwise uniform over every other image's captions."""
    row = table.get(pair.image_id, [])
    if rng.random() < hard_prob and row:
        return int(row[int(rng.integers(0, len(row)))][0])
    return corpus.draw_other_caption(pair.image_id, rng)


def make_itm_batch(corpus: Corpus, table: dict[int, list[tuple[int, float]]],
                   rng, batch_size: int, mask_config: MaskingConfig,
                   hard_prob: float = DEFAULT_HARD_PROB) -> list[MaskedSample]:
    """Half matched, half mismatched samples, all masked.

    Positives keep their own caption (label 1); negatives swap in a caption
    sampled via the hard-negative mix (label 0). An odd batch size rounds
    the positive count down.
    """
    if len(corpus.image_ids()) < 2:
        raise ValueError("matching batches need at least two images")
    num_positive = batch_size // 2
    picks = rng.integers(0, len(corpus.pairs), size=batch_size)
    samples: list[MaskedSample] = []
    for i, pick in enumerate(picks):
        pair = corpus.pairs[int(pick)]
        if i < num_positive:
            samples.append(mask_pair(pair, corpus.vocab, rng, mask_config, itm_label=1))
        else:
            negative_id = sample_negative(pair, table, corpus, rng, hard_prob)
            negative_tokens = corpus.pair_by_caption(negative_id).tokens
            samples.append(mask_pair(
                pair, corpus.vocab, rng, mask_config,
                itm_label=0, tokens_override=negative_tokens, caption_id_override=negative_id,
            ))
    return samples

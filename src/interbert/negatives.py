"""TF-IDF caption index, hard-negative mining, and matching-batch assembly.

Hard negatives are captions lexically close to an image's own caption but
below a similarity ceiling, so they are plausibly confusable yet wrong.
The similarity is cosine over L2-normalized TF-IDF vectors with
tf = count / length and idf = ln(N / df) + 1; the 0.5 ceiling and top-30
cut are interpreted against exactly this formula, so changing it moves the
thresholds' meaning.

Corpora carry token ids, so index terms are the content token ids.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .data import Corpus, CorpusError
from .masking import MaskedSample, MaskingConfig, mask_pair

DEFAULT_SIM_THRESHOLD = 0.5
DEFAULT_MAX_NEGATIVES = 30
DEFAULT_HARD_PROB = 0.2


@dataclass
class TfIdfIndex:
    vectors: dict[int, dict[Hashable, float]]   # caption id -> L2-normalized sparse vector
    caption_image: dict[int, int]
    image_captions: dict[int, list[int]]
    doc_freq: dict[Hashable, int]
    num_documents: int

    @classmethod
    def build(cls, caption_terms: Mapping[int, Sequence[Hashable]],
              caption_image: Mapping[int, int]) -> "TfIdfIndex":
        if len(caption_terms) < 2:
            raise ValueError("need at least two captions to index")
        nonempty: dict[int, list[Hashable]] = {}
        for caption_id, terms in caption_terms.items():
            terms = list(terms)
            if not terms:
                warnings.warn(f"caption {caption_id} is empty after tokenization; skipped")
                continue
            nonempty[caption_id] = terms
        if len(nonempty) < 2:
            raise ValueError("fewer than two non-empty captions to index")

        doc_freq: dict[Hashable, int] = {}
        for terms in nonempty.values():
            for term in set(terms):
                doc_freq[term] = doc_freq.get(term, 0) + 1

        n = len(nonempty)
        vectors: dict[int, dict[Hashable, float]] = {}
        for caption_id, terms in nonempty.items():
            counts = Counter(terms)
            length = len(terms)
            vec = {t: (c / length) * (math.log(n / doc_freq[t]) + 1.0) for t, c in counts.items()}
            norm = math.sqrt(sum(w * w for w in vec.values()))
            vectors[caption_id] = {t: w / norm for t, w in vec.items()}

        image_captions: dict[int, list[int]] = {}
        for caption_id in vectors:
            image_captions.setdefault(caption_image[caption_id], []).append(caption_id)
        return cls(
            vectors=vectors,
            caption_image={cid: caption_image[cid] for cid in vectors},
            image_captions=image_captions,
            doc_freq=doc_freq,
            num_documents=n,
        )

    def similarity(self, caption_a: int, caption_b: int) -> float:
        """Cosine similarity; vectors are unit length so this is a dot."""
        va, vb = self.vectors[caption_a], self.vectors[caption_b]
        if len(vb) < len(va):
            va, vb = vb, va
        return sum(w * vb.get(t, 0.0) for t, w in va.items())


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
    own = index.image_captions.get(image_id)
    if not own:
        raise KeyError(f"image {image_id} has no indexed caption")
    reference = own[0]
    candidates: list[tuple[int, float]] = []
    for caption_id in index.vectors:
        if index.caption_image[caption_id] == image_id:
            continue
        sim = index.similarity(caption_id, reference)
        if sim < sim_threshold:
            candidates.append((caption_id, sim))
    candidates.sort(key=lambda item: (-item[1], item[0]))
    return candidates[:max_negatives]


def build_hard_negative_table(index: TfIdfIndex,
                              sim_threshold: float = DEFAULT_SIM_THRESHOLD,
                              max_negatives: int = DEFAULT_MAX_NEGATIVES) -> dict[int, list[tuple[int, float]]]:
    """Mine every image; keys in ascending image id, fully deterministic."""
    return {
        image_id: mine_hard_negatives(index, image_id, sim_threshold, max_negatives)
        for image_id in sorted(index.image_captions)
    }


def save_table(path, table: dict[int, list[tuple[int, float]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id in sorted(table):
            row = ", ".join(
                '{"caption_id": %d, "sim": %s}' % (cid, format(sim, ".9g"))
                for cid, sim in table[image_id]
            )
            fh.write('{"image_id": %d, "negatives": [%s]}\n' % (image_id, row))


def load_table(path) -> dict[int, list[tuple[int, float]]]:
    """Read a table written by ``save_table``; a malformed line is a
    ``CorpusError`` naming the file and line."""
    import json

    table: dict[int, list[tuple[int, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                table[int(record["image_id"])] = [
                    (int(e["caption_id"]), float(e["sim"])) for e in record["negatives"]
                ]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorpusError(f"{path}:{lineno}: malformed negatives line ({exc!r})") from None
    return table


def check_table(table: dict[int, list[tuple[int, float]]], corpus: Corpus) -> None:
    """Refuse a table that names an image or caption id the corpus lacks,
    such as one mined from another corpus."""
    captions = {pair.caption_id for pair in corpus.pairs}
    for image_id, row in table.items():
        if image_id not in corpus.image_captions:
            raise CorpusError(f"negatives table names image {image_id}, which is not in the corpus")
        for caption_id, _ in row:
            if caption_id not in captions:
                raise CorpusError(f"negatives table row of image {image_id} names caption {caption_id}, "
                                  "which is not in the corpus")


def sample_negative(pair, table: dict[int, list[tuple[int, float]]],
                    corpus: Corpus, rng, hard_prob: float = DEFAULT_HARD_PROB) -> int:
    """A mismatched caption id for the pair's image: a mined hard negative
    with probability hard_prob (random fallback when the row is empty),
    otherwise uniform over every other image's captions."""
    others = corpus.other_caption_ids(pair.image_id)
    if others.size == 0:
        raise ValueError("corpus needs captions from at least two images")
    row = table.get(pair.image_id, [])
    use_hard = rng.random() < hard_prob
    if use_hard and row:
        return int(row[int(rng.integers(0, len(row)))][0])
    return int(others[int(rng.integers(0, others.size))])


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

"""TF-IDF index, hard-negative mining, and matching-batch assembly."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from interbert.data import CorpusError, synth_corpus
from interbert.masking import MaskingConfig
from interbert.negatives import (
    TfIdfIndex,
    build_hard_negative_table,
    build_tfidf,
    check_table,
    load_table,
    make_itm_batch,
    mine_hard_negatives,
    sample_negative,
    save_table,
)


def reference_tfidf(captions: dict[int, list[str]]) -> dict[int, dict[str, float]]:
    """Independent re-derivation of the vectors: length-normalized tf,
    idf = ln(N/df) + 1, then L2 normalization."""
    n = len(captions)
    df: dict[str, int] = {}
    for terms in captions.values():
        for t in set(terms):
            df[t] = df.get(t, 0) + 1
    out = {}
    for cid, terms in captions.items():
        counts = Counter(terms)
        vec = {t: (c / len(terms)) * (math.log(n / df[t]) + 1.0) for t, c in counts.items()}
        norm = math.sqrt(sum(v * v for v in vec.values()))
        out[cid] = {t: v / norm for t, v in vec.items()}
    return out


def reference_similarity(va, vb):
    return sum(w * vb.get(t, 0.0) for t, w in va.items())


def index_of(captions: dict[int, str]) -> TfIdfIndex:
    """Index whitespace-split captions, caption i showing image i."""
    return TfIdfIndex.build({cid: text.split() for cid, text in captions.items()},
                            {cid: cid for cid in captions})


def test_identical_captions_have_similarity_one():
    index = index_of({0: "a red dress", 1: "a red dress", 2: "something else entirely"})
    assert abs(index.similarity(0, 1) - 1.0) < 1e-12


def test_disjoint_captions_have_similarity_zero():
    index = index_of({0: "red dress", 1: "blue sky"})
    assert index.similarity(0, 1) == 0.0


def test_three_caption_corpus_matches_hand_oracle():
    captions = {0: "a red dress", 1: "a red shoe", 2: "blue sky photo"}
    index = index_of(captions)
    expected = reference_tfidf({cid: text.split() for cid, text in captions.items()})
    for a in captions:
        for b in captions:
            got = index.similarity(a, b)
            want = reference_similarity(expected[a], expected[b])
            assert abs(got - want) < 1e-9


def test_empty_caption_skipped_with_warning():
    with pytest.warns(UserWarning, match="caption 1"):
        index = index_of({0: "red dress", 1: "", 2: "blue sky"})
    assert 1 not in index.caption_ids
    assert index.matrix.shape[0] == 2


def test_index_requires_two_captions():
    with pytest.raises(ValueError):
        TfIdfIndex.build({0: ["a"]}, {0: 0})


def test_vectors_are_unit_length():
    corpus = synth_corpus(seed=8, num_images=30)
    index = build_tfidf(corpus)
    assert np.all(np.abs(np.linalg.norm(index.matrix.toarray(), axis=1) - 1.0) < 1e-12)
    assert np.all(np.bincount(index.matrix.indices, minlength=index.matrix.shape[1]) >= 1)


@settings(max_examples=60, deadline=None)
@given(captions=st.lists(st.lists(st.sampled_from(["red", "dress", "blue", "sky", "a", "shoe", "photo"]),
                                  max_size=6), min_size=2, max_size=14),
       images=st.integers(1, 5), max_negatives=st.integers(1, 8))
def test_csr_index_matches_reference_and_brute_force(captions, images, max_negatives):
    """Random string-term captions, empty ones and repeated terms included:
    similarity matches the independent re-derivation, and mining equals a
    brute force over similarity."""
    nonempty = {cid: terms for cid, terms in enumerate(captions) if terms}
    assume(len(nonempty) >= 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        index = TfIdfIndex.build(dict(enumerate(captions)), {cid: cid % images for cid in range(len(captions))})
    expected = reference_tfidf(nonempty)
    for a in nonempty:
        for b in nonempty:
            assert abs(index.similarity(a, b) - reference_similarity(expected[a], expected[b])) <= 1e-12
    for image_id, own in index.image_captions.items():
        scored = sorted(((cid, index.similarity(cid, own[0])) for cid in nonempty if cid % images != image_id),
                        key=lambda item: (-item[1], item[0]))
        brute = [(cid, sim) for cid, sim in scored if sim < 0.5][:max_negatives]
        assert mine_hard_negatives(index, image_id, max_negatives=max_negatives) == brute


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------

def test_mining_all_similar_gives_empty_row():
    index = index_of({0: "red dress", 1: "red dress", 2: "red dress"})
    assert mine_hard_negatives(index, 0) == []


def test_mining_returns_fewer_when_few_eligible():
    index = index_of({0: "red dress photo", 1: "red shoe", 2: "blue sky", 3: "red dress photo"})
    row = mine_hard_negatives(index, 0)
    ids = [cid for cid, _ in row]
    assert 3 not in ids  # similarity 1.0 is over the ceiling
    assert set(ids) == {1, 2}
    assert row[0][1] >= row[1][1]


def test_mining_matches_brute_force_oracle():
    corpus = synth_corpus(seed=13, num_images=200, captions_per_image=1)
    index = build_tfidf(corpus)
    for image_id in corpus.image_ids():
        mined = mine_hard_negatives(index, image_id)
        reference = index.image_captions[image_id][0]
        scored = []
        for pair in corpus.pairs:
            if pair.image_id == image_id:
                continue
            sim = index.similarity(pair.caption_id, reference)
            if sim < 0.5:
                scored.append((pair.caption_id, sim))
        scored.sort(key=lambda item: (-item[1], item[0]))
        assert mined == scored[:30]


def test_table_invariants_and_determinism():
    corpus = synth_corpus(seed=21, num_images=60)
    index = build_tfidf(corpus)
    table = build_hard_negative_table(index)
    again = build_hard_negative_table(build_tfidf(corpus))
    assert table == again
    for image_id, row in table.items():
        own = set(corpus.image_captions[image_id])
        sims = [s for _, s in row]
        assert len(row) <= 30
        assert all(s < 0.5 for s in sims)
        assert sims == sorted(sims, reverse=True)
        assert not own & {cid for cid, _ in row}
        reference = index.image_captions[image_id][0]
        for cid, sim in row:
            assert abs(index.similarity(cid, reference) - sim) < 1e-12


def test_table_file_round_trip(tmp_path):
    corpus = synth_corpus(seed=2, num_images=20)
    table = build_hard_negative_table(build_tfidf(corpus))
    path = tmp_path / "negatives.jsonl"
    save_table(path, table)
    loaded = load_table(path)
    assert set(loaded) == set(table)
    for image_id in table:
        assert [c for c, _ in loaded[image_id]] == [c for c, _ in table[image_id]]
        for (_, a), (_, b) in zip(loaded[image_id], table[image_id]):
            assert abs(a - b) < 1e-8
    blob = path.read_bytes()
    save_table(path, loaded)
    assert path.read_bytes() == blob


def test_load_table_names_the_malformed_line(tmp_path):
    path = tmp_path / "negatives.jsonl"
    for bad in ('{"image_id": 1, "negs": []}', "not json", '{"image_id": 1, "negatives": [{"sim": 0.1}]}'):
        path.write_text('{"image_id": 0, "negatives": []}\n' + bad + "\n")
        with pytest.raises(CorpusError, match=f"{path}:2: malformed negatives line"):
            load_table(path)


def test_load_table_refuses_a_second_row_for_one_image(tmp_path):
    path = tmp_path / "negatives.jsonl"
    path.write_text('{"image_id": 1, "negatives": [{"caption_id": 4, "sim": 0.25}]}\n'
                    '{"image_id": 0, "negatives": []}\n'
                    '{"image_id": 1, "negatives": []}\n')
    with pytest.raises(CorpusError, match=f"{path}:3: second row for image 1"):
        load_table(path)


def test_check_table_refuses_ids_outside_the_corpus():
    corpus = synth_corpus(seed=2, num_images=20)
    table = build_hard_negative_table(build_tfidf(corpus))
    check_table(table, corpus)
    smaller = synth_corpus(seed=2, num_images=12)  # captions 0-11 of images 0-11
    with pytest.raises(CorpusError, match="not in the corpus"):
        check_table(table, smaller)
    with pytest.raises(CorpusError, match="names image 12,"):
        check_table({0: [(3, 0.1)], 12: []}, smaller)
    with pytest.raises(CorpusError, match="row of image 0 names caption 15,"):
        check_table({0: [(3, 0.1), (15, 0.1)]}, smaller)


def test_check_table_refuses_an_image_s_own_caption():
    corpus = synth_corpus(seed=2, num_images=6, captions_per_image=2)  # image i owns captions 2i, 2i+1
    check_table(build_hard_negative_table(build_tfidf(corpus)), corpus)
    with pytest.raises(CorpusError, match="row of image 1 names caption 3, which is one of that image's own"):
        check_table({0: [(4, 0.2)], 1: [(0, 0.3), (3, 0.1)]}, corpus)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def test_sample_negative_empty_row_falls_back_to_random(rng):
    corpus = synth_corpus(seed=3, num_images=10)
    table = {i: [] for i in corpus.image_ids()}
    pair = corpus.pairs[0]
    for _ in range(100):
        cid = sample_negative(pair, table, corpus, rng, hard_prob=1.0)
        assert corpus.pair_by_caption(cid).image_id != pair.image_id


def test_sample_negative_hard_prob_one_single_row(rng):
    corpus = synth_corpus(seed=3, num_images=10)
    target = corpus.pairs[3].caption_id
    table = {i: [(target, 0.4)] for i in corpus.image_ids()}
    pair = corpus.pairs[0]
    draws = {sample_negative(pair, table, corpus, rng, hard_prob=1.0) for _ in range(50)}
    assert draws == {target}


def test_sample_negative_hard_fraction_statistic():
    corpus = synth_corpus(seed=5, num_images=20)
    index = build_tfidf(corpus)
    table = build_hard_negative_table(index)
    pair = corpus.pairs[0]
    hard_ids = {cid for cid, _ in table[pair.image_id]}
    assert hard_ids, "fixture needs a non-empty hard row"
    rng = np.random.default_rng(11)
    hits = 0
    n = 100_000
    # count draws that can only come from the hard row by restricting it
    # to captions also reachable randomly is ambiguous; instead use a row
    # disjoint from a marker subset: draw and classify by membership.
    for _ in range(n):
        cid = sample_negative(pair, table, corpus, rng, hard_prob=0.2)
        if cid in hard_ids:
            hits += 1
    # random picks can also land in hard_ids; correct for that part
    others = corpus.other_caption_ids(pair.image_id)
    p_random_in_hard = len(hard_ids & set(others.tolist())) / len(others)
    expected = 0.2 + 0.8 * p_random_in_hard
    assert abs(hits / n - expected) < 0.01


def test_make_itm_batch_half_and_half(rng):
    corpus = synth_corpus(seed=7, num_images=12)
    table = build_hard_negative_table(build_tfidf(corpus))
    cfg = MaskingConfig()
    batch = make_itm_batch(corpus, table, rng, 8, cfg)
    labels = [s.itm_label for s in batch]
    assert labels.count(1) == 4 and labels.count(0) == 4
    odd = make_itm_batch(corpus, table, rng, 7, cfg)
    labels = [s.itm_label for s in odd]
    assert labels.count(1) == 3 and labels.count(0) == 4


def test_negatives_never_pair_own_captions(rng):
    corpus = synth_corpus(seed=9, num_images=10, captions_per_image=2)
    table = build_hard_negative_table(build_tfidf(corpus))
    cfg = MaskingConfig(anchor_prob=0.0)
    for _ in range(30):
        for sample in make_itm_batch(corpus, table, rng, 6, cfg):
            if sample.itm_label == 0:
                own = set(corpus.image_captions[sample.image_id])
                assert sample.caption_id not in own
                # the tokens really are the negative caption's tokens
                assert np.array_equal(
                    sample.raw_tokens, corpus.pair_by_caption(sample.caption_id).tokens)


def test_batch_label_mean_is_half(rng):
    corpus = synth_corpus(seed=4, num_images=8)
    table = build_hard_negative_table(build_tfidf(corpus))
    cfg = MaskingConfig(anchor_prob=0.0)
    means = [
        np.mean([s.itm_label for s in make_itm_batch(corpus, table, rng, 10, cfg)])
        for _ in range(50)
    ]
    assert all(m == 0.5 for m in means)

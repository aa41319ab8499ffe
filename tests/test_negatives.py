"""TF-IDF index, hard-negative mining, and matching-batch assembly."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from interbert import negatives
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


def dense_rows(index: TfIdfIndex) -> np.ndarray:
    """The index's rows as a dense (captions x terms) matrix."""
    dense = np.zeros((len(index.caption_ids), index.num_terms))
    dense[np.repeat(np.arange(len(index.caption_ids)), np.diff(index.indptr)), index.indices] = index.data
    return dense


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
    assert len(index.indptr) - 1 == 2


def test_index_requires_two_captions():
    with pytest.raises(ValueError):
        TfIdfIndex.build({0: ["a"]}, {0: 0})


def test_vectors_are_unit_length():
    corpus = synth_corpus(seed=8, num_images=30)
    index = build_tfidf(corpus)
    assert np.all(np.abs(np.linalg.norm(dense_rows(index), axis=1) - 1.0) < 1e-12)
    assert np.all(np.bincount(index.indices, minlength=index.num_terms) >= 1)


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
# the CSR arithmetic against scipy.sparse, bit for bit
# ---------------------------------------------------------------------------

def scipy_data(caption_terms: dict) -> np.ndarray:
    """The index's stored weights as a scipy.sparse build makes them: each
    row's norm from a CSR mat-vec of its squared weights with ones."""
    columns, indices, tf, indptr = {}, [], [], [0]
    for terms in caption_terms.values():
        if terms:
            counts = Counter(terms)
            indices.extend(columns.setdefault(term, len(columns)) for term in counts)
            tf.extend(count / len(terms) for count in counts.values())
            indptr.append(len(indices))
    indices = np.asarray(indices)
    weights = np.asarray(tf) * (np.log((len(indptr) - 1) / np.bincount(indices)) + 1.0)[indices]
    norms = np.sqrt(csr_matrix((weights * weights, indices, indptr)) @ np.ones(len(columns)))
    return weights / np.repeat(norms, np.diff(indptr))


def scipy_similarities(index: TfIdfIndex, caption_ids) -> np.ndarray:
    """Rows x captions, one scipy CSR mat-vec per caption."""
    matrix = csr_matrix((index.data, index.indices, index.indptr), shape=(len(index.caption_ids), index.num_terms))
    out = np.empty((len(index.caption_ids), len(caption_ids)))
    for column, caption_id in enumerate(caption_ids):
        row = index.rows[caption_id]
        lo, hi = index.indptr[row:row + 2]
        query = np.zeros(index.num_terms)
        query[index.indices[lo:hi]] = index.data[lo:hi]
        out[:, column] = matrix @ query
    return out


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(captions=st.lists(st.lists(st.sampled_from(["red", "dress", "blue", "sky", "a", "shoe", "photo"]),
                                  max_size=9), min_size=2, max_size=14))
def test_index_and_similarities_give_scipys_bits(captions):
    """Empty captions and repeated terms included: the stored weights, the
    block of every caption and each ``similarity`` cell of it."""
    caption_terms = dict(enumerate(captions))
    assume(sum(1 for terms in captions if terms) >= 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        index = TfIdfIndex.build(caption_terms, {cid: cid for cid in caption_terms})
    assert np.array_equal(bits(index.data), bits(scipy_data(caption_terms)))
    ids = index.caption_ids.tolist()
    block = index.similarities(ids)
    assert np.array_equal(bits(block), bits(scipy_similarities(index, ids)))
    assert np.array_equal(bits([[index.similarity(a, b) for b in ids] for a in ids]), bits(block))


def scipy_table(index: TfIdfIndex, block: np.ndarray, images: list[int]) -> dict:
    """Every eligible candidate sorted by (-sim, caption id), as the scipy
    build mined them, from a block whose column j is image ``images[j]``."""
    table = {}
    for column, image_id in enumerate(images):
        sims = block[:, column]
        keep = np.flatnonzero((index.image_ids != image_id) & (sims < 0.5))
        best = keep[np.lexsort((index.caption_ids[keep], -sims[keep]))][:30]
        table[image_id] = list(zip(index.caption_ids[best].tolist(), sims[best].tolist()))
    return table


@pytest.mark.parametrize("num_images, captions_per_image", [(200, 1), (200, 2), (1000, 1)])
def test_corpus_index_similarities_and_table_match_scipys(num_images, captions_per_image):
    corpus = synth_corpus(seed=0, num_images=num_images, captions_per_image=captions_per_image)
    index = build_tfidf(corpus)
    special = corpus.vocab.special_ids()
    caption_terms = {p.caption_id: [int(t) for t in p.tokens if int(t) not in special] for p in corpus.pairs}
    images = sorted(index.image_captions)
    block = index.similarities([index.image_captions[image_id][0] for image_id in images])
    assert np.array_equal(bits(index.data), bits(scipy_data(caption_terms)))
    assert np.array_equal(bits(block), bits(scipy_similarities(index, [index.image_captions[i][0] for i in images])))
    sampled = np.random.default_rng(num_images).integers(0, len(images), size=(300, 2))
    cells = [index.similarity(int(index.caption_ids[row]), index.image_captions[images[column]][0])
             for row, column in sampled]
    assert np.array_equal(bits(cells), bits(block[sampled[:, 0], sampled[:, 1]]))
    assert build_hard_negative_table(index) == scipy_table(index, block, images)


@pytest.mark.parametrize("images_per_block", [1, 7])
def test_table_does_not_depend_on_the_block_size(monkeypatch, images_per_block):
    corpus = synth_corpus(seed=4, num_images=200, captions_per_image=2)
    index = build_tfidf(corpus)
    whole = build_hard_negative_table(index)
    assert 2 * 200 * 200 <= negatives.BLOCK_CELLS  # one block by default
    monkeypatch.setattr(negatives, "BLOCK_CELLS", images_per_block * len(index.caption_ids))
    assert build_hard_negative_table(index) == whole
    assert build_hard_negative_table(index, 0.3, 5) == {
        image_id: mine_hard_negatives(index, image_id, 0.3, 5) for image_id in sorted(index.image_captions)}


def test_a_tie_across_the_cut_keeps_the_lower_caption_ids():
    """Image 0's 30th and 31st candidates tie on similarity and differ in
    caption id; rows hold the tied captions in descending id order."""
    captions = {0: "red dress shoe"}
    captions.update({cid: "red sky photo blue" for cid in range(40, 10, -1)})  # 30 ties, rows in falling id
    captions.update({cid: "red dress sky photo blue" for cid in range(1, 6)})  # 5 closer candidates
    index = index_of(captions)
    row = mine_hard_negatives(index, 0)
    sims = [sim for _, sim in row]
    closer, tied = index.similarity(1, 0), index.similarity(11, 0)
    assert tied < closer < 0.5 and sims == [closer] * 5 + [tied] * 25
    assert [cid for cid, _ in row] == list(range(1, 6)) + list(range(11, 36))
    assert bits(index.similarities([0])[:, 0]).tolist() == bits(scipy_similarities(index, [0])[:, 0]).tolist()


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


def test_mining_keeps_none_at_zero_and_refuses_a_negative_count():
    index = index_of({0: "red dress photo", 1: "red shoe", 2: "blue sky"})
    assert mine_hard_negatives(index, 0, max_negatives=0) == []
    with pytest.raises(ValueError, match="max_negatives must be non-negative, got -1"):
        build_hard_negative_table(index, max_negatives=-1)


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

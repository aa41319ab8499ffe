"""Corpus files, synthetic corpus construction, and batch packing."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interbert.data import (
    Corpus,
    CorpusError,
    ImageTextPair,
    Vocabulary,
    load_corpus,
    load_vocabulary,
    make_batch,
    save_corpus,
    save_vocabulary,
    synth_corpus,
    synth_vocabulary,
)
from interbert.model.network import _sequences


def small_vocab():
    return Vocabulary(size=12, pad_id=0, cls_id=1, sep_id=2, mask_id=3)


def make_pair(vocab, caption_id=0, image_id=0, tokens=(1, 5, 6, 2), m=2):
    rng = np.random.default_rng(caption_id + 10)
    return ImageTextPair(
        image_id=image_id,
        caption_id=caption_id,
        tokens=np.array(tokens),
        width=100,
        height=80,
        features=rng.normal(size=(m, 4)),
        bboxes=np.array([[5.0 + 3 * i, 5.0, 30.0 + 3 * i, 40.0] for i in range(m)]),
        labels=rng.integers(0, 3, size=m),
    )


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_vocabulary_validation():
    with pytest.raises(CorpusError):
        Vocabulary(size=12, pad_id=0, cls_id=0, sep_id=2, mask_id=3)
    with pytest.raises(CorpusError):
        Vocabulary(size=3, pad_id=0, cls_id=1, sep_id=2, mask_id=5)


def test_vocabulary_content_ids():
    vocab = small_vocab()
    content = vocab.content_ids
    assert content.tolist() == list(range(4, 12))  # ascending, specials left out
    assert content.dtype == np.int64 and not content.flags.writeable
    assert vocab.content_ids is content  # built once per vocabulary


def test_vocabulary_round_trip(tmp_path):
    path = tmp_path / "vocab.json"
    non_ascii = Vocabulary(size=12, pad_id=0, cls_id=1, sep_id=2, mask_id=3, names={10: "caf\u00e9", 4: "\u732b"})
    for vocab in (synth_vocabulary(num_classes=5), small_vocab(), non_ascii):
        save_vocabulary(vocab, path)
        assert load_vocabulary(path) == vocab
        first = path.read_bytes()
        save_vocabulary(load_vocabulary(path), path)
        assert path.read_bytes() == first


def test_vocabulary_file_format(tmp_path):
    path = tmp_path / "vocab.json"
    save_vocabulary(Vocabulary(size=12, pad_id=0, cls_id=1, sep_id=2, mask_id=3,
                               names={10: "caf\u00e9", 4: "dog"}), path)
    assert path.read_bytes() == (b'{"size": 12, "pad_id": 0, "cls_id": 1, "sep_id": 2, "mask_id": 3, '
                                 b'"names": {"4": "dog", "10": "caf\\u00e9"}}\n')


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def test_empty_file_gives_empty_corpus(tmp_path):
    vocab_path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab(), vocab_path)
    pairs_path = tmp_path / "pairs.jsonl"
    pairs_path.write_text("")
    corpus = load_corpus(pairs_path, vocab_path)
    assert len(corpus) == 0


def test_single_pair_round_trips_bit_identically(tmp_path):
    corpus = Corpus(pairs=[make_pair(small_vocab())], vocab=small_vocab())
    pairs_path, vocab_path = tmp_path / "pairs.jsonl", tmp_path / "vocab.json"
    save_corpus(corpus, pairs_path, vocab_path)
    first = pairs_path.read_bytes()
    reloaded = load_corpus(pairs_path, vocab_path)
    save_corpus(reloaded, pairs_path, vocab_path)
    assert pairs_path.read_bytes() == first
    pair = reloaded.pairs[0]
    assert np.array_equal(pair.tokens, corpus.pairs[0].tokens)


def test_synth_corpus_save_load_save_identical(tmp_path):
    corpus = synth_corpus(seed=3, num_images=10)
    a, av = tmp_path / "a.jsonl", tmp_path / "a_vocab.json"
    save_corpus(corpus, a, av)
    blob = a.read_bytes()
    save_corpus(load_corpus(a, av), a, av)
    assert a.read_bytes() == blob


def test_bad_bbox_reports_line_number(tmp_path):
    corpus = Corpus(pairs=[make_pair(small_vocab(), caption_id=0),
                           make_pair(small_vocab(), caption_id=1, image_id=1)], vocab=small_vocab())
    pairs_path, vocab_path = tmp_path / "pairs.jsonl", tmp_path / "vocab.json"
    save_corpus(corpus, pairs_path, vocab_path)
    lines = pairs_path.read_text().splitlines()
    lines[1] = lines[1].replace('"width": 100', '"width": 10')  # boxes now out of bounds
    pairs_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=":2:"):
        load_corpus(pairs_path, vocab_path)


def test_captions_of_one_image_must_share_its_arrays(tmp_path):
    vocab = small_vocab()
    first = make_pair(vocab, caption_id=0)
    pairs = [first, make_pair(vocab, caption_id=1, image_id=1),
             replace(first, caption_id=2, tokens=np.array([1, 7, 2]))]
    pairs_path, vocab_path = tmp_path / "pairs.jsonl", tmp_path / "vocab.json"
    save_corpus(Corpus(pairs=pairs, vocab=vocab), pairs_path, vocab_path)
    assert len(load_corpus(pairs_path, vocab_path)) == 3  # copies of the same arrays load
    for change in (dict(width=99), dict(height=81), dict(features=first.features + 5.0),
                   dict(bboxes=first.bboxes + 1.0), dict(labels=first.labels + 1)):
        save_corpus(Corpus(pairs=pairs[:2] + [replace(pairs[2], **change)], vocab=vocab), pairs_path, vocab_path)
        with pytest.raises(CorpusError, match=f"{pairs_path}:3: image 0 .* first caption at line 1"):
            load_corpus(pairs_path, vocab_path)


def test_malformed_json_reports_line_number(tmp_path):
    vocab_path = tmp_path / "vocab.json"
    save_vocabulary(small_vocab(), vocab_path)
    pairs_path = tmp_path / "pairs.jsonl"
    pairs_path.write_text("{not json}\n")
    with pytest.raises(CorpusError, match=":1:"):
        load_corpus(pairs_path, vocab_path)


def test_pair_validation():
    vocab = small_vocab()
    short = make_pair(vocab, tokens=(1, 2))
    with pytest.raises(CorpusError):
        short.validate(vocab)
    missing_cls = make_pair(vocab, tokens=(5, 6, 2))
    with pytest.raises(CorpusError):
        missing_cls.validate(vocab)
    fine = make_pair(vocab)
    fine.validate(vocab)
    for name in ("features", "bboxes"):
        broken = make_pair(vocab)
        getattr(broken, name)[0, 0] = np.nan
        with pytest.raises(CorpusError, match="finite"):
            broken.validate(vocab)
    with pytest.raises(CorpusError):
        fine.validate(vocab, num_classes=1)


def test_duplicate_caption_ids_rejected():
    vocab = small_vocab()
    with pytest.raises(CorpusError):
        Corpus(pairs=[make_pair(vocab), make_pair(vocab)], vocab=vocab)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_synth_corpus_deterministic(tmp_path):
    a = synth_corpus(seed=11, num_images=8)
    b = synth_corpus(seed=11, num_images=8)
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.tokens, pb.tokens)
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.bboxes, pb.bboxes)


def test_synth_corpus_zero_noise_makes_class_features_identical():
    corpus = synth_corpus(seed=5, num_images=20, noise_std=0.0)
    by_class = {}
    for pair in corpus.pairs:
        for feat, label in zip(pair.features, pair.labels):
            seen = by_class.setdefault(int(label), feat)
            assert np.array_equal(seen, feat)


def test_synth_corpus_linear_probe_separates_classes():
    # noiseless features are one-hot in the class coordinate, so the
    # trivial linear probe (argmax) classifies every object perfectly
    corpus = synth_corpus(seed=5, num_images=20, noise_std=0.0)
    for pair in corpus.pairs:
        assert np.array_equal(pair.features.argmax(axis=1), pair.labels)
    # and stays perfect at the acceptance noise level
    noisy = synth_corpus(seed=5, num_images=20, noise_std=0.1)
    for pair in noisy.pairs:
        assert np.array_equal(pair.features.argmax(axis=1), pair.labels)


def test_synth_caption_multiset_matches_objects():
    corpus = synth_corpus(seed=9, num_images=30, num_classes=7)
    for pair in corpus.pairs:
        body = [int(t) for t in pair.tokens[1:-1]]
        class_tokens = [t for t in body if t < 4 + 7]
        assert Counter(class_tokens) == Counter(4 + int(l) for l in pair.labels)
        assert all(t >= 4 for t in body)


def test_synth_corpus_valid_and_counts():
    corpus = synth_corpus(seed=2, num_images=15, captions_per_image=3)
    corpus.validate(num_classes=12)
    assert len(corpus) == 45
    assert len(corpus.image_ids()) == 15
    assert all(len(v) == 3 for v in corpus.image_captions.values())


def test_synth_corpus_feature_dim_guard():
    with pytest.raises(ValueError):
        synth_corpus(seed=0, num_classes=20, feature_dim=10)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), min_size=1, max_size=6))
def test_make_batch_is_lossless(shapes):
    """Slicing the packed arrays by the drawn (objects, tokens) lengths gives
    back every sample, in order, and ``_sequences`` gives sample i its
    1 + objects image rows and its token rows."""
    rng = np.random.default_rng([m for m, _ in shapes] + [n for _, n in shapes])
    pairs = [ImageTextPair(image_id=i, caption_id=i, tokens=rng.integers(0, 12, size=n), width=100 + i,
                           height=80 + 2 * i, features=rng.normal(size=(m, 4)), bboxes=rng.uniform(0, 50, size=(m, 4)),
                           labels=np.zeros(m)) for i, (m, n) in enumerate(shapes)]
    batch = make_batch(pairs)
    objects, tokens = (np.array([0] + [shape[k] for shape in shapes]).cumsum() for k in (0, 1))
    assert len(batch) == len(pairs)
    assert batch.tokens.shape == (tokens[-1],) and batch.features.shape[0] == batch.bboxes.shape[0] == objects[-1]
    for i, pair in enumerate(pairs):
        assert np.array_equal(batch.tokens[tokens[i]:tokens[i + 1]], pair.tokens)
        assert np.array_equal(batch.features[objects[i]:objects[i + 1]], pair.features)
        assert np.array_equal(batch.bboxes[objects[i]:objects[i + 1]], pair.bboxes)
        assert (batch.widths[i], batch.heights[i]) == (pair.width, pair.height)
    seq, n_image = _sequences(batch)
    ids = np.arange(len(pairs))
    assert np.array_equal(seq[:n_image], np.repeat(ids, [1 + m for m, _ in shapes]))
    assert np.array_equal(seq[n_image:], np.repeat(ids, [n for _, n in shapes]))


def test_make_batch_single_sample_layout():
    vocab = small_vocab()
    pair = make_pair(vocab, m=3)
    batch = make_batch([pair])
    assert len(batch) == 1
    assert batch.image_length.tolist() == [4]  # 3 objects + summary slot
    assert batch.text_length.tolist() == [4]
    assert batch.tokens.shape == (4,) and batch.features.shape[0] == 3
    seq, n_image = _sequences(batch)
    assert n_image == 4 and seq.tolist() == [0] * 8


def test_make_batch_mixed_lengths():
    vocab = small_vocab()
    short = make_pair(vocab, caption_id=0, tokens=(1, 5, 2), m=1)
    long = make_pair(vocab, caption_id=1, image_id=1, tokens=(1, 5, 6, 7, 2), m=3)
    batch = make_batch([short, long])
    # end to end, no padding: 3 + 5 tokens and 1 + 3 objects
    assert batch.tokens.tolist() == [1, 5, 2, 1, 5, 6, 7, 2]
    assert batch.features.shape[0] == batch.bboxes.shape[0] == 4
    assert batch.image_length.tolist() == [2, 4]
    assert batch.text_length.tolist() == [3, 5]
    seq, n_image = _sequences(batch)
    assert n_image == 6
    assert seq.tolist() == [0, 0, 1, 1, 1, 1] + [0, 0, 0, 1, 1, 1, 1, 1]


def test_make_batch_truncation_forbidden():
    vocab = small_vocab()
    pair = make_pair(vocab, tokens=(1, 5, 6, 7, 8, 2))
    with pytest.raises(CorpusError):
        make_batch([pair], max_text_len=4)
    with pytest.raises(CorpusError):
        make_batch([make_pair(vocab, m=4)], max_objects=2)


def test_other_caption_ids():
    corpus = synth_corpus(seed=4, num_images=5, captions_per_image=2)
    others = corpus.other_caption_ids(2)
    assert len(others) == 8
    own = set(corpus.image_captions[2])
    assert not own & set(others.tolist())


def test_draw_other_caption_picks_what_the_same_draw_picks_from_other_caption_ids():
    full = synth_corpus(seed=4, num_images=6, captions_per_image=3)
    gen = np.random.default_rng(0)  # one to three captions an image, in shuffled order
    kept = [p for i, p in enumerate(full.pairs) if i % 3 == 0 or gen.random() < 0.5]
    corpus = Corpus([kept[i] for i in gen.permutation(len(kept))], full.vocab)
    assert len({len(ids) for ids in corpus.image_captions.values()}) == 3
    for image_id in corpus.image_ids():
        others = corpus.other_caption_ids(image_id)
        drawn, picked = np.random.default_rng(image_id), np.random.default_rng(image_id)
        for _ in range(300):
            assert corpus.draw_other_caption(image_id, drawn) == others[int(picked.integers(0, others.size))]
        assert drawn.random() == picked.random()  # the same draws were consumed
    alone = Corpus([p for p in corpus.pairs if p.image_id == 0], corpus.vocab)
    with pytest.raises(ValueError, match="at least two images"):
        alone.draw_other_caption(0, drawn)

"""Recall metrics against brute-force oracles, scoring behaviour, and the
nearest-neighbour lookup."""

import numpy as np
import pytest

from interbert import numerics as nt
from interbert.data import CorpusError, synth_corpus
from interbert.evaluation import (
    SCORE_BATCH,
    ScoreMatrix,
    choice_credit,
    choice_images,
    corpus_retrieval_pools,
    item_embeddings,
    itm_accuracy,
    knn_items,
    multiple_choice_accuracy,
    read_embeddings,
    recall_at_k,
    retrieval_metrics,
    score_all,
    score_pairs,
    write_embeddings,
    zero_shot_eval,
)
from interbert.model import InterBert, ModelConfig


def toy_model(corpus, seed=0):
    cfg = ModelConfig(
        hidden_size=16, num_heads=2, ffn_size=32,
        num_interaction_layers=1, num_extraction_layers=1,
        vocab_size=corpus.vocab.size,
        object_feature_dim=corpus.pairs[0].features.shape[1],
        max_text_len=16, max_objects=8, num_object_classes=12,
    )
    return InterBert.create(cfg, seed=seed)


def pair_reference(model, tokens, image):
    """Matching logit and pooled product of one pair from its own B=1 forward."""
    with nt.no_grad():
        out = model.forward(tokens=tokens, features=image.features, bboxes=image.bboxes,
                            width=image.width, height=image.height)
        logit = model.itm_score(out.pooled_image, out.pooled_text).item()
    return logit, (out.pooled_image.values * out.pooled_text.values)[0]


def mixed_pool(num_images=SCORE_BATCH + 5):
    """More captions than the batch cap and not a multiple of it, with
    captions of several lengths and images of several object counts."""
    corpus = synth_corpus(seed=11, num_images=num_images, num_classes=6, feature_dim=8,
                          min_objects=1, max_objects=6)
    assert len(corpus.pairs) % SCORE_BATCH != 0
    assert len({p.num_tokens for p in corpus.pairs}) > 1
    assert len({p.num_objects for p in corpus.pairs}) > 1
    return corpus


def brute_force_recall(scores, gold, k):
    """Independent oracle: explicit per-row sort with index tie-breaks."""
    hits = 0
    for row, g in zip(scores, gold):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        if g in order[:k]:
            hits += 1
    return hits / len(gold)


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------

def test_recall_gold_always_highest():
    scores = np.array([[5.0, 1.0, 0.0], [9.0, 1.0, 2.0]])
    matrix = ScoreMatrix(scores=scores, gold=np.array([0, 0]))
    assert recall_at_k(matrix, 1) == 1.0


def test_recall_k_equals_pool_size():
    rng = np.random.default_rng(0)
    matrix = ScoreMatrix(scores=rng.normal(size=(6, 9)), gold=rng.integers(0, 9, size=6))
    assert recall_at_k(matrix, 9) == 1.0


def test_recall_matches_brute_force_on_random_matrices(rng):
    for _ in range(20):
        scores = rng.normal(size=(50, 50))
        gold = rng.integers(0, 50, size=50)
        matrix = ScoreMatrix(scores=scores, gold=gold)
        for k in (1, 5, 10):
            assert recall_at_k(matrix, k) == brute_force_recall(scores, gold, k)


def test_recall_tie_breaks_toward_lower_index():
    scores = np.array([[1.0, 1.0, 0.0]])
    # gold at column 0 wins the tie; gold at column 1 loses it
    assert recall_at_k(ScoreMatrix(scores=scores, gold=np.array([0])), 1) == 1.0
    assert recall_at_k(ScoreMatrix(scores=scores, gold=np.array([1])), 1) == 0.0
    assert recall_at_k(ScoreMatrix(scores=scores, gold=np.array([1])), 2) == 1.0


def test_recall_monotone_in_k(rng):
    for _ in range(10):
        matrix = ScoreMatrix(scores=rng.normal(size=(20, 15)), gold=rng.integers(0, 15, size=20))
        values = [recall_at_k(matrix, k) for k in (1, 5, 10)]
        assert values[0] <= values[1] <= values[2]


def test_recall_random_scores_expectation():
    # E[R@1] = 1/100 for random scores; 10k caption draws puts the 0.005
    # tolerance at five standard errors
    rng = np.random.default_rng(5)
    total = 0.0
    trials = 200
    for _ in range(trials):
        matrix = ScoreMatrix(scores=rng.normal(size=(50, 100)), gold=rng.integers(0, 100, size=50))
        total += recall_at_k(matrix, 1)
    assert abs(total / trials - 0.01) < 0.005


def test_adding_strictly_lower_image_never_decreases_recall(rng):
    for _ in range(10):
        scores = rng.normal(size=(12, 8))
        gold = rng.integers(0, 8, size=12)
        base = ScoreMatrix(scores=scores, gold=gold)
        worse = np.concatenate([scores, np.full((12, 1), scores.min() - 1.0)], axis=1)
        bigger = ScoreMatrix(scores=worse, gold=gold)
        for k in (1, 3, 5):
            assert recall_at_k(bigger, k) >= recall_at_k(base, k)


def test_recall_k_bounds():
    matrix = ScoreMatrix(scores=np.zeros((2, 3)), gold=np.array([0, 1]))
    with pytest.raises(ValueError):
        recall_at_k(matrix, 4)
    with pytest.raises(ValueError):
        recall_at_k(matrix, 0)


def test_retrieval_metrics_skips_oversized_k():
    matrix = ScoreMatrix(scores=np.zeros((2, 3)), gold=np.array([0, 1]))
    metrics = retrieval_metrics(matrix)
    assert set(metrics) == {1}


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_all_single_cell():
    corpus = synth_corpus(seed=1, num_images=2, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    pair = corpus.pairs[0]
    matrix = score_all(model, [(pair.tokens, 0)], [pair])
    assert matrix.scores.shape == (1, 1)


def test_score_all_column_permutation_equivariance():
    corpus = synth_corpus(seed=2, num_images=4, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    captions, images = corpus_retrieval_pools(corpus)
    base = score_all(model, captions, images)
    swapped = score_all(model, captions, [images[1], images[0]] + images[2:])
    np.testing.assert_array_equal(base.scores[:, [1, 0, 2, 3]], swapped.scores)


def test_score_pairs_matches_per_pair_forwards():
    corpus = mixed_pool()
    model = toy_model(corpus, seed=2)
    captions = [p.tokens for p in corpus.pairs][::-1]  # mismatched pairs too
    logits, products = score_pairs(model, captions, corpus.pairs)
    for tokens, image, logit, product in zip(captions, corpus.pairs, logits, products):
        want_logit, want_product = pair_reference(model, tokens, image)
        assert abs(logit - want_logit) <= 1e-12
        np.testing.assert_allclose(product, want_product, rtol=0, atol=1e-12)


def test_score_pairs_rejects_unaligned_inputs():
    corpus = synth_corpus(seed=1, num_images=2, num_classes=6, feature_dim=8)
    with pytest.raises(ValueError, match="captions"):
        score_pairs(toy_model(corpus), [corpus.pairs[0].tokens], corpus.pairs)


def forbid_forward(model, monkeypatch):
    def forward(*args, **kwargs):
        raise AssertionError("forward ran before the inputs were checked")

    monkeypatch.setattr(model, "forward", forward)


def test_evaluation_refuses_images_over_the_object_limit(monkeypatch):
    corpus = mixed_pool()
    model = toy_model(corpus)
    model.config.max_objects = 3
    first = next(p for p in corpus.pairs if p.num_objects > 3)
    forbid_forward(model, monkeypatch)
    captions, images = corpus_retrieval_pools(corpus)
    pool = [image for image in images if image.num_objects <= 3] + [first]  # only the last column is over
    with pytest.raises(CorpusError, match=f"image {first.image_id} has {first.num_objects} objects > limit 3"):
        score_all(model, captions, pool)
    for run in (zero_shot_eval, item_embeddings):
        with pytest.raises(CorpusError, match=f"image {first.image_id} "):
            run(model, corpus)


def test_evaluation_refuses_another_feature_width(monkeypatch):
    corpus = mixed_pool()
    model = toy_model(corpus)
    width = corpus.pairs[0].features.shape[1]
    model.config.object_feature_dim = width + 1
    forbid_forward(model, monkeypatch)
    captions, images = corpus_retrieval_pools(corpus)
    message = f"image {images[0].image_id} has object features of width {width}, the model takes {width + 1}"
    with pytest.raises(CorpusError, match=message):
        score_all(model, captions, images)
    for run in (zero_shot_eval, item_embeddings):
        with pytest.raises(CorpusError, match="has object features of width"):
            run(model, corpus)


def test_evaluation_refuses_captions_over_the_length_limit(monkeypatch):
    corpus = mixed_pool()
    model = toy_model(corpus)
    limit = max(p.num_tokens for p in corpus.pairs) - 1
    model.config.max_text_len = limit
    first = next(p for p in corpus.pairs if p.num_tokens > limit)
    forbid_forward(model, monkeypatch)
    for run in (zero_shot_eval, item_embeddings):
        with pytest.raises(CorpusError, match=f"caption {first.caption_id} has {first.num_tokens} tokens"):
            run(model, corpus)
    captions, images = corpus_retrieval_pools(corpus)
    position = next(i for i, (tokens, _) in enumerate(captions) if len(tokens) > limit)
    with pytest.raises(CorpusError, match=f"caption at position {position} "):
        score_all(model, captions, images)
    for accuracy in (itm_accuracy, multiple_choice_accuracy):
        with pytest.raises(CorpusError, match=f"caption {first.caption_id} "):
            accuracy(model, corpus, np.random.default_rng(0))


def test_score_all_scores_every_cell_past_the_batch_cap():
    corpus = mixed_pool()
    model = toy_model(corpus, seed=3)
    captions = [(pair.tokens, 0) for pair in corpus.pairs]
    images = [corpus.image_entry(i) for i in corpus.image_ids()[:3]]
    assert len(captions) > SCORE_BATCH
    matrix = score_all(model, captions, images)
    assert matrix.scores.shape == (len(captions), 3)
    for row, (tokens, _) in enumerate(captions):
        for col, image in enumerate(images):
            assert abs(matrix.scores[row, col] - pair_reference(model, tokens, image)[0]) <= 1e-12


def test_item_embeddings_match_per_pair_forwards():
    corpus = mixed_pool()
    model = toy_model(corpus, seed=4)
    emb = item_embeddings(model, corpus)
    for row, pair in zip(emb, corpus.pairs):
        np.testing.assert_allclose(row, pair_reference(model, pair.tokens, pair)[1], rtol=0, atol=1e-12)


def reference_itm_accuracy(model, corpus, rng, num_samples):
    """One B=1 forward per draw, in the sampling loop."""
    correct = 0
    for i in range(num_samples):
        pair = corpus.pairs[int(rng.integers(0, len(corpus.pairs)))]
        tokens = pair.tokens
        if i % 2 == 0:
            others = corpus.other_caption_ids(pair.image_id)
            tokens = corpus.pair_by_caption(int(others[int(rng.integers(0, others.size))])).tokens
        correct += (pair_reference(model, tokens, pair)[0] > 0.0) == (i % 2 == 1)
    return correct / num_samples


def reference_choice_accuracy(model, corpus, rng, num_examples, num_distractors=3):
    image_index = np.array(corpus.image_ids())
    credit = 0.0
    for _ in range(num_examples):
        pair = corpus.pairs[int(rng.integers(0, len(corpus.pairs)))]
        distractors = rng.choice(image_index[image_index != pair.image_id], size=num_distractors, replace=False)
        logits = [pair_reference(model, pair.tokens, corpus.image_entry(int(i)))[0]
                  for i in (pair.image_id, *distractors.tolist())]
        credit += float(choice_credit(logits)[0])
    return credit / num_examples


def test_accuracies_match_per_pair_forwards_and_repeat():
    corpus = mixed_pool()
    model = toy_model(corpus, seed=5)
    itm = itm_accuracy(model, corpus, np.random.default_rng(7), num_samples=37)
    assert abs(itm - reference_itm_accuracy(model, corpus, np.random.default_rng(7), 37)) <= 1e-12
    assert itm_accuracy(model, corpus, np.random.default_rng(7), num_samples=37) == itm
    choice = multiple_choice_accuracy(model, corpus, np.random.default_rng(8), num_examples=9)
    assert abs(choice - reference_choice_accuracy(model, corpus, np.random.default_rng(8), 9)) <= 1e-12
    assert multiple_choice_accuracy(model, corpus, np.random.default_rng(8), num_examples=9) == choice


def test_choice_images_puts_gold_first_and_draws_distinct_others():
    corpus = synth_corpus(seed=7, num_images=9, num_classes=6, feature_dim=8)
    image_index = np.array(corpus.image_ids())
    rng = np.random.default_rng(0)
    for gold in corpus.image_ids():
        ids = [entry.image_id for entry in choice_images(corpus, image_index, gold, rng, 3)]
        assert ids[0] == gold
        assert len(set(ids)) == 4


def test_score_all_deterministic():
    corpus = synth_corpus(seed=3, num_images=3, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    captions, images = corpus_retrieval_pools(corpus)
    a = score_all(model, captions, images)
    b = score_all(model, captions, images)
    assert np.array_equal(a.scores, b.scores)


def test_zero_shot_eval_chance_level_for_random_model():
    corpus = synth_corpus(seed=4, num_images=20, num_classes=6, feature_dim=8)
    model = toy_model(corpus, seed=9)
    report = zero_shot_eval(model, corpus, ks=(1, 5, 10))
    assert report["num_images"] == 20
    assert report["num_captions"] == 20
    assert 0.0 <= report["recall"][1] <= 0.35  # chance is 0.05
    assert report["recall"][1] <= report["recall"][5] <= report["recall"][10]


def test_itm_and_choice_accuracy_near_chance_for_random_model():
    corpus = synth_corpus(seed=5, num_images=12, num_classes=6, feature_dim=8)
    model = toy_model(corpus, seed=4)
    rng = np.random.default_rng(0)
    acc = multiple_choice_accuracy(model, corpus, rng, num_examples=200)
    assert 0.05 < acc < 0.55  # chance 0.25
    acc_itm = itm_accuracy(model, corpus, np.random.default_rng(1), num_samples=100)
    assert 0.2 < acc_itm < 0.8


# ---------------------------------------------------------------------------
# nearest neighbours
# ---------------------------------------------------------------------------

def test_knn_duplicate_of_trigger_ranks_first(rng):
    base = rng.normal(size=(10, 6))
    base[7] = base[2] * 2.0  # same direction, cosine 1
    neighbours = knn_items(base, trigger_id=2, k=3)
    assert neighbours[0] == 7


def test_knn_two_item_pool():
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert knn_items(emb, trigger_id=0, k=1) == [1]


def test_knn_matches_brute_force_oracle(rng):
    emb = rng.normal(size=(20, 8))
    sims = emb @ emb.T / (np.linalg.norm(emb, axis=1)[:, None] * np.linalg.norm(emb, axis=1)[None, :])
    for trigger in range(20):
        order = sorted((i for i in range(20) if i != trigger),
                       key=lambda i: (-sims[trigger, i], i))
        assert knn_items(emb, trigger, 5) == order[:5]


def test_knn_bounds():
    emb = np.zeros((4, 3))
    with pytest.raises(ValueError):
        knn_items(emb, trigger_id=4, k=1)
    with pytest.raises(ValueError):
        knn_items(emb, trigger_id=0, k=4)


def test_embeddings_file_round_trip(tmp_path, rng):
    matrix = rng.normal(size=(7, 5))
    path = tmp_path / "items.bin"
    write_embeddings(path, matrix)
    np.testing.assert_array_equal(read_embeddings(path), matrix)
    with pytest.raises(ValueError):
        path.write_bytes(path.read_bytes()[:-3])
        read_embeddings(path)


def test_item_embeddings_shape():
    corpus = synth_corpus(seed=6, num_images=4, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    emb = item_embeddings(model, corpus)
    assert emb.shape == (len(corpus.pairs), model.config.hidden_size)


def test_choice_credit_splits_ties():
    logits = np.array([[2.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [3.0, 3.0, 3.0, 3.0]])
    np.testing.assert_array_equal(choice_credit(logits), [1.0, 0.5, 0.0, 0.25])


def test_choice_credit_of_non_finite_row_is_nan_without_a_warning():
    finite = np.array([[2.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [3.0, 3.0, 3.0, 3.0]])
    logits = np.insert(finite, [1, 3], [[np.nan, 1.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0]], axis=0)
    with np.errstate(all="raise"):
        credit = choice_credit(logits)
    np.testing.assert_array_equal(credit, [1.0, np.nan, 0.5, 0.0, np.nan, 0.25])
    np.testing.assert_array_equal(credit[np.isfinite(credit)], choice_credit(finite))


def test_multiple_choice_accuracy_of_constant_scorer_is_chance():
    corpus = synth_corpus(seed=6, num_images=8)
    model = toy_model(corpus)
    model.params["heads.itm.w2"].values[:] = 0.0  # every logit equals the output bias
    assert multiple_choice_accuracy(model, corpus, np.random.default_rng(0), num_examples=12) == 0.25

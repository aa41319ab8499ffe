"""Recall metrics against brute-force oracles, scoring behaviour, and the
nearest-neighbour lookup."""

import errno
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from interbert import evaluation
from interbert import numerics as nt
from interbert.data import CorpusError, make_batch, synth_corpus
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


def record_batch_sizes(model, monkeypatch) -> list[int]:
    """Pairs per ``model.forward`` call, in call order; forwards still run."""
    sizes, forward = [], model.forward

    def recorded(*args, batch, **kwargs):
        sizes.append(len(batch))
        return forward(*args, batch=batch, **kwargs)

    monkeypatch.setattr(model, "forward", recorded)
    return sizes


def test_score_pairs_runs_the_fewest_batches_of_near_equal_size(monkeypatch):
    corpus = synth_corpus(seed=3, num_images=6, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    sizes = record_batch_sizes(model, monkeypatch)
    monkeypatch.setattr(evaluation, "score_workers", lambda: 1)  # forwards in the caller, where they are counted
    assert 25 <= SCORE_BATCH < 50
    for n in (50, SCORE_BATCH + 1, SCORE_BATCH, 3 * SCORE_BATCH - 1, 1):
        sizes.clear()
        pairs = [corpus.pairs[i % len(corpus.pairs)] for i in range(n)]
        logits, products = score_pairs(model, [p.tokens for p in pairs], pairs)
        assert logits.shape == (n,) and products.shape == (n, model.config.hidden_size)
        assert len(sizes) == -(-n // SCORE_BATCH) and sum(sizes) == n, (n, sizes)
        assert max(sizes) <= SCORE_BATCH and max(sizes) - min(sizes) <= 1, (n, sizes)
        if n == 50:
            assert sizes == [25, 25]
    sizes.clear()
    logits, products = score_pairs(model, [], [])
    assert sizes == [] and logits.shape == (0,) and products.shape == (0, model.config.hidden_size)


def test_score_all_runs_two_forwards_per_column_of_fifty_captions(monkeypatch):
    corpus = synth_corpus(seed=4, num_images=50, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    captions, images = corpus_retrieval_pools(corpus)
    assert (len(captions), len(images)) == (50, 50)
    sizes = record_batch_sizes(model, monkeypatch)
    monkeypatch.setattr(evaluation, "score_workers", lambda: 1)  # forwards in the caller, where they are counted
    score_all(model, captions, images)
    assert sizes == [25, 25] * 50


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


# ---------------------------------------------------------------------------
# concurrent batches
# ---------------------------------------------------------------------------

def serial_plan_scores(model, captions, images):
    """Logits and pooled products from a plain loop of ``model.forward`` over
    the batch plan scoring uses: the fewest runs of at most SCORE_BATCH pairs,
    in order, their sizes at most one apart."""
    n = len(captions)
    count = -(-n // SCORE_BATCH)
    logits, products = [np.empty(0)], [np.empty((0, model.config.hidden_size))]
    with nt.no_grad():
        for i in range(count):
            rows = slice(i * n // count, (i + 1) * n // count)
            batch = make_batch([replace(image, tokens=tokens) for tokens, image in zip(captions[rows], images[rows])])
            out = model.forward(batch=batch, image_rows=[], text_rows=[])
            logits.append(model.itm_score(out.pooled_image, out.pooled_text).values[:, 0])
            products.append(out.pooled_image.values * out.pooled_text.values)
    return np.concatenate(logits), np.concatenate(products)


WORKERS = (1, 4, None)  # inline; more processes than most test hosts have CPUs; the default (CPU affinity)


def at_workers(monkeypatch, workers, run):
    """``run()`` with scoring held to ``workers`` processes (None: the default)."""
    with monkeypatch.context() as patch:
        if workers is not None:
            patch.setattr(evaluation, "score_workers", lambda: workers)
        return run()


@pytest.mark.parametrize("num_images", [50, 33])
def test_score_all_gives_the_same_bytes_at_every_worker_count(monkeypatch, num_images):
    corpus = mixed_pool(num_images) if num_images % SCORE_BATCH else synth_corpus(seed=4, num_images=num_images)
    model = toy_model(corpus, seed=6)
    captions, images = corpus_retrieval_pools(corpus)
    tokens = [caption for caption, _ in captions]
    want = np.column_stack([serial_plan_scores(model, tokens, [image] * len(tokens))[0] for image in images])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will, so a misplaced write shows
    try:
        for workers in WORKERS:
            got = at_workers(monkeypatch, workers, lambda: score_all(model, captions, images))
            assert got.scores.tobytes() == want.tobytes(), workers
    finally:
        sys.setswitchinterval(interval)


def test_score_pairs_gives_the_same_bytes_at_every_worker_count(monkeypatch):
    corpus = mixed_pool()
    model = toy_model(corpus, seed=7)
    for n in (0, 1, 33):
        pairs = [corpus.pairs[(5 * i) % len(corpus.pairs)] for i in range(n)]
        captions = [corpus.pairs[i % len(corpus.pairs)].tokens for i in range(n)]
        want = serial_plan_scores(model, captions, pairs)
        for workers in WORKERS:
            got = at_workers(monkeypatch, workers, lambda: score_pairs(model, captions, pairs))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], (n, workers)


def test_embeddings_and_accuracies_give_the_same_bytes_at_every_worker_count(monkeypatch):
    corpus = mixed_pool()
    model = toy_model(corpus, seed=8)
    want = serial_plan_scores(model, [pair.tokens for pair in corpus.pairs], corpus.pairs)[1].tobytes()
    seen = set()
    for workers in WORKERS:
        assert at_workers(monkeypatch, workers, lambda: item_embeddings(model, corpus)).tobytes() == want
        seen.add(at_workers(monkeypatch, workers, lambda: (
            itm_accuracy(model, corpus, np.random.default_rng(7), num_samples=37).hex(),
            multiple_choice_accuracy(model, corpus, np.random.default_rng(8), num_examples=9).hex())))
    assert len(seen) == 1


class BatchFailed(RuntimeError):
    pass


def test_scoring_threads_end_with_the_call_and_a_failing_batch_reaches_the_caller_unchanged(monkeypatch):
    corpus = synth_corpus(seed=4, num_images=50, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    captions, images = corpus_retrieval_pools(corpus)
    monkeypatch.setattr(evaluation, "score_workers", lambda: 2)
    before = threading.active_count()
    score_all(model, captions, images)
    assert threading.active_count() == before and no_child_left()

    calls, lock, forward = [], threading.Lock(), model.forward

    def fails_on_its_third_call(*args, **kwargs):
        with lock:
            calls.append(len(calls) + 1)
            call = calls[-1]
        if call == 3:
            raise BatchFailed("batch of call 3 failed")
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", fails_on_its_third_call)
    with pytest.warns(UserWarning, match=r"^worker 1 \(pid \d+\) was lost with exit status 1; its tasks now run in "
                                         r"the caller$"), pytest.raises(BatchFailed) as failure:
        score_all(model, captions, images)
    assert type(failure.value) is BatchFailed and str(failure.value) == "batch of call 3 failed"
    assert threading.active_count() == before and no_child_left()
    assert len(calls) < 100  # the batches not started by the failure are cancelled

    model.config.max_text_len = max(len(tokens) for tokens, _ in captions) - 1
    forbid_forward(model, monkeypatch)
    with pytest.raises(CorpusError, match="caption at position"):
        score_all(model, captions, images)
    with pytest.raises(CorpusError, match="caption at position"):
        score_pairs(model, [tokens for tokens, _ in captions], images)
    model.config.max_text_len, model.config.max_objects = 16, 1
    with pytest.raises(CorpusError, match="objects > limit 1"):
        score_all(model, captions, images)
    assert threading.active_count() == before


def no_child_left() -> bool:
    """Whether this process has no child at all, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forked(monkeypatch):
    """The pids ``os.fork`` returns to this process from now on, in fork order."""
    fork, pids = os.fork, []

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


@pytest.mark.parametrize("num_batches", [9, 5, 3])
def test_each_child_runs_one_contiguous_share_of_at_least_two_batches(monkeypatch, tmp_path, forked, num_batches):
    corpus = synth_corpus(seed=3, num_images=6, num_classes=6, feature_dim=8)
    model = toy_model(corpus)
    n = num_batches * SCORE_BATCH
    pairs = [replace(corpus.pairs[i % len(corpus.pairs)], caption_id=i) for i in range(n)]
    captions = [pair.tokens for pair in pairs]
    log, make = tmp_path / "batches", evaluation.make_batch

    def logged_make_batch(samples):
        with open(log, "a") as fh:  # one short appended line a batch, from the process that runs it
            fh.write(f"{os.getpid()} {samples[0].caption_id}\n")
        return make(samples)

    monkeypatch.setattr(evaluation, "make_batch", logged_make_batch)

    def batch_starts_by_process(workers):
        log.write_text("")
        forked.clear()
        got = at_workers(monkeypatch, workers, lambda: score_pairs(model, captions, pairs))
        starts = {}
        for line in log.read_text().splitlines():
            pid, start = map(int, line.split())
            starts.setdefault(pid, []).append(start)
        return got, starts

    want, starts = batch_starts_by_process(1)
    plan = starts.pop(os.getpid())
    assert starts == {} and forked == [] and len(plan) == num_batches
    for workers in (2, 3, 4):
        got, starts = batch_starts_by_process(workers)
        if num_batches < 4:  # a child would get fewer than two: every batch runs in the caller
            assert forked == [] and starts == {os.getpid(): plan}
        else:
            shares = [starts.pop(pid) for pid in forked]  # in fork order
            assert starts == {}, workers  # the caller ran no batch
            assert len(shares) == min(workers, num_batches // 2), (workers, shares)
            assert min(map(len, shares)) >= 2 and sum(shares, []) == plan, (workers, shares)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want] and no_child_left()


@pytest.fixture
def forked_pool(monkeypatch, forked):
    """A model, a pool of at least four batches, the serial loop's score bytes
    and the pids forked, scoring held to two workers."""
    corpus = synth_corpus(seed=4, num_images=12, num_classes=6, feature_dim=8)
    model = toy_model(corpus, seed=5)
    captions, images = corpus_retrieval_pools(corpus)
    tokens = [caption for caption, _ in captions]
    want = np.column_stack([serial_plan_scores(model, tokens, [image] * len(tokens))[0] for image in images])
    monkeypatch.setattr(evaluation, "score_workers", lambda: 2)
    return model, captions, images, want.tobytes(), forked


def warned(run) -> list[tuple]:
    """Each warning ``run()`` gives, as (category, message)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [(w.category, str(w.message)) for w in caught]


def test_a_scoring_call_reaps_every_child_it_forks(forked_pool):
    model, captions, images, want, forked = forked_pool
    scores = []
    assert warned(lambda: scores.append(score_all(model, captions, images).scores.tobytes())) == []
    assert scores == [want] and len(forked) == 2 and no_child_left()


def test_the_share_of_a_killed_child_runs_again_in_the_caller(forked_pool, monkeypatch):
    model, captions, images, want, forked = forked_pool
    parent, forward = os.getpid(), model.forward

    def first_child_dies(*args, **kwargs):
        if os.getpid() != parent and not forked:  # the first child forked before any pid was recorded
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", first_child_dies)
    scores = []
    assert warned(lambda: scores.append(score_all(model, captions, images).scores.tobytes())) == [
        (UserWarning, f"worker 1 (pid {forked[0]}) was lost with exit status -9; its tasks now run in the caller")]
    assert scores == [want] and len(forked) == 2 and no_child_left()


def test_a_failed_fork_runs_its_share_inline(forked_pool, monkeypatch):
    model, captions, images, want, _ = forked_pool

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    assert score_all(model, captions, images).scores.tobytes() == want and no_child_left()


def test_scoring_runs_inline_without_fork(forked_pool, monkeypatch):
    model, captions, images, want, _ = forked_pool
    monkeypatch.delattr(os, "fork")
    assert score_all(model, captions, images).scores.tobytes() == want and no_child_left()


def test_scoring_never_forks_beside_a_second_live_thread(forked_pool, monkeypatch):
    model, captions, images, want, _ = forked_pool

    def forbidden():
        pytest.fail("forked while a second thread was alive")

    monkeypatch.setattr(os, "fork", forbidden)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert score_all(model, captions, images).scores.tobytes() == want and no_child_left()
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def test_an_interrupted_caller_kills_and_reaps_its_children(forked_pool, monkeypatch):
    model, captions, images, _, forked = forked_pool
    waitpid, waited = os.waitpid, []

    def interrupted_once(pid, options):
        if not waited:
            waited.append(pid)
            raise KeyboardInterrupt
        return waitpid(pid, options)

    with monkeypatch.context() as patch:
        patch.setattr(os, "waitpid", interrupted_once)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(KeyboardInterrupt):
            warnings.simplefilter("always")
            score_all(model, captions, images)
    assert caught == []  # killing the children on the way out loses no work
    assert len(forked) == 2 and waited == forked[:1] and no_child_left()


FAULT_SCRIPT = """
import resource
from interbert.data import synth_corpus
from interbert.evaluation import corpus_retrieval_pools, score_all
from interbert.model import InterBert, ModelConfig

corpus = synth_corpus(seed=0, num_images=16)
model = InterBert.create(ModelConfig(
    vocab_size=corpus.vocab.size, hidden_size=96, num_heads=4, ffn_size=192, num_interaction_layers=3,
    num_extraction_layers=1, object_feature_dim=16, max_text_len=16, max_objects=8, num_object_classes=12))
captions, images = corpus_retrieval_pools(corpus)
score_all(model, captions, images)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
score_all(model, captions, images)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(nt.MALLOC_SETTINGS is None, reason="libc has no mallopt")
def test_a_second_scoring_pass_keeps_its_heap_resident():
    """The allocator thresholds set at import keep the first pass's freed heap
    mapped, so a model built without a checkpoint scores a second time with
    almost no page faults (glibc's defaults fault in some 17,000 here)."""
    env = {**os.environ, "PYTHONPATH": str(Path(nt.__file__).parents[2])}
    done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env, capture_output=True, text=True, check=True)
    assert int(done.stdout) < 500

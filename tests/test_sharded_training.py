"""Training steps cut into shards: the arithmetic of the loss scaling and the
gradient sum, byte identity at every worker count, and the lifecycle of the
forked workers that run the shards."""

import errno
import hashlib
import os
import signal
import threading
import warnings
from contextlib import contextmanager
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

import interbert.numerics as nt
from interbert.data import synth_corpus
from interbert.masking import MaskingConfig, mask_pair
from interbert.model import InterBert, ModelConfig
from interbert.negatives import build_hard_negative_table, build_tfidf, make_itm_batch
from interbert.numerics import finite_diff_check
from interbert.training import TrainConfig, TrainingDiverged, finetune_retrieval, pretrain, total_loss
from interbert.training import loop
from interbert.training.loop import _batch_losses, _target_counts
from interbert.training.optim import AdamWState, adamw_step, ema_update
from interbert.workers import _even_slices


@pytest.fixture(scope="module")
def fixture():
    corpus = synth_corpus(seed=12, num_images=20, num_classes=6, feature_dim=8)
    table = build_hard_negative_table(build_tfidf(corpus))
    model_cfg = ModelConfig(hidden_size=16, num_heads=2, ffn_size=32, num_interaction_layers=1,
                            num_extraction_layers=1, vocab_size=corpus.vocab.size, object_feature_dim=8,
                            max_text_len=16, max_objects=8, num_object_classes=12)
    return corpus, table, model_cfg


@pytest.fixture(autouse=True)
def leaves_no_child_and_the_cpu_mask():
    """Every training call here reaps its workers and gives back the CPU mask it pinned."""
    mask = os.sched_getaffinity(0)
    yield
    assert no_child_left() and os.sched_getaffinity(0) == mask


PRETRAIN = dict(total_steps=4, warmup_steps=1, batch_size=10, learning_rate=2e-3, beta2=0.999, seed=3)
FINETUNE = dict(total_steps=3, warmup_steps=1, batch_size=6, learning_rate=5e-4, beta2=0.999, seed=4)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for name, values in arrays:
        h.update(name.encode() + values.dtype.str.encode() + values.tobytes())
    return h.hexdigest()


def run_pretrain(fixture, **train):
    corpus, table, model_cfg = fixture
    result = pretrain(corpus, table, model_cfg, TrainConfig(**{**PRETRAIN, **train}))
    return digest((n, p.values) for n, p in result.model.params.items()), result.metrics


def run_finetune(fixture, **train):
    corpus, table, model_cfg = fixture
    start = InterBert.create(model_cfg, seed=5).params.clone_values()
    result = finetune_retrieval(corpus, model_cfg, TrainConfig(**{**FINETUNE, **train}), start)
    return (digest((n, p.values) for n, p in result.model.params.items()), digest(result.ema_values.items()),
            result.metrics)


def at_workers(monkeypatch, workers):
    """Hold training to ``workers`` processes, whatever the host has."""
    monkeypatch.setattr(loop, "score_workers", lambda: workers)


# ---------------------------------------------------------------------------
# one shard is the serial step, bit for bit
# ---------------------------------------------------------------------------

def serial_pretrain(fixture, cfg):
    """The unsharded step: one forward and backward of the whole batch, then
    AdamW, from the same generator draws, as the loop ran before shards."""
    corpus, table, model_cfg = fixture
    model = InterBert.create(model_cfg, seed=cfg.seed, dtype=cfg.dtype)
    rng, state, rows = np.random.default_rng(cfg.seed), AdamWState.for_params(model.params), []
    for step in range(1, cfg.total_steps + 1):
        batch = make_itm_batch(corpus, table, rng, cfg.batch_size, cfg.masking, cfg.hard_negative_prob)
        l_msm, l_mrm, l_itm, correct = _batch_losses(model, batch, cfg)
        loss = total_loss(l_msm, l_mrm, l_itm)
        model.params.zero_grad()
        nt.backward(loss, model.params)
        lr = loop.lr_at(step, cfg.learning_rate, cfg.warmup_steps, cfg.total_steps)
        adamw_step(model.params, state, lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
                   weight_decay=cfg.weight_decay)
        rows.append(loop.StepMetrics(step, lr, l_msm.item(), l_mrm.item(), l_itm.item(), loss.item(),
                                     correct / cfg.batch_size))
    return digest((n, p.values) for n, p in model.params.items()), rows


def serial_finetune(fixture, cfg):
    corpus, _, model_cfg = fixture
    start = InterBert.create(model_cfg, seed=5).params.clone_values()
    model = InterBert.from_values(model_cfg, {n: np.array(v, dtype=cfg.dtype) for n, v in start.items()})
    shadow = model.params.clone_values()
    rng, state, rows = np.random.default_rng(cfg.seed), AdamWState.for_params(model.params), []
    image_index = np.array(corpus.image_ids())
    for step in range(1, cfg.total_steps + 1):
        items = []
        for pick in rng.integers(0, len(corpus.pairs), size=cfg.batch_size):
            pair = corpus.pairs[int(pick)]
            items += [replace(entry, caption_id=pair.caption_id, tokens=pair.tokens) for entry in
                      loop.choice_images(corpus, image_index, pair.image_id, rng, cfg.num_distractors)]
        out = model.forward(batch=loop.make_batch(items, **model_cfg.limits), image_rows=[], text_rows=[])
        stacked = nt.reshape(model.itm_score(out.pooled_image, out.pooled_text),
                             (cfg.batch_size, 1 + cfg.num_distractors))
        loss = nt.cross_entropy_logits(stacked, np.zeros(cfg.batch_size, dtype=np.int64))
        model.params.zero_grad()
        nt.backward(loss, model.params)
        lr = loop.lr_at(step, cfg.learning_rate, cfg.warmup_steps, cfg.total_steps)
        adamw_step(model.params, state, lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps,
                   weight_decay=cfg.weight_decay)
        ema_update(shadow, model.params, cfg.ema_rate)
        credit = float(np.mean(loop.choice_credit(stacked.values)))
        rows.append(loop.FinetuneMetrics(step, lr, loss.item(), credit))
    return digest((n, p.values) for n, p in model.params.items()), digest(shadow.items()), rows


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_one_shard_is_the_serial_step_bit_for_bit(fixture, tmp_path, precision):
    cfg = TrainConfig(**PRETRAIN, shards=1, precision=precision)
    params, rows = run_pretrain(fixture, shards=1, precision=precision)
    assert (params, rows) == serial_pretrain(fixture, cfg)
    want_csv, got_csv = tmp_path / "want.csv", tmp_path / "got.csv"
    loop.write_metrics_csv(want_csv, serial_pretrain(fixture, cfg)[1])
    loop.write_metrics_csv(got_csv, rows)
    assert got_csv.read_bytes() == want_csv.read_bytes()
    fine = TrainConfig(**FINETUNE, shards=1, precision=precision)
    assert run_finetune(fixture, shards=1, precision=precision) == serial_finetune(fixture, fine)


# ---------------------------------------------------------------------------
# the shards' arithmetic does not depend on the process that runs them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("precision, itm_on_masked", [("float64", True), ("float64", False),
                                                       ("float32", True), ("float32", False)])
def test_two_shards_give_the_same_bytes_at_one_and_two_workers(fixture, monkeypatch, precision, itm_on_masked):
    got = []
    for workers in (1, 2):
        at_workers(monkeypatch, workers)
        got.append(run_pretrain(fixture, shards=2, precision=precision, itm_on_masked=itm_on_masked))
    assert got[0] == got[1]
    assert got[0] != run_pretrain(fixture, shards=1, precision=precision, itm_on_masked=itm_on_masked)


@pytest.mark.parametrize("shards", [2, 3])
def test_finetune_shards_give_the_same_bytes_at_every_worker_count(fixture, monkeypatch, shards):
    got = []
    for workers in (1, 2, 3):
        at_workers(monkeypatch, workers)
        got.append(run_finetune(fixture, shards=shards))
    assert got[0] == got[1] == got[2]


def test_the_default_is_two_shards_on_every_usable_cpu(fixture, monkeypatch):
    assert TrainConfig().shards == 2
    at_workers(monkeypatch, 1)
    assert run_pretrain(fixture) == run_pretrain(fixture, shards=2)
    with pytest.raises(ValueError, match="shards must lie in"):
        TrainConfig(batch_size=4, shards=5).validate()
    with pytest.raises(ValueError, match="shards must lie in"):
        TrainConfig(shards=0).validate()


# ---------------------------------------------------------------------------
# sharded losses and gradients against the whole batch
# ---------------------------------------------------------------------------

def ragged_batch(anchor_prob=0.5):
    """A tiny model and a batch of positives and negatives with unequal object
    and token counts, every loss non-zero."""
    corpus = synth_corpus(seed=5, num_images=8, num_classes=6, feature_dim=8, min_objects=2, max_objects=5)
    model_cfg = ModelConfig(hidden_size=8, num_heads=2, ffn_size=16, num_interaction_layers=2,
                            num_extraction_layers=1, vocab_size=corpus.vocab.size, object_feature_dim=8,
                            max_text_len=16, max_objects=8, num_object_classes=6, init_std=0.5)
    model = InterBert.create(model_cfg, seed=7)
    gen, mask_cfg, pairs = np.random.default_rng(3), MaskingConfig(anchor_prob=anchor_prob), corpus.pairs
    batch = [mask_pair(pairs[i], corpus.vocab, gen, mask_cfg) for i in range(4)]
    batch += [mask_pair(pairs[i], corpus.vocab, gen, mask_cfg, itm_label=0,
                        tokens_override=pairs[(i + 3) % len(pairs)].tokens) for i in range(4, 7)]
    return model, batch


def shard_losses(model, batch, cfg, shards):
    """Each shard's three scaled losses, in shard order."""
    totals = _target_counts(batch, cfg)
    return [_batch_losses(model, batch[rows], cfg, totals)[:3] for rows in _even_slices(len(batch), shards)]


def gradient(model, loss) -> np.ndarray:
    model.params.zero_grad()
    nt.backward(loss, model.params)
    return np.concatenate([p.grad.ravel() for _, p in model.params.items()])


@pytest.mark.parametrize("shards", [2, 3, 7])
def test_sharded_losses_and_gradients_match_the_whole_batch(shards):
    model, batch = ragged_batch()
    cfg = TrainConfig()
    whole = _batch_losses(model, batch, cfg)[:3]
    parts = shard_losses(model, batch, cfg, shards)
    want = [loss.item() for loss in whole]
    got = [sum(part[i].item() for part in parts) for i in range(3)]
    assert min(want) > 0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    serial = gradient(model, total_loss(*whole))
    summed = reduce(np.add, [gradient(model, total_loss(*part)) for part in parts])
    # summing per-shard products reorders float additions: measured up to 4e-16 of the norm
    assert np.linalg.norm(summed - serial) <= 1e-13 * np.linalg.norm(serial)


def test_a_shard_without_masked_targets_adds_nothing_to_their_losses():
    model, batch = ragged_batch()
    cfg = TrainConfig()
    negatives = batch[4:]  # MGM targets of negatives are ignored: their shard's MSM and MRM are exactly zero
    l_msm, l_mrm, l_itm, _ = _batch_losses(model, negatives, cfg, _target_counts(batch, cfg))
    assert l_msm.item() == 0.0 and l_mrm.item() == 0.0 and l_itm.item() > 0
    assert _target_counts(negatives, cfg)[:2] == (0, 0) and _target_counts(negatives, cfg)[2] == 3


def test_finite_differences_pass_through_the_summed_shard_losses():
    model, batch = ragged_batch()
    cfg = TrainConfig()

    def loss_fn():
        return reduce(nt.add, [total_loss(*part) for part in shard_losses(model, batch, cfg, 3)])

    err = finite_diff_check(loss_fn, model.params, step=1e-5, sample_count=200, seed=11)
    assert err < 1e-4, f"sharded training loss gradient mismatch: {err}"


def count_tape_nodes(loss) -> int:
    seen, stack = set(), [loss._node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_tape_nodes_per_shard_stay_at_the_benchmark_counts(monkeypatch):
    """191 a pretraining shard and 175 a finetuning shard at the benchmark's
    pinned network: the loss scaling adds no node."""
    corpus = synth_corpus(seed=0, num_images=30, noise_std=0.1)
    model_cfg = ModelConfig(vocab_size=corpus.vocab.size, hidden_size=96, num_heads=4, ffn_size=192,
                            num_interaction_layers=3, num_extraction_layers=1, object_feature_dim=16,
                            max_text_len=16, max_objects=8, num_object_classes=12)
    counts, backward = [], nt.backward

    def counted(loss, params=None):
        counts.append(count_tape_nodes(loss))
        return backward(loss, params)

    at_workers(monkeypatch, 1)  # every shard's backward in this process, where it is counted
    monkeypatch.setattr(nt, "backward", counted)
    table = build_hard_negative_table(build_tfidf(corpus))
    pretrain(corpus, table, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=8))
    assert counts == [191] * 4
    counts.clear()
    finetune_retrieval(corpus, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=4),
                       InterBert.create(model_cfg).params.clone_values())
    assert counts == [175] * 4


# ---------------------------------------------------------------------------
# each range's summed gradient is checked before its update, and every
# range's before the commit
# ---------------------------------------------------------------------------

def record_updates(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(loop, "adamw_range", lambda *args, **kwargs: calls.append("adamw"))
    monkeypatch.setattr(loop, "ema_range", lambda *args: calls.append("ema"))
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_a_non_finite_gradient_names_its_step_and_first_shard_before_any_update(fixture, monkeypatch, workers):
    calls, steps, backward, parent = record_updates(monkeypatch), [], nt.backward, os.getpid()
    shard_calls, mask = [], os.sched_getaffinity(0)

    def poisons_shard_one_of_step_two(loss, params=None):
        backward(loss, params)
        shard_calls.append(1)
        # inline, the caller runs shard 0 then shard 1; forked, the child runs shard 1
        if (len(shard_calls) == 4) if workers == 1 else (os.getpid() != parent and len(shard_calls) == 2):
            next(iter(params.items()))[1].grad.flat[0] = np.inf

    at_workers(monkeypatch, workers)
    monkeypatch.setattr(nt, "backward", poisons_shard_one_of_step_two)
    with pytest.raises(TrainingDiverged, match="non-finite gradient norm at step 2, first non-finite in shard 1$"):
        finetune_retrieval(fixture[0], fixture[2], TrainConfig(**FINETUNE, shards=2),
                           InterBert.create(fixture[2], seed=5).params.clone_values(), step_callback=steps.append)
    assert calls == ["adamw", "ema"] and [row.step for row in steps] == [1]
    assert no_child_left() and os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_that_diverges_leaves_the_model_at_its_last_committed_values(fixture, monkeypatch, workers):
    """Step 2's gradient goes non-finite: the model holds step 1's values, so
    no update of step 2 reached the bank the model reads."""
    start, models, committed = InterBert.create(fixture[2], seed=5).params.clone_values(), [], []
    backward, parent, shard_calls, from_values = nt.backward, os.getpid(), [], InterBert.from_values

    def kept(*args, **kwargs):
        models.append(from_values(*args, **kwargs))
        return models[-1]

    def poisons_shard_one_of_step_two(loss, params=None):
        backward(loss, params)
        shard_calls.append(1)
        if (len(shard_calls) == 4) if workers == 1 else (os.getpid() != parent and len(shard_calls) == 2):
            next(iter(params.items()))[1].grad.flat[0] = np.inf

    at_workers(monkeypatch, workers)
    monkeypatch.setattr(InterBert, "from_values", kept)
    monkeypatch.setattr(nt, "backward", poisons_shard_one_of_step_two)
    with pytest.raises(TrainingDiverged, match="non-finite gradient norm at step 2, first non-finite in shard 1$"):
        finetune_retrieval(fixture[0], fixture[2], TrainConfig(**FINETUNE, shards=2), start,
                           step_callback=lambda row: committed.append(digest(models[0].params.clone_values().items())))
    assert len(models) == 1 and len(committed) == 1
    assert digest(models[0].params.clone_values().items()) == committed[0]
    assert digest(models[0].params.clone_values().items()) != digest(start.items())


@pytest.mark.parametrize("workers", [1, 2])
def test_a_non_finite_gradient_in_the_childs_range_leaves_the_model_at_step_one_without_a_warning(
        fixture, monkeypatch, tmp_path, workers):
    """Step 2's last gradient element goes non-finite in shard 1. At two
    workers it lies in the child's range, so the caller's finite range is
    updated into the bank that is never committed; the run still stops at
    step 1's values, and no process updates a range holding that element."""
    start, models, committed = InterBert.create(fixture[2], seed=5).params.clone_values(), [], []
    backward, parent, shard_calls, from_values = nt.backward, os.getpid(), [], InterBert.from_values
    adamw_range, seen = loop.adamw_range, tmp_path / "a non-finite range was updated"

    def checked(src, dst, grad, span, *args, **kwargs):
        if not np.isfinite(grad[span]).all():
            seen.touch()  # a file, so a note made in the child reaches the caller
        adamw_range(src, dst, grad, span, *args, **kwargs)

    def kept(*args, **kwargs):
        models.append(from_values(*args, **kwargs))
        return models[-1]

    def poisons_the_last_element_in_shard_one_of_step_two(loss, params=None):
        backward(loss, params)
        shard_calls.append(1)
        if (len(shard_calls) == 4) if workers == 1 else (os.getpid() != parent and len(shard_calls) == 2):
            list(params.items())[-1][1].grad.flat[-1] = np.inf

    at_workers(monkeypatch, workers)
    monkeypatch.setattr(InterBert, "from_values", kept)
    monkeypatch.setattr(nt, "backward", poisons_the_last_element_in_shard_one_of_step_two)
    monkeypatch.setattr(loop, "adamw_range", checked)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDiverged, match="non-finite gradient norm at step 2, first non-finite in shard 1$"):
            finetune_retrieval(fixture[0], fixture[2], TrainConfig(**FINETUNE, shards=2), start,
                               step_callback=lambda row: committed.append(
                                   digest(models[0].params.clone_values().items())))
    assert not seen.exists() and len(models) == 1 and len(committed) == 1
    assert digest(models[0].params.clone_values().items()) == committed[0]
    assert digest(models[0].params.clone_values().items()) != digest(start.items())


@pytest.mark.parametrize("workers", [1, 2])
def test_a_step_runs_two_rounds(fixture, monkeypatch, workers):
    """Each step forks one round of forwards and backwards, then one round in
    which every process sums, checks and updates its range."""
    rounds, forked = [], loop.forked

    @contextmanager
    def counted(count, run):
        with forked(count, run) as round_:
            yield lambda tasks: rounds.append(len(tasks)) or round_(tasks)

    at_workers(monkeypatch, workers)
    monkeypatch.setattr(loop, "forked", counted)
    for train, steps in ((run_pretrain, PRETRAIN["total_steps"]), (run_finetune, FINETUNE["total_steps"])):
        rounds.clear()
        train(fixture)
        assert rounds == [workers] * 2 * steps


# ---------------------------------------------------------------------------
# the workers' lifecycle
# ---------------------------------------------------------------------------

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


@pytest.fixture
def two_workers(fixture, monkeypatch, forked):
    """The serial run's bytes at one worker, then training held to two
    workers, and a check that the call left no child and the CPU mask as it was."""
    at_workers(monkeypatch, 1)
    want = run_pretrain(fixture)
    at_workers(monkeypatch, 2)
    mask = os.sched_getaffinity(0)
    yield want, forked
    assert no_child_left() and os.sched_getaffinity(0) == mask


def test_a_normal_run_forks_one_worker_per_call_and_reaps_it(fixture, two_workers):
    want, forked = two_workers
    assert run_pretrain(fixture) == want and len(forked) == 1


def test_the_caller_is_pinned_apart_from_its_worker_while_it_trains(fixture, monkeypatch, two_workers):
    want, forked = two_workers
    masks = []
    corpus, table, model_cfg = fixture
    pretrain(corpus, table, model_cfg, TrainConfig(**{**PRETRAIN, "total_steps": 2}),
             step_callback=lambda row: masks.append(os.sched_getaffinity(0)))
    if len(os.sched_getaffinity(0)) > 1:
        assert masks == [{min(os.sched_getaffinity(0))}] * 2


def test_training_that_diverges_mid_run_reaps_its_worker(fixture, monkeypatch, two_workers):
    lr_at = loop.lr_at
    monkeypatch.setattr(loop, "lr_at", lambda step, *args: np.nan if step == 1 else lr_at(step, *args))
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 2$"):  # the worker read the NaN values
        run_pretrain(fixture)


def test_an_interrupt_from_the_step_callback_reaps_the_worker(fixture, two_workers):
    corpus, table, model_cfg = fixture

    def interrupt(row):
        if row.step == 2:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        pretrain(corpus, table, model_cfg, TrainConfig(**PRETRAIN), step_callback=interrupt)


def test_a_killed_worker_has_its_shards_run_again_in_the_caller(fixture, monkeypatch, two_workers):
    want, forked = two_workers
    parent, batch_losses, calls = os.getpid(), loop._batch_losses, []

    def dies_on_its_second_shard(*args, **kwargs):
        calls.append(1)
        if os.getpid() != parent and len(calls) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return batch_losses(*args, **kwargs)

    monkeypatch.setattr(loop, "_batch_losses", dies_on_its_second_shard)
    assert run_pretrain(fixture) == want and len(forked) == 1


def test_a_worker_killed_in_its_first_gradient_sum_has_its_range_summed_in_the_caller(fixture, monkeypatch,
                                                                                       two_workers):
    want, forked = two_workers
    parent, sum_shards = os.getpid(), loop._sum_shards

    def dies_after_its_first_sum(*args):
        total = sum_shards(*args)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return total

    monkeypatch.setattr(loop, "_sum_shards", dies_after_its_first_sum)
    assert run_pretrain(fixture) == want and len(forked) == 1


@pytest.mark.parametrize("kernel", ["adamw_range", "ema_range"])
def test_a_worker_killed_in_its_first_update_has_its_range_run_again_from_the_intact_bank(fixture, monkeypatch,
                                                                                          two_workers, kernel):
    """The child writes its range of the next bank, then dies before it
    answers; the caller updates that range again from the current bank."""
    want, forked = two_workers
    train = run_pretrain if kernel == "adamw_range" else run_finetune
    if train is run_finetune:
        at_workers(monkeypatch, 1)
        want = run_finetune(fixture)
        at_workers(monkeypatch, 2)
    parent, update = os.getpid(), getattr(loop, kernel)

    def dies_after_its_first_range(*args, **kwargs):
        update(*args, **kwargs)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(loop, kernel, dies_after_its_first_range)
    assert train(fixture) == want and len(forked) == 1


def test_a_failed_fork_runs_every_shard_in_the_caller(fixture, monkeypatch, two_workers):
    want, _ = two_workers

    def refused():
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    assert run_pretrain(fixture) == want


def test_training_never_forks_beside_a_second_live_thread(fixture, monkeypatch, two_workers):
    want, _ = two_workers

    def forbidden():
        pytest.fail("forked while a second thread was alive")

    monkeypatch.setattr(os, "fork", forbidden)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert run_pretrain(fixture) == want
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def test_a_shard_that_raises_in_the_worker_reaches_the_caller_as_raised(fixture, monkeypatch, two_workers):
    class ShardFailed(RuntimeError):
        pass

    batch_losses = loop._batch_losses

    def fails_on_the_second_shard(model, batch, cfg, totals=None):
        if totals is not None and batch[0].itm_label == 0:
            raise ShardFailed("shard of negatives failed")
        return batch_losses(model, batch, cfg, totals)

    monkeypatch.setattr(loop, "_batch_losses", fails_on_the_second_shard)
    with pytest.raises(ShardFailed, match="^shard of negatives failed$"):
        run_pretrain(fixture)

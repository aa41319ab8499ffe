"""Losses, scheduler, optimizer arithmetic, parameter averaging, and the
determinism of the training loops."""

import math
from dataclasses import replace

import numpy as np
import pytest

import interbert.numerics as nt
from interbert.data import CorpusError, synth_corpus
from interbert.masking import MaskingConfig, mask_pair
from interbert.model import InterBert, ModelConfig, init_parameters
from interbert.negatives import build_hard_negative_table, build_tfidf, make_itm_batch
from interbert.numerics import NumericsError, ParameterSet, Tensor, backward, finite_diff_check
from interbert.training import (
    AdamWState,
    FinetuneMetrics,
    StepMetrics,
    TrainConfig,
    TrainingDiverged,
    adamw_step,
    ema_update,
    finetune_retrieval,
    itm_loss,
    lr_at,
    mrm_loss,
    msm_loss,
    pretrain,
    total_loss,
    write_metrics_csv,
)
from interbert.training import loop, optim
from interbert.training.loop import _batch_losses
from reference_ops import sum_all


def toy_model_config(corpus, **overrides):
    base = dict(
        hidden_size=16,
        num_heads=2,
        ffn_size=32,
        num_interaction_layers=1,
        num_extraction_layers=1,
        vocab_size=corpus.vocab.size,
        object_feature_dim=corpus.pairs[0].features.shape[1],
        max_text_len=16,
        max_objects=8,
        num_object_classes=12,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def test_msm_loss_no_masks_is_zero(rng):
    logits = Tensor(rng.normal(size=(4, 9)))
    targets = np.full(4, -1)
    assert msm_loss(logits, targets).item() == 0.0
    # a batch without a masked position gathers no rows at all
    assert msm_loss(Tensor(np.zeros((0, 9))), np.zeros(0, dtype=np.int64)).item() == 0.0


def test_msm_loss_uniform_logits():
    vocab = 200
    logits = Tensor(np.zeros((3, vocab)))
    loss = msm_loss(logits, np.array([5, -1, 17]))
    assert abs(loss.item() - math.log(vocab)) < 1e-12


def test_msm_loss_hand_two_positions():
    # two masked rows: [2, 0] target 0 and [0, 1] target 1
    logits = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
    loss = msm_loss(logits, np.array([0, 1]))
    want = 0.5 * (math.log(1 + math.exp(-2.0)) + math.log(1 + math.exp(-1.0)))
    assert abs(loss.item() - want) < 1e-12


def test_msm_loss_spans_samples(rng):
    a = Tensor(rng.normal(size=(2, 5)))
    b = Tensor(rng.normal(size=(3, 5)))
    # flat rows of two samples average over masked positions, not per sample
    per_sample = [msm_loss(a, np.array([1, -1])).item(), msm_loss(b, np.array([-1, 2, -1])).item()]
    joined = msm_loss(nt.concat([a, b], axis=0), np.array([1, -1, -1, 2, -1]))
    assert abs(joined.item() - 0.5 * sum(per_sample)) < 1e-12


def test_mrm_loss_uniform_over_33_classes():
    logits = Tensor(np.zeros((4, 33)))
    loss = mrm_loss(logits, np.array([0, 7, -1, 32]))
    assert abs(loss.item() - math.log(33.0)) < 1e-12


def test_itm_loss_values():
    assert abs(itm_loss(Tensor(np.zeros(2)), [0.0, 1.0]).item() - math.log(2.0)) < 1e-12
    assert itm_loss(Tensor(np.array([20.0])), [1.0]).item() < 1e-8
    assert abs(itm_loss(Tensor(np.array([1.0])), [0.0]).item() - math.log(1 + math.e)) < 1e-12


def test_total_loss_weighting(rng):
    msm = Tensor(2.0)
    mrm = Tensor(3.0)
    itm = Tensor(4.0)
    assert total_loss(msm, mrm, itm, (1.0, 1.0, 1.0)).item() == 9.0
    assert total_loss(msm, mrm, itm, (1.0, 0.0, 0.0)).item() == 2.0

    ps = ParameterSet()
    p = ps.add("p", Tensor([1.0]))
    loss = total_loss(sum_all(p), sum_all(nt.mul(p, p)), sum_all(p), (0.0, 0.0, 0.0))
    assert loss.item() == 0.0
    backward(loss, ps)
    np.testing.assert_array_equal(p.grad, [0.0])


def test_total_loss_gradient_matches_finite_differences(rng):
    ps = ParameterSet()
    ps.add("a", Tensor(rng.normal(size=(3, 4))))
    ps.add("b", Tensor(rng.normal(size=(4,))))

    def loss_fn():
        msm = nt.cross_entropy_logits(ps["a"], [1, -1, 3])
        mrm = sum_all(nt.mul(ps["b"], ps["b"]))
        itm = nt.binary_cross_entropy_logits(ps["b"], [1.0, 0.0, 1.0, 0.0])
        return total_loss(msm, mrm, itm, (1.0, 1.0, 1.0))

    assert finite_diff_check(loss_fn, ps, step=1e-5, sample_count=16, seed=3) < 1e-6


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_exact_endpoints():
    lr = 1e-4
    assert lr_at(0, lr, 100, 500) == 0.0
    assert lr_at(100, lr, 100, 500) == lr
    assert lr_at(500, lr, 100, 500) == 0.0


def test_lr_schedule_piecewise_linear():
    lr, warmup, total = 3e-4, 50, 400
    warm_deltas = {lr_at(s + 1, lr, warmup, total) - lr_at(s, lr, warmup, total) for s in range(warmup)}
    decay_deltas = {round(lr_at(s + 1, lr, warmup, total) - lr_at(s, lr, warmup, total), 18)
                    for s in range(warmup, total)}
    assert max(warm_deltas) - min(warm_deltas) < 1e-18
    assert len(decay_deltas) == 1


def test_lr_schedule_bounds():
    with pytest.raises(ValueError):
        lr_at(-1, 1e-4, 10, 100)
    with pytest.raises(ValueError):
        lr_at(101, 1e-4, 10, 100)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adamw_zero_grad_zero_decay_is_identity():
    ps = ParameterSet()
    p = ps.add("p", Tensor([1.0, -2.0]))
    p.grad = np.zeros(2)
    state = AdamWState.for_params(ps)
    adamw_step(ps, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.values, [1.0, -2.0])


def test_adamw_hand_computed_single_step():
    # p=1, g=1, lr=0.1, beta1=0.9, beta2=0.9999, eps=1e-6, no decay:
    # m_hat = v_hat = 1 after bias correction, so p <- 1 - 0.1 / (1 + 1e-6)
    ps = ParameterSet()
    p = ps.add("p", Tensor([1.0]))
    p.grad = np.array([1.0])
    state = AdamWState.for_params(ps)
    adamw_step(ps, state, lr=0.1, beta1=0.9, beta2=0.9999, eps=1e-6, weight_decay=0.0)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-6))
    assert abs(p.values[0] - expected) < 1e-12


def test_adamw_decay_shrinks_toward_zero():
    ps = ParameterSet()
    p = ps.add("w", Tensor(np.full((2, 2), 3.0)))
    p.grad = np.zeros((2, 2))
    state = AdamWState.for_params(ps)
    adamw_step(ps, state, lr=0.1, weight_decay=0.5)
    assert np.all(p.values < 3.0) and np.all(p.values > 0.0)


def test_adamw_decay_skips_rank_one_params():
    ps = ParameterSet()
    w = ps.add("w", Tensor(np.full((2, 2), 3.0)))
    b = ps.add("b", Tensor(np.full(2, 3.0)))
    for t in (w, b):
        t.grad = np.zeros_like(t.values)
    adamw_step(ps, AdamWState.for_params(ps), lr=0.1, weight_decay=0.5)
    assert np.all(w.values < 3.0)
    np.testing.assert_array_equal(b.values, [3.0, 3.0])


def test_adamw_first_update_opposes_gradient(rng):
    ps = ParameterSet()
    for i in range(3):
        ps.add(f"p{i}", Tensor(rng.normal(size=(4, 4))))
    grads = {}
    for name, p in ps.items():
        p.grad = rng.normal(size=p.values.shape)
        grads[name] = p.grad.copy()
    before = ps.clone_values()
    adamw_step(ps, AdamWState.for_params(ps), lr=0.01, weight_decay=0.0)
    for name, p in ps.items():
        step = p.values - before[name]
        assert float((step * grads[name]).sum()) < 0.0


def test_adamw_missing_or_nan_grad_raises():
    ps = ParameterSet()
    p = ps.add("p", Tensor([1.0]))
    with pytest.raises(NumericsError):
        adamw_step(ps, AdamWState.for_params(ps), lr=0.1)
    p.grad = np.array([np.nan])
    with pytest.raises(NumericsError, match="p"):
        adamw_step(ps, AdamWState.for_params(ps), lr=0.1)


def test_adamw_refuses_a_nan_gradient_before_moving_anything():
    ps = ParameterSet()
    first, last = ps.add("first", Tensor([1.0, 2.0])), ps.add("last", Tensor([[3.0]]))
    first.grad, last.grad = np.array([0.5, -0.5]), np.array([[np.nan]])
    state = AdamWState.for_params(ps)
    with pytest.raises(NumericsError, match="last at step 1"):
        adamw_step(ps, state, lr=0.1)
    np.testing.assert_array_equal(first.values, [1.0, 2.0])
    np.testing.assert_array_equal(last.values, [[3.0]])
    for moment in (state.first_moment, state.second_moment):
        assert all(not np.any(m) for m in moment.values())
    assert state.step_count == 0


def test_ema_update_cases():
    ps = ParameterSet()
    p = ps.add("p", Tensor([2.0, 4.0]))
    shadow = {"p": np.zeros(2)}
    ema_update(shadow, ps, rate=0.0)
    np.testing.assert_array_equal(shadow["p"], [2.0, 4.0])

    shadow = {"p": np.array([1.0, 1.0])}
    ema_update(shadow, ps, rate=1.0)
    np.testing.assert_array_equal(shadow["p"], [1.0, 1.0])

    # two hand steps of the scalar recurrence s <- 0.9 s + 0.1 p
    shadow = {"p": np.array([0.0, 0.0])}
    ema_update(shadow, ps, rate=0.9)
    ema_update(shadow, ps, rate=0.9)
    want = 0.9 * (0.1 * np.array([2.0, 4.0])) + 0.1 * np.array([2.0, 4.0])
    np.testing.assert_allclose(shadow["p"], want, atol=1e-15)


# ---------------------------------------------------------------------------
# the range kernels behind adamw_step and ema_update
# ---------------------------------------------------------------------------

# adjacent rank-2 tensors, then rank-1 tensors between rank-2 ones
KERNEL_SHAPES = {"w0": (3, 4), "w1": (2, 5), "b1": (5,), "g": (1,), "w2": (4, 2), "b2": (3,)}


def flat(arrays) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in arrays])


def written_out_adamw(values, m, v, g, t, lr, beta1, beta2, eps, weight_decay):
    """One parameter's AdamW update as the per-parameter expressions state it, in place."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    update = (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    if weight_decay != 0.0 and values.ndim >= 2:
        update = update + weight_decay * values
    values -= lr * update


@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_range_kernels_equal_adamw_step_and_ema_update_bit_for_bit(monkeypatch, dtype, weight_decay, chunk):
    """Over several steps, out of place between two banks, at every way of
    cutting the flat rows into ranges and at chunks of 1, 3 and the default."""
    if chunk is not None:
        monkeypatch.setattr(optim, "_CHUNK", chunk)
    rng = np.random.default_rng(7)
    ps = ParameterSet()
    for name, shape in KERNEL_SHAPES.items():
        ps.add(name, Tensor(rng.normal(size=shape).astype(dtype)))
    bounds = np.cumsum([0] + [t.values.size for _, t in ps.items()]).tolist()
    n = bounds[-1]
    cuts = {"whole": [0, n], "every parameter boundary": bounds, "inside rank-2 tensors": [0, 5, 17, 25, 31, n],
            "single elements": list(range(n + 1))}
    state, shadow = AdamWState.for_params(ps), ps.clone_values()
    written = {name: [a.copy() for a in (t.values, t.values * 0, t.values * 0)] for name, t in ps.items()}
    banks = {how: np.zeros((2, 4, n), dtype) for how in cuts}  # values, moments, average
    for bank in banks.values():
        bank[0, 0] = bank[0, 3] = flat(t.values for _, t in ps.items())
    decay = optim.decay_runs([t.values for _, t in ps.items()])
    assert decay == [(0, 12), (12, 22), (28, 36)]
    for step in range(1, 5):
        lr = 0.01 * step
        hyper = dict(beta1=0.9, beta2=0.999, eps=1e-6, weight_decay=weight_decay)
        for name, t in ps.items():
            t.grad = rng.normal(size=t.values.shape).astype(dtype)
            written_out_adamw(*written[name], t.grad, step, lr, **hyper)
        grad = flat(t.grad for _, t in ps.items())
        for how, points in cuts.items():
            src, dst = banks[how][(step - 1) % 2], banks[how][step % 2]
            for a, b in zip(points, points[1:]):
                optim.adamw_range(src[:3], dst[:3], grad, slice(a, b), decay, lr, step, **hyper)
                optim.ema_range(src[3], dst[3], dst[0], slice(a, b), 0.9)
        adamw_step(ps, state, lr, **hyper)
        ema_update(shadow, ps, 0.9)
        want = np.stack([flat(t.values for _, t in ps.items()), flat(state.first_moment.values()),
                         flat(state.second_moment.values()), flat(shadow.values())])
        assert want.dtype == dtype and state.step_count == step
        assert want[:3].tobytes() == np.stack([flat(w[i] for w in written.values()) for i in range(3)]).tobytes()
        for how in cuts:
            assert banks[how][step % 2].tobytes() == want.tobytes(), how


def test_adamw_step_and_ema_update_write_through_arrays_that_are_not_c_contiguous():
    values = np.arange(6.0).reshape(2, 3)
    ps, fortran = ParameterSet(), ParameterSet()
    for params, array in ((ps, values.copy()), (fortran, np.asfortranarray(values))):
        params.add("w", Tensor(array)).grad = np.full((2, 3), 0.5)
        adamw_step(params, AdamWState.for_params(params), lr=0.1)
    assert not fortran["w"].values.flags.c_contiguous
    assert fortran["w"].values.tobytes("C") == ps["w"].values.tobytes()
    shadow = {"w": np.asfortranarray(np.ones((2, 3)))}
    ema_update(shadow, ps, 0.5)
    np.testing.assert_array_equal(shadow["w"], 0.5 + 0.5 * ps["w"].values)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_train_config_round_trip():
    cfg = TrainConfig(total_steps=50, warmup_steps=10, masking=MaskingConfig(anchor_prob=0.2))
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError):
        TrainConfig(warmup_steps=10, total_steps=5).validate()


@pytest.mark.parametrize("warmup, total", [(100, 60), (-1, 5), (0, 0)])
def test_a_refused_schedule_names_both_values_and_their_flags(warmup, total):
    # (100, 60) is a finetune run of --steps 60 left at the default warmup
    with pytest.raises(ValueError, match=rf"warmup_steps {warmup} \(--warmup\) and total_steps {total} \(--steps\)"):
        TrainConfig(warmup_steps=warmup, total_steps=total).validate()


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def small_fixture():
    corpus = synth_corpus(seed=12, num_images=10, num_classes=6, feature_dim=8)
    table = build_hard_negative_table(build_tfidf(corpus))
    model_cfg = toy_model_config(corpus, num_object_classes=6)
    return corpus, table, model_cfg


def test_zero_step_size_leaves_params_unchanged():
    # the schedule's endpoints produce a step size of exactly 0; applying
    # such steps must leave every parameter bit-identical even though the
    # optimizer moments keep updating
    corpus, table, model_cfg = small_fixture()
    train_cfg = TrainConfig(total_steps=3, warmup_steps=1, batch_size=4, seed=1)
    model = InterBert.create(model_cfg, seed=1)
    before = model.params.clone_values()
    state = AdamWState.for_params(model.params)
    gen = np.random.default_rng(1)
    for _ in range(3):
        batch = make_itm_batch(corpus, table, gen, 4, train_cfg.masking)
        l_msm, l_mrm, l_itm, _ = _batch_losses(model, batch)
        loss = total_loss(l_msm, l_mrm, l_itm)
        model.params.zero_grad()
        backward(loss, model.params)
        adamw_step(model.params, state, lr=0.0)
    for name, values in model.params.clone_values().items():
        np.testing.assert_array_equal(values, before[name])


def test_pretrain_deterministic_twin_runs():
    corpus, table, model_cfg = small_fixture()
    train_cfg = TrainConfig(total_steps=4, warmup_steps=1, batch_size=4, seed=7)
    a = pretrain(corpus, table, model_cfg, train_cfg)
    b = pretrain(corpus, table, model_cfg, train_cfg)
    assert [m.total for m in a.metrics] == [m.total for m in b.metrics]
    for name, values in a.model.params.clone_values().items():
        np.testing.assert_array_equal(values, b.model.params[name].values)


def test_pretrain_loss_decreases_on_easy_fixture():
    corpus, table, model_cfg = small_fixture()
    train_cfg = TrainConfig(total_steps=30, warmup_steps=5, batch_size=6,
                            learning_rate=2e-3, seed=3)
    result = pretrain(corpus, table, model_cfg, train_cfg)
    assert result.metrics[-1].total < result.metrics[0].total


def test_pretrain_metrics_rows_complete():
    corpus, table, model_cfg = small_fixture()
    train_cfg = TrainConfig(total_steps=3, warmup_steps=1, batch_size=4, seed=5)
    result = pretrain(corpus, table, model_cfg, train_cfg)
    assert [m.step for m in result.metrics] == [1, 2, 3]
    for m in result.metrics:
        assert np.isfinite([m.lr, m.msm_loss, m.mrm_loss, m.itm_loss, m.total, m.itm_acc]).all()


def test_pretrain_single_precision_opt_in():
    corpus, table, model_cfg = small_fixture()
    train_cfg = TrainConfig(total_steps=2, warmup_steps=1, batch_size=4, seed=1,
                            precision="float32")
    result = pretrain(corpus, table, model_cfg, train_cfg)
    assert result.model.params["heads.itm.w1"].values.dtype == np.float32
    assert all(np.isfinite(m.total) for m in result.metrics)


def test_finetune_runs_and_tracks_ema():
    corpus, table, model_cfg = small_fixture()
    pre_cfg = TrainConfig(total_steps=3, warmup_steps=1, batch_size=4, seed=2)
    pre = pretrain(corpus, table, model_cfg, pre_cfg)
    fine_cfg = TrainConfig(total_steps=4, warmup_steps=1, batch_size=3, seed=2, ema_rate=0.5)
    fine = finetune_retrieval(corpus, model_cfg, fine_cfg, pre.model.params.clone_values())
    assert len(fine.metrics) == 4
    # EMA weights differ from raw after updates but have the same shapes
    raw = fine.model.params.clone_values()
    moved = [name for name in raw if not np.array_equal(raw[name], fine.ema_values[name])]
    assert moved
    for name in raw:
        assert raw[name].shape == fine.ema_values[name].shape


def test_finetune_distractors_never_equal_positive():
    corpus, table, model_cfg = small_fixture()
    # structural property of the sampling pool; exercised via a short run
    fine_cfg = TrainConfig(total_steps=2, warmup_steps=1, batch_size=2, seed=9)
    from interbert.model import init_parameters

    fine = finetune_retrieval(corpus, model_cfg, fine_cfg,
                              init_parameters(model_cfg, seed=0).clone_values())
    assert len(fine.metrics) == 2


def test_finetune_needs_enough_images():
    corpus = synth_corpus(seed=1, num_images=3, num_classes=6, feature_dim=8)
    model_cfg = toy_model_config(corpus, num_object_classes=6)
    cfg = TrainConfig(total_steps=1, warmup_steps=0, batch_size=2)
    from interbert.model import init_parameters

    with pytest.raises(ValueError):
        finetune_retrieval(corpus, model_cfg, cfg, init_parameters(model_cfg, seed=0).clone_values())


# ---------------------------------------------------------------------------
# the padded training batch
# ---------------------------------------------------------------------------

def count_tape_nodes(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def ragged_masked_batch():
    """A tiny model and a batch of positives and a negative with unequal
    object and token counts, every loss non-zero."""
    corpus = synth_corpus(seed=5, num_images=8, num_classes=6, feature_dim=8, min_objects=2, max_objects=5)
    model_cfg = toy_model_config(corpus, hidden_size=8, ffn_size=16, num_interaction_layers=2,
                                 num_object_classes=6, init_std=0.5)
    model = InterBert.create(model_cfg, seed=7)
    gen = np.random.default_rng(3)
    mask_cfg = MaskingConfig(anchor_prob=0.5)
    pairs = corpus.pairs
    batch = [mask_pair(pairs[0], corpus.vocab, gen, mask_cfg),
             mask_pair(pairs[1], corpus.vocab, gen, mask_cfg),
             mask_pair(pairs[2], corpus.vocab, gen, mask_cfg, itm_label=0, tokens_override=pairs[5].tokens)]
    assert len({len(s.features) for s in batch}) > 1 and len({len(s.tokens) for s in batch}) > 1
    return model, batch


def test_batch_losses_match_per_sample_reference():
    model, batch = ragged_masked_batch()
    # reference: one unpadded forward per sample, masked rows picked per sample
    logits, token_logits, token_targets, region_logits, region_targets = [], [], [], [], []
    for sample in batch:
        out = model.forward(**sample.model_inputs())
        logits.append(model.itm_score(out.pooled_image, out.pooled_text).item())
        if sample.itm_label == 1:
            token_logits.append(model.msm_logits(out.h_text).values)
            token_targets.append(sample.msm_targets)
            region_logits.append(model.mrm_logits(out.h_image).values)
            region_targets.append(sample.mrm_targets)
    want = [nt.cross_entropy_logits(np.concatenate(token_logits), np.concatenate(token_targets)).item(),
            nt.cross_entropy_logits(np.concatenate(region_logits), np.concatenate(region_targets)).item(),
            itm_loss(Tensor(np.array(logits)), [s.itm_label for s in batch]).item()]
    got = [loss.item() for loss in _batch_losses(model, batch)[:3]]
    assert min(want) > 0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batch_losses_gradcheck_on_ragged_batch():
    model, batch = ragged_masked_batch()

    def loss_fn():
        return total_loss(*_batch_losses(model, batch)[:3])

    err = finite_diff_check(loss_fn, model.params, step=1e-5, sample_count=200, seed=11)
    assert err < 1e-4, f"batched training loss gradient mismatch: {err}"


def test_tape_size_does_not_grow_with_batch():
    """The tape-node count is also pinned: it is what the benchmark's
    ``numerics.tape_nodes_per_step`` counts, by the same walk."""
    corpus, table, model_cfg = small_fixture()
    model = InterBert.create(model_cfg, seed=0)
    counts = []
    for size in (2, 8):
        batch = make_itm_batch(corpus, table, np.random.default_rng(size), size, MaskingConfig())
        counts.append(count_tape_nodes(total_loss(*_batch_losses(model, batch)[:3])))
    assert counts == [137, 137]


def test_pretrain_refuses_oversized_caption_before_step_one():
    corpus, table, model_cfg = small_fixture()
    limit = max(p.num_tokens for p in corpus.pairs) - 1
    first = next(p for p in corpus.pairs if p.num_tokens > limit)
    steps = []
    with pytest.raises(CorpusError, match=f"caption {first.caption_id} "):
        pretrain(corpus, table, replace(model_cfg, max_text_len=limit),
                 TrainConfig(total_steps=2, warmup_steps=1, batch_size=4), step_callback=steps.append)
    assert steps == []


def test_pretrain_refuses_a_table_from_another_corpus_before_step_one():
    corpus, _, model_cfg = small_fixture()
    larger = synth_corpus(seed=12, num_images=14, num_classes=6, feature_dim=8)
    table = build_hard_negative_table(build_tfidf(larger))
    steps = []
    with pytest.raises(CorpusError, match="not in the corpus"):
        pretrain(corpus, table, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=4),
                 step_callback=steps.append)
    assert steps == []


@pytest.mark.parametrize("field", ["object_feature_dim", "num_object_classes"])
def test_pretrain_refuses_a_corpus_the_model_cannot_take_before_step_one(field):
    """Feature width and class labels are checked against the model config
    before step 1, naming the image; both used to fail inside a step."""
    corpus, table, model_cfg = small_fixture()
    if field == "object_feature_dim":
        model_cfg = replace(model_cfg, object_feature_dim=16)
        message = f"image {corpus.pairs[0].image_id} has object features of width 8, the model takes 16"
    else:
        model_cfg = replace(model_cfg, num_object_classes=3)
        first = next(p for p in corpus.pairs if p.labels.max() >= 3)
        message = f"image {first.image_id} has object class {first.labels.max()} outside the model's 3 classes"
    steps = []
    with pytest.raises(CorpusError, match=message):
        pretrain(corpus, table, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=4),
                 step_callback=steps.append)
    assert steps == []


def test_finetune_refuses_another_feature_width_before_step_one():
    corpus, _, model_cfg = small_fixture()
    wide = replace(model_cfg, object_feature_dim=16)
    steps = []
    with pytest.raises(CorpusError, match=f"image {corpus.pairs[0].image_id} has object features of width 8"):
        finetune_retrieval(corpus, wide, TrainConfig(total_steps=2, warmup_steps=1, batch_size=2),
                           init_parameters(wide, seed=0).clone_values(), step_callback=steps.append)
    assert steps == []


def test_finetune_refuses_oversized_image_before_step_one():
    corpus, _, model_cfg = small_fixture()
    limit = max(p.num_objects for p in corpus.pairs) - 1
    first = next(p for p in corpus.pairs if p.num_objects > limit)
    steps = []
    with pytest.raises(CorpusError, match=f"image {first.image_id} "):
        finetune_retrieval(corpus, replace(model_cfg, max_objects=limit),
                           TrainConfig(total_steps=2, warmup_steps=1, batch_size=2),
                           init_parameters(model_cfg, seed=0).clone_values(), step_callback=steps.append)
    assert steps == []


def test_finetune_accuracy_of_constant_scorer_is_chance():
    corpus, _, model_cfg = small_fixture()
    values = init_parameters(model_cfg, seed=0).clone_values()
    values["heads.itm.w2"][:] = 0.0  # every choice logit equals the output bias
    fine = finetune_retrieval(corpus, model_cfg, TrainConfig(total_steps=1, warmup_steps=1, batch_size=4),
                              values)
    assert fine.metrics[0].accuracy == 0.25


# ---------------------------------------------------------------------------
# the shared step driver and metrics tables
# ---------------------------------------------------------------------------

def record_updates(monkeypatch) -> list:
    """Swap the loops' AdamW update and parameter average for recorders."""
    calls = []
    monkeypatch.setattr(loop, "adamw_range", lambda *args, **kwargs: calls.append("adamw"))
    monkeypatch.setattr(loop, "ema_range", lambda *args: calls.append("ema"))
    return calls


def test_pretrain_non_finite_loss_raises_before_any_update(monkeypatch):
    corpus, table, model_cfg = small_fixture()
    calls, steps = record_updates(monkeypatch), []
    monkeypatch.setattr(loop, "total_loss", lambda *args: Tensor(np.array(np.nan)))
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 1$"):
        pretrain(corpus, table, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=4),
                 step_callback=steps.append)
    assert calls == [] and steps == []


def test_finetune_non_finite_loss_raises_before_any_update(monkeypatch):
    corpus, _, model_cfg = small_fixture()
    values = init_parameters(model_cfg, seed=0).clone_values()
    values["heads.itm.w2"][0, 0] = np.nan
    calls, steps = record_updates(monkeypatch), []
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 1$"):
        finetune_retrieval(corpus, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=4),
                           values, step_callback=steps.append)
    assert calls == [] and steps == []


def test_finetune_averages_after_each_update_and_before_the_callback(monkeypatch):
    corpus, _, model_cfg = small_fixture()
    calls = record_updates(monkeypatch)
    finetune_retrieval(corpus, model_cfg, TrainConfig(total_steps=2, warmup_steps=1, batch_size=2),
                       init_parameters(model_cfg, seed=0).clone_values(),
                       step_callback=lambda row: calls.append(row.step))
    assert calls == ["adamw", "ema", 1, "adamw", "ema", 2]


def test_metrics_csv_formats_read_back_exactly(tmp_path):
    tables = {
        "step,lr,msm_loss,mrm_loss,itm_loss,total,itm_acc": [
            StepMetrics(1, 1e-4, 0.1 + 0.2, 1 / 3, 2.5e-300, math.pi, 0.5),
            StepMetrics(12, 0.0, np.float64(2 / 3), 1e22, 7.0, -0.0, 1.0)],
        "step,lr,loss,accuracy": [FinetuneMetrics(1, 2 / 3, math.log(4), 0.25),
                                  FinetuneMetrics(300, 5e-324, 1.0000000000000002, 0.0)],
    }
    for header, rows in tables.items():
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == header
        read = [[int(v) if col == 0 else float(v) for col, v in enumerate(line.split(","))] for line in lines[1:]]
        assert read == [[getattr(row, name) for name in header.split(",")] for row in rows]


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_finetune_starts_from_a_copy_of_init_values_in_spec_order(precision):
    corpus, _, model_cfg = small_fixture()
    values = init_parameters(model_cfg, seed=0).clone_values()
    kept = {name: v.copy() for name, v in values.items()}
    fine = finetune_retrieval(corpus, model_cfg, TrainConfig(total_steps=1, warmup_steps=1, batch_size=2,
                                                             precision=precision), dict(reversed(values.items())))
    assert fine.model.params.names() == list(values)
    assert all(t.dtype == np.dtype(precision) and t.values is not values[n] for n, t in fine.model.params.items())
    assert all(np.array_equal(values[name], kept[name]) for name in values)  # the caller's arrays never train
    with pytest.raises(NumericsError, match="missing"):
        finetune_retrieval(corpus, model_cfg, TrainConfig(total_steps=1, warmup_steps=1, batch_size=2),
                           {n: v for n, v in values.items() if n != "heads.itm.b2"})

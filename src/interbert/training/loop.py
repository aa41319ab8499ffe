"""Pretraining and retrieval-finetuning loops.

Both loops draw every random decision in the caller from one seeded generator,
then cut each step's batch into ``TrainConfig.shards`` contiguous shards whose
forward and backward run on up to that many processes (``workers.forked``).
Each process then sums the shards' gradients in shard order over one even
range of the parameters and, if that sum is finite, updates the range (AdamW,
and finetuning's average) into a second bank, which the step commits by a
flip. Every operation is elementwise or in shard order, so a repeated run with
the same config is bit-identical at any worker count, checkpoints included.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .. import numerics as nt
from ..config import ModelConfig, TrainConfig
from ..data import Corpus, check_limits, make_batch
from ..evaluation import choice_credit, choice_images
from ..masking import MaskedSample
from ..model import InterBert
from ..negatives import check_table, make_itm_batch
from ..numerics import IGNORE_INDEX
from ..workers import _even_slices, forked, score_workers, shared_array
from .losses import itm_loss, mrm_loss, msm_loss, total_loss
from .optim import adamw_range, decay_runs, ema_range, lr_at


class TrainingDiverged(RuntimeError):
    """The loss or the summed gradient went non-finite; ``_optimise`` checks
    both before each commit."""


@dataclass
class StepMetrics:
    step: int
    lr: float
    msm_loss: float
    mrm_loss: float
    itm_loss: float
    total: float
    itm_acc: float


@dataclass
class FinetuneMetrics:
    step: int
    lr: float
    loss: float
    accuracy: float


def write_metrics_csv(path, rows: list) -> None:
    """A header of the rows' dataclass field names, then one line per row:
    ints as they are, floats by ``repr`` so each value reads back exactly."""
    names = [f.name for f in fields(rows[0])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            values = (getattr(row, name) for name in names)
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values) + "\n")


def _sum_shards(grads: np.ndarray, total: np.ndarray, span: slice) -> float:
    """Sum the shards' gradient rows over ``span`` into ``total`` in shard order
    (at one shard ``total`` is that row); return the range's sum of squares."""
    if len(grads) > 1:
        np.add(grads[0, span], grads[1, span], out=total[span])
        for row in grads[2:]:
            total[span] += row[span]
    return float(np.dot(total[span], total[span]))


def _optimise(model: InterBert, cfg: TrainConfig, draw, shard_loss, columns, row_type, on_step,
              shadow=None) -> list:
    """The step both loops run ``cfg.total_steps`` times. ``draw()`` makes the
    step's ``cfg.shards`` shards in the caller, so every random draw keeps its
    order. ``shard_loss(shard)`` forwards one shard and returns its loss tensor,
    each mean scaled by the shard's share of the batch, and a small summary;
    ``columns(summaries)`` turns the summaries, in shard order, into the
    batch's loss and the row's other columns.

    One shared store holds two banks each of the values, both AdamW moments
    and, given ``shadow`` (name -> average, kept at ``cfg.ema_rate`` and
    written back on exit), the average; then the summed gradient and one
    gradient row per shard. Each step runs two rounds of ``workers.forked`` on
    ``min(score_workers(), shards)`` processes, forked once per call: A, each
    shard's forward and backward on the current bank into its row; B, each
    process sums the rows in shard order over one even range of the elements,
    updates that range from the current bank into the other (AdamW, then the
    average) if its sum of squares is finite, and returns that sum. A
    non-finite loss or sum raises ``TrainingDiverged`` before the caller
    commits by flipping the bank, so a diverged step leaves the model as it
    was, and a dead worker's range re-runs in the caller from intact inputs.
    The ``row_type`` row then goes to ``on_step`` (when given) and out."""
    params = model.params
    bounds = np.cumsum([0] + [p.values.size for _, p in params.items()])
    kinds, n = (3 if shadow is None else 4), int(bounds[-1])  # values, first and second moments, average
    store = shared_array((2 * kinds + (cfg.shards > 1) + cfg.shards, n), cfg.dtype)
    banks, total, grads = store[:2 * kinds].reshape(2, kinds, n), store[2 * kinds], store[-cfg.shards:]

    def views(row: np.ndarray) -> list[np.ndarray]:
        return [row[a:b].reshape(p.values.shape) for (_, p), a, b in zip(params.items(), bounds, bounds[1:])]

    bank_values, grad_views = [views(bank[0]) for bank in banks], [views(row) for row in grads]
    for (_, p), values in zip(params.items(), bank_values[0]):
        values[...] = p.values
    if shadow is not None:
        for (name, _), average in zip(params.items(), views(banks[0, 3])):
            average[...] = shadow[name]
    decay = decay_runs([p.values for _, p in params.items()])

    def hold(bank: int) -> None:  # point the model at a bank's values
        for (_, p), values in zip(params.items(), bank_values[bank]):
            p.values = values

    def shard_grads(bank, task) -> list:  # forward and backward of each (shard, data)
        hold(bank)
        summaries = []
        for shard, data in task:
            loss, summary = shard_loss(data)
            if np.isfinite(loss.item()):  # else the caller raises before reading the row
                params.zero_grad()
                nt.backward(loss, params)
                for (_, p), grad in zip(params.items(), grad_views[shard]):
                    grad[...] = p.grad
            del loss  # drop this shard's tape before the next forward
            summaries.append(summary)
        return summaries

    def sum_and_update(bank, span, step, lr) -> float:  # the range's sum, then its update into the other bank
        src, dst, squares = banks[bank], banks[1 - bank], _sum_shards(grads, total, span)
        if np.isfinite(squares):  # else the caller raises before the flip
            adamw_range(src[:3], dst[:3], total, span, decay, lr, step, beta1=cfg.beta1, beta2=cfg.beta2,
                        eps=cfg.eps, weight_decay=cfg.weight_decay)
            if shadow is not None:
                ema_range(src[3], dst[3], dst[0], span, cfg.ema_rate)
        return squares

    rounds = {"A": shard_grads, "B": sum_and_update}
    workers = min(score_workers(), cfg.shards)
    plan, spans = _even_slices(cfg.shards, workers), _even_slices(n, workers)
    bank, rows = 0, []
    hold(bank)
    try:
        with forked(workers, lambda task: rounds[task[0]](*task[1:])) as round_:
            for step in range(1, cfg.total_steps + 1):
                shards = list(enumerate(draw()))
                parts = round_([("A", bank, shards[part]) for part in plan])  # summaries, in shard order
                loss, row = columns([summary for part in parts for summary in part])
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"non-finite loss at step {step}")
                lr = lr_at(step, cfg.learning_rate, cfg.warmup_steps, cfg.total_steps)
                if not np.isfinite(sum(round_([("B", bank, span, step, lr) for span in spans]))):
                    bad = next((i for i, g in enumerate(grads) if not np.isfinite(g).all()), None)
                    raise TrainingDiverged(f"non-finite gradient norm at step {step}"
                                           + ("" if bad is None else f", first non-finite in shard {bad}"))
                bank = 1 - bank  # the commit
                hold(bank)
                rows.append(row_type(step=step, lr=lr, **row))
                if on_step is not None:
                    on_step(rows[-1])
    finally:
        for _, p in params.items():  # the model leaves the call holding arrays of its own
            p.values = np.array(p.values)
        if shadow is not None:
            for (name, _), average in zip(params.items(), views(banks[bank, 3])):
                shadow[name][...] = average
    return rows


def _target_counts(batch: list[MaskedSample], cfg: TrainConfig) -> tuple[int, int, int]:
    """What the three pretraining losses average over: the masked tokens and
    regions of the samples ``_batch_losses`` keeps MGM targets for, and the samples."""
    kept = [s for s in batch if s.itm_label == 1 or cfg.mgm_on_negatives]
    return (sum(int(np.count_nonzero(s.msm_targets != IGNORE_INDEX)) for s in kept),
            sum(int(np.count_nonzero(s.mrm_targets != IGNORE_INDEX)) for s in kept), len(batch))


def _batch_losses(model: InterBert, batch: list[MaskedSample], cfg: TrainConfig, totals=None):
    """Forward the batch as one packed batch (plus its unmasked inputs when
    matching reads those), computing only the rows the losses read, and
    assemble the three loss components and the count of correct matching
    predictions. Given ``totals``, the ``_target_counts`` of a whole batch
    this one is a shard of, each loss's mean is scaled by the shard's share of
    its count, so the shards' losses sum to the batch's."""
    packed = make_batch(batch, **model.config.limits)

    # MGM targets as packed rows per stream: a sample's tokens; its summary row, then its objects
    keep = [sample.itm_label == 1 or cfg.mgm_on_negatives for sample in batch]
    text_targets = np.concatenate([np.where(k, s.msm_targets, IGNORE_INDEX) for k, s in zip(keep, batch)])
    image_targets = np.concatenate([np.where(k, np.r_[IGNORE_INDEX, s.mrm_targets], IGNORE_INDEX)
                                    for k, s in zip(keep, batch)])
    token_rows = np.flatnonzero(text_targets != IGNORE_INDEX)
    region_rows = np.flatnonzero(image_targets != IGNORE_INDEX)
    counts = (token_rows.size, region_rows.size, len(batch))
    scales = [count / max(total, 1) for count, total in zip(counts, totals or counts)]

    out = model.forward(batch=packed, image_rows=region_rows, text_rows=token_rows)
    if cfg.itm_on_masked:
        itm_out = out
    else:
        raw = [replace(s, tokens=s.raw_tokens, features=s.raw_features) for s in batch]
        itm_out = model.forward(batch=make_batch(raw, **model.config.limits), image_rows=[], text_rows=[])
    itm_labels = [float(sample.itm_label) for sample in batch]
    logit_vec = nt.reshape(model.itm_score(itm_out.pooled_image, itm_out.pooled_text), (len(batch),))

    l_itm = itm_loss(logit_vec, itm_labels, scales[2])
    l_msm = msm_loss(model.msm_logits(out.h_text), text_targets[token_rows], scales[0])
    l_mrm = mrm_loss(model.mrm_logits(out.h_image, np.arange(region_rows.size)), image_targets[region_rows],
                     scales[1])
    correct = int(np.sum((logit_vec.values > 0.0) == (np.asarray(itm_labels) > 0.5)))
    return l_msm, l_mrm, l_itm, correct


@dataclass
class PretrainResult:
    model: InterBert
    metrics: list[StepMetrics]


def pretrain(corpus: Corpus, table: dict, model_cfg: ModelConfig, train_cfg: TrainConfig,
             step_callback=None) -> PretrainResult:
    """Run the masked-group + matching pretraining loop.

    Per step: assemble a half-positive batch with mined negatives in the
    mix, forward each shard of it as one packed batch, combine the weighted
    losses, backpropagate, and apply one scheduled AdamW update. Aborts on a
    non-finite loss or gradient; refuses a corpus the model cannot take (over
    its length limits, another feature width, class labels outside its
    classes), or a negatives table naming ids the corpus lacks, before the
    first step.
    """
    model_cfg.validate()
    train_cfg.validate()
    check_limits(corpus.pairs, **model_cfg.limits, num_classes=model_cfg.num_object_classes)
    check_table(table, corpus)
    model = InterBert.create(model_cfg, seed=train_cfg.seed, dtype=train_cfg.dtype)
    rng = np.random.default_rng(train_cfg.seed)
    weights = (train_cfg.lambda_msm, train_cfg.lambda_mrm, train_cfg.lambda_itm)

    def draw():
        batch = make_itm_batch(corpus, table, rng, train_cfg.batch_size,
                               train_cfg.masking, train_cfg.hard_negative_prob)
        totals = _target_counts(batch, train_cfg)
        return [(batch[rows], totals) for rows in _even_slices(len(batch), train_cfg.shards)]

    def shard_loss(shard):
        samples, totals = shard
        l_msm, l_mrm, l_itm, correct = _batch_losses(model, samples, train_cfg, totals)
        loss = total_loss(l_msm, l_mrm, l_itm, weights)
        return loss, (l_msm.item(), l_mrm.item(), l_itm.item(), loss.item(), correct)

    def columns(summaries):
        msm, mrm, itm, total, correct = (sum(column) for column in zip(*summaries))
        return total, {"msm_loss": msm, "mrm_loss": mrm, "itm_loss": itm, "total": total,
                       "itm_acc": correct / train_cfg.batch_size}

    metrics = _optimise(model, train_cfg, draw, shard_loss, columns, StepMetrics, step_callback)
    return PretrainResult(model=model, metrics=metrics)


@dataclass
class FinetuneResult:
    model: InterBert
    ema_values: dict[str, np.ndarray]
    metrics: list[FinetuneMetrics]


def finetune_retrieval(corpus: Corpus, model_cfg: ModelConfig, train_cfg: TrainConfig,
                       init_values: dict, step_callback=None) -> FinetuneResult:
    """Multiple-choice retrieval finetuning on top of pretrained weights.

    Each example scores the true image and sampled distractor images
    against the caption with the reused matching head, all examples of a
    shard in one packed batch; softmax cross-entropy over the choice logits
    trains the full network. No masking is applied. An exponential moving
    average of the parameters is maintained and returned alongside the raw
    weights. The accuracy column counts a tie for the top logit as a
    fractional win (see ``evaluation.choice_credit``).
    """
    model_cfg.validate()
    train_cfg.validate()
    check_limits(corpus.pairs, **model_cfg.limits)
    image_ids = corpus.image_ids()
    if len(image_ids) < train_cfg.num_distractors + 1:
        raise ValueError(f"need at least {train_cfg.num_distractors + 1} images for multiple choice")
    # copies: training never writes into the caller's arrays
    model = InterBert.from_values(model_cfg, {n: np.array(v, dtype=train_cfg.dtype) for n, v in init_values.items()})
    shadow = model.params.clone_values()
    rng = np.random.default_rng(train_cfg.seed)
    image_index = np.array(image_ids)
    choices = 1 + train_cfg.num_distractors

    def draw():  # one example a pick: its caption against its choices
        examples = []
        for pick in rng.integers(0, len(corpus.pairs), size=train_cfg.batch_size):
            pair = corpus.pairs[int(pick)]
            examples.append([replace(entry, caption_id=pair.caption_id, tokens=pair.tokens) for entry in
                             choice_images(corpus, image_index, pair.image_id, rng, train_cfg.num_distractors)])
        return [examples[rows] for rows in _even_slices(len(examples), train_cfg.shards)]

    def shard_loss(examples):
        items = [item for example in examples for item in example]
        out = model.forward(batch=make_batch(items, **model_cfg.limits), image_rows=[], text_rows=[])
        stacked = nt.reshape(model.itm_score(out.pooled_image, out.pooled_text), (len(examples), choices))
        targets = np.zeros(len(examples), dtype=np.int64)  # true image sits at slot 0
        loss = nt.cross_entropy_logits(stacked, targets, scale=len(examples) / train_cfg.batch_size)
        return loss, (loss.item(), stacked.values)

    def columns(summaries):
        loss = sum(summary[0] for summary in summaries)
        credit = choice_credit(np.concatenate([summary[1] for summary in summaries]))
        return loss, {"loss": loss, "accuracy": float(np.mean(credit))}

    metrics = _optimise(model, train_cfg, draw, shard_loss, columns, FinetuneMetrics, step_callback, shadow)
    return FinetuneResult(model=model, ema_values=shadow, metrics=metrics)

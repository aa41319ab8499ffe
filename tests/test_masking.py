"""Box overlap, segment/region mask plans, and mask application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interbert.data import synth_corpus, synth_vocabulary
from interbert.masking import (
    ACTION_KEEP,
    ACTION_MASK,
    ACTION_RANDOM,
    MaskingConfig,
    apply_masks,
    build_mask_plan,
    iou,
    link_masked_regions,
    mask_pair,
    sample_mrm_plan,
    sample_msm_plan,
)
from interbert.numerics import IGNORE_INDEX


def config(**overrides):
    cfg = MaskingConfig(**overrides)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# IoU
# ---------------------------------------------------------------------------

def test_iou_identical_boxes():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0


def test_iou_disjoint_boxes():
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0


def test_iou_hand_case_with_grid_oracle():
    # (0,0,2,2) vs (1,1,3,3): unit-cell count gives inter 1, union 7
    def grid_iou(a, b, cells=60):
        xs = np.linspace(0, 3, cells, endpoint=False) + 1.5 / cells
        xx, yy = np.meshgrid(xs, xs)

        def inside(box):
            return (xx >= box[0]) & (xx < box[2]) & (yy >= box[1]) & (yy < box[3])

        ia, ib = inside(a), inside(b)
        return (ia & ib).sum() / (ia | ib).sum()

    a, b = (0, 0, 2, 2), (1, 1, 3, 3)
    assert abs(iou(a, b) - 1 / 7) < 1e-12
    assert abs(grid_iou(a, b) - 1 / 7) < 1e-3


def test_iou_symmetry_and_self(rng):
    for _ in range(50):
        x1, y1 = rng.uniform(0, 5, size=2)
        a = (x1, y1, x1 + rng.uniform(0.5, 3), y1 + rng.uniform(0.5, 3))
        x1, y1 = rng.uniform(0, 5, size=2)
        b = (x1, y1, x1 + rng.uniform(0.5, 3), y1 + rng.uniform(0.5, 3))
        assert iou(a, b) == iou(b, a)
        assert iou(a, a) == 1.0
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_degenerate_box():
    with pytest.raises(ValueError):
        iou((0, 0, 0, 1), (0, 0, 1, 1))


# ---------------------------------------------------------------------------
# text plans
# ---------------------------------------------------------------------------

def test_msm_zero_anchor_prob_is_empty(rng):
    vocab = synth_vocabulary(6)
    positions, actions = sample_msm_plan([1, 5, 6, 7, 2], vocab, rng, config(anchor_prob=0.0))
    assert positions == [] and actions == []


def test_msm_single_token_extension_truncates(rng):
    # one content token, anchor certain, extension up to 2: only that token
    vocab = synth_vocabulary(6)
    for _ in range(20):
        positions, _ = sample_msm_plan([1, 5, 2], vocab, rng, config(anchor_prob=1.0, max_extension=2))
        assert positions == [1]


def test_msm_never_touches_special_tokens(rng):
    vocab = synth_vocabulary(6)
    tokens = [1, 5, 6, 0, 0, 2]  # trailing padding
    for _ in range(50):
        positions, _ = sample_msm_plan(tokens, vocab, rng, config(anchor_prob=1.0))
        assert set(positions) <= {1, 2}


def test_msm_extension_covers_following_content(rng):
    vocab = synth_vocabulary(6)
    # force anchors everywhere with zero extension: every content position masked
    positions, _ = sample_msm_plan([1, 5, 6, 7, 2], vocab, rng, config(anchor_prob=1.0, max_extension=0))
    assert positions == [1, 2, 3]


def test_msm_anchor_rate_statistic():
    # with extension 0 the masked set is exactly the anchor set
    vocab = synth_vocabulary(6)
    rng = np.random.default_rng(17)
    cfg = config(max_extension=0)
    tokens = [1] + [5] * 20 + [2]
    total = hits = 0
    for _ in range(5000):
        positions, _ = sample_msm_plan(tokens, vocab, rng, cfg)
        hits += len(positions)
        total += 20
    rate = hits / total
    assert abs(rate - 0.10) < 0.005


def test_msm_action_mix_statistic():
    vocab = synth_vocabulary(6)
    rng = np.random.default_rng(23)
    cfg = config(anchor_prob=1.0, max_extension=0)
    counts = {ACTION_MASK: 0, ACTION_RANDOM: 0, ACTION_KEEP: 0}
    drawn = 0
    tokens = [1] + [5] * 25 + [2]
    while drawn < 100_000:
        _, actions = sample_msm_plan(tokens, vocab, rng, cfg)
        for a in actions:
            counts[a] += 1
        drawn += len(actions)
    assert abs(counts[ACTION_MASK] / drawn - 0.8) < 0.01
    assert abs(counts[ACTION_RANDOM] / drawn - 0.1) < 0.01
    assert abs(counts[ACTION_KEEP] / drawn - 0.1) < 0.01


def test_msm_masked_fraction_matches_simulation_oracle():
    """Mean masked fraction vs an independent vectorized simulation."""
    n_content, n_seq = 18, 60_000
    cfg = config()

    def oracle(seed):
        gen = np.random.default_rng(seed)
        anchors = gen.random((n_seq, n_content)) < cfg.anchor_prob
        extents = gen.integers(0, cfg.max_extension + 1, size=(n_seq, n_content))
        covered = np.zeros_like(anchors)
        for j in range(n_content):
            hit = anchors[:, j]
            reach = np.minimum(j + extents[:, j], n_content - 1)
            for offset in range(cfg.max_extension + 1):
                col = j + offset
                if col >= n_content:
                    break
                covered[:, col] |= hit & (reach >= col)
        return covered.mean()

    vocab = synth_vocabulary(6)
    rng = np.random.default_rng(31)
    tokens = [1] + [5] * n_content + [2]
    masked = sum(len(sample_msm_plan(tokens, vocab, rng, cfg)[0]) for _ in range(n_seq))
    observed = masked / (n_seq * n_content)
    expected = oracle(seed=77)
    assert abs(observed - expected) < 0.003


# ---------------------------------------------------------------------------
# region plans
# ---------------------------------------------------------------------------

def test_link_disjoint_boxes_masks_anchors_only():
    boxes = [[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50]]
    assert link_masked_regions(boxes, [1], 0.4) == [1]


def test_link_identical_boxes_mask_together():
    boxes = [[0, 0, 10, 10], [0, 0, 10, 10]]
    assert link_masked_regions(boxes, [0], 0.4) == [0, 1]


def test_link_is_single_step_not_transitive():
    # box1 overlaps anchor box0 heavily; box2 overlaps box1 but not box0
    boxes = [
        [0.0, 0.0, 10.0, 10.0],
        [1.0, 0.0, 11.0, 10.0],
        [8.5, 0.0, 18.5, 10.0],
    ]
    assert iou(boxes[0], boxes[1]) > 0.4
    assert iou(boxes[1], boxes[2]) > 0.1
    assert iou(boxes[0], boxes[2]) < 0.4
    masked = link_masked_regions(boxes, [0], 0.4)
    assert masked == [0, 1]


def test_link_hand_layout_closure():
    # five boxes with a known overlap pattern around anchor 0
    boxes = [
        [0, 0, 10, 10],     # anchor
        [0, 0, 10, 9],      # IoU 0.9 -> linked
        [5, 0, 15, 10],     # IoU 1/3 -> not linked
        [0, 0, 10, 10],     # identical -> linked
        [30, 30, 40, 40],   # disjoint
    ]
    assert link_masked_regions(boxes, [0], 0.4) == [0, 1, 3]


def test_link_threshold_is_strict():
    # exact-binary coordinates give IoU of exactly 0.5: inter 1.0, union 2.0
    a = [0.0, 0.0, 1.5, 1.0]
    b = [0.5, 0.0, 2.0, 1.0]
    assert iou(a, b) == 0.5
    assert link_masked_regions([a, b], [0], 0.5) == [0]
    assert link_masked_regions([a, b], [0], 0.49) == [0, 1]


def test_mrm_anchor_statistics():
    rng = np.random.default_rng(3)
    boxes = [[0, 0, 5, 5], [20, 20, 25, 25], [40, 40, 45, 45], [60, 60, 65, 65]]
    cfg = config()
    hits = sum(len(sample_mrm_plan(boxes, rng, cfg)) for _ in range(30_000))
    rate = hits / (30_000 * 4)
    assert abs(rate - 0.10) < 0.01


# ---------------------------------------------------------------------------
# apply_masks
# ---------------------------------------------------------------------------

def test_apply_empty_plan_is_identity(rng):
    corpus = synth_corpus(seed=1, num_images=2)
    pair = corpus.pairs[0]
    sample = mask_pair(pair, corpus.vocab, rng, config(anchor_prob=0.0))
    assert np.array_equal(sample.tokens, pair.tokens)
    assert np.array_equal(sample.features, pair.features)
    assert np.all(sample.msm_targets == IGNORE_INDEX)
    assert np.all(sample.mrm_targets == IGNORE_INDEX)


def test_apply_keep_action_still_sets_target(rng):
    vocab = synth_vocabulary(6)
    tokens = np.array([1, 5, 6, 2])
    from interbert.masking import MaskPlan

    plan = MaskPlan(text_positions=[2], text_actions=[ACTION_KEEP], text_targets=[6],
                    image_positions=[], image_targets=[])
    new_tokens, _, msm_targets, _ = apply_masks(tokens, np.ones((1, 4)), plan, vocab, rng)
    assert np.array_equal(new_tokens, tokens)
    assert msm_targets[2] == 6
    assert msm_targets[0] == IGNORE_INDEX


def test_apply_mask_and_random_actions(rng):
    vocab = synth_vocabulary(6)
    tokens = np.array([1, 5, 6, 7, 2])
    from interbert.masking import MaskPlan

    plan = MaskPlan(text_positions=[1, 2], text_actions=[ACTION_MASK, ACTION_RANDOM],
                    text_targets=[5, 6], image_positions=[], image_targets=[])
    new_tokens, _, targets, _ = apply_masks(tokens, np.ones((1, 4)), plan, vocab, rng)
    assert new_tokens[1] == vocab.mask_id
    assert int(new_tokens[2]) in set(vocab.content_ids.tolist())
    assert targets[1] == 5 and targets[2] == 6


def test_apply_zeroes_masked_object_rows(rng):
    vocab = synth_vocabulary(6)
    from interbert.masking import MaskPlan

    features = np.arange(12, dtype=float).reshape(3, 4) + 1.0
    plan = MaskPlan(text_positions=[], text_actions=[], text_targets=[],
                    image_positions=[2], image_targets=[4])
    _, new_features, _, mrm_targets = apply_masks(np.array([1, 5, 2]), features, plan, vocab, rng)
    assert np.all(new_features[2] == 0.0)
    assert np.array_equal(new_features[:2], features[:2])
    assert mrm_targets[2] == 4
    assert mrm_targets[0] == IGNORE_INDEX


def test_mask_pair_preserves_raw_copies(rng):
    corpus = synth_corpus(seed=6, num_images=3)
    pair = corpus.pairs[0]
    sample = mask_pair(pair, corpus.vocab, rng, config(anchor_prob=0.9))
    assert np.array_equal(sample.raw_tokens, pair.tokens)
    for position in sample.plan.image_positions:
        assert np.all(sample.features[position] == 0.0)


def test_masking_config_validation():
    with pytest.raises(ValueError):
        config(action_mask_prob=0.9, action_random_prob=0.2, action_keep_prob=0.1)
    with pytest.raises(ValueError):
        config(anchor_prob=1.5)


# ---------------------------------------------------------------------------
# mask_pair invariants, over random plans, configs and captions
# ---------------------------------------------------------------------------

PROPERTY_CORPUS = synth_corpus(seed=8, num_images=12, max_objects=8)
MIXES = [(0.8, 0.1, 0.1), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), image=st.integers(0, len(PROPERTY_CORPUS.pairs) - 1),
       body=st.none() | st.lists(st.integers(0, PROPERTY_CORPUS.vocab.size - 1), max_size=12),
       anchor_prob=st.floats(0.0, 1.0), max_extension=st.integers(0, 4),
       iou_threshold=st.floats(0.0, 1.0), mix=st.sampled_from(MIXES))
def test_mask_pair_invariants(seed, image, body, anchor_prob, max_extension, iou_threshold, mix):
    """Special tokens (also mid-caption, through an override) are never
    rewritten and never targets; targets carry the original id or class
    exactly on the plan's positions and IGNORE_INDEX off them; masked
    feature rows are exactly zero and every other row is unchanged."""
    vocab, pair = PROPERTY_CORPUS.vocab, PROPERTY_CORPUS.pairs[image]
    cfg = config(anchor_prob=anchor_prob, max_extension=max_extension, iou_threshold=iou_threshold,
                 action_mask_prob=mix[0], action_random_prob=mix[1], action_keep_prob=mix[2])
    tokens = pair.tokens if body is None else np.array([vocab.cls_id, *body, vocab.sep_id])
    sample = mask_pair(pair, vocab, np.random.default_rng(seed), cfg, tokens_override=tokens)
    plan = sample.plan

    special = np.isin(tokens, list(vocab.special_ids()))
    planned = np.zeros(tokens.size, dtype=bool)
    planned[plan.text_positions] = True
    assert not np.any(planned & special)
    assert np.array_equal(sample.msm_targets[planned], tokens[planned])
    assert np.all(sample.msm_targets[~planned] == IGNORE_INDEX)
    assert np.array_equal(sample.tokens[~planned], tokens[~planned])
    for position, action in zip(plan.text_positions, plan.text_actions):
        written = sample.tokens[position]
        if action == ACTION_MASK:
            assert written == vocab.mask_id
        elif action == ACTION_RANDOM:
            assert written in vocab.content_ids
        else:
            assert written == tokens[position]

    masked = np.zeros(pair.num_objects, dtype=bool)
    masked[plan.image_positions] = True
    assert np.array_equal(sample.mrm_targets[masked], pair.labels[masked])
    assert np.all(sample.mrm_targets[~masked] == IGNORE_INDEX)
    assert np.all(sample.features[masked] == 0.0)
    assert np.array_equal(sample.features[~masked], pair.features[~masked])

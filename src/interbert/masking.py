"""Group masking for pretraining.

Text masking draws anchor tokens and extends each anchor over the next few
content tokens; every covered position is independently rewritten with the
usual mask/random/keep mix. Image masking draws anchor objects and zeroes
each anchor together with every object whose box overlaps it strongly,
which stops the model from reading a masked region out of a near-duplicate
neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MaskingConfig
from .data import ImageTextPair, Vocabulary
from .numerics import IGNORE_INDEX

ACTION_MASK = "mask_token"
ACTION_RANDOM = "random_token"
ACTION_KEEP = "keep"


def iou(box_a, box_b) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes; 0 when disjoint."""
    ax1, ay1, ax2, ay2 = (float(v) for v in box_a)
    bx1, by1, bx2, by2 = (float(v) for v in box_b)
    if ax2 <= ax1 or ay2 <= ay1 or bx2 <= bx1 or by2 <= by1:
        raise ValueError("degenerate bounding box")
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def link_masked_regions(bboxes, anchors, threshold: float) -> list[int]:
    """Anchors plus every object whose overlap with an anchor exceeds the
    threshold (strictly). Single-step: linked objects recruit nothing."""
    boxes = np.asarray(bboxes, dtype=np.float64)
    masked = set(int(a) for a in anchors)
    for a in anchors:
        for j in range(boxes.shape[0]):
            if j not in masked and iou(boxes[j], boxes[a]) > threshold:
                masked.add(j)
    return sorted(masked)


@dataclass
class MaskPlan:
    """Which positions to rewrite and what their prediction targets are."""

    text_positions: list[int]
    text_actions: list[str]
    text_targets: list[int]
    image_positions: list[int]
    image_targets: list[int]


def sample_msm_plan(tokens, vocab: Vocabulary, rng, config: MaskingConfig) -> tuple[list[int], list[str]]:
    """Masked text positions and their rewrite actions.

    Special tokens are never maskable. Each content token is an anchor with
    probability anchor_prob; an anchor covers itself plus 0..max_extension
    following content tokens (uniform), truncated at the end of the content
    span. Covered positions are the union over anchors; each then draws its
    action independently.
    """
    tokens = np.asarray(tokens)
    special = vocab.special_ids()
    content = [i for i, t in enumerate(tokens) if int(t) not in special]
    covered: set[int] = set()
    anchor_draws = rng.random(len(content))
    for j, position in enumerate(content):
        if anchor_draws[j] < config.anchor_prob:
            extension = int(rng.integers(0, config.max_extension + 1))
            last = min(j + extension, len(content) - 1)
            covered.update(content[j:last + 1])
    positions = sorted(covered)
    actions = []
    for _ in positions:
        draw = rng.random()
        if draw < config.action_mask_prob:
            actions.append(ACTION_MASK)
        elif draw < config.action_mask_prob + config.action_random_prob:
            actions.append(ACTION_RANDOM)
        else:
            actions.append(ACTION_KEEP)
    return positions, actions


def sample_mrm_plan(bboxes, rng, config: MaskingConfig) -> list[int]:
    """Masked object indices: anchors at anchor_prob plus their IoU links."""
    boxes = np.asarray(bboxes, dtype=np.float64)
    if boxes.shape[0] < 1:
        raise ValueError("need at least one object")
    anchors = np.flatnonzero(rng.random(boxes.shape[0]) < config.anchor_prob)
    return link_masked_regions(boxes, anchors.tolist(), config.iou_threshold)


def build_mask_plan(tokens, labels, bboxes, vocab: Vocabulary, rng, config: MaskingConfig) -> MaskPlan:
    text_positions, actions = sample_msm_plan(tokens, vocab, rng, config)
    image_positions = sample_mrm_plan(bboxes, rng, config)
    tokens = np.asarray(tokens)
    labels = np.asarray(labels)
    return MaskPlan(
        text_positions=text_positions,
        text_actions=actions,
        text_targets=[int(tokens[i]) for i in text_positions],
        image_positions=image_positions,
        image_targets=[int(labels[i]) for i in image_positions],
    )


def apply_masks(tokens, features, plan: MaskPlan, vocab: Vocabulary, rng):
    """Rewrite a sample per plan.

    Returns (tokens, features, msm_targets, mrm_targets). Target arrays
    hold the original token id / class id at masked positions and
    IGNORE_INDEX everywhere else; masked feature rows are exactly zero.
    """
    toks = np.array(tokens, dtype=np.int64, copy=True)
    feats = np.array(features, dtype=np.float64, copy=True)
    msm_targets = np.full(toks.shape, IGNORE_INDEX, dtype=np.int64)
    mrm_targets = np.full(feats.shape[0], IGNORE_INDEX, dtype=np.int64)
    replacements = vocab.content_ids
    for position, action, target in zip(plan.text_positions, plan.text_actions, plan.text_targets):
        msm_targets[position] = target
        if action == ACTION_MASK:
            toks[position] = vocab.mask_id
        elif action == ACTION_RANDOM:
            toks[position] = int(replacements[rng.integers(0, replacements.size)])
    for position, target in zip(plan.image_positions, plan.image_targets):
        mrm_targets[position] = target
        feats[position, :] = 0.0
    return toks, feats, msm_targets, mrm_targets


@dataclass
class MaskedSample:
    """One training record after masking, plus its matching label."""

    image_id: int
    caption_id: int
    tokens: np.ndarray
    features: np.ndarray
    bboxes: np.ndarray
    labels: np.ndarray
    width: int
    height: int
    msm_targets: np.ndarray
    mrm_targets: np.ndarray
    itm_label: int
    plan: MaskPlan
    raw_tokens: np.ndarray = field(repr=False, default=None)
    raw_features: np.ndarray = field(repr=False, default=None)

    def model_inputs(self) -> dict:
        return {
            "tokens": self.tokens,
            "features": self.features,
            "bboxes": self.bboxes,
            "width": self.width,
            "height": self.height,
        }


def mask_pair(pair: ImageTextPair, vocab: Vocabulary, rng, config: MaskingConfig,
              itm_label: int = 1, tokens_override=None, caption_id_override=None) -> MaskedSample:
    """Mask one pair. ``tokens_override`` swaps in a mismatched caption
    (the image side, including region targets, stays the image's own)."""
    tokens = pair.tokens if tokens_override is None else np.asarray(tokens_override, dtype=np.int64)
    plan = build_mask_plan(tokens, pair.labels, pair.bboxes, vocab, rng, config)
    masked_tokens, masked_features, msm_targets, mrm_targets = apply_masks(
        tokens, pair.features, plan, vocab, rng)
    return MaskedSample(
        image_id=pair.image_id,
        caption_id=pair.caption_id if caption_id_override is None else int(caption_id_override),
        tokens=masked_tokens,
        features=masked_features,
        bboxes=pair.bboxes,
        labels=pair.labels,
        width=pair.width,
        height=pair.height,
        msm_targets=msm_targets,
        mrm_targets=mrm_targets,
        itm_label=itm_label,
        plan=plan,
        raw_tokens=np.array(tokens, dtype=np.int64, copy=True),
        raw_features=np.array(pair.features, dtype=np.float64, copy=True),
    )

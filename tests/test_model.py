"""Network behaviour: embeddings, attention vs a naive loop oracle, stream
isolation, masking/padding invariance, and the full-model gradient check."""

import math

import numpy as np
import pytest

import interbert.numerics as nt
from interbert.data import ImageTextPair, make_batch, synth_corpus
from interbert.masking import MaskingConfig, mask_pair
from interbert.model import (
    InterBert,
    ModelConfig,
    VARIANT_SINGLE_STREAM,
    build_layout,
    count_parameters,
    init_parameters,
    parameter_spec,
)
from interbert.model.network import summary_rows
from interbert.numerics import ParameterSet, Tensor, backward, finite_diff_check


def tiny_config(**overrides):
    base = dict(
        hidden_size=8,
        num_heads=2,
        ffn_size=16,
        num_interaction_layers=2,
        num_extraction_layers=1,
        vocab_size=50,
        object_feature_dim=6,
        max_text_len=12,
        max_objects=6,
        num_object_classes=5,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_inputs(rng, m=4, n_tokens=6, config=None):
    config = config or tiny_config()
    tokens = np.concatenate([[1], rng.integers(4, config.vocab_size, size=n_tokens - 2), [2]])
    features = rng.normal(size=(m, config.object_feature_dim))
    x1 = rng.uniform(0, 50, size=m)
    y1 = rng.uniform(0, 50, size=m)
    bboxes = np.stack([x1, y1, x1 + rng.uniform(5, 40, size=m), y1 + rng.uniform(5, 40, size=m)], axis=1)
    return dict(tokens=tokens, features=features, bboxes=bboxes, width=100, height=100)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_deterministic():
    cfg = tiny_config()
    a = init_parameters(cfg, seed=42)
    b = init_parameters(cfg, seed=42)
    assert a.names() == b.names()
    for name in a.names():
        assert np.array_equal(a[name].values, b[name].values)


def test_init_weight_std_monte_carlo():
    cfg = tiny_config(hidden_size=768, num_heads=12, ffn_size=128, vocab_size=100,
                      num_interaction_layers=1, num_extraction_layers=1)
    params = init_parameters(cfg, seed=0)
    w = params["interaction.layer0.attn.wq"].values  # 768 x 768 draw
    assert abs(w.std() - 0.02) < 0.002
    assert abs(w.mean()) < 0.001


def test_init_ln_gains_ones_biases_zero():
    params = init_parameters(tiny_config(), seed=1)
    assert np.all(params["interaction.layer0.ln1.gain"].values == 1.0)
    assert np.all(params["interaction.layer0.ln1.bias"].values == 0.0)
    assert np.all(params["embed.feature_proj.b"].values == 0.0)


def test_parameter_count_stable_and_consistent():
    cfg = tiny_config()
    count = count_parameters(cfg)
    assert count == count_parameters(cfg)
    assert count == init_parameters(cfg, seed=0).num_values()


def test_parameter_count_full_scale_logged():
    # full-scale configuration; counted from shapes without allocating
    count = count_parameters(ModelConfig())
    assert count > 100_000_000
    print(f"full-scale parameter count: {count}")


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(hidden_size=10, num_heads=4).validate()
    with pytest.raises(ValueError):
        tiny_config(num_extraction_layers=0).validate()
    tiny_config(num_extraction_layers=0, architecture_variant=VARIANT_SINGLE_STREAM).validate()
    with pytest.raises(ValueError):
        ModelConfig.from_dict({"hidden": 4})
    for heads in (0, -4):  # -4 divides 8, so only a sign check refuses it
        with pytest.raises(ValueError, match="num_heads"):
            tiny_config(num_heads=heads).validate()


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def image_batch(features, bboxes, tokens=(1, 2)):
    """One 100x100 image's objects, and a caption, as a batch of one."""
    return make_batch([ImageTextPair(image_id=0, caption_id=0, tokens=tokens, width=100, height=100,
                                     features=features, bboxes=bboxes, labels=np.zeros(len(bboxes)))])


def caption_batch(tokens):
    """One caption, beside a one-object image, as a batch of one."""
    return image_batch(np.zeros((1, 6)), np.array([[0.0, 0.0, 10.0, 10.0]]), tokens)


def test_embed_text_shape_and_position_effect(rng):
    model = InterBert.create(tiny_config(), seed=0)
    out = model.embed_text(caption_batch([1, 7, 7, 2]))
    assert out.shape == (4, 8)
    # same token at different positions embeds differently
    assert not np.allclose(out.values[1], out.values[2])


def test_embed_text_zeroed_tables_yield_bias_rows():
    model = InterBert.create(tiny_config(), seed=0)
    for name in ("embed.token_table", "embed.position_table", "embed.segment_table"):
        model.params[name].values[...] = 0.0
    bias = model.params["embed.text_ln.bias"].values
    out = model.embed_text(caption_batch([1, 5, 2])).values
    for row in out:
        np.testing.assert_allclose(row, bias, atol=1e-5)


def test_embed_text_length_limit():
    model = InterBert.create(tiny_config(max_text_len=4), seed=0)
    with pytest.raises(ValueError):
        model.embed_text(caption_batch([1, 5, 5, 5, 2]))


def test_embed_image_shapes(rng):
    model = InterBert.create(tiny_config(), seed=0)
    inputs = tiny_inputs(rng, m=3)
    out = model.embed_image(image_batch(inputs["features"], inputs["bboxes"]))
    assert out.shape == (4, 8)


def test_embed_image_summary_is_feature_space_mean(rng):
    # opposite features cancel: the summary row depends only on the mean,
    # so f,-f and g,-g give identical summary rows
    model = InterBert.create(tiny_config(), seed=0)
    boxes = np.array([[0.0, 0.0, 100.0, 100.0], [0.0, 0.0, 100.0, 100.0]])
    f = rng.normal(size=6)
    g = rng.normal(size=6)
    row_f = model.embed_image(image_batch(np.stack([f, -f]), boxes)).values[0]
    row_g = model.embed_image(image_batch(np.stack([g, -g]), boxes)).values[0]
    np.testing.assert_allclose(row_f, row_g, atol=1e-12)


def test_embed_image_single_object_summary_equals_object(rng):
    # with one object whose box is the whole image, the summary row sees the
    # same feature vector and the same geometry, so the rows coincide
    model = InterBert.create(tiny_config(), seed=0)
    f = rng.normal(size=(1, 6))
    box = np.array([[0.0, 0.0, 100.0, 100.0]])
    out = model.embed_image(image_batch(f, box)).values
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


@pytest.mark.parametrize("samples", [7, 48])
@pytest.mark.parametrize("width", [5, 16, 2048])
def test_summary_rows_equal_the_per_sample_mean_bit_for_bit(samples, width):
    rng = np.random.default_rng(samples * width)
    objects = rng.integers(1, 9, size=samples)
    feats = rng.normal(size=(objects.sum(), width))
    starts = np.cumsum(objects) - objects
    expected = np.stack([feats[s:s + m].sum(axis=0) / m for s, m in zip(starts, objects)])
    assert np.array_equal(summary_rows(feats, objects), expected)


def test_embed_image_errors(rng):
    model = InterBert.create(tiny_config(), seed=0)
    with pytest.raises(ValueError):
        model.embed_image(image_batch(np.zeros((0, 6)), np.zeros((0, 4))))
    with pytest.raises(ValueError):
        model.embed_image(image_batch(np.zeros((1, 6)), np.array([[0.0, 0.0, 120.0, 50.0]])))

    def pair(objects, width=100):
        return ImageTextPair(image_id=0, caption_id=0, tokens=(1, 2), width=width, height=100,
                             features=np.ones((objects, 6)), bboxes=np.tile([0.0, 0.0, 80.0, 40.0], (objects, 1)),
                             labels=np.zeros(objects))

    # a zero-object sample between two others: its summary would be a mean of nothing
    with pytest.raises(ValueError, match="at least one object"):
        model.embed_image(make_batch([pair(2), pair(0), pair(1)]))
    # each box is checked against its own image: x2 = 80 fits 100 wide, not 50
    with pytest.raises(ValueError, match="outside image bounds"):
        model.embed_image(make_batch([pair(1), pair(1, width=50)]))
    assert model.embed_image(make_batch([pair(1), pair(1, width=80)])).shape == (4, 8)


# ---------------------------------------------------------------------------
# interaction stack vs naive oracle
# ---------------------------------------------------------------------------

def naive_encoder_layer(x, p, prefix, key_bias, num_heads, eps):
    """Per-position attention loop plus FFN, written independently of the
    tensor engine (plain numpy, explicit loops)."""
    length, hidden = x.shape
    head_dim = hidden // num_heads
    q = x @ p[prefix + "attn.wq"].values + p[prefix + "attn.bq"].values
    k = x @ p[prefix + "attn.wk"].values
    v = x @ p[prefix + "attn.wv"].values + p[prefix + "attn.bv"].values
    attended = np.zeros_like(x)
    for h in range(num_heads):
        s = slice(h * head_dim, (h + 1) * head_dim)
        for i in range(length):
            scores = np.empty(length)
            for j in range(length):
                scores[j] = float(q[i, s] @ k[j, s]) / math.sqrt(head_dim) + key_bias[j]
            scores -= scores.max()
            weights = np.exp(scores)
            weights /= weights.sum()
            for j in range(length):
                attended[i, s] += weights[j] * v[j, s]
    attended = attended @ p[prefix + "attn.wo"].values + p[prefix + "attn.bo"].values

    def ln(rows, gain, bias):
        mu = rows.mean(axis=-1, keepdims=True)
        var = ((rows - mu) ** 2).mean(axis=-1, keepdims=True)
        return (rows - mu) / np.sqrt(var + eps) * gain + bias

    mid = ln(x + attended, p[prefix + "ln1.gain"].values, p[prefix + "ln1.bias"].values)
    inner = mid @ p[prefix + "ffn.w1"].values + p[prefix + "ffn.b1"].values
    from scipy.special import erf

    inner = inner * 0.5 * (1.0 + erf(inner / math.sqrt(2.0)))
    ff = inner @ p[prefix + "ffn.w2"].values + p[prefix + "ffn.b2"].values
    return ln(mid + ff, p[prefix + "ln2.gain"].values, p[prefix + "ln2.bias"].values)


def test_single_layer_matches_naive_attention_oracle():
    cfg = tiny_config(num_interaction_layers=1)
    rng = np.random.default_rng(0)
    for trial in range(20):
        model = InterBert.create(cfg, seed=trial)
        x = rng.normal(size=(7, cfg.hidden_size))
        layout = build_layout(2, 4)  # 3 image + 4 text positions
        got = model.interaction_forward(Tensor(x), layout).values
        want = naive_encoder_layer(x, model.params, "interaction.layer0.",
                                   layout.key_bias(), cfg.num_heads, cfg.ln_eps)
        assert np.max(np.abs(got - want)) < 1e-10


def test_single_layer_one_head_hand_weights():
    cfg = tiny_config(hidden_size=4, num_heads=1, ffn_size=4, num_interaction_layers=1)
    model = InterBert.create(cfg, seed=3)
    rng = np.random.default_rng(4)
    for name, t in model.params.items():
        if name.startswith("interaction.layer0."):
            t.values[...] = rng.normal(0, 0.5, size=t.values.shape)
        if name.endswith("ln1.gain") or name.endswith("ln2.gain"):
            t.values[...] = 1.0
        if name.endswith("ln1.bias") or name.endswith("ln2.bias"):
            t.values[...] = 0.0
    x = rng.normal(size=(5, 4))
    layout = build_layout(1, 3)
    got = model.interaction_forward(Tensor(x), layout).values
    want = naive_encoder_layer(x, model.params, "interaction.layer0.",
                               layout.key_bias(), 1, cfg.ln_eps)
    assert np.max(np.abs(got - want)) < 1e-10


def test_interaction_preserves_shape(rng):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=0)
    x = Tensor(rng.normal(size=(9, cfg.hidden_size)))
    out = model.interaction_forward(x, build_layout(4, 4))
    assert out.shape == x.shape


def test_zeroed_value_and_ffn_weights_give_iterated_ln(rng):
    cfg = tiny_config(num_interaction_layers=2)
    model = InterBert.create(cfg, seed=0)
    for name, t in model.params.items():
        if ".attn.wv" in name or ".attn.wo" in name or ".ffn.w" in name:
            t.values[...] = 0.0
        if ".attn.bv" in name or ".attn.bo" in name or ".ffn.b" in name:
            t.values[...] = 0.0
    x = rng.normal(size=(6, cfg.hidden_size))

    def ln(rows):
        mu = rows.mean(axis=-1, keepdims=True)
        var = ((rows - mu) ** 2).mean(axis=-1, keepdims=True)
        return (rows - mu) / np.sqrt(var + cfg.ln_eps)

    got = model.interaction_forward(Tensor(x), build_layout(2, 3)).values
    want = ln(ln(ln(ln(x))))  # two layers, two normalizations each
    assert np.max(np.abs(got - want)) < 1e-9


# ---------------------------------------------------------------------------
# extraction stack
# ---------------------------------------------------------------------------

def test_extraction_stream_isolation(rng):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=5)
    layout = build_layout(3, 5)
    fused = rng.normal(size=(9, cfg.hidden_size))
    perturbed = fused.copy()
    perturbed[layout.image_length:, :] += rng.normal(size=(5, cfg.hidden_size))
    out_a = model.extraction_forward(Tensor(fused), layout)
    out_b = model.extraction_forward(Tensor(perturbed), layout)
    assert np.array_equal(out_a.h_image.values, out_b.h_image.values)
    assert not np.allclose(out_a.h_text.values, out_b.h_text.values)


def test_extraction_spans_cover_input(rng):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=5)
    layout = build_layout(3, 5)
    out = model.extraction_forward(Tensor(rng.normal(size=(9, cfg.hidden_size))), layout)
    assert out.h_image.shape[0] + out.h_text.shape[0] == 9
    assert out.pooled_image.shape == (1, cfg.hidden_size)
    assert out.pooled_text.shape == (1, cfg.hidden_size)


def test_extraction_zeroed_weights_reproduce_spans_up_to_ln(rng):
    cfg = tiny_config(num_extraction_layers=1)
    model = InterBert.create(cfg, seed=0)
    for name, t in model.params.items():
        if name.startswith("extract_") and (".attn.wv" in name or ".attn.wo" in name or ".ffn.w" in name):
            t.values[...] = 0.0
        if name.startswith("extract_") and (".attn.bv" in name or ".attn.bo" in name or ".ffn.b" in name):
            t.values[...] = 0.0
    layout = build_layout(2, 4)
    fused = rng.normal(size=(7, cfg.hidden_size))

    def ln(rows):
        mu = rows.mean(axis=-1, keepdims=True)
        var = ((rows - mu) ** 2).mean(axis=-1, keepdims=True)
        return (rows - mu) / np.sqrt(var + cfg.ln_eps)

    out = model.extraction_forward(Tensor(fused), layout)
    np.testing.assert_allclose(out.h_image.values, ln(ln(fused[:3])), atol=1e-9)
    np.testing.assert_allclose(out.h_text.values, ln(ln(fused[3:])), atol=1e-9)


def test_extraction_rejected_under_single_stream(rng):
    cfg = tiny_config(num_extraction_layers=0, architecture_variant=VARIANT_SINGLE_STREAM)
    model = InterBert.create(cfg, seed=0)
    with pytest.raises(ValueError):
        model.extraction_forward(Tensor(rng.normal(size=(7, 8))), build_layout(2, 4))


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------

def test_itm_zero_vector_gates_everything(rng):
    model = InterBert.create(tiny_config(), seed=0)
    zero = Tensor(np.zeros((1, 8)))
    a = model.itm_score(zero, Tensor(rng.normal(size=(1, 8)))).item()
    b = model.itm_score(zero, Tensor(rng.normal(size=(1, 8)))).item()
    assert a == b


def test_itm_symmetry(rng):
    model = InterBert.create(tiny_config(), seed=0)
    u = Tensor(rng.normal(size=(1, 8)))
    v = Tensor(rng.normal(size=(1, 8)))
    assert model.itm_score(u, v).item() == model.itm_score(v, u).item()


def test_itm_hand_mlp():
    cfg = tiny_config(hidden_size=2, num_heads=1, ffn_size=2)
    model = InterBert.create(cfg, seed=0)
    p = model.params
    p["heads.itm.w1"].values[...] = np.array([[1.0, 0.0], [0.0, 1.0]])
    p["heads.itm.b1"].values[...] = 0.0
    p["heads.itm.w2"].values[...] = np.array([[2.0], [-1.0]])
    p["heads.itm.b2"].values[...] = 0.5
    u, v = np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]])
    gated = u * v  # [3, -2]
    gelu = lambda x: x * 0.5 * (1 + math.erf(x / math.sqrt(2)))
    want = 2.0 * gelu(3.0) - 1.0 * gelu(-2.0) + 0.5
    got = model.itm_score(Tensor(u), Tensor(v)).item()
    assert abs(got - want) < 1e-12


def test_msm_logits_shapes_and_zero_weights(rng):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=0)
    h = Tensor(rng.normal(size=(6, cfg.hidden_size)))
    out = model.msm_logits(h)
    assert out.shape == (6, cfg.vocab_size)
    model.params["heads.msm.w"].values[...] = 0.0
    model.params["heads.msm.b"].values[...] = 0.0
    logits = model.msm_logits(h)
    loss = nt.cross_entropy_logits(logits, [5] * 6)
    assert abs(loss.item() - math.log(cfg.vocab_size)) < 1e-12


def test_mrm_logits_exclude_summary(rng):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=0)
    h = Tensor(rng.normal(size=(5, cfg.hidden_size)))  # summary + 4 objects
    out = model.mrm_logits(h)
    assert out.shape == (4, cfg.num_object_classes)


def test_mrm_single_class_forced_zero_loss(rng):
    cfg = tiny_config(num_object_classes=1)
    model = InterBert.create(cfg, seed=0)
    h = Tensor(rng.normal(size=(3, cfg.hidden_size)))
    loss = nt.cross_entropy_logits(model.mrm_logits(h), [0, 0])
    assert loss.item() == 0.0  # log softmax of a single class


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------

def test_forward_deterministic(rng):
    model = InterBert.create(tiny_config(), seed=0)
    inputs = tiny_inputs(rng)
    a = model.forward(**inputs)
    b = model.forward(**inputs)
    assert np.array_equal(a.pooled_image.values, b.pooled_image.values)
    assert np.array_equal(a.h_text.values, b.h_text.values)


def test_single_stream_variant_shapes(rng):
    cfg = tiny_config(num_extraction_layers=0, architecture_variant=VARIANT_SINGLE_STREAM)
    model = InterBert.create(cfg, seed=0)
    inputs = tiny_inputs(rng, m=3, n_tokens=5)
    out = model.forward(**inputs)
    assert out.h_image.shape == (4, cfg.hidden_size)
    assert out.h_text.shape == (5, cfg.hidden_size)
    assert out.pooled_image.shape == (1, cfg.hidden_size)


def test_masked_feature_blackout(rng):
    """Replacing the original features of a masked object changes nothing:
    the model only ever sees the zeroed row."""
    corpus = synth_corpus(seed=3, num_images=4, num_classes=6, feature_dim=6)
    cfg = tiny_config(object_feature_dim=6, vocab_size=corpus.vocab.size,
                      num_object_classes=6)
    model = InterBert.create(cfg, seed=0)
    mask_cfg = MaskingConfig(anchor_prob=0.9)
    pair = corpus.pairs[0]
    gen = np.random.default_rng(8)
    sample = mask_pair(pair, corpus.vocab, gen, mask_cfg)
    assert sample.plan.image_positions, "fixture needs at least one masked object"

    out_a = model.forward(**sample.model_inputs())
    # corrupt the pre-mask original; re-apply the same plan
    from interbert.masking import apply_masks

    corrupted = pair.features.copy()
    for position in sample.plan.image_positions:
        corrupted[position] = rng.normal(size=6) * 100
    gen2 = np.random.default_rng(8)
    _, refeats, _, _ = apply_masks(sample.raw_tokens, corrupted, sample.plan, corpus.vocab, gen2)
    out_b = model.forward(tokens=sample.tokens, features=refeats, bboxes=sample.bboxes,
                          width=sample.width, height=sample.height)
    assert np.array_equal(out_a.h_image.values, out_b.h_image.values)
    assert np.array_equal(out_a.h_text.values, out_b.h_text.values)


# ---------------------------------------------------------------------------
# packed batches
# ---------------------------------------------------------------------------

def ragged_pairs(rng, cfg, shapes):
    """Pairs with the given (objects, tokens) counts, ids 0, 1, ..."""
    pairs = []
    for i, (m, n) in enumerate(shapes):
        inputs = tiny_inputs(rng, m=m, n_tokens=n, config=cfg)
        pairs.append(ImageTextPair(image_id=i, caption_id=i, tokens=inputs["tokens"], width=100 + 10 * i,
                                   height=90 + 5 * i, features=inputs["features"], bboxes=inputs["bboxes"],
                                   labels=np.zeros(m, dtype=np.int64)))
    return pairs


def sample_rows(out, batch, i, pair):
    """Sample i's rows of a batched forward, whose rows come packed, sample
    by sample."""
    image, text = int(batch.image_length[:i].sum()), int(batch.text_length[:i].sum())
    return (out.h_image.values[image: image + pair.num_objects + 1],
            out.h_text.values[text: text + pair.num_tokens],
            out.pooled_image.values[i], out.pooled_text.values[i])


@pytest.mark.parametrize("variant", ["interbert", VARIANT_SINGLE_STREAM])
def test_batched_forward_matches_single_sample_forwards(rng, variant):
    cfg = tiny_config(architecture_variant=variant)
    model = InterBert.create(cfg, seed=3)
    pairs = ragged_pairs(rng, cfg, [(2, 5), (4, 7), (3, 4), (1, 6)])
    batch = make_batch(pairs)
    out = model.forward(batch=batch)
    for i, pair in enumerate(pairs):
        one = model.forward(tokens=pair.tokens, features=pair.features, bboxes=pair.bboxes,
                            width=pair.width, height=pair.height)
        want = (one.h_image.values, one.h_text.values, one.pooled_image.values[0], one.pooled_text.values[0])
        for got, expected in zip(sample_rows(out, batch, i, pair), want):
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("variant", ["interbert", VARIANT_SINGLE_STREAM])
def test_float32_forward_stays_float32(rng, variant):
    cfg = tiny_config(architecture_variant=variant)
    single, double = (InterBert.create(cfg, seed=5, dtype=dtype) for dtype in (np.float32, np.float64))
    batch = make_batch(ragged_pairs(rng, cfg, [(2, 5), (4, 7), (3, 4)]))
    out32, out64 = single.forward(batch=batch), double.forward(batch=batch)
    logit32 = single.itm_score(out32.pooled_image, out32.pooled_text)
    produced = (out32.h_image, out32.h_text, out32.pooled_image, out32.pooled_text, logit32,
                single.msm_logits(out32.h_text), single.mrm_logits(out32.h_image, [1, 2]))
    assert [t.dtype for t in produced] == [np.float32] * len(produced)
    np.testing.assert_allclose(logit32.values, double.itm_score(out64.pooled_image, out64.pooled_text).values,
                               rtol=0, atol=1e-4)


def test_sample_outputs_ignore_batch_companions(rng):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=4)
    target, *companions = ragged_pairs(rng, cfg, [(3, 5), (2, 4), (6, 11), (1, 3)])
    first = make_batch([target, companions[0]])  # the target is the longest sample
    second = make_batch([companions[1], target, companions[2]])  # a longer companion, other slot
    rows_a = sample_rows(model.forward(batch=first), first, 0, target)
    rows_b = sample_rows(model.forward(batch=second), second, 1, target)
    for a, b in zip(rows_a, rows_b):
        assert np.max(np.abs(a - b)) <= 1e-12


# ---------------------------------------------------------------------------
# gradients through the whole network
# ---------------------------------------------------------------------------

def full_model_loss(model, sample_inputs, msm_targets, mrm_targets, itm_label):
    out = model.forward(**sample_inputs)
    msm = nt.cross_entropy_logits(model.msm_logits(out.h_text), msm_targets)
    mrm = nt.cross_entropy_logits(model.mrm_logits(out.h_image), mrm_targets)
    logit = nt.reshape(model.itm_score(out.pooled_image, out.pooled_text), (1,))
    itm = nt.binary_cross_entropy_logits(logit, [float(itm_label)])
    return nt.add(nt.add(msm, mrm), itm)


def test_full_model_gradcheck(rng):
    # init_std 0.5 puts the network at a generic point where attention is
    # non-degenerate, so no sampled coordinate has a vanishing gradient
    # that finite-difference roundoff could swamp
    cfg = tiny_config(init_std=0.5)
    model = InterBert.create(cfg, seed=9)
    inputs = tiny_inputs(rng, m=4, n_tokens=6, config=cfg)
    msm_targets = np.array([-1, 8, -1, 30, -1, -1])
    mrm_targets = np.array([-1, 2, 4, -1])

    def loss_fn():
        return full_model_loss(model, inputs, msm_targets, mrm_targets, 1)

    err = finite_diff_check(loss_fn, model.params, step=1e-5, sample_count=200, seed=11)
    assert err < 1e-4, f"full-model gradient mismatch: {err}"


def test_checkpoint_round_trip_through_model(tmp_path, rng):
    from interbert.numerics import save_checkpoint

    cfg = tiny_config()
    model = InterBert.create(cfg, seed=4)
    path = tmp_path / "model.ibt"
    save_checkpoint(path, model.params)
    clone = InterBert.from_checkpoint(cfg, path)
    inputs = tiny_inputs(rng)
    a = model.forward(**inputs)
    b = clone.forward(**inputs)
    assert np.array_equal(a.pooled_text.values, b.pooled_text.values)


def test_from_checkpoint_builds_the_spec_parameters_from_the_file(tmp_path, rng):
    """Parameters come out in ``parameter_spec`` order as trainable float64
    tensors equal to the file's values; missing, extra and misshapen
    entries are refused as before."""
    from interbert.model import parameter_spec
    from interbert.numerics import NumericsError, load_checkpoint, save_checkpoint

    cfg = tiny_config()
    path = tmp_path / "model.ibt"
    values = {name: rng.normal(size=shape) for name, shape, _ in parameter_spec(cfg)}
    save_checkpoint(path, dict(reversed(list(values.items()))))  # file order is not spec order
    model = InterBert.from_checkpoint(cfg, path)
    assert model.params.names() == list(values)
    for name, t in model.params.items():
        assert t.requires_grad and t.dtype == np.float64 and t.values.tobytes() == values[name].tobytes()
    reference = InterBert.create(cfg, seed=9)
    reference.params.load_values(load_checkpoint(path))
    assert all(t.values.tobytes() == reference.params[name].values.tobytes() for name, t in model.params.items())

    first = next(iter(values))
    for bad, message in (({k: v for k, v in values.items() if k != first}, "missing"),
                         ({**values, "extra.w": np.zeros(2)}, "extra"),
                         ({**values, first: values[first][:-1]}, f"shape mismatch for {first}")):
        save_checkpoint(path, bad)
        with pytest.raises(NumericsError, match=message):
            InterBert.from_checkpoint(cfg, path)


# ---------------------------------------------------------------------------
# packed rows and read rows
# ---------------------------------------------------------------------------

def real_rows(pairs, keep):
    """Of the packed image rows and the packed text rows, those of the real
    positions (summary and first token included) for which
    ``keep(sample, position)`` holds: (packed rows, their (sample, position))
    per stream."""
    streams = []
    for length in (lambda p: p.num_objects + 1, lambda p: p.num_tokens):
        cells = [(i, j) for i, p in enumerate(pairs) for j in range(length(p))]
        rows = [r for r, cell in enumerate(cells) if keep(*cell)]
        streams.append((np.array(rows, dtype=np.int64), [cells[r] for r in rows]))
    return streams


@pytest.mark.parametrize("variant", ["interbert", VARIANT_SINGLE_STREAM])
def test_read_rows_match_full_and_single_sample_forwards(rng, variant):
    cfg = tiny_config(architecture_variant=variant)
    model = InterBert.create(cfg, seed=6)
    pairs = ragged_pairs(rng, cfg, [(2, 5), (5, 8), (3, 4), (1, 6)])
    batch = make_batch(pairs)
    (image_rows, image_cells), (text_rows, text_cells) = real_rows(pairs, lambda i, j: j > 0 and (i + j) % 2 == 1)
    full = model.forward(batch=batch)
    read = model.forward(batch=batch, image_rows=image_rows, text_rows=text_rows)
    pooled_only = model.forward(batch=batch, image_rows=[], text_rows=[])
    assert read.h_image.shape == (image_rows.size, cfg.hidden_size)
    assert read.h_text.shape == (text_rows.size, cfg.hidden_size)
    assert pooled_only.h_image.shape == pooled_only.h_text.shape == (0, cfg.hidden_size)
    # read rows index the packed rows the full forward returns
    assert np.max(np.abs(read.h_image.values - full.h_image.values[image_rows])) <= 1e-12
    assert np.max(np.abs(read.h_text.values - full.h_text.values[text_rows])) <= 1e-12
    for out in (read, pooled_only):
        assert np.max(np.abs(out.pooled_image.values - full.pooled_image.values)) <= 1e-12
        assert np.max(np.abs(out.pooled_text.values - full.pooled_text.values)) <= 1e-12
    ones = [model.forward(tokens=p.tokens, features=p.features, bboxes=p.bboxes, width=p.width,
                          height=p.height) for p in pairs]
    for got, cells, field in ((read.h_image, image_cells, "h_image"), (read.h_text, text_cells, "h_text")):
        for k, (sample, position) in enumerate(cells):
            assert np.max(np.abs(got.values[k] - getattr(ones[sample], field).values[position])) <= 1e-12


def test_read_rows_outside_a_stream_are_refused(rng):
    for variant in ("interbert", VARIANT_SINGLE_STREAM):
        model = InterBert.create(tiny_config(architecture_variant=variant), seed=6)
        batch = make_batch(ragged_pairs(rng, model.config, [(2, 5), (5, 8)]))
        for name, count in (("image_rows", 3 + 6), ("text_rows", 5 + 8)):  # summary rows included
            for row in (count, -1):  # one past the end; -1 must not wrap around to the last row
                with pytest.raises(ValueError, match=f"{name} .* {count} real rows"):
                    model.forward(batch=batch, **{"image_rows": [], "text_rows": [], name: [0, row]})


def test_projections_receive_only_real_rows(rng, monkeypatch):
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=2)
    pairs = ragged_pairs(rng, cfg, [(2, 5), (5, 8), (3, 4)])
    batch = make_batch(pairs)
    names = {id(t): name for name, t in model.params.items()}
    seen, looked_up = [], []
    linear, lookup = nt.linear, nt.embedding_lookup

    def spy(a, b, bias=None):
        seen.append((names.get(id(b), ""), a.shape[0]))
        return linear(a, b, bias)

    def lookup_spy(table, ids):
        looked_up.append((names.get(id(table), ""), np.asarray(ids)))
        return lookup(table, ids)

    monkeypatch.setattr(nt, "linear", spy)
    monkeypatch.setattr(nt, "embedding_lookup", lookup_spy)
    n_image = sum(p.num_objects + 1 for p in pairs)
    n_text = sum(p.num_tokens for p in pairs)
    assert batch.features.shape[0] + len(batch) == n_image and batch.tokens.size == n_text  # exactly the real rows

    def layer_rows():
        rows = {(name.split(".")[0], name.rsplit(".", 1)[1]): n for name, n in seen if ".layer" in name}
        seen.clear()
        return rows

    model.forward(batch=batch)
    # projections and the token table see only real rows
    embedded = {name: n for name, n in seen if name.startswith("embed.")}
    assert embedded == {"embed.feature_proj.w": n_image, "embed.box_proj.w": n_image}
    token_ids = [ids for name, ids in looked_up if name == "embed.token_table"]
    assert len(token_ids) == 1 and np.array_equal(token_ids[0], np.concatenate([p.tokens for p in pairs]))
    expected = {"interaction": n_image + n_text, "extract_image": n_image, "extract_text": n_text}
    got = layer_rows()
    assert got and all(n == expected[block] for (block, _), n in got.items())

    # read rows: the last layer's keys and values see every real row, the rest only the rows read
    model.forward(batch=batch, image_rows=[], text_rows=[pairs[0].num_tokens + 2])  # sample 1's third token
    got = layer_rows()
    for block, read in (("extract_image", len(pairs)), ("extract_text", len(pairs) + 1)):
        assert got[(block, "wk")] == got[(block, "wv")] == expected[block]
        assert got[(block, "wq")] == got[(block, "wo")] == got[(block, "w1")] == got[(block, "w2")] == read


def test_long_companion_leaves_a_sample_loss_unchanged(rng):
    """A sample's masked-token, masked-region and matching losses, and their
    gradients, do not change when a long companion pads its batch."""
    cfg = tiny_config()
    model = InterBert.create(cfg, seed=7)
    target, companion = ragged_pairs(rng, cfg, [(2, 4), (6, 11)])

    def loss_and_grads(pairs, slot):
        batch = make_batch(pairs)
        image_at = sum(p.num_objects + 1 for p in pairs[:slot])  # packed offset of the slot's first row
        text_at = sum(p.num_tokens for p in pairs[:slot])
        out = model.forward(batch=batch, image_rows=[image_at + 2], text_rows=[text_at + 1, text_at + 2])
        logit = nt.reshape(nt.embedding_lookup(model.itm_score(out.pooled_image, out.pooled_text), [slot]), (1,))
        loss = nt.add(nt.add(nt.cross_entropy_logits(model.msm_logits(out.h_text), [7, 9]),
                             nt.cross_entropy_logits(model.mrm_logits(out.h_image, [0]), [3])),
                      nt.binary_cross_entropy_logits(logit, [1.0]))
        model.params.zero_grad()
        backward(loss, model.params)
        return loss.item(), {name: t.grad.copy() for name, t in model.params.items()}

    alone, alone_grads = loss_and_grads([target], 0)
    for pairs, slot in (([target, companion], 0), ([companion, target], 1)):
        padded, padded_grads = loss_and_grads(pairs, slot)
        assert abs(padded - alone) <= 1e-12
        for name, grad in alone_grads.items():
            assert np.max(np.abs(padded_grads[name] - grad)) <= 1e-12, name

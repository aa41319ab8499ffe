"""Forward-value oracles and per-op gradient checks for the tensor engine."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import interbert.numerics as nt
from interbert.numerics import (
    NumericsError,
    ParameterSet,
    Tensor,
    backward,
    finite_diff_check,
)
from interbert.numerics.tensor import _row_max
from reference_ops import mean_all, sum_all


def make_params(rng, **shapes):
    """Random parameters for gradient-check loss functions."""
    ps = ParameterSet()
    for name, shape in shapes.items():
        ps.add(name, Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True))
    return ps


def gradcheck(loss_fn, params, tol=1e-4, step=1e-5):
    err = finite_diff_check(loss_fn, params, step=step, sample_count=200, seed=7)
    assert err < tol, f"finite-difference mismatch: {err}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    m = Tensor([[2.0, -1.0], [0.5, 3.0]])
    eye = Tensor(np.eye(2))
    out = nt.matmul(eye, m)
    np.testing.assert_array_equal(out.values, m.values)


def test_matmul_hand_case():
    # [[1,2],[3,4]] @ [[1],[1]] worked out by hand: rows sum to 3 and 7
    out = nt.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.values, [[3.0], [7.0]])


def test_matmul_zero():
    z = Tensor(np.zeros((2, 2)))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(nt.matmul(z, m).values, np.zeros((2, 2)))


def test_matmul_shape_mismatch():
    with pytest.raises(NumericsError):
        nt.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradcheck(rng):
    ps = make_params(rng, a=(3, 4), b=(4, 2))
    w = rng.normal(size=(3, 2))
    gradcheck(lambda: sum_all(nt.mul(nt.matmul(ps["a"], ps["b"]), w)), ps)



def test_linear_matches_product_plus_bias(rng):
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4,))
    np.testing.assert_array_equal(nt.linear(Tensor(x), Tensor(w), Tensor(b)).values, x @ w + b)
    np.testing.assert_array_equal(nt.linear(Tensor(x), Tensor(w)).values, x @ w)
    with pytest.raises(NumericsError):
        nt.linear(Tensor(x), Tensor(w.T))


def test_linear_gradcheck(rng):
    ps = make_params(rng, x=(5, 3), w=(3, 4), b=(4,))
    weights = rng.normal(size=(5, 4))
    gradcheck(lambda: sum_all(nt.mul(nt.linear(ps["x"], ps["w"], ps["b"]), weights)), ps)
    bare = make_params(rng, x=(5, 3), w=(3, 4))
    gradcheck(lambda: sum_all(nt.mul(nt.linear(bare["x"], bare["w"]), weights)), bare)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

HEADS = 2


# Query rows go to a compact grid by their rank among their own sequence's
# query rows, so a sequence may hold any number of them, none included, and
# the rows need not come in sequence order.
QUERY_SEQUENCES = {
    "subset": [0, 0, 1, 1, 1, 2],
    "ragged": [0, 1, 1, 1, 1],
    "unordered": [1, 0, 1, 1, 1],
}


def ragged_attention_case(rng, dtype=np.float64, layout="subset"):
    """Three sequences holding 4, 6 and 2 key rows; the query rows belong
    to the sequences ``QUERY_SEQUENCES`` names."""
    keys = np.repeat([0, 1, 2], [4, 6, 2])
    queries = np.array(QUERY_SEQUENCES[layout])
    hidden = 4 * HEADS
    q, k, v = (rng.normal(size=(n, hidden)).astype(dtype) for n in (queries.size, keys.size, keys.size))
    return q, k, v, queries, keys


def naive_attention(q, k, v, queries, keys):
    """Per query row and head: softmax over the keys of its own sequence."""
    d = q.shape[1] // HEADS
    out = np.zeros_like(q)
    for r, seq in enumerate(queries):
        own = np.asarray(keys) == seq
        for h in range(HEADS):
            cols = slice(h * d, (h + 1) * d)
            scores = k[own, cols] @ q[r, cols] / math.sqrt(d)
            weights = np.exp(scores - scores.max())
            out[r, cols] = (weights / weights.sum()) @ v[own, cols]
    return out


def test_attention_matches_naive_per_head_reference(rng):
    for layout in QUERY_SEQUENCES:
        q, k, v, queries, keys = ragged_attention_case(rng, layout=layout)
        got = nt.attention(Tensor(q), Tensor(k), Tensor(v), queries, keys, HEADS).values
        assert got.shape == q.shape
        assert np.max(np.abs(got - naive_attention(q, k, v, queries, keys))) <= 1e-12, layout


def test_attention_gradcheck(rng):
    for layout in QUERY_SEQUENCES:
        q, k, v, queries, keys = ragged_attention_case(rng, layout=layout)
        ps = ParameterSet()
        for name, values in (("q", q), ("k", k), ("v", v)):
            ps.add(name, Tensor(values, requires_grad=True))
        weights = rng.normal(size=q.shape)
        gradcheck(lambda: sum_all(nt.mul(nt.attention(ps["q"], ps["k"], ps["v"], queries, keys, HEADS),
                                            weights)), ps)


def primitive_attention(q, k, v, queries, keys):
    """The attention of ``naive_attention`` built from the engine's row,
    product and softmax ops, one query row and head at a time."""
    d = q.shape[1] // HEADS

    def head(t, ids, h):
        return nt.narrow(nt.embedding_lookup(t, ids), 1, h * d, d)

    rows = []
    for r, seq in enumerate(queries):
        own = np.flatnonzero(keys == seq)
        heads = []
        for h in range(HEADS):
            scores = nt.mul(nt.matmul(head(q, [r], h), nt.transpose(head(k, own, h))), 1.0 / math.sqrt(d))
            heads.append(nt.matmul(nt.softmax(scores), head(v, own, h)))
        rows.append(nt.concat(heads, axis=1))
    return nt.concat(rows, axis=0)


def test_attention_repeated_backward_matches_primitive_ops(rng):
    """Two backward calls through one attention node leave q, k and v with
    the gradients the same two calls give through primitive ops."""
    q, k, v, queries, keys = ragged_attention_case(rng)
    w1, w2 = rng.normal(size=q.shape), rng.normal(size=q.shape)
    grads = []
    for attend in (lambda *t: nt.attention(*t, queries, keys, HEADS),
                   lambda *t: primitive_attention(*t, queries, keys)):
        inputs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = attend(*inputs)
        backward(sum_all(nt.mul(out, w1)))
        backward(sum_all(nt.mul(out, w2)))
        grads.append([t.grad for t in inputs])
    for fused, primitive in zip(*grads):
        assert np.max(np.abs(fused - primitive)) <= 1e-12


def test_attention_float32_stays_float32(rng):
    q, k, v, queries, keys = ragged_attention_case(rng, np.float32)
    inputs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
    out = nt.attention(*inputs, queries, keys, HEADS)
    assert out.dtype == np.float32
    backward(sum_all(out))
    assert all(t.grad.dtype == np.float32 for t in inputs)
    assert np.max(np.abs(out.values - naive_attention(q, k, v, queries, keys))) <= 1e-5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_untracked_attention_and_gelu_give_the_tracked_bytes(rng, dtype):
    """Without the tape, attention writes its context into the query grid and
    gelu works in one array; the values are the tracked path's bit for bit."""
    for layout in QUERY_SEQUENCES:
        q, k, v, queries, keys = ragged_attention_case(rng, dtype, layout)
        tracked = nt.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), queries, keys, HEADS)
        with nt.no_grad():
            inferred = nt.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), queries, keys, HEADS)
        constant = nt.attention(Tensor(q), Tensor(k), Tensor(v), queries, keys, HEADS)
        assert tracked._node is not None and inferred._node is None and constant._node is None
        assert inferred.values.tobytes() == tracked.values.tobytes() == constant.values.tobytes(), layout
        x = rng.normal(0.0, 2.0, size=(7, 5)).astype(dtype)
        assert nt.gelu(Tensor(x)).values.tobytes() == nt.gelu(Tensor(x, requires_grad=True)).values.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_attention_matches_naive_on_drawn_sequence_ids(data):
    """Sequence ids drawn at random: rows in any order, sequences with no
    query rows (or no rows at all) and sequences with a single key."""
    key_counts = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any))
    keys = np.array(data.draw(st.permutations(np.repeat(np.arange(len(key_counts)), key_counts).tolist())))
    queries = np.array(data.draw(st.lists(st.sampled_from(np.unique(keys).tolist()), max_size=10)), np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    q, k, v = (rng.normal(size=(n, 4 * HEADS)) for n in (queries.size, keys.size, keys.size))
    got = nt.attention(Tensor(q), Tensor(k), Tensor(v), queries, keys, HEADS).values
    assert got.shape == q.shape
    assert np.max(np.abs(got - naive_attention(q, k, v, queries, keys)), initial=0.0) <= 1e-12


def test_attention_refuses_a_query_whose_sequence_has_no_key(rng):
    q, k, v, _, keys = ragged_attention_case(rng)
    with pytest.raises(NumericsError, match="no key row"):
        nt.attention(Tensor(q[:1]), Tensor(k), Tensor(v), np.array([3]), keys, HEADS)


def test_row_max_is_bit_equal_to_numpy_max(rng):
    """The attention softmax's row max, for every row length 1-40, odd and
    even, with rows padded by NEG_LOGIT (one wholly padded) and in both
    precisions."""
    for length in range(1, 41):
        for dtype in (np.float64, np.float32):
            x = rng.normal(0.0, 10.0, size=(3, 2, 5, length)).astype(dtype)
            x[..., rng.integers(1, length + 1):] = nt.NEG_LOGIT
            x[0, 0, 0] = nt.NEG_LOGIT
            got = _row_max(x)
            assert got.dtype == dtype
            assert got.tobytes() == np.max(x, axis=-1, keepdims=True).tobytes(), (length, dtype)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    np.testing.assert_allclose(nt.softmax(Tensor([0.0, 0.0])).values, [0.5, 0.5])
    np.testing.assert_allclose(nt.softmax(Tensor([3.7] * 4)).values, [0.25] * 4)


def test_softmax_hand_case():
    # exp(ln k) = k, so the normalized row is k / 6
    x = Tensor([math.log(1.0), math.log(2.0), math.log(3.0)])
    np.testing.assert_allclose(nt.softmax(x).values, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


def test_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.normal(0, 5, size=(20, 9)))
    out = nt.softmax(x, axis=-1).values
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(20), atol=1e-12)
    assert np.all(out > 0) and np.all(out < 1)


def test_softmax_permutation_equivariance(rng):
    v = rng.normal(size=11)
    perm = rng.permutation(11)
    direct = nt.softmax(Tensor(v[perm])).values
    permuted = nt.softmax(Tensor(v)).values[perm]
    np.testing.assert_allclose(direct, permuted, atol=1e-15)


def test_softmax_gradcheck(rng):
    ps = make_params(rng, x=(4, 6))
    w = rng.normal(size=(4, 6))
    gradcheck(lambda: sum_all(nt.mul(nt.softmax(ps["x"], axis=-1), w)), ps)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row():
    x = Tensor([[5.0, 5.0, 5.0, 5.0]])
    out = nt.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.values, np.zeros((1, 4)), atol=1e-6)


def test_layer_norm_hand_case():
    # mean 0, population std 1 already, so the row passes through
    out = nt.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.values, [[1.0, -1.0]], atol=1e-9)


def test_layer_norm_zero_gain_broadcasts_bias(rng):
    x = Tensor(rng.normal(size=(3, 5)))
    bias = rng.normal(size=5)
    out = nt.layer_norm(x, Tensor(np.zeros(5)), Tensor(bias))
    np.testing.assert_allclose(out.values, np.tile(bias, (3, 1)), atol=1e-15)


def test_layer_norm_shift_scale_invariance(rng):
    x = rng.normal(0, 2.0, size=(8, 16))
    x = x / x.std(axis=-1, keepdims=True)  # rows with std exactly 1
    gain, bias = Tensor(np.ones(16)), Tensor(np.zeros(16))
    base = nt.layer_norm(Tensor(x), gain, bias).values
    moved = nt.layer_norm(Tensor(3.0 * x + 7.0), gain, bias).values
    assert np.max(np.abs(base - moved)) < 1e-6


def test_layer_norm_rejects_short_rows():
    with pytest.raises(NumericsError):
        nt.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))


def test_layer_norm_float64_matches_a_two_pass_longdouble_reference(rng):
    """Values and input gradients within 1e-14 of each row's largest
    magnitude (near-zero entries carry the cancellation of x - mean, so an
    entrywise relative bound would test that, not the reductions)."""
    n = 96
    x = rng.normal(0.5, 3.0, size=(64, n)) + rng.normal(0.0, 5.0, size=(64, 1))
    gain, bias, g = rng.normal(1.0, 0.5, size=n), rng.normal(size=n), rng.normal(size=(64, n))
    xt = Tensor(x, requires_grad=True)
    out = nt.layer_norm(xt, Tensor(gain), Tensor(bias))
    backward(sum_all(nt.mul(out, g)))

    wide = np.longdouble
    centred = x.astype(wide) - x.astype(wide).sum(axis=-1, keepdims=True) / n
    inv = 1 / np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / n + wide(1e-12))
    xhat = centred * inv
    gd = g.astype(wide) * gain.astype(wide)
    want_out = xhat * gain.astype(wide) + bias.astype(wide)
    want_grad = inv * (gd - gd.sum(axis=-1, keepdims=True) / n - xhat * (gd * xhat).sum(axis=-1, keepdims=True) / n)
    for got, want in ((out.values, want_out), (xt.grad, want_grad)):
        assert got.dtype == np.float64
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_layer_norm_float32_stays_float32(rng):
    x, gain, bias = (Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
                     for shape in ((7, 12), (12,), (12,)))
    out = nt.layer_norm(x, gain, bias)
    assert out.dtype == np.float32
    backward(sum_all(nt.mul(out, rng.normal(size=(7, 12)).astype(np.float32))))
    assert [t.grad.dtype for t in (x, gain, bias)] == [np.float32] * 3


def test_layer_norm_gradcheck(rng):
    ps = make_params(rng, x=(5, 8), gain=(8,), bias=(8,))
    w = rng.normal(size=(5, 8))
    gradcheck(lambda: sum_all(nt.mul(nt.layer_norm(ps["x"], ps["gain"], ps["bias"]), w)), ps)


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------

def test_gelu_zero_and_asymptote():
    assert nt.gelu(Tensor([0.0])).values[0] == 0.0
    assert abs(nt.gelu(Tensor([10.0])).values[0] - 10.0) < 1e-6


def test_gelu_at_one_vs_erf_oracle():
    # independent scalar path: Phi(1) = 0.5 * (1 + erf(1/sqrt(2)))
    phi_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(phi_1 - 0.841344746068543) < 1e-12
    assert abs(nt.gelu(Tensor([1.0])).values[0] - phi_1) < 1e-12


def test_gelu_gradcheck(rng):
    ps = make_params(rng, x=(6, 4))
    w = rng.normal(size=(6, 4))
    gradcheck(lambda: sum_all(nt.mul(nt.gelu(ps["x"]), w)), ps)


def test_gelu_gradient_is_the_saved_slope_times_the_upstream_gradient(rng):
    """Bit-equal to the slope Phi(v) + v * pdf(v) rebuilt in the same order
    of operations in the backward; the input's values are not kept."""
    v, g = rng.normal(0.0, 2.0, size=(6, 5)), rng.normal(size=(6, 5))
    x = Tensor(v.copy(), requires_grad=True)
    inner = nt.mul(x, 1.0)  # gelu's input, held by nothing but this name
    values = weakref.ref(inner.values)
    out = nt.gelu(inner)
    del inner
    assert values() is None
    backward(sum_all(nt.mul(out, g)))
    cdf = erf(v * (1.0 / math.sqrt(2.0)))
    cdf += 1.0
    cdf *= 0.5
    slope = -0.5 * v
    slope *= v
    np.exp(slope, out=slope)
    slope *= 1.0 / math.sqrt(2.0 * math.pi)
    slope *= v
    slope += cdf
    slope *= g
    assert out.values.tobytes() == (v * cdf).tobytes()
    assert x.grad.tobytes() == slope.tobytes()


# ---------------------------------------------------------------------------
# embedding_lookup
# ---------------------------------------------------------------------------

def test_embedding_identity_row():
    table = Tensor(np.eye(4))
    out = nt.embedding_lookup(table, [0])
    np.testing.assert_array_equal(out.values, [[1.0, 0.0, 0.0, 0.0]])


def test_embedding_repeated_ids(rng):
    table = Tensor(rng.normal(size=(6, 3)))
    out = nt.embedding_lookup(table, [2, 2, 2]).values
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_embedding_gradient_scatters():
    ps = ParameterSet()
    table = ps.add("table", Tensor(np.zeros((5, 3))))
    loss = sum_all(nt.embedding_lookup(table, [3, 3]))
    backward(loss, ps)
    expected = np.zeros((5, 3))
    expected[3] = 2.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_repeated_ids_gradient_matches_add_at(rng):
    ids = rng.integers(0, 5, size=40)
    ps = make_params(rng, table=(6, 3))
    weights = rng.normal(size=(40, 3))
    backward(sum_all(nt.mul(nt.embedding_lookup(ps["table"], ids), weights)), ps)
    want = np.zeros((6, 3))
    np.add.at(want, ids, weights)
    np.testing.assert_array_equal(ps["table"].grad, want)


def test_embedding_out_of_range():
    table = Tensor(np.zeros((3, 2)))
    with pytest.raises(NumericsError):
        nt.embedding_lookup(table, [3])
    with pytest.raises(NumericsError):
        nt.embedding_lookup(table, [-1])


# ---------------------------------------------------------------------------
# cross_entropy_logits
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    vocab = 11
    logits = Tensor(np.zeros((4, vocab)))
    out = nt.cross_entropy_logits(logits, [0, 3, 7, 10])
    assert abs(out.item() - math.log(vocab)) < 1e-12


def test_cross_entropy_confident_correct():
    logits = np.full((2, 5), -30.0)
    logits[0, 1] = 30.0
    logits[1, 4] = 30.0
    out = nt.cross_entropy_logits(Tensor(logits), [1, 4])
    assert out.item() < 1e-12


def test_cross_entropy_hand_case():
    # single row [1, 0], target 0: loss = ln(1 + e^-1)
    out = nt.cross_entropy_logits(Tensor([[1.0, 0.0]]), [0])
    assert abs(out.item() - math.log(1.0 + math.exp(-1.0))) < 1e-12


def test_cross_entropy_all_ignored_is_zero(rng):
    ps = make_params(rng, logits=(3, 4))
    loss = nt.cross_entropy_logits(ps["logits"], [-1, -1, -1])
    assert loss.item() == 0.0
    backward(loss, ps)
    np.testing.assert_array_equal(ps["logits"].grad, np.zeros((3, 4)))


def test_cross_entropy_ignored_rows_get_zero_grad(rng):
    ps = make_params(rng, logits=(4, 6))
    loss = nt.cross_entropy_logits(ps["logits"], [2, -1, 5, -1])
    backward(loss, ps)
    np.testing.assert_array_equal(ps["logits"].grad[1], np.zeros(6))
    np.testing.assert_array_equal(ps["logits"].grad[3], np.zeros(6))
    assert np.any(ps["logits"].grad[0] != 0)


def test_cross_entropy_bad_target():
    with pytest.raises(NumericsError):
        nt.cross_entropy_logits(Tensor(np.zeros((2, 3))), [0, 3])
    with pytest.raises(NumericsError):
        nt.cross_entropy_logits(Tensor(np.zeros(3)), [0])


def test_cross_entropy_gradcheck(rng):
    ps = make_params(rng, logits=(5, 7))
    targets = [3, -1, 0, 6, 2]
    gradcheck(lambda: nt.cross_entropy_logits(ps["logits"], targets), ps)


# ---------------------------------------------------------------------------
# binary_cross_entropy_logits
# ---------------------------------------------------------------------------

def test_bce_zero_logit():
    for label in (0.0, 1.0):
        out = nt.binary_cross_entropy_logits(Tensor([0.0]), [label])
        assert abs(out.item() - math.log(2.0)) < 1e-12


def test_bce_confident_and_hand_case():
    assert nt.binary_cross_entropy_logits(Tensor([20.0]), [1.0]).item() < 1e-8
    # logit 1 against label 0: loss = ln(1 + e)
    out = nt.binary_cross_entropy_logits(Tensor([1.0]), [0.0])
    assert abs(out.item() - math.log(1.0 + math.e)) < 1e-12


def test_bce_gradcheck(rng):
    ps = make_params(rng, z=(6,))
    labels = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0]
    gradcheck(lambda: nt.binary_cross_entropy_logits(ps["z"], labels), ps)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------

def test_add_mul_broadcast_gradcheck(rng):
    ps = make_params(rng, x=(4, 5), row=(5,), y=(4, 5))
    gradcheck(lambda: sum_all(nt.mul(nt.add(ps["x"], ps["row"]), ps["y"])), ps)


def test_narrow_concat_transpose_reshape_gradcheck(rng):
    ps = make_params(rng, x=(6, 4))
    w = rng.normal(size=(4, 6))

    def loss_fn():
        top = nt.narrow(ps["x"], 0, 0, 3)
        bottom = nt.narrow(ps["x"], 0, 3, 3)
        merged = nt.concat([bottom, top], axis=0)
        return sum_all(nt.mul(nt.transpose(merged), w))

    gradcheck(loss_fn, ps)
    gradcheck(lambda: sum_all(nt.mul(nt.reshape(ps["x"], (4, 6)), w)), ps)


def test_narrow_bounds():
    with pytest.raises(NumericsError):
        nt.narrow(Tensor(np.zeros((3, 3))), 0, 2, 2)


def test_mean_matches_numpy(rng):
    x = rng.normal(size=(3, 4))
    assert abs(mean_all(Tensor(x)).item() - x.mean()) < 1e-15

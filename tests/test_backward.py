"""Tape mechanics: accumulation, determinism, no_grad, gradient checks."""

import numpy as np
import pytest

import interbert.numerics as nt
from interbert.numerics import (
    NumericsError,
    ParameterSet,
    Tensor,
    backward,
    finite_diff_check,
)
from reference_ops import sum_all


def test_sum_gradient_is_ones():
    ps = ParameterSet()
    p = ps.add("p", Tensor([[1.0, 2.0], [3.0, 4.0]]))
    backward(sum_all(p), ps)
    np.testing.assert_array_equal(p.grad, np.ones((2, 2)))


def test_quadratic_gradient():
    ps = ParameterSet()
    p = ps.add("p", Tensor([1.0, 2.0]))
    backward(sum_all(nt.mul(p, p)), ps)
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])


def test_grads_accumulate_until_zeroed():
    ps = ParameterSet()
    p = ps.add("p", Tensor([1.0, 2.0]))
    backward(sum_all(p), ps)
    backward(sum_all(p), ps)
    np.testing.assert_array_equal(p.grad, [2.0, 2.0])
    ps.zero_grad()
    backward(sum_all(p), ps)
    np.testing.assert_array_equal(p.grad, [1.0, 1.0])


def test_repeated_backward_through_one_graph_adds_once_per_call():
    p = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(nt.mul(nt.mul(p, 2.0), 3.0))
    backward(loss)
    backward(loss)
    np.testing.assert_array_equal(p.grad, [12.0, 12.0])


def test_non_scalar_loss_rejected():
    p = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(NumericsError):
        backward(nt.mul(p, 2.0))


def test_untouched_params_get_zero_grads():
    ps = ParameterSet()
    used = ps.add("used", Tensor([1.0, 1.0]))
    unused = ps.add("unused", Tensor(np.ones((2, 2))))
    backward(sum_all(used), ps)
    assert unused.grad is not None
    np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))
    assert unused.grad.shape == unused.values.shape


def test_shared_subexpression_grads_add():
    ps = ParameterSet()
    p = ps.add("p", Tensor([3.0]))
    y = nt.add(p, p)  # dy/dp = 2
    backward(sum_all(y), ps)
    np.testing.assert_array_equal(p.grad, [2.0])


def test_reused_tensor_gets_unaliased_grads(rng):
    """First gradients are kept without a copy only when an op allocated them
    for one parent; a tensor used twice, directly or through a residual
    branch, still gets the summed gradient in an array of its own."""
    ps = ParameterSet()
    a = ps.add("a", Tensor(rng.normal(size=(3, 4))))
    w = ps.add("w", Tensor(rng.normal(size=(4, 4))))
    doubled = nt.add(a, a)
    residual = nt.add(doubled, nt.matmul(doubled, w))  # x + x @ w
    weights = rng.normal(size=(3, 4))
    backward(sum_all(nt.mul(residual, weights)), ps)
    np.testing.assert_allclose(a.grad, 2.0 * (weights + weights @ w.values.T), rtol=1e-13)
    np.testing.assert_allclose(w.grad, (2.0 * a.values).T @ weights, rtol=1e-13)
    grads = [a.grad, w.grad, doubled.grad, residual.grad]
    for i, one in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(one, other)
    err = finite_diff_check(lambda: sum_all(nt.mul(nt.add(nt.add(a, a), nt.matmul(nt.add(a, a), w)), weights)),
                            ps, step=1e-5, sample_count=50, seed=3)
    assert err < 1e-6


def test_backward_deterministic(rng):
    def run():
        gen = np.random.default_rng(99)
        ps = ParameterSet()
        a = ps.add("a", Tensor(gen.normal(size=(4, 4))))
        b = ps.add("b", Tensor(gen.normal(size=(4, 4))))
        h = nt.gelu(nt.matmul(a, b))
        out = nt.layer_norm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        backward(sum_all(nt.softmax(out, axis=-1)), ps)
        return a.grad.copy(), b.grad.copy()

    first, second = run(), run()
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_no_grad_builds_no_tape():
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    with nt.no_grad():
        out = nt.matmul(p, p)
    assert out._backward_fn is None and out._parents == ()
    out = nt.matmul(p, p)
    assert out._backward_fn is not None


def test_constants_stay_off_the_tape():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = nt.matmul(a, b)
    assert out._backward_fn is None


def test_finite_diff_on_quadratic_is_exact(rng):
    # central differences are exact for quadratics; only roundoff remains
    ps = ParameterSet()
    ps.add("p", Tensor(rng.normal(size=(5,))))
    err = finite_diff_check(lambda: sum_all(nt.mul(ps["p"], ps["p"])), ps, step=1e-4, sample_count=5)
    assert err < 1e-8


def test_finite_diff_flags_corrupted_gradient(rng):
    # negative control: an op whose backward is off by a factor
    ps = ParameterSet()
    p = ps.add("p", Tensor(rng.normal(1.0, 0.1, size=(4,))))

    def bad_square(t):
        out = t.values ** 2

        def bwd(g):
            t.accumulate_grad(1.8 * t.values * g)  # should be 2.0 * t

        return Tensor(out, _parents=(t,), _backward_fn=bwd)

    err = finite_diff_check(lambda: sum_all(bad_square(p)), ps, step=1e-5, sample_count=4)
    assert err > 1e-2


def test_finite_diff_restores_values(rng):
    ps = ParameterSet()
    p = ps.add("p", Tensor(rng.normal(size=(3,))))
    before = p.values.copy()
    finite_diff_check(lambda: sum_all(nt.mul(ps["p"], ps["p"])), ps, sample_count=3)
    np.testing.assert_array_equal(p.values, before)


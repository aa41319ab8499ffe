"""Tape mechanics: accumulation, determinism, no_grad, memory, gradient checks."""

import threading
import tracemalloc
import weakref

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
from interbert.numerics.tensor import _make
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


def test_repeated_backward_through_one_graph_adds_once_per_call(rng):
    """Sweeping one graph twice adds each leaf's contribution once per call
    and leaves every inner gradient None after each call; the closures stay
    on their nodes, so the second sweep flows as the first did."""
    p = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(nt.mul(nt.mul(p, 2.0), 3.0))
    backward(loss)
    backward(loss)
    np.testing.assert_array_equal(p.grad, [12.0, 12.0])

    ps = ParameterSet()
    x = ps.add("x", Tensor(rng.normal(size=(3, 4))))
    w = ps.add("w", Tensor(rng.normal(size=(4, 4))))
    h = nt.linear(x, w)
    inner = [h, nt.gelu(h)]
    inner += [nt.add(*inner)]  # h reaches the loss twice; each leaf once
    inner += [sum_all(nt.layer_norm(inner[-1], Tensor(np.ones(4)), Tensor(np.zeros(4))))]
    sweeps = []
    for _ in range(2):
        backward(inner[-1], ps)
        sweeps.append({name: t.grad.copy() for name, t in ps.items()})
        assert all(t.grad is None and t._node._backward_fn is not None for t in inner)
    for name in ps.names():
        np.testing.assert_array_equal(sweeps[1][name], 2.0 * sweeps[0][name])


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
    branch, still gets the summed gradient in an array of its own. Inner
    gradients are seen as they flow, since the sweep frees them after."""
    ps = ParameterSet()
    a = ps.add("a", Tensor(rng.normal(size=(3, 4))))
    w = ps.add("w", Tensor(rng.normal(size=(4, 4))))
    doubled = nt.add(a, a)
    residual = nt.add(doubled, nt.matmul(doubled, w))  # x + x @ w
    received = []

    def recording(flow):
        def record(g):
            received.append(g)
            flow(g)
        return record

    for node in (doubled, residual):
        node._node._backward_fn = recording(node._node._backward_fn)
    weights = rng.normal(size=(3, 4))
    backward(sum_all(nt.mul(residual, weights)), ps)
    np.testing.assert_allclose(a.grad, 2.0 * (weights + weights @ w.values.T), rtol=1e-13)
    np.testing.assert_allclose(w.grad, (2.0 * a.values).T @ weights, rtol=1e-13)
    assert len(received) == 2 and doubled.grad is None and residual.grad is None
    grads = [a.grad, w.grad, *received]
    for i, one in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(one, other)
    err = finite_diff_check(lambda: sum_all(nt.mul(nt.add(nt.add(a, a), nt.matmul(nt.add(a, a), w)), weights)),
                            ps, step=1e-5, sample_count=50, seed=3)
    assert err < 1e-6


def test_backward_frees_inner_gradients_as_they_flow(rng):
    """A deep chain's sweep holds a few activation-sized gradients at a time,
    not one per node, and leaves only the leaf's behind."""
    leaf = Tensor(rng.normal(size=(200, 100)), requires_grad=True)
    x, inner = leaf, []
    for _ in range(30):
        inner += [nt.add(x, leaf)]
        x = nt.gelu(inner[-1])
        inner += [x]
    loss = sum_all(x)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        backward(loss)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    activation = leaf.values.nbytes
    assert peak - start < 5 * activation
    assert end - start < 1.5 * activation
    assert leaf.grad is not None and all(node.grad is None for node in inner + [loss])


def test_tape_frees_values_no_closure_reads():
    """An activation that no backward closure reads (a linear output feeding
    only add, an add output feeding only layer_norm, q/k/v rows feeding only
    attention, a product feeding only the loss's sum) is freed once the forward drops it; linear's input and mul's
    operands stay alive; and the gradients equal, bit for bit, those of a
    run that holds every tensor until the sweep is done."""
    seq = np.repeat([0, 1], 3)  # two sequences of three rows

    def forward():
        gen = np.random.default_rng(5)
        ps = ParameterSet()
        for name, shape in [("x", (6, 4)), ("wo", (4, 4)), ("wq", (4, 4)), ("wk", (4, 4)), ("wv", (4, 4)),
                            ("gain", (4,)), ("shift", (4,))]:
            ps.add(name, Tensor(gen.normal(size=shape)))
        t = {"proj": nt.linear(ps["x"], ps["wo"])}
        t["add"] = nt.add(t["proj"], ps["x"])
        t["normed"] = nt.layer_norm(t["add"], ps["gain"], ps["shift"])
        for name in "qkv":
            t[name] = nt.linear(t["normed"], ps["w" + name])
        t["ctx"] = nt.attention(t["q"], t["k"], t["v"], seq, seq, heads=2)
        t["gate"] = nt.gelu(t["ctx"])
        t["prod"] = nt.mul(t["ctx"], t["gate"])
        return ps, sum_all(t["prod"]), t

    held_ps, loss, _held = forward()  # every intermediate stays alive through this sweep
    backward(loss, held_ps)
    ps, loss, inner = forward()
    refs = {name: weakref.ref(t.values) for name, t in inner.items()}
    del inner
    assert [name for name in ("proj", "add", "q", "k", "v", "prod") if refs[name]() is not None] == []
    assert [name for name in ("normed", "ctx", "gate") if refs[name]() is None] == []
    backward(loss, ps)
    for name, p in ps.items():
        assert p.grad.tobytes() == held_ps[name].grad.tobytes(), name


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
    assert out._node is None and out._parents == ()
    out = nt.matmul(p, p)
    assert out._node._backward_fn is not None


def test_no_grad_holds_only_in_its_own_thread():
    """Two threads enter ``no_grad`` in turn and leave it in the same order,
    not nested: neither stops the other from recording, and every thread,
    the caller's included, records again afterwards."""
    p = Tensor(np.ones((2, 2)), requires_grad=True)
    step = threading.Barrier(2, timeout=30)
    seen = {}

    def records():  # both tape-building paths: _make and gelu's own check
        return nt.mul(p, p)._node is not None and nt.gelu(p)._node is not None

    def first():
        with nt.no_grad():
            step.wait()  # 1: first inside
            step.wait()  # 2: second inside too
            seen["first inside"] = records()
        step.wait()      # 3: first out, second still inside
        step.wait()      # 4: second out
        seen["first after"] = records()

    def second():
        step.wait()      # 1
        seen["second while first is inside"] = records()
        with nt.no_grad():
            step.wait()  # 2
            step.wait()  # 3
            seen["second inside"] = records()
        step.wait()      # 4
        seen["second after"] = records()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert seen == {"first inside": False, "second while first is inside": True, "second inside": False,
                    "first after": True, "second after": True}
    assert records()
    with nt.no_grad():
        assert not records()
    assert records()


def test_constants_stay_off_the_tape():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = nt.matmul(a, b)
    assert out._node is None


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
        tv = t.values
        return _make(tv ** 2, [(t, lambda g: 1.8 * tv * g)])  # should be 2.0 * t

    err = finite_diff_check(lambda: sum_all(bad_square(p)), ps, step=1e-5, sample_count=4)
    assert err > 1e-2


def test_finite_diff_restores_values(rng):
    ps = ParameterSet()
    p = ps.add("p", Tensor(rng.normal(size=(3,))))
    before = p.values.copy()
    finite_diff_check(lambda: sum_all(nt.mul(ps["p"], ps["p"])), ps, sample_count=3)
    np.testing.assert_array_equal(p.values, before)


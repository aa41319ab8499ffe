"""Whole-tensor reductions used only to turn op outputs into scalar losses
in the tests; the model and the training loops never call them."""

import numpy as np

from interbert.numerics.tensor import Tensor, _make, as_tensor


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    out = np.asarray(a.values.sum(), dtype=a.values.dtype)
    return _make(out, [(a, lambda g: np.full_like(a.values, float(g)))])


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    out = np.asarray(a.values.mean(), dtype=a.values.dtype)
    return _make(out, [(a, lambda g: np.full_like(a.values, float(g) / a.values.size))])

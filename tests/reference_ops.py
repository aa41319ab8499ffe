"""Whole-tensor reductions used only to turn op outputs into scalar losses
in the tests; the model and the training loops never call them."""

import numpy as np

from interbert.numerics.tensor import Tensor, _make, as_tensor


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape, dtype = a.values.shape, a.values.dtype
    return _make(np.asarray(a.values.sum(), dtype=dtype), [(a, lambda g: np.full(shape, float(g), dtype))])


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    shape, dtype, size = a.values.shape, a.values.dtype, a.values.size
    return _make(np.asarray(a.values.mean(), dtype=dtype), [(a, lambda g: np.full(shape, float(g) / size, dtype))])

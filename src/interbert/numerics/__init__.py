"""Minimal dense-tensor engine with reverse-mode gradients.

Importing it raises glibc's malloc trim threshold to 64 MB and its mmap
threshold to 32 MB, so the heap a forward pass frees stays mapped for the
next one instead of being faulted in again. ``MALLOC_SETTINGS`` records
them, or is None where libc has no ``mallopt`` or refused a value.
"""

import ctypes

from .gradcheck import finite_diff_check
from .params import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    ParameterSet,
    load_checkpoint,
    save_checkpoint,
)
from .tensor import (
    DEFAULT_DTYPE,
    IGNORE_INDEX,
    NEG_LOGIT,
    NumericsError,
    Tensor,
    add,
    as_tensor,
    attention,
    backward,
    binary_cross_entropy_logits,
    concat,
    cross_entropy_logits,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    matmul,
    mul,
    narrow,
    no_grad,
    reshape,
    softmax,
    transpose,
)


def _set_malloc_thresholds() -> dict[str, int] | None:
    wanted = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}  # malloc.h codes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library to open, or one without mallopt
        return None
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    done = [mallopt(code, value) == 1 for code, value in wanted.values()]
    return {name: value for name, (_, value) in wanted.items()} if all(done) else None


MALLOC_SETTINGS = _set_malloc_thresholds()

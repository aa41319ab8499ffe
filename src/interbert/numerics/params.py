"""Named parameter collections and their on-disk checkpoint format.

A checkpoint is a flat binary container: a 4-byte magic, a u32 version, a
u32 parameter count, then per parameter the u32 name length, the UTF-8
name, the u32 rank, one u32 per dimension, and the values as little-endian
8-byte floats in C order. Writing and re-reading is bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Iterator, Mapping

import numpy as np

from .tensor import NumericsError, Tensor

CHECKPOINT_MAGIC = b"IBT1"
CHECKPOINT_VERSION = 1


class ParameterSet:
    """Insertion-ordered mapping from dotted path to trainable tensor."""

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise NumericsError(f"duplicate parameter name: {name}")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def num_values(self) -> int:
        return sum(t.values.size for t in self._params.values())

    def clone_values(self) -> dict[str, np.ndarray]:
        return {name: np.array(t.values, copy=True) for name, t in self._params.items()}

    def load_values(self, values: Mapping[str, np.ndarray]) -> None:
        """Overwrite every parameter in place; key sets and shapes must match."""
        for name, src in _agreeing({n: t.values.shape for n, t in self._params.items()}, values):
            self._params[name].values[...] = src

    @classmethod
    def holding(cls, shapes: Mapping[str, tuple], values: Mapping[str, np.ndarray]) -> "ParameterSet":
        """The parameters named in ``shapes``, in its order, holding the very
        arrays of ``values``; key sets and shapes must match."""
        params = cls()
        for name, src in _agreeing(shapes, values):
            params.add(name, Tensor(src))
        return params


def _agreeing(shapes: Mapping[str, tuple], values: Mapping[str, np.ndarray]):
    """Each name of ``shapes`` with its array in ``values``; refuses missing,
    extra and misshapen names."""
    missing = [n for n in shapes if n not in values]
    extra = [n for n in values if n not in shapes]
    if missing or extra:
        raise NumericsError(f"parameter names disagree (missing={missing[:3]}, extra={extra[:3]})")
    for name, shape in shapes.items():
        src = np.asarray(values[name])
        if src.shape != tuple(shape):
            raise NumericsError(f"shape mismatch for {name}: {src.shape} vs {tuple(shape)}")
        yield name, src


def save_checkpoint(path, params) -> None:
    """Write a ParameterSet or a name->array mapping to ``path``."""
    if isinstance(params, ParameterSet):
        entries = [(name, t.values) for name, t in params.items()]
    else:
        entries = [(name, np.asarray(arr)) for name, arr in params.items()]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(entries)))
        for name, values in entries:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", values.ndim))
            fh.write(struct.pack(f"<{values.ndim}I", *values.shape))
            fh.write(np.ascontiguousarray(values, dtype="<f8"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into an insertion-ordered name->array mapping,
    each array read straight from the file into its own buffer: one copy of
    the values, and no buffer allocated for bytes the file does not hold."""
    with open(path, "rb") as fh:
        remaining = os.fstat(fh.fileno()).st_size

        def take(n: int, make=bytearray):
            nonlocal remaining
            if n > remaining:
                raise NumericsError(f"truncated checkpoint: {path}")
            buffer = make(n)
            if fh.readinto(buffer) != n:  # the file shrank while it was read
                raise NumericsError(f"truncated checkpoint: {path}")
            remaining -= n
            return buffer

        if take(4) != CHECKPOINT_MAGIC:
            raise NumericsError(f"not a checkpoint file (bad magic): {path}")
        version, count = struct.unpack("<II", take(8))
        if version != CHECKPOINT_VERSION:
            raise NumericsError(f"unsupported checkpoint version {version}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise NumericsError(f"parameter name is not UTF-8: {path}") from None
            if name in out:
                raise NumericsError(f"repeated parameter name {name!r}: {path}")
            (rank,) = struct.unpack("<I", take(4))
            dims = struct.unpack(f"<{rank}I", take(4 * rank))
            size = 8 * math.prod(dims)  # exact, so a huge shape is refused as truncation
            try:  # an empty shape can still be one numpy refuses: too many or too large dims
                out[name] = take(size, lambda _: np.empty(dims, dtype="<f8"))
            except ValueError:
                raise NumericsError(f"impossible shape {dims} for parameter {name!r}: {path}") from None
    if remaining:
        raise NumericsError(f"trailing bytes after checkpoint payload: {path}")
    return out

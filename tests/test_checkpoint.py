"""Binary checkpoint round-trip and error handling."""

import numpy as np
import pytest

from interbert.numerics import (
    CHECKPOINT_MAGIC,
    NumericsError,
    ParameterSet,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)


def build_params(rng):
    ps = ParameterSet()
    ps.add("embed.table", Tensor(rng.normal(size=(7, 3))))
    ps.add("layer0.w", Tensor(rng.normal(size=(3, 3))))
    ps.add("layer0.b", Tensor(rng.normal(size=(3,))))
    ps.add("scalarish", Tensor(rng.normal(size=(1,))))
    return ps


def test_round_trip_bit_exact(tmp_path, rng):
    ps = build_params(rng)
    path = tmp_path / "model.ibt"
    save_checkpoint(path, ps)
    loaded = load_checkpoint(path)
    assert list(loaded) == ps.names()
    for name, t in ps.items():
        assert loaded[name].dtype == np.float64
        assert np.array_equal(loaded[name], t.values)


def test_save_load_save_identical_bytes(tmp_path, rng):
    ps = build_params(rng)
    first = tmp_path / "a.ibt"
    second = tmp_path / "b.ibt"
    save_checkpoint(first, ps)
    save_checkpoint(second, load_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()


def test_magic_and_version(tmp_path, rng):
    path = tmp_path / "model.ibt"
    save_checkpoint(path, build_params(rng))
    assert path.read_bytes()[:4] == CHECKPOINT_MAGIC

    bad = tmp_path / "bad.ibt"
    bad.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(NumericsError):
        load_checkpoint(bad)


def test_truncated_file_rejected(tmp_path, rng):
    path = tmp_path / "model.ibt"
    save_checkpoint(path, build_params(rng))
    blob = path.read_bytes()
    cut = tmp_path / "cut.ibt"
    cut.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(NumericsError):
        load_checkpoint(cut)


def test_trailing_bytes_rejected(tmp_path, rng):
    path = tmp_path / "model.ibt"
    save_checkpoint(path, build_params(rng))
    padded = tmp_path / "padded.ibt"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(NumericsError):
        load_checkpoint(padded)


def test_load_values_round_trip(tmp_path, rng):
    ps = build_params(rng)
    path = tmp_path / "model.ibt"
    save_checkpoint(path, ps)

    other = build_params(np.random.default_rng(5))
    other.load_values(load_checkpoint(path))
    for name, t in ps.items():
        assert np.array_equal(other[name].values, t.values)


def test_load_values_shape_mismatch(rng):
    ps = build_params(rng)
    bad = ps.clone_values()
    bad["layer0.w"] = np.zeros((2, 2))
    with pytest.raises(NumericsError):
        ps.load_values(bad)


def test_duplicate_parameter_name_rejected():
    ps = ParameterSet()
    ps.add("w", Tensor([1.0, 2.0]))
    with pytest.raises(NumericsError):
        ps.add("w", Tensor([3.0]))


def test_checkpoint_with_repeated_name_rejected(tmp_path):
    path = tmp_path / "dup.ibt"
    save_checkpoint(path, {"w": np.zeros(2), "x": np.zeros(2)})
    blob = path.read_bytes()
    second = blob.index(b"\x01\x00\x00\x00x")  # the second entry's name length and name
    path.write_bytes(blob[:second + 4] + b"w" + blob[second + 5:])
    with pytest.raises(NumericsError, match=f"repeated parameter name 'w': {path}"):
        load_checkpoint(path)

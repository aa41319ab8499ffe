"""Binary checkpoint round-trip, error handling and load memory."""

import tracemalloc

import numpy as np
import pytest

from interbert.model import InterBert, ModelConfig, count_parameters, parameter_spec
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


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs, above what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_load_holds_one_copy_of_the_parameters(tmp_path):
    """Loading a 17 MB checkpoint, alone or into a network, peaks at one
    copy of its values: no whole-file buffer and no second array."""
    cfg = ModelConfig(hidden_size=64, num_heads=2, ffn_size=128, num_interaction_layers=1,
                      num_extraction_layers=1, vocab_size=16_000, object_feature_dim=16, max_objects=8)
    path = tmp_path / "big.ibt"
    save_checkpoint(path, {name: np.full(shape, 0.5) for name, shape, _ in parameter_spec(cfg)})
    nbytes = 8 * count_parameters(cfg)
    assert nbytes >= 16 << 20
    assert traced_peak(lambda: load_checkpoint(path)) <= 1.1 * nbytes
    assert traced_peak(lambda: InterBert.from_checkpoint(cfg, path)) <= 1.1 * nbytes

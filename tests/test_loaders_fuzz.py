"""Every file reader refuses damaged bytes with its own typed error.

Each reader gets valid files cut short, valid files with one byte changed,
and arbitrary bytes. It must either read them or raise its typed error
(``CorpusError`` for the JSON readers, ``ValueError`` for embeddings,
``NumericsError`` for checkpoints), and within the example deadline.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interbert.data import CorpusError, load_corpus, load_vocabulary, save_corpus, synth_corpus
from interbert.evaluation import read_embeddings, write_embeddings
from interbert.negatives import build_hard_negative_table, build_tfidf, load_table, save_table
from interbert.numerics import NumericsError, load_checkpoint, save_checkpoint

# file name -> (typed error, reader of a path given the valid files' directory)
READERS = {
    "corpus.jsonl": (CorpusError, lambda path, root: load_corpus(path, root / "vocab.json")),
    "vocab.json": (CorpusError, lambda path, root: load_vocabulary(path)),
    "negatives.jsonl": (CorpusError, lambda path, root: load_table(path)),
    "embeddings.bin": (ValueError, lambda path, root: read_embeddings(path)),
    "model.ibt": (NumericsError, lambda path, root: load_checkpoint(path)),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding one small valid file of each kind, and their bytes."""
    root = tmp_path_factory.mktemp("valid")
    corpus = synth_corpus(seed=0, num_images=3, num_classes=4, feature_dim=4, max_objects=2)
    save_corpus(corpus, root / "corpus.jsonl", root / "vocab.json")
    save_table(root / "negatives.jsonl", build_hard_negative_table(build_tfidf(corpus)))
    write_embeddings(root / "embeddings.bin", np.arange(6.0).reshape(3, 2))
    save_checkpoint(root / "model.ibt", {"w": np.ones((2, 3)), "b": np.zeros(3), "scale": np.array(2.0)})
    return root, {name: (root / name).read_bytes() for name in READERS}


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """The blob cut short, the blob with one byte changed, or any bytes."""
    kind = draw(st.sampled_from(["truncate", "mutate", "garbage"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "mutate":
        at = draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]
    return draw(st.binary(max_size=300))


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=150, deadline=2000)
@given(data=st.data())
def test_reader_reads_or_refuses_damaged_bytes_with_its_typed_error(files, name, data):
    root, blobs = files
    error, reader = READERS[name]
    path = root / f"damaged-{name}"
    path.write_bytes(data.draw(damaged(blobs[name])))
    try:
        reader(path, root)
    except error:
        pass


def test_non_utf8_files_name_the_file_and_line(files, tmp_path):
    root, blobs = files
    bad = b"\xff\xfe\x00{"
    for name, reader in (("corpus.jsonl", lambda p: load_corpus(p, root / "vocab.json")),
                         ("negatives.jsonl", load_table)):
        path = tmp_path / name
        path.write_bytes(blobs[name].splitlines(keepends=True)[0] + bad + b"\n")
        with pytest.raises(CorpusError, match=f"{path}:2: not UTF-8"):
            reader(path)
    path = tmp_path / "vocab.json"
    path.write_bytes(bad)
    with pytest.raises(CorpusError, match=f"{path}: not UTF-8"):
        load_vocabulary(path)


def test_embeddings_size_mismatch_names_the_file(files, tmp_path):
    _, blobs = files
    path = tmp_path / "embeddings.bin"
    path.write_bytes(blobs["embeddings.bin"][:-1])
    with pytest.raises(ValueError, match=f"{path}: embeddings payload has 47 bytes, expected 48"):
        read_embeddings(path)


def test_checkpoint_name_that_is_not_utf8_is_a_numerics_error(files, tmp_path):
    _, blobs = files
    blob = blobs["model.ibt"]
    at = 16  # magic, version, count and name length, then the first name, "w"
    path = tmp_path / "model.ibt"
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(NumericsError, match="not UTF-8"):
        load_checkpoint(path)


def test_checkpoint_with_an_empty_shape_numpy_cannot_hold_is_refused(tmp_path):
    path = tmp_path / "model.ibt"
    path.write_bytes(b"IBT1" + struct.pack("<III", 1, 1, 1) + b"w"
                     + struct.pack("<5I", 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1))
    with pytest.raises(NumericsError, match=f"impossible shape .* 'w': {path}"):
        load_checkpoint(path)

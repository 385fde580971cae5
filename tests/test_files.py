"""Checkpoint, JSONL and vocabulary files: damaged inputs end in a
CoinsError, and outputs are replaced whole or not at all."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coins import files
from coins.checkpoint import load_arrays, save_arrays
from coins.data.corpus import read_jsonl, write_jsonl
from coins.errors import CoinsError
from coins.vocab import Vocab, train_vocab

FUZZ = settings(max_examples=150, deadline=None)


def loads_or_coins_error(load, path, data: bytes):
    path.write_bytes(data)
    try:
        load(path)
    except CoinsError:
        pass


def valid_checkpoint() -> bytes:
    rng = np.random.default_rng(0)
    arrays = {"a": rng.normal(size=(3, 4)).astype(np.float32), "b": np.arange(5, dtype=np.float64),
              "empty": np.zeros((0, 2), dtype=np.float32)}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.ckpt")
        save_arrays(path, arrays, meta={"model_role": "sentence"})
        with open(path, "rb") as f:
            return f.read()


CKPT = valid_checkpoint()


@FUZZ
@given(data=st.binary(max_size=300))
def test_fuzz_checkpoint_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
    loads_or_coins_error(load_arrays, path, data)
    loads_or_coins_error(load_arrays, path, CKPT[:8] + data)


@FUZZ
@given(cut=st.integers(0, len(CKPT) - 1), extra=st.binary(min_size=1, max_size=16),
       at=st.integers(0, len(CKPT) - 1), flip=st.integers(1, 255))
def test_fuzz_damaged_checkpoint(tmp_path_factory, cut, extra, at, flip):
    path = tmp_path_factory.mktemp("ckpt") / "x.ckpt"
    loads_or_coins_error(load_arrays, path, CKPT[:cut])
    loads_or_coins_error(load_arrays, path, CKPT + extra)
    loads_or_coins_error(load_arrays, path, CKPT[:at] + bytes([CKPT[at] ^ flip]) + CKPT[at + 1 :])


@FUZZ
@given(data=st.binary(max_size=300))
def test_fuzz_jsonl_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("jsonl") / "x.jsonl"
    loads_or_coins_error(lambda p: list(read_jsonl(p)), path, data)


VOCAB = train_vocab(["the cat sat .", "a dog ran !"])
VOCAB_JSON = json.dumps({"version": 1, "lowercase": True, "tokens": VOCAB.id_to_token})
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)


@FUZZ
@given(data=st.binary(max_size=200), cut=st.integers(0, len(VOCAB_JSON) - 1),
       payload=st.dictionaries(st.sampled_from(["version", "lowercase", "tokens"]), json_values))
def test_fuzz_vocab(tmp_path_factory, data, cut, payload):
    path = tmp_path_factory.mktemp("vocab") / "vocab.json"
    loads_or_coins_error(Vocab.load, path, data)
    loads_or_coins_error(Vocab.load, path, VOCAB_JSON[:cut].encode())
    loads_or_coins_error(Vocab.load, path, json.dumps({"version": 1, **payload}).encode())
    loads_or_coins_error(Vocab.load, path, json.dumps(payload).encode())


def test_fuzzed_files_load_undamaged(tmp_path):
    (tmp_path / "vocab.json").write_text(VOCAB_JSON)
    assert Vocab.load(tmp_path / "vocab.json").id_to_token == VOCAB.id_to_token
    (tmp_path / "x.ckpt").write_bytes(CKPT)
    arrays, meta = load_arrays(tmp_path / "x.ckpt")
    assert arrays["a"].shape == (3, 4) and arrays["empty"].shape == (0, 2)
    assert meta == {"model_role": "sentence"} and arrays["a"].flags.writeable


# atomic writes


def failing_rows():
    yield {"id": "a"}
    yield {"id": object()}  # not JSON: the write fails after a first line


@pytest.mark.parametrize("writer", ["jsonl", "checkpoint", "text"])
def test_failed_write_keeps_previous_file(tmp_path, writer):
    path = tmp_path / "out"
    path.write_bytes(b"previous bytes\n")
    with pytest.raises(TypeError):
        if writer == "jsonl":
            write_jsonl(path, failing_rows())
        elif writer == "checkpoint":
            save_arrays(path, {"a": np.zeros(3, np.float32)}, meta={"bad": object()})
        else:
            with files.atomic_open(path, "w") as f:
                f.write("partial")
                raise TypeError("failure mid-write")
    assert path.read_bytes() == b"previous bytes\n"
    assert os.listdir(tmp_path) == ["out"]


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.jsonl"
    path.write_text("old\n" * 100)
    write_jsonl(path, [{"id": "a"}, {"id": "b"}])
    assert [row for _, row in read_jsonl(path)] == [{"id": "a"}, {"id": "b"}]
    assert os.listdir(tmp_path) == ["out.jsonl"]

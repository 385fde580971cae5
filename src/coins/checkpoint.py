"""Binary checkpoint files: a JSON header plus a raw little-endian blob.

Layout: 4-byte magic, uint32 header length, UTF-8 header JSON, then the
concatenated array bytes in the header's name order. Round trips are
bit-exact for float32 and float64 payloads.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .files import atomic_open

MAGIC = b"CKP1"
FORMAT_VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8"}


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    names = sorted(arrays)
    header = {
        "format_version": FORMAT_VERSION,
        "names": names,
        "shapes": {n: list(arrays[n].shape) for n in names},
        "dtypes": {n: arrays[n].dtype.name for n in names},
        "meta": meta or {},
    }
    for n in names:
        if arrays[n].dtype.name not in _DTYPES:
            raise ValueError(f"unsupported checkpoint dtype {arrays[n].dtype} for {n!r}")
    head = json.dumps(header, sort_keys=True, ensure_ascii=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(head)))
        f.write(head)
        for n in names:
            f.write(np.ascontiguousarray(arrays[n]).astype(_DTYPES[arrays[n].dtype.name]).tobytes())


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and meta of a checkpoint; a file that is not a whole
    checkpoint of this format (bad magic or header, or a blob shorter or
    longer than the header's arrays) raises :class:`SchemaError`."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC or len(raw) < 8:
        raise SchemaError(f"{path}: not a checkpoint file")
    (hlen,) = struct.unpack("<I", raw[4:8])
    try:
        header = json.loads(raw[8 : 8 + hlen].decode("utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
        layout = [(n, tuple(header["shapes"][n]), header["dtypes"][n]) for n in header["names"]]
        if any(type(d) is not int or d < 0 for _, shape, _ in layout for d in shape):
            raise ValueError("array dimensions must be non-negative integers")
        sizes = [math.prod(shape) * np.dtype(_DTYPES[dt]).itemsize for _, shape, dt in layout]
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError("'meta' is not an object")
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as e:
        raise SchemaError(f"{path}: malformed checkpoint header ({type(e).__name__}: {e})") from e
    blob = len(raw) - 8 - hlen
    if blob != sum(sizes):
        raise SchemaError(f"{path}: checkpoint holds {blob} bytes of arrays, its header lists {sum(sizes)}")
    out: dict[str, np.ndarray] = {}
    offset = 8 + hlen
    for (n, shape, dt), nbytes in zip(layout, sizes):
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype=_DTYPES[dt]).reshape(shape)
        out[n] = arr.astype(dt)  # a new, writable array
        offset += nbytes
    return out, meta

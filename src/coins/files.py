"""Output files written whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing. A clean exit
    moves it onto ``path`` with :func:`os.replace`, and an error removes
    it, so ``path`` holds either its previous bytes or all of the new ones."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Write UTF-8 ``text`` to ``path`` atomically."""
    with atomic_open(path, "w", encoding="utf-8") as f:
        f.write(text)

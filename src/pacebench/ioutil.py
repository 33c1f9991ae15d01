"""Input files read as JSON, and atomic writes: outputs appear fully written or not at all."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

_JSON_TYPE_NAMES = {dict: "object", list: "array"}


def load_json(path: str | Path, error: type[Exception], expect: type, data: bytes | None = None):
    """The value of the JSON file at *path*, whose top level must be an *expect*.

    *data*, when given, is the file's content already read, and *path* only
    names it in errors. Content that is not UTF-8 JSON, including nesting too
    deep to parse, and a top level of another type raise *error* naming the
    file. An OSError from reading it propagates.
    """
    if data is None:
        data = Path(path).read_bytes()
    try:
        value = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(value, expect):
        raise error(f"{path}: top level must be a JSON {_JSON_TYPE_NAMES[expect]}")
    return value


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))

"""Input files read as JSON with typed fields, and atomic writes: outputs appear whole or not at all."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

_JSON_TYPE_NAMES = {dict: "object", list: "array"}

JSON_NUMBER = (int, float)  # for typed_fields, where a JSON true or false is no number
_FIELD_TYPE_NAMES = {(str,): "a string", JSON_NUMBER: "a number", (int,): "an integer",
                     (list,): "an array"}


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


def typed_fields(data: dict, fields: dict[str, tuple[type, ...]], where: str = "") -> dict:
    """*data*'s value for each key of *fields*. A value of none of the key's types
    raises TypeError naming the field as *where* + key; a missing one, KeyError."""
    values = {}
    for key, types in fields.items():
        value = values[key] = data[key]
        if type(value) not in types:
            raise TypeError(f"{where}{key} must be {_FIELD_TYPE_NAMES[types]}, "
                            f"got {value!r:.40}")
    return values


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

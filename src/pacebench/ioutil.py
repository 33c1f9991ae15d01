"""Input files read as JSON with typed fields, values derived from files kept
by the digest of their bytes, and atomic writes: outputs appear whole or not
at all, and an output that already holds the bytes is left untouched."""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, NamedTuple

from .errors import ComputationError


class Field(NamedTuple):
    """What ``typed_fields`` accepts for one key. Types match exactly: a bool is no int."""

    types: tuple[type, ...]
    items: tuple[type, ...] | None = None  # for an array, the types of its elements
    optional: bool = False  # an absent key and a null both read as None


STRING = Field((str,))
NUMBER = Field((int, float))
INTEGER = Field((int,))
ARRAY = Field((list,))
OBJECT = Field((dict,))

_TYPE_NAMES = {STRING.types: ("a string", "strings"), NUMBER.types: ("a number", "numbers"),
               INTEGER.types: ("an integer", "integers"), ARRAY.types: ("an array", "arrays"),
               OBJECT.types: ("an object", "objects")}


def array_of(element: Field) -> Field:
    return Field(ARRAY.types, element.types)


def optional(field: Field) -> Field:
    return field._replace(optional=True)


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
        raise error(f"{path}: top level must be {_TYPE_NAMES[(expect,)][0]}")
    return value


def typed_fields(data: dict, fields: Mapping[str, Field], where: str = "") -> dict:
    """The value of each key of the field table *fields* in the JSON object
    *data*, checked against its ``Field``; *where* + key names it in errors.

    A missing key raises KeyError, unless the field is optional: then an
    absent key and a null both read as None. A value of another JSON type, or
    an array with an element of another type, raises TypeError, and a number
    that is not finite ValueError. Array elements are checked for type only.
    A *data* that is no object raises TypeError.
    """
    if type(data) is not dict:
        raise TypeError(f"expected a JSON object, got {data!r:.40}")
    values = {}
    for key, (types, items, is_optional) in fields.items():
        value = values[key] = data.get(key)
        if value is None and is_optional:
            continue
        if type(value) not in types or (
                items is not None and not all(type(item) in items for item in value)):
            if key not in data:
                raise KeyError(key)
            kind = (_TYPE_NAMES[types][0] if items is None
                    else f"an array of {_TYPE_NAMES[items][1]}")
            raise TypeError(f"{where}{key} must be {kind}{' or null' if is_optional else ''}, "
                            f"got {value!r:.40}")
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{where}{key} must be finite, got {value!r}")
    return values


class DigestCache:
    """Values derived from the files of one directory, each kept under the
    file's name with the SHA-256 digest of the bytes it was derived from.

    The cache is the file *name* in that directory, JSON of the form
    ``{"version": N, "entries": {file name: [digest, entry]}}``. A missing,
    unreadable, foreign or other-version cache counts as empty, file times
    are never consulted, and nothing is written until ``save``.
    """

    def __init__(self, directory: str | Path, name: str, version: int,
                 listed: Collection[str]):
        """*listed* names every file that still exists; entries of others are dropped."""
        self.directory = str(directory)
        self.path = os.path.join(self.directory, name)
        self.version = version
        try:
            cache = load_json(self.path, ValueError, dict)
        except (OSError, ValueError):
            cache = {}
        stored = cache.get("entries")
        if cache.get("version") != version or not isinstance(stored, dict):
            stored = {}
        self._stored = stored
        self._entries = {name: e for name, e in stored.items() if name in listed}

    def load_all(self, names: Iterable[str], parse: Callable, to_entry: Callable,
                 from_entry: Callable) -> tuple[list, int]:
        """The value of each file in *names*, in order, and how many were parsed.

        A value is always ``from_entry(entry)``, which raises LookupError,
        TypeError, ValueError or a ComputationError for an entry that fails
        its checks. The entry comes from the cache when the file's bytes have
        its digest and it passes those checks; otherwise it is
        ``to_entry(parse(path, data=bytes))``, so a file that fails to parse
        raises as it would without the cache and is never stored.
        """
        # imported here: at module level, loading OpenSSL would add about 3 ms
        # and 3.5 MB to every `import pacebench.cli`
        import hashlib

        values, parsed = [], 0
        for name in names:
            path = os.path.join(self.directory, name)
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            stored = self._entries.get(name)
            value = None
            if type(stored) is list and len(stored) == 2 and stored[0] == digest:
                try:
                    value = from_entry(stored[1])
                except (LookupError, TypeError, ValueError, ComputationError):
                    pass  # stored under other rules or edited: parse the file again
            if value is None:
                entry = to_entry(parse(path, data=data))
                value = from_entry(entry)
                self._entries[name] = [digest, entry]
                parsed += 1
            values.append(value)
        return values, parsed

    def save(self) -> None:
        """Write the cache file if an entry was added, changed or dropped."""
        if self._entries != self._stored:
            cache = {"version": self.version, "entries": self._entries}
            atomic_write_text(self.path, json.dumps(cache, sort_keys=True) + "\n")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Replace *path* with a file holding *data*, unless it is already a
    regular file holding exactly *data*: then it is left as it is, and its
    inode and times do not change."""
    path = Path(path)
    if _holds(path, data):
        return
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


def _holds(path: Path, data: bytes) -> bool:
    """Whether *path* is a regular file of exactly *data*'s bytes. Only a regular
    file of the same size is opened, and without blocking or following a link,
    so a FIFO, device or directory put there in the meantime is never read."""
    try:
        st = os.stat(path)
        if not (stat.S_ISREG(st.st_mode) and st.st_size == len(data)):
            return False
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW | os.O_CLOEXEC)
    except OSError:
        return False
    with open(fd, "rb") as fh:
        st = os.fstat(fd)
        return stat.S_ISREG(st.st_mode) and st.st_size == len(data) and fh.read() == data


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))

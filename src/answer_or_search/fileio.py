"""How every pipeline file is written and read back.

Writers go through :func:`atomic_write`: the text lands in a tmp file next to
the target and is moved into place with ``os.replace``, so a reader sees the
old file or the new one, never half of one. Readers turn every decoding or
parsing failure into a :class:`DataError` naming the file and line. A
line-delimited output carries a sidecar ``<name>.manifest.json`` whose
``records`` field lets readers reject a truncated or stale file.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import DataError

T = TypeVar("T")

#: What a bad input raises while being decoded or turned into an object:
#: JSONDecodeError and UnicodeDecodeError are ValueErrors; a document nested
#: too deep is a RecursionError; a missing field is a KeyError; a value of the
#: wrong JSON type is usually a TypeError; an integer too large for a float is
#: an OverflowError; a value the object's own checks refuse is a DataError.
_PARSE_ERRORS = (ValueError, RecursionError, KeyError, TypeError, OverflowError, DataError)


def is_number(value: object) -> bool:
    """Whether JSON decoded ``value`` as a number; a bool is not one."""
    return isinstance(value, float) or type(value) is int


def encode_infinity(value: float) -> float | str:
    """``value``, or ``"+inf"``/``"-inf"`` for an infinity, which JSON cannot hold."""
    if value == math.inf:
        return "+inf"
    if value == -math.inf:
        return "-inf"
    return value


def decode_infinity(raw: object) -> object:
    """The number :func:`encode_infinity` wrote; any other value is returned as it is."""
    if raw == "+inf":
        return math.inf
    if raw == "-inf":
        return -math.inf
    return raw


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Text handle whose contents replace ``path`` only if the block succeeds.

    The parent directory is created. The tmp file is named
    ``<name>.<pid>.tmp``, so writers in different processes never share one;
    two threads of one process must not write the same path at once. It is
    removed if the write fails. An ``OSError`` (a full disk, say) or a
    ``ValueError`` (a NaN, which standard JSON cannot hold, say) becomes a
    :class:`DataError` naming ``path``. Newlines are written untranslated, so
    the bytes are the same on every platform. There is no fsync.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"{path} cannot be written: {exc.strerror or exc}") from exc
        if isinstance(exc, ValueError):
            raise DataError(f"{path} cannot be written: {exc}") from exc
        raise


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> Path:
    """Write one compact JSON object per line, non-ASCII kept verbatim."""
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, allow_nan=False) + "\n")
    return Path(path)


def write_json(path: str | Path, doc: dict) -> Path:
    """Write one JSON document with sorted keys and two-space indents."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return Path(path)


def _open(path: Path, what: str) -> TextIO:
    """``path`` opened for reading; a DataError names a file it cannot open (a directory, say)."""
    try:
        return path.open("r", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"{what} does not exist: {path}") from None
    except OSError as exc:
        raise DataError(f"{what} {path} cannot be read: {exc.strerror}") from exc


def read_lines(path: str | Path, parse: Callable[[str, int], T], what: str) -> list[T]:
    """``parse(line, line_no)`` for every non-blank line, newline stripped.

    Line numbers count blank lines too, so they match what an editor shows.
    """
    path = Path(path)
    rows: list[T] = []
    with _open(path, what) as fh:
        line_no = 0
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    rows.append(parse(line.rstrip("\n"), line_no))
        except _PARSE_ERRORS as exc:
            raise DataError(f"malformed {what} in {path} at line {line_no}: {exc}") from exc
    return rows


def read_jsonl(path: str | Path, parse: Callable[[Any], T], what: str) -> list[T]:
    """``parse(row)`` for the decoded JSON value of every non-blank line."""
    return read_lines(path, lambda line, _: parse(json.loads(line)), what)


def read_json(path: str | Path, parse: Callable[[Any], T], what: str) -> T:
    """``parse(doc)`` for the one JSON document in ``path``."""
    path = Path(path)
    with _open(path, what) as fh:
        try:
            return parse(json.load(fh))
        except _PARSE_ERRORS as exc:
            raise DataError(f"malformed {what} in {path}: {exc}") from exc


def manifest_path_for(path: str | Path) -> Path:
    """The sidecar manifest of a line-delimited file: ``<name>.manifest.json``."""
    path = Path(path)
    return path.with_name(path.name + ".manifest.json")


def write_manifest(path: str | Path, records: int, **fields) -> Path:
    """Write the sidecar of ``path``: its record count plus provenance fields."""
    return write_json(manifest_path_for(path), {"records": records, **fields})


def check_manifest(path: str | Path, n: int) -> None:
    """Reject ``path`` if its sidecar exists and counts other than ``n`` records.

    Files supplied by hand usually have no sidecar; they are not checked.
    """
    manifest = manifest_path_for(path)
    if not manifest.exists():
        return
    records = read_json(manifest, lambda doc: doc["records"], "manifest")
    if records != n:
        raise DataError(
            f"{path} holds {n} records but its manifest {manifest} says {records}; "
            "the file is truncated or stale"
        )

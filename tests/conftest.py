from __future__ import annotations

import json
import socket
import sqlite3
import tempfile
import threading
from collections.abc import Iterator
from contextlib import closing, contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

from answer_or_search.corpus import Corpus, QaRecord
from answer_or_search.errors import DataError
from answer_or_search.inference import CACHE_FILE, GenerationClient, ResponseCache
from answer_or_search.predictions import Prediction

#: Any JSON value, a little nested.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)

#: Any line of text, without lone surrogates (which cannot be written as UTF-8).
ANY_LINE = st.text(st.characters(blacklist_categories=("Cs",)))


@st.composite
def damaged(draw, doc: dict) -> dict:
    """``doc`` with some fields, at any depth, deleted or replaced by any JSON value."""
    doc = dict(doc)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), unique=True)):
        if isinstance(doc[key], dict) and draw(st.booleans()):
            doc[key] = draw(damaged(doc[key]))
        elif draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(JSON_VALUES)
    return doc


def read_or_data_error(read, files: dict[str, str]):
    """``read`` of the first of ``files`` (name -> text) written to a fresh
    directory, or None if it raises :class:`DataError`."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in files]
        for path, text in zip(paths, files.values()):
            path.write_text(text, encoding="utf-8")
        try:
            return read(paths[0])
        except DataError:
            return None


def make_record(rec_id: str, question: str, answers: list[str], split: str = "dev") -> QaRecord:
    return QaRecord(id=rec_id, question=question, gold_answers=tuple(answers), split=split)


def make_corpus(*records: QaRecord, name: str = "fixture") -> Corpus:
    return Corpus(name=name, records=tuple(records))


def make_prediction(rec_id: str, text: str, logprobs: tuple[float, ...] = (-0.5,)) -> Prediction:
    return Prediction(rec_id, text, logprobs)


def stub_post(monkeypatch, status: int, body: bytes, headers: dict | None = None) -> list[str]:
    """Make every POST of a :class:`GenerationClient` answer ``status`` with
    ``body`` and ``headers``, with no connection opened.

    Returns the list that each post appends the client's endpoint URL to.
    """
    posts = []

    def post(self, payload: bytes):
        posts.append(self.endpoint)
        return status, headers or {}, body

    monkeypatch.setattr(GenerationClient, "_post", post)
    return posts


def http_response(status: str, body: bytes = b"", headers: dict | None = None) -> bytes:
    """The raw bytes of an HTTP/1.1 response with ``body``."""
    fields = {"Content-Length": str(len(body)), **(headers or {})}
    head = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
    return f"HTTP/1.1 {status}\r\n{head}\r\n".encode("ascii") + body


def ok_response(text: str) -> bytes:
    return http_response("200 OK", json.dumps({"text": text, "token_logprobs": [-0.5]}).encode())


class RawServer:
    """A TCP server that answers from a script of raw responses, one connection at a time.

    ``script`` holds, for each connection in the order they are accepted, the
    responses to send, one per request read; the connection is closed after
    its last one. ``requests[i]`` lists the heads (request line and header
    lines) of the requests read on connection ``i``, and ``closed[i]`` is set
    once it is closed.
    """

    def __init__(self, script: list[list[bytes]]) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.script = script
        self.requests: list[list[str]] = [[] for _ in script]
        self.closed = [threading.Event() for _ in script]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        for i, responses in enumerate(self.script):
            conn, _ = self._listener.accept()
            with conn, conn.makefile("rb") as reader:
                for response in responses:
                    head = _read_request(reader)
                    if head is None:
                        break
                    self.requests[i].append(head)
                    conn.sendall(response)
            self.closed[i].set()

    def close(self) -> None:
        self._listener.close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "RawServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _read_request(reader) -> str | None:
    """Read one request and return its head; None at end of stream."""
    head = []
    length = 0
    while True:
        line = reader.readline()
        if not line:
            return None
        if line == b"\r\n":
            break
        head.append(line.decode("latin-1"))
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    reader.read(length)
    return "".join(head)


@pytest.fixture
def small_corpus() -> Corpus:
    return make_corpus(
        make_record("q1", "capital of France?", ["Paris"]),
        make_record("q2", "first emperor of France?", ["Napoleon"]),
        make_record("q3", "capital of Italy?", ["Rome", "Roma"]),
    )


@contextmanager
def open_client(url: str, cache_dir: str | Path, **options) -> Iterator[GenerationClient]:
    """A client of model tag "m" on the cache in ``cache_dir``; both are closed on exit."""
    with ResponseCache(cache_dir) as cache, closing(
        GenerationClient(url, "m", cache, **options)
    ) as client:
        yield client


def cache_rows(cache_dir: str | Path) -> dict[bytes, str | bytes]:
    """Every row of the response cache in ``cache_dir``: key -> stored response text."""
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db:
        return dict(db.execute("SELECT key, response FROM responses"))


def write_cache_row(cache_dir: str | Path, key: bytes, response: str | bytes) -> None:
    """Store ``response`` under ``key`` as it is, bypassing :class:`ResponseCache`."""
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db, db:
        db.execute("INSERT OR REPLACE INTO responses VALUES (?, ?)", (key, response))


def write_old_layout_cache(cache_dir: str | Path, rows: dict[str, str | bytes]) -> None:
    """A response cache as earlier versions wrote it: ``entries`` rows, key -> entry."""
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db, db:
        db.execute("PRAGMA journal_mode=WAL")
        db.execute("CREATE TABLE entries (key TEXT PRIMARY KEY, entry TEXT NOT NULL)")
        db.executemany("INSERT INTO entries VALUES (?, ?)", rows.items())


def table_names(cache_dir: str | Path) -> list[str]:
    """The tables of the response cache in ``cache_dir``."""
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db:
        rows = db.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return [name for (name,) in rows]

from __future__ import annotations

import sqlite3
import tempfile
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import strategies as st

from answer_or_search.corpus import Corpus, QaRecord
from answer_or_search.errors import DataError
from answer_or_search.inference import CACHE_FILE, Prediction

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


def make_prediction(
    rec_id: str,
    text: str,
    logprobs: tuple[float, ...] = (-0.5,),
    model_tag: str = "mock-model",
    prompt_style: str = "zeroshot-qa",
) -> Prediction:
    return Prediction.build(rec_id, text, logprobs, model_tag, prompt_style)


def stub_post(monkeypatch, status: int, body: bytes) -> list[str]:
    """Make every ``requests.Session.post`` answer ``status`` with ``body``.

    Returns the list that each post appends its URL to.
    """
    import requests

    posts = []

    def post(self, url, *args, **kwargs):
        posts.append(url)
        resp = requests.Response()
        resp.status_code = status
        resp._content = body
        return resp

    monkeypatch.setattr(requests.Session, "post", post)
    return posts


@pytest.fixture
def small_corpus() -> Corpus:
    return make_corpus(
        make_record("q1", "capital of France?", ["Paris"]),
        make_record("q2", "first emperor of France?", ["Napoleon"]),
        make_record("q3", "capital of Italy?", ["Rome", "Roma"]),
    )


def cache_rows(cache_dir: str | Path) -> dict[str, str | bytes]:
    """Every row of the response cache in ``cache_dir``: key -> stored entry."""
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db:
        return dict(db.execute("SELECT key, entry FROM entries"))


def write_cache_row(cache_dir: str | Path, key: str, entry: str | bytes) -> None:
    """Store ``entry`` under ``key`` as it is, bypassing :class:`ResponseCache`."""
    with closing(sqlite3.connect(Path(cache_dir) / CACHE_FILE)) as db, db:
        db.execute("INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, entry))

from __future__ import annotations

import pytest

from answer_or_search.corpus import Corpus, QaRecord
from answer_or_search.inference import Prediction


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

"""Predictions: the response contract, a checked answer, and the predictions file.

The stages after ``infer`` read predictions from here, never loading the
endpoint client or the response cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import parse_record_id
from .errors import DataError
from .fileio import decode_infinity, encode_infinity, is_number, read_jsonl, write_jsonl

#: The prompt styles ``infer`` can build, named here and nowhere else.
PROMPT_STYLES = ("zeroshot-qa", "fewshot-balanced", "instruct-idk")
ZEROSHOT_QA, FEWSHOT_BALANCED, INSTRUCT_IDK = PROMPT_STYLES

#: Default zero-shot template: the bare question, for QA-tuned checkpoints.
DEFAULT_TEMPLATE = "{q}"

DEFAULT_MAX_NEW_TOKENS = 32


def perplexity(token_logprobs: Sequence[float]) -> float:
    """Sequence perplexity: exp of the negative mean token log-probability.

    ``token_logprobs`` must be a non-empty list or tuple of finite numbers
    <= 0 (a bool is not a number), or :class:`DataError` is raised. The
    result is >= 1, equals 1 iff every log-probability is 0, is invariant
    under permutation, and saturates to +inf.
    """
    if not isinstance(token_logprobs, (list, tuple)) or not token_logprobs:
        raise DataError("token log-probabilities must be a non-empty list")
    for lp in token_logprobs:
        if not is_number(lp) or not -math.inf < lp <= 0:
            raise DataError(f"token log-probabilities must be finite numbers <= 0, got {lp!r}")
    try:
        return math.exp(-sum(token_logprobs) / len(token_logprobs))
    except OverflowError:
        return math.inf


def check_response(response: object) -> float:
    """The response contract; returns the perplexity of a response that meets it.

    A response is a JSON object with a string ``text`` that encodes as UTF-8
    (no lone surrogate, which no file or cache row could hold) and
    ``token_logprobs`` as :func:`perplexity` takes them; a zero-token answer,
    empty ``text`` and ``token_logprobs``, has perplexity ``+inf``. A breach
    raises :class:`DataError`.
    """
    if not isinstance(response, dict):
        raise DataError("response is not a JSON object")
    text = response.get("text")
    if not isinstance(text, str):
        raise DataError("response 'text' is missing or not a string")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DataError(f"response 'text' is not valid UTF-8: {exc.reason}") from None
    if text == "" and response.get("token_logprobs") in ([], ()):
        return math.inf
    return perplexity(response.get("token_logprobs"))


@dataclass(frozen=True)
class Prediction:
    """A model's answer, checked by :func:`check_response`, which also gives
    its ``perplexity``. The model tag and prompt style are the run's, kept
    once in the predictions manifest."""

    record_id: str
    text: str
    token_logprobs: tuple[float, ...]
    perplexity: float = field(init=False)

    def __post_init__(self) -> None:
        try:
            ppl = check_response({"text": self.text, "token_logprobs": self.token_logprobs})
        except DataError as exc:
            raise DataError(f"record {self.record_id}: {exc}") from exc
        object.__setattr__(self, "token_logprobs", tuple(self.token_logprobs))
        object.__setattr__(self, "perplexity", ppl)

    def to_dict(self) -> dict:
        return {
            "id": self.record_id,
            "text": self.text,
            "token_logprobs": list(self.token_logprobs),
            "perplexity": encode_infinity(self.perplexity),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Prediction":
        """The prediction a row holds; the ``model_tag`` and ``prompt_style``
        that rows of earlier versions repeat are ignored."""
        pred = cls(parse_record_id(raw["id"]), raw["text"], raw["token_logprobs"])
        stored = decode_infinity(raw["perplexity"])
        if not is_number(stored) or not math.isclose(stored, pred.perplexity, rel_tol=1e-9):
            raise DataError(
                f"record {pred.record_id}: perplexity {stored!r} is not the number "
                f"its log-probabilities give ({pred.perplexity})"
            )
        return pred


def write_predictions(
    predictions: Sequence[Prediction], path: str | Path, manifest: dict | None = None
) -> Path:
    return write_jsonl(path, (pred.to_dict() for pred in predictions), manifest)


def read_predictions(path: str | Path) -> list[Prediction]:
    """Read a predictions file, checked against its sidecar manifest if any;
    a record id met twice is a :class:`DataError` naming the file and line."""
    seen: set[str] = set()

    def parse(raw: dict) -> Prediction:
        pred = Prediction.from_dict(raw)
        if pred.record_id in seen:
            raise DataError(f"duplicate prediction for record {pred.record_id!r}")
        seen.add(pred.record_id)
        return pred

    return read_jsonl(path, parse, "predictions file")

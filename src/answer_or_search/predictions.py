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
from .fileio import check_manifest, decode_infinity, encode_infinity, is_number, read_jsonl, write_jsonl

PROMPT_STYLES = ("zeroshot-qa", "fewshot-balanced", "instruct-idk")

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

    A response is a JSON object with a string ``text`` and ``token_logprobs``
    as :func:`perplexity` takes them. A breach raises :class:`DataError`.
    """
    if not isinstance(response, dict):
        raise DataError("response is not a JSON object")
    if not isinstance(response.get("text"), str):
        raise DataError("response 'text' is missing or not a string")
    return perplexity(response.get("token_logprobs"))


@dataclass(frozen=True)
class Prediction:
    """A model's answer, checked by :func:`check_response`, which also gives
    its ``perplexity``."""

    record_id: str
    text: str
    token_logprobs: tuple[float, ...]
    perplexity: float = field(init=False)
    model_tag: str
    prompt_style: str

    def __post_init__(self) -> None:
        if self.prompt_style not in PROMPT_STYLES:
            raise DataError(
                f"record {self.record_id}: unknown prompt style {self.prompt_style!r}"
            )
        if not isinstance(self.model_tag, str):
            raise DataError(f"record {self.record_id}: model_tag {self.model_tag!r} is not a string")
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
            "model_tag": self.model_tag,
            "prompt_style": self.prompt_style,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Prediction":
        pred = cls(
            record_id=parse_record_id(raw["id"]),
            text=raw["text"],
            token_logprobs=raw["token_logprobs"],
            model_tag=raw["model_tag"],
            prompt_style=raw["prompt_style"],
        )
        stored = decode_infinity(raw["perplexity"])
        if not is_number(stored) or not math.isclose(stored, pred.perplexity, rel_tol=1e-9):
            raise DataError(
                f"record {pred.record_id}: perplexity {stored!r} is not the number "
                f"its log-probabilities give ({pred.perplexity})"
            )
        return pred


def write_predictions(predictions: Sequence[Prediction], path: str | Path) -> Path:
    return write_jsonl(path, (pred.to_dict() for pred in predictions))


def read_predictions(path: str | Path) -> list[Prediction]:
    """Read a predictions file, checked against its sidecar manifest if any."""
    preds = read_jsonl(path, Prediction.from_dict, "predictions file")
    check_manifest(path, len(preds))
    return preds

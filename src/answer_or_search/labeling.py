"""Hallucination masking: turn a model's own predictions into training labels.

A prediction that matches a gold answer keeps its exact surface form as the
training target; anything else is replaced by the search token. The mask rate
of the resulting dataset therefore equals the base model's hallucination rate
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import (
    DEFAULT_PROFILE,
    Corpus,
    NormalizationProfile,
    QaRecord,
    SearchToken,
    normalize,
    parse_record_id,
)
from .errors import DataError, PairingError
from .fileio import manifest_path_for, read_json, read_jsonl, write_jsonl
from .predictions import Prediction


@dataclass(frozen=True)
class MaskedExample:
    """One training pair: question -> (own answer kept verbatim | search token)."""

    record_id: str
    question: str
    target: str
    was_masked: bool


@dataclass(frozen=True)
class MaskedDataset:
    examples: tuple[MaskedExample, ...]
    token: SearchToken

    def stats(self) -> dict:
        n_total = len(self.examples)
        n_masked = sum(1 for ex in self.examples if ex.was_masked)
        return {"n_total": n_total, "n_answer": n_total - n_masked, "n_masked": n_masked}


def mask_prediction(
    prediction: Prediction,
    record: QaRecord,
    profile: NormalizationProfile,
    token: SearchToken = SearchToken(),
) -> MaskedExample:
    """Keep a correct prediction verbatim; replace a wrong one with the token."""
    golds = [normalize(gold, profile) for gold in record.gold_answers]
    return _mask(prediction, record, golds, profile, token)


def _mask(
    prediction: Prediction,
    record: QaRecord,
    golds: list[str],
    profile: NormalizationProfile,
    token: SearchToken,
) -> MaskedExample:
    """:func:`mask_prediction`, given ``record``'s golds normalized under ``profile``."""
    if prediction.record_id != record.id:
        raise PairingError(
            f"prediction {prediction.record_id!r} paired with record {record.id!r}"
        )
    if normalize(prediction.text, profile) in golds:
        return MaskedExample(record.id, record.question, prediction.text, was_masked=False)
    return MaskedExample(record.id, record.question, token.literal, was_masked=True)


def build_masked_dataset(
    predictions: Sequence[Prediction],
    corpus: Corpus,
    profile: NormalizationProfile = DEFAULT_PROFILE,
    token: SearchToken = SearchToken(),
) -> MaskedDataset:
    """One masked example per prediction, ordered by the corpus.

    Predictions must cover a subset of corpus ids with no duplicates. Answers
    are matched under ``profile``, the same default as :func:`mask_prediction`.
    A labeled record is refused if a gold answer normalizes like the search
    token, since its masked target would be judged correct. Each gold is
    normalized once, for that check and for the match alike.
    """
    by_id: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.record_id in by_id:
            raise DataError(f"duplicate prediction for record {pred.record_id!r}")
        if pred.record_id not in corpus:
            raise DataError(f"prediction for unknown record {pred.record_id!r}")
        by_id[pred.record_id] = pred

    token_norm = normalize(token.literal, profile)
    examples = []
    for rec in corpus:
        if rec.id not in by_id:
            continue
        golds = [normalize(gold, profile) for gold in rec.gold_answers]
        if token_norm in golds:
            raise DataError(
                f"search token {token.literal!r} collides with a gold answer "
                f"of record {rec.id!r}; labeling refused"
            )
        examples.append(_mask(by_id[rec.id], rec, golds, profile, token))
    return MaskedDataset(tuple(examples), token)


def write_masked_dataset(dataset: MaskedDataset, path: str | Path, **fields) -> Path:
    """Emit the dataset as line-delimited records plus a sidecar manifest,
    which holds its stats and search token besides ``fields``."""
    return write_jsonl(
        path,
        (
            {
                "id": ex.record_id,
                "question": ex.question,
                "target": ex.target,
                "was_masked": ex.was_masked,
            }
            for ex in dataset.examples
        ),
        {"stats": dataset.stats(), "search_token": dataset.token.literal, **fields},
    )


def _parse_example(raw: dict) -> MaskedExample:
    example = MaskedExample(
        record_id=parse_record_id(raw["id"]),
        question=raw["question"],
        target=raw["target"],
        was_masked=raw["was_masked"],
    )
    if not (isinstance(example.question, str) and isinstance(example.target, str)):
        raise DataError(f"record {example.record_id}: question and target must be strings")
    if not isinstance(example.was_masked, bool):
        raise DataError(f"record {example.record_id}: was_masked must be true or false")
    return example


def read_masked_dataset(path: str | Path) -> MaskedDataset:
    """Re-ingest an emitted dataset (with its manifest) exactly; the
    ``model_tag`` that manifests of earlier versions hold is ignored."""
    examples = tuple(read_jsonl(path, _parse_example, "masked dataset"))

    def parse_manifest(manifest: dict) -> tuple[MaskedDataset, dict]:
        return MaskedDataset(examples, SearchToken(manifest["search_token"])), manifest["stats"]

    dataset, stats = read_json(manifest_path_for(path), parse_manifest, "masked dataset manifest")
    if dataset.stats() != stats:
        raise DataError(f"manifest stats {stats} do not match examples {dataset.stats()}")
    return dataset

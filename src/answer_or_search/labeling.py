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
    exact_match,
    normalize,
    parse_record_id,
)
from .errors import DataError, PairingError
from .fileio import (
    check_manifest,
    manifest_path_for,
    read_json,
    read_jsonl,
    write_jsonl,
    write_manifest,
)
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
    model_tag: str
    corpus_name: str
    profile: NormalizationProfile
    token: SearchToken

    @property
    def n_total(self) -> int:
        return len(self.examples)

    @property
    def n_masked(self) -> int:
        return sum(1 for ex in self.examples if ex.was_masked)

    @property
    def n_answer(self) -> int:
        return self.n_total - self.n_masked

    def stats(self) -> dict:
        return {"n_total": self.n_total, "n_answer": self.n_answer, "n_masked": self.n_masked}


def mask_prediction(
    prediction: Prediction,
    record: QaRecord,
    profile: NormalizationProfile,
    token: SearchToken = SearchToken(),
) -> MaskedExample:
    """Keep a correct prediction verbatim; replace a wrong one with the token."""
    if prediction.record_id != record.id:
        raise PairingError(
            f"prediction {prediction.record_id!r} paired with record {record.id!r}"
        )
    if exact_match(prediction.text, record.gold_answers, profile):
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
    token, since its masked target would be judged correct.
    """
    by_id: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.record_id in by_id:
            raise DataError(f"duplicate prediction for record {pred.record_id!r}")
        if pred.record_id not in corpus:
            raise DataError(f"prediction for unknown record {pred.record_id!r}")
        by_id[pred.record_id] = pred

    model_tags = {pred.model_tag for pred in predictions}
    if len(model_tags) > 1:
        raise DataError(f"predictions mix model tags: {sorted(model_tags)}")
    model_tag = model_tags.pop() if model_tags else ""

    token_norm = normalize(token.literal, profile)
    examples = []
    for rec in corpus:
        if rec.id not in by_id:
            continue
        if any(normalize(gold, profile) == token_norm for gold in rec.gold_answers):
            raise DataError(
                f"search token {token.literal!r} collides with a gold answer "
                f"of record {rec.id!r}; labeling refused"
            )
        examples.append(mask_prediction(by_id[rec.id], rec, profile, token))
    return MaskedDataset(
        examples=tuple(examples),
        model_tag=model_tag,
        corpus_name=corpus.name,
        profile=profile,
        token=token,
    )


def write_masked_dataset(
    dataset: MaskedDataset,
    path: str | Path,
    extra_manifest: dict | None = None,
) -> Path:
    """Emit the dataset as line-delimited records plus a sidecar manifest."""
    path = write_jsonl(
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
    )
    write_manifest(
        path,
        dataset.n_total,
        stats=dataset.stats(),
        provenance={
            "model_tag": dataset.model_tag,
            "corpus": dataset.corpus_name,
            "normalization_profile": dataset.profile.to_dict(),
            "normalization_profile_hash": dataset.profile.fingerprint(),
            "search_token": dataset.token.literal,
        },
        **(extra_manifest or {}),
    )
    return path


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
    """Re-ingest an emitted dataset (with its manifest) exactly."""
    examples = tuple(read_jsonl(path, _parse_example, "masked dataset"))

    def parse_manifest(manifest: dict) -> tuple[MaskedDataset, dict]:
        provenance = manifest["provenance"]
        if not isinstance(provenance["model_tag"], str) or not isinstance(provenance["corpus"], str):
            raise DataError("provenance model_tag and corpus must be strings")
        dataset = MaskedDataset(
            examples=examples,
            model_tag=provenance["model_tag"],
            corpus_name=provenance["corpus"],
            profile=NormalizationProfile.from_dict(provenance["normalization_profile"]),
            token=SearchToken(provenance["search_token"]),
        )
        return dataset, manifest["stats"]

    dataset, stats = read_json(manifest_path_for(path), parse_manifest, "masked dataset manifest")
    check_manifest(path, len(examples))
    if dataset.stats() != stats:
        raise DataError(f"manifest stats {stats} do not match examples {dataset.stats()}")
    return dataset

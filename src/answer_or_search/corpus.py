"""QA corpora: canonical record format, answer normalization, exact-match judging.

A corpus is an ordered, immutable collection of question/gold-answer records.
Normalization follows the usual generative-QA convention: lowercase, strip
punctuation, drop stopwords, collapse whitespace. Both the prediction and the
gold answers are normalized before comparison, so "Napoleon I" matches a gold
answer of "Napoleon". The search token, the output that stands for a call to
the search tool, lives here too, next to the matching that judges outputs.
"""

from __future__ import annotations

import hashlib
import json
import string
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ._stopwords import ENGLISH_STOPWORDS, STOPWORDS_VERSION
from .errors import DataError
from .fileio import read_lines, write_jsonl

SPLITS = ("train", "dev", "test")
CORPUS_FORMATS = ("canonical-jsonl", "tsv-pairs")

_ASCII_PUNCT = frozenset(string.punctuation)


@dataclass(frozen=True)
class NormalizationProfile:
    """Settings that define how answer text is canonicalized before judging.

    The profile travels with every emitted report (as a dict plus a content
    hash) so downstream numbers can be reproduced bit-for-bit.
    """

    lowercase: bool = True
    strip_punctuation: bool = True
    stopwords: tuple[str, ...] = ENGLISH_STOPWORDS
    collapse_whitespace: bool = True
    unicode_fold: bool = True
    stopwords_version: str = STOPWORDS_VERSION

    def to_dict(self) -> dict:
        return {
            "lowercase": self.lowercase,
            "strip_punctuation": self.strip_punctuation,
            "stopwords": list(self.stopwords),
            "collapse_whitespace": self.collapse_whitespace,
            "unicode_fold": self.unicode_fold,
            "stopwords_version": self.stopwords_version,
        }

    def fingerprint(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @cached_property
    def stopword_set(self) -> frozenset[str]:
        """``stopwords`` as a set, built once; not a field, so no hash sees it."""
        return frozenset(self.stopwords)


DEFAULT_PROFILE = NormalizationProfile()


def _is_punctuation(ch: str) -> bool:
    # Unicode punctuation categories plus all ASCII symbols, so that e.g.
    # "<", "+" and "$" are stripped the same way on every platform.
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


class _DropTable(dict):
    """A ``str.translate`` table deleting what ``drop`` accepts; each code point
    is decided on first sight and the answer kept (None deletes, itself keeps)."""

    def __init__(self, drop: Callable[[str], bool]) -> None:
        super().__init__()
        self._drop = drop

    def __missing__(self, code: int) -> int | None:
        kept = self[code] = None if self._drop(chr(code)) else code
        return kept


_MARKS = _DropTable(lambda ch: unicodedata.category(ch) == "Mn")
_PUNCTUATION = _DropTable(_is_punctuation)


def normalize(text: str, profile: NormalizationProfile = DEFAULT_PROFILE) -> str:
    """Canonicalize ``text`` under ``profile``. Deterministic and idempotent."""
    out = text
    # NFKD leaves ASCII as it is, and no ASCII character is a mark (Mn).
    if profile.unicode_fold and not out.isascii():
        out = unicodedata.normalize("NFKD", out).translate(_MARKS)
    if profile.lowercase:
        out = out.lower()
    if profile.strip_punctuation:
        out = out.translate(_PUNCTUATION)
    if profile.stopwords:
        # Stopword comparison happens after lowercasing; whole tokens only.
        drop = profile.stopword_set
        out = " ".join(tok for tok in out.split() if tok not in drop)
    elif profile.collapse_whitespace:
        out = " ".join(out.split())
    return out


def exact_match(
    prediction: str,
    gold_answers: Sequence[str],
    profile: NormalizationProfile = DEFAULT_PROFILE,
) -> bool:
    """True iff the normalized prediction equals at least one normalized gold."""
    if not gold_answers:
        raise DataError("exact_match requires a non-empty gold answer list")
    pred = normalize(prediction, profile)
    return any(pred == normalize(g, profile) for g in gold_answers)


class Judgment(Enum):
    CORRECT = "C"
    HALLUCINATED = "H"
    SEARCH = "S"


#: The output that signals a call to the search tool, unless configured otherwise.
DEFAULT_SEARCH_TOKEN = "<search>"


@dataclass(frozen=True)
class SearchToken:
    """The output sequence that signals a call to an external tool."""

    literal: str = DEFAULT_SEARCH_TOKEN

    def __post_init__(self) -> None:
        if not isinstance(self.literal, str) or not self.literal.strip():
            raise DataError(f"search token must be a non-empty string, got {self.literal!r}")


def parse_record_id(value: object) -> str:
    """A record id as a JSON file holds it: a string, or an integer (not a
    bool) taken as its digits. Anything else is a :class:`DataError`."""
    if isinstance(value, str) or type(value) is int:
        return str(value)
    raise DataError(f"record id must be a string or an integer, got {value!r}")


@dataclass(frozen=True)
class QaRecord:
    """One question with its admissible gold answers and split tag."""

    id: str
    question: str
    gold_answers: tuple[str, ...]
    split: str = "train"

    def __post_init__(self) -> None:
        if not self.id:
            raise DataError("record id must be non-empty")
        if not self.question.strip():
            raise DataError(f"record {self.id}: question is empty")
        if not self.gold_answers:
            raise DataError(f"record {self.id}: gold answer list is empty")
        if any(not g.strip() for g in self.gold_answers):
            raise DataError(f"record {self.id}: gold answer is empty")
        if self.split not in SPLITS:
            raise DataError(f"record {self.id}: unknown split {self.split!r}")


@dataclass(frozen=True)
class Corpus:
    """Ordered, immutable collection of records; iteration order == ingestion order."""

    name: str
    records: tuple[QaRecord, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        by_id: dict[str, QaRecord] = {}
        for rec in self.records:
            if rec.id in by_id:
                raise DataError(f"duplicate record id {rec.id!r} in corpus {self.name!r}")
            by_id[rec.id] = rec
        object.__setattr__(self, "_by_id", by_id)

    def __iter__(self) -> Iterator[QaRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, record_id: str) -> QaRecord:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise DataError(f"unknown record id {record_id!r} in corpus {self.name!r}") from None

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id


def _parse_canonical_line(line: str, line_no: int, default_split: str) -> QaRecord:
    raw = json.loads(line)
    question = raw["question"]
    answers = raw["answers"]
    rec_id = parse_record_id(raw.get("id", f"q{line_no:06d}"))
    if not isinstance(answers, list) or not answers:
        raise DataError(f"record {rec_id}: gold answer list is empty or not a list")
    if not all(isinstance(text, str) for text in (question, *answers)):
        raise DataError(f"record {rec_id}: question and gold answers must be strings")
    return QaRecord(
        id=rec_id,
        question=question,
        gold_answers=tuple(answers),
        split=str(raw.get("split", default_split)),
    )


def _parse_tsv_line(line: str, line_no: int, split: str) -> QaRecord:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError("expected question<TAB>answers")
    question, answer_field = parts
    answers = tuple(a for a in answer_field.split("|") if a.strip())
    if not answers:
        raise DataError(f"record q{line_no:06d}: gold answer list is empty")
    return QaRecord(id=f"q{line_no:06d}", question=question, gold_answers=answers, split=split)


def ingest(
    path: str | Path,
    fmt: str = "canonical-jsonl",
    split: str = "train",
    name: str | None = None,
) -> Corpus:
    """Read a corpus file into a :class:`Corpus`, preserving file order.

    ``fmt`` is ``canonical-jsonl`` (one JSON object per line with fields
    ``id``, ``question``, ``answers``, optional ``split``) or ``tsv-pairs``
    (``question<TAB>answer1|answer2|...``). Records without ids get
    sequential ones derived from their line number. Malformed lines raise
    :class:`DataError` naming the offending line. A corpus holds no
    normalization profile: judging takes the profile as its own argument.
    """
    if split not in SPLITS:
        raise DataError(f"unknown split {split!r}")
    if fmt not in CORPUS_FORMATS:
        raise DataError(f"unknown corpus format {fmt!r}")
    parse = _parse_canonical_line if fmt == "canonical-jsonl" else _parse_tsv_line
    records = read_lines(path, lambda line, line_no: parse(line, line_no, split), "corpus file")
    return Corpus(name=name or Path(path).stem, records=tuple(records))


def write_canonical(corpus: Corpus, path: str | Path, manifest: dict | None = None) -> Path:
    """Emit ``corpus`` in the canonical line-delimited format.

    Re-ingesting the emitted file reproduces the corpus exactly (ids,
    order, text).
    """
    return write_jsonl(
        path,
        (
            {
                "id": rec.id,
                "question": rec.question,
                "answers": list(rec.gold_answers),
                "split": rec.split,
            }
            for rec in corpus
        ),
        manifest,
    )

"""Three-way judging (correct / hallucinated / search) and paired evaluation.

A base model only ever answers (C or H); an adapted model may also emit the
search token (S). Pairing the two per record gives the confusion cells:

    adapted C -> TP        adapted H -> FP
    base C, adapted S -> FN        base H, adapted S -> TN

so F1 rewards keeping correct answers and routing hallucinations to search.
The budget cost s_rate + lambda * h_rate scores how expensively a policy
avoids hallucinating (lambda >= 1 weights hallucinations).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .analysis import RATE_SUM_TOLERANCE
from .corpus import DEFAULT_PROFILE, Judgment, NormalizationProfile, QaRecord, SearchToken, exact_match
from .errors import DataError, PairingError
from .fileio import is_number, read_json, write_json


def _finite(value: object) -> bool:
    return is_number(value) and math.isfinite(value)


def judge(
    output: str,
    record: QaRecord,
    profile: NormalizationProfile = DEFAULT_PROFILE,
    token: SearchToken = SearchToken(),
) -> Judgment:
    """Classify one output: the search token wins, then exact match."""
    if output == token.literal:
        return Judgment.SEARCH
    if exact_match(output, record.gold_answers, profile):
        return Judgment.CORRECT
    return Judgment.HALLUCINATED


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion totals. Integers for per-item evaluations; fractional values
    appear when reconstructing cells from published percentage rates."""

    tp: float
    fp: float
    tn: float
    fn: float

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            if not _finite(getattr(self, name)) or getattr(self, name) < 0:
                raise DataError(f"confusion count {name} must be non-negative")

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def f1_score(counts: ConfusionCounts) -> float:
    """F1 = 2*tp / (2*tp + fp + fn); undefined when that denominator is zero."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom <= 0:
        raise DataError("F1 is undefined: 2*tp + fp + fn is zero")
    return 2 * counts.tp / denom


@dataclass(frozen=True)
class EvalReport:
    """Aggregate outcome of comparing an adapted model against its base.

    Rates are fractions in [0, 1]. Retention fractions are the share of
    base-Correct items still answered correctly and of base-Hallucinated
    items still hallucinated; ``None`` marks an undefined fraction (empty
    denominator), which is deliberately distinct from 0.
    """

    base_c: float
    base_h: float
    c: float
    h: float
    s: float
    retention_c: float | None
    retention_h: float | None
    confusion: ConfusionCounts
    f1: float | None
    budget_cost: float
    lam: float
    n_items: int | None = None

    def __post_init__(self) -> None:
        optional = ("retention_c", "retention_h", "f1")
        for name in ("base_c", "base_h", "c", "h", "s", "budget_cost", "lam", *optional):
            value = getattr(self, name)
            if not _finite(value) and not (value is None and name in optional):
                raise DataError(f"{name} must be a finite number, got {value!r}")
        if self.n_items is not None and (type(self.n_items) is not int or self.n_items < 1):
            raise DataError(f"n_items must be a positive integer or null, got {self.n_items!r}")
        # Per-item evaluations are exact; reports rebuilt from published
        # percentages inherit up to RATE_SUM_TOLERANCE points of rounding.
        tolerance = 1e-9 if self.n_items is not None else RATE_SUM_TOLERANCE / 100 + 1e-9
        if abs((self.c + self.h + self.s) - 1.0) > tolerance:
            raise DataError("adapted rates c + h + s must sum to 1")
        for frac in (self.retention_c, self.retention_h):
            if frac is not None and not 0.0 <= frac <= 1.0 + 1e-9:
                raise DataError("retention fractions must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "base_rates": {"c": self.base_c, "h": self.base_h},
            "rates": {"c": self.c, "h": self.h, "s": self.s},
            "retention": {"c": self.retention_c, "h": self.retention_h},
            "confusion": self.confusion.to_dict(),
            "f1": self.f1,
            "budget_cost": self.budget_cost,
            "lambda": self.lam,
            "n_items": self.n_items,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "EvalReport":
        return cls(
            base_c=raw["base_rates"]["c"],
            base_h=raw["base_rates"]["h"],
            c=raw["rates"]["c"],
            h=raw["rates"]["h"],
            s=raw["rates"]["s"],
            retention_c=raw["retention"]["c"],
            retention_h=raw["retention"]["h"],
            confusion=ConfusionCounts(**raw["confusion"]),
            f1=raw["f1"],
            budget_cost=raw["budget_cost"],
            lam=raw["lambda"],
            n_items=raw.get("n_items"),
        )


def evaluate_pair(
    base: Sequence[Judgment],
    adapted: Sequence[Judgment],
    *,
    lam: float = 1.0,
    base_ids: Sequence[str] | None = None,
    adapted_ids: Sequence[str] | None = None,
) -> EvalReport:
    """Compare aligned per-record judgments of a (base, adapted) model pair.

    The pairs are tallied once and every rate, retention share and confusion
    cell is read from that table. A base judgment of Search is refused.
    """
    if not lam >= 1.0:
        raise DataError(f"lambda must be >= 1, got {lam}")
    if len(base) != len(adapted):
        raise PairingError(
            f"judgment lists differ in length: {len(base)} base vs {len(adapted)} adapted"
        )
    if not base:
        raise DataError("cannot evaluate an empty judgment pairing")
    if base_ids is not None and adapted_ids is not None:
        if len(base_ids) != len(base) or len(adapted_ids) != len(adapted):
            raise PairingError("id lists must align with their judgment lists")
        for pos, (bid, aid) in enumerate(zip(base_ids, adapted_ids)):
            if bid != aid:
                raise PairingError(f"record ids diverge at position {pos}: {bid!r} vs {aid!r}")

    if Judgment.SEARCH in base:
        raise DataError("base-model judgments cannot be Search")
    n = len(base)
    pairs = Counter(zip(base, adapted))
    C, H, S = Judgment.CORRECT, Judgment.HALLUCINATED, Judgment.SEARCH
    base_c_n = pairs[C, C] + pairs[C, H] + pairs[C, S]
    base_h_n = n - base_c_n
    c_n = pairs[C, C] + pairs[H, C]
    h_n = pairs[C, H] + pairs[H, H]
    s_n = n - c_n - h_n
    # Table 1: adapted C -> TP, adapted H -> FP, base C searched -> FN,
    # base H searched -> TN.
    confusion = ConfusionCounts(tp=c_n, fp=h_n, tn=pairs[H, S], fn=pairs[C, S])
    try:
        f1 = f1_score(confusion)
    except DataError:
        f1 = None

    h_rate = h_n / n
    s_rate = s_n / n
    return EvalReport(
        base_c=base_c_n / n,
        base_h=base_h_n / n,
        c=c_n / n,
        h=h_rate,
        s=s_rate,
        retention_c=(pairs[C, C] / base_c_n) if base_c_n else None,
        retention_h=(pairs[H, H] / base_h_n) if base_h_n else None,
        confusion=confusion,
        f1=f1,
        budget_cost=s_rate + lam * h_rate,
        lam=lam,
        n_items=n,
    )


def confusion_from_rates(
    base_c: float, base_h: float, adapted_c: float, adapted_h: float
) -> ConfusionCounts:
    """Rate-weighted confusion cells from published percentage rates.

    Assumes zero cross transitions: no base-Correct item turned into a
    hallucination and no base-Hallucinated item turned correct, so every
    adapted C sits inside base C and every adapted H inside base H; searches
    absorb the remainder of each group.
    """
    fn = base_c - adapted_c
    tn = base_h - adapted_h
    if fn < -1e-9 or tn < -1e-9:
        raise DataError(
            "adapted rates exceed base rates; the zero cross-transition "
            "reconstruction does not apply"
        )
    return ConfusionCounts(tp=adapted_c, fp=adapted_h, tn=max(tn, 0.0), fn=max(fn, 0.0))


def report_from_rates(
    base_c: float,
    base_h: float,
    adapted_c: float,
    adapted_h: float,
    adapted_s: float,
    lam: float = 1.0,
) -> EvalReport:
    """Build a report from published percentage rates (no per-item data).

    Inputs are percentages as printed in results tables; they may miss 100
    by up to ``RATE_SUM_TOLERANCE`` points of rounding residue. Retention
    and confusion use the zero cross-transition reconstruction of
    :func:`confusion_from_rates`.
    """
    if not lam >= 1.0:
        raise DataError(f"lambda must be >= 1, got {lam}")
    for name, value in (
        ("base_c", base_c), ("base_h", base_h),
        ("adapted_c", adapted_c), ("adapted_h", adapted_h), ("adapted_s", adapted_s),
    ):
        if not value >= 0:
            raise DataError(f"rate {name} must be non-negative, got {value}")
    if abs(base_c + base_h - 100.0) > RATE_SUM_TOLERANCE:
        raise DataError(f"base rates must sum to 100, got {base_c + base_h}")
    adapted_sum = adapted_c + adapted_h + adapted_s
    if abs(adapted_sum - 100.0) > RATE_SUM_TOLERANCE:
        raise DataError(f"adapted rates must sum to 100, got {adapted_sum}")

    confusion = confusion_from_rates(base_c, base_h, adapted_c, adapted_h)
    try:
        f1 = f1_score(confusion)
    except DataError:
        f1 = None

    # Keep the published rates as-is (divided by 100): renormalizing away
    # their rounding residue would misreport headline numbers like a 62.0%
    # search rate.
    return EvalReport(
        base_c=base_c / 100.0,
        base_h=base_h / 100.0,
        c=adapted_c / 100.0,
        h=adapted_h / 100.0,
        s=adapted_s / 100.0,
        retention_c=(adapted_c / base_c) if base_c > 0 else None,
        retention_h=(adapted_h / base_h) if base_h > 0 else None,
        confusion=confusion,
        f1=f1,
        budget_cost=(adapted_s / 100.0) + lam * (adapted_h / 100.0),
        lam=lam,
        n_items=None,
    )


def _pct(value: float | None, width: int = 6) -> str:
    return f"{value * 100:{width}.1f}" if value is not None else " " * (width - 1) + "-"


def render_table(report: EvalReport, title: str = "evaluation") -> str:
    """Human-readable results table: C, H, Search, F1 plus retention shares."""
    ret_c = f"({report.retention_c * 100:.1f}%)" if report.retention_c is not None else "(undef)"
    ret_h = f"({report.retention_h * 100:.1f}%)" if report.retention_h is not None else "(undef)"
    f1_txt = f"{report.f1 * 100:.1f}" if report.f1 is not None else "undef"
    lines = [
        f"# {title}",
        f"{'':10s} {'C':>6s} {'':8s} {'H':>6s} {'':8s} {'Search':>6s} {'F1':>6s}",
        f"{'base':10s} {_pct(report.base_c)} {'':8s} {_pct(report.base_h)} {'':8s} "
        f"{_pct(0.0)} {'-':>6s}",
        f"{'adapted':10s} {_pct(report.c)} {ret_c:8s} {_pct(report.h)} {ret_h:8s} "
        f"{_pct(report.s)} {f1_txt:>6s}",
        f"budget_cost (lambda={report.lam:g}): {report.budget_cost:.6f}",
    ]
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, json_path: str | Path) -> Path:
    """Serialize a report as JSON; its provenance goes in the sidecar manifest."""
    return write_json(json_path, report.to_dict())


def read_report(path: str | Path) -> EvalReport:
    # from_dict ignores other keys, such as the provenance earlier versions embedded.
    return read_json(path, EvalReport.from_dict, "evaluation report")

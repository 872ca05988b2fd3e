"""Perplexity-threshold routing: answer when confident, search otherwise.

A threshold tau is calibrated on a labeled development set, then a
prediction is routed to search exactly when its sequence perplexity
strictly exceeds tau ("exceeds" is read as strict, so a value equal to
tau is answered). The answered text is always the base prediction,
unchanged: this detector can drop correct answers but never create new
hallucinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import SearchToken
from .errors import CalibrationError, ConfigError, DataError
from .fileio import decode_infinity, encode_infinity, is_number, read_json, write_json
from .predictions import Prediction

STRATEGIES = ("max-f1", "target-search-rate")


@dataclass(frozen=True)
class PplThreshold:
    """A calibrated routing threshold in raw-perplexity units.

    ``tau`` may be ``+inf`` (never search) or ``-inf`` (always search):
    those are the sentinel candidates the calibrator scans in addition to
    the midpoints between consecutive distinct perplexities.
    """

    tau: float
    calibration: str
    fitted_on: str
    target_rate: float | None = None

    def __post_init__(self) -> None:
        if not is_number(self.tau) or math.isnan(self.tau):
            raise DataError(f"threshold tau must be a number, got {self.tau!r}")
        if self.calibration not in STRATEGIES:
            raise DataError(f"unknown calibration strategy {self.calibration!r}")
        if not isinstance(self.fitted_on, str) or not self.fitted_on:
            raise DataError("threshold provenance (fitted_on) must be a non-empty string")
        if self.target_rate is None:
            if self.calibration == "target-search-rate":
                raise DataError("target-search-rate requires a target_rate")
        elif not is_number(self.target_rate) or not 0.0 <= self.target_rate <= 1.0:
            raise DataError(f"target_rate must lie in [0, 1], got {self.target_rate!r}")


def _quantile(ordered: Sequence[float], q: float) -> float:
    """``q`` quantile of an ascending sequence, bit-identical to numpy's
    default ``linear`` method (which interpolates from ``b`` when t >= 0.5)."""
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    t = pos - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def calibrate(
    scored: Sequence[tuple[float, bool]],
    strategy: str = "max-f1",
    target_rate: float | None = None,
    fitted_on: str = "unspecified",
) -> PplThreshold:
    """Derive a routing threshold from (perplexity, correct) pairs.

    Both strategies read the pairs sorted once by perplexity. ``max-f1``
    scans -inf, the midpoint after each run of equal perplexities and +inf,
    keeping the tau maximizing F1 of the induced answer/search decisions
    (ties toward the smaller tau). ``target-search-rate`` places tau at the
    (1 - target_rate) quantile of the observed perplexities.
    """
    if not scored:
        raise CalibrationError("cannot calibrate a threshold on an empty set")
    if any(math.isnan(p) or math.isinf(p) for p, _ in scored):
        raise CalibrationError("perplexities must be finite")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown calibration strategy {strategy!r}")
    ordered = sorted(scored, key=lambda pair: pair[0])

    if strategy == "target-search-rate":
        if target_rate is None:
            raise ConfigError("target-search-rate requires target_rate")
        if not 0.0 <= target_rate <= 1.0:
            raise ConfigError("target_rate must lie in [0, 1]")
        tau = _quantile([p for p, _ in ordered], 1.0 - target_rate)
        return PplThreshold(
            tau=tau, calibration=strategy, fitted_on=fitted_on, target_rate=target_rate
        )

    # max-f1: answering the n smallest perplexities yields, per Table-1-style
    # accounting, tp = correct among answered, fp = wrong among answered,
    # fn = correct among searched, so 2*tp + fp + fn = answered + all correct.
    # Tau = -inf answers nothing and scores 0; the last run's tau is +inf.
    total_correct = sum(1 for _, correct in ordered if correct)
    best_tau = -math.inf
    best_f1 = 0.0
    tp = 0
    for n_answered, (ppl, correct) in enumerate(ordered, start=1):
        tp += bool(correct)
        following = ordered[n_answered][0] if n_answered < len(ordered) else math.inf
        if following == ppl:
            continue
        f1 = 2 * tp / (n_answered + total_correct)
        if f1 > best_f1:
            best_f1 = f1
            best_tau = (ppl + following) / 2.0
    return PplThreshold(tau=best_tau, calibration=strategy, fitted_on=fitted_on)


def apply_threshold(
    predictions: Sequence[Prediction],
    threshold: PplThreshold,
    token: SearchToken = SearchToken(),
) -> list[str]:
    """Map predictions to output strings: the token where perplexity strictly
    exceeds tau, else the text unchanged. A ``+inf`` perplexity is searched at
    every finite tau and answered only at ``tau = +inf`` (never search)."""
    return [token.literal if p.perplexity > threshold.tau else p.text for p in predictions]


def save_threshold(threshold: PplThreshold, path: str | Path, extra: dict | None = None) -> Path:
    """Persist the threshold manifest: {tau, strategy, target_rate, fitted_on}."""
    manifest = {
        "tau": encode_infinity(threshold.tau),
        "strategy": threshold.calibration,
        "target_rate": threshold.target_rate,
        "fitted_on": threshold.fitted_on,
    }
    return write_json(path, {**manifest, **(extra or {})})


def _parse_threshold(manifest: dict) -> PplThreshold:
    return PplThreshold(
        tau=decode_infinity(manifest["tau"]),  # PplThreshold refuses a non-number
        calibration=manifest["strategy"],
        fitted_on=manifest["fitted_on"],
        target_rate=manifest.get("target_rate"),
    )


def load_threshold(path: str | Path) -> PplThreshold:
    return read_json(path, _parse_threshold, "threshold manifest")

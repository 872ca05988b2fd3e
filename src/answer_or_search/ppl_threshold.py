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
    the midpoints between consecutive distinct perplexities. Where it was
    fitted, and under which config, is the sidecar manifest's to say.
    """

    tau: float
    calibration: str
    target_rate: float | None = None

    def __post_init__(self) -> None:
        if not is_number(self.tau) or math.isnan(self.tau):
            raise DataError(f"threshold tau must be a number, got {self.tau!r}")
        if self.calibration not in STRATEGIES:
            raise DataError(f"unknown calibration strategy {self.calibration!r}")
        if self.target_rate is None:
            if self.calibration == "target-search-rate":
                raise DataError("target-search-rate requires a target_rate")
        elif not is_number(self.target_rate) or not 0.0 <= self.target_rate <= 1.0:
            raise DataError(f"target_rate must lie in [0, 1], got {self.target_rate!r}")


def _quantile(ordered: Sequence[float], q: float) -> float:
    """``q`` quantile of an ascending sequence, bit-identical to numpy's
    default ``linear`` method (which interpolates from ``b`` when t >= 0.5),
    except that it is ``a`` where ``b`` is +inf and interpolating gives NaN."""
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    if b == math.inf:
        return a
    t = pos - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def calibrate(
    scored: Sequence[tuple[float, bool]],
    strategy: str = "max-f1",
    target_rate: float | None = None,
) -> PplThreshold:
    """Derive a routing threshold from (perplexity, correct) pairs.

    Both strategies read the pairs sorted once by perplexity. ``max-f1``
    scans -inf, the midpoint after each run of equal perplexities and +inf,
    keeping the tau maximizing F1 of the induced answer/search decisions
    (ties toward the smaller tau). ``target-search-rate`` places tau at the
    (1 - target_rate) quantile of the observed perplexities. A ``+inf``
    perplexity is accepted; a NaN is refused.
    """
    if not scored:
        raise CalibrationError("cannot calibrate a threshold on an empty set")
    if any(math.isnan(p) for p, _ in scored):
        raise CalibrationError("perplexities must not be NaN")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown calibration strategy {strategy!r}")
    ordered = sorted(scored, key=lambda pair: pair[0])

    if strategy == "target-search-rate":
        if target_rate is None:
            raise ConfigError("target-search-rate requires target_rate")
        if not 0.0 <= target_rate <= 1.0:
            raise ConfigError("target_rate must lie in [0, 1]")
        tau = _quantile([p for p, _ in ordered], 1.0 - target_rate)
        return PplThreshold(tau=tau, calibration=strategy, target_rate=target_rate)

    # max-f1: answering the n smallest perplexities yields, per Table-1-style
    # accounting, tp = correct among answered, fp = wrong among answered,
    # fn = correct among searched, so 2*tp + fp + fn = answered + all correct.
    # Tau = -inf answers nothing and scores 0; the last run's tau is +inf.
    # A perplexity equal to tau is answered, so where the midpoint reaches
    # +inf (the next run is +inf) the run's own perplexity stands in for it.
    total_correct = sum(1 for _, correct in ordered if correct)
    best_tau = -math.inf
    best_f1 = 0.0
    tp = 0
    for n_answered, (ppl, correct) in enumerate(ordered, start=1):
        tp += bool(correct)
        if n_answered == len(ordered):
            tau = math.inf
        elif ordered[n_answered][0] == ppl:
            continue
        else:
            tau = (ppl + ordered[n_answered][0]) / 2.0
            tau = tau if tau < math.inf else ppl
        f1 = 2 * tp / (n_answered + total_correct)
        if f1 > best_f1:
            best_f1, best_tau = f1, tau
    return PplThreshold(tau=best_tau, calibration=strategy)


def apply_threshold(
    predictions: Sequence[Prediction],
    threshold: PplThreshold,
    token: SearchToken = SearchToken(),
) -> list[str]:
    """Map predictions to output strings: the token where perplexity strictly
    exceeds tau, else the text unchanged. A ``+inf`` perplexity is searched at
    every finite tau and answered only at ``tau = +inf`` (never search)."""
    return [token.literal if p.perplexity > threshold.tau else p.text for p in predictions]


def save_threshold(threshold: PplThreshold, path: str | Path, manifest: dict | None = None) -> Path:
    """Persist the threshold: {tau, strategy, target_rate}."""
    tau = encode_infinity(threshold.tau)
    doc = {"tau": tau, "strategy": threshold.calibration, "target_rate": threshold.target_rate}
    return write_json(path, doc, manifest)


def _parse_threshold(doc: dict) -> PplThreshold:
    # Other keys, such as the provenance that earlier versions embedded, are ignored.
    return PplThreshold(
        tau=decode_infinity(doc["tau"]),  # PplThreshold refuses a non-number
        calibration=doc["strategy"],
        target_rate=doc.get("target_rate"),
    )


def load_threshold(path: str | Path) -> PplThreshold:
    return read_json(path, _parse_threshold, "threshold file")

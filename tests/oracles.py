"""Independent brute-force oracles the production code is checked against.

These deliberately re-derive results the slow, obvious way (per-character
loops, per-threshold recounts) and must stay decoupled from the library
implementations they verify.
"""

from __future__ import annotations

import unicodedata

import numpy as np

from answer_or_search.corpus import DEFAULT_PROFILE, NormalizationProfile

_ASCII_SYMBOLS = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"


def brute_force_normalize(text: str, profile: NormalizationProfile = DEFAULT_PROFILE) -> str:
    """Character-by-character application of the judging rules ``profile`` turns on."""
    out = text
    if profile.unicode_fold:
        folded_chars = []
        for ch in unicodedata.normalize("NFKD", out):
            if unicodedata.category(ch) == "Mn":
                continue
            folded_chars.append(ch)
        out = "".join(folded_chars)
    if profile.lowercase:
        out = out.lower()
    if profile.strip_punctuation:
        kept = []
        for ch in out:
            if ch in _ASCII_SYMBOLS:
                continue
            if unicodedata.category(ch)[0] == "P":
                continue
            kept.append(ch)
        out = "".join(kept)
    # Dropping stopwords splits into tokens, so it collapses whitespace too.
    if profile.stopwords or profile.collapse_whitespace:
        tokens = []
        for token in out.split():
            if token in set(profile.stopwords):
                continue
            tokens.append(token)
        out = " ".join(tokens)
    return out


def brute_force_match(prediction: str, gold_answers) -> bool:
    """Reference normalized exact match: compare against every gold answer."""
    target = brute_force_normalize(prediction)
    for gold in gold_answers:
        if brute_force_normalize(gold) == target:
            return True
    return False


def brute_force_max_f1_threshold(perplexities, correct) -> tuple[float, float]:
    """Exhaustive threshold sweep: recompute decisions and F1 per candidate.

    Candidates are midpoints between consecutive distinct perplexities plus
    -inf/+inf sentinels; ties go to the smaller threshold (first argmax).
    Returns (tau, best_f1).
    """
    ppl = np.asarray(perplexities, dtype=float)
    labels = np.asarray(correct, dtype=bool)
    distinct = np.unique(ppl)
    candidates = np.concatenate(([-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]))

    answered = ppl[None, :] <= candidates[:, None]
    tp = (answered & labels[None, :]).sum(axis=1)
    fp = (answered & ~labels[None, :]).sum(axis=1)
    fn = (~answered & labels[None, :]).sum(axis=1)
    denom = 2 * tp + fp + fn
    f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 0.0)

    best = int(np.argmax(f1))  # first occurrence: smallest tau wins ties
    return float(candidates[best]), float(f1[best])


def numpy_histogram(values, edges) -> tuple[tuple[int, ...], int]:
    """Reference binning: numpy's histogram over the values inside the edges.

    Returns (counts, out_of_range); NaN and values beyond either end edge
    are out of range.
    """
    arr = np.asarray(values, dtype=float)
    bins = np.asarray(edges, dtype=float)
    in_range = (arr >= bins[0]) & (arr <= bins[-1])
    counts, _ = np.histogram(arr[in_range], bins=bins)
    return tuple(int(c) for c in counts), int(arr.size - in_range.sum())

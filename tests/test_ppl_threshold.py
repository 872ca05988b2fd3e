from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answer_or_search.corpus import SearchToken
from answer_or_search.errors import CalibrationError, ConfigError, DataError
from answer_or_search.fileio import is_number
from answer_or_search.ppl_threshold import (
    STRATEGIES,
    PplThreshold,
    apply_threshold,
    calibrate,
    load_threshold,
    save_threshold,
)

from conftest import ANY_LINE, JSON_VALUES, damaged, make_prediction, read_or_data_error
from oracles import brute_force_max_f1_threshold


def _pred_with_ppl(rec_id: str, ppl: float, text: str = "x"):
    # exp(-logprob) == ppl for a single token
    return make_prediction(rec_id, text, (-math.log(ppl),))


# ---------------------------------------------------------------------------
# calibrate: max-f1
# ---------------------------------------------------------------------------


def test_calibrate_separable_data_puts_tau_between_classes():
    scored = [(1.0, True), (2.0, True), (3.0, False), (4.0, False)]
    threshold = calibrate(scored, "max-f1")
    assert 2.0 < threshold.tau < 3.0
    _, best_f1 = brute_force_max_f1_threshold([s[0] for s in scored], [s[1] for s in scored])
    assert best_f1 == 1.0


def test_calibrate_all_correct_never_searches():
    threshold = calibrate([(1.5, True), (3.0, True)], "max-f1")
    assert threshold.tau == math.inf


def test_calibrate_all_wrong_always_searches():
    threshold = calibrate([(1.5, False), (3.0, False)], "max-f1")
    assert threshold.tau == -math.inf


def test_calibrate_rejects_empty_input():
    with pytest.raises(CalibrationError):
        calibrate([], "max-f1")


def test_calibrate_rejects_a_nan_perplexity():
    for strategy in STRATEGIES:
        with pytest.raises(CalibrationError, match="NaN"):
            calibrate([(1.0, True), (math.nan, False)], strategy, target_rate=0.5)


def test_calibrate_accepts_an_infinite_perplexity():
    # Answering 1.0 and searching +inf is perfect; a midpoint of +inf would
    # answer both, scoring F1 2/3 under apply_threshold.
    assert calibrate([(1.0, True), (math.inf, False)], "max-f1").tau == 1.0
    assert calibrate([(1.0, True), (math.inf, True)], "max-f1").tau == math.inf
    assert calibrate([(math.inf, False), (math.inf, True)], "max-f1").tau == math.inf


def _f1(decisions: list[tuple[bool, bool]]) -> float:
    """F1 of (answered, correct) decisions, 0 where 2*tp + fp + fn is 0."""
    tp = sum(answered and correct for answered, correct in decisions)
    fp = sum(answered and not correct for answered, correct in decisions)
    fn = sum(correct and not answered for answered, correct in decisions)
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def test_max_f1_with_infinite_perplexities_reaches_the_best_f1_of_a_sweep():
    rng = random.Random(777)
    for _ in range(200):
        # A log-probability of -1000 gives perplexity +inf.
        logprobs = [
            rng.choice([0.0, -0.5, -1.0, -1000.0, -rng.uniform(0, 2)])
            for _ in range(rng.randint(1, 30))
        ]
        preds = [make_prediction(f"q{i}", "x", (lp,)) for i, lp in enumerate(logprobs)]
        scored = [(p.perplexity, rng.random() < 0.5) for p in preds]
        tau = calibrate(scored, "max-f1").tau
        routed = apply_threshold(preds, _tau(tau))
        got = _f1([(out == "x", correct) for out, (_, correct) in zip(routed, scored)])
        candidates = {ppl for ppl, _ in scored} | {-math.inf, math.inf}
        best = max(
            _f1([(ppl <= t, correct) for ppl, correct in scored]) for t in candidates
        )
        assert got == best, (scored, tau)


# Between 2.0 and +inf the quantile is 2.0, where interpolating gives NaN.
@pytest.mark.parametrize(
    "q, expected", [(0.0, 1.0), (0.25, 1.5), (0.5, 2.0), (0.75, 2.0), (1.0, math.inf)]
)
def test_target_rate_tau_is_never_nan_next_to_an_infinite_perplexity(q, expected):
    scored = [(1.0, True), (2.0, False), (math.inf, False)]
    assert calibrate(scored, "target-search-rate", target_rate=1.0 - q).tau == expected


def test_calibrate_matches_brute_force_oracle_on_random_sets():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(1, 200)
        scored = [
            (rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, rng.uniform(1, 5)]), rng.random() < 0.5)
            for _ in range(n)
        ]
        threshold = calibrate(scored, "max-f1")
        oracle_tau, _ = brute_force_max_f1_threshold(
            [s[0] for s in scored], [s[1] for s in scored]
        )
        assert threshold.tau == oracle_tau


# ---------------------------------------------------------------------------
# calibrate: target-search-rate
# ---------------------------------------------------------------------------


def test_target_rate_half_on_four_items_searches_exactly_two():
    scored = [(1.0, True), (2.0, True), (3.0, False), (4.0, False)]
    threshold = calibrate(scored, "target-search-rate", target_rate=0.5)
    assert threshold.tau == pytest.approx(2.5)  # median midpoint
    searched = [p for p, _ in scored if p > threshold.tau]
    assert len(searched) == 2


@given(
    st.lists(
        st.floats(min_value=1.0, max_value=1e300) | st.sampled_from([1.0, 1.5, 2.0, 1e300]),
        min_size=1, max_size=40,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_target_rate_tau_is_numpy_quantile(ppls, rate):
    threshold = calibrate([(p, True) for p in ppls], "target-search-rate", target_rate=rate)
    assert threshold.tau == float(np.quantile(ppls, 1.0 - rate))


def test_target_rate_requires_the_rate():
    with pytest.raises(ConfigError):
        calibrate([(1.0, True)], "target-search-rate")


def test_target_rate_zero_answers_everything():
    preds = [_pred_with_ppl("q0", 1.0), _pred_with_ppl("q1", 2.0), _pred_with_ppl("q2", 3.0)]
    scored = [(p.perplexity, i == 0) for i, p in enumerate(preds)]
    threshold = calibrate(scored, "target-search-rate", target_rate=0.0)
    assert threshold.tau == pytest.approx(3.0)
    assert apply_threshold(preds, threshold) == [p.text for p in preds]


# ---------------------------------------------------------------------------
# apply_threshold
# ---------------------------------------------------------------------------


def _tau(value: float) -> PplThreshold:
    return PplThreshold(tau=value, calibration="max-f1")


def test_decide_below_threshold_answers():
    assert apply_threshold([_pred_with_ppl("q1", 1.5, "Paris")], _tau(2.5)) == ["Paris"]


def test_decide_above_threshold_searches():
    assert apply_threshold([_pred_with_ppl("q1", 3.5, "Paris")], _tau(2.5)) == ["<search>"]


def test_decide_at_threshold_answers_exceeds_is_strict():
    pred = make_prediction("q1", "Paris", (-math.log(2.5),))
    assert apply_threshold([pred], _tau(pred.perplexity)) == ["Paris"]


@pytest.mark.parametrize(
    "tau,routed",
    [(1.0, "<search>"), (1e300, "<search>"), (-math.inf, "<search>"), (math.inf, "Paris")],
)
def test_infinite_perplexity_searches_at_every_finite_tau(tau, routed):
    pred = make_prediction("q1", "Paris", (-1000.0,))
    assert pred.perplexity == math.inf
    assert apply_threshold([pred], _tau(tau)) == [routed]


@given(
    st.lists(st.floats(min_value=1.0, max_value=50.0, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=0.5, max_value=60.0),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_raising_tau_never_increases_searches(ppls, tau, bump):
    preds = [_pred_with_ppl(f"q{i}", p) for i, p in enumerate(ppls)]
    low, high = _tau(tau), _tau(tau + bump)
    searches_low = apply_threshold(preds, low).count("<search>")
    searches_high = apply_threshold(preds, high).count("<search>")
    assert searches_high <= searches_low


def test_apply_threshold_keeps_answer_text_unchanged():
    preds = [_pred_with_ppl("q1", 1.2, "Paris"), _pred_with_ppl("q2", 9.0, "Lyon")]
    outputs = apply_threshold(preds, _tau(2.0), SearchToken())
    assert outputs == ["Paris", "<search>"]


# ---------------------------------------------------------------------------
# manifest round trip
# ---------------------------------------------------------------------------


def test_threshold_manifest_round_trip(tmp_path):
    threshold = PplThreshold(tau=2.75, calibration="target-search-rate", target_rate=0.4)
    path = save_threshold(threshold, tmp_path / "threshold.json")
    assert json.loads(path.read_text()) == {
        "tau": 2.75, "strategy": "target-search-rate", "target_rate": 0.4
    }
    assert load_threshold(path) == threshold


def test_threshold_file_of_the_earlier_layout_still_loads(tmp_path):
    # Earlier versions embedded their provenance in the document itself.
    path = tmp_path / "threshold.json"
    path.write_text(json.dumps({
        "tau": "+inf", "strategy": "max-f1", "target_rate": None,
        "fitted_on": "model=m corpus=corpus.dev split=dev", "config_hash": "ab" * 32,
        "normalization_profile": {"lowercase": True}, "normalization_profile_hash": "cd" * 32,
    }))
    assert load_threshold(path) == PplThreshold(tau=math.inf, calibration="max-f1")


def test_threshold_manifest_round_trips_infinities(tmp_path):
    for tau in (math.inf, -math.inf):
        threshold = PplThreshold(tau=tau, calibration="max-f1")
        path = save_threshold(threshold, tmp_path / "threshold.json")
        assert load_threshold(path).tau == tau


def test_threshold_rejects_nan():
    with pytest.raises(DataError):
        PplThreshold(tau=math.nan, calibration="max-f1")


THRESHOLD = {"tau": 2.5, "strategy": "target-search-rate", "target_rate": 0.3}


REFUSED_THRESHOLD_FIELDS = {
    "unknown-strategy": {"strategy": "nope"},
    "bool-tau": {"tau": True},
    "string-tau": {"tau": "1.5"},
    "tau-beyond-float": {"tau": 10**400},
    "bool-target-rate": {"target_rate": True},
    "no-target-rate": {"target_rate": None},
}


@pytest.mark.parametrize(
    "change", REFUSED_THRESHOLD_FIELDS.values(), ids=REFUSED_THRESHOLD_FIELDS.keys()
)
def test_load_threshold_names_the_file_of_a_field_it_refuses(tmp_path, change):
    path = tmp_path / "threshold.json"
    path.write_text(json.dumps({**THRESHOLD, **change}))
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_threshold(path)


@given(damaged(THRESHOLD).map(json.dumps) | JSON_VALUES.map(json.dumps) | ANY_LINE)
@settings(max_examples=300, deadline=None)
def test_load_threshold_gives_a_threshold_or_a_data_error(text):
    threshold = read_or_data_error(load_threshold, {"threshold.json": text})
    if threshold is None:
        return
    assert is_number(threshold.tau) and not math.isnan(threshold.tau)
    assert threshold.calibration in STRATEGIES
    assert threshold.target_rate is None or is_number(threshold.target_rate)

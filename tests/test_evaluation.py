from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answer_or_search.corpus import SearchToken
from answer_or_search.errors import DataError, PairingError
from answer_or_search.fileio import is_number
from answer_or_search.evaluation import (
    ConfusionCounts,
    Judgment,
    confusion_from_rates,
    evaluate_pair,
    f1_score,
    judge,
    read_report,
    render_table,
    report_from_rates,
    write_report,
)

from conftest import ANY_LINE, JSON_VALUES, damaged, make_record, read_or_data_error

C, H, S = Judgment.CORRECT, Judgment.HALLUCINATED, Judgment.SEARCH

judgment_pairs = st.lists(
    st.tuples(st.sampled_from([C, H]), st.sampled_from([C, H, S])),
    min_size=1,
    max_size=60,
)


# ---------------------------------------------------------------------------
# judge
# ---------------------------------------------------------------------------


def test_judge_search_token_wins():
    rec = make_record("q1", "capital of France?", ["Paris"])
    assert judge("<search>", rec) is S


def test_judge_exact_match_is_correct():
    rec = make_record("q1", "capital of France?", ["Paris"])
    assert judge("Paris", rec) is C


def test_judge_mismatch_is_hallucinated():
    rec = make_record("q1", "capital of France?", ["Paris"])
    assert judge("Lyon", rec) is H


def test_judge_honours_custom_token():
    rec = make_record("q1", "capital of France?", ["Paris"])
    assert judge("[CALL]", rec, token=SearchToken("[CALL]")) is S
    assert judge("<search>", rec, token=SearchToken("[CALL]")) is H


# ---------------------------------------------------------------------------
# confusion cells and F1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "base,adapted,cell",
    [
        (C, C, "tp"),
        (H, C, "tp"),
        (C, H, "fp"),
        (H, H, "fp"),
        (C, S, "fn"),
        (H, S, "tn"),
    ],
    ids=lambda value: f"Cell.{value.upper()}" if isinstance(value, str) else None,
)
def test_confusion_cell_mapping(base, adapted, cell):
    counts = evaluate_pair([base], [adapted]).confusion.to_dict()
    assert counts == {name: int(name == cell) for name in ("tp", "fp", "tn", "fn")}


def test_confusion_cell_rejects_search_base():
    with pytest.raises(DataError, match="cannot be Search"):
        evaluate_pair([C, S], [C, C])


def test_f1_small_integer_counts():
    assert f1_score(ConfusionCounts(tp=2, fp=1, tn=0, fn=1)) == pytest.approx(2 / 3)


def test_f1_rate_weighted_counts_match_published_value():
    # Rate-weighted cells reconstructed from percentage rates still feed the
    # same formula; 0.653 reproduces the published 65.0 within rounding.
    score = f1_score(ConfusionCounts(tp=21.3, fp=16.6, tn=56.1, fn=6.0))
    assert score == pytest.approx(0.653, abs=5e-4)


def test_f1_perfect_case():
    assert f1_score(ConfusionCounts(tp=5, fp=0, tn=3, fn=0)) == 1.0


def test_f1_zero_denominator_is_undefined():
    with pytest.raises(DataError):
        f1_score(ConfusionCounts(tp=0, fp=0, tn=4, fn=0))


def test_confusion_counts_reject_negative():
    with pytest.raises(DataError):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


@given(judgment_pairs, st.integers(min_value=2, max_value=4))
@settings(max_examples=100, deadline=None)
def test_f1_invariant_under_duplication(pairs, times):
    base = [b for b, _ in pairs]
    adapted = [a for _, a in pairs]
    single = evaluate_pair(base, adapted)
    repeated = evaluate_pair(base * times, adapted * times)
    if single.f1 is None:
        assert repeated.f1 is None
    else:
        assert repeated.f1 == pytest.approx(single.f1)


# ---------------------------------------------------------------------------
# evaluate_pair
# ---------------------------------------------------------------------------


def test_identity_policy_keeps_everything():
    base = [C, C, H, H, H]
    report = evaluate_pair(base, list(base))
    assert report.s == 0.0
    assert report.retention_c == 1.0
    assert report.retention_h == 1.0
    assert report.budget_cost == pytest.approx(report.lam * report.base_h)


def test_always_search_policy():
    base = [C, H, H, C]
    report = evaluate_pair(base, [S, S, S, S])
    assert (report.c, report.h, report.s) == (0.0, 0.0, 1.0)
    assert report.budget_cost == pytest.approx(1.0)
    assert report.confusion.fn == 2
    assert report.confusion.tn == 2


def test_lambda_weighting_on_published_rates():
    report = report_from_rates(27.3, 72.7, 21.3, 16.6, 62.0, lam=1.0)
    assert report.s == pytest.approx(0.620, abs=1e-12)
    assert report.budget_cost == pytest.approx(0.786, abs=1e-9)


def test_length_mismatch_is_a_pairing_error():
    with pytest.raises(PairingError):
        evaluate_pair([C, H], [C])


def test_id_mismatch_is_a_pairing_error():
    with pytest.raises(PairingError, match="position 1"):
        evaluate_pair([C, H], [C, S], base_ids=["a", "b"], adapted_ids=["a", "x"])


def test_lambda_below_one_rejected():
    with pytest.raises(DataError):
        evaluate_pair([C], [C], lam=0.5)


def test_nan_lambda_rejected():
    import math

    with pytest.raises(DataError):
        evaluate_pair([C], [C], lam=math.nan)
    with pytest.raises(DataError):
        report_from_rates(27.3, 72.7, 21.3, 16.6, 62.0, lam=math.nan)


def test_empty_base_c_reports_undefined_retention():
    report = evaluate_pair([H, H], [S, H])
    assert report.retention_c is None
    assert report.retention_h == 0.5


@given(judgment_pairs)
@settings(max_examples=150, deadline=None)
def test_partition_and_rate_identities(pairs):
    base = [b for b, _ in pairs]
    adapted = [a for _, a in pairs]
    report = evaluate_pair(base, adapted, lam=2.5)
    n = len(pairs)
    confusion = report.confusion
    # every item lands in exactly one cell
    assert confusion.total == n
    # Table-1 consequence: TP = adapted C, FP = adapted H, TN + FN = adapted S
    assert confusion.tp == sum(1 for a in adapted if a is C)
    assert confusion.fp == sum(1 for a in adapted if a is H)
    assert confusion.tn + confusion.fn == sum(1 for a in adapted if a is S)
    # exact rate sum for per-item evaluations
    assert abs(report.c + report.h + report.s - 1.0) < 1e-9
    # every other field against a plain loop over the pairs
    base_c = sum(1 for b in base if b is C)
    base_h = sum(1 for b in base if b is H)
    kept_c = sum(1 for b, a in pairs if b is C and a is C)
    kept_h = sum(1 for b, a in pairs if b is H and a is H)
    assert (report.base_c, report.base_h) == (base_c / n, base_h / n)
    assert report.retention_c == (kept_c / base_c if base_c else None)
    assert report.retention_h == (kept_h / base_h if base_h else None)
    assert confusion.fn == sum(1 for b, a in pairs if b is C and a is S)
    assert confusion.tn == sum(1 for b, a in pairs if b is H and a is S)
    searched = sum(1 for a in adapted if a is S)
    hallucinated = sum(1 for a in adapted if a is H)
    assert report.budget_cost == searched / n + 2.5 * (hallucinated / n)


@given(judgment_pairs, st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=150, deadline=None)
def test_budget_cost_bounds_and_monotonicity(pairs, lam):
    base = [b for b, _ in pairs]
    adapted = [a for _, a in pairs]
    report = evaluate_pair(base, adapted, lam=lam)
    assert 0.0 <= report.budget_cost <= lam + 1e-12
    higher = evaluate_pair(base, adapted, lam=lam + 1.0)
    assert higher.budget_cost >= report.budget_cost - 1e-12
    if report.s == 0.0:
        assert report.budget_cost == pytest.approx(lam * report.h)
    if adapted == base:
        # no search and no behavior change: cost reduces to lam * base H rate
        assert report.budget_cost == pytest.approx(lam * report.base_h)


# ---------------------------------------------------------------------------
# rate-based reconstruction
# ---------------------------------------------------------------------------


def test_confusion_from_rates_lora_row():
    confusion = confusion_from_rates(27.3, 72.7, 21.3, 16.6)
    assert confusion.tp == pytest.approx(21.3)
    assert confusion.fp == pytest.approx(16.6)
    assert confusion.fn == pytest.approx(6.0)
    assert confusion.tn == pytest.approx(56.1)


def test_confusion_from_rates_rejects_cross_transitions():
    with pytest.raises(DataError):
        confusion_from_rates(20.0, 80.0, 30.0, 10.0)


def test_report_from_rates_retention_matches_published_parentheses():
    report = report_from_rates(27.3, 72.7, 21.3, 16.6, 62.0)
    assert report.retention_c == pytest.approx(0.78, abs=5e-3)
    assert report.retention_h == pytest.approx(0.228, abs=5e-3)


def test_report_from_rates_with_no_base_hallucination_leaves_its_retention_undefined():
    report = report_from_rates(100.0, 0.0, 80.0, 0.0, 20.0)
    assert report.retention_h is None
    assert report.retention_c == pytest.approx(0.8)
    # tp = 80, fp = 0, fn = 20: F1 = 160 / 180.
    assert report.f1 == pytest.approx(8 / 9)
    assert "(undef)" in render_table(report)


def test_report_from_rates_validates_sums():
    with pytest.raises(DataError):
        report_from_rates(27.3, 72.7, 50.0, 16.6, 62.0)


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------


def test_report_round_trips_through_json(tmp_path):
    report = evaluate_pair([C, C, H, H], [C, S, H, S], lam=2.0)
    path = write_report(report, tmp_path / "report.json")
    assert read_report(path) == report


def test_report_json_round_trips_undefined_markers(tmp_path):
    report = evaluate_pair([H, H], [S, S])  # no base C, f1 undefined
    assert report.f1 is None
    path = write_report(report, tmp_path / "report.json")
    again = read_report(path)
    assert again.f1 is None
    assert again.retention_c is None


def test_render_table_shows_rates_and_retention():
    report = report_from_rates(27.3, 72.7, 21.3, 16.6, 62.0)
    table = render_table(report)
    assert "21.3" in table and "16.6" in table and "62.0" in table
    assert "(78.0%)" in table
    assert "budget_cost" in table


def test_render_table_marks_undefined():
    report = evaluate_pair([H, H], [S, S])
    table = render_table(report)
    assert "undef" in table


REPORT = evaluate_pair([C, C, H, H], [C, S, S, H]).to_dict()


REFUSED_REPORT_FIELDS = {
    "bool-rates": {"rates": {"c": True, "h": False, "s": False}},
    "nan-rate": {"rates": {"c": math.nan, "h": 0.5, "s": 0.5}},
    "rate-beyond-float": {"rates": {"c": 10**400, "h": 0.0, "s": 0.0}},
    "bool-count": {"confusion": {"tp": True, "fp": 1, "tn": 1, "fn": 1}},
    "string-f1": {"f1": "0.5"},
    "fractional-n-items": {"n_items": 2.5},
}


@pytest.mark.parametrize("change", REFUSED_REPORT_FIELDS.values(), ids=REFUSED_REPORT_FIELDS.keys())
def test_read_report_refuses_a_field_that_is_not_a_finite_number(tmp_path, change):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**REPORT, **change}))
    with pytest.raises(DataError, match="evaluation report"):
        read_report(path)


@given(damaged(REPORT).map(json.dumps) | JSON_VALUES.map(json.dumps) | ANY_LINE)
@settings(max_examples=300, deadline=None)
def test_read_report_gives_a_report_or_a_data_error(text):
    report = read_or_data_error(read_report, {"report.json": text})
    if report is None:
        return
    for value in (report.base_c, report.base_h, report.c, report.h, report.s, report.lam):
        assert is_number(value) and math.isfinite(value)
    assert all(is_number(v) for v in report.confusion.to_dict().values())

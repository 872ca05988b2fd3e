from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answer_or_search import corpus as corpus_module
from answer_or_search import labeling
from answer_or_search.corpus import DEFAULT_PROFILE, SearchToken
from answer_or_search.errors import DataError, PairingError
from answer_or_search.fileio import manifest_path_for
from answer_or_search.labeling import (
    build_masked_dataset,
    mask_prediction,
    read_masked_dataset,
    write_masked_dataset,
)

from conftest import (
    ANY_LINE,
    damaged,
    make_corpus,
    make_prediction,
    make_record,
    read_or_data_error,
)
from oracles import brute_force_match

TOKEN = SearchToken()


def test_correct_prediction_keeps_its_own_text():
    rec = make_record("q1", "capital of France?", ["Paris"])
    example = mask_prediction(make_prediction("q1", "Paris"), rec, DEFAULT_PROFILE, TOKEN)
    assert example.target == "Paris"
    assert example.was_masked is False


def test_wrong_prediction_is_masked():
    rec = make_record("q1", "capital of France?", ["Paris"])
    example = mask_prediction(make_prediction("q1", "Lyon"), rec, DEFAULT_PROFILE, TOKEN)
    assert example.target == "<search>"
    assert example.was_masked is True


def test_mask_preserves_surface_form_not_normalization():
    # Matching happens on normalized text but the kept target is verbatim.
    rec = make_record("q1", "first emperor of France?", ["Napoleon"])
    example = mask_prediction(make_prediction("q1", "Napoleon I"), rec, DEFAULT_PROFILE, TOKEN)
    assert example.target == "Napoleon I"
    assert example.was_masked is False


def test_mask_rejects_mismatched_ids():
    rec = make_record("q1", "capital of France?", ["Paris"])
    with pytest.raises(PairingError):
        mask_prediction(make_prediction("q2", "Paris"), rec, DEFAULT_PROFILE, TOKEN)


@given(
    st.text(alphabet="abI .<>", max_size=8),
    st.lists(st.text(alphabet="abI .<>", min_size=1, max_size=8), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_mask_branch_matches_brute_force_oracle(pred_text, golds):
    golds = [g for g in golds if g.strip()]
    if not golds:
        return
    rec = make_record("q1", "synthetic question?", golds)
    example = mask_prediction(make_prediction("q1", pred_text), rec, DEFAULT_PROFILE, TOKEN)
    assert example.was_masked == (not brute_force_match(pred_text, golds))
    if not example.was_masked:
        assert example.target == pred_text  # byte-identical surface form


# ---------------------------------------------------------------------------
# dataset building
# ---------------------------------------------------------------------------


def _corpus_and_preds(n_correct: int, n_total: int):
    records = [make_record(f"q{i}", f"question {i}?", [f"gold {i}"]) for i in range(n_total)]
    preds = [
        make_prediction(f"q{i}", f"gold {i}" if i < n_correct else "wrong")
        for i in range(n_total)
    ]
    return make_corpus(*records), preds


def test_dataset_stats_reflect_the_correct_rate():
    corpus, preds = _corpus_and_preds(273, 1000)
    dataset = build_masked_dataset(preds, corpus)
    stats = dataset.stats()
    assert stats == {"n_total": 1000, "n_answer": 273, "n_masked": 727}
    assert stats["n_answer"] / stats["n_total"] == pytest.approx(0.273)


def test_empty_prediction_list_gives_empty_dataset():
    corpus, _ = _corpus_and_preds(0, 3)
    dataset = build_masked_dataset([], corpus)
    assert dataset.stats() == {"n_total": 0, "n_answer": 0, "n_masked": 0}


def test_duplicate_predictions_rejected():
    corpus, preds = _corpus_and_preds(1, 2)
    with pytest.raises(DataError, match="duplicate"):
        build_masked_dataset([preds[0], preds[0]], corpus)


def test_unknown_record_id_rejected():
    corpus, _ = _corpus_and_preds(0, 2)
    with pytest.raises(DataError, match="unknown"):
        build_masked_dataset([make_prediction("q99", "x")], corpus)


def test_dataset_follows_corpus_order():
    corpus, preds = _corpus_and_preds(2, 4)
    dataset = build_masked_dataset(list(reversed(preds)), corpus)
    assert [ex.record_id for ex in dataset.examples] == ["q0", "q1", "q2", "q3"]


@given(st.lists(st.booleans(), min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_mask_rate_equals_hallucination_rate_by_construction(correct_flags):
    records = [
        make_record(f"q{i}", f"question {i}?", [f"gold {i}"])
        for i in range(len(correct_flags))
    ]
    preds = [
        make_prediction(f"q{i}", f"gold {i}" if ok else "wrong")
        for i, ok in enumerate(correct_flags)
    ]
    dataset = build_masked_dataset(preds, make_corpus(*records))
    hallucinated = sum(1 for ok in correct_flags if not ok)
    assert dataset.stats()["n_masked"] == hallucinated


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_then_read_round_trips(tmp_path):
    corpus, preds = _corpus_and_preds(2, 5)
    dataset = build_masked_dataset(preds, corpus)
    path = write_masked_dataset(dataset, tmp_path / "masked.jsonl")
    assert read_masked_dataset(path) == dataset


def test_emit_writes_manifest_stats(tmp_path):
    corpus, preds = _corpus_and_preds(1, 2)
    dataset = build_masked_dataset(preds, corpus)
    path = write_masked_dataset(dataset, tmp_path / "masked.jsonl", split="dev", config_hash="c")
    manifest = json.loads(manifest_path_for(path).read_text())
    assert manifest == {
        "records": 2,
        "stats": {"n_total": 2, "n_answer": 1, "n_masked": 1},
        "search_token": "<search>",
        "split": "dev",
        "config_hash": "c",
    }


def test_emit_refuses_token_gold_collision(tmp_path):
    # "<search>" normalizes to "search", as does this gold answer, so masked
    # targets would be judged correct; labeling must refuse and name the record.
    corpus = make_corpus(
        make_record("q0", "safe question?", ["fine"]),
        make_record("q1", "what does the tool do?", ["Search!"]),
    )
    preds = [make_prediction("q0", "wrong"), make_prediction("q1", "wrong")]
    with pytest.raises(DataError, match="q1"):
        build_masked_dataset(preds, corpus)


def test_build_normalizes_each_gold_and_each_prediction_once(monkeypatch):
    # q0's answer matches its first gold, q1's its last, q2's none; q3 has no prediction.
    corpus = make_corpus(
        make_record("q0", "first?", ["Paris", "paris, france", "Lutetia"]),
        make_record("q1", "second?", ["Rome", "Roma"]),
        make_record("q2", "third?", ["2"]),
        make_record("q3", "fourth?", ["unlabeled"]),
    )
    preds = [
        make_prediction("q0", "Paris"),
        make_prediction("q1", "roma"),
        make_prediction("q2", "3"),
    ]
    normalized = []
    original = labeling.normalize

    def counted(text, profile=DEFAULT_PROFILE):
        normalized.append(text)
        return original(text, profile)

    monkeypatch.setattr(labeling, "normalize", counted)
    monkeypatch.setattr(corpus_module, "normalize", counted)
    dataset = build_masked_dataset(preds, corpus)
    golds = ["Paris", "paris, france", "Lutetia", "Rome", "Roma", "2"]
    assert sorted(normalized) == sorted([TOKEN.literal, "Paris", "roma", "3", *golds])
    monkeypatch.undo()
    assert dataset.examples == tuple(
        mask_prediction(pred, corpus[pred.record_id], DEFAULT_PROFILE, TOKEN) for pred in preds
    )
    assert [ex.was_masked for ex in dataset.examples] == [False, False, True]


# ---------------------------------------------------------------------------
# reading a dataset back
# ---------------------------------------------------------------------------


def _written_dataset() -> tuple[list[dict], dict]:
    """The rows and the manifest of a two-example dataset as it is emitted."""
    corpus, preds = _corpus_and_preds(1, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = write_masked_dataset(build_masked_dataset(preds, corpus), Path(tmp) / "m.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        return rows, json.loads(manifest_path_for(path).read_text())


ROWS, MANIFEST = _written_dataset()


def test_read_masked_dataset_rejects_a_search_token_that_is_not_a_string(tmp_path):
    manifest = {**MANIFEST, "search_token": 5}
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in ROWS))
    manifest_path_for(path).write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="search token"):
        read_masked_dataset(path)


def test_read_masked_dataset_null_id_names_file_and_line(tmp_path):
    path = tmp_path / "m.jsonl"
    rows = [ROWS[0], {**ROWS[1], "id": None}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    manifest_path_for(path).write_text(json.dumps(MANIFEST))
    with pytest.raises(DataError, match=f"{path} at line 2: record id must be"):
        read_masked_dataset(path)


@given(
    st.lists(st.sampled_from(ROWS).flatmap(damaged).map(json.dumps) | ANY_LINE, max_size=3),
    damaged(MANIFEST).map(json.dumps) | ANY_LINE,
)
@settings(max_examples=300, deadline=None)
def test_read_masked_dataset_gives_a_dataset_or_a_data_error(lines, manifest):
    files = {"m.jsonl": "".join(line + "\n" for line in lines), "m.jsonl.manifest.json": manifest}
    dataset = read_or_data_error(read_masked_dataset, files)
    if dataset is None:
        return
    assert isinstance(dataset.token.literal, str)
    for ex in dataset.examples:
        assert isinstance(ex.question, str) and isinstance(ex.target, str)
        assert isinstance(ex.was_masked, bool)

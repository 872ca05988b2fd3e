from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from answer_or_search.corpus import (
    CORPUS_FORMATS,
    DEFAULT_PROFILE,
    NormalizationProfile,
    QaRecord,
    exact_match,
    ingest,
    normalize,
    parse_record_id,
    write_canonical,
)
from answer_or_search.errors import DataError

from conftest import ANY_LINE, damaged, make_corpus, make_record, read_or_data_error
from oracles import brute_force_normalize


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_drops_punctuation_and_stopword_pronoun():
    # "I" lowercases to the stopword "i"; the trailing period is punctuation.
    assert normalize("Napoleon I.") == "napoleon"


def test_normalize_empty_string_is_legal():
    assert normalize("") == ""


def test_normalize_lowercases():
    assert normalize("PARIS") == "paris"


def test_normalize_collapses_whitespace():
    assert normalize("  New   York\tCity ") == "new york city"


def test_normalize_unicode_fold_strips_diacritics():
    assert normalize("Besançon") == "besancon"


@given(st.text(max_size=60))
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(st.text(max_size=60))
@settings(max_examples=200, deadline=None)
def test_normalize_output_is_clean(text):
    out = normalize(text)
    assert out == out.lower()
    assert "  " not in out
    assert out == out.strip()
    for tok in out.split():
        assert tok not in DEFAULT_PROFILE.stopwords


#: Every setting of the five switches: four flags, and stopwords off or the default list.
PROFILES = [
    NormalizationProfile(
        lowercase=lower, strip_punctuation=punct, collapse_whitespace=collapse,
        unicode_fold=fold, stopwords=words,
    )
    for lower, punct, collapse, fold in itertools.product((False, True), repeat=4)
    for words in ((), DEFAULT_PROFILE.stopwords)
]

#: Any text, or text built from pieces each rule acts on: a stopword, an ASCII
#: symbol that is no Unicode punctuation ("$" is Sc), marks, wide and compatibility forms.
ANSWERS = st.text() | st.lists(
    st.sampled_from(["The", "a", "I", " ", "\t", "$", "+", "!", "¿", "é", "e\u0301", "Ａ", "ﬁ", "½"])
).map("".join)


@pytest.mark.parametrize("profile", PROFILES)
@given(text=ANSWERS)
@example(text="Price: $5 + <tax>")
@settings(max_examples=60, deadline=None)
def test_normalize_matches_the_oracle_under_every_profile(profile, text):
    expected = brute_force_normalize(text, profile)
    assert normalize(text, profile) == expected
    # Again, now that every character of ``text`` has an entry in the tables.
    assert normalize(text, profile) == expected


def test_normalize_respects_disabled_stages():
    profile = NormalizationProfile(
        lowercase=False, strip_punctuation=False, stopwords=(), unicode_fold=False
    )
    assert normalize("The  Answer!", profile) == "The Answer!"


# ---------------------------------------------------------------------------
# exact_match
# ---------------------------------------------------------------------------


def test_exact_match_normalizes_both_sides():
    assert exact_match("Napoleon I", ["Napoleon"]) is True


def test_exact_match_case_fold():
    assert exact_match("paris", ["Paris"]) is True


def test_exact_match_disjoint_strings():
    assert exact_match("London", ["Paris"]) is False


def test_exact_match_requires_gold_answers():
    with pytest.raises(DataError):
        exact_match("Paris", [])


@given(st.text(max_size=40), st.text(max_size=40))
@settings(max_examples=200, deadline=None)
def test_exact_match_symmetric(a, b):
    assert exact_match(a, [b]) == exact_match(b, [a])


@given(
    st.text(max_size=30),
    st.lists(st.text(max_size=30), min_size=1, max_size=4),
    st.text(max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_exact_match_monotone_in_gold_set(pred, golds, extra):
    if exact_match(pred, golds):
        assert exact_match(pred, golds + [extra])


# ---------------------------------------------------------------------------
# records and corpora
# ---------------------------------------------------------------------------


def test_record_rejects_blank_question():
    with pytest.raises(DataError):
        QaRecord(id="q1", question="   ", gold_answers=("Paris",), split="dev")


def test_record_rejects_empty_gold_list():
    with pytest.raises(DataError):
        QaRecord(id="q1", question="capital?", gold_answers=(), split="dev")


def test_record_rejects_unknown_split():
    with pytest.raises(DataError):
        QaRecord(id="q1", question="capital?", gold_answers=("Paris",), split="validation")


def test_corpus_rejects_duplicate_ids():
    rec = make_record("q1", "capital of France?", ["Paris"])
    with pytest.raises(DataError, match="q1"):
        make_corpus(rec, rec)


def test_corpus_preserves_order_and_lookup(small_corpus):
    assert [r.id for r in small_corpus] == ["q1", "q2", "q3"]
    assert small_corpus["q2"].gold_answers == ("Napoleon",)
    with pytest.raises(DataError, match="q9"):
        small_corpus["q9"]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_single_canonical_line(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(
        json.dumps({"id": "q1", "question": "capital of France?", "answers": ["Paris"]}) + "\n"
    )
    corpus = ingest(path, "canonical-jsonl", "dev")
    assert len(corpus) == 1
    assert corpus["q1"].question == "capital of France?"
    assert corpus["q1"].split == "dev"


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert len(ingest(path, "canonical-jsonl", "dev")) == 0


def test_ingest_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [
        json.dumps({"id": "q1", "question": "a?", "answers": ["x"]}),
        "{not json",
        json.dumps({"id": "q3", "question": "c?", "answers": ["z"]}),
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match="line 2"):
        ingest(path, "canonical-jsonl", "dev")


def test_ingest_empty_answer_list_names_record(tmp_path):
    path = tmp_path / "noans.jsonl"
    path.write_text(json.dumps({"id": "q7", "question": "a?", "answers": []}) + "\n")
    with pytest.raises(DataError, match="q7"):
        ingest(path, "canonical-jsonl", "dev")


def test_ingest_tsv_pairs_assigns_sequential_ids(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("capital of France?\tParis|paris city\nlongest river?\tNile\n")
    corpus = ingest(path, "tsv-pairs", "train")
    assert [r.id for r in corpus] == ["q000001", "q000002"]
    assert corpus["q000001"].gold_answers == ("Paris", "paris city")


def test_ingest_missing_file_is_an_error(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        ingest(tmp_path / "nope.jsonl", "canonical-jsonl", "dev")


def test_ingest_record_split_field_wins_over_default(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        json.dumps({"id": "q1", "question": "a?", "answers": ["x"], "split": "test"}) + "\n"
    )
    corpus = ingest(path, "canonical-jsonl", "dev")
    assert corpus["q1"].split == "test"


@pytest.mark.parametrize(
    "change",
    [{"question": None}, {"question": 5}, {"answers": [1]}, {"answers": ["a", None]}],
    ids=["null-question", "number-question", "number-answer", "null-answer"],
)
def test_ingest_canonical_fields_must_be_strings(tmp_path, change):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "q1", "question": "q?", "answers": ["a"], **change}) + "\n")
    with pytest.raises(DataError, match="line 1"):
        ingest(path)


def test_ingest_null_id_names_file_and_line_and_is_not_the_string_none(tmp_path):
    path = tmp_path / "ids.jsonl"
    rows = [
        {"id": "None", "question": "first?", "answers": ["a"]},
        {"id": None, "question": "q?", "answers": ["a"]},
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(DataError, match=f"{path} at line 2: record id must be"):
        ingest(path, "canonical-jsonl", "dev")


@pytest.mark.parametrize("value", [None, True, 1.0, [1], {"id": 1}], ids=repr)
def test_record_id_must_be_a_string_or_an_integer(value):
    with pytest.raises(DataError, match="record id must be a string or an integer"):
        parse_record_id(value)


def test_record_id_of_an_integer_is_its_digits():
    assert parse_record_id(7) == "7"
    assert parse_record_id("q7") == "q7"


CANONICAL_ROW = {"id": "q1", "question": "q?", "answers": ["a", "b"], "split": "dev"}


@given(
    st.sampled_from(CORPUS_FORMATS),
    st.lists(
        damaged(CANONICAL_ROW).map(json.dumps) | st.tuples(ANY_LINE, ANY_LINE).map("\t".join)
        | ANY_LINE,
        max_size=3,
    ),
)
@settings(max_examples=300, deadline=None)
def test_ingest_gives_a_corpus_or_a_data_error(fmt, lines):
    text = "".join(line + "\n" for line in lines)
    corpus = read_or_data_error(lambda path: ingest(path, fmt, "dev"), {"corpus": text})
    for rec in corpus or ():
        assert isinstance(rec.question, str)
        assert all(isinstance(answer, str) for answer in rec.gold_answers)


def test_canonical_round_trip(tmp_path, small_corpus):
    path = write_canonical(small_corpus, tmp_path / "rt.jsonl")
    again = ingest(path, "canonical-jsonl", "dev", name=small_corpus.name)
    assert again == small_corpus


def test_canonical_round_trip_preserves_unicode(tmp_path):
    corpus = make_corpus(
        make_record("q1", "où est né Napoléon Ier ?", ["Ajaccio"]),
        make_record("q2", "multi\nline question?", ["yes"]),
        name="unicode",
    )
    path = write_canonical(corpus, tmp_path / "u.jsonl")
    assert ingest(path, "canonical-jsonl", "dev", name="unicode") == corpus


# ---------------------------------------------------------------------------
# profile serialization
# ---------------------------------------------------------------------------


def test_profile_round_trips_through_dict():
    profile = NormalizationProfile(stopwords=("a", "the"))
    assert NormalizationProfile.from_dict(profile.to_dict()) == profile


@pytest.mark.parametrize(
    "change",
    [
        {"lowercase": "no"},
        {"strip_punctuation": 1},
        {"collapse_whitespace": None},
        {"unicode_fold": []},
        {"stopwords": "abc"},
        {"stopwords": ["a", 5]},
        {"stopwords_version": 7},
    ],
    ids=lambda change: f"{next(iter(change))}={next(iter(change.values()))!r}",
)
def test_profile_from_dict_checks_each_type(change):
    with pytest.raises(DataError, match=f"normalization {next(iter(change))} must be"):
        NormalizationProfile.from_dict({**DEFAULT_PROFILE.to_dict(), **change})


def test_profile_fingerprint_tracks_content():
    assert DEFAULT_PROFILE.fingerprint() == NormalizationProfile().fingerprint()
    changed = NormalizationProfile(lowercase=False)
    assert changed.fingerprint() != DEFAULT_PROFILE.fingerprint()

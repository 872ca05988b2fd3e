from __future__ import annotations

import json
import math

import pytest

from answer_or_search.errors import DataError
from answer_or_search.fileio import (
    atomic_write,
    check_manifest,
    manifest_path_for,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
    write_manifest,
)


def test_failed_write_keeps_previous_file_and_leaves_no_tmp(tmp_path):
    path = write_jsonl(tmp_path / "rows.jsonl", [{"id": "a"}, {"id": "b"}])
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write('{"id": "partial"}\n')
            raise RuntimeError("disk full")
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_atomic_write_creates_parent_directory(tmp_path):
    path = write_jsonl(tmp_path / "a" / "b" / "rows.jsonl", [{"x": "é"}])
    assert path.read_text(encoding="utf-8") == '{"x": "é"}\n'


def test_an_os_error_while_writing_is_a_data_error_naming_the_path(tmp_path):
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "doc.json"
    with pytest.raises(DataError, match=f"{target} cannot be written"):
        write_json(target, {})


WRITERS = {
    "write_json": lambda path, value: write_json(path, {"x": value}),
    "write_jsonl": lambda path, value: write_jsonl(path, [{"x": 1.0}, {"x": value}]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_a_value_standard_json_cannot_hold_is_a_data_error_and_writes_nothing(
    tmp_path, writer, value
):
    target = tmp_path / "out.json"
    with pytest.raises(DataError, match=f"{target} cannot be written"):
        writer(target, value)
    assert list(tmp_path.iterdir()) == []


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": 1}\n\n   \n{"id": 2}\n')
    assert read_jsonl(path, lambda raw: raw["id"], "rows") == [1, 2]


@pytest.mark.parametrize(
    "line",
    ["{not json", "[1, 2]", '{"other": 1}', "[" * 100_000 + "]" * 100_000],
    ids=["not-json", "wrong-type", "missing-field", "nested-too-deep"],
)
def test_read_jsonl_names_file_and_line(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": 1}\n' + line + "\n")
    with pytest.raises(DataError, match=r"rows\.jsonl at line 2"):
        read_jsonl(path, lambda raw: raw["id"], "rows")


def test_read_jsonl_names_file_and_line_of_a_row_the_parser_refuses(tmp_path):
    def parse(raw):
        if raw["id"] < 0:
            raise DataError("id must not be negative")
        return raw["id"]

    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": 1}\n{"id": -1}\n')
    with pytest.raises(DataError, match=r"rows\.jsonl at line 2: id must not be negative"):
        read_jsonl(path, parse, "rows")


def test_readers_reject_missing_file(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        read_jsonl(tmp_path / "nope.jsonl", dict, "rows")
    with pytest.raises(DataError, match="does not exist"):
        read_json(tmp_path / "nope.json", dict, "doc")
    directory = tmp_path / "dir.jsonl"
    directory.mkdir()
    with pytest.raises(DataError, match=r"rows .*dir\.jsonl cannot be read"):
        read_jsonl(directory, dict, "rows")
    with pytest.raises(DataError, match=r"doc .*dir\.jsonl cannot be read"):
        read_json(directory, dict, "doc")


def test_read_json_wraps_parse_errors(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{}")
    with pytest.raises(DataError, match="doc.json"):
        read_json(path, lambda doc: doc["tau"], "doc")


def test_check_manifest_passes_without_sidecar(tmp_path):
    path = write_jsonl(tmp_path / "rows.jsonl", [{"id": "a"}])
    assert not manifest_path_for(path).exists()
    check_manifest(path, 1)
    check_manifest(path, 7)


def test_check_manifest_rejects_count_mismatch(tmp_path):
    path = write_jsonl(tmp_path / "rows.jsonl", [{"id": "a"}, {"id": "b"}])
    write_manifest(path, 2, split="dev")
    assert json.loads(manifest_path_for(path).read_text()) == {"records": 2, "split": "dev"}
    check_manifest(path, 2)
    with pytest.raises(DataError, match="truncated"):
        check_manifest(path, 1)

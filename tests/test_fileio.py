from __future__ import annotations

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answer_or_search.errors import DataError
from answer_or_search.fileio import (
    atomic_write,
    check_manifest,
    manifest_path_for,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)

from conftest import ANY_LINE


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
    path = write_jsonl(tmp_path / "rows.jsonl", [{"id": "a"}, {"id": "b"}], {"split": "dev"})
    assert json.loads(manifest_path_for(path).read_text()) == {"records": 2, "split": "dev"}
    check_manifest(path, 2)
    with pytest.raises(DataError, match="truncated"):
        check_manifest(path, 1)


# ---------------------------------------------------------------------------
# the sidecar atomic_write writes
# ---------------------------------------------------------------------------


def ci_records(path: Path) -> int:
    """CI's rule: the lines of a .jsonl, the lines under a .csv's header, 1 for
    any other document. Lines split as text-mode reading splits them, which is
    how the readers see a file: a JSON string may hold U+2028 verbatim, which
    ``str.splitlines`` would also break at."""
    with path.open(encoding="utf-8") as fh:
        lines = fh.readlines()
    return {".jsonl": len(lines), ".csv": len(lines) - 1}.get(path.suffix, 1)


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), ANY_LINE)


@given(
    rows=st.lists(st.dictionaries(ANY_LINE, JSON_SCALARS, max_size=3), max_size=6),
    table=st.lists(st.lists(ANY_LINE, min_size=1, max_size=3), max_size=6),
    doc=st.dictionaries(ANY_LINE, JSON_SCALARS, max_size=3),
    text=ANY_LINE,
)
@settings(max_examples=25, deadline=None)
def test_the_sidecar_counts_what_atomic_write_wrote(rows, table, doc, text):
    manifest = {"split": "dev", "config_hash": "c"}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with atomic_write(out / "rows.jsonl", manifest) as fh:
            for row in rows:
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
        with atomic_write(out / "table.csv", manifest) as fh:
            writer = csv.writer(fh)
            writer.writerow(["class", "count"])
            writer.writerows(table)
        with atomic_write(out / "doc.json", manifest) as fh:
            json.dump(doc, fh, ensure_ascii=False)
        with atomic_write(out / "report.txt", manifest) as fh:
            fh.write(text)
        for name in ("rows.jsonl", "table.csv", "doc.json", "report.txt"):
            sidecar = json.loads(manifest_path_for(out / name).read_text(encoding="utf-8"))
            assert sidecar == {"records": ci_records(out / name), **manifest}, name


@pytest.mark.parametrize("earlier", [False, True], ids=["no-earlier-sidecar", "earlier-sidecar"])
@pytest.mark.parametrize("failure", ["block-raises", "directory-at-target"])
def test_a_failed_write_leaves_the_sidecar_as_it_was(tmp_path, failure, earlier):
    path = tmp_path / "rows.jsonl"
    sidecar = manifest_path_for(path)
    if earlier:
        write_jsonl(path, [{"id": "a"}], {"split": "dev"})
    before = sidecar.read_bytes() if earlier else None
    if failure == "directory-at-target":
        path.unlink(missing_ok=True)
        path.mkdir()  # os.replace cannot move a file over a directory
    with pytest.raises((RuntimeError, DataError)):
        with atomic_write(path, {"split": "test"}) as fh:
            fh.write('{"id": "b"}\n{"id": "c"}\n')
            if failure == "block-raises":
                raise RuntimeError("disk full")
    assert (sidecar.read_bytes() if sidecar.exists() else None) == before
    assert list(tmp_path.glob("*.tmp")) == []

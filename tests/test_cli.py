from __future__ import annotations

import hashlib
import http.client
import importlib
import json
import os
import random
import sqlite3
import subprocess
import sys
import time
from contextlib import closing
from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import answer_or_search
from answer_or_search.cli import PipelineConfig, build_parser, load_config, main
from answer_or_search.errors import (
    EXIT_CAPABILITY,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_TRANSPORT,
    ConfigError,
    RunAbortedError,
)
from answer_or_search.evaluation import read_report
from answer_or_search.inference import CACHE_FILE, GenerationClient, ResponseCache
from answer_or_search.mock_service import Script, serve
from answer_or_search.predictions import DEFAULT_MAX_NEW_TOKENS

from conftest import (
    RawServer,
    cache_rows,
    http_response,
    stub_post,
    table_names,
    write_cache_row,
    write_old_layout_cache,
)

# (question, gold, model answer, logprob): 3 correct with low perplexity,
# 3 wrong with high perplexity, so PPL-t separates them cleanly.
DEV_ROWS = [
    ("what is the capital of france?", "Paris", "Paris", -0.05),
    ("who wrote hamlet?", "Shakespeare", "Shakespeare", -0.1),
    ("what is the largest planet?", "Jupiter", "Saturn", -2.0),
    ("what is the smallest prime?", "2", "3", -1.5),
    ("boiling point of water in celsius?", "100", "100", -0.2),
    ("what is the capital of italy?", "Rome", "Milan", -3.0),
]


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    dev_file = data / "dev.jsonl"
    with dev_file.open("w") as fh:
        for i, (question, gold, _, _) in enumerate(DEV_ROWS, start=1):
            fh.write(json.dumps({"id": f"d{i}", "question": question, "answers": [gold]}) + "\n")

    script = Script()
    for question, _, answer, logprob in DEV_ROWS:
        script.add_question(question, answer, (logprob,))
    service = serve(script)

    config = {
        "corpus": {"dev": {"path": str(dev_file), "format": "canonical-jsonl"}},
        "endpoint": {"url": service.url, "model_tag": "mock-small", "max_retries": 1},
        "prompt": {"style": "zeroshot-qa", "template": "{q}", "seed": 13},
        "ppl": {"strategy": "max-f1"},
        "lambda": 1.0,
        "cache_dir": str(tmp_path / "cache"),
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))

    yield {
        "tmp": tmp_path,
        "config": config_path,
        "config_dict": config,
        "service": service,
        "out": tmp_path / "out",
        "dev_file": dev_file,
    }
    service.close()


def run(workspace, *argv) -> int:
    return main([argv[0], "-c", str(workspace["config"]), *argv[1:]])


def rewrite_config(workspace, mutate) -> None:
    config = workspace["config_dict"]
    mutate(config)
    workspace["config"].write_text(yaml.safe_dump(config))


def set_key(config: dict, key: str, value) -> None:
    """Set a dotted config key, making the sections on the way."""
    *parents, leaf = key.split(".")
    for part in parents:
        config = config.setdefault(part, {})
    config[leaf] = value


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_writes_canonical_files_and_counts(workspace, capsys):
    assert run(workspace, "ingest") == EXIT_OK
    out = capsys.readouterr().out
    assert "split=dev records=6" in out
    canonical = workspace["out"] / "corpus.dev.jsonl"
    assert canonical.exists()
    assert len(canonical.read_text().splitlines()) == 6
    manifest = json.loads((workspace["out"] / "corpus.dev.jsonl.manifest.json").read_text())
    assert manifest["records"] == 6
    assert "config_hash" in manifest and "normalization_profile_hash" in manifest


def test_ingest_missing_corpus_file_exits_config(workspace, capsys):
    rewrite_config(workspace, lambda c: c["corpus"]["dev"].update(path="/nonexistent/x.jsonl"))
    assert run(workspace, "ingest") == EXIT_CONFIG
    assert "/nonexistent/x.jsonl" in capsys.readouterr().err


def test_ingest_duplicate_ids_across_splits_exit_data(workspace, tmp_path, capsys):
    train_file = tmp_path / "data" / "train.jsonl"
    train_file.write_text(
        json.dumps({"id": "d1", "question": "duplicate?", "answers": ["x"]}) + "\n"
    )
    rewrite_config(
        workspace,
        lambda c: c["corpus"].update(train={"path": str(train_file), "format": "canonical-jsonl"}),
    )
    assert run(workspace, "ingest") == EXIT_DATA
    assert "d1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def test_infer_writes_one_prediction_per_record(workspace):
    run(workspace, "ingest")
    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    lines = (workspace["out"] / "predictions.dev.jsonl").read_text().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first["id"] == "d1"
    assert first["text"] == "Paris"
    # The run's model tag and prompt style are written once, in the manifest.
    manifest = json.loads((workspace["out"] / "predictions.dev.jsonl.manifest.json").read_text())
    assert manifest["model_tag"] == "mock-small"
    assert manifest["prompt_style"] == "zeroshot-qa"


def _out_files(workspace) -> dict[str, bytes]:
    out = workspace["out"]
    return {str(path.relative_to(out)): path.read_bytes() for path in out.rglob("*")}


def test_infer_rerun_with_warm_cache_is_byte_identical_and_offline(workspace):
    """A rerun on the warm cache against an endpoint on another port writes
    every file, manifests included, byte for byte as the first run did."""
    threshold = str(workspace["out"] / "threshold.json")
    stages = [
        ("ingest",),
        ("infer", "--split", "dev"),
        ("label", "--split", "dev"),
        ("calibrate", "--split", "dev"),
        ("evaluate", "--split", "dev", "--threshold", threshold),
        ("histogram", "--split", "dev", "--edges", "0", "1", "10"),
    ]
    for stage in stages:
        assert run(workspace, *stage) == EXIT_OK
    first = _out_files(workspace)
    assert "predictions.dev.jsonl.manifest.json" in first
    second_endpoint = serve(Script())
    try:
        for stage in stages:
            assert run(workspace, *stage, "--endpoint-url", second_endpoint.url) == EXIT_OK
        assert second_endpoint.request_log == []
    finally:
        second_endpoint.close()
    assert _out_files(workspace) == first


def test_infer_without_logprobs_exits_capability(workspace, capsys):
    run(workspace, "ingest")
    workspace["service"].close()
    script = Script()
    for question, _, answer, logprob in DEV_ROWS:
        script.add_question(question, answer, (logprob,), fault="no-logprobs")
    replacement = serve(script)
    rewrite_config(workspace, lambda c: c["endpoint"].update(url=replacement.url))
    try:
        assert run(workspace, "infer", "--split", "dev") == EXIT_CAPABILITY
        assert "logprobs" in capsys.readouterr().err
    finally:
        replacement.close()


def test_infer_abort_writes_progress_manifest(workspace, capsys):
    run(workspace, "ingest")
    workspace["service"].close()
    script = Script()
    for i, (question, _, answer, logprob) in enumerate(DEV_ROWS):
        fault = "http-error" if i == 1 else None
        script.add_question(question, answer, (logprob,), fault=fault)
    replacement = serve(script)
    rewrite_config(
        workspace,
        lambda c: (c["endpoint"].update(url=replacement.url), c.update(max_in_flight=1)),
    )
    try:
        assert run(workspace, "infer", "--split", "dev") == EXIT_TRANSPORT
        progress = json.loads((workspace["out"] / "progress.dev.json").read_text())
        # d2 fails twice. The misses d3 to d6 are queued on the one worker ahead
        # of d2's retry, so they are fetched while d2 waits out its backoff.
        assert progress["done"] == ["d1", "d3", "d4", "d5", "d6"]
        assert progress["failed"] == "d2"
        # The aborted run committed the responses it fetched and closed the
        # cache: no write-ahead log is left behind.
        assert len(cache_rows(workspace["tmp"] / "cache")) == 5
        assert os.listdir(workspace["tmp"] / "cache") == [CACHE_FILE]
    finally:
        replacement.close()


def test_infer_after_an_aborted_run_removes_its_stale_progress(workspace):
    run(workspace, "ingest")
    failing, healthy = Script(), Script()
    for i, (question, _, answer, logprob) in enumerate(DEV_ROWS):
        failing.add_question(question, answer, (logprob,), fault="http-error" if i == 1 else None)
        healthy.add_question(question, answer, (logprob,))
    progress = workspace["out"] / "progress.dev.json"
    infer = ("infer", "--split", "dev", "--endpoint-url")
    with serve(failing) as endpoint:
        assert run(workspace, *infer, endpoint.url) == EXIT_TRANSPORT
    assert json.loads(progress.read_text())["failed"] == "d2"
    with serve(healthy) as endpoint:
        assert run(workspace, *infer, endpoint.url) == EXIT_OK
    assert not progress.exists()
    assert len((workspace["out"] / "predictions.dev.jsonl").read_text().splitlines()) == 6


#: Prompt settings that fail (config keys under "prompt", exit code); "POOL"
#: stands for the masked dataset of the workspace, 3 answered and 3 masked.
BAD_PROMPT_SETTINGS = {
    "template-without-a-slot": ({"template": "no slot"}, EXIT_CONFIG),
    "unbalanceable-pool": (
        {"style": "fewshot-balanced", "pool_path": "POOL", "fewshot_k": 8}, EXIT_DATA
    ),
}


@pytest.mark.parametrize(
    "settings, code", BAD_PROMPT_SETTINGS.values(), ids=BAD_PROMPT_SETTINGS.keys()
)
def test_infer_with_bad_prompt_settings_exits_before_making_the_cache(workspace, settings, code):
    for stage in (("ingest",), ("infer", "--split", "dev"), ("label", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    pool = str(workspace["out"] / "masked.dev.jsonl")
    settings = {key: pool if value == "POOL" else value for key, value in settings.items()}
    rewrite_config(workspace, lambda c: c["prompt"].update(settings))
    fresh = workspace["tmp"] / "fresh_cache"
    assert run(workspace, "infer", "--split", "dev", "--cache-dir", str(fresh)) == code
    assert not fresh.exists()


def _cache_key(workspace, question: str) -> bytes:
    """The key of the cached response to ``question``'s prompt."""
    key = ResponseCache.key("mock-small", question, DEFAULT_MAX_NEW_TOKENS)
    assert key in cache_rows(workspace["tmp"] / "cache"), f"no cache entry for {question!r}"
    return key


def test_infer_refetches_corrupt_cache_entries(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    predictions = workspace["out"] / "predictions.dev.jsonl"
    first = predictions.read_bytes()
    cache = workspace["tmp"] / "cache"
    truncated = _cache_key(workspace, DEV_ROWS[0][0])
    no_logprobs = _cache_key(workspace, DEV_ROWS[3][0])
    originals = {key: cache_rows(cache)[key] for key in (truncated, no_logprobs)}
    # Cut relative to the row's length, so that a row of any length is corrupt.
    write_cache_row(cache, truncated, originals[truncated][:-2])
    write_cache_row(cache, no_logprobs, json.dumps({"text": "x"}))
    calls = len(workspace["service"].request_log)

    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    assert len(workspace["service"].request_log) == calls + 2
    assert {key: cache_rows(cache)[key] for key in originals} == originals
    assert predictions.read_bytes() == first

    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    assert len(workspace["service"].request_log) == calls + 2
    assert predictions.read_bytes() == first


def test_infer_refetches_a_cached_entry_that_breaks_the_contract(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    predictions = workspace["out"] / "predictions.dev.jsonl"
    first = predictions.read_bytes()
    cache = workspace["tmp"] / "cache"
    key = _cache_key(workspace, DEV_ROWS[1][0])
    original = cache_rows(cache)[key]
    text, _ = json.loads(original)
    poisoned = [text, [0.5]]
    write_cache_row(cache, key, json.dumps(poisoned))
    calls = len(workspace["service"].request_log)

    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    assert workspace["service"].request_log[calls:] == [DEV_ROWS[1][0]]
    assert cache_rows(cache)[key] == original
    assert predictions.read_bytes() == first

    # With the endpoint down, the entry is a miss that cannot be fetched.
    write_cache_row(cache, key, json.dumps(poisoned))
    workspace["service"].close()
    assert run(workspace, "infer", "--split", "dev") == EXIT_TRANSPORT
    progress = json.loads((workspace["out"] / "progress.dev.json").read_text())
    assert progress["failed"] == "d2"


def _two_cold_infer_digests(workspace, monkeypatch) -> list[str]:
    """The sha256 of the cache file each of two cold ``infer`` runs writes.

    Each request waits a delay drawn from the run's seed and its body, so the
    replies of the two runs come back in different orders.
    """
    seed = 0
    original_request = http.client.HTTPConnection.request

    def delayed_request(self, method, url, body=None, *args, **kwargs):
        time.sleep(random.Random(f"{seed}:{body!r}").uniform(0, 0.03))
        return original_request(self, method, url, body, *args, **kwargs)

    monkeypatch.setattr(http.client.HTTPConnection, "request", delayed_request)
    rewrite_config(workspace, lambda c: c.update(max_in_flight=4))
    assert run(workspace, "ingest") == EXIT_OK
    digests = []
    for seed in (1, 2):
        cache = workspace["tmp"] / f"cache{seed}"
        rewrite_config(workspace, lambda c: c.update(cache_dir=str(cache)))
        assert run(workspace, "infer", "--split", "dev") == EXIT_OK
        digests.append(hashlib.sha256((cache / CACHE_FILE).read_bytes()).hexdigest())
    return digests


def test_two_cold_infer_runs_write_the_same_cache_file(workspace, monkeypatch):
    digests = _two_cold_infer_digests(workspace, monkeypatch)
    assert len(workspace["service"].request_log) == 2 * len(DEV_ROWS)
    assert digests[0] == digests[1]


def test_two_cold_infer_runs_with_a_retried_miss_write_the_same_cache_file(
    workspace, monkeypatch
):
    # In each run, d2's first attempt is answered 503 without reaching the
    # mock, so its response arrives after its backoff, behind later misses.
    refused = []  # the cache dir of each run whose d2 was refused
    original_post = GenerationClient._post

    def post(self, body: bytes):
        if json.loads(body)["prompt"] == DEV_ROWS[1][0] and self.cache.directory not in refused:
            refused.append(self.cache.directory)
            return 503, {}, b""
        return original_post(self, body)

    monkeypatch.setattr(GenerationClient, "_post", post)
    digests = _two_cold_infer_digests(workspace, monkeypatch)
    assert refused == [workspace["tmp"] / "cache1", workspace["tmp"] / "cache2"]
    assert len(workspace["service"].request_log) == 2 * len(DEV_ROWS)
    assert digests[0] == digests[1]


def test_infer_reads_the_object_rows_of_earlier_versions_and_never_rewrites_them(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    predictions = workspace["out"] / "predictions.dev.jsonl"
    first = predictions.read_bytes()
    cache = workspace["tmp"] / "cache"
    # Each row as versions before the [text, token_logprobs] pair wrote it.
    for key, row in cache_rows(cache).items():
        text, token_logprobs = json.loads(row)
        response = {"text": text, "token_logprobs": token_logprobs}
        write_cache_row(cache, key, json.dumps(response, ensure_ascii=False))
    digest = hashlib.sha256((cache / CACHE_FILE).read_bytes()).hexdigest()
    calls = len(workspace["service"].request_log)

    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    assert len(workspace["service"].request_log) == calls
    assert predictions.read_bytes() == first
    assert hashlib.sha256((cache / CACHE_FILE).read_bytes()).hexdigest() == digest


def test_infer_ignores_and_keeps_the_entries_table_of_the_earlier_layout(workspace):
    run(workspace, "ingest")
    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    predictions = workspace["out"] / "predictions.dev.jsonl"
    first = predictions.read_bytes()
    # The same responses as versions before the one-table layout stored them:
    # hex keys, wrapped rows. Each is a miss, fetched again.
    rows = cache_rows(workspace["tmp"] / "cache")
    entries = {key.hex(): f'{{"response": {row}}}' for key, row in rows.items()}
    old = workspace["tmp"] / "old_cache"
    write_old_layout_cache(old, entries)
    rewrite_config(workspace, lambda c: c.update(cache_dir=str(old)))
    predictions.unlink()
    calls = len(workspace["service"].request_log)
    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    assert len(workspace["service"].request_log) == calls + len(DEV_ROWS)
    assert predictions.read_bytes() == first
    assert sorted(table_names(old)) == ["entries", "responses"]
    with closing(sqlite3.connect(old / CACHE_FILE)) as db:
        assert dict(db.execute("SELECT key, entry FROM entries")) == entries
    assert cache_rows(old) == rows


def test_infer_on_a_cache_file_that_is_not_a_database_exits_data(workspace, capsys):
    run(workspace, "ingest")
    path = workspace["tmp"] / "cache" / CACHE_FILE
    path.parent.mkdir()
    path.write_bytes(b"garbage" * 1000)
    assert run(workspace, "infer", "--split", "dev") == EXIT_DATA
    assert str(path) in capsys.readouterr().err
    assert workspace["service"].request_log == []


def test_two_infer_processes_can_share_one_cache_dir(workspace):
    # Two splits of 100 questions each, which the mock answers "UNKNOWN"; both
    # processes create the cache file at once.
    for split in ("dev", "test"):
        path = workspace["tmp"] / "data" / f"{split}.jsonl"
        with path.open("w") as fh:
            for i in range(100):
                row = {"id": f"{split}{i}", "question": f"{split} question {i}?", "answers": ["a"]}
                fh.write(json.dumps(row) + "\n")
        rewrite_config(
            workspace,
            lambda c: c["corpus"].update({split: {"path": str(path), "format": "canonical-jsonl"}}),
        )
    assert run(workspace, "ingest") == EXIT_OK
    src = str(Path(answer_or_search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "answer_or_search.cli", "infer",
             "-c", str(workspace["config"]), "--split", split],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for split in ("dev", "test")
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == EXIT_OK, err
    for split in ("dev", "test"):
        lines = (workspace["out"] / f"predictions.{split}.jsonl").read_text().splitlines()
        texts = [json.loads(line)["text"] for line in lines]
        assert texts == ["UNKNOWN"] * 100
    assert len(cache_rows(workspace["tmp"] / "cache")) == 200
    assert len(workspace["service"].request_log) == 200
    # Two connections closing at the same instant can each see the other and
    # leave the write-ahead log in place; the next process to close removes it.
    ResponseCache(workspace["tmp"] / "cache").close()
    assert os.listdir(workspace["tmp"] / "cache") == [CACHE_FILE]


def test_infer_response_that_breaks_the_contract_exits_transport_and_caches_nothing(
    workspace, monkeypatch
):
    run(workspace, "ingest")
    stub_post(monkeypatch, 200, b'{"text": 5, "token_logprobs": [-0.1]}')
    assert run(workspace, "infer", "--split", "dev") == EXIT_TRANSPORT
    assert os.listdir(workspace["tmp"] / "cache") == [CACHE_FILE]
    assert cache_rows(workspace["tmp"] / "cache") == {}
    assert not (workspace["out"] / "predictions.dev.jsonl").exists()


def test_infer_answer_with_a_lone_surrogate_exits_transport_and_caches_nothing(workspace):
    # The mock sends the text as the JSON escape "x\ud800", which no UTF-8 file can hold.
    run(workspace, "ingest")
    workspace["service"].close()
    replacement = serve(Script().add_question(DEV_ROWS[0][0], "x\ud800", (-0.1,)))
    rewrite_config(
        workspace,
        lambda c: (c["endpoint"].update(url=replacement.url), c.update(max_in_flight=1)),
    )
    try:
        assert run(workspace, "infer", "--split", "dev") == EXIT_TRANSPORT
        assert replacement.request_log == [DEV_ROWS[0][0]]  # not retried
    finally:
        replacement.close()
    assert cache_rows(workspace["tmp"] / "cache") == {}
    assert not (workspace["out"] / "predictions.dev.jsonl").exists()


def test_infer_on_a_redirect_exits_transport_naming_the_status_and_location(
    workspace, monkeypatch, capsys
):
    run(workspace, "ingest")
    rewrite_config(workspace, lambda c: c.update(max_in_flight=1))
    posts = stub_post(monkeypatch, 307, b"", {"Location": "http://elsewhere/"})
    assert run(workspace, "infer", "--split", "dev") == EXIT_TRANSPORT
    err = capsys.readouterr().err
    assert "HTTP 307" in err and "'http://elsewhere/'" in err
    assert len(posts) == 1  # not followed


@pytest.mark.parametrize(
    "delta, requests, error",
    [
        # The connection closes short of the declared body: a transport error, retried.
        (10, [1, 1], "endpoint failed after 2 attempts: IncompleteRead"),
        # The client stops 5 bytes short of the body's end, which is not JSON: not retried.
        (-5, [1], "endpoint returned non-JSON body"),
    ],
    ids=["declared-longer", "declared-shorter"],
)
def test_infer_on_a_content_length_that_disagrees_with_the_body_exits_transport(
    workspace, capsys, delta, requests, error
):
    workspace["dev_file"].write_text(json.dumps({"id": "q1", "question": "q?", "answers": ["a"]}))
    run(workspace, "ingest")
    body = json.dumps({"text": "a", "token_logprobs": [-0.5]}).encode()
    response = http_response("200 OK", body, {"Content-Length": str(len(body) + delta)})
    # One connection per request: RawServer waits out its accept timeout on any unused one.
    with RawServer([[response] for _ in requests]) as server:
        rewrite_config(workspace, lambda c: c["endpoint"].update(url=server.url))
        assert run(workspace, "infer", "--split", "dev") == EXIT_TRANSPORT
        assert [len(heads) for heads in server.requests] == requests
    assert f"aborted at record q1: {error}" in capsys.readouterr().err
    assert not (workspace["out"] / "predictions.dev.jsonl").exists()


def test_split_outside_the_known_splits_is_a_usage_error(workspace, capsys):
    run(workspace, "ingest")
    with pytest.raises(SystemExit) as excinfo:
        run(workspace, "label", "--split", "foo")
    assert excinfo.value.code == EXIT_CONFIG
    assert "invalid choice: 'foo'" in capsys.readouterr().err


def test_infer_on_a_split_that_was_not_ingested_exits_data(workspace, capsys):
    run(workspace, "ingest")
    assert run(workspace, "infer", "--split", "train") == EXIT_DATA
    assert "run 'ingest'" in capsys.readouterr().err


@pytest.mark.parametrize("records", [6, 0], ids=["six-records", "empty-corpus"])
def test_infer_with_a_bad_template_exits_config_before_any_request(workspace, capsys, records):
    rows = workspace["dev_file"].read_text().splitlines(keepends=True)
    workspace["dev_file"].write_text("".join(rows[:records]))
    rewrite_config(workspace, lambda c: c["prompt"].update(template="{q} or {q}"))
    assert run(workspace, "ingest") == EXIT_OK
    assert run(workspace, "infer", "--split", "dev") == EXIT_CONFIG
    assert "exactly one {q} placeholder, found 2" in capsys.readouterr().err
    assert workspace["service"].request_log == []
    assert not (workspace["out"] / "predictions.dev.jsonl").exists()


def test_infer_with_a_pool_too_small_for_fewshot_k_exits_data_before_any_request(
    workspace, capsys
):
    # The zero-shot run's masked dataset is the pool: 3 answered, 3 masked.
    for stage in (("ingest",), ("infer", "--split", "dev"), ("label", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    pool = str(workspace["out"] / "masked.dev.jsonl")
    rewrite_config(
        workspace,
        lambda c: c["prompt"].update(style="fewshot-balanced", pool_path=pool, fewshot_k=8),
    )
    with serve(Script()) as fewshot_endpoint:
        argv = ("infer", "--split", "dev", "--endpoint-url", fewshot_endpoint.url)
        assert run(workspace, *argv) == EXIT_DATA
        assert fewshot_endpoint.request_log == []
    assert "too few answered examples: need 4, have 3" in capsys.readouterr().err


def test_infer_with_a_pool_labeled_under_another_search_token_exits_data(workspace, capsys):
    # The pool holds 3 masked examples, but their target is "<search>", not "<tool>".
    for stage in (("ingest",), ("infer", "--split", "dev"), ("label", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    pool = str(workspace["out"] / "masked.dev.jsonl")
    rewrite_config(workspace, lambda c: c.update(search_token="<tool>"))
    rewrite_config(
        workspace,
        lambda c: c["prompt"].update(style="fewshot-balanced", pool_path=pool, fewshot_k=2),
    )
    with serve(Script()) as fewshot_endpoint:
        argv = ("infer", "--split", "dev", "--endpoint-url", fewshot_endpoint.url)
        assert run(workspace, *argv) == EXIT_DATA
        assert fewshot_endpoint.request_log == []
    err = capsys.readouterr().err
    assert pool in err and "'<search>'" in err and "'<tool>'" in err


def test_infer_with_a_pool_of_the_earlier_manifest_layout_exits_data(workspace, capsys):
    for stage in (("ingest",), ("infer", "--split", "dev"), ("label", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    pool = workspace["out"] / "masked.dev.jsonl"
    manifest_path = workspace["out"] / "masked.dev.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    # How earlier versions wrote it: the labeling fields nested under "provenance".
    nested = ("search_token", "normalization_profile", "normalization_profile_hash")
    manifest["provenance"] = {key: manifest.pop(key) for key in nested}
    manifest["provenance"].update(model_tag="mock-small", corpus="corpus.dev")
    manifest_path.write_text(json.dumps(manifest))
    rewrite_config(
        workspace,
        lambda c: c["prompt"].update(style="fewshot-balanced", pool_path=str(pool), fewshot_k=2),
    )
    with serve(Script()) as fewshot_endpoint:
        argv = ("infer", "--split", "dev", "--endpoint-url", fewshot_endpoint.url)
        assert run(workspace, *argv) == EXIT_DATA
        assert fewshot_endpoint.request_log == []
    assert f"malformed masked dataset manifest in {manifest_path}" in capsys.readouterr().err


def test_infer_with_a_pool_whose_manifest_holds_a_model_tag_uses_the_pool(workspace):
    for stage in (("ingest",), ("infer", "--split", "dev"), ("label", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    pool = workspace["out"] / "masked.dev.jsonl"
    manifest_path = workspace["out"] / "masked.dev.jsonl.manifest.json"
    # Earlier versions also wrote the predictions' model tag here.
    manifest = {**json.loads(manifest_path.read_text()), "model_tag": "mock-small"}
    manifest_path.write_text(json.dumps(manifest))
    rewrite_config(
        workspace,
        lambda c: c["prompt"].update(style="fewshot-balanced", pool_path=str(pool), fewshot_k=2),
    )
    with serve(Script()) as fewshot_endpoint:
        argv = ("infer", "--split", "dev", "--endpoint-url", fewshot_endpoint.url)
        assert run(workspace, *argv) == EXIT_OK
        prompts = fewshot_endpoint.request_log
    # Two demonstrations, then the question; misses are sent in any order.
    assert all(prompt.count("Q: ") == 3 for prompt in prompts)
    asked = sorted(prompt.rpartition("Q: ")[2] for prompt in prompts)
    assert asked == sorted(f"{question}\nA:" for question, *_ in DEV_ROWS)


def test_warm_infer_never_loads_the_http_stack(workspace):
    rewrite_config(workspace, lambda c: c.update(max_in_flight=4))
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    calls = len(workspace["service"].request_log)
    probe = (
        "import sys\n"
        "from answer_or_search.cli import main\n"
        f"code = main(['infer', '-c', {str(workspace['config'])!r}, '--split', 'dev'])\n"
        "print(code, 'http.client' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(answer_or_search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False False"
    assert len(workspace["service"].request_log) == calls


def test_calibrate_and_histogram_never_load_numpy(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    config = str(workspace["config"])
    probe = (
        "import sys\n"
        "from answer_or_search.cli import main\n"
        f"codes = [main(['calibrate', '-c', {config!r}, '--split', 'dev']),\n"
        f"         main(['histogram', '-c', {config!r}, '--split', 'dev', '--edges', '0', '1', '4'])]\n"
        "print(*codes, 'numpy' in sys.modules)\n"
    )
    src = str(Path(answer_or_search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} {EXIT_OK} False"


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------


def test_label_reports_mask_rate(workspace, capsys):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    assert run(workspace, "label", "--split", "dev") == EXIT_OK
    out = capsys.readouterr().out
    assert "mask_rate=50.0%" in out  # 3 of 6 predictions are wrong
    masked = (workspace["out"] / "masked.dev.jsonl").read_text().splitlines()
    assert len(masked) == 6
    assert json.loads(masked[2])["target"] == "<search>"
    # The profile is written once, at the top level, beside the config hash.
    manifest = json.loads((workspace["out"] / "masked.dev.jsonl.manifest.json").read_text())
    assert "provenance" not in manifest
    assert manifest["config_hash"] == load_config(workspace["config"]).config_hash
    assert manifest["normalization_profile_hash"]
    assert manifest["search_token"] == "<search>" and "model_tag" not in manifest


def test_label_manifest_carries_the_provenance_of_the_predictions_manifest(workspace):
    for stage in (("ingest",), ("infer", "--split", "dev"), ("label", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    read = lambda name: json.loads((workspace["out"] / f"{name}.manifest.json").read_text())
    masked, predictions = read("masked.dev.jsonl"), read("predictions.dev.jsonl")
    assert "provenance" not in masked
    shared = ("config_hash", "normalization_profile", "normalization_profile_hash", "split")
    assert {key: masked[key] for key in shared} == {key: predictions[key] for key in shared}


def test_stages_on_a_predictions_file_of_the_earlier_layout_write_the_same_bytes(workspace):
    threshold = str(workspace["out"] / "threshold.json")
    stages = [
        ("label", "--split", "dev"),
        ("calibrate", "--split", "dev"),
        ("evaluate", "--split", "dev", "--threshold", threshold),
        ("histogram", "--split", "dev", "--edges", "0", "1", "10"),
    ]
    for stage in (("ingest",), ("infer", "--split", "dev"), *stages):
        assert run(workspace, *stage) == EXIT_OK
    predictions = workspace["out"] / "predictions.dev.jsonl"
    first = _out_files(workspace)
    # Earlier versions repeated the run's model tag and prompt style in every row.
    earlier = {"model_tag": "mock-small", "prompt_style": "zeroshot-qa"}
    rows = [json.loads(line) for line in predictions.read_text().splitlines()]
    predictions.write_text("".join(json.dumps({**row, **earlier}) + "\n" for row in rows))
    for stage in stages:
        assert run(workspace, *stage) == EXIT_OK
    second = _out_files(workspace)
    assert second.pop(predictions.name) != first.pop(predictions.name)
    assert second == first


def test_label_refuses_a_search_token_that_normalizes_to_a_gold_answer(workspace, capsys):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    capsys.readouterr()
    # "<Jupiter>" normalizes to "jupiter", the gold answer of d3.
    rewrite_config(workspace, lambda c: c.update(search_token="<Jupiter>"))
    assert run(workspace, "label", "--split", "dev") == EXIT_DATA
    assert "'d3'" in capsys.readouterr().err
    assert not (workspace["out"] / "masked.dev.jsonl").exists()
    assert not (workspace["out"] / "masked.dev.jsonl.manifest.json").exists()


DUPLICATE_STAGES = {
    "label": ("label",),
    "calibrate": ("calibrate",),
    "evaluate": ("evaluate", "--threshold", "THRESHOLD", "--base"),
    "histogram": ("histogram", "--edges", "0", "1", "4"),
}


@pytest.mark.parametrize("argv", DUPLICATE_STAGES.values(), ids=DUPLICATE_STAGES.keys())
def test_a_predictions_file_with_a_repeated_record_exits_data_in_every_stage(
    workspace, capsys, argv
):
    for stage in (("ingest",), ("infer", "--split", "dev"), ("calibrate", "--split", "dev")):
        assert run(workspace, *stage) == EXIT_OK
    rows = (workspace["out"] / "predictions.dev.jsonl").read_text().splitlines(keepends=True)
    repeated = workspace["tmp"] / "repeated.jsonl"
    repeated.write_text("".join(rows + rows[1:2]))
    capsys.readouterr()
    threshold = str(workspace["out"] / "threshold.json")
    argv = [threshold if arg == "THRESHOLD" else arg for arg in argv]
    if argv[-1] != "--base":
        argv.append("--predictions")
    assert run(workspace, *argv, str(repeated), "--split", "dev") == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{repeated} at line 7: duplicate prediction for record 'd2'" in err


def test_label_empty_predictions_warns(workspace, capsys):
    run(workspace, "ingest")
    empty = workspace["tmp"] / "empty.jsonl"
    empty.write_text("")
    assert run(workspace, "label", "--split", "dev", "--predictions", str(empty)) == EXIT_OK
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "total=0" in captured.out


# ---------------------------------------------------------------------------
# calibrate / evaluate
# ---------------------------------------------------------------------------


def test_calibrate_writes_threshold_manifest(workspace, capsys):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    assert run(workspace, "calibrate", "--split", "dev") == EXIT_OK
    threshold = json.loads((workspace["out"] / "threshold.json").read_text())
    assert threshold["strategy"] == "max-f1"
    assert 1.3 < threshold["tau"] < 4.4  # between correct and wrong perplexities
    manifest = json.loads((workspace["out"] / "threshold.json.manifest.json").read_text())
    assert manifest["records"] == 1 and manifest["split"] == "dev"
    assert manifest["config_hash"] == load_config(workspace["config"]).config_hash


def test_an_output_that_cannot_be_written_exits_data_naming_it(workspace, capsys):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    target = workspace["out"] / "threshold.json"
    target.mkdir()
    assert run(workspace, "calibrate", "--split", "dev") == EXIT_DATA
    assert str(target) in capsys.readouterr().err
    assert list(workspace["out"].glob("*.tmp")) == []


def test_evaluate_identity_policy(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    adapted = workspace["tmp"] / "adapted.jsonl"
    with adapted.open("w") as fh:
        for line in (workspace["out"] / "predictions.dev.jsonl").read_text().splitlines():
            pred = json.loads(line)
            fh.write(json.dumps({"id": pred["id"], "output": pred["text"]}) + "\n")
    assert run(workspace, "evaluate", "--split", "dev", "--adapted", str(adapted)) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    assert report.s == 0.0
    assert report.retention_c == 1.0
    assert report.retention_h == 1.0
    assert report.budget_cost == pytest.approx(report.base_h)


def test_evaluate_adapted_null_id_names_file_and_line(workspace, capsys):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    adapted = workspace["tmp"] / "adapted.jsonl"
    adapted.write_text(json.dumps({"id": None, "output": "<search>"}) + "\n")
    assert run(workspace, "evaluate", "--split", "dev", "--adapted", str(adapted)) == EXIT_DATA
    assert f"{adapted} at line 1: record id must be" in capsys.readouterr().err


def test_evaluate_always_search_policy(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    adapted = workspace["tmp"] / "adapted.jsonl"
    with adapted.open("w") as fh:
        for i in range(1, 7):
            fh.write(json.dumps({"id": f"d{i}", "output": "<search>"}) + "\n")
    assert run(workspace, "evaluate", "--split", "dev", "--adapted", str(adapted)) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    assert (report.c, report.h, report.s) == (0.0, 0.0, 1.0)
    assert report.budget_cost == pytest.approx(1.0)


def test_evaluate_hand_computed_confusion(workspace):
    # base: d1 C, d2 C, d3 H, d4 H; adapted: keep, search, search, hallucinate
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    base = workspace["tmp"] / "base4.jsonl"
    preds = [json.loads(l) for l in (workspace["out"] / "predictions.dev.jsonl").read_text().splitlines()]
    with base.open("w") as fh:
        for pred in preds[:4]:
            fh.write(json.dumps(pred) + "\n")
    adapted = workspace["tmp"] / "adapted4.jsonl"
    outputs = [preds[0]["text"], "<search>", "<search>", "still wrong"]
    with adapted.open("w") as fh:
        for pred, output in zip(preds[:4], outputs):
            fh.write(json.dumps({"id": pred["id"], "output": output}) + "\n")
    assert run(
        workspace, "evaluate", "--split", "dev",
        "--base", str(base), "--adapted", str(adapted),
    ) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    assert report.confusion.to_dict() == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
    assert report.f1 == pytest.approx(0.5)
    assert report.retention_c == 0.5
    assert report.retention_h == 0.5


def test_evaluate_with_threshold_routes_by_perplexity(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    run(workspace, "calibrate", "--split", "dev")
    assert run(
        workspace, "evaluate", "--split", "dev",
        "--threshold", str(workspace["out"] / "threshold.json"),
    ) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    # separable fixture: all correct answers kept, all wrong ones searched
    assert report.c == pytest.approx(0.5)
    assert report.h == 0.0
    assert report.s == pytest.approx(0.5)
    assert report.f1 == 1.0
    # structural guarantee of threshold routing: FN = base C - adapted C
    assert report.confusion.fn == round((report.base_c - report.c) * 6)


def test_evaluate_with_threshold_searches_an_infinite_perplexity(workspace):
    from answer_or_search.ppl_threshold import PplThreshold, save_threshold

    # "Paris" is correct, but a log-prob of -1000 gives it perplexity +inf.
    script = Script()
    for question, _, answer, logprob in DEV_ROWS:
        script.add_question(question, answer, (-1000.0 if answer == "Paris" else logprob,))
    assert run(workspace, "ingest") == EXIT_OK
    with serve(script) as endpoint:
        assert run(workspace, "infer", "--split", "dev", "--endpoint-url", endpoint.url) == EXIT_OK
    threshold = workspace["out"] / "threshold.json"
    save_threshold(PplThreshold(tau=2.0, calibration="max-f1"), threshold)
    assert run(workspace, "evaluate", "--split", "dev", "--threshold", str(threshold)) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    # the three wrong answers and the infinite-perplexity "Paris" are searched
    assert report.confusion.to_dict() == {"tp": 2, "fp": 0, "tn": 3, "fn": 1}
    assert report.s == pytest.approx(4 / 6)


def test_a_zero_token_answer_is_cached_and_searched_at_a_finite_tau(workspace):
    from answer_or_search.ppl_threshold import PplThreshold, save_threshold

    # The endpoint answers the "Paris" question with no token at all, as a
    # greedy decode that stops at once on EOS does.
    script = Script()
    for question, _, answer, logprob in DEV_ROWS:
        if answer == "Paris":
            script.add_question(question, "", ())
        else:
            script.add_question(question, answer, (logprob,))
    assert run(workspace, "ingest") == EXIT_OK
    predictions = workspace["out"] / "predictions.dev.jsonl"
    with serve(script) as endpoint:
        for _ in range(2):
            argv = ["infer", "--split", "dev", "--endpoint-url", endpoint.url]
            assert run(workspace, *argv) == EXIT_OK
            row = json.loads(predictions.read_text().splitlines()[0])
            assert row == {"id": "d1", "text": "", "token_logprobs": [], "perplexity": "+inf"}
        # The rerun is served from the cache.
        assert len(endpoint.request_log) == len(DEV_ROWS)
    threshold = workspace["out"] / "threshold.json"
    save_threshold(PplThreshold(tau=2.0, calibration="max-f1"), threshold)
    assert run(workspace, "evaluate", "--split", "dev", "--threshold", str(threshold)) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    # The empty answer is wrong and searched, with the three other wrong answers.
    assert report.confusion.to_dict() == {"tp": 2, "fp": 0, "tn": 4, "fn": 0}


def test_evaluate_requires_exactly_one_policy_source(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    assert run(workspace, "evaluate", "--split", "dev") == EXIT_CONFIG


# ---------------------------------------------------------------------------
# tradeoff / histogram
# ---------------------------------------------------------------------------


def _write_lora_report(workspace) -> Path:
    from answer_or_search.evaluation import report_from_rates, write_report

    report = report_from_rates(27.3, 72.7, 21.3, 16.6, 62.0)
    path = workspace["tmp"] / "lora_report.json"
    write_report(report, path)
    return path


def test_tradeoff_default_ratios_give_eleven_rows(workspace):
    report_path = _write_lora_report(workspace)
    assert run(workspace, "tradeoff", "--report", str(report_path)) == EXIT_OK
    header, *rows = (workspace["out"] / "tradeoff.csv").read_text().splitlines()
    assert header == "ratio,c,h"
    assert len(rows) == 11
    assert rows[0].startswith("0,21.3,78.6")
    assert rows[-1].startswith("1,83.3,16.6")


def test_tradeoff_single_ratio_zero(workspace, capsys):
    report_path = _write_lora_report(workspace)
    assert run(workspace, "tradeoff", "--report", str(report_path), "--ratios", "0") == EXIT_OK
    assert "c=21.3 h=78.6" in capsys.readouterr().out


def test_tradeoff_rejects_ratio_above_one(workspace):
    report_path = _write_lora_report(workspace)
    assert run(workspace, "tradeoff", "--report", str(report_path), "--ratios", "1.2") == EXIT_DATA


def test_histogram_splits_classes(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    assert run(
        workspace, "histogram", "--split", "dev",
        "--edges", "0.0", "1.0", "4.0", "--transform", "log",
    ) == EXIT_OK
    header, *rows = (workspace["out"] / "histogram.csv").read_text().splitlines()
    assert header == "class,bin_lo,bin_hi,count"
    # 3 correct perplexities (ln ~0.05..0.2) and 3 wrong (ln 1.5..3.0) in range
    assert "C,0,1,3" in rows
    assert "H,1,4,3" in rows


# ---------------------------------------------------------------------------
# malformed inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, flag", [("label", "--predictions"), ("tradeoff", "--report")])
def test_input_path_that_names_a_directory_exits_data(workspace, capsys, command, flag):
    run(workspace, "ingest")
    directory = workspace["tmp"] / "a-directory"
    directory.mkdir()
    capsys.readouterr()
    assert run(workspace, command, flag, str(directory)) == EXIT_DATA
    assert f"{directory} cannot be read" in capsys.readouterr().err

# (command, flag, file content); flag None truncates infer's own predictions
# file below the record count in its manifest.
MALFORMED_INPUTS = {
    "tradeoff-report-not-json": ("tradeoff", "--report", "not json\n"),
    "tradeoff-report-empty-object": ("tradeoff", "--report", "{}\n"),
    "label-predictions-wrong-type": ("label", "--predictions", "[1,2]\n"),
    "evaluate-threshold-missing-fields": ("evaluate", "--threshold", '{"tau": 1.0}\n'),
    "evaluate-adapted-wrong-type": ("evaluate", "--adapted", '["a"]\n'),
    "evaluate-adapted-output-not-a-string": ("evaluate", "--adapted", '{"id": "d1", "output": 5}\n'),
    "evaluate-threshold-bool-tau": (
        "evaluate", "--threshold", '{"tau": true, "strategy": "max-f1", "fitted_on": "t"}\n'
    ),
    "label-predictions-truncated": ("label", None, None),
}


@pytest.mark.parametrize(
    "command, flag, content", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys()
)
def test_malformed_input_exits_data(workspace, capsys, command, flag, content):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    if flag is None:
        path = workspace["out"] / "predictions.dev.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))
        argv = [command]
    else:
        path = workspace["tmp"] / "malformed.json"
        path.write_text(content)
        argv = [command, flag, str(path)]
    capsys.readouterr()
    assert run(workspace, *argv) == EXIT_DATA
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, name",
    [("evaluate", "--threshold", "threshold.json"), ("tradeoff", "--report", "eval_report.json")],
    ids=["evaluate-threshold", "tradeoff-report"],
)
def test_a_document_whose_manifest_counts_other_than_one_record_exits_data(
    workspace, capsys, command, flag, name
):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    run(workspace, "calibrate", "--split", "dev")
    threshold = workspace["out"] / "threshold.json"
    assert run(workspace, "evaluate", "--threshold", str(threshold)) == EXIT_OK
    path = workspace["out"] / name
    by_hand = workspace["tmp"] / name
    by_hand.write_bytes(path.read_bytes())
    manifest = path.with_name(f"{name}.manifest.json")
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "records": 2}))
    capsys.readouterr()
    assert run(workspace, command, flag, str(path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and str(manifest) in err
    # A file supplied by hand, with no sidecar, is read unchecked.
    assert run(workspace, command, flag, str(by_hand)) == EXIT_OK


# A second predictions row that breaks the response contract or a field's type.
CONTRACT_BREAKING_ROWS = {
    "text-not-a-string": {"text": 5},
    "no-tokens": {"token_logprobs": [], "perplexity": 1.0},
    "bool-logprob": {"token_logprobs": [False], "perplexity": 1.0},
    "bool-perplexity": {"token_logprobs": [0.0], "perplexity": True},
}


@pytest.mark.parametrize(
    "change", CONTRACT_BREAKING_ROWS.values(), ids=CONTRACT_BREAKING_ROWS.keys()
)
def test_label_predictions_row_that_breaks_the_contract_names_file_and_line(
    workspace, capsys, change
):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    rows = (workspace["out"] / "predictions.dev.jsonl").read_text().splitlines()
    rows[1] = json.dumps({**json.loads(rows[1]), **change})
    path = workspace["tmp"] / "hand.jsonl"
    path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert run(workspace, "label", "--predictions", str(path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err
    assert "line 2" in err


# ---------------------------------------------------------------------------
# idempotence and provenance
# ---------------------------------------------------------------------------


def _run_every_stage(workspace) -> None:
    out = workspace["out"]
    for argv in (
        ["ingest"],
        ["infer", "--split", "dev"],
        ["label", "--split", "dev"],
        ["calibrate", "--split", "dev"],
        ["evaluate", "--split", "dev", "--threshold", str(out / "threshold.json")],
        ["tradeoff", "--report", str(out / "eval_report.json")],
        ["histogram", "--split", "dev", "--edges", "0.0", "1.0", "4.0"],
    ):
        assert run(workspace, *argv) == EXIT_OK, argv


def test_full_pipeline_gives_every_output_a_sidecar_manifest(workspace):
    _run_every_stage(workspace)
    out = workspace["out"]
    config_hash = load_config(workspace["config"]).config_hash
    manifests = {path for path in out.iterdir() if path.name.endswith(".manifest.json")}
    data = sorted(set(out.iterdir()) - manifests)
    assert [path.name for path in data] == [
        "corpus.dev.jsonl", "eval_report.json", "eval_report.txt", "histogram.csv",
        "masked.dev.jsonl", "predictions.dev.jsonl", "threshold.json", "tradeoff.csv",
    ]
    assert manifests == {path.with_name(path.name + ".manifest.json") for path in data}
    for path in data:
        manifest = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        lines = path.read_text().splitlines()
        # A JSONL line or a CSV row under the header is a record; a document is one.
        records = {".jsonl": len(lines), ".csv": len(lines) - 1}.get(path.suffix, 1)
        assert manifest["records"] == records, path.name
        assert manifest["config_hash"] == config_hash, path.name
        assert manifest["normalization_profile_hash"], path.name
        assert manifest.get("split", "dev") == "dev", path.name
    # Data files hold only data.
    embedded = {"config_hash", "normalization_profile", "normalization_profile_hash", "fitted_on"}
    for name in ("threshold.json", "eval_report.json"):
        assert not embedded & set(json.loads((out / name).read_text())), name
    for name in ("tradeoff.csv", "histogram.csv", "eval_report.txt"):
        assert "config_hash" not in (out / name).read_text(), name
    tradeoff = json.loads((out / "tradeoff.csv.manifest.json").read_text())
    assert tradeoff["source"] == str(out / "eval_report.json")


def test_a_threshold_and_report_of_the_earlier_layout_give_the_same_outputs(workspace):
    # Earlier versions embedded their provenance in threshold.json and
    # eval_report.json; those keys are ignored where the files are read.
    _run_every_stage(workspace)
    out, tmp = workspace["out"], workspace["tmp"]
    first = {name: (out / name).read_bytes() for name in ("eval_report.json", "tradeoff.csv")}
    provenance = {
        **load_config(workspace["config"]).provenance,
        "fitted_on": "model=mock-small corpus=corpus.dev split=dev",
    }
    for name in ("threshold.json", "eval_report.json"):
        (tmp / name).write_text(json.dumps({**json.loads((out / name).read_text()), **provenance}))
    evaluate = ["evaluate", "--split", "dev", "--threshold", str(tmp / "threshold.json")]
    assert run(workspace, *evaluate) == EXIT_OK
    assert run(workspace, "tradeoff", "--report", str(tmp / "eval_report.json")) == EXIT_OK
    assert {name: (out / name).read_bytes() for name in first} == first


#: (key, new value, whether the hash stays): the six operational keys, a
#: spelled-out default and an unknown key, then one result key per kind.
HASH_CASES = [
    ("endpoint.url", "http://127.0.0.1:9", True),
    ("endpoint.timeout", 5.0, True),
    ("endpoint.max_retries", 0, True),
    ("max_in_flight", 1, True),
    ("cache_dir", "elsewhere", True),
    ("output_dir", "elsewhere", True),
    ("prompt.fewshot_k", 16, True),
    ("not_a_known_key", 1, True),
    ("endpoint.model_tag", "mock-large", False),
    ("endpoint.max_new_tokens", 7, False),
    ("prompt.template", "Q: {q}", False),
    ("prompt.style", "instruct-idk", False),
    ("search_token", "<tool>", False),
    ("normalization.lowercase", False, False),
    ("ppl", {"strategy": "target-search-rate", "target_rate": 0.5}, False),
    ("lambda", 2.0, False),
]


@pytest.mark.parametrize("key, value, same_hash", HASH_CASES, ids=[c[0] for c in HASH_CASES])
def test_config_hash_changes_only_with_a_result_key(workspace, key, value, same_hash):
    before = load_config(workspace["config"]).config_hash
    rewrite_config(workspace, lambda c: set_key(c, key, value))
    assert (load_config(workspace["config"]).config_hash == before) is same_hash


@pytest.mark.parametrize("key", ["output_dir", "cache_dir"])
def test_config_hash_ignores_directory_overrides(workspace, key):
    before = load_config(workspace["config"]).config_hash
    assert load_config(workspace["config"], {key: "elsewhere"}).config_hash == before


#: The keys that cannot change an output byte, in the order spelled_out gives them.
UNHASHED = (
    "endpoint.url", "endpoint.max_retries", "endpoint.timeout", "max_in_flight", "cache_dir",
    "output_dir",
)


def leaves(doc: dict, prefix: str = "") -> dict:
    """Each value under ``doc`` that is not a mapping, by its dotted key."""
    found = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            found.update(leaves(value, f"{prefix}{key}."))
        else:
            found[f"{prefix}{key}"] = value
    return found


#: Every hashed key away from its default. The corpus path is relative,
#: because the path is hashed.
AWAY_FROM_DEFAULTS = {
    "corpus": {"train": {"path": "data/train.tsv", "format": "tsv-pairs"}},
    "endpoint": {"model_tag": "pinned-model", "max_new_tokens": 7},
    "prompt": {
        "style": "fewshot-balanced",
        "template": "Q: {q}\nA:",
        "fewshot_k": 4,
        "seed": 5,
        "pool_path": "out/masked.train.jsonl",
    },
    "ppl": {"strategy": "target-search-rate", "target_rate": 0.25},
    "lambda": 2.5,
    "search_token": "<tool>",
    "normalization": {
        "lowercase": False,
        "strip_punctuation": False,
        "stopwords": ["the"],
        "collapse_whitespace": False,
        "unicode_fold": False,
    },
}


def test_config_hash_of_the_demo_config_is_pinned(tmp_path, monkeypatch):
    # The hash every output of demos/end_to_end.py carries; it moves only if
    # the demo's config or the way a config is hashed changes.
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "demos"))
    demo = importlib.import_module("end_to_end")
    dev_file, _ = demo.build_workspace(Path("demo_run"))
    config = demo.write_config(Path("demo_run"), dev_file, "http://127.0.0.1:9")
    assert load_config(config).config_hash == (
        "d3517db0e9586f7d332f106086c9edf1fea6aef749d563857a639615b6b0a2b3"
    )


def test_config_hash_with_every_hashed_key_set_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "train.tsv").write_text("q?\ta\n")
    (tmp_path / "config.yaml").write_text(yaml.safe_dump(AWAY_FROM_DEFAULTS))
    minimal = {"corpus": {"dev": {"path": "data/train.tsv"}}}
    (tmp_path / "minimal.yaml").write_text(yaml.safe_dump(minimal))
    loaded, defaults = load_config("config.yaml"), load_config("minimal.yaml")
    assert loaded.config_hash == "26b5e873752eeca441b61a84b138c5c0a8e5d399ce5e58a3a3a3820d85949671"
    # Every hashed key moves (one left at its default pins nothing), the
    # corpus by its split, path and format.
    moved, at_default = leaves(spelled_out(loaded)), leaves(spelled_out(defaults))
    assert set(moved) - set(at_default) == {"corpus.train.path", "corpus.train.format"}
    assert [key for key in at_default if moved.get(key) == at_default[key]] == list(UNHASHED)


#: Each flag that overrides a config key: its dotted key, as its dest, and its type.
OVERRIDE_FLAGS = {
    "--output-dir": ("output_dir", str),
    "--cache-dir": ("cache_dir", str),
    "--endpoint-url": ("endpoint.url", str),
    "--model-tag": ("endpoint.model_tag", str),
    "--lambda": ("lambda", float),
}


def test_the_parser_offers_exactly_the_override_flags():
    parser = build_parser()
    base = ["ingest", "-c", "config.yaml"]
    dests = {key for key, _ in OVERRIDE_FLAGS.values()}
    assert set(vars(parser.parse_args(base))) == {"command", "config", "run", *dests}
    for flag, (key, kind) in OVERRIDE_FLAGS.items():
        value = getattr(parser.parse_args([*base, flag, "2"]), key)
        assert type(value) is kind and value == kind("2"), flag


@pytest.mark.parametrize(
    "flag, written", [("--output-dir", "predictions.dev.jsonl"), ("--cache-dir", CACHE_FILE)]
)
def test_a_directory_flag_moves_what_is_written_there(workspace, flag, written):
    elsewhere = workspace["tmp"] / "elsewhere"
    for argv in (("ingest",), ("infer", "--split", "dev")):
        assert run(workspace, *argv, flag, str(elsewhere)) == EXIT_OK
    assert (elsewhere / written).is_file()
    key, _ = OVERRIDE_FLAGS[flag]
    assert not Path(workspace["config_dict"][key]).exists()


def test_model_tag_flag_sets_the_tag_and_the_hash(workspace):
    before = load_config(workspace["config"]).config_hash
    for argv in (("ingest",), ("infer", "--split", "dev")):
        assert run(workspace, *argv, "--model-tag", "mock-large") == EXIT_OK
    manifest = json.loads((workspace["out"] / "predictions.dev.jsonl.manifest.json").read_text())
    rewrite_config(workspace, lambda c: c["endpoint"].update(model_tag="mock-large"))
    assert manifest["model_tag"] == "mock-large"
    assert manifest["config_hash"] == load_config(workspace["config"]).config_hash != before


def test_lambda_flag_sets_the_reports_lambda(workspace):
    for argv in (("ingest",), ("infer", "--split", "dev"), ("calibrate", "--split", "dev")):
        assert run(workspace, *argv) == EXIT_OK
    threshold = str(workspace["out"] / "threshold.json")
    evaluate = ("evaluate", "--split", "dev", "--threshold", threshold, "--lambda", "2.5")
    assert run(workspace, *evaluate) == EXIT_OK
    assert read_report(workspace["out"] / "eval_report.json").lam == 2.5


def test_config_rejects_odd_fewshot_k(workspace):
    rewrite_config(workspace, lambda c: c["prompt"].update(fewshot_k=7))
    assert run(workspace, "ingest") == EXIT_CONFIG


def test_config_rejects_non_numeric_value(workspace, capsys):
    rewrite_config(workspace, lambda c: c["prompt"].update(fewshot_k="two"))
    assert run(workspace, "ingest") == EXIT_CONFIG
    assert "fewshot_k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("lambda", 0.5),
        ("lambda", float("nan")),
        ("endpoint.max_retries", -1),
        ("endpoint.timeout", 0),
        ("endpoint.timeout", float("inf")),
        ("ppl.target_rate", 1.5),
        ("search_token", 5),
        ("normalization.stopwords", 5),
        ("normalization", 5),
        ("endpoint", 5),
        ("prompt", "x"),
        ("cache_dir", 5),
        ("output_dir", [1]),
        ("search_token", ""),
        ("corpus.dev.format", "xml"),
        ("max_in_flight", 0),
        ("max_in_flight", True),
        ("normalization.lowercase", "no"),
        ("prompt.fewshot_k", 2.5),
        ("prompt.template", 5),
        ("endpoint.max_new_tokens", 0),
        ("prompt.pool_path", 5),
        ("endpoint.timeout", "30"),
        ("lambda", 10**400),
        ("lambda", float("inf")),
        ("corpus.dev.path", "."),
    ],
    ids=[
        "lambda-below-one",
        "lambda-nan",
        "max-retries-negative",
        "timeout-zero",
        "timeout-infinite",
        "target-rate-above-one",
        "search-token-number",
        "stopwords-number",
        "normalization-number",
        "endpoint-number",
        "prompt-string",
        "cache-dir-number",
        "output-dir-list",
        "search-token-empty",
        "corpus-format-unknown",
        "max-in-flight-zero",
        "max-in-flight-bool",
        "lowercase-quoted",
        "fewshot-k-float",
        "template-number",
        "max-new-tokens-zero",
        "pool-path-number",
        "timeout-quoted-number",
        "lambda-beyond-float-range",
        "lambda-infinite",
        "corpus-path-is-a-directory",
    ],
)
def test_config_rejects_out_of_range_values(workspace, capsys, key, value):
    """Every bad value stops ``ingest`` with exit 2 and names its dotted key."""
    rewrite_config(workspace, lambda c: set_key(c, key, value))
    assert run(workspace, "ingest") == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_config_output_dir_that_cannot_be_created_exits_config(workspace, capsys):
    blocker = workspace["tmp"] / "blocker"
    blocker.write_text("a file, not a directory\n")
    rewrite_config(workspace, lambda c: c.update(output_dir=str(blocker / "out")))
    assert run(workspace, "ingest") == EXIT_CONFIG
    assert "output_dir" in capsys.readouterr().err


def test_run_aborted_by_an_error_outside_the_taxonomy_exits_data():
    assert RunAbortedError("d1", OSError("disk full"), ["d0"]).exit_code == EXIT_DATA


#: Every key ``load_config`` reads; the corpus path itself stays valid.
CONFIG_KEYS = (
    "lambda",
    "max_in_flight",
    "search_token",
    "cache_dir",
    "output_dir",
    "endpoint",
    "endpoint.url",
    "endpoint.model_tag",
    "endpoint.max_new_tokens",
    "endpoint.max_retries",
    "endpoint.timeout",
    "prompt",
    "prompt.style",
    "prompt.template",
    "prompt.fewshot_k",
    "prompt.seed",
    "prompt.pool_path",
    "ppl",
    "ppl.strategy",
    "ppl.target_rate",
    "normalization",
    "normalization.lowercase",
    "normalization.strip_punctuation",
    "normalization.stopwords",
    "normalization.collapse_whitespace",
    "normalization.unicode_fold",
    "corpus.dev",
    "corpus.dev.format",
)

YAML_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["zeroshot-qa", "target-search-rate", "tsv-pairs", "{q}", " ", "30", 10**400])
)
YAML_VALUES = st.recursive(
    YAML_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=3),
    max_leaves=6,
)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), YAML_VALUES, max_size=4))
def test_load_config_gives_a_config_or_a_config_error(tmp_path, values):
    dev_file = tmp_path / "dev.jsonl"
    if not dev_file.exists():
        dev_file.write_text('{"id": "d1", "question": "q?", "answers": ["a"]}\n')
    config = {"corpus": {"dev": {"path": str(dev_file)}}}
    # Reverse order sets a section before a key inside it can replace it.
    for key in sorted(values, reverse=True):
        set_key(config, key, values[key])
    # A fresh file per example: truncating an existing file is slow on some
    # file systems.
    path = tmp_path / f"config-{len(list(tmp_path.iterdir()))}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False))
    try:
        loaded = load_config(path)
    except ConfigError:
        return
    assert isinstance(loaded, PipelineConfig)
    # type(), not isinstance(): a bool field would pass isinstance(value, int).
    assert type(loaded.max_in_flight) is int and loaded.max_in_flight >= 1
    assert type(loaded.max_new_tokens) is int and loaded.max_new_tokens >= 1
    assert type(loaded.fewshot_k) is int and type(loaded.seed) is int
    assert type(loaded.lam) is float and type(loaded.timeout) is float
    assert type(loaded.profile.lowercase) is bool and type(loaded.profile.unicode_fold) is bool
    assert all(type(word) is str for word in loaded.profile.stopwords)
    assert isinstance(loaded.template, str) and loaded.token.literal.strip()
    # Every default spelled out: the same config, and so the same hash.
    spelled = path.with_name(f"spelled-{path.name}")
    spelled.write_text(yaml.safe_dump(spelled_out(loaded)))
    reloaded = load_config(spelled)
    assert reloaded == loaded and reloaded.config_hash == loaded.config_hash


def spelled_out(config: PipelineConfig) -> dict:
    """A config file giving every key ``load_config`` reads the value ``config`` holds."""
    profile = config.profile
    return {
        "corpus": config.corpus,
        "endpoint": {
            "url": config.endpoint_url,
            "model_tag": config.model_tag,
            "max_new_tokens": config.max_new_tokens,
            "max_retries": config.max_retries,
            "timeout": config.timeout,
        },
        "max_in_flight": config.max_in_flight,
        "normalization": {
            "lowercase": profile.lowercase,
            "strip_punctuation": profile.strip_punctuation,
            "stopwords": list(profile.stopwords),
            "collapse_whitespace": profile.collapse_whitespace,
            "unicode_fold": profile.unicode_fold,
        },
        "search_token": config.token.literal,
        "prompt": {
            "style": config.prompt_style,
            "template": config.template,
            "fewshot_k": config.fewshot_k,
            "seed": config.seed,
            "pool_path": config.pool_path,
        },
        "ppl": {"strategy": config.ppl_strategy, "target_rate": config.ppl_target_rate},
        "lambda": config.lam,
        "cache_dir": str(config.cache_dir),
        "output_dir": str(config.output_dir),
    }


def test_readme_config_block_matches_the_declared_keys():
    """README's config block names every key ``load_config`` reads, and marks
    (not hashed) exactly the keys ``config_hash`` leaves out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    declared = {
        f.metadata["get"][0]: f.metadata["hashed"] for f in fields(PipelineConfig) if f.metadata
    }
    normalization = {key for key in CONFIG_KEYS if key.startswith("normalization.")}
    assert set(leaves(yaml.safe_load(block))) == {
        *declared, *normalization, "corpus.dev.path", "corpus.dev.format"
    }
    # Each key's dotted path from the indentation of its line.
    marked, path = set(), []
    for line in block.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        depth = (len(line) - len(line.lstrip())) // 2
        path[depth:] = [line.strip().split(":", 1)[0]]
        if "(not hashed)" in line:
            marked.add(".".join(path))
    assert marked == {key for key, hashed in declared.items() if not hashed} == set(UNHASHED)

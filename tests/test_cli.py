from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import answer_or_search
from answer_or_search.cli import PipelineConfig, load_config, main
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
from answer_or_search.inference import CACHE_FILE, ResponseCache
from answer_or_search.mock_service import Script, serve
from answer_or_search.predictions import DEFAULT_MAX_NEW_TOKENS

from conftest import cache_rows, stub_post, write_cache_row, write_old_layout_cache

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
    assert first["model_tag"] == "mock-small"
    assert first["prompt_style"] == "zeroshot-qa"


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
        assert progress["done"] == ["d1"]
        assert progress["failed"] == "d2"
        # The aborted run committed the response it fetched and closed the
        # cache: no write-ahead log is left behind.
        assert len(cache_rows(workspace["tmp"] / "cache")) == 1
        assert os.listdir(workspace["tmp"] / "cache") == [CACHE_FILE]
    finally:
        replacement.close()


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
    write_cache_row(cache, truncated, originals[truncated][:20])
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
    poisoned = json.loads(original)
    poisoned["token_logprobs"] = [0.5]
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


def test_infer_on_a_cache_of_the_earlier_layout_writes_the_same_predictions(workspace):
    run(workspace, "ingest")
    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    predictions = workspace["out"] / "predictions.dev.jsonl"
    first = predictions.read_bytes()
    # The same responses as earlier versions stored them: hex keys, wrapped rows.
    rows = cache_rows(workspace["tmp"] / "cache")
    old = workspace["tmp"] / "old_cache"
    write_old_layout_cache(old, {key.hex(): f'{{"response": {row}}}' for key, row in rows.items()})
    rewrite_config(workspace, lambda c: c.update(cache_dir=str(old)))
    predictions.unlink()
    workspace["service"].close()
    assert run(workspace, "infer", "--split", "dev") == EXIT_OK
    assert predictions.read_bytes() == first
    assert cache_rows(old) == rows


def test_infer_on_a_cache_file_that_is_not_a_database_exits_data(workspace, capsys):
    run(workspace, "ingest")
    path = workspace["tmp"] / "cache" / CACHE_FILE
    path.parent.mkdir()
    path.write_bytes(b"garbage" * 1000)
    assert run(workspace, "infer", "--split", "dev") == EXIT_DATA
    assert str(path) in capsys.readouterr().err
    assert workspace["service"].request_log == []


@pytest.mark.parametrize("old_rows", [0, 50], ids=["new-cache", "earlier-layout-cache"])
def test_two_infer_processes_can_share_one_cache_dir(workspace, old_rows):
    # Two splits of 100 questions each, which the mock answers "UNKNOWN". The
    # first old_rows of each split are cached in the earlier layout, which both
    # processes find unmigrated when they open the file at once; with none,
    # both create the file.
    if old_rows:
        cached = '{"response": {"text": "cached", "token_logprobs": [-0.5]}}'
        keys = [
            ResponseCache.key("mock-small", f"{split} question {i}?", DEFAULT_MAX_NEW_TOKENS)
            for split in ("dev", "test")
            for i in range(old_rows)
        ]
        write_old_layout_cache(workspace["tmp"] / "cache", {key.hex(): cached for key in keys})
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
        assert texts == ["cached"] * old_rows + ["UNKNOWN"] * (100 - old_rows)
    assert len(cache_rows(workspace["tmp"] / "cache")) == 200
    assert len(workspace["service"].request_log) == 200 - 2 * old_rows
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


def test_warm_infer_never_loads_the_http_stack(workspace):
    rewrite_config(workspace, lambda c: c.update(max_in_flight=4))
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    calls = len(workspace["service"].request_log)
    probe = (
        "import sys\n"
        "from answer_or_search.cli import main\n"
        f"code = main(['infer', '-c', {str(workspace['config'])!r}, '--split', 'dev'])\n"
        "print(code, 'http.client' in sys.modules)\n"
    )
    src = str(Path(answer_or_search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False"
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
    # The profile is written once, under provenance, beside the config hash.
    manifest = json.loads((workspace["out"] / "masked.dev.jsonl.manifest.json").read_text())
    assert "normalization_profile" not in manifest
    assert "normalization_profile_hash" not in manifest
    assert manifest["config_hash"] == load_config(workspace["config"]).config_hash
    assert manifest["provenance"]["normalization_profile_hash"]


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
    manifest = json.loads((workspace["out"] / "threshold.json").read_text())
    assert manifest["strategy"] == "max-f1"
    assert 1.3 < manifest["tau"] < 4.4  # between correct and wrong perplexities
    assert "config_hash" in manifest


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
    save_threshold(PplThreshold(tau=2.0, calibration="max-f1", fitted_on="test"), threshold)
    assert run(workspace, "evaluate", "--split", "dev", "--threshold", str(threshold)) == EXIT_OK
    report = read_report(workspace["out"] / "eval_report.json")
    # the three wrong answers and the infinite-perplexity "Paris" are searched
    assert report.confusion.to_dict() == {"tp": 2, "fp": 0, "tn": 3, "fn": 1}
    assert report.s == pytest.approx(4 / 6)


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
    rows = [
        line
        for line in (workspace["out"] / "tradeoff.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("ratio")
    ]
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
    text = (workspace["out"] / "histogram.csv").read_text()
    rows = [r for r in text.splitlines() if r and not r.startswith("#")]
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


# A second predictions row that breaks the response contract or a field's type.
CONTRACT_BREAKING_ROWS = {
    "text-not-a-string": {"text": 5},
    "no-tokens": {"token_logprobs": [], "perplexity": 1.0},
    "bool-logprob": {"token_logprobs": [False], "perplexity": 1.0},
    "bool-perplexity": {"token_logprobs": [0.0], "perplexity": True},
    "model-tag-not-a-string": {"model_tag": [1]},
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


def test_full_pipeline_outputs_embed_provenance(workspace):
    run(workspace, "ingest")
    run(workspace, "infer", "--split", "dev")
    run(workspace, "calibrate", "--split", "dev")
    run(workspace, "evaluate", "--split", "dev", "--threshold", str(workspace["out"] / "threshold.json"))
    report_payload = json.loads((workspace["out"] / "eval_report.json").read_text())
    assert "config_hash" in report_payload
    assert "normalization_profile_hash" in report_payload
    table = (workspace["out"] / "eval_report.txt").read_text()
    assert table.startswith("# config_hash=")


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

"""Self-tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
from pathlib import Path

import pytest

import endpoint
import run
import synth
import tracing


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_under_a_seed(tmp_path: Path):
    a = synth.make_items(5, 400, "r", n_faults=2)
    b = synth.make_items(5, 400, "r", n_faults=2)
    assert a == b
    assert synth.make_items(6, 400, "r", n_faults=2) != a
    synth.write_corpus(a, tmp_path / "a.jsonl")
    synth.write_corpus(b, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_generator_flags_agree_with_the_stub_oracle():
    items = synth.make_items(3, 400, "r", n_faults=2)
    assert sum(it.known for it in items) == 200
    assert sum(it.fault for it in items) == 2
    assert len({it.question for it in items}) == 400
    for it in items:
        assert synth.knows(3, it.question) == it.known
        assert synth.faults(3, it.question) == it.fault


def test_long_questions_have_the_requested_size():
    items = synth.make_items(1, 20, "p", question_bytes=1000)
    assert all(1000 <= len(it.question) <= 1100 for it in items)


def test_known_answers_match_gold_and_unknown_ones_do_not():
    for it in synth.make_items(2, 200, "r"):
        response = synth.response_for(2, it.question)
        assert response == synth.response_for(2, it.question)
        logprobs = response["token_logprobs"]
        assert len(logprobs) == len(response["text"].split())
        if it.known:
            assert response["text"] == it.gold
            assert all(-0.1 <= lp < 0 for lp in logprobs)
        else:
            assert response["text"].split()[:-1] == it.gold.split()
            assert all(lp < -1 for lp in logprobs)


def test_target_question_is_the_last_fewshot_question():
    prompt = "Q: first?\nA: one\n\nQ: second?\nA: <search>\n\nQ: target (r1-0.0)?\nA:"
    assert synth.target_question(prompt) == "target (r1-0.0)?"
    assert synth.target_question("plain question?") == "plain question?"


# ---------------------------------------------------------------------------
# Endpoint stub
# ---------------------------------------------------------------------------


@pytest.fixture
def stub():
    server = endpoint.StubServer(seed=4, service_s=0.0, fail_first=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _post(conn: http.client.HTTPConnection, prompt: str) -> tuple[int, dict]:
    body = json.dumps({"prompt": prompt, "max_new_tokens": 32, "greedy": True, "logprobs": True})
    conn.request("POST", "/", body=body.encode(), headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def test_stub_keeps_connections_alive_without_delayed_ack_stalls(stub):
    items = synth.make_items(4, 40, "r")
    conn = http.client.HTTPConnection("127.0.0.1", stub.server_address[1], timeout=5)
    times = []
    try:
        for it in items:
            start = time.perf_counter()
            status, payload = _post(conn, it.question)
            times.append(time.perf_counter() - start)
            assert status == 200
            assert payload == synth.response_for(4, it.question)
    finally:
        conn.close()
    # A response split over two writes waits ~40 ms for the client's delayed ACK.
    assert statistics.median(times) < 0.010
    assert stub.stats() == {"requests": 40, "connections": 1, "status": {"200": 40}}


def test_stub_fails_the_first_attempt_of_a_faulting_question(stub):
    faulty = next(it for it in synth.make_items(4, 400, "r", n_faults=1) if it.fault)
    prompt = f"Q: demo?\nA: x\n\nQ: {faulty.question}\nA:"
    conn = http.client.HTTPConnection("127.0.0.1", stub.server_address[1], timeout=5)
    try:
        statuses = [_post(conn, prompt)[0] for _ in range(4)]
    finally:
        conn.close()
    assert statuses == [503, 200, 503, 200]
    assert stub.stats()["status"] == {"503": 2, "200": 2}


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _span(id_: int, parent: int, name: str, start: float, end: float, hit=None) -> tracing.Span:
    return tracing.Span("t", id_, parent, name, start, end, hit)


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span(1, 0, "p", 0.0, 10.0)
    kids = [_span(2, 1, "a", 1.0, 4.0), _span(3, 1, "b", 3.0, 5.0), _span(4, 1, "c", 9.0, 12.0)]
    # Covered: [1, 5] and [9, 10] -> 5 of 10.
    assert tracing.self_time(parent, kids) == pytest.approx(5.0)
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.max_overlap(kids) == 2
    # Back-to-back spans do not overlap.
    assert tracing.max_overlap([_span(5, 0, "x", 0, 1), _span(6, 0, "x", 1, 2)]) == 1


def test_per_layer_metrics_from_a_hand_made_span_file(tmp_path: Path):
    # One infer stage from t=100 to t=110: package imported at 101,
    # run_corpus 102..108 with three generate calls on two slots, spans
    # dumped from 109.5.
    spans = [
        [1, 0, "inference.run_corpus", 102.0, 108.0, None],
        [2, 1, "inference.generate", 102.0, 106.0, None],
        [3, 2, "inference.cache.get", 102.0, 102.5, False],
        [4, 2, "inference.cache.put", 105.5, 106.0, None],
        [5, 1, "inference.generate", 102.0, 103.0, None],
        [6, 5, "inference.cache.get", 102.0, 103.0, True],
        [7, 1, "inference.generate", 103.0, 105.0, None],
        [8, 7, "inference.cache.get", 103.0, 103.5, False],
        [9, 7, "inference.cache.put", 104.5, 105.0, None],
        [10, 0, "inference.write_predictions", 108.5, 109.0, None],
    ]
    path = tmp_path / "0-infer.json"
    doc = {"run_id": "0-infer", "imported_at": 101.0, "dumped_at": 109.5, "spans": spans}
    path.write_text(json.dumps(doc))
    stage = run.StageRun("infer", 100.0, 110.0, 50.0, path)
    pipeline = run.PipelineRun(
        stages=[stage],
        endpoint={"requests": 3, "connections": 1, "status": {"200": 2, "503": 1}},
        cache_bytes=8192,
        cache_entries=2,
        digest="",
        failed_ids=set(),
    )
    m = run.per_layer(pipeline, n=3)
    assert m["cli.infer.s"] == pytest.approx(10.0)
    assert m["cli.startup_s"] == pytest.approx(1.0)
    # 10 s minus startup [100, 101], run_corpus [102, 108], write [108.5, 109]
    # and dump [109.5, 110].
    assert m["cli.self_s"] == pytest.approx(2.0)
    # (4 + 1 + 2) s of generate over 6 s x 2 slots.
    assert m["inference.run_corpus.slot_busy_share"] == pytest.approx(7 / 12)
    assert m["inference.in_flight_max"] == 2
    assert m["inference.cache.hit_ratio"] == pytest.approx(1 / 3)
    # Misses: 4 - 0.5 - 0.5 = 3 s and 2 - 0.5 - 0.5 = 1 s of self time.
    assert m["inference.http.ms_p50"] == pytest.approx(1000.0)
    assert m["inference.http.ms_p99"] == pytest.approx(3000.0)
    assert m["inference.cache.bytes_per_entry"] == 4096
    assert m["endpoint.attempts_per_miss"] == pytest.approx(1.5)
    assert m["endpoint.status_503"] == 1
    assert m["inference.write_predictions.s"] == pytest.approx(0.5)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    doc = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


# ---------------------------------------------------------------------------
# Whole benchmark on a tiny workload
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_bench(tmp_path: Path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", run.HERE.parent)
    monkeypatch.setattr(run, "WORK", tmp_path)
    return run.Workload("tiny", 40, "fewshot-balanced", 0.0, "half", fail_first=True)


def test_traced_run_passes_the_gate_and_reports_every_layer(tiny_bench):
    result = run.measure(tiny_bench, seed=3, seconds=0, trace=True)
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 80)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["inference.cache.hit_ratio"] == pytest.approx(0.5)
    assert metrics["endpoint.requests"] == 20
    assert metrics["inference.generate.calls"] == 40


def test_gate_counts_a_wrong_label_as_a_failed_record(tiny_bench):
    bench = run.Bench(tiny_bench, seed=3)
    try:
        prep = run.prepare(bench)
        first = run.run_pipeline(bench, prep, 0, traced=False, reference=None)
    finally:
        bench.close()
    assert first.failed_ids == set()
    masked = bench.dir / "out" / "masked.dev.jsonl"
    rows = [json.loads(line) for line in masked.read_text().splitlines()]
    victim = next(r for r in rows if not r["was_masked"])
    victim["target"] = "something else"
    masked.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run.check_outputs(bench.dir / "out", prep.items, 3) == {victim["id"]}
    rows[0]["was_masked"] = not rows[0]["was_masked"]
    masked.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(run.GateError):
        run.check_outputs(bench.dir / "out", prep.items, 3)

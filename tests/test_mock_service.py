from __future__ import annotations

import http.client
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answer_or_search import mock_service
from answer_or_search.errors import (
    EXIT_DATA,
    CapabilityError,
    ConfigError,
    DataError,
    TransportError,
)
from answer_or_search.inference import GenerationClient, GenerationRequest, ResponseCache, perplexity
from answer_or_search.mock_service import DEFAULT_ENTRY, Script, ScriptEntry, main, serve

from conftest import ANY_LINE, damaged, read_or_data_error


def test_scripted_prompt_round_trip(tmp_path):
    script = Script().add_exact("q?", "Paris", (-0.1,))
    with serve(script) as service:
        client = GenerationClient(service.url, "m", ResponseCache(tmp_path), timeout=5)
        response = client.generate(GenerationRequest("q?"))
    assert response["text"] == "Paris"
    assert perplexity(response["token_logprobs"]) == pytest.approx(math.exp(0.1))


def test_unknown_prompt_gets_the_default_entry():
    with serve(Script()) as service:
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=5)
        conn.request("POST", "/", json.dumps({"prompt": "never scripted"}))
        body = conn.getresponse().read()
        conn.close()
    assert json.loads(body) == {"text": "UNKNOWN", "token_logprobs": [-5.0]}
    assert DEFAULT_ENTRY.text == "UNKNOWN"


def test_question_matching_prefers_last_occurrence():
    script = (
        Script()
        .add_question("first question?", "demo", (-1.0,))
        .add_question("target question?", "target", (-2.0,))
    )
    prompt = "Q: first question?\nA: demo\n\nQ: target question?\nA:"
    assert script.lookup(prompt).text == "target"


def test_request_log_counts_each_round_trip_exactly(tmp_path):
    script = Script().add_exact("q?", "Paris", (-0.1,))
    with serve(script) as service:
        client = GenerationClient(service.url, "m", ResponseCache(tmp_path), timeout=5)
        client.generate(GenerationRequest("q?"))
        client.generate(GenerationRequest("q?"))  # warm cache: no round trip
        assert service.request_log == ["q?"]
        client.generate(GenerationRequest("other?"))
        assert service.request_log == ["q?", "other?"]


def test_no_logprobs_fault_raises_capability_error(tmp_path):
    script = Script().add_exact("q?", "Paris", (-0.1,), fault="no-logprobs")
    with serve(script) as service:
        client = GenerationClient(service.url, "m", ResponseCache(tmp_path), timeout=5)
        with pytest.raises(CapabilityError):
            client.generate(GenerationRequest("q?"))


def test_http_error_fault_raises_transport_error(tmp_path):
    script = Script().add_exact("q?", "Paris", (-0.1,), fault="http-error")
    with serve(script) as service:
        client = GenerationClient(
            service.url, "m", ResponseCache(tmp_path),
            max_retries=1, backoff_seconds=0.01, timeout=5,
        )
        with pytest.raises(TransportError):
            client.generate(GenerationRequest("q?"))


def test_answering_a_client_that_hung_up_prints_nothing(tmp_path, capfd):
    script = Script().add_exact("q?", "Paris", (-0.1,), fault="timeout")
    script.timeout_sleep = 0.5
    with serve(script) as service:
        client = GenerationClient(
            service.url, "m", ResponseCache(tmp_path), max_retries=0, timeout=0.1
        )
        with pytest.raises(TransportError):
            client.generate(GenerationRequest("q?"))
        time.sleep(1.0)  # the handler wakes and writes to the closed connection
    assert capfd.readouterr().err == ""


def test_misses_from_one_client_thread_share_one_connection(tmp_path, monkeypatch):
    accepted = []
    process_request = mock_service._MockHTTPServer.process_request

    def counted(server, request, client_address):
        accepted.append(client_address)
        return process_request(server, request, client_address)

    monkeypatch.setattr(mock_service._MockHTTPServer, "process_request", counted)
    with serve(Script()) as service:
        client = GenerationClient(service.url, "m", ResponseCache(tmp_path), timeout=5)
        client.generate(GenerationRequest("q1?"))
        client.generate(GenerationRequest("q2?"))
        client.close()
        assert service.request_log == ["q1?", "q2?"]
    assert len(accepted) == 1


def test_close_ends_the_kept_alive_connections(tmp_path):
    service = serve(Script())
    client = GenerationClient(service.url, "m", ResponseCache(tmp_path), max_retries=0, timeout=5)
    client.generate(GenerationRequest("q1?"))
    service.close()
    with pytest.raises(TransportError):
        client.generate(GenerationRequest("q2?"))
    assert service.request_log == ["q1?"]


def test_port_already_in_use_is_a_startup_error():
    with serve(Script()) as service:
        with pytest.raises(ConfigError, match="port"):
            serve(Script(), port=service.port)


def test_script_entry_rejects_unknown_fault():
    with pytest.raises(Exception, match="fault"):
        ScriptEntry(text="x", token_logprobs=(-1.0,), fault="explode")


def test_script_file_round_trip(tmp_path):
    script = (
        Script()
        .add_exact("exact prompt", "A", (-0.5,))
        .add_question("some question?", "B", (-1.0, -2.0), fault="no-logprobs")
    )
    path = script.to_file(tmp_path / "script.jsonl")
    again = Script.from_file(path)
    assert again.exact == script.exact
    assert again.by_question == script.by_question


SCRIPT_ROW = {"match": "exact", "key": "q?", "text": "a", "token_logprobs": [-0.5], "fault": "timeout"}


@pytest.mark.parametrize(
    "change", [{"key": [1]}, {"text": None}, {"token_logprobs": "-1"}], ids=["key", "text", "logprobs"]
)
def test_script_from_file_refuses_a_row_of_the_wrong_types(tmp_path, change):
    path = tmp_path / "script.jsonl"
    path.write_text(json.dumps({**SCRIPT_ROW, **change}) + "\n")
    with pytest.raises(DataError, match="line 1"):
        Script.from_file(path)


@given(st.lists(damaged(SCRIPT_ROW).map(json.dumps) | ANY_LINE, max_size=3))
@settings(max_examples=300, deadline=None)
def test_script_from_file_gives_a_script_or_a_data_error(lines):
    text = "".join(line + "\n" for line in lines)
    script = read_or_data_error(Script.from_file, {"script.jsonl": text})
    if script is None:
        return
    for key, entry in [*script.exact.items(), *script.by_question]:
        assert isinstance(key, str) and isinstance(entry.text, str)


def test_main_exits_data_on_a_script_it_cannot_read(tmp_path, capsys):
    path = tmp_path / "script.jsonl"
    path.write_text(json.dumps({**SCRIPT_ROW, "key": None}) + "\n")
    assert main([str(path), "--port", "0"]) == EXIT_DATA
    assert str(path) in capsys.readouterr().err

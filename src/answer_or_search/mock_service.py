"""Scripted stand-in for the text-generation endpoint.

Serves pre-programmed (prompt -> text, logprobs) mappings over HTTP/1.1 with
keep-alive, as a real endpoint does, so the whole pipeline can run and be tested
with no external services. Keeps an exact request log: one entry per network
round-trip, which is how tests assert that the client cache works.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import socket
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .errors import AnswerOrSearchError, ConfigError, DataError
from .fileio import read_jsonl, write_jsonl

FAULTS = ("timeout", "http-error", "no-logprobs")

#: How often the serving thread checks for shutdown; ``close`` waits up to this long.
_SHUTDOWN_POLL_SECONDS = 0.01


@dataclass(frozen=True)
class ScriptEntry:
    text: str
    token_logprobs: tuple[float, ...]
    fault: str | None = None

    def __post_init__(self) -> None:
        if self.fault is not None and self.fault not in FAULTS:
            raise DataError(f"unknown fault {self.fault!r}; expected one of {FAULTS}")


#: Served for prompts the script does not know.
DEFAULT_ENTRY = ScriptEntry(text="UNKNOWN", token_logprobs=(-5.0,))


@dataclass
class Script:
    """Deterministic prompt -> response mapping.

    ``exact`` entries match the full prompt. ``by_question`` entries match
    any prompt containing the question text; when several questions appear
    in one prompt (few-shot demonstrations), the one occurring last wins,
    which is where the target question sits.
    """

    exact: dict[str, ScriptEntry] = field(default_factory=dict)
    by_question: list[tuple[str, ScriptEntry]] = field(default_factory=list)
    default: ScriptEntry = DEFAULT_ENTRY
    timeout_sleep: float = 5.0

    def add_exact(
        self,
        prompt: str,
        text: str = "UNKNOWN",
        token_logprobs: tuple[float, ...] = (-5.0,),
        fault: str | None = None,
    ) -> "Script":
        self.exact[prompt] = ScriptEntry(text, tuple(token_logprobs), fault)
        return self

    def add_question(
        self,
        question: str,
        text: str = "UNKNOWN",
        token_logprobs: tuple[float, ...] = (-5.0,),
        fault: str | None = None,
    ) -> "Script":
        self.by_question.append((question, ScriptEntry(text, tuple(token_logprobs), fault)))
        return self

    def lookup(self, prompt: str) -> ScriptEntry:
        """The entry for ``prompt``; a ``by_question`` match costs one
        ``rfind`` per scripted question on every request."""
        entry = self.exact.get(prompt)
        if entry is not None:
            return entry
        best: ScriptEntry | None = None
        best_pos = -1
        for question, candidate in self.by_question:
            pos = prompt.rfind(question)
            if pos > best_pos:
                best_pos = pos
                best = candidate
        if best is not None:
            return best
        return self.default

    def to_file(self, path: str | Path) -> Path:
        rows = [_entry_row("exact", prompt, entry) for prompt, entry in self.exact.items()]
        rows += [_entry_row("question", question, entry) for question, entry in self.by_question]
        return write_jsonl(path, rows)

    @classmethod
    def from_file(cls, path: str | Path) -> "Script":
        script = cls()
        for match, key, entry in read_jsonl(path, _parse_entry_row, "script file"):
            if match == "exact":
                script.exact[key] = entry
            else:
                script.by_question.append((key, entry))
        return script


def _parse_entry_row(raw: dict) -> tuple[str, str, ScriptEntry]:
    if raw["match"] not in ("exact", "question"):
        raise ValueError(f"match={raw['match']!r}")
    if not isinstance(raw["key"], str) or not isinstance(raw["text"], str):
        raise ValueError("key and text must be strings")
    if not isinstance(raw["token_logprobs"], list):
        raise ValueError("token_logprobs must be a list")
    entry = ScriptEntry(
        text=raw["text"],
        token_logprobs=tuple(raw["token_logprobs"]),
        fault=raw.get("fault"),
    )
    return raw["match"], raw["key"], entry


def _entry_row(match: str, key: str, entry: ScriptEntry) -> dict:
    row = {
        "match": match,
        "key": key,
        "text": entry.text,
        "token_logprobs": list(entry.token_logprobs),
    }
    if entry.fault is not None:
        row["fault"] = entry.fault
    return row


class _Handler(BaseHTTPRequestHandler):
    server: "_MockHTTPServer"

    # Keep-alive, like a real endpoint. Without Nagle off, the body's write
    # can wait behind the client's delayed ACK of the head.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        prompt = body.get("prompt", "")
        self.server.log_request_prompt(prompt)

        entry = self.server.script.lookup(prompt)
        if entry.fault == "timeout":
            time.sleep(self.server.script.timeout_sleep)
        if entry.fault == "http-error":
            self._respond(500, {"error": "scripted failure"})
            return
        if entry.fault == "no-logprobs":
            self._respond(200, {"text": entry.text, "token_logprobs": None})
            return
        self._respond(200, {"text": entry.text, "token_logprobs": list(entry.token_logprobs)})

    def _respond(self, status: int, payload: dict) -> None:
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep test output quiet


class _MockHTTPServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], script: Script) -> None:
        self.script = script
        self._log_lock = threading.Lock()
        self._request_log: list[str] = []
        self._connections: weakref.WeakSet[socket.socket] = weakref.WeakSet()
        super().__init__(address, _Handler)  # which calls server_close if it fails

    def process_request(self, request, client_address) -> None:
        self._connections.add(request)
        super().process_request(request, client_address)

    def server_close(self) -> None:
        # Kept-alive connections end with the server, as a stopped endpoint's do.
        super().server_close()
        for conn in list(self._connections):
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)

    def handle_error(self, request, client_address) -> None:
        # A client that hung up, say after its timeout, is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def log_request_prompt(self, prompt: str) -> None:
        with self._log_lock:
            self._request_log.append(prompt)

    def request_log(self) -> list[str]:
        with self._log_lock:
            return list(self._request_log)


class MockService:
    """Handle for a running mock endpoint; use as a context manager."""

    def __init__(self, server: _MockHTTPServer, thread: threading.Thread) -> None:
        self._server = server
        self._thread = thread
        self.port = server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"

    @property
    def request_log(self) -> list[str]:
        return self._server.request_log()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MockService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(script: Script, port: int = 0) -> MockService:
    """Start the mock endpoint on ``port`` (0 picks a free one)."""
    try:
        server = _MockHTTPServer(("127.0.0.1", port), script)
    except OSError as exc:
        raise ConfigError(f"cannot start mock service on port {port}: {exc}") from exc
    thread = threading.Thread(
        target=server.serve_forever, args=(_SHUTDOWN_POLL_SECONDS,), daemon=True
    )
    thread.start()
    return MockService(server, thread)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the scripted mock generation service")
    parser.add_argument("script", help="line-delimited script file")
    parser.add_argument("--port", type=int, default=8811)
    args = parser.parse_args(argv)
    try:
        service = serve(Script.from_file(args.script), port=args.port)
    except AnswerOrSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"mock generation service listening on {service.url}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Generation endpoint stub for the benchmark, run as its own process.

    python3 perfbench/endpoint.py --seed 1 --service-ms 5 --fail-first

Speaks the wire protocol of ``GenerationClient`` over HTTP/1.1 keep-alive and
answers from ``synth.response_for``: no table, so a lookup costs the same for
any corpus size. Each response leaves in a single write with Nagle off; a
header write followed by a body write would stall ~40 ms per request on the
client's delayed ACK. With ``--fail-first``, questions picked by
``synth.faults`` get 503 on every other attempt, so each run's first attempt
fails and the retry succeeds. ``GET /stats`` returns the counters. The
listening port is printed as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import synth


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int, service_s: float, fail_first: bool, port: int = 0) -> None:
        super().__init__(("127.0.0.1", port), StubHandler)
        self.seed = seed
        self.service_s = service_s
        self.fail_first = fail_first
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.statuses: dict[str, int] = {}
        self.attempts: dict[str, int] = {}

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "status": dict(self.statuses),
            }


class StubHandler(BaseHTTPRequestHandler):
    server: StubServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/stats":
            self._send(200, self.server.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        question = synth.target_question(body["prompt"])
        server = self.server
        with server.lock:
            server.requests += 1
            if not self.counted:
                server.connections += 1
                self.counted = True
            attempt = server.attempts.get(question, 0)
            server.attempts[question] = attempt + 1
        time.sleep(server.service_s)
        if server.fail_first and attempt % 2 == 0 and synth.faults(server.seed, question):
            status, payload = 503, {"error": "busy"}
        else:
            status, payload = 200, synth.response_for(server.seed, question)
        with server.lock:
            server.statuses[str(status)] = server.statuses.get(str(status), 0) + 1
        self._send(status, payload)

    def _send(self, status: int, payload: dict) -> None:
        blob = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(blob)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + blob)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--service-ms", type=float, default=0.0)
    parser.add_argument("--fail-first", action="store_true")
    args = parser.parse_args(argv)
    server = StubServer(args.seed, args.service_ms / 1000.0, args.fail_first)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

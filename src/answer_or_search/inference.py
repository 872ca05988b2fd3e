"""Prediction collection: prompts, a response cache, and a caching endpoint client.

Generation is delegated to an HTTP completion-style service. Each response
must meet :func:`check_response` (the text and one finite log-probability
<= 0 per generated token) before it is cached under the request's sha256
digest, and again when read back. So a warm cache reruns a corpus with zero
network calls, byte for byte, and no cached entry can abort a run: one that
breaks the contract is a miss, fetched again and rewritten.

:func:`run_corpus` is cache-first: it reads the cache one query per
:data:`READ_AHEAD` records and queues only misses' attempts, for
``max_in_flight`` worker threads to send. A worker whose attempt must wait
queues the retry for the end of the wait, so a waiting miss holds no worker,
and a ``Retry-After`` holds the whole run. Workers only fetch: the calling
thread stores every response, in corpus order, so the cache file is the
same on every run. ``concurrent.futures`` and ``http.client`` are imported,
and the workers started, on the first miss only, so a fully cached run
starts no worker thread and loads neither.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import itertools
import json
import os
import random
import sqlite3
import threading
import time
from collections import deque
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generator, Mapping, Sequence
from urllib.parse import unquote, urlsplit, urlunsplit

if TYPE_CHECKING:
    import http.client
    from concurrent.futures import Future

    from .labeling import MaskedExample

from .corpus import Corpus, QaRecord
from .errors import (
    BalanceError,
    CapabilityError,
    ConfigError,
    DataError,
    RunAbortedError,
    TemplateError,
    TransportError,
)
from .fileio import PARSE_ERRORS
from .predictions import DEFAULT_MAX_NEW_TOKENS, DEFAULT_TEMPLATE, Prediction, check_response
from .predictions import FEWSHOT_BALANCED, INSTRUCT_IDK, ZEROSHOT_QA

# Held here by name only for perfbench/tracing.py, which wraps them as "inference.*".
from .predictions import read_predictions, write_predictions  # noqa: F401

#: Instruction prepended by the instruct-idk prompt style.
IDK_INSTRUCTION = (
    'Answer to the question only if you know the answer, '
    'otherwise answer "I don\'t know"'
)

#: Environment variable holding the endpoint auth token, if any.
AUTH_TOKEN_ENV = "GENERATION_API_TOKEN"


# ---------------------------------------------------------------------------
# Prompts
# ---------------------------------------------------------------------------

_PLACEHOLDER = "{q}"


def prompt_builder(
    prompt_style: str,
    template: str = DEFAULT_TEMPLATE,
    pool: Sequence[MaskedExample] = (),
    fewshot_k: int = 16,
    seed: int = 0,
) -> Callable[[str], str]:
    """The run's ``question -> prompt`` function, its settings checked here, once.

    - ``zeroshot-qa`` substitutes the question into ``template``, which must
      hold exactly one ``{q}`` slot (else :class:`TemplateError`).
    - ``instruct-idk`` puts :data:`IDK_INSTRUCTION` on the line before it.
    - ``fewshot-balanced`` puts before it ``fewshot_k`` demonstrations drawn
      from ``pool``, a masked dataset's examples, half answered and half
      masked (split on ``was_masked``). ``seed`` seeds the draw, so one seed
      draws the same sample every run. An unbalanced demonstration set
      skews the model's predictions, so a pool that cannot supply both halves
      raises :class:`BalanceError` rather than warn. The sample is drawn
      once, so every prompt of a run shares it.
    """
    if prompt_style == ZEROSHOT_QA:
        n = template.count(_PLACEHOLDER)
        if n != 1:
            raise TemplateError(
                f"template must contain exactly one {_PLACEHOLDER} placeholder, found {n}"
            )
        return lambda question: template.replace(_PLACEHOLDER, question)
    if prompt_style == INSTRUCT_IDK:
        return lambda question: f"{IDK_INSTRUCTION}\n{question}"
    if prompt_style != FEWSHOT_BALANCED:
        raise ConfigError(f"unknown prompt style {prompt_style!r}")
    if fewshot_k <= 0 or fewshot_k % 2 != 0:
        raise ConfigError(f"k must be an even positive integer, got {fewshot_k}")
    need = fewshot_k // 2
    answered = [ex for ex in pool if not ex.was_masked]
    masked = [ex for ex in pool if ex.was_masked]
    if len(answered) < need:
        raise BalanceError("answered", need, len(answered))
    if len(masked) < need:
        raise BalanceError("masked", need, len(masked))
    rng = random.Random(seed)
    chosen = rng.sample(answered, need) + rng.sample(masked, need)
    rng.shuffle(chosen)
    demonstrations = "".join(f"Q: {ex.question}\nA: {ex.target}\n\n" for ex in chosen)
    return lambda question: f"{demonstrations}Q: {question}\nA:"


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


#: The response cache's database file inside ``cache_dir``.
CACHE_FILE = "responses.sqlite3"

#: How long a statement waits for another connection's lock before it fails.
_BUSY_SECONDS = 5.0

#: The request a key digests, byte for byte ``json.dumps`` of its fields with sorted keys
#: for an int ``max_new_tokens``, which :class:`GenerationClient` checks (``%d`` truncates a float).
_KEY_TEMPLATE = '{"decoding": "greedy", "max_new_tokens": %d, "model_tag": %s, "prompt": %s}'

#: How many records :func:`run_corpus` looks up in the cache with one query.
READ_AHEAD = 64

#: One cache row: compact JSON, non-ASCII kept verbatim; a NaN raises ValueError.
_encode_row = json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":")).encode


class ResponseCache:
    """Content-addressed response cache: one SQLite file, :data:`CACHE_FILE`.

    Keys cover everything that can change a greedy completion: model tag,
    prompt, and decoding parameters. Each response is one row of JSON text in
    ``responses``, a ``WITHOUT ROWID`` table clustered on the 32-byte key, so
    no separate index stores the key again. A row is the compact pair
    ``["text",[token_logprobs]]``; a ``{"text", "token_logprobs"}`` object,
    the shape earlier versions wrote, still reads. The file is in WAL mode, so
    several processes may share a ``cache_dir``, and one connection serves
    every thread of this process, its statements taken in turn under a lock.
    :meth:`put` commits its row at once, so no write lock is held across a
    request and a killed process keeps every row it put. Nothing else is read:
    an ``entries`` table, or a ``<key>.json`` file, left by an earlier layout
    is ignored and kept, so its prompt is a miss. Any SQLite failure is a
    :class:`DataError` naming the file. Use it as a context manager, or call
    :meth:`close`: the last connection to close folds the write-ahead log back
    into the file and removes it.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CACHE_FILE
        self._lock = threading.Lock()
        self._ahead: dict[bytes, str | None] = {}
        self._db: sqlite3.Connection | None = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(
                self.path, timeout=_BUSY_SECONDS, isolation_level=None, check_same_thread=False
            )
            # Switching a new, empty file to WAL needs no fsync: it holds nothing to lose.
            self._db.execute("PRAGMA synchronous=OFF")
            self._switch_to_wal()
            # WAL lets processes share the file; NORMAL syncs at checkpoints, not at
            # each commit; a fixed 256 KiB page cache bounds memory.
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute("PRAGMA cache_size=-256")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS responses "
                "(key BLOB PRIMARY KEY, response TEXT NOT NULL) WITHOUT ROWID"
            )
        except (OSError, sqlite3.Error) as exc:
            self.close()
            raise DataError(f"response cache {self.path} cannot be opened: {exc}") from exc

    def _switch_to_wal(self) -> None:
        """Put the file in WAL mode, which persists in the file.

        While another process creates the same file, SQLite refuses the switch
        at once ("database is locked") instead of waiting out the busy timeout,
        so it is retried for that long.
        """
        deadline = time.monotonic() + _BUSY_SECONDS
        while True:
            try:
                self._db.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        if self._db is not None:
            db, self._db = self._db, None
            db.close()

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _query(self, sql: str, params: tuple | list = ()) -> list[tuple]:
        """Run one statement; the caller holds the lock."""
        try:
            return self._db.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise DataError(f"response cache {self.path}: {exc}") from exc

    @staticmethod
    def key(model_tag: str, prompt: str, max_new_tokens: int) -> bytes:
        """The key of a request: the sha256 digest of its fields.

        "decoding" is no longer a parameter, but it stays among them so that
        current caches keep their keys.
        """
        blob = _KEY_TEMPLATE % (max_new_tokens, _json_string(model_tag), _json_string(prompt))
        return hashlib.sha256(blob.encode("ascii")).digest()

    def read_ahead(self, keys: list[bytes]) -> set[bytes]:
        """The keys that have a row, read in one query. Each key's row, or None
        for a key that has none, is held until :meth:`get` takes it, so a miss
        costs no second query, even when the caller takes it after the next call."""
        marks = ",".join("?" * len(keys))
        with self._lock:
            rows = self._query(f"SELECT key, response FROM responses WHERE key IN ({marks})", keys)
            self._ahead.update(dict.fromkeys(keys))
            self._ahead.update(rows)
            return {key for key, _ in rows}

    def __len__(self) -> int:
        with self._lock:
            return self._query("SELECT COUNT(*) FROM responses")[0][0]

    def get(self, key: bytes) -> dict | None:
        """The stored response, or None when it is missing or unusable.

        A key :meth:`read_ahead` holds is answered from there, without a
        query. A row that is not JSON, or that breaks the response contract (a
        truncated or hand-edited one, say), is a miss, so the caller fetches
        again and ``put`` replaces it. Every response returned therefore
        builds a :class:`Prediction`.
        """
        with self._lock:
            if key in self._ahead:
                text = self._ahead.pop(key)
            else:
                rows = self._query("SELECT response FROM responses WHERE key = ?", (key,))
                text = rows[0][0] if rows else None
        if text is None:
            return None
        try:
            response = json.loads(text)
            if not isinstance(response, dict):
                # Unpacked, never indexed: a row of another length raises ValueError.
                answer, token_logprobs = response
                response = {"text": answer, "token_logprobs": token_logprobs}
            check_response(response)
        except PARSE_ERRORS:
            return None
        return response

    def put(self, key: bytes, response: dict) -> None:
        """Store ``response`` as its ``[text, token_logprobs]`` pair under ``key``;
        a NaN, which JSON cannot hold, is a DataError."""
        try:
            text = _encode_row([response["text"], response["token_logprobs"]])
        except ValueError as exc:
            raise DataError(f"response cache {self.path}: {exc}") from exc
        with self._lock:
            self._ahead.pop(key, None)
            self._query("INSERT OR REPLACE INTO responses VALUES (?, ?)", (key, text))


# ---------------------------------------------------------------------------
# Endpoint client
# ---------------------------------------------------------------------------

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

#: Retryable statuses whose ``Retry-After`` header is honoured.
_RETRY_AFTER_STATUS = frozenset({429, 503})


def _retry_after(value: str | None, cap: float) -> float | None:
    """The wait a ``Retry-After`` value in delta-seconds asks for, at most ``cap``.

    None when there is no value, or it is an HTTP-date or anything else that
    is not a run of ASCII digits.
    """
    if value is None:
        return None
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    # float, not int: int refuses a run of more than 4300 digits.
    return min(float(value), cap)


def _exchange(
    conn: http.client.HTTPConnection, target: str, body: bytes, headers: dict[str, str]
) -> tuple[int, Mapping[str, str], bytes]:
    """One POST and its whole response; a failure leaves ``conn`` closed."""
    try:
        conn.request("POST", target, body, headers)
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()
    except BaseException:
        conn.close()
        raise


class GenerationClient:
    """Client for a completion-style HTTP endpoint with retry and caching.

    The endpoint receives ``{"prompt", "max_new_tokens", "greedy": true,
    "logprobs": true}`` and must answer as :func:`check_response` requires.
    Missing or null log-probabilities raise :class:`CapabilityError` telling
    the operator to enable them. Any other breach, and every failure to
    reach the endpoint, is a :class:`TransportError`; a breach is not retried.

    Each thread that fetches keeps one keep-alive ``http.client`` connection,
    opened on its first fetch, since a connection carries one request at a
    time. ``http_proxy``, ``https_proxy`` and ``no_proxy`` are read from the
    environment. A connection failure, a timeout or a status in
    ``_RETRYABLE_STATUS`` is retried with exponential backoff; on a 429 or
    503, a ``Retry-After`` in seconds, capped at ``timeout``, replaces that
    attempt's backoff. A redirect is not followed.
    """

    def __init__(
        self,
        endpoint: str,
        model_tag: str,
        cache: ResponseCache,
        *,
        max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS,
        max_retries: int = 3,
        backoff_seconds: float = 0.2,
        timeout: float = 30.0,
    ) -> None:
        self.endpoint = endpoint
        self.model_tag = model_tag
        self.cache = cache
        if type(max_new_tokens) is not int or max_new_tokens < 1:
            raise ConfigError(f"max_new_tokens must be a positive integer, got {max_new_tokens!r}")
        self.max_new_tokens = max_new_tokens
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.timeout = timeout
        self._routes: dict[threading.Thread, tuple[http.client.HTTPConnection, str, dict]] = {}
        self._headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def close(self) -> None:
        """Close every connection this client opened; a later fetch reopens it."""
        for conn, _, _ in list(self._routes.values()):
            conn.close()

    def generate(
        self,
        prompt: str | None = None,
        key: bytes | None = None,
        fetch: Callable[[], dict] | None = None,
    ) -> dict:
        """Return ``{"text", "token_logprobs"}`` for ``prompt``, from cache when possible.

        On a miss, ``fetch()`` gives the response: by default a request for
        ``prompt`` sent from this thread, and in :func:`run_corpus` one sent
        on a worker. Either way, the thread that calls ``generate`` stores it.
        A caller with its own ``fetch`` may pass the prompt's
        :meth:`ResponseCache.key` in its place, so the prompt is neither
        built nor hashed again.
        """
        key = key or ResponseCache.key(self.model_tag, prompt, self.max_new_tokens)
        response = self.cache.get(key)
        if response is None:
            response = fetch() if fetch else self._fetch(prompt)
            self.cache.put(key, response)
        return response

    def _fetch(self, prompt: str) -> dict:
        """The response to ``prompt``, each wait before a retry slept out on this thread."""
        attempts = self._attempts(prompt)
        try:
            while True:
                time.sleep(next(attempts)[0])
        except StopIteration as fetched:
            return fetched.value

    def _attempts(self, prompt: str) -> Generator[tuple[float, bool], None, dict]:
        """The fetch of ``prompt``, one attempt per step.

        Each step sends one request. It then returns the response, raises if
        the request failed for good or was the last attempt, or yields the
        wait before the next attempt, and whether a ``Retry-After`` set it.
        The driver takes that wait as it likes, so a step may run on any thread.
        """
        # Imported here, not at module level: a run whose every record is
        # cached never pays for loading the HTTP stack.
        import http.client

        body = json.dumps(
            {
                "prompt": prompt,
                "max_new_tokens": self.max_new_tokens,
                "greedy": True,
                "logprobs": True,
            }
        ).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                yield wait
            wait = (self.backoff_seconds * (2**attempt), False)
            try:
                status, headers, payload = self._post(body)
            except (ValueError, http.client.InvalidURL) as exc:  # a URL or header it refuses
                raise TransportError(f"request to {self.endpoint!r} failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status in _RETRYABLE_STATUS:
                last_error = TransportError(f"endpoint returned HTTP {status}")
                if status in _RETRY_AFTER_STATUS:
                    asked = _retry_after(headers.get("Retry-After"), self.timeout)
                    wait = wait if asked is None else (asked, True)
                continue
            if 300 <= status < 400:
                raise TransportError(
                    f"endpoint returned HTTP {status} redirecting to "
                    f"{headers.get('Location')!r}; redirects are not followed"
                )
            if status != 200:
                raise TransportError(f"endpoint returned HTTP {status}")
            return self._parse(payload)
        raise TransportError(
            f"endpoint failed after {self.max_retries + 1} attempts: {last_error}"
        )

    def _post(self, body: bytes) -> tuple[int, Mapping[str, str], bytes]:
        """POST ``body`` on this thread's connection: (status, headers, body).

        A server may close a kept-alive connection while it sits idle, which
        shows only when the connection is used again. So a request that meets
        a connection error on a reused connection is sent once more, at once,
        on a fresh one; that costs no attempt and no backoff.
        """
        thread = threading.current_thread()
        route = self._routes.get(thread)
        if route is None:
            route = self._routes[thread] = self._route()
        conn, target, headers = route
        if conn.sock is not None:
            try:
                return _exchange(conn, target, body, headers)
            except ConnectionError:
                pass  # conn is closed now, so the exchange below reconnects
        return _exchange(conn, target, body, headers)

    def _route(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """A new connection, the request target and the headers to send.

        The connection goes to the endpoint, or to the proxy that the
        environment names for its scheme. A plain-HTTP endpoint is asked of
        the proxy by absolute URL; an HTTPS one is reached through a CONNECT
        tunnel, with the default verified TLS context either way.
        """
        import http.client
        import urllib.request

        try:
            url = urlsplit(self.endpoint)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError("not an http:// or https:// URL")
            port = url.port or (443 if url.scheme == "https" else 80)
            proxy = None
            if not urllib.request.proxy_bypass(url.hostname):
                proxy = urllib.request.getproxies().get(url.scheme)
            if proxy is not None:
                proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                if proxy_url.scheme != "http" or not proxy_url.hostname:
                    raise ValueError(f"proxy {proxy!r} is not an http:// URL")
                proxy_port = proxy_url.port or 80
        except ValueError as exc:
            raise TransportError(f"request to {self.endpoint!r} failed: {exc}") from exc

        target = urlunsplit(("", "", url.path or "/", url.query, ""))
        headers = dict(self._headers)
        https = url.scheme == "https"
        connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        if proxy is None:
            conn = connection(url.hostname, port, timeout=self.timeout)
        else:
            conn = connection(proxy_url.hostname, proxy_port, timeout=self.timeout)
            auth = {}
            if proxy_url.username is not None:
                user = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    user.encode("utf-8")
                ).decode("ascii")
            if https:
                conn.set_tunnel(url.hostname, port, headers=auth)
            else:
                headers.update(auth)
                authority = url.netloc.rpartition("@")[2]
                target = urlunsplit((url.scheme, authority, url.path or "/", url.query, ""))
        return conn, target, headers

    @staticmethod
    def _parse(body: bytes) -> dict:
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
            raise TransportError(f"endpoint returned non-JSON body: {exc}") from exc
        has_text = isinstance(payload, dict) and "text" in payload
        if has_text and payload.get("token_logprobs") is None:
            raise CapabilityError(
                "endpoint returned no token log-probabilities; enable per-token "
                "logprobs on the generation service (required for perplexity)"
            )
        try:
            check_response(payload)
        except DataError as exc:
            raise TransportError(f"endpoint response breaks the contract: {exc}") from exc
        return {"text": payload["text"], "token_logprobs": payload["token_logprobs"]}


class _NotSent(Exception):
    """An attempt left unsent because another record of its run failed."""


class _Fetcher:
    """The misses of one :func:`run_corpus`, one per distinct request, and the
    ``max_in_flight`` workers, started at the first miss, that send them.

    A miss is the generator of its attempts (see
    :meth:`GenerationClient._attempts`); its outcome is a ``Future``. Every
    attempt, first or retry, waits in one heap keyed by (due time, order),
    and a free worker sends the one due first. A worker whose attempt must
    wait queues the next one for the end of the wait, so a waiting miss holds
    no worker, connection or request slot. A ``Retry-After`` holds every
    attempt of the run, and the refused one keeps its key, so it goes first
    after the pause. The worker that sends a miss's first attempt builds its
    prompt, so a queued miss holds only its question.
    """

    def __init__(
        self, client: GenerationClient, prompt_for: Callable[[str], str], max_in_flight: int
    ) -> None:
        self.client = client
        self.prompt_for = prompt_for
        self.max_in_flight = max_in_flight
        self._wake = threading.Condition()  # guards the fields below
        self._heap: list[tuple[tuple[float, int], Generator, Future]] = []
        self._order = itertools.count()
        self._not_before = 0.0  # the end of the latest Retry-After: no attempt is sent before it
        self._stopped = False
        self._workers: list[threading.Thread] = []

    def start(self, question: str) -> Future:
        """The future response of ``question``, whose first attempt is queued due now."""
        # Imported here, like http.client: a fully cached run never loads it.
        from concurrent.futures import Future

        if not self._workers:
            self._workers = [threading.Thread(target=self._work) for _ in range(self.max_in_flight)]
            for worker in self._workers:
                worker.start()
        future = Future()
        self._queue((time.monotonic(), next(self._order)), self._miss(question), future)
        return future

    def _miss(self, question: str) -> Generator[tuple[float, bool], None, dict]:
        return (yield from self.client._attempts(self.prompt_for(question)))

    def _queue(self, key: tuple[float, int], miss: Generator, future: Future) -> None:
        """Queue the next attempt of ``miss`` under ``key``, or end it unsent once stopped."""
        with self._wake:
            if self._stopped:
                future.set_exception(_NotSent())
                return
            heapq.heappush(self._heap, (key, miss, future))
            self._wake.notify()

    def _work(self) -> None:
        """Send the attempt due first until the run stops; then close this worker's connection."""
        try:
            while True:
                with self._wake:
                    while not self._stopped:
                        due = max(self._heap[0][0][0], self._not_before) if self._heap else None
                        if due is not None and due <= time.monotonic():
                            break
                        self._wake.wait(None if due is None else due - time.monotonic())
                    else:
                        return
                    key, miss, future = heapq.heappop(self._heap)
                try:
                    wait, retry_after = next(miss)
                except StopIteration as fetched:
                    future.set_result(fetched.value)
                except BaseException as exc:  # raised again on the calling thread, by result()
                    self.stop()
                    future.set_exception(exc)
                else:
                    with self._wake:
                        if retry_after:  # the whole run waits, and this miss keeps its key
                            self._not_before = max(self._not_before, time.monotonic() + wait)
                        else:
                            key = (time.monotonic() + wait, next(self._order))
                        self._queue(key, miss, future)
        finally:
            route = self.client._routes.pop(threading.current_thread(), None)
            if route is not None:
                route[0].close()

    def stop(self) -> None:
        """End each miss queued, or queued later, as :class:`_NotSent`; the workers then end."""
        with self._wake:
            self._stopped = True
            while self._heap:
                heapq.heappop(self._heap)[2].set_exception(_NotSent())
            self._wake.notify_all()

    def close(self) -> None:
        """Stop, and wait for the attempts in flight and for every worker to end."""
        self.stop()
        for worker in self._workers:
            worker.join()


def run_corpus(
    corpus: Corpus,
    prompt_for: Callable[[str], str],
    client: GenerationClient,
    *,
    max_in_flight: int = 4,
) -> list[Prediction]:
    """Collect one prediction per record, in corpus order.

    ``prompt_for`` is the run's ``question -> prompt`` function, as
    :func:`prompt_builder` returns it: the caller checks the prompt settings
    by building it, before it opens the cache or sends any request. Each
    prediction holds only its record's answer; the model tag and prompt
    style are the run's, for the caller to record once. The cache is read
    with one query per :data:`READ_AHEAD` records. A miss's fetch is queued
    when it is read, for ``max_in_flight`` workers (see :class:`_Fetcher`).
    A record whose request an earlier record of the run holds is not read or
    fetched again: it settles after that record, as a hit on the row it
    stored, and if their one fetch fails, the failure is the earlier
    record's. Workers only fetch: this thread runs ``client.generate`` for
    every record in corpus order, so it stores each response, in that order.
    The oldest record read is built as soon as it is a hit or its fetch has
    ended; this thread blocks on it only once ``2 * READ_AHEAD`` records
    wait. So a killed run loses at most ``2 * READ_AHEAD`` fetched
    responses, and only those fetched behind one still in flight or waiting
    to retry.

    If any record fails (a fetch still failing after the client's retries,
    or answered with a response that breaks the contract), no later record
    is read, no worker sends another attempt, and the run aborts with a
    :class:`RunAbortedError` naming the lowest failed record; a record left
    unsent is not a failure. Its ``completed_ids`` lists, in corpus order,
    every record whose prediction was built, misses fetched before the
    failure included: they are stored.
    """
    if max_in_flight < 1:
        raise ConfigError("max_in_flight must be a positive integer")

    records = list(corpus)
    done: list[Prediction] = []
    # Read, not yet settled, oldest first: (record, key, a miss's future response or None).
    waiting: deque[tuple[QaRecord, bytes, Future | None]] = deque()
    known: set[bytes] = set()  # the keys of the hits read and of the misses started
    failure: tuple[str, Exception] | None = None
    fetcher = _Fetcher(client, prompt_for, max_in_flight)

    def settle() -> None:
        nonlocal failure
        record, key, miss = waiting.popleft()
        try:
            # A hit whose row turns out unusable is fetched now, on a worker too.
            response = client.generate(
                key=key, fetch=lambda: (miss or fetcher.start(record.question)).result()
            )
        except _NotSent:
            return  # neither built nor failed
        except Exception as exc:  # any cause aborts the run; settled in order, the first is the lowest
            failure = failure or (record.id, exc)
            fetcher.stop()
            return
        done.append(Prediction(record.id, response["text"], response["token_logprobs"]))

    try:
        for index, record in enumerate(records):
            if failure is not None:
                break
            if index % READ_AHEAD == 0:
                # Keys, not prompts: a chunk of few-shot prompts is a megabyte.
                keys = [
                    ResponseCache.key(client.model_tag, prompt_for(r.question), client.max_new_tokens)
                    for r in records[index : index + READ_AHEAD]
                ]
                # A known key is not read again, so a miss's first record finds no row.
                known |= client.cache.read_ahead([k for k in keys if k not in known])
            key = keys[index % READ_AHEAD]
            waiting.append((record, key, None if key in known else fetcher.start(record.question)))
            known.add(key)
            # The oldest settles at once if a hit, a repeat or a miss whose fetch has
            # ended; if a miss still being fetched, once the window is full.
            while waiting and (
                waiting[0][2] is None
                or waiting[0][2].done()
                or len(waiting) >= 2 * READ_AHEAD
            ):
                settle()
        while waiting:  # after a failure too: what was fetched is stored, and done
            settle()
    finally:
        fetcher.close()

    if failure is not None:
        raise RunAbortedError(*failure, [pred.record_id for pred in done])
    return done

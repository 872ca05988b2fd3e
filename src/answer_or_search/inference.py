"""Prediction collection: prompts, a response cache, and a caching endpoint client.

Generation is delegated to an HTTP completion-style service. Each response
must meet :func:`check_response` (the text and one finite log-probability
<= 0 per generated token) before it is cached under the request's sha256
digest, and again when read back. So a warm cache reruns a corpus with zero
network calls, byte for byte, and no cached entry can abort a run: one that
breaks the contract is a miss, fetched again and rewritten.

:func:`run_corpus` is cache-first: it resolves every cached record in the
calling thread and hands only misses to a thread pool, at most
``max_in_flight`` at a time. The HTTP stack (``http.client``) is imported,
and each worker thread's keep-alive connection opened, on the first miss
only, so a fully cached run starts no worker thread and never loads it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import sqlite3
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping
from urllib.parse import unquote, urlsplit, urlunsplit

if TYPE_CHECKING:
    import http.client

from .corpus import DEFAULT_SEARCH_TOKEN, Corpus
from .errors import (
    BalanceError,
    CapabilityError,
    ConfigError,
    DataError,
    RunAbortedError,
    TemplateError,
    TransportError,
)
from .predictions import DEFAULT_MAX_NEW_TOKENS, DEFAULT_TEMPLATE, Prediction, check_response

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


@dataclass(frozen=True)
class FewShotPool:
    """Demonstration pool for balanced few-shot prompts.

    An example whose target equals ``search_token`` counts as masked;
    anything else counts as answered. Selection under a fixed seed is
    deterministic.
    """

    examples: tuple[tuple[str, str], ...]
    seed: int
    search_token: str = DEFAULT_SEARCH_TOKEN


def prompt_builder(
    prompt_style: str,
    template: str = DEFAULT_TEMPLATE,
    pool: FewShotPool | None = None,
    fewshot_k: int = 16,
) -> Callable[[str], str]:
    """The run's ``question -> prompt`` function, its settings checked here, once.

    - ``zeroshot-qa`` substitutes the question into ``template``, which must
      hold exactly one ``{q}`` slot (else :class:`TemplateError`).
    - ``instruct-idk`` puts :data:`IDK_INSTRUCTION` on the line before it.
    - ``fewshot-balanced`` puts before it ``fewshot_k`` demonstrations drawn
      from ``pool`` under its seed, half answered and half masked. An
      unbalanced demonstration set skews the model's predictions, so a pool
      that cannot supply both halves raises :class:`BalanceError` rather than
      warn. The sample is drawn once, so every prompt of a run shares it.
    """
    if prompt_style == "zeroshot-qa":
        n = template.count(_PLACEHOLDER)
        if n != 1:
            raise TemplateError(
                f"template must contain exactly one {_PLACEHOLDER} placeholder, found {n}"
            )
        return lambda question: template.replace(_PLACEHOLDER, question)
    if prompt_style == "instruct-idk":
        return lambda question: f"{IDK_INSTRUCTION}\n{question}"
    if prompt_style != "fewshot-balanced":
        raise ConfigError(f"unknown prompt style {prompt_style!r}")
    if pool is None:
        raise ConfigError("fewshot-balanced prompts require a demonstration pool")
    if fewshot_k <= 0 or fewshot_k % 2 != 0:
        raise ConfigError(f"k must be an even positive integer, got {fewshot_k}")
    need = fewshot_k // 2
    answered = [ex for ex in pool.examples if ex[1] != pool.search_token]
    masked = [ex for ex in pool.examples if ex[1] == pool.search_token]
    if len(answered) < need:
        raise BalanceError("answered", need, len(answered))
    if len(masked) < need:
        raise BalanceError("masked", need, len(masked))

    rng = random.Random(pool.seed)
    chosen = rng.sample(answered, need) + rng.sample(masked, need)
    rng.shuffle(chosen)
    demonstrations = "".join(f"Q: {q}\nA: {t}\n\n" for q, t in chosen)
    return lambda question: f"{demonstrations}Q: {question}\nA:"


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


#: The response cache's database file inside ``cache_dir``.
CACHE_FILE = "responses.sqlite3"

#: How long a statement waits for another connection's lock before it fails.
_BUSY_SECONDS = 5.0


class ResponseCache:
    """Content-addressed response cache: one SQLite file, :data:`CACHE_FILE`.

    Keys cover everything that can change a greedy completion: model tag,
    prompt, and decoding parameters. Each response is one row of JSON text in
    ``responses``, a ``WITHOUT ROWID`` table clustered on the 32-byte key, so
    no separate index stores the key again; an earlier layout is moved in when
    the file is opened (:meth:`_migrate`). The file is in WAL mode, so several
    processes may share a ``cache_dir``, and one connection serves every thread
    of this process, its statements taken in turn under a lock. :meth:`put`
    commits its row at once, so no write lock is held across a request and a
    killed process keeps every row it put. Nothing else in ``cache_dir`` is
    read: a ``<key>.json`` file left by the older one-file-per-response layout
    is ignored, so its prompt is a miss. Any SQLite failure is a
    :class:`DataError` naming the file. Use it as a context manager, or call
    :meth:`close`: the last connection to close folds the write-ahead log back
    into the file and removes it.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CACHE_FILE
        self._lock = threading.Lock()
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
            self._migrate()
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

    def _migrate(self) -> None:
        """Create ``responses``; move in, once, the ``entries`` rows of earlier versions.

        Only the rows their ``get`` served are moved, and a row already in
        ``responses`` wins. One write transaction: a process opening the file
        at once waits, then finds nothing to move, and a failure rolls back.
        """
        with self._db:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS responses "
                "(key BLOB PRIMARY KEY, response TEXT NOT NULL) WITHOUT ROWID"
            )
            if self._db.execute(
                "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'entries'"
            ).fetchone():
                self._db.executemany(
                    "INSERT OR IGNORE INTO responses VALUES (?, ?)",
                    _moved_rows(self._db.execute("SELECT key, entry FROM entries")),
                )
                self._db.execute("DROP TABLE entries")

    def close(self) -> None:
        if self._db is not None:
            db, self._db = self._db, None
            db.close()

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _query(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run one statement; the caller holds the lock."""
        try:
            return self._db.execute(sql, params).fetchall()
        except sqlite3.Error as exc:
            raise DataError(f"response cache {self.path}: {exc}") from exc

    @staticmethod
    def key(model_tag: str, prompt: str, max_new_tokens: int) -> bytes:
        """The key of a request: the sha256 digest of its fields.

        "decoding" stays among them so that caches written when it was a
        parameter keep their keys, which earlier versions stored in hex.
        """
        request = {
            "model_tag": model_tag,
            "prompt": prompt,
            "max_new_tokens": max_new_tokens,
            "decoding": "greedy",
        }
        blob = json.dumps(request, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(blob.encode("utf-8")).digest()

    def __contains__(self, key: bytes) -> bool:
        """Whether an entry for ``key`` exists; it is not read (see :meth:`get`)."""
        with self._lock:
            return bool(self._query("SELECT 1 FROM responses WHERE key = ?", (key,)))

    def __len__(self) -> int:
        with self._lock:
            return self._query("SELECT COUNT(*) FROM responses")[0][0]

    def get(self, key: bytes) -> dict | None:
        """The stored response, or None when it is missing or unusable.

        A row that is not JSON, or that breaks the response contract (a
        truncated or hand-edited one, say), is a miss, so the caller fetches
        again and ``put`` replaces it. Every response returned therefore
        builds a :class:`Prediction`.
        """
        with self._lock:
            rows = self._query("SELECT response FROM responses WHERE key = ?", (key,))
        if not rows:
            return None
        try:
            response = json.loads(rows[0][0])
            check_response(response)
        except _UNUSABLE:
            return None
        return response

    def put(self, key: bytes, response: dict) -> None:
        """Store ``response`` under ``key``; a NaN, which JSON cannot hold, is a DataError."""
        try:
            text = _row_text(response)
        except ValueError as exc:
            raise DataError(f"response cache {self.path}: {exc}") from exc
        with self._lock:
            self._query("INSERT OR REPLACE INTO responses VALUES (?, ?)", (key, text))


#: What reading a row that breaks the response contract raises: see :meth:`ResponseCache.get`.
_UNUSABLE = (ValueError, KeyError, TypeError, RecursionError, DataError)


def _row_text(response: dict) -> str:
    """The JSON text a row stores; a response JSON cannot hold (a NaN, say) raises ValueError."""
    return json.dumps(response, ensure_ascii=False, allow_nan=False)


def _moved_rows(entries: Iterable[tuple]) -> Iterator[tuple[bytes, str]]:
    """``(digest, row text)`` of each ``entries`` row ``(key, entry)`` that earlier
    versions served: a usable ``entry["response"]`` under a 64-character hex key."""
    for key, entry in entries:
        try:
            digest = bytes.fromhex(key)
            response = json.loads(entry)["response"]
            check_response(response)
            text = _row_text(response)
        except _UNUSABLE:
            continue
        if len(key) == 64 and digest.hex() == key:
            yield digest, text


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
    return min(int(value), cap)


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
        if max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be a positive integer")
        self.max_new_tokens = max_new_tokens
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.timeout = timeout
        self._local = threading.local()
        self._opened: list[http.client.HTTPConnection] = []
        self._headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def close(self) -> None:
        """Close every connection this client opened; a later fetch reopens it."""
        for conn in self._opened:
            conn.close()

    def generate(self, prompt: str, key: bytes | None = None) -> dict:
        """Return ``{"text", "token_logprobs"}`` for ``prompt``, from cache when possible.

        ``key`` is the :meth:`ResponseCache.key` of ``prompt``, passed by a
        caller that already has it so that the prompt is hashed once.
        """
        key = key or ResponseCache.key(self.model_tag, prompt, self.max_new_tokens)
        response = self.cache.get(key)
        if response is None:
            response = self._fetch(prompt)
            self.cache.put(key, response)
        return response

    def _fetch(self, prompt: str) -> dict:
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
        delay = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(delay)
            delay = self.backoff_seconds * (2**attempt)
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
                    delay = delay if asked is None else asked
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
        route = getattr(self._local, "route", None)
        if route is None:
            route = self._local.route = self._route()
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
        self._opened.append(conn)
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


def run_corpus(
    corpus: Corpus,
    prompt_style: str,
    client: GenerationClient,
    *,
    template: str = DEFAULT_TEMPLATE,
    pool: FewShotPool | None = None,
    fewshot_k: int = 16,
    max_in_flight: int = 4,
) -> list[Prediction]:
    """Collect one prediction per record, in corpus order.

    The prompt settings go to :func:`prompt_builder` first, so a bad one
    fails before any request is sent, even on an empty corpus. Records are
    visited in corpus order. A cached record is built in the calling thread;
    a miss goes to a worker thread through ``client.generate``, with at most
    ``max_in_flight`` misses outstanding. Output order always equals corpus
    order.

    If any miss fails (still failing after the client's retries, or answered
    with a response that breaks the contract), no further record is started
    once the failure is seen, outstanding misses drain,
    and the run aborts with a :class:`RunAbortedError` naming the lowest
    failed record. Its ``completed_ids`` lists, in corpus order, every record
    whose prediction was built, cached records after the failed one included.
    """
    if max_in_flight < 1:
        raise ConfigError("max_in_flight must be a positive integer")

    prompt_for = prompt_builder(prompt_style, template, pool, fewshot_k)
    records = list(corpus)

    results: list[Prediction | None] = [None] * len(records)
    failure: tuple[int, Exception] | None = None
    pending: dict[Future, int] = {}

    def fetch(index: int, prompt: str, key: bytes) -> Prediction:
        response = client.generate(prompt, key)
        return Prediction(
            record_id=records[index].id,
            text=response["text"],
            token_logprobs=response["token_logprobs"],
            model_tag=client.model_tag,
            prompt_style=prompt_style,
        )

    def fail(index: int, exc: Exception) -> None:
        nonlocal failure
        if failure is None or index < failure[0]:
            failure = (index, exc)

    def collect(done: set[Future]) -> None:
        for future in done:
            index = pending.pop(future)
            try:
                results[index] = future.result()
            except Exception as exc:  # any cause aborts the run, recorded by index
                fail(index, exc)

    # The executor starts its threads on the first submit, so a run whose
    # every record is cached starts none.
    with ThreadPoolExecutor(max_workers=max_in_flight) as executor:
        for index in range(len(records)):
            if failure is not None:
                break
            prompt = prompt_for(records[index].question)
            key = ResponseCache.key(client.model_tag, prompt, client.max_new_tokens)
            if key in client.cache:
                # Resolved here, never in the pool. An entry that turns out
                # unusable is fetched again by this same call.
                try:
                    results[index] = fetch(index, prompt, key)
                except Exception as exc:  # same abort path as a pooled miss
                    fail(index, exc)
                continue
            # A failed miss stops the run before another request is sent.
            collect({future for future in pending if future.done()})
            while len(pending) >= max_in_flight:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                collect(done)
            if failure is not None:
                break
            pending[executor.submit(fetch, index, prompt, key)] = index
        # Outstanding misses drain and still count as done.
        collect(wait(pending).done)

    if failure is not None:
        index, cause = failure
        completed = [records[i].id for i, r in enumerate(results) if r is not None]
        raise RunAbortedError(records[index].id, cause, completed)

    return [pred for pred in results if pred is not None]

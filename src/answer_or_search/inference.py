"""Prediction collection: prompts, perplexity, and a caching endpoint client.

Generation is delegated to an HTTP completion-style service. Each response
must meet :func:`check_response` (the text and one finite log-probability
<= 0 per generated token) before it is cached on disk, keyed by a content
hash of the request, and again when read back. So a warm cache reruns a
corpus with zero network calls, byte for byte, and no cached entry can abort
a run: one that breaks the contract is a miss, fetched again and rewritten.

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
import math
import os
import random
import re
import sqlite3
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence
from urllib.parse import unquote, urlsplit, urlunsplit

if TYPE_CHECKING:
    import http.client

from .corpus import DEFAULT_SEARCH_TOKEN, Corpus, QaRecord, parse_record_id
from .errors import (
    BalanceError,
    CapabilityError,
    ConfigError,
    DataError,
    RunAbortedError,
    TemplateError,
    TransportError,
)
from .fileio import check_manifest, is_number, read_jsonl, write_jsonl

PROMPT_STYLES = ("zeroshot-qa", "fewshot-balanced", "instruct-idk")

#: Default zero-shot template: the bare question, for QA-tuned checkpoints.
DEFAULT_TEMPLATE = "{q}"

#: Instruction prepended by the instruct-idk prompt style.
IDK_INSTRUCTION = (
    'Answer to the question only if you know the answer, '
    'otherwise answer "I don\'t know"'
)

#: Environment variable holding the endpoint auth token, if any.
AUTH_TOKEN_ENV = "GENERATION_API_TOKEN"

DEFAULT_MAX_NEW_TOKENS = 32


def perplexity(token_logprobs: Sequence[float]) -> float:
    """Sequence perplexity: exp of the negative mean token log-probability.

    ``token_logprobs`` must be a non-empty list or tuple of finite numbers
    <= 0 (a bool is not a number), or :class:`DataError` is raised. The
    result is >= 1, equals 1 iff every log-probability is 0, is invariant
    under permutation, and saturates to +inf.
    """
    if not isinstance(token_logprobs, (list, tuple)) or not token_logprobs:
        raise DataError("token log-probabilities must be a non-empty list")
    for lp in token_logprobs:
        if not is_number(lp) or not -math.inf < lp <= 0:
            raise DataError(f"token log-probabilities must be finite numbers <= 0, got {lp!r}")
    try:
        return math.exp(-sum(token_logprobs) / len(token_logprobs))
    except OverflowError:
        return math.inf


def check_response(response: object) -> float:
    """The response contract; returns the perplexity of a response that meets it.

    A response is a JSON object with a string ``text`` and ``token_logprobs``
    as :func:`perplexity` takes them. A breach raises :class:`DataError`.
    """
    if not isinstance(response, dict):
        raise DataError("response is not a JSON object")
    if not isinstance(response.get("text"), str):
        raise DataError("response 'text' is missing or not a string")
    return perplexity(response.get("token_logprobs"))


@dataclass(frozen=True)
class GenerationRequest:
    """One greedy-decoding completion request."""

    prompt: str
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS

    def __post_init__(self) -> None:
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be a positive integer")


@dataclass(frozen=True)
class Prediction:
    """A model's answer, checked by :func:`check_response`, which also gives
    its ``perplexity``."""

    record_id: str
    text: str
    token_logprobs: tuple[float, ...]
    perplexity: float = field(init=False)
    model_tag: str
    prompt_style: str

    def __post_init__(self) -> None:
        if self.prompt_style not in PROMPT_STYLES:
            raise DataError(
                f"record {self.record_id}: unknown prompt style {self.prompt_style!r}"
            )
        if not isinstance(self.model_tag, str):
            raise DataError(f"record {self.record_id}: model_tag {self.model_tag!r} is not a string")
        try:
            ppl = check_response({"text": self.text, "token_logprobs": self.token_logprobs})
        except DataError as exc:
            raise DataError(f"record {self.record_id}: {exc}") from exc
        object.__setattr__(self, "token_logprobs", tuple(self.token_logprobs))
        object.__setattr__(self, "perplexity", ppl)

    def to_dict(self) -> dict:
        return {
            "id": self.record_id,
            "text": self.text,
            "token_logprobs": list(self.token_logprobs),
            "perplexity": self.perplexity,
            "model_tag": self.model_tag,
            "prompt_style": self.prompt_style,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Prediction":
        pred = cls(
            record_id=parse_record_id(raw["id"]),
            text=raw["text"],
            token_logprobs=raw["token_logprobs"],
            model_tag=raw["model_tag"],
            prompt_style=raw["prompt_style"],
        )
        stored = raw["perplexity"]
        if not is_number(stored) or not math.isclose(stored, pred.perplexity, rel_tol=1e-9):
            raise DataError(
                f"record {pred.record_id}: perplexity {stored!r} is not the number "
                f"its log-probabilities give ({pred.perplexity})"
            )
        return pred


def write_predictions(predictions: Sequence[Prediction], path: str | Path) -> Path:
    return write_jsonl(path, (pred.to_dict() for pred in predictions))


def read_predictions(path: str | Path) -> list[Prediction]:
    """Read a predictions file, checked against its sidecar manifest if any."""
    preds = read_jsonl(path, Prediction.from_dict, "predictions file")
    check_manifest(path, len(preds))
    return preds


# ---------------------------------------------------------------------------
# Prompt builders
# ---------------------------------------------------------------------------

_PLACEHOLDER = "{q}"


def build_zeroshot_prompt(record: QaRecord, template: str = DEFAULT_TEMPLATE) -> str:
    """Substitute the question into a template with exactly one ``{q}`` slot."""
    n = template.count(_PLACEHOLDER)
    if n != 1:
        raise TemplateError(
            f"template must contain exactly one {_PLACEHOLDER} placeholder, found {n}"
        )
    return template.replace(_PLACEHOLDER, record.question)


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

    @property
    def answered(self) -> list[tuple[str, str]]:
        return [ex for ex in self.examples if ex[1] != self.search_token]

    @property
    def masked(self) -> list[tuple[str, str]]:
        return [ex for ex in self.examples if ex[1] == self.search_token]


def build_fewshot_balanced_prompt(pool: FewShotPool, k: int, record: QaRecord) -> str:
    """Prompt with exactly k/2 answered and k/2 masked demonstrations.

    An unbalanced demonstration set skews the model's predictions, so the
    builder refuses a pool that cannot supply both halves rather than warn.
    """
    if k <= 0 or k % 2 != 0:
        raise ConfigError(f"k must be an even positive integer, got {k}")
    need = k // 2
    answered = pool.answered
    masked = pool.masked
    if len(answered) < need:
        raise BalanceError("answered", need, len(answered))
    if len(masked) < need:
        raise BalanceError("masked", need, len(masked))

    rng = random.Random(pool.seed)
    chosen = rng.sample(answered, need) + rng.sample(masked, need)
    rng.shuffle(chosen)

    parts = [f"Q: {q}\nA: {t}\n" for q, t in chosen]
    parts.append(f"Q: {record.question}\nA:")
    return "\n".join(parts)


def build_instruct_prompt(record: QaRecord) -> str:
    """Instruction-style prompt asking the model to admit ignorance."""
    return f"{IDK_INSTRUCTION}\n{record.question}"


def build_prompt(
    record: QaRecord,
    prompt_style: str,
    template: str = DEFAULT_TEMPLATE,
    pool: FewShotPool | None = None,
    fewshot_k: int = 16,
) -> str:
    if prompt_style == "zeroshot-qa":
        return build_zeroshot_prompt(record, template)
    if prompt_style == "fewshot-balanced":
        if pool is None:
            raise ConfigError("fewshot-balanced prompts require a demonstration pool")
        return build_fewshot_balanced_prompt(pool, fewshot_k, record)
    if prompt_style == "instruct-idk":
        return build_instruct_prompt(record)
    raise ConfigError(f"unknown prompt style {prompt_style!r}")


# ---------------------------------------------------------------------------
# Response cache
# ---------------------------------------------------------------------------


#: The response cache's database file inside ``cache_dir``.
CACHE_FILE = "responses.sqlite3"

#: Name of a response file in the one-file-per-response layout of earlier versions.
_LEGACY_ENTRY = re.compile(r"[0-9a-f]{64}\.json")

#: How long a statement waits for another connection's lock before it fails.
_BUSY_SECONDS = 5.0

#: Rows :meth:`ResponseCache.put` buffers before it commits them in one transaction.
_COMMIT_ROWS = 64


class ResponseCache:
    """Content-addressed response cache: one SQLite file, :data:`CACHE_FILE`.

    Keys cover everything that can change a greedy completion: model tag,
    prompt, and decoding parameters. Each entry is one row of JSON text,
    ``{"response": {...}}``; one an earlier version wrote also holds a copy of
    the request, which is not read. The file is in WAL mode, so several
    processes may share a ``cache_dir``, and one connection serves every thread
    of this process, its statements taken in turn under a lock. :meth:`put`
    buffers rows in memory, where :meth:`get` and ``in`` see them at once, and
    commits them :data:`_COMMIT_ROWS` at a time and on :meth:`close`: a short
    write transaction per group, never one held across a request. Response
    files of the earlier one-file-per-response layout are imported on open and
    then deleted. Any SQLite failure is a :class:`DataError` naming the file.
    Use it as a context manager, or call :meth:`close`: the last connection to
    close folds the write-ahead log back into the file and removes it.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.path = self.directory / CACHE_FILE
        self._lock = threading.Lock()
        self._pending: dict[str, str] = {}  # key -> entry text, not yet committed
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
                "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, entry TEXT NOT NULL)"
            )
            self._import_legacy()
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

    def _import_legacy(self) -> None:
        """Move ``<key>.json`` files into the table in one transaction.

        A row already stored wins. A file that another process imported and
        deleted meanwhile is skipped. Unusable files are imported as they
        are: :meth:`get` treats them as misses, like any unusable row.
        """
        paths = [p for p in self.directory.iterdir() if _LEGACY_ENTRY.fullmatch(p.name)]
        if not paths:
            return

        def rows() -> Iterator[tuple[str, str]]:
            for path in paths:
                try:
                    yield path.stem, path.read_text("utf-8", "replace")
                except FileNotFoundError:
                    continue

        self._db.execute("BEGIN IMMEDIATE")
        with self._db:
            self._db.executemany("INSERT OR IGNORE INTO entries VALUES (?, ?)", rows())
        for path in paths:
            path.unlink(missing_ok=True)

    def close(self) -> None:
        """Commit the buffered rows, then close the connection."""
        if self._db is None:
            return
        try:
            with self._lock:
                self._commit_pending()
        finally:
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

    def _commit_pending(self) -> None:
        """Write the buffered rows in one transaction; the caller holds the lock."""
        if not self._pending:
            return
        try:
            self._db.execute("BEGIN IMMEDIATE")
            with self._db:
                self._db.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, ?)", self._pending.items()
                )
        except sqlite3.Error as exc:
            raise DataError(f"response cache {self.path}: {exc}") from exc
        self._pending.clear()

    @staticmethod
    def key(model_tag: str, prompt: str, max_new_tokens: int) -> str:
        """The key of a request: a hash of its fields.

        "decoding" stays among them so that caches written when it was a
        parameter keep their keys.
        """
        request = {
            "model_tag": model_tag,
            "prompt": prompt,
            "max_new_tokens": max_new_tokens,
            "decoding": "greedy",
        }
        blob = json.dumps(request, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __contains__(self, key: str) -> bool:
        """Whether an entry for ``key`` exists; it is not read (see :meth:`get`)."""
        with self._lock:
            return key in self._pending or bool(
                self._query("SELECT 1 FROM entries WHERE key = ?", (key,))
            )

    def __len__(self) -> int:
        """The number of entries, committed or buffered."""
        with self._lock:
            (committed,) = self._query("SELECT COUNT(*) FROM entries")[0]
            return committed + sum(
                not self._query("SELECT 1 FROM entries WHERE key = ?", (key,))
                for key in self._pending
            )

    def get(self, key: str) -> dict | None:
        """The stored response, or None when it is missing or unusable.

        An entry that is not JSON, or whose ``response`` breaks the response
        contract (a truncated or hand-edited one, say), is a miss, so the
        caller fetches again and ``put`` replaces it. Every response returned
        therefore builds a :class:`Prediction`.
        """
        with self._lock:
            text = self._pending.get(key)
            if text is None:
                rows = self._query("SELECT entry FROM entries WHERE key = ?", (key,))
                if not rows:
                    return None
                text = rows[0][0]
        try:
            response = json.loads(text)["response"]
            check_response(response)
        except (ValueError, KeyError, TypeError, RecursionError, DataError):
            return None
        return response

    def put(self, key: str, response: dict) -> None:
        text = json.dumps({"response": response}, ensure_ascii=False)
        with self._lock:
            self._pending[key] = text
            if len(self._pending) >= _COMMIT_ROWS:
                self._commit_pending()


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
        max_retries: int = 3,
        backoff_seconds: float = 0.2,
        timeout: float = 30.0,
    ) -> None:
        self.endpoint = endpoint
        self.model_tag = model_tag
        self.cache = cache
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

    def generate(self, request: GenerationRequest, key: str | None = None) -> dict:
        """Return ``{"text", "token_logprobs"}``, from cache when possible.

        ``key`` is the :meth:`ResponseCache.key` of ``request``, passed by a
        caller that already has it so that the prompt is hashed once.
        """
        key = key or ResponseCache.key(self.model_tag, request.prompt, request.max_new_tokens)
        response = self.cache.get(key)
        if response is None:
            response = self._fetch(request)
            self.cache.put(key, response)
        return response

    def _fetch(self, request: GenerationRequest) -> dict:
        # Imported here, not at module level: a run whose every record is
        # cached never pays for loading the HTTP stack.
        import http.client

        body = json.dumps(
            {
                "prompt": request.prompt,
                "max_new_tokens": request.max_new_tokens,
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
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS,
    max_in_flight: int = 4,
) -> list[Prediction]:
    """Collect one prediction per record, in corpus order.

    Records are visited in corpus order. A cached record is built in the
    calling thread; a miss goes to a worker thread through
    ``client.generate``, with at most ``max_in_flight`` misses outstanding.
    Output order always equals corpus order.

    If any miss fails (still failing after the client's retries, or answered
    with a response that breaks the contract), no further record is started
    once the failure is seen, outstanding misses drain,
    and the run aborts with a :class:`RunAbortedError` naming the lowest
    failed record. Its ``completed_ids`` lists, in corpus order, every record
    whose prediction was built, cached records after the failed one included.
    """
    if max_in_flight < 1:
        raise ConfigError("max_in_flight must be a positive integer")

    records = list(corpus)
    prompts = [
        build_prompt(rec, prompt_style, template=template, pool=pool, fewshot_k=fewshot_k)
        for rec in records
    ]

    results: list[Prediction | None] = [None] * len(records)
    failure: tuple[int, Exception] | None = None
    pending: dict[Future, int] = {}

    def fetch(index: int, request: GenerationRequest, key: str) -> Prediction:
        response = client.generate(request, key)
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
            request = GenerationRequest(prompt=prompts[index], max_new_tokens=max_new_tokens)
            key = ResponseCache.key(client.model_tag, request.prompt, max_new_tokens)
            if key in client.cache:
                # Resolved here, never in the pool. An entry that turns out
                # unusable is fetched again by this same call.
                try:
                    results[index] = fetch(index, request, key)
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
            pending[executor.submit(fetch, index, request, key)] = index
        # Outstanding misses drain and still count as done.
        collect(wait(pending).done)

    if failure is not None:
        index, cause = failure
        completed = [records[i].id for i, r in enumerate(results) if r is not None]
        raise RunAbortedError(records[index].id, cause, completed)

    return [pred for pred in results if pred is not None]

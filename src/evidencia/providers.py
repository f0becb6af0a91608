"""External service access: web search, fact-check search and text generation.

Three interchangeable backends expose the same ``fetch(kind, payload)``
surface returning the verbatim JSON response body. ``fetch`` also takes the
request's hash when the caller has already computed it, so one request is
hashed once:

* ``LiveBackend`` performs HTTP calls (credentials from ``EVD_*`` environment
  variables), retrying transport errors (``OSError``, which ``requests``'
  exceptions are), 429 and 5xx responses up to ``MAX_RETRIES`` times with
  exponential backoff; any other exception is a bug and propagates;
* ``FixtureBackend`` replays recorded response bodies, for deterministic
  offline runs;
* ``CachingBackend`` wraps another backend with a persistent response cache
  that appends each response it had to fetch.

Fixtures and cache share one on-disk format: the append-only log
``<dir>/responses.jsonl``, one compact JSON line per response holding
``request_hash``, ``kind``, ``captured_at``, ``request`` and ``body``.
``write_cassette`` and the cache append to it with the same appender,
``_append``, and the same line encoder.
The fixture reader is strict (a broken line is a broken recording) and the
cache reader lenient (a cut last line is what a crash leaves). Directories in
the older one-``<hash>.json``-per-response layout are not read.

A request's hash, ``request_hash``, is the SHA-256 of the canonical JSON of
its kind and payload (``_canonical``). ``prompt_hasher`` gives the same digest
for a generation request whose prompt is a fixed head plus a varying rest,
hashing the head once: JSON escapes each character on its own, so the
canonical text of ``head + rest`` is that of ``head`` with the escaped rest
put in after it.

The call helpers (``web_search``, ``factcheck_search``, ``llm_generate``)
take the query or the prompt, which the request types make a payload with
this module's constant settings (the model ``LLM_MODEL`` among them). They
sit on top of any backend, so cached, recorded and live responses go through
identical code. A body of the wrong shape raises ``ProviderFailure``; a null
text field reads as ``""``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol

from .clocks import Clock, SystemClock
from .records import ClaimReviewResult, ProviderFailure, SchemaError, WebResult, loads_line, read_jsonl

KIND_WEB = "web_search"
KIND_FACTCHECK = "factcheck"
KIND_LLM = "llm"

ENV_SEARCH_KEY = "EVD_SEARCH_KEY"
ENV_SEARCH_CX = "EVD_SEARCH_CX"
ENV_FACTCHECK_KEY = "EVD_FACTCHECK_KEY"
ENV_LLM_KEY = "EVD_LLM_KEY"

LOG_NAME = "responses.jsonl"

MAX_RETRIES = 3
BACKOFF_INITIAL = 0.5
BACKOFF_MULTIPLIER = 2.0


# The paper's fixed request settings: five pt-BR results per web search,
# five fact-check claims, Gemini 1.5 Flash with safety filters off for
# generation.
WEB_RESULTS = 5
WEB_GEO = "pt-BR"
WEB_LANG_RESTRICT = "lang_pt"
FACTCHECK_LANGUAGE = "pt-BR"
FACTCHECK_PAGE_SIZE = 5
LLM_MODEL = "gemini-1.5-flash"
SAFETY_CATEGORIES = (
    "HARM_CATEGORY_HARASSMENT",
    "HARM_CATEGORY_HATE_SPEECH",
    "HARM_CATEGORY_SEXUALLY_EXPLICIT",
    "HARM_CATEGORY_DANGEROUS_CONTENT",
)

WEB_SEARCH_URL = "https://www.googleapis.com/customsearch/v1"
FACTCHECK_URL = "https://factchecktools.googleapis.com/v1alpha1/claims:search"
LLM_URL = f"https://generativelanguage.googleapis.com/v1beta/models/{LLM_MODEL}:generateContent"


@dataclass(frozen=True)
class WebSearchRequest:
    query: str

    def payload(self) -> dict[str, Any]:
        return {"query": self.query, "num": WEB_RESULTS, "gl": WEB_GEO, "lr": WEB_LANG_RESTRICT}


@dataclass(frozen=True)
class FactCheckRequest:
    query: str

    def payload(self) -> dict[str, Any]:
        return {"query": self.query, "languageCode": FACTCHECK_LANGUAGE, "pageSize": FACTCHECK_PAGE_SIZE}


@dataclass(frozen=True)
class LlmRequest:
    prompt: str

    def payload(self) -> dict[str, Any]:
        return {"prompt": self.prompt, "model": LLM_MODEL, "safety_off": True}


_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_MARK = "\x00"  # stands in for the rest of a prompt; JSON escapes it with a backslash


def _canonical(kind: str, payload: dict[str, Any]) -> str:
    """The text ``request_hash`` hashes."""
    return _ENCODER.encode({"kind": kind, "payload": payload})


def request_hash(kind: str, payload: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(kind, payload).encode("utf-8")).hexdigest()


def prompt_hasher(head: str) -> Callable[[str], str]:
    """``digest(rest)``, equal to ``request_hash(KIND_LLM, LlmRequest(head +
    rest).payload())``, with the canonical text up to the end of ``head``
    encoded and hashed here, once.

    Nothing after the prompt in the canonical text holds a backslash, so the
    escape of a marker put after ``head``, the text's last backslash, marks
    where the rest goes.
    """
    prefix, _, suffix = _canonical(KIND_LLM, LlmRequest(head + _MARK).payload()).rpartition(
        _ENCODER.encode(_MARK)[1:-1])
    state = hashlib.sha256(prefix.encode("utf-8"))
    tail = suffix.encode("utf-8")

    def digest(rest: str) -> str:
        sha = state.copy()
        sha.update(_ENCODER.encode(rest)[1:-1].encode("utf-8"))
        sha.update(tail)
        return sha.hexdigest()

    return digest


class Backend(Protocol):
    def fetch(self, kind: str, payload: dict[str, Any], digest: str | None = None) -> dict[str, Any]:
        """The response body; ``digest``, when given, is ``request_hash(kind, payload)``."""
        ...


Transport = Callable[[str, str, dict[str, Any], dict[str, Any] | None], tuple[int, str]]


def _requests_transport(method: str, url: str, params: dict[str, Any], body: dict[str, Any] | None) -> tuple[int, str]:
    import requests

    if method == "GET":
        resp = requests.get(url, params=params, timeout=30)
    else:
        resp = requests.post(url, params=params, json=body, timeout=30)
    return resp.status_code, resp.text


class LiveBackend:
    """HTTP access with retry and exponential backoff."""

    def __init__(
        self,
        credentials: dict[str, str] | None = None,
        clock: Clock | None = None,
        transport: Transport | None = None,
    ):
        self.credentials = credentials if credentials is not None else credentials_from_env()
        self.clock = clock or SystemClock()
        self.transport = transport or _requests_transport
        self.attempts = 0
        self._attempts_lock = threading.Lock()

    def fetch(self, kind: str, payload: dict[str, Any], digest: str | None = None) -> dict[str, Any]:
        method, url, params, body = self._build(kind, payload)
        delay = BACKOFF_INITIAL
        last_error = "no attempt made"
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                import logging  # only a retry logs, so only a retry loads logging

                logging.getLogger(__name__).warning("retrying %s call (attempt %d): %s", kind, attempt + 1, last_error)
                self.clock.sleep(delay)
                delay *= BACKOFF_MULTIPLIER
            with self._attempts_lock:
                self.attempts += 1
            try:
                status, text = self.transport(method, url, params, body)
            except OSError as exc:  # transport-level failure, retryable
                last_error = f"transport error: {exc}"
                continue
            if status == 200:
                try:
                    return json.loads(text)
                except json.JSONDecodeError as exc:
                    raise ProviderFailure(f"{kind}: invalid JSON in response: {exc}") from None
            if status in (429,) or status >= 500:
                last_error = f"HTTP {status}"
                continue
            raise ProviderFailure(f"{kind}: HTTP {status}: {text[:200]}")
        raise ProviderFailure(f"{kind}: giving up after {MAX_RETRIES + 1} attempts ({last_error})")

    def _build(self, kind: str, payload: dict[str, Any]):
        if kind == KIND_WEB:
            params = {
                "key": self._credential(ENV_SEARCH_KEY),
                "cx": self._credential(ENV_SEARCH_CX),
                "q": payload["query"],
                "num": payload["num"],
                "gl": payload["gl"],
                "lr": payload["lr"],
            }
            return "GET", WEB_SEARCH_URL, params, None
        if kind == KIND_FACTCHECK:
            params = {
                "key": self._credential(ENV_FACTCHECK_KEY),
                "query": payload["query"],
                "languageCode": payload["languageCode"],
                "pageSize": payload["pageSize"],
            }
            return "GET", FACTCHECK_URL, params, None
        if kind == KIND_LLM:
            params = {"key": self._credential(ENV_LLM_KEY)}
            body = {
                "contents": [{"parts": [{"text": payload["prompt"]}]}],
                "safetySettings": [{"category": cat, "threshold": "BLOCK_NONE"} for cat in SAFETY_CATEGORIES],
            }
            return "POST", LLM_URL, params, body
        raise ProviderFailure(f"unknown provider kind {kind!r}")

    def _credential(self, name: str) -> str:
        value = self.credentials.get(name, "")
        if not value:
            raise ProviderFailure(f"missing credential {name}")
        return value


def credentials_from_env() -> dict[str, str]:
    names = (ENV_SEARCH_KEY, ENV_SEARCH_CX, ENV_FACTCHECK_KEY, ENV_LLM_KEY)
    return {name: os.environ.get(name, "") for name in names}


def _empty_body(kind: str) -> dict[str, Any]:
    if kind == KIND_WEB:
        return {"items": []}
    if kind == KIND_FACTCHECK:
        return {"claims": []}
    raise ProviderFailure("no recorded response for this generation request")


class FixtureBackend:
    """Replays the bodies recorded in ``<dir>/responses.jsonl``.

    The log is read once, when the backend is built, and strictly: a line
    that does not parse, or holds no ``request_hash`` and ``body`` object,
    is a broken recording, and ``SchemaError`` names ``responses.jsonl:<line>``;
    a missing log raises ``FileNotFoundError``. Unknown search requests
    replay as empty result sets; unknown generation requests fail, because
    silence is not a plausible model output.
    """

    def __init__(self, directory: str | Path):
        self._entries = dict(read_jsonl(Path(directory) / LOG_NAME, _entry))

    def fetch(self, kind: str, payload: dict[str, Any], digest: str | None = None) -> dict[str, Any]:
        body = self._entries.get(digest or request_hash(kind, payload))
        return _empty_body(kind) if body is None else body


def _entry(stored: Any) -> tuple[str, dict[str, Any]]:
    """The ``(request_hash, body)`` of a parsed log line; ``SchemaError``
    when the line holds no such pair."""
    if isinstance(stored, dict):
        digest, body = stored.get("request_hash"), stored.get("body")
        if isinstance(digest, str) and isinstance(body, dict):
            return digest, body
    raise SchemaError("a recorded response needs a request_hash and a body object")


def _log_line(digest: str, kind: str, payload: dict[str, Any], body: dict[str, Any], captured_at: str) -> bytes:
    """One compact log line, its keys sorted, ending in a newline."""
    record = {"request_hash": digest, "kind": kind, "captured_at": captured_at, "request": payload, "body": body}
    return (json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n").encode("utf-8")


def _append(log: Path, line: bytes) -> None:
    """Append ``line`` to ``log`` in a single write on an append-only
    descriptor, so concurrent writers never interleave."""
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        while line:  # one write unless the kernel takes only part of it
            line = line[os.write(fd, line):]
    finally:
        os.close(fd)


def write_cassette(
    directory: str | Path,
    kind: str,
    payload: dict[str, Any],
    body: dict[str, Any],
    captured_at: str = "",
) -> Path:
    """Record one response body as a line of ``<directory>/responses.jsonl``
    with ``_append``. Returns the log's path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    log = directory / LOG_NAME
    _append(log, _log_line(request_hash(kind, payload), kind, payload, body, captured_at))
    return log


class CachingBackend:
    """Persistent response cache in front of another backend.

    The cache is the log ``<directory>/responses.jsonl``, read once when the
    backend is built; the directory is created then too. Each miss appends
    one line with the same appender as ``write_cassette``, which opens the
    log, writes the line and closes it, so no descriptor is held between
    appends. A line that does not parse, or holds no body object (say, the
    last line of a run that was killed mid-write), is skipped: its request
    is a miss, answered again by the inner backend and appended whole.
    """

    def __init__(self, inner: Backend, directory: str | Path, clock: Clock | None = None):
        self.inner = inner
        self.log = Path(directory) / LOG_NAME
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock or SystemClock()
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()  # guards the entries, the counters and the appends
        self._entries: dict[str, dict[str, Any]] = {}
        self._needs_newline = False
        self._load()

    def _load(self) -> None:
        try:
            data = self.log.read_bytes()
        except FileNotFoundError:
            return
        # Split on b"\n" only: str.splitlines would also split on U+2028,
        # which ensure_ascii=False leaves unescaped inside a line.
        for line in data.split(b"\n"):
            try:
                digest, body = _entry(loads_line(line))
            except ValueError:  # SchemaError included
                continue
            self._entries[digest] = body
        self._needs_newline = bool(data) and not data.endswith(b"\n")

    def fetch(self, kind: str, payload: dict[str, Any], digest: str | None = None) -> dict[str, Any]:
        digest = digest or request_hash(kind, payload)
        with self._lock:
            body = self._entries.get(digest)
            if body is not None:
                self.hits += 1
                return body
            self.misses += 1
        body = self.inner.fetch(kind, payload, digest)
        line = _log_line(digest, kind, payload, body, self.clock.utc_instant())
        with self._lock:
            if self._needs_newline:  # a cut last line must not swallow this one
                line = b"\n" + line
                self._needs_newline = False
            _append(self.log, line)
            self._entries[digest] = body
        return body


def _object(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ProviderFailure(f"{what}: expected an object, got {type(value).__name__}")
    return value


def _list(obj: dict[str, Any], key: str) -> list[Any]:
    """``obj[key]`` as a list; ``[]`` when missing or null."""
    value = obj.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ProviderFailure(f"{key}: expected a list, got {type(value).__name__}")
    return value


def _optional(obj: dict[str, Any], key: str) -> str | None:
    """``obj[key]`` as a string, or None when missing or null."""
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise ProviderFailure(f"{key}: expected a string, got {type(value).__name__}")
    return value


def _text(obj: dict[str, Any], key: str) -> str:
    """``obj[key]`` as a string; ``""`` when missing or null."""
    return _optional(obj, key) or ""


def web_search(query: str, backend: Backend) -> list[WebResult]:
    body = _object(backend.fetch(KIND_WEB, WebSearchRequest(query).payload()), KIND_WEB)
    results = []
    for i, item in enumerate(_list(body, "items")[:WEB_RESULTS]):
        item = _object(item, "items")
        results.append(
            WebResult(
                rank=i + 1,
                title=_text(item, "htmlTitle") or _text(item, "title"),
                link=_text(item, "link"),
                snippet=_text(item, "htmlSnippet") or _text(item, "snippet"),
            )
        )
    return results


def factcheck_search(query: str, backend: Backend) -> list[ClaimReviewResult]:
    body = _object(backend.fetch(KIND_FACTCHECK, FactCheckRequest(query).payload()), KIND_FACTCHECK)
    results = []
    for claim in _list(body, "claims")[:FACTCHECK_PAGE_SIZE]:
        claim = _object(claim, "claims")
        reviews = _list(claim, "claimReview")
        if not reviews:
            continue
        review = _object(reviews[0], "claimReview")  # only the first review of each claim is kept
        publisher = _object(review.get("publisher") or {}, "publisher")
        results.append(
            ClaimReviewResult(
                rank=len(results) + 1,
                claim_text=_text(claim, "text"),
                claimant=_optional(claim, "claimant"),
                claim_date=_optional(claim, "claimDate"),
                publisher_name=_text(publisher, "name"),
                publisher_site=_text(publisher, "site"),
                textual_rating=_text(review, "textualRating"),
                review_date=_optional(review, "reviewDate"),
                review_url=_text(review, "url"),
            )
        )
    return results


def llm_generate(prompt: str, backend: Backend, digest: str | None = None) -> str:
    """The first candidate's text; ``digest``, when given, is the request's
    hash (see ``prompt_hasher``)."""
    body = _object(backend.fetch(KIND_LLM, LlmRequest(prompt).payload(), digest), KIND_LLM)
    candidates = _list(body, "candidates")
    if not candidates:
        raise ProviderFailure("generation response carries no candidates")
    content = _object(_object(candidates[0], "candidates").get("content") or {}, "content")
    return "".join(_text(_object(part, "parts"), "text") for part in _list(content, "parts"))

"""External service access: web search, fact-check search and text generation.

Three interchangeable backends expose the same ``fetch(kind, payload)``
surface returning the verbatim JSON response body:

* ``LiveBackend`` performs HTTP calls (credentials from ``EVD_*`` environment
  variables), retrying transport errors, 429 and 5xx responses up to
  ``MAX_RETRIES`` times with exponential backoff;
* ``FixtureBackend`` replays recorded response bodies from a directory keyed
  by request hash, for deterministic offline runs;
* ``CachingBackend`` wraps another backend with a persistent response cache
  using the same file format as fixtures.

The parsing helpers (``web_search``, ``factcheck_search``, ``llm_generate``)
sit on top of any backend, so cached, recorded and live responses go through
identical code.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol

from .clocks import Clock, FrozenClock, SystemClock  # FrozenClock re-exported for callers
from .records import CACHE_MODES, DEFAULT_MODEL, ClaimReviewResult, SchemaError, WebResult

KIND_WEB = "web_search"
KIND_FACTCHECK = "factcheck"
KIND_LLM = "llm"

ENV_SEARCH_KEY = "EVD_SEARCH_KEY"
ENV_SEARCH_CX = "EVD_SEARCH_CX"
ENV_FACTCHECK_KEY = "EVD_FACTCHECK_KEY"
ENV_LLM_KEY = "EVD_LLM_KEY"

WEB_SEARCH_URL = "https://www.googleapis.com/customsearch/v1"
FACTCHECK_URL = "https://factchecktools.googleapis.com/v1alpha1/claims:search"
LLM_URL_TEMPLATE = "https://generativelanguage.googleapis.com/v1beta/models/{model}:generateContent"

MAX_RETRIES = 3
BACKOFF_INITIAL = 0.5
BACKOFF_MULTIPLIER = 2.0


class ProviderFailure(RuntimeError):
    """A provider call failed for good after any retries."""


@dataclass(frozen=True)
class WebSearchRequest:
    query: str
    num: int = 5
    geo: str = "pt-BR"
    lang_restrict: str = "lang_pt"

    def payload(self) -> dict[str, Any]:
        return {"query": self.query, "num": self.num, "gl": self.geo, "lr": self.lang_restrict}


@dataclass(frozen=True)
class FactCheckRequest:
    query: str
    language_code: str = "pt-BR"
    page_size: int = 5

    def payload(self) -> dict[str, Any]:
        return {"query": self.query, "languageCode": self.language_code, "pageSize": self.page_size}


@dataclass(frozen=True)
class LlmRequest:
    prompt: str
    model: str = DEFAULT_MODEL
    safety_off: bool = True

    def payload(self) -> dict[str, Any]:
        return {"prompt": self.prompt, "model": self.model, "safety_off": self.safety_off}


def request_hash(kind: str, payload: dict[str, Any]) -> str:
    canonical = json.dumps({"kind": kind, "payload": payload}, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Backend(Protocol):
    def fetch(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]: ...


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

    def fetch(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]:
        method, url, params, body = self._build(kind, payload)
        delay = BACKOFF_INITIAL
        last_error = "no attempt made"
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                import logging  # only a retry logs, so only a retry loads logging

                logging.getLogger(__name__).warning("retrying %s call (attempt %d): %s", kind, attempt + 1, last_error)
                self.clock.sleep(delay)
                delay *= BACKOFF_MULTIPLIER
            self.attempts += 1
            try:
                status, text = self.transport(method, url, params, body)
            except Exception as exc:  # transport-level failure, retryable
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
            url = LLM_URL_TEMPLATE.format(model=payload["model"])
            params = {"key": self._credential(ENV_LLM_KEY)}
            body: dict[str, Any] = {"contents": [{"parts": [{"text": payload["prompt"]}]}]}
            if payload.get("safety_off"):
                body["safetySettings"] = [
                    {"category": cat, "threshold": "BLOCK_NONE"}
                    for cat in (
                        "HARM_CATEGORY_HARASSMENT",
                        "HARM_CATEGORY_HATE_SPEECH",
                        "HARM_CATEGORY_SEXUALLY_EXPLICIT",
                        "HARM_CATEGORY_DANGEROUS_CONTENT",
                    )
                ]
            return "POST", url, params, body
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
    """Replays recorded bodies from ``<dir>/<request_hash>.json`` files.

    Unknown search requests replay as empty result sets; unknown generation
    requests fail, because silence is not a plausible model output. A
    recorded file that does not parse, or holds no body, is a broken
    recording: ``SchemaError`` names it.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def fetch(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]:
        path = self.directory / f"{request_hash(kind, payload)}.json"
        try:
            return _read_body(path)
        except FileNotFoundError:
            return _empty_body(kind)
        except ValueError as exc:
            raise SchemaError(f"{path}: unreadable recorded response: {exc}") from None


def _read_body(path: Path) -> dict[str, Any]:
    """The ``body`` of the cassette at ``path``; ``ValueError`` when the
    file does not parse or holds no body object."""
    stored = json.loads(path.read_text(encoding="utf-8"))
    body = stored.get("body") if isinstance(stored, dict) else None
    if not isinstance(body, dict):
        raise ValueError("no response body")
    return body


def write_cassette(
    directory: str | Path,
    kind: str,
    payload: dict[str, Any],
    body: dict[str, Any],
    captured_at: str = "",
) -> Path:
    """Record one response body in the fixture/cache file format.

    The file is written under a name unique to this writer and then renamed
    onto its final path, so a reader never sees a half-written cassette:
    an interrupted write leaves no entry, and concurrent writers of the same
    entry each install a complete file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = request_hash(kind, payload)
    path = directory / f"{digest}.json"
    record = {
        "request_hash": digest,
        "kind": kind,
        "captured_at": captured_at,
        "request": payload,
        "body": body,
    }
    tmp = directory / f".{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        tmp.write_text(json.dumps(record, ensure_ascii=False, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


class CachingBackend:
    """Persistent response cache in front of another backend.

    An entry that does not parse, or holds no body (say, one cut short by an
    older writer), counts as a miss: the inner backend answers again and,
    in ``read_write`` mode, the entry is rewritten whole.
    """

    def __init__(self, inner: Backend, directory: str | Path, mode: str = "read_write", clock: Clock | None = None):
        if mode not in CACHE_MODES:
            raise ValueError(f"cache mode must be one of {CACHE_MODES}")
        self.inner = inner
        self.directory = Path(directory)
        self.mode = mode
        self.clock = clock or SystemClock()
        self.hits = 0
        self.misses = 0

    def fetch(self, kind: str, payload: dict[str, Any]) -> dict[str, Any]:
        if self.mode == "bypass":
            return self.inner.fetch(kind, payload)
        path = self.directory / f"{request_hash(kind, payload)}.json"
        try:
            body = _read_body(path)
        except (FileNotFoundError, ValueError):
            pass
        else:
            self.hits += 1
            return body
        self.misses += 1
        body = self.inner.fetch(kind, payload)
        if self.mode == "read_write":
            write_cassette(self.directory, kind, payload, body, self.clock.utc_instant())
        return body


def web_search(request: WebSearchRequest, backend: Backend) -> list[WebResult]:
    body = backend.fetch(KIND_WEB, request.payload())
    results = []
    for i, item in enumerate(body.get("items", [])[: request.num]):
        results.append(
            WebResult(
                rank=i + 1,
                title=item.get("htmlTitle") or item.get("title", ""),
                link=item.get("link", ""),
                snippet=item.get("htmlSnippet") or item.get("snippet", ""),
            )
        )
    return results


def factcheck_search(request: FactCheckRequest, backend: Backend) -> list[ClaimReviewResult]:
    body = backend.fetch(KIND_FACTCHECK, request.payload())
    results = []
    for claim in body.get("claims", [])[: request.page_size]:
        reviews = claim.get("claimReview") or []
        if not reviews:
            continue
        review = reviews[0]  # only the first review of each claim is kept
        publisher = review.get("publisher") or {}
        results.append(
            ClaimReviewResult(
                rank=len(results) + 1,
                claim_text=claim.get("text", ""),
                claimant=claim.get("claimant"),
                claim_date=claim.get("claimDate"),
                publisher_name=publisher.get("name", ""),
                publisher_site=publisher.get("site", ""),
                textual_rating=review.get("textualRating", ""),
                review_date=review.get("reviewDate"),
                review_url=review.get("url", ""),
            )
        )
    return results


def llm_generate(request: LlmRequest, backend: Backend) -> str:
    body = backend.fetch(KIND_LLM, request.payload())
    if "text" in body:
        return str(body["text"])
    candidates = body.get("candidates") or []
    if not candidates:
        raise ProviderFailure("generation response carries no candidates")
    parts = (candidates[0].get("content") or {}).get("parts") or []
    return "".join(str(p.get("text", "")) for p in parts)

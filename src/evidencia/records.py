"""Record types, enrichment funnel counts and line-delimited JSON I/O.

One record per line, UTF-8, keys sorted on output so that identical inputs
produce byte-identical files. Unknown fields found on disk are preserved in
``extra`` and written back on serialization.

``write_text`` is the one writer of output files: every record file,
sidecar, report and manifest goes through it, and it replaces a file whole
or not at all. ``read_jsonl`` is the one reader of record files.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

LABELS = ("fake", "true")
CORPORA = ("fakebr", "covid19br", "mumin_pt")
QUERY_KINDS = ("full_text", "first_sentence", "first_paragraph", "first_20_words")
ERROR_STAGES = ("initial_search", "claim_extraction", "claim_search", "factcheck_search", "classification")
ERROR_KINDS = ("provider_failure", "empty_results", "constraint_violation")
FACTCHECK_QUERY_USED = ("original", "claim", "none")

# Option vocabularies the CLI parser offers. They live here, with the other
# vocabularies, so that building the parser loads no module that acts on
# them; providers, claims and evalkit re-export the ones they use.
DEFAULT_MODEL = "gemini-1.5-flash"
PROMPT_PATTERNS = ("main", "detection", "role_framed", "query_extraction", "few_shot")
CONFIG_KINDS = ("original", "validated", "enriched_full", "enriched_filtered")

# The <b>...</b> highlight markers a search response puts in a result's
# title and snippet around the parts that matched the query.
MARKER_RE = re.compile(r"</?b>")

T = TypeVar("T")


class SchemaError(ValueError):
    """Raised when a record violates the on-disk contract."""


class ProviderFailure(RuntimeError):
    """A provider call failed for good after any retries."""


@dataclass(frozen=True)
class NewsItem:
    """A single labeled news text from one of the source corpora."""

    id: str
    corpus: str
    text: str
    label: str
    pair_id: str | None = None
    source_url: str | None = None
    published_at: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise SchemaError("record id must be a non-empty string")
        if self.corpus not in CORPORA:
            raise SchemaError(f"unknown corpus {self.corpus!r} for record {self.id}")
        if self.label not in LABELS:
            raise SchemaError(f"unknown label {self.label!r} for record {self.id}")
        if not isinstance(self.text, str):
            raise SchemaError(f"text must be a string for record {self.id}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "corpus": self.corpus,
            "text": self.text,
            "label": self.label,
        }
        if self.pair_id is not None:
            out["pair_id"] = self.pair_id
        if self.source_url is not None:
            out["source_url"] = self.source_url
        if self.published_at is not None:
            out["published_at"] = self.published_at
        if self.extra:
            out["extra"] = self.extra
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "NewsItem":
        if not isinstance(raw, dict):
            raise SchemaError(f"expected an object, got {type(raw).__name__}")
        known = {"id", "corpus", "text", "label", "pair_id", "source_url", "published_at", "extra"}
        extra = dict(raw.get("extra") or {})
        for key in raw:
            if key not in known:
                extra[key] = raw[key]
        try:
            return cls(
                id=str(raw["id"]),
                corpus=raw["corpus"],
                text=raw["text"],
                label=raw["label"],
                pair_id=raw.get("pair_id"),
                source_url=raw.get("source_url"),
                published_at=raw.get("published_at"),
                extra=extra,
            )
        except KeyError as exc:
            raise SchemaError(f"missing required field {exc.args[0]!r}") from None


def _check_strings(what: str, obj: Any, names: tuple[str, ...], optional: bool = False) -> None:
    """SchemaError unless each named field of ``obj`` is a string (or None,
    when ``optional``)."""
    for name in names:
        value = getattr(obj, name)
        if not (isinstance(value, str) or optional and value is None):
            raise SchemaError(f"{what} {name} must be a string, got {type(value).__name__}")


def _check_int(what: str, value: Any) -> None:
    """SchemaError unless ``value`` is an int (a bool, float or string is not)."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {type(value).__name__}")


def _score(value: Any) -> float:
    """A match score read from a file: an int or a float, as a float."""
    if type(value) not in (int, float):
        raise SchemaError(f"a match score must be a number, got {type(value).__name__}")
    return float(value)


@dataclass(frozen=True)
class WebResult:
    """One web search result; rank is 1-based within the response. Title
    and snippet keep the response's highlight markers (``MARKER_RE``)."""

    rank: int
    title: str
    link: str
    snippet: str

    def __post_init__(self) -> None:
        _check_int("web result rank", self.rank)
        _check_strings("web result", self, ("title", "link", "snippet"))

    def to_dict(self) -> dict[str, Any]:
        return {"rank": self.rank, "title": self.title, "link": self.link, "snippet": self.snippet}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "WebResult":
        return cls(
            rank=raw["rank"],
            title=raw.get("title", ""),
            link=raw.get("link", ""),
            snippet=raw.get("snippet", ""),
        )


@dataclass(frozen=True)
class ClaimReviewResult:
    """One fact-check review, the first review attached to a returned claim."""

    rank: int
    claim_text: str
    publisher_name: str
    publisher_site: str
    textual_rating: str
    review_url: str
    claimant: str | None = None
    claim_date: str | None = None
    review_date: str | None = None

    def __post_init__(self) -> None:
        _check_int("fact-check result rank", self.rank)
        _check_strings("fact-check result", self, ("claim_text", "publisher_name", "publisher_site",
                                                   "textual_rating", "review_url"))
        _check_strings("fact-check result", self, ("claimant", "claim_date", "review_date"), optional=True)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rank": self.rank,
            "claim_text": self.claim_text,
            "publisher_name": self.publisher_name,
            "publisher_site": self.publisher_site,
            "textual_rating": self.textual_rating,
            "review_url": self.review_url,
        }
        if self.claimant is not None:
            out["claimant"] = self.claimant
        if self.claim_date is not None:
            out["claim_date"] = self.claim_date
        if self.review_date is not None:
            out["review_date"] = self.review_date
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ClaimReviewResult":
        return cls(
            rank=raw["rank"],
            claim_text=raw.get("claim_text", ""),
            publisher_name=raw.get("publisher_name", ""),
            publisher_site=raw.get("publisher_site", ""),
            textual_rating=raw.get("textual_rating", ""),
            review_url=raw.get("review_url", ""),
            claimant=raw.get("claimant"),
            claim_date=raw.get("claim_date"),
            review_date=raw.get("review_date"),
        )


@dataclass(frozen=True)
class ErrorEvent:
    """A per-record pipeline error, kept on the record rather than raised."""

    stage: str
    kind: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.stage not in ERROR_STAGES:
            raise SchemaError(f"unknown error stage {self.stage!r}")
        if self.kind not in ERROR_KINDS:
            raise SchemaError(f"unknown error kind {self.kind!r}")
        _check_strings("error", self, ("detail",))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"stage": self.stage, "kind": self.kind}
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ErrorEvent":
        return cls(stage=raw["stage"], kind=raw["kind"], detail=raw.get("detail", ""))


@dataclass(frozen=True)
class EnrichedRecord:
    """A news item plus everything the enrichment flow attached to it.

    Exactly one of ``match_index`` and ``claim`` is populated unless claim
    extraction itself failed, in which case both are absent and ``errors``
    says why.
    """

    item: NewsItem
    query: str
    query_kind: str
    initial_results: list[WebResult] = field(default_factory=list)
    match_scores: list[float] = field(default_factory=list)
    match_index: int | None = None
    claim: str | None = None
    claim_enforced: bool = False
    claim_results: list[WebResult] | None = None
    factcheck_results: list[ClaimReviewResult] = field(default_factory=list)
    factcheck_query_used: str = "none"
    errors: list[ErrorEvent] = field(default_factory=list)
    timestamps: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_strings(f"record {self.item.id}", self, ("query",))
        _check_strings(f"record {self.item.id}", self, ("claim",), optional=True)
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in self.timestamps.items()):
            raise SchemaError(f"record {self.item.id} timestamps must map strings to strings")
        if self.query_kind not in QUERY_KINDS:
            raise SchemaError(f"unknown query kind {self.query_kind!r}")
        if self.factcheck_query_used not in FACTCHECK_QUERY_USED:
            raise SchemaError(f"unknown factcheck_query_used {self.factcheck_query_used!r}")
        if self.match_index is not None and self.claim is not None:
            raise SchemaError(f"record {self.item.id} has both match_index and claim")
        if self.match_index is not None:
            _check_int(f"record {self.item.id} match_index", self.match_index)
            if not 1 <= self.match_index <= len(self.initial_results):
                raise SchemaError(f"match_index {self.match_index} out of range for record {self.item.id}")
        if self.factcheck_query_used == "claim" and self.claim is None:
            raise SchemaError(f"record {self.item.id} used claim query without a claim")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "item": self.item.to_dict(),
            "query": self.query,
            "query_kind": self.query_kind,
            "initial_results": [r.to_dict() for r in self.initial_results],
            "match_scores": self.match_scores,
            "factcheck_results": [r.to_dict() for r in self.factcheck_results],
            "factcheck_query_used": self.factcheck_query_used,
        }
        if self.match_index is not None:
            out["match_index"] = self.match_index
        if self.claim is not None:
            out["claim"] = self.claim
            out["claim_enforced"] = self.claim_enforced
        if self.claim_results is not None:
            out["claim_results"] = [r.to_dict() for r in self.claim_results]
        if self.errors:
            out["errors"] = [e.to_dict() for e in self.errors]
        if self.timestamps:
            out["timestamps"] = self.timestamps
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "EnrichedRecord":
        claim_results = raw.get("claim_results")
        return cls(
            item=NewsItem.from_dict(raw["item"]),
            query=raw["query"],
            query_kind=raw["query_kind"],
            initial_results=[WebResult.from_dict(r) for r in raw.get("initial_results", [])],
            match_scores=[_score(s) for s in raw.get("match_scores", [])],
            match_index=raw.get("match_index"),
            claim=raw.get("claim"),
            claim_enforced=bool(raw.get("claim_enforced", False)),
            claim_results=None if claim_results is None else [WebResult.from_dict(r) for r in claim_results],
            factcheck_results=[ClaimReviewResult.from_dict(r) for r in raw.get("factcheck_results", [])],
            factcheck_query_used=raw.get("factcheck_query_used", "none"),
            errors=[ErrorEvent.from_dict(e) for e in raw.get("errors", [])],
            timestamps=dict(raw.get("timestamps", {})),
        )


def funnel(records: Iterable[EnrichedRecord]) -> dict[str, Any]:
    """Outcome counts of an enrichment run, recomputed from its records: the
    dict ``enrich`` writes to ``<out>.stats.json`` and ``analyze`` reports as
    ``funnel``. ``match_index_histogram`` counts direct matches per rank,
    keyed by the rank as a string, in rank order.

    It lives here rather than in ``enrichment`` so that ``analyze``, which
    recomputes it from a file, loads none of the enrichment stack.
    """
    counts = dict.fromkeys(("total", "matched_direct", "extraction_needed", "hard_failed", "claim_search_errors",
                            "factcheck_hits_original", "factcheck_hits_claim"), 0)
    ranks: dict[int, int] = {}
    for rec in records:
        counts["total"] += 1
        if rec.match_index is not None:
            counts["matched_direct"] += 1
            ranks[rec.match_index] = ranks.get(rec.match_index, 0) + 1
        elif rec.claim is not None:
            counts["extraction_needed"] += 1
        else:
            counts["hard_failed"] += 1
        if any(e.stage == "claim_search" and e.kind == "empty_results" for e in rec.errors):
            counts["claim_search_errors"] += 1
        if rec.factcheck_query_used == "original":
            counts["factcheck_hits_original"] += 1
        elif rec.factcheck_query_used == "claim":
            counts["factcheck_hits_claim"] += 1
    return {**counts, "match_index_histogram": {str(k): v for k, v in sorted(ranks.items())}}


def dumps_record(payload: dict[str, Any]) -> str:
    """Canonical single-line JSON used for every record file."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ": "))


def loads_line(line: bytes) -> Any:
    """The JSON value on one line of a record file.

    ValueError when the line is not UTF-8 or not JSON, or when a ``\\u``
    escape in it decodes to a lone surrogate, which no UTF-8 output can
    hold. A line without a ``\\u`` pays one substring search for it:
    ``rfind``, which tests the rarer backslash first and so takes half the
    time of ``in`` on Portuguese text.
    """
    text = line.decode("utf-8")
    value = json.loads(text)
    if text.rfind("\\u") >= 0:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a \\u escape gives a lone surrogate, which UTF-8 cannot encode") from None
    return value


def read_jsonl(path: str | Path, parse: Callable[[dict[str, Any]], T]) -> Iterator[T]:
    """Yield ``parse(obj)`` for the JSON object on each non-blank line.

    A line that ``loads_line`` refuses, that holds no JSON object, or that
    ``parse`` rejects with a ValueError (SchemaError among them), KeyError
    or TypeError (a missing field, or one of the wrong type), raises
    SchemaError naming the file and line. Lines end with ``\n`` or ``\r\n``.
    """
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = loads_line(line)
                if not isinstance(raw, dict):
                    raise SchemaError(f"expected an object, got {type(raw).__name__}")
                parsed = parse(raw)
            except (ValueError, KeyError, TypeError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            yield parsed


def read_news(path: str | Path) -> list[NewsItem]:
    return list(read_jsonl(path, NewsItem.from_dict))


def write_news(path: str | Path, items: Iterable[NewsItem]) -> None:
    write_jsonl(path, (item.to_dict() for item in items))


def read_enriched(path: str | Path) -> list[EnrichedRecord]:
    return list(read_jsonl(path, EnrichedRecord.from_dict))


def write_enriched(path: str | Path, records: Iterable[EnrichedRecord]) -> None:
    write_jsonl(path, (rec.to_dict() for rec in records))


def write_jsonl(path: str | Path, payloads: Iterable[dict[str, Any]]) -> None:
    """One canonical JSON object per line (see ``dumps_record``)."""
    write_text(path, (dumps_record(payload) + "\n" for payload in payloads))


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order to ``path`` as UTF-8 with ``\n`` line ends,
    creating the parent directory.

    The chunks go to ``.<name>.<pid>.partial`` beside ``path``, which
    ``os.replace`` puts in place once the last one is written; on any
    exception that file is removed. So ``path`` holds the old file or the
    whole new one, never a prefix, if the process is killed mid-write (a
    power loss is another matter: nothing is fsynced). The response log is
    the one file not written here: it is append-only, never rewritten or
    replaced, and ``providers._append`` adds to it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with partial.open("w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise

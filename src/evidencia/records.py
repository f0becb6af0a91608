"""Record types and line-delimited JSON I/O.

One record per line, UTF-8, keys sorted on output so that identical inputs
produce byte-identical files. Unknown fields found on disk are preserved in
``extra`` and written back on serialization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

LABELS = ("fake", "true")
CORPORA = ("fakebr", "covid19br", "mumin_pt")
QUERY_KINDS = ("full_text", "first_sentence", "first_paragraph", "first_20_words")
ERROR_STAGES = ("initial_search", "claim_extraction", "claim_search", "factcheck_search", "classification")
ERROR_KINDS = ("provider_failure", "empty_results", "constraint_violation")
FACTCHECK_QUERY_USED = ("original", "claim", "none")

# Option vocabularies the CLI parser offers. They live here, with the other
# vocabularies, so that building the parser loads no module that acts on
# them; providers, claims and evalkit re-export the ones they use.
CACHE_MODES = ("read_write", "read_only", "bypass")
DEFAULT_MODEL = "gemini-1.5-flash"
PROMPT_PATTERNS = ("main", "detection", "role_framed", "query_extraction", "few_shot")
MAX_CLAIM_WORDS = 20
CONFIG_KINDS = ("original", "validated", "enriched_full", "enriched_filtered")


class SchemaError(ValueError):
    """Raised when a record violates the on-disk contract."""


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


@dataclass(frozen=True)
class WebResult:
    """One web search result; rank is 1-based within the response."""

    rank: int
    title: str
    link: str
    snippet: str

    def to_dict(self) -> dict[str, Any]:
        return {"rank": self.rank, "title": self.title, "link": self.link, "snippet": self.snippet}

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "WebResult":
        return cls(
            rank=int(raw["rank"]),
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
            rank=int(raw["rank"]),
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
        if self.query_kind not in QUERY_KINDS:
            raise SchemaError(f"unknown query kind {self.query_kind!r}")
        if self.factcheck_query_used not in FACTCHECK_QUERY_USED:
            raise SchemaError(f"unknown factcheck_query_used {self.factcheck_query_used!r}")
        if self.match_index is not None and self.claim is not None:
            raise SchemaError(f"record {self.item.id} has both match_index and claim")
        if self.match_index is not None and not (1 <= self.match_index <= len(self.initial_results)):
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
            match_scores=[float(s) for s in raw.get("match_scores", [])],
            match_index=raw.get("match_index"),
            claim=raw.get("claim"),
            claim_enforced=bool(raw.get("claim_enforced", False)),
            claim_results=None if claim_results is None else [WebResult.from_dict(r) for r in claim_results],
            factcheck_results=[ClaimReviewResult.from_dict(r) for r in raw.get("factcheck_results", [])],
            factcheck_query_used=raw.get("factcheck_query_used", "none"),
            errors=[ErrorEvent.from_dict(e) for e in raw.get("errors", [])],
            timestamps=dict(raw.get("timestamps", {})),
        )


@dataclass
class FunnelStats:
    """Aggregate outcome counters of an enrichment run, always recomputable
    from the records.

    It lives here rather than in ``enrichment`` so that ``analyze``, which
    recomputes it from a file, loads none of the enrichment stack.
    """

    total: int = 0
    matched_direct: int = 0
    extraction_needed: int = 0
    hard_failed: int = 0
    claim_search_errors: int = 0
    factcheck_hits_original: int = 0
    factcheck_hits_claim: int = 0
    match_index_histogram: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: Iterable[EnrichedRecord]) -> "FunnelStats":
        stats = cls()
        for rec in records:
            stats.total += 1
            if rec.match_index is not None:
                stats.matched_direct += 1
                stats.match_index_histogram[rec.match_index] = (
                    stats.match_index_histogram.get(rec.match_index, 0) + 1
                )
            elif rec.claim is not None:
                stats.extraction_needed += 1
            else:
                stats.hard_failed += 1
            if any(e.stage == "claim_search" and e.kind == "empty_results" for e in rec.errors):
                stats.claim_search_errors += 1
            if rec.factcheck_query_used == "original":
                stats.factcheck_hits_original += 1
            elif rec.factcheck_query_used == "claim":
                stats.factcheck_hits_claim += 1
        return stats

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "matched_direct": self.matched_direct,
            "extraction_needed": self.extraction_needed,
            "hard_failed": self.hard_failed,
            "claim_search_errors": self.claim_search_errors,
            "factcheck_hits_original": self.factcheck_hits_original,
            "factcheck_hits_claim": self.factcheck_hits_claim,
            "match_index_histogram": {str(k): v for k, v in sorted(self.match_index_histogram.items())},
        }


def dumps_record(payload: dict[str, Any]) -> str:
    """Canonical single-line JSON used for every record file."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ": "))


def _iter_lines(path: Path) -> Iterator[tuple[int, str]]:
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def read_news(path: str | Path) -> list[NewsItem]:
    items = []
    for lineno, line in _iter_lines(Path(path)):
        try:
            items.append(NewsItem.from_dict(json.loads(line)))
        except (json.JSONDecodeError, SchemaError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return items


def write_news(path: str | Path, items: Iterable[NewsItem]) -> None:
    write_jsonl(path, (item.to_dict() for item in items))


def read_enriched(path: str | Path) -> list[EnrichedRecord]:
    records = []
    for lineno, line in _iter_lines(Path(path)):
        try:
            records.append(EnrichedRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, SchemaError, KeyError) as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return records


def write_enriched(path: str | Path, records: Iterable[EnrichedRecord]) -> None:
    write_jsonl(path, (rec.to_dict() for rec in records))


def write_jsonl(path: str | Path, payloads: Iterable[dict[str, Any]]) -> None:
    """One canonical JSON object per line (see ``dumps_record``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for payload in payloads:
            fh.write(dumps_record(payload))
            fh.write("\n")

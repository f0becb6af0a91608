"""The enrichment flow: search first, extract a claim only when needed.

Per record: build a query from the quote- and emoji-stripped text and run a
web search. When one of the five results matches strongly, store everything
and stop; otherwise extract a claim and search again with it. Independently,
query the fact-check service with the same query, falling back to the claim
when the original query returns no reviews and a claim exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .claims import MAX_CLAIM_WORDS, ClaimPromptTemplate, extract_claim, load_template
from .matching import first_match
from .providers import (
    DEFAULT_MODEL,
    Backend,
    Clock,
    FactCheckRequest,
    LlmRequest,
    ProviderFailure,
    SystemClock,
    WebSearchRequest,
    factcheck_search,
    llm_generate,
    web_search,
)
from .records import EnrichedRecord, ErrorEvent, NewsItem
from .textprep import build_query, strip_emoji, strip_quotes


@dataclass(frozen=True)
class EnrichConfig:
    max_claim_words: int = MAX_CLAIM_WORDS
    llm_model: str = DEFAULT_MODEL
    prompt_pattern: str = "main"


@dataclass
class FunnelStats:
    """Aggregate outcome counters, always recomputable from the records."""

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


def enrich_one(
    item: NewsItem,
    backend: Backend,
    cfg: EnrichConfig = EnrichConfig(),
    clock: Clock | None = None,
    template: ClaimPromptTemplate | None = None,
) -> EnrichedRecord:
    clock = clock or SystemClock()
    template = template or load_template(cfg.prompt_pattern)
    errors: list[ErrorEvent] = []
    timestamps: dict[str, str] = {}

    prepared = strip_emoji(strip_quotes(item.text))
    query, query_kind = build_query(prepared)

    try:
        results = web_search(WebSearchRequest(query=query), backend)
    except ProviderFailure as exc:
        results = []
        errors.append(ErrorEvent("initial_search", "provider_failure", str(exc)))
    timestamps["initial_search"] = clock.utc_instant()

    scores, match_index = first_match(query, results)

    claim = None
    claim_enforced = False
    claim_results = None
    if match_index is None:
        outcome = extract_claim(
            item.text,
            lambda prompt: llm_generate(LlmRequest(prompt=prompt, model=cfg.llm_model), backend),
            template=template,
            max_claim_words=cfg.max_claim_words,
        )
        timestamps["claim_extraction"] = clock.utc_instant()
        if outcome.error is not None:
            errors.append(outcome.error)
        claim = outcome.claim
        claim_enforced = outcome.enforced
        if claim is not None:
            try:
                claim_results = web_search(WebSearchRequest(query=claim), backend)
            except ProviderFailure as exc:
                claim_results = []
                errors.append(ErrorEvent("claim_search", "provider_failure", str(exc)))
            else:
                if not claim_results:
                    errors.append(ErrorEvent("claim_search", "empty_results", "claim search returned nothing"))
            timestamps["claim_search"] = clock.utc_instant()

    factcheck_results = []
    factcheck_query_used = "none"
    try:
        factcheck_results = factcheck_search(FactCheckRequest(query=query), backend)
    except ProviderFailure as exc:
        errors.append(ErrorEvent("factcheck_search", "provider_failure", str(exc)))
    if factcheck_results:
        factcheck_query_used = "original"
    elif claim is not None:
        try:
            fallback = factcheck_search(FactCheckRequest(query=claim), backend)
        except ProviderFailure as exc:
            fallback = []
            errors.append(ErrorEvent("factcheck_search", "provider_failure", str(exc)))
        if fallback:
            factcheck_results = fallback
            factcheck_query_used = "claim"
    timestamps["factcheck_search"] = clock.utc_instant()

    return EnrichedRecord(
        item=item,
        query=query,
        query_kind=query_kind,
        initial_results=results,
        match_scores=scores,
        match_index=match_index,
        claim=claim,
        claim_enforced=claim_enforced,
        claim_results=claim_results,
        factcheck_results=factcheck_results,
        factcheck_query_used=factcheck_query_used,
        errors=errors,
        timestamps=timestamps,
    )

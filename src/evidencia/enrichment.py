"""The enrichment flow: search first, extract a claim only when needed.

Per record: build a query from the text (``textprep.build_query``) and run
a web search. When one of the five results matches strongly, store everything
and stop; otherwise extract a claim and search again with it. Independently,
query the fact-check service with the same query, falling back to the claim
when the original query returns no reviews and a claim exists.
"""

from __future__ import annotations

from typing import Any, Callable

from .claims import ClaimPromptTemplate, extract_claim, load_template
from .clocks import Clock, SystemClock
from .matching import first_match
from .providers import Backend, factcheck_search, llm_generate, web_search
from .records import EnrichedRecord, ErrorEvent, NewsItem, ProviderFailure
from .textprep import build_query


def _search(
    search: Callable[[str, Backend], list[Any]], query: str, backend: Backend, stage: str, errors: list[ErrorEvent]
) -> list[Any] | None:
    """``search(query, backend)``, or None after recording a provider
    failure under ``stage``."""
    try:
        return search(query, backend)
    except ProviderFailure as exc:
        errors.append(ErrorEvent(stage, "provider_failure", str(exc)))
        return None


def enrich_one(item: NewsItem, backend: Backend, clock: Clock | None = None,
               template: ClaimPromptTemplate | None = None) -> EnrichedRecord:
    """Enrich one record; ``template`` defaults to the ``main`` claim prompt."""
    clock = clock or SystemClock()
    template = template or load_template()
    errors: list[ErrorEvent] = []
    timestamps: dict[str, str] = {}

    query, query_kind = build_query(item.text)

    results = _search(web_search, query, backend, "initial_search", errors) or []
    timestamps["initial_search"] = clock.utc_instant()

    scores, match_index = first_match(query, results)

    claim = None
    claim_enforced = False
    claim_results = None
    if match_index is None:
        outcome = extract_claim(item.text, lambda prompt: llm_generate(prompt, backend), template=template)
        timestamps["claim_extraction"] = clock.utc_instant()
        if outcome.error is not None:
            errors.append(outcome.error)
        claim = outcome.claim
        claim_enforced = outcome.enforced
        if claim is not None:
            claim_results = _search(web_search, claim, backend, "claim_search", errors)
            if claim_results == []:
                errors.append(ErrorEvent("claim_search", "empty_results", "claim search returned nothing"))
            claim_results = claim_results or []
            timestamps["claim_search"] = clock.utc_instant()

    factcheck_query_used = "none"
    factcheck_results = _search(factcheck_search, query, backend, "factcheck_search", errors) or []
    if factcheck_results:
        factcheck_query_used = "original"
    elif claim is not None:
        factcheck_results = _search(factcheck_search, claim, backend, "factcheck_search", errors) or []
        if factcheck_results:
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

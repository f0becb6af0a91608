"""Query-to-result match rule over highlighted search result fragments.

Search responses highlight the parts of a title or snippet that matched the
query using ``<b>...</b>`` markers. A result "matches" a query when at least
``MATCH_THRESHOLD`` (80%) of the query's unique non-stopword terms appear
among the highlighted tokens of that result (title and snippet pooled).
Terms are compared case-insensitively with punctuation trimmed from token
edges; accents are significant. A term split by markers
(``corona<b>vírus</b>``) still counts: token boundaries are taken on the
marker-free text and a token counts as highlighted when any part of it was
inside a marked span.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .records import MARKER_RE, WebResult
from .textprep import content_terms, trim_punct

_TOKEN_RE = re.compile(r"\S+")

MATCH_THRESHOLD = 0.8


def _scan(field: str) -> tuple[str, list[tuple[int, int]]]:
    """Remove markers; return (clean text, highlighted spans in clean text).

    A dangling ``<b>`` highlights through the end of the field; a stray
    ``</b>`` with no opener is dropped.
    """
    parts: list[str] = []
    spans: list[tuple[int, int]] = []
    pos = 0
    out = 0
    depth = 0
    span_start = 0
    for m in MARKER_RE.finditer(field):
        seg = field[pos : m.start()]
        parts.append(seg)
        out += len(seg)
        if m.group() == "<b>":
            if depth == 0:
                span_start = out
            depth += 1
        elif depth > 0:
            depth -= 1
            if depth == 0 and out > span_start:
                spans.append((span_start, out))
        pos = m.end()
    seg = field[pos:]
    parts.append(seg)
    out += len(seg)
    if depth > 0 and out > span_start:
        spans.append((span_start, out))
    return "".join(parts), spans


def _highlighted_terms(fields: Iterable[str]) -> set[str]:
    terms: set[str] = set()
    for field in fields:
        clean, spans = _scan(field)
        if not spans:
            continue
        for m in _TOKEN_RE.finditer(clean):
            if any(m.start() < b and a < m.end() for a, b in spans):
                term = trim_punct(m.group()).lower()
                if term:
                    terms.add(term)
    return terms


def query_terms(query: str) -> set[str]:
    """Unique non-stopword query terms, trimmed and lowercased."""
    return set(content_terms(query))


def _terms_score(terms: set[str], result: WebResult) -> float:
    """Fraction of ``terms`` among the result's highlighted tokens; an empty
    set scores 0, so stopword-only queries never match."""
    if not terms:
        return 0.0
    present = _highlighted_terms((result.title, result.snippet))
    return len(terms & present) / len(terms)


def first_match(query: str, results: Sequence[WebResult]) -> tuple[list[float], int | None]:
    """Per-result scores and the 1-based rank of the first strong match."""
    terms = query_terms(query)
    scores = [_terms_score(terms, r) for r in results]
    for i, score in enumerate(scores):
        if score >= MATCH_THRESHOLD:
            return scores, i + 1
    return scores, None

"""Descriptive statistics over corpora and enriched records."""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence

from . import resources
from .domains import aggregate_domain
from .records import EnrichedRecord, NewsItem
from .textprep import find_urls, split_sentences, word_tokens


def text_stats(items: Sequence[NewsItem]) -> dict[str, dict[str, float]]:
    """Per (corpus, label) group: record count, mean words per text, mean
    word length in characters, mean sentences per text, mean words per
    sentence, and the share of texts mentioning a URL."""
    groups: dict[tuple[str, str], list[NewsItem]] = {}
    for item in items:
        groups.setdefault((item.corpus, item.label), []).append(item)

    out: dict[str, dict[str, float]] = {}
    for (corpus, label), members in sorted(groups.items()):
        word_counts = []
        char_counts = []
        sentence_counts = []
        url_hits = 0
        for item in members:
            tokens = word_tokens(item.text)
            word_counts.append(len(tokens))
            char_counts.extend(len(t) for t in tokens)
            sentence_counts.append(len(split_sentences(item.text)))
            if find_urls(item.text):
                url_hits += 1
        n = len(members)
        total_sentences = sum(sentence_counts)
        out[f"{corpus}/{label}"] = {
            "records": n,
            "mean_words": sum(word_counts) / n,
            "mean_word_length": (sum(char_counts) / len(char_counts)) if char_counts else 0.0,
            "mean_sentences": total_sentences / n,
            "mean_words_per_sentence": (sum(word_counts) / total_sentences) if total_sentences else 0.0,
            "url_rate": url_hits / n,
        }
    return out


def domain_distribution(records: Sequence[EnrichedRecord]) -> dict[str, int]:
    """Aggregated result-domain counts across the initial and claim search
    results. Unparseable links count under ``invalid``."""
    counts: Counter[str] = Counter()
    for rec in records:
        for result in (*rec.initial_results, *(rec.claim_results or ())):
            counts[aggregate_domain(result.link)] += 1
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def rating_distribution(records: Sequence[EnrichedRecord]) -> dict[str, object]:
    """Counts of (publisher, normalized textual rating) plus the coarse
    true-versus-everything-else aggregate, whose ``true`` is a rating the
    rating map buckets as true, as validation's external label check reads it."""
    buckets = resources.rating_map()
    per_pair: Counter[tuple[str, str]] = Counter()
    aggregate = {"true": 0, "rest": 0}
    for rec in records:
        for review in rec.factcheck_results:
            rating = review.textual_rating.strip().lower()
            per_pair[(review.publisher_name, rating)] += 1
            aggregate["true" if buckets.get(rating) == "true" else "rest"] += 1
    table = [
        {"publisher": pub, "rating": rating, "count": count}
        for (pub, rating), count in sorted(per_pair.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return {"by_publisher_rating": table, "aggregate": aggregate}


def match_index_histogram(records: Sequence[EnrichedRecord]) -> dict[int, int]:
    """Direct matches per rank, in rank order."""
    return dict(sorted(Counter(rec.match_index for rec in records if rec.match_index is not None).items()))


def review_year_histogram(records: Sequence[EnrichedRecord]) -> tuple[dict[int, int], int]:
    """(reviews per year, count of reviews without a usable date)."""
    counts: Counter[int] = Counter()
    undated = 0
    for rec in records:
        for review in rec.factcheck_results:
            year = _year_of(review.review_date)
            if year is None:
                undated += 1
            else:
                counts[year] += 1
    return dict(sorted(counts.items())), undated


def _year_of(date_text: str | None) -> int | None:
    if not date_text:
        return None
    m = re.match(r"\s*(\d{4})", date_text)
    return int(m.group(1)) if m else None


def cluster_size_histogram(clusters: Iterable[Sequence[str]]) -> dict[int, int]:
    """Clusters per member count; each cluster is its list of member ids."""
    return dict(sorted(Counter(len(members) for members in clusters).items()))

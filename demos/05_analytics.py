"""Descriptive statistics over the enriched demo corpus."""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evidencia import analytics
from evidencia.clocks import FrozenClock
from evidencia.enrichment import enrich_one
from evidencia.langid import TrigramDetector
from evidencia.providers import FixtureBackend
from evidencia.records import read_news
from evidencia.validation import run_validation

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main():
    records = read_news(FIXTURES / "corpus.jsonl")
    validated, _ = run_validation(records, detector=TrigramDetector())
    backend = FixtureBackend(FIXTURES / "cassettes")
    enriched = [enrich_one(item, backend, clock=FrozenClock()) for item in validated]

    print("text statistics per corpus/label group")
    for group, stats in analytics.text_stats(validated).items():
        print(f"  {group:<18} n={stats['records']:<3.0f} "
              f"words/text={stats['mean_words']:.1f} "
              f"sentences/text={stats['mean_sentences']:.1f} "
              f"url rate={stats['url_rate']:.0%}")

    print("\nresult domains (aggregated, both search stages)")
    for domain, count in analytics.domain_distribution(enriched).items():
        print(f"  {domain:<28} {count}")

    print("\nfact-check ratings")
    ratings = analytics.rating_distribution(enriched)
    for row in ratings["by_publisher_rating"]:
        print(f"  {row['publisher']:<18} {row['rating']:<12} {row['count']}")
    print(f"  true vs rest: {ratings['aggregate']}")

    print("\nmatch position histogram (rank of the first accepted result)")
    for rank, count in analytics.match_index_histogram(enriched).items():
        print(f"  rank {rank}: {'#' * count} ({count})")


if __name__ == "__main__":
    main()

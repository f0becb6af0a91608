"""Evidence enrichment, replayed offline from recorded responses.

Each validated record is searched on the web; a result whose highlighted
terms cover enough of the query counts as a match. Unmatched records go
through LLM claim extraction and a second search. Fact-check reviews are
fetched for the original query, falling back to the claim when the
original finds nothing.
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evidencia.clocks import FrozenClock
from evidencia.enrichment import enrich_one
from evidencia.langid import TrigramDetector
from evidencia.providers import FixtureBackend
from evidencia.records import funnel, read_news
from evidencia.validation import run_validation

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def show(rec):
    print(f"\n{rec.item.id} ({rec.query_kind})")
    print(f"  query: {rec.query}")
    print(f"  match scores {['%.2f' % s for s in rec.match_scores]} -> index {rec.match_index}")
    if rec.claim is not None:
        enforced = " (length enforced)" if rec.claim_enforced else ""
        print(f"  claim{enforced}: {rec.claim}")
        if rec.claim_results:
            print(f"  claim search hit: {rec.claim_results[0].link}")
    if rec.factcheck_results:
        review = rec.factcheck_results[0]
        print(f"  fact-check ({rec.factcheck_query_used} query): "
              f"{review.publisher_name} says {review.textual_rating!r}")
    for event in rec.errors:
        print(f"  error at {event.stage}: {event.kind}")


def main():
    records = read_news(FIXTURES / "corpus.jsonl")
    validated, _ = run_validation(records, detector=TrigramDetector())
    backend = FixtureBackend(FIXTURES / "cassettes")
    clock = FrozenClock()

    enriched = [enrich_one(item, backend, clock=clock) for item in validated]
    print("funnel over the validated corpus")
    for key, value in funnel(enriched).items():
        print(f"  {key:<24} {value}")

    by_id = {r.item.id: r for r in enriched}
    show(by_id["true_0001"])   # direct match at rank 1
    show(by_id["cv_0001"])     # no match, claim path
    show(by_id["cv_0002"])     # fact-check found via the claim query
    show(by_id["cv_0014"])     # model unavailable, hard failure


if __name__ == "__main__":
    main()

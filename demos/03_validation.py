"""The validation pipeline, stage by stage.

Runs the full chain on the demo corpus: duplicate/URL/length filters,
language detection, contradiction flagging, paired-corpus rules and URL
stripping. Contested items are not removed; they land in a review queue,
and a second run shows an adjudicated decision being applied.
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evidencia.langid import TrigramDetector
from evidencia.records import read_news
from evidencia.validation import ReviewItem, run_validation

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main():
    records = read_news(FIXTURES / "corpus.jsonl")
    detector = TrigramDetector()
    validated, report = run_validation(records, detector=detector)

    print(f"input records  {report.input_count}")
    for stage, count in report.stage_counts().items():
        print(f"  {stage:<26} removed {count}")
    print(f"output records {report.output_count}")
    print(f"conservation holds: {report.conservation_holds()}")

    print("\nper-record removal reasons")
    for rec_id, reason in sorted(report.removal_reasons.items()):
        print(f"  {rec_id:<12} {reason}")

    print(f"\nreview queue ({len(report.review_items)} item(s), nothing auto-removed)")
    for item in report.review_items:
        print(f"  {item.id} {item.kind}: {', '.join(item.record_ids)} "
              f"(suggestion: {item.suggestion})")

    # adjudicate the first item and run again
    first = report.review_items[0]
    decided = ReviewItem.from_dict({
        **first.to_dict(),
        "decision": {"action": "remove", "ids": first.record_ids[:1]},
    })
    _, second = run_validation(records, detector=detector, decisions=[decided])
    print(f"\nafter deciding {first.id} (remove {first.record_ids[0]}):")
    print(f"  output records {second.output_count}")
    print(f"  reason: {second.removal_reasons[first.record_ids[0]]}")


if __name__ == "__main__":
    main()

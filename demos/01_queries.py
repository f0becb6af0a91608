"""How a record's text becomes a web-search query.

Short texts pass through whole. Longer ones fall back to the first
sentence, then the first paragraph, then a hard 20-word cut. Quotes and
emoji are stripped before the selection runs.
"""

from collections import Counter
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evidencia.records import read_news
from evidencia.textprep import build_query, strip_emoji, strip_quotes

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main():
    records = read_news(FIXTURES / "corpus.jsonl")
    kinds = Counter()
    picked = {}
    for item in records:
        query, kind = build_query(item.text)
        kinds[kind] += 1
        if not query.startswith("http"):
            picked.setdefault(kind, (item.id, query))

    print("selection branch counts over the demo corpus")
    for kind, count in kinds.most_common():
        print(f"  {kind:<16} {count}")

    print("\none example per branch")
    for kind, (rec_id, query) in picked.items():
        print(f"\n[{kind}] {rec_id}")
        print(f"  {query}")

    noisy = next(item for item in records if item.id == "cv_0017")
    print("\nquote and emoji stripping, record cv_0017")
    print(f"  before: {noisy.text}")
    print(f"  after:  {strip_emoji(strip_quotes(noisy.text))}")


if __name__ == "__main__":
    main()

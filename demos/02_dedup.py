"""Near-duplicate detection on the demo corpus.

One-permutation hashing with densification signs each text, and LSH
banding of the signatures nominates candidate pairs; every candidate is
confirmed against exact character-shingle Jaccard before it can form a
cluster, so the output carries no false positives.
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from evidencia.dedup import DedupConfig, MinHasher, exact_jaccard, near_duplicates, shingles
from evidencia.records import read_news

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def main():
    records = read_news(FIXTURES / "corpus.jsonl")
    texts = {item.id: item.text for item in records}
    cfg = DedupConfig()
    print(f"{len(texts)} texts, {cfg.num_permutations} bins, "
          f"{cfg.bands} bands, confirm at Jaccard >= {cfg.jaccard_threshold}")

    clusters = near_duplicates(texts, cfg)
    print(f"\n{len(clusters)} cluster(s) found")
    for cluster in clusters:
        print(f"\n  members: {', '.join(cluster.members)}")
        for a, b, j in cluster.pairs:
            print(f"    {a} ~ {b}  jaccard={j:.3f}")

    # signature agreement approximates the exact overlap
    a, b, exact = clusters[0].pairs[0]
    hasher = MinHasher(cfg)
    estimate = MinHasher.estimate(hasher.signature(texts[a]), hasher.signature(texts[b]))
    print(f"\nestimator check on {a} ~ {b}")
    print(f"  exact jaccard      {exact_jaccard(shingles(texts[a]), shingles(texts[b])):.3f}")
    print(f"  signature estimate {estimate:.3f}")


if __name__ == "__main__":
    main()

"""Near-duplicate detection: one-permutation hashing, LSH banding, exact
confirmation and clustering.

Texts are shingled into character 5-grams and signed by one-permutation
hashing (Li, Owen & Zhang, NeurIPS 2012) with optimal densification
(Shrivastava, ICML 2017). Each distinct shingle gets one 64-bit blake2b
value h, salted by the config's seed. With n = num_permutations bins, the
shingle falls in bin h % n with value h // n, and each bin keeps its
minimum. Two sets agree on a bin that both fill exactly when the smallest
value of their union there belongs to a shared shingle, so the fraction of
agreeing bins estimates the exact Jaccard similarity of the shingle sets.

A set leaves a bin empty when none of its shingles falls there, which is
common once a set has fewer shingles than a few times n. Each empty bin i
copies the first bin the set filled along i's probe order: a permutation of
all n bins that depends only on i and the seed, never on the set. Two sets
that fill the same bins therefore copy from the same bins, which keeps the
estimate unbiased, and the scan ends within n steps because a set that is
signed is never empty. `near_duplicates` builds one hasher per call. The
hasher keeps the (value, bin) pair of each distinct shingle it has seen and
the probe order of each bin it has filled: a shingle that many texts share
is hashed once per call, and the memo goes away with the call.

Candidate pairs come from banding the signatures. With b bands of r rows,
a pair of Jaccard J collides in at least one band with probability
1 - (1 - J^r)^b when the rows are independent. The default is b=25 bands of
r=4 rows. Its 50%-collision point, (1/b)^(1/r) ~ 0.45, lies below the 0.7
threshold but not far below it, so few candidates are hopeless and a pair
at the threshold is still found almost always. The price is a miss bound:
with independent rows a pair at exactly J=0.7 is missed with probability
(1 - 0.7^4)^25 ~ 1.0e-3, and one at J=0.8 with about 2e-6. Bins of one
permutation are not independent: a shingle fills one bin only, and an
empty bin copies a filled one. Measured at the default config on planted
pairs at J=0.7, the miss rate is 1.02e-3 for sets of 84 and 86 shingles
(400,000 pairs; about 43 of a set's 100 bins are empty), 5.2e-4 for sets
of about 255 (200,000 pairs) and 8.3e-4 for sets of about 850 (100,000
pairs): each at or below the formula's 1.04e-3. `TestMissRate` in
tests/test_dedup.py pins the first. b=50 bands of r=2 rows would miss at
J=0.7 with about 2e-15, but collide half the time already at J ~ 0.14; on
the benchmark corpora that sends 12 to 1,300 times as many candidates to
confirmation.

Every candidate is confirmed against exact Jaccard before clustering, so
reported clusters never contain a pair below the threshold: banding can
miss a pair, never invent one. Confirmation first skips a candidate whose
size ratio min(|A|,|B|) / max(|A|,|B|) is below the threshold. The
intersection is at most the smaller set and the union at least the larger,
so the ratio is an upper bound on Jaccard, and skipping on it loses no pair.
The bound stays a division, like Jaccard itself: correctly rounded division
is monotone, so a pair whose Jaccard lands exactly on the threshold also has
a rounded ratio at or above it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import combinations
from operator import eq
from typing import Iterable, Mapping

_WS_COLLAPSE = re.compile(r"\s+")
# Larger than every bin value h // n of a 64-bit h.
_EMPTY = 1 << 64

Signature = tuple[int, ...]


@dataclass(frozen=True)
class DedupConfig:
    shingle_size: int = 5
    num_permutations: int = 100
    bands: int = 25
    seed: int = 3
    jaccard_threshold: float = 0.7

    def __post_init__(self) -> None:
        for name in ("shingle_size", "num_permutations", "bands"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.num_permutations % self.bands != 0:
            raise ValueError("bands must divide num_permutations")
        if not 0.0 < self.jaccard_threshold <= 1.0:
            raise ValueError("jaccard_threshold must be in (0, 1]")

    @property
    def rows_per_band(self) -> int:
        return self.num_permutations // self.bands


@dataclass(frozen=True)
class DedupCluster:
    """A connected component of confirmed near-duplicate pairs."""

    members: tuple[str, ...]
    pairs: tuple[tuple[str, str, float], ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "members": list(self.members),
            "pairs": [{"a": a, "b": b, "jaccard": j} for a, b, j in self.pairs],
        }


def _canonical(text: str) -> str:
    return _WS_COLLAPSE.sub(" ", text.lower()).strip()


def shingles(text: str, size: int = 5) -> set[str]:
    """Character shingles of the lowercased, whitespace-collapsed text.

    Texts shorter than the shingle size yield the whole text as the single
    shingle (empty text yields the empty set).
    """
    canon = _canonical(text)
    if not canon:
        return set()
    if len(canon) < size:
        return {canon}
    return {canon[i : i + size] for i in range(len(canon) - size + 1)}


def exact_jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    common = len(a & b)
    return common / (len(a) + len(b) - common)


class MinHasher:
    """One-permutation hasher with optimal densification, keyed by the
    config's seed.

    The hasher remembers the (value, bin) pair of every shingle it has
    signed, and the probe order of every empty bin it has filled, so it
    should live no longer than one batch of texts.
    """

    def __init__(self, config: DedupConfig = DedupConfig()):
        self.config = config
        salt = blake2b(str(config.seed).encode(), digest_size=16).digest()
        self._shingle_hash = blake2b(digest_size=8, salt=salt)
        self._probe_hash = blake2b(digest_size=8, salt=salt, person=b"probe")
        self._bins: dict[str, tuple[int, int]] = {}
        self._probes: dict[int, list[int]] = {}

    def signature(self, text: str) -> Signature:
        """A tuple of num_permutations ints; raises on an empty text."""
        return self.signature_of_shingles(shingles(text, self.config.shingle_size))

    def signature_of_shingles(self, shingle_set: set[str]) -> Signature:
        """The signature of a non-empty shingle set."""
        if not shingle_set:
            raise ValueError("cannot sign an empty text")
        n = self.config.num_permutations
        bins = self._bins
        for s in shingle_set.difference(bins):
            h = self._shingle_hash.copy()
            h.update(s.encode())
            bins[s] = divmod(int.from_bytes(h.digest(), "little"), n)
        mins = [_EMPTY] * n
        for value, i in map(bins.__getitem__, shingle_set):
            if value < mins[i]:
                mins[i] = value
        if _EMPTY not in mins:
            return tuple(mins)
        return tuple(
            m if m != _EMPTY else next(mins[j] for j in self._probe_order(i) if mins[j] != _EMPTY)
            for i, m in enumerate(mins)
        )

    def _probe_order(self, i: int) -> list[int]:
        """Every bin, in an order that depends only on bin i and the seed.

        An empty bin copies the first bin in this order that the set
        filled; the set is not empty, so the scan ends within n steps.
        """
        order = self._probes.get(i)
        if order is None:
            def key(j: int) -> bytes:
                h = self._probe_hash.copy()
                h.update(f"{i} {j}".encode())
                return h.digest()

            order = self._probes[i] = sorted(range(self.config.num_permutations), key=key)
        return order

    @staticmethod
    def estimate(sig_a: Signature, sig_b: Signature) -> float:
        """Fraction of agreeing components; estimates exact Jaccard."""
        if len(sig_a) != len(sig_b):
            raise ValueError("signatures have different lengths")
        return sum(map(eq, sig_a, sig_b)) / len(sig_a)


def candidate_pairs(
    signatures: Mapping[str, Signature], config: DedupConfig = DedupConfig()
) -> set[tuple[str, str]]:
    """Identifier pairs that collide in at least one LSH band."""
    rows = config.rows_per_band
    buckets: dict[tuple[int, Signature], list[str]] = {}
    for key in sorted(signatures):
        sig = signatures[key]
        for band in range(config.bands):
            chunk = sig[band * rows : (band + 1) * rows]
            buckets.setdefault((band, chunk), []).append(key)
    pairs: set[tuple[str, str]] = set()
    for members in buckets.values():
        if len(members) > 1:
            for a, b in combinations(members, 2):
                pairs.add((a, b) if a <= b else (b, a))
    return pairs


def confirm_pairs(
    pairs: Iterable[tuple[str, str]],
    shingle_sets: Mapping[str, set[str]],
    config: DedupConfig = DedupConfig(),
) -> dict[tuple[str, str], float]:
    """Exact-Jaccard check of candidate pairs; keeps those at the threshold.

    A pair whose size ratio is below the threshold cannot reach it and is
    skipped without counting its intersection.
    """
    threshold = config.jaccard_threshold
    confirmed = {}
    for a, b in pairs:
        set_a, set_b = shingle_sets[a], shingle_sets[b]
        small, large = sorted((len(set_a), len(set_b)))
        if large and small / large < threshold:
            continue
        j = exact_jaccard(set_a, set_b)
        if j >= threshold:
            confirmed[(a, b)] = j
    return confirmed


def cluster(confirmed: Mapping[tuple[str, str], float]) -> list[DedupCluster]:
    """Connected components over confirmed pairs, ordered by first member."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in confirmed:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[str, list[str]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)

    pairs: dict[str, list[tuple[str, str, float]]] = {}
    for (a, b), j in sorted(confirmed.items()):
        pairs.setdefault(find(a), []).append((a, b, j))

    return [
        DedupCluster(members=tuple(sorted(groups[root])), pairs=tuple(pairs[root]))
        for root in sorted(groups)
    ]


def near_duplicates(
    texts: Mapping[str, str], config: DedupConfig = DedupConfig()
) -> list[DedupCluster]:
    """One-call pipeline: signatures, banding, confirmation, clustering."""
    hasher = MinHasher(config)
    shingle_sets = {key: shingles(text, config.shingle_size) for key, text in texts.items()}
    signatures = {
        key: hasher.signature_of_shingles(s) for key, s in shingle_sets.items() if s
    }
    candidates = candidate_pairs(signatures, config)
    confirmed = confirm_pairs(candidates, shingle_sets, config)
    return cluster(confirmed)

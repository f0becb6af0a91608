"""Near-duplicate detection: MinHash signatures, LSH banding, exact
confirmation and clustering.

Texts are shingled into character 5-grams. Each signature component is the
minimum of a 64-bit multiply-add hash over the shingle set, so component
agreement between two signatures estimates the exact Jaccard similarity of
the shingle sets. One draw per component suffices: an odd multiplier makes
the map a bijection on the 64-bit ring, so equal minima always come from the
same shingle. Candidate pairs come from banding the signatures; every
candidate is confirmed against exact Jaccard before clustering, so reported
clusters never contain a pair below the threshold.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

_WS_COLLAPSE = re.compile(r"\s+")


@dataclass(frozen=True)
class DedupConfig:
    shingle_size: int = 5
    num_permutations: int = 100
    bands: int = 50
    seed: int = 3
    jaccard_threshold: float = 0.7

    def __post_init__(self) -> None:
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
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _shingle_hashes(shingle_set: set[str]) -> np.ndarray:
    values = np.empty(len(shingle_set), dtype=np.uint64)
    for i, s in enumerate(sorted(shingle_set)):
        digest = hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest()
        values[i] = int.from_bytes(digest, "little")
    return values


class MinHasher:
    """Signature generator with parameters drawn from a fixed seed."""

    def __init__(self, config: DedupConfig = DedupConfig()):
        self.config = config
        rng = np.random.default_rng(config.seed)
        n = config.num_permutations
        draw = lambda: rng.integers(1, np.iinfo(np.uint64).max, size=n, dtype=np.uint64)
        # An odd multiplier keeps each map bijective on the 64-bit ring.
        self._a = draw() | np.uint64(1)
        self._b = draw()

    def signature(self, text: str) -> np.ndarray:
        """(num_permutations,) uint64 array; raises on empty texts."""
        shingle_set = shingles(text, self.config.shingle_size)
        if not shingle_set:
            raise ValueError("cannot sign an empty text")
        return self.signature_of_shingles(shingle_set)

    def signature_of_shingles(self, shingle_set: set[str]) -> np.ndarray:
        x = _shingle_hashes(shingle_set)
        with np.errstate(over="ignore"):
            return (self._a[:, None] * x[None, :] + self._b[:, None]).min(axis=1)

    @staticmethod
    def estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Fraction of agreeing components; estimates exact Jaccard."""
        if sig_a.shape != sig_b.shape:
            raise ValueError("signatures have different shapes")
        return float((sig_a == sig_b).mean())


def candidate_pairs(
    signatures: Mapping[str, np.ndarray], config: DedupConfig = DedupConfig()
) -> set[tuple[str, str]]:
    """Identifier pairs that collide in at least one LSH band."""
    rows = config.rows_per_band
    buckets: dict[tuple[int, bytes], list[str]] = {}
    for key in sorted(signatures):
        sig = signatures[key]
        for band in range(config.bands):
            chunk = sig[band * rows : (band + 1) * rows].tobytes()
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
    """Exact-Jaccard check of candidate pairs; keeps those at the threshold."""
    confirmed = {}
    for a, b in pairs:
        j = exact_jaccard(shingle_sets[a], shingle_sets[b])
        if j >= config.jaccard_threshold:
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

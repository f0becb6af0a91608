"""Near-duplicate detection: MinHash signatures, LSH banding, exact
confirmation and clustering.

Texts are shingled into character 5-grams. Each signature component is the
minimum of a 64-bit multiply-add hash over the blake2b values of the shingle
set, so component agreement between two signatures estimates the exact
Jaccard similarity of the shingle sets. One draw per component suffices: an
odd multiplier makes the map a bijection on the 64-bit ring, so equal minima
always come from the same shingle. The draws depend only on the config, so
they are made once per config and shared. `near_duplicates` builds one
hasher per call, and the hasher keeps the blake2b value of each distinct
shingle it has seen: a shingle that many texts share is hashed once per
call, and the memo goes away with the call.

Candidate pairs come from banding the signatures. With b bands of r rows,
a pair of Jaccard J collides in at least one band with probability
1 - (1 - J^r)^b. The default is b=25 bands of r=4 rows. Its 50%-collision
point, (1/b)^(1/r) ~ 0.45, lies below the 0.7 threshold but not far below
it, so few candidates are hopeless and a pair at the threshold is still
found almost always. The price is a miss bound: a pair at exactly J=0.7 is
missed with probability (1 - 0.7^4)^25 ~ 1.0e-3, and one at J=0.8 with
about 2e-6. b=50 bands of r=2 rows would miss at J=0.7 with about 2e-15,
but collide half the time already at J ~ 0.14; on the benchmark corpora
that sends 12 to 1,300 times as many candidates to confirmation.

Every candidate is confirmed against exact Jaccard before clustering, so
reported clusters never contain a pair below the threshold: banding can
miss a pair, never invent one. Confirmation first skips a candidate whose
size ratio min(|A|,|B|) / max(|A|,|B|) is below the threshold. The
intersection is at most the smaller set and the union at least the larger,
so the ratio is an upper bound on Jaccard, and skipping on it loses no pair.
The bound stays a division, like Jaccard itself: correctly rounded division
is monotone, so a pair whose Jaccard lands exactly on the threshold also has
a rounded ratio at or above it.

`analyze` imports this module for `DedupCluster`, but only `validate` and
`dedup` sign texts. numpy is therefore imported inside the two functions
that use it, and the other subcommands never load it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from hashlib import blake2b
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    import numpy as np

_WS_COLLAPSE = re.compile(r"\s+")


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


@lru_cache(maxsize=8)
def _permutations(config: DedupConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (num_permutations, 1) multipliers and offsets for a config."""
    import numpy as np

    rng = np.random.default_rng(config.seed)
    n = config.num_permutations
    draw = lambda: rng.integers(1, np.iinfo(np.uint64).max, size=n, dtype=np.uint64)
    # An odd multiplier keeps each map bijective on the 64-bit ring.
    a = (draw() | np.uint64(1))[:, None]
    b = draw()[:, None]
    a.flags.writeable = b.flags.writeable = False
    return a, b


class MinHasher:
    """Signature generator with parameters drawn from a fixed seed.

    The hasher remembers the blake2b value of every shingle it has signed,
    so it should live no longer than one batch of texts.
    """

    def __init__(self, config: DedupConfig = DedupConfig()):
        self.config = config
        self._a, self._b = _permutations(config)
        self._digests: dict[str, bytes] = {}

    def signature(self, text: str) -> np.ndarray:
        """(num_permutations,) uint64 array; raises on empty texts."""
        shingle_set = shingles(text, self.config.shingle_size)
        if not shingle_set:
            raise ValueError("cannot sign an empty text")
        return self.signature_of_shingles(shingle_set)

    def signature_of_shingles(self, shingle_set: set[str]) -> np.ndarray:
        import numpy as np

        digests = self._digests
        for s in shingle_set.difference(digests):
            digests[s] = blake2b(s.encode("utf-8"), digest_size=8).digest()
        x = np.frombuffer(b"".join(map(digests.__getitem__, shingle_set)), dtype="<u8")
        with np.errstate(over="ignore"):
            h = self._a * x
            h += self._b
        return h.min(axis=1)

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

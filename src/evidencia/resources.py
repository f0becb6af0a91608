"""Access to the data files shipped with the package.

Every table that influences pipeline output (stopwords, quote characters,
emoji ranges, abbreviations, rating map, social domains, public-suffix
snapshot, prompt templates) lives under ``evidencia/data`` so runs are
reproducible without network access. Loaders skip blank lines and lines
starting with ``#`` (``//`` for the public-suffix file, which keeps the
upstream format).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from importlib import resources as _importlib_resources

from .records import LABELS


def _root():
    return _importlib_resources.files("evidencia") / "data"


def resource_text(name: str) -> str:
    return (_root() / name).read_text(encoding="utf-8")


def resource_lines(name: str, comment: str = "#") -> list[str]:
    lines = []
    for raw in resource_text(name).splitlines():
        line = raw.strip()
        if line and not line.startswith(comment):
            lines.append(line)
    return lines


def resource_names() -> list[str]:
    """Relative paths of every shipped resource file, sorted."""
    names = []
    root = _root()

    def walk(node, prefix: str) -> None:
        for child in node.iterdir():
            rel = f"{prefix}{child.name}"
            if child.is_dir():
                walk(child, f"{rel}/")
            elif child.name.endswith((".txt", ".dat")):
                names.append(rel)

    walk(root, "")
    return sorted(names)


def resource_hashes() -> dict[str, str]:
    """SHA-256 of each shipped resource, recorded in run manifests."""
    out = {}
    for name in resource_names():
        digest = hashlib.sha256(resource_text(name).encode("utf-8")).hexdigest()
        out[name] = digest
    return out


@lru_cache(maxsize=None)
def stopwords() -> frozenset[str]:
    return frozenset(w.lower() for w in resource_lines("stopwords_pt.txt"))


@lru_cache(maxsize=None)
def quote_chars() -> frozenset[str]:
    chars = set()
    for line in resource_lines("quotes.txt"):
        code = line.split()[0]
        chars.add(chr(int(code, 16)))
    return frozenset(chars)


@lru_cache(maxsize=None)
def emoji_ranges() -> tuple[tuple[int, int], ...]:
    ranges = []
    for line in resource_lines("emoji_ranges.txt"):
        span = line.split()[0]
        start, end = span.split("-")
        ranges.append((int(start, 16), int(end, 16)))
    return tuple(sorted(ranges))


@lru_cache(maxsize=None)
def abbreviations() -> frozenset[str]:
    return frozenset(a.lower() for a in resource_lines("abbreviations_pt.txt"))


@lru_cache(maxsize=None)
def rating_map() -> dict[str, str]:
    mapping = {}
    for line in resource_lines("rating_map.txt"):
        rating, _, bucket = line.partition("=>")
        rating = rating.strip().lower()
        bucket = bucket.strip().lower()
        if not rating or bucket not in LABELS:
            raise ValueError(f"bad rating_map line: {line!r}")
        mapping[rating] = bucket
    return mapping


@lru_cache(maxsize=None)
def social_domains() -> frozenset[str]:
    return frozenset(d.lower() for d in resource_lines("social_domains.txt"))


@lru_cache(maxsize=None)
def public_suffix_rules() -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(plain rules, wildcard bases, exception rules) from the snapshot."""
    plain, wildcard, exception = set(), set(), set()
    for line in resource_lines("public_suffix.dat", comment="//"):
        rule = line.split()[0].lower()
        if rule.startswith("!"):
            exception.add(rule[1:])
        elif rule.startswith("*."):
            wildcard.add(rule[2:])
        else:
            plain.add(rule)
    return frozenset(plain), frozenset(wildcard), frozenset(exception)


def prompt_template(pattern: str) -> str:
    return resource_text(f"templates/{pattern}.txt")


@lru_cache(maxsize=None)
def language_seed(lang: str) -> str:
    return "\n".join(resource_lines(f"lang/{lang}.txt"))

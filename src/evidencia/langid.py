"""Language identification for the validation pipeline.

The pipeline only needs a detector contract: ``detect(text)`` returning a
``(language, confidence)`` pair with confidence in [0, 1]. Any detector can be
plugged in; the shipped baseline is a character-trigram naive Bayes scorer
over frozen Portuguese, Spanish and English seed profiles, with confidence
defined as the posterior of the winning language under a uniform prior. It
reads the first ``MAX_CHARS`` (4000) characters of a text and smooths
trigram counts additively with ``ALPHA`` (0.5).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Protocol

from . import resources

LANGUAGES = ("pt", "es", "en")
UNKNOWN = "und"
ALPHA = 0.5
MAX_CHARS = 4000

_LETTERS_RE = re.compile(r"[^a-zà-öø-ÿ]+")


class LanguageDetector(Protocol):
    def detect(self, text: str) -> tuple[str, float]: ...


def _normalize(text: str) -> str:
    text = _LETTERS_RE.sub(" ", text.lower()).strip()
    return f" {text} " if text else ""


def _trigrams(text: str) -> Counter[str]:
    counts: Counter[str] = Counter()
    for i in range(len(text) - 2):
        counts[text[i : i + 3]] += 1
    return counts


class TrigramDetector:
    """Character-trigram scorer over the shipped seed texts."""

    def __init__(self) -> None:
        self._profiles: dict[str, Counter[str]] = {}
        self._totals: dict[str, int] = {}
        vocab: set[str] = set()
        for lang in LANGUAGES:
            counts = _trigrams(_normalize(resources.language_seed(lang)))
            self._profiles[lang] = counts
            self._totals[lang] = sum(counts.values())
            vocab.update(counts)
        self._vocab_size = len(vocab) + 1

    def detect(self, text: str) -> tuple[str, float]:
        grams = _trigrams(_normalize(text[:MAX_CHARS]))
        if not grams:
            return UNKNOWN, 0.0
        logs = {}
        for lang in LANGUAGES:
            profile = self._profiles[lang]
            denom = self._totals[lang] + ALPHA * self._vocab_size
            total = 0.0
            for gram, n in grams.items():
                total += n * math.log((profile.get(gram, 0) + ALPHA) / denom)
            logs[lang] = total
        best = max(logs, key=lambda lang: logs[lang])
        peak = logs[best]
        evidence = sum(math.exp(value - peak) for value in logs.values())
        return best, 1.0 / evidence


class FixedDetector:
    """Test and override helper: answers from a mapping, else a default."""

    def __init__(self, answers: dict[str, tuple[str, float]], default: tuple[str, float] = ("pt", 1.0)):
        self.answers = dict(answers)
        self.default = default

    def detect(self, text: str) -> tuple[str, float]:
        return self.answers.get(text, self.default)

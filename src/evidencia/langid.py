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
    return Counter([text[i : i + 3] for i in range(len(text) - 2)])


class TrigramDetector:
    """Character-trigram scorer over the shipped seed texts.

    The smoothed log-probability ``log((count + ALPHA) / denom)`` of every
    seed trigram, and the one value ``log(ALPHA / denom)`` that every unseen
    trigram shares, are computed once per language here, so ``detect`` only
    looks them up.
    """

    def __init__(self) -> None:
        profiles = {lang: _trigrams(_normalize(resources.language_seed(lang))) for lang in LANGUAGES}
        vocab_size = len(set().union(*profiles.values())) + 1
        self._log_probs: dict[str, dict[str, float]] = {}
        self._unseen: dict[str, float] = {}
        for lang, counts in profiles.items():
            denom = sum(counts.values()) + ALPHA * vocab_size
            self._log_probs[lang] = {gram: math.log((n + ALPHA) / denom) for gram, n in counts.items()}
            self._unseen[lang] = math.log(ALPHA / denom)

    def detect(self, text: str) -> tuple[str, float]:
        grams = _trigrams(_normalize(text[:MAX_CHARS]))
        if not grams:
            return UNKNOWN, 0.0
        logs = {}
        for lang in LANGUAGES:
            log_prob = self._log_probs[lang].get
            unseen = self._unseen[lang]
            total = 0.0
            for gram, n in grams.items():
                total += n * log_prob(gram, unseen)
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

"""Language detection over the shipped trigram profiles."""

import math
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from evidencia import resources
from evidencia.langid import ALPHA, LANGUAGES, MAX_CHARS, TrigramDetector, _normalize, _trigrams

from oracles import FixedDetector


@lru_cache(maxsize=None)
def _seed_profiles():
    profiles = {lang: _trigrams(_normalize(resources.language_seed(lang))) for lang in LANGUAGES}
    vocab_size = len(set().union(*profiles.values())) + 1
    return profiles, vocab_size


def per_trigram_detect(text):
    """The naive Bayes score written out: one log per trigram and language."""
    profiles, vocab_size = _seed_profiles()
    grams = _trigrams(_normalize(text[:MAX_CHARS]))
    if not grams:
        return "und", 0.0
    logs = {}
    for lang in LANGUAGES:
        profile = profiles[lang]
        denom = sum(profile.values()) + ALPHA * vocab_size
        total = 0.0
        for gram, n in grams.items():
            total += n * math.log((profile.get(gram, 0) + ALPHA) / denom)
        logs[lang] = total
    best = max(logs, key=lambda lang: logs[lang])
    return best, 1.0 / sum(math.exp(value - logs[best]) for value in logs.values())


_SEED_LETTERS = "".join(sorted(set(_normalize(" ".join(resources.language_seed(lang) for lang in LANGUAGES)))))


def per_position_trigrams(text):
    """Trigram counts written out: one increment per position."""
    counts = {}
    for i in range(len(text) - 2):
        counts[text[i : i + 3]] = counts.get(text[i : i + 3], 0) + 1
    return counts


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=200), st.text(alphabet=" abcãé", max_size=200)))
def test_trigram_counts_and_first_seen_order(text):
    # detect sums over the counts in this order, so the order fixes its floats.
    assert list(_trigrams(text).items()) == list(per_position_trigrams(text).items())


class TestTrigramDetector:
    def test_portuguese(self, detector):
        lang, conf = detector.detect(
            "O governo anunciou nesta semana novas medidas de saúde para todo o país."
        )
        assert lang == "pt"
        assert conf > 0.9

    def test_english(self, detector):
        lang, conf = detector.detect(
            "The government announced this week a set of new health measures for the country."
        )
        assert lang == "en"
        assert conf > 0.9

    def test_spanish(self, detector):
        lang, conf = detector.detect(
            "El gobierno anunció esta semana nuevas medidas de salud para todo el país."
        )
        assert lang == "es"
        assert conf > 0.9

    def test_empty_text_is_unknown(self, detector):
        assert detector.detect("") == ("und", 0.0)

    def test_confidence_is_a_probability(self, detector):
        for text in ("vacina hoje", "short thing", "qué pasa", "123 456"):
            _, conf = detector.detect(text)
            assert 0.0 <= conf <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(max_size=200), st.text(alphabet=_SEED_LETTERS + ".,!?0123456789ÁÉ", max_size=600)))
    def test_matches_the_per_trigram_formula(self, detector, text):
        assert detector.detect(text) == per_trigram_detect(text)

    def test_deterministic(self, detector):
        text = "As escolas da cidade voltam às aulas na próxima segunda-feira."
        assert detector.detect(text) == TrigramDetector().detect(text)


class TestFixedDetector:
    def test_answers_from_mapping(self):
        det = FixedDetector({"hello": ("en", 0.99)})
        assert det.detect("hello") == ("en", 0.99)

    def test_default_for_unknown(self):
        det = FixedDetector({}, default=("pt", 1.0))
        assert det.detect("qualquer coisa") == ("pt", 1.0)

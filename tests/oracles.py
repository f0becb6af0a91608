"""Independent reference implementations used to cross-check the library.

Everything here re-derives an answer from first principles: brute force,
closed-form algebra, or a literal transcription of the documented procedure.
Nothing imports the code under test, so agreement between the two sides is
meaningful. Slow is fine; these only run in tests. The test doubles at the
end stand in for a library component whose answers a test wants to fix.
"""

from __future__ import annotations

import re
from itertools import combinations

# ---------------------------------------------------------------- queries

# Texts produced by make_query_text keep sentence boundaries unambiguous
# (single terminator, then a space), so this transcription and the real
# splitter cannot disagree about where a sentence ends.
_SENT_END = re.compile(r"[.!?…](?=\s)")


def reference_query(text: str) -> tuple[str, str]:
    """Transcription of the search-reference selection procedure:
    whole text up to 20 words; else the first sentence when it has at
    least 7 words; else the first paragraph when it has at least 20;
    else the first 20 words."""
    text = text.strip()
    words = text.split()
    if len(words) <= 20:
        return text, "full_text"
    m = _SENT_END.search(text)
    first_sentence = text[: m.end()].strip() if m else text
    if len(first_sentence.split()) >= 7:
        return first_sentence, "first_sentence"
    first_paragraph = re.split(r"\n+", text)[0].strip()
    if len(first_paragraph.split()) >= 20:
        return first_paragraph, "first_paragraph"
    return " ".join(words[:20]), "first_20_words"


_LEXICON = (
    "governo vacina cidade saúde notícia mensagem grupo família semana país "
    "hospital médico estudo pesquisa prefeitura banco escola região dose fila "
    "campanha boato vídeo foto rede aplicativo conta dinheiro imposto decreto "
    "água coco chá remédio exame teste positivo negativo verdadeiro falso "
    "município orçamento distribuição atenção informação"
).split()


def make_query_text(rng) -> str:
    """Random text from the family the query differential runs on.

    Shapes are drawn to hit every branch: short passthroughs, long texts
    with a long or short opening sentence, paragraph splits, and texts with
    no terminator at all.
    """
    def words(n):
        return " ".join(rng.choice(_LEXICON) for _ in range(n))

    shape = rng.randrange(6)
    if shape == 0:  # short passthrough, maybe multi-sentence
        return words(rng.randint(1, 20))
    if shape == 1:  # long first sentence
        head = words(rng.randint(7, 30))
        return f"{head}{rng.choice('.!?')} " + words(rng.randint(5, 40))
    if shape == 2:  # short exclamation, long single paragraph
        return f"{words(rng.randint(1, 6))}! " + words(rng.randint(25, 60))
    if shape == 3:  # short first sentence and short first paragraph
        return (f"{words(rng.randint(1, 6))}!\n\n"
                + words(rng.randint(25, 60)))
    if shape == 4:  # no terminator anywhere, >20 words
        return words(rng.randint(21, 60))
    # several sentences, first one long enough
    parts = [f"{words(rng.randint(7, 18))}." for _ in range(rng.randint(2, 4))]
    return " ".join(parts)


# ------------------------------------------------------------ deduplication

def ref_shingles(text: str, size: int = 5) -> frozenset[str]:
    canon = " ".join(text.lower().split())
    if not canon:
        return frozenset()
    if len(canon) < size:
        return frozenset([canon])
    return frozenset(canon[i : i + size] for i in range(len(canon) - size + 1))


def ref_jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def ref_near_pairs(texts: dict[str, str], threshold: float, size: int = 5) -> dict[tuple[str, str], float]:
    """Every pair at or above the threshold, by exhaustive comparison."""
    sets = {k: ref_shingles(t, size) for k, t in texts.items()}
    out = {}
    for a, b in combinations(sorted(texts), 2):
        j = ref_jaccard(sets[a], sets[b])
        if j >= threshold:
            out[(a, b)] = j
    return out


def ref_band_pairs(signatures: dict[str, tuple[int, ...]], bands: int) -> set[tuple[str, str]]:
    """Every pair whose signatures agree on all rows of some band, with the
    buckets of every band built at once, keyed by (band, chunk)."""
    buckets: dict[tuple[int, tuple[int, ...]], list[str]] = {}
    for key, sig in signatures.items():
        rows = len(sig) // bands
        for band in range(bands):
            buckets.setdefault((band, sig[band * rows : (band + 1) * rows]), []).append(key)
    return {tuple(sorted(pair)) for members in buckets.values() for pair in combinations(members, 2)}


# ----------------------------------------------------------------- metrics

def ref_metrics(gold: list[str], predicted: list[str | None]) -> dict:
    """Accuracy and macro-F1 from precision/recall algebra.

    An abstention (None) is simply a wrong answer: it never counts as a
    positive prediction for either class, but its gold instance stays in
    the recall denominator. Undefined precision/recall/F1 terms are 0.
    """
    assert len(gold) == len(predicted) and gold
    correct = sum(1 for g, p in zip(gold, predicted) if p == g)

    def f1_for(label: str) -> float:
        tp = sum(1 for g, p in zip(gold, predicted) if g == label and p == label)
        pred_pos = sum(1 for p in predicted if p == label)
        gold_pos = sum(1 for g in gold if g == label)
        precision = tp / pred_pos if pred_pos else 0.0
        recall = tp / gold_pos if gold_pos else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    return {
        "accuracy": correct / len(gold),
        "macro_f1": (f1_for("fake") + f1_for("true")) / 2,
        "abstentions": sum(1 for p in predicted if p is None),
    }


# ------------------------------------------------------------- test doubles

class FixedDetector:
    """Language detector that answers from a mapping, else a default."""

    def __init__(self, answers: dict[str, tuple[str, float]], default: tuple[str, float] = ("pt", 1.0)):
        self.answers = dict(answers)
        self.default = default

    def detect(self, text: str) -> tuple[str, float]:
        return self.answers.get(text, self.default)

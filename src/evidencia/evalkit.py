"""Split, data configurations, few-shot classification and scoring.

The split is pair-preserving: records sharing a ``pair_id`` travel as one
unit, so a fake/true pair never straddles two slices. Classification uses a
fixed base prompt, exactly 15 labeled shots and a strict tag protocol; an
answer that contains neither tag is an abstention and scores as incorrect.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from . import resources
from .domains import registrable_domain
from .matching import _MARKER_RE
from .records import CONFIG_KINDS, EnrichedRecord, ErrorEvent, NewsItem

SHOT_COUNT = 15

TAG_FAKE = "FAKE NEWS"
TAG_TRUE = "VERDADEIRO"

BASE_PROMPT = (
    "A seguir são apresentados textos de mensagens e notícias em português. "
    "Sua tarefa é classificar cada texto como contendo uma Fake News ou como sendo VERDADEIRO."
)
CONTEXT_CLAUSE = (
    "Para auxiliar na classificação, será também fornecido um contexto extra, "
    "correspondente a uma busca no Google pelos termos do texto a ser classificado."
)
ANSWER_INSTRUCTION = 'Responda apenas com uma das seguintes tags: "FAKE NEWS" ou "VERDADEIRO".'

_WS_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class SplitSpec:
    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0
    pair_preserving: bool = True

    def __post_init__(self) -> None:
        if min(self.train, self.val, self.test) < 0:
            raise ValueError("split ratios must be non-negative")
        if abs(self.train + self.val + self.test - 1.0) > 1e-9:
            raise ValueError("split ratios must sum to 1")


def split(
    items: Sequence[NewsItem], spec: SplitSpec = SplitSpec()
) -> tuple[list[NewsItem], list[NewsItem], list[NewsItem]]:
    """Deterministic (train, val, test) split over pair-preserving units.

    Slice sizes match the ratios to within one unit. The unit order is
    canonicalized before shuffling, so the outcome depends only on the
    record set and the seed, not on input file order.
    """
    units: dict[str, list[NewsItem]] = {}
    for item in items:
        if spec.pair_preserving and item.corpus == "fakebr" and not item.pair_id:
            raise ValueError(f"record {item.id}: fakebr record without pair_id")
        key = f"pair:{item.pair_id}" if (spec.pair_preserving and item.pair_id) else f"solo:{item.id}"
        units.setdefault(key, []).append(item)

    unit_keys = sorted(units)
    rng = random.Random(spec.seed)
    rng.shuffle(unit_keys)

    n = len(unit_keys)
    n_val = round(spec.val * n)
    n_test = round(spec.test * n)
    n_train = n - n_val - n_test
    bounds = (unit_keys[:n_train], unit_keys[n_train : n_train + n_val], unit_keys[n_train + n_val :])
    slices = []
    for keys in bounds:
        members = [item for key in keys for item in units[key]]
        members.sort(key=lambda item: item.id)
        slices.append(members)
    return slices[0], slices[1], slices[2]


@dataclass(frozen=True)
class DataConfiguration:
    """One of the four experiment data settings.

    ``context_source`` is derived from the kind: plain kinds attach no
    context, enriched kinds attach the first (optionally social-filtered)
    search result plus the first fact-check rating.
    """

    kind: str
    social_domains: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in CONFIG_KINDS:
            raise ValueError(f"unknown configuration {self.kind!r}; choose from {CONFIG_KINDS}")
        if self.kind == "enriched_filtered" and self.social_domains is None:
            object.__setattr__(self, "social_domains", frozenset(resources.social_domains()))

    @property
    def context_source(self) -> str:
        if self.kind in ("original", "validated"):
            return "none"
        return "first_result_no_social" if self.kind == "enriched_filtered" else "first_result"


@dataclass(frozen=True)
class EvalInstance:
    """One classification example: text, optional context, gold label."""

    id: str
    text: str
    label: str
    context: str = ""


def _clean_field(text: str) -> str:
    return _WS_RE.sub(" ", _MARKER_RE.sub("", text)).strip()


def _pick_result(rec: EnrichedRecord, social: frozenset[str] | None):
    pool = rec.claim_results if rec.claim is not None and rec.claim_results else rec.initial_results
    for result in pool:
        if social is not None:
            domain = registrable_domain(result.link)
            if domain and domain in social:
                continue
        return result
    return None


def _context_for(rec: EnrichedRecord, social: frozenset[str] | None) -> str:
    lines = []
    result = _pick_result(rec, social)
    if result is not None:
        lines.append(_clean_field(f"{result.title} {result.snippet}"))
    if rec.factcheck_results:
        review = rec.factcheck_results[0]
        lines.append(f"Checagem ({review.publisher_name}): {review.textual_rating}")
    return "\n".join(lines)


def build_config(
    records: Sequence[NewsItem] | Sequence[EnrichedRecord],
    cfg: DataConfiguration | str,
) -> list[EvalInstance]:
    """Materialize a data configuration as classification instances.

    ``original`` and ``validated`` take plain news items and attach no
    context. The enriched kinds take enriched records; the context is the
    marker-stripped title+snippet of the first web result (claim-search
    result when the claim path fired), then a rating line for the first
    fact-check review. Records without results get empty context.
    """
    if isinstance(cfg, str):
        cfg = DataConfiguration(cfg)
    instances = []
    if cfg.context_source == "none":
        for item in records:
            if not isinstance(item, NewsItem):
                raise TypeError(f"configuration {cfg.kind} takes plain news records")
            instances.append(EvalInstance(id=item.id, text=item.text, label=item.label))
        return instances
    social = cfg.social_domains if cfg.kind == "enriched_filtered" else None
    for rec in records:
        if not isinstance(rec, EnrichedRecord):
            raise TypeError(f"configuration {cfg.kind} takes enriched records")
        instances.append(
            EvalInstance(
                id=rec.item.id,
                text=rec.item.text,
                label=rec.item.label,
                context=_context_for(rec, social),
            )
        )
    return instances


def select_shots(train: Sequence[EvalInstance], seed: int = 0) -> list[EvalInstance]:
    """Seeded draw of the fixed ``SHOT_COUNT`` shots from the training slice."""
    if len(train) < SHOT_COUNT:
        raise ValueError(f"need at least {SHOT_COUNT} training instances, got {len(train)}")
    rng = random.Random(seed)
    pool = sorted(train, key=lambda inst: inst.id)
    return rng.sample(pool, SHOT_COUNT)


def classification_prompt(target: EvalInstance, shots: Sequence[EvalInstance]) -> str:
    """Base prompt (context clause only when the target has context), the
    shot blocks, then the target with its answer left open."""
    if len(shots) != SHOT_COUNT:
        raise ValueError(f"exactly {SHOT_COUNT} shots are required, got {len(shots)}")
    header = [BASE_PROMPT]
    if target.context:
        header.append(CONTEXT_CLAUSE)
    header.append(ANSWER_INSTRUCTION)
    blocks = ["\n\n".join(header)]
    for shot in shots:
        blocks.append(_instance_block(shot, answer=TAG_FAKE if shot.label == "fake" else TAG_TRUE))
    blocks.append(_instance_block(target, answer=None))
    return "\n\n".join(blocks)


def _instance_block(inst: EvalInstance, answer: str | None) -> str:
    lines = [f"Texto: {inst.text}"]
    if inst.context:
        lines.append(f"Contexto: {inst.context}")
    lines.append(f"Resposta: {answer}" if answer else "Resposta:")
    return "\n".join(lines)


def parse_answer(completion: str) -> str | None:
    """Label from the last tag occurrence; exact, case-sensitive match.

    Returns None (abstention) when neither tag appears.
    """
    pos_fake = completion.rfind(TAG_FAKE)
    pos_true = completion.rfind(TAG_TRUE)
    if pos_fake < 0 and pos_true < 0:
        return None
    return "fake" if pos_fake > pos_true else "true"


def few_shot_classify(
    instances: Sequence[EvalInstance],
    shots: Sequence[EvalInstance],
    generate: Callable[[str], str],
) -> tuple[list[str | None], list[ErrorEvent]]:
    """Predicted labels in instance order, plus provider error events.

    A provider failure yields an abstention (None) for that instance and
    an error event, never an exception.
    """
    from .providers import ProviderFailure  # here, so that split and build-config load no provider code

    shot_ids = {shot.id for shot in shots}
    overlap = [inst.id for inst in instances if inst.id in shot_ids]
    if overlap:
        raise ValueError(f"shots overlap evaluated instances: {overlap[:5]}")
    predictions: list[str | None] = []
    errors: list[ErrorEvent] = []
    for inst in instances:
        try:
            completion = generate(classification_prompt(inst, shots))
        except ProviderFailure as exc:
            predictions.append(None)
            errors.append(ErrorEvent(stage="classification", kind="provider_failure", detail=f"{inst.id}: {exc}"))
            continue
        predictions.append(parse_answer(completion))
    return predictions, errors


@dataclass(frozen=True)
class EvalResult:
    n: int
    accuracy: float
    macro_f1: float
    confusion: dict[str, int]
    abstentions: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion,
            "abstentions": self.abstentions,
        }


def score(y_true: Sequence[str], y_pred: Sequence[str | None]) -> EvalResult:
    """Accuracy and macro-F1 with ``fake`` as the positive class.

    Abstentions count against accuracy and recall but add no false
    positives. Zero-denominator precision/recall/F1 terms are 0.
    """
    if len(y_true) != len(y_pred):
        raise ValueError("prediction list length mismatch")
    if not y_true:
        raise ValueError("empty prediction set")
    tp = fp = fn = tn = abstentions = 0
    for gold, pred in zip(y_true, y_pred):
        if pred is None:
            abstentions += 1
            continue
        if gold == "fake" and pred == "fake":
            tp += 1
        elif gold == "true" and pred == "fake":
            fp += 1
        elif gold == "fake" and pred == "true":
            fn += 1
        else:
            tn += 1
    n = len(y_true)
    gold_fake = sum(1 for g in y_true if g == "fake")
    gold_true = n - gold_fake

    def f1(tp_: int, fp_: int, fn_: int) -> float:
        precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        return 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    # Abstentions on a class count as that class's false negatives.
    f1_fake = f1(tp, fp, gold_fake - tp)
    f1_true = f1(tn, fn, gold_true - tn)
    return EvalResult(
        n=n,
        accuracy=(tp + tn) / n,
        macro_f1=(f1_fake + f1_true) / 2,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        abstentions=abstentions,
    )

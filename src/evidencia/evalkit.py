"""Split, data configurations, few-shot classification and scoring.

The split is pair-preserving: records sharing a ``pair_id`` travel as one
unit, so a fake/true pair never straddles two slices. Classification uses a
fixed base prompt, exactly 15 labeled shots and a strict tag protocol; an
answer that contains neither tag is an abstention and scores as incorrect.

Every prompt of one run starts with one of two heads, the base prompt with
or without the context clause followed by the 15 shot blocks; only the
target block after it changes. ``few_shot_classify`` builds each head once
and hands it to the generator apart from the target, so the generator can
also do per-head work, such as hashing, once.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from . import resources
from .domains import registrable_domain
from .records import (CONFIG_KINDS, LABELS, MARKER_RE, EnrichedRecord, ErrorEvent, NewsItem, ProviderFailure,
                      SchemaError, record)

SHOT_COUNT = 15

VAL_SHARE = TEST_SHARE = 0.1  # of the split's units; train keeps the rest

PLAIN_KINDS = ("original", "validated")  # the data configurations that attach no context

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


def split(items: Sequence[NewsItem], seed: int = 0) -> tuple[list[NewsItem], list[NewsItem], list[NewsItem]]:
    """Deterministic (train, val, test) split over pair-preserving units.

    Validation and test each get ``VAL_SHARE``/``TEST_SHARE`` of the units,
    rounded; train keeps the rest. The unit order is canonicalized before
    shuffling, so the outcome depends only on the record set and the seed,
    not on input file order.
    """
    units: dict[str, list[NewsItem]] = {}
    for item in items:
        if item.corpus == "fakebr" and not item.pair_id:
            raise SchemaError(f"record {item.id}: fakebr record without pair_id")
        key = f"pair:{item.pair_id}" if item.pair_id else f"solo:{item.id}"
        units.setdefault(key, []).append(item)

    unit_keys = sorted(units)
    rng = random.Random(seed)
    rng.shuffle(unit_keys)

    n = len(unit_keys)
    n_val = round(VAL_SHARE * n)
    n_test = round(TEST_SHARE * n)
    n_train = n - n_val - n_test
    bounds = (unit_keys[:n_train], unit_keys[n_train : n_train + n_val], unit_keys[n_train + n_val :])
    slices = []
    for keys in bounds:
        members = [item for key in keys for item in units[key]]
        members.sort(key=lambda item: item.id)
        slices.append(members)
    return slices[0], slices[1], slices[2]


@record("instance")
class EvalInstance:
    """One classification example: text, optional context, gold label.

    Construction rejects a label outside ``LABELS`` with a SchemaError, so an
    instances file is checked line by line as it is read.
    """

    id: str
    text: str
    label: str
    context: str = ""

    def __post_init__(self) -> None:
        if self.label not in LABELS:
            raise SchemaError(f"unknown label {self.label!r} for instance {self.id}")


def _clean_field(text: str) -> str:
    return _WS_RE.sub(" ", MARKER_RE.sub("", text)).strip()


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


def build_config(records: Sequence[NewsItem] | Sequence[EnrichedRecord], kind: str) -> list[EvalInstance]:
    """Materialize one of the four data configurations as classification
    instances.

    ``original`` and ``validated`` take plain news items and attach no
    context. The enriched kinds take enriched records; the context is the
    marker-stripped title+snippet of the first web result (claim-search
    result when the claim path fired), then a rating line for the first
    fact-check review. ``enriched_filtered`` skips results from social
    media domains. Records without results get empty context.
    """
    if kind not in CONFIG_KINDS:
        raise ValueError(f"unknown configuration {kind!r}; choose from {CONFIG_KINDS}")
    if kind in PLAIN_KINDS:
        for item in records:
            if not isinstance(item, NewsItem):
                raise TypeError(f"configuration {kind} takes plain news records")
        return [EvalInstance(id=item.id, text=item.text, label=item.label) for item in records]
    social = resources.social_domains() if kind == "enriched_filtered" else None
    instances = []
    for rec in records:
        if not isinstance(rec, EnrichedRecord):
            raise TypeError(f"configuration {kind} takes enriched records")
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
        raise SchemaError(f"need at least {SHOT_COUNT} training instances, got {len(train)}")
    rng = random.Random(seed)
    pool = sorted(train, key=lambda inst: inst.id)
    return rng.sample(pool, SHOT_COUNT)


def prompt_head(shots: Sequence[EvalInstance], context: bool) -> str:
    """The part of a classification prompt that only the header variant
    changes: the base prompt, with the context clause when ``context`` is
    true, then the shot blocks."""
    if len(shots) != SHOT_COUNT:
        raise ValueError(f"exactly {SHOT_COUNT} shots are required, got {len(shots)}")
    header = [BASE_PROMPT]
    if context:
        header.append(CONTEXT_CLAUSE)
    header.append(ANSWER_INSTRUCTION)
    blocks = ["\n\n".join(header)]
    for shot in shots:
        blocks.append(_instance_block(shot, answer=TAG_FAKE if shot.label == "fake" else TAG_TRUE))
    return "\n\n".join(blocks)


def classification_prompt(target: EvalInstance, shots: Sequence[EvalInstance]) -> str:
    """Base prompt (context clause only when the target has context), the
    shot blocks, then the target with its answer left open."""
    return prompt_head(shots, bool(target.context)) + _target_rest(target)


def _target_rest(target: EvalInstance) -> str:
    """What follows the head in the target's prompt."""
    return "\n\n" + _instance_block(target, answer=None)


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
    generate: Callable[[str, str], str],
) -> tuple[list[str | None], list[ErrorEvent]]:
    """Predicted labels in instance order, plus provider error events.

    Each instance's prompt goes to ``generate(head, rest)`` in two parts:
    ``head + rest`` is ``classification_prompt(instance, shots)``, and
    ``head`` is one of two strings built once per call (``prompt_head``
    with and without the context clause), so a caller can key work on it.
    A provider failure yields an abstention (None) for that instance and
    an error event, never an exception.
    """
    shot_ids = {shot.id for shot in shots}
    overlap = [inst.id for inst in instances if inst.id in shot_ids]
    if overlap:
        raise ValueError(f"shots overlap evaluated instances: {overlap[:5]}")
    heads = {context: prompt_head(shots, context) for context in (False, True)}
    predictions: list[str | None] = []
    errors: list[ErrorEvent] = []
    for inst in instances:
        try:
            completion = generate(heads[bool(inst.context)], _target_rest(inst))
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

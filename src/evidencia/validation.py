"""Semi-automatic corpus validation.

Stage order is fixed: initial filter, language filter, contradiction
flagging, external label check, human decisions, corpus-specific rules for
the paired corpus, URL stripping. Its thresholds are constants: the
short-text floor ``MIN_CONTENT_TOKENS`` (15) and the language filter's
``AUTO_REMOVE_CONFIDENCE`` (0.95). Automated stages remove records
outright; judgment calls become review items that a human adjudicates in
a separate pass, after which the decisions file feeds back into the
pipeline; ``check_decisions`` lists where a decisions file does not answer
a run's queue item for item. Every removal is accounted for: input count
always equals output count plus the sum of per-stage removals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from . import resources
from .dedup import DedupCluster, cluster, near_duplicates
from .langid import LanguageDetector, TrigramDetector
from .records import LABELS, NewsItem, ProviderFailure, SchemaError, optional, read_jsonl, record, write_jsonl
from .textprep import build_query, content_token_count, find_urls, strip_urls

if TYPE_CHECKING:
    from .providers import Backend

STAGES = (
    "initial_filter",
    "language_filter",
    "contradiction_resolution",
    "external_label_check",
    "subset_inspection",
    "fakebr_specific",
)

REVIEW_KINDS = ("near_dup_conflict", "shared_url_conflict", "external_label_conflict", "random_inspection")
DECISION_ACTIONS = ("keep", "remove", "relabel")

AUTO_REMOVE_CONFIDENCE = 0.95  # a non-Portuguese call at or above this is removed, one below it flagged
MIN_CONTENT_TOKENS = 15  # a text with fewer content tokens is removed as too short

_KIND_STAGE = {
    "near_dup_conflict": "contradiction_resolution",
    "shared_url_conflict": "contradiction_resolution",
    "external_label_conflict": "external_label_check",
    "random_inspection": "subset_inspection",
}


@record("review")
class ReviewItem:
    """One judgment call for a human, plus the eventual decision.

    Construction rejects an unknown kind, a suggestion outside
    ``DECISION_ACTIONS``, a ``relabel`` suggestion on any kind but
    ``external_label_conflict``, an ``external_label_conflict`` whose
    ``context.external_bucket`` is no label, and a malformed decision (one
    whose ``ids`` is empty acts on no record) with a SchemaError, so a
    queue or decisions file is checked line by line as it is read.
    ``from_dict`` ignores keys it does not know.
    """

    id: str
    kind: str
    record_ids: list[str]
    suggestion: str = "keep"
    context: dict[str, Any] = field(default_factory=dict)
    decision: dict[str, Any] | None = optional()

    def __post_init__(self) -> None:
        if self.kind not in REVIEW_KINDS:
            raise SchemaError(f"unknown review kind {self.kind!r}")
        if self.suggestion not in DECISION_ACTIONS:
            raise SchemaError(f"review {self.id}: unknown suggestion {self.suggestion!r}")
        if self.suggestion == "relabel" and self.kind != "external_label_conflict":
            raise SchemaError(f"review {self.id}: only an external_label_conflict can suggest relabel")
        if self.kind == "external_label_conflict" and self.context.get("external_bucket") not in LABELS:
            raise SchemaError(f"review {self.id}: an external_label_conflict needs a label as context.external_bucket")
        decision = self.decision
        if decision is None:
            return
        action = decision.get("action")
        if action not in DECISION_ACTIONS:
            raise SchemaError(f"review {self.id}: unknown action {action!r}")
        ids = decision.get("ids", [])
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise SchemaError(f"review {self.id}: decision ids must be a list of strings")
        if "ids" in decision and not ids:
            raise SchemaError(f"review {self.id}: decision ids name no record")
        unknown = [i for i in self.targets if i not in self.record_ids]
        if unknown:
            raise SchemaError(f"review {self.id}: decision targets unknown records {unknown}")
        if action == "relabel" and decision.get("label") not in LABELS:
            raise SchemaError(f"review {self.id}: relabel needs a valid label")

    @property
    def stage(self) -> str:
        return _KIND_STAGE[self.kind]

    @property
    def targets(self) -> list[str]:
        """The records a decision acts on: its ``ids``, else all the item's records."""
        return self.decision.get("ids", self.record_ids) if self.decision is not None else []


def read_review_items(path: str | Path) -> list[ReviewItem]:
    return list(read_jsonl(path, ReviewItem.from_dict, attrgetter("id")))


def write_review_items(path: str | Path, items: Iterable[ReviewItem]) -> None:
    write_jsonl(path, (item.to_dict() for item in items))


def check_decisions(queue: Sequence[ReviewItem], decisions: Sequence[ReviewItem]) -> list[str]:
    """Each way ``decisions``, of distinct ids, fails to answer ``queue`` item
    for item, one line each: a queue item with no decision, a decision with
    no queue item or with another kind or other records than its queue
    item's, and an empty decision field."""
    decided = {item.id: item for item in decisions}
    queued = {item.id for item in queue}
    problems = [f"no decision for queue item {item.id}" for item in queue if item.id not in decided]
    problems += [f"no queue item for decision {i}" for i in decided if i not in queued]
    for item in queue:
        got = decided.get(item.id)
        if got is not None and (got.kind, got.record_ids) != (item.kind, item.record_ids):
            problems.append(f"decision {item.id} is a {got.kind} on {got.record_ids}, but queue item {item.id} "
                            f"is a {item.kind} on {item.record_ids}")
    problems += [f"decision field still empty on {i}" for i, item in decided.items() if item.decision is None]
    return problems


@dataclass
class ValidationReport:
    input_count: int = 0
    output_count: int = 0
    removed: dict[str, list[str]] = field(default_factory=lambda: {s: [] for s in STAGES})
    removal_reasons: dict[str, str] = field(default_factory=dict)
    corrected: dict[str, list[dict[str, Any]]] = field(default_factory=lambda: {s: [] for s in STAGES})
    flagged_language: list[str] = field(default_factory=list)
    external_check_failed: list[str] = field(default_factory=list)
    review_items: list[ReviewItem] = field(default_factory=list)
    urls_stripped: int = 0

    def add_review(self, kind: str, record_ids: list[str], **fields: Any) -> None:
        """Queue a review item, numbered ``rev-NNNN`` in queue order."""
        item_id = f"rev-{len(self.review_items) + 1:04d}"
        self.review_items.append(ReviewItem(id=item_id, kind=kind, record_ids=record_ids, **fields))

    def stage_counts(self) -> dict[str, int]:
        """Records corrected or removed per stage."""
        return {s: len(self.removed[s]) + len(self.corrected[s]) for s in STAGES}

    def total_removed(self) -> int:
        return sum(len(ids) for ids in self.removed.values())

    def conservation_holds(self) -> bool:
        return self.input_count == self.output_count + self.total_removed()

    def to_dict(self) -> dict[str, Any]:
        out = {
            "input_count": self.input_count,
            "output_count": self.output_count,
            "stage_counts": self.stage_counts(),
            "removed": self.removed,
            "removal_reasons": self.removal_reasons,
            "corrected": self.corrected,
            "flagged_language": self.flagged_language,
            "urls_stripped": self.urls_stripped,
            "review_queue_size": len(self.review_items),
        }
        if self.external_check_failed:
            out["external_check_failed"] = self.external_check_failed
        return out


def _remove(report: ValidationReport, stage: str, record_id: str, reason: str) -> None:
    report.removed[stage].append(record_id)
    report.removal_reasons[record_id] = reason


def filter_initial(records: Sequence[NewsItem], report: ValidationReport) -> list[NewsItem]:
    """Drop exact duplicates (first occurrence kept), URL-only texts and
    texts with fewer than ``MIN_CONTENT_TOKENS`` content tokens."""
    kept = []
    seen_texts: set[str] = set()
    for item in records:
        if item.text in seen_texts:
            _remove(report, "initial_filter", item.id, "exact_duplicate")
            continue
        seen_texts.add(item.text)
        if not strip_urls(item.text).strip():
            _remove(report, "initial_filter", item.id, "url_only")
            continue
        if content_token_count(item.text) < MIN_CONTENT_TOKENS:
            _remove(report, "initial_filter", item.id, "too_short")
            continue
        kept.append(item)
    return kept


def filter_language(
    records: Sequence[NewsItem],
    report: ValidationReport,
    detector: LanguageDetector | None = None,
) -> list[NewsItem]:
    """Remove confident non-Portuguese records; flag borderline ones.

    Low-confidence calls only flag, never drop. An exception the detector
    raises is a bug and propagates.
    """
    detector = detector or TrigramDetector()
    kept = []
    for item in records:
        language, confidence = detector.detect(item.text)
        if language != "pt":
            if confidence >= AUTO_REMOVE_CONFIDENCE:
                _remove(report, "language_filter", item.id, f"language:{language}")
                continue
            report.flagged_language.append(item.id)
        kept.append(item)
    return kept


def flag_contradictions(
    records: Sequence[NewsItem],
    report: ValidationReport,
    clusters: Sequence[DedupCluster],
) -> None:
    """Emit review items for near-duplicate clusters of ``records`` with mixed
    labels and for records that cite the same URL under different labels."""
    by_id = {item.id: item for item in records}

    for dup in clusters:
        labels = {by_id[m].label for m in dup.members}
        if len(labels) > 1:
            report.add_review(
                "near_dup_conflict",
                list(dup.members),
                suggestion="remove",
                context={
                    "labels": {m: by_id[m].label for m in dup.members},
                    "pairs": [{"a": a, "b": b, "jaccard": j} for a, b, j in dup.pairs],
                },
            )

    cited: dict[str, list[str]] = {}
    for item in records:
        for url in set(find_urls(item.text)):
            cited.setdefault(url, []).append(item.id)
    for url in sorted(cited):
        ids = cited[url]
        labels = {by_id[i].label for i in ids}
        if len(ids) > 1 and len(labels) > 1:
            context = {"url": url, "labels": {i: by_id[i].label for i in ids}}
            report.add_review("shared_url_conflict", sorted(ids), suggestion="remove", context=context)


def check_external_labels(
    records: Sequence[NewsItem],
    backend: Backend,
    report: ValidationReport,
) -> None:
    """Ask the fact-check service about each record; emit a review item when
    a normalized agency rating contradicts the stored label. A record with
    no words to search for, or whose lookup fails, is listed in
    ``report.external_check_failed``; in ``run_validation`` the initial
    filter has already removed every record with no words."""
    from .providers import factcheck_search  # here, so a run without a provider loads none

    mapping = resources.rating_map()
    for item in records:
        try:
            query, _ = build_query(item.text)
        except SchemaError:  # no words to search for
            report.external_check_failed.append(item.id)
            continue
        try:
            reviews = factcheck_search(query, backend)
        except ProviderFailure:
            report.external_check_failed.append(item.id)
            continue
        for review in reviews:
            bucket = mapping.get(review.textual_rating.strip().lower())
            if bucket is None:
                continue
            if bucket != item.label:
                report.add_review(
                    "external_label_conflict",
                    [item.id],
                    suggestion="relabel",
                    context={
                        "stored_label": item.label,
                        "external_bucket": bucket,
                        "textual_rating": review.textual_rating,
                        "publisher": review.publisher_name,
                        "review_url": review.review_url,
                    },
                )
            break  # first decisive rating settles the comparison


def random_inspection(
    records: Sequence[NewsItem], report: ValidationReport, sample_size: int, seed: int = 0
) -> None:
    """Emit a seeded random sample of records for manual quality review."""
    if sample_size <= 0 or not records:
        return
    rng = random.Random(seed)
    ids = sorted(item.id for item in records)
    for record_id in sorted(rng.sample(ids, min(sample_size, len(ids)))):
        report.add_review("random_inspection", [record_id])


def apply_decisions(
    records: Sequence[NewsItem], decisions: Sequence[ReviewItem], report: ValidationReport
) -> list[NewsItem]:
    """Apply adjudicated review items; attribution follows the item's kind."""
    by_id = {item.id: item for item in records}
    for item in decisions:
        if item.decision is None:
            continue
        action = item.decision["action"]
        if action == "keep":
            continue
        for record_id in item.targets:
            record = by_id.get(record_id)
            if record is None:
                continue  # already removed by an earlier stage or decision
            if action == "remove":
                _remove(report, item.stage, record_id, f"decision:{item.kind}")
                del by_id[record_id]
            elif action == "relabel":
                new_label = item.decision["label"]
                if new_label != record.label:
                    report.corrected[item.stage].append(
                        {"id": record_id, "field": "label", "old": record.label, "new": new_label,
                         "reason": item.kind}
                    )
                    by_id[record_id] = replace(record, label=new_label)
    return [by_id[item.id] for item in records if item.id in by_id]


def fakebr_rules(
    records: Sequence[NewsItem],
    report: ValidationReport,
    clusters: Sequence[DedupCluster],
    incomplete_ids: Iterable[str] = (),
) -> list[NewsItem]:
    """Rules for the paired corpus: drop near-duplicates that share a source
    URL (lowest id kept), drop known-truncated records, then drop any record
    whose pair member is gone so the corpus stays strictly paired.

    ``clusters`` are near-duplicate clusters over ``records`` or a superset
    of them. Confirmation is pairwise, so the pairs between Fake.br records
    are kept and clustered again: a record outside the subset may have
    bridged two of their components."""
    fakebr = [item for item in records if item.corpus == "fakebr"]
    if not fakebr:
        return list(records)
    for item in fakebr:
        if not item.pair_id:
            raise SchemaError(f"fakebr record {item.id} is missing pair_id")

    removed_here: set[str] = set()

    by_id = {item.id: item for item in fakebr}
    confirmed = {(a, b): j for dup in clusters for a, b, j in dup.pairs if a in by_id and b in by_id}
    for dup in cluster(confirmed):
        by_source: dict[str, list[str]] = {}
        for member in dup.members:
            source = by_id[member].source_url or ""
            by_source.setdefault(source, []).append(member)
        for source, members in sorted(by_source.items()):
            if source and len(members) > 1:
                for member in sorted(members)[1:]:
                    if member not in removed_here:
                        removed_here.add(member)
                        _remove(report, "fakebr_specific", member, "same_source_near_dup")

    for record_id in sorted(set(incomplete_ids)):
        if record_id in by_id and record_id not in removed_here:
            removed_here.add(record_id)
            _remove(report, "fakebr_specific", record_id, "truncated_source")

    # Orphan sweep: a fakebr record survives only when its pair member does.
    # Records removed at earlier stages are already absent from the input.
    surviving = [item for item in fakebr if item.id not in removed_here]
    partners: dict[str, list[NewsItem]] = {}
    for item in surviving:
        partners.setdefault(item.pair_id, []).append(item)
    for pair_id, members in sorted(partners.items()):
        if len(members) == 1:
            orphan = members[0]
            removed_here.add(orphan.id)
            _remove(report, "fakebr_specific", orphan.id, "pair_member_removed")
        elif len(members) > 2:
            raise SchemaError(f"pair {pair_id} has {len(members)} members")

    return [item for item in records if item.id not in removed_here]


def strip_record_urls(records: Sequence[NewsItem], report: ValidationReport) -> list[NewsItem]:
    """Remove URLs from record texts, keeping the original under
    ``extra["text_raw"]`` whenever the text changed."""
    out = []
    for item in records:
        stripped = strip_urls(item.text)
        if stripped != item.text:
            extra = dict(item.extra)
            extra["text_raw"] = item.text
            out.append(replace(item, text=stripped, extra=extra))
            report.urls_stripped += 1
        else:
            out.append(item)
    return out


def run_validation(
    records: Sequence[NewsItem],
    *,
    detector: LanguageDetector | None = None,
    factcheck_backend: Backend | None = None,
    decisions: Sequence[ReviewItem] = (),
    incomplete_ids: Iterable[str] = (),
    sample_size: int = 0,
    seed: int = 0,
) -> tuple[list[NewsItem], ValidationReport]:
    """Run the full pipeline in its fixed stage order."""
    report = ValidationReport(input_count=len(records))
    current = filter_initial(records, report)
    current = filter_language(current, report, detector)
    clusters = near_duplicates({item.id: item.text for item in current})
    flag_contradictions(current, report, clusters)
    if factcheck_backend is not None:
        check_external_labels(current, factcheck_backend, report)
    random_inspection(current, report, sample_size, seed)
    current = apply_decisions(current, decisions, report)
    current = fakebr_rules(current, report, clusters, incomplete_ids)
    current = strip_record_urls(current, report)
    report.output_count = len(current)
    assert report.conservation_holds(), "validation accounting out of balance"
    return current, report

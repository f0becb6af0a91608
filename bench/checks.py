"""Correctness gate over the outputs of one pass.

Every check returns a list of failure messages; an empty list means the
pass's outputs are correct. A run whose outputs fail any check counts as
failed, never as fast.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from corpora import Plan
from evidencia.dedup import DedupConfig, exact_jaccard, shingles
from evidencia.records import read_enriched, read_news
from pipeline import RECORD_OUTPUTS

MIN_RECALL = 0.95
MAX_CLAIM_WORDS = 20


def output_digest(out: Path) -> str:
    """SHA-256 over the record outputs of a pass (manifests carry wall-clock
    timestamps and are left out)."""
    digest = hashlib.sha256()
    for name in RECORD_OUTPUTS:
        digest.update(name.encode("utf-8"))
        digest.update(hashlib.sha256((out / name).read_bytes()).digest())
    return digest.hexdigest()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_pass(plan: Plan, inputs: Path, out: Path, answers: dict[str, int]) -> list[str]:
    failures: list[str] = []
    corpus = {item.id: item for item in read_news(inputs / "corpus.jsonl")}
    validated = read_news(out / "validated.jsonl")
    report = json.loads((out / "validated.jsonl.report.json").read_text(encoding="utf-8"))
    review = _jsonl(out / "validated.jsonl.review.jsonl")
    clusters = _jsonl(out / "clusters.jsonl")
    enriched = read_enriched(out / "enriched.jsonl")
    evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))

    # Report conservation, and the removals the generator planted.
    removed = {rid for ids in report["removed"].values() for rid in ids}
    if report["input_count"] != len(corpus) or report["output_count"] != len(validated) \
            or report["input_count"] != report["output_count"] + sum(len(v) for v in report["removed"].values()):
        failures.append(f"report conservation: {report['input_count']} in, {report['output_count']} out, "
                        f"{len(removed)} removed, {len(corpus)} records, {len(validated)} written")
    if removed != set(plan.expected_removed):
        failures.append(f"removed records differ from the planted ones: {sorted(removed ^ set(plan.expected_removed))[:5]}")

    # No orphaned Fake.br pair.
    members = Counter(item.pair_id for item in validated if item.corpus == "fakebr")
    labels = {(item.pair_id, item.label) for item in validated if item.corpus == "fakebr"}
    orphans = [pid for pid, n in members.items() if n != 2 or (pid, "fake") not in labels or (pid, "true") not in labels]
    if orphans:
        failures.append(f"orphaned Fake.br pairs: {orphans[:5]}")

    # Planted conflicts all reach the review queue.
    near_dup_items = [set(item["record_ids"]) for item in review if item["kind"] == "near_dup_conflict"]
    for group in plan.label_conflicts:
        if not any(set(group) <= ids for ids in near_dup_items):
            failures.append(f"label conflict {group} missing from the review queue")
    external = {item["record_ids"][0] for item in review if item["kind"] == "external_label_conflict"}
    for rid in plan.external_conflicts:
        if rid not in external:
            failures.append(f"external label conflict {rid} missing from the review queue")
    urls = {item["context"]["url"] for item in review if item["kind"] == "shared_url_conflict"}
    for url in plan.shared_url_conflicts:
        if url not in urls:
            failures.append(f"shared-URL conflict {url} missing from the review queue")

    # Dedup: recall of planted pairs, and every confirmed pair really is one.
    cfg = DedupConfig()
    confirmed = {(p["a"], p["b"]): p["jaccard"] for c in clusters for p in c["pairs"]}
    if plan.near_dup_pairs:
        found = sum(1 for a, b in plan.near_dup_pairs if (a, b) in confirmed)
        if found < MIN_RECALL * len(plan.near_dup_pairs):
            failures.append(f"near-duplicate recall {found}/{len(plan.near_dup_pairs)} below {MIN_RECALL:.0%}")
    sets: dict[str, set[str]] = {}
    shingled = lambda rid: sets.setdefault(rid, shingles(corpus[rid].text, cfg.shingle_size))
    for (a, b), reported in confirmed.items():
        exact = exact_jaccard(shingled(a), shingled(b))
        if exact < cfg.jaccard_threshold or abs(exact - reported) > 1e-12:
            failures.append(f"confirmed pair {a}/{b}: Jaccard {exact:.4f}, reported {reported:.4f}")
            break

    # Enrichment: claim cap, and each planted scenario landed on its path.
    long_claims = [r.item.id for r in enriched if r.claim is not None and len(r.claim.split()) > MAX_CLAIM_WORDS]
    if long_claims:
        failures.append(f"claims over {MAX_CLAIM_WORDS} words: {long_claims[:5]}")
    direct = sum(1 for r in enriched if r.match_index is not None)
    claimed = sum(1 for r in enriched if r.claim is not None)
    enforced = sum(1 for r in enriched if r.claim_enforced)
    s = plan.scenarios
    expected = (s["direct"], len(enriched) - s["direct"] - s["hard_fail"], s["claim_long"])
    if (direct, claimed, enforced) != expected or len(enriched) != len(validated):
        failures.append(f"enrichment paths (direct, claim, enforced) = {(direct, claimed, enforced)}, "
                        f"planted {expected}")
    fc = Counter(r.factcheck_query_used for r in enriched)
    if (fc["original"], fc["claim"]) != (plan.factcheck_original, plan.factcheck_claim):
        failures.append(f"fact-check queries used {dict(fc)}, planted original={plan.factcheck_original} "
                        f"claim={plan.factcheck_claim}")

    # Evaluation: one prediction per planted answer, failures where unrecorded.
    result = evaluation["result"]
    if result["n"] != sum(answers.values()) or len(evaluation["provider_errors"]) != answers["unrecorded"] \
            or result["abstentions"] != answers["abstain"] + answers["unrecorded"]:
        failures.append(f"evaluation n={result['n']} abstentions={result['abstentions']} "
                        f"errors={len(evaluation['provider_errors'])}, planted {answers}")
    return failures


def failed_share(out: Path, subcommands_run: int, nonzero_exits: int) -> float:
    """(records with an error event + evaluation provider errors + failed
    subcommands) / (records enriched + instances evaluated + subcommands run)."""
    enriched = _jsonl(out / "enriched.jsonl")
    evaluation = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    failed = sum(1 for r in enriched if r.get("errors")) + len(evaluation["provider_errors"]) + nonzero_exits
    attempted = len(enriched) + evaluation["result"]["n"] + subcommands_run
    return failed / attempted

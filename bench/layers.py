"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the durations of its direct
children (spans nest properly because every subcommand runs on one thread).
Each metric below names the end-to-end metric it should move and on which
workload; ``run.py --trace 1`` prints that key next to each value.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import median

from pipeline import SUBCOMMANDS

ARTICLES, CHAINS, ENRICH = "fakebr-articles", "whatsapp-chains", "evidence-enrich"

# name -> (unit, better direction, end-to-end metric it should move, and where)
METRICS: dict[str, tuple[str, str, str]] = {
    "dedup.shingles.self_s": ("s", "lower", f"validate_s, dedup_s on {ARTICLES}; little on {CHAINS} and {ENRICH}"),
    "dedup.signature.self_s": ("s", "lower", f"validate_s, dedup_s on {ARTICLES}; little on {CHAINS}"),
    "dedup.signature.calls": ("count", "lower", f"validate_s, dedup_s on {ARTICLES}"),
    "dedup.candidate_pairs.self_s": ("s", "lower", f"dedup_s, validate_s on {CHAINS} and {ENRICH}"),
    "dedup.candidates": ("count", "lower", f"dedup_s, validate_s on every workload"),
    "dedup.confirm_pairs.self_s": ("s", "lower", f"dedup_s, validate_s on every workload"),
    "dedup.confirmed": ("count", "higher", f"dedup_s on {CHAINS}"),
    "dedup.confirm_yield": ("ratio", "higher", f"dedup_s on {ARTICLES} and {ENRICH} (low yield)"),
    "dedup.cluster.self_s": ("s", "lower", f"dedup_s, validate_s on {CHAINS}; about zero elsewhere"),
    "dedup.clusters": ("count", "higher", f"dedup_s, validate_s on {CHAINS}"),
    "dedup.near_duplicates.calls_per_validate": ("count", "lower", f"validate_s on {ARTICLES}"),
    "langid.detect.self_s": ("s", "lower", f"validate_s on {ARTICLES}"),
    "langid.detect.calls": ("count", "lower", f"validate_s on {ARTICLES}"),
    "textprep.content_token_count.self_s": ("s", "lower", "validate_s on every workload"),
    "textprep.build_query.self_s": ("s", "lower", f"enrich_s on every workload; validate_s on {CHAINS}"),
    "validation.filter_initial.self_s": ("s", "lower", "validate_s"),
    "validation.filter_language.self_s": ("s", "lower", "validate_s"),
    "validation.flag_contradictions.self_s": ("s", "lower", "validate_s"),
    "validation.check_external_labels.self_s": ("s", "lower", f"validate_s on {CHAINS}"),
    "validation.fakebr_rules.self_s": ("s", "lower", f"validate_s on {ARTICLES}"),
    "validation.strip_record_urls.self_s": ("s", "lower", "validate_s"),
    "validation.review_items": ("count", "higher", "validate_s"),
    "providers.fetch.self_s": ("s", "lower", f"enrich_s, evaluate_s on {ENRICH}"),
    "providers.fetch.calls.web_search": ("count", "lower", f"enrich_s on {ENRICH}"),
    "providers.fetch.calls.factcheck": ("count", "lower", f"enrich_s on {ENRICH}; validate_s on {CHAINS}"),
    "providers.fetch.calls.llm": ("count", "lower", f"enrich_s, evaluate_s on {ENRICH}"),
    "providers.fixture_miss_share": ("ratio", "lower", f"enrich_s, evaluate_s on {ENRICH}"),
    "providers.cache.fetch.self_s": ("s", "lower", "enrich_s (write path)"),
    "providers.cache.hits": ("count", "higher", "enrich_s"),
    "providers.cache.misses": ("count", "lower", "enrich_s"),
    "providers.write_cassette.self_s": ("s", "lower", "enrich_s"),
    "providers.request_hash.self_s": ("s", "lower", "evaluate_s (15-shot prompts)"),
    "matching.first_match.self_s": ("s", "lower", "enrich_s"),
    "matching.direct_match_share": ("ratio", "higher", "enrich_s"),
    "claims.extract_claim.self_s": ("s", "lower", "enrich_s"),
    "claims.attempts_per_call": ("ratio", "lower", "enrich_s"),
    "claims.enforced_share": ("ratio", "lower", "enrich_s"),
    "enrichment.enrich_one.self_s": ("s", "lower", "enrich_s"),
    "enrichment.enrich_one.p50_ms": ("ms", "lower", "enrich_s"),
    "enrichment.enrich_one.p99_ms": ("ms", "lower", "enrich_s"),
    "enrichment.enrich_one.calls": ("count", "higher", "enrich_s (latency sample count)"),
    "evalkit.classification_prompt.self_s": ("s", "lower", "evaluate_s"),
    "evalkit.few_shot_classify.self_s": ("s", "lower", "evaluate_s"),
    "evalkit.abstention_share": ("ratio", "lower", "evaluate_s"),
    "evalkit.split.self_s": ("s", "lower", "analyze_split_build_s"),
    "evalkit.build_config.self_s": ("s", "lower", "analyze_split_build_s"),
    "analytics.self_s": ("s", "lower", "analyze_split_build_s"),
    "domains.registrable_domain.self_s": ("s", "lower", "analyze_split_build_s"),
    "records.read.self_s": ("s", "lower", "every subcommand metric on every workload"),
    "records.write.self_s": ("s", "lower", "every subcommand metric on every workload"),
    "records.bytes_written": ("bytes", "lower", "every subcommand metric on every workload"),
    **{f"cli.main.self_s.{sub}": ("s", "lower", moves) for sub, moves in {
        "validate": "validate_s",
        "dedup": "dedup_s",
        "enrich": f"enrich_s on {ENRICH} (the manifest re-hashes every cassette)",
        "analyze": "analyze_split_build_s",
        "split": "analyze_split_build_s",
        "build-config": "analyze_split_build_s",
        "evaluate": f"evaluate_s on {ENRICH} (the manifest re-hashes every cassette)",
    }.items()},
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pass wall time"),
    "trace.overhead_share": ("ratio", "lower", "none: overhead over untraced pass wall time"),
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def pass_metrics(spans_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.* excluded)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, list[dict]] = defaultdict(list)
    durations: dict[str, list[float]] = defaultdict(list)
    main_self: dict[str, float] = {}
    fetch_kinds: dict[str, int] = defaultdict(int)
    fixture_misses = cache_misses = cache_calls = 0
    near_dup_in_validate = 0
    for sub in SUBCOMMANDS:
        payload = json.loads((spans_dir / f"{sub}.json").read_text(encoding="utf-8"))
        spans = payload["spans"]
        child_time = [0.0] * len(spans)
        has_fetch_child = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "providers.fetch":
                    has_fetch_child[parent] = True
        for i, (name, start, end, parent, attr) in enumerate(spans):
            own = end - start - child_time[i]
            self_s[name] += own
            calls[name] += 1
            durations[name].append(end - start)
            if attr:
                attrs[name].append(attr)
            if name == "cli.main":
                main_self[sub] = own
            elif name == "providers.fetch":
                # Only an unrecorded generation request raises, and then the
                # span carries the exception instead of the request kind.
                fetch_kinds[attr.get("kind", "llm")] += 1
                fixture_misses += bool("raised" in attr or attr["miss"])
            elif name == "providers.cache.fetch":
                cache_calls += 1
                cache_misses += has_fetch_child[i]
            elif name == "dedup.near_duplicates" and sub == "validate":
                near_dup_in_validate += 1

    total = lambda name, key: sum(a.get(key, 0) for a in attrs[name])
    candidates, confirmed = total("dedup.candidate_pairs", "n"), total("dedup.confirm_pairs", "n")
    claims = attrs["claims.extract_claim"]
    evaluated = total("evalkit.few_shot_classify", "n")
    enrich_ms = [d * 1000 for d in durations["enrichment.enrich_one"]]
    out = {
        "dedup.shingles.self_s": self_s["dedup.shingles"],
        "dedup.signature.self_s": self_s["dedup.signature"],
        "dedup.signature.calls": calls["dedup.signature"],
        "dedup.candidate_pairs.self_s": self_s["dedup.candidate_pairs"],
        "dedup.candidates": candidates,
        "dedup.confirm_pairs.self_s": self_s["dedup.confirm_pairs"],
        "dedup.confirmed": confirmed,
        "dedup.confirm_yield": _share(confirmed, candidates),
        "dedup.cluster.self_s": self_s["dedup.cluster"],
        "dedup.clusters": total("dedup.cluster", "n"),
        "dedup.near_duplicates.calls_per_validate": near_dup_in_validate,
        "langid.detect.self_s": self_s["langid.detect"],
        "langid.detect.calls": calls["langid.detect"],
        "textprep.content_token_count.self_s": self_s["textprep.content_token_count"],
        "textprep.build_query.self_s": self_s["textprep.build_query"],
        "validation.review_items": total("validation.run_validation", "review_items"),
        "providers.fetch.self_s": self_s["providers.fetch"],
        "providers.fetch.calls.web_search": fetch_kinds["web_search"],
        "providers.fetch.calls.factcheck": fetch_kinds["factcheck"],
        "providers.fetch.calls.llm": fetch_kinds["llm"],
        "providers.fixture_miss_share": _share(fixture_misses, calls["providers.fetch"]),
        "providers.cache.fetch.self_s": self_s["providers.cache.fetch"],
        "providers.cache.hits": cache_calls - cache_misses,
        "providers.cache.misses": cache_misses,
        "providers.write_cassette.self_s": self_s["providers.write_cassette"],
        "providers.request_hash.self_s": self_s["providers.request_hash"],
        "matching.first_match.self_s": self_s["matching.first_match"],
        "matching.direct_match_share": _share(total("matching.first_match", "direct"), calls["matching.first_match"]),
        "claims.extract_claim.self_s": self_s["claims.extract_claim"],
        "claims.attempts_per_call": _share(sum(c.get("attempts", 0) for c in claims), len(claims)),
        "claims.enforced_share": _share(sum(bool(c.get("enforced")) for c in claims), len(claims)),
        "enrichment.enrich_one.self_s": self_s["enrichment.enrich_one"],
        "enrichment.enrich_one.p50_ms": _percentile(enrich_ms, 0.50),
        "enrichment.enrich_one.p99_ms": _percentile(enrich_ms, 0.99),
        "enrichment.enrich_one.calls": len(enrich_ms),
        "evalkit.classification_prompt.self_s": self_s["evalkit.classification_prompt"],
        "evalkit.few_shot_classify.self_s": self_s["evalkit.few_shot_classify"],
        "evalkit.abstention_share": _share(total("evalkit.few_shot_classify", "abstain"), evaluated),
        "evalkit.split.self_s": self_s["evalkit.split"],
        "evalkit.build_config.self_s": self_s["evalkit.build_config"],
        "analytics.self_s": self_s["analytics"],
        "domains.registrable_domain.self_s": self_s["domains.registrable_domain"],
        "records.read.self_s": self_s["records.read"],
        "records.write.self_s": self_s["records.write"],
        "records.bytes_written": total("records.write", "bytes"),
    }
    for stage in ("filter_initial", "filter_language", "flag_contradictions", "check_external_labels",
                  "fakebr_rules", "strip_record_urls"):
        out[f"validation.{stage}.self_s"] = self_s[f"validation.{stage}"]
    for sub in SUBCOMMANDS:
        out[f"cli.main.self_s.{sub}"] = main_self[sub]
    return out


def summarize(passes: list[dict[str, float]], traced_wall: list[float], untraced_wall: list[float]) -> dict[str, dict]:
    """Median of each metric over the traced passes, with the tracing overhead."""
    values = {name: median(p[name] for p in passes) for name in passes[0]}
    overhead = median(traced_wall) - median(untraced_wall)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = _share(overhead, median(untraced_wall))
    return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}

"""Run one evidencia subcommand with a span around each layer's public calls.

Usage: python3 bench/tracer.py SPANS_OUT SUBCOMMAND [OPTIONS...]

Wrappers are installed before ``cli.main`` runs. Because the modules import
one another's functions by name, each wrapper replaces the name where its
caller looks it up (``validation.near_duplicates`` and
``cli.near_duplicates`` as well as ``dedup.near_duplicates``). Wrappers sit
at per-record granularity or coarser; per-token and per-pair helpers such as
``trim_punct`` and ``exact_jaccard`` are never wrapped, their cost shows in
the self time of the span that calls them. Spans (name, start, end, parent,
attributes) are kept in memory and written as JSON when the command ends.
"""

from __future__ import annotations

import json
import os
import sys
from functools import wraps
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None):
        """``fn`` inside a span; ``observe(args, result)`` gives its attributes."""

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, observe=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))


def _fixture_reply(args, body):
    # Recorded bodies are never empty, so an empty one is a replayed miss.
    return {"kind": args[1], "miss": not (body.get("items") or body.get("claims") or body.get("candidates"))}


def _bytes_written(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    from evidencia import analytics, cli, dedup, domains, enrichment, evalkit, langid, providers, validation

    count = lambda args, result: {"n": len(result)}
    tracer.patch(dedup, "shingles", "dedup.shingles")
    tracer.patch(dedup.MinHasher, "signature_of_shingles", "dedup.signature")
    tracer.patch(dedup, "candidate_pairs", "dedup.candidate_pairs", count)
    tracer.patch(dedup, "confirm_pairs", "dedup.confirm_pairs", count)
    tracer.patch(dedup, "cluster", "dedup.cluster", count)
    for owner in (dedup, validation, cli):
        tracer.patch(owner, "near_duplicates", "dedup.near_duplicates")

    tracer.patch(langid.TrigramDetector, "detect", "langid.detect")
    tracer.patch(validation, "content_token_count", "textprep.content_token_count")
    for owner in (enrichment, validation):
        tracer.patch(owner, "build_query", "textprep.build_query")

    for stage in ("filter_initial", "filter_language", "flag_contradictions", "check_external_labels",
                  "fakebr_rules", "strip_record_urls"):
        tracer.patch(validation, stage, f"validation.{stage}")
    tracer.patch(cli, "run_validation", "validation.run_validation",
                 lambda args, result: {"review_items": len(result[1].review_items)})

    tracer.patch(providers.FixtureBackend, "fetch", "providers.fetch", _fixture_reply)
    tracer.patch(providers.CachingBackend, "fetch", "providers.cache.fetch")
    tracer.patch(providers, "write_cassette", "providers.write_cassette")
    tracer.patch(providers, "request_hash", "providers.request_hash")

    tracer.patch(enrichment, "first_match", "matching.first_match",
                 lambda args, result: {"direct": result[1] is not None})
    tracer.patch(enrichment, "extract_claim", "claims.extract_claim",
                 lambda args, result: {"attempts": result.attempts, "enforced": result.enforced})
    tracer.patch(cli, "enrich_one", "enrichment.enrich_one")

    tracer.patch(evalkit, "classification_prompt", "evalkit.classification_prompt")
    tracer.patch(cli, "few_shot_classify", "evalkit.few_shot_classify",
                 lambda args, result: {"n": len(result[0]), "abstain": result[0].count(None)})
    tracer.patch(cli, "split", "evalkit.split")
    tracer.patch(cli, "build_config", "evalkit.build_config")

    for fn in ("text_stats", "domain_distribution", "rating_distribution", "match_index_histogram",
               "review_year_histogram", "cluster_size_histogram"):
        tracer.patch(analytics, fn, "analytics")
    for owner in (domains, evalkit):
        tracer.patch(owner, "registrable_domain", "domains.registrable_domain")

    for fn in ("read_news", "read_enriched", "_read_instances"):
        tracer.patch(cli, fn, "records.read")
    for fn in ("write_news", "write_enriched", "_write_jsonl", "write_review_items"):
        tracer.patch(cli, fn, "records.write", _bytes_written)


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from evidencia import cli

    root = tracer.wrap("cli.main", cli.main)
    try:
        code = root(cli_args)
    finally:
        payload = {"subcommand": cli_args[0], "spans": tracer.spans}
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

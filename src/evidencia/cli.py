"""Command-line entry point.

Eight subcommands wire the library into a reproducible pipeline:
validate, dedup, review, enrich, analyze, split, build-config, evaluate.
argparse reads every option. ``@FILE`` after the subcommand reads further
arguments from FILE, one per line (``--seed=1``): a later flag wins, and an
option the subcommand lacks exits 2 as it does on the command line. Each
handler returns a ``Run`` naming what it wrote; ``main`` then writes exactly
one manifest (resource hashes, input hashes, provider mode, config snapshot)
next to the primary output and applies the error-rate gate.

Exit codes: 0 success, 1 per-record error rate above --max-error-rate,
2 configuration or usage errors, malformed input lines and unreadable paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from . import __version__ as VERSION
from .records import (
    CACHE_MODES,
    CONFIG_KINDS,
    DEFAULT_MODEL,
    PROMPT_PATTERNS,
    EnrichedRecord,
    FunnelStats,
    NewsItem,
    read_enriched,
    read_jsonl,
    read_news,
    write_enriched,
    write_news,
)
from .records import write_jsonl as _write_jsonl  # bench/tracer.py wraps it under this name

if TYPE_CHECKING:
    from .clocks import Clock
    from .evalkit import EvalInstance
    from .providers import Backend


def _deferred(module: str, name: str) -> Callable[..., Any]:
    """Stand-in for ``module.name`` that imports the module on its first call.

    Every other library module is imported inside the handler that uses it,
    so a process loads only what its subcommand runs. The names below are
    module attributes that handlers look up at call time, so a wrapper set
    on this module (bench/tracer.py sets one on each) is the one called.
    """

    def call(*args: Any, **kwargs: Any) -> Any:
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


near_duplicates = _deferred("dedup", "near_duplicates")
run_validation = _deferred("validation", "run_validation")
write_review_items = _deferred("validation", "write_review_items")
enrich_one = _deferred("enrichment", "enrich_one")
few_shot_classify = _deferred("evalkit", "few_shot_classify")
split = _deferred("evalkit", "split")
build_config = _deferred("evalkit", "build_config")


class ConfigError(Exception):
    """Options that parse but cannot run together, or leave nothing to do;
    maps to exit code 2."""


# ---------------------------------------------------------------- plumbing

def _file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _log_hash(directory: str | None) -> str | None:
    """Content hash of the recorded-response log in ``directory``, or None
    when there is none."""
    if not directory:
        return None
    from .providers import LOG_NAME

    log = Path(directory, LOG_NAME)
    return _file_hash(log) if log.is_file() else None


def _write_json(path: Path, payload: Any, sort_keys: bool = False) -> None:
    """The one writer of JSON sidecars: reports, statistics, results, manifests."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=sort_keys) + "\n",
                    encoding="utf-8")


class Run(NamedTuple):
    """What a handler wrote. ``main`` stamps the manifest (none when
    ``manifest`` is None), then exits 1 if ``error_rate`` is above
    --max-error-rate and with ``code`` otherwise."""

    manifest: Path | None
    inputs: list[str | None]
    outputs: list[str]
    notes: dict[str, Any] | None = None
    error_rate: float = 0.0
    code: int = 0


def _write_manifest(subcommand: str, conf: dict[str, Any], run: Run, started_at: str, finished_at: str) -> None:
    from . import resources

    payload = {
        "subcommand": subcommand,
        "version": VERSION,
        "config": dict(sorted(conf.items())),
        "resource_hashes": resources.resource_hashes(),
        "provider_mode": conf.get("provider"),
        "fixtures_hash": _log_hash(conf.get("fixtures")),
        "cache_hash": _log_hash(conf.get("cache")),
        "input_hashes": {p: _file_hash(Path(p)) for p in run.inputs if p and Path(p).is_file()},
        "outputs": run.outputs,
        "started_at": started_at,
        "finished_at": finished_at,
    }
    if run.notes:
        payload["notes"] = run.notes
    _write_json(run.manifest, payload)


def _provider(conf: dict[str, Any], required: bool = False) -> tuple[Backend | None, Clock]:
    """The backend the provider options describe, or None when --provider is
    unset and not ``required``, with the clock it stamps records with."""
    from .clocks import FrozenClock, SystemClock
    from .providers import CachingBackend, FixtureBackend, LiveBackend

    provider = conf.get("provider")
    # Frozen under fixtures so replayed runs are byte-identical.
    clock: Clock = FrozenClock() if provider == "fixture" else SystemClock()
    if provider is None:
        if required:
            raise ConfigError("this subcommand needs --provider live|fixture")
        return None, clock
    if provider == "fixture":
        if not conf.get("fixtures"):
            raise ConfigError("--provider fixture needs --fixtures <dir>")
        backend: Backend = FixtureBackend(conf["fixtures"])
    else:
        backend = LiveBackend(clock=clock)
    if conf.get("cache"):
        backend = CachingBackend(backend, conf["cache"], conf["cache_mode"], clock)
    return backend, clock


def _read_id_file(path: str) -> list[str]:
    return [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]


def _read_instances(path: str) -> list[EvalInstance]:
    from .evalkit import EvalInstance

    def parse(raw: dict[str, Any]) -> EvalInstance:
        return EvalInstance(
            id=str(raw["id"]),
            text=raw["text"],
            label=raw["label"],
            context=raw.get("context", ""),
        )

    return list(read_jsonl(path, parse))


# ---------------------------------------------------------------- handlers

def _cmd_validate(conf: dict[str, Any]) -> Run:
    from .langid import TrigramDetector
    from .validation import read_review_items

    records = read_news(conf["in"])
    decisions = read_review_items(conf["decisions"]) if conf.get("decisions") else []
    incomplete = _read_id_file(conf["incomplete_ids"]) if conf.get("incomplete_ids") else []
    backend, _ = _provider(conf)

    validated, report = run_validation(
        records,
        detector=TrigramDetector(),
        factcheck_backend=backend,
        decisions=decisions,
        incomplete_ids=incomplete,
        min_content_tokens=conf["min_content_tokens"],
        auto_remove_confidence=conf["auto_remove_confidence"],
        sample_size=conf["sample_size"],
        seed=conf["seed"],
    )

    out = Path(conf["out"])
    report_out = Path(conf.get("report_out") or f"{out}.report.json")
    review_out = Path(conf.get("review_out") or f"{out}.review.jsonl")
    write_news(out, validated)
    write_review_items(review_out, report.review_items)
    _write_json(report_out, report.to_dict())

    print(f"input records      {report.input_count}")
    for stage, count in report.stage_counts().items():
        print(f"{stage:<19}{count}")
    print(f"output records     {report.output_count}")
    print(f"review queue       {len(report.review_items)} item(s) -> {review_out}")
    if report.flagged_language:
        print(f"flagged language   {len(report.flagged_language)} record(s) kept, see report")
    if report.external_check_failed:
        print(f"fact-check failed  {len(report.external_check_failed)} record(s) not cross-checked, see report")
    return Run(Path(f"{out}.manifest.json"), [conf["in"], conf.get("decisions"), conf.get("incomplete_ids")],
               [str(out), str(report_out), str(review_out)])


def _cmd_dedup(conf: dict[str, Any]) -> Run:
    records = read_news(conf["in"])
    clusters = near_duplicates({r.id: r.text for r in records})
    payloads = []
    for c in clusters:
        row = c.to_dict()
        row["min_jaccard"] = min(j for _, _, j in c.pairs)
        payloads.append(row)
    out = Path(conf["out"])
    _write_jsonl(out, payloads)
    involved = sum(len(c.members) for c in clusters)
    print(f"{len(clusters)} cluster(s) covering {involved} of {len(records)} records -> {out}")
    return Run(Path(f"{out}.manifest.json"), [conf["in"]], [str(out)])


def _cmd_review(conf: dict[str, Any]) -> Run:
    from .validation import ReviewItem, read_review_items

    queue = read_review_items(conf["queue"])
    if conf["decisions"] is not None:
        decisions = {item.id: item for item in read_review_items(conf["decisions"])}
        missing = [item.id for item in queue if item.id not in decisions]
        undecided = [i for i, item in decisions.items() if item.decision is None]
        if missing or undecided:
            for rid in missing:
                print(f"no decision for queue item {rid}", file=sys.stderr)
            for rid in undecided:
                print(f"decision field still empty on {rid}", file=sys.stderr)
            return Run(None, [], [], code=2)
        print(f"{len(queue)} decision(s) check out")
        return Run(None, [], [])
    out = Path(conf["out"])
    skeleton = []
    for item in queue:
        copy = ReviewItem.from_dict(item.to_dict())
        copy.decision = {"action": item.suggestion}
        if item.kind == "external_label_conflict":
            copy.decision["label"] = item.context["external_bucket"]
        skeleton.append(copy)
    write_review_items(out, skeleton)
    print(f"decision skeleton with {len(skeleton)} item(s) -> {out}")
    return Run(Path(f"{out}.manifest.json"), [conf["queue"]], [str(out)])


def _cmd_enrich(conf: dict[str, Any]) -> Run:
    from .claims import load_template

    backend, clock = _provider(conf, required=True)
    items = read_news(conf["in"])
    template = load_template(conf["claim_template"])

    def enrich(item: NewsItem) -> EnrichedRecord:
        return enrich_one(item, backend, clock, template, conf["model"])

    workers = max(1, conf["parallelism"])
    if workers == 1:
        records = [enrich(item) for item in items]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(enrich, items))
    stats = FunnelStats.from_records(records)

    out = Path(conf["out"])
    stats_out = Path(conf.get("stats_out") or f"{out}.stats.json")
    write_enriched(out, records)
    _write_json(stats_out, stats.to_dict())

    failed = sum(1 for r in records if r.errors)
    rate = failed / len(records) if records else 0.0
    print(f"enriched {len(records)} record(s): {stats.matched_direct} matched directly, "
          f"{stats.extraction_needed} via claim extraction, {stats.hard_failed} unmatched")
    print(f"records with errors: {failed} ({rate:.2%})")
    return Run(Path(f"{out}.manifest.json"), [conf["in"]], [str(out), str(stats_out)], error_rate=rate)


def _is_enriched_file(path: str) -> bool:
    return "item" in next(read_jsonl(path, lambda raw: raw), {})


def _render_section(lines: list[str], title: str, table: dict[Any, Any]) -> None:
    lines.append(title)
    for key, value in table.items():
        lines.append(f"  {key}: {value}")
    lines.append("")


def _cmd_analyze(conf: dict[str, Any]) -> Run:
    from . import analytics
    from .dedup import DedupCluster

    report: dict[str, Any] = {}
    if _is_enriched_file(conf["in"]):
        enriched = read_enriched(conf["in"])
        items = [rec.item for rec in enriched]
        report["funnel"] = FunnelStats.from_records(enriched).to_dict()
        report["text_stats"] = analytics.text_stats(items)
        report["domains"] = analytics.domain_distribution(enriched)
        report["ratings"] = analytics.rating_distribution(enriched)
        report["match_index_histogram"] = report["funnel"]["match_index_histogram"]
        years, undated = analytics.review_year_histogram(enriched)
        report["review_years"] = {str(k): v for k, v in sorted(years.items())}
        report["review_undated"] = undated
    else:
        items = read_news(conf["in"])
        report["text_stats"] = analytics.text_stats(items)
    if conf.get("clusters"):
        clusters = list(read_jsonl(conf["clusters"], lambda raw: DedupCluster(members=tuple(raw["members"]))))
        report["cluster_sizes"] = {
            str(k): v for k, v in sorted(analytics.cluster_size_histogram(clusters).items())
        }

    out = Path(conf["out"])
    text_out = Path(conf.get("text_out") or f"{out}.txt")
    _write_json(out, report, sort_keys=True)

    lines: list[str] = []
    for section, content in report.items():
        if isinstance(content, dict):
            flat = {
                k: (json.dumps(v, ensure_ascii=False, sort_keys=True) if isinstance(v, dict) else v)
                for k, v in content.items()
            }
            _render_section(lines, section, flat)
        else:
            lines.append(f"{section}: {content}")
            lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    text_out.parent.mkdir(parents=True, exist_ok=True)
    text_out.write_text(text, encoding="utf-8")
    print(text, end="")
    return Run(Path(f"{out}.manifest.json"), [conf["in"], conf.get("clusters")], [str(out), str(text_out)])


def _cmd_split(conf: dict[str, Any]) -> Run:
    from .evalkit import SplitSpec

    records = read_news(conf["in"])
    spec = SplitSpec(train=conf["train"], val=conf["val"], test=conf["test"], seed=conf["seed"])
    train, val, test = split(records, spec)
    out_dir = Path(conf["out_dir"])
    outputs = []
    for name, slice_ in (("train", train), ("val", val), ("test", test)):
        path = out_dir / f"{name}.jsonl"
        write_news(path, slice_)
        outputs.append(str(path))
    print(f"split {len(records)} record(s) into {len(train)}/{len(val)}/{len(test)} -> {out_dir}")
    return Run(out_dir / "manifest.json", [conf["in"]], outputs)


def _cmd_build_config(conf: dict[str, Any]) -> Run:
    from .evalkit import PLAIN_KINDS

    if conf["kind"] in PLAIN_KINDS:
        source: Sequence[NewsItem] | Sequence[EnrichedRecord] = read_news(conf["in"])
        base_items = list(source)
    else:
        source = read_enriched(conf["in"])
        base_items = [rec.item for rec in source]
    instances = build_config(source, conf["kind"])

    payloads = []
    for item, inst in zip(base_items, instances):
        row = item.to_dict()
        row["context"] = inst.context
        payloads.append(row)
    out = Path(conf["out"])
    _write_jsonl(out, payloads)
    with_context = sum(1 for inst in instances if inst.context)
    print(f"{len(instances)} instance(s) ({with_context} with context) -> {out}")
    return Run(Path(f"{out}.manifest.json"), [conf["in"]], [str(out)])


def _cmd_evaluate(conf: dict[str, Any]) -> Run:
    from .evalkit import score, select_shots
    from .providers import LlmRequest, llm_generate

    backend, _ = _provider(conf, required=True)
    instances = _read_instances(conf["in"])
    shot_pool = _read_instances(conf["shots_from"])
    shots = select_shots(shot_pool, seed=conf["seed"])
    shot_ids = {s.id for s in shots}
    instances = [inst for inst in instances if inst.id not in shot_ids]
    if not instances:
        raise ConfigError("no instances left to evaluate after excluding shots")

    def generate(prompt: str) -> str:
        return llm_generate(LlmRequest(prompt=prompt, model=conf["model"]), backend)

    predictions, errors = few_shot_classify(instances, shots, generate)
    result = score([inst.label for inst in instances], predictions)

    out = Path(conf["out"])
    predictions_out = Path(conf.get("predictions_out") or f"{out}.predictions.jsonl")
    _write_jsonl(
        predictions_out,
        [
            {"id": inst.id, "gold": inst.label, "predicted": pred}
            for inst, pred in zip(instances, predictions)
        ],
    )
    _write_json(out, {
        "result": result.to_dict(),
        "shot_ids": sorted(shot_ids),
        "seed": conf["seed"],
        "provider_errors": [e.to_dict() for e in errors],
    }, sort_keys=True)
    print(f"n={result.n} accuracy={result.accuracy:.4f} macro_f1={result.macro_f1:.4f} "
          f"abstentions={result.abstentions}")
    return Run(Path(f"{out}.manifest.json"), [conf["in"], conf["shots_from"]],
               [str(out), str(predictions_out)],
               notes={"shot_policy": "drawn from the training slice and excluded from evaluation"},
               error_rate=len(errors) / len(instances))


HANDLERS: dict[str, Callable[[dict[str, Any]], Run]] = {
    "validate": _cmd_validate,
    "dedup": _cmd_dedup,
    "review": _cmd_review,
    "enrich": _cmd_enrich,
    "analyze": _cmd_analyze,
    "split": _cmd_split,
    "build-config": _cmd_build_config,
    "evaluate": _cmd_evaluate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidencia",
        description="Corpus validation, evidence enrichment and few-shot evaluation for Portuguese fake-news data.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def subcommand(name: str, summary: str) -> Callable[..., Any]:
        return subparsers.add_parser(name, help=summary).add_argument

    def provider_options(opt: Callable[..., Any]) -> None:
        opt("--provider", choices=("live", "fixture"), help="backend mode")
        opt("--fixtures", help="directory of recorded response files (fixture mode)")
        opt("--cache", help="response cache directory")
        opt("--cache-mode", choices=CACHE_MODES, default="read_write",
            help="read_write appends each fetched response to the cache log; read_only never writes it")

    opt = subcommand("validate", "filter and adjudicate a corpus; emits validated records, a review queue and a report")
    opt("--in", required=True, help="input records, one JSON object per line")
    opt("--out", required=True, help="validated records output")
    opt("--report-out", help="report JSON (default: <out>.report.json)")
    opt("--review-out", help="review queue output (default: <out>.review.jsonl)")
    opt("--decisions", help="adjudicated review items to apply")
    opt("--incomplete-ids", help="file of known-truncated record ids, one per line")
    opt("--min-content-tokens", type=int, default=15, help="short-text removal threshold")
    opt("--auto-remove-confidence", type=float, default=0.95,
        help="language confidence above which non-Portuguese records are removed")
    opt("--sample-size", type=int, default=0, help="random inspection sample size")
    opt("--seed", type=int, default=0, help="inspection sampling seed")
    provider_options(opt)

    opt = subcommand("dedup", "near-duplicate clusters: one-permutation hashing, LSH banding, exact-Jaccard check")
    opt("--in", required=True, help="input records")
    opt("--out", required=True, help="cluster report output, one cluster per line")

    review = subparsers.add_parser(
        "review", help="turn a review queue into a decision skeleton, or check an edited decisions file")
    review.add_argument("--queue", required=True, help="review queue produced by validate")
    mode = review.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write a decision-skeleton file to edit")
    mode.add_argument("--decisions", help="check an edited decisions file against the queue")

    opt = subcommand("enrich", "attach search results, claims and fact-check reviews to each record")
    opt("--in", required=True, help="validated records")
    opt("--out", required=True, help="enriched records output")
    opt("--stats-out", help="funnel statistics JSON (default: <out>.stats.json)")
    opt("--parallelism", type=int, default=1, help="concurrent records")
    opt("--claim-template", default="main", choices=PROMPT_PATTERNS, help="claim extraction prompt pattern")
    opt("--model", default=DEFAULT_MODEL, help="generation model name")
    opt("--max-error-rate", type=float, default=1.0,
        help="exit 1 when the share of records with errors exceeds this")
    provider_options(opt)

    opt = subcommand("analyze", "corpus and enrichment statistics in JSON and plain text")
    opt("--in", required=True, help="enriched or plain records")
    opt("--out", required=True, help="report JSON output")
    opt("--text-out", help="plain-text report (default: <out>.txt)")
    opt("--clusters", help="dedup cluster report to include size histogram")

    opt = subcommand("split", "deterministic pair-preserving train/val/test split")
    opt("--in", required=True, help="records to split")
    opt("--out-dir", required=True, help="directory for train/val/test files")
    opt("--train", type=float, default=0.8, help="train ratio")
    opt("--val", type=float, default=0.1, help="validation ratio")
    opt("--test", type=float, default=0.1, help="test ratio")
    opt("--seed", type=int, default=0, help="shuffle seed")

    opt = subcommand("build-config", "materialize a data configuration as classification instances")
    opt("--in", required=True, help="plain records (original/validated) or enriched records")
    opt("--out", required=True, help="classification instances output")
    opt("--kind", required=True, choices=CONFIG_KINDS, help="data configuration")

    opt = subcommand("evaluate", "few-shot LLM classification with accuracy and macro-F1")
    opt("--in", required=True, help="instances to classify (build-config output)")
    opt("--shots-from", required=True, help="training instances the 15 shots are drawn from")
    opt("--out", required=True, help="results JSON output")
    opt("--predictions-out", help="per-instance predictions (default: <out>.predictions.jsonl)")
    opt("--seed", type=int, default=0, help="shot sampling seed")
    opt("--model", default=DEFAULT_MODEL, help="generation model name")
    opt("--max-error-rate", type=float, default=1.0,
        help="exit 1 when the share of provider failures exceeds this")
    provider_options(opt)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .clocks import SystemClock

    conf = vars(build_parser().parse_args(argv))
    subcommand = conf.pop("subcommand")
    try:
        started_at = SystemClock().utc_instant()
        run = HANDLERS[subcommand](conf)
        if run.manifest is not None:
            _write_manifest(subcommand, conf, run, started_at, SystemClock().utc_instant())
        limit = conf.get("max_error_rate")
        if limit is not None and run.error_rate > limit:
            print(f"error rate {run.error_rate:.2%} above --max-error-rate {limit:.2%}", file=sys.stderr)
            return 1
        return run.code
    except (ConfigError, OSError, ValueError) as exc:
        # SchemaError, a malformed input line, is a ValueError.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

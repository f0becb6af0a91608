"""Command-line entry point.

Eight subcommands wire the library into a reproducible pipeline: validate,
dedup, review, enrich, analyze, split, build-config, evaluate. argparse
reads every option. ``@FILE`` after the subcommand reads further arguments
from FILE, one UTF-8 line each (``--seed=1``): a later flag wins, an option
the subcommand lacks exits 2 as it does on the command line, and so does a
FILE that includes itself. ``main`` refuses an option value that is empty,
holds a NUL byte or is not UTF-8, an ``--out`` that names no file, and a
number out of its option's range, before any handler runs. Each handler
writes its sidecars at fixed names beside ``--out`` (such as
``<out>.report.json``) and returns a ``Run`` naming what it wrote; ``main``
then writes one manifest (resource hashes, input hashes, provider mode,
config snapshot) at ``<out>.manifest.json``, or ``<out-dir>/manifest.json``
for split, and applies the error-rate gate. ``validate --decisions`` checks
the decisions file against the queue the run builds and, on any problem,
lists each one and exits 2 before writing. Every output file, the manifest
included, goes through ``records.write_text``; only the response log is
written otherwise, appended to by ``providers._append``.

Exit codes: 0 success; 1 per-record error rate above --max-error-rate, or
a bug, which leaves ``main`` as an exception with its traceback; 2 bad
options (``ConfigError``, or argparse's own exit), malformed input
(``SchemaError``, naming the file) and paths that cannot be read or written
(``OSError``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from importlib import import_module
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

from . import __version__ as VERSION
from .records import (
    CONFIG_KINDS,
    PROMPT_PATTERNS,
    EnrichedRecord,
    NewsItem,
    SchemaError,
    funnel,
    read_enriched,
    read_jsonl,
    read_news,
    write_enriched,
    write_news,
    write_text,
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
    """Options that parse but cannot run together, leave nothing to do, or
    name a decisions file that does not check out; maps to exit code 2."""


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
    write_text(path, [json.dumps(payload, ensure_ascii=False, indent=1, sort_keys=sort_keys) + "\n"])


class Run(NamedTuple):
    """What a handler wrote. ``main`` stamps the manifest, then exits 1 if
    ``error_rate`` is above --max-error-rate."""

    inputs: list[str | None]
    outputs: list[str]
    notes: dict[str, Any] | None = None
    error_rate: float = 0.0


def _manifest_path(conf: dict[str, Any]) -> Path:
    """``<out>.manifest.json``, or ``<out-dir>/manifest.json`` for split."""
    return Path(f"{Path(conf['out'])}.manifest.json") if conf.get("out") else Path(conf["out_dir"], "manifest.json")


def _write_manifest(
    path: Path, subcommand: str, conf: dict[str, Any], run: Run, started_at: str, finished_at: str
) -> None:
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
    _write_json(path, payload)


def _provider(conf: dict[str, Any]) -> tuple[Backend | None, Clock]:
    """The backend the provider options describe, or None when --provider is
    unset, with the clock it stamps records with."""
    from .clocks import FrozenClock, SystemClock

    provider, cache = conf.get("provider"), conf.get("cache")
    if (provider == "fixture") != bool(conf.get("fixtures")):
        raise ConfigError("--fixtures <dir> goes with --provider fixture, and only with it")
    # Frozen under fixtures so replayed runs are byte-identical.
    clock: Clock = FrozenClock() if provider == "fixture" else SystemClock()
    if provider is None:
        if cache:
            raise ConfigError("--cache needs --provider")
        return None, clock
    if provider == "fixture" and cache and os.path.realpath(cache) == os.path.realpath(conf["fixtures"]):
        raise ConfigError("--cache names the --fixtures directory, whose recorded responses it would append to")
    from .providers import CachingBackend, FixtureBackend, LiveBackend

    backend: Backend = FixtureBackend(conf["fixtures"]) if provider == "fixture" else LiveBackend(clock=clock)
    if cache:
        backend = CachingBackend(backend, cache, clock)
    return backend, clock


@contextmanager
def _naming(where: str) -> Iterator[None]:
    """Prefix ``where``, the file (and record) at fault, to a SchemaError
    raised inside, for faults found after the file was read."""
    try:
        yield
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _read_id_file(path: str) -> list[str]:
    ids = []
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            ids.append(line.decode("utf-8").strip())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: {exc}") from None
    return [i for i in ids if i]


def _read_instances(path: str) -> list[EvalInstance]:
    from .evalkit import EvalInstance

    return list(read_jsonl(path, EvalInstance.from_dict, attrgetter("id")))


# ---------------------------------------------------------------- handlers

def _cmd_validate(conf: dict[str, Any]) -> Run:
    from .validation import STAGES, check_decisions, read_review_items

    records = read_news(conf["in"])
    decisions = read_review_items(conf["decisions"]) if conf.get("decisions") else []
    incomplete = _read_id_file(conf["incomplete_ids"]) if conf.get("incomplete_ids") else []
    backend, _ = _provider(conf)

    with _naming(conf["in"]):  # a Fake.br record without its pair, or a pair of three
        validated, report = run_validation(
            records,
            factcheck_backend=backend,
            decisions=decisions,
            incomplete_ids=incomplete,
            sample_size=conf["sample_size"],
            seed=conf["seed"],
        )
    if conf.get("decisions"):
        problems = check_decisions(report.review_items, decisions)
        for line in problems:
            print(line, file=sys.stderr)
        if problems:
            raise ConfigError(f"{conf['decisions']}: {len(problems)} problem(s), listed above")

    out = Path(conf["out"])
    report_out = Path(f"{out}.report.json")
    review_out = Path(f"{out}.review.jsonl")
    write_news(out, validated)
    write_review_items(review_out, report.review_items)
    _write_json(report_out, report.to_dict())

    width = max(map(len, STAGES)) + 2
    print(f"{'input records':<{width}}{report.input_count}")
    for stage, count in report.stage_counts().items():
        print(f"{stage:<{width}}{count}")
    print(f"{'output records':<{width}}{report.output_count}")
    print(f"{'review queue':<{width}}{len(report.review_items)} item(s) -> {review_out}")
    if report.flagged_language:
        print(f"{'flagged language':<{width}}{len(report.flagged_language)} record(s) kept, see report")
    if report.external_check_failed:
        print(f"{'fact-check failed':<{width}}{len(report.external_check_failed)} record(s) not cross-checked, "
              "see report")
    return Run([conf["in"], conf.get("decisions"), conf.get("incomplete_ids")],
               [str(out), str(report_out), str(review_out)])


def _cmd_dedup(conf: dict[str, Any]) -> Run:
    records = read_news(conf["in"])
    clusters = near_duplicates({r.id: r.text for r in records})
    out = Path(conf["out"])
    _write_jsonl(out, [c.to_dict() for c in clusters])
    involved = sum(len(c.members) for c in clusters)
    print(f"{len(clusters)} cluster(s) covering {involved} of {len(records)} records -> {out}")
    return Run([conf["in"]], [str(out)])


def _cmd_review(conf: dict[str, Any]) -> Run:
    from .validation import read_review_items

    queue = read_review_items(conf["queue"])
    out = Path(conf["out"])
    skeleton = []
    for item in queue:
        decision = {"action": item.suggestion}
        if item.kind == "external_label_conflict":
            decision["label"] = item.context["external_bucket"]
        skeleton.append(replace(item, decision=decision))
    write_review_items(out, skeleton)
    print(f"decision skeleton with {len(skeleton)} item(s) -> {out}")
    return Run([conf["queue"]], [str(out)])


def _cmd_enrich(conf: dict[str, Any]) -> Run:
    from .claims import load_template

    workers = conf["parallelism"]
    backend, clock = _provider(conf)
    items = read_news(conf["in"])
    template = load_template(conf["claim_template"])

    def enrich(item: NewsItem) -> EnrichedRecord:
        with _naming(f"{conf['in']}: record {item.id}"):  # a text with no words to search for
            return enrich_one(item, backend, clock, template)

    if workers == 1:
        records = [enrich(item) for item in items]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(enrich, items))
    stats = funnel(records)

    out = Path(conf["out"])
    stats_out = Path(f"{out}.stats.json")
    write_enriched(out, records)
    _write_json(stats_out, stats)

    failed = sum(1 for r in records if r.errors)
    rate = failed / len(records) if records else 0.0
    print(f"enriched {len(records)} record(s): {stats['matched_direct']} matched directly, "
          f"{stats['extraction_needed']} via claim extraction, {stats['hard_failed']} unmatched")
    print(f"records with errors: {failed} ({rate:.2%})")
    return Run([conf["in"]], [str(out), str(stats_out)], error_rate=rate)


def _is_enriched_file(path: str) -> bool:
    return "item" in next(read_jsonl(path, lambda raw: raw), {})


def _render_section(lines: list[str], title: str, table: dict[Any, Any]) -> None:
    lines.append(title)
    for key, value in table.items():
        lines.append(f"  {key}: {value}")
    lines.append("")


def _members(raw: dict[str, Any]) -> list[Any]:
    if not isinstance(raw["members"], list):
        raise TypeError("a cluster's members must be a list")
    return raw["members"]


def _cmd_analyze(conf: dict[str, Any]) -> Run:
    from . import analytics

    report: dict[str, Any] = {}
    if _is_enriched_file(conf["in"]):
        enriched = read_enriched(conf["in"])
        items = [rec.item for rec in enriched]
        report["funnel"] = funnel(enriched)
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
        clusters = list(read_jsonl(conf["clusters"], _members))
        report["cluster_sizes"] = {
            str(k): v for k, v in sorted(analytics.cluster_size_histogram(clusters).items())
        }

    out = Path(conf["out"])
    text_out = Path(f"{out}.txt")
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
    write_text(text_out, [text])
    print(text, end="")
    return Run([conf["in"], conf.get("clusters")], [str(out), str(text_out)])


def _cmd_split(conf: dict[str, Any]) -> Run:
    records = read_news(conf["in"])
    with _naming(conf["in"]):
        train, val, test = split(records, seed=conf["seed"])
    out_dir = Path(conf["out_dir"])
    outputs = []
    for name, slice_ in (("train", train), ("val", val), ("test", test)):
        path = out_dir / f"{name}.jsonl"
        write_news(path, slice_)
        outputs.append(str(path))
    print(f"split {len(records)} record(s) into {len(train)}/{len(val)}/{len(test)} -> {out_dir}")
    return Run([conf["in"]], outputs)


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
    return Run([conf["in"]], [str(out)])


def _cmd_evaluate(conf: dict[str, Any]) -> Run:
    from .evalkit import score, select_shots
    from .providers import llm_generate, prompt_hasher

    backend, _ = _provider(conf)
    instances = _read_instances(conf["in"])
    shot_pool = _read_instances(conf["shots_from"])
    with _naming(conf["shots_from"]):
        shots = select_shots(shot_pool, seed=conf["seed"])
    shot_ids = {s.id for s in shots}
    instances = [inst for inst in instances if inst.id not in shot_ids]
    if not instances:
        raise ConfigError("no instances left to evaluate after excluding shots")

    hashers: dict[str, Callable[[str], str]] = {}  # one per prompt head

    def generate(head: str, rest: str) -> str:
        if head not in hashers:
            hashers[head] = prompt_hasher(head)
        return llm_generate(head + rest, backend, hashers[head](rest))

    predictions, errors = few_shot_classify(instances, shots, generate)
    result = score([inst.label for inst in instances], predictions)

    out = Path(conf["out"])
    predictions_out = Path(f"{out}.predictions.jsonl")
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
    return Run([conf["in"], conf["shots_from"]],
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
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {VERSION}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    def subcommand(name: str, summary: str) -> Callable[..., Any]:
        return subparsers.add_parser(name, help=summary).add_argument

    def provider_options(opt: Callable[..., Any], required: bool = True) -> None:
        opt("--provider", choices=("live", "fixture"), required=required, help="backend mode")
        opt("--fixtures", help="directory of recorded response files (fixture mode)")
        opt("--cache", help="response cache directory; each response it had to fetch is appended to its log")

    opt = subcommand("validate", "filter and adjudicate a corpus; emits validated records, a review queue and a report")
    opt("--in", required=True, help="input records, one JSON object per line")
    opt("--out", required=True, help="validated records output; report to <out>.report.json, queue to <out>.review.jsonl")
    opt("--decisions", help="adjudicated review items to check against the review queue and apply")
    opt("--incomplete-ids", help="file of known-truncated record ids, one per line")
    opt("--sample-size", type=int, default=0, help="random inspection sample size")
    opt("--seed", type=int, default=0, help="inspection sampling seed")
    provider_options(opt, required=False)

    opt = subcommand("dedup", "near-duplicate clusters: one-permutation hashing, LSH banding, exact-Jaccard check")
    opt("--in", required=True, help="input records")
    opt("--out", required=True, help="cluster report output, one cluster per line")

    opt = subcommand("review", "turn a review queue into a decision skeleton to edit")
    opt("--queue", required=True, help="review queue produced by validate")
    opt("--out", required=True, help="decision-skeleton output, to edit and pass to validate --decisions")

    opt = subcommand("enrich", "attach search results, claims and fact-check reviews to each record")
    opt("--in", required=True, help="validated records")
    opt("--out", required=True, help="enriched records output; funnel statistics go to <out>.stats.json")
    opt("--parallelism", type=int, default=1, help="concurrent records")
    opt("--claim-template", default="main", choices=PROMPT_PATTERNS, help="claim extraction prompt pattern")
    opt("--max-error-rate", type=float, default=1.0,
        help="exit 1 when the share of records with errors exceeds this")
    provider_options(opt)

    opt = subcommand("analyze", "corpus and enrichment statistics in JSON and plain text")
    opt("--in", required=True, help="enriched or plain records")
    opt("--out", required=True, help="report JSON output; the plain-text report goes to <out>.txt")
    opt("--clusters", help="dedup cluster report to include size histogram")

    opt = subcommand("split", "deterministic pair-preserving train/val/test split")
    opt("--in", required=True, help="records to split")
    opt("--out-dir", required=True, help="directory for train/val/test files")
    opt("--seed", type=int, default=0, help="shuffle seed")

    opt = subcommand("build-config", "materialize a data configuration as classification instances")
    opt("--in", required=True, help="plain records (original/validated) or enriched records")
    opt("--out", required=True, help="classification instances output")
    opt("--kind", required=True, choices=CONFIG_KINDS, help="data configuration")

    opt = subcommand("evaluate", "few-shot LLM classification with accuracy and macro-F1")
    opt("--in", required=True, help="instances to classify (build-config output)")
    opt("--shots-from", required=True, help="training instances the 15 shots are drawn from")
    opt("--out", required=True, help="results JSON output; per-instance predictions go to <out>.predictions.jsonl")
    opt("--seed", type=int, default=0, help="shot sampling seed")
    opt("--max-error-rate", type=float, default=1.0,
        help="exit 1 when the share of provider failures exceeds this")
    provider_options(opt)
    return parser


def _expand_option_files(parser: argparse.ArgumentParser, args: Sequence[str], chain: Sequence[str] = ()) -> list[str]:
    """``args`` with each ``@FILE`` replaced by FILE's lines, one argument
    each, and any ``@FILE`` among them expanded in turn, as argparse's
    ``fromfile_prefix_chars`` would; but FILE is read as UTF-8 whatever the
    locale, and a FILE that cannot be read or decoded, or that ``chain``,
    the files being expanded, already holds, exits 2 naming it."""
    expanded: list[str] = []
    for arg in args:
        if not arg.startswith("@"):
            expanded.append(arg)
            continue
        path = os.path.realpath(arg[1:])
        if path in chain:
            parser.error(f"{arg[1:]} includes itself")
        try:
            data = Path(arg[1:]).read_bytes()
            lines = data.decode("utf-8").splitlines()
        except OSError as exc:
            parser.error(str(exc))
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            parser.error(f"{arg[1:]}:{line}: {exc}")
        expanded += _expand_option_files(parser, lines, (*chain, path))
    return expanded


def _check_options(conf: dict[str, Any]) -> None:
    """Refuse an option value that is empty, holds a NUL byte (no path can)
    or cannot be encoded as UTF-8 (no output file or manifest can hold it),
    an ``--out`` such as ``/`` or ``.`` that names no file, and a number
    out of its option's range (a NaN ``--max-error-rate`` switches no gate off)."""
    for key, value in conf.items():
        if not isinstance(value, str):
            continue
        option = f"--{key.replace('_', '-')}"
        if not value:
            raise ConfigError(f"{option} is empty")
        if "\0" in value:
            raise ConfigError(f"{option} {value!r} holds a NUL byte")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{option} {value!r} cannot be encoded as UTF-8") from None
    if conf.get("out") and not Path(conf["out"]).name:
        raise ConfigError(f"--out {conf['out']!r} names no file")
    if not 0 <= conf.get("max_error_rate", 0) <= 1:  # NaN fails both comparisons
        raise ConfigError(f"--max-error-rate {conf['max_error_rate']} is not a share between 0 and 1")
    if conf.get("sample_size", 0) < 0:
        raise ConfigError(f"--sample-size {conf['sample_size']} is negative")
    if conf.get("parallelism", 1) < 1:
        raise ConfigError("--parallelism must be at least 1")


def main(argv: Sequence[str] | None = None) -> int:
    from .clocks import SystemClock

    parser = build_parser()
    args = _expand_option_files(parser, sys.argv[1:] if argv is None else argv)
    conf = vars(parser.parse_args(args))
    subcommand = conf.pop("subcommand")
    try:
        _check_options(conf)
        started_at = SystemClock().utc_instant()
        run = HANDLERS[subcommand](conf)
        _write_manifest(_manifest_path(conf), subcommand, conf, run, started_at, SystemClock().utc_instant())
        limit = conf.get("max_error_rate")
        if limit is not None and run.error_rate > limit:
            print(f"error rate {run.error_rate:.2%} above --max-error-rate {limit:.2%}", file=sys.stderr)
            return 1
        return 0
    except (ConfigError, OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

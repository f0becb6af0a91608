"""Command-line entry point.

Eight subcommands wire the library into a reproducible pipeline:
validate, dedup, review, enrich, analyze, split, build-config, evaluate.
Options resolve as flags > config file > defaults; the config file is a
flat `key = value` text file shared across subcommands. Every run that
writes output also writes exactly one manifest (resource hashes, input
hashes, provider mode, config snapshot) next to its primary output.

Exit codes: 0 success, 1 per-record error rate above --max-error-rate,
2 configuration or usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import __version__ as VERSION
from .records import (
    CACHE_MODES,
    CONFIG_KINDS,
    DEFAULT_MODEL,
    MAX_CLAIM_WORDS,
    PROMPT_PATTERNS,
    EnrichedRecord,
    FunnelStats,
    NewsItem,
    SchemaError,
    read_enriched,
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
    """Bad flag/config-file input; maps to exit code 2."""


# ---------------------------------------------------------------- options

class Opt:
    """One resolvable option: flag, config-file key and default."""

    def __init__(self, name, *, type=str, default=None, required=False, choices=None, help=""):
        self.name = name
        self.dest = name.replace("-", "_")
        self.type = type
        self.default = default
        self.required = required
        self.choices = choices
        self.help = help

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        kwargs: dict[str, Any] = {"dest": self.dest, "default": argparse.SUPPRESS, "help": self.help}
        if self.type is bool:
            parser.add_argument(f"--{self.name}", action=argparse.BooleanOptionalAction, **kwargs)
            return
        if self.choices:
            kwargs["choices"] = self.choices
        parser.add_argument(f"--{self.name}", type=self.type, **kwargs)

    def coerce(self, raw: str) -> Any:
        if self.type is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ConfigError(f"config key {self.dest!r}: not a boolean: {raw!r}")
        try:
            value = self.type(raw.strip())
        except ValueError:
            raise ConfigError(f"config key {self.dest!r}: bad value {raw!r}") from None
        if self.choices and value not in self.choices:
            raise ConfigError(f"config key {self.dest!r}: {value!r} not in {self.choices}")
        return value


PROVIDER_OPTS = [
    Opt("provider", choices=("live", "fixture"), help="backend mode"),
    Opt("fixtures", help="directory of recorded response files (fixture mode)"),
    Opt("cache", help="response cache directory"),
    Opt("cache-mode", choices=CACHE_MODES, default="read_write", help="cache behavior"),
]

OPTIONS: dict[str, list[Opt]] = {
    "validate": [
        Opt("in", required=True, help="input records, one JSON object per line"),
        Opt("out", required=True, help="validated records output"),
        Opt("report-out", help="report JSON (default: <out>.report.json)"),
        Opt("review-out", help="review queue output (default: <out>.review.jsonl)"),
        Opt("decisions", help="adjudicated review items to apply"),
        Opt("incomplete-ids", help="file of known-truncated record ids, one per line"),
        Opt("min-content-tokens", type=int, default=15, help="short-text removal threshold"),
        Opt("auto-remove-confidence", type=float, default=0.95,
            help="language confidence above which non-Portuguese records are removed"),
        Opt("sample-size", type=int, default=0, help="random inspection sample size"),
        Opt("seed", type=int, default=0, help="inspection sampling seed"),
        *PROVIDER_OPTS,
    ],
    "dedup": [
        Opt("in", required=True, help="input records"),
        Opt("out", required=True, help="cluster report output, one cluster per line"),
        Opt("threshold", type=float, default=0.7, help="exact-Jaccard confirmation threshold"),
        Opt("shingle-size", type=int, default=5, help="character shingle length"),
        Opt("permutations", type=int, default=100, help="signature length"),
        Opt("bands", type=int, default=25, help="LSH band count; each band holds permutations / bands rows"),
        Opt("seed", type=int, default=3, help="permutation seed"),
    ],
    "review": [
        Opt("queue", required=True, help="review queue produced by validate"),
        Opt("out", help="write a decision-skeleton file to edit"),
        Opt("decisions", help="check an edited decisions file against the queue"),
    ],
    "enrich": [
        Opt("in", required=True, help="validated records"),
        Opt("out", required=True, help="enriched records output"),
        Opt("stats-out", help="funnel statistics JSON (default: <out>.stats.json)"),
        Opt("parallelism", type=int, default=1, help="concurrent records"),
        Opt("claim-template", default="main",
            choices=PROMPT_PATTERNS,
            help="claim extraction prompt pattern"),
        Opt("model", default=DEFAULT_MODEL, help="generation model name"),
        Opt("max-claim-words", type=int, default=MAX_CLAIM_WORDS, help="claim length cap"),
        Opt("max-error-rate", type=float, default=1.0,
            help="exit 1 when the share of records with errors exceeds this"),
        *PROVIDER_OPTS,
    ],
    "analyze": [
        Opt("in", required=True, help="enriched or plain records"),
        Opt("out", required=True, help="report JSON output"),
        Opt("text-out", help="plain-text report (default: <out>.txt)"),
        Opt("clusters", help="dedup cluster report to include size histogram"),
    ],
    "split": [
        Opt("in", required=True, help="records to split"),
        Opt("out-dir", required=True, help="directory for train/val/test files"),
        Opt("train", type=float, default=0.8, help="train ratio"),
        Opt("val", type=float, default=0.1, help="validation ratio"),
        Opt("test", type=float, default=0.1, help="test ratio"),
        Opt("seed", type=int, default=0, help="shuffle seed"),
        Opt("pair-preserving", type=bool, default=True, help="keep pairs in one slice"),
    ],
    "build-config": [
        Opt("in", required=True, help="plain records (original/validated) or enriched records"),
        Opt("out", required=True, help="classification instances output"),
        Opt("kind", required=True, choices=CONFIG_KINDS, help="data configuration"),
    ],
    "evaluate": [
        Opt("in", required=True, help="instances to classify (build-config output)"),
        Opt("shots-from", required=True, help="training instances the 15 shots are drawn from"),
        Opt("out", required=True, help="results JSON output"),
        Opt("predictions-out", help="per-instance predictions (default: <out>.predictions.jsonl)"),
        Opt("seed", type=int, default=0, help="shot sampling seed"),
        Opt("model", default=DEFAULT_MODEL, help="generation model name"),
        Opt("max-error-rate", type=float, default=1.0,
            help="exit 1 when the share of provider failures exceeds this"),
        *PROVIDER_OPTS,
    ],
}

HELP = {
    "validate": "filter and adjudicate a corpus; emits validated records, a review queue and a report",
    "dedup": "near-duplicate clusters via MinHash-LSH with exact-Jaccard confirmation",
    "review": "turn a review queue into a decision skeleton, or check an edited decisions file",
    "enrich": "attach search results, claims and fact-check reviews to each record",
    "analyze": "corpus and enrichment statistics in JSON and plain text",
    "split": "deterministic pair-preserving train/val/test split",
    "build-config": "materialize a data configuration as classification instances",
    "evaluate": "few-shot LLM classification with accuracy and macro-F1",
}


def _load_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` lines; # starts a comment; keys may use dashes."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _resolve(opts: list[Opt], ns: argparse.Namespace, file_conf: dict[str, str]) -> dict[str, Any]:
    """Merge flag > config file > default, enforcing required options."""
    all_dests = {o.dest for group in OPTIONS.values() for o in group}
    for key in file_conf:
        if key not in all_dests:
            raise ConfigError(f"unknown config key {key!r}")
    conf: dict[str, Any] = {}
    given = vars(ns)
    for opt in opts:
        if opt.dest in given:
            conf[opt.dest] = given[opt.dest]
        elif opt.dest in file_conf:
            conf[opt.dest] = opt.coerce(file_conf[opt.dest])
        else:
            conf[opt.dest] = opt.default
        if opt.required and conf[opt.dest] is None:
            raise ConfigError(f"missing required option --{opt.name}")
    return conf


# ---------------------------------------------------------------- plumbing

def _file_hash(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dir_hash(path: str | None) -> str | None:
    """Order-independent content hash of a directory's files, or None."""
    if not path:
        return None
    root = Path(path)
    if not root.is_dir():
        return None
    digest = hashlib.sha256()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(root)).encode("utf-8"))
        digest.update(_file_hash(file).encode("ascii"))
    return digest.hexdigest()


def _write_manifest(
    manifest_path: Path,
    subcommand: str,
    conf: dict[str, Any],
    inputs: Sequence[str],
    outputs: Sequence[str],
    started_at: str,
    finished_at: str,
    notes: dict[str, Any] | None = None,
) -> None:
    from . import resources

    payload = {
        "subcommand": subcommand,
        "version": VERSION,
        "config": dict(sorted(conf.items())),
        "resource_hashes": resources.resource_hashes(),
        "provider_mode": conf.get("provider"),
        "fixtures_hash": _dir_hash(conf.get("fixtures")),
        "cache_hash": _dir_hash(conf.get("cache")),
        "input_hashes": {p: _file_hash(Path(p)) for p in inputs if Path(p).is_file()},
        "outputs": list(outputs),
        "started_at": started_at,
        "finished_at": finished_at,
    }
    if notes:
        payload["notes"] = notes
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(payload, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")


def _utc_instant() -> str:
    from .clocks import SystemClock

    return SystemClock().utc_instant()


def _clock_for(conf: dict[str, Any]) -> Clock:
    from .clocks import FrozenClock, SystemClock

    # Frozen under fixtures so replayed runs are byte-identical.
    return FrozenClock() if conf.get("provider") == "fixture" else SystemClock()


def _backend_for(conf: dict[str, Any], clock: Clock, required: bool = False) -> Backend | None:
    from .providers import CachingBackend, FixtureBackend, LiveBackend

    provider = conf.get("provider")
    if provider is None:
        if required:
            raise ConfigError("this subcommand needs --provider live|fixture")
        return None
    if provider == "fixture":
        if not conf.get("fixtures"):
            raise ConfigError("--provider fixture needs --fixtures <dir>")
        backend: Backend = FixtureBackend(conf["fixtures"])
    else:
        backend = LiveBackend(clock=clock)
    if conf.get("cache"):
        backend = CachingBackend(backend, conf["cache"], conf.get("cache_mode") or "read_write", clock)
    return backend


def _read_id_file(path: str) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return [line.strip() for line in lines if line.strip()]


def _read_instances(path: str) -> list[EvalInstance]:
    from .evalkit import EvalInstance

    instances = []
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                instances.append(
                    EvalInstance(
                        id=str(raw["id"]),
                        text=raw["text"],
                        label=raw["label"],
                        context=raw.get("context", ""),
                    )
                )
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, KeyError) as exc:
        raise SchemaError(f"{path}: bad instance line: {exc}") from None
    return instances


# ---------------------------------------------------------------- handlers

def _cmd_validate(conf: dict[str, Any]) -> int:
    from .langid import TrigramDetector
    from .validation import ReviewItem, read_review_items, validate_decision

    clock = _clock_for(conf)
    started = _utc_instant()
    records = read_news(conf["in"])
    decisions: list[ReviewItem] = []
    if conf.get("decisions"):
        decisions = read_review_items(conf["decisions"])
        for item in decisions:
            validate_decision(item)
    incomplete = _read_id_file(conf["incomplete_ids"]) if conf.get("incomplete_ids") else []
    backend = _backend_for(conf, clock)

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
    report_out.parent.mkdir(parents=True, exist_ok=True)
    report_out.write_text(json.dumps(report.to_dict(), ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

    print(f"input records      {report.input_count}")
    for stage, count in report.stage_counts().items():
        print(f"{stage:<19}{count}")
    print(f"output records     {report.output_count}")
    print(f"review queue       {len(report.review_items)} item(s) -> {review_out}")
    if report.flagged_language:
        print(f"flagged language   {len(report.flagged_language)} record(s) kept, see report")

    _write_manifest(
        Path(f"{out}.manifest.json"), "validate", conf,
        inputs=[conf["in"]] + ([conf["decisions"]] if conf.get("decisions") else []),
        outputs=[str(out), str(report_out), str(review_out)],
        started_at=started, finished_at=_utc_instant(),
    )
    return 0


def _cmd_dedup(conf: dict[str, Any]) -> int:
    from .dedup import DedupConfig

    started = _utc_instant()
    records = read_news(conf["in"])
    cfg = DedupConfig(
        shingle_size=conf["shingle_size"],
        num_permutations=conf["permutations"],
        bands=conf["bands"],
        seed=conf["seed"],
        jaccard_threshold=conf["threshold"],
    )
    clusters = near_duplicates({r.id: r.text for r in records}, cfg)
    payloads = []
    for c in clusters:
        row = c.to_dict()
        row["min_jaccard"] = min(j for _, _, j in c.pairs)
        payloads.append(row)
    out = Path(conf["out"])
    _write_jsonl(out, payloads)
    involved = sum(len(c.members) for c in clusters)
    print(f"{len(clusters)} cluster(s) covering {involved} of {len(records)} records -> {out}")
    _write_manifest(
        Path(f"{out}.manifest.json"), "dedup", conf,
        inputs=[conf["in"]], outputs=[str(out)],
        started_at=started, finished_at=_utc_instant(),
    )
    return 0


def _cmd_review(conf: dict[str, Any]) -> int:
    from .validation import ReviewItem, read_review_items, validate_decision

    started = _utc_instant()
    queue = read_review_items(conf["queue"])
    if conf.get("decisions"):
        decisions = {item.id: item for item in read_review_items(conf["decisions"])}
        missing = [item.id for item in queue if item.id not in decisions]
        undecided = [i for i, item in decisions.items() if item.decision is None]
        for item in decisions.values():
            validate_decision(item)
        if missing or undecided:
            for rid in missing:
                print(f"no decision for queue item {rid}", file=sys.stderr)
            for rid in undecided:
                print(f"decision field still empty on {rid}", file=sys.stderr)
            return 2
        print(f"{len(queue)} decision(s) check out")
        return 0
    if not conf.get("out"):
        raise ConfigError("review needs --out (skeleton mode) or --decisions (check mode)")
    out = Path(conf["out"])
    skeleton = []
    for item in queue:
        copy = ReviewItem.from_dict(item.to_dict())
        copy.decision = {"action": item.suggestion}
        skeleton.append(copy)
    write_review_items(out, skeleton)
    print(f"decision skeleton with {len(skeleton)} item(s) -> {out}")
    _write_manifest(
        Path(f"{out}.manifest.json"), "review", conf,
        inputs=[conf["queue"]], outputs=[str(out)],
        started_at=started, finished_at=_utc_instant(),
    )
    return 0


def _cmd_enrich(conf: dict[str, Any]) -> int:
    from .claims import load_template
    from .enrichment import EnrichConfig

    started = _utc_instant()
    clock = _clock_for(conf)
    backend = _backend_for(conf, clock, required=True)
    items = read_news(conf["in"])
    cfg = EnrichConfig(
        max_claim_words=conf["max_claim_words"],
        llm_model=conf["model"],
        prompt_pattern=conf["claim_template"],
    )
    template = load_template(cfg.prompt_pattern)

    workers = max(1, conf["parallelism"])
    if workers == 1:
        records = [enrich_one(item, backend, cfg, clock, template) for item in items]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda item: enrich_one(item, backend, cfg, clock, template), items))
    stats = FunnelStats.from_records(records)

    out = Path(conf["out"])
    stats_out = Path(conf.get("stats_out") or f"{out}.stats.json")
    write_enriched(out, records)
    stats_out.parent.mkdir(parents=True, exist_ok=True)
    stats_out.write_text(json.dumps(stats.to_dict(), ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

    failed = sum(1 for r in records if r.errors)
    rate = failed / len(records) if records else 0.0
    print(f"enriched {len(records)} record(s): {stats.matched_direct} matched directly, "
          f"{stats.extraction_needed} via claim extraction, {stats.hard_failed} unmatched")
    print(f"records with errors: {failed} ({rate:.2%})")

    _write_manifest(
        Path(f"{out}.manifest.json"), "enrich", conf,
        inputs=[conf["in"]], outputs=[str(out), str(stats_out)],
        started_at=started, finished_at=_utc_instant(),
    )
    if rate > conf["max_error_rate"]:
        print(f"error rate {rate:.2%} above --max-error-rate {conf['max_error_rate']:.2%}", file=sys.stderr)
        return 1
    return 0


def _is_enriched_file(path: str) -> bool:
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                return "item" in json.loads(line)
    return False


def _render_section(lines: list[str], title: str, table: dict[Any, Any]) -> None:
    lines.append(title)
    for key, value in table.items():
        lines.append(f"  {key}: {value}")
    lines.append("")


def _cmd_analyze(conf: dict[str, Any]) -> int:
    from . import analytics
    from .dedup import DedupCluster

    started = _utc_instant()
    report: dict[str, Any] = {}
    if _is_enriched_file(conf["in"]):
        enriched = read_enriched(conf["in"])
        items = [rec.item for rec in enriched]
        report["funnel"] = FunnelStats.from_records(enriched).to_dict()
        report["text_stats"] = analytics.text_stats(items)
        report["domains"] = analytics.domain_distribution(enriched)
        report["ratings"] = analytics.rating_distribution(enriched)
        report["match_index_histogram"] = {
            str(k): v for k, v in sorted(analytics.match_index_histogram(enriched).items())
        }
        years, undated = analytics.review_year_histogram(enriched)
        report["review_years"] = {str(k): v for k, v in sorted(years.items())}
        report["review_undated"] = undated
    else:
        items = read_news(conf["in"])
        report["text_stats"] = analytics.text_stats(items)
    if conf.get("clusters"):
        clusters = []
        for line in Path(conf["clusters"]).read_text(encoding="utf-8").splitlines():
            if line.strip():
                raw = json.loads(line)
                clusters.append(DedupCluster(members=tuple(raw["members"])))
        report["cluster_sizes"] = {
            str(k): v for k, v in sorted(analytics.cluster_size_histogram(clusters).items())
        }

    out = Path(conf["out"])
    text_out = Path(conf.get("text_out") or f"{out}.txt")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, ensure_ascii=False, indent=1, sort_keys=True) + "\n", encoding="utf-8")

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

    _write_manifest(
        Path(f"{out}.manifest.json"), "analyze", conf,
        inputs=[conf["in"]] + ([conf["clusters"]] if conf.get("clusters") else []),
        outputs=[str(out), str(text_out)],
        started_at=started, finished_at=_utc_instant(),
    )
    return 0


def _cmd_split(conf: dict[str, Any]) -> int:
    from .evalkit import SplitSpec

    started = _utc_instant()
    records = read_news(conf["in"])
    spec = SplitSpec(
        train=conf["train"], val=conf["val"], test=conf["test"],
        seed=conf["seed"], pair_preserving=conf["pair_preserving"],
    )
    train, val, test = split(records, spec)
    out_dir = Path(conf["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, slice_ in (("train", train), ("val", val), ("test", test)):
        path = out_dir / f"{name}.jsonl"
        write_news(path, slice_)
        outputs.append(str(path))
    print(f"split {len(records)} record(s) into {len(train)}/{len(val)}/{len(test)} -> {out_dir}")
    _write_manifest(
        out_dir / "manifest.json", "split", conf,
        inputs=[conf["in"]], outputs=outputs,
        started_at=started, finished_at=_utc_instant(),
    )
    return 0


def _cmd_build_config(conf: dict[str, Any]) -> int:
    from .evalkit import DataConfiguration

    started = _utc_instant()
    cfg = DataConfiguration(conf["kind"])
    if cfg.context_source == "none":
        source: Sequence[NewsItem] | Sequence[EnrichedRecord] = read_news(conf["in"])
        base_items = list(source)
    else:
        source = read_enriched(conf["in"])
        base_items = [rec.item for rec in source]
    instances = build_config(source, cfg)

    payloads = []
    for item, inst in zip(base_items, instances):
        row = item.to_dict()
        row["context"] = inst.context
        payloads.append(row)
    out = Path(conf["out"])
    _write_jsonl(out, payloads)
    with_context = sum(1 for inst in instances if inst.context)
    print(f"{len(instances)} instance(s) ({with_context} with context) -> {out}")
    _write_manifest(
        Path(f"{out}.manifest.json"), "build-config", conf,
        inputs=[conf["in"]], outputs=[str(out)],
        started_at=started, finished_at=_utc_instant(),
    )
    return 0


def _cmd_evaluate(conf: dict[str, Any]) -> int:
    from .evalkit import score, select_shots
    from .providers import LlmRequest, llm_generate

    started = _utc_instant()
    clock = _clock_for(conf)
    backend = _backend_for(conf, clock, required=True)
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
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "result": result.to_dict(),
                "shot_ids": sorted(shot_ids),
                "seed": conf["seed"],
                "provider_errors": [e.to_dict() for e in errors],
            },
            ensure_ascii=False, indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"n={result.n} accuracy={result.accuracy:.4f} macro_f1={result.macro_f1:.4f} "
          f"abstentions={result.abstentions}")

    rate = len(errors) / len(instances)
    _write_manifest(
        Path(f"{out}.manifest.json"), "evaluate", conf,
        inputs=[conf["in"], conf["shots_from"]],
        outputs=[str(out), str(predictions_out)],
        started_at=started, finished_at=_utc_instant(),
        notes={"shot_policy": "drawn from the training slice and excluded from evaluation"},
    )
    if rate > conf["max_error_rate"]:
        print(f"error rate {rate:.2%} above --max-error-rate {conf['max_error_rate']:.2%}", file=sys.stderr)
        return 1
    return 0


HANDLERS: dict[str, Callable[[dict[str, Any]], int]] = {
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
    parser.add_argument("--config", help="flat key = value config file; flags still win")
    subparsers = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name, opts in OPTIONS.items():
        sub = subparsers.add_parser(name, help=HELP[name])
        for opt in opts:
            opt.add_to(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        file_conf = _load_config_file(ns.config) if ns.config else {}
        conf = _resolve(OPTIONS[ns.subcommand], ns, file_conf)
        return HANDLERS[ns.subcommand](conf)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Record types, enrichment funnel counts and line-delimited JSON I/O.

One record per line, UTF-8, keys sorted on output so that identical inputs
produce byte-identical files. Unknown fields found on disk are preserved in
``extra`` and written back on serialization.

Each record type is a ``@record`` class: its dataclass fields are the one
table of its on-disk contract, and ``from_dict``/``to_dict`` are derived
from it. A field's annotation is the JSON type ``from_dict`` checks, its
default is what an absent key reads as, and an ``optional`` field is left
out by ``to_dict`` while it holds that default. Types are checked where
JSON is read, in ``from_dict``; a constructor checks only the value rules
of ``__post_init__`` (vocabularies, cross-field rules), so code that builds
a record is trusted to pass the declared types.

``write_text`` is the one writer of output files: every record file,
sidecar, report and manifest goes through it, and it replaces a file whole
or not at all. ``read_jsonl`` is the one reader of record files; given a
``key``, it refuses a repeated record id.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar, get_args, get_origin, get_type_hints

LABELS = ("fake", "true")
CORPORA = ("fakebr", "covid19br", "mumin_pt")
QUERY_KINDS = ("full_text", "first_sentence", "first_paragraph", "first_20_words")
ERROR_STAGES = ("initial_search", "claim_extraction", "claim_search", "factcheck_search", "classification")
ERROR_KINDS = ("provider_failure", "empty_results", "constraint_violation")
FACTCHECK_QUERY_USED = ("original", "claim", "none")

# Option vocabularies the CLI parser offers. They live here, with the other
# vocabularies, so that building the parser loads no module that acts on
# them; claims and evalkit re-export the ones they use.
PROMPT_PATTERNS = ("main", "detection", "role_framed", "query_extraction", "few_shot")
CONFIG_KINDS = ("original", "validated", "enriched_full", "enriched_filtered")

# The <b>...</b> highlight markers a search response puts in a result's
# title and snippet around the parts that matched the query.
MARKER_RE = re.compile(r"</?b>")

T = TypeVar("T")

NoneType = type(None)


class SchemaError(ValueError):
    """Raised when a record violates the on-disk contract."""


class ProviderFailure(RuntimeError):
    """A provider call failed for good after any retries."""


class _Mistyped(Exception):
    """A JSON value of a type its field does not take; ``from_dict`` turns it
    into a SchemaError naming the field."""


def _wrong(value: Any) -> Any:
    raise _Mistyped(value)


def optional(default: Any = None) -> Any:
    """A field that ``to_dict`` leaves out while it holds ``default``, which
    is empty: None, "", [] or {}. A list or dict default gives each record
    its own."""
    if isinstance(default, (list, dict)):
        return field(default_factory=type(default), metadata={"left_out_at": default})
    return field(default=default, metadata={"left_out_at": default})


def _unwrap(tp: Any) -> Any:
    """``tp`` without its ``| None``."""
    args = get_args(tp)
    return next(a for a in args if a is not NoneType) if NoneType in args else tp


def _reader(tp: Any) -> tuple[dict[type, Callable[[Any], Any] | None], str]:
    """How a field annotated ``tp`` is read from JSON, and what its value
    must be, for messages. The first maps each JSON type the field takes,
    exactly (a bool is no int), to the function that converts a value of it
    or checks inside it, or to None when the value is kept as it is."""
    if _unwrap(tp) is not tp:
        accepts, desc = _reader(_unwrap(tp))
        return {**accepts, NoneType: None}, f"{desc} or null"
    origin, args = get_origin(tp), get_args(tp)
    if origin is list:
        each, desc = _reader(args[0])
        if None in each.values():
            def parse_list(values: list) -> list:
                for value in values:
                    if type(value) not in each:
                        _wrong(value)
                return values
        elif hasattr(args[0], "from_dict"):  # which itself refuses a value that is no object
            read = args[0].from_dict

            def parse_list(values: list) -> list:
                return list(map(read, values))
        else:
            def parse_list(values: list) -> list:
                return [each.get(type(v), _wrong)(v) for v in values]
        return {list: parse_list}, f"a list of {desc.partition(' ')[2]}s"  # "a string" -> "a list of strings"
    if origin is dict and args[1] is str:
        def parse_dict(values: dict) -> dict:
            for value in values.values():
                if type(value) is not str:
                    _wrong(value)
            return values
        return {dict: parse_dict}, "an object of strings"
    if origin is dict:
        return {dict: None}, "an object"
    if tp is float:
        return {int: float, float: float}, "a number"
    if hasattr(tp, "from_dict"):
        return {dict: tp.from_dict}, "an object"
    return {tp: None}, {str: "a string", int: "an integer", bool: "true or false"}[tp]


def _writer(tp: Any) -> Callable[[Any], Any] | None:
    """How ``to_dict`` writes a field annotated ``tp`` when it is not None: a
    nested record, or a list of them, through their ``to_dict``; None for
    anything else, which is written as it is."""
    tp = _unwrap(tp)
    if hasattr(tp, "to_dict"):
        return tp.to_dict
    if get_origin(tp) is list and hasattr(get_args(tp)[0], "to_dict"):
        write = get_args(tp)[0].to_dict
        return lambda values: list(map(write, values))
    return None


def record(noun: str) -> Callable[[type[T]], type[T]]:
    """Make the decorated class a frozen dataclass whose ``from_dict`` and
    ``to_dict`` follow its fields, and whose ``FIELDS`` maps each field to
    its ``_reader`` row.

    ``from_dict(raw)`` takes a JSON object: it checks each known key's value
    against the field's annotation, converts nested records and numbers,
    ignores unknown keys (or keeps them in an ``extra`` field, when there is
    one) and raises SchemaError, naming ``noun`` (with the record's ``id``,
    or its nested record's, when there is one) and the field, for a value
    of the wrong type or a missing required field. ``to_dict()`` writes
    every field except an ``optional`` one holding its default, and then
    applies the class's ``_write_rule(self, out)``, if it defines one.
    """

    def build(cls: type[T]) -> type[T]:
        cls = dataclass(frozen=True)(cls)
        hints = get_type_hints(cls)
        cls.FIELDS = {f.name: _reader(hints[f.name]) for f in fields(cls)}
        table = {name: (name, accepts) for name, (accepts, _) in cls.FIELDS.items()}
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        # What to_dict does beyond copying the fields: write nested records
        # through their to_dict, then leave out each optional field that holds
        # its default, which is None or, for the rest, any empty value.
        nested = [(f.name, dump) for f in fields(cls) if (dump := _writer(hints[f.name]))]
        left_out_at_none = [f.name for f in fields(cls) if f.metadata.get("left_out_at", MISSING) is None]
        left_out_empty = [f.name for f in fields(cls) if f.metadata.get("left_out_at") not in (MISSING, None)]
        write_rule = getattr(cls, "_write_rule", None)
        keeps_extra = "extra" in table
        # A record is named by its own id or, without one, by its nested
        # record's: an enriched record by its item's.
        named_by = next((f.name for f in fields(cls) if "id" in getattr(hints[f.name], "FIELDS", ())), None)

        def where(raw: dict[str, Any]) -> str:
            holder = raw if "id" in table else raw.get(named_by)
            ident = holder.get("id") if type(holder) is dict else None
            return f"{noun} {ident}" if type(ident) is str and ident else noun

        def from_dict(raw: dict[str, Any]) -> T:
            if type(raw) is not dict:
                raise SchemaError(f"{noun}: expected an object, got {type(raw).__name__}")
            # Keyed by the field names themselves: the constructor matches a
            # keyword by identity first, and a key json.loads made is an equal
            # but different string, which costs a compare with each parameter.
            kwargs = {}
            try:
                for key, value in raw.items():
                    row = table.get(key)
                    if row is not None:
                        name, accepts = row
                        parse = accepts.get(type(value), _wrong)
                        kwargs[name] = value if parse is None else parse(value)
            except _Mistyped as exc:
                raise SchemaError(f"{where(raw)}: {key} must be {cls.FIELDS[key][1]}, "
                                  f"got {type(exc.args[0]).__name__}") from None
            if keeps_extra and len(kwargs) < len(raw):  # unknown keys go to ``extra``; elsewhere they are dropped
                kwargs["extra"] = {**kwargs.get("extra", {}), **{k: v for k, v in raw.items() if k not in table}}
            try:
                return cls(**kwargs)
            except TypeError:  # the constructor's complaint about a missing argument, unless none is missing
                missing = [name for name in required if name not in kwargs]
                if not missing:
                    raise
                raise SchemaError(f"{where(raw)}: missing required field {missing[0]!r}") from None

        def to_dict(self: T) -> dict[str, Any]:
            out = self.__dict__.copy()
            for name, dump in nested:
                value = out[name]
                if value:
                    out[name] = dump(value)
            for name in left_out_at_none:
                if out[name] is None:
                    del out[name]
            for name in left_out_empty:
                if not out[name]:
                    del out[name]
            if write_rule is not None:
                write_rule(self, out)
            return out

        cls.from_dict = staticmethod(from_dict)
        cls.to_dict = to_dict
        return cls

    return build


@record("record")
class NewsItem:
    """A single labeled news text from one of the source corpora."""

    id: str
    corpus: str
    text: str
    label: str
    pair_id: str | None = optional()
    source_url: str | None = optional()
    published_at: str | None = optional()
    extra: dict[str, Any] = optional({})

    def __post_init__(self) -> None:
        if not self.id:
            raise SchemaError("record id must be a non-empty string")
        if self.corpus not in CORPORA:
            raise SchemaError(f"unknown corpus {self.corpus!r} for record {self.id}")
        if self.label not in LABELS:
            raise SchemaError(f"unknown label {self.label!r} for record {self.id}")


@record("web result")
class WebResult:
    """One web search result; rank is 1-based within the response. Title
    and snippet keep the response's highlight markers (``MARKER_RE``)."""

    rank: int
    title: str = ""
    link: str = ""
    snippet: str = ""


@record("fact-check result")
class ClaimReviewResult:
    """One fact-check review, the first review attached to a returned claim."""

    rank: int
    claim_text: str = ""
    publisher_name: str = ""
    publisher_site: str = ""
    textual_rating: str = ""
    review_url: str = ""
    claimant: str | None = optional()
    claim_date: str | None = optional()
    review_date: str | None = optional()


@record("error")
class ErrorEvent:
    """A per-record pipeline error, kept on the record rather than raised."""

    stage: str
    kind: str
    detail: str = optional("")

    def __post_init__(self) -> None:
        if self.stage not in ERROR_STAGES:
            raise SchemaError(f"unknown error stage {self.stage!r}")
        if self.kind not in ERROR_KINDS:
            raise SchemaError(f"unknown error kind {self.kind!r}")


@record("enriched record")
class EnrichedRecord:
    """A news item plus everything the enrichment flow attached to it.

    Exactly one of ``match_index`` and ``claim`` is populated unless claim
    extraction itself failed, in which case both are absent and ``errors``
    says why.
    """

    item: NewsItem
    query: str
    query_kind: str
    initial_results: list[WebResult] = field(default_factory=list)
    match_scores: list[float] = field(default_factory=list)
    match_index: int | None = optional()
    claim: str | None = optional()
    claim_enforced: bool = False
    claim_results: list[WebResult] | None = optional()
    factcheck_results: list[ClaimReviewResult] = field(default_factory=list)
    factcheck_query_used: str = "none"
    errors: list[ErrorEvent] = optional([])
    timestamps: dict[str, str] = optional({})

    def __post_init__(self) -> None:
        if self.query_kind not in QUERY_KINDS:
            raise SchemaError(f"unknown query kind {self.query_kind!r}")
        if self.factcheck_query_used not in FACTCHECK_QUERY_USED:
            raise SchemaError(f"unknown factcheck_query_used {self.factcheck_query_used!r}")
        if self.match_index is not None and self.claim is not None:
            raise SchemaError(f"record {self.item.id} has both match_index and claim")
        if self.match_index is not None and not 1 <= self.match_index <= len(self.initial_results):
            raise SchemaError(f"match_index {self.match_index} out of range for record {self.item.id}")
        if self.factcheck_query_used == "claim" and self.claim is None:
            raise SchemaError(f"record {self.item.id} used claim query without a claim")

    def _write_rule(self, out: dict[str, Any]) -> None:
        """``claim_enforced`` says how the claim was made: it is written
        beside a claim and left out without one."""
        if self.claim is None:
            del out["claim_enforced"]


def funnel(records: Iterable[EnrichedRecord]) -> dict[str, Any]:
    """Outcome counts of an enrichment run, recomputed from its records: the
    dict ``enrich`` writes to ``<out>.stats.json`` and ``analyze`` reports as
    ``funnel``. ``match_index_histogram`` counts direct matches per rank,
    keyed by the rank as a string, in rank order.

    It lives here rather than in ``enrichment`` so that ``analyze``, which
    recomputes it from a file, loads none of the enrichment stack.
    """
    counts = dict.fromkeys(("total", "matched_direct", "extraction_needed", "hard_failed", "claim_search_errors",
                            "factcheck_hits_original", "factcheck_hits_claim"), 0)
    ranks: dict[int, int] = {}
    for rec in records:
        counts["total"] += 1
        if rec.match_index is not None:
            counts["matched_direct"] += 1
            ranks[rec.match_index] = ranks.get(rec.match_index, 0) + 1
        elif rec.claim is not None:
            counts["extraction_needed"] += 1
        else:
            counts["hard_failed"] += 1
        if any(e.stage == "claim_search" and e.kind == "empty_results" for e in rec.errors):
            counts["claim_search_errors"] += 1
        if rec.factcheck_query_used == "original":
            counts["factcheck_hits_original"] += 1
        elif rec.factcheck_query_used == "claim":
            counts["factcheck_hits_claim"] += 1
    return {**counts, "match_index_histogram": {str(k): v for k, v in sorted(ranks.items())}}


def dumps_record(payload: dict[str, Any]) -> str:
    """Canonical single-line JSON used for every record file."""
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ": "))


def loads_line(line: bytes) -> Any:
    """The JSON value on one line of a record file.

    ValueError when the line is not UTF-8 or not JSON, or when a ``\\u``
    escape in it decodes to a lone surrogate, which no UTF-8 output can
    hold. A line without a ``\\u`` pays one substring search for it:
    ``rfind``, which tests the rarer backslash first and so takes half the
    time of ``in`` on Portuguese text.
    """
    text = line.decode("utf-8")
    value = json.loads(text)
    if text.rfind("\\u") >= 0:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a \\u escape gives a lone surrogate, which UTF-8 cannot encode") from None
    return value


def read_jsonl(path: str | Path, parse: Callable[[dict[str, Any]], T],
               key: Callable[[T], str] | None = None) -> Iterator[T]:
    """Yield ``parse(obj)`` for the JSON object on each non-blank line.

    A line that ``loads_line`` refuses, that holds no JSON object, or that
    ``parse`` rejects with a ValueError (SchemaError among them), KeyError
    or TypeError (a missing field, or one of the wrong type), raises
    SchemaError naming the file and line. So does a record whose id, read
    by ``key`` when given, an earlier line's had: records are looked up by
    id downstream, where one of the two would be lost. Lines end with ``\n``
    or ``\r\n``.
    """
    first_line: dict[str, int] = {}
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = loads_line(line)
                if not isinstance(raw, dict):
                    raise SchemaError(f"expected an object, got {type(raw).__name__}")
                parsed = parse(raw)
                if key is not None:
                    ident = key(parsed)
                    if first_line.setdefault(ident, lineno) != lineno:
                        raise SchemaError(f"id {ident!r} repeats line {first_line[ident]}'s")
            except (ValueError, KeyError, TypeError) as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
            yield parsed


def read_news(path: str | Path) -> list[NewsItem]:
    return list(read_jsonl(path, NewsItem.from_dict, attrgetter("id")))


def write_news(path: str | Path, items: Iterable[NewsItem]) -> None:
    write_jsonl(path, (item.to_dict() for item in items))


def read_enriched(path: str | Path) -> list[EnrichedRecord]:
    return list(read_jsonl(path, EnrichedRecord.from_dict, attrgetter("item.id")))


def write_enriched(path: str | Path, records: Iterable[EnrichedRecord]) -> None:
    write_jsonl(path, (rec.to_dict() for rec in records))


def write_jsonl(path: str | Path, payloads: Iterable[dict[str, Any]]) -> None:
    """One canonical JSON object per line (see ``dumps_record``)."""
    write_text(path, (dumps_record(payload) + "\n" for payload in payloads))


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order to ``path`` as UTF-8 with ``\n`` line ends,
    creating the parent directory.

    The chunks go to ``.<name>.<pid>.partial`` beside ``path``, which
    ``os.replace`` puts in place once the last one is written; on any
    exception that file is removed. So ``path`` holds the old file or the
    whole new one, never a prefix, if the process is killed mid-write (a
    power loss is another matter: nothing is fsynced). The response log is
    the one file not written here: it is append-only, never rewritten or
    replaced, and ``providers._append`` adds to it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with partial.open("w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise

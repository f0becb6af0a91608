"""Record schema: invariants, serialization round-trips, JSONL IO."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evidencia.evalkit import EvalInstance
from evidencia.records import (
    ERROR_KINDS,
    ERROR_STAGES,
    LABELS,
    QUERY_KINDS,
    ClaimReviewResult,
    EnrichedRecord,
    ErrorEvent,
    NewsItem,
    SchemaError,
    WebResult,
    dumps_record,
    read_enriched,
    read_news,
    write_enriched,
    write_jsonl,
    write_news,
)
from evidencia.validation import DECISION_ACTIONS, REVIEW_KINDS, ReviewItem

ids = st.text(alphabet="abcdefghij0123456789_", min_size=1, max_size=12)
texts = st.text(max_size=120)
optional_str = st.none() | st.text(min_size=1, max_size=20)

news_items = st.builds(
    NewsItem,
    id=ids,
    corpus=st.sampled_from(["fakebr", "covid19br", "mumin_pt"]),
    text=texts,
    label=st.sampled_from(LABELS),
    pair_id=optional_str,
    source_url=optional_str,
    published_at=optional_str,
    extra=st.dictionaries(st.text(min_size=1, max_size=8), st.integers(), max_size=3),
)
web_results = st.builds(WebResult, rank=st.integers(1, 10), title=texts, link=texts, snippet=texts)
review_results = st.builds(
    ClaimReviewResult, rank=st.integers(1, 10), claim_text=texts, publisher_name=texts, publisher_site=texts,
    textual_rating=texts, review_url=texts, claimant=optional_str, claim_date=optional_str, review_date=optional_str)
error_events = st.builds(ErrorEvent, stage=st.sampled_from(ERROR_STAGES), kind=st.sampled_from(ERROR_KINDS),
                         detail=texts)
eval_instances = st.builds(EvalInstance, id=ids, text=texts, label=st.sampled_from(LABELS), context=texts)


@st.composite
def enriched_records(draw):
    results = draw(st.lists(web_results, max_size=3))
    outcome = draw(st.sampled_from(["match", "claim", "neither"]))
    claim = draw(texts) if outcome == "claim" else None
    return EnrichedRecord(
        item=draw(news_items),
        query=draw(texts),
        query_kind=draw(st.sampled_from(QUERY_KINDS)),
        initial_results=results,
        match_scores=draw(st.lists(st.floats(allow_nan=False) | st.integers(-5, 5), max_size=3)),
        match_index=draw(st.integers(1, len(results))) if outcome == "match" and results else None,
        claim=claim,
        claim_enforced=claim is not None and draw(st.booleans()),  # written only beside a claim
        claim_results=draw(st.none() | st.lists(web_results, max_size=2)),
        factcheck_results=draw(st.lists(review_results, max_size=2)),
        factcheck_query_used=draw(st.sampled_from(["original", "none"] + ["claim"] * (claim is not None))),
        errors=draw(st.lists(error_events, max_size=2)),
        timestamps=draw(st.dictionaries(st.sampled_from(ERROR_STAGES), texts, max_size=2)),
    )


@st.composite
def review_items(draw):
    record_ids = draw(st.lists(ids, min_size=1, max_size=3))
    kind = draw(st.sampled_from(REVIEW_KINDS))
    context = draw(st.dictionaries(st.text(max_size=8), st.integers() | texts, max_size=2))
    suggestions = DECISION_ACTIONS if kind == "external_label_conflict" else ("keep", "remove")
    if kind == "external_label_conflict":
        context["external_bucket"] = draw(st.sampled_from(LABELS))
    decision = draw(st.none() | st.fixed_dictionaries(
        {"action": st.sampled_from(["keep", "remove"])},
        optional={"ids": st.lists(st.sampled_from(record_ids), max_size=2)}))
    return ReviewItem(id=draw(ids), kind=kind, record_ids=record_ids, suggestion=draw(st.sampled_from(suggestions)),
                      context=context, decision=decision)


RECORDS = {
    NewsItem: news_items,
    WebResult: web_results,
    ClaimReviewResult: review_results,
    ErrorEvent: error_events,
    EnrichedRecord: enriched_records(),
    EvalInstance: eval_instances,
    ReviewItem: review_items(),
}

# One JSON value of each type, and a valid object of each record type.
JSON_VALUES = [None, True, 5, 1.5, "x", ["x"], {"x": "x"}]
VALID = {
    NewsItem: {"id": "x", "corpus": "fakebr", "text": "t", "label": "fake"},
    WebResult: {"rank": 1},
    ClaimReviewResult: {"rank": 1},
    ErrorEvent: {"stage": "initial_search", "kind": "provider_failure"},
    EnrichedRecord: {"item": {"id": "x", "corpus": "fakebr", "text": "t", "label": "fake"}, "query": "q",
                     "query_kind": "full_text"},
    EvalInstance: {"id": "x", "text": "t", "label": "fake"},
    ReviewItem: {"id": "rev-0001", "kind": "random_inspection", "record_ids": ["x"]},
}


class TestFieldTables:
    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_round_trip(self, cls, data):
        record = data.draw(RECORDS[cls])
        assert cls.from_dict(json.loads(dumps_record(record.to_dict()))) == record

    @pytest.mark.parametrize("cls,name", [
        pytest.param(cls, name, id=f"{cls.__name__}-{name}") for cls in RECORDS for name in cls.FIELDS
    ])
    def test_value_of_the_wrong_json_type_names_the_field(self, cls, name):
        accepts, _ = cls.FIELDS[name]
        wrong = [value for value in JSON_VALUES if type(value) not in accepts]
        assert wrong, f"{cls.__name__}.{name} takes any JSON value"
        for value in wrong:
            with pytest.raises(SchemaError, match=rf"\b{name} must be "):
                cls.from_dict({**VALID[cls], name: value})

    def test_valid_objects_read(self):
        assert all(cls.from_dict(raw) for cls, raw in VALID.items())


class TestNewsItem:
    def test_unknown_fields_collect_into_extra(self):
        item = NewsItem.from_dict(
            {"id": "x", "corpus": "fakebr", "text": "t", "label": "fake", "tweet_id": 99}
        )
        assert item.extra == {"tweet_id": 99}

    def test_optionals_omitted_when_absent(self):
        item = NewsItem(id="x", corpus="fakebr", text="t", label="fake")
        assert set(item.to_dict()) == {"id", "corpus", "text", "label"}

    # Value rules hold on construction; a value's JSON type is checked where
    # it is read, so a text of 7 is refused by from_dict, not the constructor.
    @pytest.mark.parametrize(
        "patch",
        [{"id": ""}, {"corpus": "reddit"}, {"label": "maybe"}, {"text": 7}],
    )
    def test_invalid_fields_rejected(self, patch):
        base = dict(id="x", corpus="fakebr", text="t", label="fake")
        base.update(patch)
        with pytest.raises(SchemaError):
            NewsItem.from_dict(base)

    def test_missing_required_field(self):
        with pytest.raises(SchemaError, match="missing required field 'label'"):
            NewsItem.from_dict({"id": "x", "corpus": "fakebr", "text": "t"})


class TestErrorEvent:
    def test_valid(self):
        event = ErrorEvent("initial_search", "provider_failure", "boom")
        assert event.to_dict()["stage"] == "initial_search"

    def test_unknown_stage_rejected(self):
        with pytest.raises(SchemaError):
            ErrorEvent("telepathy", "provider_failure", "x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            ErrorEvent("initial_search", "mild_annoyance", "x")


class TestResultFieldTypes:
    @pytest.mark.parametrize("cls,raw,field", [
        (WebResult, {"rank": 1, "link": 5}, "link"),
        (WebResult, {"rank": 1, "title": None}, "title"),
        (WebResult, {"rank": 1, "snippet": ["s"]}, "snippet"),
        (ClaimReviewResult, {"rank": 1, "review_date": 2020}, "review_date"),
        (ClaimReviewResult, {"rank": 1, "claimant": {}}, "claimant"),
        (ClaimReviewResult, {"rank": 1, "textual_rating": None}, "textual_rating"),
    ])
    def test_field_of_the_wrong_type_rejected(self, cls, raw, field):
        with pytest.raises(SchemaError, match=f"{field} must be a string"):
            cls.from_dict(raw)

    def test_optional_review_fields_may_be_null(self):
        raw = {"rank": 1, "claimant": None, "claim_date": None, "review_date": None}
        assert ClaimReviewResult.from_dict(raw).to_dict() == {
            "rank": 1, "claim_text": "", "publisher_name": "", "publisher_site": "", "textual_rating": "",
            "review_url": ""}


def make_enriched(**kwargs):
    item = NewsItem(id="r1", corpus="covid19br", text="um texto", label="fake")
    defaults = dict(item=item, query="um texto", query_kind="full_text")
    defaults.update(kwargs)
    return EnrichedRecord(**defaults)


class TestEnrichedRecord:
    def test_match_and_claim_are_exclusive(self):
        results = [WebResult(rank=1, title="t", link="l", snippet="s")]
        with pytest.raises(SchemaError, match="both match_index and claim"):
            make_enriched(initial_results=results, match_index=1, claim="algo")

    def test_match_index_must_point_at_a_result(self):
        results = [WebResult(rank=1, title="t", link="l", snippet="s")]
        with pytest.raises(SchemaError, match="out of range"):
            make_enriched(initial_results=results, match_index=2)
        with pytest.raises(SchemaError, match="out of range"):
            make_enriched(initial_results=results, match_index=0)

    # An enriched record has no id of its own; a type error names its item's.
    def test_type_error_names_the_item_id(self):
        raw = {"item": {"id": "cv_0002", "corpus": "covid19br", "text": "t", "label": "fake"},
               "query": 5, "query_kind": "full_text"}
        with pytest.raises(SchemaError, match="^enriched record cv_0002: query must be a string, got int$"):
            EnrichedRecord.from_dict(raw)

    def test_claim_query_requires_claim(self):
        with pytest.raises(SchemaError, match="claim query without a claim"):
            make_enriched(factcheck_query_used="claim")

    def test_round_trip_with_everything(self):
        record = make_enriched(
            initial_results=[WebResult(rank=1, title="t", link="l", snippet="s")],
            match_scores=[0.4],
            claim="uma alegação curta",
            claim_enforced=True,
            claim_results=[WebResult(rank=1, title="c", link="l2", snippet="s2")],
            factcheck_results=[
                ClaimReviewResult(
                    rank=1,
                    claim_text="alegação",
                    publisher_name="Checagem",
                    publisher_site="checagem.example",
                    textual_rating="Falso",
                    review_url="https://checagem.example/1",
                    review_date="2021-01-01",
                )
            ],
            factcheck_query_used="claim",
            errors=[ErrorEvent("claim_search", "empty_results", "sem resultados")],
            timestamps={"initial_search": "2020-01-01T00:00:00Z"},
        )
        assert EnrichedRecord.from_dict(record.to_dict()) == record

    def test_round_trip_minimal(self):
        record = make_enriched()
        assert EnrichedRecord.from_dict(record.to_dict()) == record

    def test_claim_enforced_written_beside_a_claim_only(self):
        assert "claim_enforced" not in make_enriched().to_dict()
        assert make_enriched(claim="c").to_dict()["claim_enforced"] is False


class TestJsonlIO:
    def test_news_round_trip(self, tmp_path):
        items = [
            NewsItem(id="a", corpus="fakebr", text="texto um", label="fake", pair_id="p1"),
            NewsItem(id="b", corpus="covid19br", text="texto dois", label="true"),
        ]
        path = tmp_path / "news.jsonl"
        write_news(path, items)
        assert read_news(path) == items

    def test_enriched_round_trip(self, tmp_path):
        other = NewsItem(id="r2", corpus="covid19br", text="outro texto", label="true")
        records = [make_enriched(), make_enriched(item=other)]
        path = tmp_path / "enriched.jsonl"
        write_enriched(path, records)
        assert read_enriched(path) == records

    def test_read_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "corpus": "fakebr", "text": "t", "label": "fake"}\n{"id": ""}\n')
        with pytest.raises(SchemaError, match="bad.jsonl:2"):
            read_news(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "news.jsonl"
        path.write_text('\n{"id": "a", "corpus": "fakebr", "text": "t", "label": "fake"}\n\n')
        assert len(read_news(path)) == 1

    def test_crlf_line_ends_read(self, tmp_path):
        path = tmp_path / "news.jsonl"
        path.write_bytes('{"id": "a", "corpus": "fakebr", "text": "notícia", "label": "fake"}\r\n\r\n'
                         '{"id": "b", "corpus": "fakebr", "text": "t", "label": "true"}\r\n'.encode("utf-8"))
        assert [(item.id, item.text) for item in read_news(path)] == [("a", "notícia"), ("b", "t")]

    def test_undecodable_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": "a", "corpus": "fakebr", "text": "t", "label": "fake"}\n'
                         b'{"id": "b", "corpus": "fakebr", "text": "t\xff", "label": "fake"}\n')
        with pytest.raises(SchemaError, match="bad.jsonl:2: 'utf-8' codec can't decode byte 0xff"):
            read_news(path)

    def test_lone_surrogate_escape_names_the_line(self, tmp_path):
        # A surrogate pair decodes to one character; a lone half cannot be
        # written back as UTF-8, so it is refused where it is read.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "corpus": "fakebr", "text": "\\ud83d\\ude00 C:\\\\users", "label": "fake"}\n'
                        '{"id": "b", "corpus": "fakebr", "text": "t\\ud800", "label": "fake"}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="bad.jsonl:2: a \\\\u escape gives a lone surrogate"):
            read_news(path)
        path.write_text(path.read_text(encoding="utf-8").splitlines()[0], encoding="utf-8")
        assert [item.text for item in read_news(path)] == ["\U0001F600 C:\\users"]

    @staticmethod
    def failing_after(n):
        for k in range(n):
            yield {"k": k}
        raise RuntimeError("writer stopped")

    @pytest.mark.parametrize("before", [b'{"k": "old"}\n', None], ids=["existing-file", "no-file"])
    def test_failed_write_leaves_the_old_file_or_none(self, tmp_path, before):
        path = tmp_path / "out" / "records.jsonl"
        if before is not None:
            path.parent.mkdir()
            path.write_bytes(before)
        with pytest.raises(RuntimeError, match="writer stopped"):
            write_jsonl(path, self.failing_after(3))
        assert sorted(p.name for p in path.parent.iterdir()) == ([path.name] if before else [])
        if before is not None:
            assert path.read_bytes() == before

    def test_write_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("old\n" * 10, encoding="utf-8")
        write_jsonl(path, [{"k": 1}, {"k": "é"}])
        assert path.read_bytes() == '{"k": 1}\n{"k": "é"}\n'.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

"""Enrichment flow over the recorded fixture corpus."""

from dataclasses import replace

import pytest

from evidencia.clocks import FrozenClock
from evidencia.enrichment import enrich_one
from evidencia.providers import KIND_FACTCHECK, KIND_WEB, ProviderFailure
from evidencia.records import ErrorEvent, funnel
from evidencia.validation import run_validation


@pytest.fixture(scope="module")
def enriched(corpus, backend, detector):
    validated, _ = run_validation(corpus, detector=detector)
    clock = FrozenClock()
    return {item.id: enrich_one(item, backend, clock=clock) for item in validated}


class TestDirectMatch:
    def test_match_at_rank_one(self, enriched):
        rec = enriched["true_0001"]
        assert rec.match_index == 1
        assert rec.claim is None
        assert rec.claim_results is None
        assert rec.match_scores[0] >= 0.8
        assert not rec.errors

    def test_match_at_deeper_rank(self, enriched):
        rec = enriched["cv_0018"]
        assert rec.match_index == 3
        assert all(s < 0.8 for s in rec.match_scores[:2])
        assert rec.match_scores[2] >= 0.8

    def test_scores_cover_every_result(self, enriched):
        for rec in enriched.values():
            assert len(rec.match_scores) == len(rec.initial_results)


class TestClaimPath:
    def test_no_match_triggers_extraction(self, enriched):
        rec = enriched["cv_0001"]
        assert rec.match_index is None
        assert rec.claim == ("Exames de COVID-19 podem apresentar falsos negativos, mesmo "
                             "com testes em laboratórios renomados.")
        assert rec.claim_results and rec.claim_results[0].link.startswith("https://portal.fiocruz.br")

    def test_claim_search_can_come_back_empty(self, enriched):
        rec = enriched["cv_0013"]
        assert rec.claim is not None
        assert rec.claim_results == []
        assert any(e.stage == "claim_search" and e.kind == "empty_results" for e in rec.errors)

    def test_overlong_answer_is_enforced(self, enriched):
        rec = enriched["cv_0015"]
        assert rec.claim_enforced
        assert len(rec.claim.split()) == 20

    def test_model_failure_hard_fails_the_record(self, enriched):
        rec = enriched["cv_0014"]
        assert rec.match_index is None and rec.claim is None
        assert any(e.stage == "claim_extraction" and e.kind == "provider_failure" for e in rec.errors)


class TestFactcheck:
    def test_original_query_hit(self, enriched):
        rec = enriched["fake_0001"]
        assert rec.factcheck_query_used == "original"
        assert rec.factcheck_results[0].publisher_name == "Lupa - UOL"
        assert rec.factcheck_results[0].textual_rating == "Falso"

    def test_fallback_to_claim_query(self, enriched):
        rec = enriched["cv_0002"]
        assert rec.factcheck_query_used == "claim"
        assert rec.factcheck_results[0].publisher_name == "Aos Fatos"

    def test_hit_on_a_directly_matched_record(self, enriched):
        rec = enriched["cv_0007"]
        assert rec.match_index == 1
        assert rec.factcheck_query_used == "original"
        assert rec.factcheck_results[0].textual_rating == "Verdadeiro"

    def test_most_records_have_no_factcheck(self, enriched):
        rec = enriched["true_0001"]
        assert rec.factcheck_results == []
        assert rec.factcheck_query_used == "none"
        # an empty fact-check response is normal, not an error
        assert not any(e.stage == "factcheck_search" for e in rec.errors)

    def test_no_fallback_without_a_claim(self, enriched):
        # direct matches never extract a claim, so there is nothing to fall
        # back to even when the original query found no review
        rec = enriched["mm_0003"]
        assert rec.claim is None
        assert rec.factcheck_query_used == "none"


class FailingSearch:
    """Replays ``inner`` but raises ProviderFailure for one (kind, query)."""

    def __init__(self, inner, kind, query):
        self.inner, self.kind, self.query = inner, kind, query

    def fetch(self, kind, payload, digest=None):
        if kind == self.kind and payload.get("query") == self.query:
            raise ProviderFailure(f"{kind}: HTTP 503")
        return self.inner.fetch(kind, payload, digest)


class TestSearchFailures:
    # Each case fails one search of a record and names the error stage, the
    # search's query (the record's query or its claim) and the fields that
    # must differ from the record enriched without a failure.
    @pytest.mark.parametrize("record_id,kind,query_from,stage,emptied", [
        ("fake_0001", KIND_WEB, "query", "initial_search", {"initial_results": [], "match_scores": []}),
        ("fake_0001", KIND_WEB, "claim", "claim_search", {"claim_results": []}),
        ("fake_0001", KIND_FACTCHECK, "query", "factcheck_search",
         {"factcheck_results": [], "factcheck_query_used": "none"}),
        ("cv_0002", KIND_FACTCHECK, "claim", "factcheck_search",
         {"factcheck_results": [], "factcheck_query_used": "none"}),
    ], ids=["initial-web", "claim-web", "original-factcheck", "claim-factcheck-fallback"])
    def test_failure_is_recorded_and_the_rest_filled(self, corpus_by_id, backend, record_id, kind, query_from,
                                                     stage, emptied):
        item = corpus_by_id[record_id]
        clean = enrich_one(item, backend, clock=FrozenClock())
        assert not clean.errors
        assert all(getattr(clean, name) for name in emptied if name != "factcheck_query_used")

        failing = FailingSearch(backend, kind, getattr(clean, query_from))
        got = enrich_one(item, failing, clock=FrozenClock())
        assert got == replace(clean, errors=[ErrorEvent(stage, "provider_failure", f"{kind}: HTTP 503")], **emptied)


class TestTimestampsAndQueries:
    def test_frozen_clock_stamps_every_stage(self, enriched):
        rec = enriched["cv_0001"]
        assert set(rec.timestamps) == {"initial_search", "claim_extraction", "claim_search", "factcheck_search"}
        assert set(rec.timestamps.values()) == {"2020-01-01T00:00:00Z"}

    def test_direct_match_skips_claim_stages(self, enriched):
        rec = enriched["true_0001"]
        assert set(rec.timestamps) == {"initial_search", "factcheck_search"}

    def test_query_kind_variety(self, enriched):
        assert enriched["true_0001"].query_kind == "first_sentence"
        assert enriched["cv_0002"].query_kind == "first_paragraph"

    def test_quotes_and_emoji_removed_from_query(self, enriched):
        rec = enriched["cv_0017"]
        assert "🚨" not in rec.query
        assert "“" not in rec.query and "”" not in rec.query
        assert rec.match_index == 1


class TestDeterminism:
    def test_two_runs_are_identical(self, corpus_by_id, backend):
        item = corpus_by_id["cv_0001"]
        a = enrich_one(item, backend, clock=FrozenClock())
        b = enrich_one(item, backend, clock=FrozenClock())
        assert a.to_dict() == b.to_dict()


class TestFunnel:
    def test_matches_the_fixture_design(self, enriched):
        stats = funnel(enriched.values())
        assert stats == {
            "total": 30,
            "matched_direct": 23,
            "extraction_needed": 6,
            "hard_failed": 1,
            "claim_search_errors": 1,
            "factcheck_hits_original": 2,
            "factcheck_hits_claim": 1,
            "match_index_histogram": {"1": 20, "2": 2, "3": 1},
        }
        assert stats["total"] == stats["matched_direct"] + stats["extraction_needed"] + stats["hard_failed"]

    def test_keys_keep_their_written_order(self, enriched):
        # <out>.stats.json is written unsorted, so the order is part of its bytes.
        stats = funnel(reversed(list(enriched.values())))
        assert list(stats) == ["total", "matched_direct", "extraction_needed", "hard_failed", "claim_search_errors",
                               "factcheck_hits_original", "factcheck_hits_claim", "match_index_histogram"]
        assert list(stats["match_index_histogram"]) == ["1", "2", "3"]

    def test_empty(self):
        stats = funnel([])
        assert stats["total"] == 0
        assert stats["match_index_histogram"] == {}

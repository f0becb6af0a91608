"""Corpus validation: stage behavior, accounting, review round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencia import validation
from evidencia.dedup import near_duplicates
from evidencia.providers import LOG_NAME, FixtureBackend, KIND_FACTCHECK, ProviderFailure, write_cassette
from evidencia.records import NewsItem, SchemaError, dumps_record
from evidencia.textprep import build_query
from evidencia.validation import (
    ReviewItem,
    ValidationReport,
    apply_decisions,
    check_external_labels,
    fakebr_rules,
    filter_initial,
    filter_language,
    flag_contradictions,
    random_inspection,
    read_review_items,
    run_validation,
    strip_record_urls,
    write_review_items,
)

from oracles import FixedDetector

LONG = ("O governo municipal confirmou nesta semana a abertura de novas vagas de "
        "vacinação em todos os postos de saúde da cidade durante o próximo mês.")


def item(id, text=LONG, corpus="covid19br", label="true", **kwargs):
    return NewsItem(id=id, corpus=corpus, text=text, label=label, **kwargs)


def dups(records):
    return near_duplicates({i.id: i.text for i in records})


class TestInitialFilter:
    def test_exact_duplicate_keeps_first(self):
        report = ValidationReport(input_count=3)
        kept = filter_initial([item("a"), item("b"), item("c", text=LONG + " extra")], report)
        assert [i.id for i in kept] == ["a", "c"]
        assert report.removed["initial_filter"] == ["b"]
        assert report.removal_reasons["b"] == "exact_duplicate"

    def test_url_only_removed(self):
        report = ValidationReport(input_count=1)
        kept = filter_initial([item("u", text="https://example.com/x  http://y.example")], report)
        assert kept == []
        assert report.removal_reasons["u"] == "url_only"

    def test_short_text_removed(self):
        report = ValidationReport(input_count=1)
        kept = filter_initial([item("s", text="vacina chegou cedo hoje")], report)
        assert kept == []
        assert report.removal_reasons["s"] == "too_short"


class TestLanguageFilter:
    def test_confident_foreign_removed(self):
        detector = FixedDetector({"english text": ("en", 0.99)})
        report = ValidationReport(input_count=2)
        kept = filter_language([item("a"), item("b", text="english text")], report, detector)
        assert [i.id for i in kept] == ["a"]
        assert report.removal_reasons["b"] == "language:en"

    def test_uncertain_foreign_flagged_and_kept(self):
        detector = FixedDetector({"texto duvidoso": ("es", 0.7)})
        report = ValidationReport(input_count=1)
        kept = filter_language([item("a", text="texto duvidoso")], report, detector)
        assert [i.id for i in kept] == ["a"]
        assert report.flagged_language == ["a"]

    def test_detector_failure_propagates(self):
        class Boom:
            def detect(self, text):
                raise RuntimeError("no model")

        report = ValidationReport(input_count=1)
        with pytest.raises(RuntimeError, match="no model"):
            filter_language([item("a")], report, Boom())


class TestContradictions:
    def test_mixed_label_near_duplicates_flagged(self):
        base = LONG + " Detalhe final um pouco mais longo para dar corpo ao texto."
        records = [
            item("a", text=base + " Fim A.", label="fake"),
            item("b", text=base + " Fim B.", label="true"),
        ]
        report = ValidationReport(input_count=2)
        flag_contradictions(records, report, dups(records))
        assert len(report.review_items) == 1
        review = report.review_items[0]
        assert review.kind == "near_dup_conflict"
        assert review.record_ids == ["a", "b"]
        assert review.suggestion == "remove"
        assert review.context["labels"] == {"a": "fake", "b": "true"}

    def test_same_label_near_duplicates_pass(self):
        base = LONG + " Detalhe final um pouco mais longo para dar corpo ao texto."
        records = [item("a", text=base + " Fim A."), item("b", text=base + " Fim B.")]
        report = ValidationReport(input_count=2)
        flag_contradictions(records, report, dups(records))
        assert report.review_items == []

    def test_shared_url_with_mixed_labels_flagged(self):
        records = [
            item("a", text=LONG + " Veja https://example.com/post aqui.", label="fake"),
            item("b", text="Outra coisa totalmente diferente citando https://example.com/post "
                           "com muitas outras palavras de conteúdo para passar em filtros.", label="true"),
        ]
        report = ValidationReport(input_count=2)
        flag_contradictions(records, report, dups(records))
        kinds = [r.kind for r in report.review_items]
        assert kinds == ["shared_url_conflict"]
        assert report.review_items[0].context["url"] == "https://example.com/post"

    def test_review_ids_are_sequential(self):
        base = LONG + " Detalhe final um pouco mais longo para dar corpo ao texto."
        records = [
            item("a", text=base + " Fim A. Link https://example.com/x", label="fake"),
            item("b", text=base + " Fim B. Link https://example.com/x", label="true"),
        ]
        report = ValidationReport(input_count=2)
        flag_contradictions(records, report, dups(records))
        assert [r.id for r in report.review_items] == ["rev-0001", "rev-0002"]

    def test_later_stages_continue_the_numbering(self):
        records = [item("a"), item("b", text=LONG + " x"), item("c", text=LONG + " y")]
        report = ValidationReport(input_count=3)
        report.add_review("near_dup_conflict", ["a", "b"], suggestion="remove")
        random_inspection(records, report, 2)
        assert [(r.id, r.kind) for r in report.review_items] == [
            ("rev-0001", "near_dup_conflict"), ("rev-0002", "random_inspection"), ("rev-0003", "random_inspection"),
        ]
        assert report.review_items[0].suggestion == "remove"


def plant_factcheck(directory, query, rating):
    payload = {"query": query, "languageCode": "pt-BR", "pageSize": 5}
    body = {"claims": [{"text": query,
                        "claimReview": [{"publisher": {"name": "Agência", "site": "a.example"},
                                         "textualRating": rating, "url": "https://a.example/r"}]}]}
    write_cassette(directory, KIND_FACTCHECK, payload, body)


class TestExternalLabels:
    def test_conflicting_rating_flagged(self, tmp_path):
        record = item("a", label="true")
        plant_factcheck(tmp_path, build_query(LONG)[0], "Falso")
        report = ValidationReport(input_count=1)
        check_external_labels([record], FixtureBackend(tmp_path), report)
        assert len(report.review_items) == 1
        review = report.review_items[0]
        assert review.kind == "external_label_conflict"
        assert review.suggestion == "relabel"
        assert review.context["external_bucket"] == "fake"

    def test_agreeing_rating_passes(self, tmp_path):
        record = item("a", label="fake")
        plant_factcheck(tmp_path, build_query(LONG)[0], "Falso")
        report = ValidationReport(input_count=1)
        check_external_labels([record], FixtureBackend(tmp_path), report)
        assert report.review_items == []

    def test_unmapped_rating_ignored(self, tmp_path):
        record = item("a", label="true")
        plant_factcheck(tmp_path, build_query(LONG)[0], "Meia verdade")
        report = ValidationReport(input_count=1)
        check_external_labels([record], FixtureBackend(tmp_path), report)
        assert report.review_items == []

    def test_no_reviews_passes(self, tmp_path):
        (tmp_path / LOG_NAME).touch()
        report = ValidationReport(input_count=1)
        check_external_labels([item("a")], FixtureBackend(tmp_path), report)
        assert report.review_items == []

    def test_failed_lookup_is_reported(self, tmp_path):
        plant_factcheck(tmp_path, build_query(LONG)[0], "Falso")
        replay = FixtureBackend(tmp_path)
        other = "Outro texto sobre a campanha de vacinação nas escolas estaduais da região metropolitana."

        class FailsOnOther:
            def fetch(self, kind, payload, digest=None):
                if payload["query"] == build_query(other)[0]:
                    raise ProviderFailure("factcheck: HTTP 503")
                return replay.fetch(kind, payload, digest)

        report = ValidationReport(input_count=2)
        check_external_labels([item("a"), item("b", text=other)], FailsOnOther(), report)
        assert report.external_check_failed == ["b"]
        assert [r.record_ids for r in report.review_items] == [["a"]]
        assert report.to_dict()["external_check_failed"] == ["b"]

    def test_record_with_no_words_is_not_cross_checked(self, tmp_path):
        # run_validation's initial filter removes such a record first; a
        # direct call still lists it instead of querying for nothing.
        plant_factcheck(tmp_path, build_query(LONG)[0], "Falso")
        replay = FixtureBackend(tmp_path)
        queried = []

        class Recording:
            def fetch(self, kind, payload, digest=None):
                queried.append(payload["query"])
                return replay.fetch(kind, payload, digest)

        report = ValidationReport(input_count=2)
        check_external_labels([item("w", text="“😀” \"🙂\""), item("a", label="fake")], Recording(), report)
        assert report.external_check_failed == ["w"]
        assert queried == [build_query(LONG)[0]]
        assert report.review_items == []


class TestRandomInspection:
    def test_zero_sample_is_noop(self):
        report = ValidationReport(input_count=2)
        random_inspection([item("a"), item("b", text=LONG + " x")], report, 0)
        assert report.review_items == []

    def test_seeded_and_sorted(self):
        records = [item(f"r{i:02d}", text=LONG + f" {i}") for i in range(10)]
        report_a = ValidationReport(input_count=10)
        random_inspection(records, report_a, 3, seed=42)
        report_b = ValidationReport(input_count=10)
        random_inspection(records, report_b, 3, seed=42)
        ids_a = [r.record_ids[0] for r in report_a.review_items]
        assert ids_a == [r.record_ids[0] for r in report_b.review_items]
        assert ids_a == sorted(ids_a)
        assert len(ids_a) == 3

    def test_sample_capped_at_population(self):
        report = ValidationReport(input_count=1)
        random_inspection([item("a")], report, 99)
        assert len(report.review_items) == 1


class TestDecisions:
    def make_review(self, decision, record_ids=("a", "b")):
        return ReviewItem(id="rev-0001", kind="near_dup_conflict",
                          record_ids=list(record_ids), decision=decision)

    def test_remove_decision(self):
        records = [item("a", label="fake"), item("b", text=LONG + " x")]
        report = ValidationReport(input_count=2)
        review = self.make_review({"action": "remove", "ids": ["a"]})
        kept = apply_decisions(records, [review], report)
        assert [i.id for i in kept] == ["b"]
        assert report.removed["contradiction_resolution"] == ["a"]
        assert report.removal_reasons["a"] == "decision:near_dup_conflict"

    # A string would be taken character by character: "a" would target record a.
    @pytest.mark.parametrize("ids", ["a", ["a", 1]], ids=["string", "non-string-member"])
    def test_decision_ids_must_be_a_list_of_strings(self, ids):
        with pytest.raises(SchemaError, match="decision ids must be a list of strings"):
            self.make_review({"action": "remove", "ids": ids})

    def test_relabel_decision(self):
        records = [item("a", label="fake"), item("b", text=LONG + " x")]
        report = ValidationReport(input_count=2)
        review = self.make_review({"action": "relabel", "ids": ["a"], "label": "true"})
        kept = apply_decisions(records, [review], report)
        assert kept[0].label == "true"
        assert report.corrected["contradiction_resolution"][0]["old"] == "fake"

    def test_relabel_to_same_label_records_nothing(self):
        records = [item("a", label="fake")]
        report = ValidationReport(input_count=1)
        review = self.make_review({"action": "relabel", "ids": ["a"], "label": "fake"}, record_ids=["a"])
        apply_decisions(records, [review], report)
        assert report.corrected["contradiction_resolution"] == []

    def test_keep_decision_is_noop(self):
        records = [item("a"), item("b", text=LONG + " x")]
        report = ValidationReport(input_count=2)
        kept = apply_decisions(records, [self.make_review({"action": "keep"})], report)
        assert len(kept) == 2

    def test_decision_for_missing_record_skipped(self):
        records = [item("b", text=LONG + " x")]
        report = ValidationReport(input_count=1)
        review = self.make_review({"action": "remove", "ids": ["a"]})
        kept = apply_decisions(records, [review], report)
        assert [i.id for i in kept] == ["b"]
        assert report.removed["contradiction_resolution"] == []

    def test_undecided_items_pass_through(self):
        records = [item("a")]
        report = ValidationReport(input_count=1)
        kept = apply_decisions(records, [self.make_review(None, record_ids=["a"])], report)
        assert len(kept) == 1

    def test_validate_decision_rejects_unknown_action(self):
        with pytest.raises(SchemaError, match="unknown action"):
            self.make_review({"action": "ban"})

    def test_validate_decision_rejects_foreign_ids(self):
        with pytest.raises(SchemaError, match="unknown records"):
            self.make_review({"action": "remove", "ids": ["zz"]})

    def test_validate_decision_requires_relabel_label(self):
        with pytest.raises(SchemaError, match="valid label"):
            self.make_review({"action": "relabel"})


class TestReviewFile:
    def test_round_trip_in_canonical_form(self, tmp_path):
        items = [
            ReviewItem(id="rev-0001", kind="near_dup_conflict", record_ids=["a", "b"], suggestion="remove",
                       context={"labels": {"a": "fake", "b": "true"}}),
            ReviewItem(id="rev-0002", kind="random_inspection", record_ids=["ç"],
                       decision={"action": "keep"}),
        ]
        path = tmp_path / "queue.jsonl"
        write_review_items(path, items)
        assert read_review_items(path) == items
        assert path.read_text(encoding="utf-8") == "".join(dumps_record(i.to_dict()) + "\n" for i in items)


class TestFakebrRules:
    def pair(self, pid):
        return [
            item(f"fake_{pid}", corpus="fakebr", label="fake", pair_id=pid,
                 text=f"Versão falsa {pid} " + LONG),
            item(f"true_{pid}", corpus="fakebr", label="true", pair_id=pid,
                 text=f"Versão verdadeira {pid} " + LONG),
        ]

    def test_missing_pair_id_raises(self):
        report = ValidationReport(input_count=1)
        with pytest.raises(SchemaError, match="missing pair_id"):
            fakebr_rules([item("x", corpus="fakebr", pair_id=None)], report, [])

    def test_same_source_near_duplicates_keep_lowest_id(self):
        records = self.pair("p1") + self.pair("p2")
        # p2's true record becomes a same-source near-duplicate of p1's
        records[3] = item("true_p2", corpus="fakebr", label="true", pair_id="p2",
                          text=records[1].text + " extra", source_url="https://example.com/s")
        records[1] = item("true_p1", corpus="fakebr", label="true", pair_id="p1",
                          text=records[1].text, source_url="https://example.com/s")
        report = ValidationReport(input_count=4)
        kept = fakebr_rules(records, report, dups(records))
        # true_p2 loses the near-dup rule, fake_p2 falls in the orphan sweep
        assert {i.id for i in kept} == {"fake_p1", "true_p1"}
        assert report.removal_reasons["true_p2"] == "same_source_near_dup"
        assert report.removal_reasons["fake_p2"] == "pair_member_removed"

    def test_incomplete_ids_removed_with_their_pairs(self):
        records = self.pair("p1") + self.pair("p2")
        report = ValidationReport(input_count=4)
        kept = fakebr_rules(records, report, dups(records), incomplete_ids=["fake_p2"])
        assert {i.id for i in kept} == {"fake_p1", "true_p1"}
        assert report.removal_reasons["fake_p2"] == "truncated_source"
        assert report.removal_reasons["true_p2"] == "pair_member_removed"

    def test_more_than_two_members_rejected(self):
        records = self.pair("p1")
        records.append(item("extra_p1", corpus="fakebr", label="fake", pair_id="p1",
                            text="Terceiro membro " + LONG))
        report = ValidationReport(input_count=3)
        with pytest.raises(SchemaError, match="has 3 members"):
            fakebr_rules(records, report, dups(records))

    def test_other_corpora_untouched(self):
        records = [item("cv_1"), item("cv_2", text=LONG + " x")]
        report = ValidationReport(input_count=2)
        assert fakebr_rules(records, report, dups(records)) == records


class TestUrlStripping:
    def test_strip_preserves_raw_text(self):
        records = [item("a", text=LONG + " Veja https://example.com/x agora.")]
        report = ValidationReport(input_count=1)
        out = strip_record_urls(records, report)
        assert "https://example.com/x" not in out[0].text
        assert out[0].extra["text_raw"] == records[0].text
        assert report.urls_stripped == 1

    def test_untouched_records_keep_no_raw_copy(self):
        records = [item("a")]
        report = ValidationReport(input_count=1)
        out = strip_record_urls(records, report)
        assert out[0] == records[0]
        assert report.urls_stripped == 0


class TestFullRun:
    def test_fixture_corpus_accounting(self, corpus, detector):
        validated, report = run_validation(corpus, detector=detector)
        assert report.input_count == len(corpus) == 38
        assert report.output_count == len(validated) == 30
        assert report.conservation_holds()
        reasons = report.removal_reasons
        assert reasons["cv_0003"] == "exact_duplicate"
        assert reasons["cv_0004"] == "url_only"
        assert reasons["mm_0001"] == "too_short"
        assert reasons["cv_0006"] == "language:en"
        assert reasons["cv_0008"] == "language:es"
        assert reasons["true_3023"] == "same_source_near_dup"
        assert reasons["fake_3023"] == "pair_member_removed"
        assert report.urls_stripped == 3
        assert sorted(r.kind for r in report.review_items) == [
            "near_dup_conflict",
            "shared_url_conflict",
        ]

    def test_one_near_duplicate_pass(self, corpus, detector, monkeypatch):
        assert any(i.corpus == "fakebr" for i in corpus)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return near_duplicates(*args, **kwargs)

        monkeypatch.setattr(validation, "near_duplicates", counting)
        run_validation(corpus, detector=detector)
        assert len(calls) == 1

    def test_report_dict_shape(self, corpus, detector):
        _, report = run_validation(corpus, detector=detector)
        data = report.to_dict()
        assert data["input_count"] == 38
        assert data["output_count"] == 30
        assert set(data["stage_counts"]) == {
            "initial_filter", "language_filter", "contradiction_resolution",
            "external_label_check", "subset_inspection", "fakebr_specific",
        }
        assert data["review_queue_size"] == 2
        assert "external_check_failed" not in data

    def test_decisions_feed_back(self, corpus, detector):
        validated, report = run_validation(corpus, detector=detector)
        review = next(r for r in report.review_items if r.kind == "near_dup_conflict")
        decided = ReviewItem.from_dict({**review.to_dict(),
                                        "decision": {"action": "remove", "ids": [review.record_ids[0]]},
                                        "decided_by": "qa"})
        validated2, report2 = run_validation(corpus, detector=detector, decisions=[decided])
        assert len(validated2) == len(validated) - 1
        assert report2.conservation_holds()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_conservation_on_random_corpora(self, data):
        detector = FixedDetector({}, default=("pt", 1.0))
        texts = st.sampled_from([
            LONG,
            LONG + " Outro detalhe relevante no fim do texto para variar.",
            "curto demais",
            "https://example.com/somente-url",
            "Mensagem diferente sobre escolas municipais e o calendário de aulas da "
            "rede pública com vagas novas em todos os bairros da cidade inteira.",
        ])
        n_pairs = data.draw(st.integers(min_value=0, max_value=3))
        records = []
        for p in range(n_pairs):
            for side in ("fake", "true"):
                records.append(item(f"{side}_{p:02d}", corpus="fakebr", label=side,
                                    pair_id=f"p{p:02d}", text=data.draw(texts)))
        n_solo = data.draw(st.integers(min_value=0, max_value=6))
        for s in range(n_solo):
            records.append(item(f"cv_{s:02d}", corpus="covid19br",
                                label=data.draw(st.sampled_from(["fake", "true"])),
                                text=data.draw(texts)))
        validated, report = run_validation(records, detector=detector)
        assert report.conservation_holds()
        assert report.input_count == len(records)
        assert report.output_count == len(validated)

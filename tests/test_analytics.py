"""Descriptive statistics checked against hand-computed values."""

import pytest

from evidencia import resources
from evidencia.analytics import (
    cluster_size_histogram,
    domain_distribution,
    match_index_histogram,
    rating_distribution,
    review_year_histogram,
    text_stats,
)
from evidencia.records import ClaimReviewResult, EnrichedRecord, NewsItem, WebResult


def news(id, text, corpus="covid19br", label="fake"):
    return NewsItem(id=id, corpus=corpus, text=text, label=label)


def enriched(id, **kwargs):
    return EnrichedRecord(item=news(id, "texto"), query="q", query_kind="full_text", **kwargs)


def review(publisher, rating, date=None):
    return ClaimReviewResult(rank=1, claim_text="c", publisher_name=publisher,
                             publisher_site="x.example", textual_rating=rating,
                             review_url="https://x.example/r", review_date=date)


def result(rank, link):
    return WebResult(rank=rank, title="t", link=link, snippet="s")


class TestTextStats:
    def test_hand_computed_group(self):
        # whitespace tokens: "Uma frase aqui. Outra!" has 4 (3+5+5+6 chars,
        # 2 sentences); "dois itens" has 2 (4+5 chars, 1 sentence)
        items = [
            news("a", "Uma frase aqui. Outra!"),
            news("b", "dois itens"),
        ]
        stats = text_stats(items)
        group = stats["covid19br/fake"]
        assert group["records"] == 2
        assert group["mean_words"] == 3.0
        assert group["mean_word_length"] == pytest.approx(28 / 6)
        assert group["mean_sentences"] == 1.5
        assert group["mean_words_per_sentence"] == pytest.approx(6 / 3)
        assert group["url_rate"] == 0.0

    def test_groups_split_by_corpus_and_label(self):
        items = [
            news("a", "um dois", corpus="fakebr", label="fake"),
            news("b", "um dois", corpus="fakebr", label="true"),
            news("c", "um dois", corpus="covid19br", label="fake"),
        ]
        assert sorted(text_stats(items)) == ["covid19br/fake", "fakebr/fake", "fakebr/true"]

    def test_url_rate(self):
        items = [
            news("a", "veja https://example.com/x aqui"),
            news("b", "veja www.example.com aqui"),
            news("c", "nada para ver aqui"),
        ]
        assert text_stats(items)["covid19br/fake"]["url_rate"] == pytest.approx(2 / 3)


class TestDomainDistribution:
    def records(self):
        return [
            enriched("a",
                     initial_results=[result(1, "https://noticias.uol.com.br/x"),
                                      result(2, "https://www.gov.br/saude/y")],
                     match_index=1),
            enriched("b",
                     initial_results=[result(1, "https://portal.mg.gov.br/z")],
                     claim="alguma alegação",
                     claim_results=[result(1, "https://noticias.uol.com.br/w"),
                                    result(2, "not a url")]),
        ]

    def test_both_pools_aggregated(self):
        dist = domain_distribution(self.records())
        assert dist == {"gov.br": 2, "uol.com.br": 2, "invalid": 1}

    def test_sorted_by_count_then_name(self):
        dist = domain_distribution(self.records())
        counts = list(dist.values())
        assert counts == sorted(counts, reverse=True)
        assert list(dist)[:2] == ["gov.br", "uol.com.br"]


class TestRatingDistribution:
    def test_hand_count(self):
        records = [
            enriched("a", factcheck_results=[review("Lupa", "Falso"),
                                             review("Aos Fatos", "FALSO ")]),
            enriched("b", factcheck_results=[review("Lupa", "Verdadeiro")]),
            enriched("c"),
        ]
        dist = rating_distribution(records)
        table = {(row["publisher"], row["rating"]): row["count"]
                 for row in dist["by_publisher_rating"]}
        assert table == {("Lupa", "falso"): 1, ("Aos Fatos", "falso"): 1,
                         ("Lupa", "verdadeiro"): 1}
        assert dist["aggregate"] == {"true": 1, "rest": 2}

    def test_true_follows_the_rating_map(self, monkeypatch):
        # A wording added to the map counts as true here, as it buckets as
        # true in validation's external label check.
        mapping = {**resources.rating_map(), "correto": "true"}
        monkeypatch.setattr(resources, "rating_map", lambda: mapping)
        records = [enriched("a", factcheck_results=[review("Lupa", "Correto"), review("Lupa", "Verdadeiro"),
                                                    review("Lupa", "Falso"), review("Lupa", "Impreciso")])]
        assert rating_distribution(records)["aggregate"] == {"true": 2, "rest": 2}

    def test_map_refuses_a_bucket_that_is_no_label(self, monkeypatch):
        monkeypatch.setattr(resources, "resource_lines", lambda name: ["correto => other"])
        resources.rating_map.cache_clear()
        try:
            with pytest.raises(ValueError, match="bad rating_map line"):
                resources.rating_map()
        finally:
            monkeypatch.undo()
            resources.rating_map.cache_clear()

    def test_empty(self):
        dist = rating_distribution([])
        assert dist["by_publisher_rating"] == []
        assert dist["aggregate"] == {"true": 0, "rest": 0}


class TestHistograms:
    def test_match_index_histogram(self):
        records = [
            enriched("a", match_index=1, initial_results=[result(1, "https://x.example/")]),
            enriched("b", match_index=1, initial_results=[result(1, "https://x.example/")]),
            enriched("c", match_index=3, initial_results=[result(i, "https://x.example/") for i in range(1, 4)]),
            enriched("d"),
        ]
        assert match_index_histogram(records) == {1: 2, 3: 1}

    def test_review_year_histogram(self):
        records = [
            enriched("a", factcheck_results=[review("Lupa", "Falso", date="2021-05-01T00:00:00Z"),
                                             review("Lupa", "Falso", date="2021-11-30"),
                                             review("Lupa", "Falso", date="2019-01-01")]),
            enriched("b", factcheck_results=[review("Aos Fatos", "Falso", date=None),
                                             review("Aos Fatos", "Falso", date="sem data")]),
        ]
        years, undated = review_year_histogram(records)
        assert years == {2019: 1, 2021: 2}
        assert undated == 2

    def test_cluster_size_histogram(self):
        clusters = [["a", "b"], ["c", "d", "e"], ["f", "g"]]
        assert cluster_size_histogram(clusters) == {2: 2, 3: 1}

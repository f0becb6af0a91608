"""Match rule between a query and highlighted search results.

Expected scores are derived by hand in the comments: list the unique
non-stopword query terms, check each against the highlighted tokens, divide.
"""

import pytest

from evidencia.matching import first_match, query_terms
from evidencia.records import WebResult


def result(title="", snippet="", rank=1, link="https://example.com"):
    return WebResult(rank=rank, title=title, link=link, snippet=snippet)


class TestQueryTerms:
    def test_stopwords_and_punctuation_removed(self):
        # stopwords: o, de, da; punctuation trimmed from "encomendas," "China."
        terms = query_terms("O vírus transmitido de encomendas, da China.")
        assert terms == {"vírus", "transmitido", "encomendas", "china"}

    def test_terms_are_unique_and_lowercased(self):
        assert query_terms("Vacina vacina VACINA!") == {"vacina"}

    def test_accents_are_significant(self):
        assert query_terms("vírus virus") == {"vírus", "virus"}


class TestHighlighting:
    def test_fragments_extracted(self):
        # terms: vírus, china, chegou; highlighted: vírus, china -> 2/3
        title = "O <b>vírus</b> chegou à <b>China</b>"
        assert first_match("vírus chegou China", [result(title=title)])[0][0] == pytest.approx(2 / 3)

    def test_dangling_open_marker_runs_to_end(self):
        # terms: texto, fim; "até o fim" is highlighted through the end -> 1/2
        assert first_match("texto fim", [result(title="texto <b>até o fim")])[0][0] == 0.5

    def test_stray_close_marker_ignored(self):
        # the stray </b> highlights nothing and leaves the next <b> working
        assert first_match("abertura", [result(title="sem abertura</b> aqui")])[0][0] == 0.0
        assert first_match("abertura aqui", [result(title="sem abertura</b> <b>aqui</b>")])[0][0] == 0.5

    def test_token_split_by_markers_counts_whole(self):
        # "coronavírus" is marked only in part; the whole token must count.
        score = first_match("coronavírus", [result(title="o corona<b>vírus</b> avança")])[0][0]
        assert score == 1.0


class TestMatchScore:
    def test_empty_term_set_scores_zero(self):
        assert first_match("de a o em", [result(title="<b>de a o em</b>")])[0][0] == 0.0

    def test_full_highlight_scores_one(self):
        # terms: vacina, gripe; both highlighted
        r = result(title="<b>Vacina</b> contra a <b>gripe</b> chega")
        assert first_match("vacina da gripe", [r])[0][0] == 1.0

    def test_partial_highlight_fraction(self):
        # terms: governo, fecha, farmácia, popular; highlighted: governo,
        # farmácia, popular -> 3/4
        r = result(title="<b>Governo</b> mantém <b>farmácia popular</b> aberta")
        assert first_match("governo fecha farmácia popular", [r])[0][0] == pytest.approx(0.75)

    def test_title_and_snippet_pool_together(self):
        # terms: vacina, segura; one highlighted in each field
        r = result(title="<b>Vacina</b> aprovada", snippet="considerada <b>segura</b> por todos")
        assert first_match("vacina segura", [r])[0][0] == 1.0

    def test_highlighted_token_must_equal_the_term(self):
        # "seguramente" is highlighted but is not the term "segura" -> 1/2
        r = result(title="<b>Vacina</b>", snippet="uso <b>seguramente</b> aprovado")
        assert first_match("vacina segura", [r])[0][0] == pytest.approx(0.5)

    def test_unhighlighted_presence_does_not_count(self):
        # "gripe" appears in plain text only -> 1/2
        r = result(title="<b>Vacina</b> contra gripe")
        assert first_match("vacina gripe", [r])[0][0] == pytest.approx(0.5)


class TestFirstMatch:
    def test_first_rank_at_or_above_threshold_wins(self):
        results = [
            result(rank=1, title="nada <b>relacionado</b> aqui"),
            result(rank=2, title="<b>vacina</b> contra a <b>gripe</b>"),
            result(rank=3, title="<b>vacina</b> da <b>gripe</b> de novo"),
        ]
        scores, index = first_match("vacina gripe", results)
        assert index == 2
        assert scores[0] < 0.8 <= scores[1]

    def test_no_results_no_match(self):
        assert first_match("vacina", []) == ([], None)

    def test_all_below_threshold(self):
        results = [result(rank=1, title="<b>vacina</b> apenas")]
        scores, index = first_match("vacina gripe segura hoje cedo", results)
        assert index is None
        assert scores == [pytest.approx(0.2)]

    def test_exact_threshold_counts_as_match(self):
        # 4 of 5 terms highlighted = 0.8 exactly
        r = result(rank=1, title="<b>um2 dois2 tres2 quatro2</b> cinco2")
        scores, index = first_match("um2 dois2 tres2 quatro2 cinco2", [r])
        assert scores == [pytest.approx(0.8)]
        assert index == 1


class TestCorpusExamples:
    """Recorded fixture searches behave like the live runs they reproduce."""

    def test_parcel_rumor_matches_at_rank_one(self, corpus_by_id):
        item = corpus_by_id["mm_0001"]
        title = ("<b>O novo coronavírus</b> não sobrevive em <b>encomendas enviadas</b> "
                 "pelo ...")
        snippet = ("4 de mar. de 2020 <b>...</b> ... <b>coronavírus pode ser transmitido "
                   "através de encomendas enviadas</b> pelo correio da <b>China</b> para "
                   "outros países. A alegação, que serviu de base  ...")
        scores, index = first_match(item.text, [result(title=title, snippet=snippet)])
        assert scores == [1.0]
        assert index == 1

    def test_registration_rumor_matches_nothing(self, corpus_by_id):
        item = corpus_by_id["mm_0002"]
        title = "Obter o Certificado Nacional de <b>Vacinação</b> COVID-19"
        snippet = ("Os dados já foram enviados, mas possui algum erro de informação. Quais "
                   "os possíveis erros: CNS duplicado no <b>cadastro</b> do SUS.O cidadão "
                   "deverá se dirigir a ...")
        query = "Pessoal, todo mundo precisa se cadastrar no conectesus para vacinar."
        scores, index = first_match(query, [result(title=title, snippet=snippet)])
        assert index is None
        assert scores[0] == 0.0

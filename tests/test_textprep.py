"""Text preparation: query selection, model input, token accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencia.records import SchemaError
from evidencia.textprep import (
    build_query,
    content_token_count,
    find_urls,
    llm_input,
    split_sentences,
    strip_emoji,
    strip_quotes,
    strip_urls,
    trim_punct,
    word_tokens,
)

from oracles import make_query_text, reference_query

# Quotation marks and emoji, which build_query removes.
NOISE = ["\"", "'", "«", "»", "“", "”", "‘", "’", "😀", "🚨", "✅", "❤", "👍"]


def query_or_error(text):
    try:
        return build_query(text)
    except SchemaError as exc:
        return str(exc)


class TestBuildQuery:
    def test_short_text_passes_through(self):
        text = "O governo anunciou novas medidas para a saúde"
        assert build_query(text) == (text, "full_text")

    def test_exactly_20_words_passes_through(self):
        text = " ".join(f"w{i}" for i in range(20))
        assert build_query(text) == (text, "full_text")

    def test_long_text_takes_first_sentence(self):
        first = "A prefeitura confirmou o novo calendário de vacinação nesta semana."
        text = first + " " + " ".join(["depois"] * 25)
        assert build_query(text) == (first, "first_sentence")

    def test_short_first_sentence_falls_back_to_paragraph(self):
        text = "Urgente! " + " ".join(f"palavra{i}" for i in range(30))
        query, kind = build_query(text)
        assert kind == "first_paragraph"
        assert query == text

    def test_short_paragraph_falls_back_to_first_20_words(self):
        tail = " ".join(f"palavra{i}" for i in range(30))
        text = "Urgente!\n\n" + tail
        query, kind = build_query(text)
        assert kind == "first_20_words"
        assert query == " ".join(text.split()[:20])
        assert len(query.split()) == 20

    def test_empty_text_rejected(self):
        with pytest.raises(SchemaError, match="no words to search for"):
            build_query("   ")

    @given(st.lists(st.sampled_from(["vacina", "governo", "Urgente!", "hoje.", " ", "\n", *NOISE]), max_size=80)
           .map("".join))
    @settings(max_examples=200)
    def test_quotes_and_emoji_are_stripped_first(self, text):
        assert query_or_error(text) == query_or_error(strip_emoji(strip_quotes(text)))

    @given(st.lists(st.sampled_from([" ", "\n", *NOISE]), min_size=1).map("".join))
    def test_only_quotes_and_emoji_leave_no_words(self, text):
        with pytest.raises(SchemaError, match="no words to search for"):
            build_query(text)

    def test_differential_against_reference_procedure(self):
        rng = random.Random(20240709)
        for _ in range(1000):
            text = make_query_text(rng)
            assert build_query(text) == reference_query(text), text


class TestLlmInput:
    def test_short_text_unchanged(self):
        text = "Primeiro parágrafo curto.\nSegundo parágrafo curto."
        assert llm_input(text) == text

    def test_word_cap(self):
        text = " ".join(f"w{i}" for i in range(200))
        out = llm_input(text)
        assert out.split() == text.split()[:75]

    def test_paragraph_cap(self):
        paragraphs = [f"paragrafo {i} conteúdo" for i in range(6)]
        out = llm_input("\n\n".join(paragraphs))
        assert out == "\n".join(paragraphs[:3])

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=600))
    @settings(max_examples=200)
    def test_output_words_are_a_prefix(self, text):
        out = llm_input(text)
        words = out.split()
        assert len(words) <= 75
        assert text.split()[: len(words)] == words


class TestSentences:
    def test_plain_boundaries(self):
        text = "Primeira frase completa. Segunda frase completa! Terceira?"
        assert split_sentences(text) == [
            "Primeira frase completa.",
            "Segunda frase completa!",
            "Terceira?",
        ]

    def test_abbreviation_does_not_split(self):
        text = "O Dr. Silva chegou cedo ao hospital. Depois ele saiu."
        assert split_sentences(text) == [
            "O Dr. Silva chegou cedo ao hospital.",
            "Depois ele saiu.",
        ]

    def test_single_letter_initial_does_not_split(self):
        text = "O deputado J. Pereira votou contra. A sessão terminou."
        assert split_sentences(text) == [
            "O deputado J. Pereira votou contra.",
            "A sessão terminou.",
        ]

    def test_ellipsis_and_mixed_runs_split(self):
        assert split_sentences("Será mesmo... Ninguém sabe?! Fim.") == [
            "Será mesmo...",
            "Ninguém sabe?!",
            "Fim.",
        ]

    def test_no_terminator_is_one_sentence(self):
        assert split_sentences("texto sem pontuação final") == ["texto sem pontuação final"]


class TestStrippers:
    def test_strip_urls_collapses_whitespace(self):
        text = "veja https://example.com/pagina o resto"
        assert strip_urls(text) == "veja o resto"

    def test_strip_urls_without_urls_is_identity(self):
        assert strip_urls("nada para remover") == "nada para remover"

    def test_find_urls_trims_trailing_punctuation(self):
        text = "confira em https://example.com/x. e também www.portal.com.br/y,"
        assert find_urls(text) == ["https://example.com/x", "www.portal.com.br/y"]

    def test_strip_quotes_removes_quote_characters(self):
        assert strip_quotes("ele disse “vacina” e 'fim'") == "ele disse vacina e fim"

    def test_strip_emoji(self):
        assert strip_emoji("alerta 🚨 importante ✅") == "alerta  importante "

    def test_trim_punct(self):
        assert trim_punct("“vacina”,") == "vacina"
        assert trim_punct("...") == ""
        assert trim_punct("covid-19") == "covid-19"

    def test_word_tokens_split_on_whitespace(self):
        assert word_tokens("  um\tdois\n três ") == ["um", "dois", "três"]


class TestContentTokens:
    def test_stopwords_and_urls_do_not_count(self):
        text = "a vacina de covid em https://example.com é segura"
        # counted: vacina, covid, segura
        assert content_token_count(text) == 3

    def test_punctuation_only_tokens_do_not_count(self):
        assert content_token_count("vacina ! ... covid") == 2

    def test_emoji_do_not_count(self):
        assert content_token_count("🚨 🚨 vacina") == 1

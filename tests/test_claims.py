"""Claim extraction: prompt templates, answer cleanup, the 20-word cap."""

import random

import pytest

from evidencia.claims import (
    PROMPT_PATTERNS,
    cleanup,
    extract_claim,
    load_template,
)
from evidencia.providers import ProviderFailure
from evidencia.textprep import llm_input


class TestTemplates:
    def test_all_patterns_load(self):
        for pattern in PROMPT_PATTERNS:
            template = load_template(pattern)
            assert "{TEXTO DE ENTRADA}" in template.body

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            load_template("imaginado")

    def test_render_replaces_placeholder(self):
        template = load_template()
        prompt = template.render("texto de teste")
        assert "texto de teste" in prompt
        assert "{TEXTO DE ENTRADA}" not in prompt

    def test_prompt_sees_only_the_text_head(self):
        text = " ".join(f"w{i}" for i in range(200))
        prompts = []
        extract_claim(text, lambda p: (prompts.append(p), "alegação curta")[1])
        assert llm_input(text) in prompts[0]
        assert "w75" not in prompts[0]
        assert "w74" in prompts[0]


class TestCleanup:
    def test_label_prefix_removed(self):
        assert cleanup("Alegação: vacina causa gripe") == "vacina causa gripe"
        assert cleanup("RESPOSTA - vacina causa gripe") == "vacina causa gripe"

    def test_markdown_and_quotes_removed(self):
        assert cleanup('**"vacina causa gripe"**') == "vacina causa gripe"
        assert cleanup("“vacina causa gripe”") == "vacina causa gripe"

    def test_whitespace_collapsed(self):
        assert cleanup("  vacina \n causa\tgripe  ") == "vacina causa gripe"

    def test_unbalanced_quote_kept(self):
        assert cleanup('"vacina causa gripe') == '"vacina causa gripe'

    def test_empty(self):
        assert cleanup("   \n ") == ""


class TestExtractClaim:
    def test_good_answer_first_try(self):
        outcome = extract_claim("um texto qualquer", lambda p: "uma alegação curta")
        assert outcome.claim == "uma alegação curta"
        assert outcome.attempts == 1
        assert not outcome.enforced
        assert outcome.error is None

    def test_long_then_good_uses_retry(self):
        long_answer = " ".join(["palavra"] * 30)
        answers = iter([long_answer, "alegação aceitável"])
        outcome = extract_claim("texto", lambda p: next(answers))
        assert outcome.claim == "alegação aceitável"
        assert outcome.attempts == 2

    def test_retry_reuses_the_same_prompt(self):
        prompts = []
        long_answer = " ".join(["palavra"] * 30)

        def generate(prompt):
            prompts.append(prompt)
            return long_answer

        extract_claim("texto", generate)
        assert len(prompts) == 2
        assert prompts[0] == prompts[1]

    def test_persistently_long_answer_is_truncated_and_flagged(self):
        long_answer = " ".join(f"t{i}" for i in range(31))
        outcome = extract_claim("texto", lambda p: long_answer)
        assert outcome.enforced
        assert outcome.claim == " ".join(f"t{i}" for i in range(20))
        assert outcome.attempts == 2

    def test_exactly_20_words_is_accepted(self):
        answer = " ".join(f"t{i}" for i in range(20))
        outcome = extract_claim("texto", lambda p: answer)
        assert outcome.claim == answer
        assert not outcome.enforced

    def test_empty_answers_become_constraint_violation(self):
        outcome = extract_claim("texto", lambda p: "  ")
        assert outcome.claim is None
        assert outcome.error is not None
        assert outcome.error.stage == "claim_extraction"
        assert outcome.error.kind == "constraint_violation"

    def test_provider_exception_becomes_provider_failure(self):
        def generate(prompt):
            raise ProviderFailure("quota exceeded")

        outcome = extract_claim("texto", generate)
        assert outcome.claim is None
        assert outcome.error.kind == "provider_failure"
        assert "quota exceeded" in outcome.error.detail

    def test_other_exceptions_propagate(self):
        # A bug in the caller's generator is not a provider failure to record.
        def generate(prompt):
            raise TypeError("generate() got an unexpected keyword argument")

        with pytest.raises(TypeError):
            extract_claim("texto", generate)

    def test_adversarial_generator_never_breaks_the_cap(self):
        rng = random.Random(13)
        saboteur_outputs = [
            "",
            "   \n\t  ",
            " ".join(["palavra"] * 500),
            "Alegação: " + " ".join(["x"] * 40),
            '"' + " ".join(["y"] * 25) + '"',
            "*** " + " ".join(["z"] * 19),
            "resposta: curta e boa",
            "\n\nSAÍDA - " + " ".join(f"k{i}" for i in range(21)),
        ]
        for _ in range(200):

            def generate(prompt):
                return rng.choice(saboteur_outputs)

            outcome = extract_claim("um texto de entrada", generate)
            if outcome.claim is None:
                assert outcome.error is not None
                assert outcome.error.kind in ("constraint_violation", "provider_failure")
            else:
                assert len(outcome.claim.split()) <= 20

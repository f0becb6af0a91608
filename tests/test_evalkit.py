"""Split, data configurations, prompting and scoring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencia.evalkit import (
    ANSWER_INSTRUCTION,
    BASE_PROMPT,
    CONTEXT_CLAUSE,
    SHOT_COUNT,
    EvalInstance,
    build_config,
    classification_prompt,
    few_shot_classify,
    parse_answer,
    prompt_head,
    score,
    select_shots,
    split,
)
from evidencia.providers import ProviderFailure
from evidencia.records import ClaimReviewResult, EnrichedRecord, NewsItem, SchemaError, WebResult

from oracles import ref_metrics


def news(id, corpus="covid19br", label="fake", pair_id=None):
    return NewsItem(id=id, corpus=corpus, text=f"Texto da mensagem {id}.",
                    label=label, pair_id=pair_id)


def inst(id, label="fake", context=""):
    return EvalInstance(id=id, text=f"Texto {id}.", label=label, context=context)


def make_shots(n=SHOT_COUNT):
    return [inst(f"shot{i:02d}", label="fake" if i % 2 else "true") for i in range(n)]


class TestSplit:
    def test_ten_solo_records(self):
        items = [news(f"r{i}") for i in range(10)]
        train, val, test = split(items)
        assert (len(train), len(val), len(test)) == (8, 1, 1)
        assert {i.id for i in train + val + test} == {i.id for i in items}

    def test_ten_pairs_stay_together(self):
        items = []
        for p in range(10):
            items.append(news(f"fake_{p}", corpus="fakebr", label="fake", pair_id=f"p{p}"))
            items.append(news(f"true_{p}", corpus="fakebr", label="true", pair_id=f"p{p}"))
        train, val, test = split(items)
        assert (len(train), len(val), len(test)) == (16, 2, 2)
        for part in (train, val, test):
            pairs = {i.pair_id for i in part}
            assert all(sum(1 for i in part if i.pair_id == p) == 2 for p in pairs)

    def test_same_seed_reproduces(self):
        items = [news(f"r{i}") for i in range(30)]
        assert split(items) == split(items)

    def test_input_order_does_not_matter(self):
        items = [news(f"r{i}") for i in range(30)]
        shuffled = list(items)
        random.Random(99).shuffle(shuffled)
        assert split(items) == split(shuffled)

    def test_seed_changes_partition(self):
        items = [news(f"r{i}") for i in range(30)]
        a = split(items, seed=0)
        b = split(items, seed=1)
        assert [i.id for i in a[0]] != [i.id for i in b[0]]

    def test_unpaired_fakebr_rejected(self):
        with pytest.raises(SchemaError, match="without pair_id"):
            split([news("x", corpus="fakebr")])

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=24),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_pairs_never_straddle(self, n_pairs, n_solo, seed):
        items = []
        for p in range(n_pairs):
            items.append(news(f"fake_{p:02d}", corpus="fakebr", label="fake", pair_id=f"p{p:02d}"))
            items.append(news(f"true_{p:02d}", corpus="fakebr", label="true", pair_id=f"p{p:02d}"))
        items += [news(f"solo_{s:02d}") for s in range(n_solo)]
        train, val, test = split(items, seed=seed)
        assert sorted(i.id for i in train + val + test) == sorted(i.id for i in items)
        placement = {}
        for name, part in (("train", train), ("val", val), ("test", test)):
            for item in part:
                if item.pair_id:
                    placement.setdefault(item.pair_id, set()).add(name)
        assert all(len(parts) == 1 for parts in placement.values())
        n_units = n_pairs + n_solo
        unit_sizes = {
            "train": len({i.pair_id or i.id for i in train}),
            "val": len({i.pair_id or i.id for i in val}),
            "test": len({i.pair_id or i.id for i in test}),
        }
        assert abs(unit_sizes["val"] - 0.1 * n_units) <= 1
        assert abs(unit_sizes["test"] - 0.1 * n_units) <= 1
        assert abs(unit_sizes["train"] - 0.8 * n_units) <= 1


class TestDataConfiguration:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            build_config([], "extended")

    def test_context_sources(self):
        # plain kinds attach nothing; enriched_full takes the first result,
        # enriched_filtered the first result outside social media
        for kind in ("original", "validated"):
            assert build_config([news("a")], kind)[0].context == ""
        rec = enriched_record("a", [web(1, "https://twitter.com/user/1", title="social"),
                                    web(2, "https://noticias.example/x", title="jornal")])
        assert build_config([rec], "enriched_full")[0].context == "social Um trecho."
        assert build_config([rec], "enriched_filtered")[0].context == "jornal Um trecho."

    def test_filtered_kind_loads_social_list(self):
        rec = enriched_record("a", [web(1, "https://twitter.com/user/1", title="tuíte"),
                                    web(2, "https://www.facebook.com/post/2", title="post"),
                                    web(3, "https://noticias.example/x", title="jornal")])
        assert build_config([rec], "enriched_filtered")[0].context == "jornal Um trecho."


def enriched_record(id, results, claim=None, claim_results=None, reviews=()):
    return EnrichedRecord(
        item=news(id), query="q", query_kind="full_text",
        initial_results=results,
        match_index=1 if claim is None and results else None,
        claim=claim, claim_results=claim_results,
        factcheck_results=list(reviews),
    )


def web(rank, link, title="Um <b>título</b>", snippet="Um  trecho."):
    return WebResult(rank=rank, title=title, link=link, snippet=snippet)


def fc_review(rating="Falso"):
    return ClaimReviewResult(rank=1, claim_text="c", publisher_name="Lupa",
                             publisher_site="lupa.example", textual_rating=rating,
                             review_url="https://lupa.example/r")


class TestBuildConfig:
    def test_plain_kinds_have_no_context(self):
        instances = build_config([news("a", label="true")], "original")
        assert instances == [EvalInstance(id="a", text="Texto da mensagem a.", label="true")]

    def test_plain_kind_rejects_enriched_records(self):
        rec = enriched_record("a", [web(1, "https://x.example/")])
        with pytest.raises(TypeError, match="plain news records"):
            build_config([rec], "validated")

    def test_enriched_context_strips_markers_and_collapses(self):
        rec = enriched_record("a", [web(1, "https://x.example/")], reviews=[fc_review()])
        instances = build_config([rec], "enriched_full")
        assert instances[0].context == "Um título Um trecho.\nChecagem (Lupa): Falso"

    def test_claim_path_prefers_claim_results(self):
        rec = enriched_record("a", [web(1, "https://a.example/", title="inicial")],
                              claim="algo", claim_results=[web(1, "https://b.example/", title="da alegação")])
        instances = build_config([rec], "enriched_full")
        assert instances[0].context.startswith("da alegação")

    def test_filtered_kind_skips_social_results(self):
        rec = enriched_record("a", [web(1, "https://twitter.com/user/1", title="social"),
                                    web(2, "https://noticias.example/x", title="jornal")])
        filtered = build_config([rec], "enriched_filtered")[0]
        full = build_config([rec], "enriched_full")[0]
        assert filtered.context.startswith("jornal")
        assert full.context.startswith("social")

    def test_no_results_and_no_reviews_give_empty_context(self):
        rec = EnrichedRecord(item=news("a"), query="q", query_kind="full_text")
        assert build_config([rec], "enriched_full")[0].context == ""

    def test_enriched_kind_rejects_plain_records(self):
        with pytest.raises(TypeError, match="takes enriched records"):
            build_config([news("a")], "enriched_full")

    def test_context_never_contains_the_label_field(self):
        rec = enriched_record("a", [web(1, "https://x.example/")], reviews=[fc_review()])
        for instance in build_config([rec], "enriched_full"):
            assert instance.label not in instance.context


class TestSelectShots:
    def test_exact_count_and_membership(self):
        train = [inst(f"t{i:02d}") for i in range(40)]
        shots = select_shots(train, seed=7)
        assert len(shots) == SHOT_COUNT
        assert set(s.id for s in shots) <= {t.id for t in train}

    def test_deterministic_and_order_canonical(self):
        train = [inst(f"t{i:02d}") for i in range(40)]
        shuffled = list(train)
        random.Random(3).shuffle(shuffled)
        assert select_shots(train, seed=7) == select_shots(shuffled, seed=7)

    def test_too_small_pool_rejected(self):
        with pytest.raises(SchemaError, match="at least 15"):
            select_shots([inst("a")])


class TestClassificationPrompt:
    def test_plain_target_prompt_layout(self):
        shots = make_shots()
        prompt = classification_prompt(inst("alvo", label="fake"), shots)
        assert prompt.startswith(BASE_PROMPT + "\n\n" + ANSWER_INSTRUCTION)
        assert CONTEXT_CLAUSE not in prompt
        assert prompt.count("Resposta: FAKE NEWS") == 7
        assert prompt.count("Resposta: VERDADEIRO") == 8
        assert prompt.endswith("Texto: Texto alvo.\nResposta:")

    def test_context_clause_present_only_with_context(self):
        shots = make_shots()
        prompt = classification_prompt(inst("alvo", context="resultado da busca"), shots)
        assert (BASE_PROMPT + "\n\n" + CONTEXT_CLAUSE + "\n\n" + ANSWER_INSTRUCTION) in prompt
        assert prompt.endswith("Texto: Texto alvo.\nContexto: resultado da busca\nResposta:")

    def test_shot_context_lines_included(self):
        shots = make_shots()
        shots[0] = inst("shot00", label="true", context="contexto do exemplo")
        prompt = classification_prompt(inst("alvo"), shots)
        assert "Texto: Texto shot00.\nContexto: contexto do exemplo\nResposta: VERDADEIRO" in prompt

    def test_wrong_shot_count_rejected(self):
        with pytest.raises(ValueError, match="exactly 15"):
            classification_prompt(inst("alvo"), make_shots(14))


class TestParseAnswer:
    def test_bare_tags(self):
        assert parse_answer("FAKE NEWS") == "fake"
        assert parse_answer("Resposta: VERDADEIRO.") == "true"

    def test_no_tag_is_abstention(self):
        assert parse_answer("não sei") is None
        assert parse_answer("") is None

    def test_last_occurrence_wins(self):
        assert parse_answer("VERDADEIRO... não, FAKE NEWS") == "fake"
        assert parse_answer("FAKE NEWS? Na verdade VERDADEIRO") == "true"

    def test_case_sensitive(self):
        assert parse_answer("verdadeiro") is None
        assert parse_answer("Fake News") is None


class TestFewShotClassify:
    def test_predictions_in_order_with_failures(self):
        shots = make_shots()
        answers = {"alvo1": "FAKE NEWS", "alvo2": "acho que VERDADEIRO", "alvo4": "sem opinião"}

        def generate(head, rest):
            for id, answer in answers.items():
                if f"Texto {id}." in rest:
                    return answer
            raise ProviderFailure("backend indisponível")

        instances = [inst(f"alvo{i}") for i in range(1, 5)]
        predictions, errors = few_shot_classify(instances, shots, generate)
        assert predictions == ["fake", "true", None, None]
        assert len(errors) == 1
        assert errors[0].stage == "classification"
        assert errors[0].kind == "provider_failure"
        assert "alvo3" in errors[0].detail

    def test_shot_overlap_rejected(self):
        shots = make_shots()
        with pytest.raises(ValueError, match="overlap"):
            few_shot_classify([shots[0]], shots, lambda head, rest: "FAKE NEWS")

    def test_generator_gets_one_of_two_heads_and_the_target_rest(self):
        shots = make_shots()
        shots[3] = inst("shot03", label="fake", context="contexto do exemplo")
        instances = [inst(f"alvo{i}", context="busca" if i % 3 else "") for i in range(9)]
        calls = []
        few_shot_classify(instances, shots, lambda head, rest: calls.append((head, rest)) or "FAKE NEWS")
        assert [head + rest for head, rest in calls] == [classification_prompt(i, shots) for i in instances]
        assert len({id(head) for head, _ in calls}) == 2
        for (head, rest), target in zip(calls, instances):
            assert head == prompt_head(shots, bool(target.context))
            assert rest.startswith("\n\nTexto: Texto alvo")


class TestScore:
    def test_all_correct(self):
        result = score(["fake", "true"], ["fake", "true"])
        assert result.accuracy == 1.0
        assert result.macro_f1 == 1.0
        assert result.confusion == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
        assert result.abstentions == 0

    def test_single_class_on_balanced_set(self):
        result = score(["fake", "true"] * 5, ["fake"] * 10)
        assert result.accuracy == 0.5
        assert result.macro_f1 == pytest.approx(1 / 3)

    def test_abstentions_count_as_wrong(self):
        result = score(["fake", "fake", "true"], ["fake", None, "true"])
        assert result.accuracy == pytest.approx(2 / 3)
        assert result.abstentions == 1
        assert result.confusion["fn"] == 0

    def test_length_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            score(["fake"], [])
        with pytest.raises(ValueError, match="empty"):
            score([], [])

    def test_accuracy_invariant_under_permutation(self):
        gold = ["fake", "true", "fake", "true", "fake"]
        pred = ["fake", "fake", None, "true", "true"]
        base = score(gold, pred)
        order = [3, 0, 4, 1, 2]
        shuffled = score([gold[i] for i in order], [pred[i] for i in order])
        assert shuffled.accuracy == base.accuracy
        assert shuffled.macro_f1 == base.macro_f1

    def test_macro_f1_symmetric_under_relabeling(self):
        gold = ["fake", "true", "fake", "true", "fake", "fake"]
        pred = ["fake", "fake", None, "true", "true", "fake"]
        flip = {"fake": "true", "true": "fake", None: None}
        flipped = score([flip[g] for g in gold], [flip[p] for p in pred])
        assert flipped.macro_f1 == pytest.approx(score(gold, pred).macro_f1)

    @given(st.lists(st.tuples(st.sampled_from(["fake", "true"]),
                              st.sampled_from(["fake", "true", None])),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_algebra(self, rows):
        gold = [g for g, _ in rows]
        pred = [p for _, p in rows]
        result = score(gold, pred)
        expected = ref_metrics(gold, pred)
        assert result.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)
        assert result.macro_f1 == pytest.approx(expected["macro_f1"], abs=1e-12)
        assert result.abstentions == expected["abstentions"]

    def test_result_dict_shape(self):
        data = score(["fake"], ["fake"]).to_dict()
        assert set(data) == {"n", "accuracy", "macro_f1", "confusion", "abstentions"}

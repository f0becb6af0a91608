"""Acceptance suite: twelve checks, one test per guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion. Every check either reproduces a worked example from the shipped
fixtures or cross-validates an implementation against an independent
reference in oracles.py.
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from evidencia.analytics import rating_distribution
from evidencia.claims import extract_claim
from evidencia.cli import main
from evidencia.clocks import FrozenClock
from evidencia.dedup import DedupConfig, MinHasher, near_duplicates
from evidencia.enrichment import enrich_one
from evidencia.evalkit import score, split
from evidencia.records import (
    ClaimReviewResult,
    EnrichedRecord,
    NewsItem,
    funnel,
    read_enriched,
    read_news,
)
from evidencia.textprep import build_query
from evidencia.validation import (
    ReviewItem,
    ValidationReport,
    fakebr_rules,
    run_validation,
)

from conftest import CASSETTES, FIXTURES
from oracles import (
    make_query_text,
    ref_jaccard,
    ref_metrics,
    ref_near_pairs,
    ref_shingles,
    reference_query,
)

CORPUS = str(FIXTURES / "corpus.jsonl")

LEXICON = (
    "governo vacina cidade saúde notícia mensagem grupo família semana país "
    "hospital médico estudo pesquisa prefeitura banco escola região dose fila "
    "campanha boato vídeo foto rede aplicativo conta dinheiro imposto decreto "
    "água chá remédio exame teste resultado positivo negativo verdadeiro falso"
).split()


def _words(rng, n):
    return " ".join(rng.choice(LEXICON) for _ in range(n))


def test_c01_query_builder_matches_reference_procedure():
    """1,000 generated texts across all four selection branches; the query
    builder must agree with the transcribed reference on every one, fast."""
    rng = random.Random(20240709)
    texts = [make_query_text(rng) for _ in range(1000)]
    expected = [reference_query(t) for t in texts]
    start = time.perf_counter()
    got = [build_query(t) for t in texts]
    elapsed = time.perf_counter() - start
    mismatches = sum(1 for g, e in zip(got, expected) if g != e)
    assert mismatches == 0
    assert elapsed < 5.0


def test_c02_worked_examples_reproduce(corpus_by_id, backend):
    """The two recorded walkthroughs: one message matches its first search
    result directly; the other finds nothing and goes through claim
    extraction."""
    clock = FrozenClock()
    direct = enrich_one(corpus_by_id["mm_0001"], backend, clock=clock)
    assert direct.match_index == 1
    assert direct.claim is None
    assert direct.match_scores[0] >= 0.8

    extracted = enrich_one(corpus_by_id["mm_0002"], backend, clock=clock)
    assert extracted.match_index is None
    assert extracted.claim
    assert extracted.claim_results
    assert not extracted.errors


def _planted_corpus():
    """200 texts: 40 bases, each with four mutations at increasing edit
    distance so planted pairs span the whole similarity range."""
    rng = random.Random(33)
    texts = {}
    planted = []
    for b in range(40):
        base_words = _words(rng, 50).split()
        base_id = f"b{b:02d}"
        texts[base_id] = " ".join(base_words)
        for m, edits in enumerate((1, 2, 5, 12)):
            mutated = list(base_words)
            for pos in rng.sample(range(len(mutated)), edits):
                mutated[pos] = rng.choice(LEXICON)
            mut_id = f"b{b:02d}m{m}"
            texts[mut_id] = " ".join(mutated)
            planted.append(tuple(sorted((base_id, mut_id))))
    return texts, planted


def test_c03_dedup_agrees_with_brute_force():
    """Confirmed near-duplicate pairs equal exhaustive exact-Jaccard >= 0.7;
    planted high-similarity pairs are found in at least 95% of cases across
    20 hashing seeds."""
    texts, planted = _planted_corpus()
    exact = ref_near_pairs(texts, 0.7)
    start = time.perf_counter()

    clusters = near_duplicates(texts)
    reported = {}
    for cluster in clusters:
        for a, b, j in cluster.pairs:
            reported[tuple(sorted((a, b)))] = j
    assert set(reported) == set(exact)
    for pair, j in exact.items():
        assert reported[pair] == pytest.approx(j, abs=1e-12)

    shingles = {k: ref_shingles(t) for k, t in texts.items()}
    high = [p for p in planted if ref_jaccard(shingles[p[0]], shingles[p[1]]) >= 0.8]
    assert high
    misses = 0
    for seed in range(20):
        found = set()
        for cluster in near_duplicates(texts, DedupConfig(seed=seed)):
            for a, b, _ in cluster.pairs:
                found.add(tuple(sorted((a, b))))
        misses += sum(1 for p in high if p not in found)
    elapsed = time.perf_counter() - start
    assert misses / (20 * len(high)) < 0.05
    assert elapsed < 30.0


def test_c04_signature_estimate_tracks_exact_jaccard():
    """Mean estimator error on 500 random pairs: within 0.05 at 400
    permutations, within 0.10 at the production 100."""
    rng = random.Random(44)
    pairs = []
    for i in range(500):
        keep = round(30 * i / 499)
        a = _words(rng, 30).split()
        b = a[:keep] + _words(rng, 30 - keep).split()
        pairs.append((" ".join(a), " ".join(b)))

    for permutations, budget in ((400, 0.05), (100, 0.10)):
        hasher = MinHasher(DedupConfig(num_permutations=permutations, bands=50))
        total_error = 0.0
        for text_a, text_b in pairs:
            exact = ref_jaccard(ref_shingles(text_a), ref_shingles(text_b))
            estimate = MinHasher.estimate(hasher.signature(text_a), hasher.signature(text_b))
            total_error += abs(estimate - exact)
        assert total_error / len(pairs) < budget


def test_c05_validation_conserves_every_record(corpus, detector, backend):
    """With every stage active (decisions, truncation list, inspection
    sample, external label check), input count equals output plus the sum
    of stage removals, and the report carries the full accounting shape."""
    _, first = run_validation(corpus, detector=detector)
    decisions = [
        ReviewItem.from_dict({
            **item.to_dict(),
            "decision": {"action": "remove", "ids": item.record_ids[:1]},
            "decided_by": "qa",
        })
        for item in first.review_items
    ]
    validated, report = run_validation(
        corpus,
        detector=detector,
        factcheck_backend=backend,
        decisions=decisions,
        incomplete_ids=["fake_0251"],
        sample_size=3,
        seed=1,
    )
    assert report.conservation_holds()
    assert report.input_count == len(corpus)
    assert report.output_count == len(validated)
    data = report.to_dict()
    assert set(data) == {
        "input_count", "output_count", "stage_counts", "removed",
        "removal_reasons", "corrected", "flagged_language",
        "urls_stripped", "review_queue_size",
    }
    assert sum(data["stage_counts"].values()) == report.input_count - report.output_count
    assert data["removal_reasons"]["fake_0251"] == "truncated_source"
    assert data["removal_reasons"]["true_0251"] == "pair_member_removed"


def test_c06_pairs_never_orphaned_or_split():
    """10,000 randomized paired corpora: after the paired-corpus rules and
    the split, every surviving pair is complete and inside one slice."""
    rng = random.Random(66)
    fast = DedupConfig(num_permutations=20, bands=10)
    for trial in range(10_000):
        records = []
        n_pairs = rng.randint(2, 6)
        shared_source = f"https://fonte.example/{trial}"
        for p in range(n_pairs):
            text = _words(rng, 8)
            # some corpora plant a cross-pair same-source near-duplicate
            source = shared_source if rng.random() < 0.3 else None
            records.append(NewsItem(id=f"fake_{p}", corpus="fakebr", label="fake",
                                    pair_id=f"p{p}", text=f"versão falsa {text}",
                                    source_url=source))
            records.append(NewsItem(id=f"true_{p}", corpus="fakebr", label="true",
                                    pair_id=f"p{p}", text=f"versão real {text}",
                                    source_url=source))
        for s in range(rng.randint(0, 2)):
            records.append(NewsItem(id=f"cv_{s}", corpus="covid19br", label="true",
                                    text=_words(rng, 8)))
        incomplete = [records[rng.randrange(len(records))].id] if rng.random() < 0.4 else []

        report = ValidationReport(input_count=len(records))
        clusters = near_duplicates({i.id: i.text for i in records}, fast)
        kept = fakebr_rules(records, report, clusters, incomplete_ids=incomplete)
        members = Counter(i.pair_id for i in kept if i.corpus == "fakebr")
        assert all(count == 2 for count in members.values()), f"trial {trial}"

        train, val, test = split(kept, seed=trial % 97)
        assert sorted(i.id for i in train + val + test) == sorted(i.id for i in kept)
        home = {}
        for name, part in (("train", train), ("val", val), ("test", test)):
            for item in part:
                if item.pair_id:
                    home.setdefault(item.pair_id, set()).add(name)
        assert all(len(slices) == 1 for slices in home.values()), f"trial {trial}"


def test_c07_claim_length_is_always_capped():
    """An adversarial generator answering with 1-200 words (and occasional
    junk) never produces a stored claim over 20 words or an empty claim
    without a constraint violation."""
    rng = random.Random(77)
    text = _words(rng, 40)
    violations = 0
    for _ in range(300):
        def generate(prompt):
            if rng.random() < 0.08:
                return rng.choice(["", '""', "**", "Alegação:", "   "])
            return _words(rng, rng.randint(1, 200))

        outcome = extract_claim(text, generate)
        if outcome.claim is not None:
            if not outcome.claim.strip() or len(outcome.claim.split()) > 20:
                violations += 1
        elif outcome.error is None or outcome.error.kind not in (
            "constraint_violation", "provider_failure",
        ):
            violations += 1
    assert violations == 0


def test_c08_fixture_enrichment_is_deterministic(tmp_path):
    """Two replayed enrichment runs over the whole fixture corpus produce
    byte-identical outputs, and statistics recomputed from the written
    records equal the streamed ones."""
    validated = tmp_path / "validated.jsonl"
    assert main(["validate", "--in", CORPUS, "--out", str(validated)]) == 0
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.jsonl"
        assert main(["enrich", "--in", str(validated), "--out", str(out),
                     "--provider", "fixture", "--fixtures", str(CASSETTES)]) == 0
        outputs.append(out)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    stats_one = json.loads(Path(f"{outputs[0]}.stats.json").read_text(encoding="utf-8"))
    stats_two = json.loads(Path(f"{outputs[1]}.stats.json").read_text(encoding="utf-8"))
    assert stats_one == stats_two
    recomputed = funnel(read_enriched(outputs[0]))
    assert recomputed == stats_one


def test_c09_factcheck_falls_back_to_the_claim_query(corpus, detector, backend):
    """When the original-text query returns no reviews and a claim was
    extracted, the claim query is tried and recorded as the one used."""
    validated, _ = run_validation(corpus, detector=detector)
    record = next(item for item in validated if item.id == "cv_0002")
    enriched = enrich_one(record, backend, clock=FrozenClock())
    assert enriched.claim
    assert enriched.factcheck_query_used == "claim"
    assert enriched.factcheck_results
    assert enriched.factcheck_results[0].publisher_name == "Aos Fatos"


def test_c10_metrics_match_closed_forms():
    """score() agrees with independent precision/recall algebra on 20
    confusion matrices, including degenerate ones, to 1e-12."""
    matrices = [
        (5, 0, 0, 5), (0, 5, 5, 0), (10, 0, 0, 0), (0, 0, 0, 10),
        (5, 5, 0, 0), (0, 0, 5, 5), (3, 2, 4, 1), (1, 1, 1, 1),
        (7, 0, 3, 0), (0, 7, 0, 3), (2, 0, 8, 10), (9, 9, 1, 1),
        (1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1),
        (6, 2, 2, 6), (4, 4, 4, 4), (12, 1, 0, 7), (1, 12, 7, 0),
    ]
    assert len(matrices) == 20
    for tp, fp, fn, tn in matrices:
        gold = ["fake"] * (tp + fn) + ["true"] * (fp + tn)
        pred = ["fake"] * tp + ["true"] * fn + ["fake"] * fp + ["true"] * tn
        result = score(gold, pred)
        expected = ref_metrics(gold, pred)
        assert abs(result.accuracy - expected["accuracy"]) <= 1e-12
        assert abs(result.macro_f1 - expected["macro_f1"]) <= 1e-12
        assert result.confusion == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}

    degenerate = score(["fake", "true"] * 5, ["fake"] * 10)
    assert abs(degenerate.accuracy - 0.5) <= 1e-12
    assert abs(degenerate.macro_f1 - 1 / 3) <= 1e-12


def test_c11_rating_aggregate_matches_hand_count():
    """Per-agency rating counts and the true-versus-rest aggregate equal a
    hand count on a table-shaped fixture."""
    def rec(id, reviews):
        return EnrichedRecord(
            item=NewsItem(id=id, corpus="covid19br", text="t", label="fake"),
            query="q", query_kind="full_text",
            factcheck_results=[
                ClaimReviewResult(rank=i + 1, claim_text="c", publisher_name=pub,
                                  publisher_site="s.example", textual_rating=rating,
                                  review_url="https://s.example/r")
                for i, (pub, rating) in enumerate(reviews)
            ],
        )

    records = [
        rec("r1", [("Lupa", "Falso"), ("Lupa", "Falso"), ("Aos Fatos", "Falso")]),
        rec("r2", [("Lupa", "Falso"), ("Aos Fatos", "Distorcido")]),
        rec("r3", [("Lupa", "Verdadeiro"), ("Estadão Verifica", "Enganoso")]),
        rec("r4", [("Aos Fatos", "Falso"), ("Estadão Verifica", "Verdadeiro")]),
        rec("r5", [("Lupa", "Falso"), ("Aos Fatos", "Falso")]),
    ]
    # hand count: 11 reviews, Lupa falso 4 / verdadeiro 1, Aos Fatos falso 3 /
    # distorcido 1, Estadão enganoso 1 / verdadeiro 1; true-vs-rest 2 vs 9
    dist = rating_distribution(records)
    table = {(row["publisher"], row["rating"]): row["count"]
             for row in dist["by_publisher_rating"]}
    assert table == {
        ("Lupa", "falso"): 4,
        ("Lupa", "verdadeiro"): 1,
        ("Aos Fatos", "falso"): 3,
        ("Aos Fatos", "distorcido"): 1,
        ("Estadão Verifica", "enganoso"): 1,
        ("Estadão Verifica", "verdadeiro"): 1,
    }
    assert dist["aggregate"] == {"true": 2, "rest": 9}
    assert sum(table.values()) == 11


def test_c12_pipeline_runs_end_to_end(tmp_path):
    """validate -> dedup -> enrich -> analyze -> split -> evaluate on the
    shipped fixtures: exit 0 everywhere, a manifest per stage, under 60 s."""
    start = time.perf_counter()
    validated = tmp_path / "validated.jsonl"
    clusters = tmp_path / "clusters.jsonl"
    enriched = tmp_path / "enriched.jsonl"
    analysis = tmp_path / "analysis.json"
    splits = tmp_path / "splits"
    results = tmp_path / "results.json"
    steps = [
        ["validate", "--in", CORPUS, "--out", str(validated)],
        ["dedup", "--in", CORPUS, "--out", str(clusters)],
        ["enrich", "--in", str(validated), "--out", str(enriched),
         "--provider", "fixture", "--fixtures", str(CASSETTES)],
        ["analyze", "--in", str(enriched), "--out", str(analysis),
         "--clusters", str(clusters)],
        ["split", "--in", str(validated), "--out-dir", str(splits)],
        ["evaluate", "--in", str(splits / "test.jsonl"),
         "--shots-from", str(splits / "train.jsonl"), "--out", str(results),
         "--provider", "fixture", "--fixtures", str(CASSETTES)],
    ]
    for argv in steps:
        assert main(argv) == 0, f"stage failed: {argv[0]}"
    elapsed = time.perf_counter() - start

    manifests = [
        Path(f"{validated}.manifest.json"),
        Path(f"{clusters}.manifest.json"),
        Path(f"{enriched}.manifest.json"),
        Path(f"{analysis}.manifest.json"),
        splits / "manifest.json",
        Path(f"{results}.manifest.json"),
    ]
    for manifest in manifests:
        assert manifest.is_file(), manifest
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["outputs"]
    assert len(read_news(validated)) == 30
    evaluation = json.loads(results.read_text(encoding="utf-8"))
    assert evaluation["result"]["n"] == 3
    assert elapsed < 60.0

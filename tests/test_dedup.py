"""Near-duplicate detection against exhaustive comparison."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencia.dedup import (
    DedupConfig,
    MinHasher,
    candidate_pairs,
    cluster,
    exact_jaccard,
    near_duplicates,
    shingles,
)

from oracles import ref_jaccard, ref_near_pairs, ref_shingles

LEXICON = (
    "governo vacina cidade saúde notícia mensagem grupo família semana país "
    "hospital médico estudo pesquisa prefeitura banco escola região dose fila"
).split()


def planted_corpus(rng, n_base=30):
    """Base texts plus mutated copies at varied edit distances."""
    texts = {}
    for i in range(n_base):
        words = [rng.choice(LEXICON) for _ in range(60)]
        texts[f"base_{i:03d}"] = " ".join(words)
    for i in range(n_base):
        words = texts[f"base_{i:03d}"].split()
        n_edits = rng.choice([1, 2, 4, 8, 20, 40])
        for k in rng.sample(range(len(words)), n_edits):
            words[k] = rng.choice(LEXICON)
        texts[f"mut_{i:03d}"] = " ".join(words)
    return texts


def chained_corpus(rng, n_chains):
    """Chains of successive edits: neighbours are near-duplicates while the
    ends of a long chain often are not, so inner links bridge the ends."""
    texts = {}
    for c in range(n_chains):
        words = [rng.choice(LEXICON) for _ in range(60)]
        for step in range(rng.randint(1, 4)):
            texts[f"c{c}_{step}"] = " ".join(words)
            for k in rng.sample(range(len(words)), rng.choice([1, 3, 6])):
                words[k] = rng.choice(LEXICON)
    return texts


def restrict(clusters, subset):
    return {(a, b): j for c in clusters for a, b, j in c.pairs if a in subset and b in subset}


class TestShingles:
    def test_agrees_with_reference(self):
        samples = [
            "O governo anunciou",
            "MAIÚSCULAS e    espaços\t estranhos",
            "curto",
            "ab",
            "",
            "çãé àõ ü",
        ]
        for text in samples:
            assert shingles(text) == set(ref_shingles(text)), text

    def test_short_text_is_single_shingle(self):
        assert shingles("abc") == {"abc"}

    def test_empty_text_is_empty_set(self):
        assert shingles("   ") == set()

    def test_case_and_whitespace_insensitive(self):
        assert shingles("Governo  Federal") == shingles("governo federal")


class TestExactJaccard:
    def test_agrees_with_reference(self):
        rng = random.Random(7)
        for _ in range(50):
            a = frozenset(rng.sample(range(100), rng.randint(0, 30)))
            b = frozenset(rng.sample(range(100), rng.randint(0, 30)))
            sa, sb = {str(x) for x in a}, {str(x) for x in b}
            assert exact_jaccard(sa, sb) == pytest.approx(ref_jaccard(frozenset(sa), frozenset(sb)))

    def test_identical_sets(self):
        assert exact_jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert exact_jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty(self):
        assert exact_jaccard(set(), set()) == 1.0


class TestMinHasher:
    def test_signature_shape_and_determinism(self):
        cfg = DedupConfig()
        sig1 = MinHasher(cfg).signature("um texto qualquer para assinar")
        sig2 = MinHasher(cfg).signature("um texto qualquer para assinar")
        assert sig1.shape == (cfg.num_permutations,)
        assert sig1.dtype == np.uint64
        assert np.array_equal(sig1, sig2)

    def test_seed_changes_signature(self):
        text = "um texto qualquer para assinar"
        sig_a = MinHasher(DedupConfig(seed=3)).signature(text)
        sig_b = MinHasher(DedupConfig(seed=4)).signature(text)
        assert not np.array_equal(sig_a, sig_b)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            MinHasher().signature("  ")

    def test_identical_texts_agree_everywhere(self):
        hasher = MinHasher()
        a = hasher.signature("texto repetido igual")
        b = hasher.signature("texto  REPETIDO igual")
        assert MinHasher.estimate(a, b) == 1.0

    def test_estimate_tracks_exact_jaccard(self):
        rng = random.Random(11)
        texts = planted_corpus(rng, n_base=10)
        hasher = MinHasher()
        keys = sorted(texts)
        for a, b in zip(keys, keys[1:]):
            sa, sb = shingles(texts[a]), shingles(texts[b])
            est = MinHasher.estimate(hasher.signature(texts[a]), hasher.signature(texts[b]))
            assert abs(est - exact_jaccard(sa, sb)) <= 0.17


class TestConfig:
    def test_bands_must_divide_permutations(self):
        with pytest.raises(ValueError):
            DedupConfig(num_permutations=100, bands=33)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            DedupConfig(jaccard_threshold=0.0)

    def test_default_banding(self):
        cfg = DedupConfig()
        assert (cfg.num_permutations, cfg.bands, cfg.rows_per_band) == (100, 50, 2)


class TestPipeline:
    def test_identical_texts_are_candidates(self):
        hasher = MinHasher()
        sigs = {"a": hasher.signature("texto igual"), "b": hasher.signature("texto igual")}
        assert candidate_pairs(sigs) == {("a", "b")}

    def test_matches_exhaustive_comparison(self):
        rng = random.Random(20240709)
        texts = planted_corpus(rng)
        expected = ref_near_pairs(texts, 0.7)
        assert expected, "planted corpus must contain near-duplicates"

        clusters = near_duplicates(texts)
        found = {(a, b): j for c in clusters for a, b, j in c.pairs}
        assert set(found) == set(expected)
        for pair, j in found.items():
            assert j == pytest.approx(expected[pair])

    def test_no_pair_below_threshold_is_reported(self):
        rng = random.Random(5)
        texts = planted_corpus(rng)
        for c in near_duplicates(texts):
            for _, _, j in c.pairs:
                assert j >= 0.7

    def test_cluster_is_connected_components(self):
        confirmed = {("a", "b"): 0.9, ("b", "c"): 0.8, ("d", "e"): 0.75}
        clusters = cluster(confirmed)
        assert [c.members for c in clusters] == [("a", "b", "c"), ("d", "e")]
        assert clusters[0].pairs == (("a", "b", 0.9), ("b", "c", 0.8))

        interleaved = {("c", "f"): 0.8, ("a", "h"): 0.9, ("b", "e"): 0.7,
                       ("a", "d"): 0.75, ("e", "g"): 0.85, ("c", "i"): 0.95}
        clusters = cluster(interleaved)
        assert [c.members for c in clusters] == [("a", "d", "h"), ("b", "e", "g"), ("c", "f", "i")]
        assert [c.pairs for c in clusters] == [
            (("a", "d", 0.75), ("a", "h", 0.9)),
            (("b", "e", 0.7), ("e", "g", 0.85)),
            (("c", "f", 0.8), ("c", "i", 0.95)),
        ]

    def test_empty_corpus(self):
        assert near_duplicates({}) == []


class TestSubsetReuse:
    """Clusters of a corpus serve any subset of it: re-clustering the pairs
    inside the subset equals a fresh run over the subset."""

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_restricted_pairs_equal_subset_run(self, seed, data):
        texts = chained_corpus(random.Random(seed), n_chains=6)
        subset = data.draw(st.sets(st.sampled_from(sorted(texts))))
        full = near_duplicates(texts)
        assert cluster(restrict(full, subset)) == near_duplicates({k: texts[k] for k in subset})

    def test_bridge_outside_the_subset_splits_the_cluster(self):
        rng = random.Random(7)
        words = [rng.choice(LEXICON) for _ in range(60)]
        texts = {"a": " ".join(words)}
        for k in range(0, 60, 12):
            words[k] = rng.choice(LEXICON)
        texts["b"] = " ".join(words)
        for k in range(6, 60, 12):
            words[k] = rng.choice(LEXICON)
        texts["c"] = " ".join(words)
        sets = {k: shingles(t) for k, t in texts.items()}
        assert exact_jaccard(sets["a"], sets["c"]) < 0.7
        full = near_duplicates(texts)
        assert [c.members for c in full] == [("a", "b", "c")]

        subset = {"a", "c"}
        assert cluster(restrict(full, subset)) == near_duplicates({k: texts[k] for k in subset}) == []

"""Near-duplicate detection against exhaustive comparison."""

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencia import cli, dedup, validation
from evidencia.dedup import (
    DedupConfig,
    MinHasher,
    candidate_pairs,
    cluster,
    confirm_pairs,
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
        assert isinstance(sig1, tuple) and len(sig1) == cfg.num_permutations
        assert all(type(v) is int for v in sig1)
        assert sig1 == sig2

    def test_seed_changes_signature(self):
        text = "um texto qualquer para assinar"
        sig_a = MinHasher(DedupConfig(seed=3)).signature(text)
        sig_b = MinHasher(DedupConfig(seed=4)).signature(text)
        assert sig_a != sig_b

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

    # SHA-256 of default-config signatures, each component as 8 bytes
    # little-endian. Any change to the shingle hash, the bin split, the
    # minimum or the probe order changes these digests, and with them every
    # candidate set downstream.
    PINNED = {
        "O governo anunciou hoje uma nova campanha de vacinação em todo o país.":
            "2214df3c5f870769b3e94eb62b140160e628674a3bc619d6eacdf42852d8949c",
        "Mensagem encaminhada: beba água de coco quente para curar a gripe!!!":
            "646869fcef46f15734a6399ab5d9a9d762d01511c826009ba1f942ee4e904c33",
        "curto":
            "f7c718acc05f86b6e69cbc94a4763949fee6d73811cb83e9b6897da1e1fe540f",
        "Ação, coração e pão: acentuação ÇÃÕ em MAIÚSCULAS   e espaços\tlargos.":
            "4290a5d5b1667c2d8c9b05175b0290aff234f2d48bff2af27148a3fd17ab5fe7",
    }

    def test_signature_bits_are_pinned(self):
        for text, digest in self.PINNED.items():
            sig = MinHasher().signature(text)
            assert hashlib.sha256(b"".join(v.to_bytes(8, "little") for v in sig)).hexdigest() == digest, text

    def test_reused_hasher_matches_fresh_hashers(self):
        texts = list(self.PINNED) + list(planted_corpus(random.Random(3), n_base=5).values())
        fresh = [MinHasher().signature(t) for t in texts]
        for order in (range(len(texts)), reversed(range(len(texts)))):
            hasher = MinHasher()
            for i in order:
                assert hasher.signature(texts[i]) == fresh[i]


def ref_bin(shingle, n, seed=3):
    """(value, bin) of a shingle: its seed-salted 64-bit blake2b value h
    split as (h // n, h % n)."""
    salt = hashlib.blake2b(str(seed).encode(), digest_size=16).digest()
    h = hashlib.blake2b(shingle.encode(), digest_size=8, salt=salt).digest()
    return divmod(int.from_bytes(h, "little"), n)


class TestDensification:
    """Each bin keeps its smallest value; an empty bin copies the first
    filled bin along a probe order fixed by the bin and the seed alone."""

    @pytest.mark.parametrize("size", [60, 2000])
    def test_filled_bins_keep_their_minimum(self, size):
        shingle_set = {f"s{k}" for k in range(size)}
        mins = {}
        for s in shingle_set:
            value, i = ref_bin(s, 100)
            mins[i] = min(value, mins.get(i, value))
        sig = MinHasher().signature_of_shingles(shingle_set)
        assert [sig[i] for i in sorted(mins)] == [mins[i] for i in sorted(mins)]
        assert set(sig) == set(mins.values())
        assert (len(mins) == 100) == (size == 2000)

    @pytest.mark.parametrize("bins", [100, 400])
    def test_one_shingle_signs_every_bin_with_its_value(self, bins):
        sig = MinHasher(DedupConfig(num_permutations=bins, bands=bins // 4)).signature("curto")
        assert sig == (ref_bin("curto", bins)[0],) * bins

    def test_probe_order_does_not_depend_on_the_set(self):
        (v1, b1), (v2, b2) = ref_bin("alpha", 100), ref_bin("omega", 100)
        assert b1 != b2
        # A third shingle in alpha's bin, above alpha's value, leaves the
        # filled bins and their minima as they were.
        extra = next(s for s in (f"x{k}" for k in range(10_000))
                     if ref_bin(s, 100)[1] == b1 and ref_bin(s, 100)[0] > v1)
        two = MinHasher().signature_of_shingles({"alpha", "omega"})
        assert set(two) == {v1, v2}
        assert MinHasher().signature_of_shingles({"alpha", "omega", extra}) == two


class TestConfig:
    def test_bands_must_divide_permutations(self):
        with pytest.raises(ValueError):
            DedupConfig(num_permutations=100, bands=33)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            DedupConfig(jaccard_threshold=0.0)

    @pytest.mark.parametrize("field", ["shingle_size", "num_permutations", "bands"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DedupConfig(**{field: value})

    def test_default_banding(self):
        cfg = DedupConfig()
        assert (cfg.num_permutations, cfg.bands, cfg.rows_per_band) == (100, 25, 4)

    def test_dedup_subcommand_defaults_are_the_config_defaults(self, monkeypatch, tmp_path):
        # dedup makes validate's call: the texts alone, so DedupConfig() applies.
        seen = {}

        def recorder(subcommand):
            def near_duplicates(*args, **kwargs):
                seen[subcommand] = (args, kwargs)
                return []
            return near_duplicates

        monkeypatch.setattr(cli, "near_duplicates", recorder("dedup"))
        monkeypatch.setattr(validation, "near_duplicates", recorder("validate"))
        text = ("O governo municipal confirmou nesta semana a abertura de novas vagas de "
                "vacinação em todos os postos de saúde da cidade durante o próximo mês.")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(f'{{"id": "a", "corpus": "covid19br", "text": "{text}", "label": "true"}}\n',
                          encoding="utf-8")
        for subcommand in ("dedup", "validate"):
            assert cli.main([subcommand, "--in", str(corpus), "--out", str(tmp_path / f"{subcommand}.jsonl")]) == 0
        assert seen["dedup"] == seen["validate"] == (({"a": text},), {})


def planted_pairs(rng, jaccard, n_pairs):
    """Shingle-set pairs of the given Jaccard over a union of 100 shingles,
    with random contents so that no two pairs share a shingle."""
    common = round(jaccard * 100)
    pairs = []
    for _ in range(n_pairs):
        grams = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz ", k=8)) for _ in range(100)]
        shared, rest = grams[:common], grams[common:]
        half = len(rest) // 2
        pairs.append((set(shared + rest[:half]), set(shared + rest[half:])))
    return pairs


class TestSCurve:
    """At the default config, a planted pair of Jaccard J becomes a candidate
    with probability 1 - (1 - J^r)^b, r rows per band and b bands."""

    N_PAIRS = 300

    @pytest.mark.parametrize("jaccard", [0.3, 0.5, 0.7, 0.9])
    def test_candidate_rate_follows_the_banding_curve(self, jaccard):
        cfg = DedupConfig()
        pairs = planted_pairs(random.Random(int(jaccard * 10)), jaccard, self.N_PAIRS)
        assert all(exact_jaccard(a, b) == jaccard for a, b in pairs)
        hasher = MinHasher(cfg)
        sigs = {}
        for k, (a, b) in enumerate(pairs):
            sigs[f"{k:03d}a"] = hasher.signature_of_shingles(a)
            sigs[f"{k:03d}b"] = hasher.signature_of_shingles(b)
        candidates = candidate_pairs(sigs, cfg)
        hits = sum((f"{k:03d}a", f"{k:03d}b") in candidates for k in range(self.N_PAIRS))
        expected = 1 - (1 - jaccard**cfg.rows_per_band) ** cfg.bands
        # 4.5 binomial standard deviations, plus one pair for the rates
        # near 1 whose deviation is almost zero.
        bound = 4.5 * (expected * (1 - expected) / self.N_PAIRS) ** 0.5 + 1 / self.N_PAIRS
        assert abs(hits / self.N_PAIRS - expected) <= bound


class TestMissRate:
    """Bins of one permutation are not independent, so the banding formula's
    miss rate at J=0.7, (1 - 0.7^4)^25 ~ 1.04e-3, needs a measurement. At
    the default config, 400,000 pairs built as here (sets of 84 and 86
    shingles, which leave about 43 of a set's 100 bins empty) missed 407
    times: 1.02e-3, standard error 0.05e-3. The bound is that rate plus 4.5
    Poisson standard deviations over this test's pairs."""

    N_PAIRS = 5000
    RATE = 407 / 400_000

    def test_miss_rate_at_the_threshold(self):
        cfg = DedupConfig()
        hasher = MinHasher(cfg)
        sigs = {}
        for k in range(self.N_PAIRS):
            shared = {f"{k}.s{m}" for m in range(70)}
            a, b = shared | {f"{k}.a{m}" for m in range(14)}, shared | {f"{k}.b{m}" for m in range(16)}
            sigs[f"{k:05d}a"] = hasher.signature_of_shingles(a)
            sigs[f"{k:05d}b"] = hasher.signature_of_shingles(b)
        assert exact_jaccard(a, b) == 0.7
        candidates = candidate_pairs(sigs, cfg)
        misses = sum((f"{k:05d}a", f"{k:05d}b") not in candidates for k in range(self.N_PAIRS))
        expected = self.RATE * self.N_PAIRS
        assert misses <= expected + 4.5 * expected**0.5


def counting_jaccard(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return exact_jaccard(a, b)

    monkeypatch.setattr(dedup, "exact_jaccard", spy)
    return calls


class TestSizeBound:
    """confirm_pairs skips a pair whose size ratio is below the threshold."""

    def test_subset_exactly_at_threshold_is_confirmed(self, monkeypatch):
        calls = counting_jaccard(monkeypatch)
        big = {f"s{i}" for i in range(10)}
        small = set(sorted(big)[:7])
        confirmed = confirm_pairs([("a", "b")], {"a": small, "b": big}, DedupConfig(jaccard_threshold=0.7))
        assert confirmed == {("a", "b"): 0.7}
        assert len(calls) == 1

    def test_ratio_just_below_threshold_is_skipped(self, monkeypatch):
        calls = counting_jaccard(monkeypatch)
        big = {f"s{i}" for i in range(1000)}
        small = set(sorted(big)[:699])
        confirmed = confirm_pairs([("a", "b")], {"a": small, "b": big}, DedupConfig(jaccard_threshold=0.7))
        assert confirmed == {}
        assert calls == []

    @given(
        sets=st.lists(st.frozensets(st.integers(0, 11), max_size=12), min_size=2, max_size=8),
        # Ratios of small integers put some pairs exactly on the threshold.
        threshold=st.one_of(
            st.floats(0.01, 1.0),
            st.builds(lambda i, u: i / max(i, u), st.integers(1, 12), st.integers(1, 12)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_filter(self, sets, threshold):
        named = {f"r{k}": frozenset(str(x) for x in s) for k, s in enumerate(sets)}
        pairs = list(combinations(named, 2))
        expected = {}
        for a, b in pairs:
            j = ref_jaccard(named[a], named[b])
            if j >= threshold:
                expected[(a, b)] = j
        assert confirm_pairs(pairs, named, DedupConfig(jaccard_threshold=threshold)) == expected


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

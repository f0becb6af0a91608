"""Command-line behavior: the full pipeline, option resolution, exit codes."""

import argparse
import hashlib
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evidencia
from evidencia import cli, enrichment, langid, providers, records, resources, textprep
from evidencia.cli import main
from evidencia.providers import LOG_NAME, FixtureBackend
from evidencia.records import ProviderFailure, funnel, read_enriched, read_news

from conftest import CASSETTES, FIXTURES, ROOT

CORPUS = str(FIXTURES / "corpus.jsonl")

# A record with no words to search for once quotes and emoji are stripped.
WORDLESS = json.dumps({"id": "cv_9999", "corpus": "covid19br", "label": "fake", "text": "“😀” \"🙂\""}) + "\n"


def corpus_with_wordless(path):
    """Write the fixture corpus's first covid19br record, then ``WORDLESS``, to ``path``."""
    lines = Path(CORPUS).read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(next(line for line in lines if '"covid19br"' in line) + WORDLESS, encoding="utf-8")
    return path


MANIFEST_KEYS = {
    "subcommand", "version", "config", "resource_hashes", "provider_mode",
    "fixtures_hash", "cache_hash", "input_hashes", "outputs",
    "started_at", "finished_at",
}


# SHA-256 of every record output of the fixture chain (manifests excluded:
# they hold wall-clock times). A change to any of them is a behaviour change.
PIPELINE_DIGESTS = {
    "analysis.json": "cb237bb44f37a130e268cee193fa594a96aa33068270b283df111fb7ca19c175",
    "analysis.json.txt": "bb38bcadc398453aa7397619cd0aa600b7fff734db75714a5072cf5d15cdd7c1",
    "clusters.jsonl": "be7d61ca82ef64db24208352e694ce0dcecdc4952458b176c31b0d4ce43f788a",
    "decisions.jsonl": "f9749018cbc4668ff735ec5c7bca72c69ba2783db5b04ad3df491a1381321670",
    "enriched.jsonl": "fead18451cd83dee6bc7f95d2cbfab5354e4ec4f1b12dc0cbf620ef1db2dc719",
    "enriched.jsonl.stats.json": "d6008796ff20820421ef2049ca2cc0a0b228d70b9fde0e7875601321129722f3",
    "evaluation.json": "665fd8285439cba5225964602aa7e3f31a8f1f57fd90c81cf205c8d8b82cbbb6",
    "evaluation.json.predictions.jsonl": "c9b3f547088b7b9cfcc9693f5c75b780270992ac0538cad3d32dd6255a49612e",
    "instances.jsonl": "e04e0fbc30d8a573569e19c32e6181e4c6a4ff041a066ed523a6ca7ddbaddf38",
    "splits/test.jsonl": "62d41064fbabec67614d7101f01f7d877b6a97a086d83a358e3cfd4e0f8c14b2",
    "splits/train.jsonl": "905c9fc04ed5d4052851ea1dae6cf1314ee71cb2e86903495640f0c1d7fa60a4",
    "splits/val.jsonl": "582292e14035e5ff0cfd3fe32f387b92dfdbc03a9645423e29cbb321ad37ae01",
    "validated.jsonl": "5419dfa17f80bece76d546840d77a07a467573d2fb54d7cc884a89efb658ae1d",
    "validated.jsonl.report.json": "9bb74cca84469bc8cb934276917efca50d45a34bc78e912bb7ea952286607a63",
    "validated.jsonl.review.jsonl": "5e2316163f9ac07f432e97e233237486f8b32ea8b8993fd4b82284396ecf76df",
}


# SHA-256 of every manifest of the fixture chain once its wall-clock instants,
# the run's temporary root and the checkout root are masked (see
# ``masked_manifest``). A change to any of them changes what a manifest says.
MANIFEST_DIGESTS = {
    "analysis.json.manifest.json": "803b483ca5a9a2e57ca0dbfde14c0fb3ea8808673c7edf197faaae26faceea2e",
    "clusters.jsonl.manifest.json": "ac1300f3d278587bd9080145d2fd857ca40b9d2eef163fd61e7107636d8745f1",
    "decisions.jsonl.manifest.json": "e8ddad484dd4b7af8b83c5949ca76c469d6cafb8d743515a682f6a65e2c32039",
    "enriched.jsonl.manifest.json": "69a7a8df0b5e418c4732f3b52a13e3654f655ed681553d0cd160d143c26c1c54",
    "evaluation.json.manifest.json": "9c6d25e7e7f5ae99a8497965e06ce4efc73d510836cc72fb67e5dd5f214f6890",
    "instances.jsonl.manifest.json": "e387c66306b026dab09e958363139cbe0d3ad5aa9178810691e127d6921bb50a",
    "splits/manifest.json": "25f78fae1a68478834e9bc25ab30645ec0b6c5fbe84785ebfdff379822939572",
    "validated.jsonl.manifest.json": "5ab59816b209f38fc10e6fef2aba20160540c6b5a711e3f968a09edf7d733f54",
}


def manifest_times(root):
    return {path: path.stat().st_mtime_ns for path in Path(root).rglob("*manifest.json")}


def masked_manifest(path, tmp_root):
    text = Path(path).read_text(encoding="utf-8")
    text = re.sub(r'"(started_at|finished_at)": "[^"]*"', r'"\1": "<instant>"', text)
    return text.replace(str(tmp_root), "<tmp>").replace(str(ROOT), "<root>")


def load_manifest(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    assert MANIFEST_KEYS <= set(data)
    return data


def chain(root):
    """The fixture chain's output paths under ``root``, and each step's arguments."""
    paths = {
        "validated": root / "validated.jsonl",
        "clusters": root / "clusters.jsonl",
        "skeleton": root / "decisions.jsonl",
        "enriched": root / "enriched.jsonl",
        "analysis": root / "analysis.json",
        "splits": root / "splits",
        "instances": root / "instances.jsonl",
        "evaluation": root / "evaluation.json",
    }
    steps = [
        ["validate", "--in", CORPUS, "--out", str(paths["validated"])],
        ["dedup", "--in", CORPUS, "--out", str(paths["clusters"])],
        ["review", "--queue", f"{paths['validated']}.review.jsonl", "--out", str(paths["skeleton"])],
        ["enrich", "--in", str(paths["validated"]), "--out", str(paths["enriched"]),
         "--provider", "fixture", "--fixtures", str(CASSETTES)],
        ["analyze", "--in", str(paths["enriched"]), "--out", str(paths["analysis"]),
         "--clusters", str(paths["clusters"])],
        ["split", "--in", str(paths["validated"]), "--out-dir", str(paths["splits"])],
        ["build-config", "--in", str(paths["validated"]), "--out", str(paths["instances"]),
         "--kind", "validated"],
        ["evaluate", "--in", str(paths["splits"] / "test.jsonl"),
         "--shots-from", str(paths["splits"] / "train.jsonl"),
         "--out", str(paths["evaluation"]),
         "--provider", "fixture", "--fixtures", str(CASSETTES)],
    ]
    return paths, steps


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; individual tests inspect the artifacts."""
    paths, steps = chain(tmp_path_factory.mktemp("pipeline"))
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return paths


class TestPipeline:
    def test_validate_outputs(self, pipeline):
        validated = read_news(pipeline["validated"])
        assert len(validated) == 30
        report = json.loads(Path(f"{pipeline['validated']}.report.json").read_text(encoding="utf-8"))
        assert report["input_count"] == 38
        assert report["output_count"] == 30
        assert report["review_queue_size"] == 2
        review_lines = Path(f"{pipeline['validated']}.review.jsonl").read_text(encoding="utf-8")
        assert len(review_lines.strip().splitlines()) == 2
        manifest = load_manifest(f"{pipeline['validated']}.manifest.json")
        assert manifest["subcommand"] == "validate"
        assert CORPUS in manifest["input_hashes"]
        assert manifest["resource_hashes"]

    def test_dedup_outputs(self, pipeline):
        rows = [json.loads(line) for line in
                Path(pipeline["clusters"]).read_text(encoding="utf-8").splitlines() if line.strip()]
        assert rows
        clusters = [set(row["members"]) for row in rows]
        for row in rows:
            assert len(row["members"]) >= 2
            assert row["min_jaccard"] >= 0.7 - 1e-9
        assert any({"cv_0009", "cv_0010"} <= members for members in clusters)
        assert any({"true_0251", "true_3023"} <= members for members in clusters)
        load_manifest(f"{pipeline['clusters']}.manifest.json")

    def test_review_skeleton(self, pipeline):
        lines = Path(pipeline["skeleton"]).read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            item = json.loads(line)
            assert item["decision"] == {"action": item["suggestion"]}

    def test_decisions_missing_a_queue_item_exit_2(self, pipeline, tmp_path, capsys):
        lines = Path(pipeline["skeleton"]).read_text(encoding="utf-8").strip().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text(lines[0] + "\n", encoding="utf-8")
        before = manifest_times(pipeline["validated"].parent)
        code = main(["validate", "--in", CORPUS, "--out", str(tmp_path / "v.jsonl"), "--decisions", str(partial)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "no decision for queue item rev-0002",
            f"error: {partial}: 1 problem(s), listed above",
        ]
        assert manifest_times(pipeline["validated"].parent) == before
        assert sorted(tmp_path.iterdir()) == [partial]

    def test_enrich_outputs(self, pipeline):
        records = read_enriched(pipeline["enriched"])
        assert len(records) == 30
        stats = json.loads(Path(f"{pipeline['enriched']}.stats.json").read_text(encoding="utf-8"))
        assert stats == funnel(records)
        assert stats["matched_direct"] == 23
        assert stats["extraction_needed"] == 6
        assert stats["hard_failed"] == 1
        manifest = load_manifest(f"{pipeline['enriched']}.manifest.json")
        assert manifest["provider_mode"] == "fixture"
        assert manifest["fixtures_hash"]

    def test_analyze_outputs(self, pipeline):
        report = json.loads(Path(pipeline["analysis"]).read_text(encoding="utf-8"))
        assert {"funnel", "text_stats", "domains", "ratings",
                "match_index_histogram", "review_years", "cluster_sizes"} <= set(report)
        assert report["funnel"]["total"] == 30
        text = Path(f"{pipeline['analysis']}.txt").read_text(encoding="utf-8")
        assert "text_stats" in text

    def test_split_outputs(self, pipeline):
        train = read_news(pipeline["splits"] / "train.jsonl")
        val = read_news(pipeline["splits"] / "val.jsonl")
        test = read_news(pipeline["splits"] / "test.jsonl")
        assert (len(train), len(val), len(test)) == (23, 4, 3)
        pair_home = {}
        for name, part in (("train", train), ("val", val), ("test", test)):
            for item in part:
                if item.pair_id:
                    pair_home.setdefault(item.pair_id, set()).add(name)
        assert all(len(homes) == 1 for homes in pair_home.values())
        load_manifest(pipeline["splits"] / "manifest.json")

    def test_build_config_attaches_context_column(self, pipeline):
        rows = [json.loads(line) for line in
                Path(pipeline["instances"]).read_text(encoding="utf-8").splitlines() if line.strip()]
        assert len(rows) == 30
        assert all(row["context"] == "" for row in rows)

    def test_evaluate_outputs(self, pipeline):
        result = json.loads(Path(pipeline["evaluation"]).read_text(encoding="utf-8"))
        assert result["result"]["n"] == 3
        assert result["result"]["abstentions"] == 1
        assert result["provider_errors"] == []
        assert len(result["shot_ids"]) == 15
        predictions = [json.loads(line) for line in
                       Path(f"{pipeline['evaluation']}.predictions.jsonl")
                       .read_text(encoding="utf-8").splitlines() if line.strip()]
        assert len(predictions) == 3
        assert sum(1 for p in predictions if p["predicted"] is None) == 1
        manifest = load_manifest(f"{pipeline['evaluation']}.manifest.json")
        assert manifest["notes"]["shot_policy"]

    def test_record_outputs_are_pinned(self, pipeline):
        root = pipeline["validated"].parent
        actual = {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in PIPELINE_DIGESTS}
        assert actual == PIPELINE_DIGESTS

    def test_manifests_are_pinned(self, pipeline):
        root = pipeline["validated"].parent
        actual = {
            name: hashlib.sha256(masked_manifest(root / name, root).encode("utf-8")).hexdigest()
            for name in MANIFEST_DIGESTS
        }
        assert actual == MANIFEST_DIGESTS

    def test_constant_settings_are_not_in_the_config(self, pipeline):
        validate = load_manifest(f"{pipeline['validated']}.manifest.json")["config"]
        split = load_manifest(pipeline["splits"] / "manifest.json")["config"]
        assert {"auto_remove_confidence", "min_content_tokens"}.isdisjoint(validate)
        assert {"train", "val", "test"}.isdisjoint(split)


class TestOneWriter:
    def test_every_output_goes_through_write_text(self, tmp_path, monkeypatch):
        written = []
        original = records.write_text

        def spy(path, chunks):
            written.append(Path(path))
            return original(path, chunks)

        # records' writers look the name up in records; cli holds its own reference.
        monkeypatch.setattr(records, "write_text", spy)
        monkeypatch.setattr(cli, "write_text", spy)
        _, steps = chain(tmp_path)
        for argv in steps:
            assert main(argv) == 0, f"step failed: {argv[0]}"
        files = sorted(path for path in tmp_path.rglob("*") if path.is_file())
        names = {path.relative_to(tmp_path).as_posix() for path in files}
        assert names == set(PIPELINE_DIGESTS) | set(MANIFEST_DIGESTS)
        assert sorted(written) == files


class TestBuildConfigEnriched:
    def test_enriched_kind_reads_enriched_file(self, pipeline, tmp_path):
        out = tmp_path / "ctx.jsonl"
        assert main(["build-config", "--in", str(pipeline["enriched"]),
                     "--out", str(out), "--kind", "enriched_full"]) == 0
        rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines() if line.strip()]
        assert len(rows) == 30
        assert sum(1 for row in rows if row["context"]) >= 25


class TestAnalyzePlain:
    def test_plain_corpus_gets_text_stats_only(self, tmp_path):
        out = tmp_path / "plain.json"
        assert main(["analyze", "--in", CORPUS, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report) == {"text_stats"}


# A Fake.br record line with distinct Portuguese text per ``{id}`` that
# passes every filter before the Fake.br rules, and ``{pair}`` fields.
FAKEBR_LINE = ('{{"id": "{id}", "corpus": "fakebr", "label": "fake"{pair}, "text": "O governo anunciou '
               'hoje um novo programa de vacinação para todas as cidades do interior do estado, com '
               'postos abertos durante a semana inteira e atendimento prioritário aos idosos {id}."}}\n')

# An enriched record line, complete but for ``{fields}``.
ENRICHED_LINE = ('{"item": {"id": "x", "corpus": "fakebr", "text": "t", "label": "fake"}, '
                 '"query": "q", "query_kind": "full_text", {fields}}\n')
ENRICHED = json.loads(ENRICHED_LINE.replace(", {fields}", ""))


class TestExitCodes:
    def test_missing_required_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--in", CORPUS])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["validate", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "out.jsonl")]) == 2

    def test_enrich_requires_provider(self, tmp_path, capsys):
        # evaluate, the other subcommand that calls a provider, too
        for argv in (["enrich", "--in", CORPUS], ["evaluate", "--in", CORPUS, "--shots-from", CORPUS]):
            out = tmp_path / f"{argv[0]}.out"
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--out", str(out)])
            assert exc.value.code == 2
            assert "the following arguments are required: --provider" in capsys.readouterr().err
            assert not out.exists()

    def test_fixture_provider_requires_directory(self, tmp_path, capsys):
        assert main(["enrich", "--in", CORPUS, "--out", str(tmp_path / "e.jsonl"),
                     "--provider", "fixture"]) == 2
        assert "--fixtures" in capsys.readouterr().err

    # A provider option the run would ignore is an error, not a no-op.
    @pytest.mark.parametrize("argv,flag", [
        (["validate", "--in", CORPUS, "--cache", "{dir}"], "--cache"),
        (["validate", "--in", CORPUS, "--fixtures", "{dir}"], "--fixtures"),
        (["enrich", "--in", CORPUS, "--provider", "live", "--fixtures", "{dir}"], "--fixtures"),
        (["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--provider", "live", "--fixtures", "{dir}"],
         "--fixtures"),
    ], ids=["validate-cache", "validate-fixtures", "enrich-live-fixtures", "evaluate-live-fixtures"])
    def test_ignored_provider_option_exits_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out" / "o.jsonl"
        assert main([arg.format(dir=tmp_path / "d") for arg in argv] + ["--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

    # A cache in the fixtures directory would append each request the
    # fixtures lack to them as a recorded answer.
    @pytest.mark.parametrize("argv", [
        ["validate", "--in", CORPUS], ["enrich", "--in", CORPUS], ["evaluate", "--in", CORPUS, "--shots-from", CORPUS],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("spelling", ["{dir}", "{dir}/../cassettes/."], ids=["same-path", "other-path"])
    def test_cache_in_the_fixtures_directory_exits_2(self, tmp_path, capsys, argv, spelling):
        fixtures = tmp_path / "cassettes"
        shutil.copytree(CASSETTES, fixtures)
        log = (fixtures / LOG_NAME).read_bytes()
        out = tmp_path / "out" / "o.jsonl"
        assert main([*argv, "--out", str(out), "--provider", "fixture", "--fixtures", str(fixtures),
                     "--cache", spelling.format(dir=fixtures)]) == 2
        assert "--cache names the --fixtures directory" in capsys.readouterr().err
        assert [path.name for path in fixtures.iterdir()] == [LOG_NAME]
        assert (fixtures / LOG_NAME).read_bytes() == log
        assert not out.parent.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_parallelism_below_1_exits_2(self, tmp_path, capsys, workers):
        out = tmp_path / "e.jsonl"
        assert main(["enrich", "--in", CORPUS, "--out", str(out), "--provider", "fixture",
                     "--fixtures", str(CASSETTES), "--parallelism", workers]) == 2
        assert "--parallelism must be at least 1" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []

    def test_enrich_error_rate_gate(self, pipeline, tmp_path, capsys):
        out = tmp_path / "e.jsonl"
        code = main(["enrich", "--in", str(pipeline["validated"]), "--out", str(out),
                     "--provider", "fixture", "--fixtures", str(CASSETTES),
                     "--max-error-rate", "0.0"])
        assert code == 1
        assert "above --max-error-rate" in capsys.readouterr().err
        assert out.exists()
        load_manifest(f"{out}.manifest.json")

    def test_evaluate_error_rate_gate(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "no-cassettes"
        empty.mkdir()
        (empty / LOG_NAME).touch()
        code = main(["evaluate", "--in", str(pipeline["splits"] / "test.jsonl"),
                     "--shots-from", str(pipeline["splits"] / "train.jsonl"),
                     "--out", str(tmp_path / "r.json"),
                     "--provider", "fixture", "--fixtures", str(empty),
                     "--max-error-rate", "0.5"])
        assert code == 1
        load_manifest(tmp_path / "r.json.manifest.json")

    def test_review_needs_out(self, pipeline, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["review", "--queue", f"{pipeline['validated']}.review.jsonl"])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    # Bad input found only after the whole file is read: a Fake.br record
    # with no pair to keep it with, a pair of three, and a training slice
    # too small for the shots. The message names the file first.
    @pytest.mark.parametrize("content,argv,message", [
        ('{"id": "x", "corpus": "fakebr", "label": "fake", "text": "t"}\n',
         ["split", "--in", "{bad}", "--out-dir", "{out}"], "record x: fakebr record without pair_id"),
        ('{"id": "x", "text": "t", "label": "fake"}\n',
         ["evaluate", "--in", "{train}", "--shots-from", "{bad}", "--out", "{out}/r.json",
          "--provider", "fixture", "--fixtures", str(CASSETTES)],
         "need at least 15 training instances, got 1"),
        (FAKEBR_LINE.format(id="f1", pair="") + FAKEBR_LINE.format(id="f2", pair=', "pair_id": "p"'),
         ["validate", "--in", "{bad}", "--out", "{out}/v.jsonl"], "fakebr record f1 is missing pair_id"),
        ("".join(FAKEBR_LINE.format(id=f"f{i}", pair=', "pair_id": "p"') for i in (1, 2, 3)),
         ["validate", "--in", "{bad}", "--out", "{out}/v.jsonl"], "pair p has 3 members"),
    ], ids=["split-fakebr-without-pair", "evaluate-too-few-shots", "validate-fakebr-without-pair",
            "validate-pair-of-three"])
    def test_evalkit_input_fault_exits_2(self, pipeline, tmp_path, capsys, content, argv, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content, encoding="utf-8")
        paths = {"bad": bad, "out": tmp_path / "out", "train": pipeline["splits"] / "train.jsonl"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert f"error: {bad}: {message}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_enrich_record_with_no_words_exits_2_and_names_it(self, tmp_path, capsys, workers):
        wordless = corpus_with_wordless(tmp_path / "in.jsonl")
        out = tmp_path / "out" / "e.jsonl"
        assert main(["enrich", "--in", str(wordless), "--out", str(out), "--provider", "fixture",
                     "--fixtures", str(CASSETTES), "--parallelism", workers]) == 2
        assert f"error: {wordless}: record cv_9999: no words to search for" in capsys.readouterr().err
        assert not out.parent.exists()

    # Each case writes ``content`` to ``bad`` (a directory when None, nothing
    # when False) and runs ``argv``; an unreadable path or a malformed line
    # must exit 2 and name the file.
    @pytest.mark.parametrize("content,argv", [
        ('{"size": 2}\n', ["analyze", "--in", "{enriched}", "--out", "{out}", "--clusters", "{bad}"]),
        ("members\n", ["analyze", "--in", "{enriched}", "--out", "{out}", "--clusters", "{bad}"]),
        ("{\n", ["analyze", "--in", "{bad}", "--out", "{out}"]),
        ('"an item"\n', ["analyze", "--in", "{bad}", "--out", "{out}"]),
        ("[1, 2]\n", ["evaluate", "--in", "{bad}", "--shots-from", "{train}", "--out", "{out}",
                      "--provider", "fixture", "--fixtures", str(CASSETTES)]),
        ("[1]\n", ["build-config", "--in", "{bad}", "--out", "{out}", "--kind", "enriched_full"]),
        ("[1]\n", ["validate", "--in", CORPUS, "--out", "{out}", "--decisions", "{bad}"]),
        (None, ["validate", "--in", "{bad}", "--out", "{out}"]),
        ("", ["split", "--in", CORPUS, "--out-dir", "{bad}"]),
        ('{"members": 5}\n', ["analyze", "--in", "{enriched}", "--out", "{out}", "--clusters", "{bad}"]),
        ('{"members": "abc"}\n', ["analyze", "--in", "{enriched}", "--out", "{out}", "--clusters", "{bad}"]),
        ('{"id": "x", "corpus": "fakebr", "label": "fake", "text": "t", "extra": 5}\n',
         ["validate", "--in", "{bad}", "--out", "{out}"]),
        ('{"id": "rev-0001", "kind": "near_duplicate", "record_ids": 3}\n',
         ["review", "--queue", "{bad}", "--out", "{out}"]),
        (False, ["evaluate", "--in", "{train}", "--shots-from", "{bad}", "--out", "{out}",
                 "--provider", "fixture", "--fixtures", str(CASSETTES)]),
        (ENRICHED_LINE.replace("{fields}", '"initial_results": [{"rank": "one"}]'),
         ["analyze", "--in", "{bad}", "--out", "{out}"]),
        (ENRICHED_LINE.replace("{fields}", '"match_scores": ["x"]'), ["analyze", "--in", "{bad}", "--out", "{out}"]),
        ('{"id": "rev-0001", "kind": "random_inspection", "record_ids": "ab"}\n',
         ["review", "--queue", "{bad}", "--out", "{out}"]),
        (b'{"id": "x", "corpus": "fakebr", "label": "fake", "text": "t\xff"}\n',
         ["analyze", "--in", "{bad}", "--out", "{out}"]),
        (b'{"request_hash": "\xff", "body": {}}\n',
         ["enrich", "--in", CORPUS, "--out", "{out}", "--provider", "fixture", "--fixtures", "{bad.parent}"]),
        (b"fake_0001\nab\xff\n", ["validate", "--in", CORPUS, "--out", "{out}", "--incomplete-ids", "{bad}"]),
        # A \u escape that leaves a lone surrogate: JSON can say it, UTF-8 cannot.
        ('{"id": "x", "corpus": "covid19br", "label": "fake", "text": "a\\ud800b"}\n',
         ["validate", "--in", "{bad}", "--out", "{out}"]),
        ('{"request_hash": "\\udfff", "body": {}}\n',
         ["enrich", "--in", CORPUS, "--out", "{out}", "--provider", "fixture", "--fixtures", "{bad.parent}"]),
    ], ids=["clusters-no-members", "clusters-not-json", "analyze-not-json", "analyze-string",
            "evaluate-list", "build-config-list", "validate-decisions-list",
            "validate-in-directory", "split-out-dir-file", "clusters-members-int",
            "clusters-members-string", "validate-extra-int", "review-record-ids-int", "evaluate-shots-from-missing",
            "analyze-rank-string", "analyze-match-score-string", "review-record-ids-string",
            "analyze-not-utf8", "fixture-log-not-utf8", "incomplete-ids-not-utf8",
            "validate-lone-surrogate", "fixture-log-lone-surrogate"])
    def test_malformed_input_exits_2_and_names_the_file(self, pipeline, tmp_path, capsys, content, argv):
        bad = tmp_path / LOG_NAME  # the name a fixture log has, so ``--fixtures {bad.parent}`` reads it
        if content is None:
            bad.mkdir()
        elif content is not False:
            bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        paths = {"bad": bad, "out": tmp_path / "out.json", "enriched": pipeline["enriched"],
                 "train": pipeline["splits"] / "train.jsonl"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert str(bad) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == ([] if content is False else [bad])

    # A field of the wrong type in an enriched result, or an external label
    # conflict without a label to relabel to, is bad input: exit 2 naming
    # the file and the line (the file's last), in every subcommand that reads it.
    @pytest.mark.parametrize("content,argv", [
        pytest.param(ENRICHED_LINE.replace("{fields}", f'"{pool}": [{{"rank": 1, {field}}}]'),
                     [*run, "--in", "{bad}", "--out", "{out}"], id=f"{name}-{run[0]}")
        for name, pool, field in [
            ("web-link-int", "initial_results", '"link": 5'),
            ("web-title-null", "claim_results", '"title": null, "link": "https://g1.globo.com/a"'),
            ("review-date-int", "factcheck_results", '"review_date": 2020'),
            ("rating-list", "factcheck_results", '"textual_rating": ["Falso"]'),
        ]
        for run in (["analyze"], ["build-config", "--kind", "enriched_filtered"])
    ] + [
        pytest.param(json.dumps({**ENRICHED, **fields}) + "\n", [*run, "--in", "{bad}", "--out", "{out}"],
                     id=f"{name}-{run[0]}")
        for name, fields in [
            ("query-int", {"query": 5}),
            ("claim-int", {"claim": 5}),
            ("error-detail-int", {"errors": [{"stage": "initial_search", "kind": "provider_failure", "detail": 5}]}),
            ("timestamp-int", {"timestamps": {"initial_search": 5}}),
            ("web-rank-float", {"initial_results": [{"rank": 1.7}]}),
            ("match-index-bool", {"initial_results": [{"rank": 1}], "match_index": True}),
            ("web-rank-bool", {"claim": "c", "claim_results": [{"rank": True}]}),
            ("review-rank-string", {"factcheck_results": [{"rank": "1"}]}),
            ("match-score-string", {"match_scores": ["0.5"]}),
            ("claim-enforced-string", {"claim": "c", "claim_enforced": "no"}),
        ]
        for run in (["analyze"], ["build-config", "--kind", "enriched_filtered"])
    ] + [
        pytest.param(json.dumps({"id": "rev-0001", "kind": "random_inspection", "record_ids": ["cv_0001"]}) + "\n"
                     + json.dumps({"id": "rev-0002", "kind": "external_label_conflict", "record_ids": ["cv_0007"],
                                   "suggestion": "relabel", "context": context}) + "\n",
                     ["review", "--queue", "{bad}", "--out", "{out}"], id=f"review-queue-{name}")
        for name, context in [("no-bucket", {"stored_label": "true"}), ("bucket-not-a-label", {"external_bucket": "x"})]
    ] + [
        # A queue line that validate never writes: its skeleton would not read back as decisions.
        pytest.param(json.dumps({"id": "rev-0001", "kind": "random_inspection", "record_ids": ["cv_0001"],
                                 **fields}) + "\n",
                     ["review", "--queue", "{bad}", "--out", "{out}"], id=f"review-queue-{name}")
        for name, fields in [("suggestion-int", {"suggestion": 5}), ("suggestion-unknown", {"suggestion": "ban"}),
                             ("context-list", {"context": [["a", "b"]]}), ("id-int", {"id": 5}),
                             ("relabel-without-conflict", {"suggestion": "relabel"})]
    ] + [
        # An id read as "None" or "7" would pass for another record's; a pair_id of the wrong type
        # fails the Fake.br rules with a traceback.
        pytest.param(json.dumps({"id": "cv_0001", "corpus": "covid19br", "label": "fake", "text": "t"}) + "\n"
                     + json.dumps({"id": "cv_0002", "corpus": "fakebr", "label": "fake", "text": "t", **fields}) + "\n",
                     [*run, "--in", "{bad}"], id=f"news-{name}-{run[0]}")
        for name, fields in [("id-null", {"id": None}), ("id-int", {"id": 7}), ("pair-id-list", {"pair_id": ["p"]}),
                             ("source-url-int", {"source_url": 5}), ("published-at-int", {"published_at": 20200101})]
        for run in (["validate", "--out", "{out}"], ["split", "--out-dir", "{out}"])
    ])
    def test_bad_field_exits_2_and_names_the_line(self, tmp_path, capsys, content, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content, encoding="utf-8")
        assert main([arg.format(bad=bad, out=tmp_path / "out") for arg in argv]) == 2
        assert f"error: {bad}:{content.count(chr(10))}: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]

    # An instance with a label outside the two, or an id, text or context
    # that is not a string, exits 2 naming the file and line, as --in or as
    # --shots-from.
    @pytest.mark.parametrize("fields", [{"label": "falso"}, {"text": 5}, {"context": ["busca"]}, {"id": 7}],
                             ids=["label-falso", "text-int", "context-list", "id-int"])
    @pytest.mark.parametrize("option", ["--in", "--shots-from"])
    def test_bad_instance_exits_2_and_names_the_line(self, pipeline, tmp_path, capsys, fields, option):
        good = {"id": "x", "text": "t", "label": "fake"}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n" + json.dumps({**good, **fields}) + "\n", encoding="utf-8")
        files = {"--in": pipeline["splits"] / "test.jsonl", "--shots-from": pipeline["splits"] / "train.jsonl",
                 option: bad}
        assert main(["evaluate", *(arg for pair in files.items() for arg in map(str, pair)),
                     "--out", str(tmp_path / "out" / "r.json"), "--provider", "fixture",
                     "--fixtures", str(CASSETTES)]) == 2
        assert f"error: {bad}:2: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]

    # Records are looked up by id downstream (validate's decisions, dedup's
    # clusters, evaluate's shot exclusion), where one of two records with one
    # id would be lost: a line whose id repeats an earlier line's exits 2
    # naming the file, the line and the id, in every subcommand that reads it.
    @pytest.mark.parametrize("content,argv", [
        pytest.param("".join(json.dumps({"id": "x", "corpus": "covid19br", "label": label, "text": text}) + "\n"
                             for label, text in (("fake", "um texto"), ("true", "outro texto"))),
                     argv, id=f"news-{argv[0]}")
        for argv in (["validate", "--in", "{bad}", "--out", "{out}/v.jsonl"],
                     ["validate", "--in", "{bad}", "--out", "{out}/v.jsonl", "--decisions", "{keep}"],
                     ["dedup", "--in", "{bad}", "--out", "{out}/c.jsonl"],
                     ["split", "--in", "{bad}", "--out-dir", "{out}"],
                     ["analyze", "--in", "{bad}", "--out", "{out}/a.json"],
                     ["build-config", "--in", "{bad}", "--out", "{out}/i.jsonl", "--kind", "validated"])
    ] + [
        pytest.param(ENRICHED_LINE.replace("{fields}", '"claim": "c"') + ENRICHED_LINE.replace(", {fields}", ""),
                     argv, id=f"enriched-{argv[0]}")
        for argv in (["analyze", "--in", "{bad}", "--out", "{out}/a.json"],
                     ["build-config", "--in", "{bad}", "--out", "{out}/i.jsonl", "--kind", "enriched_full"])
    ] + [
        pytest.param('{"id": "x", "text": "um", "label": "fake"}\n{"id": "x", "text": "dois", "label": "true"}\n',
                     ["evaluate", *files, "--out", "{out}/r.json", "--provider", "fixture", "--fixtures", str(CASSETTES)],
                     id=f"evaluate-{name}")
        for name, files in (("in", ["--in", "{bad}", "--shots-from", "{train}"]),
                            ("shots-from", ["--in", "{test}", "--shots-from", "{bad}"]))
    ])
    def test_repeated_id_exits_2_and_names_the_line(self, pipeline, tmp_path, capsys, content, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(content, encoding="utf-8")
        keep = tmp_path / "keep.jsonl"
        keep.write_text(json.dumps({"id": "rev-0001", "kind": "random_inspection", "record_ids": ["x"],
                                    "decision": {"action": "keep"}}) + "\n", encoding="utf-8")
        paths = {"bad": bad, "keep": keep, "out": tmp_path / "out", "train": pipeline["splits"] / "train.jsonl",
                 "test": pipeline["splits"] / "test.jsonl"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert f"error: {bad}:2: id 'x' repeats line 1's" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad, keep]

    def test_decisions_with_an_external_conflict_without_a_label_exit_2(self, tmp_path, capsys):
        decisions = tmp_path / "decisions.jsonl"
        decisions.write_text(json.dumps({
            "id": "rev-0001", "kind": "external_label_conflict", "record_ids": ["cv_0007"], "suggestion": "relabel",
            "context": {}, "decision": {"action": "keep"},
        }) + "\n", encoding="utf-8")
        assert main(["validate", "--in", CORPUS, "--out", str(tmp_path / "v"), "--decisions", str(decisions)]) == 2
        assert f"error: {decisions}:1: " in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [decisions]

    def test_result_link_that_urlsplit_refuses_counts_as_invalid(self, tmp_path):
        enriched = tmp_path / "e.jsonl"
        enriched.write_text(ENRICHED_LINE.replace("{fields}", '"initial_results": [{"rank": 1, "link": "http://[x"}]'),
                            encoding="utf-8")
        out = tmp_path / "a.json"
        assert main(["analyze", "--in", str(enriched), "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["domains"] == {"invalid": 1}


class TestRefusedOptions:
    """An option value no run can use exits 2 naming the option, before any
    handler runs, so nothing is written: an empty value, a NUL byte (here
    from a command-line word and from an option-file line), a value that is
    not UTF-8, an --out that names no file, and a number out of range."""

    @pytest.mark.parametrize("argv,option", [
        (["dedup", "--in", CORPUS, "--out", "a\0b.jsonl"], "--out"),
        (["dedup", "--in", CORPUS, "@{args}"], "--out"),
        (["dedup", "--in", CORPUS, "--out", ""], "--out"),
        (["dedup", "--in", CORPUS, "--out", "/"], "--out"),
        (["dedup", "--in", CORPUS, "--out", "."], "--out"),
        (["dedup", "--in", CORPUS, "--out", "c\udcff.jsonl"], "--out"),
        (["dedup", "--in", "", "--out", "c.jsonl"], "--in"),
        (["split", "--in", CORPUS, "--out-dir", ""], "--out-dir"),
        (["validate", "--in", CORPUS, "--out", "v.jsonl", "--decisions", ""], "--decisions"),
        (["validate", "--in", CORPUS, "--out", "v.jsonl", "--incomplete-ids", ""], "--incomplete-ids"),
        (["analyze", "--in", CORPUS, "--out", "a.json", "--clusters", ""], "--clusters"),
        (["enrich", "--in", CORPUS, "--out", "e.jsonl", "--provider", "fixture", "--fixtures", str(CASSETTES),
          "--cache", ""], "--cache"),
        # A number out of its option's range: a gate that NaN or infinity
        # switches off, or that a negative share makes fail every run, and a
        # sample that would silently draw nothing.
        *[(["enrich", "--in", CORPUS, "--out", "e.jsonl", "--provider", "fixture", "--fixtures", str(CASSETTES),
            "--max-error-rate", rate], "--max-error-rate") for rate in ("nan", "inf", "-1", "1.5")],
        (["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--out", "r.json", "--provider", "fixture",
          "--fixtures", str(CASSETTES), "--max-error-rate", "-0.1"], "--max-error-rate"),
        (["validate", "--in", CORPUS, "--out", "v.jsonl", "--sample-size", "-3"], "--sample-size"),
    ], ids=["nul", "nul-from-option-file", "out-empty", "out-root", "out-dot", "out-not-utf8", "in-empty",
            "out-dir-empty", "decisions-empty", "incomplete-ids-empty", "clusters-empty", "cache-empty",
            "enrich-rate-nan", "enrich-rate-inf", "enrich-rate-negative",
            "enrich-rate-above-1", "evaluate-rate-negative", "sample-size-negative"])
    def test_refused_value_exits_2_and_names_the_option(self, tmp_path, monkeypatch, capsys, argv, option):
        args = tmp_path / "nul.args"
        args.write_bytes(b"--out=a\0b.jsonl\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)  # a relative or empty path lands here
        assert main([arg.format(args=args) for arg in argv]) == 2
        assert f"error: {option} " in capsys.readouterr().err
        assert list(work.iterdir()) == []


def enrich_failures(out):
    """The injected provider failures an enrich run recorded on its records."""
    return [e for rec in read_enriched(out) for e in rec.errors if e.kind == "provider_failure" and "injected" in e.detail]


def validate_failures(out):
    """The records a validate run could not cross-check."""
    return json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8")).get("external_check_failed", [])


def evaluate_failures(out):
    """The injected provider failures an evaluate run recorded."""
    errors = json.loads(Path(out).read_text(encoding="utf-8"))["provider_errors"]
    return [e for e in errors if "injected" in e["detail"]]


FIXTURE = ["--provider", "fixture", "--fixtures", str(CASSETTES)]
VALIDATE = ["validate", "--in", CORPUS, "--out", "{out}"]
ENRICH = ["enrich", "--in", "{validated}", "--out", "{out}"]
EVALUATE = ["evaluate", "--in", "{test}", "--shots-from", "{train}", "--out", "{out}", *FIXTURE]

# (id, owner, attribute, run, where the run records a ProviderFailure; None
# when the seam is no provider). Under --provider live the transport raises
# no OSError, which the backend retries with real sleeps.
FAULT_SEAMS = [
    ("detector-validate", langid.TrigramDetector, "detect", VALIDATE, None),
    ("fixture-fetch-validate", FixtureBackend, "fetch", VALIDATE + FIXTURE, validate_failures),
    ("fixture-fetch-enrich", FixtureBackend, "fetch", ENRICH + FIXTURE, enrich_failures),
    ("fixture-fetch-evaluate", FixtureBackend, "fetch", EVALUATE, evaluate_failures),
    ("transport-enrich", providers, "_requests_transport", ENRICH + ["--provider", "live"], enrich_failures),
    ("generate-enrich", enrichment, "llm_generate", ENRICH + FIXTURE, enrich_failures),
    ("generate-evaluate", providers, "llm_generate", EVALUATE, evaluate_failures),
]


class TestFaultInjection:
    """One seam at a time raises. A ProviderFailure is recorded and the run
    exits 0; a ValueError or TypeError is a bug, and leaves ``main`` with
    its traceback rather than exiting 2 as if the input were bad."""

    @pytest.mark.parametrize("owner,attribute,run,recorded,exc", [
        pytest.param(owner, attribute, run, recorded, exc, id=f"{name}-{exc.__name__}")
        for name, owner, attribute, run, recorded in FAULT_SEAMS
        for exc in (ProviderFailure, ValueError, TypeError) if recorded or exc is not ProviderFailure
    ])
    def test_seam_fault(self, pipeline, tmp_path, monkeypatch, owner, attribute, run, recorded, exc):
        def fail(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(owner, attribute, fail)
        for name in (providers.ENV_SEARCH_KEY, providers.ENV_SEARCH_CX, providers.ENV_FACTCHECK_KEY,
                     providers.ENV_LLM_KEY):
            monkeypatch.setenv(name, "dummy")
        out = tmp_path / "out"
        argv = [arg.format(out=out, validated=pipeline["validated"], test=pipeline["splits"] / "test.jsonl",
                           train=pipeline["splits"] / "train.jsonl") for arg in run]
        if exc is ProviderFailure:
            assert main(argv) == 0
            assert recorded(out)
        else:
            with pytest.raises(exc, match="injected"):
                main(argv)


class TestValidateInputs:
    def test_review_skeleton_feeds_back_as_decisions(self, pipeline, tmp_path):
        out = tmp_path / "v.jsonl"
        assert main(["validate", "--in", CORPUS, "--out", str(out), "--decisions", str(pipeline["skeleton"])]) == 0
        report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
        assert report["removed"]["contradiction_resolution"] == ["cv_0009", "cv_0010", "cv_0011", "cv_0012"]
        assert report["removal_reasons"]["cv_0009"] == "decision:near_dup_conflict"
        assert report["removal_reasons"]["cv_0011"] == "decision:shared_url_conflict"
        assert report["output_count"] == len(read_news(out)) == 26
        assert str(pipeline["skeleton"]) in load_manifest(f"{out}.manifest.json")["input_hashes"]

    # The skeleton's second line with ``fields`` changed, and what follows
    # ``<file>:2: `` in the error.
    @pytest.mark.parametrize("fields,message", [
        ({"decision": {"action": "ban"}}, "review rev-0002: unknown action 'ban'"),
        ({"decision": "remove"}, "review rev-0002: decision must be an object"),
        ({"decision": {"action": "remove", "ids": "cv_0011"}},
         "review rev-0002: decision ids must be a list of strings"),
        ({"decision": {"action": "remove", "ids": ""}}, "review rev-0002: decision ids must be a list of strings"),
        ({"decision": {"action": "remove", "ids": []}}, "review rev-0002: decision ids name no record"),
        ({"id": "rev-0001"}, "id 'rev-0001' repeats line 1's"),
    ], ids=["unknown-action", "not-an-object", "ids-string", "ids-empty-string", "ids-empty-list", "repeated-id"])
    def test_bad_decision_exits_2_and_names_the_line(self, pipeline, tmp_path, capsys, fields, message):
        first, second = Path(pipeline["skeleton"]).read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "decisions.jsonl"
        bad.write_text(first + "\n" + json.dumps({**json.loads(second), **fields}) + "\n", encoding="utf-8")
        assert main(["validate", "--in", CORPUS, "--out", str(tmp_path / "v.jsonl"), "--decisions", str(bad)]) == 2
        assert f"error: {bad}:2: {message}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_incomplete_ids_remove_the_record_and_its_pair(self, tmp_path):
        ids = tmp_path / "incomplete.txt"
        ids.write_text("fake_0001\n\n", encoding="utf-8")
        out = tmp_path / "v.jsonl"
        assert main(["validate", "--in", CORPUS, "--out", str(out), "--incomplete-ids", str(ids)]) == 0
        report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
        assert report["removal_reasons"]["fake_0001"] == "truncated_source"
        assert report["removal_reasons"]["true_0001"] == "pair_member_removed"
        kept = {item.id for item in read_news(out)}
        assert len(kept) == 28 and not kept & {"fake_0001", "true_0001"}
        assert str(ids) in load_manifest(f"{out}.manifest.json")["input_hashes"]

    def test_external_label_skeleton_relabels_as_written(self, tmp_path):
        # cv_0007 is stored as true; the one fact-check recorded for its query rates it false.
        corpus = tmp_path / "corpus.jsonl"
        line = next(line for line in Path(CORPUS).read_text(encoding="utf-8").splitlines() if '"cv_0007"' in line)
        corpus.write_text(line + "\n", encoding="utf-8")
        query, _ = textprep.build_query(json.loads(line)["text"])
        fixtures = tmp_path / "fixtures"
        providers.write_cassette(fixtures, providers.KIND_FACTCHECK, providers.FactCheckRequest(query).payload(), {
            "claims": [{"text": query, "claimReview": [{"publisher": {"name": "Agência", "site": "agencia.br"},
                                                        "textualRating": "Falso", "url": "https://agencia.br/1"}]}],
        })
        fixture = ["--provider", "fixture", "--fixtures", str(fixtures)]
        first, out = tmp_path / "first.jsonl", tmp_path / "v.jsonl"
        skeleton = tmp_path / "decisions.jsonl"
        assert main(["validate", "--in", str(corpus), "--out", str(first), *fixture]) == 0
        assert main(["review", "--queue", f"{first}.review.jsonl", "--out", str(skeleton)]) == 0
        assert [item["kind"] for item in map(json.loads, skeleton.read_text(encoding="utf-8").splitlines())] == [
            "external_label_conflict"]
        assert main(["validate", "--in", str(corpus), "--out", str(out), "--decisions", str(skeleton), *fixture]) == 0
        report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
        assert report["corrected"]["external_label_check"] == [
            {"id": "cv_0007", "field": "label", "old": "true", "new": "fake", "reason": "external_label_conflict"},
        ]
        assert {item.id: item.label for item in read_news(out)}["cv_0007"] == "fake"

    # The fixture corpus's queue, and a decision for each of its items.
    UNDECIDED = [{"id": "rev-0001", "kind": "near_dup_conflict", "record_ids": ["cv_0009", "cv_0010"]},
                 {"id": "rev-0002", "kind": "shared_url_conflict", "record_ids": ["cv_0011", "cv_0012"]}]
    DECIDED = [{**item, "decision": {"action": "remove"}} for item in UNDECIDED]
    FAKE_0001 = {"id": "rev-9999", "kind": "random_inspection", "record_ids": ["fake_0001"],
                 "decision": {"action": "remove"}}

    # A decisions file that does not answer the run's own queue item for
    # item exits 2, lists each problem on stderr and writes nothing.
    @pytest.mark.parametrize("decided,problems", [
        ([{**FAKE_0001, "id": "rev-0001"}, DECIDED[1]],
         ["decision rev-0001 is a random_inspection on ['fake_0001'], "
          "but queue item rev-0001 is a near_dup_conflict on ['cv_0009', 'cv_0010']"]),
        ([UNDECIDED[0], DECIDED[1]], ["decision field still empty on rev-0001"]),
        ([DECIDED[1]], ["no decision for queue item rev-0001"]),
        ([*DECIDED, {**FAKE_0001, "id": "rev-0003"}], ["no queue item for decision rev-0003"]),
        # Applied unchecked, it would remove fake_0001, and the orphan sweep its pair partner.
        ([FAKE_0001], ["no decision for queue item rev-0001", "no decision for queue item rev-0002",
                       "no queue item for decision rev-9999"]),
    ], ids=["other-records", "empty-decision", "missing-item", "not-in-queue", "only-off-the-queue"])
    def test_decision_off_the_queue_exits_2_and_names_it(self, tmp_path, capsys, decided, problems):
        decisions = tmp_path / "decisions.jsonl"
        decisions.write_text("".join(json.dumps(item) + "\n" for item in decided), encoding="utf-8")
        assert main(["validate", "--in", CORPUS, "--out", str(tmp_path / "v"), "--decisions", str(decisions)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [*problems, f"error: {decisions}: {len(problems)} problem(s), listed above"]
        assert sorted(tmp_path.iterdir()) == [decisions]

    def test_stage_table_is_aligned(self, tmp_path, capsys):
        from evidencia.validation import STAGES

        assert main(["validate", "--in", CORPUS, "--out", str(tmp_path / "v.jsonl")]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        for stage in STAGES:
            assert re.fullmatch(r"\S+\s+\d+", lines.get(stage, "")), stage

    def test_missing_incomplete_ids_file_exits_2_and_names_it(self, tmp_path, capsys):
        missing = tmp_path / "incomplete.txt"
        out = tmp_path / "v.jsonl"
        assert main(["validate", "--in", CORPUS, "--out", str(out), "--incomplete-ids", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()


def _seam_argv(subcommand, paths, out):
    """Arguments that run ``subcommand`` on the fixture chain's files."""
    fixtures = ["--provider", "fixture", "--fixtures", str(CASSETTES)]
    return {
        "validate": ["validate", "--in", CORPUS, "--out", str(out / "v.jsonl")],
        "dedup": ["dedup", "--in", CORPUS, "--out", str(out / "c.jsonl")],
        "enrich": ["enrich", "--in", str(paths["validated"]), "--out", str(out / "e.jsonl"), *fixtures],
        "analyze": ["analyze", "--in", str(paths["enriched"]), "--out", str(out / "a.json")],
        "split": ["split", "--in", str(paths["validated"]), "--out-dir", str(out / "s")],
        "build-config": ["build-config", "--in", str(paths["enriched"]), "--out", str(out / "i.jsonl"),
                         "--kind", "enriched_filtered"],
        "evaluate": ["evaluate", "--in", str(paths["splits"] / "test.jsonl"),
                     "--shots-from", str(paths["splits"] / "train.jsonl"),
                     "--out", str(out / "r.json"), *fixtures],
    }[subcommand]


# Each name the benchmark's tracer wraps on the cli module, and a subcommand
# whose handler calls it.
TRACER_SEAMS = {
    "near_duplicates": "dedup",
    "run_validation": "validate",
    "write_review_items": "validate",
    "enrich_one": "enrich",
    "few_shot_classify": "evaluate",
    "split": "split",
    "build_config": "build-config",
    "_read_instances": "evaluate",
    "read_news": "split",
    "read_enriched": "analyze",
    "write_news": "split",
    "write_enriched": "enrich",
    "_write_jsonl": "dedup",
}


class TestTracerSeams:
    @pytest.mark.parametrize("name,subcommand", sorted(TRACER_SEAMS.items()))
    def test_handler_calls_the_patched_name(self, pipeline, tmp_path, monkeypatch, name, subcommand):
        original = getattr(cli, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        assert main(_seam_argv(subcommand, pipeline, tmp_path)) == 0
        assert calls


def test_tracer_finds_every_name_it_wraps():
    """bench/tracer.py wraps names across the library; a renamed or removed
    one breaks the benchmark, so each must still be there."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = []

    class Checking(tracer.Tracer):
        def patch(self, owner, attr, name, observe=None):
            assert hasattr(owner, attr), f"{owner.__name__}.{attr} ({name}) is gone"
            wrapped.append(name)

    tracer.install(Checking())
    assert "providers.request_hash" in wrapped and "evalkit.few_shot_classify" in wrapped


class TestEvaluateHashing:
    def test_each_prompt_head_is_encoded_once(self, tmp_path, monkeypatch):
        def write(path, ids):
            path.write_text("".join(json.dumps({"id": i, "text": f"Texto {i}.", "label": ("fake", "true")[n % 2],
                                                "context": "busca" if n % 3 else ""}) + "\n"
                                    for n, i in enumerate(ids)), encoding="utf-8")

        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        write(train, [f"t{n:02d}" for n in range(20)])
        write(test, [f"x{n:02d}" for n in range(12)])
        encoded, fetched = [], []
        canonical, fetch = providers._canonical, FixtureBackend.fetch
        monkeypatch.setattr(providers, "_canonical",
                            lambda kind, payload: encoded.append(kind) or canonical(kind, payload))
        monkeypatch.setattr(FixtureBackend, "fetch", lambda self, kind, payload, digest=None:
                            fetched.append((kind, payload, digest)) or fetch(self, kind, payload, digest))
        assert main(["evaluate", "--in", str(test), "--shots-from", str(train), "--out", str(tmp_path / "r.json"),
                     *FIXTURE]) == 0
        assert encoded == [providers.KIND_LLM] * 2  # one head with the context clause, one without
        assert len(fetched) == 12
        monkeypatch.undo()
        assert all(digest == providers.request_hash(kind, payload) for kind, payload, digest in fetched)


class TestBrokenCassettes:
    def enrich(self, pipeline, out, fixtures, *extra):
        return main(["enrich", "--in", str(pipeline["validated"]), "--out", str(out),
                     "--provider", "fixture", "--fixtures", str(fixtures), *extra])

    def test_cut_cache_entry_is_fetched_again_and_rewritten(self, pipeline, tmp_path):
        cache = tmp_path / "cache"
        log = cache / LOG_NAME
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert self.enrich(pipeline, first, CASSETTES, "--cache", str(cache)) == 0
        whole = log.read_bytes()
        last = whole.splitlines(keepends=True)[-1]
        cut = whole[: len(whole) - len(last) + 100]  # as a run killed mid-write leaves it
        log.write_bytes(cut)
        assert self.enrich(pipeline, second, CASSETTES, "--cache", str(cache)) == 0
        assert second.read_bytes() == first.read_bytes()
        # Nothing is rewritten in place: the cut line is closed by a newline
        # and its request is appended again whole.
        assert log.read_bytes() == cut + b"\n" + last
        lines = log.read_bytes().split(b"\n")
        assert lines[-1] == b""
        unparsed = []
        for line in lines[:-1]:
            try:
                json.loads(line)
            except ValueError:
                unparsed.append(line)
        assert unparsed == [cut.rsplit(b"\n", 1)[-1]]

    def test_cut_fixture_exits_2_and_names_the_file(self, pipeline, tmp_path, capsys):
        fixtures = tmp_path / "cassettes"
        fixtures.mkdir()
        lines = (CASSETTES / LOG_NAME).read_bytes().splitlines(keepends=True)
        (fixtures / LOG_NAME).write_bytes(b"".join(line[:100] + b"\n" for line in lines))
        out = tmp_path / "e.jsonl"
        assert self.enrich(pipeline, out, fixtures) == 2
        assert f"{fixtures / LOG_NAME}:1: " in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def run_on(subcommand, pipeline, out, fixtures):
        argv = {
            "enrich": ["enrich", "--in", str(pipeline["validated"])],
            "evaluate": ["evaluate", "--in", str(pipeline["splits"] / "test.jsonl"),
                         "--shots-from", str(pipeline["splits"] / "train.jsonl")],
        }[subcommand]
        return main([*argv, "--out", str(out), "--provider", "fixture", "--fixtures", str(fixtures)])

    @pytest.mark.parametrize("subcommand", ["enrich", "evaluate"])
    @pytest.mark.parametrize("kind", ["llm", "web_search"])
    def test_one_cut_line_fails_before_any_record(self, pipeline, tmp_path, capsys, kind, subcommand):
        # Whichever request the cut line recorded, and whether or not this
        # subcommand would send it, the run stops before it writes anything.
        fixtures = tmp_path / "cassettes"
        fixtures.mkdir()
        lines = (CASSETTES / LOG_NAME).read_bytes().splitlines(keepends=True)
        cut = next(n for n, line in enumerate(lines) if json.loads(line)["kind"] == kind)
        lines[cut] = lines[cut][:100] + b"\n"
        (fixtures / LOG_NAME).write_bytes(b"".join(lines))
        out = tmp_path / "out" / "result"
        assert self.run_on(subcommand, pipeline, out, fixtures) == 2
        assert f"{fixtures / LOG_NAME}:{cut + 1}: " in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("subcommand", ["enrich", "evaluate"])
    def test_directory_without_a_log_exits_2_and_names_it(self, pipeline, tmp_path, capsys, subcommand):
        # The older per-file layout is not read: without the log there is nothing to replay.
        fixtures = tmp_path / "cassettes"
        fixtures.mkdir()
        (fixtures / f"{'0' * 64}.json").write_text('{"body": {"items": []}}', encoding="utf-8")
        out = tmp_path / "out" / "result"
        assert self.run_on(subcommand, pipeline, out, fixtures) == 2
        assert str(fixtures / LOG_NAME) in capsys.readouterr().err
        assert not out.parent.exists()


class TestConfigFile:
    """Settings kept in a file are argparse option files: ``@FILE`` after the
    subcommand, one argument per line."""

    @staticmethod
    def option_file(tmp_path, *lines):
        path = tmp_path / "run.args"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return f"@{path}"

    @staticmethod
    def exits_2(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code == 2

    def test_file_value_applies_and_flag_wins(self, tmp_path):
        def queue_kinds(out):
            lines = Path(f"{out}.review.jsonl").read_text(encoding="utf-8").splitlines()
            return [json.loads(line)["kind"] for line in lines]

        args = self.option_file(tmp_path, "--sample-size=3")
        out_file = tmp_path / "sampled.jsonl"
        assert main(["validate", args, "--in", CORPUS, "--out", str(out_file)]) == 0
        assert queue_kinds(out_file).count("random_inspection") == 3
        assert load_manifest(f"{out_file}.manifest.json")["config"]["sample_size"] == 3

        out_flag = tmp_path / "unsampled.jsonl"
        assert main(["validate", args, "--in", CORPUS, "--out", str(out_flag), "--sample-size", "0"]) == 0
        assert "random_inspection" not in queue_kinds(out_flag)

    def test_unknown_config_key(self, tmp_path, capsys):
        args = self.option_file(tmp_path, "--bogus-key=1")
        assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert "unrecognized arguments: --bogus-key=1" in capsys.readouterr().err

    def test_other_subcommands_option_exits_2(self, tmp_path, capsys):
        # A file written for split is not silently half-read by validate.
        args = self.option_file(tmp_path, "--seed=1", "--out-dir=splits")
        assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert "unrecognized arguments: --out-dir=splits" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    # Settings removed because they only let a run contradict the procedure
    # or another subcommand: (subcommand arguments, flag).
    @pytest.mark.parametrize("argv,flag", [
        (["dedup", "--in", CORPUS], ["--threshold", "0.5"]),
        (["dedup", "--in", CORPUS], ["--shingle-size", "3"]),
        (["dedup", "--in", CORPUS], ["--permutations", "50"]),
        (["dedup", "--in", CORPUS], ["--bands", "10"]),
        (["enrich", "--in", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)],
         ["--max-claim-words", "5"]),
        (["split", "--in", CORPUS], ["--no-pair-preserving"]),
        # The split's shares, the language filter's confidence and the
        # short-text floor are constants.
        (["split", "--in", CORPUS], ["--train", "0.7"]),
        (["split", "--in", CORPUS], ["--val", "0.2"]),
        (["split", "--in", CORPUS], ["--test", "0.2"]),
        (["validate", "--in", CORPUS], ["--auto-remove-confidence", "0.9"]),
        (["validate", "--in", CORPUS], ["--min-content-tokens", "0"]),
        (["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)],
         ["--cache-mode", "read_only"]),
        (["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)],
         ["--cache-mode", "bypass"]),
        # Sidecar paths come from --out, as the manifest's does.
        (["validate", "--in", CORPUS], ["--report-out", "report.json"]),
        (["validate", "--in", CORPUS], ["--review-out", "review.jsonl"]),
        (["enrich", "--in", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)],
         ["--stats-out", "stats.json"]),
        (["analyze", "--in", CORPUS], ["--text-out", "report.txt"]),
        (["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)],
         ["--predictions-out", "predictions.jsonl"]),
        # The paper's generation model is a constant.
        (["enrich", "--in", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)], ["--model", "x"]),
        (["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--provider", "fixture", "--fixtures", str(CASSETTES)],
         ["--model", "x"]),
        # validate --decisions checks a decisions file against the queue it builds.
        (["review", "--queue", CORPUS], ["--decisions", "decisions.jsonl"]),
    ], ids=["threshold", "shingle-size", "permutations", "bands", "max-claim-words", "pair-preserving",
            "train", "val", "test", "auto-remove-confidence", "min-content-tokens", "cache-mode-read-only",
            "cache-mode-bypass", "report-out", "review-out", "stats-out", "text-out", "predictions-out",
            "enrich-model", "evaluate-model", "review-decisions"])
    def test_removed_setting_exits_2(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)  # a relative path in ``flag`` lands here
        out = ["--out-dir" if argv[0] == "split" else "--out", str(tmp_path / "out")]
        assert self.exits_2([*argv, *out, *flag])
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert self.exits_2([*argv, *out, self.option_file(tmp_path, *flag)])
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["run.args"]

    def test_bad_config_value(self, tmp_path, capsys):
        args = self.option_file(tmp_path, "--sample-size=muitos")
        assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert "invalid int value: 'muitos'" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        # Each line is one argument, so neither the old ``key = value`` form,
        # nor a blank line, nor a comment is read as a setting.
        for line in ("sample-size = 3", "", "# comment"):
            args = self.option_file(tmp_path, "--seed=1", line)
            assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")]), line
        assert not (tmp_path / "o.jsonl").exists()

    def test_missing_option_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "run.args"
        assert self.exits_2(["validate", f"@{missing}", "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert str(missing) in capsys.readouterr().err

    # An option file is UTF-8 whatever the locale; one that is not exits 2
    # naming the file and line, also when another option file names it.
    @pytest.mark.parametrize("nested", [False, True], ids=["file", "named-by-a-file"])
    def test_option_file_not_utf8_exits_2_and_names_it(self, tmp_path, capsys, nested):
        bad = tmp_path / "bad.args"
        bad.write_bytes(b"--out-dir=splits\n--seed=\xff\n")
        arg = self.option_file(tmp_path, f"@{bad}") if nested else f"@{bad}"
        assert self.exits_2(["split", arg, "--in", CORPUS])
        assert f"{bad}:2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert {path.name for path in tmp_path.iterdir()} == ({"bad.args", "run.args"} if nested else {"bad.args"})

    # An option file that includes itself, directly or through another,
    # would be expanded without end.
    @pytest.mark.parametrize("includes", [{"a": "a"}, {"a": "b", "b": "a"}], ids=["itself", "two-file-cycle"])
    def test_option_file_that_includes_itself_exits_2(self, tmp_path, capsys, includes):
        for name, other in includes.items():
            (tmp_path / f"{name}.args").write_text(f"--seed=1\n@{tmp_path / other}.args\n", encoding="utf-8")
        assert self.exits_2(["split", f"@{tmp_path / 'a.args'}", "--in", CORPUS, "--out-dir", str(tmp_path / "s")])
        assert f"{tmp_path / 'a.args'} includes itself" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_option_file_read_twice_in_a_row(self, tmp_path):
        inner = self.option_file(tmp_path, "--seed=1")
        outer = tmp_path / "outer.args"
        outer.write_text(f"{inner}\n{inner}\n", encoding="utf-8")
        out = tmp_path / "s"
        assert main(["split", f"@{outer}", inner, "--in", CORPUS, "--out-dir", str(out)]) == 0
        assert load_manifest(out / "manifest.json")["config"]["seed"] == 1

    def test_config_flag_exits_2(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("sample-size = 3\n", encoding="utf-8")
        assert self.exits_2(["--config", str(conf), "validate", "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])


class TestEnrichModes:
    def test_parallel_matches_serial(self, pipeline, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for out, workers in ((serial, "1"), (parallel, "3")):
            assert main(["enrich", "--in", str(pipeline["validated"]), "--out", str(out),
                         "--provider", "fixture", "--fixtures", str(CASSETTES),
                         "--parallelism", workers]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_cache_layer_populated(self, pipeline, tmp_path):
        cache = tmp_path / "cache"
        out = tmp_path / "cached.jsonl"
        assert main(["enrich", "--in", str(pipeline["validated"]), "--out", str(out),
                     "--provider", "fixture", "--fixtures", str(CASSETTES),
                     "--cache", str(cache)]) == 0
        assert [path.name for path in cache.iterdir()] == [LOG_NAME]
        manifest = load_manifest(f"{out}.manifest.json")
        assert manifest["cache_hash"]

    def enrich_cached(self, pipeline, out, cache, *extra):
        return main(["enrich", "--in", str(pipeline["validated"]), "--out", str(out),
                     "--provider", "fixture", "--fixtures", str(CASSETTES), "--cache", str(cache), *extra])

    @staticmethod
    def logged_hashes(cache):
        lines = (cache / LOG_NAME).read_bytes().split(b"\n")
        assert lines.pop() == b""  # every line, the last included, is whole
        return [json.loads(line)["request_hash"] for line in lines]

    def test_rerun_with_the_cache_fetches_nothing_it_logged(self, pipeline, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert self.enrich_cached(pipeline, first, cache) == 0
        logged = set(self.logged_hashes(cache))
        fetched = []
        real_fetch = FixtureBackend.fetch

        def counting_fetch(self, kind, payload, digest=None):
            fetched.append(digest)
            return real_fetch(self, kind, payload, digest)

        monkeypatch.setattr(FixtureBackend, "fetch", counting_fetch)
        assert self.enrich_cached(pipeline, second, cache) == 0
        assert logged and not logged & set(fetched)
        assert second.read_bytes() == first.read_bytes()

    def test_parallel_cache_log_matches_serial(self, pipeline, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert self.enrich_cached(pipeline, tmp_path / "s.jsonl", serial) == 0
        assert self.enrich_cached(pipeline, tmp_path / "p.jsonl", parallel, "--parallelism", "4") == 0
        assert set(self.logged_hashes(parallel)) == set(self.logged_hashes(serial))
        assert (tmp_path / "p.jsonl").read_bytes() == (tmp_path / "s.jsonl").read_bytes()


def readme_commands():
    """Every ``evidencia`` command in README's shell blocks, with ``\\``
    continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [line
            for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("evidencia ")]


def readme_table_rows():
    """README's subcommand table: each row's line, keyed by its subcommand."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return {match[1]: match[0] for match in re.finditer(r"^\| `([a-z-]+)` \|.*$", text, re.MULTILINE)}


class TestReadme:
    def test_every_option_is_in_its_subcommands_row(self):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        defined = {
            name: {flag for action in sub._actions for flag in action.option_strings if flag not in ("-h", "--help")}
            for name, sub in subparsers.choices.items()
        }
        named = {name: set(re.findall(r"`(--[a-z-]+)`", row)) for name, row in readme_table_rows().items()}
        assert named == defined

    def test_every_command_parses(self, capsys):
        commands = [shlex.split(command, comments=True) for command in readme_commands()]
        assert {argv[1] for argv in commands} == set(cli.HANDLERS)
        parser = cli.build_parser()
        rejected = []
        for argv in commands:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                rejected.append(shlex.join(argv))
        assert rejected == [], capsys.readouterr().err


# The evidencia modules, besides the package itself, that each run loads.
SUBCOMMAND_MODULES = {
    "validate": "cli clocks dedup langid records resources textprep validation",
    "validate --provider": "cli clocks dedup langid providers records resources textprep validation",
    "review": "cli clocks dedup langid records resources textprep validation",
    "dedup": "cli clocks dedup records resources",
    "enrich": "claims cli clocks enrichment matching providers records resources textprep",
    "analyze": "analytics cli clocks domains records resources textprep",
    "split": "cli clocks domains evalkit records resources",
    "build-config": "cli clocks domains evalkit records resources",
    "evaluate": "cli clocks domains evalkit providers records resources",
}


def _module_argv(run, paths, out):
    """Arguments for one run of ``SUBCOMMAND_MODULES`` on the fixture chain's files."""
    fixtures = ["--provider", "fixture", "--fixtures", str(CASSETTES)]
    return {
        "validate --provider": ["validate", "--in", CORPUS, "--out", str(out / "v.jsonl"), *fixtures],
        "review": ["review", "--queue", f"{paths['validated']}.review.jsonl", "--out", str(out / "d.jsonl")],
        "analyze": ["analyze", "--in", str(paths["enriched"]), "--clusters", str(paths["clusters"]),
                    "--out", str(out / "a.json")],
    }.get(run) or _seam_argv(run, paths, out)


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("evidencia") is None, reason="console script not on PATH")
    def test_version_flag(self):
        proc = subprocess.run(["evidencia", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "evidencia" in proc.stdout

    @staticmethod
    def project():
        tomllib = pytest.importorskip("tomllib")
        return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))

    def test_console_script_target_prints_the_version(self, monkeypatch, capsys):
        # What the installed ``evidencia`` script runs, without an install.
        module, _, name = self.project()["project"]["scripts"]["evidencia"].partition(":")
        monkeypatch.setattr(sys, "argv", ["evidencia", "--version"])
        with pytest.raises(SystemExit) as exc:
            getattr(importlib.import_module(module), name)()
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"evidencia {evidencia.__version__}\n"

    def test_every_resource_is_package_data(self):
        # A resource no package-data glob matches is read from src but left out of a wheel.
        package = ROOT / "src" / "evidencia"
        declared = {path.relative_to(package).as_posix()
                    for glob in self.project()["tool"]["setuptools"]["package-data"]["evidencia"]
                    for path in package.glob(glob)}
        assert {f"data/{name}" for name in resources.resource_names()} <= declared

    @staticmethod
    def run_fresh(*args, **env):
        env = {**os.environ, "PYTHONPATH": "src", **env}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env)

    def test_record_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        digests = []
        for seed in ("1", "2"):
            root = tmp_path / seed
            root.mkdir()
            for argv in chain(root)[1]:
                proc = self.run_fresh("-m", "evidencia.cli", *argv, PYTHONHASHSEED=seed)
                assert proc.returncode == 0, proc.stderr
            digests.append({name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in PIPELINE_DIGESTS})
        assert digests == [PIPELINE_DIGESTS, PIPELINE_DIGESTS]

    def test_module_version_flag(self):
        proc = self.run_fresh("-m", "evidencia.cli", "--version")
        assert proc.returncode == 0
        assert "evidencia" in proc.stdout

    def test_version_is_the_package_version(self):
        proc = self.run_fresh("-m", "evidencia.cli", "--version")
        assert proc.stdout.strip() == f"evidencia {evidencia.__version__}"
        project = self.project()
        assert "version" in project["project"]["dynamic"]
        assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "evidencia.__version__"}

    def modules_after(self, code):
        """Names in sys.modules after ``code`` runs in a fresh interpreter."""
        snapshot = "import json, sys; print(json.dumps(sorted(sys.modules)))"
        proc = self.run_fresh("-c", f"{code}\n{snapshot}")
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    def test_cli_import_leaves_numpy_unloaded(self):
        bare = self.modules_after("")
        loaded = self.modules_after("import evidencia.cli as cli; cli.build_parser()")
        own = {name for name in loaded if name.startswith("evidencia")}
        assert own == {"evidencia", "evidencia.cli", "evidencia.records"}
        for heavy in ("numpy", "importlib.metadata", "concurrent.futures", "logging"):
            assert heavy in bare or heavy not in loaded, heavy

    def test_validate_and_dedup_leave_numpy_unloaded(self, tmp_path):
        for subcommand in ("validate", "dedup"):
            argv = [subcommand, "--in", CORPUS, "--out", str(tmp_path / f"{subcommand}.jsonl")]
            loaded = self.modules_after(f"from evidencia.cli import main; assert main({argv!r}) == 0")
            assert "evidencia.dedup" in loaded, subcommand
            assert "numpy" not in loaded, subcommand

    def test_split_loads_only_its_modules(self, tmp_path):
        argv = ["split", "--in", CORPUS, "--out-dir", str(tmp_path / "s")]
        loaded = self.modules_after(f"from evidencia.cli import main; assert main({argv!r}) == 0")
        assert "evidencia.evalkit" in loaded
        for name in ("dedup", "validation", "langid", "enrichment", "claims", "analytics", "providers"):
            assert f"evidencia.{name}" not in loaded, name

    @pytest.mark.parametrize("run", sorted(SUBCOMMAND_MODULES))
    def test_subcommand_loads_exactly_its_modules(self, pipeline, tmp_path, run):
        argv = _module_argv(run, pipeline, tmp_path)
        loaded = self.modules_after(f"from evidencia.cli import main; assert main({argv!r}) == 0")
        own = {name.removeprefix("evidencia.") for name in loaded if name.startswith("evidencia.")}
        assert own == set(SUBCOMMAND_MODULES[run].split())

    def test_analyze_loads_none_of_the_enrichment_stack(self, pipeline, tmp_path):
        argv = ["analyze", "--in", str(pipeline["enriched"]), "--clusters", str(pipeline["clusters"]),
                "--out", str(tmp_path / "analysis.json")]
        loaded = self.modules_after(f"from evidencia.cli import main; assert main({argv!r}) == 0")
        assert "evidencia.analytics" in loaded
        for name in ("enrichment", "claims", "matching", "providers"):
            assert f"evidencia.{name}" not in loaded, name
        assert (tmp_path / "analysis.json").read_bytes() == Path(pipeline["analysis"]).read_bytes()

"""Command-line behavior: the full pipeline, option resolution, exit codes."""

import hashlib
import inspect
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
from evidencia import cli
from evidencia.cli import main
from evidencia.enrichment import FunnelStats
from evidencia.providers import LOG_NAME, FixtureBackend
from evidencia.evalkit import SplitSpec
from evidencia.records import read_enriched, read_news
from evidencia.validation import run_validation

from conftest import CASSETTES, FIXTURES, ROOT

CORPUS = str(FIXTURES / "corpus.jsonl")

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
    "analysis.json.manifest.json": "277a958369c0b925e565ad15142788033aef7c7892ce8879cd92e5f1d240be0e",
    "clusters.jsonl.manifest.json": "ac1300f3d278587bd9080145d2fd857ca40b9d2eef163fd61e7107636d8745f1",
    "decisions.jsonl.manifest.json": "a7379ff85d628a26d5d0d6f6372de93a8a1bb7e293cf12e21e8e07678f91cf0a",
    "enriched.jsonl.manifest.json": "e48d80f67d962cd7e38cf64fc249c5630fcfe4fbc74b38d72a21129ab8bb7126",
    "evaluation.json.manifest.json": "4cb02649dbc270d1093a73a9881ab4de9a147bb6d809aa3e9a95d3475cd33936",
    "instances.jsonl.manifest.json": "e387c66306b026dab09e958363139cbe0d3ad5aa9178810691e127d6921bb50a",
    "splits/manifest.json": "ae1cc68ddeaabacfe267c567d88acf83e2a85d941fb2176e3aea8f1b19bd039f",
    "validated.jsonl.manifest.json": "7509231265e8b7fbcfda37454fb54eb347fa74b59afa11365d2421f7d713a67f",
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


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole chain once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
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

    def test_review_check_mode_accepts_complete_file(self, pipeline, capsys):
        before = manifest_times(pipeline["validated"].parent)
        code = main(["review", "--queue", f"{pipeline['validated']}.review.jsonl",
                     "--decisions", str(pipeline["skeleton"])])
        assert code == 0
        assert "check out" in capsys.readouterr().out
        assert manifest_times(pipeline["validated"].parent) == before

    def test_review_check_mode_flags_missing_decision(self, pipeline, tmp_path, capsys):
        lines = Path(pipeline["skeleton"]).read_text(encoding="utf-8").strip().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text(lines[0] + "\n", encoding="utf-8")
        before = manifest_times(pipeline["validated"].parent)
        code = main(["review", "--queue", f"{pipeline['validated']}.review.jsonl",
                     "--decisions", str(partial)])
        assert code == 2
        assert "no decision for queue item" in capsys.readouterr().err
        assert manifest_times(pipeline["validated"].parent) == before
        assert manifest_times(tmp_path) == {}

    def test_enrich_outputs(self, pipeline):
        records = read_enriched(pipeline["enriched"])
        assert len(records) == 30
        stats = json.loads(Path(f"{pipeline['enriched']}.stats.json").read_text(encoding="utf-8"))
        assert stats == FunnelStats.from_records(records).to_dict()
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
        assert main(["enrich", "--in", CORPUS, "--out", str(tmp_path / "e.jsonl")]) == 2
        assert "needs --provider" in capsys.readouterr().err

    def test_fixture_provider_requires_directory(self, tmp_path, capsys):
        assert main(["enrich", "--in", CORPUS, "--out", str(tmp_path / "e.jsonl"),
                     "--provider", "fixture"]) == 2
        assert "--fixtures" in capsys.readouterr().err

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

    def test_review_takes_out_or_decisions_not_both(self, pipeline, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["review", "--queue", f"{pipeline['validated']}.review.jsonl",
                  "--out", str(other), "--decisions", str(pipeline["skeleton"])])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not other.exists()

    def test_review_needs_out_or_decisions(self, pipeline, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["review", "--queue", f"{pipeline['validated']}.review.jsonl"])
        assert exc.value.code == 2
        assert "one of the arguments --out --decisions is required" in capsys.readouterr().err

    def test_invalid_split_ratios(self, tmp_path, capsys):
        assert main(["split", "--in", CORPUS, "--out-dir", str(tmp_path / "s"),
                     "--train", "0.5", "--val", "0.1", "--test", "0.1"]) == 2
        assert "sum to 1" in capsys.readouterr().err

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
        ("[1]\n", ["review", "--queue", "{queue}", "--decisions", "{bad}"]),
        ("[1]\n", ["validate", "--in", CORPUS, "--out", "{out}", "--decisions", "{bad}"]),
        (None, ["validate", "--in", "{bad}", "--out", "{out}"]),
        ("", ["split", "--in", CORPUS, "--out-dir", "{bad}"]),
        ('{"members": 5}\n', ["analyze", "--in", "{enriched}", "--out", "{out}", "--clusters", "{bad}"]),
        ('{"id": "x", "corpus": "fakebr", "label": "fake", "text": "t", "extra": 5}\n',
         ["validate", "--in", "{bad}", "--out", "{out}"]),
        ('{"id": "rev-0001", "kind": "near_duplicate", "record_ids": 3}\n',
         ["review", "--queue", "{bad}", "--out", "{out}"]),
        (False, ["evaluate", "--in", "{train}", "--shots-from", "{bad}", "--out", "{out}",
                 "--provider", "fixture", "--fixtures", str(CASSETTES)]),
    ], ids=["clusters-no-members", "clusters-not-json", "analyze-not-json", "analyze-string",
            "evaluate-list", "build-config-list", "review-decisions-list", "validate-decisions-list",
            "validate-in-directory", "split-out-dir-file", "clusters-members-int", "validate-extra-int",
            "review-record-ids-int", "evaluate-shots-from-missing"])
    def test_malformed_input_exits_2_and_names_the_file(self, pipeline, tmp_path, capsys, content, argv):
        bad = tmp_path / "bad.jsonl"
        if content is None:
            bad.mkdir()
        elif content is not False:
            bad.write_text(content, encoding="utf-8")
        paths = {"bad": bad, "out": tmp_path / "out.json", "enriched": pipeline["enriched"],
                 "train": pipeline["splits"] / "train.jsonl",
                 "queue": f"{pipeline['validated']}.review.jsonl"}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert str(bad) in capsys.readouterr().err


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

    @pytest.mark.parametrize("decision,message", [
        ({"action": "ban"}, "unknown action 'ban'"),
        ("remove", "decision must be an object"),
    ], ids=["unknown-action", "not-an-object"])
    def test_bad_decision_exits_2_and_names_the_line(self, pipeline, tmp_path, capsys, decision, message):
        first, second = Path(pipeline["skeleton"]).read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "decisions.jsonl"
        bad.write_text(first + "\n" + json.dumps({**json.loads(second), "decision": decision}) + "\n",
                       encoding="utf-8")
        out = tmp_path / "v.jsonl"
        for argv in (["validate", "--in", CORPUS, "--out", str(out), "--decisions", str(bad)],
                     ["review", "--queue", f"{pipeline['validated']}.review.jsonl", "--decisions", str(bad)]):
            assert main(argv) == 2
            assert f"{bad}:2: review rev-0002: {message}" in capsys.readouterr().err
        assert not out.exists()

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
        queue = tmp_path / "queue.jsonl"
        queue.write_text(json.dumps({
            "id": "rev-0001", "kind": "external_label_conflict", "record_ids": ["cv_0007"],
            "suggestion": "relabel", "context": {"stored_label": "true", "external_bucket": "fake"},
        }) + "\n", encoding="utf-8")
        skeleton = tmp_path / "decisions.jsonl"
        assert main(["review", "--queue", str(queue), "--out", str(skeleton)]) == 0
        assert main(["review", "--queue", str(queue), "--decisions", str(skeleton)]) == 0
        out = tmp_path / "v.jsonl"
        assert main(["validate", "--in", CORPUS, "--out", str(out), "--decisions", str(skeleton)]) == 0
        report = json.loads(Path(f"{out}.report.json").read_text(encoding="utf-8"))
        assert report["corrected"]["external_label_check"] == [
            {"id": "cv_0007", "field": "label", "old": "true", "new": "fake", "reason": "external_label_conflict"},
        ]
        assert {item.id: item.label for item in read_news(out)}["cv_0007"] == "fake"

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


VALIDATION_DEFAULTS = {name: p.default for name, p in inspect.signature(run_validation).parameters.items()}


class TestDefaults:
    # Each case runs a subcommand with no settings, captures the call its
    # handler makes through a cli stand-in, and compares the value ``pick``
    # takes from that call with the library's default.
    @pytest.mark.parametrize("subcommand,stand_in,pick,library_default", [
        ("validate", "run_validation", lambda args, kwargs: kwargs["min_content_tokens"],
         VALIDATION_DEFAULTS["min_content_tokens"]),
        ("validate", "run_validation", lambda args, kwargs: kwargs["auto_remove_confidence"],
         VALIDATION_DEFAULTS["auto_remove_confidence"]),
        ("split", "split", lambda args, kwargs: args[1], SplitSpec()),
    ], ids=["min-content-tokens", "auto-remove-confidence", "split-spec"])
    def test_cli_default_is_the_library_default(self, pipeline, tmp_path, monkeypatch, subcommand, stand_in,
                                                pick, library_default):
        original = getattr(cli, stand_in)
        calls = []

        def recording(*args, **kwargs):
            calls.append(pick(args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, stand_in, recording)
        assert main(_seam_argv(subcommand, pipeline, tmp_path)) == 0
        assert calls == [library_default]


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
        args = self.option_file(tmp_path, "--min-content-tokens=1000")
        out_file = tmp_path / "strict.jsonl"
        assert main(["validate", args, "--in", CORPUS, "--out", str(out_file)]) == 0
        assert len(read_news(out_file)) < 5
        assert load_manifest(f"{out_file}.manifest.json")["config"]["min_content_tokens"] == 1000

        out_flag = tmp_path / "normal.jsonl"
        assert main(["validate", args, "--in", CORPUS, "--out", str(out_flag), "--min-content-tokens", "15"]) == 0
        assert len(read_news(out_flag)) == 30

    def test_unknown_config_key(self, tmp_path, capsys):
        args = self.option_file(tmp_path, "--bogus-key=1")
        assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert "unrecognized arguments: --bogus-key=1" in capsys.readouterr().err

    def test_other_subcommands_option_exits_2(self, tmp_path, capsys):
        # A file written for split is not silently half-read by validate.
        args = self.option_file(tmp_path, "--seed=1", "--train=0.7")
        assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert "unrecognized arguments: --train=0.7" in capsys.readouterr().err
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
    ], ids=["threshold", "shingle-size", "permutations", "bands", "max-claim-words", "pair-preserving"])
    def test_removed_setting_exits_2(self, tmp_path, argv, flag):
        out = ["--out-dir" if argv[0] == "split" else "--out", str(tmp_path / "out")]
        assert self.exits_2([*argv, *out, *flag])
        assert self.exits_2([*argv, *out, self.option_file(tmp_path, *flag)])
        assert not (tmp_path / "out").exists()

    def test_bypass_cache_mode_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--in", CORPUS, "--shots-from", CORPUS, "--out", str(tmp_path / "r.json"),
                  "--provider", "fixture", "--fixtures", str(CASSETTES),
                  "--cache", str(tmp_path / "cache"), "--cache-mode", "bypass"])
        assert exc.value.code == 2

    def test_bad_config_value(self, tmp_path, capsys):
        args = self.option_file(tmp_path, "--min-content-tokens=muitos")
        assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert "invalid int value: 'muitos'" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path):
        # Each line is one argument, so neither the old ``key = value`` form,
        # nor a blank line, nor a comment is read as a setting.
        for line in ("min-content-tokens = 1000", "", "# comment"):
            args = self.option_file(tmp_path, "--seed=1", line)
            assert self.exits_2(["validate", args, "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")]), line
        assert not (tmp_path / "o.jsonl").exists()

    def test_missing_option_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "run.args"
        assert self.exits_2(["validate", f"@{missing}", "--in", CORPUS, "--out", str(tmp_path / "o.jsonl")])
        assert str(missing) in capsys.readouterr().err

    def test_config_flag_exits_2(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("min-content-tokens = 1000\n", encoding="utf-8")
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


class TestReadme:
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


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("evidencia") is None, reason="console script not on PATH")
    def test_version_flag(self):
        proc = subprocess.run(["evidencia", "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "evidencia" in proc.stdout

    @staticmethod
    def run_fresh(*args):
        env = {**os.environ, "PYTHONPATH": "src"}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env)

    def test_module_version_flag(self):
        proc = self.run_fresh("-m", "evidencia.cli", "--version")
        assert proc.returncode == 0
        assert "evidencia" in proc.stdout

    def test_version_is_the_package_version(self):
        proc = self.run_fresh("-m", "evidencia.cli", "--version")
        assert proc.stdout.strip() == f"evidencia {evidencia.__version__}"
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
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

    def test_analyze_loads_none_of_the_enrichment_stack(self, pipeline, tmp_path):
        argv = ["analyze", "--in", str(pipeline["enriched"]), "--clusters", str(pipeline["clusters"]),
                "--out", str(tmp_path / "analysis.json")]
        loaded = self.modules_after(f"from evidencia.cli import main; assert main({argv!r}) == 0")
        assert "evidencia.analytics" in loaded
        for name in ("enrichment", "claims", "matching", "providers"):
            assert f"evidencia.{name}" not in loaded, name
        assert (tmp_path / "analysis.json").read_bytes() == Path(pipeline["analysis"]).read_bytes()

"""Command-line behavior: the full pipeline, option resolution, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evidencia
from evidencia import cli
from evidencia.cli import main
from evidencia.enrichment import FunnelStats
from evidencia.records import read_enriched, read_news

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
        code = main(["review", "--queue", f"{pipeline['validated']}.review.jsonl",
                     "--decisions", str(pipeline["skeleton"])])
        assert code == 0
        assert "check out" in capsys.readouterr().out

    def test_review_check_mode_flags_missing_decision(self, pipeline, tmp_path, capsys):
        lines = Path(pipeline["skeleton"]).read_text(encoding="utf-8").strip().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text(lines[0] + "\n", encoding="utf-8")
        code = main(["review", "--queue", f"{pipeline['validated']}.review.jsonl",
                     "--decisions", str(partial)])
        assert code == 2
        assert "no decision for queue item" in capsys.readouterr().err

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
        assert main(["validate", "--in", CORPUS]) == 2
        assert "missing required option --out" in capsys.readouterr().err

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

    def test_evaluate_error_rate_gate(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "no-cassettes"
        empty.mkdir()
        code = main(["evaluate", "--in", str(pipeline["splits"] / "test.jsonl"),
                     "--shots-from", str(pipeline["splits"] / "train.jsonl"),
                     "--out", str(tmp_path / "r.json"),
                     "--provider", "fixture", "--fixtures", str(empty),
                     "--max-error-rate", "0.5"])
        assert code == 1

    def test_invalid_split_ratios(self, tmp_path, capsys):
        assert main(["split", "--in", CORPUS, "--out-dir", str(tmp_path / "s"),
                     "--train", "0.5", "--val", "0.1", "--test", "0.1"]) == 2
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [
        ("--bands", "bands"),
        ("--shingle-size", "shingle_size"),
        ("--permutations", "num_permutations"),
    ])
    def test_dedup_sizes_below_one(self, tmp_path, capsys, flag, field):
        out = tmp_path / "clusters.jsonl"
        assert main(["dedup", "--in", CORPUS, "--out", str(out), flag, "0"]) == 2
        assert f"{field} must be at least 1" in capsys.readouterr().err
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


class TestBrokenCassettes:
    def enrich(self, pipeline, out, fixtures, *extra):
        return main(["enrich", "--in", str(pipeline["validated"]), "--out", str(out),
                     "--provider", "fixture", "--fixtures", str(fixtures), *extra])

    def test_cut_cache_entry_is_fetched_again_and_rewritten(self, pipeline, tmp_path):
        cache = tmp_path / "cache"
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        assert self.enrich(pipeline, first, CASSETTES, "--cache", str(cache)) == 0
        entry = sorted(cache.glob("*.json"))[0]
        whole = entry.read_bytes()
        entry.write_bytes(whole[:100])
        assert self.enrich(pipeline, second, CASSETTES, "--cache", str(cache)) == 0
        assert entry.read_bytes() == whole
        assert second.read_bytes() == first.read_bytes()

    def test_cut_fixture_exits_2_and_names_the_file(self, pipeline, tmp_path, capsys):
        fixtures = tmp_path / "cassettes"
        shutil.copytree(CASSETTES, fixtures)
        cut = sorted(fixtures.glob("*.json"))
        for path in cut:
            path.write_bytes(path.read_bytes()[:100])
        assert self.enrich(pipeline, tmp_path / "e.jsonl", fixtures) == 2
        err = capsys.readouterr().err
        assert any(str(path) in err for path in cut), err


class TestConfigFile:
    def test_file_value_applies_and_flag_wins(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# shared settings\nmin-content-tokens = 1000\n", encoding="utf-8")
        out_file = tmp_path / "strict.jsonl"
        assert main(["--config", str(conf), "validate", "--in", CORPUS,
                     "--out", str(out_file)]) == 0
        strict = read_news(out_file)
        assert len(strict) < 5

        out_flag = tmp_path / "normal.jsonl"
        assert main(["--config", str(conf), "validate", "--in", CORPUS,
                     "--out", str(out_flag), "--min-content-tokens", "15"]) == 0
        assert len(read_news(out_flag)) == 30

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus-key = 1\n", encoding="utf-8")
        assert main(["--config", str(conf), "validate", "--in", CORPUS,
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("min-content-tokens = muitos\n", encoding="utf-8")
        assert main(["--config", str(conf), "validate", "--in", CORPUS,
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "bad value" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("sem sinal de igual\n", encoding="utf-8")
        assert main(["--config", str(conf), "validate", "--in", CORPUS,
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert "expected 'key = value'" in capsys.readouterr().err


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
        assert any(cache.iterdir())
        manifest = load_manifest(f"{out}.manifest.json")
        assert manifest["cache_hash"]


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

"""Tests for the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpora  # noqa: E402
from evidencia.records import read_news  # noqa: E402
from evidencia.textprep import find_urls  # noqa: E402

TINY = {"fakebr-articles": 40, "whatsapp-chains": 60, "evidence-enrich": 60}


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_generator_is_byte_identical_per_seed(tmp_path, workload):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        corpora.generate(workload, seed, tmp_path / name, TINY[workload])
        digests.append(corpora.inputs_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("workload", corpora.WORKLOADS)
def test_planted_counts_match_the_declaration(tmp_path, workload):
    plan = corpora.generate(workload, 5, tmp_path, TINY[workload])
    assert plan == corpora.Plan.load(tmp_path / "plan.json")
    items = {item.id: item for item in read_news(tmp_path / "corpus.jsonl")}
    assert len(items) == plan.records
    assert set(plan.expected_removed) <= set(items)
    survivors = plan.records - len(plan.expected_removed)
    assert sum(plan.scenarios.values()) == survivors
    for name, share in corpora.SCENARIO_SHARES[1:]:
        assert plan.scenarios[name] == round(share * survivors)
    assert plan.factcheck_original == round(corpora.FACTCHECK_ORIGINAL_SHARE * survivors)
    assert plan.near_dup_pairs
    for a, b in plan.near_dup_pairs:
        assert corpora.jaccard(items[a].text, items[b].text) >= corpora.THRESHOLD
    for group in plan.label_conflicts:
        assert len({items[i].label for i in group}) == 2
    for url in plan.shared_url_conflicts:
        labels = {item.label for item in items.values() if url in find_urls(item.text)}
        assert labels == {"fake", "true"}
    listed = (tmp_path / "incomplete_ids.txt").read_text(encoding="utf-8").split()
    assert listed == plan.incomplete_ids
    assert len({item.text for item in items.values()}) == len(items)


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A checkout-shaped copy of the benchmark, so runs get their own work dir."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", root)
    if with_program:
        (root / "src").symlink_to(BENCH.parent / "src")
    return root


def _run(root: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--records", str(TINY[workload])],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload,trace", [(w, 0) for w in corpora.WORKLOADS] + [("whatsapp-chains", 1)])
def test_workload_completes_with_every_check_passing(tmp_path, workload, trace):
    root = _checkout(tmp_path)
    proc = _run(root, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    proc = _run(_checkout(tmp_path, with_program=False), "evidence-enrich")
    assert proc.returncode != 0
    assert proc.stdout == ""

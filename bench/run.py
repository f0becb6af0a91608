#!/usr/bin/env python3
"""Pipeline benchmark for evidencia.

Usage (from the root of a checkout):

    python3 bench/run.py --workload fakebr-articles --seed 1 --seconds 30 --trace 0

Generates the workload's seeded corpus and cassettes, then repeats timed
passes of validate, dedup, enrich, analyze, split, build-config and
evaluate, one fresh process each under ``--provider fixture``, until
``--seconds`` have passed. The first pass's outputs are checked for
correctness and every later pass must reproduce them byte for byte. The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced passes with ``--trace 1``. Exits 1 when any
check fails and 2 on a usage error or a checkout without the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
TRASH_KEEP = 80

WORKLOADS = ("fakebr-articles", "whatsapp-chains", "evidence-enrich")

E2E_UNITS = {
    "records_per_s": "1/s",
    "validate_s": "s",
    "dedup_s": "s",
    "enrich_s": "s",
    "analyze_split_build_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
    "setup_s": "s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, help="corpus size (default: the workload's benchmark size)")
    return parser.parse_args(argv)


def environment(inputs_digest: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "inputs_sha256": inputs_digest,
    }


def e2e_metrics(results, records: int) -> dict[str, float]:
    wall = {r.subcommand: r.wall_s for r in results}
    return {
        "records_per_s": records / sum(wall.values()),
        "validate_s": wall["validate"],
        "dedup_s": wall["dedup"],
        "enrich_s": wall["enrich"],
        "analyze_split_build_s": wall["analyze"] + wall["split"] + wall["build-config"],
        "evaluate_s": wall["evaluate"],
        "peak_rss_mb": max(r.max_rss_mb for r in results),
    }


def retire(work: Path) -> None:
    """Move a previous run's files aside instead of deleting them. Deleting
    thousands of files slows file creation on the disk for tens of seconds
    afterwards, which would show in the next run's timed enrich; only runs
    beyond the newest TRASH_KEEP are deleted."""
    trash = WORK / "trash"
    trash.mkdir(parents=True, exist_ok=True)
    work.rename(trash / f"{time.time_ns()}-{work.name}")
    for old in sorted(trash.iterdir())[:-TRASH_KEEP]:
        shutil.rmtree(old)


def run_passes(args, plan, inputs: Path, work: Path, answers: dict[str, int]):
    """Timed passes until ``args.seconds`` have passed; with tracing, odd
    passes run traced. Returns (passes, failures, setup samples, digest)."""
    import checks
    import corpora
    import pipeline

    def write_answers(out: Path) -> None:
        answers.update(corpora.write_classification_cassettes(
            plan, inputs, out / "instances.jsonl", out / "splits" / "train.jsonl"))

    # Three start-up samples first (the first one also compiles bytecode),
    # then one before each pass, topped up to SETUP_SAMPLES at the end.
    setup_samples = [pipeline.setup_time(work) for _ in range(3)]
    passes: list[dict] = []
    failures: list[str] = []
    reference = None
    deadline, pass_s = time.perf_counter() + args.seconds, 0.0
    # Start another pass only if it should end nearer the deadline than
    # stopping now would.
    while not passes or time.perf_counter() + pass_s / 2 < deadline or (args.trace and len(passes) < 2):
        began = time.perf_counter()
        setup_samples.append(pipeline.setup_time(work))
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        out, spans = work / f"pass-{k}", (work / f"spans-{k}" if traced else None)
        # The first pass also writes the classification cassettes, whose
        # prompts depend on the instances it built, just before evaluate.
        results = pipeline.run_pass(inputs, out, plan, spans, before_evaluate=None if k else write_answers)
        entry = {"traced": traced, "results": results, "out": out, "spans": spans,
                 "ok": len(results) == len(pipeline.SUBCOMMANDS) and not results[-1].returncode}
        if not entry["ok"]:
            bad = results[-1]
            failures.append(f"pass {k}: {bad.subcommand} exited {bad.returncode}: {bad.stderr[-2000:]}")
        elif reference is None:
            reference = checks.output_digest(out)
            found = checks.check_pass(plan, inputs, out, answers)
            failures += found
            entry["ok"] = not found
        elif checks.output_digest(out) != reference:
            failures.append(f"pass {k}: record outputs differ from the first pass")
            entry["ok"] = False
        passes.append(entry)
        pass_s = time.perf_counter() - began
        if not passes[0]["ok"]:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(pipeline.setup_time(work))
    return passes, failures, setup_samples, reference


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "evidencia" / "cli.py").is_file():
        print(f"error: no evidencia sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import corpora
    import layers
    import pipeline

    work = WORK / args.workload
    if work.exists():
        retire(work)
    inputs = work / "inputs"
    plan = corpora.generate(args.workload, args.seed, inputs, args.records)
    env = environment(corpora.inputs_digest(inputs))
    answers: dict[str, int] = {}
    passes, failures, setup_samples, reference = run_passes(args, plan, inputs, work, answers)

    complete = lambda p: len(p["results"]) == len(pipeline.SUBCOMMANDS)
    untraced = [p for p in passes if not p["traced"] and complete(p)]
    traced = [p for p in passes if p["traced"] and complete(p)]
    metrics: dict[str, dict] = {}
    if args.trace and traced and untraced:
        metrics = layers.summarize(
            [layers.pass_metrics(p["spans"]) for p in traced],
            [sum(r.wall_s for r in p["results"]) for p in traced],
            [sum(r.wall_s for r in p["results"]) for p in untraced],
        )
        for name, entry in metrics.items():
            print(f"{name:<44} {entry['value']:>14.6g} {entry['unit']:<6} moves {layers.METRICS[name][2]}")
    elif not args.trace and untraced:
        per_pass = [e2e_metrics(p["results"], plan.records) for p in untraced]
        values = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
        first = passes[0]
        values["failed_share"] = checks.failed_share(first["out"], len(first["results"]),
                                                     sum(1 for r in first["results"] if r.returncode))
        values["setup_s"] = median(setup_samples)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        for name, entry in metrics.items():
            print(f"{name:<24} {entry['value']:>12.6g} {entry['unit']}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "output_sha256": reference, "plan": {**vars(plan), "answers": answers},
        "setup_samples_s": setup_samples,
        "passes": [{"traced": p["traced"], "ok": p["ok"],
                    "processes": [{"subcommand": r.subcommand, "wall_s": r.wall_s, "max_rss_mb": r.max_rss_mb,
                                   "returncode": r.returncode} for r in p["results"]]} for p in passes],
        "failures": failures, "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(len(p["results"]) for p in passes if not p["ok"])
    print(json.dumps({"environment": env, "output_sha256": reference}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

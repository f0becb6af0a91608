"""One pass of the evidencia pipeline, one fresh process per subcommand.

Each subcommand runs as ``python3 -m evidencia.cli`` (or under the tracer)
with ``PYTHONPATH`` pointing at the checkout's ``src``, the way a user's
shell would run the installed console script. Wall time comes from
``time.perf_counter`` around spawn and reap, peak memory from the child's
own ``ru_maxrss`` as ``os.wait4`` reports it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

PROCESS_TIMEOUT_S = 120.0

SUBCOMMANDS = ("validate", "dedup", "enrich", "analyze", "split", "build-config", "evaluate")

# Files every pass writes; their digests must agree between passes.
RECORD_OUTPUTS = (
    "validated.jsonl", "validated.jsonl.report.json", "validated.jsonl.review.jsonl",
    "clusters.jsonl", "enriched.jsonl", "enriched.jsonl.stats.json",
    "analysis.json", "analysis.json.txt",
    "splits/train.jsonl", "splits/val.jsonl", "splits/test.jsonl",
    "instances.jsonl", "evaluation.json", "evaluation.json.predictions.jsonl",
)


@dataclass
class ProcessResult:
    subcommand: str
    wall_s: float
    max_rss_mb: float
    returncode: int
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], subcommand: str, cwd: Path) -> ProcessResult:
    """Spawn, wait with os.wait4 and report wall time and peak RSS. A child
    still running after PROCESS_TIMEOUT_S is killed and reported as failed."""
    err_path = cwd / f".{subcommand}.stderr"
    with err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return ProcessResult(subcommand, wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def pass_commands(inputs: Path, out: Path, plan) -> list[tuple[str, list[str]]]:
    """(subcommand, cli arguments) for one pass over a workload's inputs."""
    fixtures = ["--provider", "fixture", "--fixtures", str(inputs / "cassettes")]
    validate = ["validate", "--in", str(inputs / "corpus.jsonl"), "--out", str(out / "validated.jsonl")]
    if plan.incomplete_ids:
        validate += ["--incomplete-ids", str(inputs / "incomplete_ids.txt")]
    if plan.validate_provider:
        validate += fixtures
    return [
        ("validate", validate),
        ("dedup", ["dedup", "--in", str(inputs / "corpus.jsonl"), "--out", str(out / "clusters.jsonl")]),
        ("enrich", ["enrich", "--in", str(out / "validated.jsonl"), "--out", str(out / "enriched.jsonl"),
                    *fixtures, "--cache", str(out / "cache")]),
        ("analyze", ["analyze", "--in", str(out / "enriched.jsonl"), "--clusters", str(out / "clusters.jsonl"),
                     "--out", str(out / "analysis.json")]),
        ("split", ["split", "--in", str(out / "validated.jsonl"), "--out-dir", str(out / "splits")]),
        ("build-config", ["build-config", "--in", str(out / "enriched.jsonl"), "--kind", "enriched_filtered",
                          "--out", str(out / "instances.jsonl")]),
        ("evaluate", ["evaluate", "--in", str(out / "instances.jsonl"),
                      "--shots-from", str(out / "splits" / "train.jsonl"),
                      "--out", str(out / "evaluation.json"), *fixtures]),
    ]


def run_pass(inputs: Path, out: Path, plan, spans_dir: Path | None = None,
             before_evaluate: Callable[[Path], None] | None = None) -> list[ProcessResult]:
    """Run the subcommands in order into a new directory ``out``; stop at the first
    failure. With ``spans_dir`` each process runs under the tracer and
    writes its spans there. ``before_evaluate(out)`` runs untimed between
    build-config and evaluate."""
    out.mkdir(parents=True)
    if spans_dir is not None:
        spans_dir.mkdir(parents=True)
    results = []
    for subcommand, args in pass_commands(inputs, out, plan):
        if subcommand == "evaluate" and before_evaluate is not None:
            before_evaluate(out)
        if spans_dir is None:
            argv = [sys.executable, "-m", "evidencia.cli", *args]
        else:
            argv = [sys.executable, str(TRACER), str(spans_dir / f"{subcommand}.json"), *args]
        result = run_process(argv, subcommand, out)
        results.append(result)
        if result.returncode != 0:
            break
    return results


def setup_time(cwd: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    code = "import evidencia.cli as cli; cli.build_parser()"
    return run_process([sys.executable, "-c", code], "setup", cwd).wall_s

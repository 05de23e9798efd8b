#!/usr/bin/env python3
"""Offline benchmark of the five-stage SDG x PB pipeline.

Run from the repository root:

    python3 bench/run.py --workload bulk-cpu --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload writes a seeded synthetic TEI corpus, then repeats timed passes
from the TEI files on disk to `results.jsonl`, `matrix.json`, `summary.json`,
`matrix.csv` and `figure1.svg`, checking every output. With `--trace 0` it
prints the end-to-end metrics of `BENCHMARK.json`; with `--trace 1` it prints
the per-layer metrics from traced passes, with the tracing overhead, and
writes the spans to `.bench_work/`. Every metric is printed by name and unit;
the last line of standard output is one JSON object. The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
REQUIRED = ("BENCHMARK.json", "src/sdgpb", "scripts/make_fixtures.py", "fixtures/golden")
WORKLOAD_NAMES = ("bulk-cpu", "sim-latency", "replay-resume")


def _declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tempfile.tempdir = str(work)  # keep every temporary file inside the checkout
    try:
        outcome = workloads.measure(workloads.WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace), work, ROOT)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    units = _declared_units(bool(args.trace))
    if set(outcome.metrics) != set(units):
        outcome.problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(outcome.metrics) ^ set(units))}")
        outcome.failed += 1
    if outcome.spans:
        spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for pass_index, spans in outcome.spans:
                for span in spans:
                    fh.write(json.dumps({"pass": pass_index, **span.to_json()}) + "\n")
        outcome.notes.append(f"spans written to {spans_path.relative_to(ROOT)}")

    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in outcome.metrics.items():
        print(f"{name} = {value} {units.get(name, '?')}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in outcome.metrics.items()},
    }))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Each workload in its own process, one after another, so each reports
    its own peak memory."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{name}] no result; exit code {proc.returncode}")
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not a checkout of the repository, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs every workload in both modes and prints every metric; smoke test by default.

    python3 perfbench/smoke.py                          # tiny size, about 30 s
    python3 perfbench/smoke.py --scale 1 --seconds 30   # full size, all metrics

Calls ``run.py`` on every workload in ``BENCHMARK.json`` with
``--trace 0`` and ``--trace 1``, through the same code path as a
benchmark run; by default at a tiny size (``--scale 0.01``, four
speakers). Each result must name every declared metric with its unit,
and its output check must pass. Last, ``run.py`` must fail without
printing a result in a directory that holds only ``BENCHMARK.json`` and
the benchmark's own files. Exits 0 when all of this holds.
"""

import argparse
import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(proc, declared) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        return {}, [f"exit {proc.returncode}: {proc.stderr[-1000:]}"]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(doc)}")
    if doc["correct"] is not True or doc["failed"] != 0 or doc["attempted"] < 1:
        problems.append(f"output check: correct={doc['correct']} "
                        f"failed={doc['failed']} attempted={doc['attempted']}")
    units = {name: m["unit"] for name, m in doc["metrics"].items()}
    if units != declared:
        problems.append(f"metrics {units} != declared {declared}")
    for name, m in doc["metrics"].items():
        if not isinstance(m["value"], numbers.Real) or isinstance(m["value"], bool):
            problems.append(f"{name} is not a number: {m['value']!r}")
    return doc, problems


def refuses_bare_directory(bench: dict) -> bool:
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for rel in bench["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0")
        return proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="0.01")
    parser.add_argument("--seconds", default="0")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            declared = {m["name"]: m["unit"] for m in bench[key]}
            proc = run(ROOT, "--workload", workload["name"], "--seed", args.seed,
                       "--seconds", args.seconds, "--trace", trace,
                       "--scale", args.scale)
            doc, problems = check_result(proc, declared)
            failures += bool(problems)
            print(f"{workload['name']} trace={trace}: "
                  + ("; ".join(problems) if problems else "ok"))
            for line in proc.stdout.splitlines():
                if line.startswith("#"):
                    print("  " + line)
            for name, m in doc.get("metrics", {}).items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
            if doc:
                print(f"  failed_share {doc['failed'] / doc['attempted']:.6g} "
                      f"({doc['failed']} of {doc['attempted']} utterances)")

    refused = refuses_bare_directory(bench)
    failures += not refused
    print(f"bare directory: {'refused' if refused else 'NOT refused'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

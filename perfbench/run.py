#!/usr/bin/env python3
"""Pipeline benchmark: ``phonoscope run`` on seeded synthetic corpora.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the repository root. It generates the workload's corpus from
``sample_corpus/`` (see ``corpus.py``) under ``.perfbench_work/``, then
runs the whole pipeline repeatedly, each time in a fresh interpreter
(``worker.py``) with ``PYTHONPATH=src``, until ``--seconds`` have passed.
The backend is the one ``phonoscope.backend()`` selects.

``--trace 0`` reports the end-to-end metrics, each the median over the
runs: ``setup_s`` (fresh interpreter through ``import phonoscope``,
``load_config``, ``CorpusManifest.load`` and ``validate_paths``, also
sampled by set-up-only processes), ``run_s`` (wall time of
``cli.main(["run", ...])``), ``utterances_per_s`` and ``peak_rss_mb``
(peak resident memory of the pipeline process).

``--trace 1`` alternates untraced runs with traced ones (``spans.py``)
and reports the per-layer metrics of the traced run with the median
``run_s``, ``trace.overhead_s`` (median traced minus median untraced
``run_s``) and ``run.cpu_s``.

Every run's output tree is hashed and must match the first; the first is
also checked against the pure oracle (``check.py``). An utterance that
has no alignment or fails the check counts in ``failed``; a run that
exits non-zero or writes a different tree fails all its utterances.
Lines before the last describe the environment, the inputs and the
check; the last line is the JSON result.

Workloads and the metrics their layers should move:

* ``corpus``: 2000 long utterances, one alignment and one TSV each.
  Kernel, ``align()`` glue, dump, accumulate and per-file writes move
  ``run_s``; clustering and heatmaps are trivially small.
* ``speakers``: t-SNE on 203 points and 200 heatmaps move ``run_s``;
  t-SNE's pairwise tensor sets ``peak_rss_mb``. Alignment is under 10%.
* ``lattice``: ``align_min_variant`` runs about 24 aligns per utterance,
  so the kernel and the ``align()`` glue dominate ``run_s``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402

REQUIRED = ("src/phonoscope/cli.py",) + tuple(
    f"sample_corpus/{name}" for name in corpus.SAMPLE_FILES
) + tuple(f"sample_corpus/annotations/{name}" for name in corpus.ANNOTATION_FILES)
WORK = Path(".perfbench_work")
SETUP_PROBES = 2          # set-up-only processes before each untraced pipeline run
WORKER_TIMEOUT_S = 150

FS_TYPES = {0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
            0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
            0x01021997: "9p", 0x65735546: "fuse", 0x6A656A63: "virtiofs"}


class BenchError(Exception):
    pass


def filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from statfs(2)'s f_type."""
    buf = ctypes.create_string_buffer(256)
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.statfs(os.fsencode(path), buf) != 0:
        return "unknown"
    f_type = ctypes.c_long.from_buffer(buf).value & 0xFFFFFFFF
    return FS_TYPES.get(f_type, hex(f_type))


class Runner:
    def __init__(self, input_dir: Path, variant_rule: str):
        self.input_dir = input_dir
        self.variant_rule = variant_rule
        src = str(Path("src").resolve())
        extra = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))

    def spawn(self, out: Path, *flags: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.input_dir),
               str(out), self.variant_rule, *flags]
        start = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["setup_s"] = doc["setup_end"] - start
        if doc.get("exit", 0) != 0:
            print(f"# pipeline exited {doc['exit']}: {proc.stderr.strip()[-500:]}")
        return doc


def measure(runner: Runner, work: Path, seconds: float, trace: bool, seed: int):
    """Pipeline runs until ``seconds`` pass.

    Returns the set-up probes, the runs and the output check of the first
    run. Each output tree is hashed, checked if it is the first, and
    deleted at once, before the kernel writes its data back to disk.
    """
    runner.spawn(work / "warmup", "--setup-only")   # byte-compiles src/ once
    deadline = time.monotonic() + seconds
    probes, runs, checked = [], [], (set(), {})
    min_runs = 4 if trace else 3   # with --trace, two traced and two untraced
    while len(runs) < min_runs or time.monotonic() < deadline:
        if not trace:
            probes += [runner.spawn(work / "probe", "--setup-only")["setup_s"]
                       for _ in range(SETUP_PROBES)]
        out = work / f"out{len(runs)}"
        traced = trace and len(runs) % 2 == 1
        doc = runner.spawn(out, *(["--trace"] if traced else []))
        doc["traced"] = traced
        if doc["exit"] == 0:
            doc["hash"], doc["files_hashed"] = check.tree_hash(out)
            if not runs:
                checked = check.check_tree(runner.input_dir, out,
                                           runner.variant_rule, seed)
        shutil.rmtree(out, ignore_errors=True)
        runs.append(doc)
    return probes, runs, checked


def result(workload, args, stats, probes, runs, failed_first, summary) -> dict:
    utterances = stats["utterances"]
    reference = runs[0].get("hash")
    failed = 0
    for run in runs:
        if run["exit"] != 0 or run.get("hash") != reference:
            failed += utterances
        else:   # the same bytes as the checked first tree
            failed += len(failed_first)
    attempted = utterances * len(runs)

    untraced = [r for r in runs if not r["traced"]]
    run_s = statistics.median(r["run_s"] for r in untraced)
    env = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale,
        "backend": runs[0]["backend"], "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": _numpy_version(),
        "output_fs": filesystem(WORK), "runs": len(runs),
        "cpu_s": [round(r["cpu_s"], 4) for r in untraced],
        "run_s": [round(r["run_s"], 4) for r in untraced],
        "failed_share": failed / attempted,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print("# inputs " + json.dumps(stats, sort_keys=True))
    print("# check " + json.dumps(dict(summary, tree_sha256=reference,
                                       files_hashed=runs[0].get("files_hashed")),
                                  sort_keys=True))

    if args.trace:
        traced = sorted((r for r in runs if r["traced"]), key=lambda r: r["run_s"])
        rep = traced[(len(traced) - 1) // 2]
        metrics = dict(rep["layers"]["metrics"])
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) - run_s)
        metrics["run.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
        _print_self_times(rep)
        print(f"# trace counted {metrics['alignment.align_calls']} aligns and "
              f"{metrics['alignment.dp_cells']:.0f} DP cells; the inputs call for "
              f"{stats['aligns']} and {stats['dp_cells']}")
    else:
        setup = probes + [r["setup_s"] for r in runs]
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "utterances_per_s": utterances / run_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
    units = {m["name"]: m["unit"] for m in _declared_metrics()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _print_self_times(rep: dict) -> None:
    """Self time per layer of the traced run; with cli.self_s they sum to run_s."""
    run_s = rep["run_s"]
    table = rep["layers"]["self_times"]
    cli_self = rep["layers"]["metrics"]["cli.self_s"]
    print(f"# trace run_s={run_s:.4f} (wait: absent, one thread)")
    for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"#   {name:24s} calls={calls:7d} incl={incl:9.4f}s "
              f"self={self_s:9.4f}s {100 * self_s / run_s:5.1f}%")
    print(f"#   {'cli.self':24s} {'':13s} {'':15s} self={cli_self:9.4f}s "
          f"{100 * cli_self / run_s:5.1f}%")
    total = sum(row[2] for row in table.values()) + cli_self
    print(f"#   self times sum to {total:.4f}s of run_s {run_s:.4f}s")


def _numpy_version() -> str:
    import numpy
    return numpy.__version__


def _declared_metrics() -> list:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc["end_to_end"] + doc["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="speaker-count factor; below 1 only for smoke runs")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = corpus.WORKLOADS[args.workload].scaled(args.scale)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        input_dir = work / "input"
        stats = corpus.generate(workload, args.seed, input_dir)
        runner = Runner(input_dir, workload.variant_rule)
        sys.path.insert(0, str(Path("src").resolve()))   # for the output check
        probes, runs, (failed_first, summary) = measure(
            runner, work, args.seconds, bool(args.trace), args.seed)
        doc = result(workload, args, stats, probes, runs, failed_first, summary)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

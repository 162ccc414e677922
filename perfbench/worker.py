"""One pipeline run in a fresh interpreter; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py INPUT_DIR OUT_DIR VARIANT_RULE \
        [--setup-only] [--trace]

The parent starts this process and reads the JSON it prints: the
CLOCK_MONOTONIC time at which set-up ended (``import phonoscope``,
``load_config``, ``CorpusManifest.load`` and ``validate_paths``), the wall
time of ``cli.main(["run", ...])``, the CPU time of that call, the peak
resident memory of this process and, with ``--trace``, the per-layer
figures of ``spans.Tracer``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    input_dir, out_dir, variant_rule = (Path(argv[0]), Path(argv[1]), argv[2])
    import phonoscope
    from phonoscope import cli
    from phonoscope.manifest import CorpusManifest, RunConfig, load_config

    config = RunConfig(
        lexicon_path=input_dir / "lexicon.dict",
        supplementary_lexicon_path=input_dir / "nonwords.dict",
        cost_matrix_path=input_dir / "costs.csv",
        oov_policy="supplementary_lexicon",
        variant_rule=variant_rule,
    )
    load_config(config)
    CorpusManifest.load(input_dir / "manifest.json").validate_paths()
    result = {"setup_end": time.monotonic(), "backend": phonoscope.backend()}
    if "--setup-only" in argv:
        print(json.dumps(result))
        return 0

    tracer = None
    if "--trace" in argv:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    run_argv = [
        "run", str(input_dir / "manifest.json"),
        "--lexicon", str(config.lexicon_path),
        "--costs", str(config.cost_matrix_path),
        "--supplementary-lexicon", str(config.supplementary_lexicon_path),
        "--oov-policy", "supplementary_lexicon",
        "--variant-rule", variant_rule,
        "--k", "3", "--seed", "0", "--min-occurrences", "2",
        "--out-dir", str(out_dir),
    ]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli.main(run_argv)
    run_s = time.perf_counter() - t0
    result.update(
        exit=code, run_s=run_s, cpu_s=time.process_time() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(run_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

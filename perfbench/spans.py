"""Spans and counts recorded around the public functions ``phonoscope.cli`` calls.

Nothing inside the program is changed: ``Tracer.install`` replaces module
attributes with timing wrappers and ``uninstall`` puts the originals back.
Each span is (layer, start, end, parent index), kept in memory; the
summary turns them into inclusive time, self time (inclusive minus the
time covered by child spans) and the work counts of each layer. The
program runs on one thread and waits on no other worker, so no layer has
waiting time to record.
"""

from __future__ import annotations

import inspect
import pathlib
import time
import tracemalloc
from collections import defaultdict


def _cells(counts, args, kwargs, result):
    counts["alignment.dp_cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)


def _ops(counts, args, kwargs, result):
    counts["confusion.ops_accumulated"] += len(args[1].ops)


def _iterations(counts, args, kwargs, result):
    counts["clustering.kmeans_iterations"] += result.iterations


def _svg_bytes(counts, args, kwargs, result):
    counts["heatmap.bytes"] += len(result.encode("utf-8"))


def _written(counts, args, kwargs, result):
    counts["io.files_written"] += 1
    counts["io.bytes_written"] += len(args[1].encode("utf-8"))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._tsne_calls: list = []
        self._stack: list[int] = []
        self._originals: list = []

    def _wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, count=None):
        original = inspect.getattr_static(owner, attr)
        self._originals.append((owner, attr, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, count))
        else:
            wrapped = self._wrap(name, original, count)
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        from phonoscope import alignment, cli, clustering, manifest

        self._patch(alignment, "align", "alignment.align")
        self._patch(alignment, "align_min_variant", "alignment.min_variant")
        self._patch(alignment._kernel, "dp_align", "alignment.kernel", _cells)
        self._patch(alignment, "dump_alignment", "alignment.dump")
        self._patch(cli, "accumulate", "confusion.accumulate", _ops)
        self._patch(cli, "phonemize", "lexicon.phonemize")
        self._patch(cli, "load_config", "manifest.load_config")
        self._patch(manifest.CorpusManifest, "load", "manifest.load")
        self._patch(clustering, "kmeans", "clustering.kmeans", _iterations)
        self._patch(clustering, "tsne", "clustering.tsne", self._keep_tsne_args)
        self._patch(cli, "svg_heatmap", "heatmap.render", _svg_bytes)
        self._patch(cli, "compare", "annotations.compare")
        self._patch(cli, "load_annotation_csv", "annotations.load")
        self._patch(cli, "parse_textgrid", "annotations.load")
        self._patch(pathlib.Path, "write_text", "io.write", _written)
        self._patch(pathlib.Path, "mkdir", "io.mkdir")

    def _keep_tsne_args(self, counts, args, kwargs, result):
        counts["clustering.tsne_points"] += len(result.points)
        self._tsne_calls.append((args, kwargs))

    def tsne_peak_alloc_mb(self) -> float:
        """Replays each t-SNE call under tracemalloc, after the timed run.

        tracemalloc slows every allocation, so the traced run itself stays
        without it; the replay gives the peak of Python and numpy
        allocations in megabytes.
        """
        from phonoscope import clustering

        peak = 0.0
        for args, kwargs in self._tsne_calls:
            tracemalloc.start()
            try:
                clustering.tsne(*args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
        return peak

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def layer_times(self):
        """name -> [calls, inclusive seconds, self seconds]; top-level seconds.

        A span directly inside one of the same name (``Path.mkdir``
        creating its parents) adds to self time but not again to the
        inclusive time.
        """
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[index]
            duration = end - start
            row = table[name]
            row[0] += 1
            row[2] += duration - child_time[index]
            if parent < 0:
                top_level += duration
                row[1] += duration
            else:
                child_time[parent] += duration
                if self.spans[parent][0] != name:
                    row[1] += duration
        return dict(table), top_level

    def summary(self, run_s: float) -> dict:
        """Per-layer metrics of one traced run, plus the self-time table."""
        table, top_level = self.layer_times()

        def incl(name):
            return table.get(name, [0, 0.0, 0.0])[1]

        def calls(name):
            return table.get(name, [0, 0.0, 0.0])[0]

        c = self.counts
        kernel_s = incl("alignment.kernel")
        utterances = calls("confusion.accumulate")
        metrics = {
            "alignment.align_s": incl("alignment.align"),
            "alignment.align_calls": calls("alignment.align"),
            "alignment.kernel_s": kernel_s,
            "alignment.dp_cells": c["alignment.dp_cells"],
            "alignment.kernel_cells_per_s": (
                c["alignment.dp_cells"] / kernel_s if kernel_s > 0 else 0.0),
            "alignment.glue_s": incl("alignment.align") - kernel_s,
            "alignment.min_variant_s": incl("alignment.min_variant"),
            "alignment.aligns_per_utterance": (
                calls("alignment.align") / utterances if utterances else 0.0),
            "alignment.dump_s": incl("alignment.dump"),
            "confusion.accumulate_s": incl("confusion.accumulate"),
            "confusion.ops_accumulated": c["confusion.ops_accumulated"],
            "io.write_s": incl("io.write") + incl("io.mkdir"),
            "io.files_written": c["io.files_written"],
            "io.bytes_written": c["io.bytes_written"],
            "io.mkdir_calls": calls("io.mkdir"),
            "clustering.tsne_s": incl("clustering.tsne"),
            "clustering.tsne_points": c["clustering.tsne_points"],
            "clustering.tsne_peak_alloc_mb": self.tsne_peak_alloc_mb(),
            "clustering.kmeans_s": incl("clustering.kmeans"),
            "clustering.kmeans_iterations": c["clustering.kmeans_iterations"],
            "heatmap.render_s": incl("heatmap.render"),
            "heatmap.bytes": c["heatmap.bytes"],
            "lexicon.phonemize_s": incl("lexicon.phonemize"),
            "manifest.load_s": incl("manifest.load"),
            "manifest.load_config_s": incl("manifest.load_config"),
            "annotations.load_s": incl("annotations.load"),
            "annotations.compare_s": incl("annotations.compare"),
            "cli.self_s": run_s - top_level,
        }
        return {"metrics": metrics, "self_times": table}

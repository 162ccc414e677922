#!/usr/bin/env python3
"""Benchmark the compiled alignment kernel against the pure-Python fallback.

Aligns randomly generated utterance-sized phoneme sequences with both
backends, verifies they return identical results, and reports throughput.

    python3 benchmarks/bench_align.py --pairs 2000 --length 40
"""

import argparse
import random
import time

import numpy as np

from phonoscope import CostMatrix, PhonemeInventory
from phonoscope import _dppy

try:
    from phonoscope import _dpcore
except ImportError:
    _dpcore = None


def make_instances(pairs, length, seed):
    inv = PhonemeInventory.default()
    rng = np.random.default_rng(seed)
    pyrng = random.Random(seed)
    grid = rng.uniform(0.05, 2.0, size=(40, 40))
    np.fill_diagonal(grid, 0.0)
    costs = CostMatrix(inv, grid)
    non_eps = inv.non_epsilon_indices()
    instances = []
    for _ in range(pairs):
        n = pyrng.randint(max(1, length - 10), length + 10)
        m = pyrng.randint(max(1, length - 10), length + 10)
        e = [pyrng.choice(non_eps) for _ in range(n)]
        o = [pyrng.choice(non_eps) for _ in range(m)]
        instances.append((e, o))
    return inv, costs, instances


def run_pure(inv, costs, instances):
    rows = costs.rows()
    eps = inv.epsilon_index
    return [_dppy.dp_align(e, o, rows, eps, 0, 1, 2) for e, o in instances]


def run_compiled(inv, costs, instances):
    eps = inv.epsilon_index
    arrays = [
        (np.asarray(e, dtype=np.int64), np.asarray(o, dtype=np.int64))
        for e, o in instances
    ]
    return [
        _dpcore.dp_align(e, o, costs.costs, eps, 0, 1, 2) for e, o in arrays
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--length", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    inv, costs, instances = make_instances(args.pairs, args.length, args.seed)
    cells = sum((len(e) + 1) * (len(o) + 1) for e, o in instances)
    print(f"{args.pairs} pairs, ~{args.length} phonemes/side, "
          f"{cells / 1e6:.1f}M DP cells")

    start = time.perf_counter()
    pure = run_pure(inv, costs, instances)
    pure_s = time.perf_counter() - start
    print(f"pure python : {pure_s:8.3f}s  ({args.pairs / pure_s:8.1f} aligns/s)")

    if _dpcore is None:
        print("compiled    : kernel unavailable (needs cc on PATH or pip install -e .)")
        return

    start = time.perf_counter()
    compiled = run_compiled(inv, costs, instances)
    compiled_s = time.perf_counter() - start
    print(f"compiled    : {compiled_s:8.3f}s  "
          f"({args.pairs / compiled_s:8.1f} aligns/s)")
    print(f"speedup     : {pure_s / compiled_s:8.1f}x")

    assert pure == compiled, "backends disagree"
    print("outputs     : identical across backends")


if __name__ == "__main__":
    main()

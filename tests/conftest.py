import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from phonoscope import CostMatrix, PhonemeInventory, ValidationError, align, alignment
from phonoscope.alignment import DEFAULT_TIE_BREAK, VariantAlignment, _check_sequence
from phonoscope.clustering import SpeakerVector

ORACLE_MAX_COMBINATIONS = 4096
BRUTEFORCE_MAX = 12

# CI runs with --hypothesis-profile=ci: the same examples on every run, so
# a failure there reproduces locally with the same flag.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def inv():
    return PhonemeInventory.default()


@pytest.fixture(scope="session")
def uniform(inv):
    return CostMatrix.uniform(inv)


@pytest.fixture(scope="session")
def weighted(inv):
    """A cost matrix where HH deletes cheaply and IH/IY are near neighbors."""
    return make_weighted_costs(inv)


def make_weighted_costs(inv):
    n = len(inv)
    eps = inv.epsilon_index
    grid = np.ones((n, n))
    np.fill_diagonal(grid, 0.0)
    grid[:, eps] = 0.9
    grid[eps, :] = 0.9
    grid[inv.index("HH"), eps] = 0.3
    hh, ih, iy = inv.index("HH"), inv.index("IH"), inv.index("IY")
    grid[ih, iy] = 0.3
    grid[iy, ih] = 0.3
    assert grid[hh, eps] + grid[ih, iy] < grid[hh, iy] + grid[ih, eps]
    grid[eps, eps] = 0.0
    return CostMatrix(inv, grid)


def idx(inv, labels):
    """'HH IH Z' -> [16, 17, 38]."""
    return [inv.index(s) for s in labels.split()]


@contextmanager
def kernel_backend(name):
    """Run alignment and t-SNE on the named kernel, then restore."""
    if name == "compiled":
        kernel = pytest.importorskip("phonoscope._dpcore")
    else:
        from phonoscope import _dppy as kernel
    saved = alignment._kernel, alignment._BACKEND
    alignment._kernel, alignment._BACKEND = kernel, name
    try:
        yield
    finally:
        alignment._kernel, alignment._BACKEND = saved


def random_cost_matrix(inv, rng, low=0.05, high=2.0):
    n = len(inv)
    grid = rng.uniform(low, high, size=(n, n))
    np.fill_diagonal(grid, 0.0)
    grid[inv.epsilon_index, inv.epsilon_index] = 0.0
    return CostMatrix(inv, grid)


def align_bruteforce(expected, observed, costs: CostMatrix) -> float:
    """Exhaustive minimum over all monotone edit scripts (oracle for align).

    Deliberately shares nothing with the DP path. Costs accumulate
    left-to-right along each script, the same fold order the DP uses, so
    the returned float is comparable to align().total_cost without any
    tolerance.
    """
    inv = costs.inventory
    e = _check_sequence(expected, inv, "expected")
    o = _check_sequence(observed, inv, "observed")
    if len(e) + len(o) > BRUTEFORCE_MAX:
        raise ValidationError(
            f"brute force limited to combined length {BRUTEFORCE_MAX}"
        )
    rows = costs.rows()
    eps = inv.epsilon_index
    n, m = len(e), len(o)
    best = float("inf")

    # stack of (i, j, cost so far); explores every script exactly once
    stack = [(0, 0, 0.0)]
    while stack:
        i, j, acc = stack.pop()
        if i == n and j == m:
            if acc < best:
                best = acc
            continue
        if i < n:
            stack.append((i + 1, j, acc + rows[e[i]][eps]))
        if j < m:
            stack.append((i, j + 1, acc + rows[eps][o[j]]))
        if i < n and j < m:
            stack.append((i + 1, j + 1, acc + rows[e[i]][o[j]]))
    return best


def align_min_variant_bruteforce(expected_lattice, observed, costs,
                                 tie_break=DEFAULT_TIE_BREAK) -> VariantAlignment:
    """Full align() of every variant combination (oracle for align_min_variant).

    The first strict minimum in itertools.product order wins, so ties keep
    the lowest variant indices.
    """
    lattice = [[tuple(getattr(v, "phonemes", v)) for v in word]
               for word in expected_lattice]
    count = math.prod(len(word) for word in lattice)
    assert 0 < count <= ORACLE_MAX_COMBINATIONS, count
    best = None
    for choice in itertools.product(*[range(len(word)) for word in lattice]):
        expected = [p for word, v in zip(lattice, choice) for p in word[v]]
        candidate = align(expected, observed, costs, tie_break)
        if best is None or candidate.total_cost < best.alignment.total_cost:
            best = VariantAlignment(candidate, choice)
    return best


def make_group_vectors(seed=0, groups=6, per_group=4, dim=1600):
    """Synthetic speaker vectors: per-group templates plus small noise.

    Noise magnitude stays well under a tenth of the smallest
    inter-template distance, so group recovery is unambiguous.
    """
    rng = np.random.default_rng(seed)
    templates = rng.normal(0.0, 1.0, size=(groups, dim))
    dists = [
        float(np.linalg.norm(templates[a] - templates[b]))
        for a in range(groups)
        for b in range(a + 1, groups)
    ]
    sigma = 0.1 * min(dists) / np.sqrt(dim)
    vectors, labels = [], {}
    for g in range(groups):
        for i in range(per_group):
            noise = rng.normal(0.0, sigma, size=dim)
            sid = f"spk_{g}_{i}"
            vectors.append(SpeakerVector(sid, templates[g] + noise))
            labels[sid] = f"group{g}"
    return vectors, labels


_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if "test_acceptance.py" in report.nodeid and report.when == "call":
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{outcome:6s}  {name}")

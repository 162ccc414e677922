import dataclasses
import functools
import gc
import itertools
import math
import operator
import os
import subprocess
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from phonoscope import CostMatrix, PhonemeInventory, ValidationError, align, alignment
from phonoscope.alignment import DEFAULT_TIE_BREAK, Alignment, _check_sequence
from phonoscope.clustering import (
    _EXP_MAX,
    _EXP_MIN,
    _EXP_TAYLOR,
    _INV_LN2,
    _LG,
    _LN2,
    _LN2_HI,
    _LN2_LO,
    _SQRT_HALF,
    AFFINITY_MAX_STEPS,
    ENTROPY_TOL,
    SpeakerMatrix,
    conditional_affinities,
)
from phonoscope.costs import KINDS

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


@pytest.fixture
def writer_processes(monkeypatch):
    """Every process started through subprocess.Popen while the test runs."""
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    return started


def reaped(proc) -> bool:
    """Whether proc has been waited for and both its pipes are closed."""
    try:
        os.waitpid(proc.pid, os.WNOHANG)
    except ChildProcessError:
        return proc.returncode is not None and proc.stdin.closed and proc.stdout.closed
    return False


@contextmanager
def no_resource_warning(processes):
    """Fails if the block, or dropping the processes it started, warns
    ResourceWarning (an unclosed pipe or a child still running)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        processes.clear()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


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
                                 tie_break=DEFAULT_TIE_BREAK) -> Alignment:
    """Full align() of every variant combination (oracle for align_min_variant).

    The first strict minimum in itertools.product order wins, so ties keep
    the lowest variant indices; the winner's chosen is its combination.
    """
    lattice = [[tuple(getattr(v, "phonemes", v)) for v in word]
               for word in expected_lattice]
    count = math.prod(len(word) for word in lattice)
    assert 0 < count <= ORACLE_MAX_COMBINATIONS, count
    best = None
    for choice in itertools.product(*[range(len(word)) for word in lattice]):
        expected = [p for word, v in zip(lattice, choice) for p in word[v]]
        candidate = align(expected, observed, costs, tie_break)
        if best is None or candidate.total_cost < best.total_cost:
            best = dataclasses.replace(candidate, chosen=choice)
    return best


def op_records(alignment) -> list[tuple[str, int, int, float]]:
    """Each op of an alignment as (kind, expected, observed, cost)."""
    return list(zip([KINDS[k] for k in alignment.kinds.tolist()],
                    alignment.expected.tolist(), alignment.observed.tolist(),
                    alignment.costs.tolist()))


def script(alignment) -> list[tuple[str, str, str]]:
    """Each op of an alignment as (kind, expected label, observed label)."""
    label = alignment.cost_matrix.inventory.label
    return [(kind, label(e), label(o)) for kind, e, o, _ in op_records(alignment)]


def make_group_vectors(seed=0, groups=6, per_group=4, dim=1600):
    """Synthetic (speaker id, values) rows: per-group templates plus small noise.

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
            vectors.append((sid, templates[g] + noise))
            labels[sid] = f"group{g}"
    return vectors, labels


def speaker_matrix(rows, k=0):
    """The (speaker id, values) rows stacked into a SpeakerMatrix, followed
    by k zero centroid rows; column j stands for cell j."""
    values = [np.asarray(v, dtype=np.float64) for _, v in rows]
    data = np.zeros((len(rows) + k, len(values[0]) if values else 0))
    data[:len(rows)] = values
    return SpeakerMatrix([sid for sid, _ in rows], data, np.arange(data.shape[1]))


fold = functools.partial(functools.reduce, operator.add)   # left to right


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Oracles for clustering's bounded-memory rewrite: the formulations that
# built full-size temporaries (an n x d difference per center or point, a
# data[members] copy, six n x n arrays in the KL). The rewrite does the same
# float operations in the same order, so results must match bit for bit.
# The distances are the exception: the library sums each one strictly left
# to right, as strict_sq_dists_full does, and the einsum formulations
# sq_dists_full and self_sq_dists_full, which sum in a build-dependent
# order, are references for its results within rounding.

def vectorize_full(counts, normalization):
    counts = counts.astype(np.float64)
    if normalization == "row_frequency":
        sums = counts.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        counts[nonzero] /= sums[nonzero]
    return counts.reshape(-1)


def strict_sq_dists_full(data, centers):
    """Squared distances over every column, each a left-to-right running
    sum of one full n x d array of squared differences per center."""
    out = np.empty((data.shape[0], centers.shape[0]))
    for j, center in enumerate(centers):
        diff = data - center
        diff *= diff
        out[:, j] = np.add.accumulate(diff, axis=1)[:, -1] if diff.shape[1] else 0.0
    return out


def sq_dists_full(data, centers):
    out = np.empty((data.shape[0], centers.shape[0]))
    for j, center in enumerate(centers):
        diff = data - center
        out[:, j] = np.einsum("ij,ij->i", diff, diff)
    return out


def self_sq_dists_full(data):
    n = data.shape[0]
    out = np.empty((n, n))
    for j in range(n):
        diff = data[j:] - data[j]
        out[j:, j] = np.einsum("ij,ij->i", diff, diff)
        out[j, j:] = out[j:, j]
    return out


# The affinity search one row and one Python float at a time, with exp and
# log written on math.ldexp and math.frexp: the same float operations as
# the library's fixed_exp, fixed_log and lockstep search, in the same order.

def scalar_exp(x):
    """clustering.fixed_exp of one float."""
    x = min(max(x, _EXP_MIN), _EXP_MAX)
    k = round(x * _INV_LN2)            # round half to even, as rint
    r = (x - k * _LN2_HI) - k * _LN2_LO
    poly = _EXP_TAYLOR[0]
    for coefficient in _EXP_TAYLOR[1:]:
        poly = poly * r + coefficient
    return math.ldexp(poly, k)


def scalar_log(x):
    """clustering.fixed_log of one float."""
    m, k = math.frexp(x)
    if m < _SQRT_HALF:
        m, k = m * 2.0, k - 1
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    lg1, lg2, lg3, lg4, lg5, lg6, lg7 = _LG
    R = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7))) + w * (lg2 + w * (lg4 + w * lg6))
    half_f2 = 0.5 * f * f
    return k * _LN2_HI - ((half_f2 - (s * (half_f2 + R) + k * _LN2_LO)) - f)


def reference_conditional_affinities(sq_dists, perplexity):
    """clustering.conditional_affinities one row at a time: bisection on
    beta until the entropy is within ENTROPY_TOL bits of the target."""
    n = len(sq_dists)
    target = scalar_log(perplexity) / _LN2
    P, entropies = np.zeros((n, n)), []
    for i, row in enumerate(sq_dists.tolist()):
        d = row[:i] + row[i + 1:]
        low = min(d)
        d = [x - low for x in d]
        beta, beta_min, beta_max = 1.0, -math.inf, math.inf
        for _ in range(AFFINITY_MAX_STEPS):
            w = [scalar_exp(x * -beta) for x in d]
            total = fold(w)
            entropy = (scalar_log(total) + beta * fold([x * y for x, y in zip(d, w)])
                       / total) / _LN2
            diff = entropy - target
            if abs(diff) <= ENTROPY_TOL:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == math.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -math.inf else (beta + beta_min) / 2.0
        P[i, [j for j in range(n) if j != i]] = [x / total for x in w]
        entropies.append(entropy)
    return P, np.array(entropies)


# The library's draws, one Python int at a time: SplitMix64 as published
# (Steele, Lea and Flood 2014), sharing nothing with its uint64 array code.

MASK64 = 2**64 - 1


def splitmix64(state, count):
    """The next count outputs of SplitMix64 from state, as Python ints."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_uniforms(seed, stream, count):
    """clustering._uniforms(seed, stream, count) as a list of floats."""
    state = (seed * 0x100000001B3 + stream) & MASK64
    return [(z >> 11) / 2**53 for z in splitmix64(state, count)]


def reference_initial_embedding(seed, n):
    """clustering.initial_embedding: each coordinate 1e-4 * (twelve uniforms
    summed left to right - 6)."""
    draws = reference_uniforms(seed, 2, 24 * n)
    coords = [1e-4 * (fold(draws[12 * c:12 * c + 12]) - 6.0) for c in range(2 * n)]
    return np.array(coords).reshape(n, 2)


def numpy_initial_embedding(seed, n):
    """t-SNE's start before its draws were SplitMix64: numpy's normal draws."""
    return np.random.default_rng(seed).normal(0.0, 1e-4, size=(n, 2))


def d2_pick(closest, u):
    """A row with probability proportional to closest: the first whose
    running sum exceeds u * total, or floor(u * n) if every entry is 0."""
    running = list(itertools.accumulate(closest.tolist()))
    total = running[-1]
    if total == 0.0:
        return min(int(u * len(running)), len(running) - 1)
    target = u * total
    return next((i for i, r in enumerate(running) if r > target), len(running) - 1)


def kmeans_full(data, k, seed, init, max_iter=300, rel_tol=1e-9):
    """k-means on the rows of data; returns (labels, centers, inertia_history)."""
    n = data.shape[0]
    if init == "kmeanspp":
        trials = 2 + int(math.log(k))
        draws = reference_uniforms(seed, 0, 1 + (k - 1) * trials)
        centers = np.empty((k, data.shape[1]))
        centers[0] = data[min(int(draws.pop(0) * n), n - 1)]
        closest = strict_sq_dists_full(data, centers[:1])[:, 0]
        for c in range(1, k):
            best = None
            for _ in range(trials):
                pick = d2_pick(closest, draws.pop(0))
                candidate = np.minimum(closest,
                                       strict_sq_dists_full(data, data[pick:pick + 1])[:, 0])
                if best is None or candidate.sum() < best[1].sum():
                    best = pick, candidate
            centers[c] = data[best[0]]
            closest = best[1]
    else:
        order = list(range(n))
        for i, u in enumerate(reference_uniforms(seed, 1, k)):
            j = i + int(u * (n - i))
            order[i], order[j] = order[j], order[i]
        centers = data[order[:k]].copy()
    dists = strict_sq_dists_full(data, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    history = [inertia]
    for _ in range(max_iter):
        for c in range(k):
            members = labels == c
            if members.any():
                centers[c] = data[members].mean(axis=0)
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                centers[c] = data[farthest]
                labels[farthest] = c
        dists = strict_sq_dists_full(data, centers)
        new_labels = dists.argmin(axis=1)
        new_inertia = float(dists[np.arange(n), new_labels].sum())
        history.append(new_inertia)
        converged = bool((new_labels == labels).all())
        plateau = abs(inertia - new_inertia) < rel_tol * max(inertia, 1e-30)
        labels, inertia = new_labels, new_inertia
        if converged or plateau:
            break
    return labels, centers, history


def symmetrized_affinities_full(conditional):
    n = conditional.shape[0]
    return (conditional + conditional.T) / (2.0 * n)


def kl_full(P, Y):
    num = strict_sq_dists_full(Y, Y)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    Q = num / num.sum()
    tiny = 1e-12
    mask = P > 0
    return float((P[mask] * np.log(np.maximum(P[mask], tiny)
                                   / np.maximum(Q[mask], tiny))).sum())


def tsne_full(data, perplexity, iterations, seed, learning_rate=200.0,
              early_exaggeration=12.0, exaggeration_iters=250,
              start=reference_initial_embedding):
    """tsne on the rows of data with the oracles above and the active
    kernel's descent from start(seed, n); returns (embedding, final KL,
    initial KL)."""
    cond, _ = conditional_affinities(strict_sq_dists_full(data, data), perplexity)
    P = symmetrized_affinities_full(cond)
    Y = start(seed, data.shape[0])
    initial_kl = kl_full(P, Y)
    Y = alignment._kernel.tsne_descend(P, Y, learning_rate, iterations,
                                       early_exaggeration, exaggeration_iters)
    return Y, kl_full(P, Y), initial_kl


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

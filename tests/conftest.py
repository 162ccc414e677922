import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from phonoscope import CostMatrix, PhonemeInventory, ValidationError, align, alignment
from phonoscope.alignment import DEFAULT_TIE_BREAK, VariantAlignment, _check_sequence
from phonoscope.clustering import SpeakerVector, conditional_affinities, pairwise_sq_dists

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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Oracles for clustering's bounded-memory rewrite: the formulations that
# built full-size temporaries (an n x d difference per center or point, a
# data[members] copy, six n x n arrays in the KL). The rewrite does the same
# float operations in the same order, so results must match bit for bit.

def vectorize_full(counts, normalization):
    counts = counts.astype(np.float64)
    if normalization == "row_frequency":
        sums = counts.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        counts[nonzero] /= sums[nonzero]
    return counts.reshape(-1)


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


def kmeans_full(data, k, seed, init, max_iter=300, rel_tol=1e-9):
    """k-means on the rows of data; returns (labels, centers, inertia_history)."""
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    if init == "kmeanspp":
        centers = np.empty((k, data.shape[1]))
        centers[0] = data[rng.integers(n)]
        closest = sq_dists_full(data, centers[:1])[:, 0]
        for c in range(1, k):
            total = closest.sum()
            idx = rng.integers(n) if total == 0.0 else rng.choice(n, p=closest / total)
            centers[c] = data[idx]
            closest = np.minimum(closest, sq_dists_full(data, centers[c:c + 1])[:, 0])
    else:
        centers = data[rng.choice(n, size=k, replace=False)].copy()
    dists = sq_dists_full(data, centers)
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
        dists = sq_dists_full(data, centers)
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
    num = pairwise_sq_dists(Y)
    num += 1.0
    np.divide(1.0, num, out=num)
    np.fill_diagonal(num, 0.0)
    Q = num / num.sum()
    tiny = 1e-12
    mask = P > 0
    return float((P[mask] * np.log(np.maximum(P[mask], tiny)
                                   / np.maximum(Q[mask], tiny))).sum())


def tsne_full(data, perplexity, iterations, seed, learning_rate=200.0,
              early_exaggeration=12.0, exaggeration_iters=250):
    """tsne on the rows of data with the oracles above and the active
    kernel's descent; returns (embedding, final KL, initial KL)."""
    cond, _ = conditional_affinities(self_sq_dists_full(data), perplexity)
    P = symmetrized_affinities_full(cond)
    Y = np.random.default_rng(seed).normal(0.0, 1e-4, size=(data.shape[0], 2))
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

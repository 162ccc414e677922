import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phonoscope import ValidationError, tsne
from phonoscope.clustering import (
    SpeakerVector,
    _self_sq_dists,
    _sq_dists,
    conditional_affinities,
    pairwise_sq_dists,
    symmetrized_affinities,
)

from .conftest import kernel_backend, make_group_vectors, same_bits


def simplex_vectors(n):
    """n mutually equidistant points: the standard-basis simplex."""
    return [SpeakerVector(f"p{i}", np.eye(n)[i]) for i in range(n)]


def test_three_equidistant_points():
    result = tsne(simplex_vectors(3), perplexity=1.5, iterations=50, seed=0)
    assert len(result.points) == 3
    for p in result.points:
        assert math.isfinite(p.x) and math.isfinite(p.y)
    D = pairwise_sq_dists(np.stack([v.values for v in simplex_vectors(3)]))
    P, _ = conditional_affinities(D, 1.5)
    off = P[P > 0]
    np.testing.assert_allclose(off, off[0])  # symmetry forces equal affinities
    S = symmetrized_affinities(P)
    np.testing.assert_allclose(S[S > 0], S[S > 0][0])


def test_equidistant_entropy_is_uniform_limit():
    """With all neighbors equidistant the conditional is uniform: H = log2(n-1)."""
    n = 6
    D = pairwise_sq_dists(np.stack([v.values for v in simplex_vectors(n)]))
    _, entropies = conditional_affinities(D, perplexity=2.0)
    np.testing.assert_allclose(entropies, math.log2(n - 1), atol=1e-12)


def test_affinity_search_hits_target_entropy():
    vectors, _ = make_group_vectors(seed=0)
    D = pairwise_sq_dists(np.stack([v.values for v in vectors]))
    P, entropies = conditional_affinities(D, perplexity=5.0)
    np.testing.assert_allclose(entropies, math.log2(5.0), atol=1e-5)
    assert (P >= 0).all()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_symmetrized_affinities_properties():
    vectors, _ = make_group_vectors(seed=1)
    D = pairwise_sq_dists(np.stack([v.values for v in vectors]))
    P, _ = conditional_affinities(D, perplexity=5.0)
    S = symmetrized_affinities(P)
    assert (S >= 0).all()
    np.testing.assert_allclose(S, S.T)
    assert abs(S.sum() - 1.0) < 1e-9


def test_preconditions():
    vectors, _ = make_group_vectors(seed=2)
    with pytest.raises(ValidationError):
        tsne(vectors[:2])
    with pytest.raises(ValidationError):
        tsne(vectors[:5], perplexity=4.0)  # needs perplexity < n-1
    with pytest.raises(ValidationError):
        tsne(vectors[:5], perplexity=5.0)


def test_kl_decreases_from_initialization():
    vectors, _ = make_group_vectors(seed=3)
    for seed in range(2):
        result = tsne(vectors, perplexity=5.0, seed=seed)
        assert result.kl_divergence < result.initial_kl


def test_groups_separate_in_embedding():
    vectors, labels = make_group_vectors(seed=4)
    result = tsne(vectors, perplexity=5.0, seed=0)
    coords = {p.speaker_id: np.array([p.x, p.y]) for p in result.points}
    intra, inter = [], []
    ids = [v.speaker_id for v in vectors]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = float(np.linalg.norm(coords[a] - coords[b]))
            (intra if labels[a] == labels[b] else inter).append(d)
    assert np.mean(inter) > np.mean(intra)


def test_deterministic_given_seed():
    vectors, _ = make_group_vectors(seed=5)
    a = tsne(vectors, iterations=120, seed=11)
    b = tsne(vectors, iterations=120, seed=11)
    assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]
    assert a.kl_divergence == b.kl_divergence


def test_point_ids_preserved_in_order():
    vectors, _ = make_group_vectors(seed=6)
    result = tsne(vectors, iterations=10, seed=0)
    assert [p.speaker_id for p in result.points] == [v.speaker_id for v in vectors]


def test_affinity_search_recovers_from_underflow():
    """Raw counts of a few hundred phonemes: at beta = 1 every weight
    exp(-d * beta) of every row underflows to zero. The search must lower
    beta until each row reaches the target entropy, not settle on a uniform
    row at maximum entropy."""
    rng = np.random.default_rng(0)
    data = rng.poisson(0.5, size=(60, 1600)).astype(np.float64)
    D = _self_sq_dists(data)
    off_diagonal = D[~np.eye(60, dtype=bool)]
    assert off_diagonal.min() > 745.2   # exp(-745.2) rounds to 0.0
    P, entropies = conditional_affinities(D, perplexity=5.0, entropy_tol=1e-5)
    assert np.abs(entropies - math.log2(5.0)).max() <= 1e-5
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


# Oracles: the formulations the library used before it was made faster.
# Each rewrite does the same float operations in the same order, so the
# results must match bit for bit. The t-SNE descent is the exception: it
# now sums in one fixed order, so its bitwise oracle is loop_descend and
# the first numpy loop, reference_tsne, is the reference for its quality.

def einsum_pairwise_sq_dists(data):
    diff = data[:, None, :] - data[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def reference_kl(P, Y):
    num = 1.0 / (1.0 + einsum_pairwise_sq_dists(Y))
    np.fill_diagonal(num, 0.0)
    Q = num / num.sum()
    mask = P > 0
    return float((P[mask] * np.log(np.maximum(P[mask], 1e-12)
                                   / np.maximum(Q[mask], 1e-12))).sum())


def reference_tsne(data, perplexity, iterations, seed, learning_rate=200.0,
                   early_exaggeration=12.0, exaggeration_iters=250):
    """The t-SNE loop as first written: einsum distances, every pair's input
    distance computed twice, P * early_exaggeration and an n x n np.diag
    temporary in every iteration, numpy's pairwise sums and a BLAS product
    for the gradient. Returns the embedding and the final KL."""
    n = data.shape[0]
    cond, _ = conditional_affinities(_sq_dists(data, data), perplexity)
    P = symmetrized_affinities(cond)
    rng = np.random.default_rng(seed)
    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    for it in range(iterations):
        exaggerating = it < exaggeration_iters
        P_eff = P * early_exaggeration if exaggerating else P
        momentum = 0.5 if exaggerating else 0.8
        num = 1.0 / (1.0 + einsum_pairwise_sq_dists(Y))
        np.fill_diagonal(num, 0.0)
        Q = num / num.sum()
        PQ = (P_eff - Q) * num
        grad = 4.0 * (np.diag(PQ.sum(axis=1)) - PQ) @ Y
        agree = (grad > 0) == (update > 0)
        gains[agree] *= 0.8
        gains[~agree] += 0.2
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        Y = Y + update
        Y = Y - Y.mean(axis=0)
    return Y, reference_kl(P, Y)


fold = functools.partial(functools.reduce, operator.add)   # left to right


def loop_descend(P, Y, learning_rate, iterations, early_exaggeration=12.0,
                 exaggeration_iters=250):
    """The fixed-order descent one Python float at a time: every sum is a
    left-to-right fold that starts from its first term."""
    n = len(Y)
    P, Y = P.tolist(), Y.tolist()
    P_exaggerated = [[p * early_exaggeration for p in row] for row in P]
    update = [[0.0, 0.0] for _ in range(n)]
    gains = [[1.0, 1.0] for _ in range(n)]
    for it in range(iterations):
        exaggerating = it < exaggeration_iters
        P_eff = P_exaggerated if exaggerating else P
        momentum = 0.5 if exaggerating else 0.8
        num = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j:
                    dx, dy = Y[i][0] - Y[j][0], Y[i][1] - Y[j][1]
                    num[i][j] = 1.0 / (dx * dx + dy * dy + 1.0)
        Z = fold([fold(row) for row in num])
        PQ = [[(P_eff[i][j] - num[i][j] / Z) * num[i][j] for j in range(n)]
              for i in range(n)]
        grad = []
        for i in range(n):
            # row i of 4 (diag(rowsum(PQ)) - PQ)
            row = [4.0 * fold(PQ[i]) if j == i else 4.0 * (0.0 - PQ[i][j])
                   for j in range(n)]
            grad.append([fold([c * Y[j][d] for j, c in enumerate(row)]) for d in (0, 1)])
        for i in range(n):
            for d in (0, 1):
                g, u = grad[i][d], update[i][d]
                gain = gains[i][d] * 0.8 if (g > 0) == (u > 0) else gains[i][d] + 0.2
                gains[i][d] = max(gain, 0.01)
                update[i][d] = momentum * u - learning_rate * gains[i][d] * g
                Y[i][d] += update[i][d]
        for d in (0, 1):
            mean = fold([Y[i][d] for i in range(n)]) / n
            for i in range(n):
                Y[i][d] -= mean
    return np.array(Y)


def fixed_order_tsne(data, perplexity, iterations, seed):
    """tsne's steps around the descent as first written, with loop_descend.
    Returns the embedding and the final KL."""
    cond, _ = conditional_affinities(_sq_dists(data, data), perplexity)
    P = symmetrized_affinities(cond)
    Y = np.random.default_rng(seed).normal(0.0, 1e-4, size=(data.shape[0], 2))
    Y = loop_descend(P, Y, 200.0, iterations)
    return Y, reference_kl(P, Y)


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                  elements=finite),
       st.sampled_from([1e-5, 1.0, 1e3]))
@example(np.zeros((3, 2)), 1.0)
def test_pairwise_sq_dists_matches_einsum_in_two_dimensions(Y, scale):
    Y = Y * scale
    assert same_bits(pairwise_sq_dists(Y), einsum_pairwise_sq_dists(Y))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(0, 60)),
                  elements=finite))
def test_pairwise_sq_dists_any_dimension(data):
    """Beyond two coordinates the sum runs in another order than einsum's,
    so it may differ by the rounding of one addition per coordinate."""
    got, want = pairwise_sq_dists(data), einsum_pairwise_sq_dists(data)
    if data.shape[1] <= 2:
        assert same_bits(got, want)
    np.testing.assert_allclose(got, want, rtol=data.shape[1] * 2.3e-16, atol=0)
    assert same_bits(got, got.T) and not np.diagonal(got).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 1700),
       st.booleans())
def test_input_distances_computed_once_per_pair(seed, n, dim, counts):
    rng = np.random.default_rng(seed)
    if counts:
        data = rng.poisson(0.5, size=(n, dim)).astype(np.float64)
    else:
        data = rng.normal(0.0, 10.0 ** rng.uniform(-5, 3), size=(n, dim))
    assert same_bits(_self_sq_dists(data), _sq_dists(data, data))


@pytest.mark.parametrize("n, perplexity, iterations, examples", [
    (3, 1.5, 1000, 5), (7, 3.0, 1000, 5), (43, 5.0, 1000, 2), (203, 5.0, 300, 1),
])
def test_tsne_matches_reference_loop(n, perplexity, iterations, examples):
    # no shrinking: each example runs the Python loop for seconds
    @settings(max_examples=examples, deadline=None, derandomize=True,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.integers(0, 2**32 - 1), st.sampled_from([40, 1681]),
           st.sampled_from([0.05, 0.5, 3.0]))
    def check(seed, dim, rate):
        data = np.random.default_rng(seed).poisson(rate, size=(n, dim)).astype(float)
        vectors = [SpeakerVector(f"s{i}", row) for i, row in enumerate(data)]
        Y, kl = fixed_order_tsne(data, perplexity, iterations, seed % 1000)
        for kernel in ("pure", "compiled"):
            with kernel_backend(kernel):
                result = tsne(vectors, perplexity=perplexity, iterations=iterations,
                              seed=seed % 1000)
            assert same_bits([(p.x, p.y) for p in result.points], Y), kernel
            assert same_bits(result.kl_divergence, kl), kernel

    check()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 43), st.integers(1, 60),
       st.floats(0.0, 0.999), st.sampled_from([0, 1, 2, 40, 300]),
       st.sampled_from([10.0, 200.0, 1e308]), st.sampled_from([1.0, 12.0]))
@example(0, 3, 1, 0.5, 0, 1e308, 12.0)
@example(2, 10, 5, 0.5, 300, 1e308, 12.0)
@example(1, 43, 60, 0.999, 300, 200.0, 12.0)
def test_backends_agree(seed, n, dim, fraction, iterations, learning_rate,
                        early_exaggeration):
    """The compiled and the pure descent give the same bits, or both raise."""
    data = np.random.default_rng(seed).poisson(0.5, size=(n, dim)).astype(float)
    vectors = [SpeakerVector(f"s{i}", row) for i, row in enumerate(data)]
    outcomes = []
    for kernel in ("compiled", "pure"):
        with kernel_backend(kernel):
            try:
                result = tsne(vectors, perplexity=1.0 + fraction * (n - 2),
                              learning_rate=learning_rate, iterations=iterations,
                              seed=seed % 1000, early_exaggeration=early_exaggeration)
            except ValidationError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(([(p.x, p.y) for p in result.points],
                                 result.kl_divergence, result.initial_kl))
    compiled, pure = outcomes
    if learning_rate == 1e308 and iterations > 0:
        assert compiled == pure == "t-SNE diverged; lower the learning rate"
    elif isinstance(compiled, str):
        assert compiled == pure
    else:
        assert all(same_bits(a, b) for a, b in zip(compiled, pure))


def test_compiled_descent_rejects_bad_arguments():
    _dpcore = pytest.importorskip("phonoscope._dpcore")
    P, Y = np.zeros((3, 3)), np.zeros((3, 2))
    for bad_P, bad_Y in ((P, Y[:2]), (P[:2], Y), (P, np.zeros((3, 3))),
                         (np.zeros((0, 0)), np.zeros((0, 2))), (P.tolist(), Y),
                         (P, Y.astype(np.float32))):
        with pytest.raises(ValueError):
            _dpcore.tsne_descend(bad_P, bad_Y, 200.0, 10, 12.0, 250)
    with pytest.raises(ValueError):
        _dpcore.tsne_descend(P, Y, 200.0, 2**64, 12.0, 250)


def test_fixed_order_keeps_the_quality_of_the_reference_loop():
    """The fixed summation order changes the embedding, not how well it fits:
    over ten seeds the median final KL stays within 5% of the first loop's."""
    data = np.random.default_rng(7).poisson(0.5, size=(43, 1681)).astype(float)
    vectors = [SpeakerVector(f"s{i}", row) for i, row in enumerate(data)]
    fixed = [tsne(vectors, seed=seed).kl_divergence for seed in range(10)]
    first = [reference_tsne(data, 5.0, 1000, seed)[1] for seed in range(10)]
    assert abs(np.median(fixed) / np.median(first) - 1.0) <= 0.05, (fixed, first)

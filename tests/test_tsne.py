import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phonoscope import ValidationError, _dppy, tsne
from phonoscope.clustering import (
    conditional_affinities,
    fixed_exp,
    fixed_log,
    sq_dists,
    symmetrized_affinities,
)

from .conftest import (
    fold,
    kernel_backend,
    make_group_vectors,
    numpy_initial_embedding,
    reference_conditional_affinities,
    reference_initial_embedding,
    same_bits,
    scalar_exp,
    scalar_log,
    speaker_matrix,
    strict_sq_dists_full,
    tsne_full,
)


def simplex_vectors(n):
    """n mutually equidistant points: the standard-basis simplex."""
    return [(f"p{i}", np.eye(n)[i]) for i in range(n)]


def test_three_equidistant_points():
    result = tsne(speaker_matrix(simplex_vectors(3)), perplexity=1.5, iterations=50,
                  seed=0)
    assert len(result.points) == 3
    for p in result.points:
        assert math.isfinite(p.x) and math.isfinite(p.y)
    X = np.stack([v for _, v in simplex_vectors(3)])
    D = sq_dists(X, X)
    P, _ = conditional_affinities(D, 1.5)
    off = P[P > 0]
    np.testing.assert_allclose(off, off[0])  # symmetry forces equal affinities
    S = symmetrized_affinities(P)
    np.testing.assert_allclose(S[S > 0], S[S > 0][0])


def test_equidistant_entropy_is_uniform_limit():
    """With all neighbors equidistant the conditional is uniform: H = log2(n-1)."""
    n = 6
    X = np.stack([v for _, v in simplex_vectors(n)])
    D = sq_dists(X, X)
    _, entropies = conditional_affinities(D, perplexity=2.0)
    np.testing.assert_allclose(entropies, math.log2(n - 1), atol=1e-12)


def test_affinity_search_hits_target_entropy():
    vectors, _ = make_group_vectors(seed=0)
    X = np.stack([v for _, v in vectors])
    D = sq_dists(X, X)
    P, entropies = conditional_affinities(D, perplexity=5.0)
    np.testing.assert_allclose(entropies, math.log2(5.0), atol=1e-5)
    assert (P >= 0).all()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_symmetrized_affinities_properties():
    vectors, _ = make_group_vectors(seed=1)
    X = np.stack([v for _, v in vectors])
    D = sq_dists(X, X)
    P, _ = conditional_affinities(D, perplexity=5.0)
    S = symmetrized_affinities(P)
    assert (S >= 0).all()
    np.testing.assert_allclose(S, S.T)
    assert abs(S.sum() - 1.0) < 1e-9


def test_preconditions():
    vectors, _ = make_group_vectors(seed=2)
    with pytest.raises(ValidationError):
        tsne(speaker_matrix(vectors[:2]))
    with pytest.raises(ValidationError):
        tsne(speaker_matrix(vectors[:5]), perplexity=4.0)  # needs perplexity < n-1
    with pytest.raises(ValidationError):
        tsne(speaker_matrix(vectors[:5]), perplexity=5.0)


def test_kl_decreases_from_initialization():
    vectors, _ = make_group_vectors(seed=3)
    for seed in range(2):
        result = tsne(speaker_matrix(vectors), perplexity=5.0, seed=seed)
        assert result.kl_divergence < result.initial_kl


def test_groups_separate_in_embedding():
    vectors, labels = make_group_vectors(seed=4)
    result = tsne(speaker_matrix(vectors), perplexity=5.0, seed=0)
    coords = {p.speaker_id: np.array([p.x, p.y]) for p in result.points}
    intra, inter = [], []
    ids = [sid for sid, _ in vectors]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = float(np.linalg.norm(coords[a] - coords[b]))
            (intra if labels[a] == labels[b] else inter).append(d)
    assert np.mean(inter) > np.mean(intra)


def test_deterministic_given_seed():
    vectors, _ = make_group_vectors(seed=5)
    a = tsne(speaker_matrix(vectors), iterations=120, seed=11)
    b = tsne(speaker_matrix(vectors), iterations=120, seed=11)
    assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]
    assert a.kl_divergence == b.kl_divergence


def test_point_ids_preserved_in_order():
    vectors, _ = make_group_vectors(seed=6)
    result = tsne(speaker_matrix(vectors), iterations=10, seed=0)
    assert [p.speaker_id for p in result.points] == [sid for sid, _ in vectors]


def test_affinity_search_recovers_from_underflow():
    """Raw counts of a few hundred phonemes: at beta = 1 every weight
    exp(-d * beta) of every row underflows to zero. The search must lower
    beta until each row reaches the target entropy, not settle on a uniform
    row at maximum entropy."""
    rng = np.random.default_rng(0)
    data = rng.poisson(0.5, size=(60, 1600)).astype(np.float64)
    D = sq_dists(data, data)
    off_diagonal = D[~np.eye(60, dtype=bool)]
    assert off_diagonal.min() > 745.2   # exp(-745.2) rounds to 0.0
    P, entropies = conditional_affinities(D, perplexity=5.0)
    assert np.abs(entropies - math.log2(5.0)).max() <= 1e-5
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


# Oracles: the formulations the library used before it was made faster.
# Each rewrite does the same float operations in the same order, so the
# results must match bit for bit. The t-SNE descent and the distances are
# the exceptions: both now sum in one fixed order, so their bitwise oracles
# are loop_descend and strict left-to-right sums, and the einsum distances
# and the first numpy loop, reference_tsne, are the references for their
# results and quality.

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
    """The t-SNE loop as first written, from the library's input distances
    and affinities: P * early_exaggeration and an n x n np.diag temporary
    in every iteration, numpy's pairwise sums and a BLAS product for the
    gradient. Returns the embedding and the final KL."""
    n = data.shape[0]
    cond, _ = conditional_affinities(sq_dists(data, data), perplexity)
    P = symmetrized_affinities(cond)
    Y = numpy_initial_embedding(seed, n)
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
    cond, _ = conditional_affinities(sq_dists(data, data), perplexity)
    P = symmetrized_affinities(cond)
    Y = reference_initial_embedding(seed, data.shape[0])
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
    assert same_bits(sq_dists(Y, Y), einsum_pairwise_sq_dists(Y))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(0, 60)),
                  elements=finite))
def test_pairwise_sq_dists_any_dimension(data):
    """Beyond two coordinates the sum runs in another order than einsum's,
    so it may differ by the rounding of one addition per coordinate."""
    got, want = sq_dists(data, data), einsum_pairwise_sq_dists(data)
    if data.shape[1] <= 2:
        assert same_bits(got, want)
    np.testing.assert_allclose(got, want, rtol=data.shape[1] * 2.3e-16, atol=0)
    assert same_bits(got, got.T) and not np.diagonal(got).any()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 1700),
       st.booleans())
def test_input_distances_are_symmetric(seed, n, dim, counts):
    """t-SNE's input distances, data against itself: (a - b)**2 equals
    (b - a)**2 exactly, so the matrix is symmetric with a zero diagonal,
    and each entry is the strict left-to-right sum over every column."""
    rng = np.random.default_rng(seed)
    if counts:
        data = rng.poisson(0.5, size=(n, dim)).astype(np.float64)
    else:
        data = rng.normal(0.0, 10.0 ** rng.uniform(-5, 3), size=(n, dim))
    D = sq_dists(data, data)
    assert same_bits(D, D.T) and not np.diagonal(D).any()
    assert same_bits(D, strict_sq_dists_full(data, data))


def float_keys(values):
    """Integers that order float64 values as the floats do, one step per
    float, so the difference of two keys is a distance in ULPs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, np.int64(-2**63) - bits, bits)


def test_fixed_exp_is_within_one_ulp_of_math_exp():
    """Over every finite result, subnormal ones included (x below
    -708.4), and bitwise the scalar oracle's."""
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-745.2, 709.7, 100_001),
                        rng.uniform(-745.2, -708.0, 20_000),
                        rng.uniform(-1.0, 1.0, 20_000), [-0.0, 0.0, -745.1, -746.0]])
    got = fixed_exp(x)
    want = np.array([math.exp(v) for v in x.tolist()])
    assert np.abs(float_keys(got) - float_keys(want)).max() <= 1
    assert (got[x < -708.4] < 2.0**-1022).all() and got[x < -708.4].any()
    assert same_bits(got, [scalar_exp(v) for v in x.tolist()])
    buffer = x.copy()
    assert fixed_exp(buffer, out=buffer) is buffer and same_bits(buffer, got)


def test_fixed_log_is_within_one_ulp_of_math_log():
    """Over every binade, subnormal inputs included, and close to 1,
    and bitwise the scalar oracle's."""
    rng = np.random.default_rng(1)
    x = np.concatenate([np.ldexp(rng.uniform(0.5, 1.0, 100_000),
                                 rng.integers(-1073, 1025, 100_000)),
                        1.0 + rng.uniform(-0.3, 0.42, 20_000),
                        rng.uniform(1.0, 500.0, 20_000),
                        [5e-324, 2.0**-1022, 0.5, 1.0, 2.0, 5.0, 1.7976931348623157e308]])
    got = fixed_log(x)
    want = np.array([math.log(v) for v in x.tolist()])
    assert np.abs(float_keys(got) - float_keys(want)).max() <= 1
    assert same_bits(got, [scalar_log(v) for v in x.tolist()])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 12), st.integers(1, 40),
       st.sampled_from(["counts", "normal", "huge", "equidistant"]),
       st.floats(0.0, 0.999))
@example(0, 12, 40, "huge", 0.5)
@example(0, 6, 6, "equidistant", 0.3)
def test_lockstep_search_matches_one_row_at_a_time(seed, n, dim, kind, fraction):
    """Every row stepping at once gives the bits of the search run one row
    and one Python float at a time, converged rows, rows that reach
    AFFINITY_MAX_STEPS and far-apart rows alike."""
    rng = np.random.default_rng(seed)
    if kind == "counts":
        data = rng.poisson(0.5, size=(n, dim)).astype(np.float64)
    elif kind == "normal":
        data = rng.normal(0.0, 10.0 ** rng.uniform(-3, 2), size=(n, dim))
    elif kind == "huge":
        data = rng.poisson(30.0, size=(n, dim)).astype(np.float64)
    else:
        data = np.eye(n, max(n, dim))
    D = sq_dists(data, data)
    perplexity = 1.0 + fraction * (n - 2)
    P, entropies = conditional_affinities(D, perplexity)
    want_P, want_entropies = reference_conditional_affinities(D, perplexity)
    assert same_bits(P, want_P)
    assert same_bits(entropies, want_entropies)


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
        speakers = speaker_matrix([(f"s{i}", row) for i, row in enumerate(data)])
        Y, kl = fixed_order_tsne(data, perplexity, iterations, seed % 1000)
        for kernel in ("pure", "compiled"):
            with kernel_backend(kernel):
                result = tsne(speakers, perplexity=perplexity, iterations=iterations,
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
    speakers = speaker_matrix([(f"s{i}", row) for i, row in enumerate(data)])
    outcomes = []
    for kernel in ("compiled", "pure"):
        with kernel_backend(kernel):
            try:
                result = tsne(speakers, perplexity=1.0 + fraction * (n - 2),
                              learning_rate=learning_rate, iterations=iterations,
                              seed=seed % 1000, early_exaggeration=early_exaggeration)
            except ValidationError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append(([(p.x, p.y) for p in result.points],
                                 result.kl_divergence, result.initial_kl))
    compiled, pure = outcomes
    if learning_rate == 1e308 and iterations > 0:
        assert compiled == pure == ("t-SNE diverged; lower the learning rate or "
                                    "the early exaggeration")
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
    # both twins read P as symmetric, bit for bit: -0.0 is not 0.0 here
    for entry in (0.1, -0.0):
        asymmetric = P.copy()
        asymmetric[0, 2] = entry
        for twin in (_dpcore, _dppy):
            with pytest.raises(ValueError, match="^affinities must equal their "
                                                 "transpose bit for bit$"):
                twin.tsne_descend(asymmetric, Y, 200.0, 10, 12.0, 250)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 203])
def test_compiled_descent_matches_the_numpy_twin(n):
    """The C descent, which computes each pair once and sums down the
    columns, gives the numpy twin's bits through both phases. The sizes
    cover the vector loops' tails and every remainder of the gradient's
    four-row blocks; n = 1 has Z = 0, so both give NaN."""
    _dpcore = pytest.importorskip("phonoscope._dpcore")
    rng = np.random.default_rng(n)
    P = rng.random((n, n))
    P += P.T
    np.fill_diagonal(P, 0.0)
    if n > 1:
        P /= P.sum()
    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    with np.errstate(invalid="ignore"):
        compiled = _dpcore.tsne_descend(P, Y, 200.0, 60, 12.0, 30)
        pure = _dppy.tsne_descend(P, Y, 200.0, 60, 12.0, 30)
    assert same_bits(compiled, pure)
    assert np.isfinite(compiled).all() == (n > 1)


QUALITY_DATA = np.random.default_rng(7).poisson(0.5, size=(43, 1681)).astype(float)


def test_fixed_order_keeps_the_quality_of_the_reference_loop():
    """The fixed summation order changes the embedding, not how well it fits:
    over ten seeds, both started from numpy's normal draws, the median final
    KL stays within 5% of the first loop's."""
    fixed = [tsne_full(QUALITY_DATA, 5.0, 1000, seed, start=numpy_initial_embedding)[1]
             for seed in range(10)]
    first = [reference_tsne(QUALITY_DATA, 5.0, 1000, seed)[1] for seed in range(10)]
    assert abs(np.median(fixed) / np.median(first) - 1.0) <= 0.05, (fixed, first)


def test_splitmix_start_keeps_the_quality_of_normal_draws():
    """Starting from Irwin-Hall coordinates instead of numpy's normal draws
    changes the embedding, not how well it fits: over forty seeds the median
    final KL stays within 5% of the same descent from the normal start."""
    speakers = speaker_matrix([(f"s{i}", row) for i, row in enumerate(QUALITY_DATA)])
    splitmix = [tsne(speakers, seed=seed).kl_divergence for seed in range(40)]
    normal = [tsne_full(QUALITY_DATA, 5.0, 1000, seed, start=numpy_initial_embedding)[1]
              for seed in range(40)]
    assert abs(np.median(splitmix) / np.median(normal) - 1.0) <= 0.05, (splitmix, normal)

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phonoscope import (
    ConfusionMatrix,
    PhonemeInventory,
    SpeakerProfile,
    ValidationError,
    cli,
    kmeans,
    purity,
    tsne,
)
from phonoscope._dppy import SQ_DISTS_BLOCK
from phonoscope.clustering import (
    RAW_COUNTS,
    ROW_FREQUENCY,
    SpeakerMatrix,
    _d2_picks,
    _init_forgy,
    _uniforms,
    initial_embedding,
    sq_dists,
)
from phonoscope.manifest import RunConfig

from .conftest import (
    fold,
    kernel_backend,
    kmeans_full,
    make_group_vectors,
    reference_initial_embedding,
    reference_uniforms,
    same_bits,
    self_sq_dists_full,
    speaker_matrix,
    splitmix64,
    sq_dists_full,
    strict_sq_dists_full,
    tsne_full,
    vectorize_full,
)

INV = PhonemeInventory.default()


def profile_row(matrix, normalization=RAW_COUNTS):
    """The one row SpeakerMatrix.from_profiles gives a profile of matrix,
    spread back over the whole grid: zero at every cell the row omits."""
    speakers = SpeakerMatrix.from_profiles([SpeakerProfile("s", matrix)], normalization)
    row = np.zeros(matrix.counts.size)
    row[speakers.cells] = speakers.data[0]
    return row


def test_vectorize_zero_matrix():
    v = profile_row(ConfusionMatrix(INV))
    assert v.shape == (1600,)
    assert not v.any()


def test_vectorize_row_major_indexing():
    m = ConfusionMatrix(INV)
    m.counts[0, 1] = 5
    assert profile_row(m)[1] == 5.0
    m2 = ConfusionMatrix(INV)
    m2.counts[2, 3] = 7
    assert profile_row(m2)[2 * 40 + 3] == 7.0


def test_vectorize_row_frequency_sums():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 9, size=(40, 40))
    counts[INV.epsilon_index, INV.epsilon_index] = 0
    counts[5] = 0  # force an empty row
    m = ConfusionMatrix(INV, counts)
    v = profile_row(m, "row_frequency")
    for r in range(40):
        span = v[r * 40:(r + 1) * 40]
        row_total = counts[r].sum()
        if row_total == 0:
            assert span.sum() == 0.0
        else:
            assert abs(span.sum() - 1.0) < 1e-12
            # recompute independently from the source counts
            np.testing.assert_allclose(span, counts[r] / row_total)


def test_vectorize_profile_carries_id():
    p = SpeakerProfile("spk_7", ConfusionMatrix(INV))
    assert SpeakerMatrix.from_profiles([p]).speaker_ids == ["spk_7"]


def test_from_profiles_refuses_profiles_over_different_inventories():
    for other in (PhonemeInventory(INV.symbols[::-1]), PhonemeInventory(("T", "D", "<eps>"))):
        profiles = [SpeakerProfile("a", ConfusionMatrix(INV)),
                    SpeakerProfile("b", ConfusionMatrix(other))]
        with pytest.raises(ValidationError, match="different inventories"):
            SpeakerMatrix.from_profiles(profiles)


def test_vectorize_injective_on_random_matrices():
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(60):
        counts = rng.integers(0, 4, size=(40, 40))
        counts[INV.epsilon_index, INV.epsilon_index] = 0
        v = profile_row(ConfusionMatrix(INV, counts))
        seen.add(v.tobytes())
    assert len(seen) == 60  # distinct matrices gave distinct vectors


def test_vectorize_rejects_unknown_normalization():
    with pytest.raises(ValidationError):
        profile_row(ConfusionMatrix(INV), "zscore")
    with pytest.raises(ValidationError, match="unknown normalization 'zscore'"):
        SpeakerMatrix.from_profiles([], "zscore", centroids=2)


def test_from_profiles_refuses_fewer_than_zero_centroid_rows():
    profiles = [SpeakerProfile("a", ConfusionMatrix(INV))]
    with pytest.raises(ValidationError, match="centroid rows -1"):
        SpeakerMatrix.from_profiles(profiles, centroids=-1)


def test_from_profiles_keeps_the_counted_cells_in_grid_order():
    """Only cells some profile counts get a column, numbered as an
    alignment's cells, expected * n + observed."""
    n = len(INV)
    a, b = ConfusionMatrix(INV), ConfusionMatrix(INV)
    a.counts[3, 1], a.counts[0, 2] = 4, 1
    b.counts[0, 2], b.counts[2, 0] = 5, 2
    speakers = SpeakerMatrix.from_profiles(
        [SpeakerProfile("a", a), SpeakerProfile("b", b)], centroids=1)
    assert speakers.cells.tolist() == [2, 2 * n, 3 * n + 1]
    assert speakers.data.tolist() == [[1.0, 0.0, 4.0], [5.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
    empty = SpeakerMatrix.from_profiles([SpeakerProfile("c", ConfusionMatrix(INV))] * 3,
                                        ROW_FREQUENCY, centroids=2)
    assert empty.data.shape == (5, 0) and empty.cells.shape == (0,)


def vecs(arrays, k):
    return speaker_matrix([(f"v{i}", a) for i, a in enumerate(arrays)], k)


def test_kmeans_k1_closed_form():
    data = [[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]]
    result = kmeans(vecs(data, 1), k=1, seed=0)
    mean = np.mean(data, axis=0)
    np.testing.assert_allclose(result.centroids[0], mean)
    expected_inertia = sum(((np.array(p) - mean) ** 2).sum() for p in data)
    assert abs(result.inertia - expected_inertia) < 1e-9


def test_kmeans_two_points_two_clusters():
    result = kmeans(vecs([[0.0, 0.0], [5.0, 5.0]], 2), k=2, seed=3)
    assert result.inertia == 0.0
    assert sorted(result.assignments.values()) == [0, 1]


def test_kmeans_k_out_of_range():
    with pytest.raises(ValidationError):
        kmeans(vecs([[1.0], [2.0]], 3), k=3)
    with pytest.raises(ValidationError):
        kmeans(vecs([[1.0], [2.0]], 0), k=0)


def test_kmeans_recovers_groups_across_seeds():
    vectors, labels = make_group_vectors(seed=0)
    for seed in range(10):
        result = kmeans(speaker_matrix(vectors, 6), k=6, seed=seed)
        assert purity(result, labels) == 1.0


def test_greedy_kmeanspp_recovers_groups_for_fifty_seeds():
    vectors, labels = make_group_vectors(seed=0)
    missed = [seed for seed in range(50)
              if purity(kmeans(speaker_matrix(vectors, 6), k=6, seed=seed), labels) != 1.0]
    assert missed == []


def test_kmeans_inertia_never_increases():
    vectors, _ = make_group_vectors(seed=1)
    result = kmeans(speaker_matrix(vectors, 6), k=6, seed=0)
    for earlier, later in zip(result.inertia_history, result.inertia_history[1:]):
        assert later <= earlier


def test_kmeans_deterministic_given_seed():
    vectors, _ = make_group_vectors(seed=2)
    a = kmeans(speaker_matrix(vectors, 6), k=6, seed=9)
    b = kmeans(speaker_matrix(vectors, 6), k=6, seed=9)
    assert a.assignments == b.assignments
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_forgy_init():
    vectors, labels = make_group_vectors(seed=3)
    result = kmeans(speaker_matrix(vectors, 6), k=6, seed=1, init="forgy")
    assert set(result.assignments.values()) <= set(range(6))
    assert result.inertia >= 0.0


def test_kmeans_fixpoint_assignments_are_nearest():
    vectors, _ = make_group_vectors(seed=4)
    result = kmeans(speaker_matrix(vectors, 6), k=6, seed=2)
    data = np.stack([values for _, values in vectors])
    d = ((data[:, None, :] - result.centroids[None]) ** 2).sum(-1)
    nearest = d.argmin(axis=1)
    got = np.array([result.assignments[sid] for sid, _ in vectors])
    np.testing.assert_array_equal(nearest, got)


def test_kmeans_handles_duplicate_points():
    data = [[0.0, 0.0]] * 4 + [[9.0, 9.0]]
    result = kmeans(vecs(data, 3), k=3, seed=0)
    assert set(result.assignments.values()) <= {0, 1, 2}
    assert np.isfinite(result.inertia)


def test_kmeans_unknown_init():
    with pytest.raises(ValidationError):
        kmeans(vecs([[1.0], [2.0]], 1), k=1, init="random++")


def test_purity_perfect_and_degenerate():
    vectors, labels = make_group_vectors(seed=5)
    perfect = kmeans(speaker_matrix(vectors, 6), k=6, seed=0)
    assert purity(perfect, labels) == 1.0
    collapsed = kmeans(speaker_matrix(vectors, 1), k=1, seed=0)
    assert purity(collapsed, labels) == 4 / 24


def test_purity_missing_label():
    vectors, labels = make_group_vectors(seed=6)
    result = kmeans(speaker_matrix(vectors, 6), k=6, seed=0)
    del labels[vectors[0][0]]
    with pytest.raises(ValidationError):
        purity(result, labels)


def test_reference_splitmix64_gives_the_published_outputs():
    assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
    assert splitmix64(1234567, 3) == [0x599ED017FB08FC85, 0x2C73F08458540FA5,
                                      0x883EBCE5A3F27C77]


seeds = st.one_of(st.integers(0, 2**64 + 2**20), st.integers(2**63 - 2**20, 2**63 + 2**20))


@settings(max_examples=300, deadline=None)
@given(seeds, st.integers(0, 2), st.integers(0, 80))
@example(0, 0, 3)
@example(2**63, 2, 5)
@example(2**64 - 1, 1, 7)
def test_uniforms_match_the_reference_bit_for_bit(seed, stream, count):
    draws = _uniforms(seed, stream, count)
    assert same_bits(draws, reference_uniforms(seed, stream, count))
    assert ((0.0 <= draws) & (draws < 1.0)).all()


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(1, 20))
def test_initial_embedding_matches_the_reference(seed, n):
    assert same_bits(initial_embedding(seed, n), reference_initial_embedding(seed, n))


def test_d2_picks_take_the_first_running_sum_above_the_draw():
    """Running sums 0, 0, 1, 1, 4: a pick never lands on a row of distance 0,
    not even for u = 0; with every distance 0 the pick is floor(u * n)."""
    closest = np.array([0.0, 0.0, 1.0, 0.0, 3.0])
    assert _d2_picks(closest, np.array([0.0, 0.2, 0.25, 0.999])).tolist() == [2, 2, 4, 4]
    assert _d2_picks(np.zeros(4), np.array([0.0, 0.5, 0.999])).tolist() == [0, 2, 3]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.floats(0.0, 1.0), seeds)
@example(1, 1.0, 0)
@example(60, 1.0, 2**63)
def test_forgy_picks_k_distinct_rows(n, fraction, seed):
    k = max(1, round(fraction * n))
    data = np.arange(n, dtype=np.float64)[:, None]
    centers = np.empty((k, 1))
    _init_forgy(data, centers, seed)
    assert len(set(centers[:, 0].tolist())) == k


def random_grids(rng, count):
    """count random count grids over INV, each a valid ConfusionMatrix."""
    grids = rng.poisson(rng.choice([0.05, 0.5, 3.0]), size=(count, len(INV), len(INV)))
    grids[:, INV.epsilon_index, INV.epsilon_index] = 0
    return grids


def test_blocked_distances_cross_block_boundaries():
    """70 rows of 1600 floats are summed, by the numpy kernel,
    SQ_DISTS_BLOCK // (70 * 3) = 312 columns at a time against 3 centers
    and SQ_DISTS_BLOCK // 70**2 = 13 against themselves, and by the C
    kernel 2**13 // 70 = 117 columns at a time, so each sum crosses
    blocks. The strict full sums
    agree bit for bit; the einsum formulations, which sum in another order,
    agree within the rounding of one addition per column."""
    rng = np.random.default_rng(3)
    data = random_grids(rng, 70).reshape(70, -1).astype(np.float64)
    centers = data[[0, 25, 69]] + 0.5
    columns = data.shape[1]
    assert columns > 2 * (SQ_DISTS_BLOCK // (70 * 3))
    got = sq_dists(data, centers)
    assert same_bits(got, strict_sq_dists_full(data, centers))
    np.testing.assert_allclose(got, sq_dists_full(data, centers),
                               rtol=columns * 2.3e-16, atol=0)
    got = sq_dists(data, data)
    assert same_bits(got, strict_sq_dists_full(data, data))
    np.testing.assert_allclose(got, self_sq_dists_full(data),
                               rtol=columns * 2.3e-16, atol=0)


def matrices_with_zero_columns(rows):
    """A (rows, dim) float matrix, zeros frequent, some columns all zero."""
    element = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False))
    return st.integers(0, 30).flatmap(
        lambda dim: st.tuples(hnp.arrays(np.float64, (rows, dim), elements=element),
                              st.lists(st.booleans(), min_size=dim, max_size=dim)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
@example(1, 1, None)
def test_sq_dists_is_a_strict_left_to_right_sum(na, nb, data):
    """Every distance equals the left-to-right sum of (a[i, c] - b[j, c])**2
    over every column c, one Python float at a time, all-zero columns
    included."""
    if data is None:   # n = 1 against an all-zero matrix
        a, b = np.zeros((1, 5)), np.zeros((1, 5))
    else:
        a, zero = data.draw(matrices_with_zero_columns(na))
        b = data.draw(hnp.arrays(np.float64, (nb, a.shape[1]),
                                 elements=st.floats(-1e3, 1e3, allow_nan=False)))
        a[:, zero] = 0.0
        b[:, zero] = 0.0
    want = [[fold([0.0] + [(x - y) * (x - y) for x, y in zip(row_a, row_b)])
             for row_b in b.tolist()] for row_a in a.tolist()]
    assert same_bits(sq_dists(a, b), want)
    want_self = [[fold([0.0] + [(x - y) * (x - y) for x, y in zip(row_a, row_b)])
                  for row_b in a.tolist()] for row_a in a.tolist()]
    assert same_bits(sq_dists(a, a), want_self)


def same_bits_or_nan(a, b) -> bool:
    """same_bits, with every NaN taken as one value: IEEE leaves a NaN
    result's payload to the operand order, which the compiler may swap in
    an addition, and no NaN distance reaches an output (t-SNE raises on a
    non-finite KL)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return same_bits(np.where(np.isnan(a), np.nan, a), np.where(np.isnan(b), np.nan, b))


def distance_inputs():
    """(a, b) pairs for sq_dists: 0 to 9 rows of 0 to 12 columns, some all
    zero, with negative and fractional entries and, in some pairs, a few
    infinite or NaN ones; b is a, an equal copy of a, or its own matrix;
    a may be non-contiguous."""
    element = st.one_of(st.just(0.0), st.integers(-5, 5).map(float),
                        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))

    @st.composite
    def build(draw):
        na, dim = draw(st.integers(0, 9)), draw(st.integers(0, 12))
        a = draw(hnp.arrays(np.float64, (na, dim), elements=element))
        kind = draw(st.sampled_from(["same", "copy", "other"]))
        if kind == "other":
            b = draw(hnp.arrays(np.float64, (draw(st.integers(0, 9)), dim),
                                elements=element))
        else:
            b = a.copy()
        for matrix in (a, b):
            specials = draw(st.lists(st.sampled_from([np.inf, -np.inf, np.nan]),
                                     max_size=2 if matrix.size else 0))
            flat = matrix.reshape(-1)
            for value in specials:
                flat[draw(st.integers(0, matrix.size - 1))] = value
        if kind == "copy":
            b = a.copy()
        zero = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
        a[:, zero] = 0.0
        b[:, zero] = 0.0
        # every other row of a stacked twin, or Fortran order
        layout = draw(st.sampled_from(["c", "strided", "fortran"]))
        if layout == "strided":
            a = np.repeat(a, 2, axis=0)[::2]
        elif layout == "fortran":
            a = np.asfortranarray(a)
        return a, (a if kind == "same" else b)

    return build()


NORMAL_ROWS = np.random.default_rng(0).normal(0.0, 10.0, size=(9, 12))


@settings(max_examples=300, deadline=None)
@given(distance_inputs())
@example((np.zeros((0, 3)), np.zeros((2, 3))))
@example((NORMAL_ROWS, NORMAL_ROWS))
@example((NORMAL_ROWS[:, ::2], NORMAL_ROWS[:4, 1::2]))
@example((np.array([[1.0, np.inf], [np.nan, 2.0]]),) * 2)
def test_compiled_sq_dists_matches_the_numpy_twin(pair):
    """The C sum, which takes one triangle and mirrors it when b is a,
    gives the numpy twin's bits, diagonal included: a row holding inf or
    NaN is NaN away from itself, and even from itself."""
    a, b = pair
    results = []
    for kernel in ("compiled", "pure"):
        # as in t-SNE's KL, where a diverged embedding meets inf - inf
        with kernel_backend(kernel), np.errstate(invalid="ignore", over="ignore"):
            results.append(sq_dists(a, b))
    compiled, pure = results
    assert compiled.shape == (len(a), len(b))
    assert same_bits_or_nan(compiled, pure)


def test_compiled_sq_dists_rejects_bad_arguments():
    _dpcore = pytest.importorskip("phonoscope._dpcore")
    a = np.zeros((3, 4))
    for bad in ((a.tolist(), a), (a, a.astype(np.float32)), (a, np.zeros((3, 5))),
                (a[0], a)):
        with pytest.raises(ValueError):
            _dpcore.sq_dists(*bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 70), st.integers(1, 70),
       st.integers(1, 4), st.sampled_from(["kmeanspp", "forgy"]),
       st.sampled_from([RAW_COUNTS, ROW_FREQUENCY]), st.floats(0.0, 0.999),
       st.sampled_from([0, 1, 30]))
@example(0, 40, 1, 4, "kmeanspp", RAW_COUNTS, 0.5, 30)   # empty clusters reseeded
@example(1, 70, 3, 4, "forgy", ROW_FREQUENCY, 0.999, 30)
def test_speaker_matrix_path_matches_full_temporaries(seed, rows, distinct, k, init,
                                                      normalization, fraction,
                                                      iterations):
    """The pipeline's path (profiles vectorized into one shared matrix, k-means
    keeping its centroids in the matrix's last rows, t-SNE of the whole
    matrix) gives the same bits as the formulations with full-size
    temporaries. Rows are drawn from `distinct` grids, so they repeat. The
    matrix holds the full-width reference's columns at its cells, and every
    other reference column is zero."""
    k = min(k, rows)
    rng = np.random.default_rng(seed)
    grids = random_grids(rng, min(distinct, rows))
    picks = rng.integers(len(grids), size=rows)
    profiles = [SpeakerProfile(f"s{i}", ConfusionMatrix(INV, grids[g]))
                for i, g in enumerate(picks)]
    matrix = SpeakerMatrix.from_profiles(profiles, normalization, centroids=k)
    result = kmeans(matrix, k, seed=seed % 1000, init=init)

    data = np.stack([vectorize_full(grids[g], normalization) for g in picks])
    cells = matrix.cells
    assert same_bits(matrix.speaker_rows, data[:, cells])
    assert not np.delete(data, cells, axis=1).any()
    labels, centers, history = kmeans_full(data, k, seed % 1000, init)
    assert [result.assignments[p.speaker_id] for p in profiles] == labels.tolist()
    assert same_bits(result.centroids, centers[:, cells])
    assert same_bits(matrix.centroid_rows, centers[:, cells])
    assert not np.delete(centers, cells, axis=1).any()
    assert same_bits(result.inertia_history, history)

    points = rows + k
    if points < 3:
        return
    perplexity = 1.0 + fraction * (points - 2)
    embedded = tsne(matrix, perplexity=perplexity, iterations=iterations,
                    seed=seed % 1000)
    Y, kl, initial_kl = tsne_full(np.vstack([data, centers]), perplexity,
                                  iterations, seed % 1000)
    assert [p.speaker_id for p in embedded.points] == (
        [p.speaker_id for p in profiles] + [f"centroid_{c}" for c in range(k)])
    assert same_bits([(p.x, p.y) for p in embedded.points], Y)
    assert same_bits(embedded.kl_divergence, kl)
    assert same_bits(embedded.initial_kl, initial_kl)


# six rows of one nonzero column, whose two-cluster means numpy's reduce
# would sum pairwise
ONE_COLUMN = np.array([[4.0, 0.0], [0.5 ** 0.5, 0.0], [0.5 ** 0.5, 0.0], [0.0, 0.0],
                       [0.5 ** 0.5, 0.0], [0.5 ** 0.5, 0.0]])


@pytest.mark.parametrize("kernel", ["compiled", "pure"])
@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10).flatmap(matrices_with_zero_columns), st.integers(1, 3),
       st.integers(0, 999), st.sampled_from(["kmeanspp", "forgy"]),
       st.floats(0.0, 0.999), st.sampled_from([0, 1, 30]))
@example((ONE_COLUMN, [False, True]), 2, 0, "forgy", 0.0, 0)
def test_zero_columns_change_no_bit_of_kmeans_or_tsne(kernel, matrix, k, seed, init,
                                                      fraction, iterations):
    """A cell that no speaker counts adds +0.0 to every distance and every
    mean, so a hand-built matrix clusters and embeds to the same bits with
    all-zero columns inserted anywhere; the centroids are zero there."""
    padded, zero = matrix
    padded = np.where(zero, 0.0, padded)
    kept = np.flatnonzero(~np.array(zero, dtype=bool))
    values = padded[:, kept]
    perplexity = 1.0 + fraction * (len(values) + k - 2)
    results = []
    with kernel_backend(kernel):
        for rows in (values, padded):
            speakers = speaker_matrix([(f"s{i}", row) for i, row in enumerate(rows)], k)
            clusters = kmeans(speakers, k, seed=seed, init=init)
            embedded = tsne(speakers, perplexity=perplexity, iterations=iterations,
                            seed=seed)
            results.append((clusters, embedded))
    (clusters, embedded), (padded_clusters, padded_embedded) = results
    assert padded_clusters.assignments == clusters.assignments
    assert same_bits(padded_clusters.inertia_history, clusters.inertia_history)
    assert same_bits(padded_clusters.centroids[:, kept], clusters.centroids)
    assert not np.delete(padded_clusters.centroids, kept, axis=1).any()
    assert same_bits([(p.x, p.y) for p in padded_embedded.points],
                     [(p.x, p.y) for p in embedded.points])
    assert same_bits(padded_embedded.kl_divergence, embedded.kl_divergence)
    assert same_bits(padded_embedded.initial_kl, embedded.initial_kl)


def test_kmeans_rejects_a_matrix_without_k_centroid_rows():
    profiles = [SpeakerProfile(f"s{i}", ConfusionMatrix(INV)) for i in range(4)]
    with pytest.raises(ValidationError, match="centroid rows"):
        kmeans(SpeakerMatrix.from_profiles(profiles, centroids=2), k=3)


class _Files:
    def write(self, path, text):
        pass


def test_cluster_outputs_memory_is_bounded(tmp_path):
    """Clustering 203 speakers into k = 3, with about half the grid's cells
    counted, holds at most one (n + k) x (counted cells) matrix, four
    (n + k) x (n + k) float64 arrays and 1 MiB more at once, counted by
    tracemalloc, which sees numpy's allocations."""
    n, k = 203, 3
    rng = np.random.default_rng(0)
    counted = rng.random((len(INV), len(INV))) < 0.5
    counted[INV.epsilon_index, INV.epsilon_index] = False
    grids = rng.poisson(3.0, size=(n, len(INV), len(INV))) * counted
    profiles = [SpeakerProfile(f"s{i}", ConfusionMatrix(INV, grid), "l1")
                for i, grid in enumerate(grids)]
    cfg = RunConfig(k=k, tsne_iterations=5, out_dir=tmp_path)
    tracemalloc.start()
    try:
        cli._cluster_outputs(profiles, cfg, _Files())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points, cells = n + k, np.count_nonzero(grids.any(axis=0))
    assert cells == np.count_nonzero(counted) < 0.55 * len(INV) ** 2
    assert peak <= 8 * (points * cells + 4 * points ** 2) + 2**20, peak

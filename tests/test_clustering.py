import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonoscope import (
    ConfusionMatrix,
    PhonemeInventory,
    SpeakerProfile,
    ValidationError,
    cli,
    kmeans,
    purity,
    tsne,
    vectorize,
)
from phonoscope.clustering import (
    BLOCK_BYTES,
    RAW_COUNTS,
    ROW_FREQUENCY,
    SpeakerMatrix,
    SpeakerVector,
    _self_sq_dists,
    _sq_dists,
)
from phonoscope.manifest import RunConfig

from .conftest import (
    kmeans_full,
    make_group_vectors,
    same_bits,
    self_sq_dists_full,
    sq_dists_full,
    tsne_full,
    vectorize_full,
)

INV = PhonemeInventory.default()


def test_vectorize_zero_matrix():
    v = vectorize(ConfusionMatrix(INV))
    assert v.values.shape == (1600,)
    assert not v.values.any()


def test_vectorize_row_major_indexing():
    m = ConfusionMatrix(INV)
    m.counts[0, 1] = 5
    assert vectorize(m).values[1] == 5.0
    m2 = ConfusionMatrix(INV)
    m2.counts[2, 3] = 7
    assert vectorize(m2).values[2 * 40 + 3] == 7.0


def test_vectorize_row_frequency_sums():
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 9, size=(40, 40))
    counts[INV.epsilon_index, INV.epsilon_index] = 0
    counts[5] = 0  # force an empty row
    m = ConfusionMatrix(INV, counts)
    v = vectorize(m, "row_frequency").values
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
    assert vectorize(p).speaker_id == "spk_7"


def test_vectorize_injective_on_random_matrices():
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(60):
        counts = rng.integers(0, 4, size=(40, 40))
        counts[INV.epsilon_index, INV.epsilon_index] = 0
        v = vectorize(ConfusionMatrix(INV, counts))
        seen.add(v.values.tobytes())
    assert len(seen) == 60  # distinct matrices gave distinct vectors


def test_vectorize_rejects_unknown_normalization():
    with pytest.raises(ValidationError):
        vectorize(ConfusionMatrix(INV), "zscore")


def vecs(arrays):
    return [SpeakerVector(f"v{i}", np.asarray(a, float)) for i, a in enumerate(arrays)]


def test_kmeans_k1_closed_form():
    data = [[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]]
    result = kmeans(vecs(data), k=1, seed=0)
    mean = np.mean(data, axis=0)
    np.testing.assert_allclose(result.centroids[0], mean)
    expected_inertia = sum(((np.array(p) - mean) ** 2).sum() for p in data)
    assert abs(result.inertia - expected_inertia) < 1e-9


def test_kmeans_two_points_two_clusters():
    result = kmeans(vecs([[0.0, 0.0], [5.0, 5.0]]), k=2, seed=3)
    assert result.inertia == 0.0
    assert sorted(result.assignments.values()) == [0, 1]


def test_kmeans_k_out_of_range():
    with pytest.raises(ValidationError):
        kmeans(vecs([[1.0], [2.0]]), k=3)
    with pytest.raises(ValidationError):
        kmeans(vecs([[1.0], [2.0]]), k=0)


def test_kmeans_recovers_groups_across_seeds():
    vectors, labels = make_group_vectors(seed=0)
    for seed in range(10):
        result = kmeans(vectors, k=6, seed=seed)
        assert purity(result, labels) == 1.0


def test_kmeans_inertia_never_increases():
    vectors, _ = make_group_vectors(seed=1)
    result = kmeans(vectors, k=6, seed=0)
    for earlier, later in zip(result.inertia_history, result.inertia_history[1:]):
        assert later <= earlier


def test_kmeans_deterministic_given_seed():
    vectors, _ = make_group_vectors(seed=2)
    a = kmeans(vectors, k=6, seed=9)
    b = kmeans(vectors, k=6, seed=9)
    assert a.assignments == b.assignments
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_kmeans_forgy_init():
    vectors, labels = make_group_vectors(seed=3)
    result = kmeans(vectors, k=6, seed=1, init="forgy")
    assert set(result.assignments.values()) <= set(range(6))
    assert result.inertia >= 0.0


def test_kmeans_fixpoint_assignments_are_nearest():
    vectors, _ = make_group_vectors(seed=4)
    result = kmeans(vectors, k=6, seed=2)
    data = np.stack([v.values for v in vectors])
    d = ((data[:, None, :] - result.centroids[None]) ** 2).sum(-1)
    nearest = d.argmin(axis=1)
    got = np.array([result.assignments[v.speaker_id] for v in vectors])
    np.testing.assert_array_equal(nearest, got)


def test_kmeans_handles_duplicate_points():
    data = [[0.0, 0.0]] * 4 + [[9.0, 9.0]]
    result = kmeans(vecs(data), k=3, seed=0)
    assert set(result.assignments.values()) <= {0, 1, 2}
    assert np.isfinite(result.inertia)


def test_kmeans_unknown_init():
    with pytest.raises(ValidationError):
        kmeans(vecs([[1.0], [2.0]]), k=1, init="random++")


def test_purity_perfect_and_degenerate():
    vectors, labels = make_group_vectors(seed=5)
    perfect = kmeans(vectors, k=6, seed=0)
    assert purity(perfect, labels) == 1.0
    collapsed = kmeans(vectors, k=1, seed=0)
    assert purity(collapsed, labels) == 4 / 24


def test_purity_missing_label():
    vectors, labels = make_group_vectors(seed=6)
    result = kmeans(vectors, k=6, seed=0)
    del labels[vectors[0].speaker_id]
    with pytest.raises(ValidationError):
        purity(result, labels)


def random_grids(rng, count):
    """count random count grids over INV, each a valid ConfusionMatrix."""
    grids = rng.poisson(rng.choice([0.05, 0.5, 3.0]), size=(count, len(INV), len(INV)))
    grids[:, INV.epsilon_index, INV.epsilon_index] = 0
    return grids


def test_blocked_distances_cross_block_boundaries():
    """70 rows of 1681 floats span more than three blocks."""
    rows_per_block = BLOCK_BYTES // (8 * len(INV) ** 2)
    assert 2 * rows_per_block < 70
    rng = np.random.default_rng(3)
    data = random_grids(rng, 70).reshape(70, -1).astype(np.float64)
    centers = data[[0, 25, 69]] + 0.5
    assert same_bits(_sq_dists(data, centers), sq_dists_full(data, centers))
    assert same_bits(_self_sq_dists(data), self_sq_dists_full(data))


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
    temporaries. Rows are drawn from `distinct` grids, so they repeat."""
    k = min(k, rows)
    rng = np.random.default_rng(seed)
    grids = random_grids(rng, min(distinct, rows))
    picks = rng.integers(len(grids), size=rows)
    profiles = [SpeakerProfile(f"s{i}", ConfusionMatrix(INV, grids[g]))
                for i, g in enumerate(picks)]
    matrix = SpeakerMatrix.from_profiles(profiles, normalization, centroids=k)
    result = kmeans(matrix, k, seed=seed % 1000, init=init)

    data = np.stack([vectorize_full(grids[g], normalization) for g in picks])
    assert same_bits(matrix.speaker_rows, data)
    labels, centers, history = kmeans_full(data, k, seed % 1000, init)
    assert [result.assignments[p.speaker_id] for p in profiles] == labels.tolist()
    assert same_bits(result.centroids, centers)
    assert same_bits(matrix.centroid_rows, centers)
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


def test_kmeans_rejects_a_matrix_without_k_centroid_rows():
    profiles = [SpeakerProfile(f"s{i}", ConfusionMatrix(INV)) for i in range(4)]
    with pytest.raises(ValidationError, match="centroid rows"):
        kmeans(SpeakerMatrix.from_profiles(profiles, centroids=2), k=3)


class _Files:
    def write(self, path, text):
        pass


def test_cluster_outputs_memory_is_bounded(tmp_path):
    """Clustering 203 speakers into k = 3 holds at most one (n + k) x d
    matrix, four (n + k) x (n + k) float64 arrays and 1 MiB more at once,
    counted by tracemalloc, which sees numpy's allocations."""
    n, k = 203, 3
    grids = random_grids(np.random.default_rng(0), n)
    profiles = [SpeakerProfile(f"s{i}", ConfusionMatrix(INV, grid), "l1")
                for i, grid in enumerate(grids)]
    cfg = RunConfig(k=k, tsne_iterations=5, out_dir=tmp_path)
    tracemalloc.start()
    try:
        cli._cluster_outputs(profiles, cfg, _Files())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points, dim = n + k, len(INV) ** 2
    assert peak <= 8 * (points * dim + 4 * points ** 2) + 2**20, peak

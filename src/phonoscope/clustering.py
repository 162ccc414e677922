"""Speaker vectors, k-means clustering, and a 2-D t-SNE embedding.

Everything here is deterministic given (inputs, seed): numpy Generators
are seeded explicitly and no step depends on iteration order of sets or
dicts. Distances are squared Euclidean throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import alignment
from .confusion import ConfusionMatrix, SpeakerProfile
from .errors import ValidationError

RAW_COUNTS = "raw_counts"
ROW_FREQUENCY = "row_frequency"

# Pipeline defaults; RunConfig refers to these.
DEFAULT_SEED = 0
DEFAULT_INIT = "kmeanspp"
DEFAULT_PERPLEXITY = 5.0
DEFAULT_LEARNING_RATE = 200.0
DEFAULT_TSNE_ITERATIONS = 1000
DEFAULT_EARLY_EXAGGERATION = 12.0


@dataclass
class SpeakerVector:
    """Row-major flattening of a confusion matrix (inventory² dimensions)."""

    speaker_id: str
    values: np.ndarray
    normalization: str = RAW_COUNTS


def _vectorize_into(counts: np.ndarray, normalization: str, out: np.ndarray) -> None:
    """Write the row-major flattening of a count grid into the contiguous
    float64 vector out, normalized as vectorize describes."""
    if normalization not in (RAW_COUNTS, ROW_FREQUENCY):
        raise ValidationError(f"unknown normalization {normalization!r}")
    grid = out.reshape(counts.shape)
    grid[...] = counts
    if normalization == ROW_FREQUENCY:
        sums = grid.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        grid[nonzero] /= sums[nonzero]


def vectorize(matrix, normalization: str = RAW_COUNTS,
              speaker_id: str = "") -> SpeakerVector:
    """Flatten a ConfusionMatrix (or a SpeakerProfile) into one vector.

    row_frequency divides each row by its sum so speakers with different
    utterance volumes become comparable; empty rows stay zero.
    """
    if isinstance(matrix, SpeakerProfile):
        speaker_id = matrix.speaker_id
        matrix = matrix.matrix
    if not isinstance(matrix, ConfusionMatrix):
        raise ValidationError("vectorize expects a ConfusionMatrix or SpeakerProfile")
    values = np.empty(matrix.counts.size)
    _vectorize_into(matrix.counts, normalization, values)
    return SpeakerVector(speaker_id, values, normalization)


@dataclass
class SpeakerMatrix:
    """Speaker vectors as the rows of one C-ordered float64 array, which
    kmeans and tsne read in place.

    The first len(speaker_ids) rows are speakers and the rows below them
    are centroid rows. kmeans with k equal to their count clusters the
    speaker rows and keeps its centroids in the centroid rows, so tsne
    then embeds speakers and centroids (named centroid_0, centroid_1, ...)
    from the one array.
    """

    speaker_ids: list[str]
    data: np.ndarray

    @classmethod
    def from_profiles(cls, profiles, normalization: str = RAW_COUNTS,
                      centroids: int = 0) -> SpeakerMatrix:
        """Vectorize each SpeakerProfile straight into its row; the
        centroids centroid rows start at zero."""
        dim = profiles[0].matrix.counts.size if profiles else 0
        data = np.zeros((len(profiles) + centroids, dim))
        for row, profile in zip(data, profiles):
            _vectorize_into(profile.matrix.counts, normalization, row)
        return cls([p.speaker_id for p in profiles], data)

    @classmethod
    def stack(cls, vectors, centroids: int = 0) -> SpeakerMatrix:
        """Copy SpeakerVectors into the rows of a new matrix with centroids
        centroid rows."""
        dim = len(vectors[0].values) if vectors else 0
        data = np.zeros((len(vectors) + centroids, dim))
        if vectors:
            np.stack([np.asarray(v.values, dtype=np.float64) for v in vectors],
                     out=data[:len(vectors)])
        return cls([v.speaker_id for v in vectors], data)

    @property
    def speaker_rows(self) -> np.ndarray:
        return self.data[:len(self.speaker_ids)]

    @property
    def centroid_rows(self) -> np.ndarray:
        return self.data[len(self.speaker_ids):]

    @property
    def ids(self) -> list[str]:
        """One name per row: the speakers', then centroid_<c>."""
        return self.speaker_ids + [f"centroid_{c}"
                                   for c in range(len(self.centroid_rows))]


@dataclass
class ClusterResult:
    assignments: dict[str, int]
    centroids: np.ndarray
    inertia: float
    iterations: int
    seed: int
    inertia_history: list[float] = field(default_factory=list)


def check_parameters(vectors: int, k: int | None = None,
                     perplexity: float | None = None, seed: int | None = None,
                     learning_rate: float | None = None,
                     iterations: int | None = None,
                     early_exaggeration: float | None = None) -> None:
    """Raise ValidationError unless k-means (1 <= k <= vectors) and t-SNE of
    the vectors plus k centroids (at least 3 points, 1 <= perplexity <
    points - 1) can run with these values: seed >= 0, 0 <= iterations <
    2**63 (the compiled kernel counts in 64 bits), and a finite learning
    rate and early exaggeration above 0. A value of None skips its rule; a
    perplexity of None skips t-SNE's point count."""
    if k is not None and not 1 <= k <= vectors:
        raise ValidationError(f"k={k} out of range for {vectors} vectors")
    points = vectors + (k or 0)
    if perplexity is not None and points < 3:
        raise ValidationError("t-SNE needs at least 3 points")
    if perplexity is not None and not 1 <= perplexity < points - 1:
        raise ValidationError(f"perplexity {perplexity} infeasible for {points} "
                              f"points (need 1 <= perplexity < {points - 1})")
    for name, value in (("seed", seed), ("t-SNE iterations", iterations)):
        if value is not None and value < 0:
            raise ValidationError(f"{name} {value} must be at least 0")
    if iterations is not None and iterations >= 2**63:
        raise ValidationError(f"t-SNE iterations {iterations} must be below 2**63")
    for name, value in (("learning rate", learning_rate),
                        ("early exaggeration", early_exaggeration)):
        if value is not None and not (0 < value and math.isfinite(value)):
            raise ValidationError(f"{name} {value} must be finite and above 0")


# Most bytes of row differences _sq_dists and _self_sq_dists hold at once:
# they take the difference of one block of rows at a time, so no temporary
# is as large as the speaker matrix.
BLOCK_BYTES = 1 << 18


def _block_buffer(data: np.ndarray) -> np.ndarray:
    """Scratch for BLOCK_BYTES of data's rows (at least one row, at most all)."""
    n, dim = data.shape
    rows = max(1, BLOCK_BYTES // max(1, dim * data.itemsize))
    return np.empty((min(n, rows), dim))


def _sq_dists_to(data: np.ndarray, point: np.ndarray, out: np.ndarray,
                 buffer: np.ndarray) -> None:
    """out[i] = squared distance of data row i to point, one block of
    len(buffer) rows at a time."""
    step = len(buffer)
    for start in range(0, len(data), step):
        block = data[start:start + step]
        diff = buffer[:len(block)]
        np.subtract(block, point, out=diff)
        out[start:start + len(block)] = np.einsum("ij,ij->i", diff, diff)


def _sq_dists(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of every data row to every center, one column per
    center. The row differences are taken one block of at most
    BLOCK_BYTES at a time, so no len(data) x dim temporary is built."""
    out = np.empty((data.shape[0], centers.shape[0]))
    buffer = _block_buffer(data)
    for j, center in enumerate(centers):
        _sq_dists_to(data, center, out[:, j], buffer)
    return out


def _init_kmeanspp(data: np.ndarray, centers: np.ndarray,
                   rng: np.random.Generator) -> None:
    n, k = data.shape[0], centers.shape[0]
    first = rng.integers(n)
    centers[0] = data[first]
    closest = _sq_dists(data, centers[:1])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total == 0.0:
            # all remaining points coincide with a center; any pick works
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centers[c] = data[idx]
        closest = np.minimum(closest, _sq_dists(data, centers[c:c + 1])[:, 0])


def kmeans(vectors, k: int, seed: int = DEFAULT_SEED, init: str = DEFAULT_INIT,
           max_iter: int = 300, rel_tol: float = 1e-9) -> ClusterResult:
    """Lloyd iterations until assignment fixpoint, inertia plateau, or max_iter.

    Empty clusters are re-seeded with the point farthest from its
    assigned centroid. Inertia is checked to be non-increasing on every
    iteration.

    vectors is a SpeakerMatrix, whose speaker rows are clustered in place
    and whose k centroid rows receive the centroids, or a sequence of
    SpeakerVectors, which are first copied into one.
    """
    if not isinstance(vectors, SpeakerMatrix):
        check_parameters(len(vectors), k=k)
        vectors = SpeakerMatrix.stack(vectors, centroids=k)
    data, centers = vectors.speaker_rows, vectors.centroid_rows
    n = data.shape[0]
    check_parameters(n, k=k, seed=seed)
    if len(centers) != k:
        raise ValidationError(f"k={k} needs {k} centroid rows, "
                              f"the matrix has {len(centers)}")
    rng = np.random.default_rng(seed)
    if init == "kmeanspp":
        _init_kmeanspp(data, centers, rng)
    elif init == "forgy":
        centers[...] = data[rng.choice(n, size=k, replace=False)]
    else:
        raise ValidationError(f"unknown init {init!r}")

    dists = _sq_dists(data, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    history = [inertia]
    iterations = 0

    for iterations in range(1, max_iter + 1):
        for c in range(k):
            members = labels == c
            if members.any():
                np.mean(data, axis=0, where=members[:, None], out=centers[c])
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                centers[c] = data[farthest]
                labels[farthest] = c
        dists = _sq_dists(data, centers)
        new_labels = dists.argmin(axis=1)
        new_inertia = float(dists[np.arange(n), new_labels].sum())
        # Lloyd is monotone; allow only float-noise-level slack
        if new_inertia > inertia * (1 + 1e-12) + 1e-12:
            raise AssertionError(
                f"inertia increased: {inertia} -> {new_inertia}"
            )
        history.append(new_inertia)
        converged = bool((new_labels == labels).all())
        plateau = abs(inertia - new_inertia) < rel_tol * max(inertia, 1e-30)
        labels, inertia = new_labels, new_inertia
        if converged or plateau:
            break

    assignments = {sid: int(c) for sid, c in zip(vectors.speaker_ids, labels)}
    return ClusterResult(assignments, centers, inertia, iterations, seed, history)


def purity(result: ClusterResult, labels: dict[str, str]) -> float:
    """Fraction of points whose cluster's majority label matches their own."""
    missing = [sid for sid in result.assignments if sid not in labels]
    if missing:
        raise ValidationError(f"no group label for {missing[0]!r}")
    by_cluster: dict[int, dict[str, int]] = {}
    for sid, cluster in result.assignments.items():
        counts = by_cluster.setdefault(cluster, {})
        lab = labels[sid]
        counts[lab] = counts.get(lab, 0) + 1
    total = len(result.assignments)
    agreeing = sum(max(counts.values()) for counts in by_cluster.values())
    return agreeing / total


@dataclass
class EmbeddingPoint:
    speaker_id: str
    x: float
    y: float


@dataclass
class TsneResult:
    points: list[EmbeddingPoint]
    kl_divergence: float
    initial_kl: float
    iterations: int


def pairwise_sq_dists(data: np.ndarray) -> np.ndarray:
    """Squared distance between every two rows, summed one coordinate at a
    time, so no n x n x dim temporary is built (t-SNE's 2-D embedding
    needs it once per iteration)."""
    out = np.zeros((data.shape[0], data.shape[0]))
    for column in data.T:
        diff = column[:, None] - column[None, :]
        diff *= diff
        out += diff
    return out


def _self_sq_dists(data: np.ndarray) -> np.ndarray:
    """_sq_dists(data, data) with each pair computed once: (a - b)**2 equals
    (b - a)**2 exactly, so the lower triangle is mirrored."""
    n = data.shape[0]
    out = np.empty((n, n))
    buffer = _block_buffer(data)
    for j in range(n):
        _sq_dists_to(data[j:], data[j], out[j:, j], buffer)
        out[j, j:] = out[j:, j]
    return out


def conditional_affinities(sq_dists: np.ndarray, perplexity: float,
                           entropy_tol: float = 1e-5,
                           max_steps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Per-point Gaussian affinities with entropy matched to log2(perplexity).

    Binary search over each point's precision beta; returns the row-wise
    conditional distribution matrix (zero diagonal, rows sum to 1) and
    the achieved entropies in bits. When the target entropy is
    unreachable (e.g. all neighbors equidistant) the closest achievable
    distribution is kept.

    When every weight exp(-d * beta) of a row underflows to zero, beta is
    far too large: the search lowers it, as it does when the entropy is
    below the target. Only a row that underflows at every step is uniform.
    """
    n = sq_dists.shape[0]
    target = math.log2(perplexity)
    P = np.zeros((n, n))
    entropies = np.zeros(n)
    for i in range(n):
        d = np.delete(sq_dists[i], i)
        beta = 1.0
        beta_min, beta_max = -np.inf, np.inf
        row = np.full_like(d, 1.0 / len(d))
        entropy = math.log2(len(d))
        for _ in range(max_steps):
            w = np.exp(-d * beta)
            total = w.sum()
            if total <= 0.0:
                diff = -np.inf
            else:
                row = w / total
                nz = row > 0
                entropy = float(-(row[nz] * np.log2(row[nz])).sum())
                diff = entropy - target
            if abs(diff) <= entropy_tol:
                break
            if diff > 0:
                beta_min = beta
                beta = beta * 2.0 if beta_max == np.inf else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if beta_min == -np.inf else (beta + beta_min) / 2.0
        entropies[i] = entropy
        P[i, np.arange(n) != i] = row
    return P, entropies


def symmetrized_affinities(conditional: np.ndarray) -> np.ndarray:
    n = conditional.shape[0]
    P = np.add(conditional, conditional.T)
    P /= 2.0 * n
    return P


def _kl(P: np.ndarray, Y: np.ndarray) -> float:
    """KL(P || Q) in nats, Q the embedding's normalized Student-t kernel.

    At most three n x n arrays are alive at once: P, Q (built in the
    buffer of the kernel's weights) and one array of P's nonzero entries
    that the terms are computed in."""
    Q = pairwise_sq_dists(Y)
    Q += 1.0
    np.divide(1.0, Q, out=Q)
    np.fill_diagonal(Q, 0.0)
    Q /= Q.sum()
    tiny = 1e-12
    mask = P > 0
    q = Q[mask]
    del Q
    np.maximum(q, tiny, out=q)
    terms = P[mask]
    np.maximum(terms, tiny, out=terms)
    terms /= q
    del q
    np.log(terms, out=terms)
    terms *= P[mask]
    return float(terms.sum())


@np.errstate(over="ignore", invalid="ignore")   # divergence is checked at the end
def tsne(vectors, perplexity: float = DEFAULT_PERPLEXITY,
         learning_rate: float = DEFAULT_LEARNING_RATE,
         iterations: int = DEFAULT_TSNE_ITERATIONS, seed: int = DEFAULT_SEED,
         early_exaggeration: float = DEFAULT_EARLY_EXAGGERATION,
         exaggeration_iters: int = 250,
         entropy_tol: float = 1e-5) -> TsneResult:
    """Exact (non-approximated) t-SNE to 2 dimensions.

    Gradient descent with momentum (0.5 for the exaggerated phase, 0.8
    after); the input set is tiny so no tree approximation is warranted.
    The descent runs in the kernel that alignment.backend() names, with
    every sum in one fixed order, so both backends give the same bytes.

    vectors is a SpeakerMatrix, all of whose rows are embedded in place,
    or a sequence of SpeakerVectors, which are first copied into one.
    """
    if not isinstance(vectors, SpeakerMatrix):
        vectors = SpeakerMatrix.stack(vectors)
    data = vectors.data
    n = data.shape[0]
    check_parameters(n, perplexity=perplexity, seed=seed,
                     learning_rate=learning_rate, iterations=iterations,
                     early_exaggeration=early_exaggeration)

    cond, _ = conditional_affinities(_self_sq_dists(data), perplexity,
                                     entropy_tol)
    P = symmetrized_affinities(cond)
    del cond

    rng = np.random.default_rng(seed)
    Y = rng.normal(0.0, 1e-4, size=(n, 2))
    initial_kl = _kl(P, Y)
    Y = alignment._kernel.tsne_descend(P, Y, learning_rate, iterations,
                                       early_exaggeration, exaggeration_iters)

    final_kl = _kl(P, Y)
    if not np.isfinite(Y).all() or not np.isfinite(final_kl):
        raise ValidationError("t-SNE diverged; lower the learning rate")

    points = [EmbeddingPoint(sid, float(x), float(y))
              for sid, (x, y) in zip(vectors.ids, Y)]
    return TsneResult(points, final_kl, initial_kl, iterations)

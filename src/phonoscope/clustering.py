"""The shared speaker matrix, k-means clustering, and a 2-D t-SNE embedding.

Everything here is deterministic given (inputs, seed): every random draw
comes from _uniforms, a counter-based SplitMix64 on uint64 arrays, and no
step depends on iteration order of sets or dicts. Distances are squared
Euclidean throughout. Every float that reaches the t-SNE descent comes
from IEEE +, -, *, / and the exact rint, ldexp and frexp in one fixed
order, never from numpy's per-CPU SIMD variants, so the embedding's bytes
are the same on every CPU. The distances and the descent run in the
kernel that alignment.backend() names: C loops that vectorize across
sums, never within one, or their numpy twins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import alignment
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

# Fixed tuning: k-means's iteration cap and relative inertia plateau,
# t-SNE's exaggerated iterations, the affinity search's bits and steps.
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-9
EXAGGERATION_ITERS = 250
ENTROPY_TOL = 1e-5
AFFINITY_MAX_STEPS = 100


@dataclass
class SpeakerMatrix:
    """Speaker vectors as the rows of one C-ordered float64 array, which
    kmeans and tsne read in place.

    Column j holds grid cell cells[j], expected * n + observed for an
    inventory of n symbols, as in an alignment's cells. from_profiles
    keeps only the cells some profile counts, in grid order: a cell that
    no speaker has adds 0 to every distance.

    The first len(speaker_ids) rows are speakers and the rows below them
    are centroid rows. kmeans with k equal to their count clusters the
    speaker rows and keeps its centroids in the centroid rows, so tsne
    then embeds speakers and centroids (named centroid_0, centroid_1, ...)
    from the one array.
    """

    speaker_ids: list[str]
    data: np.ndarray
    cells: np.ndarray

    @classmethod
    def from_profiles(cls, profiles, normalization: str = RAW_COUNTS,
                      centroids: int = 0) -> SpeakerMatrix:
        """Vectorize each SpeakerProfile straight into its row, as raw
        counts or, under row_frequency, each count divided by its grid
        row's sum where that is above 0; the centroids centroid rows start
        at zero. Raises ValidationError for an unknown normalization,
        centroids below 0, or profiles over different inventories."""
        if normalization not in (RAW_COUNTS, ROW_FREQUENCY):
            raise ValidationError(f"unknown normalization {normalization!r}")
        if centroids < 0:
            raise ValidationError(f"centroid rows {centroids} must be at least 0")
        if any(p.matrix.inventory != profiles[0].matrix.inventory for p in profiles):
            raise ValidationError("cannot stack profiles over different inventories")
        counted = np.zeros(profiles[0].matrix.counts.shape if profiles else (0, 0),
                           dtype=bool)
        for profile in profiles:
            counted |= profile.matrix.counts != 0
        grid_rows = np.nonzero(counted)[0]
        data = np.zeros((len(profiles) + centroids, len(grid_rows)))
        for row, profile in zip(data, profiles):
            row[...] = profile.matrix.counts[counted]
            if normalization == ROW_FREQUENCY:
                # each nonempty grid row sums to 1, so that speakers with
                # different utterance volumes become comparable
                sums = profile.matrix.counts.sum(axis=1, dtype=np.float64)[grid_rows]
                np.divide(row, sums, out=row, where=sums > 0)
        return cls([p.speaker_id for p in profiles], data, np.flatnonzero(counted))

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


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance of every row of a to every row of b.

    Each distance sums (a[i, c] - b[j, c])**2 strictly left to right over
    every column c, so it is the same float on every CPU. The kernel that
    alignment.backend() names does the sums.
    """
    return alignment._kernel.sq_dists(a, b)


# The draw streams: one per consumer of a seed, so each draws its own values.
KMEANSPP_STREAM = 0
FORGY_STREAM = 1
TSNE_STREAM = 2

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """count doubles in [0, 1): outputs 1..count of SplitMix64 from the
    state (seed * 0x100000001B3 + stream) mod 2**64, each shifted to its
    top 53 bits and scaled by 2**-53. Output i depends on i alone, so the
    whole batch is a handful of uint64 array operations."""
    key = np.uint64((seed * 0x100000001B3 + stream) % 2**64)
    with np.errstate(over="ignore"):   # uint64 arithmetic wraps mod 2**64
        z = np.arange(1, count + 1, dtype=np.uint64) * _SPLITMIX_GAMMA + key
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def _d2_picks(closest: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """One row index per draw u, with probability proportional to closest:
    the first index whose left-to-right running sum exceeds u * total.
    When every distance is 0, floor(u * n) instead. Both are clamped to
    n - 1."""
    n = len(closest)
    running = np.add.accumulate(closest)
    total = running[-1]
    if total == 0.0:
        picks = (draws * n).astype(np.int64)
    else:
        picks = np.searchsorted(running, draws * total, side="right")
    return np.minimum(picks, n - 1)


def _init_kmeanspp(data: np.ndarray, centers: np.ndarray, seed: int) -> None:
    """Greedy k-means++ (Arthur & Vassilvitskii, 2007): the first center is a
    uniform pick; each later one is the best of 2 + floor(ln k) D² picks,
    the one that leaves the smallest summed squared distance to the nearest
    center, the first of them on a tie."""
    n, k = data.shape[0], centers.shape[0]
    trials = 2 + int(math.log(k))
    draws = _uniforms(seed, KMEANSPP_STREAM, 1 + (k - 1) * trials)
    centers[0] = data[min(int(draws[0] * n), n - 1)]
    closest = sq_dists(data, centers[:1])[:, 0]
    for c in range(1, k):
        picks = _d2_picks(closest, draws[1 + (c - 1) * trials:1 + c * trials])
        candidates = sq_dists(data, data[picks])
        sums = [np.minimum(closest, column).sum() for column in candidates.T]
        best = int(np.argmin(sums))
        centers[c] = data[picks[best]]
        closest = np.minimum(closest, candidates[:, best])


def _init_forgy(data: np.ndarray, centers: np.ndarray, seed: int) -> None:
    """k distinct rows: the first k steps of a Fisher-Yates shuffle of the
    row indices, step i swapping in index i + floor(u * (n - i))."""
    n, k = data.shape[0], centers.shape[0]
    order = np.arange(n)
    for i, u in enumerate(_uniforms(seed, FORGY_STREAM, k)):
        j = i + int(u * (n - i))
        order[i], order[j] = order[j], order[i]
    centers[...] = data[order[:k]]


def kmeans(speakers: SpeakerMatrix, k: int, seed: int = DEFAULT_SEED,
           init: str = DEFAULT_INIT) -> ClusterResult:
    """Lloyd iterations until assignment fixpoint, inertia plateau, or
    KMEANS_MAX_ITER.

    The start is drawn from the seed's own SplitMix64 stream: greedy
    k-means++ (init "kmeanspp") or k distinct rows (init "forgy").

    Empty clusters are re-seeded with the point farthest from its
    assigned centroid. Inertia is checked to be non-increasing on every
    iteration. The speaker rows of speakers are clustered in place and
    its k centroid rows receive the centroids.
    """
    data, centers = speakers.speaker_rows, speakers.centroid_rows
    n = data.shape[0]
    check_parameters(n, k=k, seed=seed)
    if len(centers) != k:
        raise ValidationError(f"k={k} needs {k} centroid rows, "
                              f"the matrix has {len(centers)}")
    if init == "kmeanspp":
        _init_kmeanspp(data, centers, seed)
    elif init == "forgy":
        _init_forgy(data, centers, seed)
    else:
        raise ValidationError(f"unknown init {init!r}")

    dists = sq_dists(data, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    history = [inertia]
    iterations = 0

    for iterations in range(1, KMEANS_MAX_ITER + 1):
        for c in range(k):
            members = np.flatnonzero(labels == c)
            if len(members):
                # the members' mean, their rows added one at a time in row
                # order whatever data's width: over one column numpy's
                # reduce would sum pairwise instead
                center = centers[c]
                center[...] = 0.0
                for i in members:
                    center += data[i]
                center /= len(members)
            else:
                farthest = int(np.argmax(dists[np.arange(n), labels]))
                centers[c] = data[farthest]
                labels[farthest] = c
        dists = sq_dists(data, centers)
        new_labels = dists.argmin(axis=1)
        new_inertia = float(dists[np.arange(n), new_labels].sum())
        # Lloyd is monotone; allow only float-noise-level slack
        if new_inertia > inertia * (1 + 1e-12) + 1e-12:
            raise AssertionError(
                f"inertia increased: {inertia} -> {new_inertia}"
            )
        history.append(new_inertia)
        converged = bool((new_labels == labels).all())
        plateau = abs(inertia - new_inertia) < KMEANS_REL_TOL * max(inertia, 1e-30)
        labels, inertia = new_labels, new_inertia
        if converged or plateau:
            break

    assignments = {sid: int(c) for sid, c in zip(speakers.speaker_ids, labels)}
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


# exp and log built from +, -, *, / and the exact rint, ldexp and frexp,
# which round alike on every CPU; numpy's own exp and log pick a SIMD
# variant per CPU, and the variants differ in the last bit.
_LN2 = 6.93147180559945286227e-01
_LN2_HI = 6.93147180369123816490e-01   # 32 bits of ln 2: k * _LN2_HI is exact
_LN2_LO = 1.90821492927058770002e-10   # ln 2 - _LN2_HI
_INV_LN2 = 1.44269504088896338700e+00
_EXP_MIN, _EXP_MAX = -746.0, 710.0      # exp rounds to 0 below, to inf above
# Taylor coefficients of exp, 1/13! first, for Horner's rule
_EXP_TAYLOR = tuple(1.0 / math.factorial(j) for j in range(13, -1, -1))
_SQRT_HALF = 7.07106781186547524401e-01
# Lg1..Lg7 of fdlibm's e_log.c: log(1 + f) = 2s + 2s**3/3 + ... = 2s + s*R(s*s)
_LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
       2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
       1.479819860511658591e-01)


def fixed_exp(x: np.ndarray, out: np.ndarray | None = None,
              scratch: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """e**x elementwise for x without NaN, within 1 ULP of math.exp.

    Cody-Waite: x = k ln 2 + r with k = rint(x / ln 2) and |r| <= ln 2 / 2,
    ln 2 split in two so that x - k * _LN2_HI is exact; then e**r by a
    degree-13 Taylor polynomial and ldexp by k. out may be x itself; the
    only other scratch is one float64 and one int32 array of x's shape,
    allocated here unless the caller passes them as scratch.
    """
    r = np.clip(x, _EXP_MIN, _EXP_MAX, out=out)
    if scratch is None:
        scratch = np.empty_like(r), np.empty(r.shape, np.int32)
    k, exponent = scratch
    np.multiply(r, _INV_LN2, out=k)
    np.rint(k, out=k)
    np.copyto(exponent, k, casting="unsafe")
    np.multiply(k, _LN2_HI, out=k)
    r -= k
    np.multiply(exponent, _LN2_LO, out=k)
    r -= k
    poly = k
    poly[...] = _EXP_TAYLOR[0]
    for coefficient in _EXP_TAYLOR[1:]:
        poly *= r
        poly += coefficient
    return np.ldexp(poly, exponent, out=r)


def fixed_log(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The natural log elementwise for finite x > 0, within 1 ULP of math.log.

    fdlibm's e_log.c: frexp gives x = m * 2**k with sqrt(2)/2 <= m <
    sqrt(2), and log(m) = log(1 + f) comes from s = f / (2 + f) as
    f - (f*f/2 - s * (f*f/2 + R(s*s))).
    """
    m, k = np.frexp(x)
    low = m < _SQRT_HALF
    f = np.where(low, m * 2.0, m) - 1.0
    k = np.where(low, k - 1, k).astype(np.float64)
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    lg1, lg2, lg3, lg4, lg5, lg6, lg7 = _LG
    R = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7))) + w * (lg2 + w * (lg4 + w * lg6))
    half_f2 = 0.5 * f * f
    return np.subtract(k * _LN2_HI, (half_f2 - (s * (half_f2 + R) + k * _LN2_LO)) - f,
                       out=out)


def conditional_affinities(distances: np.ndarray,
                           perplexity: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-point Gaussian affinities with entropy matched to log2(perplexity).

    The perplexity calibration of van der Maaten & Hinton (JMLR 2008): a
    binary search over each point's precision beta, for at most
    AFFINITY_MAX_STEPS steps to within ENTROPY_TOL bits. Every row that
    has not converged takes its step at once, on one (n, n - 1) array.
    Returns the row-wise conditional distribution matrix (zero diagonal,
    rows sum to 1) and the achieved entropies in bits. When the target
    entropy is unreachable (e.g. all neighbors equidistant) the closest
    achievable distribution is kept.

    Each row's smallest distance is subtracted first, so its nearest
    weight is exp(0) = 1 and no row's weights all underflow. The entropy
    is then log W + beta * sum(d * w) / W with W = sum(w), the form of van
    der Maaten's reference Hbeta. The sums run strictly left to right and
    exp and log are fixed_exp and fixed_log, so the result is the same
    float on every CPU. The n x n squared distances are released once
    their off-diagonal is copied, unless the caller holds them, and
    fixed_exp works in the search's own float scratch and one int32 array,
    both allocated before the first step.
    """
    n = distances.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    d = distances[off_diagonal].reshape(n, n - 1)
    del distances
    d -= d.min(axis=1, keepdims=True)
    target = fixed_log(np.float64(perplexity)) / _LN2
    beta = np.ones(n)
    beta_min, beta_max = np.full(n, -np.inf), np.full(n, np.inf)
    w, scratch = np.empty_like(d), np.empty_like(d)
    exponents = np.empty(d.shape, np.int32)
    for _ in range(AFFINITY_MAX_STEPS):
        np.multiply(d, -beta[:, None], out=w)
        fixed_exp(w, out=w, scratch=(scratch, exponents))
        total = np.add.accumulate(w, axis=1, out=scratch)[:, -1].copy()
        np.multiply(d, w, out=scratch)
        weighted = np.add.accumulate(scratch, axis=1, out=scratch)[:, -1]
        entropies = (fixed_log(total) + beta * weighted / total) / _LN2
        diff = entropies - target
        open_ = np.abs(diff) > ENTROPY_TOL
        if not open_.any():
            break
        up, down = open_ & (diff > 0), open_ & (diff <= 0)
        beta_min[up], beta_max[down] = beta[up], beta[down]
        beta = np.where(up, np.where(beta_max == np.inf, beta * 2.0,
                                     (beta + beta_max) / 2.0), beta)
        beta = np.where(down, np.where(beta_min == -np.inf, beta / 2.0,
                                       (beta + beta_min) / 2.0), beta)
    del d, scratch, exponents
    w /= total[:, None]
    P = np.zeros((n, n))
    P[off_diagonal] = w.reshape(-1)
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
    Q = sq_dists(Y, Y)
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


def initial_embedding(seed: int, n: int) -> np.ndarray:
    """t-SNE's n x 2 start: each coordinate is 1e-4 * (the sum of twelve
    uniforms, added left to right, - 6), an Irwin-Hall variate with mean 0
    and variance 1, close to a standard normal."""
    draws = _uniforms(seed, TSNE_STREAM, 24 * n).reshape(n, 2, 12)
    return 1e-4 * (np.add.accumulate(draws, axis=2)[..., -1] - 6.0)


@np.errstate(over="ignore", invalid="ignore")   # divergence is checked at the end
def tsne(speakers: SpeakerMatrix, perplexity: float = DEFAULT_PERPLEXITY,
         learning_rate: float = DEFAULT_LEARNING_RATE,
         iterations: int = DEFAULT_TSNE_ITERATIONS, seed: int = DEFAULT_SEED,
         early_exaggeration: float = DEFAULT_EARLY_EXAGGERATION) -> TsneResult:
    """Exact (non-approximated) t-SNE to 2 dimensions.

    Gradient descent with momentum (0.5 for the exaggerated phase, 0.8
    after) from initial_embedding(seed, n); the input set is tiny so no
    tree approximation is warranted.
    The input distances (sq_dists) and affinities (conditional_affinities)
    are strict-order IEEE arithmetic, and the descent runs in the kernel
    that alignment.backend() names, with every sum in one fixed order, so
    both backends and every CPU give the same bytes. Only the reported KL
    divergences use numpy's own log.
    Every row of speakers, centroid rows included, is embedded.
    """
    data = speakers.data
    n = data.shape[0]
    check_parameters(n, perplexity=perplexity, seed=seed,
                     learning_rate=learning_rate, iterations=iterations,
                     early_exaggeration=early_exaggeration)

    cond, _ = conditional_affinities(sq_dists(data, data), perplexity)
    P = symmetrized_affinities(cond)
    del cond

    Y = initial_embedding(seed, n)
    initial_kl = _kl(P, Y)
    Y = alignment._kernel.tsne_descend(P, Y, learning_rate, iterations,
                                       early_exaggeration, EXAGGERATION_ITERS)

    final_kl = _kl(P, Y)
    if not np.isfinite(Y).all() or not np.isfinite(final_kl):
        raise ValidationError("t-SNE diverged; lower the learning rate or the "
                              "early exaggeration")

    points = [EmbeddingPoint(sid, float(x), float(y))
              for sid, (x, y) in zip(speakers.ids, Y)]
    return TsneResult(points, final_kl, initial_kl, iterations)

"""Pure-Python kernels (fallback backend): the weighted edit distance and,
in numpy, t-SNE's gradient descent.

Mirrors _dpkernel.c operation for operation: both fill the DP table with
the same additions in the same order, backtrace with the same exact
float comparisons and take the same element-wise minimum at lattice word
boundaries, so the two backends return bitwise-identical costs and
identical move sequences. The descent does the same float operations as
the C loop in the same order, so the embeddings match bit for bit too.
"""

import numpy as np

DIAG = 0
DELETE = 1
INSERT = 2


def _insertion_row(observed, eps_row):
    """Row 0 of a table: the cost of inserting observed[:j]."""
    row = [0.0] * (len(observed) + 1)
    for j in range(1, len(observed) + 1):
        row[j] = row[j - 1] + eps_row[observed[j - 1]]
    return row


def _fill_rows(dp, expected, observed, cost_rows, eps):
    """Fill rows 1..len(expected) of the flat table dp from its row 0.

    The only table fill: dp_align and dp_lattice both call it.
    """
    width = len(observed) + 1
    eps_row = cost_rows[eps]
    for i in range(1, len(expected) + 1):
        arow = cost_rows[expected[i - 1]]
        adel = arow[eps]
        base = i * width
        prev = base - width
        dp[base] = dp[prev] + adel
        for j in range(1, width):
            b = observed[j - 1]
            best = dp[prev + j - 1] + arow[b]
            dele = dp[prev + j] + adel
            if dele < best:
                best = dele
            ins = dp[base + j - 1] + eps_row[b]
            if ins < best:
                best = ins
            dp[base + j] = best


def dp_align(expected, observed, cost_rows, eps, pref0, pref1, pref2):
    """Fill the DP table and backtrace.

    Returns (total_cost, moves) where moves is the forward-order list of
    move codes (DIAG consumes one symbol from each side, DELETE one from
    expected, INSERT one from observed).
    """
    n = len(expected)
    m = len(observed)
    width = m + 1
    eps_row = cost_rows[eps]

    dp = _insertion_row(observed, eps_row) + [0.0] * (n * width)
    _fill_rows(dp, expected, observed, cost_rows, eps)

    prefs = (pref0, pref1, pref2)
    moves = []
    i, j = n, m
    while i > 0 or j > 0:
        cur = dp[i * width + j]
        chosen = -1
        for p in prefs:
            if p == DIAG:
                if (
                    i > 0
                    and j > 0
                    and dp[(i - 1) * width + j - 1]
                    + cost_rows[expected[i - 1]][observed[j - 1]]
                    == cur
                ):
                    chosen = DIAG
                    break
            elif p == DELETE:
                if i > 0 and dp[(i - 1) * width + j] + cost_rows[expected[i - 1]][eps] == cur:
                    chosen = DELETE
                    break
            else:
                if j > 0 and dp[i * width + j - 1] + eps_row[observed[j - 1]] == cur:
                    chosen = INSERT
                    break
        if chosen == -1:  # unreachable: the forward pass stored one of these sums
            raise RuntimeError("backtrace failed to reproduce DP cell")
        moves.append(chosen)
        if chosen == DIAG:
            i -= 1
            j -= 1
        elif chosen == DELETE:
            i -= 1
        else:
            j -= 1

    moves.reverse()
    return dp[n * width + m], moves


def dp_lattice(phonemes, variant_offsets, word_offsets, observed, cost_rows, eps):
    """Minimum total cost over every path through a pronunciation lattice.

    Score only, no backtrace. Word w's variants are variants
    word_offsets[w] up to word_offsets[w + 1]; variant v is
    phonemes[variant_offsets[v]:variant_offsets[v + 1]]. Each variant of
    a word is filled from the same boundary row, and the next boundary row
    is the element-wise minimum of the variants' last rows (an empty
    variant's last row is the boundary itself).
    """
    width = len(observed) + 1
    longest = max([b - a for a, b in zip(variant_offsets, variant_offsets[1:])],
                  default=0)
    dp = _insertion_row(observed, cost_rows[eps]) + [0.0] * (longest * width)
    for w in range(len(word_offsets) - 1):
        boundary = [float("inf")] * width
        for v in range(word_offsets[w], word_offsets[w + 1]):
            expected = phonemes[variant_offsets[v]:variant_offsets[v + 1]]
            _fill_rows(dp, expected, observed, cost_rows, eps)
            last = len(expected) * width
            boundary = [x if x < b else b
                        for x, b in zip(dp[last:last + width], boundary)]
        dp[:width] = boundary
    return dp[width - 1]


def _sum(a, axis, out=None):
    """Left-to-right sums along axis, each starting from its first term:
    the last partial sum of np.add.accumulate, which adds sequentially
    (into out, a scratch array of a's shape, when given)."""
    return np.add.accumulate(a, axis, out=out).take(-1, axis)


def tsne_descend(P, Y, learning_rate, iterations, early_exaggeration,
                 exaggeration_iters):
    """Exact t-SNE's gradient descent from the n x 2 embedding Y against the
    n x n affinities P (zero diagonal); returns the new embedding.

    Iteration it uses P * early_exaggeration and momentum 0.5 while it <
    exaggeration_iters, then P and momentum 0.8. Z, the row sums of PQ,
    the gradient and the centering mean are fixed-order sums, not numpy's
    pairwise sums or a BLAS product, so the result does not depend on the
    CPU. Three n x n work arrays are allocated once and reused in every
    iteration.
    """
    n = Y.shape[0]
    Y = np.array(Y, dtype=np.float64)
    update = np.zeros_like(Y)
    gains = np.ones_like(Y)
    num, PQ, scratch = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    for it in range(iterations):
        exaggerating = it < exaggeration_iters
        momentum = 0.5 if exaggerating else 0.8
        np.subtract(Y[:, None, 0], Y[None, :, 0], out=num)
        num *= num
        np.subtract(Y[:, None, 1], Y[None, :, 1], out=scratch)
        scratch *= scratch
        num += scratch
        num += 1.0
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num, 0.0)
        Z = _sum(_sum(num, 1, scratch), 0)
        # PQ = (P_eff - num / Z) * num
        if exaggerating:
            np.multiply(P, early_exaggeration, out=PQ)
        else:
            PQ[...] = P
        np.divide(num, Z, out=scratch)
        PQ -= scratch
        PQ *= num
        row_sums = _sum(PQ, 1, scratch)
        # grad = 4 (diag(rowsum(PQ)) - PQ) Y; PQ's diagonal is zero
        np.subtract(0.0, PQ, out=PQ)
        np.fill_diagonal(PQ, row_sums)
        PQ *= 4.0
        grad = np.stack([_sum(np.multiply(PQ, column, out=num), 1, scratch)
                         for column in Y.T], axis=1)
        # delta-bar-delta gains keep the step sizes stable under momentum
        agree = (grad > 0) == (update > 0)
        gains[agree] *= 0.8
        gains[~agree] += 0.2
        np.clip(gains, 0.01, None, out=gains)
        update = momentum * update - learning_rate * gains * grad
        Y += update
        Y -= _sum(Y, 0) / n
    return Y

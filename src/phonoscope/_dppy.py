"""Pure-Python kernels (fallback backend): a speaker's weighted edit
distances in one call and, in numpy, squared distances and t-SNE's
gradient descent.

Mirrors _dpkernel.c operation for operation: both fill the DP table with
the same additions in the same order, take the same element-wise minimum
at lattice word boundaries, choose variants by the same comparisons and
backtrace with the same exact float comparisons, so the two backends
return bitwise-identical costs, choices and ops. The distances and the
descent do the same float operations as the C loops in the same order,
so the embeddings match bit for bit too.
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


def _fill_rows(dp, start, expected, observed, cost_rows, eps):
    """Fill the len(expected) rows of the flat table dp that follow its row
    at dp[start:start + width], one expected symbol per row.

    The only table fill.
    """
    width = len(observed) + 1
    eps_row = cost_rows[eps]
    for i, a in enumerate(expected):
        arow = cost_rows[a]
        adel = arow[eps]
        prev = start + i * width
        base = prev + width
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


def _lattice_rows(boundary, phonemes, variant_offsets, word_offsets, first, last,
                  observed, cost_rows, eps):
    """The boundary row carried through words first..last - 1 of the
    lattice, score only.

    Every variant of a word is filled from the same boundary row, and the
    next boundary row is the element-wise minimum of the variants' last
    rows (an empty variant's last row is the boundary itself).
    """
    width = len(boundary)
    for w in range(first, last):
        following = [float("inf")] * width
        for v in range(word_offsets[w], word_offsets[w + 1]):
            expected = phonemes[variant_offsets[v]:variant_offsets[v + 1]]
            dp = boundary + [0.0] * (len(expected) * width)
            _fill_rows(dp, 0, expected, observed, cost_rows, eps)
            following = [x if x < b else b for x, b in zip(dp[-width:], following)]
        boundary = following
    return boundary


def _backtrace(dp, expected, observed, cost_rows, eps, prefs):
    """Each op's row-major cell in the grid, in forward order, from the
    filled table dp."""
    width, size = len(observed) + 1, len(cost_rows)
    eps_row = cost_rows[eps]
    cells = []
    i, j = len(expected), len(observed)
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
        if chosen != INSERT:
            i -= 1
        if chosen != DELETE:
            j -= 1
        cells.append((eps if chosen == INSERT else expected[i]) * size
                     + (eps if chosen == DELETE else observed[j]))
    cells.reverse()
    return cells


def _align_batch(phonemes, variant_offsets, word_offsets, utterance_offsets,
                 observed, observed_offsets, cost_rows, eps, prefs):
    """dp_align_batch on lists: the arguments and results are lists, and
    cost_rows is the grid as nested lists.

    Variant choice, where a word has more than one: one forward lattice
    pass from the insertion row gives the minimum total, best. The table
    then grows word by word below the insertion row: each candidate
    variant of a word is filled once, from the last row of the words
    already fixed, and the unrestricted suffix is carried on from the
    candidate's last row through _lattice_rows' own rows. The first
    candidate whose total equals best is kept, or the last variant when
    none does. When the words run out, the table is that of the chosen
    variants, concatenated, and it is backtraced as it stands.
    """
    eps_row = cost_rows[eps]
    totals, chosen, op_offsets, cells = [], [], [0], []
    for u in range(len(utterance_offsets) - 1):
        first, last = utterance_offsets[u], utterance_offsets[u + 1]
        obs = observed[observed_offsets[u]:observed_offsets[u + 1]]
        width = len(obs) + 1
        dp = _insertion_row(obs, eps_row)
        if word_offsets[last] - word_offsets[first] > last - first:   # a choice
            best = _lattice_rows(dp, phonemes, variant_offsets, word_offsets,
                                 first, last, obs, cost_rows, eps)[-1]
        sequence = []
        for w in range(first, last):
            start = len(sequence) * width   # the fixed words' last row
            for v in range(word_offsets[w], word_offsets[w + 1]):
                variant = phonemes[variant_offsets[v]:variant_offsets[v + 1]]
                dp[start + width:] = [0.0] * (len(variant) * width)
                _fill_rows(dp, start, variant, obs, cost_rows, eps)
                if v == word_offsets[w + 1] - 1 or _lattice_rows(
                        dp[-width:], phonemes, variant_offsets, word_offsets,
                        w + 1, last, obs, cost_rows, eps)[-1] == best:
                    break
            chosen.append(v - word_offsets[w])
            sequence += variant

        cells += _backtrace(dp, sequence, obs, cost_rows, eps, prefs)
        totals.append(dp[-1])
        op_offsets.append(len(cells))
    return totals, chosen, op_offsets, cells


def dp_align_batch(phonemes, variant_offsets, word_offsets, utterance_offsets,
                   observed, observed_offsets, grid, eps, pref0, pref1, pref2):
    """Same contract as _dpcore.dp_align_batch, on the arguments turned
    into lists; it leaves checking them to the caller."""
    totals, *arrays = _align_batch(
        *[a.tolist() for a in (phonemes, variant_offsets, word_offsets,
                               utterance_offsets, observed, observed_offsets)],
        grid.tolist(), eps, (pref0, pref1, pref2))
    return (np.array(totals, dtype=np.float64),
            *[np.array(a, dtype=np.int64) for a in arrays])


def dp_align(expected, observed, cost_rows, eps, pref0, pref1, pref2):
    """One pair as one word of one variant, on sequences and the grid as
    nested lists.

    Returns (total_cost, moves) where moves is the forward-order list of
    move codes (DIAG consumes one symbol from each side, DELETE one from
    expected, INSERT one from observed).
    """
    expected, observed = list(expected), list(observed)
    totals, _, _, cells = _align_batch(
        expected, [0, len(expected)], [0, 1], [0, 1], observed, [0, len(observed)],
        cost_rows, eps, (pref0, pref1, pref2))
    size = len(cost_rows)
    return totals[0], [INSERT if c // size == eps else DELETE if c % size == eps else DIAG
                       for c in cells]


# Squared differences sq_dists takes at once: the columns of one block hold
# at most this many (512 KiB), or one column's worth when that is more, so
# small inputs do not pay a numpy call per column.
SQ_DISTS_BLOCK = 1 << 16


def sq_dists(a, b):
    """Squared distance of every row of the 2-d float64 a to every row of b.

    Each distance sums (a[i, c] - b[j, c])**2 strictly left to right from 0
    over every column c, so it is the same float on every CPU.
    """
    dim = a.shape[1]
    step = max(1, SQ_DISTS_BLOCK // max(1, len(a) * len(b)))
    # b x a, transposed on return, so the subtract runs along a's rows
    total = np.zeros((len(b), len(a)))
    block = np.empty((min(step, dim), len(b), len(a)))
    for start in range(0, dim, step):
        end = min(start + step, dim)
        terms = block[:end - start]
        np.subtract(a.T[start:end, None, :], b.T[start:end, :, None], out=terms)
        terms *= terms
        for term in terms:
            total += term
    return total.T


def _sum(a, axis, out=None):
    """Left-to-right sums along axis, each starting from its first term:
    the last partial sum of np.add.accumulate, which adds sequentially
    (into out, a scratch array of a's shape, when given)."""
    return np.add.accumulate(a, axis, out=out).take(-1, axis)


def tsne_descend(P, Y, learning_rate, iterations, early_exaggeration,
                 exaggeration_iters):
    """Exact t-SNE's gradient descent from the n x 2 embedding Y against the
    n x n affinities P (zero diagonal, equal to their transpose bit for
    bit, or ValueError); returns the new embedding.

    Iteration it uses P * early_exaggeration and momentum 0.5 while it <
    exaggeration_iters, then P and momentum 0.8. Z, the row sums of PQ,
    the gradient and the centering mean are fixed-order sums, not numpy's
    pairwise sums or a BLAS product, so the result does not depend on the
    CPU. Three n x n work arrays are allocated once and reused in every
    iteration.
    """
    if not np.array_equal(P.view(np.int64), P.T.view(np.int64)):
        raise ValueError("affinities must equal their transpose bit for bit")
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

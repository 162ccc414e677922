"""Pure-Python weighted edit-distance kernel (fallback backend).

Mirrors _dpkernel.c operation for operation: both fill the DP table with
the same additions in the same order and backtrace with the same exact
float comparisons, so the two backends return bitwise-identical costs
and identical move sequences.
"""

DIAG = 0
DELETE = 1
INSERT = 2


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

    dp = [0.0] * ((n + 1) * width)
    for i in range(1, n + 1):
        dp[i * width] = dp[(i - 1) * width] + cost_rows[expected[i - 1]][eps]
    for j in range(1, m + 1):
        dp[j] = dp[j - 1] + eps_row[observed[j - 1]]

    for i in range(1, n + 1):
        arow = cost_rows[expected[i - 1]]
        adel = arow[eps]
        base = i * width
        prev = base - width
        for j in range(1, m + 1):
            b = observed[j - 1]
            best = dp[prev + j - 1] + arow[b]
            dele = dp[prev + j] + adel
            if dele < best:
                best = dele
            ins = dp[base + j - 1] + eps_row[b]
            if ins < best:
                best = ins
            dp[base + j] = best

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

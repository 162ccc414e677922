/* Compiled weighted edit-distance kernel, loaded by _dpcore.py.

   Must stay behaviorally identical to _dppy.dp_align: same addition order
   in the table fill, same exact-equality backtrace, same tie preferences.
   The test suite asserts bitwise parity between the two backends.

   grid is a size x size row-major cost matrix. Writes the total cost and
   the forward-order move codes (at most n + m) and returns the number of
   moves; -1 if an index lies outside the grid, -2 if the table cannot be
   allocated, -3 if the backtrace fails to reproduce a cell. */

#include <stdint.h>
#include <stdlib.h>

enum { DIAG = 0, DELETE = 1, INSERT = 2 };

int64_t dp_align(const int64_t *expected, int64_t n,
                 const int64_t *observed, int64_t m,
                 const double *grid, int64_t size, int64_t eps,
                 int pref0, int pref1, int pref2,
                 double *total, int8_t *moves)
{
    const int prefs[3] = {pref0, pref1, pref2};
    const int64_t width = m + 1;
    const double *ins_row;
    int64_t i, j, count = 0;
    double *dp;

    if (eps < 0 || eps >= size) return -1;
    for (i = 0; i < n; i++) if (expected[i] < 0 || expected[i] >= size) return -1;
    for (j = 0; j < m; j++) if (observed[j] < 0 || observed[j] >= size) return -1;
    dp = malloc((size_t)((n + 1) * width) * sizeof *dp);
    if (dp == NULL) return -2;

    ins_row = grid + eps * size;
    dp[0] = 0.0;
    for (i = 1; i <= n; i++)
        dp[i * width] = dp[(i - 1) * width] + grid[expected[i - 1] * size + eps];
    for (j = 1; j <= m; j++)
        dp[j] = dp[j - 1] + ins_row[observed[j - 1]];
    for (i = 1; i <= n; i++) {
        const double *arow = grid + expected[i - 1] * size;
        const double adel = arow[eps];
        double *row = dp + i * width, *prev = row - width;
        for (j = 1; j <= m; j++) {
            const int64_t b = observed[j - 1];
            double best = prev[j - 1] + arow[b];
            const double dele = prev[j] + adel, ins = row[j - 1] + ins_row[b];
            if (dele < best) best = dele;
            if (ins < best) best = ins;
            row[j] = best;
        }
    }

    for (i = n, j = m; i > 0 || j > 0; count++) {
        const double cur = dp[i * width + j];
        int k, chosen = -1;
        for (k = 0; k < 3 && chosen < 0; k++) {
            if (prefs[k] == DIAG) {
                if (i > 0 && j > 0 && dp[(i - 1) * width + j - 1]
                        + grid[expected[i - 1] * size + observed[j - 1]] == cur)
                    chosen = DIAG;
            } else if (prefs[k] == DELETE) {
                if (i > 0 && dp[(i - 1) * width + j] + grid[expected[i - 1] * size + eps] == cur)
                    chosen = DELETE;
            } else if (j > 0 && dp[i * width + j - 1] + ins_row[observed[j - 1]] == cur) {
                chosen = INSERT;
            }
        }
        if (chosen < 0) { free(dp); return -3; }
        moves[count] = (int8_t)chosen;
        if (chosen != INSERT) i--;
        if (chosen != DELETE) j--;
    }
    *total = dp[n * width + m];
    free(dp);
    for (i = 0, j = count - 1; i < j; i++, j--) {
        const int8_t move = moves[i];
        moves[i] = moves[j];
        moves[j] = move;
    }
    return count;
}

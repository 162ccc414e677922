/* Compiled weighted edit-distance kernel, loaded by _dpcore.py.

   Must stay behaviorally identical to _dppy.py: same addition order in
   the table fill, same exact-equality backtrace, same tie preferences,
   same element-wise minimum at lattice word boundaries. The test suite
   asserts bitwise parity between the two backends.

   grid is a size x size row-major cost matrix and eps its epsilon index;
   every table has width m + 1 for the m observed symbols. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { DIAG = 0, DELETE = 1, INSERT = 2 };

static int outside_grid(const int64_t *seq, int64_t len, int64_t size)
{
    int64_t i;
    for (i = 0; i < len; i++) if (seq[i] < 0 || seq[i] >= size) return 1;
    return 0;
}

/* Row 0 of a table: the cost of inserting observed[0 .. j). */
static void insertion_row(const int64_t *observed, int64_t m,
                          const double *grid, int64_t size, int64_t eps, double *row)
{
    const double *ins_row = grid + eps * size;
    int64_t j;
    row[0] = 0.0;
    for (j = 1; j <= m; j++) row[j] = row[j - 1] + ins_row[observed[j - 1]];
}

/* Fills rows 1..n of the table dp from its row 0, one expected symbol per
   row. The only table fill: dp_align and dp_lattice both call it. */
static void fill_rows(const int64_t *expected, int64_t n,
                      const int64_t *observed, int64_t m,
                      const double *grid, int64_t size, int64_t eps, double *dp)
{
    const double *ins_row = grid + eps * size;
    const int64_t width = m + 1;
    int64_t i, j;
    for (i = 1; i <= n; i++) {
        const double *arow = grid + expected[i - 1] * size;
        const double adel = arow[eps];
        double *row = dp + i * width, *prev = row - width;
        row[0] = prev[0] + adel;
        for (j = 1; j <= m; j++) {
            const int64_t b = observed[j - 1];
            double best = prev[j - 1] + arow[b];
            const double dele = prev[j] + adel, ins = row[j - 1] + ins_row[b];
            if (dele < best) best = dele;
            if (ins < best) best = ins;
            row[j] = best;
        }
    }
}

/* Writes the total cost and the forward-order move codes (at most n + m)
   and returns the number of moves; -1 if an index lies outside the grid,
   -2 if the table cannot be allocated, -3 if the backtrace fails to
   reproduce a cell. */
int64_t dp_align(const int64_t *expected, int64_t n,
                 const int64_t *observed, int64_t m,
                 const double *grid, int64_t size, int64_t eps,
                 int pref0, int pref1, int pref2,
                 double *total, int8_t *moves)
{
    const int prefs[3] = {pref0, pref1, pref2};
    const int64_t width = m + 1;
    const double *ins_row = grid + eps * size;
    int64_t i, j, count = 0;
    double *dp;

    if (eps < 0 || eps >= size || outside_grid(expected, n, size)
            || outside_grid(observed, m, size))
        return -1;
    dp = malloc((size_t)((n + 1) * width) * sizeof *dp);
    if (dp == NULL) return -2;
    insertion_row(observed, m, grid, size, eps, dp);
    fill_rows(expected, n, observed, m, grid, size, eps, dp);

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

/* Minimum total cost over every path through a pronunciation lattice,
   score only. Word w's variants are variants word_offsets[w] up to
   word_offsets[w + 1]; variant v is phonemes[variant_offsets[v] ..
   variant_offsets[v + 1]). Each variant of a word is filled from the same
   boundary row, and the next boundary row is the element-wise minimum of
   the variants' last rows (an empty variant's last row is the boundary
   itself). Offsets are checked by the caller. Writes the total and
   returns 0; -1 if an index lies outside the grid, -2 if the scratch rows
   cannot be allocated. */
int64_t dp_lattice(const int64_t *phonemes, const int64_t *variant_offsets,
                   const int64_t *word_offsets, int64_t words,
                   const int64_t *observed, int64_t m,
                   const double *grid, int64_t size, int64_t eps, double *total)
{
    const int64_t width = m + 1, variants = word_offsets[words];
    int64_t v, w, j, longest = 0;
    double *dp, *next;

    if (eps < 0 || eps >= size || outside_grid(phonemes, variant_offsets[variants], size)
            || outside_grid(observed, m, size))
        return -1;
    for (v = 0; v < variants; v++)
        if (variant_offsets[v + 1] - variant_offsets[v] > longest)
            longest = variant_offsets[v + 1] - variant_offsets[v];
    dp = malloc((size_t)((longest + 2) * width) * sizeof *dp);
    if (dp == NULL) return -2;
    next = dp + (longest + 1) * width;

    insertion_row(observed, m, grid, size, eps, dp);
    for (w = 0; w < words; w++) {
        for (j = 0; j <= m; j++) next[j] = INFINITY;
        for (v = word_offsets[w]; v < word_offsets[w + 1]; v++) {
            const int64_t n = variant_offsets[v + 1] - variant_offsets[v];
            const double *last = dp + n * width;
            fill_rows(phonemes + variant_offsets[v], n, observed, m, grid, size, eps, dp);
            for (j = 0; j <= m; j++) if (last[j] < next[j]) next[j] = last[j];
        }
        memcpy(dp, next, (size_t)width * sizeof *dp);
    }
    *total = dp[m];
    free(dp);
    return 0;
}

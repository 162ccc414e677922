/* Compiled kernels, loaded by _dpcore.py: the weighted edit distance and
   t-SNE's gradient descent.

   Must stay behaviorally identical to _dppy.py: same addition order in
   the table fill, same exact-equality backtrace, same tie preferences,
   same element-wise minimum at lattice word boundaries, and in the
   descent the same float operations in the same order. The test suite
   asserts bitwise parity between the two backends. _dpcore compiles
   this file with -ffp-contract=off, so no multiply and add are fused.

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

/* Left-to-right sum of each row of the n x n matrix m, starting from the
   row's first term. Four rows run side by side, each in its own order, so
   their additions overlap. */
static void row_sums(const double *m, int64_t n, double *out)
{
    int64_t i = 0, j;
    for (; i + 4 <= n; i += 4) {
        const double *a = m + i * n, *b = a + n, *c = b + n, *d = c + n;
        double sa = a[0], sb = b[0], sc = c[0], sd = d[0];
        for (j = 1; j < n; j++) {
            sa += a[j];
            sb += b[j];
            sc += c[j];
            sd += d[j];
        }
        out[i] = sa;
        out[i + 1] = sb;
        out[i + 2] = sc;
        out[i + 3] = sd;
    }
    for (; i < n; i++) {
        const double *a = m + i * n;
        double s = a[0];
        for (j = 1; j < n; j++) s += a[j];
        out[i] = s;
    }
}

/* Exact t-SNE's gradient descent on the n x 2 row-major embedding Y, in
   place, against the n x n affinities P (zero diagonal). Iteration it
   uses P * early_exaggeration and momentum 0.5 while it <
   exaggeration_iters, then P and momentum 0.8. Each iteration:
     num = 1 / (1 + dx*dx + dy*dy) off the diagonal, 0 on it, once per
           pair j < i and mirrored;
     Z = the sum of num's row sums;
     PQ = (P_eff - num / Z) * num, the two entries of a pair sharing
          num / Z;
     grad = (4 (diag(rowsum(PQ)) - PQ)) Y;
     delta-bar-delta gains (x 0.8 where the signs of grad and the last
          update agree, + 0.2 elsewhere, at least 0.01), update =
          momentum * update - learning_rate * gains * grad, Y += update;
     Y -= the column sums of Y / n.
   Every sum runs left to right from its first term. work is scratch of
   2 n^2 + 7 n doubles, so the function allocates nothing. */
void tsne_descend(const double *P, double *Y, int64_t n,
                  double learning_rate, int64_t iterations,
                  double early_exaggeration, int64_t exaggeration_iters,
                  double *work)
{
    int64_t it, i, j;
    double *num = work, *pq = num + n * n, *sums = pq + n * n;
    double *grad = sums + n, *update = grad + 2 * n, *gains = update + 2 * n;

    for (i = 0; i < 2 * n; i++) {
        update[i] = 0.0;
        gains[i] = 1.0;
    }

    for (it = 0; it < iterations; it++) {
        const int exaggerating = it < exaggeration_iters;
        const double momentum = exaggerating ? 0.5 : 0.8;
        double z, sx, sy, mx, my;

        for (i = 0; i < n; i++) {
            const double xi = Y[2 * i], yi = Y[2 * i + 1];
            for (j = 0; j < i; j++) {
                const double dx = xi - Y[2 * j], dy = yi - Y[2 * j + 1];
                const double w = 1.0 / (dx * dx + dy * dy + 1.0);
                num[i * n + j] = w;
                num[j * n + i] = w;
            }
            num[i * n + i] = 0.0;
        }
        row_sums(num, n, sums);
        z = sums[0];
        for (i = 1; i < n; i++) z += sums[i];

        for (i = 0; i < n; i++) {
            for (j = 0; j <= i; j++) {
                const double w = num[i * n + j], q = w / z;
                double pij = P[i * n + j], pji = P[j * n + i];
                if (exaggerating) {
                    pij = pij * early_exaggeration;
                    pji = pji * early_exaggeration;
                }
                pq[i * n + j] = (pij - q) * w;
                pq[j * n + i] = (pji - q) * w;
            }
        }
        row_sums(pq, n, sums);

        for (i = 0; i < n; i++) {
            /* row i of 4 (diag(rowsum(PQ)) - PQ) times Y */
            const double *row = pq + i * n;
            double c = i == 0 ? 4.0 * sums[0] : 4.0 * (0.0 - row[0]);
            double gx = c * Y[0], gy = c * Y[1];
            for (j = 1; j < n; j++) {
                c = j == i ? 4.0 * sums[i] : 4.0 * (0.0 - row[j]);
                gx += c * Y[2 * j];
                gy += c * Y[2 * j + 1];
            }
            grad[2 * i] = gx;
            grad[2 * i + 1] = gy;
        }

        for (i = 0; i < 2 * n; i++) {
            if ((grad[i] > 0) == (update[i] > 0)) gains[i] *= 0.8;
            else gains[i] += 0.2;
            if (gains[i] < 0.01) gains[i] = 0.01;
            update[i] = momentum * update[i] - learning_rate * gains[i] * grad[i];
            Y[i] += update[i];
        }

        sx = Y[0];
        sy = Y[1];
        for (i = 1; i < n; i++) {
            sx += Y[2 * i];
            sy += Y[2 * i + 1];
        }
        mx = sx / (double)n;
        my = sy / (double)n;
        for (i = 0; i < n; i++) {
            Y[2 * i] -= mx;
            Y[2 * i + 1] -= my;
        }
    }
}

/* Compiled kernels, loaded by _dpcore.py: a speaker's weighted edit
   distances in one call, and t-SNE's gradient descent.

   Must stay behaviorally identical to _dppy.py: same addition order in
   the table fill, same exact-equality backtrace, same tie preferences,
   same element-wise minimum at lattice word boundaries, the same
   variant choice in the table that is backtraced, and in the descent
   the same float operations in the same order. The test suite asserts
   bitwise parity between the two backends. _dpcore compiles this file
   with -ffp-contract=off, so no multiply and add are fused.

   grid is a size x size row-major cost matrix and eps its epsilon index;
   every table has width m + 1 for the m observed symbols. Each op is
   returned as its row-major cell in grid, expected * size + observed,
   with eps on the side an insertion or a deletion leaves empty. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { DIAG = 0, DELETE = 1, INSERT = 2 };

/* 1 if an index lies outside the grid or is epsilon. */
static int bad_symbols(const int64_t *seq, int64_t len, int64_t size, int64_t eps)
{
    int64_t i;
    for (i = 0; i < len; i++) if (seq[i] < 0 || seq[i] >= size || seq[i] == eps) return 1;
    return 0;
}

/* 1 unless offsets[0 .. count] rises from 0 to end, each step at least
   min_step. */
static int bad_offsets(const int64_t *offsets, int64_t count, int64_t end,
                       int64_t min_step)
{
    int64_t i;
    if (offsets[0] != 0 || offsets[count] != end) return 1;
    for (i = 0; i < count; i++) if (offsets[i + 1] - offsets[i] < min_step) return 1;
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
   row. The only table fill. */
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

/* Carries the boundary row in dp's row 0 through words first .. last - 1
   of the lattice, score only. Every variant of a word is filled from the
   same boundary row, and the next boundary row is the element-wise
   minimum of the variants' last rows (an empty variant's last row is the
   boundary itself). dp has room for the longest variant's rows; next is
   one scratch row. */
static void lattice_rows(const int64_t *phonemes, const int64_t *variant_offsets,
                         const int64_t *word_offsets, int64_t first, int64_t last,
                         const int64_t *observed, int64_t m,
                         const double *grid, int64_t size, int64_t eps,
                         double *dp, double *next)
{
    const int64_t width = m + 1;
    int64_t w, v, j;
    for (w = first; w < last; w++) {
        for (j = 0; j <= m; j++) next[j] = INFINITY;
        for (v = word_offsets[w]; v < word_offsets[w + 1]; v++) {
            const int64_t n = variant_offsets[v + 1] - variant_offsets[v];
            const double *end = dp + n * width;
            fill_rows(phonemes + variant_offsets[v], n, observed, m, grid, size, eps, dp);
            for (j = 0; j <= m; j++) if (end[j] < next[j]) next[j] = end[j];
        }
        memcpy(dp, next, (size_t)width * sizeof *dp);
    }
}

/* Backtraces the filled table dp of expected[0 .. n) against
   observed[0 .. m), writing each op's cell in forward order. Returns the
   number of ops, or -3 if a cell cannot be reproduced. */
static int64_t backtrace(const double *dp, const int64_t *expected, int64_t n,
                         const int64_t *observed, int64_t m,
                         const double *grid, int64_t size, int64_t eps,
                         const int prefs[3], int64_t *cells)
{
    const int64_t width = m + 1;
    const double *ins_row = grid + eps * size;
    int64_t i, j, count = 0;
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
        if (chosen < 0) return -3;
        cells[count] = (chosen == INSERT ? eps : expected[--i]) * size
                       + (chosen == DELETE ? eps : observed[--j]);
    }
    for (i = 0, j = count - 1; i < j; i++, j--) {
        const int64_t cell = cells[i];
        cells[i] = cells[j];
        cells[j] = cell;
    }
    return count;
}

/* Aligns each of a speaker's utterances, in one call.

   The expected side is a lattice per utterance, in CSR arrays: utterance
   u's words are words utterance_offsets[u] up to utterance_offsets[u + 1];
   word w's variants are variants word_offsets[w] up to word_offsets[w + 1];
   variant v is phonemes[variant_offsets[v] .. variant_offsets[v + 1]). A
   plain prompt is one word of one variant. Utterance u's observed side is
   observed[observed_offsets[u] .. observed_offsets[u + 1]).

   Variant choice, where a word has more than one: one forward lattice
   pass from the insertion row gives the minimum total, best. The table
   then grows word by word below the insertion row: each candidate
   variant of a word is filled once, from the last row of the words
   already fixed, and the unrestricted suffix is carried on from the
   candidate's last row through the rows below it. The first candidate
   whose total equals best is kept, or the last variant when none does;
   a kept candidate's rows stay in the table, so each candidate's total
   is that of the lattice restricted to the fixed words and the
   candidate. When the words run out, the table is that of the chosen
   variants, concatenated, and it is backtraced as it stands, with ties
   broken in the order pref0, pref1, pref2 (0 diagonal, 1 delete, 2
   insert).

   Writes utterance u's total to totals[u], each word's chosen variant
   (counted from the word's first) to chosen[w], and the cells of the
   utterance's ops to cells from op_offsets[u] up to op_offsets[u + 1];
   op_offsets[0] is 0. cells needs room for the variants' phonemes plus
   the observed symbols, which bounds every utterance's op count. Returns
   the total op count; -1 if a symbol lies outside the grid or is
   epsilon, or eps outside the grid; -2 if scratch cannot be allocated;
   -3 if a backtrace fails to reproduce a cell; -4 if an offsets array
   does not rise from 0 to the length of what it indexes, or a word has
   no variant. */
int64_t dp_align_batch(const int64_t *phonemes, int64_t phoneme_count,
                       const int64_t *variant_offsets, int64_t variants,
                       const int64_t *word_offsets, int64_t words,
                       const int64_t *utterance_offsets, int64_t utterances,
                       const int64_t *observed, int64_t observed_count,
                       const int64_t *observed_offsets,
                       const double *grid, int64_t size, int64_t eps,
                       int pref0, int pref1, int pref2,
                       double *totals, int64_t *chosen, int64_t *op_offsets,
                       int64_t *cells)
{
    const int prefs[3] = {pref0, pref1, pref2};
    int64_t u, w, v, rows = 1, longest_sequence = 0;
    double *work;
    int64_t *sequence;

    if (bad_offsets(variant_offsets, variants, phoneme_count, 0)
            || bad_offsets(word_offsets, words, variants, 1)
            || bad_offsets(utterance_offsets, utterances, words, 0)
            || bad_offsets(observed_offsets, utterances, observed_count, 0))
        return -4;
    if (eps < 0 || eps >= size || bad_symbols(phonemes, phoneme_count, size, eps)
            || bad_symbols(observed, observed_count, size, eps))
        return -1;
    /* scratch for the largest utterance: one row for the lattice's next
       boundary, then the table of its longest possible chosen sequence
       and, below its last row, a boundary row and its longest variant's
       rows for the suffix */
    for (u = 0; u < utterances; u++) {
        const int64_t width = observed_offsets[u + 1] - observed_offsets[u] + 1;
        int64_t longest = 0, upper = 0;
        for (w = utterance_offsets[u]; w < utterance_offsets[u + 1]; w++) {
            int64_t word_longest = 0;
            for (v = word_offsets[w]; v < word_offsets[w + 1]; v++)
                if (variant_offsets[v + 1] - variant_offsets[v] > word_longest)
                    word_longest = variant_offsets[v + 1] - variant_offsets[v];
            if (word_longest > longest) longest = word_longest;
            upper += word_longest;
        }
        if (upper > longest_sequence) longest_sequence = upper;
        if ((upper + longest + 3) * width > rows) rows = (upper + longest + 3) * width;
    }
    work = malloc((size_t)rows * sizeof *work);
    sequence = malloc((size_t)(longest_sequence + 1) * sizeof *sequence);
    if (work == NULL || sequence == NULL) {
        free(work);
        free(sequence);
        return -2;
    }

    op_offsets[0] = 0;
    for (u = 0; u < utterances; u++) {
        const int64_t first = utterance_offsets[u], last = utterance_offsets[u + 1];
        const int64_t *obs = observed + observed_offsets[u];
        const int64_t m = observed_offsets[u + 1] - observed_offsets[u], width = m + 1;
        double *next = work, *dp = next + width, best = 0.0;
        int64_t n = 0, count;

        insertion_row(obs, m, grid, size, eps, dp);
        if (word_offsets[last] - word_offsets[first] > last - first) {   /* a choice */
            memcpy(dp + width, dp, (size_t)width * sizeof *dp);
            lattice_rows(phonemes, variant_offsets, word_offsets, first, last,
                         obs, m, grid, size, eps, dp + width, next);
            best = dp[width + m];
        }
        for (w = first; w < last; w++) {
            double *row = dp + n * width;   /* the fixed words' last row */
            int64_t length;
            for (v = word_offsets[w];; v++) {
                double *end;
                length = variant_offsets[v + 1] - variant_offsets[v];
                end = row + length * width;
                fill_rows(phonemes + variant_offsets[v], length, obs, m,
                          grid, size, eps, row);
                if (v == word_offsets[w + 1] - 1) break;
                memcpy(end + width, end, (size_t)width * sizeof *dp);
                lattice_rows(phonemes, variant_offsets, word_offsets, w + 1, last,
                             obs, m, grid, size, eps, end + width, next);
                if (end[width + m] == best) break;
            }
            chosen[w] = v - word_offsets[w];
            memcpy(sequence + n, phonemes + variant_offsets[v],
                   (size_t)length * sizeof *sequence);
            n += length;
        }

        count = backtrace(dp, sequence, n, obs, m, grid, size, eps, prefs,
                          cells + op_offsets[u]);
        if (count < 0) break;
        totals[u] = dp[n * width + m];
        op_offsets[u + 1] = op_offsets[u] + count;
    }
    free(work);
    free(sequence);
    return u < utterances ? -3 : op_offsets[utterances];
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

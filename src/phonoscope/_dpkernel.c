/* Compiled kernels, loaded by _dpcore.py: a speaker's weighted edit
   distances in one call, strict-order squared distances between the
   rows of two matrices, and t-SNE's gradient descent.

   Must stay behaviorally identical to _dppy.py: same addition order in
   the table fill, same exact-equality backtrace, same tie preferences,
   same element-wise minimum at lattice word boundaries, the same
   variant choice in the table that is backtraced, and in the distances
   and the descent the same float operations in the same order. The test
   suite asserts bitwise parity between the two backends. _dpcore
   compiles this file at -O3, where gcc vectorizes the loops that add one
   term to many sums at once (never the terms of one sum), and with
   -ffp-contract=off, so no multiply and add are fused.

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

/* Squared distances of the rows of the na x dim row-major a to those of
   the nb x dim b: out, nb x na row-major, gets at out[j * na + i] the sum
   of (a[i, c] - b[j, c])^2 over c = 0, 1, ..., dim - 1, strictly left to
   right from 0. When same is set, b is a: only the entries i <= j are
   summed, diagonal included, and the others are mirrored from them.

   The columns are taken block at a time, each block of a's columns copied
   column-major into scratch (block * na doubles), so the inner loop runs
   along a's rows, adding one term to each of many sums; four columns go
   through one pass. Each sum still gets its terms one at a time, in column
   order, so the result is the same float whatever the vector width. */
void sq_dists(const double *a, int64_t na, const double *b, int64_t nb, int64_t dim,
              int same, int64_t block, double *scratch, double *out)
{
    int64_t first, i, j, k;
    for (i = 0; i < na * nb; i++) out[i] = 0.0;
    for (first = 0; first < dim; first += block) {
        const int64_t width = dim - first < block ? dim - first : block;
        for (i = 0; i < na; i++)
            for (k = 0; k < width; k++) scratch[k * na + i] = a[i * dim + first + k];
        for (j = 0; j < nb; j++) {
            const double *bj = b + j * dim + first;
            const int64_t end = same ? j + 1 : na;
            double *row = out + j * na;
            for (k = 0; k + 4 <= width; k += 4) {
                const double *t0 = scratch + k * na, *t1 = t0 + na, *t2 = t1 + na,
                             *t3 = t2 + na;
                const double v0 = bj[k], v1 = bj[k + 1], v2 = bj[k + 2], v3 = bj[k + 3];
                for (i = 0; i < end; i++) {
                    const double d0 = t0[i] - v0, d1 = t1[i] - v1, d2 = t2[i] - v2,
                                 d3 = t3[i] - v3;
                    row[i] = row[i] + d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3;
                }
            }
            for (; k < width; k++) {
                const double *t = scratch + k * na, v = bj[k];
                for (i = 0; i < end; i++) {
                    const double d = t[i] - v;
                    row[i] += d * d;
                }
            }
        }
    }
    if (same)
        for (j = 0; j < nb; j++)
            for (i = 0; i < j; i++) out[i * na + j] = out[j * na + i];
}

/* Adds the terms of PQ's rows j .. j + 3, in that order, to the gradient
   entries i0 .. i1 - 1, none of which lies on those rows' diagonal: row
   j + k's entry i is e[i * across + k * down] and its coefficient
   4 (0 - entry). */
static void add_gradient_rows(const double *e, int64_t across, int64_t down,
                              const double *xs, const double *ys,
                              int64_t i0, int64_t i1, double *gx, double *gy)
{
    const double x0 = xs[0], x1 = xs[1], x2 = xs[2], x3 = xs[3];
    const double y0 = ys[0], y1 = ys[1], y2 = ys[2], y3 = ys[3];
    int64_t i;
    for (i = i0; i < i1; i++) {
        const double *t = e + i * across;
        const double c0 = 4.0 * (0.0 - t[0]), c1 = 4.0 * (0.0 - t[down]),
                     c2 = 4.0 * (0.0 - t[2 * down]), c3 = 4.0 * (0.0 - t[3 * down]);
        gx[i] = gx[i] + c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3;
        gy[i] = gy[i] + c0 * y0 + c1 * y1 + c2 * y2 + c3 * y3;
    }
}

/* Row r's entry at column i of 4 (diag(rowsum(PQ)) - PQ), with PQ in its
   upper triangle and its row sums in sums. */
static double gradient_weight(const double *pq, int64_t n, const double *sums,
                              int64_t r, int64_t i)
{
    if (r == i) return 4.0 * sums[i];
    return 4.0 * (0.0 - (r < i ? pq[r * n + i] : pq[i * n + r]));
}

/* Exact t-SNE's gradient descent on the n x 2 row-major embedding Y, in
   place, against the n x n affinities P (zero diagonal), which must equal
   their transpose bit for bit. Iteration it uses P * early_exaggeration
   and momentum 0.5 while it < exaggeration_iters, then P and momentum
   0.8. Each iteration:
     num = 1 / (1 + dx*dx + dy*dy) off the diagonal, 0 on it;
     Z = the sum of num's row sums;
     PQ = (P_eff - num / Z) * num;
     grad = (4 (diag(rowsum(PQ)) - PQ)) Y;
     delta-bar-delta gains (x 0.8 where the signs of grad and the last
          update agree, + 0.2 elsewhere, at least 0.01), update =
          momentum * update - learning_rate * gains * grad, Y += update;
     Y -= the column sums of Y / n.
   Every sum runs left to right from its first term. num and PQ are
   symmetric, so each is computed once per pair, into its upper triangle,
   and each row sum is taken down the columns: a pass walks the rows in
   order and adds each row to one running sum per column, which
   vectorizes without changing any sum's order. work is scratch of
   2 n^2 + 9 n doubles, so the function allocates nothing. */
void tsne_descend(const double *P, double *Y, int64_t n,
                  double learning_rate, int64_t iterations,
                  double early_exaggeration, int64_t exaggeration_iters,
                  double *work)
{
    int64_t it, i, j;
    double *num = work, *pq = num + n * n, *sums = pq + n * n;
    double *xs = sums + n, *ys = xs + n, *grad = ys + n, *update = grad + 2 * n;
    double *gains = update + 2 * n, *gx = grad, *gy = grad + n;

    for (i = 0; i < n; i++) {
        xs[i] = Y[2 * i];
        ys[i] = Y[2 * i + 1];
    }
    for (i = 0; i < 2 * n; i++) {
        update[i] = 0.0;
        gains[i] = 1.0;
    }

    for (it = 0; it < iterations; it++) {
        const int exaggerating = it < exaggeration_iters;
        const double momentum = exaggerating ? 0.5 : 0.8;
        const double scale = exaggerating ? early_exaggeration : 1.0;
        double z, sx, sy, mx, my;

        /* num and PQ live in their upper triangles. Row j's entries right
           of the diagonal are computed there and added to their columns'
           sums at once; its entries left of it are the rows above's
           entries j. Every sum starts from -0.0, as -0.0 + t is t. */
        for (i = 0; i < n; i++) sums[i] = -0.0;
        for (j = 0; j < n; j++) {
            double *row = num + j * n;
            const double xj = xs[j], yj = ys[j];
            row[j] = 0.0;
            for (i = 0; i <= j; i++) sums[i] += num[i * n + j];
            for (i = j + 1; i < n; i++) {
                const double dx = xj - xs[i], dy = yj - ys[i];
                row[i] = 1.0 / (dx * dx + dy * dy + 1.0);
                sums[i] += row[i];
            }
        }
        z = sums[0];
        for (i = 1; i < n; i++) z += sums[i];

        /* x * 1.0 is x, so scale 1.0 leaves P as it is */
        for (i = 0; i < n; i++) sums[i] = -0.0;
        for (j = 0; j < n; j++) {
            const double *w = num + j * n, *p = P + j * n;
            double *row = pq + j * n;
            row[j] = (p[j] * scale - w[j] / z) * w[j];
            for (i = 0; i <= j; i++) sums[i] += pq[i * n + j];
            for (i = j + 1; i < n; i++) {
                row[i] = (p[i] * scale - w[i] / z) * w[i];
                sums[i] += row[i];
            }
        }

        /* row i of 4 (diag(rowsum(PQ)) - PQ) times Y, as the sum over j
           of row j's terms, four rows j at a time */
        for (i = 0; i < n; i++) gx[i] = gy[i] = -0.0;
        for (j = 0; j + 4 <= n; j += 4) {
            /* left of the diagonal: the entries j .. j + 3 of the rows above */
            add_gradient_rows(pq + j, n, 1, xs + j, ys + j, 0, j, gx, gy);
            for (i = j; i < j + 4; i++) {
                int64_t r;
                for (r = j; r < j + 4; r++) {
                    const double c = gradient_weight(pq, n, sums, r, i);
                    gx[i] += c * xs[r];
                    gy[i] += c * ys[r];
                }
            }
            add_gradient_rows(pq + j * n, 1, n, xs + j, ys + j, j + 4, n, gx, gy);
        }
        for (; j < n; j++) {
            for (i = 0; i < n; i++) {
                const double c = gradient_weight(pq, n, sums, j, i);
                gx[i] += c * xs[j];
                gy[i] += c * ys[j];
            }
        }

        for (i = 0; i < 2 * n; i++) {
            if ((grad[i] > 0) == (update[i] > 0)) gains[i] *= 0.8;
            else gains[i] += 0.2;
            if (gains[i] < 0.01) gains[i] = 0.01;
            update[i] = momentum * update[i] - learning_rate * gains[i] * grad[i];
            xs[i] += update[i];   /* xs and ys are one array of 2 n */
        }

        sx = xs[0];
        sy = ys[0];
        for (i = 1; i < n; i++) {
            sx += xs[i];
            sy += ys[i];
        }
        mx = sx / (double)n;
        my = sy / (double)n;
        for (i = 0; i < n; i++) {
            xs[i] -= mx;
            ys[i] -= my;
        }
    }
    for (i = 0; i < n; i++) {
        Y[2 * i] = xs[i];
        Y[2 * i + 1] = ys[i];
    }
}

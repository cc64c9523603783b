/* Native kernels for the packed-bit hot spots: bit transpose, row
 * popcount, row fold (the unique-syndrome grouping key) and batched GF(2)
 * row reduction.
 *
 * Compiled at runtime by repro.gf2.kernels (plain `cc -O3 -shared -fPIC`,
 * optionally with -fopenmp) and loaded through ctypes — no build step, no
 * new dependency; if no compiler is available the pure-numpy backends take
 * over.  Every function here is bit-identical to its numpy reference
 * (pinned by tests/test_kernels.py).
 *
 * Bit conventions match repro.gf2.bitmat.pack_rows: bit j of a row lives
 * in word j/64 at little-endian bit position j%64.
 */

#include <stdint.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* 64x64 bit transpose of one block, little-endian butterfly network
 * (Hacker's Delight 7-3, mirrored for little-endian bit order exactly
 * like the numpy reference in repro.gf2.bitmat). */
static void transpose64(uint64_t w[64]) {
  static const int shifts[6] = {32, 16, 8, 4, 2, 1};
  static const uint64_t masks[6] = {
      0x00000000FFFFFFFFULL, 0x0000FFFF0000FFFFULL, 0x00FF00FF00FF00FFULL,
      0x0F0F0F0F0F0F0F0FULL, 0x3333333333333333ULL, 0x5555555555555555ULL,
  };
  for (int s = 0; s < 6; s++) {
    const int j = shifts[s];
    const uint64_t m = masks[s];
    for (int lo = 0; lo < 64; lo++) {
      if (lo & j) {
        continue;
      }
      const int hi = lo | j;
      const uint64_t a = w[lo];
      const uint64_t b = w[hi];
      const uint64_t t = ((a >> j) ^ b) & m;
      w[lo] = a ^ (t << j);
      w[hi] = b ^ t;
    }
  }
}

/* Blockwise bit transpose.
 *
 * in : (row_blocks * 64, nwords) uint64, row-major, rows >= m zero-padded
 * out: (nwords * 64, row_blocks) uint64, row-major
 *
 * out[(c*64 + j) * row_blocks + b] bit i == in[(b*64 + i) * nwords + c]
 * bit j — the same contract as the vectorized numpy butterfly.
 */
void repro_transpose_words(const uint64_t *in, uint64_t *out,
                           long row_blocks, long nwords) {
  const long nblocks = row_blocks * nwords;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long t = 0; t < nblocks; t++) {
    const long b = t / nwords;
    const long c = t % nwords;
    uint64_t w[64];
    const uint64_t *src = in + (b * 64) * nwords + c;
    for (int i = 0; i < 64; i++) {
      w[i] = src[(long)i * nwords];
    }
    transpose64(w);
    uint64_t *dst = out + (c * 64) * row_blocks + b;
    for (int j = 0; j < 64; j++) {
      dst[(long)j * row_blocks] = w[j];
    }
  }
}

/* Per-row popcount: out[i] = number of set bits in row i of (m, n). */
void repro_popcount_rows(const uint64_t *in, long m, long n, int64_t *out) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long i = 0; i < m; i++) {
    const uint64_t *row = in + i * n;
    int64_t total = 0;
    for (long k = 0; k < n; k++) {
#if defined(__GNUC__) || defined(__clang__)
      total += __builtin_popcountll(row[k]);
#else
      uint64_t v = row[k];
      v = v - ((v >> 1) & 0x5555555555555555ULL);
      v = (v & 0x3333333333333333ULL) + ((v >> 2) & 0x3333333333333333ULL);
      v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
      total += (int64_t)((v * 0x0101010101010101ULL) >> 56);
#endif
    }
    out[i] = total;
  }
}

/* splitmix64-style fold of multi-word rows to one uint64 hash key each —
 * the sort key for the hash-grouped unique_shot_words fast path. */
void repro_fold_rows(const uint64_t *in, long m, long n, uint64_t *out) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (long i = 0; i < m; i++) {
    const uint64_t *row = in + i * n;
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (long k = 0; k < n; k++) {
      uint64_t v = row[k] + h;
      v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ULL;
      v = (v ^ (v >> 27)) * 0x94D049BB133111EBULL;
      h = v ^ (v >> 31);
    }
    out[i] = h;
  }
}

/* Batched in-place full RREF over GF(2).
 *
 * words : (batch, nrows, nwords) uint64, C-contiguous, reduced in place
 * limit : eliminate over the leading `limit` columns only (the augmented
 *         [A | b] case leaves the trailing columns as passengers)
 * pivots: (batch, nrows) int64 out; pivots[b][r] = pivot column of row r
 *         for r < ranks[b], -1 beyond
 * ranks : (batch,) int64 out
 *
 * The pivot rule and row swaps are exactly those of the numpy reference
 * (repro.gf2.kernels.NumpyBackend.rref_batch): the pivot for a column is
 * the first row at or below `rank` with the bit set, swapped into place
 * and XORed into every other row with the bit.  Rows at or below `rank`
 * are zero in every column already passed, so the XOR starts at the
 * pivot's word.  Serial by design: the batches are small and the callers
 * already run one per worker process.
 */
void repro_rref_batch(uint64_t *words, long batch, long nrows, long nwords,
                      long limit, int64_t *pivots, int64_t *ranks) {
  for (long b = 0; b < batch; b++) {
    uint64_t *mat = words + b * nrows * nwords;
    int64_t *piv = pivots + b * nrows;
    long rank = 0;
    for (long r = 0; r < nrows; r++) {
      piv[r] = -1;
    }
    for (long col = 0; col < limit && rank < nrows; col++) {
      const long w = col / 64;
      const uint64_t bit = 1ULL << (col % 64);
      long p = rank;
      while (p < nrows && !(mat[p * nwords + w] & bit)) {
        p++;
      }
      if (p == nrows) {
        continue;
      }
      uint64_t *prow = mat + rank * nwords;
      if (p != rank) {
        uint64_t *other = mat + p * nwords;
        for (long k = w; k < nwords; k++) {
          const uint64_t t = prow[k];
          prow[k] = other[k];
          other[k] = t;
        }
      }
      for (long r = 0; r < nrows; r++) {
        uint64_t *row = mat + r * nwords;
        if (r != rank && (row[w] & bit)) {
          for (long k = w; k < nwords; k++) {
            row[k] ^= prow[k];
          }
        }
      }
      piv[rank] = col;
      rank++;
    }
    ranks[b] = rank;
  }
}

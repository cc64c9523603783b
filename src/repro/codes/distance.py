"""Randomized minimum-distance estimation (information-set decoding).

This is the QDistRnd-style sampler the paper references in §6.2: draw a
random information set, row-reduce the generator matrix, and harvest
low-weight codewords from the reduced rows (and pairs of rows,
Lee-Brickell order 2).  The result is an upper bound that converges to the
true distance rapidly for the small-to-moderate codes used here.

The search is batched: a block of iterations draws its permutations
(sequentially, from the one RNG stream), packs the column-permuted
generator copies into one ``(block, k, words)`` stack and reduces all of
them with a single :func:`repro.gf2.kernels.rref_batch` call.  Harvesting
is vectorized over packed words — the candidates of an iteration are its
nonzero RREF rows followed by the XORs of every pair of them in ``(i, j)``
order, and a candidate is logical when it anticommutes with some row of
the (equally permuted) logical matrix.  The search returns the *first*
minimum-weight logical in that sequential order, so it agrees exactly
with the one-iteration-at-a-time loop it replaced; blocks are sized by a
fixed working-set budget and the running best carries across them.

The same routine doubles as the *code-level* d_eff reference; circuit-level
d_eff uses PropHunt's subgraph machinery instead because the global
circuit-level problem is intractable (paper Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import gf2
from ..gf2 import kernels
from ..gf2.bitmat import unpack_rows
from ..gf2.kernels import popcount_u64
from .css import CSSCode

_NOT_FOUND = np.iinfo(np.int64).max
_WORD = 64
# Working-set budget of one block of iterations (packed candidates, pair
# XORs and their popcount/parity intermediates).  A block always holds at
# least one iteration.
_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class MinWeightResult:
    """Outcome of a randomized min-weight logical search."""

    weight: int
    vector: np.ndarray
    iterations_used: int

    def found(self) -> bool:
        return self.weight < _NOT_FOUND


def _block_iterations(k: int, nwords: int, nlogicals: int) -> int:
    """Iterations per block for a ``k``-row generator under the budget."""
    candidates = k + k * (k - 1) // 2
    per_iteration = candidates * (24 * nwords + nlogicals + 24) + 128 * k * nwords
    return max(1, _BLOCK_BYTES // per_iteration)


def _pack_permuted(dense: np.ndarray, perms: np.ndarray, nwords: int) -> np.ndarray:
    """``(block, rows, nwords)`` packed copies of ``dense[:, perm]``."""
    block, n = perms.shape
    padded = np.zeros((block, dense.shape[0], nwords * _WORD), dtype=np.uint8)
    padded[:, :, :n] = dense.T[perms].transpose(0, 2, 1)
    return np.packbits(padded, axis=2, bitorder="little").view(np.uint64)


def min_weight_logical(
    stabilizer_kernel_of: np.ndarray,
    logicals: np.ndarray,
    iterations: int = 100,
    rng: np.random.Generator | None = None,
    early_stop_weight: int | None = None,
    pair_search: bool = True,
) -> MinWeightResult:
    """Estimate min{|v| : stabilizer_kernel_of @ v = 0, logicals @ v != 0}.

    ``stabilizer_kernel_of`` is the check matrix whose kernel contains the
    candidate operators (e.g. ``hz`` when searching X-type logicals) and
    ``logicals`` the opposing logical matrix used to reject stabilizers
    (e.g. ``lz``).  Each iteration draws one ``rng.permutation(n)``; with
    ``early_stop_weight`` the search ends after the first iteration whose
    best weight is at or below it, and ``rng`` is left exactly as if no
    later permutation had been drawn.
    """
    rng = rng or np.random.default_rng()
    gen = gf2.nullspace(stabilizer_kernel_of)
    n = stabilizer_kernel_of.shape[1]
    logicals = np.atleast_2d(np.asarray(logicals, dtype=np.uint8)) & 1
    best_w = _NOT_FOUND
    best_v = np.zeros(n, dtype=np.uint8)
    k = gen.shape[0]
    if k == 0:
        return MinWeightResult(best_w, best_v, 0)

    iterations = max(0, int(iterations))
    nwords = max(1, (n + _WORD - 1) // _WORD)
    nlogicals = logicals.shape[0]
    if pair_search:
        pair_i, pair_j = np.triu_indices(k, 1)
    else:
        pair_i = pair_j = np.zeros(0, dtype=np.int64)
    block = _block_iterations(k, nwords, nlogicals)
    snapshot = rng.bit_generator.state if early_stop_weight is not None else None

    used = drawn = 0
    stopped = False
    while used < iterations and not stopped:
        count = min(block, iterations - used)
        drawn += count
        perms = np.empty((count, n), dtype=np.int64)
        for b in range(count):
            perms[b] = rng.permutation(n)
        cand = _pack_permuted(gen, perms, nwords)
        _, ranks = kernels.rref_batch(cand, n)
        # Nonzero RREF rows are the first ``rank`` of each matrix; a pair
        # is live when its second row is.
        live_single = np.arange(k) < ranks[:, None]
        live_pair = pair_j < ranks[:, None]
        # Logical action: parity of (candidate AND logical row), against
        # logicals permuted like the generator; pairs inherit it by XOR.
        logp = _pack_permuted(logicals, perms, nwords)
        anded = cand[:, :, None, :] & logp[:, None, :, :]
        flips = (popcount_u64(np.bitwise_xor.reduce(anded, axis=3)) & 1) == 1
        logical_single = flips.any(axis=2)
        logical_pair = (flips[:, pair_i] ^ flips[:, pair_j]).any(axis=2)
        pair_words = cand[:, pair_i] ^ cand[:, pair_j]
        scores = np.concatenate(
            [
                np.where(
                    live_single & logical_single,
                    popcount_u64(cand).sum(axis=2, dtype=np.int64),
                    _NOT_FOUND,
                ),
                np.where(
                    live_pair & logical_pair,
                    popcount_u64(pair_words).sum(axis=2, dtype=np.int64),
                    _NOT_FOUND,
                ),
            ],
            axis=1,
        )
        if early_stop_weight is not None:
            running = np.minimum.accumulate(np.minimum(scores.min(axis=1), best_w))
            stops = np.nonzero(running <= early_stop_weight)[0]
            stopped = stops.size > 0
            if stopped:
                count = int(stops[0]) + 1
                scores = scores[:count]
        flat = int(np.argmin(scores))
        b, c = divmod(flat, scores.shape[1])
        if scores[b, c] < best_w:
            best_w = int(scores[b, c])
            words = cand[b, c] if c < k else pair_words[b, c - k]
            bits = unpack_rows(words[None], n)[0]
            best_v = np.empty(n, dtype=np.uint8)
            best_v[perms[b]] = bits  # undo the permutation
        used += count
    if drawn > used:
        # Early stop inside a block: rewind the RNG to just after the
        # stopping iteration's draw.
        rng.bit_generator.state = snapshot
        for _ in range(used):
            rng.permutation(n)
    return MinWeightResult(best_w, best_v, used)


def estimate_distance(
    code: CSSCode,
    iterations: int = 100,
    rng: np.random.Generator | None = None,
) -> int:
    """Upper-bound estimate of the code distance min(d_X, d_Z).

    Raises ``ValueError`` when neither search finds a logical operator —
    ``iterations=0``, or a code without logical qubits.
    """
    rng = rng or np.random.default_rng()
    dx = min_weight_logical(
        code.hz,
        code.lz,
        iterations=iterations,
        rng=rng,
        early_stop_weight=code.distance,
    )
    dz = min_weight_logical(
        code.hx,
        code.lx,
        iterations=iterations,
        rng=rng,
        early_stop_weight=code.distance,
    )
    weight = min(dx.weight, dz.weight)
    if weight == _NOT_FOUND:
        raise ValueError(
            f"no logical operator of code {code.name!r} found in "
            f"{iterations} ISD iterations per basis"
        )
    return int(weight)

"""Batched information-set search vs the per-iteration loop it replaced.

``min_weight_logical`` reduces a whole block of permuted generator copies
with one ``kernels.rref_batch`` call and harvests candidates with packed
vectorized ops.  The oracle below is the previous implementation,
verbatim: one ``rng.permutation`` + ``BitMatrix.row_reduce`` per
iteration, a dense ``consider`` pass over the reduced rows and a
Lee-Brickell pair loop.  It runs on the numpy reference backend, so it
shares no native code with the search under test.

Every case asserts exact agreement: ``weight``, the ``vector`` bytes,
``iterations_used`` and the generator's ``bit_generator.state`` after the
call — on random ``(h, l)`` pairs, real PropHunt subgraphs, the code zoo
through ``estimate_distance`` (the early-stop path), ``pair_search=False``,
``iterations`` of 0 and 1, zero- and one-row generators, empty logicals,
``n > 64`` and searches spanning several memory blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import gf2
from repro.circuits import coloration_schedule
from repro.codes import (
    BENCHMARK_CODES,
    CSSCode,
    estimate_distance,
    load_benchmark_code,
    min_weight_logical,
    rotated_surface_code,
)
from repro.codes import distance
from repro.codes.distance import MinWeightResult
from repro.core import DecodingGraph, PropHunt, PropHuntConfig
from repro.core.ambiguity import sample_ambiguous_subgraphs
from repro.gf2 import kernels
from repro.gf2.bitmat import BitMatrix
from repro.gf2.kernels import popcount_u64

# -- oracle: the per-iteration search, verbatim ---------------------------------


def _oracle_search(
    stabilizer_kernel_of: np.ndarray,
    logicals: np.ndarray,
    iterations: int = 100,
    rng: np.random.Generator | None = None,
    early_stop_weight: int | None = None,
    pair_search: bool = True,
) -> MinWeightResult:
    rng = rng or np.random.default_rng()
    gen = gf2.nullspace(stabilizer_kernel_of)
    n = stabilizer_kernel_of.shape[1]
    logicals = np.atleast_2d(np.asarray(logicals, dtype=np.uint8))
    best_w = np.iinfo(np.int64).max
    best_v = np.zeros(n, dtype=np.uint8)
    if gen.shape[0] == 0:
        return MinWeightResult(best_w, best_v, 0)

    log_int = logicals.astype(np.int64)

    def consider(rows_dense: np.ndarray, used: int) -> tuple[int, np.ndarray]:
        nonlocal best_w, best_v
        flips = log_int @ rows_dense.T.astype(np.int64) % 2
        is_logical = flips.any(axis=0)
        weights = rows_dense.sum(axis=1)
        for idx in np.nonzero(is_logical)[0]:
            if weights[idx] < best_w:
                best_w = int(weights[idx])
                best_v = rows_dense[idx].copy()
        return best_w, best_v

    it = 0
    for it in range(1, iterations + 1):
        perm = rng.permutation(n)
        permuted = BitMatrix.from_dense(gen[:, perm])
        permuted.row_reduce()
        reduced = permuted.to_dense()
        reduced = reduced[reduced.any(axis=1)]
        # Undo the permutation so harvested rows are codewords of the code.
        unperm = np.empty_like(reduced)
        unperm[:, perm] = reduced
        consider(unperm, it)
        if pair_search and reduced.shape[0] >= 2:
            packed = BitMatrix.from_dense(unperm)
            m = packed.nrows
            # Lee-Brickell order 2: XOR of each pair of reduced rows.
            pair_rows = []
            for i in range(m - 1):
                xors = packed.words[i + 1 :] ^ packed.words[i]
                w = popcount_u64(xors).sum(axis=1)
                keep = np.nonzero(w < best_w)[0]
                for j in keep:
                    pair_rows.append(unperm[i] ^ unperm[i + 1 + j])
            if pair_rows:
                consider(np.array(pair_rows, dtype=np.uint8), it)
        if early_stop_weight is not None and best_w <= early_stop_weight:
            break
    return MinWeightResult(best_w, best_v, it)


def oracle_min_weight_logical(*args, **kwargs) -> MinWeightResult:
    with kernels.use_backend("numpy"):
        return _oracle_search(*args, **kwargs)


def oracle_estimate_distance(code, iterations, rng):
    dx = oracle_min_weight_logical(
        code.hz,
        code.lz,
        iterations=iterations,
        rng=rng,
        early_stop_weight=code.distance,
    )
    dz = oracle_min_weight_logical(
        code.hx,
        code.lx,
        iterations=iterations,
        rng=rng,
        early_stop_weight=code.distance,
    )
    return int(min(dx.weight, dz.weight))


# -- helpers -----------------------------------------------------------------------


def assert_search_parity(h, l_mat, seed=0, **kwargs) -> MinWeightResult:
    """New search and oracle agree on result and on post-call RNG state."""
    rng_new = np.random.default_rng(seed)
    rng_old = np.random.default_rng(seed)
    got = min_weight_logical(h, l_mat, rng=rng_new, **kwargs)
    want = oracle_min_weight_logical(h, l_mat, rng=rng_old, **kwargs)
    assert got.weight == want.weight
    assert got.vector.dtype == want.vector.dtype == np.uint8
    assert got.vector.tobytes() == want.vector.tobytes()
    assert got.iterations_used == want.iterations_used
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return got


def _random_matrix(rng, rows, cols, density):
    return (rng.random((rows, cols)) < density).astype(np.uint8)


@pytest.fixture(scope="module")
def prophunt_subgraphs():
    """Ambiguous subgraphs PropHunt solves on surface d3/d5 coloration."""
    subs = []
    for d in (3, 5):
        code = rotated_surface_code(d)
        hunt = PropHunt(code, PropHuntConfig())
        dem = hunt.build_dem(coloration_schedule(code), "z")
        graph = DecodingGraph(dem)
        subs += sample_ambiguous_subgraphs(graph, 12, np.random.default_rng(d))
    assert any(s.h.sum(axis=0).max() > 2 for s in subs)  # some not graph-like
    return subs


# -- parity -------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=90),
    rows_frac=st.floats(min_value=0.0, max_value=1.0),
    nlogicals=st.integers(min_value=0, max_value=3),
    density=st.sampled_from([0.1, 0.3, 0.5]),
    iterations=st.integers(min_value=0, max_value=12),
    pair_search=st.booleans(),
    stop=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_pairs(
    n, rows_frac, nlogicals, density, iterations, pair_search, stop, seed
):
    rng = np.random.default_rng(seed)
    h = _random_matrix(rng, int(rows_frac * n), n, density)
    l_mat = _random_matrix(rng, nlogicals, n, density)
    assert_search_parity(
        h,
        l_mat,
        seed=seed,
        iterations=iterations,
        pair_search=pair_search,
        early_stop_weight=stop,
    )


def test_prophunt_subgraphs(prophunt_subgraphs):
    for idx, sub in enumerate(prophunt_subgraphs):
        got = assert_search_parity(
            sub.h, sub.l, seed=idx, iterations=120, pair_search=True
        )
        assert got.found()


def test_prophunt_subgraphs_singles_only(prophunt_subgraphs):
    for idx, sub in enumerate(prophunt_subgraphs[:6]):
        assert_search_parity(sub.h, sub.l, seed=idx, iterations=40, pair_search=False)


@pytest.mark.parametrize("iterations", [0, 1])
def test_tiny_iteration_counts(prophunt_subgraphs, iterations):
    sub = prophunt_subgraphs[0]
    got = assert_search_parity(sub.h, sub.l, iterations=iterations)
    assert got.iterations_used == iterations


def test_zero_row_generator():
    # Full-rank checks: the kernel is {0}, no RNG draw at all.
    h = np.eye(5, dtype=np.uint8)
    got = assert_search_parity(h, np.ones((1, 5), dtype=np.uint8), iterations=9)
    assert not got.found() and got.iterations_used == 0


def test_one_row_generator():
    # Kernel spanned by the all-ones vector of a repetition code.
    h = np.zeros((4, 5), dtype=np.uint8)
    for i in range(4):
        h[i, i] = h[i, i + 1] = 1
    logical = np.zeros((1, 5), dtype=np.uint8)
    logical[0, 2] = 1
    got = assert_search_parity(h, logical, iterations=7)
    assert got.weight == 5 and got.vector.tolist() == [1] * 5
    assert_search_parity(h, logical, iterations=7, early_stop_weight=5)


def test_empty_logicals():
    rng = np.random.default_rng(4)
    h = _random_matrix(rng, 10, 30, 0.3)
    got = assert_search_parity(h, np.zeros((0, 30), dtype=np.uint8), iterations=15)
    assert not got.found()


def test_wide_codes():
    # n > 64: multi-word packed candidates and logicals.
    for code in (load_benchmark_code("surface_d9"), load_benchmark_code("rqt108")):
        assert code.hz.shape[1] > 64
        assert_search_parity(code.hz, code.lz, seed=3, iterations=25)
        assert_search_parity(
            code.hx, code.lx, seed=5, iterations=25, early_stop_weight=code.distance
        )


def test_spans_several_blocks():
    rng = np.random.default_rng(8)
    h = _random_matrix(rng, 60, 200, 0.05)
    l_mat = _random_matrix(rng, 2, 200, 0.5)
    k = gf2.nullspace(h).shape[0]
    iterations = 14
    assert distance._block_iterations(k, 4, 2) * 2 < iterations
    assert_search_parity(h, l_mat, seed=1, iterations=iterations)


@pytest.mark.parametrize("stop", [None, 3, 4, 6])
def test_early_stop_across_blocks(monkeypatch, prophunt_subgraphs, stop):
    # A tiny budget forces one-iteration blocks, so the stopping
    # iteration falls on block boundaries as well as inside blocks.
    sub = max(prophunt_subgraphs, key=lambda s: s.num_errors)
    for budget in (1, 200_000):
        monkeypatch.setattr(distance, "_BLOCK_BYTES", budget)
        for seed in range(4):
            assert_search_parity(
                sub.h, sub.l, seed=seed, iterations=30, early_stop_weight=stop
            )


@pytest.mark.parametrize("name", sorted(BENCHMARK_CODES))
def test_estimate_distance_zoo(name):
    code = load_benchmark_code(name)
    rng_new = np.random.default_rng(11)
    rng_old = np.random.default_rng(11)
    got = estimate_distance(code, iterations=40, rng=rng_new)
    assert got == oracle_estimate_distance(code, 40, rng_old)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


# -- estimate_distance never reports the not-found sentinel --------------------------


def test_estimate_distance_zero_iterations_raises():
    with pytest.raises(ValueError, match="0 ISD iterations"):
        estimate_distance(rotated_surface_code(3), iterations=0)


def test_estimate_distance_no_logicals_raises():
    code = CSSCode(hx=[[1, 1, 0], [0, 1, 1]], hz=[[1, 1, 1]], name="k0")
    with pytest.raises(ValueError, match="'k0'"):
        estimate_distance(code, iterations=5)
    # The underlying search keeps its found() contract.
    result = min_weight_logical(code.hz, code.lz, iterations=5)
    assert not result.found()

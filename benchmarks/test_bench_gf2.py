"""GF(2) elimination time: the ISD min-weight search and OSD-0's reduction.

PropHunt solves every ambiguous subgraph that is not graph-like with the
information-set search (``min_weight_logical``, paper §6.2), and BP+OSD
falls back to one full row reduction per unconverged syndrome; both
bottom out in ``kernels.rref_batch``.  Two inputs:

* a fixed non-graph-like ambiguous subgraph of the ``surface_d5``
  coloration DEM (rounds=3, p=1e-3 — the DEM ``PropHunt`` optimizes),
  searched at the optimizer's 120 iterations;
* the ``lp39`` OSD-0 augmented matrix ``[H[:, order] | s]`` for one
  BP-unconverged syndrome, reduced over ``H`` as ``_osd0`` does.

Each checks its result, so the gate cannot time a degenerate search.
"""

import numpy as np
import pytest

from repro.circuits import coloration_schedule
from repro.codes import load_benchmark_code, min_weight_logical
from repro.core import DecodingGraph, PropHunt, PropHuntConfig
from repro.core.ambiguity import sample_ambiguous_subgraphs
from repro.decoders import BpOsdDecoder
from repro.decoders.metrics import dem_for
from repro.gf2.bitmat import BitMatrix
from repro.noise import NoiseModel


@pytest.fixture(scope="module")
def d5_subgraph():
    code = load_benchmark_code("surface_d5")
    dem = PropHunt(code, PropHuntConfig()).build_dem(coloration_schedule(code), "z")
    subs = sample_ambiguous_subgraphs(DecodingGraph(dem), 40, np.random.default_rng(7))
    # Graph-like subgraphs (every error flips <= 2 detectors) never reach ISD.
    return next(s for s in subs if s.h.sum(axis=0).max() > 2)


@pytest.fixture(scope="module")
def lp39_osd_system():
    code = load_benchmark_code("lp39")
    dem = dem_for(
        code, coloration_schedule(code), NoiseModel(p=5e-4), basis="z", rounds=2
    )
    dec = BpOsdDecoder(dem)
    rng = np.random.default_rng(3)
    errors = np.zeros((32, dem.num_errors), dtype=np.uint8)
    for row in errors:
        row[rng.choice(dem.num_errors, size=10, replace=False)] = 1
    h = dec._h_dense.astype(np.int64)
    syndromes = (errors @ h.T % 2).astype(np.uint8)
    _, converged, posterior = dec._bp(syndromes)
    j = int(np.argmin(converged))  # first unconverged shot, as OSD sees it
    order = np.argsort(posterior[j])
    aug = np.concatenate([dec._h_dense[:, order], syndromes[j][:, None]], axis=1)
    return BitMatrix.from_dense(aug), dem.num_errors


@pytest.mark.benchmark(group="gf2")
def test_isd_surface_d5_coloration_subgraph(benchmark, d5_subgraph):
    sub = d5_subgraph

    def search():
        return min_weight_logical(
            sub.h, sub.l, iterations=120, rng=np.random.default_rng(0)
        )

    result = benchmark.pedantic(search, rounds=20, iterations=1)
    assert result.found() and result.iterations_used == 120
    assert not (sub.h.astype(np.int64) @ result.vector % 2).any()
    assert (sub.l.astype(np.int64) @ result.vector % 2).any()


@pytest.mark.benchmark(group="gf2")
def test_row_reduce_lp39_osd0(benchmark, lp39_osd_system):
    aug, num_errors = lp39_osd_system

    def setup():
        return (aug.copy(),), {}

    def reduce(mat):
        return mat, mat.row_reduce(ncols=num_errors)

    mat, pivots = benchmark.pedantic(reduce, setup=setup, rounds=100, iterations=1)
    # Consistent system: the pivot solution reproduces the syndrome.
    dense = mat.to_dense()
    assert pivots and not dense[len(pivots) :, -1].any()
    x = np.zeros(num_errors, dtype=np.int64)
    x[pivots] = dense[: len(pivots), -1]
    h = aug.to_dense()[:, :num_errors].astype(np.int64)
    assert np.array_equal(h @ x % 2, aug.to_dense()[:, -1])

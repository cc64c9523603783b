"""Bit-for-bit parity of every kernel backend against the numpy reference.

The contract (ROADMAP item 2): whatever backend ``repro.gf2.kernels``
selects at import — numpy or the runtime-compiled C library —
the four hot-spot kernels produce results indistinguishable from the
pinned numpy reference.  ``transpose_words``, ``popcount_words`` and
``rref_batch`` (reduced words, pivots and ranks) must match exactly;
``unique_shot_words`` must produce the same *grouping* (group order is
arbitrary by contract, so equality is checked through ``inverse``).  On
top of the kernel-level checks, the full packed≡dense decoder litmus
runs once per backend on a real circuit-level DEM.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import nz_schedule
from repro.codes import rotated_surface_code
from repro.decoders import MatchingDecoder, detector_subset_for_basis
from repro.decoders.metrics import dem_for
from repro.gf2 import kernels
from repro.gf2.bitmat import BitMatrix, pack_rows, unpack_rows
from repro.noise import NoiseModel

from test_decoders_packed import assert_packed_matches_dense

BACKENDS = kernels.available_backends()
REFERENCE = kernels.NumpyBackend()


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernels.use_backend(request.param):
        yield request.param


def _random_packed(rng, m, ncols):
    """Packed words with the tail-column invariant every packer keeps."""
    nwords = max(1, (ncols + 63) // 64)
    words = rng.integers(0, 2**63, size=(m, nwords), dtype=np.uint64)
    tail = ncols % 64
    if tail:
        words[:, -1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return words


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in BACKENDS

    def test_active_backend_is_listed(self):
        assert kernels.backend_name() in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.set_backend("fpga")

    def test_use_backend_restores(self):
        before = kernels.backend_name()
        with kernels.use_backend("numpy"):
            assert kernels.backend_name() == "numpy"
        assert kernels.backend_name() == before


class TestTransposeParity:
    @pytest.mark.parametrize(
        "m,ncols",
        [(0, 5), (1, 1), (63, 63), (64, 64), (65, 130), (200, 513), (1000, 17)],
    )
    def test_matches_reference(self, backend, m, ncols):
        words = _random_packed(np.random.default_rng(m * 1000 + ncols), m, ncols)
        got = kernels.transpose_words(words, ncols)
        want = REFERENCE.transpose_words(words, ncols)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_roundtrip_through_dense(self, backend):
        rng = np.random.default_rng(7)
        dense = rng.integers(0, 2, size=(130, 75), dtype=np.uint8)
        packed = pack_rows(dense)
        transposed = kernels.transpose_words(packed, 75)
        assert np.array_equal(unpack_rows(transposed, 130), dense.T)

    def test_rejects_1d(self, backend):
        with pytest.raises(ValueError):
            kernels.transpose_words(np.zeros(4, dtype=np.uint64), 4)


class TestPopcountParity:
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (63, 2), (513, 9)])
    def test_matches_reference(self, backend, shape):
        rng = np.random.default_rng(sum(shape))
        words = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
        assert kernels.popcount_words(words) == REFERENCE.popcount_words(words)
        got = kernels.popcount_words(words, axis=1)
        assert np.array_equal(got, REFERENCE.popcount_words(words, axis=1))
        got0 = kernels.popcount_words(words, axis=0)
        assert np.array_equal(got0, REFERENCE.popcount_words(words, axis=0))

    def test_total_is_exact(self, backend):
        words = np.array([[np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(1)]])
        assert kernels.popcount_words(words) == 65

    def test_popcount_u64_portable(self):
        # The numpy-1.x fallback table and np.bitwise_count agree.
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**63, size=(40, 3), dtype=np.uint64)
        want = np.array(
            [[bin(int(w)).count("1") for w in row] for row in words]
        )
        assert np.array_equal(
            np.asarray(kernels.popcount_u64(words), dtype=np.int64), want
        )


class TestUniqueParity:
    def _check_grouping(self, keys):
        unique, inverse = kernels.unique_shot_words(keys)
        # Reconstruction: scattering groups through inverse recovers input.
        assert np.array_equal(unique[inverse], keys)
        # Distinctness: no group row appears twice.
        assert len(np.unique(unique, axis=0)) == len(unique)
        # Every group is used.
        assert set(inverse.tolist()) == set(range(len(unique)))
        # Zero key, when present, is group 0.
        if (keys == 0).all(axis=1).any():
            assert not unique[0].any()
        # Same number of groups as the reference finds.
        ref_unique, _ = REFERENCE.unique_shot_words(keys)
        assert len(unique) == len(ref_unique)

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 500])
    @pytest.mark.parametrize("nwords", [1, 2, 5])
    def test_random_keys(self, backend, shots, nwords):
        rng = np.random.default_rng(shots * 10 + nwords)
        keys = rng.integers(0, 3, size=(shots, nwords), dtype=np.uint64)
        self._check_grouping(keys)

    def test_all_zero(self, backend):
        self._check_grouping(np.zeros((70, 2), dtype=np.uint64))

    def test_all_distinct(self, backend):
        keys = np.arange(1, 129, dtype=np.uint64).reshape(-1, 1)
        self._check_grouping(keys)

    def test_hash_collision_repair(self, backend):
        # Rows engineered to collide under the splitmix64 fold would be
        # astronomically hard to construct; instead exercise the repair
        # path directly with a fold that collides *everything*.
        keys = np.array([[1, 0], [2, 0], [1, 0], [3, 5]], dtype=np.uint64)
        unique, inverse = kernels._unique_hashfold(
            keys, lambda k: np.zeros(len(k), dtype=np.uint64)
        )
        assert np.array_equal(unique[inverse], keys)
        assert len(unique) == 3

    def test_rejects_1d(self, backend):
        with pytest.raises(ValueError):
            kernels.unique_shot_words(np.zeros(4, dtype=np.uint64))


@settings(max_examples=30, deadline=None)
@given(
    shots=st.sampled_from([1, 63, 64, 65, 127, 200]),
    nwords=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_unique_grouping_equivalent_across_backends(shots, nwords, seed):
    """Property: every backend induces the same partition of shots."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 4, size=(shots, nwords), dtype=np.uint64)
    partitions = []
    for name in BACKENDS:
        with kernels.use_backend(name):
            unique, inverse = kernels.unique_shot_words(keys)
        assert np.array_equal(unique[inverse], keys)
        # Canonical form: group id of each shot relabeled by first use.
        first_use = {}
        canon = [first_use.setdefault(g, len(first_use)) for g in inverse.tolist()]
        partitions.append(canon)
    assert all(p == partitions[0] for p in partitions)


def _column_bits(words, col):
    return (words[..., col // 64] >> np.uint64(col % 64)) & np.uint64(1)


def _reference_rank(words, ncols):
    with kernels.use_backend("numpy"):
        return len(BitMatrix(words.copy(), ncols).row_reduce())


@settings(max_examples=60, deadline=None)
@given(
    batch=st.sampled_from([0, 1, 5]),
    nrows=st.sampled_from([0, 1, 2, 7, 63, 64, 65]),
    ncols=st.integers(min_value=0, max_value=200),
    limit_frac=st.sampled_from([1.0, 0.5, 0.0]),
    density=st.sampled_from([0.05, 0.3, 0.5]),
    duplicates=st.integers(min_value=0, max_value=3),
    zeros=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rref_batch_matches_reference(
    batch, nrows, ncols, limit_frac, density, duplicates, zeros, seed
):
    """Every backend reduces to the reference words, pivots and ranks."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((batch, nrows, ncols)) < density).astype(np.uint8)
    if nrows >= 2:
        for _ in range(duplicates):
            src, dst = rng.integers(0, nrows, size=2)
            dense[:, dst] = dense[:, src]
        for _ in range(zeros):
            dense[:, rng.integers(0, nrows)] = 0
    nwords = max(1, (ncols + 63) // 64)
    original = (
        np.stack([pack_rows(m) for m in dense])
        if batch
        else np.zeros((0, nrows, nwords), dtype=np.uint64)
    )
    # limit < ncols is the augmented [A | b] case: trailing columns ride.
    limit = int(round(limit_frac * ncols))
    if limit_frac < 1.0 and ncols:
        limit = min(limit, ncols - 1)
    want = original.copy()
    want_piv, want_rank = REFERENCE.rref_batch(want, limit)
    for name in BACKENDS:
        got = original.copy()
        with kernels.use_backend(name):
            got_piv, got_rank = kernels.rref_batch(got, limit)
        assert np.array_equal(got, want), name
        assert np.array_equal(got_piv, want_piv), name
        assert np.array_equal(got_rank, want_rank), name
        assert got_piv.shape == (batch, nrows) and got_rank.shape == (batch,)
    # RREF properties of the (shared) result.
    for b in range(batch):
        rank = int(want_rank[b])
        pivots = want_piv[b, :rank]
        assert (want_piv[b, rank:] == -1).all()
        assert (np.diff(pivots) > 0).all() and (pivots < limit).all()
        for r, col in enumerate(pivots):
            column = _column_bits(want[b], int(col))
            assert column[r] == 1 and int(column.sum()) == 1  # unit vector
        for col in range(limit):
            assert not _column_bits(want[b, rank:], col).any()
        # Row space preserved: reduced rows span exactly the original's.
        base = _reference_rank(original[b], ncols)
        assert _reference_rank(want[b], ncols) == base
        both = np.concatenate([original[b], want[b]])
        assert _reference_rank(both, ncols) == base


class TestRrefBatch:
    def test_row_reduce_is_a_batch_of_one(self, backend):
        rng = np.random.default_rng(21)
        dense = rng.integers(0, 2, size=(30, 150), dtype=np.uint8)
        mat = BitMatrix.from_dense(dense)
        pivots = mat.row_reduce(ncols=120)
        stack = pack_rows(dense)[None].copy()
        ref_piv, ref_rank = REFERENCE.rref_batch(stack, 120)
        assert pivots == ref_piv[0, : ref_rank[0]].tolist()
        assert np.array_equal(mat.words, stack[0])

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 3), dtype=np.uint64),
            np.zeros((1, 2, 3), dtype=np.int64),
            np.zeros((1, 3, 2), dtype=np.uint64)[:, ::2],
        ],
    )
    def test_rejects_non_stacks(self, backend, bad):
        with pytest.raises(ValueError):
            kernels.rref_batch(bad, 1)

    def test_rejects_limit_past_the_words(self, backend):
        with pytest.raises(ValueError):
            kernels.rref_batch(np.zeros((1, 2, 1), dtype=np.uint64), 65)

    def test_self_test_covers_rref(self, monkeypatch):
        if "cnative" not in BACKENDS:
            pytest.skip("no native backend here")
        native = kernels._native_backend()
        assert kernels._self_test(native)
        # A backend whose elimination is wrong must be rejected.
        monkeypatch.setattr(
            type(native), "rref_batch", lambda self, words, limit: (None, None)
        )
        assert not kernels._self_test(native)


class TestDecoderLitmusPerBackend:
    """The full packed≡dense battery must hold under every backend."""

    @pytest.fixture(scope="class")
    def surface_dem(self):
        code = rotated_surface_code(3)
        return dem_for(
            code, nz_schedule(code), NoiseModel(p=3e-3), basis="z", rounds=3
        )

    def test_matching_packed_equals_dense(self, backend, surface_dem):
        dec = MatchingDecoder(
            surface_dem, detector_subset_for_basis(surface_dem, "z")
        )
        assert_packed_matches_dense(
            surface_dem, dec, 1000, np.random.default_rng(11)
        )
        assert_packed_matches_dense(
            surface_dem, dec, 65, np.random.default_rng(12)
        )

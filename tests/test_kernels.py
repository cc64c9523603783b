"""Bit-for-bit parity of every kernel backend against the numpy reference.

The contract (ROADMAP item 2): whatever backend ``repro.gf2.kernels``
selects at import — numpy or the runtime-compiled C library —
the three hot-spot kernels produce results indistinguishable from the
pinned numpy reference.  ``transpose_words`` and ``popcount_words`` must
match exactly; ``unique_shot_words`` must produce the same *grouping*
(group order is arbitrary by contract, so equality is checked through
``inverse``).  On top of the kernel-level checks, the full packed≡dense
decoder litmus runs once per backend on a real circuit-level DEM.
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
from repro.gf2.bitmat import pack_rows, unpack_rows
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

"""Pluggable backends for the three packed-bit hot-spot kernels.

Profiling the packed sample→decode pipeline (PR 2) puts essentially all
of its non-decoder time in three word-level kernels:

``transpose_words``
    The blockwise 64x64 butterfly bit transpose that turns packed
    detector rows into per-shot syndrome keys.
``popcount_words``
    Set-bit reductions — failure counting, defect weights, row weights.
``unique_shot_words``
    Grouping shots by identical syndrome key (the unique-syndrome
    batching core).

This module gives each of them swappable implementations behind one
dispatch point:

``numpy``
    The original vectorized single-thread implementations — the pinned
    reference every other backend is parity-tested against bit for bit
    (``tests/test_kernels.py``).
``cnative``
    A tiny C translation unit (``_kernels.c``) compiled on first use
    with the system compiler (``cc -O3 -shared -fPIC``, with OpenMP
    threading when available), loaded through ctypes, and self-tested
    against the numpy reference before it is ever trusted.  No build
    step, no new dependency: if anything in that chain is missing the
    resolver silently falls back.  Its grouping is a hash fold:
    multi-word keys are folded to one ``uint64`` with a splitmix64 mix
    and sorted on that single key instead of lexsorted column by
    column, with exact collision repair — the grouping is identical,
    only group *order* differs (explicitly arbitrary by contract;
    callers map through ``inverse``).

Selection happens at import from ``REPRO_KERNELS`` (``auto`` |
``numpy`` | ``cnative``; default ``auto`` = ``cnative`` when it compiles
and passes its self-test, else ``numpy``).  Tests switch backends with
:func:`set_backend` / :func:`use_backend`.

The dense-reference decode paths never route through here — they stay
pinned to plain numpy — so litmus tests compare every backend against
an implementation this module cannot affect.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager

import numpy as np

from .. import obs

_WORD = 64

# Dispatch instruments: per-kernel call counts plus a per-backend call
# counter (rebound by set_backend) so a fleet summary shows which
# implementation actually served the hot path.
_TRANSPOSE_CALLS = obs.counter("kernel.transpose")
_POPCOUNT_CALLS = obs.counter("kernel.popcount")
_UNIQUE_CALLS = obs.counter("kernel.unique")
_BACKEND_CALLS = obs.counter("kernel.backend.numpy")

# -- numpy-version-portable popcount ------------------------------------------

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    popcount_u64 = np.bitwise_count
else:  # numpy 1.x: 8-bit lookup over the byte view

    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        as_bytes = words.reshape(-1).view(np.uint8)
        return _POP8[as_bytes].reshape(words.shape + (8,)).sum(
            axis=-1, dtype=np.int64
        )


# Butterfly masks for the in-register 64x64 bit transpose: at step ``j``
# the mask selects the low ``j`` bit positions of every ``2j`` group.
_TRANSPOSE_STEPS: list[tuple[int, int]] = [
    (32, 0x00000000FFFFFFFF),
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
]


# -- shared validation + grouping scaffolding ---------------------------------


def _check_words_2d(words: np.ndarray) -> np.ndarray:
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2:
        raise ValueError(f"expected packed 2-D words, got shape {words.shape}")
    return words


def _group_nonzero(per_shot: np.ndarray):
    """Zero-key prefilter shared by every grouping implementation.

    Sub-threshold sampling makes the all-zero key the huge majority;
    pulling those shots out first means the sort cost tracks the
    *defective* shots only.  Returns ``(nz_idx, has_zero, inverse)``
    with ``inverse`` pre-zeroed (group 0 is reserved for the zero key
    when present).
    """
    shots = per_shot.shape[0]
    nonzero = per_shot.any(axis=1)
    nz_idx = np.nonzero(nonzero)[0]
    has_zero = nz_idx.size < shots
    inverse = np.zeros(shots, dtype=np.int64)
    return nz_idx, has_zero, inverse


def _assemble_groups(per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz):
    nwords = per_shot.shape[1]
    offset = 1 if has_zero else 0
    inverse[nz_idx] = inv_nz + offset
    if not has_zero:
        return unique_nz, inverse
    zero_row = np.zeros((1, nwords), dtype=np.uint64)
    return np.vstack([zero_row, unique_nz]), inverse


def _group_sorted(keys: np.ndarray, order: np.ndarray):
    """Run-boundary grouping of ``keys`` under a sort ``order``.

    ``order`` must bring equal rows adjacent.  Returns ``(unique rows,
    inverse)`` over the *nonzero* keys only.
    """
    ordered = keys[order]
    new_group = np.empty(len(ordered), dtype=bool)
    new_group[0] = True
    new_group[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    unique_nz = ordered[new_group]
    inv_sorted = np.cumsum(new_group) - 1
    inv_nz = np.empty(len(keys), dtype=np.int64)
    inv_nz[order] = inv_sorted
    return unique_nz, inv_nz


# -- the numpy reference backend ----------------------------------------------


class NumpyBackend:
    """Single-thread vectorized numpy — the pinned reference."""

    name = "numpy"

    def transpose_words(self, words: np.ndarray, ncols: int) -> np.ndarray:
        words = _check_words_2d(words)
        m, nwords = words.shape
        row_blocks = max(1, (m + _WORD - 1) // _WORD)
        padded = np.zeros((row_blocks * _WORD, max(1, nwords)), dtype=np.uint64)
        if m and nwords:
            padded[:m, :nwords] = words
        # blocks[b, c, i] = row 64b+i, word column c.
        blocks = np.ascontiguousarray(
            padded.reshape(row_blocks, _WORD, -1).transpose(0, 2, 1)
        )
        half = np.arange(_WORD)
        for j, mask in _TRANSPOSE_STEPS:
            lo = half[(half & j) == 0]
            hi = lo + j
            shift = np.uint64(j)
            mask = np.uint64(mask)
            # Little-endian bit order flips the classic network: swap the
            # *high* bit-halves of the low rows with the *low* bit-halves
            # of the high rows (the off-diagonal sub-blocks).
            a = blocks[..., lo]
            b = blocks[..., hi]
            t = ((a >> shift) ^ b) & mask
            blocks[..., lo] = a ^ (t << shift)
            blocks[..., hi] = b ^ t
        # Now blocks[b, c, j] holds bit i = element (64b+i, 64c+j): word
        # column b of transposed row 64c+j.
        out = blocks.transpose(1, 2, 0).reshape(-1, row_blocks)
        return np.ascontiguousarray(out[:ncols])

    def popcount_words(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        counts = popcount_u64(words)
        if axis is None:
            return int(counts.sum())
        return counts.sum(axis=axis).astype(np.int64)

    def unique_shot_words(
        self, per_shot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        per_shot = _check_words_2d(per_shot)
        nwords = per_shot.shape[1]
        nz_idx, has_zero, inverse = _group_nonzero(per_shot)
        if nz_idx.size == 0:
            return np.zeros((1, nwords), dtype=np.uint64), inverse
        keys = per_shot[nz_idx]
        if nwords == 1:
            unique_nz, inv_nz = np.unique(keys[:, 0], return_inverse=True)
            unique_nz = unique_nz[:, None]
            # numpy 2.0 briefly reshaped return_inverse to match the
            # input (reverted in 2.1); flatten so every version agrees.
            inv_nz = np.asarray(inv_nz, dtype=np.int64).reshape(-1)
        else:
            # Multi-word keys: lexsort + run boundaries beats np.unique's
            # void-view row sort by a wide margin.
            order = np.lexsort(keys.T[::-1])
            unique_nz, inv_nz = _group_sorted(keys, order)
        return _assemble_groups(
            per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz
        )


# -- hash-fold grouping (cnative fast path) -----------------------------------


def _unique_hashfold(per_shot: np.ndarray, fold) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by sorting on a 64-bit fold of each row.

    One single-key argsort replaces the column-by-column lexsort.  Hash
    collisions (different rows, equal fold) are detected exactly —
    differing adjacent rows *inside* one fold run — and repaired with a
    local lexsort of that run, so the grouping is always exact; only
    the (contractually arbitrary) group order differs from the
    reference.
    """
    per_shot = _check_words_2d(per_shot)
    nwords = per_shot.shape[1]
    nz_idx, has_zero, inverse = _group_nonzero(per_shot)
    if nz_idx.size == 0:
        return np.zeros((1, nwords), dtype=np.uint64), inverse
    keys = per_shot[nz_idx]
    if nwords == 1:
        order = np.argsort(keys[:, 0], kind="stable")
        unique_nz, inv_nz = _group_sorted(keys, order)
        return _assemble_groups(
            per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz
        )
    folded = fold(keys)
    order = np.argsort(folded, kind="stable")
    of = folded[order]
    okeys = keys[order]
    run_boundary = np.empty(len(of), dtype=bool)
    run_boundary[0] = True
    run_boundary[1:] = of[1:] != of[:-1]
    row_diff = np.empty(len(of), dtype=bool)
    row_diff[0] = True
    row_diff[1:] = (okeys[1:] != okeys[:-1]).any(axis=1)
    collisions = row_diff & ~run_boundary
    if collisions.any():
        # Genuine 64-bit fold collisions — astronomically rare, so a
        # python loop over the affected runs costs nothing.
        run_ids = np.cumsum(run_boundary) - 1
        for r in np.unique(run_ids[collisions]):
            sel = np.nonzero(run_ids == r)[0]
            sub = okeys[sel]
            sub_order = np.lexsort(sub.T[::-1])
            okeys[sel] = sub[sub_order]
            order[sel] = order[sel][sub_order]
        row_diff[1:] = (okeys[1:] != okeys[:-1]).any(axis=1)
    unique_nz = okeys[row_diff]
    inv_sorted = np.cumsum(row_diff) - 1
    inv_nz = np.empty(len(keys), dtype=np.int64)
    inv_nz[order] = inv_sorted
    return _assemble_groups(per_shot, nz_idx, has_zero, inverse, unique_nz, inv_nz)


# -- native (C + ctypes) backend ------------------------------------------------


def _native_cache_dir() -> str:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return env
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _compile_native() -> ctypes.CDLL | None:
    """Compile ``_kernels.c`` into a cached shared object and load it."""
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    src = os.path.join(os.path.dirname(__file__), "_kernels.c")
    try:
        with open(src, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    for extra in (["-fopenmp"], []):
        flags = ["-O3", "-shared", "-fPIC", *extra]
        tag = hashlib.sha256(source + " ".join(flags).encode()).hexdigest()[:16]
        cache_dir = _native_cache_dir()
        so_path = os.path.join(cache_dir, f"repro_kernels_{tag}.so")
        if not os.path.exists(so_path):
            try:
                os.makedirs(cache_dir, exist_ok=True)
                tmp = so_path + f".tmp{os.getpid()}"
                subprocess.run(
                    [compiler, *flags, src, "-o", tmp],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp, so_path)  # atomic under concurrent builders
            except (OSError, subprocess.SubprocessError):
                continue
        try:
            return ctypes.CDLL(so_path)
        except OSError:
            continue
    return None


class CNativeBackend(NumpyBackend):
    """ctypes-loaded C kernels (OpenMP-threaded when the compiler has it)."""

    name = "cnative"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        u64p = ctypes.POINTER(ctypes.c_uint64)
        i64p = ctypes.POINTER(ctypes.c_int64)
        lib.repro_transpose_words.argtypes = [
            u64p,
            u64p,
            ctypes.c_long,
            ctypes.c_long,
        ]
        lib.repro_transpose_words.restype = None
        lib.repro_popcount_rows.argtypes = [
            u64p,
            ctypes.c_long,
            ctypes.c_long,
            i64p,
        ]
        lib.repro_popcount_rows.restype = None
        lib.repro_fold_rows.argtypes = [u64p, ctypes.c_long, ctypes.c_long, u64p]
        lib.repro_fold_rows.restype = None

    @staticmethod
    def _u64p(arr: np.ndarray):
        return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))

    def transpose_words(self, words: np.ndarray, ncols: int) -> np.ndarray:
        words = _check_words_2d(words)
        m, nwords = words.shape
        row_blocks = max(1, (m + _WORD - 1) // _WORD)
        nwords_eff = max(1, nwords)
        padded = np.zeros((row_blocks * _WORD, nwords_eff), dtype=np.uint64)
        if m and nwords:
            padded[:m, :nwords] = words
        out = np.empty((nwords_eff * _WORD, row_blocks), dtype=np.uint64)
        self._lib.repro_transpose_words(
            self._u64p(padded), self._u64p(out), row_blocks, nwords_eff
        )
        return np.ascontiguousarray(out[:ncols])

    def popcount_words(
        self, words: np.ndarray, axis: int | None = None
    ) -> np.ndarray | int:
        arr = np.asarray(words, dtype=np.uint64)
        if arr.ndim != 2 or axis not in (None, 1) or arr.size == 0:
            return super().popcount_words(words, axis)
        arr = np.ascontiguousarray(arr)
        out = np.empty(arr.shape[0], dtype=np.int64)
        self._lib.repro_popcount_rows(
            self._u64p(arr),
            arr.shape[0],
            arr.shape[1],
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        )
        if axis is None:
            return int(out.sum())
        return out

    def _fold_rows(self, keys: np.ndarray) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.empty(keys.shape[0], dtype=np.uint64)
        self._lib.repro_fold_rows(
            self._u64p(keys), keys.shape[0], keys.shape[1], self._u64p(out)
        )
        return out

    def unique_shot_words(
        self, per_shot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return _unique_hashfold(per_shot, self._fold_rows)


def _self_test(backend: NumpyBackend) -> bool:
    """Tiny parity check before a non-reference backend is trusted."""
    try:
        rng = np.random.default_rng(12345)
        ref = NumpyBackend()
        words = rng.integers(0, 2**63, size=(70, 3), dtype=np.uint64)
        if not np.array_equal(
            backend.transpose_words(words, 130), ref.transpose_words(words, 130)
        ):
            return False
        if backend.popcount_words(words) != ref.popcount_words(words):
            return False
        keys = rng.integers(0, 4, size=(97, 2), dtype=np.uint64)
        got_u, got_inv = backend.unique_shot_words(keys)
        want_u, want_inv = ref.unique_shot_words(keys)
        return (
            got_u.shape == want_u.shape
            and np.array_equal(got_u[got_inv], want_u[want_inv])
            and np.array_equal(got_u[got_inv], keys)
        )
    except Exception:
        return False


# -- backend registry / selection ----------------------------------------------

_ACTIVE: NumpyBackend = NumpyBackend()
_NATIVE_RESULT: CNativeBackend | None | bool = False  # False = not tried yet


def _single_thread_after_fork(lib: ctypes.CDLL) -> None:
    """Make forked children run the OpenMP kernels on one thread.

    GNU libgomp keeps its thread pool across ``fork()`` although the
    threads do not survive it, so a child's first parallel region waits
    on them forever: every fork-based worker pool deadlocked once the
    parent had run a kernel (the load-time self-test already does).  One
    thread per child sidesteps the stale pool, and sibling workers
    already occupy the other cores.
    """
    set_threads = getattr(lib, "omp_set_num_threads", None)
    if set_threads is not None and hasattr(os, "register_at_fork"):
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        os.register_at_fork(after_in_child=lambda: set_threads(1))


def _native_backend() -> CNativeBackend | None:
    global _NATIVE_RESULT
    if _NATIVE_RESULT is False:
        lib = _compile_native()
        if lib is not None:
            _single_thread_after_fork(lib)
        backend = CNativeBackend(lib) if lib is not None else None
        if backend is not None and not _self_test(backend):
            backend = None
        _NATIVE_RESULT = backend
    return _NATIVE_RESULT


def _make_backend(name: str) -> NumpyBackend | None:
    if name == "numpy":
        return NumpyBackend()
    if name == "cnative":
        return _native_backend()
    if name == "auto":
        return _native_backend() or NumpyBackend()
    raise ValueError(f"unknown kernel backend {name!r}")


def available_backends() -> list[str]:
    """Names of the backends that actually work on this machine."""
    names = ["numpy"]
    if _native_backend() is not None:
        names.append("cnative")
    return names


def set_backend(name: str) -> str:
    """Activate a backend by name; returns the previous backend's name."""
    backend = _make_backend(name)
    if backend is None:
        raise RuntimeError(f"kernel backend {name!r} is unavailable here")
    global _ACTIVE, _BACKEND_CALLS
    previous = _ACTIVE.name
    _ACTIVE = backend
    _BACKEND_CALLS = obs.counter(f"kernel.backend.{backend.name}")
    return previous


@contextmanager
def use_backend(name: str):
    """Context manager flavor of :func:`set_backend` (for tests)."""
    previous = set_backend(name)
    try:
        yield _ACTIVE
    finally:
        set_backend(previous)


def backend_name() -> str:
    """The active backend's name (reported by campaign status + benches)."""
    return _ACTIVE.name


# -- dispatched public kernels ---------------------------------------------------


def transpose_words(words: np.ndarray, ncols: int) -> np.ndarray:
    """Transpose a bit-packed matrix without unpacking it.

    ``words`` is ``(m, ceil(ncols/64))`` uint64 in
    :func:`repro.gf2.bitmat.pack_rows` layout (bit ``j`` of row ``i`` =
    matrix element ``(i, j)``); the result is ``(ncols, ceil(m/64))`` in
    the same layout, so bit ``i`` of result row ``j`` = element ``(i,
    j)``.  Works blockwise: the matrix is tiled into 64x64 bit blocks
    and each block is transposed with the classic butterfly-swap network
    (Hacker's Delight 7-3) — ``O(m * ncols / 64)`` word ops with no
    dense intermediate.

    Input tail bits (columns ``>= ncols``) are assumed zero, the
    invariant every packer in this package maintains; output tail bits
    (rows ``>= m``) come out zero for the same reason.
    """
    _TRANSPOSE_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.transpose_words(words, ncols)


def popcount_words(words: np.ndarray, axis: int | None = None) -> np.ndarray | int:
    """Total set bits, optionally along one axis."""
    _POPCOUNT_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.popcount_words(words, axis)


def unique_shot_words(per_shot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group shots by their packed word key.

    ``per_shot`` is ``(shots, nwords)`` uint64 (one key row per shot).
    Returns ``(unique, inverse)`` with ``unique`` the distinct key rows
    and ``inverse[s]`` the group id of shot ``s`` — the unique-syndrome
    batching core: decode ``unique`` once, scatter through ``inverse``.
    Group order is arbitrary by contract (backends differ); group 0 is
    the all-zero key whenever any shot has it.
    """
    _UNIQUE_CALLS.add()
    _BACKEND_CALLS.add()
    return _ACTIVE.unique_shot_words(per_shot)


set_backend(os.environ.get("REPRO_KERNELS", "auto"))

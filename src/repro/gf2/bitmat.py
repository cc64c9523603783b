"""Bit-packed GF(2) matrices.

Rows are packed into ``uint64`` words so that row XOR — the inner loop of
every elimination — touches ``ceil(ncols / 64)`` words instead of ``ncols``
bytes.  All heavy routines in :mod:`repro.gf2.core` bottom out here.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import popcount_u64

_WORD = 64


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a dense ``(m, n)`` 0/1 matrix into ``(m, ceil(n/64))`` uint64 words.

    Bit ``j`` of a row lives in word ``j // 64`` at bit position ``j % 64``
    (little-endian within the word).
    """
    dense = np.asarray(dense, dtype=np.uint8) & 1
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
    m, n = dense.shape
    nwords = max(1, (n + _WORD - 1) // _WORD)
    padded = np.zeros((m, nwords * _WORD), dtype=np.uint8)
    padded[:, :n] = dense
    # np.packbits is big-endian per byte; request little-endian bit order so
    # bit j of the row is bit j of the packed stream, then view as uint64.
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(m, nwords)


def unpack_rows(packed: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a dense uint8 ``(m, ncols)``."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    m = packed.shape[0]
    if m == 0:
        return np.zeros((0, ncols), dtype=np.uint8)
    as_bytes = packed.reshape(m, -1).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :ncols].astype(np.uint8)


def transpose_words(words: np.ndarray, ncols: int) -> np.ndarray:
    """Transpose a bit-packed matrix without unpacking it.

    Dispatches to the active kernel backend (:mod:`repro.gf2.kernels`,
    where the vectorized numpy butterfly reference now lives); kept here
    so existing imports and the packed-layout contract stay in one
    obvious place next to :func:`pack_rows`.
    """
    return kernels.transpose_words(words, ncols)



class BitMatrix:
    """A mutable GF(2) matrix with bit-packed rows.

    Supports the operations the rest of the library needs: in-place row
    reduction, rank, row-space membership, nullspace and linear solving.
    """

    __slots__ = ("words", "ncols")

    def __init__(self, words: np.ndarray, ncols: int):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)
        self.ncols = int(ncols)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "BitMatrix":
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {dense.shape}")
        return cls(pack_rows(dense), dense.shape[1])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        nwords = max(1, (ncols + _WORD - 1) // _WORD)
        return cls(np.zeros((nrows, nwords), dtype=np.uint64), ncols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        out = cls.zeros(n, n)
        for i in range(n):
            out.set(i, i, 1)
        return out

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.words.copy(), self.ncols)

    # -- basic accessors -----------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j // _WORD] >> np.uint64(j % _WORD)) & np.uint64(1))

    def set(self, i: int, j: int, value: int) -> None:
        mask = np.uint64(1) << np.uint64(j % _WORD)
        if value & 1:
            self.words[i, j // _WORD] |= mask
        else:
            self.words[i, j // _WORD] &= ~mask

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.ncols)

    def row_weight(self, i: int) -> int:
        return int(popcount_u64(self.words[i]).sum())

    def row_weights(self) -> np.ndarray:
        return popcount_u64(self.words).sum(axis=1).astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.ncols == other.ncols and np.array_equal(self.words, other.words)

    def __repr__(self) -> str:
        return f"BitMatrix(shape={self.shape})"

    # -- elimination ---------------------------------------------------------

    def row_reduce(self, ncols: int | None = None) -> list[int]:
        """In-place row-echelon reduction (full RREF); returns pivot columns.

        ``ncols`` limits elimination to the leading columns, which lets
        callers reduce an augmented system ``[A | b]`` over ``A`` only.
        A batch of one for :func:`repro.gf2.kernels.rref_batch`.
        """
        limit = self.ncols if ncols is None else min(ncols, self.ncols)
        pivots, ranks = kernels.rref_batch(self.words[None], max(0, limit))
        return pivots[0, : ranks[0]].tolist()

    def rank(self) -> int:
        return len(self.copy().row_reduce())

    def nullspace(self) -> "BitMatrix":
        """Basis of the right nullspace, one basis vector per row."""
        reduced = self.copy()
        pivots = reduced.row_reduce()
        n = self.ncols
        free_cols = np.setdiff1d(np.arange(n), pivots)
        dense = reduced.to_dense()
        # Free column f's basis vector: itself plus every pivot column
        # whose reduced row has a 1 at f.
        basis = np.zeros((free_cols.size, n), dtype=np.uint8)
        basis[np.arange(free_cols.size), free_cols] = 1
        basis[:, pivots] = dense[: len(pivots)][:, free_cols].T
        return BitMatrix.from_dense(basis)

    # -- derived queries ------------------------------------------------------

    def stack(self, other: "BitMatrix") -> "BitMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        return BitMatrix(np.vstack([self.words, other.words]), self.ncols)

    def contains_in_rowspace(self, vectors: "BitMatrix") -> bool:
        """True iff every row of ``vectors`` lies in this matrix's row space."""
        base = self.rank()
        return self.stack(vectors).rank() == base

    def solve(self, rhs: np.ndarray) -> np.ndarray | None:
        """One solution ``x`` of ``A x = rhs (mod 2)``, or ``None``.

        ``self`` is the coefficient matrix ``A`` with one row per equation,
        so ``rhs`` has one bit per row.  Free variables are set to zero;
        the result is a dense uint8 vector of length ``ncols``, or ``None``
        if the system is inconsistent.
        """
        rhs = np.asarray(rhs, dtype=np.uint8).ravel() & 1
        if rhs.shape[0] != self.nrows:
            raise ValueError("rhs length must equal the number of rows")
        aug_dense = np.concatenate([self.to_dense(), rhs[:, None]], axis=1)
        aug = BitMatrix.from_dense(aug_dense)
        pivots = aug.row_reduce(ncols=self.ncols)
        dense = aug.to_dense()
        rank = len(pivots)
        # Inconsistent if some zero-row of A has rhs bit 1.
        if np.any(dense[rank:, -1]):
            return None
        x = np.zeros(self.ncols, dtype=np.uint8)
        x[pivots] = dense[:rank, -1]
        return x

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x (mod 2)`` for a dense 0/1 vector ``x``."""
        xm = BitMatrix.from_dense(np.asarray(x, dtype=np.uint8).reshape(1, -1))
        if xm.ncols != self.ncols:
            raise ValueError("vector length must equal the number of columns")
        anded = self.words & xm.words[0]
        return (popcount_u64(anded).sum(axis=1) & 1).astype(np.uint8)

"""Bipartite circuit-level decoding graphs (paper §5.1).

Nodes are error mechanisms and syndromes (detectors); an edge means "this
error flips that syndrome".  PropHunt's subgraph machinery operates on
submatrices of the circuit-level ``H`` and ``L`` induced by a syndrome
subset ``S'``: the error set is *all* mechanisms whose detector support
lies inside ``S'`` (the "errors connected only to the syndromes s'" of
§4.1).

The graph reads the DEM's columnar incidence arrays directly: closures
and submatrices are array gathers, and the per-node adjacency lists the
subgraph sampler walks are built only when first used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sim.dem import DetectorErrorModel


def _take_rows(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(position in rows, CSR entry index)`` of every entry of ``rows``."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), counts)
    entry = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, entry + np.repeat(starts, counts)


class DecodingGraph:
    """Adjacency view of a DEM plus submatrix extraction."""

    def __init__(self, dem: DetectorErrorModel):
        self.dem = dem
        self.arrays = dem.arrays
        self.num_errors = self.arrays.num_errors
        self.num_detectors = dem.num_detectors
        self._degree = np.diff(self.arrays.det_indptr)

    @cached_property
    def error_dets(self) -> list[tuple[int, ...]]:
        dets, ptr = self.arrays.det_indices.tolist(), self.arrays.det_indptr.tolist()
        return [tuple(dets[ptr[e] : ptr[e + 1]]) for e in range(self.num_errors)]

    @cached_property
    def det_errors(self) -> list[list[int]]:
        errors, dets = self.arrays.detector_coo
        order = np.argsort(dets, kind="stable")
        ptr = np.searchsorted(dets[order], np.arange(self.num_detectors + 1))
        errors = errors[order].tolist()
        return [errors[ptr[d] : ptr[d + 1]] for d in range(self.num_detectors)]

    def closure_errors(self, det_subset: set[int]) -> list[int]:
        """All errors whose entire detector support lies in ``det_subset``.

        Errors flipping no detector are never included.
        """
        inside = np.zeros(self.num_detectors, dtype=bool)
        inside[list(det_subset)] = True
        errors, dets = self.arrays.detector_coo
        hits = np.bincount(errors[inside[dets]], minlength=self.num_errors)
        return np.flatnonzero((hits > 0) & (hits == self._degree)).tolist()

    def submatrices(
        self, det_subset: list[int], error_subset: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense (H', L') for the given syndrome rows / error columns."""
        arrays = self.arrays
        errors = np.asarray(error_subset, dtype=np.int64)
        local = np.full(self.num_detectors, -1, dtype=np.int64)
        local[list(det_subset)] = np.arange(len(det_subset))
        h = np.zeros((len(det_subset), len(errors)), dtype=np.uint8)
        col, entry = _take_rows(arrays.det_indptr, errors)
        row = local[arrays.det_indices[entry]]
        keep = row >= 0
        h[row[keep], col[keep]] = 1
        l_mat = np.zeros((self.dem.num_observables, len(errors)), dtype=np.uint8)
        col, entry = _take_rows(arrays.obs_indptr, errors)
        l_mat[arrays.obs_indices[entry], col] = 1
        return h, l_mat


@dataclass
class Subgraph:
    """A connected decoding subgraph: syndrome rows + closed error set."""

    detectors: list[int]
    errors: list[int]
    h: np.ndarray
    l: np.ndarray

    @property
    def num_errors(self) -> int:
        return len(self.errors)

    @property
    def num_detectors(self) -> int:
        return len(self.detectors)

    def __repr__(self) -> str:
        return (
            f"Subgraph(detectors={self.num_detectors}, errors={self.num_errors})"
        )

"""Detector error model (DEM) extraction by symbolic Pauli-frame propagation.

This reproduces Stim's ``circuit.detector_error_model()``: every possible
Pauli fault of every noise channel (a *fault site*) is propagated through
the Clifford circuit (using the deterministic rules of paper §2.6) to find
which measurements — hence which detectors and logical observables — it
flips.  The result is the circuit-level check matrix ``H`` and observable
matrix ``L`` of §2.7: columns are error mechanisms, rows are detectors /
observables.

Extraction is bit-packed over fault sites.  The X and Z frames are
``(qubits, ceil(sites / 64))`` ``uint64`` matrices — qubit-major, 64 sites
per word — so a CNOT, H or reset is a row XOR / swap / clear over all
sites at once, and a noise op XORs its sites' bits into the few frame
words they occupy.
Sites are enumerated from per-gate Pauli templates (op, then target
group, then template order).  A measurement records its frame row;
detector and observable rows are XORs of recorded rows; one bit transpose
(:func:`repro.gf2.bitmat.transpose_words`) turns those rows into
per-site signature words.

Sites with identical (detector set, observable set) signatures merge into
one mechanism — grouped with ``np.unique`` and numbered by first
occurrence — with probabilities composed as ``p = p1(1-p2) + p2(1-p1)``
in site order and gate provenance concatenated.  Provenance is how
PropHunt maps errors back to schedule edges (§5.3).

The model is stored columnar (:class:`DemArrays`): probabilities, CSR
detector / observable incidence, and per-source provenance arrays.  The
per-mechanism object form (:attr:`DetectorErrorModel.mechanisms`) is
built only when something asks for it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy import sparse

from ..circuits.circuit import Circuit, check_measurement_refs
from ..circuits.gates import NOISE_GATES
from ..gf2.bitmat import transpose_words

# The 15 non-identity two-qubit Pauli pairs, as (first, second) with
# each in {"I", "X", "Y", "Z"}.
_TWO_QUBIT_PAULIS = [
    (p1, p2)
    for p1 in ("I", "X", "Y", "Z")
    for p2 in ("I", "X", "Y", "Z")
    if (p1, p2) != ("I", "I")
]

# Pauli codes I=0, X=1, Y=2, Z=3: a code carries an X component when it
# is 1 or 2 and a Z component when it is 2 or 3.
_PAULI_CHARS = "IXYZ"
_PAULI_CODES = {c: i for i, c in enumerate(_PAULI_CHARS)}

# Per-gate site templates: (Pauli on first target, Pauli on second target).
_ONE_QUBIT_TEMPLATE = ((1, 0), (2, 0), (3, 0))
_TWO_QUBIT_TEMPLATE = tuple(
    (_PAULI_CODES[p1], _PAULI_CODES[p2]) for p1, p2 in _TWO_QUBIT_PAULIS
)


@dataclass(frozen=True)
class ErrorSource:
    """Where a mechanism physically comes from: gate label + Pauli."""

    label: tuple
    pauli: str
    qubits: tuple[int, ...]


@dataclass
class ErrorMechanism:
    """A merged circuit-level error: probability, flips, provenance."""

    prob: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]
    sources: tuple[ErrorSource, ...]


def _owners(indptr: np.ndarray) -> np.ndarray:
    """Row id of every CSR entry."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _indptr(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _pauli_string(code: int, q0: int, q1: int) -> tuple[str, tuple[int, ...]]:
    """``(pauli, qubits)`` of an :class:`ErrorSource` from its columnar form."""
    first, second = code >> 2, code & 3
    if not second:
        return f"{_PAULI_CHARS[first]}{q0}", (q0,)
    return f"{_PAULI_CHARS[first]}{q0}*{_PAULI_CHARS[second]}{q1}", (q0, q1)


def _parse_source(source: ErrorSource) -> tuple[int, int, int]:
    """Inverse of :func:`_pauli_string`: ``(code, q0, q1)`` of a source."""
    terms = source.pauli.split("*")
    codes = [_PAULI_CODES.get(term[:1], 0) for term in terms]
    qubits = tuple(int(t[1:]) if t[1:].isdigit() else -1 for t in terms)
    if len(terms) > 2 or 0 in codes or -1 in qubits or qubits != source.qubits:
        raise ValueError(
            f"error source {source!r} is not a one- or two-qubit Pauli "
            "on its listed qubits"
        )
    if len(terms) == 1:
        return codes[0] << 2, qubits[0], -1
    return codes[0] << 2 | codes[1], qubits[0], qubits[1]


@dataclass(eq=False)
class DemArrays:
    """Columnar detector error model.

    Mechanism ``j`` has probability ``probs[j]``, flips the detectors
    ``det_indices[det_indptr[j]:det_indptr[j + 1]]`` (and the observables
    under ``obs_indptr`` / ``obs_indices`` likewise), and merges the fault
    sources ``source_indptr[j]:source_indptr[j + 1]``.  Source ``s`` is the
    Pauli ``source_pauli[s] = 4 * first + second`` (codes I=0, X=1, Y=2,
    Z=3; ``second`` is 0 for a one-qubit Pauli) acting on
    ``source_qubits[s]`` (second slot -1 when unused), injected by an op
    labelled ``labels[source_label[s]]``.  ``labels`` holds each distinct
    label once, in order of first use, so equal models have equal arrays.

    Instances are treated as immutable: derived indexes are cached.
    """

    probs: np.ndarray
    det_indptr: np.ndarray
    det_indices: np.ndarray
    obs_indptr: np.ndarray
    obs_indices: np.ndarray
    source_indptr: np.ndarray
    source_label: np.ndarray
    source_pauli: np.ndarray
    source_qubits: np.ndarray
    labels: list

    @property
    def num_errors(self) -> int:
        return len(self.probs)

    def detectors(self, j: int) -> np.ndarray:
        return self.det_indices[self.det_indptr[j] : self.det_indptr[j + 1]]

    def observables(self, j: int) -> np.ndarray:
        return self.obs_indices[self.obs_indptr[j] : self.obs_indptr[j + 1]]

    @cached_property
    def detector_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mechanism, detector)`` of every incidence, mechanism-major."""
        return _owners(self.det_indptr), self.det_indices

    @cached_property
    def observable_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mechanism, observable)`` of every incidence, mechanism-major."""
        return _owners(self.obs_indptr), self.obs_indices

    def _source_objects(self, lo: int, hi: int) -> list[ErrorSource]:
        return [
            ErrorSource(self.labels[lab], *_pauli_string(code, q0, q1))
            for lab, code, (q0, q1) in zip(
                self.source_label[lo:hi].tolist(),
                self.source_pauli[lo:hi].tolist(),
                self.source_qubits[lo:hi].tolist(),
            )
        ]

    def sources(self, j: int) -> tuple[ErrorSource, ...]:
        return tuple(
            self._source_objects(self.source_indptr[j], self.source_indptr[j + 1])
        )

    def mechanism(self, j: int) -> ErrorMechanism:
        """Mechanism ``j`` as a standalone object."""
        return ErrorMechanism(
            prob=float(self.probs[j]),
            detectors=tuple(self.detectors(j).tolist()),
            observables=tuple(self.observables(j).tolist()),
            sources=self.sources(j),
        )

    @cached_property
    def _source_lookup(self) -> tuple[dict, np.ndarray, np.ndarray, int]:
        label_ids = {label: i for i, label in enumerate(self.labels)}
        width = int(self.source_qubits.max(initial=-1)) + 2
        keys = self._source_keys(
            self.source_label, self.source_pauli, self.source_qubits, width
        )
        order = np.argsort(keys, kind="stable")
        return label_ids, keys[order], _owners(self.source_indptr)[order], width

    @staticmethod
    def _source_keys(label, pauli, qubits, width: int) -> np.ndarray:
        label = np.asarray(label, dtype=np.int64)
        qubits = np.asarray(qubits, dtype=np.int64).reshape(-1, 2) + 1
        return ((label * 16 + pauli) * width + qubits[:, 0]) * width + qubits[:, 1]

    def find_source(self, label, pauli: int, qubits) -> int | None:
        """Mechanism holding the source ``(label, pauli, qubits)``.

        ``pauli``/``qubits`` are in this class's columnar encoding.  When
        several mechanisms hold it (ops sharing a label), the last one
        wins; ``None`` when no mechanism does.
        """
        label_ids, keys, owners, width = self._source_lookup
        lid = label_ids.get(label)
        q0, q1 = int(qubits[0]), int(qubits[1])
        if lid is None or max(q0, q1) > width - 2:
            return None
        key = self._source_keys([lid], int(pauli), [q0, q1], width)[0]
        pos = int(np.searchsorted(keys, key, side="right")) - 1
        if pos < 0 or keys[pos] != key:
            return None
        return int(owners[pos])

    @cached_property
    def _fingerprint_body(self) -> bytes:
        """Per-mechanism ``repr((prob, detectors, observables))``, concatenated."""
        probs = self.probs.tolist()
        dets, dptr = self.det_indices.tolist(), self.det_indptr.tolist()
        obs, optr = self.obs_indices.tolist(), self.obs_indptr.tolist()
        return "".join(
            repr(
                (
                    probs[j],
                    tuple(dets[dptr[j] : dptr[j + 1]]),
                    tuple(obs[optr[j] : optr[j + 1]]),
                )
            )
            for j in range(len(probs))
        ).encode()

    def to_mechanisms(self) -> list[ErrorMechanism]:
        probs = self.probs.tolist()
        dets, dptr = self.det_indices.tolist(), self.det_indptr.tolist()
        obs, optr = self.obs_indices.tolist(), self.obs_indptr.tolist()
        sptr = self.source_indptr.tolist()
        sources = self._source_objects(0, len(self.source_label))
        return [
            ErrorMechanism(
                prob=probs[j],
                detectors=tuple(dets[dptr[j] : dptr[j + 1]]),
                observables=tuple(obs[optr[j] : optr[j + 1]]),
                sources=tuple(sources[sptr[j] : sptr[j + 1]]),
            )
            for j in range(len(probs))
        ]

    @classmethod
    def from_mechanisms(cls, mechanisms: list[ErrorMechanism]) -> "DemArrays":
        label_ids: dict = {}
        src_label, src_pauli, src_qubits = [], [], []
        for m in mechanisms:
            for source in m.sources:
                code, q0, q1 = _parse_source(source)
                src_label.append(label_ids.setdefault(source.label, len(label_ids)))
                src_pauli.append(code)
                src_qubits.append((q0, q1))
        return cls(
            probs=np.array([m.prob for m in mechanisms], dtype=np.float64),
            det_indptr=_indptr([len(m.detectors) for m in mechanisms]),
            det_indices=np.fromiter(
                chain.from_iterable(m.detectors for m in mechanisms), dtype=np.int64
            ),
            obs_indptr=_indptr([len(m.observables) for m in mechanisms]),
            obs_indices=np.fromiter(
                chain.from_iterable(m.observables for m in mechanisms),
                dtype=np.int64,
            ),
            source_indptr=_indptr([len(m.sources) for m in mechanisms]),
            source_label=np.array(src_label, dtype=np.int64),
            source_pauli=np.array(src_pauli, dtype=np.uint8),
            source_qubits=np.array(src_qubits, dtype=np.int64).reshape(-1, 2),
            labels=list(label_ids),
        )

    def equals(self, other: "DemArrays") -> bool:
        return self.labels == other.labels and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
                "probs",
                "det_indptr",
                "det_indices",
                "obs_indptr",
                "obs_indices",
                "source_indptr",
                "source_label",
                "source_pauli",
                "source_qubits",
            )
        )


class DetectorErrorModel:
    """Circuit-level H/L: columnar arrays, with an object view on request.

    Extraction fills :class:`DemArrays` (:attr:`arrays`), which
    ``probabilities()``, ``check_matrices()``, ``fingerprint()`` and the hot
    consumers (decoders, PropHunt) read directly.  :attr:`mechanisms` is
    the per-mechanism object form: built on first access and authoritative
    from then on — edits to it (``m.prob = 0``) are what every accessor
    sees.  A model constructed from a mechanism list starts in that state;
    its sources must be one- or two-qubit Paulis (``"X3"``, ``"Y3*Z5"``) on
    their listed qubits, the form extraction produces.
    """

    def __init__(
        self,
        mechanisms: list[ErrorMechanism],
        num_detectors: int,
        num_observables: int,
        detector_labels: list[tuple] | None = None,
    ):
        self._mechanisms: list[ErrorMechanism] | None = list(mechanisms)
        self._arrays: DemArrays | None = None
        self.num_detectors = num_detectors
        self.num_observables = num_observables
        self.detector_labels = [] if detector_labels is None else detector_labels

    @classmethod
    def from_arrays(
        cls,
        arrays: DemArrays,
        num_detectors: int,
        num_observables: int,
        detector_labels: list[tuple] | None = None,
    ) -> "DetectorErrorModel":
        dem = cls([], num_detectors, num_observables, detector_labels)
        dem._mechanisms, dem._arrays = None, arrays
        return dem

    @property
    def mechanisms(self) -> list[ErrorMechanism]:
        if self._mechanisms is None:
            self._mechanisms = self._arrays.to_mechanisms()
            self._arrays = None
        return self._mechanisms

    @property
    def arrays(self) -> DemArrays:
        """The columnar form.

        Once :attr:`mechanisms` has been built it is authoritative, and
        each access returns a fresh snapshot of it — work proportional to
        the whole model, so fetch it once per pass in that state.
        """
        if self._mechanisms is not None:
            return DemArrays.from_mechanisms(self._mechanisms)
        return self._arrays

    @property
    def num_errors(self) -> int:
        if self._mechanisms is not None:
            return len(self._mechanisms)
        return self._arrays.num_errors

    def sources(self, j: int) -> tuple[ErrorSource, ...]:
        """Provenance of mechanism ``j``."""
        if self._mechanisms is not None:
            return self._mechanisms[j].sources
        return self._arrays.sources(j)

    def probabilities(self) -> np.ndarray:
        return self.arrays.probs.copy()

    def check_matrices(self) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
        """Sparse H (detectors x errors) and L (observables x errors)."""
        arrays = self.arrays

        def incidence(coo, nrows: int) -> sparse.csc_matrix:
            cols, rows = coo
            return sparse.csc_matrix(
                (np.ones(len(rows), dtype=np.uint8), (rows, cols)),
                shape=(nrows, arrays.num_errors),
            )

        return (
            incidence(arrays.detector_coo, self.num_detectors),
            incidence(arrays.observable_coo, self.num_observables),
        )

    def undetectable_logical_mechanisms(self) -> list[ErrorMechanism]:
        """Mechanisms that flip an observable but no detector (d_eff = 1!).

        On a columnar model the result is built from the arrays, without
        building :attr:`mechanisms`; edits to it do not reach the model.
        """
        if self._mechanisms is not None:
            return [m for m in self._mechanisms if m.observables and not m.detectors]
        arrays = self._arrays
        hits = np.flatnonzero(
            (np.diff(arrays.obs_indptr) > 0) & (np.diff(arrays.det_indptr) == 0)
        )
        return [arrays.mechanism(j) for j in hits.tolist()]

    def fingerprint(self) -> str:
        """Content hash of the error model, for content-addressed caches.

        Covers everything that determines decode results: dimensions and
        each mechanism's (probability, detectors, observables), in
        mechanism order — extraction is deterministic, so equal circuits
        yield equal fingerprints.  Provenance (``sources``) and detector
        labels are deliberately excluded: they never affect a decoder's
        output.
        """
        h = hashlib.sha256()
        h.update(f"{self.num_detectors}:{self.num_observables}:".encode())
        h.update(self.arrays._fingerprint_body)
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectorErrorModel):
            return NotImplemented
        return (
            self.num_detectors == other.num_detectors
            and self.num_observables == other.num_observables
            and self.detector_labels == other.detector_labels
            and self.arrays.equals(other.arrays)
        )

    def __repr__(self) -> str:
        return (
            f"DetectorErrorModel(errors={self.num_errors}, "
            f"detectors={self.num_detectors}, observables={self.num_observables})"
        )


# -- extraction ---------------------------------------------------------------


@dataclass
class _Sites:
    """Every fault site of a circuit, in op / target-group / template order."""

    probs: np.ndarray  # float64 per site
    first: np.ndarray  # Pauli code on the group's first target
    second: np.ndarray  # Pauli code on the second target (0 if none)
    qa: np.ndarray  # first target
    qb: np.ndarray  # second target, -1 for one-qubit channels
    noise_op: np.ndarray  # index of the injecting noise op
    noise_labels: list  # label of each noise op


def _enumerate_sites(circuit: Circuit) -> _Sites:
    # Site-level lists grow by whole templates; qubits are kept per target
    # group and expanded by the group's template size at the end.
    probs: list[float] = []
    first: list[int] = []
    second: list[int] = []
    group_a: list[int] = []
    group_b: list[int] = []
    group_size: list[int] = []
    per_op: list[int] = []
    noise_labels: list = []
    for op in circuit:
        gate = op.gate
        if gate not in NOISE_GATES:
            continue
        targets = op.targets
        if gate == "DEPOLARIZE1":
            template, tprobs = _ONE_QUBIT_TEMPLATE, [op.args[0] / 3.0] * 3
        elif gate == "PAULI_CHANNEL_1":
            kept = [(t, p) for t, p in zip(_ONE_QUBIT_TEMPLATE, op.args) if p > 0]
            template, tprobs = [t for t, _ in kept], [p for _, p in kept]
        elif gate == "DEPOLARIZE2":
            template, tprobs = _TWO_QUBIT_TEMPLATE, [op.args[0] / 15.0] * 15
        elif gate == "PAULI_CHANNEL_2":
            kept = [(t, p) for t, p in zip(_TWO_QUBIT_TEMPLATE, op.args) if p > 0]
            template, tprobs = [t for t, _ in kept], [p for _, p in kept]
        else:
            # A channel lowering to a noise gate outside this set would
            # otherwise yield a DEM silently missing mechanisms — the
            # decoder would run happily against the wrong error model.
            raise ValueError(
                f"DEM extraction has no lowering for noise gate {gate!r}"
            )
        if gate in ("DEPOLARIZE2", "PAULI_CHANNEL_2"):
            group_a.extend(targets[0::2])
            group_b.extend(targets[1::2])
            groups = len(targets) // 2
        else:
            group_a.extend(targets)
            group_b.extend([-1] * len(targets))
            groups = len(targets)
        size = len(template)
        probs.extend(tprobs * groups)
        first.extend([t[0] for t in template] * groups)
        second.extend([t[1] for t in template] * groups)
        group_size.extend([size] * groups)
        per_op.append(size * groups)
        noise_labels.append(op.label)
    return _Sites(
        probs=np.array(probs, dtype=np.float64),
        first=np.array(first, dtype=np.int64),
        second=np.array(second, dtype=np.int64),
        qa=np.repeat(np.array(group_a, dtype=np.int64), group_size),
        qb=np.repeat(np.array(group_b, dtype=np.int64), group_size),
        noise_op=np.repeat(np.arange(len(per_op)), per_op),
        noise_labels=noise_labels,
    )


def _injections(
    sites: _Sites, component: tuple[int, int], num_qubits: int, num_words: int
) -> tuple[list, list, list, list]:
    """Per-noise-op frame XORs for one Pauli component (X or Z).

    ``component`` lists the two Pauli codes carrying it (X: X, Y;
    Z: Y, Z).  Returns ``(qubit, word, mask, ptr)``: noise op ``k`` XORs
    ``mask[i]`` into frame word ``(qubit[i], word[i])`` for
    ``ptr[k] <= i < ptr[k + 1]``, each ``(qubit, word)`` at most once per
    op.  Lists, for the walk's scalar loop.
    """
    a, b = component
    on_a = np.flatnonzero((sites.first == a) | (sites.first == b))
    on_b = np.flatnonzero((sites.second == a) | (sites.second == b))
    site = np.concatenate([on_a, on_b])
    qubit = np.concatenate([sites.qa[on_a], sites.qb[on_b]])
    key = (sites.noise_op[site] * num_qubits + qubit) * num_words + (site >> 6)
    uniq, inverse = np.unique(key, return_inverse=True)
    mask = np.zeros(len(uniq), dtype=np.uint64)
    np.bitwise_xor.at(
        mask,
        inverse.reshape(-1),
        np.left_shift(np.uint64(1), (site & 63).astype(np.uint64)),
    )
    word = uniq % num_words
    qubit = uniq // num_words % num_qubits
    op = uniq // (num_words * num_qubits)
    ptr = np.searchsorted(op, np.arange(len(sites.noise_labels) + 1))
    return qubit.tolist(), word.tolist(), list(mask), ptr.tolist()


def _xor_rows(rows: np.ndarray, groups: list, num_words: int) -> np.ndarray:
    """One output row per group: the XOR of ``rows[i]`` for ``i`` in it."""
    out = np.zeros((len(groups), num_words), dtype=np.uint64)
    lengths = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    if lengths.any():
        flat = np.fromiter(chain.from_iterable(groups), dtype=np.int64)
        nonempty = lengths > 0
        starts = (np.cumsum(lengths) - lengths)[nonempty]
        out[nonempty] = np.bitwise_xor.reduceat(rows[flat], starts, axis=0)
    return out


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(row, bit)`` of every set bit of packed rows, row-major, ascending."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    rows, byte = np.nonzero(as_bytes)
    bits = np.unpackbits(as_bytes[rows, byte][:, None], axis=1, bitorder="little")
    hit, bit = np.nonzero(bits)
    return rows[hit], byte[hit] * 8 + bit


def _compose(probs: np.ndarray, indptr: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Fold each group's probabilities with ``p(1-q) + q(1-p)``, in order.

    Same floating-point operations, in the same order, as folding one
    member at a time — the merged probabilities are bit-exact.
    """
    out = probs[indptr[:-1]].copy()
    for k in range(1, int(counts.max(initial=0))):
        sel = np.flatnonzero(counts > k)
        q = probs[indptr[sel] + k]
        p = out[sel]
        out[sel] = p * (1 - q) + q * (1 - p)
    return out


def extract_dem(circuit: Circuit, merge: bool = True) -> DetectorErrorModel:
    """Propagate every fault through the circuit and assemble the DEM.

    Raises ``ValueError`` for a noise gate without a lowering and for a
    detector or observable referencing a measurement not yet recorded.
    """
    sites = _enumerate_sites(circuit)
    num_sites = len(sites.probs)
    num_qubits = max(circuit.num_qubits, 1)
    num_words = max(1, (num_sites + 63) // 64)
    xq, xw, xm, xptr = _injections(sites, (1, 2), num_qubits, num_words)
    zq, zw, zm, zptr = _injections(sites, (2, 3), num_qubits, num_words)

    # Frames: bit s of xf[q] means site s currently carries an X on qubit q.
    # Gates update per-row views one target (pair) at a time, in order —
    # the same result as a whole-op update on distinct qubits, and the
    # sequential semantics when an op repeats a qubit.
    xf = np.zeros((num_qubits, num_words), dtype=np.uint64)
    zf = np.zeros((num_qubits, num_words), dtype=np.uint64)
    xr, zr = list(xf), list(zf)
    records: list[np.ndarray] = []
    det_groups: list[tuple[int, ...]] = []
    detector_labels: list[tuple] = []
    obs_groups: dict[int, list[int]] = {}
    k = 0

    for op in circuit:
        gate, t = op.gate, op.targets
        if gate in NOISE_GATES:
            for i in range(xptr[k], xptr[k + 1]):
                xr[xq[i]][xw[i]] ^= xm[i]
            for i in range(zptr[k], zptr[k + 1]):
                zr[zq[i]][zw[i]] ^= zm[i]
            k += 1
        elif gate == "CNOT":
            for c, tq in zip(t[0::2], t[1::2]):
                xr[tq] ^= xr[c]
                zr[c] ^= zr[tq]
        elif gate == "H":
            for q in t:
                tmp = xr[q].copy()
                xr[q][:] = zr[q]
                zr[q][:] = tmp
        elif gate in ("R", "RX"):
            qs = list(t)
            xf[qs] = 0
            zf[qs] = 0
        elif gate in ("M", "MX"):
            frame_rows = xr if gate == "M" else zr
            records.extend(frame_rows[q].copy() for q in t)
        elif gate == "DETECTOR":
            check_measurement_refs(op, len(records))
            det_groups.append(t)
            detector_labels.append(op.label)
        elif gate == "OBSERVABLE_INCLUDE":
            check_measurement_refs(op, len(records))
            obs_groups.setdefault(int(op.args[0]), []).extend(t)

    num_detectors = len(det_groups)
    num_observables = max(obs_groups) + 1 if obs_groups else 0
    meas = np.array(records) if records else np.zeros((0, num_words), dtype=np.uint64)
    flips = _xor_rows(
        meas,
        det_groups + [obs_groups.get(o, ()) for o in range(num_observables)],
        num_words,
    )

    # Per-site signature words: bit i <=> flips detector i (observable
    # i - num_detectors past the detectors).
    if num_sites and len(flips):
        sig = transpose_words(flips, num_sites)
    else:
        sig = np.zeros((num_sites, 1), dtype=np.uint64)
    # Sites flipping nothing are invisible and harmless.
    visible = np.flatnonzero(sig.any(axis=1))
    keys = np.ascontiguousarray(sig[visible])
    if merge and len(visible):
        # Group whole signature rows as opaque byte strings (much faster
        # than np.unique(axis=0)'s structured-dtype sort).
        opaque = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
        _, first, inverse = np.unique(
            opaque.reshape(-1), return_index=True, return_inverse=True
        )
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        group = rank[inverse.reshape(-1)]
        keys = keys[np.sort(first)]
    else:
        group = np.arange(len(visible))
    num_errors = len(keys)

    members = visible[np.argsort(group, kind="stable")]
    counts = np.bincount(group, minlength=num_errors)
    source_indptr = _indptr(counts)
    probs = _compose(sites.probs[members], source_indptr, counts)

    rows, cols = _set_bits(keys)
    is_det = cols < num_detectors
    det_indptr = _indptr(np.bincount(rows[is_det], minlength=num_errors))
    obs_indptr = _indptr(np.bincount(rows[~is_det], minlength=num_errors))

    # Provenance in canonical form: the first term of a source is its
    # first non-identity Pauli, and labels are numbered by first use.
    first, second = sites.first[members], sites.second[members]
    qa, qb = sites.qa[members], sites.qb[members]
    lead = first != 0
    code = np.where(lead, first << 2 | second, second << 2)
    qubits = np.stack(
        [np.where(lead, qa, qb), np.where(lead & (second != 0), qb, -1)], axis=1
    )
    noise_op = sites.noise_op[members]
    used, first_use = np.unique(noise_op, return_index=True)
    label_ids: dict = {}
    op_label = np.zeros(len(sites.noise_labels), dtype=np.int64)
    for op_idx in used[np.argsort(first_use)].tolist():
        label = sites.noise_labels[op_idx]
        op_label[op_idx] = label_ids.setdefault(label, len(label_ids))

    arrays = DemArrays(
        probs=probs,
        det_indptr=det_indptr,
        det_indices=cols[is_det],
        obs_indptr=obs_indptr,
        obs_indices=cols[~is_det] - num_detectors,
        source_indptr=source_indptr,
        source_label=op_label[noise_op],
        source_pauli=code.astype(np.uint8),
        source_qubits=qubits,
        labels=list(label_ids),
    )
    return DetectorErrorModel.from_arrays(
        arrays, num_detectors, num_observables, detector_labels
    )

"""Columnar DEM extraction vs the object-per-site extractor it replaced.

``extract_dem`` propagates bit-packed fault frames and merges signatures
with ``np.unique``.  The oracle below is the previous implementation's
extraction code, verbatim: dense boolean frames walked one fault column
at a time, merged through a Python dict of ``ErrorMechanism`` objects.
Every case asserts exact agreement: ``fingerprint()`` bytes, bit-equal
``probabilities()``, and identical detectors, observables, provenance
(``sources``) and detector labels — on random litmus circuits, every
noise channel, ``merge=False``, ops repeating a qubit, DEMs with no
detectors or no observables, and fault-site counts at word boundaries.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy import sparse
from test_sim_crosscheck import (
    NUM_RANDOM_CIRCUITS,
    SPEC_CIRCUITS,
    TARGETED_SPECS,
    random_clifford_noise_circuit,
    random_noise_spec,
)

from repro.circuits import (
    Circuit,
    build_memory_experiment,
    coloration_schedule,
    nz_schedule,
    poor_schedule,
)
from repro.codes import load_benchmark_code
from repro.core import PropHunt, PropHuntConfig
from repro.core.pruning import _transport_logical_error
from repro.decoders import BpOsdDecoder, LookupDecoder
from repro.decoders.metrics import make_decoder
from repro.noise import NoiseModel, NoiseSpec
from repro.sim import DemArrays, DemSampler, extract_dem

# -- oracle: the object-per-site extractor, verbatim ---------------------------

_TWO_QUBIT_PAULIS = [
    (p1, p2)
    for p1 in ("I", "X", "Y", "Z")
    for p2 in ("I", "X", "Y", "Z")
    if (p1, p2) != ("I", "I")
]


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


@dataclass
class DetectorErrorModel:
    """Circuit-level H/L in mechanism-list form."""

    mechanisms: list[ErrorMechanism]
    num_detectors: int
    num_observables: int
    detector_labels: list[tuple] = field(default_factory=list)

    @property
    def num_errors(self) -> int:
        return len(self.mechanisms)

    def probabilities(self) -> np.ndarray:
        return np.array([m.prob for m in self.mechanisms], dtype=np.float64)

    def check_matrices(self) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
        """Sparse H (detectors x errors) and L (observables x errors)."""
        rows_h, cols_h, rows_l, cols_l = [], [], [], []
        for j, m in enumerate(self.mechanisms):
            for d in m.detectors:
                rows_h.append(d)
                cols_h.append(j)
            for o in m.observables:
                rows_l.append(o)
                cols_l.append(j)
        h = sparse.csc_matrix(
            (np.ones(len(rows_h), dtype=np.uint8), (rows_h, cols_h)),
            shape=(self.num_detectors, self.num_errors),
        )
        el = sparse.csc_matrix(
            (np.ones(len(rows_l), dtype=np.uint8), (rows_l, cols_l)),
            shape=(self.num_observables, self.num_errors),
        )
        return h, el

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.num_detectors}:{self.num_observables}:".encode())
        for m in self.mechanisms:
            h.update(repr((float(m.prob), m.detectors, m.observables)).encode())
        return h.hexdigest()


def _enumerate_noise_sites(
    circuit: Circuit,
) -> list[tuple[int, float, list[tuple[str, int]], tuple]]:
    """All single-Pauli fault mechanisms: (op_idx, prob, [(P, qubit)...], label)."""
    sites = []
    for op_idx, op in enumerate(circuit):
        if op.gate == "DEPOLARIZE1":
            p = op.args[0] / 3.0
            for (q,) in op.target_groups():
                for pauli in ("X", "Y", "Z"):
                    sites.append((op_idx, p, [(pauli, q)], op.label))
        elif op.gate == "DEPOLARIZE2":
            p = op.args[0] / 15.0
            for (a, b) in op.target_groups():
                for p1, p2 in _TWO_QUBIT_PAULIS:
                    terms = []
                    if p1 != "I":
                        terms.append((p1, a))
                    if p2 != "I":
                        terms.append((p2, b))
                    sites.append((op_idx, p, terms, op.label))
        elif op.gate == "PAULI_CHANNEL_1":
            px, py, pz = op.args
            for (q,) in op.target_groups():
                for pauli, prob in (("X", px), ("Y", py), ("Z", pz)):
                    if prob > 0:
                        sites.append((op_idx, prob, [(pauli, q)], op.label))
        elif op.gate == "PAULI_CHANNEL_2":
            for (a, b) in op.target_groups():
                for (p1, p2), prob in zip(_TWO_QUBIT_PAULIS, op.args):
                    if prob <= 0:
                        continue
                    terms = []
                    if p1 != "I":
                        terms.append((p1, a))
                    if p2 != "I":
                        terms.append((p2, b))
                    sites.append((op_idx, prob, terms, op.label))
        elif op.is_noise():
            raise ValueError(
                f"DEM extraction has no lowering for noise gate {op.gate!r}"
            )
    return sites


def oracle_extract_dem(circuit: Circuit, merge: bool = True) -> DetectorErrorModel:
    """Propagate every fault through the circuit and assemble the DEM."""
    sites = _enumerate_noise_sites(circuit)
    num_errors = len(sites)
    num_qubits = circuit.num_qubits

    # Frames: xf[e, q] means error e currently carries an X on qubit q.
    xf = np.zeros((num_errors, num_qubits), dtype=bool)
    zf = np.zeros((num_errors, num_qubits), dtype=bool)

    # Group injection points by op index for the single walk.
    inject: dict[int, list[tuple[int, list[tuple[str, int]]]]] = defaultdict(list)
    for e, (op_idx, _, terms, _) in enumerate(sites):
        inject[op_idx].append((e, terms))

    meas_flip_cols: list[np.ndarray] = []
    detector_rows: list[np.ndarray] = []
    detector_labels: list[tuple] = []
    observable_rows: dict[int, np.ndarray] = {}

    for op_idx, op in enumerate(circuit):
        if op.is_noise():
            for e, terms in inject[op_idx]:
                for pauli, q in terms:
                    if pauli in ("X", "Y"):
                        xf[e, q] ^= True
                    if pauli in ("Z", "Y"):
                        zf[e, q] ^= True
            continue
        if op.gate == "CNOT":
            for c, t in op.target_groups():
                xf[:, t] ^= xf[:, c]
                zf[:, c] ^= zf[:, t]
        elif op.gate == "H":
            for (q,) in op.target_groups():
                tmp = xf[:, q].copy()
                xf[:, q] = zf[:, q]
                zf[:, q] = tmp
        elif op.gate in ("R", "RX"):
            for (q,) in op.target_groups():
                xf[:, q] = False
                zf[:, q] = False
        elif op.gate == "M":
            for (q,) in op.target_groups():
                meas_flip_cols.append(xf[:, q].copy())
        elif op.gate == "MX":
            for (q,) in op.target_groups():
                meas_flip_cols.append(zf[:, q].copy())
        elif op.gate == "DETECTOR":
            row = np.zeros(num_errors, dtype=bool)
            for idx in op.targets:
                row ^= meas_flip_cols[idx]
            detector_rows.append(row)
            detector_labels.append(op.label)
        elif op.gate == "OBSERVABLE_INCLUDE":
            obs = int(op.args[0])
            row = observable_rows.get(obs)
            if row is None:
                row = np.zeros(num_errors, dtype=bool)
            for idx in op.targets:
                row = row ^ meas_flip_cols[idx]
            observable_rows[obs] = row

    num_detectors = len(detector_rows)
    num_observables = max(observable_rows) + 1 if observable_rows else 0
    det_matrix = (
        np.array(detector_rows, dtype=bool)
        if detector_rows
        else np.zeros((0, num_errors), dtype=bool)
    )
    obs_matrix = np.zeros((num_observables, num_errors), dtype=bool)
    for obs, row in observable_rows.items():
        obs_matrix[obs] = row

    # Assemble mechanisms, merging identical flip signatures.
    grouped: dict[tuple, ErrorMechanism] = {}
    order: list[tuple] = []
    for e, (op_idx, prob, terms, label) in enumerate(sites):
        dets = tuple(int(d) for d in np.nonzero(det_matrix[:, e])[0])
        obs = tuple(int(o) for o in np.nonzero(obs_matrix[:, e])[0])
        if not dets and not obs:
            continue  # invisible and harmless
        pauli_str = "*".join(f"{p}{q}" for p, q in terms)
        source = ErrorSource(
            label=label, pauli=pauli_str, qubits=tuple(q for _, q in terms)
        )
        key = (dets, obs) if merge else (dets, obs, e)
        if key in grouped:
            m = grouped[key]
            m.prob = m.prob * (1 - prob) + prob * (1 - m.prob)
            m.sources = m.sources + (source,)
        else:
            grouped[key] = ErrorMechanism(
                prob=prob, detectors=dets, observables=obs, sources=(source,)
            )
            order.append(key)

    return DetectorErrorModel(
        mechanisms=[grouped[k] for k in order],
        num_detectors=num_detectors,
        num_observables=num_observables,
        detector_labels=detector_labels,
    )


# -- the parity assertion -------------------------------------------------------


def _source_tuples(sources) -> tuple:
    return tuple((s.label, s.pauli, s.qubits) for s in sources)


def assert_parity(circuit: Circuit, merge: bool = True):
    new = extract_dem(circuit, merge=merge)
    old = oracle_extract_dem(circuit, merge=merge)
    assert new.fingerprint() == old.fingerprint()
    np.testing.assert_array_equal(
        new.probabilities().view(np.uint64), old.probabilities().view(np.uint64)
    )
    assert (new.num_detectors, new.num_observables) == (
        old.num_detectors,
        old.num_observables,
    )
    assert new.detector_labels == old.detector_labels
    for a, b in zip(new.check_matrices(), old.check_matrices()):
        assert a.shape == b.shape and a.dtype == b.dtype
        np.testing.assert_array_equal(a.toarray(), b.toarray())
    arrays = new.arrays
    assert new.num_errors == old.num_errors
    for j, m in enumerate(old.mechanisms):
        assert tuple(arrays.detectors(j).tolist()) == m.detectors
        assert tuple(arrays.observables(j).tolist()) == m.observables
        assert _source_tuples(new.sources(j)) == _source_tuples(m.sources)
    # The object view, built on request, is the oracle's mechanism list,
    # and converting it back yields the extracted arrays exactly.
    assert "mechanisms" not in new.__dict__
    built = new.mechanisms
    assert [
        (m.prob, m.detectors, m.observables, _source_tuples(m.sources))
        for m in built
    ] == [
        (m.prob, m.detectors, m.observables, _source_tuples(m.sources))
        for m in old.mechanisms
    ]
    assert DemArrays.from_mechanisms(built).equals(arrays)
    return new


# -- cases -----------------------------------------------------------------------


class TestRandomCircuits:
    @pytest.mark.parametrize("seed", range(NUM_RANDOM_CIRCUITS))
    def test_litmus_circuit(self, seed):
        circ = random_clifford_noise_circuit(np.random.default_rng(seed))
        assert_parity(circ)
        assert_parity(circ, merge=False)

    @pytest.mark.parametrize("seed", range(10))
    def test_wider_circuit(self, seed):
        circ = random_clifford_noise_circuit(
            np.random.default_rng(100 + seed), num_qubits=7, layers=12, p=0.02
        )
        assert_parity(circ)


class TestNoiseChannels:
    @pytest.mark.parametrize("name", sorted(TARGETED_SPECS))
    def test_targeted_spec(self, name):
        circ = random_clifford_noise_circuit(
            np.random.default_rng(7), include_noise=False
        )
        assert_parity(TARGETED_SPECS[name].apply(circ))

    @pytest.mark.parametrize("seed", range(SPEC_CIRCUITS))
    def test_random_spec(self, seed):
        rng = np.random.default_rng(900 + seed)
        circ = random_clifford_noise_circuit(rng, include_noise=False)
        noisy = random_noise_spec(rng).apply(circ)
        assert_parity(noisy)
        assert_parity(noisy, merge=False)

    def test_pauli_channels_explicit(self):
        c = Circuit()
        c.append("R", [0, 1, 2])
        c.append("PAULI_CHANNEL_1", [0, 1], [0.01, 0.0, 0.03])
        c.append("PAULI_CHANNEL_2", [1, 2], [0.001 * (i + 1) for i in range(15)])
        c.append("CNOT", [0, 1])
        c.append("PAULI_CHANNEL_2", [0, 2], [0.0] * 7 + [0.02] + [0.0] * 7)
        c.append("H", [2])
        c.append("M", [0, 1])
        c.append("MX", [2])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        c.append("OBSERVABLE_INCLUDE", [2], [0])
        assert_parity(c)


class TestMemoryExperiments:
    @pytest.mark.parametrize("basis", ["z", "x"])
    @pytest.mark.parametrize("schedule", [nz_schedule, poor_schedule])
    def test_surface_d3(self, basis, schedule):
        code = load_benchmark_code("surface_d3")
        exp = build_memory_experiment(code, schedule(code), rounds=3, basis=basis)
        assert_parity(NoiseModel(p=1e-3).apply(exp.circuit))

    def test_surface_d5_coloration(self):
        """The circuit the optimizer extracts over and over."""
        code = load_benchmark_code("surface_d5")
        exp = build_memory_experiment(code, coloration_schedule(code), rounds=3)
        assert_parity(NoiseModel(p=1e-3).apply(exp.circuit))

    def test_noise_spec_memory_experiment(self):
        code = load_benchmark_code("surface_d3")
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        spec = NoiseSpec.depolarizing(3e-3, readout=2e-3, crosstalk=1e-3)
        assert_parity(spec.apply(exp.circuit), merge=False)


class TestStructuralEdges:
    def test_ops_repeating_a_qubit(self):
        c = Circuit()
        c.append("R", [0, 1, 2, 2])
        c.append("DEPOLARIZE1", [0, 1, 0], [0.03])
        c.append("CNOT", [0, 1, 1, 2])  # target 1 is the next control
        c.append("DEPOLARIZE2", [0, 0, 1, 2], [0.015])
        c.append("H", [1, 1, 2])  # H twice on 1 is the identity
        c.append("CNOT", [2, 0, 2, 0])  # twice cancels
        c.append("DEPOLARIZE1", [2], [0.03])
        c.append("CNOT", [0, 0])
        c.append("M", [0, 1, 1, 2])
        c.append("DETECTOR", [0, 1])
        c.append("DETECTOR", [1, 2])
        c.append("DETECTOR", [2, 2, 3])  # a repeated record cancels
        c.append("OBSERVABLE_INCLUDE", [3], [0])
        assert_parity(c)
        assert_parity(c, merge=False)

    def test_wide_ops_on_distinct_qubits(self):
        """Multi-target CNOT/H/R/M on distinct qubits update all at once."""
        c = Circuit()
        c.append("RX", [0, 2])
        c.append("R", [1, 3, 4])
        c.append("DEPOLARIZE1", [0, 1, 2, 3, 4], [0.03])
        c.append("CNOT", [0, 1, 2, 3])
        c.append("DEPOLARIZE2", [1, 4, 0, 3], [0.015])
        c.append("H", [0, 2, 4])
        c.append("CNOT", [4, 0, 3, 2])
        c.append("PAULI_CHANNEL_1", [0, 2, 4], [0.01, 0.02, 0.0])
        c.append("M", [0, 1, 4])
        c.append("MX", [2, 3])
        c.append("DETECTOR", [0, 1])
        c.append("DETECTOR", [2])
        c.append("DETECTOR", [3, 4])
        c.append("OBSERVABLE_INCLUDE", [1, 4], [0])
        assert_parity(c)
        assert_parity(c, merge=False)

    def _detectors_only(self) -> Circuit:
        c = Circuit()
        c.append("R", [0, 1])
        c.append("DEPOLARIZE1", [0, 1], [0.03])
        c.append("CNOT", [0, 1])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        c.append("DETECTOR", [])  # no targets: never flips
        return c

    def test_zero_observables(self):
        dem = assert_parity(self._detectors_only())
        assert dem.num_observables == 0 and dem.num_errors > 0

    def test_zero_detectors(self):
        c = Circuit()
        c.append("R", [0, 1])
        c.append("DEPOLARIZE2", [0, 1], [0.03])
        c.append("M", [0, 1])
        c.append("OBSERVABLE_INCLUDE", [1], [2])  # observables 0, 1 stay empty
        c.append("OBSERVABLE_INCLUDE", [0, 1], [0])
        dem = assert_parity(c)
        assert dem.num_detectors == 0 and dem.num_observables == 3
        # Every mechanism is an undetectable logical here.
        assert len(dem.undetectable_logical_mechanisms()) == dem.num_errors > 0
        # A columnar model answers from its arrays, identically, and stays
        # columnar.
        fresh = extract_dem(c)
        assert fresh.undetectable_logical_mechanisms() == list(dem.mechanisms)
        assert "mechanisms" not in fresh.__dict__

    def test_nothing_to_flip(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], [0.03])
        c.append("M", [0])
        dem = assert_parity(c)
        assert dem.num_errors == 0
        noiseless = self._detectors_only().without_noise()
        assert assert_parity(noiseless).num_errors == 0

    @pytest.mark.parametrize("num_sites", [63, 64, 65, 127, 128, 129])
    def test_word_boundary_site_counts(self, num_sites):
        """One PAULI_CHANNEL_1 site per qubit: frames span one or two
        64-site words, with the last site on either side of a boundary."""
        c = Circuit()
        qubits = list(range(num_sites))
        c.append("R", qubits)
        c.append("PAULI_CHANNEL_1", qubits, [0.0, 0.01, 0.0])
        for q in range(num_sites - 1):
            c.append("CNOT", [q, q + 1])
        c.append("M", qubits)
        for q in range(0, num_sites, 3):
            c.append("DETECTOR", [q])
        c.append("OBSERVABLE_INCLUDE", [num_sites - 1], [0])
        dem = assert_parity(c)
        assert dem.num_errors > 0

    def test_long_merge_chains_compose_bit_exactly(self):
        """Dozens of distinct probabilities folding into one mechanism."""
        c = Circuit()
        c.append("R", [0])
        rng = np.random.default_rng(3)
        for _ in range(40):
            px, py = (float(x) for x in rng.uniform(1e-4, 0.05, size=2))
            c.append("PAULI_CHANNEL_1", [0], [px, py, 0.0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = assert_parity(c)
        assert dem.num_errors == 1 and len(dem.sources(0)) == 80


def _oracle_transport(old_dem, new_dem, logical_error):
    """``core.pruning._transport_logical_error`` over mechanism objects."""
    index: dict[tuple, int] = {}
    for j, mech in enumerate(new_dem.mechanisms):
        for src in mech.sources:
            index[(src.label, src.pauli)] = j
    det_sig = np.zeros(new_dem.num_detectors, dtype=np.uint8)
    obs_sig = np.zeros(new_dem.num_observables, dtype=np.uint8)
    for err in logical_error:
        for src in old_dem.mechanisms[err].sources:
            j = index.get((src.label, src.pauli))
            if j is None:
                continue
            mech = new_dem.mechanisms[j]
            for d in mech.detectors:
                det_sig[d] ^= 1
            for o in mech.observables:
                obs_sig[o] ^= 1
            break
    return det_sig, obs_sig


class TestTransportParity:
    """Array-indexed fault transport matches the object-based lookup."""

    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_transport_between_schedules(self, basis):
        code = load_benchmark_code("surface_d3")
        noise = NoiseModel(p=1e-3)

        def dem(schedule):
            exp = build_memory_experiment(code, schedule, rounds=2, basis=basis)
            return extract_dem(noise.apply(exp.circuit))

        old, new = dem(poor_schedule(code)), dem(nz_schedule(code))
        old_objs, new_objs = dem(poor_schedule(code)), dem(nz_schedule(code))
        rng = np.random.default_rng(5)
        for _ in range(40):
            size = int(rng.integers(1, 6))
            errors = [int(e) for e in rng.choice(old.num_errors, size, replace=False)]
            got = _transport_logical_error(old, new, errors)
            want = _oracle_transport(old_objs, new_objs, errors)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        assert "mechanisms" not in old.__dict__ | new.__dict__


class TestObjectFreeHotPaths:
    """The optimizer pass and decoder construction read the arrays only."""

    @pytest.fixture
    def no_mechanisms(self, monkeypatch):
        def refuse(self):
            raise AssertionError("built per-mechanism objects on a hot path")

        monkeypatch.setattr(DemArrays, "to_mechanisms", refuse)

    def test_optimize_never_builds_mechanisms(self, no_mechanisms):
        code = load_benchmark_code("surface_d3")
        optimizer = PropHunt(
            code, PropHuntConfig(iterations=2, samples_per_iteration=20, seed=1)
        )
        result = optimizer.optimize(poor_schedule(code))
        # The run must reach §5.3/§5.4, where provenance is consulted.
        assert sum(r.ambiguous_found for r in result.history) > 0
        assert sum(r.changes_verified for r in result.history) > 0
        assert optimizer._dem_cache
        assert all(
            "mechanisms" not in dem.__dict__ for dem in optimizer._dem_cache.values()
        )

    def test_decoders_and_sampler_never_build_mechanisms(self, no_mechanisms):
        code = load_benchmark_code("surface_d3")
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        dem = extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))
        make_decoder(dem, "z")
        BpOsdDecoder(dem)
        DemSampler(dem).sample_packed(64, np.random.default_rng(0))
        dem.fingerprint()
        assert dem.undetectable_logical_mechanisms() == []
        tiny = extract_dem(TestStructuralEdges()._detectors_only())
        LookupDecoder(tiny)
        assert "mechanisms" not in dem.__dict__ | tiny.__dict__

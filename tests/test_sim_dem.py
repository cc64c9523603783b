"""Tests for DEM extraction: propagation rules, merging, provenance."""

import dataclasses

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    build_memory_experiment,
    circuit_from_text,
    nz_schedule,
    poor_schedule,
)
from repro.codes import rotated_surface_code
from repro.noise import NoiseModel
from repro.sim import (
    DemSampler,
    DetectorErrorModel,
    ErrorMechanism,
    ErrorSource,
    extract_dem,
)


def single_error_circuit(pauli_gate_sequence):
    """One noisy qubit measured in Z, detector on the measurement."""
    c = Circuit()
    c.append("R", [0])
    for item in pauli_gate_sequence:
        c.append(*item)
    c.append("M", [0])
    c.append("DETECTOR", [0])
    return c


class TestPropagationRules:
    def test_x_before_measurement_flips_detector(self):
        c = single_error_circuit([("DEPOLARIZE1", [0], [0.3])])
        dem = extract_dem(c)
        # X and Y flip the Z measurement; Z does not -> they merge into one
        # mechanism with combined probability.
        assert dem.num_errors == 1
        p = 0.1  # each Pauli has probability 0.3/3
        assert dem.mechanisms[0].prob == pytest.approx(p * (1 - p) + p * (1 - p))

    def test_error_after_reset_is_cleared(self):
        c = Circuit()
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("R", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        assert dem.num_errors == 0

    def test_x_propagates_control_to_target(self):
        """Paper §2.6: X_c -> X_c X_t."""
        c = Circuit()
        c.append("R", [0, 1])
        c.append("DEPOLARIZE1", [0], args=[0.3])  # X on control
        c.append("CNOT", [0, 1])
        c.append("M", [0, 1])
        c.append("DETECTOR", [0], label=("d0",))
        c.append("DETECTOR", [1], label=("d1",))
        dem = extract_dem(c)
        # X on qubit 0 flips both measurements; Z flips none; Y both.
        assert dem.num_errors == 1
        assert dem.mechanisms[0].detectors == (0, 1)

    def test_z_propagates_target_to_control(self):
        """Paper §2.6: Z_t -> Z_c Z_t, visible in X-basis measurements."""
        c = Circuit()
        c.append("RX", [0, 1])
        c.append("DEPOLARIZE1", [1], args=[0.3])
        c.append("CNOT", [0, 1])
        c.append("MX", [0, 1])
        c.append("DETECTOR", [0])
        c.append("DETECTOR", [1])
        dem = extract_dem(c)
        mechs = {m.detectors for m in dem.mechanisms}
        # Z (and Y, via its Z part) on the target spreads to the control;
        # a pure X on the target is invisible to X-basis measurements, so
        # the only signature is the two-detector one.
        assert mechs == {(0, 1)}

    def test_h_swaps_x_and_z(self):
        c = Circuit()
        c.append("R", [0])
        c.append("H", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("H", [0])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        # Between the H's, Z and Y flip the eventual Z measurement.
        assert dem.num_errors == 1
        sources = dem.mechanisms[0].sources
        paulis = {s.pauli for s in sources}
        assert paulis == {"Z0", "Y0"}


class TestMergingAndProvenance:
    def test_merge_combines_probabilities(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        assert dem.num_errors == 1
        assert len(dem.mechanisms[0].sources) == 4  # X,Y from both channels

    def test_no_merge_keeps_mechanisms_separate(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c, merge=False)
        assert dem.num_errors == 4

    def test_cnot_labels_propagate_to_mechanisms(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        dem = extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))
        cnot_sources = [
            s
            for m in dem.mechanisms
            for s in m.sources
            if s.label and s.label[0] == "cnot"
        ]
        assert cnot_sources
        # Labels carry (kind, stab, data qubit, round).
        _, kind, stab, q, rnd = cnot_sources[0].label
        assert kind in ("x", "z") and 0 <= q < code.n


class TestSurfaceCodeDem:
    @pytest.fixture(scope="class")
    def dem(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=3)
        return extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))

    def test_no_undetectable_logicals(self, dem):
        assert dem.undetectable_logical_mechanisms() == []

    def test_graphlike_for_z_detectors(self, dem):
        """Every mechanism flips at most 2 same-type detectors (matchable)."""
        for m in dem.mechanisms:
            by_kind = {"x": 0, "z": 0}
            for d in m.detectors:
                by_kind[dem.detector_labels[d][1]] += 1
            assert by_kind["x"] <= 2 and by_kind["z"] <= 2

    def test_check_matrices_shapes(self, dem):
        h, l_mat = dem.check_matrices()
        assert h.shape == (dem.num_detectors, dem.num_errors)
        assert l_mat.shape == (1, dem.num_errors)
        assert l_mat.sum() > 0

    def test_poor_schedule_changes_dem(self):
        """Different CNOT orders give different circuit-level H (paper §2.7)."""
        code = rotated_surface_code(3)
        a = extract_dem(
            NoiseModel(p=1e-3).apply(
                build_memory_experiment(code, nz_schedule(code), rounds=2).circuit
            )
        )
        b = extract_dem(
            NoiseModel(p=1e-3).apply(
                build_memory_experiment(code, poor_schedule(code), rounds=2).circuit
            )
        )
        sig_a = {(m.detectors, m.observables) for m in a.mechanisms}
        sig_b = {(m.detectors, m.observables) for m in b.mechanisms}
        assert sig_a != sig_b


class TestSampler:
    def test_zero_noise_samples_zero(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        dem = extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))
        # Zero out probabilities: no detection events.
        arrays = dataclasses.replace(dem.arrays, probs=np.zeros_like(dem.arrays.probs))
        dem = DetectorErrorModel.from_arrays(
            arrays, dem.num_detectors, dem.num_observables
        )
        batch = DemSampler(dem).sample(100, np.random.default_rng(0))
        assert not batch.detectors.any()
        assert not batch.observables.any()

    def test_sample_rates_match_probabilities(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3])
        c.append("M", [0])
        c.append("DETECTOR", [0])
        dem = extract_dem(c)
        batch = DemSampler(dem).sample(200_000, np.random.default_rng(0))
        expected = dem.mechanisms[0].prob
        assert batch.detectors.mean() == pytest.approx(expected, rel=0.05)

    def test_sample_errors_consistent_with_matrices(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        dem = extract_dem(NoiseModel(p=5e-3).apply(exp.circuit))
        sampler = DemSampler(dem)
        fires, batch = sampler.sample_errors(500, np.random.default_rng(1))
        h, l_mat = dem.check_matrices()
        det = np.asarray(fires.dot(h.T.tocsr()).todense()) % 2
        assert np.array_equal(det.astype(np.uint8), batch.detectors)


class TestMeasurementReferences:
    """Detector/observable references must name a recorded measurement."""

    def test_negative_reference_raises(self):
        circ = circuit_from_text("R 0 1\nDEPOLARIZE1(0.3) 0\nM 0 1\nDETECTOR -1\n")
        with pytest.raises(
            ValueError, match="DETECTOR references measurement -1, only 2 recorded"
        ):
            extract_dem(circ)

    def test_forward_reference_raises(self):
        circ = circuit_from_text("R 0\nDEPOLARIZE1(0.3) 0\nM 0\nDETECTOR 1\nM 0\n")
        with pytest.raises(
            ValueError, match="DETECTOR references measurement 1, only 1 recorded"
        ):
            extract_dem(circ)

    def test_observable_reference_checked_too(self):
        c = Circuit()
        c.append("R", [0])
        c.append("M", [0])
        c.append("OBSERVABLE_INCLUDE", [-2], [0])
        with pytest.raises(
            ValueError, match="OBSERVABLE_INCLUDE references measurement -2"
        ):
            extract_dem(c)


class TestColumnarModel:
    """The array form, the object view built from it, and their contract."""

    @pytest.fixture
    def dem(self):
        code = rotated_surface_code(3)
        exp = build_memory_experiment(code, nz_schedule(code), rounds=2)
        return extract_dem(NoiseModel(p=1e-3).apply(exp.circuit))

    def test_object_view_is_a_cached_read_only_snapshot(self, dem):
        mechanisms = dem.mechanisms
        assert dem.mechanisms is mechanisms
        assert mechanisms == tuple(dem.arrays.to_mechanisms())
        with pytest.raises(dataclasses.FrozenInstanceError):
            mechanisms[0].prob = 0.25

    def test_hand_built_model_matches_extracted(self, dem):
        rebuilt = DetectorErrorModel(
            mechanisms=dem.arrays.to_mechanisms(),
            num_detectors=dem.num_detectors,
            num_observables=dem.num_observables,
            detector_labels=dem.detector_labels,
        )
        assert rebuilt == dem
        assert rebuilt.fingerprint() == dem.fingerprint()
        assert rebuilt.sources(3) == dem.sources(3)

    def test_find_source_prefers_the_last_mechanism(self):
        c = Circuit()
        c.append("R", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3], label=("dup",))
        c.append("M", [0])
        c.append("DETECTOR", [0])
        c.append("DEPOLARIZE1", [0], args=[0.3], label=("dup",))
        c.append("M", [0])
        c.append("DETECTOR", [1])
        arrays = extract_dem(c).arrays
        x0 = 1 << 2  # "X0" in the columnar Pauli encoding
        owners = [
            j
            for j in range(arrays.num_errors)
            if any(s.pauli == "X0" for s in arrays.sources(j))
        ]
        assert len(owners) == 2
        assert arrays.find_source(("dup",), x0, (0, -1)) == owners[-1]
        assert arrays.find_source(("other",), x0, (0, -1)) is None
        assert arrays.find_source(("dup",), x0, (7, -1)) is None

    def test_unrepresentable_hand_built_source_is_rejected(self):
        bad = ErrorMechanism(
            prob=0.1,
            detectors=(0,),
            observables=(),
            sources=(ErrorSource(label=(), pauli="X0*Y1*Z2", qubits=(0, 1, 2)),),
        )
        with pytest.raises(ValueError, match="one- or two-qubit Pauli"):
            DetectorErrorModel([bad], num_detectors=1, num_observables=0)


"""Detector-error-model extraction time.

PropHunt rebuilds the circuit-level DEM for every candidate change it
prunes (paper §5.4), so ``extract_dem`` is the optimizer's inner loop;
campaign compiles pay it once per (code, schedule, noise, basis).  Two
circuits:

* ``surface_d5`` coloration schedule at rounds=3, p=1e-3 — exactly the
  circuit ``PropHunt`` extracts over and over for that code;
* ``surface_d7`` N-Z schedule at 7 rounds — a distance-sized memory
  experiment (~21k fault sites), the LER sweeps' compile cost.

Both time the packed columnar extractor end to end (noisy circuit in,
``DetectorErrorModel`` out) and check the result's shape, so the gate
cannot time a degenerate model.
"""

import pytest

from repro.circuits import build_memory_experiment, coloration_schedule, nz_schedule
from repro.codes import load_benchmark_code
from repro.noise import NoiseModel
from repro.sim import extract_dem


def _noisy_circuit(name, schedule, rounds):
    code = load_benchmark_code(name)
    exp = build_memory_experiment(code, schedule(code), rounds=rounds, basis="z")
    return NoiseModel(p=1e-3).apply(exp.circuit)


@pytest.fixture(scope="module")
def prophunt_circuit():
    return _noisy_circuit("surface_d5", coloration_schedule, rounds=3)


@pytest.fixture(scope="module")
def d7_circuit():
    return _noisy_circuit("surface_d7", nz_schedule, rounds=7)


@pytest.mark.benchmark(group="dem-extract")
def test_extract_surface_d5_coloration_r3(benchmark, prophunt_circuit):
    dem = benchmark.pedantic(
        extract_dem, args=(prophunt_circuit,), rounds=20, iterations=1
    )
    assert dem.num_detectors == prophunt_circuit.num_detectors
    assert dem.num_errors > 0 and dem.num_observables == 1


@pytest.mark.benchmark(group="dem-extract")
def test_extract_surface_d7_nz_r7(benchmark, d7_circuit):
    dem = benchmark.pedantic(extract_dem, args=(d7_circuit,), rounds=5, iterations=1)
    assert dem.num_detectors == d7_circuit.num_detectors
    assert dem.num_errors > 0 and dem.num_observables == 1

"""The CI benchmark gate (``benchmarks/check_regression.py``).

Pins the four verdicts a baseline entry can get — regressed (fail),
within the limit (ok), new in the run (reported, passes), missing from
the run (fail: a renamed or deleted benchmark must not silently leave
the gate) — plus the ingestion of ``extra_info`` latency quantiles as
``<fullname>::<key>`` pseudo-benchmarks.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _PATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _run_json(tmp_path: Path, benchmarks: list[dict]) -> Path:
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def _bench(name: str, seconds: float, **extra) -> dict:
    return {"fullname": name, "stats": {"min": seconds}, "extra_info": extra}


def _baseline(tmp_path: Path, times: dict[str, float]) -> Path:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"_meta": {"note": "test"}, **times}))
    return path


class TestCompare:
    def test_regression_fails(self):
        failures = check_regression.compare({"a": 1.5}, {"a": 1.0}, 0.30)
        assert len(failures) == 1 and "a regressed" in failures[0]

    def test_within_limit_is_ok(self):
        assert check_regression.compare({"a": 1.2}, {"a": 1.0}, 0.30) == []

    def test_new_benchmark_passes(self, capsys):
        failures = check_regression.compare({"a": 1.0, "b": 9.0}, {"a": 1.0}, 0.30)
        assert failures == []
        assert "[new] b" in capsys.readouterr().out

    def test_missing_benchmark_fails(self, capsys):
        failures = check_regression.compare({"a": 1.0}, {"a": 1.0, "b": 1.0}, 0.30)
        assert len(failures) == 1
        assert "b" in failures[0] and "retire it via --update" in failures[0]
        assert "[missing] b" in capsys.readouterr().out


class TestLoad:
    def test_extra_info_latency_keys_become_pseudo_benchmarks(self, tmp_path):
        run = _run_json(
            tmp_path,
            [_bench("x.py::t", 0.5, p99_round_s=0.003, shots=100, ok_s=True)],
        )
        assert check_regression.load_min_times(run) == {
            "x.py::t": 0.5,
            "x.py::t::p99_round_s": 0.003,
        }

    def test_baseline_meta_is_not_a_benchmark(self, tmp_path):
        times = check_regression.load_min_times(_baseline(tmp_path, {"a": 1.0}))
        assert times == {"a": 1.0}


class TestMain:
    @pytest.mark.parametrize(
        "run_seconds,latency,code",
        [(0.5, 0.003, 0), (0.9, 0.003, 1), (0.5, 0.009, 1)],
    )
    def test_gate_exit_code(self, tmp_path, run_seconds, latency, code):
        run = _run_json(tmp_path, [_bench("x.py::t", run_seconds, p99_round_s=latency)])
        base = _baseline(tmp_path, {"x.py::t": 0.5, "x.py::t::p99_round_s": 0.003})
        assert check_regression.main([str(run), str(base)]) == code

    def test_vanished_benchmark_fails_until_retired(self, tmp_path):
        run = _run_json(tmp_path, [_bench("x.py::t", 0.5)])
        base = _baseline(tmp_path, {"x.py::t": 0.5, "x.py::gone": 0.5})
        assert check_regression.main([str(run), str(base)]) == 1
        assert check_regression.main([str(run), str(base), "--update"]) == 0
        assert check_regression.main([str(run), str(base)]) == 0

"""Pins the ``repro.api`` compatibility contract.

The facade exists so internals can churn without breaking user code;
that only holds if its surface is *tested*.  These tests pin the
``__all__`` list, the call signatures of every facade function, and the
fields of :class:`ExecutionConfig` — the only way execution knobs reach
the shot-loop entry points — so renaming a parameter or dropping a name
fails here before it fails downstream.
"""

import inspect

import pytest

import repro.api as api
from repro.experiments.campaign import execute_job
from repro.experiments.shotrunner import (
    ExecutionConfig,
    estimate_logical_error_rate_chunked,
    run_shot_chunks,
)


def params(fn):
    return list(inspect.signature(fn).parameters)


class TestSurface:
    def test_all_is_pinned(self):
        assert sorted(api.__all__) == [
            "CampaignJob",
            "CampaignSpec",
            "ExecutionConfig",
            "ResultStore",
            "Session",
            "evaluate",
            "serve",
            "smoke_spec",
            "sweep",
            "worker",
        ]

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_evaluate_signature(self):
        assert params(api.evaluate) == [
            "code",
            "schedule",
            "p",
            "shots",
            "basis",
            "decoder",
            "idle_strength",
            "noise",
            "rounds",
            "config",
        ]

    def test_sweep_signature(self):
        assert params(api.sweep) == [
            "spec",
            "store",
            "config",
            "labels",
            "progress",
        ]

    def test_serve_signature(self):
        assert params(api.serve) == [
            "spec",
            "store",
            "n_workers",
            "ttl",
            "poll",
            "wait",
            "timeout",
            "labels",
            "config",
            "progress",
        ]

    def test_worker_signature(self):
        assert params(api.worker) == [
            "store",
            "worker_id",
            "ttl",
            "poll",
            "once",
            "max_jobs",
            "timeout",
            "config",
            "progress",
        ]

    def test_session_surface(self):
        assert params(api.Session.__init__) == ["self", "store", "config", "cache"]
        for method in (
            "reload",
            "evaluate",
            "sweep",
            "serve",
            "query",
            "compact",
            "telemetry",
        ):
            assert callable(getattr(api.Session, method))

    def test_execution_config_fields(self):
        assert [f for f in ExecutionConfig.__dataclass_fields__] == [
            "workers",
            "chunk_shots",
            "max_failures",
            "sampler",
            "dec",
            "syndrome_cache_dir",
            "syndrome_writer_tag",
        ]
        cfg = ExecutionConfig()
        assert cfg.workers == 1 and cfg.chunk_shots == 5_000
        assert cfg.replace(workers=3).workers == 3
        assert cfg.workers == 1  # frozen: replace returns a copy

    @pytest.mark.parametrize(
        "entry_point",
        [run_shot_chunks, estimate_logical_error_rate_chunked, execute_job],
        ids=lambda fn: fn.__name__,
    )
    def test_execution_keywords_are_a_type_error(self, entry_point):
        # Knobs ride ExecutionConfig only; a bare keyword never binds.
        assert "workers" not in params(entry_point)
        with pytest.raises(TypeError, match="workers"):
            entry_point(None, workers=2)


class TestSessionBehavior:
    def test_session_shares_one_store_handle(self, tmp_path):
        sess = api.Session(store=tmp_path / "s")
        handle = sess.store
        sess.sweep(api.smoke_spec())
        assert sess.store is handle  # never reopened
        assert len(sess.query(estimator="direct")) == 2
        # A second session (fresh parse) sees the same records.
        assert len(api.Session(store=tmp_path / "s").query()) == 4

    def test_session_accepts_open_store(self, tmp_path):
        from repro.experiments.store import ResultStore

        store = ResultStore(tmp_path / "s")
        assert api.Session(store=store).store is store

    def test_in_memory_session_cannot_serve(self):
        with pytest.raises(ValueError):
            api.Session().serve(api.smoke_spec(), n_workers=1)

    def test_in_memory_session_has_no_telemetry(self):
        with pytest.raises(ValueError):
            api.Session().telemetry()

    def test_on_disk_session_telemetry_shape(self, tmp_path):
        sess = api.Session(store=tmp_path / "s")
        summary = sess.telemetry()  # empty sidecar dir is a valid answer
        assert set(summary) >= {"dir", "stages", "metrics", "heartbeats"}
        assert summary["stages"] == {}

    def test_evaluate_single_basis(self):
        ler = api.evaluate("surface_d3", "nz", p=3e-3, shots=256, basis="z")
        assert list(ler.per_basis) == ["z"]

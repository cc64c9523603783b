"""The four seeded workloads, each driven through a public entry point.

Every workload is a sequence of identical *passes* of fixed work, run by
one client that starts the next pass when the previous one returns
(closed loop); ``stream-paced`` is an open loop *inside* each stream.
The seed enters only ``CampaignSpec.seed``, ``PropHuntConfig.seed`` or
the stream RNG.  Execution settings stay at library defaults.

A pass reports its wall time, its operations (latency, failed checks),
the work it consumed and the outputs the checks compare: stored LER
results, optimized-schedule digests, per-stream failure counts.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# The stream arrival rate, fixed at about half the free-run capacity
# measured for this workload (2 vCPU x86-64 container, numpy 2.x,
# ``cnative`` kernels): free-run ~1270 rounds/s.  A fixed rate keeps the
# offered load identical across commits, so a slower decoder shows up as
# queueing delay rather than as a lighter load.
STREAM_RATE = 630.0


@dataclass
class Op:
    """One operation's check results (it failed if ``errors``)."""

    errors: list[str] = field(default_factory=list)
    unchecked: int = 0  # pinned comparisons skipped for want of a pin


@dataclass
class PassResult:
    wall_s: float
    ops: list[Op]
    latencies_s: list[float]  # the workload's per-operation latency samples
    work: float  # shots / optimize iterations / rounds done in wall_s
    outputs: dict[str, Any]
    stats: dict[str, Any] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    # Work per pass is fixed; this is its nominal wall time on the
    # reference machine, used to turn --seconds into a pass count so two
    # commits always measure the same work.
    nominal_pass_s = 1.0
    # Passes draw fresh inputs (stream RNG) instead of repeating them.
    fresh_inputs_per_pass = False
    # Spans the traced run must record (the wrapper coverage check).
    exercises: tuple[str, ...] = ()
    # What the generic end-to-end metrics mean for this workload.
    metric_names = {"pass_s": "", "op": "", "work_per_s": ""}

    def __init__(self, seed: int, pins: dict[str, Any] | None, workdir: str):
        self.seed = seed
        self.pins = pins
        self.workdir = workdir

    def setup(self) -> None:
        """Everything before the first timed operation can start."""

    def run_pass(self, index: int, tracer=None) -> PassResult:
        """Pass ``index``; ``tracer`` (traced runs) takes request ids."""
        raise NotImplementedError

    def _check_pin(self, op: Op, key: str, value) -> None:
        if self.pins is None or key not in self.pins:
            op.unchecked += 1
        elif self.pins[key] != value:
            op.errors.append(f"{key}: {value!r} != pinned {self.pins[key]!r}")


# -- LER sweeps -------------------------------------------------------------------


class _LerSweep(Workload):
    """One ``Session.sweep`` of a seeded job list into a fresh store."""

    specs: tuple[dict[str, Any], ...] = ()
    metric_names = {
        "pass_s": "sweep_s",
        "op": "job",
        "work_per_s": "shots_per_s (direct + stratified)",
    }
    exercises = (
        "sim.sampler",
        "gf2.kernels",
        "decoders.decode",
        "decoders.syncache.lookup",
        "decoders.syncache.insert",
        "experiments.shotrunner",
        "experiments.campaign.job",
        "experiments.campaign.compile",
        "experiments.store.put",
        "circuits.build",
        "noise.apply",
        "sim.dem.extract",
    )

    def setup(self) -> None:
        import repro.api as api

        self.api = api
        self.jobs = [
            job
            for spec in self.specs
            for job in api.CampaignSpec(seed=self.seed, **spec).expand()
        ]

    @staticmethod
    def label(job) -> str:
        return (
            f"{job.code}/{job.schedule}/{job.basis}/p={job.p:g}/"
            f"{job.decoder}/{job.estimator}"
        )

    def run_pass(self, index: int, tracer=None) -> PassResult:
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            start = time.perf_counter()
            report = self.api.Session(store=store_dir).sweep(self.jobs)
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        ops, latencies, outputs, shots = [], [], {}, 0
        for job in self.jobs:
            record = report.record(job)
            result = record["result"]
            est = result["estimate"]
            value = [est["failures"], result["consumed_shots"]]
            if "stratified" in result:
                value.append(result["stratified"]["rate"])
            label = self.label(job)
            op = Op()
            latencies.append(record["meta"]["elapsed_s"])
            if result["consumed_shots"] < 1:
                op.errors.append(f"{label}: consumed no shots")
            self._check_pin(op, label, value)
            ops.append(op)
            outputs[label] = value
            shots += result["consumed_shots"]
        syn = report.syndrome_stats or {}
        return PassResult(
            wall_s=wall,
            ops=ops,
            latencies_s=latencies,
            work=shots,
            outputs=outputs,
            stats={
                "syncache": {k: syn.get(k) for k in ("hits", "misses", "entries")}
            },
        )


class LerLowp(_LerSweep):
    name = "ler-lowp"
    why = (
        "low-p direct MC: most shots carry empty or repeated syndromes, so "
        "dedup collapses decoding and time goes to sampling and gf2 kernels"
    )
    nominal_pass_s = 4.0
    specs = (
        dict(
            name="lowp-d5",
            codes=("surface_d5",),
            schedules=("nz",),
            p_values=(5e-4,),
            shots=800_000,
        ),
        dict(
            name="lowp-d7",
            codes=("surface_d7",),
            schedules=("nz",),
            p_values=(3e-4,),
            shots=250_000,
        ),
    )


class LerDecode(_LerSweep):
    name = "ler-decode"
    why = (
        "decoder-bound mix (blossom matching, BP+OSD, rare-event strata): "
        "decoding and rareevent do the work and the syndrome cache takes "
        "many writes"
    )
    nominal_pass_s = 4.0
    exercises = _LerSweep.exercises + (
        "rareevent.estimate",
        "rareevent.sample",
        "gf2.rowreduce",
    )
    specs = (
        dict(
            name="decode-d7-coloration",
            codes=("surface_d7",),
            schedules=("coloration",),
            p_values=(3e-3,),
            decoders=("matching",),
            shots=1_500,
            chunk_size=750,
        ),
        dict(
            name="decode-lp39",
            codes=("lp39",),
            p_values=(1e-3,),
            decoders=("bposd",),
            shots=400,
            chunk_size=200,
        ),
        dict(
            name="decode-rare-d5",
            codes=("surface_d5",),
            schedules=("nz",),
            p_values=(5e-4,),
            estimators=("rare-event",),
            shots=6_000,
            initial_shots=1_024,
            max_rounds=3,
            min_failure_weight=2,
            target_rel_halfwidth=0.05,
        ),
    )


# -- PropHunt ---------------------------------------------------------------------


class ProphuntOpt(Workload):
    name = "prophunt-opt"
    why = (
        "the paper's optimization loop: no sampling or decoding; time goes "
        "to DEM extraction, ISD min-weight search and gf2 row reduction"
    )
    nominal_pass_s = 8.0
    metric_names = {
        "pass_s": "optimize_s",
        "op": "optimize call",
        "work_per_s": "optimize iterations per second",
    }
    exercises = (
        "core.optimizer.optimize",
        "core.optimizer.build_dem",
        "core.ambiguity.find",
        "core.minweight.solve",
        "core.changes.enumerate",
        "core.pruning.check",
        "codes.distance.isd",
        "gf2.rowreduce",
        "circuits.build",
        "noise.apply",
        "sim.dem.extract",
    )
    code = "surface_d5"
    iterations = 1
    samples_per_iteration = 112
    # Caps verification work per ambiguous subgraph (library default 24):
    # at 24, one call's cost varied 2.2-6.5 s across seeds at 8 samples.
    max_candidates_per_error = 4

    def setup(self) -> None:
        from repro.circuits import coloration_schedule
        from repro.codes import load_benchmark_code
        from repro.core import PropHunt, PropHuntConfig

        self.PropHunt, self.PropHuntConfig = PropHunt, PropHuntConfig
        self.code_obj = load_benchmark_code(self.code)
        self.start = coloration_schedule(self.code_obj)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        from repro.circuits.serialize import schedule_to_json

        label = self.code
        config = self.PropHuntConfig(
            iterations=self.iterations,
            samples_per_iteration=self.samples_per_iteration,
            max_candidates_per_error=self.max_candidates_per_error,
            seed=self.seed,
            stop_when_quiet=False,
        )
        if tracer is not None:
            tracer.request = f"optimize:{index}"
        start = time.perf_counter()
        result = self.PropHunt(self.code_obj, config).optimize(self.start)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.request = None
        op = Op()
        final = result.final_schedule
        digest = hashlib.sha256(schedule_to_json(final).encode()).hexdigest()
        value = [digest[:16], result.deff_estimate]
        if not final.is_valid():
            op.errors.append(f"{label}: final schedule is invalid")
        if len(result.history) != self.iterations:
            op.errors.append(f"{label}: ran {len(result.history)} iterations")
        self._check_pin(op, label, value)
        return PassResult(
            wall_s=wall,
            ops=[op],
            latencies_s=[wall],
            work=len(result.history),
            outputs={label: value},
            stats={"iterations": len(result.history)},
        )


# -- paced streaming ----------------------------------------------------------------


class StreamPaced(Workload):
    name = "stream-paced"
    why = (
        "open-loop rounds at a fixed rate through the sliding-window "
        "decoder: the only streaming path, decoding small per-round batches"
    )
    nominal_pass_s = 0.45
    fresh_inputs_per_pass = True
    metric_names = {
        "pass_s": "free-run block of streams",
        "op": "paced round (round_p50_s / round tail)",
        "work_per_s": "sustained_rounds_per_s (free run)",
    }
    exercises = (
        "streaming.stream",
        "streaming.push",
        "streaming.finish",
        "decoders.decode",
        "sim.sampler",
        "gf2.kernels",
    )
    code = "surface_d5"
    p = 1e-3
    rounds = 10
    shots = 2_048
    # 44 passes (20 s) of 3 paced streams x 11 rounds give 1452 paced
    # rounds, enough for the round tail to be reported at p99.
    paced_streams = 3  # per pass, at STREAM_RATE
    free_streams = 30  # per pass, unpaced: the capacity measurement
    warmup_streams = 24

    def setup(self) -> None:
        from repro.circuits import nz_schedule
        from repro.codes import rotated_surface_code
        from repro.decoders.metrics import dem_for, make_decoder
        from repro.noise.spec import NoiseSpec
        from repro import streaming
        from repro.sim.sampler import DemSampler

        code = rotated_surface_code(int(self.code.split("_d")[1]))
        self.dem = dem_for(
            code,
            nz_schedule(code),
            NoiseSpec.depolarizing(self.p),
            basis="z",
            rounds=self.rounds,
        )
        self.decoder = make_decoder(self.dem, "z")
        self.sampler = DemSampler(self.dem)
        self.layout = streaming.RoundLayout.from_dem(self.dem)
        # Looked up per call, so a traced run's wrapper is the one called.
        self.streaming = streaming
        # Cold streams run 10-20x slower per round (first-use caches and
        # pairing tables); set-up ends once paced rounds are steady.
        for i in range(self.warmup_streams):
            self._stream(0, i, STREAM_RATE if i % 2 else 0.0)

    def _stream(self, phase: int, i: int, rate: float):
        """Stream ``i`` of a phase (0 warm-up, 1 timed) on its own RNG."""
        rng = np.random.default_rng([self.seed, phase, i])
        return self.streaming.stream_decode(
            self.dem,
            self.shots,
            basis="z",
            decoder=self.decoder,
            rng=rng,
            rounds_per_sec=rate,
            verify_offline=True,
            sampler=self.sampler,
            layout=self.layout,
        )

    def run_pass(self, index: int, tracer=None) -> PassResult:
        ops, outputs = [], {}
        latencies, misses, rounds, commits, revised = [], 0, 0, 0, 0
        per_pass = self.paced_streams + self.free_streams
        free_rounds, free_s = 0, 0.0
        for j in range(per_pass):
            i = index * per_pass + j
            paced = j < self.paced_streams
            if tracer is not None:
                tracer.request = f"{'paced' if paced else 'free'}:{i}"
            report = self._stream(1, i, STREAM_RATE if paced else 0.0)
            op = Op()
            if report.matches_offline is not True:
                op.errors.append(f"stream {i}: committed corrections != offline decode")
            if len(report.round_latencies_s) != report.rounds:
                op.errors.append(
                    f"stream {i}: {len(report.round_latencies_s)} round latencies "
                    f"for {report.rounds} rounds"
                )
            ops.append(op)
            outputs[f"stream:{i}"] = report.failures
            if paced:
                latencies.extend(report.round_latencies_s)
                misses += report.deadline_misses
                rounds += report.rounds
                commits += report.commit_count
                revised += report.revised_shots
            else:
                free_rounds += report.rounds
                free_s += report.elapsed_s
        if tracer is not None:
            tracer.request = None
        return PassResult(
            wall_s=free_s,
            ops=ops,
            latencies_s=latencies,
            work=free_rounds,
            outputs=outputs,
            stats={
                "deadline_misses": misses,
                "paced_rounds": rounds,
                "commits": commits,
                "revised_shots": revised,
                "paced_shots": self.paced_streams * self.shots,
            },
        )


WORKLOADS = {w.name: w for w in (LerLowp, LerDecode, ProphuntOpt, StreamPaced)}

"""The repo benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload ler-lowp --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for their inputs and why each was chosen):

* ``ler-lowp``     -- direct Monte-Carlo LER sweep at low p (``Session.sweep``)
* ``ler-decode``   -- decoder-bound LER sweep with rare-event jobs (``Session.sweep``)
* ``prophunt-opt`` -- fixed-budget ``PropHunt.optimize`` from coloration circuits
* ``stream-paced`` -- ``stream_decode`` with rounds arriving at a fixed rate

Every workload repeats a pass of fixed work; ``--seconds`` sets the number
of passes (``seconds / nominal pass time``), so two commits always measure
the same work.  End-to-end metrics (``--trace 0``), the same names on every
workload:

* ``setup_s``      -- process start until the first timed operation can
  start; median over ``SETUP_PROBES`` fresh processes.
* ``pass_s``       -- median wall time of the faster half of the run's
  passes: the sweep (``sweep_s``), the optimize call (``optimize_s``), or
  the free-run block of streams (its rounds over this time are
  ``sustained_rounds_per_s``).
* ``op_p50_s``     -- median latency of the operations in those passes: an
  LER job, the optimize call, or a paced round measured from its scheduled
  arrival (``round_p50_s``).
* ``peak_rss_mb``  -- peak resident set size of the measuring process.

Why the faster half: on a shared machine, co-tenant interference only
ever slows a pass, and it comes in phases of seconds to minutes (a pure
Python loop ran 1.7x slower in them).  The median over all of a run's
paced rounds moved 12-17% between identical runs; ranking passes by wall
time and keeping the faster half drops most slowed passes, as the repo's
``benchmarks/`` gate does by comparing minimum times.

The text report gives every timing as a median plus the highest
percentile with at least ten samples beyond it, with the sample count,
under the workload's own names (``sweep_s``, ``optimize_s``,
``round_p50_s``/``round_p99_s``, ...).  Only medians are gated: tail
percentiles of a few thousand rounds moved by 60% between identical runs
on a shared 2-vCPU machine.  ``failed_ratio`` and the stream's
``deadline_miss_ratio`` are printed too; ``failed_ratio`` is 0 on a
healthy build, so it rides the result's ``attempted``/``failed`` counts.

``--trace 1`` runs two untraced passes, then traced passes with every
layer's public calls wrapped (``layers.py``), and reports the per-layer
metrics, the tracing overhead (traced minus untraced ``pass_s``) and the
unattributed remainder; spans go to ``.perfbench_work/``.

Outputs are checked on every operation: LER results and optimized
schedules against ``pins.json`` for pinned seeds (other seeds report those
comparisons as unchecked), schedule validity, stream corrections against
the offline decode, identical syndrome-cache counts in every pass, and in
traced runs identical outputs and a span from every declared wrapper.
Regenerate pins after a deliberate behaviour change with
``python3 perfbench/run.py --workload <name> --pin 0-15``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
PINS = os.path.join(HERE, "pins.json")
SETUP_PROBES = 3

# Layers whose self-time share is predicted to be largest, per workload.
PREDICTIONS = {
    "ler-lowp": ("sim", "gf2"),
    "ler-decode": ("decoders", "rareevent"),
    "prophunt-opt": ("sim", "core"),
    "stream-paced": ("streaming", "decoders"),
}


def _prepare_environment() -> bool:
    """Point every cache and temp file into the checkout; find ``repro``."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return False
    os.makedirs(os.path.join(WORKDIR, "tmp"), exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(WORKDIR, "kernels")
    os.environ["TMPDIR"] = os.path.join(WORKDIR, "tmp")
    tempfile.tempdir = os.environ["TMPDIR"]
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    return True


def _environment(obs_was_set: bool) -> dict:
    import numpy

    from repro.gf2 import kernels

    return {
        "kernel_backend": kernels.backend_name(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "REPRO_OBS_unset": not obs_was_set,
        "REPRO_KERNELS": os.environ.get("REPRO_KERNELS", "(default)"),
    }


def _load_pins(workload: str, seed: int):
    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        return None
    return pins.get(workload, {}).get(str(seed))


def _probe_setup(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to ready."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-probe",
        ]
        spawned = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{out.stderr}")
        ready = json.loads(out.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - spawned)
    return times


def _timing(values: list[float]) -> str:
    """Median plus the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"p50 {statistics.median(ordered):.6g} s"
    if n > 10:
        text += f", p{100.0 * (n - 10) / n:.2f} {ordered[n - 11]:.6g} s"
    else:
        text += f", max {ordered[-1]:.6g} s (too few samples for a tail)"
    return text + f" (n={n})"


def _run_passes(workload, indices, tracer=None):
    """Run passes; a pass that raises fails all of its operations."""
    results, errors = [], []
    for k in indices:
        try:
            if tracer is not None:
                with tracer.span("bench.pass"):
                    results.append(workload.run_pass(k, tracer))
            else:
                results.append(workload.run_pass(k))
        except Exception:  # noqa: BLE001 - the benchmark must report, not die
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
    return results, errors


def _faster_half(results):
    """The faster half of the passes (at least one), by wall time.

    Co-tenant interference on a shared machine only ever slows a pass and
    comes in phases, so the faster half is the least disturbed sample.
    """
    ranked = sorted(results, key=lambda r: r.wall_s)
    return ranked[: max(1, len(ranked) // 2)]


def _fail(results, message: str) -> None:
    """Mark every operation of ``results`` failed with ``message``."""
    for r in results:
        for op in r.ops:
            op.errors.append(message)


def _collect_checks(workload, results, errors) -> tuple[int, int, int, list[str]]:
    """Cross-pass checks, then (attempted, failed, unchecked, messages)."""
    for r in results[1:]:
        # Run isolation: every pass starts from a fresh store and
        # syndrome cache, so its cache traffic repeats exactly.
        if r.stats.get("syncache") != results[0].stats.get("syncache"):
            _fail([r], f"syndrome-cache counts {r.stats['syncache']} differ from "
                  f"the first pass's {results[0].stats['syncache']}")
        if not workload.fresh_inputs_per_pass and r.outputs != results[0].outputs:
            _fail([r], "outputs differ from the first pass's on identical inputs")
    ops = [op for r in results for op in r.ops]
    per_pass = max((len(r.ops) for r in results), default=1)
    attempted = len(ops) + per_pass * len(errors)
    failed = sum(1 for op in ops if op.errors) + per_pass * len(errors)
    unchecked = sum(op.unchecked for op in ops)
    messages = [e for op in ops for e in op.errors] + errors
    return attempted, failed, unchecked, messages


def _print_checks(attempted, failed, unchecked, messages) -> None:
    for msg in messages[:20]:
        print(f"CHECK FAILED: {msg.strip()}")
    verdict = "PASS" if not failed else "FAIL"
    print(
        f"output check: {verdict} -- attempted {attempted}, failed {failed}, "
        f"failed_ratio {failed / max(1, attempted):.4f}, "
        f"unchecked pinned comparisons {unchecked}"
        + (" (no pins for this seed)" if unchecked else "")
    )


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    """The result line: ``metrics`` maps name -> (value, unit)."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def timed_run(workload, args, passes: int) -> dict:
    results, errors = _run_passes(workload, range(passes))
    attempted, failed, unchecked, messages = _collect_checks(workload, results, errors)
    if not results:
        _print_checks(attempted, failed, unchecked, messages)
        return _result(False, attempted, failed, {})
    lat = [x for r in results for x in r.latencies_s]
    walls = [r.wall_s for r in results]
    fast = _faster_half(results)
    fast_lat = [x for r in fast for x in r.latencies_s]
    fastest = fast[0]
    metrics = {
        "setup_s": (statistics.median(args.setup_times), "s"),
        "pass_s": (statistics.median(r.wall_s for r in fast), "s"),
        "op_p50_s": (statistics.median(fast_lat), "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    names = workload.metric_names
    print(f"workload {workload.name} seed {workload.seed}: {passes} passes")
    print(f"  setup_s      {_timing(args.setup_times)}")
    print(
        f"  pass_s       {metrics['pass_s'][0]:.6g} s, median of the faster "
        f"{len(fast)} of {len(walls)} passes"
    )
    print(f"    {names['pass_s']}: {_timing(walls)}")
    print(
        f"  op_p50_s     {metrics['op_p50_s'][0]:.6g} s, median of their "
        f"{len(fast_lat)} operations"
    )
    print(f"    {names['op']} latency: {_timing(lat)}")
    print(
        f"    {names['work_per_s']}: {fastest.work / fastest.wall_s:.6g} 1/s "
        f"(fastest pass)"
    )
    print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    stats = [r.stats for r in results]
    if stats and "deadline_misses" in stats[0]:
        misses = sum(s["deadline_misses"] for s in stats)
        rounds = sum(s["paced_rounds"] for s in stats)
        print(
            f"  deadline_miss_ratio {misses / rounds:.5f} "
            f"({misses} of {rounds} paced rounds)"
        )
    if stats and "syncache" in stats[0]:
        print(f"  syndrome cache per pass: {stats[0]['syncache']}")
    _print_checks(attempted, failed, unchecked, messages)
    return _result(failed == 0, attempted, failed, metrics)


def traced_run(workload, passes: int) -> dict:
    from layers import METRICS, RATIO_BASES, TARGETS, largest_layer, layer_metrics
    from tracing import Tracer

    # Two untraced passes, so the reference is not only the run's first.
    traced_idx = list(range(2, max(3, passes)))
    untraced, errors = _run_passes(workload, [0, 1])
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        traced, t_errors = _run_passes(workload, traced_idx, tracer)
        missed = tracer.unpatched_sites()
    finally:
        tracer.uninstall()
    errors += t_errors
    problems = [f"unwrapped binding site: {m}" for m in missed]
    names = {s.name for s in tracer.spans}
    problems += [
        f"wrapper {name} recorded no span"
        for name in workload.exercises
        if name not in names
    ]
    # Traced outputs must equal untraced ones: the same passes again for
    # fresh-input workloads, any untraced pass otherwise.
    if workload.fresh_inputs_per_pass:
        replay, r_errors = _run_passes(workload, traced_idx)
        errors += r_errors
        reference = [r.outputs for r in replay]
    else:
        reference = [untraced[0].outputs] * len(traced) if untraced else []
    if [r.outputs for r in traced] != reference:
        problems.append("traced outputs differ from untraced outputs")
    for problem in problems:
        _fail(traced, problem)
    attempted, failed, unchecked, messages = _collect_checks(
        workload, untraced + traced, errors
    )
    if not traced or not untraced:
        _print_checks(attempted, failed, unchecked, messages)
        return _result(False, attempted, failed, {})
    overhead = statistics.median(
        r.wall_s for r in _faster_half(traced)
    ) - statistics.median(r.wall_s for r in _faster_half(untraced))
    stats: dict = {"round_latencies_s": []}
    for r in traced:
        stats["round_latencies_s"].extend(r.latencies_s)
        for key, value in r.stats.items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value
    m = layer_metrics(tracer.spans, len(traced), stats, overhead)
    os.makedirs(WORKDIR, exist_ok=True)
    trace_path = os.path.join(
        WORKDIR, f"trace-{workload.name}-seed{workload.seed}.jsonl"
    )
    tracer.write(trace_path)
    print(f"workload {workload.name} seed {workload.seed}: traced {len(traced)} passes")
    for name, unit, _ in METRICS:
        print(f"  {name:40s} {m[name]:.6g} {unit}")
    for name, base in RATIO_BASES.items():
        print(f"  ratio base  {name}: {base}")
    top = largest_layer(m)
    expect = PREDICTIONS[workload.name]
    verdict = "holds" if top in expect else "FAILS"
    print(
        f"  largest self-time layer: {top}; "
        f"predicted {' + '.join(expect)} -> {verdict}"
    )
    print(f"  tracing overhead {overhead:+.4f} s per pass; spans in {trace_path}")
    _print_checks(attempted, failed, unchecked, messages)
    metrics = {name: (m[name], unit) for name, unit, _ in METRICS}
    return _result(failed == 0, attempted, failed, metrics)


def pin(workload_cls, seeds: list[int]) -> None:
    """Record the outputs of one pass per seed into ``pins.json``."""
    try:
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    for seed in seeds:
        workload = workload_cls(seed, None, WORKDIR)
        workload.setup()
        outputs = workload.run_pass(0).outputs
        pins.setdefault(workload_cls.name, {})[str(seed)] = outputs
        print(f"pinned {workload_cls.name} seed {seed}", file=sys.stderr)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", metavar="SEEDS", help="pin outputs for seeds A-B")
    args = parser.parse_args(argv)
    obs_was_set = "REPRO_OBS" in os.environ
    os.environ.pop("REPRO_OBS", None)
    if not _prepare_environment():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        cls(args.seed, None, WORKDIR).setup()
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    if args.pin:
        pin(cls, _seeds(args.pin))
        return 0

    env = _environment(obs_was_set)  # importing repro builds the kernel cache
    workload = cls(args.seed, _load_pins(args.workload, args.seed), WORKDIR)
    passes = max(2, round(args.seconds / cls.nominal_pass_s))
    if args.trace:
        workload.setup()
        result = traced_run(workload, passes)
    else:
        args.setup_times = _probe_setup(args)
        workload.setup()
        result = timed_run(workload, args, passes)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

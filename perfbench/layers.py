"""The wrapped public calls of each layer and the per-layer metrics.

Layer names are the ``repro`` subpackages.  ``maxsat``, ``zne`` and
``analysis`` sit on no workload's default path and ``obs`` stays off, so
none of them is wrapped.  Every time metric is *self time*: the span
minus the part its child spans cover.  Metrics are per pass (totals over
the traced passes divided by their number), so counts repeat exactly.
"""

from __future__ import annotations

import math
from collections import defaultdict

from tracing import Span, Target, self_times

LAYERS = (
    "codes",
    "circuits",
    "noise",
    "sim",
    "gf2",
    "decoders",
    "rareevent",
    "core",
    "experiments",
    "streaming",
)


def _shots(args, kwargs, result, before):
    return {"shots": int(result.shots)}


def _unique(args, kwargs, result, before):
    return {"rows": int(args[0].shape[0]), "unique": int(result[0].shape[0])}


def _decode(args, kwargs, result, before):
    kind = type(args[0]).__name__.lower().replace("decoder", "")
    return {"kind": kind, "shots": int(result.shots)}


def _lookup(args, kwargs, result, before):
    return {"lookups": int(args[1].shape[0]), "hits": int(result[1].sum())}


def _entries(args, kwargs):
    return len(args[0])


def _insert(args, kwargs, result, before):
    return {"inserted": len(args[0]) - before}


def _job_request(args, kwargs):
    return "job:" + args[0].key()[:16]


def _found(args, kwargs, result, before):
    return {"found": result is not None}


def _count(args, kwargs, result, before):
    return {"candidates": len(result)}


def _verified(args, kwargs, result, before):
    return {"verified": bool(result.verified)}


def _commit(args, kwargs, result, before):
    return {"commit_s": result.elapsed_s if result is not None else 0.0}


TARGETS = [
    Target("sim.sampler", "repro.sim.sampler:DemSampler.sample_packed", _shots),
    Target("gf2.kernels", "repro.gf2.kernels:transpose_words"),
    Target("gf2.kernels", "repro.gf2.kernels:unique_shot_words", _unique),
    Target("gf2.kernels", "repro.gf2.kernels:popcount_words"),
    Target("gf2.rowreduce", "repro.gf2.bitmat:BitMatrix.row_reduce"),
    Target("gf2.rowreduce", "repro.gf2.core:in_rowspace"),
    Target(
        "decoders.decode", "repro.decoders.base:Decoder.decode_batch_packed", _decode
    ),
    Target(
        "decoders.decode",
        "repro.decoders.matching:MatchingDecoder.decode_batch_packed",
        _decode,
    ),
    Target(
        "decoders.syncache.lookup",
        "repro.decoders.syncache:SyndromeCache.lookup",
        _lookup,
    ),
    Target(
        "decoders.syncache.insert",
        "repro.decoders.syncache:SyndromeCache.insert",
        _insert,
        before=_entries,
    ),
    Target(
        "rareevent.estimate",
        "repro.rareevent.estimator:estimate_ler_stratified",
        _shots,
    ),
    Target(
        "rareevent.sample",
        "repro.rareevent.sampler:WeightStratifiedSampler.sample_at_weight",
        _shots,
    ),
    Target("experiments.shotrunner", "repro.experiments.shotrunner:run_shot_chunks"),
    Target(
        "experiments.campaign.job",
        "repro.experiments.campaign:execute_job",
        request=_job_request,
    ),
    Target(
        "experiments.campaign.compile", "repro.experiments.campaign:CompileCache.dem"
    ),
    Target(
        "experiments.campaign.compile",
        "repro.experiments.campaign:CompileCache.decoder",
    ),
    Target(
        "experiments.campaign.compile",
        "repro.experiments.campaign:CompileCache.sampler",
    ),
    Target("experiments.store.put", "repro.experiments.store:ResultStore.put"),
    Target("circuits.build", "repro.circuits.builder:build_memory_experiment"),
    Target("noise.apply", "repro.noise.model:NoiseModel.apply"),
    Target("noise.apply", "repro.noise.spec:NoiseSpec.apply"),
    Target("sim.dem.extract", "repro.sim.dem:extract_dem"),
    Target("codes.distance.isd", "repro.codes.distance:min_weight_logical"),
    Target("core.optimizer.optimize", "repro.core.optimizer:PropHunt.optimize"),
    Target("core.optimizer.build_dem", "repro.core.optimizer:PropHunt.build_dem"),
    Target(
        "core.ambiguity.find", "repro.core.ambiguity:find_ambiguous_subgraph", _found
    ),
    Target("core.minweight.solve", "repro.core.minweight:solve_min_weight_logical"),
    Target("core.changes.enumerate", "repro.core.changes:enumerate_candidates", _count),
    Target("core.pruning.check", "repro.core.pruning:check_candidate", _verified),
    Target("streaming.stream", "repro.streaming.runner:stream_decode"),
    Target("streaming.push", "repro.streaming.window:WindowedDecoder.push", _commit),
    Target("streaming.finish", "repro.streaming.window:WindowedDecoder.finish"),
]

# name, unit, better — the per-layer metrics, in report order.
METRICS = [
    ("sim.sampler.s", "s", "lower"),
    ("sim.sampler.shots", "count", "higher"),
    ("experiments.shotrunner.self_s", "s", "lower"),
    ("gf2.kernels.s", "s", "lower"),
    ("gf2.kernels.calls", "count", "lower"),
    ("decoders.unique_ratio", "ratio", "lower"),
    ("decoders.matching.decode_s", "s", "lower"),
    ("decoders.bposd.decode_s", "s", "lower"),
    ("decoders.calls", "count", "lower"),
    ("decoders.syncache.lookups", "count", "lower"),
    ("decoders.syncache.hits", "count", "higher"),
    ("decoders.syncache.inserts", "count", "lower"),
    ("decoders.syncache.insert_s", "s", "lower"),
    ("decoders.syncache.inserts_per_shot", "ratio", "lower"),
    ("rareevent.s", "s", "lower"),
    ("rareevent.sample_s", "s", "lower"),
    ("rareevent.shots", "count", "lower"),
    ("experiments.campaign.job_s", "s", "lower"),
    ("experiments.campaign.compile_s", "s", "lower"),
    ("experiments.store.put_s", "s", "lower"),
    ("experiments.store.puts", "count", "lower"),
    ("circuits.build_s", "s", "lower"),
    ("circuits.build_calls", "count", "lower"),
    ("noise.apply_s", "s", "lower"),
    ("sim.dem.extract_s", "s", "lower"),
    ("sim.dem.extract_calls", "count", "lower"),
    ("sim.dem.extracts_per_iteration", "ratio", "lower"),
    ("codes.distance.isd_s", "s", "lower"),
    ("codes.distance.isd_calls", "count", "lower"),
    ("core.optimizer.dem_requests", "count", "lower"),
    ("core.optimizer.dem_hit_ratio", "ratio", "higher"),
    ("core.ambiguity.find_s", "s", "lower"),
    ("core.ambiguity.calls", "count", "lower"),
    ("core.ambiguity.found_ratio", "ratio", "higher"),
    ("core.minweight.solve_s", "s", "lower"),
    ("core.minweight.calls", "count", "lower"),
    ("core.changes.enumerate_s", "s", "lower"),
    ("core.changes.candidates", "count", "lower"),
    ("core.pruning.check_s", "s", "lower"),
    ("core.pruning.checks", "count", "lower"),
    ("core.pruning.verified_ratio", "ratio", "higher"),
    ("gf2.rowreduce.s", "s", "lower"),
    ("gf2.rowreduce.calls", "count", "lower"),
    ("streaming.push_p50_s", "s", "lower"),
    ("streaming.push_p99_s", "s", "lower"),
    ("streaming.queue_wait_p99_s", "s", "lower"),
    ("streaming.commits", "count", "lower"),
    ("streaming.commit_s", "s", "lower"),
    ("streaming.revised_ratio", "ratio", "lower"),
    ("streaming.deadline_miss_ratio", "ratio", "lower"),
    *[(f"layer.{layer}.self_share", "ratio", "lower") for layer in LAYERS],
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# Bases of the ratios above, printed beside them.
RATIO_BASES = {
    "decoders.unique_ratio": "unique rows out / shot rows in, unique_shot_words",
    "decoders.syncache.inserts_per_shot": "syndrome-cache inserts / shots decoded",
    "sim.dem.extracts_per_iteration": "extract_dem calls / optimize iterations",
    "core.optimizer.dem_hit_ratio": (
        "build_dem requests without an extraction / requests"
    ),
    "core.ambiguity.found_ratio": "subgraphs found / find_ambiguous_subgraph calls",
    "core.pruning.verified_ratio": "verified candidates / check_candidate calls",
    "streaming.revised_ratio": "revised shot corrections / shots streamed (paced)",
    "streaming.deadline_miss_ratio": (
        "rounds past the arrival-period deadline / paced rounds"
    ),
    "layer.*.self_share": (
        "layer self time / self time of every span but the shot runner's "
        "prefetch wait (all threads, unattributed remainder included)"
    ),
}


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def layer_metrics(
    spans: list[Span], passes: int, stats: dict, overhead_s: float
) -> dict[str, float]:
    """Per-pass per-layer metrics from the traced passes' spans.

    ``stats`` sums the traced passes' own counters (optimize iterations,
    paced-stream rounds, misses, commits) plus the paced round latencies.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, set[str]] = defaultdict(set)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].add(s.name)

    def self_s(name: str) -> float:
        return sum(own[id(s)] for s in by_name[name])

    def info_sum(name: str, key: str) -> float:
        return sum((s.info or {}).get(key, 0) for s in by_name[name])

    def decode_s(kind: str) -> float:
        return sum(
            own[id(s)] for s in by_name["decoders.decode"] if s.info["kind"] == kind
        )

    def outermost(name: str) -> list[Span]:
        out = []
        for s in by_name[name]:
            p = s.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None:
                out.append(s)
        return out

    decodes = outermost("decoders.decode")
    decoded_shots = sum(s.info["shots"] for s in decodes)
    unique_rows = info_sum("gf2.kernels", "rows")
    find = by_name["core.ambiguity.find"]
    checks = by_name["core.pruning.check"]
    requests = by_name["core.optimizer.build_dem"]
    # Paced streams only: their round latencies pair with their pushes.
    push_s = [
        s.end - s.start
        for s in by_name["streaming.push"]
        if s.request and s.request.startswith("paced:")
    ]
    lat = stats.get("round_latencies_s", [])
    waits = [max(0.0, a - b) for a, b in zip(lat, push_s)]
    inserts = info_sum("decoders.syncache.insert", "inserted")
    roots = [s for s in spans if s.name == "bench.pass"]
    unattributed = sum(own[id(s)] for s in roots)

    m = {
        "sim.sampler.s": self_s("sim.sampler"),
        "sim.sampler.shots": info_sum("sim.sampler", "shots"),
        "experiments.shotrunner.self_s": self_s("experiments.shotrunner"),
        "gf2.kernels.s": self_s("gf2.kernels"),
        "gf2.kernels.calls": len(by_name["gf2.kernels"]),
        "decoders.unique_ratio": (
            info_sum("gf2.kernels", "unique") / unique_rows if unique_rows else 0.0
        ),
        "decoders.matching.decode_s": decode_s("matching"),
        "decoders.bposd.decode_s": decode_s("bposd"),
        "decoders.calls": len(decodes),
        "decoders.syncache.lookups": info_sum("decoders.syncache.lookup", "lookups"),
        "decoders.syncache.hits": info_sum("decoders.syncache.lookup", "hits"),
        "decoders.syncache.inserts": inserts,
        "decoders.syncache.insert_s": self_s("decoders.syncache.insert"),
        "decoders.syncache.inserts_per_shot": (
            inserts / decoded_shots if decoded_shots else 0.0
        ),
        "rareevent.s": self_s("rareevent.estimate"),
        "rareevent.sample_s": self_s("rareevent.sample"),
        "rareevent.shots": info_sum("rareevent.estimate", "shots"),
        "experiments.campaign.job_s": self_s("experiments.campaign.job"),
        "experiments.campaign.compile_s": self_s("experiments.campaign.compile"),
        "experiments.store.put_s": self_s("experiments.store.put"),
        "experiments.store.puts": len(by_name["experiments.store.put"]),
        "circuits.build_s": self_s("circuits.build"),
        "circuits.build_calls": len(by_name["circuits.build"]),
        "noise.apply_s": self_s("noise.apply"),
        "sim.dem.extract_s": self_s("sim.dem.extract"),
        "sim.dem.extract_calls": len(by_name["sim.dem.extract"]),
        "sim.dem.extracts_per_iteration": (
            len(by_name["sim.dem.extract"]) / stats["iterations"]
            if stats.get("iterations")
            else 0.0
        ),
        "codes.distance.isd_s": self_s("codes.distance.isd"),
        "codes.distance.isd_calls": len(by_name["codes.distance.isd"]),
        "core.optimizer.dem_requests": len(requests),
        "core.optimizer.dem_hit_ratio": (
            sum("sim.dem.extract" not in children[id(s)] for s in requests)
            / len(requests)
            if requests
            else 0.0
        ),
        "core.ambiguity.find_s": self_s("core.ambiguity.find"),
        "core.ambiguity.calls": len(find),
        "core.ambiguity.found_ratio": (
            sum(s.info["found"] for s in find) / len(find) if find else 0.0
        ),
        "core.minweight.solve_s": self_s("core.minweight.solve"),
        "core.minweight.calls": len(by_name["core.minweight.solve"]),
        "core.changes.enumerate_s": self_s("core.changes.enumerate"),
        "core.changes.candidates": info_sum("core.changes.enumerate", "candidates"),
        "core.pruning.check_s": self_s("core.pruning.check"),
        "core.pruning.checks": len(checks),
        "core.pruning.verified_ratio": (
            sum(s.info["verified"] for s in checks) / len(checks) if checks else 0.0
        ),
        "gf2.rowreduce.s": self_s("gf2.rowreduce"),
        "gf2.rowreduce.calls": len(by_name["gf2.rowreduce"]),
        "streaming.push_p50_s": _pct(push_s, 0.50),
        "streaming.push_p99_s": _pct(push_s, 0.99),
        "streaming.queue_wait_p99_s": _pct(waits, 0.99),
        "streaming.commits": stats.get("commits", 0),
        "streaming.commit_s": info_sum("streaming.push", "commit_s")
        + self_s("streaming.finish"),
        "streaming.revised_ratio": (
            stats["revised_shots"] / stats["paced_shots"]
            if stats.get("paced_shots")
            else 0.0
        ),
        "streaming.deadline_miss_ratio": (
            stats["deadline_misses"] / stats["paced_rounds"]
            if stats.get("paced_rounds")
            else 0.0
        ),
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
    }
    # The shot runner's own time is the main thread waiting for the
    # prefetched batch (reported above), not busy time of any layer.
    busy = [s for s in spans if s.name != "experiments.shotrunner"]
    total = sum(own[id(s)] for s in busy)
    for layer in LAYERS:
        share = sum(own[id(s)] for s in busy if s.name.split(".")[0] == layer)
        m[f"layer.{layer}.self_share"] = share / total if total else 0.0
    per_pass = {
        k: v / passes
        for k, v in m.items()
        if not any(
            tag in k for tag in ("ratio", "share", "_p50", "_p99", "per_", "overhead")
        )
    }
    m.update(per_pass)
    return m


def largest_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_share"])

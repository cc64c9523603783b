"""Benchmark regression gate for CI.

Compares a pytest-benchmark JSON run against the checked-in baseline
(``benchmarks/baseline.json``) and fails when any shared benchmark's
min time regressed by more than ``--max-regression`` (default 30%).

Usage::

    # gate a run (exits 1 on regression)
    python benchmarks/check_regression.py bench.json benchmarks/baseline.json

    # refresh the baseline from a run (after an intentional change)
    python benchmarks/check_regression.py bench.json benchmarks/baseline.json --update

The baseline stores per-benchmark min times from a reference machine, so
it must be refreshed from the same runner class CI uses (``--update``).
For intentional perf changes, either refresh the baseline in the same PR
or apply the ``bench-override`` label, which skips the gate for that PR
(see .github/workflows/ci.yml).  A benchmark new in the run is
reported but never fails the gate, so adding one needs no baseline
edit.  A baseline entry missing from the run *does* fail it — a rename
or deletion must not silently drop a benchmark out of the gate; retire
it deliberately by refreshing the baseline with ``--update``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_min_times(path: Path) -> dict[str, float]:
    """Map benchmark name -> min seconds, from either file format.

    Keys starting with ``_`` (e.g. the baseline's ``_meta`` provenance
    block) are metadata, not benchmarks.

    Besides each benchmark's min wall time, any numeric ``extra_info``
    entry whose key ends in ``_s`` is ingested as a pseudo-benchmark
    named ``<fullname>::<key>`` — how the streaming benches put their
    per-round latency quantiles (p50/p99) under the same regression
    rule as plain timings.
    """
    data = json.loads(path.read_text())
    if "benchmarks" in data:  # raw pytest-benchmark output
        times: dict[str, float] = {}
        for bench in data["benchmarks"]:
            times[bench["fullname"]] = float(bench["stats"]["min"])
            for key, value in (bench.get("extra_info") or {}).items():
                if (
                    key.endswith("_s")
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)
                ):
                    times[f"{bench['fullname']}::{key}"] = float(value)
        return times
    return {
        name: float(seconds)
        for name, seconds in data.items()
        if not name.startswith("_")
    }


def compare(
    current: dict[str, float], baseline: dict[str, float], max_regression: float
) -> list[str]:
    """Failure messages: shared benchmarks over the limit, and baseline
    entries the run no longer produces."""
    failures = []
    for name in sorted(set(current) & set(baseline)):
        base = baseline[name]
        now = current[name]
        if base <= 0:
            continue
        change = (now - base) / base
        marker = "FAIL" if change > max_regression else "ok"
        print(
            f"  [{marker}] {name}: {base * 1e3:.2f} ms -> {now * 1e3:.2f} ms "
            f"({change:+.1%})"
        )
        if change > max_regression:
            failures.append(
                f"{name} regressed {change:+.1%} "
                f"(limit {max_regression:+.1%})"
            )
    for name in sorted(set(current) - set(baseline)):
        print(f"  [new] {name}: {current[name] * 1e3:.2f} ms (not in baseline)")
    for name in sorted(set(baseline) - set(current)):
        print(f"  [missing] {name}: in baseline but not in this run")
        failures.append(
            f"{name} is in the baseline but missing from this run "
            "(retire it via --update)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=Path, help="pytest-benchmark JSON of this run")
    parser.add_argument("baseline", type=Path, help="checked-in baseline JSON")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="maximum allowed fractional min-time increase (default 0.30)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current run instead of gating",
    )
    args = parser.parse_args(argv)

    current = load_min_times(args.current)
    if args.update:
        payload: dict[str, object] = {
            "_meta": {
                "note": "min seconds per benchmark; refresh from the CI "
                "runner class the gate compares against (bench-results "
                "artifact), not a dev machine",
            }
        }
        payload.update(dict(sorted(current.items())))
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline updated with {len(current)} benchmarks -> {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update to create one")
        return 1
    baseline = load_min_times(args.baseline)
    print(f"comparing {len(current)} benchmarks against {args.baseline}:")
    failures = compare(current, baseline, args.max_regression)
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nIf this change is intentional, refresh benchmarks/baseline.json "
            "(--update) or apply the 'bench-override' PR label."
        )
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload analyst-session --seed 2009 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer metrics.
Every metric named in ``BENCHMARK.json`` for the mode is printed by name
with its unit and direction, then the run's provenance, and finally one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.  The run
record (provenance, request counts, failures by kind, sample counts) is
also written to ``.repobench/results/`` and, for traced runs, the spans to
``.repobench/traces/``.

Exits with status 2, printing no result, when the checkout does not hold
the program's sources.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys

import harness

#: Workload name -> the module in this directory that runs it.
WORKLOADS = {
    "analyst-session": "analyst_session",
    "hot-reads": "hot_reads",
    "registry-scale": "registry_scale",
    "cascade-budget": "cascade_budget",
}


def _module(workload: str):
    return importlib.import_module(WORKLOADS[workload])


def metrics_for(outcome: harness.Outcome, trace: bool) -> dict[str, float]:
    """The metric set ``BENCHMARK.json`` names for this mode."""
    if not trace:
        latency, _ = harness.latency_metrics(outcome.traffic)
        return {
            "setup_s": statistics.median(outcome.setup_seconds),
            **latency,
            "server_rss_mb": outcome.rss_mb,
            "f1": outcome.f1,
        }
    import probes

    spec = harness.load_spec()
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    return probes.per_layer_metrics(
        list(units), units, outcome.spans, outcome.traffic,
        outcome.server_delta, outcome.layer,
    )


def execute(workload: str, seed: int, seconds: float, trace: bool, **options) -> None:
    """Run one workload and print its result (the self-check calls this)."""
    speed_before = harness.host_speed_ms()
    outcome = _module(workload).run(seed, seconds, trace, **options)
    _, counts = harness.latency_metrics(outcome.traffic)
    details = {
        "host_speed_ms": [speed_before, harness.host_speed_ms()],
        "setup_seconds": outcome.setup_seconds,
        "sample_counts": counts,
        "traffic_wall_seconds": outcome.traffic.wall_seconds,
        **outcome.details,
    }
    harness.print_result(
        workload, seed, trace, metrics_for(outcome, trace), outcome.traffic,
        details, outcome.spans,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        harness.require_program()
    except harness.ProgramMissing as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 2
    execute(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

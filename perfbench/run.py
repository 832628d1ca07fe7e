"""casca benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload sim-control --seed 1 --seconds 10 --trace 0

Workloads: sim-control, sim-ingest, live-mixed (see README.md). With
--trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it runs once untraced and once traced, reports the per-layer
metrics from the traced run and the tracing overhead (traced minus
untraced), and writes the spans to .bench_work/trace/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The program under test is the one in this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import common

WORKLOADS = ("sim-control", "sim-ingest", "live-mixed")

# JSON name -> unit, and the name each workload family gives the metric.
END_TO_END = {
    "ops_per_s": "1/s", "op_ms_p50": "ms", "run_s": "s", "api_ms_p50": "ms",
    "setup_s": "s", "stop_s": "s",
}
# Tails are printed, not put in the JSON line: on a shared 2-CPU machine a
# few stalls decide them, and over ten seeds their spread reached 0.19
# (p95) and 0.6 (p99), too close to or past the largest bound (0.25).
PRINTED_ONLY = {"op_ms_p95": "ms", "op_ms_p99": "ms", "api_ms_p95": "ms", "api_ms_p99": "ms"}
FAMILY_NAMES = {
    "sim": {"ops_per_s": ("steps_per_s", "steps/s"), "op_ms_p50": ("step_ms_p50", "ms"),
            "op_ms_p95": ("step_ms_p95", "ms"), "op_ms_p99": ("step_ms_p99", "ms"),
            "run_s": ("run_s", "s")},
    "live": {"ops_per_s": ("ingest_pts_per_s", "points/s"),
             "op_ms_p50": ("visible_ms_p50", "ms"), "op_ms_p95": ("visible_ms_p95", "ms"),
             "op_ms_p99": ("visible_ms_p99", "ms"), "run_s": ("flood_round_s", "s")},
}
# Per-layer metrics in the JSON line: the ones every workload exercises
# and the ones the open optimisations (HTTP client, transport, counters)
# act on. The traced run prints all of spans.LAYER_UNITS.
PER_LAYER = (
    "clients.calls", "clients.errors", "clients.set_value_us",
    "webutil.handler_us", "webutil.overhead_us",
    "service_api.controller_rtt_us", "mock_service.set_us", "mock_service.tick_us",
    "bus.publish_us", "bus.published", "bus.delivered",
    "hook.handle_us", "hook.written", "hook.dropped",
    "store.write_us", "store.query_us", "store.queries", "store.points", "store.series",
)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    if workload == "live-mixed":
        import live
        return live.run(seed, seconds, trace, tiny)
    import simrun
    return simrun.run(workload, seed, seconds, trace, tiny)


def report(workload: str, seed: int, trace: bool, result: dict) -> dict:
    """Prints the human-readable report and returns the JSON result line."""
    family = "live" if workload == "live-mixed" else "sim"
    checks = result.get("checks", [])
    attempted = result["calls"][0] + len(checks)
    failed = result["calls"][1] + sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        print(f"check  {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    for note in result.get("notes", []):
        print(f"check  FAIL {note}")
    print(f"error_rate  {failed / attempted:.6g} ratio  (failed {failed} / attempted {attempted}"
          " operations: gateway calls, published points and output checks)")

    metrics: dict = {}
    missing = []
    if not trace:
        e2e = result["e2e"]
        print(f"end-to-end  workload={workload} seed={seed}  (at reference speed, then as"
              " measured; see common.Speed)")
        for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
            raw, value, n = e2e[name]
            alias, shown_unit = FAMILY_NAMES[family].get(name, (name, unit))
            print(f"  {alias:<18} {_fmt(value):>12} {shown_unit:<9} n={n}   [{name}]"
                  f"  measured {_fmt(raw)}")
            if name in PRINTED_ONLY:
                continue
            if value is None:
                missing.append(name)
            metrics[name] = {"value": value if value is not None else 0.0, "unit": unit}
        stops = result.get("stop_samples", [])
        if stops:
            q1, q2, q3 = common.quartiles(stops)
            print(f"  stop_s spread: min {_fmt(min(stops))} q1 {_fmt(q1)} median {_fmt(q2)}"
                  f" q3 {_fmt(q3)} max {_fmt(max(stops))} (n={len(stops)})")
    else:
        import spans

        layers = result["layers"]
        print(f"per-layer  workload={workload} seed={seed} (traced run)")
        for name, unit in spans.LAYER_UNITS.items():
            value, n = layers[name]
            print(f"  {name:<30} {_fmt(value):>12} {unit:<6} n={n}")
        for name in PER_LAYER:
            value, _ = layers[name]
            if value is None:
                missing.append(name)
            metrics[name] = {"value": value if value is not None else 0,
                             "unit": spans.LAYER_UNITS[name]}
        print("layers with spans: " + ", ".join(sorted(result["layers_seen"])))
        if result.get("missing_targets"):
            print("not instrumented (moved or removed): " + ", ".join(result["missing_targets"]))
        for name, (traced, untraced) in result["overhead"].items():
            if traced is not None and untraced:
                print(f"tracing overhead  {name}: traced {_fmt(traced)} untraced {_fmt(untraced)}"
                      f" ({100.0 * (traced - untraced) / untraced:+.1f}% of untraced)")
        path = common.WORK / "trace" / f"{workload}-seed{seed}.npz"
        path.parent.mkdir(parents=True, exist_ok=True)
        spans.save(result["table"], path)
        print(f"spans: {len(result['table']['sid'])} written to {path.relative_to(common.ROOT)}")
    for name in missing:
        print(f"check  FAIL metric {name} has no samples")
    return {"correct": failed == 0 and not missing, "attempted": attempted,
            "failed": failed + len(missing), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time; a sim run is never cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's self-check")
    args = parser.parse_args(argv)
    try:
        common.use_checkout_sources()
    except common.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(common.environment_record(), sort_keys=True))
    t0 = time.perf_counter()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    line = report(args.workload, args.seed, bool(args.trace), result)
    print(f"wall_s {time.perf_counter() - t0:.3f}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

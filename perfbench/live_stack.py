"""Child process of the live-mixed workload: one live-mode casca stack.

Run as `python3 perfbench/live_stack.py SCENARIO CYCLES [SPANS]`. It boots
and stops the stack CYCLES times (set-up and stop samples), boots it once
more, starts the hooks and reporters, and prints one JSON line with the
addresses. The stack then serves until a line arrives on stdin; the child
stops the stack, writes its spans to SPANS when given, and prints a last
JSON line with its own measurements. The stack lives in its own process
so the load generator does not share its interpreter lock.
"""

from __future__ import annotations

import json
import sys
import time

import common


def main(argv: list[str]) -> int:
    scenario_path, cycles = argv[0], int(argv[1])
    spans_path = argv[2] if len(argv) > 2 else None
    common.use_checkout_sources()
    from casca.orchestrator import Stack, load_scenario

    cfg = load_scenario(scenario_path)
    speed = common.Speed()
    boots, stops = common.stack_cycles(cfg, cycles, speed)
    tracer = None
    if spans_path:
        import spans

        # Span ids of this process must not collide with the parent's.
        tracer = spans.Tracer(id_base=1 << 40)
        tracer.instrument()
    stack = Stack(cfg)
    speed.sample()
    t0 = time.perf_counter()
    stack.boot()
    boots.append(time.perf_counter() - t0)
    try:
        stack.start_live_tasks()
        print(json.dumps({"bus": stack.bus_server.address, "api": stack.api.address,
                          "control": stack.control.address}), flush=True)
        sys.stdin.readline()
        points = stack.store.count()
        series = len({(p.measurement, tuple(sorted(p.tags.items())))
                      for p in stack.store.points()}) if tracer else 0
    finally:
        t0 = time.perf_counter()
        stack.stop()
        final_stop = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        spans.save(tracer.columns(), spans_path)
    print(json.dumps({"setup": boots, "stop": stops, "final_stop_s": final_stop,
                      "speed": speed.factor(),
                      "store_points": points, "store_series": series}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

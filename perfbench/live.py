"""The live-mixed workload: a live-mode stack under open-loop ingest.

The stack (TCP bus, hook threads, store, gateway, carbon service, mock
service with its reporters) runs in a child process. This process runs
the load in two threads:

* for `--seconds`, an open-loop publisher sends probe points over
  `BusClient` at RATE points/s; each point's value is its sequence
  number, and its time is measured from when it was due, not sent;
* one closed-loop gateway client starts a round about every POLL_S (a
  seeded jitter of ±50% keeps it off the publisher's beat): it
  polls the `last(...)` SLO over the probe points, which gives each
  point's visibility time (to the first answer that holds it), then makes
  one more call, in turn a setting PUT and GET through the gateway and a
  direct controller GET, or, once a second, POST /reconfigure.

Then FLOOD_ROUNDS flood rounds each send FLOOD_POINTS points as fast as
the child takes them, followed by a marker point on the same connection;
the time until the marker is queryable gives the ingest throughput.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time

import common
import scenarios
from common import median, percentile

RATE = 250                # steady-phase points per second
FLOOD_POINTS = 15000
FLOOD_ROUNDS = 7
SETUP_CYCLES = 5
VISIBLE_TIMEOUT_S = 10.0
MARK_POLL_S = 0.01
# The gateway client starts a round about every POLL_S, which keeps both
# processes below saturation on a small machine.
POLL_S = 0.008
CHILD_TIMEOUT_S = 150.0


class Child:
    """The stack's process; killed by a watchdog if it hangs."""

    def __init__(self, scenario: str, cycles: int, spans_path: str | None):
        cmd = [sys.executable, str(common.HERE / "live_stack.py"), scenario, str(cycles)]
        if spans_path:
            cmd.append(spans_path)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=str(common.ROOT))
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def line(self) -> dict:
        text = self.proc.stdout.readline()
        if not text:
            raise RuntimeError(f"live stack exited early (code {self.proc.poll()})")
        return json.loads(text)

    def finish(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        result = self.line()
        self.proc.wait(timeout=30)
        return result

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._watchdog.cancel()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Calls:
    """Counts and times the client's operations; failures are kept, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, samples: list | None, fn, *args):
        from casca.errors import CascaError

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except CascaError as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return False, None
        if samples is not None:
            samples.append((t0, time.perf_counter() - t0))
        return True, result

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _wait_for_mark(api, calls: Calls, at_least: int, timeout: float,
                   speed: common.Speed | None = None) -> float | None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        ok, got = calls(None, api.slo_value, scenarios.FLOOD_MARK)
        if ok and got is not None and got["value"] >= at_least:
            return time.perf_counter()
        if speed is not None:
            speed.sample()
        time.sleep(MARK_POLL_S)
    return None


def _steady(bus, api, direct, calls: Calls, n_points: int, speed: common.Speed,
            seed: int) -> dict:
    from casca.bus import Envelope

    due = [0.0] * n_points
    late = [0.0] * n_points
    seen = [0.0] * n_points
    published = [0]
    t_wall, t_perf = time.time(), time.perf_counter()
    start = t_perf + 0.05
    # Point times are due times on the wall clock, one ms early so that a
    # point is never ahead of the gateway's clock.
    start_ms = int((t_wall + 0.05) * 1000) - 1

    def publish_all():
        for n in range(n_points):
            due[n] = start + n / RATE
            wait = due[n] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late[n] = time.perf_counter() - due[n]
            bus.publish(Envelope("probe/live", {"seq": n}, start_ms + (n * 1000) // RATE))
            published[0] = n + 1

    generator = threading.Thread(target=publish_all, name="bench-generator")
    generator.start()
    api_samples: list[float] = []
    direct_samples: list[float] = []
    reconfigure: list[float] = []
    visible = -1
    backlog = 0
    rounds = 0
    value = None
    last_reconfigure = time.perf_counter()
    deadline = None
    next_round = time.perf_counter()
    jitter = random.Random(seed)
    try:
        while visible < n_points - 1:
            wait = next_round - time.perf_counter()
            if rounds % 4 == 0 and wait > 4 * common.CAL_REF_S:
                # The machine's speed, sampled in time the client would sleep.
                speed.sample()
                wait = next_round - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            # Round starts are jittered so they do not lock onto the
            # publisher's fixed schedule.
            next_round = max(next_round + POLL_S * (0.5 + jitter.random()), time.perf_counter())
            ok, got = calls(api_samples, api.slo_value, scenarios.PROBE_LAST)
            now = time.perf_counter()
            if ok and got is not None:
                while visible < int(got["value"]):
                    visible += 1
                    seen[visible] = now
            backlog = max(backlog, published[0] - (visible + 1))
            if not generator.is_alive():
                deadline = deadline or now + VISIBLE_TIMEOUT_S
                if now > deadline:
                    break
            # Every round is one poll and one other call, so every point
            # waits on the same round shape.
            if now - last_reconfigure >= 1.0:
                ok, res = calls(reconfigure, api.reconfigure)
                calls.expect(not ok or bool(res.get("ok")), "reconfigure did not report ok")
                last_reconfigure = now
            elif rounds % 3 == 0:
                value = (rounds // 3) % 17
                ok, applied = calls(api_samples, api.set_value, scenarios.PARAM_ALIAS, value)
                calls.expect(not ok or applied == value, f"PUT returned {applied}, sent {value}")
            elif rounds % 3 == 1:
                ok, read = calls(api_samples, api.get_value, scenarios.PARAM_ALIAS)
                calls.expect(not ok or read == value, f"GET returned {read}, set {value}")
            else:
                ok, read = calls(direct_samples, direct.get, scenarios.INTERNAL_PARAM)
                calls.expect(not ok or read == value, f"controller returned {read}, set {value}")
            rounds += 1
    finally:
        generator.join()
    missing = n_points - (visible + 1)
    calls.attempted += n_points
    calls.failed += missing
    if missing:
        calls.errors.append(f"{missing} of {n_points} probe points never became visible")
    ok, got = calls(None, api.slo_value, scenarios.PROBE_COUNT)
    held = int(got["value"]) if ok and got else 0
    calls.expect(held == n_points, f"store holds {held} of {n_points} probe points")
    return {
        "visible": [(seen[n], seen[n] - due[n]) for n in range(visible + 1)],
        "late": late, "api": api_samples, "direct": direct_samples,
        "reconfigure": reconfigure, "backlog_max": backlog,
    }


def _flood(bus_address: str, api, calls: Calls, rounds: int, points: int,
           speed: common.Speed) -> list[tuple[float, float]]:
    """(start, seconds) of every round that completed.

    A round's points are encoded before its clock starts and go out in one
    write on a publisher connection of their own, so the time is the
    stack's, not this process's; the round's marker follows on the same
    connection, which the stack reads in order.
    """
    import socket

    from casca.bus import Envelope, encode_envelope, parse_addr

    times = []
    # Distinct past times, one ms apart, keep every flood point its own row.
    ts0 = int(time.time() * 1000) - rounds * points - 1000
    with socket.create_connection(parse_addr(bus_address), timeout=10) as sock:
        for r in range(rounds):
            base = r * points
            payload = b"".join(encode_envelope(Envelope("probe/flood", {"seq": n}, ts0 + n))
                               for n in range(base, base + points))
            t0 = time.perf_counter()
            sock.sendall(payload)
            sock.sendall(encode_envelope(
                Envelope("probe/mark", {"seq": r}, int(time.time() * 1000))))
            t1 = _wait_for_mark(api, calls, r, VISIBLE_TIMEOUT_S, speed)
            calls.expect(t1 is not None, f"flood round {r} not visible")
            if t1 is not None:
                times.append((t0, t1 - t0))
    ok, got = calls(None, api.slo_value, scenarios.FLOOD_COUNT)
    held = int(got["value"]) if ok and got else 0
    calls.attempted += rounds * points
    calls.failed += max(0, rounds * points - held)
    if held != rounds * points:
        calls.errors.append(f"store holds {held} of {rounds * points} flood points")
    return times


def session(scenario: str, seed: int, cycles: int, steady_s: float, rounds: int, points: int,
            spans_path: str | None) -> dict:
    from casca.bus import BusClient, Envelope
    from casca.clients import ServiceApiClient
    from casca.service_api import MockServiceControllerClient

    calls = Calls()
    speed = common.Speed()
    child = Child(scenario, cycles, spans_path)
    switch = sys.getswitchinterval()
    # A short switch interval keeps the publisher on schedule while the
    # gateway client thread runs in the same interpreter.
    sys.setswitchinterval(0.0005)
    try:
        addr = child.line()
        bus = BusClient(addr["bus"])
        api = ServiceApiClient(addr["api"])
        direct = MockServiceControllerClient(addr["control"])
        try:
            # The hooks subscribe after boot; wait until the probe hook is
            # live before any timed point is sent.
            deadline = time.perf_counter() + VISIBLE_TIMEOUT_S
            while True:
                bus.publish(Envelope("probe/mark", {"seq": -1}, int(time.time() * 1000)))
                if _wait_for_mark(api, Calls(), -1, 0.1) is not None:
                    break
                if time.perf_counter() > deadline:
                    raise RuntimeError("probe hook never subscribed")
            steady = _steady(bus, api, direct, calls, int(RATE * steady_s), speed, seed)
            flood = _flood(addr["bus"], api, calls, rounds, points, speed)
        finally:
            bus.close()
            api.close()
            direct.close()
        final = child.finish()
    finally:
        sys.setswitchinterval(switch)
        child.close()
    return {"steady": steady, "flood": flood, "child": final, "calls": calls,
            "points": points, "speed": speed}


def _e2e(s: dict) -> dict:
    """End-to-end metrics as (raw, at reference speed, sample count)."""
    steady, flood, child = s["steady"], s["flood"], s["child"]
    speed = s["speed"]
    raw = [d for _, d in flood]
    scaled = [speed.scaled_span(t0, t0 + d) for t0, d in flood]
    boots, stops = child["setup"], child["stop"]
    none = (None, None, 0)
    out = {
        "ops_per_s": (s["points"] / median(raw), s["points"] / median(scaled), len(raw))
        if raw else none,
        "run_s": (median(raw), median(scaled), len(raw)) if raw else none,
        "setup_s": (median(boots), median(boots) / child["speed"], len(boots)),
        "stop_s": (median(stops), median(stops), len(stops)) if stops else none,
    }
    # Half of a visibility time is the client's wait for its next round,
    # a timer, so it is reported as measured.
    out.update(common.timing_summary("op_ms", steady["visible"], None))
    out.update(common.timing_summary("api_ms", steady["api"], speed))
    return out


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    work = common.fresh_dir(f"live-mixed-{seed}")
    try:
        scenario = scenarios.write_live(seed, work)
        steady_s = 1.0 if tiny else seconds
        rounds, points = (1, 1000) if tiny else (FLOOD_ROUNDS, FLOOD_POINTS)
        result: dict = {}
        if not trace:
            s = session(scenario, seed, 1 if tiny else SETUP_CYCLES, steady_s, rounds, points, None)
            result["e2e"] = _e2e(s)
            result["stop_samples"] = s["child"]["stop"]
            sessions = [s]
        else:
            import spans

            base = session(scenario, seed, 0, steady_s, rounds, points, None)
            child_spans = str(work / "child_spans.npz")
            tracer = spans.Tracer()
            tracer.instrument()
            try:
                traced = session(scenario, seed, 0, steady_s, rounds, points, child_spans)
            finally:
                tracer.uninstall()
            table = spans.merge(tracer.columns(), spans.load(child_spans))
            analysis = spans.Analysis(table)
            child = traced["child"]
            late = traced["steady"]["late"]
            extra = {
                "store.points": (child["store_points"], child["store_points"]),
                "store.series": (child["store_series"], child["store_series"]),
                "gen.late_ms": (percentile(late, 0.99) * 1e3, len(late)),
                "gen.backlog_max": (traced["steady"]["backlog_max"], len(late)),
            }
            result["layers"] = spans.layer_metrics(analysis, extra)
            result["layers_seen"] = spans.layers_seen(analysis)
            result["missing_targets"] = tracer.missing
            result["overhead"] = {k: (_e2e(traced)[k][1], _e2e(base)[k][1])
                                  for k in ("op_ms_p50", "api_ms_p50", "ops_per_s")}
            result["table"] = table
            sessions = [base, traced]
        attempted = sum(s["calls"].attempted for s in sessions)
        failed = sum(s["calls"].failed for s in sessions)
        result["calls"] = (attempted, failed)
        # Every check of this workload is already counted in `calls`.
        result["checks"] = []
        result["notes"] = [e for s in sessions for e in s["calls"].errors[:20]]
        return result
    finally:
        common.clear_dir(work)

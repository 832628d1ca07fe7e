"""Acceptance gate: twelve behavior criteria, one printed verdict each.

Every test here checks one promised property of the platform end to end
and prints a single PASS/FAIL line with the measured numbers, bypassing
output capture so the verdicts land in the terminal log. Tolerances are
pinned in the assertions, not tuned to runs.
"""

import itertools
import json
import math
import os
import random
import time

import pytest

from casca.bus import Broker, BusClient, BusServer, Envelope, topic_matches
from casca.clients import SloApiClient
from casca.clock import WallClock
from casca.decisions.gds import gds_decide
from casca.decisions.mdp import MdpState, carbon_footprint, reward
from casca.emma import SOURCES, LocationIndex, mix_intensity
from casca.hook import TelemetryHook, load_hook_config
from casca.mock_service import (ControlServer, MockService, WorkloadModel,
                                fps_model, power_model)
from casca.orchestrator import (load_scenario, measure_api_overhead,
                                measure_reconfiguration, read_steps_csv,
                                run_scenario)
from casca.service_api import MockServiceControllerClient, ServiceApi
from casca.store import TelemetryPoint, TimeSeriesStore

from conftest import NOISELESS_MODEL

# Results shared across criteria in one session (the learning criterion
# compares against the measured random baseline when available).
measured: dict = {}


def verdict(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def run_sim(platform, out_root, name, **overrides):
    cfg = load_scenario(platform.write_scenario(name, **overrides))
    return run_scenario(cfg, os.path.join(str(out_root), name.replace(".json", "")))


def fulfilling_thread_set() -> list:
    """Brute-force the steady-state thread counts that keep FPS in band."""
    model = WorkloadModel(**NOISELESS_MODEL)
    return [p for p in range(17) if 24.0 <= fps_model(p, 0.0, model) <= 30.0]


def test_a01_reward_matches_closed_form(capsys):
    worst = 0.0
    cases = 0
    for n in (1, 2, 3):
        for pattern in itertools.product((False, True), repeat=n):
            for c in (0.5, 1.0, 2.0, 10.0):
                slos = []
                for i, ok in enumerate(pattern):
                    lo, hi = 10.0 * (i + 1), 10.0 * (i + 1) + 5.0
                    value = lo + 2.5 if ok else hi + 4.0 + i
                    slos.append((lo, hi, value))
                got = reward(MdpState(params=(), slos=tuple(slos), carbon=c))
                f = sum(pattern)
                want = (f / c - 2.0 * (n - f)) / n
                worst = max(worst, abs(got - want))
                cases += 1
    rng = random.Random(424242)
    for _ in range(300):
        n = rng.randint(1, 3)
        c = rng.uniform(0.1, 50.0)
        slos, f = [], 0
        for _ in range(n):
            lo = rng.uniform(-100.0, 100.0)
            hi = lo + rng.uniform(0.5, 50.0)
            if rng.random() < 0.5:
                slos.append((lo, hi, rng.uniform(lo, hi)))
                f += 1
            else:
                slos.append((lo, hi, hi + rng.uniform(0.001, 10.0)))
        got = reward(MdpState(params=(), slos=tuple(slos), carbon=c))
        want = (f / c - 2.0 * (n - f)) / n
        worst = max(worst, abs(got - want))
        cases += 1
    verdict(capsys, "reward-closed-form",
            worst <= 1e-12,
            f"{cases} fulfilment/footprint combinations, worst |diff|={worst:.2e} (<=1e-12)")


def test_a02_greedy_rule_trace_table(capsys):
    # (s, s_min, s_max, p, p_min, p_max, delta, lam, intensity, expected)
    table = [
        (25.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 8.0),
        (31.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 7.0),
        (23.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 9.0),
        (31.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, -1, None, 9.0),
        (23.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, -1, None, 7.0),
        (31.0, 24.0, 30.0, 0.0, 0.0, 16.0, 1.0, 1, None, 0.0),
        (23.0, 24.0, 30.0, 16.0, 0.0, 16.0, 1.0, 1, None, 16.0),
        (23.0, 24.0, 30.0, 0.0, 0.0, 16.0, 1.0, -1, None, 0.0),
        (31.0, 24.0, 30.0, 16.0, 0.0, 16.0, 1.0, -1, None, 16.0),
        (40.0, 24.0, 30.0, 8.0, 0.0, 16.0, 2.5, 1, None, 5.5),
        (0.0, 24.0, 30.0, 8.0, 0.0, 16.0, 2.5, 1, None, 10.5),
        (30.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 8.0),
        (24.0, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 8.0),
        (30.0001, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 7.0),
        (23.9999, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 9.0),
        (0.5, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, 50.0, 8.0),
        (0.7, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, 50.0, 7.0),
        (0.7, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, None, 9.0),
        (0.4, 24.0, 30.0, 8.0, 0.0, 16.0, 1.0, 1, 50.0, 9.0),
        (17.0, 0.0, 4000.0, 9.0, 0.0, 16.0, 1.0, 1, 251.2, 8.0),
        (20.0, 0.0, 1000.0, 1.0, 0.0, 16.0, 2.0, 1, 100.0, 0.0),
        (31.0, 24.0, 30.0, 0.25, 0.0, 16.0, 0.5, 1, None, 0.0),
        (23.0, 24.0, 30.0, 3.0, 2.0, 6.0, 5.0, -1, None, 2.0),
        (35.0, 24.0, 30.0, 5.5, 0.0, 6.0, 1.0, -1, None, 6.0),
    ]
    failures = []
    for s, lo, hi, p, p_lo, p_hi, delta, lam, intensity, want in table:
        got = gds_decide(s, lo, hi, p, p_lo, p_hi, delta, lam, intensity)
        if got != want:
            failures.append((s, p, lam, delta, intensity, got, want))
    verdict(capsys, "greedy-rule-trace",
            not failures,
            f"{len(table)} hand-traced cases, {len(failures)} mismatches: {failures[:3]}")


def test_a03_greedy_loop_fulfils_slo(capsys, platform, tmp_path):
    t0 = time.perf_counter()
    clean = run_sim(platform, tmp_path, "a03_clean.json", seed=1,
                    warmup_steps=100, initial_threads=16,
                    decision={"system": "gds", "slo_id": "FPS",
                              "param_id": "EncodingThreadCount", "max_steps": 2000})
    noisy = run_sim(platform, tmp_path, "a03_noisy.json", seed=2,
                    warmup_steps=100, initial_threads=16,
                    model={"noise_fps": 0.5},
                    decision={"system": "gds", "slo_id": "FPS",
                              "param_id": "EncodingThreadCount", "max_steps": 2000})
    wall = time.perf_counter() - t0
    f_clean = clean["slos"]["FPS"]["fulfilment"]
    f_noisy = noisy["slos"]["FPS"]["fulfilment"]
    verdict(capsys, "greedy-loop-fulfilment",
            f_clean >= 0.95 and f_noisy >= 0.85 and wall < 300.0,
            f"2000 steps after 100 warm-up: noiseless={f_clean:.4f} (>=0.95), "
            f"fps-noise 0.5={f_noisy:.4f} (>=0.85), {wall:.1f}s wall")


def test_a04_random_baseline_matches_brute_force(capsys, platform, tmp_path):
    t0 = time.perf_counter()
    threads = fulfilling_thread_set()
    expected = len(threads) / 17.0
    report = run_sim(platform, tmp_path, "a04.json", seed=7, warmup_steps=0,
                     decision={"system": "rds", "param_id": "EncodingThreadCount",
                               "max_steps": 5000})
    wall = time.perf_counter() - t0
    got = report["slos"]["FPS"]["fulfilment"]
    measured["rds_fulfilment"] = got
    verdict(capsys, "random-baseline-rate",
            abs(got - expected) <= 0.03 and wall < 300.0,
            f"5000 uniform steps: fulfilment={got:.4f}, brute-force set "
            f"{threads} gives {expected:.4f} (+-0.03), {wall:.1f}s wall")


def test_a05_learning_improves_on_random(capsys, platform, tmp_path):
    t0 = time.perf_counter()
    cfg = load_scenario(platform.write_scenario(
        "a05.json", seed=3, warmup_steps=0, initial_threads=16,
        decision={"system": "rlds", "slo_id": "FPS",
                  "param_id": "EncodingThreadCount", "max_steps": 5000}))
    out_dir = str(tmp_path / "a05")
    run_scenario(cfg, out_dir)
    wall = time.perf_counter() - t0

    rows = read_steps_csv(os.path.join(out_dir, "steps.csv"))
    rewards = [float(r["row"]["reward"]) for r in rows if r["row"]["reward"] != ""]
    assert len(rewards) == 5000
    window = len(rewards) // 5
    first = sum(rewards[:window]) / window
    last = sum(rewards[-window:]) / window

    # Outcome of step k is the SLO reading logged with observation k+1.
    slo_values = [float(r["row"]["state5"]) for r in rows]
    tail = slo_values[-window:]
    fulfilment = sum(1 for v in tail if 24.0 <= v <= 30.0) / len(tail)
    baseline = measured.get("rds_fulfilment", len(fulfilling_thread_set()) / 17.0)

    verdict(capsys, "learning-direction",
            last > first and fulfilment >= baseline + 0.2 and wall < 900.0,
            f"5000 training steps: mean reward first/last 20% = {first:.3f}/{last:.3f}, "
            f"final-window fulfilment={fulfilment:.4f} vs random {baseline:.4f}+0.2, "
            f"{wall:.1f}s wall")


def test_a06_alias_map_is_invisible_to_decisions(capsys, platform, tmp_path):
    alias_path = platform.root / "blind_aliases.json"
    alias_path.write_text(json.dumps({
        "FPS": {"id": "ServiceSLO1", "description": "Primary service objective"},
        "power_w": {"id": "ServiceSLO2", "description": "Secondary service objective"},
        "EncodingThreadCount": {"id": "ServiceParam1",
                                "description": "Primary service parameter"},
    }))
    systems = [
        ("gds", 11, 30,
         {"system": "gds", "slo_id": "FPS", "param_id": "EncodingThreadCount"},
         {"system": "gds", "slo_id": "ServiceSLO1", "param_id": "ServiceParam1"}),
        ("rds", 12, 30,
         {"system": "rds", "param_id": "EncodingThreadCount"},
         {"system": "rds", "param_id": "ServiceParam1"}),
        ("rlds", 13, 20,
         {"system": "rlds", "slo_id": "FPS", "param_id": "EncodingThreadCount",
          "power_slo_id": "power_w"},
         {"system": "rlds", "slo_id": "ServiceSLO1", "param_id": "ServiceParam1",
          "power_slo_id": "ServiceSLO2"}),
    ]
    internal_names = ["FPS", "EncodingThreadCount", "power_w", "fps.value",
                      "apparent_w", "mean(", "frame rate", "power draw",
                      "worker threads"]
    problems = []
    for name, seed, steps, plain, blind in systems:
        run_sim(platform, tmp_path, f"a06_{name}_plain.json", seed=seed,
                warmup_steps=0, decision={**plain, "max_steps": steps})
        run_sim(platform, tmp_path, f"a06_{name}_blind.json", seed=seed,
                warmup_steps=0, aliases=str(alias_path), record_responses=True,
                decision={**blind, "max_steps": steps})
        plain_csv = open(tmp_path / f"a06_{name}_plain" / "steps.csv", "rb").read()
        blind_csv = open(tmp_path / f"a06_{name}_blind" / "steps.csv", "rb").read()
        if plain_csv != blind_csv:
            problems.append(f"{name}: trajectories differ")
        recorded = open(tmp_path / f"a06_{name}_blind" / "responses.jsonl").read()
        leaked = [s for s in internal_names if s in recorded]
        if leaked:
            problems.append(f"{name}: leaked {leaked}")
    verdict(capsys, "alias-blindness",
            not problems,
            "3 systems, aliased vs plain: identical step logs, "
            f"no internal names in recorded responses; problems={problems or 'none'}")


def test_a07_reconfiguration_is_fast_with_rollback(capsys, platform):
    cfg = load_scenario(platform.write_scenario("a07.json"))
    t0 = time.perf_counter()
    result = measure_reconfiguration(cfg, edits=10)
    wall = time.perf_counter() - t0
    times = [s["ms"] for s in result["samples"]]
    verdict(capsys, "hot-reconfiguration",
            len(times) == 10 and max(times) < 2000.0 and result["rollback_ok"]
            and wall < 60.0,
            f"10 add/rename/remove edits in one process: max={max(times):.1f}ms "
            f"(<2000), mean={result['mean']:.1f}ms, invalid edit rolled back="
            f"{result['rollback_ok']}")


def test_a08_telemetry_is_queryable_within_a_second(capsys, tmp_path):
    slos_path = tmp_path / "probe_slos.json"
    slos_path.write_text(json.dumps({
        "slos": [{"id": "probe", "description": "latest probe value",
                  "query": "last(fps.value, 600s)", "unit": "", "min": 0,
                  "max": 1e12}],
        "settings": [{"id": "EncodingThreadCount", "description": "threads",
                      "type": "integer", "min": 0, "max": 16}],
    }))
    hook_path = tmp_path / "hook.json"
    clock = WallClock()
    broker = Broker()
    bus_server = BusServer(broker)
    hook_path.write_text(json.dumps({
        "bus": bus_server.address, "topic": "fps/+", "measurement": "fps",
        "fields": {"/fps": "value"},
    }))
    store = TimeSeriesStore()
    hook = TelemetryHook(load_hook_config(str(hook_path)), store)
    hook.start()
    mock = MockService(WorkloadModel(), clock=clock)
    control = ControlServer(mock)
    api = ServiceApi(str(slos_path), MockServiceControllerClient(control.address),
                     store, clock=clock)
    publisher = BusClient(bus_server.address)
    slo_api = SloApiClient(api.address)

    def publish_and_wait(value: float, timeout: float) -> float:
        t0 = time.perf_counter()
        publisher.publish(Envelope("fps/c1", {"fps": value}, clock.now_ms()))
        while True:
            got = slo_api.slo_value("probe")
            if got is not None and got["value"] == value:
                return time.perf_counter() - t0
            if time.perf_counter() - t0 > timeout:
                raise AssertionError(f"value {value} not visible after {timeout}s")

    try:
        publish_and_wait(1.0, 10.0)   # subscription warm-up, untimed
        latencies = [publish_and_wait(100.0 + i, 5.0) for i in range(100)]
    finally:
        publisher.close()
        api.stop()
        control.stop()
        hook.stop()
        bus_server.stop()
        store.close()
    p99 = sorted(latencies)[98]
    verdict(capsys, "pipeline-latency",
            p99 < 1.0,
            f"publish -> SLO-API visibility over 100 trials: p99={p99 * 1000:.1f}ms "
            f"(<1000), max={max(latencies) * 1000:.1f}ms")


def test_a09_gateway_overhead_is_bounded(capsys, platform):
    cfg = load_scenario(platform.write_scenario("a09.json"))
    t0 = time.perf_counter()
    result = measure_api_overhead(cfg, n=400)
    wall = time.perf_counter() - t0
    cats = result["categories"]
    means = {k: v["mean"] for k, v in cats.items()}
    ok = (result["total_samples"] == 1600
          and all(v["samples"] == 400 for v in cats.values())
          and means["casca_set"] < 250.0 and means["casca_get"] < 250.0
          and wall < 300.0)
    verdict(capsys, "gateway-overhead",
            ok,
            "1600 loopback round-trips, mean ms per category: "
            + ", ".join(f"{k}={v:.2f}" for k, v in sorted(means.items()))
            + " (gateway path <250)")


def test_a10_carbon_queries_are_exact(capsys):
    rng = random.Random(101)
    table = {source: rng.uniform(5.0, 900.0) for source in SOURCES}
    worst = 0.0
    for _ in range(1000):
        chosen = rng.sample(sorted(table), rng.randint(1, len(SOURCES)))
        weights = [rng.uniform(0.01, 1.0) for _ in chosen]
        total = sum(weights)
        shares = {s: w / total for s, w in zip(chosen, weights)}
        want = math.fsum(shares[s] * table[s] for s in chosen)
        got = mix_intensity(shares, table)
        worst = max(worst, abs(got - want) / abs(want))

    index = LocationIndex()
    records = []
    for _ in range(500):
        while True:
            country = rng.choice(["AT", "DE", "FR"])
            granularity = rng.choice(["hourly", "daily"])
            ts = rng.randrange(0, 10_000) * 1000
            if not any(r[:3] == (country, ts, granularity) for r in records):
                break
        value = rng.uniform(10.0, 800.0)
        records.append((country, ts, granularity, value))
        index.add(country, ts, granularity, value)
    lookup_errors = 0
    for _ in range(500):
        country = rng.choice(["AT", "DE", "FR"])
        granularity = rng.choice(["hourly", "daily"])
        ts = rng.randrange(0, 10_000_000)
        eligible = [(r_ts, v) for c, r_ts, g, v in records
                    if c == country and g == granularity and r_ts <= ts]
        if eligible:
            want = max(eligible)[1]
            if index.lookup(country, ts, granularity) != want:
                lookup_errors += 1
        else:
            try:
                index.lookup(country, ts, granularity)
                lookup_errors += 1
            except Exception:
                pass
    verdict(capsys, "carbon-query-exactness",
            worst <= 1e-9 and lookup_errors == 0,
            f"1000 random mixes worst rel err={worst:.2e} (<=1e-9); 500-record "
            f"location index vs linear scan: {lookup_errors} mismatches")


def test_a11_carbon_footprint_anchor(capsys):
    got = carbon_footprint(17.286, 251.2)
    exact = 17.286 * 251.2 / 60.0
    ok = (abs(got - exact) <= 1e-9          # the unit-analysis value itself
          and abs(got - 72.377) <= 0.01     # magnitude of the reported figure
          and 72.35 <= got <= 72.381)       # two-decimal anchor band
    verdict(capsys, "carbon-unit-anchor",
            ok,
            f"17.286 W at 251.2 gCO2eq/kWh -> {got:.5f} mg/min "
            f"(unit analysis {exact:.5f}, reported magnitude 72.377)")


def _reference_match(pattern: str, topic: str) -> bool:
    def walk(p, t):
        if not p:
            return not t
        head, rest = p[0], p[1:]
        if head == "#":
            return True
        if not t:
            return False
        if head == "+" or head == t[0]:
            return walk(rest, t[1:])
        return False
    return walk(pattern.split("/"), topic.split("/"))


def test_a12_store_and_matcher_against_brute_force(capsys):
    rng = random.Random(515151)
    store = TimeSeriesStore()
    live = []
    # unique timestamps keep the last() reference unambiguous
    for ts in rng.sample(range(1, 50_000), 1000):
        measurement = rng.choice(["fps", "power"])
        field = rng.choice(["value", "watts"])
        tags = {} if rng.random() < 0.5 else {"host": rng.choice(["a", "b"])}
        value = round(rng.uniform(-50.0, 50.0), 6)
        store.write(TelemetryPoint(measurement, tags, {field: value}, ts))
        live.append((measurement, field, tags, ts, value))

    agg_errors = 0
    for _ in range(400):
        measurement = rng.choice(["fps", "power"])
        field = rng.choice(["value", "watts"])
        fn = rng.choice(["mean", "min", "max", "count", "last"])
        window = rng.randrange(1, 20)
        now = rng.randrange(1, 55_000)
        query = f"{fn}({measurement}.{field}, {window}s)"
        got = store.query(query, now)
        sel = [(ts, v) for m, f, _tags, ts, v in live
               if m == measurement and f == field and now - window * 1000 < ts <= now]
        if fn == "count":
            want = float(len(sel))
        elif not sel:
            want = None
        elif fn == "mean":
            want = sum(v for _, v in sel) / len(sel)
        elif fn == "min":
            want = min(v for _, v in sel)
        elif fn == "max":
            want = max(v for _, v in sel)
        else:
            want = max(sel)[1]
        if got is None or want is None:
            agg_errors += got is not want
        elif abs(got - want) > 1e-9:
            agg_errors += 1
    store.close()

    alphabet = ["a", "b", "c"]
    topics = ["/".join(parts) for k in range(1, 5)
              for parts in itertools.product(alphabet, repeat=k)]
    patterns = ["#"]
    for k in range(1, 5):
        for parts in itertools.product(alphabet + ["+"], repeat=k):
            patterns.append("/".join(parts))
            if k < 4:
                patterns.append("/".join(parts) + "/#")
    match_errors = sum(
        1 for p in patterns for t in topics
        if topic_matches(p, t) != _reference_match(p, t))
    checks = len(patterns) * len(topics)

    verdict(capsys, "randomized-reference-oracles",
            agg_errors == 0 and match_errors == 0,
            f"400 windowed aggregations on 1000 points: {agg_errors} mismatches; "
            f"{checks} pattern/topic pairs: {match_errors} mismatches")

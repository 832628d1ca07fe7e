"""The sim workloads: seeded sim-mode scenario runs through the real stack.

sim-control runs rlds behind the alias map: five gateway and carbon round
trips, a policy step and a PPO update every 64 steps per decision, and
only 120 telemetry points per step. sim-ingest runs rds with three fps
reporters at 0.75 s and a power reporter at 1 s, 150 points per 30 s
step, and one gateway call per step, so the bus, hook and store writes,
the dump and the report's replay and queries carry the run.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import common
import scenarios
from common import Patches, median, timing

SETUP_CYCLES = 5
CAL_EVERY = 2       # steps between two samples of the machine's speed
DIGESTS = common.HERE / "digests.json"


def _system_class(workload: str):
    if workload == "sim-control":
        from casca.decisions.rlds import RldsSystem
        return RldsSystem
    from casca.decisions.rds import RdsSystem
    return RdsSystem


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_once(workload: str, cfg, out_dir: Path, speed: common.Speed | None = None) -> dict:
    """One run_scenario with light timers on the step, gateway calls and
    the simulate phase (from the system's start() to its finish()).

    With `speed`, the machine's speed is sampled before every CAL_EVERY-th
    step, outside the step's timing; run_s and simulate_s exclude it.
    """
    from casca import orchestrator
    from casca.clients import ControlApiClient, SloApiClient
    from casca.orchestrator import Stack, run_scenario
    from casca.store import TimeSeriesStore

    system_cls = _system_class(workload)
    steps: list = []
    api: list = []
    phase: dict = {}
    sampled = [0.0]
    patches = Patches()

    def time_step(fn):
        def wrapper(*args, **kwargs):
            if speed is not None and len(steps) % CAL_EVERY == 0:
                sampled[0] += speed.sample()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                steps.append((t0, time.perf_counter() - t0))
        return wrapper
    patches.replace(system_cls, "step", time_step)
    for owner, attr in ((SloApiClient, "slo_value"), (SloApiClient, "get_slo"),
                        (ControlApiClient, "get_value"), (ControlApiClient, "set_value"),
                        (ControlApiClient, "get_setting")):
        patches.replace(owner, attr, timing(api))

    def mark_start(fn):
        def wrapper(*args, **kwargs):
            phase["start"], phase["sampled"] = time.perf_counter(), sampled[0]
            return fn(*args, **kwargs)
        return wrapper

    def mark_end(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                phase["end"] = time.perf_counter()
                phase["sampled"] = sampled[0] - phase["sampled"]
        return wrapper
    patches.replace(system_cls, "start", mark_start)
    patches.replace(system_cls, "finish", mark_end)
    stops: list = []
    patches.replace(Stack, "stop", timing(stops))
    if speed is not None:
        # Dump and report run between steps' samples; sample around them.
        def sampled_around(fn):
            def wrapper(*args, **kwargs):
                sampled[0] += speed.sample()
                try:
                    return fn(*args, **kwargs)
                finally:
                    sampled[0] += speed.sample()
            return wrapper
        patches.replace(TimeSeriesStore, "dump_jsonl", sampled_around)
        patches.replace(orchestrator, "compute_report", sampled_around)
    report, error = None, None
    t0 = time.perf_counter()
    try:
        report = run_scenario(cfg, str(out_dir))
    except Exception as exc:  # the run's own failure is a result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        patches.undo()
    run = {"report": report, "error": error, "run_s": t1 - t0 - sampled[0],
           "simulate_s": 0.0, "steps": steps, "api": api}
    if "end" in phase:
        run["simulate_s"] = phase["end"] - phase["start"] - phase["sampled"]
    if speed is not None and "end" in phase and stops:
        # At reference speed: the stack's stop waits on the servers' poll,
        # not on the CPU, and is left as measured.
        stop_t0, stop_s, _ = stops[-1]
        run["scaled_simulate_s"] = speed.scaled_span(phase["start"], phase["end"])
        run["scaled_run_s"] = (speed.scaled_span(t0, stop_t0) + stop_s
                               + speed.scaled_span(stop_t0 + stop_s, t1))
    return run


def expected_counts(cfg) -> tuple[int, int]:
    """(rows in steps.csv, points in telemetry.jsonl) of a complete run."""
    decision = cfg.decision
    rows = decision["max_steps"] + (1 if decision["system"] == "rlds" else 0)
    total_ms = rows * int(decision["tau_s"] * 1000)
    points = sum(total_ms // max(1, int(r["period_s"] * 1000)) for r in cfg.reporters)
    return rows, points


def check_outputs(workload: str, seed: int, cfg, out_dir: Path, run: dict, tiny: bool) -> list:
    """Output checks of one run as (name, ok, detail) triples."""
    from casca.emma import load_location_dataset
    from casca.orchestrator import compute_report, read_steps_csv
    from casca.service_api import apply_alias, parse_alias_map, parse_slos

    if run["report"] is None:
        return [("run completed", False, run["error"])]
    checks = [("run completed", True, "")]
    steps_csv, telemetry = out_dir / "steps.csv", out_dir / "telemetry.jsonl"
    rows = read_steps_csv(str(steps_csv))
    want_rows, want_points = expected_counts(cfg)
    checks.append(("steps.csv rows", len(rows) == want_rows, f"{len(rows)} of {want_rows}"))
    with open(telemetry, "rb") as fh:
        points = sum(1 for _ in fh)
    checks.append(("telemetry.jsonl points", points == want_points,
                   f"{points} of {want_points}"))

    with open(cfg.aliases_path, encoding="utf-8") as fh:
        aliases = parse_alias_map(json.load(fh))
    specs = apply_alias(parse_slos(cfg.slos_path), aliases)
    index = load_location_dataset(cfg.emma_locations)
    rerun = compute_report(
        [{"step": r["step"], "ts": r["ts"]} for r in rows], str(telemetry), specs,
        warmup_steps=cfg.warmup_steps, power_slo_id="power_w",
        intensity_fn=lambda ts: index.lookup(cfg.emma_country, ts, cfg.emma_granularity))
    in_run = {k: run["report"].get(k) for k in rerun}
    checks.append(("report rerun from dumped files", rerun == in_run,
                   "" if rerun == in_run else "differs from report.json"))

    digests = {"steps.csv": sha256(steps_csv), "telemetry.jsonl": sha256(telemetry)}
    run["digests"] = digests
    recorded = {} if tiny else recorded_digests().get(workload, {}).get(str(seed))
    if recorded:
        same = recorded == digests
        checks.append(("digests recorded for this seed", same,
                       "" if same else f"got {digests}"))
    return checks


def recorded_digests() -> dict:
    if not DIGESTS.is_file():
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def _summary(runs: list, speed: common.Speed) -> dict:
    """End-to-end metrics as (raw, at reference speed, sample count)."""
    ok_runs = [r for r in runs if r["report"] is not None and "scaled_run_s" in r]
    n = len(ok_runs)
    values = {"ops_per_s": (None, None, 0), "run_s": (None, None, 0)}
    if n:
        values["ops_per_s"] = (median([len(r["steps"]) / r["simulate_s"] for r in ok_runs]),
                               median([len(r["steps"]) / r["scaled_simulate_s"] for r in ok_runs]),
                               n)
        values["run_s"] = (median([r["run_s"] for r in ok_runs]),
                           median([r["scaled_run_s"] for r in ok_runs]), n)
    values.update(common.timing_summary(
        "op_ms", [s for r in runs for s in r["steps"]], speed))
    values.update(common.timing_summary(
        "api_ms", [(t, d) for r in runs for t, d, _ in r["api"]], speed))
    return values


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Measures one invocation. Returns "checks" as (name, ok, detail),
    "calls" as (attempted, failed) gateway calls, and either "e2e" or,
    traced, "layers" and "overhead", each metric as (value, samples)."""
    from casca.orchestrator import load_scenario

    work = common.fresh_dir(f"{workload}-{seed}")
    try:
        cfg = load_scenario(scenarios.write_sim(workload, seed, work, tiny))
        out_dir = work / "out"
        result = {"checks": []}
        calls = [0, 0]

        speed = common.Speed()

        def measured(tracer=None) -> dict:
            r = run_once(workload, cfg, out_dir, speed)
            if tracer is not None:
                tracer.uninstall()
            checks = check_outputs(workload, seed, cfg, out_dir, r, tiny)
            result["checks"].extend(checks)
            calls[0] += len(r["api"])
            calls[1] += sum(1 for _, _, ok in r["api"] if not ok)
            return r

        if not trace:
            boots, stops = common.stack_cycles(cfg, 1 if tiny else SETUP_CYCLES, speed)
            runs = []
            t_begin = time.perf_counter()
            while True:
                runs.append(measured())
                if tiny or time.perf_counter() - t_begin >= seconds:
                    break
            e2e = _summary(runs, speed)
            e2e["setup_s"] = (median(boots), median(boots) / speed.factor(), len(boots))
            e2e["stop_s"] = (median(stops), median(stops), len(stops))
            result["e2e"] = e2e
            result["stop_samples"] = stops
            digests = {json.dumps(r.get("digests"), sort_keys=True) for r in runs}
            if len(runs) > 1:
                result["checks"].append(("repeated runs byte-identical", len(digests) == 1, ""))
        else:
            import spans

            base = measured()
            tracer = spans.Tracer()
            tracer.instrument()
            traced = measured(tracer)
            same = base.get("digests") == traced.get("digests")
            result["checks"].append(("traced run byte-identical to untraced", same, ""))
            table = tracer.columns()
            analysis = spans.Analysis(table)
            store = _store_counts(out_dir / "telemetry.jsonl")
            result["layers"] = spans.layer_metrics(analysis, store)
            result["layers_seen"] = spans.layers_seen(analysis)
            result["missing_targets"] = tracer.missing
            result["overhead"] = {k: (_summary([traced], speed)[k][1],
                                      _summary([base], speed)[k][1])
                                  for k in ("run_s", "op_ms_p50", "api_ms_p50")}
            result["table"] = table
        result["calls"] = tuple(calls)
        return result
    finally:
        common.clear_dir(work)


def _store_counts(telemetry: Path) -> dict:
    """store.points and store.series of a run, read from its dump, which
    holds every point of the store once."""
    series = set()
    points = 0
    with open(telemetry, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            series.add((record["m"], tuple(sorted(record.get("tg", {}).items()))))
            points += 1
    return {"store.points": (points, points), "store.series": (len(series), len(series))}

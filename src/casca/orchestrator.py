"""Scenario runner: boots the whole stack and drives seeded runs.

A scenario JSON describes the workload model, reporters, hooks, SLO and
alias files, the carbon datasets and one decision system. Two modes:

* `sim` (default): one process, logical time. The scheduler owns a
  ManualClock and interleaves reporter ticks and decision steps on an
  event heap; bus delivery is synchronous, so runs are reproducible to
  the byte and take as little wall time as the HTTP round-trips cost.
* `live`: TCP bus, threaded hooks and reporters, and a wall or scaled
  clock; the decision loop really sleeps between steps.

Either way the HTTP services (gateway and carbon API) and the control
socket are real, so decision systems always act through the network.

Run directory: scenario.json, steps.csv, telemetry.jsonl, report.json,
and responses.jsonl when API responses are being recorded.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import math
import os
import shutil
import time
from dataclasses import dataclass, field

from .bus import Broker, BusClient, BusServer
from .clients import ResponseRecorder, ServiceApiClient
from .clock import ManualClock, ScaledClock, WallClock
from .decisions.base import DecisionSystem
from .decisions.gds import build_gds
from .decisions.mdp import carbon_footprint
from .decisions.rds import build_rds
from .decisions.rlds import build_rlds
from .emma import EmmaService, load_location_dataset
from .errors import ConfigError, ValidationError
from .hook import TelemetryHook, load_hook_config
from .mock_service import ControlServer, MockService, Reporter, make_reporter, model_from_dict
from .service_api import MockServiceControllerClient, ServiceApi
from .store import TimeSeriesStore, parse_query

log = logging.getLogger("casca.orchestrator")

DEFAULT_EPOCH_MS = 1751328000000   # 2025-07-01T00:00:00Z

_BUILDERS = {"rds": build_rds, "gds": build_gds, "rlds": build_rlds}


@dataclass
class ScenarioConfig:
    seed: int = 0
    mode: str = "sim"
    clock_multiplier: float = 60.0
    duration_s: float = 600.0
    epoch_ms: int = DEFAULT_EPOCH_MS
    model: dict = field(default_factory=dict)
    reporters: list = field(default_factory=list)
    hooks: list = field(default_factory=list)
    slos_path: str = ""
    aliases_path: str | None = None
    decision: dict | None = None
    emma_sources: str = ""
    emma_locations: str = ""
    emma_country: str = "AT"
    emma_granularity: str = "hourly"
    endpoints: dict = field(default_factory=dict)
    warmup_steps: int = 100
    initial_threads: int = 16
    record_responses: bool = False
    out_dir: str | None = None
    raw: dict = field(default_factory=dict)


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate a scenario file; referenced paths must exist now."""
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("scenario", f"{path!r} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigError("scenario", f"{path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("scenario", "must be a JSON object")

    cfg = ScenarioConfig(raw=raw)
    cfg.seed = int(raw.get("seed", 0))
    cfg.mode = raw.get("mode", "sim")
    if cfg.mode not in ("sim", "live"):
        raise ConfigError("mode", f"must be 'sim' or 'live', got {cfg.mode!r}")
    cfg.clock_multiplier = float(raw.get("clock_multiplier", 60.0))
    if cfg.clock_multiplier <= 0:
        raise ConfigError("clock_multiplier", "must be positive")
    cfg.duration_s = float(raw.get("duration_s", 600.0))
    if cfg.duration_s <= 0:
        raise ConfigError("duration_s", "must be positive")
    cfg.epoch_ms = int(raw.get("epoch_ms", DEFAULT_EPOCH_MS))
    cfg.model = dict(raw.get("model", {}))
    cfg.model.setdefault("seed", cfg.seed)
    model_from_dict(cfg.model)   # validate early
    cfg.reporters = raw.get("reporters") or [
        {"kind": "fps", "topic": "fps/c1", "period_s": 1.0},
        {"kind": "power", "topic": "power/plug/SENSOR", "period_s": 1.0},
    ]
    cfg.hooks = [resolve(p) for p in raw.get("hooks", [])]
    if not raw.get("slos"):
        raise ConfigError("slos", "scenario needs a 'slos' config path")
    cfg.slos_path = resolve(raw["slos"])
    cfg.aliases_path = resolve(raw["aliases"]) if raw.get("aliases") else None
    cfg.decision = raw.get("decision")
    if cfg.decision is not None and cfg.decision.get("system") not in _BUILDERS:
        raise ConfigError("decision", f"system must be one of {sorted(_BUILDERS)}")
    emma = raw.get("emma", {})
    if not emma.get("sources") or not emma.get("locations"):
        raise ConfigError("emma", "scenario needs emma.sources and emma.locations paths")
    cfg.emma_sources = resolve(emma["sources"])
    cfg.emma_locations = resolve(emma["locations"])
    cfg.emma_country = emma.get("country", "AT")
    cfg.emma_granularity = emma.get("granularity", "hourly")
    cfg.endpoints = raw.get("endpoints", {})
    cfg.warmup_steps = int(raw.get("warmup_steps", 100))
    cfg.initial_threads = int(raw.get("initial_threads", 16))
    cfg.record_responses = bool(raw.get("record_responses", False))
    cfg.out_dir = raw.get("out_dir")

    for p in [*cfg.hooks, cfg.slos_path, cfg.emma_sources, cfg.emma_locations] + (
            [cfg.aliases_path] if cfg.aliases_path else []):
        if not os.path.exists(p):
            raise ConfigError("paths", f"referenced file {p!r} does not exist")
    return cfg


class Stack:
    """All running components of one scenario, boots in dependency order."""

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = scenario
        self.clock = None
        self.broker: Broker | None = None
        self.bus_server: BusServer | None = None
        self.bus_clients: list[BusClient] = []
        self.store: TimeSeriesStore | None = None
        self.hooks: list[TelemetryHook] = []
        self.mock: MockService | None = None
        self.control: ControlServer | None = None
        self.controller: MockServiceControllerClient | None = None
        self.emma: EmmaService | None = None
        self.api: ServiceApi | None = None
        self.system: DecisionSystem | None = None
        self.reporters: list[Reporter] = []
        self.recorder: ResponseRecorder | None = None
        self._live_threads_started = False

    def boot(self) -> None:
        sc = self.scenario
        stage = "clock"
        try:
            if sc.mode == "sim":
                self.clock = ManualClock(sc.epoch_ms)
            elif sc.clock_multiplier == 1.0:
                self.clock = WallClock()
            else:
                self.clock = ScaledClock(sc.clock_multiplier, sc.epoch_ms)

            stage = "telemetry-bus"
            self.broker = Broker()
            if sc.mode == "live":
                self.bus_server = BusServer(self.broker,
                                            listen=sc.endpoints.get("bus", "127.0.0.1:0"))

            stage = "timeseries-store"
            self.store = TimeSeriesStore()

            stage = "telemetry-hook"
            for path in sc.hooks:
                hook = TelemetryHook(load_hook_config(path), self.store)
                if sc.mode == "sim":
                    hook.bind(self.broker)
                else:
                    hook.config = type(hook.config)(
                        **{**hook.config.__dict__, "bus_address": self.bus_server.address})
                self.hooks.append(hook)

            stage = "mock-workload"
            model = model_from_dict(sc.model)
            epoch = sc.epoch_ms if sc.mode == "sim" or sc.clock_multiplier != 1.0 else None
            self.mock = MockService(model, clock=self.clock, epoch_ms=epoch,
                                    initial_threads=sc.initial_threads)
            self.control = ControlServer(self.mock,
                                         listen=sc.endpoints.get("control", "127.0.0.1:0"))
            for rep in sc.reporters:
                if sc.mode == "sim":
                    publish = self.broker.publish
                else:
                    client = BusClient(self.bus_server.address)
                    self.bus_clients.append(client)
                    publish = client.publish
                self.reporters.append(make_reporter(
                    rep["kind"], self.mock, publish, rep["topic"],
                    float(rep.get("period_s", 1.0))))

            stage = "emma"
            self.emma = EmmaService(sc.emma_sources, sc.emma_locations,
                                    listen=sc.endpoints.get("emma", "127.0.0.1:0"))

            stage = "service-api"
            self.controller = MockServiceControllerClient(self.control.address)
            self.api = ServiceApi(sc.slos_path, self.controller, self.store,
                                  clock=self.clock,
                                  listen=sc.endpoints.get("service_api", "127.0.0.1:0"),
                                  aliases_path=sc.aliases_path)

            stage = "decision-system"
            if sc.decision is not None:
                self.system = self._build_system(sc.decision)
        except Exception as exc:
            self.stop()
            raise ValidationError(f"component {stage!r} failed to boot: {exc}") from exc

    def _build_system(self, decision: dict) -> DecisionSystem:
        sc = self.scenario
        raw = dict(decision)
        kind = raw.pop("system")
        raw.setdefault("slo_api", self.api.address)
        raw.setdefault("control_api", self.api.address)
        raw.setdefault("emma_api", self.emma.address)
        raw.setdefault("seed", sc.seed)
        raw.setdefault("tau_s", 60.0)
        raw.setdefault("emma_country", sc.emma_country)
        raw.setdefault("emma_granularity", sc.emma_granularity)
        if "max_steps" not in raw:
            raw["max_steps"] = max(1, int(sc.duration_s // raw["tau_s"]))
        if sc.record_responses:
            self.recorder = ResponseRecorder()
        return _BUILDERS[kind](raw, clock=self.clock, recorder=self.recorder)

    def start_live_tasks(self) -> None:
        for hook in self.hooks:
            hook.start()
        for rep in self.reporters:
            rep.start()
        self._live_threads_started = True

    def stop(self) -> None:
        """Reverse of boot; tolerates a partial stack."""
        if self.system is not None:
            self.system.close()
        if self.api is not None:
            self.api.stop()
        if self.emma is not None:
            self.emma.stop()
        if self.controller is not None:
            self.controller.close()
        if self._live_threads_started:
            for rep in self.reporters:
                rep.stop()
        for client in self.bus_clients:
            client.close()
        if self.control is not None:
            self.control.stop()
        for hook in self.hooks:
            if self._live_threads_started:
                hook.stop()
            elif self.broker is not None:
                hook.unbind(self.broker)
        if self.bus_server is not None:
            self.bus_server.stop()
        if self.store is not None:
            self.store.close()


def _simulate(stack: Stack) -> list[float]:
    """Drive reporters and decisions on the event heap; logical time only.

    Reporter ticks sort before the decision at the same instant, so a
    decision's query window always sees every sample up to and including
    its own timestamp.
    """
    sc = stack.scenario
    clock: ManualClock = stack.clock
    system = stack.system
    seq = itertools.count()
    heap: list = []
    epoch = sc.epoch_ms

    if system is not None:
        system.start()
        tau_ms = int(system.config.tau_s * 1000)
        total = system.total_events()
        end_ms = epoch + total * tau_ms
        for k in range(1, total + 1):
            heapq.heappush(heap, (epoch + k * tau_ms, 1, next(seq), "decision", k - 1))
    else:
        total = 0
        end_ms = epoch + int(sc.duration_s * 1000)

    for rep in stack.reporters:
        period_ms = max(1, int(rep.period_s * 1000))
        heapq.heappush(heap, (epoch + period_ms, 0, next(seq), "reporter", rep))

    latencies: list[float] = []
    while heap:
        ts, _, _, kind, obj = heapq.heappop(heap)
        if ts > end_ms:
            break
        clock.advance_to_ms(ts)
        if kind == "reporter":
            obj.tick(ts)
            nxt = ts + max(1, int(obj.period_s * 1000))
            if nxt <= end_ms:
                heapq.heappush(heap, (nxt, 0, next(seq), "reporter", obj))
        else:
            t0 = time.perf_counter()
            record = system.step(obj, ts)
            latencies.append((time.perf_counter() - t0) * 1000.0)
            if record is not None:
                system.records.append(record)
            if obj == total - 1:
                break
    if system is not None:
        system.finish()
    return latencies


def _run_live(stack: Stack) -> list[float]:
    stack.start_live_tasks()
    system = stack.system
    latencies: list[float] = []
    if system is None:
        stack.clock.sleep(stack.scenario.duration_s)
        return latencies
    system.start()
    events = system.total_events()
    for index in range(events):
        stack.clock.sleep(system.config.tau_s)
        t0 = time.perf_counter()
        record = system.step(index, stack.clock.now_ms())
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if record is not None:
            system.records.append(record)
    system.finish()
    return latencies


def _series_stats(values: list[float]) -> dict:
    n = len(values)
    if n == 0:
        return {"mean": None, "std": None, "samples": 0}
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return {"mean": mean, "std": math.sqrt(var), "samples": n}


def compute_report(step_rows: list[dict], telemetry_path: str, slo_specs: list,
                   warmup_steps: int = 0, power_slo_id: str | None = None,
                   intensity_fn=None) -> dict:
    """Aggregate a run from its raw logs alone.

    Each SLO's series is its query re-evaluated at every logged step
    timestamp against a store replayed from the telemetry dump; fulfilment
    is the post-warm-up fraction inside the closed range. Standard
    deviations are population, not sample.
    """
    if not step_rows:
        raise ValidationError("empty step log")
    store = TimeSeriesStore()
    store.replay(telemetry_path)

    report: dict = {"steps": len(step_rows), "warmup_steps": warmup_steps, "slos": {}}
    eval_rows = step_rows[warmup_steps:]
    if not eval_rows:
        raise ValidationError(f"warm-up {warmup_steps} leaves no steps to report on")
    power_series: dict[int, float] = {}
    for spec in slo_specs:
        parse_query(spec.query)
        values, fulfilled = [], 0
        for row in eval_rows:
            v = store.query(spec.query, row["ts"])
            if v is None:
                continue
            values.append(v)
            if spec.s_min <= v <= spec.s_max:
                fulfilled += 1
            if power_slo_id is not None and spec.id == power_slo_id:
                power_series[row["ts"]] = v
        stats = _series_stats(values)
        stats["fulfilment"] = (fulfilled / len(values)) if values else None
        report["slos"][spec.id] = stats

    if power_slo_id is not None and intensity_fn is not None and power_series:
        carbon = [carbon_footprint(p, intensity_fn(ts))
                  for ts, p in sorted(power_series.items())]
        report["carbon_mg_min"] = _series_stats(carbon)
    return report


def read_steps_csv(path: str) -> list[dict]:
    import csv as _csv
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in _csv.DictReader(fh):
            rows.append({"step": int(row["step"]), "ts": int(row["ts"]), "row": row})
    return rows


def run_scenario(scenario: ScenarioConfig, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")

    stack = Stack(scenario)
    stack.boot()
    status, error, latencies = "ok", None, []
    try:
        if scenario.mode == "sim":
            latencies = _simulate(stack)
        else:
            latencies = _run_live(stack)
    except Exception as exc:
        status, error = "failed", str(exc)
        log.exception("run failed; keeping partial logs")
    finally:
        steps_path = os.path.join(out_dir, "steps.csv")
        telemetry_path = os.path.join(out_dir, "telemetry.jsonl")
        if stack.system is not None:
            stack.system.write_csv(steps_path)
        stack.store.dump_jsonl(telemetry_path)
        if stack.recorder is not None:
            with open(os.path.join(out_dir, "responses.jsonl"), "w", encoding="utf-8") as fh:
                for r in stack.recorder.responses:
                    fh.write(json.dumps({"method": r.method, "path": r.path,
                                         "status": r.status, "body": r.body}) + "\n")
        stack.stop()

    report: dict = {"status": status, "seed": scenario.seed, "mode": scenario.mode}
    if error:
        report["error"] = error
    if status == "ok" and stack.system is not None and stack.system.records:
        index = load_location_dataset(scenario.emma_locations)

        def intensity_fn(ts: int) -> float:
            return index.lookup(scenario.emma_country, ts, scenario.emma_granularity)

        rows = [{"step": r.step, "ts": r.ts} for r in stack.system.records]
        slo_specs = list(stack.api._config.slos.values())
        power_id = stack.system.config.power_slo_id
        if power_id not in stack.api._config.slos:
            power_id = None
        report.update(compute_report(rows, telemetry_path, slo_specs,
                                     warmup_steps=scenario.warmup_steps,
                                     power_slo_id=power_id,
                                     intensity_fn=intensity_fn))
        if latencies:
            stats = _series_stats(latencies)
            stats["p99"] = sorted(latencies)[max(0, int(len(latencies) * 0.99) - 1)]
            report["decision_latency_ms"] = stats

    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if status != "ok":
        raise ValidationError(f"run failed: {error}")
    return report


# -- benchmark harnesses ---------------------------------------------------


def measure_reconfiguration(scenario: ScenarioConfig, edits: int,
                            poll_timeout_s: float = 5.0) -> dict:
    """Time add/remove/rename SLO edits from request to visibility.

    Edits cycle add -> rename -> remove on probe SLOs in a scratch copy of
    the SLO file; a deliberately broken edit at the end checks rollback.
    """
    stack = Stack(scenario)
    stack.boot()
    samples: list[dict] = []
    rollback_ok = False
    client = ServiceApiClient(stack.api.address)
    try:
        scratch = os.path.join(os.path.dirname(scenario.slos_path), "_reconfig_scratch.json")
        shutil.copyfile(scenario.slos_path, scratch)
        with open(scratch, "r", encoding="utf-8") as fh:
            config = json.load(fh)

        def apply_edit(mutate, expect_present: str | None, expect_absent: str | None):
            mutate(config)
            with open(scratch, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            t0 = time.perf_counter()
            client.reconfigure(scratch)
            deadline = t0 + poll_timeout_s
            while True:
                ids = {s["id"] for s in client.list_slos()}
                done = ((expect_present is None or expect_present in ids)
                        and (expect_absent is None or expect_absent not in ids))
                if done:
                    return (time.perf_counter() - t0) * 1000.0
                if time.perf_counter() > deadline:
                    raise ValidationError("edit not observable within timeout")

        probe = None
        for i in range(edits):
            op = ("add", "rename", "remove")[i % 3]
            if op == "add" or probe is None:
                probe = f"probe{i}"
                new_slo = {"id": probe, "description": "probe", "unit": "",
                           "query": "last(fps.value, 60s)", "min": 0, "max": 1000}
                ms = apply_edit(lambda c: c["slos"].append(new_slo), probe, None)
                op = "add"
            elif op == "rename":
                renamed = probe + "r"

                def do_rename(c, old=probe, new=renamed):
                    for s in c["slos"]:
                        if s["id"] == old:
                            s["id"] = new
                ms = apply_edit(do_rename, renamed, probe)
                probe = renamed
            else:
                gone = probe

                def do_remove(c, target=gone):
                    c["slos"] = [s for s in c["slos"] if s["id"] != target]
                ms = apply_edit(do_remove, None, gone)
                probe = None
            samples.append({"edit": op, "ms": ms, "ok": True})

        before = {s["id"] for s in client.list_slos()}
        broken = dict(config)
        broken["slos"] = config["slos"] + [{"id": "bad", "description": "", "unit": "",
                                           "query": "last(fps.value, 60s)",
                                           "min": 10, "max": 1}]
        with open(scratch, "w", encoding="utf-8") as fh:
            json.dump(broken, fh)
        try:
            client.reconfigure(scratch)
        except ValidationError:
            rollback_ok = {s["id"] for s in client.list_slos()} == before
        os.unlink(scratch)
    finally:
        client.close()
        stack.stop()
    stats = _series_stats([s["ms"] for s in samples])
    # keep the per-edit list; _series_stats has its own "samples" count
    return {"samples": samples, "rollback_ok": rollback_ok,
            "mean": stats["mean"], "std": stats["std"]}


def measure_api_overhead(scenario: ScenarioConfig, n: int,
                         value_range: tuple = (1, 8)) -> dict:
    """n get and n set latencies through the gateway and direct to the
    controller: 4 categories, values cycling evenly over value_range."""
    stack = Stack(scenario)
    stack.boot()
    gateway = ServiceApiClient(stack.api.address)
    direct = MockServiceControllerClient(stack.control.address)
    try:
        setting_id = next(iter(stack.api._config.settings))
        internal = stack.api._config.settings[setting_id][1]
        lo, hi = value_range
        span = hi - lo + 1
        out: dict[str, list[float]] = {"casca_set": [], "casca_get": [],
                                       "direct_set": [], "direct_get": []}
        for i in range(n):
            v = lo + (i % span)
            t0 = time.perf_counter()
            gateway.set_value(setting_id, v)
            out["casca_set"].append((time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            gateway.get_value(setting_id)
            out["casca_get"].append((time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            direct.set(internal, v)
            out["direct_set"].append((time.perf_counter() - t0) * 1000.0)
            t0 = time.perf_counter()
            direct.get(internal)
            out["direct_get"].append((time.perf_counter() - t0) * 1000.0)
    finally:
        gateway.close()
        direct.close()
        stack.stop()
    return {"n": n, "total_samples": 4 * n,
            "categories": {k: _series_stats(v) for k, v in out.items()}}

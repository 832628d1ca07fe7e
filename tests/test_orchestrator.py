"""End-to-end scenario runs in logical and live time."""

import gc
import json
import math
import os
import socket
import sys
import threading
import time
import warnings

import pytest

from casca.clients import ServiceApiClient
from casca.errors import ConfigError, ValidationError
from casca.decisions.mdp import carbon_footprint
from casca.mock_service import WorkloadModel, fps_model, power_model
from casca.orchestrator import (
    DEFAULT_EPOCH_MS,
    Stack,
    load_scenario,
    measure_api_overhead,
    measure_reconfiguration,
    read_steps_csv,
    run_scenario,
)

from conftest import EPOCH_MS, NOISELESS_MODEL, intensity_at


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run(platform, out_root, name="scenario.json", **overrides):
    path = platform.write_scenario(name, **overrides)
    cfg = load_scenario(path)
    out_dir = os.path.join(str(out_root), name.replace(".json", "_out"))
    report = run_scenario(cfg, out_dir)
    return report, out_dir


def greedy_decision(**extra) -> dict:
    return {"system": "gds", "slo_id": "FPS", "param_id": "EncodingThreadCount",
            "delta": 1.0, "lambda": 1, **extra}


def expected_greedy_threads(steps: int, start: int = 16) -> list:
    """Replay of the greedy rule against the noiseless curve."""
    model = WorkloadModel(**NOISELESS_MODEL)
    p, out = start, []
    for _ in range(steps):
        s = fps_model(p, 0.0, model)
        if s > 30.0:
            p = max(0, p - 1)
        elif s < 24.0:
            p = min(16, p + 1)
        out.append(p)
    return out


class TestLoadScenario:
    def test_defaults(self, platform, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({
            "slos": platform.slos,
            "emma": {"sources": platform.sources, "locations": platform.locations},
        }))
        cfg = load_scenario(str(path))
        assert cfg.seed == 0
        assert cfg.mode == "sim"
        assert cfg.clock_multiplier == 60.0
        assert cfg.duration_s == 600.0
        assert cfg.epoch_ms == DEFAULT_EPOCH_MS
        assert cfg.warmup_steps == 100
        assert cfg.initial_threads == 16
        assert cfg.decision is None
        assert cfg.hooks == []
        assert [r["kind"] for r in cfg.reporters] == ["fps", "power"]
        assert cfg.record_responses is False

    def test_relative_paths_resolve_against_scenario_dir(self, platform, tmp_path):
        nest = tmp_path / "nested"
        nest.mkdir()
        (nest / "slos.json").write_text((platform.root / "slos.json").read_text())
        path = nest / "scenario.json"
        path.write_text(json.dumps({
            "slos": "slos.json",
            "emma": {"sources": platform.sources, "locations": platform.locations},
        }))
        cfg = load_scenario(str(path))
        assert cfg.slos_path == str(nest / "slos.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_scenario(str(tmp_path / "nope.json"))
        assert err.value.field == "scenario"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as err:
            load_scenario(str(path))
        assert err.value.field == "scenario"

    @pytest.mark.parametrize("override, field", [
        ({"mode": "batch"}, "mode"),
        ({"clock_multiplier": 0}, "clock_multiplier"),
        ({"duration_s": -5}, "duration_s"),
        ({"slos": ""}, "slos"),
        ({"emma": {"sources": ""}}, "emma"),
        ({"decision": {"system": "oracle"}}, "decision"),
    ])
    def test_field_errors(self, platform, override, field):
        path = platform.write_scenario("broken.json", **override)
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        assert err.value.field == field

    def test_referenced_file_must_exist(self, platform):
        path = platform.write_scenario("dangling.json",
                                       hooks=[str(platform.root / "ghost.json")])
        with pytest.raises(ConfigError) as err:
            load_scenario(path)
        assert err.value.field == "paths"

    def test_bad_model_rejected_before_boot(self, platform):
        path = platform.write_scenario("badmodel.json", model={"kappa": -1})
        with pytest.raises(ValidationError):
            load_scenario(path)


class TestSimRun:
    def test_greedy_run_converges_and_reports(self, platform, tmp_path):
        steps = 12
        report, out_dir = run(platform, tmp_path, "greedy.json",
                              decision=greedy_decision(max_steps=steps),
                              warmup_steps=0)
        assert report["status"] == "ok"
        assert report["mode"] == "sim"
        assert report["steps"] == steps

        rows = read_steps_csv(os.path.join(out_dir, "steps.csv"))
        actions = [int(r["row"]["action0"]) for r in rows]
        assert actions == expected_greedy_threads(steps)

        # Each step's observed SLO is the previous setting's noiseless rate.
        model = WorkloadModel(**NOISELESS_MODEL)
        threads = [16] + actions[:-1]
        for row, previous in zip(rows, threads):
            assert float(row["row"]["state0"]) == pytest.approx(
                fps_model(previous, 0.0, model), rel=1e-12)
            assert float(row["row"]["state1"]) == previous

        in_band = sum(1 for p in threads if 24.0 <= fps_model(p, 0.0, model) <= 30.0)
        assert report["slos"]["FPS"]["fulfilment"] == pytest.approx(in_band / steps)
        assert report["slos"]["FPS"]["samples"] == steps
        power_ok = sum(1 for p in threads if power_model(p, model) <= 18.0)
        assert report["slos"]["power_w"]["fulfilment"] == pytest.approx(power_ok / steps)
        assert report["carbon_mg_min"]["mean"] > 0
        assert report["decision_latency_ms"]["samples"] == steps
        assert report["decision_latency_ms"]["p99"] > 0

    def test_run_directory_contents(self, platform, tmp_path):
        report, out_dir = run(platform, tmp_path, "files.json",
                              decision=greedy_decision(max_steps=3), warmup_steps=0)
        names = sorted(os.listdir(out_dir))
        assert names == ["report.json", "scenario.json", "steps.csv", "telemetry.jsonl"]
        with open(os.path.join(out_dir, "report.json")) as fh:
            assert json.load(fh) == report
        with open(os.path.join(out_dir, "scenario.json")) as fh:
            assert json.load(fh) == platform.scenario(
                decision=greedy_decision(max_steps=3), warmup_steps=0)
        with open(os.path.join(out_dir, "telemetry.jsonl")) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == 3 * 60 * 2
        assert all(set(line) <= {"m", "tg", "f", "ts"} for line in lines)

    def test_sim_runs_are_byte_reproducible(self, platform, tmp_path):
        overrides = dict(seed=7, model={"noise_fps": 0.4, "noise_power": 0.2},
                         decision=greedy_decision(max_steps=8), warmup_steps=0)
        _, first = run(platform, tmp_path / "a", "repro.json", **overrides)
        _, second = run(platform, tmp_path / "b", "repro.json", **overrides)
        for name in ("steps.csv", "telemetry.jsonl"):
            a = open(os.path.join(first, name), "rb").read()
            b = open(os.path.join(second, name), "rb").read()
            assert a == b, name
        assert len(open(os.path.join(first, "telemetry.jsonl")).readlines()) == 8 * 60 * 2

    def test_seed_changes_the_noise_stream(self, platform, tmp_path):
        overrides = dict(model={"noise_fps": 0.4}, warmup_steps=0,
                         decision=greedy_decision(max_steps=4))
        _, first = run(platform, tmp_path / "a", "seeded.json", seed=1, **overrides)
        _, second = run(platform, tmp_path / "b", "seeded.json", seed=2, **overrides)
        a = open(os.path.join(first, "telemetry.jsonl")).read()
        b = open(os.path.join(second, "telemetry.jsonl")).read()
        assert a != b

    def test_report_matches_brute_force_recount(self, platform, tmp_path):
        report, out_dir = run(platform, tmp_path, "recount.json", seed=3,
                              model={"noise_fps": 0.6, "noise_power": 0.3},
                              decision=greedy_decision(max_steps=10), warmup_steps=3)
        with open(os.path.join(out_dir, "telemetry.jsonl")) as fh:
            points = [json.loads(line) for line in fh]
        rows = read_steps_csv(os.path.join(out_dir, "steps.csv"))
        assert len(rows) == 10

        def window_mean(measurement, field, now):
            values = [p["f"][field] for p in points
                      if p["m"] == measurement and now - 60000 < p["ts"] <= now]
            return (math.fsum(values) / len(values)) if values else None

        for slo_id, (m, f), lo, hi in [("FPS", ("fps", "value"), 24.0, 30.0),
                                       ("power_w", ("power", "apparent_w"), 0.0, 18.0)]:
            means = [window_mean(m, f, r["ts"]) for r in rows[3:]]
            assert all(v is not None for v in means)
            stats = report["slos"][slo_id]
            assert stats["samples"] == 7
            assert stats["mean"] == pytest.approx(math.fsum(means) / 7, rel=1e-9)
            expected_fulfilment = sum(1 for v in means if lo <= v <= hi) / 7
            assert stats["fulfilment"] == pytest.approx(expected_fulfilment)

        def intensity(ts):
            return intensity_at((ts - EPOCH_MS) // 3600_000)

        carbon = [carbon_footprint(window_mean("power", "apparent_w", r["ts"]),
                                   intensity(r["ts"]))
                  for r in rows[3:]]
        assert report["carbon_mg_min"]["mean"] == pytest.approx(
            math.fsum(carbon) / 7, rel=1e-9)
        assert report["warmup_steps"] == 3

    def test_random_system_smoke(self, platform, tmp_path):
        report, out_dir = run(platform, tmp_path, "random.json", seed=11,
                              decision={"system": "rds", "param_id": "EncodingThreadCount",
                                        "max_steps": 5},
                              warmup_steps=0)
        assert report["status"] == "ok"
        rows = read_steps_csv(os.path.join(out_dir, "steps.csv"))
        assert len(rows) == 5
        actions = [int(r["row"]["action0"]) for r in rows]
        assert all(0 <= a <= 16 for a in actions)
        assert all(r["row"]["reward"] == "" for r in rows)

    def test_learning_system_smoke(self, platform, tmp_path):
        report, out_dir = run(platform, tmp_path, "learning.json", seed=5,
                              decision={"system": "rlds", "param_id": "EncodingThreadCount",
                                        "slo_id": "FPS", "max_steps": 4},
                              warmup_steps=0)
        assert report["status"] == "ok"
        rows = read_steps_csv(os.path.join(out_dir, "steps.csv"))
        # One trailing observation-only row after the last acted step.
        assert len(rows) == 5
        assert rows[-1]["row"]["action0"] == ""
        assert rows[-1]["row"]["reward"] == ""
        for row in rows[:-1]:
            assert row["row"]["action0"] != ""
            assert row["row"]["reward"] != ""

    def test_run_without_decision_logs_telemetry_only(self, platform, tmp_path):
        report, out_dir = run(platform, tmp_path, "plain.json",
                              duration_s=5.0, warmup_steps=0)
        assert report == {"status": "ok", "seed": 0, "mode": "sim"}
        assert not os.path.exists(os.path.join(out_dir, "steps.csv"))
        with open(os.path.join(out_dir, "telemetry.jsonl")) as fh:
            assert len(fh.readlines()) == 5 * 2

    def test_failed_run_keeps_partial_logs(self, platform, tmp_path):
        path = platform.write_scenario("doomed.json", warmup_steps=0,
                                       decision=greedy_decision(slo_id="Missing",
                                                                max_steps=3))
        cfg = load_scenario(path)
        out_dir = str(tmp_path / "doomed_out")
        with pytest.raises(ValidationError, match="run failed"):
            run_scenario(cfg, out_dir)
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        assert report["status"] == "failed"
        assert "Missing" in report["error"]
        assert read_steps_csv(os.path.join(out_dir, "steps.csv")) == []
        assert os.path.exists(os.path.join(out_dir, "telemetry.jsonl"))


class TestPortsAndLifecycle:
    def test_fixed_endpoints_are_released_between_runs(self, platform, tmp_path):
        endpoints = {"service_api": f"127.0.0.1:{free_port()}",
                     "emma": f"127.0.0.1:{free_port()}",
                     "control": f"127.0.0.1:{free_port()}"}
        for attempt in ("a", "b"):
            report, _ = run(platform, tmp_path / attempt, "pinned.json",
                            endpoints=endpoints, warmup_steps=0,
                            decision={"system": "rds",
                                      "param_id": "EncodingThreadCount", "max_steps": 2})
            assert report["status"] == "ok"

    def test_stop_releases_threads_and_sockets(self, platform):
        cfg = load_scenario(platform.write_scenario("cycle.json"))
        before = threading.active_count()
        stacks = [Stack(cfg) for _ in range(3)]   # kept alive: no cleanup by the collector
        for stack in stacks:
            stack.boot()
            # a setting read makes the gateway open its controller connection
            client = ServiceApiClient(stack.api.address)
            assert client.get_value("EncodingThreadCount") == 16
            client.close()
            stack.stop()
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            del stacks, stack
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_boot_failure_tears_down_earlier_stages(self, platform, tmp_path):
        port = free_port()
        clash = platform.scenario(endpoints={"emma": f"127.0.0.1:{port}",
                                             "service_api": f"127.0.0.1:{port}"})
        path = platform.root / "clash.json"
        path.write_text(json.dumps(clash))
        cfg = load_scenario(str(path))
        with pytest.raises(ValidationError, match="'service-api' failed to boot"):
            Stack(cfg).boot()
        # The stage that did come up must have released the port again.
        retry = load_scenario(platform.write_scenario(
            "retry.json", endpoints={"emma": f"127.0.0.1:{port}"}))
        stack = Stack(retry)
        stack.boot()
        stack.stop()


class TestBenchHarnesses:
    def test_reconfiguration_edit_cycle(self, platform):
        cfg = load_scenario(platform.write_scenario("bench.json"))
        before = open(cfg.slos_path, "rb").read()
        result = measure_reconfiguration(cfg, edits=4)
        assert [s["edit"] for s in result["samples"]] == ["add", "rename", "remove", "add"]
        assert all(s["ok"] and 0 < s["ms"] < 2000.0 for s in result["samples"])
        assert result["rollback_ok"] is True
        assert result["mean"] > 0
        assert result["samples"][0]["ms"] >= 0
        scratch = os.path.join(os.path.dirname(cfg.slos_path), "_reconfig_scratch.json")
        assert not os.path.exists(scratch)
        assert open(cfg.slos_path, "rb").read() == before

    def test_api_overhead_categories(self, platform):
        cfg = load_scenario(platform.write_scenario("bench2.json"))
        result = measure_api_overhead(cfg, n=6)
        assert result["n"] == 6
        assert result["total_samples"] == 24
        assert sorted(result["categories"]) == ["casca_get", "casca_set",
                                                "direct_get", "direct_set"]
        for stats in result["categories"].values():
            assert stats["samples"] == 6
            assert stats["mean"] > 0

    def test_harnesses_close_their_clients(self, platform, monkeypatch):
        cfg = load_scenario(platform.write_scenario("bench3.json"))
        # A warning raised in a finalizer cannot propagate; it reaches the hook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            measure_api_overhead(cfg, n=3)
            measure_reconfiguration(cfg, edits=3)
            gc.collect()
        assert [repr(u.exc_value) for u in unraisable] == []


class TestLiveMode:
    def test_live_run_with_scaled_clock(self, platform, tmp_path):
        report, out_dir = run(platform, tmp_path, "live.json", mode="live",
                              clock_multiplier=240.0, warmup_steps=0,
                              decision=greedy_decision(max_steps=3))
        assert report["status"] == "ok"
        assert report["mode"] == "live"
        assert report["steps"] == 3
        rows = read_steps_csv(os.path.join(out_dir, "steps.csv"))
        actions = [int(r["row"]["action0"]) for r in rows]
        # Every window still averages out-of-band rates, so the trajectory
        # is deterministic even with wall-time jitter.
        assert actions == [15, 14, 13]
        model = WorkloadModel(**NOISELESS_MODEL)
        assert float(rows[0]["row"]["state0"]) == pytest.approx(
            fps_model(16, 0.0, model), rel=1e-9)
        assert report["slos"]["FPS"]["samples"] == 3


class TestReadStepsCsv:
    def test_rows_and_types(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("step,ts,action0,reward\n0,1000,4,\n1,2000,5,-0.25\n")
        rows = read_steps_csv(str(path))
        assert [r["step"] for r in rows] == [0, 1]
        assert [r["ts"] for r in rows] == [1000, 2000]
        assert rows[1]["row"]["reward"] == "-0.25"

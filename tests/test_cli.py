"""Command-line entry points, in-process and as real processes.

The process tests start each component as `python -m casca.<module>`, with
the directory holding the imported `casca` package first on PYTHONPATH, so
they run the code under test from a plain checkout with nothing installed.
A separate check keeps the `[project.scripts]` table in pyproject.toml equal
to the module map they use.
"""

import csv
import importlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests

import casca
from casca.cli import main as casca_main
from casca.decisions import gds, rds, rlds
from casca.orchestrator import Stack, load_scenario
from casca.service_api import MockServiceControllerClient
from casca.store import StoreServer, TimeSeriesStore

from conftest import EPOCH_MS, intensity_at


# Console-script name -> module whose `main` it runs; mirrors [project.scripts].
SCRIPTS = {
    "casca": "casca.cli",
    "hook": "casca.hook",
    "emma": "casca.emma",
    "service-api": "casca.service_api",
    "mock-service": "casca.mock_service",
    "rds": "casca.decisions.rds",
    "gds": "casca.decisions.gds",
    "rlds": "casca.decisions.rlds",
}

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SAMPLE_GDS = Path(__file__).resolve().parents[1] / "samples" / "scenario_gds.json"

# A relative `src` entry, another working directory or a stale install in
# site-packages must not change which code the children run.
_PACKAGE_ROOT = str(Path(casca.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}


def component_argv(script: str, *args: str) -> list:
    return [sys.executable, "-m", SCRIPTS[script], *args]


class Component(subprocess.Popen):
    """A component run as its own process, stderr kept in a file under tmp_path.

    A file rather than an unread pipe, because the INFO logging can fill a
    pipe and stall the child.
    """

    def __init__(self, tmp_path: Path, script: str, *args: str):
        self.script = script
        self.stderr_path = tmp_path / f"{script}.stderr"
        with open(self.stderr_path, "wb") as err:
            super().__init__(component_argv(script, *args), env=CHILD_ENV,
                             stdout=subprocess.DEVNULL, stderr=err)

    def check_alive(self) -> None:
        code = self.poll()
        if code is not None:
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            raise AssertionError(
                f"{self.script} exited with code {code}; stderr ends:\n{tail}")


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_http(url: str, proc: Component, timeout: float = 10.0) -> requests.Response:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return requests.get(url, timeout=1.0)
        except requests.ConnectionError:
            proc.check_alive()
            if time.monotonic() > deadline:
                raise AssertionError(f"server at {url} never came up")
            time.sleep(0.05)


def terminate(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=5)


class TestCascaCommand:
    def test_run_then_report_roundtrip(self, platform, tmp_path, capsys):
        scenario = platform.write_scenario(
            "cli.json", warmup_steps=1,
            decision={"system": "gds", "slo_id": "FPS",
                      "param_id": "EncodingThreadCount", "max_steps": 4})
        out_dir = str(tmp_path / "cli_run")
        assert casca_main(["run", "--scenario", scenario, "--out-dir", out_dir]) == 0
        run_report = json.loads(capsys.readouterr().out)
        assert run_report["status"] == "ok"

        assert casca_main(["report", out_dir]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        assert recomputed["slos"]["FPS"] == run_report["slos"]["FPS"]
        assert recomputed["carbon_mg_min"] == run_report["carbon_mg_min"]
        assert recomputed["warmup_steps"] == 1

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            casca_main(["run", "--scenario", str(tmp_path / "absent.json")])
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_reconfig(self, platform, capsys):
        scenario = platform.write_scenario("bench.json")
        assert casca_main(["bench-reconfig", "--scenario", scenario, "--edits", "2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["rollback_ok"] is True
        assert len(result["samples"]) == 2

    def test_bench_overhead(self, platform, capsys):
        scenario = platform.write_scenario("bench2.json")
        assert casca_main(["bench-overhead", "--scenario", scenario, "--n", "3"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["total_samples"] == 12


class TestDecisionCommands:
    """The shared rds/gds/rlds entry point, called in-process."""

    def test_rds_runs_the_standalone_loop(self, platform, tmp_path):
        stack = Stack(load_scenario(platform.write_scenario("standalone.json")))
        stack.boot()
        try:
            config = tmp_path / "rds.json"
            config.write_text(json.dumps({
                "slo_api": stack.api.address, "control_api": stack.api.address,
                "emma_api": stack.emma.address, "param_id": "EncodingThreadCount",
                "tau_s": 0.01, "max_steps": 3}))
            out = tmp_path / "steps.csv"
            assert rds.main(["--config", str(config), "--out", str(out)]) == 0
        finally:
            stack.stop()
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "ts", "action0", "reward"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        assert all(0 <= int(row[2]) <= 16 for row in rows[1:])

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", '{"slo_api": "x"}'],
                             ids=["missing", "malformed", "not-object", "incomplete"])
    @pytest.mark.parametrize("module", [rds, gds, rlds], ids=["rds", "gds", "rlds"])
    def test_bad_config_is_a_usage_error(self, module, content, tmp_path, capsys):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as err:
            module.main(["--config", str(path), "--out", str(tmp_path / "steps.csv")])
        assert err.value.code == 2
        assert str(path) in capsys.readouterr().err


class TestInstalledScripts:
    """The shipped commands, each started as `python -m casca.<module>`."""

    def test_script_table_matches_entry_modules(self):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as f:
            table = tomllib.load(f)["project"]["scripts"]
        assert table == {name: f"{module}:main" for name, module in SCRIPTS.items()}
        for target in table.values():
            module, function = target.split(":")
            assert callable(getattr(importlib.import_module(module), function, None)), target

    def test_runtime_does_not_need_requests(self, tmp_path):
        # requests is a test-only dependency: with it unimportable, every
        # entry module still imports and the sample gds scenario still runs.
        modules = sorted({*SCRIPTS.values(), "casca.orchestrator"})
        code = ("import importlib, sys\n"
                "sys.modules['requests'] = None\n"
                f"for m in {modules!r}: importlib.import_module(m)\n"
                "from casca.cli import main\n"
                f"sys.exit(main(['run', '--scenario', {str(SAMPLE_GDS)!r},"
                f" '--out-dir', {str(tmp_path / 'run')!r}]))\n")
        done = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]
        assert (tmp_path / "run" / "steps.csv").exists()

    @pytest.mark.parametrize("script", list(SCRIPTS))
    def test_help_exits_zero(self, script):
        done = subprocess.run(component_argv(script, "--help"), env=CHILD_ENV,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"usage: {script} ")
        assert "RuntimeWarning" not in done.stderr

    def test_emma_server_process(self, platform, tmp_path):
        listen = f"127.0.0.1:{free_port()}"
        proc = Component(tmp_path, "emma", "--sources", platform.sources,
                         "--locations", platform.locations, "--listen", listen)
        try:
            resp = wait_http(f"http://{listen}/sources", proc)
            assert resp.status_code == 200
            assert resp.json()["sources"]["coal"] == 820.0
            resp = requests.get(f"http://{listen}/intensity",
                                params={"country": "AT", "ts": EPOCH_MS,
                                        "granularity": "hourly"})
            assert resp.json()["intensity_gco2eq_kwh"] == intensity_at(0)
        finally:
            terminate(proc)

    def test_mock_service_process(self, tmp_path):
        listen = f"127.0.0.1:{free_port()}"
        proc = Component(tmp_path, "mock-service", "--listen", listen,
                         "--initial-threads", "4")
        try:
            client = MockServiceControllerClient(listen)
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    assert client.get("EncodingThreadCount") == 4
                    break
                except Exception:
                    proc.check_alive()
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            assert client.set("EncodingThreadCount", 9) == 9
            assert client.get("EncodingThreadCount") == 9
        finally:
            terminate(proc)

    def test_service_api_process_reloads_on_sighup(self, platform, tmp_path):
        store = TimeSeriesStore()
        store_server = StoreServer(store)
        control_listen = f"127.0.0.1:{free_port()}"
        mock = Component(tmp_path, "mock-service", "--listen", control_listen)
        slos_path = tmp_path / "slos.json"
        slos_path.write_text((platform.root / "slos.json").read_text())
        api_listen = f"127.0.0.1:{free_port()}"
        api = Component(tmp_path, "service-api", "--slos", str(slos_path),
                        "--controller", f"mock:{control_listen}",
                        "--store", store_server.address, "--listen", api_listen)
        try:
            resp = wait_http(f"http://{api_listen}/slos", api)
            assert {s["id"] for s in resp.json()} == {"FPS", "power_w"}

            config = json.loads(slos_path.read_text())
            config["slos"].append({"id": "Extra", "description": "probe", "unit": "",
                                   "query": "last(fps.value, 60s)", "min": 0, "max": 1})
            slos_path.write_text(json.dumps(config))
            os.kill(api.pid, signal.SIGHUP)

            deadline = time.monotonic() + 10.0
            while True:
                api.check_alive()
                ids = {s["id"] for s in
                       requests.get(f"http://{api_listen}/slos", timeout=1.0).json()}
                if "Extra" in ids:
                    break
                assert time.monotonic() < deadline, "reload never became visible"
                time.sleep(0.05)
        finally:
            terminate(api)
            terminate(mock)
            store_server.stop()

    def test_hook_process_journals_bus_traffic(self, platform, tmp_path):
        from casca.bus import Broker, BusClient, BusServer, Envelope

        broker = Broker()
        bus_server = BusServer(broker)
        config_path = tmp_path / "hook.json"
        config_path.write_text(json.dumps({
            "bus": bus_server.address, "topic": "fps/+", "measurement": "fps",
            "fields": {"/fps": "value"},
        }))
        journal = tmp_path / "journal.ndjson"
        proc = Component(tmp_path, "hook", "--config", str(config_path),
                         "--journal", str(journal))
        client = None
        try:
            client = BusClient(bus_server.address)
            deadline = time.monotonic() + 10.0
            lines = []
            sent = 0
            # The subscription races process startup, so keep publishing
            # until a point lands in the journal.
            while time.monotonic() < deadline and not lines:
                proc.check_alive()
                client.publish(Envelope("fps/c1", {"fps": 25.5}, 1000 + sent))
                sent += 1
                time.sleep(0.05)
                if journal.exists():
                    lines = [json.loads(l) for l in journal.read_text().splitlines()]
            assert lines, "no telemetry reached the journal"
            assert lines[0]["m"] == "fps"
            assert lines[0]["f"] == {"value": 25.5}
        finally:
            if client is not None:
                client.close()
            terminate(proc)
            bus_server.stop()

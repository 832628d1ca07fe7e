"""Tests for the API gateway: SLO evaluation, setting control, aliasing, reload."""

import json

import pytest
import requests

from casca.clients import ResponseRecorder, ServiceApiClient
from casca.clock import ManualClock
from casca.errors import (ControllerUnreachableError, UnknownEntityError,
                          ValidationError)
from casca.mock_service import ControlServer, MockService, WorkloadModel
from casca.service_api import (
    MockServiceControllerClient,
    ServiceApi,
    SettingSpec,
    SloSpec,
    apply_alias,
    make_controller,
    parse_alias_map,
    parse_setting_entries,
    parse_slo_entries,
)
from casca.store import TelemetryPoint, TimeSeriesStore

SLOS = [
    {"id": "FPS", "description": "Mean delivered frame rate",
     "query": "mean(fps.value, 60s)", "unit": "frames/s", "min": 24, "max": 30},
    {"id": "power_w", "description": "Mean apparent power draw",
     "query": "mean(power.apparent_w, 60s)", "unit": "W", "min": 0, "max": 18},
]
SETTINGS = [
    {"id": "EncodingThreadCount", "description": "Number of encoder worker threads",
     "type": "integer", "min": 0, "max": 16},
]


class TestConfigParsing:
    def test_slo_entries(self):
        specs = parse_slo_entries(SLOS)
        assert [s.id for s in specs] == ["FPS", "power_w"]
        assert specs[0].s_min == 24.0 and specs[0].s_max == 30.0

    def test_slo_rejections(self):
        with pytest.raises(ValidationError, match="duplicate SLO id"):
            parse_slo_entries([SLOS[0], SLOS[0]])
        with pytest.raises(ValidationError, match="unparseable query"):
            parse_slo_entries([dict(SLOS[0], query="avg(fps.value, 60s)")])
        with pytest.raises(ValidationError, match="exceeds max"):
            parse_slo_entries([dict(SLOS[0], min=50)])
        with pytest.raises(ValidationError, match="'id'"):
            parse_slo_entries([{"query": "mean(a.b, 1s)", "min": 0, "max": 1}])
        with pytest.raises(ValidationError, match="numeric"):
            parse_slo_entries([dict(SLOS[0], min="low")])

    def test_setting_entries(self):
        specs = parse_setting_entries(SETTINGS)
        assert specs[0] == SettingSpec("EncodingThreadCount",
                                       "Number of encoder worker threads",
                                       "integer", 0.0, 16.0)

    def test_setting_rejections(self):
        with pytest.raises(ValidationError, match="type"):
            parse_setting_entries([dict(SETTINGS[0], type="count")])
        with pytest.raises(ValidationError, match="duplicate setting"):
            parse_setting_entries([SETTINGS[0], SETTINGS[0]])


class TestAliasing:
    def test_alias_map(self):
        raw = {"FPS": {"id": "ServiceSLO", "description": "Primary objective"}}
        assert parse_alias_map(raw) == {"FPS": ("ServiceSLO", "Primary objective")}
        assert parse_alias_map(None) == {}

    def test_alias_map_must_be_injective(self):
        raw = {"a": {"id": "X"}, "b": {"id": "X"}}
        with pytest.raises(ValidationError, match="used twice"):
            parse_alias_map(raw)

    def test_apply_renames_id_and_description_only(self):
        specs = parse_slo_entries(SLOS)
        out = apply_alias(specs, {"FPS": ("ServiceSLO", "Primary objective")})
        renamed = out[0]
        assert renamed.id == "ServiceSLO"
        assert renamed.description == "Primary objective"
        assert renamed.query == specs[0].query            # behavior untouched
        assert (renamed.s_min, renamed.s_max) == (24.0, 30.0)
        assert out[1] == specs[1]                          # unmapped passes through

    def test_apply_rejects_collision_with_unmapped_id(self):
        specs = parse_slo_entries(SLOS)
        with pytest.raises(ValidationError, match="collides"):
            apply_alias(specs, {"FPS": ("power_w", "")})

    def test_apply_rejects_duplicate_targets(self):
        specs = parse_slo_entries(SLOS)
        with pytest.raises(ValidationError):
            apply_alias(specs, {"FPS": ("X", ""), "power_w": ("X", "")})


@pytest.fixture()
def rig(tmp_path):
    """Mock service + store + gateway on a frozen clock, no aliasing."""
    model = WorkloadModel()
    clock = ManualClock(epoch_ms=1_000_000)
    service = MockService(model, clock=clock, epoch_ms=1_000_000, initial_threads=4)
    control = ControlServer(service, listen="127.0.0.1:0")
    store = TimeSeriesStore()
    config_path = tmp_path / "slos.json"
    config_path.write_text(json.dumps({"slos": SLOS, "settings": SETTINGS}))
    api = ServiceApi(str(config_path), MockServiceControllerClient(control.address),
                     store, clock=clock, listen="127.0.0.1:0")
    yield {"api": api, "service": service, "store": store, "clock": clock,
           "config_path": config_path, "control": control, "tmp": tmp_path}
    api.stop()
    control.stop()


def fill_fps(store, values, t0=1_000_000, step_ms=1000):
    for i, v in enumerate(values):
        store.write(TelemetryPoint("fps", {"client": "c1"}, {"value": v}, t0 + i * step_ms))


class TestSloApi:
    def test_list_slos_is_bare_array(self, rig):
        r = requests.get(f"http://{rig['api'].address}/slos")
        assert r.status_code == 200
        assert r.json() == [
            {"id": "FPS", "description": "Mean delivered frame rate",
             "unit": "frames/s", "min": 24.0, "max": 30.0},
            {"id": "power_w", "description": "Mean apparent power draw",
             "unit": "W", "min": 0.0, "max": 18.0},
        ]

    def test_get_single_slo(self, rig):
        client = ServiceApiClient(rig["api"].address)
        assert client.get_slo("FPS")["unit"] == "frames/s"
        with pytest.raises(UnknownEntityError):
            client.get_slo("Latency")

    def test_value_empty_window_is_204(self, rig):
        r = requests.get(f"http://{rig['api'].address}/slos/FPS/value")
        assert r.status_code == 204
        assert r.content == b""
        client = ServiceApiClient(rig["api"].address)
        assert client.slo_value("FPS") is None

    def test_value_and_fulfilment(self, rig):
        fill_fps(rig["store"], [25.0, 26.0, 27.0])
        rig["clock"].advance_to_ms(1_002_000)
        client = ServiceApiClient(rig["api"].address)
        body = client.slo_value("FPS")
        assert body == {"value": 26.0, "fulfilled": True}

    def test_fulfilment_interval_is_closed(self, rig):
        client = ServiceApiClient(rig["api"].address)
        cases = [(24.0, True), (30.0, True), (23.999, False), (30.001, False)]
        for i, (v, expect) in enumerate(cases):
            ts = 2_000_000 + i * 400_000  # separate windows
            rig["store"].write(TelemetryPoint("fps", {}, {"value": v}, ts))
            rig["clock"].advance_to_ms(ts)
            assert client.slo_value("FPS")["fulfilled"] is expect, v

    def test_query_window_tracks_clock(self, rig):
        fill_fps(rig["store"], [10.0])
        rig["clock"].advance_to_ms(1_000_000)
        client = ServiceApiClient(rig["api"].address)
        assert client.slo_value("FPS")["value"] == 10.0
        rig["clock"].advance_to_ms(1_070_000)  # point now older than the 60s window
        assert client.slo_value("FPS") is None


class TestControlApi:
    def test_list_settings(self, rig):
        r = requests.get(f"http://{rig['api'].address}/settings")
        assert r.json() == [{"id": "EncodingThreadCount",
                             "description": "Number of encoder worker threads",
                             "type": "integer", "min": 0.0, "max": 16.0}]

    def test_get_and_put_value(self, rig):
        client = ServiceApiClient(rig["api"].address)
        assert client.get_value("EncodingThreadCount") == 4
        assert client.set_value("EncodingThreadCount", 9) == 9
        assert rig["service"].threads == 9
        r = requests.get(f"http://{rig['api'].address}/settings/EncodingThreadCount/value")
        assert r.json() == {"value": 9}

    def test_put_validation(self, rig):
        base = f"http://{rig['api'].address}/settings/EncodingThreadCount/value"
        assert requests.put(base, json={}).status_code == 400
        assert requests.put(base, json={"value": "nine"}).status_code == 400
        assert requests.put(base, json={"value": 3.5}).status_code == 400
        assert requests.put(base, json={"value": 99}).status_code == 400
        assert requests.put(base, json={"value": True}).status_code == 400
        assert rig["service"].threads == 4  # nothing reached the controller

    def test_unknown_setting_404(self, rig):
        client = ServiceApiClient(rig["api"].address)
        with pytest.raises(UnknownEntityError):
            client.get_value("Brightness")
        with pytest.raises(UnknownEntityError):
            client.set_value("Brightness", 1)

    def test_controller_down_maps_to_502(self, rig):
        rig["control"].stop()
        rig["api"].controller.close()
        r = requests.get(f"http://{rig['api'].address}/settings/EncodingThreadCount/value")
        assert r.status_code == 502
        client = ServiceApiClient(rig["api"].address)
        with pytest.raises(ControllerUnreachableError):
            client.get_value("EncodingThreadCount")
        # spec listing still works: it never touches the controller
        assert len(client.list_settings()) == 1

    def test_settings_discovered_from_controller_when_absent(self, rig):
        path = rig["tmp"] / "no_settings.json"
        path.write_text(json.dumps({"slos": SLOS}))
        rig["api"].reconfigure(str(path))
        client = ServiceApiClient(rig["api"].address)
        rows = client.list_settings()
        assert [r["id"] for r in rows] == ["EncodingThreadCount"]
        assert rows[0]["type"] == "integer"


class TestAliasedGateway:
    @pytest.fixture()
    def aliased(self, rig):
        aliases = {"FPS": {"id": "ServiceSLO", "description": "Primary service objective"},
                   "EncodingThreadCount": {"id": "ServiceParam",
                                           "description": "Primary service parameter"}}
        path = rig["tmp"] / "with_aliases.json"
        path.write_text(json.dumps({"slos": SLOS, "settings": SETTINGS, "aliases": aliases}))
        rig["api"].reconfigure(str(path))
        return rig

    def test_public_names_replace_internal(self, aliased):
        client = ServiceApiClient(aliased["api"].address)
        ids = [s["id"] for s in client.list_slos()]
        assert ids == ["ServiceSLO", "power_w"]
        assert [s["id"] for s in client.list_settings()] == ["ServiceParam"]

    def test_internal_names_are_gone(self, aliased):
        client = ServiceApiClient(aliased["api"].address)
        with pytest.raises(UnknownEntityError):
            client.get_slo("FPS")
        with pytest.raises(UnknownEntityError):
            client.get_value("EncodingThreadCount")

    def test_behavior_unchanged_under_alias(self, aliased):
        fill_fps(aliased["store"], [25.0, 27.0])
        aliased["clock"].advance_to_ms(1_001_000)
        client = ServiceApiClient(aliased["api"].address)
        assert client.slo_value("ServiceSLO") == {"value": 26.0, "fulfilled": True}
        assert client.set_value("ServiceParam", 12) == 12
        assert aliased["service"].threads == 12

    def test_responses_never_leak_internal_vocabulary(self, aliased):
        recorder = ResponseRecorder()
        client = ServiceApiClient(aliased["api"].address, recorder=recorder)
        client.list_slos()
        client.get_slo("ServiceSLO")
        client.list_settings()
        client.get_setting("ServiceParam")
        client.set_value("ServiceParam", 5)
        client.get_value("ServiceParam")
        blob = "\n".join(r.body for r in recorder.responses)
        for secret in ("FPS", "EncodingThreadCount", "fps.value", "mean("):
            assert secret not in blob

    def test_separate_alias_file_overrides_inline(self, rig):
        alias_path = rig["tmp"] / "aliases.json"
        alias_path.write_text(json.dumps(
            {"aliases": {"FPS": {"id": "Objective0", "description": "d"}}}))
        api2 = ServiceApi(str(rig["config_path"]), rig["api"].controller,
                          rig["store"], clock=rig["clock"], listen="127.0.0.1:0",
                          aliases_path=str(alias_path))
        try:
            client = ServiceApiClient(api2.address)
            assert [s["id"] for s in client.list_slos()] == ["Objective0", "power_w"]
        finally:
            api2.stop()


class TestReconfigure:
    def test_add_slo_via_http(self, rig):
        new = {"slos": SLOS + [{"id": "Lag", "description": "", "query": "last(fps.value, 60s)",
                               "unit": "frames/s", "min": 0, "max": 100}],
               "settings": SETTINGS}
        path = rig["tmp"] / "new.json"
        path.write_text(json.dumps(new))
        client = ServiceApiClient(rig["api"].address)
        resp = client.reconfigure(str(path))
        assert resp == {"ok": True, "slos": 3, "settings": 1}
        assert [s["id"] for s in client.list_slos()] == ["FPS", "power_w", "Lag"]

    def test_reconfigure_without_path_rereads_current_file(self, rig):
        rig["config_path"].write_text(json.dumps({"slos": [SLOS[0]], "settings": SETTINGS}))
        client = ServiceApiClient(rig["api"].address)
        resp = client.reconfigure()
        assert resp["slos"] == 1
        assert [s["id"] for s in client.list_slos()] == ["FPS"]

    def test_broken_config_is_rejected_and_old_kept(self, rig):
        client = ServiceApiClient(rig["api"].address)
        before = client.list_slos()
        bad = rig["tmp"] / "bad.json"
        bad.write_text(json.dumps({"slos": [dict(SLOS[0], min=99)]}))
        with pytest.raises(ValidationError):
            client.reconfigure(str(bad))
        assert client.list_slos() == before
        missing = rig["tmp"] / "absent.json"
        with pytest.raises(ValidationError):
            client.reconfigure(str(missing))
        assert client.list_slos() == before

    @pytest.mark.parametrize("case", ["setting-not-an-object", "alias-file-malformed",
                                      "alias-file-missing", "alias-path-is-a-directory"])
    def test_bad_reconfigure_answers_400_and_keeps_config(self, rig, case):
        alias_path = rig["tmp"] / "aliases.json"
        alias_path.write_text(json.dumps(
            {"aliases": {"FPS": {"id": "Objective0", "description": "d"}}}))
        api = ServiceApi(str(rig["config_path"]), rig["api"].controller, rig["store"],
                         clock=rig["clock"], listen="127.0.0.1:0",
                         aliases_path=str(alias_path))
        client = ServiceApiClient(api.address)
        try:
            before = (client.list_slos(), client.list_settings())
            if case == "setting-not-an-object":
                rig["config_path"].write_text(json.dumps({"slos": SLOS, "settings": ["p"]}))
                named = "'p'"
            elif case == "alias-file-malformed":
                alias_path.write_text("{not json")
                named = str(alias_path)
            else:
                alias_path.unlink()
                if case == "alias-path-is-a-directory":
                    alias_path.mkdir()
                named = str(alias_path)
            r = requests.post(f"http://{api.address}/reconfigure", json={})
            assert r.status_code == 400
            assert named in r.json()["error"]
            assert (client.list_slos(), client.list_settings()) == before
        finally:
            client.close()
            api.stop()


class TestControllerClient:
    def test_make_controller(self):
        c = make_controller("mock:127.0.0.1:7814")
        assert isinstance(c, MockServiceControllerClient)
        with pytest.raises(ValidationError):
            make_controller("grpc:127.0.0.1:1")
        with pytest.raises(ValidationError):
            make_controller("mock:")

    def test_errors_typed(self, rig):
        client = MockServiceControllerClient(rig["control"].address)
        with pytest.raises(UnknownEntityError):
            client.get("Nope")
        with pytest.raises(ValidationError):
            client.set("EncodingThreadCount", 500)
        specs = client.list()
        assert specs[0].id == "EncodingThreadCount"
        assert specs[0].value_type == "integer"
        client.close()

    def test_unreachable(self):
        client = MockServiceControllerClient("127.0.0.1:1")
        with pytest.raises(ControllerUnreachableError):
            client.get("x")

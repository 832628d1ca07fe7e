"""API gateway: SLO observation, setting control, aliasing, hot reload.

One HTTP process serves both halves of the management surface. The SLO
side evaluates declarative store queries and reports fulfilment against
closed [min, max] ranges; the control side proxies get/set/list to a
service controller, guarding ranges and types before anything reaches the
controller. An optional alias map renames SLOs and settings (ids and
descriptions only) so external observers never see internal vocabulary;
ranges, units and behavior are unchanged. POST /reconfigure (or SIGHUP)
atomically swaps in a re-read configuration file.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
from dataclasses import dataclass, replace

from . import linejson
from .clock import WallClock
from .errors import (ControllerUnreachableError, UnknownEntityError,
                     ValidationError)
from .store import RemoteStore, parse_query
from .webutil import JsonHttpServer

log = logging.getLogger("casca.serviceapi")

DEFAULT_LISTEN = "127.0.0.1:7812"


@dataclass(frozen=True)
class SloSpec:
    id: str
    description: str
    query: str
    unit: str
    s_min: float
    s_max: float

    def public(self) -> dict:
        return {"id": self.id, "description": self.description, "unit": self.unit,
                "min": self.s_min, "max": self.s_max}


@dataclass(frozen=True)
class SettingSpec:
    id: str
    description: str
    value_type: str
    p_min: float
    p_max: float

    def public(self) -> dict:
        return {"id": self.id, "description": self.description, "type": self.value_type,
                "min": self.p_min, "max": self.p_max}


def _num(entry: dict, key: str, slo_id: str) -> float:
    v = entry.get(key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{slo_id!r}: {key!r} must be numeric, got {v!r}")
    return float(v)


def parse_slo_entries(entries) -> list[SloSpec]:
    if not isinstance(entries, list):
        raise ValidationError("'slos' must be an array")
    specs: list[SloSpec] = []
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError("each SLO must be an object")
        slo_id = entry.get("id")
        if not isinstance(slo_id, str) or not slo_id:
            raise ValidationError("every SLO needs a non-empty string 'id'")
        if slo_id in seen:
            raise ValidationError(f"duplicate SLO id {slo_id!r}")
        seen.add(slo_id)
        query = entry.get("query")
        if not isinstance(query, str):
            raise ValidationError(f"{slo_id!r}: 'query' must be a string")
        try:
            parse_query(query)
        except ValidationError as exc:
            raise ValidationError(f"SLO {slo_id!r} has an unparseable query: {exc}")
        s_min = _num(entry, "min", slo_id)
        s_max = _num(entry, "max", slo_id)
        if s_min > s_max:
            raise ValidationError(f"{slo_id!r}: min {s_min:g} exceeds max {s_max:g}")
        specs.append(SloSpec(id=slo_id, description=str(entry.get("description", "")),
                             query=query, unit=str(entry.get("unit", "")),
                             s_min=s_min, s_max=s_max))
    return specs


def parse_setting_entries(entries) -> list[SettingSpec]:
    if not isinstance(entries, list):
        raise ValidationError("'settings' must be an array")
    specs: list[SettingSpec] = []
    seen: set[str] = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError(f"each setting must be an object, got {entry!r}")
        sid = entry.get("id")
        if not isinstance(sid, str) or not sid:
            raise ValidationError("every setting needs a non-empty string 'id'")
        if sid in seen:
            raise ValidationError(f"duplicate setting id {sid!r}")
        seen.add(sid)
        value_type = entry.get("type", "float")
        if value_type not in ("integer", "float"):
            raise ValidationError(f"{sid!r}: type must be 'integer' or 'float'")
        p_min = _num(entry, "min", sid)
        p_max = _num(entry, "max", sid)
        if p_min > p_max:
            raise ValidationError(f"{sid!r}: min {p_min:g} exceeds max {p_max:g}")
        specs.append(SettingSpec(id=sid, description=str(entry.get("description", "")),
                                 value_type=value_type, p_min=p_min, p_max=p_max))
    return specs


def parse_alias_map(raw) -> dict[str, tuple[str, str]]:
    """internal name -> (public id, public description); must be a bijection."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValidationError("'aliases' must be an object")
    out: dict[str, tuple[str, str]] = {}
    publics: set[str] = set()
    for internal, entry in raw.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ValidationError(f"alias for {internal!r} must be an object with an 'id'")
        public = entry["id"]
        if public in publics:
            raise ValidationError(f"alias target {public!r} used twice")
        publics.add(public)
        out[internal] = (public, str(entry.get("description", "")))
    return out


def apply_alias(specs: list, alias_map: dict[str, tuple[str, str]]) -> list:
    """Rename mapped specs; pass unmapped ones through untouched."""
    unmapped_ids = {s.id for s in specs if s.id not in alias_map}
    out = []
    for spec in specs:
        if spec.id in alias_map:
            public, description = alias_map[spec.id]
            if public in unmapped_ids:
                raise ValidationError(
                    f"alias {public!r} collides with an existing unmapped id")
            out.append(replace(spec, id=public, description=description))
        else:
            out.append(spec)
    seen: set[str] = set()
    for spec in out:
        if spec.id in seen:
            raise ValidationError(f"aliasing produced duplicate id {spec.id!r}")
        seen.add(spec.id)
    return out


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{what} file {path!r} cannot be read: {exc.strerror}")
    except ValueError as exc:   # not JSON, or not UTF-8
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}")


def parse_slos(path: str) -> list[SloSpec]:
    """SLO list from a configuration file (ignores other keys)."""
    raw = _read_json(path, "SLO")
    if not isinstance(raw, dict) or "slos" not in raw:
        raise ValidationError(f"{path!r} must be an object with a 'slos' array")
    return parse_slo_entries(raw["slos"])


class MockServiceControllerClient(linejson.Client):
    """Service-controller contract over the mock's line-JSON protocol."""

    peer = "controller"
    unreachable = ControllerUnreachableError

    def rejected(self, message: str) -> Exception:
        if message.startswith("no setting"):
            return UnknownEntityError(message)
        return ValidationError(message)

    def get(self, setting: str):
        return self.request({"op": "get", "setting": setting})["value"]

    def set(self, setting: str, value):
        return self.request({"op": "set", "setting": setting, "value": value})["value"]

    def list(self) -> list[SettingSpec]:
        rows = self.request({"op": "list"})["settings"]
        return [SettingSpec(id=r["setting"], description=r.get("description", ""),
                            value_type=r.get("type", "float"),
                            p_min=float(r["min"]), p_max=float(r["max"])) for r in rows]


def make_controller(spec: str):
    scheme, _, addr = spec.partition(":")
    if scheme == "mock" and addr:
        return MockServiceControllerClient(addr)
    raise ValidationError(f"unknown controller spec {spec!r}, expected mock:<host:port>")


class _Config:
    """One immutable configuration generation."""

    def __init__(self, slos: list[SloSpec], settings: list[SettingSpec],
                 alias_map: dict[str, tuple[str, str]]):
        public_slos = apply_alias(slos, alias_map)
        public_settings = apply_alias(settings, alias_map)
        self.slos = {s.id: s for s in public_slos}
        # public setting id -> (public spec, internal controller name)
        self.settings = {pub.id: (pub, orig.id)
                         for pub, orig in zip(public_settings, settings)}
        self.slo_order = [s.id for s in public_slos]
        self.setting_order = [s.id for s in public_settings]


class ServiceApi:
    """The gateway itself; owns the HTTP server and the active _Config."""

    def __init__(self, config_path: str, controller, store, clock=None,
                 listen: str = DEFAULT_LISTEN, aliases_path: str | None = None):
        self.config_path = config_path
        self.aliases_path = aliases_path
        self.controller = controller
        self.store = store
        self.clock = clock if clock is not None else WallClock()
        self._config_lock = threading.Lock()
        self._set_lock = threading.Lock()
        self._config = self._load(config_path)
        self._http = JsonHttpServer(listen, "service-api", [
            ("GET", r"/slos", self._list_slos),
            ("GET", r"/slos/(?P<slo_id>[^/]+)", self._get_slo),
            ("GET", r"/slos/(?P<slo_id>[^/]+)/value", self._get_slo_value),
            ("GET", r"/settings", self._list_settings),
            ("GET", r"/settings/(?P<setting_id>[^/]+)", self._get_setting),
            ("GET", r"/settings/(?P<setting_id>[^/]+)/value", self._get_setting_value),
            ("PUT", r"/settings/(?P<setting_id>[^/]+)/value", self._put_setting_value),
            ("POST", r"/reconfigure", self._post_reconfigure),
        ])

    @property
    def address(self) -> str:
        return self._http.address

    def _load(self, path: str) -> _Config:
        raw = _read_json(path, "configuration")
        if not isinstance(raw, dict):
            raise ValidationError("configuration must be a JSON object")
        slos = parse_slo_entries(raw.get("slos", []))
        if "settings" in raw:
            settings = parse_setting_entries(raw["settings"])
        else:
            settings = self.controller.list()
        alias_raw = raw.get("aliases")
        if self.aliases_path is not None:
            alias_raw = _read_json(self.aliases_path, "alias")
            if isinstance(alias_raw, dict) and "aliases" in alias_raw:
                alias_raw = alias_raw["aliases"]
        return _Config(slos, settings, parse_alias_map(alias_raw))

    # -- SLO side ---------------------------------------------------------

    def _list_slos(self, req):
        cfg = self._config
        return [cfg.slos[i].public() for i in cfg.slo_order]

    def _lookup_slo(self, slo_id: str) -> SloSpec:
        spec = self._config.slos.get(slo_id)
        if spec is None:
            raise UnknownEntityError(f"no SLO named {slo_id!r}")
        return spec

    def _get_slo(self, req, slo_id: str):
        return self._lookup_slo(slo_id).public()

    def slo_value(self, slo_id: str, now_ms: int | None = None):
        """{'value','fulfilled'} for the SLO, or None when the window is empty."""
        spec = self._lookup_slo(slo_id)
        if now_ms is None:
            now_ms = self.clock.now_ms()
        value = self.store.query(spec.query, now_ms)
        if value is None:
            return None
        return {"value": value, "fulfilled": spec.s_min <= value <= spec.s_max}

    def _get_slo_value(self, req, slo_id: str):
        result = self.slo_value(slo_id)
        if result is None:
            return 204, None
        return result

    # -- control side -----------------------------------------------------

    def _list_settings(self, req):
        cfg = self._config
        return [cfg.settings[i][0].public() for i in cfg.setting_order]

    def _lookup_setting(self, setting_id: str) -> tuple[SettingSpec, str]:
        entry = self._config.settings.get(setting_id)
        if entry is None:
            raise UnknownEntityError(f"no setting named {setting_id!r}")
        return entry

    def _get_setting(self, req, setting_id: str):
        return self._lookup_setting(setting_id)[0].public()

    def _get_setting_value(self, req, setting_id: str):
        _, internal = self._lookup_setting(setting_id)
        return {"value": self.controller.get(internal)}

    def _put_setting_value(self, req, setting_id: str):
        spec, internal = self._lookup_setting(setting_id)
        if not isinstance(req.body, dict) or "value" not in req.body:
            raise ValidationError("body must be a JSON object with a 'value' key")
        value = req.body["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"value must be numeric, got {value!r}")
        if spec.value_type == "integer":
            if float(value) != int(value):
                raise ValidationError(f"{setting_id} takes integers, got {value!r}")
            value = int(value)
        if not spec.p_min <= value <= spec.p_max:
            raise ValidationError(
                f"value {value} outside [{spec.p_min:g},{spec.p_max:g}] for {setting_id}")
        with self._set_lock:
            applied = self.controller.set(internal, value)
        return {"value": applied}

    # -- reconfiguration --------------------------------------------------

    def reconfigure(self, path: str | None = None) -> dict:
        with self._config_lock:
            target = path or self.config_path
            new_config = self._load(target)   # raises before any state changes
            self._config = new_config
            self.config_path = target
        log.info("reconfigured from %s: %d SLOs, %d settings", target,
                 len(new_config.slos), len(new_config.settings))
        return {"ok": True, "slos": len(new_config.slos), "settings": len(new_config.settings)}

    def _post_reconfigure(self, req):
        path = None
        if isinstance(req.body, dict):
            path = req.body.get("path")
            if path is not None and not isinstance(path, str):
                raise ValidationError("'path' must be a string")
        return self.reconfigure(path)

    def stop(self) -> None:
        self._http.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="service-api",
                                     description="SLO and service-control HTTP gateway.")
    parser.add_argument("--slos", required=True, help="configuration JSON file")
    parser.add_argument("--controller", required=True, help="controller spec, e.g. mock:127.0.0.1:7814")
    parser.add_argument("--store", required=True, help="host:port of the store server")
    parser.add_argument("--aliases", help="separate alias-map JSON file")
    parser.add_argument("--listen", default=DEFAULT_LISTEN, help="host:port to bind")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")

    try:
        api = ServiceApi(args.slos, make_controller(args.controller),
                         RemoteStore(args.store), listen=args.listen,
                         aliases_path=args.aliases)
    except (ValidationError, ControllerUnreachableError, OSError) as exc:
        parser.error(str(exc))

    def on_hup(signum, frame):
        try:
            api.reconfigure()
        except ValidationError as exc:
            log.error("reconfigure failed, keeping old configuration: %s", exc)

    signal.signal(signal.SIGHUP, on_hup)
    log.info("service API on %s", api.address)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        api.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

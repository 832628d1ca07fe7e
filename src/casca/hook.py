"""Configurable bridge from bus topics to the time-series store.

One hook subscribes to a topic pattern, deserializes each payload, applies
a declarative field/tag mapping and writes the result as a TelemetryPoint.
Everything is driven by a JSON config file, so the same artifact covers
any number of data types; a deployment runs one hook per config.

Config keys: `bus`, `topic`, `interpreter`, `measurement`, `fields`,
`tags`, `timestamp`, `drop_unmapped`. `fields` maps JSON-pointer paths to
field names; each `tags` entry selects from the payload (`payload_path`),
the topic (`topic_segment`), or a literal (`constant`).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import threading
from dataclasses import dataclass

from . import bus as busmod
from .bus import Envelope, validate_pattern
from .errors import ConfigError, InterpretationError
from .store import RemoteStore, TelemetryPoint, TimeSeriesStore

log = logging.getLogger("casca.hook")

INTERPRETERS = ("json",)


def parse_pointer(path: str) -> list[str]:
    """Split a JSON-pointer-style path into reference tokens."""
    if not isinstance(path, str) or not path.startswith("/"):
        raise ConfigError("fields", f"payload path {path!r} must start with '/'")
    tokens = []
    for raw in path.split("/")[1:]:
        tokens.append(raw.replace("~1", "/").replace("~0", "~"))
    return tokens


def resolve_pointer(doc, tokens: list[str]):
    """Value at the token path, or None when any step is missing."""
    current = doc
    for tok in tokens:
        if isinstance(current, dict):
            if tok not in current:
                return None
            current = current[tok]
        elif isinstance(current, list):
            if not tok.isdigit() or int(tok) >= len(current):
                return None
            current = current[int(tok)]
        else:
            return None
    return current


@dataclass(frozen=True)
class TagRule:
    name: str
    source: str              # payload_path | topic_segment | constant
    selector: object         # token list | segment index | literal string


@dataclass(frozen=True)
class HookConfig:
    bus_address: str
    topic_pattern: str
    measurement: str
    field_map: tuple          # ((tokens, field_name, raw_path), ...)
    tag_rules: tuple = ()
    interpreter: str = "json"
    timestamp: object = "envelope"   # "envelope" or token list into the payload
    drop_unmapped: bool = True


def load_hook_config(path: str) -> HookConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("path", f"hook config {path!r} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigError("path", f"hook config {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("root", "hook config must be a JSON object")

    allowed = {"bus", "topic", "interpreter", "measurement", "fields", "tags",
               "timestamp", "drop_unmapped"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError("root", f"unknown keys {sorted(unknown)}")

    topic = raw.get("topic")
    if not isinstance(topic, str):
        raise ConfigError("topic", "required and must be a string")
    validate_pattern(topic)

    measurement = raw.get("measurement")
    if not isinstance(measurement, str) or not measurement:
        raise ConfigError("measurement", "required and must be a non-empty string")

    interpreter = raw.get("interpreter", "json")
    if interpreter not in INTERPRETERS:
        raise ConfigError("interpreter", f"{interpreter!r} is not one of {INTERPRETERS}")

    fields = raw.get("fields")
    if not isinstance(fields, dict) or not fields:
        raise ConfigError("fields", "must be a non-empty object of path -> field name")
    field_map = []
    for p, name in fields.items():
        if not isinstance(name, str) or not name:
            raise ConfigError("fields", f"field name for {p!r} must be a non-empty string")
        field_map.append((tuple(parse_pointer(p)), name, p))

    tag_rules = []
    tags = raw.get("tags", {})
    if not isinstance(tags, dict):
        raise ConfigError("tags", "must be an object of tag name -> selector")
    for name, rule in tags.items():
        if not isinstance(rule, dict) or len(rule) != 1:
            raise ConfigError("tags", f"selector for {name!r} must have exactly one key")
        source, selector = next(iter(rule.items()))
        if source == "payload_path":
            selector = tuple(parse_pointer(selector))
        elif source == "topic_segment":
            if not isinstance(selector, int) or selector < 0:
                raise ConfigError("tags", f"topic_segment for {name!r} must be a non-negative integer")
        elif source == "constant":
            if not isinstance(selector, str):
                raise ConfigError("tags", f"constant for {name!r} must be a string")
        else:
            raise ConfigError("tags", f"unknown source {source!r} for {name!r}")
        tag_rules.append(TagRule(name=name, source=source, selector=selector))

    timestamp = raw.get("timestamp", "envelope")
    if timestamp == "envelope":
        ts_spec: object = "envelope"
    elif isinstance(timestamp, dict) and set(timestamp) == {"payload_path"}:
        ts_spec = tuple(parse_pointer(timestamp["payload_path"]))
    else:
        raise ConfigError("timestamp", "must be \"envelope\" or {\"payload_path\": ...}")

    drop_unmapped = raw.get("drop_unmapped", True)
    if not isinstance(drop_unmapped, bool):
        raise ConfigError("drop_unmapped", "must be a boolean")

    return HookConfig(
        bus_address=raw.get("bus", busmod.DEFAULT_LISTEN),
        topic_pattern=topic,
        measurement=measurement,
        field_map=tuple(field_map),
        tag_rules=tuple(tag_rules),
        interpreter=interpreter,
        timestamp=ts_spec,
        drop_unmapped=drop_unmapped,
    )


def _coerce(value) -> float | None:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return None


def interpret(config: HookConfig, env: Envelope) -> TelemetryPoint | None:
    """Map one envelope to a point; None means skip.

    A mapped field that is absent or non-numeric skips the envelope when
    drop_unmapped is set, otherwise raises InterpretationError. Unmapped
    payload keys are always discarded.
    """
    payload = env.payload
    out_fields: dict[str, float] = {}
    for tokens, name, raw_path in config.field_map:
        value = _coerce(resolve_pointer(payload, list(tokens)))
        if value is None:
            if config.drop_unmapped:
                return None
            raise InterpretationError(
                f"no numeric value at {raw_path!r} on topic {env.topic}")
        out_fields[name] = value

    out_tags: dict[str, str] = {}
    segments = env.topic.split("/")
    for rule in config.tag_rules:
        if rule.source == "constant":
            out_tags[rule.name] = rule.selector
        elif rule.source == "topic_segment":
            if rule.selector < len(segments):
                out_tags[rule.name] = segments[rule.selector]
        else:
            value = resolve_pointer(payload, list(rule.selector))
            if isinstance(value, str):
                out_tags[rule.name] = value
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out_tags[rule.name] = str(value)

    if config.timestamp == "envelope":
        ts = env.ts
    else:
        raw_ts = resolve_pointer(payload, list(config.timestamp))
        if isinstance(raw_ts, bool) or not isinstance(raw_ts, (int, float)):
            if config.drop_unmapped:
                return None
            raise InterpretationError(f"no numeric timestamp in payload on topic {env.topic}")
        ts = int(raw_ts)

    return TelemetryPoint(measurement=config.measurement, tags=out_tags,
                          fields=out_fields, ts=ts)


class TelemetryHook:
    """Runs one hook config against a store.

    Two modes: `bind(broker)` attaches an in-process callback so delivery is
    synchronous with publish; `start()` subscribes over TCP in a thread.
    """

    def __init__(self, config: HookConfig, store):
        self.config = config
        self.store = store
        self.processed = 0
        self.skipped = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._subscription = None

    def handle(self, env: Envelope) -> None:
        try:
            point = interpret(self.config, env)
        except InterpretationError as exc:
            log.warning("dropping envelope: %s", exc)
            self.skipped += 1
            return
        if point is None:
            self.skipped += 1
            return
        try:
            self.store.write(point)
            self.processed += 1
        except Exception as exc:
            log.warning("store write failed, envelope dropped: %s", exc)

    def bind(self, broker: busmod.Broker) -> None:
        broker.attach(self.config.topic_pattern, self.handle)

    def unbind(self, broker: busmod.Broker) -> None:
        broker.detach(self.handle)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run_loop, daemon=True,
                                        name=f"hook-{self.config.measurement}")
        self._thread.start()

    def _run_loop(self) -> None:
        backoff = 0.2
        attempts = 0
        while not self._stop.is_set():
            try:
                self._subscription = busmod.subscribe_remote(
                    self.config.bus_address, self.config.topic_pattern)
            except busmod.BusConnectionError as exc:
                attempts += 1
                if attempts > 8:
                    log.error("giving up on bus %s: %s", self.config.bus_address, exc)
                    return
                self._stop.wait(backoff)
                backoff = min(backoff * 2, 5.0)
                continue
            attempts = 0
            backoff = 0.2
            sub = self._subscription
            while not self._stop.is_set():
                env = sub.get(timeout=0.2)
                if env is not None:
                    self.handle(env)
                elif sub.closed:
                    break
            sub.close()

    def stop(self) -> None:
        self._stop.set()
        if self._subscription is not None:
            self._subscription.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hook", description="Bridge bus telemetry into a store.")
    parser.add_argument("--config", required=True, help="hook config JSON file")
    parser.add_argument("--store", help="host:port of a store server (required standalone)")
    parser.add_argument("--journal", help="write points to a local NDJSON journal instead")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")

    try:
        config = load_hook_config(args.config)
    except ConfigError as exc:
        parser.error(str(exc))
    env_bus = os.environ.get("CASCA_BUS")
    if env_bus:
        config = HookConfig(**{**config.__dict__, "bus_address": env_bus})

    if args.store:
        store = RemoteStore(args.store)
    elif args.journal:
        store = TimeSeriesStore(journal_path=args.journal)
    else:
        parser.error("one of --store or --journal is required")

    hook = TelemetryHook(config, store)
    hook.start()
    log.info("hook on %s pattern %s -> measurement %s",
             config.bus_address, config.topic_pattern, config.measurement)
    try:
        while True:
            hook._stop.wait(3600)
    except KeyboardInterrupt:
        pass
    finally:
        hook.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

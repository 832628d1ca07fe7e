"""Simulated media-transcoding service with telemetry reporters.

Stands in for a real transcoder, its watching clients, and a smart power
plug. Frame rate follows a diminishing-returns curve in the thread count,
power a linear one; both take optional gaussian noise and the FPS curve
dips while scheduled buffer intervals are active. A line-delimited JSON
control protocol (ops get/set/list) exposes the EncodingThreadCount
setting; reporters publish FPS and power envelopes on the bus.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import random
import sys
import threading
from dataclasses import dataclass

from . import linejson
from .bus import BusClient, Envelope
from .clock import ScaledClock, WallClock
from .errors import BusConnectionError, UnknownEntityError, ValidationError

log = logging.getLogger("casca.mock")

THREAD_SETTING = "EncodingThreadCount"
THREAD_DESCRIPTION = "Number of encoder worker threads"


@dataclass(frozen=True)
class WorkloadModel:
    f_max: float = 40.0
    kappa: float = 6.5
    p_idle: float = 13.0
    p_per_thread: float = 0.55
    noise_fps: float = 0.0
    noise_power: float = 0.0
    seed: int = 0
    buffer_schedule: tuple = ()   # (start_s, duration_s, depth) triples

    def validate(self) -> "WorkloadModel":
        if self.f_max <= 0:
            raise ValidationError(f"f_max must be positive, got {self.f_max}")
        if self.kappa <= 0:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")
        if self.p_idle < 0:
            raise ValidationError(f"p_idle must be non-negative, got {self.p_idle}")
        if self.noise_fps < 0 or self.noise_power < 0:
            raise ValidationError("noise levels must be non-negative")
        for entry in self.buffer_schedule:
            start, duration, depth = entry
            if duration < 0:
                raise ValidationError(f"buffer duration must be non-negative, got {duration}")
            if not 0.0 <= depth <= 1.0:
                raise ValidationError(f"buffer depth must be in [0,1], got {depth}")
        return self


def load_model(path: str) -> WorkloadModel:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return model_from_dict(raw)


def model_from_dict(raw: dict) -> WorkloadModel:
    if not isinstance(raw, dict):
        raise ValidationError("workload model must be a JSON object")
    known = {f.name for f in WorkloadModel.__dataclass_fields__.values()}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown model keys {sorted(unknown)}")
    kwargs = dict(raw)
    if "buffer_schedule" in kwargs:
        kwargs["buffer_schedule"] = tuple(tuple(e) for e in kwargs["buffer_schedule"])
    return WorkloadModel(**kwargs).validate()


def buffer_depth(t_s: float, schedule) -> float:
    """Depth of the deepest active buffering interval at time t (0 if none)."""
    depth = 0.0
    for start, duration, d in schedule:
        if start <= t_s < start + duration:
            depth = max(depth, d)
    return depth


def fps_model(threads: int, t_s: float, model: WorkloadModel,
              rng: random.Random | None = None) -> float:
    """Frames per second at the given thread count and sim time."""
    if threads == 0:
        return 0.0
    base = model.f_max * (1.0 - math.exp(-threads / model.kappa))
    base *= 1.0 - buffer_depth(t_s, model.buffer_schedule)
    if rng is not None and model.noise_fps > 0:
        base += rng.gauss(0.0, model.noise_fps)
    return max(base, 0.0)


def power_model(threads: int, model: WorkloadModel,
                rng: random.Random | None = None) -> float:
    """Apparent power draw in watts at the given thread count."""
    base = model.p_idle + model.p_per_thread * threads
    if rng is not None and model.noise_power > 0:
        base += rng.gauss(0.0, model.noise_power)
    return max(base, model.p_idle / 2.0)


@dataclass
class _Setting:
    name: str
    description: str
    value_type: str
    min_value: float
    max_value: float
    value: float


class MockService:
    """Owns the service state; all access goes through the lock."""

    def __init__(self, model: WorkloadModel, clock=None, epoch_ms: int | None = None,
                 initial_threads: int = 0, thread_range: tuple = (0, 16)):
        self.model = model.validate()
        self.clock = clock if clock is not None else WallClock()
        self.epoch_ms = self.clock.now_ms() if epoch_ms is None else epoch_ms
        self._lock = threading.RLock()
        lo, hi = thread_range
        if not lo <= initial_threads <= hi:
            raise ValidationError(f"initial threads {initial_threads} outside [{lo},{hi}]")
        self._settings = {THREAD_SETTING: _Setting(
            name=THREAD_SETTING, description=THREAD_DESCRIPTION, value_type="integer",
            min_value=float(lo), max_value=float(hi), value=float(initial_threads))}

    def sim_time_s(self, now_ms: int | None = None) -> float:
        if now_ms is None:
            now_ms = self.clock.now_ms()
        return (now_ms - self.epoch_ms) / 1000.0

    @property
    def threads(self) -> int:
        with self._lock:
            return int(self._settings[THREAD_SETTING].value)

    def get(self, name: str) -> float:
        with self._lock:
            if name not in self._settings:
                raise UnknownEntityError(f"no setting named {name!r}")
            s = self._settings[name]
            return int(s.value) if s.value_type == "integer" else s.value

    def set(self, name: str, value) -> float:
        with self._lock:
            if name not in self._settings:
                raise UnknownEntityError(f"no setting named {name!r}")
            s = self._settings[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(f"value for {name} must be numeric, got {value!r}")
            if s.value_type == "integer" and float(value) != int(value):
                raise ValidationError(f"{name} takes integers, got {value!r}")
            if not s.min_value <= float(value) <= s.max_value:
                raise ValidationError(
                    f"value {value} outside [{s.min_value:g},{s.max_value:g}] for {name}")
            s.value = float(value)
            return int(s.value) if s.value_type == "integer" else s.value

    def list(self) -> list[dict]:
        with self._lock:
            return [{
                "setting": s.name,
                "description": s.description,
                "type": s.value_type,
                "min": s.min_value,
                "max": s.max_value,
                "value": int(s.value) if s.value_type == "integer" else s.value,
            } for s in self._settings.values()]


class ControlServer(linejson.Server):
    """Line-delimited JSON control endpoint for one MockService."""

    def __init__(self, service: MockService, listen: str = "127.0.0.1:0"):
        self.service = service
        super().__init__(listen, linejson.answering(self._handle))

    def _handle(self, req) -> dict:
        if not isinstance(req, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = req.get("op")
        try:
            if op == "get":
                return {"ok": True, "value": self.service.get(req.get("setting"))}
            if op == "set":
                value = self.service.set(req.get("setting"), req.get("value"))
                return {"ok": True, "value": value}
            if op == "list":
                return {"ok": True, "settings": self.service.list()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (ValidationError, UnknownEntityError) as exc:
            return {"ok": False, "error": str(exc)}


class Reporter:
    """Periodic telemetry publisher; subclasses supply the payload."""

    def __init__(self, service: MockService, publish, topic: str, period_s: float):
        self.service = service
        self.publish = publish
        self.topic = topic
        self.period_s = period_s
        # Seed string mixes the model seed with the topic so reporters on
        # different topics draw independent, reproducible noise.
        self.rng = random.Random(f"{service.model.seed}/{topic}")
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def payload(self, now_ms: int) -> dict:
        raise NotImplementedError

    def sample(self, now_ms: int) -> Envelope:
        return Envelope(topic=self.topic, payload=self.payload(now_ms), ts=now_ms)

    def tick(self, now_ms: int) -> None:
        self.publish(self.sample(now_ms))

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"reporter-{self.topic}")
        self._thread.start()

    def _run(self) -> None:
        clock = self.service.clock
        next_ms = clock.now_ms() + int(self.period_s * 1000)
        while not self._stop.is_set():
            now = clock.now_ms()
            if now < next_ms:
                clock.sleep(min((next_ms - now) / 1000.0, 0.5))
                continue
            try:
                self.tick(next_ms)
            except BusConnectionError as exc:
                log.warning("publish failed on %s, retrying: %s", self.topic, exc)
                clock.sleep(0.5)
                continue
            next_ms += int(self.period_s * 1000)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class FpsReporter(Reporter):
    def payload(self, now_ms: int) -> dict:
        fps = fps_model(self.service.threads, self.service.sim_time_s(now_ms),
                        self.service.model, self.rng)
        return {"fps": fps}


class PowerReporter(Reporter):
    """Publishes smart-plug-shaped readings: {"ENERGY":{"ApparentPower": w}}."""

    def payload(self, now_ms: int) -> dict:
        w = power_model(self.service.threads, self.service.model, self.rng)
        return {"ENERGY": {"ApparentPower": w}}


def make_reporter(kind: str, service: MockService, publish, topic: str,
                  period_s: float) -> Reporter:
    if kind == "fps":
        return FpsReporter(service, publish, topic, period_s)
    if kind == "power":
        return PowerReporter(service, publish, topic, period_s)
    raise ValidationError(f"unknown reporter kind {kind!r}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mock-service",
                                     description="Simulated transcoding service.")
    parser.add_argument("--model", help="workload model JSON file")
    parser.add_argument("--listen", default="127.0.0.1:7814", help="control host:port")
    parser.add_argument("--clock-multiplier", type=float, default=1.0,
                        help="sim seconds per wall second")
    parser.add_argument("--bus", help="bus host:port for the reporters")
    parser.add_argument("--fps-topic", default="fps/c1")
    parser.add_argument("--power-topic", default="power/plug/SENSOR")
    parser.add_argument("--period", type=float, default=1.0, help="reporter period, sim seconds")
    parser.add_argument("--initial-threads", type=int, default=0)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")

    model = load_model(args.model) if args.model else WorkloadModel()
    clock = WallClock() if args.clock_multiplier == 1.0 else ScaledClock(args.clock_multiplier)
    try:
        service = MockService(model, clock=clock, initial_threads=args.initial_threads)
        control = ControlServer(service, listen=args.listen)
    except (ValidationError, OSError) as exc:
        parser.error(str(exc))
    log.info("mock service on %s (threads=%d)", control.address, service.threads)

    reporters: list[Reporter] = []
    if args.bus:
        client = BusClient(args.bus)
        reporters.append(FpsReporter(service, client.publish, args.fps_topic, args.period))
        reporters.append(PowerReporter(service, client.publish, args.power_topic, args.period))
        for r in reporters:
            r.start()
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        for r in reporters:
            r.stop()
        control.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

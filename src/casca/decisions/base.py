"""Shared control-loop scaffolding for the three decision systems.

A system exposes `start()` (discovery), `step(index, now_ms)` (one
decision without any waiting) and `run()` (the standalone loop that
sleeps tau between steps). Keeping the wait out of `step` lets a
simulation scheduler drive the same code under a logical clock.

Step logs go to CSV with generic column names (state0.., action0..,
reward) so logs from obscured and revealed runs are comparable byte for
byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
from dataclasses import dataclass

from ..clock import WallClock
from ..clients import ControlApiClient, EmmaApiClient, SloApiClient
from ..errors import CascaError, ValidationError

log = logging.getLogger("casca.decisions")


@dataclass(frozen=True)
class ControlLoopConfig:
    slo_api: str
    control_api: str
    emma_api: str
    tau_s: float = 60.0
    seed: int = 0
    max_steps: int = 1
    power_slo_id: str = "power_w"
    emma_country: str = "AT"
    emma_granularity: str = "hourly"

    def validate(self) -> "ControlLoopConfig":
        if self.tau_s <= 0:
            raise ValidationError(f"tau_s must be positive, got {self.tau_s}")
        if self.max_steps <= 0:
            raise ValidationError(f"max_steps must be positive, got {self.max_steps}")
        return self


LOOP_KEYS = ("slo_api", "control_api", "emma_api", "tau_s", "seed", "max_steps",
             "power_slo_id", "emma_country", "emma_granularity")


def loop_config_from_dict(raw: dict) -> ControlLoopConfig:
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    missing = [k for k in ("slo_api", "control_api", "emma_api") if k not in raw]
    if missing:
        raise ValidationError(f"config is missing {missing}")
    kwargs = {k: raw[k] for k in LOOP_KEYS if k in raw}
    return ControlLoopConfig(**kwargs).validate()


@dataclass
class StepRecord:
    step: int
    ts: int
    state: tuple | None = None    # values observed this step
    action: tuple | None = None   # values written this step
    reward: float | None = None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class DecisionSystem:
    """Base class; subclasses implement discovery and the step body."""

    name = "base"
    state_dim = 0
    action_dim = 1
    extra_observation = False   # True when one trailing observe-only event is needed

    def __init__(self, config: ControlLoopConfig, clock=None, recorder=None):
        self.config = config.validate()
        self.clock = clock if clock is not None else WallClock()
        self.slo_api = SloApiClient(config.slo_api, recorder=recorder)
        self.control_api = ControlApiClient(config.control_api, recorder=recorder)
        self.emma_api = EmmaApiClient(config.emma_api, recorder=recorder)
        self.records: list[StepRecord] = []

    def start(self) -> None:
        """Discovery; called once before the first step."""

    def step(self, index: int, now_ms: int) -> StepRecord | None:
        raise NotImplementedError

    def finish(self) -> None:
        """Called after the last step."""

    def total_events(self) -> int:
        return self.config.max_steps + (1 if self.extra_observation else 0)

    def run(self) -> list[StepRecord]:
        """Standalone loop: step, wait tau, repeat."""
        self.start()
        events = self.total_events()
        for index in range(events):
            try:
                record = self.step(index, self.clock.now_ms())
            except CascaError as exc:
                log.error("%s aborted at step %d: %s", self.name, index, exc)
                raise
            if record is not None:
                self.records.append(record)
            if index < events - 1:
                self.clock.sleep(self.config.tau_s)
        self.finish()
        return self.records

    def header(self) -> list[str]:
        return (["step", "ts"]
                + [f"state{i}" for i in range(self.state_dim)]
                + [f"action{i}" for i in range(self.action_dim)]
                + ["reward"])

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header())
            for rec in self.records:
                state = rec.state if rec.state is not None else (None,) * self.state_dim
                action = rec.action if rec.action is not None else (None,) * self.action_dim
                if len(state) != self.state_dim or len(action) != self.action_dim:
                    raise ValidationError(
                        f"step {rec.step} has {len(state)}/{len(action)} cells, "
                        f"expected {self.state_dim}/{self.action_dim}")
                writer.writerow([rec.step, rec.ts]
                                + [_cell(v) for v in state]
                                + [_cell(v) for v in action]
                                + [_cell(rec.reward)])

    def close(self) -> None:
        self.slo_api.close()
        self.control_api.close()
        self.emma_api.close()


def main(builder, prog: str, description: str, argv: list[str] | None = None) -> int:
    """Command-line loop shared by rds, gds and rlds: config in, step log out."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--config", required=True, help="loop config JSON file")
    parser.add_argument("--out", default=f"{prog}_steps.csv", help="step log CSV path")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        system = builder(raw)
    except (OSError, ValueError, KeyError, TypeError, CascaError) as exc:
        parser.error(f"bad config {args.config!r}: {exc}")
    try:
        system.run()
        system.write_csv(args.out)
    finally:
        system.close()
    log.info("wrote %d rows to %s", len(system.records), args.out)
    return 0

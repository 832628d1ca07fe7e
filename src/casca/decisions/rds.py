"""Random decision system: a fresh uniform parameter value every step."""

from __future__ import annotations

import random
import sys

from ..errors import ValidationError
from . import base
from .base import ControlLoopConfig, DecisionSystem, StepRecord, loop_config_from_dict


class RdsSystem(DecisionSystem):
    name = "rds"
    state_dim = 0
    action_dim = 1

    def __init__(self, config: ControlLoopConfig, param_id: str, clock=None, recorder=None):
        super().__init__(config, clock=clock, recorder=recorder)
        self.param_id = param_id
        self.rng = random.Random(config.seed)
        self._spec: dict | None = None

    def start(self) -> None:
        self._spec = self.control_api.get_setting(self.param_id)

    def draw(self) -> float:
        p_min, p_max = self._spec["min"], self._spec["max"]
        if self._spec.get("type") == "integer":
            return self.rng.randint(int(p_min), int(p_max))
        return self.rng.uniform(p_min, p_max)

    def step(self, index: int, now_ms: int) -> StepRecord:
        value = self.draw()
        applied = self.control_api.set_value(self.param_id, value)
        return StepRecord(step=index, ts=now_ms, state=(), action=(applied,))


def build_rds(raw: dict, clock=None, recorder=None) -> RdsSystem:
    param_id = raw.get("param_id")
    if not isinstance(param_id, str) or not param_id:
        raise ValidationError("config needs a 'param_id' string")
    return RdsSystem(loop_config_from_dict(raw), param_id, clock=clock, recorder=recorder)


def main(argv: list[str] | None = None) -> int:
    return base.main(build_rds, "rds", "Random decision system.", argv)


if __name__ == "__main__":
    sys.exit(main())

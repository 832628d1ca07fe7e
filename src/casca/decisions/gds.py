"""Greedy decision system: one signed step against the SLO error.

Per time-step: read the SLO and parameter, optionally convert the SLO
value to a footprint by multiplying with the current grid intensity,
move the parameter by delta against (or with) the correlation sign
lambda when the SLO sits outside its range, clamp, apply.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..errors import ValidationError
from . import base
from .base import ControlLoopConfig, DecisionSystem, StepRecord, loop_config_from_dict


@dataclass(frozen=True)
class GdsConfig:
    slo_id: str
    param_id: str
    delta: float = 1.0
    lam: int = 1            # correlation of parameter and SLO: +1 or -1
    is_carbon: bool = False

    def validate(self) -> "GdsConfig":
        if self.lam not in (-1, 1):
            raise ValidationError(f"lambda must be -1 or 1, got {self.lam}")
        if self.delta <= 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        return self


def gds_decide(s_value: float, s_min: float, s_max: float,
               p_value: float, p_min: float, p_max: float,
               delta: float, lam: int, intensity: float | None = None) -> float:
    """Next parameter value for one greedy step.

    With intensity given, the SLO value is first scaled by it (the
    carbon-SLO case where the raw reading is power). Inside [s_min, s_max]
    the parameter is kept; above the range it moves by -lam*delta, below
    by +lam*delta; the result is clamped into [p_min, p_max].
    """
    if intensity is not None:
        s_value = s_value * intensity
    new_p = p_value
    if s_value > s_max:
        new_p = p_value - lam * delta
    elif s_value < s_min:
        new_p = p_value + lam * delta
    if new_p < p_min:
        new_p = p_min
    if new_p > p_max:
        new_p = p_max
    return new_p


class GdsSystem(DecisionSystem):
    name = "gds"
    state_dim = 2     # raw SLO reading, parameter value before the step
    action_dim = 1

    def __init__(self, config: ControlLoopConfig, gds: GdsConfig, clock=None, recorder=None):
        super().__init__(config, clock=clock, recorder=recorder)
        self.gds = gds.validate()
        self._slo_spec: dict | None = None
        self._param_spec: dict | None = None

    def start(self) -> None:
        self._slo_spec = self.slo_api.get_slo(self.gds.slo_id)
        self._param_spec = self.control_api.get_setting(self.gds.param_id)

    def step(self, index: int, now_ms: int) -> StepRecord:
        result = self.slo_api.slo_value(self.gds.slo_id)
        if result is None:
            # No data in the window: leave the parameter alone this step.
            return StepRecord(step=index, ts=now_ms)
        s_value = result["value"]
        intensity = None
        if self.gds.is_carbon:
            intensity = self.emma_api.intensity(
                self.config.emma_country, now_ms, self.config.emma_granularity)
        p_value = self.control_api.get_value(self.gds.param_id)
        new_p = gds_decide(s_value, self._slo_spec["min"], self._slo_spec["max"],
                           p_value, self._param_spec["min"], self._param_spec["max"],
                           self.gds.delta, self.gds.lam, intensity)
        if self._param_spec.get("type") == "integer":
            new_p = int(round(new_p))
        applied = self.control_api.set_value(self.gds.param_id, new_p)
        return StepRecord(step=index, ts=now_ms, state=(s_value, p_value), action=(applied,))


def build_gds(raw: dict, clock=None, recorder=None) -> GdsSystem:
    slo_id = raw.get("slo_id")
    param_id = raw.get("param_id")
    if not isinstance(slo_id, str) or not slo_id:
        raise ValidationError("config needs a 'slo_id' string")
    if not isinstance(param_id, str) or not param_id:
        raise ValidationError("config needs a 'param_id' string")
    gds = GdsConfig(slo_id=slo_id, param_id=param_id,
                    delta=raw.get("delta", 1.0), lam=raw.get("lambda", 1),
                    is_carbon=raw.get("is_carbon", False))
    return GdsSystem(loop_config_from_dict(raw), gds, clock=clock, recorder=recorder)


def main(argv: list[str] | None = None) -> int:
    return base.main(build_gds, "gds", "Greedy decision system.", argv)


if __name__ == "__main__":
    sys.exit(main())

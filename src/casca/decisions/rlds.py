"""Learning decision system: policy-gradient control over the APIs.

Each event observes the full MDP state. The reward for the previous
action only becomes computable at that point, so rows are finalized one
event late and a run of N steps performs N+1 observations; the log then
carries one trailing observation-only row, which makes every logged
reward recomputable from the next row's state columns.

API failures truncate the episode (no reward is invented) and training
simply continues with the next observable state.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass

import numpy as np

from ..errors import CascaError, StateUnavailableError, ValidationError
from . import base
from .base import ControlLoopConfig, DecisionSystem, StepRecord, loop_config_from_dict
from .mdp import MdpState, StateBuilder, reward
from .policy import CategoricalPolicy, PolicyConfig, PpoTrainer, action_bins

log = logging.getLogger("casca.rlds")


@dataclass
class _Pending:
    index: int
    ts: int
    state: MdpState
    norm: np.ndarray
    bin_index: int
    logp: float
    applied: float


class RldsSystem(DecisionSystem):
    name = "rlds"
    action_dim = 1
    extra_observation = True

    def __init__(self, config: ControlLoopConfig, param_ids: list[str], slo_ids: list[str],
                 policy_config: PolicyConfig | None = None, explore: bool = True,
                 checkpoint_path: str | None = None, checkpoint_every: int = 0,
                 clock=None, recorder=None):
        super().__init__(config, clock=clock, recorder=recorder)
        if len(param_ids) != 1:
            raise ValidationError("exactly one parameter is supported")
        self.param_ids = list(param_ids)
        self.slo_ids = list(slo_ids)
        self.policy_config = (policy_config or PolicyConfig()).validate()
        self.explore = explore
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.builder = StateBuilder(self.slo_api, self.control_api, self.emma_api,
                                    self.param_ids, self.slo_ids,
                                    config.power_slo_id, config.emma_country,
                                    config.emma_granularity)
        self.policy: CategoricalPolicy | None = None
        self.trainer: PpoTrainer | None = None
        self._pending: _Pending | None = None
        self._integer_param = False
        self._completed = 0
        self.state_dim = 3 * len(self.param_ids) + 3 * len(self.slo_ids) + 1

    def start(self) -> None:
        self.builder.discover()
        spec = self.builder.param_specs[self.param_ids[0]]
        self._integer_param = spec.get("type") == "integer"
        bins = self.policy_config.bins
        if bins is None:
            if self._integer_param:
                bins = int(spec["max"]) - int(spec["min"]) + 1
            else:
                bins = 17
        values = action_bins(spec["min"], spec["max"], bins, self._integer_param)
        self.policy = CategoricalPolicy(self.state_dim, values, self.policy_config,
                                        seed=self.config.seed)
        self.trainer = PpoTrainer(self.policy)

    def _truncate(self) -> None:
        if self._pending is not None:
            self._pending = None
        self.trainer.mark_boundary()

    def step(self, index: int, now_ms: int) -> StepRecord | None:
        try:
            state = self.builder.build(now_ms)
        except StateUnavailableError as exc:
            log.warning("step %d: %s; episode truncated", index, exc)
            self._truncate()
            return StepRecord(step=index, ts=now_ms)
        except CascaError as exc:
            log.warning("step %d: API failure (%s); episode truncated", index, exc)
            self._truncate()
            return StepRecord(step=index, ts=now_ms)

        completed: StepRecord | None = None
        if self._pending is not None:
            p = self._pending
            r = reward(state)
            self.trainer.record(p.norm, p.bin_index, p.logp, r)
            completed = StepRecord(step=p.index, ts=p.ts, state=tuple(p.state.vector()),
                                   action=(p.applied,), reward=r)
            self._pending = None
            self._completed += 1
            self.trainer.maybe_update()
            if (self.checkpoint_every and self.checkpoint_path
                    and self._completed % self.checkpoint_every == 0):
                self.policy.save(self._numbered_checkpoint(self._completed))

        if index < self.config.max_steps:
            bin_index, value, logp, norm = self.policy.act(state.vector(),
                                                           explore=self.explore)
            to_apply = int(value) if self._integer_param else value
            try:
                applied = self.control_api.set_value(self.param_ids[0], to_apply)
            except CascaError as exc:
                log.warning("step %d: set failed (%s); episode truncated", index, exc)
                self._truncate()
                return completed
            self._pending = _Pending(index=index, ts=now_ms, state=state, norm=norm,
                                     bin_index=bin_index, logp=logp, applied=applied)
        else:
            # Trailing observation: log the state so the last reward can be
            # recomputed from the file alone.
            completed_final = StepRecord(step=index, ts=now_ms,
                                         state=tuple(state.vector()))
            if completed is not None:
                self.records.append(completed)
            return completed_final
        return completed

    def _numbered_checkpoint(self, step: int) -> str:
        base = self.checkpoint_path
        if base.endswith(".npz"):
            return f"{base[:-4]}_{step}.npz"
        return f"{base}_{step}.npz"

    def finish(self) -> None:
        if self.checkpoint_path:
            self.policy.save(self.checkpoint_path)


def build_rlds(raw: dict, clock=None, recorder=None) -> RldsSystem:
    param_ids = raw.get("param_ids") or ([raw["param_id"]] if "param_id" in raw else None)
    if not param_ids:
        raise ValidationError("config needs 'param_id' or 'param_ids'")
    slo_ids = raw.get("slo_ids") or ([raw["slo_id"]] if "slo_id" in raw else None)
    if not slo_ids:
        raise ValidationError("config needs 'slo_id' or 'slo_ids'")
    pc_keys = ("bins", "hidden", "lr", "clip", "discount", "epochs", "batch_size",
               "entropy_coef")
    pc_kwargs = {k: raw[k] for k in pc_keys if k in raw}
    if "hidden" in pc_kwargs:
        pc_kwargs["hidden"] = tuple(pc_kwargs["hidden"])
    return RldsSystem(loop_config_from_dict(raw), param_ids, slo_ids,
                      policy_config=PolicyConfig(**pc_kwargs),
                      explore=raw.get("explore", True),
                      checkpoint_path=raw.get("checkpoint"),
                      checkpoint_every=raw.get("checkpoint_every", 0),
                      clock=clock, recorder=recorder)


def main(argv: list[str] | None = None) -> int:
    return base.main(build_rlds, "rlds", "Learning decision system.", argv)


if __name__ == "__main__":
    sys.exit(main())

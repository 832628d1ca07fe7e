"""Tests for the decision systems: state/reward math, the greedy rule,
the categorical policy and its trainer, and the three step loops."""

import csv
import math
import random

import numpy as np
import pytest

from casca.clock import ManualClock
from casca.decisions.base import (ControlLoopConfig, StepRecord,
                                  loop_config_from_dict)
from casca.decisions.gds import GdsConfig, build_gds, gds_decide
from casca.decisions.mdp import (MdpState, StateBuilder, carbon_footprint,
                                 in_fn, reward)
from casca.decisions.policy import (Adam, CategoricalPolicy, Mlp, PolicyConfig,
                                    PpoTrainer, action_bins, softmax)
from casca.decisions.rds import build_rds
from casca.decisions.rlds import build_rlds
from casca.errors import StateUnavailableError, ValidationError


class TestCarbonFootprint:
    def test_units(self):
        # 60 W for one minute is 1 Wh = 1e-3 kWh; at 1000 g/kWh that is 1 g = 1000 mg... /60 form
        assert carbon_footprint(60.0, 60.0) == 60.0
        assert carbon_footprint(0.0, 500.0) == 0.0
        assert carbon_footprint(17.286, 251.2) == pytest.approx(72.37072, abs=1e-9)

    def test_linear_in_both_arguments(self):
        rng = random.Random(31)
        for _ in range(100):
            p, i, k = rng.uniform(0, 100), rng.uniform(0, 900), rng.uniform(0, 5)
            assert carbon_footprint(k * p, i) == pytest.approx(k * carbon_footprint(p, i))
            assert carbon_footprint(p, k * i) == pytest.approx(k * carbon_footprint(p, i))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            carbon_footprint(-1.0, 100.0)
        with pytest.raises(ValidationError):
            carbon_footprint(1.0, -100.0)


class TestInFn:
    def test_table(self):
        assert in_fn(5.0, 0.0, 10.0, 3.0) == 1.0
        assert in_fn(0.0, 0.0, 10.0, 3.0) == 1.0    # closed at both ends
        assert in_fn(10.0, 0.0, 10.0, 3.0) == 1.0
        assert in_fn(10.001, 0.0, 10.0, 3.0) == -6.0
        assert in_fn(-0.001, 0.0, 10.0, 3.0) == -6.0
        assert in_fn(99.0, 0.0, 10.0, 0.5) == -1.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError):
            in_fn(1.0, 5.0, 2.0, 1.0)


def state(slos, carbon, params=((0.0, 16.0, 8.0),)):
    return MdpState(params=tuple(params), slos=tuple(slos), carbon=carbon)


class TestReward:
    def test_single_fulfilled(self):
        assert reward(state([(24.0, 30.0, 27.0)], 2.0)) == 0.5

    def test_single_unfulfilled(self):
        # IN contributes -2C, divided by C: exactly -2 regardless of C
        assert reward(state([(24.0, 30.0, 31.0)], 5.0)) == -2.0

    def test_mixed_pair(self):
        got = reward(state([(24.0, 30.0, 27.0), (0.0, 18.0, 20.0)], 4.0))
        assert got == pytest.approx(-0.875)

    def test_closed_form_randomized(self):
        """reward == (F/C - 2*(S-F)) / S with F fulfilled out of S SLOs."""
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(1, 5)
            c = rng.uniform(0.1, 100.0)
            slos = []
            fulfilled = 0
            for _ in range(n):
                lo, hi = sorted((rng.uniform(0, 50), rng.uniform(0, 50)))
                if rng.random() < 0.5:
                    v = rng.uniform(lo, hi)
                    fulfilled += 1
                else:
                    v = hi + rng.uniform(0.001, 10.0)
                slos.append((lo, hi, v))
            expected = (fulfilled / c - 2.0 * (n - fulfilled)) / n
            assert reward(state(slos, c)) == pytest.approx(expected, rel=1e-12)

    def test_non_positive_carbon_clamped(self):
        assert reward(state([(0.0, 10.0, 5.0)], 0.0)) == pytest.approx(1e6)
        assert reward(state([(0.0, 10.0, 5.0)], -3.0)) == pytest.approx(1e6)

    def test_needs_slos(self):
        with pytest.raises(ValidationError):
            reward(MdpState(params=(), slos=(), carbon=1.0))


class TestMdpState:
    def test_vector_layout(self):
        s = MdpState(params=((0.0, 16.0, 9.0),),
                     slos=((24.0, 30.0, 29.0), (0.0, 18.0, 17.0)), carbon=70.0)
        assert s.vector() == [0.0, 16.0, 9.0, 24.0, 30.0, 29.0, 0.0, 18.0, 17.0, 70.0]
        assert s.dimension == 10

    def test_roundtrip(self):
        s = MdpState(params=((1.0, 2.0, 1.5),), slos=((3.0, 4.0, 3.5),), carbon=9.0)
        back = MdpState.from_vector(s.vector(), n_params=1, n_slos=1)
        assert back == s

    def test_from_vector_length_checked(self):
        with pytest.raises(ValidationError):
            MdpState.from_vector([1.0, 2.0], n_params=1, n_slos=1)


class FakeSloApi:
    def __init__(self, specs, values):
        self.specs = specs
        self.values = values       # id -> float | None

    def get_slo(self, slo_id):
        return dict(self.specs[slo_id])

    def slo_value(self, slo_id):
        v = self.values[slo_id]
        if v is None:
            return None
        spec = self.specs[slo_id]
        return {"value": v, "fulfilled": spec["min"] <= v <= spec["max"]}


class FakeControlApi:
    def __init__(self, specs, values):
        self.specs = specs
        self.values = dict(values)
        self.set_calls = []

    def get_setting(self, sid):
        return dict(self.specs[sid])

    def get_value(self, sid):
        return self.values[sid]

    def set_value(self, sid, value):
        self.set_calls.append((sid, value))
        self.values[sid] = value
        return value


class FakeEmmaApi:
    def __init__(self, intensity=100.0):
        self.value = intensity
        self.calls = []

    def intensity(self, country, ts, granularity):
        self.calls.append((country, ts, granularity))
        return self.value


def fake_apis(fps=29.0, power=17.0, threads=9, intensity=100.0):
    slo = FakeSloApi(
        {"FPS": {"id": "FPS", "min": 24.0, "max": 30.0},
         "power_w": {"id": "power_w", "min": 0.0, "max": 18.0}},
        {"FPS": fps, "power_w": power})
    control = FakeControlApi(
        {"EncodingThreadCount": {"id": "EncodingThreadCount", "type": "integer",
                                 "min": 0.0, "max": 16.0}},
        {"EncodingThreadCount": threads})
    return slo, control, FakeEmmaApi(intensity)


class TestStateBuilder:
    def make(self, **kw):
        slo, control, emma = fake_apis(**kw)
        builder = StateBuilder(slo, control, emma, ["EncodingThreadCount"], ["FPS"],
                               "power_w", "AT", "hourly")
        builder.discover()
        return builder, slo, emma

    def test_build_vector(self):
        builder, _, emma = self.make(fps=29.0, power=17.0, threads=9, intensity=120.0)
        s = builder.build(5000)
        assert s.vector() == [0.0, 16.0, 9, 24.0, 30.0, 29.0,
                              pytest.approx(17.0 * 120.0 / 60.0)]
        assert emma.calls == [("AT", 5000, "hourly")]

    def test_missing_slo_value(self):
        builder, slo, _ = self.make()
        slo.values["FPS"] = None
        with pytest.raises(StateUnavailableError):
            builder.build(0)

    def test_missing_power_value(self):
        builder, slo, _ = self.make()
        slo.values["power_w"] = None
        with pytest.raises(StateUnavailableError):
            builder.build(0)

    def test_requires_slo_ids(self):
        slo, control, emma = fake_apis()
        with pytest.raises(ValidationError):
            StateBuilder(slo, control, emma, ["EncodingThreadCount"], [],
                         "power_w", "AT", "hourly")


class TestGdsRule:
    # s, s_min, s_max, p, p_min, p_max, delta, lam, intensity -> expected
    CASES = [
        (27.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, 1, None, 9.0),    # inside: hold
        (31.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, 1, None, 8.0),    # above: step down
        (23.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, 1, None, 10.0),   # below: step up
        (24.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, 1, None, 9.0),    # boundary inside
        (30.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, 1, None, 9.0),
        (31.0, 24.0, 30.0, 0.0, 0.0, 16.0, 1.0, 1, None, 0.0),    # clamp at p_min
        (23.0, 24.0, 30.0, 16.0, 0.0, 16.0, 1.0, 1, None, 16.0),  # clamp at p_max
        (23.0, 24.0, 30.0, 15.5, 0.0, 16.0, 2.0, 1, None, 16.0),  # partial clamp
        (31.0, 24.0, 30.0, 9.0, 0.0, 16.0, 2.5, 1, None, 6.5),    # delta scales the move
        (31.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, -1, None, 10.0),  # anti-correlated: up
        (23.0, 24.0, 30.0, 9.0, 0.0, 16.0, 1.0, -1, None, 8.0),
        (9.0, 0.0, 18.0, 9.0, 0.0, 16.0, 1.0, 1, 1.0, 9.0),       # scaled, inside
        (9.0, 0.0, 18.0, 9.0, 0.0, 16.0, 1.0, 1, 3.0, 8.0),       # 27 > 18: down
    ]

    def test_table(self):
        for case in self.CASES:
            *args, expected = case
            assert gds_decide(*args) == expected, case

    def test_intensity_scaling_below_range(self):
        # raw 0.1 at intensity 100 is 10, below [50, 90]: parameter moves up
        assert gds_decide(0.1, 50.0, 90.0, 9.0, 0.0, 16.0, 1.0, 1, 100.0) == 10.0

    def test_randomized_invariants(self):
        rng = random.Random(7)
        for _ in range(500):
            s_min, s_max = sorted((rng.uniform(0, 50), rng.uniform(0, 50)))
            p_min, p_max = sorted((rng.uniform(0, 20), rng.uniform(0, 20)))
            p = rng.uniform(p_min, p_max)
            s = rng.uniform(-10, 60)
            delta = rng.uniform(0.1, 5.0)
            lam = rng.choice((-1, 1))
            out = gds_decide(s, s_min, s_max, p, p_min, p_max, delta, lam)
            assert p_min <= out <= p_max
            if s_min <= s <= s_max:
                assert out == p
            else:
                assert abs(out - p) <= delta + 1e-12

    def test_config_validation(self):
        GdsConfig("a", "b", delta=0.5, lam=-1).validate()
        with pytest.raises(ValidationError):
            GdsConfig("a", "b", lam=0).validate()
        with pytest.raises(ValidationError):
            GdsConfig("a", "b", delta=0.0).validate()


class TestLoopConfig:
    def test_from_dict(self):
        cfg = loop_config_from_dict({"slo_api": "a", "control_api": "b", "emma_api": "c",
                                     "tau_s": 5.0, "seed": 3, "max_steps": 10})
        assert cfg.tau_s == 5.0 and cfg.seed == 3 and cfg.max_steps == 10
        assert cfg.power_slo_id == "power_w"

    def test_missing_endpoints(self):
        with pytest.raises(ValidationError, match="missing"):
            loop_config_from_dict({"slo_api": "a"})

    def test_validation(self):
        with pytest.raises(ValidationError):
            ControlLoopConfig("a", "b", "c", tau_s=0).validate()
        with pytest.raises(ValidationError):
            ControlLoopConfig("a", "b", "c", max_steps=0).validate()


class TestActionBins:
    def test_integer_full_range(self):
        values = action_bins(0.0, 16.0, 17, integer=True)
        assert values.tolist() == list(range(17))

    def test_two_bins_are_the_extremes(self):
        assert action_bins(0.0, 16.0, 2, integer=True).tolist() == [0.0, 16.0]

    def test_integer_rounding(self):
        assert action_bins(0.0, 16.0, 5, integer=True).tolist() == [0.0, 4.0, 8.0, 12.0, 16.0]
        assert action_bins(0.0, 10.0, 4, integer=True).tolist() == [0.0, 3.0, 7.0, 10.0]

    def test_float_bins_unrounded(self):
        values = action_bins(0.0, 1.0, 5, integer=False)
        assert values.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_min_two(self):
        with pytest.raises(ValidationError):
            action_bins(0.0, 1.0, 1, integer=False)


class TestMlp:
    def test_forward_shapes(self):
        rng = np.random.default_rng(0)
        net = Mlp([3, 8, 5], rng)
        out, acts = net.forward(np.ones((4, 3)))
        assert out.shape == (4, 5)
        assert [a.shape for a in acts] == [(4, 3), (4, 8)]

    def test_zero_final_outputs_zero(self):
        rng = np.random.default_rng(0)
        net = Mlp([3, 8, 5], rng, zero_final=True)
        out, _ = net.forward(rng.standard_normal((6, 3)))
        assert np.all(out == 0.0)

    def test_backward_matches_finite_differences(self):
        """Hand-written backprop against numeric gradients of sum(out * G)."""
        rng = np.random.default_rng(12)
        net = Mlp([4, 6, 5, 3], rng)
        x = rng.standard_normal((7, 4))
        g_out = rng.standard_normal((7, 3))

        def loss():
            out, _ = net.forward(x)
            return float(np.sum(out * g_out))

        _, acts = net.forward(x)
        analytic = net.backward(acts, g_out)
        params = net.params()
        eps = 1e-6
        for p, g in zip(params, analytic):
            flat = p.reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                assert g.reshape(-1)[i] == pytest.approx(numeric, rel=1e-4, abs=1e-6)


class TestAdamAndSoftmax:
    def test_adam_minimizes_quadratic(self):
        p = np.array([5.0])
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.step([2.0 * p])
        assert abs(p[0]) < 1e-2

    def test_softmax_normalizes_and_is_stable(self):
        probs = softmax(np.array([1000.0, 1000.0, 999.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(probs[1])
        assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]


class TestCategoricalPolicy:
    def make(self, seed=0, **cfg_kw):
        cfg = PolicyConfig(**cfg_kw)
        return CategoricalPolicy(3, np.array([0.0, 5.0, 10.0, 16.0]), cfg, seed=seed)

    def test_initial_distribution_is_uniform(self):
        pol = self.make()
        for vec in ([1.0, 2.0, 3.0], [100.0, -5.0, 0.0]):
            probs = pol.probs(pol.normalize(vec))
            assert probs.tolist() == pytest.approx([0.25] * 4)
        assert pol.value(pol.normalize([1.0, 2.0, 3.0])) == 0.0

    def test_scale_frozen_from_first_state(self):
        pol = self.make()
        pol.normalize([10.0, 0.5, -4.0])
        assert pol.scale.tolist() == [10.0, 1.0, 4.0]   # at least 1 per component
        assert pol.normalize([20.0, 1.0, -8.0]).tolist() == [2.0, 1.0, -2.0]
        assert pol.scale.tolist() == [10.0, 1.0, 4.0]   # still the first state's scale

    def test_act_is_seed_deterministic(self):
        a = self.make(seed=9)
        b = self.make(seed=9)
        stream_a = [a.act([1.0, 2.0, 3.0])[0] for _ in range(20)]
        stream_b = [b.act([1.0, 2.0, 3.0])[0] for _ in range(20)]
        assert stream_a == stream_b
        c = self.make(seed=10)
        assert [c.act([1.0, 2.0, 3.0])[0] for _ in range(20)] != stream_a

    def test_act_returns_consistent_tuple(self):
        pol = self.make()
        index, value, logp, norm = pol.act([1.0, 2.0, 3.0], explore=True)
        assert value == pol.action_values[index]
        assert logp == pytest.approx(math.log(0.25))
        assert norm.shape == (3,)

    def test_exploit_takes_argmax(self):
        pol = self.make()
        pol.policy_net.biases[-1][:] = np.array([0.0, 0.0, 3.0, 0.0])
        index, value, _, _ = pol.act([1.0, 1.0, 1.0], explore=False)
        assert index == 2 and value == 10.0

    def test_state_dimension_checked(self):
        pol = self.make()
        with pytest.raises(ValidationError):
            pol.act([1.0, 2.0])

    def test_save_load_roundtrip(self, tmp_path):
        pol = self.make(seed=4)
        pol.act([3.0, 1.0, 2.0])
        for _ in range(3):   # leave the uniform start so the check is meaningful
            pol.policy_net.biases[-1][:] += np.array([0.1, -0.2, 0.3, 0.05])
        path = str(tmp_path / "policy.npz")
        pol.save(path)
        fresh = self.make(seed=99)
        fresh.load_weights(path)
        assert fresh.scale.tolist() == pol.scale.tolist()
        vec = [2.0, 2.0, 2.0]
        assert fresh.probs(fresh.normalize(vec)).tolist() == \
            pol.probs(pol.normalize(vec)).tolist()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            PolicyConfig(bins=1).validate()
        with pytest.raises(ValidationError):
            PolicyConfig(discount=0.0).validate()
        with pytest.raises(ValidationError):
            PolicyConfig(lr=-1.0).validate()


class TestPpoTrainer:
    def test_returns_respect_boundaries(self):
        pol = CategoricalPolicy(1, np.array([0.0, 1.0]),
                                PolicyConfig(discount=0.5, batch_size=100), seed=0)
        tr = PpoTrainer(pol)
        norm = pol.normalize([1.0])
        for r, done in [(1.0, False), (2.0, True), (4.0, False), (8.0, False)]:
            tr.record(norm, 0, math.log(0.5), r, done=done)
        returns = tr._returns()
        # episode 1: [1 + 0.5*2, 2]; episode 2: [4 + 0.5*8, 8]
        assert returns.tolist() == [2.0, 2.0, 8.0, 8.0]

    def test_mark_boundary_sets_last_done(self):
        pol = CategoricalPolicy(1, np.array([0.0, 1.0]),
                                PolicyConfig(batch_size=100), seed=0)
        tr = PpoTrainer(pol)
        norm = pol.normalize([1.0])
        tr.record(norm, 0, 0.0, 1.0)
        tr.record(norm, 0, 0.0, 1.0)
        tr.mark_boundary()
        assert tr._buffer.dones == [False, True]

    def test_update_waits_for_full_batch(self):
        pol = CategoricalPolicy(1, np.array([0.0, 1.0]),
                                PolicyConfig(batch_size=4), seed=0)
        tr = PpoTrainer(pol)
        norm = pol.normalize([1.0])
        for _ in range(3):
            tr.record(norm, 0, math.log(0.5), 1.0)
            assert tr.maybe_update() is None
        tr.record(norm, 1, math.log(0.5), 1.0)
        stats = tr.maybe_update()
        assert stats is not None and stats["samples"] == 4
        assert len(tr._buffer) == 0   # buffer cleared after the update
        assert tr.updates == 1

    def test_learns_a_two_armed_bandit(self):
        """Action 1 pays +1, action 0 pays -1; the sampler must shift to 1."""
        cfg = PolicyConfig(hidden=(8,), lr=0.05, batch_size=64, epochs=4)
        pol = CategoricalPolicy(1, np.array([0.0, 1.0]), cfg, seed=0)
        tr = PpoTrainer(pol)
        state_vec = [1.0]
        for _ in range(320):
            b, _, logp, norm = pol.act(state_vec, explore=True)
            tr.record(norm, b, logp, 1.0 if b == 1 else -1.0)
            tr.maybe_update()
        assert tr.updates == 5
        p_good = float(pol.probs(pol.normalize(state_vec))[1])
        assert p_good > 0.9


def loop_raw(**kw):
    raw = {"slo_api": "127.0.0.1:1", "control_api": "127.0.0.1:1",
           "emma_api": "127.0.0.1:1", "tau_s": 60.0, "seed": 0, "max_steps": 5}
    raw.update(kw)
    return raw


def install_fakes(system, fps=29.0, power=17.0, threads=9, intensity=100.0):
    slo, control, emma = fake_apis(fps=fps, power=power, threads=threads,
                                   intensity=intensity)
    system.slo_api = slo
    system.control_api = control
    system.emma_api = emma
    if hasattr(system, "builder"):
        system.builder.slo_api = slo
        system.builder.control_api = control
        system.builder.emma_api = emma
    return slo, control, emma


class TestRdsSystem:
    def test_draw_stays_in_integer_range(self):
        system = build_rds(loop_raw(param_id="EncodingThreadCount", seed=11),
                           clock=ManualClock())
        install_fakes(system)
        system.start()
        draws = [system.draw() for _ in range(300)]
        assert all(isinstance(d, int) and 0 <= d <= 16 for d in draws)
        assert len(set(draws)) > 10   # actually spreads over the range

    def test_seeded_reproducibility(self):
        def run(seed):
            system = build_rds(loop_raw(param_id="EncodingThreadCount", seed=seed,
                                        max_steps=20, tau_s=0.001), clock=ManualClock())
            _, control, _ = install_fakes(system)
            system.run()
            return [v for (_, v) in control.set_calls]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_step_records(self):
        system = build_rds(loop_raw(param_id="EncodingThreadCount", max_steps=3,
                                    tau_s=0.001), clock=ManualClock())
        _, control, _ = install_fakes(system)
        records = system.run()
        assert [r.step for r in records] == [0, 1, 2]
        assert all(r.state == () and r.reward is None for r in records)
        assert [r.action[0] for r in records] == [v for (_, v) in control.set_calls]


class TestGdsSystem:
    def make(self, fps, threads, **raw_kw):
        system = build_gds(loop_raw(slo_id="FPS", param_id="EncodingThreadCount",
                                    **raw_kw), clock=ManualClock())
        fakes = install_fakes(system, fps=fps, threads=threads)
        system.start()
        return system, fakes

    def test_step_below_range_moves_up(self):
        system, (_, control, _) = self.make(fps=20.0, threads=9)
        rec = system.step(0, 1000)
        assert rec.state == (20.0, 9)
        assert rec.action == (10,)
        assert control.set_calls == [("EncodingThreadCount", 10)]

    def test_step_inside_range_reapplies_current(self):
        system, (_, control, _) = self.make(fps=27.0, threads=9)
        system.step(0, 1000)
        # the rule holds the value but the write still happens every step
        assert control.set_calls == [("EncodingThreadCount", 9)]

    def test_integer_parameter_rounded(self):
        system, (_, control, _) = self.make(fps=20.0, threads=9, delta=0.4)
        system.step(0, 1000)
        assert control.set_calls == [("EncodingThreadCount", 9)]  # 9.4 rounds to 9

    def test_empty_window_skips_action(self):
        system, (slo, control, _) = self.make(fps=29.0, threads=9)
        slo.values["FPS"] = None
        rec = system.step(0, 1000)
        assert rec.state is None and rec.action is None
        assert control.set_calls == []

    def test_carbon_mode_queries_emma(self):
        system, (_, control, emma) = self.make(fps=9.0, threads=9, is_carbon=True,
                                               **{"lambda": 1})
        emma.value = 3.0
        system.slo_api.specs["FPS"] = {"id": "FPS", "min": 0.0, "max": 18.0}
        system.start()
        system.step(0, 2000)
        assert emma.calls == [("AT", 2000, "hourly")]
        # 9 * 3 = 27 above 18: step down
        assert control.set_calls == [("EncodingThreadCount", 8)]


class TestRldsSystem:
    def build(self, max_steps=3, **raw_kw):
        raw = loop_raw(slo_id="FPS", param_id="EncodingThreadCount",
                       max_steps=max_steps, tau_s=0.001, seed=2)
        raw.update(raw_kw)
        system = build_rlds(raw, clock=ManualClock())
        fakes = install_fakes(system)
        return system, fakes

    def test_bins_default_to_integer_range(self):
        system, _ = self.build()
        system.start()
        assert system.policy.action_values.tolist() == list(range(17))
        assert system.state_dim == 7

    def test_explicit_bins(self):
        system, _ = self.build(bins=2)
        system.start()
        assert system.policy.action_values.tolist() == [0.0, 16.0]

    def test_run_logs_one_trailing_observation(self):
        system, (_, control, _) = self.build(max_steps=3)
        records = system.run()
        assert len(records) == 4
        for rec in records[:3]:
            assert len(rec.state) == 7
            assert rec.action is not None and rec.reward is not None
        last = records[3]
        assert last.step == 3
        assert len(last.state) == 7
        assert last.action is None and last.reward is None
        assert len(control.set_calls) == 3   # no action on the trailing observation

    def test_logged_rewards_recompute_from_next_state(self):
        system, _ = self.build(max_steps=4)
        records = system.run()
        for rec, nxt in zip(records[:-1], records[1:]):
            recomputed = reward(MdpState.from_vector(nxt.state, n_params=1, n_slos=1))
            assert rec.reward == pytest.approx(recomputed, rel=1e-12)

    def test_state_unavailable_truncates(self):
        system, (slo, control, _) = self.build(max_steps=3)
        system.start()
        first = system.step(0, 0)
        assert first is None          # nothing completed yet
        slo.values["FPS"] = None
        rec = system.step(1, 60_000)
        assert rec.state is None and rec.reward is None   # bare marker row
        assert system._pending is None
        slo.values["FPS"] = 29.0
        rec2 = system.step(2, 120_000)
        assert rec2 is None           # new pending, nothing completed
        assert len(control.set_calls) == 2

    def test_csv_layout(self, tmp_path):
        system, _ = self.build(max_steps=2)
        system.run()
        path = tmp_path / "steps.csv"
        system.write_csv(str(path))
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["step", "ts"] + [f"state{i}" for i in range(7)] \
            + ["action0", "reward"]
        assert len(rows) == 4
        assert rows[3][0] == "2"
        assert rows[3][-1] == "" and rows[3][-2] == ""   # observation-only tail
        assert rows[1][-1] != ""

    def test_checkpointing(self, tmp_path):
        target = tmp_path / "policy.npz"
        system, _ = self.build(max_steps=3, checkpoint=str(target),
                               checkpoint_every=2)
        system.run()
        assert target.exists()
        assert (tmp_path / "policy_2.npz").exists()

    def test_single_parameter_enforced(self):
        raw = loop_raw(slo_id="FPS")
        raw["param_ids"] = ["a", "b"]
        with pytest.raises(ValidationError, match="exactly one"):
            build_rlds(raw)

"""Seeded input files for the benchmark workloads.

Everything the program reads is written here from the workload's seed:
scenario, hook configs, SLO file, alias map and both carbon datasets. The
seed moves values (workload model, noise, SLO ranges, carbon data, the
decision system's own seed); the sizes that set the cost of a run (steps,
reporters, periods) are fixed per workload, so runs with different seeds
do the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

EPOCH_MS = 1751328000000
SOURCES = ("coal", "gas", "oil", "nuclear", "hydro", "wind", "solar", "biomass", "geothermal")

# Public names the decision systems and the live client see; the internal
# names (FPS, EncodingThreadCount) stay behind the gateway's alias map.
SLO_ALIAS = "ServiceSLO"
PARAM_ALIAS = "ServiceParam"
INTERNAL_PARAM = "EncodingThreadCount"

# SLOs the live workload reads; `src` is the topic segment after `probe/`.
PROBE_LAST = "ProbeLast"        # newest steady-phase sequence number
PROBE_COUNT = "ProbeCount"      # steady-phase points held
FLOOD_COUNT = "FloodCount"      # flood-phase points held
FLOOD_MARK = "FloodMark"        # marker published after each flood round

# Decision steps per run. p99 of step and gateway times needs at least
# 1000 samples, so every sim run makes at least 1000 steps.
SIM_CONTROL_STEPS = 1000
SIM_INGEST_STEPS = 1000
TINY_STEPS = {"sim-control": 70, "sim-ingest": 30}


def _dump(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    return str(path)


def _model(rng: random.Random, seed: int) -> dict:
    starts = sorted(rng.sample(range(600, 20000, 300), 3))
    return {
        "f_max": round(rng.uniform(36.0, 44.0), 3),
        "kappa": round(rng.uniform(5.5, 7.5), 3),
        "p_idle": round(rng.uniform(11.0, 15.0), 3),
        "p_per_thread": round(rng.uniform(0.45, 0.65), 3),
        "noise_fps": round(rng.uniform(0.2, 1.0), 3),
        "noise_power": round(rng.uniform(0.05, 0.3), 3),
        "seed": seed,
        "buffer_schedule": [[s, rng.choice([60, 120, 300]), round(rng.uniform(0.1, 0.5), 2)]
                            for s in starts],
    }


def _slos(rng: random.Random, extra: list) -> dict:
    lo = round(rng.uniform(22.0, 26.0), 1)
    return {
        "slos": [
            {"id": "FPS", "description": "Transcoding frame rate stays inside the band",
             "query": "mean(fps.value, 60s)", "unit": "frames/s",
             "min": lo, "max": round(lo + rng.uniform(4.0, 8.0), 1)},
            {"id": "power_w", "description": "Apparent power draw of the service host",
             "query": "mean(power.apparent_w, 60s)", "unit": "W",
             "min": 0, "max": round(rng.uniform(18.0, 24.0), 1)},
            *extra,
        ],
        "settings": [
            {"id": INTERNAL_PARAM, "description": "Number of encoder worker threads",
             "type": "integer", "min": 0, "max": 16},
        ],
    }


def _carbon(rng: random.Random, directory: Path, country: str, hours: int) -> tuple[str, str]:
    sources = directory / "emma_sources.csv"
    rows = ["source,intensity_gco2eq_kwh"]
    rows += [f"{s},{round(rng.uniform(5.0, 900.0), 1)}" for s in SOURCES]
    sources.write_text("\n".join(rows) + "\n")

    locations = directory / "emma_locations.csv"
    base, swing, phase = rng.uniform(80, 300), rng.uniform(20, 80), rng.uniform(0, 2 * math.pi)
    rows = ["country,timestamp_ms,granularity,intensity_gco2eq_kwh"]
    for h in range(-2, hours + 2):
        value = base + swing * math.sin(phase + 2 * math.pi * h / 24) + rng.uniform(-10, 10)
        rows.append(f"{country},{EPOCH_MS + h * 3600_000},hourly,{round(max(value, 1.0), 1)}")
    for d in range(-1, hours // 24 + 2):
        rows.append(f"{country},{EPOCH_MS + d * 86400_000},daily,{round(base, 1)}")
    locations.write_text("\n".join(rows) + "\n")
    return str(sources), str(locations)


def _hooks(directory: Path, with_probe: bool) -> list[str]:
    hooks = [
        ("hook_fps.json", {"topic": "fps/+", "measurement": "fps", "fields": {"/fps": "value"},
                           "tags": {"client": {"topic_segment": 1}}}),
        ("hook_power.json", {"topic": "power/#", "measurement": "power",
                             "fields": {"/ENERGY/ApparentPower": "apparent_w"},
                             "tags": {"host": {"constant": "anemone"}}}),
    ]
    if with_probe:
        hooks.append(("hook_probe.json", {"topic": "probe/+", "measurement": "probe",
                                          "fields": {"/seq": "seq"},
                                          "tags": {"src": {"topic_segment": 1}}}))
    return [_dump(directory / name, body) for name, body in hooks]


def _aliases(directory: Path) -> str:
    return _dump(directory / "aliases.json", {
        "FPS": {"id": SLO_ALIAS, "description": "Primary service objective"},
        INTERNAL_PARAM: {"id": PARAM_ALIAS, "description": "Primary service parameter"},
    })


def write_sim(workload: str, seed: int, directory: Path, tiny: bool = False) -> str:
    """Inputs of a sim workload; returns the scenario path."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sim-control":
        steps = TINY_STEPS[workload] if tiny else SIM_CONTROL_STEPS
        tau_s = 60.0
        reporters = [{"kind": "fps", "topic": "fps/c1", "period_s": 1.0},
                     {"kind": "power", "topic": "power/plug/SENSOR", "period_s": 1.0}]
        decision = {"system": "rlds", "slo_id": SLO_ALIAS, "param_id": PARAM_ALIAS,
                    "power_slo_id": "power_w", "tau_s": tau_s, "max_steps": steps,
                    "seed": rng.randrange(1 << 30),
                    "checkpoint": str(directory / "out" / "policy.npz")}
        warmup = min(50, steps // 2)
    elif workload == "sim-ingest":
        steps = TINY_STEPS[workload] if tiny else SIM_INGEST_STEPS
        tau_s = 30.0
        reporters = [{"kind": "fps", "topic": f"fps/c{i}", "period_s": 0.75} for i in range(1, 4)]
        reporters.append({"kind": "power", "topic": "power/plug/SENSOR", "period_s": 1.0})
        decision = {"system": "rds", "param_id": PARAM_ALIAS, "tau_s": tau_s,
                    "max_steps": steps, "seed": rng.randrange(1 << 30)}
        warmup = 0
    else:
        raise ValueError(f"not a sim workload: {workload}")
    country = rng.choice(["AT", "DE", "FR"])
    duration_s = (steps + 1) * tau_s
    sources, locations = _carbon(rng, directory, country, int(duration_s // 3600) + 1)
    scenario = {
        "seed": seed, "mode": "sim", "duration_s": duration_s, "epoch_ms": EPOCH_MS,
        "model": _model(rng, seed), "reporters": reporters,
        "hooks": _hooks(directory, with_probe=False),
        "slos": _dump(directory / "slos.json", _slos(rng, [])),
        "aliases": _aliases(directory), "decision": decision,
        "emma": {"sources": sources, "locations": locations, "country": country,
                 "granularity": "hourly"},
        "warmup_steps": warmup, "initial_threads": rng.randint(4, 16),
    }
    return _dump(directory / "scenario.json", scenario)


def write_live(seed: int, directory: Path) -> str:
    """Inputs of the live workload: a wall-clock stack with no decision system."""
    rng = random.Random(f"live-mixed/{seed}")
    probes = [
        {"id": PROBE_LAST, "description": "newest probe", "unit": "",
         "query": "last(probe.seq, 2s) where src=live", "min": 0, "max": 1e12},
        {"id": PROBE_COUNT, "description": "probe points held", "unit": "",
         "query": "count(probe.seq, 3600s) where src=live", "min": 0, "max": 1e12},
        {"id": FLOOD_COUNT, "description": "flood points held", "unit": "",
         "query": "count(probe.seq, 3600s) where src=flood", "min": 0, "max": 1e12},
        {"id": FLOOD_MARK, "description": "last flood round marker", "unit": "",
         "query": "last(probe.seq, 60s) where src=mark", "min": -1, "max": 1e12},
    ]
    country = rng.choice(["AT", "DE", "FR"])
    sources, locations = _carbon(rng, directory, country, 48)
    scenario = {
        "seed": seed, "mode": "live", "clock_multiplier": 1.0, "duration_s": 3600,
        "model": _model(rng, seed),
        "reporters": [{"kind": "fps", "topic": "fps/c1", "period_s": 1.0},
                      {"kind": "power", "topic": "power/plug/SENSOR", "period_s": 1.0}],
        "hooks": _hooks(directory, with_probe=True),
        "slos": _dump(directory / "slos.json", _slos(rng, probes)),
        "aliases": _aliases(directory),
        "emma": {"sources": sources, "locations": locations, "country": country,
                 "granularity": "hourly"},
        "initial_threads": rng.randint(4, 16),
    }
    return _dump(directory / "scenario.json", scenario)

"""Records the reference digests of the sim workloads' outputs.

    python3 perfbench/record_digests.py --seeds 0-31

Runs sim-control and sim-ingest once per seed and writes the SHA-256 of
steps.csv and telemetry.jsonl to perfbench/digests.json. A benchmark run
whose seed is in the table fails its output check when either file
differs. Record on the commit whose outputs are the reference; a change
that alters the bytes on purpose records again and says why.
"""

from __future__ import annotations

import argparse
import json
import sys

import common


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-31")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    common.use_checkout_sources()
    import scenarios
    import simrun
    from casca.orchestrator import load_scenario

    table = simrun.recorded_digests()
    for workload in ("sim-control", "sim-ingest"):
        for seed in seeds:
            work = common.fresh_dir(f"digests-{workload}-{seed}")
            try:
                cfg = load_scenario(scenarios.write_sim(workload, seed, work))
                run = simrun.run_once(workload, cfg, work / "out")
                if run["report"] is None:
                    print(f"{workload} seed {seed}: {run['error']}", file=sys.stderr)
                    return 1
                table.setdefault(workload, {})[str(seed)] = {
                    name: simrun.sha256(work / "out" / name)
                    for name in ("steps.csv", "telemetry.jsonl")}
                print(f"{workload} seed {seed}: recorded", flush=True)
            finally:
                common.clear_dir(work)
    with open(simrun.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

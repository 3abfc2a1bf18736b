"""Recompute the reference objective of every input variant.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py [workload ...]

Writes perfbench/reference.json, keeping the entries of workloads not
named.  Run it only when a change is meant to alter the simulated
results; the benchmark checks every run against these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gaspower import opt, sim  # noqa: E402

import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"


def reference_objectives(workload: str) -> list[float]:
    values = []
    for variant in range(workloads.VARIANTS):
        network, scenario = workloads.build(workload, variant)
        simulator = sim.Simulator(network, scenario)
        control = workloads.draw_control(workload, variant, scenario)
        values.append(opt.objective(simulator, simulator.run(control)))
        print(f"{workload} variant {variant}: {values[-1]!r}", flush=True)
    return values


def main(names) -> None:
    table = (json.loads(REFERENCE.read_text(encoding="utf-8"))
             if REFERENCE.exists() else {})
    for workload in names or workloads.WORKLOADS:
        table[workload] = reference_objectives(workload)
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])

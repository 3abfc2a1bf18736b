"""Benchmark of the gaspower forward simulation and adjoint gradient.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload bundled --seed 3 --seconds 15 --trace 0

Runs one workload single-threaded in this process for about `--seconds`
seconds, checks every result, prints one summary line per metric and, as
the last line, a JSON object with the keys correct, attempted, failed and
metrics.  `--trace 0` reports the end-to-end metrics; `--trace 1` wraps
the public calls into each layer and reports the per-layer metrics.
The package is imported from ./src of the checkout and nowhere else.
See README.md for the workloads and the definition of every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time and check the gaspower forward run and gradient.")
    parser.add_argument("--workload", required=True,
                        help="bundled, many-pipes or long-pipes")
    parser.add_argument("--seed", type=int, required=True,
                        help="selects the input variants")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep taking samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not (SRC / "gaspower" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'gaspower'}; run "
              "from the root of a gaspower source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    variants = workloads.window(args.seed)
    if args.trace:
        variants = variants[:1]
    clock = speed.Clock()
    bench = measure.Bench(args.workload, variants, clock)
    simulator = bench.inputs[0].simulator
    print(f"workload {args.workload}, seed {args.seed}, input variants "
          f"{[item.variant for item in bench.inputs]}: "
          f"{len(simulator.network.gas.pipes)} pipes, "
          f"{len(simulator.network.gas.compressors)} compressors, "
          f"{simulator.assembler.index.size} unknowns, "
          f"{simulator.scenario.step_count} steps")
    if args.trace:
        metrics = measure.per_layer(bench, args.seconds)
    else:
        metrics = measure.end_to_end(bench, args.seconds)
    kernel = statistics.median(clock.kernel_s)
    print(f"calibration kernel: median {kernel:.6g} s over "
          f"{len(clock.kernel_s)} runs; raw times are "
          f"{kernel / speed.REFERENCE_S:.4g} x the reported ones")
    print(json.dumps(bench.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

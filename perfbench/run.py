"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload train-enum --seed 0 --seconds 15 --trace 0

Generates the workload's inputs from ``--seed``, measures for about
``--seconds`` seconds, checks the program's outputs, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``. The line
before it is the run's provenance. Exits non-zero, printing no result,
when the program's source is missing or a metric could not be produced.
Every process the run started has ended before the result is printed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (
    cpu_times,
    host_probe_ms,
    load_spec,
    pin_blas_threads,
    provenance,
    result_line,
    stop_children,
    units,
    use_program_source,
)

WORKLOADS = ("train-enum", "train-wide", "serve-mixed")
_TRAINING_LAYERS = ("backends.", "dataplane.", "autoencoder.", "quality.", "bench.")
#: Per-layer metric families each workload calls into. The others are
#: reported as 0: the workload makes no call into those layers.
LAYERS = {
    "train-enum": _TRAINING_LAYERS,
    "train-wide": _TRAINING_LAYERS,
    "serve-mixed": ("serve.", "quality.", "bench."),
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one run; returns {"problems", "attempted", "failed",
    "metrics", "detail"} with bare metric values."""
    if workload == "serve-mixed":
        import serve

        return (serve.run_traced if trace else serve.run_timed)(seed, seconds)
    import train

    cfg = train.WORKLOADS[workload]
    return (train.run_traced if trace else train.run_timed)(cfg, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    use_program_source()
    cpu_at_start, probe_at_start = cpu_times(), host_probe_ms()
    spec = load_spec()
    wanted = units(spec, "per_layer" if args.trace else "end_to_end")

    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    if args.trace:
        for name in wanted:
            if not name.startswith(LAYERS[args.workload]):
                out["metrics"].setdefault(name, 0.0)
    missing = sorted(set(wanted) - set(out["metrics"]))
    if missing:
        print(f"run produced no value for {missing}", file=sys.stderr)
        return 2
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(cpu_at_start, probe_at_start), "workload": args.workload,
                      "seed": args.seed, "detail": out["detail"]}))
    metrics = {
        name: {"value": float(out["metrics"][name]), "unit": unit}
        for name, unit in wanted.items()
    }
    print(result_line(not out["problems"], out["attempted"], out["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

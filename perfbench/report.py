"""Run the benchmark and print every metric by name with its unit.

    python3 perfbench/report.py                      # every workload, seed 0
    python3 perfbench/report.py --workload train-enum --seed 3 --seconds 15

Each workload runs twice, each time as a separate ``run.py`` process:
untraced (end-to-end metrics) and traced (per-layer metrics). The report
shows whether every correctness check passed, the attempted/failed
counts and the provenance of the run.
Exits non-zero if any run fails or any check does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import BENCH_DIR, ROOT, load_spec
from run import WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result, provenance record) of one run.py process."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} (trace {trace}) failed:\n{out.stderr}")
    if out.stderr.strip():
        print(out.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-1]), json.loads(lines[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    ok = True
    for workload in workloads:
        print(f"== {workload}  seed={args.seed}  seconds={seconds:g}")
        for trace, kind in ((0, "end-to-end"), (1, "per-layer")):
            result, record = run_once(workload, args.seed, seconds, trace)
            ok &= result["correct"]
            print(f"-- {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"   {name:36s} {m['value']:>16.6g} {m['unit']}")
        prov = record["provenance"]
        print(f"-- provenance: rev={prov['git_rev']} dirty={prov['git_dirty']} "
              f"python={prov['python']} numpy={prov['numpy']} "
              f"blas={prov['blas']['name']} {prov['blas']['version']} "
              f"blas_threads={prov['blas_threads_effective']} "
              f"cpus={prov['cpu_count']} affinity={prov['cpu_affinity']} "
              f"load={prov['loadavg']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

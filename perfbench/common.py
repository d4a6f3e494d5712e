"""Shared helpers: provenance, percentiles, process accounting, results.

Importing this module touches nothing outside the interpreter; callers
pin BLAS threads (``pin_blas_threads``) before NumPy is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench"

#: BLAS threads per process. OpenBLAS's default (one thread per core in
#: every process) makes the P workers of a single-host ring fight over
#: the same cores; one thread each measures the program, not the
#: scheduler.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Set BLAS thread counts in the environment; must run before NumPy
    is first imported (forked workers inherit the setting)."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_program_source() -> None:
    """Put the program's ``src/`` first on the import path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program source not found under {src}")
    sys.path.insert(0, str(src))


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# ----------------------------------------------------------------- numbers
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


# ------------------------------------------------------- process accounting
def _blas_threads_effective():
    """What the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_times() -> dict | None:
    """Host-wide CPU seconds by state from ``/proc/stat`` (None where it
    does not exist). ``steal`` is time a virtual CPU was runnable but the
    hypervisor ran something else: on a shared host it shows as slower
    runs that the program did not cause."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()[1:]
    except OSError:
        return None
    tick = os.sysconf("SC_CLK_TCK")
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return {n: int(v) / tick for n, v in zip(names, fields)}


def host_probe_ms(reps: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop: the host's speed
    at the moment, to compare runs taken at different times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i & 7
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[reps // 2]


def provenance(cpu_at_start: dict | None = None, probe_at_start: float | None = None) -> dict:
    """Where and on what a result was measured; with ``cpu_at_start``
    (from :func:`cpu_times`), also the share of CPU time stolen by the
    host since then, and the host's speed (:func:`host_probe_ms`) at the
    start and end of the run."""
    steal_frac = None
    now = cpu_times()
    if cpu_at_start is not None and now is not None:
        delta = {k: now[k] - cpu_at_start[k] for k in now}
        busy = sum(delta.values()) - delta["idle"] - delta["iowait"]
        steal_frac = delta["steal"] / busy if busy > 0 else 0.0
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev is not None else None
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {v: os.environ.get(v) for v in _BLAS_VARS},
        "blas_threads_effective": _blas_threads_effective(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
        "cpu_steal_frac": steal_frac,
        "host_probe_ms": [probe_at_start, host_probe_ms()],
        "platform": platform.platform(),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def tree_peak_rss_mb() -> float:
    """Highest peak resident memory of this process and its live
    children (a child that exits while being read is skipped)."""
    peaks = [self_peak_rss_mb()]
    for pid in live_children():
        try:
            peaks.append(proc_peak_rss_mb(pid))
        except (OSError, RuntimeError):
            pass
    return max(peaks)


def live_children() -> list[int]:
    """PIDs of this process's live (or not yet reaped) children."""
    pids = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(p) for p in path.read_text().split()]
        except OSError:
            pass
    return pids


#: Seconds a leftover child gets to end after each signal.
STOP_TIMEOUT_S = 10.0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The multiprocessing resource tracker outlives the pools that start
    it and would otherwise exit only after this process does; it is
    stopped first, through its own shutdown path. Any other child left
    behind gets SIGTERM, then SIGKILL after ``STOP_TIMEOUT_S``.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = live_children()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done = os.waitpid(pid, os.WNOHANG)[0] == pid
                except ChildProcessError:  # already reaped
                    done = True
                if done:
                    pids.remove(pid)
            time.sleep(0.01)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------------ result
def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def units(spec: dict, kind: str) -> dict[str, str]:
    """{metric name: unit} for ``kind`` in {"end_to_end", "per_layer"}."""
    return {m["name"]: m["unit"] for m in spec[kind]}

"""Training workloads: ``train-enum`` and ``train-wide``.

Both train a linear binary autoencoder with ParMAC on a wall-clock
engine, driving the backend's public lifecycle directly
(``setup`` / ``ingest`` / ``run_iteration`` / ``teardown``) so every
call can be timed from outside. The program receives only the arrays
this module generates from the seed.

Untimed run (``trace=False``): set-up timed ``SETUP_REPS`` times on fresh
backends, one warm-up fit, then timed fits on one persistent pool until
the time budget is spent. Traced run (``trace=True``): one warm-up fit,
one untraced fit and one fit with :class:`TracedBAAdapter` in every
worker; the per-layer metrics come from the traced fit and the tracing
overhead is the difference between the two.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from common import OUT_DIR, median, proc_cpu_s, proc_peak_rss_mb, self_peak_rss_mb
from spans import Span, SpanRecorder, process_recorder, self_times

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.adapter import BAAdapter
from repro.autoencoder.init import init_codes_pca
from repro.core.evaluation import PrecisionEvaluator
from repro.data.synthetic import make_sift_like
from repro.distributed.backends import get_backend
from repro.distributed.partition import make_shards, partition_indices

#: Set-ups timed per run, after SETUP_WARMUP untimed ones (the first few
#: forks of a run measured up to 3x slower than the rest).
SETUP_WARMUP, SETUP_REPS = 2, 25
MIN_FITS = 3
#: Machines (workers) in the ring: one per core of a 2-core host.
MACHINES = 2


@dataclass(frozen=True)
class TrainConfig:
    name: str
    backend: str
    n: int  # training rows at setup
    dim: int
    n_bits: int
    shuffle_within: bool
    mus: tuple
    ingest_rows: int = 0  # rows streamed to each machine before every iteration
    n_queries: int = 200  # held-out queries for precision_at_k
    knn: int = 50  # true neighbours (K) and retrieval depth (k)
    #: precision_at_k below this fails the run. Measured: train-enum ~0.51
    #: and train-wide ~0.20 (their tPCA initial codes score ~0.55 and
    #: ~0.47); chance is knn / n, 0.025 and 0.006.
    precision_floor: float = 0.3


def _geometric(mu0: float, factor: float, n_iters: int) -> tuple:
    return tuple(float(mu0 * factor**i) for i in range(n_iters))


WORKLOADS = {
    "train-enum": TrainConfig(
        name="train-enum", backend="multiprocess", n=2000, dim=64, n_bits=16,
        shuffle_within=False, mus=_geometric(1e-3, 2.0, 6),
    ),
    "train-wide": TrainConfig(
        name="train-wide", backend="tcp", n=8000, dim=128, n_bits=64,
        shuffle_within=True, mus=_geometric(1e-3, 2.0, 8), ingest_rows=32,
        precision_floor=0.1,
    ),
}


# ------------------------------------------------------------------ inputs
@dataclass
class Inputs:
    X: np.ndarray  # training rows at setup
    Z0: np.ndarray  # tPCA initial codes
    parts: list  # row partition over machines
    queries: np.ndarray  # held-out precision queries
    stream: list  # per iteration: [(machine, rows), ...]


def make_inputs(cfg: TrainConfig, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    n_stream = cfg.ingest_rows * MACHINES * len(cfg.mus)
    X_all = make_sift_like(cfg.n + cfg.n_queries + n_stream, cfg.dim, rng=rng)
    X = X_all[: cfg.n]
    queries = X_all[cfg.n : cfg.n + cfg.n_queries]
    S = X_all[cfg.n + cfg.n_queries :]
    r = cfg.ingest_rows
    stream = [
        [(p, S[(i * MACHINES + p) * r : (i * MACHINES + p + 1) * r])
         for p in range(MACHINES)] if r else []
        for i in range(len(cfg.mus))
    ]
    # The linear encoder's feature map is the identity, so tPCA runs on X.
    Z0, _ = init_codes_pca(X, cfg.n_bits, rng=seed)
    parts = partition_indices(cfg.n, MACHINES, rng=seed)
    return Inputs(X=X, Z0=Z0, parts=parts, queries=queries, stream=stream)


def make_backend(cfg: TrainConfig, seed: int):
    return get_backend(cfg.backend)(
        epochs=1, seed=seed, shuffle_within=cfg.shuffle_within
    )


def fresh_problem(cfg: TrainConfig, inputs: Inputs):
    """A new model at its initial state plus fresh shard copies."""
    adapter = BAAdapter(BinaryAutoencoder.linear(cfg.dim, cfg.n_bits))
    shards = make_shards(inputs.X, adapter.features(inputs.X), inputs.Z0, inputs.parts)
    return adapter, shards


# ------------------------------------------------------------------ tracing
class TracedBAAdapter:
    """A :class:`BAAdapter` whose per-shard calls record spans.

    The engines pickle the adapter into every worker at ``setup``; each
    worker's copy records into that process's recorder, which writes its
    spans to ``sink_dir`` when the worker exits. Every other attribute
    is the wrapped adapter's, unchanged.
    """

    def __init__(self, inner: BAAdapter, sink_dir: str):
        self.inner = inner
        self.sink_dir = sink_dir

    def __getstate__(self):
        return {"inner": self.inner, "sink_dir": self.sink_dir}

    def __setstate__(self, state):
        self.inner = state["inner"]
        self.sink_dir = state["sink_dir"]

    def __getattr__(self, name):
        if name == "inner":  # not yet set during unpickling
            raise AttributeError(name)
        return getattr(self.inner, name)

    def _call(self, name, fn, *args, rows=0, **kwargs):
        return process_recorder(self.sink_dir).call(
            name, fn, *args, rows=rows, **kwargs
        )

    def w_update(self, spec, theta, state, shard, mu, **kw):
        return self._call("w_update", self.inner.w_update, spec, theta, state,
                          shard, mu, rows=shard.n, **kw)

    def w_update_batch(self, specs, thetas, states, shard, mu, **kw):
        return self._call("w_update_batch", self.inner.w_update_batch, specs,
                          thetas, states, shard, mu, rows=shard.n * len(specs), **kw)

    def z_update(self, shard, mu):
        return self._call("z_update", self.inner.z_update, shard, mu, rows=shard.n)

    def e_q_shard(self, shard, mu):
        return self._call("objective", self.inner.e_q_shard, shard, mu)

    def e_ba_shard(self, shard):
        return self._call("objective", self.inner.e_ba_shard, shard)

    def violations_shard(self, shard):
        return self._call("objective", self.inner.violations_shard, shard)


# --------------------------------------------------------------------- fits
@dataclass
class Fit:
    fit_s: float
    iters: list = field(default_factory=list)  # IterationStats per iteration
    walls_s: list = field(default_factory=list)  # coordinator-timed run_iteration
    trajectory: list = field(default_factory=list)  # (e_q, z_changes)
    model: object = None


def run_fit(backend, cfg: TrainConfig, inputs: Inputs, *, recorder=None,
            sink_dir: str | None = None) -> Fit:
    """Set up one fit on ``backend`` and run the whole mu schedule."""
    adapter, shards = fresh_problem(cfg, inputs)
    if sink_dir is not None:
        adapter = TracedBAAdapter(adapter, sink_dir)
    rec = recorder if recorder is not None else SpanRecorder()
    backend.setup(adapter, shards)
    try:
        fit = Fit(fit_s=0.0)
        root = rec.open("fit")
        t0 = time.perf_counter()
        for i, mu in enumerate(cfg.mus):
            for p, X_new in inputs.stream[i]:
                rec.call("backend.ingest", backend.ingest, p, X_new, ctx=i,
                         rows=len(X_new))
            t_it = time.perf_counter()
            stats = rec.call("backend.run_iteration", backend.run_iteration, mu, ctx=i)
            fit.walls_s.append(time.perf_counter() - t_it)
            fit.iters.append(stats)
            fit.trajectory.append((stats.e_q, stats.z_changes))
        fit.fit_s = time.perf_counter() - t0
        rec.close(root)
    finally:
        backend.teardown()
    fit.model = adapter.model
    return fit


def _fit_gates(cfg: TrainConfig, fits: list[Fit], evaluator) -> tuple[list, float]:
    """Correctness checks shared by both run modes; returns (problems,
    precision_at_k of the last fit's model)."""
    problems = []
    for f in fits:
        if not all(math.isfinite(e) for e, _ in f.trajectory):
            problems.append("E_Q is not finite")
        lost = sum(s.shards_lost for s in f.iters)
        if lost:
            problems.append(f"{lost} shard(s) lost during a fit")
    ref = fits[0].trajectory
    for f in fits[1:]:
        if f.trajectory != ref:
            problems.append("fits of one seed produced different E_Q / z_changes trajectories")
            break
    precision = float(evaluator(fits[-1].model)["precision"])
    if not precision >= cfg.precision_floor:
        problems.append(f"precision_at_k {precision:.4f} below floor {cfg.precision_floor}")
    return problems, precision


def _failed_iterations(fit: Fit) -> int:
    """Iterations that lost a shard or needed a pool respawn."""
    return sum(1 for s in fit.iters if s.shards_lost or s.extra.get("respawns"))


def _peak_rss_mb(backend) -> float:
    return max([self_peak_rss_mb()] + [proc_peak_rss_mb(p) for p in backend.worker_pids])


def measure_setup(cfg: TrainConfig, inputs: Inputs, seed: int) -> tuple[float, float]:
    """Median seconds from backend construction until ``setup`` returns,
    and the peak RSS any of those pools reached."""
    times, peak = [], 0.0
    for _ in range(SETUP_WARMUP + SETUP_REPS):
        adapter, shards = fresh_problem(cfg, inputs)
        t0 = time.perf_counter()
        backend = make_backend(cfg, seed)
        try:
            backend.setup(adapter, shards)
            times.append(time.perf_counter() - t0)
            peak = max(peak, _peak_rss_mb(backend))
        finally:
            backend.close()
    return median(times[SETUP_WARMUP:]), peak


def run_timed(cfg: TrainConfig, seed: int, seconds: float) -> dict:
    inputs = make_inputs(cfg, seed)
    evaluator = PrecisionEvaluator(inputs.queries, inputs.X, K=cfg.knn, k=cfg.knn)
    setup_s, setup_peak = measure_setup(cfg, inputs, seed)
    backend = make_backend(cfg, seed)
    try:
        run_fit(backend, cfg, inputs)  # warm-up: pool spawn, caches, allocator
        fits: list[Fit] = []
        t_start = time.perf_counter()
        while len(fits) < MIN_FITS or (
            time.perf_counter() - t_start + fits[-1].fit_s <= seconds
        ):
            fits.append(run_fit(backend, cfg, inputs))
        peak = max(setup_peak, _peak_rss_mb(backend))
    finally:
        backend.close()
    problems, precision = _fit_gates(cfg, fits, evaluator)
    attempted = sum(len(f.iters) for f in fits)
    failed = sum(_failed_iterations(f) for f in fits)
    metrics = {
        "setup_s": setup_s,
        "job_s": median([f.fit_s for f in fits]),
        "served_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak,
    }
    detail = {"fits": len(fits), "fit_s": [f.fit_s for f in fits],
              "iter_ms_p50": median([w * 1e3 for f in fits for w in f.walls_s]),
              "final_e_q": fits[-1].trajectory[-1][0], "precision_at_k": precision}
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}


# ------------------------------------------------------------ traced run
def run_traced(cfg: TrainConfig, seed: int, seconds: float) -> dict:
    inputs = make_inputs(cfg, seed)
    evaluator = PrecisionEvaluator(inputs.queries, inputs.X, K=cfg.knn, k=cfg.knn)
    sink = OUT_DIR / f"spans-{cfg.name}-{seed}-{time.time_ns()}"
    sink.mkdir(parents=True)
    rec = SpanRecorder()
    backend = make_backend(cfg, seed)
    try:
        warm = run_fit(backend, cfg, inputs)
        plain = run_fit(backend, cfg, inputs)
        pids = backend.worker_pids
        cpu0 = sum(proc_cpu_s(p) for p in pids)
        traced = run_fit(backend, cfg, inputs, recorder=rec, sink_dir=str(sink))
        worker_cpu = sum(proc_cpu_s(p) for p in pids) - cpu0
    finally:
        backend.close()  # workers exit cleanly and write their spans
    worker_spans = [s for path in sorted(sink.glob("spans-*.json"))
                    for s in SpanRecorder.load(path)]
    shutil.rmtree(sink)
    problems, precision = _fit_gates(cfg, [warm, plain, traced], evaluator)
    if not worker_spans:
        problems.append("traced fit recorded no worker spans")
    metrics = layer_metrics(cfg, traced, rec.spans, worker_spans)
    metrics["backends.worker_busy_frac"] = worker_cpu / (MACHINES * traced.fit_s)
    metrics["bench.trace_overhead_s"] = traced.fit_s - plain.fit_s
    metrics["quality.precision_at_k"] = precision
    return {"problems": problems, "attempted": len(traced.iters),
            "failed": _failed_iterations(traced),
            "metrics": metrics,
            "detail": {"fit_s_untraced": plain.fit_s, "fit_s_traced": traced.fit_s}}


def layer_metrics(cfg: TrainConfig, fit: Fit, coord: list[Span],
                  workers: list[Span]) -> dict:
    """Per-layer breakdown of one traced fit (totals over the fit)."""
    iters = fit.iters
    w_s = sum(s.extra["w_time"] for s in iters)
    z_s = sum(s.extra["z_time"] for s in iters)
    wall_s = sum(s.wall_time for s in iters)
    coord_s = wall_s - w_s - z_s

    # Attach every worker span to the coordinator iteration span that
    # contains its start, then take self times over the merged tree.
    spans = list(coord)
    iter_idx = [i for i, s in enumerate(spans) if s.name == "backend.run_iteration"]
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    by_iter: dict[int, list[Span]] = {i: [] for i in iter_idx}
    for ws in workers:
        owner = next((i for i in iter_idx
                      if spans[i].start_ns <= ws.start_ns < spans[i].end_ns), None)
        spans.append(ws)
        if owner is not None:
            children.setdefault(owner, []).append(len(spans) - 1)
            by_iter[owner].append(ws)
    self_ns = self_times(spans, children)

    def total(name: str) -> tuple[float, int, int]:
        picked = [i for i, s in enumerate(spans) if s.name == name]
        return (sum(self_ns[i] for i in picked) / 1e9, len(picked),
                sum(spans[i].rows for i in picked))

    # Ring wait: the slowest worker's W step (the last to start its Z
    # step) minus the time that worker spent inside W updates.
    ring_wait_s = 0.0
    for k, i in enumerate(iter_idx):
        ws = by_iter[i]
        z_start = {s.pid: s.start_ns for s in ws if s.name == "z_update"}
        if not z_start:
            continue
        slowest = max(z_start, key=z_start.get)
        w_self = sum(s.duration_ns for s in ws if s.pid == slowest
                     and s.name in ("w_update", "w_update_batch")) / 1e9
        ring_wait_s += iters[k].extra["w_time"] - w_self

    z_self, z_calls, z_rows = total("z_update")
    w_self, w_calls, _ = total("w_update")
    wb_self, wb_calls, _ = total("w_update_batch")
    obj_self, _, _ = total("objective")
    it_self, _, _ = total("backend.run_iteration")
    ingest_s, _, _ = total("backend.ingest")
    return {
        "backends.iter_ms.p50": median(fit.walls_s) * 1e3,
        "backends.iter_ms.max": max(fit.walls_s) * 1e3,
        "backends.z_step_s": z_s,
        "backends.w_step_s": w_s,
        "backends.ring_wait_s": ring_wait_s,
        "backends.coord_s": coord_s,
        "backends.coord_frac": coord_s / wall_s,
        "backends.run_iteration.self_s": it_self,
        "backends.bytes_per_iter": float(np.mean([s.bytes_sent for s in iters])),
        "backends.hops_per_iter": float(np.mean([s.hops for s in iters])),
        "backends.ingest_s": ingest_s,
        "dataplane.rows_ingested": float(sum(s.rows_ingested for s in iters)),
        "autoencoder.z_update.self_s": z_self,
        "autoencoder.z_update.calls": float(z_calls),
        "autoencoder.z_update.rows_per_s": z_rows / z_self if z_self > 0 else 0.0,
        "autoencoder.w_update.self_s": w_self,
        "autoencoder.w_update.calls": float(w_calls),
        "autoencoder.w_update_batch.self_s": wb_self,
        "autoencoder.w_update_batch.calls": float(wb_calls),
        "autoencoder.objective.self_s": obj_self,
        "autoencoder.final_e_q": float(fit.trajectory[-1][0]),
    }

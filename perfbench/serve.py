"""Serving workload: ``serve-mixed``.

A :class:`RetrievalService` over a 2-shard process-mode
:class:`ShardedHammingIndex` holding ``N_BASE`` 64-bit codes from a
linear binary autoencoder (D=128). Queries arrive open-loop: one
generator thread submits them at seeded Poisson due times, over a fixed
ladder of offered rates, and each query is timed from its due time.
Alongside, a second thread calls ``RetrievalService.add`` at a fixed
interval, so adds contend with scans for the index lock.

Timed run: set-up timed ``SETUP_REPS`` times, a warm-up burst, then on
the one service the ladder, with an add every ``ADD_INTERVAL_S`` of each
step's arrival schedule, and ``BURSTS`` closed bursts (every query
submitted at once, ``BURST_ADDS`` adds made while they are served; the
burst's wall time is the offline throughput figure). The adds stay in the index for the rest of the run, as on a
long-lived service, so every step after the first and every burst scans
an index that has absorbed them; their number is fixed by the schedule,
not by how fast the host runs. Traced run:
an untraced and a traced burst on the fresh index (the tracing
overhead), then the ladder with adds, traced, and a fixed probe search
before and after the adds.

Every answer, in both runs, is checked against a flat
:class:`HammingIndex` scan of the index as it stood before or after each
add that overlapped the query.
"""

from __future__ import annotations

import bisect
import gc
import mmap
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import median, percentile, tree_peak_rss_mb
from spans import SpanRecorder, self_times

from repro.autoencoder import BinaryAutoencoder
from repro.autoencoder.init import init_codes_pca
from repro.core.evaluation import PrecisionEvaluator
from repro.data.synthetic import make_sift_like
from repro.retrieval.hamming import pack_bits
from repro.serve import HammingIndex, RetrievalService
from repro.serve.service import Overloaded

N_BASE = 200_000
N_POOL, N_ADDS, N_TRAIN = 4096, 4096, 3000
DIM, N_BITS, SHARDS, K = 128, 64, 2, 10
MAX_WAIT_MS, MAX_BATCH = 2.0, 64
#: Admission cap, set above any backlog the ladder can build so that no
#: query is refused; rejections would show as failures.
MAX_PENDING = 1 << 16
#: Offered rates (queries/s), run in this order. Saturated after the
#: earlier steps' adds, the service answered 900-1450 q/s on a 2-core
#: host, so the top two rates overload it; the last step's completion
#: rate is its capacity while the generator and the adds run. The reference rate, where p50/p99 are
#: reported, is well below capacity: there a query's latency is its
#: batching window plus one batch's service time, and it moves in
#: proportion with the host's speed instead of swinging with queueing.
LADDER = (250, 500, 1000, 2000, 4000)
#: Share of the run's seconds each step's arrivals span: most goes to
#: the reference step, for its p99; the overload step's backlog drains
#: for a few seconds after its last arrival.
STEP_WEIGHTS = (3.0, 0.5, 0.5, 0.5, 0.5)
REF_RATE = 250
P99_LIMIT_MS = 100.0
#: Every add appends one scan block to the tail shard, and the blocks
#: are kept for the whole run, so the index each step and burst scans
#: has absorbed every add made before it.
ADD_ROWS, ADD_INTERVAL_S = 64, 0.2
#: Per-search deadline of the sharded scan, far above the batch scans
#: measured (p99 ~30 ms at the reference rate). A shard that misses it is left out of the answer,
#: which then counts as failed (partial).
SCAN_TIMEOUT_S = 1.0
SETUP_REPS, BURSTS, BURST_QUERIES = 7, 9, 2048
#: Adds made while each timed burst is served, early in the burst, so
#: the burst's time includes writes contending with scans.
BURST_ADDS, BURST_ADD_GAP_S = 4, 0.05
RESULT_TIMEOUT_S = 60.0
#: Generator lateness (p99 at the reference rate) beyond which the
#: latency figures do not describe the offered load: the run is invalid.
MAX_GEN_LATE_MS = 50.0
#: The served model's precision_at_k is ~0.25 against a chance level
#: of K / PRECISION_BASE = 0.0005.
PRECISION_BASE, PRECISION_QUERIES, PRECISION_FLOOR = 20_000, 1000, 0.1
#: The served codes must stay spread out: at least this share of the
#: base distinct, and the median query's K-th neighbour at a distance
#: above 0, so the scan prunes and merges as it would on real codes
#: instead of stopping at a block of exact ties.
MIN_DISTINCT_FRAC = 0.5
#: Queries in the fixed probe search timed before and after the adds.
PROBE_QUERIES, PROBE_REPS = 16, 9


# ------------------------------------------------------------------ inputs
@dataclass
class Inputs:
    base: np.ndarray
    pool: np.ndarray  # query vectors, drawn from by index
    adds: np.ndarray  # rows streamed in through add(), cycled
    train: np.ndarray  # rows the served model is trained on
    draws: np.random.Generator  # query choice and arrival times


def _generate(buf, n: int, seed: int) -> None:
    X = np.frombuffer(buf, dtype=np.float64).reshape(n, DIM)
    X[:] = make_sift_like(n, DIM, rng=np.random.default_rng(seed))


def make_inputs(seed: int) -> Inputs:
    """One SIFT-like mixture, split into base, query pool, add rows and
    the served model's training rows.

    The generator's temporaries peak at about three times the data, so it
    runs in a forked child writing into shared memory: the serving
    process's peak RSS then reflects the data and the program, not the
    generator.
    """
    n = N_BASE + N_POOL + N_ADDS + N_TRAIN
    buf = mmap.mmap(-1, n * DIM * 8)
    proc = mp.get_context("fork").Process(target=_generate, args=(buf, n, seed))
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"input generator exited with code {proc.exitcode}")
    X = np.frombuffer(buf, dtype=np.float64).reshape(n, DIM)
    base, pool, adds, train = np.split(X, np.cumsum([N_BASE, N_POOL, N_ADDS]))
    return Inputs(base, pool, adds, train, np.random.default_rng([seed, 1]))


def make_model(inputs: Inputs) -> BinaryAutoencoder:
    """The served model: a linear BA at ParMAC's initial state. Its
    encoder is the truncated-PCA hash of the training rows, its decoder
    the least-squares fit to those codes.

    Not a MAC-trained model: a few MAC iterations on these rows map the
    base onto a few hundred distinct codes, and the scan would then
    measure a block of exact ties instead of its pruning and merging.
    """
    Z, hash_ = init_codes_pca(inputs.train, N_BITS)
    model = BinaryAutoencoder.linear(DIM, N_BITS)
    for bit, v in enumerate(hash_.V_):
        model.encoder.set_bit_params(bit, np.append(v, -v @ hash_.mean_))
    model.decoder.fit_lstsq(Z, inputs.train)
    return model


def start_service(model, base) -> RetrievalService:
    # Process shards: with thread shards the two scans, the batcher, the
    # load generator and the add stream all contend for one interpreter
    # lock; on a 2-core box p50 at 500 q/s then read 10-19 ms across
    # seeds against 7-9 ms with process shards.
    return RetrievalService.from_data(
        model, base, n_shards=SHARDS, shard_mode="process", k=K,
        scan_timeout_s=SCAN_TIMEOUT_S, max_wait_ms=MAX_WAIT_MS,
        max_batch=MAX_BATCH, max_pending=MAX_PENDING,
    )


def measure_setup(model, base) -> tuple[list, RetrievalService]:
    """Seconds to encode the base, build the index and start the service,
    for each of ``SETUP_REPS`` builds after an untimed first one; returns
    the last service built, left running."""
    times, service = [], start_service(model, base)
    for _ in range(SETUP_REPS):
        service.close()
        t0 = time.perf_counter()
        service = start_service(model, base)
        times.append(time.perf_counter() - t0)
    return times, service


# --------------------------------------------------------------- load
@dataclass
class Answer:
    qi: int  # index into the query pool
    due: float  # perf_counter seconds
    submitted: float
    done: float | None = None
    ids: np.ndarray | None = None
    dists: np.ndarray | None = None
    failure: str | None = None  # rejected | timeout | error | partial

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Step:
    rate: float
    answers: list
    late_ms: list
    stats: dict  # ServiceStats deltas over the step
    t0: float  # perf_counter seconds: first due time's origin
    t1: float  # perf_counter seconds: every answer collected

    def ok(self) -> list:
        return [a for a in self.answers if a.failure is None]

    def p(self, q: float) -> float:
        ok = self.ok()
        return percentile([a.latency_ms for a in ok], q) if ok else float("inf")

    @property
    def failed_frac(self) -> float:
        return sum(a.failure is not None for a in self.answers) / len(self.answers)

    def backlog_grew(self) -> bool:
        """Answers completed slower than queries arrived."""
        span = self.answers[-1].due - self.answers[0].due
        return self.completed_per_s() < 0.95 * len(self.answers) / max(span, 1e-9)

    def completed_per_s(self) -> float:
        """Answers completed per second, from the first due time to the
        last completion."""
        done = [a.done for a in self.ok()]
        return len(done) / (max(done) - self.answers[0].due) if done else 0.0

    def meets_slo(self) -> bool:
        return (not self.failed_frac and self.p(99) <= P99_LIMIT_MS
                and not self.backlog_grew())


def _collect(answers: list, tickets: list) -> None:
    for a, ticket in zip(answers, tickets):
        if ticket is None:
            continue
        try:
            a.ids, a.dists = ticket.result(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            a.failure = "timeout"
            continue
        except Exception:  # the service reports a failed batch by raising it
            a.failure = "error"
            continue
        a.done = ticket.t_done
        if ticket.partial:
            a.failure = "partial"


def _quiet_gc() -> None:
    """Move the answers kept so far out of the collector's view, so that
    a collection pausing every thread mid-step scans only this step's
    objects, not the whole run's."""
    gc.collect()
    gc.freeze()


def _submit(service, inputs: Inputs, qi: int, due: float) -> tuple[Answer, object]:
    t = time.perf_counter()
    try:
        ticket = service.submit(inputs.pool[qi])
    except Overloaded:
        return Answer(qi, due, t, failure="rejected"), None
    return Answer(qi, due, t), ticket


def _stats_delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in ("n_queries", "n_batches", "n_partial",
                                              "n_rejected")}


def open_loop_step(service, inputs: Inputs, rate: float, n: int, adds) -> Step:
    """Submit ``n`` pool queries at seeded Poisson due times, with
    ``adds`` adding rows on its schedule until the last due time."""
    _quiet_gc()
    gaps = inputs.draws.exponential(1.0 / rate, size=n)
    picks = inputs.draws.integers(0, len(inputs.pool), size=n)
    before = service.stats.snapshot()
    answers, tickets, late = [], [], []
    t0 = time.perf_counter()
    dues = t0 + np.cumsum(gaps)
    adds.start(t0, int((dues[-1] - t0) / ADD_INTERVAL_S), ADD_INTERVAL_S)
    for qi, due in zip(picks.tolist(), dues.tolist()):
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append((time.perf_counter() - due) * 1e3)
        a, ticket = _submit(service, inputs, qi, due)
        answers.append(a)
        tickets.append(ticket)
    _collect(answers, tickets)
    adds.join()
    return Step(rate, answers, late, _stats_delta(before, service.stats.snapshot()),
                t0, time.perf_counter())


def burst(service, inputs: Inputs, adds=None) -> tuple[float, list]:
    """Submit ``BURST_QUERIES`` pool queries at once, with ``adds``, when
    given, adding ``BURST_ADDS`` batches while they are served; seconds
    until the last answer, and the answers."""
    _quiet_gc()
    picks = inputs.draws.integers(0, len(inputs.pool), size=BURST_QUERIES)
    t0 = time.perf_counter()
    if adds is not None:
        adds.start(t0, BURST_ADDS, BURST_ADD_GAP_S)
    pairs = [_submit(service, inputs, qi, t0) for qi in picks.tolist()]
    answers = [a for a, _ in pairs]
    _collect(answers, [t for _, t in pairs])
    if adds is not None:
        adds.join()
    done = [a.done for a in answers if a.done is not None]
    return (max(done) if done else time.perf_counter()) - t0, answers


class AddStream:
    """Calls ``service.add`` from a background thread on a fixed schedule,
    cycling through the input's add rows. The row cursor and the log
    carry over from one schedule to the next."""

    def __init__(self, service, inputs: Inputs, call=None):
        self.service = service
        self.inputs = inputs
        self.call = call or (lambda fn, X: fn(X))
        # (start, end, first id assigned, row indices) per completed add
        self.log: list[tuple[float, float, int, np.ndarray]] = []
        self.failures = 0
        self._cursor = 0
        self._thread: threading.Thread | None = None

    def start(self, t0: float, n: int, interval: float) -> None:
        """Add ``ADD_ROWS`` rows at ``t0 + j * interval`` for j = 1..n:
        the count depends on the schedule only, never on how fast the
        host runs."""
        dues = (t0 + interval * np.arange(1, n + 1)).tolist()
        self._thread = threading.Thread(target=self._run, args=(dues,),
                                        name="bench-adds", daemon=True)
        self._thread.start()

    def join(self) -> None:
        self._thread.join(timeout=RESULT_TIMEOUT_S)
        if self._thread.is_alive():
            raise RuntimeError("add stream did not finish")

    def _run(self, dues: list) -> None:
        n_rows = len(self.inputs.adds)
        for due in dues:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rows = np.arange(self._cursor, self._cursor + ADD_ROWS) % n_rows
            self._cursor = (self._cursor + ADD_ROWS) % n_rows
            t_start = time.perf_counter()
            try:
                ids = self.call(self.service.add, self.inputs.adds[rows])
            except Exception:
                self.failures += 1
                continue
            self.log.append((t_start, time.perf_counter(), int(ids[0]), rows))

    def latencies_ms(self) -> list:
        return [(e - s) * 1e3 for s, e, _, _ in self.log]


def run_ladder(service, inputs: Inputs, seconds: float, adds: AddStream) -> list:
    """Every ladder step, in order, on one service, with adds."""
    unit = seconds / sum(STEP_WEIGHTS)
    return [open_loop_step(service, inputs, rate, int(rate * weight * unit), adds)
            for rate, weight in zip(LADDER, STEP_WEIGHTS)]


def probe_search(service, inputs: Inputs) -> float:
    """Median milliseconds of one fixed ``PROBE_QUERIES``-query search,
    called on the service's index while the service is idle."""
    codes = pack_bits(service.model.encode(inputs.pool[:PROBE_QUERIES]))
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        service.index.search(codes, K)
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


# --------------------------------------------------------------- checking
class Oracle:
    """Expected answers: a flat :class:`HammingIndex` scan of the base,
    merged exactly with the rows added since, for any index size a query
    could have seen."""

    def __init__(self, model, inputs: Inputs):
        self.model = model
        self.inputs = inputs
        self.pool_codes = pack_bits(model.encode(inputs.pool))
        base_codes = pack_bits(model.encode(inputs.base))
        self.distinct = len(np.unique(base_codes, axis=0))
        flat = HammingIndex.from_codes(base_codes, N_BITS)
        self.ids, self.dists = flat.search(self.pool_codes, K)

    def _added_candidates(self, log) -> list:
        """Per pool query, the added rows close enough to enter its top k
        (no farther than its k-th base neighbour): (ids, dists)."""
        if not log:
            return [(np.empty(0, np.int64), np.empty(0, np.int64))] * len(self.pool_codes)
        added = np.concatenate(
            [pack_bits(self.model.encode(self.inputs.adds[rows])) for _, _, _, rows in log]
        )
        first = log[0][2]
        out = []
        for q0 in range(0, len(self.pool_codes), 512):
            Q = self.pool_codes[q0 : q0 + 512]
            D = np.bitwise_count(Q[:, None, 0] ^ added[None, :, 0]).astype(np.int64)
            for r in range(len(Q)):
                keep = np.flatnonzero(D[r] <= self.dists[q0 + r, -1])
                out.append((first + keep, D[r, keep]))
        return out

    def check(self, answers, log=()) -> int:
        """Number of answers that match no index state current at some
        instant between their submission and completion."""
        extra = self._added_candidates(log)
        add_start = [s for s, _, _, _ in log]
        add_end = [e for _, e, _, _ in log]
        sizes = [N_BASE] + [first + len(rows) for _, _, first, rows in log]
        bad = 0
        for a in answers:
            if a.failure is not None:
                continue
            hi = bisect.bisect_right(add_start, a.done)  # adds begun by completion
            lo = bisect.bisect_left(add_end, a.submitted)  # adds finished before submit
            ids_x, d_x = extra[a.qi]
            got_d = a.dists.astype(np.int64)
            for size in sizes[lo : hi + 1]:
                m = ids_x < size
                ids = np.concatenate([self.ids[a.qi], ids_x[m]])
                ds = np.concatenate([self.dists[a.qi].astype(np.int64), d_x[m]])
                order = np.lexsort((ids, ds))[:K]
                if np.array_equal(a.ids, ids[order]) and np.array_equal(got_d, ds[order]):
                    break
            else:
                bad += 1
        return bad

    def code_problems(self) -> list:
        """Whether the served codes are spread out enough to exercise the
        scan's pruning (see ``MIN_DISTINCT_FRAC``)."""
        problems = []
        if self.distinct < MIN_DISTINCT_FRAC * N_BASE:
            problems.append(f"only {self.distinct} distinct codes in a base of {N_BASE}")
        if not np.median(self.dists[:, -1]) > 0:
            problems.append("the median query's K-th neighbour is at distance 0")
        return problems


def _gates(oracle: Oracle, answers, adds, ref: Step, precision: float) -> list:
    """Every correctness check of a serving run."""
    problems = oracle.code_problems()
    bad = oracle.check(answers, adds.log)
    if bad:
        problems.append(f"{bad} answer(s) differ from a flat scan of the index")
    if adds.failures:
        problems.append(f"{adds.failures} add call(s) raised")
    if percentile(ref.late_ms, 99) > MAX_GEN_LATE_MS:
        problems.append("load generator ran late at the reference rate")
    if not precision >= PRECISION_FLOOR:
        problems.append(f"precision_at_k {precision:.4f} below floor {PRECISION_FLOOR}")
    return problems


def slo_qps(steps) -> float:
    """The highest ladder rate meeting the latency limit with no failures
    and no growing backlog; 0 when none does."""
    return float(max((s.rate for s in steps if s.meets_slo()), default=0))


def _ref(steps) -> Step:
    return next(s for s in steps if s.rate == REF_RATE)


def _precision(model, inputs: Inputs) -> float:
    """precision_at_k of the served model: held-out pool queries against
    a slice of the base."""
    ev = PrecisionEvaluator(inputs.pool[:PRECISION_QUERIES],
                            inputs.base[:PRECISION_BASE], K=K, k=K)
    return float(ev(model)["precision"])


def _counts(answers, adds) -> tuple[int, int]:
    failed = sum(a.failure is not None for a in answers) + adds.failures
    return len(answers) + len(adds.log) + adds.failures, failed


def run_timed(seed: int, seconds: float) -> dict:
    inputs = make_inputs(seed)
    model = make_model(inputs)
    setup_times, service = measure_setup(model, inputs.base)
    try:
        burst(service, inputs)  # warm-up: shard workers, allocator
        adds = AddStream(service, inputs)
        steps = run_ladder(service, inputs, seconds, adds)
        bursts = [burst(service, inputs, adds) for _ in range(BURSTS)]
        peak = tree_peak_rss_mb()  # while the shard workers are alive
    finally:
        service.close()
    answers = [a for s in steps for a in s.answers] + [a for _, g in bursts for a in g]
    precision = _precision(model, inputs)
    oracle = Oracle(model, inputs)
    attempted, failed = _counts(answers, adds)
    metrics = {
        "setup_s": median(setup_times),
        "job_s": median([t for t, _ in bursts]),
        "served_frac": sum(a.failure is None for a in answers) / len(answers),
        "peak_rss_mb": peak,
    }
    detail = {
        "steps": [{"rate": s.rate, "n": len(s.answers), "p50_ms": s.p(50),
                   "p99_ms": s.p(99), "failed_frac": s.failed_frac,
                   "backlog_grew": s.backlog_grew(),
                   "late_p99_ms": percentile(s.late_ms, 99),
                   "mean_batch": s.stats["n_queries"] / max(1, s.stats["n_batches"]),
                   "adds_before": sum(e < s.t0 for _, e, _, _ in adds.log)}
                  for s in steps],
        "burst_s": [t for t, _ in bursts],
        "overload_qps": steps[-1].completed_per_s(),
        "adds": len(adds.log),
        "slo_qps": slo_qps(steps),
        "precision_at_k": precision,
        "distinct_codes": oracle.distinct,
    }
    return {"problems": _gates(oracle, answers, adds, _ref(steps), precision),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": detail}


# ------------------------------------------------------------------ tracing
class TracedModel:
    """The served model with its ``encode`` calls recorded as spans."""

    def __init__(self, model, rec: SpanRecorder):
        self.model = model
        self.rec = rec

    @property
    def compute_dtype(self):
        return self.model.compute_dtype

    def encode(self, X):
        return self.rec.call("model.encode", self.model.encode, X, rows=len(X))


def trace_index(index, rec: SpanRecorder) -> None:
    """Record the index's ``search`` and ``add`` calls as spans."""
    search, add = index.search, index.add
    index.search = lambda q, k: rec.call("index.search", search, q, k, rows=len(q))
    index.add = lambda codes: rec.call("index.add", add, codes, rows=len(codes))


def run_traced(seed: int, seconds: float) -> dict:
    inputs = make_inputs(seed)
    model = make_model(inputs)
    service = start_service(model, inputs.base)
    rec = SpanRecorder()
    add_call = lambda fn, X: rec.call("service.add", fn, X, rows=len(X))  # noqa: E731
    try:
        burst(service, inputs)  # warm-up
        plain_s, plain = burst(service, inputs)
        service.model = TracedModel(model, rec)
        trace_index(service.index, rec)
        traced_s, traced = burst(service, inputs)
        probe_fresh = probe_search(service, inputs)
        adds = AddStream(service, inputs, add_call)
        steps = run_ladder(service, inputs, seconds, adds)
        probe_after = probe_search(service, inputs)
    finally:
        service.close()
    answers = plain + traced + [a for s in steps for a in s.answers]
    precision = _precision(model, inputs)
    problems = _gates(Oracle(model, inputs), answers, adds, _ref(steps), precision)
    metrics = layer_metrics(steps, rec.spans, adds)
    metrics["serve.search.probe_ms.fresh"] = probe_fresh
    metrics["serve.search.probe_ms.after_adds"] = probe_after
    metrics["quality.precision_at_k"] = precision
    metrics["bench.trace_overhead_s"] = traced_s - plain_s
    attempted, failed = _counts(answers, adds)
    return {"problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": {"burst_s_untraced": plain_s,
                                           "burst_s_traced": traced_s}}


def layer_metrics(steps, spans, adds) -> dict:
    """Per-layer breakdown of the reference-rate step, plus the add
    stream over the whole ladder."""
    ref = _ref(steps)
    self_ns = self_times(spans)
    lo, hi = ref.t0 * 1e9, ref.t1 * 1e9

    def in_ref(name: str) -> list:
        return sorted((i for i, s in enumerate(spans)
                       if s.name == name and lo <= s.start_ns < hi),
                      key=lambda i: spans[i].start_ns)

    # The batcher thread serves one batch at a time: an encode with no
    # parent span (an add's encode runs under its service.add span), then
    # that batch's search.
    enc = [i for i in in_ref("model.encode") if spans[i].parent is None]
    srch = in_ref("index.search")
    search_end = [spans[i].end_ns for i in srch]
    waits, batches = [], set()
    for a in ref.ok():
        b = bisect.bisect_right(search_end, a.done * 1e9) - 1
        waits.append((spans[enc[b]].start_ns - a.submitted * 1e9) / 1e6)
        batches.add(b)
    served = sorted(batches)
    svc_add = [i for i, s in enumerate(spans) if s.name == "service.add"]
    idx_add = [i for i, s in enumerate(spans) if s.name == "index.add"]
    ms = lambda idx: [self_ns[i] / 1e6 for i in idx]  # noqa: E731
    return {
        "serve.query_ms.p50": ref.p(50),
        "serve.query_ms.p99": ref.p(99),
        "serve.queue_wait_ms.p50": percentile(waits, 50),
        "serve.queue_wait_ms.p99": percentile(waits, 99),
        "serve.batch_rows.mean": float(np.mean([spans[enc[b]].rows for b in served])),
        "serve.search.self_ms.p50": percentile(ms(srch[b] for b in served), 50),
        "serve.search.self_ms.p99": percentile(ms(srch[b] for b in served), 99),
        "serve.encode.self_ms": percentile(ms(enc[b] for b in served), 50),
        "serve.add.self_ms": percentile(ms(idx_add), 50),
        "serve.add.lock_wait_ms": percentile(ms(svc_add), 50),
        "serve.add.calls": float(len(adds.log)),
        "serve.add_p90_ms": percentile(adds.latencies_ms(), 90),
        "serve.n_rejected": float(sum(s.stats["n_rejected"] for s in steps)),
        "serve.n_partial": float(sum(s.stats["n_partial"] for s in steps)),
        "serve.gen_late_ms.p99": percentile(ref.late_ms, 99),
        "serve.slo_qps": slo_qps(steps),
        "serve.overload_qps": steps[-1].completed_per_s(),
    }

"""Real multiprocessing backend — the MPI stand-in, pool edition.

Each worker process owns one shard ("the data cannot leave its home
machine") and executes the counter protocol of paper section 4.1 /
fig. 6 exactly; termination inside a W step is deterministic because
every worker knows in advance how many ring messages it will receive
(:func:`~repro.distributed.protocol.expected_receives`).

Beyond the original one-shot ring this backend adds:

* **a persistent worker pool** — workers are spawned once and survive
  across ``fit()`` calls; each ``setup`` re-ships the adapter and shards
  to the standing pool instead of forking P fresh processes per fit;
* **shared-memory shard shipping** — shard arrays are placed in
  ``multiprocessing.shared_memory`` segments and mapped zero-copy by the
  workers, instead of pickling a private copy of the data through each
  process boundary;
* **cross-machine shuffling** — ``shuffle_ring`` builds a freshly
  shuffled per-epoch :class:`~repro.distributed.protocol.RoutePlan`
  every iteration (section 4.3), routed per-message via the full queue
  mesh, where the old backend silently ignored the option;
* **overlapped ring sends** — under ``overlap_send=True`` each worker
  hands forwarded submodels to a double-buffered background sender
  (:class:`_AsyncSender`) and returns to training the next convoy while
  the previous one is still on the wire; the wire cast and byte
  accounting stay on the training thread, so overlap changes timing,
  never bits;
* **streaming ingestion** — ``ingest`` queues arriving rows with the
  shared :class:`~repro.distributed.dataplane.DataPlane`; at the next
  iteration boundary each drained batch is coded by the current nested
  model and shipped to its owning worker as an incremental
  shared-memory segment, which the worker appends to its shard;
* **fault handling by policy** — the coordinator polls worker liveness
  while waiting for results. Under ``fail_fast`` (default) a worker
  that dies mid-iteration tears the whole pool down with a raised error
  instead of wedging every peer on a receive that never comes. Under
  ``drop_shard`` (paper section 4.3) the dead worker's shard is retired
  from the data plane, survivors are woken with generation-tagged abort
  sentinels, the ring/homes/protocol are re-planned over the survivor
  set, and the iteration re-runs — the fit continues having lost only
  the dead machine's data.

Both wall-clock engines run one worker program, :func:`_worker_main`:
the same command loop, counter protocol, shared-memory shards, pool
lifecycle and recovery choreography. What differs per engine sits in a
small *link* object handed to each worker at spawn — this module's
:class:`_QueueLink` passes ring messages over ``multiprocessing``
queues, while the TCP backend (:mod:`repro.distributed.backends.tcp`)
subclasses the coordinator and hands out a socket link. Every fit
reaches a worker as one :class:`WorkerSetup`.

Workers report per-shard metrics after the Z step; the lowest-ranked
live worker additionally reports the assembled final parameters, which
the coordinator writes back into its adapter's model (the ParMAC
invariant: after the W step every machine holds the full final model).
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import signal
import struct
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from repro.distributed.backends.base import (
    BaseBackend,
    FaultPolicy,
    IterationStats,
    register_backend,
)
from repro.distributed.batching import (
    BatchAccumulator,
    GroupTable,
    supports_unit_batching,
    train_message_batch,
)
from repro.distributed.chaos import ChaosShim
from repro.distributed.dataplane import ClusterState, DataPlane
from repro.distributed.framing import (
    KIND_HEARTBEAT,
    KIND_INGEST,
    KIND_SHARD_RETIRED,
    FrameDecoder,
    ProtocolError,
    decode_heartbeat,
    decode_ingest,
    decode_shard_retired,
    encode_heartbeat,
    encode_shard_retired,
)
from repro.distributed.health import HealthMonitor, HeartbeatSender, WorkerPulse
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import ShardRetired, SubmodelMessage
from repro.distributed.protocol import (
    RoutePlan,
    WStepProtocol,
    expected_receives,
    home_assignment,
    replan,
)
from repro.distributed.topology import RingTopology
from repro.optim.sgd import SGDState
from repro.utils.rng import check_random_state

__all__ = ["MultiprocessBackend", "IterationAborted", "home_assignment"]

#: How often the coordinator checks worker liveness while blocked on
#: results; bounds how long a dead worker can go unnoticed.
_LIVENESS_POLL_S = 0.5


class IterationAborted(Exception):
    """The in-flight iteration was cancelled for a survivor re-plan."""


class _WorkersLost(Exception):
    """Workers died mid-iteration under ``drop_shard``; re-plan needed.

    ``payloads`` carries the survivors' results when the attempt in fact
    ran to completion everywhere except on the dead workers (nobody
    aborted — e.g. a worker died after its last ring send). Survivor
    models and Z codes then already hold the completed iteration, so the
    caller should keep these results rather than re-running, which would
    silently train the same mu twice. ``None`` when any survivor aborted
    (the attempt is partial and must be retried).
    """

    def __init__(self, dead: list[int], payloads: dict | None = None):
        super().__init__(f"worker(s) {dead} died mid-iteration")
        self.dead = dead
        self.payloads = payloads


def _unlink_segments(segments) -> None:
    """Close and unlink shared-memory segments, tolerating absent ones."""
    for seg in segments:
        if seg is None:
            continue
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:
            pass


def _maybe_untrack(seg, desc) -> None:
    """Unregister an attached segment from a spawned worker's tracker.

    Attaching registers the segment with the resource tracker (it cannot
    tell an attach from a create). Under fork the tracker process is
    shared with the coordinator, whose unlink() already unregisters the
    (deduplicated) entry — nothing to do. A spawned worker has its *own*
    tracker, which would warn about a "leaked" segment it does not own
    at exit, so untrack there.
    """
    if desc.get("untrack"):
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass


# -------------------------------------------------------------- responses
class _ResponseChannel:
    """One worker's response stream, read without ever blocking.

    Replaces the old *shared* result queue, which had a wedge the ring
    queues were already hardened against but the result path was not: a
    worker SIGKILLed while its feeder held the queue's cross-process
    write lock left that semaphore held forever, stranding every
    survivor's responses — under ``drop_shard`` the recovery could then
    only end in a worker-timeout teardown. With one pipe per worker and
    a single writer per pipe there is no shared lock to leak.

    The coordinator side parses :class:`multiprocessing.Connection`'s
    length-prefixed wire format itself from *nonblocking* reads, so a
    worker killed mid-message can never block the coordinator either:
    the partial frame just sits in the buffer and the death surfaces
    through the liveness poll. Workers keep using plain
    ``Connection.send``.
    """

    _HEADER = struct.Struct("!i")
    _LONG = struct.Struct("!Q")

    def __init__(self, reader):
        self._conn = reader
        os.set_blocking(reader.fileno(), False)
        self._buf = bytearray()

    def fileno(self) -> int:
        """File descriptor, so ``multiprocessing.connection.wait`` can
        multiplex channels directly."""
        return self._conn.fileno()

    def drain(self) -> list:
        """Every complete message currently in the pipe (possibly none)."""
        try:
            while True:
                chunk = os.read(self._conn.fileno(), 1 << 16)
                if not chunk:
                    break  # EOF: writer gone; any partial stays unparsed
                self._buf.extend(chunk)
        except BlockingIOError:
            pass
        except OSError:
            pass
        out = []
        while True:
            if len(self._buf) < self._HEADER.size:
                break
            (n,) = self._HEADER.unpack_from(self._buf)
            if n == -1:  # extended header for >= 2**31 - 1 byte payloads
                header = self._HEADER.size + self._LONG.size
                if len(self._buf) < header:
                    break
                (n,) = self._LONG.unpack_from(self._buf, self._HEADER.size)
            else:
                header = self._HEADER.size
            if len(self._buf) < header + n:
                break
            payload = bytes(self._buf[header : header + n])
            del self._buf[: header + n]
            out.append(pickle.loads(payload))
        return out

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


# ------------------------------------------------------------------ shards
def _pack_shards(shards) -> tuple[list, list]:
    """Copy each shard's arrays into one shared-memory segment.

    Returns ``(segments, descriptors)``; descriptor i tells worker i how
    to rebuild its shard as zero-copy views over the segment. Non-array
    dataclass fields travel by value; non-dataclass shards fall back to
    pickling whole. If packing fails partway, every segment already
    created is unlinked before the error propagates — a half-packed fit
    must not leave residue in /dev/shm.
    """
    segments, descs = [], []
    try:
        for shard in shards:
            if not dataclasses.is_dataclass(shard):
                segments.append(None)
                descs.append({"pickle": shard})
                continue
            arrays: list[tuple[str, int | None, np.ndarray]] = []
            values: dict = {}
            for f in dataclasses.fields(shard):
                v = getattr(shard, f.name)
                if isinstance(v, np.ndarray):
                    arrays.append((f.name, None, np.ascontiguousarray(v)))
                elif (
                    isinstance(v, (list, tuple))
                    and len(v)
                    and all(isinstance(a, np.ndarray) for a in v)
                ):
                    for i, a in enumerate(v):
                        arrays.append((f.name, i, np.ascontiguousarray(a)))
                else:
                    values[f.name] = v
            total = sum(a.nbytes for _, _, a in arrays)
            seg = shared_memory.SharedMemory(create=True, size=max(total, 1))
            segments.append(seg)
            fields = []
            offset = 0
            for name, idx, a in arrays:
                view = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.buf, offset=offset)
                view[...] = a
                fields.append((name, idx, a.dtype.str, a.shape, offset))
                offset += a.nbytes
            descs.append(
                {"name": seg.name, "cls": type(shard), "fields": fields, "values": values}
            )
    except Exception:
        _unlink_segments(segments)
        raise
    return segments, descs


def _attach_shard(desc):
    """Rebuild a shard in a worker from its shared-memory descriptor."""
    if "pickle" in desc:
        return None, desc["pickle"]
    seg = shared_memory.SharedMemory(name=desc["name"])
    _maybe_untrack(seg, desc)
    kwargs = dict(desc["values"])
    lists: dict[str, list] = {}
    for name, idx, dtype, shape, offset in desc["fields"]:
        arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=offset)
        if idx is None:
            kwargs[name] = arr
        else:
            lists.setdefault(name, []).append((idx, arr))
    for name, items in lists.items():
        kwargs[name] = [a for _, a in sorted(items, key=lambda t: t[0])]
    return seg, desc["cls"](**kwargs)


def _pack_array_block(arrays) -> tuple:
    """Pack a flat list of arrays into one shared-memory segment.

    The incremental-ingest sibling of :func:`_pack_shards`: returns
    ``(segment, descriptor)`` where the descriptor rebuilds the arrays
    as zero-copy views in the receiving worker.
    """
    arrays = [np.ascontiguousarray(a) for a in arrays]
    total = sum(a.nbytes for a in arrays)
    seg = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        fields = []
        offset = 0
        for a in arrays:
            view = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.buf, offset=offset)
            view[...] = a
            fields.append((a.dtype.str, a.shape, offset))
            offset += a.nbytes
    except Exception:
        # The segment exists in /dev/shm the moment create=True returns;
        # a failed copy-in must unlink it or it outlives the process.
        seg.close()
        seg.unlink()
        raise
    return seg, {"name": seg.name, "fields": fields}


def _attach_array_block(desc):
    """Rebuild the arrays of one :func:`_pack_array_block` descriptor."""
    seg = shared_memory.SharedMemory(name=desc["name"])
    _maybe_untrack(seg, desc)
    arrays = [
        np.ndarray(shape, dtype=dtype, buffer=seg.buf, offset=offset)
        for dtype, shape, offset in desc["fields"]
    ]
    return seg, arrays


# --------------------------------------------------------------- transport
class _AsyncSender:
    """Double-buffered background sender for overlapped ring hops.

    One daemon thread drains a bounded queue of transmit items, so the
    worker's main thread hands a just-trained submodel batch off and
    returns to training the next convoy while the previous one is still
    on the wire. A *single* sender thread per transport preserves the
    per-destination FIFO order the counter protocol relies on; the queue
    depth of two is the double buffer — one send in flight, one staged —
    which bounds how far the pipeline can run ahead of the NIC.

    Failure handling: a transmit error is recorded, not raised in the
    thread — the loop keeps consuming (and skipping) items so that
    ``Queue.join`` always terminates and a producer blocked on a full
    queue cannot deadlock; the original exception re-raises on the main
    thread at the next ``submit``/``drain``/``check``, keeping its type
    (the TCP worker's fault handling keys on ``ProtocolError``).
    """

    _STOP = object()

    def __init__(self, transmit, *, depth: int = 2):
        self._transmit = transmit
        self._q: queue_mod.Queue = queue_mod.Queue(maxsize=depth)
        self._exc: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="ring-sender", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            item = self._q.get()
            try:
                if item is self._STOP:
                    return
                if self._exc is None:
                    self._transmit(*item)
            except BaseException as exc:  # noqa: BLE001 - surfaced via check()
                self._exc = exc
            finally:
                self._q.task_done()

    def check(self) -> None:
        """Re-raise a background transmit failure on the caller's thread."""
        if self._exc is not None:
            raise self._exc

    def submit(self, *item) -> None:
        """Queue one transmit, blocking while both buffers are full.

        The wait is chopped into short timed puts so a send failure
        surfaces here instead of deadlocking the producer against a
        queue that will never drain normally.
        """
        while True:
            self.check()
            try:
                self._q.put(item, timeout=0.1)
                return
            except queue_mod.Full:
                continue

    def drain(self) -> None:
        """Block until every queued transmit has left, then re-check."""
        self.check()
        self._q.join()
        self.check()

    def close(self) -> None:
        """Stop the thread after in-flight items (no new work accepted)."""
        try:
            self._q.put(self._STOP, timeout=1.0)
        except queue_mod.Full:
            pass  # wedged transmit; the daemon thread is abandoned
        self._thread.join(timeout=5.0)


class _QueueRingTransport:
    """Ring transport over the coordinator-built full queue mesh.

    The transport interface the worker iteration runs against:
    ``send(dest, msg)`` may buffer, ``flush()`` forces buffered messages
    out, ``recv()`` returns the next incoming message (flushing first,
    so a worker never blocks while holding undelivered sends), and
    ``wire_stats()`` reports what the iteration cost on the wire. Queues
    deliver messages one at a time with no syscall to amortise, so this
    implementation sends eagerly and ``flush`` is a no-op.

    Every queue item is tagged with the iteration *generation*: after a
    ``drop_shard`` recovery the retried iteration runs under a new
    generation, so stale traffic from the aborted attempt — including
    unconsumed abort sentinels — is silently discarded instead of
    corrupting the ring. A ``(gen, None)`` item is the coordinator's
    abort sentinel: it wakes a worker blocked on a receive whose sender
    died and raises :class:`IterationAborted`.

    The sentinel alone is not a reliable wake-up: ``mp.Queue`` writes
    funnel through a per-queue feeder lock, and a worker SIGKILLed
    mid-write leaves that lock held forever — the coordinator's sentinel
    for that queue would never be delivered. ``abort_ev`` is the
    lock-free fallback: a per-worker ``Event`` the receive loop polls
    between short blocking gets, set by the coordinator alongside the
    sentinel.
    """

    def __init__(self, rank: int, ring_qs, gen: int = 0, abort_ev=None, *,
                 wire_dtype=None, compute_dtype=None, overlap=False,
                 chaos_shim=None):
        self.rank = rank
        self._ring_qs = ring_qs
        self.gen = gen
        self._abort_ev = abort_ev
        # Chaos shim: the per-link verdict is drawn at send() time (one
        # draw per message, matching the simulated engines' per-hop
        # draws) and served as a sleep at transmit time — on the sender
        # thread under overlap_send, so overlap hides injected latency
        # exactly as it hides real latency.
        self._chaos = chaos_shim
        # Reduced-precision wire (paper section 9): parameters are cast
        # down at pack time — the pickled payload genuinely shrinks — and
        # cast back to the compute dtype on receive. The worker already
        # round-tripped theta through the wire dtype after training, so
        # both casts are value-exact.
        self._wire_dtype = wire_dtype
        self._compute_dtype = compute_dtype
        # Overlapped sends: the queue put (which pickles the payload)
        # moves to a background thread. The wire cast and byte counting
        # stay on the main thread, so overlap changes *when* a message
        # leaves, never its bits.
        self._sender = _AsyncSender(self._transmit) if overlap else None
        self.msgs_sent = 0
        self.bytes_sent = 0

    def _transmit(self, dest: int, item, delay: float = 0.0) -> None:
        if delay > 0.0:
            time.sleep(delay)
        self._ring_qs[dest].put(item)

    def send(self, dest: int, msg: SubmodelMessage) -> None:
        if self._wire_dtype is not None and dest != self.rank:
            msg.theta = np.asarray(msg.theta, dtype=self._wire_dtype)
        self.msgs_sent += 1
        self.bytes_sent += msg.nbytes
        item = (self.gen, msg)
        delay = (
            self._chaos.send_delay(dest, msg.nbytes)
            if self._chaos is not None and dest != self.rank
            else 0.0
        )
        if self._sender is not None and dest != self.rank:
            self._sender.submit(dest, item, delay)
        else:
            self._transmit(dest, item, delay)

    def flush(self) -> None:
        pass

    def drain(self) -> None:
        """Wait for background sends to finish (no-op without overlap)."""
        if self._sender is not None:
            self._sender.drain()

    def close(self) -> None:
        """Stop the background sender, if any, without a full drain."""
        if self._sender is not None:
            self._sender.close()

    def recv(self) -> SubmodelMessage:
        while True:
            try:
                gen, msg = self._ring_qs[self.rank].get(timeout=_LIVENESS_POLL_S)
            except queue_mod.Empty:
                if self._sender is not None:
                    self._sender.check()
                if self._abort_ev is not None and self._abort_ev.is_set():
                    raise IterationAborted() from None
                continue
            if gen != self.gen:
                continue  # stale traffic from an aborted iteration
            if msg is None:
                raise IterationAborted()
            if self._wire_dtype is not None:
                msg.theta = np.asarray(msg.theta, dtype=self._compute_dtype)
            return msg

    def wire_stats(self) -> dict:
        stats = {"hops": self.msgs_sent, "bytes_sent": self.bytes_sent}
        if self._chaos is not None:
            stats.update(self._chaos.counters)
        return stats


# ------------------------------------------------------------------ worker
@dataclasses.dataclass
class WorkerSetup:
    """Everything a worker needs to start (or resume) one fit.

    The coordinator builds it in exactly one place
    (:meth:`MultiprocessBackend._setup_workers`) for every path that
    ships a fit to a worker — fresh setup, pool rebuild, respawn,
    restore and mid-fit join — so a knob added here reaches them all.
    Settings fixed at backend construction (the tcp host, port, hop
    batching, connect timeout, fault handling) travel once, in the
    worker's link, instead.
    """

    adapter: object
    desc: dict
    protocol: WStepProtocol
    homes: dict
    batch_size: int
    shuffle_within: bool
    seed: int
    rng_state: dict | None
    message_dtype: object
    batch_units: bool
    overlap_send: bool
    chaos: object
    cpuset: list | None
    health: object


def _build_worker_state(rank, setup: WorkerSetup) -> dict:
    """Per-fit worker state built from one :class:`WorkerSetup`.

    ``rng_state`` restores a checkpointed SGD stream in place of the
    fresh seed-derived one. ``cpuset`` (from the coordinator's
    ``pin_workers`` partition) pins this process; the state records the
    affinity actually in effect afterwards, which the setup ack reports.
    """
    adapter = setup.adapter
    seg, shard = _attach_shard(setup.desc)
    specs = adapter.submodel_specs()
    rng = np.random.default_rng(setup.seed)
    if setup.rng_state is not None:
        rng.bit_generator.state = setup.rng_state
    applied_cpuset = None
    if setup.cpuset is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, setup.cpuset)
        applied_cpuset = sorted(os.sched_getaffinity(0))
    return {
        "adapter": adapter,
        "shard": shard,
        "seg": seg,
        "protocol": setup.protocol,
        "specs": specs,
        "spec_by_sid": {s.sid: s for s in specs},
        "homes": dict(setup.homes),
        "my_sids": [sid for sid, h in setup.homes.items() if h == rank],
        "batch_size": setup.batch_size,
        "shuffle_within": setup.shuffle_within,
        "message_dtype": setup.message_dtype,
        "batch_units": setup.batch_units,
        "overlap_send": bool(setup.overlap_send),
        "chaos": setup.chaos,
        "cpuset": applied_cpuset,
        "compute_dtype": np.dtype(getattr(adapter, "compute_dtype", np.float64)),
        "rng": rng,
    }


def _checkpoint_worker_state(state) -> dict:
    """This worker's resumable state: its (private) shard and SGD stream.

    The shard arrays pickle by value through the result queue, so the
    coordinator's snapshot is decoupled from further training even when
    the arrays are still zero-copy views over a shared-memory segment.
    """
    return {
        "shard": state["shard"],
        "rng_state": state["rng"].bit_generator.state,
    }


def _apply_replan(rank, state, protocol, homes) -> None:
    """Adopt a survivor re-plan: new counter protocol, new home set."""
    state["protocol"] = protocol
    state["homes"] = dict(homes)
    state["my_sids"] = [sid for sid, h in homes.items() if h == rank]


def _report_model(state) -> list:
    """This worker's full model as ``(sid, theta)`` pairs.

    After a completed iteration every worker's adapter holds the
    identical final submodels, so any survivor can stand in for a model
    holder that died after its last ring send.
    """
    specs = state["specs"]
    thetas = get_params_many(state["adapter"], specs)
    return [(s.sid, np.array(t, copy=True)) for s, t in zip(specs, thetas)]


def _apply_worker_ingest(state, X, F, Z, indices) -> int:
    """Append one shipped ingest batch to this worker's shard.

    ``append`` concatenates into fresh private arrays, so the batch may
    be handed in as views over a shared-memory segment the coordinator
    unlinks right after the ack.
    """
    state["shard"].append(X, F, Z, indices)
    return len(X)


def _worker_units_batched(state) -> bool:
    """Whether this worker runs the batched co-resident-unit W step."""
    return (
        state.get("batch_units", True)
        and not state["shuffle_within"]
        and supports_unit_batching(state["adapter"])
    )


def _run_worker_iteration(rank, state, mu, plan, n_expected, transport,
                          model_rank=0, chaos_shim=None, crash=None):
    """One W step + Z step on this worker's shard; returns the payload.

    ``crash`` is a scheduled chaos kill point ("w"/"z"/None), resolved by
    the coordinator for this iteration's *first* attempt only: the worker
    SIGKILLs itself at the start of that phase, exactly like a real OOM
    kill, and the replacement spawned under ``respawn`` runs crash-free.
    """
    if crash == "w":
        os.kill(os.getpid(), signal.SIGKILL)
    pulse: WorkerPulse | None = state.get("pulse")
    if pulse is not None:
        pulse.enter("w")
    adapter = state["adapter"]
    shard = state["shard"]
    protocol: WStepProtocol = state["protocol"]
    specs = state["specs"]
    final: dict[int, np.ndarray] = {}
    # Batched co-resident-unit W step: arriving messages accumulate per
    # (home block, batch_key, counter) convoy group and train as one
    # stacked pass when the group completes — composition is
    # protocol-determined, so it is identical on every engine.
    acc = (
        BatchAccumulator(GroupTable(adapter, state["homes"]))
        if _worker_units_batched(state)
        else None
    )
    # Reduced-precision wire: like the simulated engines, every visit
    # round-trips the updated parameters through the wire dtype when
    # anything travels at all (P > 1), so stored finals and travelling
    # copies stay bit-identical across backends.
    wire_dtype = state.get("message_dtype")
    if protocol.n_machines <= 1:
        wire_dtype = None
    compute_dtype = state.get("compute_dtype", np.float64)

    # Straggler injection: dilate each numeric call by (factor-1)x its
    # measured duration. Only compute is slowed — receive waits and wire
    # time are untouched — matching ChaosTimeline, which scales
    # w_work/z_work and nothing else.
    straggle = None
    if chaos_shim is not None and chaos_shim.cfg.straggler_factor(rank) != 1.0:
        def straggle(t0: float) -> None:
            extra = chaos_shim.charge_straggler(time.perf_counter() - t0)
            if extra > 0.0:
                time.sleep(extra)

    def finish_visit(msg: SubmodelMessage) -> None:
        """Post-numerics tail of one visit: wire cast, final capture,
        forwarding."""
        if wire_dtype is not None:
            msg.theta = msg.theta.astype(wire_dtype).astype(compute_dtype)
        if protocol.is_final(msg.counter):
            final[msg.spec.sid] = np.array(msg.theta, copy=True)
        if protocol.should_forward(msg.counter):
            transport.send(plan.successor(rank, msg.counter), msg)

    def train_inline(msg: SubmodelMessage, passes: int) -> None:
        t0 = time.perf_counter() if straggle is not None else 0.0
        for _ in range(passes):
            msg.theta = adapter.w_update(
                msg.spec,
                msg.theta,
                msg.sgd_state,
                shard,
                mu,
                batch_size=state["batch_size"],
                shuffle=state["shuffle_within"],
                rng=state["rng"],
            )
        if straggle is not None:
            straggle(t0)

    def handle(msg: SubmodelMessage) -> None:
        if pulse is not None:
            pulse.tick()  # one heartbeat-visible unit of progress per visit
        msg.counter += 1
        passes = protocol.train_passes(msg.counter)
        if passes and acc is not None and acc.table.batchable(msg.spec.sid):
            group = acc.add(msg)
            if group is None:
                return  # convoy incomplete; numerics wait for the rest
            t0 = time.perf_counter() if straggle is not None else 0.0
            train_message_batch(
                adapter, group, shard, mu, passes=passes,
                batch_size=state["batch_size"], rng=state["rng"],
            )
            if straggle is not None:
                straggle(t0)
            for member in group:
                finish_visit(member)
            return
        train_inline(msg, passes)
        finish_visit(msg)

    t_w0 = time.perf_counter()
    my_specs = [state["spec_by_sid"][sid] for sid in state["my_sids"]]
    for spec, theta in zip(my_specs, get_params_many(adapter, my_specs)):
        handle(
            SubmodelMessage(
                spec=spec,
                theta=np.array(theta, copy=True),
                sgd_state=SGDState(),
            )
        )
    transport.flush()
    for _ in range(n_expected):
        handle(transport.recv())
    transport.flush()
    if acc is not None and acc.n_pending:
        raise RuntimeError(
            f"{acc.n_pending} submodel visit(s) never completed their batch "
            "group — convoy tracking bug"
        )
    # W-step invariant: this worker now holds every final submodel.
    set_params_many(adapter, [(spec, final[spec.sid]) for spec in specs])
    t_w = time.perf_counter() - t_w0

    if crash == "z":
        os.kill(os.getpid(), signal.SIGKILL)
    if pulse is not None:
        pulse.enter("z")
    t_z0 = time.perf_counter()
    z_changes = adapter.z_update(shard, mu)
    if straggle is not None:
        straggle(t_z0)
    t_z = time.perf_counter() - t_z0
    # Under overlap_send the final-lap forwards may still be in flight —
    # deliberately: peers sit in their receive loops while this worker's
    # Z step runs, so those sends overlap the Z compute too. They must be
    # delivered before the iteration is reported complete, though: the
    # next iteration opens a fresh transport whose frames must not
    # interleave with a still-draining sender.
    transport.drain()

    return {
        "e_q": adapter.e_q_shard(shard, mu),
        "e_ba": adapter.e_ba_shard(shard),
        "violations": adapter.violations_shard(shard),
        "z_changes": z_changes,
        "w_time": t_w,
        "z_time": t_z,
        "wire": transport.wire_stats(),
        "model": [(s.sid, final[s.sid]) for s in specs] if rank == model_rank else None,
    }


def _decode_control_blob(blob: bytes, expected_kind: int) -> list:
    """Decode a blob of concatenated control frames of one kind."""
    decoders = {
        KIND_INGEST: decode_ingest,
        KIND_SHARD_RETIRED: decode_shard_retired,
    }
    out = []
    decoder = FrameDecoder()
    for kind, payload in decoder.feed(blob):
        if kind != expected_kind:
            raise ProtocolError(
                f"expected control frame kind {expected_kind}, got {kind}"
            )
        out.append(decoders[expected_kind](payload))
    decoder.eof()
    return out


class _QueueLink:
    """The multiprocess engine's half of a worker.

    A link supplies exactly what differs between the wall-clock engines
    under the one command loop (:func:`_worker_main`): ``open`` brings
    this worker's end of the ring up for a new fit and returns its
    address; ``transport`` builds one iteration's ring transport;
    ``ingest`` appends a shipped batch; ``abort`` decides whether an
    interrupted iteration is survivable; ``command`` serves engine-only
    ops; ``close`` releases the ring end.

    Here the ring is the coordinator-built queue mesh (inherited at
    spawn, so there is nothing to open or close), ingest batches arrive
    as shared-memory segments, and only the coordinator's abort sentinel
    ends an iteration short.
    """

    def __init__(self, rank: int, ring_qs, abort_ev):
        self.rank = rank
        self._ring_qs = ring_qs
        self._abort_ev = abort_ev

    def open(self) -> None:
        return None

    def close(self) -> None:
        pass

    def transport(self, state, gen: int, **options) -> _QueueRingTransport:
        return _QueueRingTransport(
            self.rank, self._ring_qs, gen, self._abort_ev, **options
        )

    def ingest(self, state, desc) -> int:
        seg, arrays = _attach_array_block(desc)
        try:
            return _apply_worker_ingest(state, *arrays)
        finally:
            seg.close()

    def abort(self, exc: Exception) -> bool:
        return isinstance(exc, IterationAborted)

    def command(self, state, op: str, *args):
        raise ValueError(f"unknown worker command {op!r}")


def _worker_main(cmd_q, res, link):
    """Pool worker loop of both wall-clock engines.

    Serves ``setup``/``checkpoint``/``ingest``/``replan``/``model``/
    ``iter`` until ``stop``; ``link`` (:class:`_QueueLink`, or the TCP
    backend's socket link) supplies the ring transport, the ingest
    delivery, the abort handling and any engine-only commands.
    """
    rank = link.rank
    state = None
    pulse = WorkerPulse()
    beat: HeartbeatSender | None = None
    send_lock = threading.Lock()

    def reply(obj) -> None:
        # The heartbeat thread shares this connection with the command
        # loop; Connection.send is not safe under concurrent writers.
        with send_lock:
            res.send(obj)

    while True:
        cmd = cmd_q.get()
        op = cmd[0]
        if op == "stop":
            if beat is not None:
                beat.stop()
            link.close()
            if state is not None and state["seg"] is not None:
                state["seg"].close()
            break
        try:
            if op == "setup":
                _, setup = cmd
                link.close()  # a new fit rebuilds the ring end
                if state is not None and state["seg"] is not None:
                    state["seg"].close()
                state = _build_worker_state(rank, setup)
                state["pulse"] = pulse
                if setup.health is not None and beat is None:
                    # Beats travel as encoded HEARTBEAT control frames —
                    # the same bytes a multi-host deployment would send
                    # down a coordinator socket — carried here over the
                    # single-host response channel.
                    beat = HeartbeatSender(
                        lambda seq, phase, progress: reply(
                            (rank, "beat",
                             encode_heartbeat(rank, seq, progress, phase))
                        ),
                        setup.health.interval_s,
                        pulse,
                    )
                # The ack reports the cpuset actually applied (None when
                # pinning is off or unsupported) and the link's address.
                reply((rank, "ready", (state["cpuset"], link.open())))
            elif op == "checkpoint":
                reply((rank, "checkpoint", _checkpoint_worker_state(state)))
            elif op == "ingest":
                reply((rank, "ingested", link.ingest(state, cmd[1])))
            elif op == "replan":
                _, protocol, homes, retired_blob = cmd
                # The retirement announcement arrives as SHARD_RETIRED
                # control frames — validated here even on a single host,
                # so the multi-host control channel ships proven bytes.
                if retired_blob:
                    _decode_control_blob(retired_blob, KIND_SHARD_RETIRED)
                _apply_replan(rank, state, protocol, homes)
                reply((rank, "replanned", None))
            elif op == "model":
                reply((rank, "model", _report_model(state)))
            elif op == "iter":
                _, mu, orders, n_expected, gen, model_rank, crash = cmd
                plan = RoutePlan.from_orders(orders, state["protocol"])
                chaos = state["chaos"]
                # A fresh shim per iteration realigns the per-link RNG
                # streams with the simulated engines' per-W-step timeline.
                shim = (
                    ChaosShim(chaos, rank, clock=time.monotonic)
                    if chaos is not None and chaos.active()
                    else None
                )
                ring = state["protocol"].n_machines > 1
                transport = link.transport(
                    state,
                    gen,
                    wire_dtype=state["message_dtype"] if ring else None,
                    compute_dtype=state["compute_dtype"],
                    overlap=state["overlap_send"] and ring,
                    chaos_shim=shim,
                )
                try:
                    try:
                        payload = _run_worker_iteration(
                            rank, state, mu, plan, n_expected, transport,
                            model_rank, chaos_shim=shim, crash=crash,
                        )
                    finally:
                        pulse.enter("idle")
                        transport.close()
                except (IterationAborted, ProtocolError) as exc:
                    if not link.abort(exc):
                        raise
                    reply((rank, "aborted", None))
                else:
                    reply((rank, "result", payload))
            else:
                reply((rank, *link.command(state, *cmd)))
        except Exception:
            reply((rank, "error", traceback.format_exc()))


# ------------------------------------------------------------- coordinator
@register_backend("multiprocess")
class MultiprocessBackend(BaseBackend):
    """ParMAC iterations over a persistent pool of real OS processes.

    Extra parameters beyond :class:`BaseBackend`:

    ctx_method : str
        ``multiprocessing`` start method ("fork" is fastest on Linux).
    worker_timeout : float or None
        Upper bound in seconds on one whole collective gather — the time
        from issuing a command round (setup, iteration) until *all* P
        responses have arrived. Defaults to 300 s: a worker that is
        alive but *wedged* (stuck in a syscall, spinning, deadlocked)
        produces no response and no death signal, and with no deadline
        the gather would hang ``fit()`` forever. Pass ``None`` to wait
        indefinitely. Independently of the deadline, a worker *dying* is
        always detected within :data:`_LIVENESS_POLL_S` seconds, and
        handled according to ``fault_policy``: ``fail_fast`` fails the
        fit and tears down the remaining peers; ``drop_shard`` retires
        the dead shard and continues on the survivors. A timeout is
        reported as a stall (live-but-unresponsive workers), distinct
        from a fault (dead workers).
    join_slots : int
        Spare ring-queue slots pre-provisioned at pool spawn for machines
        that may join mid-fit. Existing workers hold their fork-time copy
        of the ring-queue table, so a joiner can only be reached through
        a slot that already existed when they started; when the spares
        run out the pool is transparently rebuilt (workers'
        shards/RNG streams are collected and re-shipped, so the fit stays
        bit-identical — just a slower join.)
    pin_workers : bool
        Pin each worker process to a contiguous slice of the
        coordinator's CPU affinity set (``os.sched_setaffinity``), so the
        P "machines" of a single-host benchmark stop migrating onto each
        other's cores. Best-effort and opt-in: silently inactive on
        platforms without ``sched_setaffinity``; a mid-fit joiner gets
        its slice from a recomputed partition while standing workers keep
        theirs. The cpusets actually applied (each worker reports its own
        affinity back) appear in ``IterationStats.extra["cpusets"]``.

    The adapter must be picklable; each worker gets its own copy at
    ``setup`` while the shard *data* travels through shared memory.
    ``cost`` is accepted for interface uniformity but ignored — this
    backend reports wall-clock time.
    """

    #: Whether the ring runs over coordinator-built queues (the TCP
    #: backend moves the ring to sockets and skips the mesh).
    _needs_ring_queues = True

    def __init__(
        self, *, ctx_method: str = "fork", worker_timeout: float | None = 300.0,
        join_slots: int = 4, pin_workers: bool = False, **kwargs
    ):
        super().__init__(**kwargs)
        self.ctx_method = ctx_method
        self.worker_timeout = worker_timeout
        self.join_slots = int(join_slots)
        self.pin_workers = bool(pin_workers)
        self._worker_cpusets: dict[int, list[int]] = {}
        self._ctx = None
        self._procs: dict[int, object] = {}
        self._ring_qs: list = []
        self._abort_events: dict = {}
        self._cmd_qs: dict = {}
        self._res_chans: dict[int, _ResponseChannel] = {}
        self._segments: list = []
        self._capacity = 0
        self._ranks: list[int] = []
        self._gen = 0
        self._monitor: HealthMonitor | None = None
        self._respawns_done = 0
        self._boundary: dict | None = None

    # ---------------------------------------------------------- lifecycle
    def _mark_untrack(self, descs) -> None:
        for desc in descs:
            if "pickle" not in desc:
                desc["untrack"] = self.ctx_method != "fork"

    def setup(self, adapter, shards) -> None:
        shards = list(shards)
        P = len(shards)
        if P < 1:
            raise ValueError("need at least one shard")
        self.adapter = adapter
        self._bind_dataplane(DataPlane(adapter, shards, own_data=False))
        specs = adapter.submodel_specs()
        self._specs = specs
        self._spec_by_sid = {s.sid: s for s in specs}
        self._topology = RingTopology.identity(P)
        self._protocol, self._homes = replan(
            self._topology.machines, len(specs), self.epochs, self.scheme
        )
        self._route_rng = check_random_state(self.seed)
        # A pool degraded by shard retirements — or grown by joins —
        # cannot serve a fresh fit as-is; rebuild it, like a machine-count
        # change. (A tracked member that silently *died* between fits is
        # deliberately kept: shipping setup to it makes the death surface
        # as an error, not a quiet respawn.)
        if self._procs and sorted(self._procs) != list(range(P)):
            self.close()
        if not self._procs:
            self._spawn(range(P))
        self._ranks = list(range(P))
        self._respawns_done = 0
        self._boundary = None
        self._release_segments()
        # Anything that fails between shard shipping and a successful
        # ready-collection must not leak the just-created /dev/shm
        # segments: tear the fit down (close releases the segments) and
        # re-raise.
        try:
            self._segments, descs = _pack_shards(shards)
            self._mark_untrack(descs)
            self._ship_setup(adapter, dict(enumerate(descs)))
        except Exception:
            self.close(force=True)
            raise

    def _cpusets(self, ranks) -> dict:
        """Contiguous partition of the coordinator's CPU set over ``ranks``.

        Empty when pinning is off or the platform has no
        ``sched_setaffinity``. With more workers than CPUs the tail ranks
        share the full set rather than getting an empty (illegal) mask.
        """
        if not self.pin_workers or not hasattr(os, "sched_setaffinity"):
            return {}
        cpus = sorted(os.sched_getaffinity(0))
        ranks = sorted(ranks)
        n = len(ranks)
        out = {}
        for i, rank in enumerate(ranks):
            chunk = cpus[(i * len(cpus)) // n : ((i + 1) * len(cpus)) // n]
            out[rank] = chunk if chunk else cpus
        return out

    def _ship_setup(self, adapter, descs: dict, rng_states: dict | None = None) -> None:
        """Set up the workers in ``descs`` (rank -> shard descriptor;
        ranks need not be contiguous after a restore), then bring the
        ring up across them."""
        self._link_ring(self._setup_workers(adapter, descs, rng_states))

    def _setup_workers(self, adapter, descs: dict, rng_states: dict | None = None) -> dict:
        """Ship one :class:`WorkerSetup` per rank in ``descs`` and wait
        for every ack; returns each worker's link address.

        The only place a ``setup`` command is built: every path that
        ships a fit to workers (setup, pool rebuild, respawn, restore,
        join) comes through here. ``self._ranks`` must already hold the
        post-change membership — the CPU partition is taken over it.
        """
        base_seed = 0 if self.seed is None else int(self.seed)
        rng_states = rng_states or {}
        cpusets = self._cpusets(self._ranks)
        for rank in sorted(descs):
            setup = WorkerSetup(
                adapter=adapter,
                desc=descs[rank],
                protocol=self._protocol,
                homes=self._homes,
                batch_size=self.batch_size,
                shuffle_within=self.shuffle_within,
                seed=base_seed + rank,
                rng_state=rng_states.get(rank),
                message_dtype=self.message_dtype,
                batch_units=self.batch_units,
                overlap_send=self.overlap_send,
                chaos=self.chaos,
                cpuset=cpusets.get(rank),
                health=self.health,
            )
            self._cmd_qs[rank].put(("setup", setup))
        acks = self._collect("ready", ranks=sorted(descs))
        applied = {**self._worker_cpusets, **{r: cs for r, (cs, _) in acks.items()}}
        self._worker_cpusets = {
            r: cs for r, cs in applied.items() if cs is not None and r in self._ranks
        }
        return {r: addr for r, (_, addr) in acks.items()}

    def _link_ring(self, addrs: dict) -> None:
        """Connect the freshly set-up workers into one ring (override
        point: the queue mesh already exists; the TCP backend builds its
        socket mesh from the bound ``addrs``)."""

    def _spawn(self, ranks, *, capacity: int | None = None) -> None:
        """Start worker processes for ``ranks``, with slot headroom.

        ``capacity`` (default ``max(ranks) + 1``) is the number of
        addressable machine slots; ``join_slots`` spares are provisioned
        beyond it so machines joining mid-fit can be reached by workers
        that inherited the ring-queue table at this spawn.
        """
        ranks = [int(r) for r in ranks]
        if capacity is None:
            capacity = max(ranks) + 1
        # Start the parent's resource tracker *before* forking so workers
        # inherit it; otherwise the first pool's workers lazily spawn
        # private trackers on shared-memory attach, which then warn about
        # "leaked" segments the coordinator already unlinked.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        self._ctx = mp.get_context(self.ctx_method)
        n_slots = capacity + self.join_slots if self._needs_ring_queues else 0
        self._ring_qs = [self._ctx.Queue() for _ in range(n_slots)]
        self._abort_events = (
            {r: self._ctx.Event() for r in ranks} if self._needs_ring_queues else {}
        )
        self._cmd_qs = {r: self._ctx.Queue() for r in ranks}
        self._res_chans = {}
        self._procs = {}
        try:
            for rank in ranks:
                self._launch_worker(rank)
        except Exception:
            # A half-started pool (e.g. a tcp ports list too short for
            # the last rank) must not outlive the failed spawn.
            self._close_pool(force=True)
            raise
        self._capacity = capacity
        # A fresh pool gets a fresh monitor: stale DEAD classifications
        # from a torn-down pool must not outlive it.
        self._monitor = (
            HealthMonitor(self.health) if self.health is not None else None
        )

    def _launch_worker(self, rank: int) -> None:
        """Fork one worker with its private response pipe; the parent's
        copy of the write end is closed right after the fork."""
        reader, writer = self._ctx.Pipe(duplex=False)
        self._res_chans[rank] = _ResponseChannel(reader)
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._cmd_qs[rank], writer, self._worker_link(rank)),
                daemon=True,
            )
            proc.start()
        finally:
            writer.close()
        self._procs[rank] = proc

    def _worker_link(self, rank: int) -> _QueueLink:
        """This rank's half of the ring, handed to its worker at spawn."""
        return _QueueLink(rank, self._ring_qs, self._abort_events[rank])

    # ----------------------------------------------------------- streaming
    def _apply_ingest(self, batch) -> int:
        """Ship one drained batch to its worker as an incremental segment."""
        seg, desc = _pack_array_block([batch.X, batch.F, batch.Z, batch.indices])
        desc["untrack"] = self.ctx_method != "fork"
        try:
            self._cmd_qs[batch.machine].put(("ingest", desc))
            self._collect("ingested", ranks=[batch.machine])
        finally:
            _unlink_segments([seg])
        return self.dataplane.apply(batch)

    # ----------------------------------------------------------- elasticity
    def _start_worker(self, rank: int) -> None:
        """Spawn one additional pool worker at ``rank`` (its own command
        queue, response pipe and abort event; under fork, the
        coordinator's current ring-queue table comes along)."""
        if self._ctx is None:
            raise RuntimeError("no active pool to add a worker to")
        self._cmd_qs[rank] = self._ctx.Queue()
        if self._needs_ring_queues:
            self._abort_events[rank] = self._ctx.Event()
        self._launch_worker(rank)
        self._capacity = max(self._capacity, rank + 1)

    def _apply_join(self, p: int, after: int | None) -> None:
        """Admit one registered machine: spawn its worker, ship its shard
        via shared memory, re-plan ring/homes/protocol, announce.

        Fails closed: any error after the pool/topology started changing
        tears the fit down (like a failed ``setup``) rather than leaving
        a half-joined ring behind.
        """
        if not self._procs:
            raise RuntimeError("add_machine() requires an active fit")
        if self._needs_ring_queues and p >= len(self._ring_qs):
            # The fork-time ring-queue tables in existing workers cannot
            # address slot p; rebuild the pool with fresh headroom (the
            # workers' shards and RNG streams are preserved).
            self._grow_pool(p)
        old_ranks = list(self._ranks)
        try:
            self._start_worker(p)
            segments, descs = _pack_shards([self.dataplane.shards[p]])
            self._segments.extend(segments)
            self._mark_untrack(descs)
            self._topology = self._topology.with_machine(p, after=after)
            self._protocol, self._homes = replan(
                self._topology.machines, len(self._specs), self.epochs,
                self.scheme,
            )
            self._ranks = sorted(old_ranks + [p])
            # The joiner's setup carries the coordinator's adapter, whose
            # parameters are the assembled post-iteration model — the
            # joining machine "receives the current submodels" (§4.3).
            self._ship_join(p, descs[0], old_ranks)
            # The joiner already holds the new plan from its setup; only
            # the standing workers need the announcement.
            self._announce_replan([], ranks=old_ranks)
        except Exception:
            self.close(force=True)
            raise

    def _ship_join(self, p: int, desc, old_ranks) -> None:
        """Deliver shard + plan to the joining worker (override point:
        the TCP backend adds the mesh handshake and WELCOME transfer)."""
        self._setup_workers(self.adapter, {p: desc})

    def _grow_pool(self, p: int) -> None:
        """Rebuild the pool with ring-queue headroom covering slot ``p``
        — bit-identical, just a slower join."""
        self._rebuild_pool(self._collect_worker_pool_state(), capacity=p + 1)

    def _rebuild_pool(self, states: dict, *, capacity: int,
                      force: bool = False) -> None:
        """Replace the pool with fresh processes and ring queues.

        ``states`` maps each rank to keep to its shard and SGD stream
        (as :meth:`_collect_worker_pool_state` returns them); the new
        workers resume from those and the coordinator's model, over
        ``capacity`` slots plus ``join_slots`` spares. The iteration's
        health counters carry over to the new pool's monitor.
        """
        live = sorted(states)
        counters = self._monitor.counters() if self._monitor is not None else None
        self._close_pool(force=force)
        self._spawn(live, capacity=capacity)
        self._ranks = live
        if counters is not None and self._monitor is not None:
            self._monitor.adopt_counters(counters)
        try:
            segments, descs = _pack_shards([states[r]["shard"] for r in live])
            self._segments.extend(segments)
            self._mark_untrack(descs)
            self._ship_setup(
                self.adapter,
                dict(zip(live, descs)),
                rng_states={r: states[r]["rng_state"] for r in live},
            )
        except Exception:
            self.close(force=True)
            raise

    def _collect_worker_pool_state(self) -> dict:
        """{rank: {"shard": ..., "rng_state": ...}} from every live worker."""
        for rank in self._ranks:
            self._cmd_qs[rank].put(("checkpoint",))
        return self._collect("checkpoint")

    # ----------------------------------------------------------- iteration
    def run_iteration(self, mu: float) -> IterationStats:
        if not self._procs:
            raise RuntimeError("setup() must run before run_iteration()")
        mu = float(mu)
        added, replan_s = self.drain_joins()
        rows = self.drain_ingests()
        respawn = self.fault_policy is FaultPolicy.RESPAWN
        boundary = None
        if respawn:
            # The respawn tax: hold a whole-cluster iteration-boundary
            # snapshot — every worker's shard + SGD stream plus the
            # route RNG — so a mid-iteration death can rewind the fit to
            # exactly here and retry bit-identically. (Survivors are
            # *not* reusable as-is: aborted ones consumed SGD draws,
            # completed ones advanced their Z codes.) The snapshot is
            # normally the one refreshed at the end of the previous
            # iteration — taken while the pool had just proved itself
            # alive — so a worker SIGKILLed while *idle* surfaces inside
            # the retry loop below and is healed like any mid-iteration
            # death, instead of failing this collection. A fresh collect
            # only happens on the first iteration of a fit or after
            # joins/ingests mutated worker state.
            if self._boundary is None or added or rows:
                self._boundary = self._snapshot_boundary()
            boundary = self._boundary
        # Scheduled chaos kills are resolved coordinator-side for the
        # first attempt only: a retried attempt (respawned or excised)
        # runs crash-free, so the schedule cannot re-kill a replacement.
        crashes = (
            {r: self.chaos.crash_point(r, self._iterations_done)
             for r in self._ranks}
            if self.chaos is not None and self.chaos.crashes
            else {}
        )
        if self._monitor is not None:
            self._monitor.reset_counters()
        lost: list[int] = []
        respawns = 0
        respawn_wait_s = 0.0
        t0 = time.perf_counter()
        while True:
            if self.shuffle_ring:
                plan = RoutePlan.shuffled(
                    self._topology.machines, self._protocol, self._route_rng
                )
            else:
                plan = RoutePlan.fixed(self._topology, self._protocol)
            expected = expected_receives(plan, self._homes)
            self._gen += 1
            model_rank = self._ranks[0]
            self._dispatch_iteration(mu, plan, expected, model_rank, crashes)
            crashes = {}
            try:
                payloads = self._collect_results()
                if respawn:
                    # Refresh the boundary for the *next* iteration while
                    # the pool just answered. A kill landing in this tiny
                    # window re-enters the retry loop: the completed
                    # attempt is discarded and re-run bit-identically
                    # from the held boundary.
                    try:
                        self._boundary = self._snapshot_boundary()
                    except RuntimeError:
                        self._boundary = None
                        raise _WorkersLost([], None) from None
                break
            except _WorkersLost as loss:
                recovered = False
                while respawn and self._respawns_done < self.respawn_budget:
                    t_r = time.monotonic()
                    try:
                        self._respawn_from(boundary)
                        recovered = True
                    except RuntimeError:
                        # A kill landed during the rebuild itself; the
                        # boundary is untouched, so the next attempt
                        # (budget permitting) starts from the same state.
                        continue
                    finally:
                        respawns += 1
                        respawn_wait_s += time.monotonic() - t_r
                    break
                if recovered:
                    continue
                if respawn and not self._procs:
                    # Failed rebuilds exhausted the budget and closed the
                    # pool: no survivors to degrade onto — the end of the
                    # respawn -> drop_shard -> fail_fast escalation chain.
                    raise RuntimeError(
                        f"respawn budget ({self.respawn_budget}) exhausted "
                        "with no recoverable pool; fit aborted"
                    ) from None
                # Budget exhausted (or plain drop_shard): escalate to
                # excising the dead machines over the survivor set.
                lost.extend(loss.dead)
                # The survivor set is about to shrink: the held snapshot
                # (which still contains the retired shard) must never
                # feed a later respawn.
                self._boundary = None
                payloads = loss.payloads
                if payloads is not None:
                    # No survivor aborted: the attempt completed on every
                    # survivor (models and Z codes already advanced) —
                    # keep the results instead of training this mu a
                    # second time. If the model-holding rank was the one
                    # that died, any survivor's post-iteration adapter
                    # holds the identical final model (the W-step
                    # invariant); fetch it from the lowest survivor.
                    if model_rank not in payloads:
                        model_rank = min(payloads)
                        self._cmd_qs[model_rank].put(("model",))
                        fetched = self._collect("model", ranks=[model_rank])
                        payloads[model_rank]["model"] = fetched[model_rank]
                    # Advance the coordinator's model before excising: a
                    # rebuilt pool resumes from it.
                    self._adopt_model(payloads[model_rank]["model"])
                self._excise(loss.dead)
                if payloads is not None:
                    break
        wall = time.perf_counter() - t0
        self._adopt_model(payloads[model_rank]["model"])
        ranks = sorted(payloads)
        w_time = max(payloads[r]["w_time"] for r in ranks)
        z_time = max(payloads[r]["z_time"] for r in ranks)
        wire: dict = {}
        for r in ranks:
            for key, value in (payloads[r].get("wire") or {}).items():
                wire[key] = wire.get(key, 0) + value
        extra = {"wall_time": wall, "w_time": w_time, "z_time": z_time}
        extra.update(wire)
        extra.update(self._dtype_extras())
        if respawn:
            extra["respawns"] = respawns
            extra["respawn_wait_s"] = respawn_wait_s
        if self._monitor is not None:
            extra.update(self._monitor.counters())
        if self._worker_cpusets:
            extra["cpusets"] = {
                r: list(self._worker_cpusets[r])
                for r in sorted(self._worker_cpusets)
            }
        self._iterations_done += 1
        return IterationStats(
            mu=mu,
            e_q=sum(payloads[r]["e_q"] for r in ranks),
            e_ba=sum(payloads[r]["e_ba"] for r in ranks),
            z_changes=sum(payloads[r]["z_changes"] for r in ranks),
            violations=sum(payloads[r]["violations"] for r in ranks),
            time=w_time + z_time,
            wall_time=wall,
            extra=extra,
            bytes_sent=int(wire.get("bytes_sent", 0)),
            hops=int(wire.get("hops", 0)),
            rows_ingested=rows,
            shards_lost=len(lost),
            n_machines=len(self._ranks),
            machines_added=added,
            replan_s=replan_s,
        )

    def _dispatch_iteration(self, mu: float, plan: RoutePlan, expected: dict,
                            model_rank: int, crashes: dict | None = None) -> None:
        """Send one iteration command to every live worker.

        ``crashes`` maps rank -> scheduled chaos kill point ("w"/"z") for
        this attempt; absent ranks run normally.
        """
        crashes = crashes or {}
        orders = plan.to_orders()
        for ev in self._abort_events.values():
            ev.clear()  # workers are idle between iterations; safe to reset
        if self._monitor is not None:
            self._monitor.begin_phase(self._ranks)
        for rank in self._ranks:
            self._cmd_qs[rank].put(
                ("iter", mu, orders, expected[rank], self._gen, model_rank,
                 crashes.get(rank))
            )

    # ------------------------------------------------------------ recovery
    def _snapshot_boundary(self) -> dict:
        """Whole-cluster iteration-boundary state for bit-identical retry."""
        return {
            "pool": self._collect_worker_pool_state(),
            "route_rng": self._route_rng_state(),
        }

    def _respawn_from(self, boundary) -> None:
        """Rebuild the whole pool at the iteration-start boundary.

        The dead worker's post-death shard state is unrecoverable and the
        survivors are not reusable as-is (aborted ones consumed SGD
        draws, completed ones advanced their Z codes), so recovery
        replaces *every* process: backoff, tear the pool down, respawn
        the full rank set, re-ship the boundary shards and SGD streams,
        and rewind the route RNG so the retried plan is the one the dead
        attempt ran. One budget unit is consumed up front — a kill that
        lands during the rebuild itself surfaces as a ``RuntimeError``
        from the setup gather and the caller retries from the same
        (untouched) boundary, budget permitting.
        """
        wait = self.respawn_backoff * (2 ** self._respawns_done)
        self._respawns_done += 1
        if wait > 0:
            time.sleep(wait)
        self._release_segments()
        self._rebuild_pool(
            boundary["pool"], capacity=max(boundary["pool"]) + 1, force=True
        )
        self._route_rng.bit_generator.state = copy.deepcopy(boundary["route_rng"])

    def _adopt_model(self, model) -> None:
        """Load a worker-reported ``(sid, theta)`` model into the
        coordinator's adapter."""
        set_params_many(
            self.adapter, [(self._spec_by_sid[sid], theta) for sid, theta in model]
        )

    def _request_abort(self, ranks) -> None:
        """Wake workers blocked on ring receives that will never arrive.

        Queue transport: inject a generation-tagged sentinel into each
        survivor's ring queue, and set the survivor's abort event — the
        lock-free fallback for the case where the dead worker was killed
        mid-write and left a ring queue's feeder lock held, which would
        make the sentinel undeliverable. (The TCP transport needs
        neither — survivors observe the dead peer's sockets reset and
        self-abort.)
        """
        for rank in ranks:
            self._abort_events[rank].set()
            self._ring_qs[rank].put((self._gen, None))

    def _recv_available(self, ranks, timeout: float) -> list:
        """Every response currently deliverable from ``ranks``.

        Waits up to ``timeout`` for the first readable channel, then
        drains all of them; returns ``(rank, kind, payload)`` tuples.
        Never blocks beyond the timeout — a worker killed mid-message
        leaves a partial frame in its own channel and nothing else.
        """
        chans = [self._res_chans[r] for r in ranks if r in self._res_chans]
        if not chans:
            return []
        out = []
        for chan in mp_connection.wait(chans, timeout=timeout):
            for msg in chan.drain():
                # Heartbeats ride the same response channel as replies;
                # feed them to the monitor and keep them out of gathers.
                if msg[1] == "beat":
                    self._observe_beat(msg[2])
                else:
                    out.append(msg)
        return out

    def _observe_beat(self, frame: bytes) -> None:
        """Decode one framed HEARTBEAT and feed the monitor."""
        if self._monitor is None:
            return
        for kind, payload in FrameDecoder().feed(frame):
            if kind != KIND_HEARTBEAT:
                raise ProtocolError(
                    f"expected HEARTBEAT control frame, got kind {kind}"
                )
            rank, seq, progress, phase = decode_heartbeat(payload)
            self._monitor.observe(rank, seq, phase, progress)

    def _check_stalled(self, pending) -> None:
        """Fail the gather early if the monitor sees a stalled worker —
        beating, alive, but making no progress this phase — instead of
        waiting out the blunt ``worker_timeout`` cap."""
        if self._monitor is None:
            return
        stalled = self._monitor.stalled(pending)
        if stalled:
            phases = {r: self._monitor.phase_of(r) for r in sorted(stalled)}
            self.close(force=True)
            raise RuntimeError(
                f"worker(s) {sorted(stalled)} stalled: heartbeats arrive "
                f"but no progress for {self.health.stalled_after_s}s "
                f"(phases {phases}); pool torn down"
            ) from None

    def _collect_results(self) -> dict:
        """Gather one iteration response per live worker.

        Under ``fail_fast`` any death tears the pool down with a raised
        error (historical behaviour). Under ``drop_shard`` a death turns
        the gather into an abort round: survivors are woken, their
        responses (results or abort acks) drained, and
        :class:`_WorkersLost` reports the dead set to ``run_iteration``
        for excision and retry.
        """
        deadline = (
            None
            if self.worker_timeout is None
            else time.monotonic() + self.worker_timeout
        )
        pending = set(self._ranks)
        payloads: dict[int, dict] = {}
        aborted: set[int] = set()
        dead: set[int] = set()
        abort_requested = False
        while pending:
            msgs = self._recv_available(pending, _LIVENESS_POLL_S)
            if not msgs:
                newly_dead = {r for r in pending if not self._procs[r].is_alive()}
                if newly_dead:
                    # A worker may have completed the attempt — response
                    # already in its pipe — before dying; pick that up
                    # before writing the rank off.
                    msgs = self._recv_available(newly_dead, 0)
                    newly_dead -= {m[0] for m in msgs}
                if newly_dead:
                    if self._monitor is not None:
                        for r in newly_dead:
                            self._monitor.note_dead(r)
                    if self.fault_policy is FaultPolicy.FAIL_FAST:
                        self.close(force=True)
                        raise RuntimeError(
                            f"worker(s) {sorted(newly_dead)} died mid-result; "
                            "pool torn down"
                        ) from None
                    dead |= newly_dead
                    pending -= newly_dead
                    if pending and not abort_requested:
                        self._request_abort(pending)
                        abort_requested = True
                if not msgs:
                    self._check_stalled(pending)
                    if deadline is not None and time.monotonic() > deadline:
                        self.close(force=True)
                        raise RuntimeError(
                            f"timed out after {self.worker_timeout}s waiting "
                            f"for 'result' from worker(s) {sorted(pending)}, "
                            "which are alive but unresponsive (stalled, not "
                            "dead — a dead worker is detected within "
                            f"{_LIVENESS_POLL_S}s and handled by the fault "
                            "policy); pool torn down"
                        ) from None
                    continue
            for rank, kind, payload in msgs:
                if kind == "error":
                    self.close(force=True)
                    raise RuntimeError(f"worker {rank} failed:\n{payload}")
                if kind == "result":
                    payloads[rank] = payload
                    pending.discard(rank)
                elif kind == "aborted":
                    aborted.add(rank)
                    pending.discard(rank)
        if dead or aborted:
            # An abort is always downstream of a death; find any not yet
            # caught by the liveness poll (e.g. sockets reset before the
            # first poll fired).
            dead |= {
                r
                for r in self._ranks
                if r not in dead and not self._procs[r].is_alive()
            }
            if not dead:
                self.close(force=True)
                raise RuntimeError(
                    f"worker(s) {sorted(aborted)} aborted with every peer "
                    "alive; pool torn down"
                )
            raise _WorkersLost(sorted(dead), None if aborted else payloads)
        return payloads

    def _excise(self, dead) -> None:
        """Retire dead workers' shards and re-plan around the survivors."""
        dead = set(dead)
        survivors = [r for r in self._ranks if r not in dead]
        if not survivors:
            self.close(force=True)
            raise RuntimeError("every worker died; pool torn down")
        retired = []
        for rank in sorted(dead):
            proc = self._procs.pop(rank)
            self._cmd_qs.pop(rank, None)
            self._abort_events.pop(rank, None)
            chan = self._res_chans.pop(rank, None)
            if chan is not None:
                chan.close()
            self._worker_cpusets.pop(rank, None)
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5)
            rows = self.dataplane.retire(rank, lost=True)
            retired.append(ShardRetired(machine=rank, rows_lost=rows))
            # Reconnect predecessor -> successor, preserving the cycle
            # order (which joins may have made non-sorted) exactly like
            # the simulated cluster's recovery.
            self._topology = self._topology.without_machine(rank)
        self._ranks = survivors
        self._protocol, self._homes = replan(
            self._topology.machines, len(self._specs), self.epochs, self.scheme
        )
        self._rebuild_transport(retired)
        self._announce_replan(retired)

    def _rebuild_transport(self, retired) -> None:
        """Restore the ring transport for the survivor set.

        A worker SIGKILLed mid-send can wedge a survivor's ring queue for
        good: ``mp.Queue`` writes funnel through a cross-process lock the
        dead worker's feeder may still hold, and a write cut short leaves
        half a frame in the pipe. So, like the TCP backend's mesh
        rebuild, the survivors move to a fresh pool with fresh queues,
        resuming from their own shards and SGD streams and the
        coordinator's model (which :meth:`run_iteration` has already
        advanced if the interrupted attempt is being kept).
        """
        self._rebuild_pool(
            self._collect_worker_pool_state(),
            capacity=max(self._ranks) + 1,
            force=True,
        )

    def _announce_replan(self, retired, ranks=None) -> None:
        """Ship the new protocol/home assignment to ``ranks`` (default:
        every live worker), announcing ``retired`` as SHARD_RETIRED
        control frames."""
        ranks = list(self._ranks) if ranks is None else list(ranks)
        blob = b"".join(encode_shard_retired(m) for m in retired)
        for rank in ranks:
            self._cmd_qs[rank].put(("replan", self._protocol, self._homes, blob))
        self._collect("replanned", ranks=ranks)

    # ----------------------------------------------------------- gathering
    def _collect(self, expect: str, ranks=None) -> dict:
        """Gather one ``expect`` response per rank, fail-fast on trouble.

        Used for every command round outside the iteration gather
        (setup, port exchange, replan, ingest acks): any worker error,
        death or timeout there makes the fit unrecoverable regardless of
        fault policy — tear everything down so a later ``setup`` starts
        clean.
        """
        ranks = list(self._ranks) if ranks is None else list(ranks)
        wanted = set(ranks)
        if self._monitor is not None:
            self._monitor.begin_phase(ranks)
        deadline = (
            None
            if self.worker_timeout is None
            else time.monotonic() + self.worker_timeout
        )
        payloads = {}
        while len(payloads) < len(ranks):
            msgs = self._recv_available(wanted - set(payloads), _LIVENESS_POLL_S)
            if not msgs:
                dead = [r for r in ranks if not self._procs[r].is_alive()]
                if dead:
                    if self._monitor is not None:
                        for r in dead:
                            self._monitor.note_dead(r)
                    self.close(force=True)
                    raise RuntimeError(
                        f"worker(s) {dead} died mid-{expect}; pool torn down"
                    ) from None
                self._check_stalled(wanted - set(payloads))
                if deadline is not None and time.monotonic() > deadline:
                    stalled = sorted(wanted - set(payloads))
                    self.close(force=True)
                    raise RuntimeError(
                        f"timed out after {self.worker_timeout}s waiting for "
                        f"{expect!r} from worker(s) {stalled}, which are "
                        "alive but unresponsive (stalled, not dead); pool "
                        "torn down"
                    ) from None
                continue
            for rank, kind, payload in msgs:
                if kind == "error":
                    self.close(force=True)
                    raise RuntimeError(f"worker {rank} failed:\n{payload}")
                if kind == expect and rank in wanted:
                    payloads[rank] = payload
        return payloads

    # ------------------------------------------------------- checkpointing
    def _collect_machine_state(self) -> tuple[dict, dict]:
        if not self._procs:
            raise RuntimeError("checkpoint() requires an active pool")
        collected = self._collect_worker_pool_state()
        return (
            {r: c["shard"] for r, c in collected.items()},
            {r: c["rng_state"] for r, c in collected.items()},
        )

    def _ring_order(self) -> list[int]:
        return self._topology.machines

    def _route_rng_state(self):
        return copy.deepcopy(self._route_rng.bit_generator.state)

    def restore(self, state: ClusterState, adapter=None) -> None:
        """Rebind a fit from a snapshot: fresh pool, shards re-shipped
        via shared memory, worker SGD streams and the route stream
        restored — training continues bit-identically."""
        adapter = self._restore_common(state, adapter)
        self.adapter = adapter
        shards = {int(p): s for p, s in state.shards.items()}
        ring_order = [int(p) for p in state.ring_order]
        if sorted(shards) != sorted(ring_order):
            raise ValueError(
                f"checkpoint ring {ring_order} does not match its shard "
                f"owners {sorted(shards)}"
            )
        dataplane = DataPlane(adapter, shards, own_data=False)
        dataplane.restore_bookkeeping(state.bookkeeping)
        self._bind_dataplane(dataplane)
        specs = adapter.submodel_specs()
        self._specs = specs
        self._spec_by_sid = {s.sid: s for s in specs}
        self._topology = RingTopology(ring_order)
        self._protocol, self._homes = replan(
            self._topology.machines, len(specs), self.epochs, self.scheme
        )
        self._route_rng = check_random_state(self.seed)
        if state.route_rng_state is not None:
            self._route_rng.bit_generator.state = state.route_rng_state
        # The restored membership rarely matches a standing pool's ranks
        # (gaps from retirements, extras from joins); start clean.
        if self._procs:
            self._close_pool()
        live = sorted(shards)
        self._spawn(live)
        self._ranks = live
        self._respawns_done = 0
        self._boundary = None
        self._release_segments()
        try:
            self._segments, descs = _pack_shards([shards[r] for r in live])
            self._mark_untrack(descs)
            self._ship_setup(
                adapter,
                dict(zip(live, descs)),
                rng_states={int(p): st for p, st in state.machine_rng_states.items()},
            )
        except Exception:
            self.close(force=True)
            raise
        self._restore_pending_ingests(state)

    def teardown(self) -> None:
        """End the fit: drop the shared-memory shards, keep the pool."""
        super().teardown()
        self._release_segments()

    def _release_segments(self) -> None:
        _unlink_segments(self._segments)
        self._segments = []

    def _close_pool(self, *, force: bool = False) -> None:
        """Stop the worker processes and drop the queue tables, leaving
        fit state (data plane, topology, segments) in place — the
        process half of :meth:`close`, reused by pool rebuilds."""
        if self._procs:
            if not force:
                for q in self._cmd_qs.values():
                    try:
                        q.put(("stop",))
                    except Exception:
                        pass
            for proc in self._procs.values():
                if not force:
                    proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
        self._procs = {}
        self._cmd_qs = {}
        for q in self._ring_qs:
            # An abort sentinel put into a queue whose write lock a dead
            # worker still holds never leaves this process; don't let
            # its feeder thread hold up interpreter exit.
            q.cancel_join_thread()
        self._ring_qs = []
        self._abort_events = {}
        for chan in self._res_chans.values():
            chan.close()
        self._res_chans = {}
        self._capacity = 0

    def close(self, *, force: bool = False) -> None:
        """Stop the worker pool and release every resource.

        ``force`` skips the cooperative stop — used after a worker error,
        when peers may be blocked on ring receives that will never arrive
        and would ignore a queued stop command.
        """
        self._close_pool(force=force)
        self._ranks = []
        self._boundary = None
        self._release_segments()

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the live pool (diagnostics; stable across fits)."""
        return [p.pid for p in self._procs.values() if p.is_alive()]

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

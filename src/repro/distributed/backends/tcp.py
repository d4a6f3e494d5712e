"""TCP ring backend: submodels travel real sockets as framed batches.

The closest stand-in for the paper's MPI deployment that a single host
can offer: every worker is an OS process that **owns a listening
socket**, ring neighbours connect point-to-point over TCP, and
:class:`~repro.distributed.messages.SubmodelMessage`s travel as
length-prefixed frames (:mod:`repro.distributed.framing`) — a packed
binary header plus raw ndarray bytes, no pickle on the hot path. Worker
processes run the multiprocessing pool's own command loop (same
commands, same shared-memory shard shipping, same persistent-pool
lifecycle); only the worker's *link* — the ring transport and the mesh
under it — differs, which is the point: the counter protocol is
transport-agnostic, so the conformance suite can assert bit-parity
between queues, sockets and the simulators.

Two properties matter for scale-out:

* **Connection mesh.** Each worker dials every peer once at setup (its
  outgoing, send-only sockets) and accepts one connection from every
  peer (incoming, receive-only), identified by a HELLO frame. A fixed
  ring only ever uses the two neighbour links, but ``shuffle_ring``
  re-randomises the ring per epoch (section 4.3) and may route a hop to
  any machine — the mesh makes rerouting a lookup, not a reconnect.

* **Message batching** (``batch_hops``, default on). A machine housing
  several submodels owes its successor one message per resident
  submodel per hop. Sending them individually costs one syscall + one
  wire latency each; instead the transport buffers outgoing messages
  and flushes *one framed batch per destination* whenever the worker is
  about to block on a receive — by which time every message the current
  processing round can produce has been produced. With M/P submodels
  per machine this divides per-hop syscalls and latency by M/P, which
  is exactly the amortisation the paper's near-ideal speedups rely on
  (large M keeps the pipeline full; batching keeps the per-hop overhead
  constant). ``batch_hops=False`` sends each message as its own frame,
  which is what `benchmarks/bench_tcp_wire.py` compares against.

Per-iteration wire cost — payload bytes, frame bytes, hops (messages)
and frames (batches) actually sent — is surfaced through
``IterationStats`` so the wire can be plotted against the perfmodel's
first-principles predictions.

A dead peer is detected, not waited for: a worker blocked on a receive
observes the peer's sockets reset (EOF mid-frame), raises a
:class:`~repro.distributed.framing.ProtocolError`, and reports the
failure. What happens next is the declared
:class:`~repro.distributed.backends.base.FaultPolicy`: under
``fail_fast`` the coordinator tears down the remaining peers; under
``drop_shard`` the surviving workers abort the iteration (closing their
mesh, which cascades the EOF to any peer still blocked), the dead
machine's shard is retired from the data plane, the mesh is rebuilt
over the survivor set (fresh listen sockets, fresh HELLO handshakes —
so no stale frames survive the aborted attempt), routes and homes are
re-planned, and the iteration re-runs. The coordinator also polls
worker liveness directly (inherited from the multiprocessing backend),
so even a silently vanished worker is handled within a bounded delay.

Streaming ingestion and retirement announcements travel as control
frames (``KIND_INGEST`` / ``KIND_SHARD_RETIRED`` in
:mod:`repro.distributed.framing`): on a single host they are carried to
the workers over the command queues as encoded frame bytes — the same
bytes a multi-host deployment would send down a coordinator socket.
"""

from __future__ import annotations

import selectors
import socket
import time

import numpy as np

from repro.distributed.backends.base import FaultPolicy, register_backend
from repro.distributed.backends.mp import (
    _LIVENESS_POLL_S,
    MultiprocessBackend,
    _apply_worker_ingest,
    _AsyncSender,
    _decode_control_blob,
)
from repro.distributed.framing import (
    KIND_BATCH,
    KIND_HELLO,
    KIND_INGEST,
    KIND_JOIN,
    KIND_WELCOME,
    FrameDecoder,
    ProtocolError,
    decode_batch,
    decode_hello,
    decode_join,
    decode_welcome,
    encode_batch,
    encode_hello,
    encode_ingest,
    encode_join,
    encode_welcome,
)
from repro.distributed.interfaces import get_params_many, set_params_many
from repro.distributed.messages import SubmodelMessage

__all__ = ["TCPBackend"]


# --------------------------------------------------------------- transport
class _SocketRingTransport:
    """Ring transport over the established TCP mesh, with coalescing.

    ``send`` buffers per destination when ``batch_hops`` is on; ``recv``
    flushes all buffers before blocking (so no worker ever sleeps on a
    receive while holding messages a peer is waiting for — the
    protocol-level no-deadlock invariant) and then multiplexes the
    incoming connections, feeding each socket's bytes through its own
    frame decoder.

    Transport-level deadlock is prevented too: outgoing sockets are
    non-blocking, and a send that fills the kernel buffer *keeps reading
    incoming frames while waiting for writability*. Otherwise a frame
    larger than the in-flight socket capacity could wedge the whole ring
    — every worker blocked in ``sendall`` to a peer that cannot read
    because it is itself blocked sending.

    ``overlap=True`` moves the socket writes to a double-buffered
    background :class:`~repro.distributed.backends.mp._AsyncSender`: the
    worker's training thread encodes the frame (numerics and wire
    accounting unchanged) and hands the bytes off, so the next convoy
    trains while the previous one is on the wire. The sender thread then
    owns every outgoing socket exclusively — it uses plain blocking
    ``sendall`` and **never** touches the inbound sockets (the inbox and
    frame decoders stay main-thread-only). That cannot deadlock the
    ring: backpressure blocks only the sender thread, while every
    machine's main thread always returns to its receive loop and keeps
    draining inbound frames.
    """

    def __init__(self, rank, out_conns, in_conns, spec_by_sid, *, batch_hops=True,
                 wire_dtype=None, compute_dtype=None, overlap=False,
                 chaos_shim=None):
        self.rank = rank
        self._out = out_conns
        self._in = in_conns
        self._peer_of = {conn: peer for peer, conn in in_conns.items()}
        self._spec_by_sid = spec_by_sid
        self.batch_hops = bool(batch_hops)
        # Reduced-precision wire (paper section 9): parameters are cast
        # down before framing — the frame's ndarray bytes genuinely shrink
        # (the dtype travels in the per-message header) — and cast back to
        # the compute dtype on receive. The worker already round-tripped
        # theta after training, so both casts are value-exact.
        self._wire_dtype = wire_dtype
        self._compute_dtype = compute_dtype
        # Chaos shim: verdicts are drawn per *message* at send() time (so
        # the per-link RNG consumption matches the simulated engines and
        # the queue transport, hop for hop, regardless of how batch_hops
        # coalesces messages into frames) and accumulated per destination;
        # the summed delay is served as one sleep when the frame actually
        # transmits — on the sender thread under overlap_send, so overlap
        # hides injected latency exactly as it hides real latency.
        self._chaos = chaos_shim
        self._chaos_delay: dict[int, float] = {}
        self._outbox: dict[int, list] = {}
        self._inbox: list = []
        self._decoders = {peer: FrameDecoder() for peer in in_conns}
        self._selector = selectors.DefaultSelector()
        for peer, conn in in_conns.items():
            self._selector.register(conn, selectors.EVENT_READ, peer)
        self._sender = _AsyncSender(self._transmit_background) if overlap else None
        for conn in out_conns.values():
            # Overlap: the sender thread owns the outgoing sockets and
            # blocks in sendall, so they stay in blocking mode.
            conn.setblocking(self._sender is not None)
        self.msgs_sent = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.payload_bytes = 0

    # ------------------------------------------------------------- sending
    def send(self, dest: int, msg) -> None:
        if self._wire_dtype is not None and dest != self.rank:
            msg.theta = np.asarray(msg.theta, dtype=self._wire_dtype)
        self.msgs_sent += 1
        self.payload_bytes += msg.nbytes
        if self._chaos is not None and dest != self.rank:
            self._chaos_delay[dest] = self._chaos_delay.get(
                dest, 0.0
            ) + self._chaos.send_delay(dest, msg.nbytes)
        if self.batch_hops:
            self._outbox.setdefault(dest, []).append(msg)
        else:
            self._transmit(dest, [msg])

    def flush(self) -> None:
        for dest, msgs in self._outbox.items():
            if msgs:
                self._transmit(dest, msgs)
        self._outbox = {}

    def _transmit(self, dest: int, msgs) -> None:
        frame = encode_batch(msgs)
        self.frames_sent += 1
        self.bytes_sent += len(frame)
        delay = self._chaos_delay.pop(dest, 0.0)
        if self._sender is not None:
            self._sender.submit(dest, frame, delay)
            return
        if delay > 0.0:
            time.sleep(delay)
        conn = self._out[dest]
        view = memoryview(frame)
        while view:
            try:
                view = view[conn.send(view) :]
            except (BlockingIOError, InterruptedError):
                self._read_while_unwritable(conn)
            except OSError as exc:
                raise ProtocolError(f"send to machine {dest} failed: {exc}") from exc

    def _transmit_background(self, dest: int, frame, delay: float = 0.0) -> None:
        """Sender-thread write: blocking sendall, no inbound reads."""
        if delay > 0.0:
            time.sleep(delay)
        try:
            self._out[dest].sendall(frame)
        except OSError as exc:
            raise ProtocolError(f"send to machine {dest} failed: {exc}") from exc

    def _read_while_unwritable(self, conn) -> None:
        """Blocked on a full send buffer: drain peers until writable.

        Uses the transport's selector (``data=None`` marks the one
        write-registered socket; incoming sockets carry their peer id)
        rather than ``select.select``, whose FD_SETSIZE cap would fail
        on high fd numbers.
        """
        self._selector.register(conn, selectors.EVENT_WRITE, None)
        try:
            for key, _ in self._selector.select(timeout=1.0):
                if key.data is not None:
                    self._read_socket(key.fileobj)
        finally:
            self._selector.unregister(conn)

    # ----------------------------------------------------------- receiving
    def _read_socket(self, conn) -> None:
        """Pull available bytes off one incoming connection into the inbox."""
        peer = self._peer_of[conn]
        try:
            data = conn.recv(1 << 16)
        except OSError as exc:
            raise ProtocolError(f"receive from machine {peer} failed: {exc}") from exc
        decoder = self._decoders[peer]
        if not data:
            decoder.eof()
            raise ProtocolError(f"machine {peer} closed its connection mid-W-step")
        for kind, payload in decoder.feed(data):
            if kind != KIND_BATCH:
                raise ProtocolError(f"unexpected frame kind {kind} mid-W-step")
            self._inbox.extend(decode_batch(payload, self._spec_by_sid))

    def recv(self):
        if not self._inbox:
            self.flush()
            while not self._inbox:
                events = self._selector.select(timeout=_LIVENESS_POLL_S)
                if not events and self._sender is not None:
                    # Nothing inbound: surface a background send failure
                    # instead of waiting for frames a dead peer will
                    # never produce.
                    self._sender.check()
                for key, _ in events:
                    self._read_socket(key.fileobj)
        msg = self._inbox.pop(0)
        if self._wire_dtype is not None:
            msg.theta = np.asarray(msg.theta, dtype=self._compute_dtype)
        return msg

    # -------------------------------------------------------------- stats
    def wire_stats(self) -> dict:
        stats = {
            "hops": self.msgs_sent,
            "frames": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "payload_bytes": self.payload_bytes,
        }
        if self._chaos is not None:
            stats.update(self._chaos.counters)
        return stats

    def drain(self) -> None:
        """Wait for background sends to finish (no-op without overlap)."""
        if self._sender is not None:
            self._sender.drain()

    def close(self) -> None:
        if self._sender is not None:
            self._sender.close()
        self._selector.close()


# ----------------------------------------------------------------- sockets
def _connect_with_retry(addr, timeout: float, *, first_delay: float = 0.05):
    """Dial ``addr``, retrying with backoff within the ``timeout`` budget.

    A single ``socket.create_connection`` call gets exactly one chance:
    a peer that is slow to reach ``listen()`` — or whose accept backlog
    is momentarily full — answers with a refusal, and a one-shot dial
    turns that transient into a hard setup failure even though the peer
    would have been ready milliseconds later. Retry refused/reset/timed
    out dials with exponential backoff until the overall budget is
    spent; each attempt's own timeout is the budget remaining. Errors
    that no amount of waiting fixes (unroutable address, bad family)
    raise immediately.
    """
    deadline = time.monotonic() + timeout
    delay = first_delay
    last: BaseException | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            return socket.create_connection(addr, timeout=remaining)
        except (
            ConnectionRefusedError,
            ConnectionResetError,
            ConnectionAbortedError,
            TimeoutError,
        ) as exc:
            last = exc
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        time.sleep(min(delay, remaining))
        delay = min(delay * 2.0, 0.5)
    raise ProtocolError(
        f"could not connect to {addr} within {timeout}s: {last}"
    ) from last


def _read_frames(conn, n: int, timeout: float) -> list[tuple[int, bytes]]:
    """Blocking read of exactly ``n`` frames from one connection.

    Used for handshakes (HELLO; JOIN → WELCOME + BATCH), where the
    sender transmits a known frame sequence and nothing else: coalesced
    arrivals are handled, but any bytes beyond the ``n``-th frame are a
    protocol violation.
    """
    decoder = FrameDecoder()
    frames: list[tuple[int, bytes]] = []
    conn.settimeout(timeout)
    try:
        while True:
            try:
                data = conn.recv(1 << 16)
            except TimeoutError as exc:
                # A peer that stops sending mid-handshake (wedged, paused,
                # partitioned) must surface as a *protocol* failure like
                # every other handshake violation — a raw socket timeout
                # would escape the callers' ProtocolError handling, so the
                # drop_shard abort-and-recover path would never engage.
                raise ProtocolError(
                    f"peer stalled mid-handshake: no bytes for {timeout}s "
                    f"({'mid-frame' if decoder.pending else 'between frames'})"
                ) from exc
            except OSError as exc:
                raise ProtocolError(f"handshake read failed: {exc}") from exc
            if not data:
                decoder.eof()
                raise ProtocolError("connection closed before a full frame arrived")
            frames.extend(decoder.feed(data))
            if len(frames) >= n:
                if len(frames) > n or decoder.pending:
                    raise ProtocolError("unexpected bytes after handshake frames")
                return frames
    finally:
        conn.settimeout(None)


def _close_net(net: dict | None) -> None:
    if not net:
        return
    for sock in [net.get("listen"), *net.get("out", {}).values(),
                 *net.get("in", {}).values()]:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


def _bind_listen_socket(host: str, port: int) -> dict:
    """A fresh net dict around a newly bound listening socket."""
    listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listen.bind((host, port))
        listen.listen(16)
    except OSError:
        # A failed bind (port taken, bad host) must not leak the fd:
        # workers retry binds during elastic joins, and each leaked
        # socket holds a port until GC.
        listen.close()
        raise
    return {"listen": listen, "out": {}, "in": {}}


def _dial(addr, greeting: bytes, timeout: float):
    """Open an outgoing (send-only) link and identify ourselves on it."""
    conn = _connect_with_retry(addr, timeout)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.sendall(greeting)
    return conn


def _accept(listen, timeout: float) -> tuple:
    """Accept one incoming link; returns it with its identifying frame."""
    listen.settimeout(timeout)
    try:
        conn, _ = listen.accept()
    finally:
        listen.settimeout(None)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    kind, payload = _read_frames(conn, 1, timeout)[0]
    return conn, kind, payload


def _mesh_up(net: dict, rank: int, addr_map: dict, timeout: float, *,
             greeting: bytes, after_dial=None) -> None:
    """Link this worker into a full mesh with every peer in ``addr_map``.

    Dials each peer with ``greeting`` (HELLO, or JOIN from a machine
    joining mid-fit), runs ``after_dial``, then accepts one
    HELLO-identified connection from every peer. Dialling succeeds as
    soon as the peer's listen backlog completes the handshake, so every
    worker can dial all peers before any of them reaches accept() — no
    deadlock, no ordering protocol needed. Dials retry with backoff: a
    peer may not have bound its listener yet.
    """
    peers = sorted(p for p in addr_map if p != rank)
    for peer in peers:
        net["out"][peer] = _dial(addr_map[peer], greeting, timeout)
    if after_dial is not None:
        after_dial()
    while len(net["in"]) < len(peers):
        conn, kind, payload = _accept(net["listen"], timeout)
        if kind != KIND_HELLO:
            raise ProtocolError(
                f"expected HELLO on fresh connection, got kind {kind}"
            )
        net["in"][decode_hello(payload)] = conn


# ------------------------------------------------------------------ worker
class _SocketLink:
    """The tcp engine's half of a worker under the shared command loop
    (:func:`repro.distributed.backends.mp._worker_main`; see
    :class:`~repro.distributed.backends.mp._QueueLink` for the hooks).

    Owns the worker's listening socket and its send/receive mesh:
    ``open`` binds a fresh listener and reports its port (a new fit
    rebuilds the mesh), ingest batches arrive as INGEST frames, and
    under a survivor fault policy a peer vanishing mid-iteration drops
    the dirty mesh and awaits the re-plan. It adds the mesh commands
    ``rebind``, ``connect``, ``join_mesh`` and ``join_handshake``.
    """

    def __init__(self, rank: int, host: str, port: int, *, batch_hops: bool,
                 connect_timeout: float, drop_on_fault: bool):
        self.rank = rank
        self._host = host
        self._port = port
        self._batch_hops = batch_hops
        self._timeout = connect_timeout
        self._drop_on_fault = drop_on_fault
        self._net: dict | None = None

    def open(self) -> int:
        self.close()
        self._net = _bind_listen_socket(self._host, self._port)
        return self._net["listen"].getsockname()[1]

    def close(self) -> None:
        _close_net(self._net)
        self._net = None

    def transport(self, state, gen: int, **options) -> _SocketRingTransport:
        # Stale frames cannot outlive an aborted attempt (its mesh is
        # rebuilt), so the socket ring needs no generation tag.
        return _SocketRingTransport(
            self.rank, self._net["out"], self._net["in"], state["spec_by_sid"],
            batch_hops=self._batch_hops, **options,
        )

    def ingest(self, state, frame: bytes) -> int:
        (msg,) = _decode_control_blob(frame, KIND_INGEST)
        if msg.machine != self.rank:
            raise ProtocolError(
                f"ingest frame for machine {msg.machine} delivered "
                f"to rank {self.rank}"
            )
        return _apply_worker_ingest(state, msg.X, msg.F, msg.Z, msg.indices)

    def abort(self, exc: Exception) -> bool:
        if not self._drop_on_fault:
            return False
        # A peer vanished mid-iteration and the policy says survive: drop
        # the dirty mesh (cascading the EOF to any peer still blocked)
        # and await the re-plan.
        self.close()
        return True

    def command(self, state, op: str, *args):
        if op == "rebind":
            # Drop_shard recovery, phase 1: fresh listen socket (the old
            # mesh is dirty — dead-peer links, possibly stale frames
            # from the aborted iteration).
            return "port", self.open()
        if op == "connect":
            (addr_map,) = args
            _mesh_up(self._net, self.rank, addr_map, self._timeout,
                     greeting=encode_hello(self.rank))
            return "connected", None
        if op == "join_mesh":
            self._admit(state, *args)
            return "joined", None
        if op == "join_handshake":
            self._join(state, *args)
            return "joined", None
        raise ValueError(f"unknown worker command {op!r}")

    def _admit(self, state, new_rank: int, addr, is_donor: bool) -> None:
        """Link a machine joining mid-fit into this worker's mesh: accept
        its JOIN-identified connection (incoming link), optionally hand
        it the current model (WELCOME + BATCH back over that same socket
        — the only time a "receive" link carries writes), and dial its
        listener (outgoing link)."""
        net = self._net
        conn, kind, payload = _accept(net["listen"], self._timeout)
        if kind != KIND_JOIN:
            raise ProtocolError(
                f"expected JOIN from a joining machine, got kind {kind}"
            )
        if decode_join(payload) != new_rank:
            raise ProtocolError(
                f"JOIN announced machine {decode_join(payload)}, "
                f"expected {new_rank}"
            )
        if is_donor:
            specs = state["specs"]
            finals = [
                SubmodelMessage.final(s, theta)
                for s, theta in zip(specs, get_params_many(state["adapter"], specs))
            ]
            conn.sendall(encode_welcome(self.rank, len(finals)) + encode_batch(finals))
        net["in"][new_rank] = conn
        net["out"][new_rank] = _dial(addr, encode_hello(self.rank), self._timeout)

    def _join(self, state, addr_map: dict, donor: int, n_submodels: int) -> None:
        """Handshake this (joining) worker into the standing mesh: dial
        every peer with a JOIN frame, read the donor's WELCOME +
        submodel BATCH off the donor link, then accept every peer's
        HELLO-identified connection."""

        def take_welcome() -> None:
            frames = _read_frames(self._net["out"][donor], 2, self._timeout)
            (kind_w, payload_w), (kind_b, payload_b) = frames
            if kind_w != KIND_WELCOME or kind_b != KIND_BATCH:
                raise ProtocolError(
                    f"expected WELCOME then BATCH from the donor, got "
                    f"kinds {kind_w}, {kind_b}"
                )
            donor_rank, n_models = decode_welcome(payload_w)
            if donor_rank != donor:
                raise ProtocolError(
                    f"WELCOME names donor {donor_rank}, expected {donor}"
                )
            finals = decode_batch(payload_b, state["spec_by_sid"])
            if len(finals) != n_models or n_models != n_submodels:
                raise ProtocolError(
                    f"WELCOME hand-off carried {len(finals)} submodels, "
                    f"expected {n_submodels}"
                )
            set_params_many(state["adapter"], [(m.spec, m.theta) for m in finals])

        _mesh_up(self._net, self.rank, addr_map, self._timeout,
                 greeting=encode_join(self.rank), after_dial=take_welcome)


# ------------------------------------------------------------- coordinator
@register_backend("tcp")
class TCPBackend(MultiprocessBackend):
    """ParMAC over a pool of OS processes ringed by real TCP sockets.

    Extra parameters beyond :class:`MultiprocessBackend`:

    host : str
        Interface the workers bind and dial (default loopback; the
        design generalises to multi-host once workers are launched
        remotely, which is why addresses travel in the port map).
    ports : sequence of int, int, or None
        ``None`` (default): every worker binds an OS-assigned free port
        — race-free, recommended. A sequence pins worker ``r`` to
        ``ports[r]``; a single int pins worker ``r`` to ``ports + r``.
    batch_hops : bool
        Coalesce all messages a worker owes one successor into a single
        framed batch per hop (default True). Off = one frame per
        message, for measuring what batching buys.
    connect_timeout : float
        Seconds allowed for dialling/accepting each mesh connection.
    """

    _needs_ring_queues = False

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        ports=None,
        batch_hops: bool = True,
        connect_timeout: float = 10.0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.host = host
        self.ports = ports
        self.batch_hops = bool(batch_hops)
        self.connect_timeout = float(connect_timeout)
        self._addr_map: dict[int, tuple] = {}

    def _worker_link(self, rank: int) -> _SocketLink:
        # Under both survivor policies — drop_shard re-plans around the
        # loss, respawn rewinds and retries — the coordinator needs clean
        # abort acks, not errors, out of the survivors of a peer death.
        return _SocketLink(
            rank,
            self.host,
            self._port_for(rank),
            batch_hops=self.batch_hops,
            connect_timeout=self.connect_timeout,
            drop_on_fault=self.fault_policy
            in (FaultPolicy.DROP_SHARD, FaultPolicy.RESPAWN),
        )

    def _port_for(self, rank: int) -> int:
        if self.ports is None:
            return 0
        if isinstance(self.ports, int):
            return self.ports + rank
        ports = list(self.ports)
        if rank >= len(ports):
            raise ValueError(
                f"ports has {len(ports)} entries but worker {rank} needs one"
            )
        return int(ports[rank])

    def _link_ring(self, ports: dict) -> None:
        """Exchange bound ports and build the all-pairs socket mesh."""
        addr_map = {rank: (self.host, port) for rank, port in ports.items()}
        self._addr_map = dict(addr_map)
        for rank in self._ranks:
            self._cmd_qs[rank].put(("connect", addr_map))
        self._collect("connected")

    # ----------------------------------------------------------- elasticity
    def _check_join_capacity(self, p: int) -> None:
        """An explicit ports list must cover the joiner's rank — checked
        before any pool/topology state changes, so an exhausted list
        rejects the join cleanly instead of corrupting the fit."""
        self._port_for(p)

    def _ship_join(self, p: int, desc, old_ranks) -> None:
        """Socket flavour of the join: the new worker binds and announces
        its port, every standing worker links it in (JOIN accepted, HELLO
        dialed), and the donor — the lowest live rank — hands the current
        submodels over as a WELCOME + framed BATCH. No pickle: the model
        reaches the joiner exactly as it travels the ring.
        """
        addr = (self.host, self._setup_workers(self.adapter, {p: desc})[p])
        donor = old_ranks[0]
        for rank in old_ranks:
            self._cmd_qs[rank].put(("join_mesh", p, addr, rank == donor))
        self._cmd_qs[p].put(
            (
                "join_handshake",
                {r: self._addr_map[r] for r in old_ranks},
                donor,
                len(self._specs),
            )
        )
        self._collect("joined", ranks=[*old_ranks, p])
        self._addr_map[p] = addr

    # ------------------------------------------------------------ recovery
    def _request_abort(self, ranks) -> None:
        """No injection needed: survivors observe the dead peer's sockets
        reset (or an aborting peer's mesh teardown) and self-abort."""

    def _apply_ingest(self, batch) -> int:
        """Ship one drained batch to its worker as an INGEST frame."""
        self._cmd_qs[batch.machine].put(("ingest", encode_ingest(batch)))
        self._collect("ingested", ranks=[batch.machine])
        return self.dataplane.apply(batch)

    def _rebuild_transport(self, retired) -> None:
        """Rebuild the socket mesh over the survivor set (fresh listen
        sockets and HELLO handshakes — no stale frames survive)."""
        for rank in self._ranks:
            self._cmd_qs[rank].put(("rebind",))
        self._link_ring(self._collect("port"))

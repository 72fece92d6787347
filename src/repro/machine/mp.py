"""The multiprocess machine layer: one OS process per PE.

This is the second registered machine layer (after the simulator) and the
first with *real* parallelism: every PE is a child process with its own
interpreter (and GIL), wired to the parent over loopback TCP sockets.
The layers above the machine interface — :class:`ConverseRuntime`, the
Csd scheduler, the CMI, the message manager — run in each worker process
**unmodified**: the worker provides drop-in machine-dependent pieces (a
wall-clock engine, a condition-variable node, a socket-backed network)
behind the same attribute surface the simulator provides.

Topology is hub-and-spoke: the parent process routes frames between
workers (one reader thread per worker) and runs the machine-level
services — console aggregation, result collection and quiescence
detection.  A frame is a fixed ``struct`` header (body length, peer PE,
kind, immediate/corrupted flags) and a body: a pickled tuple for
control frames, the sender's pickled payload for data frames.  The hub
forwards data bodies as opaque bytes; only the receiver unpickles them.

**Quiescence** uses counting over FIFO channels: the hub counts every
message it forwards to each PE; a worker, whenever it parks idle, reports
how many hub messages it has consumed and how many local timers are
armed.  Because a worker's sends reach the hub *before* its subsequent
idle report (same socket, FIFO), the hub's forwarded counters are always
at least as fresh as the reports, so "every PE idle, every report equal
to the forward count, zero timers" cannot hold while anything is in
flight.  The only wake sources a parked worker has are hub deliveries
(counted) and local timers (reported), so the check is also complete.

**Observability** works distributed: with ``trace=``/``metrics=`` each
worker runs the ordinary per-PE tracer and metrics registry *in its own
process* (instrumented-vs-fast dispatch selection is unchanged, so the
off-cost stays zero), spooling trace events to per-PE JSONL files and
shipping a metrics snapshot to the hub at shutdown.  The hub estimates
each worker's monotonic-clock offset with echo probes at startup and
close, merges the spools onto one timeline (:mod:`repro.tracing.merge`)
and recombines the snapshots (:func:`repro.metrics.registry.merge_snapshots`),
so the unchanged analysis/critpath/export/report pipelines consume mp
runs exactly like simulator runs.  Workers additionally stream periodic
health snapshots; the hub keeps a bounded flight-recorder ring of them,
serves :meth:`MpMachine.health`, and attaches the last snapshots to
timeout/crash errors so hung runs die with evidence.

**Faults and fault tolerance** are real on this layer: with
``faults=FaultPlan(...)`` the hub applies the unchanged seeded plan to
every frame in flight between processes (per-link drop / duplicate /
delay / reorder / corrupt, decided by the same RNG stream as the
simulator; a corruption is a header flag that the receiver turns into
``payload.corrupted``), and ``CrashSpec`` entries drive the hub to
**SIGKILL** worker processes at their appointed wall-clock times —
respawning a fresh incarnation (epoch bump, restart-with-amnesia) when
the spec has a ``restart_after``.  The CMI reliable-delivery layer
(``reliable=True``) and the fault-tolerance layer (``ft=FTConfig()``)
run *inside each worker* unmodified, entered concurrently from the
main, receiver and timer threads under one per-PE reentrant lock; each
worker carries its own distributed :class:`~repro.ft.manager.
FTCoordinator` replica fed by the shipped crash schedule.  Protocol
timeouts are floored to socket scale at construction (the simulator's
microsecond RTOs would retransmit thousands of times per real RTT).
An *unscheduled* worker death (an outside SIGKILL, an OOM kill) is
classified from the torn socket and surfaces as a structured
:class:`~repro.core.errors.WorkerDied` carrying the PE id and the
flight-recorder's last health snapshot.

Scope (documented in the README machine-layer matrix): cost models,
aggregation, Cth threads/tasklets, EMI groups/global pointers across
PEs and console input are **simulator-only** for now.  Time is
wall-clock; runs are not deterministic (mp fault tests assert
invariants, not byte-identical traces).
"""

from __future__ import annotations

import os
import pickle
import random
import socket
import struct
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.errors import SimulationError, WorkerDied
from repro.machine.base import MachineLayer, resolve_speed_knobs
from repro.sim.console import ConsoleRecord
from repro.sim.models import MachineModel
from repro.sim.node import Node
from repro.tracing.tracer import (
    CountingTracer,
    JsonlTracer,
    LockingTracer,
    Tracer,
)

__all__ = ["MpMachine", "MP_MODEL", "MP_START_METHOD_ENV_VAR"]

#: environment override for the multiprocessing start method.
MP_START_METHOD_ENV_VAR = "REPRO_MP_START_METHOD"

#: how often a parked worker re-checks for shutdown and re-reports idle
#: state that changed without a wakeup (seconds).
_IDLE_RECHECK = 0.05

#: default cadence of worker health snapshots (seconds).
_HEALTH_INTERVAL = 0.25

#: flight-recorder depth: most recent health snapshots the hub retains
#: for post-mortem attachment to timeout/crash errors.
_FLIGHT_DEPTH = 64

#: protocol-timeout floors for real sockets (seconds).  The simulator's
#: defaults are microsecond-scale virtual times; on a wall-clock layer
#: with ~100 us frame hops they would retransmit pathologically, so
#: reliable/ft configs are floored to these values at construction.
_MP_REL_RTO_FLOOR = 0.02
_MP_REL_MAX_RTO_FLOOR = 0.25
_MP_FT_HB_FLOOR = 0.025
_MP_FT_CTL_RTO_FLOOR = 0.05
_MP_FT_CTL_RETRIES_FLOOR = 100
_MP_FT_CKPT_FLOOR = 0.05

#: worker -> hub connect retry schedule (transport hardening).
_CONNECT_ATTEMPTS = 5
_CONNECT_BACKOFF = 0.05

#: all-zero cost model: on a real machine layer the costs are real, so
#: the virtual accounting terms must not add phantom time to ``charge``.
MP_MODEL = MachineModel(
    name="mp",
    description="multiprocess machine layer (real costs; no virtual charges)",
    send_overhead=0.0,
    recv_overhead=0.0,
    latency_per_hop=0.0,
    per_byte=0.0,
    cvs_send_extra=0.0,
    cvs_dispatch_extra=0.0,
    enqueue_cost=0.0,
    dequeue_cost=0.0,
)

#: frame header: body length, peer PE (the destination on a worker's
#: data frame, the source on the hub's), kind, flags.
_HDR = struct.Struct("<IIBB")
#: frame kinds (a pickled control tuple, an opaque pickled payload) and
#: data-frame flags.
_CTRL, _DATA = 0, 1
_IMMEDIATE, _CORRUPTED = 1, 2


# ----------------------------------------------------------------------
# framing: a fixed struct header, then exactly that many body bytes
# ----------------------------------------------------------------------
def _send_raw(sock: socket.socket, lock: threading.Lock, kind: int,
              peer: int, flags: int, body: Any) -> None:
    bufs = [_HDR.pack(len(body), peer, kind, flags), body]
    with lock:
        # One scatter-gather write; loop only when the kernel takes part.
        while bufs:
            sent = sock.sendmsg(bufs)
            while bufs and sent >= len(bufs[0]):
                sent -= len(bufs.pop(0))
            if bufs:
                bufs[0] = memoryview(bufs[0])[sent:]


def _send_frame(sock: socket.socket, lock: threading.Lock, frame: Any) -> None:
    _send_raw(sock, lock, _CTRL, 0, 0,
              pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytearray]:
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            return None
        got += k
    return buf


def _recv_frame(sock: socket.socket) -> Optional[tuple]:
    """One frame as ``(kind, peer, flags, body)``; ``None`` at EOF,
    including a frame torn by a writer that died mid-send."""
    head = _recv_exact(sock, _HDR.size)
    if head is None:
        return None
    n, peer, kind, flags = _HDR.unpack(head)
    body = _recv_exact(sock, n)
    return None if body is None else (kind, peer, flags, body)


def _recv_control(sock: socket.socket) -> Optional[Any]:
    frame = _recv_frame(sock)
    return pickle.loads(frame[3]) if frame and frame[0] == _CTRL else None


# ======================================================================
# worker-process side
# ======================================================================
class _WorkerStop(BaseException):
    """Raised inside a parked worker main when the hub shuts the run
    down; unwinds user code without being caught by ``except Exception``
    (like :class:`TaskletKilled` in the simulator)."""


class _WorkerTasklet:
    """The stand-in for "the currently running tasklet" in a worker.

    Exactly one user thread runs Converse code per worker process, so
    the simulator's module-global current-context slot works unchanged;
    this object gives it the two attributes the API layer reads.
    """

    __slots__ = ("node", "name")

    def __init__(self, node: "_MpNode") -> None:
        self.node = node
        self.name = f"pe{node.pe}-main"


class _MpTimerHandle:
    __slots__ = ("_engine", "_tid")

    def __init__(self, engine: "_MpEngine", tid: int) -> None:
        self._engine = engine
        self._tid = tid

    def cancel(self) -> None:
        self._engine.cancel(self._tid)


class _MpEngine:
    """Wall-clock replacement for the event engine inside a worker.

    Provides exactly what machine-independent code asks an engine for on
    this layer: the clock (``now``) and delayed callbacks (``schedule``,
    backing Ccd timed calls).  Tasklet operations raise — threads are a
    simulator feature until a real Cth backend exists.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._timers: Dict[int, threading.Timer] = {}
        self._next_tid = 0
        #: timer callbacks currently executing.  A fired timer leaves
        #: ``_timers`` before its callback runs, so ``pending_timers``
        #: alone would read 0 mid-callback — an idle report in that
        #: window lets the hub declare quiescence while (say) a reliable
        #: retransmit is still in flight on the timer thread.
        self._firing = 0
        #: failure sink for timer-thread callbacks: a protocol layer
        #: raising in a ``threading.Timer`` would otherwise die silently
        #: on that thread and wedge the job until the hub timeout.  The
        #: worker main wires this to ship a structured fatal frame.
        self.on_error: Optional[Callable[[str], None]] = None

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> _MpTimerHandle:
        with self._lock:
            tid = self._next_tid
            self._next_tid += 1
            timer = threading.Timer(max(0.0, delay), self._fire, (tid, fn, args))
            timer.daemon = True
            self._timers[tid] = timer
        timer.start()
        return _MpTimerHandle(self, tid)

    def _fire(self, tid: int, fn: Callable[..., Any], args: tuple) -> None:
        with self._lock:
            if self._timers.pop(tid, None) is None:
                return  # cancelled after firing was already scheduled
            self._firing += 1
        try:
            fn(*args)
        except BaseException:
            if self.on_error is None:
                raise
            self.on_error(traceback.format_exc())
        finally:
            # A callback that re-arms (retransmit backoff) inserts the
            # new timer before this decrement, so the count never dips
            # to zero while protocol work is still pending.
            with self._lock:
                self._firing -= 1

    def cancel(self, tid: int) -> None:
        with self._lock:
            timer = self._timers.pop(tid, None)
        if timer is not None:
            timer.cancel()

    @property
    def pending_timers(self) -> int:
        with self._lock:
            return len(self._timers) + self._firing

    def shutdown(self) -> None:
        with self._lock:
            timers, self._timers = list(self._timers.values()), {}
        for timer in timers:
            timer.cancel()

    # -- simulator-only operations -------------------------------------
    def spawn(self, *_args: Any, **_kwargs: Any) -> Any:
        raise SimulationError(
            "tasklets/Cth threads are simulator-only; the mp machine layer "
            "runs one main per PE"
        )

    def require_tasklet(self) -> Any:
        from repro.sim import context

        return context.require_tasklet()


class _WorkerLink:
    """A worker's connection to the hub plus the idle-report state."""

    def __init__(self, sock: socket.socket, pe: int) -> None:
        self.sock = sock
        self.pe = pe
        self.wlock = threading.Lock()
        #: hub-forwarded messages fully delivered locally (guarded by the
        #: node's condition variable; part of the quiescence protocol).
        self.net_recv = 0
        self.stop = threading.Event()
        self.engine: Optional[_MpEngine] = None
        self._last_idle: Optional[tuple] = None

    def send(self, frame: Any) -> None:
        _send_frame(self.sock, self.wlock, frame)

    def post(self, frame: Any) -> bool:
        """Best-effort :meth:`send`: False when the hub is gone."""
        try:
            self.send(frame)
            return True
        except OSError:
            return False

    def send_data(self, dst: int, payload: Any, immediate: bool) -> None:
        _send_raw(self.sock, self.wlock, _DATA, dst,
                  _IMMEDIATE if immediate else 0,
                  pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def report_idle(self, _node: "_MpNode") -> None:
        """Tell the hub this PE is parked (call with the node's condition
        held).  Deduplicated: only state changes cross the wire."""
        snap = (self.net_recv, self.engine.pending_timers)
        if snap == self._last_idle:
            return
        self._last_idle = snap
        if not self.post(("idle", snap[0], snap[1])):
            self.stop.set()


class _MpNode(Node):
    """A PE backed by real threads: the inbox is fed by the receiver
    thread (and timer threads), the main thread parks on a condition
    variable instead of suspending a tasklet."""

    def __init__(self, machine: "_WorkerMachine", pe: int) -> None:
        super().__init__(machine, pe)
        self._cond = threading.Condition()
        #: True while the main thread is parked in :meth:`wait_until`
        #: (read lock-free by the health thread — a stale value is fine).
        self._parked = False

    # -- CPU time -------------------------------------------------------
    def charge(self, dt: float) -> None:
        # Costs are real on this layer: charges only keep the accounting
        # counters alive (they are all zero under MP_MODEL anyway).
        if dt < 0:
            raise SimulationError(f"cannot charge negative time ({dt})")
        self.stats.busy_time += dt

    # -- inbox ----------------------------------------------------------
    def deliver(self, payload: Any) -> None:
        interceptors = self._interceptors
        if interceptors is not None:
            for fn in interceptors:
                if fn(payload):
                    return
        with self._cond:
            self.inbox.append(payload)
            self._count_arrival(payload)
            self._cond.notify_all()

    def _count_arrival(self, payload: Any) -> None:
        size = getattr(payload, "size", 0) or 0
        self.stats.msgs_received += 1
        self.stats.bytes_received += size
        if self._mx_recvs is not None:
            self._mx_recvs.inc(self.pe)
            self._mx_recv_bytes.inc(self.pe, size)
        for hook in self._delivery_hooks:
            hook(payload)

    def deliver_immediate(self, payload: Any) -> None:
        # Interrupt-style delivery for real: the handler runs on the
        # receiver thread, concurrently with the PE's main thread — the
        # handler must be short and thread-safe, as on a real machine.
        self._count_arrival(payload)
        rt = self.runtime
        if rt is None:
            raise SimulationError(
                f"immediate message on PE {self.pe} with no runtime"
            )
        rt.deliver_from_network(payload)

    def poll(self) -> Optional[Any]:
        with self._cond:
            if self.inbox:
                return self.inbox.popleft()
            return None

    def inbox_snapshot(self) -> Any:
        # The receiver thread appends concurrently; checkpointing walks a
        # consistent copy taken under the delivery condition instead.
        with self._cond:
            return list(self.inbox)

    def wait_until(self, predicate: Callable[[], bool]) -> None:
        link = self.machine.worker
        with self._cond:
            try:
                while not predicate():
                    if link.stop.is_set():
                        raise _WorkerStop()
                    self._parked = True
                    link.report_idle(self)
                    self._cond.wait(_IDLE_RECHECK)
            finally:
                self._parked = False

    def wait_for_message(self) -> Any:
        self.wait_until(lambda: bool(self.inbox))
        with self._cond:
            return self.inbox.popleft()

    def kick(self) -> None:
        with self._cond:
            self._cond.notify_all()

    # -- simulator-only -------------------------------------------------
    def spawn(self, fn: Callable[[], Any], name: str = "task", start: bool = True):
        raise SimulationError(
            "tasklets are simulator-only; the mp machine layer runs one "
            "main per PE"
        )


class _MpSendHandle:
    """Completion handle for asynchronous sends.  ``sendall`` returned
    before this handle exists, so the buffer is already reusable — the
    handle is born done (real DMA completion, not a virtual-time one)."""

    __slots__ = ("released",)
    done = True

    def __init__(self) -> None:
        self.released = False

    def release(self) -> None:
        self.released = True


class _MpNetwork:
    """The worker-side view of the interconnect: same call surface as
    :class:`repro.sim.network.Network`, but every remote payload becomes
    a data frame routed through the hub.  Self-sends stay local."""

    def __init__(self, machine: "_WorkerMachine", link: _WorkerLink) -> None:
        self.machine = machine
        self.link = link
        from repro.sim.network import NetworkStats

        self.stats = NetworkStats()
        self.fault_plan = None
        self.tracer = None

    def _transmit(self, src_node: _MpNode, dst: int, nbytes: int,
                  payload: Any, immediate: bool = False) -> None:
        stats = self.stats
        stats.messages += 1
        stats.bytes += nbytes
        key = (src_node.pe, dst)
        stats.per_channel[key] = stats.per_channel.get(key, 0) + 1
        if dst == src_node.pe:
            if immediate:
                src_node.deliver_immediate(payload)
            else:
                src_node.deliver(payload)
            return
        try:
            self.link.send_data(dst, payload, immediate)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SimulationError(
                f"the mp machine layer could not pickle an outgoing message "
                f"for PE {dst}: {exc}"
            ) from exc
        # The frame is on the wire (pickled by value); the local wire
        # copy is dead.  Reclaim pooled copies so the send side reuses
        # buffers instead of leaking them to the garbage collector.
        if getattr(payload, "_pooled", False):
            rt = getattr(self.machine.node_obj, "runtime", None)
            if rt is not None and rt.pool is not None:
                payload._valid = False
                payload._payload = None
                rt.pool.release(payload)

    def sync_send(self, src_node: _MpNode, dst: int, nbytes: int, payload: Any,
                  extra_send_cost: float = 0.0, immediate: bool = False) -> None:
        src_node.charge(extra_send_cost)
        self._transmit(src_node, dst, nbytes, payload, immediate=immediate)

    def async_send(self, src_node: _MpNode, dst: int, nbytes: int, payload: Any,
                   extra_send_cost: float = 0.0) -> _MpSendHandle:
        src_node.charge(extra_send_cost)
        self._transmit(src_node, dst, nbytes, payload)
        return _MpSendHandle()

    def broadcast(self, src_node: _MpNode, nbytes: int, payload_factory: Any,
                  include_self: bool = False, extra_send_cost: float = 0.0,
                  asynchronous: bool = False) -> Optional[_MpSendHandle]:
        self.stats.broadcasts += 1
        src_node.charge(extra_send_cost)
        for dst in range(self.machine.num_pes):
            if dst == src_node.pe and not include_self:
                continue
            self._transmit(src_node, dst, nbytes, payload_factory(dst))
        return _MpSendHandle() if asynchronous else None

    def inject(self, src_pe: int, dst: int, nbytes: int, payload: Any) -> None:
        """NIC-level transmit with no CPU charge — the path the protocol
        layers use for retransmissions, acks, heartbeats and control
        traffic.  Protocol packets are never pooled, so the transmit's
        pool reclaim never applies to them."""
        self._transmit(self.machine.node_obj, dst, nbytes, payload)


class _WorkerConsole:
    """Worker-side console: forwards atomic writes to the hub (which
    holds the job-wide record list).  Input is simulator-only."""

    def __init__(self, link: _WorkerLink, engine: _MpEngine) -> None:
        self.link = link
        self.engine = engine

    def printf(self, pe: int, fmt: str, *args: Any) -> None:
        self._emit(pe, (fmt % args) if args else fmt, "out")

    def error(self, pe: int, fmt: str, *args: Any) -> None:
        self._emit(pe, (fmt % args) if args else fmt, "err")

    def _emit(self, pe: int, text: str, stream: str) -> None:
        self.link.send(("printf", stream, pe, text, self.engine.now))

    def scanf(self, fmt: str) -> Any:
        raise SimulationError(
            "console input (CmiScanf) is simulator-only; the mp machine "
            "layer has no job-input channel yet"
        )

    read_line = scanf
    feed = scanf


class _WorkerMachine:
    """The worker's machine object: one PE's view of the whole machine,
    quacking exactly like the attribute surface :class:`ConverseRuntime`,
    the CMI and the Cld balancers read off the simulator's Machine."""

    def __init__(self, pe: int, num_pes: int, link: _WorkerLink, options: dict) -> None:
        self.num_pes = num_pes
        self.model = MP_MODEL
        self.engine = _MpEngine()
        link.engine = self.engine
        self.worker = link
        self.console = _WorkerConsole(link, self.engine)
        self.tracer = self._make_tracer(pe, options.get("trace"))
        self.metrics = None
        if options.get("metrics"):
            from repro.metrics.registry import MetricsRegistry

            # Locking: immediate handlers (and Ccd timers) update metrics
            # from threads other than the main thread.
            self.metrics = MetricsRegistry(locking=True)
        self.topology = None
        self.rng = random.Random(options.get("seed", 0) * 1_000_003 + pe)
        #: wall-clock gossip period for Cld strategies carrying a
        #: remote-load table.  Coarser than the simulator's virtual-time
        #: default: mp Ccd timers are real ``threading.Timer`` objects
        #: and each pending one holds hub quiescence for up to a period
        #: after the load drains.
        self.cld_gossip_interval = 0.02
        # Raw-speed knobs, forwarded from the driver-side MpMachine so
        # the worker's ConverseRuntime picks them up at construction.
        self.msg_pooling = options.get("pool", False)
        self.csd_batch = options.get("csd_batch", 1)
        #: trace correlation ids minted from a per-process residue class
        #: (PE p issues {p + k*N}), globally unique with no coordination.
        self._msg_id_seq = pe
        self._msg_id_stride = num_pes
        self.node_obj = _MpNode(self, pe)
        #: only the local node is addressable in-process; cross-PE peeks
        #: (an FT-layer shortcut) have no meaning here.
        self.nodes = {pe: self.node_obj}
        if self.tracer is not None:
            self.node_obj.add_delivery_hook(self._trace_delivery(self.node_obj))
        if self.metrics is not None:
            self.node_obj.attach_metrics(self.metrics)

    @staticmethod
    def _make_tracer(pe: int, spec: Any) -> Optional[Tracer]:
        """Build this worker's in-process trace sink from the hub's
        shipped spec: ``("jsonl", base)`` spools full events to this PE's
        sibling file; ``("count",)`` keeps per-kind counters that travel
        to the hub as one frame at shutdown.  Wrapped in a
        :class:`LockingTracer` because immediate handlers record from the
        receiver thread concurrently with the main thread."""
        if spec is None:
            return None
        if spec[0] == "jsonl":
            from repro.tracing.merge import spool_path

            return LockingTracer(JsonlTracer(spool_path(spec[1], pe)))
        if spec[0] == "count":
            return LockingTracer(CountingTracer())
        raise SimulationError(f"unknown worker trace spec {spec!r}")

    def _trace_delivery(self, node: _MpNode) -> Callable[[Any], None]:
        # Same receive-event shape as the simulator machine's hook, so
        # merged traces are indistinguishable to the analysis layer.
        def hook(payload: Any) -> None:
            self.tracer.record(
                node.pe,
                self.engine.now,
                "receive",
                {
                    "handler": getattr(payload, "handler", None),
                    "size": getattr(payload, "size", 0),
                    "src": getattr(payload, "src_pe", None),
                    "msg": getattr(payload, "msg_id", None),
                },
            )

        return hook


def _stop_worker(link: _WorkerLink, node: _MpNode,
                 tb: Optional[str] = None) -> None:
    """Stop this worker and unpark its main thread, first shipping ``tb``
    as a fatal frame: a failure on a receiver or timer thread must fail
    the run at once, not die silently and strand it until the timeout."""
    if tb is not None:
        link.post(("fatal", tb))
    link.stop.set()
    with node._cond:
        node._cond.notify_all()


def _worker_receive_loop(link: _WorkerLink, node: _MpNode) -> None:
    """Reader thread in a worker: turn hub frames into deliveries.

    ``net_recv`` is incremented *after* the delivery completes (and after
    an immediate handler returns) so an idle report can never claim a
    message as consumed before its effects — including any sends the
    handler made — are on the wire ahead of the report.
    """
    while True:
        try:
            frame = _recv_frame(link.sock)
        except OSError:
            frame = None
        if frame is not None and frame[0] == _DATA:
            flags = frame[2]
            try:
                payload = pickle.loads(frame[3])
                if flags & _CORRUPTED and hasattr(payload, "corrupted"):
                    payload.corrupted = True
                if flags & _IMMEDIATE:
                    node.deliver_immediate(payload)
                else:
                    node.deliver(payload)
            except BaseException:
                # An undecodable payload, or an immediate handler that
                # blew up on the receiver thread.
                _stop_worker(link, node, traceback.format_exc())
                return
            with node._cond:
                link.net_recv += 1
                node._cond.notify_all()
            continue
        if frame is not None:
            frame = pickle.loads(frame[3])
        if frame is None or frame[0] == "shutdown":
            _stop_worker(link, node)
            return
        if frame[0] == "clock_probe":
            # Clock-alignment echo: bounce the hub's timestamp back with
            # this worker's engine clock.  Bypasses the quiescence
            # counters entirely (not a forwarded message) and is answered
            # on the receiver thread, so the round trip measures socket
            # latency, not scheduler occupancy.
            _, probe_id, hub_now = frame
            link.post(("clock", probe_id, hub_now, link.engine.now))


def _worker_health_loop(link: _WorkerLink, machine: "_WorkerMachine",
                        node: _MpNode, interval: float) -> None:
    """Health thread in a worker: periodically snapshot progress counters
    and stream them to the hub.  Reads are lock-free (ints and deque
    length under the GIL) — a snapshot is a statistical observation, not
    a synchronized one — so the thread never perturbs the hot path."""
    stats = node.stats
    while not link.stop.wait(interval):
        snap = {
            "delivered": link.net_recv,
            "inbox": len(node.inbox),
            "idle": node._parked,
            "timers": machine.engine.pending_timers,
            "handlers": stats.handlers_run,
            "sent": stats.msgs_sent,
            "cpu": time.process_time(),
        }
        if not link.post(("health", node.pe, snap)):
            return


def _worker_main(pe: int, num_pes: int, port: int, specs: list, options: dict) -> None:
    """Entry point of one PE process.

    Builds the *machine-independent* runtime stack — ConverseRuntime,
    CMI, Csd scheduler, EMI groups (for handler-index parity), the seed
    balancer — on top of the worker machine pieces, then runs the launch
    specs in order and parks until the hub shuts the job down.
    """
    from repro.core.runtime import ConverseRuntime
    from repro.loadbalance.strategies import make_balancer
    from repro.sim import context

    # Bounded connect retry: a respawned worker can race the hub's
    # accept loop, and loopback connects occasionally bounce under load.
    sock = None
    delay = _CONNECT_BACKOFF
    for attempt in range(_CONNECT_ATTEMPTS):
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
            break
        except OSError:
            if attempt == _CONNECT_ATTEMPTS - 1:
                raise
            time.sleep(delay)
            delay *= 2
    # The connect timeout must not linger: a parked worker's receiver
    # can legitimately see no frame for longer than any fixed timeout.
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    link = _WorkerLink(sock, pe)
    machine = _WorkerMachine(pe, num_pes, link, options)
    machine.network = _MpNetwork(machine, link)
    node = machine.node_obj
    epoch = options.get("epoch", 0)
    if epoch > 0:
        # A respawned incarnation: restart-with-amnesia.  The epoch bump
        # strides the ft control sequences past the previous life's, and
        # crashed_at = 0.0 on the fresh engine clock makes the reported
        # recovery latency "respawn to recovered" in wall seconds.
        node.epoch = epoch
        node.crashed_at = 0.0
    rt = ConverseRuntime(node, machine, queue=options.get("queue", "fifo"))
    rt.cld = make_balancer(options.get("ldb", "direct"), rt)
    # Same registration point as the simulator machine: the EMI group
    # handlers must occupy identical table indices on every PE.
    rt.cmi.groups
    # Protocol layers, in the simulator machine's construction order so
    # handler-table indices match across incarnations.  They are entered
    # concurrently here (main thread sends, receiver thread arrivals,
    # timer threads retransmissions): one shared reentrant lock guards
    # both layers — reentrancy covers the ft<->rel call cycles.
    rel_cfg = options.get("reliable")
    if rel_cfg is not None:
        rel = rt.enable_reliability(rel_cfg)
        # Installed before enable_ft: the ft agent adopts this lock at
        # construction (its timers can arm immediately).
        rel._lock = threading.RLock()
        ft_cfg = options.get("ft")
        if ft_cfg is not None:
            from repro.ft.manager import FTCoordinator

            coord = FTCoordinator(
                num_pes, list(options.get("crash_schedule") or ()),
                distributed=True,
            )
            rt.enable_ft(ft_cfg, coord, restarting=epoch > 0)

    machine.engine.on_error = lambda tb: _stop_worker(link, node, tb)
    # One user thread runs Converse code in this process, so the
    # simulator's module-global current-context slot works unchanged.
    context._set_current(_WorkerTasklet(node))
    try:
        link.send(("hello", pe))
        receiver = threading.Thread(
            target=_worker_receive_loop, args=(link, node),
            name=f"mp-recv-pe{pe}", daemon=True,
        )
        receiver.start()
        health = threading.Thread(
            target=_worker_health_loop,
            args=(link, machine, node,
                  options.get("health_interval", _HEALTH_INTERVAL)),
            name=f"mp-health-pe{pe}", daemon=True,
        )
        health.start()
        for idx, kind, fn, args, _name in specs:
            try:
                if kind == "scheduler":
                    rt.scheduler.run(-1)
                    value = None
                else:
                    value = fn(*args)
            except _WorkerStop:
                return
            except BaseException:
                link.send(("result", idx, False, traceback.format_exc()))
                return
            try:
                link.send(("result", idx, True, value))
            except (pickle.PicklingError, TypeError, AttributeError) as exc:
                link.send(("result", idx, False,
                           f"main returned an unpicklable value: {exc}"))
                return
        # All mains finished: stay alive (the handler table keeps serving
        # quiescence accounting) until the hub says shutdown.
        with node._cond:
            while not link.stop.is_set():
                link.report_idle(node)
                node._cond.wait(_IDLE_RECHECK)
    except _WorkerStop:
        pass
    except OSError:
        pass  # hub went away; nothing left to report to
    except BaseException:
        link.post(("fatal", traceback.format_exc()))
    finally:
        machine.engine.shutdown()
        # Ship the observability payloads before the cpu frame (the
        # hub's reader drains everything up to EOF): the metrics
        # snapshot, and — for count-mode tracing — the event counters.
        # Jsonl spools just need a flush; the hub reads the files.
        if machine.metrics is not None:
            try:
                link.send(("metrics", pe, machine.metrics.snapshot()))
            except Exception:
                # A snapshot/serialization failure must not cost the cpu
                # frame and the orderly close below.
                pass
        tracer = machine.tracer
        if tracer is not None:
            inner = getattr(tracer, "inner", tracer)
            if isinstance(inner, CountingTracer):
                link.post(("trace_counts", pe, dict(inner.counts)))
            try:
                tracer.close()
            except OSError:
                pass
        link.post(("cpu", time.process_time()))
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()


# ======================================================================
# hub (parent-process) side
# ======================================================================
class MpMain:
    """Launch record for one main on one PE (duck-types the simulator
    tasklet's ``finished``/``result`` surface)."""

    __slots__ = ("pe", "name", "index", "finished", "result", "error")

    def __init__(self, pe: int, name: str, index: int) -> None:
        self.pe = pe
        self.name = name
        self.index = index
        self.finished = False
        self.result: Any = None
        self.error: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"<MpMain pe={self.pe} name={self.name!r} {state}>"


class MpConsole:
    """Hub-side console: collects the workers' atomic writes with the
    same inspection surface as the simulator console (``lines``,
    ``output``, ``ordered``, ``records``)."""

    def __init__(self, echo: bool = False) -> None:
        self.echo = echo
        self.records: List[ConsoleRecord] = []
        self._lock = threading.Lock()

    def write(self, pe: int, text: str, stream: str = "out", t: float = 0.0) -> None:
        rec = ConsoleRecord(t, pe, stream, text)
        with self._lock:
            self.records.append(rec)
        if self.echo:
            import sys

            target = sys.stderr if stream == "err" else sys.stdout
            target.write(f"[{rec.time * 1e6:12.2f}us pe{pe}] {text}")
            if not text.endswith("\n"):
                target.write("\n")

    def lines(self, stream: Optional[str] = None, pe: Optional[int] = None) -> List[str]:
        with self._lock:
            return [
                r.text for r in self.records
                if (stream is None or r.stream == stream)
                and (pe is None or r.pe == pe)
            ]

    def output(self) -> str:
        return "".join(self.lines("out"))

    @property
    def ordered(self) -> List[tuple]:
        with self._lock:
            return [(r.time, r.pe, r.text) for r in self.records]

    def feed(self, *_lines: str) -> None:
        raise SimulationError(
            "console input is simulator-only on the mp machine layer"
        )


#: machine arguments that configure simulator-only subsystems, with the
#: neutral values the mp layer accepts (and ignores / rejects beyond).
_SIM_ONLY_OFF = {
    "aggregation": False,
    "backend": None,
}


class MpMachine(MachineLayer):
    """An N-PE machine where each PE is an OS process.

    Parameters
    ----------
    num_pes:
        Number of processing elements (= worker processes).
    queue:
        Csd queueing strategy name for every PE (default ``"fifo"``).
    ldb:
        Seed load-balancing strategy name (default ``"direct"``).
    echo:
        Echo ``CmiPrintf`` output to the parent's real stdout.
    seed:
        Per-PE RNG seed base (randomized balancers/workloads).
    timeout:
        Wall-clock cap for :meth:`run`; a deadlocked or hung worker
        fails the run with :class:`SimulationError` instead of stalling
        forever (default 60 s).
    start_method:
        ``multiprocessing`` start method (default: the
        ``REPRO_MP_START_METHOD`` env var, else ``fork`` where
        available, else the platform default).
    pool / csd_batch:
        The raw-speed knobs, same semantics and env vars as the
        simulator layer (``REPRO_MSG_POOL`` / ``REPRO_CSD_BATCH``):
        per-PE pooled wire-copy allocation (default on) and the Csd
        dispatch batch size, applied inside every worker process.
    trace:
        Distributed tracing spec.  ``False`` (default) — off, zero
        instrumentation in the workers.  ``True``/``"memory"`` — workers
        spool to a temporary directory; after :meth:`shutdown` the merged
        single-timeline trace is on ``machine.tracer`` (a
        :class:`~repro.tracing.tracer.MemoryTracer`).  ``"count"`` —
        per-kind counters only; merged into a ``CountingTracer``.
        ``"jsonl:<path>"`` (or a path) — workers spool to per-PE sibling
        files (``trace.pe0.jsonl``, ...); shutdown writes the merged
        trace at ``<path>`` plus a ``<path minus ext>.clock.json`` offset
        sidecar, and keeps the spools for re-merging with
        ``repro.trace merge``.  Live :class:`Tracer` objects are
        rejected: a tracer cannot be shared across process boundaries.
    metrics:
        ``True`` runs a locking per-worker
        :class:`~repro.metrics.registry.MetricsRegistry` in every PE
        process; snapshots ship to the hub at shutdown and
        :meth:`metrics_snapshot` returns their machine-wide merge.
        Registry *instances* are rejected (same cross-process reason).
    watch:
        Live-health ticker: ``True`` (1 s) or a float interval in
        seconds.  While :meth:`run` waits, a line of per-PE progress
        (delivered counts, idle states, CPU time) is printed to stderr
        each tick — the hub's view of the same snapshots
        :meth:`health` serves.
    health_interval:
        Cadence of worker health snapshots (default 0.25 s); also the
        resolution of the flight recorder attached to timeout errors.
    faults:
        A seeded :class:`~repro.sim.network.FaultPlan`, applied **by the
        hub** to every frame in flight between worker processes (per-link
        drop/duplicate/delay/reorder/corrupt, same RNG stream as the
        simulator; delays/reorders ride real timer threads).  Its
        ``CrashSpec`` entries become real **SIGKILLs**: ``at`` /
        ``restart_after`` are interpreted as wall-clock seconds from the
        start of :meth:`run`, and a spec with ``restart_after`` makes the
        hub respawn a fresh worker incarnation (epoch bump) and re-wire
        its sockets.  Self-sends never cross the hub, so (as with the
        simulator's in-PE deliveries) faults do not apply to them.
    reliable:
        ``True`` (or a :class:`~repro.machine.cmi.ReliableConfig`) runs
        the unmodified CMI reliable-delivery layer inside every worker.
        RTOs are floored to socket scale (rto >= 20 ms, max_rto >=
        250 ms) — the simulator's microsecond defaults would retransmit
        thousands of times per real round trip.
    ft:
        ``True`` (or an :class:`~repro.ft.config.FTConfig`) enables the
        fault-tolerance layer in every worker (requires ``reliable``).
        Heartbeat/control periods are floored to socket scale; each
        worker runs a distributed coordinator replica fed by the shipped
        crash schedule.  Recovery latency on this layer measures respawn
        to recovery-complete in wall seconds.
    model / machine_backend:
        Accepted for signature compatibility with the simulator layer;
        cost models are meaningless here (costs are real).
    aggregation, backend:
        Simulator-only subsystems: accepted at their "off" defaults,
        rejected otherwise with a clear error.
    """

    def __init__(self, num_pes: int, model: Any = None, *args: Any,
                 machine_backend: Any = None, queue: Any = "fifo",
                 ldb: str = "direct", echo: bool = False, seed: int = 0,
                 timeout: float = 60.0, start_method: Optional[str] = None,
                 pool: Any = None, csd_batch: Any = None, inline: Any = None,
                 trace: Any = False, metrics: Any = False,
                 watch: Any = False, health_interval: float = _HEALTH_INTERVAL,
                 faults: Any = None, reliable: Any = False, ft: Any = False,
                 **kwargs: Any) -> None:
        if args:
            raise SimulationError(
                "the mp machine layer takes keyword arguments only "
                "(after num_pes and model)"
            )
        if num_pes < 1:
            raise SimulationError(f"a machine needs at least one PE, got {num_pes}")
        for key, value in kwargs.items():
            if key not in _SIM_ONLY_OFF:
                raise SimulationError(f"unexpected machine argument {key!r}")
            if value != _SIM_ONLY_OFF[key] and value is not None and value is not False:
                raise SimulationError(
                    f"{key}= configures a simulator-only subsystem; the mp "
                    f"machine layer does not support it (use "
                    f"machine_backend='sim')"
                )
        if not isinstance(queue, str):
            raise SimulationError(
                "the mp machine layer takes queue strategies by name "
                "(per-PE factories live in the driver process)"
            )
        self.num_pes = num_pes
        self.model = MP_MODEL
        self.console = MpConsole(echo=echo)
        # -- faults / reliability / fault tolerance ----------------------
        if faults is not None:
            from repro.sim.network import FaultPlan

            if not isinstance(faults, FaultPlan):
                raise SimulationError(
                    f"faults must be a FaultPlan or None, got "
                    f"{type(faults).__name__}"
                )
        self.fault_plan = faults
        self._crash_schedule = (
            faults.crash_schedule(num_pes) if faults is not None else []
        )
        self._rel_config = None
        if reliable:
            from dataclasses import replace as _dc_replace

            from repro.machine.cmi import ReliableConfig

            cfg = (reliable if isinstance(reliable, ReliableConfig)
                   else ReliableConfig())
            self._rel_config = _dc_replace(
                cfg,
                rto=max(cfg.rto, _MP_REL_RTO_FLOOR),
                max_rto=max(cfg.max_rto, _MP_REL_MAX_RTO_FLOOR),
            )
        self._ft_config = None
        if ft:
            from dataclasses import replace as _dc_replace

            from repro.ft.config import FTConfig

            if self._rel_config is None:
                raise SimulationError(
                    "ft= requires the reliable-delivery layer; build the "
                    "machine with reliable=True as well"
                )
            cfg = (ft if isinstance(ft, FTConfig) else FTConfig()).validate()
            self._ft_config = _dc_replace(
                cfg,
                heartbeat_period=max(cfg.heartbeat_period, _MP_FT_HB_FLOOR),
                ctl_rto=max(cfg.ctl_rto, _MP_FT_CTL_RTO_FLOOR),
                ctl_retries=max(cfg.ctl_retries, _MP_FT_CTL_RETRIES_FLOOR),
                checkpoint_interval=(
                    max(cfg.checkpoint_interval, _MP_FT_CKPT_FLOOR)
                    if cfg.checkpoint_interval > 0 else 0.0
                ),
            )
        # -- observability configuration --------------------------------
        self._trace_mode, self._trace_base = self._resolve_trace_spec(trace)
        self._metrics_on = self._resolve_metrics_spec(metrics)
        self._watch_interval = (
            1.0 if watch is True else float(watch) if watch else 0.0
        )
        self._health_interval = max(0.01, float(health_interval))
        #: merged trace sink; populated by :meth:`shutdown` when tracing
        #: (``None`` before then, and always ``None`` with tracing off —
        #: the same attribute surface the simulator machine exposes).
        self.tracer: Optional[Tracer] = None
        self.metrics = None  # registries live in the workers; see metrics_snapshot()
        self._spool_dir: Optional[str] = None
        self._merged_metrics: Optional[dict] = None
        #: non-fatal trace-merge failure from a crashy teardown, kept for
        #: inspection instead of masking the primary error in shutdown().
        self.trace_merge_error: Optional[str] = None
        # Raw-speed knobs, shared with the simulator layer and shipped
        # to every worker in its options dict (each worker's runtime
        # reads them at construction, exactly like the sim machine).
        # (inline dispatch is a simulator-only optimisation — a worker's
        # scheduler loop already runs handlers with no context switch —
        # so the resolved flag is accepted for kwarg parity and dropped.)
        # Pooling follows the simulator's resolution rule: default off
        # under an unreliable fault plan, where duplicate faults re-wire
        # the same payload object twice.
        self.msg_pooling, self.csd_batch, _ = resolve_speed_knobs(
            pool, csd_batch, inline,
            default_pool=not (faults is not None and self._rel_config is None))
        self._queue = queue
        self._ldb = ldb
        self._seed = seed
        self._timeout = timeout
        self._start_method = start_method
        self._mains: List[MpMain] = []
        self._specs: Dict[int, list] = {}
        self._next_index = 0
        self._started = False
        self._shut_down = False
        self._shutting_down = False
        # -- hub state (guarded by _state) -----------------------------
        self._state = threading.Condition()
        self._forwarded = [0] * num_pes
        self._idle: Dict[int, tuple] = {}
        self._quiescent = False
        self._worker_error: Optional[tuple] = None
        self._worker_cpu: Dict[int, float] = {}
        # -- observability state (guarded by _state) --------------------
        self._health: Dict[int, dict] = {}
        self._flight: deque = deque(maxlen=_FLIGHT_DEPTH)
        self._clock: Dict[int, tuple] = {}  # pe -> (rtt, offset) best sample
        self._next_probe = 0
        self._worker_metrics: Dict[int, dict] = {}
        self._worker_trace_counts: Dict[int, dict] = {}
        # -- crash / fault state (guarded by _state where noted) --------
        #: PEs currently dead (scheduled kill until respawn completes).
        self._down: set = set()
        #: PEs whose CrashSpec promises a respawn that has not completed
        #: yet.  Quiescence must wait for them: the surviving PEs can
        #: drain to a balanced ledger during the crash window, but the
        #: run is not over until the fresh incarnation rejoins and the
        #: FT layer replays into it.
        self._respawn_owed: set = set()
        #: PEs whose reader EOF is expected (hub killed them itself).
        self._killed: Dict[int, bool] = {}
        #: per-PE incarnation counter (bumped by every respawn); readers
        #: and delayed frames carry the epoch they were born under.
        self._epochs = [0] * num_pes
        #: fault-delayed frames currently parked on timer threads (their
        #: forwarded count lands at delivery, so quiescence must wait).
        self._delayed = 0
        #: serializes FaultPlan.decide across hub reader threads (the
        #: plan's RNG stream is shared machine-wide, as on the simulator).
        self._fault_lock = threading.Lock()
        self._crash_timers: List[threading.Timer] = []
        self._respawn_timers: List[threading.Timer] = []
        self._dead_procs: List[Any] = []
        #: per-frame routing entry, bound once: the plain counted forward
        #: with no fault plan (zero new per-frame work), the fault-
        #: injecting variant otherwise.
        self._route = self._forward if faults is None else self._forward_faulty
        self._port: Optional[int] = None
        self._worker_options: Optional[dict] = None
        # -- plumbing ---------------------------------------------------
        self._procs: List[Any] = []
        self._conns: Dict[int, socket.socket] = {}
        self._conn_wlocks: Dict[int, threading.Lock] = {}
        self._readers: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None

    # ------------------------------------------------------------------
    # observability spec validation
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_trace_spec(trace: Any) -> tuple:
        """Map the ``trace=`` argument to ``(mode, jsonl_base)`` —
        the distributed spelling of :func:`make_tracer`'s contract."""
        if trace in (None, False):
            return None, None
        if trace is True or trace == "memory":
            return "memory", None
        if trace == "count":
            return "count", None
        if isinstance(trace, Tracer) or hasattr(trace, "write"):
            raise SimulationError(
                "the mp machine layer cannot share a live tracer or file "
                "object across process boundaries; pass True, 'count' or "
                "'jsonl:<path>' and read machine.tracer (or the merged "
                "file) after shutdown()"
            )
        if isinstance(trace, os.PathLike):
            return "jsonl", os.fspath(trace)
        if isinstance(trace, str):
            if trace.startswith("jsonl:"):
                return "jsonl", trace[len("jsonl:"):]
            if os.sep in trace or "/" in trace or trace.endswith(".jsonl"):
                return "jsonl", trace
        raise SimulationError(
            f"unknown tracer spec {trace!r}: use False, True, 'memory', "
            "'count', 'jsonl:<path>' or a path"
        )

    @staticmethod
    def _resolve_metrics_spec(metrics: Any) -> bool:
        if metrics in (None, False):
            return False
        if metrics is True:
            return True
        raise SimulationError(
            "the mp machine layer runs one metrics registry per worker "
            "process; pass metrics=True and read "
            "machine.metrics_snapshot() after the run (registry instances "
            "cannot cross process boundaries)"
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def machine_backend_name(self) -> str:
        return "mp"

    @property
    def now(self) -> float:
        """Wall-clock seconds; each PE additionally has its own clock."""
        return time.monotonic()

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------
    def _add_spec(self, pe: int, kind: str, fn: Any, args: tuple, name: str) -> MpMain:
        if self._started:
            raise SimulationError(
                "the mp machine layer launches before run(); late launches "
                "are simulator-only"
            )
        if kind == "main":
            try:
                pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                raise SimulationError(
                    "mp machine mains must be picklable module-level "
                    f"functions with picklable arguments: {exc}"
                ) from exc
        rec = MpMain(pe, name, self._next_index)
        self._next_index += 1
        self._specs.setdefault(pe, []).append((rec.index, kind, fn, args, name))
        self._mains.append(rec)
        return rec

    def launch(self, fn: Callable[..., Any], *args: Any,
               pes: Optional[Iterable[int]] = None, name: str = "main") -> List[MpMain]:
        targets = range(self.num_pes) if pes is None else pes
        return [self._add_spec(pe, "main", fn, args, name) for pe in targets]

    def launch_on(self, pe: int, fn: Callable[..., Any], *args: Any,
                  name: str = "main") -> MpMain:
        if not 0 <= pe < self.num_pes:
            raise SimulationError(f"PE {pe} out of range [0, {self.num_pes})")
        return self._add_spec(pe, "main", fn, args, name)

    def launch_schedulers(self, pes: Optional[Iterable[int]] = None) -> List[MpMain]:
        targets = range(self.num_pes) if pes is None else pes
        return [self._add_spec(pe, "scheduler", None, (), "csd") for pe in targets]

    def register_quiescence(self, callback: Callable[[], None]) -> None:
        raise SimulationError(
            "register_quiescence callbacks are simulator-only; on the mp "
            "machine layer run() itself returns at quiescence"
        )

    # ------------------------------------------------------------------
    # hub internals
    # ------------------------------------------------------------------
    def _resolve_start_method(self) -> str:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        wanted = self._start_method or os.environ.get(MP_START_METHOD_ENV_VAR)
        if wanted:
            if wanted not in methods:
                raise SimulationError(
                    f"multiprocessing start method {wanted!r} not available "
                    f"here; choose from {', '.join(methods)}"
                )
            return wanted
        # fork is cheapest and inherits sys.path; workers are spawned
        # before any hub thread starts, so fork-with-threads is safe.
        return "fork" if "fork" in methods else methods[0]

    def _check_quiescent_locked(self) -> None:
        if self._delayed:
            return  # fault-delayed frames still parked on timers
        if self._respawn_owed:
            return  # a killed PE is promised back; the run is not over
        down = self._down
        if len(self._idle) < self.num_pes - len(down):
            return
        for pe in range(self.num_pes):
            if pe in down:
                continue  # a dead PE neither receives nor reports
            entry = self._idle.get(pe)
            if entry is None:
                return
            recv, timers = entry
            if timers != 0 or recv != self._forwarded[pe]:
                return
        self._quiescent = True
        self._state.notify_all()

    def _fail_locked(self, pe: int, why: str, died: bool = False) -> None:
        if self._worker_error is None:
            self._worker_error = (pe, why, died)
        self._state.notify_all()

    def _forward(self, src: int, dst: int, body: Any, flags: int) -> None:
        with self._state:
            if not 0 <= dst < self.num_pes:
                self._fail_locked(-1, f"routing frame addressed to PE {dst}")
                return
            self._forwarded[dst] += 1
        self._push_frame(src, dst, body, flags)

    def _push_frame(self, src: int, dst: int, body: Any, flags: int) -> None:
        conn = self._conns.get(dst)
        lock = self._conn_wlocks.get(dst)
        if conn is None or lock is None:
            return
        try:
            _send_raw(conn, lock, _DATA, src, flags, body)
        except OSError:
            with self._state:
                down = dst in self._down
                cur = self._conns.get(dst)
                cur_lock = self._conn_wlocks.get(dst)
            if down:
                # The destination crashed mid-flight: the frame is lost
                # exactly like a packet to a dead host.  Any ledger count
                # it carried is wiped by the respawn reset (or the PE is
                # skipped by the quiescence check if it stays down).
                return
            if cur is not None and cur is not conn:
                # The worker was respawned under us; retry once on the
                # fresh socket before declaring the link dead.
                try:
                    _send_raw(cur, cur_lock, _DATA, src, flags, body)
                    return
                except OSError:
                    pass
            with self._state:
                self._fail_locked(dst, "worker connection lost while forwarding")

    # ------------------------------------------------------------------
    # hub-level fault injection (bound as _route only with a fault plan)
    # ------------------------------------------------------------------
    def _forward_faulty(self, src: int, dst: int, body: Any,
                        flags: int) -> None:
        with self._state:
            if dst in self._down:
                return  # packets to a dead host vanish, uncounted
        with self._fault_lock:
            dropped, corrupted, copies = self.fault_plan.decide(src, dst)
        if dropped:
            return
        if corrupted:
            # The receiver sets payload.corrupted after unpickling; its
            # protocol layers treat that as a checksum failure.
            flags |= _CORRUPTED
        for extra_delay, _keep_fifo, _action in copies:
            if extra_delay <= 0.0:
                self._forward(src, dst, body, flags)
            else:
                with self._state:
                    self._delayed += 1
                    epoch = self._epochs[dst]
                timer = threading.Timer(
                    extra_delay, self._deliver_delayed,
                    (src, dst, body, flags, epoch),
                )
                timer.daemon = True
                timer.start()

    def _deliver_delayed(self, src: int, dst: int, body: Any,
                         flags: int, epoch: int) -> None:
        with self._state:
            self._delayed -= 1
            if dst in self._down or self._epochs[dst] != epoch:
                # The destination died (or was reborn) while the frame
                # was parked: drop it, and re-check quiescence in the
                # same lock hold — this decrement may have been the last
                # thing the ledger was waiting on.
                self._check_quiescent_locked()
                return
            # Count inside the same hold as the decrement so there is no
            # window where neither the delayed counter nor the forwarded
            # ledger covers this frame (a false-quiescence race).
            self._forwarded[dst] += 1
        self._push_frame(src, dst, body, flags)

    # ------------------------------------------------------------------
    # scheduled crashes: SIGKILL + respawn (CrashSpec entries)
    # ------------------------------------------------------------------
    def _crash_worker(self, spec: Any) -> None:
        """Timer callback: SIGKILL the worker named by ``spec`` — a real
        process death, not a simulation of one."""
        pe = spec.pe
        with self._state:
            # A crash landing after quiescence is a no-op: the run is
            # over, the workers are only awaiting collection.
            if self._shutting_down or self._quiescent or pe in self._down:
                return
            self._down.add(pe)
            self._killed[pe] = True
            self._idle.pop(pe, None)
            if spec.restart_after is not None:
                # Block quiescence until the promised respawn lands —
                # the survivors going idle mid-crash-window is not the
                # end of the run.
                self._respawn_owed.add(pe)
            self._state.notify_all()
        proc = self._procs[pe]
        try:
            proc.kill()
        except Exception:
            pass
        self._dead_procs.append(proc)
        proc.join(timeout=5.0)
        # Close the hub side of the socket too: the reader unblocks
        # immediately instead of waiting for the kernel to tear the
        # connection down.
        conn = self._conns.get(pe)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if spec.restart_after is not None:
            timer = threading.Timer(
                max(0.0, spec.restart_after), self._respawn_worker, (pe,)
            )
            timer.daemon = True
            self._respawn_timers.append(timer)
            timer.start()

    def _respawn_worker(self, pe: int) -> None:
        """Timer callback: boot a fresh incarnation of PE ``pe`` (epoch
        bump), re-accept its socket on the still-open listener and wire
        a new reader — restart-with-amnesia over real processes."""
        import multiprocessing

        try:
            with self._state:
                if self._shutting_down or self._quiescent:
                    self._respawn_owed.discard(pe)
                    self._state.notify_all()
                    return  # the run drained while the PE was down
                epoch = self._epochs[pe] + 1
            options = dict(self._worker_options)
            options["epoch"] = epoch
            # Spawn, never fork: the hub is heavily multi-threaded by
            # now and a forked child could inherit a mid-acquire lock
            # (the import lock being the classic one).
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "spawn" if "spawn" in methods else methods[0]
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(pe, self.num_pes, self._port,
                      self._specs.get(pe, []), options),
                name=f"repro-mp-pe{pe}e{epoch}",
                daemon=True,
            )
            proc.start()
            conn = self._accept_worker(pe)
            with self._state:
                self._procs[pe] = proc
                self._conns[pe] = conn
                self._conn_wlocks[pe] = threading.Lock()
                # Fresh ledger on both sides: the incarnation starts at
                # net_recv == 0, so the hub's count restarts with it.
                self._forwarded[pe] = 0
                self._epochs[pe] = epoch
                self._killed.pop(pe, None)
                self._down.discard(pe)
                self._respawn_owed.discard(pe)
                self._state.notify_all()
            reader = threading.Thread(
                target=self._hub_reader, args=(pe, conn, epoch),
                name=f"mp-hub-pe{pe}e{epoch}", daemon=True,
            )
            reader.start()
            self._readers.append(reader)
        except BaseException as exc:
            with self._state:
                self._respawn_owed.discard(pe)
                if not self._shutting_down:
                    self._fail_locked(pe, f"worker respawn failed: {exc}")

    def _accept_worker(self, pe: int) -> socket.socket:
        """Accept a (re)connecting worker on the listener until the one
        identifying as ``pe`` arrives; bounded by the machine timeout."""
        deadline = time.monotonic() + min(30.0, self._timeout)
        while True:
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"respawned mp worker for PE {pe} did not connect "
                    f"within {min(30.0, self._timeout):.0f}s"
                )
            listener = self._listener
            if listener is None:
                raise SimulationError("listener closed during respawn")
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = _recv_control(conn)
            if hello and hello[0] == "hello" and hello[1] == pe:
                return conn
            # Not our worker (stray or mismatched connect): drop it.
            try:
                conn.close()
            except OSError:
                pass

    def _hub_reader(self, pe: int, conn: socket.socket, epoch: int = 0) -> None:
        while True:
            try:
                frame = _recv_frame(conn)
            except OSError:
                frame = None
            if frame is None:
                break  # EOF, or a frame torn by a worker dying mid-write
            if frame[0] == _DATA:
                self._route(pe, frame[1], frame[3], frame[2])
                continue
            try:
                frame = pickle.loads(frame[3])
            except Exception:
                frame = ("fatal", "undecodable control frame:\n"
                         + traceback.format_exc())
            kind = frame[0]
            if kind == "idle":
                with self._state:
                    self._idle[pe] = (frame[1], frame[2])
                    self._check_quiescent_locked()
            elif kind == "result":
                _, index, ok, value = frame
                with self._state:
                    rec = self._mains[index]
                    rec.finished = True
                    if ok:
                        rec.result = value
                    else:
                        rec.error = value
                        self._fail_locked(pe, value)
                    self._state.notify_all()
            elif kind == "printf":
                _, stream, wpe, text, t = frame
                self.console.write(wpe, text, stream, t)
            elif kind == "cpu":
                with self._state:
                    self._worker_cpu[pe] = frame[1]
            elif kind == "health":
                _, wpe, snap = frame
                with self._state:
                    self._health[wpe] = snap
                    self._flight.append((time.monotonic(), wpe, snap))
            elif kind == "clock":
                # Echo reply: frame carries our original send timestamp
                # and the worker's engine clock at the bounce.  Midpoint
                # estimation; the minimum-RTT sample per PE wins (its
                # asymmetry error is the smallest).
                _, _probe_id, t_send, worker_now = frame
                t_recv = time.monotonic()
                rtt = t_recv - t_send
                offset = (t_send + t_recv) / 2.0 - worker_now
                with self._state:
                    best = self._clock.get(pe)
                    if best is None or rtt < best[0]:
                        self._clock[pe] = (rtt, offset)
            elif kind == "metrics":
                with self._state:
                    self._worker_metrics[frame[1]] = frame[2]
            elif kind == "trace_counts":
                with self._state:
                    self._worker_trace_counts[frame[1]] = frame[2]
            elif kind == "fatal":
                with self._state:
                    self._fail_locked(pe, frame[1])
        # EOF / torn frame.  Classify: a shutdown, an already-quiescent
        # run, a hub-scheduled kill, or a superseded incarnation are all
        # expected; anything else is an *unscheduled* worker death and
        # surfaces as a structured WorkerDied from run().
        with self._state:
            expected = (
                self._shutting_down or self._quiescent
                or self._killed.get(pe) or self._epochs[pe] != epoch
            )
            if not expected:
                self._fail_locked(
                    pe,
                    "worker process exited unexpectedly (socket EOF / "
                    "torn frame)",
                    died=True,
                )

    def _start(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context(self._resolve_start_method())
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.num_pes)
        listener.settimeout(min(30.0, self._timeout))
        self._listener = listener
        port = listener.getsockname()[1]
        worker_trace = None
        if self._trace_mode == "count":
            worker_trace = ("count",)
        elif self._trace_mode in ("memory", "jsonl"):
            base = self._trace_base
            if base is None:
                # memory mode: spool to a temp dir the hub reads back and
                # removes at shutdown.
                import tempfile

                self._spool_dir = tempfile.mkdtemp(prefix="repro-mp-trace-")
                base = os.path.join(self._spool_dir, "trace.jsonl")
                self._trace_base = base
            worker_trace = ("jsonl", base)
        options = {"queue": self._queue, "ldb": self._ldb, "seed": self._seed,
                   "pool": self.msg_pooling, "csd_batch": self.csd_batch,
                   "trace": worker_trace, "metrics": self._metrics_on,
                   "health_interval": self._health_interval,
                   "reliable": self._rel_config, "ft": self._ft_config,
                   "crash_schedule": list(self._crash_schedule),
                   "epoch": 0}
        self._port = port
        self._worker_options = options
        # Spawn every worker before starting any hub thread: with the
        # fork start method, forking a multi-threaded parent is the
        # classic deadlock, so the parent stays single-threaded here.
        for pe in range(self.num_pes):
            proc = ctx.Process(
                target=_worker_main,
                args=(pe, self.num_pes, port, self._specs.get(pe, []), options),
                name=f"repro-mp-pe{pe}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        try:
            for _ in range(self.num_pes):
                conn, _addr = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = _recv_control(conn)
                if not hello or hello[0] != "hello":
                    raise SimulationError(
                        "mp machine worker handshake failed (bad hello frame)"
                    )
                pe = hello[1]
                self._conns[pe] = conn
                self._conn_wlocks[pe] = threading.Lock()
        except socket.timeout:
            raise SimulationError(
                f"mp machine workers did not all connect within "
                f"{listener.gettimeout():.0f}s ({len(self._conns)}/"
                f"{self.num_pes} up)"
            ) from None
        for pe, conn in self._conns.items():
            reader = threading.Thread(
                target=self._hub_reader, args=(pe, conn),
                name=f"mp-hub-pe{pe}", daemon=True,
            )
            reader.start()
            self._readers.append(reader)
        if self._trace_mode in ("memory", "jsonl"):
            # Startup clock probes: sample each worker's monotonic offset
            # while the sockets are quiet (the mains are still booting).
            self._send_clock_probes()
        # Arm the crash schedule only after every worker is handshaken:
        # spec.at counts wall-clock seconds from here (= run start).
        for spec in self._crash_schedule:
            timer = threading.Timer(max(0.0, spec.at),
                                    self._crash_worker, (spec,))
            timer.daemon = True
            self._crash_timers.append(timer)
            timer.start()

    def _send_clock_probes(self) -> None:
        """One echo probe per worker (replies land in ``_hub_reader``).
        Probes ride the ordinary frame sockets but bypass the forwarded
        counters, so quiescence accounting never sees them."""
        for pe, conn in self._conns.items():
            with self._state:
                probe_id = self._next_probe
                self._next_probe += 1
            try:
                _send_frame(conn, self._conn_wlocks[pe],
                            ("clock_probe", probe_id, time.monotonic()))
            except OSError:
                pass

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> str:
        """Drive the machine to quiescence (wall-clock-bounded by the
        machine's ``timeout``); returns ``"quiescent"``."""
        if until is not None or max_events is not None:
            raise SimulationError(
                "until=/max_events= are virtual-time horizons; on the mp "
                "machine layer run() only stops at quiescence (or timeout)"
            )
        if self._shut_down:
            raise SimulationError("machine has been shut down")
        if self._started:
            raise SimulationError(
                "the mp machine layer supports a single run() per machine"
            )
        self._started = True
        try:
            self._start()
        except BaseException:
            self.shutdown()
            raise
        watch_stop: Optional[threading.Event] = None
        if self._watch_interval > 0:
            watch_stop = threading.Event()
            ticker = threading.Thread(
                target=self._watch_loop, args=(watch_stop,),
                name="mp-watch", daemon=True,
            )
            ticker.start()
        deadline = time.monotonic() + self._timeout
        try:
            with self._state:
                while True:
                    if self._worker_error is not None:
                        pe, why, died = self._worker_error
                        break
                    if self._quiescent:
                        pe, why, died = -1, None, False
                        break
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        pe, why, died = -1, "timeout", False
                        break
                    self._state.wait(min(remaining, 0.1))
        finally:
            if watch_stop is not None:
                watch_stop.set()
        if why is None:
            return "quiescent"
        with self._state:
            last = self._health.get(pe)
        evidence = self._flight_summary()
        self.shutdown()
        if why == "timeout":
            raise SimulationError(
                f"mp machine run timed out after {self._timeout:.0f}s "
                "(deadlocked or hung worker?)" + evidence
            )
        if died:
            # Unscheduled process death (torn socket): structured
            # node-down evidence instead of an opaque traceback race.
            raise WorkerDied(pe, last_health=last, evidence=evidence)
        raise SimulationError(
            f"mp machine worker on PE {pe} failed:\n{why}" + evidence
        )

    # ------------------------------------------------------------------
    # live health
    # ------------------------------------------------------------------
    def health(self) -> Dict[int, Dict[str, Any]]:
        """The hub's latest view of every PE: the most recent worker
        health snapshot (delivered/inbox/idle/timers/handlers/sent/cpu)
        plus the hub's own forwarded counter — the two sides of the
        quiescence ledger, readable while the run is still in flight."""
        with self._state:
            out: Dict[int, Dict[str, Any]] = {}
            for pe in range(self.num_pes):
                snap = dict(self._health.get(pe, ()))
                snap["forwarded"] = self._forwarded[pe]
                idle = self._idle.get(pe)
                if idle is not None and "delivered" not in snap:
                    snap["delivered"] = idle[0]
                out[pe] = snap
            return out

    def flight_recorder(self) -> List[tuple]:
        """The bounded ring of recent ``(hub_time, pe, snapshot)`` health
        reports — the raw evidence :meth:`run` attaches to timeout and
        crash errors."""
        with self._state:
            return list(self._flight)

    def _flight_summary(self) -> str:
        """Render the last-known per-PE state for attachment to an error
        message (empty string when no report of any kind ever arrived)."""
        with self._state:
            reported = set(self._health) | set(self._idle)
        if not reported:
            return ""
        health = self.health()
        parts = []
        for pe in sorted(health):
            snap = health[pe]
            if pe not in reported:
                parts.append(f"pe{pe}: <no report> "
                             f"forwarded={snap.get('forwarded', '?')}")
                continue
            parts.append(
                f"pe{pe}: delivered={snap.get('delivered', '?')}"
                f"/{snap.get('forwarded', '?')}"
                f" inbox={snap.get('inbox', '?')}"
                f" idle={str(snap.get('idle', '?')).lower()}"
                f" handlers={snap.get('handlers', '?')}"
                f" cpu={snap.get('cpu', 0.0):.2f}s"
            )
        return ("\nlast health snapshots (flight recorder):\n  "
                + "\n  ".join(parts))

    def _watch_loop(self, stop: threading.Event) -> None:
        import sys

        while not stop.wait(self._watch_interval):
            health = self.health()
            cells = []
            for pe in sorted(health):
                snap = health[pe]
                mark = "idle" if snap.get("idle") else "busy"
                cells.append(
                    f"pe{pe} {mark}"
                    f" d={snap.get('delivered', '?')}/{snap.get('forwarded', '?')}"
                    f" h={snap.get('handlers', '?')}"
                )
            sys.stderr.write("[mp health] " + " | ".join(cells) + "\n")

    # ------------------------------------------------------------------
    # results & teardown
    # ------------------------------------------------------------------
    def results(self) -> List[Any]:
        out = []
        for rec in self._mains:
            if not rec.finished:
                raise SimulationError(
                    f"main {rec.name!r} on PE {rec.pe} has not finished; "
                    "run() the machine to completion first"
                )
            if rec.error is not None:
                raise SimulationError(
                    f"main {rec.name!r} on PE {rec.pe} failed:\n{rec.error}"
                )
            out.append(rec.result)
        return out

    def worker_cpu_seconds(self) -> Dict[int, float]:
        """Per-PE ``time.process_time()`` totals reported by the workers
        at shutdown — the measured-parallelism evidence (their sum can
        exceed the wall-clock run time only with real concurrency)."""
        with self._state:
            return dict(self._worker_cpu)

    def shutdown(self) -> None:
        """Stop the workers, drain their final frames, reap processes and
        join every hub thread.  Idempotent."""
        if self._shut_down:
            return
        self._shut_down = True
        with self._state:
            self._shutting_down = True
        # Disarm the fault schedule first: no kill or respawn may land
        # in the middle of the teardown below.
        for timer in self._crash_timers + self._respawn_timers:
            timer.cancel()
        if self._trace_mode in ("memory", "jsonl"):
            # Close-time clock probes: a second offset sample at the end
            # of the run bounds drift over its span.  Same-socket FIFO
            # means every worker answers the probe *before* it sees the
            # shutdown frame, so the replies always drain.
            self._send_clock_probes()
        for pe, conn in self._conns.items():
            try:
                _send_frame(conn, self._conn_wlocks[pe], ("shutdown",))
            except OSError:
                pass
        # Workers answer shutdown with their cpu frame and close; readers
        # drain those frames and exit on EOF.  Killed-and-replaced
        # incarnations are reaped too (their handles moved to
        # _dead_procs at crash time).
        for proc in self._dead_procs:
            proc.join(timeout=1.0)
        # Generous grace before escalating to SIGTERM: the worker's exit
        # path ships its metrics snapshot and flushes trace spools, and a
        # loaded host can stretch that well past a few seconds.  A
        # premature terminate() silently costs those final frames.
        for proc in self._procs:
            proc.join(timeout=15.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
        # Workers have exited: let each reader drain their final frames
        # to EOF before the socket closes under it (which drops them).
        for reader in self._readers:
            reader.join(timeout=5.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        # Readers are drained: every final frame (clock echoes, metrics
        # snapshots, trace counters, cpu) has been absorbed.  Merge.
        if self._trace_mode is not None and self._started and self.tracer is None:
            try:
                self._finalize_trace()
            except Exception:
                # shutdown() also runs on the failure path (timeout,
                # worker crash); a merge problem there must not mask the
                # primary error — keep it inspectable instead.
                self.trace_merge_error = traceback.format_exc()

    def _finalize_trace(self) -> None:
        """Combine the workers' trace output into ``self.tracer`` (and,
        for jsonl mode, the merged on-disk trace + clock sidecar)."""
        if self._trace_mode == "count":
            merged = CountingTracer()
            with self._state:
                per_pe = list(self._worker_trace_counts.values())
            for counts in per_pe:
                for key, n in counts.items():
                    merged.counts[key] += n
            self.tracer = merged
            return
        from repro.tracing.merge import (
            load_spool,
            merge_tracers,
            save_clock_file,
            spool_path,
        )

        with self._state:
            offsets = {pe: off for pe, (_rtt, off) in self._clock.items()}
        tracers = []
        spools = []
        for pe in range(self.num_pes):
            path = spool_path(self._trace_base, pe)
            if os.path.exists(path):
                spools.append(path)
                tracers.append(load_spool(path))
        self.tracer = merge_tracers(tracers, offsets=offsets)
        if self._trace_mode == "jsonl":
            from repro.tracing.merge import write_jsonl

            write_jsonl(self.tracer, self._trace_base)
            root, _ext = os.path.splitext(self._trace_base)
            save_clock_file(f"{root}.clock.json", offsets)
        elif self._spool_dir is not None:
            # memory mode spooled to a temp dir: nothing outlives the
            # merged in-RAM tracer.
            import shutil

            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """The machine-wide metrics snapshot: every worker's per-process
        registry snapshot, merged (same shape the simulator's single
        registry produces, so reports and assertions port unchanged).

        Workers ship their snapshots as they exit, so on this single-run
        layer asking for the snapshot finalizes the machine: if the run
        is still live, :meth:`shutdown` is invoked first.
        """
        if not self._metrics_on:
            raise SimulationError(
                "machine was built without metrics; pass metrics=True"
            )
        if self._merged_metrics is None:
            self.shutdown()
            from repro.metrics.registry import merge_snapshots

            with self._state:
                snaps = [self._worker_metrics[pe]
                         for pe in sorted(self._worker_metrics)]
            self._merged_metrics = merge_snapshots(snaps)
        return self._merged_metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "shut down" if self._shut_down else (
            "running" if self._started else "new"
        )
        return f"<MpMachine pes={self.num_pes} {state}>"

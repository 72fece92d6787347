"""The mp data plane: struct-header framing and the opaque-body hub.

A data frame's body is the sender's pickle of the payload; the hub
routes it by the header alone and only the receiving worker unpickles
it.  These tests pin the framing round trip (including partial
scatter-gather writes), that the hub never rebuilds a payload, that a
fault-plan corruption still reaches the receiver as
``payload.corrupted``, that an undecodable payload fails the run at
once instead of hanging it, and that shutdown keeps every worker's
final frames.

Worker mains and payload types are module-level so worker processes can
import them by reference.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time

import pytest

from repro.core import api
from repro.core.errors import SimulationError
from repro.machine.base import (
    machine_backend_available,
    machine_backend_unavailable_reason,
)
from repro.sim import context
from repro.sim.machine import Machine
from repro.sim.network import FaultPlan

MP_TIMEOUT = 60.0

needs_mp = pytest.mark.skipif(
    not machine_backend_available("mp"),
    reason=f"mp layer unavailable: {machine_backend_unavailable_reason('mp')}",
)


# ----------------------------------------------------------------------
# payload types and worker mains
# ----------------------------------------------------------------------
def _rebuild_probe(path, n):
    with open(path, "a") as f:
        f.write(f"{os.getpid()}\n")
    return PidProbe(path, n)


class PidProbe:
    """A payload whose unpickling appends the rebuilding pid to a file."""

    def __init__(self, path, n):
        self.path = path
        self.n = n

    def __reduce__(self):
        return _rebuild_probe, (self.path, self.n)


def _explode(why):
    raise RuntimeError(why)


class Undecodable:
    """Pickles fine; raises when unpickled."""

    def __reduce__(self):
        return _explode, ("payload rebuild exploded",)


class Bare:
    """A raw wire payload with no ``corrupted`` slot."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n


def w_probe_exchange(path, count):
    """PE 0 sends ``count`` probes to PE 1, which returns their numbers."""
    got = []

    def on_probe(msg):
        got.append(msg.payload.n)
        if len(got) == count:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_probe, "dataplane.probe")
    if api.CmiMyPe() == 0:
        for i in range(count):
            api.CmiSyncSend(1, api.CmiNew(h, PidProbe(path, i)))
        return None
    api.CsdScheduler(-1)
    return got


def w_send_undecodable():
    h = api.CmiRegisterHandler(lambda _msg: None, "dataplane.undecodable")
    if api.CmiMyPe() == 0:
        api.CmiSyncSend(1, api.CmiNew(h, Undecodable()))
    api.CsdScheduler(-1)


def w_corrupt_delivery(count):
    """Once PE 1 has its interceptor installed and says so, PE 0 sends
    ``count`` Messages and ``count`` raw ``Bare`` packets to it,
    interleaved; PE 1 returns what arrived and the flags seen."""
    node = context.current_runtime().node
    seen = {"msgs": [], "bare": []}

    def on_data(msg):
        seen["msgs"].append((msg.payload, msg.corrupted))
        if len(seen["msgs"]) == count:
            api.CsdExitScheduler()

    def catch_bare(payload):
        if isinstance(payload, Bare):
            seen["bare"].append(payload.n)
            return True
        return False

    h_data = api.CmiRegisterHandler(on_data, "dataplane.corrupt")
    h_ready = api.CmiRegisterHandler(lambda _msg: api.CsdExitScheduler(),
                                     "dataplane.ready")
    if api.CmiMyPe() == 0:
        api.CsdScheduler(-1)
        for i in range(count):
            node.machine.network.inject(0, 1, 8, Bare(i))
            api.CmiSyncSend(1, api.CmiNew(h_data, i))
        return None
    node.set_interceptor(catch_bare)
    api.CmiSyncSend(0, api.CmiNew(h_ready, None))
    api.CsdScheduler(-1)
    return seen


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class _CountingSock:
    """Forwards ``sendmsg`` to a real socket and counts the calls."""

    def __init__(self, sock):
        self.sock = sock
        self.calls = 0

    def sendmsg(self, bufs):
        self.calls += 1
        return self.sock.sendmsg(bufs)


def test_framing_round_trips_control_and_data_frames():
    from repro.machine import mp

    a, b = socket.socketpair()
    a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
    # A timeout makes sendmsg return after a partial write instead of
    # blocking until the whole frame is queued.
    a.settimeout(30.0)
    b.settimeout(30.0)
    big = os.urandom(3 << 20)
    control = ("result", 7, True, big)
    sender = _CountingSock(a)
    lock = threading.Lock()

    def send_all():
        mp._send_frame(sender, lock, control)
        mp._send_raw(sender, lock, mp._DATA, 3,
                     mp._IMMEDIATE | mp._CORRUPTED, big)
        mp._send_raw(sender, lock, mp._DATA, 1, 0, b"x")

    writer = threading.Thread(target=send_all)
    writer.start()
    try:
        kind, _peer, flags, body = mp._recv_frame(b)
        assert (kind, flags) == (mp._CTRL, 0)
        assert pickle.loads(body) == control
        assert mp._recv_frame(b) == (mp._DATA, 3,
                                     mp._IMMEDIATE | mp._CORRUPTED, big)
        assert mp._recv_frame(b) == (mp._DATA, 1, 0, b"x")
    finally:
        writer.join(timeout=30.0)
        a.close()
    # Each multi-megabyte frame took several partial writes.
    assert sender.calls > 4
    assert mp._recv_frame(b) is None  # EOF
    b.close()


def test_torn_frame_reads_as_eof():
    from repro.machine import mp

    a, b = socket.socketpair()
    try:
        a.sendall(mp._HDR.pack(100, 0, mp._DATA, 0) + b"only part")
        a.close()
        assert mp._recv_frame(b) is None
    finally:
        b.close()


# ----------------------------------------------------------------------
# the hub routes opaque bodies
# ----------------------------------------------------------------------
@needs_mp
def test_hub_never_unpickles_a_data_frame(tmp_path):
    path = str(tmp_path / "rebuilds.txt")
    m = Machine(2, machine_backend="mp", timeout=MP_TIMEOUT)
    try:
        m.launch(w_probe_exchange, path, 20)
        assert m.run() == "quiescent"
        assert m.results() == [None, list(range(20))]
        receiver_pid = m._procs[1].pid
    finally:
        m.shutdown()
    with open(path) as f:
        pids = {int(line) for line in f}
    assert os.getpid() not in pids
    assert pids == {receiver_pid}


@needs_mp
def test_corruption_reaches_the_receiver():
    count = 30
    plan = FaultPlan(seed=3, corrupt=1.0)
    m = Machine(2, machine_backend="mp", faults=plan, timeout=MP_TIMEOUT)
    try:
        m.launch(w_corrupt_delivery, count)
        assert m.run() == "quiescent"
        seen = m.results()[1]
    finally:
        m.shutdown()
    assert [p for p, _ in seen["msgs"]] == list(range(count))
    assert all(corrupted for _, corrupted in seen["msgs"])
    # Payloads without the slot are still delivered, undetectably damaged.
    assert seen["bare"] == list(range(count))
    assert plan.stats.corruptions == 2 * count + 1  # + the ready message


@needs_mp
def test_undecodable_payload_fails_the_run_at_once():
    m = Machine(2, machine_backend="mp", timeout=60.0)
    m.launch(w_send_undecodable)
    t0 = time.monotonic()
    try:
        with pytest.raises(SimulationError) as exc_info:
            m.run()
        assert time.monotonic() - t0 < 10.0
        msg = str(exc_info.value)
        assert "PE 1" in msg
        assert "RuntimeError: payload rebuild exploded" in msg
    finally:
        t1 = time.monotonic()
        m.shutdown()
        assert time.monotonic() - t1 < 5.0


@needs_mp
def test_shutdown_keeps_the_final_frames_of_a_lagging_reader(monkeypatch):
    """Workers ship their metrics and cpu frames as they exit; shutdown
    must let each hub reader drain them even when it lags behind."""
    from repro.machine import mp
    from tests.machine.conformance import workers

    hub = os.getpid()
    read = mp._recv_frame

    def lagging(sock):
        frame = read(sock)
        if os.getpid() == hub:
            time.sleep(0.01)
        return frame

    monkeypatch.setattr(mp, "_recv_frame", lagging)
    m = Machine(2, machine_backend="mp", metrics=True, timeout=MP_TIMEOUT)
    try:
        m.launch(workers.w_pingpong, 3, 32)
        assert m.run() == "quiescent"
    finally:
        m.shutdown()
    assert sorted(m.worker_cpu_seconds()) == [0, 1]
    assert sorted(m._worker_metrics) == [0, 1]

"""The four benchmark workloads, written against the public API only
(``repro.Machine``, ``repro.api``, ``repro.FaultPlan``).

Each workload has three parts:

* ``plan_*(seed, scale)`` builds every input from the seed: payload
  bytes, size schedules, the task tree.  The runtime sees only these.
* a PE main that runs one repetition, records the timed window, the
  round-trip samples, per-message digests and (when traced) spans, and
  returns them as plain data (on mp they come back through
  ``m.results()``).
* ``rep_*(plan, traced)`` builds the ``Machine``, runs the main, and
  returns a :class:`Rep`; ``check_*`` compares a rep against the plan.

A repetition runs a fixed amount of work, so on the simulator every
repetition of one seed must reach the same virtual end time.
"""

from __future__ import annotations

import random
import resource
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from time import perf_counter as pc
from typing import Any, Callable, Dict, List, Optional

from repro import FaultPlan, Machine, api

from perfbench.spans import Recorder

SMALL_BYTES = 64
LARGE_BYTES = 32 * 1024
N_SMALL = 8
N_LARGE = 4

#: the faulty workload's fault plan: low rates, no crashes.  A dropped or
#: corrupted frame stalls the whole credit window for one retransmission
#: timeout (20 ms on mp) because delivery is in order.  At these rates
#: such stalls take about 5% of a repetition, so the workload still
#: measures the per-frame cost of the reliable layer.  At 5x the drop
#: and corrupt rates they took a quarter of it, and ops_per_s spread by
#: 0.19 of its median across ten seeds on a quiet host.
FAULT_RATES = dict(drop=0.0002, duplicate=0.001, corrupt=0.0002)


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _payload_pool(rng: random.Random) -> tuple:
    """Seeded payloads: ``N_SMALL`` of 64 B then ``N_LARGE`` of 32 KB,
    and their CRCs.  Messages carry an index into this pool."""
    payloads = [rng.randbytes(SMALL_BYTES) for _ in range(N_SMALL)]
    payloads += [rng.randbytes(LARGE_BYTES) for _ in range(N_LARGE)]
    return payloads, [zlib.crc32(p) for p in payloads]


def _block_schedule(rng: random.Random, n: int) -> List[int]:
    """``n`` payload indices in alternating blocks of small and large
    payloads, each block 8 to 48 long."""
    out: List[int] = []
    large = False
    while len(out) < n:
        lo, hi = (N_SMALL, N_SMALL + N_LARGE - 1) if large else (0, N_SMALL - 1)
        out.extend(rng.randint(lo, hi) for _ in range(rng.randint(8, 48)))
        large = not large
    return out[:n]


def _mixed_schedule(rng: random.Random, n: int, large_every: int) -> List[int]:
    """``n`` payload indices: small ones, with one large payload at a
    seeded place in every run of ``large_every``."""
    out = []
    for start in range(0, n, large_every):
        hit = rng.randrange(large_every)
        out += [rng.randint(N_SMALL, N_SMALL + N_LARGE - 1) if k == hit
                else rng.randint(0, N_SMALL - 1) for k in range(large_every)]
    return out[:n]


def is_large(idx: int) -> bool:
    return idx >= N_SMALL


def fold(digest: int, seq: int, crc: int) -> int:
    """One step of a receiver's running digest over (seq, payload crc)."""
    return zlib.crc32(struct.pack("<qI", seq, crc), digest)


@dataclass
class Rep:
    """What one repetition measured."""
    ops: int = 0
    setup_s: float = 0.0
    teardown_s: float = 0.0
    window_s: float = 0.0
    win0: float = 0.0
    win1: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    rtt_small: List[float] = field(default_factory=list)
    rtt_large: List[float] = field(default_factory=list)
    #: completion time of each timed op, in order.
    op_times: List[float] = field(default_factory=list)
    #: what a run keeps of the per-op samples once the rep is checked:
    #: the block rates, and the round-trip percentiles.
    rates: List[float] = field(default_factory=list)
    rtt: Dict[str, float] = field(default_factory=dict)
    #: per-process span lists (traced runs only).
    spans: List[list] = field(default_factory=list)
    queue_len_max: int = 0
    virtual_end: float = 0.0
    #: whole-rep totals for the per-layer table.
    all_ops: int = 0
    #: application messages delivered, and the frames carried for them
    #: (data, acks, retransmissions and duplicates under faults).
    messages: int = 0
    frames: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    construct_s: float = 0.0
    start_s: float = 0.0
    shutdown_s: float = 0.0
    worker_cpu_s: float = 0.0
    driver_cpu_s: float = 0.0
    results: Any = None


class PeState:
    """Per-PE bookkeeping shared by the mains: the return value."""

    def __init__(self, pe: int, traced: bool) -> None:
        self.rec = Recorder() if traced else None
        self.out: Dict[str, Any] = {
            "pe": pe, "recv": 0, "digest": 0, "bad": 0, "order": 0,
            "rtt_small": [], "rtt_large": [], "op_t": [], "win0": None,
            "win1": None, "cpu0": None, "cpu1": None,
        }

    def finish(self) -> Dict[str, Any]:
        out = self.out
        out["rss_mb"] = _rss_self_mb()
        if self.rec is not None:
            out["spans"] = self.rec.spans
            out["qmax"] = self.rec.queue_len_max
        return out


def _send(rec: Optional[Recorder], dest: int, handler: int, payload: Any,
          op: Any) -> None:
    """``CmiNew`` + ``CmiSyncSend``, each in its own span when traced."""
    if rec is None:
        api.CmiSyncSend(dest, api.CmiNew(handler, payload))
        return
    i = rec.begin("cmi.new", op)
    msg = api.CmiNew(handler, payload)
    rec.end(i)
    i = rec.begin("cmi.send", op)
    api.CmiSyncSend(dest, msg)
    rec.end(i)


def _handler_entry(rec: Optional[Recorder], op: Any) -> int:
    """Open a handler's span (traced runs), sampling the queue length."""
    if rec is None:
        return -1
    ql = api.CsdQueueLength()
    if ql > rec.queue_len_max:
        rec.queue_len_max = ql
    return rec.begin("app.handler", op)


# ======================================================================
# mp_pingpong: one ball, 2 mp PEs, blocks of 64 B and 32 KB payloads
# ======================================================================

def plan_mp_pingpong(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"mp_pingpong-{seed}")
    payloads, crcs = _payload_pool(rng)
    rounds = max(8, int(1200 * scale))
    warm = min(10, rounds // 4)
    return {"payloads": payloads, "crcs": crcs,
            "sched": _block_schedule(rng, rounds), "warm": warm,
            "all_ops": 2 * rounds, "ops": 2 * (rounds - warm)}


def pingpong_main(plan: dict, traced: bool) -> dict:
    me = api.CmiMyPe()
    other = 1 - me
    st = PeState(me, traced)
    rec, out = st.rec, st.out
    sched, payloads, crcs = plan["sched"], plan["payloads"], plan["crcs"]
    nmsg = 2 * len(sched)
    warm = 2 * plan["warm"]
    expect = nmsg // 2
    sent = {"t": 0.0}

    def send(seq: int) -> None:
        idx = sched[seq // 2]
        sent["t"] = pc()
        _send(rec, other, h, (seq, idx, payloads[idx]),
              ("b", seq, is_large(idx)))

    def on_ball(msg: Any) -> None:
        t_in = pc()
        seq, idx, data = msg.payload
        hi = _handler_entry(rec, ("b", seq, is_large(idx)))
        crc = zlib.crc32(data)
        if crc != crcs[idx] or idx != sched[seq // 2]:
            out["bad"] += 1
        if seq != 2 * out["recv"] + other:
            out["order"] += 1
        out["digest"] = fold(out["digest"], seq, crc)
        out["recv"] += 1
        if seq >= warm:
            out["op_t"].append(t_in)
            if me == 0:
                rtt = t_in - sent["t"]
                (out["rtt_large"] if is_large(idx) else out["rtt_small"]).append(rtt)
            elif seq == warm:
                out["cpu0"] = _cpu_self()
        if seq == nmsg - 1:
            out["win1"], out["cpu1"] = t_in, _cpu_self()
        if seq + 1 < nmsg:
            if seq + 1 == warm:
                out["win0"], out["cpu0"] = pc(), _cpu_self()
            send(seq + 1)
            if seq + 1 == nmsg - 1:
                out["cpu1"] = _cpu_self()
        if rec is not None:
            rec.end(hi)
        if out["recv"] == expect:
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_ball, "perfbench.ball")
    if me == 0:
        send(0)
    api.CsdScheduler(-1)
    return st.finish()


def check_mp_pingpong(plan: dict, results: list) -> List[str]:
    sched, crcs = plan["sched"], plan["crcs"]
    errors = []
    want = [0, 0]
    for seq in range(2 * len(sched)):
        dst = 1 - seq % 2
        want[dst] = fold(want[dst], seq, crcs[sched[seq // 2]])
    for pe, res in enumerate(results):
        errors += _common_checks(res, len(sched), want[pe])
    return errors


# ======================================================================
# mp_faulty: PE 0 streams to PE 1 under a credit window, reliable
# delivery on, seeded drop/duplicate/corrupt faults at the hub
# ======================================================================

WINDOW_FAULTY = 4


def plan_mp_faulty(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"mp_faulty-{seed}")
    payloads, crcs = _payload_pool(rng)
    n = max(16, int(1000 * scale))
    warm = min(2 * WINDOW_FAULTY, n // 4)
    return {"payloads": payloads, "crcs": crcs,
            "sched": _mixed_schedule(rng, n, 16), "warm": warm,
            "all_ops": n, "ops": n - warm, "messages": n,
            "fault_seed": rng.getrandbits(32)}


def faulty_main(plan: dict, traced: bool) -> dict:
    me = api.CmiMyPe()
    st = PeState(me, traced)
    rec, out = st.rec, st.out
    sched, payloads, crcs = plan["sched"], plan["payloads"], plan["crcs"]
    n, warm = len(sched), plan["warm"]
    send_t: Dict[int, float] = {}
    nxt = {"seq": 0}

    def send_data() -> None:
        seq = nxt["seq"]
        nxt["seq"] = seq + 1
        idx = sched[seq]
        if seq == warm:
            out["win0"], out["cpu0"] = pc(), _cpu_self()
        send_t[seq] = pc()
        _send(rec, 1, h_data, (seq, idx, payloads[idx]),
              ("d", seq, is_large(idx)))

    def on_data(msg: Any) -> None:
        t_in = pc()
        seq, idx, data = msg.payload
        hi = _handler_entry(rec, ("d", seq, is_large(idx)))
        crc = zlib.crc32(data)
        if seq != out["recv"]:
            out["order"] += 1
        if crc != crcs[idx] or idx != sched[seq]:
            out["bad"] += 1
        out["digest"] = fold(out["digest"], seq, crc)
        out["recv"] += 1
        if seq == warm:
            out["cpu0"] = _cpu_self()
        if seq >= warm:
            out["op_t"].append(t_in)
        _send(rec, 0, h_credit, seq, ("c", seq, False))
        if seq == n - 1:
            out["cpu1"] = _cpu_self()
        if rec is not None:
            rec.end(hi)
        if out["recv"] == n:
            api.CsdExitScheduler()

    def on_credit(msg: Any) -> None:
        t_in = pc()
        seq = msg.payload
        hi = _handler_entry(rec, ("c", seq, False))
        if seq != out["recv"]:
            out["order"] += 1
        out["recv"] += 1
        t_s = send_t.pop(seq, None)
        if t_s is None:
            out["bad"] += 1
        elif seq >= warm:
            rtt = t_in - t_s
            (out["rtt_large"] if is_large(sched[seq]) else out["rtt_small"]).append(rtt)
        if nxt["seq"] < n:
            send_data()
        if seq == n - 1:
            out["win1"], out["cpu1"] = t_in, _cpu_self()
        if rec is not None:
            rec.end(hi)
        if out["recv"] == n:
            api.CsdExitScheduler()

    h_data = api.CmiRegisterHandler(on_data, "perfbench.data")
    h_credit = api.CmiRegisterHandler(on_credit, "perfbench.credit")
    if me == 0:
        for _ in range(min(WINDOW_FAULTY, n)):
            send_data()
    api.CsdScheduler(-1)
    return st.finish()


def check_mp_faulty(plan: dict, results: list) -> List[str]:
    sched, crcs = plan["sched"], plan["crcs"]
    want = 0
    for seq, idx in enumerate(sched):
        want = fold(want, seq, crcs[idx])
    return (_common_checks(results[0], len(sched), None)
            + _common_checks(results[1], len(sched), want))


def _common_checks(res: dict, expect: int, digest: Optional[int]) -> List[str]:
    pe = res["pe"]
    errors = []
    if res["recv"] != expect:
        errors.append(f"pe{pe}: delivered {res['recv']} messages, want {expect}")
    if res["bad"]:
        errors.append(f"pe{pe}: {res['bad']} messages with a wrong payload")
    if res["order"]:
        errors.append(f"pe{pe}: {res['order']} messages out of sequence")
    if digest is not None and res["digest"] != digest:
        errors.append(f"pe{pe}: sequence/payload digest mismatch")
    return errors


# ======================================================================
# sim_stream: 4 sim PEs, every ordered pair a closed loop of W credits
# ======================================================================

SIM_STREAM_PES = 4
WINDOW_STREAM = 2


def plan_sim_stream(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"sim_stream-{seed}")
    payloads, crcs = _payload_pool(rng)
    per_pair = max(WINDOW_STREAM + 2, int(400 * scale))
    sched = {(s, d): _mixed_schedule(rng, per_pair, 16)
             for s in range(SIM_STREAM_PES) for d in range(SIM_STREAM_PES)
             if s != d}
    total = per_pair * len(sched)
    return {"payloads": payloads, "crcs": crcs, "sched": sched,
            "per_pair": per_pair, "total": total, "warm": min(100, total // 4),
            "all_ops": total, "ops": total - min(100, total // 4),
            "messages": total}


def stream_main(plan: dict, traced: bool, shared: dict) -> dict:
    """Every message is data and, for the reverse direction, a credit:
    the k-th message from q to me was sent when q received my
    (k - W)-th message, so its arrival closes that message's round
    trip."""
    me = api.CmiMyPe()
    st = PeState(me, traced)
    rec, out = st.rec, st.out
    sched, payloads, crcs = plan["sched"], plan["payloads"], plan["crcs"]
    per_pair, total, warm = plan["per_pair"], plan["total"], plan["warm"]
    peers = [d for d in range(SIM_STREAM_PES) if d != me]
    sent = {d: 0 for d in peers}
    send_t: Dict[int, Dict[int, float]] = {d: {} for d in peers}
    expect_seq = {s: 0 for s in peers}
    digests = {s: 0 for s in peers}
    out["digests"] = digests

    def send(d: int) -> None:
        seq = sent[d]
        sent[d] = seq + 1
        idx = sched[(me, d)][seq]
        send_t[d][seq] = pc()
        _send(rec, d, h, (me, seq, idx, payloads[idx]),
              (me, d, seq, is_large(idx)))

    def on_msg(msg: Any) -> None:
        t_in = pc()
        src, seq, idx, data = msg.payload
        hi = _handler_entry(rec, (src, me, seq, is_large(idx)))
        n = shared["delivered"] = shared["delivered"] + 1
        if n > warm:
            shared["op_t"].append(t_in)
        if n == warm:
            shared["win0"], shared["cpu0"] = t_in, _cpu_self()
        elif n == total:
            shared["win1"], shared["cpu1"] = t_in, _cpu_self()
        crc = zlib.crc32(data)
        if crc != crcs[idx] or idx != sched[(src, me)][seq]:
            out["bad"] += 1
        if seq != expect_seq[src]:
            out["order"] += 1
        expect_seq[src] = seq + 1
        digests[src] = fold(digests[src], seq, crc)
        out["recv"] += 1
        if seq >= WINDOW_STREAM:
            j = seq - WINDOW_STREAM
            t_s = send_t[src].pop(j)
            if shared["win0"] is not None and t_s >= shared["win0"]:
                rtt = t_in - t_s
                (out["rtt_large"] if is_large(sched[(me, src)][j])
                 else out["rtt_small"]).append(rtt)
        if sent[src] < per_pair:
            send(src)
        if rec is not None:
            rec.end(hi)
        if out["recv"] == per_pair * len(peers):
            api.CsdExitScheduler()

    h = api.CmiRegisterHandler(on_msg, "perfbench.stream")
    for _ in range(WINDOW_STREAM):
        for d in peers:
            send(d)
    api.CsdScheduler(-1)
    return st.finish()


def check_sim_stream(plan: dict, results: list) -> List[str]:
    sched, crcs = plan["sched"], plan["crcs"]
    errors = []
    for res in results:
        me = res["pe"]
        errors += _common_checks(res, plan["per_pair"] * (SIM_STREAM_PES - 1),
                                 None)
        for src, got in res["digests"].items():
            want = 0
            for seq, idx in enumerate(sched[(src, me)]):
                want = fold(want, seq, crcs[idx])
            if got != want:
                errors.append(f"pe{me}: digest mismatch on the stream from pe{src}")
    return errors


# ======================================================================
# sim_tasks: 1 sim PE, int queue, a task tree with hashed priorities,
# 4 Cth threads yielding through the scheduler, one self-sent ball
# ======================================================================

N_THREADS = 4


def plan_sim_tasks(seed: int, scale: float = 1.0) -> dict:
    rng = random.Random(f"sim_tasks-{seed}")
    payloads, crcs = _payload_pool(rng)
    ntasks = max(16, int(8000 * scale))
    # Breadth-first tree, 0-3 children per task, conditioned to reach
    # ntasks nodes.
    children: List[List[int]] = [[]]
    frontier = [0]
    while frontier and len(children) < ntasks:
        nid = frontier.pop(0)
        k = rng.randint(0, 3) or (0 if frontier else 1)
        for _ in range(min(k, ntasks - len(children))):
            children[nid].append(len(children))
            frontier.append(len(children))
            children.append([])
    mix = rng.getrandbits(32)
    prios = [((nid * 2654435761) ^ mix) % 4096 - 2048
             for nid in range(len(children))]
    yields = max(2, int(600 * scale))
    bounces = 2 * max(4, int(3000 * scale))
    total = len(children) + N_THREADS * yields + bounces
    return {"payloads": payloads, "crcs": crcs, "children": children,
            "prios": prios, "yields": yields,
            "sched": _block_schedule(rng, bounces // 2),
            "bounces": bounces, "total": total, "warm": min(100, total // 4),
            "all_ops": total, "ops": total - min(100, total // 4),
            "messages": bounces}


def tasks_main(plan: dict, traced: bool, shared: dict) -> dict:
    st = PeState(0, traced)
    rec, out = st.rec, st.out
    children, prios = plan["children"], plan["prios"]
    sched, payloads, crcs = plan["sched"], plan["payloads"], plan["crcs"]
    total, warm, bounces = plan["total"], plan["warm"], plan["bounces"]
    seen = bytearray(len(children))
    counts = {"tasks": 0, "yields": 0, "balls": 0}
    out["counts"] = counts
    sent = {"t": 0.0}

    def op_done(t: float) -> None:
        n = shared["delivered"] = shared["delivered"] + 1
        if n > warm:
            shared["op_t"].append(t)
        if n == warm:
            shared["win0"], shared["cpu0"] = t, _cpu_self()
        if n == total:
            shared["win1"], shared["cpu1"] = t, _cpu_self()
            api.CsdExitScheduler()

    def enqueue(nid: int) -> None:
        if rec is None:
            api.CsdEnqueue(api.CmiNew(h_task, nid), prios[nid])
            return
        i = rec.begin("cmi.new", ("t", nid, False))
        msg = api.CmiNew(h_task, nid)
        rec.end(i)
        i = rec.begin("csd.enqueue", ("t", nid, False))
        api.CsdEnqueue(msg, prios[nid])
        rec.end(i)

    def on_task(msg: Any) -> None:
        t_in = pc()
        nid = msg.payload
        hi = _handler_entry(rec, ("t", nid, False))
        if seen[nid]:
            out["bad"] += 1
        seen[nid] = 1
        counts["tasks"] += 1
        out["digest"] = fold(out["digest"], nid, prios[nid] & 0xFFFFFFFF)
        for child in children[nid]:
            enqueue(child)
        if rec is not None:
            rec.end(hi)
        op_done(t_in)

    def send_ball(seq: int) -> None:
        idx = sched[seq // 2]
        sent["t"] = pc()
        _send(rec, 0, h_ball, (seq, idx, payloads[idx]),
              ("b", seq, is_large(idx)))

    def on_ball(msg: Any) -> None:
        t_in = pc()
        seq, idx, data = msg.payload
        hi = _handler_entry(rec, ("b", seq, is_large(idx)))
        crc = zlib.crc32(data)
        if crc != crcs[idx] or idx != sched[seq // 2] or seq != counts["balls"]:
            out["bad"] += 1
        counts["balls"] += 1
        if seq % 2 and shared["win0"] is not None and sent["t"] >= shared["win0"]:
            rtt = t_in - sent["t"]
            (out["rtt_large"] if is_large(idx) else out["rtt_small"]).append(rtt)
        if seq + 1 < bounces:
            if seq % 2:
                send_ball(seq + 1)
            else:
                _send(rec, 0, h_ball, (seq + 1, idx, data),
                      ("b", seq + 1, is_large(idx)))
        if rec is not None:
            rec.end(hi)
        op_done(t_in)

    def body(tno: int) -> None:
        for k in range(plan["yields"]):
            if rec is None:
                api.CthYield()
            else:
                i = rec.begin("cth.yield", ("y", tno, k, False))
                api.CthYield()
                rec.end(i)
            counts["yields"] += 1
            op_done(pc())

    h_task = api.CmiRegisterHandler(on_task, "perfbench.task")
    h_ball = api.CmiRegisterHandler(on_ball, "perfbench.ball")
    for tno in range(N_THREADS):
        thr = api.CthCreate(body, tno)
        api.CthUseSchedulerStrategy(thr)
        api.CthAwaken(thr)
    enqueue(0)
    send_ball(0)
    api.CsdScheduler(-1)
    out["recv"] = counts["tasks"]
    return st.finish()


def check_sim_tasks(plan: dict, results: list) -> List[str]:
    res = results[0]
    errors = _common_checks(res, len(plan["children"]), None)
    counts = res["counts"]
    if counts["yields"] != N_THREADS * plan["yields"]:
        errors.append(f"{counts['yields']} Cth yields, want "
                      f"{N_THREADS * plan['yields']}")
    if counts["balls"] != plan["bounces"]:
        errors.append(f"{counts['balls']} ball deliveries, want {plan['bounces']}")
    return errors


# ======================================================================
# repetition runners
# ======================================================================

class CpuSampler:
    """Samples this process's CPU time every 20 milliseconds so the mp
    window (whose bounds the workers stamp) can be cut out of it.  Uses
    ``time.sleep`` and no locks: it runs while the mp layer forks."""

    def __init__(self, period: float = 0.02) -> None:
        self.period = period
        self.samples: List[tuple] = []
        self._stop = False
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop:
            self.samples.append((pc(), _cpu_self()))
            time.sleep(self.period)

    def __enter__(self) -> "CpuSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop = True
        self._thread.join()
        self.samples.append((pc(), _cpu_self()))

    def at(self, t: float) -> float:
        """This process's CPU seconds at time ``t``, interpolated."""
        s = self.samples
        lo, hi = 0, len(s) - 1
        if t <= s[0][0]:
            return s[0][1]
        if t >= s[hi][0]:
            return s[hi][1]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if s[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        (t0, c0), (t1, c1) = s[lo], s[hi]
        return c0 + (c1 - c0) * (t - t0) / (t1 - t0)


def _gather(rep: Rep, results: list, plan: dict) -> None:
    rep.results = results
    for res in results:
        rep.rtt_small += res["rtt_small"]
        rep.rtt_large += res["rtt_large"]
        rep.spans.append(res.get("spans", []))
        rep.queue_len_max = max(rep.queue_len_max, res.get("qmax", 0))
        rep.op_times += res["op_t"]
    rep.op_times.sort()
    rep.ops = plan["ops"]
    rep.all_ops = plan["all_ops"]
    rep.window_s = rep.win1 - rep.win0


def _rep_mp(plan: dict, traced: bool, main: Callable,
            **machine_kwargs: Any) -> Rep:
    rep = Rep()
    cpu_start = _cpu_self()
    with CpuSampler() as sampler:
        t0 = pc()
        with Machine(2, machine_backend="mp", **machine_kwargs) as m:
            t_built = pc()
            m.launch(main, plan, traced)
            m.run()
            results = m.results()
            forwarded = sum(h["forwarded"] for h in m.health().values())
            t_sd = pc()
        t_exit = pc()
    pe0 = results[0]
    rep.win0, rep.win1 = pe0["win0"], pe0["win1"]
    _gather(rep, results, plan)
    rep.setup_s = rep.win0 - t0
    rep.teardown_s = t_exit - rep.win1
    worker_window_cpu = sum(r["cpu1"] - r["cpu0"] for r in results)
    rep.cpu_s = sampler.at(rep.win1) - sampler.at(rep.win0) + worker_window_cpu
    rep.rss_mb = _rss_self_mb() + sum(r["rss_mb"] for r in results)
    rep.construct_s = t_built - t0
    rep.start_s = rep.win0 - t_built
    rep.shutdown_s = t_exit - t_sd
    rep.worker_cpu_s = sum(m.worker_cpu_seconds().values())
    rep.driver_cpu_s = _cpu_self() - cpu_start
    stats = m.fault_plan.stats if m.fault_plan is not None else None
    if stats is not None:
        rep.frames = stats.packets
        rep.faults = {"drops": stats.drops, "duplicates": stats.duplicates,
                      "corruptions": stats.corruptions}
    else:
        rep.frames = forwarded
    rep.messages = forwarded if stats is None else plan["messages"]
    return rep


def rep_mp_pingpong(plan: dict, traced: bool) -> Rep:
    return _rep_mp(plan, traced, pingpong_main)


def rep_mp_faulty(plan: dict, traced: bool) -> Rep:
    return _rep_mp(plan, traced, faulty_main,
                   faults=FaultPlan(plan["fault_seed"], **FAULT_RATES),
                   reliable=True)


def _rep_sim(plan: dict, traced: bool, main: Callable, num_pes: int,
             **machine_kwargs: Any) -> Rep:
    rep = Rep()
    shared = {"delivered": 0, "win0": None, "win1": None,
              "cpu0": None, "cpu1": None, "op_t": []}
    t0 = pc()
    with Machine(num_pes, **machine_kwargs) as m:
        t_built = pc()
        m.launch(main, plan, traced, shared)
        m.run()
        results = m.results()
        rep.virtual_end = m.now
        t_sd = pc()
    t_exit = pc()
    rep.win0, rep.win1 = shared["win0"], shared["win1"]
    _gather(rep, results, plan)
    rep.op_times = shared["op_t"]
    rep.setup_s = rep.win0 - t0
    rep.teardown_s = t_exit - rep.win1
    rep.cpu_s = shared["cpu1"] - shared["cpu0"]
    rep.rss_mb = _rss_self_mb()
    rep.construct_s = t_built - t0
    rep.start_s = rep.win0 - t_built
    rep.shutdown_s = t_exit - t_sd
    rep.frames = rep.messages = plan["messages"]
    return rep


def rep_sim_stream(plan: dict, traced: bool) -> Rep:
    return _rep_sim(plan, traced, stream_main, SIM_STREAM_PES)


def rep_sim_tasks(plan: dict, traced: bool) -> Rep:
    return _rep_sim(plan, traced, tasks_main, 1, queue="int")


@dataclass(frozen=True)
class Workload:
    name: str
    #: the machine layer it runs on, "mp" or "sim".
    layer: str
    plan: Callable[..., dict]
    rep: Callable[[dict, bool], Rep]
    check: Callable[[dict, list], List[str]]
    #: timed ops per throughput block: a few size-schedule cycles, some
    #: tens of milliseconds; ``None`` where the op rate has phases (the
    #: task tree, then the ball alone), so only whole windows compare.
    block: Optional[int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("mp_pingpong", "mp", plan_mp_pingpong, rep_mp_pingpong,
                 check_mp_pingpong, 448),
        Workload("mp_faulty", "mp", plan_mp_faulty, rep_mp_faulty,
                 check_mp_faulty, 128),
        Workload("sim_stream", "sim", plan_sim_stream, rep_sim_stream,
                 check_sim_stream, 384),
        Workload("sim_tasks", "sim", plan_sim_tasks, rep_sim_tasks,
                 check_sim_tasks, None),
    )
}

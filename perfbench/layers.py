"""Per-layer metrics of one workload, from its traced and untraced
repetitions.

Span names and the layer each belongs to:

* ``cmi.new``     -- ``CmiNew``: CMI (message and pool).
* ``cmi.send``    -- ``CmiSyncSend``: CMI+sim on the simulator, where the
  send's charge hands the baton to the engine, so other PEs' handlers
  run inside it and its self time holds the engine and tasklet-switch
  cost; on mp, the mp layer (pickle and socket write on top of CMI).
* ``csd.enqueue`` -- ``CsdEnqueue``: Csd.
* ``cth.yield``   -- ``CthYield``: Cth; its self time leaves out the
  handlers that run while the thread is suspended.
* ``app.handler`` -- the benchmark's handler bodies, minus the calls
  above made from inside them.

Waits join a span on one side to the handler entry of the same op:
Csd from ``CsdEnqueue`` return, sim from ``CmiSyncSend`` return (same
process), mp from ``CmiSyncSend`` return on the sender to the handler
entry on the receiver (``perf_counter`` is CLOCK_MONOTONIC, shared by
the processes of one host).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from perfbench.spans import (END, NAME, START, LayerTable, in_window,
                             join_waits, med, self_times, union_length)
from perfbench.workloads import Rep

PER_LAYER = (
    "cmi.new_us", "cmi.send_us", "cmi.sends",
    "csd.enqueue_us", "csd.wait_us", "csd.queue_len_max",
    "cth.yield_self_us", "cth.yields",
    "sim.deliver_us", "sim.virtual_us_per_op",
    "mp.send_us", "mp.oneway_us", "mp.oneway_large_us", "mp.inflight_us",
    "mp.construct_s", "mp.start_s", "mp.shutdown_s",
    "mp.worker_cpu_us_per_op", "mp.driver_cpu_us_per_op",
    "rel.frames_per_op", "rel.useful_frac",
    "rel.drops", "rel.duplicates", "rel.corruptions",
    "app.handler_us", "layers.leftover_frac", "trace.overhead_frac",
)

#: the per-layer metrics that every workload measures; these go into the
#: JSON result of a traced run and ``BENCHMARK.json``.  The rest are
#: printed and written with the spans: each of them is 0 on every run of
#: the workloads that do not exercise its layer (the mp metrics on the
#: simulator, Cth outside ``sim_tasks``), so it says nothing there.
COMMON = (
    "cmi.new_us", "cmi.send_us", "cmi.sends", "app.handler_us",
    "rel.frames_per_op", "rel.useful_frac",
    "layers.leftover_frac", "trace.overhead_frac",
)

_LAYER = {"cmi.new": "CMI", "csd.enqueue": "Csd", "cth.yield": "Cth",
          "app.handler": "app"}


def _us(values: Sequence[float]) -> float:
    return med(values) * 1e6


def analyse(machine_layer: str, traced: Sequence[Rep],
            untraced: Sequence[Rep]) -> tuple:
    """Returns ``(metrics, table)``: every :data:`PER_LAYER` metric (0
    where the workload does not exercise the layer) and the
    :class:`LayerTable` of the traced repetitions."""
    mp = machine_layer == "mp"
    send_layer = "mp" if mp else "CMI+sim"
    table = LayerTable()
    durations: Dict[str, List[float]] = {}
    yield_self: List[float] = []
    handler_self: List[float] = []
    waits: Dict[str, List[float]] = {"Csd": [], "deliver": [],
                                     "oneway": [], "oneway_large": []}
    for rep in traced:
        w0, w1 = rep.win0, rep.win1
        table.ops += rep.ops
        table.window += w1 - w0
        procs = [in_window(spans, w0, w1) for spans in rep.spans]
        flat = [s for spans in procs for s in spans]
        if not mp:
            # Every sim PE runs in the main process, one at a time.
            procs = [flat]
        uncovered = 0.0
        for spans in procs:
            own, unc = self_times(spans, w0, w1)
            uncovered += unc
            for s, t in zip(spans, own):
                name = s[NAME]
                layer = send_layer if name == "cmi.send" else _LAYER[name]
                table.add_busy(layer, t)
                durations.setdefault(name, []).append(s[END] - s[START])
                if name == "cth.yield":
                    yield_self.append(t)
                elif name == "app.handler":
                    handler_self.append(t)
        for op, (t_ret, t_in) in join_waits(flat, "csd.enqueue",
                                            "app.handler").items():
            waits["Csd"].append(t_in - t_ret)
            table.add_wait("Csd", t_in - t_ret)
        sends = join_waits(flat, "cmi.send", "app.handler", START)
        inflight = []
        for op, (t_ret, t_in) in join_waits(flat, "cmi.send",
                                            "app.handler").items():
            waits["deliver"].append(t_in - t_ret)
            table.add_wait(send_layer if mp else "sim", t_in - t_ret)
            inflight.append((t_ret, t_in))
            t_start = sends[op][0]
            waits["oneway_large" if op[-1] else "oneway"].append(t_in - t_start)
        if mp:
            # Processes run in parallel: coverage is the union of every
            # span on every PE and every frame in flight between them.
            table.covered += union_length(
                [(s[START], s[END]) for s in flat] + inflight)
        else:
            table.covered += (w1 - w0) - uncovered
    count = {name: len(v) for name, v in durations.items()}
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "cmi.new_us": _us(durations.get("cmi.new", [])),
        "cmi.send_us": _us(durations.get("cmi.send", [])),
        "cmi.sends": count.get("cmi.send", 0),
        "csd.enqueue_us": _us(durations.get("csd.enqueue", [])),
        "csd.wait_us": _us(waits["Csd"]),
        "csd.queue_len_max": max((r.queue_len_max for r in traced), default=0),
        "cth.yield_self_us": _us(yield_self),
        "cth.yields": count.get("cth.yield", 0),
        "app.handler_us": _us(handler_self),
        "layers.leftover_frac": table.leftover_frac,
    })
    runs = list(untraced) or list(traced)
    metrics["rel.frames_per_op"] = med([r.frames / r.all_ops for r in runs])
    metrics["rel.useful_frac"] = med([r.messages / r.frames for r in runs])
    for key in ("drops", "duplicates", "corruptions"):
        metrics["rel." + key] = sum(r.faults.get(key, 0) for r in runs)
    if mp:
        metrics.update({
            "mp.send_us": metrics["cmi.send_us"],
            "mp.oneway_us": _us(waits["oneway"]),
            "mp.oneway_large_us": _us(waits["oneway_large"]),
            "mp.inflight_us": _us(waits["deliver"]),
            "mp.construct_s": med([r.construct_s for r in runs]),
            "mp.start_s": med([r.start_s for r in runs]),
            "mp.shutdown_s": med([r.shutdown_s for r in runs]),
            "mp.worker_cpu_us_per_op":
                med([r.worker_cpu_s / r.all_ops for r in runs]) * 1e6,
            "mp.driver_cpu_us_per_op":
                med([r.driver_cpu_s / r.all_ops for r in runs]) * 1e6,
        })
    else:
        metrics["sim.deliver_us"] = _us(waits["deliver"])
        metrics["sim.virtual_us_per_op"] = med(
            [r.virtual_end / r.all_ops for r in runs]) * 1e6
    return metrics, table

"""In-memory spans recorded by the benchmark around its calls into the
runtime, and the per-layer accounting derived from them.

A span is ``[name, start, end, parent, op, tid]``: ``start``/``end`` are
``time.perf_counter()`` readings (CLOCK_MONOTONIC, comparable across
the processes of one host), ``parent`` is the index of the innermost
span open on the same OS thread when this one began (``-1`` for none),
``op`` identifies the operation the span served, and ``tid`` is the
thread of control.  Spans live in a list until the run ends; nothing is
written while the workload runs.
"""

from __future__ import annotations

import threading
from statistics import median
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple

NAME, START, END, PARENT, OP, TID = range(6)


class Recorder:
    """Span list for one process.  Only the traced run builds one; the
    untraced run passes ``None`` and skips every span call."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stacks: Dict[int, List[int]] = {}
        #: largest ``CsdQueueLength`` sampled at handler entry.
        self.queue_len_max = 0

    def begin(self, name: str, op: object = None) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, op, tid])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        self._stacks[span[TID]].pop()


def in_window(spans: Iterable[list], t0: float, t1: float) -> List[list]:
    """The spans that lie wholly inside ``[t0, t1]``."""
    return [s for s in spans if s[START] >= t0 and s[END] <= t1]


def self_times(spans: Sequence[list], t0: float, t1: float
               ) -> Tuple[List[float], float]:
    """Split ``[t0, t1]`` of one process among its spans.

    Walks the start/end events of ``spans`` (all inside the window) in
    time order and gives each gap between two events to exactly one
    span, or to nobody:

    * a gap that ends at a span's end belongs to that span (it was
      running until it returned);
    * a gap after a span's start belongs to that span (it called out and
      control has not reappeared anywhere observable yet);
    * a gap after a span's end belongs to the innermost span still open
      on the same thread, else to the most recently started span still
      open on any thread (a Cth thread suspended inside ``CthYield``
      while the scheduler thread runs between handlers), else to nobody.

    Returns each span's self time (indexed like ``spans``) and the
    uncovered time.  The self times plus the uncovered time equal the
    window, so the per-layer table reconciles exactly on one process.
    """
    events = []
    for i, s in enumerate(spans):
        events.append((s[START], 1, i))
        events.append((s[END], 0, i))
    events.sort()
    own = [0.0] * len(spans)
    uncovered = 0.0
    stacks: Dict[int, List[int]] = {}
    open_order: List[int] = []
    prev_t, prev_kind, prev_i = t0, None, -1

    def owner_after_end(i: int) -> int:
        stack = stacks.get(spans[i][TID])
        if stack:
            return stack[-1]
        return open_order[-1] if open_order else -1

    for t, kind, i in events:
        gap = t - prev_t
        if kind == 0:
            who = i
        elif prev_kind == 1:
            who = prev_i
        elif prev_kind == 0:
            who = owner_after_end(prev_i)
        else:
            who = -1
        if who >= 0:
            own[who] += gap
        else:
            uncovered += gap
        stack = stacks.setdefault(spans[i][TID], [])
        if kind == 1:
            stack.append(i)
            open_order.append(i)
        else:
            if i in stack:
                stack.remove(i)
            open_order.remove(i)
        prev_t, prev_kind, prev_i = t, kind, i
    tail = t1 - prev_t
    who = (prev_i if prev_kind == 1 else
           owner_after_end(prev_i) if prev_kind == 0 else -1)
    if who >= 0:
        own[who] += tail
    else:
        uncovered += tail
    return own, uncovered


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def med(values: Sequence[float], default: float = 0.0) -> float:
    """Median, or ``default`` for an empty sample."""
    return median(values) if values else default


class LayerTable:
    """Per-layer totals over the traced repetitions of one workload.

    ``busy`` holds self time per layer, ``wait`` time operations spent
    waiting between layers (enqueue to handler, send to handler), both
    in seconds summed over the traced windows; ``count`` holds spans or
    waits per layer.  ``window`` and ``covered`` sum the traced windows
    and the part of them some span or cross-process wait covers.
    """

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}
        self.wait: Dict[str, float] = {}
        self.count: Dict[str, int] = {}
        self.ops = 0
        self.window = 0.0
        self.covered = 0.0

    def add_busy(self, layer: str, seconds: float) -> None:
        self.busy[layer] = self.busy.get(layer, 0.0) + seconds
        self.count[layer] = self.count.get(layer, 0) + 1

    def add_wait(self, layer: str, seconds: float) -> None:
        self.wait[layer] = self.wait.get(layer, 0.0) + seconds
        self.count.setdefault(layer, 0)

    @property
    def leftover_frac(self) -> float:
        return 1.0 - self.covered / self.window if self.window else 0.0

    def render(self, title: str) -> str:
        per = 1e6 / self.ops if self.ops else 0.0
        wall = self.window * per
        lines = [f"{title}: per-layer table ({self.ops} ops, "
                 f"{wall:.2f} us wall per op)",
                 f"  {'layer':<10}{'count':>10}{'self us/op':>12}"
                 f"{'wait us/op':>12}"]
        for layer in sorted(set(self.busy) | set(self.wait)):
            lines.append(
                f"  {layer:<10}{self.count.get(layer, 0):>10}"
                f"{self.busy.get(layer, 0.0) * per:>12.2f}"
                f"{self.wait.get(layer, 0.0) * per:>12.2f}")
        lines.append(f"  {'leftover':<10}{'':>10}"
                     f"{(self.window - self.covered) * per:>12.2f}"
                     f"{'':>12}  ({self.leftover_frac:.1%} of wall)")
        return "\n".join(lines)


def join_waits(spans: Sequence[list], from_name: str, to_name: str,
               from_field: int = END) -> Dict[object, Tuple[float, float]]:
    """Pair each ``from_name`` span with the first ``to_name`` span of
    the same op id: returns ``{op: (from time, to start)}``."""
    first_to: Dict[object, float] = {}
    for s in spans:
        if s[NAME] == to_name and s[OP] is not None and s[OP] not in first_to:
            first_to[s[OP]] = s[START]
    out: Dict[object, Tuple[float, float]] = {}
    for s in spans:
        if s[NAME] == from_name and s[OP] in first_to and s[OP] not in out:
            out[s[OP]] = (s[from_field], first_to[s[OP]])
    return out

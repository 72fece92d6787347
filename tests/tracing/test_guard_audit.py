"""Static audit: every hot-path trace/metric call in src/ is guarded.

The need-based-cost discipline requires that with tracing and metering
off, instrumented hot paths cost one flag test — so every
``trace_event(...)`` call and every metric-handle update
(``.inc(`` / ``.observe(`` / ``.set(`` on an ``_mx_*`` handle) must sit
inside an ``if ...tracing:`` / ``if ...metering:`` guard (or a helper
only ever called under one).  This test walks the source and fails,
naming the file:line, if an unguarded site appears — a tripwire for
future instrumentation.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: a guard line: the flag test protecting the instrumentation below it.
GUARD_RE = re.compile(
    r"\bif\b.*(\btracing\b|\bmetering\b|_mx_\w+\s+is\s+not\s+None"
    r"|_ft_\w+\s+is\s+not\s+None)"
)

#: transparent wrappers: walking out of one of these keeps looking for
#: the guard one level further up.
TRANSPARENT_RE = re.compile(
    r"^\s*(try:|finally:|else:|elif\b|except\b|for\b|while\b|with\b|if\b)"
)

#: helper methods whose *callers* hold the guard; their bodies are the
#: guarded slow path, so a ``def`` line for one of these counts as a
#: guard.  Keep this list short and audited.
GUARDED_HELPERS = (
    "_note_enqueued",     # scheduler: called under `if rt.metering:`
    "_meter_send",        # cmi: called under `if self.runtime.metering:`
    "trace_event",        # the sink itself (guards live at call sites)
)

#: metric-handle update on a cached handle, e.g. `self._mx_sends.inc(`.
METRIC_CALL_RE = re.compile(r"_mx_\w+\.(inc|observe|set)\(")
TRACE_CALL_RE = re.compile(r"\btrace_event\(")


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _is_guarded(lines: list, idx: int) -> bool:
    """Walk enclosing statements upward from ``lines[idx]`` until a guard
    (or a guarded-helper ``def``) is found; any other enclosing
    non-transparent statement means the call is unguarded."""
    level = _indent(lines[idx])
    for i in range(idx - 1, -1, -1):
        line = lines[i]
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        ind = _indent(line)
        if ind >= level:
            continue
        # the closest enclosing statement at a shallower indent
        if GUARD_RE.search(line):
            return True
        stripped = line.strip()
        if stripped.startswith("def ") and any(
                f"def {h}(" in stripped for h in GUARDED_HELPERS):
            return True
        if TRANSPARENT_RE.match(line):
            level = ind
            continue
        return False
    return False


def _audit(pattern: re.Pattern) -> list:
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "registry.py" and path.parent.name == "metrics":
            continue  # the metric classes themselves, not call sites
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if not pattern.search(line):
                continue
            if re.match(r"\s*def\s", line) or line.lstrip().startswith("#"):
                continue
            if not _is_guarded(lines, idx):
                offenders.append(f"{path.relative_to(SRC)}:{idx + 1}: "
                                 f"{line.strip()}")
    return offenders


def test_all_trace_event_calls_guarded():
    offenders = _audit(TRACE_CALL_RE)
    assert not offenders, (
        "unguarded trace_event call sites (wrap in `if ...tracing:`):\n"
        + "\n".join(offenders)
    )


def test_all_metric_updates_guarded():
    offenders = _audit(METRIC_CALL_RE)
    assert not offenders, (
        "unguarded metric updates (wrap in `if ...metering:` or "
        "`if self._mx_x is not None:`):\n" + "\n".join(offenders)
    )


#: use of a fault-tolerance hook on the reliable layer (`_ft_log` /
#: `_ft_giveup`): with ft off both are None, so every call site must
#: hide behind an `is not None` test — the ft analogue of the
#: tracing/metering discipline.
FT_HOOK_RE = re.compile(r"_ft_(log|giveup)\.?\w*\(")
FT_GUARD_INLINE_RE = re.compile(r"_ft_\w+\s+is\s+(not\s+)?None")


def test_all_ft_hook_sites_guarded():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent.name == "ft":
            continue  # the ft layer itself owns (and installs) the hooks
        lines = path.read_text().splitlines()
        for idx, line in enumerate(lines):
            if not FT_HOOK_RE.search(line):
                continue
            if line.lstrip().startswith("#"):
                continue
            if FT_GUARD_INLINE_RE.search(line):
                continue  # one-line conditional guard on the same line
            if not _is_guarded(lines, idx):
                offenders.append(f"{path.relative_to(SRC)}:{idx + 1}: "
                                 f"{line.strip()}")
    assert not offenders, (
        "unguarded ft-hook call sites (wrap in `if self._ft_x is not "
        "None:`):\n" + "\n".join(offenders)
    )


def test_audit_detects_unguarded_code():
    """Self-test: the walker must flag a bare call and accept a guarded
    one, so a silent weakening of the audit shows up here."""
    bare = [
        "class C:",
        "    def f(self):",
        "        self.trace_event('x')",
    ]
    assert not _is_guarded(bare, 2)
    guarded = [
        "class C:",
        "    def f(self):",
        "        if self.tracing:",
        "            self.trace_event('x')",
    ]
    assert _is_guarded(guarded, 3)
    nested = [
        "class C:",
        "    def f(self):",
        "        if rt.tracing:",
        "            try:",
        "                pass",
        "            finally:",
        "                rt.trace_event('x')",
    ]
    assert _is_guarded(nested, 6)


# ----------------------------------------------------------------------
# speed-layer extension: the raw-speed fast paths (pooled allocation,
# batched dispatch, the uninstrumented invoke variant) must contain NO
# instrumentation call sites at all — guarded or not.  Instrumented
# runtimes bind the slow-path variants instead, so a trace/metric call
# appearing in one of these bodies would be dead weight on every
# message of every untraced run.
# ----------------------------------------------------------------------
import inspect


def _body_calls(obj) -> list:
    """Instrumentation call sites in ``obj``'s source (file:line tags)."""
    src = inspect.getsource(obj)
    hits = []
    for off, line in enumerate(src.splitlines()):
        if METRIC_CALL_RE.search(line) or TRACE_CALL_RE.search(line) \
                or re.search(r"\b_ft_\w+\s*\.", line):
            hits.append(f"{obj.__qualname__}+{off}: {line.strip()}")
    return hits


def test_fast_paths_are_instrumentation_free():
    from repro.core.pool import MessagePool
    from repro.core.runtime import ConverseRuntime
    from repro.core.scheduler import CsdScheduler

    offenders = []
    for obj in (
        ConverseRuntime.invoke_handler,            # fast variant (class-level)
        ConverseRuntime.deliver_from_network,
        MessagePool,                       # the whole free list
        CsdScheduler._dispatch_batch,
        CsdScheduler.run_until_idle,
        CsdScheduler.poll,
        CsdScheduler._drain_delegated,     # inline-dispatch drain
    ):
        offenders += _body_calls(obj)
    assert not offenders, "\n".join(offenders)


def test_instrumented_variant_still_guards_every_site():
    """The slow-path twin keeps its calls, each under a flag guard (the
    file-level audit above covers this too; this pins the pairing)."""
    from repro.core.runtime import ConverseRuntime

    src = inspect.getsource(ConverseRuntime._invoke_handler_instrumented)
    assert TRACE_CALL_RE.search(src) and METRIC_CALL_RE.search(src)
    lines = src.splitlines()
    for idx, line in enumerate(lines):
        if TRACE_CALL_RE.search(line) or METRIC_CALL_RE.search(line):
            assert _is_guarded(lines, idx), f"unguarded: {line.strip()}"


# ----------------------------------------------------------------------
# mp-hub extension: fault injection and crash/respawn ride the hub's
# routing path via a *bound-at-construction* router (`_route`), the same
# bind-the-variant discipline as the instrumented/fast runtime twins.
# With faults off, the per-frame path is `_forward` — it must contain no
# fault branch, no delayed-frame bookkeeping, and no allocation beyond
# the frame itself.
# ----------------------------------------------------------------------


def test_mp_fault_free_forward_has_no_fault_hooks():
    from repro.machine.mp import MpMachine

    src = inspect.getsource(MpMachine._forward)
    for marker in ("fault", "decide", "_delayed", "Timer", "corrupt",
                   "_down"):
        assert marker not in src, (
            f"fault-machinery reference {marker!r} leaked into the "
            f"fault-free per-frame router:\n{src}"
        )
    assert not _body_calls(MpMachine._forward)
    # The faulty twin exists and is where that machinery lives.
    faulty = inspect.getsource(MpMachine._forward_faulty)
    assert "decide" in faulty and "_delayed" in faulty


def test_mp_hub_forwarding_never_touches_pickle():
    """Data frames cross the hub as opaque bodies: no routing step may
    decode or re-encode a payload."""
    from repro.machine.mp import MpMachine

    for fn in (MpMachine._forward, MpMachine._forward_faulty,
               MpMachine._deliver_delayed, MpMachine._push_frame):
        src = inspect.getsource(fn)
        assert "pickle" not in src, (
            f"{fn.__qualname__} references pickle:\n{src}"
        )


def test_mp_route_binding_picks_variant_at_construction():
    import pytest

    from repro.machine.base import (
        machine_backend_available,
        machine_backend_unavailable_reason,
    )

    if not machine_backend_available("mp"):
        pytest.skip("mp layer unavailable: "
                    + machine_backend_unavailable_reason("mp"))

    from repro.machine.mp import MpMachine
    from repro.sim.machine import Machine
    from repro.sim.network import FaultPlan

    m = Machine(2, machine_backend="mp")
    try:
        assert m._route.__func__ is MpMachine._forward
    finally:
        m.shutdown()

    m = Machine(2, machine_backend="mp", faults=FaultPlan(seed=0, drop=0.1),
                reliable=True)
    try:
        assert m._route.__func__ is MpMachine._forward_faulty
    finally:
        m.shutdown()

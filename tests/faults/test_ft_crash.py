"""Crash-fault seed sweep: the fuzz harness extended with whole-PE
crashes (tentpole acceptance + the ``make fuzz`` satellite).

Every seed names one deterministic hostile schedule — link faults (drop
+ duplication) *and* one mid-run PE crash whose time is derived from the
seed, so the sweep covers crashes in the cold-start region, mid-run, and
near the natural end of the workload.  The recovery protocol must give
results identical to the fault-free run, and the whole failure/recovery
sequence must replay byte-identically for the same seed.
"""

from __future__ import annotations

import pytest

from repro.sim.machine import Machine
from tests.faults.conftest import MP_TIMEOUT
from tests.faults.harness import (
    crashy_plan,
    run_ft_all2all,
    run_ft_pingpong,
    trace_bytes,
)
from tests.faults import workers_mp


def _crash_at(seed: int) -> float:
    """A seed-derived crash time spread over [80us, 1.3ms] — early
    crashes hit the pre-first-checkpoint (cold recovery) window, late
    ones land after most traffic has drained."""
    return (80 + 97 * (seed % 13)) * 1e-6


def _mp_crash_at(seed: int) -> float:
    """The mp twin of :func:`_crash_at`: CrashSpec times on the mp layer
    are wall-clock seconds from the start of run(), so the sweep spreads
    real SIGKILLs over [60ms, 180ms] of a ~quarter-second workload."""
    return 0.06 + 0.04 * (seed % 4)


def _recoveries(metrics: dict) -> float:
    return metrics["ft.recoveries"]["total"]


def _run_mp_ft(num_pes, fn, *args, faults):
    """One mp machine run with faults + reliable + ft; returns
    ``(reason, results, metrics)`` (metrics merge at shutdown)."""
    from repro.ft.config import FTConfig

    m = Machine(num_pes, machine_backend="mp", faults=faults, reliable=True,
                ft=FTConfig(), metrics=True, timeout=MP_TIMEOUT)
    try:
        m.launch(fn, *args)
        reason = m.run()
        results = m.results()
    finally:
        m.shutdown()
    return reason, results, m.metrics_snapshot()


def test_ft_pingpong_survives_crash(fault_seed, sim_backend, machine_backend):
    if machine_backend == "mp":
        plan = crashy_plan(fault_seed, crash_pe=1,
                           crash_at=_mp_crash_at(fault_seed),
                           restart_after=0.05)
        rounds = 30
        reason, res, met = _run_mp_ft(
            2, workers_mp.w_ft_pingpong, rounds, 8, 0.003, faults=plan)
        assert reason == "quiescent"
        # Fault-free-identical recovery: the exact fault-free sequences.
        assert res[0] == list(range(1, 2 * rounds, 2))
        assert res[1] == list(range(0, 2 * rounds, 2))
        assert _recoveries(met) == 1
        return
    plan = crashy_plan(fault_seed, crash_pe=1, crash_at=_crash_at(fault_seed))
    r = run_ft_pingpong(rounds=30, faults=plan, backend=sim_backend)
    assert r["reason"] == "quiescent"
    assert r["recv"] == r["expected"]
    assert _recoveries(r["metrics"]) == 1


def test_ft_all2all_survives_crash(fault_seed, sim_backend, machine_backend):
    if machine_backend == "mp":
        crash_pe = fault_seed % 4
        plan = crashy_plan(fault_seed, crash_pe=crash_pe,
                           crash_at=_mp_crash_at(fault_seed),
                           restart_after=0.05)
        count = 8
        reason, res, met = _run_mp_ft(
            4, workers_mp.w_ft_all2all, count, 6, 0.004, faults=plan)
        assert reason == "quiescent"
        # Delivery multiset equality under reliable: every PE holds
        # exactly 0..count-1 from every other PE, per-sender FIFO.
        for pe in range(4):
            expected = {src: list(range(count)) for src in range(4)
                        if src != pe}
            got = {int(src): v for src, v in res[pe].items()}
            assert got == expected, f"PE {pe}: {got}"
        assert _recoveries(met) == 1
        return
    crash_pe = fault_seed % 4
    plan = crashy_plan(fault_seed, crash_pe=crash_pe,
                       crash_at=_crash_at(fault_seed))
    r = run_ft_all2all(num_pes=4, count=5, faults=plan, backend=sim_backend)
    assert r["reason"] == "quiescent"
    assert r["recv"] == r["expected"]
    assert _recoveries(r["metrics"]) == 1


def test_ft_pingpong_survives_permanent_detection_window(fault_seed):
    """A crash with no restart: peers must *detect* the failure (fire
    the down verdict) and the machine must still drain to quiescence
    rather than retransmitting into the dead PE forever."""
    plan = crashy_plan(fault_seed, crash_pe=1,
                       crash_at=_crash_at(fault_seed), restart_after=None)
    r = run_ft_pingpong(rounds=30, faults=plan)
    assert r["reason"] == "quiescent"
    assert r["metrics"]["ft.failures_detected"]["total"] >= 1
    assert _recoveries(r["metrics"]) == 0
    # The survivor observed a correct prefix of the fault-free sequence.
    survivor = r["recv"][0]
    assert survivor == r["expected"][0][:len(survivor)]


@pytest.mark.parametrize("seed", range(5))
def test_crash_recovery_trace_deterministic(seed):
    """Same seed -> byte-identical trace through the whole crash,
    detection and recovery sequence (satellite: crash-fault determinism
    in the fuzz harness)."""
    plan_a = crashy_plan(seed, crash_pe=1, crash_at=_crash_at(seed))
    plan_b = crashy_plan(seed, crash_pe=1, crash_at=_crash_at(seed))
    a = run_ft_pingpong(rounds=12, faults=plan_a, trace=True)
    b = run_ft_pingpong(rounds=12, faults=plan_b, trace=True)
    assert trace_bytes(a["tracer"]) == trace_bytes(b["tracer"])


@pytest.mark.parametrize("seed", range(3))
def test_ft_trace_records_failure_and_recovery(seed):
    plan = crashy_plan(seed, crash_pe=1, crash_at=_crash_at(seed))
    r = run_ft_pingpong(rounds=12, faults=plan, trace="memory")
    kinds = {e.kind for e in r["tracer"].events}
    assert "ft_failure" in kinds
    assert "ft_recover" in kinds
    assert "ft_checkpoint" in kinds

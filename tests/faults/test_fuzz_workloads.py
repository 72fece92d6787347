"""The schedule-fuzzing seed sweep (tentpole part 4).

Every test takes a ``fault_seed`` parameter which ``conftest.py``
parametrizes over ``range(--seeds)`` (default 25).  Each seed drives a
hostile network — drop 0.2, plus duplication, delay, reorder and
corruption — under which the reliability layer must still give every
workload exactly-once, per-sender-FIFO delivery and correct quiescence.

The sweep also runs per machine layer: the simulator legs keep their
full-determinism assertions; the mp legs (reduced seed count, see
``conftest.MP_SWEEP_SEEDS``) run the same workloads over real sockets
with the hub injecting the same seeded fault plan, asserting the
delivery and conservation invariants.
"""

from __future__ import annotations

import pytest

from repro.sim.machine import Machine
from tests.faults.conftest import MP_TIMEOUT
from tests.faults.harness import (
    hostile_plan,
    run_broadcast,
    run_pingpong,
    run_quiescence,
    trace_bytes,
)
from tests.faults import workers_mp


def _run_mp(num_pes, fn, *args, **kwargs):
    kwargs.setdefault("timeout", MP_TIMEOUT)
    m = Machine(num_pes, machine_backend="mp", reliable=True, **kwargs)
    try:
        m.launch(fn, *args)
        reason = m.run()
        return reason, m.results()
    finally:
        m.shutdown()


def test_pingpong_exactly_once(fault_seed, sim_backend, machine_backend):
    if machine_backend == "mp":
        reason, res = _run_mp(2, workers_mp.w_fuzz_pingpong, 8,
                              faults=hostile_plan(fault_seed))
        assert reason == "quiescent"
        assert res[0] == list(range(1, 16, 2))
        assert res[1] == list(range(0, 16, 2))
        return
    r = run_pingpong(rounds=8, faults=hostile_plan(fault_seed),
                     reliable=True, backend=sim_backend)
    assert r["reason"] == "quiescent"
    assert r["recv"] == r["expected"]
    # the protocol must fully drain: nothing left awaiting an ack
    stats = r["rel_stats"]
    assert stats[0].delivered + stats[1].delivered == 16


def test_broadcast_exactly_once_in_order(fault_seed, sim_backend,
                                         machine_backend):
    if machine_backend == "mp":
        reason, res = _run_mp(4, workers_mp.w_fuzz_broadcast, 6,
                              faults=hostile_plan(fault_seed))
        assert reason == "quiescent"
        for pe in range(1, 4):
            assert res[pe] == list(range(6)), f"PE {pe}: {res[pe]}"
        return
    r = run_broadcast(num_pes=4, count=6, faults=hostile_plan(fault_seed),
                      reliable=True, backend=sim_backend)
    assert r["reason"] == "quiescent"
    for pe in range(1, 4):
        assert r["recv"][pe] == r["expected"], f"PE {pe}: {r['recv'][pe]}"


def test_quiescence_correct_under_faults(fault_seed, sim_backend,
                                         machine_backend):
    if machine_backend == "mp":
        # Machine-wide conservation: the relay tally across all real
        # processes must equal the exactly-once total — a drop leaves it
        # short, a duplicate overshoots.
        reason, res = _run_mp(4, workers_mp.w_fuzz_relay, 2, 4,
                              faults=hostile_plan(fault_seed))
        assert reason == "quiescent"
        assert sum(res) == 4 * 2 * (4 + 1), res
        return
    r = run_quiescence(num_pes=4, seeds_per_pe=2, ttl=4,
                       faults=hostile_plan(fault_seed), reliable=True,
                       backend=sim_backend)
    assert r["reason"] == "quiescent"
    assert r["total_handled"] == r["expected_total"], r["handled"]
    assert r["declared"] == 1


@pytest.mark.parametrize("seed", range(5))
def test_pingpong_trace_identical_for_same_seed(seed):
    """Same seed -> byte-identical trace (full determinism, not just the
    same answers).  A fixed handful of seeds keeps the sweep quick."""
    a = run_pingpong(rounds=6, faults=hostile_plan(seed),
                     reliable=True, trace=True)
    b = run_pingpong(rounds=6, faults=hostile_plan(seed),
                     reliable=True, trace=True)
    assert trace_bytes(a["tracer"]) == trace_bytes(b["tracer"])

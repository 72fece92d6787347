"""Seed-sweep plumbing for the schedule-fuzzing harness.

Any test in this package taking a ``fault_seed`` argument is parametrized
over ``range(--seeds)`` (default ``DEFAULT_SEEDS``; the option lives in
``tests/conftest.py``).  Each seed names one fully deterministic hostile
schedule: to reproduce a CI failure locally, run the failing test id —
the seed in its parametrized name is the entire repro.

Tests taking a ``sim_backend`` argument are additionally parametrized
over every *installed* tasklet switch backend (always ``thread``; also
``greenlet`` when the ``repro[fast]`` extra is present), so the whole
hostile sweep doubles as a cross-backend equivalence check.

Tests taking a ``machine_backend`` argument run once per *registered*
machine layer (unavailable layers appear as explicit skips, never as a
silently shrinking matrix).  With ``--seeds`` left at its default the
mp legs run a reduced seed sweep (``MP_SWEEP_SEEDS`` — real processes
per run); an explicit ``--seeds`` applies to them too.  They assert
delivery / conservation / recovery *invariants* rather than the
simulator's byte-identical traces: real sockets and real SIGKILLs do
not replay deterministically.
"""

from __future__ import annotations

import pytest

from repro.machine.base import (
    MACHINE_LAYERS,
    machine_backend_unavailable_reason,
)
from repro.sim.switching import available_backends

#: sweep size when ``--seeds`` is not given.
DEFAULT_SEEDS = 25

#: how many of the default sweep's seeds the mp legs run (each is a full
#: multi-process machine boot).
MP_SWEEP_SEEDS = 3

#: wall-clock ceiling per mp run — hitting it means a hang, not a slow
#: machine.
MP_TIMEOUT = 120.0


def _machine_backend_params():
    params = []
    for name in MACHINE_LAYERS:
        reason = machine_backend_unavailable_reason(name)
        marks = (
            [pytest.mark.skip(
                reason=f"machine layer {name!r} unavailable: {reason}")]
            if reason else []
        )
        params.append(pytest.param(name, marks=marks, id=name))
    return params


def pytest_generate_tests(metafunc):
    if "fault_seed" in metafunc.fixturenames:
        n = metafunc.config.getoption("--seeds")
        metafunc.parametrize("fault_seed",
                             range(DEFAULT_SEEDS if n is None else n))
    if "sim_backend" in metafunc.fixturenames:
        metafunc.parametrize("sim_backend", available_backends())
    if "machine_backend" in metafunc.fixturenames:
        metafunc.parametrize("machine_backend", _machine_backend_params())


def pytest_collection_modifyitems(config, items):
    capped = config.getoption("--seeds") is None
    for item in items:
        if "/tests/faults/" in str(item.fspath).replace("\\", "/"):
            item.add_marker(pytest.mark.faults)
        params = getattr(item, "callspec", None)
        params = params.params if params is not None else {}
        if params.get("machine_backend") != "mp":
            continue
        if capped and params.get("fault_seed", 0) >= MP_SWEEP_SEEDS:
            item.add_marker(pytest.mark.skip(
                reason=f"mp legs run a reduced {MP_SWEEP_SEEDS}-seed sweep "
                "unless --seeds is given (one real process per PE per run)"))
        elif params.get("sim_backend", "thread") != "thread":
            item.add_marker(pytest.mark.skip(
                reason="tasklet switch backends are per-worker on mp; the "
                "sweep pins the default"))

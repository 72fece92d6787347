"""Shared fixtures.  Importable helpers (run_on / run_spmd_collect)
live in ``tests/helpers.py``; machines default to the GENERIC
round-numbers model so expected virtual times can be computed by hand.
"""

from __future__ import annotations

import threading
import pytest

from repro.sim.machine import Machine
from repro.sim.models import GENERIC, MachineModel


def pytest_addoption(parser):
    parser.addoption(
        "--seeds",
        type=int,
        default=None,
        help="number of fault-plan seeds the schedule-fuzzing harness in "
        "tests/faults sweeps (default 25, of which the mp legs run 3; an "
        "explicit count applies to every machine layer). Each seed is a "
        "fully deterministic run; a failing seed value reproduces the "
        "failure exactly",
    )


@pytest.fixture
def machine2() -> Machine:
    m = Machine(2, model=GENERIC)
    yield m
    m.shutdown()


@pytest.fixture
def machine4() -> Machine:
    m = Machine(4, model=GENERIC)
    yield m
    m.shutdown()


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Every test must clean up its simulated machines: the OS thread
    count may not grow across a test (parked tasklets would hang around
    forever otherwise)."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after <= before + 1, (
        f"leaked {after - before} OS threads; a Machine was not shut down"
    )

"""Tests of the benchmark itself: its output format, its correctness
checks, and a smoke-size run of every workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seed", "3", "--seconds", "0", "--scale", "0.05"]


def invoke(*argv: str) -> tuple:
    """Run the benchmark in-process; returns (exit code, stdout lines,
    parsed last line)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    code, lines, result = invoke("--workload", workload, "--trace", trace,
                                 *SMOKE)
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == "1":
        assert any("per-layer table" in line for line in lines)
        assert any(line.strip().startswith("leftover") for line in lines)
        assert any("tracing overhead" in line for line in lines)


def _tamper(monkeypatch, mutate):
    """Route every benchmark send through ``mutate(payload)``, which
    returns the payload to send or ``None`` to lose the message."""
    real = workloads._send
    state = {"n": 0}

    def send(rec, dest, handler, payload, op):
        state["n"] += 1
        payload = mutate(payload, state["n"])
        if payload is not None:
            real(rec, dest, handler, payload, op)

    monkeypatch.setattr(workloads, "_send", send)


def test_lost_message_counts_as_failed(monkeypatch):
    _tamper(monkeypatch, lambda p, n: None if n == 7 else p)
    code, lines, result = invoke("--workload", "sim_stream", *SMOKE)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any(line.startswith("ERROR") for line in lines)


def test_corrupted_payload_counts_as_failed(monkeypatch):
    def flip(payload, n):
        if n != 7:
            return payload
        src, seq, idx, data = payload
        return (src, seq, idx, bytes([data[0] ^ 1]) + data[1:])

    _tamper(monkeypatch, flip)
    code, lines, result = invoke("--workload", "sim_stream", *SMOKE)
    assert code == 1
    assert result["failed"] > 0
    assert any("wrong payload" in line for line in lines)


def test_overrides_are_cleared(monkeypatch):
    monkeypatch.setenv("REPRO_CSD_BATCH", "1")
    monkeypatch.setenv("REPRO_SIM_BACKEND", "thread")
    code, lines, _ = invoke("--workload", "sim_tasks", *SMOKE)
    assert code == 0
    assert any(line.startswith("cleared overrides: REPRO_CSD_BATCH, "
                               "REPRO_SIM_BACKEND") for line in lines)


def test_plans_depend_only_on_the_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.plan(5, 0.05) == wl.plan(5, 0.05)
        assert wl.plan(5, 0.05) != wl.plan(6, 0.05)


def test_ops_per_s_is_the_median_block_rate():
    assert run.block_rates([0.0, 1.0, 2.0, 3.0, 5.0], 2) == [1.0, 2 / 3]
    rep = workloads.Rep(ops=4, window_s=5.0,
                        op_times=[0.0, 1.0, 2.0, 3.0, 5.0],
                        rtt_small=[0.3, 0.1, 0.2], results=[{"op_t": [1.0]}])
    run.summarize(rep, 2)
    assert rep.rates == [1.0, 2 / 3]
    assert rep.rtt == {"small_n": 3, "p50": 0.2, "p99": 0.3}
    assert rep.op_times == rep.rtt_small == [] and rep.results == [{}]
    run.summarize(rep, None)
    assert rep.rates == [4 / 5.0]

"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mp_pingpong --seed 1 --seconds 10 --trace 0

The runtime is imported from ``src/`` next to this directory; nothing is
installed or built.  ``--trace 0`` prints the end-to-end metrics of an
untraced run.  ``--trace 1`` spends half of ``--seconds`` untraced and
the other half (at most 3 repetitions) traced.  It prints the per-layer
table, the leftover, the tracing overhead and every per-layer metric,
reports the common per-layer metrics, and writes the spans to
``.perfbench-out/`` in the checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median
from time import perf_counter as pc
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: environment overrides of Machine defaults; the benchmark measures the
#: defaults, so it clears them before the runtime is imported.
OVERRIDES = ("REPRO_MSG_POOL", "REPRO_CSD_BATCH", "REPRO_CSD_INLINE",
             "REPRO_SIM_BACKEND", "REPRO_MACHINE_BACKEND",
             "REPRO_MP_START_METHOD")

END_TO_END_UNITS = {
    "setup_s": "s", "teardown_s": "s", "ops_per_s": "1/s",
    "rtt_p50_us": "us", "rtt_p99_us": "us", "rtt_large_p50_us": "us",
    "cpu_us_per_op": "us", "peak_rss_mb": "MB",
}

#: printed but left out of the JSON result: across ten seeds the p99 of
#: sim_stream and mp_pingpong spread by 0.15 to 2 of its median (host
#: CPU steal lands in the tail), against the tenth it must repeat within.
UNGATED = ("rtt_p99_us",)

#: repetitions a run makes at least, whatever ``--seconds`` says: the
#: medians of set-up and teardown need several.
MIN_REPS = 3

#: the traced half stops after this many repetitions: per-layer metrics
#: have no bound, and the spans of every traced rep are kept and written.
MAX_TRACED_REPS = 3


def per_layer_unit(name: str) -> str:
    if name.endswith("_us") or name.endswith("_us_per_op"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_per_op"):
        return "ratio"
    return "count"


def host_fingerprint() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "loadavg": list(os.getloadavg()), "commit": git_commit(ROOT)}


def cpu_times() -> List[int]:
    """The host's aggregate CPU tick counters from ``/proc/stat``
    (user, nice, system, idle, iowait, irq, softirq, steal, ...)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor took from this host between two
    :func:`cpu_times` readings: the noise floor of a run."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else 0.0


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    k = max(0, min(len(values) - 1, -(-len(values) * q // 100) - 1))
    return values[int(k)]


def run_reps(wl, plan: dict, traced: bool, seconds: float, min_reps: int,
             max_reps: Optional[int] = None, first=None
             ) -> Tuple[list, List[str], int, int]:
    """Repeat the workload until ``seconds`` have passed (at least
    ``min_reps`` and at most ``max_reps`` times); stop at the first
    failed repetition.  On the simulator every repetition must match
    ``first`` (default: this call's first repetition).  Returns the good
    reps, the errors, and the ops attempted and failed."""
    reps: list = []
    errors: List[str] = []
    attempted = failed = 0
    t_end = pc() + seconds
    while len(reps) < min_reps or (pc() < t_end and len(reps) != max_reps):
        attempted += plan["ops"]
        try:
            rep = wl.rep(plan, traced)
            errs = wl.check(plan, rep.results)
        except Exception as exc:  # a crash fails the rep, not the report
            rep, errs = None, [f"{type(exc).__name__}: {exc}"]
        ref = first or (reps[0] if reps else None)
        if rep is not None and ref is not None and wl.layer == "sim":
            if rep.virtual_end != ref.virtual_end:
                errs.append(f"virtual end time {rep.virtual_end!r} differs "
                            f"from the first repetition's "
                            f"{ref.virtual_end!r}")
            if rep.results[0]["digest"] != ref.results[0]["digest"]:
                errs.append("delivery digest differs from the first "
                            "repetition's")
        if errs:
            failed += plan["ops"]
            errors += [f"rep {len(reps)}{' traced' if traced else ''}: {e}"
                       for e in errs]
            break
        summarize(rep, wl.block)
        reps.append(rep)
    return reps, errors, attempted, failed


def block_rates(times: List[float], block: int) -> List[float]:
    """The rate, in ops per second, of every run of ``block``
    consecutive ops in the sorted completion ``times``."""
    return [block / (times[i] - times[i - block])
            for i in range(block, len(times), block)]


def summarize(rep, block: Optional[int]) -> None:
    """Reduce a checked repetition to the figures a run reports and drop
    its per-op samples, so that the run's memory (``peak_rss_mb``) does
    not grow with the number of repetitions.  With no ``block``, or
    fewer timed ops than one, the rate is the whole window's."""
    rep.rates = (block and block_rates(rep.op_times, block)
                 or [rep.ops / rep.window_s])
    small, large = sorted(rep.rtt_small), sorted(rep.rtt_large)
    rep.rtt = {"small_n": len(small)}
    if small:
        rep.rtt["p50"] = percentile(small, 50)
        rep.rtt["p99"] = percentile(small, 99)
    if large:
        rep.rtt["large_p50"] = percentile(large, 50)
    rep.op_times, rep.rtt_small, rep.rtt_large = [], [], []
    for res in rep.results:
        for key in ("op_t", "rtt_small", "rtt_large"):
            res.pop(key, None)


def end_to_end(reps: list) -> Dict[str, float]:
    """Medians over the whole run, so a stall or a stretch of host CPU
    steal that hits part of it moves none of them: ``ops_per_s`` is the
    median rate of all the run's blocks of ops, and the rest (but
    ``peak_rss_mb``) are medians over repetitions of each repetition's
    figure."""
    def rtt(key: str) -> float:
        return median(r.rtt[key] for r in reps if key in r.rtt) * 1e6

    return {
        "setup_s": median(r.setup_s for r in reps),
        "teardown_s": median(r.teardown_s for r in reps),
        "ops_per_s": median(x for r in reps for x in r.rates),
        "rtt_p50_us": rtt("p50"),
        "rtt_p99_us": rtt("p99"),
        "rtt_large_p50_us": rtt("large_p50"),
        "cpu_us_per_op": median(r.cpu_s / r.ops for r in reps) * 1e6,
        # The first repetitions only: a run that fits more of them must
        # not read as using more memory.
        "peak_rss_mb": max(r.rss_mb for r in reps[:MIN_REPS]),
    }


def write_spans(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, separators=(",", ":"))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="work per repetition (tests use a smoke size)")
    args = ap.parse_args(argv)

    cleared = [k for k in OVERRIDES if os.environ.pop(k, None) is not None]
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench import layers
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the runtime from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    host = host_fingerprint()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale:g}")
    print("host " + json.dumps(host, sort_keys=True))
    if cleared:
        print("cleared overrides: " + ", ".join(cleared))

    ticks = cpu_times()
    plan = wl.plan(args.seed, args.scale)
    budget = args.seconds / 2 if args.trace else args.seconds
    reps, errors, attempted, failed = run_reps(wl, plan, False, budget,
                                               MIN_REPS)
    traced: list = []
    if args.trace and not errors:
        traced, t_errors, t_att, t_fail = run_reps(
            wl, plan, True, budget, 1, MAX_TRACED_REPS, reps[0])
        errors += t_errors
        attempted += t_att
        failed += t_fail
    correct = not errors
    for e in errors:
        print("ERROR " + e)
    print(f"reps: {len(reps)} untraced, {len(traced)} traced, "
          f"{plan['ops']} timed ops each; host CPU steal "
          f"{steal_frac(ticks, cpu_times()):.1%} during the run")
    print(f"  {'failed_frac':<24}{failed / attempted:<14.6g}"
          f"({failed}/{attempted})")

    metrics: Dict[str, dict] = {}
    if correct:
        e2e = end_to_end(reps)
        for name, value in e2e.items():
            note = ("  (not gated; median of per-rep p99 over "
                    f"{median(r.rtt['small_n'] for r in reps):g} samples)"
                    if name in UNGATED else "")
            print(f"  {name:<24}{value:<14.6g}{END_TO_END_UNITS[name]}{note}")
        if args.trace:
            per_layer, table = layers.analyse(wl.layer, traced, reps)
            traced_rate = end_to_end(traced)["ops_per_s"]
            per_layer["trace.overhead_frac"] = (
                1.0 - traced_rate / e2e["ops_per_s"])
            print(table.render(wl.name))
            print(f"  tracing overhead {per_layer['trace.overhead_frac']:.1%} "
                  "of untraced ops_per_s")
            for name, value in per_layer.items():
                print(f"  {name:<24}{value:<14.6g}{per_layer_unit(name)}")
            metrics = {n: {"value": per_layer[n], "unit": per_layer_unit(n)}
                       for n in layers.COMMON}
            out = ROOT / ".perfbench-out" / f"{wl.name}-seed{args.seed}.json"
            write_spans(out, {
                "workload": wl.name, "seed": args.seed, "host": host,
                "end_to_end": e2e, "per_layer": per_layer,
                "windows": [[r.win0, r.win1] for r in traced],
                "spans": [r.spans for r in traced]})
            print(f"spans written to {out}")
        else:
            metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]}
                       for n, v in e2e.items() if n not in UNGATED}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

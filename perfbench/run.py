"""Run one workload of the diagnosis benchmark and print its metrics.

    python3 perfbench/run.py --workload steady_fleet --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced for half the time, then traced for the other half, and
prints the per-layer metrics (plus ``trace.overhead``, traced over
untraced median round wall).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the human-readable report.  A broken correctness invariant is
reported with ``"correct": false`` and exit code 1.  The program is
imported from ``src/`` next to this directory; without it the run fails
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("steady_fleet", "incident_fleet", "replay_fleet")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
TRACE_DIR = ".perfbench"


def _pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The fleet server and zone worker threads hand each request back and
    forth with the main thread; on one CPU a hand-off is a plain context
    switch, where across CPUs it waits for the host to wake an idle vCPU,
    which on a shared host adds milliseconds of noise to the round.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {src}\n")
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]


def build(workload: str, seed: int):
    """One freshly set-up world for ``workload``."""
    if workload == "replay_fleet":
        from perfbench.replay import ReplayFleet

        return ReplayFleet(seed)
    from perfbench.fleet import DaemonFleet

    return DaemonFleet(seed, wire=workload == "incident_fleet")


def run(workload: str, world, seed: int, seconds: float, rounds=None, on_round=None):
    if workload == "replay_fleet":
        from perfbench.replay import run_replay

        return run_replay(world, seconds, rounds=rounds, on_round=on_round)
    from perfbench.daemon_run import run_daemon

    return run_daemon(
        world, seed, seconds, faults=workload == "incident_fleet",
        rounds=rounds, on_round=on_round,
    )


def close(world) -> None:
    closer = getattr(world, "close", None)
    if closer is not None:
        closer()


def end_to_end(res) -> dict:
    """Every end-to-end metric; times are host-normalised (see ``HostGauge``)."""
    from perfbench.stats import percentile, tail

    round_s, lag_s = res.norm_round_s, res.norm_lag_s
    p_round, round_tail = tail(round_s)
    p_lag, lag_tail = tail(lag_s)
    values = {
        "setup_s": (statistics.median(res.norm_setup_s), "s"),
        "round_s.p50": (percentile(round_s, 50), "s"),
        "round_s.tail": (round_tail, "s"),
        "verdict_lag_s.p50": (percentile(lag_s, 50), "s"),
        "verdict_lag_s.tail": (lag_tail, "s"),
        "machine_rounds_per_s": (res.attempted / sum(round_s), "1/s"),
        "verdict_accuracy": (res.verdict_accuracy, "ratio"),
        "history_bytes_per_machine": (res.history_bytes_per_machine, "B"),
        "peak_rss_mb": (res.peak_rss_mb, "MB"),
    }
    n = len(res.round_s)
    walls = {
        "setup_s": res.setup_s, "round_s.p50": res.round_s, "verdict_lag_s.p50": res.lag_s,
    }
    print(f"{res.workload}: {n} timed rounds x {res.machines} machines"
          " (times host-normalised; wall medians in brackets)")
    for name, (value, unit) in values.items():
        extra = ""
        if name in walls:
            extra = f"  (wall {statistics.median(walls[name]):.6g} s)"
        if name == "round_s.tail":
            extra = f"  (p{p_round:g}, n={n})"
        elif name == "verdict_lag_s.tail":
            extra = f"  (p{p_lag:g}, n={n})"
        elif name == "setup_s":
            extra += f"  (median of {len(res.setup_s)})"
        print(f"  {name:<28} {value:.6g} {unit}{extra}")
    for name, value in (
        ("fault_miss_rate", res.fault_miss_rate),
        ("false_alarm_rate", res.false_alarm_rate),
        ("detect_rounds", res.detect_rounds),
    ):
        print(f"  {name:<28} {value:.6g}")
    for note in res.notes:
        print(f"  note: {note}")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced(workload: str, seed: int, seconds: float, base_p50: float) -> tuple:
    """Build and run a world with every layer call wrapped."""
    from perfbench import layers
    from perfbench.stats import percentile
    from perfbench.tracing import Tracer, calibrate

    costs = calibrate()
    tracer = Tracer()
    layers.install(tracer)
    try:
        world = build(workload, seed)
        try:
            res = run(
                workload, world, seed, seconds,
                on_round=lambda r, begin: (
                    tracer.begin_round() if begin else tracer.end_round()
                ),
            )
            stores = _store_bytes(world)
        finally:
            close(world)
    finally:
        tracer.uninstall()
    extra = dict(res.counters)
    extra.update(stores)
    extra.update(
        incidents=float(len(res.outcome)) if workload != "replay_fleet" else 0.0,
        detect_rounds=res.detect_rounds,
        fault_miss_rate=res.fault_miss_rate,
        false_alarm_rate=res.false_alarm_rate,
    )
    sim = getattr(getattr(world, "h", None), "sim", None)
    metrics = layers.per_layer(
        tracer, res.timed_rounds, costs,
        components=len(sim.components) if sim is not None else 0,
        machines=res.machines, extra=extra,
    )
    metrics["trace.overhead"] = percentile(res.norm_round_s, 50) / base_p50
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.dump(os.path.join(TRACE_DIR, f"trace-{workload}-{seed}.jsonl"))
    print(f"{workload}: traced {len(res.round_s)} rounds; calibrated wrapper cost "
          + ", ".join(f"{k}={v * 1e9:.0f}ns" for k, v in costs.items()))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g}")
    return res, metrics


def _store_bytes(world) -> dict:
    fine = coarse = 0
    for zone in world.zones.values():
        for tier, n in zone.store_nbytes().items():
            if tier == "fine":
                fine += n
            elif tier not in ("total", "coarse"):
                coarse += n
    return {"fine_bytes": float(fine), "coarse_bytes": float(coarse)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    _pin_to_one_cpu()

    if args.trace:
        seconds = args.seconds / 2.0
        world = build(args.workload, args.seed)
        try:
            base = run(args.workload, world, args.seed, seconds)
        finally:
            close(world)
        from perfbench.stats import percentile

        res, metrics = traced(
            args.workload, args.seed, seconds, percentile(base.norm_round_s, 50)
        )
        units = {k: _unit(k) for k in metrics}
        invariants = base.invariants + res.invariants
        failed = base.failed + res.failed
        attempted = base.attempted + res.attempted
    else:
        from perfbench.stats import HostGauge

        gauge = HostGauge()
        gauge.read()
        setups = []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            world = build(args.workload, args.seed)
            setups.append(time.perf_counter() - t0)
            gauge.read()
            if i < SETUPS - 1:
                close(world)
        try:
            res = run(args.workload, world, args.seed, args.seconds)
        finally:
            close(world)
        res.setup_s = setups
        res.host_readings.extend(gauge.readings)
        e2e = end_to_end(res)
        metrics = {k: v["value"] for k, v in e2e.items()}
        units = {k: v["unit"] for k, v in e2e.items()}
        invariants, failed, attempted = res.invariants, res.failed, res.attempted

    for broken in invariants:
        sys.stderr.write(f"perfbench: invariant broken: {broken}\n")
    print(json.dumps({
        "correct": not invariants,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if invariants else 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_per_machine") or name.endswith("bytes_per_row"):
        return "B"
    if name.endswith("_us_per_element"):
        return "us"
    if name.endswith("ns_per_component_tick"):
        return "ns"
    if "ratio" in name or "rate" in name or name.startswith(("share.", "trace.")):
        return "ratio"
    if name == "daemon.detect_rounds":
        return "rounds"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""``steady_fleet`` and ``incident_fleet``: closed-loop daemon rounds.

One caller: the next round starts when the previous ``tick()`` (plus
the root roll-up) returns.  Dataplane traffic is open-loop at fixed
rates in simulated time, so a slow round delays wall time only.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from perfbench.fleet import (
    MACHINES,
    DaemonFleet,
    Fault,
    fault_schedule,
    localized,
)
from perfbench.stats import HostGauge, RunResult, peak_rss_mb, round_numbers

#: Rounds run before timing starts (the detectors' EWMA warm-up).
WARMUP_ROUNDS = 3
#: Round after which the zones' history bytes and the peak RSS are
#: sampled (a fixed round, so neither depends on how fast the host is).
HISTORY_ROUND = 24
#: Upper bound on rounds a run can reach; the fault schedule covers it.
MAX_ROUNDS = 10_000


def run_daemon(
    world: DaemonFleet,
    seed: int,
    seconds: float,
    faults: bool,
    rounds: Optional[int] = None,
    on_round: Optional[Callable[[int, bool], None]] = None,
) -> RunResult:
    """Drive ``world`` for ``seconds`` of timed rounds (or exactly ``rounds``).

    ``on_round(round, begin)`` brackets every round (the tracer's round
    scope).  Scoring happens after the loop, outside the timed rounds.
    """
    name = "incident_fleet" if faults else "steady_fleet"
    res = RunResult(workload=name, machines=MACHINES)
    daemon = world.daemon
    schedule: List[Fault] = (
        fault_schedule(seed, sorted(world.parts), WARMUP_ROUNDS + 2, MAX_ROUNDS)
        if faults else []
    )
    starts = {f.start: f for f in schedule}
    heals = {f.heal: f for f in schedule}
    active_after: Dict[int, Dict[str, object]] = {}
    counters0 = _agent_counters(world)
    escalated = 0
    gauge = HostGauge()
    r = 0
    for r in round_numbers(seconds, rounds, WARMUP_ROUNDS):
        if r == WARMUP_ROUNDS + 1:
            counters0 = _agent_counters(world)
            gauge.read()
        if r in heals:
            world.heal(heals[r])
        if r in starts:
            world.inject(starts[r])
        undelivered = world.undelivered
        if on_round is not None:
            on_round(r, True)
        t0 = time.perf_counter()
        result = world.tick()
        t1 = time.perf_counter()
        if on_round is not None:
            on_round(r, False)
        active_after[r] = {i.machine: i for i in daemon.active_incidents()}
        if r > WARMUP_ROUNDS:
            res.timed_rounds.append(r)
            res.round_s.append(t1 - t0)
            res.lag_s.append(t1 - world.advance_end)
            gauge.read()
            res.round_scale.append(gauge.scale(-2, -1))
            escalated += len(result.diagnosed)
            res.failed += (world.undelivered - undelivered) * (
                MACHINES // len(world.zones)
            )
        if r == HISTORY_ROUND:
            res.history_bytes_per_machine = _history_bytes(world)
            res.peak_rss_mb = peak_rss_mb()
    last = r
    if last < HISTORY_ROUND:
        res.history_bytes_per_machine = _history_bytes(world)
        res.peak_rss_mb = peak_rss_mb()
    res.host_readings.extend(gauge.readings)
    res.counters = {
        k: v - counters0.get(k, 0.0) for k, v in _agent_counters(world).items()
    }
    res.counters["escalated"] = escalated
    _score(res, world, schedule, active_after, last)
    if not faults and daemon.incidents:
        res.invariants.append(
            f"steady_fleet opened {len(daemon.incidents)} incident(s): "
            + ", ".join(f"{i.machine}@{i.opened_round}/{i.reason}" for i in daemon.incidents)
        )
    res.outcome = [
        (i.machine, i.reason, i.opened_round, i.resolved_round, i.state, list(i.verdicts))
        for i in daemon.incidents
    ]
    return res


def _history_bytes(world: DaemonFleet) -> float:
    total = sum(z.store_nbytes()["total"] for z in world.zones.values())
    return total / MACHINES


def _agent_counters(world: DaemonFleet) -> Dict[str, float]:
    hub = world.hub
    out: Dict[str, float] = {
        "obs_spans": float(hub.spans.started) if hub is not None else 0.0,
        "obs_events": float(hub.events.emitted) if hub is not None else 0.0,
        "polls": 0.0, "elements_read": 0.0, "rows_stored": 0.0,
        "push_ticks": 0.0, "pushes": 0.0, "rows_pushed": 0.0,
    }
    for agent in world.h.agents.values():
        n = len(agent.elements())
        out["polls"] += agent.total_polls
        out["elements_read"] += agent.total_polls * n
        out["rows_stored"] += agent.store.total_appended
        out["pushes"] += agent.total_pushes
        out["push_ticks"] += (
            agent.total_pushes + agent.total_push_skips
            + agent.total_push_errors + agent.total_push_backoff_skips
        )
        out["rows_pushed"] += agent.total_pushed_rows
    return out


def _score(
    res: RunResult,
    world: DaemonFleet,
    schedule: List[Fault],
    active_after: Dict[int, Dict[str, object]],
    last: int,
) -> None:
    """Score incidents against the fault schedule's ground truth.

    A machine-round is faulty while a fault is injected on it.  The
    ``clear_after`` rounds after a heal are not scored: the daemon
    cannot close an incident sooner by design.  A fault counts when it
    healed inside the run; it is missed unless an incident on the
    victim opened while it was injected and named its ground truth.
    """
    clear_after = world.daemon.config.clear_after
    first = WARMUP_ROUNDS + 1
    faulty: Dict[tuple, Fault] = {}
    grace = set()
    for f in schedule:
        for r in range(f.start, f.heal):
            faulty[(f.machine, r)] = f
        for r in range(f.heal, f.heal + clear_after):
            grace.add((f.machine, r))
    correct = scored = clean = 0
    for r in range(first, last + 1):
        active = active_after.get(r, {})
        for m in world.parts:
            key = (m, r)
            if key in grace and key not in faulty:
                continue
            scored += 1
            inc = active.get(m)
            f = faulty.get(key)
            if f is None:
                clean += 1
                correct += inc is None
            else:
                correct += inc is not None and localized(f, inc)
    res.scored, res.correct_rounds = scored, correct

    done = [f for f in schedule if first <= f.start and f.heal <= last]
    missed, lags = 0, []
    for f in done:
        hits = [
            i for i in world.daemon.incidents
            if i.machine == f.machine and f.start <= i.opened_round < f.heal
        ]
        if hits:
            lags.append(hits[0].opened_round - f.start + 1)
        if not any(localized(f, i) for i in hits):
            missed += 1
    res.fault_miss_rate = missed / len(done) if done else 0.0
    res.detect_rounds = sum(lags) / len(lags) if lags else 0.0
    false_alarms = sum(
        1 for i in world.daemon.incidents
        if first <= i.opened_round <= last
        and (i.machine, i.opened_round) not in faulty
        and (i.machine, i.opened_round) not in grace
    )
    res.false_alarm_rate = false_alarms / clean if clean else 0.0
    res.notes.append(
        f"faults scored {len(done)}: "
        + ", ".join(f"{f.kind}@{f.machine}[{f.start},{f.heal})" for f in done)
    )

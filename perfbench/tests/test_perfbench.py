"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.replay import make_track  # noqa: E402
from perfbench.run import build, run  # noqa: E402
from perfbench.stats import REF_NOMINAL_S, HostGauge, RunResult  # noqa: E402
from perfbench.tracing import Tracer, self_times  # noqa: E402


def test_self_times_subtract_children_hooks_and_wrapper_cost():
    # round [0, 10] > tick [1, 9] > {push [2, 4] > apply [2.5, 3], sweep [5, 6]}
    # tick also ran 100 hooks totalling 1.0 s.
    records = [
        (1, 1, None, "round", 0.0, 10.0, 0.0, 0),
        (1, 2, 1, "daemon.tick", 1.0, 9.0, 0.0, 0),
        (1, 3, 2, "agent.push", 2.0, 4.0, 0.0, 0),
        (1, 4, 3, "mirror.apply", 2.5, 3.0, 0.0, 0),
        (1, 5, 2, "agent.sweep", 5.0, 6.0, 1.0, 100),
    ]
    plain = self_times(records)
    assert plain == {1: 2.0, 2: 5.0, 3: 1.5, 4: 0.5, 5: 0.0}
    costed = self_times(records, cost_in=0.01, cost_out=0.1, hook_cost_out=0.001)
    assert abs(costed[1] - (2.0 - 0.1)) < 1e-12  # the round has no own wrapper
    assert abs(costed[2] - (5.0 - 2 * 0.1 - 0.01)) < 1e-12
    assert abs(costed[3] - (1.5 - 0.1 - 0.01)) < 1e-12
    assert abs(costed[4] - (0.5 - 0.01)) < 1e-12
    assert abs(costed[5] - (0.0 - 100 * 0.001 - 0.01)) < 1e-12


def test_tracer_nests_spans_and_restores_originals():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.patch_method(Layer, "outer", "outer")
    tracer.patch_method(Layer, "inner", "inner")
    tracer.begin_round()
    assert Layer().outer() == 2
    tracer.end_round()
    Layer().outer()  # between rounds: recorded under round 0
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original
    by_name = {r[3]: r for r in tracer.records if r[0] == 1}
    assert by_name["inner"][2] == by_name["outer"][1]
    assert by_name["outer"][2] == by_name["round"][1]
    assert {r[3] for r in tracer.records if r[0] == 0} == {"outer", "inner"}


def test_host_gauge_normalises_rounds_locally_and_setups_run_wide():
    gauge = HostGauge()
    gauge.read()
    assert len(gauge.readings) == 1 and gauge.readings[0] > 0
    gauge.readings = [2e-3, 4e-3]
    assert gauge.scale(-2, -1) == REF_NOMINAL_S / 3e-3
    res = RunResult(
        "steady_fleet", 1, round_s=[0.3, 0.6], round_scale=[0.5, 0.25],
        setup_s=[6.0], host_readings=[1e-3, 2e-3, 3e-3],
    )
    assert res.norm_round_s == [0.15, 0.15]
    assert res.norm_setup_s == [6.0 * REF_NOMINAL_S / 2e-3]


def test_replay_offsets_keep_every_counter_monotone():
    attrs = ("rx_pkts", "drops", "queue_pkts", "capacity_bps")
    rows = [
        (5, 1.00, (10.0, 0.0, 4.0, 1e8)),
        (6, 1.05, (20.0, 1.0, 2.0, 1e8)),
        (8, 1.10, (35.0, 1.0, 3.0, 1e8)),
    ]
    track = make_track("tun@tmpl-0", attrs, rows, period=0.15)
    replayed = [track.row(g) for g in range(3 * len(rows))]
    seqs = [r[0] for r in replayed]
    stamps = [r[1] for r in replayed]
    assert seqs == sorted(set(seqs))
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    for j in (0, 1):  # running totals never go backwards
        col = [r[2][j] for r in replayed]
        assert all(b >= a for a, b in zip(col, col[1:])), col
    # the step across a seam repeats the recording's first step
    assert replayed[3][2][0] - replayed[2][2][0] == rows[1][2][0] - rows[0][2][0]
    # levels are replayed as recorded
    assert [r[2][2] for r in replayed] == [4.0, 2.0, 3.0] * 3
    assert {r[2][3] for r in replayed} == {1e8}
    assert track.count_upto_seq(seqs[4]) == 5
    assert track.count_upto_time(stamps[4]) == 5


def _outcome(workload: str, seed: int, rounds: int, tracer=None):
    if tracer is not None:
        layers.install(tracer)
    try:
        world = build(workload, seed)
        try:
            hook = None
            if tracer is not None:
                def hook(r, begin):
                    tracer.begin_round() if begin else tracer.end_round()
            res = run(workload, world, seed, 0.0, rounds=rounds, on_round=hook)
        finally:
            getattr(world, "close", lambda: None)()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return res


def test_traced_and_untraced_incident_runs_agree():
    plain = _outcome("incident_fleet", 3, rounds=10)
    tracer = Tracer()
    traced = _outcome("incident_fleet", 3, rounds=10, tracer=tracer)
    assert plain.outcome == traced.outcome
    assert plain.outcome, "the fault schedule should open an incident"
    assert not plain.invariants and not traced.invariants
    names = {r[3] for r in tracer.records}
    assert {"daemon.tick", "simnet.step", "wire.report", "agent.push"} <= names


def test_traced_and_untraced_replay_runs_agree():
    plain = _outcome("replay_fleet", 4, rounds=4)
    traced = _outcome("replay_fleet", 4, rounds=4, tracer=Tracer())
    assert plain.outcome == traced.outcome
    assert not plain.invariants and not traced.invariants

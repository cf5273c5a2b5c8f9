"""``replay_fleet``: the control plane alone, at fleet scale, on real rows.

Set-up simulates three template machines of the standard shape — one
clean, one holding a vNIC overload, one under host-CPU contention — with
their agents sweeping every 50 ms, and drains the agents' stores.  The
recorded rows are then replayed as ``MACHINES`` machines in ``ZONES``
zones through :class:`ReplayHandle`, a benchmark-side agent handle whose
``collect_blocks`` runs the rows through the ``bin1`` codec
(``encode_batch_response`` -> ``decode_batch_response``).  No simulator
runs while rounds are timed.  The timed phase is a series of epochs,
each replaying the same clock steps into fresh mirrors, so every epoch
does the same work however fast the host is.

A run outlasts the recording by looping it: loop ``L`` adds ``L`` times
a per-element offset to each row's sequence number, timestamp and
cumulative counters, so every counter stays monotone across the seams
(the step across a seam repeats the recording's first step) and the
mirrors never see a counter reset.
"""

from __future__ import annotations

import gc
import random
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.controller import FleetController, ZoneController
from repro.core.net import codec
from repro.core.net.codec import WireSchema
from repro.core.rulebook import CPU, VM_BOTTLENECK
from repro.core.store import TimeSeriesStore
from repro.scenarios.common import Harness

from perfbench.fleet import (
    OVERLOAD_BPS,
    RATE_RANGE_BPS,
    WARMUP_SIM_S,
    WINDOW_S,
    ZONE_WORKERS,
    add_machine,
    start_cpu_contention,
)
from perfbench.stats import HostGauge, RunResult, peak_rss_mb

MACHINES = 64
ZONES = 4
SWEEP_S = 0.05
RECORD_S = 1.5
WARMUP_ROUNDS = 2
#: Timed rounds per epoch (about 4 s on a 2-vCPU VM).
EPOCH_ROUNDS = 12

#: Template kind -> the Table-1 (location class, resource) its verdicts
#: must contain; the clean template must get no verdict at all.
TEMPLATES = (
    ("clean", None),
    ("vnic_overload", ("tun", VM_BOTTLENECK)),
    ("cpu_contention", ("tun", CPU)),
)

#: Attributes that are levels, not running totals: never offset.
GAUGES = frozenset({"capacity_bps", "queue_bytes", "queue_pkts", "sock_ready_bytes"})


class ReplayClock:
    """The replayed agents' notion of now (simulated seconds)."""

    def __init__(self, now: float) -> None:
        self.now = now


@dataclass
class ElementTrack:
    """One element's recorded rows plus its per-loop offsets."""

    element_id: str
    attrs: Tuple[str, ...]
    seqs: List[int]
    stamps: List[float]
    values: List[array]
    seq_step: int
    value_step: array
    period: float

    def count_upto_seq(self, seq: int) -> int:
        """How many replayed rows have a sequence number <= ``seq``."""
        if seq < self.seqs[0]:
            return 0
        loop = (seq - self.seqs[0]) // self.seq_step
        return loop * len(self.seqs) + bisect_right(self.seqs, seq - loop * self.seq_step)

    def count_upto_time(self, t: float) -> int:
        """How many replayed rows are stamped at or before ``t``."""
        if t < self.stamps[0] - 1e-9:
            return 0
        loop = int((t - self.stamps[0] + 1e-9) // self.period)
        return loop * len(self.seqs) + bisect_right(
            self.stamps, t - loop * self.period + 1e-9
        )

    def row(self, g: int) -> Tuple[int, float, Sequence[float]]:
        loop, i = divmod(g, len(self.seqs))
        if loop == 0:
            return self.seqs[i], self.stamps[i], self.values[i]
        step = self.value_step
        return (
            self.seqs[i] + loop * self.seq_step,
            self.stamps[i] + loop * self.period,
            array("d", [v + loop * d for v, d in zip(self.values[i], step)]),
        )


def make_track(element_id: str, attrs, rows, period: float) -> ElementTrack:
    seqs = [r[0] for r in rows]
    stamps = [r[1] for r in rows]
    values = [array("d", r[2]) for r in rows]
    step = array("d", [0.0] * len(attrs))
    if len(rows) > 1:
        for j, name in enumerate(attrs):
            col = [v[j] for v in values]
            if name in GAUGES or any(c != c for c in col):
                continue
            if any(b < a for a, b in zip(col, col[1:])):
                continue  # not a running total
            step[j] = (col[-1] - col[0]) + (col[1] - col[0])
    return ElementTrack(
        element_id, tuple(attrs), seqs, stamps, values,
        seqs[-1] - seqs[0] + 1, step, period,
    )


@dataclass
class Template:
    name: str
    kind: str
    truth: Optional[Tuple[str, str]]
    tracks: List[ElementTrack]
    stack_ids: List[str]
    start: float  # first recorded sweep time
    #: Rows materialized for loops > 0, shared by every replica.
    _cache: Dict[Tuple[int, int], tuple] = field(default_factory=dict)

    def row(self, k: int, g: int):
        track = self.tracks[k]
        if g < len(track.seqs):
            return track.row(g)
        key = (k, g)
        row = self._cache.get(key)
        if row is None:
            if len(self._cache) > 50_000:
                self._cache.clear()
            row = self._cache[key] = track.row(g)
        return row


def record_templates(seed: int) -> List[Template]:
    """Simulate the template machines and drain their agents' stores."""
    rng = random.Random(seed)
    h = Harness(seed=seed)
    parts = {}
    for j, (kind, _) in enumerate(TEMPLATES):
        name = f"tmpl-{j}"
        parts[name] = add_machine(h, name, rng.uniform(*RATE_RANGE_BPS))
        if kind == "vnic_overload":
            parts[name].source.set_rate(rate_bps=OVERLOAD_BPS)
        elif kind == "cpu_contention":
            start_cpu_contention(h, parts[name])
    h.advance(WARMUP_SIM_S)
    start = h.sim.now
    for agent in h.agents.values():
        agent.start_polling(SWEEP_S)
    h.advance(RECORD_S - SWEEP_S / 2)
    templates = []
    for j, (kind, truth) in enumerate(TEMPLATES):
        name = f"tmpl-{j}"
        agent = h.agents[name]
        agent.stop_polling()
        tracks = [
            make_track(eid, attrs, rows, RECORD_S)
            for eid, _m, attrs, rows in agent.store.changed_blocks({})
        ]
        stack = [e.name for e in h.machines[name].stack_elements()]
        templates.append(Template(name, kind, truth, tracks, stack, start))
    return templates


class ReplayHandle:
    """An agent handle serving one template's rows as machine ``name``.

    ``wire`` sends every drained batch through the ``bin1`` codec with
    this handle's own encoder/decoder schemas (one connection's worth of
    dictionary state); without it the blocks go straight to the mirror,
    which is the in-process reference the codec path must match.
    """

    def __init__(self, name: str, template: Template, clock: ReplayClock, wire: bool) -> None:
        self.name = name
        self.template = template
        self.clock = clock
        self.wire = wire
        self._ids = [t.element_id.replace(template.name, name) for t in template.tracks]
        self._stack = [eid.replace(template.name, name) for eid in template.stack_ids]
        self._enc = WireSchema()
        self._dec = WireSchema()

    def element_ids(self) -> List[str]:
        return list(self._ids)

    def stack_element_ids(self) -> List[str]:
        return list(self._stack)

    def drain(self, acked) -> Tuple[list, Dict[str, int]]:
        """Rows newer than ``acked`` and stamped by now, plus the cursor."""
        now = self.clock.now
        tmpl = self.template
        blocks, cursor = [], {}
        for k, track in enumerate(tmpl.tracks):
            eid = self._ids[k]
            visible = track.count_upto_time(now)
            if not visible:
                continue
            cursor[eid] = tmpl.row(k, visible - 1)[0]
            floor = acked.get(eid)
            g0 = track.count_upto_seq(floor) if floor is not None else 0
            if g0 < visible:
                rows = [tmpl.row(k, g) for g in range(g0, visible)]
                blocks.append((eid, self.name, track.attrs, rows))
        return blocks, cursor

    def collect_blocks(self, acked=None):
        blocks, cursor = self.drain(acked or {})
        if not self.wire:
            return blocks, cursor
        raw = codec.encode_batch_response(self._enc, self.name, blocks, cursor)
        payload = codec.decode_batch_response(self._dec, raw)
        return payload.blocks, payload.cursor


class ReplayFleet:
    """``MACHINES`` replayed machines in ``ZONES`` zones plus the root."""

    def __init__(self, seed: int) -> None:
        obs.uninstall()
        self.templates = record_templates(seed)
        self.reset()

    def reset(self) -> None:
        """A fresh epoch: new clock, root, zones and handles, same templates."""
        first = min(t.start for t in self.templates)
        self.clock = ReplayClock(first + WINDOW_S)
        clock = self.clock
        self.names = [f"rp-{i:03d}" for i in range(MACHINES)]
        self.template_of = {
            m: self.templates[i % len(self.templates)] for i, m in enumerate(self.names)
        }
        self.fleet = FleetController("root", clock=lambda: clock.now)
        self.fleet.track_machines(self.names)
        self.zones: Dict[str, ZoneController] = {}
        for z in range(ZONES):
            zname = f"zone-{z}"
            self.fleet.register_zone(zname)
            self.zones[zname] = ZoneController(zname, max_workers=ZONE_WORKERS)
        self.handles: Dict[str, ReplayHandle] = {}
        for zname, machines in self.fleet.shards().items():
            for m in machines:
                handle = ReplayHandle(m, self.template_of[m], clock, wire=True)
                self.handles[m] = handle
                self.zones[zname].register_agent(m, handle)
        self.advance_end = 0.0
        self.rejected = 0

    def round(self) -> Dict[str, list]:
        """One round; returns each machine's Algorithm-1 verdicts."""
        now = self.clock.now
        scans = {z: zone.begin_fleet_scan(WINDOW_S) for z, zone in self.zones.items()}
        self.clock.now = now + WINDOW_S
        now = self.clock.now
        self.advance_end = time.perf_counter()
        verdicts: Dict[str, list] = {}
        for z, zone in self.zones.items():
            diagnosis = zone.finish_fleet_scan(scans[z])
            for m, report in diagnosis.reports.items():
                verdicts[m] = report.verdicts
            if not self.fleet.ingest_zone_report(zone.build_zone_report(diagnosis), now):
                self.rejected += 1
            zone.build_coarse_report(WINDOW_S, now=now)
        self.fleet.check_zones(now)
        self.fleet.rollup(now)
        return verdicts

    def mirror(self, machine: str):
        for zone in self.zones.values():
            if machine in zone.machines():
                return zone.mirror_for(machine)
        raise KeyError(machine)


def verdict_keys(verdicts) -> List[Tuple[str, str, str]]:
    return [
        (v.location_class, ",".join(v.resources), v.scope) for v in verdicts
    ]


def store_image(store: TimeSeriesStore) -> list:
    """Every byte a mirror holds: fine rings, coarse tiers, reset counts."""
    image = [store.nbytes(), store.total_resets]
    blocks = {b[0]: b for b in store.changed_blocks({})}
    coarse = getattr(store, "coarse_buckets", None)
    for eid in store.element_ids():
        _eid, machine, attrs, rows = blocks[eid]
        image.append((eid, machine, attrs, [
            (seq, ts, array("d", values).tobytes()) for seq, ts, values in rows
        ]))
        if coarse is not None:
            image.append(repr(coarse(eid)))
    return image


def run_replay(
    world: ReplayFleet,
    seconds: float,
    rounds: Optional[int] = None,
    on_round=None,
) -> RunResult:
    """Whole epochs of ``EPOCH_ROUNDS`` timed rounds until ``seconds`` pass.

    Every epoch starts from fresh mirrors (:meth:`ReplayFleet.reset`,
    untimed) and replays the same clock steps, so each epoch does the
    same work and the round-time distribution does not depend on how
    many rounds the host fits into ``seconds``.  With ``rounds`` the run
    is one epoch of exactly that many timed rounds.
    """
    res = RunResult(workload="replay_fleet", machines=MACHINES)
    epochs: List[List[Dict[str, list]]] = []
    gauge = HostGauge()
    r, deadline = 0, None
    while not epochs or (rounds is None and time.perf_counter() < deadline):
        if epochs:
            world.reset()
        gc.collect()
        per_round: List[Dict[str, list]] = []
        for e in range(1, WARMUP_ROUNDS + (rounds or EPOCH_ROUNDS) + 1):
            r += 1
            if e == WARMUP_ROUNDS + 1:
                gauge.read()
                if deadline is None:
                    deadline = time.perf_counter() + seconds
            rejected = world.rejected
            if on_round is not None:
                on_round(r, True)
            t0 = time.perf_counter()
            verdicts = world.round()
            t1 = time.perf_counter()
            if on_round is not None:
                on_round(r, False)
            per_round.append(verdicts)
            if e > WARMUP_ROUNDS:
                res.timed_rounds.append(r)
                res.round_s.append(t1 - t0)
                res.lag_s.append(t1 - world.advance_end)
                gauge.read()
                res.round_scale.append(gauge.scale(-2, -1))
                res.failed += (world.rejected - rejected) * (MACHINES // ZONES)
        if not epochs:
            res.history_bytes_per_machine = _history_bytes(world)
            res.peak_rss_mb = peak_rss_mb()
        epochs.append(per_round)
    res.host_readings.extend(gauge.readings)
    for per_round in epochs:
        _score(res, world, per_round[WARMUP_ROUNDS:])
    _check(res, world, epochs)
    res.outcome = [
        {m: verdict_keys(v) for m, v in sorted(rnd.items())}
        for per_round in epochs for rnd in per_round
    ]
    return res


def _history_bytes(world: ReplayFleet) -> float:
    return sum(z.store_nbytes()["total"] for z in world.zones.values()) / MACHINES


def _score(res: RunResult, world: ReplayFleet, rounds: List[Dict[str, list]]) -> None:
    """Machine-rounds against each template's Table-1 ground truth."""
    correct = faulty = missed = clean = alarms = 0
    for verdicts in rounds:
        for m, vs in verdicts.items():
            truth = world.template_of[m].truth
            named = {(v.location_class, res_) for v in vs for res_ in v.resources}
            if truth is None:
                clean += 1
                alarms += bool(vs)
                correct += not vs
            else:
                faulty += 1
                hit = truth in named
                missed += not hit
                correct += hit
    res.scored = clean + faulty
    res.correct_rounds = correct
    res.fault_miss_rate = missed / faulty if faulty else 0.0
    res.false_alarm_rate = alarms / clean if clean else 0.0


def _check(res: RunResult, world: ReplayFleet, epochs: List[List[Dict[str, list]]]) -> None:
    """Invariants: no resets; codec path == in-process path, byte for byte.

    One machine per template is replayed again through a fresh zone with
    in-process handles over one epoch's clock steps; its verdicts every
    round of every epoch and its final mirror must equal the codec-path
    machine's (the world holds the last epoch's mirrors), and every
    replica of a template must reach the same verdicts each round.
    """
    resets = {m: world.mirror(m).store.total_resets for m in world.names}
    bad = {m: n for m, n in resets.items() if n}
    if bad:
        res.invariants.append(f"mirror resets across replay seams: {bad}")

    for rnd, verdicts in enumerate((v for per_round in epochs for v in per_round), 1):
        by_template: Dict[str, set] = {}
        for m, vs in verdicts.items():
            by_template.setdefault(world.template_of[m].name, set()).add(
                repr(verdict_keys(vs))
            )
        split = [t for t, keys in by_template.items() if len(keys) > 1]
        if split:
            res.invariants.append(f"round {rnd}: replicas of {split} disagree")
            break

    probes = {}
    for m in world.names:
        probes.setdefault(world.template_of[m].name, m)
    first = min(t.start for t in world.templates)
    clock = ReplayClock(first + WINDOW_S)
    ref = ZoneController("reference", max_workers=ZONE_WORKERS)
    for m in probes.values():
        ref.register_agent(m, ReplayHandle(m, world.template_of[m], clock, wire=False))
    for rnd in range(len(epochs[-1])):
        scan = ref.begin_fleet_scan(WINDOW_S)
        clock.now += WINDOW_S
        diagnosis = ref.finish_fleet_scan(scan)
        for e, per_round in enumerate(epochs, 1):
            for m in probes.values():
                if verdict_keys(diagnosis.reports[m].verdicts) != verdict_keys(per_round[rnd][m]):
                    res.invariants.append(
                        f"epoch {e} round {rnd + 1}: {m} verdicts differ from the"
                        " in-process replay"
                    )
                    return
    for m in probes.values():
        if store_image(world.mirror(m).store) != store_image(ref.mirror_for(m).store):
            res.invariants.append(f"{m}: codec-path mirror differs from in-process apply")

"""Columnar window reads against the snapshot/window oracle.

Algorithm 1 (:func:`repro.core.diagnosis.contention._row_loss`) and the
zone roll-ups (:meth:`TimeSeriesStore.window_totals`) read counter
windows straight off the ring arrays.  :class:`CounterWindow` stays the
definition of what those reads mean; every test here builds the same
quantity both ways from seeded random rows and requires bit equality
(``float.hex``) and equal dict order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.controller import ZoneController
from repro.core.counters import ABSENT, CounterWindow
from repro.core.diagnosis.contention import ContentionDetector, _row_loss
from repro.core.store import StoreError, TimeSeriesStore
from repro.core.tiers import TierConfig, TieredWindowStore

BASE = ("rx_pkts", "rx_bytes", "tx_pkts", "tx_bytes", "drops")
#: Prefix look-alikes: only ``drops.`` / ``drops_flow.`` names count.
DROPS = ("drops.tun", "drops.nic", "drops_flow.f1", "drops_flow.f2", "drops_x", "dropsy.z")
LATE = ("drops.late", "drops_flow.late", "cache_hits")


def hexed(d):
    return [(k, v.hex()) for k, v in d.items()]


def loss_key(el):
    return (
        el.element_id,
        el.machine,
        el.loss_pkts.hex(),
        hexed(el.drops_by_location),
        hexed(el.drops_by_flow),
    )


class RowSource:
    """Seeded per-element counter streams with ABSENT cells and reordering."""

    def __init__(self, seed: int, elements: int = 6) -> None:
        self.rng = random.Random(seed)
        self.eids = [f"e{i}" for i in range(elements)]
        self.seq = {e: 0 for e in self.eids}
        self.level = {e: {} for e in self.eids}
        self.names = {
            e: BASE + tuple(n for n in DROPS if self.rng.random() < 0.6)
            for e in self.eids
        }
        self.t = 0.0

    def widen(self, eid: str) -> None:
        self.names[eid] = self.names[eid] + LATE

    def reset(self, eid: str) -> None:
        """The producer restarted: counters re-zeroed, seqs re-numbered."""
        self.level[eid] = {}
        self.seq[eid] = 0

    def row(self, eid: str):
        rng = self.rng
        self.seq[eid] += 1
        names = list(self.names[eid])
        if rng.random() < 0.3:
            rng.shuffle(names)  # reordered schema: the per-column scatter
        if rng.random() < 0.2:
            names = names[: max(1, len(names) - 2)]  # partial row
        level = self.level[eid]
        values = []
        for name in names:
            level[name] = level.get(name, 0.0) + rng.choice((0.0, 0.5, rng.uniform(0, 1e4)))
            values.append(ABSENT if rng.random() < 0.1 else level[name])
        return self.seq[eid], self.t, tuple(names), values

    def sweep(self, store: TimeSeriesStore, skip=()) -> None:
        self.t += self.rng.uniform(0.01, 0.05)
        for eid in self.eids:
            if eid not in skip:
                seq, t, names, values = self.row(eid)
                store.append_row(eid, "m1", seq, t, names, values)


def old_window_sums(store: TimeSeriesStore, window_s: float):
    """What ZoneController summed per mirror before the columnar pass."""
    rx_pkts = rx_bytes = lost = 0.0
    elements = 0
    last_ts = None
    for eid in store.element_ids():
        try:
            win = store.window_ending_now(eid, window_s)
        except StoreError:
            continue
        elements += 1
        rx_pkts += win.delta("rx_pkts")
        rx_bytes += win.delta("rx_bytes")
        lost += max(0.0, win.pkt_loss())
        ts = win.end.timestamp
        last_ts = ts if last_ts is None else max(last_ts, ts)
    return rx_pkts, rx_bytes, lost, elements, last_ts


def sums_key(sums):
    rx_pkts, rx_bytes, lost, elements, last_ts = sums
    return (rx_pkts.hex(), rx_bytes.hex(), lost.hex(), elements, last_ts)


def make_store(kind: str) -> TimeSeriesStore:
    if kind == "tiered":
        return TieredWindowStore(
            capacity_per_element=8,
            config=TierConfig(fine_slots=8, fanout=2, coarse_slots=4, coarse_tiers=2),
        )
    return TimeSeriesStore(capacity_per_element=8)


@pytest.mark.parametrize("kind", ["flat", "tiered"])
@pytest.mark.parametrize("seed", [3, 11, 2026])
class TestRowLossOracle:
    def test_row_loss_equals_window_loss(self, kind, seed):
        src = RowSource(seed)
        store = make_store(kind)
        for _ in range(5):
            src.sweep(store, skip={"e5"})  # e5 is missing at begin
        starts = {e: store.latest_row(e) for e in src.eids[:5]}
        snaps = {e: store.latest(e) for e in src.eids[:5]}
        with pytest.raises(StoreError):
            store.latest_row("e5")
        src.widen("e1")  # schema widened inside the window
        src.reset("e2")  # counter reset inside the window
        for _ in range(12):  # wraps the 8-slot ring
            src.sweep(store)
        assert store.resets.get("e2") == 1
        for eid in src.eids[:5]:
            columnar = _row_loss(eid, starts[eid], store.latest_row(eid))
            oracle = ContentionDetector._element_loss(
                CounterWindow(snaps[eid], store.latest(eid))
            )
            assert loss_key(columnar) == loss_key(oracle), eid
        assert starts["e1"][1] != store.latest_row("e1")[1]

    def test_window_totals_equal_window_sums(self, kind, seed):
        src = RowSource(seed)
        store = make_store(kind)
        assert store.window_totals(0.1) == (0.0, 0.0, 0.0, 0, None)
        for rnd in range(20):
            src.sweep(store, skip={"e4"} if rnd < 10 else ())
            if rnd == 8:
                src.widen("e0")
            if rnd == 12:
                src.reset("e3")
            for window_s in (0.02, 0.1, 5.0):
                assert sums_key(store.window_totals(window_s)) == sums_key(
                    old_window_sums(store, window_s)
                )


class TestWindowTotalsMemo:
    def test_memo_reused_until_the_store_changes(self):
        src = RowSource(5, elements=3)
        store = TimeSeriesStore()
        src.sweep(store)
        src.sweep(store)
        first = store.window_totals(0.1)
        assert store.window_totals(0.1) is first
        # a deduped re-observation stores nothing, so the memo holds
        assert not store.append_row("e0", "m1", src.seq["e0"], src.t + 1, ("rx_pkts",), [0.0])
        assert store.window_totals(0.1) is first
        src.sweep(store)
        again = store.window_totals(0.1)
        assert sums_key(again) == sums_key(old_window_sums(store, 0.1))
        assert again is not first

    def test_non_positive_window_rejected(self):
        store = TimeSeriesStore()
        RowSource(1, elements=1).sweep(store)
        with pytest.raises(ValueError):
            store.window_totals(0.0)


class TestFullRowCopy:
    def test_full_reordered_and_partial_rows_store_the_same_cells(self):
        """One slice copy for in-order full rows; the scatter otherwise."""
        fast, slow = TimeSeriesStore(), TimeSeriesStore()
        names = ("a", "b", "c")
        fast.append_row("e", "m", 1, 0.0, names, [1.0, 2.0, 3.0])
        slow.append_row("e", "m", 1, 0.0, names, [1.0, 2.0, 3.0])
        fast.append_row("e", "m", 2, 0.1, names, (4.0, ABSENT, 6.0))
        slow.append_row("e", "m", 2, 0.1, ("c", "a", "b"), [6.0, 4.0, ABSENT])
        fast.append_row("e", "m", 3, 0.2, ("a",), [7.0])
        slow.append_row("e", "m", 3, 0.2, ("a",), [7.0])
        assert [s.to_dict() for s in fast.changed_since({})] == [
            s.to_dict() for s in slow.changed_since({})
        ]
        assert fast.latest("e").attrs == {"a": 7.0}
        assert fast.latest_row("e")[2].tobytes() == slow.latest_row("e")[2].tobytes()


class StubHandle:
    """An in-process agent handle draining a scripted source store."""

    def __init__(self, store: TimeSeriesStore, stack) -> None:
        self.store = store
        self.stack = list(stack)

    def stack_element_ids(self):
        return list(self.stack)

    def collect_blocks(self, acked):
        return self.store.drain_blocks(acked)


class TestDetectorOracle:
    @pytest.mark.parametrize("seed", [4, 9])
    def test_scan_matches_window_oracle(self, seed):
        """A split-phase scan ranks exactly what CounterWindows would."""
        src = RowSource(seed)
        agent_store = TimeSeriesStore()
        zone = ZoneController("z", max_workers=1)
        stack = src.eids + ["ghost"]
        zone.register_agent("m1", StubHandle(agent_store, stack))
        for _ in range(4):
            src.sweep(agent_store, skip={"e5"})
        scan = zone.begin_fleet_scan(0.1)
        mirror = zone.mirror_for("m1").store
        starts = {e: mirror.latest(e) for e in src.eids[:5]}
        src.widen("e1")
        src.reset("e2")
        for _ in range(4):
            src.sweep(agent_store)
        report = zone.finish_fleet_scan(scan).reports["m1"]
        oracle = [
            ContentionDetector._element_loss(CounterWindow(starts[e], mirror.latest(e)))
            for e in src.eids[:5]
        ]
        oracle.sort(key=lambda el: -el.loss_pkts)
        assert [loss_key(el) for el in report.ranked] == [loss_key(el) for el in oracle]
        assert report.missing_elements == ["e5", "ghost"]

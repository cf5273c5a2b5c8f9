"""Algorithm 1: detect contention and bottleneck locations.

For every element in a machine's virtualization stack, observe a
:class:`CounterWindow` T seconds wide (two mirror refreshes bracketing
the interval — one delta-batched exchange each, not a per-element
pull), compute the element's packet loss (growth of in-minus-out,
exactly the paper's GetPktLoss), sort descending, and map the observed
drop locations through the Table-1 rule book.  Whether the loss is
spread across VMs (contention) or confined to one VM's path
(bottleneck) comes from the per-VM drop locations and the per-flow
attribution the buffers keep.

Cost is linear in the number of elements, as the paper notes.  The
scan reads each element's newest ring row at both ends of the window
(:meth:`~repro.core.store.TimeSeriesStore.latest_row`) and diffs the
rows through per-schema column indices, with exactly the float
operations :class:`CounterWindow` would perform; no snapshot dict or
window object is built per element.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.core.controller import COLLECTION_ERRORS, Controller
from repro.core.counters import CounterWindow
from repro.core.diagnosis.report import (
    CONFIDENCE_DEGRADED,
    CONFIDENCE_FULL,
    DIAGNOSIS_RUNS_METRIC,
    DIAGNOSIS_RUNTIME_METRIC,
    ContentionReport,
    ElementLoss,
)
from repro.core.rulebook import RuleBook
from repro.core.store import StoreError


@dataclass
class ContentionScan:
    """The window-start half of one machine's Algorithm-1 scan.

    Produced by :meth:`ContentionDetector.begin`, consumed by
    :meth:`ContentionDetector.finish`.  Splitting the scan at the window
    boundary is what lets a fleet diagnosis share ONE ``advance`` across
    machines: every machine's begin runs (concurrently) before time
    moves, then time moves once, then every finish runs — so all the
    per-machine windows measure the same interval.
    """

    machine: str
    window_s: float
    ids: List[str]
    #: element id -> its newest mirror row at begin:
    #: ``(machine, attr names, values copy)``.
    starts: Dict[str, Tuple[str, Tuple[str, ...], Sequence[float]]] = field(
        default_factory=dict
    )
    missing: List[str] = field(default_factory=list)
    #: ``time.perf_counter()`` at begin, for the runtime histogram.
    started_at: float = 0.0


class ContentionDetector:
    """FindContentionAndMiddlebox() over one machine's stack."""

    def __init__(
        self,
        controller: Controller,
        advance: Callable[[float], None],
        rulebook: Optional[RuleBook] = None,
        window_s: float = 1.0,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive: {window_s!r}")
        self.controller = controller
        self.advance = advance
        self.rulebook = rulebook if rulebook is not None else RuleBook()
        self.window_s = window_s

    def _stack_element_ids(self, machine_name: str) -> List[str]:
        agent = self.controller.agent_for(machine_name)
        stack_lister = getattr(agent, "stack_element_ids", None)
        if stack_lister is not None:
            try:
                return stack_lister()
            except COLLECTION_ERRORS:
                # The agent is unreachable; analyze whatever elements the
                # mirror already holds.  That loses the stack scoping (apps
                # rank alongside stack elements) but keeps the diagnosis
                # running — the report is marked degraded via the machine's
                # health state anyway.
                return self.controller.mirror_for(machine_name).store.element_ids()
        # Fall back to the machine walk for in-process agents.
        machine = getattr(agent, "machine", None)
        if machine is None:
            raise RuntimeError(
                f"agent for {machine_name!r} cannot enumerate stack elements"
            )
        return [e.name for e in machine.stack_elements()]

    def run(self, machine_name: str, window_s: Optional[float] = None) -> ContentionReport:
        """Refresh, wait, refresh, rank; returns the full report.

        Runs to completion on partial data: elements the mirror holds no
        counters for are skipped (and listed as missing), and when the
        machine's agent was unhealthy over the window — both ends served
        from an aging mirror — the whole report is marked degraded
        instead of presenting possibly stale verdicts as trusted.
        """
        with obs.span("diagnosis.contention", machine=machine_name) as sp:
            scan = self.begin(machine_name, window_s)
            self.advance(scan.window_s)
            report = self.finish(scan)
            self._annotate(sp, report)
        self._record_run(scan.started_at, report)
        return report

    # -- split-phase scan (fleet mode) -------------------------------------------

    def begin(
        self, machine_name: str, window_s: Optional[float] = None
    ) -> ContentionScan:
        """Open the diagnosis window: refresh and capture element starts.

        Thread-safe against other machines' begins — a fleet diagnosis
        fans begins out over a worker pool before advancing time once.
        """
        window = window_s if window_s is not None else self.window_s
        scan = ContentionScan(
            machine=machine_name,
            window_s=window,
            ids=self._stack_element_ids(machine_name),
            started_at=time.perf_counter(),
        )
        self.controller.refresh(machine_name)
        for eid in scan.ids:
            try:
                scan.starts[eid] = self.controller.mirror_latest_row(machine_name, eid)
            except (KeyError, StoreError):
                scan.missing.append(eid)
        return scan

    def finish(self, scan: ContentionScan) -> ContentionReport:
        """Close the window: refresh again, diff, rank, apply Table 1."""
        machine_name = scan.machine
        missing = list(scan.missing)
        self.controller.refresh(machine_name)

        ranked: List[ElementLoss] = []
        for eid in scan.ids:
            if eid in missing:
                continue
            try:
                end = self.controller.mirror_latest_row(machine_name, eid)
            except (KeyError, StoreError):
                missing.append(eid)
                continue
            ranked.append(_row_loss(eid, scan.starts[eid], end))
        ranked.sort(key=lambda el: -el.loss_pkts)

        drops_all: Dict[str, float] = {}
        for el in ranked:
            for loc, pkts in el.drops_by_location.items():
                drops_all[loc] = drops_all.get(loc, 0.0) + pkts
        verdicts = self.rulebook.diagnose_all(drops_all)
        quality = self.controller.data_quality(machine_name)
        degraded = quality.stale or bool(missing)
        report = ContentionReport(
            machine=machine_name,
            window_s=scan.window_s,
            ranked=ranked,
            verdicts=verdicts,
            data_quality=quality,
            missing_elements=missing,
            confidence=CONFIDENCE_DEGRADED if degraded else CONFIDENCE_FULL,
        )
        report.disambiguated = self._disambiguate(machine_name, verdicts)
        return report

    def finish_observed(self, scan: ContentionScan) -> ContentionReport:
        """:meth:`finish` wrapped in the per-machine span and metrics.

        Used by fleet mode, where begin and finish run in different
        worker threads so one span cannot bracket the whole scan; the
        runtime histogram still measures begin-to-finish via
        ``scan.started_at``.
        """
        with obs.span("diagnosis.contention", machine=scan.machine) as sp:
            report = self.finish(scan)
            self._annotate(sp, report)
        self._record_run(scan.started_at, report)
        return report

    @staticmethod
    def _annotate(sp, report: ContentionReport) -> None:
        sp.set("confidence", report.confidence)
        sp.set("verdicts", len(report.verdicts))
        if report.worst is not None:
            sp.set("worst", report.worst.element_id)

    @staticmethod
    def _record_run(started_at: float, report: ContentionReport) -> None:
        obs.observe(
            DIAGNOSIS_RUNTIME_METRIC, time.perf_counter() - started_at,
            algorithm="contention",
        )
        obs.counter(
            DIAGNOSIS_RUNS_METRIC,
            algorithm="contention", confidence=report.confidence,
        )

    def _disambiguate(self, machine_name: str, verdicts) -> Optional[str]:
        """Resolve a CPU-vs-memory-bandwidth verdict with host gauges.

        Section 5.1's operator step, automated: high CPU utilization
        implicates CPU; a busy memory bus with CPU headroom implicates
        the bus.  Returns the chosen resource id or None if nothing to
        disambiguate (or the agent cannot report host stats).
        """
        from repro.core.rulebook import CPU, MEMORY_BANDWIDTH

        ambiguous = [
            v for v in verdicts if set(v.resources) == {CPU, MEMORY_BANDWIDTH}
        ]
        if not ambiguous:
            return None
        agent = self.controller.agent_for(machine_name)
        host_stats = getattr(agent, "host_stats", None)
        if host_stats is None:
            return None
        stats = host_stats()
        cpu_util = stats.get("cpu_utilization")
        bus_util = stats.get("membus_utilization")
        # The bus gauge is decisive: a saturated memory bus explains the
        # TUN drops regardless of how busy the CPUs *look* (stalled
        # copies hold their CPU grants, so CPU utilization reads high
        # under bus contention too — the same trap as the busy-waiting
        # transcoder of Section 2.3).
        if bus_util >= 0.95:
            return MEMORY_BANDWIDTH
        if cpu_util >= 0.9:
            return CPU
        return None

    @staticmethod
    def _element_loss(window: CounterWindow) -> ElementLoss:
        """One Algorithm-1 row off a window (the oracle for :func:`_row_loss`)."""
        return ElementLoss(
            element_id=window.element_id,
            machine=window.machine,
            loss_pkts=window.pkt_loss(),
            drops_by_location=window.drops_by_location(),
            drops_by_flow=window.drops_by_flow(),
        )


class _LossPlan(NamedTuple):
    """Column indices one attr schema needs for an Algorithm-1 row."""

    rx: Optional[int]
    tx: Optional[int]
    #: ``(column, attr name, key)`` per ``drops.<key>`` attr, schema order.
    drops: Tuple[Tuple[int, str, str], ...]
    #: The same for ``drops_flow.<key>``.
    flows: Tuple[Tuple[int, str, str], ...]


#: Schema tuple -> plan.  Schemas repeat across elements, machines and
#: rounds; the cache is dropped wholesale if it ever grows past the bound.
_PLANS: Dict[Tuple[str, ...], _LossPlan] = {}
_MAX_PLANS = 4096


def _plan_for(names: Tuple[str, ...]) -> _LossPlan:
    plan = _PLANS.get(names)
    if plan is None:
        if len(_PLANS) >= _MAX_PLANS:
            _PLANS.clear()

        def prefixed(head: str) -> Tuple[Tuple[int, str, str], ...]:
            return tuple(
                (col, name, name[len(head):])
                for col, name in enumerate(names)
                if name.startswith(head)
            )

        index = {name: col for col, name in enumerate(names)}
        plan = _PLANS[names] = _LossPlan(
            index.get("rx_pkts"), index.get("tx_pkts"),
            prefixed("drops."), prefixed("drops_flow."),
        )
    return plan


def _row_loss(
    element_id: str,
    start: Tuple[str, Tuple[str, ...], Sequence[float]],
    end: Tuple[str, Tuple[str, ...], Sequence[float]],
) -> ElementLoss:
    """:meth:`ContentionDetector._element_loss` over two ring rows.

    Same float operations in the same order as
    :meth:`CounterWindow.pkt_loss` and :meth:`CounterWindow.growth`,
    same dict order (the end row's attr order), ABSENT cells and
    columns a row lacks read as 0.0.  The start row may carry an older,
    narrower schema (the series widened inside the window).
    """
    _, start_names, start_values = start
    machine, names, values = end
    plan = _plan_for(names)
    # None when both rows share the end row's columns (the usual case).
    start_cols = (
        None if start_names is names or start_names == names
        else {name: col for col, name in enumerate(start_names)}
    )

    def before(col: Optional[int], name: str) -> float:
        if start_cols is not None:
            col = start_cols.get(name)
        if col is None:
            return 0.0
        value = start_values[col]
        return value if value == value else 0.0

    def after(col: Optional[int]) -> float:
        if col is None:
            return 0.0
        value = values[col]
        return value if value == value else 0.0

    gap_start = before(plan.rx, "rx_pkts") - before(plan.tx, "tx_pkts")
    gap_end = after(plan.rx) - after(plan.tx)

    def growth(cols: Tuple[Tuple[int, str, str], ...]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for col, name, key in cols:
            # an ABSENT end cell makes delta NaN, which never counts
            delta = values[col] - before(col, name)
            if delta > 0:
                out[key] = delta
        return out

    return ElementLoss(
        element_id=element_id,
        machine=machine,
        loss_pkts=gap_end - gap_start,
        drops_by_location=growth(plan.drops),
        drops_by_flow=growth(plan.flows),
    )

"""Bounded buffers with staged arrivals and drop accounting.

Buffers are where software dataplanes lose packets, and *where* a packet is
lost is PerfSight's central diagnostic signal (Table 1).  Every buffer here
has a name (its drop location), optional packet and byte capacities, and a
drop policy:

* ``"drop"``  — tail-drop on overflow (pNIC ring, pCPU backlog enqueue,
  TUN socket queue, UDP socket buffers), with per-flow attribution.
* ``"block"`` — the producer must check :meth:`space_pkts` /
  :meth:`space_bytes` and withhold excess (QEMU <-> vNIC rings, TCP-backed
  socket buffers).  Writing past capacity on a blocking buffer is a wiring
  bug and raises.

Arrivals are *staged*: data pushed during ``process_tick`` becomes readable
only after ``commit()`` runs at end-of-tick.  This gives every hop exactly
one tick of latency regardless of component registration order, which keeps
contention experiments order-independent (DESIGN.md Section 6).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.simnet.engine import SimError
from repro.simnet.packet import PacketBatch

DropCallback = Callable[[str, PacketBatch], None]

_EPS = 1e-9
#: Batches below this size are "crumbs" — sub-byte fluid residue from
#: repeated fair-share splits.  They carry no information, but a crumb at
#: a queue head whose affordable fraction rounds to nothing would stall
#: budgeted pops forever, so crumbs are silently absorbed.
_CRUMB_PKTS = 1e-9
_CRUMB_BYTES = 1e-6


class Buffer:
    """A bounded FIFO of :class:`PacketBatch` with staged arrivals.

    Parameters
    ----------
    name:
        The drop-location name reported to the instrumentation layer.
    capacity_pkts / capacity_bytes:
        Either, both, or neither may be set (``None`` = unbounded on that
        axis).  The pCPU backlog is packet-bounded (300 packets per core in
        Linux); socket buffers are byte-bounded.
    policy:
        ``"drop"`` or ``"block"`` (see module docstring).
    on_drop:
        Callback ``(location, dropped_batch)`` so the owning element's
        counters record the loss.
    """

    def __init__(
        self,
        name: str,
        capacity_pkts: Optional[float] = None,
        capacity_bytes: Optional[float] = None,
        policy: str = "drop",
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        if policy not in ("drop", "block"):
            raise SimError(f"unknown buffer policy: {policy!r}")
        if capacity_pkts is not None and capacity_pkts <= 0:
            raise SimError(f"capacity_pkts must be positive: {capacity_pkts!r}")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise SimError(f"capacity_bytes must be positive: {capacity_bytes!r}")
        self.name = name
        self.capacity_pkts = capacity_pkts
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.on_drop = on_drop
        self._ready: Deque[PacketBatch] = deque()
        self._staged: List[PacketBatch] = []
        self._ready_pkts = 0.0
        self._ready_bytes = 0.0
        self._staged_pkts = 0.0
        self._staged_bytes = 0.0
        # Cumulative accounting (never reset; PerfSight samples diffs).
        self.total_in_pkts = 0.0
        self.total_in_bytes = 0.0
        self.total_out_pkts = 0.0
        self.total_out_bytes = 0.0
        self.total_drop_pkts = 0.0
        self.total_drop_bytes = 0.0
        self.drops_by_flow: Dict[str, float] = {}
        # Unused service capacity the consumer reports each tick: within
        # the tick the consumer could have drained this much more, so the
        # same amount of staged arrivals would have flowed through a real
        # (continuously drained) queue.  Credited as admission room at
        # commit, then reset.
        self._service_credit_pkts = 0.0
        self._service_credit_bytes = 0.0

    # -- occupancy ---------------------------------------------------------------

    @property
    def pkts(self) -> float:
        """Total occupancy (ready + staged), in packets."""
        return self._ready_pkts + self._staged_pkts

    @property
    def nbytes(self) -> float:
        """Total occupancy (ready + staged), in bytes."""
        return self._ready_bytes + self._staged_bytes

    @property
    def ready_pkts(self) -> float:
        return self._ready_pkts

    @property
    def ready_bytes(self) -> float:
        return self._ready_bytes

    def space_pkts(self) -> float:
        if self.capacity_pkts is None:
            return float("inf")
        room = self.capacity_pkts - (self._ready_pkts + self._staged_pkts)
        return room if room > 0.0 else 0.0

    def space_bytes(self) -> float:
        if self.capacity_bytes is None:
            return float("inf")
        room = self.capacity_bytes - (self._ready_bytes + self._staged_bytes)
        return room if room > 0.0 else 0.0

    @property
    def empty(self) -> bool:
        return self._ready_pkts <= _EPS and self._staged_pkts <= _EPS

    # -- producer side -------------------------------------------------------------

    def push(self, batch: PacketBatch) -> PacketBatch:
        """Stage a batch for next-tick availability.

        On a ``"drop"`` buffer the batch is staged unconditionally and
        capacity is enforced at :meth:`commit` — within one tick,
        enqueues and dequeues interleave in a real queue, so overflow
        depends on how much the consumer drained this tick, which is
        only known at the tick boundary.  (Push-time enforcement would
        make drops depend on component registration order.)

        On a ``"block"`` buffer producers must check space first, and
        the check is conservative (same-tick drains don't open room);
        pushing past capacity raises, since it is a wiring bug.

        Returns the batch (crumbs are absorbed, not staged).
        """
        pkts = batch.pkts
        nbytes = batch.nbytes
        # Crumbs (which include empty batches) are absorbed.
        if pkts < _CRUMB_PKTS and nbytes < _CRUMB_BYTES:
            return batch
        if self.policy == "block" and pkts > 0 and nbytes > 0:
            # The binding constraint may be either axis; the tighter one
            # decides.  Relative tolerance: float drift from fair-share
            # splits must not trip the wiring check.
            space = self.space_pkts()
            frac_pkts = (space if space < pkts else pkts) / pkts
            space = self.space_bytes()
            frac_bytes = (space if space < nbytes else nbytes) / nbytes
            frac = frac_bytes if frac_bytes < frac_pkts else frac_pkts
            if not frac >= 1.0 - 1e-9:
                raise SimError(
                    f"push past capacity on blocking buffer {self.name!r} "
                    f"(batch={batch!r}); producers must check space first"
                )
        self._staged.append(batch)
        self._staged_pkts += pkts
        self._staged_bytes += nbytes
        self.total_in_pkts += pkts
        self.total_in_bytes += nbytes
        return batch

    def _record_drop(self, batch: PacketBatch) -> None:
        self.total_drop_pkts += batch.pkts
        self.total_drop_bytes += batch.nbytes
        fid = batch.flow.flow_id
        self.drops_by_flow[fid] = self.drops_by_flow.get(fid, 0.0) + batch.pkts
        if self.on_drop is not None:
            self.on_drop(self.name, batch)

    # -- consumer side ----------------------------------------------------------------

    def pop_pkts(self, max_pkts: float) -> List[PacketBatch]:
        """Dequeue up to ``max_pkts`` packets of ready data, FIFO order."""
        return self._pop(max_pkts, float("inf"))

    def pop_bytes(self, max_bytes: float) -> List[PacketBatch]:
        """Dequeue up to ``max_bytes`` bytes of ready data, FIFO order."""
        return self._pop(float("inf"), max_bytes)

    def pop(self, max_pkts: float, max_bytes: float) -> List[PacketBatch]:
        """Dequeue subject to both a packet and a byte budget."""
        return self._pop(max_pkts, max_bytes)

    def _pop(self, max_pkts: float, max_bytes: float) -> List[PacketBatch]:
        out: List[PacketBatch] = []
        budget_p = max_pkts
        budget_b = max_bytes
        ready = self._ready
        ready_pkts = self._ready_pkts
        ready_bytes = self._ready_bytes
        while ready and budget_p > _EPS and budget_b > _EPS:
            head = ready[0]
            head_pkts = head.pkts
            head_bytes = head.nbytes
            if head_pkts < _CRUMB_PKTS and head_bytes < _CRUMB_BYTES:
                ready.popleft()
                ready_pkts -= head_pkts
                ready_pkts = ready_pkts if ready_pkts > 0.0 else 0.0
                ready_bytes -= head_bytes
                ready_bytes = ready_bytes if ready_bytes > 0.0 else 0.0
                continue
            if head_pkts <= budget_p + _EPS and head_bytes <= budget_b + _EPS:
                ready.popleft()
                taken = head
            else:
                # Split to fit whichever budget binds first.
                if head_pkts > 0 and head_bytes > 0:
                    frac = budget_p / head_pkts
                    frac_bytes = budget_b / head_bytes
                    if frac_bytes < frac:
                        frac = frac_bytes
                else:
                    frac = 0.0
                if frac <= _EPS:
                    break
                taken = head.split_pkts(head_pkts * frac)
                if head.empty:
                    ready.popleft()
                if taken.empty:
                    break
            taken_pkts = taken.pkts
            taken_bytes = taken.nbytes
            budget_p -= taken_pkts
            budget_b -= taken_bytes
            ready_pkts -= taken_pkts
            ready_bytes -= taken_bytes
            self.total_out_pkts += taken_pkts
            self.total_out_bytes += taken_bytes
            out.append(taken)
        # Clamp float drift.
        self._ready_pkts = 0.0 if ready_pkts < 0 else ready_pkts
        self._ready_bytes = 0.0 if ready_bytes < 0 else ready_bytes
        return out

    def pop_budgeted(self, costs: List[List[float]]) -> List[PacketBatch]:
        """Dequeue a FIFO prefix subject to joint linear cost budgets.

        ``costs`` is a list of ``[per_pkt, per_byte, budget]`` entries (one
        per resource the consumer holds a grant on); entries are mutated in
        place so the caller can observe leftover budget.  The head batch is
        split exactly where the first budget binds, so mixed packet sizes
        (e.g. a 64-byte flood interleaved with MTU traffic) are costed
        exactly rather than via an average packet size.
        """
        out: List[PacketBatch] = []
        ready = self._ready
        ready_pkts = self._ready_pkts
        ready_bytes = self._ready_bytes
        while ready:
            head = ready[0]
            head_pkts = head.pkts
            head_bytes = head.nbytes
            if head_pkts < _CRUMB_PKTS and head_bytes < _CRUMB_BYTES:
                # Absorb crumbs: too small to cost, would stall the loop.
                ready.popleft()
                ready_pkts -= head_pkts
                ready_pkts = ready_pkts if ready_pkts > 0.0 else 0.0
                ready_bytes -= head_bytes
                ready_bytes = ready_bytes if ready_bytes > 0.0 else 0.0
                continue
            frac = 1.0
            for per_pkt, per_byte, budget in costs:
                cost = per_pkt * head_pkts + per_byte * head_bytes
                if cost > budget:
                    share = budget / cost if cost > 0 else 1.0
                    if share < frac:
                        frac = share
            if frac <= _EPS:
                break
            if frac >= 1.0 - 1e-12:
                taken = ready.popleft()
            else:
                taken = head.split_pkts(head_pkts * frac)
                if head.empty:
                    ready.popleft()
                if taken.empty:
                    # No representable progress possible against the
                    # remaining budgets: stop rather than spin.
                    break
            taken_pkts = taken.pkts
            taken_bytes = taken.nbytes
            for entry in costs:
                entry[2] -= entry[0] * taken_pkts + entry[1] * taken_bytes
            ready_pkts -= taken_pkts
            ready_bytes -= taken_bytes
            self.total_out_pkts += taken_pkts
            self.total_out_bytes += taken_bytes
            out.append(taken)
        self._ready_pkts = 0.0 if ready_pkts < 0 else ready_pkts
        self._ready_bytes = 0.0 if ready_bytes < 0 else ready_bytes
        return out

    def report_service_credit(self, pkts: float, nbytes: float) -> None:
        """Consumer's unused drain capacity this tick (see commit)."""
        self._service_credit_pkts += pkts if pkts > 0.0 else 0.0
        self._service_credit_bytes += nbytes if nbytes > 0.0 else 0.0

    def peek_flows(self) -> Dict[str, Tuple[float, float]]:
        """Ready occupancy per flow id, as ``{flow_id: (pkts, bytes)}``."""
        acc: Dict[str, Tuple[float, float]] = {}
        for batch in self._ready:
            p, b = acc.get(batch.flow.flow_id, (0.0, 0.0))
            acc[batch.flow.flow_id] = (p + batch.pkts, b + batch.nbytes)
        return acc

    # -- tick boundary ------------------------------------------------------------------

    def commit(self) -> None:
        """Make staged arrivals readable (called at end-of-tick).

        Drop-policy buffers enforce capacity here: staged traffic beyond
        the room left after this tick's drains is discarded, FIFO.
        """
        credit_pkts = self._service_credit_pkts
        credit_bytes = self._service_credit_bytes
        self._service_credit_pkts = 0.0
        self._service_credit_bytes = 0.0
        staged = self._staged
        if not staged:
            return
        staged_pkts = self._staged_pkts
        staged_bytes = self._staged_bytes
        # Overflow is shared *proportionally* across this tick's staged
        # arrivals: within one tick the producers' frames interleave on
        # the real queue, so drop-tail hits each flow in proportion to
        # its offered excess — not by producer registration order.
        frac = 1.0
        if self.policy == "drop":
            if self.capacity_pkts is not None:
                room = self.capacity_pkts - self._ready_pkts
                room = (room if room > 0.0 else 0.0) + credit_pkts
                if staged_pkts > room + _EPS and staged_pkts > 0:
                    frac = room / staged_pkts
                    frac = frac if frac < 1.0 else 1.0
            if self.capacity_bytes is not None:
                room = self.capacity_bytes - self._ready_bytes
                room = (room if room > 0.0 else 0.0) + credit_bytes
                if staged_bytes > room + _EPS and staged_bytes > 0:
                    share = room / staged_bytes
                    if share < frac:
                        frac = share
        ready = self._ready
        for batch in staged:
            if frac < 1.0:
                accepted = batch.split_pkts(batch.pkts * frac)
                if not batch.empty:
                    # Staged totals already counted the full batch as
                    # input; the rejected remainder is a drop.
                    self._record_drop(batch)
                batch = accepted
                if batch.empty:
                    continue
            ready.append(batch)
            self._ready_pkts += batch.pkts
            self._ready_bytes += batch.nbytes
        staged.clear()
        self._staged_pkts = 0.0
        self._staged_bytes = 0.0

    def clear(self) -> None:
        """Discard all contents without drop accounting (reconfiguration)."""
        self._ready.clear()
        self._staged.clear()
        self._ready_pkts = self._ready_bytes = 0.0
        self._staged_pkts = self._staged_bytes = 0.0

    def __repr__(self) -> str:
        return (
            f"<Buffer {self.name!r} ready={self._ready_pkts:.1f}p/"
            f"{self._ready_bytes:.0f}B staged={self._staged_pkts:.1f}p "
            f"policy={self.policy}>"
        )

"""Virtual switch (Open vSwitch stand-in).

The NAPI routine hands frames to the switch by function call (no buffer in
between, per Figure 5), so the switch runs in the caller's tick: its
:meth:`submit` method does a rule lookup, updates per-rule statistics
(OVS keeps per-rule packet/byte counters, exported over the OpenFlow
control channel — Section 6), and forwards to the matched output port.

Rules match on flow id (exact) or on ``(tenant, dst_vm)`` with wildcards;
the most specific match wins, mirroring OVS priority semantics without
re-implementing header parsing the diagnosis never looks at (DESIGN.md
Section 6).  Frames with no matching rule are dropped at the switch,
which is itself a diagnosable location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.simnet.buffers import Buffer
from repro.simnet.element import Element, KIND_VSWITCH
from repro.simnet.engine import SimError, Simulator
from repro.simnet.packet import PacketBatch

PortTarget = Union[Buffer, Callable[[PacketBatch], None]]


@dataclass
class Rule:
    """One forwarding rule with OVS-style per-rule statistics."""

    rule_id: str
    out_port: str
    flow_id: Optional[str] = None
    tenant_id: Optional[str] = None
    dst_vm: Optional[str] = None
    priority: int = 0
    pkts: float = 0.0
    nbytes: float = 0.0

    def matches(self, batch: PacketBatch) -> bool:
        flow = batch.flow
        if self.flow_id is not None and self.flow_id != flow.flow_id:
            return False
        if self.tenant_id is not None and self.tenant_id != flow.tenant_id:
            return False
        if self.dst_vm is not None and self.dst_vm != flow.dst_vm:
            return False
        return True

    @property
    def specificity(self) -> int:
        return sum(f is not None for f in (self.flow_id, self.tenant_id, self.dst_vm))


class VirtualSwitch(Element):
    """Rule-based frame forwarding with per-rule counters."""

    def __init__(self, sim: Simulator, name: str, machine: str = "") -> None:
        super().__init__(sim, name, machine=machine, kind=KIND_VSWITCH)
        self._ports: Dict[str, PortTarget] = {}
        self._rules: List[Rule] = []
        self._rule_ids: Dict[str, Rule] = {}

    # -- configuration -------------------------------------------------------------

    def add_port(self, port: str, target: PortTarget) -> None:
        if port in self._ports:
            raise SimError(f"duplicate vswitch port: {port!r}")
        self._ports[port] = target

    def add_rule(
        self,
        rule_id: str,
        out_port: str,
        flow_id: Optional[str] = None,
        tenant_id: Optional[str] = None,
        dst_vm: Optional[str] = None,
        priority: int = 0,
    ) -> Rule:
        if out_port not in self._ports:
            raise SimError(f"rule {rule_id!r} references unknown port {out_port!r}")
        if rule_id in self._rule_ids:
            raise SimError(f"duplicate rule id: {rule_id!r}")
        rule = Rule(rule_id, out_port, flow_id, tenant_id, dst_vm, priority)
        self._rules.append(rule)
        self._rule_ids[rule_id] = rule
        # Keep sorted so lookup takes the first (most specific) match.
        self._rules.sort(key=lambda r: (-r.priority, -r.specificity))
        return rule

    def remove_rule(self, rule_id: str) -> None:
        rule = self._rule_ids.pop(rule_id, None)
        if rule is not None:
            self._rules.remove(rule)

    def rule(self, rule_id: str) -> Rule:
        try:
            return self._rule_ids[rule_id]
        except KeyError:
            raise SimError(f"no rule {rule_id!r}") from None

    def rules(self) -> List[Rule]:
        return list(self._rules)

    # -- datapath --------------------------------------------------------------------

    def submit(self, batch: PacketBatch) -> None:
        """Frame-handling entry point (called by NAPI, function-call style)."""
        pkts = batch.pkts
        nbytes = batch.nbytes
        if pkts <= 1e-12 and nbytes <= 1e-9:  # batch.empty
            return
        counters = self.counters
        counters.count_rx(pkts, nbytes)
        for rule in self._rules:
            if rule.matches(batch):
                break
        else:
            # Routed through the standard drop handler so lost TCP
            # segments are re-credited to their senders.
            self._on_buffer_drop(f"{self.name}.no_rule", batch)
            return
        rule.pkts += pkts
        rule.nbytes += nbytes
        target = self._ports[rule.out_port]
        if isinstance(target, Buffer):
            accepted = target.push(batch)
            if not accepted.empty:
                counters.count_tx(accepted.pkts, accepted.nbytes)
        else:
            counters.count_tx(pkts, nbytes)
            target(batch)

    # -- agent-facing ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        snap = super().snapshot()
        for rule in self._rules:
            snap[f"rule.{rule.rule_id}.pkts"] = rule.pkts
            snap[f"rule.{rule.rule_id}.bytes"] = rule.nbytes
        return snap

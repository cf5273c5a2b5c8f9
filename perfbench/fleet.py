"""Simulated machines, fleets and the fault schedule of the daemon workloads.

Every machine has the same 4-VM shape (37 elements exposed by its
agent): a UDP sink VM (``HttpServer``) fed by an open-loop external
source at a fixed rate below its 100 Mbps vNIC cap, and a
client -> proxy -> server tenant chain over TCP, one VM each.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.cluster.chains import build_chain
from repro.core.controller import FleetController, ZoneController
from repro.core.daemon import DaemonConfig, DiagnosisDaemon
from repro.core.net.client import ZoneClient
from repro.core.net.server import FleetServer
from repro.core.rulebook import CPU, VM_BOTTLENECK
from repro.middleboxes.http import HttpClient, HttpServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness
from repro.simnet.packet import Flow
from repro.workloads.faults import inject_perf_bug
from repro.workloads.stress import CpuHog
from repro.workloads.traffic import ExternalTrafficSource

MACHINES = 6
ZONES = 2
WINDOW_S = 0.1
PUSH_PERIOD_S = 0.05
ZONE_WORKERS = 1
VNIC_BPS = 100e6
#: Offered UDP load per sink, drawn per machine from the seed.
RATE_RANGE_BPS = (50e6, 70e6)
#: Simulated warm-up before collection starts (queues fill, TCP windows
#: open), then before the daemon starts (pushes fill the mirrors).
WARMUP_SIM_S = 0.5
PUSH_WARMUP_S = 0.2

#: Fault magnitudes: a spike to 4x the vNIC cap; Table 1's host-CPU
#: inducer (6 hogs x 400 threads); the perf-bug slowdown of the ``obs``
#: demo.
OVERLOAD_BPS = 400e6
HOGS, HOG_THREADS = 6, 400.0
SLOWDOWN = 50.0

FAULT_KINDS = ("vnic_overload", "mb_slowdown", "agent_silence", "cpu_contention")
#: Rounds between fault onsets (plus 0..2 seeded jitter) and rounds a
#: fault stays before it heals.
FAULT_EVERY = 12
FAULT_ROUNDS = 3


@dataclass
class MachineParts:
    name: str
    source: ExternalTrafficSource
    tenant_id: str
    proxy: Proxy
    hogs: List[CpuHog] = field(default_factory=list)


def add_machine(h: Harness, name: str, rate_bps: float) -> MachineParts:
    """One machine of the standard shape, its apps exposed to its agent."""
    machine = h.add_machine(name)
    vm = machine.add_vm("vm0", vcpu_cores=1.0, vnic_bps=VNIC_BPS)
    sink = HttpServer(h.sim, vm, f"sink-{name}", cpu_per_byte=1e-9)
    flow = Flow(f"rx-{name}", dst_vm="vm0", kind="udp")
    vm.bind_udp(flow, sink.socket)
    source = ExternalTrafficSource(
        h.sim, f"src-{name}", flow, machine.inject, rate_bps=rate_bps
    )
    tenant = h.add_tenant(f"tenant-{name}")
    client = HttpClient(h.sim, machine.add_vm("vm-client", vnic_bps=VNIC_BPS), f"client-{name}")
    proxy = Proxy(h.sim, machine.add_vm("vm-proxy", vnic_bps=VNIC_BPS), f"proxy-{name}")
    server = HttpServer(h.sim, machine.add_vm("vm-server", vnic_bps=VNIC_BPS), f"server-{name}")
    build_chain([client, proxy, server], tenant.vnet)
    # The sink app stays unregistered, as in the ``watch`` demo: a
    # registered sink reads as loss (rx without tx) in the coarse signal.
    for app in (client, proxy, server):
        h.register_app(app)
    return MachineParts(name, source, tenant.tenant_id, proxy)


def start_cpu_contention(h: Harness, parts: MachineParts) -> None:
    if not parts.hogs:
        cpu = h.machines[parts.name].cpu
        parts.hogs = [
            CpuHog(h.sim, f"hog{i}-{parts.name}", cpu, threads=HOG_THREADS)
            for i in range(HOGS)
        ]
    for hog in parts.hogs:
        hog.start()


def stop_cpu_contention(parts: MachineParts) -> None:
    for hog in parts.hogs:
        hog.stop()


@dataclass
class Fault:
    kind: str
    machine: str
    start: int  # first faulty round (the fault is injected before its tick)
    heal: int  # first healed round


def fault_schedule(seed: int, machines: List[str], first: int, rounds: int) -> List[Fault]:
    """Onsets every ~FAULT_EVERY rounds, cycling the four kinds in order.

    The seed picks each victim and each onset's jitter.  The order is
    fixed so every run of the same length injects the same mix.
    """
    rng = random.Random(seed * 7919 + 17)
    faults, start, k = [], first, 0
    while start < rounds:
        kind = FAULT_KINDS[k % len(FAULT_KINDS)]
        faults.append(Fault(kind, rng.choice(machines), start, start + FAULT_ROUNDS))
        start += FAULT_EVERY + rng.randrange(3)
        k += 1
    return faults


def localized(fault: Fault, incident) -> bool:
    """Did an incident on the victim name the fault's ground truth?

    vNIC overload is a Table-1 VM bottleneck at the TUN; host-CPU
    contention is a Table-1 CPU shortage at the TUN; a middlebox
    slowdown is localized when Algorithm 2 blames exactly that proxy;
    a silent agent when the incident was opened for staleness.
    """
    if incident.machine != fault.machine:
        return False
    if fault.kind == "agent_silence":
        return incident.reason == "staleness"
    if fault.kind == "mb_slowdown":
        blamed = {
            v.split("name='", 1)[1].split("'", 1)[0]
            for v in incident.verdicts
            if v.startswith("MiddleboxVerdict(") and "is_root_cause=True" in v
        }
        return blamed == {f"proxy-{fault.machine}"}
    want = VM_BOTTLENECK if fault.kind == "vnic_overload" else CPU
    return any(
        v.startswith("Verdict(location_class='tun'") and f"'{want}'" in v
        for v in incident.verdicts
    )


class DaemonFleet:
    """The 6-machine, 2-zone fleet driven by a :class:`DiagnosisDaemon`.

    ``wire`` sends the coarse zone reports to a :class:`FleetServer`
    over TCP (one :class:`ZoneClient` per zone) under an installed obs
    hub; otherwise they are ingested in process with obs uninstalled.
    """

    def __init__(self, seed: int, wire: bool) -> None:
        rng = random.Random(seed)
        self.wire = wire
        self.h = Harness(seed=seed)
        self.parts: Dict[str, MachineParts] = {}
        for i in range(MACHINES):
            name = f"host-{i:03d}"
            self.parts[name] = add_machine(self.h, name, rng.uniform(*RATE_RANGE_BPS))
        self.h.advance(WARMUP_SIM_S)

        h = self.h
        self.fleet = FleetController("root", clock=lambda: h.sim.now)
        self.fleet.track_machines(h.agents)
        self.zones: Dict[str, ZoneController] = {}
        for z in range(ZONES):
            zname = f"zone-{z}"
            self.fleet.register_zone(zname)
            self.zones[zname] = ZoneController(zname, max_workers=ZONE_WORKERS)
        self.zone_of: Dict[str, str] = {}
        for zname, machines in self.fleet.shards().items():
            for m in machines:
                self.zones[zname].register_local_agent(h.agents[m])
                self.zones[zname].register_tenant(h.controller.tenant(self.parts[m].tenant_id))
                self.zone_of[m] = zname
        for m in sorted(self.parts):
            h.agents[m].start_pushing(self.zones[self.zone_of[m]], period_s=PUSH_PERIOD_S)
        h.advance(PUSH_WARMUP_S)

        self.server: Optional[FleetServer] = None
        self.links: Dict[str, ZoneClient] = {}
        self.undelivered = 0
        if wire:
            self.hub = obs.install()
            self.server = FleetServer(self.fleet).start()
            host, port = self.server.address
            for zname in self.zones:
                self.links[zname] = ZoneClient(host, port, name=f"{zname}-link")
                self.links[zname].subscribe(zname)
            sink = self._push_report
        else:
            obs.uninstall()
            self.hub = None
            sink = self._ingest_report
        #: perf_counter() at the end of the latest simulated-time advance.
        self.advance_end = 0.0
        tenant_for = {m: p.tenant_id for m, p in self.parts.items()}
        self.daemon = DiagnosisDaemon(
            self.zones,
            self._advance,
            fleet=self.fleet,
            config=DaemonConfig(window_s=WINDOW_S),
            agents=h.agents,
            report_sink=sink,
            tenant_for=tenant_for.get,
            clock=lambda: h.sim.now,
        )
        self._undo: Dict[int, Callable[[], None]] = {}

    def _advance(self, seconds: float) -> None:
        self.h.advance(seconds)
        self.advance_end = time.perf_counter()

    def _push_report(self, zname: str, report) -> None:
        if not self.links[zname].push_report(report.to_wire()):
            self.undelivered += 1

    def _ingest_report(self, zname: str, report) -> None:
        if not self.fleet.ingest_zone_report(report, self.h.sim.now):
            self.undelivered += 1

    def tick(self):
        """One closed-loop round: daemon tick, then the root roll-up."""
        result = self.daemon.tick()
        self.fleet.rollup(self.h.sim.now)
        return result

    # -- faults ------------------------------------------------------------------

    def inject(self, fault: Fault) -> None:
        parts = self.parts[fault.machine]
        if fault.kind == "vnic_overload":
            rate = parts.source.rate_bps
            parts.source.set_rate(rate_bps=OVERLOAD_BPS)
            self._undo[id(fault)] = lambda: parts.source.set_rate(rate_bps=rate)
        elif fault.kind == "cpu_contention":
            start_cpu_contention(self.h, parts)
            self._undo[id(fault)] = lambda: stop_cpu_contention(parts)
        elif fault.kind == "mb_slowdown":
            self._undo[id(fault)] = inject_perf_bug(parts.proxy, SLOWDOWN)
        else:
            agent = self.h.agents[fault.machine]
            zone = self.zones[self.zone_of[fault.machine]]
            agent.stop_pushing()
            self._undo[id(fault)] = lambda: agent.start_pushing(
                zone, period_s=PUSH_PERIOD_S
            )

    def heal(self, fault: Fault) -> None:
        self._undo.pop(id(fault))()

    def close(self) -> None:
        for link in self.links.values():
            link.close()
        if self.server is not None:
            self.server.shutdown()
        for agent in self.h.agents.values():
            if agent.pushing:
                agent.stop_pushing()
            if agent.polling:
                agent.stop_polling()
        if self.hub is not None:
            obs.uninstall()


"""Golden equivalence: the simulator's counters must not drift.

Short runs of the paper scenarios (Figs. 8, 10-13, Tables 1-2) and of the
6-machine daemon fleet shape record every element's ``snapshot()`` and
every resource's cumulative ``total_granted`` / ``total_capacity_seen``.
The recorded values live in ``golden/simnet_golden.json``; any change to
the stepping engine, elements, buffers or arbitration must reproduce
them.  On the interpreter that recorded them the comparison is exact
(``float.hex``); other versions compare at rel 1e-12, since Python 3.12
changed the rounding of the builtin ``sum()``.  An element counter may
also differ by up to one ulp of that element's largest counter: a
near-zero residue (an emptied queue's ``queue_bytes``) carries the
rounding of the large totals it was computed from.  On 3.12.1 the worst
such residue differs by a quarter of that ulp (fig08 queue bytes).

Scenarios are shortened by scaling every ``Harness.advance`` call, so
each keeps its phase structure (faults start and stop, queries run) at
a fraction of the simulated time.

Regenerate (only when a counter change is intended)::

    PYTHONPATH=src python tests/test_simnet_golden.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.scenarios.common import Harness
from repro.simnet.element import Element
from repro.simnet.engine import Simulator

GOLDEN = Path(__file__).parent / "golden" / "simnet_golden.json"


def _fig08() -> None:
    from repro.scenarios.fig08_validation import build_and_run

    build_and_run()


def _fig10() -> None:
    from repro.scenarios.fig10_backlog_contention import build_and_run

    build_and_run()


def _fig11() -> None:
    from repro.scenarios.fig11_membw_contention import build_and_run

    build_and_run()


def _fig12() -> None:
    from repro.scenarios.fig12_propagation import CASES, build_and_run

    for case in CASES:
        build_and_run(case)


def _fig13() -> None:
    from repro.scenarios.fig13_operator import build_and_run

    build_and_run()


def _table1() -> None:
    from repro.scenarios.table1_rulebook import run_all

    run_all()


def _table2() -> None:
    from repro.scenarios.overhead import run_table2

    run_table2(repetitions=1)


def _fleet6() -> None:
    """The daemon workloads' machine shape, six machines, faults mid-run.

    Each machine: a UDP sink VM fed below its 100 Mbps vNIC cap and a
    client -> proxy -> server tenant chain.  Scheduled events slow a
    proxy, add CPU hogs (components registered mid-run), overload a
    source and resize a vNIC.
    """
    from repro.cluster.chains import build_chain
    from repro.middleboxes.http import HttpClient, HttpServer
    from repro.middleboxes.proxy import Proxy
    from repro.simnet.packet import Flow
    from repro.workloads.faults import inject_perf_bug
    from repro.workloads.stress import CpuHog
    from repro.workloads.traffic import ExternalTrafficSource

    h = Harness(seed=3)
    sources, proxies = [], []
    for i in range(6):
        name = f"host-{i:03d}"
        machine = h.add_machine(name)
        vm = machine.add_vm("vm0", vcpu_cores=1.0, vnic_bps=100e6)
        sink = HttpServer(h.sim, vm, f"sink-{name}", cpu_per_byte=1e-9)
        flow = Flow(f"rx-{name}", dst_vm="vm0", kind="udp")
        vm.bind_udp(flow, sink.socket)
        sources.append(ExternalTrafficSource(
            h.sim, f"src-{name}", flow, machine.inject, rate_bps=50e6 + 4e6 * i
        ))
        tenant = h.add_tenant(f"tenant-{name}")
        client = HttpClient(h.sim, machine.add_vm("vm-client", vnic_bps=100e6), f"client-{name}")
        proxy = Proxy(h.sim, machine.add_vm("vm-proxy", vnic_bps=100e6), f"proxy-{name}")
        server = HttpServer(h.sim, machine.add_vm("vm-server", vnic_bps=100e6), f"server-{name}")
        build_chain([client, proxy, server], tenant.vnet)
        proxies.append(proxy)

    def hogs() -> None:
        for k in range(6):
            CpuHog(h.sim, f"hog{k}-host-002", h.machines["host-002"].cpu, threads=400.0)

    h.sim.schedule(0.1, lambda: inject_perf_bug(proxies[1], 50.0))
    h.sim.schedule(0.15, hogs)
    h.sim.schedule(0.2, lambda: sources[3].set_rate(400e6))
    h.sim.schedule(0.25, lambda: h.machines["host-004"].vm("vm0").set_vnic_bps(200e6))
    h.sim.run(0.35)


#: case -> (driver, time scale applied to every Harness.advance).
CASES: Dict[str, tuple] = {
    "fig08": (_fig08, 0.02),
    "fig10": (_fig10, 0.05),
    "fig11": (_fig11, 0.03),
    "fig12": (_fig12, 0.05),
    "fig13": (_fig13, 0.05),
    "table1": (_table1, 0.1),
    "table2": (_table2, 0.05),
    "fleet6": (_fleet6, 1.0),
}


def _hex(value: float) -> str:
    return float(value).hex()


def record(case: str, patch: Callable[[object, str, object], None]) -> Dict[str, dict]:
    """Run one case; return its per-simulator element and resource values.

    ``patch(owner, attr, value)`` installs the advance scaling and the
    simulator capture (``monkeypatch.setattr`` in tests).
    """
    driver, scale = CASES[case]
    sims: List[Simulator] = []
    original_init = Simulator.__init__

    def capturing_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        sims.append(self)

    def scaled_advance(self, seconds: float) -> None:
        self.sim.run(seconds * scale)

    patch(Simulator, "__init__", capturing_init)
    patch(Harness, "advance", scaled_advance)
    driver()
    out: Dict[str, dict] = {}
    for n, sim in enumerate(sims):
        elements = {
            comp.name: {k: _hex(v) for k, v in sorted(comp.snapshot().items())}
            for comp in sim.components
            if isinstance(comp, Element)
        }
        resources = {
            res.name: [_hex(res.total_granted), _hex(res.total_capacity_seen)]
            for res in sim._resources
        }
        out[str(n)] = {
            "ticks": sim.tick_index,
            "elements": elements,
            "resources": resources,
        }
    return out


def _load() -> dict:
    with GOLDEN.open(encoding="utf-8") as fh:
        return json.load(fh)


def _same(expected: str, actual: str, exact: bool, scale: float = 0.0) -> bool:
    """Equal, or (``exact`` off) within rel 1e-12 or one ulp of ``scale``."""
    if exact:
        return expected == actual
    a, b = float.fromhex(expected), float.fromhex(actual)
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=max(1e-15, math.ulp(scale)))


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_match_golden(case, monkeypatch):
    golden = _load()
    exact = golden["python"] == list(sys.version_info[:2])
    want = golden["cases"][case]
    got = record(case, monkeypatch.setattr)
    assert sorted(got) == sorted(want), "simulator count changed"
    mismatches = []
    for n, world in want.items():
        mine = got[n]
        assert mine["ticks"] == world["ticks"]
        assert sorted(mine["elements"]) == sorted(world["elements"])
        assert sorted(mine["resources"]) == sorted(world["resources"])
        for name, attrs in world["elements"].items():
            assert sorted(mine["elements"][name]) == sorted(attrs), name
            scale = max((abs(float.fromhex(v)) for v in attrs.values()), default=0.0)
            for attr, value in attrs.items():
                if not _same(value, mine["elements"][name][attr], exact, scale):
                    mismatches.append((n, name, attr, value, mine["elements"][name][attr]))
        for name, pair in world["resources"].items():
            for label, value, actual in zip(
                ("total_granted", "total_capacity_seen"), pair, mine["resources"][name]
            ):
                if not _same(value, actual, exact):
                    mismatches.append((n, name, label, value, actual))
    assert not mismatches, f"{len(mismatches)} values drifted, first: {mismatches[:5]}"


def main() -> None:
    cases = {}
    for case in sorted(CASES):
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            cases[case] = record(case, patch)
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
    GOLDEN.parent.mkdir(exist_ok=True)
    payload = {"python": list(sys.version_info[:2]), "cases": cases}
    with GOLDEN.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

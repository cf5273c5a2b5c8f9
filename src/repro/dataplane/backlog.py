"""pCPU backlog queue and the NAPI processing routine.

The backlog is the most contended buffer in the stack: *both* directions
of *every* VM cross it (received frames are enqueued by the pNIC driver;
transmitted frames are enqueued by each VM's TAP transmit function — see
Section 6 of the paper).  Linux bounds it to 300 packets per core, so a
VM flooding small packets can crowd everyone else out of the queue while
using almost no bandwidth — the Figure 10 experiment.

Drops at the enqueue are recorded at location ``pcpu_backlog`` (the
"Backlog Enqueue" symptom of Table 1), with per-flow attribution kept by
the underlying buffer.  The NAPI element drains the backlog, paying host
CPU per packet (this cost includes the virtual-switch lookup, which is a
function call from NAPI in Figure 5) and memory-bus bytes, and hands each
frame to the virtual switch in the same tick.
"""

from __future__ import annotations

from repro.dataplane.params import DataplaneParams
from repro.dataplane.queue_element import QueueElement
from repro.simnet.element import Element, KIND_PROCFS
from repro.simnet.engine import Simulator
from repro.simnet.resources import Resource


class BacklogQueue(QueueElement):
    """The shared pCPU backlog; drop location ``pcpu_backlog``.

    ``n_queues`` scales capacity (one 300-packet queue per core in Linux);
    experiments that pin contending traffic to one core pass 1.
    """

    def __init__(
        self,
        sim: Simulator,
        machine: str,
        params: DataplaneParams,
        n_queues: int = 1,
    ) -> None:
        if n_queues < 1:
            raise ValueError(f"n_queues must be >= 1: {n_queues!r}")
        super().__init__(
            sim,
            f"backlog@{machine}",
            machine=machine,
            kind=KIND_PROCFS,
            capacity_pkts=params.backlog_pkts_per_queue * n_queues,
            location="pcpu_backlog",
        )
        self.n_queues = n_queues


class Napi(Element):
    """The NAPI routine: backlog -> virtual switch (function call)."""

    def __init__(
        self,
        sim: Simulator,
        machine: str,
        params: DataplaneParams,
        backlog: BacklogQueue,
        cpu: Resource,
        vswitch_submit,
    ) -> None:
        super().__init__(sim, f"napi@{machine}", machine=machine, kind=KIND_PROCFS)
        self.attach_input(backlog.queue, owned=False)
        self.claim(
            cpu,
            per_pkt=params.cpu_per_pkt_napi,
            per_byte=params.cpu_per_byte_host,
            is_cpu=True,
            priority=1,  # softirq context preempts user processes
        )
        #: softirq for one backlog queue runs on one core.
        self.max_cores = float(backlog.n_queues)
        self.out = vswitch_submit

    def begin_tick(self, sim):
        buf = self.in_buf
        if buf is None:
            return
        pkts = buf.pkts
        nbytes = buf.nbytes
        counters = self.counters
        owed = self._overhead_owed_s + counters._pending_update_cost_s
        counters._pending_update_cost_s = 0.0
        self._overhead_owed_s = owed
        for c in self.claims:
            demand = c.per_pkt * pkts + c.per_byte * nbytes
            if c.is_cpu:
                demand += owed
                cores = self.max_cores * sim.tick
                if cores < demand:
                    demand = cores
            if demand > 0:
                c.resource.request(self.name, demand, c.weight, c.priority)

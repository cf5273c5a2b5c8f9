"""Which public calls are traced, and the per-layer metrics derived from them.

Layer names follow the program's modules.  Every ``*_s`` metric is
seconds per timed round (self time unless stated); counts are per
timed round; ratios say what they divide.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable

from repro.core import daemon as daemon_mod
from repro.core.agent import Agent
from repro.core.controller import AgentMirror, FleetController, ZoneController
from repro.core.diagnosis.contention import ContentionDetector
from repro.core.diagnosis.propagation import RootCauseLocator
from repro.core.net import codec
from repro.core.net.client import ZoneClient
from repro.core.store import TimeSeriesStore
from repro.simnet.engine import Component, Simulator
from repro.simnet.resources import Resource

from perfbench.replay import ReplayHandle
from perfbench.tracing import ARBITRATION, HOOKS, Tracer, self_times

#: Hook groups: the package that defines the hook (``simnet`` covers the
#: generic element processing inherited from ``repro.simnet.element``).
HOOK_GROUPS = ("dataplane", "middleboxes", "workloads", "transport", "simnet")


def _hook_group(cls: type) -> str:
    parts = cls.__module__.split(".")
    group = parts[1] if len(parts) > 1 and parts[0] == "repro" else "benchmark"
    return group if group in HOOK_GROUPS else "simnet"


def _rows_in(blocks) -> int:
    return sum(len(b[3]) for b in blocks)


def install(tracer: Tracer) -> None:
    """Wrap every traced call; call before the world is built.

    Agents capture bound ``poll_once``/``push_once`` methods when their
    cadence starts, so the class attributes must be wrapped first.
    """
    tracer.patch_method(Simulator, "step", "simnet.step", with_hooks=True)
    tracer.patch_hooks(Component, HOOKS, _hook_group, skip_base=True)
    tracer.patch_hooks(Resource, ARBITRATION, lambda cls: "arbitration", skip_base=False)
    tracer.patch_method(Agent, "poll_once", "agent.sweep")
    tracer.patch_method(Agent, "push_once", "agent.push")
    tracer.patch_method(ZoneController, "ingest_push", "zone.ingest_push")
    tracer.patch_method(AgentMirror, "sync", "zone.sync")
    tracer.patch_method(
        TimeSeriesStore, "apply_blocks", "mirror.apply", count=lambda a, r: r
    )
    tracer.patch_method(ZoneController, "begin_fleet_scan", "zone.scan_begin")
    tracer.patch_method(ZoneController, "finish_fleet_scan", "zone.scan_finish")
    tracer.patch_method(ZoneController, "build_coarse_report", "zone.coarse")
    tracer.patch_method(ZoneController, "build_zone_report", "zone.report")
    tracer.patch_method(FleetController, "ingest_zone_report", "root.ingest")
    tracer.patch_method(FleetController, "check_zones", "root.check_zones")
    tracer.patch_method(FleetController, "rollup", "root.rollup")
    tracer.patch_method(
        ZoneClient, "push_report", "wire.report", remote=True,
        count=lambda a, r: 1.0 if r else 0.0,
    )
    tracer.patch_method(
        ContentionDetector, "finish", "diagnosis.alg1",
        count=lambda a, r: len(a[1].ids),
    )
    tracer.patch_method(RootCauseLocator, "run", "diagnosis.alg2")
    tracer.patch_method(daemon_mod.DiagnosisDaemon, "tick", "daemon.tick")
    tracer.patch_function(
        codec, "encode_batch_response", "codec.encode",
        count=lambda a, r: len(r),
    )
    tracer.patch_function(
        codec, "decode_batch_response", "codec.decode",
        count=lambda a, r: _rows_in(r.blocks),
    )
    tracer.patch_function(codec, "encode_zone_report", "codec.encode_report")
    tracer.patch_function(codec, "decode_zone_report", "codec.decode_report")
    tracer.patch_method(ReplayHandle, "drain", "replay.source")


def per_layer(
    tracer: Tracer,
    rounds: Iterable[int],
    costs: Dict[str, float],
    components: int,
    machines: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics over the timed ``rounds`` of a traced run."""
    rounds = set(rounds)
    n = max(len(rounds), 1)
    records = [r for r in tracer.records if r[0] in rounds]
    own = self_times(records, costs["span_in"], costs["span_out"], costs["hook_out"])
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    wall = 0.0
    for rec in records:
        self_s[rec[3]] += own[rec[1]]
        calls[rec[3]] += 1
        if rec[2] is None and rec[3] == "round":
            wall += rec[5] - rec[4]
    hook_s: Dict[str, float] = defaultdict(float)
    hook_n: Dict[str, int] = defaultdict(int)
    for rnd in rounds:
        for group, (count, total) in tracer.hook_rounds.get(rnd, {}).items():
            hook_s[group] += total - costs["hook_in"] * count
            hook_n[group] += count
    span_calls = sum(calls.values()) - calls["round"]
    overhead = span_calls * (costs["span_in"] + costs["span_out"]) + sum(
        hook_n.values()
    ) * (costs["hook_in"] + costs["hook_out"])
    counts: Dict[str, float] = defaultdict(float)
    for (rnd, name), value in tracer.counts.items():
        if rnd in rounds:
            counts[name] += value
    ticks = calls["simnet.step"]
    simnet_total = self_s["simnet.step"] + sum(hook_s.values())
    alg1_elements = counts.get("diagnosis.alg1", 0.0)
    frames = calls["codec.encode"]
    decoded_rows = counts.get("codec.decode", 0.0)
    reports = calls["wire.report"]

    def per_round(x: float) -> float:
        return x / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "simnet.ticks": per_round(ticks),
        "simnet.dispatch_s": per_round(self_s["simnet.step"]),
        "simnet.arbitration_s": per_round(hook_s["arbitration"]),
        "simnet.ns_per_component_tick": ratio(simnet_total * 1e9, ticks * components),
        "dataplane.hook_s": per_round(hook_s["dataplane"]),
        "dataplane.hook_calls": per_round(hook_n["dataplane"]),
        "middleboxes.hook_s": per_round(hook_s["middleboxes"]),
        "middleboxes.hook_calls": per_round(hook_n["middleboxes"]),
        "workloads.hook_s": per_round(hook_s["workloads"]),
        "simnet.hook_s": per_round(hook_s["simnet"]),
        "transport.hook_s": per_round(hook_s["transport"]),
        "agent.sweeps": per_round(calls["agent.sweep"]),
        "agent.sweep_s": per_round(self_s["agent.sweep"]),
        "agent.elements_read": per_round(extra.get("elements_read", 0.0)),
        "agent.store_ratio": ratio(extra.get("rows_stored", 0.0), extra.get("elements_read", 0.0)),
        "agent.push_ticks": per_round(calls["agent.push"]),
        "agent.push_ship_ratio": ratio(extra.get("pushes", 0.0), extra.get("push_ticks", 0.0)),
        "agent.push_s": per_round(self_s["agent.push"]),
        "agent.rows_pushed": per_round(extra.get("rows_pushed", 0.0)),
        "mirror.apply_s": per_round(self_s["mirror.apply"]),
        "mirror.rows_applied": per_round(counts.get("mirror.apply", 0.0)),
        "store.fine_bytes_per_machine": extra.get("fine_bytes", 0.0) / machines,
        "store.coarse_bytes_per_machine": extra.get("coarse_bytes", 0.0) / machines,
        "codec.encode_s": per_round(self_s["codec.encode"] + self_s["codec.encode_report"]),
        "codec.decode_s": per_round(self_s["codec.decode"] + self_s["codec.decode_report"]),
        "codec.frames": per_round(frames + calls["codec.encode_report"]),
        "codec.bytes_per_row": ratio(counts.get("codec.encode", 0.0), decoded_rows),
        "wire.report_s": per_round(self_s["wire.report"]),
        "wire.reports": per_round(reports),
        "wire.accept_ratio": ratio(counts.get("wire.report", 0.0), reports),
        "zone.sync_s": per_round(self_s["zone.sync"]),
        "zone.syncs": per_round(calls["zone.sync"]),
        "zone.ingest_push_s": per_round(self_s["zone.ingest_push"]),
        "zone.scan_begin_s": per_round(self_s["zone.scan_begin"]),
        "zone.scan_finish_s": per_round(self_s["zone.scan_finish"]),
        "zone.coarse_s": per_round(self_s["zone.coarse"]),
        "zone.report_s": per_round(self_s["zone.report"]),
        "root.ingest_s": per_round(self_s["root.ingest"]),
        "root.check_zones_s": per_round(self_s["root.check_zones"]),
        "root.rollup_s": per_round(self_s["root.rollup"]),
        "diagnosis.alg1_runs": per_round(calls["diagnosis.alg1"]),
        "diagnosis.alg1_s": per_round(self_s["diagnosis.alg1"]),
        "diagnosis.alg1_us_per_element": ratio(self_s["diagnosis.alg1"] * 1e6, alg1_elements),
        "diagnosis.alg2_runs": per_round(calls["diagnosis.alg2"]),
        "diagnosis.alg2_s": per_round(self_s["diagnosis.alg2"]),
        "daemon.self_s": per_round(self_s["daemon.tick"]),
        "daemon.escalated_machine_rounds": per_round(extra.get("escalated", 0.0)),
        "daemon.incidents": extra.get("incidents", 0.0),
        "daemon.detect_rounds": extra.get("detect_rounds", 0.0),
        "diagnosis.fault_miss_rate": extra.get("fault_miss_rate", 0.0),
        "diagnosis.false_alarm_rate": extra.get("false_alarm_rate", 0.0),
        "obs.spans": per_round(extra.get("obs_spans", 0.0)),
        "obs.events": per_round(extra.get("obs_events", 0.0)),
        "benchmark.replay_s": per_round(self_s["replay.source"]),
        "trace.residual": ratio(self_s["round"], wall - overhead),
    }
    m.update(layer_shares(self_s, hook_s, wall - overhead))
    return m


#: Span/hook name -> the layer it is billed to in the share breakdown.
SHARE_OF = {
    "simnet.step": "simnet", "dataplane": "simnet", "middleboxes": "simnet",
    "workloads": "simnet", "transport": "simnet", "simnet": "simnet",
    "arbitration": "simnet",
    "agent.sweep": "agent", "agent.push": "agent",
    "zone.ingest_push": "store", "mirror.apply": "store",
    "zone.sync": "controller", "zone.scan_begin": "controller",
    "zone.scan_finish": "controller", "zone.coarse": "controller",
    "zone.report": "controller", "root.ingest": "controller",
    "root.check_zones": "controller", "root.rollup": "controller",
    "diagnosis.alg1": "diagnosis", "diagnosis.alg2": "diagnosis",
    "codec.encode": "codec", "codec.decode": "codec",
    "codec.encode_report": "codec", "codec.decode_report": "codec",
    "wire.report": "wire", "daemon.tick": "daemon",
    "replay.source": "benchmark",
}
SHARES = ("simnet", "agent", "store", "controller", "diagnosis", "codec", "wire", "daemon", "benchmark")


def layer_shares(self_s, hook_s, wall: float) -> Dict[str, float]:
    """Share of timed round wall per layer (self time, overhead removed)."""
    out: Dict[str, float] = dict.fromkeys(SHARES, 0.0)
    for name, s in list(self_s.items()) + list(hook_s.items()):
        if name in SHARE_OF:
            out[SHARE_OF[name]] += s
    return {f"share.{k}": (v / wall if wall > 0 else 0.0) for k, v in out.items()}

"""Binary wire codec: round-trips, fuzzed frames, codec negotiation.

Three layers of assurance for the packed ``bin1`` BATCH_DELTA path:

* **Property round-trips** — randomized sweep sequences pushed through
  encode → decode → mirror apply must land a mirror byte-for-byte equal
  to one built over the JSON path from the same source store, including
  attr sets that evolve mid-stream (dictionary deltas) and agent
  restarts (seq re-baselines).
* **Fuzzing** — every truncation of a valid frame, and random bit
  flips, must be rejected with :class:`ProtocolError` (op + byte
  offset) and never anything else: no IndexError deep in struct, no
  giant speculative allocation, no silent garbage.
* **Negotiation** — mixed-version pairs (client pinned to JSON, server
  pinned to JSON, a pre-HELLO "old peer") must all degrade to the JSON
  fallback without losing data, and the env knob must force JSON
  without touching code.

The acceptance scenario at the bottom drives the full TCP stack — two
mirrors, one per codec, against one faulty polling agent with a server
restart mid-sequence — and requires byte-for-byte equal mirrors.
"""

from __future__ import annotations

import json
import random
import socket
import struct
import threading
from contextlib import contextmanager

import pytest

from repro.core.agent import Agent
from repro.core.channels import ChannelFaultPlan
from repro.core.controller import AgentMirror
from repro.core.counters import STANDARD_ATTRS, CounterSnapshot
from repro.core.net import codec as wire_codec
from repro.core.net.client import RemoteAgentHandle, RetryPolicy
from repro.core.net.codec import (
    CODEC_BIN1,
    CODEC_JSON,
    WireSchema,
)
from repro.core.net.protocol import (
    OP_BATCH_DELTA,
    OP_HELLO,
    FORCE_JSON_ENV,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.core.net.server import AgentServer
from repro.core.store import TimeSeriesStore
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay_s=0.001, max_delay_s=0.002, deadline_s=30.0
)

#: Attribute pool for randomized sweeps: the standard set plus the kind
#: of late-appearing names that exercise dictionary deltas.
EXTRA_ATTRS = ("drops.queue", "drops.ttl", "cache_hits")


def dump(store: TimeSeriesStore) -> str:
    """Canonical byte-for-byte digest of everything a store holds."""
    return json.dumps(
        [s.to_dict() for s in store.changed_since({})], sort_keys=True
    )


def random_sweeps(rng: random.Random, rounds: int, elements: int):
    """A reproducible sweep sequence: per-round snapshot lists.

    Seqs advance per element; occasionally an element "restarts"
    (seq re-baselines from 1), occasionally a round repeats an element's
    previous seq (the dedup case), and attr sets both shrink and grow
    so decoders see every column-mapping path.
    """
    eids = [f"elem{i}" for i in range(elements)]
    seqs = {eid: 0 for eid in eids}
    t = 0.0
    out = []
    for _ in range(rounds):
        t += rng.uniform(0.01, 0.2)
        batch = []
        for eid in eids:
            roll = rng.random()
            if roll < 0.05 and seqs[eid] > 2:
                seqs[eid] = 1  # agent restart: seq regression
            elif roll < 0.15 and seqs[eid] > 0:
                pass  # unchanged seq: dedup territory
            else:
                seqs[eid] += 1
            names = [a for a in STANDARD_ATTRS if rng.random() < 0.8]
            names += [a for a in EXTRA_ATTRS if rng.random() < 0.2]
            if not names:
                names = [STANDARD_ATTRS[0]]
            attrs = {name: float(rng.randrange(0, 10**9)) for name in names}
            batch.append(CounterSnapshot(eid, "m1", seqs[eid], t, attrs))
        out.append(batch)
    return out


def paired_schemas():
    """Server + client schemas as HELLO would leave them."""
    server = WireSchema()
    response = wire_codec.make_hello_response(
        "agent@m1", "m1", ["elem0", "elem1"], STANDARD_ATTRS, CODEC_BIN1, server
    )
    client = WireSchema()
    assert wire_codec.apply_hello_response(response, client) == CODEC_BIN1
    return server, client


class TestRoundTripProperty:
    @pytest.mark.parametrize("seed", [1, 7, 2026])
    def test_binary_mirror_equals_json_mirror(self, seed):
        """The defining property: same sweeps, two codecs, equal mirrors."""
        rng = random.Random(seed)
        source = TimeSeriesStore(on_regression="rebaseline")
        server_schema, client_schema = paired_schemas()
        mirror_bin = TimeSeriesStore(on_regression="rebaseline")
        mirror_json = TimeSeriesStore(on_regression="rebaseline")
        acked_bin: dict = {}
        acked_json: dict = {}
        for batch in random_sweeps(rng, rounds=40, elements=4):
            source.extend(batch)

            blocks, cursor = source.drain_blocks(acked_bin)
            raw = wire_codec.encode_batch_response(
                server_schema, "m1", blocks, cursor
            )
            payload = wire_codec.decode_batch_response(client_schema, raw)
            assert payload.machine == "m1"
            mirror_bin.apply_blocks(payload.blocks)
            acked_bin = payload.cursor

            batch_json, cursor_json = source.drain(acked_json)
            # simulate the JSON wire: full serialize/deserialize
            wire = json.loads(json.dumps([s.to_dict() for s in batch_json]))
            mirror_json.extend(CounterSnapshot.from_dict(e) for e in wire)
            acked_json = cursor_json

        assert dump(mirror_bin) == dump(mirror_json)
        assert len(mirror_bin) > 0

    def test_late_attrs_ride_dictionary_deltas(self):
        """Names unseen at HELLO are announced in-frame, exactly once."""
        server_schema, client_schema = paired_schemas()
        t0 = len(client_schema.attrs.names)
        blocks = [
            ("elem0", "m1", ("rx_pkts", "weird.new_attr"), [(1, 0.5, [3.0, 4.0])])
        ]
        raw = wire_codec.encode_batch_response(
            server_schema, "m1", blocks, {"elem0": 1}
        )
        payload = wire_codec.decode_batch_response(client_schema, raw)
        assert payload.blocks[0][2] == ("rx_pkts", "weird.new_attr")
        assert len(client_schema.attrs.names) == t0 + 1
        # the next frame reuses the id with no re-announcement
        raw2 = wire_codec.encode_batch_response(
            server_schema, "m1",
            [("elem0", "m1", ("weird.new_attr",), [(2, 0.6, [5.0])])],
            {"elem0": 2},
        )
        assert len(raw2) < len(raw)  # no dict section the second time
        payload2 = wire_codec.decode_batch_response(client_schema, raw2)
        assert payload2.blocks[0][2] == ("weird.new_attr",)

    def test_request_roundtrip_known_and_unknown_ids(self):
        server_schema, client_schema = paired_schemas()
        acked = {"elem0": 17, "never-negotiated": 3}
        trace = {"trace_id": "t" * 16, "span_id": "s" * 8}
        raw = wire_codec.encode_batch_request(client_schema, acked, trace)
        got_acked, got_trace = wire_codec.decode_batch_request(server_schema, raw)
        assert got_acked == acked
        assert got_trace == trace

    def test_request_rejects_negative_seq(self):
        server_schema, client_schema = paired_schemas()
        raw = wire_codec.encode_batch_request(client_schema, {"elem0": -1}, None)
        with pytest.raises(ProtocolError, match="non-negative"):
            wire_codec.decode_batch_request(server_schema, raw)


class TestSchemaMemo:
    """Per-connection block-schema memos on both ends of the codec."""

    @staticmethod
    def frame(server_schema, names, seq, elem="elem0"):
        block = (elem, "m1", names, [(seq, 0.1 * seq, [float(seq)] * len(names))])
        return wire_codec.encode_batch_response(
            server_schema, "m1", [block], {elem: seq}
        )

    def test_unchanged_schema_decodes_to_the_same_tuple(self):
        server_schema, client_schema = paired_schemas()
        names = ("rx_pkts", "tx_pkts", "drops.tun")
        first = wire_codec.decode_batch_response(
            client_schema, self.frame(server_schema, names, 1)
        ).blocks[0][2]
        for seq in (2, 3):
            # an equal, distinct tuple on the encoding side: same ids
            again = wire_codec.decode_batch_response(
                client_schema, self.frame(server_schema, tuple(list(names)), seq)
            ).blocks[0][2]
            assert again is first
        assert first == names

    def test_widened_schema_gets_a_new_tuple(self):
        server_schema, client_schema = paired_schemas()
        names = ("rx_pkts", "tx_pkts")
        first = wire_codec.decode_batch_response(
            client_schema, self.frame(server_schema, names, 1)
        ).blocks[0][2]
        wider = names + ("drops.new",)
        widened = wire_codec.decode_batch_response(
            client_schema, self.frame(server_schema, wider, 2)
        ).blocks[0][2]
        assert widened == wider and widened is not first
        assert wire_codec.decode_batch_response(
            client_schema, self.frame(server_schema, wider, 3)
        ).blocks[0][2] is widened

    def test_encode_memo_hit_is_byte_identical(self):
        server_schema, _ = paired_schemas()
        names = ("rx_pkts", "drops.tun")
        self.frame(server_schema, names, 1)
        hit = self.frame(server_schema, names, 2)
        server_schema.enc_attrs.clear()
        assert self.frame(server_schema, names, 2) == hit

    @pytest.mark.parametrize("seed", [1, 7])
    def test_memo_sizes_bounded_by_element_table(self, seed):
        rng = random.Random(seed)
        source = TimeSeriesStore()
        server_schema, client_schema = paired_schemas()
        acked: dict = {}
        for batch in random_sweeps(rng, rounds=30, elements=6):
            source.extend(batch)
            blocks, cursor = source.drain_blocks(acked)
            raw = wire_codec.encode_batch_response(server_schema, "m1", blocks, cursor)
            acked = wire_codec.decode_batch_response(client_schema, raw).cursor
            assert len(server_schema.enc_attrs) <= len(server_schema.elements.names)
            assert len(client_schema.dec_attrs) <= len(client_schema.elements.names)
        assert client_schema.dec_attrs

    def test_unknown_attr_id_in_a_memoized_block_still_rejected(self):
        server_schema, client_schema = paired_schemas()
        names = ("rx_pkts", "tx_pkts")
        first = wire_codec.decode_batch_response(
            client_schema, self.frame(server_schema, names, 1)
        ).blocks[0][2]
        raw = self.frame(server_schema, names, 2)
        ids = struct.pack("<2I", *(server_schema.attrs.ids[n] for n in names))
        # header, empty dictionary, machine id, one cursor entry, block
        # count, block header: then the block's attr ids
        at = 4 + 4 + 4 + 4 + 12 + 4 + 10
        assert raw[at: at + 8] == ids
        mutated = raw[:at] + struct.pack("<I", 9999) + raw[at + 4:]
        with pytest.raises(ProtocolError, match="unknown id 9999") as err:
            wire_codec.decode_batch_response(client_schema, mutated)
        assert err.value.op == OP_BATCH_DELTA
        assert err.value.offset == at
        # the rejected frame left the memo as it was
        assert wire_codec.decode_batch_response(client_schema, raw).blocks[0][2] is first


def valid_response_frame():
    """One representative encoded response, plus a fresh decoder factory.

    The decoder schema must be re-primed per attempt because a partial
    decode may have learned dictionary entries before failing.
    """
    server_schema, _ = paired_schemas()
    blocks = [
        ("elem0", "m1", ("rx_pkts", "tx_pkts"), [(1, 0.1, [1.0, 2.0]),
                                                 (2, 0.2, [3.0, 4.0])]),
        ("elem1", "m1", ("drops", "late.attr"), [(5, 0.3, [0.0, 9.0])]),
    ]
    raw = wire_codec.encode_batch_response(
        server_schema, "m1", blocks, {"elem0": 2, "elem1": 5}
    )

    def fresh_schema():
        return paired_schemas()[1]

    return raw, fresh_schema


class TestFrameFuzz:
    def test_every_truncation_rejected_with_offset(self):
        raw, fresh_schema = valid_response_frame()
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError) as err:
                wire_codec.decode_batch_response(fresh_schema(), raw[:cut])
            assert err.value.op == OP_BATCH_DELTA
            assert err.value.offset is not None
            assert 0 <= err.value.offset <= cut

    def test_trailing_garbage_rejected(self):
        raw, fresh_schema = valid_response_frame()
        with pytest.raises(ProtocolError, match="trailing"):
            wire_codec.decode_batch_response(fresh_schema(), raw + b"\x00")

    def test_bit_flips_never_escape_protocol_error(self):
        """A flipped bit either still decodes (it hit a value byte) or
        raises ProtocolError — never any other exception, and never a
        huge allocation (the bounded-count rule)."""
        raw, fresh_schema = valid_response_frame()
        rng = random.Random(99)
        survived = 0
        for _ in range(400):
            at = rng.randrange(len(raw))
            bit = 1 << rng.randrange(8)
            mutated = bytearray(raw)
            mutated[at] ^= bit
            try:
                wire_codec.decode_batch_response(fresh_schema(), bytes(mutated))
                survived += 1
            except ProtocolError:
                pass
        # plenty of flips land in f64 value bytes and decode fine;
        # the point is that nothing else ever leaks out
        assert survived > 0

    def test_request_truncations_rejected(self):
        server_schema, client_schema = paired_schemas()
        raw = wire_codec.encode_batch_request(
            client_schema, {"elem0": 4, "inline-name": 2}, {"trace_id": "x"}
        )
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError) as err:
                wire_codec.decode_batch_request(paired_schemas()[0], raw[:cut])
            assert err.value.op == OP_BATCH_DELTA
            assert err.value.offset is not None

    def test_implausible_count_rejected_cheaply(self):
        """A corrupt count header must be refused against the bytes
        actually present, not trusted into a giant loop."""
        raw, fresh_schema = valid_response_frame()
        # dict_count lives right after the 4-byte header
        mutated = bytearray(raw)
        mutated[4:8] = (0x7FFFFFFF).to_bytes(4, "little")
        with pytest.raises(ProtocolError, match="implausible"):
            wire_codec.decode_batch_response(fresh_schema(), bytes(mutated))

    def test_dictionary_remap_rejected(self):
        """A frame re-announcing an existing id under a new name is
        corrupt or hostile, not mergeable."""
        schema = WireSchema()
        schema.attrs.learn(0, "rx_pkts", OP_HELLO, 0)
        with pytest.raises(ProtocolError, match="remaps"):
            schema.attrs.learn(0, "tx_pkts", OP_BATCH_DELTA, 10)
        with pytest.raises(ProtocolError, match="non-dense"):
            schema.attrs.learn(5, "gap", OP_BATCH_DELTA, 10)


@contextmanager
def old_peer(batches):
    """A v0-era agent server: JSON only, has never heard of HELLO."""
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.bind(("127.0.0.1", 0))
    lsock.listen(4)
    stop = threading.Event()

    def serve(conn):
        while not stop.is_set():
            request = recv_message(conn)
            op = request.get("op")
            if op == "batch_delta":
                batch = batches.pop(0) if batches else []
                send_message(conn, {
                    "ok": True,
                    "machine": "m1",
                    "batch": [s.to_dict() for s in batch],
                    "cursor": {s.element_id: s.seq for s in batch},
                })
            else:
                send_message(conn, {"ok": False, "error": f"unknown op: {op!r}"})

    def loop():
        while not stop.is_set():
            try:
                conn, _ = lsock.accept()
            except OSError:
                return
            try:
                serve(conn)
            except (ConnectionError, OSError, ProtocolError):
                pass
            finally:
                conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    try:
        yield lsock.getsockname()
    finally:
        stop.set()
        lsock.close()
        thread.join(timeout=5)


@pytest.fixture
def world(sim_with_transport):
    sim = sim_with_transport
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
    sim.run(0.5)
    agent = Agent(sim, machine)
    agent.register(app)
    return sim, machine, agent


class TestNegotiation:
    def test_binary_negotiated_by_default(self, world):
        _, _, agent = world
        with AgentServer(agent) as server:
            with RemoteAgentHandle(*server.address, retry=FAST_RETRY) as handle:
                assert handle.hello() == CODEC_BIN1
                blocks, cursor = handle.collect_blocks({})
                assert blocks and cursor

    def test_client_pinned_to_json(self, world):
        _, _, agent = world
        with AgentServer(agent) as server:
            with RemoteAgentHandle(
                *server.address, retry=FAST_RETRY, codec="json"
            ) as handle:
                assert handle.hello() == CODEC_JSON
                batch, cursor = handle.collect_delta({})
                assert batch and cursor

    def test_server_pinned_to_json(self, world):
        """A binary-capable client against a JSON-pinned server: HELLO
        succeeds but negotiates the fallback; data flows losslessly."""
        _, _, agent = world
        with AgentServer(agent, codec="json") as server:
            with RemoteAgentHandle(*server.address, retry=FAST_RETRY) as handle:
                assert handle.hello() == CODEC_JSON
                batch, cursor = handle.collect_delta({})
                assert batch and cursor

    def test_env_knob_forces_json(self, world, monkeypatch):
        _, _, agent = world
        monkeypatch.setenv(FORCE_JSON_ENV, "1")
        with AgentServer(agent) as server:
            handle = RemoteAgentHandle(*server.address, retry=FAST_RETRY)
            try:
                assert handle.codec == CODEC_JSON
                assert handle.hello() == CODEC_JSON
            finally:
                handle.close()

    def test_old_peer_degrades_to_json_without_data_loss(self):
        """A peer that refuses HELLO is a v0 JSON agent: the first
        collect negotiates down and every snapshot still arrives."""
        snaps = [
            CounterSnapshot("e0", "m1", 1, 0.1, {"rx_pkts": 5.0}),
            CounterSnapshot("e0", "m1", 2, 0.2, {"rx_pkts": 9.0, "drops": 1.0}),
        ]
        with old_peer([list(snaps)]) as addr:
            with RemoteAgentHandle(*addr, retry=FAST_RETRY) as handle:
                batch, cursor = handle.collect_delta({})
                assert handle.hello() == CODEC_JSON
        assert [s.to_dict() for s in batch] == [s.to_dict() for s in snaps]
        assert cursor == {"e0": 2}

    def test_invalid_codec_params_rejected(self, world):
        _, _, agent = world
        with pytest.raises(ValueError):
            RemoteAgentHandle("127.0.0.1", 1, codec="bin1")
        with pytest.raises(ValueError):
            AgentServer(agent, codec="bin1")


class TestMirrorEquivalenceAcceptance:
    def test_mirrors_byte_identical_across_codecs_with_faults(self, world):
        """The issue's acceptance bar: mirrors built over the binary and
        JSON paths from the same sweep sequence — with channel faults
        firing and a server restart forcing client retries mid-run —
        must be byte-for-byte identical."""
        sim, _, agent = world
        for chan in agent._channels.values():
            chan.set_fault_plan(
                ChannelFaultPlan(error_rate=0.1, timeout_rate=0.05, stale_rate=0.1)
            )
        agent.start_polling(period_s=0.05)
        server = AgentServer(agent).start()
        host, port = server.address
        handle_bin = RemoteAgentHandle(host, port, retry=FAST_RETRY)
        handle_json = RemoteAgentHandle(host, port, retry=FAST_RETRY, codec="json")
        mirror_bin = AgentMirror("m1", handle_bin)
        mirror_json = AgentMirror("m1", handle_json)
        try:
            for round_no in range(6):
                sim.run(0.25)  # cadence sweeps append (with faults firing)
                mirror_bin.sync()
                mirror_json.sync()
                if round_no == 2:
                    # crash + restart between rounds: the next sync on
                    # each handle rides the retry path onto the new
                    # server (and, for bin, a fresh HELLO)
                    server.shutdown()
                    server = AgentServer(agent, host=host, port=port).start()
        finally:
            handle_bin.close()
            handle_json.close()
            server.shutdown()
            agent.stop_polling()

        assert handle_bin.hello.__self__ is handle_bin  # sanity: live objects
        assert mirror_bin.failed_syncs == 0
        assert mirror_json.failed_syncs == 0
        assert mirror_bin.snapshots_received > 0
        assert dump(mirror_bin.store) == dump(mirror_json.store)
        assert len(mirror_bin.store) == len(agent.store)


class TestRestartRenegotiation:
    def test_rehello_rebuilds_id_tables_after_restart(self, world):
        """A server restart must force a fresh HELLO, not just a fresh
        socket: the restarted agent assigns *different* dense ids to the
        surviving elements (one new element sorts before them), so a
        client decoding with its stale ``WireSchema`` tables would
        mis-map every shifted element.  Byte-for-byte store equality
        after the restart proves the tables were rebuilt."""
        sim, machine, agent = world
        agent.poll_once()
        server = AgentServer(agent).start()
        host, port = server.address
        handle = RemoteAgentHandle(host, port, retry=FAST_RETRY)
        try:
            assert handle.hello() == CODEC_BIN1
            blocks, _ = handle.collect_blocks({})
            assert blocks  # the connection's bin1 tables are now warm
            # Captured before the world grows: agents list the machine's
            # elements dynamically, so this is the id order the original
            # HELLO actually put on the wire.
            old_ids = agent.element_ids()

            # Restart on the same port with a grown world: VM "a1" adds
            # an element that sorts before the originals, shifting the
            # dense id of every element after it in HELLO order.
            server.shutdown()
            vm = machine.add_vm("a1", vcpu_cores=1.0)
            app2 = HttpServer(sim, vm, "app2", cpu_per_byte=1e-9)
            flow = Flow("rx2", dst_vm="a1", kind="udp")
            vm.bind_udp(flow, app2.socket)
            ExternalTrafficSource(
                sim, "src2", flow, machine.inject, rate_bps=40e6
            )
            restarted = Agent(sim, machine)
            restarted.register(app2)
            sim.run(0.5)
            restarted.poll_once()
            new_ids = restarted.element_ids()
            shifted = [
                eid for eid in old_ids
                if eid in new_ids and old_ids.index(eid) != new_ids.index(eid)
            ]
            assert shifted, "restart did not shift any dense ids"
            server = AgentServer(restarted, host=host, port=port).start()

            # The next exchange rides the retry path onto the new
            # server; a correct client re-HELLOs and decodes the full
            # dump against the *new* tables.
            probe = TimeSeriesStore()
            blocks, cursor = handle.collect_blocks({})
            probe.apply_blocks(blocks)
            assert dump(probe) == dump(restarted.store)
            assert cursor == restarted.store.cursor()
            assert handle.hello() == CODEC_BIN1  # still packed, not JSON
        finally:
            handle.close()
            server.shutdown()


class TestZoneReportAggregates:
    """The flagged sketch-aggregates section of bin1 zone reports."""

    @staticmethod
    def sample_report(with_aggregates=True):
        from repro.core.diagnosis.report import (
            MachineSummary,
            ZoneAggregates,
            ZoneReport,
        )

        summaries = {
            "m1": MachineSummary(
                machine="m1", health="healthy",
                loss_pkts=120.0, pkt_loss_rate=0.012,
            ),
            "m2": MachineSummary(
                machine="m2", health="healthy",
                loss_pkts=0.0, pkt_loss_rate=0.0,
            ),
        }
        return ZoneReport(
            zone="z0", seq=5, window_s=0.5, machines=summaries,
            aggregates=(
                ZoneAggregates.from_summaries(summaries)
                if with_aggregates else None
            ),
        ).to_wire()

    def test_roundtrip_preserves_sketches(self):
        from repro.core.diagnosis.report import ZoneReport

        wire = self.sample_report()
        schema_tx, schema_rx = WireSchema(), WireSchema()
        raw = wire_codec.encode_zone_report(schema_tx, wire)
        decoded, trace = wire_codec.decode_zone_report(schema_rx, raw)
        assert trace is None
        back = ZoneReport.from_wire(decoded)
        orig = ZoneReport.from_wire(wire)
        assert back.aggregates is not None
        assert back.aggregates.top_droppers == orig.aggregates.top_droppers
        assert back.aggregates.loss_rate == orig.aggregates.loss_rate

    def test_reencode_is_byte_identical(self):
        wire = self.sample_report()
        raw = wire_codec.encode_zone_report(WireSchema(), wire)
        decoded, _ = wire_codec.decode_zone_report(WireSchema(), raw)
        again = wire_codec.encode_zone_report(WireSchema(), decoded)
        assert again == raw

    def test_aggregate_less_frame_has_no_flag(self):
        wire = self.sample_report(with_aggregates=False)
        raw = wire_codec.encode_zone_report(WireSchema(), wire)
        assert raw[3] == 0  # flags byte
        decoded, _ = wire_codec.decode_zone_report(WireSchema(), raw)
        assert "aggregates" not in decoded

    def test_aggregates_frame_truncations_rejected(self):
        raw = wire_codec.encode_zone_report(WireSchema(), self.sample_report())
        plain = wire_codec.encode_zone_report(
            WireSchema(), self.sample_report(with_aggregates=False)
        )
        for cut in range(len(plain), len(raw)):
            with pytest.raises(ProtocolError):
                wire_codec.decode_zone_report(WireSchema(), raw[:cut])

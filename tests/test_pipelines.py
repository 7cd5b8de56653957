"""Per-packet flow behavior of both pipelines: accounting, drops, equivalence."""

import random
from dataclasses import FrozenInstanceError, replace

import pytest
from conftest import DEFAULT_QOS, make_config, pkt, trace
from test_acceptance import CORNER_CASES, _random_router_config, _random_trace_spec
from test_filters import _oracle

from flowgate import pipelines
from flowgate.harness import TraceSpec, compare, generate_packets, run_pipeline
from flowgate.packet import (
    ACK,
    FIN,
    RST,
    SYN,
    TCP,
    UDP,
    Cidr,
    Packet,
    SessionId,
    format_ip,
    load_trace,
    merge_dscp,
    parse_ip,
    render_trace_record,
)
from flowgate.pipelines import (
    BaselinePipeline,
    DropReason,
    Forwarded,
    IntegratedPipeline,
    LookupAccounting,
    Verdict,
)
from flowgate.qos import parse_qos
from flowgate.routing import RouteEntry, RoutingTable
from flowgate.session_table import Timeouts

HANDSHAKE = (
    "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
    "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
    "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
)


def test_baseline_first_packet_accounting(config):
    pipe = BaselinePipeline(config)
    verdict = pipe.process(pkt("0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0"))
    assert isinstance(verdict.outcome, Forwarded)
    assert verdict.lookups == LookupAccounting(
        nat_lookups=1, session_lookups=1, rule_evals=1, rules_scanned=1,
        qos_classifications=1, route_lookups=1,
    )


def test_baseline_hit_packet_accounting(config):
    pipe = BaselinePipeline(config)
    for line in HANDSHAKE.splitlines():
        assert isinstance(pipe.process(pkt(line)).outcome, Forwarded)
    verdict = pipe.process(pkt("0.3 tcp 10.0.0.5:1200 198.51.100.9:80 A 512 0"))
    assert verdict.lookups == LookupAccounting(
        nat_lookups=1, session_lookups=1, rule_evals=0, rules_scanned=0,
        qos_classifications=1, route_lookups=1,
    )
    assert verdict.lookups.total_consultations() == 4


def test_integrated_miss_and_hit_accounting(config):
    pipe = IntegratedPipeline(config)
    miss = pipe.process(pkt("0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0"))
    assert miss.lookups == LookupAccounting(
        nat_lookups=1, session_lookups=1, rule_evals=1, rules_scanned=1,
        qos_classifications=1, route_lookups=2,  # both next hops cached at creation
    )
    entry = pipe.table.lookup_outbound(
        (parse_ip("10.0.0.5"), 1200, parse_ip("198.51.100.9"), 80, 6), now=0.0
    )
    assert (entry.ext_route.next_hop, entry.ext_route.iface) == (parse_ip("203.0.113.1"), "wan")
    assert (entry.lan_route.next_hop, entry.lan_route.iface) == (parse_ip("10.0.0.254"), "lan")

    hit = pipe.process(pkt("0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0"))
    assert isinstance(hit.outcome, Forwarded)
    assert hit.lookups == LookupAccounting(session_lookups=1)
    assert hit.lookups.total_consultations() == 1


def test_integrated_inbound_one_shot_rewrites(config):
    pipe = IntegratedPipeline(config)
    pipe.process(pkt("0.0 udp 10.0.0.5:53000 8.8.8.8:53 - 48 0"))
    verdict = pipe.process(pkt("0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 64 0"))
    out = verdict.outcome
    assert isinstance(out, Forwarded)
    assert format_ip(out.packet.sid.dst_addr) == "10.0.0.5"
    assert out.packet.sid.dst_port == 53000
    assert out.packet.tos >> 2 == 46  # udp/53 policy dscp, both directions
    # the rest of the header is carried over; only TTL is decremented
    assert (out.packet.ts, out.packet.ttl, out.packet.payload_len) == (0.1, 63, 64)
    assert format_ip(out.route.next_hop) == "10.0.0.254"
    assert out.route.iface == "lan"


def test_router_config_is_frozen(config):
    """Entries cache DSCP and routes, tables derive horizons, and a policy indexes its rules once.

    A policy compares and hashes by its rules alone, so two parses of one text are equal.
    """
    for obj, name, value in (
        (config, "routes", config.routes), (config, "qos", config.qos), (config, "capacity", 1),
        (config.timeouts, "non_tcp", 5.0), (config.rules, "rules", ()), (config.qos, "rules", ()),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, value)
    again = parse_qos(DEFAULT_QOS)  # the text `config`'s policy was parsed from
    assert again == config.qos and hash(again) == hash(config.qos)


def test_rule_denied_creates_no_state(config):
    cfg = make_config(rules="drop tcp any any any 23\naccept any any any any any\n")
    for pipe in (BaselinePipeline(cfg), IntegratedPipeline(cfg)):
        verdict = pipe.process(pkt("0.0 tcp 10.0.0.5:1200 198.51.100.9:23 S 0 0"))
        assert verdict.outcome == DropReason.RULE_DENIED
    assert len(pipe.table) == 0


def test_non_syn_first_tcp_packet_violates(config):
    for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
        verdict = pipe.process(pkt("0.0 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0"))
        assert verdict.outcome == DropReason.STATE_VIOLATION


def test_inbound_without_session_dropped(config):
    for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
        verdict = pipe.process(pkt("0.0 tcp 198.51.100.9:80 192.0.2.1:40000 S 0 0"))
        assert verdict.outcome == DropReason.INBOUND_NO_SESSION


def test_nat_exhaustion(config):
    cfg = make_config(nat="public 192.0.2.1\nports 40000-40000\n")
    for pipe in (BaselinePipeline(cfg), IntegratedPipeline(cfg)):
        ok = pipe.process(pkt("0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0"))
        assert isinstance(ok.outcome, Forwarded)
        full = pipe.process(pkt("0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0"))
        assert full.outcome == DropReason.NAT_EXHAUSTED
        other_peer = pipe.process(pkt("0.2 udp 10.0.0.7:1000 9.9.9.9:53 - 0 0"))
        assert isinstance(other_peer.outcome, Forwarded)


def test_a_protocol_without_ports_holds_one_flow_per_peer():
    """Translated by address alone, its pool is one port: a second LAN flow to a peer waits."""
    cfg = make_config()
    public_sid = SessionId(parse_ip("192.0.2.1"), 0, parse_ip("8.8.8.8"), 0, 1)
    for pipe in (BaselinePipeline(cfg), IntegratedPipeline(cfg)):
        first = pipe.process(pkt("0.0 1 10.0.0.5:0 8.8.8.8:0 - 0 0"))
        assert first.outcome.packet.sid == public_sid
        second = pipe.process(pkt("0.1 1 10.0.0.6:0 8.8.8.8:0 - 0 0"))
        assert second == Verdict(
            DropReason.NAT_EXHAUSTED, LookupAccounting(1, 1, 1, 1, 0, 0)
        )
        for line in ("0.2 47 10.0.0.6:0 8.8.8.8:0 - 0 0", "0.3 1 10.0.0.6:0 9.9.9.9:0 - 0 0"):
            assert isinstance(pipe.process(pkt(line)).outcome, Forwarded)  # another key
        reply = pipe.process(pkt("0.4 1 8.8.8.8:0 192.0.2.1:0 - 0 0"))
        assert reply.outcome.packet.sid == SessionId(
            parse_ip("8.8.8.8"), 0, parse_ip("10.0.0.5"), 0, 1
        )
        # once the first flow idles out, the second host's flow takes its public tuple
        again = pipe.process(pkt("60.5 1 10.0.0.6:0 8.8.8.8:0 - 0 0"))
        assert again.outcome.packet.sid == public_sid


def test_a_full_table_still_says_nat_exhausted_for_a_protocol_without_ports():
    """Its pool is one port, so one live entry can exhaust it: NatExhausted > TableFull."""
    cfg = make_config(capacity=1)
    for pipe in (BaselinePipeline(cfg), IntegratedPipeline(cfg)):
        assert isinstance(pipe.process(pkt("0.0 1 10.0.0.5:0 8.8.8.8:0 - 0 0")).outcome, Forwarded)
        same_peer = pipe.process(pkt("0.1 1 10.0.0.6:0 8.8.8.8:0 - 0 0"))
        assert same_peer == Verdict(
            DropReason.NAT_EXHAUSTED, LookupAccounting(1, 1, 1, 1, 0, 0)
        )
        other_peer = pipe.process(pkt("0.2 1 10.0.0.6:0 9.9.9.9:0 - 0 0"))
        assert other_peer == Verdict(
            DropReason.TABLE_FULL, LookupAccounting(1, 1, 1, 1, 0, 0)
        )


def test_table_full_then_room_after_expiry():
    cfg = make_config(capacity=2)
    for pipe in (BaselinePipeline(cfg), IntegratedPipeline(cfg)):
        assert isinstance(pipe.process(pkt("0.0 udp 10.0.0.5:1 8.8.8.8:53 - 0 0")).outcome, Forwarded)
        assert isinstance(pipe.process(pkt("0.1 udp 10.0.0.6:1 8.8.8.8:53 - 0 0")).outcome, Forwarded)
        third = pipe.process(pkt("0.2 udp 10.0.0.7:1 8.8.8.8:53 - 0 0"))
        assert third.outcome == DropReason.TABLE_FULL
        # 70s later the first two sessions have idled out; pressure sweep makes room
        again = pipe.process(pkt("70.0 udp 10.0.0.7:1 8.8.8.8:53 - 0 0"))
        assert isinstance(again.outcome, Forwarded)


def test_ttl_expiry_and_decrement(config):
    for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
        dying = pipe.process(pkt("0.0 udp 10.0.0.5:1 8.8.8.8:53 - 0 0 1"))
        assert dying.outcome == DropReason.TTL_EXPIRED
        ok = pipe.process(pkt("0.1 udp 10.0.0.5:2 8.8.8.8:53 - 0 0 64"))
        assert ok.outcome.packet.ttl == 63


def test_no_route_destination(config):
    cfg = make_config(routes="10.0.0.0/8 10.0.0.254 lan\n")  # no default route
    for pipe in (BaselinePipeline(cfg), IntegratedPipeline(cfg)):
        verdict = pipe.process(pkt("0.0 udp 10.0.0.5:1 8.8.8.8:53 - 0 0"))
        assert verdict.outcome == DropReason.NO_ROUTE


def test_unrouted_lan_host_drops_on_inbound(config):
    # outbound forwards (ext has a route); the cached lan next hop is absent,
    # so the reply drops with NoRoute in both pipelines
    cfg = make_config(routes="8.0.0.0/8 203.0.113.1 wan\n")
    lines = (
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n"
    )
    result = compare(cfg, trace(lines))
    assert result.equal
    assert isinstance(result.baseline_verdicts[0].outcome, Forwarded)
    assert result.baseline_verdicts[1].outcome == DropReason.NO_ROUTE


def test_lan_to_lan_bypasses_nat(config):
    baseline = BaselinePipeline(config)
    for pipe in (baseline, IntegratedPipeline(config)):
        verdict = pipe.process(pkt("0.0 udp 10.0.0.5:1000 10.0.9.9:53 - 0 0"))
        out = verdict.outcome
        assert isinstance(out, Forwarded)
        assert format_ip(out.packet.sid.src_addr) == "10.0.0.5"  # no rewrite
        assert out.route.iface == "lan"
    assert baseline.nat_table.lookups == 0


def test_baseline_lan_to_lan_skips_nat_lookup(config):
    pipe = BaselinePipeline(config)
    verdict = pipe.process(pkt("0.0 udp 10.0.0.5:1000 10.0.9.9:53 - 0 0"))
    assert verdict.lookups.nat_lookups == 0


def test_lan_peer_reply_takes_the_inbound_path():
    """A LAN-to-LAN reply is looked up as its flow's reply: forwarded with the flow's DSCP."""
    cfg = make_config(qos="tcp any any any 22 dscp 10\n", routes="10.0.0.0/8 10.0.0.254 lan\n")
    packets = trace(
        "0.0 tcp 10.0.0.5:1200 10.0.9.9:22 S 0 0\n"
        "0.1 tcp 10.0.9.9:22 10.0.0.5:1200 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1200 10.0.9.9:22 A 0 0\n"
        "0.3 tcp 10.0.9.9:22 10.0.0.5:1200 A 0 1\n"
    )
    two = dict(session_lookups=2)  # the miss on its own five-tuple, then the reply lookup
    want = {
        "baseline": [
            LookupAccounting(rule_evals=1, rules_scanned=1, qos_classifications=1,
                             route_lookups=1, **two),
            LookupAccounting(qos_classifications=1, route_lookups=1, **two),
            LookupAccounting(session_lookups=1, qos_classifications=1, route_lookups=1),
            LookupAccounting(qos_classifications=1, route_lookups=1, **two),
        ],
        "integrated": [
            LookupAccounting(rule_evals=1, rules_scanned=1, qos_classifications=1,
                             route_lookups=2, **two),
            LookupAccounting(**two),
            LookupAccounting(session_lookups=1),
            LookupAccounting(**two),
        ],
    }
    for cls in (BaselinePipeline, IntegratedPipeline):
        pipe = cls(cfg)
        verdicts = [pipe.process(p) for p in packets]
        assert [v.lookups for v in verdicts] == want[pipe.name]
        assert (pipe.session_hits, pipe.session_misses) == (3, 1)
        for packet, verdict in zip(packets, verdicts):
            out = verdict.outcome
            assert isinstance(out, Forwarded) and out.route.iface == "lan"
            assert out.packet.sid == packet.sid  # no translation either way
            assert out.packet.tos == 10 << 2 | packet.tos & 3  # the flow's DSCP, both ways


def test_baseline_reply_to_a_mapping_without_state_raises(config):
    """A live NAT mapping always has its state entry: a reply that finds one alone is a fault."""
    pipe = BaselinePipeline(config)
    pipe.process(pkt("0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0"))
    (entry,) = pipe.state_table._out.values()
    pipe.state_table.remove(entry)
    with pytest.raises(RuntimeError, match="live NAT mapping without a live state entry"):
        pipe.process(pkt("0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0"))


def test_session_gap_reruns_rules(config):
    # udp timeout is 60s: a 61s gap makes the second packet a fresh session
    lines = (
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "61.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
    )
    for cls in (BaselinePipeline, IntegratedPipeline):
        pipe = cls(make_config())
        first = pipe.process(pkt(lines.splitlines()[0]))
        second = pipe.process(pkt(lines.splitlines()[1]))
        assert first.lookups.rule_evals == 1
        assert second.lookups.rule_evals == 1  # re-validated, new session
        assert pipe.session_misses == 2


def test_established_session_rst_then_data_violates(config):
    lines = trace(
        HANDSHAKE
        + "0.3 tcp 10.0.0.5:1200 198.51.100.9:80 R 0 0\n"
        + "0.4 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
    )
    for cls in (BaselinePipeline, IntegratedPipeline):
        pipe = cls(make_config())
        verdicts = [pipe.process(p) for p in lines]
        assert isinstance(verdicts[3].outcome, Forwarded)  # RST forwarded, closes
        assert verdicts[4].outcome == DropReason.STATE_VIOLATION


def test_replay_determinism(config):
    packets = trace(HANDSHAKE + "0.3 tcp 10.0.0.5:1200 198.51.100.9:80 AF 0 0\n")

    def run(cls):
        verdicts, _ = run_pipeline(cls(make_config()), packets)
        return verdicts

    assert run(BaselinePipeline) == run(BaselinePipeline)
    assert run(IntegratedPipeline) == run(IntegratedPipeline)


def test_entry_next_hops_match_fresh_route_lookups(config):
    from flowgate.harness import TraceSpec, generate_packets

    pipe = IntegratedPipeline(config)
    packets = generate_packets(
        TraceSpec(sessions=12, packets_per_session=6, tcp_fraction=0.5,
                  peers=(parse_ip("198.51.100.9"), parse_ip("203.0.113.77")), seed=5)
    )
    for p in packets:
        pipe.process(p)

    assert len(pipe.table) == 12
    for entry in pipe.table._out.values():  # after inserts
        assert entry.ext_route is config.routes.lookup(entry.outbound_key.dst_addr)
        assert entry.lan_route is config.routes.lookup(entry.outbound_key.src_addr)


def test_marking_consistency_end_to_end(config):
    from flowgate.qos import classify

    packets = trace(
        "0.0 udp 10.0.0.5:53000 8.8.8.8:53 - 48 1\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 64 2\n"
        "0.2 udp 10.0.0.5:53000 8.8.8.8:53 - 48 3\n"
    )
    session_sid = packets[0].sid
    for cls in (BaselinePipeline, IntegratedPipeline):
        pipe = cls(make_config())
        for p in packets:
            out = pipe.process(p).outcome
            assert isinstance(out, Forwarded)
            assert out.packet.tos >> 2 == classify(pipe.config.qos, session_sid)
            assert out.packet.tos & 0x03 == p.tos & 0x03  # ECN preserved per packet


def _count_policy_calls(monkeypatch) -> dict[str, int]:
    """Count the rule, QoS and route calls the pipelines make, and the scan depth evaluate reports."""
    calls = dict.fromkeys(
        ("rule_evals", "rules_scanned", "qos_classifications", "route_lookups"), 0
    )
    evaluate, classify, lookup = pipelines.evaluate, pipelines.classify, RoutingTable.lookup

    def counted_evaluate(ruleset, sid):
        result = evaluate(ruleset, sid)
        calls["rule_evals"] += 1
        calls["rules_scanned"] += result[2]
        return result

    def counted_classify(policy, sid):
        calls["qos_classifications"] += 1
        return classify(policy, sid)

    def counted_lookup(table, dst):
        calls["route_lookups"] += 1
        return lookup(table, dst)

    monkeypatch.setattr(pipelines, "evaluate", counted_evaluate)
    monkeypatch.setattr(pipelines, "classify", counted_classify)
    monkeypatch.setattr(RoutingTable, "lookup", counted_lookup)
    return calls


def _accounting_mismatches(config, packets, calls) -> list[str]:
    """Packets whose reported accounting differs from the lookups and calls the pipeline made.

    The integrated pipeline's `nat_lookups` is left out: it counts the decision to
    allocate a port from the session table, which makes no table lookup, so
    no counter can observe it.
    """
    mismatches = []
    baseline, integrated = BaselinePipeline(config), IntegratedPipeline(config)
    for pipe, tables in (
        (baseline, {"nat_lookups": baseline.nat_table, "session_lookups": baseline.state_table}),
        (integrated, {"session_lookups": integrated.table}),
    ):
        for index, packet in enumerate(packets):
            before = {name: table.lookups for name, table in tables.items()} | calls
            reported = pipe.process(packet).lookups._asdict()
            observed = {name: table.lookups for name, table in tables.items()} | calls
            done = {name: observed[name] - before[name] for name in observed}
            if {name: reported[name] for name in done} != done:
                mismatches.append(f"{pipe.name} packet {index}: reported {reported}, did {done}")
    return mismatches


def test_accounting_matches_the_work_done(monkeypatch):
    """Every counted lookup is a real table lookup or policy call, packet by packet."""
    calls = _count_policy_calls(monkeypatch)
    # no corner trace refuses a LAN-to-LAN flow, which makes no NAT lookup, at a full table
    lan_to_lan_full = (
        "lan_to_lan_into_a_full_table", dict(capacity=1),
        "0.0 udp 10.0.0.5:1 10.0.9.9:53 - 0 0\n0.1 udp 10.0.0.6:1 10.0.9.9:53 - 0 0\n", [],
    )
    mismatches = []
    for name, cfg_kwargs, text, _ in [*CORNER_CASES, lan_to_lan_full]:
        found = _accounting_mismatches(make_config(**cfg_kwargs), trace(text), calls)
        mismatches += [f"{name}: {m}" for m in found]
    for seed in range(20):
        rng = random.Random(0xFEED ^ seed)
        config = _random_router_config(rng)
        spec = replace(_random_trace_spec(rng, seed), sessions=200, packets_per_session=20)
        found = _accounting_mismatches(config, generate_packets(spec), calls)
        mismatches += [f"seed {seed}: {m}" for m in found]
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:3]}"


@pytest.mark.parametrize("tcp_fraction", [1.0, 0.0], ids=["tcp", "udp"])
def test_consultations_follow_the_closed_forms_in_flow_length(tcp_fraction):
    """k flows of n packets cost the baseline k(4n + 1) consultations, the integrated k(n + 5).

    Each first packet makes 5 in the baseline and 6 in the integrated pipeline
    (rules, NAT, session, QoS and one route, or both routes); every later
    packet makes 4 and 1.
    """
    k = 8
    peers = tuple(parse_ip("198.51.100.1") + i for i in range(k))  # one flow to each
    config = make_config()
    for n in range(1, 65):
        packets = generate_packets(TraceSpec(k, n, tcp_fraction, peers=peers, seed=n))
        for pipeline, closed_form in ((BaselinePipeline, 4 * n + 1), (IntegratedPipeline, n + 5)):
            _, report = run_pipeline(pipeline(config), packets)
            assert report.forwarded == k * n, (pipeline.name, n)
            assert report.total_consultations() == k * closed_form, (pipeline.name, n)


def _rewritten_by_formula(sid: SessionId, flow, outbound: bool) -> SessionId:
    """What the deleted `nat.outbound_sid`/`nat.inbound_sid` computed for a packet of `flow`.

    The public endpoint is read from the flow's inbound key and the LAN one from its
    outbound key, the two keys a packet finds it by, not from the sids under test.
    """
    if outbound:
        gwy = flow.inbound_key
        return SessionId(gwy.dst_addr, gwy.dst_port, sid.dst_addr, sid.dst_port, sid.proto)
    lan = flow.outbound_key
    return SessionId(sid.src_addr, sid.src_port, lan.src_addr, lan.src_port, sid.proto)


def differential_cases() -> list[tuple[str, object, list]]:
    """(name, config, packets): every corner trace, then 8 seeded differential traces."""
    cases = [(name, make_config(**kwargs), trace(text)) for name, kwargs, text, _ in CORNER_CASES]
    for seed in range(8):
        rng = random.Random(0xFEED ^ seed)
        config = _random_router_config(rng)
        spec = replace(_random_trace_spec(rng, seed), sessions=100, packets_per_session=20)
        cases.append((f"seed {seed}", config, generate_packets(spec)))
    return cases


MUTATED_FLAGS = (RST, RST | ACK, FIN, SYN | FIN, ACK, SYN, 0)
MUTATIONS = (
    "drop", "duplicate", "swap", "ttl", "tos", "flags", "unsolicited", "delay", "portless",
)


def _mutate(packets: list[Packet], config, rng: random.Random) -> list[Packet]:
    """About one operation per 20 packets, at least one, each on a random packet.

    An operation drops or duplicates the packet; swaps its contents with the
    next one's, each keeping its timestamp; sets its TTL to 1 or gives it a
    random ToS; sets a TCP packet's flags; inserts before it an unsolicited
    packet from its outside peer to a port of the NAT public address; delays it
    and every later packet by 5, 31, 61 or 301 s; or turns it into protocol 1
    or 47 with ports 0. Timestamps never decrease.
    """
    packets = list(packets)
    for _ in range(max(1, len(packets) // 20)):
        if not packets:
            break
        i = rng.randrange(len(packets))
        p = packets[i]
        src, src_port, dst, dst_port, proto = p.sid
        op = rng.choice(MUTATIONS)
        if op == "drop":
            del packets[i]
        elif op == "duplicate":
            packets.insert(i, p)
        elif op == "swap" and i + 1 < len(packets):
            q = packets[i + 1]
            packets[i:i + 2] = [q._replace(ts=p.ts), p._replace(ts=q.ts)]
        elif op == "ttl":
            packets[i] = p._replace(ttl=1)
        elif op == "tos":
            packets[i] = p._replace(tos=rng.randrange(256))
        elif op == "flags" and proto == TCP:
            packets[i] = p._replace(flags=rng.choice(MUTATED_FLAGS))
        elif op == "unsolicited":
            peer = (dst, dst_port) if config.lan_prefix.contains(src) else (src, src_port)
            if config.lan_prefix.contains(peer[0]):
                continue  # a LAN host's packet is outbound, not unsolicited
            proto = rng.choice((TCP, UDP))
            gwy = (config.nat.public_addr, rng.randint(config.nat.port_lo, config.nat.port_hi))
            flags = rng.choice(MUTATED_FLAGS) if proto == TCP else 0
            packets.insert(i, Packet(p.ts, SessionId(*peer, *gwy, proto), 0, 64, flags, 0))
        elif op == "delay":
            delay = rng.choice((5, 31, 61, 301))
            packets[i:] = [q._replace(ts=round(q.ts + delay, 6)) for q in packets[i:]]
        elif op == "portless":
            packets[i] = p._replace(sid=SessionId(src, 0, dst, 0, rng.choice((1, 47))), flags=0)
    return packets


def mutated_cases(cases) -> list[tuple[str, object, list]]:
    """Three mutations of each (name, config, packets) case, mutation r seeded by f"{name}/{r}"."""
    return [
        (f"{name}, mutation {r}", config, _mutate(packets, config, random.Random(f"{name}/{r}")))
        for name, config, packets in cases
        for r in range(3)
    ]


def test_mutated_traces_agree():
    """Dropped, repeated, reordered, rewritten, delayed and unsolicited packets alike."""
    cases = differential_cases() + pressure_cases()[len(CORNER_CASES):]  # corner traces once
    for name, config, packets in mutated_cases(cases):
        result = compare(config, packets)
        assert result.equal, f"{name}: {result.describe()}"


def test_forwards_only_flows_the_rules_accept_and_a_lan_host_opened():
    """The security claim, on both verdict streams, with LAN peers among the flows.

    A flow is named by its originator's LAN-side five-tuple. Each forwarded
    packet's flow must pass the rules by the tests' own first-match oracle,
    and each forwarded reply must answer a flow a LAN host opened earlier.
    """
    cases = differential_cases()
    cases += mutated_cases(cases)
    lan_peers = tuple(parse_ip(a) for a in ("10.0.0.9", "10.200.3.4"))
    for seed in range(4):
        rng = random.Random(0xBEEF ^ seed)
        config = _random_router_config(rng)
        spec = _random_trace_spec(rng, seed)
        spec = replace(spec, sessions=100, packets_per_session=20, peers=spec.peers + lan_peers)
        cases.append((f"lan peers, seed {seed}", config, generate_packets(spec)))
    lan_replies = 0
    for name, config, packets in cases:
        for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
            opened = set()
            for packet in packets:
                out = pipe.process(packet).outcome
                if type(out) is not Forwarded:
                    continue
                sid = packet.sid
                src, src_port, dst, dst_port, proto = sid
                reverse = SessionId(dst, dst_port, src, src_port, proto)
                where = (name, pipe.name, packet)
                if config.lan_prefix.contains(src) and (sid in opened or reverse not in opened):
                    flow = sid  # a LAN host's own flow; its first forward opens it
                    opened.add(flow)
                else:
                    # a reply leaves addressed to its flow's LAN endpoint
                    e_src, e_src_port, e_dst, e_dst_port, _ = out.packet.sid
                    flow = SessionId(e_dst, e_dst_port, e_src, e_src_port, proto)
                    assert flow in opened, where
                    lan_replies += config.lan_prefix.contains(src)
                assert _oracle(config.rules, flow)[0] is True, where
    assert lan_replies > 500


def pressure_cases() -> list[tuple[str, object, list]]:
    """(name, config, packets): every corner trace, then 48 seeded traces under pressure.

    The seeded traces run at capacity 2-4 with a pool of 1-3 ports and short
    timeouts, among LAN and outside peers, and a quarter of their packets get
    random flags: flows close mid-stream, are sent to while closed, expire,
    and open again on the same five-tuple.
    """
    cases = [(name, make_config(**kwargs), trace(text)) for name, kwargs, text, _ in CORNER_CASES]
    flag_choices = (SYN, SYN, SYN | ACK, ACK, FIN | ACK, RST, RST | ACK, 0)
    peers = tuple(parse_ip(a) for a in ("198.51.100.9", "203.0.113.77", "10.0.0.9"))
    for seed in range(48):
        rng = random.Random(0xC105ED ^ seed)
        config = make_config(
            nat=f"public 192.0.2.1\nports 40000-{40000 + rng.randint(0, 2)}\n",
            capacity=rng.randint(2, 4),
            timeouts=Timeouts(
                tcp_established=rng.uniform(0.05, 0.5),
                tcp_transient=rng.uniform(0.02, 0.2),
                non_tcp=rng.uniform(0.02, 0.2),
                closed_grace=rng.uniform(0.01, 0.1),
            ),
        )
        spec = TraceSpec(
            sessions=rng.randint(4, 24),
            packets_per_session=rng.randint(10, 40),
            tcp_fraction=0.8,
            peers=peers,
            seed=seed,
        )
        packets = [
            p._replace(flags=rng.choice(flag_choices)) if rng.random() < 0.25 else p
            for p in generate_packets(spec)
        ]
        cases.append((f"pressure, seed {seed}", config, packets))
    return cases


def _flow_name(sid: SessionId) -> tuple:
    """A flow's name from a LAN-side five-tuple of either direction: its two endpoints."""
    src, src_port, dst, dst_port, proto = sid
    return proto, frozenset(((src, src_port), (dst, dst_port)))


def _assert_one_live_entry_per_public_tuple(table, now: float, where) -> None:
    """Both indexes file the same live entries under their own keys, public tuples distinct."""
    assert all(key == entry.outbound_key for key, entry in table._out.items()), where
    assert all(key == entry.inbound_key for key, entry in table._in.items()), where
    live = [entry for entry in table._out.values() if entry.expiry > now]
    assert {id(e) for e in live} == {id(e) for e in table._in.values() if e.expiry > now}, where
    # out_sid is the public (gwy, gwy_port, ext, ext_port, proto) tuple
    assert len({entry.out_sid for entry in live}) == len(live), where


def test_closed_flows_stay_closed_and_public_tuples_stay_unique():
    """ROADMAP D's last two security invariants, on both verdict streams, under pressure.

    Once a TCP flow's RST or second FIN is forwarded at t, nothing more of
    that flow is forwarded before t + closed_grace, and the first thing
    forwarded after it is a first packet, which reopens the flow through
    the rules (its one rule evaluation). After every packet, the
    table holding public ports (the session table, or the baseline's NAT
    table) keeps one live entry per public tuple under both its indexes.
    """
    closes = blocked = reopened = 0
    cases = pressure_cases()
    for name, config, packets in cases + mutated_cases(cases):
        grace = config.timeouts.closed_grace
        for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
            table = pipe.nat_table if isinstance(pipe, BaselinePipeline) else pipe.table
            fins = {}  # flow -> FINs forwarded since its last bare SYN
            closed_at = {}  # flow -> when the packet that closed it was forwarded
            for packet in packets:
                verdict = pipe.process(packet)
                out = verdict.outcome
                now, sid, flags = packet.ts, packet.sid, packet.flags
                where = (name, pipe.name, packet)
                _assert_one_live_entry_per_public_tuple(table, now, where)
                if sid.proto != TCP:
                    continue
                from_lan = config.lan_prefix.contains(sid.src_addr)
                if type(out) is not Forwarded:
                    # a LAN packet's own five-tuple names its flow
                    blocked += from_lan and now < closed_at.get(_flow_name(sid), -1.0) + grace
                    continue
                # a reply leaves addressed to its flow's LAN endpoint
                flow = _flow_name(sid if from_lan else out.packet.sid)
                if flow in closed_at:
                    assert now >= closed_at.pop(flow) + grace, where
                    assert verdict.lookups.rule_evals == 1, where
                    reopened += 1
                if flags == SYN:  # forwarded only as a flow's first packet, or its retransmission
                    fins[flow] = 0
                if flags & RST or flags & FIN and fins.get(flow) == 1:
                    closed_at[flow] = now
                    closes += 1
                elif flags & FIN:
                    fins[flow] = fins.get(flow, 0) + 1
    assert closes > 200 and blocked > 400 and reopened > 10, (closes, blocked, reopened)


def test_forwards_carry_the_stored_rewrite():
    """Each forwarded five-tuple is the rewrite formula's; one flow direction reuses one object."""
    repeats = 0  # integrated forwards of a flow direction that had forwarded before
    for name, config, packets in differential_cases():
        baseline, integrated = BaselinePipeline(config), IntegratedPipeline(config)
        emitted = {}  # (id of a flow's entry, outbound) -> (the entry, its first forwarded sid)
        for packet in packets:
            sid = packet.sid
            outs = [(pipe, pipe.process(packet).outcome) for pipe in (baseline, integrated)]
            lan_to_lan = all(config.lan_prefix.contains(a) for a in (sid.src_addr, sid.dst_addr))
            # a LAN peer's reply, which missed as a flow of its own, leaves no entry under
            # its five-tuple; a forwarded outbound packet's flow is live under it
            outbound = config.lan_prefix.contains(sid.src_addr) and (
                not lan_to_lan or sid in integrated.table._out
            )
            for pipe, out in outs:
                if not isinstance(out, Forwarded):
                    continue
                table = pipe.nat_table if pipe is baseline else pipe.table
                index = table._out if outbound else table._in
                flow = None if pipe is baseline and lan_to_lan else index[sid]
                want = sid if flow is None else _rewritten_by_formula(sid, flow, outbound)
                assert out.packet.sid == want, (name, pipe.name, packet)
                if pipe is integrated:
                    key = (id(flow), outbound)
                    repeats += key in emitted
                    _, first = emitted.setdefault(key, (flow, out.packet.sid))
                    assert out.packet.sid is first, (name, packet)
    assert repeats > 1000


def _whole(value, kind) -> bool:
    """`value` is exactly a `kind`, of its arity, equal to the NamedTuple call that rebuilds it."""
    return type(value) is kind and len(value) == len(kind._fields) and kind(*value) == value


def test_verdicts_are_whole_namedtuples():
    """`_forward` builds with `tuple.__new__`, which checks neither arity nor field order."""
    forwards = 0
    for name, config, packets in differential_cases():
        for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
            for packet in packets:
                verdict = pipe.process(packet)
                where = (name, pipe.name, packet)
                assert _whole(verdict, Verdict), where
                assert _whole(verdict.lookups, LookupAccounting), where
                out = verdict.outcome
                if type(out) is not Forwarded:
                    assert type(out) is DropReason, where
                    continue
                assert _whole(out, Forwarded) and type(out.route) is RouteEntry, where
                emitted = out.packet
                assert _whole(emitted, Packet) and type(emitted.sid) is SessionId, where
                # each field by name: only the five-tuple and the DSCP bits may be rewritten
                assert emitted == Packet(
                    ts=packet.ts,
                    sid=emitted.sid,
                    tos=merge_dscp(packet.tos, emitted.tos >> 2),
                    ttl=packet.ttl - 1,
                    flags=packet.flags,
                    payload_len=packet.payload_len,
                ), where
                forwards += 1
    assert forwards > 10_000


def _portless_cases() -> list[tuple[str, object, list]]:
    """Seeded traces in which flows to peer ports 53 and 123 become protocols 1 and 47.

    Such a flow keeps ports 0 both ways, and its replies target the public
    address at port 0, where address-only translation puts them.
    """
    protocols = {53: 1, 123: 47}
    peers = tuple(parse_ip(a) for a in ("198.51.100.9", "203.0.113.77", "10.0.0.9"))
    cases = []
    for seed in range(4):
        spec = TraceSpec(
            sessions=80, packets_per_session=6, tcp_fraction=0.3, peers=peers, seed=seed
        )
        packets = []
        for p in generate_packets(spec):
            src, src_port, dst, dst_port, proto = p.sid
            # LAN ports start at 10000 and public ones at 40000: only the peer's can match
            new = proto == UDP and protocols.get(src_port, protocols.get(dst_port))
            packets.append(p._replace(sid=SessionId(src, 0, dst, 0, new)) if new else p)
        cases.append((f"ports 53/123 as protocols 1/47, seed {seed}", make_config(), packets))
    return cases


def test_every_forward_renders_to_a_line_that_reads_back_as_itself():
    cases = [(name, make_config(**kwargs), trace(text)) for name, kwargs, text, _ in CORNER_CASES]
    cases += _portless_cases()
    portless_replies = 0
    for name, config, packets in cases:
        assert compare(config, packets).equal, name
        for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
            for packet in packets:
                out = pipe.process(packet).outcome
                if type(out) is Forwarded:
                    assert load_trace(render_trace_record(out.packet)) == [out.packet], (
                        name, pipe.name, packet)
                    portless_replies += out.packet.sid.proto not in (TCP, UDP) and not (
                        config.lan_prefix.contains(packet.sid.src_addr))
    assert portless_replies > 100, portless_replies


def test_the_lan_test_agrees_with_cidr_contains_at_every_prefix_length():
    """Probes at and just off both ends of the LAN prefix, from it and to it.

    From a probe, an outbound miss evaluates the rules and an inbound one
    drops `inbound_no_session`; to a probe from the LAN, the flow skips NAT
    exactly when the probe is on the LAN too.
    """
    outside = parse_ip("198.51.100.9")
    for prefix_len in range(33):
        for base in ("0.0.0.0", "10.20.30.40", "255.255.255.255"):
            lan = Cidr.parse(f"{base}/{prefix_len}")
            config = make_config(lan=str(lan))
            last = lan.network + 2 ** (32 - prefix_len) - 1
            for probe in {a % 2**32 for a in (lan.network - 1, lan.network, last, last + 1)}:
                inside = lan.contains(probe)
                for pipe_class in (BaselinePipeline, IntegratedPipeline):
                    where = (str(lan), format_ip(probe), pipe_class.name)
                    sent = pipe_class(config).process(
                        Packet(0.0, SessionId(probe, 1000, outside, 53, UDP), 0, 64, 0, 0))
                    assert sent.lookups.rule_evals == inside, where
                    if not inside:
                        assert sent.outcome == DropReason.INBOUND_NO_SESSION, where
                    received = pipe_class(config).process(
                        Packet(0.0, SessionId(lan.network, 1000, probe, 53, UDP), 0, 64, 0, 0))
                    assert received.lookups.rule_evals == 1, where
                    assert received.lookups.nat_lookups == (not inside), where

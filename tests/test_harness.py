"""Trace generation, replay reports, and differential compare."""

from pathlib import Path

import pytest

from conftest import make_config
from test_pipelines import REASONS, differential_cases
from flowgate import harness
from flowgate.errors import ConfigError
from flowgate.harness import (
    CSV_HEADER,
    TraceSpec,
    compare,
    csv_row,
    first_divergence,
    generate_packets,
    generate_trace,
    render_verdict,
    run_pipeline,
)
from flowgate.packet import (
    ACK,
    FIN,
    SYN,
    TCP,
    UDP,
    Cidr,
    Packet,
    SessionId,
    format_ip,
    load_trace,
    parse_ip,
    parse_trace_record,
    render_trace_record,
)
from flowgate.pipelines import (
    TTL_EXPIRED,
    BaselinePipeline,
    Forward,
    Forwarded,
    IntegratedPipeline,
    LookupAccounting,
    Verdict,
)
from flowgate.routing import RouteEntry

PEERS = (parse_ip("198.51.100.9"), parse_ip("203.0.113.77"))


def spec(**kw) -> TraceSpec:
    defaults = dict(sessions=1, packets_per_session=4, tcp_fraction=1.0, peers=PEERS, seed=0)
    defaults.update(kw)
    return TraceSpec(**defaults)


def test_single_tcp_session_expansion():
    packets = generate_packets(spec())
    assert len(packets) == 4
    flags = [p.flags for p in packets]
    assert flags == [SYN, SYN | ACK, ACK, ACK]  # one data packet, no FIN budget at 4 packets
    # handshake reply arrives at the gateway endpoint
    assert packets[1].sid.dst_addr == parse_ip("192.0.2.1")
    assert packets[1].sid.dst_port == 40000


def test_fin_exchange_when_budget_allows():
    packets = generate_packets(spec(packets_per_session=6))
    assert [bool(p.flags & FIN) for p in packets] == [False] * 4 + [True, True]


def test_every_session_plan_holds_exactly_its_packet_count():
    """`generate_packets` interleaves the plans with zip, which stops at the shortest."""
    lan, gwy, peer = (parse_ip("10.0.0.1"), 10000), (parse_ip("192.0.2.1"), 40000), (PEERS[0], 80)
    for proto in (TCP, UDP, 1):
        for count in range(200):
            assert len(harness._session_packets(proto, lan, gwy, peer, count)) == count


def test_lan_peer_replies_to_the_lan_endpoint():
    """A LAN peer is not translated; the outside flow still gets the first pool port."""
    lan_peer, outside_peer = parse_ip("10.0.0.9"), PEERS[0]
    packets = generate_packets(spec(sessions=2, peers=(lan_peer, outside_peer)))
    lan_reply, outside_reply = packets[2], packets[3]  # round 1: each session's SYN+ACK
    assert lan_reply.sid.src_addr == lan_peer
    assert lan_reply.sid[2:4] == packets[0].sid[:2]  # the LAN endpoint, 10.0.0.1:10000
    assert outside_reply.sid.src_addr == outside_peer
    assert outside_reply.sid[2:4] == (parse_ip("192.0.2.1"), 40000)  # DEFAULT_NAT's first port


def test_lan_hosts_lie_inside_the_lan_prefix():
    """Hosts start past the network address, except in a /32, whose one address is the host."""
    for prefix, host in (("10.0.0.5/32", "10.0.0.5"), ("10.0.0.4/31", "10.0.0.5")):
        config = make_config(lan=prefix)
        packets = generate_packets(
            spec(sessions=2, packets_per_session=3, lan_prefix=config.lan_prefix)
        )
        assert {p.sid.src_addr for p in packets if p.flags == SYN} == {parse_ip(host)}
        _, report = run_pipeline(BaselinePipeline(config), packets)
        assert report.forwarded == 6


def test_generation_is_deterministic():
    a = generate_trace(spec(sessions=7, packets_per_session=9, tcp_fraction=0.5, seed=3))
    b = generate_trace(spec(sessions=7, packets_per_session=9, tcp_fraction=0.5, seed=3))
    assert a == b
    c = generate_trace(spec(sessions=7, packets_per_session=9, tcp_fraction=0.5, seed=4))
    assert a != c


def test_generated_trace_round_trips_through_text():
    text = generate_trace(spec(sessions=3, packets_per_session=5, tcp_fraction=0.5, seed=11))
    assert load_trace(text) == generate_packets(
        spec(sessions=3, packets_per_session=5, tcp_fraction=0.5, seed=11)
    )


def test_session_count_and_distinct_tuples():
    packets = generate_packets(spec(sessions=10, packets_per_session=1000))
    assert len(packets) == 10_000
    outbound_tuples = {p.sid for p in packets if p.sid.proto == TCP and p.flags == SYN}
    assert len(outbound_tuples) == 10
    ts = [p.ts for p in packets]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)  # strictly increasing


def test_empty_peer_pool_is_config_error():
    with pytest.raises(ConfigError, match="peer"):
        generate_packets(spec(peers=()))


def test_run_empty_trace_reports_zeroes():
    _, report = run_pipeline(BaselinePipeline(make_config()), [])
    assert report.packets == 0 and report.forwarded == 0 and report.dropped_total == 0
    assert report.total_consultations() == 0


def test_run_small_trace_hit_miss_counts():
    packets = generate_packets(spec())
    _, report = run_pipeline(IntegratedPipeline(make_config()), packets)
    assert report.session_misses == 1
    assert report.session_hits == 3
    assert report.forwarded == 4
    assert report.forwarded + report.dropped_total == report.packets


def test_report_identities_on_random_traces():
    for seed in range(5):
        packets = generate_packets(
            spec(sessions=13, packets_per_session=17, tcp_fraction=0.6, seed=seed)
        )
        for cls in (BaselinePipeline, IntegratedPipeline):
            _, report = run_pipeline(cls(make_config()), packets)
            assert report.forwarded + report.dropped_total == report.packets
            assert report.session_hits + report.session_misses == report.session_lookups


REPORT_TRACE = (
    "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
    "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
    "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
    "0.3 tcp 10.0.0.5:1201 198.51.100.9:23 S 0 0\n"  # rule_denied
    "0.4 udp 8.8.8.8:53 192.0.2.1:40001 - 0 0\n"  # inbound_no_session
    "0.5 tcp 10.0.0.5:1202 198.51.100.9:80 A 0 0\n"  # state_violation
    "0.6 udp 10.0.0.5:5000 8.8.8.8:53 - 0 0\n"
    "0.7 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n"
    "0.8 tcp 10.0.0.6:1300 198.51.100.9:23 S 0 0\n"  # rule_denied
)


@pytest.mark.parametrize(
    "cls, summary, row",
    [
        (
            BaselinePipeline,
            "baseline: 9 packets, 5 forwarded, 4 dropped"
            " (inbound_no_session=1, rule_denied=2, state_violation=1)\n"
            "  session lookups 8 (3 hits, 5 misses), nat 9,"
            " rule evals 5 (8 rules scanned), qos 5, route 5\n"
            "  total consultations 32, wall WALL ns",
            "baseline,9,5,4,3,5,9,8,5,8,5,5,WALL",
        ),
        (
            IntegratedPipeline,
            "integrated: 9 packets, 5 forwarded, 4 dropped"
            " (inbound_no_session=1, rule_denied=2, state_violation=1)\n"
            "  session lookups 9 (3 hits, 6 misses), nat 2,"
            " rule evals 5 (8 rules scanned), qos 2, route 4\n"
            "  total consultations 22, wall WALL ns",
            "integrated,9,5,4,3,6,2,9,5,8,2,4,WALL",
        ),
    ],
    ids=["baseline", "integrated"],
)
def test_run_report_golden_text(cls, summary, row):
    """The exact report text and CSV row of a run with forwards and three drop reasons."""
    config = make_config(rules="drop tcp any any any 23\naccept any any any any any\n")
    _, report = run_pipeline(cls(config), load_trace(REPORT_TRACE))
    wall = str(report.wall_ns)
    assert report.summary() == summary.replace("WALL", wall)
    assert csv_row(report) == row.replace("WALL", wall)
    assert CSV_HEADER == (
        "pipeline,packets,forwarded,dropped,session_hits,session_misses,"
        "nat_lookups,session_lookups,rule_evals,rules_scanned,"
        "qos_classifications,route_lookups,wall_ns"
    )


# a one-port pool, two table entries and no default route: every drop reason, most once
SEVEN_DROPS_TRACE = (
    "0.0 udp 10.0.0.1:1000 198.51.100.9:53 - 0 0\n"
    "0.1 udp 10.0.0.2:1000 198.51.100.9:53 - 0 0\n"  # nat_exhausted: the one port is taken
    "0.2 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"  # no_route
    "0.3 udp 10.0.0.7:1000 198.51.100.12:53 - 0 0 1\n"  # ttl_expired
    "0.4 udp 198.51.100.9:53 192.0.2.1:40000 - 0 0\n"
    "0.5 udp 10.0.0.3:1000 198.51.100.10:53 - 0 0\n"  # the second entry
    "0.6 udp 10.0.0.4:1000 198.51.100.11:53 - 0 0\n"  # table_full
    "0.7 udp 10.0.0.4:1001 198.51.100.11:53 - 0 0\n"  # table_full
    "0.8 tcp 10.0.0.5:1000 198.51.100.9:23 S 0 0\n"  # rule_denied
    "0.9 tcp 10.0.0.5:1001 198.51.100.9:80 A 0 0\n"  # state_violation
    "1.0 udp 203.0.113.9:53 192.0.2.1:40001 - 0 0\n"  # inbound_no_session
    "1.1 udp 203.0.113.9:53 192.0.2.1:40002 - 0 0\n"  # inbound_no_session
    "1.2 udp 203.0.113.9:53 192.0.2.1:40003 - 0 0\n"  # inbound_no_session
)


@pytest.mark.parametrize(
    "cls, lookups",
    [
        (
            BaselinePipeline,
            "  session lookups 10 (1 hits, 9 misses), nat 13,"
            " rule evals 9 (17 rules scanned), qos 5, route 5\n"
            "  total consultations 42",
        ),
        (
            IntegratedPipeline,
            "  session lookups 13 (1 hits, 12 misses), nat 7,"
            " rule evals 9 (17 rules scanned), qos 4, route 8\n"
            "  total consultations 41",
        ),
    ],
    ids=["baseline", "integrated"],
)
def test_run_report_lists_all_seven_drop_reasons_in_name_order(cls, lookups):
    config = make_config(
        rules="drop tcp any any any 23\naccept any any any any any\n",
        routes="10.0.0.0/8 10.0.0.254 lan\n198.51.100.0/24 203.0.113.1 wan\n",
        nat="public 192.0.2.1\nports 40000-40000\n",
        capacity=2,
    )
    _, report = run_pipeline(cls(config), load_trace(SEVEN_DROPS_TRACE))
    assert report.summary() == (
        f"{cls.name}: 13 packets, 3 forwarded, 10 dropped (inbound_no_session=3,"
        " nat_exhausted=1, no_route=1, rule_denied=1, state_violation=1, table_full=2,"
        f" ttl_expired=1)\n{lookups}, wall {report.wall_ns} ns"
    )


def test_compare_passes_on_generated_traces():
    result = compare(
        make_config(), generate_packets(spec(sessions=20, packets_per_session=50, tcp_fraction=0.7))
    )
    assert result.equal
    assert result.describe().startswith("PASS")


def test_compare_passes_with_rule_denied_packets():
    cfg = make_config(rules="drop tcp any any any 80\naccept any any any any any\n")
    result = compare(cfg, generate_packets(spec(sessions=6, packets_per_session=8)))
    assert result.equal
    # sessions to port-80 peers were denied identically in both pipelines
    assert result.baseline_report.dropped == result.integrated_report.dropped


def test_compare_detects_skipped_dscp_mutation(monkeypatch):
    """Self-check: silently skipping DSCP marking on the hit path must FAIL."""
    cfg = make_config(qos="any any any any any dscp 34\n")
    packets = generate_packets(spec(sessions=2, packets_per_session=6, tcp_fraction=0.0))
    baseline_verdicts, _ = run_pipeline(BaselinePipeline(cfg), packets)

    import flowgate.pipelines as pipelines_module

    monkeypatch.setattr(pipelines_module, "merge_dscp", lambda tos, dscp: tos)
    integrated_verdicts, _ = run_pipeline(IntegratedPipeline(cfg), packets)
    monkeypatch.undo()

    index = first_divergence(baseline_verdicts, integrated_verdicts)
    assert index is not None


def test_compare_reports_divergence_index():
    a, _ = run_pipeline(BaselinePipeline(make_config()), generate_packets(spec()))
    b, _ = run_pipeline(IntegratedPipeline(make_config()), generate_packets(spec()))
    assert first_divergence(a, b) is None
    assert first_divergence(a, b[:-1]) == 3  # length mismatch counts as divergence


def _forward_verdict(ttl: int = 63) -> Forward:
    sid = SessionId(parse_ip("192.0.2.1"), 40000, parse_ip("198.51.100.9"), 80, TCP)
    packet = Packet(0.5, sid, tos=184, ttl=ttl, flags=SYN | ACK, payload_len=64)
    route = RouteEntry(Cidr.parse("0.0.0.0/0"), parse_ip("203.0.113.1"), "wan")
    return Forward(route, *packet, LookupAccounting(1, 1))


def test_value_types_keep_their_fields_and_defaults():
    assert Packet._fields == ("ts", "sid", "tos", "ttl", "flags", "payload_len")
    assert Forwarded._fields == ("route", "ts", "sid", "tos", "ttl", "flags", "payload_len")
    assert Forward._fields == (*Forwarded._fields, "lookups")
    assert Verdict._fields == ("outcome", "lookups")
    assert LookupAccounting._fields == (
        "nat_lookups", "session_lookups", "rule_evals", "rules_scanned",
        "qos_classifications", "route_lookups",
    )
    assert LookupAccounting._field_defaults == dict.fromkeys(LookupAccounting._fields, 0)
    for kind in (Packet, Forwarded, Forward, Verdict):
        assert kind._field_defaults == {}
    assert LookupAccounting(1, 2, 3, 99, 4, 5).total_consultations() == 15


def test_verdicts_compare_and_hash_by_value():
    a, b = _forward_verdict(), _forward_verdict()
    assert a == b and a.outcome is not b.outcome and a.outcome.route is not b.outcome.route
    assert hash(a.outcome) == hash(b.outcome)
    assert a != _forward_verdict(ttl=62)
    # a drop's outcome is its reason, a str: it equals only the same text, never a forward
    assert len(set(REASONS)) == 7
    for reason in REASONS:
        assert type(reason) is str
        drop = Verdict("".join(reason), LookupAccounting(1, 1))  # an equal str, not the same one
        assert drop.outcome is not reason
        assert drop == Verdict(reason, a.lookups) and hash(drop) == hash(Verdict(reason, a.lookups))
        assert reason != a.outcome and a.outcome != reason
        assert render_verdict(drop) == f"drop {reason}"


def test_a_forward_holds_its_emitted_packets_fields():
    out = _forward_verdict().outcome
    packet = Packet(0.5, out.sid, tos=184, ttl=63, flags=SYN | ACK, payload_len=64)
    assert Packet(*Forwarded(out.route, *packet)[1:]) == packet
    assert out[1:] == packet and out.sid is packet.sid
    # a forward differs from another that differs in any one field
    lan = RouteEntry(Cidr.parse("10.0.0.0/8"), parse_ip("10.0.0.254"), "lan")
    others = (lan, 0.25, out.sid._replace(dst_port=81), 0, 62, ACK, 65)
    for name, other in zip(Forwarded._fields, others, strict=True):
        assert getattr(out, name) != other
        assert out._replace(**{name: other}) != out, name


@pytest.mark.parametrize("ts", [0, 0.0, 1e-05, 4503599627370495.5])
def test_render_verdict_writes_the_timestamp_as_the_trace_record_does(ts):
    out = _forward_verdict().outcome
    packet = Packet(*out[1:])._replace(ts=ts)
    verdict = Forward(out.route, *packet, LookupAccounting())
    assert render_verdict(verdict) == f"forward {out.route.label} {render_trace_record(packet)}"


def test_first_divergence_finds_a_drop_against_a_forward():
    forward = _forward_verdict()
    drop = Verdict(TTL_EXPIRED, forward.lookups)
    assert first_divergence([forward, forward], [forward, drop]) == 1
    # lookup accounting is not observable
    assert first_divergence([forward], [forward._replace(lookups=LookupAccounting())]) is None


def test_render_verdict_golden_lines():
    assert render_verdict(_forward_verdict()) == (
        "forward 203.0.113.1 wan 0.5 tcp 192.0.2.1:40000 198.51.100.9:80 SA 64 184 63"
    )
    assert [render_verdict(Verdict(r, LookupAccounting())) for r in REASONS] == [
        "drop rule_denied",
        "drop state_violation",
        "drop no_route",
        "drop nat_exhausted",
        "drop table_full",
        "drop ttl_expired",
        "drop inbound_no_session",
    ]


def test_render_verdict_writes_the_canonical_next_hop():
    config = make_config(routes="0.0.0.0/0 203.000.113.001 wan\n10.0.0.0/8 010.000.000.254 lan\n")
    pipe = IntegratedPipeline(config)
    pipe.process(parse_trace_record("0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0"))
    reply = pipe.process(parse_trace_record("0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0"))
    assert render_verdict(reply) == "forward 10.0.0.254 lan 0.1 udp 8.8.8.8:53 10.0.0.5:1000 - 0 184 63"


def test_render_verdict_matches_formatting_the_route_each_time():
    verdicts = 0
    for _, config, packets in differential_cases():
        for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
            for verdict in map(pipe.process, packets):
                out = verdict.outcome
                if type(out) is Forwarded:
                    hop, iface = out.route.next_hop, out.route.iface
                    want = f"forward {format_ip(hop)} {iface} {render_trace_record(Packet(*out[1:]))}"
                else:
                    assert out in REASONS
                    want = f"drop {out}"
                assert render_verdict(verdict) == want
                verdicts += 1
    assert verdicts > 20_000


def test_a_forward_is_its_forwarded_then_its_lookups():
    """`outcome` rebuilds the `Forwarded` that observers compare, and the line renders from it."""
    tests = Path(__file__).resolve().parent
    config = make_config(**{
        name: (tests.parent / "configs" / f"{name}.txt").read_text()
        for name in ("rules", "routes", "nat", "qos")
    })
    lan_peer = (PEERS[0], parse_ip("10.0.0.9"))
    gen = generate_packets(spec(sessions=40, packets_per_session=12, tcp_fraction=0.5, peers=lan_peer))
    drops = load_trace((tests / "drops-trace.txt").read_text())
    forwards = 0
    for packets in (gen, drops):
        for pipe in (BaselinePipeline(config), IntegratedPipeline(config)):
            for verdict in map(pipe.process, packets):
                if type(verdict) is not Forward:
                    continue
                out = verdict.outcome
                assert type(out) is Forwarded and out == Forwarded(*verdict[:7])
                assert verdict.lookups is verdict[7]
                route, *packet = out
                hop = f"{format_ip(route.next_hop)} {route.iface}"
                assert render_verdict(verdict) == f"forward {hop} {render_trace_record(Packet(*packet))}"
                forwards += 1
    assert forwards > 900

"""Trace generation, replay reports, differential compare, and bench."""

import pytest

from conftest import make_config
from flowgate.errors import ConfigError
from flowgate.harness import (
    CSV_HEADER,
    TraceSpec,
    bench,
    compare,
    csv_row,
    first_divergence,
    generate_packets,
    generate_trace,
    render_verdict,
    run_pipeline,
)
from flowgate.packet import ACK, FIN, SYN, TCP, Packet, SessionId, load_trace, parse_ip
from flowgate.pipelines import (
    BaselinePipeline,
    Dropped,
    DropReason,
    Forwarded,
    IntegratedPipeline,
    LookupAccounting,
    Verdict,
)

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


def test_lan_peer_replies_to_the_lan_endpoint():
    """A LAN peer is not translated; the outside flow still gets the first pool port."""
    lan_peer, outside_peer = parse_ip("10.0.0.9"), PEERS[0]
    packets = generate_packets(spec(sessions=2, peers=(lan_peer, outside_peer)))
    lan_reply, outside_reply = packets[2], packets[3]  # round 1: each session's SYN+ACK
    assert lan_reply.sid.src_addr == lan_peer
    assert lan_reply.sid[2:4] == packets[0].sid[:2]  # the LAN endpoint, 10.0.0.1:10000
    assert outside_reply.sid.src_addr == outside_peer
    assert outside_reply.sid[2:4] == (parse_ip("192.0.2.1"), 40000)  # nat_port_lo


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


def _forward_verdict(ttl: int = 63) -> Verdict:
    sid = SessionId(parse_ip("192.0.2.1"), 40000, parse_ip("198.51.100.9"), 80, TCP)
    packet = Packet(0.5, sid, tos=184, ttl=ttl, flags=SYN | ACK, payload_len=64)
    return Verdict(Forwarded(parse_ip("203.0.113.1"), "wan", packet), LookupAccounting(1, 1))


def test_value_types_keep_their_fields_and_defaults():
    assert Packet._fields == ("ts", "sid", "tos", "ttl", "flags", "payload_len")
    assert Forwarded._fields == ("next_hop", "iface", "packet")
    assert Dropped._fields == ("reason",)
    assert Verdict._fields == ("outcome", "lookups")
    assert LookupAccounting._fields == (
        "nat_lookups", "session_lookups", "rule_evals", "rules_scanned",
        "qos_classifications", "route_lookups",
    )
    assert LookupAccounting._field_defaults == dict.fromkeys(LookupAccounting._fields, 0)
    for kind in (Packet, Forwarded, Dropped, Verdict):
        assert kind._field_defaults == {}
    assert LookupAccounting(1, 2, 3, 99, 4, 5).total_consultations() == 15


def test_verdicts_compare_and_hash_by_value():
    a, b = _forward_verdict(), _forward_verdict()
    assert a == b and a.outcome is not b.outcome
    assert hash(a.outcome) == hash(b.outcome)
    assert a != _forward_verdict(ttl=62)
    assert Dropped(DropReason.NO_ROUTE) == Dropped(DropReason.NO_ROUTE)
    assert hash(Dropped(DropReason.NO_ROUTE)) == hash(Dropped(DropReason.NO_ROUTE))
    assert Dropped(DropReason.NO_ROUTE) != Dropped(DropReason.TTL_EXPIRED)
    for reason in DropReason:
        assert Dropped(reason) != a.outcome and a.outcome != Dropped(reason)


def test_first_divergence_finds_a_drop_against_a_forward():
    forward = _forward_verdict()
    drop = Verdict(Dropped(DropReason.TTL_EXPIRED), forward.lookups)
    assert first_divergence([forward, forward], [forward, drop]) == 1
    # lookup accounting is not observable
    assert first_divergence([forward], [forward._replace(lookups=LookupAccounting())]) is None


def test_render_verdict_golden_lines():
    assert render_verdict(_forward_verdict()) == (
        "forward 203.0.113.1 wan 0.5 tcp 192.0.2.1:40000 198.51.100.9:80 SA 64 184 63"
    )
    assert [render_verdict(Verdict(Dropped(r), LookupAccounting())) for r in DropReason] == [
        "drop rule_denied",
        "drop state_violation",
        "drop no_route",
        "drop nat_exhausted",
        "drop table_full",
        "drop ttl_expired",
        "drop inbound_no_session",
    ]


def test_bench_rows_and_medians():
    cfg = make_config()
    packets = generate_packets(spec(sessions=5, packets_per_session=20))
    reports, medians = bench(cfg, packets, repetitions=3)
    assert len(reports) == 6
    assert {r.pipeline for r in reports} == {"baseline", "integrated"}
    for r in reports:
        assert r.wall_ns > 0
        row = csv_row(r)
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
    # counters identical across repetitions of the same pipeline
    base = [r for r in reports if r.pipeline == "baseline"]
    assert len({csv_row(r).rsplit(",", 1)[0] for r in base}) == 1
    assert medians["baseline"] > 0 and medians["integrated"] > 0
    with pytest.raises(ValueError):
        bench(cfg, packets, repetitions=0)


def test_bench_lookup_totals_on_reference_trace():
    cfg = make_config()
    packets = generate_packets(spec(sessions=10, packets_per_session=1000))
    reports, _ = bench(cfg, packets, repetitions=1)
    by_name = {r.pipeline: r for r in reports}
    baseline, integrated = by_name["baseline"], by_name["integrated"]
    assert baseline.nat_lookups == 10_000
    assert baseline.route_lookups == 10_000
    assert baseline.qos_classifications == 10_000
    assert integrated.session_lookups == 10_000
    assert integrated.nat_lookups == 10
    assert integrated.route_lookups == 20
    ratio = baseline.total_consultations() / integrated.total_consultations()
    assert ratio > 3.9

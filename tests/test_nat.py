"""NAPT allocation, translation round trips, and map consistency."""

import random

import pytest

from flowgate.errors import ConfigError
from flowgate.nat import (
    NatConfig,
    NatPoolExhausted,
    NatTable,
    find_free_port,
    parse_nat_config,
)
from flowgate.packet import TCP, UDP, parse_ip, parse_trace_record

PUBLIC = parse_ip("192.0.2.1")
PEER = parse_ip("198.51.100.9")
OTHER_PEER = parse_ip("203.0.113.77")
LAN = parse_ip("10.0.0.5")


def test_parse_nat_config():
    cfg = parse_nat_config("# nat\npublic 192.0.2.1\nports 40000-49999\n")
    assert cfg == NatConfig(PUBLIC, 40000, 49999)
    assert cfg.pool_size == 10000
    with pytest.raises(ConfigError, match="line 1"):
        parse_nat_config("public 300.0.0.1\nports 1-2")
    with pytest.raises(ConfigError, match="port range"):
        parse_nat_config("public 192.0.2.1\nports 5-2")
    with pytest.raises(ConfigError):
        parse_nat_config("public 192.0.2.1\n")
    # each line once: a repeat would otherwise silently replace the first
    with pytest.raises(ConfigError, match="line 2: repeated 'ports' line"):
        parse_nat_config("ports 1-2\nports 3-4\npublic 1.1.1.1\npublic 2.2.2.2\n")
    with pytest.raises(ConfigError, match="line 3: repeated 'public' line"):
        parse_nat_config("public 1.1.1.1\nports 1-2\npublic 2.2.2.2\n")
    # no flow can be translated to port 0
    for ports in ("0-0", "0-9"):
        with pytest.raises(ConfigError, match=f"line 2: bad port range '{ports}'"):
            parse_nat_config(f"public 192.0.2.1\nports {ports}\n")
    assert parse_nat_config("public 192.0.2.1\nports 1-1\n") == NatConfig(PUBLIC, 1, 1)
    # an unknown keyword, and a known one without its value
    for line in ("gateway 192.0.2.1", "public"):
        with pytest.raises(
            ConfigError, match=r"^line 1: expected 'public <ip>' or 'ports <lo>-<hi>'$"
        ):
            parse_nat_config(f"{line}\nports 1-2\n")


def test_allocation_is_lowest_free_per_peer():
    cfg = NatConfig(PUBLIC, 40000, 49999)
    tbl = NatTable()
    first = tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=0.0, expiry=60.0)
    assert first.out_sid[:2] == (PUBLIC, 40000)
    second = tbl.allocate(cfg, LAN, 1201, PEER, 80, TCP, now=0.0, expiry=60.0)
    assert second.out_sid.src_port == 40001
    # a different peer can reuse the lowest port
    other = tbl.allocate(cfg, LAN, 1202, OTHER_PEER, 80, TCP, now=0.0, expiry=60.0)
    assert other.out_sid.src_port == 40000


def test_pool_exhaustion_is_per_peer_tuple():
    cfg = NatConfig(PUBLIC, 40000, 40000)
    tbl = NatTable()
    tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=0.0, expiry=60.0)
    with pytest.raises(NatPoolExhausted):
        tbl.allocate(cfg, LAN, 1201, PEER, 80, TCP, now=0.0, expiry=60.0)
    tbl.allocate(cfg, LAN, 1202, OTHER_PEER, 80, TCP, now=0.0, expiry=60.0)


def test_a_protocol_without_ports_is_translated_by_address_alone():
    """Its one public "port" is 0, so one live flow per peer and protocol, as in nf_nat."""
    cfg = NatConfig(PUBLIC, 40000, 49999)
    tbl = NatTable()
    first = tbl.allocate(cfg, LAN, 0, PEER, 0, 1, now=0.0, expiry=60.0)
    assert first.out_sid[:2] == (PUBLIC, 0)
    with pytest.raises(NatPoolExhausted):
        tbl.allocate(cfg, LAN + 1, 0, PEER, 0, 1, now=0.0, expiry=60.0)
    for peer, proto, now in ((PEER, 47, 0.0), (OTHER_PEER, 1, 0.0), (PEER, 1, 60.0)):
        mapping = tbl.allocate(cfg, LAN + 1, 0, peer, 0, proto, now=now, expiry=now + 60.0)
        assert mapping.out_sid.src_port == 0


def test_expired_mapping_frees_its_port():
    cfg = NatConfig(PUBLIC, 40000, 40000)
    tbl = NatTable()
    tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=0.0, expiry=30.0)
    replacement = tbl.allocate(cfg, LAN, 1201, PEER, 80, TCP, now=30.0, expiry=90.0)
    assert replacement.out_sid.src_port == 40000


def test_allocate_over_live_flow_is_a_logic_error():
    cfg = NatConfig(PUBLIC, 40000, 49999)
    tbl = NatTable()
    tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=0.0, expiry=60.0)
    with pytest.raises(RuntimeError, match="live mapping"):
        tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=1.0, expiry=61.0)
    # the same flow may be re-allocated once its mapping has expired
    again = tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=60.0, expiry=120.0)
    assert again.out_sid.src_port == 40000


def test_lookup_forward_reverse_and_expiry():
    cfg = NatConfig(PUBLIC, 40000, 49999)
    tbl = NatTable()
    m = tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=0.0, expiry=60.0)
    assert tbl.lookup_forward((LAN, 1200, PEER, 80, TCP), now=1.0) is m
    assert tbl.lookup_reverse((PEER, 80, PUBLIC, 40000, TCP), now=1.0) is m
    assert tbl.lookups == 2
    assert tbl.lookup_forward((LAN, 1200, PEER, 80, TCP), now=60.0) is None
    assert len(tbl) == 0


def test_outbound_and_inbound_sid():
    cfg = NatConfig(PUBLIC, 40000, 49999)
    tbl = NatTable()
    m = tbl.allocate(cfg, LAN, 1200, PEER, 80, TCP, now=0.0, expiry=60.0)
    out = parse_trace_record("0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 7").sid
    assert m.outbound_key == out
    translated = m.out_sid
    assert (translated.src_addr, translated.src_port) == (PUBLIC, 40000)
    assert (translated.dst_addr, translated.dst_port) == (PEER, 80)

    reply = parse_trace_record("1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0").sid
    assert m.inbound_key == reply
    found = tbl.lookup_reverse(reply, now=1.0)
    assert found is m
    back = found.in_sid
    assert (back.dst_addr, back.dst_port) == (LAN, 1200)
    assert (back.src_addr, back.src_port) == (PEER, 80)


def test_translate_round_trip_property():
    rng = random.Random(31337)
    cfg = NatConfig(PUBLIC, 40000, 49999)
    tbl = NatTable()
    for i in range(10_000):
        lan_addr = parse_ip("10.0.0.0") + rng.randrange(1, 2**16)
        lan_port = rng.randrange(1024, 65536)
        peer = rng.randrange(2**31, 2**32 - 1)
        peer_port = rng.choice([80, 443, 53])
        proto = rng.choice([TCP, UDP])
        try:
            m = tbl.allocate(cfg, lan_addr, lan_port, peer, peer_port, proto, 0.0, 1e9)
        except NatPoolExhausted:
            continue
        flags = "S" if proto == TCP else "-"
        line = f"0 {'tcp' if proto == TCP else 'udp'} {_ip(lan_addr)}:{lan_port} {_ip(peer)}:{peer_port} {flags} 0 0"
        p = parse_trace_record(line)
        assert tbl.lookup_forward(p.sid, 0.0) is m
        outward = m.out_sid
        assert (outward.dst_addr, outward.dst_port) == (p.sid.dst_addr, p.sid.dst_port)
        # reflect: the peer answers the translated source, and the reply finds the mapping
        reflected = parse_trace_record(
            f"1 {'tcp' if proto == TCP else 'udp'} {_ip(peer)}:{peer_port}"
            f" {_ip(outward.src_addr)}:{outward.src_port} {flags if proto != TCP else 'SA'} 0 0"
        )
        found = tbl.lookup_reverse(reflected.sid, 0.0)
        assert found is m
        back = found.in_sid
        assert (back.src_addr, back.src_port) == (peer, peer_port)
        assert (back.dst_addr, back.dst_port) == (lan_addr, lan_port)


def _ip(addr: int) -> str:
    from flowgate.packet import format_ip

    return format_ip(addr)


def test_forward_reverse_consistency_random_ops():
    rng = random.Random(2024)
    cfg = NatConfig(PUBLIC, 40000, 40063)
    tbl = NatTable()
    now = 0.0
    for _ in range(3000):
        now += rng.uniform(0, 2)
        if rng.random() < 0.6:
            flow = (
                parse_ip("10.0.0.1") + rng.randrange(8),
                rng.randrange(1024, 1060),
                rng.choice([PEER, OTHER_PEER]),
                rng.choice([80, 443]),
                TCP,
            )
            if tbl.lookup_forward(flow, now) is None:  # as the pipeline does
                try:
                    tbl.allocate(cfg, *flow, now, now + rng.uniform(1, 40))
                except NatPoolExhausted:
                    pass
        else:
            key = (
                parse_ip("10.0.0.1") + rng.randrange(8),
                rng.randrange(1024, 1060),
                rng.choice([PEER, OTHER_PEER]),
                rng.choice([80, 443]),
                TCP,
            )
            tbl.lookup_forward(key, now)
        assert len(tbl._out) == len(tbl._in)
        for m in tbl._out.values():
            assert tbl._in[m.inbound_key] is m
        # port uniqueness among live mappings, per peer tuple
        seen = set()
        for m in tbl._in.values():
            if m.expiry > now:
                key = m.out_sid
                assert key not in seen
                seen.add(key)


def test_allocation_determinism():
    cfg = NatConfig(PUBLIC, 40000, 49999)

    def run():
        tbl = NatTable()
        return [tbl.allocate(cfg, LAN, 1200 + i, PEER, 80, TCP, 0.0, 60.0) for i in range(50)]

    assert run() == run()


def test_find_free_port_scans_from_low_end():
    cfg = NatConfig(PUBLIC, 40000, 40005)
    taken = {40000, 40001, 40003}
    assert find_free_port(cfg, PEER, 80, TCP, lambda p: p in taken) == 40002
    with pytest.raises(NatPoolExhausted):
        find_free_port(cfg, PEER, 80, TCP, lambda p: True)

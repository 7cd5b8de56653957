"""Shared fixtures: a small canonical router config and packet builders."""

from __future__ import annotations

import random

import pytest

from flowgate.filters import parse_rules
from flowgate.nat import parse_nat_config
from flowgate.packet import TCP, UDP, Cidr, Packet, SessionId, load_trace, parse_trace_record
from flowgate.pipelines import RouterConfig
from flowgate.qos import parse_qos
from flowgate.routing import parse_routes
from flowgate.session_table import Timeouts

DEFAULT_RULES = "accept any any any any any\n"
DEFAULT_ROUTES = "0.0.0.0/0 203.0.113.1 wan\n10.0.0.0/8 10.0.0.254 lan\n"
DEFAULT_NAT = "public 192.0.2.1\nports 40000-49999\n"
DEFAULT_QOS = "udp any any any 53 dscp 46\ntcp any any any 22 dscp 10\n"
DEFAULT_LAN = "10.0.0.0/8"


def make_config(
    rules: str = DEFAULT_RULES,
    routes: str = DEFAULT_ROUTES,
    nat: str = DEFAULT_NAT,
    qos: str = DEFAULT_QOS,
    lan: str = DEFAULT_LAN,
    timeouts: Timeouts = Timeouts(),
    capacity: int = 65536,
) -> RouterConfig:
    return RouterConfig(
        lan_prefix=Cidr.parse(lan),
        rules=parse_rules(rules),
        qos=parse_qos(qos),
        routes=parse_routes(routes),
        nat=parse_nat_config(nat),
        timeouts=timeouts,
        capacity=capacity,
    )


def pkt(line: str) -> Packet:
    return parse_trace_record(line)


def trace(text: str) -> list[Packet]:
    return load_trace(text)


@pytest.fixture
def config() -> RouterConfig:
    return make_config()


def edge_probes(lo: int, hi: int, top: int) -> set[int]:
    """The values at and just off both ends of [lo, hi], clamped to [0, top]."""
    return {min(max(v, 0), top) for v in (lo - 1, lo, hi, hi + 1)}


def random_matcher(rng: random.Random, protos=("any", "tcp", "udp", "6", "17", "1")) -> str:
    """Five matcher tokens: proto src_cidr src_ports dst_cidr dst_ports."""

    def cidr():
        if rng.random() < 0.3:
            return "any"
        plen = rng.randrange(33)
        return f"{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}/{plen}"

    def ports():
        if rng.random() < 0.4:
            return "any"
        lo = rng.randrange(65536)
        if rng.random() < 0.5:
            return str(lo)
        hi = rng.randrange(lo, 65536)
        return f"{lo}-{hi}"

    return f"{rng.choice(protos)} {cidr()} {ports()} {cidr()} {ports()}"


EDGE_PROTOS = ("any", "tcp", "udp", "1", "47")


def edge_sids(matchers, rng: random.Random) -> list[SessionId]:
    """Probes at and just off every edge of every matcher's four ranges.

    Each probe sits inside one matcher on three fields and on an edge of the
    fourth, with the matcher's protocol (TCP or UDP for a wildcard); each
    matcher is also probed as protocols 1 and 47, which carry port 0. Mixes
    of edges taken from different matchers follow.
    """
    top = (0xFFFFFFFF, 65535, 0xFFFFFFFF, 65535)
    values: list[set[int]] = [set(), set(), set(), set()]
    sids = []
    for m in matchers:
        ranges = m[1:]
        inside = [lo for lo, _ in ranges]
        proto = m.proto if m.proto is not None else rng.choice((TCP, UDP))
        for field, (lo, hi) in enumerate(ranges):
            for v in edge_probes(lo, hi, top[field]):
                values[field].add(v)
                sids.append(SessionId(*inside[:field], v, *inside[field + 1:], proto))
        for portless in (1, 47):
            sids.append(SessionId(inside[0], 0, inside[2], 0, portless))
    pools = [sorted(v) or [0] for v in values]
    for _ in range(200):
        proto = rng.choice((TCP, UDP, 1, 47))
        src, sport, dst, dport = (rng.choice(pool) for pool in pools)
        if proto in (1, 47):
            sport = dport = 0
        sids.append(SessionId(src, sport, dst, dport, proto))
    return sids


# --- acceptance reporting -------------------------------------------------
# test_acceptance.py records one line per criterion; printed after the run.

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)

"""Acceptance gate: every criterion asserted at its stated tolerance.

Each criterion appends one PASS/FAIL line to the terminal summary (see
conftest). Criterion 1b replays one hundred 100k-packet randomized traces
through both pipelines and dominates the suite's runtime.
"""

from __future__ import annotations

import multiprocessing
import random
from contextlib import contextmanager

import pytest

import conftest
from conftest import make_config, trace
from flowgate.cli import main as cli_main
from flowgate.filters import parse_rules
from flowgate.harness import (
    CSV_HEADER,
    TraceSpec,
    compare,
    generate_packets,
    run_pipeline,
)
from flowgate.nat import NatConfig, NatPoolExhausted, NatTable, parse_nat_config
from flowgate.packet import (
    FLAG_BITS,
    INBOUND,
    OUTBOUND,
    Cidr,
    format_ip,
    merge_dscp,
    parse_ip,
)
from flowgate.pipelines import (
    INBOUND_NO_SESSION,
    NAT_EXHAUSTED,
    NO_ROUTE,
    RULE_DENIED,
    STATE_VIOLATION,
    TABLE_FULL,
    TTL_EXPIRED,
    BaselinePipeline,
    Forwarded,
    IntegratedPipeline,
    LookupAccounting,
    RouterConfig,
)
from flowgate.qos import parse_qos
from flowgate.routing import parse_routes
from flowgate.session_table import SessionState, Timeouts, next_tcp_state


@contextmanager
def criterion(number: str, description: str):
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append(f"criterion {number:>3}: FAIL  {description}")
        raise
    conftest.ACCEPTANCE_RESULTS.append(f"criterion {number:>3}: PASS  {description}")


# --------------------------------------------------------------------------
# criterion 1a: hand-written corner-case traces
# --------------------------------------------------------------------------

F = "forwarded"
CORNER_CASES = [
    (
        "rule_denied_tcp_first_packet",
        dict(rules="drop tcp any any any 23\naccept any any any any any\n"),
        "0.0 tcp 10.0.0.5:1000 198.51.100.9:23 S 0 0\n"
        "0.1 tcp 10.0.0.5:1001 198.51.100.9:80 S 0 0\n",
        [(0, RULE_DENIED), (1, F)],
    ),
    (
        "rule_denied_udp",
        dict(rules="drop udp any any any 53\naccept any any any any any\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n",
        [(0, RULE_DENIED)],
    ),
    (
        "default_deny_empty_ruleset",
        dict(rules="# no rules\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n",
        [(0, RULE_DENIED)],
    ),
    (
        "non_syn_first_tcp_packets",
        {},
        "0.0 tcp 10.0.0.5:1000 198.51.100.9:80 A 0 0\n"
        "0.1 tcp 10.0.0.5:1001 198.51.100.9:80 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1002 198.51.100.9:80 AF 0 0\n"
        "0.3 tcp 10.0.0.5:1003 198.51.100.9:80 S 0 0\n",
        [(0, STATE_VIOLATION), (1, STATE_VIOLATION),
         (2, STATE_VIOLATION), (3, F)],
    ),
    (
        "syn_replay_on_established",
        {},
        "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
        "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
        "0.3 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n",
        [(2, F), (3, STATE_VIOLATION)],
    ),
    (
        "data_before_handshake_completes",
        {},
        "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
        "0.1 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n",
        [(0, F), (1, STATE_VIOLATION)],
    ),
    (
        "fin_teardown_then_late_data",
        {},
        "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
        "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
        "0.3 tcp 10.0.0.5:1200 198.51.100.9:80 AF 0 0\n"
        "0.4 tcp 198.51.100.9:80 192.0.2.1:40000 AF 0 0\n"
        "0.5 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n",
        [(3, F), (4, F), (5, STATE_VIOLATION)],
    ),
    (
        "rst_then_data_in_grace_window",
        {},
        "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
        "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
        "1.0 tcp 10.0.0.5:1200 198.51.100.9:80 R 0 0\n"
        "2.0 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n",
        [(3, F), (4, STATE_VIOLATION)],
    ),
    (
        "rst_then_new_session_after_grace",
        {},
        "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
        "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
        "1.0 tcp 10.0.0.5:1200 198.51.100.9:80 R 0 0\n"
        "7.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n",
        [(4, F)],
    ),
    (
        "ttl_expiry_on_hit_path",
        {},
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0 1\n",
        [(0, F), (1, TTL_EXPIRED)],
    ),
    (
        # a flow opens only when its first packet leaves, so its reply finds no flow,
        # its public port stays free, and its next packet is a first packet again
        "ttl_expiry_on_miss_path_opens_no_flow",
        {},
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0 1\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n"
        "0.2 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "0.3 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n",
        [(0, TTL_EXPIRED), (1, INBOUND_NO_SESSION), (2, F), (3, F)],
    ),
    (
        "no_route_to_external_destination",
        dict(routes="10.0.0.0/8 10.0.0.254 lan\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n",
        [(0, NO_ROUTE), (1, NO_ROUTE)],
    ),
    (
        "no_route_on_miss_path_opens_no_flow",
        dict(routes="10.0.0.0/8 10.0.0.254 lan\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n",
        [(0, NO_ROUTE), (1, INBOUND_NO_SESSION)],
    ),
    (
        "no_route_to_lan_host_on_reply",
        dict(routes="8.0.0.0/8 203.0.113.1 wan\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n",
        [(0, F), (1, NO_ROUTE)],
    ),
    (
        "nat_pool_exhaustion",
        dict(nat="public 192.0.2.1\nports 40000-40001\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "0.2 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n"
        "0.3 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n"
        "0.4 udp 8.8.8.8:53 192.0.2.1:40002 - 0 0\n",
        [(0, F), (1, F), (2, NAT_EXHAUSTED), (3, F),
         (4, INBOUND_NO_SESSION)],
    ),
    (
        "port_reuse_across_distinct_peers",
        dict(nat="public 192.0.2.1\nports 40000-40000\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 9.9.9.9:53 - 0 0\n"
        "0.2 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n"
        "0.3 udp 9.9.9.9:53 192.0.2.1:40000 - 0 0\n",
        [(0, F), (1, F), (2, F), (3, F)],
    ),
    (
        "table_full_drops_new_session",
        dict(capacity=2),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "0.2 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n",
        [(0, F), (1, F), (2, TABLE_FULL)],
    ),
    (
        "table_full_recovers_after_expiry",
        dict(capacity=2),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "0.2 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n"
        "70.0 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n",
        [(2, TABLE_FULL), (3, F)],
    ),
    (
        "full_table_and_exhausted_pool_says_nat_exhausted",
        dict(capacity=2, nat="public 192.0.2.1\nports 40000-40001\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "0.2 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n",
        [(0, F), (1, F), (2, NAT_EXHAUSTED)],
    ),
    (
        "full_table_with_a_free_port_says_table_full",
        dict(capacity=2, nat="public 192.0.2.1\nports 40000-40002\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "0.2 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n",
        [(0, F), (1, F), (2, TABLE_FULL)],
    ),
    (
        "full_table_reclaims_a_dead_entry_and_its_port",
        dict(capacity=2, nat="public 192.0.2.1\nports 40000-40001\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "30.0 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n"
        "60.0 udp 10.0.0.7:1000 8.8.8.8:53 - 0 0\n"
        "60.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 0\n"
        "60.2 udp 8.8.8.8:53 192.0.2.1:40001 - 0 0\n",
        [(0, F), (1, F), (2, F), (3, F), (4, F)],
    ),
    (
        "non_syn_first_packet_to_a_denied_port_says_rule_denied",
        dict(rules="drop tcp any any any 23\naccept any any any any any\n"),
        "0.0 tcp 10.0.0.5:1000 198.51.100.9:23 A 0 0\n",
        [(0, RULE_DENIED)],
    ),
    (
        "denied_flow_at_a_full_table_says_rule_denied",
        dict(capacity=1, rules="drop udp any any any 53\naccept any any any any any\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:123 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 8.8.8.8:53 - 0 0\n",
        [(0, F), (1, RULE_DENIED)],
    ),
    (
        "non_syn_first_packet_at_a_full_table_says_state_violation",
        dict(capacity=1),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "0.1 tcp 10.0.0.6:1000 198.51.100.9:80 A 0 0\n",
        [(0, F), (1, STATE_VIOLATION)],
    ),
    (
        # the public address sits in the LAN, so the first flow, LAN to LAN from it, holds
        # the pool's one port for its peer; a LAN-to-LAN flow takes no port from the pool
        "lan_to_lan_at_a_full_table_and_exhausted_pool_says_table_full",
        dict(capacity=1, nat="public 10.0.0.1\nports 40000-40000\n"),
        "0.0 udp 10.0.0.1:40000 10.0.9.9:53 - 0 0\n"
        "0.1 udp 10.0.0.6:1000 10.0.9.9:53 - 0 0\n",
        [(0, F), (1, TABLE_FULL)],
    ),
    (
        "inbound_without_session",
        {},
        "0.0 tcp 198.51.100.9:80 192.0.2.1:40000 S 0 0\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40001 - 0 0\n",
        [(0, INBOUND_NO_SESSION), (1, INBOUND_NO_SESSION)],
    ),
    (
        "inbound_to_unmapped_address",
        {},
        "0.0 udp 8.8.8.8:53 203.0.113.200:40000 - 0 0\n",
        [(0, INBOUND_NO_SESSION)],
    ),
    (
        "lan_to_lan_bypasses_nat",
        {},
        "0.0 udp 10.0.0.5:1000 10.0.9.9:2000 - 0 0\n"
        "0.1 udp 10.0.9.9:2000 10.0.0.5:1000 - 0 0\n"
        "0.2 udp 10.0.0.5:1000 10.0.9.9:2000 - 0 0\n",
        [(0, F), (1, F), (2, F)],
    ),
    (
        "ecn_bits_preserved_under_marking",
        dict(qos="udp any any any 53 dscp 46\n"),
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 3\n"
        "0.1 udp 8.8.8.8:53 192.0.2.1:40000 - 0 1\n",
        [(0, F), (1, F)],
    ),
    (
        "session_gap_exceeding_timeout",
        {},
        "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        "61.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n",
        [(0, F), (1, F)],
    ),
    (
        "bogus_flag_combinations",
        {},
        "0.0 tcp 10.0.0.5:1200 198.51.100.9:80 S 0 0\n"
        "0.1 tcp 198.51.100.9:80 192.0.2.1:40000 SA 0 0\n"
        "0.2 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n"
        "0.3 tcp 10.0.0.5:1200 198.51.100.9:80 SAF 0 0\n"
        "0.4 tcp 198.51.100.9:80 192.0.2.1:40000 SF 0 0\n"
        "0.5 tcp 10.0.0.5:1200 198.51.100.9:80 SAFR 0 0\n"
        "0.6 tcp 10.0.0.5:1200 198.51.100.9:80 A 0 0\n",
        [(3, STATE_VIOLATION), (4, STATE_VIOLATION),
         (5, F), (6, STATE_VIOLATION)],
    ),
    (
        "lan_prefix_boundary_addresses",
        {},
        "0.0 udp 10.255.255.255:1000 8.8.8.8:53 - 0 0\n"
        "0.1 udp 11.0.0.1:53 192.0.2.1:40000 - 0 0\n",
        [(0, F), (1, INBOUND_NO_SESSION)],
    ),
]


def test_criterion_1a_corner_traces():
    with criterion(
        "1a", f"differential equivalence on {len(CORNER_CASES)} hand-written corner traces"
    ):
        assert len(CORNER_CASES) >= 20
        for name, cfg_kwargs, text, expectations in CORNER_CASES:
            result = compare(make_config(**cfg_kwargs), trace(text))
            assert result.equal, f"{name}: diverged at {result.divergence_index}"
            for index, expected in expectations:
                outcome = result.baseline_verdicts[index].outcome
                if expected == F:
                    assert isinstance(outcome, Forwarded), f"{name}[{index}]: {outcome}"
                else:
                    assert outcome == expected, f"{name}[{index}]: {outcome}"
        # spot-check the ECN scenario's emitted ToS bytes
        _, _, text, _ = next(c for c in CORNER_CASES if c[0] == "ecn_bits_preserved_under_marking")
        result = compare(make_config(qos="udp any any any 53 dscp 46\n"), trace(text))
        assert result.baseline_verdicts[0].outcome.tos == (46 << 2) | 3
        assert result.baseline_verdicts[1].outcome.tos == (46 << 2) | 1
        # the flow admitted into a full table took the dead entry's port, and replies reach it
        _, kwargs, text, _ = next(
            c for c in CORNER_CASES if c[0] == "full_table_reclaims_a_dead_entry_and_its_port"
        )
        result = compare(make_config(**kwargs), trace(text))
        assert result.baseline_verdicts[2].outcome.sid.src_port == 40000
        assert result.baseline_verdicts[3].outcome.sid.dst_addr == parse_ip("10.0.0.7")
        # a first packet dropped at egress held no port: the next flow takes the first one
        _, _, text, _ = next(
            c for c in CORNER_CASES if c[0] == "ttl_expiry_on_miss_path_opens_no_flow"
        )
        result = compare(make_config(), trace(text))
        ports = [v.outcome.sid.src_port for v in result.baseline_verdicts[2:]]
        assert ports == [40000, 40001]


# --------------------------------------------------------------------------
# criterion 1b: 100 seeded random traces of 1e5 packets each
# --------------------------------------------------------------------------

PUBLIC_IP = "192.0.2.1"
LAN = Cidr.parse("10.0.0.0/8")


def _random_cidr(rng: random.Random) -> str:
    plen = rng.choice([0, 1, 4, 8, 12, 16, 24, 28, 32])
    return f"{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}/{plen}"


def _random_ports(rng: random.Random) -> str:
    r = rng.random()
    if r < 0.55:
        return "any"
    lo = rng.randrange(65536)
    if r < 0.8:
        return str(lo)
    return f"{lo}-{rng.randrange(lo, 65536)}"


def _random_router_config(rng: random.Random) -> RouterConfig:
    rule_lines = []
    for _ in range(rng.randint(0, 63)):
        rule_lines.append(
            f"{'accept' if rng.random() < 0.6 else 'drop'}"
            f" {rng.choice(['any', 'tcp', 'udp'])}"
            f" {rng.choice(['any', _random_cidr(rng), '10.0.0.0/8'])} {_random_ports(rng)}"
            f" {rng.choice(['any', _random_cidr(rng)])} {_random_ports(rng)}"
        )
    if rng.random() < 0.85:
        rule_lines.append("accept any any any any any")

    route_lines = []
    seen = set()
    if rng.random() < 0.9:
        route_lines.append("0.0.0.0/0 203.0.113.1 wan")
        seen.add(("0.0.0.0", 0))
    if rng.random() < 0.9:
        route_lines.append("10.0.0.0/8 10.0.0.254 lan")
        seen.add(("10.0.0.0", 8))
    for _ in range(rng.randint(0, 254)):
        cidr = Cidr.parse(_random_cidr(rng))
        key = (format_ip(cidr.network), cidr.prefix_len)
        if key in seen:
            continue
        seen.add(key)
        route_lines.append(
            f"{key[0]}/{cidr.prefix_len} {format_ip(rng.randrange(2**32))} if{len(seen)}"
        )

    qos_lines = []
    for _ in range(rng.choice([0, 1, 2, 4, 4, 8, 8, 16, 32])):
        qos_lines.append(
            f"{rng.choice(['any', 'tcp', 'udp'])} any {_random_ports(rng)}"
            f" {rng.choice(['any', _random_cidr(rng)])} {_random_ports(rng)}"
            f" dscp {rng.randrange(64)}"
        )

    if rng.random() < 0.12:
        nat_text = f"public {PUBLIC_IP}\nports 40000-{40000 + rng.randint(0, 2)}\n"
    else:
        nat_text = f"public {PUBLIC_IP}\nports 40000-49999\n"

    if rng.random() < 0.25:
        timeouts = Timeouts(
            tcp_established=rng.uniform(0.1, 5.0),
            tcp_transient=rng.uniform(0.05, 2.0),
            non_tcp=rng.uniform(0.05, 2.0),
            closed_grace=rng.uniform(0.01, 1.0),
        )
    else:
        timeouts = Timeouts()

    capacity = rng.randint(4, 64) if rng.random() < 0.12 else 65536

    return RouterConfig(
        lan_prefix=LAN,
        rules=parse_rules("\n".join(rule_lines)),
        qos=parse_qos("\n".join(qos_lines)),
        routes=parse_routes("\n".join(route_lines)),
        nat=parse_nat_config(nat_text),
        timeouts=timeouts,
        capacity=capacity,
    )


def _random_trace_spec(rng: random.Random, seed: int) -> TraceSpec:
    sessions = rng.choice([50, 100, 200, 400, 500, 1000, 2000, 2500])
    peers = []
    while len(peers) < rng.randint(1, 6):
        addr = rng.randrange(2**32)
        if not LAN.contains(addr):
            peers.append(addr)
    return TraceSpec(
        sessions=sessions,
        packets_per_session=100_000 // sessions,
        tcp_fraction=rng.random(),
        lan_prefix=LAN,
        peers=tuple(peers),
        seed=seed,
    )


def _compare_random_trace(seed: int) -> tuple[int, int, int | None]:
    rng = random.Random(0xFEED ^ seed)
    config = _random_router_config(rng)
    packets = generate_packets(_random_trace_spec(rng, seed))
    result = compare(config, packets)
    return seed, len(packets), result.divergence_index


def test_criterion_1b_randomized_traces():
    with criterion(
        "1b", "differential equivalence on 100 seeded random traces of 100k packets"
    ):
        with multiprocessing.get_context("fork").Pool(2) as pool:
            results = pool.map(_compare_random_trace, range(100), chunksize=4)
        for seed, n_packets, divergence in results:
            assert n_packets == 100_000
            assert divergence is None, f"seed {seed}: diverged at packet {divergence}"


# --------------------------------------------------------------------------
# criteria 2 + 3: one-shot hit accounting and aggregate lookup reduction
# --------------------------------------------------------------------------

REFERENCE_SPEC = TraceSpec(
    sessions=10,
    packets_per_session=1000,
    tcp_fraction=1.0,
    peers=(parse_ip("198.51.100.9"), parse_ip("203.0.113.77")),
    seed=2,
)

INTEGRATED_HIT = LookupAccounting(session_lookups=1)
INTEGRATED_MISS = LookupAccounting(
    nat_lookups=1, session_lookups=1, rule_evals=1, rules_scanned=1,
    qos_classifications=1, route_lookups=2,
)
BASELINE_HIT = LookupAccounting(
    nat_lookups=1, session_lookups=1, qos_classifications=1, route_lookups=1
)
BASELINE_MISS = LookupAccounting(
    nat_lookups=1, session_lookups=1, rule_evals=1, rules_scanned=1,
    qos_classifications=1, route_lookups=1,
)


@pytest.fixture(scope="module")
def reference_runs():
    packets = generate_packets(REFERENCE_SPEC)
    baseline = run_pipeline(BaselinePipeline(make_config()), packets)
    integrated = run_pipeline(IntegratedPipeline(make_config()), packets)
    return packets, baseline, integrated


def test_criterion_2_one_shot_hit_accounting(reference_runs):
    with criterion("2", "per-hit accounting: integrated {session=1} vs baseline 4 lookups"):
        packets, (b_verdicts, b_report), (i_verdicts, i_report) = reference_runs
        assert len(packets) == 10_000
        assert all(isinstance(v.outcome, Forwarded) for v in i_verdicts)

        i_hits = [v for v in i_verdicts if v.lookups == INTEGRATED_HIT]
        i_misses = [v for v in i_verdicts if v.lookups == INTEGRATED_MISS]
        assert len(i_hits) == 9_990 and len(i_misses) == 10
        assert len(i_hits) + len(i_misses) == len(i_verdicts)
        assert i_report.session_hits == 9_990 and i_report.session_misses == 10

        b_hits = [v for v in b_verdicts if v.lookups == BASELINE_HIT]
        b_misses = [v for v in b_verdicts if v.lookups == BASELINE_MISS]
        assert len(b_hits) == 9_990 and len(b_misses) == 10
        assert all(v.lookups.total_consultations() == 4 for v in b_hits)
        assert all(v.lookups.total_consultations() == 1 for v in i_hits)


def test_criterion_3_aggregate_lookup_reduction(reference_runs):
    with criterion("3", "aggregate consultations: baseline >= 3.9x integrated, exact totals"):
        _, (_, b_report), (_, i_report) = reference_runs
        # flow-chart arithmetic: 10,000 packets, 10 misses, 9,990 hits
        assert b_report.nat_lookups == 10_000
        assert b_report.session_lookups == 10_000
        assert b_report.rule_evals == 10
        assert b_report.qos_classifications == 10_000
        assert b_report.route_lookups == 10_000
        assert b_report.total_consultations() == 40_010

        assert i_report.session_lookups == 10_000
        assert i_report.nat_lookups == 10
        assert i_report.rule_evals == 10
        assert i_report.qos_classifications == 10
        assert i_report.route_lookups == 20
        assert i_report.total_consultations() == 10_050

        ratio = b_report.total_consultations() / i_report.total_consultations()
        assert ratio >= 3.9


# --------------------------------------------------------------------------
# criterion 4: the full hand-enumerated TCP transition table (160 cases)
# --------------------------------------------------------------------------

TRANSITION_TABLE = """
syn_sent      -     out  violation
syn_sent      -     in   violation
syn_sent      S     out  syn_sent
syn_sent      S     in   violation
syn_sent      A     out  violation
syn_sent      A     in   violation
syn_sent      SA    out  violation
syn_sent      SA    in   syn_received
syn_sent      F     out  fin_wait
syn_sent      F     in   fin_wait
syn_sent      SF    out  violation
syn_sent      SF    in   violation
syn_sent      AF    out  fin_wait
syn_sent      AF    in   fin_wait
syn_sent      SAF   out  violation
syn_sent      SAF   in   violation
syn_sent      R     out  closed
syn_sent      R     in   closed
syn_sent      SR    out  closed
syn_sent      SR    in   closed
syn_sent      AR    out  closed
syn_sent      AR    in   closed
syn_sent      SAR   out  closed
syn_sent      SAR   in   closed
syn_sent      FR    out  closed
syn_sent      FR    in   closed
syn_sent      SFR   out  closed
syn_sent      SFR   in   closed
syn_sent      AFR   out  closed
syn_sent      AFR   in   closed
syn_sent      SAFR  out  closed
syn_sent      SAFR  in   closed
syn_received  -     out  violation
syn_received  -     in   violation
syn_received  S     out  violation
syn_received  S     in   violation
syn_received  A     out  established
syn_received  A     in   violation
syn_received  SA    out  violation
syn_received  SA    in   syn_received
syn_received  F     out  fin_wait
syn_received  F     in   fin_wait
syn_received  SF    out  violation
syn_received  SF    in   violation
syn_received  AF    out  fin_wait
syn_received  AF    in   fin_wait
syn_received  SAF   out  violation
syn_received  SAF   in   violation
syn_received  R     out  closed
syn_received  R     in   closed
syn_received  SR    out  closed
syn_received  SR    in   closed
syn_received  AR    out  closed
syn_received  AR    in   closed
syn_received  SAR   out  closed
syn_received  SAR   in   closed
syn_received  FR    out  closed
syn_received  FR    in   closed
syn_received  SFR   out  closed
syn_received  SFR   in   closed
syn_received  AFR   out  closed
syn_received  AFR   in   closed
syn_received  SAFR  out  closed
syn_received  SAFR  in   closed
established   -     out  established
established   -     in   established
established   S     out  violation
established   S     in   violation
established   A     out  established
established   A     in   established
established   SA    out  violation
established   SA    in   violation
established   F     out  fin_wait
established   F     in   fin_wait
established   SF    out  violation
established   SF    in   violation
established   AF    out  fin_wait
established   AF    in   fin_wait
established   SAF   out  violation
established   SAF   in   violation
established   R     out  closed
established   R     in   closed
established   SR    out  closed
established   SR    in   closed
established   AR    out  closed
established   AR    in   closed
established   SAR   out  closed
established   SAR   in   closed
established   FR    out  closed
established   FR    in   closed
established   SFR   out  closed
established   SFR   in   closed
established   AFR   out  closed
established   AFR   in   closed
established   SAFR  out  closed
established   SAFR  in   closed
fin_wait      -     out  fin_wait
fin_wait      -     in   fin_wait
fin_wait      S     out  violation
fin_wait      S     in   violation
fin_wait      A     out  fin_wait
fin_wait      A     in   fin_wait
fin_wait      SA    out  violation
fin_wait      SA    in   violation
fin_wait      F     out  closed
fin_wait      F     in   closed
fin_wait      SF    out  violation
fin_wait      SF    in   violation
fin_wait      AF    out  closed
fin_wait      AF    in   closed
fin_wait      SAF   out  violation
fin_wait      SAF   in   violation
fin_wait      R     out  closed
fin_wait      R     in   closed
fin_wait      SR    out  closed
fin_wait      SR    in   closed
fin_wait      AR    out  closed
fin_wait      AR    in   closed
fin_wait      SAR   out  closed
fin_wait      SAR   in   closed
fin_wait      FR    out  closed
fin_wait      FR    in   closed
fin_wait      SFR   out  closed
fin_wait      SFR   in   closed
fin_wait      AFR   out  closed
fin_wait      AFR   in   closed
fin_wait      SAFR  out  closed
fin_wait      SAFR  in   closed
closed        -     out  violation
closed        -     in   violation
closed        S     out  violation
closed        S     in   violation
closed        A     out  violation
closed        A     in   violation
closed        SA    out  violation
closed        SA    in   violation
closed        F     out  violation
closed        F     in   violation
closed        SF    out  violation
closed        SF    in   violation
closed        AF    out  violation
closed        AF    in   violation
closed        SAF   out  violation
closed        SAF   in   violation
closed        R     out  violation
closed        R     in   violation
closed        SR    out  violation
closed        SR    in   violation
closed        AR    out  violation
closed        AR    in   violation
closed        SAR   out  violation
closed        SAR   in   violation
closed        FR    out  violation
closed        FR    in   violation
closed        SFR   out  violation
closed        SFR   in   violation
closed        AFR   out  violation
closed        AFR   in   violation
closed        SAFR  out  violation
closed        SAFR  in   violation
"""


def test_criterion_4_state_machine_matches_enumerated_table():
    with criterion("4", "TCP state machine equals the 160-case hand-enumerated table"):
        rows = [line.split() for line in TRANSITION_TABLE.strip().splitlines()]
        assert len(rows) == 160
        seen = set()
        for state_name, flags_text, dir_name, expected_name in rows:
            state = SessionState(state_name)
            flags = FLAG_BITS[flags_text]
            direction = OUTBOUND if dir_name == "out" else INBOUND
            seen.add((state, flags, direction))
            expected = None if expected_name == "violation" else SessionState(expected_name)
            actual = next_tcp_state(state, flags, direction)
            assert actual == expected, (
                f"{state_name} x {flags_text} x {dir_name}:"
                f" got {actual}, table says {expected_name}"
            )
        # the table covers the full cross product exactly once
        assert len(seen) == 5 * 16 * 2


# --------------------------------------------------------------------------
# criterion 5: NAT round trip and map consistency
# --------------------------------------------------------------------------

def test_criterion_5_nat_round_trip():
    with criterion("5", "NAT round trip over 10,000 live mappings; map consistency"):
        from flowgate.packet import TCP, UDP, SessionId

        rng = random.Random(55)
        cfg = NatConfig(parse_ip(PUBLIC_IP), 40000, 59999)
        table = NatTable()
        count = 0
        while count < 10_000:
            lan_addr = parse_ip("10.0.0.0") + rng.randrange(1, 2**20)
            lan_port = rng.randrange(1024, 65536)
            ext_addr = rng.randrange(2**31, 2**32 - 2)
            ext_port = rng.choice([80, 443, 53, 8080])
            proto = rng.choice([TCP, UDP])
            flow = (lan_addr, lan_port, ext_addr, ext_port, proto)
            if table._out.get(flow) is not None:
                continue
            try:
                mapping = table.allocate(cfg, *flow, 0.0, 1e9)
            except NatPoolExhausted:
                continue
            count += 1
            # the rewrites both pipelines run: out, then the peer's reply, found by its
            # wire five-tuple, back in
            public = (cfg.public_addr, mapping.out_sid.src_port)
            assert mapping.out_sid == SessionId(*public, ext_addr, ext_port, proto)
            found = table.lookup_reverse(SessionId(ext_addr, ext_port, *public, proto), 0.0)
            assert found is mapping
            assert found.in_sid == SessionId(ext_addr, ext_port, lan_addr, lan_port, proto)

        assert len(table._out) == len(table._in) == 10_000
        for m in table._out.values():
            assert table._in[m.inbound_key] is m

        # forward/reverse consistency across random allocate/expire churn
        rng2 = random.Random(56)
        churn = NatTable()
        now = 0.0
        for _ in range(5_000):
            now += rng2.uniform(0, 1)
            flow = (
                parse_ip("10.0.0.1") + rng2.randrange(16),
                rng2.randrange(1024, 1100),
                rng2.choice([parse_ip("8.8.8.8"), parse_ip("9.9.9.9")]),
                rng2.choice([53, 80]),
                rng2.choice([TCP, UDP]),
            )
            if churn.lookup_forward(flow, now) is None:
                try:
                    churn.allocate(NatConfig(cfg.public_addr, 40000, 40031), *flow, now, now + rng2.uniform(0.5, 20))
                except NatPoolExhausted:
                    pass
            assert len(churn._out) == len(churn._in)
            for m in churn._out.values():
                assert churn._in[m.inbound_key] is m


# --------------------------------------------------------------------------
# criterion 6: LPM against a scan-everything oracle
# --------------------------------------------------------------------------

def test_criterion_6_lpm_oracle():
    with criterion("6", "route lookup equals brute-force LPM on 1,000 (table, address) pairs"):
        rng = random.Random(66)
        checked = 0
        while checked < 1_000:
            lines = []
            seen = set()
            for _ in range(rng.randrange(1, 257)):
                plen = rng.randrange(33)
                network = rng.randrange(2**32)
                mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0
                network &= mask
                if (network, plen) in seen:
                    continue
                seen.add((network, plen))
                lines.append(f"{format_ip(network)}/{plen} {format_ip(rng.randrange(2**32))} e{plen}")
            table = parse_routes("\n".join(lines))
            for _ in range(20):
                addr = rng.randrange(2**32)
                best = None
                for entry in table.entries:  # independent scan-all oracle
                    plen = entry.prefix.prefix_len
                    mask = (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF if plen else 0
                    if (addr & mask) == entry.prefix.network:
                        if best is None or plen > best.prefix.prefix_len:
                            best = entry
                assert table.lookup(addr) == best
                checked += 1


# --------------------------------------------------------------------------
# criterion 7: DSCP bit layout, exhaustively
# --------------------------------------------------------------------------

def test_criterion_7_dscp_bit_layout():
    with criterion("7", "merge_dscp writes 6 bits and preserves ECN for all 64x4 combinations"):
        for dscp in range(64):
            for ecn in range(4):
                marked = merge_dscp((17 << 2 | ecn) & 0xFF, dscp)
                assert marked >> 2 == dscp
                assert marked & 0x03 == ecn


# --------------------------------------------------------------------------
# criterion 8: expiry means a brand-new session
# --------------------------------------------------------------------------

def test_criterion_8_expiry_starts_fresh_session():
    with criterion("8", "packet at/after expiry re-runs rules and re-allocates NAT"):
        lines = trace(
            "0.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
            "60.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"  # exactly at expiry: dead
            "121.0 udp 10.0.0.5:1000 8.8.8.8:53 - 0 0\n"
        )
        for cls in (BaselinePipeline, IntegratedPipeline):
            pipe = cls(make_config())
            verdicts = [pipe.process(p) for p in lines]
            assert all(isinstance(v.outcome, Forwarded) for v in verdicts)
            assert [v.lookups.rule_evals for v in verdicts] == [1, 1, 1]
            assert pipe.session_misses == 3 and pipe.session_hits == 0
            # the re-allocated public port is the same lowest-free port
            ports = {v.outcome.sid.src_port for v in verdicts}
            assert ports == {40000}
        result = compare(make_config(), lines)
        assert result.equal


# --------------------------------------------------------------------------
# criterion 9: byte-identical gen and run outputs
# --------------------------------------------------------------------------

def config_flags(tmp_path) -> list[str]:
    """Flags naming conftest's config texts, written under `tmp_path`."""
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    flags = []
    for name, text in (
        ("rules", conftest.DEFAULT_RULES), ("routes", conftest.DEFAULT_ROUTES),
        ("nat", conftest.DEFAULT_NAT), ("qos", conftest.DEFAULT_QOS),
    ):
        (cfg_dir / f"{name}.txt").write_text(text)
        flags += [f"--{name}", str(cfg_dir / f"{name}.txt")]
    return [*flags, "--lan-prefix", conftest.DEFAULT_LAN]


def test_criterion_9_determinism(tmp_path):
    with criterion("9", "gen and run outputs byte-identical across invocations (wall time aside)"):
        gen_args = [
            "gen", "--sessions", "12", "--packets-per-session", "40", "--mix", "0.5",
            "--seed", "77",
        ]
        trace_a, trace_b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert cli_main([*gen_args, "--out", str(trace_a)]) == 0
        assert cli_main([*gen_args, "--out", str(trace_b)]) == 0
        assert trace_a.read_bytes() == trace_b.read_bytes()

        flags = [*config_flags(tmp_path), "--trace", str(trace_a)]
        outputs = []
        for tag in ("x", "y"):
            verdicts = tmp_path / f"verdicts_{tag}.txt"
            csv_path = tmp_path / f"metrics_{tag}.csv"
            assert cli_main([
                "run", *flags, "--pipeline", "integrated",
                "--verdicts", str(verdicts), "--out", str(csv_path),
            ]) == 0
            outputs.append((verdicts.read_bytes(), csv_path.read_text()))
        assert outputs[0][0] == outputs[1][0]  # verdict streams byte-identical

        def mask_wall(csv_text: str) -> str:  # wall_ns is hardware timing, not asserted
            header, row = csv_text.strip().split("\n")
            return header + "\n" + row.rsplit(",", 1)[0]

        assert mask_wall(outputs[0][1]) == mask_wall(outputs[1][1])


# --------------------------------------------------------------------------
# criterion 10: bench CSV schema; counters asserted, their ratio reported
# --------------------------------------------------------------------------

def test_criterion_10_bench_csv_and_timing_report(tmp_path, capsys):
    with criterion("10", "bench emits the fixed CSV schema; consultation ratio reported"):
        out = tmp_path / "bench.csv"
        spec = REFERENCE_SPEC
        assert cli_main([
            "bench", *config_flags(tmp_path), "--sessions", str(spec.sessions),
            "--packets-per-session", str(spec.packets_per_session),
            "--mix", str(spec.tcp_fraction), "--seed", str(spec.seed), "--reps", "3",
            "--out", str(out),
        ]) == 0  # the default --peers are REFERENCE_SPEC's
        assert capsys.readouterr().err.startswith("median wall_ns: baseline=")
        header, *lines = out.read_text().strip().split("\n")
        assert header == CSV_HEADER == (
            "pipeline,packets,forwarded,dropped,session_hits,session_misses,"
            "nat_lookups,session_lookups,rule_evals,rules_scanned,"
            "qos_classifications,route_lookups,wall_ns"
        )
        assert [len(line.split(",")) for line in lines] == [13] * 6
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [row["pipeline"] for row in rows] == ["baseline"] * 3 + ["integrated"] * 3
        assert all(int(row["wall_ns"]) > 0 for row in rows)
        assert all(int(row["session_lookups"]) == 10_000 for row in rows)
        assert [int(row["nat_lookups"]) for row in rows] == [10_000] * 3 + [10] * 3
        # the counts are exact; a wall ratio from 3 reps taken while the suite runs is not
        counters = LookupAccounting._fields  # CSV columns of the same names
        base, integrated = (
            LookupAccounting(*(int(row[c]) for c in counters)).total_consultations()
            for row in (rows[0], rows[3])
        )
        conftest.ACCEPTANCE_RESULTS.append(
            f"           note: baseline consultations = {base / integrated:.2f}x integrated"
            f" ({base} vs {integrated}; reported, not asserted)"
        )

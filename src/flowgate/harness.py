"""Trace generation, replay, and differential comparison."""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, fields

from flowgate.errors import ConfigError
from flowgate.nat import NatConfig
from flowgate.packet import (
    ACK,
    FIN,
    FLAG_TEXT,
    SYN,
    TCP,
    UDP,
    Cidr,
    Packet,
    SessionId,
    format_ip,
    render_trace_record,
)
from flowgate.pipelines import (
    BaselinePipeline,
    Forward,
    IntegratedPipeline,
    LookupAccounting,
    RouterConfig,
    Verdict,
)

TCP_PEER_PORTS = (80, 443, 22, 25)
UDP_PEER_PORTS = (53, 123, 5060)

TICK = 0.001  # seconds between consecutive trace packets

DEFAULT_NAT = NatConfig(0xC0000201, 40000, 49999)  # configs/nat.txt: 192.0.2.1, 40000-49999


@dataclass(frozen=True)
class TraceSpec:
    """Deterministic synthetic-trace recipe: same spec + seed, same bytes.

    Inbound packets on the wire target the flow's NATed public endpoint, so
    the generator carries the gateway's NAT config and mirrors the allocator's
    deterministic lowest-free-port rule to address replies; a peer inside
    `lan_prefix` is not translated, so its replies target the LAN endpoint.
    The prediction is exact for traces whose first packets are all accepted;
    when a run's config rejects them, the replies simply miss in both
    pipelines alike.
    """

    sessions: int
    packets_per_session: int
    tcp_fraction: float = 1.0
    lan_prefix: Cidr = Cidr.parse("10.0.0.0/8")
    peers: tuple[int, ...] = ()
    seed: int = 0
    nat: NatConfig = DEFAULT_NAT


def _session_packets(
    proto: int,
    lan: tuple[int, int],
    gwy: tuple[int, int],
    peer: tuple[int, int],
    count: int,
) -> list[tuple[SessionId, int]]:
    """Expand one session into (five-tuple, flags) pairs, in order.

    Outbound packets carry the LAN source; inbound ones target `gwy`, the
    flow's public endpoint. TCP: SYN, SYN+ACK, ACK, alternating data, and a
    closing FIN exchange when at least 5 packets are requested. UDP:
    alternating request/response.
    """
    out = SessionId(lan[0], lan[1], peer[0], peer[1], proto)
    inb = SessionId(peer[0], peer[1], gwy[0], gwy[1], proto)
    if proto != TCP:
        return [((out, inb)[i % 2], 0) for i in range(count)]
    plan: list[tuple[SessionId, int]] = [(out, SYN), (inb, SYN | ACK), (out, ACK)][:count]
    data_count = count - 5 if count >= 5 else max(count - 3, 0)
    for i in range(data_count):
        plan.append(((out, inb)[i % 2], ACK))
    if count >= 5:
        plan.append((out, FIN | ACK))
        plan.append((inb, FIN | ACK))
    return plan


def generate_packets(spec: TraceSpec) -> list[Packet]:
    """Expand a TraceSpec into packets, round-robin interleaved across sessions."""
    if not spec.peers:
        raise ConfigError("trace spec needs at least one peer address")
    if spec.sessions < 0 or spec.packets_per_session < 0:
        raise ConfigError("trace spec needs sessions and packets per session >= 0")
    if not 0.0 <= spec.tcp_fraction <= 1.0:
        raise ConfigError(f"trace spec needs a TCP fraction in [0, 1], got {spec.tcp_fraction}")
    rng = random.Random(spec.seed)
    # hosts from network + 1, past the network address; a /32's one address is its host
    lan_base = spec.lan_prefix.network + (spec.lan_prefix.prefix_len < 32)
    host_space = max(2 ** (32 - spec.lan_prefix.prefix_len) - 2, 1)
    n_hosts = min(host_space, 4096)

    sessions = []
    ports_taken: dict[tuple[int, int, int], int] = {}  # peer tuple -> next pool offset
    for i in range(spec.sessions):
        proto = TCP if rng.random() < spec.tcp_fraction else UDP
        lan = (lan_base + i % n_hosts, 10000 + (i // n_hosts) % 50000)
        peer_ports = TCP_PEER_PORTS if proto == TCP else UDP_PEER_PORTS
        peer = (spec.peers[i % len(spec.peers)], rng.choice(peer_ports))
        if spec.lan_prefix.contains(peer[0]):
            gwy = lan  # LAN to LAN is not translated
        else:
            peer_key = (peer[0], peer[1], proto)
            offset = ports_taken.get(peer_key, 0)
            ports_taken[peer_key] = offset + 1
            gwy = (spec.nat.public_addr, spec.nat.port_lo + offset)
            if gwy[1] > 65535:
                raise ConfigError(
                    f"trace spec: replies to flow {i + 1} (peer {format_ip(peer[0])}:{peer[1]})"
                    f" would need public port {gwy[1]}, past 65535"
                )
        sessions.append(_session_packets(proto, lan, gwy, peer, spec.packets_per_session))

    packets: list[Packet] = []
    ts = 0.0
    for round_ in zip(*sessions):  # each plan holds exactly packets_per_session packets
        for sid, flags in round_:
            packets.append(Packet(ts=ts, sid=sid, tos=0, ttl=64, flags=flags, payload_len=0))
            ts = round(ts + TICK, 6)
    return packets


def generate_trace(spec: TraceSpec) -> str:
    lines = [
        f"# synthetic trace: sessions={spec.sessions}"
        f" packets_per_session={spec.packets_per_session}"
        f" tcp_fraction={spec.tcp_fraction} lan={spec.lan_prefix}"
        f" peers={len(spec.peers)} seed={spec.seed}"
    ]
    lines.extend(render_trace_record(p) for p in generate_packets(spec))
    return "\n".join(lines) + "\n"


@dataclass
class MetricsReport:
    """Aggregate counters for one pipeline run; its fields, in order, are the CSV columns."""

    pipeline: str
    packets: int
    forwarded: int
    dropped: dict[str, int]
    session_hits: int
    session_misses: int
    nat_lookups: int
    session_lookups: int
    rule_evals: int
    rules_scanned: int
    qos_classifications: int
    route_lookups: int
    wall_ns: int

    @property
    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    # the same five counter names, so one definition of the sum serves both
    total_consultations = LookupAccounting.total_consultations

    def summary(self) -> str:
        drops = ", ".join(f"{reason}={count}" for reason, count in sorted(self.dropped.items()))
        return (
            f"{self.pipeline}: {self.packets} packets, {self.forwarded} forwarded,"
            f" {self.dropped_total} dropped ({drops or 'none'})\n"
            f"  session lookups {self.session_lookups} ({self.session_hits} hits,"
            f" {self.session_misses} misses), nat {self.nat_lookups},"
            f" rule evals {self.rule_evals} ({self.rules_scanned} rules scanned),"
            f" qos {self.qos_classifications}, route {self.route_lookups}\n"
            f"  total consultations {self.total_consultations()}, wall {self.wall_ns} ns"
        )


_COLUMNS = tuple(f.name for f in fields(MetricsReport))
CSV_HEADER = ",".join(_COLUMNS)


def csv_row(report: MetricsReport) -> str:
    """The report in CSV_HEADER's columns; `dropped` is written as its total."""
    row = {**vars(report), "dropped": report.dropped_total}
    return ",".join(str(row[name]) for name in _COLUMNS)


def make_pipeline(name: str, config: RouterConfig):
    if name == "baseline":
        return BaselinePipeline(config)
    if name == "integrated":
        return IntegratedPipeline(config)
    raise ConfigError(f"unknown pipeline {name!r}")


def run_pipeline(pipeline, packets: list[Packet]) -> tuple[list[Verdict | Forward], MetricsReport]:
    """Replay a trace through `pipeline`, from whatever state it holds.

    Wall time wraps the packet loop only; parsing and setup are excluded.
    """
    verdicts: list[Verdict | Forward] = []
    append = verdicts.append
    process = pipeline.process
    start = time.perf_counter_ns()
    for packet in packets:
        append(process(packet, packet.ts))
    wall_ns = time.perf_counter_ns() - start
    dropped = Counter(v.outcome for v in verdicts if type(v) is Verdict)
    # each LookupAccounting column summed over the run; no packets leave its zero defaults
    lookups = LookupAccounting(*map(sum, zip(*(v.lookups for v in verdicts))))
    return verdicts, MetricsReport(
        pipeline.name, len(verdicts), len(verdicts) - sum(dropped.values()), dropped,
        pipeline.session_hits, pipeline.session_misses, *lookups, wall_ns,
    )


def render_verdict(verdict: Verdict | Forward) -> str:
    """A forward's line is its route, then its packet as `render_trace_record` writes it."""
    if type(verdict) is Forward:
        route, ts, sid, tos, ttl, flags, payload_len, _ = verdict
        # `!r` writes a float or int ts as str() does, without float.__format__'s method call
        return f"forward {route.label} {ts!r} {sid.text} {FLAG_TEXT[flags]} {payload_len} {tos} {ttl}"
    return f"drop {verdict.outcome}"


def first_divergence(a: list[Verdict | Forward], b: list[Verdict | Forward]) -> int | None:
    """Index of the first observable difference, ignoring lookup accounting."""
    for index, (va, vb) in enumerate(zip(a, b)):
        if va.outcome != vb.outcome:
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return None


@dataclass
class ComparisonResult:
    equal: bool
    divergence_index: int | None
    baseline_verdicts: list[Verdict | Forward]
    integrated_verdicts: list[Verdict | Forward]
    baseline_report: MetricsReport
    integrated_report: MetricsReport

    def describe(self) -> str:
        if self.equal:
            return f"PASS: {self.baseline_report.packets} packets, verdict streams identical"
        i = self.divergence_index
        return (
            f"FAIL: first divergence at packet {i}\n"
            f"  baseline:   {render_verdict(self.baseline_verdicts[i])}\n"
            f"  integrated: {render_verdict(self.integrated_verdicts[i])}"
        )


def compare(config: RouterConfig, packets: list[Packet]) -> ComparisonResult:
    """Run both pipelines on the same trace with fresh state and diff verdicts."""
    baseline_verdicts, baseline_report = run_pipeline(BaselinePipeline(config), packets)
    integrated_verdicts, integrated_report = run_pipeline(IntegratedPipeline(config), packets)
    index = first_divergence(baseline_verdicts, integrated_verdicts)
    return ComparisonResult(
        equal=index is None,
        divergence_index=index,
        baseline_verdicts=baseline_verdicts,
        integrated_verdicts=integrated_verdicts,
        baseline_report=baseline_report,
        integrated_report=integrated_report,
    )

"""Seeded workload generator: the trace text and the four config texts.

This module deliberately does not call ``flowgate.harness.generate_trace``:
the workloads are defined here, so a change to the program's own generator
cannot silently change what the benchmark measures. The program only ever
sees the generated text.

Every packet carries the same ``PAYLOAD_LEN``. The program never copies or
inspects payload, so packet size cannot change its cost; holding it fixed
removes a dimension that would only add noise.

Replies are addressed to the public port the gateway will have allocated.
To know it, the generator replays its own plan through ``_Gateway``, a
small model of the program's admission rule (a new flow is admitted while
fewer than ``capacity`` entries are live) and its lowest-free NAT port rule.
The model only decides where replies go; the benchmark's correctness check
compares the two pipelines with each other and never relies on the model.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

TCP = 6
UDP = 17

LAN = "10.0.0.0/8"
PAYLOAD_LEN = 64
PUBLIC_ADDR = 0xC0000201  # 192.0.2.1
PORT_LO = 40000
NAT_TEXT = "public 192.0.2.1\nports 40000-49999\n"

# Idle timeouts (seconds) the benchmark configures; the model mirrors them.
TCP_ESTABLISHED = 300.0
TCP_TRANSIENT = 30.0
NON_TCP = 60.0
CLOSED_GRACE = 5.0

# The small policies shipped in configs/, copied so the workload stays fixed.
SHIPPED_RULES = "drop tcp any any any 23\naccept any 10.0.0.0/8 any any any\n"
SHIPPED_QOS = (
    "udp any any any 5060-5061 dscp 46\n"
    "udp any any any 53 dscp 34\n"
    "tcp any any any 22 dscp 10\n"
)
SHIPPED_ROUTES = "0.0.0.0/0 203.0.113.1 wan\n10.0.0.0/8 10.0.0.254 lan\n"

TCP_PEER_PORTS = (80, 443, 22, 25, 993, 8080)
UDP_PEER_PORTS = (53, 123, 443, 5060)

# A client whose first packet is refused tries again after 1 s, 3 times in all.
RETRY_US = 1_000_000
ATTEMPTS = 3

# Peers are never drawn from here, so policy rules aimed at it never match.
UNUSED_NET = 0x64400000  # 100.64.0.0/10
UNUSED_MASK = 0xFFC00000


@dataclass(frozen=True)
class Workload:
    """Everything one run feeds the program, plus what the generator knows."""

    name: str
    seed: int
    rules: str
    qos: str
    routes: str
    nat: str
    trace: str
    capacity: int
    flows: int
    packets: int


def format_ip(addr: int) -> str:
    return f"{addr >> 24}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}.{addr & 0xFF}"


def public_addr(rng: random.Random) -> int:
    """A unicast address outside the LAN, loopback, the NAT address and UNUSED_NET."""
    while True:
        addr = rng.randrange(1 << 24, 224 << 24)
        first = addr >> 24
        if first in (10, 127) or addr == PUBLIC_ADDR or addr & UNUSED_MASK == UNUSED_NET:
            continue
        return addr


def _lan_endpoints(rng: random.Random, count: int, hosts: int) -> list[tuple[int, int]]:
    """Distinct (addr, port) LAN endpoints spread over `hosts` hosts in 10.0.0.0/8."""
    addrs = [(10 << 24) | rng.randrange(1, 1 << 24) for _ in range(hosts)]
    next_port = [1024] * hosts
    out = []
    for _ in range(count):
        h = rng.randrange(hosts)
        out.append((addrs[h], next_port[h]))
        next_port[h] += 1
    return out


# One plan step: (outbound?, flags token, idle timeout the step leaves behind).
Step = tuple[bool, str, float]


def _plan(rng: random.Random, proto: int, count: int) -> list[Step]:
    """A well-formed flow: TCP handshake, data, FIN exchange; UDP request first."""
    if proto == UDP:
        return [(True, "-", NON_TCP)] + [
            (rng.random() < 0.5, "-", NON_TCP) for _ in range(count - 1)
        ]
    steps: list[Step] = [
        (True, "S", TCP_TRANSIENT),
        (False, "SA", TCP_TRANSIENT),
        (True, "A", TCP_ESTABLISHED),
    ]
    steps += [(rng.random() < 0.5, "A", TCP_ESTABLISHED) for _ in range(count - 5)]
    steps += [(True, "AF", TCP_TRANSIENT), (False, "AF", CLOSED_GRACE)]
    return steps


@dataclass
class _Flow:
    proto: int
    lan: tuple[int, int]
    peer: tuple[int, int]
    plan: list[Step]
    start_us: int
    gap_us: int
    step: int = 0
    attempts: int = 0
    port: int = 0


class _Gateway:
    """The admission and port rules of the program, tracked per flow."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.expiry: dict[int, float] = {}  # flow index -> expiry, while it holds an entry
        self.ports: dict[tuple[int, int, int], dict[int, int]] = {}  # peer tuple -> port -> flow
        self._heap: list[tuple[float, int]] = []

    def purge(self, now: float, flows: list[_Flow]) -> None:
        """Forget every entry whose expiry <= now, as the program treats it as dead."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            expiry, fid = heapq.heappop(heap)
            if self.expiry.get(fid) == expiry:
                del self.expiry[fid]
                f = flows[fid]
                del self.ports[(f.peer[0], f.peer[1], f.proto)][f.port]

    def admit(self, fid: int, flow: _Flow) -> bool:
        if len(self.expiry) >= self.capacity:
            return False
        held = self.ports.setdefault((flow.peer[0], flow.peer[1], flow.proto), {})
        port = PORT_LO
        while port in held:
            port += 1
        held[port] = fid
        flow.port = port
        return True

    def refresh(self, fid: int, expiry: float) -> None:
        self.expiry[fid] = expiry
        heapq.heappush(self._heap, (expiry, fid))


def _render_trace(title: str, flows: list[_Flow], capacity: int) -> tuple[str, int]:
    """Play every flow's plan in time order and return (trace text, packet count).

    A flow whose first packet is refused (table full) retries that packet
    after `RETRY_US`, at most `ATTEMPTS` times in all, then gives up; it
    never sends replies for a session the gateway did not create.
    """
    gateway = _Gateway(capacity)
    ips: dict[int, str] = {}

    def ip(addr: int) -> str:
        text = ips.get(addr)
        if text is None:
            text = ips[addr] = format_ip(addr)
        return text

    public = ip(PUBLIC_ADDR)
    events = [(f.start_us, fid) for fid, f in enumerate(flows)]
    heapq.heapify(events)
    lines = [f"# {title}"]
    while events:
        t_us, fid = heapq.heappop(events)
        f = flows[fid]
        now = t_us / 1e6
        gateway.purge(now, flows)
        proto = "tcp" if f.proto == TCP else "udp"
        outbound, flags, timeout = f.plan[f.step]
        lan = f"{ip(f.lan[0])}:{f.lan[1]}"
        peer = f"{ip(f.peer[0])}:{f.peer[1]}"
        if fid not in gateway.expiry:
            if f.step != 0:
                raise RuntimeError(f"flow {fid} lost its entry mid-flow; the plan is too slow")
            lines.append(f"{now!r} {proto} {lan} {peer} {flags} {PAYLOAD_LEN} 0")
            if not gateway.admit(fid, f):
                f.attempts += 1
                if f.attempts < ATTEMPTS:
                    heapq.heappush(events, (t_us + RETRY_US, fid))
                continue
        elif outbound:
            lines.append(f"{now!r} {proto} {lan} {peer} {flags} {PAYLOAD_LEN} 0")
        else:
            lines.append(f"{now!r} {proto} {peer} {public}:{f.port} {flags} {PAYLOAD_LEN} 0")
        gateway.refresh(fid, now + timeout)
        f.step += 1
        if f.step < len(f.plan):
            heapq.heappush(events, (t_us + f.gap_us, fid))
    return "\n".join(lines) + "\n", len(lines) - 1


def _flows(
    rng: random.Random,
    count: int,
    packets: int,
    tcp_share: float,
    peers: list[int],
    hosts: int,
    start_us,
    gap_us,
) -> list[_Flow]:
    lans = _lan_endpoints(rng, count, hosts)
    flows = []
    for i in range(count):
        proto = TCP if rng.random() < tcp_share else UDP
        port = rng.choice(TCP_PEER_PORTS if proto == TCP else UDP_PEER_PORTS)
        flows.append(
            _Flow(proto, lans[i], (rng.choice(peers), port), _plan(rng, proto, packets),
                  start_us(i), gap_us())
        )
    return flows


def steady(seed: int, flows: int = 25, packets: int = 1000) -> Workload:
    """Long-lived flows under the small shipped policies: the session hit path.

    25 flows of 1,000 packets each, 70% TCP, to 25 random peers, all open
    at once for about 100 s of trace time. Only each flow's first
    packet misses (about 0.1%), so the integrated pipeline's single lookup
    plus `advance` is set against the baseline's four consultations. Rules,
    NAT allocation and the sweep sit idle.
    """
    rng = random.Random(f"steady/{seed}")
    peers = [public_addr(rng) for _ in range(flows)]
    plan = _flows(rng, flows, packets, 0.7, peers, hosts=max(flows // 2, 1),
                  start_us=lambda i: rng.randrange(1_000_000),
                  gap_us=lambda: rng.randrange(80_000, 120_000))
    trace, n = _render_trace(f"perfbench steady seed={seed}", plan, capacity=65536)
    return Workload("steady", seed, SHIPPED_RULES, SHIPPED_QOS, SHIPPED_ROUTES, NAT_TEXT,
                    trace, 65536, flows, n)


def policy_rules(rng: random.Random, count: int) -> str:
    """`count - 1` rules that match no generated flow, then the one accept."""
    lines = []
    for _ in range(count - 1):
        proto = rng.choice(("tcp", "udp", "any"))
        if rng.random() < 0.5:
            dst = f"{format_ip(UNUSED_NET | rng.randrange(1 << 14) << 8)}/24"
            lines.append(f"drop {proto} any any {dst} any")
        else:
            lo = rng.randrange(6000, 6900)
            lines.append(f"drop {proto} any any any {lo}-{lo + rng.randrange(100)}")
    lines.append("accept any 10.0.0.0/8 any any any")
    return "\n".join(lines) + "\n"


def policy_qos(rng: random.Random, count: int) -> str:
    """Policy rules that match nothing generated, then four that do, last."""
    tail = [
        "udp any any any 5060 dscp 46",
        "udp any any any 53 dscp 34",
        "tcp any any any 22 dscp 10",
        "tcp any any any 443 dscp 18",
    ]
    lines = []
    for _ in range(count - len(tail)):
        proto = rng.choice(("tcp", "udp"))
        lo = rng.randrange(7000, 7900)
        lines.append(f"{proto} any any any {lo}-{lo + rng.randrange(100)} dscp {rng.randrange(64)}")
    return "\n".join(lines + tail) + "\n"


def policy_routes(rng: random.Random, count: int, lengths: range) -> str:
    """`count` routes: a default, the LAN, and random prefixes of `lengths`."""
    seen = set()
    lines = ["0.0.0.0/0 203.0.113.1 wan0", "10.0.0.0/8 10.0.0.254 lan"]
    while len(lines) < count:
        length = rng.choice(lengths)
        network = public_addr(rng) >> (32 - length) << (32 - length)
        if (network >> 24) == 10 or (network, length) in seen:
            continue
        seen.add((network, length))
        hop = f"203.0.113.{rng.randrange(2, 250)}"
        lines.append(f"{format_ip(network)}/{length} {hop} wan{rng.randrange(4)}")
    return "\n".join(lines) + "\n"


def churn(seed: int, flows: int = 2500) -> Workload:
    """Many short flows to thousands of peers, under large policies.

    2,500 flows of 8 packets, 70% TCP, 250 new flows per second of trace
    time, to 8,192 distinct peers. One packet in eight is a flow's first, so the
    first-packet path (64 rules with the accept last, 32 QoS rules, two
    lookups in about 4,096 routes over 20 prefix lengths, and an insert)
    runs on about 12% of packets, while the baseline also rescans the large
    QoS policy and routing table on every packet. Capacity is ample and
    peers rarely repeat, so NAT allocation takes about one probe and the
    sweep never runs.
    """
    rng = random.Random(f"churn/{seed}")
    peers = [public_addr(rng) for _ in range(8192)]
    rules = policy_rules(rng, 64)
    qos = policy_qos(rng, 32)
    routes = policy_routes(rng, 4096, range(9, 29))
    plan = _flows(rng, flows, 8, 0.7, peers, hosts=1000,
                  start_us=lambda i: i * 4000 + rng.randrange(4000),
                  gap_us=lambda: rng.randrange(10_000, 30_000))
    trace, n = _render_trace(f"perfbench churn seed={seed}", plan, capacity=65536)
    return Workload("churn", seed, rules, qos, routes, NAT_TEXT, trace, 65536, flows, n)


def flood(seed: int, capacity: int = 512) -> Workload:
    """A new-flow flood at table capacity: everyone queries the same resolvers.

    Short UDP flows (query, reply, query, reply) from many LAN hosts to
    three resolver endpoints, arriving at 2 x capacity / 60 s, so about
    twice `capacity` flows would be live at once. Once the table is full,
    every refused query (and its two retries, 1 s apart) pays the
    O(capacity) expiry sweep and an O(live flows per peer tuple) NAT port
    probe; `steady` and `churn` never reach either mechanism.
    """
    rng = random.Random(f"flood/{seed}")
    resolvers = [public_addr(rng) for _ in range(3)]
    count = 3 * capacity
    interarrival = 60_000_000 // (2 * capacity)
    lans = _lan_endpoints(rng, count, hosts=max(capacity // 2, 1))
    plan = []
    for i in range(count):
        peer = (resolvers[rng.randrange(len(resolvers))], 53)
        steps = [(k % 2 == 0, "-", NON_TCP) for k in range(4)]
        plan.append(_Flow(UDP, lans[i], peer, steps,
                          i * interarrival + rng.randrange(interarrival),
                          rng.randrange(5_000, 50_000)))
    trace, n = _render_trace(f"perfbench flood seed={seed}", plan, capacity=capacity)
    return Workload("flood", seed, SHIPPED_RULES, SHIPPED_QOS, SHIPPED_ROUTES, NAT_TEXT,
                    trace, capacity, count, n)


WORKLOADS = {"steady": steady, "churn": churn, "flood": flood}

"""NAPT: public endpoint allocation and header rewriting for outbound flows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from flowgate.errors import ConfigError
from flowgate.packet import SessionId, content_lines, format_ip, is_decimal, parse_ip
from flowgate.session_table import DualIndexTable, Timeouts


class NatPoolExhausted(RuntimeError):
    """No free public port remains for the requested peer tuple."""


@dataclass(frozen=True, slots=True)
class NatConfig:
    public_addr: int
    port_lo: int
    port_hi: int

    @property
    def pool_size(self) -> int:
        return self.port_hi - self.port_lo + 1


def parse_nat_config(text: str) -> NatConfig:
    """Parse the two-line NAT config: `public <ip>` and `ports <lo>-<hi>`."""
    public_addr = None
    ports = None
    for lineno, line in content_lines(text):
        fields = line.split()
        if fields[0] == "public" and len(fields) == 2:
            try:
                public_addr = parse_ip(fields[1])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        elif fields[0] == "ports" and len(fields) == 2:
            lo_part, sep, hi_part = fields[1].partition("-")
            if not sep or not is_decimal(lo_part) or not is_decimal(hi_part):
                raise ConfigError(f"line {lineno}: bad port range {fields[1]!r}")
            ports = (int(lo_part), int(hi_part))
            if ports[0] > ports[1] or ports[1] > 65535:
                raise ConfigError(f"line {lineno}: bad port range {fields[1]!r}")
        else:
            raise ConfigError(f"line {lineno}: expected 'public <ip>' or 'ports <lo>-<hi>'")
    if public_addr is None or ports is None:
        raise ConfigError("NAT config needs both a 'public' and a 'ports' line")
    return NatConfig(public_addr, ports[0], ports[1])


def find_free_port(
    cfg: NatConfig,
    ext_addr: int,
    ext_port: int,
    proto: int,
    in_use: Callable[[int], bool],
) -> int:
    """Lowest port in the pool not live for this peer tuple.

    Port uniqueness is per (ext_addr, ext_port, proto): the same public port
    may serve two flows talking to different peers. Deterministic by
    construction: lowest-free wins.
    """
    for port in range(cfg.port_lo, cfg.port_hi + 1):
        if not in_use(port):
            return port
    raise NatPoolExhausted(
        f"no free port for peer {format_ip(ext_addr)}:{ext_port} proto {proto}"
    )


@dataclass(slots=True)
class NatMapping:
    lan_addr: int
    lan_port: int
    gwy_addr: int
    gwy_port: int
    ext_addr: int
    ext_port: int
    proto: int
    expiry: float

    @property
    def outbound_key(self) -> tuple:
        return (self.lan_addr, self.lan_port, self.ext_addr, self.ext_port, self.proto)

    @property
    def inbound_key(self) -> tuple:
        return (self.ext_addr, self.ext_port, self.gwy_addr, self.gwy_port, self.proto)


class NatTable(DualIndexTable):
    """Standalone NAT table for the multi-table pipeline, unbounded.

    Forward lookups key on the LAN-side five-tuple, reverse lookups on the
    reply's wire five-tuple; mappings expire lazily like session entries.
    """

    lookup_forward = DualIndexTable.lookup
    lookup_reverse = DualIndexTable.lookup_inbound

    def __init__(self, timeouts: Timeouts | None = None) -> None:
        super().__init__(math.inf, timeouts)

    def allocate(
        self,
        cfg: NatConfig,
        lan_addr: int,
        lan_port: int,
        ext_addr: int,
        ext_port: int,
        proto: int,
        now: float,
        expiry: float,
    ) -> NatMapping:
        existing = self._out.get((lan_addr, lan_port, ext_addr, ext_port, proto))
        if self._live(existing, now) is not None:
            raise RuntimeError("flow already has a live mapping")
        port = find_free_port(
            cfg,
            ext_addr,
            ext_port,
            proto,
            lambda p: self.port_in_use(cfg.public_addr, p, ext_addr, ext_port, proto, now),
        )
        mapping = NatMapping(
            lan_addr, lan_port, cfg.public_addr, port, ext_addr, ext_port, proto, expiry
        )
        self.insert(mapping)
        return mapping


def outbound_sid(sid: SessionId, mapping) -> SessionId:
    """An outbound packet's five-tuple as it leaves: src is the public identity."""
    return SessionId(mapping.gwy_addr, mapping.gwy_port, sid.dst_addr, sid.dst_port, sid.proto)


def inbound_sid(sid: SessionId, mapping) -> SessionId:
    """A reply's five-tuple as it leaves: dst is back on the LAN endpoint."""
    return SessionId(sid.src_addr, sid.src_port, mapping.lan_addr, mapping.lan_port, sid.proto)


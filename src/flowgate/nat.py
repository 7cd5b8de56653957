"""NAPT: public endpoint allocation and header rewriting for outbound flows."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from flowgate.errors import ConfigError
from flowgate.packet import TCP, UDP, content_lines, format_ip, is_decimal, parse_ip
from flowgate.session_table import DualIndexTable, FlowIdentity


class NatPoolExhausted(RuntimeError):
    """No free public port remains for the requested peer tuple."""


_ADDRESS_ONLY = range(1)  # the one "port" of a protocol without ports


@dataclass(frozen=True, slots=True)
class NatConfig:
    public_addr: int
    port_lo: int
    port_hi: int
    _port_pool: range = field(init=False, repr=False, compare=False)  # built once, not per flow

    def __post_init__(self) -> None:
        object.__setattr__(self, "_port_pool", range(self.port_lo, self.port_hi + 1))

    @property
    def pool_size(self) -> int:
        return self.port_hi - self.port_lo + 1

    def ports(self, proto: int) -> range:
        """The public ports a flow of `proto` may take, lowest first.

        A protocol without ports keeps port 0 and is translated by address
        alone, as Linux's nf_nat does for protocols it has no port handler
        for: one live flow per peer and protocol.
        """
        return self._port_pool if proto in (TCP, UDP) else _ADDRESS_ONLY


def parse_nat_config(text: str) -> NatConfig:
    """Parse the NAT config: one `public <ip>` and one `ports <lo>-<hi>` line, lo >= 1."""
    values: dict[str, object] = {}
    for lineno, line in content_lines(text):
        fields = line.split()
        if fields[0] not in ("public", "ports") or len(fields) != 2:
            raise ConfigError(f"line {lineno}: expected 'public <ip>' or 'ports <lo>-<hi>'")
        if fields[0] in values:
            raise ConfigError(f"line {lineno}: repeated {fields[0]!r} line")
        if fields[0] == "public":
            try:
                values["public"] = parse_ip(fields[1])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
            continue
        lo_part, sep, hi_part = fields[1].partition("-")
        if not (sep and is_decimal(lo_part) and is_decimal(hi_part)) or not (
            0 < int(lo_part) <= int(hi_part) <= 65535
        ):
            raise ConfigError(f"line {lineno}: bad port range {fields[1]!r}")
        values["ports"] = (int(lo_part), int(hi_part))
    if len(values) != 2:
        raise ConfigError("NAT config needs both a 'public' and a 'ports' line")
    return NatConfig(values["public"], *values["ports"])


def find_free_port(
    cfg: NatConfig,
    ext_addr: int,
    ext_port: int,
    proto: int,
    in_use: Callable[[int], bool],
) -> int:
    """Lowest port of `cfg.ports(proto)` not live for this peer tuple.

    Port uniqueness is per (ext_addr, ext_port, proto): the same public port
    may serve two flows talking to different peers. Deterministic by
    construction: lowest-free wins.
    """
    for port in cfg.ports(proto):
        if not in_use(port):
            return port
    raise NatPoolExhausted(
        f"no free port for peer {format_ip(ext_addr)}:{ext_port} proto {proto}"
    )


@dataclass(slots=True)
class NatMapping(FlowIdentity):
    expiry: float


class NatTable(DualIndexTable):
    """Standalone NAT table for the multi-table pipeline, unbounded.

    Forward lookups key on the LAN-side five-tuple, reverse lookups on the
    reply's wire five-tuple; mappings expire lazily like session entries.
    """

    lookup_forward = DualIndexTable.lookup
    lookup_reverse = DualIndexTable.lookup_inbound

    def __init__(self) -> None:
        super().__init__(math.inf)

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
        if existing is not None and (existing.expiry > now or self.remove(existing)):
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

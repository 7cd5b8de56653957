"""Flow classification: map a session five-tuple to its DSCP."""

from __future__ import annotations

from dataclasses import dataclass, field

from flowgate.errors import ConfigError
from flowgate.matchers import FirstMatch, TupleMatcher, parse_matcher
from flowgate.packet import SessionId, content_lines, is_decimal


@dataclass(frozen=True, slots=True)
class QosRule:
    match: TupleMatcher
    dscp: int


@dataclass(frozen=True)
class QosPolicy:
    """Ordered rules, first match wins; unmatched flows get best-effort (0)."""

    rules: tuple[QosRule, ...]
    default_dscp: int = 0
    _index: FirstMatch = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", FirstMatch([rule.match for rule in self.rules]))


def parse_qos(text: str) -> QosPolicy:
    """One rule per line: `<proto> <src_cidr> <src_ports> <dst_cidr> <dst_ports> dscp <0-63>`."""
    rules: list[QosRule] = []
    for lineno, line in content_lines(text):
        fields = line.split()
        if len(fields) != 7 or fields[5] != "dscp":
            raise ConfigError(f"line {lineno}: expected '<matcher...> dscp <value>'")
        if not is_decimal(fields[6]) or int(fields[6]) > 63:
            raise ConfigError(f"line {lineno}: dscp {fields[6]!r} out of range 0..63")
        rules.append(QosRule(parse_matcher(fields[:5], lineno), int(fields[6])))
    return QosPolicy(tuple(rules))


def classify(policy: QosPolicy, sid: SessionId) -> int:
    index = policy._index.first(sid)
    return policy.default_dscp if index is None else policy.rules[index].dscp

"""First-match accept/drop rule evaluation over session five-tuples."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from flowgate.errors import ConfigError
from flowgate.matchers import Policy, TupleMatcher, parse_matcher
from flowgate.packet import SessionId, content_lines


class Action(enum.Enum):
    ACCEPT = "accept"
    DROP = "drop"


DROP = Action.DROP  # bound once for per-packet code (see `packet.OUTBOUND`)


@dataclass(frozen=True, slots=True)
class FilterRule:
    action: Action
    match: TupleMatcher


class RuleSet(Policy):
    """Ordered `FilterRule`s, first match wins; no match falls through to default deny."""


def parse_rules(text: str) -> RuleSet:
    """One rule per line: `<accept|drop> <proto> <src_cidr> <src_ports> <dst_cidr> <dst_ports>`."""
    rules: list[FilterRule] = []
    for lineno, line in content_lines(text):
        fields = line.split()
        if len(fields) != 6:
            raise ConfigError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        try:
            action = Action(fields[0])
        except ValueError:
            raise ConfigError(f"line {lineno}: unknown action {fields[0]!r}") from None
        rules.append(FilterRule(action, parse_matcher(fields[1:], lineno)))
    return RuleSet(tuple(rules))


def evaluate(ruleset: RuleSet, sid: SessionId) -> tuple[Action, int | None, int]:
    """First-match evaluation.

    Returns (action, matched rule index or None, rules scanned). The scan
    count is the first-match depth, what a linear scan would examine: it
    includes the matching rule, and a default-action outcome counts them all.
    """
    index = ruleset.first(sid)
    if index is None:
        return DROP, None, len(ruleset.rules)
    return ruleset.rules[index].action, index, index + 1

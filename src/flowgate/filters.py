"""First-match accept/drop rule evaluation over session five-tuples."""

from __future__ import annotations

from dataclasses import dataclass

from flowgate.errors import ConfigError
from flowgate.matchers import Policy, TupleMatcher, parse_matcher
from flowgate.packet import SessionId, content_lines


@dataclass(frozen=True, slots=True)
class FilterRule:
    accept: bool
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
        if fields[0] not in ("accept", "drop"):
            raise ConfigError(f"line {lineno}: unknown action {fields[0]!r}")
        rules.append(FilterRule(fields[0] == "accept", parse_matcher(fields[1:], lineno)))
    return RuleSet(tuple(rules))


def evaluate(ruleset: RuleSet, sid: SessionId) -> tuple[bool, int | None, int]:
    """First-match evaluation.

    Returns (accepted, matched rule index or None, rules scanned). The scan
    count is the first-match depth, what a linear scan would examine: it
    includes the matching rule, and a default-action outcome counts them all.
    """
    index = ruleset.first(sid)
    if index is None:
        return False, None, len(ruleset.rules)
    return ruleset.rules[index].accept, index, index + 1

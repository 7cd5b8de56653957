"""Per-packet code reads no Enum class attribute or member's `.value`, and builds cheaply.

On CPython 3.11 `EnumType` defines `__getattr__`, so every attribute read on
an Enum class (`SessionState.CLOSED`) runs a Python-level hook, and
`member.value` is a Python-level property: each costs several times a
module global's read. Per-packet code reads the `SessionState` members bound
once to module constants instead; a drop's outcome is a plain `str` and needs
no such binding. Likewise a NamedTuple call runs a Python-level `__new__`
(`LookupAccounting(...)` ~370 ns against ~160 ns through `tuple.__new__`),
and a keyword call binds its arguments by name (a 12-keyword `SessionEntry`
~2.1 us against ~1.5 us positional), so per-packet code makes neither. What
one such cost adds to a packet is below the benchmark's noise, so these
tests keep one from coming back unseen.

Each object a packet leaves tracked by the cyclic GC costs its allocation and
is walked again by every collection that sees it, so a forwarded hit keeps
only the two it must: its `Verdict` and the `Forwarded` in it.
"""

import dis
import enum
import gc
import types

import pytest

from flowgate import filters, harness, nat, packet, pipelines, qos, session_table
from flowgate.matchers import Policy
from flowgate.packet import SessionId
from flowgate.pipelines import BaselinePipeline, Forwarded, IntegratedPipeline, LookupAccounting
from flowgate.routing import RoutingTable
from flowgate.session_table import SessionState

from conftest import make_config, pkt

# (owner, attribute) of every function a packet runs through, from process to render: each
# one the pipeline and table classes or their bases define, once, so a new, renamed or moved
# method is checked too
PER_PACKET = list(dict.fromkeys(
    (owner, name)
    for cls in (
        pipelines.BaselinePipeline, pipelines.IntegratedPipeline,
        session_table.SessionTable, pipelines.StateTable, nat.NatTable,
    )
    for owner in cls.__mro__[:-1]  # all but object
    for name, value in vars(owner).items()
    if isinstance(value, types.FunctionType)
)) + [
    (pipelines, "_forward"),
    (pipelines, "_slow_drop"),
    (session_table.FlowIdentity, "__post_init__"),
    (session_table, "advance"),
    (session_table, "initial_state"),
    (session_table, "entry_timeout"),
    (filters, "evaluate"),
    (nat, "find_free_port"),
    (nat.NatConfig, "ports"),
    (qos, "classify"),
    (Policy, "first"),
    (RoutingTable, "lookup"),
    (packet, "merge_dscp"),
    (packet, "render_trace_record"),
    (packet.SessionId.text, "func"),  # the getter a rendered five-tuple runs once
    (packet, "format_ip"),
    (harness, "render_verdict"),
]


def _code_objects(code: types.CodeType):
    """`code` and every function or lambda body nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _enum_reads(func) -> list[str]:
    found = []
    for code in _code_objects(func.__code__):
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL":
                value = func.__globals__.get(ins.argval)
                if isinstance(value, enum.EnumType):
                    found.append(f"{code.co_name}: loads the Enum class {ins.argval}")
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD") and ins.argval == "value":
                found.append(f"{code.co_name}: reads .value")
    return found


def _costly_calls(func) -> list[str]:
    """NamedTuple classes called by global name (a LOAD_GLOBAL that pushes NULL), keyword calls."""
    found = []
    for code in _code_objects(func.__code__):
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL" and ins.arg & 1:
                value = func.__globals__.get(ins.argval)
                if isinstance(value, type) and issubclass(value, tuple) and hasattr(
                    value, "_fields"
                ):
                    found.append(f"{code.co_name}: calls the NamedTuple {ins.argval}")
            elif ins.opname in ("KW_NAMES", "CALL_KW"):
                found.append(f"{code.co_name}: makes a keyword call")
    return found


# a cached_property has no __name__: its id is its getter's, SessionId.text.func
PER_PACKET_IDS = [
    f"{getattr(o, '__name__', None) or o.func.__qualname__}.{n}" for o, n in PER_PACKET
]


@pytest.mark.parametrize("owner,name", PER_PACKET, ids=PER_PACKET_IDS)
def test_per_packet_code_reads_no_enum_class(owner, name):
    assert _enum_reads(getattr(owner, name)) == []


@pytest.mark.parametrize("owner,name", PER_PACKET, ids=PER_PACKET_IDS)
def test_per_packet_code_calls_no_namedtuple_and_no_keywords(owner, name):
    assert _costly_calls(getattr(owner, name)) == []


def test_methods_a_pipeline_inherits_are_checked():
    assert {
        (pipelines._Pipeline, "_first_packet"),
        (pipelines.BaselinePipeline, "_open"),
        (pipelines.IntegratedPipeline, "_open"),
    } <= set(PER_PACKET)


def test_methods_a_table_inherits_are_checked():
    assert {
        (session_table.ExpiringTable, "lookup"),
        (session_table.DualIndexTable, "lookup_inbound"),
        (session_table.DualIndexTable, "port_in_use"),
    } <= set(PER_PACKET)


def test_the_check_sees_what_it_forbids():
    def reads(state):
        return state is SessionState.CLOSED or state.value

    assert _enum_reads(reads) == [
        "reads: loads the Enum class SessionState", "reads: reads .value"
    ]


def test_the_call_check_sees_what_it_forbids():
    def builds(sid):
        fine = tuple.__new__(LookupAccounting, (0, 1, 0, 0, 0, 0))
        return fine, LookupAccounting(0, 1), SessionId(*sid), max(sid, key=abs)

    assert _costly_calls(builds) == [
        "builds: calls the NamedTuple LookupAccounting",
        "builds: calls the NamedTuple SessionId",
        "builds: makes a keyword call",
    ]


@pytest.mark.parametrize("kind", [BaselinePipeline, IntegratedPipeline])
def test_a_forwarded_hit_keeps_two_gc_tracked_objects(kind):
    pipe = kind(make_config())
    flows = [pkt(f"0.0 udp 10.0.0.{host}:1000 8.8.8.8:53 - 0 64") for host in range(1, 5)]
    for p in flows:  # open each flow, so every later packet of it is a session hit
        pipe.process(p)
    hits = [flows[i % 4]._replace(ts=0.001 * (i + 1)) for i in range(1000)]
    kept = []
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for p in hits:
            kept.append(pipe.process(p))
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert all(type(v.outcome) is Forwarded for v in kept)
    assert grown == 2 * len(hits), grown / len(hits)

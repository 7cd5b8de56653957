"""Per-packet code reads no Enum class attribute and no member's `.value`.

On CPython 3.11 `EnumType` defines `__getattr__`, so every attribute read on
an Enum class (`Direction.INBOUND`) runs a Python-level hook, and
`member.value` is a Python-level property: each costs several times a
module global's read. Per-packet code reads members bound once to module
constants instead. What one such read costs a packet is below the
benchmark's noise, so this test keeps one from coming back unseen.
"""

import dis
import enum
import types

import pytest

from flowgate import filters, harness, pipelines, session_table
from flowgate.packet import Direction

# (owner, attribute) of every function a packet runs through, from process to render:
# each one the pipeline classes define, so a new or renamed method is checked too
PER_PACKET = [
    (cls, name)
    for cls in (pipelines.BaselinePipeline, pipelines.IntegratedPipeline)
    for name, value in vars(cls).items()
    if isinstance(value, types.FunctionType)
] + [
    (pipelines, "_forward"),
    (session_table, "advance"),
    (session_table, "initial_state"),
    (session_table, "timeout_field"),
    (filters, "evaluate"),
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


@pytest.mark.parametrize(
    "owner,name", PER_PACKET, ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in PER_PACKET]
)
def test_per_packet_code_reads_no_enum_class(owner, name):
    assert _enum_reads(getattr(owner, name)) == []


def test_the_check_sees_what_it_forbids():
    def reads(direction):
        return direction is Direction.INBOUND or direction.value

    assert _enum_reads(reads) == [
        "reads: loads the Enum class Direction", "reads: reads .value"
    ]

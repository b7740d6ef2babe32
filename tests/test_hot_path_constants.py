"""Hot paths read page states and message kinds as module constants.

On CPython 3.11 ``enum.EnumType`` defines ``__getattr__``, so every
``PageState.RW`` or ``MessageKind.ACK`` read inside a function goes through
the slow attribute path (≈ 180 ns against ≈ 18 ns for a module global).  The
per-page and per-frame layers bind the members they use once, at import
(docs/simulator.md, "What a state test costs").
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.memory.page import PageCopy, PageState
from repro.net.message import MessageKind

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LAYERS = ("memory", "net", "protocols", "mpi")
ENUMS = {"PageState": PageState, "MessageKind": MessageKind}

# module -> the members it binds as globals
EXPORTS = {
    "repro.memory.page": ("NO_COPY", "INVALID", "RO", "RW"),
    "repro.net.transport": ("ACK",),
    "repro.protocols.base": ("DIFF_REQUEST", "DIFF_REPLY", "PAGE_REQUEST",
                             "PAGE_REPLY", "BARRIER_ARRIVE", "BARRIER_RELEASE"),
    "repro.protocols.lrc": ("LOCK_ACQUIRE", "LOCK_GRANT", "LOCK_FORWARD"),
    "repro.protocols.vc": ("VIEW_ACQUIRE", "VIEW_GRANT", "VIEW_RELEASE"),
    "repro.protocols.hlrc": ("DIFF_PUSH", "PAGE_REQUEST", "PAGE_REPLY"),
    "repro.mpi.comm": ("MPI_DATA",),
}


def member_reads(source: str) -> list[str]:
    """``line Enum.MEMBER`` for every member read inside a function body (a
    default argument is evaluated once, at definition, and is not one)."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.Lambda):
            body = [fn.body]
        elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body
        else:
            continue
        for stmt in body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ENUMS
                        and node.attr in ENUMS[node.value.id].__members__):
                    found.add(f"{node.lineno} {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_function_body_reads_an_enum_member():
    files = sorted(p for layer in LAYERS for p in (SRC / layer).glob("*.py"))
    assert len(files) >= 15
    reads = [f"{path.relative_to(SRC)}:{read}"
             for path in files for read in member_reads(path.read_text())]
    assert reads == []


def test_the_walk_sees_a_member_read_in_a_method():
    probe = (
        "class C:\n"
        "    def f(self, s=PageState.RO):\n"
        "        return s is PageState.RW or (lambda: MessageKind.ACK)\n"
    )
    assert member_reads(probe) == ["3 MessageKind.ACK", "3 PageState.RW"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_bound_constant_is_its_member(module):
    mod = importlib.import_module(module)
    enum = PageState if module == "repro.memory.page" else MessageKind
    for name in EXPORTS[module]:
        assert getattr(mod, name) is enum[name], f"{module}.{name}"


@pytest.mark.parametrize("state", list(PageState))
def test_readable_and_writable_for_every_state(state):
    copy = PageCopy(0, 64)
    copy.state = state
    assert copy.readable is (state in (PageState.RO, PageState.RW))
    assert copy.writable is (state is PageState.RW)

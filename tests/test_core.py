import ast
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entkd
from entkd.core import (COARSE_BIN_TICKS, COARSE_BINS_PER_EPOCH, EPOCH_TICKS,
                        FINE_BIN_TICKS, TICKS_PER_NS, TICKS_PER_SECOND,
                        ContractViolation, EventStream, detector_basis,
                        detector_bit, ticks_from_seconds)


def test_tick_unit_identities():
    assert TICKS_PER_NS == 8
    assert TICKS_PER_SECOND == 8_000_000_000
    # 2.048 us coarse bins, 2 ns fine bins, 2^29 ns epochs
    assert COARSE_BIN_TICKS * 125 == 2_048_000  # ps
    assert FINE_BIN_TICKS * 125 == 2_000
    assert EPOCH_TICKS == (1 << 29) * TICKS_PER_NS
    assert COARSE_BINS_PER_EPOCH * COARSE_BIN_TICKS == EPOCH_TICKS


def test_ticks_from_seconds():
    assert ticks_from_seconds(1.0) == TICKS_PER_SECOND
    assert ticks_from_seconds(0.5) == TICKS_PER_SECOND // 2


def test_detector_convention():
    # detector = basis * 2 + bit
    dets = np.array([0, 1, 2, 3], dtype=np.uint8)
    assert list(detector_basis(dets)) == [0, 0, 1, 1]
    assert list(detector_bit(dets)) == [0, 1, 0, 1]


def test_event_stream_basic():
    s = EventStream([10, 20, 20, 35], [0, 1, 3, 2])
    assert len(s) == 4
    assert s.times.dtype == np.int64 and s.detectors.dtype == np.uint8
    sub = (s.times >= 15) & (s.times < 30)
    assert list(s.times[sub]) == [20, 20]
    assert list(s.detectors[sub]) == [1, 3]
    assert len(EventStream([], [])) == 0
    with pytest.raises(ContractViolation):
        EventStream([1, 2], [0])
    with pytest.raises(ContractViolation, match="detector index"):
        EventStream([1, 2], [3, 4])


def test_event_stream_sort_check():
    # a stream whose times decrease or start below 0 cannot be built; the
    # last one has positive differences once np.diff wraps them
    for times in ([5, 3], [-1, 4], [5, 24 * 10**9, -2**63 + 5]):
        with pytest.raises(ContractViolation, match="never decrease"):
            EventStream(np.array(times, dtype=np.int64),
                        np.zeros(len(times), dtype=np.uint8))


_NEAR_INT64_EDGES = st.one_of(st.integers(-2**63, -2**63 + 2**34),
                              st.integers(-2**34, 2**34),
                              st.integers(2**63 - 2**34, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_NEAR_INT64_EDGES, max_size=8),
                 st.lists(_NEAR_INT64_EDGES, max_size=8).map(sorted)),
       st.lists(st.integers(0, 7), min_size=8, max_size=8))
def test_event_stream_refuses_what_python_ints_call_invalid(times, dets):
    # Python's ints do not wrap, so they are the oracle for the int64 check
    dets = dets[:len(times)]
    valid = (all(a <= b for a, b in zip(times, times[1:]))
             and all(t >= 0 for t in times[:1]) and all(d <= 3 for d in dets))
    t = np.array(times, dtype=np.int64)
    if valid:
        assert list(EventStream(t, dets).times) == times
    else:
        with pytest.raises(ContractViolation):
            EventStream(t, dets)


def test_runtime_imports_only_stdlib_and_numpy():
    """numpy is the only runtime dependency: each module of the package
    imports the standard library, numpy and the package itself only."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "entkd"}
    modules = sorted(Path(entkd.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (
                    f"{path.name} imports {name}")


# public names kept for callers outside the package, as the README documents
ENTRY_POINTS = ("read_key_file",)


def test_every_public_name_is_used_in_the_package():
    """No API in the package that only the tests call: each public top-level
    name of a module, and each public method or property of its classes, is
    referenced somewhere in the package outside its own definition, or is a
    documented entry point."""
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(Path(entkd.__file__).parent.glob("*.py"))]

    def references(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    def defined(body):
        """(name, defining node) of each top-level definition in a module
        body, and of each method or property of its classes."""
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))
            if isinstance(node, ast.ClassDef):
                yield from ((m.name, m) for m in node.body
                            if isinstance(m, ast.FunctionDef))

    uses = Counter(name for tree in trees for name in references(tree))
    unused = [name for tree in trees for name, node in defined(tree.body)
              if not name.startswith("_") and name not in ENTRY_POINTS
              and uses[name] <= list(references(node)).count(name)]
    assert not unused, f"public names nothing in the package uses: {unused}"

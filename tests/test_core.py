import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert s.is_sorted()
    assert s.times.dtype == np.int64 and s.detectors.dtype == np.uint8
    sub = s.slice_ticks(15, 30)
    assert list(sub.times) == [20, 20]
    assert list(sub.detectors) == [1, 3]
    with pytest.raises(ContractViolation):
        EventStream([1, 2], [0])


def test_event_stream_sort_check():
    s = EventStream(np.array([5, 3], dtype=np.int64),
                    np.array([0, 0], dtype=np.uint8))
    assert not s.is_sorted()
    with pytest.raises(ContractViolation):
        s.assert_sorted()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=80),
       st.integers(0, 1000), st.integers(0, 1000))
def test_slice_ticks_matches_mask(times, lo, hi):
    times = sorted(times)
    s = EventStream(times, np.zeros(len(times), dtype=np.uint8))
    lo, hi = min(lo, hi), max(lo, hi)
    sub = s.slice_ticks(lo, hi)
    assert list(sub.times) == [t for t in times if lo <= t < hi]

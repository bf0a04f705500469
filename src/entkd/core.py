"""Shared vocabulary for the timestamp pipeline.

Everything downstream runs on an integer tick of 125 ps. That unit makes the
three quantities the processing cares about exact powers of two:

    1 ns        =  8 ticks
    2.048 us    =  2**14 ticks   (coarse correlation bin)
    2 ns        =  2**4  ticks   (fine correlation bin)
    2**29 ns    =  2**32 ticks   (one epoch / timing packet)

No floating-point time is used anywhere in the pipeline; timestamps are
integers end to end and are carried as u64 on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

TICKS_PER_NS = 8
TICKS_PER_SECOND = 8_000_000_000
COARSE_BIN_TICKS = 1 << 14
FINE_BIN_TICKS = 1 << 4
EPOCH_TICKS = 1 << 32
EPOCH_SECONDS = EPOCH_TICKS / TICKS_PER_SECOND
COARSE_BINS_PER_EPOCH = EPOCH_TICKS // COARSE_BIN_TICKS

# unit identities the formats rely on
assert TICKS_PER_NS * 1_000_000_000 == TICKS_PER_SECOND
assert 2048 * TICKS_PER_NS == COARSE_BIN_TICKS
assert 2 * TICKS_PER_NS == FINE_BIN_TICKS
assert (1 << 29) * TICKS_PER_NS == EPOCH_TICKS
assert COARSE_BINS_PER_EPOCH == 1 << 18


class ContractViolation(ValueError):
    """An operation was handed input that breaks its stated precondition."""


class Basis(IntEnum):
    HV = 0
    DA = 1


# detector = basis * 2 + bit: detectors 0,1 are the HV pair, 2,3 the DA pair
def detector_basis(detectors: np.ndarray) -> np.ndarray:
    """Basis code (0=HV, 1=DA) per detector index."""
    return np.asarray(detectors) >> 1


def detector_bit(detectors: np.ndarray) -> np.ndarray:
    """Outcome bit per detector index."""
    return np.asarray(detectors) & 1


def window_pairs(local_times: np.ndarray, remote_times: np.ndarray,
                 half_window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local index, remote index and delta = remote - local of every pair
    of events with |delta| <= half_window, given two sorted tick arrays.

    Pairs come from range lookups of each remote event in the local
    stream, so cost scales with the overlap density, not n*m. They are
    ordered by remote index, then by local index.
    """
    lo = np.searchsorted(local_times, remote_times - half_window, side="left")
    hi = np.searchsorted(local_times, remote_times + half_window, side="right")
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    r_idx = np.repeat(np.arange(remote_times.size), counts)
    l_idx = np.repeat(lo - starts, counts) + np.arange(int(counts.sum()))
    return l_idx, r_idx, remote_times[r_idx] - local_times[l_idx]


def ticks_from_seconds(seconds: float) -> int:
    return int(round(seconds * TICKS_PER_SECOND))


@dataclass
class EventStream:
    """A time-ordered detection record: parallel arrays of ticks and detectors.

    Sorted by (time, detector); ties on the same tick are allowed in memory
    (the wire packetizer is what cannot represent them).
    """

    times: np.ndarray
    detectors: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.detectors = np.asarray(self.detectors, dtype=np.uint8)
        if self.times.shape != self.detectors.shape:
            raise ContractViolation("times and detectors length mismatch")

    def __len__(self) -> int:
        return int(self.times.size)

    def is_sorted(self) -> bool:
        return bool(np.all(np.diff(self.times) >= 0))

    def assert_sorted(self) -> None:
        if not self.is_sorted():
            raise ContractViolation("event stream not time-ordered")

    def slice_ticks(self, lo: int, hi: int) -> "EventStream":
        """Events with lo <= t < hi (stream must be sorted)."""
        a = int(np.searchsorted(self.times, lo, side="left"))
        b = int(np.searchsorted(self.times, hi, side="left"))
        return EventStream(self.times[a:b], self.detectors[a:b])

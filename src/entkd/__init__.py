"""Desk-scale entangled-photon QKD: timestamp simulator and two-party post-processing."""

from .core import (
    TICKS_PER_NS,
    TICKS_PER_SECOND,
    COARSE_BIN_TICKS,
    FINE_BIN_TICKS,
    EPOCH_TICKS,
    COARSE_BINS_PER_EPOCH,
    Basis,
    EventStream,
    ContractViolation,
)

__version__ = "0.1.0"

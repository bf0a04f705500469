"""Correlated photodetection stream generator.

Produces the two raw timestamp streams a pair source plus two measurement
stations would deliver: Poisson pair emissions, anti-correlated polarization
outcomes with per-basis visibility, beam-splitter basis choice, detection
efficiency, timing jitter, per-detector delay, dark counts, dead time, and a
per-side clock transform (offset + linear drift). Everything is a pure
function of (config, seed), so runs are reproducible bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .core import (
    TICKS_PER_SECOND,
    Basis,
    ContractViolation,
    EventStream,
    ticks_from_seconds,
)

# child-stream salts under the master seed
_SALT_PAIRS = 1
_SALT_OUTCOMES = 2
_SALT_SIDE_A = 3
_SALT_SIDE_B = 4

# a local time must leave two bits free for the detector in the sort key
_TIME_LIMIT = 1 << 61


@dataclass
class SourceConfig:
    """Pair source: emission intensity and polarization correlation quality."""

    pair_rate: float
    visibility_hv: float = 0.98
    visibility_da: float = 0.92
    duration: float = 1.0
    rng_seed: int = 0
    # linear visibility droop across the session (total drop, both bases); 0 = off
    visibility_ramp: float = 0.0

    def __post_init__(self):
        if self.pair_rate < 0:
            raise ContractViolation("pair_rate must be >= 0")
        if not self.duration > 0:
            raise ContractViolation("duration must be > 0")
        for v in (self.visibility_hv, self.visibility_da):
            if not 0.0 <= v <= 1.0:
                raise ContractViolation("visibility must lie in [0, 1]")


@dataclass
class SideConfig:
    """One measurement station: optics, detectors, and its local clock."""

    efficiency: float = 1.0
    jitter_sigma: float = 0.0          # ticks, Gaussian, per side
    detector_delays: tuple = (2, 2, 2, 2)  # ticks, per detector
    dark_rate: float = 0.0             # counts/s per detector
    dead_time: int = 0                 # ticks, same-detector holdoff
    clock_offset: int = 0              # ticks
    clock_drift: float = 0.0           # ticks per tick

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ContractViolation("efficiency must lie in [0, 1]")
        if self.dark_rate < 0:
            raise ContractViolation("dark_rate must be >= 0")
        if not self.jitter_sigma >= 0:
            raise ContractViolation("jitter_sigma must be >= 0")
        if self.dead_time < 0:
            raise ContractViolation("dead_time must be >= 0")
        if len(self.detector_delays) != 4:
            raise ContractViolation("need one delay per detector")


def simulate_pairs(cfg: SourceConfig) -> np.ndarray:
    """Homogeneous Poisson pair emission times in ticks, sorted."""
    rng = default_rng((cfg.rng_seed, _SALT_PAIRS))
    span = ticks_from_seconds(cfg.duration)
    n = rng.poisson(cfg.pair_rate * cfg.duration)
    times = rng.integers(0, span, size=n, dtype=np.int64)
    times.sort()
    return times


def _anti_prob(cfg: SourceConfig, basis: int, when_frac) -> np.ndarray | float:
    v = cfg.visibility_hv if basis == Basis.HV else cfg.visibility_da
    v_eff = v - cfg.visibility_ramp * when_frac
    return (1.0 + np.clip(v_eff, 0.0, 1.0)) / 2.0


def _outcome_tables(cfg: SourceConfig, times: np.ndarray, rng: np.random.Generator):
    """Per-pair outcome bit each side would see in each basis.

    bits_b[x] = bits_a[x] xor Bernoulli((1+V_x)/2), independently per basis,
    so a pair measured in the same basis x is anti-correlated with
    probability (1+V_x)/2 and one measured in different bases gives two
    independent uniform bits.
    """
    n = times.size
    frac = times / max(1, ticks_from_seconds(cfg.duration)) if cfg.visibility_ramp else 0.0
    a_hv = rng.integers(0, 2, n, dtype=np.uint8)
    a_da = rng.integers(0, 2, n, dtype=np.uint8)
    b_hv = a_hv ^ (rng.random(n) < _anti_prob(cfg, Basis.HV, frac)).astype(np.uint8)
    b_da = a_da ^ (rng.random(n) < _anti_prob(cfg, Basis.DA, frac)).astype(np.uint8)
    return (a_hv, a_da), (b_hv, b_da)


def detect_side(pair_times: np.ndarray, outcome_bits, side: SideConfig,
                rng: np.random.Generator, duration: float) -> EventStream:
    """One station's detection record for the emitted pairs.

    outcome_bits = (bits_if_hv, bits_if_da) per pair. The station flips its
    own basis coin per photon (beam splitter), thins by efficiency, applies
    jitter + per-detector delay, adds dark counts, applies the local clock
    transform, then merges, sorts, and applies same-detector dead time.
    """
    n = pair_times.size
    bits_hv, bits_da = outcome_bits
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    det = np.where(basis == 0, bits_hv, bits_da)
    det |= basis << 1
    kept = rng.random(n) < side.efficiency

    # cut to the detected photons before the timing arithmetic, which would
    # otherwise be the simulator's largest transient
    det = det[kept]
    jitter = rng.normal(0.0, side.jitter_sigma, n)[kept] if side.jitter_sigma else np.zeros(det.size)
    delays = np.asarray(side.detector_delays, dtype=np.int64)
    photon_t = pair_times[kept] + np.rint(jitter).astype(np.int64) + delays[det]

    span = ticks_from_seconds(duration)
    dark_t = []
    dark_d = []
    for d in range(4):
        nd = rng.poisson(side.dark_rate * duration)
        dark_t.append(rng.integers(0, span, size=nd, dtype=np.int64))
        dark_d.append(np.full(nd, d, dtype=np.uint8))

    all_t = np.concatenate([photon_t] + dark_t)
    all_d = np.concatenate([det] + dark_d)

    # local clock: t' = round((1+drift) t) + offset, events before t'=0 are
    # lost; rounded in place, so that one float copy of the times is alive
    skewed = all_t * (1.0 + side.clock_drift)
    del all_t
    np.rint(skewed, out=skewed)
    skewed = skewed.astype(np.int64)
    skewed += side.clock_offset
    valid = skewed >= 0
    skewed, all_d = skewed[valid], all_d[valid]

    # order by (time, detector): both go into one key, 4 t + d, sorted in
    # place; events equal in both are equal keys, so no order is lost
    if skewed.size and skewed.max() >= _TIME_LIMIT:
        raise ContractViolation("local time reaches 2**61 ticks")
    skewed <<= 2
    skewed |= all_d
    skewed.sort()
    all_d = skewed.astype(np.uint8)
    all_d &= 3
    skewed >>= 2

    if side.dead_time > 0:
        alive = _dead_time_alive(skewed, all_d, side.dead_time)
        skewed, all_d = skewed[alive], all_d[alive]

    return EventStream(skewed, all_d)


def _dead_time_alive(times: np.ndarray, dets: np.ndarray,
                     dead_time: int) -> np.ndarray:
    """Mask of the events that a same-detector dead time keeps.

    The rule is sequential: an event is lost if it comes less than
    `dead_time` after the last kept event on its detector. An event at
    least `dead_time` after the previous event on its detector is always
    kept, so only runs of close events need the rule applied one by one.
    """
    alive = np.ones(times.size, dtype=bool)
    for d in range(4):
        idx = np.flatnonzero(dets == d)
        t = times[idx]
        close = np.flatnonzero(np.diff(t) < dead_time) + 1
        lost = []
        last = prev = None
        for k, tk, t_before in zip(close.tolist(), t[close].tolist(),
                                   t[close - 1].tolist()):
            if k - 1 != prev:   # a run starts after an event that is kept
                last = t_before
            if tk - last < dead_time:
                lost.append(k)
            else:
                last = tk
            prev = k
        alive[idx[lost]] = False
    return alive


def simulate_link(source: SourceConfig, alice: SideConfig | None,
                  bob: SideConfig | None):
    """Full link: (alice stream, bob stream).

    A side given as None is not detected and comes back as None. Each side
    draws from its own RNG, so the other side's stream is the same either
    way: a station that runs one side alone gets the bits of the full link.
    """
    pair_times = simulate_pairs(source)
    tables_a, tables_b = _outcome_tables(
        source, pair_times, default_rng((source.rng_seed, _SALT_OUTCOMES)))
    return tuple(
        None if side is None else detect_side(
            pair_times, tables, side, default_rng((source.rng_seed, salt)),
            source.duration)
        for side, tables, salt in ((alice, tables_a, _SALT_SIDE_A),
                                   (bob, tables_b, _SALT_SIDE_B)))


# ---------------------------------------------------------------------------
# stream dump files: header {magic "ETKD", version u16, side u8},
# then records of [u64 ticks LE][u8 detector]

DUMP_MAGIC = b"ETKD"
DUMP_VERSION = 1
_DUMP_HDR = struct.Struct("<4sHB")
_RECORD = np.dtype([("t", "<u8"), ("d", "u1")])


def write_stream_dump(path, side_id: int, stream: EventStream) -> None:
    rec = np.empty(len(stream), dtype=_RECORD)
    rec["t"] = stream.times.astype(np.uint64)
    rec["d"] = stream.detectors
    with open(path, "wb") as f:
        f.write(_DUMP_HDR.pack(DUMP_MAGIC, DUMP_VERSION, side_id))
        f.write(rec.tobytes())


def read_stream_dump(path) -> tuple[int, EventStream]:
    with open(path, "rb") as f:
        head = f.read(_DUMP_HDR.size)
        if len(head) != _DUMP_HDR.size:
            raise ContractViolation("stream dump too short")
        magic, version, side = _DUMP_HDR.unpack(head)
        if magic != DUMP_MAGIC or version != DUMP_VERSION:
            raise ContractViolation("not a stream dump file")
        body = f.read()
    if len(body) % _RECORD.itemsize:
        raise ContractViolation("stream dump truncated mid-record")
    rec = np.frombuffer(body, dtype=_RECORD)
    return side, EventStream(rec["t"].astype(np.int64), rec["d"].copy())

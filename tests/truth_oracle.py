"""Per-pair ground truth of a simulated link, replayed outside the simulator.

`physim.simulate_link` returns only the two event streams. The oracle here
repeats its seeded draws in the same order, follows every emitted pair
through thinning, the clock transform, sorting and dead time, and records
where each one landed. It checks that the replay yields the very streams
the simulator produced, so the truth it returns belongs to those streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from entkd import physim
from entkd.core import ticks_from_seconds


@dataclass
class TruthRecords:
    """Per emitted pair: emission time, both outcomes, and what survived.

    event_index_* point into the corresponding output stream (-1 = lost).
    """

    emission_times: np.ndarray
    basis_a: np.ndarray
    bit_a: np.ndarray
    basis_b: np.ndarray
    bit_b: np.ndarray
    survived_a: np.ndarray
    survived_b: np.ndarray
    event_index_a: np.ndarray
    event_index_b: np.ndarray

    def __len__(self) -> int:
        return int(self.emission_times.size)


def _detect_with_truth(pair_times, outcome_bits, side, rng, duration):
    """`physim.detect_side`, step for step, carrying each event's pair id."""
    n = pair_times.size
    bits_hv, bits_da = outcome_bits
    basis = rng.integers(0, 2, n, dtype=np.uint8)
    bit = np.where(basis == 0, bits_hv, bits_da).astype(np.uint8)
    det = (basis * 2 + bit).astype(np.uint8)
    kept = rng.random(n) < side.efficiency

    jitter = rng.normal(0.0, side.jitter_sigma, n) if side.jitter_sigma else np.zeros(n)
    delays = np.asarray(side.detector_delays, dtype=np.int64)
    photon_t = pair_times + np.rint(jitter).astype(np.int64) + delays[det]

    span = ticks_from_seconds(duration)
    dark_t, dark_d = [], []
    for d in range(4):
        nd = rng.poisson(side.dark_rate * duration)
        dark_t.append(rng.integers(0, span, size=nd, dtype=np.int64))
        dark_d.append(np.full(nd, d, dtype=np.uint8))

    all_t = np.concatenate([photon_t[kept]] + dark_t)
    all_d = np.concatenate([det[kept]] + dark_d)
    pair_ids = np.concatenate(
        [np.flatnonzero(kept)] + [np.full(a.size, -1, dtype=np.int64) for a in dark_t])

    skewed = np.rint((1.0 + side.clock_drift) * all_t).astype(np.int64) + side.clock_offset
    valid = skewed >= 0
    skewed, all_d, pair_ids = skewed[valid], all_d[valid], pair_ids[valid]

    order = np.lexsort((all_d, skewed))
    skewed, all_d, pair_ids = skewed[order], all_d[order], pair_ids[order]

    if side.dead_time > 0 and skewed.size:
        alive = np.ones(skewed.size, dtype=bool)
        last = [-1 << 62] * 4
        for i in range(skewed.size):
            d = all_d[i]
            if skewed[i] - last[d] < side.dead_time:
                alive[i] = False
            else:
                last[d] = skewed[i]
        skewed, all_d, pair_ids = skewed[alive], all_d[alive], pair_ids[alive]

    survived = np.zeros(n, dtype=bool)
    event_index = np.full(n, -1, dtype=np.int64)
    src = np.flatnonzero(pair_ids >= 0)
    survived[pair_ids[src]] = True
    event_index[pair_ids[src]] = src
    return skewed, all_d, basis, bit, survived, event_index


def simulate_with_truth(source, alice, bob):
    """(alice stream, bob stream, TruthRecords) of `physim.simulate_link`."""
    stream_a, stream_b = physim.simulate_link(source, alice, bob)
    pair_times = physim.simulate_pairs(source)
    tables_a, tables_b = physim._outcome_tables(
        source, pair_times,
        np.random.default_rng((source.rng_seed, physim._SALT_OUTCOMES)))
    sides = []
    for stream, tables, side, salt in ((stream_a, tables_a, alice, physim._SALT_SIDE_A),
                                       (stream_b, tables_b, bob, physim._SALT_SIDE_B)):
        times, dets, *truth = _detect_with_truth(
            pair_times, tables, side,
            np.random.default_rng((source.rng_seed, salt)), source.duration)
        if not (np.array_equal(times, stream.times)
                and np.array_equal(dets, stream.detectors)):
            raise AssertionError("truth replay diverged from simulate_link")
        sides.append(truth)
    (basis_a, bit_a, surv_a, idx_a), (basis_b, bit_b, surv_b, idx_b) = sides
    truth = TruthRecords(
        emission_times=pair_times,
        basis_a=basis_a, bit_a=bit_a,
        basis_b=basis_b, bit_b=bit_b,
        survived_a=surv_a, survived_b=surv_b,
        event_index_a=idx_a, event_index_b=idx_b,
    )
    return stream_a, stream_b, truth

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from entkd.app import load_config
from entkd.core import (Basis, ContractViolation, EventStream,
                        ticks_from_seconds)
from entkd.physim import (SideConfig, SourceConfig, _dead_time_alive,
                          _outcome_tables, detect_side, read_stream_dump,
                          simulate_link, simulate_pairs, write_stream_dump)
from truth_oracle import simulate_with_truth


def _stream_sha256(stream):
    h = hashlib.sha256(stream.times.astype("<i8").tobytes())
    h.update(stream.detectors.astype(np.uint8).tobytes())
    return h.hexdigest()


# SHA-256 of the alice and bob streams (little-endian int64 times, then
# uint8 detectors) from configs/nominal_run.ini at its seed. A change that
# alters the simulated link on purpose updates these and says why in
# CHANGES.md.
NOMINAL_STREAMS_SHA256 = (
    "273189d2313387677aeef18140ac574a6b6c271bb5952c885716be7f1a1ac6d1",
    "c5fa5662109e104d87f8338778b065a1efb0c6b0e089423784e23df64958b783")

# The same for a short dense link with dark counts, dead time, drift, a
# clock offset each way, and events on one tick at different detectors.
DENSE_SOURCE = SourceConfig(pair_rate=1e9, duration=2e-4, rng_seed=13,
                            visibility_hv=0.97, visibility_da=0.9)
DENSE_ALICE = SideConfig(efficiency=0.5, jitter_sigma=1.5,
                         detector_delays=(0, 1, 2, 3), dark_rate=5e7,
                         dead_time=40, clock_offset=12345, clock_drift=2e-4)
DENSE_BOB = SideConfig(efficiency=0.4, jitter_sigma=2.0,
                       detector_delays=(3, 3, 0, 0), dark_rate=3e7,
                       dead_time=25, clock_offset=-20000, clock_drift=-1e-4)
DENSE_STREAMS_SHA256 = (
    "da556549b4a60fdd6dfd8f7bfd88c47bc08fb7d4fcc6f8d7e93eaea7f84609fe",
    "26b15259354ca1a7890136a07e8aa64b242189e51df1f63cedaec8f890146654")


def _count_anti(src, basis_a, basis_b, n, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    bits_a, bits_b = _outcome_tables(src, np.zeros(n, dtype=np.int64), rng)
    return int(np.count_nonzero(bits_a[basis_a] != bits_b[basis_b]))


def test_config_validation():
    with pytest.raises(ContractViolation):
        SourceConfig(pair_rate=-1)
    with pytest.raises(ContractViolation):
        SourceConfig(pair_rate=1, visibility_hv=1.5)
    with pytest.raises(ContractViolation):
        SideConfig(efficiency=2.0)
    with pytest.raises(ContractViolation):
        SideConfig(dark_rate=-3)
    with pytest.raises(ContractViolation):
        SideConfig(detector_delays=(1, 2, 3))
    with pytest.raises(ContractViolation):
        SideConfig(jitter_sigma=-1.0)
    with pytest.raises(ContractViolation):
        SideConfig(dead_time=-1)
    with pytest.raises(ContractViolation):
        SourceConfig(pair_rate=10, duration=0.0)


def test_pair_emission_statistics():
    src = SourceConfig(pair_rate=20000, duration=2.0, rng_seed=5)
    times = simulate_pairs(src)
    assert (np.diff(times) >= 0).all()
    assert times.min() >= 0
    assert times.max() < ticks_from_seconds(2.0)
    # Poisson count within 5 sigma
    mu = 40000
    assert abs(times.size - mu) < 5 * np.sqrt(mu)


def test_determinism():
    src = SourceConfig(pair_rate=5000, duration=0.5, rng_seed=11,
                       visibility_hv=0.95, visibility_da=0.9)
    side = SideConfig(efficiency=0.3, jitter_sigma=2.0, dark_rate=500,
                      dead_time=80, clock_offset=1234, clock_drift=1e-7)
    a1, b1, t1 = simulate_with_truth(src, side, side)
    a2, b2, t2 = simulate_with_truth(src, side, side)
    assert np.array_equal(a1.times, a2.times)
    assert np.array_equal(a1.detectors, a2.detectors)
    assert np.array_equal(b1.times, b2.times)
    assert np.array_equal(b1.detectors, b2.detectors)
    assert np.array_equal(t1.emission_times, t2.emission_times)
    assert np.array_equal(t1.event_index_b, t2.event_index_b)
    # different seed should differ
    a3, _ = simulate_link(
        SourceConfig(pair_rate=5000, duration=0.5, rng_seed=12,
                     visibility_hv=0.95, visibility_da=0.9), side, side)
    assert not np.array_equal(a1.times, a3.times)


def test_joint_outcome_statistics():
    src = SourceConfig(pair_rate=1, visibility_hv=0.9, visibility_da=0.7)
    n = 40000
    for basis, v in ((Basis.HV, 0.9), (Basis.DA, 0.7)):
        anti = _count_anti(src, basis, basis, n)
        mu, sd = n * (1 + v) / 2, np.sqrt(n * (1 - v * v) / 4)
        assert abs(anti - mu) < 5 * sd
    # crossed bases: uniform
    anti = _count_anti(src, Basis.HV, Basis.DA, n)
    assert abs(anti - n / 2) < 5 * np.sqrt(n / 4)


def test_link_truth_consistency():
    src = SourceConfig(pair_rate=30000, duration=0.4, rng_seed=3,
                       visibility_hv=0.96, visibility_da=0.88)
    side_a = SideConfig(efficiency=0.5, detector_delays=(0, 0, 0, 0))
    side_b = SideConfig(efficiency=0.4, detector_delays=(0, 0, 0, 0),
                        clock_offset=5000)
    sa, sb, truth = simulate_with_truth(src, side_a, side_b)
    # each stream was checked when built: reversed, it is refused
    for stream in (sa, sb):
        with pytest.raises(ContractViolation, match="never decrease"):
            EventStream(stream.times[::-1], stream.detectors[::-1])
    # ground-truth indices point at events carrying the recorded outcome
    for stream, surv, idx, basis, bit, off in (
            (sa, truth.survived_a, truth.event_index_a, truth.basis_a,
             truth.bit_a, 0),
            (sb, truth.survived_b, truth.event_index_b, truth.basis_b,
             truth.bit_b, 5000)):
        pick = np.flatnonzero(surv)
        assert (idx[surv] >= 0).all()
        assert (idx[~surv] == -1).all()
        det = stream.detectors[idx[pick]]
        assert np.array_equal(det, basis[pick] * 2 + bit[pick])
        assert np.array_equal(stream.times[idx[pick]],
                              truth.emission_times[pick] + off)
    # survival fraction matches efficiency
    n = len(truth)
    for surv, eff in ((truth.survived_a, 0.5), (truth.survived_b, 0.4)):
        assert abs(surv.sum() - n * eff) < 5 * np.sqrt(n * eff * (1 - eff))
    # same-basis anti-correlation of the truth tables
    for basis, v in ((0, 0.96), (1, 0.88)):
        same = (truth.basis_a == basis) & (truth.basis_b == basis)
        m = int(same.sum())
        anti = int((truth.bit_a[same] != truth.bit_b[same]).sum())
        mu, sd = m * (1 + v) / 2, np.sqrt(m * (1 - v * v) / 4)
        assert abs(anti - mu) < 5 * sd


def test_dark_counts_only():
    src = SourceConfig(pair_rate=0, duration=1.0, rng_seed=7)
    side = SideConfig(efficiency=1.0, dark_rate=2000)
    s, _, truth = simulate_with_truth(src, side, SideConfig())
    assert len(truth) == 0
    mu = 4 * 2000  # per-detector rate times four detectors
    assert abs(len(s) - mu) < 5 * np.sqrt(mu)
    counts = np.bincount(s.detectors, minlength=4)
    assert (counts > 0).all()


def test_dead_time_enforced():
    src = SourceConfig(pair_rate=200000, duration=0.1, rng_seed=2)
    side = SideConfig(efficiency=1.0, dark_rate=5000, dead_time=400)
    s, _ = simulate_link(src, side, SideConfig())
    for d in range(4):
        t = s.times[s.detectors == d]
        if t.size > 1:
            assert int(np.diff(t).min()) >= 400


def _dead_time_by_event(times, dets, dead_time):
    """The sequential dead-time rule, one event at a time."""
    alive = np.ones(times.size, dtype=bool)
    last = [None] * 4
    for i, (t, d) in enumerate(zip(times.tolist(), dets.tolist())):
        if last[d] is not None and t - last[d] < dead_time:
            alive[i] = False
        else:
            last[d] = t
    return alive


def test_dead_time_rule_is_sequential():
    # 300 falls inside 0's dead time and is lost; 500 is 200 after the
    # lost event but 500 after the last kept one, so it is kept
    t = np.array([0, 300, 500], dtype=np.int64)
    assert _dead_time_alive(t, np.zeros(3, np.uint8), 400).tolist() == [
        True, False, True]
    # detectors keep their own dead time, and ties on one tick stay
    t = np.array([0, 0, 300, 300, 500, 500, 800, 900], dtype=np.int64)
    d = np.array([0, 1, 0, 1, 0, 1, 0, 0], dtype=np.uint8)
    assert _dead_time_alive(t, d, 400).tolist() == [
        True, True, False, False, True, True, False, True]
    rng = np.random.default_rng(5)
    for dead in (1, 7, 40):
        t = np.sort(rng.integers(0, 3000, 1000))
        d = rng.integers(0, 4, 1000).astype(np.uint8)
        order = np.lexsort((d, t))
        t, d = t[order], d[order]
        assert np.array_equal(_dead_time_alive(t, d, dead),
                              _dead_time_by_event(t, d, dead))


def test_dead_time_runs_follow_the_sequential_rule():
    # the dense link has many runs of close same-detector events: keeping
    # each event whose predecessor is one dead time earlier would keep far
    # fewer than the sequential rule does
    for side in (DENSE_ALICE, DENSE_BOB):
        free = dataclasses.replace(side, dead_time=0)
        stream, _ = simulate_link(DENSE_SOURCE, side, None)
        raw, _ = simulate_link(DENSE_SOURCE, free, None)
        by_gap = np.ones(len(raw), dtype=bool)
        for det in range(4):
            idx = np.flatnonzero(raw.detectors == det)
            by_gap[idx[1:]] = np.diff(raw.times[idx]) >= side.dead_time
        assert len(stream) > 1.05 * by_gap.sum()
        alive = _dead_time_by_event(raw.times, raw.detectors, side.dead_time)
        assert np.array_equal(stream.times, raw.times[alive])
        assert np.array_equal(stream.detectors, raw.detectors[alive])


def test_each_side_alone_matches_the_link():
    sa, sb = simulate_link(DENSE_SOURCE, DENSE_ALICE, DENSE_BOB)
    alone_a, none_b = simulate_link(DENSE_SOURCE, DENSE_ALICE, None)
    none_a, alone_b = simulate_link(DENSE_SOURCE, None, DENSE_BOB)
    assert none_a is None and none_b is None
    for got, want in ((alone_a, sa), (alone_b, sb)):
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.detectors, want.detectors)


def test_time_past_the_sort_key_is_refused():
    side = SideConfig(clock_offset=1 << 61)
    rng = np.random.default_rng(0)
    tables = (np.zeros(1, np.uint8), np.zeros(1, np.uint8))
    with pytest.raises(ContractViolation):
        detect_side(np.zeros(1, np.int64), tables, side, rng, 1.0)
    ok = SideConfig(clock_offset=(1 << 61) - 3, detector_delays=(0,) * 4)
    s = detect_side(np.zeros(1, np.int64), tables, ok, rng, 1.0)
    assert s.times.tolist() == [(1 << 61) - 3]


def test_clock_transform():
    src = SourceConfig(pair_rate=10000, duration=0.5, rng_seed=9)
    plain = SideConfig(efficiency=1.0, detector_delays=(0, 0, 0, 0))
    moved = SideConfig(efficiency=1.0, detector_delays=(0, 0, 0, 0),
                       clock_offset=777, clock_drift=2e-6)
    s0, _, t0 = simulate_with_truth(src, plain, SideConfig())
    s1, _, t1 = simulate_with_truth(src, moved, SideConfig())
    # same emissions, same survival (side RNG draws in the same order)
    assert np.array_equal(t0.emission_times, t1.emission_times)
    assert np.array_equal(t0.survived_a, t1.survived_a)
    e = t0.emission_times[t0.survived_a]
    got = s1.times[t1.event_index_a[t1.survived_a]]
    expect = np.rint((1 + 2e-6) * e).astype(np.int64) + 777
    assert np.array_equal(got, expect)


def test_negative_local_times_dropped():
    src = SourceConfig(pair_rate=50000, duration=0.2, rng_seed=4)
    side = SideConfig(efficiency=1.0, clock_offset=-ticks_from_seconds(0.1))
    s, _, truth = simulate_with_truth(src, side, SideConfig())
    assert s.times.min() >= 0
    lost_early = (truth.emission_times < ticks_from_seconds(0.1)) \
        & ~truth.survived_a
    assert lost_early.sum() > 0


def test_jitter_spread():
    src = SourceConfig(pair_rate=40000, duration=0.5, rng_seed=8)
    side = SideConfig(efficiency=1.0, jitter_sigma=4.0,
                      detector_delays=(0, 0, 0, 0))
    s, _, truth = simulate_with_truth(src, side, SideConfig())
    resid = (s.times[truth.event_index_a[truth.survived_a]]
             - truth.emission_times[truth.survived_a])
    sd = float(np.std(resid))
    assert 3.5 < sd < 4.5
    assert abs(float(np.mean(resid))) < 0.2


def test_stream_dump_roundtrip(tmp_path):
    src = SourceConfig(pair_rate=3000, duration=0.3, rng_seed=6)
    s, _ = simulate_link(src, SideConfig(efficiency=0.8), SideConfig())
    p = tmp_path / "a.etkd"
    write_stream_dump(p, 0, s)
    side, back = read_stream_dump(p)
    assert side == 0
    assert np.array_equal(back.times, s.times)
    assert np.array_equal(back.detectors, s.detectors)


def test_stream_dump_errors(tmp_path):
    p = tmp_path / "bad.etkd"
    p.write_bytes(b"NOPE\x01\x00\x00")
    with pytest.raises(ContractViolation):
        read_stream_dump(p)
    src = SourceConfig(pair_rate=1000, duration=0.1, rng_seed=1)
    s, _ = simulate_link(src, SideConfig(), SideConfig())
    good = tmp_path / "good.etkd"
    write_stream_dump(good, 1, s)
    data = good.read_bytes()
    (tmp_path / "cut.etkd").write_bytes(data[:-3])
    with pytest.raises(ContractViolation):
        read_stream_dump(tmp_path / "cut.etkd")
    (tmp_path / "short.etkd").write_bytes(data[:4])
    with pytest.raises(ContractViolation):
        read_stream_dump(tmp_path / "short.etkd")


def test_nominal_streams_golden():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs"
                      / "nominal_run.ini")
    streams = simulate_link(cfg.source, cfg.alice, cfg.bob)
    assert tuple(map(_stream_sha256, streams)) == NOMINAL_STREAMS_SHA256


def test_dense_streams_golden():
    # the truth replay sorts with lexsort and applies dead time event by
    # event, and raises unless it reproduces both streams
    sa, sb, _ = simulate_with_truth(DENSE_SOURCE, DENSE_ALICE, DENSE_BOB)
    assert (_stream_sha256(sa), _stream_sha256(sb)) == DENSE_STREAMS_SHA256
    for stream, side in ((sa, DENSE_ALICE), (sb, DENSE_BOB)):
        t, d = stream.times, stream.detectors
        # same-tick events on different detectors, ordered by detector
        ties = t[1:] == t[:-1]
        assert (d[1:][ties] > d[:-1][ties]).all() and ties.sum() > 100
        # and dead time holds on every detector
        for det in range(4):
            assert np.diff(t[d == det]).min() >= side.dead_time

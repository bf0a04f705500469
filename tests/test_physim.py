import numpy as np
import pytest

from entkd.core import (Basis, ContractViolation, EventStream,
                        ticks_from_seconds)
from entkd.physim import (SideConfig, SourceConfig, _outcome_tables,
                          read_stream_dump, simulate_link, simulate_pairs,
                          write_stream_dump)
from truth_oracle import simulate_with_truth


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
        simulate_pairs(SourceConfig(pair_rate=10, duration=0.0))


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
    sa.assert_sorted(), sb.assert_sorted()
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkd.core import (COARSE_BIN_TICKS, EPOCH_TICKS, TICKS_PER_SECOND,
                        ContractViolation, ticks_from_seconds)
from entkd.physim import SideConfig, SourceConfig, simulate_link
from entkd.tsync import (_MID_BIN_TICKS, _MID_WINDOW, _SCAN_LIMIT,
                         _SCAN_STEPS, ClockModel, NoPeakError, _dedrift,
                         _delta_histogram, _drift_histograms, _scan_drift,
                         apply_model,
                         coarse_correlate, fine_correlate, initial_lock,
                         servo_update)


def _link(offset, drift, rate=40000, duration=0.8, seed=0, eff=1.0,
          darks=0.0, jitter=0.0):
    src = SourceConfig(pair_rate=rate, duration=duration, rng_seed=seed)
    a = SideConfig(efficiency=eff, detector_delays=(0, 0, 0, 0),
                   dark_rate=darks, jitter_sigma=jitter)
    b = SideConfig(efficiency=eff, detector_delays=(0, 0, 0, 0),
                   dark_rate=darks, jitter_sigma=jitter,
                   clock_offset=offset, clock_drift=drift)
    sa, sb = simulate_link(src, a, b)
    return sa.times, sb.times


def test_model_validation():
    with pytest.raises(ContractViolation):
        ClockModel(offset=0, drift=5e-4)


def test_apply_model_identity_and_offset():
    t = np.array([0, 100, 10**12], dtype=np.int64)
    assert np.array_equal(apply_model(ClockModel(), t), t)
    out = apply_model(ClockModel(offset=40.0), t)
    assert np.array_equal(out, np.array([0, 60, 10**12 - 40]))
    out = apply_model(ClockModel(offset=50.0), np.array([10, 200]))
    assert list(out) == [0, 150]


def test_apply_model_inverts_simulator_clock():
    # the simulator maps t -> round((1+d) t) + off;
    # the model applied with matching parameters recovers t to the tick
    rng = np.random.default_rng(1)
    t = np.sort(rng.integers(0, 10 * EPOCH_TICKS, 3000)).astype(np.int64)
    off, d = 123456, 3e-7
    skewed = np.rint((1 + d) * t).astype(np.int64) + off
    # remote = (1+d) local + off  =>  local = remote - off - d*(remote - 0) / (1+d)
    model = ClockModel(offset=float(off), drift=d / (1 + d), reference_epoch=0)
    back = apply_model(model, skewed)
    assert np.abs(back - t).max() <= 1


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-5e-5, 5e-5), st.integers(0, 50))
def test_apply_model_monotone(offset, drift, ref):
    t = np.sort(np.random.default_rng(0).integers(
        ref * EPOCH_TICKS, (ref + 4) * EPOCH_TICKS, 500)).astype(np.int64)
    out = apply_model(ClockModel(offset, drift, ref), t)
    assert (np.diff(out) >= 0).all()


def test_coarse_correlate_finds_offset():
    for off in (0, 5 * COARSE_BIN_TICKS, -9 * COARSE_BIN_TICKS,
                3 * COARSE_BIN_TICKS + 700):
        la, lb = _link(off, 0.0, rate=20000, duration=0.3, seed=3)
        res = coarse_correlate(la, lb)
        assert abs(res.offset_ticks - off) <= 2 * COARSE_BIN_TICKS
        assert res.significance >= 6.0


def test_coarse_correlate_rejects_unrelated():
    rng = np.random.default_rng(0)
    a = np.sort(rng.integers(0, 2 * EPOCH_TICKS, 20000)).astype(np.int64)
    b = np.sort(rng.integers(0, 2 * EPOCH_TICKS, 20000)).astype(np.int64)
    with pytest.raises(NoPeakError):
        coarse_correlate(a, b)
    with pytest.raises(NoPeakError):
        coarse_correlate(a, np.array([], dtype=np.int64))


def test_fine_correlate_refines():
    off = 2 * COARSE_BIN_TICKS + 313
    la, lb = _link(off, 0.0, rate=30000, duration=0.3, seed=5)
    coarse = coarse_correlate(la, lb)
    res = fine_correlate(la, lb, coarse.offset_ticks)
    assert abs(res.offset_ticks - off) < 8  # within one 2 ns bin


def test_fine_correlate_no_pairs():
    # remote sits half a grid step away from every local event, far outside
    # the +-half_window search, so the histogram stays empty
    la = np.arange(0, 10**9, 10**6, dtype=np.int64)
    with pytest.raises(NoPeakError):
        fine_correlate(la, la + 500_000, 0.0, half_window=1024)


def test_initial_lock_recovers_model():
    off, drift = 696_000_000, 3.0e-7
    la, lb = _link(off, drift, rate=40000, duration=0.8, seed=7,
                   eff=0.5, darks=1000, jitter=3.36)
    model = initial_lock(la, lb)
    # check by mapping remote events back: residual against truth
    src = SourceConfig(pair_rate=40000, duration=0.8, rng_seed=7)
    # predicted local time of a remote event at remote time T is
    # T - offset - drift*(T - ref); compare against exact inverse
    T = np.linspace(0, lb[-1], 50)
    exact_local = (T - off) / (1 + drift)
    predicted = T - model.offset - model.drift * (T - model.reference_ticks)
    assert np.abs(predicted - exact_local).max() < 16  # 2 ns
    assert abs(model.offset - off) < 2000  # offsets agree near t=0


def drift_histograms_oracle(local_times, remote_times, offset, reference):
    """One full pairing search per drift candidate, as the scan first did."""
    candidates = np.linspace(-_SCAN_LIMIT, _SCAN_LIMIT, _SCAN_STEPS)
    hists = [_delta_histogram(local_times, _dedrift(remote_times, float(d), reference),
                              offset, _MID_WINDOW, _MID_BIN_TICKS)[0]
             for d in candidates]
    return candidates, np.array(hists)


def scan_drift_oracle(local_times, remote_times, offset, reference):
    best_d, best_peak = 0.0, -1
    for d, hist in zip(*drift_histograms_oracle(local_times, remote_times,
                                                offset, reference)):
        top = int(hist.max())
        if top > best_peak:
            best_peak, best_d = top, float(d)
    return best_d


@pytest.mark.parametrize("drift", [0.0, 3e-7, -3e-7, _SCAN_LIMIT,
                                   -_SCAN_LIMIT])
def test_scan_drift_matches_per_candidate_oracle(drift):
    # remote clock drifting at the given rate, with dark counts on both
    # sides, over the eight epochs initial_lock scans; the second offset
    # guess puts the peak near the edge of the mid window
    off = 3 * COARSE_BIN_TICKS // 2
    la, lb = _link(off, drift, rate=3000,
                   duration=8 * EPOCH_TICKS / TICKS_PER_SECOND,
                   seed=11, eff=0.5, darks=2000, jitter=3.36)
    ref = float((lb[0] >> 32) * EPOCH_TICKS)
    for guess in (float(off), off + 0.8 * _MID_WINDOW):
        cand, hists = _drift_histograms(la, lb, guess, ref)
        want_cand, want_hists = drift_histograms_oracle(la, lb, guess, ref)
        assert np.array_equal(cand, want_cand)
        assert np.array_equal(hists, want_hists)
        assert _scan_drift(la, lb, guess, ref) == scan_drift_oracle(la, lb, guess, ref)
    if drift:
        assert abs(_scan_drift(la, lb, off, ref) - drift) <= 2 * _SCAN_LIMIT / (_SCAN_STEPS - 1)


def test_initial_lock_raises_on_noise():
    rng = np.random.default_rng(2)
    a = np.sort(rng.integers(0, 4 * EPOCH_TICKS, 40000)).astype(np.int64)
    b = np.sort(rng.integers(0, 4 * EPOCH_TICKS, 40000)).astype(np.int64)
    with pytest.raises(NoPeakError):
        initial_lock(a, b)


def test_servo_update_converges():
    # start with a slightly wrong model; feed epochs of synthetic residuals
    true_off, true_drift = 1000.0, 2e-8
    model = ClockModel(offset=960.0, drift=0.0, reference_epoch=0)
    rng = np.random.default_rng(4)
    for e in range(10):
        t = np.sort(rng.integers(e * EPOCH_TICKS, (e + 1) * EPOCH_TICKS,
                                 200)).astype(np.float64)
        # residual the matcher would observe for a candidate pair:
        # corrected-remote minus local under the current (wrong) model
        true_local = (t - true_off - true_drift * t)
        corrected = t - model.offset - model.drift * (t - model.reference_ticks)
        delta = corrected - true_local + rng.normal(0, 3.0, t.size)
        model, starved = servo_update(model, t, delta)
        assert not starved
    final_resid = (model.offset - true_off) + \
        (model.drift - true_drift) * (10 * EPOCH_TICKS)
    assert abs(final_resid) < 8.0  # inside 1 ns at the working point


def test_servo_starvation():
    model = ClockModel(offset=5.0, drift=1e-8, reference_epoch=0)
    out, starved = servo_update(model, np.array([]), np.array([]))
    assert starved and out == model


def test_servo_few_samples_moves_offset_only():
    model = ClockModel(offset=0.0, drift=0.0, reference_epoch=0)
    t = np.array([100.0, 200.0, 300.0])
    d = np.array([10.0, 10.0, 10.0])
    out, starved = servo_update(model, t, d)
    assert not starved
    assert out.drift == 0.0
    assert out.offset == pytest.approx(5.0)  # half of the mean residual

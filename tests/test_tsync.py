import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkd import tsync
from entkd.core import (COARSE_BIN_TICKS, EPOCH_TICKS, FINE_BIN_TICKS,
                        TICKS_PER_SECOND, ContractViolation, window_pairs)
from entkd.physim import SideConfig, SourceConfig, simulate_link
from entkd.tsync import (_FINE_WINDOW, _MID_BIN_TICKS, _MID_WINDOW,
                         _SCAN_LIMIT, _SCAN_STEPS, DRIFT_SANITY, LOCK_EPOCHS,
                         SIGNIFICANCE_THRESHOLD, ClockModel, CorrelationResult,
                         NoPeakError, _drift_histograms, _fit_line,
                         _pair_epochs, _residual_peak, apply_model,
                         coarse_correlate, initial_lock, servo_update)


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


@settings(max_examples=100, deadline=None)
@given(st.floats(-2.0**31, 2.0**31),
       st.floats(-DRIFT_SANITY, DRIFT_SANITY, exclude_min=True,
                 exclude_max=True),
       st.integers(0, 50), st.integers(0, 1 << 17))
def test_apply_model_monotone(offset, drift, ref, later):
    # coinc.match takes a packet's mapped times without checking their
    # order: any drift a ClockModel admits must keep it, for events up to
    # 2**17 epochs (~19 h) after the reference and on neighbouring ticks
    t = np.sort(np.random.default_rng(0).integers(
        ref * EPOCH_TICKS, (ref + 4) * EPOCH_TICKS, 500)) + later * EPOCH_TICKS
    t = np.union1d(t, t + 1)
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


def test_residual_peak_refines():
    off = 2 * COARSE_BIN_TICKS + 313
    la, lb = _link(off, 0.0, rate=30000, duration=0.3, seed=5)
    shift = int(round(coarse_correlate(la, lb).offset_ticks))
    _, _, base = window_pairs(la, lb - shift, COARSE_BIN_TICKS)
    res = _residual_peak(base, COARSE_BIN_TICKS, FINE_BIN_TICKS)
    assert res.significance >= SIGNIFICANCE_THRESHOLD
    assert abs(shift + res.offset_ticks - off) < 8  # within one 2 ns bin


def test_residual_peak_no_pairs():
    # remote sits half a grid step away from every local event, far outside
    # the +-half_window search, so the histogram stays empty; residuals on
    # the window's upper edge fall outside it too
    la = np.arange(0, 10**9, 10**6, dtype=np.int64)
    _, _, base = window_pairs(la, la + 500_000, _FINE_WINDOW)
    assert base.size == 0
    for residuals in (base, np.full(50, _FINE_WINDOW)):
        with pytest.raises(NoPeakError):
            _residual_peak(residuals, _FINE_WINDOW, FINE_BIN_TICKS)


def test_residual_peak_significance_and_centroid():
    # a flat background of 4 per 2 ns bin, a peak of 20 with shoulders of
    # 10 on two bins either side: the background leaves out all five, so
    # the peak stands (20 - 4) / 2 sigma above it; the offset is the mean
    # residual of the peak bin and its two neighbors
    counts = np.full(2 * _FINE_WINDOW // FINE_BIN_TICKS, 4)
    counts[[58, 59, 61, 62]] = 10
    counts[60] = 20
    left = np.arange(counts.size) * FINE_BIN_TICKS - _FINE_WINDOW
    residuals = np.repeat(left + 5, counts)
    res = _residual_peak(residuals[::-1], _FINE_WINDOW, FINE_BIN_TICKS)
    assert res.significance == 8.0
    near = residuals[(residuals >= left[59]) & (residuals < left[62])]
    assert res.offset_ticks == near.mean() == left[60] + 5


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


# ---------------------------------------------------------------------------
# Reference lock: a fresh pairing search per drift candidate in the scan and
# per epoch in every tier, the remote events de-drifted before each search.
# initial_lock pairs each epoch once and must agree with it exactly.


def _dedrift(times, drift, reference):
    if drift == 0.0:
        return times
    t = times.astype(np.float64)
    return times - np.rint(drift * (t - reference)).astype(np.int64)


def _peak_significance(hist, exclude=2):
    peak = int(np.argmax(hist))
    mask = np.ones(hist.size, dtype=bool)
    mask[max(0, peak - exclude) : peak + exclude + 1] = False
    bg = hist[mask]
    mean = float(bg.mean()) if bg.size else 0.0
    sigma = max(1.0, np.sqrt(mean)) if bg.size else 1.0
    return peak, (float(hist[peak]) - mean) / sigma


def _delta_histogram(local_times, remote_times, center, half_window, bin_ticks):
    """Histogram of (remote - center - local) over +-half_window at bin_ticks."""
    shifted = np.asarray(remote_times, dtype=np.int64) - int(round(center))
    _, _, deltas = window_pairs(local_times, shifted, half_window)
    deltas = deltas[(deltas >= -half_window) & (deltas < half_window)]
    hist = np.bincount((deltas + half_window) // bin_ticks,
                       minlength=(2 * half_window) // bin_ticks)
    return hist, deltas


def fine_correlate(local_times, remote_times, coarse_offset, half_window,
                   bin_ticks):
    """Offset of the histogram peak within +-half_window of coarse_offset."""
    hist, deltas = _delta_histogram(local_times, remote_times, coarse_offset,
                                    half_window, bin_ticks)
    if not hist.any():
        raise NoPeakError("no pairs inside fine correlation window")
    peak, sig = _peak_significance(hist)
    if sig < SIGNIFICANCE_THRESHOLD:
        raise NoPeakError(f"no fine peak (significance {sig:.2f})")
    lo_edge = (peak - 1) * bin_ticks - half_window
    hi_edge = (peak + 2) * bin_ticks - half_window
    near = deltas[(deltas >= lo_edge) & (deltas < hi_edge)]
    centroid = float(near.mean()) if near.size else float(peak * bin_ticks - half_window)
    return CorrelationResult(sig, float(coarse_offset) + centroid)


def drift_histograms_oracle(local_times, remote_times, offset, reference):
    """One full pairing search per drift candidate."""
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


def initial_lock_oracle(local_times, remote_times):
    local_times = local_times[
        np.searchsorted(local_times, int(remote_times[0]) - EPOCH_TICKS):
        np.searchsorted(local_times, int(remote_times[-1]) + EPOCH_TICKS)]
    first_epoch = int(remote_times[0] >> 32)
    last_epoch = int(remote_times[-1] >> 32)
    epochs = list(range(first_epoch, min(last_epoch, first_epoch + LOCK_EPOCHS - 1) + 1))
    ref = float(first_epoch * EPOCH_TICKS)
    span_hi = (epochs[-1] + 1) * EPOCH_TICKS
    remote_times = remote_times[: np.searchsorted(remote_times, span_hi, side="left")]
    coarse_cut = int(np.searchsorted(remote_times, (first_epoch + 2) * EPOCH_TICKS, "left"))
    offset = coarse_correlate(local_times, remote_times[: max(coarse_cut, 1)]).offset_ticks
    drift = scan_drift_oracle(local_times, remote_times, offset, ref)
    for half, bin_ticks in ((_MID_WINDOW, _MID_BIN_TICKS),
                            (_FINE_WINDOW, FINE_BIN_TICKS),
                            (_FINE_WINDOW, FINE_BIN_TICKS)):
        centers, measured = [], []
        for e in epochs:
            a = np.searchsorted(remote_times, e * EPOCH_TICKS, side="left")
            b = np.searchsorted(remote_times, (e + 1) * EPOCH_TICKS, side="left")
            if b - a < 8:
                continue
            seg = remote_times[a:b]
            try:
                res = fine_correlate(local_times, _dedrift(seg, drift, ref),
                                     offset, half, bin_ticks)
            except NoPeakError:
                continue
            centers.append(float(seg.mean()) - ref)
            measured.append(res.offset_ticks)
        if len(centers) < max(1, len(epochs) // 2):
            raise NoPeakError("too few epochs produced a usable peak")
        a0, b0 = _fit_line(np.array(centers), np.array(measured))
        offset = a0
        if len(centers) >= 2:
            drift += b0
        if abs(drift) >= DRIFT_SANITY:
            raise NoPeakError(f"fitted drift {drift} beyond sanity bound")
    return ClockModel(offset=offset, drift=drift, reference_epoch=first_epoch)


def _lock_link(offset, drift, rate, seed, darks=2000.0, epochs=LOCK_EPOCHS):
    """A half-efficient link with jitter and dark counts over `epochs` epochs."""
    return _link(offset, drift, rate=rate,
                 duration=epochs * EPOCH_TICKS / TICKS_PER_SECOND,
                 seed=seed, eff=0.5, darks=darks, jitter=3.36)


def _count_pairings(monkeypatch):
    """Half-windows of every pairing search initial_lock makes."""
    calls = []

    def counted(local_times, remote_times, half_window):
        calls.append(half_window)
        return window_pairs(local_times, remote_times, half_window)

    monkeypatch.setattr(tsync, "window_pairs", counted)
    return calls


@pytest.mark.parametrize("drift", [0.0, 3e-7, -3e-7, _SCAN_LIMIT,
                                   -_SCAN_LIMIT])
def test_scan_drift_matches_per_candidate_oracle(drift):
    # remote clock drifting at the given rate, with dark counts on both
    # sides, over the eight epochs initial_lock scans; the second offset
    # guess puts the peak near the edge of the mid window
    off = 3 * COARSE_BIN_TICKS // 2
    la, lb = _lock_link(off, drift, rate=3000, seed=11)
    ref = float((lb[0] >> 32) * EPOCH_TICKS)
    for guess in (float(off), off + 0.8 * _MID_WINDOW):
        epochs = _pair_epochs(la, lb, int(round(guess)), ref)
        cand, hists = _drift_histograms(epochs, ref)
        want_cand, want_hists = drift_histograms_oracle(la, lb, guess, ref)
        assert np.array_equal(cand, want_cand)
        assert np.array_equal(hists, want_hists)
        picked = float(cand[int(np.argmax(hists.max(axis=1)))])
        assert picked == scan_drift_oracle(la, lb, guess, ref)
        if drift and guess == off:
            assert abs(picked - drift) <= 2 * _SCAN_LIMIT / (_SCAN_STEPS - 1)


def _scramble_epoch(times, epoch, seed):
    """times with one epoch's events replaced by as many unrelated ones."""
    inside = (times >> 32) == epoch
    noise = np.random.default_rng(seed).integers(
        epoch * EPOCH_TICKS, (epoch + 1) * EPOCH_TICKS, int(inside.sum()))
    return np.sort(np.concatenate([times[~inside], noise]))


LOCK_LINKS = {
    # offset, drift, pair rate, seed, dark rate, epochs
    "dense_dark": (696_000_000, 3e-7, 20000, 7, 20000.0, LOCK_EPOCHS),
    "drift_at_+limit": (11 * COARSE_BIN_TICKS // 2, _SCAN_LIMIT, 3000, 11, 2000.0, LOCK_EPOCHS),
    "drift_at_-limit": (-11 * COARSE_BIN_TICKS // 2, -_SCAN_LIMIT, 3000, 12, 2000.0, LOCK_EPOCHS),
    # the peak walks from a coarse bin edge toward the mid window's edge
    "mid_window_edge": (5 * COARSE_BIN_TICKS + 1, 1.2e-6, 3000, 13, 2000.0, LOCK_EPOCHS),
    "sparse": (-700_000_000, -9e-7, 1000, 9, 200.0, LOCK_EPOCHS),
    "short": (123_456, 5e-7, 5000, 3, 2000.0, 3),
    "long": (-40_000_000, -2e-7, 2000, 5, 2000.0, 2 * LOCK_EPOCHS),
}


@pytest.mark.parametrize("name", sorted(LOCK_LINKS))
def test_initial_lock_matches_oracle(name):
    offset, drift, rate, seed, darks, epochs = LOCK_LINKS[name]
    la, lb = _lock_link(offset, drift, rate, seed, darks, epochs)
    assert initial_lock(la, lb) == initial_lock_oracle(la, lb)


def test_initial_lock_skips_thin_and_peakless_epochs():
    # one lock epoch of unrelated remote events gives no peak in any tier,
    # and another keeps only seven events, each with its partner: too few
    # to use, though they would make a peak. The fit runs on the other six
    la, lb = _link(3 * COARSE_BIN_TICKS, 4e-7, rate=3000,
                   duration=LOCK_EPOCHS * EPOCH_TICKS / TICKS_PER_SECOND, seed=14)
    scrambled, thin = int(lb[0] >> 32) + 4, int(lb[0] >> 32) + 6
    lb = _scramble_epoch(lb, scrambled, 14)
    lb = lb[((lb >> 32) != thin) | (np.cumsum((lb >> 32) == thin) <= 7)]
    ep, = _pair_epochs(la, lb[(lb >> 32) == scrambled], 3 * COARSE_BIN_TICKS, 0.0)
    with pytest.raises(NoPeakError):
        _residual_peak(ep.base, _MID_WINDOW, _MID_BIN_TICKS)
    ep, = _pair_epochs(la, lb[(lb >> 32) == thin], 3 * COARSE_BIN_TICKS, 0.0)
    assert ep.times.size == 7
    assert _residual_peak(ep.base, _MID_WINDOW, _MID_BIN_TICKS).significance >= 6.9
    model = initial_lock(la, lb)
    assert model == initial_lock_oracle(la, lb)
    assert abs(model.offset - 3 * COARSE_BIN_TICKS) < 16


def test_initial_lock_pairs_each_epoch_once(monkeypatch):
    la, lb = _lock_link(2_000_000, 3e-7, 3000, 15)
    first = int(lb[0] >> 32)
    assert np.array_equal(np.unique(lb >> 32)[:LOCK_EPOCHS],
                          np.arange(first, first + LOCK_EPOCHS))
    calls = _count_pairings(monkeypatch)
    initial_lock(la, lb)
    assert len(calls) == LOCK_EPOCHS
    # an epoch with no remote events is not paired at all
    calls.clear()
    initial_lock(la, lb[(lb >> 32) != first + 2])
    assert len(calls) == LOCK_EPOCHS - 1


def test_initial_lock_pairs_again_when_the_fit_moves_past_the_window(monkeypatch):
    # a remote clock 3 ppm fast, beyond the drift scan's reach, half a coarse
    # bin off: the fine tiers' fitted model walks out of the window the scan
    # paired some epochs in, so those are paired again, wider
    la, lb = _lock_link(11 * COARSE_BIN_TICKS // 2, 3e-6, 5000, 4)
    want = initial_lock_oracle(la, lb)
    calls = _count_pairings(monkeypatch)
    assert initial_lock(la, lb) == want
    assert len(calls) > LOCK_EPOCHS
    assert min(calls[LOCK_EPOCHS:]) > max(calls[:LOCK_EPOCHS])
    assert abs(want.drift - 3e-6) < 1e-9


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

"""Clock recovery and tracking between the two stations.

The remote stream arrives with an unknown offset (bounded by the coarse
time-of-day agreement, well under one epoch) and a slow linear drift. Lock
proceeds in tiers:

  1. circular FFT cross-correlation of epoch-folded streams at 2.048 us
     bins pins the offset to a couple of coarse bins;
  2. a discrete drift-candidate scan picks the slope that makes the pooled
     residual histogram sharpest (a linear drift smears any single-window
     histogram, so it must be taken out before fine binning);
  3. per-epoch residual histograms, first at 64 ns then twice at the 2 ns
     grid, each followed by a straight-line fit of offset and drift.

After lock, accepted near-coincidences feed a damped servo that tracks the
residual drift for the rest of the session.

Sign convention: a positive offset means the remote clock reads ahead of
the local clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    COARSE_BIN_TICKS,
    COARSE_BINS_PER_EPOCH,
    EPOCH_TICKS,
    FINE_BIN_TICKS,
    ContractViolation,
    window_pairs,
)

SIGNIFICANCE_THRESHOLD = 6.0
SERVO_GAIN = 0.5
DRIFT_SANITY = 1e-4
# servo only trusts a drift estimate from a decent baseline
_SERVO_MIN_SAMPLES = 8
_SERVO_MIN_SPAN = EPOCH_TICKS // 8
# middle lock tier: 64 ns bins, searching +-3 coarse bins around the FFT peak
_MID_BIN_TICKS = 512
_MID_WINDOW = 3 * COARSE_BIN_TICKS
_FINE_WINDOW = 1024
# drift scan: covers a generous oscillator disagreement at steps small
# enough that the residual walk per epoch stays under one 64 ns bin
_SCAN_LIMIT = 1.3e-6
_SCAN_STEPS = 27
_SCAN_BLOCK = 1 << 13
# remote epochs the lock spans; the matcher holds this many packets for it
LOCK_EPOCHS = 8


class NoPeakError(RuntimeError):
    """Cross-correlation shows no significant peak; streams look unrelated."""


@dataclass(frozen=True)
class ClockModel:
    """local_time = remote_time - offset - drift * (remote_time - reference)."""

    offset: float = 0.0
    drift: float = 0.0
    reference_epoch: int = 0

    def __post_init__(self):
        if abs(self.drift) >= DRIFT_SANITY:
            raise ContractViolation(f"drift {self.drift} beyond sanity bound")

    @property
    def reference_ticks(self) -> int:
        return self.reference_epoch * EPOCH_TICKS


@dataclass(frozen=True)
class CorrelationResult:
    significance: float
    offset_ticks: float


def apply_model(model: ClockModel, times):
    """Map remote timestamps into the local frame, rounding to the tick.

    Negative results clamp to 0.
    """
    t = np.asarray(times, dtype=np.float64)
    out = np.rint(t - model.offset - model.drift * (t - model.reference_ticks))
    return np.maximum(out, 0.0).astype(np.int64)


def _dedrift(times: np.ndarray, drift: float, reference: float) -> np.ndarray:
    if drift == 0.0:
        return times
    t = times.astype(np.float64)
    return times - np.rint(drift * (t - reference)).astype(np.int64)


def _fold_histogram(times: np.ndarray) -> np.ndarray:
    bins = (times % EPOCH_TICKS) >> 14
    return np.bincount(bins, minlength=COARSE_BINS_PER_EPOCH).astype(np.float64)


def coarse_correlate(local_times: np.ndarray, remote_times: np.ndarray) -> CorrelationResult:
    """Circular FFT cross-correlation of epoch-folded streams at 2.048 us bins.

    A positive offset means the remote clock is ahead. Raises NoPeakError
    when the best bin does not stand out of the correlation noise.
    """
    local_times = np.asarray(local_times, dtype=np.int64)
    remote_times = np.asarray(remote_times, dtype=np.int64)
    if local_times.size == 0 or remote_times.size == 0:
        raise NoPeakError("empty input stream")
    hl = _fold_histogram(local_times)
    hr = _fold_histogram(remote_times)
    corr = np.fft.irfft(np.conj(np.fft.rfft(hl)) * np.fft.rfft(hr), n=COARSE_BINS_PER_EPOCH)
    peak = int(np.argmax(corr))
    mean = float(corr.mean())
    std = float(corr.std())
    significance = (float(corr[peak]) - mean) / std if std > 0 else 0.0
    if significance < SIGNIFICANCE_THRESHOLD:
        raise NoPeakError(f"no coarse peak (significance {significance:.2f})")
    signed = peak - COARSE_BINS_PER_EPOCH if peak >= COARSE_BINS_PER_EPOCH // 2 else peak
    return CorrelationResult(significance, float(signed * COARSE_BIN_TICKS))


def _delta_histogram(local_times, remote_times, center: float, half_window: int,
                     bin_ticks: int):
    """Histogram of (remote - center - local) over +-half_window at bin_ticks."""
    shifted = np.asarray(remote_times, dtype=np.int64) - int(round(center))
    _, _, deltas = window_pairs(local_times, shifted, half_window)
    deltas = deltas[(deltas >= -half_window) & (deltas < half_window)]
    hist = np.bincount((deltas + half_window) // bin_ticks,
                       minlength=(2 * half_window) // bin_ticks)
    return hist, deltas


def _peak_significance(hist: np.ndarray, exclude: int = 2) -> tuple[int, float]:
    """Peak bin and its height over the Poisson background.

    Background statistics exclude the peak neighborhood (a real ridge would
    otherwise inflate its own noise estimate), and the noise floor is kept
    at one count so sparse histograms cannot manufacture significance.
    """
    peak = int(np.argmax(hist))
    mask = np.ones(hist.size, dtype=bool)
    mask[max(0, peak - exclude) : peak + exclude + 1] = False
    bg = hist[mask]
    mean = float(bg.mean()) if bg.size else 0.0
    sigma = max(1.0, np.sqrt(mean)) if bg.size else 1.0
    return peak, (float(hist[peak]) - mean) / sigma


def fine_correlate(local_times: np.ndarray, remote_times: np.ndarray,
                   coarse_offset: float, half_window: int = COARSE_BIN_TICKS,
                   bin_ticks: int = FINE_BIN_TICKS) -> CorrelationResult:
    """Refine a known coarse offset on the 2 ns grid.

    Builds the pairwise-difference histogram within +-half_window of the
    coarse estimate; the returned offset adds a centroid over the peak bin
    and its neighbors, so the combined estimate is good to about a bin.
    """
    local_times = np.asarray(local_times, dtype=np.int64)
    hist, deltas = _delta_histogram(local_times, remote_times,
                                    coarse_offset, half_window, bin_ticks)
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


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least squares y = a + b x; returns (a, b)."""
    if x.size == 1:
        return float(y[0]), 0.0
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = float((dx * dx).sum())
    if denom == 0.0:
        return float(ym), 0.0
    b = float((dx * (y - ym)).sum()) / denom
    return float(ym - b * xm), b


def _drift_histograms(local_times, remote_times, offset: float, reference: float):
    """Drift candidates and each one's de-drifted residual histogram on the
    mid-tier grid.

    Each remote epoch is paired with the local stream once, inside the mid
    window widened by the largest correction any candidate makes in that
    epoch. Every candidate's histogram is then binned from those pairs'
    de-drifted residuals, so it counts exactly the pairs a search of the mid
    window at that drift would find. All candidates are binned by one
    bincount over (candidate, bin) per block of _SCAN_BLOCK pairs, which
    keeps the (candidate, pair) array small; each candidate's row has a
    discard bin at either end for residuals outside the window.
    """
    candidates = np.linspace(-_SCAN_LIMIT, _SCAN_LIMIT, _SCAN_STEPS)
    n_bins = 2 * _MID_WINDOW // _MID_BIN_TICKS
    row = n_bins + 2
    row_base = (np.arange(_SCAN_STEPS) * row + 1)[:, None]
    counts = np.zeros(_SCAN_STEPS * row, dtype=np.int64)
    remote_times = np.asarray(remote_times, dtype=np.int64)
    cuts = np.flatnonzero(np.diff(remote_times >> 32)) + 1
    for chunk in np.split(remote_times, cuts):
        tau = chunk.astype(np.float64) - reference
        widen = math.ceil(_SCAN_LIMIT * float(np.abs(tau).max(initial=0.0)))
        _, r_idx, base = window_pairs(local_times, chunk - int(round(offset)),
                                      _MID_WINDOW + widen)
        tau = tau[r_idx]
        base += _MID_WINDOW
        for lo in range(0, base.size, _SCAN_BLOCK):
            # float64 holds these integer residuals exactly, and scaling by
            # a power of two then flooring bins them as integer division would
            res = np.multiply(candidates[:, None], tau[None, lo:lo + _SCAN_BLOCK])
            np.rint(res, out=res)
            np.subtract(base[lo:lo + _SCAN_BLOCK], res, out=res)
            res *= 1.0 / _MID_BIN_TICKS
            np.floor(res, out=res)
            np.clip(res, -1, n_bins, out=res)
            res += row_base
            counts += np.bincount(res.astype(np.intp).ravel(),
                                  minlength=counts.size)
    return candidates, counts.reshape(_SCAN_STEPS, row)[:, 1:-1]


def _scan_drift(local_times, remote_times, offset: float, reference: float) -> float:
    """Pick the drift candidate whose de-drifted residual histogram is sharpest;
    the first one on a tie."""
    candidates, hists = _drift_histograms(local_times, remote_times, offset, reference)
    return float(candidates[int(np.argmax(hists.max(axis=1)))])


def initial_lock(local_times: np.ndarray, remote_times: np.ndarray) -> ClockModel:
    """Acquire offset and drift from the first LOCK_EPOCHS remote epochs.

    Coarse FFT peak on the first two remote epochs, drift-candidate scan
    over the whole lock span, then per-epoch histogram peaks at 64 ns and
    2 ns bins, each tier ending in a least-squares (offset, drift) fit.
    The model reference is the first remote epoch seen.
    """
    local_times = np.asarray(local_times, dtype=np.int64)
    remote_times = np.asarray(remote_times, dtype=np.int64)
    if local_times.size == 0 or remote_times.size == 0:
        raise NoPeakError("empty input stream")
    # The coarse search resolves offsets within half an epoch, so only local
    # events within one epoch of the remote span can be partners; trimming
    # keeps the correlation background from drowning the peak on long runs.
    local_times = local_times[
        np.searchsorted(local_times, int(remote_times[0]) - EPOCH_TICKS):
        np.searchsorted(local_times, int(remote_times[-1]) + EPOCH_TICKS)]

    first_epoch = int(remote_times[0] >> 32)
    last_epoch = int(remote_times[-1] >> 32)
    epochs = list(range(first_epoch, min(last_epoch, first_epoch + LOCK_EPOCHS - 1) + 1))
    ref = float(first_epoch * EPOCH_TICKS)
    span_hi = (epochs[-1] + 1) * EPOCH_TICKS
    remote_times = remote_times[: np.searchsorted(remote_times, span_hi, side="left")]

    # tier 1: coarse fold of the first two epochs (drift cannot smear those)
    coarse_cut = int(np.searchsorted(remote_times, (first_epoch + 2) * EPOCH_TICKS, "left"))
    coarse = coarse_correlate(local_times, remote_times[: max(coarse_cut, 1)])
    offset = coarse.offset_ticks

    # tier 2: drift scan over the full lock span
    drift = _scan_drift(local_times, remote_times, offset, ref)

    # tiers 3..5: per-epoch peaks on shrinking grids, straight-line fit each
    for half, bin_ticks in ((_MID_WINDOW, _MID_BIN_TICKS),
                            (_FINE_WINDOW, FINE_BIN_TICKS),
                            (_FINE_WINDOW, FINE_BIN_TICKS)):
        centers, measured = [], []
        for e in epochs:
            lo, hi = e * EPOCH_TICKS, (e + 1) * EPOCH_TICKS
            a = np.searchsorted(remote_times, lo, side="left")
            b = np.searchsorted(remote_times, hi, side="left")
            if b - a < 8:
                continue
            seg = remote_times[a:b]
            flat = _dedrift(seg, drift, ref)
            try:
                res = fine_correlate(local_times, flat, offset, half, bin_ticks)
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


def servo_update(model: ClockModel, sample_times, sample_deltas) -> tuple[ClockModel, bool]:
    """One damped correction from an epoch's near-coincidence residuals.

    sample_times are remote-frame times of servo-window matches, deltas are
    corrected-remote minus local. Fits delta = a + b tau (tau measured from
    the model reference) and applies half of each term; drift only moves
    when the epoch gave enough samples over enough baseline. With no
    samples the model is returned unchanged and the starvation flag set.
    """
    t = np.asarray(sample_times, dtype=np.float64)
    d = np.asarray(sample_deltas, dtype=np.float64)
    if t.size == 0:
        return model, True
    tau = t - model.reference_ticks
    span = float(tau.max() - tau.min()) if t.size > 1 else 0.0
    if t.size >= _SERVO_MIN_SAMPLES and span >= _SERVO_MIN_SPAN:
        a, b = _fit_line(tau, d)
        new_drift = model.drift + SERVO_GAIN * b
    else:
        a = float(d.mean())
        new_drift = model.drift
    updated = ClockModel(
        offset=model.offset + SERVO_GAIN * a,
        drift=new_drift,
        reference_epoch=model.reference_epoch,
    )
    return updated, False

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


def _fold_histogram(times: np.ndarray) -> np.ndarray:
    bins = (times % EPOCH_TICKS) >> 14
    return np.bincount(bins, minlength=COARSE_BINS_PER_EPOCH).astype(np.float64)


def coarse_correlate(local_times: np.ndarray, remote_times: np.ndarray) -> CorrelationResult:
    """Circular FFT cross-correlation of epoch-folded streams at 2.048 us bins.

    A positive offset means the remote clock is ahead. Raises NoPeakError
    when the best bin does not stand out of the correlation noise (none, if
    a side is empty). initial_lock converts and checks its arrays.
    """
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


def _residual_peak(residuals: np.ndarray, half_window: int,
                   bin_ticks: int) -> CorrelationResult:
    """Peak of the residuals in [-half_window, half_window) at bin_ticks:
    its height over the Poisson background in sigmas, and the mean residual
    over it and its neighbor bins. The background leaves out the peak and
    two bins either side (a real ridge would inflate its own noise), and its
    noise floor is one count so sparse histograms cannot manufacture
    significance. NoPeakError when the window is empty or the peak is low.
    """
    deltas = residuals[(residuals >= -half_window) & (residuals < half_window)]
    hist = np.bincount((deltas + half_window) // bin_ticks,
                       minlength=(2 * half_window) // bin_ticks)
    if not hist.any():
        raise NoPeakError("no pairs inside the window")
    peak = int(np.argmax(hist))
    mean = float(np.delete(hist, np.s_[max(0, peak - 2):peak + 3]).mean())
    sig = (float(hist[peak]) - mean) / max(1.0, np.sqrt(mean))
    if sig < SIGNIFICANCE_THRESHOLD:
        raise NoPeakError(f"no peak (significance {sig:.2f})")
    near = deltas[(deltas >= (peak - 1) * bin_ticks - half_window)
                  & (deltas < (peak + 2) * bin_ticks - half_window)]
    return CorrelationResult(sig, float(near.mean()))


def _fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least squares y = a + b x; returns (a, b), b = 0 if x is constant."""
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    denom = float((dx * dx).sum())
    if denom == 0.0:
        return float(ym), 0.0
    b = float((dx * (y - ym)).sum()) / denom
    return float(ym - b * xm), b


@dataclass
class _LockEpoch:
    """A remote lock epoch's pairs with the local stream, ordered by remote
    event (counts[i] of them for times[i]): base = remote - shift - local,
    within +-window. The lock holds every epoch's pairs at once, so both
    take the narrowest integer type (a window is far below 2**31 ticks).
    """

    times: np.ndarray
    window: int = 0
    counts: np.ndarray | None = None
    base: np.ndarray | None = None

    def pair(self, local_times: np.ndarray, shift: int, window: int) -> None:
        self.window = window
        r_idx, base = window_pairs(local_times, self.times - shift, window)[1:]
        counts = np.bincount(r_idx, minlength=self.times.size)
        self.counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))
        self.base = base.astype(np.int32)


def _pair_epochs(local_times, remote_times, shift: int, reference: float) -> list[_LockEpoch]:
    """Pair each non-empty remote epoch with the local stream once.

    The window is the mid window widened by the largest correction any
    drift candidate makes in that epoch, so it holds every pair the drift
    scan and the mid tier look for.
    """
    epochs = []
    cuts = np.flatnonzero(np.diff(remote_times >> 32)) + 1
    for chunk in np.split(remote_times, cuts):
        ep = _LockEpoch(chunk)
        tau = max(abs(int(chunk[0]) - reference), abs(int(chunk[-1]) - reference))
        ep.pair(local_times, shift, _MID_WINDOW + math.ceil(_SCAN_LIMIT * tau))
        epochs.append(ep)
    return epochs


def _drift_histograms(epochs: list[_LockEpoch], reference: float):
    """Drift candidates and each one's de-drifted residual histogram on the
    mid-tier grid, pooled over the epochs' pairs.

    Each candidate's histogram counts exactly the pairs a search of the mid
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
    for ep in epochs:
        tau = (ep.times.astype(np.float64) - reference).repeat(ep.counts)
        base = ep.base + _MID_WINDOW
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


def initial_lock(local_times: np.ndarray, remote_times: np.ndarray) -> ClockModel:
    """Acquire offset and drift from the first LOCK_EPOCHS remote epochs.

    Coarse FFT peak on the first two remote epochs, drift-candidate scan
    over the whole lock span, then per-epoch histogram peaks at 64 ns and
    2 ns bins, each tier ending in a least-squares (offset, drift) fit.
    Each epoch is paired with the local stream once, around the coarse
    offset, and the scan and every tier bin those pairs; an epoch is paired
    again, wider, only if a fitted model moves a tier's window past it.
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
    n_epochs = min(last_epoch - first_epoch + 1, LOCK_EPOCHS)
    ref = float(first_epoch * EPOCH_TICKS)
    span_hi = (first_epoch + n_epochs) * EPOCH_TICKS
    remote_times = remote_times[: np.searchsorted(remote_times, span_hi, side="left")]

    # tier 1: coarse fold of the first two epochs (drift cannot smear those)
    coarse_cut = int(np.searchsorted(remote_times, (first_epoch + 2) * EPOCH_TICKS, "left"))
    offset = coarse_correlate(local_times, remote_times[: max(coarse_cut, 1)]).offset_ticks
    shift = int(round(offset))
    epochs = _pair_epochs(local_times, remote_times, shift, ref)

    # tier 2: drift scan over the full lock span
    candidates, hists = _drift_histograms(epochs, ref)
    drift = float(candidates[int(np.argmax(hists.max(axis=1)))])

    # tiers 3..5: per-epoch peaks on shrinking grids, straight-line fit each
    for half, bin_ticks in ((_MID_WINDOW, _MID_BIN_TICKS),
                            (_FINE_WINDOW, FINE_BIN_TICKS),
                            (_FINE_WINDOW, FINE_BIN_TICKS)):
        centers, measured = [], []
        for ep in epochs:
            if ep.times.size < 8:
                continue
            tau = ep.times.astype(np.float64) - ref
            # the de-drift correction plus the rounded offset's move since pairing
            moved = np.rint(drift * tau).astype(np.int64) + (int(round(offset)) - shift)
            need = int(np.abs(moved).max()) + half
            if need > ep.window:
                ep.pair(local_times, shift, need)
            try:
                res = _residual_peak(ep.base - moved.repeat(ep.counts), half, bin_ticks)
            except NoPeakError:
                continue
            centers.append(float(ep.times.mean()) - ref)
            measured.append(offset + res.offset_ticks)
        if len(centers) < max(1, n_epochs // 2):
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

"""Coincidence identification, accidental monitoring, and basis sifting.

Runs on the high-rate side against the drift-corrected remote stream.
Matching is greedy by closeness: among all candidate pairings inside the
servo window, repeatedly commit the unused pair with the smallest |delta|
(ties broken by local then remote index), so the result is deterministic
and directly checkable against a brute-force oracle. Delta convention:
corrected remote time minus local time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ContractViolation, detector_basis, detector_bit, window_pairs

ACCEPT_HALF_TICKS = 14       # 1.75 ns
SERVO_HALF_TICKS = 30        # 3.75 ns
ACCIDENTAL_CENTER_TICKS = 160  # 20 ns displaced monitor window
ACCIDENTAL_HALF_TICKS = 15


@dataclass(frozen=True)
class WindowConfig:
    accept_half_width: int = ACCEPT_HALF_TICKS
    servo_half_width: int = SERVO_HALF_TICKS
    accidental_center: int = ACCIDENTAL_CENTER_TICKS
    accidental_half_width: int = ACCIDENTAL_HALF_TICKS

    def __post_init__(self):
        if self.accept_half_width > self.servo_half_width:
            raise ContractViolation("acceptance window wider than servo window")
        if self.accidental_center - self.accidental_half_width <= self.servo_half_width:
            raise ContractViolation("accidental window overlaps servo window")


@dataclass
class MatchResult:
    """Greedy pairing of one processing slice.

    Arrays are parallel and ordered by local time; accept_mask marks the
    subset inside the acceptance window (the rest only steer the servo).
    """

    local_index: np.ndarray
    remote_index: np.ndarray
    delta: np.ndarray
    accept_mask: np.ndarray


def match(local_times: np.ndarray, remote_times: np.ndarray,
          w: WindowConfig = WindowConfig()) -> MatchResult:
    """Pair events of two sorted streams, nearest |delta| first.

    Candidates are all pairs with |delta| <= servo half width; each event
    joins at most one pair. Because candidates commit strictly in order of
    closeness, restricting the result to the acceptance window afterwards
    equals running the same pairing inside that window alone. Both inputs
    come sorted: EventStream times, and apply_model of a packet's times.
    """
    local_times = np.asarray(local_times, dtype=np.int64)
    remote_times = np.asarray(remote_times, dtype=np.int64)
    l_idx, r_idx, delta = window_pairs(local_times, remote_times,
                                       w.servo_half_width)
    if r_idx.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return MatchResult(empty, empty, empty, np.empty(0, dtype=bool))

    # A candidate that shares neither of its events with another candidate
    # is committed whatever the order, so all of those go in at once; only
    # the contested rest, which shares no event with them, runs greedily.
    alone = (np.bincount(l_idx)[l_idx] == 1) & (np.bincount(r_idx)[r_idx] == 1)
    contested = np.flatnonzero(~alone)
    order = contested[np.lexsort((r_idx[contested], l_idx[contested],
                                  np.abs(delta[contested])))]
    used_l, used_r = set(), set()
    picked = []
    for c, li, ri in zip(order.tolist(), l_idx[order].tolist(),
                         r_idx[order].tolist()):
        if li in used_l or ri in used_r:
            continue
        used_l.add(li)
        used_r.add(ri)
        picked.append(c)
    picked = np.concatenate([np.flatnonzero(alone),
                             np.array(picked, dtype=np.int64)])
    li, ri, dl = l_idx[picked], r_idx[picked], delta[picked]
    by_local = np.argsort(li, kind="stable")
    li, ri, dl = li[by_local], ri[by_local], dl[by_local]
    return MatchResult(
        local_index=li,
        remote_index=ri,
        delta=dl,
        accept_mask=np.abs(dl) <= w.accept_half_width,
    )


def count_accidentals(local_times: np.ndarray, remote_times: np.ndarray,
                      w: WindowConfig = WindowConfig()) -> int:
    """Pairs falling in the displaced monitor window, delta in
    [center-half, center+half]; no exclusivity, every pair counts."""
    local_times = np.asarray(local_times, dtype=np.int64)
    remote_times = np.asarray(remote_times, dtype=np.int64)
    lo_b = remote_times - (w.accidental_center + w.accidental_half_width)
    hi_b = remote_times - (w.accidental_center - w.accidental_half_width)
    lo = np.searchsorted(local_times, lo_b, side="left")
    hi = np.searchsorted(local_times, hi_b, side="right")
    return int((hi - lo).sum())


@dataclass
class SiftResult:
    """Same-basis accepted matches in canonical (ascending remote) order."""

    bits: np.ndarray           # local outcome bits
    remote_index: np.ndarray
    accepted_raw: int = 0      # accepted matches before basis comparison


def sift(result: MatchResult, local_detectors: np.ndarray,
         remote_basis_flags: np.ndarray) -> SiftResult:
    """Keep accepted matches where both stations used the same basis.

    Local bits come from the local detector record; the reply sent back
    names the kept remote indices, from which the remote side reconstructs
    its own bits (flipped, since same-basis outcomes anti-correlate).
    """
    li = result.local_index[result.accept_mask]
    ri = result.remote_index[result.accept_mask]
    det = np.asarray(local_detectors, dtype=np.uint8)[li]
    same = detector_basis(det) == np.asarray(remote_basis_flags,
                                             dtype=np.uint8)[ri]
    ri, det = ri[same], det[same]
    order = np.argsort(ri, kind="stable")
    return SiftResult(
        bits=detector_bit(det).astype(np.uint8)[order],
        remote_index=ri[order],
        accepted_raw=int(result.accept_mask.sum()),
    )


def remote_bits_from_reply(detectors: np.ndarray, kept_indices: np.ndarray) -> np.ndarray:
    """Remote-side key bits for the kept events: own outcome bit, flipped."""
    det = np.asarray(detectors, dtype=np.uint8)
    return (detector_bit(det[kept_indices]) ^ 1).astype(np.uint8)

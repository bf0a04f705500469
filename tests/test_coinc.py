from collections import Counter

import numpy as np
import pytest

from entkd.coinc import (MatchResult, WindowConfig, count_accidentals, match,
                         remote_bits_from_reply, sift)
from entkd.core import ContractViolation


def brute_force_match(local, remote, half):
    """Reference pairing: smallest |delta| first, ties by local then remote."""
    cands = []
    for li, lt in enumerate(local):
        for ri, rt in enumerate(remote):
            d = int(rt) - int(lt)
            if abs(d) <= half:
                cands.append((abs(d), li, ri, d))
    cands.sort()
    used_l, used_r, out = set(), set(), []
    for _, li, ri, d in cands:
        if li in used_l or ri in used_r:
            continue
        used_l.add(li)
        used_r.add(ri)
        out.append((li, ri, d))
    out.sort()
    return out


def brute_force_accidentals(local, remote, center, half):
    n = 0
    for lt in local:
        for rt in remote:
            if center - half <= int(rt) - int(lt) <= center + half:
                n += 1
    return n


def test_window_validation():
    with pytest.raises(ContractViolation):
        WindowConfig(accept_half_width=40, servo_half_width=30)
    with pytest.raises(ContractViolation):
        WindowConfig(accidental_center=40, accidental_half_width=15)


def test_match_simple():
    w = WindowConfig()
    local = np.array([100, 200, 300], dtype=np.int64)
    remote = np.array([105, 230, 290], dtype=np.int64)
    res = match(local, remote, w)
    # delta 30 sits on the servo boundary (matched, steers the servo) but
    # outside the 14-tick acceptance window
    assert list(res.local_index) == [0, 1, 2]
    assert list(res.remote_index) == [0, 1, 2]
    assert list(res.delta) == [5, 30, -10]
    assert list(res.accept_mask) == [True, False, True]


def test_match_exclusivity_prefers_closest():
    # one remote event between two locals: the closer local wins
    local = np.array([100, 120], dtype=np.int64)
    remote = np.array([108], dtype=np.int64)
    res = match(local, remote)
    assert list(res.local_index) == [0]
    assert list(res.delta) == [8]
    # a second remote then pairs with the leftover local
    remote = np.array([108, 112], dtype=np.int64)
    res = match(local, remote)
    assert list(res.local_index) == [0, 1]
    assert list(res.remote_index) == [0, 1]


def test_match_oracle_random():
    rng = np.random.default_rng(12)
    w = WindowConfig()
    for trial in range(200):
        n_l = int(rng.integers(0, 40))
        n_r = int(rng.integers(0, 40))
        span = int(rng.integers(100, 2000))
        local = np.sort(rng.integers(0, span, n_l)).astype(np.int64)
        remote = np.sort(rng.integers(0, span, n_r)).astype(np.int64)
        res = match(local, remote, w)
        expect = brute_force_match(local, remote, w.servo_half_width)
        got = list(zip(res.local_index.tolist(), res.remote_index.tolist(),
                       res.delta.tolist()))
        assert got == expect, f"trial {trial}"
        # zip above stops at the shorter array; each must hold every pair
        assert res.local_index.size == res.remote_index.size == len(expect)
        acc = brute_force_accidentals(local, remote, w.accidental_center,
                                      w.accidental_half_width)
        assert count_accidentals(local, remote, w) == acc


def _contested(local, remote, half):
    """How many servo-window candidates share an event with another."""
    cands = [(li, ri) for li, lt in enumerate(local)
             for ri, rt in enumerate(remote) if abs(int(rt) - int(lt)) <= half]
    per_l = Counter(li for li, _ in cands)
    per_r = Counter(ri for _, ri in cands)
    return sum(per_l[li] > 1 or per_r[ri] > 1 for li, ri in cands)


def _isolated_pairs(rng, n):
    """Pairs and lone events, each at least 100 ticks from any other."""
    base = np.cumsum(rng.integers(100, 400, n))
    local, remote = [], []
    for t in base.tolist():
        kind = int(rng.integers(0, 4))
        if kind < 2:
            local.append(t)
            remote.append(t + int(rng.integers(-30, 31)))
        elif kind == 2:
            local.append(t)
        else:
            remote.append(t)
    return local, remote


def test_match_oracle_on_uncontested_and_contested_streams():
    # isolated pairs commit in bulk; dense clumps (several locals inside
    # one remote's window, and the reverse) need the greedy order
    rng = np.random.default_rng(91)
    w = WindowConfig()
    half = w.servo_half_width
    for trial in range(40):
        local, remote = _isolated_pairs(rng, int(rng.integers(20, 120)))
        assert _contested(local, remote, half) == 0
        streams = [(local, remote)]
        local, remote = list(local), list(remote)
        end = max(local + remote + [0])
        for j in range(int(rng.integers(1, 6))):
            # one event at t, and two to five on the other side within
            # its window, so each of those is a candidate for it
            t = end + 200 * (j + 1)
            few = [t]
            many = (t + rng.integers(-half, half + 1,
                                     int(rng.integers(2, 6)))).tolist()
            if j % 2:
                local += many
                remote += few
            else:
                local += few
                remote += many
        streams.append((local, remote))
        assert _contested(local, remote, half) > 0
        for lo, re in streams:
            lo = np.sort(np.array(lo, dtype=np.int64))
            re = np.sort(np.array(re, dtype=np.int64))
            res = match(lo, re, w)
            got = list(zip(res.local_index.tolist(),
                           res.remote_index.tolist(), res.delta.tolist()))
            assert got == brute_force_match(lo, re, half), f"trial {trial}"
            assert np.array_equal(res.accept_mask,
                                  np.abs(res.delta) <= w.accept_half_width)


def test_match_restriction_property():
    # restricting servo-window matches to the acceptance window equals
    # matching within the acceptance window directly
    rng = np.random.default_rng(77)
    w = WindowConfig()
    narrow = WindowConfig(servo_half_width=w.accept_half_width)
    for _ in range(50):
        local = np.sort(rng.integers(0, 3000, 60)).astype(np.int64)
        remote = np.sort(rng.integers(0, 3000, 60)).astype(np.int64)
        wide = match(local, remote, w)
        tight = match(local, remote, narrow)
        keep = wide.accept_mask
        assert np.array_equal(wide.local_index[keep], tight.local_index)
        assert np.array_equal(wide.remote_index[keep], tight.remote_index)
        assert np.array_equal(wide.delta[keep], tight.delta)


def test_match_determinism_on_ties():
    local = np.array([100, 110], dtype=np.int64)
    remote = np.array([105], dtype=np.int64)
    res = match(local, remote)
    # |delta| ties at 5; lower local index wins
    assert list(res.local_index) == [0]
    assert list(res.delta) == [5]


def test_accidentals_displaced_window():
    w = WindowConfig()
    local = np.array([1000], dtype=np.int64)
    # remote exactly center above local counts; borders inclusive
    c, h = w.accidental_center, w.accidental_half_width
    for d, expect in ((c, 1), (c - h, 1), (c + h, 1), (c - h - 1, 0),
                      (c + h + 1, 0), (0, 0), (-c, 0)):
        remote = np.array([1000 + d], dtype=np.int64)
        assert count_accidentals(local, remote, w) == expect


def test_sift_same_basis_and_order():
    res = MatchResult(
        local_index=np.array([0, 1, 2, 3], dtype=np.int64),
        remote_index=np.array([3, 2, 1, 0], dtype=np.int64),
        delta=np.array([1, -2, 0, 20], dtype=np.int64),
        accept_mask=np.array([True, True, True, False]),
    )
    local_det = np.array([0, 3, 1, 2], dtype=np.uint8)   # bases 0,1,0,1
    remote_flags = np.array([1, 0, 1, 0], dtype=np.uint8)
    out = sift(res, local_det, remote_flags)
    # accepted matches: (l0,r3,b0/f0 same), (l1,r2,b1/f1 same), (l2,r1,b0/f0? )
    # l2 det=1 basis 0 vs r1 flag 0: same. l3 not accepted.
    # canonical order is ascending remote index
    assert list(out.remote_index) == [1, 2, 3]
    assert list(out.bits) == [1, 1, 0]  # det&1 of local dets 1,3,0
    assert out.accepted_raw == 3


def test_remote_bits_flip():
    det = np.array([0, 1, 2, 3], dtype=np.uint8)
    kept = np.array([0, 1, 2, 3], dtype=np.int64)
    # outcome bit is det&1, reported flipped
    assert list(remote_bits_from_reply(det, kept)) == [1, 0, 1, 0]


def test_sifted_bits_anticorrelate_end_to_end():
    # peaked joint distribution: perfectly correlated timestamps, same-basis
    # detectors always anti-correlated => after the remote flip, bits agree
    rng = np.random.default_rng(3)
    n = 500
    t = np.sort(rng.choice(10**7, size=n, replace=False)).astype(np.int64)
    basis = rng.integers(0, 2, n).astype(np.uint8)
    bit_l = rng.integers(0, 2, n).astype(np.uint8)
    det_l = basis * 2 + bit_l
    det_r = basis * 2 + (bit_l ^ 1)
    res = match(t, t)
    out = sift(res, det_l, (det_r >> 1))
    assert out.bits.size == n
    rbits = remote_bits_from_reply(det_r, out.remote_index)
    assert np.array_equal(out.bits, rbits)

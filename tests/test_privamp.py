import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkd.core import ContractViolation
from entkd.privamp import (EtaDomainError, SplitMix64, eve_fraction,
                           expand_seed, final_length, key_digest,
                           toeplitz_compress)

# spot values frozen from an independent high-precision evaluation
EVE_SPOTS = {
    0.054: 0.152878873319,
    0.05:  0.141764124698,
    0.01:  0.0287569444922,
    0.03:  0.085674713472,
    0.08:  0.224249854013,
    0.25:  0.645421097335,
    0.5:   1.0,
}


def naive_toeplitz(bits, seed, m):
    """Direct matrix construction: T[i, j] = s[i - j + r - 1]."""
    r = len(bits)
    s = expand_seed(seed, m + r - 1)
    T = np.empty((m, r), dtype=np.uint8)
    for i in range(m):
        for j in range(r):
            T[i, j] = s[i - j + r - 1]
    return (T @ np.asarray(bits, dtype=np.int64)) % 2


def test_eve_fraction_spot_values():
    for eta, expect in EVE_SPOTS.items():
        assert eve_fraction(eta) == pytest.approx(expect, abs=1e-10), eta


def test_eve_fraction_endpoints_and_domain():
    assert eve_fraction(0.0) == 0.0
    assert eve_fraction(0.5) == 1.0
    with pytest.raises(EtaDomainError):
        eve_fraction(-1e-9)
    with pytest.raises(EtaDomainError):
        eve_fraction(0.5 + 1e-9)


def test_eve_fraction_monotone_and_regime_seam():
    xs = np.linspace(0.0, 0.5, 2001)
    ys = [eve_fraction(float(x)) for x in xs]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    # z crosses 0.5 at eta = (1 - sqrt(3)/2)/2; both branches must agree there
    seam = (1 - math.sqrt(3) / 2) / 2
    for eps in (-1e-12, 0.0, 1e-12):
        lo = eve_fraction(seam + eps)
        assert lo == pytest.approx(eve_fraction(seam), abs=1e-10)


def test_final_length_example():
    # r=5000 at 5.4% measured errors with 1700 disclosed bits
    assert math.ceil(5000 * eve_fraction(0.054)) == 765
    assert final_length(5000, 0.054, 1700) == 2535
    assert final_length(100, 0.25, 30) == 100 - 65 - 30
    assert final_length(100, 0.25, 40) is None  # m = -5, discard
    assert final_length(10, 0.5, 0) is None
    with pytest.raises(ContractViolation):
        final_length(0, 0.05, 0)
    with pytest.raises(ContractViolation):
        final_length(100, 0.05, -1)


def test_splitmix64_reference_vector():
    # published sequence for seed 0
    g = SplitMix64(0)
    assert g.next_word() == 0xE220A8397B1DCDAF
    assert g.next_word() == 0x6E789E6AA1B965F4
    assert g.next_word() == 0x06C45D188009454F
    # bit expansion is MSB-first over the words
    bits = expand_seed(0, 68)
    word = 0xE220A8397B1DCDAF
    expect = [(word >> (63 - i)) & 1 for i in range(64)]
    assert list(bits[:64]) == expect
    assert bits.size == 68


def test_toeplitz_matches_naive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        r = int(rng.integers(1, 128))
        m = int(rng.integers(0, r + 1))
        bits = rng.integers(0, 2, r, dtype=np.uint8)
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        fast = toeplitz_compress(bits, seed, m)
        slow = naive_toeplitz(bits, seed, m)
        assert np.array_equal(fast, slow)


def convolve_toeplitz(bits, seed, m):
    """The hash as one exact integer convolution (np.convolve on int64)."""
    r = len(bits)
    s = expand_seed(seed, m + r - 1)
    conv = np.convolve(s.astype(np.int64), np.asarray(bits, dtype=np.int64))
    return (conv[r - 1 : r - 1 + m] & 1).astype(np.uint8)


@pytest.mark.parametrize("r", [1, 2, 5000, 20000])
def test_toeplitz_fft_matches_convolution(r):
    rng = np.random.default_rng(r)
    for m in sorted({1, max(1, r // 3), r}):
        for bits in (rng.integers(0, 2, r, dtype=np.uint8),
                     np.ones(r, dtype=np.uint8)):
            seed = int(rng.integers(0, 2**64, dtype=np.uint64))
            assert np.array_equal(toeplitz_compress(bits, seed, m),
                                  convolve_toeplitz(bits, seed, m)), (r, m)


def test_toeplitz_refuses_inexact_rounding(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: irfft(*a, **k) + 0.3)
    with pytest.raises(ContractViolation):
        toeplitz_compress(np.ones(64, dtype=np.uint8), 5, 32)


def test_toeplitz_linearity():
    rng = np.random.default_rng(22)
    r, m, seed = 300, 120, 777
    x = rng.integers(0, 2, r, dtype=np.uint8)
    y = rng.integers(0, 2, r, dtype=np.uint8)
    tx = toeplitz_compress(x, seed, m)
    ty = toeplitz_compress(y, seed, m)
    txy = toeplitz_compress(x ^ y, seed, m)
    assert np.array_equal(txy, tx ^ ty)
    zero = toeplitz_compress(np.zeros(r, dtype=np.uint8), seed, m)
    assert not zero.any()


def test_toeplitz_bounds():
    bits = np.ones(10, dtype=np.uint8)
    with pytest.raises(ContractViolation):
        toeplitz_compress(bits, 1, 11)
    with pytest.raises(ContractViolation):
        toeplitz_compress(bits, 1, -1)
    assert toeplitz_compress(bits, 1, 0).size == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**64 - 1), st.data())
def test_toeplitz_seed_and_input_sensitivity(r, seed, data):
    m = data.draw(st.integers(1, r))
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=r,
                                       max_size=r)), dtype=np.uint8)
    out = toeplitz_compress(bits, seed, m)
    assert out.size == m and set(np.unique(out)) <= {0, 1}
    # flipping one input bit flips output wherever the matrix column is 1
    j = data.draw(st.integers(0, r - 1))
    flipped = bits.copy()
    flipped[j] ^= 1
    out2 = toeplitz_compress(flipped, seed, m)
    s = expand_seed(seed, m + r - 1)
    col = np.array([s[i - j + r - 1] for i in range(m)], dtype=np.uint8)
    assert np.array_equal(out ^ out2, col)


def test_universality_smoke():
    # for any fixed nonzero difference d, P_seed[T d = 0] should be close to
    # 2^-m; linearity reduces collision probability to exactly this event
    rng = np.random.default_rng(23)
    r, m = 24, 8
    d = np.zeros(r, dtype=np.uint8)
    d[rng.integers(0, r, 5)] = 1
    if not d.any():
        d[0] = 1
    n = 4000
    hits = 0
    for _ in range(n):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        hits += not toeplitz_compress(d, seed, m).any()
    p = 2.0 ** -m
    sd = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) < 5 * sd


def test_key_digest():
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
    d1 = key_digest(9, bits)
    assert 0 <= d1 < 2**64
    assert d1 == key_digest(9, bits.copy())
    flip = bits.copy()
    flip[3] ^= 1
    assert key_digest(9, flip) != d1
    assert key_digest(8, bits[:8]) != key_digest(9, bits)
    # known FNV-1a property: digest of empty input is the offset basis
    # after mixing the length field only
    assert key_digest(0, np.array([], dtype=np.uint8)) != 0

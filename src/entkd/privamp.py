"""Privacy amplification: knowledge bound, seeded Toeplitz hashing, key digest.

All observed errors are charged to an eavesdropper. A corrected cluster of
r bits with measured error fraction eta and c disclosed parity bits shrinks
to m = r - ceil(r * eve_fraction(eta)) - c final bits; non-positive budgets
discard the cluster. The compression matrix is Toeplitz, generated row by
row from a public 64-bit seed expanded with SplitMix64, so both sides build
the identical matrix from the one seed that crosses the channel.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ContractViolation

_MASK64 = (1 << 64) - 1
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class EtaDomainError(ValueError):
    """Error fraction above 1/2: the bound saturates, discard upstream."""


def eve_fraction(eta: float) -> float:
    """Fraction of a cluster assumed known to an eavesdropper.

    With z = 2 sqrt(eta (1 - eta)):
        0.5 * ((1 + z) log2(1 + z) + (1 - z) log2(1 - z))
    which is 1 - h2((1+z)/2). Monotone from 0 at eta=0 to 1 at eta=0.5.
    Evaluated in two regimes so both endpoints stay accurate: log1p forms
    for small z, and an exact complement w = (1-2 eta)^2 / (1+z) for z
    near 1 (where 1-z itself would cancel badly).
    """
    if not 0.0 <= eta <= 0.5:
        raise EtaDomainError(f"error fraction {eta} outside [0, 0.5]")
    z = min(1.0, 2.0 * math.sqrt(eta * (1.0 - eta)))
    if z < 0.5:
        s = (1.0 + z) * math.log1p(z) + (1.0 - z) * math.log1p(-z)
        return 0.5 * s / math.log(2.0)
    w = (1.0 - 2.0 * eta) ** 2 / (1.0 + z)   # == 1 - z, computed stably
    s = (2.0 - w) * math.log2(2.0 - w)
    if w > 0.0:
        s += w * math.log2(w)
    return 0.5 * s


def final_length(r: int, eta: float, c: int):
    """Final key budget m = r - ceil(r * eve_fraction(eta)) - c, or None
    when the cluster must be discarded (m <= 0)."""
    if r <= 0:
        raise ContractViolation("cluster length must be positive")
    if c < 0:
        raise ContractViolation("disclosed-bit count cannot be negative")
    m = r - math.ceil(r * eve_fraction(eta)) - c
    return m if m > 0 else None


class SplitMix64:
    """Reference SplitMix64 sequence; 64 bits per step, MSB-first bit use."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, n: int) -> np.ndarray:
        """First n bits of the stream as a 0/1 array."""
        n_words = (n + 63) // 64
        words = np.array([self.next_word() for _ in range(n_words)], dtype=np.uint64)
        return np.unpackbits(words.byteswap().view(np.uint8))[:n]


def expand_seed(seed: int, n_bits: int) -> np.ndarray:
    return SplitMix64(seed).bits(n_bits)


def toeplitz_compress(bits: np.ndarray, seed: int, m: int) -> np.ndarray:
    """Hash r input bits to m output bits with a seeded Toeplitz matrix.

    The matrix is T[i, j] = s[i - j + r - 1] over the first m + r - 1 seed
    bits, evaluated as one convolution over GF(2). The integer convolution
    is computed by real FFT and rounded; each term counts at most r ones, so
    float64 lands far inside 1/4 of an integer, and a larger residual is
    refused rather than turned into wrong key bits.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    r = bits.size
    if m < 0 or m > r:
        raise ContractViolation("output length must lie in [0, r]")
    if m == 0:
        return np.empty(0, dtype=np.uint8)
    s = expand_seed(seed, m + r - 1)
    # outputs r-1 .. r+m-2 of the linear convolution; a cyclic length of at
    # least m + r - 1 keeps the wrap-around off them
    n = 1 << (m + r - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(s, n) * np.fft.rfft(bits, n), n)[r - 1 : r - 1 + m]
    counts = np.rint(conv)
    if float(np.abs(conv - counts).max()) > 0.25:
        raise ContractViolation("Toeplitz convolution lost integer precision")
    return (counts.astype(np.int64) & 1).astype(np.uint8)


def key_digest(m: int, bits: np.ndarray) -> int:
    """FNV-1a 64 over the length (u32 LE) and the packed key bits."""
    data = int(m).to_bytes(4, "little") + np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h

"""Classical-channel byte formats.

Three layers live here:

  * TimingPacket: one epoch of detection events, delta-encoded with a Rice
    code plus one basis flag per event (the outcome bit never leaves the
    detector side). A coincidence reply codes its kept indices with the
    same Rice body.
  * Message framing: [u8 tag][u32 length LE][payload] over any reliable
    ordered byte stream.
  * Payload codecs for the small control messages (coincidence replies,
    reconciliation parities, seeds and digests). One BATCH_SEEDS message
    announces a reconciliation batch with each cluster's size and its
    error-correction and compression seeds, one EC_PARITY frame carries a
    section for each cluster of the batch, and one KEY_HASH per station
    lists the digests of the batch's kept keys.

All multi-byte header fields are little-endian. Bit packing is MSB-first
(numpy packbits convention) throughout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from math import log2
from typing import NamedTuple

import numpy as np

from .core import EPOCH_TICKS, ContractViolation, EventStream, detector_basis

RICE_K_MAX = 40
# 2: six-pass reconciliation schedule, end-of-session tail cluster
# 3: timing packet body in sections (unary quotients, remainders, flags)
# 4: batched reconciliation: an EC_PARITY frame holds one section per
#    cluster, an EC_PERMUTE_SEED announces a whole batch
# 5: BATCH_SEEDS (tag 5, was EC_PERMUTE_SEED) carries each cluster's
#    compression seed too; final lengths no longer cross the wire (tag 6
#    is gone), and one KEY_HASH lists every kept cluster's digest
# 6: HELLO is (u16 version, u8 role), without the unused start epoch
# 7: each BATCH_SEEDS record carries its cluster's bit count, so the
#    matcher alone decides where clusters end
# 8: a coincidence reply Rice-codes its kept indices' gaps, as a timing
#    packet codes its deltas
WIRE_VERSION = 8


class DecodeError(ValueError):
    """Malformed bytes on the wire; offset points at the failing byte."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ProtocolError(ValueError):
    """Violation of the message-level protocol (bad tag, oversize, bad state)."""


class MsgType(IntEnum):
    HELLO = 1
    TIMING = 2
    COINC_REPLY = 3
    EC_PARITY = 4
    BATCH_SEEDS = 5
    KEY_HASH = 7
    METRICS = 8
    BYE = 9


@dataclass(frozen=True)
class Message:
    type: MsgType
    payload: bytes = b""


_FRAME = struct.Struct("<BI")
FRAME_HEADER_SIZE = _FRAME.size


def frame(m: Message) -> bytes:
    if len(m.payload) >= 1 << 32:
        raise ProtocolError("payload too large for a u32 length prefix")
    return _FRAME.pack(int(m.type), len(m.payload)) + m.payload


def frame_header(head) -> tuple[MsgType, int]:
    """(type, payload length) from a frame header; an unknown tag is
    refused before any of the payload is read."""
    if len(head) < _FRAME.size:
        raise DecodeError("truncated frame header", len(head))
    tag, length = _FRAME.unpack_from(head)
    try:
        return MsgType(tag), length
    except ValueError:
        raise ProtocolError(f"unknown message tag 0x{tag:02x}") from None


# ---------------------------------------------------------------------------
# timing packets

@dataclass
class TimingPacket:
    """Events of one epoch: absolute first time, positive deltas, basis flags.

    Fields that break this are refused when the packet is built.
    """

    epoch: int
    first_time: int
    deltas: np.ndarray      # int64, length count-1, all > 0
    basis_flags: np.ndarray  # uint8 0/1, length count, 1 = DA basis

    def __post_init__(self):
        self.deltas = np.asarray(self.deltas, dtype=np.int64)
        self.basis_flags = np.asarray(self.basis_flags, dtype=np.uint8)
        if self.count < 1:
            raise ContractViolation("timing packet must hold at least one event")
        if self.deltas.size != self.count - 1:
            raise ContractViolation("delta count must be event count - 1")
        if self.deltas.size and int(self.deltas.min()) <= 0:
            raise ContractViolation("timing deltas must be positive")
        if int(self.basis_flags.max()) > 1:
            raise ContractViolation("basis flags must be 0/1")
        lo = self.epoch * EPOCH_TICKS
        last = self.first_time + int(self.deltas.sum())
        # an event stream's ticks stop below 2**63, and so do a packet's
        if not (0 <= lo <= self.first_time and last < lo + EPOCH_TICKS <= 1 << 63):
            raise ContractViolation("packet events leave their epoch")

    @property
    def count(self) -> int:
        return int(self.basis_flags.size)

    def times(self) -> np.ndarray:
        t = np.empty(self.count, dtype=np.int64)
        t[0] = self.first_time
        if self.count > 1:
            np.cumsum(self.deltas, out=t[1:])
            t[1:] += self.first_time
        return t


def dedupe_ticks(stream: EventStream) -> EventStream:
    """Drop events sharing a tick with a predecessor (a tagger emits one
    timestamp per tick); keeps the first event of each tick. A stream
    with no repeated tick comes back as it is."""
    keep = np.empty(len(stream), dtype=bool)
    keep[:1] = True
    np.not_equal(stream.times[1:], stream.times[:-1], out=keep[1:])
    if keep.all():
        return stream
    return EventStream(stream.times[keep], stream.detectors[keep])


def packetize(stream: EventStream) -> list[TimingPacket]:
    """Split a sorted stream into one packet per non-empty epoch.

    Same-tick duplicates are dropped first so every delta is positive.
    Only the basis is carried; outcome bits stay local.
    """
    clean = dedupe_ticks(stream)
    if len(clean) == 0:
        return []
    times = clean.times
    flags = detector_basis(clean.detectors).astype(np.uint8)
    epochs = times >> 32
    cuts = np.flatnonzero(np.diff(epochs)) + 1
    packets = []
    for seg_t, seg_f in zip(np.split(times, cuts), np.split(flags, cuts)):
        packets.append(
            TimingPacket(
                epoch=int(seg_t[0] >> 32),
                first_time=int(seg_t[0]),
                deltas=np.diff(seg_t),
                basis_flags=seg_f,
            )
        )
    return packets


_TIMING_HDR = struct.Struct("<IIQB")
# the weights of a k-bit remainder's bits, MSB first, for each k: floats,
# so that one BLAS matrix product sums them, and exactly, as every
# remainder is below 2**RICE_K_MAX < 2**53
_REM_WEIGHTS = [2.0 ** np.arange(k - 1, -1, -1) for k in range(RICE_K_MAX + 1)]


def choose_rice_k(deltas: np.ndarray) -> int:
    if deltas.size == 0:
        return 0
    mean = int(deltas.sum()) / deltas.size
    k = int(round(log2(mean))) - 1 if mean >= 1.0 else 0
    return max(0, min(RICE_K_MAX, k))


def _rice_encode(values: np.ndarray, k: int) -> bytes:
    """The Rice body of values >= 1 at parameter k: every quotient
    (value - 1) >> k in unary (q zero bits, then a one), then every k-bit
    remainder (MSB-first), as one bit stream zero-padded to a byte."""
    values = values - 1
    q = values >> k
    n_unary = int(q.sum()) + values.size
    rice_bits = n_unary + values.size * k
    bits = np.zeros(-(-rice_bits // 8) * 8, dtype=np.uint8)
    ends = np.cumsum(q + 1)
    ends -= 1
    bits[ends] = 1
    if k:
        # shift each remainder to the top of its last ceil(k/8) big-endian
        # bytes, whose first k bits are then the remainder, MSB first
        nb = -(-k // 8)
        top = (values << nb * 8 - k).astype(">u8").view(np.uint8)
        bits[n_unary:rice_bits] = np.unpackbits(
            top.reshape(-1, 8)[:, 8 - nb:], axis=1, count=k).ravel()
    return np.packbits(bits).tobytes()


def _rice_decode(bits: np.ndarray, n: int, k: int, limit: int,
                 offset: int) -> np.ndarray:
    """The n values that _rice_encode wrote at parameter k, from its body
    unpacked to bits; the caller has checked that they hold n * (1 + k)
    bits at least, and offset is the body's first byte in the payload.
    Refused: a unary section that leaves no room for the remainders, a
    body a byte or more longer than the values need, nonzero pad bits, and
    quotients whose sum times 2**k reaches limit."""
    end = offset + bits.size // 8
    # the unary section must end where all n*k remainder bits still fit;
    # the bits are 0/1, and numpy finds the ones of a bool array faster
    ends = np.flatnonzero(bits[: bits.size - n * k].view(bool))[:n]
    if ends.size < n:
        raise DecodeError("unary run exceeds buffer", end)
    n_unary = int(ends[-1]) + 1 if n else 0
    rice_bits = n_unary + n * k
    if bits.size - rice_bits >= 8:
        raise DecodeError("payload length disagrees with declared count",
                          offset + -(-rice_bits // 8))
    if np.count_nonzero(bits[rice_bits:]):
        raise DecodeError("nonzero padding after rice data", end - 1)
    # this also keeps q << k in range
    if (n_unary - n) << k >= limit:
        raise DecodeError("implausible unary run", offset)
    q = ends.copy()
    q[1:] -= ends[:-1] + 1
    values = (q << k) + 1
    if k:
        values += (bits[n_unary:rice_bits].reshape(n, k)
                   @ _REM_WEIGHTS[k]).astype(np.int64)
    return values


def encode_timing(p: TimingPacket) -> bytes:
    """Header, then the deltas' Rice body (see _rice_encode), then the
    basis flags zero-padded to a byte."""
    k = choose_rice_k(p.deltas)
    return (_TIMING_HDR.pack(p.epoch, p.count, p.first_time, k)
            + _rice_encode(p.deltas, k) + np.packbits(p.basis_flags).tobytes())


def decode_timing(b: bytes) -> TimingPacket:
    if len(b) < _TIMING_HDR.size:
        raise DecodeError("truncated timing header", len(b))
    epoch, count, first_time, k = _TIMING_HDR.unpack_from(b, 0)
    if count == 0:
        raise DecodeError("timing packet with zero events", 4)
    if k > RICE_K_MAX:
        raise DecodeError(f"rice parameter {k} out of range", 16)
    n = count - 1
    rice_end = 8 * (len(b) - (count + 7) // 8 - _TIMING_HDR.size)
    # every delta costs at least 1+k bits and every event one flag bit, so an
    # implausible count is rejected before any allocation sized from it
    if rice_end < n * (1 + k):
        raise DecodeError("payload too short for declared event count", 4)
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8,
                                       offset=_TIMING_HDR.size))
    # the quotients alone must fit in an epoch
    deltas = _rice_decode(bits[:rice_end], n, k, EPOCH_TICKS, _TIMING_HDR.size)
    if n and int(deltas.max()) > EPOCH_TICKS:
        raise DecodeError("delta larger than an epoch", _TIMING_HDR.size)
    flags = bits[rice_end:]
    if np.count_nonzero(flags[count:]):
        raise DecodeError("nonzero padding after basis flags", len(b) - 1)
    try:
        return TimingPacket(epoch, first_time, deltas, flags[:count])
    except ContractViolation as exc:
        raise DecodeError(str(exc), _TIMING_HDR.size) from None


# ---------------------------------------------------------------------------
# control payloads

_HELLO = struct.Struct("<HB")
_U32 = struct.Struct("<I")
_REPLY_HDR = struct.Struct("<IIB")
_EC_SECTION = struct.Struct("<IHBI")
# the fixed-size record of each cluster list: (u32 cluster id, u32 bits,
# u64 EC seed, u64 PA seed) in BATCH_SEEDS, (u32 cluster id, u64 digest) in
# KEY_HASH
_RECORD = {MsgType.BATCH_SEEDS: struct.Struct("<IIQQ"),
           MsgType.KEY_HASH: struct.Struct("<IQ")}


def encode_hello(role: int) -> bytes:
    return _HELLO.pack(WIRE_VERSION, role)


def decode_hello(b: bytes) -> tuple[int, int]:
    if len(b) != _HELLO.size:
        raise DecodeError("bad hello size", 0)
    return _HELLO.unpack(b)


def encode_coinc_reply(epoch: int, kept_remote_indices: np.ndarray) -> bytes:
    """[u32 epoch][u32 count][u8 k], then the Rice body (see _rice_encode)
    of the gaps np.diff(indices, prepend=-1), each >= 1."""
    idx = np.asarray(kept_remote_indices, dtype=np.int64)
    gaps = np.diff(idx, prepend=-1)
    if idx.size and int(gaps.min()) < 1:
        raise ContractViolation("kept indices must ascend strictly from 0")
    k = choose_rice_k(gaps)
    return _REPLY_HDR.pack(epoch, idx.size, k) + _rice_encode(gaps, k)


def decode_coinc_reply(b: bytes) -> tuple[int, np.ndarray]:
    if len(b) < _REPLY_HDR.size:
        raise DecodeError("truncated coincidence reply", len(b))
    epoch, n, k = _REPLY_HDR.unpack_from(b, 0)
    # a remainder of more bits could carry an index to 2**32 alone
    if k > 32:
        raise DecodeError(f"rice parameter {k} out of range", 8)
    # every index costs at least 1+k bits, so an implausible count is
    # rejected before any allocation sized from it
    if 8 * (len(b) - _REPLY_HDR.size) < n * (1 + k):
        raise DecodeError("payload too short for declared index count", 4)
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8,
                                       offset=_REPLY_HDR.size))
    idx = np.cumsum(_rice_decode(bits, n, k, 1 << 32, _REPLY_HDR.size))
    idx -= 1
    if n and int(idx[-1]) >= 1 << 32:
        raise DecodeError("kept index reaches 2**32", _REPLY_HDR.size)
    return epoch, idx


class ParitySection(NamedTuple):
    """One cluster's share of an EC_PARITY frame; bits is a list of 0/1
    ints."""

    cluster_id: int
    round_id: int
    counted: bool
    bits: list


def encode_ec_parity(sections) -> bytes:
    """[u32 section count], then per section [u32 cluster][u16 round]
    [u8 counted][u32 bit count], then every section's bits in table order
    as one bit stream zero-padded to a byte."""
    table = b"".join([_EC_SECTION.pack(s.cluster_id, s.round_id, s.counted,
                                       len(s.bits)) for s in sections])
    bits = b"".join([bytes(s.bits) for s in sections])   # a byte per bit
    return (_U32.pack(len(sections)) + table
            + np.packbits(np.frombuffer(bits, dtype=np.uint8)).tobytes())


def decode_ec_parity(b: bytes) -> list[ParitySection]:
    if len(b) < _U32.size:
        raise DecodeError("truncated parity frame", len(b))
    n = _U32.unpack_from(b, 0)[0]
    if n == 0:
        raise DecodeError("parity frame with no sections", 0)
    body = _U32.size + n * _EC_SECTION.size
    if len(b) < body:
        raise DecodeError("truncated section table", len(b))
    bits = np.unpackbits(np.frombuffer(b, dtype=np.uint8,
                                       offset=body)).tolist()
    sections = []
    seen = set()
    pos = 0
    for off in range(_U32.size, body, _EC_SECTION.size):
        cluster, round_id, counted, nbits = _EC_SECTION.unpack_from(b, off)
        if cluster in seen:
            raise DecodeError(f"cluster {cluster} repeated in parity frame", off)
        if counted > 1:
            raise DecodeError(f"counted flag {counted} is not 0/1", off + 6)
        if pos + nbits > len(bits):
            raise DecodeError("section bits overrun the frame body", off + 7)
        seen.add(cluster)
        sections.append(ParitySection(cluster, round_id, counted == 1,
                                      bits[pos:pos + nbits]))
        pos += nbits
    pad = len(bits) - pos
    if pad >= 8:
        raise DecodeError("parity frame longer than its sections", body)
    if b[-1] & ((1 << pad) - 1):
        raise DecodeError("nonzero padding after parity bits", len(b) - 1)
    return sections


def encode_records(mtype: MsgType, records) -> bytes:
    """[u32 count], then one fixed-size record per cluster (see _RECORD),
    each a tuple that starts with the cluster id."""
    rec = _RECORD[mtype]
    return _U32.pack(len(records)) + b"".join(rec.pack(*r) for r in records)


def decode_records(mtype: MsgType, b: bytes) -> list[tuple]:
    rec = _RECORD[mtype]
    if len(b) < _U32.size:
        raise DecodeError(f"truncated {mtype.name}", len(b))
    n = _U32.unpack_from(b, 0)[0]
    if n == 0:
        raise DecodeError(f"{mtype.name} with no clusters", 0)
    if len(b) != _U32.size + n * rec.size:
        raise DecodeError(f"{mtype.name} length mismatch", _U32.size)
    records = list(rec.iter_unpack(b[_U32.size:]))
    seen = set()
    for i, (cluster, *_) in enumerate(records):
        if cluster in seen:
            raise DecodeError(f"cluster {cluster} repeated in {mtype.name}",
                              _U32.size + i * rec.size)
        seen.add(cluster)
    return records

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entkd.core import EPOCH_TICKS, ContractViolation, EventStream
from entkd.wire import (FRAME_HEADER_SIZE, RICE_K_MAX, WIRE_VERSION,
                        DecodeError, Message, MsgType, ParitySection,
                        ProtocolError, TimingPacket, choose_rice_k,
                        decode_coinc_reply, decode_ec_parity, decode_hello,
                        decode_records, decode_timing, dedupe_ticks,
                        encode_coinc_reply, encode_ec_parity, encode_hello,
                        encode_records, encode_timing, frame, frame_header,
                        packetize)


def mk_packet(epoch, first, deltas, flags):
    return TimingPacket(epoch=epoch, first_time=first,
                        deltas=np.asarray(deltas, dtype=np.int64),
                        basis_flags=np.asarray(flags, dtype=np.uint8))


def test_roundtrip_simple():
    p = mk_packet(3, 3 * EPOCH_TICKS + 100, [1, 5, 1000, 7],
                  [1, 0, 1, 1, 0])
    q = decode_timing(encode_timing(p))
    assert q.epoch == p.epoch
    assert q.first_time == p.first_time
    assert np.array_equal(q.deltas, p.deltas)
    assert np.array_equal(q.basis_flags, p.basis_flags)
    assert np.array_equal(q.times(), p.times())


def test_single_event_packet_is_small():
    # header is 17 bytes; a one-event packet adds just one flag byte
    one = TimingPacket(epoch=0, first_time=42,
                       deltas=np.array([], dtype=np.int64),
                       basis_flags=np.array([1], dtype=np.uint8))
    blob = encode_timing(one)
    assert len(blob) == 17 + 1
    q = decode_timing(blob)
    assert q.count == 1 and q.first_time == 42


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**20),
       st.integers(0, EPOCH_TICKS // 4),
       st.lists(st.integers(1, 2**30), max_size=40),
       st.data())
def test_roundtrip_random(epoch, start_off, deltas, data):
    if start_off + sum(deltas) >= EPOCH_TICKS:
        deltas = [1 + d % 1000 for d in deltas]
        start_off = 0
    first = epoch * EPOCH_TICKS + start_off
    flags = data.draw(st.lists(st.integers(0, 1),
                               min_size=len(deltas) + 1,
                               max_size=len(deltas) + 1))
    p = mk_packet(epoch, first, deltas, flags)
    q = decode_timing(encode_timing(p))
    assert q.epoch == p.epoch and q.first_time == p.first_time
    assert np.array_equal(q.deltas, p.deltas)
    assert np.array_equal(q.basis_flags, p.basis_flags)


def test_rice_k_selection():
    assert choose_rice_k(np.array([1, 1, 1], dtype=np.int64)) == 0
    big = np.full(10, 1 << 45, dtype=np.int64)
    assert choose_rice_k(big) == RICE_K_MAX
    mid = np.full(100, 160000, dtype=np.int64)
    # round(log2(160000)) - 1 = 16
    assert choose_rice_k(mid) == 16


def test_golden_packet_bytes():
    # deltas 3, 9, 27: mean 13, so k = round(log2 13) - 1 = 3; the values
    # 2, 8, 26 split into quotients 0, 1, 3 and remainders 2, 0, 2
    p = mk_packet(1, EPOCH_TICKS + 50, [3, 9, 27], [1, 0, 0, 1])
    header = bytes.fromhex("01000000" "04000000" "3200000001000000" "03")
    # unary 1 01 0001, remainders 010 000 010: 1010 0010 | 1000 0010
    body = bytes([0b10100010, 0b10000010])
    flags = bytes([0b10010000])
    blob = header + body + flags
    assert encode_timing(p) == blob
    q = decode_timing(blob)
    assert np.array_equal(q.deltas, p.deltas)
    assert np.array_equal(q.basis_flags, p.basis_flags)


def test_large_packet_roundtrip():
    # thousands of deltas with a wide spread of quotients, at several k
    rng = np.random.default_rng(9)
    base = 5 * EPOCH_TICKS
    for n, top in ((200, 10_000), (600, 10_000), (5000, 100), (3000, 1 << 20)):
        deltas = rng.integers(1, top, size=n).astype(np.int64)
        deltas[::97] *= 40  # long unary runs
        p = mk_packet(5, base + 7, deltas, rng.integers(0, 2, n + 1))
        q = decode_timing(encode_timing(p))
        assert np.array_equal(q.deltas, p.deltas)
        assert np.array_equal(q.basis_flags, p.basis_flags)


def test_timing_validation():
    # a packet that breaks its contract cannot be built
    with pytest.raises(ContractViolation, match="positive"):
        mk_packet(0, 10, [0, 5], [0, 0, 0])
    with pytest.raises(ContractViolation, match="0/1"):
        mk_packet(0, 10, [5], [0, 2])
    with pytest.raises(ContractViolation, match="at least one event"):
        mk_packet(0, 10, [], [])
    with pytest.raises(ContractViolation, match="event count - 1"):
        mk_packet(0, 10, [5, 5], [0, 0])
    # events may not leak past the epoch boundary, nor past the int64 ticks
    # an event stream holds (epoch 2**31 starts at 2**63)
    for epoch, first, deltas in ((0, EPOCH_TICKS - 2, [5]), (1, 10, [5]),
                                 (-1, -5, [1]), (1 << 31, 1 << 63, [1])):
        with pytest.raises(ContractViolation, match="leave their epoch"):
            mk_packet(epoch, first, deltas, [0] * (len(deltas) + 1))
    last = mk_packet((1 << 31) - 1, (1 << 63) - 2, [1], [0, 1])
    assert list(last.times()) == [(1 << 63) - 2, (1 << 63) - 1]
    # so a packet in epoch 2**31 is refused by the decoder too
    blob = bytearray(encode_timing(last))
    blob[:4] = (1 << 31).to_bytes(4, "little")
    blob[8:16] = ((1 << 63) + 5).to_bytes(8, "little")
    with pytest.raises(DecodeError, match="leave their epoch"):
        decode_timing(bytes(blob))


def test_decode_rejects_corruption():
    p = mk_packet(1, EPOCH_TICKS + 50, [3, 9, 27], [1, 0, 0, 1])
    blob = bytearray(encode_timing(p))
    for i in range(len(blob)):
        mutated = bytearray(blob)
        mutated[i] ^= 0x41
        try:
            q = decode_timing(bytes(mutated))
        except DecodeError:
            continue
        # a surviving mutation is a packet, so its events keep their order
        # and their epoch
        t = q.times()
        assert (t[1:] > t[:-1]).all() and (t >> 32 == q.epoch).all()
        assert (q.basis_flags <= 1).all()


def test_decode_rejects_section_damage():
    p = mk_packet(1, EPOCH_TICKS + 50, [3, 9, 27], [1, 0, 0, 1])
    blob = encode_timing(p)
    head, rice, flags = blob[:17], blob[17:19], blob[19:]
    # no terminator in the rice bytes: the first run would reach into the
    # flag byte, which holds ones
    with pytest.raises(DecodeError, match="unary run exceeds buffer"):
        decode_timing(head + b"\x00\x00" + flags)
    # two deltas of 1 take two rice bits; set one of the six pad bits
    short = encode_timing(mk_packet(1, EPOCH_TICKS + 50, [1, 1], [0, 1, 1]))
    assert short[17] == 0b11000000
    with pytest.raises(DecodeError, match="nonzero padding after rice data"):
        decode_timing(short[:17] + bytes([0b11000100]) + short[18:])
    # one rice byte too many
    with pytest.raises(DecodeError, match="payload length disagrees"):
        decode_timing(head + rice + b"\x00" + flags)
    # a nonzero flag padding bit
    with pytest.raises(DecodeError, match="padding after basis flags"):
        decode_timing(head + rice + bytes([flags[0] | 1]))
    # two events at k = 40: a quotient of 1 is 2**40 ticks already, and a
    # remainder of 2**33 is a gap of two epochs
    for rice_bits, what in (("01" + "0" * 40, "implausible unary run"),
                            ("1" + format(1 << 33, "040b"), "delta larger than an epoch")):
        bits = np.array([int(c) for c in rice_bits], dtype=np.uint8)
        raw = head[:4] + b"\x02\x00\x00\x00" + head[8:16] + b"\x28"
        with pytest.raises(DecodeError, match=what):
            decode_timing(raw + np.packbits(bits).tobytes() + b"\x00")


def test_decode_fuzz_random_bytes():
    rng = np.random.default_rng(0)
    replies = 0
    for n in list(range(0, 30)) + [100, 1000]:
        for _ in range(20):
            blob = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            try:
                decode_timing(blob)
            except DecodeError:
                pass
            # a random reply body, also behind a plausible count and k
            count = int(rng.integers(0, 8 * max(n - 9, 0) + 2))
            k = int(rng.integers(0, 34))
            for reply in (blob, blob[:4] + count.to_bytes(4, "little")
                          + bytes([k]) + blob[9:]):
                try:
                    _, idx = decode_coinc_reply(reply)
                except DecodeError:
                    continue
                # anything that decodes is a strictly ascending index set
                # inside a u32
                replies += 1
                assert idx.dtype == np.int64
                assert idx.size == 0 or 0 <= idx[0] and idx[-1] < 2**32
                assert (np.diff(idx) > 0).all()
    assert replies > 20


def test_framing_roundtrip():
    msgs = [Message(MsgType.HELLO, b"abc"),
            Message(MsgType.TIMING, b""),
            Message(MsgType.BYE, bytes(range(7)))]
    blob = b"".join(frame(m) for m in msgs)
    out, pos = [], 0
    while pos < len(blob):
        mtype, length = frame_header(blob[pos:pos + FRAME_HEADER_SIZE])
        pos += FRAME_HEADER_SIZE
        out.append(Message(mtype, blob[pos:pos + length]))
        pos += length
    assert out == msgs
    assert frame_header(frame(msgs[0]) + b"XX") == (MsgType.HELLO, 3)


def test_framing_errors():
    with pytest.raises(DecodeError):
        frame_header(b"\x01\x05\x00\x00")  # one header byte short
    with pytest.raises(ProtocolError):
        frame_header(b"\x63\x00\x00\x00\x00")  # unknown tag
    with pytest.raises(ProtocolError, match="0x06"):
        frame_header(b"\x06\x00\x00\x00\x00")  # tag 6 is unassigned


def test_dedupe_keeps_first():
    s = EventStream(np.array([5, 5, 5, 9], dtype=np.int64),
                    np.array([2, 0, 1, 3], dtype=np.uint8))
    d = dedupe_ticks(s)
    assert list(d.times) == [5, 9]
    assert list(d.detectors) == [2, 3]
    # a stream with no repeated tick is not copied
    assert dedupe_ticks(d) is d
    empty = EventStream(np.empty(0, np.int64), np.empty(0, np.uint8))
    assert dedupe_ticks(empty) is empty


def test_packetize_partitions_by_epoch():
    rng = np.random.default_rng(4)
    times = np.sort(rng.integers(0, 4 * EPOCH_TICKS, 5000).astype(np.int64))
    dets = rng.integers(0, 4, 5000).astype(np.uint8)
    s = dedupe_ticks(EventStream(times, dets))
    pkts = packetize(s)
    assert sum(p.count for p in pkts) == len(s)
    rebuilt = np.concatenate([p.times() for p in pkts])
    assert np.array_equal(rebuilt, s.times)
    for p in pkts:
        seg = s.times // EPOCH_TICKS == p.epoch
        assert np.array_equal(p.basis_flags, s.detectors[seg] >> 1)
        assert (p.times() >> 32 == p.epoch).all()


# epoch 5, kept indices 3, 6, 15, 17, 30: gaps from -1 are 4, 3, 9, 2, 13,
# mean 6.2, so k = round(log2 6.2) - 1 = 2; the values 3, 2, 8, 1, 12
# split into quotients 0, 0, 2, 0, 3 and remainders 3, 2, 0, 1, 0
GOLDEN_REPLY = bytes.fromhex(
    "05000000" "05000000" "02"
    # unary 1 1 001 1 0001, remainders 11 10 00 01 00, four pad bits:
    # 1100 1100 | 0111 1000 | 0100 0000
    "cc7840")


def test_golden_coinc_reply_bytes():
    idx = np.array([3, 6, 15, 17, 30], dtype=np.int64)
    assert encode_coinc_reply(5, idx) == GOLDEN_REPLY
    epoch, out = decode_coinc_reply(GOLDEN_REPLY)
    assert epoch == 5 and np.array_equal(out, idx)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.one_of(st.integers(1, 16), st.integers(1, 2**24)),
                max_size=80))
@example(0, [])
@example(7, [1])                       # the index set [0]
@example(2**32 - 1, [2**32])           # the largest index alone, k = 31
@example(1, [5, 2**21, 1, 2**20 + 3, 2])
def test_coinc_reply_roundtrip(epoch, gaps):
    # ascending index sets, from their gaps to the previous index (or -1)
    idx = np.cumsum(np.array(gaps, dtype=np.int64)) - 1
    got_epoch, out = decode_coinc_reply(encode_coinc_reply(epoch, idx))
    assert got_epoch == epoch
    assert out.dtype == np.int64 and np.array_equal(out, idx)


def test_coinc_reply_validation():
    # a repeated, falling or negative index cannot be written on the wire
    for bad in ([3, 3], [5, 2], [-1, 4]):
        with pytest.raises(ContractViolation, match="ascend strictly"):
            encode_coinc_reply(0, np.array(bad, dtype=np.int64))


def _reply(count, k, rice_bits, epoch=5):
    """A reply payload with a hand-written body, zero-padded to a byte."""
    bits = np.array([int(c) for c in rice_bits], dtype=np.uint8)
    return (epoch.to_bytes(4, "little") + count.to_bytes(4, "little")
            + bytes([k]) + np.packbits(bits).tobytes())


def test_coinc_reply_decoder_rejections():
    g = GOLDEN_REPLY
    cases = (
        ("truncated coincidence reply", g[:8]),
        # a 33-bit remainder alone could carry an index to 2**32
        ("rice parameter 33 out of range", g[:8] + b"\x21" + g[9:]),
        # each index at k = 2 costs 3 bits at least: nine need more than
        # the 24 sent, and 2**32 - 1 more than any body holds, so nothing
        # is allocated for them
        ("too short for declared index count", g[:4] + b"\x09" + g[5:]),
        ("too short for declared index count",
         g[:4] + b"\xff\xff\xff\xff" + g[8:]),
        # no terminator: the first run reaches into the remainders' room
        ("unary run exceeds buffer", g[:9] + bytes(3)),
        ("payload length disagrees", g + b"\x00"),
        ("nonzero padding after rice data", g[:-1] + b"\x41"),
        # k = 32 and a quotient of 1: the first index is 2**32 already
        ("implausible unary run", _reply(1, 32, "01" + "0" * 32)),
        # two remainders of 2**32 - 1: the second index is 2**33 - 1
        ("kept index reaches 2", _reply(2, 32, "11" + "1" * 64)),
    )
    for why, blob in cases:
        with pytest.raises(DecodeError, match=why):
            decode_coinc_reply(blob)
    # the largest index a reply may carry
    assert list(decode_coinc_reply(_reply(1, 32, "1" + "1" * 32))[1]) == [
        2**32 - 1]


def _sections(*specs):
    return [ParitySection(cid, rid, counted, list(bits))
            for cid, rid, counted, bits in specs]


def _assert_sections_equal(got, want):
    assert [s[:3] for s in got] == [s[:3] for s in want]
    for g, w in zip(got, want):
        # a list of plain 0/1 ints, equal to what was sent
        assert type(g.bits) is list
        assert all(type(b) is int for b in g.bits)
        assert g.bits == w.bits


def test_ec_parity_roundtrip():
    want = _sections((9, 110, True, [1, 0, 1, 1, 0, 0, 1]),
                     (2, 111, False, []),
                     (70000, 5, True, [1] * 17))
    _assert_sections_equal(decode_ec_parity(encode_ec_parity(want)), want)
    one = _sections((9, 111, False, []))
    assert encode_ec_parity(one) == bytes.fromhex("01000000" "09000000"
                                                  "6f00" "00" "00000000")
    _assert_sections_equal(decode_ec_parity(encode_ec_parity(one)), one)


# two sections: cluster 2, round 110, counted, bits 101; cluster 5,
# round 111, not counted, bits 110011
GOLDEN_PARITY = bytes.fromhex(
    "02000000"
    "02000000" "6e00" "01" "03000000"
    "05000000" "6f00" "00" "06000000"
    # 101 110011, padded: 1011 1001 | 1000 0000
    "b980")


def test_golden_ec_parity_bytes():
    want = _sections((2, 110, True, [1, 0, 1]),
                     (5, 111, False, [1, 1, 0, 0, 1, 1]))
    assert encode_ec_parity(want) == GOLDEN_PARITY
    _assert_sections_equal(decode_ec_parity(GOLDEN_PARITY), want)


def test_golden_seed_bytes():
    # BATCH_SEEDS: u32 count, then (u32 cluster, u32 bits, u64 EC seed,
    # u64 PA seed)
    seeds = [(3, 5000, 0x0102030405060708, 0x1112131415161718),
             (4, 0x01020304, 9, 10)]
    blob = bytes.fromhex("02000000"
                         "03000000" "88130000"
                         "0807060504030201" "1817161514131211"
                         "04000000" "04030201"
                         "0900000000000000" "0a00000000000000")
    assert encode_records(MsgType.BATCH_SEEDS, seeds) == blob
    assert decode_records(MsgType.BATCH_SEEDS, blob) == seeds


def test_golden_key_hash_bytes():
    # KEY_HASH: u32 count, then (u32 cluster, u64 digest)
    digests = [(5, 2**64 - 1), (7, 0x0102030405060708)]
    blob = bytes.fromhex("02000000"
                         "05000000" "ffffffffffffffff"
                         "07000000" "0807060504030201")
    assert encode_records(MsgType.KEY_HASH, digests) == blob
    assert decode_records(MsgType.KEY_HASH, blob) == digests


def test_ec_parity_decoder_rejections():
    g = GOLDEN_PARITY

    def patched(offset, value):
        b = bytearray(g)
        b[offset] = value
        return bytes(b)

    cases = (
        ("truncated parity frame", g[:3]),
        ("no sections", bytes(4)),
        # the table promises two sections but holds one and a half
        ("truncated section table", g[:4 + 11 + 5]),
        # three sections declared: the table runs into the parity bits
        ("truncated section table", patched(0, 3)),
        # second section claims 14 bits, 17 in all, past the 16 sent
        ("overrun", patched(4 + 11 + 7, 14)),
        ("nonzero padding", g[:-1] + bytes([0x81])),
        ("longer than its sections", g + b"\x00"),
        ("repeated", patched(4 + 11, 2)),
        ("counted flag", patched(4 + 6, 2)),
    )
    for why, blob in cases:
        with pytest.raises(DecodeError, match=why):
            decode_ec_parity(blob)


def test_seed_decoder_rejections():
    # one codec for both cluster lists, with the same checks on each
    for mtype, records, size in ((MsgType.BATCH_SEEDS,
                                  [(3, 50, 7, 8), (4, 60, 9, 1)], 24),
                                 (MsgType.KEY_HASH, [(3, 7), (4, 9)], 12)):
        blob = encode_records(mtype, records)
        assert len(blob) == 4 + 2 * size
        with pytest.raises(DecodeError, match="no clusters"):
            decode_records(mtype, bytes(4))
        with pytest.raises(DecodeError, match="truncated"):
            decode_records(mtype, blob[:2])
        with pytest.raises(DecodeError, match="length mismatch"):
            decode_records(mtype, blob[:-1])
        with pytest.raises(DecodeError, match="length mismatch"):
            decode_records(mtype, blob + bytes(size))
        repeated = encode_records(mtype, [records[0], records[0]])
        with pytest.raises(DecodeError, match="repeated") as err:
            decode_records(mtype, repeated)
        assert err.value.offset == 4 + size
    # a KEY_HASH payload is no BATCH_SEEDS payload
    with pytest.raises(DecodeError, match="length mismatch"):
        decode_records(MsgType.BATCH_SEEDS,
                       encode_records(MsgType.KEY_HASH, [(3, 7)]))


def test_control_codecs():
    assert decode_hello(encode_hello(1)) == (WIRE_VERSION, 1)
    assert decode_hello(b"\x03\x00\x00") == (3, 0)
    seeds = [(7, 2**32 - 1, 2**63 + 5, 2**62 - 1)]
    assert decode_records(MsgType.BATCH_SEEDS,
                          encode_records(MsgType.BATCH_SEEDS, seeds)) == seeds
    digests = [(8, 2**64 - 1), (2**32 - 1, 0)]
    assert decode_records(MsgType.KEY_HASH,
                          encode_records(MsgType.KEY_HASH, digests)) == digests
    with pytest.raises(DecodeError):
        decode_hello(b"\x00")
    with pytest.raises(DecodeError):   # the version 5 layout, with an epoch
        decode_hello(bytes(7))


def test_hello_golden_bytes():
    # (u16 version, u8 role), little-endian
    assert WIRE_VERSION == 8
    assert encode_hello(0) == b"\x08\x00\x00"
    assert encode_hello(1) == b"\x08\x00\x01"
    assert decode_hello(b"\x02\x01\x01") == (0x0102, 1)

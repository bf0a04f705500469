import socket
import threading
import time

import pytest

from entkd import channel
from entkd.channel import ChannelClosed, MessageIO, PeerEndpoint
from entkd.wire import Message, MsgType, ProtocolError, frame


def _io_pair():
    s1, s2 = socket.socketpair()
    return MessageIO(s1), MessageIO(s2)


def test_peer_endpoint_holdback_order():
    io1, io2 = _io_pair()
    try:
        peer = PeerEndpoint(io2, early=(MsgType.TIMING, MsgType.BYE))
        for mtype, payload in ((MsgType.TIMING, b"t1"),
                               (MsgType.EC_PARITY, b"p1"),
                               (MsgType.TIMING, b"t2"),
                               (MsgType.EC_PARITY, b"p2"),
                               (MsgType.TIMING, b"t3"), (MsgType.BYE, b"")):
            io1.send(Message(mtype, payload))
        # typed receive holds the early traffic back without reordering it
        assert peer.recv_type(MsgType.EC_PARITY).payload == b"p1"
        assert peer.recv_type(MsgType.EC_PARITY).payload == b"p2"
        assert [peer.recv_type(MsgType.TIMING, MsgType.BYE).payload
                for _ in range(4)] == [b"t1", b"t2", b"t3", b""]
    finally:
        io1.close()
        io2.close()


def test_peer_endpoint_mixed_recv():
    io1, io2 = _io_pair()
    try:
        peer = PeerEndpoint(io2, early=(MsgType.TIMING,))
        io1.send(Message(MsgType.TIMING, b"t1"))
        io1.send(Message(MsgType.BYE))
        io1.send(Message(MsgType.TIMING, b"t2"))
        # plain recv takes what a typed pull held back first
        assert peer.recv_type(MsgType.BYE).type == MsgType.BYE
        assert peer.recv().payload == b"t1"
        assert peer.recv().payload == b"t2"
    finally:
        io1.close()
        io2.close()


def test_peer_endpoint_holdback_interleaved_types():
    # two early types interleaved with wanted ones: each pull takes the
    # next wanted message, and the held ones come back in arrival order
    io1, io2 = _io_pair()
    try:
        early = (MsgType.TIMING, MsgType.COINC_REPLY)
        peer = PeerEndpoint(io2, early=early)
        types = early + (MsgType.METRICS,)
        sent = [Message(types[i % 3 if i < 12 else (i * 7) % 3],
                        f"m{i}".encode()) for i in range(30)]
        for msg in sent:
            io1.send(msg)
        for want in [m for m in sent if m.type == MsgType.METRICS]:
            assert peer.recv_type(MsgType.METRICS) == want
        held = [m for m in sent if m.type != MsgType.METRICS]
        assert peer.recv_type(*early) == held[0]
        assert [peer.recv() for _ in held[1:]] == held[1:]
    finally:
        io1.close()
        io2.close()


def test_peer_endpoint_refuses_what_it_may_not_hold():
    io1, io2 = _io_pair()
    try:
        # a type the caller did not ask for and may not hold is refused,
        # named with the types it asked for
        peer = PeerEndpoint(io2, early=(MsgType.TIMING,))
        io1.send(Message(MsgType.TIMING, b"t1"))
        io1.send(Message(MsgType.METRICS, b"row"))
        with pytest.raises(ProtocolError,
                           match="unexpected METRICS, expected EC_PARITY$"):
            peer.recv_type(MsgType.EC_PARITY)
        # nothing is held once early messages end: what is held then is
        # refused, and so is an early type that arrives later
        with pytest.raises(ProtocolError, match="unexpected TIMING after"):
            peer.end_early()
        peer = PeerEndpoint(io2, early=(MsgType.TIMING,))
        peer.end_early()
        io1.send(Message(MsgType.TIMING, b"t2"))
        with pytest.raises(ProtocolError, match="unexpected TIMING, "
                           "expected EC_PARITY or KEY_HASH"):
            peer.recv_type(MsgType.EC_PARITY, MsgType.KEY_HASH)
    finally:
        io1.close()
        io2.close()


def test_message_io_roundtrip():
    io1, io2 = _io_pair()
    try:
        io1.send(Message(MsgType.HELLO, b"abc"))
        io2.send(Message(MsgType.KEY_HASH, bytes(12)))
        assert io2.recv() == Message(MsgType.HELLO, b"abc")
        assert io1.recv() == Message(MsgType.KEY_HASH, bytes(12))
    finally:
        io1.close()
        io2.close()


def _in_thread(fn):
    """Run fn on a daemon thread; a box gets its result or its error."""
    box = {}

    def run():
        try:
            box["out"] = fn()
        except BaseException as exc:
            box["err"] = exc
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    return worker, box


def test_message_io_large_and_many():
    io1, io2 = _io_pair()
    try:
        big = bytes(range(256)) * 4000  # ~1 MB frame

        def send_all():
            io1.send(Message(MsgType.TIMING, big))
            for i in range(200):
                io1.send(Message(MsgType.EC_PARITY, i.to_bytes(2, "little")))
        worker, box = _in_thread(send_all)
        assert io2.recv().payload == big
        for i in range(200):
            assert io2.recv().payload == i.to_bytes(2, "little")
        worker.join(timeout=30)
        assert not worker.is_alive() and "err" not in box, box
    finally:
        io1.close()
        io2.close()


def test_message_io_both_ends_flood_before_reading():
    # each end sends 4 MB, far beyond the kernel buffers, before it reads
    # anything: each reads while it waits to send, so both finish
    ios = _io_pair()
    try:
        def flood_then_read(me):
            for i in range(64):
                me.send(Message(MsgType.TIMING, bytes([i]) * (64 * 1024)))
            return [me.recv() for _ in range(64)]
        runs = [_in_thread(lambda me=me: flood_then_read(me)) for me in ios]
        for worker, _ in runs:
            worker.join(timeout=30)
            assert not worker.is_alive(), "a station wedged on a full buffer"
        for _, box in runs:
            assert "err" not in box, box
            assert [(m.type, m.payload) for m in box["out"]] == [
                (MsgType.TIMING, bytes([i]) * (64 * 1024)) for i in range(64)]
    finally:
        for io in ios:
            io.close()


def test_message_io_blocked_send_ends_when_the_peer_closes():
    io1, io2 = _io_pair()
    try:
        worker, box = _in_thread(
            lambda: io1.send(Message(MsgType.TIMING, bytes(8 << 20))))
        time.sleep(0.2)
        assert worker.is_alive()   # waiting for room the peer never makes
        io2.close()
        t0 = time.monotonic()
        worker.join(timeout=5)
        assert time.monotonic() - t0 < 1.0 and not worker.is_alive()
        assert isinstance(box.get("err"), ChannelClosed), box
    finally:
        io1.close()
        io2.close()


def test_message_io_send_times_out_on_a_peer_that_never_reads(monkeypatch):
    monkeypatch.setattr(channel, "DEFAULT_TIMEOUT", 0.2)
    io1, io2 = _io_pair()
    try:
        t0 = time.monotonic()
        worker, box = _in_thread(
            lambda: io1.send(Message(MsgType.TIMING, bytes(8 << 20))))
        worker.join(timeout=5)
        assert not worker.is_alive(), "send waited past its timeout"
        assert time.monotonic() - t0 > 0.15
        assert isinstance(box.get("err"), ChannelClosed), box
        assert "timed out waiting to send" in str(box["err"])
    finally:
        io1.close()
        io2.close()


def test_message_io_close_wakes_a_waiting_recv():
    # the endpoint is closed from another thread while recv waits on it,
    # again and again: every wait must end at once
    for _ in range(20):
        io1, io2 = _io_pair()
        try:
            worker, box = _in_thread(io2.recv)
            time.sleep(0.02)
            io2.close()
            t0 = time.monotonic()
            worker.join(timeout=5)
            assert time.monotonic() - t0 < 1.0 and not worker.is_alive()
            assert isinstance(box.get("err"), ChannelClosed), box
        finally:
            io1.close()
            io2.close()


def test_message_io_peer_close(monkeypatch):
    monkeypatch.setattr(channel, "DEFAULT_TIMEOUT", 5.0)
    io1, io2 = _io_pair()
    io1.close()
    with pytest.raises(ChannelClosed):
        io2.recv()
    with pytest.raises(ChannelClosed):
        io1.send(Message(MsgType.BYE))
    # an endpoint used after its own close fails at once, also when its
    # descriptor number already names another socket
    reuse = socket.socketpair()
    with pytest.raises(ChannelClosed):
        io1.recv()
    for s in reuse:
        s.close()
    io2.close()
    # a frame cut short by the close is end of stream too
    s1, s2 = socket.socketpair()
    io2 = MessageIO(s2)
    s1.sendall(frame(Message(MsgType.TIMING, bytes(10)))[:-3])
    s1.close()
    with pytest.raises(ChannelClosed):
        io2.recv()
    io2.close()


def test_message_io_garbage_frame():
    s1, s2 = socket.socketpair()
    io2 = MessageIO(s2)
    try:
        s1.sendall(b"\x63\x00\x00\x00\x00")  # unknown tag
        with pytest.raises(ProtocolError):
            io2.recv()
    finally:
        s1.close()
        io2.close()


def test_message_io_unknown_tag_refused_before_its_body(monkeypatch):
    # the header declares a body that never comes, on a socket left open:
    # the tag alone is refused, without waiting for the body
    monkeypatch.setattr(channel, "DEFAULT_TIMEOUT", 5.0)
    s1, s2 = socket.socketpair()
    io2 = MessageIO(s2)
    try:
        s1.sendall(b"\x63\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="unknown message tag"):
            io2.recv()
    finally:
        s1.close()
        io2.close()


def test_message_io_timeout(monkeypatch):
    monkeypatch.setattr(channel, "DEFAULT_TIMEOUT", 0.05)
    io1, io2 = _io_pair()
    try:
        with pytest.raises(ProtocolError, match="timed out"):
            io2.recv()
    finally:
        io1.close()
        io2.close()

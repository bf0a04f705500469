import socket
import threading

import pytest

from entkd.channel import ChannelClosed, MessageIO, PeerEndpoint
from entkd.wire import Message, MsgType, ProtocolError


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


def test_message_io_large_and_many():
    io1, io2 = _io_pair()
    try:
        big = bytes(range(256)) * 4000  # ~1 MB frame
        io1.send(Message(MsgType.TIMING, big))
        for i in range(200):
            io1.send(Message(MsgType.EC_PARITY, i.to_bytes(2, "little")))
        assert io2.recv().payload == big
        for i in range(200):
            assert io2.recv().payload == i.to_bytes(2, "little")
    finally:
        io1.close()
        io2.close()


def test_message_io_no_backpressure_deadlock():
    # one side floods while the other never reads until the flood ends;
    # the reader thread must keep draining so send never wedges
    io1, io2 = _io_pair()
    try:
        blob = bytes(64 * 1024)
        done = threading.Event()

        def flood():
            for _ in range(64):  # 4 MB total, far beyond kernel buffers
                io1.send(Message(MsgType.TIMING, blob))
            done.set()

        t = threading.Thread(target=flood, daemon=True)
        t.start()
        assert done.wait(timeout=30), "sender wedged on a full socket buffer"
        for _ in range(64):
            assert io2.recv().type == MsgType.TIMING
    finally:
        io1.close()
        io2.close()


def test_message_io_peer_close():
    io1, io2 = _io_pair()
    io1.close()
    with pytest.raises(ChannelClosed):
        io2.recv()
    with pytest.raises(ChannelClosed):
        io1.send(Message(MsgType.BYE))
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


def test_message_io_unknown_tag_refused_before_its_body():
    # the header declares a body that never comes, on a socket left open:
    # the tag alone is refused, without waiting for the body
    s1, s2 = socket.socketpair()
    io2 = MessageIO(s2)
    try:
        s1.sendall(b"\x63\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="unknown message tag"):
            io2.recv(timeout=5.0)
    finally:
        s1.close()
        io2.close()


def test_message_io_timeout():
    io1, io2 = _io_pair()
    try:
        with pytest.raises(ProtocolError):
            io2.recv(timeout=0.05)
    finally:
        io1.close()
        io2.close()

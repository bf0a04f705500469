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
        peer = PeerEndpoint(io2)
        io1.send(Message(MsgType.TIMING, b"t1"))
        io1.send(Message(MsgType.EC_PARITY, b"p1"))
        io1.send(Message(MsgType.TIMING, b"t2"))
        io1.send(Message(MsgType.EC_PARITY, b"p2"))
        # typed receive skips over the timing traffic without reordering it
        assert peer.recv_type(MsgType.EC_PARITY).payload == b"p1"
        assert peer.recv_type(MsgType.EC_PARITY).payload == b"p2"
        assert peer.recv().payload == b"t1"
        assert peer.recv().payload == b"t2"
    finally:
        io1.close()
        io2.close()


def test_peer_endpoint_mixed_recv():
    io1, io2 = _io_pair()
    try:
        peer = PeerEndpoint(io2)
        io1.send(Message(MsgType.TIMING, b"t1"))
        io1.send(Message(MsgType.BYE))
        # plain recv drains in arrival order even after a typed pull
        # parked t1
        assert peer.recv_type(MsgType.BYE).type == MsgType.BYE
        assert peer.recv().payload == b"t1"
    finally:
        io1.close()
        io2.close()


def test_peer_endpoint_holdback_interleaved_types():
    # three types interleaved: typed pulls follow each type's own order,
    # and plain recv replays what is parked in arrival order
    io1, io2 = _io_pair()
    try:
        peer = PeerEndpoint(io2)
        types = (MsgType.TIMING, MsgType.COINC_REPLY, MsgType.METRICS)
        sent = [Message(types[i % 3 if i < 12 else (i * 7) % 3],
                        f"m{i}".encode()) for i in range(30)]
        for msg in sent:
            io1.send(msg)
        io1.send(Message(MsgType.BYE))
        # pull every COINC_REPLY, then one METRICS, parking the rest
        replies = [m for m in sent if m.type == MsgType.COINC_REPLY]
        for want in replies:
            assert peer.recv_type(MsgType.COINC_REPLY) == want
        first_metrics = next(m for m in sent if m.type == MsgType.METRICS)
        assert peer.recv_type(MsgType.METRICS) == first_metrics
        # a pull of two types takes whichever of them arrived first
        rest = [m for m in sent
                if m.type != MsgType.COINC_REPLY and m is not first_metrics]
        assert peer.recv_type(MsgType.METRICS, MsgType.TIMING) == rest[0]
        assert [peer.recv() for _ in rest[1:]] == rest[1:]
        assert peer.recv().type == MsgType.BYE
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

"""Message transport: framed wire.Message objects over a connected socket,
with blocking send/recv and a typed receive that holds back other types.
"""

from __future__ import annotations

import socket
import threading
from collections import deque
from queue import Empty, SimpleQueue

from .wire import (FRAME_HEADER_SIZE, Message, MsgType, ProtocolError, frame,
                   frame_header)

_CLOSE = object()
DEFAULT_TIMEOUT = 60.0


class ChannelClosed(ConnectionError):
    """Peer closed the channel (or the transport died)."""


class MessageIO:
    """Framed messages over a connected socket, with a reader thread.

    The reader drains the socket continuously into an unbounded inbox, so
    neither side can wedge on a full kernel buffer no matter how lopsided
    the traffic is. Sends take no lock: the reader thread never sends, and
    each station sends from its own thread over its own MessageIO.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._inbox: SimpleQueue = SimpleQueue()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_exact(self, n: int) -> bytes | None:
        buf = bytearray()
        while len(buf) < n:
            try:
                chunk = self._sock.recv(n - len(buf))
            except OSError:
                return None
            if not chunk:
                return None
            buf.extend(chunk)
        return bytes(buf)

    def _read_loop(self) -> None:
        while (head := self._read_exact(FRAME_HEADER_SIZE)) is not None:
            try:
                mtype, length = frame_header(head)
            except ProtocolError as exc:
                self._inbox.put(exc)
                return
            if (body := self._read_exact(length)) is None:
                break
            self._inbox.put(Message(mtype, body))
        self._inbox.put(_CLOSE)

    def send(self, msg: Message) -> None:
        data = frame(msg)
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(f"send failed: {exc}") from None

    def recv(self, timeout: float = DEFAULT_TIMEOUT) -> Message:
        try:
            item = self._inbox.get(timeout=timeout)
        except Empty:
            raise ProtocolError("timed out waiting for peer message") from None
        if item is _CLOSE:
            raise ChannelClosed("connection closed by peer")
        if isinstance(item, Exception):
            raise item
        return item

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class PeerEndpoint:
    """Typed receive with order-preserving holdback.

    recv_type pulls the next message of a wanted type while parking
    everything else, one queue per type, each message tagged with its
    arrival number; plain recv replays the earliest parked message first,
    so the arrival order is never disturbed. Both cost the same however
    many messages are parked.
    """

    def __init__(self, endpoint):
        self._ep = endpoint
        self._held: dict[MsgType, deque] = {}   # type -> (arrival, message)
        self._arrivals = 0

    def send(self, msg: Message) -> None:
        self._ep.send(msg)

    def _pop_earliest(self, types) -> Message | None:
        queues = [q for t in types if (q := self._held.get(t))]
        if not queues:
            return None
        return min(queues, key=lambda q: q[0][0]).popleft()[1]

    def recv(self) -> Message:
        msg = self._pop_earliest(self._held)
        return msg if msg is not None else self._ep.recv()

    def recv_type(self, *types: MsgType) -> Message:
        msg = self._pop_earliest(types)
        if msg is not None:
            return msg
        while True:
            msg = self._ep.recv()
            if msg.type in types:
                return msg
            self._held.setdefault(msg.type, deque()).append(
                (self._arrivals, msg))
            self._arrivals += 1

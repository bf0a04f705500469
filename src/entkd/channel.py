"""Message transport: framed wire.Message objects over a connected socket,
with blocking send/recv and a typed receive that holds back early types.
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
    """Typed receive. A message of a type the caller did not ask for waits
    in one queue if the station expects its type early, and is a
    ProtocolError if not. Held messages leave in arrival order: to recv,
    or to a recv_type that asks for the type of the oldest.
    """

    def __init__(self, endpoint, early: tuple[MsgType, ...] = ()):
        self._ep = endpoint
        self._early = early
        self._held: deque[Message] = deque()

    def send(self, msg: Message) -> None:
        self._ep.send(msg)

    def recv(self) -> Message:
        return self._held.popleft() if self._held else self._ep.recv()

    def recv_type(self, *types: MsgType) -> Message:
        if self._held and self._held[0].type in types:
            return self._held.popleft()
        while (msg := self._ep.recv()).type not in types:
            if msg.type not in self._early:
                raise ProtocolError(
                    f"unexpected {msg.type.name}, expected "
                    f"{' or '.join(t.name for t in types)}")
            self._held.append(msg)
        return msg

    def end_early(self) -> None:
        """Hold nothing back from now on, and refuse what is held."""
        self._early = ()
        if self._held:
            raise ProtocolError(f"unexpected {self._held[0].type.name} after "
                                "the last message the peer may send early")

"""Message transport: framed wire.Message objects over a connected socket,
on the caller's thread, and a typed receive that holds back early types.
"""

from __future__ import annotations

import select
import socket
from collections import deque

from .wire import (FRAME_HEADER_SIZE, Message, MsgType, ProtocolError, frame,
                   frame_header)

DEFAULT_TIMEOUT = 60.0


class ChannelClosed(ConnectionError):
    """Peer closed the channel, stopped reading, or the transport died."""


class MessageIO:
    """Framed messages over a connected socket, on the caller's thread.

    The socket is non-blocking and what the peer sends goes to one buffer.
    recv cuts whole frames from it and waits only when it holds none. send
    writes at once when the socket takes the frame, and otherwise reads
    while it waits for room, so two stations that each send more than the
    kernel buffers hold before reading both go on. DEFAULT_TIMEOUT, read
    at each call, bounds every wait: a peer that neither reads nor closes
    is ChannelClosed to send, and a silent one a ProtocolError to recv.
    """

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self._sock = sock
        self._fd = sock.fileno()   # still names the socket once it closes
        self._poll = select.poll()
        self._buf = bytearray()
        self._eof = False

    def _wait(self, events: int) -> bool:
        """Wait for events or a hang-up, then buffer input; False on timeout.
        A peer stops sending only when it closes, so end of stream ends it."""
        if self._eof or self._sock.fileno() < 0:
            raise ChannelClosed("connection closed")
        self._poll.register(self._fd, events)
        if not self._poll.poll(DEFAULT_TIMEOUT * 1000):
            return False
        try:
            chunk = self._sock.recv(1 << 16)
        except BlockingIOError:   # only room to send came
            return True
        except OSError:   # reset, or closed under the wait
            chunk = b""
        self._eof = not chunk
        self._buf += chunk
        return True

    def send(self, msg: Message) -> None:
        data = memoryview(frame(msg))
        while data:
            try:
                data = data[self._sock.send(data):]
            except BlockingIOError:
                if not self._wait(select.POLLOUT | select.POLLIN):
                    raise ChannelClosed("timed out waiting to send") from None
            except OSError as exc:
                raise ChannelClosed(f"send failed: {exc}") from None

    def recv(self) -> Message:
        while True:
            if len(self._buf) >= FRAME_HEADER_SIZE:   # checked before the body
                mtype, length = frame_header(self._buf)
                if len(self._buf) >= (end := FRAME_HEADER_SIZE + length):
                    body = bytes(self._buf[FRAME_HEADER_SIZE:end])
                    del self._buf[:end]
                    return Message(mtype, body)
            if not self._wait(select.POLLIN):
                raise ProtocolError("timed out waiting for peer message")

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

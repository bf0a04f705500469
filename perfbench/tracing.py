"""Channel accounting and span tracing, installed from outside the program.

Nothing here edits `src/`: the hooks replace module and class attributes of
an imported `entkd` before a session starts. `install_counters` is cheap and
always on (it yields `wire_bytes`, `ec_messages` and the set-up boundary);
`install_tracer` wraps the public function of every layer and is used only in
traced runs, whose wall times are not reported as end-to-end figures.

Both stations run as threads of one process, so spans are kept per thread: a
thread-local stack gives each span its parent, and a layer's self time is its
span minus the child spans it covers on the same thread.
"""

from __future__ import annotations

import threading
import time

_clock = time.perf_counter


def cpu_ticks() -> tuple[int, int]:
    """(busy, stolen) clock ticks of this machine's processors since boot,
    from the first line of /proc/stat; (0, 0) where there is none."""
    try:
        with open("/proc/stat") as fh:
            f = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = f
    return user + nice + system + irq + softirq, steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the processors' runnable time the hypervisor took between
    two `cpu_ticks` readings.

    On a shared virtual machine other tenants' load stretches every wall
    time measured here; scaling a wall time by one minus this share leaves
    the time the work needed had no one else been running.
    """
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


class ChannelCounters:
    """Bytes and messages sent per message type, framing included, and
    the clock reading at the first send."""

    FRAME_HEADER = 5  # u8 tag + u32 length, as `wire.frame` writes it

    def __init__(self):
        self._lock = threading.Lock()
        self.bytes: dict[str, int] = {}
        self.messages: dict[str, int] = {}
        self.first_send: float | None = None

    def add(self, type_name: str, payload_len: int) -> None:
        now = _clock()
        with self._lock:
            if self.first_send is None:
                self.first_send = now
            self.bytes[type_name] = (self.bytes.get(type_name, 0)
                                     + payload_len + self.FRAME_HEADER)
            self.messages[type_name] = self.messages.get(type_name, 0) + 1


def install_counters() -> ChannelCounters:
    """Count every frame `MessageIO.send` writes, from either station."""
    from entkd.channel import MessageIO as cls

    counters = ChannelCounters()
    orig_send = cls.send

    def send(self, msg):
        counters.add(msg.type.name, len(msg.payload))
        return orig_send(self, msg)

    cls.send = send
    return counters


class Tracer:
    """In-memory span recorder.

    Each span is `[name, role, parent index, start, end, count]`; `count` is
    the amount of work the call did (events, bits), where one is defined.
    The role is the station whose thread made the call (`matcher`,
    `streamer`) or `app` before either station runs.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.marks: dict[str, float] = {}

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def role(self) -> str:
        return getattr(self._local, "role", "app")

    def wrap(self, name, fn, count=None, role=None):
        """Return `fn` recording one span per call.

        `count(args, result)` gives the work done; `role`, when set, marks
        the calling thread as that station for the span and all it covers.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            prev_role = tracer.role()
            if role is not None:
                tracer._local.role = role
            parent = stack[-1] if stack else -1
            rec = [name, tracer.role(), parent, _clock(), 0.0, 0]
            with tracer._lock:
                tracer.spans.append(rec)
                idx = len(tracer.spans) - 1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _clock()
                stack.pop()
                tracer._local.role = prev_role
            if count is not None:
                rec[5] = int(count(args, result))
            return result

        return traced

    def mark_once(self, key: str) -> None:
        """Record the first time `key` happens."""
        with self._lock:
            self.marks.setdefault(key, _clock())


def install_tracer() -> Tracer:
    """Wrap each layer's public functions where the program looks them up.

    `node` and `app` import some names directly (`from .ecorr import ...`),
    so those are replaced in the importing module's namespace too.
    """
    from entkd import app, channel, coinc, node, tsync, wire

    tr = Tracer()
    w = tr.wrap

    app.load_config = w("app.load_config", app.load_config)
    app.build_streams = w("app.build_streams", app.build_streams)
    app.simulate_link = w("physim.simulate_link", app.simulate_link,
                          count=lambda a, r: len(r[0]) + len(r[1]))

    wire.encode_timing = w("wire.encode_timing", wire.encode_timing,
                           count=lambda a, r: a[0].count)
    wire.decode_timing = w("wire.decode_timing", wire.decode_timing,
                           count=lambda a, r: r.count)

    orig_send = channel.MessageIO.send

    def send(self, msg):
        key = f"{tr.role()}.{msg.type.name}"
        tr.mark_once(key)
        return orig_send(self, msg)

    channel.MessageIO.send = w("channel.send", send)
    channel.PeerEndpoint.recv = w("channel.recv", channel.PeerEndpoint.recv)
    channel.PeerEndpoint.recv_type = w("channel.recv",
                                       channel.PeerEndpoint.recv_type)

    tsync.initial_lock = w("tsync.initial_lock", tsync.initial_lock)
    tsync.servo_update = w("tsync.servo_update", tsync.servo_update)

    coinc.match = w("coinc.match", coinc.match,
                    count=lambda a, r: len(a[0]) + len(a[1]))
    coinc.count_accidentals = w("coinc.count_accidentals",
                                coinc.count_accidentals)
    coinc.sift = w("coinc.sift", coinc.sift)
    coinc.remote_bits_from_reply = w("coinc.sift",
                                     coinc.remote_bits_from_reply)

    node.reconcile_reference = w("ecorr.reconcile", node.reconcile_reference,
                                 count=lambda a, r: len(a[0]))
    node.reconcile_correcting = w("ecorr.reconcile",
                                  node.reconcile_correcting,
                                  count=lambda a, r: len(a[0]))

    node.final_length = w("privamp.final_length", node.final_length)
    node.toeplitz_compress = w("privamp.toeplitz", node.toeplitz_compress,
                               count=lambda a, r: len(a[0]))
    node.key_digest = w("privamp.digest", node.key_digest)

    node.MatcherSession.run = w("node.matcher", node.MatcherSession.run,
                                role="matcher")
    node.StreamerSession.run = w("node.streamer", node.StreamerSession.run,
                                 role="streamer")
    return tr


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own

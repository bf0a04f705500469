"""Session assembly: configuration files, transports, stream sources.

A session is described by an INI file; both stations read the same file
(plus the same seed) so a simulated link is reproduced identically on
each side without shipping event data out of band. Recorded stream
dumps can stand in for the simulator.
"""

from __future__ import annotations

import configparser
import socket
import threading
from dataclasses import dataclass

from .channel import ChannelClosed, MessageIO
from .coinc import WindowConfig
from .core import ContractViolation, EventStream
from .ecorr import CLUSTER_THRESHOLD
from .node import (PROTO_ROLE_MATCHER, PROTO_ROLE_STREAMER, MatcherSession,
                   StreamerSession)
from .physim import (SideConfig, SourceConfig, read_stream_dump,
                     simulate_link, write_stream_dump)


class ConfigError(ValueError):
    """The session description is missing, malformed, or inconsistent."""


@dataclass
class SessionConfig:
    source: SourceConfig
    alice: SideConfig
    bob: SideConfig
    windows: WindowConfig
    cluster_threshold: int
    keys_alice: str | None
    keys_bob: str | None
    metrics_alice: str | None
    metrics_bob: str | None
    stream_alice: str | None
    stream_bob: str | None

    @property
    def duration(self) -> float:
        return self.source.duration

    @property
    def seed(self) -> int:
        return self.source.rng_seed


class _SessionFile(configparser.ConfigParser):
    """A session INI file that records each (section, key) the loader asks
    for. No section lends its keys to the others, so a [DEFAULT] section
    is as unknown as any other."""

    def __init__(self):
        super().__init__(default_section="")
        self.asked: set[tuple[str, str]] = set()


def _get(cp: _SessionFile, section, key, cast, default):
    cp.asked.add((section, key))
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _delays(raw: str) -> tuple[int, ...]:
    parts = [int(x.strip()) for x in raw.split(",")]
    if len(parts) != 4:
        raise ValueError("need exactly 4 comma-separated delays")
    return tuple(parts)


def _side(cp, section) -> SideConfig:
    return SideConfig(
        efficiency=_get(cp, section, "efficiency", float, 1.0),
        jitter_sigma=_get(cp, section, "jitter_sigma", float, 0.0),
        detector_delays=_get(cp, section, "delays", _delays, (0, 0, 0, 0)),
        dark_rate=_get(cp, section, "dark_rate", float, 0.0),
        dead_time=_get(cp, section, "dead_time", int, 0),
        clock_offset=_get(cp, section, "clock_offset", int, 0),
        clock_drift=_get(cp, section, "clock_drift", float, 0.0),
    )


def load_config(path, *, seed=None, duration=None) -> SessionConfig:
    """Parse a session INI file, applying optional CLI overrides.

    A section or key the loader does not know is a ConfigError, so a
    misspelt name cannot quietly leave its default in place.
    """
    cp = _SessionFile()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    # read even when overridden, so that they count as known keys
    file_duration = _get(cp, "session", "duration", float, 60.0)
    file_seed = _get(cp, "session", "seed", int, 1)

    try:
        source = SourceConfig(
            pair_rate=_get(cp, "source", "pair_rate", float, 10000.0),
            visibility_hv=_get(cp, "source", "visibility_hv", float, 0.98),
            visibility_da=_get(cp, "source", "visibility_da", float, 0.92),
            visibility_ramp=_get(cp, "source", "visibility_ramp", float, 0.0),
            duration=file_duration if duration is None else duration,
            rng_seed=file_seed if seed is None else seed,
        )
        alice = _side(cp, "alice")
        bob = _side(cp, "bob")
        windows = WindowConfig(
            accept_half_width=_get(cp, "windows", "accept_half", int, 14),
            servo_half_width=_get(cp, "windows", "servo_half", int, 30),
            accidental_center=_get(cp, "windows", "accidental_center", int, 160),
            accidental_half_width=_get(cp, "windows", "accidental_half", int, 15),
        )
    except (ContractViolation, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None

    cfg = SessionConfig(
        source=source,
        alice=alice,
        bob=bob,
        windows=windows,
        cluster_threshold=_get(cp, "ecorr", "cluster_bits", int,
                               CLUSTER_THRESHOLD),
        keys_alice=_get(cp, "output", "keys_alice", str, None),
        keys_bob=_get(cp, "output", "keys_bob", str, None),
        metrics_alice=_get(cp, "output", "metrics_alice", str, None),
        metrics_bob=_get(cp, "output", "metrics_bob", str, None),
        stream_alice=_get(cp, "streams", "alice", str, None),
        stream_bob=_get(cp, "streams", "bob", str, None),
    )
    if cfg.cluster_threshold <= 0:
        raise ConfigError(f"[ecorr] cluster_bits = {cfg.cluster_threshold}: "
                          "must be positive")
    known = {section for section, _ in cp.asked}
    unknown = [f"[{s}]" for s in cp.sections() if s not in known] + [
        f"[{s}] {k}" for s in cp.sections() if s in known
        for k in cp.options(s) if (s, k) not in cp.asked]
    if unknown:
        raise ConfigError(f"unknown in {path}: {', '.join(unknown)}")
    return cfg


def build_streams(cfg: SessionConfig, *, alice: bool = True, bob: bool = True
                  ) -> tuple[EventStream | None, EventStream | None]:
    """Produce the stations' event streams: recorded dumps if the config
    names them, otherwise a fresh simulation of the link. A station that
    runs one side alone asks for that side only and gets None for the
    other."""
    if (cfg.stream_alice is None) != (cfg.stream_bob is None):
        raise ConfigError("stream dumps must be given for both sides or neither")
    if cfg.stream_alice is not None:
        return (_read_dump(cfg.stream_alice, 0) if alice else None,
                _read_dump(cfg.stream_bob, 1) if bob else None)
    return simulate_link(cfg.source, cfg.alice if alice else None,
                         cfg.bob if bob else None)


def _read_dump(path: str, side: int) -> EventStream:
    try:
        found, stream = read_stream_dump(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load stream dumps: {exc}") from None
    if found != side:
        raise ConfigError("stream dumps have swapped or repeated sides")
    return stream


def _station(cfg: SessionConfig, role: int, sock: socket.socket,
             stream: EventStream):
    """Run one station of the session over a connected socket.

    The socket is closed however the session ends, so a station that
    fails makes its peer fail at once instead of waiting out a timeout.
    """
    io = MessageIO(sock)
    try:
        if role == PROTO_ROLE_MATCHER:
            session = MatcherSession(
                io, stream, windows=cfg.windows,
                cluster_threshold=cfg.cluster_threshold,
                session_seed=cfg.seed, key_path=cfg.keys_alice,
                metrics_path=cfg.metrics_alice)
        else:
            session = StreamerSession(io, stream, key_path=cfg.keys_bob,
                                      metrics_path=cfg.metrics_bob)
        return session.run()
    finally:
        io.close()


def run_loopback(cfg: SessionConfig):
    """Both stations in one process over a socket pair, the streamer on a
    worker thread.

    When the matcher fails only because the channel closed under it, the
    streamer failed first and its error is raised; otherwise the
    matcher's is.
    """
    stream_a, stream_b = build_streams(cfg)
    sock_m, sock_s = socket.socketpair()
    box: dict = {}

    def streamer():
        try:
            box["outcome"] = _station(cfg, PROTO_ROLE_STREAMER, sock_s,
                                      stream_b)
        except BaseException as exc:   # raised again on the calling thread
            box["error"] = exc

    worker = threading.Thread(target=streamer)
    worker.start()
    try:
        out_m = _station(cfg, PROTO_ROLE_MATCHER, sock_m, stream_a)
    except ChannelClosed:
        worker.join()
        if "error" in box:
            raise box["error"] from None
        raise
    finally:
        # the matcher's end is closed by now, so the streamer ends too
        worker.join()
    if "error" in box:
        raise box["error"]
    return out_m, box["outcome"]


def parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"endpoint {text!r} is not host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"endpoint port in {text!r} is not a number") from None


def run_matcher_tcp(cfg: SessionConfig, listen: str, timeout: float = 120.0):
    """Run the matcher station as a TCP server for one session."""
    host, port = parse_endpoint(listen)
    stream, _ = build_streams(cfg, bob=False)
    with socket.create_server((host, port)) as srv:
        srv.settimeout(timeout)
        conn, _addr = srv.accept()
    conn.settimeout(timeout)
    return _station(cfg, PROTO_ROLE_MATCHER, conn, stream)


def run_streamer_tcp(cfg: SessionConfig, peer: str, timeout: float = 120.0):
    """Run the streamer station as a TCP client for one session."""
    host, port = parse_endpoint(peer)
    _, stream = build_streams(cfg, alice=False)
    conn = socket.create_connection((host, port), timeout=timeout)
    return _station(cfg, PROTO_ROLE_STREAMER, conn, stream)


def dump_streams(cfg: SessionConfig, out_alice: str, out_bob: str) -> tuple[int, int]:
    """Simulate the link once and record both stations' streams."""
    stream_a, stream_b = simulate_link(cfg.source, cfg.alice, cfg.bob)
    write_stream_dump(out_alice, 0, stream_a)
    write_stream_dump(out_bob, 1, stream_b)
    return len(stream_a), len(stream_b)

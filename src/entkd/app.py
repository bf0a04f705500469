"""Session assembly: configuration files, transports, stream sources.

A session is described by an INI file; both stations read the same file
(plus the same seed) so a simulated link is reproduced identically on
each side without shipping event data out of band. Recorded stream
dumps can stand in for the simulator.
"""

from __future__ import annotations

import configparser
import socket
from dataclasses import dataclass

from .channel import MessageIO
from .coinc import WindowConfig
from .core import ContractViolation, EventStream
from .ecorr import CLUSTER_THRESHOLD
from .node import MatcherSession, StreamerSession, run_sessions_over_sockets
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


def _get(cp, section, key, cast, default):
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
    """Parse a session INI file, applying optional CLI overrides."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    if duration is None:
        duration = _get(cp, "session", "duration", float, 60.0)
    if seed is None:
        seed = _get(cp, "session", "seed", int, 1)

    try:
        source = SourceConfig(
            pair_rate=_get(cp, "source", "pair_rate", float, 10000.0),
            visibility_hv=_get(cp, "source", "visibility_hv", float, 0.98),
            visibility_da=_get(cp, "source", "visibility_da", float, 0.92),
            visibility_ramp=_get(cp, "source", "visibility_ramp", float, 0.0),
            duration=duration,
            rng_seed=seed,
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

    return SessionConfig(
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


def build_streams(cfg: SessionConfig) -> tuple[EventStream, EventStream]:
    """Produce both stations' event streams: recorded dumps if the config
    names them, otherwise a fresh simulation of the link."""
    if (cfg.stream_alice is None) != (cfg.stream_bob is None):
        raise ConfigError("stream dumps must be given for both sides or neither")
    if cfg.stream_alice is not None:
        try:
            side_a, stream_a = read_stream_dump(cfg.stream_alice)
            side_b, stream_b = read_stream_dump(cfg.stream_bob)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load stream dumps: {exc}") from None
        if side_a != 0 or side_b != 1:
            raise ConfigError("stream dumps have swapped or repeated sides")
        return stream_a, stream_b
    return simulate_link(cfg.source, cfg.alice, cfg.bob)


def build_side_stream(cfg: SessionConfig, side: int) -> EventStream:
    """One station's view; both stations call this with the same config."""
    stream_a, stream_b = build_streams(cfg)
    return stream_a if side == 0 else stream_b


def _matcher_kwargs(cfg: SessionConfig) -> dict:
    return dict(windows=cfg.windows,
                cluster_threshold=cfg.cluster_threshold,
                session_seed=cfg.seed,
                key_path=cfg.keys_alice,
                metrics_path=cfg.metrics_alice)


def _streamer_kwargs(cfg: SessionConfig) -> dict:
    return dict(cluster_threshold=cfg.cluster_threshold,
                key_path=cfg.keys_bob,
                metrics_path=cfg.metrics_bob)


def run_loopback(cfg: SessionConfig):
    """Both stations in one process over a socket pair."""
    stream_a, stream_b = build_streams(cfg)
    sock_m, sock_s = socket.socketpair()
    return run_sessions_over_sockets(sock_m, sock_s, stream_a, stream_b,
                                     _matcher_kwargs(cfg),
                                     _streamer_kwargs(cfg))


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
    stream = build_side_stream(cfg, 0)
    with socket.create_server((host, port)) as srv:
        srv.settimeout(timeout)
        conn, _addr = srv.accept()
    conn.settimeout(timeout)
    io = MessageIO(conn)
    try:
        session = MatcherSession(io, stream, **_matcher_kwargs(cfg))
        return session.run()
    finally:
        io.close()


def run_streamer_tcp(cfg: SessionConfig, peer: str, timeout: float = 120.0):
    """Run the streamer station as a TCP client for one session."""
    host, port = parse_endpoint(peer)
    stream = build_side_stream(cfg, 1)
    conn = socket.create_connection((host, port), timeout=timeout)
    conn.settimeout(timeout)
    io = MessageIO(conn)
    try:
        session = StreamerSession(io, stream, **_streamer_kwargs(cfg))
        return session.run()
    finally:
        io.close()


def dump_streams(cfg: SessionConfig, out_alice: str, out_bob: str) -> tuple[int, int]:
    """Simulate the link once and record both stations' streams."""
    stream_a, stream_b = simulate_link(cfg.source, cfg.alice, cfg.bob)
    write_stream_dump(out_alice, 0, stream_a)
    write_stream_dump(out_bob, 1, stream_b)
    return len(stream_a), len(stream_b)

"""Two-party session engine.

One station (the streamer) sends its timestamp packets; the other (the
matcher) locks clocks, finds coincidences, and drives sifting and error
correction back over the same channel, a connected socket.

Clusters are reconciled in batches, and which clusters form a batch
depends only on the data: the session's first cluster goes alone, as
soon as it closes, since the error-rate estimate is still a guess; after
that, every cluster closed within one metrics interval is reconciled
together when the epoch clock crosses into the next interval, before
that epoch is counted, so the outcomes land in the interval's metrics
row. What is left at the end of the stream, tail included, is the last
batch. The streamer follows the matcher's batch announcements, which
carry each cluster's error-correction and compression seeds.

After a batch is reconciled, each station works out every cluster's final
length from its own reconciliation report (the two reports agree), so no
length crosses the wire: each compresses its kept clusters and sends one
digest list, and keeps the keys whose digests match the peer's.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import coinc, tsync, wire
from .channel import MessageIO, PeerEndpoint
from .coinc import WindowConfig
from .core import EPOCH_SECONDS, EPOCH_TICKS, EventStream, epoch_of
from .ecorr import (CLUSTER_THRESHOLD, Cluster, ClusterBuilder, EtaEstimator,
                    reconcile_correcting, reconcile_reference)
from .privamp import EtaDomainError, final_length, key_digest, toeplitz_compress
from .tsync import NoPeakError
from .wire import Message, MsgType, ProtocolError

PROTO_ROLE_MATCHER = 0
PROTO_ROLE_STREAMER = 1
LOCK_EPOCHS = 8

KEY_MAGIC = b"ETKY"
KEY_VERSION = 1
_KEY_HDR = struct.Struct("<4sH")
_KEY_REC = struct.Struct("<II")

METRICS_HEADER = ("t_s,raw_cps,sifted_cps,secret_cps,qber,"
                  "accidental_cps,mismatched_clusters")
METRICS_INTERVAL_S = 10.0


def _interval(epoch: int) -> int:
    """Index of the metrics interval an epoch starts in."""
    return int(epoch * EPOCH_SECONDS // METRICS_INTERVAL_S)


class KeyFileWriter:
    """Append-only secret key store, flushed after every cluster."""

    def __init__(self, path):
        self._fh = open(path, "wb")
        self._fh.write(_KEY_HDR.pack(KEY_MAGIC, KEY_VERSION))
        self._fh.flush()
        self.total_bits = 0

    def append(self, cluster_id: int, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        self._fh.write(_KEY_REC.pack(cluster_id, bits.size))
        self._fh.write(np.packbits(bits).tobytes())
        self._fh.flush()
        self.total_bits += bits.size

    def close(self) -> None:
        self._fh.close()


def read_key_file(path) -> list[tuple[int, np.ndarray]]:
    """Load every (cluster id, bit array) record from a key file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _KEY_HDR.size:
        raise ValueError("truncated key file header")
    magic, version = _KEY_HDR.unpack_from(blob, 0)
    if magic != KEY_MAGIC:
        raise ValueError("not a key file")
    if version != KEY_VERSION:
        raise ValueError(f"unsupported key file version {version}")
    out = []
    pos = _KEY_HDR.size
    while pos < len(blob):
        if pos + _KEY_REC.size > len(blob):
            raise ValueError("truncated key record header")
        cid, m = _KEY_REC.unpack_from(blob, pos)
        pos += _KEY_REC.size
        nbytes = (m + 7) // 8
        if pos + nbytes > len(blob):
            raise ValueError("truncated key record payload")
        bits = np.unpackbits(
            np.frombuffer(blob, np.uint8, nbytes, pos))[:m]
        pos += nbytes
        out.append((cid, bits))
    return out


class MetricsLog:
    """Fixed-interval CSV rows over simulated time.

    Epoch counters land in the bucket their epoch starts in; cluster
    outcomes land in the bucket being filled when the cluster resolved.
    The error-rate column carries the last reconciled value forward so
    every row has a defined QBER once one cluster has completed.
    """

    def __init__(self, path=None, mirror=None):
        self._fh = open(path, "w") if path else None
        if self._fh:
            self._fh.write(METRICS_HEADER + "\n")
            self._fh.flush()
        self._mirror = mirror
        self._bucket = 0
        self._raw = 0
        self._sifted = 0
        self._secret = 0
        self._accidental = 0
        self._mismatched = 0
        self._qber = float("nan")
        self.rows: list[str] = []

    def _flush_bucket(self) -> None:
        t = self._bucket * METRICS_INTERVAL_S
        dt = METRICS_INTERVAL_S
        row = (f"{t:.1f},{self._raw / dt:.3f},{self._sifted / dt:.3f},"
               f"{self._secret / dt:.3f},{self._qber:.5f},"
               f"{self._accidental / dt:.3f},{self._mismatched}")
        self.rows.append(row)
        if self._fh:
            self._fh.write(row + "\n")
            self._fh.flush()
        if self._mirror:
            self._mirror(row)
        self._bucket += 1
        self._raw = self._sifted = self._secret = 0
        self._accidental = self._mismatched = 0

    def advance(self, t_s: float) -> None:
        while (self._bucket + 1) * METRICS_INTERVAL_S <= t_s:
            self._flush_bucket()

    def add_epoch(self, epoch: int, raw: int, sifted: int,
                  accidental: int) -> None:
        self.advance(epoch * EPOCH_SECONDS)
        self._raw += raw
        self._sifted += sifted
        self._accidental += accidental

    def add_cluster(self, secret_bits: int, qber: float,
                    mismatched: bool) -> None:
        self._secret += secret_bits
        self._qber = qber
        if mismatched:
            self._mismatched += 1

    def write_raw_row(self, row: str) -> None:
        self.rows.append(row)
        if self._fh:
            self._fh.write(row + "\n")
            self._fh.flush()

    def close(self, end_t_s: float | None = None) -> None:
        if end_t_s is not None:
            self.advance(end_t_s)
            if (self._raw or self._sifted or self._secret
                    or self._accidental or self._mismatched):
                self._flush_bucket()
        if self._fh:
            self._fh.close()
            self._fh = None


@dataclass
class SessionOutcome:
    role: str
    epochs: int = 0
    sifted_bits: int = 0
    secret_bits: int = 0
    clusters_ok: int = 0
    clusters_discarded: int = 0
    clusters_mismatched: int = 0
    qber_last: float = float("nan")
    model: tsync.ClockModel | None = None
    reports: list = field(default_factory=list)


def _check_hello(msg: Message, want_role: int) -> int:
    version, role, start_epoch = wire.decode_hello(msg.payload)
    if version != wire.WIRE_VERSION:
        raise ProtocolError(f"peer speaks version {version}")
    if role != want_role:
        raise ProtocolError(f"peer role {role}, expected {want_role}")
    return start_epoch


class _Station:
    """What both stations do with each batch they reconcile.

    Subclasses set ep, eta, keys and out.
    """

    def _confirm_batch(self, batch) -> list[tuple[int, bool]]:
        """Compress, confirm and store a reconciled batch.

        batch holds (bits, PA seed, report) per cluster in batch order.
        Each cluster's final length comes from this station's own report;
        the kept clusters' digests go to the peer in one KEY_HASH, whose
        reply must list the same clusters in the same order. Returns
        (secret bits, mismatched) per cluster: (0, False) when discarded.
        """
        verdicts = [(0, False)] * len(batch)
        kept = []   # (index in batch, cluster id, key, digest)
        for i, (bits, seed, report) in enumerate(batch):
            self.eta.update(report.eta)
            self.out.qber_last = report.eta
            self.out.reports.append(report)
            try:
                m = final_length(report.r, report.eta, report.c)
            except EtaDomainError:
                m = None
            if m is None:
                self.out.clusters_discarded += 1
                continue
            key = toeplitz_compress(bits, seed, m)
            kept.append((i, report.cluster_id, key, key_digest(m, key)))
        if not kept:
            return verdicts
        self.ep.send(Message(MsgType.KEY_HASH, wire.encode_records(
            MsgType.KEY_HASH, [(cid, digest) for _, cid, _, digest in kept])))
        theirs = wire.decode_records(
            MsgType.KEY_HASH, self.ep.recv_type(MsgType.KEY_HASH).payload)
        got = [cid for cid, _ in theirs]
        want = [cid for _, cid, _, _ in kept]
        if got != want:
            raise ProtocolError(f"key digests for clusters {got}, "
                                f"expected {want}")
        for (i, cid, key, digest), (_, peer_digest) in zip(kept, theirs):
            if peer_digest != digest:
                self.out.clusters_mismatched += 1
                verdicts[i] = (0, True)
                continue
            if self.keys:
                self.keys.append(cid, key)
            self.out.secret_bits += key.size
            self.out.clusters_ok += 1
            verdicts[i] = (key.size, False)
        return verdicts


class MatcherSession(_Station):
    """The station that receives timing packets and drives the pipeline."""

    def __init__(self, endpoint, stream: EventStream, *,
                 windows: WindowConfig = WindowConfig(),
                 cluster_threshold: int = CLUSTER_THRESHOLD,
                 session_seed: int = 1,
                 key_path=None, metrics_path=None):
        stream.assert_sorted()
        self.ep = PeerEndpoint(endpoint)
        self.local = stream
        self.windows = windows
        self.builder = ClusterBuilder(cluster_threshold)
        self.eta = EtaEstimator()
        self.rng = np.random.default_rng(
            np.random.SeedSequence((session_seed, 0xA17CE)))
        self.keys = KeyFileWriter(key_path) if key_path else None
        self.metrics = MetricsLog(
            metrics_path, mirror=self._mirror_metrics)
        self.model: tsync.ClockModel | None = None
        self.out = SessionOutcome(role="matcher")
        self._ready: list[Cluster] = []   # closed, awaiting their batch

    def _mirror_metrics(self, row: str) -> None:
        self.ep.send(Message(MsgType.METRICS, row.encode()))

    # -- per-epoch pipeline ------------------------------------------

    def _process_epoch(self, epoch: int, rtimes: np.ndarray,
                       rflags: np.ndarray) -> None:
        if self._ready and _interval(epoch) > _interval(
                self._ready[-1].last_epoch):
            self._run_batch()
        corrected = tsync.apply_model(self.model, rtimes)
        lo = int(corrected[0]) - self.windows.servo_half_width
        hi = int(corrected[-1]) + self.windows.servo_half_width + 1
        sl = self.local.slice_ticks(lo, hi)
        res = coinc.match(sl.times, corrected, self.windows)
        accidentals = coinc.count_accidentals(sl.times, corrected,
                                              self.windows)
        self.model, _ = tsync.servo_update(
            self.model, rtimes[res.remote_index], res.delta)
        sf = coinc.sift(res, sl.detectors, rflags)
        self.ep.send(Message(
            MsgType.COINC_REPLY,
            wire.encode_coinc_reply(epoch, sf.remote_index)))
        self.metrics.add_epoch(epoch, raw=sf.accepted_raw,
                               sifted=sf.bits.size, accidental=accidentals)
        self.out.epochs += 1
        self.out.sifted_bits += sf.bits.size
        for cluster in self.builder.push(sf.bits, epoch):
            self._ready.append(cluster)
            if cluster.cluster_id == 0:
                self._run_batch()

    def _run_batch(self) -> None:
        batch, self._ready = self._ready, []
        # an EC and a PA seed per cluster, drawn in cluster order
        seeds = [(c.cluster_id, int(self.rng.integers(1, 1 << 62)),
                  int(self.rng.integers(1, 1 << 62))) for c in batch]
        self.ep.send(Message(MsgType.BATCH_SEEDS, wire.encode_records(
            MsgType.BATCH_SEEDS, seeds)))
        reports = reconcile_reference(
            [(c.cluster_id, c.bits, ec) for c, (_, ec, _) in zip(batch, seeds)],
            self.eta.value, self.ep.send,
            lambda: self.ep.recv_type(MsgType.EC_PARITY))
        verdicts = self._confirm_batch(
            [(c.bits, pa, rep)
             for c, (_, _, pa), rep in zip(batch, seeds, reports)])
        for report, (secret, mismatched) in zip(reports, verdicts):
            self.metrics.add_cluster(secret, report.eta, mismatched)

    # -- session ------------------------------------------------------

    def run(self) -> SessionOutcome:
        first_epoch = epoch_of(int(self.local.times[0])) if len(self.local) else 0
        self.ep.send(Message(MsgType.HELLO,
                             wire.encode_hello(PROTO_ROLE_MATCHER, first_epoch)))
        _check_hello(self.ep.recv_type(MsgType.HELLO), PROTO_ROLE_STREAMER)

        pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        stream_done = False
        while len(pending) < LOCK_EPOCHS and not stream_done:
            msg = self.ep.recv_type(MsgType.TIMING, MsgType.BYE)
            if msg.type == MsgType.BYE:
                stream_done = True
                break
            pkt = wire.decode_timing(msg.payload)
            pending[pkt.epoch] = (pkt.times(), pkt.basis_flags)
        if not pending:
            raise ProtocolError("peer sent no timing data")
        sample = np.concatenate(
            [pending[e][0] for e in sorted(pending)])
        # The coarse search resolves offsets within half an epoch, so only
        # local events within one epoch of the sample span can be partners.
        # Trimming keeps the correlation background independent of session
        # length instead of drowning the peak on long runs.
        lock_lo = np.searchsorted(self.local.times,
                                  max(0, int(sample[0]) - EPOCH_TICKS))
        lock_hi = np.searchsorted(self.local.times,
                                  int(sample[-1]) + EPOCH_TICKS)
        try:
            self.model = tsync.initial_lock(self.local.times[lock_lo:lock_hi],
                                            sample,
                                            max_epochs=LOCK_EPOCHS)
        except NoPeakError as exc:
            raise ProtocolError(f"clock lock failed: {exc}") from exc
        self.out.model = self.model

        last_epoch = 0
        for e in sorted(pending):
            rt, rf = pending[e]
            self._process_epoch(e, rt, rf)
            last_epoch = e
        pending.clear()
        while not stream_done:
            msg = self.ep.recv_type(MsgType.TIMING, MsgType.BYE)
            if msg.type == MsgType.BYE:
                break
            pkt = wire.decode_timing(msg.payload)
            self._process_epoch(pkt.epoch, pkt.times(), pkt.basis_flags)
            last_epoch = pkt.epoch

        # the sub-threshold remainder is reconciled as a last, shorter
        # cluster, in one batch with whatever else is still waiting
        tail = self.builder.flush()
        if tail is not None:
            self._ready.append(tail)
        if self._ready:
            self._run_batch()
        self.out.model = self.model
        self.metrics.close((last_epoch + 1) * EPOCH_SECONDS)
        self.ep.send(Message(MsgType.BYE, b""))
        self.ep.recv_type(MsgType.BYE)
        if self.keys:
            self.keys.close()
        return self.out


class StreamerSession(_Station):
    """The station that sends timing packets and answers the pipeline."""

    def __init__(self, endpoint, stream: EventStream, *,
                 cluster_threshold: int = CLUSTER_THRESHOLD,
                 key_path=None, metrics_path=None):
        stream.assert_sorted()
        self.ep = PeerEndpoint(endpoint)
        self.stream = stream
        self.builder = ClusterBuilder(cluster_threshold)
        self.eta = EtaEstimator()
        self.keys = KeyFileWriter(key_path) if key_path else None
        self.metrics = MetricsLog(metrics_path) if metrics_path else None
        self.out = SessionOutcome(role="streamer")
        self._pending: dict[int, Cluster] = {}
        # the detectors of each epoch sent, which the replies sift
        self._detectors: dict[int, np.ndarray] = {}

    def _on_coinc_reply(self, msg: Message) -> None:
        epoch, kept = wire.decode_coinc_reply(msg.payload)
        dets = self._detectors.get(epoch)
        if dets is None:
            if kept.size:
                raise ProtocolError(f"reply for unknown epoch {epoch}")
            return
        bits = coinc.remote_bits_from_reply(dets, kept)
        self.out.sifted_bits += bits.size
        self.out.epochs += 1
        for cluster in self.builder.push(bits, epoch):
            self._pending[cluster.cluster_id] = cluster

    def _on_batch_seeds(self, msg: Message) -> None:
        batch, pa_seeds = [], []
        for cid, seed, pa_seed in wire.decode_records(MsgType.BATCH_SEEDS,
                                                      msg.payload):
            cluster = self._pending.pop(cid, None)
            if cluster is None and cid == self.builder.next_id:
                # the matcher's end-of-session cluster: this station's own
                # remainder, built from the same coincidence replies
                cluster = self.builder.flush()
            if cluster is None:
                raise ProtocolError(f"reconciliation for unknown cluster {cid}")
            batch.append((cid, cluster.bits, seed))
            pa_seeds.append(pa_seed)
        results = reconcile_correcting(
            batch, self.eta.value, self.ep.send,
            lambda: self.ep.recv_type(MsgType.EC_PARITY))
        self._confirm_batch([(bits, pa, report) for pa, (bits, report)
                             in zip(pa_seeds, results)])

    def run(self) -> SessionOutcome:
        first_epoch = epoch_of(int(self.stream.times[0])) if len(self.stream) else 0
        self.ep.send(Message(MsgType.HELLO,
                             wire.encode_hello(PROTO_ROLE_STREAMER, first_epoch)))
        _check_hello(self.ep.recv_type(MsgType.HELLO), PROTO_ROLE_MATCHER)

        deduped = wire.dedupe_ticks(self.stream)
        sent = 0
        for pkt in wire.packetize(deduped):
            self._detectors[pkt.epoch] = deduped.detectors[
                sent:sent + pkt.count]
            sent += pkt.count
            self.ep.send(Message(MsgType.TIMING, wire.encode_timing(pkt)))
        self.ep.send(Message(MsgType.BYE, b""))

        while True:
            msg = self.ep.recv()
            if msg.type == MsgType.COINC_REPLY:
                self._on_coinc_reply(msg)
            elif msg.type == MsgType.BATCH_SEEDS:
                self._on_batch_seeds(msg)
            elif msg.type == MsgType.METRICS:
                if self.metrics:
                    self.metrics.write_raw_row(msg.payload.decode())
            elif msg.type == MsgType.BYE:
                break
            else:
                raise ProtocolError(f"unexpected message {msg.type!r}")

        self.ep.send(Message(MsgType.BYE, b""))
        if self.keys:
            self.keys.close()
        if self.metrics:
            self.metrics.close()
        return self.out


def run_sessions_over_sockets(sock_matcher, sock_streamer, stream_a,
                              stream_b, matcher_kwargs, streamer_kwargs):
    """Drive both stations over a connected socket pair in one process.

    The streamer runs on a worker thread; exceptions from either side
    propagate to the caller.
    """
    io_m = MessageIO(sock_matcher)
    io_s = MessageIO(sock_streamer)
    matcher = MatcherSession(io_m, stream_a, **matcher_kwargs)
    streamer = StreamerSession(io_s, stream_b, **streamer_kwargs)
    box: dict = {}

    def _run_streamer():
        try:
            box["outcome"] = streamer.run()
        except BaseException as exc:
            box["error"] = exc

    worker = threading.Thread(target=_run_streamer, daemon=True)
    worker.start()
    try:
        outcome_m = matcher.run()
    finally:
        # a matcher that returns has the streamer's last message; one that
        # raised may leave the streamer waiting, so close before joining
        io_m.close()
        io_s.close()
        worker.join(timeout=300.0)
    if "error" in box:
        raise box["error"]
    if "outcome" not in box:
        raise ProtocolError("streamer session did not finish")
    return outcome_m, box["outcome"]

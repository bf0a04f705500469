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
from dataclasses import dataclass, field

import numpy as np

from . import coinc, tsync, wire
from .channel import PeerEndpoint
from .coinc import WindowConfig
from .core import EPOCH_SECONDS, EPOCH_TICKS, EventStream
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

    def append(self, cluster_id: int, bits: np.ndarray) -> None:
        bits = np.asarray(bits, dtype=np.uint8)
        self._fh.write(_KEY_REC.pack(cluster_id, bits.size))
        self._fh.write(np.packbits(bits).tobytes())
        self._fh.flush()

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
    """Fixed-interval metrics rows over simulated time, each handed to
    `emit` as a CSV line once its interval is over.

    Epoch counters land in the bucket their epoch starts in; cluster
    outcomes land in the bucket being filled when the cluster resolved.
    The error-rate column carries the last reconciled value forward so
    every row has a defined QBER once one cluster has completed.
    """

    def __init__(self, emit):
        self._emit = emit
        self._bucket = 0
        self._raw = 0
        self._sifted = 0
        self._secret = 0
        self._accidental = 0
        self._mismatched = 0
        self._qber = float("nan")

    def _flush_bucket(self) -> None:
        t = self._bucket * METRICS_INTERVAL_S
        dt = METRICS_INTERVAL_S
        self._emit(f"{t:.1f},{self._raw / dt:.3f},{self._sifted / dt:.3f},"
                   f"{self._secret / dt:.3f},{self._qber:.5f},"
                   f"{self._accidental / dt:.3f},{self._mismatched}")
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

    def close(self, end_t_s: float) -> None:
        """Emit every row up to end_t_s, and the last, partial one if it
        counted anything."""
        self.advance(end_t_s)
        if (self._raw or self._sifted or self._secret
                or self._accidental or self._mismatched):
            self._flush_bucket()


@dataclass
class SessionOutcome:
    role: str
    epochs: int = 0
    sifted_bits: int = 0
    secret_bits: int = 0
    clusters_ok: int = 0
    clusters_discarded: int = 0
    clusters_mismatched: int = 0
    reports: list = field(default_factory=list)

    @property
    def qber_last(self) -> float:
        """The error rate of the last cluster reconciled, NaN before one."""
        return self.reports[-1].eta if self.reports else float("nan")


class _Station:
    """What both stations share: the peer, the cluster builder, the
    error-rate estimate, the key file, the metrics CSV and the outcome;
    the session's lifecycle; and what each station does with a batch it
    reconciles.

    Subclasses set ROLE, PEER_ROLE and NAME, and implement _session.
    """

    ROLE: int
    PEER_ROLE: int
    NAME: str

    def __init__(self, endpoint, stream: EventStream, cluster_threshold: int,
                 key_path, metrics_path):
        stream.assert_sorted()
        self.ep = PeerEndpoint(endpoint)
        self.stream = stream
        self.builder = ClusterBuilder(cluster_threshold)
        self.eta = EtaEstimator()
        self._key_path = key_path
        self._metrics_path = metrics_path
        self.keys: KeyFileWriter | None = None
        self._csv = None
        self.out = SessionOutcome(role=self.NAME)

    def run(self) -> SessionOutcome:
        """Open the key file and the metrics CSV, exchange HELLO with the
        peer, then run this station's session.

        Whatever was opened is closed however the session ends.
        """
        try:
            if self._key_path:
                self.keys = KeyFileWriter(self._key_path)
            if self._metrics_path:
                self._csv = open(self._metrics_path, "w")
                self._write_row(METRICS_HEADER)
            self.ep.send(Message(MsgType.HELLO, wire.encode_hello(self.ROLE)))
            version, role = wire.decode_hello(
                self.ep.recv_type(MsgType.HELLO).payload)
            if version != wire.WIRE_VERSION:
                raise ProtocolError(f"peer speaks version {version}")
            if role != self.PEER_ROLE:
                raise ProtocolError(f"peer role {role}, expected {self.PEER_ROLE}")
            self._session()
        finally:
            if self.keys:
                self.keys.close()
            if self._csv:
                self._csv.close()
        return self.out

    def _write_row(self, row: str) -> None:
        """Append one line to the metrics CSV, if this station keeps one."""
        if self._csv:
            self._csv.write(row + "\n")
            self._csv.flush()

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

    ROLE, PEER_ROLE, NAME = PROTO_ROLE_MATCHER, PROTO_ROLE_STREAMER, "matcher"

    def __init__(self, endpoint, stream: EventStream, *,
                 windows: WindowConfig = WindowConfig(),
                 cluster_threshold: int = CLUSTER_THRESHOLD,
                 session_seed: int = 1,
                 key_path=None, metrics_path=None):
        super().__init__(endpoint, stream, cluster_threshold, key_path,
                         metrics_path)
        self.windows = windows
        self.rng = np.random.default_rng(
            np.random.SeedSequence((session_seed, 0xA17CE)))
        self.model: tsync.ClockModel | None = None
        self._ready: list[Cluster] = []   # closed, awaiting their batch
        self.metrics = MetricsLog(self._emit_metrics)

    def _emit_metrics(self, row: str) -> None:
        # kept without a file too: the streamer writes every row it is sent
        self._write_row(row)
        self.ep.send(Message(MsgType.METRICS, row.encode()))

    # -- per-epoch pipeline ------------------------------------------

    def _lock(self, held) -> None:
        if not held:
            raise ProtocolError("peer sent no timing data")
        sample = np.concatenate([rtimes for _, rtimes, _ in held])
        # The coarse search resolves offsets within half an epoch, so only
        # local events within one epoch of the sample span can be partners.
        # Trimming keeps the correlation background independent of session
        # length instead of drowning the peak on long runs.
        times = self.stream.times
        lock_lo = np.searchsorted(times, max(0, int(sample[0]) - EPOCH_TICKS))
        lock_hi = np.searchsorted(times, int(sample[-1]) + EPOCH_TICKS)
        try:
            self.model = tsync.initial_lock(times[lock_lo:lock_hi], sample,
                                            max_epochs=LOCK_EPOCHS)
        except NoPeakError as exc:
            raise ProtocolError(f"clock lock failed: {exc}") from exc

    def _process_epoch(self, epoch: int, rtimes: np.ndarray,
                       rflags: np.ndarray) -> None:
        if self._ready and _interval(epoch) > _interval(
                self._ready[-1].last_epoch):
            self._run_batch()
        corrected = tsync.apply_model(self.model, rtimes)
        lo = int(corrected[0]) - self.windows.servo_half_width
        hi = int(corrected[-1]) + self.windows.servo_half_width + 1
        sl = self.stream.slice_ticks(lo, hi)
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

    def _session(self) -> None:
        # The first LOCK_EPOCHS packets (fewer if BYE comes first) are held
        # until they have locked the clocks; every packet is then processed
        # in arrival order.
        held = []   # (epoch, times, basis flags) per packet
        last_epoch = 0
        while True:
            msg = self.ep.recv_type(MsgType.TIMING, MsgType.BYE)
            if msg.type == MsgType.TIMING:
                pkt = wire.decode_timing(msg.payload)
                held.append((pkt.epoch, pkt.times(), pkt.basis_flags))
                if self.model is None and len(held) < LOCK_EPOCHS:
                    continue
            if self.model is None:
                self._lock(held)
            for epoch, rtimes, rflags in held:
                self._process_epoch(epoch, rtimes, rflags)
                last_epoch = epoch
            held.clear()
            if msg.type == MsgType.BYE:
                break

        # the sub-threshold remainder is reconciled as a last, shorter
        # cluster, in one batch with whatever else is still waiting
        tail = self.builder.flush()
        if tail is not None:
            self._ready.append(tail)
        if self._ready:
            self._run_batch()
        self.metrics.close((last_epoch + 1) * EPOCH_SECONDS)
        self.ep.send(Message(MsgType.BYE, b""))
        self.ep.recv_type(MsgType.BYE)


class StreamerSession(_Station):
    """The station that sends timing packets and answers the pipeline."""

    ROLE, PEER_ROLE, NAME = PROTO_ROLE_STREAMER, PROTO_ROLE_MATCHER, "streamer"

    def __init__(self, endpoint, stream: EventStream, *,
                 cluster_threshold: int = CLUSTER_THRESHOLD,
                 key_path=None, metrics_path=None):
        super().__init__(endpoint, stream, cluster_threshold, key_path,
                         metrics_path)
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

    def _session(self) -> None:
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
                self._write_row(msg.payload.decode())
            elif msg.type == MsgType.BYE:
                break
            else:
                raise ProtocolError(f"unexpected message {msg.type!r}")

        self.ep.send(Message(MsgType.BYE, b""))

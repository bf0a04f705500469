import configparser
import gc
import hashlib
import math
import socket
import threading
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ec_pair import reconcile_pair
from entkd import app, cli, node
from entkd.channel import MessageIO
from entkd.core import EPOCH_TICKS, EventStream
from entkd.node import (METRICS_HEADER, PROTO_ROLE_MATCHER,
                        PROTO_ROLE_STREAMER, KeyFileWriter, MatcherSession,
                        MetricsLog, StreamerSession, read_key_file)
from entkd.physim import read_stream_dump, simulate_link, write_stream_dump
from entkd.privamp import final_length
from entkd.wire import (WIRE_VERSION, Message, MsgType, ProtocolError,
                        decode_ec_parity, decode_hello, decode_records,
                        decode_timing, encode_coinc_reply, encode_hello,
                        encode_records)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _write_ini(path, *, duration=3.0, seed=11, pair_rate=3000.0,
               vis_hv=1.0, vis_da=1.0, eff_a=1.0, eff_b=1.0,
               jitter=0.0, darks=0.0, offset=40_000_000, drift=2e-7,
               cluster_bits=500, keys_a=None, keys_b=None,
               metrics_a=None, metrics_b=None, stream_a=None, stream_b=None):
    lines = [
        "[session]", f"duration = {duration}", f"seed = {seed}",
        "[source]", f"pair_rate = {pair_rate}",
        f"visibility_hv = {vis_hv}", f"visibility_da = {vis_da}",
        "[alice]", f"efficiency = {eff_a}", f"jitter_sigma = {jitter}",
        f"dark_rate = {darks}",
        "[bob]", f"efficiency = {eff_b}", f"jitter_sigma = {jitter}",
        f"dark_rate = {darks}", f"clock_offset = {offset}",
        f"clock_drift = {drift}",
        "[ecorr]", f"cluster_bits = {cluster_bits}",
    ]
    out = []
    for k, v in (("keys_alice", keys_a), ("keys_bob", keys_b),
                 ("metrics_alice", metrics_a), ("metrics_bob", metrics_b)):
        if v is not None:
            out.append(f"{k} = {v}")
    if out:
        lines.append("[output]")
        lines.extend(out)
    if stream_a is not None:
        lines += ["[streams]", f"alice = {stream_a}", f"bob = {stream_b}"]
    path.write_text("\n".join(lines) + "\n")
    return path


def _key_bits(path):
    return {cid: bits.tobytes() for cid, bits in read_key_file(path)}


# ---------------------------------------------------------------------------
# key files


def test_key_file_roundtrip(tmp_path):
    p = tmp_path / "k.etky"
    w = KeyFileWriter(p)
    rng = np.random.default_rng(0)
    recs = [(0, rng.integers(0, 2, 423, dtype=np.uint8)),
            (1, rng.integers(0, 2, 1, dtype=np.uint8)),
            (7, rng.integers(0, 2, 64, dtype=np.uint8))]
    for cid, bits in recs:
        w.append(cid, bits)
    w.close()
    back = read_key_file(p)
    assert [(cid, bits.tolist()) for cid, bits in back] == \
        [(cid, bits.tolist()) for cid, bits in recs]


def test_key_file_errors(tmp_path):
    bad = tmp_path / "bad"
    bad.write_bytes(b"NOPE\x01\x00")
    with pytest.raises(ValueError):
        read_key_file(bad)
    p = tmp_path / "k.etky"
    w = KeyFileWriter(p)
    w.append(0, np.ones(20, dtype=np.uint8))
    w.close()
    blob = p.read_bytes()
    (tmp_path / "cut").write_bytes(blob[:-1])
    with pytest.raises(ValueError):
        read_key_file(tmp_path / "cut")
    (tmp_path / "hdr").write_bytes(blob[:7])
    with pytest.raises(ValueError):
        read_key_file(tmp_path / "hdr")
    (tmp_path / "ver").write_bytes(b"ETKY\x63\x00")
    with pytest.raises(ValueError):
        read_key_file(tmp_path / "ver")


# ---------------------------------------------------------------------------
# metrics


def test_metrics_log_bucketing():
    lines = []
    log = MetricsLog(lines.append)
    log.add_epoch(0, raw=100, sifted=50, accidental=5)    # t = 0.0 s
    log.add_epoch(19, raw=40, sifted=20, accidental=1)    # t = 10.2 s
    log.add_cluster(secret_bits=30, qber=0.0625, mismatched=False)
    log.add_cluster(secret_bits=0, qber=0.07, mismatched=True)
    log.close(25.0)
    rows = [line.split(",") for line in lines]
    assert all(len(row) == len(METRICS_HEADER.split(",")) for row in rows)
    assert len(rows) == 2
    # bucket 0: only the first epoch; error rate still undefined
    assert rows[0][0] == "0.0"
    assert float(rows[0][1]) == pytest.approx(10.0)   # 100 counts / 10 s
    assert float(rows[0][2]) == pytest.approx(5.0)
    assert rows[0][4] == "nan"
    assert rows[0][6] == "0"
    # bucket 1: second epoch plus both cluster outcomes
    assert rows[1][0] == "10.0"
    assert float(rows[1][3]) == pytest.approx(3.0)    # 30 bits / 10 s
    assert float(rows[1][4]) == pytest.approx(0.07)   # carries the latest
    assert rows[1][6] == "1"


def test_metrics_qber_carry_forward():
    rows = []
    log = MetricsLog(rows.append)
    log.add_cluster(10, 0.04, False)
    log.advance(35.0)
    assert len(rows) == 3
    assert all(row.split(",")[4] == "0.04000" for row in rows)


# ---------------------------------------------------------------------------
# end-to-end over the in-process loopback


def test_loopback_noiseless(tmp_path):
    cfg = app.load_config(_write_ini(
        tmp_path / "s.ini",
        keys_a=tmp_path / "a.etky", keys_b=tmp_path / "b.etky",
        metrics_a=tmp_path / "a.csv", metrics_b=tmp_path / "b.csv"))
    out_m, out_s = app.run_loopback(cfg)

    assert out_m.epochs > 0 and out_m.epochs == out_s.epochs
    assert out_m.sifted_bits == out_s.sifted_bits > 0
    assert out_m.qber_last == 0.0 and out_s.qber_last == 0.0
    assert out_m.clusters_ok == out_s.clusters_ok > 0
    assert out_m.clusters_discarded == 0
    assert out_m.clusters_mismatched == 0 == out_s.clusters_mismatched

    ka, kb = _key_bits(tmp_path / "a.etky"), _key_bits(tmp_path / "b.etky")
    assert ka == kb and len(ka) == out_m.clusters_ok
    assert sum(len(v) * 8 >= 1 for v in ka.values())

    # every accepted coincidence pairs a true pair: with perfect efficiency,
    # no darks, and no jitter the sifted bits agree before correction, so
    # reconciliation reports zero errors
    assert all(rep.errors_found == 0 for rep in out_m.reports)

    # metrics: bob's file mirrors alice's rows exactly
    a_rows = (tmp_path / "a.csv").read_text().strip().split("\n")
    b_rows = (tmp_path / "b.csv").read_text().strip().split("\n")
    assert a_rows[0] == b_rows[0]
    assert a_rows[1:] == b_rows[1:]
    assert len(a_rows) >= 2


def test_loopback_determinism(tmp_path):
    files = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        cfg = app.load_config(_write_ini(
            d / "s.ini", keys_a=d / "a.etky", keys_b=d / "b.etky",
            metrics_a=d / "a.csv"))
        app.run_loopback(cfg)
        files.append((
            (d / "a.etky").read_bytes(),
            (d / "b.etky").read_bytes(),
            (d / "a.csv").read_bytes(),
        ))
    assert files[0] == files[1]


def _count_sent(monkeypatch) -> Counter:
    """Count the messages both stations send, by type."""
    sent = Counter()
    orig_send = MessageIO.send

    def counting_send(self, msg):
        sent[msg.type] += 1
        return orig_send(self, msg)

    monkeypatch.setattr(MessageIO, "send", counting_send)
    return sent


def test_loopback_batches_deterministic_and_fewer_round_trips(
        tmp_path, monkeypatch):
    # a noisy link over three metrics intervals: the first cluster goes
    # alone, then one batch per interval, the last one with the tail
    sent = _count_sent(monkeypatch)
    batches = {}

    def recording(name):
        orig = getattr(node, name)

        def run(batch, eta_est, send, recv):
            batches[name].append(([(c, b.copy(), s) for c, b, s in batch],
                                  eta_est))
            return orig(batch, eta_est, send, recv)
        monkeypatch.setattr(node, name, run)

    recording("reconcile_reference")
    recording("reconcile_correcting")
    runs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        sent.clear()
        batches.update(reconcile_reference=[], reconcile_correcting=[])
        cfg = app.load_config(_write_ini(
            d / "s.ini", duration=21.0, seed=5, pair_rate=2000.0,
            vis_hv=0.86, vis_da=0.86, jitter=3.36, darks=200.0,
            cluster_bits=500, keys_a=d / "a.etky", keys_b=d / "b.etky"))
        out_m, _ = app.run_loopback(cfg)
        ids = [[c for c, _, _ in batch]
               for batch, _ in batches["reconcile_reference"]]
        runs.append(((d / "a.etky").read_bytes(), (d / "b.etky").read_bytes(),
                     sent[MsgType.EC_PARITY], ids))
    assert runs[0] == runs[1]
    assert runs[0][0] == runs[0][1] and out_m.secret_bits > 0
    ids = runs[0][3]
    assert ids[0] == [0] and len(ids) == 4
    assert [c for batch in ids for c in batch] == list(range(len(
        out_m.reports)))
    # one seed announcement per batch, one digest list from each station
    # per batch that keeps a cluster, and no message with the unassigned
    # tag 6
    kept = [any(final_length(out_m.reports[c].r, out_m.reports[c].eta,
                             out_m.reports[c].c) is not None for c in batch)
            for batch in ids]
    assert 6 not in {int(t) for t in sent}
    assert sent[MsgType.BATCH_SEEDS] == len(ids)
    assert sent[MsgType.KEY_HASH] == 2 * sum(kept) > 0

    # every cluster replayed alone, on the same bits, seed and estimate
    alone = 0
    pairs = zip(batches["reconcile_reference"],
                batches["reconcile_correcting"])
    for (ref_batch, eta), (cor_batch, eta_cor) in pairs:
        assert eta == eta_cor
        for (cid, ref, seed), (cid_cor, cor, seed_cor) in zip(ref_batch,
                                                              cor_batch):
            assert (cid, seed) == (cid_cor, seed_cor)
            transcript = []
            _, rep, _ = reconcile_pair(ref, cor, cid, seed, eta, transcript)
            assert rep == out_m.reports[cid]
            alone += len(transcript)
    assert runs[0][2] < alone / 3


# SHA-256 of each station's key file from configs/nominal_run.ini. A change
# that alters the keys on purpose updates this digest and says so, with
# the reason, in CHANGES.md.
NOMINAL_KEYS_SHA256 = (
    "c5282e57b625aab9d4e3f8026f1acb4806c22befb3c420bf50442364d9ace18c")


def test_nominal_keys_golden(tmp_path):
    cfg = app.load_config(CONFIG_DIR / "nominal_run.ini")
    cfg.keys_alice = str(tmp_path / "a.etky")
    cfg.keys_bob = str(tmp_path / "b.etky")
    cfg.metrics_alice = cfg.metrics_bob = None
    app.run_loopback(cfg)
    for name in ("a.etky", "b.etky"):
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == NOMINAL_KEYS_SHA256, name


# SHA-256 of each station's metrics CSV from configs/nominal_run.ini: the
# streamer writes the rows the matcher sends it, so the two files are the
# same bytes. Updated, with the reason in CHANGES.md, like the key digest.
NOMINAL_METRICS_SHA256 = (
    "fbdc13347327b2a92134f5b7df821f2bba00a1a0be512e14dbdc663e995cb6da")


def test_nominal_metrics_golden(tmp_path):
    cfg = app.load_config(CONFIG_DIR / "nominal_run.ini")
    cfg.keys_alice = cfg.keys_bob = None
    cfg.metrics_alice = str(tmp_path / "a.csv")
    cfg.metrics_bob = str(tmp_path / "b.csv")
    app.run_loopback(cfg)
    a, b = (tmp_path / "a.csv").read_bytes(), (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert hashlib.sha256(a).hexdigest() == NOMINAL_METRICS_SHA256


def test_loopback_noisy_secrecy_ledger(tmp_path):
    cfg = app.load_config(_write_ini(
        tmp_path / "s.ini", duration=6.0, seed=23, pair_rate=8000.0,
        vis_hv=0.9, vis_da=0.9, eff_a=0.35, eff_b=0.35, jitter=3.36,
        darks=300.0, offset=40_000_000, drift=3e-7, cluster_bits=1000,
        keys_a=tmp_path / "a.etky", keys_b=tmp_path / "b.etky"))
    out_m, out_s = app.run_loopback(cfg)

    assert out_m.clusters_ok == out_s.clusters_ok >= 2
    assert out_m.clusters_mismatched == 0 == out_s.clusters_mismatched
    assert 0.02 < out_m.qber_last < 0.12
    # the sub-threshold tail is reconciled too: the clusters cover every
    # sifted bit, and the last one is shorter than the threshold
    assert [rep.r for rep in out_m.reports] == [rep.r for rep in out_s.reports]
    assert sum(rep.r for rep in out_m.reports) == out_m.sifted_bits
    assert out_m.sifted_bits == out_s.sifted_bits
    assert 0 < out_m.reports[-1].r < 1000

    ka, kb = _key_bits(tmp_path / "a.etky"), _key_bits(tmp_path / "b.etky")
    assert ka == kb

    # secrecy ledger: every written record must be exactly the budget
    # m = r - ceil(r * knowledge_fraction(eta)) - c of its own cluster,
    # and the file totals must equal the session counters
    total = 0
    for rep_m, rep_s in zip(out_m.reports, out_s.reports):
        assert rep_m.cluster_id == rep_s.cluster_id
        assert rep_m.c == rep_s.c
        assert rep_m.errors_found == rep_s.errors_found
        m = final_length(rep_m.r, rep_m.eta, rep_m.c)
        if rep_m.cluster_id in ka:
            assert m is not None and len(ka[rep_m.cluster_id]) == m
            total += m
    assert total == out_m.secret_bits == out_s.secret_bits
    assert sum(b.size for _, b in read_key_file(tmp_path / "a.etky")) == total


def test_disclosed_bits_audited_from_the_wire(tmp_path, monkeypatch):
    # every station's c for every cluster equals the counted parity bits
    # its EC_PARITY frames carried, summed from the raw frames alone
    sent = {}   # MessageIO -> every message it sent, HELLO first

    def send(self, msg, orig=MessageIO.send):
        sent.setdefault(self, []).append(msg)
        return orig(self, msg)

    monkeypatch.setattr(MessageIO, "send", send)
    cfg = app.load_config(_write_ini(
        tmp_path / "s.ini", duration=6.0, seed=23, pair_rate=8000.0,
        vis_hv=0.9, vis_da=0.9, eff_a=0.35, eff_b=0.35, jitter=3.36,
        darks=300.0, cluster_bits=1000))
    out_m, out_s = app.run_loopback(cfg)

    counted = {}   # sender role -> cluster id -> counted bits
    for msgs in sent.values():
        _, role = decode_hello(msgs[0].payload)
        tally = counted.setdefault(role, Counter())
        for msg in msgs:
            if msg.type == MsgType.EC_PARITY:
                for sec in decode_ec_parity(msg.payload):
                    if sec.counted:
                        tally[sec.cluster_id] += len(sec.bits)
    assert sorted(counted) == [PROTO_ROLE_MATCHER, PROTO_ROLE_STREAMER]
    # only the reference side, the matcher, discloses counted parities
    assert not counted[PROTO_ROLE_STREAMER]
    audit = dict(counted[PROTO_ROLE_MATCHER])
    assert len(audit) >= 3 and sum(r.errors_found for r in out_m.reports) > 0
    for out in (out_m, out_s):
        assert {rep.cluster_id: rep.c for rep in out.reports} == audit


def test_loopback_discard_path(tmp_path, monkeypatch):
    # each station decides on its own which clusters to discard; both must
    # reach the same verdicts and the session must still end cleanly
    sent = _count_sent(monkeypatch)
    batches = []
    orig_reference = node.reconcile_reference

    def recording(batch, eta_est, send, recv):
        batches.append([cid for cid, _, _ in batch])
        return orig_reference(batch, eta_est, send, recv)

    monkeypatch.setattr(node, "reconcile_reference", recording)

    def run(tag, vis):
        d = tmp_path / tag
        d.mkdir()
        sent.clear()
        batches.clear()
        cfg = app.load_config(_write_ini(
            d / "s.ini", duration=12.0, seed=5, pair_rate=2000.0,
            vis_hv=vis, vis_da=vis, cluster_bits=500,
            keys_a=d / "a.etky", keys_b=d / "b.etky",
            metrics_a=d / "a.csv", metrics_b=d / "b.csv"))
        out_m, out_s = app.run_loopback(cfg)
        assert out_m.clusters_discarded == out_s.clusters_discarded
        assert out_m.clusters_mismatched == 0 == out_s.clusters_mismatched
        assert out_m.clusters_ok == out_s.clusters_ok
        assert out_m.secret_bits == out_s.secret_bits
        assert (d / "a.csv").read_text() == (d / "b.csv").read_text()
        keep = {rep.cluster_id for rep in out_m.reports
                if final_length(rep.r, rep.eta, rep.c) is not None}
        assert out_m.clusters_ok == len(keep)
        assert out_m.clusters_discarded == len(out_m.reports) - len(keep)
        ka, kb = _key_bits(d / "a.etky"), _key_bits(d / "b.etky")
        assert ka == kb and set(ka) == keep
        assert sent[MsgType.KEY_HASH] == 2 * sum(
            any(cid in keep for cid in batch) for batch in batches)
        return d, out_m, keep

    # ~20 % errors: every cluster's budget is spent, so nothing is written
    # and no digest is exchanged
    d, out_m, keep = run("dark", 0.6)
    assert not keep and out_m.clusters_discarded == len(out_m.reports) > 2
    assert out_m.secret_bits == 0
    for name in ("a.etky", "b.etky"):
        assert (d / name).read_bytes() == b"ETKY\x01\x00"  # header only
    assert sent[MsgType.KEY_HASH] == 0
    assert all(row.endswith(",0") for row in
               (d / "a.csv").read_text().splitlines()[1:])

    # ~12 % errors: some clusters of one batch are kept, some discarded
    _, out_m, keep = run("dim", 0.75)
    assert 0 < len(keep) < len(out_m.reports)
    assert any(0 < sum(cid in keep for cid in batch) < len(batch)
               for batch in batches)


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_cross_mode_key_equality(tmp_path):
    # the same configuration over TCP must yield byte-identical keys to the
    # single-process loopback run
    loop_dir = tmp_path / "loop"
    tcp_dir = tmp_path / "tcp"
    loop_dir.mkdir(), tcp_dir.mkdir()

    cfg_loop = app.load_config(_write_ini(
        loop_dir / "s.ini", keys_a=loop_dir / "a.etky",
        keys_b=loop_dir / "b.etky"))
    app.run_loopback(cfg_loop)

    cfg_tcp = app.load_config(_write_ini(
        tcp_dir / "s.ini", keys_a=tcp_dir / "a.etky",
        keys_b=tcp_dir / "b.etky"))
    port = _free_port()
    box = {}

    def _serve():
        try:
            box["out"] = app.run_matcher_tcp(cfg_tcp, f"127.0.0.1:{port}",
                                             timeout=60.0)
        except BaseException as exc:
            box["err"] = exc

    server = threading.Thread(target=_serve, daemon=True)
    server.start()
    out_s = None
    for _ in range(100):
        try:
            out_s = app.run_streamer_tcp(cfg_tcp, f"127.0.0.1:{port}",
                                         timeout=60.0)
            break
        except OSError:
            time.sleep(0.1)
    server.join(timeout=120)
    assert "err" not in box, box.get("err")
    assert out_s is not None and not server.is_alive()

    assert _key_bits(loop_dir / "a.etky") == _key_bits(tcp_dir / "a.etky")
    assert _key_bits(loop_dir / "b.etky") == _key_bits(tcp_dir / "b.etky")
    assert box["out"].secret_bits == out_s.secret_bits > 0


# ---------------------------------------------------------------------------
# adversarial paths, driven over a socket pair


class _TamperEndpoint:
    """Endpoint wrapper that mutates selected outgoing messages."""

    def __init__(self, inner, mutate):
        self._inner = inner
        self._mutate = mutate

    def send(self, msg):
        self._inner.send(self._mutate(msg))

    def recv(self, timeout=60.0):
        return self._inner.recv(timeout)

    def close(self):
        self._inner.close()


def _io_pair():
    s1, s2 = socket.socketpair()
    return MessageIO(s1), MessageIO(s2)


def _small_link(seed=31):
    from entkd.physim import SideConfig, SourceConfig
    src = SourceConfig(pair_rate=2000.0, duration=2.0, rng_seed=seed,
                       visibility_hv=1.0, visibility_da=1.0)
    side = SideConfig(efficiency=1.0, detector_delays=(0, 0, 0, 0))
    sa, sb = simulate_link(src, side, side)
    return sa, sb


def _run_pair(matcher_ep, streamer_ep, stream_a, stream_b, tmp_path,
              expect_streamer_error=None):
    matcher = MatcherSession(matcher_ep, stream_a, cluster_threshold=400,
                             key_path=tmp_path / "a.etky")
    streamer = StreamerSession(streamer_ep, stream_b, cluster_threshold=400,
                               key_path=tmp_path / "b.etky")
    box = {}

    def _stream():
        try:
            box["out"] = streamer.run()
        except BaseException as exc:
            box["err"] = exc
            streamer_ep.close()  # unblock the peer right away

    worker = threading.Thread(target=_stream, daemon=True)
    worker.start()
    try:
        out_m = matcher.run()
        err_m = None
    except BaseException as exc:
        out_m, err_m = None, exc
    finally:
        matcher_ep.close()
        streamer_ep.close()
        worker.join(timeout=60)
    return out_m, err_m, box


def test_mitm_key_hash_flip_counts_mismatch(tmp_path):
    sa, sb = _small_link()
    io_m, io_s = _io_pair()

    def flip_digest(msg):
        if msg.type == MsgType.KEY_HASH:
            # every digest of the batch's list, cluster ids untouched
            flipped = [(cid, digest ^ 1) for cid, digest
                       in decode_records(MsgType.KEY_HASH, msg.payload)]
            return Message(msg.type,
                           encode_records(MsgType.KEY_HASH, flipped))
        return msg

    out_m, err_m, box = _run_pair(
        _TamperEndpoint(io_m, flip_digest),
        _TamperEndpoint(io_s, flip_digest),
        sa, sb, tmp_path)

    assert err_m is None and "err" not in box
    out_s = box["out"]
    # verification fails on every cluster, on both stations, and the
    # session still completes cleanly with nothing written
    assert out_m.clusters_ok == 0 == out_s.clusters_ok
    assert out_m.clusters_mismatched == out_s.clusters_mismatched > 0
    assert out_m.secret_bits == 0 == out_s.secret_bits
    assert _key_bits(tmp_path / "a.etky") == {}
    assert _key_bits(tmp_path / "b.etky") == {}


def test_tampered_pa_seed_mismatches_one_cluster(tmp_path):
    sa, sb = _small_link(seed=32)
    io_m, io_s = _io_pair()
    victim = 2   # a cluster of the last batch, which holds several

    def tamper_seed(msg):
        if msg.type == MsgType.BATCH_SEEDS:
            seeds = [(cid, ec, pa ^ 1 if cid == victim else pa) for cid, ec, pa
                     in decode_records(MsgType.BATCH_SEEDS, msg.payload)]
            return Message(msg.type,
                           encode_records(MsgType.BATCH_SEEDS, seeds))
        return msg

    out_m, err_m, box = _run_pair(
        _TamperEndpoint(io_m, tamper_seed), io_s, sa, sb, tmp_path)

    # the streamer compresses the victim with another matrix: its digest
    # disagrees on both stations, and only that cluster is lost
    assert err_m is None and "err" not in box
    out_s = box["out"]
    assert len(out_m.reports) > victim + 1
    assert out_m.clusters_mismatched == 1 == out_s.clusters_mismatched
    assert out_m.clusters_ok == out_s.clusters_ok == len(out_m.reports) - 1
    ka, kb = _key_bits(tmp_path / "a.etky"), _key_bits(tmp_path / "b.etky")
    assert ka == kb
    assert set(ka) == set(range(len(out_m.reports))) - {victim}


def test_key_hash_must_list_the_kept_clusters_in_order(tmp_path):
    sa, sb = _small_link(seed=32)
    edits = (lambda recs: recs[::-1],              # same ids, out of order
             lambda recs: recs + [(999, 5)],       # a foreign cluster
             lambda recs: recs[:-1])               # one cluster missing
    for n, edit in enumerate(edits):
        d = tmp_path / str(n)
        d.mkdir()

        def tamper(msg, edit=edit):
            if msg.type == MsgType.KEY_HASH:
                recs = decode_records(MsgType.KEY_HASH, msg.payload)
                if len(recs) > 1:
                    return Message(msg.type, encode_records(
                        MsgType.KEY_HASH, edit(recs)))
            return msg

        io_m, io_s = _io_pair()
        _, _, box = _run_pair(_TamperEndpoint(io_m, tamper), io_s, sa, sb, d)
        assert isinstance(box.get("err"), ProtocolError), n
        assert "key digests for clusters" in str(box["err"])


def test_streamer_bound_applies_to_tail_cluster(tmp_path):
    sa, sb = _small_link(seed=32)
    out_m, err_m, box = _run_pair(*_io_pair(), sa, sb, tmp_path)
    assert err_m is None and "err" not in box
    tail = out_m.reports[-1]
    assert tail.r < 400  # the end-of-session remainder, below the threshold
    # each station sizes the tail's key from its own report
    for out, name in ((out_m, "a.etky"), (box["out"], "b.etky")):
        own = out.reports[-1]
        assert own.cluster_id == tail.cluster_id
        m = final_length(own.r, own.eta, own.c)
        cid, bits = read_key_file(tmp_path / name)[-1]
        assert cid == tail.cluster_id and m is not None and bits.size == m


def _start_streamer(io_s, stream, **kwargs):
    """Run a StreamerSession on io_s in a worker; the test scripts its peer."""
    streamer = StreamerSession(io_s, stream, **kwargs)
    box = {}

    def _stream():
        try:
            box["out"] = streamer.run()
        except BaseException as exc:
            box["err"] = exc

    worker = threading.Thread(target=_stream, daemon=True)
    worker.start()
    return worker, box


def test_streamer_rejects_ec_seed_for_unknown_cluster():
    # The streamer reconciles a cluster it has not emitted only when the
    # seed names its builder's next id (the matcher's end-of-session tail)
    # and that builder holds bits. Any other id is refused.
    _, sb = _small_link(seed=33)
    for bad_cid, sift in ((1, True), (0, False)):
        peer, io_s = _io_pair()
        worker, box = _start_streamer(io_s, sb, cluster_threshold=10**6)
        peer.send(Message(MsgType.HELLO, encode_hello(PROTO_ROLE_MATCHER)))
        assert decode_hello(peer.recv().payload)[1] == PROTO_ROLE_STREAMER
        first = None
        while (msg := peer.recv()).type == MsgType.TIMING:
            first = first or decode_timing(msg.payload)
        assert msg.type == MsgType.BYE
        if sift:
            # some sifted bits below the threshold: next id 0 is the tail
            kept = np.arange(min(40, first.count), dtype=np.int64)
            peer.send(Message(MsgType.COINC_REPLY,
                              encode_coinc_reply(first.epoch, kept)))
        peer.send(Message(MsgType.BATCH_SEEDS, encode_records(
            MsgType.BATCH_SEEDS, [(bad_cid, 12345, 678)])))
        worker.join(timeout=30)
        peer.close()
        io_s.close()
        assert not worker.is_alive()
        assert isinstance(box.get("err"), ProtocolError), (bad_cid, box)
        assert "unknown cluster" in str(box["err"])


def test_hello_with_wrong_version_is_refused():
    sa, sb = _small_link(seed=34)
    # 3 is the last version with one EC_PARITY message per cluster
    for other in sorted({3, WIRE_VERSION - 1, WIRE_VERSION + 1}):
        # a matcher turns away a streamer that speaks another version
        io_m, peer = _io_pair()
        matcher = MatcherSession(io_m, sa)
        peer.send(Message(MsgType.HELLO, encode_hello(
            PROTO_ROLE_STREAMER, version=other)))
        with pytest.raises(ProtocolError, match=f"version {other}"):
            matcher.run()
        assert decode_hello(peer.recv().payload)[0] == WIRE_VERSION
        io_m.close()
        peer.close()

        # and a streamer turns away such a matcher before any timing data
        peer, io_s = _io_pair()
        worker, box = _start_streamer(io_s, sb)
        peer.send(Message(MsgType.HELLO, encode_hello(
            PROTO_ROLE_MATCHER, version=other)))
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert isinstance(box.get("err"), ProtocolError)
        assert f"version {other}" in str(box["err"])
        assert peer.recv().type == MsgType.HELLO
        with pytest.raises(ProtocolError, match="timed out"):
            peer.recv(timeout=0.2)
        peer.close()
        io_s.close()


def test_no_timing_data_is_protocol_error():
    io_m, io_s = _io_pair()
    empty = EventStream(np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=np.uint8))
    matcher = MatcherSession(io_m, empty)
    streamer = StreamerSession(io_s, empty)
    box = {}

    def _stream():
        try:
            box["out"] = streamer.run()
        except BaseException as exc:
            box["err"] = exc

    worker = threading.Thread(target=_stream, daemon=True)
    worker.start()
    with pytest.raises(ProtocolError):
        matcher.run()
    io_m.close()
    worker.join(timeout=30)
    io_s.close()
    assert not worker.is_alive()


def test_matcher_failure_over_sockets_returns_promptly(tmp_path):
    # unrelated streams: the matcher's clock lock finds no peak and raises,
    # while the streamer waits for replies that will never come
    rng = np.random.default_rng(5)
    dumps = []
    for side in (0, 1):
        t = np.sort(rng.integers(0, 4 * EPOCH_TICKS, 40000)).astype(np.int64)
        dumps.append(tmp_path / f"{side}.etkd")
        write_stream_dump(dumps[-1], side, EventStream(
            t, rng.integers(0, 4, t.size, dtype=np.uint8)))
    cfg = app.load_config(_write_ini(tmp_path / "s.ini", stream_a=dumps[0],
                                     stream_b=dumps[1]))
    t0 = time.monotonic()
    with pytest.raises(ProtocolError, match="clock lock failed"):
        app.run_loopback(cfg)
    assert time.monotonic() - t0 < 10.0


def _fail_streamer_on_third_reply(monkeypatch) -> ProtocolError:
    """Make the streamer raise the returned error on its third reply."""
    fault = ProtocolError("injected streamer fault")
    orig = StreamerSession._on_coinc_reply
    calls = []

    def failing(self, msg):
        calls.append(msg)
        if len(calls) == 3:
            raise fault
        return orig(self, msg)

    monkeypatch.setattr(StreamerSession, "_on_coinc_reply", failing)
    return fault


def test_streamer_failure_in_loopback_is_raised_promptly(tmp_path,
                                                         monkeypatch):
    # the streamer's own error must reach the caller, at once, and not the
    # matcher's closed channel or its wait for a peer that is gone
    fault = _fail_streamer_on_third_reply(monkeypatch)
    cfg = app.load_config(_write_ini(tmp_path / "s.ini"))
    t0 = time.monotonic()
    with pytest.raises(ProtocolError) as excinfo:
        app.run_loopback(cfg)
    assert excinfo.value is fault
    assert time.monotonic() - t0 < 10.0


def test_failed_session_closes_its_files(tmp_path, monkeypatch):
    # the streamer fails and the matcher then fails on the closed channel:
    # neither may leave its key or metrics file for the garbage collector
    _fail_streamer_on_third_reply(monkeypatch)
    cfg = app.load_config(_write_ini(
        tmp_path / "s.ini",
        keys_a=tmp_path / "a.etky", keys_b=tmp_path / "b.etky",
        metrics_a=tmp_path / "a.csv", metrics_b=tmp_path / "b.csv"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ProtocolError):
            app.run_loopback(cfg)
        gc.collect()
    assert [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)] == []


def test_unopenable_metrics_file_leaves_no_key_file_open(tmp_path):
    # the key file opens first; when the metrics file then cannot be
    # opened, the station must close the key file before the error leaves
    missing = tmp_path / "no such dir" / "m.csv"
    empty = EventStream(np.empty(0, np.int64), np.empty(0, np.uint8))
    for i, station in enumerate((MatcherSession, StreamerSession)):
        ep, peer = _io_pair()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(FileNotFoundError):
                    station(ep, empty, key_path=tmp_path / f"{i}.etky",
                            metrics_path=missing).run()
                gc.collect()
        finally:
            ep.close()
            peer.close()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == [], station


# ---------------------------------------------------------------------------
# configuration and CLI


def test_load_config_and_overrides(tmp_path):
    ini = _write_ini(tmp_path / "s.ini", duration=4.5, seed=77,
                     keys_a=tmp_path / "a.etky")
    cfg = app.load_config(ini)
    assert cfg.duration == 4.5 and cfg.seed == 77
    assert cfg.source.pair_rate == 3000.0
    assert cfg.cluster_threshold == 500
    assert cfg.keys_alice == str(tmp_path / "a.etky")
    assert cfg.keys_bob is None
    cfg2 = app.load_config(ini, seed=5, duration=1.25)
    assert cfg2.seed == 5 and cfg2.duration == 1.25


def test_config_errors(tmp_path):
    with pytest.raises(app.ConfigError):
        app.load_config(tmp_path / "missing.ini")
    bad = tmp_path / "bad.ini"
    bad.write_text("not an ini file at all [")
    with pytest.raises(app.ConfigError):
        app.load_config(bad)
    nonnum = tmp_path / "nonnum.ini"
    nonnum.write_text("[source]\npair_rate = fast\n")
    with pytest.raises(app.ConfigError):
        app.load_config(nonnum)
    badval = tmp_path / "badval.ini"
    badval.write_text("[alice]\nefficiency = 2.0\n")
    with pytest.raises(app.ConfigError):
        app.load_config(badval)
    badwin = tmp_path / "badwin.ini"
    badwin.write_text("[windows]\naccept_half = 40\nservo_half = 30\n")
    with pytest.raises(app.ConfigError):
        app.load_config(badwin)


def test_config_refuses_unknown_sections_and_keys(tmp_path):
    good = _write_ini(tmp_path / "good.ini").read_text()
    for typo, where in (("pair_rate", "pair_rte"), ("efficiency", "eficiency"),
                        ("[ecorr]", "[windws]"), ("[session]", "[DEFAULT]")):
        bad = tmp_path / "bad.ini"
        bad.write_text(good.replace(typo, where, 1))
        with pytest.raises(app.ConfigError,
                           match=f"unknown .*{where.strip('[]')}"):
            app.load_config(bad)
        assert cli.main(["loopback", "--config", str(bad)]) == cli.EXIT_CONFIG
    # a key the CLI overrides is still a known key of the file
    cfg = app.load_config(_write_ini(tmp_path / "s.ini", duration=4.5, seed=7),
                          seed=5, duration=1.0)
    assert (cfg.seed, cfg.duration) == (5, 1.0)


# where each [section] key of a session file lands in the SessionConfig
_CONFIG_FIELDS = {
    ("session", "duration"): lambda c: c.duration,
    ("session", "seed"): lambda c: c.seed,
    **{("source", k): (lambda c, k=k: getattr(c.source, k))
       for k in ("pair_rate", "visibility_hv", "visibility_da",
                 "visibility_ramp")},
    **{(side, k): (lambda c, side=side, k=k: getattr(getattr(c, side), k))
       for side in ("alice", "bob")
       for k in ("efficiency", "jitter_sigma", "dark_rate", "dead_time",
                 "clock_offset", "clock_drift")},
    **{(side, "delays"): (lambda c, side=side: getattr(c, side).detector_delays)
       for side in ("alice", "bob")},
    **{("windows", k): (lambda c, f=f: getattr(c.windows, f))
       for k, f in (("accept_half", "accept_half_width"),
                    ("servo_half", "servo_half_width"),
                    ("accidental_center", "accidental_center"),
                    ("accidental_half", "accidental_half_width"))},
    ("ecorr", "cluster_bits"): lambda c: c.cluster_threshold,
    **{("output", k): (lambda c, k=k: getattr(c, k))
       for k in ("keys_alice", "keys_bob", "metrics_alice", "metrics_bob")},
    **{("streams", side): (lambda c, side=side: getattr(c, f"stream_{side}"))
       for side in ("alice", "bob")},
}


@pytest.mark.parametrize("name", ["nominal", "bright_link", "noisy_link",
                                  "written"])
def test_session_files_load_every_key(name, tmp_path):
    # every key of the shipped files and of _write_ini reaches its field
    if name == "nominal":
        path = CONFIG_DIR / "nominal_run.ini"
    elif name == "written":
        path = _write_ini(tmp_path / "s.ini", keys_a="a.etky", keys_b="b.etky",
                          metrics_a="a.csv", metrics_b="b.csv",
                          stream_a="a.etkd", stream_b="b.etkd")
    else:
        path = CONFIG_DIR.parent / "perfbench" / "workloads" / f"{name}.ini"
    cfg = app.load_config(path)
    plain = configparser.ConfigParser()
    plain.read(path)
    for section in plain.sections():
        for key, raw in plain[section].items():
            got = _CONFIG_FIELDS[section, key](cfg)
            if isinstance(got, tuple):
                want = tuple(int(x) for x in raw.split(","))
            else:
                want = type(got)(raw)
            assert got == want, (section, key)


def test_build_streams_dump_pairing(tmp_path):
    ini = tmp_path / "s.ini"
    ini.write_text("[streams]\nalice = only_one.etkd\n")
    with pytest.raises(app.ConfigError):
        app.build_streams(app.load_config(ini))


def test_parse_endpoint():
    assert app.parse_endpoint("127.0.0.1:7170") == ("127.0.0.1", 7170)
    assert app.parse_endpoint("[::1]:99") == ("[::1]", 99)
    for bad in ("nohost", ":123", "host:", "host:abc"):
        with pytest.raises(app.ConfigError):
            app.parse_endpoint(bad)


def test_cli_dump_and_replay(tmp_path, capsys):
    ini = _write_ini(tmp_path / "s.ini", duration=2.0, pair_rate=2000.0)
    da, db = tmp_path / "a.etkd", tmp_path / "b.etkd"
    rc = cli.main(["dump-streams", "--config", str(ini),
                   "--out-alice", str(da), "--out-bob", str(db)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    side_a, stream_a = read_stream_dump(da)
    side_b, stream_b = read_stream_dump(db)
    assert (side_a, side_b) == (0, 1)
    assert len(stream_a) > 0 and len(stream_b) > 0

    # replaying the dumps must give the same keys as simulating in-process
    sim_dir = tmp_path / "sim"
    sim_dir.mkdir()
    sim_ini = _write_ini(sim_dir / "s.ini", duration=2.0, pair_rate=2000.0,
                         keys_a=sim_dir / "a.etky", keys_b=sim_dir / "b.etky")
    assert cli.main(["loopback", "--config", str(sim_ini)]) == 0
    replay_dir = tmp_path / "replay"
    replay_dir.mkdir()
    replay_ini = _write_ini(replay_dir / "s.ini", duration=2.0,
                            pair_rate=2000.0,
                            keys_a=replay_dir / "a.etky",
                            keys_b=replay_dir / "b.etky",
                            stream_a=da, stream_b=db)
    assert cli.main(["loopback", "--config", str(replay_ini)]) == 0
    out = capsys.readouterr().out
    assert "matcher:" in out and "streamer:" in out
    assert _key_bits(sim_dir / "a.etky") == _key_bits(replay_dir / "a.etky")


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["loopback", "--config",
                     str(tmp_path / "missing.ini")]) == cli.EXIT_CONFIG
    ini = _write_ini(tmp_path / "s.ini")
    assert cli.main(["alice", "--config", str(ini),
                     "--peer", "nonsense"]) == cli.EXIT_CONFIG
    # connecting to a port nothing listens on is a transport failure
    port = _free_port()
    assert cli.main(["bob", "--config", str(ini),
                     "--peer", f"127.0.0.1:{port}"]) == cli.EXIT_TRANSPORT
    capsys.readouterr()


def test_cli_key_override_targets_own_side(tmp_path):
    ini = _write_ini(tmp_path / "s.ini", duration=2.0, pair_rate=2000.0)
    ka = tmp_path / "cli_a.etky"
    rc = cli.main(["loopback", "--config", str(ini), "--keys", str(ka)])
    assert rc == 0
    assert ka.exists() and len(_key_bits(ka)) > 0

import hashlib
import math

import numpy as np
import pytest

from ec_pair import reconcile_batch_pair, reconcile_pair
from entkd.ecorr import (BICONF_TARGET, MIN_BLOCK, N_PASSES, Cluster,
                         ClusterBuilder, EtaEstimator, block_schedule,
                         reconcile_correcting)
from entkd.wire import (Message, MsgType, ProtocolError, decode_ec_parity,
                        encode_ec_parity, frame)


def test_initial_block_size():
    # k1 = 2**ceil(log2(1/eta)), k2 = 4*k1, then halves of the cluster
    assert block_schedule(0.05, 5000) == (32, 128, 2500, 2500, 2500, 2500)
    assert block_schedule(0.054, 5000)[:2] == (32, 128)
    assert block_schedule(0.01, 5000)[:2] == (128, 512)
    assert block_schedule(0.0625, 5000)[0] == 16  # 1/eta already a power of 2
    assert block_schedule(0.5, 5000)[0] == MIN_BLOCK   # tiny k clamps up
    assert block_schedule(0.001, 1000)[0] == 500       # huge k clamps to r/2
    assert block_schedule(0.01, 10) == (5,) * N_PASSES
    assert block_schedule(0.05, 999)[2:] == (500,) * (N_PASSES - 2)
    assert block_schedule(0.05, 1) == (1,) * N_PASSES
    with pytest.raises(ValueError):
        block_schedule(0.05, 0)
    with pytest.raises(ValueError):
        block_schedule(0.0, 100)
    with pytest.raises(ValueError):
        block_schedule(0.6, 100)


def test_eta_estimator():
    est = EtaEstimator()
    assert est.value == 0.05
    assert est.update(0.04) == pytest.approx(0.04)  # first sample seeds
    assert est.update(0.06) == pytest.approx(0.05)  # then EWMA with 0.5
    est2 = EtaEstimator()
    est2.update(0.0)  # clamps away from zero so block sizing stays defined
    assert est2.value == pytest.approx(1e-4)
    with pytest.raises(ValueError):
        est.update(1.5)


def test_cluster_builder_basic():
    b = ClusterBuilder(threshold=100)
    assert b.push(np.ones(60, dtype=np.uint8), epoch=3) == []
    out = b.push(np.zeros(70, dtype=np.uint8), epoch=5)
    assert len(out) == 1
    c = out[0]
    assert isinstance(c, Cluster)
    # the whole buffer is emitted: the chunk that crossed stays intact
    assert c.cluster_id == 0 and c.last_epoch == 5
    assert list(c.bits) == [1] * 60 + [0] * 70
    # nothing is left buffered: the next cluster holds only newer bits
    out = b.push(np.ones(250, dtype=np.uint8), epoch=9)
    assert len(out) == 1 and out[0].cluster_id == 1
    assert out[0].bits.size == 250 and out[0].last_epoch == 9


def test_cluster_builder_conservation_and_tail():
    rng = np.random.default_rng(0)
    b = ClusterBuilder(threshold=97)
    fed = []
    clusters = []
    for e in range(40):
        chunk = rng.integers(0, 2, int(rng.integers(0, 50)), dtype=np.uint8)
        fed.append(chunk)
        clusters.extend(b.push(chunk, epoch=e))
    got = np.concatenate([c.bits for c in clusters]) if clusters else \
        np.empty(0, dtype=np.uint8)
    all_fed = np.concatenate(fed)
    # clusters are exactly a prefix of the input; the flushed tail is
    # the rest, so together they are the whole input, bit for bit
    assert np.array_equal(got, all_fed[: got.size])
    next_id = b.next_id
    tail = b.flush()
    assert tail.cluster_id == next_id == len(clusters)
    assert 0 < tail.bits.size < 97
    assert tail.last_epoch == max(e for e, c in enumerate(fed) if c.size)
    assert np.array_equal(np.concatenate([got, tail.bits]), all_fed)
    assert b.next_id == next_id + 1
    assert b.flush() is None  # nothing left: no empty cluster
    with pytest.raises(ValueError):
        ClusterBuilder(threshold=0)


def _expected_identical_cost(r, eta_est):
    # one parity per block of every pass, then the clean confirmation run
    return (sum(math.ceil(r / k) for k in block_schedule(eta_est, r))
            + BICONF_TARGET)


def test_identical_inputs_cost_formula():
    for r, eta in ((5000, 0.05), (1000, 0.03), (257, 0.08), (64, 0.25)):
        bits = np.random.default_rng(r).integers(0, 2, r, dtype=np.uint8)
        out, rep_ref, rep_cor = reconcile_pair(bits, bits.copy(),
                                               cluster_id=1, shared_seed=42,
                                               eta_est=eta)
        assert np.array_equal(out, bits)
        assert rep_ref.errors_found == 0 and rep_cor.errors_found == 0
        expect = _expected_identical_cost(r, eta)
        assert rep_ref.c == expect
        assert rep_cor.c == expect


def test_single_flip_corrected():
    rng = np.random.default_rng(5)
    ref = rng.integers(0, 2, 2000, dtype=np.uint8)
    for pos in (0, 1234, 1999):
        cor = ref.copy()
        cor[pos] ^= 1
        out, rep_ref, rep_cor = reconcile_pair(ref, cor, shared_seed=9)
        assert np.array_equal(out, ref)
        assert rep_ref.errors_found == rep_cor.errors_found
        assert rep_ref.c == rep_cor.c


def test_burst_errors_corrected():
    rng = np.random.default_rng(6)
    ref = rng.integers(0, 2, 3000, dtype=np.uint8)
    cor = ref.copy()
    cor[500:540] ^= 1  # contiguous burst defeats single-pass parity checks
    out, rep_ref, rep_cor = reconcile_pair(ref, cor, shared_seed=10,
                                           eta_est=0.04)
    assert np.array_equal(out, ref)
    assert rep_ref.errors_found >= 40


def test_random_instances_and_audit():
    rng = np.random.default_rng(7)
    for eta in (0.01, 0.03, 0.05, 0.08):
        for trial in range(4):
            r = int(rng.integers(600, 3000))
            ref = rng.integers(0, 2, r, dtype=np.uint8)
            flips = rng.random(r) < eta
            cor = ref ^ flips.astype(np.uint8)
            transcript = []
            out, rep_ref, rep_cor = reconcile_pair(
                ref, cor, cluster_id=trial, shared_seed=int(rng.integers(1, 2**60)),
                eta_est=eta, transcript=transcript)
            assert np.array_equal(out, ref), (eta, trial)
            assert rep_ref.c == rep_cor.c
            assert rep_ref.errors_found == rep_cor.errors_found
            assert rep_cor.eta == pytest.approx(rep_cor.errors_found / r)
            # the envelope makes the cost auditable from the raw transcript
            counted = 0
            for _, msg in transcript:
                assert msg.type == MsgType.EC_PARITY
                for sec in decode_ec_parity(msg.payload):
                    assert type(sec.bits) is list
                    if sec.counted:
                        counted += len(sec.bits)
            assert counted == rep_ref.c


# SHA-256 of each side's frame sequence for the batch below. Any change to
# the dialogue, its order or its bytes changes them; a change that means to
# alter the dialogue updates them and says why in CHANGES.md.
GOLDEN_BATCH_SHA256 = {
    "a": "3bd7851185010b4fc2082c2a50f88e59b3d683b676cec984981ba527d0582be3",
    "b": "2077a4dc5b84d82cce212cbf2e144215f35618dddaa355cc72788da03e7c9f3c",
}


def test_golden_batch_transcript():
    # four clusters of mixed length and error rate, reconciled in one batch
    # from an estimate of 3 % that fits none of them
    rng = np.random.default_rng(2015)
    batch_ref, batch_cor = [], []
    for cid, (r, eta) in enumerate(((1, 0.07), (37, 0.20), (2000, 0.01),
                                    (5000, 0.07))):
        ref = rng.integers(0, 2, r, dtype=np.uint8)
        cor = ref ^ (rng.random(r) < eta).astype(np.uint8)
        batch_ref.append((cid, ref, 1000 + cid))
        batch_cor.append((cid, cor, 1000 + cid))
    transcript = []
    outs, reps_ref, _ = reconcile_batch_pair(batch_ref, batch_cor, 0.03,
                                             transcript)
    assert all(np.array_equal(out, ref) for out, (_, ref, _)
               in zip(outs, batch_ref))
    assert [rep.c for rep in reps_ref] == [18, 45, 135, 2057]
    assert len(transcript) == 1727
    for label, want in GOLDEN_BATCH_SHA256.items():
        frames = b"".join(frame(msg) for who, msg in transcript
                          if who == label)
        assert hashlib.sha256(frames).hexdigest() == want, label


def test_determinism():
    rng = np.random.default_rng(8)
    ref = rng.integers(0, 2, 1500, dtype=np.uint8)
    cor = ref ^ (rng.random(1500) < 0.05).astype(np.uint8)

    def run(seed):
        transcript = []
        out, rep, _ = reconcile_pair(ref, cor, shared_seed=seed,
                                     transcript=transcript)
        blob = b"".join(m.payload for _, m in transcript)
        return out, rep.c, blob

    out1, c1, blob1 = run(123)
    out2, c2, blob2 = run(123)
    assert np.array_equal(out1, out2) and c1 == c2 and blob1 == blob2
    out3, _, blob3 = run(124)
    assert np.array_equal(out3, ref)  # still corrects
    assert blob3 != blob1             # but down a different dialogue


def _reference_frames(batch):
    """The reference side's frames for a batch reconciled against itself."""
    transcript = []
    reconcile_batch_pair(batch, [(c, b.copy(), s) for c, b, s in batch],
                         transcript=transcript)
    return [msg for label, msg in transcript if label == "a"]


def _replay(batch, frames):
    """Run a correcting batch against recorded reference frames."""
    feed = iter(frames)
    return reconcile_correcting(batch, 0.05, lambda msg: None,
                                lambda: next(feed))


def test_tampered_round_id_detected():
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, 256, dtype=np.uint8)
    messages = _reference_frames([(0, bits, 55)])
    _replay([(0, bits.copy(), 55)], messages)  # untouched, it goes through
    payload = bytearray(messages[0].payload)
    payload[8] ^= 0x01  # low byte of the first section's round id
    messages[0] = Message(messages[0].type, bytes(payload))
    with pytest.raises(ProtocolError, match="round"):
        _replay([(0, bits.copy(), 55)], messages)


def test_mismatched_cluster_id_detected():
    bits = np.zeros(64, dtype=np.uint8)
    messages = _reference_frames([(1, bits, 5)])
    with pytest.raises(ProtocolError, match="cluster id"):
        _replay([(2, bits.copy(), 5)], messages)


def _sections_by_cluster(transcript):
    """Every section of a transcript as (sender, round, counted, bits),
    grouped by cluster id in the order sent."""
    out = {}
    for label, msg in transcript:
        for sec in decode_ec_parity(msg.payload):
            out.setdefault(sec.cluster_id, []).append(
                (label, sec.round_id, sec.counted, bytes(sec.bits)))
    return out


def test_batch_matches_clusters_run_alone():
    # one dialogue for the whole batch, yet every cluster corrects, leaks
    # and exchanges exactly what it does on its own
    rng = np.random.default_rng(12)
    for trial in range(6):
        eta_est = float(rng.uniform(0.005, 0.3))
        batch_ref, batch_cor = [], []
        for j in range(int(rng.integers(2, 7))):
            r = int(rng.choice([1, 2, 17, 300, 2000, 5000])
                    if j < 2 else rng.integers(1, 5001))
            ref = rng.integers(0, 2, r, dtype=np.uint8)
            eta = rng.uniform(0.005, 0.3)
            cor = ref ^ (rng.random(r) < eta).astype(np.uint8)
            cid, seed = 10 * trial + 3 * j, int(rng.integers(1, 2**62))
            batch_ref.append((cid, ref, seed))
            batch_cor.append((cid, cor, seed))
        transcript = []
        outs, reps_ref, reps_cor = reconcile_batch_pair(
            batch_ref, batch_cor, eta_est, transcript)
        sections = _sections_by_cluster(transcript)
        longest = 0
        for k, ((cid, ref, seed), (_, cor, _)) in enumerate(
                zip(batch_ref, batch_cor)):
            alone = []
            out, rep_ref, rep_cor = reconcile_pair(ref, cor, cid, seed,
                                                   eta_est, alone)
            assert np.array_equal(outs[k], out)
            assert np.array_equal(out, ref)
            assert reps_ref[k] == rep_ref and reps_cor[k] == rep_cor
            assert sections[cid] == _sections_by_cluster(alone)[cid]
            longest = max(longest, len(alone))
        # a frame per round trip leg, plus at most one for the final tally
        assert longest <= len(transcript) <= longest + 1


def test_batch_frame_must_carry_each_waiting_cluster_once():
    bits = np.zeros(64, dtype=np.uint8)
    batch = [(4, bits, 7), (5, bits, 8)]
    first = decode_ec_parity(_reference_frames(batch)[0].payload)
    assert [sec.cluster_id for sec in first] == [4, 5]

    def frame(sections):
        return Message(MsgType.EC_PARITY, encode_ec_parity(sections))

    cases = (
        ([first[0]], "cluster id 5 missing"),
        ([first[0], first[1], first[1]._replace(cluster_id=9)],
         "cluster id 9 is not in the batch"),
        ([first[1], first[0]], "cluster ids"),
    )
    for sections, why in cases:
        with pytest.raises(ProtocolError, match=why):
            _replay(batch, [frame(sections)])
    # the wire decoder already refuses a cluster repeated in one frame
    with pytest.raises(ProtocolError, match="repeated"):
        _replay(batch, [frame([first[0], first[1], first[0]])])
    with pytest.raises(ProtocolError, match="EC_PARITY"):
        _replay(batch, [Message(MsgType.BYE, b"")])
    with pytest.raises(ValueError, match="distinct"):
        _replay([(4, bits, 7), (4, bits, 8)], [])


def test_counted_flag_is_checked():
    bits = np.zeros(64, dtype=np.uint8)
    frames = _reference_frames([(0, bits, 3)])
    sec = decode_ec_parity(frames[0].payload)[0]
    frames[0] = Message(MsgType.EC_PARITY,
                        encode_ec_parity([sec._replace(counted=False)]))
    with pytest.raises(ProtocolError, match="counted flag"):
        _replay([(0, bits, 3)], frames)


def test_small_and_edge_sizes():
    for r in (1, 2, 3, 8, 9, 17):
        ref = np.random.default_rng(r).integers(0, 2, r, dtype=np.uint8)
        cor = ref.copy()
        if r > 1:
            cor[r // 2] ^= 1
        out, rep_ref, rep_cor = reconcile_pair(ref, cor, shared_seed=r + 1,
                                               eta_est=0.25)
        assert np.array_equal(out, ref), r


def test_engine_input_validation():
    with pytest.raises(ValueError):
        reconcile_pair(np.array([], dtype=np.uint8),
                       np.array([], dtype=np.uint8))
    with pytest.raises(ValueError):
        reconcile_pair(np.array([0, 2], dtype=np.uint8),
                       np.array([0, 2], dtype=np.uint8))


def test_report_pass_structure():
    bits = np.random.default_rng(1).integers(0, 2, 1000, dtype=np.uint8)
    _, rep, _ = reconcile_pair(bits, bits.copy(), eta_est=0.05)
    assert len(rep.passes) == N_PASSES + 1
    assert [s["pass"] for s in rep.passes[:N_PASSES]] == list(range(N_PASSES))
    sizes = tuple(s["block_size"] for s in rep.passes[:N_PASSES])
    assert sizes == block_schedule(0.05, 1000) == (32, 128) + (500,) * 4
    assert [s["blocks"] for s in rep.passes[:N_PASSES]] == \
        [math.ceil(1000 / k) for k in sizes]
    assert rep.passes[-1]["pass"] == "biconf"
    assert rep.passes[-1]["rounds"] == BICONF_TARGET

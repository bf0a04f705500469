import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from ec_pair import reconcile_batch_pair, reconcile_pair
from entkd.channel import ChannelClosed
from entkd.ecorr import (BICONF_TARGET, MIN_BLOCK, N_PASSES,
                         ROLE_CORRECTING, ROLE_REFERENCE, EtaEstimator,
                         _Engine, block_schedule, reconcile_correcting)
from entkd.wire import (DecodeError, Message, MsgType, ProtocolError,
                        decode_ec_parity, encode_ec_parity, frame)


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
            # the cost is auditable from the raw transcript: c is every
            # bit the reference side sent
            counted = 0
            for who, msg in transcript:
                assert msg.type == MsgType.EC_PARITY
                if who == "a":
                    counted += len(decode_ec_parity(msg.payload))
            assert counted == rep_ref.c


# SHA-256 of each side's frame sequence for the batch below. Any change to
# the dialogue, its order or its bytes changes them; a change that means to
# alter the dialogue updates them and says why in CHANGES.md.
GOLDEN_BATCH_SHA256 = {
    "a": "5c4332ea0a0f03f4fc3d3c9f535fc78423d623ae7cb71e5b6c5594fdc374e2e8",
    "b": "74440d04ea4dd1769ffe2d13b07d506515c75f718ee903d366b7c84beeb52ec3",
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


def _reference_frames(batch, against=None):
    """The reference side's frames for a batch reconciled against the
    correcting side's batch (by default, against itself)."""
    transcript = []
    reconcile_batch_pair(batch, against or batch, transcript=transcript)
    return [msg for label, msg in transcript if label == "a"]


def _replay(batch, frames):
    """Run a correcting batch against recorded reference frames; the
    transport closes once they run out."""
    feed = iter(frames)

    def recv():
        msg = next(feed, None)
        if msg is None:
            raise ChannelClosed("no frame left")
        return msg
    return reconcile_correcting(batch, 0.05, lambda msg: None, recv)


def _frame_of(bits):
    return Message(MsgType.EC_PARITY, encode_ec_parity([bits]))


def test_frame_must_carry_the_bits_its_engines_take():
    # a frame names no cluster or round; what the waiting engine takes is
    # the only count it can be held to, one bit off either way fails
    bits = np.zeros(64, dtype=np.uint8)
    batch = [(0, bits, 3)]
    frames = _reference_frames(batch)
    _replay(batch, frames)  # untouched, it goes through
    first = decode_ec_parity(frames[0].payload)
    # the first pass's block parities: 64 bits in blocks of 32
    assert len(first) == 2
    for bad in (first[:-1], first + [0]):
        with pytest.raises(ProtocolError,
                           match=f"frame carries {len(bad)} bits, "
                                 f"expected 2"):
            _replay(batch, [_frame_of(bad)] + frames[1:])


def test_batch_frame_must_carry_each_waiting_cluster_once():
    # a two-cluster frame holds each waiting cluster's bits once, in batch
    # order: a cluster's bits left out or sent twice, or one bit off
    # either way, miscount the whole frame
    bits = np.zeros(64, dtype=np.uint8)
    batch = [(4, bits, 7), (5, bits, 8)]
    frames = _reference_frames(batch)
    _replay(batch, frames)
    first = decode_ec_parity(frames[0].payload)
    assert len(first) == 4  # two block parities per cluster
    for bad in (first[:2], first + first[2:], first[:-1], first + [0]):
        with pytest.raises(ProtocolError,
                           match=f"frame carries {len(bad)} bits, "
                                 f"expected 4"):
            _replay(batch, [_frame_of(bad)] + frames[1:])


def test_transport_error_is_not_the_dialogue_ending():
    # a transport that raises StopIteration, as next() on a spent feed
    # does, stops the dialogue with that error: it does not end it as
    # though the engines had returned
    batch = [(0, np.zeros(64, dtype=np.uint8), 3)]
    feed = iter(_reference_frames(batch)[:-1])
    with pytest.raises(StopIteration):
        reconcile_correcting(batch, 0.05, lambda msg: None,
                             lambda: next(feed))


def test_mutated_reference_frames_end_cleanly():
    # every frame of a small batch flipped, cut short, sent twice or
    # dropped: the correcting side returns, or stops with one of the
    # transport's and protocol's own errors, never with another
    rng = np.random.default_rng(31)
    batch_ref, batch_cor = [], []
    for cid, r in ((0, 90), (1, 200)):
        ref = rng.integers(0, 2, r, dtype=np.uint8)
        cor = ref ^ (rng.random(r) < 0.05).astype(np.uint8)
        batch_ref.append((cid, ref, 40 + cid))
        batch_cor.append((cid, cor, 40 + cid))
    frames = _reference_frames(batch_ref, batch_cor)
    outcomes = Counter()
    for i, msg in enumerate(frames):
        flipped = bytearray(msg.payload)
        pos = int(rng.integers(8 * len(flipped)))
        flipped[pos >> 3] ^= 0x80 >> (pos & 7)
        variants = (
            frames[:i] + [Message(msg.type, bytes(flipped))] + frames[i + 1:],
            frames[:i] + [Message(msg.type, msg.payload[:-1])]
            + frames[i + 1:],
            frames[:i + 1] + frames[i:],
            frames[:i] + frames[i + 1:],
        )
        for feed in variants:
            try:
                _replay(batch_cor, feed)
                outcomes["returned"] += 1
            except (ProtocolError, DecodeError, ChannelClosed) as err:
                outcomes[type(err).__name__] += 1
    assert sum(outcomes.values()) == 4 * len(frames) > 100
    assert set(outcomes) == {"returned", "ProtocolError", "DecodeError",
                             "ChannelClosed"}, outcomes


def _recording_rounds(monkeypatch):
    """Log every round each engine runs, as (sender, bits), keyed by
    (role, cluster id)."""
    log = {}

    def _round(self, sender, bits, orig=_Engine._round):
        bits = yield from orig(self, sender, bits)
        log.setdefault((self.role, self.cluster_id), []).append(
            (sender, bytes(bits)))
        return bits
    monkeypatch.setattr(_Engine, "_round", _round)
    return log


def test_batch_matches_clusters_run_alone(monkeypatch):
    # one dialogue for the whole batch, yet every cluster corrects, leaks
    # and exchanges exactly what it does on its own
    rounds = _recording_rounds(monkeypatch)
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
        rounds.clear()
        transcript = []
        outs, reps_ref, reps_cor = reconcile_batch_pair(
            batch_ref, batch_cor, eta_est, transcript)
        batched = dict(rounds)
        longest = 0
        for k, ((cid, ref, seed), (_, cor, _)) in enumerate(
                zip(batch_ref, batch_cor)):
            rounds.clear()
            alone = []
            out, rep_ref, rep_cor = reconcile_pair(ref, cor, cid, seed,
                                                   eta_est, alone)
            assert np.array_equal(outs[k], out)
            assert np.array_equal(out, ref)
            assert reps_ref[k] == rep_ref and reps_cor[k] == rep_cor
            for role in (ROLE_REFERENCE, ROLE_CORRECTING):
                assert batched[role, cid] == rounds[role, cid]
            longest = max(longest, len(alone))
        # a frame per round trip leg, plus at most one for the final tally
        assert longest <= len(transcript) <= longest + 1


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

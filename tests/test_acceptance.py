"""Acceptance gate: one check per pinned criterion, one printed line each.

Every check records its measured numbers through _report before asserting,
so the terminal summary always shows the full scorecard even when a
criterion fails.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import _report
from entkd import app
from entkd.coinc import WindowConfig, count_accidentals, match
from entkd.core import EPOCH_TICKS, TICKS_PER_SECOND, EventStream
from entkd.node import read_key_file
from entkd.physim import SideConfig, SourceConfig, simulate_link
from entkd.privamp import SplitMix64, eve_fraction, toeplitz_compress
from entkd.tsync import apply_model, initial_lock, servo_update
from entkd.wire import decode_timing, encode_timing, packetize

from ec_pair import reconcile_pair
from test_coinc import brute_force_match

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

pytestmark = pytest.mark.acceptance


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


# ---------------------------------------------------------------------------
# 1. secret/sifted ratio on the nominal session


@pytest.mark.slow
def test_criterion_01_secret_fraction(tmp_path):
    cfg = app.load_config(CONFIG_DIR / "nominal_run.ini")
    cfg.keys_alice = str(tmp_path / "a.etky")
    cfg.keys_bob = str(tmp_path / "b.etky")
    cfg.metrics_alice = str(tmp_path / "a.csv")
    cfg.metrics_bob = None

    t0 = time.monotonic()
    out_m, out_s = app.run_loopback(cfg)
    wall = time.monotonic() - t0

    ratio = out_m.secret_bits / out_m.sifted_bits
    reconciled = sum(rep.r for rep in out_m.reports)
    ok = wall < 120.0 and 0.50 <= ratio <= 0.65
    _report.record(
        f"criterion  1 {'PASS' if ok else 'FAIL'}: secret/sifted = "
        f"{ratio:.4f} (required [0.50, 0.65]), qber = {out_m.qber_last:.4f}, "
        f"runtime = {wall:.1f} s (< 120 s)")
    assert wall < 120.0
    assert out_m.secret_bits == out_s.secret_bits > 0
    assert 0.50 <= ratio <= 0.65, (
        f"secret/sifted ratio {ratio:.4f} below the 0.50 floor: the "
        f"interactive reconciliation spends c/r = "
        f"{sum(r.c for r in out_m.reports) / reconciled:.4f} disclosed bits "
        f"per key bit, and the knowledge bound charges them all")


# ---------------------------------------------------------------------------
# 2. eavesdropper-knowledge bound against a high-precision oracle


def test_criterion_02_eve_bound_oracle():
    import mpmath

    mpmath.mp.dps = 40

    def oracle(eta: float) -> float:
        e = mpmath.mpf(eta)
        z = 2 * mpmath.sqrt(e * (1 - e))
        p = (1 + z) / 2
        if p <= 0 or p >= 1:
            h = mpmath.mpf(0)
        else:
            h = -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)
        return float(1 - h)

    grid = np.linspace(0.0, 0.5, 10_000)
    worst = max(abs(eve_fraction(float(x)) - oracle(float(x))) for x in grid)
    spots = (eve_fraction(0.0) == 0.0
             and eve_fraction(0.5) == 1.0
             and abs(eve_fraction(0.054) - 0.152878873319) < 1e-10)
    ok = worst < 1e-10 and spots
    _report.record(
        f"criterion  2 {'PASS' if ok else 'FAIL'}: knowledge bound vs "
        f"oracle, max |diff| = {worst:.2e} over 10^4 grid points "
        f"(< 1e-10); endpoints and 0.054 spot exact")
    assert worst < 1e-10
    assert spots


# ---------------------------------------------------------------------------
# 3. clock recovery across random offset/drift scenarios


@pytest.mark.slow
def test_criterion_03_sync_recovery():
    rng = np.random.default_rng(20260815)
    n_scenarios = 100
    duration = 7.0
    t0 = time.monotonic()

    recovered = 0
    final_residuals = []
    for i in range(n_scenarios):
        offset = int(rng.integers(-800_000_000, 800_000_001))
        drift = float(rng.uniform(-1e-6, 1e-6))
        rate = float(rng.uniform(500.0, 4000.0))
        src = SourceConfig(pair_rate=rate, duration=duration,
                           rng_seed=int(rng.integers(1, 2**62)))
        plain = SideConfig(efficiency=1.0, jitter_sigma=3.3629,
                           dark_rate=200.0, detector_delays=(0, 0, 0, 0))
        moved = SideConfig(efficiency=1.0, jitter_sigma=3.3629,
                           dark_rate=200.0, detector_delays=(0, 0, 0, 0),
                           clock_offset=offset, clock_drift=drift)
        sa, sb = simulate_link(src, plain, moved)
        try:
            model = initial_lock(sa.times, sb.times)
        except Exception:
            continue

        # recovery error against the exact inverse transform over the span
        # the lock used
        ref = model.reference_ticks
        worst = 0.0
        for T in (ref, ref + 4 * EPOCH_TICKS, ref + 8 * EPOCH_TICKS):
            predicted = T - model.offset - model.drift * (T - ref)
            exact = (T - offset) / (1.0 + drift)
            worst = max(worst, abs(predicted - exact))
        if worst <= 16.0:  # 2 ns
            recovered += 1

        # track a few more epochs through the servo, then measure the
        # residuals the matcher sees in the final epoch
        first_e = int(sb.times[0]) >> 32
        deltas = None
        for e in range(first_e + 8, first_e + 13):
            lo = np.searchsorted(sb.times, e * EPOCH_TICKS)
            hi = np.searchsorted(sb.times, (e + 1) * EPOCH_TICKS)
            if hi - lo < 8:
                continue
            seg = sb.times[lo:hi]
            corrected = apply_model(model, seg)
            res = match(sa.times, corrected)
            deltas = res.delta
            model, _ = servo_update(model, seg[res.remote_index], res.delta)
        if deltas is not None and deltas.size:
            final_residuals.append(np.abs(deltas))

    wall = time.monotonic() - t0
    pooled = np.concatenate(final_residuals)
    med = float(np.median(pooled))
    ok = recovered >= 99 and med < 8.0 and wall < 300.0
    _report.record(
        f"criterion  3 {'PASS' if ok else 'FAIL'}: lock within 2 ns in "
        f"{recovered}/100 scenarios (>= 99); post-servo median |dt| = "
        f"{med * 0.125:.3f} ns (< 1 ns); runtime = {wall:.0f} s (< 300 s)")
    assert recovered >= 99
    assert med < 8.0
    assert wall < 300.0


# ---------------------------------------------------------------------------
# 4. coincidence-peak width from the configured per-station jitter


def test_criterion_04_peak_width():
    src = SourceConfig(pair_rate=40000.0, duration=5.0, rng_seed=44)
    side = SideConfig(efficiency=0.9, jitter_sigma=3.3629,
                      detector_delays=(0, 0, 0, 0))
    sa, sb = simulate_link(src, side, side)
    res = match(sa.times, sb.times)
    counts = np.bincount((res.delta + 30).astype(np.int64),
                         minlength=61).astype(float)
    half = counts.max() / 2.0
    above = np.flatnonzero(counts >= half)
    left, right = int(above[0]), int(above[-1])
    xl = (left - 1) + (half - counts[left - 1]) / (counts[left] - counts[left - 1])
    xr = right + (counts[right] - half) / (counts[right] - counts[right + 1])
    fwhm_ticks = xr - xl
    fwhm_ns = fwhm_ticks * 0.125
    ok = 0.8 * 1.4 <= fwhm_ns <= 1.2 * 1.4
    _report.record(
        f"criterion  4 {'PASS' if ok else 'FAIL'}: coincidence-peak FWHM = "
        f"{fwhm_ns:.3f} ns (1.4 ns +- 20%)")
    assert ok


# ---------------------------------------------------------------------------
# 5. accidental-coincidence rate on independent streams


def test_criterion_05_accidentals():
    rng = np.random.default_rng(55)
    s_a, s_b, T = 99_692.0, 18_325.0, 60.0
    span = int(T * TICKS_PER_SECOND)
    t_a = np.sort(rng.integers(0, span, rng.poisson(s_a * T))).astype(np.int64)
    t_b = np.sort(rng.integers(0, span, rng.poisson(s_b * T))).astype(np.int64)
    w = WindowConfig()
    measured = count_accidentals(t_a, t_b, w)
    tau = 2 * w.accidental_half_width * 0.125e-9  # 3.75 ns
    expected = s_a * s_b * tau * T
    sigma = math.sqrt(expected)
    ok = abs(measured - expected) < 5 * sigma
    _report.record(
        f"criterion  5 {'PASS' if ok else 'FAIL'}: accidentals = {measured} "
        f"vs s_a*s_b*tau*T = {expected:.1f} (|diff| = "
        f"{abs(measured - expected):.1f} < 5 sigma = {5 * sigma:.1f})")
    assert ok


# ---------------------------------------------------------------------------
# 6. reconciliation: residual errors and disclosed-bit efficiency


@pytest.mark.slow
def test_criterion_06_reconciliation_quality():
    rng = np.random.default_rng(66)
    r = 5000
    per_eta = 2500
    etas = (0.01, 0.03, 0.05, 0.08)

    residual_errors = 0
    total_bits = 0
    mean_ratio = {}
    for eta in etas:
        costs = []
        for _ in range(per_eta):
            ref = rng.integers(0, 2, r, dtype=np.uint8)
            cor = ref ^ (rng.random(r) < eta).astype(np.uint8)
            out, rep_ref, rep_cor = reconcile_pair(
                ref, cor, shared_seed=int(rng.integers(1, 2**62)),
                eta_est=eta)
            residual_errors += int(np.count_nonzero(out != ref))
            total_bits += r
            assert rep_ref.c == rep_cor.c
            costs.append(rep_ref.c / r)
        mean_ratio[eta] = float(np.mean(costs))

    ber = residual_errors / total_bits
    bounds = {eta: 1.6 * _h2(eta) for eta in etas}
    eff_ok = all(mean_ratio[eta] <= bounds[eta] for eta in etas)
    ok = ber <= 2e-5 and eff_ok
    detail = ", ".join(
        f"{eta:.0%}: {mean_ratio[eta]:.4f}<={bounds[eta]:.4f}"
        for eta in etas)
    _report.record(
        f"criterion  6 {'PASS' if ok else 'FAIL'}: residual BER = {ber:.1e} "
        f"over {4 * per_eta} clusters of r=5000 (<= 2e-5); mean c/r vs "
        f"1.6*h2: {detail}")
    assert ber <= 2e-5
    assert eff_ok


# ---------------------------------------------------------------------------
# 7. timing codec: lossless and near the entropy bound


@pytest.mark.slow
def test_criterion_07_codec_bounds():
    from entkd.wire import TimingPacket

    rng = np.random.default_rng(77)
    n_packets = 1_000_000
    counts = rng.integers(1, 17, n_packets)
    kinds = rng.random(n_packets)
    epochs = rng.integers(0, 1 << 20, n_packets)
    bad = 0
    for i in range(n_packets):
        count = int(counts[i])
        if kinds[i] < 0.4:
            deltas = rng.integers(1, 4096, count - 1)
        elif kinds[i] < 0.8:
            deltas = np.minimum(rng.geometric(1 / 20000, count - 1),
                                EPOCH_TICKS // (count + 1))
        else:
            deltas = rng.integers(1, max(2, EPOCH_TICKS // (count + 1)),
                                  count - 1)
        deltas = deltas.astype(np.int64)
        total = int(deltas.sum())
        base = int(epochs[i]) * EPOCH_TICKS
        first = base + int(rng.integers(0, EPOCH_TICKS - total))
        pkt = TimingPacket(epoch=int(epochs[i]), first_time=first,
                           deltas=deltas,
                           basis_flags=rng.integers(0, 2, count,
                                                    dtype=np.uint8))
        back = decode_timing(encode_timing(pkt))
        if not (back.epoch == pkt.epoch and back.first_time == pkt.first_time
                and np.array_equal(back.deltas, pkt.deltas)
                and np.array_equal(back.basis_flags, pkt.basis_flags)):
            bad += 1
    lossless = bad == 0

    # entropy oracle for the Poisson singles stream: inter-event gaps are
    # geometric on the tick grid with p = 1 - exp(-rate / tick_rate)
    import mpmath

    mpmath.mp.dps = 30
    p = 1 - mpmath.exp(-mpmath.mpf(50_000) / int(TICKS_PER_SECOND))
    q = 1 - p
    entropy = float((-q * mpmath.log(q, 2) - p * mpmath.log(p, 2)) / p)
    assert abs(entropy - 18.730407) < 1e-3  # frozen oracle cross-check
    bound = (entropy + 1.0) * 1.15  # one basis flag per event rides along

    T = 60.0
    span = int(T * TICKS_PER_SECOND)
    times = np.sort(rng.integers(0, span, rng.poisson(50_000 * T))
                    ).astype(np.int64)
    dets = rng.integers(0, 4, times.size, dtype=np.uint8)
    stream = EventStream(times, dets)
    pkts = packetize(stream)
    n_events = sum(pk.count for pk in pkts)
    n_bytes = sum(len(encode_timing(pk)) for pk in pkts)
    cost = 8.0 * n_bytes / n_events

    ok = lossless and cost <= bound
    _report.record(
        f"criterion  7 {'PASS' if ok else 'FAIL'}: roundtrip exact on "
        f"{n_packets - bad}/{n_packets} randomized packets; stream cost = "
        f"{cost:.2f} bit/event <= (H={entropy:.2f}+1)*1.15 = {bound:.2f}")
    assert lossless
    assert cost <= bound


# ---------------------------------------------------------------------------
# 8. compression hash: oracle equality and 2-universality


def _splitmix_words_vec(seeds: np.ndarray, n_words: int) -> np.ndarray:
    gamma = np.uint64(0x9E3779B97F4A7C15)
    m1 = np.uint64(0xBF58476D1CE4E5B9)
    m2 = np.uint64(0x94D049BB133111EB)
    state = seeds.astype(np.uint64).copy()
    out = np.empty((seeds.size, n_words), dtype=np.uint64)
    for k in range(n_words):
        state = state + gamma
        z = state.copy()
        z ^= z >> np.uint64(30)
        z *= m1
        z ^= z >> np.uint64(27)
        z *= m2
        z ^= z >> np.uint64(31)
        out[:, k] = z
    return out


@pytest.mark.slow
def test_criterion_08_hash_correctness():
    rng = np.random.default_rng(88)

    # (a) bit-exact against an explicit GF(2) matrix construction
    from entkd.privamp import expand_seed

    exact = 0
    n_inst = 1000
    for _ in range(n_inst):
        r = int(rng.integers(1, 129))
        m = int(rng.integers(0, min(64, r) + 1))
        bits = rng.integers(0, 2, r, dtype=np.uint8)
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        s = expand_seed(seed, m + r - 1)
        i = np.arange(m)[:, None]
        j = np.arange(r)[None, :]
        T = s[i - j + r - 1]
        slow = (T @ bits.astype(np.int64)) % 2
        if np.array_equal(toeplitz_compress(bits, seed, m),
                          slow.astype(np.uint8)):
            exact += 1

    # (b) collision rate: by linearity, collisions of x != y happen exactly
    # when the fixed difference d hashes to zero; measure that over many
    # seeds with an independent vectorized generator
    seeds_check = np.array([0, 1, 2**63, 12345], dtype=np.uint64)
    vec = _splitmix_words_vec(seeds_check, 2)
    for row, sd in zip(vec, seeds_check):
        g = SplitMix64(int(sd))
        assert [int(w) for w in row] == [g.next_word(), g.next_word()]

    r = 40
    n_seeds = 200_000
    within = []
    for m in range(1, 13):
        d = np.zeros(r, dtype=np.uint8)
        d[rng.choice(r, 4, replace=False)] = 1
        L = m + r - 1
        seeds = rng.integers(0, 2**64, n_seeds, dtype=np.uint64)
        words = _splitmix_words_vec(seeds, (L + 63) // 64)
        g = np.unpackbits(words.byteswap().view(np.uint8),
                          axis=1)[:, :L]
        J = np.flatnonzero(d)
        zero = np.ones(n_seeds, dtype=bool)
        for i in range(m):
            parity = g[:, i - J + r - 1].sum(axis=1) & 1
            zero &= parity == 0
        hits = int(zero.sum())
        p = 2.0 ** -m
        sd3 = 3 * math.sqrt(n_seeds * p * (1 - p))
        within.append(abs(hits - n_seeds * p) <= sd3)

    ok = exact == n_inst and all(within)
    _report.record(
        f"criterion  8 {'PASS' if ok else 'FAIL'}: matrix-oracle exact on "
        f"{exact}/{n_inst} instances; collision rate within 3 sigma of "
        f"2^-m for m = 1..12 over {n_seeds} seeds "
        f"({sum(within)}/12 in range)")
    assert exact == n_inst
    assert all(within)


# ---------------------------------------------------------------------------
# 9. greedy matcher equals the exhaustive nearest-pair oracle


@pytest.mark.slow
def test_criterion_09_matcher_oracle():
    rng = np.random.default_rng(99)
    w = WindowConfig()
    agree = 0
    n_inst = 1000
    for _ in range(n_inst):
        n_l = int(rng.integers(0, 201))
        n_r = int(rng.integers(0, 201))
        span = int(rng.choice([500, 2000, 8000, 40000]))
        local = np.sort(rng.integers(0, span, n_l)).astype(np.int64)
        remote = np.sort(rng.integers(0, span, n_r)).astype(np.int64)
        res = match(local, remote, w)
        got = sorted(zip(res.local_index.tolist(), res.remote_index.tolist(),
                         res.delta.tolist()))
        if got == brute_force_match(local, remote, w.servo_half_width):
            agree += 1
    ok = agree == n_inst
    _report.record(
        f"criterion  9 {'PASS' if ok else 'FAIL'}: greedy matcher equals "
        f"the exhaustive oracle on {agree}/{n_inst} random instances")
    assert ok


# ---------------------------------------------------------------------------
# 10. long-run stability: 30 simulated minutes, 0.1 ppm drift


@pytest.mark.slow
def test_criterion_10_long_run_stability(tmp_path):
    ini = tmp_path / "stability.ini"
    ini.write_text("\n".join([
        "[session]", "duration = 1800.0", "seed = 101010",
        "[source]", "pair_rate = 7000", "visibility_hv = 0.892",
        "visibility_da = 0.892",
        "[alice]", "efficiency = 0.30", "jitter_sigma = 3.3629",
        "dark_rate = 300",
        "[bob]", "efficiency = 0.30", "jitter_sigma = 3.3629",
        "dark_rate = 300", "clock_offset = 400000000",
        "clock_drift = 1.0e-7",
        "[ecorr]", "cluster_bits = 2000",
        "[output]", f"keys_alice = {tmp_path / 'a.etky'}",
        f"keys_bob = {tmp_path / 'b.etky'}",
        f"metrics_alice = {tmp_path / 'a.csv'}",
    ]) + "\n")
    cfg = app.load_config(ini)
    out_m, out_s = app.run_loopback(cfg)

    lines = (tmp_path / "a.csv").read_text().strip().split("\n")[1:]
    per_interval = {}
    for line in lines:
        parts = line.split(",")
        t, secret_cps = float(parts[0]), float(parts[3])
        per_interval.setdefault(int(t // 60.0), 0.0)
        per_interval[int(t // 60.0)] += secret_cps * 10.0
    intervals = [per_interval.get(k, 0.0) for k in range(30)]
    nonzero = sum(1 for v in intervals if v > 0)
    keys_equal = ({cid: b.tobytes() for cid, b in
                   read_key_file(tmp_path / "a.etky")} ==
                  {cid: b.tobytes() for cid, b in
                   read_key_file(tmp_path / "b.etky")})
    ok = nonzero == 30 and keys_equal and out_m.clusters_mismatched == 0
    _report.record(
        f"criterion 10 {'PASS' if ok else 'FAIL'}: 30 min simulated at "
        f"0.1 ppm drift; secret bits in {nonzero}/30 of the 60 s intervals "
        f"(min {min(intervals):.0f} bits); keys identical on both ends; "
        f"overall secret rate {out_m.secret_bits / 1800.0:.0f} bit/s")
    assert nonzero == 30, intervals
    assert keys_equal
    assert out_m.secret_bits == out_s.secret_bits > 0

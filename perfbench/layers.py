"""Per-layer figures of one traced session, and their roll-up over a run.

Seconds are self times (a span minus the child spans it covers), summed
over the session, unless the name says otherwise. Rates divide the work a
layer did (events, bits) by its self time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from checks import h2
from tracing import ChannelCounters, Tracer, self_times


UNITS = {
    "physim.simulate_s": "s",
    "physim.events_per_s": "event/s",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.encode_events_per_s": "event/s",
    "wire.decode_events_per_s": "event/s",
    "wire.timing_bits_per_event": "bit/event",
    "channel.timing_bytes": "B",
    "channel.coinc_reply_bytes": "B",
    "channel.ec_parity_bytes": "B",
    "channel.messages": "count",
    "channel.recv_wait_s.matcher": "s",
    "channel.recv_wait_s.streamer": "s",
    "tsync.lock_s": "s",
    "tsync.servo_s": "s",
    "coinc.match_s": "s",
    "coinc.match_events_per_s": "event/s",
    "coinc.accidentals_s": "s",
    "coinc.sift_s": "s",
    "coinc.sift_yield": "bit/event",
    "ecorr.clusters": "count",
    "ecorr.reconcile_s.matcher": "s",
    "ecorr.reconcile_s.streamer": "s",
    "ecorr.cluster_ms_p50": "ms",
    "ecorr.cluster_ms_tail": "ms",
    "ecorr.wait_s": "s",
    "ecorr.messages_per_cluster": "count",
    "ecorr.f": "ratio",
    "privamp.toeplitz_s.matcher": "s",
    "privamp.toeplitz_s.streamer": "s",
    "privamp.toeplitz_bits_per_s": "bit/s",
    "privamp.digest_s": "s",
    "privamp.secret_fraction": "ratio",
    "node.matcher_s": "s",
    "node.streamer_s": "s",
    "node.matcher_self_s": "s",
    "node.streamer_self_s": "s",
    "node.streamer_send_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def layer_figures(tr: Tracer, session: dict) -> dict:
    """Every per-layer figure of one traced session; `ecorr.cluster_ms`
    is a list, pooled over the run's sessions by `roll_up`."""
    spans = tr.spans
    own = self_times(spans)
    busy: dict = defaultdict(float)     # (name, role) -> self seconds
    span_s: dict = defaultdict(float)   # (name, role) -> span seconds
    work: dict = defaultdict(int)       # name -> work count
    cluster_ms = []
    ec_wait = 0.0
    for i, (name, role, parent, t0, t1, count) in enumerate(spans):
        busy[name, role] += own[i]
        span_s[name, role] += t1 - t0
        work[name] += count
        if name == "ecorr.reconcile" and role == "matcher":
            cluster_ms.append((t1 - t0) * 1e3)
        if (name == "channel.recv" and parent >= 0
                and spans[parent][0] == "ecorr.reconcile"):
            ec_wait += t1 - t0

    def total(name):
        return sum(v for (n, _), v in busy.items() if n == name)

    nbytes = session["channel_bytes"]
    nmsgs = session["channel_messages"]
    matcher = session["matcher"]
    reports = matcher["reports"]
    reconciled = sum(r["r"] for r in reports)
    leak_floor = sum(r["r"] * h2(r["eta"]) for r in reports)
    timing_payload = (nbytes.get("TIMING", 0)
                      - ChannelCounters.FRAME_HEADER * nmsgs.get("TIMING", 0))
    encode_s = total("wire.encode_timing")
    decode_s = total("wire.decode_timing")
    toeplitz_s = total("privamp.toeplitz")
    match_s = total("coinc.match")
    simulate_s = total("physim.simulate_link")
    marks = tr.marks
    return {
        "physim.simulate_s": simulate_s,
        "physim.events_per_s": _ratio(work["physim.simulate_link"],
                                      simulate_s),
        "wire.encode_s": encode_s,
        "wire.decode_s": decode_s,
        "wire.encode_events_per_s": _ratio(work["wire.encode_timing"],
                                           encode_s),
        "wire.decode_events_per_s": _ratio(work["wire.decode_timing"],
                                           decode_s),
        "wire.timing_bits_per_event": _ratio(8 * timing_payload,
                                             work["wire.encode_timing"]),
        "channel.timing_bytes": nbytes.get("TIMING", 0),
        "channel.coinc_reply_bytes": nbytes.get("COINC_REPLY", 0),
        "channel.ec_parity_bytes": nbytes.get("EC_PARITY", 0),
        "channel.messages": sum(nmsgs.values()),
        "channel.recv_wait_s.matcher": span_s["channel.recv", "matcher"],
        "channel.recv_wait_s.streamer": span_s["channel.recv", "streamer"],
        "tsync.lock_s": total("tsync.initial_lock"),
        "tsync.servo_s": total("tsync.servo_update"),
        "coinc.match_s": match_s,
        "coinc.match_events_per_s": _ratio(work["coinc.match"], match_s),
        "coinc.accidentals_s": total("coinc.count_accidentals"),
        "coinc.sift_s": total("coinc.sift"),
        "coinc.sift_yield": _ratio(matcher["sifted_bits"],
                                   work["wire.decode_timing"]),
        "ecorr.clusters": len(reports),
        "ecorr.reconcile_s.matcher": busy["ecorr.reconcile", "matcher"],
        "ecorr.reconcile_s.streamer": busy["ecorr.reconcile", "streamer"],
        "ecorr.cluster_ms": cluster_ms,
        "ecorr.wait_s": ec_wait,
        "ecorr.messages_per_cluster": _ratio(nmsgs.get("EC_PARITY", 0),
                                             len(reports)),
        "ecorr.f": _ratio(sum(r["c"] for r in reports), leak_floor),
        "privamp.toeplitz_s.matcher": busy["privamp.toeplitz", "matcher"],
        "privamp.toeplitz_s.streamer": busy["privamp.toeplitz", "streamer"],
        "privamp.toeplitz_bits_per_s": _ratio(work["privamp.toeplitz"],
                                              toeplitz_s),
        "privamp.digest_s": total("privamp.digest"),
        "privamp.secret_fraction": _ratio(matcher["secret_bits"], reconciled),
        "node.matcher_s": span_s["node.matcher", "matcher"],
        "node.streamer_s": span_s["node.streamer", "streamer"],
        "node.matcher_self_s": busy["node.matcher", "matcher"],
        "node.streamer_self_s": busy["node.streamer", "streamer"],
        "node.streamer_send_s": (marks["streamer.BYE"]
                                 - marks["streamer.HELLO"]),
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it; the
    median when there are fewer than forty samples."""
    if n < 40:
        return 50
    return min(99, int(100 * (1 - 10 / n)))


def roll_up(per_session: list[dict]) -> tuple[dict, int, int]:
    """Median of each figure over the run's traced sessions; cluster
    latencies are pooled first, so their percentiles use every cluster.
    Returns the figures, the tail percentile and the cluster count."""
    out = {}
    for key in per_session[0]:
        if key == "ecorr.cluster_ms":
            continue
        out[key] = statistics.median(s[key] for s in per_session)
    pooled = sorted(ms for s in per_session for ms in s["ecorr.cluster_ms"])
    pct = tail_percentile(len(pooled))
    out["ecorr.cluster_ms_p50"] = statistics.median(pooled)
    out["ecorr.cluster_ms_tail"] = (
        statistics.quantiles(pooled, n=100)[pct - 1] if pct > 50
        else out["ecorr.cluster_ms_p50"])
    return out, pct, len(pooled)

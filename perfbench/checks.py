"""Output checks made apart from the program.

Pure Python on purpose: nothing here imports `entkd` or numpy, so a fault in
the program's own arithmetic cannot hide in the check. Each check returns
`None` when it holds and a one-line reason when it does not.
"""

from __future__ import annotations

import configparser
import math
import struct

TICKS_PER_SECOND = 8e9
ONES_SIGMAS = 5.0
QBER_SIGMAS = 5.0
QBER_MODEL_SLACK = 0.002
"""Absolute slack for what the QBER model leaves out: greedy matching,
same-tick dedupe, and jitter rounded to whole ticks on each side."""

_KEY_HDR = struct.Struct("<4sH")
_KEY_REC = struct.Struct("<II")


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_bound(r: int, eta: float, c: int) -> int:
    """m = r - ceil(r * (1 - h2((1 + z) / 2))) - c, z = 2 sqrt(eta (1 - eta))."""
    z = 2.0 * math.sqrt(eta * (1.0 - eta))
    return r - math.ceil(r * (1.0 - h2((1.0 + z) / 2.0))) - c


def read_keys(path) -> list[tuple[int, int, bytes]]:
    """(cluster id, bit count, packed bits) for every record of a key file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _version = _KEY_HDR.unpack_from(blob, 0)
    if magic != b"ETKY":
        raise ValueError(f"{path}: not a key file")
    out, pos = [], _KEY_HDR.size
    while pos < len(blob):
        cid, m = _KEY_REC.unpack_from(blob, pos)
        pos += _KEY_REC.size
        n = (m + 7) // 8
        if pos + n > len(blob):
            raise ValueError(f"{path}: truncated record for cluster {cid}")
        out.append((cid, m, blob[pos:pos + n]))
        pos += n
    return out


def count_ones(m: int, packed: bytes) -> int:
    pad = 8 * len(packed) - m
    return (int.from_bytes(packed, "big") >> pad).bit_count()


def expected_qber(ini_path) -> float:
    """Sifted error fraction the link's settings imply.

    True pairs seen by both stations inside the acceptance window err with
    probability (1 - V)/2, V the mean visibility over the run; accidental
    coincidences between uncorrelated singles err with probability 1/2.
    Assumes equal detector delays and no dead time, as in every workload.
    """
    cp = configparser.ConfigParser()
    with open(ini_path) as fh:
        cp.read_file(fh)
    f = cp.getfloat
    rate = f("source", "pair_rate")
    vis = ((f("source", "visibility_hv") + f("source", "visibility_da")) / 2
           - f("source", "visibility_ramp") / 2)
    eff_a, eff_b = f("alice", "efficiency"), f("bob", "efficiency")
    sigma = math.hypot(f("alice", "jitter_sigma"), f("bob", "jitter_sigma"))
    half = f("windows", "accept_half")
    in_window = math.erf((half + 0.5) / (sigma * math.sqrt(2.0))) if sigma else 1.0
    true_rate = rate * eff_a * eff_b * in_window
    singles_a = rate * eff_a + 4 * f("alice", "dark_rate")
    singles_b = rate * eff_b + 4 * f("bob", "dark_rate")
    accidental_rate = singles_a * singles_b * (2 * half + 1) / TICKS_PER_SECOND
    return ((true_rate * (1.0 - vis) / 2 + accidental_rate / 2)
            / (true_rate + accidental_rate))


def check_keys_identical(keys_a, keys_b):
    if not keys_a or sum(m for _, m, _ in keys_a) == 0:
        return "matcher key file is empty"
    if keys_a != keys_b:
        differ = [a[0] for a, b in zip(keys_a, keys_b) if a != b]
        return (f"key files differ ({len(keys_a)} vs {len(keys_b)} records, "
                f"first differing cluster {differ[:1]})")
    return None


def check_record_bounds(keys, session):
    for role in ("matcher", "streamer"):
        reports = {r["cluster_id"]: r for r in session[role]["reports"]}
        for cid, m, _ in keys:
            rep = reports.get(cid)
            if rep is None:
                return f"key record for cluster {cid} has no {role} report"
            bound = key_bound(rep["r"], rep["eta"], rep["c"])
            if m > bound:
                return (f"cluster {cid}: {m} key bits exceed the bound {bound} "
                        f"from the {role} report (r={rep['r']}, c={rep['c']})")
    return None


def check_sifted_sum(session):
    for role in ("matcher", "streamer"):
        side = session[role]
        total = sum(r["r"] for r in side["reports"])
        if total != side["sifted_bits"]:
            return (f"{role}: clusters hold {total} bits, "
                    f"{side['sifted_bits']} were sifted")
    if session["matcher"]["sifted_bits"] != session["streamer"]["sifted_bits"]:
        return "the stations sifted different bit counts"
    return None


def check_error_fraction(session, expected):
    reports = session["matcher"]["reports"]
    n = sum(r["r"] for r in reports)
    if n == 0:
        return "no reconciled bits"
    measured = sum(r["errors_found"] for r in reports) / n
    tol = QBER_MODEL_SLACK + QBER_SIGMAS * math.sqrt(
        expected * (1 - expected) / n)
    if abs(measured - expected) > tol:
        return (f"error fraction {measured:.5f}, expected {expected:.5f} "
                f"within {tol:.5f}")
    return None


def check_ones_share(keys):
    n = sum(m for _, m, _ in keys)
    if n == 0:
        return "no key bits"
    share = sum(count_ones(m, b) for _, m, b in keys) / n
    tol = ONES_SIGMAS * 0.5 / math.sqrt(n)
    if abs(share - 0.5) > tol:
        return f"share of ones {share:.5f}, outside 0.5 +- {tol:.5f}"
    return None


def check_session(session: dict, keys_a_path, keys_b_path,
                  expected: float) -> dict[str, str | None]:
    """Every check on one session's outputs, by name."""
    keys_a = read_keys(keys_a_path)
    keys_b = read_keys(keys_b_path)
    return {
        "keys_identical": check_keys_identical(keys_a, keys_b),
        "record_bound": check_record_bounds(keys_a, session),
        "sifted_sum": check_sifted_sum(session),
        "error_fraction": check_error_fraction(session, expected),
        "ones_share": check_ones_share(keys_a),
    }

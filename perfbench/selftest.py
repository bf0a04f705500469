"""Show that every output check can fail.

    python3 perfbench/selftest.py

Runs one real `noisy_link` session, checks that its untampered outputs pass,
then tampers with a copy of them once per check and requires that check to
fail: one flipped key bit, one record longer than its bound, one dropped
cluster, a link whose settings imply another error rate, and a key of all
ones. Exits 0 when every check behaved as required.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import struct
import sys
import time

import checks
import run

OUT = os.path.join(run.OUT_ROOT, "selftest")
WORKLOAD = "noisy_link"


def _bits(m: int, packed: bytes) -> str:
    return "".join(f"{b:08b}" for b in packed)[:m]


def _packed(bits: str) -> bytes:
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def write_keys(path, records) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sH", b"ETKY", 1))
        for cid, m, packed in records:
            fh.write(struct.pack("<II", cid, m) + packed)


def flip_bit(session, keys):
    """Flip the first bit of the streamer's first key record."""
    cid, m, packed = keys[0]
    bob = [(cid, m, bytes([packed[0] ^ 0x80]) + packed[1:])] + keys[1:]
    return session, keys, bob


def lengthen_record(session, keys):
    """Both stations hold one record one bit longer than its bound."""
    cid, m, packed = keys[0]
    rep = next(r for r in session["matcher"]["reports"]
               if r["cluster_id"] == cid)
    longer = checks.key_bound(rep["r"], rep["eta"], rep["c"]) + 1
    bits = (_bits(m, packed) + "01" * longer)[:longer]
    new = [(cid, longer, _packed(bits))] + keys[1:]
    return session, new, new


def drop_cluster(session, keys):
    """One cluster vanishes: its reports and key records, on both sides."""
    cid = keys[-1][0]
    session = copy.deepcopy(session)
    for role in ("matcher", "streamer"):
        side = session[role]
        side["reports"] = [r for r in side["reports"] if r["cluster_id"] != cid]
    kept = [k for k in keys if k[0] != cid]
    return session, kept, kept


def all_ones(session, keys):
    """Both stations hold keys of all ones."""
    new = [(cid, m, _packed("1" * m)) for cid, m, _ in keys]
    return session, new, new


TAMPERS = [
    ("flipped key bit", flip_bit, "keys_identical"),
    ("record longer than its bound", lengthen_record, "record_bound"),
    ("dropped cluster", drop_cluster, "sifted_sum"),
    ("all-ones key", all_ones, "ones_share"),
]


def main() -> int:
    config = run.WORKLOADS[WORKLOAD]
    shutil.rmtree(OUT, ignore_errors=True)
    session_dir = os.path.join(OUT, "session")
    session = run.run_session(config, 1, session_dir, False,
                              time.monotonic() + run.RUN_LIMIT_S)
    keys_a = os.path.join(session_dir, "alice.etky")
    keys_b = os.path.join(session_dir, "bob.etky")
    expected = checks.expected_qber(config)
    ok = True

    def verdict(label, result, must_fail):
        nonlocal ok
        failing = sorted(n for n, why in result.items() if why)
        good = failing == [must_fail] if must_fail else not failing
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {label}: failing checks "
              f"{failing or 'none'}"
              + (f" (want {must_fail})" if must_fail else ""))
        for n in failing:
            print(f"       {n}: {result[n]}")

    verdict("untampered session",
            checks.check_session(session, keys_a, keys_b, expected), None)

    keys = checks.read_keys(keys_a)
    for label, tamper, target in TAMPERS:
        t_session, t_a, t_b = tamper(session, list(keys))
        d = os.path.join(OUT, target)
        os.makedirs(d)
        write_keys(os.path.join(d, "alice.etky"), t_a)
        write_keys(os.path.join(d, "bob.etky"), t_b)
        verdict(label, checks.check_session(
            t_session, os.path.join(d, "alice.etky"),
            os.path.join(d, "bob.etky"), expected), target)

    other = checks.expected_qber(run.WORKLOADS["nominal"])
    verdict(f"settings implying {other:.4f} errors, not {expected:.4f}",
            checks.check_session(session, keys_a, keys_b, other),
            "error_fraction")
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Session benchmark: whole loopback sessions, each in a fresh process.

    python3 perfbench/run.py --workload nominal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. For `--seconds` it runs one session after
another (at least `MIN_SESSIONS` untraced ones), each in a new process started from this
one, checks every session's outputs against computations of its own
(checks.py), and prints one line per session and, last, one JSON object:
`correct`, `attempted`, `failed` and `metrics`, each metric the median over
the run's sessions.

`--trace 0` reports the end-to-end metrics of untraced sessions. `--trace 1`
runs each session twice on the same seed, untraced and then traced, and
reports the per-layer metrics of the traced ones (layers.py) plus the
tracing overhead: the traced wall time over the untraced one, less one.

Session k of a run uses the session seed `1000 * seed + k`. Outputs go to
`.perfbench_out/<workload>/`, emptied at the start of every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from session import EXIT_SESSION_FAILED  # noqa: E402

OUT_ROOT = ".perfbench_out"
MIN_SESSIONS = 3
RUN_LIMIT_S = 170.0
"""Hard end of a run, counted from its start: no session outlives it."""
POLL_S = 0.02

WORKLOADS = {
    "nominal": "configs/nominal_run.ini",
    "bright_link": "perfbench/workloads/bright_link.ini",
    "noisy_link": "perfbench/workloads/noisy_link.ini",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "secret_bps": "bit/s",
    "wire_bytes": "B",
    "ec_messages": "count",
}


class BenchError(RuntimeError):
    """No result can be given: the program is missing or a session crashed."""


def run_session(config: str, seed: int, out: str, traced: bool,
                deadline: float) -> dict:
    """One session in a fresh process. Returns its session.json plus the
    process's CPU time and peak RSS as the kernel accounted them."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--config", config, "--seed", str(seed), "--out", out]
    if traced:
        cmd.append("--trace")
    with open(os.path.join(out, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
    # poll with wait4 rather than Popen.wait: only wait4 returns the rusage
    # of this one child
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return {"error": f"session {seed} overran the run limit"}
        time.sleep(POLL_S)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code not in (0, EXIT_SESSION_FAILED):
        with open(os.path.join(out, "stderr.txt"), errors="replace") as fh:
            raise BenchError(f"session {seed} exited {code}: "
                             f"{fh.read().strip()[-2000:]}")
    with open(os.path.join(out, "session.json")) as fh:
        result = json.load(fh)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB
    return result


def end_to_end(s: dict) -> dict:
    return {
        "wall_s": s["wall_s"],
        "setup_s": s["setup_s"],
        "cpu_s": s["cpu_s"],
        "peak_rss_mb": s["peak_rss_mb"],
        "secret_bps": s["matcher"]["secret_bits"] / s["duration_s"],
        "wire_bytes": sum(s["channel_bytes"].values()),
        "ec_messages": s["channel_messages"].get("EC_PARITY", 0),
    }


def tally(s: dict) -> tuple[int, int]:
    """(attempted, failed): the session and each of its clusters; a
    discarded or mismatched cluster, or a failed session, fails."""
    if "error" in s:
        return 1, 1
    m = s["matcher"]
    return (1 + len(m["reports"]),
            m["clusters_discarded"] + m["clusters_mismatched"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    config = WORKLOADS[args.workload]
    for need in (config, os.path.join("src", "entkd", "__init__.py")):
        if not os.path.isfile(need):
            print(f"perfbench: {need} not found; run from a checkout root",
                  file=sys.stderr)
            return 2
    expected_qber = checks.expected_qber(config)
    out_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes = ((False, True) if args.trace else (False,))
    sessions: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    correct = True
    k = 0
    min_sessions = 1 if args.trace else MIN_SESSIONS
    while k < min_sessions or time.monotonic() - start < args.seconds:
        seed = 1000 * args.seed + k
        for traced in passes:
            out = os.path.join(out_dir, f"s{k}{'-traced' if traced else ''}")
            try:
                s = run_session(config, seed, out, traced, deadline)
            except BenchError as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            a, f = tally(s)
            attempted += a
            failed += f
            if "error" in s:
                print(f"session seed={seed} traced={int(traced)} "
                      f"FAILED: {s['error']}")
                continue
            verdicts = checks.check_session(
                s, os.path.join(out, "alice.etky"),
                os.path.join(out, "bob.etky"), expected_qber)
            bad = {n: why for n, why in verdicts.items() if why}
            correct &= not bad
            sessions[traced].append(s)
            e2e = end_to_end(s)
            print(f"session seed={seed} traced={int(traced)} "
                  + " ".join(f"{n}={v:.6g}{END_TO_END_UNITS[n]}"
                             for n, v in e2e.items())
                  + f" attempted={a} failed={f} checks="
                  + ("ok" if not bad else json.dumps(bad)))
        k += 1

    if not sessions[args.trace]:
        print("perfbench: every session failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = traced_metrics(sessions[False], sessions[True])
        with open(os.path.join(out_dir, "layers.json"), "w") as fh:
            json.dump(metrics, fh, indent=1)
    else:
        metrics = {name: {"value": statistics.median(
                              end_to_end(s)[name] for s in sessions[False]),
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


def traced_metrics(plain: list[dict], traced: list[dict]) -> dict:
    figures, pct, n = layers.roll_up([s["layers"] for s in traced])
    print(f"ecorr.cluster_ms_tail is the p{pct} of {n} clusters")
    wall = {s["seed"]: s["wall_s"] for s in plain}
    figures["trace.overhead_pct"] = 100 * (statistics.median(
        s["wall_s"] / wall[s["seed"]] for s in traced if s["seed"] in wall)
        - 1)
    return {name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in figures.items()}


if __name__ == "__main__":
    sys.exit(main())

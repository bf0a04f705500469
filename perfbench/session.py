"""One loopback session in this process, through the program's entry points.

    python3 perfbench/session.py --config INI --seed N --out DIR [--trace]

Runs `app.load_config` and then `app.run_loopback`, with both stations'
key and metrics files in DIR, and writes DIR/session.json: the two
outcomes, every cluster's reconciliation report, channel bytes and messages
per type, and the wall and set-up times, both as measured (`*_raw_s`) and
scaled by the share of processor time the hypervisor did not take
(`tracing.steal_share`). With `--trace` it also wraps every layer (see
tracing.py), adds the per-layer figures and writes the spans to
DIR/spans.json.

Exit codes: 0 with session.json written, 3 when the session itself failed
(the reason is in session.json), anything else when the program could not
be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXIT_SESSION_FAILED = 3


def _pin_to_one_processor() -> None:
    """Keep every thread of this session on one processor.

    Both stations and their socket readers are threads of this process and
    take turns on the GIL, so a second processor adds little but
    cross-processor wake-ups, whose cost on a shared virtual machine
    depends on the hypervisor: unpinned `noisy_link` sessions took 1.2 to
    3 times as long and 1.4 to 1.7 times the CPU. Called before numpy is
    imported, so its threads inherit the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "entkd", "__init__.py")):
        sys.exit(f"no entkd package under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _report_rows(outcome) -> list[dict]:
    return [{"cluster_id": r.cluster_id, "r": r.r, "c": r.c,
             "errors_found": r.errors_found, "eta": r.eta}
            for r in outcome.reports]


def _outcome(o) -> dict:
    return {"role": o.role, "epochs": o.epochs, "sifted_bits": o.sifted_bits,
            "secret_bits": o.secret_bits, "clusters_ok": o.clusters_ok,
            "clusters_discarded": o.clusters_discarded,
            "clusters_mismatched": o.clusters_mismatched,
            "reports": _report_rows(o)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    _pin_to_one_processor()
    _import_program()
    from entkd import app
    from entkd.channel import ChannelClosed
    from entkd.core import ContractViolation
    from entkd.wire import DecodeError, ProtocolError

    import tracing

    counters = tracing.install_counters()
    tracer = tracing.install_tracer() if args.trace else None

    out = args.out
    result: dict = {"seed": args.seed, "traced": args.trace}
    t0, ticks0 = time.perf_counter(), tracing.cpu_ticks()
    try:
        cfg = app.load_config(args.config, seed=args.seed)
        cfg.keys_alice = os.path.join(out, "alice.etky")
        cfg.keys_bob = os.path.join(out, "bob.etky")
        cfg.metrics_alice = os.path.join(out, "alice_metrics.csv")
        cfg.metrics_bob = os.path.join(out, "bob_metrics.csv")
        out_m, out_s = app.run_loopback(cfg)
    except (app.ConfigError, ChannelClosed, ConnectionError, OSError,
            ProtocolError, DecodeError, ContractViolation) as exc:
        result["error"] = f"{type(exc).__name__}: {exc}"
        _write(out, "session.json", result)
        return EXIT_SESSION_FAILED
    t_end, ticks_end = time.perf_counter(), tracing.cpu_ticks()
    steal = tracing.steal_share(ticks0, ticks_end)

    result.update({
        "duration_s": cfg.duration,
        "wall_raw_s": t_end - t0,
        "setup_raw_s": counters.first_send - t0,
        "steal_share": steal,
        # one share for both: the set-up interval alone holds too few
        # 10 ms ticks to estimate its own
        "wall_s": (t_end - t0) * (1.0 - steal),
        "setup_s": (counters.first_send - t0) * (1.0 - steal),
        "channel_bytes": counters.bytes,
        "channel_messages": counters.messages,
        "matcher": _outcome(out_m),
        "streamer": _outcome(out_s),
    })
    if tracer is not None:
        import layers
        result["layers"] = layers.layer_figures(tracer, result)
        _write(out, "spans.json", {"marks": tracer.marks,
                                   "spans": tracer.spans})
    _write(out, "session.json", result)
    return 0


def _write(out: str, name: str, obj) -> None:
    with open(os.path.join(out, name), "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())

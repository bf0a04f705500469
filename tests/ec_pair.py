"""Both sides of one reconciliation, run in lockstep in a single thread.

The node runs each side at its own station over a socket. Tests need the
two in one call: `reconcile_pair` steps the reference and correcting
engines in turn, hands each message straight to the other side's inbox,
and optionally records every message as (sender label, Message), with
"a" for the reference side and "b" for the correcting side.
"""

from __future__ import annotations

from collections import deque

from entkd.ecorr import DEFAULT_ETA, ROLE_CORRECTING, ROLE_REFERENCE, _Engine
from entkd.wire import ProtocolError


def reconcile_pair(bits_ref, bits_cor, cluster_id=0, shared_seed=1,
                   eta_est=DEFAULT_ETA, transcript=None):
    """Reconcile two in-memory bit arrays.

    Returns (corrected bits, reference report, correcting report).
    """
    engines = (
        _Engine(ROLE_REFERENCE, bits_ref, cluster_id, shared_seed, eta_est),
        _Engine(ROLE_CORRECTING, bits_cor, cluster_id, shared_seed, eta_est),
    )
    labels = ("a", "b")
    steps = [eng.run() for eng in engines]
    inbox = (deque(), deque())
    waiting = [False, False]   # parked on a receive
    done = [False, False]
    reports = [None, None]
    while not all(done):
        moved = False
        for i in (0, 1):
            while not done[i]:
                if waiting[i] and not inbox[i]:
                    break
                reply = inbox[i].popleft() if waiting[i] else None
                moved = True
                try:
                    out = steps[i].send(reply)
                except StopIteration as stop:
                    done[i], reports[i] = True, stop.value
                    break
                waiting[i] = out is None
                if out is not None:
                    if transcript is not None:
                        transcript.append((labels[i], out))
                    inbox[1 - i].append(out)
        if not moved:
            raise ProtocolError("both sides wait for a message")
    return engines[1].bits, reports[0], reports[1]

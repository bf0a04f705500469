"""Both sides of one reconciliation batch, run in lockstep in a single thread.

The node runs each side at its own station over a socket. Tests need the
two in one call: `reconcile_batch_pair` steps the reference and
correcting sides of a batch in turn, hands each frame straight to the
other side's inbox, and optionally records every frame as
(sender label, Message), with "a" for the reference side and "b" for the
correcting side. `reconcile_pair` is the batch of one cluster.
"""

from __future__ import annotations

from collections import deque

from entkd.ecorr import (DEFAULT_ETA, ROLE_CORRECTING, ROLE_REFERENCE,
                         _Engine, _lockstep)
from entkd.wire import ProtocolError


def _engines(role, batch, eta_est):
    return [_Engine(role, bits, cid, seed, eta_est) for cid, bits, seed in batch]


def reconcile_batch_pair(batch_ref, batch_cor, eta_est=DEFAULT_ETA,
                         transcript=None):
    """Reconcile two batches of in-memory (cluster id, bits, shared seed)
    triples, one per side.

    Returns (corrected bit arrays, reference reports, correcting reports),
    each in batch order.
    """
    engines = (_engines(ROLE_REFERENCE, batch_ref, eta_est),
               _engines(ROLE_CORRECTING, batch_cor, eta_est))
    labels = ("a", "b")
    steps = [_lockstep(side) for side in engines]
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
    return [eng.bits for eng in engines[1]], reports[0], reports[1]


def reconcile_pair(bits_ref, bits_cor, cluster_id=0, shared_seed=1,
                   eta_est=DEFAULT_ETA, transcript=None):
    """Reconcile two in-memory bit arrays as a batch of one.

    Returns (corrected bits, reference report, correcting report).
    """
    out, ref, cor = reconcile_batch_pair(
        [(cluster_id, bits_ref, shared_seed)],
        [(cluster_id, bits_cor, shared_seed)], eta_est, transcript)
    return out[0], ref[0], cor[0]

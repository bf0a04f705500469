"""Interactive parity-exchange error correction on clustered key bits.

One engine per cluster serves either side of the dialogue and does no
I/O: its phases are generators that yield each outgoing parity section
and take each incoming one as the value of a bare yield. The reference
side discloses parities of its bits; the correcting side compares them
against its own, locates differing positions by batched binary
bisection, and flips them. Six partition passes (block sizes from
block_schedule; the first in natural order, the rest over shared seeded
permutations) are followed by random-subset confirmation rounds until
twelve consecutive rounds agree. Every bit flipped re-opens the blocks
that hold it in the passes already run, and those are bisected again
before the next pass starts (the Cascade effect).

A batch of clusters is reconciled over one dialogue (Pedersen and
Toyran, "High performance information reconciliation for QKD with
CASCADE", QIC 15, 2015): _lockstep steps the batch's engines together,
and each EC_PARITY frame carries one section for every cluster that has
something to send at that point, so a bisection level costs one round
trip for the whole batch. Every engine runs exactly the dialogue it
would run alone; only the framing is shared. _drive connects a batch to
a transport's send and receive.

Disclosed-parity accounting: every bisection step leaks exactly one bit
about the shared string (one side's half-block parity plus the other
side's compare outcome), so only reference-side parity sections carry
the counted flag. Both engines accumulate the same count c, and the
section envelope makes the accounting auditable from a raw transcript.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .wire import (Message, MsgType, ParitySection, ProtocolError,
                   decode_ec_parity, encode_ec_parity)

N_PASSES = 6
BICONF_TARGET = 12
DEFAULT_ETA = 0.05
ETA_ALPHA = 0.5
MIN_BLOCK = 8
CLUSTER_THRESHOLD = 5000

# round identifiers inside EC_PARITY messages
R_PASS_BASE = 0        # + pass index: reference block parities
R_BITMAP_BASE = 100    # + pass index: correcting-side mismatch bitmap
R_BISECT_PARITY = 110  # reference left-half parities for one bisection level
R_BISECT_BRANCH = 111  # correcting-side branch choices for the same level
R_BICONF_PARITY = 120  # reference subset parity
R_BICONF_RESULT = 121  # correcting-side subset compare outcome
R_DONE = 130           # correcting side reports its total flip count

_BICONF_SALT = 1000    # keeps subset seeds clear of pass-permutation seeds

ROLE_REFERENCE = "reference"
ROLE_CORRECTING = "correcting"


def block_schedule(eta_est: float, r: int) -> tuple[int, ...]:
    """Block size of every partition pass, from the error-rate estimate.

    k1 = 2**ceil(log2(1/eta)), k2 = 4*k1, and every later pass splits the
    cluster in two halves (Martinez-Mateo, Pacher, Peev, Ciurana and
    Martin, "Demystifying the information reconciliation protocol
    Cascade", QIC 15, 2015). Sizes are clamped to [MIN_BLOCK, ceil(r/2)],
    or to ceil(r/2) alone when the cluster is shorter than 2*MIN_BLOCK.
    """
    if r <= 0:
        raise ValueError("cluster length must be positive")
    if not (0.0 < eta_est <= 0.5):
        raise ValueError(f"eta estimate {eta_est} outside (0, 0.5]")
    half = (r + 1) // 2
    k1 = 1 << math.ceil(math.log2(1.0 / eta_est))
    k1 = max(min(k1, half), min(MIN_BLOCK, half))
    return (k1, min(4 * k1, half)) + (half,) * (N_PASSES - 2)


class EtaEstimator:
    """Exponentially weighted error-rate tracker across clusters.

    Returns DEFAULT_ETA until the first observation, which seeds the
    average outright; later observations blend in with weight ETA_ALPHA.
    """

    def __init__(self):
        self._value = DEFAULT_ETA
        self._seeded = False

    @property
    def value(self) -> float:
        return self._value

    def update(self, eta: float) -> float:
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"eta {eta} outside [0, 1]")
        # block sizing needs an estimate strictly inside (0, 0.5]
        eta = min(max(eta, 1e-4), 0.5)
        if self._seeded:
            self._value = ETA_ALPHA * eta + (1.0 - ETA_ALPHA) * self._value
        else:
            self._value = eta
            self._seeded = True
        return self._value


@dataclass(frozen=True)
class ReconciliationReport:
    cluster_id: int
    r: int
    errors_found: int
    c: int
    eta: float
    passes: tuple[dict, ...]


class _Engine:
    """One side of the reconciliation dialogue.

    Both sides mirror every piece of shared state (disclosed reference
    parities, per-block mismatch flags, flip history), so all control
    decisions are reproduced identically without extra coordination
    traffic beyond the parity and branch messages themselves.

    run() returns a generator. It yields each outgoing ParitySection,
    yields None when it needs the peer's next section (sent back into
    it), and returns the ReconciliationReport.
    """

    def __init__(self, role, bits, cluster_id, shared_seed, eta_est):
        self.role = role
        self.bits = np.array(bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.size == 0:
            raise ValueError("bits must be a nonempty 1-d array")
        if self.bits.max(initial=0) > 1:
            raise ValueError("bits must be 0/1")
        self.r = self.bits.size
        self.cluster_id = cluster_id
        self.shared_seed = shared_seed

        self.block_size = block_schedule(eta_est, self.r)
        # one mismatch flag per block of every pass, pass p's from
        # offset[p] on; perm[p] is pass p's order of the bits (pass 0 the
        # identity), and flag_of[p, i] the flag of the block holding bit i
        # in pass p. int32: a batch keeps every cluster's tables at once.
        self.perm = np.empty((N_PASSES, self.r), dtype=np.int32)
        self.flag_of = np.empty_like(self.perm)
        span = np.arange(self.r, dtype=np.int32)
        self.offset = [0]
        for p, k in enumerate(self.block_size):
            self.perm[p] = span if p == 0 else default_rng(
                (shared_seed, p)).permutation(self.r)
            self.flag_of[p, self.perm[p]] = span // k + self.offset[p]
            self.offset.append(self.offset[p] + (self.r + k - 1) // k)
        self.flags = np.zeros(self.offset[-1], dtype=np.uint8)
        # reference parities per pass run so far: of every block, and of
        # the left halves disclosed so far, keyed as in _bisect
        self.block_parity: list[list[int]] = []
        self.known: list[dict[int, int]] = []

        self.c = 0
        self.errors_found = 0
        self.pass_summaries: list[dict] = []
        self.biconf_rounds = 0
        self.biconf_hits = 0

    # -- message plumbing ---------------------------------------------

    def _round(self, sender: str, round_id: int, bits: list):
        """One round of the dialogue; returns the round's bits.

        The round's sender yields its own bits as a section and returns
        them. The other side yields None, takes the peer's section (whose
        cluster _frame_sections has matched), checks its round, length and
        counted flag against what this side expects, and returns the peer's
        bits. Both count the bits of a reference round in c.
        """
        counted = sender == ROLE_REFERENCE
        if self.role == sender:
            yield ParitySection(self.cluster_id, round_id, counted, bits)
        else:
            sec = yield None
            if sec.round_id != round_id:
                raise ProtocolError(
                    f"round {sec.round_id}, expected {round_id}")
            if len(sec.bits) != len(bits):
                raise ProtocolError(
                    f"{len(sec.bits)} parity bits, expected {len(bits)}")
            if sec.counted != counted:
                raise ProtocolError(f"round {round_id} with counted flag "
                                    f"{int(sec.counted)}")
            bits = sec.bits
        if counted:
            self.c += len(bits)
        return bits

    # -- parity bookkeeping -------------------------------------------

    def _subset_positions(self, rnd: int) -> np.ndarray:
        gen = default_rng((self.shared_seed, _BICONF_SALT + rnd))
        mask = gen.integers(0, 2, size=self.r, dtype=np.uint8)
        # the 0/1 bytes read as bools take numpy's fast nonzero path
        return mask.view(np.bool_).nonzero()[0]

    def _apply_flips(self, positions: np.ndarray) -> None:
        """Record located error positions; the correcting side also flips.

        Positions are distinct, so the fancy-index toggle is exact, and
        each block of a pass run so far flips its flag once per position
        it holds.
        """
        if self.role == ROLE_CORRECTING:
            self.bits[positions] ^= 1
        held = self.flag_of[:len(self.block_parity), positions]
        self.flags ^= np.bincount(held.ravel(), minlength=self.flags.size
                                  ).astype(np.uint8) & 1
        self.errors_found += positions.size

    # -- bisection ------------------------------------------------------

    def _bisect(self, idx: np.ndarray, known: dict, spans):
        """Locate one differing bit inside each span.

        idx orders the bits into the spans' coordinates (a pass
        permutation or a confirmation subset), and spans are the disjoint
        ascending (lo, hi, parity) triples with odd difference parity,
        parity being the reference parity of bits[idx[lo:hi]]. Each span
        splits at mid = (lo + hi) // 2. The blocks of a pass are disjoint,
        and within one every split point belongs to exactly one span of its
        bisection tree, so known holds the left-half reference parities
        disclosed so far keyed by split point alone (updated in place).
        Runs level-synchronously: one message pair covers every
        still-active span, and a left-half parity already disclosed is not
        disclosed again. Returns the located bit positions.
        """
        # prefix[x] is the parity of bits[idx[start:x]] for every x the
        # spans reach, start being where the first span begins
        start = spans[0][0]
        prefix = [0] * (start + 1)
        prefix += np.bitwise_xor.accumulate(
            self.bits[idx[start:spans[-1][1]]]).tolist()
        found = []
        for _ in range(self.r.bit_length() + 1):
            # every span still wider than one bit, and the left-half
            # parities the reference side discloses for them
            active, mids, vals = [], [], []
            for lo, hi, par in spans:
                if hi - lo == 1:
                    found.append(lo)
                    continue
                mid = (lo + hi) >> 1
                active.append((lo, mid, hi, par))
                if mid not in known:
                    mids.append(mid)
                    vals.append(prefix[mid] ^ prefix[lo])
            if not active:
                return idx[found]
            vals = yield from self._round(ROLE_REFERENCE, R_BISECT_PARITY,
                                          vals)
            known.update(zip(mids, vals))
            diff = [known[mid] ^ prefix[mid] ^ prefix[lo]
                    for lo, mid, _, _ in active]
            go_left = yield from self._round(ROLE_CORRECTING, R_BISECT_BRANCH,
                                             diff)
            spans = [(lo, mid, known[mid]) if g
                     else (mid, hi, par ^ known[mid])
                     for (lo, mid, hi, par), g in zip(active, go_left)]
        raise ProtocolError("bisection did not converge")

    def _wave(self):
        """Re-check every scanned pass until no block parity mismatches.

        The lowest pass with a mismatched block goes first, all of its
        mismatched blocks in one bisection.
        """
        for _ in range(4 * self.r):
            for p in range(len(self.block_parity)):
                state = self.flags[self.offset[p]:self.offset[p + 1]]
                if state.any():
                    break
            else:
                return
            k = self.block_size[p]
            parity = self.block_parity[p]
            spans = [(b * k, min(b * k + k, self.r), parity[b])
                     for b in np.flatnonzero(state).tolist()]
            found = yield from self._bisect(self.perm[p], self.known[p],
                                            spans)
            self._apply_flips(found)
        raise ProtocolError("correction wave did not converge")

    # -- protocol phases ------------------------------------------------

    def _run_pass(self, p: int):
        k = self.block_size[p]
        mine = np.bitwise_xor.reduceat(self.bits[self.perm[p]],
                                       np.arange(0, self.r, k)).tolist()
        ref = yield from self._round(ROLE_REFERENCE, R_PASS_BASE + p, mine)
        bitmap = yield from self._round(
            ROLE_CORRECTING, R_BITMAP_BASE + p,
            [a ^ b for a, b in zip(ref, mine)])
        self.flags[self.offset[p]:self.offset[p + 1]] = bitmap
        self.block_parity.append(ref)
        self.known.append({})
        self.pass_summaries.append({
            "pass": p,
            "block_size": k,
            "blocks": len(mine),
            "mismatched": sum(bitmap),
        })
        yield from self._wave()

    def _run_biconf(self):
        clean = 0
        rnd = 0
        while clean < BICONF_TARGET:
            positions = self._subset_positions(rnd)
            mine = int(np.bitwise_xor.reduce(self.bits[positions]))
            ref, = yield from self._round(ROLE_REFERENCE, R_BICONF_PARITY,
                                          [mine])
            hit, = yield from self._round(ROLE_CORRECTING, R_BICONF_RESULT,
                                          [ref ^ mine])
            self.biconf_rounds += 1
            if hit:
                self.biconf_hits += 1
                found = yield from self._bisect(
                    positions, {}, [(0, positions.size, ref)])
                self._apply_flips(found)
                yield from self._wave()
                clean = 0
            else:
                clean += 1
            rnd += 1
            if rnd > 64 * BICONF_TARGET + 4 * self.r:
                raise ProtocolError("confirmation phase did not terminate")

    def _finish(self):
        # the correcting side's flip count as 32 bits, most significant first
        tally = [(self.errors_found >> i) & 1 for i in range(31, -1, -1)]
        bits = yield from self._round(ROLE_CORRECTING, R_DONE, tally)
        claimed = 0
        for bit in bits:
            claimed = claimed << 1 | bit
        if claimed != self.errors_found:
            raise ProtocolError(
                f"peer corrected {claimed} errors, local tally "
                f"{self.errors_found}")

    def run(self):
        for p in range(N_PASSES):
            yield from self._run_pass(p)
        yield from self._run_biconf()
        yield from self._finish()
        # free the pass state: the batch's other engines may still be in
        # dialogue, and a batch should hold state only for those
        del self.perm, self.flag_of, self.flags, self.block_parity, self.known
        summaries = tuple(self.pass_summaries + [{
            "pass": "biconf",
            "rounds": self.biconf_rounds,
            "hits": self.biconf_hits,
        }])
        return ReconciliationReport(
            cluster_id=self.cluster_id,
            r=self.r,
            errors_found=self.errors_found,
            c=self.c,
            eta=self.errors_found / self.r,
            passes=summaries,
        )


def _lockstep(engines):
    """Run a batch's engines over one dialogue; returns their reports.

    A generator like each engine's run(): it yields each outgoing
    EC_PARITY message, yields None when it needs the peer's next one
    (sent back into it), and returns the reports in batch order. Every
    frame holds the next section of each engine that has one to send.
    Both sides step mirrored engines, so the clusters a side waits on are
    exactly those the peer's next frame must carry, in batch order. The
    batch is never empty and its ids are distinct: both stations number
    clusters in sequence as they take them off their queue of sifted bits.
    """
    ids = [eng.cluster_id for eng in engines]
    steps = [eng.run() for eng in engines]
    queued = [deque() for _ in engines]   # sections not yet sent
    waiting = [False] * len(engines)      # parked on a bare yield
    reports = [None] * len(engines)

    def advance(i, reply):
        """Resume engine i with reply until it waits or returns."""
        try:
            out = steps[i].send(reply)
            while out is not None:
                queued[i].append(out)
                out = steps[i].send(None)
            waiting[i] = True
        except StopIteration as stop:
            waiting[i], reports[i] = False, stop.value

    for i in range(len(engines)):
        advance(i, None)
    while True:
        out, expect = [], []
        for i, q in enumerate(queued):
            if q:
                out.append(q.popleft())
            if waiting[i] and not q:
                expect.append(i)
        if out:
            yield Message(MsgType.EC_PARITY, encode_ec_parity(out))
        if expect:
            sections = _frame_sections((yield None), [ids[i] for i in expect],
                                       ids)
            for i, sec in zip(expect, sections):
                advance(i, sec)
        elif not out:
            return reports


def _frame_sections(msg: Message, expect: list[int], batch: list[int]):
    """The sections of an EC_PARITY frame, one per expected cluster in
    order; a missing, foreign or misplaced cluster is a ProtocolError."""
    sections = decode_ec_parity(msg.payload)
    got = [sec.cluster_id for sec in sections]
    if got != expect:
        for cid in got:
            if cid not in batch:
                raise ProtocolError(f"cluster id {cid} is not in the batch")
        for cid in expect:
            if cid not in got:
                raise ProtocolError(f"cluster id {cid} missing from the frame")
        raise ProtocolError(f"frame carries cluster ids {got}, "
                            f"expected {expect}")
    return sections


def _drive(steps, send, recv):
    """Run a dialogue generator over a transport; returns its result.

    Each message the generator yields goes to send(); each None it yields
    is answered with recv().
    """
    reply = None
    try:
        while True:
            out = steps.send(reply)
            if out is None:
                reply = recv()
            else:
                send(out)
                reply = None
    except StopIteration as stop:
        return stop.value


def _reconcile(role, batch, eta_est, send, recv):
    engines = [_Engine(role, bits, cid, seed, eta_est)
               for cid, bits, seed in batch]
    reports = _drive(_lockstep(engines), send, recv)
    return [(eng.bits, rep) for eng, rep in zip(engines, reports)]


def reconcile_reference(batch, eta_est, send, recv
                        ) -> list[tuple[np.ndarray, ReconciliationReport]]:
    """Run the parity-source side of a batch of (cluster id, bits, shared
    seed) triples. Returns (bits, report) in batch order; the bits are
    never modified."""
    return _reconcile(ROLE_REFERENCE, batch, eta_est, send, recv)


def reconcile_correcting(batch, eta_est, send, recv
                         ) -> list[tuple[np.ndarray, ReconciliationReport]]:
    """Run the correcting side of a batch of (cluster id, bits, shared
    seed) triples. Returns (corrected bits, report) in batch order."""
    return _reconcile(ROLE_CORRECTING, batch, eta_est, send, recv)

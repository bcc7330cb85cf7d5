"""Likelihood ascent search (LAS) detectors for the synchronous CDMA model.

Detection maximizes Omega(b) = b.(A*y) - 0.5 * b.H.b over b in {-1,+1}^M,
whose gradient at the current vector is g = A*y - H b.  A LAS detector
examines an index set L(n) at each step and flips bit k when the gradient
clears the threshold t_k(n) = sum_{j in L(n)} |H_kj|:

    flip -1 -> +1  iff  g_k >  t_k(n)
    flip +1 -> -1  iff  g_k < -t_k(n)        (ties never flip)

After the step, g is updated incrementally from the pre-flip bit values:
g += 2 * sum_{i flipped} b_i H_i.  Each flipped bit i costs nnz(column i)
additions; that is the only work charged to the reported additions counter
(initial gradient and threshold sums are tracked separately).

Every flipping step strictly increases Omega, so all schedules terminate at
a fixed point; a sequential fixed point is exactly a neighborhood-1 local
maximum of Omega.

The bit-update schedules:

  sequential  -- one bit per step, fixed cyclic order 0..M-1; thresholds
                 reduce to t_k = H_kk.  Converged after a full zero-flip
                 cycle.
  parallel    -- all bits every step; after an empty-flip step, a sequential
                 cycle verifies the fixed point (and resumes parallel
                 stepping if it flipped anything).
  hybrid      -- `parallel_steps` all-bit steps, then sequential to a
                 verified fixed point.  hybrid(0) == sequential.

From the matched-filter start b = sign(y), hybrid is sequential one pass
later: with A > 0, b_k g_k = A_k |y_k| - sum_j H_kj b_k b_j >= -t_k, so
the first all-bit step flips nothing and ends the all-bit steps, and a
WSLAS run is its SLAS run plus one pass when max_passes covers both.  In
floats h_matvec sums a row as abs_row_sums does (or both exactly), and
rounding is monotone.  Summed in two orders, a flip would need |y_k|
within rounding of 0 and every H_kj b_k b_j >= 0.

One implementation runs them all: a row-batched kernel that advances K
runs in lockstep, each row on its own (y, H, start vector), every H a block
of one stacked crosscorrelation.  las_lockstep runs SLAS/WSLAS
rows (hybrid with n_prime all-bit steps, 0 for SLAS); las_run is the
one-row case for every schedule, with the debug switches.  Rows that
start the sequential phase from the same state (one problem's start, no
all-bit step having flipped) share one sequential run, and each still
reports its own counters.  A row's result does not depend on the other
rows of its batch.  The sequential phase keeps no violator bookkeeping: it
finds each row's next violator by testing the next _WINDOW bits from the
row's cursor, for all rows at once, and keeps two counters per row: the bits
tested (mod M, the cursor) and the step of the last flip.  No violator comes
a full cycle after that flip, so a row has converged when that step plus M
fits its budget; one with no passes left leaves at its first test.  Every
flip updates g through CrossCorr.add_rows, an all-bit step's one bit per
row at a time in ascending order; the kernel never reads how H is stored.

Bit vectors are int8 arrays over {-1,+1}.  Detector runs are single-threaded
over immutable (y, H, A); many runs may share one crosscorrelation.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .seqgen import _indices

MAX_EXHAUSTIVE_BITS = 20  # hard cap for the brute-force search


@dataclass(frozen=True)
class Schedule:
    """Which index set L(n) each update step examines."""

    kind: str  # "sequential" | "parallel" | "hybrid"
    parallel_steps: int = 0

    def __post_init__(self):
        if self.kind not in ("sequential", "parallel", "hybrid"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.parallel_steps != 0 and self.kind != "hybrid":
            raise ValueError("only a hybrid schedule takes parallel_steps")

    @classmethod
    def sequential(cls):
        return cls("sequential")

    @classmethod
    def parallel(cls):
        return cls("parallel")

    @classmethod
    def hybrid(cls, parallel_steps):
        return cls("hybrid", parallel_steps=parallel_steps)


@dataclass
class DetectorRun:
    """Outcome of one LAS run.

    additions counts only the incremental gradient updates (one addition per
    structural nonzero of each flipped bit's H column, diagonal included);
    overhead_additions tracks the initial gradient and any all-bit threshold
    sums.  flip_log, when recorded, lists (step, flipped bit indices).
    """

    bits: np.ndarray
    converged: bool
    steps: int
    flips: int
    additions: int
    passes: int
    overhead_additions: int
    flip_log: list = None


def mf_detect(y):
    """Sign detector on the matched-filter output; y_k == 0 decides +1."""
    return np.where(np.asarray(y) >= 0, 1, -1).astype(np.int8)


def likelihood(bits, y, xcorr, amplitudes):
    """Omega(b) = b.(A*y) - 0.5 * b.H.b, the ascent metric.

    Equals the model log-likelihood up to a constant independent of b, so
    argmax and ascent statements transfer exactly.
    """
    b = np.asarray(bits, dtype=np.float64)
    ay = np.asarray(amplitudes, dtype=np.float64) * np.asarray(y, dtype=np.float64)
    return float(b @ ay - 0.5 * (b @ xcorr.h_matvec(b)))


def initial_gradient(bits, y, xcorr, amplitudes):
    """g = A*y - H b at the given vector, via the sparse H."""
    b = np.asarray(bits, dtype=np.float64)
    ay = np.asarray(amplitudes, dtype=np.float64) * np.asarray(y, dtype=np.float64)
    return ay - xcorr.h_matvec(b)


_WINDOW = 64  # bits the sequential phase tests per row and iteration


@dataclass
class LockstepRuns:
    """Per-row outcome of las_lockstep; row r is one detector run."""

    bits: np.ndarray  # (K, M) int8
    converged: np.ndarray  # (K,) bool
    steps: np.ndarray  # (K,) int64, like the counters below
    flips: np.ndarray
    additions: np.ndarray
    passes: np.ndarray


class _Lockstep:
    """Working state of K detector runs advanced together.

    Row r runs on problem problem[r] = (y, start vector, H), every H a
    block of one stacked CrossCorr: problem p's is block hblock[p], and
    hblock None is np.arange(n_blocks), one problem per block.  It has
    n_prime[r] all-bit steps and a budget of max_passes[r] passes; rows of
    one problem share its initial gradient.  Rows stay in the caller's
    order, and any row order is exact.  Bits and gradients are (K, Mp)
    arrays, Mp = M + _WINDOW, so that a window starting at any bit fits;
    thresholds -H_kk are read at block * M + bit of the stack's -diag,
    padded by _WINDOW zeros.  Padding bits are 0, so a window past bit
    M - 1 never violates.  The debug switches of las_run act per flip
    event; only las_run sets them, with K = 1.
    """

    def __init__(self, y, xcorr, amplitudes, b0, problem, hblock, n_prime,
                 max_passes, record_flips=False, check_gradient=False):
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        b0 = np.atleast_2d(np.asarray(b0))
        A = np.asarray(amplitudes, dtype=np.float64)
        P, M = len(y), xcorr.n_bits
        if y.shape != (P, M) or b0.shape != (P, M) or A.shape != (M,):
            raise ValueError("y, amplitudes and b0 must all have length M")
        if not np.all(np.abs(b0) == 1):
            raise ValueError("initial bits must be +/-1")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        if not np.all((A > 0) & np.isfinite(A)):  # the MF-start identity's A > 0
            raise ValueError("amplitudes must be positive and finite")
        self.problem = problem = _indices(
            np.arange(P) if problem is None else problem, P, "problem")
        hblock = _indices(np.arange(xcorr.n_blocks) if hblock is None
                          else hblock, xcorr.n_blocks, "block")
        if hblock.size != P:
            raise ValueError("need one H block per problem")
        self.K = K = problem.size
        self.M = M
        n_prime, max_passes = np.asarray(n_prime), np.asarray(max_passes)
        for name, v in (("n_prime", n_prime), ("max_passes", max_passes)):
            if not all(isinstance(x, numbers.Integral) and not isinstance(
                    x, bool) for x in v.ravel().tolist()):  # never truncated
                raise ValueError(f"{name} must hold integers")
        if np.any(max_passes < 1) or np.any(max_passes > (2**63 - 1) // M):
            # a pass budget counts max_passes * M steps in int64
            raise ValueError("max_passes must be in [1, 2**63 / M)")
        if np.any(n_prime < 0) or np.any(n_prime >= 2**63):
            raise ValueError("n_prime must be in [0, 2**63)")
        self.n_prime = np.broadcast_to(n_prime.astype(np.int64), (K,))
        self.max_passes = np.broadcast_to(max_passes.astype(np.int64), (K,))
        Mp = M + _WINDOW
        self.y, self.A, self.xc = y, A, xcorr
        g0 = A * y - xcorr.h_matvec(b0, hblock)
        self.blk = hblock[problem]
        self.B = np.zeros((K, Mp), dtype=np.int8)
        self.G = np.zeros((K, Mp))
        self.B[:, :M] = b0[problem]
        self.G[:, :M] = g0[problem]
        # [row, k] is bits k to k + _WINDOW - 1 of the row, NTw[blk * M + k]
        # their thresholds
        self.Bw, self.Gw, self.NTw = (
            np.lib.stride_tricks.sliding_window_view(a, _WINDOW, axis=-1)
            for a in (self.B, self.G, np.append(-xcorr.diag, [0.0] * _WINDOW)))
        self.steps, self.flips, self.additions, self.passes = np.zeros(
            (4, K), dtype=np.int64)
        self.check_gradient = check_gradient
        self.flip_log = [] if record_flips else None
        self.hooked = record_flips or check_gradient

    def _after_flips(self, rows, ks):
        """Log and check one flip event per row: its flips ks[rows == r]."""
        for r in dict.fromkeys(rows.tolist()):
            if self.flip_log is not None:
                self.flip_log.append((int(self.steps[r]),
                                      tuple(ks[rows == r].tolist())))
            if self.check_gradient:
                direct = initial_gradient(
                    self.B[r, :self.M], self.y[self.problem[r]],
                    self.xc.block(self.blk[r]), self.A)
                err = float(np.max(np.abs(self.G[r, :self.M] - direct)))
                if err > 1e-9:
                    raise AssertionError(f"incremental gradient drifted from "
                                         f"recomputation by {err:.3e}")

    def _flip_each(self, rows, ks):
        """Flip bit ks[i] of row rows[i]; rows are distinct."""
        c = 2.0 * self.B[rows, ks]  # pre-flip values drive the update
        self.B[rows, ks] = -self.B[rows, ks]
        self.flips[rows] += 1
        self.additions[rows] += self.xc.add_rows(
            self.G, rows, self.blk[rows] * self.M + ks, c)

    def set_step(self, rows):
        """One all-bit update step of each row, thresholds sum_j |H_kj| of
        its block; returns which rows flipped anything.  Round j flips each
        row's j-th violator: its bit still holds the pre-step value, and
        every gradient entry takes its additions in ascending bit order."""
        t = self.xc.abs_row_sums.reshape(-1, self.M)[self.blk[rows]]
        hit = self.B[rows, :self.M] * self.G[rows, :self.M] < -t
        self.steps[rows] += 1
        self.passes[rows] += 1
        ri, k = np.nonzero(hit)
        j = np.arange(ri.size) - np.searchsorted(ri, ri)  # rank in its row
        for i in range(j.max() + 1 if j.size else 0):
            at = j == i
            self._flip_each(rows[ri[at]], k[at])
        if self.hooked:
            self._after_flips(rows[ri], k)
        return hit.any(axis=1)

    def sequential(self, rows, cycles):
        """Cyclic one-bit steps (thresholds H_kk) for each row from bit 0
        until a full clean cycle, within cycles[i] passes; returns the rows'
        converged flags.

        Bits between a row's cursor and its next violator cannot flip: their
        gradient entries are unchanged since they were last examined.  So
        each iteration tests the next _WINDOW bits of every row, b_k g_k <
        -H_kk, and flips the first violator.  A row keeps two counters: t,
        the bits tested since the phase began (its cursor is t % M), and
        last, the step of its last flip (0 before any).  A flip at step t
        needs t <= cap = cycles * M, and a row scans on while t < min(last
        + M, cap), so a row with no passes left leaves at its first test.
        No violator comes a full cycle after the last flip: every bit
        tested since was clean against the same gradient, and a flipped bit
        cannot violate again.  So a row has converged exactly when last + M
        <= cap, and it is charged min(last + M, cap) steps."""
        M = self.M
        cap, base = cycles * M, self.steps[rows]
        off = self.blk[rows] * M  # each row's bit 0 in the stack's -diag
        t, last = np.zeros((2, rows.size), dtype=np.int64)
        act = np.arange(rows.size)
        while act.size:
            ra, ta, ca = rows[act], t[act], cap[act]
            pa = ta % M
            hit = self.Bw[ra, pa] * self.Gw[ra, pa] < self.NTw[off[act] + pa]
            found = hit.any(axis=1)
            j = hit.argmax(axis=1)
            # a window stops at bit M - 1; the next one starts at bit 0
            ta += np.where(found, j + 1, np.minimum(_WINDOW, M - pa))
            flip = found & (ta <= ca)
            if flip.any():
                fa, ks = act[flip], pa[flip] + j[flip]
                last[fa] = ta[flip]
                self._flip_each(rows[fa], ks)
                if self.hooked:
                    self.steps[rows[fa]] = base[fa] + last[fa]
                    self._after_flips(rows[fa], ks)
            t[act] = ta
            act = act[ta < np.minimum(last[act] + M, ca)]
        used = np.minimum(last + M, cap)
        self.steps[rows] = base + used
        self.passes[rows] += -(-used // M)  # ceil
        return last + M <= cap


def _ascend(st, rows):
    """Each row's n_prime all-bit steps (thresholds sum_j |H_kj|; a row
    stops early at a step that flips nothing), then the sequential phase on
    the rest of its pass budget.  Returns the converged flags.

    A row whose all-bit steps flipped nothing still holds its problem's
    start state.  Such rows of one problem share one sequential run, led by
    the one with the most passes left.  A follower whose budget holds the
    leader's sequential steps would have walked the same steps, so it
    copies the leader's bits, flips, additions and converged flag and adds
    those steps, and their passes, to its own; one whose budget does not
    hold them runs alone, from its untouched start.  Followers' gradients
    stay at the start."""
    left = np.minimum(st.n_prime[rows], st.max_passes[rows])
    todo = rows[left > 0]
    left = left[left > 0]
    while todo.size:  # |H| row sums are built for the first all-bit step
        moved = st.set_step(todo)
        left -= 1
        keep = moved & (left > 0)
        todo, left = todo[keep], left[keep]
    cycles = st.max_passes[rows] - st.passes[rows]
    # rows still at their start, by problem, the most passes left first
    fresh = np.flatnonzero(st.flips[rows] == 0)
    fresh = fresh[np.lexsort((-cycles[fresh], st.problem[rows[fresh]]))]
    first = np.diff(st.problem[rows[fresh]], prepend=-1) != 0
    follow = fresh[~first]  # positions in rows; lead[i] leads follow[i]
    lead = fresh[first][np.cumsum(first)[~first] - 1]
    run = np.ones(rows.size, dtype=bool)
    run[follow] = False
    base = st.steps[rows[lead]]
    converged = np.zeros(rows.size, dtype=bool)
    converged[run] = st.sequential(rows[run], cycles[run])
    used = st.steps[rows[lead]] - base
    fits = used <= cycles[follow] * st.M
    dst, src, used = rows[follow[fits]], rows[lead[fits]], used[fits]
    st.B[dst], st.flips[dst] = st.B[src], st.flips[src]
    st.additions[dst] = st.additions[src]
    st.steps[dst] += used
    st.passes[dst] += -(-used // st.M)  # ceil
    converged[follow[fits]] = converged[lead[fits]]
    alone = follow[~fits]
    converged[alone] = st.sequential(rows[alone], cycles[alone])
    return converged


def las_lockstep(y, xcorr, amplitudes, b0, n_prime, max_passes=100,
                 problem=None, block=None):
    """Run K SLAS/WSLAS detectors in lockstep and return LockstepRuns.

    Problem p < P is (y[p], b0[p], its H).  xcorr is one stacked CrossCorr
    whose block block[p] is problem p's H (None: block p, one problem per
    block); problems that share an H name the same block.  Row r runs on
    problem problem[r], an integer in [0, P) (default: row p on problem p):
    n_prime[r] all-bit steps (0 is SLAS), then the cyclic sequential phase,
    within max_passes[r] passes.  n_prime and max_passes broadcast over
    the rows.  Rows of one problem whose all-bit steps flip nothing (SLAS
    rows, and the WSLAS rows of most harness calls) walk one shared
    sequential phase.  Each row's result, its steps, passes and additions
    included, is exactly that of its own one-row run (las_run), whatever
    the other rows are and their order.
    """
    st = _Lockstep(y, xcorr, amplitudes, b0, problem, block, n_prime,
                   max_passes)
    converged = _ascend(st, np.arange(st.K))
    return LockstepRuns(bits=st.B[:, :st.M].astype(np.int8),
                        converged=converged, steps=st.steps, flips=st.flips,
                        additions=st.additions, passes=st.passes)


def las_run(y, xcorr, amplitudes, schedule, b0, max_passes=100,
            record_flips=False, check_gradient=False):
    """Run one LAS detector to a fixed point: the one-row case of the
    lockstep machinery.

    max_passes bounds the total work in passes (a pass is one all-bit step or
    one full sequential cycle); ascent guarantees termination long before the
    default cap, which only guards implementation bugs.  Exhausting the cap
    reports converged=False rather than raising.

    check_gradient recomputes g from scratch after every flip event and
    raises if the incremental value drifts beyond 1e-9 (debug aid).
    """
    st = _Lockstep(np.asarray(y)[None], xcorr, amplitudes, np.asarray(b0)[None],
                   [0], None, schedule.parallel_steps, max_passes,
                   record_flips, check_gradient)
    row = np.zeros(1, dtype=np.int64)
    # the initial gradient, and one pass of |H| row sums for all-bit steps
    overhead = xcorr.nnz * (
        2 if schedule.kind == "parallel" or schedule.parallel_steps else 1)

    if schedule.kind != "parallel":
        converged = _ascend(st, row)[0]
    else:
        converged = False
        while not converged and st.passes[0] < max_passes:
            # an empty all-bit step is verified by one sequential cycle, and
            # all-bit stepping resumes if its stricter thresholds flipped
            if not st.set_step(row)[0] and st.passes[0] < max_passes:
                converged = st.sequential(row, np.ones(1, dtype=np.int64))[0]
    return DetectorRun(
        bits=st.B[0, :st.M].astype(np.int8), converged=bool(converged),
        steps=int(st.steps[0]), flips=int(st.flips[0]),
        additions=int(st.additions[0]), passes=int(st.passes[0]),
        overhead_additions=overhead, flip_log=st.flip_log)


def slas_detect(y, xcorr, amplitudes, b0, max_passes=100, **kwargs):
    """Sequential LAS: cyclic single-bit updates, thresholds t_k = H_kk."""
    return las_run(y, xcorr, amplitudes, Schedule.sequential(), b0,
                   max_passes=max_passes, **kwargs)


def wslas_detect(y, xcorr, amplitudes, b0, n_prime=10, max_passes=100, **kwargs):
    """Wide-sense sequential LAS: n_prime all-bit steps, then single-bit."""
    return las_run(y, xcorr, amplitudes, Schedule.hybrid(n_prime), b0,
                   max_passes=max_passes, **kwargs)


def gml_exhaustive(y, xcorr, amplitudes):
    """Global maximizer of Omega over all 2^M bit vectors (small-M oracle).

    Ties break toward the lexicographically smallest vector with +1 < -1 and
    position 0 most significant.  Refuses M > MAX_EXHAUSTIVE_BITS.
    """
    y = np.asarray(y, dtype=np.float64)
    M = y.size
    if M > MAX_EXHAUSTIVE_BITS:
        raise ValueError(
            f"exhaustive search capped at {MAX_EXHAUSTIVE_BITS} bits, got {M}"
        )
    A = np.asarray(amplitudes, dtype=np.float64)
    ay = A * y
    Hd = xcorr.dense_h()
    shifts = np.arange(M - 1, -1, -1, dtype=np.uint64)  # position 0 = MSB
    best_val = -math.inf
    best_bits = None
    chunk = 1 << min(M, 16)
    for start in range(0, 1 << M, chunk):
        n = np.arange(start, start + chunk, dtype=np.uint64)
        B = 1.0 - 2.0 * ((n[:, None] >> shifts[None, :]) & 1)
        omega = B @ ay - 0.5 * np.einsum("ij,ij->i", B @ Hd, B)
        i = int(np.argmax(omega))
        if omega[i] > best_val:  # strict: earlier (lex-smaller) wins ties
            best_val = float(omega[i])
            best_bits = B[i].astype(np.int8)
    return best_bits, best_val


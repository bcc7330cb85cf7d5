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

One implementation runs them all: a row-batched kernel that advances K
runs in lockstep, each row on its own (y, H, start vector), every H a block
of one stacked crosscorrelation.  las_lockstep runs SLAS/WSLAS
rows (hybrid with n_prime all-bit steps, 0 for SLAS); las_run is the
one-row case for every schedule, with the debug switches.  Rows that
start the sequential phase from the same state (one problem's start, no
all-bit step having flipped) share one sequential run, and each still
reports its own counters.  A row's result does not depend on the other
rows of its batch.

Bit vectors are int8 arrays over {-1,+1}.  Detector runs are single-threaded
over immutable (y, H, A); many runs may share one crosscorrelation.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_EXHAUSTIVE_BITS = 20  # hard cap for the brute-force search


@dataclass(frozen=True)
class Schedule:
    """Which index set L(n) each update step examines."""

    kind: str  # "sequential" | "parallel" | "hybrid"
    parallel_steps: int = 0

    def __post_init__(self):
        if self.kind not in ("sequential", "parallel", "hybrid"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")

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


_BLOCK = 32  # bits per violator-count block of the sequential phase


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
    block of one stacked CrossCorr (problem p's is block hblock[p], default
    p), with n_prime[r] all-bit steps and a budget of max_passes[r] passes;
    rows of one problem share its initial gradient.  Rows stay in the
    caller's order, and any row order is exact.  Bits, gradients and
    negated H diagonals are (K, Mp) arrays, Mp being M rounded up to whole
    blocks of _BLOCK bits; the padding never violates.  The debug switches
    of las_run act per flip event; only las_run sets them, with K = 1.
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
        self.problem = problem = _indices(
            np.arange(P) if problem is None else problem, P, "problem")
        if hblock is not None:
            hblock = _indices(hblock, xcorr.n_blocks, "block")
        if (xcorr.n_blocks if hblock is None else hblock.size) != P:
            raise ValueError("need one H block per problem")
        self.K = K = problem.size
        self.M = M
        n_prime, max_passes = np.asarray(n_prime), np.asarray(max_passes)
        if np.any(max_passes < 1) or np.any(max_passes > (2**63 - 1) // M):
            # a pass budget counts max_passes * M steps in int64
            raise ValueError("max_passes must be in [1, 2**63 / M)")
        if np.any(n_prime < 0) or np.any(n_prime >= 2**63):
            raise ValueError("n_prime must be in [0, 2**63)")
        self.n_prime = np.broadcast_to(n_prime.astype(np.int64), (K,))
        self.max_passes = np.broadcast_to(max_passes.astype(np.int64), (K,))
        self.nb = -(-M // _BLOCK)
        self.Mp = Mp = self.nb * _BLOCK
        self.y, self.A, self.xc = y, A, xcorr
        g0 = A * y - xcorr.h_matvec(b0, hblock)
        self.blk = blk = problem if hblock is None else hblock[problem]
        self.full = xcorr.full_blocks[blk]
        # windows[i] is h_data[i:i + M]: a full row from its first entry
        self.windows = np.lib.stride_tricks.sliding_window_view(
            xcorr.h_data, M)
        self.B = np.zeros((K, Mp), dtype=np.int8)
        self.G = np.zeros((K, Mp))
        self.NT = np.zeros((K, Mp))
        self.B[:, :M] = b0[problem]
        self.G[:, :M] = g0[problem]
        self.NT[:, :M] = -xcorr.diag.reshape(-1, M)[blk]
        self.V = np.zeros((K, Mp), dtype=bool)  # b_k g_k < -H_kk
        self.V3 = self.V.reshape(K, self.nb, _BLOCK)
        self.cnt = np.zeros((K, self.nb), dtype=np.int64)  # violators per block
        self.lanes = np.arange(_BLOCK)
        self.block_ids = np.arange(self.nb)
        self.steps, self.flips, self.additions, self.passes = np.zeros(
            (4, K), dtype=np.int64)
        self.check_gradient = check_gradient
        self.flip_log = [] if record_flips else None
        self.hooked = record_flips or check_gradient

    def _after_flips(self, row, flipped):
        if self.flip_log is not None:
            self.flip_log.append((int(self.steps[row]),
                                  tuple(int(i) for i in flipped)))
        if self.check_gradient:
            p = self.problem[row]
            direct = initial_gradient(self.B[row, :self.M], self.y[p],
                                      self.xc.block(self.blk[row]), self.A)
            err = float(np.max(np.abs(self.G[row, :self.M] - direct)))
            if err > 1e-9:
                raise AssertionError(
                    f"incremental gradient drifted from recomputation by {err:.3e}"
                )

    def _columns(self, rows, ks):
        """The H column ks[i] of row rows[i]'s block, for every i, one after
        the other: (column indices, values, entries per i)."""
        s = self.blk[rows] * self.M + ks  # row of the stack
        lo = self.xc.indptr[s]
        n = self.xc.indptr[s + 1] - lo
        at = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return self.xc.indices[at], self.xc.h_data[at], n

    def _mark_violators(self, rows, G=None):
        """Violators and block counts of rows (G: their gradients, if held)."""
        v = self.B[rows] * (self.G[rows] if G is None else G) < self.NT[rows]
        self.V[rows] = v
        self.cnt[rows] = v.reshape(-1, self.nb, _BLOCK).sum(axis=2)

    def _next_violator(self, rows, pos):
        """Each row's first violating bit at or cyclically after its cursor,
        and whether it has one."""
        w = pos // _BLOCK
        seg = self.V3[rows, w] & (self.lanes >= (pos % _BLOCK)[:, None])
        found = seg.any(axis=1)
        k = w * _BLOCK + seg.argmax(axis=1)
        miss = np.flatnonzero(~found)
        if miss.size:
            rm = rows[miss]
            # blocks after the cursor's first, the cursor's own block last
            key = (self.block_ids - w[miss, None] - 1) % self.nb
            key[self.cnt[rm] == 0] = self.nb
            blk = key.argmin(axis=1)
            found[miss] = key[np.arange(miss.size), blk] < self.nb
            k[miss] = blk * _BLOCK + self.V3[rm, blk].argmax(axis=1)
        return k, found

    def _flip_each(self, rows, ks):
        """Flip bit ks[i] of row rows[i]; rows are distinct."""
        c = 2.0 * self.B[rows, ks]  # pre-flip values drive the update
        self.B[rows, ks] = -self.B[rows, ks]
        self.flips[rows] += 1
        full = self.full[rows]
        if full.any():
            # full H rows are contiguous: update whole rows, and take
            # their violators and counts from the new gradients
            fr, fk, fc = rows[full], ks[full], c[full]
            g = self.G[fr]
            g[:, :self.M] += fc[:, None] * self.windows[
                self.xc.indptr[self.blk[fr] * self.M + fk]]
            self.G[fr] = g
            self.additions[fr] += self.M
            self._mark_violators(fr, g)
        if not full.all():
            sr, sk, sc = rows[~full], ks[~full], c[~full]
            cols, vals, lens = self._columns(sr, sk)
            self.additions[sr] += lens
            at = np.repeat(sr * self.Mp, lens) + cols  # flat (row, column)
            Gf = self.G.reshape(-1)
            g = Gf[at] + np.repeat(sc, lens) * vals
            Gf[at] = g
            now = self.B.reshape(-1)[at] * g < self.NT.reshape(-1)[at]
            Vf = self.V.reshape(-1)
            ch = np.flatnonzero(now != Vf[at])
            if ch.size:
                Vf[at[ch]] = now[ch]
                np.add.at(self.cnt.reshape(-1), at[ch] // _BLOCK,
                          np.where(now[ch], 1, -1))
        if self.hooked:
            for r, k in zip(rows.tolist(), ks.tolist()):
                self._after_flips(r, (k,))

    def set_step(self, rows, thresholds):
        """One all-bit update step of each row, with thresholds broadcast
        against (rows, M).  Flips use the pre-step bits and add into g in
        ascending bit order.  Returns which rows flipped anything."""
        hit = self.B[rows, :self.M] * self.G[rows, :self.M] < -thresholds
        self.steps[rows] += 1
        self.passes[rows] += 1
        ri, k = np.nonzero(hit)
        if ri.size:
            r = rows[ri]
            c = 2.0 * self.B[r, k]
            cols, vals, lens = self._columns(r, k)
            np.add.at(self.G.reshape(-1), np.repeat(r * self.Mp, lens) + cols,
                      np.repeat(c, lens) * vals)
            self.B[r, k] = -self.B[r, k]
            np.add.at(self.additions, r, lens)
            np.add.at(self.flips, r, 1)
            if self.hooked:
                for i in np.unique(ri):
                    self._after_flips(rows[i], k[ri == i])
        return hit.any(axis=1)

    def sequential(self, rows, cycles):
        """Cyclic one-bit steps (thresholds H_kk) for each row from bit 0
        until a full clean cycle, within cycles[i] passes; returns the rows'
        converged flags.

        Bits between a row's cursor and its next violator cannot flip: their
        gradient entries are unchanged since they were last examined.  So
        every row jumps straight to its next violator, found through its
        per-block violator counts, and is charged the skipped steps."""
        M = self.M
        converged = np.zeros(rows.size, dtype=bool)
        live = np.flatnonzero(cycles > 0)
        r = rows[live]
        if not r.size:
            return converged
        cap = cycles[live] * M
        base = self.steps[r]
        used = np.zeros(r.size, dtype=np.int64)
        pos = np.zeros(r.size, dtype=np.int64)
        self._mark_violators(r)
        act = np.arange(r.size)
        while act.size:
            k, found = self._next_violator(r[act], pos[act])
            # a flip costs the skipped steps plus its own; a verification
            # costs a full cycle
            need = np.where(found, (k - pos[act]) % M + 1, M)
            fits = used[act] + need <= cap[act]
            used[act] = np.where(fits, used[act] + need, cap[act])
            converged[live[act[fits & ~found]]] = True
            go = fits & found
            act, k = act[go], k[go]
            if act.size:
                self.steps[r[act]] = base[act] + used[act]
                self._flip_each(r[act], k)
                pos[act] = (k + 1) % M
        self.steps[r] = base + used
        self.passes[r] += -(-used // M)  # ceil
        return converged


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
        row_sums = st.xc.abs_row_sums.reshape(-1, st.M)
        moved = st.set_step(todo, row_sums[st.blk[todo]])
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


def _indices(v, n, name):
    """v as an int64 vector of integers in [0, n), or ValueError."""
    v = np.asarray(v)
    if v.ndim != 1 or v.dtype.kind not in "iu" or np.any((v < 0) | (v >= n)):
        raise ValueError(f"{name} must hold integers in [0, {n})")
    return v.astype(np.int64)


def las_lockstep(y, xcorr, amplitudes, b0, n_prime, max_passes=100,
                 problem=None, block=None):
    """Run K SLAS/WSLAS detectors in lockstep and return LockstepRuns.

    Problem p < P is (y[p], b0[p], its H).  xcorr is one stacked CrossCorr
    whose block block[p] is problem p's H (default: block p); problems that
    share an H name the same block.  Row r runs on problem problem[r], an
    integer in [0, P) (default: row p on problem p): n_prime[r] all-bit
    steps (0 is SLAS), then the cyclic sequential phase, within
    max_passes[r] passes.  n_prime and max_passes broadcast over the rows.
    Rows of one problem whose all-bit steps flip nothing (SLAS rows, and
    the WSLAS rows of most harness calls) walk one shared sequential
    phase.  Each row's result, its steps, passes and additions included,
    is exactly that of its own one-row run (las_run), whatever the other
    rows are and their order.
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
    overhead = xcorr.nnz * (1 if schedule.kind == "sequential" else 2)

    if schedule.kind != "parallel":
        converged = _ascend(st, row)[0]
    else:
        converged = False
        while st.passes[0] < max_passes:
            if st.set_step(row, xcorr.abs_row_sums)[0]:
                continue
            # empty all-bit step: verify with one sequential cycle, and
            # resume all-bit stepping if the stricter thresholds flipped
            if st.passes[0] >= max_passes:
                break
            if st.sequential(row, np.ones(1, dtype=np.int64))[0]:
                converged = True
                break

    return DetectorRun(
        bits=st.B[0, :st.M].astype(np.int8),
        converged=bool(converged),
        steps=int(st.steps[0]),
        flips=int(st.flips[0]),
        additions=int(st.additions[0]),
        passes=int(st.passes[0]),
        overhead_additions=overhead,
        flip_log=st.flip_log,
    )


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


"""Sparse random spreading sequences and their crosscorrelation structure.

A spreading matrix has M unit-norm columns over C chips.  Each column has
exactly L nonzero chips at distinct random positions, and every nonzero is
+1/sqrt(L) or -1/sqrt(L) with equal probability.  L == C is the dense
special case (ordinary random spreading).  A stack of B matrices, each
drawn from its own Generator (on up to `threads` threads, which the
harness asks for only for its fixed sets), has (B, M, L) chips and signs
and is checked, correlated and transmitted through as one unit; its
crosscorrelation is one block-stacked CrossCorr.

Crosscorrelations sum each column pair's sign products as integers and
divide by L once, so every value of S^T S is the correctly rounded n/L of
its integer sign sum n, by one of two routes.  The chip-index route pairs
only the columns that share a chip, through an inverted chip index, and
sums by one in-place sort of (row, column, sign) keys: its work is pairs =
sum_c occupancy(c)^2.  The gather route gathers an int8 C x M sign matrix
at each column's L chips and sums in int16, M^2 L entries per matrix and no
BLAS (tiny multi-threaded products oversubscribe the worker processes); it
runs when M^2 L < _GATHER_PER_PAIR * pairs, i.e. for small M.  When 2L > C
every pair overlaps, and each block's values come from the dense product
S^T S.  Entries whose sign products cancel to exactly 0.0 are kept in the
sparse structure: the pair shares chip support, and a sparse detector
implementation stores and touches that entry regardless of its value.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gathered entries per chip-index pair: an entry cost 1.5-3.6 ns and a pair
# 100-170 ns (M = 128..1024); below 50 the gather route was 1.1-5.6x as
# fast, and 50 keeps M = 1024, L = 16 (75 per pair) on the chip-index route
_GATHER_PER_PAIR = 50
# chip-sampler uniforms drawn at a time: 512 KB of doubles stay in cache
_UNIFORM_BUFFER = 1 << 16
# products a full block's h_matvec holds at a time (1 MB): 8 rows of H for
# 16 problems at M = 1024.  On a Xeon with 2 MB of L2 per core that took
# 17-21 ms per block against 23-25 ms for one product per problem; chunks
# of 2 MB gained less
_MATVEC_BUFFER = 1 << 17


@dataclass
class SequenceMatrix:
    """M spreading sequences over C chips, all with the same nonzero count L.

    `chips[k]` / `signs[k]` describe column k; a stack of B matrices has
    (B, M, L) chips and signs, matrix b being `chips[b]` / `signs[b]`.  The
    matrix is immutable once built and safe to share across concurrent
    readers.
    """

    n_chips: int
    n_bits: int
    chips: np.ndarray  # (M, L) or (B, M, L) int32, rows strictly increasing
    signs: np.ndarray  # like chips, int8

    def __post_init__(self):
        # a dense stack's chips stay gen_sparse_matrix's broadcast view
        self.chips = np.asarray(self.chips, dtype=np.int32)
        self.signs = np.ascontiguousarray(self.signs, dtype=np.int8)
        C, M = self.n_chips, self.n_bits
        if self.chips.ndim not in (2, 3) or self.chips.shape[-2] != M:
            raise ValueError("chips must be (n_bits, L) or (blocks, n_bits, L)")
        if self.signs.shape != self.chips.shape:
            raise ValueError("signs shape must match chips")
        L = self.chips.shape[-1]
        if not 1 <= L <= C:
            raise ValueError(f"need 1 <= L <= C, got L={L}, C={C}")
        if self.chips.min() < 0 or self.chips.max() >= C:
            raise ValueError("chip index out of range")
        if not np.all(self.chips[..., 1:] > self.chips[..., :-1]):
            raise ValueError("chip indices must be distinct and sorted per column")
        if not np.all(np.abs(self.signs) == 1):
            raise ValueError("signs must be +/-1")

    @property
    def n_nonzero(self):
        """Nonzero chips per column (L)."""
        return int(self.chips.shape[-1])

    @property
    def n_blocks(self):
        """Matrices in the stack (1 for a single matrix)."""
        return self.chips.size // (self.n_bits * self.n_nonzero)

    @property
    def is_dense(self):
        return self.n_nonzero == self.n_chips

    @property
    def chip_amplitude(self):
        return 1.0 / np.sqrt(self.n_nonzero)

    def stacked_chips(self):
        """chips.ravel() numbered across the stack: block b's chip c is
        b*C + c."""
        B = self.n_blocks
        return (self.chips.reshape(B, -1)
                + np.arange(0, B * self.n_chips, self.n_chips)[:, None]).ravel()

    @cached_property
    def chip_index(self):
        """Inverted map chip -> occupying columns, as CSR-style arrays.

        Returns (indptr, cols, signs): columns with a nonzero at chip c are
        cols[indptr[c]:indptr[c+1]], with matching signs.  Chips and columns
        are numbered across the stack (block b's column k is b*M + k).
        """
        flat = self.stacked_chips()
        order = np.argsort(flat, kind="stable")
        cols = (order // self.n_nonzero).astype(np.int32)
        signs = self.signs.ravel()[order]
        counts = np.bincount(flat, minlength=self.n_blocks * self.n_chips)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return indptr, cols, signs

    @cached_property
    def dense_matrix(self):
        """The (C, M) dense float matrix, (B, C, M) for a stack; columns are
        unit-norm sequences."""
        B, C, M, L = self.n_blocks, self.n_chips, self.n_bits, self.n_nonzero
        S = np.zeros((B, C, M))
        if self.is_dense:  # chips[k] is 0..C-1: a transpose, 8x the scatter
            np.multiply(np.swapaxes(self.signs.reshape(B, M, C), 1, 2),
                        self.chip_amplitude, out=S)
        else:
            S[np.arange(B)[:, None, None], self.chips.reshape(B, M, L),
              np.arange(M)[:, None]] = (self.signs.reshape(B, M, L)
                                        * self.chip_amplitude)
        return S.reshape(self.chips.shape[:-2] + (C, M))


@dataclass
class CrossCorr:
    """The amplitude-weighted crosscorrelation H = A R A, with R = S^T S.

    One full symmetric CSR structure per block (per-row column/value lists,
    columns ascending within a row): `indptr`/`indices` with values
    `h_data`; `diag` holds the H diagonal (A_k^2 for unit-norm columns).  A
    stack of B blocks has B*M rows, block b's at offset b*M, and column
    indices local to the block.  Structural entries are exactly the column
    pairs sharing chip support, including any whose value cancels to 0.0.
    Immutable once built.
    """

    n_bits: int
    indptr: np.ndarray
    indices: np.ndarray
    h_data: np.ndarray
    diag: np.ndarray

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def n_blocks(self):
        return (self.indptr.size - 1) // self.n_bits

    @property
    def full_blocks(self):
        """Per block: every row holds all M entries, columns 0..M-1."""
        return np.diff(self.indptr[::self.n_bits]) == self.n_bits ** 2

    def row(self, k):
        """Nonzero (indices, values) of row k of H (== column k by symmetry)."""
        lo, hi = self.indptr[k], self.indptr[k + 1]
        return self.indices[lo:hi], self.h_data[lo:hi]

    def block(self, b):
        """Block b of the stack as a CrossCorr of its own (views)."""
        M = self.n_bits
        lo, hi = self.indptr[b * M], self.indptr[(b + 1) * M]
        return CrossCorr(M, self.indptr[b * M:(b + 1) * M + 1] - lo,
                         self.indices[lo:hi], self.h_data[lo:hi],
                         self.diag[b * M:(b + 1) * M])

    def h_matvec(self, x, block=None):
        """H @ x through the raw row lists.  On a stack, x holds one vector
        per problem, (P, M), and problem p is multiplied by block block[p]
        (default: block p, in one pass).  Each row's products x_j H_kj are
        summed by np.add.reduceat over its row segment.  A full block takes
        them as a broadcast of x against its (M, M) values; given block=,
        all its problems go through each chunk of its rows together, so each
        chunk is read once.  A sparse block gathers x at its column indices,
        converted to intp once for all its problems.  The products (IEEE
        multiplication commutes) and segments are the per-entry gather's,
        and every row sums as its block alone does, so neither the
        full-block form, the chunks nor the stacking moves a bit."""
        M = self.n_bits
        X = np.asarray(x, dtype=np.float64).reshape(-1, M)
        if len(X) != (self.n_blocks if block is None else len(block)):
            raise ValueError("need one vector per block or problem")
        sizes, full = np.diff(self.indptr[::M]), self.full_blocks
        if block is None:
            if full.all():
                v = X[:, None, :] * self.h_data.reshape(-1, M, M)
            else:
                at = self.indices
                if len(X) > 1:  # block b's columns are at b*M of X.ravel()
                    at = np.repeat(np.arange(0, X.size, M), sizes)
                    at += self.indices
                v = X.ravel()[at]
                v *= self.h_data
            return np.add.reduceat(v.reshape(-1), self.indptr[:-1]).reshape(
                np.shape(x))
        out, block = np.empty_like(X), np.asarray(block)
        for b in np.flatnonzero(np.bincount(block)):  # the blocks in use
            xc, ps = self.block(b), np.flatnonzero(block == b)
            if full[b]:  # each chunk of H rows is read once for them all
                h, Xb = xc.h_data.reshape(M, M), X[ps, None, :]
                n = max(1, _MATVEC_BUFFER // (ps.size * M))
                buf = np.empty(ps.size * min(n, M) * M)
                for lo in range(0, M, n):
                    hk = h[lo:lo + n]
                    v = buf[:ps.size * hk.size].reshape(ps.size, -1, M)
                    np.multiply(Xb, hk, out=v)
                    out[ps, lo:lo + n] = np.add.reduceat(
                        v.reshape(-1), np.arange(0, v.size, M)).reshape(
                            ps.size, -1)
                continue
            at = xc.indices.astype(np.intp)  # once for the block's problems
            v = np.empty(at.size)
            for p in ps:
                np.multiply(X[p][at], xc.h_data, out=v)
                out[p] = np.add.reduceat(v, xc.indptr[:-1])
        return out.reshape(np.shape(x))

    def dense_h(self):
        """H as a dense (rows, M) array: (M, M), or the B blocks stacked."""
        out = np.zeros((self.indptr.size - 1, self.n_bits))
        rows = np.repeat(np.arange(out.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] = self.h_data
        return out

    @cached_property
    def abs_row_sums(self):
        """sum_j |H_kj| per row; the all-bits update threshold.  Summed
        block by block, so that |H| is copied one block at a time."""
        return np.concatenate([
            np.add.reduceat(np.abs(xc.h_data), xc.indptr[:-1])
            for xc in map(self.block, range(self.n_blocks))])


def gen_sparse_matrix(n_chips, n_bits, n_nonzero, rng, threads=1):
    """Draw a random spreading matrix: M columns, L distinct uniform chip
    positions each, independent equiprobable signs.

    rng is a seeded numpy Generator; output is deterministic for a fixed
    stream.  Given a list of B Generators instead, it draws a stack: matrix
    b from rng[b], exactly as alone.  Duplicate columns are allowed (the
    random model does not exclude them).  With threads > 1, a stack of
    distinct Generators is drawn on up to that many threads, one matrix per
    thread at a time, each through a buffer of its own; the output is the
    same.
    """
    C, M, L = n_chips, n_bits, n_nonzero
    if not 1 <= L <= C:
        raise ValueError(f"need 1 <= L <= C, got L={L}, C={C}")
    if M < 1:
        raise ValueError("need at least one column")
    single = not isinstance(rng, (list, tuple))
    rngs = [rng] if single else rng
    if not rngs:
        raise ValueError("empty Generator list: need one Generator per matrix")
    if L == C:
        chips = np.broadcast_to(np.arange(C, dtype=np.int32), (len(rngs), M, C))
    else:
        # top-L of i.i.d. uniforms per row = uniform L-subset without
        # replacement.  The M x C uniforms pass through a buffer of whole
        # rows: filled chunk by chunk, the stream gives the doubles of one
        # M x C draw, and each row's selection reads only that row, so the
        # chips and the signs after them are the whole-array draw's.
        chips = np.empty((len(rngs), M, L), dtype=np.int32)
        rows = max(1, _UNIFORM_BUFFER // C)
        def draw(t):  # matrices t, t + n, ... through a buffer of their own
            u = np.empty((min(rows, M), C))
            for g, c in zip(rngs[t::n], chips[t::n]):
                for lo in range(0, M, rows):
                    part = u[:min(rows, M - lo)]
                    g.random(out=part)
                    c[lo:lo + len(part)] = np.argpartition(part, L, 1)[:, :L]
        # the fill and the partition release the GIL.  A Generator shared by
        # two matrices is drawn from in order, on one thread
        distinct = len({id(g) for g in rngs}) == len(rngs)
        n = min(len(rngs), threads) if distinct else 1
        if n == 1:
            draw(0)
        else:  # imported here: at module level it would slow every start-up
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(n) as pool:
                list(pool.map(draw, range(n)))
        chips.sort(axis=-1)
    signs = np.stack([g.integers(0, 2, size=(M, L), dtype=np.int8)
                      for g in rngs]) * 2 - 1
    if single:
        chips, signs = chips[0], signs[0]
    return SequenceMatrix(C, M, chips, signs)


def crosscorrelation(S, amplitudes):
    """Build H = A R A, with R = S^T S, as a sparse symmetric structure: one
    block per matrix of the stack S, all with the same amplitudes.

    Each R entry is the exact n/L of its integer sign sum n, by the chip
    index route (work sum_c occupancy(c)^2, block by block, into one set of
    arrays) or, when M^2 L < _GATHER_PER_PAIR * pairs, the gather route
    (M^2 L entries per block, all blocks at once).  When 2L > C every
    column pair shares a chip (the structure is full), so each block's
    product is taken densely instead.
    """
    A = np.asarray(amplitudes, dtype=np.float64)
    if A.ndim == 0:
        A = np.full(S.n_bits, float(A))
    if A.shape != (S.n_bits,):
        raise ValueError("amplitudes must have one entry per bit")
    if not np.all(A > 0):
        raise ValueError("amplitudes must be positive")

    B, C, M, L = S.n_blocks, S.n_chips, S.n_bits, S.n_nonzero
    if 2 * L > C:
        # every pair overlaps: full structure, dense product for the values
        Sd = S.dense_matrix.reshape(B, C, M)
        r_data = np.empty((B, M, M))
        for Sb, Rb in zip(Sd, r_data):
            np.matmul(Sb.T, Sb, out=Rb)  # numpy returns S^T S exactly symmetric
        r_diag = r_data[:, np.arange(M), np.arange(M)].ravel()
        r_data = r_data.reshape(-1)
        indptr = np.arange(B * M + 1, dtype=np.int64) * M
        indices = np.tile(np.arange(M, dtype=np.int32), B * M)
    else:
        occ = np.bincount(S.stacked_chips(), minlength=B * C).reshape(B, C)
        pairs = (occ * occ).sum(axis=1)
        if M * M * L < _GATHER_PER_PAIR * pairs.mean():
            indptr, indices, r_data = _gather_route(S)
        else:
            indptr, indices, r_data = _chip_index_route(S, occ, pairs)
        r_diag = np.ones(B * M)  # n = L on the diagonal

    if np.all(A == 1.0):
        # equal power: identical; immutable by convention
        return CrossCorr(M, indptr, indices, r_data, r_diag)
    rows_of = np.repeat(np.tile(np.arange(M), B), np.diff(indptr))
    At = np.tile(A, B)
    return CrossCorr(M, indptr, indices, r_data * A[rows_of] * A[indices],
                     r_diag * At * At)


def _gather_route(S):
    """(indptr, indices, r_data) of every block at once: row j of the int8
    C x M sign matrix, gathered at column j's chips and summed with its
    signs, is column j's integer sign sum with every column."""
    B, C, M, L = S.n_blocks, S.n_chips, S.n_bits, S.n_nonzero
    chips = S.stacked_chips().reshape(B, M, L)
    signs = S.signs.reshape(B, M, L)
    Si = np.zeros((B * C, M), dtype=np.int8)  # the blocks' sign matrices
    Si[chips, np.arange(M)[:, None]] = signs
    n = np.zeros((B, M, M), dtype=np.int16 if L < 2 ** 15 else np.int32)
    pattern = np.zeros((B, M, M), dtype=bool)  # shared support
    for l in range(L):
        g = Si[chips[:, :, l]]
        np.logical_or(pattern, g, out=pattern)
        g *= signs[:, :, l, None]
        n += g
    indptr = np.concatenate(([0], np.cumsum(pattern.sum(axis=2).ravel())))
    indices = np.broadcast_to(np.arange(M, dtype=np.int32), pattern.shape)[pattern]
    return indptr, indices, n[pattern] / L


def _chip_index_route(S, occ, pairs):
    """(indptr, indices, r_data) block by block: each chip's occupant pairs
    give one (row, column, signs agree) key, summed per (row, column) after
    an in-place sort, into arrays sized by the pair counts and then shrunk."""
    B, C, M, L = S.n_blocks, S.n_chips, S.n_bits, S.n_nonzero
    cptr, cols, csigns = S.chip_index
    # per-pair arrays (positions, key) in int32 while every value fits,
    # which halves them; int64 beyond
    it = np.int32 if max(2 * M * M, pairs.max(), cols.size) < 2**31 else np.int64
    cols = (cols % M).astype(it, copy=False)  # column within the block
    cap = int(np.minimum(pairs, M * M).sum())
    indptr = np.zeros(B * M + 1, dtype=np.int64)
    indices = np.empty(cap, dtype=np.int32)
    r_data = np.empty(cap)
    at = 0
    for b in range(B):
        # the pairs of chip c run in occ(c) rows, one per position p of c in
        # the chip index: p against each position of c from the first, s(c)
        occ_p = np.repeat(occ[b].astype(it), occ[b])  # occ(c) at positions
        ia = np.repeat(np.arange(cptr[b * C], cptr[b * C + C], dtype=it), occ_p)
        shift = np.cumsum(occ_p, dtype=it) - occ_p - np.repeat(
            cptr[b * C:b * C + C].astype(it), occ[b])  # row start - s(c)
        ib = np.arange(pairs[b], dtype=it) - np.repeat(shift, occ_p)
        # key = (row, col) << 1 | (sign product > 0); the exact integer sign
        # sum n of a (row, col) is the running sum of the +/-1 products at
        # its last key minus that at the key before, divided by L once
        key = cols[ia] * (2 * M) + cols[ib] * 2 + (csigns[ia] == csigns[ib])
        del ia, ib
        key.sort()
        last = np.append((key[1:] ^ key[:-1]) > 1, True)  # differ above bit 0
        ukey, n = key[last] >> 1, np.cumsum(2 * (key & 1) - 1, dtype=it)[last]
        end = at + ukey.size
        np.divide(np.diff(n, prepend=0), L, out=r_data[at:end])
        indices[at:end] = ukey % M
        indptr[b * M + 1:(b + 1) * M + 1] = at + np.cumsum(
            np.bincount(ukey // M, minlength=M))
        at = end
    for a in (indices, r_data):  # shrunk in place: a copy would raise the peak
        a.resize(at, refcheck=False)
    return indptr, indices, r_data

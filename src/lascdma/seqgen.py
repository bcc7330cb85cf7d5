"""Sparse random spreading sequences and their crosscorrelation structure.

A spreading matrix has M unit-norm columns over C chips.  Each column has
exactly L nonzero chips at distinct random positions, and every nonzero is
+1/sqrt(L) or -1/sqrt(L) with equal probability.  L == C is the dense
special case (ordinary random spreading).  A column's chips are its L
smallest of C uniforms.  A stack of B matrices, each drawn from its own
Generator (on a thread per usable core when they are distinct PCG64
Generators, as the harness's fixed sets are), has (B, M, L) chips and
signs and is checked, correlated and transmitted through as one unit; its
crosscorrelation is one block-stacked CrossCorr.

Crosscorrelations sum each column pair's sign products as integers n and
keep them over one divisor L, so every value of S^T S reads as the
correctly rounded n/L, by one of two routes.  The chip-index route pairs
only the columns that share a chip, through an inverted chip index, and
sums by one in-place sort of (row, column, sign) keys per chunk of rows:
its work is pairs = sum_c occupancy(c)^2, its memory H plus a chunk.  The
gather route gathers an int8 C x M sign matrix at each column's L chips
and sums in int8 (L < 2^7), M^2 L entries per matrix and no BLAS (tiny
multi-threaded products oversubscribe the worker processes); it runs when
M^2 L < _GATHER_PER_PAIR * pairs, i.e. for small M.  When 2L > C every
pair overlaps, and each block's values are doubles from the dense product
S^T S, over divisor 1, as are the values of every H with A != 1.
Where A = 1, L is a power of two and 2L <= C, the CrossCorr keeps the
stack, and CrossCorr.h_matvec takes every +/-1 vector through its chips:
2L entries per bit instead of a row's 2-200, with the same doubles.  Every
other product takes H's rows.
Entries whose sign products cancel to exactly 0.0 are kept in H's
fixed-width row tables (CrossCorr): the pair shares chip support, and a
sparse detector stores and touches that entry regardless of its value.
"""

import copy
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# gathered entries per chip-index pair: the routes crossed at 15-25, and from
# 36 up the chip index took 0.2-0.75x the gather's time; 34 keeps three
# M = 64, L = 1 matrices (33 per pair, 1.5x as fast) on the gather route
_GATHER_PER_PAIR = 34
# chip-index pairs listed and sorted at a time, about 1.6 MB of temporaries:
# 2^16..2^18 took the same time, and 2^18 raised fixed-set peaks by 2-4 MB
_PAIR_BUFFER = 1 << 16
# chip-sampler uniforms drawn at a time: 512 KB of doubles stay in cache,
# but at least 32 rows up to 4 MB: five sets at C = 10,240 took 1.63 s on
# two threads in 6-row buffers, 1.30 s in 32-row ones
_UNIFORM_BUFFER = 1 << 16
# _smallest's z, and the share of a row past which a partition beat its
# sort (twice as fast at C = 80, L = 16, where t = 0.47)
_SELECT_Z, _SELECT_SHARE = 5, 0.25
# products a block's h_matvec holds at a time (1 MB): 8 rows of H for
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

    @cached_property
    def stacked_chips(self):
        """chips.ravel() numbered across the stack, int64 and read-only:
        block b's chip c is b*C + c."""
        B = self.n_blocks
        flat = (self.chips.reshape(B, -1)
                + np.arange(0, B * self.n_chips, self.n_chips)[:, None]).ravel()
        flat.flags.writeable = False
        return flat

    @cached_property
    def chip_index(self):
        """Inverted map chip -> occupying columns, as CSR-style arrays.

        Returns (indptr, cols, signs): columns with a nonzero at chip c are
        cols[indptr[c]:indptr[c+1]], with matching signs.  Chips and columns
        are numbered across the stack (block b's column k is b*M + k).
        """
        flat = self.stacked_chips.copy()  # sorted in place below
        counts = np.bincount(flat, minlength=self.n_blocks * self.n_chips)
        # chip << s | position is unique, so one sort gives the stable
        # argsort's order, in place.  Exact while B*C * 2^s <= 2^63, with
        # 2^s <= 2 B*M*L: while B*C and B*M*L are both below 2^31
        s = flat.size.bit_length()
        flat <<= s
        flat |= np.arange(flat.size)
        flat.sort()
        flat &= (1 << s) - 1  # the positions, in chip order
        cols = (flat // self.n_nonzero).astype(np.int32)
        signs = self.signs.ravel()[flat]
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

    One fixed-width row table (ELL) per stack: row k's entries, columns
    ascending, fill the first indptr[k+1] - indptr[k] of its W slots in
    `cols` and `vals` (values vals / den), W being the widest row; padding
    slots hold column M and value 0.  Columns are int16 while M < 2^15,
    else int32; a dense stack's are a broadcast view of 0..M-1, no byte per
    entry.  `diag` holds the H diagonal (A_k^2 for unit-norm columns).  A
    sparse H with A = 1 holds sign sums n (int8 while L < 2^7, int16 below
    2^15) over den = L, 3 bytes a slot with its column; other H hold
    doubles over den = 1.  Readers divide sums where they read and take
    doubles untouched: each value reads as the rounded n/L, in the LAS
    kernel's gradient updates too (add_rows).  A stack of B blocks has B*M
    rows, block b's at offset b*M, and columns local to the block.
    Structural entries are exactly the column pairs sharing chip support,
    including any whose value cancels to 0.0.  Immutable once built.
    """

    n_bits: int
    indptr: np.ndarray  # row k's entry count is indptr[k+1] - indptr[k]
    cols: np.ndarray  # (rows, W)
    vals: np.ndarray  # (rows, W)
    diag: np.ndarray
    seqs: SequenceMatrix = None  # the stack, kept where chip sums are exact
    den: int = 1  # H = vals / den

    @property
    def nnz(self):
        return int(self.indptr[-1])

    @property
    def n_blocks(self):
        return len(self.cols) // self.n_bits

    @property
    def full_blocks(self):
        """Per block: every row holds all M entries, columns 0..M-1."""
        return np.diff(self.indptr[::self.n_bits]) == self.n_bits ** 2

    def row(self, k):
        """Nonzero (indices, values) of row k of H (== column k by symmetry)."""
        k = int(_indices([k], len(self.cols), "row")[0])
        n = self.indptr[k + 1] - self.indptr[k]
        return self.cols[k, :n], self._doubles(self.vals[k, :n])

    def _doubles(self, v):
        """Entries v of vals as H's doubles: sign sums over den."""
        return v if v.dtype == np.float64 else v / self.den

    def _times(self, c, v):
        """c = +/-2 times the entries v of vals as H's doubles: c v / den
        is c (v / den), +/-0.0 included, as 2 scales exactly.  For den = 2^e
        c v 2^-e is the same double, and a product is 8x as cheap."""
        v = v.astype(np.float64)  # exact, and half the mixed c * v's cost
        v *= c
        if self.den & (self.den - 1):
            v /= self.den
        elif self.den > 1:
            v *= 1 / self.den
        return v

    def _row_sums(self, v, lo):
        """Per row lo, lo + 1, .., the sum of its slots' products v, (rows, W)
        or (rows, W, P): np.add.reduceat over the row's entries alone, as
        over a CSR row (the padding's slots are summed apart and dropped)."""
        W = self.cols.shape[1]
        at = np.repeat(np.arange(0, v.shape[0] * W, W), 2)
        at[1::2] += np.diff(self.indptr[lo:lo + v.shape[0] + 1])
        if at[-1] == at.size // 2 * W:  # a full last row has no padding
            at = at[:-1]
        return np.add.reduceat(v.reshape((-1,) + v.shape[2:]), at, 0)[::2]

    def add_rows(self, G, dst, rows, c):
        """G[dst[i]] += c[i] H[rows[i]] for each i: a gradient's update for
        flipped bits, c = +/-2.  dst are distinct rows of the C-contiguous
        2-D G, rows are rows of the stack; returns each row's entry count.
        Full rows are added as spans, other rows' table slots at once,
        padding included: G needs a column M, which takes the padding's
        zeros."""
        M, n = self.n_bits, self.indptr[rows + 1] - self.indptr[rows]
        if G.shape[1] <= M:
            raise ValueError("G needs a padding column past bit M - 1")
        if n.size and n.min() == M:  # columns 0..M-1: 1.3-2x np.add.at's speed
            G[dst, :M] += self._times(c[:, None], self.vals[rows])
        else:  # distinct rows repeat no real (row, column); np.add.at
            # measured faster here than a gather, add and scatter
            np.add.at(G.reshape(-1),
                      (self.cols[rows] + (dst * G.shape[1])[:, None]).ravel(),
                      self._times(c[:, None], self.vals[rows]).ravel())
        return n

    def block(self, b):
        """Block b of the stack as a CrossCorr of its own (views), H alone:
        its products take the row route, which gives the same doubles."""
        M, b = self.n_bits, int(_indices([b], self.n_blocks, "block")[0])
        rows = slice(b * M, (b + 1) * M)
        return CrossCorr(M, self.indptr[b * M:(b + 1) * M + 1]
                         - self.indptr[b * M], self.cols[rows],
                         self.vals[rows], self.diag[rows], den=self.den)

    def h_matvec(self, x, block=None):
        """H @ x.  On a stack, x holds one vector per problem, (P, M), and
        problem p is multiplied by block block[p] (default: block p).

        Row route: each chunk of a block's rows is read once for all of its
        problems, and a row's products x_j H_kj (x against a full block's
        values, or x^T gathered at a sparse row's columns) are summed by
        np.add.reduceat over its entries, as the per-entry gather does.
        Chip route, taken by every +/-1 x where the CrossCorr keeps its
        stack (A = 1, L = 2^e, 2L <= C): J = S_int^T (S_int x), by one weighted
        bincount of the problems' signed bits into their chips (problem p's
        at p*C + c) and a gather at the same chips, and H x = J / L.  Each
        product +/-n/L and partial row sum is a multiple of 2^-e, so the row
        route's sums are exact, as J is: the same doubles (+0.0 for a zero
        sum on both, the diagonal term being +/-1).  It reads 2L entries per
        bit, not a row's."""
        M, B = self.n_bits, self.n_blocks
        X = np.asarray(x, dtype=np.float64).reshape(-1, M)
        block = _indices(np.arange(B) if block is None else block, B, "block")
        if len(X) != len(block):
            raise ValueError("need one vector per block or problem")
        out, S = np.empty_like(X), self.seqs
        if S is not None and np.all(np.abs(X) == 1):  # the chip route
            C, L = S.n_chips, S.n_nonzero
            chips, signs = (a.reshape(B, M, L) for a in (S.chips, S.signs))
            n = max(1, _MATVEC_BUFFER // (M * L))
            for lo in range(0, len(X), n):  # problem p's chips at p*C + c
                ps, s = block[lo:lo + n], signs[block[lo:lo + n]]
                key = chips[ps] + np.arange(0, ps.size * C, C)[:, None, None]
                sums = np.bincount(key.ravel(), minlength=ps.size * C,
                                   weights=(s * X[lo:lo + n, :, None]).ravel())
                v = sums[key]
                v *= s
                np.divide(v.sum(-1), L, out=out[lo:lo + n])
                del key, v  # before the next chunk's
            return out.reshape(np.shape(x))
        full, W = self.full_blocks, self.cols.shape[1]
        order = np.argsort(block, kind="stable")  # the problems by block
        bs = block[order]
        cut = (np.flatnonzero(bs[1:] != bs[:-1]) + 1).tolist()
        for i, j in zip([0] + cut, cut + [bs.size]) if bs.size else ():
            ps, b = order[i:j], bs[i]
            if full[b]:  # each chunk of H rows is read once for them all
                h = self.vals[b * M:(b + 1) * M]  # (M, M): W is M
                Xb = X[ps, None, :]
                n = max(1, _MATVEC_BUFFER // (ps.size * M))
                buf = np.empty(ps.size * min(n, M) * M)
                for lo in range(0, M, n):
                    hk = self._doubles(h[lo:lo + n])
                    v = buf[:ps.size * hk.size].reshape(ps.size, -1, M)
                    np.multiply(Xb, hk, out=v)
                    out[ps, lo:lo + n] = np.add.reduceat(
                        v.reshape(-1), np.arange(0, v.size, M)).reshape(
                            ps.size, -1)
                continue
            # row j: x_j of each problem; row M, any finite value, is what
            # the padding's slots gather
            Xt = np.zeros((M + 1, ps.size))
            Xt[:M] = X[ps].T
            n = max(1, _MATVEC_BUFFER // (ps.size * W))
            for lo in range(b * M, (b + 1) * M, n):
                hi = min(lo + n, (b + 1) * M)
                v = np.take(Xt, self.cols[lo:hi], axis=0)
                v *= self._doubles(self.vals[lo:hi, :, None])
                out[ps, lo - b * M:hi - b * M] = self._row_sums(v, lo).T
        return out.reshape(np.shape(x))

    def dense_h(self):
        """H as a dense (rows, M) array: (M, M), or the B blocks stacked."""
        out = np.zeros((len(self.cols), self.n_bits + 1))  # column M: padding
        np.put_along_axis(out, self.cols, self._doubles(self.vals), 1)
        return out[:, :self.n_bits]

    @cached_property
    def abs_row_sums(self):
        """sum_j |H_kj| per row; the all-bits update threshold.  The doubles
        |n|/den are summed over row chunks, a bounded copy at a time."""
        out = np.empty(len(self.cols))
        n = max(1, _MATVEC_BUFFER // self.cols.shape[1])
        for lo in range(0, out.size, n):
            out[lo:lo + n] = self._row_sums(
                self._doubles(np.abs(self.vals[lo:lo + n])), lo)
        return out


def _indices(v, n, name):
    """v as an int64 vector of integers in [0, n), or ValueError; an empty
    list is an empty vector."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size and (v.dtype.kind not in "iu"
                                  or np.any((v < 0) | (v >= n))):
        raise ValueError(f"{name} must hold integers in [0, {n})")
    return v.astype(np.int64)


def _row_chunks(ptr, cap):
    """Chunks of consecutive rows, in order, covering the rows of the
    CSR-style pointer ptr: (lo, hi) rows with (ptr[lo], ptr[hi]) entries,
    at most cap of them, or one row that alone holds more."""
    lo, rows = 0, ptr.size - 1
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + cap, "right")) - 1)
        yield lo, hi, ptr[lo], ptr[hi]
        lo = hi


def _smallest(u, L, out):
    """Write into out each row's columns of its L smallest uniforms: the set
    np.argpartition(u, L, 1)[:, :L] takes, ties included.  Only the entries
    below t = (L + 1 + z sqrt(L + 1)) / C are sorted, by the exact key (row,
    2^53 u).  A row with <= L of them or whose L-th and (L+1)-th smallest
    tie is partitioned, and so is u when t > _SELECT_SHARE or a key is
    inexact or too large."""
    R, C = u.shape
    t = (L + 1 + _SELECT_Z * np.sqrt(L + 1)) / C
    K, rest = int(t * 2 ** 53) + 1, slice(None)  # K > every 2^53 u below t
    if t <= _SELECT_SHARE and R * K < 2 ** 63:
        at = np.flatnonzero(u < t)  # row by row
        v = u.ravel()[at]
        key = (v * 2.0 ** 53).astype(np.int64)
        if np.array_equal(key * 2.0 ** -53, v):  # random() gives k 2^-53
            counts = np.bincount(at // C, minlength=R)
            key += at // C * K
            order = np.argsort(key)
            key, first, ok = key[order], np.cumsum(counts) - counts, counts > L
            ok[ok] = key[first[ok] + L - 1] != key[first[ok] + L]
            out[ok] = at[order[first[ok, None] + np.arange(L)]] % C
            if ok.all():
                return
            rest = ~ok
    out[rest] = np.argpartition(u[rest], L, 1)[:, :L]


def _usable_cores():
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def gen_sparse_matrix(n_chips, n_bits, n_nonzero, rng):
    """Draw a random spreading matrix: M columns, L distinct uniform chip
    positions each, independent equiprobable signs.

    rng is a seeded numpy Generator; output is deterministic for a fixed
    stream.  Given a list of B Generators instead, it draws a stack: matrix
    b from rng[b], exactly as alone.  Duplicate columns are allowed (the
    random model does not exclude them).  A buffer of uniforms may span
    matrices, each part from its own Generator, and is selected at once.
    A stack of distinct PCG64 Generators is drawn on a thread per usable
    core, up to B, each taking an even share of the stack's rows through a
    buffer of its own; the output is the same.
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
        # replacement.  Buffer by buffer, the stream gives one M x C draw's
        # doubles, and a row's selection reads that row alone: same chips
        chips = np.empty((len(rngs), M, L), dtype=np.int32)
        flat, rows = chips.reshape(-1, L), max(
            1, _UNIFORM_BUFFER // C, min(32, 8 * _UNIFORM_BUFFER // C))
        def draw(lo, hi):  # stack rows lo..hi-1, through a buffer of their own
            u, b = np.empty((min(rows, hi - lo), C)), -1
            for r in range(lo, hi, rows):
                e = min(hi, r + rows)
                edges = [r, *range(r // M * M + M, e, M), e]
                for a, s in zip(edges, edges[1:]):  # each set's rows in turn
                    if a // M != b:
                        b, g = a // M, rngs[a // M]
                        if n > 1:  # a copy of set b's Generator, at row a
                            g = copy.deepcopy(g)
                            g.bit_generator.advance((a - b * M) * C)
                    g.random(out=u[a - r:s - r])
                _smallest(u[:e - r], L, flat[r:e])
        # the fill and most selection steps release the GIL.  A thread per
        # usable core splits the rows evenly, given distinct Generators whose
        # advance steps one double and that hold no buffered 32-bit word
        # (Philox advances by 4 words); others are drawn in order, on one
        split = len({id(g) for g in rngs}) == len(rngs) and all(
            isinstance(g.bit_generator, (np.random.PCG64, np.random.PCG64DXSM))
            and not g.bit_generator.state["has_uint32"] for g in rngs)
        n = min(len(rngs), _usable_cores()) if split else 1
        if n == 1:
            draw(0, len(flat))
        else:  # imported here: at module level it would slow every start-up
            from concurrent.futures import ThreadPoolExecutor
            cuts = [len(flat) * t // n for t in range(n + 1)]
            with ThreadPoolExecutor(n) as pool:
                list(pool.map(draw, cuts[:-1], cuts[1:]))
            for g in rngs:  # on to the signs, past the set's M x C doubles
                g.bit_generator.advance(M * C)
        chips.sort(axis=-1)
    signs = np.stack([g.integers(0, 2, size=(M, L), dtype=np.int8)
                      for g in rngs]) * 2 - 1
    if single:
        chips, signs = chips[0], signs[0]
    return SequenceMatrix(C, M, chips, signs)


def crosscorrelation(S, amplitudes):
    """Build H = A R A, with R = S^T S, as a sparse symmetric structure: one
    block per matrix of the stack S, all with the same amplitudes.

    Each R entry is the integer sign sum n over the divisor L, by the chip
    index route (work sum_c occupancy(c)^2, in chunks of rows, into one
    table) or, when M^2 L < _GATHER_PER_PAIR * pairs, the gather route
    (M^2 L entries per block, all blocks at once).  With A = 1 the H keeps
    n and L; otherwise its values are (n/L) A_k A_j.  When 2L > C every
    column pair shares a chip (the structure is full), so each block's
    product is taken densely instead, as doubles over divisor 1, with the
    columns 0..M-1 of every row implied by a broadcast view.
    """
    A = np.asarray(amplitudes, dtype=np.float64)
    if A.ndim == 0:
        A = np.full(S.n_bits, float(A))
    if A.shape != (S.n_bits,):
        raise ValueError("amplitudes must have one entry per bit")
    # squares below the smallest normal double turn H subnormal, then zero
    big, tiny = np.sqrt(np.finfo(float).max), np.sqrt(np.finfo(float).tiny)
    if not np.all((A >= tiny) & (A < big)):
        raise ValueError("amplitudes must be positive, with finite squares "
                         "that do not underflow")

    B, C, M, L = S.n_blocks, S.n_chips, S.n_bits, S.n_nonzero
    if 2 * L > C:
        # every pair overlaps: full structure, dense product for the values
        Sd = S.dense_matrix.reshape(B, C, M)
        vals = np.empty((B, M, M))
        for Sb, Rb in zip(Sd, vals):
            np.matmul(Sb.T, Sb, out=Rb)  # numpy returns S^T S exactly symmetric
        r_diag = vals[:, np.arange(M), np.arange(M)].ravel()
        vals = vals.reshape(B * M, M)
        indptr = np.arange(B * M + 1, dtype=np.int64) * M
        cols = np.broadcast_to(np.arange(M, dtype=_col_type(M)), vals.shape)
        den = 1
    else:
        occ = np.bincount(S.stacked_chips, minlength=B * C).reshape(B, C)
        pairs = (occ * occ).sum(axis=1)
        if M * M * L < _GATHER_PER_PAIR * pairs.mean():
            indptr, cols, vals = _gather_route(S)
        else:
            indptr, cols, vals = _chip_index_route(S, occ)
        r_diag, den = np.ones(B * M), L  # n = L on the diagonal

    if np.all(A == 1.0):
        # equal power: identical; immutable by convention.  A fresh stack
        # (no caches of S) is kept where J / L is exact: see h_matvec
        exact = 2 * L <= C and L & (L - 1) == 0
        return CrossCorr(M, indptr, cols, vals, r_diag, SequenceMatrix(
            C, M, S.chips, S.signs) if exact else None, den)
    At = np.tile(A, B)
    return CrossCorr(M, indptr, cols, vals / den * At[:, None]
                     * np.append(A, 1.0)[cols], r_diag * At * At)


def _col_type(M):
    """The narrowest of int16 and int32 that holds the padding column M."""
    return np.int16 if M < 2 ** 15 else np.int32


def _gather_route(S):
    """(indptr, column table, sign sum table) of every block at once: row j
    of the int8 C x M sign matrix, gathered at column j's chips and summed
    with its signs, is column j's integer sign sum with every column."""
    B, C, M, L = S.n_blocks, S.n_chips, S.n_bits, S.n_nonzero
    chips = S.stacked_chips.reshape(B, M, L)
    signs = S.signs.reshape(B, M, L)
    Si = np.zeros((B * C, M), dtype=np.int8)  # the blocks' sign matrices
    Si[chips, np.arange(M)[:, None]] = signs
    n = np.zeros((B, M, M), dtype=np.min_scalar_type(-L - 1))  # holds +/-L
    pattern = np.zeros((B, M, M), dtype=bool)  # shared support
    for l in range(L):
        g = Si[chips[:, :, l]]
        np.logical_or(pattern, g, out=pattern)
        g *= signs[:, :, l, None]
        n += g
    count = pattern.sum(axis=2).ravel()
    at = np.arange(count.max()) < count[:, None]  # each row's first slots
    cols = np.full(at.shape, M, dtype=_col_type(M))
    cols[at] = np.broadcast_to(np.arange(M, dtype=cols.dtype), n.shape)[pattern]
    vals = np.zeros(at.shape, dtype=n.dtype)
    vals[at] = n[pattern]
    return np.concatenate(([0], np.cumsum(count))), cols, vals


def _chip_index_route(S, occ):
    """(indptr, column table, sign sum table) in chunks of rows of up to
    _PAIR_BUFFER pairs: each chip of a row gives one (row, column, signs
    agree) key per occupant, summed per (row, column) after an in-place
    sort, into tables as wide as the pair counts allow and then narrowed to
    the widest row."""
    B, M, L = S.n_blocks, S.n_bits, S.n_nonzero
    cptr, cols, csigns = S.chip_index
    chips, signs, occ = S.stacked_chips, S.signs.ravel(), occ.ravel()
    rpairs = occ[chips].reshape(-1, L).sum(1)
    rptr = np.concatenate(([0], np.cumsum(rpairs)))
    # a row pairs with itself on each of its L chips: min(M, pairs - L + 1)
    # bounds its entries
    Wb = int(min(M, rpairs.max() - L + 1))
    ct = np.full(B * M * Wb, M, dtype=_col_type(M))
    vt = np.zeros(B * M * Wb, dtype=np.min_scalar_type(-L - 1))  # holds +/-L
    indptr = np.zeros(B * M + 1, dtype=np.int64)
    for lo, hi, a, e in _row_chunks(rptr, _PAIR_BUFFER):
        ch = chips[lo * L:hi * L]
        n, c = e - a, occ[ch]
        # per-pair arrays (positions, key) in int32 while every value fits,
        # which halves them; int64 beyond.  A row's pair i on a chip is with
        # the chip's occupant i, at position cptr[chip] + i of the index
        it = np.int32 if max(2 * (hi - lo) * M, n, cols.size) < 2**31 else np.int64
        shift = (np.cumsum(c) - c - cptr[ch]).astype(it)
        pos = np.arange(n, dtype=it) - np.repeat(shift, c)
        # key = (row, col) << 1 | (sign product > 0); the exact integer sign
        # sum n of a (row, col) is the running sum of the +/-1 products at
        # its last key minus that at the key before
        key = np.repeat(np.arange(hi - lo, dtype=it).repeat(L), c)
        key *= 2 * M
        key += cols[pos] % M * 2  # column within the block
        key += np.repeat(signs[lo * L:hi * L], c) == csigns[pos]
        del pos
        key.sort()
        last = np.append((key[1:] ^ key[:-1]) > 1, True)  # differ above bit 0
        ukey, s = key[last] >> 1, np.cumsum(2 * (key & 1) - 1, dtype=it)[last]
        end = np.searchsorted(ukey, np.arange(1, hi - lo + 1, dtype=it) * M)
        indptr[lo + 1:hi + 1] = indptr[lo] + end
        # each row's first slots, in row-major order: the keys' order
        at = np.arange(Wb) < np.diff(end, prepend=0)[:, None]
        ct.reshape(-1, Wb)[lo:hi][at] = ukey % M
        vt.reshape(-1, Wb)[lo:hi][at] = np.diff(s, prepend=0)
    W, n = int(np.diff(indptr).max()), max(1, _PAIR_BUFFER // Wb)
    for t in (ct, vt) if W < Wb else ():  # narrowed in place, rows moving
        for lo in range(0, B * M, n):  # down: a copy would raise the peak
            rows = t[lo * Wb:min(lo + n, B * M) * Wb].reshape(-1, Wb)[:, :W]
            t[lo * W:lo * W + rows.size] = rows.ravel()
        t.resize(B * M * W, refcheck=False)
    return indptr, ct.reshape(-1, W), vt.reshape(-1, W)

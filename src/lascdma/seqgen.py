"""Sparse random spreading sequences and their crosscorrelation structure.

A spreading matrix has M unit-norm columns over C chips.  Each column has
exactly L nonzero chips at distinct random positions, and every nonzero is
+1/sqrt(L) or -1/sqrt(L) with equal probability.  L == C is the dense
special case (ordinary random spreading).

Crosscorrelations are assembled through an inverted chip index: only column
pairs that share at least one chip can meet, so the work is proportional to
the number of cohabiting pairs rather than to all M^2 pairs.  Entries whose
sign products cancel to exactly 0.0 are kept in the sparse structure: the
pair shares chip support, and a sparse detector implementation stores and
touches that entry regardless of its value.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class SequenceMatrix:
    """M spreading sequences over C chips, all with the same nonzero count L.

    `chips[k]` / `signs[k]` describe column k.  The matrix is immutable once
    built and safe to share across concurrent readers.
    """

    n_chips: int
    n_bits: int
    chips: np.ndarray  # (M, L) int32, each row strictly increasing
    signs: np.ndarray  # (M, L) int8

    def __post_init__(self):
        self.chips = np.ascontiguousarray(self.chips, dtype=np.int32)
        self.signs = np.ascontiguousarray(self.signs, dtype=np.int8)
        C, M = self.n_chips, self.n_bits
        if self.chips.ndim != 2 or self.chips.shape[0] != M:
            raise ValueError("chips must be (n_bits, L)")
        if self.signs.shape != self.chips.shape:
            raise ValueError("signs shape must match chips")
        L = self.chips.shape[1]
        if not 1 <= L <= C:
            raise ValueError(f"need 1 <= L <= C, got L={L}, C={C}")
        if self.chips.min() < 0 or self.chips.max() >= C:
            raise ValueError("chip index out of range")
        if L > 1 and not np.all(np.diff(self.chips, axis=1) > 0):
            raise ValueError("chip indices must be distinct and sorted per column")
        if not np.all(np.abs(self.signs) == 1):
            raise ValueError("signs must be +/-1")

    @property
    def n_nonzero(self):
        """Nonzero chips per column (L)."""
        return int(self.chips.shape[1])

    @property
    def is_dense(self):
        return self.n_nonzero == self.n_chips

    @property
    def chip_amplitude(self):
        return 1.0 / np.sqrt(self.n_nonzero)

    @cached_property
    def chip_index(self):
        """Inverted map chip -> occupying columns, as CSR-style arrays.

        Returns (indptr, cols, signs): columns with a nonzero at chip c are
        cols[indptr[c]:indptr[c+1]], with matching signs.
        """
        flat = self.chips.ravel()
        order = np.argsort(flat, kind="stable")
        cols = (order // self.n_nonzero).astype(np.int32)
        signs = self.signs.ravel()[order]
        counts = np.bincount(flat, minlength=self.n_chips)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return indptr, cols, signs

    @cached_property
    def dense_matrix(self):
        """The (C, M) dense float matrix; columns are unit-norm sequences."""
        S = np.zeros((self.n_chips, self.n_bits))
        rows = self.chips.ravel()
        cols = np.repeat(np.arange(self.n_bits), self.n_nonzero)
        S[rows, cols] = self.signs.ravel() * self.chip_amplitude
        return S


@dataclass
class CrossCorr:
    """The amplitude-weighted crosscorrelation H = A R A, with R = S^T S.

    One full symmetric CSR structure (per-row column/value lists, columns
    ascending within a row): `indptr`/`indices` with values `h_data`;
    `diag` holds the H diagonal (A_k^2 for unit-norm columns).  Structural
    entries are exactly the column pairs sharing chip support, including
    any whose value cancels to 0.0.  Immutable once built.
    """

    n_bits: int
    indptr: np.ndarray
    indices: np.ndarray
    h_data: np.ndarray
    diag: np.ndarray

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def row(self, k):
        """Nonzero (indices, values) of row k of H (== column k by symmetry)."""
        lo, hi = self.indptr[k], self.indptr[k + 1]
        return self.indices[lo:hi], self.h_data[lo:hi]

    def h_matvec(self, x):
        """H @ x through the raw row lists."""
        return np.add.reduceat(self.h_data * x[self.indices], self.indptr[:-1])

    def dense_h(self):
        out = np.zeros((self.n_bits, self.n_bits))
        rows = np.repeat(np.arange(self.n_bits), np.diff(self.indptr))
        out[rows, self.indices] = self.h_data
        return out

    @cached_property
    def abs_row_sums(self):
        """sum_j |H_kj| per row; the all-bits update threshold."""
        return np.add.reduceat(np.abs(self.h_data), self.indptr[:-1])


def gen_sparse_matrix(n_chips, n_bits, n_nonzero, rng):
    """Draw a random spreading matrix: M columns, L distinct uniform chip
    positions each, independent equiprobable signs.

    rng is a seeded numpy Generator; output is deterministic for a fixed
    stream.  Duplicate columns are allowed (the random model does not
    exclude them).
    """
    C, M, L = n_chips, n_bits, n_nonzero
    if not 1 <= L <= C:
        raise ValueError(f"need 1 <= L <= C, got L={L}, C={C}")
    if M < 1:
        raise ValueError("need at least one column")
    if L == C:
        chips = np.tile(np.arange(C, dtype=np.int32), (M, 1))
    else:
        # top-L of i.i.d. uniforms per row = uniform L-subset without replacement
        u = rng.random((M, C))
        chips = np.sort(np.argpartition(u, L, axis=1)[:, :L].astype(np.int32), axis=1)
    signs = (rng.integers(0, 2, size=(M, L), dtype=np.int8) * 2 - 1).astype(np.int8)
    return SequenceMatrix(C, M, chips, signs)


def crosscorrelation(S, amplitudes):
    """Build H = A R A, with R = S^T S, as a sparse symmetric structure.

    The sparse route walks the inverted chip index and emits one sign product
    per (chip, column pair) incidence, so the cost is sum_c occupancy(c)^2;
    each R entry is the exact n/L of its integer sign sum n.  When
    2L > C every column pair shares a chip (the structure is full), so the
    product is taken densely instead.
    """
    A = np.asarray(amplitudes, dtype=np.float64)
    if A.ndim == 0:
        A = np.full(S.n_bits, float(A))
    if A.shape != (S.n_bits,):
        raise ValueError("amplitudes must have one entry per bit")
    if not np.all(A > 0):
        raise ValueError("amplitudes must be positive")

    C, M, L = S.n_chips, S.n_bits, S.n_nonzero
    if 2 * L > C:
        # every pair overlaps: full structure, dense product for the values
        Sd = S.dense_matrix
        indptr = np.arange(M + 1, dtype=np.int64) * M
        indices = np.tile(np.arange(M, dtype=np.int32), M)
        r_data = (Sd.T @ Sd).ravel()  # numpy returns S^T S exactly symmetric
    else:
        cptr, cols, csigns = S.chip_index
        counts = np.diff(cptr).astype(np.int64)
        sq = counts * counts
        total = int(sq.sum())
        chip_of = np.repeat(np.arange(C), sq)
        offset = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(sq) - sq, sq)
        occ = counts[chip_of]
        ia = cptr[chip_of] + offset // occ
        ib = cptr[chip_of] + offset % occ
        # exact integer sign sums per (row, col) key, divided by L once
        key = cols[ia].astype(np.int64) * M + cols[ib]
        ukey, pair = np.unique(key, return_inverse=True)
        r_data = np.bincount(pair, weights=csigns[ia] * csigns[ib]) / L
        indices = (ukey % M).astype(np.int32)
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(ukey // M, minlength=M)))
        )

    rows_of = np.repeat(np.arange(M), np.diff(indptr))
    if np.all(A == 1.0):
        h_data = r_data  # equal power: identical; immutable by convention
    else:
        h_data = r_data * A[rows_of] * A[indices]
    diag = h_data[indices == rows_of]
    return CrossCorr(n_bits=M, indptr=indptr, indices=indices,
                     h_data=h_data, diag=diag)

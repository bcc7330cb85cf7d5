"""Shared builders for detector-level tests, and a usable-core patch."""

import os

import numpy as np

from lascdma.channel import ChannelParams, matched_filter, snr_to_sigma, transmit
from lascdma.seqgen import SequenceMatrix, crosscorrelation, gen_sparse_matrix


def make_instance(rng, M, alpha, L, snr_db, amplitudes=None):
    """One random channel instance: returns (S, xc, A, b, y)."""
    C = int(round(M / alpha))
    S = gen_sparse_matrix(C, M, L, rng)
    A = np.full(M, 1.0) if amplitudes is None else np.asarray(amplitudes, float)
    xc = crosscorrelation(S, A)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    params = ChannelParams(A, snr_to_sigma(snr_db))
    y = matched_filter(S, transmit(S, params, b, rng))
    return S, xc, A, b, y


def csr(xc):
    """A CrossCorr's rows as CSR: (indptr, int32 column indices, values as
    doubles), each row's entries being its table's first slots."""
    real = np.arange(xc.cols.shape[1]) < np.diff(xc.indptr)[:, None]
    return (xc.indptr, xc.cols[real].astype(np.int32),
            xc.vals[real] / xc.den)


def orthogonal_matrix(M, L, rng):
    """Columns on disjoint chip blocks: R is exactly the identity."""
    C = M * L
    chips = (np.arange(L, dtype=np.int32)[None, :]
             + L * np.arange(M, dtype=np.int32)[:, None])
    signs = (rng.integers(0, 2, size=(M, L), dtype=np.int8) * 2 - 1).astype(np.int8)
    return SequenceMatrix(C, M, chips, signs)


def usable_cores(monkeypatch, n):
    """Make the process see n usable cores, as gen_sparse_matrix counts."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: n)

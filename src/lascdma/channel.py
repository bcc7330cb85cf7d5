"""Synchronous AWGN multiuser channel and the matched-filter front end.

The received chip vector is r = sum_k A_k b_k s_k + m with m ~ N(0, sigma^2 I).
Noise is injected in the chip domain and carried through the matched filter,
so the colored statistics of y = S^T r arise by construction rather than by
factorizing the crosscorrelation per sequence set.

All operations are stateless given (S, params); concurrent trial workers each
own their RNG substream.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Per-bit amplitudes (all positive) and per-chip noise std sigma >= 0."""

    amplitudes: np.ndarray
    sigma: float

    def __post_init__(self):
        A = np.ascontiguousarray(self.amplitudes, dtype=np.float64)
        object.__setattr__(self, "amplitudes", A)
        if A.ndim != 1 or A.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-d vector")
        if not np.all(A > 0):
            raise ValueError("amplitudes must be positive")
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")


def transmit(S, params, bits, rng):
    """Synthesize the received chip vector r = sum_k A_k b_k s_k + noise.

    The signal part touches only the nonzero chips of each column.  With
    sigma == 0 no noise is drawn and the output is the exact signal.  For a
    stack S of B matrices, bits is (B, M) and rng a list of B Generators:
    matrix b sends bits[b] with noise from rng[b], and r is (B, C).
    """
    bits = np.asarray(bits)
    if bits.shape != S.chips.shape[:-1]:
        raise ValueError("bits length must equal the column count")
    if not np.all(np.abs(bits) == 1):
        raise ValueError("bits must be +/-1")
    if params.amplitudes.shape != (S.n_bits,):
        raise ValueError("amplitudes length must equal the column count")

    C, M = S.n_chips, S.n_bits
    shape = bits.shape[:-1] + (C,)
    x = params.amplitudes * bits
    if S.is_dense:  # one BLAS product per matrix
        r = np.stack([Sd @ xb for Sd, xb in zip(
            S.dense_matrix.reshape(-1, C, M), x.reshape(-1, M))]).reshape(shape)
    else:
        r = np.bincount(
            S.stacked_chips(),
            weights=(S.signs * (x * S.chip_amplitude)[..., None]).ravel(),
            minlength=S.n_blocks * C,
        ).reshape(shape)
    if params.sigma > 0:
        rngs = rng if bits.ndim > 1 else [rng]
        r = r + np.stack([g.normal(0.0, params.sigma, C)
                          for g in rngs]).reshape(shape)
    return r


def matched_filter(S, r):
    """Correlator bank output y = S^T r, one statistic per bit (per matrix
    of a stack, r being (B, C))."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != S.chips.shape[:-2] + (S.n_chips,):
        raise ValueError("received vector length must equal the chip count")
    if S.is_dense:
        C, M = S.n_chips, S.n_bits
        return np.stack([Sd.T @ rb for Sd, rb in zip(
            S.dense_matrix.reshape(-1, C, M),
            r.reshape(-1, C))]).reshape(S.chips.shape[:-1])
    rc = r.ravel()[S.stacked_chips()].reshape(S.chips.shape)
    return (S.signs * rc).sum(axis=-1) * S.chip_amplitude


def snr_to_sigma(snr_db, amplitude=1.0):
    """Noise std for a given per-bit SNR in dB, under SNR = A^2 / sigma^2.

    With unit-norm sequences this makes the single-user error rate
    Q(sqrt(SNR)).  snr_db = inf, or any SNR whose power ratio exceeds the
    float range, gives sigma = 0; an SNR whose noise level is not finite
    (-inf, NaN or far below 0 dB) raises ValueError.
    """
    if not amplitude > 0:
        raise ValueError("amplitude must be positive")
    try:
        sigma = amplitude / 10.0 ** (snr_db / 20.0)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ValueError(f"snr_db = {snr_db} gives no finite noise level")
    return sigma

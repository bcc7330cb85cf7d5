"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense arrays, full recomputation at
every step, exhaustive enumeration.  None of it shares code with the
package's sparse/incremental paths it is used to verify.
"""

import math
from dataclasses import dataclass

import numpy as np


def dense_columns(S):
    """(C, M) dense matrix built column by column from the raw entries."""
    out = np.zeros((S.n_chips, S.n_bits))
    amp = 1.0 / np.sqrt(S.n_nonzero)
    for k in range(S.n_bits):
        for c, s in zip(S.chips[k], S.signs[k]):
            out[c, k] = s * amp
    return out


def dense_crosscorr(S):
    """O(C M^2) crosscorrelation: pairwise column dot products."""
    Sd = dense_columns(S)
    M = S.n_bits
    R = np.empty((M, M))
    for i in range(M):
        for j in range(M):
            R[i, j] = np.dot(Sd[:, i], Sd[:, j])
    return R


def omega_dense(b, y, Hd, A):
    b = np.asarray(b, dtype=float)
    return float(b @ (A * y) - 0.5 * (b @ Hd @ b))


def replay_omega(b0, flip_log, y, Hd, A):
    """Omega at b0 and after each (step, flipped bits) event of a flip log,
    every value recomputed from the dense H."""
    b = np.asarray(b0, dtype=float).copy()
    trace = [omega_dense(b, y, Hd, A)]
    for _, flipped in flip_log:
        b[list(flipped)] *= -1
        trace.append(omega_dense(b, y, Hd, A))
    return trace


def all_bit_vectors(M):
    """All 2^M vectors in lexicographic order with +1 < -1, position 0 most
    significant (matches the package's tie-break order)."""
    n = np.arange(1 << M, dtype=np.uint64)
    shifts = np.arange(M - 1, -1, -1, dtype=np.uint64)
    return 1.0 - 2.0 * ((n[:, None] >> shifts[None, :]) & 1)


def exhaustive_max_omega(y, Hd, A):
    """Brute-force likelihood maximizer; first (lex-smallest) argmax wins."""
    B = all_bit_vectors(len(y))
    vals = [omega_dense(B[i], y, Hd, A) for i in range(B.shape[0])]
    i = int(np.argmax(vals))
    return B[i].astype(np.int8), vals[i]


def exhaustive_min_chip_distance(r, Sd, A):
    """Brute-force minimizer of ||r - S(A*b)||^2 over all bit vectors."""
    M = Sd.shape[1]
    B = all_bit_vectors(M)
    best, best_val = None, np.inf
    for i in range(B.shape[0]):
        d = r - Sd @ (A * B[i])
        v = float(d @ d)
        if v < best_val:
            best, best_val = B[i].astype(np.int8), v
    return best, best_val


@dataclass
class NaiveRun:
    bits: np.ndarray
    converged: bool
    steps: int
    flips: int
    additions: int
    passes: int


def column_overlap_counts(S):
    """Per column k, how many columns (k included) share a chip with it:
    the structural nonzeros of column k of H, cancelled values included."""
    support = (dense_columns(S) != 0).astype(int)
    return ((support.T @ support) > 0).sum(axis=0)


def naive_sequential_las(y, Hd, A, b0, max_passes=100, n_prime=0,
                         col_nnz=None):
    """LAS ascent with the gradient recomputed from scratch at every step.

    First up to n_prime all-bit steps: every bit with b_k g_k below
    -sum_j |H_kj| flips at once, and a step that flips nothing ends the
    phase.  Then one-bit steps in cyclic order from bit 0 with threshold
    H_kk, until M consecutive steps flip nothing.  An all-bit step counts
    one step and one pass; one-bit steps count one step each and
    ceil(steps / M) passes; the whole run stays within max_passes passes.
    A flip of bit k costs col_nnz[k] additions (default: the nonzeros of
    column k of Hd)."""
    b = np.asarray(b0, dtype=float).copy()
    M = len(y)
    ay = A * y
    nnz = (Hd != 0).sum(axis=0) if col_nnz is None else np.asarray(col_nnz)
    steps = flips = additions = passes = 0
    t_all = np.abs(Hd).sum(axis=1)
    for _ in range(min(n_prime, max_passes)):
        g = ay - Hd @ b
        flipped = np.flatnonzero(b * g < -t_all)
        steps += 1
        passes += 1
        if flipped.size == 0:
            break
        b[flipped] = -b[flipped]
        flips += flipped.size
        additions += int(nnz[flipped].sum())
    budget = (max_passes - passes) * M
    seq = clean = 0
    converged = False
    while seq < budget:
        k = seq % M
        g = ay - Hd @ b
        seq += 1
        if b[k] * g[k] < -Hd[k, k]:
            b[k] = -b[k]
            flips += 1
            additions += int(nnz[k])
            clean = 0
        else:
            clean += 1
        if clean == M:
            converged = True
            break
    return NaiveRun(b.astype(np.int8), converged, steps + seq, flips,
                    additions, passes + -(-seq // M))


_HERME_X, _HERME_W = np.polynomial.hermite_e.hermegauss(200)
# E[f(Z)] = sum(w * f(x)) for Z ~ N(0, 1)
_HERME_W = _HERME_W / np.sqrt(2 * np.pi)


def binary_mmse(s):
    """mmse(s) = 1 - E[tanh(s + sqrt(s) Z)]: a +/-1 input seen at SNR s."""
    s = np.asarray(s, dtype=float)[..., None]
    return 1.0 - np.tanh(s + np.sqrt(s) * _HERME_X) @ _HERME_W


def binary_mutual_info(s):
    """I(s) = s - E[ln cosh(s + sqrt(s) Z)] in nats."""
    s = np.asarray(s, dtype=float)[..., None]
    u = np.abs(s + np.sqrt(s) * _HERME_X)
    return s[..., 0] - (u + np.log1p(np.exp(-2 * u)) - np.log(2)) @ _HERME_W


def replica_optimum(alpha, snr_db):
    """Tanaka's replica fixed point for the individually optimal detector:
    binary inputs, dense spreading, load alpha, M -> infinity (Tanaka, IEEE
    Trans. IT 2002).  Every root of eta = 1/(1 + alpha snr mmse(eta snr))
    in [1/(1 + alpha snr), 1] is bracketed on a 4000-point grid and
    bisected; of several, the one that minimizes alpha I(eta snr) + (eta -
    1 - ln eta)/2 is the solution (Guo and Verdu, IEEE Trans. IT 2005).
    Sparse spreading at finite L has a curve of its own.  Returns (eta,
    BER, all roots), BER = Q(sqrt(eta snr)); expectations over Z ~ N(0, 1)
    take 200 Gauss-Hermite nodes."""
    snr = 10.0 ** (snr_db / 10.0)

    def excess(eta):
        return eta - 1.0 / (1.0 + alpha * snr * binary_mmse(eta * snr))

    eta = np.linspace(1.0 / (1.0 + alpha * snr), 1.0, 4000)
    f = excess(eta)
    at = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    lo, hi = eta[at], eta[at + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = np.sign(excess(mid)) == np.sign(excess(lo))
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    roots = 0.5 * (lo + hi)
    free = (alpha * binary_mutual_info(roots * snr)
            + (roots - 1 - np.log(roots)) / 2)
    best = float(roots[np.argmin(free)])
    return best, 0.5 * math.erfc(math.sqrt(best * snr / 2)), roots

import math

import numpy as np
import pytest

from lascdma.channel import ChannelParams, matched_filter, snr_to_sigma, transmit
from lascdma.seqgen import SequenceMatrix, gen_sparse_matrix

import oracles


def test_noiseless_single_user_is_the_column():
    rng = np.random.default_rng(0)
    S = gen_sparse_matrix(16, 1, 4, rng)
    r = transmit(S, ChannelParams(np.ones(1), 0.0), np.array([1], dtype=np.int8), rng)
    assert np.array_equal(r, S.dense_matrix()[:, 0])


@pytest.mark.parametrize("seed,C,M,L", [
    (0, 32, 8, 4),
    (1, 40, 16, 3),
    (2, 12, 6, 12),   # dense path
    (3, 15, 9, 9),    # 2L > C
])
def test_noiseless_transmit_matches_dense_product(seed, C, M, L):
    rng = np.random.default_rng(seed)
    S = gen_sparse_matrix(C, M, L, rng)
    A = rng.uniform(0.5, 2.0, M)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    r = transmit(S, ChannelParams(A, 0.0), b, rng)
    ref = oracles.dense_columns(S) @ (A * b)
    assert np.max(np.abs(r - ref)) < 1e-12


def test_noise_moments():
    # 1e5 draws through the real transmit path, frozen seed
    rng = np.random.default_rng(42)
    S = gen_sparse_matrix(4, 2, 2, rng)
    b = np.array([1, -1], dtype=np.int8)
    params = ChannelParams(np.ones(2), 1.0)
    clean = transmit(S, ChannelParams(np.ones(2), 0.0), b, rng)
    n = 100_000
    acc = np.zeros(4)
    acc2 = 0.0
    for _ in range(n):
        r = transmit(S, params, b, rng)
        acc += r
        d = r - clean
        acc2 += d @ d
    mean = acc / n
    assert np.max(np.abs(mean - clean)) < 3.0 / math.sqrt(n)
    var = acc2 / (n * 4)
    assert abs(var - 1.0) < 0.05


def test_matched_filter_unit_norm_single_user():
    rng = np.random.default_rng(1)
    S = gen_sparse_matrix(16, 1, 4, rng)
    y = matched_filter(S, S.dense_matrix()[:, 0])
    assert abs(y[0] - 1.0) < 1e-12


def test_matched_filter_orthogonal_two_users():
    chips = np.array([[0, 1], [2, 3]], dtype=np.int32)
    signs = np.array([[1, -1], [1, 1]], dtype=np.int8)
    S = SequenceMatrix(4, 2, chips, signs)
    A = np.array([2.0, 3.0])
    b = np.array([1, -1], dtype=np.int8)
    rng = np.random.default_rng(0)
    y = matched_filter(S, transmit(S, ChannelParams(A, 0.0), b, rng))
    assert np.max(np.abs(y - np.array([2.0, -3.0]))) < 1e-12


@pytest.mark.parametrize("seed,C,M,L", [
    (0, 32, 8, 4),
    (1, 18, 12, 18),  # dense
    (2, 25, 5, 13),   # 2L > C
])
def test_matched_filter_matches_dense_product(seed, C, M, L):
    rng = np.random.default_rng(seed)
    S = gen_sparse_matrix(C, M, L, rng)
    r = rng.normal(size=C)
    ref = oracles.dense_columns(S).T @ r
    assert np.max(np.abs(matched_filter(S, r) - ref)) < 1e-12


def test_noise_free_end_to_end_identity():
    # matched_filter(transmit(sigma=0)) == R (A*b)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(2, 40))
        C = int(rng.integers(M, 3 * M + 2))
        L = int(rng.integers(1, min(C, 9)))
        S = gen_sparse_matrix(C, M, L, rng)
        A = rng.uniform(0.5, 2.0, M)
        b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
        y = matched_filter(S, transmit(S, ChannelParams(A, 0.0), b, rng))
        ref = oracles.dense_crosscorr(S) @ (A * b)
        assert np.max(np.abs(y - ref)) < 1e-10


def test_colored_noise_covariance():
    # y - R(Ab) has covariance sigma^2 R; check entrywise within 5 standard
    # errors of the sample covariance, frozen seed
    rng = np.random.default_rng(7)
    M, C, L = 6, 12, 3
    sigma = 0.8
    S = gen_sparse_matrix(C, M, L, rng)
    A = np.ones(M)
    R = oracles.dense_crosscorr(S)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    clean = R @ (A * b)
    n = 20_000
    resid = np.empty((n, M))
    params = ChannelParams(A, sigma)
    for i in range(n):
        resid[i] = matched_filter(S, transmit(S, params, b, rng)) - clean
    emp = resid.T @ resid / n
    target = sigma ** 2 * R
    se = sigma ** 2 * np.sqrt(
        (R ** 2 + np.outer(np.diag(R), np.diag(R))) / n
    )
    assert np.all(np.abs(emp - target) <= 5 * se)


def test_transmit_validation():
    rng = np.random.default_rng(0)
    S = gen_sparse_matrix(16, 4, 2, rng)
    params = ChannelParams(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        transmit(S, params, np.array([1, 1, 1], dtype=np.int8), rng)
    with pytest.raises(ValueError):
        transmit(S, params, np.array([1, 0, 1, 1], dtype=np.int8), rng)
    with pytest.raises(ValueError):
        transmit(S, ChannelParams(np.ones(3), 0.0),
                 np.array([1, 1, 1, 1], dtype=np.int8), rng)
    with pytest.raises(ValueError):
        matched_filter(S, np.zeros(15))


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(np.array([1.0, -1.0]), 0.5)
    with pytest.raises(ValueError):
        ChannelParams(np.ones(2), -0.1)
    for A, sigma in (([1.0, np.inf], 0.5), ([1.0, np.nan], 0.5),
                     ([1.0, 1.0], np.inf), ([1.0, 1.0], np.nan)):
        with pytest.raises(ValueError, match="finite"):
            ChannelParams(np.array(A), sigma)


def test_snr_to_sigma_values():
    assert snr_to_sigma(0.0) == 1.0
    assert abs(snr_to_sigma(20.0) - 0.1) < 1e-15
    s11 = snr_to_sigma(11.0)
    assert abs(s11 - 10 ** -0.55) < 1e-15
    assert abs(s11 ** 2 - 10 ** -1.1) < 1e-15
    assert snr_to_sigma(math.inf) == 0.0
    assert snr_to_sigma(7000.0) == 0.0  # 10^350 is beyond the float range
    for snr in (-math.inf, -7000.0, math.nan):
        with pytest.raises(ValueError):
            snr_to_sigma(snr)

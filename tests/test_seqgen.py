import concurrent.futures
import math
import sys
import tracemalloc

import numpy as np
import pytest

from lascdma import seqgen
from lascdma.seqgen import (
    CrossCorr,
    SequenceMatrix,
    crosscorrelation,
    gen_sparse_matrix,
)

import oracles


def rng_for(seed):
    return np.random.default_rng(seed)


def test_dense_column_is_ordinary_random_spreading():
    # C == L: every chip carries +/- 1/sqrt(C)
    S = gen_sparse_matrix(8, 1, 8, rng_for(0))
    col = S.dense_matrix[:, 0]
    assert np.all(np.abs(col) == pytest.approx(1 / math.sqrt(8), abs=0))
    assert abs(np.linalg.norm(col) - 1.0) < 1e-12
    assert S.is_dense


def test_single_chip_column_has_exact_unit_norm():
    S = gen_sparse_matrix(4, 1, 1, rng_for(1))
    col = S.dense_matrix[:, 0]
    assert np.count_nonzero(col) == 1
    assert np.linalg.norm(col) == 1.0  # 1/sqrt(1) is exact


def test_dense_stack_chips_stay_one_row():
    # every column of a dense matrix holds chips 0..C-1: the stack's chips,
    # and each set's, are views of one C-entry row, not B x M x C int32
    C, M, B = 40, 32, 3
    S = gen_sparse_matrix(C, M, C, [rng_for(s) for s in range(B)])
    for chips in (S.chips, SequenceMatrix(C, M, S.chips[1], S.signs[1]).chips):
        owner = chips
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.nbytes == C * 4
        assert np.array_equal(chips, np.broadcast_to(np.arange(C), chips.shape))


def test_generator_errors():
    with pytest.raises(ValueError):
        gen_sparse_matrix(4, 1, 0, rng_for(0))
    with pytest.raises(ValueError):
        gen_sparse_matrix(4, 1, 5, rng_for(0))
    with pytest.raises(ValueError):
        gen_sparse_matrix(4, 0, 2, rng_for(0))
    with pytest.raises(ValueError, match="empty Generator list"):
        gen_sparse_matrix(4, 1, 2, [])


def test_generator_deterministic_for_fixed_seed():
    a = gen_sparse_matrix(64, 32, 4, rng_for(7))
    b = gen_sparse_matrix(64, 32, 4, rng_for(7))
    assert np.array_equal(a.chips, b.chips)
    assert np.array_equal(a.signs, b.signs)


def whole_array_draw(C, M, L, g):
    """The chip sampler's reference: all M x C uniforms in one array, the
    top L of each row, then the signs from the stream that follows."""
    u = g.random((M, C))
    chips = np.sort(np.argpartition(u, L, axis=1)[:, :L], axis=1)
    return chips, g.integers(0, 2, size=(M, L), dtype=np.int8) * 2 - 1


@pytest.mark.parametrize("L", [1, 4095])
@pytest.mark.parametrize("chunks", [0.5, 2, 2.5])
def test_streamed_sampler_equals_whole_array_draw(chunks, L, monkeypatch):
    # M under one buffer chunk, a whole number of chunks and a partial last
    # chunk; L = 1 and L = C - 1.  A stack of five sets asked for on 8
    # threads is drawn on five (switching often), each set as drawn alone;
    # one thread per call, as by default, makes no pool.
    pools = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, n):
            pools.append(n)
            super().__init__(n)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    C, seeds = 4096, range(3, 8)
    M = int(chunks * (seqgen._UNIFORM_BUFFER // C))
    got = gen_sparse_matrix(C, M, L, rng_for(11))
    chips, signs = whole_array_draw(C, M, L, rng_for(11))
    assert np.array_equal(got.chips, chips) and np.array_equal(got.signs, signs)
    alone = gen_sparse_matrix(C, M, L, [rng_for(s) for s in seeds])
    assert pools == []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stack = gen_sparse_matrix(C, M, L, [rng_for(s) for s in seeds],
                                  threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert pools == [5]
    for b, s in enumerate(seeds):
        chips, signs = whole_array_draw(C, M, L, rng_for(s))
        assert np.array_equal(stack.chips[b], chips)
        assert np.array_equal(stack.signs[b], signs)
        assert np.array_equal(alone.chips[b], chips)
        assert np.array_equal(alone.signs[b], signs)


def test_shared_generator_is_drawn_in_order(monkeypatch):
    # one Generator for three matrices: each draws on from where the last
    # stopped, on one thread even when more are allowed
    pools = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda n: pools.append(n))
    C, M, L = 2048, 96, 8
    g = rng_for(5)
    stack = gen_sparse_matrix(C, M, L, [g] * 3, threads=4)
    ref = rng_for(5)
    u = [ref.random((M, C)) for _ in range(3)]
    signs = [ref.integers(0, 2, size=(M, L), dtype=np.int8) * 2 - 1
             for _ in range(3)]
    for b in range(3):
        chips = np.sort(np.argpartition(u[b], L, axis=1)[:, :L], axis=1)
        assert np.array_equal(stack.chips[b], chips)
        assert np.array_equal(stack.signs[b], signs[b])
    assert pools == []


def test_fixed_set_build_memory_is_bounded():
    # tracemalloc peaks (numpy reports its buffers to it) for one set at
    # M = 4096, C = 5120, L = 16.  gen_sparse_matrix: 321 MiB with the whole
    # M x C uniform array, 1.9 MiB streamed.  crosscorrelation: 94 MiB with
    # int64 pair arrays, 63 MiB with int32, 35 MiB with the in-place sort of
    # int32 keys in place of np.unique.
    tracemalloc.start()
    try:
        S = gen_sparse_matrix(5120, 4096, 16, rng_for(1))
        gen_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        crosscorrelation(S, np.ones(4096))
        xcorr_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert gen_peak < 8 * 2 ** 20
    assert xcorr_peak < 50 * 2 ** 20


def test_chip_index_route_with_int64_keys():
    # M^2 >= 2^31: the (row, column) keys need int64.  L = 1 over many chips
    # keeps the pairs few: row k holds the columns on column k's chip.
    C, M = 1 << 20, 46341
    g = rng_for(5)
    S = SequenceMatrix(C, M, g.integers(0, C, (M, 1)),
                       g.integers(0, 2, (M, 1), dtype=np.int8) * 2 - 1)
    xc = crosscorrelation(S, 1.0)
    chips, signs = S.chips[:, 0], S.signs[:, 0].astype(float)
    occ = np.bincount(chips, minlength=C)[chips]
    assert np.array_equal(np.diff(xc.indptr), occ)
    alone = np.flatnonzero(occ == 1)
    assert np.array_equal(xc.indices[xc.indptr[alone]], alone)
    for k in np.flatnonzero(occ > 1):
        cols = np.flatnonzero(chips == chips[k])
        idx, val = xc.row(k)
        assert np.array_equal(idx, cols)
        assert np.array_equal(val, signs[k] * signs[cols])


@pytest.mark.parametrize("M", [32767, 32768, 32769])
def test_chip_index_route_at_the_key_dtype_boundary(M):
    # the sort keys (row, column, sign bit) are int32 while 2 M^2 < 2^31:
    # M = 32767 has int32 keys, M = 32768 (2 M^2 = 2^31) and up int64, and
    # int32 keys would overflow from M = 32769.  L = 1 over
    # C = M / 8 chips: about 9 M pairs, down to the last row and column.
    C = M // 8
    g = rng_for(6)
    S = SequenceMatrix(C, M, g.integers(0, C, (M, 1)),
                       g.integers(0, 2, (M, 1), dtype=np.int8) * 2 - 1)
    xc = crosscorrelation(S, 1.0)
    chips, signs = S.chips[:, 0], S.signs[:, 0].astype(float)
    on_chip = np.split(np.argsort(chips, kind="stable"),
                       np.cumsum(np.bincount(chips, minlength=C))[:-1])
    rows = [on_chip[c] for c in chips]  # row k: the columns on k's chip
    assert np.array_equal(xc.indptr, np.cumsum([0] + [r.size for r in rows]))
    assert np.array_equal(xc.indices, np.concatenate(rows))
    assert np.array_equal(xc.h_data, np.concatenate(
        [signs[k] * signs[r] for k, r in enumerate(rows)]))


def test_chip_index_route_holds_no_idle_slots():
    # the arrays are sized by the pair count, then shrunk in place to the
    # entries: the CrossCorr owns exactly nnz of each, and no larger base
    S = gen_sparse_matrix(1280, 1024, 16, [rng_for(s) for s in (1, 2)])
    xc = crosscorrelation(S, 1.0)
    occ = np.bincount(S.stacked_chips(), minlength=2 * 1280)
    assert (occ * occ).sum() > 1.05 * xc.nnz  # so there were idle slots
    for a in (xc.indices, xc.h_data):
        assert a.size == xc.nnz and a.base is None


def test_sign_frequency_and_position_uniformity():
    # frozen-seed statistical check on the generator's own output
    C, M, L = 64, 10000, 4
    S = gen_sparse_matrix(C, M, L, rng_for(0))
    plus = np.count_nonzero(S.signs == 1)
    freq = plus / (M * L)
    assert abs(freq - 0.5) < 0.01

    counts = np.bincount(S.chips.ravel(), minlength=C)
    p = L / C
    mean = M * p
    sigma = math.sqrt(M * p * (1 - p))
    assert np.all(np.abs(counts - mean) <= 3 * sigma)
    # chi-square against the uniform multinomial, 99.9% quantile of chi2(63)
    chi2 = float(((counts - mean) ** 2 / mean).sum())
    assert chi2 < 103.44


@pytest.mark.parametrize("seed,C,M,L", [
    (0, 32, 8, 4),
    (1, 20, 12, 3),
    (2, 10, 5, 10),   # dense
    (3, 9, 6, 7),     # 2L > C overlap-complete path
    (4, 50, 3, 1),
])
def test_column_norms_unit(seed, C, M, L):
    S = gen_sparse_matrix(C, M, L, rng_for(seed))
    Sd = oracles.dense_columns(S)
    norms = np.linalg.norm(Sd, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("seed,C,M,L", [
    (0, 32, 8, 4),
    (1, 64, 16, 2),
    (2, 16, 16, 16),  # dense
    (3, 12, 9, 8),    # 2L > C
    (4, 40, 20, 6),
])
def test_chip_index_round_trip(seed, C, M, L):
    S = gen_sparse_matrix(C, M, L, rng_for(seed))
    indptr, cols, signs = S.chip_index
    for c in range(C):
        k, j = np.nonzero(S.chips == c)  # occupying columns, ascending
        assert np.array_equal(cols[indptr[c]:indptr[c + 1]], k)
        assert np.array_equal(signs[indptr[c]:indptr[c + 1]], S.signs[k, j])


@pytest.mark.parametrize("seed,C,M,L", [
    (0, 32, 8, 4),
    (1, 24, 10, 3),
    (2, 8, 12, 8),    # dense
    (3, 11, 7, 6),    # 2L > C
    (4, 100, 30, 5),
    (7, 160, 128, 12),  # L not a power of two
    (7, 75, 60, 24),
])
def test_crosscorrelation_matches_dense_oracle(seed, C, M, L):
    S = gen_sparse_matrix(C, M, L, rng_for(seed))
    xc = crosscorrelation(S, np.ones(M))
    R_oracle = oracles.dense_crosscorr(S)
    assert np.max(np.abs(xc.dense_h() - R_oracle)) < 1e-12
    if 2 * L <= C:  # sparse route: integer sign sums n give exactly n/L
        h = xc.dense_h()
        assert np.array_equal(h, np.rint(h * L) / L)


def test_crosscorrelation_properties():
    # sparse, dense, and 2L > C (full structure, dense product)
    for C, M, L in ((60, 24, 5), (100, 80, 100), (100, 80, 60)):
        S = gen_sparse_matrix(C, M, L, rng_for(5))
        xc = crosscorrelation(S, np.ones(M))
        R = xc.dense_h()
        assert np.array_equal(R, R.T)  # exact symmetry
        assert np.max(np.abs(np.diag(R) - 1.0)) < 1e-12
        assert np.max(np.abs(R)) <= 1.0 + 1e-12
        # structural nonzeros only where supports intersect
        for i in range(M):
            cols, _ = xc.row(i)
            for j in cols:
                assert np.intersect1d(S.chips[i], S.chips[j]).size > 0


def _routes(S):
    """(indptr, indices, r_data) of S by the gather and chip-index routes,
    and whether the work rule picks the gather route."""
    B, C = S.n_blocks, S.n_chips
    occ = np.bincount(S.stacked_chips(), minlength=B * C).reshape(B, C)
    pairs = (occ * occ).sum(axis=1)
    gather = (S.n_bits ** 2 * S.n_nonzero
              < seqgen._GATHER_PER_PAIR * pairs.mean())
    return (seqgen._gather_route(S),
            seqgen._chip_index_route(S, occ, pairs), gather)


@pytest.mark.parametrize("L", [1, 3, 4, 12, 16])
def test_gather_route_equals_chip_index_route(L):
    # a 3-matrix stack below the route boundary and a 2-matrix one above it
    picked = []
    for M, B in ((64, 3), (1024, 2)):
        S = gen_sparse_matrix(int(round(M / 0.8)), M, L,
                              [rng_for(10 * L + b) for b in range(B)])
        by_gather, by_index, gather = _routes(S)
        picked.append(gather)
        for u, v in zip(by_gather, by_index):
            assert np.array_equal(u, v)
        xc = crosscorrelation(S, np.ones(M))
        indptr, indices, r_data = by_index
        assert np.array_equal(xc.indptr, indptr)
        assert np.array_equal(xc.indices, indices)
        assert np.array_equal(xc.h_data, r_data)
        assert np.array_equal(xc.diag, xc.dense_h().reshape(B, M, M)[
            :, np.arange(M), np.arange(M)].ravel())
        for b in range(B):  # each block is its matrix alone
            alone = crosscorrelation(
                SequenceMatrix(S.n_chips, M, S.chips[b], S.signs[b]), np.ones(M))
            blk = xc.block(b)
            for f in ("indptr", "indices", "h_data", "diag"):
                assert np.array_equal(getattr(blk, f), getattr(alone, f))
    assert picked == [True, False]


def test_routes_keep_a_cancelled_entry():
    # shared support with sign products +1/2 and -1/2: value 0, entry present
    S = SequenceMatrix(4, 2, np.array([[0, 1], [0, 1]]),
                       np.array([[1, 1], [1, -1]]))
    by_gather, by_index, _ = _routes(S)
    for u, v in zip(by_gather, by_index):
        assert np.array_equal(u, v)
    indptr, indices, r_data = by_gather
    assert indices.tolist() == [0, 1, 0, 1]
    assert r_data.tolist() == [1.0, 0.0, 0.0, 1.0]


def test_identical_columns_give_unit_crosscorrelation():
    chips = np.array([[0, 3, 5], [0, 3, 5]], dtype=np.int32)
    signs = np.array([[1, -1, 1], [1, -1, 1]], dtype=np.int8)
    S = SequenceMatrix(8, 2, chips, signs)  # duplicate columns are legal
    xc = crosscorrelation(S, np.ones(2))
    assert abs(xc.dense_h()[0, 1] - 1.0) < 1e-12


def test_disjoint_supports_are_structurally_absent():
    chips = np.array([[0, 1], [2, 3]], dtype=np.int32)
    signs = np.array([[1, 1], [1, -1]], dtype=np.int8)
    S = SequenceMatrix(4, 2, chips, signs)
    xc = crosscorrelation(S, np.ones(2))
    cols, _ = xc.row(0)
    assert 1 not in cols
    assert xc.dense_h()[0, 1] == 0.0


def test_cancelled_overlap_entry_is_kept():
    # shared support with sign products +1/2 and -1/2: value 0, entry present
    chips = np.array([[0, 1], [0, 1]], dtype=np.int32)
    signs = np.array([[1, 1], [1, -1]], dtype=np.int8)
    S = SequenceMatrix(4, 2, chips, signs)
    xc = crosscorrelation(S, np.ones(2))
    cols, vals = xc.row(0)
    assert 1 in cols
    assert vals[list(cols).index(1)] == 0.0


def test_amplitude_weighting():
    rng = rng_for(9)
    S = gen_sparse_matrix(40, 10, 4, rng)
    A = rng.uniform(0.5, 2.0, 10)
    xc = crosscorrelation(S, A)
    R = oracles.dense_crosscorr(S)
    H = xc.dense_h()
    assert np.max(np.abs(H - np.diag(A) @ R @ np.diag(A))) < 1e-12
    assert np.max(np.abs(xc.diag - A ** 2)) < 1e-12


def test_crosscorrelation_input_validation():
    S = gen_sparse_matrix(16, 4, 2, rng_for(0))
    with pytest.raises(ValueError):
        crosscorrelation(S, np.ones(3))
    with pytest.raises(ValueError):
        crosscorrelation(S, np.array([1.0, -1.0, 1.0, 1.0]))


def test_structural_offdiagonal_count_matches_shared_support_model():
    # shared-support pairs are Bernoulli with the hypergeometric miss
    # probability; pairs are pairwise uncorrelated so the binomial 3-sigma
    # band applies to the total
    C, M, L = 1280, 1024, 16
    S = gen_sparse_matrix(C, M, L, rng_for(12))
    xc = crosscorrelation(S, np.ones(M))
    off_pairs = (xc.nnz - M) / 2
    p_miss = 1.0
    for i in range(L):
        p_miss *= (C - L - i) / (C - i)
    p = 1.0 - p_miss
    n_pairs = M * (M - 1) / 2
    sigma = math.sqrt(n_pairs * p * (1 - p))
    assert abs(off_pairs - n_pairs * p) <= 3 * sigma


def test_dense_mode_has_full_structure():
    S = gen_sparse_matrix(8, 5, 8, rng_for(3))
    xc = crosscorrelation(S, np.ones(5))
    assert xc.nnz == 25


def test_sequence_matrix_validation():
    good = dict(chips=np.array([[0, 1]], dtype=np.int32),
                signs=np.array([[1, -1]], dtype=np.int8))
    SequenceMatrix(4, 1, **good)
    with pytest.raises(ValueError):
        SequenceMatrix(4, 2, **good)  # M mismatch
    with pytest.raises(ValueError):
        SequenceMatrix(1, 1, **good)  # L > C
    with pytest.raises(ValueError):
        SequenceMatrix(4, 1, chips=np.array([[1, 0]], dtype=np.int32),
                       signs=np.array([[1, 1]], dtype=np.int8))  # unsorted


import concurrent.futures
import copy
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lascdma import seqgen
from lascdma.seqgen import (
    CrossCorr,
    SequenceMatrix,
    crosscorrelation,
    gen_sparse_matrix,
)

import helpers
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
    # chunk; L = 1 and L = C - 1.  A stack of five sets on 8 usable cores
    # is drawn on five threads (switching often), each set as drawn alone;
    # one usable core makes no pool.
    pools = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, n):
            pools.append(n)
            super().__init__(n)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    C, seeds = 4096, range(3, 8)
    M = int(chunks * (seqgen._UNIFORM_BUFFER // C))
    helpers.usable_cores(monkeypatch, 1)
    got = gen_sparse_matrix(C, M, L, rng_for(11))
    chips, signs = whole_array_draw(C, M, L, rng_for(11))
    assert np.array_equal(got.chips, chips) and np.array_equal(got.signs, signs)
    alone = gen_sparse_matrix(C, M, L, [rng_for(s) for s in seeds])
    assert pools == []
    helpers.usable_cores(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stack = gen_sparse_matrix(C, M, L, [rng_for(s) for s in seeds])
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
    helpers.usable_cores(monkeypatch, 4)
    C, M, L = 2048, 96, 8
    g = rng_for(5)
    stack = gen_sparse_matrix(C, M, L, [g] * 3)
    ref = rng_for(5)
    u = [ref.random((M, C)) for _ in range(3)]
    signs = [ref.integers(0, 2, size=(M, L), dtype=np.int8) * 2 - 1
             for _ in range(3)]
    for b in range(3):
        chips = np.sort(np.argpartition(u[b], L, axis=1)[:, :L], axis=1)
        assert np.array_equal(stack.chips[b], chips)
        assert np.array_equal(stack.signs[b], signs[b])
    assert pools == []


def test_threads_split_the_stack_rows_evenly(monkeypatch):
    # three sets of 91 rows on two threads split at stack row 136, inside
    # set 1: its second part draws from a copy of its Generator advanced to
    # row 45, and each set's own Generator ends where the whole-array draw
    # leaves it.  Philox advances by 4 words and a buffered 32-bit word is
    # lost on an advance, so those are drawn on one thread
    parts = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def map(self, fn, *args):
            parts.append(list(zip(*args[:2])))
            return super().map(fn, *args)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    helpers.usable_cores(monkeypatch, 2)
    C, M, L = 300, 91, 7
    buffered = rng_for(9)
    buffered.integers(0, 2 ** 32, dtype=np.uint32)
    cases = ([rng_for(s) for s in (3, 4, 5)],
             [np.random.Generator(np.random.Philox(s)) for s in (3, 4, 5)],
             [rng_for(3), rng_for(4), buffered])
    for gens, split in zip(cases, ([(0, 136), (136, 273)], None, None)):
        refs = [copy.deepcopy(g) for g in gens]
        parts.clear()
        stack = gen_sparse_matrix(C, M, L, gens)
        assert parts == ([split] if split else [])
        for b, (g, ref) in enumerate(zip(gens, refs)):
            chips, signs = whole_array_draw(C, M, L, ref)
            assert np.array_equal(stack.chips[b], chips)
            assert np.array_equal(stack.signs[b], signs)
            assert np.array_equal(*(h.integers(0, 2 ** 32, 5, dtype=np.uint32)
                                    for h in (g, ref)))


def _selection(u, L):
    """The chip sampler's selection of each row of u, and the reference:
    the sorted columns that np.argpartition(u, L, 1)[:, :L] takes."""
    out = np.empty((len(u), L), dtype=np.int32)
    seqgen._smallest(u, L, out)
    return np.sort(out, 1), np.sort(np.argpartition(u, L, 1)[:, :L], 1)


def _crafted_rows(C, L, rng):
    """Rows above the selection threshold t but for a few entries below it,
    all multiples of 2^-10 (so that 2^53 u is an exact key): the L-th and
    (L+1)-th smallest tied, by two and by many; ties inside the L smallest
    only; exactly L, fewer than L and no entries below t; a plain row."""
    t = (L + 1 + seqgen._SELECT_Z * math.sqrt(L + 1)) / C
    grid = np.arange(1, int(t * 1024)) / 1024  # below t
    assert grid.size > L + 2
    low = grid[:L + 2]
    cases = [np.r_[low[:L], low[L - 1], low[L + 1:]],  # L-th == (L+1)-th
             np.full(L + 5, low[1]),  # L + 5 equal entries
             np.r_[low[0], low[:L - 1], low[L:]],  # a tie among the first L
             low[:L], low[:L // 2], low[:0], grid[:C // 2]]
    rows = []
    for small in cases * 4:  # each at several sets of positions
        row = 0.5 + rng.integers(0, 512, C) / 1024
        row[rng.choice(C, small.size, replace=False)] = small
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("C, L", [(128, 4), (200, 16), (64, 1), (400, 3)])
def test_threshold_selection_equals_the_partition(C, L):
    # on the crafted rows, as one buffer and as one-row buffers, with t
    # below the selection's share so that its sort, not the partition,
    # decides every row it does not send back
    assert (L + 1 + seqgen._SELECT_Z * math.sqrt(L + 1)) / C <= seqgen._SELECT_SHARE
    u = _crafted_rows(C, L, rng_for(C + L))
    got, want = _selection(u, L)
    assert np.array_equal(got, want)
    for row in u:
        got, want = _selection(row[None], L)
        assert np.array_equal(got, want)


def test_selection_at_l_equal_c_minus_1_and_inexact_keys():
    # L = C - 1 (t above the share: the buffer is partitioned whole), and
    # uniforms that are not multiples of 2^-53, whose keys would not be exact
    g = rng_for(8)
    for u, L in ((g.integers(0, 4, (50, 9)) / 4, 8),
                 (g.random((40, 300)) / 3, 4)):
        got, want = _selection(u, L)
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(R=st.integers(1, 6), C=st.integers(2, 400), L=st.integers(1, 24),
       levels=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_selection_on_rows_with_many_ties(R, C, L, levels, seed):
    # rows drawn from a few values spread over twice the threshold, so that
    # ties at the L-th smallest and rows short of L + 1 entries below the
    # threshold are common; both sides of the selection's share
    L = min(L, C - 1)
    t = (L + 1 + seqgen._SELECT_Z * math.sqrt(L + 1)) / C
    values = np.floor(np.linspace(0, min(2 * t, 1), levels, endpoint=False)
                      * 2 ** 20) / 2 ** 20
    u = values[np.random.default_rng(seed).integers(0, levels, (R, C))]
    got, want = _selection(u, L)
    assert np.array_equal(got, want)


def test_per_transmission_stack_buffers_span_sets():
    # 49 Philox matrices at M = 64, C = 200, L = 4: a buffer of 327 rows
    # holds parts of six sets, each filled from its own Generator; every
    # set is its whole-array draw
    C, M, L = 200, 64, 4
    assert seqgen._UNIFORM_BUFFER // C % M
    gens = [np.random.Generator(np.random.Philox(counter=[0, 0, 0, t], key=9))
            for t in range(49)]
    refs = [copy.deepcopy(g) for g in gens]
    stack = gen_sparse_matrix(C, M, L, gens)
    for b, ref in enumerate(refs):
        chips, signs = whole_array_draw(C, M, L, ref)
        assert np.array_equal(stack.chips[b], chips)
        assert np.array_equal(stack.signs[b], signs)


def _five_sets(L, seed, C=1280, M=1024):
    return gen_sparse_matrix(C, M, L, [rng_for(5 * seed + s) for s in range(5)])


@pytest.mark.parametrize("L, tol", [(4, 0.02), (16, 0.005)])
def test_mean_h_entries_per_row_anchor(L, tol):
    # a row's structural entries: itself and every column sharing a chip,
    # 1 + (M - 1)(1 - C(C - L, L) / C(C, L)) in expectation.  Over seeds
    # 0-9 of five sets at M = 1024 the ratio less 1 had a standard
    # deviation of 0.0046 (L = 4) and 0.0011 (L = 16); tolerance about 4 sd
    C, M = 1280, 1024
    xc = crosscorrelation(_five_sets(L, 0), 1.0)
    expected = 1 + (M - 1) * (1 - math.comb(C - L, L) / math.comb(C, L))
    assert abs(xc.nnz / (5 * M) / expected - 1) < tol


@pytest.mark.parametrize("L, tol", [(4, 0.02), (16, 0.008), ("dense", 0.005)])
def test_mean_offdiagonal_h_energy_anchor(L, tol):
    # R_kj (k != j) is 1/L times a sum of +/-1 over the chips the pair
    # shares, on average L^2 / C of them, so E R_kj^2 = 1/C at any L and
    # a row's sum_{j != k} H_kj^2 is (M - 1) / C in expectation (A = 1).
    # Over seeds 0-9 of five sets at M = 1024 the ratio less 1 had a
    # standard deviation of 0.0050 (L = 4), 0.0020 (L = 16) and 0.0012
    # (dense); tolerance about 4 sd
    C, M = 1280, 1024
    xc = crosscorrelation(_five_sets(C if L == "dense" else L, 0), 1.0)
    h = helpers.csr(xc)[2]
    off = (h @ h - xc.diag @ xc.diag) / (5 * M)
    assert abs(off / ((M - 1) / C) - 1) < tol


def test_chip_occupancy_variance_anchor():
    # a chip's occupancy is Binomial(M, L / C): the variance over the chips
    # about the exact mean M L / C, pooled over five sets, against
    # M (L / C)(1 - L / C) = 12.64 at M = 1024, L = 16.  Over seeds 0-9 the
    # ratio less 1 read -0.017 to +0.031, standard deviation 0.018
    C, M, L = 1280, 1024, 16
    S = _five_sets(L, 0)
    occ = np.bincount(S.stacked_chips, minlength=5 * C)
    expected = M * (L / C) * (1 - L / C)
    assert abs(occ.var() / expected - 1) < 0.075


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
    assert np.array_equal(helpers.csr(xc)[1][xc.indptr[alone]], alone)
    for k in np.flatnonzero(occ > 1):
        cols = np.flatnonzero(chips == chips[k])
        idx, val = xc.row(k)
        assert np.array_equal(idx, cols)
        assert np.array_equal(val, signs[k] * signs[cols])


@pytest.mark.parametrize("M", [32767, 32768, 32769])
def test_chip_index_route_at_the_key_dtype_boundary(M, monkeypatch):
    # the sort keys (row, column, sign bit) of a chunk of R rows are int32
    # while 2 R M < 2^31; with the whole block in one chunk, M = 32767 has
    # int32 keys, M = 32768 (2 M^2 = 2^31) and up int64, and int32 keys
    # would overflow from M = 32769.  L = 1 over C = M / 8 chips: about
    # 9 M pairs, down to the last row and column.
    monkeypatch.setattr(seqgen, "_PAIR_BUFFER", 1 << 20)
    C = M // 8
    g = rng_for(6)
    S = SequenceMatrix(C, M, g.integers(0, C, (M, 1)),
                       g.integers(0, 2, (M, 1), dtype=np.int8) * 2 - 1)
    xc = crosscorrelation(S, 1.0)
    chips, signs = S.chips[:, 0], S.signs[:, 0].astype(float)
    on_chip = np.split(np.argsort(chips, kind="stable"),
                       np.cumsum(np.bincount(chips, minlength=C))[:-1])
    rows = [on_chip[c] for c in chips]  # row k: the columns on k's chip
    indptr, indices, values = helpers.csr(xc)
    assert np.array_equal(indptr, np.cumsum([0] + [r.size for r in rows]))
    assert np.array_equal(indices, np.concatenate(rows))
    assert np.array_equal(values, np.concatenate(
        [signs[k] * signs[r] for k, r in enumerate(rows)]))


def test_chip_index_route_holds_no_idle_slots():
    # the tables are sized by the widest row's pair count, then narrowed in
    # place to the widest row: W is the largest entry count, and each table
    # is a view of one buffer of exactly rows * W slots
    S = gen_sparse_matrix(1280, 1024, 16, [rng_for(s) for s in (1, 2)])
    xc = crosscorrelation(S, 1.0)
    occ = np.bincount(S.stacked_chips, minlength=2 * 1280)
    pairs = occ[S.stacked_chips].reshape(-1, 16).sum(1)
    W = xc.cols.shape[1]
    assert pairs.max() - 15 > W  # so the tables were narrowed
    assert W == np.diff(xc.indptr).max()
    for a in (xc.cols, xc.vals):
        assert a.shape == (2048, W) and a.base.size == 2048 * W


def test_sparse_h_holds_int8_sign_sums_over_l():
    # a sparse A = 1 H keeps its sign sums n in int8 over den = L, by both
    # routes (gather at M = 64, L = 3): 3 bytes a table slot with its int16
    # column, where doubles took 12 an entry.  The dense route and A != 1
    # keep doubles over den = 1
    for M, L in ((64, 1), (64, 3), (1024, 16)):
        S = gen_sparse_matrix(int(M / 0.8), M, L, [rng_for(1), rng_for(2)])
        assert _routes(S)[2] == (L == 3)
        xc = crosscorrelation(S, 1.0)
        assert xc.vals.dtype == np.int8 and xc.den == L
        assert xc.cols.nbytes + xc.vals.nbytes == 3 * xc.cols.size
        weighted = crosscorrelation(S, rng_for(M).uniform(0.5, 2.0, M))
        assert weighted.vals.dtype == np.float64 and weighted.den == 1
    for L in (50, 80):  # 2L > C, and dense
        xc = crosscorrelation(gen_sparse_matrix(80, 64, L, rng_for(L)), 1.0)
        assert xc.vals.dtype == np.float64 and xc.den == 1
    # sums over 2^7 chips or more take int16
    xc = crosscorrelation(gen_sparse_matrix(256, 8, 128, rng_for(4)), 1.0)
    assert xc.vals.dtype == np.int16 and xc.den == 128


def test_a_dense_h_holds_no_column_bytes():
    # the dense route's rows hold columns 0..M-1: its column table is one
    # broadcast view of M int16 columns, with or without amplitudes
    for L in (50, 80):  # 2L > C, and dense
        S = gen_sparse_matrix(80, 64, L, [rng_for(L + b) for b in range(3)])
        for A in (1.0, rng_for(L).uniform(0.5, 2.0, 64)):
            xc = crosscorrelation(S, A)
            assert xc.full_blocks.all() and xc.cols.shape == (3 * 64, 64)
            lo, hi = np.lib.array_utils.byte_bounds(xc.cols)
            assert xc.cols.dtype == np.int16 and hi - lo == 64 * 2


def test_row_indices_are_checked():
    # as block indices are: a negative, float or past-the-end row is refused
    xc = crosscorrelation(gen_sparse_matrix(20, 16, 3, rng_for(0)), 1.0)
    assert xc.row(15)[0].size and xc.row(np.int64(0))[0].size
    for k in (-1, 16, 1.0, True):
        with pytest.raises(ValueError, match=r"row must .* in \[0, 16\)"):
            xc.row(k)


@pytest.mark.parametrize("buffer", [1, 1000, 1 << 20])
def test_chip_index_route_in_pair_chunks(buffer, monkeypatch):
    # chunks of one row, chunks that end inside a block (about 40 rows of
    # 25 pairs), and one chunk for the whole stack: the same entries as the
    # gather route, and each block the dense oracle's n/L
    monkeypatch.setattr(seqgen, "_PAIR_BUFFER", buffer)
    C, M, L = 120, 96, 5
    S = gen_sparse_matrix(C, M, L, [rng_for(20 + b) for b in range(3)])
    by_gather, by_index, _ = _routes(S)
    for u, v in zip(by_gather, by_index):
        assert np.array_equal(u, v)
    xc = crosscorrelation(S, 1.0)
    for b in range(3):
        R = oracles.dense_crosscorr(SequenceMatrix(C, M, S.chips[b], S.signs[b]))
        assert np.array_equal(xc.block(b).dense_h(), np.rint(R * L) / L)


def _transients(M, P=8):
    """tracemalloc peaks, less what stays held, of the chip-index route and
    of a sparse h_matvec(block=) for one set at M, C = 1.25 M, L = 16, and
    P problems: of float vectors (the row route) and of +/-1 vectors (the
    chip route).  Chips are drawn one per stripe of C / L chips, which is
    quick and keeps each chip's occupancy near the uniform draw's."""
    C, L = M * 5 // 4, 16
    g = rng_for(M)
    chips = np.arange(L) * (C // L) + g.integers(0, C // L, (M, L))
    S = SequenceMatrix(C, M, chips, g.integers(0, 2, (M, L)) * 2 - 1)
    S.chip_index
    X = g.standard_normal((P, M))
    tracemalloc.start()
    try:
        xc = crosscorrelation(S, 1.0)
        held, peak = tracemalloc.get_traced_memory()
        peaks = [peak - held]
        for x in (X, np.sign(X)):
            tracemalloc.reset_peak()
            out = xc.h_matvec(x, np.zeros(P, dtype=int))
            held, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - held)
            del out
    finally:
        tracemalloc.stop()
    return peaks


def test_setup_transients_do_not_follow_the_pairs():
    # M = 4096 and 16384 hold 9 and 38 MiB of H.  Listing a whole block's
    # pairs at once took 25 and 100 MiB above H, and a sparse h_matvec that
    # copied the indices to intp beside a product per entry took 19 and
    # 78 MiB.  In row chunks they took 3.2 and 7.1 MiB (of which 0.9 and
    # 3.0 MiB are the output's slots for pairs that share a (row, column),
    # shrunk away at the end) and 2.4 and 3.3 MiB.  The chip route of +/-1
    # vectors, in chunks of problems, took 2.3 and 4.6 MiB
    for M in (4096, 16384):
        route, *matvec = _transients(M)
        assert route < 16 * 2 ** 20 and max(matvec) < 6 * 2 ** 20, (
            M, route, matvec)


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


@pytest.mark.parametrize("C, M, L, B", [
    (40, 32, 4, 1),
    (40, 32, 4, 5),
    (12, 1, 3, 5),   # M = 1
    (16, 24, 1, 5),  # L = 1
    (5, 64, 4, 5),   # C = L + 1: each chip holds about 51 of 64 columns
])
def test_chip_index_is_the_stable_chip_order(C, M, L, B):
    # the index lists each chip's occupants in stack order, exactly as a
    # stable argsort of the stacked chips does
    S = gen_sparse_matrix(C, M, L, [rng_for(30 + b) for b in range(B)])
    if B == 1:
        S = SequenceMatrix(C, M, S.chips[0], S.signs[0])
    flat = S.stacked_chips
    order = np.argsort(flat, kind="stable")
    indptr, cols, signs = S.chip_index
    assert np.array_equal(indptr, np.concatenate(
        ([0], np.cumsum(np.bincount(flat, minlength=B * C)))))
    assert cols.dtype == np.int32 and np.array_equal(cols, order // L)
    assert np.array_equal(signs, S.signs.ravel()[order])


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
    """(indptr, cols, vals) of S by the gather and chip-index routes,
    and whether the work rule picks the gather route."""
    B, C = S.n_blocks, S.n_chips
    occ = np.bincount(S.stacked_chips, minlength=B * C).reshape(B, C)
    pairs = (occ * occ).sum(axis=1)
    gather = (S.n_bits ** 2 * S.n_nonzero
              < seqgen._GATHER_PER_PAIR * pairs.mean())
    return (seqgen._gather_route(S),
            seqgen._chip_index_route(S, occ), gather)


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
        for u, v in zip((xc.indptr, xc.cols, xc.vals), by_index):
            assert np.array_equal(u, v) and u.dtype == v.dtype
        assert np.array_equal(xc.diag, xc.dense_h().reshape(B, M, M)[
            :, np.arange(M), np.arange(M)].ravel())
        for b in range(B):  # each block is its matrix alone
            alone = crosscorrelation(
                SequenceMatrix(S.n_chips, M, S.chips[b], S.signs[b]), np.ones(M))
            blk = xc.block(b)
            for u, v in zip((*helpers.csr(blk), blk.diag),
                            (*helpers.csr(alone), alone.diag)):
                assert np.array_equal(u, v)
    assert picked == [True, False]


def test_routes_keep_a_cancelled_entry():
    # shared support with sign products +1/2 and -1/2: value 0, entry present
    S = SequenceMatrix(4, 2, np.array([[0, 1], [0, 1]]),
                       np.array([[1, 1], [1, -1]]))
    by_gather, by_index, _ = _routes(S)
    for u, v in zip(by_gather, by_index):
        assert np.array_equal(u, v)
    indptr, cols, vals = by_gather
    assert cols.tolist() == [[0, 1], [0, 1]]
    assert vals.tolist() == [[2, 0], [0, 2]]  # sign sums over L = 2
    xc = crosscorrelation(S, 1.0)
    assert helpers.csr(xc)[2].tolist() == [1.0, 0.0, 0.0, 1.0]


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
    # H = A R A would hold inf or NaN
    for a in (np.inf, 1e200, np.nan):
        with pytest.raises(ValueError, match="finite squares"):
            crosscorrelation(S, np.array([1.0, a, 1.0, 1.0]))
    # squares below the smallest normal double: H went subnormal (1e-160)
    # or all zero (1e-170) at M = 64, L = 4
    S = gen_sparse_matrix(80, 64, 4, rng_for(0))
    for a in (1e-170, 1e-160):
        with pytest.raises(ValueError, match="do not underflow"):
            crosscorrelation(S, np.full(64, a))
    diag = crosscorrelation(S, np.full(64, 1e-150)).diag
    assert np.allclose(diag, 1e-300, rtol=1e-12, atol=0)


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


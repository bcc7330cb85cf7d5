import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lascdma import detect, seqgen
from lascdma.channel import ChannelParams, matched_filter, snr_to_sigma, transmit
from lascdma.detect import (
    Schedule,
    gml_exhaustive,
    initial_gradient,
    las_lockstep,
    las_run,
    likelihood,
    mf_detect,
    slas_detect,
    wslas_detect,
)
from lascdma.seqgen import (CrossCorr, SequenceMatrix, crosscorrelation,
                            gen_sparse_matrix)

import helpers
import oracles


def xcorr_from_dense(Hd):
    """CrossCorr with full structure from an explicit symmetric matrix."""
    Hd = np.asarray(Hd, dtype=float)
    M = Hd.shape[0]
    indptr = np.arange(M + 1, dtype=np.int64) * M
    cols = np.broadcast_to(np.arange(M, dtype=np.int16), (M, M))
    return CrossCorr(n_bits=M, indptr=indptr, cols=cols, vals=Hd,
                     diag=Hd.diagonal().copy())


# ---------------------------------------------------------------------------
# likelihood metric


def test_likelihood_single_user_values():
    xc = xcorr_from_dense([[1.0]])
    y = np.array([2.0])
    A = np.ones(1)
    assert likelihood(np.array([1]), y, xc, A) == pytest.approx(1.5, abs=1e-15)
    assert likelihood(np.array([-1]), y, xc, A) == pytest.approx(-2.5, abs=1e-15)


def test_likelihood_zero_observation_orthogonal():
    A = np.array([1.0, 2.0, 0.5])
    xc = xcorr_from_dense(np.diag(A ** 2))
    y = np.zeros(3)
    expect = -0.5 * float((A ** 2).sum())
    for bits in oracles.all_bit_vectors(3):
        assert likelihood(bits, y, xc, A) == pytest.approx(expect, abs=1e-15)


def test_likelihood_argmax_equals_chip_domain_minimizer():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        S, xc, A, b, _ = helpers.make_instance(rng, 8, 0.5, 4, 8.0)
        r = transmit(S, ChannelParams(A, snr_to_sigma(8.0)), b, rng)
        y = matched_filter(S, r)
        Hd = xc.dense_h()
        best = None
        best_om = -np.inf
        for bits in oracles.all_bit_vectors(8):
            om = likelihood(bits, y, xc, A)
            if om > best_om:
                best, best_om = bits, om
        chip_best, _ = oracles.exhaustive_min_chip_distance(
            r, oracles.dense_columns(S), A
        )
        assert np.array_equal(best, chip_best)


# ---------------------------------------------------------------------------
# gradient


def test_initial_gradient_orthogonal_closed_form():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.5, 2.0, 6)
    xc = xcorr_from_dense(np.diag(A ** 2))
    y = rng.normal(size=6)
    b0 = mf_detect(y)
    g = initial_gradient(b0, y, xc, A)
    assert np.max(np.abs(g - (A * y - A ** 2 * b0))) < 1e-12
    # MF start never violates the flip condition when R = I
    assert np.all(b0 * g >= -(A ** 2))


def test_initial_gradient_matches_dense_oracle():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 8, 0.5, 3, 6.0)
        b0 = mf_detect(y)
        ref = A * y - xc.dense_h() @ b0.astype(float)
        assert np.max(np.abs(initial_gradient(b0, y, xc, A) - ref)) < 1e-12


# ---------------------------------------------------------------------------
# MF detector


def test_mf_detect_signs_and_tie():
    assert np.array_equal(mf_detect(np.array([0.3, -2.0])), [1, -1])
    assert np.array_equal(mf_detect(np.array([0.0])), [1])


def test_mf_detect_high_snr_single_user():
    rng = np.random.default_rng(3)
    S = gen_sparse_matrix(8, 1, 2, rng)
    params = ChannelParams(np.ones(1), snr_to_sigma(40.0))
    for _ in range(500):
        b = (rng.integers(0, 2, 1, dtype=np.int8) * 2 - 1).astype(np.int8)
        y = matched_filter(S, transmit(S, params, b, rng))
        assert np.array_equal(mf_detect(y), b)


# ---------------------------------------------------------------------------
# LAS runs


def test_orthogonal_mf_start_is_fixed_point():
    rng = np.random.default_rng(4)
    M, L = 12, 3
    S = helpers.orthogonal_matrix(M, L, rng)
    A = np.ones(M)
    xc = crosscorrelation(S, A)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    y = matched_filter(S, transmit(S, ChannelParams(A, 0.7), b, rng))
    run = slas_detect(y, xc, A, mf_detect(y))
    assert run.converged
    assert run.flips == 0
    assert run.additions == 0
    assert run.steps == M  # exactly one verification cycle
    assert run.passes == 1


def test_two_user_hand_trace():
    # worked example: H = [[1, .5], [.5, 1]], y = (0.2, -1.5), start (+1, +1).
    # g0 = Ay - H b0 = (-1.3, -3.0); with t = diag(H) = 1 the run flips bits
    # 0, 1, 0 and settles at (+1, -1), the exhaustive optimum.
    xc = xcorr_from_dense([[1.0, 0.5], [0.5, 1.0]])
    y = np.array([0.2, -1.5])
    A = np.ones(2)
    b0 = np.array([1, 1], dtype=np.int8)
    g0 = initial_gradient(b0, y, xc, A)
    assert np.max(np.abs(g0 - np.array([-1.3, -3.0]))) < 1e-12

    run = slas_detect(y, xc, A, b0, record_flips=True, check_gradient=True)
    assert run.converged
    assert np.array_equal(run.bits, [1, -1])
    assert run.flip_log == [(1, (0,)), (2, (1,)), (3, (0,))]
    assert run.flips == 3
    assert run.additions == 6  # each flip touches a full column of 2
    assert run.steps == 5      # three flip steps + 2-step verification cycle
    trace = oracles.replay_omega(b0, run.flip_log, y, xc.dense_h(), A)
    assert trace == pytest.approx([-2.8, -2.2, -0.2, 1.2], abs=1e-12)
    # strict ascent and exhaustive confirmation over all 4 vectors
    assert all(b > a for a, b in zip(trace, trace[1:]))
    omegas = {tuple(bb.astype(int)): likelihood(bb, y, xc, A)
              for bb in oracles.all_bit_vectors(2)}
    assert max(omegas, key=omegas.get) == (1, -1)


@pytest.mark.parametrize("c", [0.5, 4.0])
def test_equal_power_scale_invariance(c):
    # amplitudes and noise scaled by c scale y by c, and H, the gradient and
    # every threshold by c^2 (exactly, for a power of two): no decision or
    # count changes, so an equal-power system depends on the SNR alone
    for seed in range(6):
        for L in (4, 80):
            out = []
            for a in (1.0, c):
                rng = np.random.default_rng(seed)
                S = gen_sparse_matrix(80, 64, L, rng)
                A = np.full(64, a)
                xc = crosscorrelation(S, A)
                b = (rng.integers(0, 2, 64, dtype=np.int8) * 2 - 1).astype(np.int8)
                params = ChannelParams(A, a * snr_to_sigma(4.0))
                y = matched_filter(S, transmit(S, params, b, rng))
                b0 = mf_detect(y)
                out.append((b0, slas_detect(y, xc, A, b0),
                            wslas_detect(y, xc, A, b0, n_prime=3)))
            (mf_1, *las_1), (mf_c, *las_c) = out
            assert np.array_equal(mf_1, mf_c)
            for r1, rc in zip(las_1, las_c):
                assert r1.flips > 0
                assert np.array_equal(r1.bits, rc.bits)
                assert ((r1.additions, r1.passes, r1.steps)
                        == (rc.additions, rc.passes, rc.steps))


def test_converged_sequential_runs_are_local_maxima():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 10, 0.8, 3, 7.0)
        run = slas_detect(y, xc, A, mf_detect(y))
        assert run.converged
        om = likelihood(run.bits, y, xc, A)
        for k in range(10):
            nb = run.bits.copy()
            nb[k] = -nb[k]
            assert likelihood(nb, y, xc, A) <= om + 1e-12 * (1 + abs(om))


@pytest.mark.parametrize("schedule", [
    Schedule.sequential(),
    Schedule.parallel(),
    Schedule.hybrid(4),
])
def test_monotone_ascent_and_termination(schedule):
    for seed in range(15):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 16, 0.8, 4, 6.0)
        b0 = mf_detect(y)
        run = las_run(y, xc, A, schedule, b0,
                      record_flips=True, check_gradient=True)
        assert run.converged
        assert run.flips <= 2 ** 16
        trace = oracles.replay_omega(b0, run.flip_log, y, xc.dense_h(), A)
        # Omega strictly increases at every flip event
        assert all(b > a for a, b in zip(trace, trace[1:]))
        # and the final vector is a 1-local maximum
        om = likelihood(run.bits, y, xc, A)
        for k in range(16):
            nb = run.bits.copy()
            nb[k] = -nb[k]
            assert likelihood(nb, y, xc, A) <= om + 1e-12 * (1 + abs(om))


def test_additions_accounting_matches_flip_log():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 24, 0.8, 4, 5.0)
        nnz_col = np.diff(xc.indptr)
        # hybrid(0) is sequential and builds no |H| row sums
        for schedule, passes_of_nnz in (
                (Schedule.sequential(), 1), (Schedule.hybrid(0), 1),
                (Schedule.hybrid(3), 2), (Schedule.parallel(), 2)):
            run = las_run(y, xc, A, schedule, mf_detect(y), record_flips=True)
            assert run.converged
            recount = sum(int(nnz_col[k]) for _, fl in run.flip_log for k in fl)
            assert run.additions == recount
            assert run.overhead_additions == passes_of_nnz * xc.nnz


def test_gradient_consistency_incremental_vs_recompute():
    # check_gradient recomputes after every flip event at 1e-9
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        _, xc, A, _, y = helpers.make_instance(rng, 64, 0.8, 8, 8.0)
        for schedule in (Schedule.sequential(), Schedule.parallel(),
                         Schedule.hybrid(5)):
            run = las_run(y, xc, A, schedule, mf_detect(y), check_gradient=True)
            assert run.converged


def test_dense_sparse_agreement_bit_for_bit():
    # with L == C the run on the sparse structure must match a naive dense
    # reference decision-for-decision
    for seed in range(10):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(8, 49))
        C = M + int(rng.integers(0, M))
        S = gen_sparse_matrix(C, M, C, rng)
        A = np.ones(M)
        xc = crosscorrelation(S, A)
        b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
        y = matched_filter(S, transmit(S, ChannelParams(A, 0.5), b, rng))
        b0 = mf_detect(y)
        run = slas_detect(y, xc, A, b0)
        ref = oracles.naive_sequential_las(y, xc.dense_h(), A, b0)
        assert run.converged and ref.converged
        assert np.array_equal(run.bits, ref.bits)


def test_restart_from_fixed_point_changes_nothing():
    # converged output is a true fixed point: a fresh run started there
    # performs exactly one clean verification cycle
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 16, 0.8, 4, 6.0)
        run = slas_detect(y, xc, A, mf_detect(y))
        assert run.converged
        again = slas_detect(y, xc, A, run.bits)
        assert again.converged
        assert again.flips == 0
        assert again.steps == 16
        assert np.array_equal(again.bits, run.bits)


@settings(max_examples=100, deadline=None)
@given(M=st.integers(1, 64), L=st.one_of(st.integers(1, 16), st.none()),
       load=st.floats(0.25, 2.0), snr_db=st.one_of(st.floats(0.0, 30.0),
                                                   st.just(np.inf)),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_first_all_bit_step_from_the_mf_start_flips_nothing(M, L, load, snr_db,
                                                            seed, data):
    # b_k g_k = A_k |y_k| - sum_j H_kj b_k b_j >= -sum_j |H_kj| at b = sign(y),
    # and an all-bit step flips only below that.  L None is dense spreading
    C = max(L or 1, round(M / load))
    A = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=M,
                                    max_size=M)))
    rng = np.random.default_rng(seed)
    S = gen_sparse_matrix(C, M, L or C, rng)
    xc = crosscorrelation(S, A)
    b = rng.integers(0, 2, M, dtype=np.int8) * 2 - 1
    y = matched_filter(S, transmit(S, ChannelParams(A, snr_to_sigma(snr_db)),
                                   b, rng))
    b0 = mf_detect(y)
    g = initial_gradient(b0, y, xc, A)
    assert not np.any(b0 * g < -xc.abs_row_sums)
    assert las_run(y, xc, A, Schedule.parallel(), b0, max_passes=1).flips == 0


def test_wslas_zero_parallel_steps_equals_slas():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 20, 0.8, 4, 7.0)
        b0 = mf_detect(y)
        a = slas_detect(y, xc, A, b0)
        b_run = wslas_detect(y, xc, A, b0, n_prime=0)
        assert np.array_equal(a.bits, b_run.bits)
        assert (a.steps, a.flips, a.additions) == (
            b_run.steps, b_run.flips, b_run.additions)


def test_wslas_orthogonal_fixed_point_any_nprime():
    rng = np.random.default_rng(5)
    M, L = 8, 2
    S = helpers.orthogonal_matrix(M, L, rng)
    A = np.ones(M)
    xc = crosscorrelation(S, A)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    y = matched_filter(S, transmit(S, ChannelParams(A, 0.9), b, rng))
    for n_prime in (0, 1, 10):
        run = wslas_detect(y, xc, A, mf_detect(y), n_prime=n_prime)
        assert run.converged
        assert run.flips == 0


def test_parallel_step_uses_preflip_values():
    # force simultaneous flips and confirm the incremental gradient agrees
    # with recomputation (the update must use pre-flip bit values)
    xc = xcorr_from_dense([[1.0, 0.1], [0.1, 1.0]])
    y = np.array([-3.0, -3.0])
    A = np.ones(2)
    run = las_run(y, xc, A, Schedule.parallel(), np.array([1, 1], dtype=np.int8),
                  check_gradient=True, record_flips=True)
    assert run.converged
    assert run.flip_log[0] == (1, (0, 1))
    assert np.array_equal(run.bits, [-1, -1])


def test_max_passes_exhaustion_reports_unconverged():
    rng = np.random.default_rng(6)
    _, xc, A, _, y = helpers.make_instance(rng, 32, 0.8, 4, 2.0)
    # a single cycle cannot both flip and verify on a non-fixed-point start
    run = slas_detect(y, xc, A, -mf_detect(y), max_passes=1)
    assert not run.converged
    assert run.steps == 32


def _stacked_h(seed, C, M, L, A, full=()):
    """B = 3 matrices drawn as one stack, as the harness draws its fixed
    sets, and their H from one crosscorrelation call.  Every column of a
    block in `full` is moved onto chip 0 (its first chip), so all pairs of
    that block overlap and its H is full.  Returns (S, xc)."""
    S = gen_sparse_matrix(C, M, L, [np.random.default_rng([seed, b])
                                    for b in range(3)])
    chips = S.chips.copy()
    chips[list(full), :, 0] = 0
    S = SequenceMatrix(C, M, chips, S.signs)
    return S, crosscorrelation(S, A)


def _lockstep_batch(seed, M=100, L=4):
    """Problems on the three blocks of one stack (two sparse, one full),
    two observations each of the first two (rows sharing an H, as with
    fixed sets); rows mix SLAS and WSLAS, MF and inverted-MF starts, and
    budgets of 100 and 1 pass.  Returns (ys, xc, A, b0, n_prime, max_passes,
    problem, block, col_nnz), col_nnz per block."""
    rng = np.random.default_rng(seed)
    C = int(round(M / 0.8))
    A = np.ones(M)
    S, xc = _stacked_h(seed, C, M, L, A, full=[2])
    assert list(np.diff(xc.indptr[::M]) == M * M) == [L == C, L == C, True]
    block = np.array([0, 0, 1, 1, 2])
    So = SequenceMatrix(C, M, S.chips[block], S.signs[block])  # per problem
    b = rng.integers(0, 2, (5, M), dtype=np.int8) * 2 - 1
    rngs = [np.random.default_rng([seed, 9, p]) for p in range(5)]
    ys = matched_filter(So, transmit(So, ChannelParams(A, 0.6), b, rngs))
    b0 = mf_detect(ys) * np.array([1, -1, 1, -1, 1], dtype=np.int8)[:, None]
    problem = np.repeat(np.arange(5), 3)
    n_prime = np.tile([0, 10, 3], 5)
    max_passes = np.where(np.arange(problem.size) % 4 == 3, 1, 100)
    nnz = [oracles.column_overlap_counts(
        SequenceMatrix(C, M, S.chips[k], S.signs[k])) for k in range(3)]
    return ys, xc, A, b0, n_prime, max_passes, problem, block, nnz


def _row(runs, r):
    return (runs.bits[r].tolist(), bool(runs.converged[r]), int(runs.steps[r]),
            int(runs.flips[r]), int(runs.additions[r]), int(runs.passes[r]))


def _one_row(run):
    return (run.bits.tolist(), run.converged, run.steps, run.flips,
            run.additions, run.passes)


@pytest.mark.parametrize("seed", [0, 1])
def test_lockstep_rows_equal_the_naive_reference(seed):
    for L in (4, 125):  # sparse blocks and a full one; dense (C = 125)
        (ys, xc, A, b0, n_prime, max_passes, problem, block,
         nnz) = _lockstep_batch(seed, L=L)
        runs = las_lockstep(ys, xc, A, b0, n_prime, max_passes,
                            problem=problem, block=block)
        assert not runs.converged.all()  # the one-pass rows are cut off
        assert (runs.flips[n_prime == 10] > 0).any()
        for r, p in enumerate(problem):
            ref = oracles.naive_sequential_las(
                ys[p], xc.block(block[p]).dense_h(), A, b0[p],
                max_passes=int(max_passes[r]), n_prime=int(n_prime[r]),
                col_nnz=nnz[block[p]])
            assert _row(runs, r) == _one_row(ref), (L, r)


@pytest.mark.parametrize("M", [1, 63, 64, 65, 200])
def test_window_scan_edges_equal_the_naive_reference(M):
    # fewer bits than one window (M = 1, 63), exactly one (64), one and a
    # bit (65), and rows that wrap across several windows (200); each
    # (start, budget) row is a problem of its own, so runs its own scan
    rng = np.random.default_rng(M)
    S, xc, A, _, y = helpers.make_instance(rng, M, 0.8, min(4, M), 4.0)
    budgets = [1, 2, 100]
    b0 = np.array([s * mf_detect(y) for s in (1, -1) for _ in budgets])
    max_passes = np.tile(budgets, 2)
    P = len(b0)
    runs = las_lockstep(np.tile(y, (P, 1)), xc, A, b0, 0, max_passes,
                        block=np.zeros(P, dtype=int))
    Hd, nnz = xc.dense_h(), oracles.column_overlap_counts(S)
    for r in range(P):
        ref = oracles.naive_sequential_las(y, Hd, A, b0[r],
                                           max_passes=int(max_passes[r]),
                                           col_nnz=nnz)
        assert _row(runs, r) == _one_row(ref), r
    assert not runs.converged[3] and runs.flips[3] > 0
    if M == 200:
        # the one-pass inverted row's budget ends inside the window that
        # follows its last flip
        one = slas_detect(y, xc, A, b0[3], max_passes=1, record_flips=True)
        assert (M - one.flip_log[-1][0]) % detect._WINDOW != 0


@pytest.mark.parametrize("max_passes, steps, converged", [
    (2, 200, True), (1, 100, False)])
def test_a_clean_cycle_that_ends_at_the_budget_converges(max_passes, steps,
                                                         converged):
    # R = I: bit k violates iff b_k y_k < 0, so inverting bit M - 1 of the MF
    # start makes it the only violator.  It flips at step M, and the clean
    # cycle after it ends at step 2M: exactly the two-pass budget
    rng = np.random.default_rng(3)
    M = 100
    S = helpers.orthogonal_matrix(M, 2, rng)
    A = np.ones(M)
    xc = crosscorrelation(S, A)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    y = matched_filter(S, transmit(S, ChannelParams(A, 0.5), b, rng))
    b0 = mf_detect(y)
    b0[-1] = -b0[-1]
    ref = oracles.naive_sequential_las(y, xc.dense_h(), A, b0,
                                       max_passes=max_passes)
    run = slas_detect(y, xc, A, b0, max_passes=max_passes, record_flips=True)
    runs = las_lockstep(y[None], xc, A, b0[None], 0, max_passes)
    assert _one_row(run) == _row(runs, 0) == _one_row(ref)
    assert run.flip_log == [(M, (M - 1,))]
    assert (run.steps, run.passes, run.converged) == (steps, max_passes,
                                                      converged)


def test_lockstep_at_large_m_equals_its_las_runs():
    # M = 4096, L = 16: a pass is 64 windows, and the next violator is
    # often many windows on; two transmissions on one H, MF and inverted
    # starts, SLAS and WSLAS rows, budgets of 1, 2 and 100 passes
    rng = np.random.default_rng(20)
    M, C = 4096, 5120
    S = gen_sparse_matrix(C, M, 16, rng)
    A = np.ones(M)
    xc = crosscorrelation(S, A)
    params = ChannelParams(A, snr_to_sigma(11.0))
    b = rng.integers(0, 2, (2, M), dtype=np.int8) * 2 - 1
    y = np.stack([matched_filter(S, transmit(S, params, bt, rng)) for bt in b])
    ys, block = y[[0, 1, 0]], np.zeros(3, dtype=int)
    b0 = mf_detect(ys) * np.array([1, 1, -1], dtype=np.int8)[:, None]
    problem = np.array([0, 0, 1, 1, 2, 2])
    n_prime = np.array([0, 10, 0, 0, 0, 0])
    max_passes = np.array([100, 100, 100, 1, 100, 2])
    runs = las_lockstep(ys, xc, A, b0, n_prime, max_passes, problem=problem,
                        block=block)
    assert runs.converged.tolist() == [True, True, True, False, True, False]
    _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block, problem,
                                    n_prime, max_passes)


def test_lockstep_row_result_independent_of_its_group():
    (ys, xc, A, b0, n_prime, max_passes, problem, block,
     _) = _lockstep_batch(2)
    full = las_lockstep(ys, xc, A, b0, n_prime, max_passes, problem=problem,
                        block=block)
    K = problem.size
    for rows in ([r] for r in range(K)):  # K = 1
        alone = las_lockstep(ys, xc, A, b0, n_prime[rows], max_passes[rows],
                             problem=problem[rows], block=block)
        assert _row(alone, 0) == _row(full, rows[0])
    for rows in (np.arange(K)[::-1], np.arange(0, K, 2), np.arange(5, K),
                 np.argsort(n_prime, kind="stable")):  # rows of each H apart
        part = las_lockstep(ys, xc, A, b0, n_prime[rows], max_passes[rows],
                            problem=problem[rows], block=block)
        for i, r in enumerate(rows):
            assert _row(part, i) == _row(full, r)
    one = slas_detect(ys[0], xc.block(block[0]), A, b0[0])
    assert _row(full, 0) == _one_row(one)


def test_lockstep_on_one_stack_mixing_full_and_sparse_blocks():
    # one stack of explicit chips, the middle block full (all columns on
    # chip 0), with problems mapped onto shared blocks out of order; every
    # row equals its one-row detector run
    M, C, L = 40, 50, 3
    A = np.ones(M)
    S, stack = _stacked_h(3, C, M, L, A, full=[1])
    assert list(np.diff(stack.indptr[::M]) == M * M) == [False, True, False]
    block = np.array([0, 1, 2, 1, 0])
    rng = np.random.default_rng(3)
    So = SequenceMatrix(C, M, S.chips[block], S.signs[block])
    b = rng.integers(0, 2, (5, M), dtype=np.int8) * 2 - 1
    rngs = [np.random.default_rng([3, 9, p]) for p in range(5)]
    ys = matched_filter(So, transmit(So, ChannelParams(A, 0.6), b, rngs))
    b0 = mf_detect(ys)
    problem = np.repeat(np.arange(5), 2)
    n_prime = np.tile([0, 4], 5)
    runs = las_lockstep(ys, stack, A, b0, n_prime, problem=problem,
                        block=block)
    assert runs.flips.min() > 0
    for r, p in enumerate(problem):
        xc = stack.block(block[p])
        ref = (slas_detect(ys[p], xc, A, b0[p]) if n_prime[r] == 0 else
               wslas_detect(ys[p], xc, A, b0[p], n_prime=int(n_prime[r])))
        assert _row(runs, r) == _one_row(ref), r


def test_slas_rows_build_no_abs_row_sums():
    # |H| row sums are the all-bit thresholds: SLAS-only calls never build
    # them, and building them first changes no row
    (ys, xc, A, b0, _, max_passes, problem, block,
     _) = _lockstep_batch(1)
    runs = las_lockstep(ys, xc, A, b0, 0, max_passes, problem=problem,
                        block=block)
    assert "abs_row_sums" not in xc.__dict__
    xc.abs_row_sums
    again = las_lockstep(ys, xc, A, b0, 0, max_passes, problem=problem,
                         block=block)
    for r in range(problem.size):
        assert _row(runs, r) == _row(again, r)
    _, fresh = _stacked_h(1, 125, 100, 4, A, full=[2])
    las_lockstep(ys, fresh, A, b0, 1, problem=problem, block=block)
    assert "abs_row_sums" in fresh.__dict__


def _fixed_set_problems(seed, T=6, M=64, L=4, sigma=0.3):
    """T transmissions on the three blocks of one stack (the last full),
    transmission t on block t % 3, as the harness maps fixed sets; MF
    starts.  Returns (ys, xc, A, b0, block)."""
    C = int(round(M / 0.8))
    A = np.ones(M)
    S, xc = _stacked_h(seed, C, M, L, A, full=[2])
    block = np.arange(T) % 3
    So = SequenceMatrix(C, M, S.chips[block], S.signs[block])
    rng = np.random.default_rng([seed, 8])
    b = rng.integers(0, 2, (T, M), dtype=np.int8) * 2 - 1
    rngs = [np.random.default_rng([seed, 9, p]) for p in range(T)]
    ys = matched_filter(So, transmit(So, ChannelParams(A, sigma), b, rngs))
    b0 = mf_detect(ys)
    return ys, xc, A, b0, block


def _first_step_flips(ys, xc, A, b0, block):
    """Per problem: whether an all-bit step from its start flips a bit."""
    return np.array([
        np.any(b0[p] * initial_gradient(b0[p], ys[p], h, A)
               < -h.abs_row_sums)
        for p, h in enumerate(map(xc.block, block))])


def _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block, problem,
                                    n_prime, max_passes):
    n_prime = np.broadcast_to(n_prime, problem.shape)
    max_passes = np.broadcast_to(max_passes, problem.shape)
    for r, p in enumerate(problem):
        one = las_run(ys[p], xc.block(block[p]), A,
                      Schedule.hybrid(int(n_prime[r])), b0[p],
                      max_passes=int(max_passes[r]))
        assert _row(runs, r) == _one_row(one), r


@pytest.fixture
def sequential_calls(monkeypatch):
    """The rows of every _Lockstep.sequential call, in call order."""
    calls = []
    sequential = detect._Lockstep.sequential

    def spy(self, rows, cycles):
        calls.append(rows.tolist())
        return sequential(self, rows, cycles)

    monkeypatch.setattr(detect._Lockstep, "sequential", spy)
    return calls


@pytest.mark.parametrize("max_passes", [1, 2])
def test_wslas_follower_whose_budget_binds_runs_alone(sequential_calls,
                                                      max_passes):
    # the one-step WSLAS rows flip nothing in their all-bit step and follow
    # their SLAS row, whose run does not fit in the zero or one cycle they
    # have left: each of them runs alone from its start
    ys, xc, A, b0, block = _fixed_set_problems(0)
    T = len(ys)
    assert not _first_step_flips(ys, xc, A, b0, block).any()
    problem, n_prime = np.repeat(np.arange(T), 2), np.tile([0, 1], T)
    runs = las_lockstep(ys, xc, A, b0, n_prime, max_passes, problem=problem,
                        block=block)
    wslas = np.arange(1, 2 * T, 2)
    assert sequential_calls == [list(range(0, 2 * T, 2)), wslas.tolist()]
    _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block, problem,
                                    n_prime, max_passes)
    assert runs.flips[0::2].min() > 0  # each SLAS run needs over one cycle
    # alone, with one cycle left, a WSLAS row makes SLAS's first flips
    assert (runs.flips[wslas] > 0).all() == (max_passes == 2)


def test_wslas_rows_that_flip_in_all_bit_steps_lead_their_own_runs(
        sequential_calls):
    ys, xc, A, b0, block = _fixed_set_problems(1, sigma=0.05)
    T = len(ys)
    b0[::2] = -b0[::2]  # inverted starts give the all-bit steps work
    moved = _first_step_flips(ys, xc, A, b0, block)
    assert moved.any() and not moved.all()
    problem, n_prime = np.repeat(np.arange(T), 2), np.tile([0, 10], T)
    runs = las_lockstep(ys, xc, A, b0, n_prime, problem=problem, block=block)
    lead = [2 * t + i for t in range(T) for i in (0, 1) if i == 0 or moved[t]]
    assert sequential_calls == [lead, []]
    _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block, problem,
                                    n_prime, 100)


def test_identical_slas_rows_share_one_run(sequential_calls):
    ys, xc, A, b0, block = _fixed_set_problems(2)
    problem = np.array([3, 3, 1, 3])
    runs = las_lockstep(ys, xc, A, b0, 0, problem=problem, block=block)
    assert sequential_calls == [[0, 2], []]
    _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block, problem, 0,
                                    100)
    assert runs.flips[0] > 0 and runs.converged.all()


def test_shared_runs_are_exact_in_any_row_order(sequential_calls):
    ys, xc, A, b0, block = _fixed_set_problems(3, T=4, sigma=0.05)
    b0[2:] = -b0[2:]
    problem = np.repeat(np.arange(4), 6)
    n_prime = np.tile([0, 10, 0, 10, 1, 4], 4)
    max_passes = np.tile([100, 100, 2, 1, 3, 100], 4)
    rng = np.random.default_rng(3)
    ran = []
    for order in (np.arange(24), rng.permutation(24), np.arange(24)[::-1]):
        runs = las_lockstep(ys, xc, A, b0, n_prime[order], max_passes[order],
                            problem=problem[order], block=block)
        ran.append(sum(map(len, sequential_calls)))
        _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block,
                                        problem[order], n_prime[order],
                                        max_passes[order])
        sequential_calls.clear()
    assert ran[0] == ran[1] == ran[2] < 24  # some rows follow, in any order


def test_slas_and_wslas_rows_walk_one_sequential_phase(monkeypatch):
    # harness-shaped SLAS + WSLAS rows whose all-bit steps flip nothing:
    # each problem's sequential flips are made once, for the SLAS row, and
    # the WSLAS row reports the same flips one all-bit pass later
    ys, xc, A, b0, block = _fixed_set_problems(4, T=9)
    T = len(ys)
    assert not _first_step_flips(ys, xc, A, b0, block).any()
    events = []
    flip_each = detect._Lockstep._flip_each

    def count(self, rows, ks):
        events.append(rows.size)
        return flip_each(self, rows, ks)

    monkeypatch.setattr(detect._Lockstep, "_flip_each", count)
    runs = las_lockstep(ys, xc, A, b0, np.tile([0, 10], T),
                        problem=np.repeat(np.arange(T), 2), block=block)
    slas, wslas = slice(0, None, 2), slice(1, None, 2)
    assert runs.flips[slas].tolist() == runs.flips[wslas].tolist()
    assert (runs.passes[wslas] == runs.passes[slas] + 1).all()
    assert sum(events) == runs.flips[slas].sum() > 0


_ROWS = st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0, 1, 4, 10]),
                           st.sampled_from([1, 2, 100])),
                 min_size=1, max_size=12)  # (problem, n_prime, max_passes)


@settings(max_examples=100, deadline=None)
@given(rows=_ROWS, invert=st.lists(st.booleans(), min_size=6, max_size=6),
       sigma=st.sampled_from([0.05, 0.3, 0.6]), seed=st.integers(0, 3))
def test_random_lockstep_batches_equal_their_las_runs(rows, invert, sigma,
                                                      seed):
    # duplicated rows, six problems on three shared blocks, MF or inverted
    # starts, and rows in any order
    ys, xc, A, b0, block = _fixed_set_problems(seed, M=40, sigma=sigma)
    b0[invert] = -b0[invert]
    problem, n_prime, max_passes = map(np.array, zip(*rows))
    runs = las_lockstep(ys, xc, A, b0, n_prime, max_passes, problem=problem,
                        block=block)
    _assert_rows_are_their_las_runs(runs, ys, xc, A, b0, block, problem,
                                    n_prime, max_passes)


def _per_entry_matvec(xc, X, block):
    """H @ x of each problem by the per-entry gather of its block."""
    def gather(x, h):
        indptr, indices, values = helpers.csr(h)
        return np.add.reduceat(x[indices] * values, indptr[:-1])
    return np.stack([gather(x, h) for x, h in zip(X, map(xc.block, block))])


@pytest.mark.parametrize("unequal", [False, True])
def test_h_matvec_equals_the_per_entry_gather_bit_for_bit(unequal):
    # full blocks multiply by broadcast products, sparse ones by a gather;
    # on float vectors any other summation order would show in the last bits
    M, C, L = 40, 50, 3
    rng = np.random.default_rng(4)
    A = rng.uniform(0.5, 2.0, M) if unequal else np.ones(M)
    _, mixed = _stacked_h(4, C, M, L, A, full=[0, 2])
    _, dense = _stacked_h(5, C, M, C, A)
    assert list(np.diff(mixed.indptr[::M]) == M * M) == [True, False, True]
    assert dense.nnz == 3 * M * M
    X = rng.standard_normal((7, M))
    block = np.array([2, 0, 1, 0, 2, 1, 2])  # repeated and out of order
    for xc in (mixed, dense):
        assert np.array_equal(xc.h_matvec(X[:3]),
                              _per_entry_matvec(xc, X[:3], range(3)))
        assert np.array_equal(xc.h_matvec(X, block),
                              _per_entry_matvec(xc, X, block))
        for b in range(3):  # one block alone, one vector
            assert np.array_equal(xc.block(b).h_matvec(X[b]),
                                  _per_entry_matvec(xc, X[b:b + 1], [b])[0])
    # a per-transmission group under the default block map: 50 blocks of
    # one problem each at M = 64, C = 80, sparse and dense
    A = rng.uniform(0.5, 2.0, 64) if unequal else np.ones(64)
    X = rng.standard_normal((50, 64))
    for L in (4, 16, 80):
        xc = crosscorrelation(gen_sparse_matrix(80, 64, L, [
            np.random.default_rng([8, t]) for t in range(50)]), A)
        assert np.array_equal(xc.h_matvec(X),
                              _per_entry_matvec(xc, X, range(50)))


@pytest.mark.parametrize("buffer", [1, 1100])
def test_h_matvec_in_row_chunks_is_bit_identical(buffer, monkeypatch):
    # a small product buffer takes a full block's rows one at a time, or in
    # chunks of 9 and 13 rows (three and two problems) that do not divide M
    monkeypatch.setattr(seqgen, "_MATVEC_BUFFER", buffer)
    test_h_matvec_equals_the_per_entry_gather_bit_for_bit(unequal=True)


@pytest.mark.parametrize("buffer", [1, 7919, seqgen._MATVEC_BUFFER])
def test_sparse_h_matvec_in_row_chunks_is_bit_identical(buffer, monkeypatch):
    # sparse rows of about 146 entries, past numpy's 8-way unrolled and
    # 128-entry pairwise sums, in tables 171 slots wide: a row per chunk,
    # chunks of 15 to 46 rows (three problems to one) that end mid-block,
    # and the default, 255 rows or more.  Each row sums as the per-entry
    # gather's 1-D reduceat does; the |H| row sums likewise
    monkeypatch.setattr(seqgen, "_MATVEC_BUFFER", buffer)
    M, C, L = 256, 320, 16
    rng = np.random.default_rng(6)
    _, xc = _stacked_h(6, C, M, L, rng.uniform(0.5, 2.0, M))
    assert not xc.full_blocks.any() and np.diff(xc.indptr).max() > 128
    X = rng.standard_normal((7, M))
    block = np.array([2, 0, 1, 0, 2, 1, 2])  # repeated and out of order
    assert np.array_equal(xc.h_matvec(X, block),
                          _per_entry_matvec(xc, X, block))
    assert np.array_equal(xc.h_matvec(X[:1], [1]),
                          _per_entry_matvec(xc, X[:1], [1]))
    assert np.array_equal(xc.abs_row_sums, np.concatenate([
        np.add.reduceat(np.abs(helpers.csr(h)[2]), h.indptr[:-1])
        for h in map(xc.block, range(3))]))


def _both_routes(xc, X, block):
    """h_matvec(X, block) on the row route, through a copy of xc without
    its stack, and on the chip route; the latter also on a copy of xc whose
    H values are zeroed, which only the chip route, reading no H value,
    gets right."""
    rows = dataclasses.replace(xc, seqs=None).h_matvec(X, block)
    zeroed = dataclasses.replace(xc, vals=np.zeros_like(xc.vals))
    return rows, xc.h_matvec(X, block), zeroed.h_matvec(X, block)


def _assert_same_doubles(a, *others):
    for b in others:  # equal values and signs of zero
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("L", [1, 2, 4, 8, 16, 32])
def test_chip_route_equals_the_row_route_bit_for_bit(L):
    # +/-1 vectors on exact stacks (power-of-two L, 2L <= C, A = 1): J / L
    # from the chip sums is the row route's double, for fixed stacks under
    # unsorted, repeated and empty block maps and a per-transmission stack;
    # a block alone keeps no stack and takes the row route
    M, C = 40, 80
    rng = np.random.default_rng(L)
    _, xc = _stacked_h(7, C, M, L, np.ones(M))
    per_tx = crosscorrelation(gen_sparse_matrix(C, M, L, [
        np.random.default_rng([9, t]) for t in range(20)]), np.ones(M))
    assert xc.seqs is not None and per_tx.seqs is not None
    X = rng.integers(0, 2, (20, M)).astype(np.int8) * 2 - 1
    for h, block in ((xc, [2, 0, 1, 0, 2, 1, 2]), (xc, [1, 1, 1]),
                     (per_tx, range(20))):
        rows, chips, zeroed = _both_routes(h, X[:len(block)], block)
        ref = _per_entry_matvec(h, X[:len(block)], block)
        _assert_same_doubles(ref, rows, chips, zeroed)
    for out in _both_routes(xc, X[:0], []):
        assert out.shape == (0, M)
    for b in range(3):
        alone = xc.block(b)
        assert alone.seqs is None
        _assert_same_doubles(_per_entry_matvec(xc, X[b:b + 1], [b])[0],
                             alone.h_matvec(X[b]))


@pytest.mark.parametrize("L", [1, 2, 4])
def test_exact_products_take_the_chip_route_at_small_l(L):
    # fixed stacks at L <= 4, with rows of 1.8 to 13 entries, under block
    # maps of one block in use, repeated or a single vector: every exact
    # +/-1 product takes the chip route, so a copy with zeroed H values
    # still gives H x
    M, C = 64, 80
    _, xc = _stacked_h(10 + L, C, M, L, np.ones(M))
    X = np.random.default_rng(L).integers(0, 2, (3, M)) * 2 - 1
    zeroed = dataclasses.replace(xc, vals=np.zeros_like(xc.vals))
    for block in ([1, 1, 1], [2]):
        ref = _per_entry_matvec(xc, X[:len(block)], block)
        _assert_same_doubles(ref, zeroed.h_matvec(X[:len(block)], block))
    ref = _per_entry_matvec(xc, X[:1], [2])[0]  # and one 1-D int8 vector
    _assert_same_doubles(ref, zeroed.h_matvec(X[0].astype(np.int8), [2]))


def test_chip_route_sums_to_positive_zero():
    # two equal columns sending opposite bits: every row sums to zero, +0.0
    # on the row route (its diagonal term is +/-1), and so on the chip route
    xc = _explicit_h([[[0, 1], [0, 1], [2, 3]]], 4)
    X = np.array([[1, -1, -1], [-1, 1, 1]])
    rows, chips, zeroed = _both_routes(xc, X, [0, 0])
    assert np.array_equal(rows[:, :2], np.zeros((2, 2)))
    _assert_same_doubles(rows, chips, zeroed)


@pytest.mark.parametrize("C, L, unequal, normal", [
    (80, 3, False, False), (80, 12, False, False), (50, 32, False, False),
    (80, 4, True, False), (80, 16, False, True)])
def test_inexact_products_keep_the_row_route(C, L, unequal, normal):
    # L not a power of two, 2L > C, A != 1 and float vectors: the chip sums
    # would not give the row route's doubles, so h_matvec keeps the row
    # route
    M = 40
    rng = np.random.default_rng(C + L)
    A = rng.uniform(0.5, 2.0, M) if unequal else np.ones(M)
    _, xc = _stacked_h(8, C, M, L, A)
    assert (xc.seqs is not None) == normal  # only floats on an exact stack
    X = (rng.standard_normal((7, M)) if normal
         else rng.integers(0, 2, (7, M)) * 2 - 1)
    block = [2, 0, 1, 0, 2, 1, 2]
    assert np.array_equal(xc.h_matvec(X, block),
                          _per_entry_matvec(xc, X, block))


def _assert_same_fields(a, b):
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        assert np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v


@pytest.mark.parametrize("case", [1, 3, 12, 16, "full", "cancelled"])
def test_every_reader_gives_the_same_doubles(case):
    # a sparse A = 1 H holds sign sums n over den = L; held as the doubles
    # n/L over den = 1 instead, every product, row sum, row, block and LAS
    # run reads the same.  Stacks at L = 1, 3, 12, 16 (block 2 full), and
    # two full blocks of a sparse route: three columns on chip 0, and two
    # whose sign products cancel to n = 0
    if case == "full":
        xc = _explicit_h([[[0, 1], [0, 2], [0, 3]]], 4)
    elif case == "cancelled":
        xc = crosscorrelation(SequenceMatrix(4, 2, [[0, 1], [0, 1]],
                                             [[1, 1], [1, -1]]), 1.0)
        assert 0 in helpers.csr(xc)[2]
    else:
        _, xc = _stacked_h(20 + case, 50, 40, case, np.ones(40), full=[2])
    assert xc.vals.dtype == np.int8 and xc.full_blocks.any()
    ref = dataclasses.replace(xc, vals=xc.vals / xc.den, den=1)
    M, B = xc.n_bits, xc.n_blocks
    rng = np.random.default_rng(7)
    block = np.tile(np.arange(B), 2)
    for X in (rng.integers(0, 2, (2 * B, M)) * 2 - 1,
              rng.standard_normal((2 * B, M))):
        _assert_same_doubles(*(dataclasses.replace(h, seqs=None).h_matvec(
            X, block) for h in (ref, xc)))
    _assert_same_doubles(ref.abs_row_sums, xc.abs_row_sums)
    _assert_same_doubles(ref.dense_h(), xc.dense_h())
    for k in range(B * M):
        assert np.array_equal(ref.row(k)[0], xc.row(k)[0])
        _assert_same_doubles(ref.row(k)[1], xc.row(k)[1])
    # SLAS and WSLAS rows from the MF start, and from starts with about a
    # third of their bits inverted against a tenfold y, whose all-bit steps
    # flip many bits at once
    y = ref.h_matvec(rng.integers(0, 2, (2 * B, M)) * 2 - 1, block)
    y += 0.7 * rng.standard_normal(y.shape)
    y[B:] *= 10
    b0 = np.where(y < 0, -1, 1).astype(np.int8)
    b0[B:] *= np.where(rng.random((B, M)) < 0.3, -1, 1).astype(np.int8)
    A = np.ones(M)
    rows = dict(n_prime=np.tile([0, 3], 2 * B), max_passes=100,
                problem=np.repeat(np.arange(2 * B), 2), block=block)
    _assert_same_fields(*(las_lockstep(y, h, A, b0, **rows) for h in (ref, xc)))
    for b in range(B):
        alone = xc.block(b)
        assert alone.den == xc.den
        _assert_same_doubles(ref.block(b).dense_h(), alone.dense_h())
        for sched in (Schedule.parallel(), Schedule.hybrid(3)):
            _assert_same_fields(*(las_run(
                y[B + b], h, A, sched, b0[B + b], record_flips=True,
                check_gradient=True) for h in (ref.block(b), alone)))


def _add_rows_case(case):
    """A CrossCorr for test_add_rows_equals_a_per_entry_loop and the dtype
    of its vals."""
    M, A = 40, np.ones(40)
    if case == "unequal":
        A = np.random.default_rng(2).uniform(0.5, 2.0, M)
    if case == "cancelled":  # rows 0 and 1 full, with n_01 = 0; 2, 3 not
        S = SequenceMatrix(8, 4, [[0, 1], [0, 1], [1, 2], [0, 3]],
                           [[1, 1], [1, -1], [1, 1], [1, 1]])
        return crosscorrelation(S, 1.0), np.int8
    L = {"L16": 16, "L12": 12, "L3": 3, "unequal": 3, "dense": 50}[case]
    _, xc = _stacked_h(30 + L, 50, M, L, A, full=[] if L == 50 else [1])
    return xc, np.float64 if case in ("unequal", "dense") else np.int8


@pytest.mark.parametrize("case", ["L16", "L12", "L3", "dense", "unequal",
                                  "cancelled"])
def test_add_rows_equals_a_per_entry_loop(case):
    # full rows and sparse rows in one call, stack rows repeated, into
    # distinct gradient rows holding +0.0 and -0.0: each entry's c (v / den),
    # added one entry at a time.  A G without the padding column is refused
    xc, dtype = _add_rows_case(case)
    assert xc.vals.dtype == dtype
    rng = np.random.default_rng(len(case))
    n_rows = xc.indptr.size - 1
    rows = rng.integers(0, n_rows, max(3 * n_rows, 64))
    counts = np.diff(xc.indptr)[rows]
    full = counts == xc.n_bits
    assert full.any() and (case == "dense") == full.all()
    G = rng.standard_normal((rows.size + 3, xc.n_bits + 5))
    G[rng.random(G.shape) < 0.3] = 0.0
    G[rng.random(G.shape) < 0.3] = -0.0
    dst = rng.permutation(len(G))[:rows.size]
    c = rng.choice([-2.0, 2.0], rows.size)
    assert _add_rows_per_entry(xc, G, dst, rows, c).tolist() == counts.tolist()
    with pytest.raises(ValueError, match="padding column"):
        xc.add_rows(G[:, :xc.n_bits], dst, rows, c)


def _add_rows_per_entry(xc, G, dst, rows, c):
    """xc.add_rows(G, dst, rows, c), checked against adding each entry's
    c (v / den) one at a time: the same doubles in every column but the
    padding column M, which takes zeros only.  Returns the entry counts."""
    ref = G.copy()
    indptr, indices, values = helpers.csr(xc)
    for d, r, ci in zip(dst, rows, c):
        for e in range(indptr[r], indptr[r + 1]):
            ref[d, indices[e]] += ci * values[e]
    counts = xc.add_rows(G, dst, rows, c)
    M = xc.n_bits
    _assert_same_doubles(np.delete(ref, M, 1), np.delete(G, M, 1))
    assert np.array_equal(ref[:, M], G[:, M])  # +0.0 == -0.0
    return counts


@pytest.mark.parametrize("route", ["gather", "chip index"])
def test_every_reader_of_a_ragged_table_equals_the_dense_oracle(
        route, monkeypatch):
    # rows of many widths in one table: a stack at M = 40, L = 4 with sparse
    # blocks and a full one, and a per-transmission group at M = 64, L = 16,
    # C = 80 whose sparse blocks hold some full rows.  With A = 1, L = 2^e
    # and +/-1 vectors every sum is exact, so each reader equals the dense
    # H = S^T S, and the structure the columns that share a chip
    if route == "chip index":
        monkeypatch.setattr(seqgen, "_GATHER_PER_PAIR", 0)
    rng = np.random.default_rng(40)
    S, stack = _stacked_h(40, 50, 40, 4, np.ones(40), full=[1])
    group = gen_sparse_matrix(80, 64, 16, [np.random.default_rng([41, t])
                                           for t in range(6)])
    for S, xc in ((S, stack), (group, crosscorrelation(group, 1.0))):
        M, B = xc.n_bits, xc.n_blocks
        Sd = S.dense_matrix().reshape(B, -1, M)
        Hd = np.concatenate([s.T @ s for s in Sd])
        shared = np.concatenate([(s != 0).T @ (s != 0) for s in Sd])
        width = np.diff(xc.indptr)
        assert width.min() < width.max() == M == xc.cols.shape[1]
        assert list(xc.full_blocks) == ([False, True, False] if B == 3
                                        else [False] * B)
        assert np.array_equal(width, shared.sum(1))
        for k in range(B * M):
            cols, vals = xc.row(k)
            assert cols.tolist() == np.flatnonzero(shared[k]).tolist()
            assert vals.tolist() == Hd[k, cols].tolist()
        assert np.array_equal(xc.dense_h(), Hd)
        _assert_same_doubles(xc.abs_row_sums, np.abs(Hd).sum(1))
        for b in range(B):
            assert np.array_equal(xc.block(b).dense_h(), Hd[b * M:(b + 1) * M])
        X = rng.integers(0, 2, (2 * B, M)) * 2 - 1
        block = np.tile(np.arange(B), 2)
        ref = np.stack([Hd[b * M:(b + 1) * M] @ x for b, x in zip(block, X)])
        for out in _both_routes(xc, X, block):
            _assert_same_doubles(ref, out)
        rows = rng.permutation(B * M)  # every row of the stack once
        G = rng.standard_normal((rows.size, M + 2))
        c = rng.choice([-2.0, 2.0], rows.size)
        assert np.array_equal(_add_rows_per_entry(
            xc, G, rng.permutation(rows.size), rows, c), width[rows])
        # SLAS and WSLAS rows, each its one-row run
        ys = xc.h_matvec(X, block) + 0.5 * rng.standard_normal(X.shape)
        problem, n_prime = np.repeat(np.arange(2 * B), 2), np.tile([0, 3], 2 * B)
        runs = las_lockstep(ys, xc, np.ones(M), mf_detect(ys), n_prime, 100,
                            problem=problem, block=block)
        _assert_rows_are_their_las_runs(runs, ys, xc, np.ones(M), mf_detect(ys),
                                        block, problem, n_prime, 100)


@pytest.mark.parametrize("M", [2 ** 15 - 1, 2 ** 15])
def test_column_dtype_holds_the_padding_column(M):
    # a table's padding slots hold column M: int16 columns up to
    # M = 2^15 - 1, int32 from 2^15.  L = 1 over C = M / 8 chips, rows of
    # about 9 entries, read row by row against the chips, and add_rows
    # against the per-entry loop on rows that include the last
    C = M // 8
    g = np.random.default_rng(M)
    S = SequenceMatrix(C, M, g.integers(0, C, (M, 1)),
                       g.integers(0, 2, (M, 1), dtype=np.int8) * 2 - 1)
    xc = crosscorrelation(S, 1.0)
    assert xc.cols.dtype == (np.int16 if M < 2 ** 15 else np.int32)
    chips, signs = S.chips[:, 0], S.signs[:, 0]
    rows = np.append(g.choice(M - 1, 63, replace=False), M - 1)
    for k in rows:
        cols, vals = xc.row(k)
        on = np.flatnonzero(chips == chips[k])
        assert cols.tolist() == on.tolist()
        assert vals.tolist() == (signs[k] * signs[on]).tolist()
    G = g.standard_normal((64, M + 1))
    c = g.choice([-2.0, 2.0], 64)
    assert np.array_equal(_add_rows_per_entry(xc, G, np.arange(64), rows, c),
                          np.diff(xc.indptr)[rows])


def test_an_all_bit_step_flips_as_one_bit_at_a_time():
    # two rows, one on a sparse block and one on a full block, each with
    # several violators: the step equals flipping them one at a time in
    # ascending bit order, from the pre-step bits
    M, A = 40, np.ones(40)
    _, xc = _stacked_h(6, 50, M, 3, A, full=[1])
    rng = np.random.default_rng(6)
    block = np.array([0, 1])
    b = rng.integers(0, 2, (2, M)).astype(np.int8) * 2 - 1
    y = 10 * xc.h_matvec(b, block)
    b0 = b * np.where(rng.random((2, M)) < 0.3, -1, 1).astype(np.int8)
    step, ref = (detect._Lockstep(y, xc, A, b0, None, block, 1, 100,
                                  record_flips=True) for _ in range(2))
    rows = np.arange(2)
    assert step.set_step(rows).all()
    assert [r for r, _ in step.flip_log] == [1, 1]
    for r, (_, ks) in enumerate(step.flip_log):
        assert len(ks) > 1 and list(ks) == sorted(ks)
        for k in ks:
            ref._flip_each(np.array([r]), np.array([k]))
    _assert_same_doubles(ref.G, step.G)
    assert np.array_equal(ref.B, step.B)
    nnz = np.diff(xc.indptr).reshape(-1, M)[block]
    assert step.additions.tolist() == ref.additions.tolist() == [
        int(nnz[r, list(ks)].sum()) for r, (_, ks) in enumerate(step.flip_log)]
    assert step.flips.tolist() == ref.flips.tolist() == [
        len(ks) for _, ks in step.flip_log]
    # and las_run logs the step as one event, its gradient checked
    run = las_run(y[1], xc.block(1), A, Schedule.hybrid(1), b0[1],
                  record_flips=True, check_gradient=True)
    assert run.flip_log[0] == step.flip_log[1]


def test_the_kernel_reads_no_h_storage():
    # H's storage (sign sums over a divisor, CSR rows, full blocks) is
    # seqgen's: detect reaches H through CrossCorr's methods only
    tree = ast.parse(Path(detect.__file__).read_text(encoding="utf-8"))
    storage = {"vals", "cols", "indptr", "den", "_times", "full_blocks"}
    read = sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)} & storage)
    assert read == []


def test_block_indices_are_checked_where_they_are_read():
    _, xc = _stacked_h(4, 50, 40, 3, np.ones(40))
    X = np.ones((2, 40))
    for b in (-1, 3, 1.5, True):
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            xc.block(b)
    for block in ([0, -1], [0, 3], [0.5, 1.2], [[0], [1]], [True, False]):
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            xc.h_matvec(X, block)
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            las_lockstep(X, xc, np.ones(40), X, 0, block=block)


def _explicit_h(chips, n_chips):
    """The one-block stacked H of explicit (1, M, L) chips, signs +1."""
    chips = np.asarray(chips)
    S = SequenceMatrix(n_chips, chips.shape[1], chips, np.ones_like(chips))
    return crosscorrelation(S, np.ones(S.n_bits))


def test_las_input_validation():
    xc = _explicit_h([[[0]]], 1)  # H = [[1]]
    y = np.array([1.0])
    A = np.ones(1)
    with pytest.raises(ValueError):
        slas_detect(y, xc, A, np.array([0], dtype=np.int8))
    with pytest.raises(ValueError):
        slas_detect(np.array([1.0, 2.0]), xc, A, np.array([1], dtype=np.int8))
    with pytest.raises(ValueError):
        slas_detect(y, xc, A, np.array([1], dtype=np.int8), max_passes=0)
    with pytest.raises(ValueError):
        Schedule("bogus")
    # only hybrid schedules take all-bit steps ("sequential", 5 ran five)
    for kind, steps in (("sequential", 5), ("parallel", 7), ("sequential", -1)):
        with pytest.raises(ValueError, match="only a hybrid schedule"):
            Schedule(kind, steps)
    for bad in (np.nan, np.inf, -np.inf):  # an all-NaN y "converged" at MF
        y_bad = np.array([bad])
        with pytest.raises(ValueError, match="y must be finite"):
            slas_detect(y_bad, xc, A, np.array([1], dtype=np.int8))
        with pytest.raises(ValueError, match="y must be finite"):
            las_lockstep(y_bad[None], xc, A, np.ones((1, 1)), 10)
    for problem in ([-1], [0.5], [1]):  # integers in [0, 1) only
        with pytest.raises(ValueError):
            las_lockstep(y[None], xc, A, np.ones((1, 1)), 0, problem=problem)
    for block in ([1], [-1], [0, 0]):  # one block in [0, 1) per problem
        with pytest.raises(ValueError):
            las_lockstep(y[None], xc, A, np.ones((1, 1)), 0, block=block)
    # budgets are integers, never truncated (max_passes = 1.9 ran one pass)
    for n_prime, max_passes in ((1.5, 5), (np.nan, 5), (True, 5), (0, 1.9),
                                (0, 2.5), (0, [2, 2.5])):
        with pytest.raises(ValueError, match="must hold integers"):
            las_lockstep(y[None], xc, A, np.ones((1, 1)), n_prime, max_passes)
    with pytest.raises(ValueError, match="must hold integers"):
        slas_detect(y, xc, A, np.array([1], dtype=np.int8), max_passes=1.9)
    for a in (np.nan, np.inf, -1.0, 0.0):  # the MF-start identity needs A > 0
        with pytest.raises(ValueError, match="positive and finite"):
            slas_detect(y, xc, np.array([a]), np.array([1], dtype=np.int8))
        with pytest.raises(ValueError, match="positive and finite"):
            las_lockstep(y[None], xc, np.array([a]), np.ones((1, 1)), 10)


# columns 0 and 1 share chip 1 of four, with L = 2: H = [[1, .5], [.5, 1]]
_HALF = [[[0, 1], [1, 2]]], 4
_TOP = (2 ** 63 - 1) // 2  # the largest max_passes at M = 2


def test_pass_budgets_must_fit_int64():
    # a row's sequential budget counts max_passes * M steps in int64
    xc = _explicit_h(*_HALF)
    assert xc.dense_h().tolist() == [[1.0, 0.5], [0.5, 1.0]]
    y, A, b0 = np.array([1.0, -1.0]), np.ones(2), np.ones((1, 2))
    runs = las_lockstep(y[None], xc, A, b0, [0, 3], max_passes=_TOP,
                        problem=[0, 0])
    assert runs.converged.all()
    assert slas_detect(y, xc, A, b0[0], max_passes=_TOP).converged
    for n_prime, max_passes in ((0, _TOP + 1), (0, 10 ** 30), (2 ** 63, 5),
                                (10 ** 30, 5)):
        with pytest.raises(ValueError, match="must be in"):
            las_lockstep(y[None], xc, A, b0, n_prime, max_passes=max_passes)
    for max_passes in (_TOP + 1, 10 ** 30):
        with pytest.raises(ValueError, match="must be in"):
            slas_detect(y, xc, A, b0[0], max_passes=max_passes)


@pytest.mark.parametrize("n_prime, max_passes", [
    (0, 0), (0, -1), (0, _TOP + 1), (0, 10 ** 30), (3, 2 ** 63),
    (-1, 5), (2 ** 63, 5), (10 ** 30, 5),
])
def test_las_run_and_lockstep_reject_the_same_budgets(n_prime, max_passes):
    xc = _explicit_h(*_HALF)
    y, A, b0 = np.array([1.0, -1.0]), np.ones(2), np.ones(2, dtype=np.int8)
    with pytest.raises(ValueError, match="must be in") as lockstep:
        las_lockstep(y[None], xc, A, b0[None], n_prime, max_passes)
    with pytest.raises(ValueError, match="must be in") as run:
        wslas_detect(y, xc, A, b0, n_prime=n_prime, max_passes=max_passes)
    assert str(run.value) == str(lockstep.value)


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_gml_single_bit():
    xc = xcorr_from_dense([[1.0]])
    bits, om = gml_exhaustive(np.array([-0.4]), xc, np.ones(1))
    assert np.array_equal(bits, [-1])
    assert om == pytest.approx(-0.1, abs=1e-12)


def test_gml_orthogonal_decouples_to_signs():
    rng = np.random.default_rng(2)
    A = rng.uniform(0.5, 2.0, 8)
    xc = xcorr_from_dense(np.diag(A ** 2))
    y = rng.normal(size=8)
    bits, _ = gml_exhaustive(y, xc, A)
    assert np.array_equal(bits, np.where(y >= 0, 1, -1))


def test_gml_matches_chip_domain_bruteforce():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        S, xc, A, b, _ = helpers.make_instance(rng, 8, 0.5, 4, 7.0)
        r = transmit(S, ChannelParams(A, snr_to_sigma(7.0)), b, rng)
        y = matched_filter(S, r)
        bits, _ = gml_exhaustive(y, xc, A)
        ref, _ = oracles.exhaustive_min_chip_distance(
            r, oracles.dense_columns(S), A)
        assert np.array_equal(bits, ref)


def test_gml_matches_naive_enumeration():
    for seed in range(5):
        rng = np.random.default_rng(10 + seed)
        _, xc, A, _, y = helpers.make_instance(rng, 9, 0.75, 3, 6.0)
        bits, om = gml_exhaustive(y, xc, A)
        ref_bits, ref_om = oracles.exhaustive_max_omega(y, xc.dense_h(), A)
        assert np.array_equal(bits, ref_bits)
        assert om == pytest.approx(ref_om, rel=1e-12, abs=1e-12)


def test_gml_tie_breaks_lexicographically():
    # y = 0 with orthogonal sequences: every vector ties; all-plus-one wins
    xc = xcorr_from_dense(np.eye(3))
    bits, _ = gml_exhaustive(np.zeros(3), xc, np.ones(3))
    assert np.array_equal(bits, [1, 1, 1])


def test_gml_cap():
    M = 21
    xc = xcorr_from_dense(np.eye(M))
    with pytest.raises(ValueError):
        gml_exhaustive(np.zeros(M), xc, np.ones(M))


def test_fixed_points_never_beat_the_oracle():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 10, 0.5, 4, 9.0)
        run = slas_detect(y, xc, A, mf_detect(y))
        bits, _ = gml_exhaustive(y, xc, A)
        om_gml = likelihood(bits, y, xc, A)
        om = likelihood(run.bits, y, xc, A)
        assert om <= om_gml + 1e-9 * (1 + abs(om_gml))


def test_slas_single_user_matches_sign_rule():
    xc = xcorr_from_dense([[1.0]])
    A = np.ones(1)
    for yv in (-2.0, -0.3, 0.4, 3.0):
        y = np.array([yv])
        run = slas_detect(y, xc, A, mf_detect(y))
        assert run.bits[0] == (1 if yv >= 0 else -1)
        assert run.converged


def test_slas_never_decreases_from_start():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        _, xc, A, _, y = helpers.make_instance(rng, 14, 0.7, 3, 5.0)
        b0 = mf_detect(y)
        run = slas_detect(y, xc, A, b0)
        assert likelihood(run.bits, y, xc, A) >= likelihood(b0, y, xc, A) - 1e-12


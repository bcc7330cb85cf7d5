import numpy as np
import pytest

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
    indices = np.tile(np.arange(M, dtype=np.int32), M)
    return CrossCorr(n_bits=M, indptr=indptr, indices=indices,
                     h_data=Hd.ravel(), diag=Hd.diagonal().copy())


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
                params = ChannelParams(A, snr_to_sigma(4.0, a))
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
        for schedule in (Schedule.sequential(), Schedule.hybrid(3)):
            run = las_run(y, xc, A, schedule, mf_detect(y), record_flips=True)
            assert run.converged
            recount = sum(int(nnz_col[k]) for _, fl in run.flip_log for k in fl)
            assert run.additions == recount
            expected_overhead = xc.nnz if schedule.kind == "sequential" else 2 * xc.nnz
            assert run.overhead_additions == expected_overhead


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


def _per_entry_matvec(xc, X, block):
    """H @ x of each problem by the per-entry gather of its block."""
    return np.stack([np.add.reduceat(x[h.indices] * h.h_data, h.indptr[:-1])
                     for x, h in zip(X, map(xc.block, block))])


@pytest.mark.parametrize("unequal", [False, True])
def test_h_matvec_equals_the_per_entry_gather_bit_for_bit(unequal):
    # full blocks multiply by one broadcast product, sparse ones by a gather;
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
        assert np.array_equal(xc.h_matvec(X[:3]),  # one pass
                              _per_entry_matvec(xc, X[:3], range(3)))
        assert np.array_equal(xc.h_matvec(X, block),
                              _per_entry_matvec(xc, X, block))
        for b in range(3):  # one block alone, one vector
            assert np.array_equal(xc.block(b).h_matvec(X[b]),
                                  _per_entry_matvec(xc, X[b:b + 1], [b])[0])


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
    for problem in ([-1], [0.5], [1]):  # integers in [0, 1) only
        with pytest.raises(ValueError):
            las_lockstep(y[None], xc, A, np.ones((1, 1)), 0, problem=problem)
    for block in ([1], [-1], [0, 0]):  # one block in [0, 1) per problem
        with pytest.raises(ValueError):
            las_lockstep(y[None], xc, A, np.ones((1, 1)), 0, block=block)


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


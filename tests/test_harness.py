import concurrent.futures
import dataclasses
import hashlib
import io
import math
import multiprocessing
import os

import mpmath
import numpy as np
import pytest

from lascdma import cli, harness, seqgen
from lascdma.harness import (
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    q_function,
    run_experiment,
    single_user_bound,
    sweep,
    wilson_interval,
    write_csv,
    CSV_HEADER,
)

import helpers

mpmath.mp.dps = 40


def csv_bytes(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# closed-form references


def test_q_function_against_high_precision_oracle():
    for x in np.linspace(0.0, 8.0, 33):
        ref = float(0.5 * mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)))
        got = q_function(float(x))
        if ref > 0:
            assert abs(got - ref) / ref < 1e-12
    assert q_function(0.0) == 0.5
    assert q_function(-3.0) == pytest.approx(1.0 - q_function(3.0), rel=1e-12)
    assert q_function(3.5481) == pytest.approx(1.9401043615602733e-4, rel=1e-10)


def test_single_user_bound_values():
    assert single_user_bound(0.0) == pytest.approx(0.15865525393145705, rel=1e-12)
    assert single_user_bound(11.0) == pytest.approx(1.939855e-4, rel=1e-5)
    grid = [single_user_bound(s) for s in np.linspace(-5, 30, 36)]
    assert all(b > a for a, b in zip(grid[1:], grid[:-1]))  # strictly decreasing
    assert single_user_bound(math.inf) == 0.0


def test_wilson_interval():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and 0.0 < hi < 0.01
    lo, hi = wilson_interval(50, 1000)
    assert lo < 0.05 < hi
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0 and lo > 0.99
    assert wilson_interval(0, 0) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation_errors():
    good = dict(M=16, alpha=0.8, L=4, snr_db=8.0)
    ExperimentConfig(**good).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "M": 0}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "alpha": 0.0}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "L": 0}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "L": "half"}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "detectors": ("MF", "ZF")}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "detectors": ()}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "min_bit_errors": -1}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "max_bits": 4}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "seq_sets": "sometimes"}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "seed": -1}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "n_prime": -1}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "snr_db": -math.inf}).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**good, "snr_db": (8.0, -7000.0)}).validate()
    ExperimentConfig(**{**good, "snr_db": math.inf}).validate()
    # counts are integers, never truncated (L = 4.5 ran as 4)
    for key, value in (("L", 4.5), ("seq_sets", 2.5), ("max_passes", 2.5),
                       ("n_prime", 1.5), ("M", 8.5), ("max_bits", 100.5),
                       ("seed", 1.5), ("min_bit_errors", 2.0), ("M", True),
                       ("L", "16"), ("seq_sets", "5")):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            ExperimentConfig(**{**good, key: value}).validate()
    ExperimentConfig(**{**good, "M": np.int64(16), "seq_sets": 2}).validate()


def test_infeasible_configs():
    with pytest.raises(InfeasibleError):
        ExperimentConfig(M=8, alpha=0.8, L=64).validate()  # C = 10 < 64
    with pytest.raises(InfeasibleError):
        ExperimentConfig(M=24, alpha=0.8, L=4,
                         detectors=("SLAS", "GML")).validate()
    # chip indices are int32: C = round(M/alpha) must stay below 2**31
    for alpha in (2.0 ** -31, 1e-300, 1e-320):
        with pytest.raises(InfeasibleError, match="reaches 2"):
            ExperimentConfig(M=1, alpha=alpha, L=1).validate()
    top = ExperimentConfig(M=1, alpha=1 / (2 ** 31 - 1), L=1)
    top.validate()  # not run: its chip sampler would take 16 GiB a row
    assert top.C == 2 ** 31 - 1


def test_effective_load_reporting():
    cfg = ExperimentConfig(M=1024, alpha=0.8, L=16)
    assert cfg.C == 1280
    assert cfg.alpha_eff == pytest.approx(0.8)
    cfg = ExperimentConfig(M=100, alpha=0.3, L=4)
    assert cfg.C == 333
    assert cfg.alpha_eff == pytest.approx(100 / 333)


# ---------------------------------------------------------------------------
# run_experiment behavior


def small_config(**kw):
    base = dict(M=24, alpha=0.8, L=4, snr_db=6.0, detectors=("MF", "SLAS"),
                seed=3, min_bit_errors=0, max_bits=24 * 40, experiment="t")
    base.update(kw)
    return ExperimentConfig(**base)


def test_exact_trial_count_when_min_errors_zero():
    rows = run_experiment(small_config())
    assert all(r.bits == 24 * 40 for r in rows)
    assert {r.detector for r in rows} == {"MF", "SLAS"}
    assert all(r.seq_set == "per_tx" for r in rows)
    assert all(not r.censored for r in rows)


def test_determinism_same_seed_and_workers():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    c = run_experiment(small_config(), workers=2)
    assert csv_bytes(a) == csv_bytes(b) == csv_bytes(c)
    d = run_experiment(small_config(seed=4))
    assert csv_bytes(a) != csv_bytes(d)


def test_pool_workers_fork_with_one_blas_thread(monkeypatch):
    # a BLAS thread per core in each worker made per-tx dense points thrash;
    # the parent keeps its own count while the pool lives
    before = harness._blas_threads(2)
    if before is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    helpers.usable_cores(monkeypatch, 2)
    parent, alive = os.getpid(), []
    run_trials, correlate = harness._run_trials, harness.crosscorrelation

    def unchanged_threads():
        n = 2 if os.getpid() == parent else 1
        assert harness._blas_threads(n) == n

    def in_either(ctx, items):
        unchanged_threads()
        return run_trials(ctx, items)

    def in_parent(S, A):  # the fixed sets' dense S^T S, after the fork
        unchanged_threads()
        alive.append(len(multiprocessing.active_children()))
        return correlate(S, A)

    monkeypatch.setattr(harness, "_run_trials", in_either)
    monkeypatch.setattr(harness, "crosscorrelation", in_parent)
    # M = 128: per-tx, 13-trial groups; M = 256: five fixed dense sets
    config = small_config(L="dense", max_bits=128 * 16)
    try:
        pooled = sweep(config, bk_list=(128, 256), workers=2)[0]
        assert harness._blas_threads(2) == 2  # the parent's count is back
    finally:
        harness._blas_threads(before)
    assert alive == [2]
    monkeypatch.undo()
    # the parent's products run on two threads, the workers' on one
    assert csv_bytes(pooled) == csv_bytes(sweep(config, bk_list=(128, 256))[0])


def _in_process_pool(monkeypatch):
    """Make multiprocessing.Pool run its tasks in this process; returns the
    lists of the pools it forks, as [process count, inherited sets, closed],
    and of the batches they map, as (inherited sets, tasks), filled as it
    runs."""
    pools, batches = [], []

    class InProcess:
        def __init__(self, processes, initializer, initargs):
            initializer(*initargs)
            self.record = [processes, initargs[0], False]
            pools.append(self.record)

        def map(self, fn, tasks, chunksize):
            assert chunksize == 1 and not self.record[2]
            batches.append((self.record[1], tasks))
            return [fn(task) for task in tasks]

        def close(self):
            self.record[2] = True

        def join(self):
            assert self.record[2]

    monkeypatch.setattr(harness, "_WORKER_SETS", None)
    monkeypatch.setattr(harness.multiprocessing, "Pool", InProcess)
    return pools, batches


def _task_groups(sets, tasks):
    """The items of a mapped batch's tasks, after checking that each task
    is one lockstep group of the point, whose context it holds without the
    fixed sets its pool inherited."""
    ctx = tasks[0][0]
    assert all(c.sets is None and c.xcorr is None for c, _ in tasks)
    size = harness._group_size(dataclasses.replace(ctx, sets=sets))
    sizes = [len(items) for _, items in tasks]
    assert sizes[:-1] == [size] * (len(tasks) - 1) and 0 < sizes[-1] <= size
    assert len(tasks) > 1
    return [item for _, items in tasks for item in items]


@pytest.mark.parametrize("config", [
    # per-tx, 51-trial groups: an adaptive run of two batches
    small_config(M=64, snr_db=11.0, min_bit_errors=1500, max_bits=64 * 4096),
    # five fixed sets, 512-trial groups: 600 items in one batch
    small_config(M=256, detectors=("MF", "SLAS", "WSLAS"),
                 max_bits=256 * 5 * 120),
])
def test_pool_tasks_are_whole_lockstep_groups(monkeypatch, config):
    # each batch is cut once: its tasks are its consecutive lockstep groups
    helpers.usable_cores(monkeypatch, 2)
    pools, batches = _in_process_pool(monkeypatch)
    pooled = run_experiment(config, workers=2)
    n_sets = len(batches[0][1][0][0].trial_keys)
    done = 0
    assert len(pools) == 1 and pools[0][2]
    assert len(batches) == (2 if n_sets == 1 else 1)
    for sets, tasks in batches:
        items = _task_groups(sets, tasks)
        n = len(items) // n_sets
        assert items == [(s, t) for s in range(n_sets)
                         for t in range(done, done + n)]
        done += n
    monkeypatch.undo()
    assert csv_bytes(pooled) == csv_bytes(run_experiment(config))


def test_a_batch_of_one_group_forks_no_pool(monkeypatch):
    # five fixed sets, 40 items in one batch: one 512-trial lockstep group,
    # run in this process, with no pool to idle in
    config = small_config(M=256, detectors=("MF", "SLAS", "WSLAS"),
                          max_bits=256 * 5 * 8)
    helpers.usable_cores(monkeypatch, 2)
    pools, batches = _in_process_pool(monkeypatch)
    groups, run_trials = [], harness._run_trials
    monkeypatch.setattr(harness, "_run_trials", lambda ctx, items: (
        groups.append(len(items)) or run_trials(ctx, items)))
    pooled = run_experiment(config, workers=2)
    assert groups == [40] and batches == [] and pools == []
    monkeypatch.undo()
    assert csv_bytes(pooled) == csv_bytes(run_experiment(config))


@pytest.mark.parametrize("bk_list, l_list, sets", [
    ((16, 32), (4, 8), [None]),  # four per-tx points, eight SNR points
    ((16, 256, 32), (4,), [None, "fixed", None]),
])
def test_one_pool_per_command(monkeypatch, bk_list, l_list, sets):
    # a pool forks once and serves every later point with the same fixed
    # sets; a point with other sets forks its own, whose workers inherit them.
    # Groups of 2^14 entries: per-tx M = 16 and 32 run 12 and 22 groups, and
    # five fixed sets at M = 256 two, of 32 and 3 items
    config = small_config(snr_db=[6.0, 8.0], detectors=("MF", "SLAS", "WSLAS"),
                          max_bits=256 * 5 * 7)
    monkeypatch.setattr(harness, "_LOCKSTEP_ENTRIES", 1 << 14)
    helpers.usable_cores(monkeypatch, 2)
    real_pool = multiprocessing.Pool
    pools, batches = _in_process_pool(monkeypatch)
    rows = sweep(config, bk_list, l_list, workers=3)[0]
    assert [n for n, _, _ in pools] == [2] * len(sets)
    assert [s if s is None else "fixed" for _, s, _ in pools] == sets
    assert all(closed for _, _, closed in pools)
    assert len(batches) == 2 * len(bk_list) * len(l_list)
    for inherited, tasks in batches:
        _task_groups(inherited, tasks)
    monkeypatch.setattr(multiprocessing, "Pool", real_pool)
    alone = csv_bytes(sweep(config, bk_list, l_list)[0])
    assert csv_bytes(rows) == alone
    for workers in (2, 3):
        assert csv_bytes(sweep(config, bk_list, l_list, workers)[0]) == alone
    assert multiprocessing.active_children() == []


def test_no_more_pool_processes_than_usable_cores(monkeypatch, tmp_path):
    # --workers 10000 on two cores asks for two processes
    helpers.usable_cores(monkeypatch, 2)
    pools, batches = _in_process_pool(monkeypatch)
    argv = ["fig1", "--set", "bk_list=64", "--set", "l_list=4",
            "--set", "detectors=MF", "--set", "min_bit_errors=0",
            "--set", "max_bits=8192", "--workers", "10000",
            "--out", str(tmp_path / "fig1.csv")]
    assert cli.main(argv) == 0
    assert [n for n, _, _ in pools] == [2] and len(batches) == 1


def test_no_worker_outlives_a_command(monkeypatch):
    helpers.usable_cores(monkeypatch, 2)
    # per-tx M = 64 and 128, dense: 3 and 5 lockstep groups
    config = small_config(L="dense", max_bits=128 * 64)
    sweep(config, bk_list=(64, 128), workers=2)
    assert multiprocessing.active_children() == []

    # a point that cannot allocate is a failure; the sweep goes on, on the
    # pool the point before it forked
    resolve, alive = harness._resolve_sets, []

    def refuse_m96(point):
        if point.M == 96:
            alive.append(len(multiprocessing.active_children()))
            raise MemoryError
        return resolve(point)
    monkeypatch.setattr(harness, "_resolve_sets", refuse_m96)
    rows, failures = sweep(config, bk_list=(64, 96, 128), workers=2)
    assert alive == [2] and [f for f, _ in failures] == ["L=dense,M=96"]
    assert {r.M for r in rows} == {64, 128}
    assert multiprocessing.active_children() == []

    # an error inside a worker terminates the pool
    parent, run_trials = os.getpid(), harness._run_trials

    def fail_in_worker(ctx, items):
        if os.getpid() != parent:
            raise RuntimeError("worker failed")
        return run_trials(ctx, items)
    monkeypatch.setattr(harness, "_run_trials", fail_in_worker)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_experiment(dataclasses.replace(config, M=128), workers=2)
    assert multiprocessing.active_children() == []


def test_fixed_sets_same_bytes_on_two_workers():
    # 600 items span two 512-trial groups, one per pool task
    config = small_config(M=256, detectors=("MF", "SLAS", "WSLAS"),
                          max_bits=256 * 5 * 120)
    assert csv_bytes(run_experiment(config, workers=2)) == csv_bytes(
        run_experiment(config))


def test_fixed_sets_reporting():
    # M > 128 switches to five fixed sets plus a pooled average row
    cfg = ExperimentConfig(M=160, alpha=0.8, L=4, snr_db=6.0,
                           detectors=("SLAS",), seed=1, min_bit_errors=0,
                           max_bits=160 * 5 * 8, experiment="t")
    rows = run_experiment(cfg)
    labels = [r.seq_set for r in rows]
    assert labels == ["0", "1", "2", "3", "4", "avg"]
    per_set = rows[:5]
    avg = rows[5]
    assert all(r.bits == per_set[0].bits for r in per_set)
    assert avg.bits == sum(r.bits for r in per_set)
    assert avg.errors == sum(r.errors for r in per_set)
    # equal per-set bit counts make the pooled ratio the arithmetic mean
    assert avg.ber == pytest.approx(np.mean([r.ber for r in per_set]))


@pytest.mark.parametrize("cfg", [
    dict(M=160, alpha=0.8, L=4, detectors=("MF",)),  # five fixed sets
    dict(M=10, alpha=0.5, L=4, detectors=("GML",), seq_sets=2),
])
def test_fixed_sets_without_las_rows(cfg):
    # a fixed-set point whose trials hold no lockstep row still runs
    cfg = ExperimentConfig(**cfg, snr_db=6.0, seed=1, min_bit_errors=0,
                           max_bits=cfg["M"] * 5 * 4, experiment="t")
    rows = run_experiment(cfg)
    assert rows and rows[-1].seq_set == "avg"
    assert all(r.bits > 0 for r in rows)


_H_PINS = [
    (16, "790f8c495c71ebe9baf600b979390b67713b71557f57a0c05ddf25027e688e47"),
    (3, "66965cca56859a159b4a8439e6daed9af022d60f4149f10c7ad518a2bc367ce4"),
]


@pytest.mark.parametrize("L, digest", _H_PINS, ids=["L=16", "L=3"])
def test_fixed_set_crosscorrelation_bytes(L, digest):
    # SHA-256 of the stacked H of the five fixed sets at M = 1024, seed 1,
    # recorded with the whole-array chip sampler and int64 pair arrays: the
    # streamed sampler and the int32 chip-index route move no byte
    n_sets, _, xc = harness._resolve_sets(
        ExperimentConfig(M=1024, alpha=0.8, L=L, seed=1))
    h = hashlib.sha256()
    for a in (*helpers.csr(xc), xc.diag):
        h.update(a.tobytes())
    assert n_sets == 5 and h.hexdigest() == digest


@pytest.mark.parametrize("L, digest", _H_PINS, ids=["L=16", "L=3"])
def test_fixed_set_crosscorrelation_bytes_in_pair_chunks(L, digest,
                                                         monkeypatch):
    # the same pins with the chip-index route's rows listed in chunks of
    # 4099 pairs, about 19 rows at L = 16 and 400 at L = 3, where the
    # default takes about 300 rows at L = 16 and the whole stack at L = 3
    monkeypatch.setattr(seqgen, "_PAIR_BUFFER", 4099)
    test_fixed_set_crosscorrelation_bytes(L, digest)


def test_nonconverged_runs_are_counted():
    cfg = dict(M=160, alpha=0.8, L=4, snr_db=4.0,
               detectors=("MF", "SLAS", "WSLAS"), seed=2, min_bit_errors=0,
               max_bits=160 * 5 * 6, experiment="t")
    assert all(r.nonconverged == 0 for r in run_experiment(ExperimentConfig(**cfg)))
    rows = run_experiment(ExperimentConfig(**cfg, max_passes=1))
    by = {(r.detector, r.seq_set): r for r in rows}
    assert by[("MF", "avg")].nonconverged == 0
    for det in ("SLAS", "WSLAS"):
        per_set = [by[(det, str(s))].nonconverged for s in range(5)]
        assert by[(det, "avg")].nonconverged == sum(per_set)
    assert 0 < by[("SLAS", "avg")].nonconverged <= 30
    # WSLAS spends its one pass on an all-bit step and never verifies
    assert by[("WSLAS", "avg")].nonconverged == 30
    assert csv_bytes(rows).splitlines()[0] == CSV_HEADER


def test_min_error_stopping_and_ci():
    cfg = small_config(min_bit_errors=30, max_bits=10 ** 6, snr_db=4.0)
    rows = run_experiment(cfg)
    for r in rows:
        assert r.errors >= 30
        assert not r.censored
        assert r.ci_low <= r.ber <= r.ci_high
        assert r.ber == r.errors / r.bits


def test_censoring_and_zero_error_ci():
    # a noiseless single user: BER is exactly 0 and the point censors
    cfg = ExperimentConfig(M=1, alpha=1.0, L=1, snr_db=math.inf,
                           detectors=("MF", "SLAS"), seed=2,
                           min_bit_errors=10, max_bits=200, experiment="t")
    rows = run_experiment(cfg)
    assert rows
    for r in rows:
        assert r.errors == 0
        assert r.ber == 0.0
        assert r.censored
        assert r.ci_high > 0.0  # never an unqualified zero


def test_single_user_ber_matches_bound():
    cfg = ExperimentConfig(M=1, alpha=1.0, L=1, snr_db=4.0,
                           detectors=("MF", "SLAS"), seed=5,
                           min_bit_errors=100, max_bits=10 ** 6,
                           experiment="t")
    rows = run_experiment(cfg)
    bound = single_user_bound(4.0)
    for r in rows:
        assert r.ci_low <= bound <= r.ci_high


def test_gml_audit_fields():
    cfg = ExperimentConfig(M=10, alpha=0.5, L=4, snr_db=9.0,
                           detectors=("SLAS", "GML"), seed=7,
                           min_bit_errors=0, max_bits=10 * 60, experiment="t")
    rows = run_experiment(cfg)
    slas = [r for r in rows if r.detector == "SLAS"][0]
    gml = [r for r in rows if r.detector == "GML"][0]
    assert slas.gml_omega_violations == 0
    assert 0.0 <= slas.gml_match_rate <= 1.0
    assert gml.gml_match_rate is None
    # GML can only do better
    assert gml.errors <= slas.errors


def test_multi_snr_config_produces_point_per_snr():
    cfg = small_config(snr_db=(2.0, 6.0))
    rows = run_experiment(cfg)
    assert sorted({r.snr_db for r in rows}) == [2.0, 6.0]


@pytest.mark.parametrize("seq_sets", [2, "per_tx"])
def test_wslas_rows_are_slas_rows_one_pass_later(seq_sets):
    # the first all-bit step from the MF start flips nothing (detect.py), so
    # a WSLAS row is its SLAS row but for one more pass per run
    cfg = small_config(M=64, alpha=1.0, snr_db=(0.0, 6.0), seq_sets=seq_sets,
                       detectors=("SLAS", "WSLAS"), max_bits=64 * 300)
    rows = run_experiment(cfg)
    slas = [r for r in rows if r.detector == "SLAS"]
    wslas = [r for r in rows if r.detector == "WSLAS"]
    assert len(slas) == len(wslas) == (2 if seq_sets == "per_tx" else 6)
    for s, w in zip(slas, wslas):
        runs = s.bits // 64
        assert round(w.passes_mean * runs) == round(s.passes_mean * runs) + runs
        assert dataclasses.replace(w, detector="SLAS",
                                   passes_mean=s.passes_mean) == s


def test_seq_set_count_override():
    cfg = small_config(seq_sets=2, max_bits=24 * 2 * 6)
    rows = run_experiment(cfg)
    assert [r.seq_set for r in rows if r.detector == "MF"] == ["0", "1", "avg"]


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_bk_collects_infeasible_points():
    cfg = ExperimentConfig(M=64, alpha=0.8, L=16, snr_db=6.0,
                           detectors=("MF",), seed=1, min_bit_errors=0,
                           max_bits=3000, experiment="t")
    rows, failures = sweep(cfg, bk_list=[8, 64, 128])  # M=8: C=10 < L=16
    assert len(failures) == 1
    assert failures[0][0] == "L=16,M=8"
    assert sorted({r.M for r in rows}) == [64, 128]


def test_sweep_validates_every_point_before_running_any(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "_run_config",
                        lambda config, pool: calls.append(config.M) or [])
    cfg = small_config()
    with pytest.raises(ConfigError, match="M must be >= 1"):
        sweep(cfg, bk_list=(64, 0))
    assert calls == []
    rows, failures = sweep(cfg, bk_list=(64, 8), l_list=(4, 16))
    assert calls == [64, 8, 64]  # L=16, M=8 has C=10 < L
    assert [label for label, _ in failures] == ["L=16,M=8"]


def test_sweep_l_includes_dense():
    cfg = ExperimentConfig(M=16, alpha=0.8, L=4, snr_db=6.0,
                           detectors=("SLAS",), seed=1, min_bit_errors=0,
                           max_bits=16 * 30, experiment="t")
    rows, failures = sweep(cfg, l_list=[2, 4, "dense"])
    assert not failures
    assert [r.L for r in rows] == [2, 4, "dense"]
    dense_row = rows[-1]
    assert dense_row.C == 20


def test_ber_decreases_with_total_bit_count():
    # the larger the system at fixed load and L, the lower the fixed-point
    # BER; frozen-seed check of the headline trend
    cfg = ExperimentConfig(M=128, alpha=0.8, L=8, snr_db=11.0,
                           detectors=("SLAS",), seed=21, min_bit_errors=60,
                           max_bits=2_000_000, experiment="trend")
    rows, failures = sweep(cfg, bk_list=[128, 256, 512])
    assert not failures
    curve = [r for r in rows if r.seq_set in ("avg", "per_tx")]
    assert [r.M for r in curve] == [128, 256, 512]
    for hi, lo in zip(curve, curve[1:]):
        overlap = not (hi.ci_low > lo.ci_high or lo.ci_low > hi.ci_high)
        assert lo.ber <= hi.ber or overlap


def test_sweep_snr_rows_in_order():
    cfg = small_config(snr_db=(2.0, 4.0, 6.0))
    rows, failures = sweep(cfg)
    assert not failures
    snrs = [r.snr_db for r in rows if r.detector == "SLAS"]
    assert snrs == [2.0, 4.0, 6.0]


# ---------------------------------------------------------------------------
# CSV


def test_csv_schema_and_formatting():
    rows = run_experiment(small_config())
    text = csv_bytes(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[0].count(",") == 16
    for line in lines[1:]:
        assert line.count(",") == 16
    assert "t[seed=3]" in lines[1]


def test_workers_validation():
    with pytest.raises(ConfigError):
        run_experiment(small_config(), workers=0)
    # checked before any point, so an all-infeasible grid still reports it
    with pytest.raises(ConfigError, match="workers must be >= 1"):
        sweep(small_config(), bk_list=(8,), l_list=(64,), workers=0)


@pytest.mark.parametrize("M", [1, 64, 128])
@pytest.mark.parametrize("L", [4, 16, "dense"])
def test_group_build_equals_per_trial_build(M, L):
    # five per-transmission trials built as one stack, against each trial
    # drawn and built alone in the order of a lone trial
    C = max(int(round(M / 0.8)), 40)
    L = C if L == "dense" else L
    A = np.ones(M)
    ctx = harness._PointCtx(
        M=M, C=C, L=L, snr_db=6.0, detectors=("MF",), amplitudes=A,
        params=harness.ChannelParams(A, harness.snr_to_sigma(6.0)),
        n_prime=10, max_passes=100, sets=None, xcorr=None,
        trial_keys=(harness._trial_key(3, M, C, L, 6.0, 0),))
    items = [(0, t) for t in range(5)]
    b, y, xc, block = harness._build(ctx, items)
    assert np.array_equal(block, np.arange(len(items)))
    assert xc.n_blocks == len(items)
    for t, item in enumerate(items):
        rng = harness._trial_rng(ctx, *item)
        S = harness.gen_sparse_matrix(C, M, L, rng)
        alone = harness.crosscorrelation(S, A)
        b_t = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
        y_t = harness.matched_filter(S, harness.transmit(S, ctx.params, b_t, rng))
        assert np.array_equal(b[t], b_t)
        assert np.array_equal(y[t], y_t)
        for u, v in zip((*helpers.csr(xc.block(t)), xc.block(t).diag),
                        (*helpers.csr(alone), alone.diag)):
            assert np.array_equal(u, v)


def test_only_fixed_sets_are_drawn_on_threads(monkeypatch):
    # at M = 256 a matrix fills the chip sampler's buffer more than once:
    # the five fixed sets are drawn on a thread per usable core (8 here),
    # five per-transmission trials built as one lockstep group on none
    pools = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, n):
            pools.append(n)
            super().__init__(n)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    helpers.usable_cores(monkeypatch, 8)
    M, C, L = 256, 320, 4
    assert M * C > seqgen._UNIFORM_BUFFER
    harness._resolve_sets(ExperimentConfig(M=M, alpha=0.8, L=L, seed=1,
                                           seq_sets="5"))
    assert pools == [5]
    A = np.ones(M)
    ctx = harness._PointCtx(
        M=M, C=C, L=L, snr_db=6.0, detectors=("MF",), amplitudes=A,
        params=harness.ChannelParams(A, harness.snr_to_sigma(6.0)),
        n_prime=10, max_passes=100, sets=None, xcorr=None,
        trial_keys=(harness._trial_key(3, M, C, L, 6.0, 0),))
    harness._build(ctx, [(0, t) for t in range(5)])
    assert pools == [5]

"""Monte-Carlo BER and complexity estimation.

A point is one (M, C, L, SNR) configuration.  Per the sequence-set protocol,
points with M <= 128 draw a fresh spreading matrix for every transmission,
while larger points use a fixed number of matrices (default five) that are
drawn once and reused; per-set estimates are reported together with their
pooled average.  Fixed sets advance in lockstep (identical trial counts), so
the averaged row's error ratio equals the arithmetic mean of the per-set
BERs.

Every trial owns an RNG substream derived from (seed, point parameters,
set index, trial index), and the adaptive stopping rule is evaluated on
merged integer totals at deterministic batch boundaries, so results are
bit-identical for a fixed seed under any worker count.
"""

import ctypes
import math
import multiprocessing
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import ChannelParams, matched_filter, snr_to_sigma, transmit
from .detect import (
    gml_exhaustive,
    las_lockstep,
    likelihood,
    mf_detect,
    MAX_EXHAUSTIVE_BITS,
)
from .seqgen import (
    SequenceMatrix, _usable_cores, crosscorrelation, gen_sparse_matrix,
)

DETECTOR_ORDER = ("MF", "SLAS", "WSLAS", "GML")
LML_DETECTORS = ("SLAS", "WSLAS")

# sequence-set protocol: fresh matrix per transmission up to this size,
# five fixed matrices beyond it
PER_TX_MAX_BITS = 128
DEFAULT_FIXED_SETS = 5

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

_INITIAL_PROBE_BITS = 16384
_MAX_BATCH_TRIALS = 65536
# array entries a lockstep group may hold: kernel rows x M, plus each fresh
# matrix's M x max(M, C) (its dense matrix or gathered sign sums, and its H;
# its uniforms pass through the chip sampler's one buffer)
_LOCKSTEP_ENTRIES = 1 << 18


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class InfeasibleError(ConfigError):
    """A structurally valid config that cannot be simulated (e.g. C < L)."""


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def single_user_bound(snr_db):
    """Interference-free BER Q(sqrt(SNR)) under the SNR = A^2/sigma^2 convention."""
    if math.isinf(snr_db):
        return 0.0 if snr_db > 0 else 0.5
    return q_function(math.sqrt(10.0 ** (snr_db / 10.0)))


def wilson_interval(errors, n, z=_Z95):
    """Wilson score interval for a binomial proportion; robust at low counts."""
    if n <= 0:
        return 0.0, 1.0
    p = errors / n
    zz = z * z
    denom = 1.0 + zz / n
    center = (p + zz / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + zz / (4.0 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == n else min(1.0, center + half)
    return lo, hi


@dataclass
class ExperimentConfig:
    """One Monte-Carlo experiment point (or an SNR list over one geometry).

    L is the nonzero chip count per sequence or "dense" for L = C.  The trial
    policy stops a point once every detector has accumulated min_bit_errors
    errors, or at max_bits simulated bits (the estimate is then flagged
    censored); min_bit_errors = 0 runs exactly max_bits.  seq_sets is "auto"
    (the size-based protocol above), "per_tx", or a fixed set count.
    """

    M: int
    alpha: float
    L: object = "dense"
    snr_db: object = 11.0
    detectors: tuple = ("MF", "SLAS")
    seed: int = 0
    min_bit_errors: int = 100
    max_bits: int = 10_000_000
    seq_sets: object = "auto"
    n_prime: int = 10
    max_passes: int = 100
    experiment: str = "run"

    @property
    def C(self):
        """Total chip count realizing the requested load."""
        return int(round(self.M / self.alpha))

    @property
    def alpha_eff(self):
        return self.M / self.C

    def resolved_L(self):
        return self.C if self.L == "dense" else int(self.L)

    def snr_points(self):
        if isinstance(self.snr_db, (list, tuple, np.ndarray)):
            return tuple(float(s) for s in self.snr_db)
        return (float(self.snr_db),)

    def normalized_detectors(self):
        dets = tuple(str(d).upper() for d in self.detectors)
        bad = [d for d in dets if d not in DETECTOR_ORDER]
        if bad:
            raise ConfigError(f"unknown detectors {bad}; valid: {DETECTOR_ORDER}")
        if not dets:
            raise ConfigError("at least one detector is required")
        return tuple(d for d in DETECTOR_ORDER if d in dets)

    def validate(self):
        bad = [c for c in self.experiment if c in ',"#' or not c.isprintable()]
        if bad:
            raise ConfigError(
                f"experiment {self.experiment!r} contains {bad[0]!r}: names "
                f"must be printable, without ',', '\"' or '#'"
            )
        counts = {k: getattr(self, k) for k in (
            "M", "seed", "min_bit_errors", "max_bits", "n_prime", "max_passes")}
        if self.L != "dense":
            counts["L"] = self.L
        if self.seq_sets not in ("auto", "per_tx"):
            counts["seq_sets"] = self.seq_sets
        for k, v in counts.items():  # never truncated
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ConfigError(f"{k} must be an integer, got {v!r}")
        if self.M < 1:
            raise ConfigError("M must be >= 1")
        if not 0 < self.alpha < math.inf:
            raise ConfigError("alpha must be > 0 and finite")
        if self.L != "dense" and self.L < 1:
            raise ConfigError("L must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        if self.min_bit_errors < 0:
            raise ConfigError("min_bit_errors must be >= 0")
        if self.max_bits < self.M:
            raise ConfigError("max_bits must allow at least one transmission")
        if not 1 <= self.max_passes * self.M < 2 ** 63:
            raise ConfigError("max_passes must be in [1, 2**63 / M)")
        if not 0 <= self.n_prime < 2 ** 63:
            raise ConfigError("n_prime must be in [0, 2**63)")
        if "seq_sets" in counts and self.seq_sets < 1:
            raise ConfigError("seq_sets count must be >= 1")
        if not self.snr_points():
            raise ConfigError("snr_db must contain at least one value")
        streams = {}  # trial-stream code -> SNR
        for s in self.snr_points():
            if math.isnan(s):
                raise ConfigError("snr_db must not be NaN")
            try:
                snr_to_sigma(s)
            except ValueError as e:
                raise ConfigError(str(e))
            if math.isinf(s * 1000.0) and not math.isinf(s):
                raise ConfigError(f"snr_db = {s!r} is too large for a trial "
                                  f"stream, which encodes 0.001 dB steps")
            code = _snr_code(s)
            if code < 0:
                raise ConfigError(f"snr_db = {s!r} is below -4194.304 dB, "
                                  f"the lowest SNR a trial stream encodes")
            if code in streams:
                raise ConfigError(
                    f"snr_db values {streams[code]!r} and {s!r} share one "
                    f"trial stream (SNRs are told apart to 0.001 dB)")
            streams[code] = s
        dets = self.normalized_detectors()
        # feasibility of the point itself; chip indices are int32
        if not self.M / self.alpha < 2 ** 31 - 0.5:
            raise InfeasibleError(
                f"C = round(M/alpha) = {self.M / self.alpha:.10g} reaches 2**31")
        if self.C < 1:
            raise InfeasibleError(
                f"C = round(M/alpha) = {self.C}: no chips at this load"
            )
        if self.C < self.resolved_L():
            raise InfeasibleError(
                f"C = round(M/alpha) = {self.C} < L = {self.resolved_L()}"
            )
        if "GML" in dets and self.M > MAX_EXHAUSTIVE_BITS:
            raise InfeasibleError(
                f"GML is exhaustive and capped at M <= {MAX_EXHAUSTIVE_BITS}"
            )


@dataclass
class BerEstimate:
    """One estimate row: a (point, detector, sequence set) combination.

    seq_set is the set index, "avg" for the pooled row, or "per_tx" when a
    fresh matrix is drawn each transmission.  nonconverged counts the
    detector runs that hit max_passes before a verified fixed point; their
    decisions are in the estimate, and the count is not written to the CSV.
    gml_* audit fields are pooled over the whole point and attached to the
    aggregate row of each ascent detector when GML ran alongside it.
    """

    experiment: str
    detector: str
    M: int
    C: int
    L: object
    alpha_req: float
    alpha_eff: float
    snr_db: float
    seq_set: str
    bits: int
    errors: int
    ber: float
    ci_low: float
    ci_high: float
    adds_per_bit: float
    passes_mean: float
    censored: bool
    nonconverged: int = 0
    gml_match_rate: object = None
    gml_omega_violations: object = None


@dataclass
class _PointCtx:
    """Everything a worker needs to run trials of one point."""

    M: int
    C: int
    L: int
    snr_db: float
    detectors: tuple
    amplitudes: np.ndarray
    params: ChannelParams
    n_prime: int
    max_passes: int
    sets: object  # the fixed SequenceMatrix list, or None for per-tx
    xcorr: object  # the fixed sets' stacked CrossCorr, or None
    trial_keys: tuple  # per-set 128-bit Philox keys


def _snr_code(snr_db):
    # stable nonnegative integer encoding for substream derivation
    if math.isinf(snr_db):
        return 0xFFFFFFFF if snr_db > 0 else 0xFFFFFFFE
    return int(round(snr_db * 1000.0)) + (1 << 22)


def _trial_key(seed, M, C, L, snr_db, set_idx):
    """128-bit stream key for one (point, set); trials index its counter."""
    ss = np.random.SeedSequence(
        seed, spawn_key=(1, M, C, L, _snr_code(snr_db), set_idx)
    )
    return ss.generate_state(2, np.uint64)


def _trial_rng(ctx, set_idx, trial_idx):
    # counter-block streams: trials are independent and schedule-agnostic
    bitgen = np.random.Philox(counter=[0, 0, 0, trial_idx],
                              key=ctx.trial_keys[set_idx])
    return np.random.Generator(bitgen)


def _set_matrix_rng(seed, M, C, L, set_idx):
    # no SNR in the key: fixed sets persist across an SNR sweep
    ss = np.random.SeedSequence(seed, spawn_key=(0, M, C, L, set_idx))
    return np.random.default_rng(ss)


def _build(ctx, items):
    """Draw the transmissions items = [(set index, trial index), ...], each
    from its own trial substream in the order a lone trial draws, and build
    them as one stack.  Returns (sent bits, matched-filter outputs, stacked
    CrossCorr, H block of each transmission)."""
    rngs = [_trial_rng(ctx, s, t) for s, t in items]
    S = None if ctx.sets else gen_sparse_matrix(ctx.C, ctx.M, ctx.L, rngs)
    b = np.stack([g.integers(0, 2, ctx.M, dtype=np.int8) for g in rngs]) * 2 - 1
    if S is not None:
        y = matched_filter(S, transmit(S, ctx.params, b, rngs))
        return b, y, crosscorrelation(S, ctx.amplitudes), np.arange(len(b))
    block = np.array([s for s, _ in items])
    y = np.stack([
        matched_filter(ctx.sets[s], transmit(ctx.sets[s], ctx.params, bt, g))
        for s, bt, g in zip(block, b, rngs)])
    return b, y, ctx.xcorr, block


def _detect(ctx, b, y, xc, block):
    """Run every detector on built transmissions (see _build); the LAS
    detectors of all of them run as rows of one lockstep kernel call.

    Returns counts: counts[t, d] holds (errors, additions, passes,
    unconverged, equals the GML decision, likelihood above GML's) of
    detector d on transmission t; the last two are set for SLAS and WSLAS
    when GML runs.
    """
    T = len(b)
    las = [d for d in ctx.detectors if d in LML_DETECTORS]
    counts = np.zeros((T, len(ctx.detectors), 6), dtype=np.int64)
    decided = np.empty((T, len(ctx.detectors), ctx.M), dtype=np.int8)
    b_mf = mf_detect(y)
    if las:
        runs = las_lockstep(
            y, xc, ctx.amplitudes, b_mf,
            n_prime=[0 if d == "SLAS" else ctx.n_prime for d in las] * T,
            max_passes=ctx.max_passes,
            problem=np.repeat(np.arange(T), len(las)), block=block,
        )
    for d, det in enumerate(ctx.detectors):
        if det == "MF":
            decided[:, d] = b_mf
        elif det in LML_DETECTORS:
            rows = slice(las.index(det), None, len(las))
            decided[:, d] = runs.bits[rows]
            counts[:, d, 1] = runs.additions[rows]
            counts[:, d, 2] = runs.passes[rows]
            counts[:, d, 3] = ~runs.converged[rows]
        else:  # GML comes last: the LAS decisions are audited against it
            audited = [ctx.detectors.index(a) for a in las]
            for t in range(T):
                xc_t = xc.block(block[t])
                gml = gml_exhaustive(y[t], xc_t, ctx.amplitudes)[0]
                decided[t, d] = gml
                om_gml = likelihood(gml, y[t], xc_t, ctx.amplitudes)
                tol = 1e-9 * (1.0 + abs(om_gml))
                for a in audited:
                    counts[t, a, 4] = np.array_equal(decided[t, a], gml)
                    counts[t, a, 5] = likelihood(
                        decided[t, a], y[t], xc_t, ctx.amplitudes) > om_gml + tol
    counts[:, :, 0] = np.count_nonzero(decided != b[:, None], axis=2)
    return counts


def _group_size(ctx):
    """Trials per lockstep group: they hold about _LOCKSTEP_ENTRIES array
    entries, which bounds memory.  A trial with no LAS row still holds its
    M outputs."""
    held = max(1, sum(d in LML_DETECTORS for d in ctx.detectors)) * ctx.M
    if ctx.sets is None:
        held += ctx.M * max(ctx.M, ctx.C)
    return -(-_LOCKSTEP_ENTRIES // held)


def _run_trials(ctx, items):
    """Build and detect the trials [(set index, trial index), ...] as one
    lockstep group and return _detect's counts, one entry per trial, in
    order.  _run_point cuts batches into groups of _group_size, and a pool
    task is one group; a trial's result does not depend on its group, its
    worker or the order groups run in."""
    return _detect(ctx, *_build(ctx, items))


_WORKER_SETS = None  # (sets, xcorr) a worker inherited at its fork


def _worker_init(sets, xcorr):
    global _WORKER_SETS
    _WORKER_SETS = sets, xcorr


def _worker_trials(task):
    ctx, items = task
    sets, xcorr = _WORKER_SETS
    return _run_trials(replace(ctx, sets=sets, xcorr=xcorr), items)


class _Pool:
    """One command's worker pool, of min(workers, usable cores) processes.

    A batch of one lockstep group, or any batch when that count is 1, runs
    in the calling process.  The pool forks at the first batch of two
    groups or more, and serves every later point with the same fixed sets
    (all per-transmission points have none): each task is the point's
    context without its sets, and one group.  A point with other fixed sets
    forks a new pool, so its workers inherit H copy-on-write.  Used as a
    context manager: the pool is joined on return, terminated on an error.
    """

    def __init__(self, workers):
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.processes = min(workers, _usable_cores())
        self._pool = self._sets = None

    def run(self, ctx, groups):
        """_run_trials of every group, in order."""
        if self.processes == 1 or len(groups) == 1:
            return [_run_trials(ctx, g) for g in groups]
        if self._pool is None or self._sets is not ctx.sets:
            self.close()
            # workers fill the cores, so they fork with one BLAS thread
            # each: with one per core, per-tx points' products thrashed
            blas = _blas_threads(1)
            try:
                self._pool = multiprocessing.Pool(
                    self.processes, initializer=_worker_init,
                    initargs=(ctx.sets, ctx.xcorr))
            finally:
                if blas:
                    _blas_threads(blas)
            self._sets = ctx.sets
        bare = replace(ctx, sets=None, xcorr=None)
        return self._pool.map(_worker_trials, [(bare, g) for g in groups],
                              chunksize=1)

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, kind, error, trace):
        if kind is not None and self._pool is not None:
            self._pool.terminate()
        self.close()


def _blas_threads(n):
    """Set numpy's bundled OpenBLAS to n threads; returns the count it had,
    or None, changing nothing, where that library is not loaded."""
    try:
        with open("/proc/self/maps") as f:  # Linux
            lib = ctypes.CDLL(next(ln.split()[-1] for ln in f
                                   if "libscipy_openblas64_" in ln))
        old = lib.scipy_openblas_get_num_threads64_()
    except (OSError, StopIteration, AttributeError):
        return None
    lib.scipy_openblas_set_num_threads64_(n)
    return old


def _next_batch_trials(config, bits_per_round, trials_done, pooled_errors):
    """Deterministic batch sizing from merged totals only (worker-agnostic)."""
    min_bit_errors, pooled_bits = config.min_bit_errors, trials_done * bits_per_round
    if pooled_bits >= config.max_bits:
        return 0
    remaining = -(-(config.max_bits - pooled_bits) // bits_per_round)
    if min_bit_errors == 0:
        return min(remaining, _MAX_BATCH_TRIALS)
    if trials_done == 0:
        n = -(-_INITIAL_PROBE_BITS // bits_per_round)
    else:
        need_bits = 0.0
        for err in pooled_errors:
            if err >= min_bit_errors:
                continue
            if err == 0:
                need = 2.0 * pooled_bits  # no rate information yet: triple total
            else:
                need = (min_bit_errors - err) * pooled_bits / err * 1.15
            need_bits = max(need_bits, need)
        n = -(-int(need_bits) // bits_per_round)
    return max(1, min(n, remaining, _MAX_BATCH_TRIALS))


def _resolve_sets(config):
    """Returns (n_sets, sets, xcorr) under the sequence-set policy: the
    fixed SequenceMatrix list and their stacked CrossCorr, or None, None
    for a fresh matrix per transmission."""
    M, C, L = config.M, config.C, config.resolved_L()
    policy = config.seq_sets
    if policy == "auto":
        policy = "per_tx" if M <= PER_TX_MAX_BITS else DEFAULT_FIXED_SETS
    if policy == "per_tx":
        return 1, None, None
    n_sets = int(policy)
    # one stack, each set's H written into its block.  The sets are drawn
    # and correlated once per point, here in the main process; their PCG64
    # streams are drawn on a thread per usable core whatever --workers is,
    # while per-transmission matrices, from Philox streams, take one
    S = gen_sparse_matrix(C, M, L, [_set_matrix_rng(config.seed, M, C, L, s)
                                    for s in range(n_sets)])
    sets = [SequenceMatrix(C, M, c, g) for c, g in zip(S.chips, S.signs)]
    return n_sets, sets, crosscorrelation(S, np.ones(M))


def _point_rows(config, ctx, n_sets, tally, trials_done, censored):
    label = f"{config.experiment}[seed={config.seed}]"
    L_label = "dense" if config.L == "dense" else ctx.L

    def estimate(det, seq_set, counts, trials):
        err, adds, passes, unconverged = counts[:4].tolist()
        bits = trials * ctx.M
        lo, hi = wilson_interval(err, bits)
        return BerEstimate(
            experiment=label, detector=det, M=ctx.M, C=ctx.C, L=L_label,
            alpha_req=config.alpha, alpha_eff=config.alpha_eff,
            snr_db=ctx.snr_db, seq_set=seq_set, bits=bits, errors=err,
            ber=err / bits if bits else 0.0, ci_low=lo, ci_high=hi,
            adds_per_bit=adds / bits if bits else 0.0,
            passes_mean=passes / trials if trials else 0.0,
            censored=censored, nonconverged=unconverged,
        )

    rows = []
    for d_idx, det in enumerate(ctx.detectors):
        per_set = [
            estimate(det, "per_tx" if ctx.sets is None else str(s),
                     tally[s, d_idx], trials_done)
            for s in range(n_sets)
        ]
        pooled = tally[:, d_idx].sum(axis=0)
        if n_sets > 1:
            per_set.append(estimate(det, "avg", pooled, trials_done * n_sets))
        # the audit goes on the aggregate row: the avg row, or the only one
        if det in LML_DETECTORS and "GML" in ctx.detectors and trials_done:
            matches, viols = pooled[4:].tolist()
            per_set[-1].gml_match_rate = matches / (trials_done * n_sets)
            per_set[-1].gml_omega_violations = viols
        rows.extend(per_set)
    return rows


def _run_point(config, snr_db, pool, n_sets, sets, xcorr):
    """Run one SNR point of config, its groups on the command's _Pool, and
    return its rows."""
    M, C, L = config.M, config.C, config.resolved_L()
    detectors = config.normalized_detectors()
    amplitudes = np.ones(M)
    ctx = _PointCtx(
        M=M, C=C, L=L, snr_db=snr_db,
        detectors=detectors, amplitudes=amplitudes,
        params=ChannelParams(amplitudes, snr_to_sigma(snr_db)),
        n_prime=config.n_prime, max_passes=config.max_passes,
        sets=sets, xcorr=xcorr,
        trial_keys=tuple(
            _trial_key(config.seed, M, C, L, snr_db, s) for s in range(n_sets)
        ),
    )

    # per set and detector: the counts of _detect, summed over trials
    tally = np.zeros((n_sets, len(detectors), 6), dtype=np.int64)
    trials_done = 0
    bits_per_round = M * n_sets
    size = _group_size(ctx)  # trials per lockstep group and per pool task

    while True:
        errs = tally[:, :, 0].sum(axis=0).tolist()
        if 0 < config.min_bit_errors <= min(errs):
            break
        n = _next_batch_trials(config, bits_per_round, trials_done, errs)
        if n == 0:
            break
        batch_args = [(s, t) for s in range(n_sets)
                      for t in range(trials_done, trials_done + n)]
        counts = pool.run(ctx, [batch_args[i:i + size]
                                for i in range(0, len(batch_args), size)])
        np.add.at(tally, [s for s, _ in batch_args], np.concatenate(counts))
        trials_done += n

    # errs is current: the loop leaves only right after computing it
    censored = 0 < config.min_bit_errors and min(errs) < config.min_bit_errors
    return _point_rows(config, ctx, n_sets, tally, trials_done, censored)


def run_experiment(config, workers=1):
    """Run one experiment (all its SNR points) and return BerEstimate rows.

    Fixed sets are drawn once and serve every SNR point.
    """
    config.validate()
    with _Pool(workers) as pool:
        return _run_config(config, pool)


def _run_config(config, pool):
    """run_experiment of a validated config, on the command's _Pool."""
    n_sets, sets, xcorr = _resolve_sets(config)
    rows = []
    for snr in config.snr_points():
        rows.extend(_run_point(config, snr, pool, n_sets, sets, xcorr))
    return rows


def sweep(config, bk_list=None, l_list=None, workers=1):
    """Run the grid l_list x bk_list and return (rows, failures).

    Each list defaults to the config's own L or M, and every point runs
    over the config's SNR list, L outermost.  Every point is validated
    before any runs: an infeasible one becomes a failure ("L=...,M=...",
    InfeasibleError) and the rest still run; any other ConfigError raises,
    as does a list that repeats a value or two points that resolve to one
    (M, C, L) (both would run on one trial stream).
    A point whose run cannot allocate its arrays (MemoryError) is a failure
    too, and writes no rows.  All points share one worker pool (see _Pool).
    """
    pool = _Pool(workers)
    for name, values in (("bk_list", bk_list), ("l_list", l_list)):
        if values and len(set(values)) < len(values):
            raise ConfigError(f"{name} repeats a value: {values!r}")
    points, failures, streams = [], [], {}
    for L in l_list or (config.L,):
        for M in bk_list or (config.M,):
            point = replace(config, L=L, M=M)
            try:
                point.validate()
            except InfeasibleError as e:
                failures.append((f"L={L},M={M}", e))
                continue
            key = (M, point.C, point.resolved_L())
            if key in streams:
                raise ConfigError(
                    f"grid points {streams[key]} and L={L},M={M} share one "
                    f"trial stream (M={M}, C={key[1]}, L={key[2]})")
            streams[key] = f"L={L},M={M}"
            points.append(point)
    rows = []
    with pool:
        for point in points:
            try:
                rows.extend(_run_config(point, pool))
            except MemoryError as e:
                refused = str(e) or "out of memory"
                failures.append((f"L={point.L},M={point.M}", InfeasibleError(
                    f"C = round(M/alpha) = {point.C}: {refused}")))
    return rows, failures


def snr_text(snr_db):
    """snr_db as printed in the CSV and the report lines: :g, or its repr
    where :g would read back as another float."""
    text = f"{snr_db:g}"
    return text if float(text) == snr_db else repr(snr_db)


# the CSV columns in order: (BerEstimate field, printer of its value)
_CSV_COLUMNS = (
    ("experiment", str), ("detector", str), ("M", str), ("C", str), ("L", str),
    ("alpha_req", "{:.6g}".format), ("alpha_eff", "{:.6g}".format),
    ("snr_db", snr_text), ("seq_set", str), ("bits", str), ("errors", str),
    ("ber", "{:.6e}".format), ("ci_low", "{:.6e}".format),
    ("ci_high", "{:.6e}".format), ("adds_per_bit", "{:.4f}".format),
    ("passes_mean", "{:.4f}".format), ("censored", lambda v: "1" if v else "0"),
)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


def _format_row(e):
    return ",".join(show(getattr(e, name)) for name, show in _CSV_COLUMNS)


def write_csv(rows, fp):
    """Emit estimate rows in the fixed CSV schema (fixed-precision floats,
    so identical results give identical bytes)."""
    if isinstance(fp, (str, Path)):
        with open(fp, "w", encoding="utf-8") as f:
            write_csv(rows, f)
        return
    fp.write(CSV_HEADER + "\n")
    for e in rows:
        fp.write(_format_row(e) + "\n")

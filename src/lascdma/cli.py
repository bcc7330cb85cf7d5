"""Command-line front end: presets, config files, CSV emission.

Config files are flat UTF-8 `key = value` lines with `#` comments.  The
preset subcommands are just built-in config mappings, so `--set KEY=VALUE`
overrides apply uniformly and `--dump-config` writes the effective config
for exact replay with `run`.
"""

import argparse
import os
import sys

import numpy as np

from . import detect, seqgen
from .channel import ChannelParams, matched_filter, snr_to_sigma, transmit
from .harness import (ConfigError, ExperimentConfig, snr_text, sweep,
                      write_csv)

# each preset is the paper's operating point with what its figure sweeps; the
# experiment is named after the preset
_PAPER_POINT = {"M": "1024", "alpha": "0.8", "snr_db": "11",
                "detectors": "MF,SLAS"}
_PRESETS = {
    # BER and additions/bit versus total bit count, one curve per L
    "fig1": {**_PAPER_POINT, "bk_list": "64,128,256,512,1024",
             "l_list": "4,8,16,dense"},
    # BER and additions/bit versus nonzero-chip count at M = 1024
    "fig2": {**_PAPER_POINT, "l_list": "4,8,16,dense"},
    # BER versus SNR at M = 1024, sparse (L=16) and dense reference
    "fig3": {**_PAPER_POINT, "snr_db": "2,4,6,8,10,11,12", "l_list": "16,dense"},
}


def _parse_config_file(path):
    mapping = {}
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file: {e}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        mapping[key] = value
    return mapping


def _parse_int(key, s):
    try:
        if "e" in s.lower() or "." in s:  # scientific notation, e.g. 1e6
            v = float(s)
            if not v.is_integer():
                raise ValueError
            return int(v)
        return int(s)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {s!r}")


def _parse_float(key, s):
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {s!r}")


def _parse_l_value(key, s):  # an l_list item is reported as L
    s = s.strip()
    return s if s == "dense" else _parse_int("L", s)


def _parse_seq_sets(key, s):
    s = s.strip()
    return s if s in ("auto", "per_tx") else _parse_int(key, s)


def _comma_list(parse):
    """A parser of comma-separated items; an item parsed as "" is left out."""
    return lambda key, s: tuple(
        v for v in (parse(key, tok) for tok in s.split(",")) if v != "")


def _parse_snr(key, s):
    try:
        return _comma_list(_parse_float)(key, s)
    except ConfigError:  # reported as the whole list
        raise ConfigError(f"{key}: expected numbers, got {s!r}") from None


# every config key and its parser, in --dump-config order
_CONFIG_KEYS = {
    "experiment": lambda key, s: s.strip(),
    "M": _parse_int,
    "alpha": _parse_float,
    "L": _parse_l_value,
    "snr_db": _parse_snr,
    "detectors": _comma_list(lambda key, s: s.strip().upper()),
    "seed": _parse_int,
    "min_bit_errors": _parse_int,
    "max_bits": _parse_int,
    "seq_sets": _parse_seq_sets,
    "n_prime": _parse_int,
    "max_passes": _parse_int,
    "bk_list": _comma_list(_parse_int),
    "l_list": _comma_list(_parse_l_value),
}


def _config_from_mapping(mapping):
    """(ExperimentConfig, bk_list, l_list); a list not given is None."""
    unknown = sorted(set(mapping) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, parse in _CONFIG_KEYS.items():
        if key in mapping:
            values[key] = parse(key, mapping[key])
        elif key in ("M", "alpha"):
            raise ConfigError(f"config requires {key}")
    grid = values.pop("bk_list", None), values.pop("l_list", None)
    return (ExperimentConfig(**values), *grid)


def _effective_mapping(config, bk_list, l_list):
    # one printer for every key: str (a float's str is its repr), and a
    # list's items joined by commas
    values = dict(vars(config), snr_db=config.snr_points(),
                  detectors=config.normalized_detectors(),
                  bk_list=bk_list, l_list=l_list)
    return {key: ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for key in _CONFIG_KEYS if (v := values[key]) is not None}


def _dump_config(mapping, path):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in mapping.items():
            f.write(f"{key} = {value}\n")


def _check_writable(path):
    """ConfigError unless path can be opened for writing; an existing file
    keeps its contents, and no new file is left behind."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}")
    if not existed:
        os.remove(path)


def _report(rows, out, err):
    """The audit line of each row that carries one, then one warning line
    per point whose LAS runs hit max_passes unconverged."""
    points = {}
    for e in rows:
        if e.gml_match_rate is not None:
            out.write(
                f"audit: {e.detector} vs GML over {e.bits // e.M} trials "
                f"(M={e.M}, L={e.L}, snr={snr_text(e.snr_db)} dB): "
                f"agreement {e.gml_match_rate:.4f}, "
                f"likelihood dominance violations {e.gml_omega_violations}\n"
            )
        if e.seq_set == "avg":
            continue  # pooled from the set rows
        key = (e.experiment, e.M, e.L, e.snr_db)
        tally = points.setdefault(key, {}).setdefault(e.detector, [0, 0])
        tally[0] += e.nonconverged
        tally[1] += e.bits // e.M
    for (_, M, L, snr), tallies in points.items():
        hit = [f"{det} {n} of {trials}"
               for det, (n, trials) in tallies.items() if n]
        if hit:
            err.write(
                f"warning: runs stopped at max_passes before a verified fixed "
                f"point (M={M}, L={L}, snr={snr_text(snr)} dB): "
                f"{', '.join(hit)}; their decisions are in the BER\n"
            )


# ---------------------------------------------------------------------------
# selftest: quick invariant suites over randomized instances


def _random_instance(rng, M, alpha, L, snr_db):
    C = int(round(M / alpha))
    S = seqgen.gen_sparse_matrix(C, M, L, rng)
    A = np.ones(M)
    xc = seqgen.crosscorrelation(S, A)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    params = ChannelParams(A, snr_to_sigma(snr_db))
    y = matched_filter(S, transmit(S, params, b, rng))
    return S, xc, A, b, y


def _st_gradient_accounting(rng):
    for i in range(40):
        _, xc, A, _, y = _random_instance(rng, 48, 0.8, 6, 8.0)
        b0 = detect.mf_detect(y)
        for run in (
            detect.slas_detect(y, xc, A, b0, check_gradient=True,
                               record_flips=True),
            detect.wslas_detect(y, xc, A, b0, n_prime=5, check_gradient=True,
                                record_flips=True),
        ):
            if not run.converged:
                return f"run {i} failed to converge"
            nnz_col = np.diff(xc.indptr)
            recount = sum(
                int(nnz_col[k]) for _, flipped in run.flip_log for k in flipped
            )
            if recount != run.additions:
                return f"additions {run.additions} != flip-log recount {recount}"
    return None


def _st_lml_fixed_point(rng):
    for i in range(200):
        M = 8 if i % 2 == 0 else 12
        _, xc, A, _, y = _random_instance(rng, M, 0.8, 3, 8.0)
        run = detect.slas_detect(y, xc, A, detect.mf_detect(y))
        if not run.converged:
            return f"instance {i} did not converge"
        om = detect.likelihood(run.bits, y, xc, A)
        for k in range(M):
            nb = run.bits.copy()
            nb[k] = -nb[k]
            om_k = detect.likelihood(nb, y, xc, A)
            if om_k > om + 1e-12 * (1.0 + abs(om)):
                return f"instance {i}: flipping bit {k} raises the likelihood"
    return None


def _st_oracle_dominance(rng):
    for i in range(200):
        _, xc, A, _, y = _random_instance(rng, 10, 0.5, 4, 9.0)
        run = detect.slas_detect(y, xc, A, detect.mf_detect(y))
        _, om_gml = detect.gml_exhaustive(y, xc, A)
        om = detect.likelihood(run.bits, y, xc, A)
        if om > om_gml + 1e-9 * (1.0 + abs(om_gml)):
            return f"instance {i}: fixed point beats the exhaustive optimum"
    return None


def _st_crosscorr_dense(rng):
    for i in range(20):
        C = int(rng.integers(8, 41))
        M = int(rng.integers(2, 17))
        L = int(rng.integers(1, min(C, 8) + 1))
        S = seqgen.gen_sparse_matrix(C, M, L, rng)
        xc = seqgen.crosscorrelation(S, np.full(M, 1.0))
        Sd = S.dense_matrix
        if np.max(np.abs(xc.dense_h() - Sd.T @ Sd)) > 1e-12:  # A = 1: H = R
            return f"instance {i}: sparse R deviates from the dense product"
    return None


def _st_noise_free_identity(rng):
    for i in range(20):
        M = int(rng.integers(2, 33))
        L = int(rng.integers(1, min(6, 2 * M) + 1))  # L <= C = 2M
        _, xc, A, b, y = _random_instance(rng, M, 0.5, L, np.inf)  # sigma 0
        ref = xc.h_matvec((A * b).astype(np.float64))  # A = 1: H = R
        if np.max(np.abs(y - ref)) > 1e-10:
            return f"instance {i}: matched filter deviates from R(Ab)"
    return None


_SELFTESTS = (
    ("gradient-and-additions-accounting", _st_gradient_accounting),
    ("fixed-point-is-local-maximum", _st_lml_fixed_point),
    ("exhaustive-oracle-dominance", _st_oracle_dominance),
    ("sparse-crosscorrelation-vs-dense", _st_crosscorr_dense),
    ("noise-free-end-to-end-identity", _st_noise_free_identity),
)


def _selftest(seed, out):
    ok = True
    for idx, (name, fn) in enumerate(_SELFTESTS):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(idx,)))
        failure = fn(rng)
        if failure is None:
            out.write(f"selftest {name}: PASS\n")
        else:
            out.write(f"selftest {name}: FAIL ({failure})\n")
            ok = False
    return ok


# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lascdma",
        description="Monte-Carlo BER/complexity experiments for sparse-spreading "
                    "CDMA with likelihood ascent search detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="CSV output path (default <command>.csv)")
    common.add_argument("--seed", type=int, help="override the experiment seed")
    common.add_argument("--workers", type=int, default=1,
                        help="parallel trial workers (output is identical for any N)")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--dump-config", metavar="PATH",
                        help="write the effective config for replay with `run`")

    p_run = sub.add_parser("run", parents=[common],
                           help="run an explicit config file")
    p_run.add_argument("--config", required=True, help="config file path")
    for name in _PRESETS:
        sub.add_parser(name, parents=[common], help=f"run the {name} preset")
    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "selftest":
            if not 0 <= args.seed < 2 ** 64:  # as ExperimentConfig.validate
                raise ConfigError("seed must be a 64-bit unsigned integer")
            return 0 if _selftest(args.seed, out) else 1

        if args.command == "run":
            mapping = _parse_config_file(args.config)
        else:
            mapping = {"experiment": args.command, **_PRESETS[args.command]}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            mapping[key.strip()] = value.strip()
        if args.seed is not None:
            mapping["seed"] = str(args.seed)

        config, bk_list, l_list = _config_from_mapping(mapping)
        out_path = args.out or f"{args.command}.csv"
        _check_writable(out_path)
        if args.dump_config:
            _check_writable(args.dump_config)
            _dump_config(_effective_mapping(config, bk_list, l_list),
                         args.dump_config)

        rows, failures = sweep(config, bk_list, l_list, workers=args.workers)
        write_csv(rows, out_path)
        out.write(f"wrote {len(rows)} rows to {out_path}\n")
        _report(rows, out, sys.stderr)
        for label, exc in failures:
            sys.stderr.write(f"infeasible point {label}: {exc}\n")
        return 3 if failures else 0
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

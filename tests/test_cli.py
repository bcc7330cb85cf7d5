import csv
import dataclasses
import gc
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lascdma import cli, harness
from lascdma.cli import main
from lascdma.harness import (
    CSV_HEADER, ConfigError, ExperimentConfig, run_experiment, write_csv)


def read(path):
    return path.read_bytes()


# fast overrides shared by the preset tests: small system, fixed trial count
FAST = [
    "--set", "M=48", "--set", "min_bit_errors=0", "--set", "max_bits=4800",
    "--set", "snr_db=6,8", "--set", "l_list=4,dense",
]


# sparse points only: a dense point's S^T S goes through BLAS, whose
# rounding can differ between machines
_GOLDEN = [
    (["fig3", "--seed", "7", "--set", "M=256", "--set", "max_bits=25600",
      "--set", "min_bit_errors=0", "--set", "snr_db=4,8", "--set", "l_list=16",
      "--set", "detectors=MF,SLAS,WSLAS"],
     "84a66f182b8127ed289f9be7d003f9723933c465ce43bec3160f38ff72399793"),
    (["fig1", "--seed", "5", "--set", "bk_list=64,128", "--set", "l_list=4,16",
      "--set", "max_bits=12800", "--set", "min_bit_errors=0",
      "--set", "detectors=MF,SLAS,WSLAS"],
     "6addf34fe501b06ef80790833edf958ebaeb792c78d806ddb17028641b0de3db"),
]


@pytest.mark.parametrize("args, digest", _GOLDEN, ids=["fig3", "fig1"])
def test_golden_csv_bytes(tmp_path, args, digest):
    """A seed's CSV keeps its bytes: fixed sets reused over two SNR points,
    and a per-tx and fixed-set grid.  A change that declares a random-stream
    change updates these hashes and records the change in CHANGES.md."""
    out = tmp_path / "golden.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_selftest_passes(capsys):
    assert main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_selftest_draws_no_more_nonzeros_than_chips(capsys):
    # the noise-free suite drew L up to 6 for C = 2M chips, so at M = 2
    # some seeds (6 among them) raised ValueError out of main
    assert main(["selftest", "--seed", "6"]) == 0
    assert capsys.readouterr().out.count("PASS") == 5


def test_selftest_seed_out_of_range_exits_2(capsys):
    for seed in ("-1", str(2 ** 64)):
        assert main(["selftest", "--seed", seed]) == 2
        assert ("config error: seed must be a 64-bit unsigned integer"
                in capsys.readouterr().err)


def _env_with_src():
    """The environment with this package's src first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that
    imports the CLI loads no scipy module."""
    env = _env_with_src()
    probe = ("import sys, lascdma.cli; print(lascdma.cli.__file__); "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    lines = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                           capture_output=True, text=True).stdout.splitlines()
    assert Path(lines[0]).resolve() == Path(cli.__file__).resolve()
    assert lines[1] == "[]"


def test_cli_import_loads_no_thread_pool():
    """The fixed-set sampler imports its thread pool only when it draws on
    threads: a fresh interpreter that imports the CLI has not loaded it."""
    probe = "import sys, lascdma.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                          check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "False"


def test_preset_deterministic_across_runs_and_workers(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert main(["fig3", "--seed", "7", "--out", str(a), *FAST]) == 0
    assert main(["fig3", "--seed", "7", "--out", str(b), *FAST]) == 0
    assert main(["fig3", "--seed", "7", "--out", str(c), "--workers", "3", *FAST]) == 0
    assert read(a) == read(b) == read(c)
    d = tmp_path / "d.csv"
    assert main(["fig3", "--seed", "8", "--out", str(d), *FAST]) == 0
    assert read(a) != read(d)


# per preset: small overrides and the exact --dump-config text they give
_DUMPS = {
    "fig1": (["bk_list=16,32", "l_list=2,dense", "max_bits=640"],
             "experiment = fig1\nM = 1024\nalpha = 0.8\nL = dense\n"
             "snr_db = 11.0\ndetectors = MF,SLAS\nseed = 5\n"
             "min_bit_errors = 0\nmax_bits = 640\nseq_sets = auto\n"
             "n_prime = 10\nmax_passes = 100\nbk_list = 16,32\n"
             "l_list = 2,dense\n"),
    "fig2": (["M=32", "max_bits=1600", "l_list=2,4"],
             "experiment = fig2\nM = 32\nalpha = 0.8\nL = dense\n"
             "snr_db = 11.0\ndetectors = MF,SLAS\nseed = 5\n"
             "min_bit_errors = 0\nmax_bits = 1600\nseq_sets = auto\n"
             "n_prime = 10\nmax_passes = 100\nl_list = 2,4\n"),
    "fig3": (["M=32", "max_bits=640", "snr_db=4,8", "l_list=4,dense"],
             "experiment = fig3\nM = 32\nalpha = 0.8\nL = dense\n"
             "snr_db = 4.0,8.0\ndetectors = MF,SLAS\nseed = 5\n"
             "min_bit_errors = 0\nmax_bits = 640\nseq_sets = auto\n"
             "n_prime = 10\nmax_passes = 100\nl_list = 4,dense\n"),
}
# integral scientific notation is read exactly: 2**53 + 1 is no float, and
# 2**64 - 1 is the largest seed
_DUMPS.update({
    f"fig3:{seed}": (["M=32", "max_bits=6.4e2", "snr_db=4,8", "l_list=4,dense",
                      f"seed={seed}e0"],
                     _DUMPS["fig3"][1].replace("seed = 5", f"seed = {seed}"))
    for seed in (2 ** 53 + 1, 2 ** 64 - 1)})


@pytest.mark.parametrize("preset", sorted(_DUMPS))
def test_config_round_trip(tmp_path, preset):
    """Every key is dumped in one fixed order and format, and the dump
    replays to the same CSV bytes."""
    overrides, expected = _DUMPS[preset]
    out1 = tmp_path / "direct.csv"
    dumped = tmp_path / "effective.cfg"
    # --seed overrides every --set seed=, so the seed cases leave it out
    seed = [] if ":" in preset else ["--seed", "5"]
    assert main([preset.split(":")[0], *seed, "--out", str(out1),
                 "--dump-config", str(dumped), "--set", "min_bit_errors=0",
                 *(arg for kv in overrides for arg in ("--set", kv))]) == 0
    assert dumped.read_text(encoding="utf-8") == expected
    out2 = tmp_path / "replayed.csv"
    assert main(["run", "--config", str(dumped), "--out", str(out2)]) == 0
    assert read(out1) == read(out2)


def test_config_keys_are_one_schema():
    """The key table holds ExperimentConfig's fields and the two grid lists,
    and the README's config-file example lists them in the table's order."""
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert sorted(cli._CONFIG_KEYS) == sorted([*fields, "bk_list", "l_list"])
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    example = readme.split("Config files are flat")[1].split("```")[1]
    assert re.findall(r"^#? ?(\w+) =", example, re.M) == list(cli._CONFIG_KEYS)



def test_csv_columns_are_one_schema():
    """The CSV table's columns are BerEstimate fields, and the README's
    Output section shows CSV_HEADER."""
    fields = [f.name for f in dataclasses.fields(harness.BerEstimate)]
    names = [name for name, _ in harness._CSV_COLUMNS]
    assert set(names) <= set(fields) and len(set(names)) == len(names)
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Output")[1].split("```")[1]
    assert block.strip() == CSV_HEADER

def test_run_requires_config_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 0.8\n")  # missing M
    assert main(["run", "--config", str(cfg)]) == 2
    cfg.write_text("M = 16\nalpha = 0.8\nbogus_key = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    cfg.write_text("M = 16\nalpha\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg.write_bytes(b"M = 16\nalpha = 0.8\nexperiment = \xff\n")  # not UTF-8
    assert main(["run", "--config", str(cfg)]) == 2


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "c.cfg"
    text = ("M = 16\nalpha = 0.8\nL = 4\nsnr_db = 6\ndetectors = MF\n"
            "max_bits = 160\nmin_bit_errors = 0\n")
    outs = []
    for encoding in ("utf-8", "utf-8-sig"):
        cfg.write_text(text, encoding=encoding)
        outs.append(tmp_path / f"{encoding}.csv")
        assert main(["run", "--config", str(cfg), "--out", str(outs[-1])]) == 0
    assert read(outs[0]) == read(outs[1])


def test_config_file_is_closed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("M = 16\nalpha = 0.8\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert cli._parse_config_file(cfg) == {"M": "16", "alpha": "0.8"}
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_csv_is_utf8_under_an_ascii_locale(tmp_path):
    """The config is read as UTF-8, so the CSV that carries its experiment
    name is written as UTF-8 too, whatever the locale's encoding."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = caf\u00e9\u20ac\nM = 16\nalpha = 0.8\n"
                   "L = 4\nsnr_db = 6\ndetectors = MF\nmax_bits = 160\n"
                   "min_bit_errors = 0\n", encoding="utf-8")
    env = _env_with_src()
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    done = subprocess.run(
        [sys.executable, "-m", "lascdma.cli", "run", "--config", "c.cfg",
         "--out", "c.csv"], cwd=tmp_path, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    rows = (tmp_path / "c.csv").read_bytes().decode("utf-8").splitlines()
    assert rows[1].startswith("caf\u00e9\u20ac[seed=0],MF,")


def test_unwritable_path_exits_2_before_any_point(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a point was simulated")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    missing = tmp_path / "no-such-dir"
    out = tmp_path / "x.csv"
    assert main(["fig1", *SMALL_FIG1, "--out", str(out),
                 "--dump-config", str(missing / "x.cfg")]) == 2
    assert f"config error: cannot write {missing}" in capsys.readouterr().err
    assert main(["fig1", *SMALL_FIG1, "--out", str(missing / "x.csv")]) == 2
    assert f"config error: cannot write {missing}" in capsys.readouterr().err
    assert main(["fig1", *SMALL_FIG1, "--out", str(tmp_path)]) == 2
    assert f"config error: cannot write {tmp_path}" in capsys.readouterr().err
    assert not out.exists() and not missing.exists()
    out.write_text("kept")  # an existing CSV keeps its bytes
    assert main(["fig1", *SMALL_FIG1, "--out", str(out),
                 "--dump-config", str(missing / "x.cfg")]) == 2
    assert out.read_text() == "kept"


def test_bad_set_override():
    assert main(["fig3", "--set", "oops"]) == 2
    assert main(["fig3", "--set", "unknown_key=3"]) == 2


def test_infeasible_point_exit_code(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("M = 8\nalpha = 0.8\nL = 64\nexperiment = x\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3


@pytest.mark.parametrize("alpha, C", [("1e-320", "inf"), ("1e-300", "1.6e+301")])
def test_unrepresentable_chip_count_is_infeasible(tmp_path, capsys, alpha, C):
    # M/alpha overflows, or C = round(M/alpha) overflows the int32 chips
    assert main(["fig1", "--set", "bk_list=16", "--set", "l_list=4",
                 "--set", "max_bits=64", "--set", "min_bit_errors=0",
                 "--set", f"alpha={alpha}", "--out",
                 str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert f"infeasible point L=4,M=16: C = round(M/alpha) = {C}" in err
    assert "reaches 2**31" in err and "Traceback" not in err


def test_sweep_with_infeasible_point_continues(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "M = 64\nalpha = 0.8\nL = 16\nsnr_db = 6\ndetectors = MF\n"
        "min_bit_errors = 0\nmax_bits = 1280\nbk_list = 8,64\n"
    )
    out = tmp_path / "s.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    text = out.read_text()
    assert ",64," in text  # the feasible point was still written
    err = capsys.readouterr().err
    assert "M=8" in err


def test_point_out_of_memory_is_infeasible(tmp_path, capsys, monkeypatch):
    """A point whose arrays cannot be allocated is reported like an
    infeasible one, and the other points are still written."""
    refused = ("Unable to allocate 16.0 GiB for an array with shape "
               "(1, 2147483647) and data type float64")
    gen = harness.gen_sparse_matrix

    def gen_or_refuse(C, M, L, rng, **kwargs):
        if M == 32:
            raise MemoryError(refused)
        return gen(C, M, L, rng, **kwargs)

    monkeypatch.setattr(harness, "gen_sparse_matrix", gen_or_refuse)
    out = tmp_path / "x.csv"
    assert main(["fig1", "--set", "bk_list=16,32", "--set", "l_list=4",
                 "--set", "max_bits=64", "--set", "min_bit_errors=0",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"infeasible point L=4,M=32: C = round(M/alpha) = 40: {refused}" in err
    rows = out.read_text().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "16" for row in rows)


def test_run_with_gml_prints_audit(tmp_path, capsys):
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(
        "M = 10\nalpha = 0.5\nL = 4\nsnr_db = 9\ndetectors = SLAS,GML\n"
        "seed = 3\nmin_bit_errors = 0\nmax_bits = 500\nexperiment = audit\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    out = capsys.readouterr().out
    assert "audit: SLAS vs GML" in out
    assert "violations 0" in out


# stdout and stderr of GML runs with max_passes = 1, as first recorded: the
# audit lines, and warnings pooled over each point's per_tx or set rows
_REPORT_CFG = ("M = 16\nalpha = 0.8\nL = 4\nsnr_db = 4,8\n"
               "detectors = MF,SLAS,WSLAS,GML\nseed = 3\nmin_bit_errors = 0\n"
               "max_bits = 640\nmax_passes = 1\nexperiment = pin\n")
_REPORTS = {
    "per_tx": (
        'wrote 8 rows to {out}\n'
        'audit: SLAS vs GML over 40 trials (M=16, L=4, snr=4 dB): '
        'agreement 0.3000, likelihood dominance violations 0\n'
        'audit: WSLAS vs GML over 40 trials (M=16, L=4, snr=4 dB): '
        'agreement 0.0500, likelihood dominance violations 0\n'
        'audit: SLAS vs GML over 40 trials (M=16, L=4, snr=8 dB): '
        'agreement 0.3750, likelihood dominance violations 0\n'
        'audit: WSLAS vs GML over 40 trials (M=16, L=4, snr=8 dB): '
        'agreement 0.0500, likelihood dominance violations 0\n',
        'warning: runs stopped at max_passes before a verified fixed '
        'point (M=16, L=4, snr=4 dB): '
        'SLAS 37 of 40, WSLAS 40 of 40; their decisions are in the BER\n'
        'warning: runs stopped at max_passes before a verified fixed '
        'point (M=16, L=4, snr=8 dB): '
        'SLAS 38 of 40, WSLAS 40 of 40; their decisions are in the BER\n'),
    "1": (
        'wrote 8 rows to {out}\n'
        'audit: SLAS vs GML over 40 trials (M=16, L=4, snr=4 dB): '
        'agreement 0.3500, likelihood dominance violations 0\n'
        'audit: WSLAS vs GML over 40 trials (M=16, L=4, snr=4 dB): '
        'agreement 0.0250, likelihood dominance violations 0\n'
        'audit: SLAS vs GML over 40 trials (M=16, L=4, snr=8 dB): '
        'agreement 0.3750, likelihood dominance violations 0\n'
        'audit: WSLAS vs GML over 40 trials (M=16, L=4, snr=8 dB): '
        'agreement 0.0500, likelihood dominance violations 0\n',
        'warning: runs stopped at max_passes before a verified fixed '
        'point (M=16, L=4, snr=4 dB): '
        'SLAS 38 of 40, WSLAS 40 of 40; their decisions are in the BER\n'
        'warning: runs stopped at max_passes before a verified fixed '
        'point (M=16, L=4, snr=8 dB): '
        'SLAS 38 of 40, WSLAS 40 of 40; their decisions are in the BER\n'),
    "3": (
        'wrote 32 rows to {out}\n'
        'audit: SLAS vs GML over 42 trials (M=16, L=4, snr=4 dB): '
        'agreement 0.3810, likelihood dominance violations 0\n'
        'audit: WSLAS vs GML over 42 trials (M=16, L=4, snr=4 dB): '
        'agreement 0.0238, likelihood dominance violations 0\n'
        'audit: SLAS vs GML over 42 trials (M=16, L=4, snr=8 dB): '
        'agreement 0.3810, likelihood dominance violations 0\n'
        'audit: WSLAS vs GML over 42 trials (M=16, L=4, snr=8 dB): '
        'agreement 0.0714, likelihood dominance violations 0\n',
        'warning: runs stopped at max_passes before a verified fixed '
        'point (M=16, L=4, snr=4 dB): '
        'SLAS 41 of 42, WSLAS 42 of 42; their decisions are in the BER\n'
        'warning: runs stopped at max_passes before a verified fixed '
        'point (M=16, L=4, snr=8 dB): '
        'SLAS 39 of 42, WSLAS 42 of 42; their decisions are in the BER\n'),
}


@pytest.mark.parametrize("seq_sets", list(_REPORTS))
def test_report_text_is_pinned(tmp_path, capsys, seq_sets):
    cfg = tmp_path / "pin.cfg"
    cfg.write_text(_REPORT_CFG + f"seq_sets = {seq_sets}\n")
    out = tmp_path / "pin.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stdout, stderr = _REPORTS[seq_sets]
    assert capsys.readouterr() == (stdout.format(out=out), stderr)


def test_snrs_a_thousandth_apart_print_apart(tmp_path, capsys):
    # :g keeps six digits: 1234.567 and 1234.568 would both print 1234.57
    cfg = tmp_path / "snr.cfg"
    cfg.write_text("M = 12\nalpha = 0.75\nL = 3\nsnr_db = 1234.567,1234.568\n"
                   "detectors = SLAS,GML\nmin_bit_errors = 0\nmax_bits = 24\n")
    out = tmp_path / "snr.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    column = [row.split(",")[7] for row in out.read_text().splitlines()[1:]]
    assert column == ["1234.567"] * 2 + ["1234.568"] * 2
    audits = capsys.readouterr().out.splitlines()[1:]
    assert len(audits) == 2
    assert "snr=1234.567 dB" in audits[0] and "snr=1234.568 dB" in audits[1]
    # where :g reads back as the same float, it is the text
    assert [harness.snr_text(s) for s in (11.0, 2.5, -3.0, float("inf"))] == [
        "11", "2.5", "-3", "inf"]


def test_config_comments_and_scientific_notation(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# a comment\nM = 16  # inline\nalpha = 0.8\nL = 4\n"
        "snr_db = 6\ndetectors = MF\nmax_bits = 1e3\nmin_bit_errors = 0\n"
    )
    out = tmp_path / "c.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    # 1e3 bits at M=16 -> 63 trials per the exact-fill policy
    assert lines[1].split(",")[9] == str(63 * 16)


def test_dense_l_in_config(tmp_path):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        "M = 12\nalpha = 0.75\nL = dense\nsnr_db = 8\ndetectors = SLAS\n"
        "min_bit_errors = 0\nmax_bits = 360\n"
    )
    out = tmp_path / "d.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[4] == "dense"
    assert row[3] == "16"  # C = 12 / 0.75


SMALL_FIG1 = ["--set", "bk_list=64", "--set", "l_list=4",
              "--set", "min_bit_errors=0", "--set", "max_bits=640"]


@pytest.mark.parametrize("override, message", [
    ("bk_list=64.7", "bk_list: expected an integer, got '64.7'"),
    # counts are read exactly, not through a float that rounds them
    ("M=64.0000000000000001", "M: expected an integer, got "
                              "'64.0000000000000001'"),
    ("bk_list=64.0000000000000001", "bk_list: expected an integer, got "
                                    "'64.0000000000000001'"),
    ("n_prime=9223372036854775807.5", "n_prime: expected an integer, got "
                                      "'9223372036854775807.5'"),
    # no more digits than int() reads from a string
    ("seed=1e4300", "seed: expected an integer, got '1e4300'"),
    ("snr_db=-inf", "snr_db = -inf gives no finite noise level"),
    ("amplitude=1", "unknown config keys: amplitude"),
    ("alpha=inf", "alpha must be > 0 and finite"),
    ("experiment=a,b", "experiment 'a,b' contains ','"),
    ("experiment=a#b", "experiment 'a#b' contains '#'"),
    ("snr_db=-5000", "snr_db = -5000.0 is below -4194.304 dB"),
    ("snr_db=2,2.0004", "snr_db values 2.0 and 2.0004 share one trial stream"),
    ("snr_db=4,4", "snr_db values 4.0 and 4.0 share one trial stream"),
    # snr_db * 1000 overflows: no 0.001 dB stream code
    ("snr_db=1e308", "snr_db = 1e+308 is too large for a trial stream"),
    # a pass budget counts max_passes * M steps in int64
    ("max_passes=144115188075855872", "max_passes must be in [1, 2**63 / M)"),
    ("max_passes=9223372036854775807", "max_passes must be in [1, 2**63 / M)"),
    ("max_passes=1e30", "max_passes must be in [1, 2**63 / M)"),
    ("n_prime=1e30", "n_prime must be in [0, 2**63)"),
    ("n_prime=9223372036854775808", "n_prime must be in [0, 2**63)"),
    # both copies of a grid point would run on one trial stream
    ("bk_list=64,64", "bk_list repeats a value: (64, 64)"),
    ("l_list=4,4", "l_list repeats a value: (4, 4)"),
    # L = 80 is dense at M = 64, C = 80: one (M, C, L) point twice
    ("l_list=80,dense", "grid points L=80,M=64 and L=dense,M=64 share one "
                        "trial stream (M=64, C=80, L=80)"),
])
def test_bad_value_exits_2_with_a_message(tmp_path, capsys, override, message):
    out = tmp_path / "x.csv"
    assert main(["fig1", *SMALL_FIG1, "--set", override, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_max_passes_cutoff_warns_once_per_point(tmp_path, capsys):
    cfg = tmp_path / "cut.cfg"
    cfg.write_text(
        "M = 64\nalpha = 0.8\nL = 4\nsnr_db = 4,6\ndetectors = MF,SLAS\n"
        "seed = 2\nmin_bit_errors = 0\nmax_bits = 1280\nmax_passes = 1\n"
    )
    out = tmp_path / "cut.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 2
    assert "snr=4 dB" in warnings[0] and "snr=6 dB" in warnings[1]
    assert all("SLAS" in w and "of 20" in w and "MF" not in w
               for w in warnings)
    assert out.read_text().splitlines()[0] == CSV_HEADER
    cfg.write_text(cfg.read_text().replace("max_passes = 1", "max_passes = 100"))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "warning:" not in capsys.readouterr().err


# each key maps to one of a few well-formed values or to short junk text;
# the junk has no digit but 0, so every count stays small
_GOOD = {
    "experiment": ["run", "fig 1"], "M": ["1", "4", "8", "1e0"],
    "alpha": ["0.5", "0.8", "1"], "L": ["1", "2", "dense"],
    "snr_db": ["6", "4,8", "inf"], "detectors": ["MF", "mf,slas", "WSLAS,GML"],
    "seed": ["0", "3"], "min_bit_errors": ["0", "5"], "max_bits": ["8", "100"],
    "seq_sets": ["auto", "per_tx", "2"], "n_prime": ["0", "3"],
    "max_passes": ["1", "100"],
    "bk_list": ["4,8", "2"], "l_list": ["1,dense", "2"],
}
_JUNK = st.text(alphabet=st.one_of(
    st.sampled_from(' ,#="\t\n0.-'),
    st.characters(blacklist_categories=("Cs", "Nd")),
), max_size=4)


def _value(key):
    return st.sampled_from(_GOOD[key]) | _JUNK


# M, alpha and experiment always, up to three more keys
_MAPPINGS = st.tuples(
    st.fixed_dictionaries({k: _value(k) for k in ("M", "alpha", "experiment")}),
    st.sets(st.sampled_from(sorted(_GOOD)), max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({k: _value(k) for k in keys})
    ),
).map(lambda parts: {**parts[1], **parts[0]})


@settings(max_examples=400, deadline=None)
@given(_MAPPINGS)
def test_parsed_config_is_rejected_or_replays_and_writes_clean_csv(mapping):
    assert sorted(_GOOD) == sorted(cli._CONFIG_KEYS)
    try:
        config, bk_list, l_list = cli._config_from_mapping(mapping)
        config.validate()
    except ConfigError:
        return
    effective = cli._effective_mapping(config, bk_list, l_list)
    with tempfile.TemporaryDirectory() as tmp:
        dumped = Path(tmp) / "effective.cfg"
        cli._dump_config(effective, dumped)
        replayed = cli._config_from_mapping(cli._parse_config_file(dumped))
    assert cli._effective_mapping(*replayed) == effective
    # one transmission per set is enough to format every row
    rows = run_experiment(replace(config, min_bit_errors=0, max_bits=config.M))
    buf = io.StringIO()
    write_csv(rows, buf)
    buf.seek(0)
    assert all(len(fields) == 17 for fields in csv.reader(buf))

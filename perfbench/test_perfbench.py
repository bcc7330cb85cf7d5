"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py

The simulator is imported from the checkout's `src` directory.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from lascdma import (  # noqa: E402
    ChannelParams, crosscorrelation, gen_sparse_matrix, matched_filter,
    mf_detect, slas_detect, snr_to_sigma, transmit)
from tracing import (  # noqa: E402
    Span, layer_metrics, local_max_violations, self_time, self_times,
    xcorr_pairs)
from workloads import WORKLOADS, check_csv  # noqa: E402


def _span(sid, name, start, end, parent=None, **attrs):
    return Span(sid, name, start, end, parent, None, attrs)


def test_self_time_of_a_hand_built_tree():
    # cli.main [0, 10] > run_experiment [1, 9] > trial [2, 8] > slas [3, 7],
    # run_experiment > gen [8.5, 9] and trial > trace.check [7, 7.5]
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "harness.run_experiment", 1.0, 9.0, 0),
        _span(2, "harness.trial", 2.0, 8.0, 1),
        _span(3, "detect.slas", 3.0, 7.0, 2, flips=8, steps=16,
              additions=80, passes=2, converged=True),
        _span(4, "seqgen.gen", 8.5, 9.0, 1),
        _span(5, "trace.check", 7.0, 7.5, 2),  # the tracer's own work
    ]
    own = self_times(spans)
    assert own == pytest.approx(
        {0: 2.0, 1: 1.5, 2: 1.5, 3: 4.0, 4: 0.5, 5: 0.5})
    m, total = layer_metrics(spans)
    assert total == 9.5
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["harness.self_s"] == pytest.approx(3.0)  # run_experiment + trial
    assert m["harness.self_share"] == pytest.approx(3.0 / 9.5)
    assert m["detect.slas.us_per_flip"] == pytest.approx(0.5e6)
    assert m["detect.slas.adds_per_flip"] == 10
    assert m["detect.slas.flip_ratio"] == 0.5
    assert m["detect.slas.nonconverged"] == 0
    assert m["detect.wslas.ms_per_call"] == 0.0
    assert m["seqgen.gen.share"] == pytest.approx(0.5 / 9.5)


def test_self_time_counts_overlapping_children_once():
    parent = _span(0, "p", 0.0, 10.0)
    kids = [_span(1, "a", 1.0, 4.0, 0), _span(2, "b", 3.0, 6.0, 0),
            _span(3, "c", 8.0, 12.0, 0)]  # c runs past the parent's end
    assert self_time(parent, kids) == pytest.approx(10.0 - 5.0 - 2.0)


def _instance(seed, M=48, L=6):
    rng = np.random.default_rng(seed)
    C = int(round(M / 0.8))
    S = gen_sparse_matrix(C, M, L, rng)
    A = np.full(M, 1.0)
    xc = crosscorrelation(S, A)
    b = (rng.integers(0, 2, M, dtype=np.int8) * 2 - 1).astype(np.int8)
    y = matched_filter(S, transmit(S, ChannelParams(A, snr_to_sigma(6.0)), b, rng))
    return xc, A, y


def test_local_max_checker_flags_a_one_bit_flip():
    xc, A, y = _instance(5)
    run = slas_detect(y, xc, A, mf_detect(y))
    assert run.converged
    assert local_max_violations(run.bits, y, xc, A).size == 0
    for k in (0, 17, 47):
        bits = run.bits.copy()
        bits[k] = -bits[k]
        assert k in local_max_violations(bits, y, xc, A)


@pytest.mark.parametrize("C, M, L", [(20, 12, 3), (9, 7, 4), (6, 5, 6)])
def test_pairs_is_sum_of_squared_chip_occupancy(C, M, L):
    S = gen_sparse_matrix(C, M, L, np.random.default_rng(C * M + L))
    occupancy = [sum(c in S.chips[k] for k in range(M)) for c in range(C)]
    assert xcorr_pairs(S) == sum(n * n for n in occupancy)


def test_csv_check_flags_an_inconsistent_row(tmp_path):
    from lascdma import cli

    w = WORKLOADS["pertx-sweep"]
    out = tmp_path / "out.csv"
    argv = w.argv(3, True, 1, out, tmp_path / "cfg")
    assert cli.main(argv) == 0
    text = out.read_text()
    assert check_csv(text, w, 3, setup=True) == {}
    lines = text.splitlines()
    fields = lines[2].split(",")  # first SLAS row
    fields[10] = str(int(fields[9]) + 1)  # more errors than bits
    lines[2] = ",".join(fields)
    bad = check_csv("\n".join(lines) + "\n", w, 3, setup=True)
    assert list(bad) == [(64, "4", "11")]
    bad = check_csv(text, w, 4, setup=True)  # seed label mismatch
    assert len(bad) == len(w.points)

"""The benchmark's workloads and the checks on the CSV each one produces.

Every workload is one `lascdma` command line, run through `lascdma.cli.main`:
the fixed-set workloads through `run --config` with a generated config
file, the per-transmission sweep through the `fig1` preset with overrides.
All use load 0.8 at 11 dB.  The workload seed becomes the program's seed.
"""

import csv
import io
from dataclasses import dataclass

DETECTORS = ("MF", "SLAS", "WSLAS")
CSV_HEADER = [
    "experiment", "detector", "M", "C", "L", "alpha_req", "alpha_eff",
    "snr_db", "seq_set", "bits", "errors", "ber", "ci_low", "ci_high",
    "adds_per_bit", "passes_mean", "censored",
]
FIXED_SETS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # "run" (generated config file) or a cli preset name
    settings: tuple  # (key, value) config entries
    workers: int  # worker count of the untraced run
    points: tuple  # (M, L) of every point the command runs
    setup_reps: int = 5  # fresh interpreters per set-up measurement

    @property
    def min_bit_errors(self):
        return int(dict(self.settings)["min_bit_errors"])

    def mapping(self, seed, setup):
        """Config entries; setup=True gives the one-round budget: one trial
        per set at every point (two at M = 64 in the sweep, whose shared
        max_bits must admit its M = 128 points)."""
        m = dict(self.settings)
        m["seed"] = str(seed)
        if setup:
            m["min_bit_errors"] = "0"
            m["max_bits"] = str(max(M for M, _ in self.points))
        return m

    def argv(self, seed, setup, workers, out, cfg_path):
        """The command line; a "run" workload's config goes to cfg_path."""
        m = self.mapping(seed, setup)
        common = ["--out", str(out), "--workers", str(workers)]
        if self.preset == "run":
            with open(cfg_path, "w") as f:
                for key, value in m.items():
                    f.write(f"{key} = {value}\n")
            return ["run", "--config", str(cfg_path)] + common
        sets = []
        for key, value in m.items():
            sets += ["--set", f"{key}={value}"]
        return [self.preset] + sets + common


def _fixed(name, M, L, min_bit_errors, max_bits, setup_reps=5):
    """M, L with five fixed sets (the `auto` protocol beyond M = 128)."""
    settings = (
        ("experiment", name), ("M", str(M)), ("alpha", "0.8"), ("L", str(L)),
        ("snr_db", "11"), ("detectors", ",".join(DETECTORS)),
        ("seq_sets", "auto"), ("min_bit_errors", str(min_bit_errors)),
        ("max_bits", str(max_bits)),
    )
    return Workload(name, "run", settings, 1, ((M, str(L)),), setup_reps)


WORKLOADS = {
    w.name: w
    for w in (
        # the paper's operating point, run to a BER estimate: detect-bound
        _fixed("fixed-l16", 1024, 16, 40, 10_000_000),
        # the same point densely spread: 5.4x the additions per flip and the
        # dense BLAS branches, so a sparse-only gain that costs dense shows.
        # A fixed budget of 16 rounds: its 0.4 s of set generation per call
        # would otherwise weigh differently on each seed's stopping point
        _fixed("fixed-dense", 1024, "dense", 0, 1024 * FIXED_SETS * 16),
        # a fresh matrix per trial: seqgen-bound, and the only workload where
        # the worker pool and the cli sweep path do real work
        Workload(
            "pertx-sweep", "fig1",
            (("detectors", ",".join(DETECTORS)), ("bk_list", "64,128"),
             ("l_list", "4,16,dense"), ("min_bit_errors", "0"),
             ("max_bits", "32000")),
            2,
            tuple((M, L) for L in ("4", "16", "dense") for M in (64, 128)),
        ),
        # large M: the M x C uniforms of gen_sparse_matrix, peak memory and
        # the O(M) per-flip rescan of SLAS.  Each set-up draws 5 x 670 MB of
        # uniforms in about 8 s and varied by 3%, so two set-ups suffice
        _fixed("large-l16", 8192, 16, 0, 8192 * FIXED_SETS * 2, setup_reps=2),
    )
}


def parse_csv(text):
    """Rows as dicts, grouped by point (M, L, snr_db) in first-seen order."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header}")
    points = {}
    for values in reader:
        row = dict(zip(CSV_HEADER, values))
        key = (int(row["M"]), row["L"], row["snr_db"])
        points.setdefault(key, []).append(row)
    return points


def point_bits(rows):
    """Transmitted bits of one point: its first aggregate (avg or per_tx) row."""
    for row in rows:
        if row["seq_set"] in ("avg", "per_tx"):
            return int(row["bits"])
    return 0


def check_point(rows, workload, seed, setup):
    """Reasons this point's rows are wrong; empty when they are consistent.
    A set-up run stops after one round, before the error target."""
    bad = []
    M = int(rows[0]["M"])
    per_tx = M <= 128  # the sequence-set protocol's per-transmission range
    sets = ["per_tx"] if per_tx else [str(s) for s in range(FIXED_SETS)] + ["avg"]
    experiment = dict(workload.settings).get("experiment", workload.preset)
    label = f"{experiment}[seed={seed}]"
    got = {(r["detector"], r["seq_set"]): r for r in rows}
    want = {(d, s) for d in DETECTORS for s in sets}
    if set(got) != want or len(rows) != len(want):
        return [f"rows {sorted(got)} != expected {sorted(want)}"]
    agg = "per_tx" if per_tx else "avg"
    for (det, s), r in got.items():
        bits, errors = int(r["bits"]), int(r["errors"])
        ber, lo, hi = float(r["ber"]), float(r["ci_low"]), float(r["ci_high"])
        if r["experiment"] != label:
            bad.append(f"{det}/{s}: experiment {r['experiment']!r}")
        if bits <= 0 or bits % M or bits != int(got[("MF", s)]["bits"]):
            bad.append(f"{det}/{s}: bits {bits}")
        if not 0 <= errors <= bits or abs(ber - errors / max(bits, 1)) > 1e-6 * ber:
            bad.append(f"{det}/{s}: errors {errors}, ber {ber}")
        if not lo <= ber <= hi or hi <= 0:
            bad.append(f"{det}/{s}: ci [{lo}, {hi}] misses ber {ber}")
        adds, passes = float(r["adds_per_bit"]), float(r["passes_mean"])
        if det == "MF" and (adds != 0 or passes != 0):
            bad.append(f"MF/{s}: adds {adds}, passes {passes}")
        if det != "MF" and (adds <= 0 or passes < 1):
            bad.append(f"{det}/{s}: adds {adds}, passes {passes}")
    if not per_tx:
        for det in DETECTORS:
            parts = [got[(det, str(s))] for s in range(FIXED_SETS)]
            for col in ("bits", "errors"):
                if sum(int(r[col]) for r in parts) != int(got[(det, "avg")][col]):
                    bad.append(f"{det}: avg {col} is not the sum of the sets")
    mf_err = int(got[("MF", agg)]["errors"])
    for det in DETECTORS[1:]:
        r = got[(det, agg)]
        # a one-round set-up is too small a sample to rank detectors by
        if not setup and int(r["errors"]) > mf_err:
            bad.append(f"{det} makes more errors than MF")
        if workload.min_bit_errors and not setup and (
                r["censored"] != "0" or int(r["errors"]) < workload.min_bit_errors):
            bad.append(f"{det}: stopped short of {workload.min_bit_errors} errors")
    return bad


def check_csv(text, workload, seed, setup=False):
    """{point: reasons} for one command's CSV, empty when it is correct.
    The keys "csv" (unparseable) and "points" (points missing or extra)
    fail every point the CSV should hold."""
    try:
        points = parse_csv(text)
    except (ValueError, KeyError) as e:
        return {"csv": [str(e)]}
    failures = {}
    want = {(M, L) for M, L in workload.points}
    if {(M, L) for M, L, _ in points} != want or len(points) != len(want):
        failures["points"] = [f"points {sorted(points)} != expected {sorted(want)}"]
    for key, rows in points.items():
        try:
            bad = check_point(rows, workload, seed, setup)
        except (ValueError, KeyError) as e:
            bad = [f"unreadable row: {e}"]
        if bad:
            failures[key] = bad
    return failures


def total_bits(text):
    return sum(point_bits(rows) for rows in parse_csv(text).values())


def total_trials(text):
    """Trials over all points and sets: each transmits M bits."""
    return sum(point_bits(rows) // M
               for (M, _, _), rows in parse_csv(text).items())

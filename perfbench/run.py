"""Benchmark runner for the lascdma simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from its `src`
directory.  With --trace 0 the workload's command runs untraced in fresh
child interpreters and the end-to-end metrics of BENCHMARK.json are
reported: simulated kbit/s (median over repeated calls for S seconds),
set-up time (median over fresh interpreters) and peak RSS.  With --trace 1
one workers = 1 run is traced and the per-layer metrics are reported.
Every CSV the simulator writes is checked.  The last stdout line is the
result JSON; the exit code is 0 only when every check passed.  --workload
all runs every workload in turn.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
BASELINE = BENCH / "baseline.json"
RUN_LIMIT_S = 170.0  # the whole run, children included

sys.path.insert(0, str(BENCH))
from workloads import (  # noqa: E402
    WORKLOADS, check_csv, total_bits, total_trials)

class Run:
    """Point accounting and child processes of one benchmark run."""

    def __init__(self, workload, seed, deadline):
        self.w = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        baseline = json.loads(BASELINE.read_text())
        self.default_seed = seed == baseline["default_seed"]
        self.digest = baseline["csv_sha256"].get(workload.name)

    def path(self, tag, suffix):
        return WORK / f"{self.w.name}-{tag}{suffix}"

    def argv(self, tag, setup, workers):
        return self.w.argv(self.seed, setup, workers, self.path(tag, ".csv"),
                           self.path(tag, ".cfg"))

    def child(self, mode, tag, **spec):
        """Run child.py in a fresh interpreter and return its result."""
        result = self.path(tag, ".json")
        result.unlink(missing_ok=True)
        spec.update(mode=mode, src=str(SRC), bench=str(BENCH),
                    result=str(result))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("out of time before the next measurement")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=subprocess.DEVNULL, timeout=timeout, cwd=ROOT)
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"{mode} child exited with {proc.returncode}")
        return json.loads(result.read_text())

    def fail(self, n, reason):
        self.failed += n
        self.reasons.append(reason)

    def check(self, call, what, reference=None, full=True):
        """Check one command's outcome.  reference is CSV text it must equal;
        a full-budget CSV of the default seed must match the recorded
        digest."""
        n = len(self.w.points)
        self.attempted += n
        if call["rc"] != 0:
            self.fail(n, f"{what}: exit {call['rc']}")
            return
        bad = check_csv(call["csv"], self.w, self.seed, setup=not full)
        if any(k in bad for k in ("csv", "points")):
            self.fail(n, f"{what}: {bad}")
            return
        for key, reasons in bad.items():
            self.fail(1, f"{what} point {key}: {reasons}")
        if reference is not None and call["csv"] != reference:
            self.fail(n - len(bad), f"{what}: CSV differs from the first run")
        elif full and self.default_seed:
            got = hashlib.sha256(call["csv"].encode()).hexdigest()
            if got != self.digest:
                self.fail(n - len(bad), f"{what}: CSV sha256 {got} != "
                                        f"recorded {self.digest}")


def end_to_end(run, seconds):
    w = run.w
    setup_s, setup_csv = [], None
    for i in range(w.setup_reps):
        res = run.child("setup", "setup", argv=run.argv("setup", True, w.workers))
        call = res["calls"][0]
        setup_s.append(call["setup_s"])
        # every fresh interpreter must write the same bytes
        run.check(call, f"set-up {i}", reference=setup_csv, full=False)
        setup_csv = setup_csv or call["csv"]
    res = run.child("timed", "full", seconds=seconds,
                    argv=run.argv("full", False, w.workers))
    rates = []
    first = None
    for i, call in enumerate(res["calls"]):
        run.check(call, f"call {i}", reference=first)
        if call["rc"] == 0:
            first = first or call["csv"]
        if call["rc"] == 0 and not call.get("warmup"):
            rates.append(total_bits(call["csv"]) / call["wall"] / 1e3)
    print(f"{w.name}: kbit/s of {len(rates)} timed calls "
          f"{[round(r, 2) for r in rates]}, set-up s "
          f"{[round(t, 3) for t in setup_s]}", file=sys.stderr)
    return {
        "sim_kbit_s": statistics.median(rates) if rates else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(run):
    w = run.w
    untraced = [run.argv("untraced", False, w.workers)]
    if w.workers != 1:
        # tracing overhead is measured against an untraced workers = 1 run
        untraced.append(run.argv("untraced1", False, 1))
    res = run.child("traced", "traced", untraced=untraced,
                    argv=run.argv("traced", False, 1),
                    spans=str(run.path("traced", ".spans.jsonl")))
    reference = None
    for i, call in enumerate(res["calls"]):
        run.check(call, f"untraced call {i}", reference=reference)
        reference = reference or call["csv"]
    traced = res["traced"]
    # invariant: the workers = 1 traced CSV equals the untraced one byte
    # for byte (for pertx-sweep, an untraced workers = 2 run)
    run.check(traced, "traced call", reference=reference)
    by_point = {}
    for point, name, reason in res["las_failures"]:
        by_point.setdefault(tuple(point or ()), []).append(f"{name}: {reason}")
    for point, reasons in by_point.items():
        run.fail(1, f"traced point {point}: {len(reasons)} LAS results "
                    f"fail the local-maximum check, e.g. {reasons[0]}")
    if res["missing"]:
        print(f"{w.name}: not traced (name absent): {res['missing']}",
              file=sys.stderr)
    metrics = dict(res["metrics"])
    metrics["harness.trials"] = total_trials(traced["csv"]) if traced["rc"] == 0 else 0
    metrics["trace.overhead"] = traced["wall"] / res["calls"][-1]["wall"] - 1.0
    print(f"{w.name}: dominant layer {res['dominant']}", file=sys.stderr)
    return metrics


def measure(name, seed, seconds, trace, declared):
    """One workload: (result dict, human summary line)."""
    run = Run(WORKLOADS[name], seed, time.monotonic() + RUN_LIMIT_S)
    units = {m["name"]: m["unit"] for m in declared}
    values = {}
    try:
        values = per_layer(run) if trace else end_to_end(run, seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        run.fail(max(len(run.w.points), 1), str(e))
        run.attempted = max(run.attempted, run.failed)
    missing = sorted(set(units) - set(values))
    if missing and not run.reasons:
        raise SystemExit(f"benchmark produced no value for {missing}")
    metrics = {k: {"value": values.get(k, 0.0), "unit": u}
               for k, u in units.items()}
    for reason in run.reasons:
        print(f"{name}: FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not run.reasons,
        "attempted": max(run.attempted, 1),
        "failed": min(run.failed, max(run.attempted, 1)),
        "metrics": metrics,
    }
    shown = ", ".join(f"{k} = {v['value']:.6g} {v['unit']}"
                      for k, v in metrics.items()
                      if not trace or k.endswith("share"))
    summary = (f"{name} (seed {seed}, trace {trace}): {shown}, "
               f"points = {run.attempted}, points_failed = {run.failed}")
    return result, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lascdma" / "__init__.py").is_file():
        print(f"no simulator source at {SRC / 'lascdma'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("--seed must be a 64-bit unsigned integer", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    WORK.mkdir(exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, summary = measure(name, args.seed, args.seconds, args.trace,
                                  declared)
        print(summary)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

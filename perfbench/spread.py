"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

For every metric: the median over the runs, the quartiles from
statistics.quantiles(values, n=4), and (q3 - q1) / median, the spread
compared against the metric's bound in BENCHMARK.json.  The last stdout
line is a JSON object with every run's values, for recording a baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = proc.returncode == 0 and result["correct"]
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", flush=True)
        if not ok:
            sys.stderr.write(proc.stderr)
        runs.append({"seed": seed, "ok": ok,
                     "values": {k: v["value"]
                                for k, v in result["metrics"].items()}})

    summary = {}
    for name in runs[0]["values"]:
        values = [r["values"][name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:.4f}  bound {bounds[name]}")
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "runs": runs, "summary": summary}))
    return 0 if all(r["ok"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

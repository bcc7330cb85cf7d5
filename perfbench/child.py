"""One measurement in a fresh interpreter; run.py starts it.

    python3 child.py SPEC_JSON

SPEC_JSON names the mode, the simulator's source directory, the command
lines to pass to `lascdma.cli.main` (each with its --out CSV path) and
where to write the result JSON.
Modes:

  setup   time from `import lascdma` to the end of one command
  timed   a warm-up call, then repeat the command until `seconds` have
          passed since the warm-up began; peak RSS
  traced  run the untraced command lines, then trace one workers = 1 run
"""

import json
import resource
import sys
import time

T_START = time.perf_counter()  # before the simulator is imported


def _call(cli, argv):
    """Run one command line; returns its wall time, exit code and CSV."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as e:  # a raising point is a failed point, not a crash
        rc = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    try:
        with open(argv[argv.index("--out") + 1]) as f:
            text = f.read()
    except OSError:
        text = ""
    return {"wall": wall, "rc": rc, "csv": text}


def _peak_rss_mb():
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(spec):
    sys.path.insert(0, spec["src"])
    import lascdma
    from lascdma import cli, harness

    if not lascdma.__file__.startswith(spec["src"]):
        raise SystemExit(f"lascdma imported from {lascdma.__file__}, "
                         f"not from {spec['src']}")
    mode = spec["mode"]
    res = {}
    if mode == "setup":
        call = _call(cli, spec["argv"])
        call["setup_s"] = time.perf_counter() - T_START
        res["calls"] = [call]
    elif mode == "timed":
        # the first call pays first-touch costs a user pays once per
        # process; it is checked and counts against the window, but its
        # rate is not reported
        end = time.perf_counter() + spec["seconds"]
        calls = [_call(cli, spec["argv"])]
        calls[0]["warmup"] = True
        while len(calls) < 2 or time.perf_counter() < end:
            calls.append(_call(cli, spec["argv"]))
        res["calls"] = calls
        res["peak_rss_mb"] = _peak_rss_mb()
    else:  # traced
        # imported here, not at the top: it loads numpy, whose import the
        # set-up time must include
        sys.path.insert(0, spec["bench"])
        from tracing import Tracer, dominant_layer, layer_metrics

        res["calls"] = [_call(cli, argv)
                        for argv in spec["untraced"]]
        tracer = Tracer()
        tracer.install(harness, cli)
        try:
            traced = _call(cli, spec["argv"])
        finally:
            tracer.uninstall()
        tracer.dump(spec["spans"])
        metrics, _ = layer_metrics(tracer.spans)
        res.update(
            traced=traced,
            metrics=metrics,
            dominant=dominant_layer(tracer.spans),
            las_failures=tracer.las_failures,
            missing=tracer.missing,
        )
    with open(spec["result"], "w") as f:
        json.dump(res, f)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

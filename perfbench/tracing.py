"""Span tracing from outside the simulator, and the checks and layer
metrics computed from the spans.

The tracer replaces names bound in `lascdma.harness` and `lascdma.cli` with
wrappers that record one span per call: name, start, end, parent span and
trial id.  Spans stay in memory until the traced call ends.  Layers are the
simulator's modules; a span's layer is the part of its name before the
first dot.  Only a single-process run (workers = 1) is traced, so every span
lands in this process and spans of one thread never overlap partially.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

# (module attribute, span name); harness names cover every layer the trial
# loop calls, cli names cover the front end
HARNESS_WRAPS = (
    ("gen_sparse_matrix", "seqgen.gen"),
    ("crosscorrelation", "seqgen.xcorr"),
    ("transmit", "channel.transmit"),
    ("matched_filter", "channel.mf"),
    ("mf_detect", "detect.mf"),
    ("slas_detect", "detect.slas"),
    ("wslas_detect", "detect.wslas"),
    ("run_experiment", "harness.run_experiment"),
    ("_run_trial", "harness.trial"),
)
CLI_WRAPS = (
    ("run_experiment", "harness.run_experiment"),
    ("main", "cli.main"),
)
LAS_SPANS = ("detect.slas", "detect.wslas")
CHECK_SPAN = "trace.check"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: object  # parent sid or None
    trial: object  # (set index, trial index) or None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def xcorr_pairs(S):
    """Sum over chips of occupancy(c)^2: the (chip, column pair) incidences a
    crosscorrelation build visits.  A dense matrix has every column on every
    chip, so its count is C * M^2, the multiply-adds of the dense product."""
    if S.is_dense:
        return S.n_chips * S.n_bits * S.n_bits
    indptr = S.chip_index[0]
    occupancy = np.diff(indptr).astype(np.int64)
    return int(np.dot(occupancy, occupancy))


def local_max_violations(bits, y, xcorr, amplitudes, tol=1e-9):
    """Indices k where b_k * g_k < -H_kk, with g = A*y - H b recomputed
    directly: the bits whose single flip would raise the likelihood.  A
    1-flip local maximum has none.  tol absorbs the rounding difference
    between the detector's incremental gradient and the recomputation."""
    b = np.asarray(bits, dtype=np.float64)
    A = np.asarray(amplitudes, dtype=np.float64)
    g = A * np.asarray(y, dtype=np.float64) - xcorr.h_matvec(b)
    bg = b * g
    return np.flatnonzero(bg < -xcorr.diag - tol * (1.0 + np.abs(g)))


def self_time(span, children):
    """Span duration minus the part of it that its children cover."""
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


def self_times(spans):
    """{sid: self time} for every span of a tree."""
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return {s.sid: self_time(s, kids.get(s.sid, ())) for s in spans}


class Tracer:
    """Records spans around the wrapped names; checks every LAS result.

    install() swaps the wrappers in, uninstall() restores the originals.
    las_failures lists (point, span name, reason) for results that are not
    a converged 1-flip local maximum; point is the (M, L) of the enclosing
    run_experiment call.
    """

    def __init__(self):
        self.spans = []
        self.las_failures = []
        self.missing = []
        self._stack = []
        self._trial = None
        self._saved = []

    def install(self, harness, cli):
        for module, wraps in ((harness, HARNESS_WRAPS), (cli, CLI_WRAPS)):
            for attr, name in wraps:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            outer_trial = self._trial
            if name == "harness.trial":
                self._trial = (int(args[1]), int(args[2]))
            span = Span(sid, name, 0.0, 0.0, parent, self._trial)
            if name == "harness.run_experiment":
                span.attrs["point"] = [args[0].M, str(args[0].L)]
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._trial = outer_trial
            if name == "seqgen.xcorr" or name in LAS_SPANS:
                # the tracer's own counting and checking gets a span of its
                # own, so that no layer's self time includes it
                check = Span(len(self.spans), CHECK_SPAN, time.perf_counter(),
                             0.0, parent, self._trial)
                self.spans.append(check)
                if name == "seqgen.xcorr":
                    span.attrs["pairs"] = xcorr_pairs(args[0])
                else:
                    self._record_las(span, args, result)
                check.end = time.perf_counter()
            return result

        return wrapper

    def _point(self, span):
        # (M, L) of the run_experiment call the span belongs to
        while span.parent is not None:
            span = self.spans[span.parent]
            if "point" in span.attrs:
                return span.attrs["point"]
        return None

    def _record_las(self, span, args, run):
        y, xcorr, amplitudes = args[0], args[1], args[2]
        span.attrs.update(flips=run.flips, steps=run.steps,
                          additions=run.additions, passes=run.passes,
                          converged=bool(run.converged))
        if not run.converged:
            reason = "not converged"
        else:
            bad = local_max_violations(run.bits, y, xcorr, amplitudes)
            if not bad.size:
                return
            reason = (f"bit {int(bad[0])} violates b_k*g_k >= -H_kk "
                      f"({bad.size} bits)")
        self.las_failures.append((self._point(span), span.name, reason))

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "trial": s.trial,
                    **s.attrs}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced call; the root span is cli.main.
    Shares are of the traced wall time less the tracer's own checks."""
    total = (sum(s.end - s.start for s in spans if s.parent is None)
             - sum(s.end - s.start for s in spans if s.name == CHECK_SPAN))
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def incl(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    def layer_self(layer):
        return sum(own[s.sid] for s in spans if s.layer == layer)

    m = {}
    n = calls("seqgen.gen")
    m["seqgen.gen.calls"] = n
    m["seqgen.gen.ms_per_call"] = _ratio(incl("seqgen.gen") * 1e3, n)
    m["seqgen.gen.share"] = _ratio(incl("seqgen.gen"), total)
    n = calls("seqgen.xcorr")
    pairs = attr_sum("seqgen.xcorr", "pairs")
    m["seqgen.xcorr.calls"] = n
    m["seqgen.xcorr.ms_per_call"] = _ratio(incl("seqgen.xcorr") * 1e3, n)
    m["seqgen.xcorr.pairs"] = _ratio(pairs, n)
    m["seqgen.xcorr.ns_per_pair"] = _ratio(incl("seqgen.xcorr") * 1e9, pairs)
    m["seqgen.xcorr.share"] = _ratio(incl("seqgen.xcorr"), total)
    m["seqgen.share"] = _ratio(layer_self("seqgen"), total)
    for short, name in (("transmit", "channel.transmit"), ("mf", "channel.mf")):
        m[f"channel.{short}.us_per_call"] = _ratio(incl(name) * 1e6, calls(name))
    m["channel.share"] = _ratio(layer_self("channel"), total)
    m["detect.mf.us_per_call"] = _ratio(incl("detect.mf") * 1e6,
                                        calls("detect.mf"))
    for name in LAS_SPANS:
        p = name + "."
        n, t = calls(name), incl(name)
        flips = attr_sum(name, "flips")
        m[p + "ms_per_call"] = _ratio(t * 1e3, n)
        m[p + "flips_per_call"] = _ratio(flips, n)
        m[p + "us_per_flip"] = _ratio(t * 1e6, flips)
        m[p + "adds_per_flip"] = _ratio(attr_sum(name, "additions"), flips)
        m[p + "passes_mean"] = _ratio(attr_sum(name, "passes"), n)
        m[p + "flip_ratio"] = _ratio(flips, attr_sum(name, "steps"))
        m[p + "nonconverged"] = sum(
            1 for s in by_name.get(name, ()) if not s.attrs.get("converged"))
        m[p + "share"] = _ratio(t, total)
    m["detect.share"] = _ratio(layer_self("detect"), total)
    m["harness.self_s"] = layer_self("harness")
    m["harness.self_share"] = _ratio(layer_self("harness"), total)
    m["cli.self_s"] = layer_self("cli")
    return m, total


def dominant_layer(spans):
    """The layer with the largest self time."""
    own = self_times(spans)
    per = {}
    for s in spans:
        if s.name != CHECK_SPAN:
            per[s.layer] = per.get(s.layer, 0.0) + own[s.sid]
    return max(per, key=per.get) if per else None

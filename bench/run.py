"""segrekit benchmark: closed-loop workloads timed from outside the package.

    python3 bench/run.py --workload {groebner,geometry,cli} --seed N \\
        --seconds S --trace {0,1}

One caller sends the next request when the previous answer is back.  A run
sets up (imports segrekit, builds the seeded inputs, warms up), then runs
whole cycles of operations until S seconds of operations have passed,
checking each output as it comes back (outside the timing).  Timings are
scaled by the speed of a fixed reference computation measured alongside them
(see refkernel.py).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs an untraced phase, then traces the first cycle(s) again, and reports
per-layer metrics and the tracing overhead.  Human-readable lines start with
``#``; the last line is one JSON object.  Exit status 2 means the checkout
could not be benchmarked (no importable segrekit)."""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refkernel  # noqa: E402
import tracing  # noqa: E402
from common import CheckFailed  # noqa: E402
from shim import ImportFailed, import_segrekit  # noqa: E402

WORKLOADS = {"groebner": "groebner", "geometry": "geometry", "cli": "clicalls"}
SETUP_REPEATS = 3
DEEP_CYCLES = 2          # cycles whose outputs also get the invariant checks
MIN_OPS = 100            # so that ten latency samples lie beyond the 90th percentile
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, {here!r}); from shim import import_segrekit; "
    "t = time.perf_counter(); import_segrekit({root!r}); print(time.perf_counter() - t)"
).format(here=HERE, root=ROOT)


class Record:
    __slots__ = ("op", "kind", "shared", "known_defect", "cycle", "latency", "scaled",
                 "result", "error", "text")

    def __init__(self, op, cycle, latency, result, error):
        self.op, self.kind, self.shared, self.known_defect = op, op.kind, op.shared, op.known_defect
        self.cycle, self.latency, self.scaled = cycle, latency, latency
        self.result, self.error, self.text = result, error, None


class Scaler:
    """Expresses latencies at a reference's nominal speed.

    The reference is timed before the first operation and again after every
    ``ref.every_s`` seconds of operations (after each operation when that is
    0); each operation is scaled by the mean of the two reference times
    around it."""

    def __init__(self, ref):
        self.ref = ref
        self.samples = [ref.sample()]
        self.pending, self.since = [], 0.0

    def add(self, record):
        self.pending.append(record)
        self.since += record.latency
        if self.since >= self.ref.every_s:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        self.samples.append(self.ref.sample())
        factor = self.ref.nominal_s / statistics.mean(self.samples[-2:])
        for r in self.pending:
            r.scaled = r.latency * factor
        self.pending, self.since = [], 0.0


def run_cycles(cycles, seconds=None, min_ops=0, check=True, scaler=None):
    """Run the operation lists of `cycles` in order; with `seconds`, stop
    after the cycle in which `seconds` of busy time have passed and at least
    `min_ops` operations were made.  Busy time is the sum of operation
    latencies: building the next cycle's inputs and checking outputs are not
    timed.  With `check`, each output is checked and dropped right after its
    operation, so results do not pile up in the heap while the clock runs.
    With `scaler`, latencies are also scaled to the reference speed."""
    records, busy = [], 0.0
    for index, ops in enumerate(cycles):
        for op in ops:
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed request is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            busy += latency
            record = Record(op, index, latency, result, error)
            if check:
                check_record(record)
            if scaler:
                scaler.add(record)
            records.append(record)
        if seconds is not None and busy >= seconds and len(records) >= min_ops:
            break
    if scaler:
        scaler.flush()
    return records, busy


def endless(mod, state, first):
    """Cycle 0 (already built), then cycles built on demand."""
    yield first
    for index in itertools.count(1):
        yield mod.cycle(state, index)


def check_record(r):
    if r.error is None:
        try:
            r.text = r.op.check(r.result, r.cycle < DEEP_CYCLES)
        except CheckFailed as exc:
            r.error = f"check failed: {exc}"
        except Exception as exc:  # the check itself called into segrekit
            r.error = f"check raised {type(exc).__name__}: {exc}"
    r.op = r.result = None  # keep no inputs or outputs alive


def nearest_rank(sorted_values, q):
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        if r.cycle == 0:
            h.update(f"{r.kind}\t{r.text if r.error is None else 'FAILED ' + r.error}\n".encode())
    return h.hexdigest()[:16]


def repeat_share(records) -> float:
    seen, repeats = set(), 0
    for r in records:
        repeats += r.shared in seen
        seen.add(r.shared)
    return repeats / len(records)


def child_seconds(args, pattern=None):
    """Wall time of a fresh interpreter, or a number it prints."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + args, capture_output=True, text=True, cwd=ROOT,
                          env=refkernel.child_env())
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} failed: {proc.stderr.strip()[-300:]}")
    if pattern is None:
        return wall, proc
    return float(re.search(pattern, proc.stdout + proc.stderr, re.M).group(1)), proc


def import_seconds() -> float:
    return child_seconds(["-c", IMPORT_CODE], r"^([0-9.eE+-]+)\s*$")[0]


def numpy_import_seconds() -> float:
    """Cumulative import time of numpy while importing segrekit, from
    ``-X importtime``; 0 when segrekit no longer imports numpy."""
    _, proc = child_seconds(["-X", "importtime", "-c", IMPORT_CODE])
    m = re.search(r"^import time:\s*\d+ \|\s*(\d+) \| +numpy\s*$", proc.stderr, re.M)
    return int(m.group(1)) / 1e6 if m else 0.0


def median_of(fn, n=3):
    return statistics.median(fn() for _ in range(n))


def scale_factor(ref, before):
    """Nominal time over the mean of `before` and a reference sample now."""
    return ref.nominal_s / statistics.mean([before, ref.sample()])


def set_up(mod, sk, seed, workdir, repeats):
    """Import segrekit in a fresh process, build the inputs and warm up,
    `repeats` times.  Return the last state, its first cycle, and the median
    set-up seconds, scaled and unscaled.  The import, a fresh process, is
    scaled by the child-process reference; building and warming up by the
    workload's own reference."""
    child, ref = refkernel.CHILD, reference(mod)
    scaled, raw = [], []
    for _ in range(repeats):
        before = child.sample()
        imported = import_seconds()
        imported_factor = scale_factor(child, before)
        before = ref.sample()
        t1 = time.perf_counter()
        state = mod.prepare(sk, seed, workdir)
        ops = mod.cycle(state, 0)
        mod.warmup(state)
        local = time.perf_counter() - t1
        local_factor = scale_factor(ref, before)
        raw.append(imported + local)
        scaled.append(imported * imported_factor + local * local_factor)
    return state, ops, statistics.median(scaled), statistics.median(raw)


def reference(mod):
    """The reference a workload's timings are scaled by: the in-process
    kernel, unless the workload's operations run in fresh processes."""
    return getattr(mod, "REFERENCE", refkernel.KERNEL)


def summarize(records, scaled=False):
    failed = [r for r in records if r.error is not None]
    unexpected = [r for r in failed if not r.known_defect]
    lat = sorted(r.scaled if scaled else r.latency for r in records)
    return {
        "attempted": len(records), "failed": len(failed), "unexpected": unexpected,
        "known": len(failed) - len(unexpected), "ops_per_s": len(lat) / sum(lat),
        "p50": nearest_rank(lat, 0.5), "p90": nearest_rank(lat, 0.9),
    }


def report_failures(records):
    """One line per failing kind of operation: the count and the first error."""
    first, count = {}, {}
    for r in records:
        if r.error is not None:
            first.setdefault(r.kind, r.error)
            count[r.kind] = count.get(r.kind, 0) + 1
    for kind in sorted(first):
        known = " (known defect)" if any(r.known_defect for r in records if r.kind == kind) else ""
        print(f"# failed{known}: {count[kind]} x {kind}, first: {first[kind][:200]}")


def layer_metrics(summary, extra) -> dict:
    self_s, calls, counts, total = (summary[k] for k in ("self_s", "calls", "counts", "total_s"))
    spolys = counts.get("ideal.spolys", 0)
    m = {
        "gaussian.ops": (counts.get("gaussian.ops", 0), "count"),
        "gaussian.max_bits": (counts.get("gaussian.max_bits", 0), "bits"),
        "orders.key_calls": (counts.get("orders.key_calls", 0), "count"),
        "poly.mul_calls": (calls.get("poly.mul", 0), "count"),
        "poly.self_s": (sum(v for k, v in self_s.items() if k.startswith("poly.")), "s"),
        "ideal.buchberger_calls": (calls.get("ideal.buchberger", 0), "count"),
        "ideal.buchberger_self_s": (self_s.get("ideal.buchberger", 0.0), "s"),
        "ideal.reduce_calls": (calls.get("ideal.reduce", 0), "count"),
        "ideal.reduce_self_s": (self_s.get("ideal.reduce", 0.0), "s"),
        "ideal.spolys": (spolys, "count"),
        "ideal.useful_reduction_ratio": (
            counts.get("ideal.useful_reductions", 0) / spolys if spolys else 0.0, "ratio"),
        "ideal.basis_max_size": (counts.get("ideal.basis_max_size", 0), "count"),
        "ideal.basis_max_degree": (counts.get("ideal.basis_max_degree", 0), "count"),
    }
    for name, span in [("ideal.eliminate_self_s", "ideal.eliminate"),
                       ("ideal.saturate_self_s", "ideal.saturate"),
                       ("ideal.pnf_self_s", "ideal.pnf"),
                       ("ideal.dimension_self_s", "ideal.dimension"),
                       ("solve.self_s", "solve"),
                       ("segre.inversion_set_self_s", "segre.inversion_set"),
                       ("segre.segre_sets_self_s", "segre.segre_sets"),
                       ("correspond.build_self_s", "correspond.build"),
                       ("correspond.fiber_self_s", "correspond.fiber"),
                       ("correspond.compose_self_s", "correspond.compose"),
                       ("correspond.invariance_self_s", "correspond.invariance"),
                       ("manifold.levi_self_s", "manifold.levi"),
                       ("linalg.self_s", "linalg"),
                       ("parsing.self_s", "parsing"),
                       ("report.emit_s", "report.emit")]:
        m[name] = (self_s.get(span, 0.0), "s")
    m["catalog.run_suite_s"] = (total.get("catalog.run_suite", 0.0), "s")
    m["cli.main_s"] = (total.get("cli.main", 0.0), "s")
    m.update(extra)
    return m


def emit(correct, attempted, failed, metrics):
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}" + (f"  (n={n})" if n is not None else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind like an error so that children are stopped and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    t0 = time.perf_counter()
    try:
        sk, shim_applied = import_segrekit(ROOT)
    except ImportFailed as exc:
        print(f"bench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    print(f"# segrekit {sk.__version__} imported in {time.perf_counter() - t0:.3f} s; "
          f"Limits hash shim {'applied' if shim_applied else 'not needed'}")
    mod = importlib.import_module(WORKLOADS[args.workload])

    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=ROOT) as workdir:
        if args.trace:
            return traced_run(mod, sk, args, workdir)
        return timed_run(mod, sk, args, workdir)


def timed_run(mod, sk, args, workdir) -> int:
    state, ops, setup_s, setup_raw = set_up(mod, sk, args.seed, workdir, SETUP_REPEATS)

    gc.collect()
    scaler = Scaler(reference(mod))
    records, busy = run_cycles(endless(mod, state, ops), seconds=args.seconds,
                               min_ops=MIN_OPS, scaler=scaler)
    s, raw = summarize(records, scaled=True), summarize(records)
    rss_kb = mod.peak_rss_kb(state) if hasattr(mod, "peak_rss_kb") else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report_failures(records)
    n = s["attempted"]
    error_rate = s["failed"] / n
    print(f"# error_rate = {error_rate:.6g} ratio  (n={n}; "
          f"{s['known']} known-defect failures, {len(s['unexpected'])} unexpected)")
    print(f"# cycles = {records[-1].cycle + 1}; busy {busy:.2f} s; "
          f"digest of cycle 0 outputs {digest(records)}")
    print(f"# repeat_input_share = {repeat_share(records):.6g}")
    print(f"# reference: median {statistics.median(scaler.samples) * 1e3:.3f} ms over "
          f"{len(scaler.samples)} samples; timings below are scaled to "
          f"{scaler.ref.nominal_s * 1e3:g} ms")
    print(f"# unscaled: setup_s {setup_raw:.6g} s, ops_per_s {raw['ops_per_s']:.6g} 1/s, "
          f"latency_ms_p50 {raw['p50'] * 1e3:.6g} ms, latency_ms_p90 {raw['p90'] * 1e3:.6g} ms")
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "ops_per_s": (s["ops_per_s"], "1/s", n),
        "latency_ms_p50": (s["p50"] * 1e3, "ms", n),
        "latency_ms_p90": (s["p90"] * 1e3, "ms", n),
        "ok_rate": (1.0 - error_rate, "ratio", n),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }
    emit(not s["unexpected"], n, s["failed"], metrics)
    return 0


def traced_run(mod, sk, args, workdir) -> int:
    interp = median_of(lambda: child_seconds(["-c", "pass"])[0])
    imports = median_of(import_seconds)
    numpy_s = numpy_import_seconds()
    state, ops, _, _ = set_up(mod, sk, args.seed, workdir, 1)

    gc.collect()
    untraced, _ = run_cycles(endless(mod, state, ops), seconds=args.seconds / 2,
                             scaler=Scaler(reference(mod)))
    # inputs are built, and outputs checked, outside the traced region, so
    # that the counters see the operations alone
    again = [mod.cycle(state, i) for i in range(getattr(mod, "TRACE_CYCLES", 1))]
    tracer = tracing.Tracer()
    state.trace_children = True
    tracer.install()
    try:
        traced, _ = run_cycles(again, check=False, scaler=Scaler(reference(mod)))
    finally:
        tracer.uninstall()
        state.trace_children = False
    summary = tracing.merge([tracer.summary()] + getattr(state, "child_traces", []))
    for name in summary["missing"]:
        print(f"# not traced (absent in this version): {name}")

    for r in traced:
        check_record(r)
    for a, b in zip(untraced, traced):
        if b.error is None and a.error is None and a.text != b.text:
            b.error = "traced output differs from the untraced output"
    records = untraced + traced
    s_u, s_t = summarize(untraced, scaled=True), summarize(traced, scaled=True)
    report_failures(records)
    print(f"# digest of cycle 0 outputs {digest(untraced)}")
    extra = {
        "cli.interp_s": (interp, "s"),
        "cli.import_s": (imports, "s"),
        "cli.import_numpy_s": (numpy_s, "s"),
        "trace.untraced_ops_per_s": (s_u["ops_per_s"], "1/s"),
        "trace.traced_ops_per_s": (s_t["ops_per_s"], "1/s"),
        "trace.overhead": (s_u["ops_per_s"] / s_t["ops_per_s"], "ratio"),
        "workload.repeat_input_share": (repeat_share(untraced), "ratio"),
        "workload.known_defect_share": (
            sum(r.known_defect for r in traced) / len(traced), "ratio"),
    }
    metrics = {k: (v, u, None) for k, (v, u) in layer_metrics(summary, extra).items()}
    failed = s_u["failed"] + s_t["failed"]
    emit(not (s_u["unexpected"] or s_t["unexpected"]), len(records), failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

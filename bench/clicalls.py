"""cli workload: fresh ``segrekit`` processes, one after another.

Each cycle runs the README commands (segre, essfin, minimal, levi,
correspond --fiber --reverse, suite --all) 15 times over the bundled data
and generated .mfd/.map files, through ``launcher.py``, which behaves like
the installed console script.  ``suite --all``, about twice as slow as the
others, is 3 of the 15 calls, so that the 90th percentile of latency falls
in the middle of these identical calls.  Interpreter start, import, parsing
and report output dominate; the engine work is a few milliseconds per call.
Latencies are scaled by the child-process reference (refkernel.CHILD),
timed after every call.  Every call must exit 0 and print a schema-1 JSON
report with the expected results."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import geometry as geo
import refkernel
from common import Op, expect

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launcher.py")
DATA = os.path.join(ROOT, "src", "segrekit", "data")
REFERENCE = refkernel.CHILD


class State(geo.State):
    def __init__(self, sk, seed, workdir):
        super().__init__(sk, seed)
        self.workdir = workdir
        self.trace_children = False
        self.child_traces = []
        self.peak_rss_kb = 0

    def write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path


def prepare(sk, seed, workdir):
    st = State(sk, seed, workdir)
    st.files = {}
    for n in range(2, 5):
        for r in range(1, 6):
            st.files[("P", n, r)] = st.write(f"power_n{n}_r{r}.mfd", geo.power_text(n, r))
            st.files[("map", n, r)] = st.write(f"pow_n{n}_r{r}.map", geo.power_map_text(n, r))
    for n in range(3, 7):
        for p in range(1, n + 1):
            st.files[("H", p, n - p)] = st.write(f"hq_p{p}_q{n - p}.mfd", geo.hyperquadric_text(p, n - p))
    return st


def run_child(st, args):
    """(exit code, stdout) of one launcher process; records its peak RSS
    and, when tracing, its trace summary."""
    env = refkernel.child_env()
    env["SEGREKIT_SEED"] = str(st.seed)
    env["BENCH_TRACE"] = "1" if st.trace_children else "0"
    err_path = os.path.join(st.workdir, "stderr.txt")
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, LAUNCHER] + args, stdout=subprocess.PIPE,
                                stderr=err, cwd=ROOT, env=env)
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    st.peak_rss_kb = max(st.peak_rss_kb, usage.ru_maxrss)
    if st.trace_children:
        with open(err_path) as fh:
            for line in fh:
                if line.startswith("BENCH_TRACE "):
                    st.child_traces.append(json.loads(line[len("BENCH_TRACE "):]))
    return proc.returncode, out.decode()


def peak_rss_kb(st):
    return st.peak_rss_kb


def _pt(p):
    return ",".join(str(x) for x in p)


def _op(st, kind, args, shared, expect_results):
    def call():
        return run_child(st, args)

    def check(out, deep):
        code, stdout = out
        expect(code == 0, f"exit code {code}")
        rep = json.loads(stdout)
        expect(rep.get("schema") == 1 and rep.get("command") == args[0], "bad report header")
        expect(rep.get("status") == "ok", f"status {rep.get('status')}")
        for key, want in expect_results.items():
            got = rep["results"].get(key)
            ok = want(got) if callable(want) else got == want
            expect(ok, f"results[{key}] = {got!r}")
        return stdout

    return Op(kind, shared, call, check)


def cycle(st, index):
    rng = random.Random(f"cli/{st.seed}/{index}")
    n, r = rng.randint(2, 4), rng.randint(1, 5)
    n2 = rng.randint(3, 6)
    p2 = rng.randint(1, n2)
    q2 = n2 - p2
    P, H, P1 = st.files[("P", n, r)], st.files[("H", p2, q2)], st.files[("P", n, 1)]
    sphere = os.path.join(DATA, "sphere_C2.mfd")
    hq3 = os.path.join(DATA, "hyperquadric_k1_n3.mfd")
    power = os.path.join(DATA, "power_r2_n2.mfd")
    g = geo.generic_point(st, rng, n)
    fg = st.power_map(n, r).apply(g)

    def hq_point():
        return _pt(geo.hyperquadric_point(st, rng, p2, q2))

    def one_generator(gens):
        return isinstance(gens, list) and len(gens) == 1

    def has_point(point):
        want = [str(x) for x in point]
        return lambda sols: sols is None or any(s["point"] == want for s in sols)

    return [
        _op(st, "segre.point", ["segre", sphere, "--point=" + _pt(geo.sphere_point(st, rng, 2))],
            "sphere_C2", {"generators": one_generator}),
        _op(st, "segre.symbolic", ["segre", H, "--symbolic"], H,
            {"parameter": "symbolic", "generators": one_generator}),
        _op(st, "essfin", ["essfin", P, "--point=" + _pt(geo.power_point(st, rng, n))], P,
            {"essentially_finite": True, "degree": r ** n}),
        _op(st, "essfin", ["essfin", power, "--point=" + _pt(geo.power_point(st, rng, 2))],
            "power_r2_n2", {"essentially_finite": True, "degree": 4}),
        _op(st, "minimal", ["minimal", H, "--point=" + hq_point()], H,
            {"minimal": True, "index": 2}),
        _op(st, "minimal", ["minimal", os.path.join(DATA, "tube_C2.mfd"),
                            "--point=" + _pt((geo.phase(st, geo.rand_frac(rng)), st.qi(rng.randint(-3, 3))))],
            "tube_C2", {"minimal": False}),
        _op(st, "levi", ["levi", H, "--point=" + hq_point(), "--conormal", "1"], H,
            {"signature": [p2 - 1, q2, 0]}),
        _op(st, "levi", ["levi", hq3, "--point=" + _pt(geo.hyperquadric_point(st, rng, 2, 1)),
                         "--conormal", "1"], "hyperquadric_k1_n3", {"signature": [1, 1, 0]}),
        _op(st, "correspond", ["correspond", P, P1, st.files[("map", n, r)],
                               "--fiber=" + _pt(fg), "--reverse"], P,
            {"reverse_fiber_degree": r ** n, "reverse_fiber_solutions": has_point(g)}),
        _op(st, "correspond", ["correspond", power, os.path.join(DATA, "hyperquadric_k1_n2.mfd"),
                               os.path.join(DATA, "square_n2.map"), "--fiber", "1,4", "--reverse"],
            "power_r2_n2", {"reverse_fiber_degree": 4}),
        _op(st, "segre.point", ["segre", P, "--point=" + _pt(geo.power_point(st, rng, n))], P,
            {"generators": one_generator}),
        _op(st, "essfin", ["essfin", H, "--point=" + hq_point()], H,
            {"essentially_finite": True, "degree": 1}),
        _op(st, "suite", ["suite", "--all"], "catalog", {"all_ok": True}),
        _op(st, "suite", ["suite", "--all"], "catalog", {"all_ok": True}),
        _op(st, "suite", ["suite", "--all"], "catalog", {"all_ok": True}),
    ]


def warmup(st):
    run_child(st, ["segre", os.path.join(DATA, "sphere_C2.mfd"), "--symbolic"])

"""geometry workload: a seeded mix of domain operations.

Inputs are the bundled catalog plus grown families:
  P(n, r)   1 + |z1|^2r + ... + |z_{n-1}|^2r - |z_n|^2r = 0, n in 2..4, r in 1..5
  H(p, q)   |z1|^2 + ... + |z_p|^2 - |z_{p+1}|^2 - ... - |z_n|^2 = 1, n = p + q in 3..6
  D2        |z|^2 = 1, z1*~z2 + z2*~z1 = |z3|^2 in C^3 (codimension 2)
with power maps z -> z^r from P(n, r) to P(n, 1).  Every cycle runs the same
21 operations on freshly drawn family members and points.  Expected values
are derived from the families: essential-finiteness degree r^n on P(n, r)
and 1 on H(p, q), Levi signature (p-1, q, 0) on H(p, q), reverse fiber
degree r^n for the power map, minimality index 2.  Two D2 operations
(essential finiteness and the identity fiber) fail their checks because of a
known defect in codimension 2; they stay in the mix and count as failures.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from importlib import resources

from common import Op, basis_text, expect

TRACE_CYCLES = 10        # a traced cycle is short; trace ten for steadier self times
D2_TEXT = ("vars z1 z2 z3\n"
           "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
           "rho: z1*~z2 + z2*~z1 - z3*~z3\n")
ROTATION = "component: (3/5)*z1 + (4/5)*z2\ncomponent: (-4/5)*z1 + (3/5)*z2\n"


def _vars(n):
    return "vars " + " ".join(f"z{k}" for k in range(1, n + 1)) + "\n"


def _abs2(k, r=1):
    return f"z{k}^{r}*~z{k}^{r}" if r > 1 else f"z{k}*~z{k}"


def power_text(n, r):
    pos = "".join(f" + {_abs2(k, r)}" for k in range(1, n))
    return _vars(n) + f"rho: 1{pos} - {_abs2(n, r)}\n"


def hyperquadric_text(p, q):
    terms = [_abs2(k) for k in range(1, p + 1)]
    terms += [f"- {_abs2(k)}" for k in range(p + 1, p + q + 1)]
    return _vars(p + q) + "rho: " + " + ".join(terms).replace("+ -", "-") + " - 1\n"


def power_map_text(n, r):
    return _vars(n) + "".join(f"component: z{k}^{r}\n" if r > 1 else f"component: z{k}\n"
                              for k in range(1, n + 1))


class State:
    def __init__(self, sk, seed):
        self.sk = sk
        self.seed = seed
        self.qi = sk.GaussianRational
        self.manifolds = {}
        self.maps = {}
        self.graphs = {}
        self.catalog = sk.load_catalog()
        self.catalog_names = sorted(self.catalog)
        manifest = json.loads(resources.files("segrekit.data").joinpath("manifest.json").read_text())
        self.expected = {e["name"]: set(e.get("expected", {})) for e in manifest["entries"]}

    def manifold(self, text):
        if text not in self.manifolds:
            self.manifolds[text] = self.sk.CRManifold.from_text(text)
        return self.manifolds[text]

    def power_map(self, n, r):
        key = (n, r)
        if key not in self.maps:
            self.maps[key] = self.sk.AlgebraicMap.from_text(
                power_map_text(n, r), self.manifold(power_text(n, r)))
        return self.maps[key]

    def power_graph(self, n, r_from, r_to):
        """Correspondence of z -> z^(r_from/r_to) from P(n, r_from) to P(n, r_to)."""
        key = (n, r_from, r_to)
        if key not in self.graphs:
            src = self.manifold(power_text(n, r_from))
            f = self.sk.AlgebraicMap.from_text(power_map_text(n, r_from // r_to), src)
            self.graphs[key] = self.sk.build_correspondence(src, self.manifold(power_text(n, r_to)), f)
        return self.graphs[key]


# -- rational points ------------------------------------------------------------------


def rand_frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def phase(st, t):
    d = 1 + t * t
    return st.qi((1 - t * t) / d, 2 * t / d)


def sphere_point(st, rng, p):
    """Rational point on the unit sphere of C^p (inverse stereographic map)."""
    y = [rand_frac(rng) for _ in range(2 * p - 1)]
    s = sum(v * v for v in y)
    x = [2 * v / (s + 1) for v in y] + [(s - 1) / (s + 1)]
    return [st.qi(x[2 * k], x[2 * k + 1]) for k in range(p)]


def hyperquadric_point(st, rng, p, q):
    if q == 0:
        return tuple(sphere_point(st, rng, p))
    t = Fraction(rng.randint(2, 7), rng.randint(1, 3))
    c, s = (t + 1 / t) / 2, (t - 1 / t) / 2
    return tuple([z * st.qi(c) for z in sphere_point(st, rng, p)] +
                 [z * st.qi(s) for z in sphere_point(st, rng, q)])


def power_point(st, rng, n):
    return tuple([st.qi(0)] * (n - 1) + [phase(st, rand_frac(rng))])


def d2_point(st, rng):
    k = Fraction(rng.randint(1, 7), rng.randint(1, 4))
    a = 2 / (k * k + 2)
    c = 2 * k / (k * k + 2)
    phi, psi = phase(st, rand_frac(rng)), phase(st, rand_frac(rng))
    return (phi * st.qi(a), phi * st.qi(1 - a), psi * st.qi(c))


def generic_point(st, rng, n):
    """A point with no zero coordinate, off the coordinate excluded loci."""
    return tuple(st.qi(rng.randint(1, 4), rng.randint(-2, 2)) for _ in range(n))


# -- checks ------------------------------------------------------------------------------


def _pt(p):
    return "(" + ", ".join(str(x) for x in p) + ")"


def _vanish(polys, binding):
    return all(g.eval(binding).is_zero() for g in polys)


def _conj(p):
    return tuple(x.conjugate() for x in p)


def _graph_binding(C, w, wp):
    b = dict(zip(C.wb_names, _conj(w)))
    b.update(zip(C.wpb_names, _conj(wp)))
    return b


def _has_solution(res, point):
    return res.solutions is None or any(tuple(s) == tuple(point) for s, _ in res.solutions)


# -- the operations ---------------------------------------------------------------------


def _segre_point(st, M, text, p, kind):
    def check(Q, deep):
        gens = Q.ideal.generators
        expect(len(gens) == M.d, f"{len(gens)} generators for codimension {M.d}")
        expect(_vanish(gens, dict(zip(M.zvar_names, p))), "p is not on its own Segre variety")
        return basis_text(gens)

    return Op(kind, text, lambda: st.sk.segre_variety(M, p), check)


def _segre_symbolic(st, M, text, p):
    def check(Q, deep):
        gens = Q.ideal.generators
        expect(len(gens) == M.d, f"{len(gens)} generators for codimension {M.d}")
        b = dict(zip(M.zvar_names, p))
        b.update(zip(Q.param_names, _conj(p)))
        expect(_vanish(gens, b), "Q_w(z) does not vanish at z = w on M")
        return basis_text(gens)

    return Op("segre.symbolic/H", text, lambda: st.sk.segre_variety(M, "symbolic"), check)


def _essfin(st, M, text, p, degree, kind, known_defect=False):
    def check(res, deep):
        expect(tuple(res) == (True, degree), f"essential finiteness {res} at {_pt(p)}, expected (True, {degree})")
        if deep:
            inv = st.sk.inversion_set(M, p)
            expect(_vanish(inv.ideal.generators, dict(zip(inv.ideal.table.names, _conj(p)))),
                   "w-bar is not in V(I_w)")
        return repr(tuple(res))

    return Op(kind, text, lambda: st.sk.essential_finiteness(M, p), check, known_defect)


def _minimal(st, M, text, p, kind):
    def check(res, deep):
        expect(tuple(res) == (True, 2), f"minimality {res}, expected (True, 2)")
        return repr(tuple(res))

    return Op(kind, text, lambda: st.sk.minimality(M, p), check)


def _levi(st, M, text, p, c, sig, kind):
    def check(rep, deep):
        expect(tuple(rep.signature) == sig, f"Levi signature {rep.signature}, expected {sig}")
        return repr(tuple(rep.signature))

    return Op(kind, text, lambda: st.sk.levi_signature(M, p, c), check)


def _identity_fiber(st, M, text, g, degree, kind, known_defect=False):
    sk = st.sk

    def call():
        C = sk.build_correspondence(M, M, sk.AlgebraicMap.identity(M))
        return C, sk.fiber(C, g)

    def check(out, deep):
        C, res = out
        expect(res.degree == degree, f"identity fiber degree {res.degree}, expected {degree}")
        expect(_has_solution(res, g), "w is not in its own identity fiber")
        if deep:
            expect(_vanish(C.graph.generators, _graph_binding(C, g, g)),
                   "the diagonal is not on the identity graph")
            expect(tuple(sk.essential_finiteness(M, g)) == (True, res.degree),
                   "identity fiber degree differs from the essential-finiteness degree")
        return basis_text(C.graph.generators) + f" | {res.degree}"

    return Op(kind, text, call, check, known_defect)


def cycle(st, index):
    rng = random.Random(f"geometry/{st.seed}/{index}")
    return _ops(st, rng, st.catalog_names[(st.seed + index) % len(st.catalog_names)])


def _ops(st, rng, suite_entry):
    ops = []

    n, r = rng.randint(2, 4), rng.randint(1, 5)
    ptext = power_text(n, r)
    P = st.manifold(ptext)
    n2 = rng.randint(3, 6)
    p2 = rng.randint(1, n2)
    htext = hyperquadric_text(p2, n2 - p2)
    H = st.manifold(htext)
    D2 = st.manifold(D2_TEXT)

    ops.append(_segre_point(st, P, ptext, power_point(st, rng, n), "segre.point/P"))
    ops.append(_segre_symbolic(st, H, htext, hyperquadric_point(st, rng, p2, n2 - p2)))
    ops.append(_segre_point(st, D2, D2_TEXT, d2_point(st, rng), "segre.point/D2"))

    ops.append(_essfin(st, P, ptext, power_point(st, rng, n), r ** n, "essfin/P"))
    ops.append(_essfin(st, H, htext, hyperquadric_point(st, rng, p2, n2 - p2), 1, "essfin/H"))
    ops.append(_essfin(st, D2, D2_TEXT, d2_point(st, rng), 1, "essfin/D2", known_defect=True))

    ops.append(_minimal(st, P, ptext, power_point(st, rng, n), "minimal/P"))
    ops.append(_minimal(st, H, htext, hyperquadric_point(st, rng, p2, n2 - p2), "minimal/H"))

    sig_p = (n - 1, 0, 0) if r == 1 else (0, 0, n - 1)
    ops.append(_levi(st, P, ptext, power_point(st, rng, n), (1,), sig_p, "levi/P"))
    ops.append(_levi(st, H, htext, hyperquadric_point(st, rng, p2, n2 - p2), (1,),
                     (p2 - 1, n2 - p2, 0), "levi/H"))
    ops.append(_levi(st, D2, D2_TEXT, d2_point(st, rng), (1, 0), (1, 0, 0), "levi/D2"))

    ops.extend(_correspondence_ops(st, rng))
    ops.append(_compose_op(st, rng))
    ops.extend(_invariance_ops(st, rng))

    ops.append(_identity_fiber(st, P, ptext, generic_point(st, rng, n), r ** n, "identity_fiber/P"))
    ops.append(_identity_fiber(st, H, htext, generic_point(st, rng, n2), 1, "identity_fiber/H"))
    ops.append(_identity_fiber(st, D2, D2_TEXT, d2_point(st, rng), 1, "identity_fiber/D2",
                               known_defect=True))

    ops.append(_suite_op(st, suite_entry))
    return ops


def _correspondence_ops(st, rng):
    """Build the power-map correspondence, then fibers forward and back."""
    sk = st.sk
    n, r = rng.randint(2, 4), rng.randint(1, 5)
    src = st.manifold(power_text(n, r))
    dst = st.manifold(power_text(n, 1))
    f = st.power_map(n, r)
    g = generic_point(st, rng, n)
    fg = f.apply(g)
    built = {}

    def build():
        built["C"] = sk.build_correspondence(src, dst, f)
        return built["C"]

    def check_build(C, deep):
        expect(C.graph.generators, "empty graph ideal")
        expect(_vanish(C.graph.generators, _graph_binding(C, g, fg)), "(w, f(w)) is not on the graph")
        return basis_text(C.graph.generators)

    def check_fiber(point, degree):
        def check(res, deep):
            expect(res.degree == degree, f"fiber degree {res.degree}, expected {degree}")
            expect(_has_solution(res, point), "the known preimage/image is not in the fiber")
            return f"{res.degree} {sorted(str(s) for s in res.solutions or [])}"
        return check

    text = power_text(n, r)
    return [
        Op("correspond.build/P", text, build, check_build),
        Op("correspond.fiber/P", text, lambda: sk.fiber(built["C"], g), check_fiber(fg, 1)),
        Op("correspond.fiber_reverse/P", text, lambda: sk.fiber(built["C"], fg, reverse=True),
           check_fiber(g, r ** n)),
    ]


def _compose_op(st, rng):
    """P(n, r1*r2) -> P(n, r2) -> P(n, 1), composed, then the reverse fiber."""
    sk = st.sk
    n = rng.randint(2, 3)
    r1, r2 = rng.choice([(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (1, 4), (4, 1)])
    C1 = st.power_graph(n, r1 * r2, r2)
    C2 = st.power_graph(n, r2, 1)
    g = generic_point(st, rng, n)
    fg = tuple(x ** (r1 * r2) for x in g)

    def call():
        C = sk.compose(C1, C2)
        return C, sk.fiber(C, fg, reverse=True)

    def check(out, deep):
        C, res = out
        want = (r1 * r2) ** n
        expect(res.degree == want, f"composite reverse fiber degree {res.degree}, expected {want}")
        expect(_has_solution(res, g), "the known preimage is not in the composite fiber")
        return basis_text(C.graph.generators) + f" | {res.degree}"

    return Op("compose/P", power_text(n, r1 * r2), call, check)


def _invariance_ops(st, rng):
    sk = st.sk
    n, r = rng.randint(2, 4), rng.choice([1, 2, 4])
    src = st.manifold(power_text(n, r))
    dst = st.manifold(power_text(n, 1))
    f = st.power_map(n, r)
    pts = [power_point(st, rng, n) for _ in range(2)]
    seed = rng.randint(0, 10 ** 6)

    n2 = rng.randint(3, 6)
    p2 = rng.randint(2, n2)
    htext = hyperquadric_text(p2, n2 - p2)
    H = st.manifold(htext)
    rot = sk.AlgebraicMap.from_text(_vars(n2) + ROTATION + "".join(
        f"component: z{k}\n" for k in range(3, n2 + 1)), H)
    hpts = [hyperquadric_point(st, rng, p2, n2 - p2) for _ in range(2)]

    def check(rep, deep):
        expect(rep.ok, f"invariance: {rep.passed}/{rep.checked} evaluations passed")
        return f"{rep.passed}/{rep.checked}"

    return [
        Op("invariance/P", power_text(n, r),
           lambda: sk.verify_invariance(src, dst, f, pts, per_point=3, seed=seed), check),
        Op("invariance/H", htext,
           lambda: sk.verify_invariance(H, H, rot, hpts, per_point=3, seed=seed), check),
    ]


def _suite_op(st, name):
    sk = st.sk
    entry = st.catalog[name]
    seed = st.seed

    def check(rep, deep):
        passed = {c.name for c in rep.checks if c.ok}
        missing = st.expected[name] - passed
        expect(rep.ok and not missing, f"suite {name}: not ok or expectations unmet {sorted(missing)}")
        return " ".join(f"{c.name}={c.ok}:{c.detail}" for c in rep.checks)

    return Op("suite/" + name, "catalog:" + name, lambda: sk.run_suite(entry, seed=seed), check)


def prepare(sk, seed, workdir):
    st = State(sk, seed)
    for n in range(2, 5):
        for r in range(1, 6):
            st.power_map(n, r)
    for n in range(3, 7):
        for p in range(1, n + 1):
            st.manifold(hyperquadric_text(p, n - p))
    st.manifold(D2_TEXT)
    return st


def warmup(st):
    # the same operations whatever the seed, so that set-up time does not depend on it
    for op in _ops(st, random.Random("geometry/warmup"), "power_r1_s2_n2"):
        try:
            op.call()
        except Exception:  # the known-defect operations raise; warm-up only
            pass

"""M's symbolic inversion containment, kept in M's store.

``inversion_set(M, SYMBOLIC)`` and the identity correspondence of M both
read it.  The general path of ``build_correspondence`` is the oracle: the
containment ideal of ``graph_targets`` on the symbolic Segre variety,
saturated by the product of its ledger.  The identity graph read from the
store equals it, generators in order and ledger too."""

import json
from fractions import Fraction
from math import prod

import pytest

from segrekit import correspond, segre
from segrekit.catalog import load_catalog, load_manifold
from segrekit.correspond import (AlgebraicMap, Correspondence, _param_table,
                                 build_correspondence, fiber, graph_targets,
                                 relation_correspondence, splits_at)
from segrekit.gaussian import GaussianRational as QI
from segrekit.ideal import Ideal, saturate
from segrekit.manifold import CRManifold, polar_gens
from segrekit.orders import InconclusiveError, InputError, ResourceLimitError
from segrekit.poly import WB, ZB
from segrekit.segre import SYMBOLIC, containment_ideal, inversion_set

from test_cli import data_path, run_cli


def _vars(n):
    return "vars " + " ".join(f"z{k}" for k in range(1, n + 1)) + "\n"


def _abs2(k, r=1):
    return f"z{k}^{r}*~z{k}^{r}" if r > 1 else f"z{k}*~z{k}"


def power_text(n, r):
    """P(n, r): 1 + |z1|^2r + ... + |z_{n-1}|^2r - |z_n|^2r = 0."""
    return _vars(n) + "rho: 1" + "".join(f" + {_abs2(k, r)}" for k in range(1, n)) \
        + f" - {_abs2(n, r)}\n"


def hyperquadric_text(p, q):
    """H(p, q): |z1|^2 + ... + |z_p|^2 - |z_{p+1}|^2 - ... - |z_n|^2 = 1."""
    terms = [_abs2(k) for k in range(1, p + 1)] + [f"-{_abs2(k)}" for k in range(p + 1, p + q + 1)]
    return _vars(p + q) + "rho: " + " + ".join(terms) + " - 1\n"


D2_TEXT = ("vars z1 z2 z3\n"
           "rho: z1*~z1 + z2*~z2 + z3*~z3 - 1\n"
           "rho: z1*~z2 + z2*~z1 - z3*~z3\n")
D2_POINT = (QI(Fraction(2, 3)), QI(Fraction(1, 3)), QI(Fraction(2, 3)))
C3_TEXT = "vars z1 z2\nrho: z1^3*~z1^3 + z2*~z2 - 1\n"
# on c3: |3/5+1/5*i|^6 = (2/5)^3 = 8/125, and |24/25+3/25*i|^2 = 117/125
C3_POINT = "3/5+1/5*i,24/25+3/25*i"


def _catalog_texts():
    seen = {}
    for entry in load_catalog().values():
        for M in (entry.manifold, entry.source, entry.target):
            if M is not None:
                seen.setdefault(M, M)
    return [(f"catalog-{k}", M) for k, M in enumerate(seen)]


MANIFOLDS = (_catalog_texts()
             + [(f"P({n},{r})", CRManifold.from_text(power_text(n, r)))
                for n in (2, 3) for r in (1, 2, 3)]
             + [(f"H({p},{n - p})", CRManifold.from_text(hyperquadric_text(p, n - p)))
                for n in (2, 3, 4) for p in range(1, n)]
             + [("c3", CRManifold.from_text(C3_TEXT)), ("D2", CRManifold.from_text(D2_TEXT))]
             # leading coefficients 1: an empty ledger, so no saturation
             # reorders the generators
             + [(f"tube-{n}", CRManifold.from_text(
                 _vars(n) + "rho: z1 + ~z1" + "".join(f" - {_abs2(k)}" for k in range(2, n + 1))
                 + "\n")) for n in (2, 3)])


def general_identity_graph(M, Mp=None):
    """The graph of the identity of M onto Mp (by default M) by the general
    path, with no store read."""
    Mp = M if Mp is None else Mp
    ptable = _param_table(M, Mp)
    targets = graph_targets(M, Mp, AlgebraicMap.identity(M), ptable)
    gens, excluded = containment_ideal(M, SYMBOLIC, targets, ptable)
    graph = Ideal.make(gens, table=ptable)
    if excluded:
        graph = saturate(graph, prod(excluded[1:], start=excluded[0]))
    return Correspondence(graph, M, Mp, excluded)


def symbolic_containment(M):
    """containment_ideal of rho(z, zb) on the symbolic Q_w, made afresh."""
    zb = M.block(ZB)
    ptable = M.ring(zb + M.block(WB))
    return containment_ideal(M, SYMBOLIC, polar_gens(M, M.ring(M.zvar_names, ptable.names), zb),
                             ptable)


def _outcome(f, *args):
    """("ok", f(*args)), or ("raised", class, message)."""
    try:
        return "ok", f(*args)
    except (InconclusiveError, InputError, ResourceLimitError) as exc:
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("label, M", MANIFOLDS, ids=[m[0] for m in MANIFOLDS])
def test_identity_graph_from_the_store_equals_the_general_path(label, M):
    want = general_identity_graph(M)
    got = build_correspondence(M, M, AlgebraicMap.identity(M))
    assert got.graph.table == want.graph.table
    assert got.graph.generators == want.graph.generators
    assert got.excluded == want.excluded
    # a second build reads the store, and a fresh copy of M fills its own
    again = build_correspondence(M, M, AlgebraicMap.identity(M))
    assert again.graph.generators == want.graph.generators and again.excluded == want.excluded
    copy = M._replace()
    assert build_correspondence(copy, copy, AlgebraicMap.identity(copy)).graph == got.graph
    inv = inversion_set(M, SYMBOLIC)
    gens, excluded = symbolic_containment(M)
    assert inv.ideal.generators == Ideal.make(gens, table=inv.ideal.table).generators
    assert inv.excluded == excluded


def test_identity_onto_another_manifold_takes_the_general_path():
    """The identity map between two manifolds over the same variables is
    no inversion set; an equal manifold read again is."""
    sphere = load_manifold("sphere_C2.mfd")
    for Mp in (load_manifold("hyperquadric_k1_n2.mfd"), load_manifold("power_r2_n2.mfd"),
               load_manifold("sphere_C2.mfd")):
        got = build_correspondence(sphere, Mp, AlgebraicMap.identity(sphere))
        want = general_identity_graph(sphere, Mp)
        assert got.graph.generators == want.graph.generators
        assert got.excluded == want.excluded


def test_d2_identity_fiber_is_that_of_the_general_path():
    """D2's identity fiber is wrong today (ROADMAP item 1): it raises.  The
    graph read from the store gives the same fiber, or the same error class
    and message."""
    M = CRManifold.from_text(D2_TEXT)
    got = _outcome(fiber, build_correspondence(M, M, AlgebraicMap.identity(M)), D2_POINT)
    assert got == _outcome(fiber, general_identity_graph(M), D2_POINT)


def _spy(monkeypatch):
    """Every symbolic containment_ideal call, as the manifold it was for."""
    calls = []
    real = segre.containment_ideal

    def spy(M, w, targets, ptable):
        if w == SYMBOLIC:
            calls.append(M)
        return real(M, w, targets, ptable)

    monkeypatch.setattr(segre, "containment_ideal", spy)
    monkeypatch.setattr(correspond, "containment_ideal", spy)
    return calls


def test_one_symbolic_containment_per_manifold(monkeypatch):
    calls = _spy(monkeypatch)
    M = CRManifold.from_text(hyperquadric_text(2, 1))
    P = CRManifold.from_text(power_text(2, 2))
    for _ in range(3):
        for N in (M, P):
            build_correspondence(N, N, AlgebraicMap.identity(N))
            inversion_set(N, SYMBOLIC)
    assert [id(N) for N in calls] == [id(M), id(P)]
    # an equal manifold read from the same text is another instance
    again = CRManifold.from_text(hyperquadric_text(2, 1))
    inversion_set(again, SYMBOLIC)
    assert len(calls) == 3 and calls[2] is again
    # a map other than the identity takes the general path on every build
    rot = AlgebraicMap.from_text(
        "vars z1 z2 z3\ncomponent: z2\ncomponent: z1\ncomponent: z3\n", M)
    build_correspondence(M, M, rot)
    build_correspondence(M, M, rot)
    assert len(calls) == 5


def test_replace_computes_its_own_containment(monkeypatch):
    calls = _spy(monkeypatch)
    M = CRManifold.from_text(power_text(2, 2))
    first = inversion_set(M, SYMBOLIC)
    same = M._replace()
    assert inversion_set(same, SYMBOLIC).ideal.generators == first.ideal.generators
    other = M._replace(rho=CRManifold.from_text(power_text(2, 3)).rho)
    got = inversion_set(other, SYMBOLIC)
    gens, excluded = symbolic_containment(other)
    assert got.ideal.generators == tuple(gens) and got.excluded == excluded
    assert got.ideal.generators != first.ideal.generators
    assert [id(N) for N in calls] == [id(M), id(same), id(other)]


def test_splits_is_inconclusive_off_q_i():
    """w'^3 = w^3 over (3/5, 4/5): the fiber needs the cube roots of
    unity, which are not in Q(i), so splitting is not decided."""
    sphere = load_manifold("sphere_C2.mfd")
    C = relation_correspondence(sphere, sphere, ["wpb_z1^3 - wb_z1^3", "wpb_z2 - wb_z2"])
    q = (QI(Fraction(3, 5)), QI(Fraction(4, 5)))
    assert fiber(C, q) == (3, None)
    with pytest.raises(InconclusiveError, match="cannot decide"):
        splits_at(C, q)


@pytest.mark.parametrize("flags, code, status", [
    ((), 0, "ok"), (("--splits",), 3, "inconclusive: "),
], ids=["fiber", "splits"])
def test_cli_splits_off_q_i_exits_inconclusive(tmp_path, flags, code, status):
    mfd = str(tmp_path / "c3.mfd")
    with open(mfd, "w") as fh:
        fh.write(C3_TEXT)
    got, out, _ = run_cli("correspond", mfd, mfd, data_path("identity_C2.map"),
                          "--fiber", C3_POINT, *flags)
    report = json.loads(out)
    assert got == code and report["status"].startswith(status)
    assert report["results"]["forward_fiber_degree"] == 3

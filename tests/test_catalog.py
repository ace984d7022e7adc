"""Bundled catalog and the numeric cross-check oracle."""

import hashlib
import math

import pytest

from segrekit.catalog import (SAMPLERS, load_catalog, run_suite,
                              sample_points)
from segrekit.parsing import parse_poly
from segrekit.poly import VarTable

from oracle import _compile, _eval, numeric_oracle


def test_catalog_loads_all_entries():
    cat = load_catalog()
    assert set(cat) == {"sphere_C2", "hyperquadric_k1_n3", "tube_C2",
                        "power_r2_s1_n2", "power_r1_s2_n2"}
    kinds = {e.kind for e in cat.values()}
    assert kinds == {"manifold", "correspondence", "relation"}


def test_catalog_manifolds_are_real():
    cat = load_catalog()
    for e in cat.values():
        for M in (e.manifold, e.source, e.target):
            if M is not None:
                assert M.real


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_samplers_hit_their_manifold(name):
    cat = load_catalog()
    candidates = [e.manifold for e in cat.values()
                  if e.manifold is not None and e.name == name]
    candidates += [e.source for e in cat.values() if e.source_name == name]
    M = candidates[0]
    for p in sample_points(name, 25, seed=9):
        assert M.contains(p)


def test_sample_points_deterministic():
    a = sample_points("sphere_C2", 10, seed=3)
    b = sample_points("sphere_C2", 10, seed=3)
    assert a == b
    assert len(set(a)) == 10


def test_sample_points_are_pinned():
    """The canonical triples of every sampler's points, seeds 0-29, as the
    Fraction formulas ((1-t^2) + 2t i)/(1+t^2), (t +- 1/t)/2 gave them."""
    h = hashlib.sha256()
    for name in sorted(SAMPLERS):
        for seed in range(30):
            for p in sample_points(name, 8, seed):
                for x in p:
                    h.update(f"{x._a},{x._b},{x._d};".encode())
            h.update(b"|")
    assert h.hexdigest()[:16] == "72797f333246cd7b"


def test_run_suite_all_green():
    cat = load_catalog()
    for entry in cat.values():
        rep = run_suite(entry, seed=1)
        bad = [c for c in rep.checks if not c.ok]
        assert rep.ok, f"{entry.name}: {bad}"


def test_oracle_counts_quartic_roots():
    table = VarTable.make(["x"], conjugates=False)
    p = parse_poly("x^4 - 1", table)
    res = numeric_oracle([p], ["x"], seed=4)
    assert res.count == 4
    assert res.max_residual < 1e-9


@pytest.mark.parametrize("sources, count", [
    (["x^2 - 1", "y^2 - 4"], 4),
    # three equations in two unknowns: Newton takes least-squares steps
    (["x^2 - 1", "y^2 - 4", "x*y - 2"], 2),
], ids=["square", "overdetermined"])
def test_oracle_counts_system_roots(sources, count):
    table = VarTable.make(["x", "y"], conjugates=False)
    sys_ = [parse_poly(src, table) for src in sources]
    res = numeric_oracle(sys_, ["x", "y"], seed=4)
    assert res.count == count


def test_oracle_reads_an_overflowing_power_as_infinity():
    table = VarTable.make(["x"], conjugates=False)
    terms = _compile(parse_poly("x^4 - 1", table), [table.index("x")])
    assert _eval(terms, [1e100 + 0j]) == complex(math.inf)


def test_oracle_is_seed_deterministic():
    table = VarTable.make(["x"], conjugates=False)
    p = parse_poly("x^3 - 2", table)
    a = numeric_oracle([p], ["x"], seed=7)
    b = numeric_oracle([p], ["x"], seed=7)
    assert a.count == b.count == 3


@pytest.mark.parametrize("name", ["sphere_C2", "hyperquadric_k1_n3", "tube_C2"])
@pytest.mark.parametrize("module, function", [
    ("segre", "essential_finiteness"),
    ("manifold", "levi_signature"),
])
def test_suite_computes_each_quantity_once_per_point(name, module, function, monkeypatch):
    import importlib

    import segrekit.catalog as catalog

    home = importlib.import_module("segrekit." + module)
    calls = []
    real = getattr(home, function)

    def counted(M, *args):
        calls.append(tuple(tuple(a) for a in args))
        return real(M, *args)

    # the catalog's own name, and the one other modules call through
    monkeypatch.setattr(catalog, function, counted)
    monkeypatch.setattr(home, function, counted)
    rep = run_suite(load_catalog()[name], seed=0)
    assert rep.ok
    assert len(calls) == len(set(calls))


def _stretched_sphere():
    """sphere_C2 with the self-map (z1, 2*z2), which does not preserve it."""
    from segrekit.correspond import AlgebraicMap

    entry = load_catalog()["sphere_C2"]
    stretch = AlgebraicMap.from_text("vars z1 z2\ncomponent: z1\ncomponent: 2*z2\n",
                                     entry.manifold)
    return entry._replace(maps={"stretch": stretch})


def test_suite_reports_a_self_map_that_leaves_the_manifold():
    rep = run_suite(_stretched_sphere(), seed=0)
    checks = {c.name: c for c in rep.checks}
    assert checks["invariance_stretch"].ok is False
    assert rep.ok is False


def test_suite_all_exits_with_a_mismatch_on_a_failing_self_map(monkeypatch):
    import io
    import json
    from contextlib import redirect_stderr, redirect_stdout

    import segrekit.catalog as catalog
    from segrekit.cli import main

    entry = _stretched_sphere()
    monkeypatch.setattr(catalog, "load_catalog", lambda: {entry.name: entry})
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["suite", "--all"])
    doc = json.loads(out.getvalue())
    assert code == 1
    assert doc["status"] == "mismatch"
    assert doc["results"]["sphere_C2"]["checks"]["invariance_stretch"]["ok"] is False

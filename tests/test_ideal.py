"""Groebner engine: bases, membership, elimination, dimension, degree,
parametric reduction."""

import itertools
import random
from fractions import Fraction

import pytest

from segrekit.gaussian import GaussianRational as QI, QI_ONE, QI_ZERO
from segrekit.ideal import (Ideal, Limits, ResourceLimitError,
                            buchberger, degree_zero_dim, dimension, eliminate,
                            exact_div, limits_scope, member, normal_form,
                            parametric_normal_form, radical_member,
                            reduce_poly, saturate, standard_monomials)
from segrekit import ideal
from segrekit.ideal import _divides, _gm_update, _lcm, _s_poly
from segrekit.orders import block_elim, grevlex, lex
from segrekit.parsing import parse_poly
from segrekit.poly import Poly, VarTable


def P(src, table):
    return parse_poly(src, table)


def make_ideal(sources, names, order=None):
    table = VarTable.make(list(names), conjugates=False)
    gens = [P(s, table) for s in sources]
    return Ideal.make(gens, order or grevlex(len(table)), table)


def test_buchberger_confluence():
    """Every S-polynomial of a computed basis reduces to zero."""
    I = make_ideal(["x^2 + y", "x*y - 1", "y^3 - x"], "xyz"[:2] + "z")
    gb = I.groebner()
    order = I.order
    for a in range(len(gb)):
        for b in range(a + 1, len(gb)):
            s = _s_poly(gb[a], gb[b], order)
            assert reduce_poly(s, gb, order).is_zero()


def test_membership():
    I = make_ideal(["x^2"], "xy")
    table = I.table
    assert member(P("x^3 + x^2*y", table), I)
    assert not member(P("x", table), I)
    assert radical_member(P("x", table), I)
    assert not radical_member(P("y", table), I)


def test_trivial_ideal():
    I = make_ideal(["x", "x - 1"], "xy")
    assert I.is_trivial()
    assert dimension(I) == -1


def test_twisted_cubic_elimination():
    table = VarTable.make(["t", "x", "y", "z"], conjugates=False)
    I = Ideal.make([P("x - t", table), P("y - t^2", table),
                    P("z - t^3", table)], grevlex(len(table)), table)
    E = eliminate(I, ["x", "y", "z"])
    et = E.table
    # the eliminant must contain y^3 - z^2 type relations; check vanishing
    assert member(P("y^3 - z^2", et), E) or member(P("z^2 - y^3", et), E)


def test_elimination_vanishes_on_projection():
    """Sampled points of the parametrized curve satisfy the eliminant."""
    table = VarTable.make(["t", "x", "y"], conjugates=False)
    I = Ideal.make([P("x - t^2", table), P("y - t^3", table)],
                   grevlex(len(table)), table)
    E = eliminate(I, ["x", "y"])
    rng = random.Random(3)
    for _ in range(100):
        t = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        binding = {"x": t ** 2, "y": t ** 3}
        for g in E.generators:
            assert g.eval(binding).is_zero()


def test_dimension_examples():
    # a hypersurface in 3 variables has dimension 2
    I = make_ideal(["x*y - z"], "xyz")
    assert dimension(I) == 2
    # a point has dimension 0
    J = make_ideal(["x - 1", "y + 2"], "xy")
    assert dimension(J) == 0
    # the empty ideal is the whole space
    table = VarTable.make(["x", "y"], conjugates=False)
    K = Ideal(tuple(), grevlex(2), table)
    assert dimension(K) == 2


@pytest.mark.parametrize("a", [1, 2, 3, 5, 8])
def test_degree_binomial_family(a):
    """deg <x^a - c> = a for any nonzero constant c."""
    I = make_ideal([f"x^{a} - 7", "y - 1"], "xy")
    assert dimension(I) == 0
    assert degree_zero_dim(I) == a


def test_standard_monomials():
    I = make_ideal(["x^2", "y^3"], "xy")
    mons = standard_monomials(I)
    assert len(mons) == 6


def test_normal_form_is_canonical():
    I = make_ideal(["x^2 - y", "y^2 - x"], "xy")
    p = P("x^4", I.table)
    q = P("x^4 + x^2 - y", I.table)
    assert normal_form(p, I) == normal_form(q, I)


def test_saturation_strips_component():
    # <x*y> : y^inf = <x>
    I = make_ideal(["x*y"], "xy")
    S = saturate(I, P("y", I.table))
    assert member(P("x", S.table), S)
    assert not member(P("y", S.table), S)


def test_parametric_normal_form_specialization():
    """Pseudo-reduction commutes with specialization away from the
    excluded locus (50 random trials)."""
    table = VarTable.make(["x", "y"], params=["a", "b"], conjugates=False)
    I = Ideal.make([P("a*x - b", table)], grevlex(len(table)), table)
    p = P("x^2*a^2 - b^2 + y", table)
    rem, excluded = parametric_normal_form(p, I, ["a", "b"])
    rng = random.Random(11)
    for _ in range(50):
        a = QI(Fraction(rng.randint(1, 9)), Fraction(rng.randint(0, 3)))
        b = QI(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-3, 3)))
        if any(e.eval({"a": a, "b": b}).is_zero() for e in excluded):
            continue
        x = b / a
        y = QI(Fraction(rng.randint(-5, 5)))
        full = {"a": a, "b": b, "x": x, "y": y}
        # on the specialized variety the remainder represents the same
        # residue class as p, so their values agree there
        assert rem.eval(full) == p.eval(full)


def test_parametric_normal_form_strips_content():
    table = VarTable.make(["x"], params=["w1", "w2"], conjugates=False)
    I = Ideal.make([P("w1*x - 1", table)], grevlex(len(table)), table)
    p = P("w2*x - 1", table)
    rem, excluded = parametric_normal_form(p, I, ["w1", "w2"])
    assert str(rem) in ("w2-w1", "w1-w2", "-w1+w2", "-w2+w1")
    assert excluded


def test_parametric_normal_form_pinned():
    """Remainder and excluded-locus ledger (in first-use order) on two
    generators with distinct non-constant leading coefficients a and b+1."""
    table = VarTable.make(["x", "y"], params=["a", "b"], conjugates=False)
    I = Ideal.make([P("a*x^2 - b*y + 1", table), P("(b+1)*y^2 - x", table)],
                   grevlex(len(table)), table)
    rem, excluded = parametric_normal_form(
        P("x^3*y + y^3 - a*b*x + 2", table), I, ["a", "b"])
    assert str(rem) == ("-x*a^3*b^2-x*a^3*b+x*y*a^2-x*y*a*b-x*y*a"
                        "+2*a^2*b+y*b^2+2*a^2-b")
    assert [str(e) for e in excluded] == ["a", "b+1"]
    rem, excluded = parametric_normal_form(
        P("y^4 + a*x*y^2 - x^2 + b", table), I, ["a", "b"])
    assert str(rem) == ("y*a*b^2-y*b^3+a*b^3+y*a*b-2*y*b^2+2*a*b^2+b^2"
                        "-a+2*b")
    assert [str(e) for e in excluded] == ["b+1", "a"]


DIV_TABLE = VarTable.make(["x", "y", "z"], conjugates=False)


def random_poly(rng, nterms, degree, table=DIV_TABLE, real=False):
    terms = {}
    for _ in range(nterms):
        m = tuple(rng.randint(0, degree) for _ in range(len(table)))
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        terms[m] = QI(re) if real else QI(re, Fraction(rng.randint(-9, 9),
                                                        rng.randint(1, 4)))
    return Poly(table, terms)


def leading(p, order):
    return max(p.terms, key=order.key)


@pytest.mark.parametrize("order", [grevlex(3), lex(3)], ids=["grevlex", "lex"])
def test_exact_div(order):
    """exact_div recovers p from p*d, and refuses p*d + r when no term of
    the nonzero r is divisible by lm(d)."""
    rng = random.Random(5)
    for _ in range(40):
        p, d = random_poly(rng, 4, 3), random_poly(rng, 3, 2)
        if d.is_zero() or d.is_constant():
            continue
        assert exact_div(p * d, d, order) == p
        lm_d = leading(d, order)
        r = random_poly(rng, 3, 3)
        r = Poly(DIV_TABLE, {m: c for m, c in r.terms.items()
                             if not _divides(lm_d, m)})
        if r.is_zero():
            continue
        assert exact_div(p * d + r, d, order) is None
        assert reduce_poly(p * d + r, [d], order) == r


@pytest.mark.parametrize("order", [grevlex(3), lex(3)], ids=["grevlex", "lex"])
def test_reduce_poly_against_a_groebner_basis(order):
    """The remainder has no term divisible by a leading monomial of G, and
    p - r lies in <G>: adding multiples of G to p leaves r unchanged."""
    rng = random.Random(9)
    for _ in range(10):
        G = buchberger([random_poly(rng, 3, 2) for _ in range(2)], order)
        lms = [leading(g, order) for g in G]
        for _ in range(5):
            p = random_poly(rng, 5, 4)
            r = reduce_poly(p, G, order)
            assert not any(_divides(l, m) for l in lms for m in r.terms)
            assert reduce_poly(p - r, G, order).is_zero()
            shifted = p + sum((random_poly(rng, 2, 2) * g for g in G),
                              Poly.zero(DIV_TABLE))
            assert reduce_poly(shifted, G, order) == r


def test_resource_limit():
    table = VarTable.make(["x", "y"], conjugates=False)
    gens = [P("x^9*y^9 - x", table), P("x^8*y^2 - y^7", table)]
    with limits_scope(Limits(max_degree=10, max_basis=400)):
        with pytest.raises(ResourceLimitError):
            buchberger(gens, grevlex(2))


def test_ideal_equality_is_order_independent():
    A = make_ideal(["x^2 - y", "y^2 - x"], "xy")
    B = make_ideal(["y^2 - x", "x^2 - y", "x^4 - x"], "xy")
    assert A == B


# -- the Gebauer-Moeller pair update -------------------------------------------

def _update(lms, live, pairs, sugar=None):
    """_gm_update for the last of ``lms``; sugars default to the degrees."""
    sugar = sugar or [sum(m) for m in lms]
    return _gm_update(lms, sugar, live, pairs, len(lms) - 1)


def test_gm_update_criteria():
    """Each criterion on leading monomials in x, y, z chosen to make it fire."""
    x2y, xy2, xy = (2, 1, 0), (1, 2, 0), (1, 1, 0)
    # B: xy divides lcm(x^2*y, x*y^2) = x^2*y^2, and its lcm with either is
    # smaller; xy also divides both leading monomials, which leave ``live``
    pairs, live = {(0, 1): (2, 2, 0)}, [0, 1]
    assert _update([x2y, xy2, xy], live, pairs) == [(0, x2y), (1, xy2)]
    assert pairs == {(0, 2): x2y, (1, 2): xy2} and live == [2]
    # ... but not when the pairs with xy would come out of the sugar order
    # after the pair they replace: (0, 2) has sugar 6 - 2 + 3 = 7 > 4
    pairs, live = {(0, 1): (2, 2, 0)}, [0, 1]
    _update([x2y, xy2, xy], live, pairs, sugar=[3, 3, 6])
    assert (0, 1) in pairs
    # M: lcm(y*z, x*y) = x*y*z properly divides lcm(x*z^2, x*y) = x*y*z^2
    pairs, live = {}, [0, 1]
    assert _update([(1, 0, 2), (0, 1, 1), xy], live, pairs) == [(1, (1, 1, 1))]
    assert live == [0, 1, 2]
    # F: lcm(x^2*z, x*y*z) = lcm(x^2*y, x*y*z) = x^2*y*z, one pair is kept
    pairs, live = {}, [0, 1]
    assert _update([(2, 0, 1), (2, 1, 0), (1, 1, 1)], live, pairs) == [(0, (2, 1, 1))]
    # coprime: x^2 and y^2 make no pair, nor does x^2*y, whose lcm with
    # y^2 is the same x^2*y^2
    pairs, live = {}, [0, 1]
    assert _update([(2, 0, 0), x2y, (0, 2, 0)], live, pairs) == []
    assert pairs == {}


def _checked_gm_update(fired):
    """_gm_update, checked against the criteria spelled out on sets, with
    the number of pairs each criterion drops added up in ``fired``."""
    real = ideal._gm_update

    def checked(lms, sugar, live, pairs, t):
        lt = lms[t]

        def pair_sugar(i, j):
            return (max(sugar[i] - sum(lms[i]), sugar[j] - sum(lms[j]))
                    + sum(_lcm(lms[i], lms[j])))

        old = dict(pairs)
        cands = [(i, _lcm(lms[i], lt)) for i in live]
        new = real(lms, sugar, live, pairs, t)
        kept = {p: l for p, l in old.items()
                if not (_divides(lt, l) and _lcm(lms[p[0]], lt) != l
                        and _lcm(lms[p[1]], lt) != l
                        and pair_sugar(p[0], t) <= pair_sugar(*p)
                        and pair_sugar(p[1], t) <= pair_sugar(*p))}
        assert {p: l for p, l in pairs.items() if p[1] != t} == kept
        lcms = [l for _, l in cands]
        minimal = {l for l in lcms if not any(m != l and _divides(m, l) for m in lcms)}
        coprime = {l for i, l in cands if l == tuple(x + y for x, y in zip(lms[i], lt))}
        assert sorted(l for _, l in new) == sorted(minimal - coprime)
        assert all(pairs[(i, t)] == l for i, l in new)
        fired["B"] += len(old) - len(kept)
        fired["M"] += sum(l not in minimal for l in lcms)
        fired["F"] += sum(l in minimal - coprime for l in lcms) - len(minimal - coprime)
        return new

    return checked


@pytest.mark.parametrize("order", [grevlex(3), lex(3), block_elim(3, [0])],
                         ids=["grevlex", "lex", "block"])
def test_random_systems_give_reduced_groebner_bases(order, monkeypatch):
    """On seeded random systems over Q(i): every S-pair of the basis and
    every generator reduce to 0, the basis is reduced and monic, and each
    pair update drops exactly the pairs the B, M and F criteria name; each
    criterion drops pairs on these systems."""
    fired = {"B": 0, "M": 0, "F": 0}
    monkeypatch.setattr(ideal, "_gm_update", _checked_gm_update(fired))
    rng = random.Random(21)
    for _ in range(12):
        gens = [random_poly(rng, 3, 2) for _ in range(3)]
        G = buchberger(gens, order)
        for f, g in itertools.combinations(G, 2):
            assert reduce_poly(_s_poly(f, g, order), G, order).is_zero()
        for g in gens:
            assert reduce_poly(g, G, order).is_zero()
        lms = [leading(g, order) for g in G]
        for g, l in zip(G, lms):
            assert g.terms[l] == QI_ONE
            assert not any(_divides(o, m) for o in lms if o != l for m in g.terms)
    assert all(fired.values()), fired


@pytest.mark.parametrize("name", ["grevlex", "lex"])
def test_reduced_bases_match_sympy(name):
    """Reduced bases of seeded random ideals over Q equal sympy's."""
    sympy = pytest.importorskip("sympy")
    gens_sym = sympy.symbols("x y z")
    order = {"grevlex": grevlex(3), "lex": lex(3)}[name]
    rng = random.Random(33)

    def as_set(polys):
        return {frozenset(p) for p in polys}

    for _ in range(10):
        gens = [random_poly(rng, 3, 2, real=True) for _ in range(3)]
        ours = as_set(((m, c.re) for m, c in g.terms.items())
                      for g in buchberger(gens, order))
        theirs = sympy.groebner(
            [sympy.Poly.from_dict({m: sympy.Rational(c.re.numerator, c.re.denominator)
                                   for m, c in g.terms.items()},
                                  *gens_sym, domain=sympy.QQ).as_expr()
             for g in gens if not g.is_zero()],
            *gens_sym, order=name, domain=sympy.QQ)
        theirs = as_set(((m, Fraction(int(c.p), int(c.q)))
                         for m, c in p.quo_ground(p.LC(order=name)).terms())
                        for p in theirs.polys)
        assert ours == theirs


# -- S-polynomials and packed exponent limits ----------------------------------

@pytest.mark.parametrize("order", [grevlex(3), lex(3), block_elim(3, [1])],
                         ids=["grevlex", "lex", "block"])
def test_s_poly_matches_its_definition(order, monkeypatch):
    """_s_poly(f, g) == (l/lm_f)*f/lc_f - (l/lm_g)*g/lc_g with l their lcm,
    and it divides by no leading coefficient 1."""
    divisions = []
    real_div = QI.__truediv__

    def counted(a, b):
        divisions.append(b)
        return real_div(a, b)

    rng = random.Random(8)
    for _ in range(30):
        f, g = random_poly(rng, 4, 3), random_poly(rng, 4, 3)
        if f.is_zero() or g.is_zero():
            continue
        lf, lg = leading(f, order), leading(g, order)
        l = _lcm(lf, lg)
        want = (Poly(f.table, {tuple(a - b for a, b in zip(l, lf)): QI_ONE / f.terms[lf]}) * f
                - Poly(g.table, {tuple(a - b for a, b in zip(l, lg)): QI_ONE / g.terms[lg]}) * g)
        fm, gm = f * (QI_ONE / f.terms[lf]), g * (QI_ONE / g.terms[lg])
        monkeypatch.setattr(QI, "__truediv__", counted)
        assert _s_poly(f, g, order) == want
        assert len(divisions) == 2
        assert _s_poly(fm, gm, order) == want
        assert len(divisions) == 2
        monkeypatch.undo()
        divisions.clear()


def test_exponents_too_large_for_packed_monomials_raise():
    """An exponent above the packed field's maximum raises
    ResourceLimitError, whether a generator has it or the division
    produces it, and never wraps around."""
    table = VarTable.make(["x", "y"], conjugates=False)
    top = lex(2).codec.max_exp
    with pytest.raises(ResourceLimitError):
        buchberger([P(f"x^{top + 1} - y", table)], grevlex(2))
    # reducing x^2 - 1 by x - y^k under lex gives y^(2k) - 1
    k = top // 2 + 1
    with limits_scope(Limits(max_degree=10 * top, max_basis=400)):
        with pytest.raises(ResourceLimitError) as err:
            buchberger([P(f"x - y^{k}", table), P("x^2 - 1", table)], lex(2))
    assert err.value.stats == {"exponent": 2 * k, "max_exponent": top}
    # the S-polynomial of x - y^k and x*y^k - 1 under lex has y^(2k)
    f, g = P(f"x - y^{k}", table), P(f"x*y^{k} - 1", table)
    with pytest.raises(ResourceLimitError):
        _s_poly(f, g, lex(2))
    with limits_scope(Limits(max_degree=10 * top, max_basis=400)):
        with pytest.raises(ResourceLimitError):
            buchberger([f, g], lex(2))
    # one less fits
    k = top // 2
    with limits_scope(Limits(max_degree=10 * top, max_basis=400)):
        G = buchberger([P(f"x - y^{k}", table), P("x^2 - 1", table)], lex(2))
    assert [str(g) for g in G] == [str(P(f"y^{2 * k} - 1", table)), str(P(f"x - y^{k}", table))]
    with pytest.raises(ResourceLimitError):
        reduce_poly(P(f"x^{top + 1}", table), G, lex(2))


# -- the module hooks the benchmark's tracer wraps -------------------------------

KATSURA3 = ["u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
            "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
            "2*u0*u2 + u1^2 + 2*u1*u3 - u2",
            "u0 + 2*u1 + 2*u2 + 2*u3 - 1"]


def test_buchberger_reduces_through_the_module_hooks(monkeypatch):
    """``buchberger`` makes each S-polynomial through ``ideal._s_poly`` and
    reduces it through ``ideal.reduce_poly``, looked up in the module, so
    that a wrapper put there sees every one; the basis is unchanged."""
    I = make_ideal(KATSURA3, ["u0", "u1", "u2", "u3"])
    want = buchberger(I.generators, I.order)
    made, reduced = [], []
    real_s_poly, real_reduce = ideal._s_poly, ideal.reduce_poly

    def s_poly(*args, **kwargs):
        s = real_s_poly(*args, **kwargs)
        made.append(s)
        return s

    def reduce(p, *args, **kwargs):
        reduced.append(p)
        return real_reduce(p, *args, **kwargs)

    monkeypatch.setattr(ideal, "_s_poly", s_poly)
    monkeypatch.setattr(ideal, "reduce_poly", reduce)
    assert buchberger(I.generators, I.order) == want
    # both lists hold their polynomials, so no id is reused
    reduced_ids = {id(p) for p in reduced}
    assert made and all(id(s) in reduced_ids for s in made)


def test_with_the_same_order_an_ideal_keeps_its_basis():
    I = make_ideal(["x^2 + y", "x*y - 1"], "xy")
    assert I.with_order(I.order) is I
    assert I.with_order(grevlex(2)) is I
    gb = I.groebner()
    assert I.with_order(lex(2)) is not I
    assert I.with_order(lex(2)).with_order(grevlex(2)).groebner() == gb

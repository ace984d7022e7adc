"""Text formats: polynomial expressions, manifold files, map files."""

import random
import time
from math import comb, log10

import pytest

from segrekit.gaussian import PARSE_DIGIT_CAP, GaussianRational as QI
from segrekit.ideal import ResourceLimitError
from segrekit.parsing import (MAX_NESTING, PARSE_TERM_CAP, PARSE_WORK_CAP, ParseError, _log_heights,
                              _power_terms, _power_work, parse_manifold_text, parse_map_text,
                              parse_poly)
from segrekit.poly import Poly, VarTable

TABLE = VarTable.make(["z1", "z2"])


def test_constants_and_i():
    p = parse_poly("1/2 + 3*i", TABLE)
    v = p.eval({})
    assert str(v.re) == "1/2" and str(v.im) == "3"


def test_conjugate_variable():
    p = parse_poly("z1*~z1 - 1", TABLE)
    assert p.eval({"z1": QI.from_value(2), "~z1": QI.from_value(2)}).re == 3


def test_powers_and_parens():
    p = parse_poly("(z1 + z2)^2", TABLE)
    q = parse_poly("z1^2 + 2*z1*z2 + z2^2", TABLE)
    assert p == q


def test_unary_minus():
    assert parse_poly("-z1 + z1", TABLE).is_zero()


def test_division_by_constant_only():
    p = parse_poly("z1/2", TABLE)
    assert str(p) == "1/2*z1"
    with pytest.raises(ParseError):
        parse_poly("1/z1", TABLE)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_poly("w1 + 1", TABLE)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_poly("(z1 + 1", TABLE)


def test_manifold_format():
    spec = parse_manifold_text("""
    # unit sphere
    vars z1 z2
    rho: z1*~z1 + z2*~z2 - 1
    """)
    assert spec.table.zvars() == ("z1", "z2")
    assert spec.rho == (parse_poly("z1*~z1 + z2*~z2 - 1", spec.table),)
    assert spec.chart == "affine"


def test_manifold_projective_chart():
    spec = parse_manifold_text("""
    vars z1 z2
    rho: 1 + z1^2*~z1^2 - z2^2*~z2^2
    chart: projective 0
    """)
    assert spec.chart == 0


def test_manifold_missing_rho():
    with pytest.raises(ParseError):
        parse_manifold_text("vars z1 z2\n")


def test_map_format():
    spec = parse_map_text("""
    vars z1 z2
    component: z1^2
    component: z2^2
    """)
    assert len(spec.components) == 2
    assert spec.components[0][1] is None


def test_map_with_denominator():
    spec = parse_map_text("""
    vars z1 z2
    component: z1 / z2
    """)
    num, den = spec.components[0]
    assert num == parse_poly("z1", spec.table) and den == parse_poly("z2", spec.table)


def test_map_missing_vars():
    with pytest.raises(ParseError):
        parse_map_text("component: z1\n")


def _parse_error(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return info.value


def test_map_components_are_holomorphic():
    exc = _parse_error(parse_map_text, "vars z1 z2\ncomponent: z1\ncomponent: ~z1 + z2\n")
    assert exc.line == 3 and exc.pos == len("component: ")
    assert "(line 3, column 12)" in str(exc)


def test_repeated_vars_raises():
    exc = _parse_error(parse_manifold_text, "vars z1\nrho: z1*~z1 - 1\nvars z1 z2\n")
    assert exc.line == 3 and "repeated" in str(exc)
    exc = _parse_error(parse_map_text, "vars z1\nvars z1\ncomponent: z1\n")
    assert exc.line == 2


def test_bad_rho_reports_its_line_and_column():
    text = "vars z1 z2\nrho: z1*~z1 - 1\n  rho: z1*~z1 + w2\n"
    exc = _parse_error(parse_manifold_text, text)
    assert exc.line == 3 and "unknown variable 'w2'" in str(exc)
    assert exc.pos == text.splitlines()[2].index("w2")
    tabbed = "vars z1 z2\nrho:\tz1*~z1\t+ w2\n"
    exc = _parse_error(parse_manifold_text, tabbed)
    assert exc.line == 2 and exc.pos == tabbed.splitlines()[1].index("w2") == 14
    src = "z1*~z1 +\n\t w2"
    exc = _parse_error(lambda text: parse_poly(text, TABLE), src)
    assert exc.line is None and exc.pos == src.index("w2") == 11


@pytest.mark.parametrize("parse, text, line", [
    (parse_manifold_text, "varsity z1\nrho: z1*~z1 - 1\n", 1),
    (parse_map_text, "varsz1\ncomponent: z1\n", 1),
    (parse_map_text, "vars\ncomponent: z1\n", 1),
    (parse_manifold_text, "vars z1\nrho: z1*~z1 - 1\nchart: projective x\n", 3),
    (parse_manifold_text, "vars z1 z2\nrho: 0\n", 2),
    (parse_manifold_text, "vars z1 z2\nrho: 1\n", 2),
    (parse_manifold_text, "vars z1 z2\nrho: z1*~z1 + z2*~z2 - 1\nrho: z1 - z1\n", 3),
], ids=["keyword-prefix", "map-keyword-prefix", "empty-map-vars", "chart-index",
        "constant-rho-0", "constant-rho-1", "constant-rho-cancelled"])
def test_malformed_lines_name_their_line(parse, text, line):
    exc = _parse_error(parse, text)
    assert exc.line == line and "invalid literal" not in str(exc)


def test_zero_denominator_is_a_parse_error():
    exc = _parse_error(parse_map_text, "vars z1\ncomponent: z1 / (z1 - z1)\n")
    assert exc.line == 2 and "zero denominator" in str(exc)


@pytest.mark.parametrize("parse, body", [
    (parse_manifold_text, "rho: z1*~z1 - 1\n"),
    (parse_map_text, "component: z1\n"),
], ids=["manifold", "map"])
@pytest.mark.parametrize("names, bad, reason", [
    ("i z2", "i", "imaginary unit"),
    ("z1 wb_z1", "wb_z1", "reserved prefix"),
    ("z1 wpb_1", "wpb_1", "reserved prefix"),
    ("zb_a z1", "zb_a", "reserved prefix"),
    ("z1 mb_q", "mb_q", "reserved prefix"),
    ("z1 z2 z1", "z1", "repeated variable name 'z1'"),
    ("z1 1z", "1z", "bad variable name '1z'"),
    ("z1 z-2", "z-2", "bad variable name 'z-2'"),
    ("z1 ~z2", "~z2", "bad variable name '~z2'"),
], ids=["i", "wb", "wpb", "zb", "mb", "repeated", "digit", "dash", "tilde"])
def test_vars_names_are_checked_where_they_enter(parse, body, names, bad, reason):
    line = f"vars {names}"
    exc = _parse_error(parse, "# variables\n" + line + "\n" + body)
    assert exc.line == 2 and reason in str(exc)
    # the column is that of the offending name (its last occurrence if repeated)
    assert exc.pos == line.rindex(bad)


def test_vars_names_the_grammar_accepts():
    spec = parse_manifold_text("vars z_1 w' Zeta u1 mbz\nrho: z_1*~z_1 + w'*~w' - 1\n")
    assert spec.table.zvars() == ("z_1", "w'", "Zeta", "u1", "mbz")


def test_a_sphere_named_u_a_zeta_b_answers_as_one_named_z1_z2():
    """`u_` and `zeta_` name no block the toolkit builds, so a `vars` line may
    use them, and every answer reads as that of the same sphere in z1, z2."""
    from segrekit.catalog import sample_points
    from segrekit.manifold import CRManifold
    from segrekit.segre import (SYMBOLIC, essential_finiteness, inversion_set, minimality,
                                segre_sets, segre_variety)

    named = CRManifold.from_text("vars u_a zeta_b\nrho: u_a*~u_a + zeta_b*~zeta_b - 1\n")
    plain = CRManifold.from_text("vars z1 z2\nrho: z1*~z1 + z2*~z2 - 1\n")
    assert named.zvar_names == ("u_a", "zeta_b")

    def answers(M, p):
        segre = [[g.terms for g in segre_variety(M, w).ideal.generators] for w in (p, SYMBOLIC)]
        chain = [[g.terms for g in I.generators] for I in segre_sets(M, p, 3).ideals]
        return (segre, essential_finiteness(M, p), inversion_set(M, p).finiteness(),
                minimality(M, p), chain)

    for p in sample_points("sphere_C2", 3, seed=12):
        assert answers(named, p) == answers(plain, p)


def test_i_can_no_longer_shadow_the_imaginary_unit():
    # `vars i z2` used to parse `i*~i` as the imaginary unit times a variable
    with pytest.raises(ParseError, match="imaginary unit"):
        parse_manifold_text("vars i z2\nrho: i*~i + z2*~z2 - 1\n")


@pytest.mark.parametrize("component", ["z1/z2/2", "z1/(z2)/3"])
def test_a_component_is_split_at_its_last_top_level_slash_only(component):
    """a/b/c is (a/b)/c; with a non-constant b the numerator a/b is no
    polynomial, so the component is refused where the whole parse failed."""
    exc = _parse_error(parse_map_text, f"vars z1 z2\ncomponent: {component}\n")
    assert exc.line == 2 and "division only by nonzero constants" in str(exc)
    assert exc.pos == len("component: z1/") - 1


@pytest.mark.parametrize("component, num, den", [
    ("1/2/z1", "1/2", "z1"),
    ("z1/2/(1+z2)", "z1/2", "1+z2"),
    ("z2^2 / (1 + z1)", "z2^2", "1 + z1"),
    ("(z1^2 + 3*z2) / (1 + z1*z2)", "z1^2 + 3*z2", "1 + z1*z2"),
    ("-7/25*z1 + 24/25*z2", "-7/25*z1 + 24/25*z2", None),
    ("(3/5)*z1 + (4/5)*z2", "(3/5)*z1 + (4/5)*z2", None),
])
def test_components_with_slashes_that_parse(component, num, den):
    spec = parse_map_text(f"vars z1 z2\ncomponent: {component}\n")
    assert spec.components[0][0] == parse_poly(num, spec.table)
    got = spec.components[0][1]
    assert got is None if den is None else got == parse_poly(den, spec.table)


# -- expansion bounds -----------------------------------------------------------


@pytest.mark.parametrize("src, bound", [
    # C(t + k - 1, k) = C(v + k*d, v) = C(64, 4) for t = 5 terms, v = 4 variables
    ("0*(z1+z2+~z1+~z2+1)^60", 635376),
    # C(v + k*d, v) = 12001 is the smaller bound for z1^2 + z1 + 1
    ("(z1^2 + z1 + 1)^6000", 12001),
    # a product's bound is the factors' term counts multiplied: the first
    # two give 70 * 70 = 4900 and expand to 495 terms, then 495 * 70 is over
    ("(z1+z2+~z1+~z2+1)^4 * (z1+z2+~z1+~z2+1)^4 * (z1+z2+~z1+~z2+1)^4", 495 * 70),
])
def test_an_expansion_over_the_cap_is_refused_before_it_is_made(src, bound):
    with pytest.raises(ResourceLimitError) as info:
        parse_poly(src, TABLE)
    assert info.value.stats == {"terms_bound": bound, "cap": PARSE_TERM_CAP}


@pytest.mark.parametrize("src", ["(z1+z2+~z1+~z2+1)^10", "(z1 + ~z1)^40", "(z1^2 + z1 + 1)^7",
                                 "(2*z1)^9", "(z1 - z1)^3", "(z1 + z2)^0"])
def test_the_power_bound_holds(src):
    base, k = src.rsplit("^", 1)
    p = parse_poly(base, TABLE)
    assert len(parse_poly(src, TABLE).terms) <= _power_terms(p, int(k))
    # a power of a generic sum meets the bound
    assert _power_terms(parse_poly("z1+z2+~z1+~z2+1", TABLE), 10) == 1001


def test_a_huge_exponent_reports_a_printable_term_bound():
    """Past k = PARSE_TERM_CAP the bound is taken at the cap, where it is
    already over, so a 2500-digit exponent reports C(10002, 2)."""
    with pytest.raises(ResourceLimitError) as info:
        parse_poly("(z1 + z2 + 1)^" + "9" * 2500, TABLE)
    assert info.value.stats == {"terms_bound": comb(10002, 2), "cap": PARSE_TERM_CAP}


# -- work bounds ----------------------------------------------------------------


@pytest.mark.parametrize("src", ["(z1+~z1)^5000", "(z1 + z2 + 1)^100", "0*(z1+~z1)^2000",
                                 "(1/3*z1 + 2*~z2 + i)^90"])
def test_a_power_over_the_work_cap_is_refused_before_it_is_taken(src):
    """Each passes the term and digit bounds; taken, the first would run for
    tens of seconds."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        parse_poly(src, TABLE)
    assert time.perf_counter() - start < 1
    stats = info.value.stats
    assert stats["cap"] == PARSE_WORK_CAP and stats["work_bound"] > PARSE_WORK_CAP


@pytest.mark.parametrize("src", ["(z1+z2+~z1+~z2+1)^10", "(z1 + ~z1)^40", "(z1^2 + z1 + 1)^7",
                                 "(1/3*z1 + 2*i*~z2 + 5)^13", "(z1 - ~z1)^6", "(z1 + z2)^1",
                                 "(10^300*z1 + ~z1)^9"])
def test_the_work_bound_counts_every_coefficient_product(src, monkeypatch):
    """Each product that ``Poly.__pow__`` makes multiplies every pair of
    terms, and each pair counts at least 1 in the bound."""
    base, k = src.rsplit("^", 1)
    p, k = parse_poly(base, TABLE), int(k)
    pairs = []
    mul = Poly.__mul__

    def counting(f, g):
        if isinstance(g, Poly):
            pairs.append(len(f.terms) * len(g.terms))
        return mul(f, g)

    monkeypatch.setattr(Poly, "__mul__", counting)
    p ** k
    assert sum(pairs) <= _power_work(p, k)


def test_the_work_bound_of_a_generic_sum_is_its_products():
    """A generic sum's powers meet the term bound, so its work bound is the
    pairs multiplied, weighted by digits of at most 10*log10(5) < 7."""
    p = parse_poly("z1+z2+~z1+~z2+1", TABLE)
    # the squares p^1, p^2, p^4 and the product p^2 * p^8
    pairs = 5 ** 2 + 15 ** 2 + 70 ** 2 + 15 * 495
    assert pairs <= _power_work(p, 10) <= pairs * (1 + 7 / 500)
    assert _power_work(parse_poly("2*z1", TABLE), 10 ** 9) == 0


def test_a_pair_counts_one_plus_a_unit_per_500_digits():
    """p = 10^100*z1 + ~z1 has integers of 100 digits: p^3 is the square
    p*p, 2*2 pairs of 200 digits, then p*p^2, 2*3 pairs of 300."""
    p = parse_poly("10^100*z1 + ~z1", TABLE)
    assert _power_work(p, 3) == pytest.approx(4 * (1 + 200 / 500) + 6 * (1 + 300 / 500))


# -- digit bounds ---------------------------------------------------------------

NINES = "9" * PARSE_DIGIT_CAP  # the largest literal: 10^4300 - 1


@pytest.mark.parametrize("src, pos", [
    ("9" * (PARSE_DIGIT_CAP + 1), 0),
    ("z1 + 2*" + "0" * (PARSE_DIGIT_CAP + 1), 7),
    ("z1^" + "1" * (PARSE_DIGIT_CAP + 1), 3),
], ids=["constant", "coefficient", "exponent"])
def test_a_literal_over_the_digit_cap_is_a_parse_error_at_its_column(src, pos):
    with pytest.raises(ParseError) as info:
        parse_poly(src, TABLE)
    assert info.value.reason == "number literal longer than 4300 digits"
    assert info.value.pos == pos


@pytest.mark.parametrize("src, digits", [
    # 2^14285 has 4301 digits; the power is refused before it is taken
    ("2^14285", 4301),
    ("(2*i*z1)^14285", 4301),
    # N(z1 + 10^2200) = 10^2200 + 1, squared
    ("(z1 + 10^2200)^2", 4401),
    # 3 * (10^4300 - 1) and its reciprocal
    (NINES + "*3*z1", 4301),
    ("z1 / " + NINES + " / 3", 4301),
    # a sum is checked once summed: 10^4300 has 4301 digits
    (NINES + " + 1", 4301),
], ids=["power", "power-of-a-term", "power-of-a-sum", "product", "quotient", "sum"])
def test_a_number_over_the_digit_cap_is_refused(src, digits):
    with pytest.raises(ResourceLimitError) as info:
        parse_poly(src, TABLE)
    assert info.value.stats == {"digits_bound": digits, "cap": PARSE_DIGIT_CAP}


@pytest.mark.parametrize("src", ["2^14284", NINES, "-5*10^4299*z1 + 4*10^4299*i*z2",
                                 "1/" + NINES, "(2*i*z1)^14284"],
                         ids=["power", "literal", "sum", "reciprocal", "power-of-a-term"])
def test_numbers_up_to_the_digit_cap_are_accepted(src):
    p = parse_poly(src, TABLE)
    assert max(len(str(abs(f.numerator))) for c in p.terms.values() for f in (c.re, c.im)) \
        <= PARSE_DIGIT_CAP


def _top(p):
    """log10 of the largest integer in p's coefficients."""
    return max(log10(max(abs(f.numerator), f.denominator))
               for c in p.terms.values() for f in (c.re, c.im))


@pytest.mark.parametrize("seed", range(20))
def test_the_digit_bounds_hold(seed):
    """A product's numbers are at most N(p)*N(q) and D(p)*D(q), a power's
    N(p)^k and D(p)^k."""
    rng = random.Random(seed)

    def poly():
        terms = " + ".join(f"({rng.randint(-99, 99)}/{rng.randint(1, 30)}"
                           f" + {rng.randint(-9, 9)}/{rng.randint(1, 30)}*i)"
                           f"*z1^{rng.randint(0, 3)}*~z2^{rng.randint(0, 2)}"
                           for _ in range(rng.randint(1, 4)))
        return f"({terms})"

    a, b, k = poly(), poly(), rng.randint(1, 6)
    p, q = parse_poly(a, TABLE), parse_poly(b, TABLE)
    (np, dp), (nq, dq) = _log_heights(p), _log_heights(q)
    assert _top(parse_poly(a + "*" + b, TABLE)) <= max(np + nq, dp + dq) + 1e-9
    assert _top(parse_poly(f"{a}^{k}", TABLE)) <= k * max(np, dp) + 1e-9


# -- nesting --------------------------------------------------------------------

def nested(depth, inner="z1"):
    return "(" * depth + inner + ")" * depth


def test_parentheses_up_to_the_nesting_cap_parse():
    assert parse_poly(nested(MAX_NESTING), TABLE) == parse_poly("z1", TABLE)
    assert parse_poly(" + ".join([nested(MAX_NESTING)] * 3), TABLE) == parse_poly("3*z1", TABLE)


@pytest.mark.parametrize("src, pos", [
    (nested(MAX_NESTING + 1), MAX_NESTING),
    ("z1 + " + nested(250), 5 + MAX_NESTING),
    (nested(10, nested(300)), MAX_NESTING),
], ids=["just-over", "far-over", "after-a-term"])
def test_parentheses_past_the_nesting_cap_are_a_parse_error_at_their_column(src, pos):
    with pytest.raises(ParseError) as info:
        parse_poly(src, TABLE)
    assert info.value.reason == f"parentheses nested deeper than {MAX_NESTING}"
    assert info.value.pos == pos


def test_nesting_past_the_cap_in_a_file_names_its_line_and_column():
    text = "vars z1 z2\nrho: z1*~z1 + z2*~z2 - 1 + " + nested(250, "0") + "\n"
    with pytest.raises(ParseError) as info:
        parse_manifold_text(text)
    assert str(info.value).endswith("(line 2, column 128)")


@pytest.mark.parametrize("signs, sign", [(1000, 1), (1001, -1)])
def test_a_long_run_of_minus_signs_parses(signs, sign):
    """Unary minus is read in a loop, not by recursion."""
    assert parse_poly("-" * signs + "z1^2", TABLE) == sign * parse_poly("z1^2", TABLE)
    assert parse_poly("3*" + "-" * signs + "z1", TABLE) == sign * parse_poly("3*z1", TABLE)

"""Essential finiteness read off M's kept block basis, against the point path.

``essential_finiteness(M, w)`` specialises a basis of M's symbolic
inversion ideal at w-bar wherever no polynomial of its locus vanishes
there.  ``inversion_set(M, w).finiteness()`` computes the inversion set at
w afresh, reducing against the Segre variety at w itself, and is the
independent oracle.  Points are drawn on and off each manifold, and on and
off the locus."""

import random
from fractions import Fraction

import pytest

from segrekit import segre
from segrekit.catalog import SAMPLERS, load_manifold, sample_points
from segrekit.correspond import (AlgebraicMap, ExcludedLocusError,
                                 build_correspondence, fiber)
from segrekit.gaussian import GaussianRational as QI
from segrekit.gaussian import PointPowers
from segrekit.ideal import stairs_finiteness
from segrekit.manifold import CRManifold
from segrekit.poly import WB, ZB
from segrekit.segre import essential_finiteness, inversion_set

from test_inversion_store import D2_TEXT, hyperquadric_text, power_text

D2 = CRManifold.from_text(D2_TEXT)


def _phase(t):
    """(1 - t^2 + 2t*i) / (1 + t^2), of modulus 1."""
    d = 1 + t * t
    return QI((1 - t * t) / d, 2 * t / d)


def _frac(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _sphere(rng, p):
    """A rational point of the unit sphere in C^p (inverse stereographic)."""
    y = [_frac(rng) for _ in range(2 * p - 1)]
    s = sum(v * v for v in y)
    x = [2 * v / (s + 1) for v in y] + [(s - 1) / (s + 1)]
    return [QI(x[2 * k], x[2 * k + 1]) for k in range(p)]


def power_points(n):
    """Points of P(n, r) for every r: (0, ..., 0, a phase), where the ledger
    entry wb_z1 vanishes."""
    def draw(rng):
        return (QI(0),) * (n - 1) + (_phase(_frac(rng)),)
    return draw


def hyperquadric_points(p, q):
    def draw(rng):
        if q == 0:
            return tuple(_sphere(rng, p))
        t = Fraction(rng.randint(2, 7), rng.randint(1, 3))
        c, s = (t + 1 / t) / 2, (t - 1 / t) / 2
        return tuple([z * QI(c) for z in _sphere(rng, p)] + [z * QI(s) for z in _sphere(rng, q)])
    return draw


def d2_point(rng):
    """(phi*a, phi*(1 - a), psi*c) with a = 2/(k^2 + 2), c = 2k/(k^2 + 2)
    and phases phi, psi: a point of D2."""
    k = Fraction(rng.randint(1, 7), rng.randint(1, 4))
    a, c = 2 / (k * k + 2), 2 * k / (k * k + 2)
    phi, psi = _phase(_frac(rng)), _phase(_frac(rng))
    return phi * QI(a), phi * QI(1 - a), psi * QI(c)


# w1 = w2 on D2, and w1 = -w2 off it: both on the locus wb_z1^2 - wb_z2^2
HALF = QI(Fraction(1, 2))
D2_DIAGONAL = (HALF, HALF, QI(Fraction(1, 2), Fraction(1, 2)))
D2_ANTIDIAGONAL = (HALF, -HALF, QI(Fraction(1, 2), Fraction(1, 2)))

# (label, manifold, sampler of points on it)
CASES = ([(name, load_manifold(name + ".mfd"), name) for name in sorted(SAMPLERS)]
         + [(f"P({n},{r})", CRManifold.from_text(power_text(n, r)), power_points(n))
            for n in (2, 3, 4) for r in (1, 2, 3)]
         + [(f"H({p},{n - p})", CRManifold.from_text(hyperquadric_text(p, n - p)),
             hyperquadric_points(p, n - p)) for n in (3, 4, 5) for p in range(1, n + 1)]
         + [("D2", D2, d2_point)])


def _points(label, M, sampler):
    """Points of M from its sampler, random points of C^n (some with zero
    coordinates) and the points with z1 = 0 and at the origin."""
    rng = random.Random(label)
    if isinstance(sampler, str):
        on = sample_points(sampler, 4, seed=7)
    else:
        on = [sampler(rng) for _ in range(4)]
    off = [tuple(QI(rng.randint(-2, 3), rng.randint(-1, 1)) for _ in range(M.n))
           for _ in range(6)]
    edges = [(QI(0),) + (QI(1),) * (M.n - 1), (QI(0),) * M.n]
    extra = [D2_DIAGONAL, D2_ANTIDIAGONAL] if M is D2 else []
    return on + off + edges + extra


def on_locus(M, w) -> bool:
    _, locus = segre._specialization(M)
    at = PointPowers(enumerate(x.conjugate() for x in w))
    return any(e.eval(at).is_zero() for e in locus)


@pytest.mark.parametrize("label, M, sampler", CASES, ids=[c[0] for c in CASES])
def test_kept_basis_answers_as_the_point_path(label, M, sampler):
    paths = set()
    for w in _points(label, M, sampler):
        assert essential_finiteness(M, w) == inversion_set(M, w).finiteness(), w
        paths.add(on_locus(M, w))
    # the origin lies on every locus here, and a random point off it
    assert paths == {True, False}


def test_power_points_with_a_zero_first_coordinate_take_the_point_path():
    for n in (2, 3, 4):
        draw = power_points(n)
        rng = random.Random(n)
        for r in (1, 2, 3):
            M = CRManifold.from_text(power_text(n, r))
            for _ in range(3):
                w = draw(rng)
                assert on_locus(M, w)
                assert essential_finiteness(M, w) == (True, r ** n)


def test_the_d2_locus_holds_the_block_basis_coefficients():
    """Q_w's block basis brings wb_z1^2 - wb_z2^2: the points with w1 = +-w2
    take the point path."""
    _, locus = segre._specialization(D2)
    assert "wb_z1^2-wb_z2^2" in [str(e) for e in locus]
    assert on_locus(D2, D2_DIAGONAL) and on_locus(D2, D2_ANTIDIAGONAL)
    assert essential_finiteness(D2, D2_DIAGONAL) == (True, 1)
    assert essential_finiteness(D2, D2_ANTIDIAGONAL) == (False, None)


# the leading z-term z1^2*z2^2 of rho(z, wb) has a constant coefficient, so
# the ledger is empty; a leading coefficient of the kept basis is wb_z2, and
# on w2 = 0 the inversion set is not zero-dimensional
LEDGER_FREE = CRManifold.from_text(
    "vars z1 z2\nrho: z2*~z1*~z2 + z1*z2*~z2 + z1^2*z2^2 + ~z1^2*~z2^2 - 1\n")


def test_a_vanishing_leading_coefficient_of_the_kept_basis_takes_the_point_path():
    _, excluded = segre.symbolic_inversion(LEDGER_FREE)
    stairs, locus = segre._specialization(LEDGER_FREE)
    assert excluded == () and [str(e) for e in locus] == ["wb_z2"]
    assert stairs_finiteness(stairs, 2) == (True, 1)
    assert essential_finiteness(LEDGER_FREE, (QI(0), QI(1))) == (True, 1)
    for w in [(QI(0), QI(0)), (QI(-1), QI(0)), (QI(3, 1), QI(0))]:
        assert essential_finiteness(LEDGER_FREE, w) == inversion_set(LEDGER_FREE, w).finiteness()
        assert essential_finiteness(LEDGER_FREE, w) == (False, None)


def test_points_off_the_locus_make_no_inversion_set(monkeypatch):
    calls = []
    real = segre.inversion_set
    monkeypatch.setattr(segre, "inversion_set", lambda M, w: calls.append(w) or real(M, w))
    H = CRManifold.from_text(hyperquadric_text(2, 1))
    points = _points("H", H, hyperquadric_points(2, 1))
    for w in points:
        before = len(calls)
        essential_finiteness(H, w)
        assert len(calls) - before == on_locus(H, w)
    assert 0 < len(calls) < len(points)


# -- D2: the invariants that hold in codimension 1 -----------------------------------


D2_POINTS = [d2_point(random.Random(seed)) for seed in range(4)]


@pytest.mark.parametrize("w", D2_POINTS, ids=[f"seed{k}" for k in range(len(D2_POINTS))])
def test_d2_inversion_set_and_identity_correspondence_agree(w):
    """w-bar is in V(I_w); w lies in its own identity-correspondence fiber,
    whose degree is the essential-finiteness degree."""
    assert D2.contains(w)
    inv = inversion_set(D2, w)
    binding = dict(zip(inv.ideal.table.names, (x.conjugate() for x in w)))
    assert all(g.eval(binding).is_zero() for g in inv.ideal.generators)
    res = fiber(build_correspondence(D2, D2, AlgebraicMap.identity(D2)), w)
    assert w in [p for p, _ in res.solutions]
    assert essential_finiteness(D2, w) == (True, res.degree) == (True, 1)


@pytest.mark.parametrize("w", [D2_DIAGONAL, D2_ANTIDIAGONAL], ids=["w1=w2", "w1=-w2"])
def test_d2_points_with_w1_equal_to_plus_or_minus_w2_are_excluded(w):
    C = build_correspondence(D2, D2, AlgebraicMap.identity(D2))
    with pytest.raises(ExcludedLocusError, match="wb_z1\\^2-wb_z2\\^2"):
        fiber(C, w)


# -- one kept basis per manifold -------------------------------------------------------


def _spy(monkeypatch):
    """The table of every block basis made with the zb-block first."""
    calls = []
    real = segre._block_basis

    def spy(gens, table, block):
        if block[0].startswith(ZB):
            calls.append(table)
        return real(gens, table, block)

    monkeypatch.setattr(segre, "_block_basis", spy)
    return calls


def _kept_ring(M):
    return M.ring(M.block(ZB) + M.block(WB))


def test_one_kept_basis_per_manifold(monkeypatch):
    calls = _spy(monkeypatch)
    H = CRManifold.from_text(hyperquadric_text(2, 1))
    P = CRManifold.from_text(power_text(2, 2))
    M2 = CRManifold.from_text(D2_TEXT)
    cases = [("H", H, hyperquadric_points(2, 1)), ("P", P, power_points(2)), ("D2", M2, d2_point)]
    for _ in range(3):
        for label, M, sampler in cases:
            for w in _points(label, M, sampler):
                essential_finiteness(M, w)
    assert len(calls) == 3
    assert all(t is _kept_ring(M) for t, (_, M, _) in zip(calls, cases))
    # a copy of M starts with an empty store, and makes its own
    copy = H._replace()
    essential_finiteness(copy, (QI(1), QI(2), QI(3)))
    assert len(calls) == 4 and calls[3] is _kept_ring(copy) and calls[3] is not calls[0]

"""Metamorphic checks: rewritings of the defining data that leave the
manifold as it is must leave its verdicts as they are.

Scaling rho by a nonzero rational, renaming the variables, and reversing
the coordinate order (with the point permuted to match) describe the same
real submanifold, so essential finiteness, minimality and, for d = 1, the
Levi signature must not change."""

from fractions import Fraction

import pytest

from segrekit.catalog import SAMPLERS, load_manifold, sample_points
from segrekit.manifold import CRManifold, levi_signature
from segrekit.poly import VarTable
from segrekit.segre import essential_finiteness, minimality


def _scaled(c):
    return lambda M, p: (M._replace(rho=tuple(r * c for r in M.rho)), p)


def _renamed(M, p):
    """M over fresh z-variables a0, a1, ...: each z-variable and its
    conjugate carried to the new name and its conjugate."""
    names = [f"a{k}" for k in range(M.n)]
    table = VarTable.make(names)
    rename = {}
    for old, new in zip(M.zvar_names, names):
        rename[old], rename["~" + old] = new, "~" + new
    return CRManifold(table, tuple(r.substitute(rename, table) for r in M.rho), M.chart), p


def _reversed(M, p):
    """The same polynomials over the table with the coordinates reversed;
    the point's coordinates are reversed with them."""
    rev = M.zvar_names[::-1]
    table = VarTable.make(rev)
    return CRManifold(table, tuple(r.substitute({}, table) for r in M.rho), M.chart), p[::-1]


REWRITES = {
    "scale-3/2": _scaled(Fraction(3, 2)),
    "scale-7": _scaled(7),
    "rename": _renamed,
    "reverse": _reversed,
}


def _verdicts(M, p):
    out = [essential_finiteness(M, p), minimality(M, p)]
    if M.d == 1:
        out.append(levi_signature(M, p, (1,)).signature)
    return out


@pytest.mark.parametrize("k", range(2))
@pytest.mark.parametrize("rewrite", sorted(REWRITES))
@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_rewriting_rho_keeps_the_verdicts(name, rewrite, k):
    M = load_manifold(f"{name}.mfd")
    p = sample_points(name, 2, seed=5)[k]
    M2, p2 = REWRITES[rewrite](M, p)
    assert M2.contains(p2)
    assert _verdicts(M2, p2) == _verdicts(M, p)


# tube_C2 written as a product: (|z1|^2 - 1) * (1 + |z2|^2) vanishes on the
# same set as |z1|^2 - 1, since 1 + |z2|^2 > 0, so it is the same tube.  Its
# Segre varieties gain the component 1 + z2*conj(w2) = 0, which misses the
# point, and the inversion set and Segre sets, computed as global Zariski
# closures rather than germs at the point, follow that component.
TUBE_PRODUCT = "vars z1 z2\nrho: (z1*~z1 - 1)*(1 + z2*~z2)\n"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: a defining polynomial with a factor "
                   "that has no real zeros gives the wrong essential finiteness "
                   "and minimality verdicts")
@pytest.mark.parametrize("k", range(3))
def test_a_tube_written_as_a_product_keeps_the_tube_verdicts(k):
    M = CRManifold.from_text(TUBE_PRODUCT)
    p = sample_points("tube_C2", 3, seed=5)[k]
    if not M.contains(p):
        pytest.fail("the sampled point is not on the tube")  # not the expected failure
    assert (essential_finiteness(M, p), minimality(M, p)) == (
        (False, None), (False, 1))

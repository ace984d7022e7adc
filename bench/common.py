"""Pieces shared by the workloads: the operation record, output checks and
canonical output text for digests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class CheckFailed(AssertionError):
    pass


@dataclass
class Op:
    """One closed-loop request.

    ``call`` does the work and is the only timed part.  ``check(result,
    deep)`` runs after the timed phase, raises CheckFailed on a wrong output,
    and returns the output's canonical text for the digest; ``deep`` asks for
    the costlier invariant checks as well.  ``shared`` names the input the
    operation works on (a manifold, a system), for the share of operations
    whose input already appeared earlier in the run.  ``known_defect`` marks
    an operation that fails at the time of writing because of a recorded
    defect; its failure is counted but does not make the run incorrect."""

    kind: str
    shared: str
    call: Callable[[], object]
    check: Callable[[object, bool], str]
    known_defect: bool = False


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def poly_text(p) -> str:
    """Order-independent canonical text of a Poly."""
    return " + ".join(f"({c})*{list(m)}" for m, c in sorted(p.terms.items())) or "0"


def basis_text(polys) -> str:
    return "; ".join(sorted(poly_text(p) for p in polys))


# -- an independent grevlex division, so checks do not reuse the engine -------


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def leading(p):
    return max(p.terms, key=grevlex_key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def remainder(terms: dict, basis) -> dict:
    """Remainder of a {monomial: coefficient} dict on division by basis."""
    leads = [(leading(g), g) for g in basis]
    work = dict(terms)
    rem = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lm, g in leads:
            if _divides(lm, m):
                f = c / g.terms[lm]
                shift = tuple(a - b for a, b in zip(m, lm))
                for mg, cg in g.terms.items():
                    if mg == lm:
                        continue
                    key = tuple(a + b for a, b in zip(mg, shift))
                    v = work.get(key, 0) - f * cg
                    if v == 0:
                        work.pop(key, None)
                    else:
                        work[key] = v
                break
        else:
            rem[m] = c
    return rem


def staircase(basis, nvars, cap=5000):
    """(dimension is zero, number of standard monomials) from the leading
    monomials of a grevlex Groebner basis; None as count when infinite."""
    leads = [leading(g) for g in basis]
    pure = [False] * nvars
    for lm in leads:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 1:
            pure[nz[0]] = True
    if not all(pure):
        return False, None
    seen, frontier, count = {(0,) * nvars}, [(0,) * nvars], 0
    while frontier:
        m = frontier.pop()
        if any(_divides(l, m) for l in leads):
            continue
        count += 1
        expect(count <= cap, "staircase larger than the check allows")
        for i in range(nvars):
            nxt = m[:i] + (m[i] + 1,) + m[i + 1:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True, count


def check_reduced_basis(basis, gens):
    """Monic, no leading monomial divides another, and every generator of
    the ideal reduces to zero."""
    expect(basis, "empty basis")
    leads = [leading(g) for g in basis]
    for g, lm in zip(basis, leads):
        expect(g.terms[lm] == 1, "basis element is not monic")
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            expect(i == j or not _divides(a, b), "basis is not reduced")
    for f in gens:
        expect(not remainder(f.terms, basis), "a generator does not reduce to zero")

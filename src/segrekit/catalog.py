"""Bundled example catalog: manifest loading, rational point samplers, and
a verification suite that recomputes every recorded quantity from scratch."""

from __future__ import annotations

import json
import random
from importlib import resources
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .gaussian import GaussianRational as QI
from .gaussian import QI_ZERO
from .manifold import CRManifold, genericity_rank, pseudoconcavity_probe
from .segre import essential_finiteness, minimality, symmetry_holds
from .correspond import (AlgebraicMap, Correspondence, build_correspondence,
                         fiber, power_correspondence, verify_invariance)


# -- rational point samplers -------------------------------------------------------
#
# The samplers draw ratios t = p/q (q > 0, not reduced) and build each
# coordinate as one Gaussian-integer triple (a, b, d), meaning (a + b*i)/d,
# brought to lowest terms once.


def _ratio(rng: random.Random) -> Tuple[int, int]:
    return rng.randint(-9, 9), rng.randint(1, 6)


def _phase(rng: random.Random) -> Tuple[int, int, int]:
    """A rational point of the unit circle, ((1-t^2) + 2t i) / (1+t^2)."""
    p, q = _ratio(rng)
    return q * q - p * p, 2 * p * q, q * q + p * p


def _times(z: Tuple[int, int, int], num: int, den: int) -> Tuple[int, int, int]:
    """The triple z times the rational num/den."""
    return z[0] * num, z[1] * num, z[2] * den


def _sphere(rng: random.Random) -> Tuple[tuple, tuple]:
    """Triples with |z1|^2 + |z2|^2 = 1: phases times (1-t^2)/(1+t^2) and
    2t/(1+t^2)."""
    p, q = _ratio(rng)
    z1 = _times(_phase(rng), q * q - p * p, q * q + p * p)
    return z1, _times(_phase(rng), 2 * p * q, q * q + p * p)


def _cosh_sinh(rng: random.Random) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """(t + 1/t)/2 and (t - 1/t)/2, as (num, den) pairs, at a t = p/q != 0."""
    p, q = _ratio(rng)
    while p == 0:
        p, q = _ratio(rng)
    return (p * p + q * q, 2 * p * q), (p * p - q * q, 2 * p * q)


def sample_sphere_point(rng: random.Random) -> Tuple[QI, QI]:
    """Rational point with |z1|^2 + |z2|^2 = 1."""
    z1, z2 = _sphere(rng)
    return QI.from_ints(*z1), QI.from_ints(*z2)


def sample_hyperquadric3_point(rng: random.Random) -> Tuple[QI, QI, QI]:
    """Rational point with |z1|^2 + |z2|^2 - |z3|^2 = 1."""
    e, c = _cosh_sinh(rng)
    z1, z2 = _sphere(rng)
    return (QI.from_ints(*_times(z1, *e)), QI.from_ints(*_times(z2, *e)),
            QI.from_ints(*_times(_phase(rng), *c)))


def sample_hyperquadric2_point(rng: random.Random) -> Tuple[QI, QI]:
    """Rational point with 1 + |z1|^2 - |z2|^2 = 0."""
    e, c = _cosh_sinh(rng)
    z1 = QI.from_ints(*_times(_phase(rng), *c))
    return z1, QI.from_ints(*_times(_phase(rng), *e))


def sample_power_point(rng: random.Random) -> Tuple[QI, QI]:
    """Rational point with 1 + |z1|^4 - |z2|^4 = 0 (slice z1 = 0)."""
    return (QI_ZERO, QI.from_ints(*_phase(rng)))


def sample_tube_point(rng: random.Random) -> Tuple[QI, QI]:
    """Rational point with |z1|^2 = 1; z2 is free."""
    z1 = QI.from_ints(*_phase(rng))
    (a, c), (b, d) = _ratio(rng), _ratio(rng)
    return z1, QI.from_ints(a * d, b * c, c * d)


SAMPLERS: Dict[str, Callable[[random.Random], tuple]] = {
    "sphere_C2": sample_sphere_point,
    "hyperquadric_k1_n3": sample_hyperquadric3_point,
    "hyperquadric_k1_n2": sample_hyperquadric2_point,
    "power_r2_n2": sample_power_point,
    "tube_C2": sample_tube_point,
}


def sample_points(name: str, count: int, seed: int) -> List[tuple]:
    """Distinct rational points on the named catalog manifold."""
    sampler = SAMPLERS.get(name)
    if sampler is None:
        raise KeyError("no point sampler for catalog entry " + name)
    rng = random.Random(seed)
    pts, seen = [], set()
    attempts = 0
    while len(pts) < count:
        attempts += 1
        if attempts > 500 * count:
            raise RuntimeError(
                f"sampler for {name} produced only {len(pts)} distinct "
                f"points; ask for fewer")
        p = sampler(rng)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


# -- manifest loading --------------------------------------------------------------

class CatalogEntry(NamedTuple):
    name: str
    kind: str
    expected: Dict[str, dict]
    maps: Dict[str, AlgebraicMap]   # self-maps of a "manifold" entry
    manifold: Optional[CRManifold] = None
    source: Optional[CRManifold] = None
    target: Optional[CRManifold] = None
    map: Optional[AlgebraicMap] = None
    relation: Optional[dict] = None
    source_name: Optional[str] = None


def _read_data(fname: str) -> str:
    return resources.files("segrekit.data").joinpath(fname).read_text()


def load_manifold(fname: str) -> CRManifold:
    return CRManifold.from_text(_read_data(fname))


def _base(fname: str) -> str:
    return fname.rsplit(".", 1)[0]


def _entry(rec: dict) -> CatalogEntry:
    name, kind, expected = rec["name"], rec["kind"], rec.get("expected", {})
    if kind == "manifold":
        M = load_manifold(rec["manifold"])
        maps = {label: AlgebraicMap.from_text(_read_data(fname), M)
                for label, fname in rec.get("maps", {}).items()}
        return CatalogEntry(name, kind, expected, maps, manifold=M)
    if kind not in ("correspondence", "relation"):
        raise ValueError("unknown catalog kind: " + kind)
    source = load_manifold(rec["source"])
    fmap = (AlgebraicMap.from_text(_read_data(rec["map"]), source)
            if kind == "correspondence" else None)
    relation = dict(rec["relation"]) if kind == "relation" else None
    return CatalogEntry(name, kind, expected, {}, source=source,
                        target=load_manifold(rec["target"]), map=fmap,
                        relation=relation, source_name=_base(rec["source"]))


def load_catalog() -> Dict[str, CatalogEntry]:
    manifest = json.loads(_read_data("manifest.json"))
    return {rec["name"]: _entry(rec) for rec in manifest["entries"]}


# -- the verification suite --------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class SuiteReport(NamedTuple):
    checks: List[CheckResult]   # appended to by ``add``

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, bool(ok), detail))


def _suite_manifold(entry: CatalogEntry, seed: int) -> SuiteReport:
    rep = SuiteReport([])
    M = entry.manifold
    exp = entry.expected
    rep.add("reality", M.real, "defining functions are real valued")
    pts = sample_points(entry.name, 5, seed)
    rep.add("sampler", all(M.contains(p) for p in pts),
            "sampled points satisfy the defining equations")
    rep.add("genericity", all(genericity_rank(M, p) == M.d for p in pts),
            "full-rank antiholomorphic gradient at samples")
    sym = symmetry_holds(M, sample_points(entry.name, 8, seed + 1))
    rep.add("segre_symmetry", sym, "z in Q_w iff w in Q_z on sample pairs")
    if "levi_signature" in exp or "pseudoconcave" in exp:
        # the reports at +1 and -1, point by point
        probes = pseudoconcavity_probe(M, pts)
    if "levi_signature" in exp:
        want = tuple(exp["levi_signature"]["value"])
        sigs = [r.signature for r in probes[::2]]
        rep.add("levi_signature", all(s == want for s in sigs),
                "signature %s at all samples" % (sigs[0],))
    if "pseudoconcave" in exp:
        got = all(r.mixed for r in probes)
        rep.add("pseudoconcave", got == exp["pseudoconcave"]["value"],
                "mixed Levi signature at every probe: %s" % got)
    # essential finiteness at the first three points, or at the first alone
    if "essfin_degree" in exp:
        essfin = [essential_finiteness(M, p) for p in pts[:3]]
        want = exp["essfin_degree"]["value"]
        degs = [deg if fin else None for fin, deg in essfin]
        rep.add("essfin_degree", all(d == want for d in degs),
                "inversion degrees %s" % degs)
    elif "essentially_finite" in exp or "locally_injective" in exp:
        essfin = [essential_finiteness(M, pts[0])]
    if "essentially_finite" in exp:
        fin, _ = essfin[0]
        rep.add("essentially_finite",
                fin == exp["essentially_finite"]["value"],
                "essentially finite: %s" % fin)
    if "locally_injective" in exp:
        # segre_map_locally_injective(M, pts[0]): inversion degree 1
        fin, deg = essfin[0]
        got = fin and deg == 1
        rep.add("locally_injective",
                got == exp["locally_injective"]["value"],
                "Segre map locally injective: %s" % got)
    if "minimality_j0" in exp:
        mini, j = minimality(M, pts[0])
        rep.add("minimality_j0", mini and j == exp["minimality_j0"]["value"],
                "minimal with stabilization index %d" % j)
    if "minimal" in exp:
        mini, j = minimality(M, pts[0])
        rep.add("minimal", mini == exp["minimal"]["value"],
                "minimal: %s (index %d)" % (mini, j))
    pts2 = sample_points(entry.name, 3, seed + 2) if entry.maps else []
    for label, f in entry.maps.items():
        # a map whose images leave M fails here, as counted evaluations
        inv = verify_invariance(M, M, f, pts2, per_point=5, seed=seed)
        rep.add("invariance_" + label, inv.ok,
                "%d/%d exact evaluations passed" % (inv.passed, inv.checked))
    return rep


def _build_entry_correspondence(entry: CatalogEntry) -> Correspondence:
    if entry.kind == "relation":
        return power_correspondence(entry.source, entry.target,
                                    entry.relation["r"], entry.relation["s"])
    return build_correspondence(entry.source, entry.target, entry.map)


def _suite_correspondence(entry: CatalogEntry, seed: int) -> SuiteReport:
    rep = SuiteReport([])
    exp = entry.expected
    C = _build_entry_correspondence(entry)
    generic = (QI(1), QI(4))
    if "forward_fiber" in exp:
        res = fiber(C, generic)
        rep.add("forward_fiber", res.degree == exp["forward_fiber"]["value"],
                "fiber degree %d over a generic source point" % res.degree)
    if "reverse_fiber" in exp:
        res = fiber(C, generic, reverse=True)
        rep.add("reverse_fiber", res.degree == exp["reverse_fiber"]["value"],
                "fiber degree %d over a generic target point" % res.degree)
    if entry.map is not None and entry.source_name in SAMPLERS:
        pts = sample_points(entry.source_name, 3, seed)
        inv = verify_invariance(entry.source, entry.target, entry.map,
                                pts, per_point=5, seed=seed)
        rep.add("invariance", inv.ok,
                "%d/%d exact evaluations passed" % (inv.passed, inv.checked))
    if "source_essfin_degree" in exp:
        p = sample_points(entry.source_name, 1, seed + 2)[0]
        fin, deg = essential_finiteness(entry.source, p)
        rep.add("source_essfin_degree",
                fin and deg == exp["source_essfin_degree"]["value"],
                "source inversion degree %s" % deg)
    if "source_minimality_j0" in exp:
        p = sample_points(entry.source_name, 1, seed + 3)[0]
        mini, j = minimality(entry.source, p)
        rep.add("source_minimality_j0",
                mini and j == exp["source_minimality_j0"]["value"],
                "source minimal with stabilization index %d" % j)
    return rep


def run_suite(entry: CatalogEntry, seed: int = 0) -> SuiteReport:
    """Recompute every recorded quantity for a catalog entry and compare."""
    if entry.kind == "manifold":
        return _suite_manifold(entry, seed)
    return _suite_correspondence(entry, seed)

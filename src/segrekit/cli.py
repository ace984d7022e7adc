"""Command-line front end.

Machine-readable JSON report on stdout, short human summary on stderr.
Exit codes: 0 success, 1 mathematical mismatch, 2 input error,
3 resource limit hit or result inconclusive.  An error's exit code is that
of its base class in ``orders``: ``InputError``, ``ResourceLimitError`` or
``InconclusiveError``.

Each command imports the modules it runs when it runs, so that a quick
command in a fresh process does not load, say, the correspondence code."""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from .ideal import current_limits, limits_scope
from .orders import InconclusiveError, InputError, ResourceLimitError
from .parsing import parse_poly
from .poly import VarTable
from .report import Report

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def parse_point(text: str, noun: str = "coordinate") -> tuple:
    """Parse "1,0" or "1/2+1/2*i,0" into a tuple of Gaussian rationals; an
    error names the entry by ``noun`` and its position."""
    table = VarTable.make([], conjugates=False)
    coords = []
    for k, part in enumerate(text.split(","), start=1):
        part = part.strip()
        if not part:
            raise InputError(f"{noun} {k} is empty")
        try:
            p = parse_poly(part, table)
        except InputError as exc:
            raise InputError(f"bad {noun} {k}: {exc}") from exc
        coords.append(p.eval({}))
    return tuple(coords)


def _load(path: str, rep: Report, label: str = "manifold", parse=None):
    """The input file at ``path`` read, digested into the report under
    ``label`` and parsed: as a manifold, or with ``parse`` as a map.  A file
    that cannot be read or parsed is an input error."""
    from .manifold import CRManifold

    kind, parse = ("map", parse) if parse else ("manifold", CRManifold.from_text)
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rep.add_input(label, text)
    try:
        return parse(text)
    except ValueError as exc:
        raise InputError(f"bad {kind} file {path}: {exc}") from exc


def _fmt_point(p) -> list:
    return [str(x) for x in p]


def cmd_segre(args, rep: Report) -> int:
    from .segre import SYMBOLIC, segre_variety

    M = _load(args.manifold, rep)
    w = SYMBOLIC if args.symbolic else parse_point(args.point)
    Q = segre_variety(M, w)
    rep.results["parameter"] = "symbolic" if args.symbolic else _fmt_point(w)
    rep.results["generators"] = sorted(str(g) for g in Q.ideal.generators)
    return EXIT_OK


def cmd_essfin(args, rep: Report) -> int:
    from .segre import inversion_set

    M = _load(args.manifold, rep)
    w = parse_point(args.point)
    finite, deg = inversion_set(M, w).finiteness()
    rep.results["point"] = _fmt_point(w)
    rep.results["essentially_finite"] = finite
    rep.results["degree"] = deg
    rep.notes.append("degree counts the full inversion variety, "
                     "not a selected component")
    return EXIT_OK


def cmd_minimal(args, rep: Report) -> int:
    from .segre import minimality

    if args.jmax is not None and args.jmax < 1:
        raise InputError(f"--jmax must be at least 1, got {args.jmax}")
    M = _load(args.manifold, rep)
    p = parse_point(args.point)
    minimal, j = minimality(M, p, j_max=args.jmax)
    rep.results["point"] = _fmt_point(p)
    rep.results["minimal"] = minimal
    rep.results["index"] = j
    return EXIT_OK


def cmd_levi(args, rep: Report) -> int:
    from .manifold import levi_signature

    M = _load(args.manifold, rep)
    p = parse_point(args.point)
    lev = levi_signature(M, p, parse_point(args.conormal, "conormal entry"))
    rep.results["point"] = _fmt_point(p)
    rep.results["conormal"] = _fmt_point(lev.conormal)
    rep.results["signature"] = list(lev.signature)
    rep.results["mixed"] = lev.mixed
    return EXIT_OK


def cmd_correspond(args, rep: Report) -> int:
    from .correspond import AlgebraicMap, build_correspondence, fiber, splits_at

    given = [flag for flag, on in (("--reverse", args.reverse), ("--splits", args.splits)) if on]
    if given and args.fiber is None:
        raise InputError(f"{' and '.join(given)}: no --fiber point given")
    if args.splits and args.reverse:
        raise InputError("--splits decides splitting over a source point "
                         "and cannot be combined with --reverse")
    M = _load(args.source, rep, "source")
    Mp = _load(args.target, rep, "target")
    f = _load(args.map, rep, "map", lambda text: AlgebraicMap.from_text(text, M))
    C = build_correspondence(M, Mp, f)
    rep.excluded.extend(sorted(str(e) for e in C.excluded))
    rep.results["graph_generators"] = sorted(str(g) for g in C.graph.generators)
    if args.fiber is not None:
        w = parse_point(args.fiber)
        res = fiber(C, w, reverse=args.reverse)
        key = "reverse_fiber" if args.reverse else "forward_fiber"
        rep.results[key + "_point"] = _fmt_point(w)
        rep.results[key + "_degree"] = res.degree
        if res.solutions is not None:
            rep.results[key + "_solutions"] = [
                {"point": _fmt_point(pt), "multiplicity": m}
                for pt, m in res.solutions]
        if args.splits:
            rep.results["splits"] = splits_at(C, w)
    return EXIT_OK


def cmd_suite(args, rep: Report) -> int:
    from .catalog import load_catalog, run_suite

    catalog = load_catalog()
    if args.all:
        names = sorted(catalog)
    else:
        if args.entry is None:
            raise InputError("give a catalog entry name or --all")
        if args.entry not in catalog:
            raise InputError(f"unknown catalog entry {args.entry!r}; "
                             f"known: {', '.join(sorted(catalog))}")
        names = [args.entry]
    all_ok = True
    for name in names:
        srep = run_suite(catalog[name], seed=rep.seed)
        rep.results[name] = {
            "ok": srep.ok,
            "checks": {c.name: {"ok": c.ok, "detail": c.detail}
                       for c in srep.checks},
        }
        all_ok = all_ok and srep.ok
    rep.results["all_ok"] = all_ok
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _setting(args, option: str, minimum: Optional[int] = None) -> Optional[int]:
    """A global option's value: its flag if given, else the environment
    variable SEGREKIT_<OPTION> if set, else None."""
    value, source = getattr(args, option), "--" + option.replace("_", "-")
    env = "SEGREKIT_" + option.upper()
    if value is None and env in os.environ:
        text, source = os.environ[env], env
        try:
            value = int(text)
        except ValueError:
            raise InputError(f"{env}={text!r} is not an integer") from None
    if value is not None and minimum is not None and value < minimum:
        raise InputError(f"{source} must be at least {minimum}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are input errors, reported as every
    other one is; its usage still goes to stderr."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="segrekit",
        description="Exact Segre-variety computations for real-algebraic "
                    "CR manifolds.")
    ap.add_argument("--seed", type=int,
                    help="seed for all randomized sampling (default 0; "
                         "env SEGREKIT_SEED)")
    ap.add_argument("--max-degree", type=int,
                    help="cap on intermediate polynomial degree "
                         "(env SEGREKIT_MAX_DEGREE)")
    ap.add_argument("--max-basis", type=int,
                    help="cap on Groebner basis size (env SEGREKIT_MAX_BASIS)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("segre", help="Segre variety of a manifold at a point")
    p.add_argument("manifold")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--point", help="comma-separated Gaussian rationals")
    g.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_segre)

    p = sub.add_parser("essfin", help="essential finiteness at a point")
    p.add_argument("manifold")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_essfin)

    p = sub.add_parser("minimal", help="minimality via iterated Segre sets")
    p.add_argument("manifold")
    p.add_argument("--point", required=True)
    p.add_argument("--jmax", type=int, default=None)
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("levi", help="exact Levi signature at a point")
    p.add_argument("manifold")
    p.add_argument("--point", required=True)
    p.add_argument("--conormal", default="1",
                   help="comma-separated real coefficients, read as points are")
    p.set_defaults(func=cmd_levi)

    p = sub.add_parser("correspond",
                       help="build the graph correspondence of a map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("map")
    p.add_argument("--fiber", help="point whose fiber to compute")
    p.add_argument("--reverse", action="store_true",
                   help="fiber over a target point instead")
    p.add_argument("--splits", action="store_true",
                   help="also decide splitting at the point of a forward fiber")
    p.set_defaults(func=cmd_correspond)

    p = sub.add_parser("suite", help="verify bundled catalog entries")
    p.add_argument("entry", nargs="?")
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_suite)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    rep = Report(command=None, seed=0)   # no command until the line parses
    start = time.monotonic()
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:   # --help, which argparse answers itself
            return exc.code or EXIT_OK
        rep.command = args.cmd
        rep.seed = _setting(args, "seed") or 0
        caps = {cap: v for cap in ("max_degree", "max_basis")
                if (v := _setting(args, cap, minimum=1)) is not None}
        limits = current_limits()._replace(**caps)
        rep.limits = {"max_degree": limits.max_degree,
                      "max_basis": limits.max_basis}
        with limits_scope(limits):
            code = args.func(args, rep)
    except InputError as exc:
        rep.status = "input-error: " + str(exc)
        code = EXIT_INPUT
    except ResourceLimitError as exc:
        rep.status = "resource-limit"
        rep.results["limit_stats"] = exc.stats
        code = EXIT_INCONCLUSIVE
    except InconclusiveError as exc:
        rep.status = "inconclusive: " + str(exc)
        code = EXIT_INCONCLUSIVE
    else:
        if code != EXIT_OK:
            rep.status = "mismatch"
    rep.emit(time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())

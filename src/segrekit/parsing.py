"""Text parsers: polynomial expressions, manifold files, map files.

Polynomial syntax: integers, rationals `a/b`, the imaginary unit `i`,
variable names, `~name` for the paired conjugate variable, operators
`+ - * ^` and parentheses.  Division is allowed only by nonzero constants.

Each file line is parsed once, where it stands, so the specs hold `Poly`s:
a manifold's defining polynomials over its table of z-variables and their
`~`-partners, a map's components over a table of z-variables alone (a map
is holomorphic, so `~` is an error there).
"""

from __future__ import annotations

import re
from math import comb, floor, log10
from typing import List, NamedTuple, Optional, Tuple

from .gaussian import PARSE_DIGIT_CAP, QI, check_digits, heights
from .ideal import PARSE_TERM_CAP
from .orders import InputError, ResourceLimitError
from .poly import BLOCKS, Poly, VarTable

# the deepest nesting of parentheses: at four frames a level of the descent,
# well under the interpreter's recursion limit wherever the parser is called
MAX_NESTING = 100
# the most work a power in a parsed expression may take, in products of two
# coefficients, one of D digits counting 1 + D/500 (such a unit takes 1 to 4
# microseconds on one x86-64 core under Python 3.11)
PARSE_WORK_CAP = 10 ** 6


class ParseError(InputError):
    def __init__(self, message: str, pos: Optional[int] = None, line: Optional[int] = None):
        loc = [f"line {line}"] if line is not None else []
        if pos is not None:
            loc.append(f"column {pos + 1}")
        super().__init__(message + (f" ({', '.join(loc)})" if loc else ""))
        self.reason = message
        self.pos = pos
        self.line = line


def _power_terms(p: Poly, k: int) -> int:
    """A bound on the terms of p**k: the products of k of p's t terms,
    C(t + k - 1, k), and the monomials of degree at most k*d in the v
    variables of p, C(v + k*d, v), with d the degree of p."""
    t = len(p.terms)
    if t <= 1 or k == 0:
        return 1
    k = min(k, PARSE_TERM_CAP)  # both bounds are over the cap from there on
    v = len(p.variables())
    return min(comb(t + k - 1, k), comb(v + k * p.total_degree(), v))


def _power_work(p: Poly, k: int) -> float:
    """A bound on the work of p**k, taken as ``Poly.__pow__`` takes it, by
    repeated squaring.  Each product of p^e and p^f multiplies every term of
    one by every term of the other, at most ``_power_terms`` of each, into
    integers of at most (e + f)*L digits, for L the larger of p's
    ``_log_heights``.  Once the term and digit bounds of p**k hold, a p of
    two terms or more has k*L <= PARSE_DIGIT_CAP with L >= log10(2), so the
    exponents stay small; a single term's power is a few products of one
    term each and counts as no work."""
    if len(p.terms) <= 1:
        return 0
    digits = max(_log_heights(p))

    def product(e: int, f: int) -> float:  # the work of p^e * p^f
        return _power_terms(p, e) * _power_terms(p, f) * (1 + (e + f) * digits / 500)

    work, done, e = 0, 0, 1  # p^done is the product so far, p^e the square
    while k:
        if k & 1:
            if done:
                work += product(done, e)
            done += e
        if k > 1:
            work += product(e, e)
            e *= 2
        k >>= 1
    return work


def _log_heights(p: Poly) -> Tuple[float, float]:
    """log10 of p's ``gaussian.heights``, each taken as at least 1."""
    return tuple(log10(max(h, 1)) for h in heights(p.terms.values()))


def _check_expansion(terms: int, log_digits: float) -> None:
    """Refuse a product or power before it is expanded when it could have
    more than PARSE_TERM_CAP terms, or log_digits, a bound on log10 of its
    integers, is past PARSE_DIGIT_CAP (not at it: float log10 rounds
    10^4300 - 1 up to it, and ``parse_poly`` checks exactly)."""
    if terms > PARSE_TERM_CAP:
        raise ResourceLimitError("expression expands to too many terms",
                                 {"terms_bound": terms, "cap": PARSE_TERM_CAP})
    if log_digits > PARSE_DIGIT_CAP:
        raise ResourceLimitError("expression has numbers too long to print",
                                 {"digits_bound": floor(log_digits) + 1, "cap": PARSE_DIGIT_CAP})


def _check_work(work: float) -> None:
    """Refuse a power before it is taken when its ``_power_work`` is over
    PARSE_WORK_CAP."""
    if work > PARSE_WORK_CAP:
        raise ResourceLimitError("expression takes too much work to expand",
                                 {"work_bound": int(work), "cap": PARSE_WORK_CAP})


_NAME = r"[A-Za-z_][A-Za-z_0-9']*"
_TOKEN = re.compile(rf"(\d+)|({_NAME})|(\S)")


def _tokenize(src: str) -> List[Tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(src):
        num, name, ch = m.groups()
        if num:
            if len(num) > PARSE_DIGIT_CAP:
                raise ParseError(f"number literal longer than {PARSE_DIGIT_CAP} digits",
                                 pos=m.start())
            tokens.append(("num", num, m.start()))
        elif name:
            tokens.append(("name", name, m.start()))
        elif ch in "+-*/^()~":
            tokens.append((ch, ch, m.start()))
        else:
            raise ParseError(f"unexpected character {ch!r}", pos=m.start())
    return tokens


class _Parser:
    def __init__(self, src: str, table: VarTable):
        self.tokens = _tokenize(src)
        self.table = table
        self.k = 0
        self.src = src
        self.depth = 0  # of the parentheses open at the current token

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else ("end", "", len(self.src))

    def take(self):
        tok = self.peek()
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", pos=tok[2])
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", pos=tok[2])
        return p

    def expr(self) -> Poly:
        tok = self.peek()
        if tok[0] in "+-":
            p = Poly.zero(self.table)
        else:
            p = self.term()
        while True:
            tok = self.peek()
            if tok[0] == "+":
                self.take()
                p = p + self.term()
            elif tok[0] == "-":
                self.take()
                p = p - self.term()
            else:
                return p

    def term(self) -> Poly:
        p = self.factor()
        while True:
            tok = self.peek()
            if tok[0] not in ("*", "/"):
                return p
            self.take()
            q = self.factor()
            if tok[0] == "/":
                if not q.is_constant() or q.is_zero():
                    raise ParseError("division only by nonzero constants", pos=tok[2])
                q = Poly.const(self.table, QI(1) / q.constant_value())
            (np, dp), (nq, dq) = _log_heights(p), _log_heights(q)
            _check_expansion(len(p.terms) * len(q.terms), max(np + nq, dp + dq))
            p = p * q

    def factor(self) -> Poly:
        negate = False
        while self.peek()[0] == "-":
            self.take()
            negate = not negate
        p = self.base()
        while self.peek()[0] == "^":
            self.take()
            k = int(self.expect("num")[1])
            # past 10^6, k is over the digit cap unless p's integers are 0 or 1
            _check_expansion(_power_terms(p, k), max(_log_heights(p)) * min(k, 10 ** 6))
            _check_work(_power_work(p, k))
            p = p ** k
        return -p if negate else p

    def base(self) -> Poly:
        tok = self.take()
        if tok[0] == "num":
            return Poly.const(self.table, int(tok[1]))
        if tok[0] == "name":
            if tok[1] == "i":
                return Poly.const(self.table, QI(0, 1))
            if tok[1] not in self.table.names:
                raise ParseError(f"unknown variable {tok[1]!r}", pos=tok[2])
            return Poly.var(self.table, tok[1])
        if tok[0] == "~":
            name_tok = self.take()
            if name_tok[0] != "name":
                raise ParseError("`~` must be followed by a variable name", pos=tok[2])
            if name_tok[1] not in self.table.names:
                raise ParseError(f"unknown variable {name_tok[1]!r}", pos=name_tok[2])
            j = self.table.pairs[self.table.index(name_tok[1])]
            if j is None:
                raise ParseError(
                    f"variable {name_tok[1]!r} has no conjugate partner", pos=tok[2]
                )
            return Poly.var(self.table, self.table.names[j])
        if tok[0] == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos=tok[2])
            p = self.expr()
            self.expect(")")
            self.depth -= 1
            return p
        raise ParseError(f"unexpected token {tok[1]!r}", pos=tok[2])


def parse_poly(src: str, table: VarTable) -> Poly:
    """Parse a polynomial expression over the given variable table.  Its
    ``gaussian.heights``, which bound its integers, stay under
    10^PARSE_DIGIT_CAP: products and powers are bounded before they are
    expanded, and the whole expression is checked once it is summed."""
    p = _Parser(src, table).parse()
    check_digits(max(heights(p.terms.values())))
    return p


# -- manifold and map files ---------------------------------------------------
#
# A line is a keyword, its first word, and a body.  The one `vars` line builds
# the file's variable table, and every other body is parsed where it stands.

_KEYWORD = re.compile(r"\s*(\w*:?)\s*")


def _vars_table(body: str, conjugates: bool) -> VarTable:
    """The table of a `vars` line: each name a name token, not `i`, not
    starting with the prefix of a block the toolkit builds (``poly.BLOCKS``),
    and not repeated."""
    names = []
    for word in re.finditer(r"\S+", body):
        name, pos = word.group(), word.start()
        if not re.fullmatch(_NAME, name):
            raise ParseError(f"bad variable name {name!r}", pos=pos)
        if name == "i":
            raise ParseError("`i` is the imaginary unit, not a variable name", pos=pos)
        if name.startswith(BLOCKS):
            raise ParseError(f"variable name {name!r} starts with a reserved prefix "
                             f"({', '.join(BLOCKS)})", pos=pos)
        if name in names:
            raise ParseError(f"repeated variable name {name!r}", pos=pos)
        names.append(name)
    if not names:
        raise ParseError("empty `vars` declaration")
    return VarTable.make(names, conjugates=conjugates)


def _parse_lines(text: str, conjugates: bool, parsers: dict) -> Tuple[VarTable, list]:
    """The variable table and, line by line, (keyword, parsers[keyword](body,
    table)).  An error names its line and, inside a body, its column."""
    table, items = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        m = _KEYWORD.match(code)
        key, body = m.group(1), code[m.end():]
        try:
            if key == "vars":
                if table is not None:
                    raise ParseError("repeated `vars` declaration")
                table = _vars_table(body, conjugates)
            elif key not in parsers:
                raise ParseError(f"unrecognized line {code.strip()!r}")
            elif table is None and key != "chart:":
                raise ParseError(f"`{key}` before `vars`")
            else:
                items.append((key, parsers[key](body, table)))
        except ParseError as exc:
            pos = None if exc.pos is None else exc.pos + m.end()
            raise ParseError(exc.reason, pos, lineno) from None
    if table is None:
        raise ParseError("missing `vars` declaration", line=1)
    return table, items


#   vars z1 z2
#   rho: z1*~z1 + z2*~z2 - 1
#   chart: projective 0      (optional)


class ManifoldSpec(NamedTuple):
    table: VarTable  # the z-variables and their ~-partners
    rho: tuple       # of Poly over table
    chart: object    # "affine" or int (projective chart index)


def _chart(body: str, table) -> object:
    m = re.fullmatch(r"\s*(?:affine|projective\s+([0-9]+))\s*", body)
    if m is None:
        raise ParseError(f"bad chart {body.strip()!r}, expected `affine` or `projective <index>`")
    return "affine" if m.group(1) is None else int(m.group(1))


def _rho(body: str, table: VarTable) -> Poly:
    """A defining polynomial; a constant cuts out no submanifold."""
    r = parse_poly(body, table)
    if r.is_constant():
        raise ParseError("a defining polynomial must not be constant")
    return r


def parse_manifold_text(text: str) -> ManifoldSpec:
    table, items = _parse_lines(text, True, {"rho:": _rho, "chart:": _chart})
    rho = tuple(v for key, v in items if key == "rho:")
    if not rho:
        raise ParseError("no `rho:` lines", line=1)
    charts = [v for key, v in items if key == "chart:"]
    return ManifoldSpec(table, rho, charts[-1] if charts else "affine")


#   vars z1 z2
#   component: z1^2
#   component: z2^2 / (1 + z1)    (denominator optional)


class MapSpec(NamedTuple):
    table: VarTable    # the z-variables only: a map is holomorphic
    components: tuple  # of (numerator, denominator or None), Polys over table


def _split_component(src: str, table: VarTable) -> Tuple[Poly, Optional[Poly]]:
    """Split a map component into numerator and optional denominator.

    The polynomial grammar already accepts division by constants, so the
    whole source is tried as a single polynomial first; only when that
    fails is the last top-level `/` read as the component denominator, so
    that `a/b/c` is (a/b)/c.  When that split does not parse, the first
    attempt's error stands."""
    try:
        return parse_poly(src, table), None
    except ParseError as exc:
        whole = exc
    depth, cut = 0, None
    for k, ch in enumerate(src):
        depth += (ch == "(") - (ch == ")")
        if ch == "/" and depth == 0:
            cut = k
    if cut is None:
        raise whole
    try:
        num, den = parse_poly(src[:cut], table), parse_poly(src[cut + 1:], table)
    except ParseError:
        raise whole from None
    if den.is_zero():
        raise ParseError("zero denominator in map component", pos=cut + 1)
    return num, den


def parse_map_text(text: str) -> MapSpec:
    table, items = _parse_lines(text, False, {"component:": _split_component})
    if not items:
        raise ParseError("map file needs `component:` lines", line=1)
    return MapSpec(table, tuple(v for _, v in items))

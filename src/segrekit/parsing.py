"""Text parsers: polynomial expressions, manifold files, map files.

Polynomial syntax: integers, rationals `a/b`, the imaginary unit `i`,
variable names, `~name` for the paired conjugate variable, operators
`+ - * ^` and parentheses.  Division is allowed only by nonzero constants.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from .gaussian import QI
from .poly import Poly, VarTable


class ParseError(ValueError):
    def __init__(self, message: str, pos: Optional[int] = None, line: Optional[int] = None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif pos is not None:
            loc = f" (column {pos + 1})"
        super().__init__(message + loc)
        self.pos = pos
        self.line = line


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9']*)|(.))")


def _tokenize(src: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(src, pos)
        if not m or m.end() == m.start():
            break
        start = m.start(m.lastindex)
        if m.group(1):
            tokens.append(("num", m.group(1), start))
        elif m.group(2):
            tokens.append(("name", m.group(2), start))
        else:
            ch = m.group(3)
            if ch not in "+-*/^()~":
                raise ParseError(f"unexpected character {ch!r}", pos=start)
            tokens.append((ch, ch, start))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str, table: VarTable):
        self.tokens = _tokenize(src)
        self.table = table
        self.k = 0
        self.src = src

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
            if tok[0] == "*":
                self.take()
                p = p * self.factor()
            elif tok[0] == "/":
                self.take()
                q = self.factor()
                if not q.is_constant() or q.is_zero():
                    raise ParseError("division only by nonzero constants", pos=tok[2])
                p = p * (QI(1) / q.constant_value())
            else:
                return p

    def factor(self) -> Poly:
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return -self.factor()
        p = self.base()
        while self.peek()[0] == "^":
            self.take()
            etok = self.expect("num")
            p = p ** int(etok[1])
        return p

    def base(self) -> Poly:
        tok = self.take()
        if tok[0] == "num":
            return Poly.const(self.table, int(tok[1]))
        if tok[0] == "name":
            if tok[1] == "i":
                return Poly.const(self.table, QI(0, 1))
            return self._var(tok[1], tok[2])
        if tok[0] == "~":
            name_tok = self.take()
            if name_tok[0] != "name":
                raise ParseError("`~` must be followed by a variable name", pos=tok[2])
            i = self.table.index(name_tok[1]) if name_tok[1] in self.table.names else None
            if i is None:
                raise ParseError(f"unknown variable {name_tok[1]!r}", pos=name_tok[2])
            j = self.table.pairs[i]
            if j is None:
                raise ParseError(
                    f"variable {name_tok[1]!r} has no conjugate partner", pos=tok[2]
                )
            return Poly.var(self.table, self.table.names[j])
        if tok[0] == "(":
            p = self.expr()
            self.expect(")")
            return p
        raise ParseError(f"unexpected token {tok[1]!r}", pos=tok[2])

    def _var(self, name: str, pos: int) -> Poly:
        if name not in self.table.names:
            raise ParseError(f"unknown variable {name!r}", pos=pos)
        return Poly.var(self.table, name)


def parse_poly(src: str, table: VarTable) -> Poly:
    """Parse a polynomial expression over the given variable table."""
    return _Parser(src, table).parse()


# -- manifold definition files -------------------------------------------------
#
#   vars z1 z2
#   rho: z1*~z1 + z2*~z2 - 1
#   chart: projective 0      (optional)


class ManifoldSpec(NamedTuple):
    zvars: tuple
    rho_sources: tuple
    chart: object  # "affine" or int (projective chart index)


def parse_manifold_text(text: str) -> ManifoldSpec:
    zvars = None
    rhos = []
    chart = "affine"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars"):
            zvars = tuple(line[len("vars"):].split())
            if not zvars:
                raise ParseError("empty `vars` declaration", line=lineno)
        elif line.startswith("rho:"):
            if zvars is None:
                raise ParseError("`rho:` before `vars`", line=lineno)
            rhos.append(line[len("rho:"):].strip())
        elif line.startswith("chart:"):
            body = line[len("chart:"):].split()
            if len(body) == 1 and body[0] == "affine":
                chart = "affine"
            elif len(body) == 2 and body[0] == "projective":
                chart = int(body[1])
            else:
                raise ParseError(f"bad chart declaration {line!r}", line=lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if zvars is None:
        raise ParseError("missing `vars` declaration", line=1)
    if not rhos:
        raise ParseError("no `rho:` lines", line=1)
    return ManifoldSpec(zvars, tuple(rhos), chart)


# -- map files -----------------------------------------------------------------
#
#   vars z1 z2
#   component: z1^2
#   component: z2^2 / (1 + z1)    (denominator optional)


class MapSpec(NamedTuple):
    zvars: tuple
    components: tuple  # (numerator source, denominator source or None)


def _split_component(src: str, zvars) -> Tuple[str, Optional[str]]:
    """Split a map component into numerator and optional denominator.

    The polynomial grammar already accepts division by constants, so the
    whole source is tried as a single polynomial first; only when that
    fails is a top-level `/` interpreted as the component denominator."""
    table = VarTable.make(list(zvars))
    try:
        parse_poly(src, table)
        return src, None
    except ParseError:
        pass
    depth = 0
    for k, ch in enumerate(src):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            num, den = src[:k], src[k + 1:]
            try:
                parse_poly(num, table)
                parse_poly(den, table)
                return num, den
            except ParseError:
                continue
    raise ParseError(f"cannot parse map component {src!r}")


def parse_map_text(text: str) -> MapSpec:
    zvars = None
    comps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars"):
            zvars = tuple(line[len("vars"):].split())
        elif line.startswith("component:"):
            if zvars is None:
                raise ParseError("`component:` before `vars`", line=lineno)
            num, den = _split_component(line[len("component:"):].strip(), zvars)
            comps.append((num, den))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if zvars is None or not comps:
        raise ParseError("map file needs `vars` and `component:` lines", line=1)
    return MapSpec(zvars, tuple(comps))

"""The earlier relayout routine, kept as an independent test reference.

``transport`` is the old ``Poly.transport`` as it was, written as a
function: it moves a polynomial onto another table by name, renaming
variables through ``name_map``.  ``Poly.substitute`` with name bindings
replaced it; tests compare the two and route their own reference paths
through this copy, so that those paths do not run through the code they
check."""

from typing import Mapping, Optional

from segrekit.poly import Poly, VarTable


def transport(self: Poly, table: VarTable, name_map: Optional[Mapping[str, str]] = None) -> Poly:
    """Rewrite over another table; variables renamed through name_map."""
    name_map = name_map or {}
    idx = {}
    for i in self.variables():
        src = self.table.names[i]
        idx[i] = table.index(name_map.get(src, src))
    terms = {}
    for m, c in self.terms.items():
        new = [0] * len(table)
        for i, e in enumerate(m):
            if e:
                new[idx[i]] += e
        key = tuple(new)
        terms[key] = terms[key] + c if key in terms else c
    return Poly(table, terms)

"""Constraint extraction.

extract_constraints turns a parametric table into the finite set of
polynomial conditions equivalent to the Leibniz identity: every nonzero
residual coordinate over basis triples, reduced to a primitive normalized
representative. A rational assignment satisfies the set exactly when the
evaluated table passes check_leibniz.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction

from .core import AlgebraTable, Record, pair_residual, residual_pairs, transpose
from .scalars import Poly, _join_terms, format_term, poly_sort_key, primitive_terms


class ConstraintSet(Record):
    """A set of polynomials, held as a tuple in canonical order.

    Canonical order is poly_sort_key order: term count, then the terms in
    canonical ascending order. Iteration follows it, and two sets are equal
    exactly when their tuples are. Each member also holds its terms in
    canonical order, so lines() prints it without sorting. The
    constructor trusts polys to be all of that; of() makes it so.
    """

    __slots__ = ("polys",)

    @classmethod
    def of(cls, items: Iterable[Poly]) -> "ConstraintSet":
        canonical = {Poly(dict(p.sorted_terms())) for p in items}
        return cls(tuple(sorted(canonical, key=poly_sort_key)))

    def __len__(self) -> int:
        return len(self.polys)

    def __contains__(self, p: Poly) -> bool:
        return p in self.polys

    def __iter__(self) -> Iterator[Poly]:
        return iter(self.polys)

    def lines(self) -> Iterator[str]:
        """str(p) of each member, read off its stored term order."""
        for p in self.polys:
            yield _join_terms(format_term(c, m) for m, c in p.terms.items())

    def violated_at(self, assignment: Mapping[str, Fraction | int]) -> Poly | None:
        """First member (in canonical order) that does not vanish, if any."""
        for p in self:
            if p.evaluate(assignment) != 0:
                return p
        return None

    def satisfied_by(self, assignment: Mapping[str, Fraction | int]) -> bool:
        return self.violated_at(assignment) is None


def extract_constraints(t: AlgebraTable) -> ConstraintSet:
    """Polynomial conditions equivalent to the Leibniz identity for t.

    Residuals are computed in integers on the scaled structure constants,
    with each monomial packed into one int whose order is the canonical
    monomial order. A primitive form ignores the scale, so each nonzero
    coordinate is made primitive as it stands. The distinct forms are sorted
    once, by term count and then their (packed monomial, coefficient) terms
    ascending, which is poly_sort_key order, and only they become Polys.
    """
    _, rows, unpack = t.scaled_rows()
    cols = transpose(rows, t.dim)
    found: dict[frozenset[tuple[int, int]], dict[int, int]] = {}
    for j, k in residual_pairs(rows):
        for coords in pair_residual(rows, cols, j, k).values():
            for terms in coords.values():
                prim = primitive_terms(terms, min(terms))
                found.setdefault(frozenset(prim.items()), prim)
    forms = sorted((sorted(prim.items()) for prim in found.values()), key=lambda items: (len(items), items))
    return ConstraintSet(tuple(Poly({unpack(m): Fraction(c) for m, c in items}) for items in forms))

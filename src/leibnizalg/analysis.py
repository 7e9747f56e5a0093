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

from .core import AlgebraTable, Record, scaled_residual, sparse_triples
from .scalars import Mono, Poly, poly_sort_key, primitive_terms


class ConstraintSet(Record):
    """A set of primitive normalized polynomials with set semantics."""

    __slots__ = ("polys",)

    def __init__(self, polys: frozenset[Poly]):
        self._fill(polys)

    @classmethod
    def of(cls, items: Iterable[Poly]) -> "ConstraintSet":
        return cls(frozenset(items))

    def __len__(self) -> int:
        return len(self.polys)

    def __contains__(self, p: Poly) -> bool:
        return p in self.polys

    def __iter__(self) -> Iterator[Poly]:
        return iter(sorted(self.polys, key=poly_sort_key))

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

    Residuals are computed in integers on the scaled structure constants;
    a primitive form ignores the scale, so each nonzero coordinate is made
    primitive as it stands and only the distinct ones become Polys. Each
    keeps its terms in the order the kernel produced them: printing sorts
    them, and that sort is slower on terms in hash order.
    """
    _, rows = t.scaled_rows()
    found: dict[frozenset[tuple[Mono, int]], dict[Mono, int]] = {}
    for i, j, k in sparse_triples(rows):
        for terms in scaled_residual(rows, i, j, k).values():
            prim = primitive_terms(terms)
            found.setdefault(frozenset(prim.items()), prim)
    return ConstraintSet.of(
        Poly({mono: Fraction(c) for mono, c in prim.items()}) for prim in found.values()
    )

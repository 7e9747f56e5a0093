"""Constraint extraction, basis changes and isomorphism checking.

extract_constraints turns a parametric table into the finite set of
polynomial conditions equivalent to the Leibniz identity: every nonzero
residual coordinate over basis triples, reduced to a primitive normalized
representative. A rational assignment satisfies the set exactly when the
evaluated table passes check_leibniz.

A BasisChange holds the new basis as rows in old coordinates. A constant
change is inverted by Gauss-Jordan elimination, and on a constant table it
is applied through the table's sparse constants without any Poly
arithmetic. Parametric rows are allowed only while the determinant stays a
nonzero rational constant (unipotent changes and the like); then the
inverse is the adjugate over that constant and every transformed entry
stays polynomial. Products transform by w = [c_p, c_q] in old coordinates
followed by coords_new = w . C^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .core import (
    AlgebraTable,
    Element,
    FAIL,
    InvariantProfile,
    Matrix,
    PASS,
    Verdict,
    det_and_adjugate,
    inverse_constant,
    mat_constant,
    mat_from_rows,
    mat_identity,
    mat_mul,
    scaled_residual,
    sparse,
    sparse_element,
)
from .errors import BasisChangeError, DimensionMismatchError, ParametricError
from .scalars import Mono, Poly, as_poly, poly_sort_key, primitive_terms

DISTINGUISHED = "DISTINGUISHED"
INCONCLUSIVE = "INCONCLUSIVE"

_SINGULAR = "change of basis is singular (determinant 0)"


@dataclass(frozen=True)
class ConstraintSet:
    """A set of primitive normalized polynomials with set semantics."""

    polys: frozenset[Poly]

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
    for i in range(t.dim):
        row_i = rows[i]
        for j in range(t.dim):
            ij = row_i[j]
            row_j = rows[j]
            for k in range(t.dim):
                if not (ij or row_j[k] or row_i[k]):
                    continue
                for terms in scaled_residual(rows, i, j, k).values():
                    prim = primitive_terms(terms)
                    found.setdefault(frozenset(prim.items()), prim)
    return ConstraintSet.of(
        Poly({mono: Fraction(c) for mono, c in prim.items()}) for prim in found.values()
    )


@dataclass(frozen=True)
class BasisChange:
    """New basis in old coordinates, one row per new basis vector."""

    rows: Matrix

    @classmethod
    def identity(cls, dim: int) -> "BasisChange":
        return cls(mat_identity(dim))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Union[Poly, Fraction, int]]]) -> "BasisChange":
        return cls(mat_from_rows(rows))

    @classmethod
    def from_assignments(
        cls, t: AlgebraTable, assignments: Mapping[str, Union[Element, Mapping[str, object]]]
    ) -> "BasisChange":
        """Identity rows except the named ones, given over t's basis symbols."""
        rows = [list(row) for row in mat_identity(t.dim)]
        for symbol, value in assignments.items():
            el = value if isinstance(value, Element) else t.element(value)
            rows[t.index(symbol)] = list(el.coords)
        return cls(tuple(tuple(r) for r in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def parameters(self) -> set[str]:
        names: set[str] = set()
        for row in self.rows:
            for poly in row:
                names |= poly.parameters()
        return names

    def then(self, second: "BasisChange") -> "BasisChange":
        """The change `self followed by second`, as one matrix."""
        if self.dim != second.dim:
            raise DimensionMismatchError("cannot compose changes of different dimension")
        return BasisChange(mat_mul(second.rows, self.rows))

    def constant_rows(self) -> tuple[tuple[Fraction, ...], ...] | None:
        """The rows over Fraction, or None when an entry has a parameter."""
        try:
            return mat_constant(self.rows)
        except ParametricError:
            return None

    def inverse_matrix(self) -> Matrix:
        """C^-1: Gauss-Jordan for a constant change, else adj(C)/det(C).

        A parametric change needs a nonzero rational constant determinant.
        """
        rows = self.constant_rows()
        if rows is not None:
            return mat_from_rows(_invert(rows))
        det, adj = det_and_adjugate(self.rows)
        if not det.is_constant():
            raise BasisChangeError(
                f"determinant {det} is not constant; only constant-determinant "
                "changes are invertible here"
            )
        value = det.constant_value()
        if value == 0:
            raise BasisChangeError(_SINGULAR)
        inv = Fraction(1) / value
        return tuple(tuple(inv * entry for entry in row) for row in adj)


def _invert(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    inv = inverse_constant(rows)
    if inv is None:
        raise BasisChangeError(_SINGULAR)
    return inv


def apply_basis_change(t: AlgebraTable, change: BasisChange) -> AlgebraTable:
    """The same algebra written on the new basis rows.

    new_table[p][q] = [c_p, c_q] computed in t, re-expressed through the
    inverse change. Basis symbols keep their names; they now denote the
    new vectors.
    """
    if change.dim != t.dim:
        raise DimensionMismatchError(
            f"change has dimension {change.dim}, table has {t.dim}"
        )
    rows = change.constant_rows()
    if rows is not None and not t.is_parametric():
        return _apply_constant_change(t, rows, _invert(rows))
    inv = change.inverse_matrix()
    extra = sorted(change.parameters() - set(t.params))
    params = t.params + tuple(extra)
    new_rows = []
    for p in range(t.dim):
        row = []
        cp = Element(change.rows[p])
        for q in range(t.dim):
            w = t.bracket(cp, Element(change.rows[q]))
            coords = []
            for r in range(t.dim):
                acc = None
                for i, wi in enumerate(w.coords):
                    if wi and inv[i][r]:
                        term = wi * inv[i][r]
                        acc = term if acc is None else acc + term
                coords.append(acc if acc is not None else as_poly(0))
            row.append(Element(tuple(coords)))
        new_rows.append(tuple(row))
    return AlgebraTable(t.name, t.dim, params, t.basis, tuple(new_rows))


def _apply_constant_change(
    t: AlgebraTable, rows: Sequence[Sequence[Fraction]], inv: Sequence[Sequence[Fraction]]
) -> AlgebraTable:
    """apply_basis_change for a constant table and change, on Fraction rows."""
    new = [sparse(row) for row in rows]
    inv_rows = [sparse(row) for row in inv]
    indices = range(t.dim)
    table = []
    for cp in new:
        row = []
        for cq in new:
            coords: dict[int, Fraction] = {}
            for i, wi in t.sparse_bracket(cp, cq).items():
                for r, x in inv_rows[i].items():
                    coords[r] = coords.get(r, 0) + wi * x
            row.append(sparse_element({r: x for r, x in coords.items() if x}, indices))
        table.append(tuple(row))
    return AlgebraTable(t.name, t.dim, t.params, t.basis, tuple(table))


def verify_isomorphism(t1: AlgebraTable, t2: AlgebraTable, change: BasisChange) -> Verdict:
    """PASS iff rewriting t1 through the change reproduces t2 exactly."""
    if t1.dim != t2.dim:
        raise DimensionMismatchError(
            f"tables have different dimensions: {t1.dim} vs {t2.dim}"
        )
    if t1.is_parametric() or t2.is_parametric():
        raise ParametricError("isomorphism checking needs constant tables")
    moved = apply_basis_change(t1, change)
    if t2.basis != moved.basis:
        raise DimensionMismatchError(
            f"basis symbols differ: {list(moved.basis)} vs {list(t2.basis)}"
        )
    for i in range(t1.dim):
        for j in range(t1.dim):
            if moved.table[i][j] != t2.table[i][j]:
                got = moved.format_element(moved.table[i][j])
                want = t2.format_element(t2.table[i][j])
                return Verdict(
                    FAIL,
                    witness=(moved.basis[i], moved.basis[j]),
                    residual=moved.table[i][j] - t2.table[i][j],
                    detail=f"[{moved.basis[i]},{moved.basis[j]}] maps to {got}, expected {want}",
                )
    return Verdict(PASS)


@dataclass(frozen=True)
class ProfileReport:
    """Outcome of comparing two invariant profiles."""

    status: str
    left: InvariantProfile
    right: InvariantProfile
    separating: tuple[str, ...]

    @property
    def distinguished(self) -> bool:
        return self.status == DISTINGUISHED

    @classmethod
    def compare(cls, p1: InvariantProfile, p2: InvariantProfile) -> "ProfileReport":
        """DISTINGUISHED when any invariant differs, else INCONCLUSIVE.

        INCONCLUSIVE never claims the tables are isomorphic; it only says the
        computed invariants cannot tell them apart.
        """
        d1, d2 = p1.as_dict(), p2.as_dict()
        separating = tuple(k for k in d1 if d1[k] != d2[k])
        return cls(DISTINGUISHED if separating else INCONCLUSIVE, p1, p2, separating)


def compare_profiles(t1: AlgebraTable, t2: AlgebraTable) -> ProfileReport:
    """Compute both invariant profiles and compare them (ProfileReport.compare)."""
    return ProfileReport.compare(t1.invariant_profile(), t2.invariant_profile())

"""Basis changes and isomorphism verification.

A BasisChange is its new basis vectors c_p, as sparse Element rows in old
coordinates, and every matrix here is a list of sparse rows {column:
scalar}. A constant change is inverted by Gauss-Jordan elimination on the
sparse [C | I]. Parametric rows are allowed only while the determinant
stays a nonzero rational constant (unipotent changes and the like); then
the inverse is the adjugate over that constant and every transformed entry
stays polynomial. There is one transform for every table and change:
core.bilinear sums each [c_p, c_q] in old coordinates from the stored
products (each [b_i, b_j] adds C[p][i]*C[q][j]*[b_i, b_j]), and each
nonzero sum w is rewritten as w . C^-1. It runs over Fraction for a
constant table and change and over Poly otherwise, so its work follows the
stored products and nonzero entries.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .core import FAIL, PASS, AlgebraTable, Element, Record, Row, Verdict, bilinear, element_from, transpose
from .errors import BasisChangeError, DimensionMismatchError, ParametricError
from .scalars import _F1, ONE, ZERO, Coeffish, Poly, as_poly

_SINGULAR = "change of basis is singular (determinant 0)"


def _row_times(row: Row, m: Sequence[Row]) -> dict:
    """The nonzero entries of the row vector row . m, for sparse rows m."""
    acc: dict = {}
    for k, x in row.items():
        if x:
            for j, y in m[k].items():
                acc[j] = acc[j] + x * y if j in acc else x * y
    return {j: v for j, v in acc.items() if v}


def det_and_adjugate(m: Sequence[Mapping[int, Poly]]) -> tuple[Poly, list[dict[int, Poly]]]:
    """Determinant and adjugate of a square matrix of sparse rows, via Faddeev-LeVerrier.

    Division-free apart from division by integers, so polynomial entries
    stay polynomial. adj(M).M = det(M).I holds exactly. This is the path
    for parametric matrices; a constant one is inverted by
    inverse_constant.
    """
    n = len(m)
    b: list[dict[int, Poly]] = [{i: ONE} for i in range(n)]
    last_b, c = b, ONE
    for k in range(1, n + 1):
        mb = [_row_times(row, b) for row in m]
        c = sum((row.get(i, ZERO) for i, row in enumerate(mb)), ZERO) * Fraction(-1, k)
        last_b, b = b, mb
        # b = M.b + c.I
        for i, row in enumerate(b):
            x = row[i] + c if i in row else c
            if x:
                row[i] = x
            else:
                row.pop(i, None)
    det = c if n % 2 == 0 else -c
    adj = last_b if (n - 1) % 2 == 0 else [{j: -x for j, x in row.items()} for row in last_b]
    return det, adj


def inverse_constant(m: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]] | None:
    """Inverse of a constant square matrix of sparse rows, by Gauss-Jordan on [M | I].

    None when M is singular, that is when a pivot of [M | I] falls in the
    identity block. Otherwise row i of the reduced form is e_i followed by
    row i of the inverse.
    """
    from .spaces import Echelon

    n = len(m)
    ech = Echelon(2 * n)
    for i, row in enumerate(m):
        ech.add({**row, n + i: _F1})
    if sorted(ech.rows) != list(range(n)):
        return None
    rows = ech.reduced()
    return [{j - n: x for j, x in rows[i].items() if j >= n} for i in range(n)]


# ---------------------------------------------------------------------------
# basis changes


class BasisChange(Record):
    """New basis in old coordinates: rows[p] is the Element c_p."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Element]):
        """Rejects a row whose dim is not the number of rows."""
        for p, row in enumerate(rows):
            if row.dim != len(rows):
                raise DimensionMismatchError(f"change row {p} has length {row.dim} in a change of {len(rows)} rows")
        Record.__init__(self, tuple(rows))

    @classmethod
    def identity(cls, dim: int) -> "BasisChange":
        return cls([Element.of(dim, {i: ONE}) for i in range(dim)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Coeffish]]) -> "BasisChange":
        """The change with these dense rows."""
        return cls([element_from(row) for row in rows])

    @classmethod
    def from_assignments(
        cls, t: AlgebraTable, assignments: Mapping[str, Element | Mapping[str, object]]
    ) -> "BasisChange":
        """Identity rows except the named ones, given over t's basis symbols."""
        rows = [t.basis_element(i) for i in range(t.dim)]
        for symbol, value in assignments.items():
            rows[t.index(symbol)] = value if isinstance(value, Element) else t.element(value)
        return cls(rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def parameters(self) -> set[str]:
        names: set[str] = set()
        for row in self.rows:
            for poly in row.nonzero.values():
                names |= poly.parameters()
        return names

    def inverse(self) -> "BasisChange":
        """C^-1: Gauss-Jordan for a constant change, else adj(C)/det(C).

        A parametric change needs a nonzero rational constant determinant.
        """
        inv = _matrices(self)[1]
        return BasisChange([Element.of(self.dim, {j: as_poly(x) for j, x in row.items()}) for row in inv])


def _matrices(change: BasisChange) -> tuple[list[Row], list[Row]]:
    """(C, C^-1) as sparse rows, over Fraction for a constant change and over Poly otherwise."""
    if all(row.is_constant() for row in change.rows):
        rows = [{k: c.constant_value() for k, c in row.nonzero.items()} for row in change.rows]
        inv = inverse_constant(rows)
        if inv is None:
            raise BasisChangeError(_SINGULAR)
        return rows, inv
    rows = [row.nonzero for row in change.rows]
    det, adj = det_and_adjugate(rows)
    if not det.is_constant():
        raise BasisChangeError(
            f"determinant {det} is not constant; only constant-determinant "
            "changes are invertible here"
        )
    value = det.constant_value()
    if value == 0:
        raise BasisChangeError(_SINGULAR)
    inv = _F1 / value
    return rows, [{j: inv * x for j, x in row.items()} for row in adj]


def apply_basis_change(t: AlgebraTable, change: BasisChange) -> AlgebraTable:
    """The same algebra written on the new basis rows.

    [c_p, c_q] is summed in old coordinates from the stored products
    alone (core.bilinear): each [b_i, b_j] adds C[p][i]*C[q][j]*[b_i, b_j]
    for the p and q with C[p][i] and C[q][j] nonzero. Each nonzero sum w
    becomes the product [c_p, c_q] with coordinates w . C^-1. Basis
    symbols keep their names; they now denote the new vectors.
    """
    if change.dim != t.dim:
        raise DimensionMismatchError(
            f"change has dimension {change.dim}, table has {t.dim}"
        )
    rows, inv = _matrices(change)
    products = t.rows if t.is_parametric() else t.constants()
    new_rows: list[dict[int, dict[int, Poly]]] = [{} for _ in rows]
    for (p, q), w in bilinear(products, rows, transpose(rows, t.dim)).items():
        new_rows[p][q] = {r: as_poly(x) for r, x in _row_times(w, inv).items()}
    extra = sorted(change.parameters() - set(t.params))
    return AlgebraTable(t.name, t.params + tuple(extra), t.basis, new_rows)


def verify_isomorphism(t1: AlgebraTable, t2: AlgebraTable, change: BasisChange) -> Verdict:
    """PASS iff rewriting t1 through the change reproduces t2 exactly."""
    if t1.dim != t2.dim:
        raise DimensionMismatchError(
            f"tables have different dimensions: {t1.dim} vs {t2.dim}"
        )
    if t1.is_parametric() or t2.is_parametric():
        raise ParametricError("isomorphism checking needs constant tables")
    if t1.basis != t2.basis:
        raise DimensionMismatchError(
            f"basis symbols differ: {list(t1.basis)} vs {list(t2.basis)}"
        )
    moved = apply_basis_change(t1, change)
    for i, (got_row, want_row) in enumerate(zip(moved.rows, t2.rows)):
        for j in sorted(got_row.keys() | want_row.keys()):
            if got_row.get(j) != want_row.get(j):
                got, want = moved.entry(i, j), t2.entry(i, j)
                return Verdict(
                    FAIL,
                    witness=(moved.basis[i], moved.basis[j]),
                    residual=got - want,
                    detail=f"[{moved.basis[i]},{moved.basis[j]}] maps to "
                    f"{moved.format_element(got)}, expected {t2.format_element(want)}",
                )
    return Verdict(PASS)

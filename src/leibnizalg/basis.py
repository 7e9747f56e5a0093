"""Basis changes, isomorphism verification and the matrices they need.

A BasisChange holds the new basis as rows C in old coordinates. A
constant change is inverted by Gauss-Jordan elimination. Parametric rows
are allowed only while the determinant stays a nonzero rational constant
(unipotent changes and the like); then the inverse is the adjugate over
that constant and every transformed entry stays polynomial. There is one
transform for every table and change: each stored product [b_i, b_j]
adds C[p][i]*C[q][j]*[b_i, b_j] to [c_p, c_q] in old coordinates, and
each nonzero sum w is rewritten as w . C^-1. It runs over Fraction for
a constant table and change, reading the table's sparse constants, and
over Poly otherwise, so its work follows the stored products.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .core import FAIL, PASS, AlgebraTable, Element, Matrix, Record, Verdict, sparse
from .errors import BasisChangeError, DimensionMismatchError, MissingParameterError, ParametricError
from .scalars import _F0, _F1, ONE, ZERO, Coeffish, Poly, as_poly

_SINGULAR = "change of basis is singular (determinant 0)"


# ---------------------------------------------------------------------------
# matrices of scalars


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_from_rows(rows: Sequence[Sequence[Coeffish]]) -> Matrix:
    return tuple(tuple(as_poly(c) for c in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a.b, summing only over the nonzero entries of a's rows and b's rows."""
    m = len(b[0]) if b else 0
    b_rows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        acc: dict[int, Poly] = {}
        for k, aik in enumerate(row):
            if aik:
                for j, bkj in b_rows[k]:
                    acc[j] = acc.get(j, ZERO) + aik * bkj
        out.append(tuple(acc.get(j, ZERO) for j in range(m)))
    return tuple(out)


def mat_constant(a: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    try:
        return tuple(tuple(c.constant_value() for c in row) for row in a)
    except MissingParameterError as exc:
        raise ParametricError(f"matrix entry is not constant: {exc}") from exc


def det_and_adjugate(m: Matrix) -> tuple[Poly, Matrix]:
    """Determinant and adjugate via Faddeev-LeVerrier.

    Division-free apart from division by integers, so polynomial entries
    stay polynomial. adj(M).M = det(M).I holds exactly. This is the path
    for parametric matrices; a constant one is inverted by
    inverse_constant.
    """
    n = len(m)
    if n == 0:
        return ONE, ()
    b = mat_identity(n)
    last_b = b
    c = ONE
    for k in range(1, n + 1):
        mb = mat_mul(m, b)
        c = sum((mb[i][i] for i in range(n)), ZERO) * Fraction(-1, k)
        last_b = b
        # b = M.b + c.I
        b = tuple(tuple(x + c if i == j else x for j, x in enumerate(row)) for i, row in enumerate(mb))
    det = c if n % 2 == 0 else -c
    adj = last_b if (n - 1) % 2 == 0 else tuple(tuple(-x for x in row) for row in last_b)
    return det, adj


def inverse_constant(m: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Inverse of a constant square matrix by Gauss-Jordan on [M | I].

    None when M is singular, that is when a pivot of [M | I] falls in the
    identity block.
    """
    from .spaces import Echelon

    n = len(m)
    ech = Echelon(2 * n)
    for i, row in enumerate(m):
        vec = sparse(row)
        vec[n + i] = _F1
        ech.add(vec)
    if ech.order != list(range(n)):
        return None
    rows = ech.reduced()
    return tuple(tuple(rows[i].get(n + j, _F0) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# basis changes


class BasisChange(Record):
    """New basis in old coordinates, one row per new basis vector."""

    __slots__ = ("rows",)

    @classmethod
    def identity(cls, dim: int) -> "BasisChange":
        return cls(mat_identity(dim))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly | Fraction | int]]) -> "BasisChange":
        return cls(mat_from_rows(rows))

    @classmethod
    def from_assignments(
        cls, t: AlgebraTable, assignments: Mapping[str, Element | Mapping[str, object]]
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
        return mat_from_rows(_matrices(self)[1])


def _matrices(change: BasisChange) -> tuple[Sequence[Sequence[Coeffish]], Sequence[Sequence[Coeffish]]]:
    """(C, C^-1), over Fraction for a constant change and over Poly otherwise."""
    rows = change.constant_rows()
    if rows is not None:
        inv = inverse_constant(rows)
        if inv is None:
            raise BasisChangeError(_SINGULAR)
        return rows, inv
    det, adj = det_and_adjugate(change.rows)
    if not det.is_constant():
        raise BasisChangeError(
            f"determinant {det} is not constant; only constant-determinant "
            "changes are invertible here"
        )
    value = det.constant_value()
    if value == 0:
        raise BasisChangeError(_SINGULAR)
    inv = _F1 / value
    return change.rows, tuple(tuple(inv * entry for entry in row) for row in adj)


def apply_basis_change(t: AlgebraTable, change: BasisChange) -> AlgebraTable:
    """The same algebra written on the new basis rows.

    [c_p, c_q] is summed in old coordinates from the stored products
    alone: each [b_i, b_j] adds C[p][i]*C[q][j]*[b_i, b_j] for the p and
    q with C[p][i] and C[q][j] nonzero. Each nonzero sum w becomes the
    product [c_p, c_q] with coordinates w . C^-1. Basis symbols keep
    their names; they now denote the new vectors.
    """
    if change.dim != t.dim:
        raise DimensionMismatchError(
            f"change has dimension {change.dim}, table has {t.dim}"
        )
    rows, inv = _matrices(change)
    products = (
        [{j: entry.nonzero.items() for j, entry in row.items()} for row in t.rows]
        if t.is_parametric()
        else t.constants()
    )
    # uses[i] lists the (p, C[p][i]) with C[p][i] != 0: the new vectors that involve b_i
    uses: list[list] = [[] for _ in rows]
    for p, row in enumerate(rows):
        for i, x in enumerate(row):
            if x:
                uses[i].append((p, x))
    inv_rows = [[(r, x) for r, x in enumerate(row) if x] for row in inv]
    old: dict[tuple[int, int], dict] = {}
    for i, row in enumerate(products):
        for j, entry in row.items():
            for p, x in uses[i]:
                for q, y in uses[j]:
                    w = old.setdefault((p, q), {})
                    s = x * y
                    for k, c in entry:
                        w[k] = w[k] + s * c if k in w else s * c
    new_rows: list[dict[int, Element]] = [{} for _ in rows]
    for (p, q), w in old.items():
        coords: dict = {}
        for k, c in w.items():
            if c:
                for r, x in inv_rows[k]:
                    coords[r] = coords[r] + c * x if r in coords else c * x
        new_rows[p][q] = Element.of(t.dim, {r: as_poly(x) for r, x in coords.items() if x})
    extra = sorted(change.parameters() - set(t.params))
    return AlgebraTable(t.name, t.dim, t.params + tuple(extra), t.basis, new_rows)


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
    zero = t2.zero()
    for i, (got_row, want_row) in enumerate(zip(moved.rows, t2.rows)):
        for j in sorted(got_row.keys() | want_row.keys()):
            got, want = got_row.get(j, zero), want_row.get(j, zero)
            if got != want:
                return Verdict(
                    FAIL,
                    witness=(moved.basis[i], moved.basis[j]),
                    residual=got - want,
                    detail=f"[{moved.basis[i]},{moved.basis[j]}] maps to "
                    f"{moved.format_element(got)}, expected {t2.format_element(want)}",
                )
    return Verdict(PASS)

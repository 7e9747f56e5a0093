"""Structure-constant tables, bracket arithmetic and exact linear algebra.

A finite-dimensional algebra is a table of products [b_i, b_j], each an
Element (coordinate vector of Poly scalars over the basis). The bracket is
the bilinear extension of the table. The residual

    r(x, y, z) = [x, [y, z]] - [[x, y], z] + [[x, z], y]

vanishes for all basis triples exactly when the table satisfies the
(right) Leibniz identity; a Lie table additionally has [x, y] = -[y, x].
On the Poly path (residual, and extract_constraints in analysis) it is
computed in integers: AlgebraTable.scaled_rows multiplies every entry by
the lcm D of the table's denominators and scaled_residual returns D^2 times
the residual, with no Fraction or Poly arithmetic.

Right multiplication operators R_a(v) = [v, a] are kept as matrices acting
on coordinate columns (apply = M.v, composition = matrix product), so the
identity reads R_[y,z] = R_z.R_y - R_y.R_z. For the canonical sl2 action
this gives H = F.E - E.F, H.E - E.H = 2E and H.F - F.H = -2F.

Linear algebra is exact over Fraction: subspaces are reduced row echelon
forms. Constant tables have one more representation, their sparse
structure constants (AlgebraTable.constants), built once per table; every
constants-only operation (identity checks, product spans, ideals, centers,
quotients, constant basis changes) brackets sparse Fraction vectors
{index: value} through it and feeds one incremental echelon routine
(Echelon). Ideals are closed with a worklist: each new echelon row is
bracketed with the basis once, so this terminates after at most dim rows.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    DimensionMismatchError,
    MissingParameterError,
    NotAnIdealError,
    ParametricError,
)
from .scalars import ONE, ZERO, Mono, Poly, as_poly, format_term, mono_mul, _join_terms

Coeffish = Union[Poly, Fraction, int]
Matrix = tuple[tuple[Poly, ...], ...]
# a constant vector {coordinate: nonzero value}; absent coordinates are zero
SparseVec = dict[int, Fraction]
# constants()[i][j] lists the nonzero (k, coefficient) pairs of [b_i, b_j]
Constants = list[list[list[tuple[int, Fraction]]]]
# scaled_rows()[1][i][j] lists the nonzero (k, {monomial: integer}) of D*[b_i, b_j]
ScaledRows = list[list[list[tuple[int, dict[Mono, int]]]]]

PASS = "PASS"
FAIL = "FAIL"

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class Element:
    """A vector in the algebra, held as Poly coordinates over the basis."""

    coords: tuple[Poly, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c)

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.coords)

    def constant_coords(self) -> tuple[Fraction, ...]:
        return tuple(c.constant_value() for c in self.coords)

    def _check(self, other: "Element") -> None:
        if len(self.coords) != len(other.coords):
            raise DimensionMismatchError(
                f"element dimensions differ: {len(self.coords)} vs {len(other.coords)}"
            )

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(tuple(-a for a in self.coords))

    def __rmul__(self, scalar: Coeffish) -> "Element":
        s = as_poly(scalar)
        return Element(tuple(s * a for a in self.coords))

    __mul__ = __rmul__


def zero_element(dim: int) -> Element:
    return Element((ZERO,) * dim)


def element_from(coords: Sequence[Coeffish]) -> Element:
    return Element(tuple(as_poly(c) for c in coords))


def format_element(el: Element, basis: Sequence[str]) -> str:
    """Canonical text for an element: coordinate-major, terms ascending."""
    parts: list[tuple[int, str]] = []
    for i, poly in enumerate(el.coords):
        for mono, coeff in poly.sorted_terms():
            parts.append(format_term(coeff, mono, basis[i]))
    return _join_terms(parts)


# ---------------------------------------------------------------------------
# exact row reduction


def sparse(coords: Sequence[Fraction]) -> SparseVec:
    """The nonzero coordinates of a dense vector."""
    return {k: c for k, c in enumerate(coords) if c}


def sparse_element(vec: SparseVec, indices: Sequence[int]) -> Element:
    """The Element whose coordinates are vec read at the given indices."""
    return Element(tuple(Poly.const(vec[i]) if i in vec else ZERO for i in indices))


def _subtract(v: SparseVec, c: Fraction, row: SparseVec) -> None:
    """v -= c * row in place, dropping the coordinates that cancel."""
    for k, x in row.items():
        y = v.get(k, _F0) - c * x
        if y:
            v[k] = y
        else:
            del v[k]


class Echelon:
    """Incremental row echelon form over Fraction, rows kept by pivot.

    Each row has a 1 at its pivot and zeros at every column left of it and
    at every pivot column that existed when it was added. A new vector is
    reduced on arrival, dropped when it reduces to zero and otherwise
    scaled into a new row; reduced() back-substitutes once, which gives the
    canonical reduced row echelon form whatever the order of arrival.
    """

    __slots__ = ("ambient", "rows", "order")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict[int, SparseVec] = {}
        self.order: list[int] = []  # pivot columns, ascending

    @classmethod
    def of(cls, sub: "Subspace") -> "Echelon":
        ech = cls(sub.ambient)
        ech.rows = {p: sparse(r) for r, p in zip(sub.rows, sub.pivots)}
        ech.order = list(sub.pivots)
        return ech

    @property
    def rank(self) -> int:
        return len(self.order)

    def reduce(self, vec: Union[SparseVec, Iterable[tuple[int, Fraction]]]) -> SparseVec:
        """What is left of vec after clearing every pivot column.

        vec holds no zero values. Pivots are cleared in ascending order:
        a row touches no column left of its pivot, so no cleared column
        fills in again. The result is empty exactly when vec is in the span.
        """
        v = dict(vec)
        for p in self.order:
            c = v.get(p)
            if c:
                _subtract(v, c, self.rows[p])
        return v

    def add(self, vec: Union[SparseVec, Iterable[tuple[int, Fraction]]]) -> SparseVec | None:
        """Insert vec; returns its new row, or None when vec is dependent."""
        if len(self.order) == self.ambient:
            return None
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        lead = v[p]
        if lead != 1:
            inv = _F1 / lead
            v = {k: x * inv for k, x in v.items()}
        self.rows[p] = v
        insort(self.order, p)
        return v

    def reduced(self) -> dict[int, SparseVec]:
        """Back-substitute in place; every row then has zeros at other pivots."""
        done: dict[int, SparseVec] = {}
        for p in reversed(self.order):
            row = self.rows[p]
            for q in [q for q in row if q in done]:
                _subtract(row, row[q], done[q])
            done[p] = row
        return self.rows

    def subspace(self) -> "Subspace":
        rows = self.reduced()
        n = self.ambient
        dense = tuple(tuple(rows[p].get(k, _F0) for k in range(n)) for p in self.order)
        return Subspace(n, dense, tuple(self.order))


def rref(rows: Iterable[Sequence[Fraction]], ambient: int) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form over Fraction. Returns (rows, pivot columns)."""
    ech = Echelon(ambient)
    for r in rows:
        ech.add(sparse(r))
    sub = ech.subspace()
    return sub.rows, sub.pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient in reduced row echelon form."""

    ambient: int
    rows: tuple[tuple[Fraction, ...], ...]
    pivots: tuple[int, ...]

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, (), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        rows = tuple(
            tuple(_F1 if i == j else _F0 for j in range(ambient)) for i in range(ambient)
        )
        return Subspace(ambient, rows, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
        left = Echelon.of(self).reduce(sparse(coords))
        return tuple(left.get(k, _F0) for k in range(self.ambient))

    def contains(self, coords: Sequence[Fraction]) -> bool:
        return not any(self.reduce(coords))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def as_elements(self) -> tuple[Element, ...]:
        return tuple(element_from(r) for r in self.rows)

    def complement_indices(self) -> tuple[int, ...]:
        used = set(self.pivots)
        return tuple(i for i in range(self.ambient) if i not in used)


def _constant_coords(v: Union[Element, Sequence[Fraction]]) -> Sequence[Fraction]:
    if isinstance(v, Element):
        if not v.is_constant():
            raise ParametricError("span requires constant coordinates")
        return v.constant_coords()
    return v


def span(vectors: Iterable[Union[Element, Sequence[Fraction]]], ambient: int | None = None) -> Subspace:
    """Row space of the given vectors as a canonical Subspace."""
    rows = [_constant_coords(v) for v in vectors]
    if ambient is None:
        if not rows:
            raise DimensionMismatchError("span of no vectors needs an explicit ambient dimension")
        ambient = len(rows[0])
    for r in rows:
        if len(r) != ambient:
            raise DimensionMismatchError(f"vector of length {len(r)} in ambient dimension {ambient}")
    reduced, pivots = rref(rows, ambient)
    return Subspace(ambient, reduced, pivots)


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


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Coeffish, a: Matrix) -> Matrix:
    s = as_poly(c)
    return tuple(tuple(s * x for x in row) for row in a)


def mat_trace(a: Matrix) -> Poly:
    acc = ZERO
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


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
        c = mat_trace(mb) * Fraction(-1, k)
        last_b = b
        b = mat_add(mb, mat_scale(c, mat_identity(n)))
    det = c if n % 2 == 0 else -c
    adj = last_b if (n - 1) % 2 == 0 else mat_scale(-1, last_b)
    return det, adj


def inverse_constant(m: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...] | None:
    """Inverse of a constant square matrix by Gauss-Jordan on [M | I].

    None when M is singular, that is when a pivot of [M | I] falls in the
    identity block.
    """
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


def scaled_residual(rows: ScaledRows, i: int, j: int, k: int) -> dict[int, dict[Mono, int]]:
    """The nonzero coordinates of D^2*r(b_i, b_j, b_k), in integers.

    rows are the scaled structure constants D*[b_i, b_j] of
    AlgebraTable.scaled_rows. Every term of the residual is a product of two
    table entries, so scaling each entry by D scales the residual by D^2.
    """
    row_i = rows[i]
    pairs = [(c, row_i[l]) for l, c in rows[j][k]]
    pairs += [({mono: -x for mono, x in c.items()}, rows[l][k]) for l, c in row_i[j]]
    pairs += [(c, rows[l][j]) for l, c in row_i[k]]
    acc: dict[int, dict[Mono, int]] = {}
    for c, entry in pairs:
        for m, e in entry:
            out = acc.setdefault(m, {})
            for m1, x in c.items():
                for m2, y in e.items():
                    mono = mono_mul(m1, m2)
                    out[mono] = out.get(mono, 0) + x * y
    nonzero = ((m, {mono: x for mono, x in out.items() if x}) for m, out in acc.items())
    return {m: terms for m, terms in nonzero if terms}


def submodule_closure(ops: Sequence[Matrix], seed: Element) -> Subspace:
    """Smallest subspace containing seed and stable under all operators."""
    ambient = seed.dim
    const_ops = [mat_constant(op) for op in ops]
    current = span([seed], ambient)
    while True:
        vectors: list[Sequence[Fraction]] = list(current.rows)
        for op in const_ops:
            for row in current.rows:
                image = tuple(
                    sum((op[i][j] * row[j] for j in range(ambient)), _F0) for i in range(ambient)
                )
                vectors.append(image)
        nxt = span(vectors, ambient)
        if nxt.dim == current.dim:
            return current
        current = nxt


# ---------------------------------------------------------------------------
# verdicts and invariant profiles


@dataclass(frozen=True)
class Verdict:
    """Outcome of a PASS/FAIL check, with a witness when it fails."""

    status: str
    witness: tuple[str, ...] | None = None
    residual: Element | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


@dataclass(frozen=True)
class InvariantProfile:
    """Basis-independent dimensions used to tell tables apart."""

    dim: int
    derived_dim: int
    derived_series: tuple[int, ...]
    lower_central_series: tuple[int, ...]
    left_center_dim: int
    right_center_dim: int
    squares_ideal_dim: int

    def as_dict(self) -> dict[str, object]:
        return {
            "dim": self.dim,
            "derived_dim": self.derived_dim,
            "derived_series": self.derived_series,
            "lower_central_series": self.lower_central_series,
            "left_center_dim": self.left_center_dim,
            "right_center_dim": self.right_center_dim,
            "squares_ideal_dim": self.squares_ideal_dim,
        }


@dataclass(frozen=True)
class QuotientMap:
    """Coordinate projection onto the quotient by an ideal.

    Kept coordinates are the non-pivot columns of the ideal's echelon form;
    an element is projected by reducing against the ideal rows and reading
    off the kept coordinates.
    """

    ideal: Subspace
    kept: tuple[int, ...]

    def __call__(self, el: Element) -> Element:
        coords = list(el.coords)
        for row, p in zip(self.ideal.rows, self.ideal.pivots):
            c = coords[p]
            if c:
                for k in range(self.ideal.ambient):
                    if row[k]:
                        coords[k] = coords[k] - c * row[k]
        return Element(tuple(coords[i] for i in self.kept))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.ideal.ambient
        return tuple(self.ideal.reduce([_F1 if j == i else _F0 for j in range(n)]) for i in self.kept)


# ---------------------------------------------------------------------------
# the table itself


@dataclass(frozen=True)
class AlgebraTable:
    """A structure-constant table over named basis symbols.

    table[i][j] is the product [b_i, b_j]. Equality compares dimension,
    parameters, basis names and every product; the display name is ignored.
    """

    name: str = field(compare=False)
    dim: int
    params: tuple[str, ...]
    basis: tuple[str, ...]
    table: tuple[tuple[Element, ...], ...]
    # built on first use by constants(); it lives and dies with the table
    _constants: Constants | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim != len(self.basis):
            raise DimensionMismatchError(f"dim {self.dim} but {len(self.basis)} basis symbols")
        if len(set(self.basis)) != len(self.basis):
            raise DimensionMismatchError("duplicate basis symbols")
        if len(set(self.params)) != len(self.params):
            raise DimensionMismatchError("duplicate parameter names")
        clash = set(self.params) & set(self.basis)
        if clash:
            raise DimensionMismatchError(f"parameters clash with basis symbols: {sorted(clash)}")
        allowed = set(self.params)
        if len(self.table) != self.dim:
            raise DimensionMismatchError("table has wrong number of rows")
        for row in self.table:
            if len(row) != self.dim:
                raise DimensionMismatchError("table has wrong number of columns")
            for entry in row:
                if entry.dim != self.dim:
                    raise DimensionMismatchError("table entry has wrong dimension")
                for poly in entry.coords:
                    for mono in poly.terms:
                        if mono and not allowed.issuperset(name for name, _ in mono):
                            extra = poly.parameters() - allowed
                            raise DimensionMismatchError(
                                f"undeclared parameters in table entry: {sorted(extra)}"
                            )

    @classmethod
    def from_products(
        cls,
        name: str,
        basis: Sequence[str],
        products: Mapping[tuple[str, str], Mapping[str, Coeffish]],
        params: Sequence[str] = (),
    ) -> "AlgebraTable":
        """Build a table from a sparse product dictionary; the rest is zero."""
        basis = tuple(basis)
        index = {b: i for i, b in enumerate(basis)}
        dim = len(basis)
        rows: list[list[Element]] = [[zero_element(dim)] * dim for _ in range(dim)]
        for (left, right), coords in products.items():
            for symbol in (left, right):
                if symbol not in index:
                    raise DimensionMismatchError(f"unknown basis symbol {symbol!r} in a product key")
            vec = [ZERO] * dim
            for symbol, coeff in coords.items():
                if symbol not in index:
                    raise DimensionMismatchError(
                        f"unknown basis symbol {symbol!r} in [{left},{right}]"
                    )
                vec[index[symbol]] = vec[index[symbol]] + as_poly(coeff)
            rows[index[left]][index[right]] = Element(tuple(vec))
        return cls(name, dim, tuple(params), basis, tuple(tuple(r) for r in rows))

    # -- element plumbing ---------------------------------------------------

    def index(self, symbol: str) -> int:
        try:
            return self.basis.index(symbol)
        except ValueError:
            raise DimensionMismatchError(f"unknown basis symbol {symbol!r}") from None

    def basis_element(self, which: Union[int, str]) -> Element:
        i = which if isinstance(which, int) else self.index(which)
        return Element(tuple(ONE if j == i else ZERO for j in range(self.dim)))

    def element(self, coords: Mapping[str, Coeffish]) -> Element:
        vec = [ZERO] * self.dim
        for symbol, coeff in coords.items():
            vec[self.index(symbol)] = vec[self.index(symbol)] + as_poly(coeff)
        return Element(tuple(vec))

    def zero(self) -> Element:
        return zero_element(self.dim)

    def entry(self, i: int, j: int) -> Element:
        return self.table[i][j]

    def format_element(self, el: Element) -> str:
        return format_element(el, self.basis)

    def is_parametric(self) -> bool:
        # validation admits only declared parameters, so without any the table is constant
        return bool(self.params) and any(
            not poly.is_constant() for row in self.table for entry in row for poly in entry.coords
        )

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> "AlgebraTable":
        """Substitute every parameter, producing a constant table."""
        for p in self.params:
            if p not in assignment:
                raise MissingParameterError(f"no value for parameter {p}")
        new_rows = tuple(
            tuple(
                Element(tuple(Poly.const(poly.evaluate(assignment)) for poly in entry.coords))
                for entry in row
            )
            for row in self.table
        )
        return AlgebraTable(self.name, self.dim, (), self.basis, new_rows)

    # -- bracket and residuals ----------------------------------------------

    def bracket(self, u: Element, v: Element) -> Element:
        """Bilinear extension of the table to arbitrary elements."""
        if u.dim != self.dim or v.dim != self.dim:
            raise DimensionMismatchError("element dimension does not match the table")
        acc = [ZERO] * self.dim
        for i, cu in enumerate(u.coords):
            if not cu:
                continue
            for j, cv in enumerate(v.coords):
                if not cv:
                    continue
                entry = self.table[i][j]
                scale = cu * cv
                for k, ck in enumerate(entry.coords):
                    if ck:
                        acc[k] = acc[k] + scale * ck
        return Element(tuple(acc))

    def scaled_rows(self) -> tuple[int, ScaledRows]:
        """(D, rows): D is the lcm of every coefficient denominator in the
        table and rows[i][j] lists the nonzero (k, {monomial: integer})
        coordinates of D*[b_i, b_j]. Built afresh on every call."""
        d = lcm(*{
            c.denominator
            for row in self.table
            for entry in row
            for poly in entry.coords
            for c in poly.terms.values()
        })
        rows = [
            [
                [
                    (k, {mono: c.numerator * (d // c.denominator) for mono, c in poly.terms.items()})
                    for k, poly in enumerate(entry.coords)
                    if poly
                ]
                for entry in row
            ]
            for row in self.table
        ]
        return d, rows

    def residual(self, i: int, j: int, k: int) -> Element:
        """r(b_i, b_j, b_k) = [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] + [[b_i,b_k],b_j]."""
        d, rows = self.scaled_rows()
        coords = [ZERO] * self.dim
        for m, terms in scaled_residual(rows, i, j, k).items():
            coords[m] = Poly({mono: Fraction(c, d * d) for mono, c in terms.items()})
        return Element(tuple(coords))

    def constants(self) -> Constants:
        """Sparse structure constants, built on the first call and kept.

        constants()[i][j] lists the nonzero (k, c) with [b_i, b_j] having
        coefficient c at b_k. Raises ParametricError for a parametric table.
        """
        if self._constants is None:
            try:
                built = [
                    [
                        [(k, c.constant_value()) for k, c in enumerate(entry.coords) if c]
                        for entry in row
                    ]
                    for row in self.table
                ]
            except MissingParameterError:
                raise ParametricError(
                    "table has parametric entries; use constraint extraction "
                    "(extract_constraints / the constraints command) instead"
                ) from None
            object.__setattr__(self, "_constants", built)
        return self._constants

    def sparse_bracket(self, u: SparseVec, v: SparseVec) -> SparseVec:
        """[u, v] for sparse constant vectors, through constants()."""
        rows = self.constants()
        acc: SparseVec = {}
        for i, a in u.items():
            row_i = rows[i]
            for j, b in v.items():
                entry = row_i[j]
                if entry:
                    s = a * b
                    for k, c in entry:
                        acc[k] = acc.get(k, _F0) + s * c
        return {k: x for k, x in acc.items() if x}

    def check_leibniz(self) -> Verdict:
        """PASS iff every residual over basis triples vanishes. Constants only."""
        rows = self.constants()
        dim = self.dim
        for i in range(dim):
            row_i = rows[i]
            for j in range(dim):
                ij = row_i[j]
                row_j = rows[j]
                for k in range(dim):
                    jk = row_j[k]
                    ik = row_i[k]
                    if not jk and not ij and not ik:
                        continue
                    acc: dict[int, Fraction] = {}
                    for l, c in jk:
                        for m, d in row_i[l]:
                            acc[m] = acc.get(m, _F0) + c * d
                    for l, c in ij:
                        for m, d in rows[l][k]:
                            acc[m] = acc.get(m, _F0) - c * d
                    for l, c in ik:
                        for m, d in rows[l][j]:
                            acc[m] = acc.get(m, _F0) + c * d
                    if any(acc.values()):
                        return Verdict(
                            FAIL,
                            witness=(self.basis[i], self.basis[j], self.basis[k]),
                            residual=self.residual(i, j, k),
                            detail="Leibniz identity fails",
                        )
        return Verdict(PASS)

    def check_lie(self) -> Verdict:
        """PASS iff the table is antisymmetric and satisfies Jacobi."""
        rows = self.constants()
        dim = self.dim
        for i in range(dim):
            for j in range(i, dim):
                acc: dict[int, Fraction] = {}
                for k, c in rows[i][j]:
                    acc[k] = acc.get(k, _F0) + c
                for k, c in rows[j][i]:
                    acc[k] = acc.get(k, _F0) + c
                if any(acc.values()):
                    el = self.table[i][j] + self.table[j][i]
                    return Verdict(
                        FAIL,
                        witness=(self.basis[i], self.basis[j]),
                        residual=el,
                        detail="antisymmetry fails",
                    )
        # Jacobi: [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
        for i in range(dim):
            for j in range(dim):
                ij = rows[i][j]
                for k in range(dim):
                    jk = rows[j][k]
                    ki = rows[k][i]
                    if not ij and not jk and not ki:
                        continue
                    acc = {}
                    for l, c in ij:
                        for m, d in rows[l][k]:
                            acc[m] = acc.get(m, _F0) + c * d
                    for l, c in jk:
                        for m, d in rows[l][i]:
                            acc[m] = acc.get(m, _F0) + c * d
                    for l, c in ki:
                        for m, d in rows[l][j]:
                            acc[m] = acc.get(m, _F0) + c * d
                    if any(acc.values()):
                        # on an antisymmetric table the Jacobi sum is -r(b_i, b_j, b_k)
                        return Verdict(
                            FAIL,
                            witness=(self.basis[i], self.basis[j], self.basis[k]),
                            residual=-self.residual(i, j, k),
                            detail="Jacobi identity fails",
                        )
        return Verdict(PASS)

    # -- operators, ideals, quotients ----------------------------------------

    def right_mult_matrix(self, a: Element) -> Matrix:
        """Matrix of v -> [v, a] on coordinate columns; column j is [b_j, a]."""
        images = [self.bracket(self.basis_element(j), a) for j in range(self.dim)]
        return tuple(
            tuple(images[j].coords[i] for j in range(self.dim)) for i in range(self.dim)
        )

    def product_span(self, left: Subspace, right: Subspace) -> Subspace:
        """span{ [u, v] : u in left, v in right }, computed on echelon rows."""
        ech = Echelon(self.dim)
        rights = [sparse(r) for r in right.rows]
        for row in left.rows:
            u = sparse(row)
            for v in rights:
                w = self.sparse_bracket(u, v)
                if w:
                    ech.add(w)
        return ech.subspace()

    def _basis_brackets(self, v: SparseVec) -> Iterator[tuple[str, int, SparseVec]]:
        """("right", j, [v, b_j]) then ("left", j, [b_j, v]), for j in order."""
        for j in range(self.dim):
            unit = {j: _F1}
            yield "right", j, self.sparse_bracket(v, unit)
            yield "left", j, self.sparse_bracket(unit, v)

    def ideal_closure(self, seed: Subspace) -> Subspace:
        """Smallest two-sided ideal containing the seed subspace.

        A worklist closure: every row the echelon gains is bracketed with
        each basis vector on both sides exactly once.
        """
        if seed.ambient != self.dim:
            raise DimensionMismatchError("seed lives in the wrong ambient dimension")
        ech = Echelon(self.dim)
        pending = [row for row in map(ech.add, map(sparse, seed.rows)) if row is not None]
        while pending and ech.rank < self.dim:
            for _, _, w in self._basis_brackets(pending.pop()):
                if w:
                    row = ech.add(w)
                    if row is not None:
                        pending.append(row)
        return ech.subspace()

    def squares_ideal(self) -> Subspace:
        """Ideal generated by all squares, seeded with the polarized products."""
        rows = self.constants()
        seed = Echelon(self.dim)
        for i in range(self.dim):
            seed.add(rows[i][i])
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                acc = dict(rows[i][j])
                for k, c in rows[j][i]:
                    acc[k] = acc.get(k, _F0) + c
                seed.add({k: c for k, c in acc.items() if c})
        return self.ideal_closure(seed.subspace())

    def verify_ideal(self, sub: Subspace) -> None:
        """Raise NotAnIdealError naming a violating product if sub is not an ideal."""
        ech = Echelon.of(sub)
        for row in sub.rows:
            for side, j, w in self._basis_brackets(sparse(row)):
                if ech.reduce(w):
                    el = self.format_element(element_from(row))
                    pair = f"{el}, {self.basis[j]}" if side == "right" else f"{self.basis[j]}, {el}"
                    raise NotAnIdealError(f"[{pair}] leaves the subspace")

    def quotient_by(self, sub: Subspace) -> tuple["AlgebraTable", QuotientMap]:
        """Quotient table on the non-pivot coordinates, plus the projection."""
        if self.is_parametric():
            raise ParametricError("quotient requires a constant table")
        if sub.ambient != self.dim:
            raise DimensionMismatchError("subspace lives in the wrong ambient dimension")
        self.verify_ideal(sub)
        kept = sub.complement_indices()
        proj = QuotientMap(sub, kept)
        new_basis = tuple(self.basis[i] for i in kept)
        ech = Echelon.of(sub)
        rows = self.constants()
        table = tuple(
            tuple(sparse_element(ech.reduce(rows[p][q]), kept) for q in kept) for p in kept
        )
        quotient = AlgebraTable(f"{self.name}_mod_I", len(kept), (), new_basis, table)
        return quotient, proj

    # -- invariants -----------------------------------------------------------

    def _center_dim(self, side: str) -> int:
        """dim{ z : [z, L] = 0 } (left) or dim{ z : [L, z] = 0 } (right)."""
        rows = self.constants()
        # constraint rows in the unknowns z_0..z_{dim-1}: for each companion
        # b_j and each output coordinate k, sum_i z_i coeff_k([b_i, b_j]) = 0
        ech = Echelon(self.dim)
        for j in range(self.dim):
            per_coord: dict[int, SparseVec] = {}
            for i in range(self.dim):
                entry = rows[i][j] if side == "left" else rows[j][i]
                for k, c in entry:
                    per_coord.setdefault(k, {})[i] = c
            for vec in per_coord.values():
                ech.add(vec)
        return self.dim - ech.rank

    def invariant_profile(self) -> InvariantProfile:
        """Derived and lower central series dims, centers, squares ideal."""
        full = Subspace.full(self.dim)
        square = self.product_span(full, full)  # [L, L] starts both series

        def series(step) -> tuple[int, ...]:
            dims = [self.dim]
            current, nxt = full, square
            while nxt.dim != current.dim:
                dims.append(nxt.dim)
                current, nxt = nxt, step(nxt)
            return tuple(dims)

        derived = series(lambda s: self.product_span(s, s))
        lower = series(lambda s: self.product_span(s, full))
        return InvariantProfile(
            dim=self.dim,
            derived_dim=derived[1] if len(derived) > 1 else derived[0],
            derived_series=derived,
            lower_central_series=lower,
            left_center_dim=self._center_dim("left"),
            right_center_dim=self._center_dim("right"),
            squares_ideal_dim=self.squares_ideal().dim,
        )

    def __str__(self) -> str:
        kind = "parametric" if self.params else "constant"
        return f"<AlgebraTable {self.name}: dim {self.dim}, {kind}>"

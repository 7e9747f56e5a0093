"""Subspaces: spans, ideals, quotients and invariant profiles.

Linear algebra is exact over Fraction: subspaces are reduced row echelon
forms. Every operation brackets sparse Fraction vectors {index: value}
through the table's structure constants (AlgebraTable.sparse_bracket) and
feeds one incremental echelon routine (Echelon). Ideals are closed with a
worklist: each new echelon row is bracketed with the basis once, so this
terminates after at most dim rows. The AlgebraTable methods of the same
names import this module when first called.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .core import AlgebraTable, Element, Record, SparseVec, sparse, sparse_element, symmetric_pairs
from .errors import DimensionMismatchError, NotAnIdealError, ParametricError
from .scalars import _F0, _F1, ZERO

DISTINGUISHED = "DISTINGUISHED"
INCONCLUSIVE = "INCONCLUSIVE"


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
        # copies: reduced() back-substitutes in place
        ech.rows = {p: dict(r) for r, p in zip(sub.rows, sub.pivots)}
        ech.order = list(sub.pivots)
        return ech

    @property
    def rank(self) -> int:
        return len(self.order)

    def reduce(self, vec: SparseVec | Iterable[tuple[int, Fraction]]) -> SparseVec:
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

    def add(self, vec: SparseVec | Iterable[tuple[int, Fraction]]) -> SparseVec | None:
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
        return Subspace(self.ambient, tuple(dict(sorted(rows[p].items())) for p in self.order), tuple(self.order))


class Subspace(Record):
    """A subspace of F^ambient in reduced row echelon form: rows[r] is the
    sparse row {column: nonzero value}, columns ascending, with pivot pivots[r]."""

    __slots__ = ("ambient", "rows", "pivots")

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(frozenset(r.items()) for r in self.rows), self.pivots))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, (), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple({i: _F1} for i in range(ambient)), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, coords: Sequence[Fraction]) -> bool:
        return not Echelon.of(self).reduce(sparse(coords))

    def as_elements(self) -> tuple[Element, ...]:
        return tuple(sparse_element(self.ambient, r) for r in self.rows)

    def complement_indices(self) -> tuple[int, ...]:
        used = set(self.pivots)
        return tuple(i for i in range(self.ambient) if i not in used)


def span(vectors: Iterable[Element | Sequence[Fraction]], ambient: int | None = None) -> Subspace:
    """Row space of the given vectors as a canonical Subspace (reduced row echelon form)."""
    rows: list[tuple[int, SparseVec]] = []  # (length, nonzero coordinates)
    for v in vectors:
        if isinstance(v, Element):
            if not v.is_constant():
                raise ParametricError("span requires constant coordinates")
            rows.append((v.dim, {k: c.constant_value() for k, c in v.nonzero.items()}))
        else:
            rows.append((len(v), sparse(v)))
    if ambient is None:
        if not rows:
            raise DimensionMismatchError("span of no vectors needs an explicit ambient dimension")
        ambient = rows[0][0]
    ech = Echelon(ambient)
    for n, r in rows:
        if n != ambient:
            raise DimensionMismatchError(f"vector of length {n} in ambient dimension {ambient}")
        ech.add(r)
    return ech.subspace()


class InvariantProfile(Record):
    """Basis-independent dimensions used to tell tables apart."""

    __slots__ = (
        "dim",
        "derived_dim",
        "derived_series",
        "lower_central_series",
        "left_center_dim",
        "right_center_dim",
        "squares_ideal_dim",
    )

    def as_dict(self) -> dict[str, object]:
        return {f: getattr(self, f) for f in self.__slots__}


class QuotientMap(Record):
    """Coordinate projection onto the quotient by an ideal.

    Kept coordinates are the non-pivot columns of the ideal's echelon form;
    an element is projected by reducing against the ideal rows and reading
    off the kept coordinates.
    """

    __slots__ = ("ideal", "kept")

    def __call__(self, el: Element) -> Element:
        coords = dict(el.nonzero)
        for row, p in zip(self.ideal.rows, self.ideal.pivots):
            c = coords.get(p)
            if c:
                for k, x in row.items():
                    coords[k] = coords.get(k, ZERO) - c * x
        return Element.of(len(self.kept), {r: coords.get(i, ZERO) for r, i in enumerate(self.kept)})


class ProfileReport(Record):
    """Outcome of comparing two invariant profiles."""

    __slots__ = ("status", "left", "right", "separating")

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


# ---------------------------------------------------------------------------
# the bodies of AlgebraTable's subspace methods; each takes the table first


def _nonzero_span(ambient: int, vectors: Iterable[SparseVec | Iterable[tuple[int, Fraction]]]) -> Subspace:
    """The span of the nonzero sparse vectors among vectors."""
    ech = Echelon(ambient)
    for w in vectors:
        if w:
            ech.add(w)
    return ech.subspace()


def product_span(t: AlgebraTable, left: Subspace, right: Subspace | None = None) -> Subspace:
    """span{ [u, v] : u in left, v in right }, computed on echelon rows;
    right None is all of L, spanned by the unit vectors {j: 1}."""
    rights = [{j: _F1} for j in range(t.dim)] if right is None else right.rows
    return _nonzero_span(t.dim, (t.sparse_bracket(u, v) for u in left.rows for v in rights))


def _basis_brackets(t: AlgebraTable, v: SparseVec) -> Iterator[tuple[str, int, SparseVec]]:
    """("right", j, [v, b_j]) then ("left", j, [b_j, v]), for j in order."""
    for j in range(t.dim):
        unit = {j: _F1}
        yield "right", j, t.sparse_bracket(v, unit)
        yield "left", j, t.sparse_bracket(unit, v)


def ideal_closure(t: AlgebraTable, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed subspace.

    A worklist closure: every row the echelon gains is bracketed with
    each basis vector on both sides exactly once.
    """
    if seed.ambient != t.dim:
        raise DimensionMismatchError("seed lives in the wrong ambient dimension")
    ech = Echelon(t.dim)
    pending = [row for row in map(ech.add, seed.rows) if row is not None]
    while pending and ech.rank < t.dim:
        for _, _, w in _basis_brackets(t, pending.pop()):
            if w:
                row = ech.add(w)
                if row is not None:
                    pending.append(row)
    return ech.subspace()


def squares_ideal(t: AlgebraTable) -> Subspace:
    """Ideal generated by all squares, seeded with the polarized products."""
    rows = t.constants()
    seed = Echelon(t.dim)
    for i, j in symmetric_pairs(rows):
        acc = dict(rows[i].get(j, ()))
        if i != j:
            for k, c in rows[j].get(i, ()):
                acc[k] = acc.get(k, _F0) + c
        seed.add({k: c for k, c in acc.items() if c})
    return t.ideal_closure(seed.subspace())


def verify_ideal(t: AlgebraTable, sub: Subspace) -> None:
    """Raise NotAnIdealError naming a violating product if sub is not an ideal."""
    ech = Echelon.of(sub)
    for row in sub.rows:
        for side, j, w in _basis_brackets(t, row):
            if w and ech.reduce(w):
                el = t.format_element(sparse_element(sub.ambient, row))
                pair = f"{el}, {t.basis[j]}" if side == "right" else f"{t.basis[j]}, {el}"
                raise NotAnIdealError(f"[{pair}] leaves the subspace")


def quotient_by(t: AlgebraTable, sub: Subspace) -> tuple[AlgebraTable, QuotientMap]:
    """Quotient table on the non-pivot coordinates, plus the projection."""
    if t.is_parametric():
        raise ParametricError("quotient requires a constant table")
    if sub.ambient != t.dim:
        raise DimensionMismatchError("subspace lives in the wrong ambient dimension")
    t.verify_ideal(sub)
    kept = sub.complement_indices()
    proj = QuotientMap(sub, kept)
    new_basis = tuple(t.basis[i] for i in kept)
    ech = Echelon.of(sub)
    rows = t.constants()
    # a reduced vector is zero at every pivot, so its support lies in kept
    new_index = {i: r for r, i in enumerate(kept)}
    table = [
        {
            new_index[q]: sparse_element(len(kept), {new_index[k]: x for k, x in ech.reduce(entry).items()})
            for q, entry in rows[p].items()
            if q in new_index
        }
        for p in kept
    ]
    quotient = AlgebraTable(f"{t.name}_mod_I", len(kept), (), new_basis, table)
    return quotient, proj


def center_dim(t: AlgebraTable, side: str) -> int:
    """dim{ z : [z, L] = 0 } (left) or dim{ z : [L, z] = 0 } (right)."""
    # constraint rows in the unknowns z_0..z_{dim-1}: for each companion
    # b_j and each output coordinate k, sum_i z_i coeff_k([b_i, b_j]) = 0
    # (left) or sum_i z_i coeff_k([b_j, b_i]) = 0 (right)
    per_coord: dict[tuple[int, int], SparseVec] = {}
    for p, row in enumerate(t.constants()):
        for q, entry in row.items():
            i, j = (p, q) if side == "left" else (q, p)
            for k, c in entry:
                per_coord.setdefault((j, k), {})[i] = c
    ech = Echelon(t.dim)
    for vec in per_coord.values():
        ech.add(vec)
    return t.dim - ech.rank


def invariant_profile(t: AlgebraTable) -> InvariantProfile:
    """Derived and lower central series dims, centers, squares ideal."""
    # [L, L] starts both series; it is the span of the stored products [b_i, b_j]
    square = _nonzero_span(t.dim, (entry for row in t.constants() for entry in row.values()))

    def series(step) -> tuple[int, ...]:
        dims, nxt = [t.dim], square
        while nxt.dim != dims[-1]:
            dims.append(nxt.dim)
            nxt = step(nxt)
        return tuple(dims)

    derived = series(lambda s: t.product_span(s, s))
    lower = series(t.product_span)
    return InvariantProfile(
        dim=t.dim,
        derived_dim=derived[1] if len(derived) > 1 else derived[0],
        derived_series=derived,
        lower_central_series=lower,
        left_center_dim=center_dim(t, "left"),
        right_center_dim=center_dim(t, "right"),
        squares_ideal_dim=t.squares_ideal().dim,
    )

"""Subspaces: spans, ideals, quotients and invariant profiles.

Linear algebra is exact over Fraction. Subspaces are sparse reduced row
echelon forms from one incremental routine (Echelon); every bracket is
core.bilinear, which visits only the stored products that meet the
vectors' supports. Each record holds only what it cannot derive: a
Subspace is its rows (the pivots are read from them), a QuotientMap its
ideal (the kept coordinates are the complement of the pivots) and a
ProfileReport the invariants that differ. QuotientMap is the one
reduction modulo an ideal; quotient_by projects the stored products
through it. One walk closes ideals, entered from Echelon.of of the seed:
each row the echelon gains is bracketed with the basis once on each
side, and an ideal check fails at the first bracket the walk adds.
The AlgebraTable methods of the same names import this module on first call.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .core import AlgebraTable, Element, Record, SparseVec, bilinear, sparse, sparse_element, symmetric_pairs, transpose
from .errors import AlgebraError, DimensionMismatchError, NotAnIdealError, ParametricError
from .scalars import _F0, _F1, Coeffish

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

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict[int, SparseVec] = {}  # pivot column -> its row

    @classmethod
    def of(cls, sub: "Subspace") -> "Echelon":
        ech = cls(sub.ambient)
        # copies: reduced() back-substitutes in place
        ech.rows = {p: dict(r) for r, p in zip(sub.rows, sub.pivots)}
        return ech

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: SparseVec | Iterable[tuple[int, Fraction]]) -> SparseVec:
        """What is left of vec after clearing every pivot column.

        vec holds nonzero Fraction or Poly values. The pivots in its support
        are cleared in ascending order, from a heap: a row touches no column
        left of its pivot, so no cleared column fills in again, and a pivot
        column that fills in is pushed. vec reduces to {} iff it is in the span.
        """
        v = dict(vec)
        rows = self.rows
        heap = [k for k in v if k in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = v.get(p)
            if c:  # else cancelled, or pushed twice
                row = rows[p]
                for k in row:
                    if k not in v and k in rows:
                        heappush(heap, k)
                _subtract(v, c, row)
        return v

    def add(self, vec: SparseVec | Iterable[tuple[int, Fraction]]) -> SparseVec | None:
        """Insert vec; returns its new row, or None when vec is dependent."""
        if len(self.rows) == self.ambient:
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
        return v

    def reduced(self) -> dict[int, SparseVec]:
        """Back-substitute in place; every row then has zeros at other pivots."""
        done: dict[int, SparseVec] = {}
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            for q in [q for q in row if q in done]:
                _subtract(row, row[q], done[q])
            done[p] = row
        return self.rows

    def subspace(self) -> "Subspace":
        rows = self.reduced()
        return Subspace(self.ambient, tuple(dict(sorted(rows[p].items())) for p in sorted(rows)))


class Subspace(Record):
    """A subspace of F^ambient in reduced row echelon form: rows[r] is the
    sparse row {column: nonzero value}, columns ascending, with pivot pivots[r]."""

    __slots__ = ("ambient", "rows")

    def __init__(self, *args: object, **kwargs: object) -> None:
        """Refuses, with AlgebraError, rows not in reduced row echelon form: a
        row that is empty, does not lead with 1, holds a column outside
        range(ambient) or is nonzero at another row's pivot, or pivots out of
        ascending order."""
        Record.__init__(self, *args, **kwargs)
        if not all(self.rows):
            raise AlgebraError("a subspace row is empty")
        pivots = self.pivots
        taken = set(pivots)
        for r, (row, p) in enumerate(zip(self.rows, pivots)):
            if (row[p] != 1 or p < 0 or max(row) >= self.ambient or (r and pivots[r - 1] >= p)
                    or any(k in taken for k in row if k != p)):
                raise AlgebraError(f"subspace row {r} is not a reduced echelon row: {row}")

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(frozenset(r.items()) for r in self.rows)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Each row's first (least) column."""
        return tuple(min(r) for r in self.rows)

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
    for n, _ in rows:
        if n != ambient:
            raise DimensionMismatchError(f"vector of length {n} in ambient dimension {ambient}")
    return _nonzero_span(ambient, (r for _, r in rows))


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
    """Coordinate projection onto the quotient by an ideal: the package's one
    reduction modulo an ideal. Echelon.reduce clears the ideal's pivots from
    the element's Fraction or Poly coordinates, following its support, so
    what is left lies on the kept (non-pivot) coordinates, the complement of
    the pivots. The ideal's echelon and the index of the kept coordinates
    are built with the map; like AlgebraTable._constants they take no part
    in equality, hash or repr."""

    __slots__ = ("ideal", "kept", "_echelon", "_index")
    _compare = ("ideal",)

    def __init__(self, ideal: Subspace):
        kept = ideal.complement_indices()
        Record.__init__(self, ideal, kept, Echelon.of(ideal), {i: r for r, i in enumerate(kept)})

    def __call__(self, el: Element) -> Element:
        if el.dim != self.ideal.ambient:
            raise DimensionMismatchError(f"element of dimension {el.dim} projected from dimension {self.ideal.ambient}")
        return Element.of(len(self.kept), self.reduce(el.nonzero))

    def reduce(self, vec: Mapping[int, Coeffish] | Iterable[tuple[int, Coeffish]]) -> dict[int, Coeffish]:
        """The nonzero coordinates of vec's image, a mapping or (k, value)
        pairs over the ambient basis, numbered as in the quotient."""
        index = self._index
        return {index[k]: c for k, c in self._echelon.reduce(vec).items()}


class ProfileReport(Record):
    """Outcome of comparing two invariant profiles: the invariants that differ."""

    __slots__ = ("separating",)

    @property
    def status(self) -> str:
        return DISTINGUISHED if self.separating else INCONCLUSIVE

    @property
    def distinguished(self) -> bool:
        return bool(self.separating)

    @classmethod
    def compare(cls, p1: InvariantProfile, p2: InvariantProfile) -> "ProfileReport":
        """DISTINGUISHED when any invariant differs, else INCONCLUSIVE.

        INCONCLUSIVE never claims the tables are isomorphic; it only says the
        computed invariants cannot tell them apart.
        """
        d1, d2 = p1.as_dict(), p2.as_dict()
        return cls(tuple(k for k in d1 if d1[k] != d2[k]))


# ---------------------------------------------------------------------------
# the bodies of AlgebraTable's subspace methods; each takes the table first


def _nonzero_span(ambient: int, vectors: Iterable[SparseVec | Iterable[tuple[int, Fraction]]]) -> Subspace:
    """The span of sparse vectors, each with no zero value."""
    ech = Echelon(ambient)
    for w in vectors:
        ech.add(w)
    return ech.subspace()


def product_span(t: AlgebraTable, left: Subspace, right: Subspace | None = None) -> Subspace:
    """span{ [u, v] : u in left, v in right }, computed on echelon rows, one
    left row at a time so that only its brackets are held; right None is all
    of L, whose unit vectors {j: 1} are their own columns."""
    for side, sub in (("left", left), ("right", right)):
        if sub is not None and sub.ambient != t.dim:
            raise DimensionMismatchError(f"{side} subspace in ambient dimension {sub.ambient}, not {t.dim}")
    cols = [{j: _F1} for j in range(t.dim)] if right is None else transpose(right.rows, t.dim)
    return _nonzero_span(t.dim, (w for u in left.rows for w in bilinear(t.constants(), [u], cols).values()))


def _closure_walk(t: AlgebraTable, ech: Echelon, queue: list[SparseVec]) -> Iterator[tuple[SparseVec, int, int]]:
    """Close ech into an ideal, yielding (row, j, side) for each bracket
    [row, b_j] (side 0) or [b_j, row] (side 1) it gains: queued rows first
    in, first out, each gained row queued, j ascending and side 0 first."""
    if ech.ambient != t.dim:
        raise DimensionMismatchError(f"subspace in ambient dimension {ech.ambient}, not {t.dim}")
    if not queue or ech.rank == t.dim:
        return  # nothing to add, and no constants to read
    rows, units = t.constants(), [{j: _F1} for j in range(t.dim)]
    sides = (rows, transpose(rows, t.dim))
    for row in queue:  # the loop also reaches the rows appended below
        for j, side, w in sorted((j, side, w) for side, products in enumerate(sides)
                                 for (_, j), w in bilinear(products, [row], units).items()):
            new = ech.add(w)
            if new is not None:
                queue.append(new)
                yield row, j, side
                if ech.rank == t.dim:
                    return


def ideal_closure(t: AlgebraTable, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed subspace."""
    ech = Echelon.of(seed)
    for _ in _closure_walk(t, ech, list(seed.rows)):
        pass
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
    """Raise NotAnIdealError naming the first product that the closure of sub
    would add: rows in order, j ascending, [v, b_j] before [b_j, v]."""
    for row, j, side in _closure_walk(t, Echelon.of(sub), list(sub.rows)):
        el = t.format_element(sparse_element(sub.ambient, row))
        pair = f"{t.basis[j]}, {el}" if side else f"{el}, {t.basis[j]}"
        raise NotAnIdealError(f"[{pair}] leaves the subspace")


def quotient_by(t: AlgebraTable, sub: Subspace) -> tuple[AlgebraTable, QuotientMap]:
    """Quotient table on the non-pivot coordinates, plus the projection."""
    if t.is_parametric():
        raise ParametricError("quotient requires a constant table")
    t.verify_ideal(sub)
    proj = QuotientMap(sub)
    index = proj._index
    # the quotient's bracket is p([b_p, b_q]) for the kept p and q
    table = [{index[q]: proj.reduce(entry) for q, entry in t.rows[p].items() if q in index} for p in proj.kept]
    return AlgebraTable(f"{t.name}_mod_I", (), tuple(t.basis[i] for i in proj.kept), table), proj


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

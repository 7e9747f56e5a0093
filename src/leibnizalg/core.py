"""Structure-constant tables, bracket arithmetic and the identity checks.

A finite-dimensional algebra is a table of products [b_i, b_j], each an
Element (its nonzero Poly coordinates over the basis). AlgebraTable holds
only the nonzero products, in rows: rows[i] maps j to [b_i, b_j], in
ascending j, and entry(i, j) reads any product, zero or not. Every builder
fills rows and every reader walks them, so work follows the stored
products, not dim^2. The residual

    r(x, y, z) = [x, [y, z]] - [[x, y], z] + [[x, z], y]

vanishes for all basis triples exactly when the table satisfies the
(right) Leibniz identity; a Lie table additionally has [x, y] = -[y, x].
There is one residual kernel, for constant and parametric tables alike:
scale_table (AlgebraTable.scaled_rows) multiplies every entry by the lcm D
of the table's denominators and packs each monomial into one int
(scalars.mono_packing), and pair_residual returns D^2 times the operator
r(., b_j, b_k) = R_[b_j,b_k] - R_k.R_j + R_j.R_k (R_y x = [x, y]), adding
ints for monomial products, with no Fraction or Poly arithmetic. The
identity checks, residual, extract_constraints in analysis and the module
check of make_dzhumadildaev in constructions all run on it, over the pairs
(j, k) whose residual can be nonzero (residual_pairs).

Constant tables have one more representation, their sparse Fraction
structure constants (AlgebraTable.constants), keyed like rows and built
once per table. bilinear is the one bracket of vectors: it sums every
[l_p, r_q] of two families from the stored products alone, over Fraction
or Poly, and the basis change, product spans and ideal checks all run on
it. Subspaces, ideals, quotients and invariant profiles are in spaces,
which the AlgebraTable methods of those names import when first called;
basis changes are in basis. So `check` and `constraints` compile neither.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import product
from math import lcm
from operator import attrgetter

from .errors import DimensionMismatchError, MissingParameterError, ParametricError
from .scalars import ONE, ZERO, Coeffish, Mono, Poly, as_poly, format_term, mono_packing, _join_terms

# a sparse matrix row {column: nonzero scalar}, the scalars Fraction or Poly
Row = Mapping[int, Coeffish]
# a constant vector {coordinate: nonzero value}; absent coordinates are zero
SparseVec = dict[int, Fraction]
# constants()[i][j], for the j with [b_i, b_j] != 0, lists its nonzero (k, coefficient) pairs
Constants = list[dict[int, list[tuple[int, Fraction]]]]
# scaled_rows()[1][i][j], for the same j, lists the nonzero (k, {packed monomial: integer}) of D*[b_i, b_j]
ScaledRows = list[dict[int, list[tuple[int, dict[int, int]]]]]
Scaled = tuple[int, ScaledRows, Callable[[int], Mono]]  # (D, rows, unpack) of scale_table

PASS = "PASS"
FAIL = "FAIL"

_set = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    The constructor fills __slots__ in order: from the positional
    arguments, then by keyword, then from the class's _defaults; an
    unknown, repeated or missing argument raises TypeError. Later
    assignment raises AttributeError. Equality and hash go over the slots
    named in _compare (default: all of them), repr over the public slots.
    """

    __slots__ = ()
    _compare: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        # a plain attrgetter, not a method: called as self._key(self)
        cls._key = attrgetter(*(cls._compare or cls.__slots__))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} arguments but {len(args)} were given")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif name in self._defaults:
                _set(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__} missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated arguments {sorted(kwargs)}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__name__}({fields})"


class Element(Record):
    """A vector in the algebra: its dimension and its nonzero Poly coordinates.

    nonzero maps coordinate index -> Poly in ascending index order and holds
    no zero value, so work on an element is proportional to its support.
    Element(coords) takes a dense sequence; coords is the dense view, built
    on each read.
    """

    __slots__ = ("dim", "nonzero")

    def __init__(self, coords: Sequence[Poly]):
        _set(self, "dim", len(coords))  # not Record.__init__: it takes dense coords; hot loops use Element.of
        _set(self, "nonzero", {i: c for i, c in enumerate(coords) if c})

    @classmethod
    def of(cls, dim: int, nonzero: Mapping[int, Poly]) -> "Element":
        """The element of dimension dim with these coordinates, sorted, zero values dropped."""
        el = object.__new__(cls)
        _set(el, "dim", dim)
        _set(el, "nonzero", {k: nonzero[k] for k in sorted(nonzero) if nonzero[k]})
        return el

    @property
    def coords(self) -> tuple[Poly, ...]:
        get = self.nonzero.get
        return tuple(get(i, ZERO) for i in range(self.dim))

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.nonzero.items())))

    def is_zero(self) -> bool:
        return not self.nonzero

    def is_constant(self) -> bool:
        return all(c.is_constant() for c in self.nonzero.values())

    def __add__(self, other: "Element") -> "Element":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"element dimensions differ: {self.dim} vs {other.dim}")
        acc = dict(self.nonzero)
        for k, c in other.nonzero.items():
            acc[k] = acc[k] + c if k in acc else c
        return Element.of(self.dim, acc)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return Element.of(self.dim, {k: -c for k, c in self.nonzero.items()})

    def __rmul__(self, scalar: Coeffish) -> "Element":
        s = as_poly(scalar)
        return Element.of(self.dim, {k: s * c for k, c in self.nonzero.items()})

    __mul__ = __rmul__


def zero_element(dim: int) -> Element:
    return Element.of(dim, {})


def element_from(coords: Sequence[Coeffish]) -> Element:
    return Element(tuple(as_poly(c) for c in coords))


def format_element(el: Element, basis: Sequence[str]) -> str:
    """Canonical text for an element: coordinate-major, terms ascending."""
    parts: list[tuple[int, str]] = []
    for i, poly in el.nonzero.items():
        for mono, coeff in poly.sorted_terms():
            parts.append(format_term(coeff, mono, basis[i]))
    return _join_terms(parts)


def sparse(coords: Sequence[Fraction]) -> SparseVec:
    """The nonzero coordinates of a dense vector."""
    return {k: c for k, c in enumerate(coords) if c}


def sparse_element(dim: int, vec: SparseVec) -> Element:
    """The Element with the coordinates of a constant sparse vector."""
    return Element.of(dim, {k: Poly.const(x) for k, x in vec.items()})


def scale_table(rows: Sequence[Mapping[int, Element]], params: Iterable[str]) -> Scaled:
    """(D, scaled, unpack): D is the lcm of every coefficient denominator in
    the table rows (AlgebraTable.rows), scaled[i] maps each j with
    [b_i, b_j] != 0 to the nonzero (k, {packed monomial: integer})
    coordinates of D*[b_i, b_j], and unpack maps a packed monomial of
    scaled, or of a product of two of their monomials, back to a Mono.
    Monomials are packed by scalars.mono_packing over params, which must
    name every parameter in the table, sized for its largest exponent."""
    polys = [poly for row in rows for entry in row.values() for poly in entry.nonzero.values()]
    d = lcm(*{c.denominator for poly in polys for c in poly.terms.values()})
    top = max((e for poly in polys for mono in poly.terms for _, e in mono), default=0)
    pack, unpack = mono_packing(params, top)
    scaled = [
        {
            j: [
                (k, {pack(mono): c.numerator * (d // c.denominator) for mono, c in poly.terms.items()})
                for k, poly in entry.nonzero.items()
            ]
            for j, entry in row.items()
        }
        for row in rows
    ]
    return d, scaled, unpack


def residual_pairs(rows: Sequence[Mapping[int, object]]) -> list[tuple[int, int]]:
    """The pairs (j, k), ascending, at which r(., b_j, b_k) can be nonzero:
    [b_j, b_k] is stored (rows[j] keyed by k), or columns j and k both hold
    a product. At any other pair every term of pair_residual is zero."""
    acting = sorted({k for row in rows for k in row})
    return sorted({(j, k) for j, row in enumerate(rows) for k in row}.union(product(acting, repeat=2)))


def pair_residual(rows: ScaledRows, cols: Sequence[Mapping[int, list]], j: int, k: int) -> dict[int, dict]:
    """{i: the nonzero coordinates of D^2*r(b_i, b_j, b_k)}, in integers on
    the scaled rows (AlgebraTable.scaled_rows), for the i whose rows cols holds.

    cols[j][i] = rows[i][j] (transpose, of all rows or of the ones wanted)
    is R_j by columns, and r(., b_j, b_k) = R_[b_j,b_k] - R_k.R_j + R_j.R_k,
    whose operator products are zero unless R_j and R_k both are not. Each
    term is a product of two entries scaled by D, and packed monomials
    multiply by adding.
    """
    acc: dict[tuple[int, int, int], int] = {}  # (i, m, packed monomial) -> integer
    for l, c in rows[j].get(k, ()):  # + [b_i, [b_j, b_k]], over the rows R_l holds
        for i, e in cols[l].items():
            for m, f in e:
                for m1, x in c.items():
                    for m2, y in f.items():
                        key = (i, m, m1 + m2)
                        acc[key] = acc.get(key, 0) + x * y
    if cols[j] and cols[k]:
        for s, a, b in ((-1, j, k), (1, k, j)):  # - [[b_i, b_j], b_k] + [[b_i, b_k], b_j]
            for i, entry in cols[a].items():
                for l, c in entry:
                    for m, f in rows[l].get(b, ()):
                        for m1, x in c.items():
                            x *= s
                            for m2, y in f.items():
                                key = (i, m, m1 + m2)
                                acc[key] = acc.get(key, 0) + x * y
    found: dict[int, dict[int, dict[int, int]]] = {}
    for (i, m, mono), x in acc.items():
        if x:
            found.setdefault(i, {}).setdefault(m, {})[mono] = x
    return found


def transpose(rows: Sequence[Mapping[int, object]], n: int) -> list[dict]:
    """The n columns of sparse rows: cols[i][j] = rows[j][i] over the stored entries."""
    cols: list[dict] = [{} for _ in range(n)]
    for j, row in enumerate(rows):
        for i, x in row.items():
            cols[i][j] = x
    return cols


def bilinear(products: Sequence[Mapping[int, Iterable]], left: Sequence[Row], right_cols: Sequence[Row]) -> dict:
    """{(p, q): [l_p, r_q]} for the sparse rows l_p of left and the vectors
    r_q given by column (right_cols[j] = {q: r_q[j]}), with zero coordinates
    and zero brackets left out. products[i] maps j to the nonzero (k, c) of
    [b_i, b_j], as constants() does, and each adds l_p[i]*r_q[j]*[b_i, b_j],
    so the work follows the stored products that meet the supports. The
    scalars may be Fraction or Poly."""
    out: dict[tuple[int, int], dict] = {}
    for p, l in enumerate(left):
        for i, x in l.items():
            for j, entry in products[i].items():
                for q, y in right_cols[j].items():
                    w = out.setdefault((p, q), {})
                    s = x * y
                    for k, c in entry:
                        w[k] = w[k] + s * c if k in w else s * c
    nonzero = ((pq, {k: x for k, x in w.items() if x}) for pq, w in out.items())
    return {pq: w for pq, w in nonzero if w}


def symmetric_pairs(rows: Sequence[Mapping[int, object]]) -> list[tuple[int, int]]:
    """The pairs (i, j) with i <= j, in lexicographic order, at which
    [b_i, b_j] or [b_j, b_i] is stored in rows (rows[i] keyed by j)."""
    return sorted({(i, j) if i <= j else (j, i) for i, row in enumerate(rows) for j in row})


# ---------------------------------------------------------------------------
# verdicts


class Verdict(Record):
    """Outcome of a PASS/FAIL check, with a witness when it fails."""

    __slots__ = ("status", "witness", "residual", "detail")
    _defaults = {"witness": None, "residual": None, "detail": ""}

    @property
    def passed(self) -> bool:
        return self.status == PASS


# ---------------------------------------------------------------------------
# the table itself


class AlgebraTable(Record):
    """A structure-constant table over named basis symbols.

    rows[i] maps each j with a nonzero product [b_i, b_j] to that product,
    in ascending j; every other product is zero, and entry(i, j) reads any
    of them. Equality compares dimension, parameters, basis names and every
    product; the display name is ignored. _constants is built on first use
    by constants() and lives and dies with the table.
    """

    __slots__ = ("name", "dim", "params", "basis", "rows", "_constants")
    _compare = ("dim", "params", "basis", "rows")

    def __init__(
        self,
        name: str,
        params: tuple[str, ...],
        basis: tuple[str, ...],
        rows: Sequence[Mapping[int, Element]],
    ):
        """rows[i] maps j to [b_i, b_j]; zero products are dropped and columns sorted.
        dim is the number of basis symbols."""
        dim = len(basis)
        if len(set(basis)) != len(basis):
            raise DimensionMismatchError("duplicate basis symbols")
        if len(set(params)) != len(params):
            raise DimensionMismatchError("duplicate parameter names")
        clash = set(params) & set(basis)
        if clash:
            raise DimensionMismatchError(f"parameters clash with basis symbols: {sorted(clash)}")
        allowed = set(params)
        if len(rows) != dim:
            raise DimensionMismatchError("table has wrong number of rows")
        columns = range(dim)
        stored = []
        for row in rows:
            kept = {}
            for j in sorted(row):
                entry = row[j]
                if j not in columns:
                    raise DimensionMismatchError(f"table has no column {j!r}")
                if entry.dim != dim:
                    raise DimensionMismatchError("table entry has wrong dimension")
                if not entry.nonzero:
                    continue
                kept[j] = entry
                for poly in entry.nonzero.values():
                    for mono in poly.terms:
                        if mono and not allowed.issuperset(name for name, _ in mono):
                            extra = poly.parameters() - allowed
                            raise DimensionMismatchError(
                                f"undeclared parameters in table entry: {sorted(extra)}"
                            )
            stored.append(kept)
        Record.__init__(self, name, dim, params, basis, tuple(stored), None)

    def __hash__(self) -> int:
        return hash((self.dim, self.params, self.basis, tuple(frozenset(row.items()) for row in self.rows)))

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
        rows: list[dict[int, Element]] = [{} for _ in basis]
        for (left, right), coords in products.items():
            for symbol in (left, right):
                if symbol not in index:
                    raise DimensionMismatchError(f"unknown basis symbol {symbol!r} in a product key")
            for symbol in coords:
                if symbol not in index:
                    raise DimensionMismatchError(f"unknown basis symbol {symbol!r} in [{left},{right}]")
            vec = {index[symbol]: as_poly(coeff) for symbol, coeff in coords.items()}
            rows[index[left]][index[right]] = Element.of(dim, vec)
        return cls(name, tuple(params), basis, rows)

    # -- element plumbing ---------------------------------------------------

    def index(self, symbol: str) -> int:
        try:
            return self.basis.index(symbol)
        except ValueError:
            raise DimensionMismatchError(f"unknown basis symbol {symbol!r}") from None

    def basis_element(self, which: int | str) -> Element:
        i = which if isinstance(which, int) else self.index(which)
        return Element.of(self.dim, {i: ONE})

    def element(self, coords: Mapping[str, Coeffish]) -> Element:
        return Element.of(self.dim, {self.index(s): as_poly(c) for s, c in coords.items()})

    def zero(self) -> Element:
        return zero_element(self.dim)

    def entry(self, i: int, j: int) -> Element:
        """The product [b_i, b_j], zero or not."""
        return self.rows[i].get(j) or zero_element(self.dim)

    def format_element(self, el: Element) -> str:
        return format_element(el, self.basis)

    def is_parametric(self) -> bool:
        # validation admits only declared parameters, so without any the table is constant
        return bool(self.params) and any(
            not poly.is_constant() for row in self.rows for entry in row.values() for poly in entry.nonzero.values()
        )

    def evaluate(self, assignment: Mapping[str, Fraction | int]) -> "AlgebraTable":
        """Substitute every parameter, producing a constant table."""
        for p in self.params:
            if p not in assignment:
                raise MissingParameterError(f"no value for parameter {p}")
        rows = [
            {
                j: Element.of(self.dim, {k: Poly.const(p.evaluate(assignment)) for k, p in entry.nonzero.items()})
                for j, entry in row.items()
            }
            for row in self.rows
        ]
        return AlgebraTable(self.name, (), self.basis, rows)

    # -- bracket and residuals ----------------------------------------------

    def scaled_rows(self) -> Scaled:
        """scale_table over this table and its declared parameters, built afresh on every call."""
        return scale_table(self.rows, self.params)

    def residual(self, i: int, j: int, k: int) -> Element:
        """r(b_i, b_j, b_k) = [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] + [[b_i,b_k],b_j]."""
        scaled = self.scaled_rows()
        return self._unscaled(scaled, pair_residual(scaled[1], transpose(scaled[1], self.dim), j, k).get(i, {}))

    def _unscaled(self, scaled: Scaled, coords: Mapping[int, dict[int, int]]) -> Element:
        """The Element of coordinates that pair_residual found on the scaled rows, over D^2."""
        d, _, unpack = scaled
        return Element.of(self.dim, {
            m: Poly({unpack(mono): Fraction(c, d * d) for mono, c in terms.items()}) for m, terms in coords.items()
        })

    def constants(self) -> Constants:
        """Sparse structure constants, built on the first call and kept.

        constants()[i] maps each j with [b_i, b_j] != 0 to the nonzero
        (k, c) with [b_i, b_j] having coefficient c at b_k. Raises
        ParametricError for a parametric table.
        """
        if self._constants is None:
            self._require_constant()
            built = [
                {j: [(k, c.constant_value()) for k, c in entry.nonzero.items()] for j, entry in row.items()}
                for row in self.rows
            ]
            _set(self, "_constants", built)
        return self._constants

    def _require_constant(self) -> None:
        if self.is_parametric():
            raise ParametricError(
                "table has parametric entries; use constraint extraction "
                "(extract_constraints / the constraints command) instead"
            )

    def _residual_verdict(self, detail: str, negate: bool = False) -> Verdict:
        """PASS, or FAIL at the lexicographically least basis triple with a
        nonzero residual, walked by pairs on the scaled rows, which are built
        once: the witness's residual is unscaled from the walk's own
        pair_residual result. negate reports the residual's negative."""
        scaled = self.scaled_rows()
        rows, cols = scaled[1], transpose(scaled[1], self.dim)
        # (j, k) differ from pair to pair, so min never compares two results
        nonzero = ((min(at), j, k, at) for j, k in residual_pairs(rows) if (at := pair_residual(rows, cols, j, k)))
        first = min(nonzero, default=None)
        if first is None:
            return Verdict(PASS)
        i, j, k, at = first
        r = self._unscaled(scaled, at[i])
        return Verdict(FAIL, (self.basis[i], self.basis[j], self.basis[k]), -r if negate else r, detail)

    def check_leibniz(self) -> Verdict:
        """PASS iff every residual over basis triples vanishes. Constants only."""
        self._require_constant()
        return self._residual_verdict("Leibniz identity fails")

    def check_lie(self) -> Verdict:
        """PASS iff the table is antisymmetric and satisfies Jacobi. Constants only."""
        self._require_constant()
        rows, zero = self.rows, self.zero()
        for i, j in symmetric_pairs(rows):
            ij, ji = rows[i].get(j, zero), rows[j].get(i, zero)
            if ij != -ji:
                return Verdict(FAIL, (self.basis[i], self.basis[j]), ij + ji, "antisymmetry fails")
        # on an antisymmetric table the Jacobi sum [[x,y],z] + [[y,z],x] + [[z,x],y] is -r(x, y, z)
        return self._residual_verdict("Jacobi identity fails", negate=True)

    # -- subspaces: the bodies live in spaces, imported on first call ---------

    def product_span(self, left: Subspace, right: Subspace | None = None) -> Subspace:
        """span{ [u, v] : u in left, v in right }; right None is all of L."""
        from . import spaces
        return spaces.product_span(self, left, right)

    def ideal_closure(self, seed: Subspace) -> Subspace:
        """Smallest two-sided ideal containing the seed subspace."""
        from . import spaces
        return spaces.ideal_closure(self, seed)

    def squares_ideal(self) -> Subspace:
        """Ideal generated by all squares."""
        from . import spaces
        return spaces.squares_ideal(self)

    def verify_ideal(self, sub: Subspace) -> None:
        """Raise NotAnIdealError naming a violating product if sub is not an ideal."""
        from . import spaces
        return spaces.verify_ideal(self, sub)

    def quotient_by(self, sub: Subspace) -> tuple[AlgebraTable, QuotientMap]:
        """Quotient table on the non-pivot coordinates, plus the projection."""
        from . import spaces
        return spaces.quotient_by(self, sub)

    def invariant_profile(self) -> InvariantProfile:
        """Derived and lower central series dims, centers, squares ideal."""
        from . import spaces
        return spaces.invariant_profile(self)

    def __str__(self) -> str:
        kind = "parametric" if self.params else "constant"
        return f"<AlgebraTable {self.name}: dim {self.dim}, {kind}>"

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import leibnizalg as L
from leibnizalg import core, spaces
from leibnizalg.scalars import as_poly, mono_degree

# one line per acceptance criterion, echoed after the run (see
# test_acceptance.report); kept here so the summary hook sees them
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def sl2():
    return L.make_sl2()


@pytest.fixture
def r2():
    return L.make_r2()


@pytest.fixture
def prefamily():
    return L.make_L_prefamily()


def random_poly(rng: random.Random, params: tuple[str, ...]) -> L.Poly:
    total = L.ZERO
    for _ in range(rng.randint(1, 3)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        term = L.Poly.const(coeff)
        for _ in range(rng.randint(0, 2) if params else 0):
            term = term * L.Poly.param(rng.choice(params))
        total = total + term
    return total


def random_table(rng: random.Random) -> L.AlgebraTable:
    """A random small table; not Leibniz in general, only well-formed."""
    dim = rng.randint(1, 5)
    params = tuple(f"p{i}" for i in range(rng.randint(0, 2)))
    basis = tuple(f"b{i}" for i in range(dim))
    products: dict[tuple[str, str], dict[str, L.Poly]] = {}
    for _ in range(rng.randint(0, dim * dim)):
        pair = (rng.choice(basis), rng.choice(basis))
        coords = {
            sym: random_poly(rng, params)
            for sym in rng.sample(basis, rng.randint(1, dim))
        }
        products[pair] = coords
    return L.AlgebraTable.from_products("random_table", basis, products, params=params)


def constant_fixture_tables() -> list[L.AlgebraTable]:
    """Every constant table the suite treats as a known-good Leibniz algebra."""
    tables = [
        L.make_sl2(),
        L.make_r2(),
        L.make_abelian(1),
        L.make_abelian(4),
        L.make_direct_sum(L.make_sl2(), L.make_r2()),
        L.make_direct_sum(L.make_r2(), L.make_abelian(1)),
    ]
    for m in (0, 1, 2, 4):
        for a in (0, 1, -2, Fraction(7, 3)):
            tables.append(L.make_module_extension(m, a))
    for m in (1, 2, 3):
        names, e, f, h = L.make_sl2_module(m)
        tables.append(L.make_dzhumadildaev(L.make_sl2(), names, {"e": e, "f": f, "h": h}))
    for l, mu, a in ((1, 0, 1), (2, 3, 1), (0, 1, 0), (0, 1, 1), (0, 0, -5), (0, 4, 2)):
        tables.append(L.make_L_family(l, mu, a))
    return tables


small_rationals = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3).filter(bool), st.integers(min_value=1, max_value=3)
)


@functools.cache
def small_constant_leibniz_tables() -> tuple[L.AlgebraTable, ...]:
    """Known Leibniz algebras of dimension at most 7."""
    return tuple(t for t in constant_fixture_tables() if t.dim <= 7)


@st.composite
def sparse_constant_tables(draw) -> L.AlgebraTable:
    """A random sparse constant table of dim <= 7: random products (rarely
    Leibniz) or a small known Leibniz algebra on a shuffled basis."""
    if draw(st.booleans()):
        t = draw(st.sampled_from(small_constant_leibniz_tables()))
        perm = draw(st.permutations(range(t.dim)))
        return L.apply_basis_change(t, L.BasisChange.from_rows(
            [[1 if j == perm[i] else 0 for j in range(t.dim)] for i in range(t.dim)]
        ))
    dim = draw(st.integers(min_value=1, max_value=7))
    basis = tuple(f"b{i}" for i in range(dim))
    index = st.integers(min_value=0, max_value=dim - 1)
    products = draw(st.dictionaries(
        st.tuples(index, index),
        st.dictionaries(index, small_rationals, min_size=1, max_size=2),
        max_size=2 * dim,
    ))
    named = {
        (basis[i], basis[j]): {basis[k]: c for k, c in coords.items()}
        for (i, j), coords in products.items()
    }
    return L.AlgebraTable.from_products("random_sparse", basis, named)


@st.composite
def invertible_changes(draw, dim: int) -> L.BasisChange:
    """A sparse invertible rational change: nonzero diagonal scales, a few
    shears row_i += c*row_j, then a row permutation."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = draw(small_rationals)
    index = st.integers(min_value=0, max_value=dim - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, small_rationals), max_size=dim)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    perm = draw(st.permutations(range(dim)))
    return L.BasisChange.from_rows([rows[p] for p in perm])


wide_rationals = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12).filter(bool), st.integers(min_value=1, max_value=12)
)


@st.composite
def rational_polys(draw, params: tuple[str, ...]) -> L.Poly:
    """A nonzero Poly in params: one to four terms, rational coefficients
    with denominators up to 12, each exponent up to 2."""
    exponents = st.lists(st.integers(min_value=0, max_value=2), min_size=len(params), max_size=len(params))
    terms = draw(st.lists(st.tuples(exponents, wide_rationals), min_size=1, max_size=4))
    p = poly_from_terms(
        (tuple((n, e) for n, e in zip(params, exps) if e), c) for exps, c in terms
    )
    return p if p else L.Poly.const(draw(wide_rationals))


@st.composite
def parametric_tables(draw) -> L.AlgebraTable:
    """A random sparse table of dim <= 5 over one to three parameters;
    not Leibniz in general, only well-formed."""
    params = tuple(f"p{i}" for i in range(draw(st.integers(min_value=1, max_value=3))))
    dim = draw(st.integers(min_value=1, max_value=5))
    basis = tuple(f"b{i}" for i in range(dim))
    index = st.integers(min_value=0, max_value=dim - 1)
    products = draw(st.dictionaries(
        st.tuples(index, index),
        st.dictionaries(index, rational_polys(params), min_size=1, max_size=2),
        max_size=2 * dim,
    ))
    named = {
        (basis[i], basis[j]): {basis[k]: c for k, c in coords.items()}
        for (i, j), coords in products.items()
    }
    return L.AlgebraTable.from_products("random_parametric", basis, named, params=params)


# ---------------------------------------------------------------------------
# reference residual: the dense Element loop that the scaled integer kernel
# replaced, kept here to check it against


def ref_bracket_basis_left(t: L.AlgebraTable, i: int, w: L.Element) -> L.Element:
    """[b_i, w] for an element w."""
    acc = [L.ZERO] * t.dim
    for l, c in enumerate(w.coords):
        if not c:
            continue
        entry = t.entry(i, l)
        for k, ck in enumerate(entry.coords):
            if ck:
                acc[k] = acc[k] + c * ck
    return L.Element(tuple(acc))


def ref_bracket_basis_right(t: L.AlgebraTable, w: L.Element, j: int) -> L.Element:
    """[w, b_j] for an element w."""
    acc = [L.ZERO] * t.dim
    for l, c in enumerate(w.coords):
        if not c:
            continue
        entry = t.entry(l, j)
        for k, ck in enumerate(entry.coords):
            if ck:
                acc[k] = acc[k] + c * ck
    return L.Element(tuple(acc))


def ref_residual(t: L.AlgebraTable, i: int, j: int, k: int) -> L.Element:
    """r(b_i, b_j, b_k) = [b_i,[b_j,b_k]] - [[b_i,b_j],b_k] + [[b_i,b_k],b_j]."""
    t1 = ref_bracket_basis_left(t, i, t.entry(j, k))
    t2 = ref_bracket_basis_right(t, t.entry(i, j), k)
    t3 = ref_bracket_basis_right(t, t.entry(i, k), j)
    return t1 - t2 + t3


def kernel_residual(t: L.AlgebraTable, i: int, j: int, k: int) -> L.Element:
    """r(b_i, b_j, b_k) read off the package's pair kernel on the scaled rows,
    whose integers are D^2 times the residual."""
    d, rows, unpack = t.scaled_rows()
    coords = core.pair_residual(rows, core.transpose(rows, t.dim), j, k).get(i, {})
    return L.Element.of(t.dim, {
        m: L.Poly({unpack(mono): Fraction(c, d * d) for mono, c in terms.items()}) for m, terms in coords.items()
    })


def ref_project(proj: L.QuotientMap, el: L.Element) -> L.Element:
    """proj(el) by the loop that QuotientMap once ran: subtract every ideal
    row in turn, then read off the kept coordinates."""
    coords = dict(el.nonzero)
    for row, p in zip(proj.ideal.rows, proj.ideal.pivots):
        c = coords.get(p)
        if c:
            for k, x in row.items():
                coords[k] = coords.get(k, L.ZERO) - c * x
    return L.Element.of(len(proj.kept), {r: coords.get(i, L.ZERO) for r, i in enumerate(proj.kept)})


def ref_verify_ideal(t: L.AlgebraTable, sub: L.Subspace) -> None:
    """verify_ideal by the loop it once ran on its own: every row of sub in
    turn, its nonzero brackets [v, b_j] and [b_j, v] sorted by (j, side),
    and NotAnIdealError for the first one that does not reduce to zero."""
    rows, units = t.constants(), [{j: Fraction(1)} for j in range(t.dim)]
    sides = (rows, core.transpose(rows, t.dim))
    ech = spaces.Echelon.of(sub)
    for row in sub.rows:
        brackets = sorted((j, side, w) for side, products in enumerate(sides)
                          for (_, j), w in core.bilinear(products, [row], units).items())
        for j, side, w in brackets:
            if ech.reduce(w):
                el = t.format_element(core.sparse_element(sub.ambient, row))
                pair = f"{t.basis[j]}, {el}" if side else f"{el}, {t.basis[j]}"
                raise L.NotAnIdealError(f"[{pair}] leaves the subspace")


def dense_constants(t: L.AlgebraTable) -> list:
    """rows[i][j] lists the nonzero (k, c) of [b_i, b_j], for every i and j:
    the dense structure constants, read through entry(i, j)."""
    return [
        [[(k, c.constant_value()) for k, c in t.entry(i, j).nonzero.items()] for j in range(t.dim)]
        for i in range(t.dim)
    ]


def bracket(t: L.AlgebraTable, u: L.Element, v: L.Element) -> L.Element:
    """[u, v] in t: the bilinear extension of the table to Poly elements."""
    assert u.dim == v.dim == t.dim
    acc: dict = {}
    for i, cu in u.nonzero.items():
        for j, cv in v.nonzero.items():
            for k, ck in t.entry(i, j).nonzero.items():
                acc[k] = acc.get(k, L.ZERO) + cu * cv * ck
    return L.Element.of(t.dim, acc)


def right_mult_matrix(t: L.AlgebraTable, a: L.Element):
    """Matrix of v -> [v, a] on coordinate columns; column j is [b_j, a]."""
    images = [bracket(t, t.basis_element(j), a) for j in range(t.dim)]
    return tuple(tuple(images[j].nonzero.get(i, L.ZERO) for j in range(t.dim)) for i in range(t.dim))


def poly_from_terms(items) -> L.Poly:
    """The Poly with the sum of these (monomial, coefficient) terms."""
    acc: dict = {}
    for mono, coeff in items:
        c = acc.get(mono, 0) + coeff
        if c:
            acc[mono] = c
        else:
            acc.pop(mono, None)
    return L.Poly(acc)


# ---------------------------------------------------------------------------
# reference monomial order: the comparison that MONO_KEY and packed
# monomials must agree with


def mono_cmp(a, b) -> int:
    """Graded lexicographic comparison, ascending parameter names."""
    da, db = mono_degree(a), mono_degree(b)
    if da != db:
        return -1 if da < db else 1
    ea, eb = dict(a), dict(b)
    for name in sorted(set(ea) | set(eb)):
        xa, xb = ea.get(name, 0), eb.get(name, 0)
        if xa != xb:
            return 1 if xa > xb else -1
    return 0


# ---------------------------------------------------------------------------
# dense matrices of Poly entries: the references that sparse rows, such as
# the module actions of make_sl2_module, are checked against


def mat_identity(n: int):
    return tuple(tuple(L.ONE if i == j else L.ZERO for j in range(n)) for i in range(n))


def mat_from_rows(rows):
    return tuple(tuple(as_poly(c) for c in row) for row in rows)


def mat_mul(a, b):
    """a.b, summing only over the nonzero entries of a's rows and b's rows."""
    m = len(b[0]) if b else 0
    b_rows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        acc: dict[int, L.Poly] = {}
        for k, aik in enumerate(row):
            if aik:
                for j, bkj in b_rows[k]:
                    acc[j] = acc.get(j, L.ZERO) + aik * bkj
        out.append(tuple(acc.get(j, L.ZERO) for j in range(m)))
    return tuple(out)


def mat_constant(a):
    try:
        return tuple(tuple(c.constant_value() for c in row) for row in a)
    except L.MissingParameterError as exc:
        raise L.ParametricError(f"matrix entry is not constant: {exc}") from exc


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dense(rows, n: int):
    """The dense n-column matrix of sparse {column: scalar} rows."""
    return mat_from_rows([[row.get(j, 0) for j in range(n)] for row in rows])


def sparse_matrix(mat):
    """The sparse {column: entry} rows of a dense matrix, zero entries dropped."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def full_space(n: int) -> L.Subspace:
    """All of F^n: the span of the n unit vectors."""
    return L.span([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n)


def change_matrix(change: L.BasisChange):
    """The dense matrix of a change: row p holds the coordinates of c_p."""
    return tuple(row.coords for row in change.rows)


def submodule_closure(ops, seed: L.Element) -> L.Subspace:
    """Smallest subspace containing seed and stable under all operators,
    each given as sparse rows."""
    ambient = seed.dim
    const_ops = [mat_constant(dense(op, ambient)) for op in ops]
    current = L.span([seed], ambient)
    while True:
        rows = [tuple(c.constant_value() for c in v.coords) for v in current.as_elements()]
        vectors = list(rows)
        for op in const_ops:
            for row in rows:
                image = tuple(
                    sum((op[i][j] * row[j] for j in range(ambient)), Fraction(0)) for i in range(ambient)
                )
                vectors.append(image)
        nxt = L.span(vectors, ambient)
        if nxt.dim == current.dim:
            return current
        current = nxt

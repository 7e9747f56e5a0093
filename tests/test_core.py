import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg as L
from leibnizalg import core, spaces
from leibnizalg.basis import BasisChange, det_and_adjugate
from leibnizalg.scalars import Poly

from conftest import (
    bracket,
    constant_fixture_tables,
    dense,
    dense_constants,
    full_space,
    invertible_changes,
    mat_from_rows,
    mat_identity,
    mat_mul,
    mat_sub,
    parametric_tables,
    random_table,
    rational_polys,
    ref_project,
    ref_residual,
    ref_verify_ideal,
    right_mult_matrix,
    small_rationals,
    sparse_constant_tables,
    sparse_matrix,
    submodule_closure,
)


def rref(rows, ambient):
    """(dense rows, pivots) of the reduced row echelon form, as span computes it."""
    sub = L.span(rows, ambient)
    return tuple(tuple(r.get(k, 0) for k in range(ambient)) for r in sub.rows), sub.pivots


def test_element_arithmetic():
    u = L.element_from([1, 0, Fraction(1, 2)])
    v = L.element_from([0, 1, Fraction(-1, 2)])
    assert (u + v).coords == (L.ONE, L.ONE, L.ZERO)
    assert (u - u).is_zero()
    assert (2 * u).coords[2] == 1
    assert L.zero_element(3).is_zero()


def record_instances():
    """One instance of every immutable value class, built from sl2."""
    t = L.make_sl2()
    ideal = L.span([], 3)
    profile = t.invariant_profile()
    return [
        L.element_from([1, 0, 2]),
        ideal,
        L.span([t.basis_element("e"), t.basis_element("f")]),
        L.Verdict("FAIL", witness=("e", "h"), residual=L.zero_element(3), detail="why"),
        profile,
        L.QuotientMap(ideal, (0, 1, 2)),
        t,
        L.parse_change("change c\ndim 3\nbasis e h f\nnew e = 2*e\n"),
        L.ConstraintSet.of([Poly.param("a")]),
        L.BasisChange.identity(3),
        L.ProfileReport.compare(profile, profile),
        L.FamilySpec(1, include_sl2_defects=True),
    ]


def test_records_are_frozen_and_slotted():
    for record in record_instances():
        field = record.__slots__[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")


def test_record_repr_names_class_and_fields():
    assert repr(L.span([], 2)) == "Subspace(ambient=2, rows=(), pivots=())"
    assert repr(L.Verdict("PASS")) == "Verdict(status='PASS', witness=None, residual=None, detail='')"
    assert repr(L.FamilySpec(2)) == (
        "FamilySpec(m=2, include_sl2_R_products=False, include_sl2_defects=False)"
    )
    table = repr(L.make_r2())
    assert table.startswith("AlgebraTable(name='r2', dim=2, params=(), basis=('y1', 'y2'), rows=({1: Element(")
    assert "_constants" not in table
    for record in record_instances():
        text = repr(record)
        assert text.startswith(type(record).__name__ + "(")
        assert all(f"{f}=" in text for f in record.__slots__ if not f.startswith("_"))


def test_record_equality_and_hash():
    t = L.make_sl2()
    renamed = L.AlgebraTable("other", t.dim, t.params, t.basis, t.rows)
    t.constants()  # the cached constants take no part in equality either
    assert t == renamed and hash(t) == hash(renamed)
    assert t != L.make_direct_sum(L.make_r2(), L.make_abelian(1))
    assert t != t.entry(0, 1)  # another class never compares equal
    u, v = L.element_from([1, 0, 2]), L.element_from([1, 0, 2])
    assert u == v and hash(u) == hash(v) and u is not v
    assert len({u, v, L.element_from([0, 1, 0])}) == 2
    assert {u: "found"}[v] == "found"
    a, b = Poly.param("a"), Poly.param("b")
    c1, c2 = L.ConstraintSet.of([a, b]), L.ConstraintSet.of([b, a])
    assert c1 == c2 and hash(c1) == hash(c2)
    assert {c1: 1}[c2] == 1 and len({c1, c2, L.ConstraintSet.of([a])}) == 2
    assert L.FamilySpec(1) == L.FamilySpec(1, include_sl2_R_products=False)
    assert L.FamilySpec(1) != L.FamilySpec(1, include_sl2_defects=True)
    for one, two in zip(record_instances(), record_instances()):
        assert one == two and one is not two
        if not isinstance(one, L.ChangeDocument):  # it holds a dict, so it is unhashable
            assert hash(one) == hash(two)


def test_record_constructor_fills_slots_in_order():
    spec = L.FamilySpec(2, True)
    assert (spec.m, spec.include_sl2_R_products, spec.include_sl2_defects) == (2, True, False)
    assert L.FamilySpec(m=2, include_sl2_defects=True) == L.FamilySpec(2, False, True)
    assert L.Verdict("PASS", detail="ok") == L.Verdict("PASS", None, None, "ok")
    assert L.Subspace(2, (), ()) == L.Subspace(rows=(), pivots=(), ambient=2)
    for build, match in (
        (lambda: L.Subspace(2, (), (), ()), "takes 3 arguments but 4"),
        (lambda: L.Subspace(2, ()), "missing argument 'pivots'"),
        (lambda: L.FamilySpec(), "missing argument 'm'"),
        (lambda: L.Verdict("PASS", wit=("e",)), r"unexpected or repeated arguments \['wit'\]"),
        (lambda: L.Verdict("PASS", status="FAIL"), r"unexpected or repeated arguments \['status'\]"),
        (lambda: L.FamilySpec(1, param_format="p{j}"), "param_format"),
    ):
        with pytest.raises(TypeError, match=match):
            build()


def test_constants_are_cached_on_the_instance():
    t = L.make_sl2()
    first = t.constants()
    assert t.constants() is first
    assert L.make_sl2().constants() is not first
    assert L.make_sl2().constants() == first


def test_format_element():
    basis = ("e", "h", "f")
    el = L.element_from([2, 0, Fraction(-1, 2)])
    assert L.format_element(el, basis) == "2*e - 1/2*f"
    assert L.format_element(L.zero_element(3), basis) == "0"
    # parametric coords flatten to a term list (the .alg grammar has no parens)
    lam = Poly.param("l")
    el = L.Element((lam, L.ZERO, L.ONE - lam))
    assert L.format_element(el, basis) == "l*e + f - l*f"


def test_bracket_on_basis(sl2):
    e, h, f = (sl2.basis_element(s) for s in "ehf")
    assert bracket(sl2, e, h) == 2 * e
    assert bracket(sl2, h, f) == 2 * f
    assert bracket(sl2, e, f) == h
    assert bracket(sl2, f, e) == -1 * h


coords3 = st.tuples(*([st.integers(min_value=-6, max_value=6)] * 3))


@given(coords3, coords3, coords3, st.integers(min_value=-6, max_value=6))
def test_bracket_bilinearity(cu, cv, cw, scale):
    t = L.make_sl2()
    u, v, w = (L.element_from(c) for c in (cu, cv, cw))
    assert bracket(t, u + v, w) == bracket(t, u, w) + bracket(t, v, w)
    assert bracket(t, u, v + w) == bracket(t, u, v) + bracket(t, u, w)
    assert bracket(t, scale * u, v) == scale * bracket(t, u, v)
    assert bracket(t, u, scale * v) == scale * bracket(t, u, v)


def test_residual_orientation(prefamily):
    # residual(x,y,z) = [x,[y,z]] - [[x,y],z] + [[x,z],y]
    t = prefamily
    i, j, k = t.index("e"), t.index("y1"), t.index("y2")
    x, y, z = t.basis_element(i), t.basis_element(j), t.basis_element(k)
    by_hand = (
        bracket(t, x, bracket(t, y, z))
        - bracket(t, bracket(t, x, y), z)
        + bracket(t, bracket(t, x, z), y)
    )
    assert t.residual(i, j, k) == by_hand
    lam, a = Poly.param("l"), Poly.param("a")
    expected = (lam - lam * a) * t.basis_element("x0")
    assert t.residual(i, j, k) == expected


def test_check_leibniz_passes_on_fixtures():
    for t in constant_fixture_tables():
        assert t.check_leibniz().passed, t.name


def test_check_leibniz_witness_is_first_failing_triple():
    t = L.make_L_prefamily().evaluate({"l": 1, "mu": 0, "a": 0, "b": 0})
    verdict = t.check_leibniz()
    assert not verdict.passed
    assert verdict.witness == ("e", "y1", "y2")
    assert t.format_element(verdict.residual) == "x0"


def test_check_lie_antisymmetry_witness():
    t = L.make_module_extension(1, 1)
    verdict = t.check_lie()
    assert not verdict.passed
    assert verdict.witness == ("e", "x1")
    assert "antisym" in verdict.detail


def test_check_lie_jacobi_witness():
    # antisymmetric but not Jacobi: [[u,v],w] + [[v,w],u] + [[w,u],v] = v
    t = L.AlgebraTable.from_products(
        "notjacobi",
        ("u", "v", "w"),
        {
            ("u", "v"): {"v": 1},
            ("v", "u"): {"v": -1},
            ("u", "w"): {"w": 1},
            ("w", "u"): {"w": -1},
            ("v", "w"): {"v": 1},
            ("w", "v"): {"v": -1},
        },
    )
    verdict = t.check_lie()
    assert not verdict.passed
    assert "Jacobi" in verdict.detail
    assert verdict.witness == ("u", "v", "w")
    assert t.format_element(verdict.residual) == "v"
    assert verdict.residual == jacobi_by_hand(t, 0, 1, 2)


def jacobi_by_hand(t, i, j, k):
    """[[x,y],z] + [[y,z],x] + [[z,x],y] for basis vectors x, y, z."""
    x, y, z = (t.basis_element(n) for n in (i, j, k))
    return (
        bracket(t, bracket(t, x, y), z)
        + bracket(t, bracket(t, y, z), x)
        + bracket(t, bracket(t, z, x), y)
    )


def test_check_lie_jacobi_witness_with_fractions():
    # antisymmetric, Jacobi fails first at (u, v, w) on two coordinates
    products = {
        ("u", "v"): {"v": Fraction(1, 2), "w": 3},
        ("v", "w"): {"u": Fraction(-2, 3), "w": 1},
        ("w", "u"): {"u": 5, "v": Fraction(1, 4)},
    }
    for (a, b), coords in list(products.items()):
        products[(b, a)] = {s: -c for s, c in coords.items()}
    t = L.AlgebraTable.from_products("notjacobi2", ("u", "v", "w"), products)
    verdict = t.check_lie()
    assert not verdict.passed
    assert "Jacobi" in verdict.detail
    assert verdict.witness == ("u", "v", "w")
    assert verdict.residual == jacobi_by_hand(t, 0, 1, 2)
    assert t.format_element(verdict.residual) == "14/3*u + 11/4*v + 31/2*w"


@st.composite
def antisymmetric_tables(draw):
    """A random antisymmetric constant table of dim <= 5, rarely Lie."""
    dim = draw(st.integers(min_value=1, max_value=5))
    basis = tuple(f"b{i}" for i in range(dim))
    index = st.integers(min_value=0, max_value=dim - 1)
    pairs = st.tuples(index, index).filter(lambda p: p[0] < p[1])
    upper = draw(st.dictionaries(pairs, st.dictionaries(index, small_rationals, min_size=1, max_size=2)))
    products = {}
    for (i, j), coords in upper.items():
        products[(basis[i], basis[j])] = {basis[k]: c for k, c in coords.items()}
        products[(basis[j], basis[i])] = {basis[k]: -c for k, c in coords.items()}
    return L.AlgebraTable.from_products("random_antisymmetric", basis, products)


def first_nonzero(triples, value):
    return next(((ijk, v) for ijk in triples if not (v := value(*ijk)).is_zero()), (None, None))


@settings(deadline=None, max_examples=60)
@given(antisymmetric_tables())
def test_check_lie_matches_jacobi_reference(t):
    triples = itertools.product(range(t.dim), repeat=3)
    first, jac = first_nonzero(triples, lambda i, j, k: jacobi_by_hand(t, i, j, k))
    verdict = t.check_lie()
    assert verdict.passed == (first is None)
    if first is not None:
        assert verdict.witness == tuple(t.basis[n] for n in first)
        assert verdict.residual == jac


@settings(deadline=None, max_examples=60)
@given(sparse_constant_tables())
def test_check_leibniz_matches_residual_reference(t):
    triples = itertools.product(range(t.dim), repeat=3)
    first, residual = first_nonzero(triples, lambda i, j, k: ref_residual(t, i, j, k))
    verdict = t.check_leibniz()
    assert verdict.passed == (first is None)
    if first is not None:
        assert verdict.witness == tuple(t.basis[n] for n in first)
        assert verdict.residual == residual


# the all-triples loops that check_leibniz and check_lie ran before they
# visited only the triples with a nonzero product, kept as references


def ref_check_leibniz(t):
    rows = dense_constants(t)
    for i, j, k in itertools.product(range(t.dim), repeat=3):
        ij, jk, ik = rows[i][j], rows[j][k], rows[i][k]
        if not jk and not ij and not ik:
            continue
        acc = {}
        for l, c in jk:
            for m, d in rows[i][l]:
                acc[m] = acc.get(m, 0) + c * d
        for l, c in ij:
            for m, d in rows[l][k]:
                acc[m] = acc.get(m, 0) - c * d
        for l, c in ik:
            for m, d in rows[l][j]:
                acc[m] = acc.get(m, 0) + c * d
        if any(acc.values()):
            witness = (t.basis[i], t.basis[j], t.basis[k])
            return L.Verdict("FAIL", witness, t.residual(i, j, k), "Leibniz identity fails")
    return L.Verdict("PASS")


def ref_check_lie(t):
    rows = dense_constants(t)
    for i in range(t.dim):
        for j in range(i, t.dim):
            acc = {}
            for k, c in rows[i][j] + rows[j][i]:
                acc[k] = acc.get(k, 0) + c
            if any(acc.values()):
                witness = (t.basis[i], t.basis[j])
                return L.Verdict("FAIL", witness, t.entry(i, j) + t.entry(j, i), "antisymmetry fails")
    for i, j, k in itertools.product(range(t.dim), repeat=3):
        ij, jk, ki = rows[i][j], rows[j][k], rows[k][i]
        if not ij and not jk and not ki:
            continue
        acc = {}
        for (l, c), right in [(lc, k) for lc in ij] + [(lc, i) for lc in jk] + [(lc, j) for lc in ki]:
            for m, d in rows[l][right]:
                acc[m] = acc.get(m, 0) + c * d
        if any(acc.values()):
            witness = (t.basis[i], t.basis[j], t.basis[k])
            return L.Verdict("FAIL", witness, -t.residual(i, j, k), "Jacobi identity fails")
    return L.Verdict("PASS")


def perturbed_fixture(rng):
    """A known Leibniz table on a shuffled basis; half the time one
    coordinate of [a, b] is moved by a small rational, and that of [b, a]
    by its negative, which keeps a Lie table antisymmetric."""
    t = rng.choice(constant_fixture_tables())
    perm = list(range(t.dim))
    rng.shuffle(perm)
    t = L.apply_basis_change(t, BasisChange.from_rows(
        [[1 if j == perm[i] else 0 for j in range(t.dim)] for i in range(t.dim)]
    ))
    if rng.random() < 0.5:
        return t
    products = {
        (t.basis[i], t.basis[j]): {t.basis[k]: c for k, c in entry}
        for i, row in enumerate(t.constants()) for j, entry in row.items()
    }
    a, b, k = (rng.choice(t.basis) for _ in range(3))
    delta = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
    for pair, move in (((a, b), delta), ((b, a), -delta)):
        coords = products.setdefault(pair, {})
        coords[k] = coords.get(k, 0) + move
    return L.AlgebraTable.from_products("perturbed", t.basis, products)


def test_sparse_triple_walk_matches_all_triples():
    rng = random.Random(11)
    verdicts = []
    for _ in range(300):
        t = perturbed_fixture(rng)
        leibniz, lie = t.check_leibniz(), t.check_lie()
        assert leibniz == ref_check_leibniz(t), t
        assert lie == ref_check_lie(t), t
        verdicts.append((leibniz.passed, lie.detail))
    # both outcomes, and Jacobi witnesses past the antisymmetry check, occur
    assert {passed for passed, _ in verdicts} == {True, False}
    assert sum(not passed for passed, _ in verdicts) >= 50
    assert sum(detail == "Jacobi identity fails" for _, detail in verdicts) >= 5


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_sparse_triple_walk_matches_all_triples_on_random_tables(data):
    # a random change of basis gives dense rational entries, so PASS tables
    # with denominators D > 1 and exact cancellation reach the integer kernel
    t = data.draw(sparse_constant_tables())
    changed = L.apply_basis_change(t, data.draw(invertible_changes(t.dim)))
    for table in (t, changed):
        assert table.check_leibniz() == ref_check_leibniz(table)
        assert table.check_lie() == ref_check_lie(table)


def assert_walk_covers_nonzero_residuals(t):
    """residual_pairs visits each pair once, in ascending order, and every
    (j, k) at which some r(b_i, b_j, b_k) is nonzero; pair_residual returns
    column i there exactly when that residual is nonzero. On a constant
    table the walk over constants() is the walk over scaled_rows()."""
    rows = t.scaled_rows()[1]
    cols = core.transpose(rows, t.dim)
    visited = core.residual_pairs(rows)
    assert visited == sorted(set(visited))
    if not t.is_parametric():
        assert core.residual_pairs(t.constants()) == visited
    seen = set(visited)
    for j, k in itertools.product(range(t.dim), repeat=2):
        nonzero = {i for i in range(t.dim) if not ref_residual(t, i, j, k).is_zero()}
        if nonzero:
            assert (j, k) in seen, (j, k)
            assert set(core.pair_residual(rows, cols, j, k)) == nonzero, (j, k)


def test_sparse_triple_walk_covers_nonzero_residuals():
    for seed in range(100):
        assert_walk_covers_nonzero_residuals(random_table(random.Random(seed)))
    rng = random.Random(5)
    for _ in range(40):
        assert_walk_covers_nonzero_residuals(perturbed_fixture(rng))


@settings(deadline=None, max_examples=60)
@given(st.one_of(sparse_constant_tables(), parametric_tables()))
def test_sparse_triple_walk_covers_nonzero_residuals_on_random_tables(t):
    assert_walk_covers_nonzero_residuals(t)


def test_sparse_triple_walk_sizes():
    # the pair walk visits the stored products and the pairs of columns that
    # hold one: e, h, f, y1 and y2 on module-ext, 17 pairs not stored
    me30 = L.make_module_extension(30, Fraction(3, 2))
    assert len(core.residual_pairs(me30.constants())) == 146
    gen6 = L.make_generic_family(L.FamilySpec(6, include_sl2_R_products=True, include_sl2_defects=True))
    assert len(core.residual_pairs(gen6.scaled_rows()[1])) == 57
    rows = L.make_module_extension(2000, 1).constants()
    stored = sum(len(row) for row in rows)
    assert len(core.residual_pairs(rows)) == stored + 17 == 8026


@pytest.mark.parametrize("check", ["check_leibniz", "check_lie"])
def test_check_leibniz_parametric_raises(prefamily, check):
    # the prefamily is not antisymmetric: check_lie must refuse it before any scan
    with pytest.raises(L.ParametricError, match="constraints"):
        getattr(prefamily, check)()


def test_identity_checks_build_no_fraction_constants():
    t = L.make_module_extension(3, 2)
    t.check_leibniz()
    t.check_lie()
    assert t._constants is None


def test_failing_check_scales_the_table_once(monkeypatch):
    # the witness's residual is unscaled from the walk's own pair_residual result,
    # not found again by residual(), which would scale the whole table a second time
    m = L.make_module_extension(4, 1)
    rows = [dict(row) for row in m.rows]
    rows[m.index("e")][m.index("y1")] = m.basis_element("x0")
    leibniz = L.AlgebraTable("forced", m.dim, (), m.basis, rows)
    products = {("a", "b"): {"a": 1}, ("b", "a"): {"a": -1}, ("a", "c"): {"b": 1}, ("c", "a"): {"b": -1}}
    jacobi = L.AlgebraTable.from_products("notjacobi", ("a", "b", "c"), products)
    calls = []
    scale = core.scale_table
    monkeypatch.setattr(core, "scale_table", lambda *args: calls.append(1) or scale(*args))
    for t, check, witness, text in (
        (leibniz, "check_leibniz", ("e", "h", "y1"), "2*x0"),
        (jacobi, "check_lie", ("a", "b", "c"), "b"),
    ):
        calls.clear()
        verdict = getattr(t, check)()
        assert len(calls) == 1, check
        assert verdict.witness == witness and t.format_element(verdict.residual) == text
        r = t.residual(*map(t.index, witness))
        assert verdict.residual == (r if check == "check_leibniz" else -r)


def test_span_and_subspace(sl2):
    e, h, f = (sl2.basis_element(s) for s in "ehf")
    sub = L.span([2 * e, e + f])
    assert sub.dim == 2
    assert sub.pivots == (0, 2)
    ech = spaces.Echelon.of(sub)
    assert not ech.reduce({0: Fraction(1)})
    assert ech.reduce({1: Fraction(1)}) == {1: 1}
    assert sub.complement_indices() == (1,)
    # Echelon.of copies the rows: back-substitution after add must not reach sub
    sub = L.span([e + h])
    ech = spaces.Echelon.of(sub)
    ech.add({1: Fraction(1)})
    assert ech.subspace() == L.span([e, h])
    assert sub.rows == ({0: 1, 1: 1},) and sub == L.span([e + h])


def test_span_edge_cases():
    assert L.span([], ambient=3).dim == 0
    x01 = L.element_from([1, 1, 0])
    x1 = L.element_from([0, 1, 0])
    x0 = L.element_from([1, 0, 0])
    assert L.span([x01, x1, x0]).dim == 2
    with pytest.raises(L.ParametricError):
        L.span([L.Element((Poly.param("t"), L.ZERO))])


def test_rref_is_idempotent():
    rng = random.Random(5)
    rows = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(3)]
    reduced, pivots = rref(rows, 4)
    again, pivots2 = rref(reduced, 4)
    assert reduced == again and pivots == pivots2
    assert list(pivots) == sorted(pivots)
    for r, p in zip(reduced, pivots):
        assert r[p] == 1
        for other in reduced:
            if other is not r:
                assert other[p] == 0


def test_ideal_closure_sl2_from_e(sl2):
    closed = sl2.ideal_closure(L.span([sl2.basis_element("e")]))
    assert closed.dim == 3  # sl2 is simple


def test_ideal_closure_module_block():
    t = L.make_module_extension(2, 1)
    seed = L.span([t.basis_element("x0")], ambient=t.dim)
    closed = t.ideal_closure(seed)
    assert closed.as_elements() == tuple(t.basis_element(f"x{k}") for k in range(3))


def test_closures_of_zero_seed(sl2):
    assert sl2.ideal_closure(L.span([], 3)).dim == 0
    names, e, f, h = L.make_sl2_module(2)
    assert submodule_closure((e, f, h), L.zero_element(3)).dim == 0


def test_right_mult_operator_identity():
    # R_[u,v] = R_v . R_u - R_u . R_v in any constant Leibniz table
    t = L.make_module_extension(2, 1)
    rng = random.Random(7)
    for _ in range(10):
        u = L.element_from([rng.randint(-3, 3) for _ in range(t.dim)])
        v = L.element_from([rng.randint(-3, 3) for _ in range(t.dim)])
        ru, rv = right_mult_matrix(t, u), right_mult_matrix(t, v)
        lhs = right_mult_matrix(t, bracket(t, u, v))
        assert lhs == mat_sub(mat_mul(rv, ru), mat_mul(ru, rv))


def assert_operator_form_agrees(t):
    """check_leibniz against its operator form: column i of
    R_[b_j,b_k] - R_k.R_j + R_j.R_k is r(b_i, b_j, b_k), since
    R_y.R_x(b_i) = [[b_i, x], y]. Each column equals column i of the
    identity checks' kernel at the pair (j, k), scaled back by D^2, and the
    first nonzero (i, j, k) in lexicographic order is the verdict's witness
    and residual. Returns whether the table is Leibniz."""
    rights = [right_mult_matrix(t, t.basis_element(j)) for j in range(t.dim)]
    d, rows, unpack = t.scaled_rows()
    cols = core.transpose(rows, t.dim)
    first = None
    for j, k in itertools.product(range(t.dim), repeat=2):
        rj, rk = rights[j], rights[k]
        op = mat_sub(right_mult_matrix(t, t.entry(j, k)), mat_sub(mat_mul(rk, rj), mat_mul(rj, rk)))
        found = core.pair_residual(rows, cols, j, k)
        for i in range(t.dim):
            column = L.Element(tuple(row[i] for row in op))
            got = {
                m: Poly({unpack(mono): Fraction(c, d * d) for mono, c in terms.items()})
                for m, terms in found.get(i, {}).items()
            }
            assert column == L.Element.of(t.dim, got), (i, j, k)
            if not column.is_zero() and (first is None or (i, j, k) < first[0]):
                first = ((i, j, k), column)
    verdict = t.check_leibniz()
    assert verdict.passed == (first is None)
    if first is not None:
        (i, j, k), column = first
        assert verdict.witness == (t.basis[i], t.basis[j], t.basis[k])
        assert verdict.residual == column == t.residual(i, j, k)
    return verdict.passed


def test_operator_form_reference_for_check_leibniz():
    rng = random.Random(17)
    passed = [assert_operator_form_agrees(perturbed_fixture(rng)) for _ in range(40)]
    assert True in passed and passed.count(False) >= 10


@settings(deadline=None, max_examples=60)
@given(sparse_constant_tables())
def test_operator_form_reference_for_check_leibniz_on_random_tables(t):
    assert_operator_form_agrees(t)


def test_squares_ideal_examples(sl2):
    assert sl2.squares_ideal().dim == 0
    t = L.make_L_family(1, 0, 1)
    ideal = t.squares_ideal()
    assert ideal.as_elements() == tuple(t.basis_element(f"x{k}") for k in range(3))


def test_verify_ideal_rejects_non_ideal(sl2):
    with pytest.raises(L.NotAnIdealError, match="leaves the subspace"):
        sl2.verify_ideal(L.span([sl2.basis_element("e")]))
    with pytest.raises(L.NotAnIdealError):
        sl2.quotient_by(L.span([sl2.basis_element("h")]))


@pytest.mark.parametrize("table,coords,pair", [
    ("sl2", {"e": 1}, "e, f"),
    ("sl2", {"h": 1}, "h, e"),
    ("sl2", {"f": 1}, "f, e"),
    ("L101", {"x0": 1}, "x0, f"),
    ("L101", {"y1": 1}, "e, y1"),
    ("L101", {"x1": 1, "y1": 2}, "x1 + 2*y1, e"),
])
def test_verify_ideal_names_the_first_violating_product(table, coords, pair):
    # rows in order, j ascending, [v, b_j] before [b_j, v]: the first product that leaves is named
    t = L.make_sl2() if table == "sl2" else L.make_L_family(1, 0, 1)
    with pytest.raises(L.NotAnIdealError) as exc:
        t.verify_ideal(L.span([t.element(coords)]))
    assert str(exc.value) == f"[{pair}] leaves the subspace"


def ideal_check_text(check, t, sub):
    """The NotAnIdealError text that check(t, sub) raises, or None when it passes."""
    try:
        check(t, sub)
    except L.NotAnIdealError as exc:
        return str(exc)
    return None


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_ideal_check_is_the_first_bracket_the_closure_adds(data):
    t = data.draw(sparse_constant_tables())
    vectors = st.lists(st.lists(small_rationals | st.just(Fraction(0)), min_size=t.dim, max_size=t.dim), max_size=3)
    for table in (t, L.apply_basis_change(t, data.draw(invertible_changes(t.dim)))):
        subs = [L.span([], table.dim), full_space(table.dim), table.squares_ideal()]
        for rows in (data.draw(vectors), data.draw(vectors)[:1]):
            subs.append(L.span(rows, table.dim))
        subs.append(table.ideal_closure(subs[-1]))
        for sub in subs:
            text = ideal_check_text(spaces.verify_ideal, table, sub)
            assert text == ideal_check_text(ref_verify_ideal, table, sub)
            assert (table.ideal_closure(sub) == sub) == (text is None)


@pytest.mark.parametrize("ambient", [3, 12])
def test_ideal_operations_refuse_a_subspace_of_another_dimension(ambient):
    # verify_ideal used to bracket the rows of a dim-3 subspace as if they lay in L(1,0,1)
    # and report "[e, f] leaves the subspace"
    t = L.make_L_family(1, 0, 1)
    sub = L.span([[1] + [0] * (ambient - 1)])
    for op in (t.verify_ideal, t.ideal_closure, t.quotient_by):
        with pytest.raises(L.DimensionMismatchError, match=f"^subspace in ambient dimension {ambient}, not 8$"):
            op(sub)


def test_product_span_refuses_a_subspace_of_another_dimension(sl2):
    # both used to raise IndexError
    wide = L.span([[0] * 7 + [1]])
    with pytest.raises(L.DimensionMismatchError, match="^left subspace in ambient dimension 8, not 3$"):
        sl2.product_span(wide)
    with pytest.raises(L.DimensionMismatchError, match="^right subspace in ambient dimension 8, not 3$"):
        sl2.product_span(full_space(3), wide)


def test_quotient_map_refuses_kept_coordinates_other_than_the_complement():
    # (0, 1) used to raise KeyError: 2, and (0, 1, 2, 6, 7, 3) to return a dim-6 element
    t = L.make_L_family(1, 0, 1)
    ideal = t.squares_ideal()
    assert ideal.pivots == (3, 4, 5)
    for kept in ((0, 1), (0, 1, 2, 6, 7, 3)):
        with pytest.raises(L.DimensionMismatchError, match="is not the complement"):
            L.QuotientMap(ideal, kept)(t.basis_element("f"))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_bilinear_is_the_bracket_on_random_vectors(data):
    t = data.draw(sparse_constant_tables())
    coords = st.dictionaries(st.integers(min_value=0, max_value=t.dim - 1), small_rationals, max_size=t.dim)
    u, v = data.draw(coords), data.draw(coords)
    want = bracket(t, core.sparse_element(t.dim, u), core.sparse_element(t.dim, v))
    got = core.bilinear(t.constants(), [u], core.transpose([v], t.dim))
    assert got == ({(0, 0): {k: c.constant_value() for k, c in want.nonzero.items()}} if want.nonzero else {})


def test_bilinear_drops_what_cancels():
    products = {("a", "a"): {"a": 1}, ("b", "b"): {"a": -1}, ("a", "b"): {"b": 1}, ("b", "a"): {"b": -1}}
    t = L.AlgebraTable.from_products("c", ("a", "b"), products)
    one = Fraction(1)
    rows = [{0: one, 1: one}, {0: one, 1: -one}]  # a + b and a - b
    # [a+b, a+b] = a + b - b - a and [a-b, a-b] = a - b + b - a are left out
    assert core.bilinear(t.constants(), rows, core.transpose(rows, 2)) == {
        (0, 1): {0: 2 * one, 1: -2 * one}, (1, 0): {0: 2 * one, 1: 2 * one},
    }
    # with [a, a] = a + b, [a+b, a+b] = b keeps no zero coordinate at a
    t = L.AlgebraTable.from_products("c", ("a", "b"), {**products, ("a", "a"): {"a": 1, "b": 1}})
    assert core.bilinear(t.constants(), rows[:1], core.transpose(rows[:1], 2)) == {(0, 0): {1: one}}


def test_quotient_collapses_squares():
    t = L.make_L_family(1, 0, 1)
    quotient, proj = t.quotient_by(t.squares_ideal())
    assert quotient.basis == ("e", "h", "f", "y1", "y2")
    assert quotient == L.make_direct_sum(L.make_sl2(), L.make_r2())
    # the projection is an algebra map
    rng = random.Random(11)
    for _ in range(20):
        u = L.element_from([rng.randint(-4, 4) for _ in range(t.dim)])
        v = L.element_from([rng.randint(-4, 4) for _ in range(t.dim)])
        assert proj(bracket(t, u, v)) == bracket(quotient, proj(u), proj(v))


def test_quotient_by_other_verified_ideal():
    # span{x0,x1,x2,y1} is an ideal of L(1,0,1) beyond the squares ideal
    t = L.make_L_family(1, 0, 1)
    sub = L.span([t.basis_element(s) for s in ("x0", "x1", "x2", "y1")])
    t.verify_ideal(sub)
    quotient, _ = t.quotient_by(sub)
    assert quotient.basis == ("e", "h", "f", "y2")
    assert quotient.check_leibniz().passed
    expected = L.AlgebraTable.from_products(
        "sl2_plus_line",
        ("e", "h", "f", "y2"),
        {
            ("e", "h"): {"e": 2},
            ("e", "f"): {"h": 1},
            ("h", "e"): {"e": -2},
            ("h", "f"): {"f": 2},
            ("f", "e"): {"h": -1},
            ("f", "h"): {"f": -2},
        },
    )
    assert quotient == expected


def test_quotient_by_full_and_zero(sl2):
    q, _ = sl2.quotient_by(L.span([], 3))
    assert q == sl2
    q, _ = sl2.quotient_by(full_space(3))
    assert q.dim == 0


def test_quotient_map_refuses_an_element_of_another_dimension():
    t = L.make_L_family(1, 0, 1)
    _, proj = t.quotient_by(t.squares_ideal())
    for el in (L.make_sl2().basis_element(0), L.element_from([1] * 12)):
        with pytest.raises(L.DimensionMismatchError, match=f"dimension {el.dim} projected from dimension 8"):
            proj(el)


def test_quotient_map_cache_takes_no_part_in_equality_hash_or_repr():
    t = L.make_L_family(1, 0, 1)
    _, proj = t.quotient_by(t.squares_ideal())
    fresh = L.QuotientMap(proj.ideal, proj.kept)
    assert proj._echelon is not None and fresh._echelon is None  # quotient_by projected through proj
    assert proj == fresh and hash(proj) == hash(fresh) and repr(proj) == repr(fresh)
    assert "_echelon" not in repr(proj) and "_index" not in repr(proj)
    assert proj(t.basis_element("y1")) == fresh(t.basis_element("y1"))


def test_quotient_map_projects_poly_coefficients():
    t = L.make_L_family(1, 0, 1)
    quotient, proj = t.quotient_by(t.squares_ideal())
    s = L.Poly.param("s")
    el = s * t.basis_element("x0") + t.basis_element("e") + (s * s) * t.basis_element("y2")
    assert proj(el) == quotient.basis_element("e") + (s * s) * quotient.basis_element("y2")
    assert proj(el) == ref_project(proj, el)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_quotient_map_matches_the_row_by_row_reference_on_random_tables(data):
    t = data.draw(sparse_constant_tables())
    coords = st.dictionaries(st.integers(min_value=0, max_value=t.dim - 1), small_rationals, max_size=t.dim)
    polys = st.dictionaries(st.integers(min_value=0, max_value=t.dim - 1), rational_polys(("s", "u")), max_size=t.dim)
    for table in (t, L.apply_basis_change(t, data.draw(invertible_changes(t.dim)))):
        seed = core.sparse_element(table.dim, data.draw(coords))
        ideals = [table.squares_ideal()] + ([table.ideal_closure(L.span([seed]))] if seed.nonzero else [])
        for ideal in ideals:
            quotient, proj = table.quotient_by(ideal)
            # the quotient's products are the projected products, read from the stored rows
            for p, i in enumerate(proj.kept):
                for q, j in enumerate(proj.kept):
                    assert quotient.entry(p, q) == ref_project(proj, table.entry(i, j))
            for el in (core.sparse_element(table.dim, data.draw(coords)), L.Element.of(table.dim, data.draw(polys))):
                assert proj(el) == ref_project(proj, el)


def test_right_mult_matrix():
    t = L.make_module_extension(3, Fraction(2, 5))
    ry2 = right_mult_matrix(t, t.basis_element("y2"))
    for k in range(4):
        i = t.index(f"x{k}")
        assert ry2[i][i] == Fraction(2, 5)
    rh = right_mult_matrix(t, t.basis_element("h"))
    for k in range(4):
        i = t.index(f"x{k}")
        assert rh[i][i] == 3 - 2 * k


def test_submodule_closure_irreducibility():
    names, e, f, h = L.make_sl2_module(4)
    for k in range(5):
        seed = L.zero_element(5) + L.element_from([1 if i == k else 0 for i in range(5)])
        closed = submodule_closure((e, f, h), seed)
        assert closed.dim == 5, f"x{k} does not generate"


def test_det_and_adjugate_matches_elimination():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            m = mat_from_rows(rows)
            det, adj = det_and_adjugate(list(map(core.sparse, m)))
            # M . adj = det . I
            prod = mat_mul(m, dense(adj, n))
            for i in range(n):
                for j in range(n):
                    assert prod[i][j] == (det if i == j else 0)


def ref_mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = L.ZERO
            for k in range(mid):
                if a[i][k] and b[k][j]:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def sparse_matrices(n, m):
    entry = st.one_of(st.just(L.ZERO), st.just(L.ZERO), rational_polys(("p", "q")))
    return st.lists(st.tuples(*[entry] * m), min_size=n, max_size=n).map(tuple)


@given(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).flatmap(
    lambda s: st.tuples(sparse_matrices(s[0], s[1]), sparse_matrices(s[1], s[2]))
))
def test_mat_mul_matches_dense_reference(pair):
    a, b = pair
    assert mat_mul(a, b) == ref_mat_mul(a, b)


def test_det_and_adjugate_parametric():
    b = Poly.param("b")
    m = mat_from_rows([[1, b], [0, 1]])
    det, adj = det_and_adjugate(list(map(core.sparse, m)))
    assert det == L.ONE
    assert dense(adj, 2) == mat_from_rows([[1, -1 * b], [0, 1]])
    assert mat_mul(m, dense(adj, 2)) == mat_identity(2)


def test_squares_are_left_annihilated():
    # [L, I] = 0 holds in any Leibniz algebra
    for t in constant_fixture_tables():
        ideal = t.squares_ideal()
        for v in ideal.as_elements():
            for i in range(t.dim):
                assert bracket(t, t.basis_element(i), v).is_zero(), t.name


def test_quotients_are_lie():
    for t in constant_fixture_tables():
        quotient, _ = t.quotient_by(t.squares_ideal())
        assert quotient.check_lie().passed, t.name


def test_invariant_profile_L_family():
    profile = L.make_L_family(0, 0, 0).invariant_profile()
    assert profile.as_dict() == {
        "dim": 8,
        "derived_dim": 7,
        "derived_series": (8, 7, 6),
        "lower_central_series": (8, 7),
        "left_center_dim": 0,
        "right_center_dim": 3,
        "squares_ideal_dim": 3,
    }


def test_invariant_profile_small(sl2, r2):
    assert sl2.invariant_profile().derived_series == (3,)
    assert r2.invariant_profile().derived_series == (2, 1, 0)
    assert r2.invariant_profile().lower_central_series == (2, 1)
    ab = L.make_abelian(2).invariant_profile()
    assert ab.left_center_dim == ab.right_center_dim == 2


def test_from_products_validation():
    with pytest.raises(L.AlgebraError):
        L.AlgebraTable.from_products("bad", ("a", "a"), {})
    with pytest.raises(L.AlgebraError):
        L.AlgebraTable.from_products("bad", ("a",), {("a", "a"): {"q": 1}})
    with pytest.raises(L.AlgebraError):
        # undeclared parameter in an entry
        L.AlgebraTable.from_products("bad", ("a",), {("a", "a"): {"a": Poly.param("t")}})


def test_undeclared_parameter_in_one_entry():
    s, t = Poly.param("s"), Poly.param("t")
    sl2 = L.make_sl2()
    products = {
        (sl2.basis[i], sl2.basis[j]): {sl2.basis[k]: c for k, c in enumerate(sl2.entry(i, j).coords) if c}
        for i in range(3)
        for j in range(3)
    }
    products[("f", "f")] = {"h": 2 + s * t * t}
    with pytest.raises(L.DimensionMismatchError) as err:
        L.AlgebraTable.from_products("bad", sl2.basis, products)
    assert str(err.value) == "undeclared parameters in table entry: ['s', 't']"
    # declared names pass; only the undeclared ones are named
    assert L.AlgebraTable.from_products("ok", sl2.basis, products, params=("s", "t")).is_parametric()
    with pytest.raises(L.DimensionMismatchError) as err:
        L.AlgebraTable.from_products("bad", sl2.basis, products, params=("s",))
    assert str(err.value) == "undeclared parameters in table entry: ['t']"
    with pytest.raises(L.DimensionMismatchError) as err:
        L.AlgebraTable.from_products("bad", sl2.basis, products, params=("t",))
    assert str(err.value) == "undeclared parameters in table entry: ['s']"


def test_evaluate_table(prefamily):
    t = prefamily.evaluate({"l": 0, "mu": 1, "a": 1, "b": 0})
    assert not t.is_parametric()
    assert t.params == ()
    assert t == L.make_L_family(0, 1, 1)
    with pytest.raises(L.MissingParameterError):
        prefamily.evaluate({"l": 0})


def test_submodule_closure_rejects_parametric_operator():
    t = Poly.param("t")
    op = sparse_matrix(mat_from_rows([[0, t], [0, 0]]))
    with pytest.raises(L.ParametricError, match="not constant"):
        submodule_closure((op,), L.element_from([1, 0]))


# ---------------------------------------------------------------------------
# reference kernels: the dense row reduction and the Element-bracket loops
# that the sparse Fraction kernel replaced, kept here to check it against


def ref_rref(rows, ambient):
    mat = [list(r) for r in rows if any(r)]
    out, pivots = [], []
    for col in range(ambient):
        pivot_at = next((idx for idx, r in enumerate(mat) if r[col]), None)
        if pivot_at is None:
            continue
        pivot_row = mat.pop(pivot_at)
        inv = Fraction(1) / pivot_row[col]
        pivot_row = [c * inv for c in pivot_row]
        for rows_list in (out, mat):
            for r in rows_list:
                c = r[col]
                if c:
                    for k in range(ambient):
                        r[k] -= c * pivot_row[k]
        mat = [r for r in mat if any(r)]
        out.append(pivot_row)
        pivots.append(col)
    return tuple(tuple(r) for r in out), tuple(pivots)


def ref_span(vectors, ambient):
    rows = [tuple(c.constant_value() for c in v.coords) if isinstance(v, L.Element) else v for v in vectors]
    dense_rows, pivots = ref_rref(rows, ambient)
    return L.Subspace(ambient, tuple(core.sparse(r) for r in dense_rows), pivots)


def ref_product_span(t, left, right):
    vectors = [bracket(t, u, v) for u in left.as_elements() for v in right.as_elements()]
    return ref_span(vectors, t.dim)


def ref_ideal_closure(t, seed):
    current = seed
    while True:
        elements = current.as_elements()
        vectors = list(elements)
        for el in elements:
            for j in range(t.dim):
                b = t.basis_element(j)
                vectors += [bracket(t, el, b), bracket(t, b, el)]
        nxt = ref_span(vectors, t.dim)
        if nxt.dim == current.dim:
            return current
        current = nxt


def ref_squares_ideal(t):
    seed = [t.entry(i, i) for i in range(t.dim)]
    seed += [t.entry(i, j) + t.entry(j, i) for i in range(t.dim) for j in range(i + 1, t.dim)]
    return ref_ideal_closure(t, ref_span(seed, t.dim))


def ref_center_dim(t, side):
    constraints = []
    for j in range(t.dim):
        for k in range(t.dim):
            entries = [t.entry(i, j) if side == "left" else t.entry(j, i) for i in range(t.dim)]
            constraints.append([e.coords[k].constant_value() for e in entries])
    return t.dim - len(ref_rref(constraints, t.dim)[0])


def ref_invariant_profile(t):
    full = full_space(t.dim)

    def series(step):
        dims, current = [t.dim], full
        while True:
            nxt = step(current)
            if nxt.dim == current.dim:
                return tuple(dims)
            dims.append(nxt.dim)
            current = nxt

    derived = series(lambda s: ref_product_span(t, s, s))
    lower = series(lambda s: ref_product_span(t, s, full))
    return L.InvariantProfile(
        dim=t.dim,
        derived_dim=derived[1] if len(derived) > 1 else derived[0],
        derived_series=derived,
        lower_central_series=lower,
        left_center_dim=ref_center_dim(t, "left"),
        right_center_dim=ref_center_dim(t, "right"),
        squares_ideal_dim=ref_squares_ideal(t).dim,
    )


def sparse_rows(ambient, max_rows=6):
    entry = st.one_of(st.just(Fraction(0)), small_rationals)
    return st.lists(st.lists(entry, min_size=ambient, max_size=ambient), max_size=max_rows)


@given(st.integers(min_value=0, max_value=7).flatmap(lambda n: st.tuples(st.just(n), sparse_rows(n, 9))))
def test_rref_matches_dense_reference(case):
    ambient, rows = case
    assert rref(rows, ambient) == ref_rref(rows, ambient)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_sparse_kernel_matches_reference(data):
    t = data.draw(sparse_constant_tables())
    left = ref_span(data.draw(sparse_rows(t.dim, 3)), t.dim)
    right = ref_span(data.draw(sparse_rows(t.dim, 3)), t.dim)
    assert t.product_span(left, right) == ref_product_span(t, left, right)
    full = full_space(t.dim)
    assert t.product_span(full, full) == ref_product_span(t, full, full)
    assert t.ideal_closure(left) == ref_ideal_closure(t, left)
    assert t.squares_ideal() == ref_squares_ideal(t)
    for side in ("left", "right"):
        assert spaces.center_dim(t, side) == ref_center_dim(t, side)
    assert t.invariant_profile() == ref_invariant_profile(t)

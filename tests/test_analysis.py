import functools
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg as L
from leibnizalg import scalars
from leibnizalg.basis import BasisChange, det_and_adjugate
from leibnizalg.core import sparse
from leibnizalg.scalars import Poly, _join_terms, format_term, poly_sort_key, primitive_terms

from conftest import (
    change_matrix,
    dense,
    invertible_changes,
    mat_identity,
    mat_mul,
    mono_cmp,
    parametric_tables,
    poly_from_terms,
    rational_polys,
    ref_residual,
    small_rationals,
    sparse_constant_tables,
    wide_rationals,
)

LAM, A, B = Poly.param("l"), Poly.param("a"), Poly.param("b")


def test_prefamily_constraints_exactly(prefamily):
    constraints = L.extract_constraints(prefamily)
    assert set(constraints) == {LAM - LAM * A}
    assert [str(p) for p in constraints] == ["l - a*l"]


def test_constant_leibniz_table_has_no_constraints(sl2):
    assert len(L.extract_constraints(sl2)) == 0
    assert L.extract_constraints(sl2).satisfied_by({})


def test_constraints_of_generic_zero_weight():
    # m = 0: [x0,h], [x0,e], [x0,f] all vanish, so no sl2-compatibility
    # conditions survive; the ansatz is constrained anyway
    t = L.make_generic_family(L.FamilySpec(0))
    constraints = L.extract_constraints(t)
    zeros = {p: 0 for p in t.params}
    assert constraints.satisfied_by(zeros)


def test_violated_at_reports_a_witness_polynomial(prefamily):
    constraints = L.extract_constraints(prefamily)
    witness = constraints.violated_at({"l": 1, "mu": 0, "a": 0, "b": 0})
    assert witness == LAM - LAM * A
    assert witness.evaluate({"l": 1, "a": 0}) == 1
    assert constraints.violated_at({"l": 0, "mu": 9, "a": 5, "b": 1}) is None


@given(st.fixed_dictionaries({n: st.integers(min_value=-3, max_value=3) for n in ("l", "mu", "a", "b")}))
def test_constraints_are_sound_and_complete(point):
    pre = L.make_L_prefamily()
    constraints = L.extract_constraints(pre)
    table_passes = pre.evaluate(point).check_leibniz().passed
    assert table_passes == constraints.satisfied_by(point)


def test_b_removal_change(prefamily):
    # y2' = y2 + (b/2) x2 eliminates every b product as an identity in b
    change = BasisChange.from_assignments(
        prefamily, {"y2": {"y2": 1, "x2": Fraction(1, 2) * B}}
    )
    moved = L.apply_basis_change(prefamily, change)
    y2, e, h = (moved.index(s) for s in ("y2", "e", "h"))
    assert moved.entry(y2, e).is_zero()
    assert moved.entry(y2, h).is_zero()
    assert moved.entry(y2, y2).is_zero()
    # and the surviving structure is the b = 0 prefamily
    collapsed = moved.evaluate({"b": 7, "l": 2, "mu": 3, "a": 1})
    assert collapsed == prefamily.evaluate({"b": 0, "l": 2, "mu": 3, "a": 1})


def test_identity_change_is_noop(sl2):
    moved = L.apply_basis_change(sl2, BasisChange.identity(3))
    assert moved == sl2


def test_scaling_change_on_sl2(sl2):
    # e' = 2e: [e',f] = 2h, [h,f] unchanged, [e',h] = 2[e,h] = 2e'
    change = BasisChange.from_assignments(sl2, {"e": {"e": 2}})
    moved = L.apply_basis_change(sl2, change)
    assert moved.format_element(moved.entry(0, 2)) == "2*h"
    assert moved.format_element(moved.entry(0, 1)) == "2*e"
    assert moved.format_element(moved.entry(1, 2)) == "2*f"


def test_change_composition(sl2):
    c1 = BasisChange.from_assignments(sl2, {"e": {"e": 2}})
    c2 = BasisChange.from_assignments(sl2, {"e": {"e": 1, "h": 1}})
    in_two_steps = L.apply_basis_change(L.apply_basis_change(sl2, c1), c2)
    # c1 followed by c2 is the one matrix c2.c1
    at_once = L.apply_basis_change(sl2, BasisChange.from_rows(mat_mul(change_matrix(c2), change_matrix(c1))))
    assert in_two_steps == at_once


def test_inverse_matrix():
    shear = BasisChange.from_rows([[1, B], [0, 1]])
    inv = shear.inverse()
    assert mat_mul(change_matrix(shear), change_matrix(inv)) == mat_identity(2)
    with pytest.raises(L.BasisChangeError, match="singular"):
        BasisChange.from_rows([[1, 1], [2, 2]]).inverse()
    with pytest.raises(L.BasisChangeError, match="not constant"):
        BasisChange.from_rows([[B, 0], [0, 1]]).inverse()


def test_non_square_changes_are_rejected(sl2):
    # a short row used to read as zero-padded, a long one to end in an IndexError
    with pytest.raises(L.DimensionMismatchError, match="change row 0 has length 2 in a change of 3 rows"):
        BasisChange.from_rows([[1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(L.DimensionMismatchError, match="change row 0 has length 4 in a change of 3 rows"):
        BasisChange.from_rows([[1, 0, 0, 5], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(L.DimensionMismatchError, match="change row 1 has length 2"):
        BasisChange.from_assignments(sl2, {"h": L.element_from([1, 1])})


def test_verify_isomorphism_positive():
    t1 = L.make_L_family(2, 3, 1)
    t2 = L.make_L_family(1, 0, 1)
    change = BasisChange.from_assignments(
        t1, {"y1": {"y1": Fraction(1, 2)}, "y2": {"y1": Fraction(-3, 2), "y2": 1}}
    )
    assert L.verify_isomorphism(t1, t2, change).passed


def test_verify_isomorphism_negative_names_the_entry():
    t1 = L.make_L_family(2, 3, 1)
    t2 = L.make_L_family(1, 0, 1)
    verdict = L.verify_isomorphism(t1, t2, BasisChange.identity(8))
    assert not verdict.passed
    assert verdict.witness == ("e", "y1")
    assert "maps to 2*x0, expected x0" in verdict.detail


@pytest.mark.parametrize("mu", [1, 5, Fraction(-2, 3)])
@pytest.mark.parametrize("a", [1, 2, Fraction(-3, 7), Fraction(1, 9)])
def test_mu_is_removable_when_a_is_nonzero(mu, a):
    # L(0,mu,a) = L(0,0,a) for a != 0: the sl2 shift by -(mu/a) times the module
    # vector of the same weight cancels [e|h|f, y2] against [x_k, y2] = a*x_k
    t1, t2 = L.make_L_family(0, mu, a), L.make_L_family(0, 0, a)
    s = Fraction(mu) / a
    change = BasisChange.from_assignments(
        t1, {"e": {"e": 1, "x0": -s}, "h": {"h": 1, "x1": -s}, "f": {"f": 1, "x2": -s / 2}}
    )
    assert L.verify_isomorphism(t1, t2, change).passed


def test_identity_is_not_an_isomorphism_across_the_a_parameter():
    # L(0,0,0) and L(0,0,1) agree everywhere except [x_k, y2] = a*x_k
    verdict = L.verify_isomorphism(
        L.make_L_family(0, 0, 0), L.make_L_family(0, 0, 1), BasisChange.identity(8)
    )
    assert not verdict.passed
    assert verdict.witness == ("x0", "y2")
    assert "maps to 0, expected x0" in verdict.detail


def test_verify_isomorphism_guards(sl2, r2, prefamily):
    with pytest.raises(L.DimensionMismatchError):
        L.verify_isomorphism(sl2, r2, BasisChange.identity(3))
    with pytest.raises(L.ParametricError):
        L.verify_isomorphism(prefamily, prefamily, BasisChange.identity(8))


def _random_invertible_change(rng: random.Random, dim: int) -> BasisChange:
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)
        ]
        change = BasisChange.from_rows(rows)
        try:
            change.inverse()
        except L.BasisChangeError:
            continue
        return change


def test_profile_is_basis_invariant():
    t = L.make_L_family(1, 0, 1)
    base = t.invariant_profile()
    rng = random.Random(2024)
    for _ in range(5):
        change = _random_invertible_change(rng, t.dim)
        moved = L.apply_basis_change(t, change)
        assert moved.invariant_profile() == base


def test_compare_profiles_distinguishes(sl2):
    padded = L.make_direct_sum(L.make_r2(), L.make_abelian(1))
    report = L.ProfileReport.compare(sl2.invariant_profile(), padded.invariant_profile())
    assert report.status == L.DISTINGUISHED
    assert report.distinguished
    assert "derived_series" in report.separating


def test_compare_profiles_inconclusive():
    t1 = L.make_L_family(1, 0, 1)
    t2 = L.make_L_family(0, 1, 1)
    report = L.ProfileReport.compare(t1.invariant_profile(), t2.invariant_profile())
    assert report.status == L.INCONCLUSIVE
    assert report.separating == ()
    assert not report.distinguished


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_constant_change_metamorphic(data):
    t = data.draw(sparse_constant_tables())
    change = data.draw(invertible_changes(t.dim))
    inv = change_matrix(change.inverse())
    assert mat_mul(inv, change_matrix(change)) == mat_identity(t.dim)
    det, adj = det_and_adjugate([row.nonzero for row in change.rows])
    assert inv == tuple(tuple(x * Fraction(1, det.constant_value()) for x in row) for row in dense(adj, t.dim))
    moved = L.apply_basis_change(t, change)
    assert moved.invariant_profile() == t.invariant_profile()
    assert L.verify_isomorphism(t, moved, change).passed
    # a row that is a multiple of another (or zero, in dim 1) makes it singular
    i = data.draw(st.integers(min_value=0, max_value=t.dim - 1))
    j = data.draw(st.integers(min_value=0, max_value=t.dim - 1).filter(lambda j: j != i or t.dim == 1))
    scale = data.draw(small_rationals) if j != i else 0
    rows = list(change.rows)
    rows[i] = scale * rows[j]
    singular = BasisChange(rows)
    with pytest.raises(L.BasisChangeError, match="singular"):
        singular.inverse()
    with pytest.raises(L.BasisChangeError, match="singular"):
        L.apply_basis_change(t, singular)


# ---------------------------------------------------------------------------
# reference basis change: every pair of new basis vectors bracketed through
# every pair of old ones, then one dense product with C^-1


def ref_apply_basis_change(t, change):
    """new[p][q] = (sum over i, j of C[p][i]*C[q][j]*[b_i, b_j]) . C^-1."""
    c, n = change_matrix(change), t.dim
    inv = change_matrix(change.inverse())
    assert mat_mul(c, inv) == mat_identity(n)
    rows = []
    for p in range(n):
        w = [[L.ZERO] * n for _ in range(n)]  # row q: [c_p, c_q] in old coordinates
        for q in range(n):
            for i in range(n):
                for j in range(n):
                    for k, x in t.entry(i, j).nonzero.items():
                        w[q][k] = w[q][k] + c[p][i] * c[q][j] * x
        rows.append({q: L.Element(coords) for q, coords in enumerate(mat_mul(tuple(map(tuple, w)), inv))})
    extra = tuple(sorted(change.parameters() - set(t.params)))
    return L.AlgebraTable(t.name, t.params + extra, t.basis, rows)


@functools.cache
def parametric_family_tables():
    return (
        L.make_L_prefamily(),
        L.make_generic_family(L.FamilySpec(1, include_sl2_R_products=True)),
        L.make_generic_family(L.FamilySpec(2)),
    )


@st.composite
def unipotent_changes(draw, dim: int) -> BasisChange:
    """I + N in a fresh parameter s: N is nonzero only above the diagonal
    in a random order of the basis, so the determinant is 1."""
    order = draw(st.permutations(range(dim)))
    rows = [[L.ONE if i == j else L.ZERO for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(min_value=1, max_value=dim)) if dim > 1 else 0):
        a = draw(st.integers(min_value=0, max_value=dim - 2))
        b = draw(st.integers(min_value=a + 1, max_value=dim - 1))
        e = draw(st.integers(min_value=1, max_value=2))
        rows[order[a]][order[b]] += Poly({(("s", e),): draw(small_rationals)})
    return BasisChange.from_rows(rows)


TABLE_KINDS = {
    "constant": sparse_constant_tables(),
    "parametric": st.deferred(lambda: st.sampled_from(parametric_family_tables())),
}
CHANGE_KINDS = {"constant": invertible_changes, "unipotent": unipotent_changes}


@pytest.mark.parametrize("table_kind", sorted(TABLE_KINDS))
@pytest.mark.parametrize("change_kind", sorted(CHANGE_KINDS))
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_basis_change_matches_dense_reference(table_kind, change_kind, data):
    t = data.draw(TABLE_KINDS[table_kind])
    change = data.draw(CHANGE_KINDS[change_kind](t.dim))
    assert L.apply_basis_change(t, change) == ref_apply_basis_change(t, change)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_sparse_det_and_adjugate_matches_dense_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.just(L.ZERO), rational_polys(("p", "q")))
    m = list(map(sparse, data.draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n))))
    det, adj = det_and_adjugate(m)
    det_i = tuple(tuple(det if i == j else L.ZERO for j in range(n)) for i in range(n))
    assert mat_mul(dense(m, n), dense(adj, n)) == det_i
    change = data.draw(unipotent_changes(n))
    assert mat_mul(change_matrix(change.inverse()), change_matrix(change)) == mat_identity(n)


# ---------------------------------------------------------------------------
# reference constraint extraction: the dense residual loop and the Fraction
# normalization that the scaled integer kernel replaced


REF_MONO_KEY = cmp_to_key(mono_cmp)


def ref_normalize_primitive(p):
    nums = [c.numerator for c in p.terms.values()]
    dens = [c.denominator for c in p.terms.values()]
    content = Fraction(gcd(*nums), lcm(*dens))
    scaled = {mono: coeff / content for mono, coeff in p.terms.items()}
    lead_mono = min(scaled, key=REF_MONO_KEY)
    if scaled[lead_mono] < 0:
        scaled = {mono: -coeff for mono, coeff in scaled.items()}
    return Poly(scaled)


def ref_extract_constraints(t):
    found = set()
    for i in range(t.dim):
        for j in range(t.dim):
            for k in range(t.dim):
                for poly in ref_residual(t, i, j, k).coords:
                    if poly:
                        found.add(ref_normalize_primitive(poly))
    return L.ConstraintSet.of(found)


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_scaled_kernel_matches_dense_reference(data):
    t = data.draw(parametric_tables())
    got, want = L.extract_constraints(t), ref_extract_constraints(t)
    assert got == want
    assert [str(p) for p in got] == [str(p) for p in want]
    for p in got:
        assert all(type(c) is Fraction for c in p.terms.values())
    index = st.integers(min_value=0, max_value=t.dim - 1)
    for i, j, k in data.draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=6)):
        assert t.residual(i, j, k) == ref_residual(t, i, j, k)


@st.composite
def tables_with_top_exponent(draw):
    """(top, table): a random parametric table of dim <= 4 whose largest
    exponent is exactly top, one of the values at which the packed
    exponent field (2*top).bit_length() is about to widen or just widened."""
    top = draw(st.sampled_from((1, 2, 3, 4, 7, 8)))
    # sorted, so that each monomial lists its names in order, as Mono requires
    params = tuple(sorted(draw(st.lists(st.sampled_from(("a", "a_1", "ab", "b")), min_size=1, max_size=3, unique=True))))
    dim = draw(st.integers(min_value=1, max_value=4))
    basis = tuple(f"b{i}" for i in range(dim))
    exponents = st.lists(st.integers(min_value=0, max_value=top), min_size=len(params), max_size=len(params))
    polys = st.lists(st.tuples(exponents, wide_rationals), min_size=1, max_size=3).map(
        lambda terms: poly_from_terms((tuple((n, e) for n, e in zip(params, exps) if e), c) for exps, c in terms)
    )
    index = st.sampled_from(basis)
    products = draw(st.dictionaries(st.tuples(index, index), st.dictionaries(index, polys, max_size=2), max_size=2 * dim))
    # one entry holds a term of degree exactly top in one parameter
    pair, k, name = draw(st.tuples(index, index)), draw(index), draw(st.sampled_from(params))
    products.setdefault(pair, {})[k] = draw(wide_rationals) * L.Poly({((name, top),): Fraction(1)})
    return top, L.AlgebraTable.from_products("top_exponent", basis, products, params=params)


@settings(deadline=None, max_examples=60)
@given(tables_with_top_exponent())
def test_packed_kernel_matches_dense_reference_at_field_widths(case):
    top, t = case
    polys = [p for row in t.rows for entry in row.values() for p in entry.nonzero.values()]
    exps = [e for p in polys for m in p.terms for _, e in m]
    assert max(exps) == top
    got, want = L.extract_constraints(t), ref_extract_constraints(t)
    assert got == want
    assert [str(p) for p in got] == [str(p) for p in want]


CANONICAL_CASES = [
    L.FamilySpec(1, include_sl2_R_products=True, include_sl2_defects=True),
    L.FamilySpec(2, include_sl2_R_products=True),
    L.FamilySpec(4),
]


@pytest.mark.parametrize("spec", CANONICAL_CASES, ids=repr)
def test_constraint_set_is_held_in_canonical_order(spec):
    cs = L.extract_constraints(L.make_generic_family(spec))
    members = list(cs)
    assert members == sorted(cs, key=poly_sort_key)
    for p in members:
        assert list(p.terms.items()) == p.sorted_terms()
    rng = random.Random(len(members))
    # equal but distinct Polys, with their terms in another order, plus duplicates
    fresh = [Poly(dict(reversed(p.terms.items()))) for p in members]
    shuffled = fresh + rng.sample(members, len(members) // 2)
    rng.shuffle(shuffled)
    again = L.ConstraintSet.of(shuffled)
    assert again == cs and hash(again) == hash(cs)
    assert list(again) == members and len(again) == len(cs)
    assert all(p in again for p in fresh)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: rational_polys(tuple(f"p{i}" for i in range(n)))
))
def test_normalize_primitive_matches_reference(p):
    # primitive_terms on the integer terms of the cleared polynomial
    d = lcm(*(c.denominator for c in p.terms.values()))
    terms = {mono: int(c * d) for mono, c in p.terms.items()}
    got = primitive_terms(terms, min(terms, key=REF_MONO_KEY))
    assert all(type(c) is int for c in got.values())
    assert Poly({mono: Fraction(c) for mono, c in got.items()}) == ref_normalize_primitive(p)


# ---------------------------------------------------------------------------
# reference printing order: terms and polynomials sorted through
# cmp_to_key(mono_cmp), as before the memoized monomial key


def ref_sorted_terms(p):
    return sorted(p.terms.items(), key=lambda t: REF_MONO_KEY(t[0]))


def ref_poly_sort_key(p):
    terms = ref_sorted_terms(p)
    return (len(terms), tuple((REF_MONO_KEY(m), c) for m, c in terms))


def ref_printed(constraints):
    ordered = sorted(constraints.polys, key=ref_poly_sort_key)
    return [_join_terms(format_term(c, m) for m, c in ref_sorted_terms(p)) for p in ordered]


@st.composite
def constraint_sets(draw):
    """Polynomials over two or three parameters whose names share prefixes."""
    names = draw(st.lists(st.sampled_from(["a", "a0", "a_1", "ab", "b", "Z"]), min_size=2, max_size=3, unique=True))
    params = tuple(sorted(names))
    return L.ConstraintSet.of(draw(st.lists(rational_polys(params), max_size=8)))


@given(constraint_sets())
def test_constraint_set_prints_in_reference_order(constraints):
    assert [str(p) for p in constraints] == ref_printed(constraints)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_constraint_lines_are_str_without_sorting(data):
    extracted = L.extract_constraints(data.draw(parametric_tables()))
    # equal members rebuilt with their terms in a random order
    shuffled = L.ConstraintSet.of(Poly(dict(data.draw(st.permutations(list(p.terms.items()))))) for p in extracted)
    for constraints in (extracted, shuffled, data.draw(constraint_sets())):
        want = [str(p) for p in constraints]
        with mock.patch.object(scalars, "MONO_KEY", wraps=scalars.MONO_KEY) as key:
            got = list(constraints.lines())
        assert key.call_count == 0 and got == want
        assert all(list(p.terms.items()) == p.sorted_terms() for p in constraints)


def test_generic_constraints_print_in_reference_order():
    spec = L.FamilySpec(1, include_sl2_R_products=True, include_sl2_defects=True)
    constraints = L.extract_constraints(L.make_generic_family(spec))
    assert len(constraints) >= 100
    assert [str(p) for p in constraints] == ref_printed(constraints)

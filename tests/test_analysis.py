import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg as L
from leibnizalg.analysis import BasisChange
from leibnizalg.core import det_and_adjugate, mat_identity, mat_mul
from leibnizalg.scalars import MONO_KEY, Poly, normalize_primitive

from conftest import (
    invertible_changes,
    parametric_tables,
    rational_polys,
    ref_residual,
    small_rationals,
    sparse_constant_tables,
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
    assert moved.table[y2][e].is_zero()
    assert moved.table[y2][h].is_zero()
    assert moved.table[y2][y2].is_zero()
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
    at_once = L.apply_basis_change(sl2, c1.then(c2))
    assert in_two_steps == at_once


def test_inverse_matrix():
    shear = BasisChange.from_rows([[1, B], [0, 1]])
    inv = shear.inverse_matrix()
    assert mat_mul(shear.rows, inv) == mat_identity(2)
    with pytest.raises(L.BasisChangeError, match="singular"):
        BasisChange.from_rows([[1, 1], [2, 2]]).inverse_matrix()
    with pytest.raises(L.BasisChangeError, match="not constant"):
        BasisChange.from_rows([[B, 0], [0, 1]]).inverse_matrix()


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
            change.inverse_matrix()
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
    report = L.compare_profiles(sl2, padded)
    assert report.status == L.DISTINGUISHED
    assert report.distinguished
    assert "derived_series" in report.separating


def test_compare_profiles_inconclusive():
    t1 = L.make_L_family(1, 0, 1)
    t2 = L.make_L_family(0, 1, 1)
    report = L.compare_profiles(t1, t2)
    assert report.status == L.INCONCLUSIVE
    assert report.separating == ()
    assert not report.distinguished


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_constant_change_metamorphic(data):
    t = data.draw(sparse_constant_tables())
    change = data.draw(invertible_changes(t.dim))
    inv = change.inverse_matrix()
    assert mat_mul(inv, change.rows) == mat_identity(t.dim)
    det, adj = det_and_adjugate(change.rows)
    assert inv == tuple(tuple(x * Fraction(1, det.constant_value()) for x in row) for row in adj)
    moved = L.apply_basis_change(t, change)
    assert moved.invariant_profile() == t.invariant_profile()
    assert L.verify_isomorphism(t, moved, change).passed
    # a row that is a multiple of another (or zero, in dim 1) makes it singular
    i = data.draw(st.integers(min_value=0, max_value=t.dim - 1))
    j = data.draw(st.integers(min_value=0, max_value=t.dim - 1).filter(lambda j: j != i or t.dim == 1))
    scale = data.draw(small_rationals) if j != i else 0
    rows = list(change.rows)
    rows[i] = tuple(scale * x for x in rows[j])
    singular = BasisChange(tuple(rows))
    with pytest.raises(L.BasisChangeError, match="singular"):
        singular.inverse_matrix()
    with pytest.raises(L.BasisChangeError, match="singular"):
        L.apply_basis_change(t, singular)


# ---------------------------------------------------------------------------
# reference constraint extraction: the dense residual loop and the Fraction
# normalization that the scaled integer kernel replaced


def ref_normalize_primitive(p):
    nums = [c.numerator for c in p.terms.values()]
    dens = [c.denominator for c in p.terms.values()]
    content = Fraction(gcd(*nums), lcm(*dens))
    scaled = {mono: coeff / content for mono, coeff in p.terms.items()}
    lead_mono = min(scaled, key=MONO_KEY)
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


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: rational_polys(tuple(f"p{i}" for i in range(n)))
))
def test_normalize_primitive_matches_reference(p):
    got = normalize_primitive(p)
    assert got == ref_normalize_primitive(p)
    assert all(type(c) is Fraction for c in got.terms.values())

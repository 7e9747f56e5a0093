from fractions import Fraction

import pytest

import leibnizalg as L
from leibnizalg.scalars import Poly

from conftest import bracket, dense, mat_mul, mat_sub


def test_sl2_table(sl2):
    assert sl2.basis == ("e", "h", "f")
    assert sl2.format_element(sl2.entry(0, 1)) == "2*e"
    assert sl2.format_element(sl2.entry(0, 2)) == "h"
    assert sl2.format_element(sl2.entry(1, 2)) == "2*f"
    assert sl2.check_lie().passed


def test_r2_table(r2):
    assert r2.basis == ("y1", "y2")
    assert bracket(r2, r2.basis_element("y1"), r2.basis_element("y2")) == r2.basis_element("y1")
    assert r2.check_lie().passed


def test_abelian():
    t = L.make_abelian(3)
    assert t.basis == ("z0", "z1", "z2")
    assert all(t.entry(i, j).is_zero() for i in range(3) for j in range(3))
    for dim in (0, -3):
        with pytest.raises(L.AdmissibilityError, match="positive integer"):
            L.make_abelian(dim)


def test_direct_sum_blocks(sl2, r2):
    t = L.make_direct_sum(sl2, r2)
    assert t.basis == ("e", "h", "f", "y1", "y2")
    assert bracket(t, t.basis_element("e"), t.basis_element("y1")).is_zero()
    assert bracket(t, t.basis_element("y1"), t.basis_element("y2")) == t.basis_element("y1")
    assert t.check_lie().passed


def test_direct_sum_renames_clashes(r2):
    t = L.make_direct_sum(r2, r2)
    assert t.basis == ("y1", "y2", "y1_2", "y2_2")
    assert bracket(t, t.basis_element("y1_2"), t.basis_element("y2_2")) == t.basis_element("y1_2")
    assert bracket(t, t.basis_element("y1"), t.basis_element("y2_2")).is_zero()


def test_direct_sum_rejects_parametric(prefamily, sl2):
    with pytest.raises(L.ParametricError):
        L.make_direct_sum(prefamily, sl2)


def test_module_matrices_m2():
    names, e, f, h = L.make_sl2_module(2)
    assert names == ("x0", "x1", "x2")
    # sparse rows: row r maps column c to the coefficient of x_r in [x_c, g]
    assert e == [{1: -2}, {2: -2}, {}]
    assert f == [{}, {0: 1}, {1: 1}]
    assert h == [{0: 2}, {}, {2: -2}]
    e, f, h = (dense(x, 3) for x in (e, f, h))
    # H diagonal m-2k; F shifts down; E shifts up with -k(m+1-k)
    assert [h[k][k] for k in range(3)] == [2, 0, -2]
    assert f[1][0] == 1 and f[2][1] == 1
    assert e[0][1] == -2 and e[1][2] == -2


@pytest.mark.parametrize("m", range(11))
def test_module_operator_identities(m):
    e, f, h = (dense(x, m + 1) for x in L.make_sl2_module(m)[1:])
    assert h == mat_sub(mat_mul(f, e), mat_mul(e, f))
    he_eh = mat_sub(mat_mul(h, e), mat_mul(e, h))
    assert he_eh == tuple(tuple(2 * x for x in row) for row in e)
    hf_fh = mat_sub(mat_mul(h, f), mat_mul(f, h))
    assert hf_fh == tuple(tuple(-2 * x for x in row) for row in f)
    for k in range(m + 1):
        assert h[k][k] == m - 2 * k


def test_module_rejects_negative_weight():
    with pytest.raises(L.AdmissibilityError):
        L.make_sl2_module(-1)
    with pytest.raises(L.AdmissibilityError):
        L.make_module_extension(-2)


def test_dzhumadildaev_q_sl2():
    names, e, f, h = L.make_sl2_module(2)
    q = L.make_dzhumadildaev(L.make_sl2(), names, {"e": e, "f": f, "h": h})
    assert q.basis == ("e", "h", "f", "x0", "x1", "x2")
    # module block multiplies from the right only
    assert bracket(q, q.basis_element("x0"), q.basis_element("f")) == q.basis_element("x1")
    assert bracket(q, q.basis_element("f"), q.basis_element("x0")).is_zero()
    assert bracket(q, q.basis_element("x0"), q.basis_element("x1")).is_zero()
    assert q.check_leibniz().passed


def test_dzhumadildaev_validation():
    names, e, f, h = L.make_sl2_module(1)
    action = {"e": e, "f": f, "h": h}
    with pytest.raises(L.AdmissibilityError, match="not a Lie table"):
        L.make_dzhumadildaev(L.make_module_extension(1, 1), ("u", "v"), {})
    with pytest.raises(L.DimensionMismatchError, match="clash"):
        L.make_dzhumadildaev(L.make_sl2(), ("e", "x"), action)
    with pytest.raises(L.DimensionMismatchError, match="one matrix per"):
        L.make_dzhumadildaev(L.make_sl2(), names, {"e": e, "f": f})
    # one row for a two-dimensional module, then a column outside it
    for bad_h in ([{0: Poly.const(1)}], [{}, {2: Poly.const(1)}], [{}, {-1: Poly.const(1)}]):
        with pytest.raises(L.DimensionMismatchError, match="wrong shape"):
            L.make_dzhumadildaev(L.make_sl2(), names, {"e": e, "f": f, "h": bad_h})
    # swapping E and F is not a right action for these products
    with pytest.raises(L.AdmissibilityError, match=r"fails at \["):
        L.make_dzhumadildaev(L.make_sl2(), names, {"e": f, "f": e, "h": h})


def test_module_extension_products():
    t = L.make_module_extension(2, Fraction(7, 3))
    assert t.basis == ("e", "h", "f", "x0", "x1", "x2", "y1", "y2")
    y2 = t.basis_element("y2")
    for k in range(3):
        xk = t.basis_element(f"x{k}")
        assert bracket(t, xk, y2) == Fraction(7, 3) * xk
        assert bracket(t, y2, xk).is_zero()
    assert bracket(t, t.basis_element("y1"), y2) == t.basis_element("y1")
    assert t.check_leibniz().passed
    assert not t.check_lie().passed


def test_generic_family_parameter_count():
    # free blocks: 6 products [y_i, e|f|h], 2(m+1) products [x_k, y_i],
    # [y1,y2], [y1,y1], [y2,y2]; each contributes m+1 coefficients
    for m in (0, 1, 2, 3):
        t = L.make_generic_family(L.FamilySpec(m))
        assert len(t.params) == (m + 1) * (2 * (m + 1) + 9)
    assert len(L.make_generic_family(L.FamilySpec(1)).params) == 26
    t = L.make_generic_family(L.FamilySpec(1, include_sl2_R_products=True))
    assert len(t.params) == 38
    assert "a_e_y1_0" in t.params


def test_generic_family_zero_point_is_module_extension():
    for m in (0, 1, 2):
        t = L.make_generic_family(L.FamilySpec(m))
        zeros = {p: 0 for p in t.params}
        assert t.evaluate(zeros) == L.make_module_extension(m, 0)


def test_generic_family_defects_flag():
    t = L.make_generic_family(L.FamilySpec(1, include_sl2_defects=True))
    entry = t.entry(t.index("e"), t.index("h"))
    assert entry.coords[t.index("e")] == 2
    assert entry.coords[t.index("x0")] == Poly.param("a_e_h_0")


def test_prefamily_evaluates_to_L_family(prefamily):
    for l, mu, a in ((1, 0, 1), (0, 5, -2), (0, 0, Fraction(1, 3))):
        point = prefamily.evaluate({"l": l, "mu": mu, "a": a, "b": 0})
        assert point == L.make_L_family(l, mu, a)


def test_prefamily_b_products(prefamily):
    t = prefamily
    b = Poly.param("b")
    y2 = t.basis_element("y2")
    assert bracket(t, y2, t.basis_element("e")) == b * t.basis_element("x1")
    assert bracket(t, y2, t.basis_element("h")) == b * t.basis_element("x2")
    ab = Poly.param("a") * b
    assert bracket(t, y2, y2) == Fraction(-1, 2) * ab * t.basis_element("x2")


def test_L_family_admissibility():
    with pytest.raises(L.AdmissibilityError, match=r"requires l\*\(1-a\) = 0"):
        L.make_L_family(1, 0, 0)
    with pytest.raises(L.AdmissibilityError):
        L.make_L_family(Fraction(2, 3), 5, -1)
    # l = 0 frees a; a = 1 frees l
    assert L.make_L_family(0, 7, Fraction(-5, 2)).check_leibniz().passed
    assert L.make_L_family(-3, 2, 1).check_leibniz().passed


def test_L_family_products():
    t = L.make_L_family(1, 0, 1)
    assert bracket(t, t.basis_element("e"), t.basis_element("y1")) == t.basis_element("x0")
    assert bracket(t, t.basis_element("f"), t.basis_element("y1")) == Fraction(1, 2) * t.basis_element("x2")
    assert bracket(t, t.basis_element("h"), t.basis_element("y1")) == t.basis_element("x1")
    t2 = L.make_L_family(0, 3, 2)
    assert bracket(t2, t2.basis_element("e"), t2.basis_element("y2")) == 3 * t2.basis_element("x0")
    assert bracket(t2, t2.basis_element("x1"), t2.basis_element("y2")) == 2 * t2.basis_element("x1")

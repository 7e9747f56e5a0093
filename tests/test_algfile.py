import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import leibnizalg as L
from leibnizalg import cli
from leibnizalg.algfile import MAX_EXPONENT, parse_scalar
from leibnizalg.scalars import Poly

from conftest import random_table

SL2_TEXT = """\
# split simple algebra
algebra sl2
dim 3
basis e h f

[e,h] = 2*e
[e,f] = h
[h,e] = -2*e
[h,f] = 2*f
[f,e] = -h
[f,h] = -2*f
"""

PARAM_TEXT = """\
algebra toy
dim 4
params l a
basis e y1 x0 x1
[e,y1] = l*x0
[x0,y1] = a*x0 - 1/2*l^2*x1
[y1,y1] = 0
"""


def test_parse_sl2_matches_constructor():
    assert L.parse_algebra(SL2_TEXT) == L.make_sl2()


def test_parse_parametric_entries():
    t = L.parse_algebra(PARAM_TEXT)
    assert t.params == ("l", "a")
    lam, a = Poly.param("l"), Poly.param("a")
    entry = t.entry(t.index("e"), t.index("y1"))
    assert entry.coords[t.index("x0")] == lam
    entry = t.entry(t.index("x0"), t.index("y1"))
    assert entry.coords[t.index("x0")] == a
    assert entry.coords[t.index("x1")] == Fraction(-1, 2) * lam * lam
    assert t.entry(t.index("y1"), t.index("y1")).is_zero()


def test_whitespace_and_comments_are_free():
    text = "algebra  x\ndim 2\nbasis  u v\n [ u , v ]=u   # trailing\n"
    t = L.parse_algebra(text)
    assert t.entry(0, 1) == t.basis_element("u")


@pytest.mark.parametrize(
    "text,lineno,fragment",
    [
        ("dim 3\nbasis a b c\n", 1, "algebra"),
        ("algebra x\nbasis a\n", 2, "dim"),
        ("algebra x\ndim -1\nbasis\n", 2, "nonnegative"),
        ("algebra x\ndim 0\nbasis a\n", 3, "dim 0 but 1"),
        ("algebra x\ndim 1\nbasis\n", 3, "no names"),
        ("algebra x\ndim 2\nbasis a\n", 3, "2"),
        ("algebra x\ndim 2\nbasis a a\n", 3, "duplicate"),
        ("algebra x\ndim 2\nparams p\nbasis a p\n", 4, "clash"),
        ("algebra x\ndim 1\nbasis a\n[a,a] = b\n", 4, "basis symbol"),
        ("algebra x\ndim 1\nbasis a\n[a,b] = a\n", 4, "unknown basis symbol 'b'"),
        ("algebra x\ndim 1\nbasis a\n[a,a] = 2a\n", 4, "term"),
        ("algebra x\ndim 1\nbasis a\n[a,a] = a\n[a,a] = 0\n", 5, "duplicate product"),
        ("algebra x\ndim 1\nbasis a\nnonsense\n", 4, "expected"),
        ("algebra x\ndim 1\nbasis a\n[a,a] = p*a\n", 4, "unknown"),
    ],
)
def test_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(L.ParseError) as exc:
        L.parse_algebra(text)
    assert exc.value.lineno == lineno
    assert fragment in str(exc.value)


def test_parse_scalar():
    assert parse_scalar("0", ()) == L.ZERO
    assert parse_scalar("l - a*l", ("a", "l")) == Poly.param("l") - Poly.param("a") * Poly.param("l")
    assert parse_scalar("-3/4", ()) == Fraction(-3, 4)
    with pytest.raises(L.ParseError):
        parse_scalar("q", ("a",))


def test_exponents_above_the_cap_are_refused(capsys, tmp_path):
    head = "algebra t\ndim 1\nparams a\nbasis z\n"
    at_cap = head + f"[z,z] = a^{MAX_EXPONENT}*z\n"
    assert L.serialize_algebra(L.parse_algebra(at_cap)) == at_cap
    hostile = head + "[z,z] = a^100000000000*z\n"
    with pytest.raises(L.ParseError, match=f"exponent of 'a' is above {MAX_EXPONENT}") as exc:
        L.parse_algebra(hostile)
    assert exc.value.lineno == 5
    with pytest.raises(L.ParseError, match="exponent"):
        parse_scalar(f"a^{MAX_EXPONENT + 1}", ("a",))
    path = tmp_path / "t.alg"
    path.write_text(hostile, encoding="utf-8")
    assert cli.main(["constraints", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "line 5: exponent" in out.err


def test_serialize_zero_table_is_header_only():
    t = L.make_abelian(3)
    text = L.serialize_algebra(t)
    assert text == "algebra abelian3\ndim 3\nbasis z0 z1 z2\n"
    assert L.parse_algebra(text) == t


def test_zero_algebra_round_trips():
    t = L.parse_algebra("algebra q_mod_I\ndim 0\nbasis \n")
    assert (t.dim, t.basis, t.rows) == (0, (), ())
    assert L.serialize_algebra(t) == "algebra q_mod_I\ndim 0\nbasis \n"


def test_explicit_zero_products_store_nothing():
    t = L.parse_algebra("algebra z\ndim 2\nbasis a b\n[b,a] = b\n[a,b] = 0\n[a,a] = a - a\n")
    assert t.rows == ({}, {0: t.basis_element("b")})
    assert t.entry(0, 1).is_zero() and t.entry(1, 0) == t.basis_element("b")
    assert L.serialize_algebra(t) == "algebra z\ndim 2\nbasis a b\n[b,a] = b\n"


def test_round_trip_fixtures():
    fixtures = [
        L.make_sl2(),
        L.make_r2(),
        L.make_L_prefamily(),
        L.make_module_extension(2, Fraction(7, 3)),
        L.make_generic_family(L.FamilySpec(1, include_sl2_R_products=True)),
    ]
    for t in fixtures:
        assert L.parse_algebra(L.serialize_algebra(t)) == t


@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_random_tables(seed):
    t = random_table(random.Random(seed))
    assert L.parse_algebra(L.serialize_algebra(t)) == t


CHANGE_TEXT = """\
change shear
dim 3
params b
basis e h f
new e = e + 1/2*b*h
new f = -f
"""


def test_parse_change():
    doc = L.parse_change(CHANGE_TEXT)
    assert doc.name == "shear"
    assert set(doc.assignments) == {"e", "f"}
    rows = L.BasisChange.from_assignments(L.make_sl2(), doc.assignments).rows
    b = Poly.param("b")
    assert rows[0].coords == (L.ONE, Fraction(1, 2) * b, L.ZERO)
    assert rows[1].coords == (L.ZERO, L.ONE, L.ZERO)  # unlisted h stays itself
    assert rows[2].coords == (L.ZERO, L.ZERO, Poly.const(-1))


def test_change_requires_matching_basis():
    doc = L.parse_change(CHANGE_TEXT)
    with pytest.raises(L.DimensionMismatchError):
        L.BasisChange.from_assignments(L.make_r2(), doc.assignments)
    by_name = {s: {t: c for t, c in zip(doc.basis, el.coords) if c} for s, el in doc.assignments.items()}
    assert L.BasisChange.from_assignments(L.make_sl2(), by_name) == L.BasisChange.from_assignments(
        L.make_sl2(), doc.assignments
    )


def test_change_rejects_unknown_and_duplicate_rows():
    bad = CHANGE_TEXT + "new q = e\n"
    with pytest.raises(L.ParseError, match="unknown"):
        L.parse_change(bad)
    dup = CHANGE_TEXT + "new e = h\n"
    with pytest.raises(L.ParseError, match="duplicate"):
        L.parse_change(dup)

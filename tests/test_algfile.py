import random
import re
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


@pytest.mark.parametrize("expr,shown", [
    ("1 2*a", "1 2*a"),
    ("p q*a", "p q*a"),
    ("2 a", "2 a"),
    ("a + 1/2 * p q * a", "1/2*p q*a"),
    ("p^1 0*a", "p^1 0*a"),
    ("a - 3\t4*a", "3 4*a"),
])
def test_whitespace_may_not_split_a_number_or_name(expr, shown):
    # all whitespace used to be deleted first: `1 2*a` read as `12*a`, `p q*a` as an unknown `pq`
    with pytest.raises(L.ParseError, match=re.escape(f"malformed term {shown!r}")) as exc:
        L.parse_algebra(f"algebra x\ndim 1\nparams p q\nbasis a\n[a,a] = {expr}\n")
    assert exc.value.lineno == 5
    with pytest.raises(L.ParseError, match=re.escape(f"malformed term {shown!r}")) as exc:
        L.parse_change(f"change x\ndim 1\nparams p q\nbasis a\nnew a = {expr}\n")
    assert exc.value.lineno == 5
    with pytest.raises(L.ParseError, match="malformed term"):
        parse_scalar(expr.replace("*a", ""), ("p", "q", "a"))


def test_whitespace_around_operators_stays_free():
    t = L.parse_algebra("algebra x\ndim 2\nparams p\nbasis a b\n[b , a] = - 1/2 * b\n[ a,b ] =\tp ^ 2 * a -  - b\n")
    assert t.entry(1, 0) == L.element_from([0, Fraction(-1, 2)])
    assert L.serialize_algebra(t).splitlines()[-2:] == ["[a,b] = p^2*a + b", "[b,a] = -1/2*b"]
    assert parse_scalar(" - 1 / 2 ", ()) == Fraction(-1, 2)
    with pytest.raises(L.ParseError, match="expected `\\[NAME,NAME\\] = EXPR`"):
        L.parse_algebra("algebra x\ndim 2\nbasis ab b\n[a b,b] = b\n")


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


@pytest.mark.parametrize("tail", ["+", "++", "-", "+-"])
def test_trailing_sign_is_refused_at_its_line(tail):
    # a trailing `+` used to be dropped: `[a,a] = 2*a+` read as `2*a`
    with pytest.raises(L.ParseError, match="malformed expression") as exc:
        L.parse_algebra(f"algebra x\ndim 1\nbasis a\n[a,a] = 2*a{tail}\n")
    assert exc.value.lineno == 4
    with pytest.raises(L.ParseError, match="malformed expression") as exc:
        L.parse_change(f"change x\ndim 1\nbasis a\n\nnew a = 2*a{tail}\n")
    assert exc.value.lineno == 5
    with pytest.raises(L.ParseError, match="malformed expression") as exc:
        parse_scalar(f"l{tail}", ("l",), lineno=7)
    assert exc.value.lineno == 7


def test_sign_runs_keep_their_meaning():
    x, y = Poly.param("x"), Poly.param("y")
    assert parse_scalar("+x", ("x", "y")) == x
    assert parse_scalar("--x", ("x", "y")) == x
    assert parse_scalar("x--y", ("x", "y")) == x + y
    assert parse_scalar("x+-+y", ("x", "y")) == x - y
    assert parse_scalar("-1/2*x+y", ("x", "y")) == Fraction(-1, 2) * x + y
    t = L.parse_algebra("algebra x\ndim 2\nbasis a b\n[a,a] = --a\n[a,b] = a--b\n[b,b] = -1/2*a+b\n")
    assert t.entry(0, 0) == L.element_from([1, 0])
    assert t.entry(0, 1) == L.element_from([1, 1])
    assert t.entry(1, 1) == L.element_from([Fraction(-1, 2), 1])
    doc = L.parse_change("change x\ndim 2\nbasis a b\nnew a = +a - -b\n")
    assert doc.assignments["a"] == L.element_from([1, 1])


@pytest.mark.parametrize("text", ["", " \t"])
def test_empty_scalar_is_an_empty_expression(text):
    with pytest.raises(L.ParseError, match="line 3: empty expression"):
        parse_scalar(text, (), lineno=3)


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


ABOVE_CAP = (
    f"error: exponent {2 * MAX_EXPONENT} of 'a' is above MAX_EXPONENT = {MAX_EXPONENT}; "
    "the output would not read back\n"
)


def test_outputs_above_the_cap_are_refused(capsys, tmp_path):
    # exponents add under products: the residual at (z, z, z) of a^10000*z is a^20000*z
    path = tmp_path / "t.alg"
    path.write_text(f"algebra t\ndim 1\nparams a\nbasis z\n[z,z] = a^{MAX_EXPONENT}*z\n", encoding="utf-8")
    for porcelain in ((), ("--porcelain",)):
        assert cli.main(["constraints", str(path), *porcelain]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", ABOVE_CAP)
    # and with the degree of a change: [y', y'] of y' = y + a^10000*x holds a^20000*x
    table = tmp_path / "xy.alg"
    table.write_text("algebra t\ndim 2\nparams a\nbasis x y\n[x,x] = x\n[x,y] = x\n", encoding="utf-8")
    change = tmp_path / "c.txt"
    change.write_text(f"change c\ndim 2\nparams a\nbasis x y\nnew y = y + a^{MAX_EXPONENT}*x\n", encoding="utf-8")
    assert cli.main(["change-basis", str(table), str(change)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", ABOVE_CAP)


def test_constraint_at_the_cap_reads_back(capsys, tmp_path):
    path = tmp_path / "t.alg"
    path.write_text(f"algebra t\ndim 1\nparams a\nbasis z\n[z,z] = a^{MAX_EXPONENT // 2}*z\n", encoding="utf-8")
    assert cli.main(["constraints", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == f"a^{MAX_EXPONENT}\n"
    assert parse_scalar(out, ("a",)) == Poly({(("a", MAX_EXPONENT),): Fraction(1)})


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

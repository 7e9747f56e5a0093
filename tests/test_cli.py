import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg as L
from leibnizalg import algfile, cli, scalars

from conftest import constant_fixture_tables

CHANGE_231_TO_101 = """\
change collapse
dim 8
basis e h f x0 x1 x2 y1 y2
new y1 = 1/2*y1
new y2 = -3/2*y1 + y2
"""


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def construct(capsys, tmp_path, name, *args, filename=None):
    code, out, err = run(capsys, "construct", name, *args)
    assert code == 0, err
    return write(tmp_path, filename or f"{name}.alg", out)


def test_construct_and_check_pass(capsys, tmp_path):
    path = construct(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out.startswith("PASS: sl2 satisfies the Leibniz identity")
    code, out, _ = run(capsys, "check", path, "--mode", "lie")
    assert code == 0 and "Lie axioms" in out


def test_check_fail_exit_1_with_witness(capsys, tmp_path):
    path = construct(capsys, tmp_path, "module-ext", "--m", "1", "--a", "1")
    code, out, _ = run(capsys, "check", path, "--mode", "lie")
    assert code == 1
    assert out.startswith("FAIL:")
    assert "(e, x1)" in out
    code, out, _ = run(capsys, "check", path, "--mode", "lie", "--porcelain")
    assert code == 1
    assert "status\tFAIL" in out
    assert "witness\te,x1" in out


@pytest.mark.parametrize("mode", ["leibniz", "lie"])
def test_check_parametric_is_a_usage_error(capsys, tmp_path, mode):
    path = construct(capsys, tmp_path, "prefamily")
    code, out, err = run(capsys, "check", path, "--mode", mode)
    assert code == 2
    assert "constraints" in err


def test_missing_file_and_parse_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.alg"))
    assert code == 2 and "cannot read" in err
    bad = write(tmp_path, "bad.alg", "algebra x\ndim 1\nbasis a\n[a,a] = q\n")
    code, _, err = run(capsys, "check", bad)
    assert code == 2 and "line 4" in err


def test_non_utf8_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.alg"
    path.write_bytes(b"algebra x\ndim 1\nbasis a\n# caf\xe9\n")
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and "can't decode byte 0xe9" in err
    proc = fresh_python("-m", "leibnizalg", "check", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_construct_abelian_needs_a_positive_dimension(capsys):
    for dim in ("0", "-3"):
        code, out, err = run(capsys, "construct", "abelian", "--dim", dim)
        assert (code, out, err) == (2, "", "error: abelian dimension must be a positive integer\n")


KNOWN_CONSTRUCTORS = """\
error: unknown constructor 'so8'; known constructors:
  Lfamily: L(l, mu, a), admissible when l*(1-a) = 0 (--l --mu --a)
  abelian: an abelian algebra (--dim N)
  direct-sum: block sum of two named constant constructors
  dzhumadildaev: sl2 with the weight-m module adjoined (--m M)
  generic: the symbolic ansatz family (--m M [--sl2-r-products] [--sl2-defects])
  module-ext: the (m+6)-dim family with y2 scaling the module (--m M --a A)
  prefamily: the eight-dim four-parameter family over the weight-2 module
  r2: the solvable Lie algebra on (y1, y2)
  sl2: the split simple Lie algebra on (e, h, f)
"""


def test_construct_unknown_lists_known(capsys):
    code = cli.main(["construct", "so8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == KNOWN_CONSTRUCTORS


def test_construct_direct_sum_summands(capsys):
    code, out, _ = run(capsys, "construct", "direct-sum", "r2", "sl2")
    assert code == 0
    assert L.parse_algebra(out) == L.make_direct_sum(L.make_r2(), L.make_sl2())
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "direct-sum", "sl2", "so8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "{prefamily,r2,sl2} {prefamily,r2,sl2}" in err
    assert "argument right: invalid choice: 'so8' (choose from 'prefamily', 'r2', 'sl2')" in err


def test_construct_inadmissible_point(capsys):
    code = cli.main(["construct", "Lfamily", "--l", "1", "--mu", "0", "--a", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "requires l*(1-a) = 0" in captured.err


def test_construct_rational_arguments(capsys, tmp_path):
    path = construct(capsys, tmp_path, "module-ext", "--m", "0", "--a", "7/3")
    with open(path, encoding="utf-8") as f:
        t = L.parse_algebra(f.read())
    assert t == L.make_module_extension(0, L.Poly.const(7).constant_value() / 3)


@pytest.mark.parametrize("args", [
    ("Lfamily", "--l", "0", "--mu", "1", "--a", "1e5000"),
    ("module-ext", "--m", "1", "--a=1e5000"),
    ("module-ext", "--m", "1", "--a=1.5"),
    ("module-ext", "--m", "1", "--a=1/2+"),
    ("module-ext", "--m", "1", "--a=" + "1" * 5000),
    ("module-ext", "--m", "0", "--a=1 2"),
])
def test_rationals_outside_the_scalar_grammar_exit_2(capsys, args):
    # exponent forms used to reach Fraction and end in a ValueError traceback with exit 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", *args])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --a: not a rational number" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [("abelian", "--dim=--"), ("module-ext", "--m", "1", "--a=--")])
def test_option_value_of_double_dash_exits_2(capsys, args):
    # argparse up to Python 3.12 passes `--flag=--` on as [], which used to end in a TypeError
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", *args])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument {args[-1].split('=')[0]}: " in err and "Traceback" not in err


def test_whitespace_inside_a_rational_argument_exits_2(capsys):
    # `--mu "1 0"` used to read as 10 and emit L_0_10_1
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "Lfamily", "--l", "0", "--mu", "1 0", "--a", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error: argument --mu: not a rational number: '1 0'" in captured.err


def test_change_basis_refuses_whitespace_inside_a_number(capsys, tmp_path):
    # the identity change used to print `[a,a] = 12*a`
    path = write(tmp_path, "t.alg", "algebra t\ndim 1\nbasis a\n[a,a] = 1 2*a\n")
    code, out, err = run(capsys, "change-basis", path, "identity")
    assert code == 2 and out == ""
    assert "line 4: malformed term '1 2*a'" in err


def test_rationals_read_signs_as_the_alg_grammar(capsys, tmp_path):
    path = construct(capsys, tmp_path, "module-ext", "--m", "0", "--a=--7/3")
    with open(path, encoding="utf-8") as f:
        assert L.parse_algebra(f.read()) == L.make_module_extension(0, Fraction(7, 3))


def test_check_refuses_a_trailing_sign(capsys, tmp_path):
    path = write(tmp_path, "t.alg", L.serialize_algebra(L.make_sl2()).replace("[e,h] = 2*e", "[e,h] = 2*e+"))
    code, out, err = run(capsys, "check", path)
    assert code == 2 and out == ""
    assert err == "error: line 4: malformed expression '2*e+'\n"


def test_constraints_output(capsys, tmp_path):
    path = construct(capsys, tmp_path, "prefamily")
    code, out, _ = run(capsys, "constraints", path)
    assert code == 0
    assert out == "l - a*l\n"
    code, out, _ = run(capsys, "constraints", path, "--porcelain")
    assert out == "count\t1\nconstraint\tl - a*l\n"


# sha256 of the plain and --porcelain `constraints` output of every generic
# table (m in {1, 2, 4, 6}, each flag combination) and of the prefamily, as
# printed before the kernel packed its monomials into ints
CONSTRAINT_DIGESTS = [
    ("generic --m 1",
     "4f115bf243382a1812d68bf056b6ea0d33b9924a2483d402bad62f7e97cf99e7",
     "ffcc58811bcee28d472a3ca75521f8ce30a54321688c427fd7231c3b44477081"),
    ("generic --m 1 --sl2-defects",
     "46ecae8e0cdae91543082912800e1ecf0c012f3f5c0d8e146cd523e7e71cc39a",
     "3319129b5fde27273f1478c2baa22115dab22ca153ebd33e04ac4572ac9b6c37"),
    ("generic --m 1 --sl2-r-products",
     "a071b965a20e006493666bc11e398c0d1098446287c70780f33ae2a63c7bb4ad",
     "f9673f4f8b6ddac0f508a8449bbc498feff697a594a8ccbe5bd1fd2e7d98dcf7"),
    ("generic --m 1 --sl2-r-products --sl2-defects",
     "5aa5d831b4930aa9d92b6173965a167125d4b1c6b12ac3889634a074faae6ebd",
     "e9551769c74e4c3b1c2873f519c8e65e8a3379f89553e812fc9d7b35b30e32c9"),
    ("generic --m 2",
     "2140f9b1df94b5d80edfe2c998a180d7ac498b49135844a5e89389a588d80b92",
     "2485930a6d7a9a6e9dc39d32ca11bbb882d0f0c347e6c08e66f1b5af2baba424"),
    ("generic --m 2 --sl2-defects",
     "c29ea46d740ec29e1bcc0714f1a30ab0854a2043f1de3972d5f5efd4743c8552",
     "c9e3592a0fadf184a6d32792dfaa814f18a20c1ad04234e0f7a54f85b6cf2d4d"),
    ("generic --m 2 --sl2-r-products",
     "08ad7843e1a5c0c5d85101b2b657226b156b3146ced14100db27d40714cd9f3f",
     "ce9a3abd1d73a9a66bfafcb0039471cfce985cfed61a940976984cc98d634176"),
    ("generic --m 2 --sl2-r-products --sl2-defects",
     "bd12ee7a8cba04f25a8bde38a4a78b498f083720bfc4d59778dbae32eb990c7b",
     "20dbca3c913f827fb5e4d627751a4855d08d24c985a053c6acc07c3315ba1403"),
    ("generic --m 4",
     "5400684c6889dbe2ff93c7325667cc9d7fe816c56c035d2cd93e7516a5b56881",
     "c16e0e6198548faed1bd05f7fe8cb579b9dc127e3e7a6dd87a2fac8c16332d60"),
    ("generic --m 4 --sl2-defects",
     "0ff1c5878f1bcc16b08794cd9aef06661ab748640eadc38b161adb7d039d334c",
     "5030b98a86d370e92fb61c7549eba6a4b72d46492ae3dc66bc79379fdef18f47"),
    ("generic --m 4 --sl2-r-products",
     "2b19c5d7582a0306c72fb0c85d3a44ba95a61481ae970b12a431a9cc24818f0f",
     "0639e131a95556e0ecb5bad50a02df9efd9ad096cf60fa46f163f423a2082098"),
    ("generic --m 4 --sl2-r-products --sl2-defects",
     "090a75cb9bf32a209a756b56a6ba1dc37533ca36a9b2ca1a361111965ef885b1",
     "f90bdd3f3da25b23b1f949bd3bfad1b931ade491fea1b1411914b7425d9c000b"),
    ("generic --m 6",
     "2c5a5d7c34b72b804bb38b837af7c868f177cc5954833217328715349f5235a2",
     "53299ceb875f308b7f4bdba7e39a585e72d62cfeac34f13a4a7a320131a61893"),
    ("generic --m 6 --sl2-defects",
     "8b00e463d5aedfda6e03119ccd9e5097a7d85f507c2e7bd87f312b6d968ef4ea",
     "a67368154ce4fa829f251169f85bbdcf90f672face5df2fae4e5f7d1ab22e057"),
    ("generic --m 6 --sl2-r-products",
     "6e0c0541e22bdf1adeb891d417725e93733579dbb943cbfeb5f6e3ea2789158a",
     "21d70792a08a42934b618197ea72f19cfcd385721f699de53d9ddd69c01e25d2"),
    ("generic --m 6 --sl2-r-products --sl2-defects",
     "a492e74010534cdb4200fdd1ebb083f5b396c58eb87b2144a8c279c7a3a2950b",
     "ad9f27e347ebd8d155c83857d5ca15cdac583e7f778565356414395f63b36de9"),
    ("prefamily",
     "1819a3ef2b69a1ecc24d093424963acc9866538a3ab11bf140a7001a38e952b6",
     "ca82816900fdacc3a66895db68915cdbc9da3f55172ce428daf983bcb7ab6521"),
]


@pytest.mark.parametrize(("args", "plain", "porcelain"), CONSTRAINT_DIGESTS, ids=[c[0] for c in CONSTRAINT_DIGESTS])
def test_constraints_output_is_pinned(capsys, tmp_path, args, plain, porcelain):
    path = construct(capsys, tmp_path, *args.split())
    for flags, digest in (((), plain), (("--porcelain",), porcelain)):
        code, out, _ = run(capsys, "constraints", path, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_constraints_command_sorts_no_terms(capsys, tmp_path):
    path = construct(capsys, tmp_path, "generic", "--m", "2", "--sl2-r-products", "--sl2-defects")
    with mock.patch.object(scalars, "MONO_KEY", wraps=scalars.MONO_KEY) as key:
        code, out, _ = run(capsys, "constraints", path)
    assert code == 0 and key.call_count == 0
    with open(path, encoding="utf-8") as f:
        want = [str(p) for p in L.extract_constraints(L.parse_algebra(f.read()))]
    assert len(want) > 100 and out.splitlines() == want


def test_constraints_empty_for_constant_pass(capsys, tmp_path):
    path = construct(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, "constraints", path)
    assert code == 0 and out == ""


def test_ideal_and_quotient(capsys, tmp_path):
    path = construct(capsys, tmp_path, "Lfamily", "--l", "1", "--mu", "0", "--a", "1")
    code, out, _ = run(capsys, "ideal", path)
    assert code == 0
    assert "dimension 3" in out
    for row in ("x0", "x1", "x2"):
        assert f"  {row}" in out
    code, out, _ = run(capsys, "ideal", path, "--porcelain")
    assert out.splitlines()[0] == "dim\t3"
    code, out, _ = run(capsys, "quotient", path)
    assert code == 0
    assert out.count("# squares ideal row:") == 3
    quotient = L.parse_algebra(out)
    assert quotient == L.make_direct_sum(L.make_sl2(), L.make_r2())


def test_change_basis_and_verify_iso(capsys, tmp_path):
    p231 = construct(capsys, tmp_path, "Lfamily", "--l", "2", "--mu", "3", "--a", "1", filename="a.alg")
    p101 = construct(capsys, tmp_path, "Lfamily", "--l", "1", "--mu", "0", "--a", "1", filename="b.alg")
    chg = write(tmp_path, "c.chg", CHANGE_231_TO_101)

    code, out, _ = run(capsys, "change-basis", p231, chg)
    assert code == 0
    assert L.parse_algebra(out) == L.make_L_family(1, 0, 1)

    code, out, _ = run(capsys, "verify-iso", p231, p101, chg)
    assert code == 0 and out.startswith("PASS")

    code, out, _ = run(capsys, "verify-iso", p231, p101, "identity")
    assert code == 1
    assert "maps to 2*x0, expected x0" in out

    code, out, _ = run(capsys, "verify-iso", p231, p101, chg, "--porcelain")
    assert out.splitlines()[0] == "status\tPASS"


def test_change_basis_identity_keyword(capsys, tmp_path):
    path = construct(capsys, tmp_path, "sl2")
    code, out, _ = run(capsys, "change-basis", path, "identity")
    assert code == 0
    assert L.parse_algebra(out) == L.make_sl2()
    code, out, _ = run(capsys, "verify-iso", path, path, "identity")
    assert code == 0 and out.startswith("PASS")


def test_change_basis_wrong_basis_is_usage_error(capsys, tmp_path):
    path = construct(capsys, tmp_path, "sl2")
    chg = write(tmp_path, "c.chg", CHANGE_231_TO_101)
    code, _, err = run(capsys, "change-basis", path, chg)
    assert code == 2
    assert "does not match" in err


def test_verify_iso_refuses_other_basis_symbols_before_changing_the_basis(capsys, tmp_path):
    path = construct(capsys, tmp_path, "sl2")
    renamed = write(tmp_path, "renamed.alg", "algebra sl2\ndim 3\nbasis a b c\n[a,b] = 2*a\n")
    singular = write(tmp_path, "s.chg", "change s\ndim 3\nbasis e h f\nnew e = h\n")
    for change in ("identity", singular):  # the singular change is never inverted
        code, out, err = run(capsys, "verify-iso", path, renamed, change)
        assert (code, out) == (2, "")
        assert "basis symbols differ: ['e', 'h', 'f'] vs ['a', 'b', 'c']" in err


DENSE_CHANGE_OF_L101 = """\
new e = 1/2*e + 3/2*h - 1/2*f - 4/3*x0 + 2/3*x1 - 1/3*x2 + 2*y1 + 4/3*y2
new h = -e + h + f - 3/2*x0 + 1/2*x1 + 1/3*x2 - 1/3*y1 + y2
new f = 2*e - 1/3*h + 4*f - x0 + 2*x1 + 1/2*x2 + y1 + 1/3*y2
new x0 = 1/3*e + 1/3*h - f - 2*x0 + x1 - 1/2*x2 - 1/2*y1 + 2*y2
new x1 = -3/2*e - 2/3*f - 3/2*x0 - 1/2*x1 - 1/3*x2 + y1 - y2
new x2 = -3/2*e + 1/2*h + 1/3*f - 1/3*x0 - 4*x1 + 4/3*x2 - 2*y1 - 4*y2
new y1 = 4*e + 2/3*h - f - 2/3*x0 - 1/2*x1 + 2*x2 + y1 + y2
new y2 = -4/3*e + 2*h + f + 1/2*x0 + 3*x1 + 2*x2 - 4/3*y1
"""

# sha256 of the `change-basis` output for (constructor arguments, change
# parameters, `new` lines), as printed when a constant change of a constant
# table ran on Fraction rows and every other case on Poly brackets: sparse,
# dense and unipotent changes, constant and parametric, of constant and
# parametric tables
CHANGE_BASIS_DIGESTS = [
    ("module-ext --m 30 --a 7/3", "", "new e = e - 5*f\nnew x0 = 2*x0 + x1\nnew y2 = y2 + 1/3*x30\n",
     "78c595794834fcaac05cbd8f2c1f8be2dc2e5d98ce56a9a3e612bca13749e9db"),
    ("dzhumadildaev --m 14", "", "new h = h + 3/2*x0\nnew f = e - f\nnew x7 = x7 - x8\n",
     "873ffae18230648b0c86ad78837f175508bc000c14867746b6daf2868102eab1"),
    ("Lfamily --l 2 --mu 3 --a 1", "", CHANGE_231_TO_101.split("basis e h f x0 x1 x2 y1 y2\n")[1],
     "9473a64891e9c4048a47d70c6ff713052aa1e9ca0737ac9dba714a2f9fa7ef6f"),
    ("Lfamily --l 1 --mu 0 --a 1", "", DENSE_CHANGE_OF_L101,
     "41e4844ba3ec26d871d7c8ff1bd319d502b382209ff5a66aec7cf862fba25985"),
    ("prefamily", "b", "new y2 = y2 + 1/2*b*x2\n",
     "624e2c89833f973bc3300db54274637136bdcbe4e63f5c63383875fb4aec1fa3"),
    ("prefamily", "", "new y1 = 1/2*y1\nnew y2 = -3/2*y1 + y2\n",
     "bfb31d3b3908adaf66be14e3729d7ab3376ba658c75a63a88de591df82b94485"),
    ("generic --m 4 --sl2-r-products", "s", "new y1 = y1 + s*x0\nnew x1 = x1 + s*x2\nnew y2 = y2 + s^2*y1\n",
     "83bb336f0867b7f2cdca6ca20db2418a7e09247f7306b1d913d66a2e9e7b564a"),
]


@pytest.mark.parametrize(
    ("args", "params", "rows", "digest"), CHANGE_BASIS_DIGESTS, ids=[f"{c[0]}|{c[1]}" for c in CHANGE_BASIS_DIGESTS]
)
def test_change_basis_output_is_pinned(capsys, tmp_path, args, params, rows, digest):
    path = construct(capsys, tmp_path, *args.split())
    with open(path, encoding="utf-8") as f:
        t = L.parse_algebra(f.read())
    header = f"change c\ndim {t.dim}\n" + (f"params {params}\n" if params else "")
    chg = write(tmp_path, "c.chg", header + f"basis {' '.join(t.basis)}\n" + rows)
    code, out, err = run(capsys, "change-basis", path, chg)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


LONG ="7" * 5000  # past int()'s default limit of 4,300 digits


def long_literal_doc(kind, case):
    """A one-dimensional `kind` document with LONG at `case`, and the line it is on."""
    dim, params, expr, lineno = "1", "", "z", 4
    if case == "dim":
        dim, lineno = LONG, 2
    elif case == "coefficient":
        expr = f"{LONG}*z"
    elif case == "denominator":
        expr = f"1/{LONG}*z"
    else:
        params, expr, lineno = "params a\n", f"a^{LONG}*z", 5
    body = "[z,z]" if kind == "algebra" else "new z"
    return f"{kind} t\ndim {dim}\n{params}basis z\n{body} = {expr}\n", lineno


@pytest.mark.parametrize("kind", ["algebra", "change"])
@pytest.mark.parametrize("case", ["coefficient", "denominator", "exponent", "dim"])
def test_overlong_integer_literal_is_a_positioned_usage_error(capsys, tmp_path, kind, case):
    doc, lineno = long_literal_doc(kind, case)
    path = write(tmp_path, "long.txt", doc)
    if kind == "algebra":
        argv = ("check", path)
    else:
        argv = ("change-basis", write(tmp_path, "z.alg", "algebra z\ndim 1\nparams a\nbasis z\n"), path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: line {lineno}: cannot read the integer {'7' * 20}... (5000 digits)\n"


def test_check_prints_a_residual_past_the_digit_limit(capsys, tmp_path):
    # a 3,000-digit literal parses; the residual's coefficient is its square,
    # 10^5998 + 14*10^2999 + 49, with 5,999 digits
    path = write(tmp_path, "big.alg", f"algebra t\ndim 1\nbasis z\n[z,z] = {10**2999 + 7}*z\n")
    square = "1" + "0" * 2997 + "14" + "0" * 2997 + "49"
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (1, "")
    assert out == f"FAIL: t: Leibniz identity fails at (z, z, z)\n  residual: {square}*z\n"
    code, out, _ = run(capsys, "check", path, "--porcelain")
    assert (code, out) == (1, f"status\tFAIL\nwitness\tz,z,z\nresidual\t{square}*z\n")


ZERO_ALGEBRA = "algebra z\ndim 0\nbasis \n"
ZERO_PROFILE = "".join(
    f"profile\tz\t{field}\t0\n"
    for field in ("dim", "derived_dim", "derived_series", "lower_central_series",
                  "left_center_dim", "right_center_dim", "squares_ideal_dim")
)


ZERO_CASES = [
    (("check", "Z"), "PASS: z satisfies the Leibniz identity (dim 0)\n"),
    (("check", "Z", "--mode", "lie"), "PASS: z satisfies the Lie axioms (dim 0)\n"),
    (("ideal", "Z"), "squares ideal of z: dimension 0\n"),
    (("ideal", "Z", "--porcelain"), "dim\t0\n"),
    (("quotient", "Z"), "algebra z_mod_I\ndim 0\nbasis \n"),
    (("profile", "--porcelain", "Z"), ZERO_PROFILE),
    (("constraints", "Z"), ""),
    (("constraints", "Z", "--porcelain"), "count\t0\n"),
    (("change-basis", "Z", "identity"), ZERO_ALGEBRA),
    (("verify-iso", "Z", "Z", "identity"), "PASS: the change maps z onto z\n"),
]


@pytest.mark.parametrize(("argv", "want"), ZERO_CASES, ids=[" ".join(argv) for argv, _ in ZERO_CASES])
def test_every_command_on_the_zero_algebra(capsys, tmp_path, argv, want):
    path = write(tmp_path, "zero.alg", ZERO_ALGEBRA)
    code, out, err = run(capsys, *(path if word == "Z" else word for word in argv))
    assert (code, out, err) == (0, want, "")


def test_quotient_by_all_of_l_reads_back(capsys, tmp_path):
    path = write(tmp_path, "zz.alg", "algebra q\ndim 1\nbasis z\n[z,z] = z\n")
    code, out, _ = run(capsys, "quotient", path)
    assert (code, out) == (0, "# squares ideal row: z\nalgebra q_mod_I\ndim 0\nbasis \n")
    quotient = write(tmp_path, "q.alg", out)
    for command in ("check", "ideal", "profile"):
        code, _, err = run(capsys, command, quotient)
        assert (code, err) == (0, ""), command


# one argv per constructor in the registry; test_every_constructor_is_read_back checks the coverage
REGISTRY_ARGS = [
    ("sl2",),
    ("r2",),
    ("abelian", "--dim", "3"),
    ("dzhumadildaev", "--m", "2"),
    ("module-ext", "--m", "2", "--a", "1/2"),
    ("generic", "--m", "1", "--sl2-r-products"),
    ("prefamily",),
    ("Lfamily", "--l", "1", "--mu", "0", "--a", "1"),
    ("direct-sum", "sl2", "r2"),
]


PARAMETRIC_REFUSAL = (
    "table has parametric entries; use constraint extraction (extract_constraints / the constraints command) instead"
)


def assert_reads_back(capsys, path):
    """check (both modes), ideal and profile on a table file answer 0 or 1.
    A parametric table is refused by each of them as parametric input
    (exit 2, the ParametricError text, never a parse error) and is read by
    constraints instead."""
    with open(path, encoding="utf-8") as fh:
        parametric = L.parse_algebra(fh.read()).is_parametric()
    for argv in (("check", path), ("check", path, "--mode", "lie"), ("ideal", path), ("profile", path)):
        code, _, err = run(capsys, *argv)
        if parametric:
            assert (code, err) == (2, f"error: {PARAMETRIC_REFUSAL}\n"), argv
        else:
            assert code in (0, 1) and err == "", (argv, err)
    if parametric:
        code, _, err = run(capsys, "constraints", path)
        assert (code, err) == (0, "")


def test_every_constructor_is_read_back(capsys, tmp_path):
    assert sorted(args[0] for args in REGISTRY_ARGS) == sorted(cli._CONSTRUCTORS)
    for n, args in enumerate(REGISTRY_ARGS):
        assert_reads_back(capsys, construct(capsys, tmp_path, *args, filename=f"c{n}.alg"))


def unitriangular_change(rng, basis):
    """A change document whose rows are an upper triangular matrix with a
    nonzero diagonal (so invertible): a few rows scaled and sheared."""
    lines = [f"change shear\ndim {len(basis)}\nbasis {' '.join(basis)}\n"]
    for i in sorted(rng.sample(range(len(basis)), min(3, len(basis)))):
        terms = [f"{rng.choice(('1', '2', '-1/2'))}*{basis[i]}"]
        terms += [f"{rng.choice((1, -3, '2/3'))}*{b}" for b in basis[i + 1:i + 3]]
        lines.append(f"new {basis[i]} = {' + '.join(terms)}\n")
    return "".join(lines)


def test_quotient_and_change_basis_outputs_are_read_back(capsys, tmp_path):
    rng = random.Random(3)
    for n, t in enumerate(constant_fixture_tables()):
        path = write(tmp_path, f"t{n}.alg", L.serialize_algebra(t))
        chg = write(tmp_path, f"t{n}.chg", unitriangular_change(rng, t.basis))
        for argv in (("quotient", path), ("change-basis", path, chg)):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert_reads_back(capsys, write(tmp_path, "out.alg", out))


def test_constraint_lines_parse_back(capsys, tmp_path):
    # every printed constraint reads back through parse_scalar as the Poly it came from
    count = 0
    for args in ("generic --m 2 --sl2-r-products --sl2-defects", "generic --m 6 --sl2-r-products --sl2-defects",
                 "prefamily"):
        path = construct(capsys, tmp_path, *args.split())
        code, out, _ = run(capsys, "constraints", path)
        with open(path, encoding="utf-8") as fh:
            t = L.parse_algebra(fh.read())
        polys = list(L.extract_constraints(t))
        assert code == 0 and len(out.splitlines()) == len(polys)
        for line, poly in zip(out.splitlines(), polys):
            assert algfile.parse_scalar(line, t.params) == poly, line
        count += len(polys)
    assert count == 749


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_transcripts():
    """(command, printed lines) for each `$ ` line of the sh blocks in README's
    Quick start and isomorphism sections, which end at the CLI reference."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Quick start") : text.index("## CLI reference")]
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            elif line:
                steps[-1][1].append(line)
    return steps


def test_readme_transcripts_replay(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = readme_transcripts()
    code = None
    for command, printed in steps:
        want = "".join(line + "\n" for line in printed)
        words = shlex.split(command)
        if words[0] == "cat":  # the transcript shows a file the reader writes
            write(tmp_path, words[1], want)
            continue
        if words == ["echo", "$?"]:
            assert want == f"{code}\n", command
            continue
        assert words[0] == "leibnizalg", command
        target = tail = None
        if words[-2:-1] == [">"]:
            words, target = words[:-2], words[-1]
        if words[-3:] == ["|", "tail", "-1"]:
            words, tail = words[:-3], True
        code, out, err = run(capsys, *words[1:])
        if target:
            write(tmp_path, target, out)
            out = ""
        if tail:
            out = out.splitlines(keepends=True)[-1]
        assert out + err == want, command
    replayed = " ".join(command for command, _ in steps)
    for command in ("construct Lfamily", "construct prefamily", "constraints", "quotient", "verify-iso"):
        assert f"leibnizalg {command}" in replayed


def test_readme_python_block_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"Python use mirrors the CLI:\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, README, "exec"), {})
    assert capsys.readouterr().out == "['l - a*l']\n"


def test_profile_human_and_porcelain(capsys, tmp_path):
    p1 = construct(capsys, tmp_path, "sl2")
    p2 = construct(capsys, tmp_path, "Lfamily", "--l", "0", "--mu", "1", "--a", "1", filename="l011.alg")
    p3 = construct(capsys, tmp_path, "Lfamily", "--l", "1", "--mu", "0", "--a", "1", filename="l101.alg")
    code, out, _ = run(capsys, "profile", p1, p2)
    assert code == 0
    assert "derived_series" in out
    assert "DISTINGUISHED" in out
    code, out, _ = run(capsys, "profile", p2, p3)
    assert "INCONCLUSIVE" in out
    assert "isomorphic" not in out.replace("does not assert an isomorphism", "")
    code, out, _ = run(capsys, "profile", p1, p2, "--porcelain")
    lines = out.splitlines()
    assert "profile\tsl2\tdim\t3" in lines
    assert any(line.startswith("compare\tsl2\tL_0_1_1\tDISTINGUISHED") for line in lines)


SL2_PROFILE = """\
  dim                   3
  derived_dim           3
  derived_series        3
  lower_central_series  3
  left_center_dim       0
  right_center_dim      0
  squares_ideal_dim     0
"""
L_POINT_PROFILE = """\
  dim                   8
  derived_dim           7
  derived_series        8 7 6
  lower_central_series  8 7
  left_center_dim       0
  right_center_dim      3
  squares_ideal_dim     3
"""
SEPARATING = "dim,derived_dim,derived_series,lower_central_series,right_center_dim,squares_ideal_dim"


def porcelain_profile(name, human):
    return "".join(
        "profile\t{}\t{}\t{}\n".format(name, *line.strip().split(None, 1))
        for line in human.splitlines()
    )


def test_profile_output_is_pinned(capsys, tmp_path):
    p1 = construct(capsys, tmp_path, "sl2")
    p2 = construct(capsys, tmp_path, "Lfamily", "--l", "0", "--mu", "1", "--a", "1", filename="l011.alg")
    p3 = construct(capsys, tmp_path, "Lfamily", "--l", "1", "--mu", "0", "--a", "1", filename="l101.alg")
    _, out, _ = run(capsys, "profile", p1, p2)
    assert out == (
        f"table sl2 ({p1})\n" + SL2_PROFILE + f"table L_0_1_1 ({p2})\n" + L_POINT_PROFILE
        + "sl2 vs L_0_1_1: DISTINGUISHED (" + SEPARATING.replace(",", ", ") + ")\n"
    )
    _, out, _ = run(capsys, "profile", p2, p3)
    assert out == (
        f"table L_0_1_1 ({p2})\n" + L_POINT_PROFILE + f"table L_1_0_1 ({p3})\n" + L_POINT_PROFILE
        + "L_0_1_1 vs L_1_0_1: INCONCLUSIVE (computed invariants agree; "
        "this does not assert an isomorphism)\n"
    )
    _, out, _ = run(capsys, "profile", p1, p2, "--porcelain")
    assert out == (
        porcelain_profile("sl2", SL2_PROFILE) + porcelain_profile("L_0_1_1", L_POINT_PROFILE)
        + f"compare\tsl2\tL_0_1_1\tDISTINGUISHED\t{SEPARATING}\n"
    )


def test_profile_computes_each_profile_once(capsys, tmp_path, monkeypatch):
    paths = [
        construct(capsys, tmp_path, "sl2"),
        construct(capsys, tmp_path, "Lfamily", "--l", "0", "--mu", "1", "--a", "1", filename="l011.alg"),
        construct(capsys, tmp_path, "Lfamily", "--l", "1", "--mu", "0", "--a", "1", filename="l101.alg"),
    ]
    calls = []
    original = L.AlgebraTable.invariant_profile

    def counted(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(L.AlgebraTable, "invariant_profile", counted)
    code, out, _ = run(capsys, "profile", *paths, "--porcelain")
    assert code == 0
    assert calls == ["sl2", "L_0_1_1", "L_1_0_1"]
    assert out.splitlines()[-3:] == [
        f"compare\tsl2\tL_0_1_1\tDISTINGUISHED\t{SEPARATING}",
        f"compare\tsl2\tL_1_0_1\tDISTINGUISHED\t{SEPARATING}",
        "compare\tL_0_1_1\tL_1_0_1\tINCONCLUSIVE\t",
    ]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "leibnizalg", "construct", "r2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("algebra r2")


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------------------
# fresh processes: the in-process tests above run after conftest has imported
# every module, so only a new interpreter shows what a command imports itself

SRC = os.path.dirname(os.path.dirname(L.__file__))
# leibnizalg.__all__, pinned: resolving names lazily must not change what it exports
ALL_NAMES = [
    "AdmissibilityError", "AlgebraError", "AlgebraTable", "BasisChange", "BasisChangeError",
    "ChangeDocument", "ConstraintSet", "DISTINGUISHED", "DimensionMismatchError", "Element",
    "FamilySpec", "INCONCLUSIVE", "InvariantProfile", "MissingParameterError", "NotAnIdealError",
    "ONE", "ParametricError", "ParseError", "Poly", "ProfileReport", "QuotientMap", "Subspace",
    "Verdict", "ZERO", "apply_basis_change", "as_poly", "element_from",
    "extract_constraints", "format_element", "make_L_family", "make_L_prefamily", "make_abelian",
    "make_direct_sum", "make_dzhumadildaev", "make_generic_family", "make_module_extension",
    "make_r2", "make_sl2", "make_sl2_module", "parse_algebra",
    "parse_change", "serialize_algebra", "span", "verify_isomorphism", "zero_element",
]


def fresh_python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


@pytest.fixture
def small_inputs(capsys, tmp_path):
    construct(capsys, tmp_path, "sl2")
    construct(capsys, tmp_path, "prefamily")
    construct(capsys, tmp_path, "Lfamily", "--l", "2", "--mu", "3", "--a", "1", filename="a.alg")
    construct(capsys, tmp_path, "Lfamily", "--l", "1", "--mu", "0", "--a", "1", filename="b.alg")
    write(tmp_path, "c.chg", CHANGE_231_TO_101)
    return tmp_path


EVERY_COMMAND = [
    ("check", "b.alg"),
    ("check", "b.alg", "--mode", "lie", "--porcelain"),
    ("construct", "generic", "--m", "1", "--sl2-defects"),
    ("construct", "direct-sum", "sl2", "r2"),
    ("ideal", "b.alg"),
    ("quotient", "b.alg"),
    ("constraints", "prefamily.alg", "--porcelain"),
    ("change-basis", "a.alg", "c.chg"),
    ("verify-iso", "a.alg", "b.alg", "c.chg"),
    ("verify-iso", "a.alg", "b.alg", "identity"),
    ("profile", "sl2.alg"),
    ("profile", "sl2.alg", "a.alg", "b.alg", "--porcelain"),
]


# ---------------------------------------------------------------------------
# the argparse parser as it was written by hand before the command table:
# main() must answer every argv exactly as this parser and the handlers do


def ref_build_parser():
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact structure-constant computations for Leibniz algebras.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check", help="verify the Leibniz or Lie identities")
    p.add_argument("file")
    p.add_argument("--mode", choices=("leibniz", "lie"), default="leibniz")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cli._cmd_check)

    p = commands.add_parser("construct", help="emit a named table as .alg text")
    p.add_argument("name")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(func=cli._cmd_construct)

    p = commands.add_parser("ideal", help="print the squares ideal (echelon rows)")
    p.add_argument("file")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cli._cmd_ideal)

    p = commands.add_parser("quotient", help="print the quotient by the squares ideal")
    p.add_argument("file")
    p.set_defaults(func=cli._cmd_quotient)

    p = commands.add_parser("constraints", help="print the Leibniz constraint polynomials")
    p.add_argument("file")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cli._cmd_constraints)

    p = commands.add_parser("change-basis", help="rewrite a table on a new basis")
    p.add_argument("file")
    p.add_argument("change", help="change document path, or `identity`")
    p.set_defaults(func=cli._cmd_change_basis)

    p = commands.add_parser("verify-iso", help="check that a change maps one table onto another")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("change", help="change document path, or `identity`")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cli._cmd_verify_iso)

    p = commands.add_parser("profile", help="print invariant profiles and compare them")
    p.add_argument("files", nargs="+")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=cli._cmd_profile)

    return parser


def ref_main(argv):
    args = ref_build_parser().parse_args(argv)
    try:
        return args.func(args)
    except L.AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_exiting(capsys, main, argv):
    """(exit code, stdout, stderr) of main(argv), with argparse's SystemExit as its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CONSTRUCT_CORPUS = [("construct", *args.split()) for args in (
    "sl2", "r2", "prefamily", "prefamily --x", "so8", "sl2 extra", "sl2 --dim 3",
    "abelian --dim 3", "abelian --dim 0", "abelian --dim x", "abelian",
    "dzhumadildaev --m 2", "module-ext --m 1 --a 7/3", "module-ext --m 1 --a=x", "module-ext --m 0",
    "generic --m 1 --sl2-defects --sl2-r-products", "Lfamily --l=1 --mu=0 --a=1", "Lfamily --l 1 --mu 0 --a 0",
    "Lfamily --l 1/0 --mu 0 --a 1", "Lfamily --l 1", "direct-sum prefamily r2", "direct-sum sl2 so8",
    "direct-sum sl2", "abelian -h",
)]
# argv that main() leaves to argparse: abbreviations, --opt=value, `--`, -h,
# stray dashes, split positionals, and usage errors
FALLBACK_CORPUS = [
    ("check", "b.alg", "--porc"),
    ("check", "b.alg", "--mode=lie"),
    ("check", "--", "b.alg"),
    ("construct", "sl2", "--"),
    ("-h",),
    ("check", "-h"),
    ("construct", "-h"),
    ("check", "-x.alg"),
    ("check", "b.alg", "--mode"),
    ("check", "b.alg", "--mode", "jordan"),
    ("--porcelain", "check", "b.alg"),
    ("profile", "sl2.alg", "--porcelain", "b.alg"),
    ("verify-iso", "a.alg", "b.alg", "--porcelain", "c.chg"),
    (),
    ("nosuch", "b.alg"),
    ("check",),
    ("profile", "--porcelain"),
    ("check", "a.alg", "b.alg"),
    ("quotient", "b.alg", "--porcelain"),
]
# argv that main() parses from the command table itself; `construct` takes
# every word after the name as is, and its own parser reads -h
TABLE_CORPUS = [
    ("construct", "sl2", "-h"),
    ("check", "--mode", "lie", "b.alg"),
    ("check", "b.alg", "--porcelain", "--mode", "lie", "--mode", "leibniz"),
    ("profile", "--porcelain", "sl2.alg", "b.alg"),
]
ARGV_CORPUS = EVERY_COMMAND + CONSTRUCT_CORPUS + FALLBACK_CORPUS + TABLE_CORPUS


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_fresh_process_matches_in_process(capsys, small_inputs, monkeypatch, argv):
    monkeypatch.chdir(small_inputs)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal width
    want = run_exiting(capsys, ref_main, argv)
    assert run_exiting(capsys, cli.main, argv) == want
    proc = fresh_python("-m", "leibnizalg", *argv, cwd=small_inputs)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


WORDS = ("check", "construct", "ideal", "profile", "verify-iso", "sl2", "b.alg", "c.chg", "--porcelain", "--mode",
         "lie", "leibniz", "--porc", "--mode=lie", "-h", "--", "-", "", "--m", "2")


@settings(max_examples=300)
@given(st.sampled_from(sorted(cli._COMMANDS)), st.lists(st.sampled_from(WORDS), max_size=6))
def test_table_parse_equals_argparse(command, words):
    argv = [command, *words]
    got = cli._args_from_table(argv)
    if got is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            assert vars(got) == vars(cli.build_parser().parse_args(argv))


def test_parser_is_built_only_off_the_table(capsys, small_inputs, monkeypatch):
    monkeypatch.chdir(small_inputs)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or ref_build_parser())
    for argv in EVERY_COMMAND + TABLE_CORPUS:
        run_exiting(capsys, cli.main, argv)
    assert built == []
    for argv in FALLBACK_CORPUS:
        run_exiting(capsys, cli.main, argv)
    assert len(built) == len(FALLBACK_CORPUS)


NEVER_AFTER_SIMPLE_COMMANDS = {"leibnizalg.analysis", "leibnizalg.constructions", "dataclasses"}
IMPORTS_OF = """\
import json, runpy, sys
before = set(sys.modules)
sys.argv = ["leibnizalg", *sys.argv[1:]]
try:
    runpy.run_module("leibnizalg", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
added = sorted(set(sys.modules) - before)
defined = {name for m in added if m.startswith("leibnizalg") for name in vars(sys.modules[m])}
print(json.dumps({"modules": added, "defined": sorted(defined)}))
"""


def imports_of(cwd, *argv):
    """The modules a fresh `python -m leibnizalg ARGV` loads, and the names they define."""
    proc = fresh_python("-c", IMPORTS_OF, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    return set(got["modules"]), set(got["defined"])


@pytest.mark.parametrize("argv", [("check", "b.alg"), ("ideal", "b.alg"), ("quotient", "b.alg"), ("profile", "b.alg")])
def test_simple_commands_import_neither_analysis_nor_constructions(small_inputs, argv):
    added, _ = imports_of(small_inputs, *argv)
    assert "leibnizalg.core" in added
    assert not added & NEVER_AFTER_SIMPLE_COMMANDS


# what each optional layer defines; a command that skips the layer must not
# load the module, nor compile these names anywhere else
LAYER_NAMES = {
    "leibnizalg.spaces": {"Echelon", "InvariantProfile", "QuotientMap", "Subspace", "span"},
    "leibnizalg.basis": {"BasisChange", "det_and_adjugate", "inverse_constant", "_row_times"},
}
BOTH_LAYERS = ("leibnizalg.spaces", "leibnizalg.basis")
SKIPPED_LAYERS = [
    (("check", "b.alg"), BOTH_LAYERS),
    (("check", "b.alg", "--mode", "lie"), BOTH_LAYERS),
    (("constraints", "prefamily.alg"), BOTH_LAYERS),
    (("ideal", "b.alg"), ("leibnizalg.basis",)),
    (("quotient", "b.alg"), ("leibnizalg.basis",)),
    (("profile", "b.alg"), ("leibnizalg.basis",)),
    (("profile", "sl2.alg", "a.alg", "b.alg"), ("leibnizalg.basis",)),
    (("construct", "sl2"), ("leibnizalg.basis",)),
    (("construct", "dzhumadildaev", "--m", "2"), ("leibnizalg.basis",)),
]


@pytest.mark.parametrize("argv", [
    ("check", "b.alg"),
    ("check", "b.alg", "--mode", "lie", "--porcelain"),
    ("ideal", "b.alg"),
    ("quotient", "b.alg"),
    ("constraints", "prefamily.alg"),
    ("profile", "b.alg"),
    ("profile", "--porcelain", "sl2.alg", "a.alg", "b.alg"),
    ("change-basis", "a.alg", "c.chg"),
    ("verify-iso", "a.alg", "b.alg", "c.chg", "--porcelain"),
    ("construct", "sl2"),
    ("construct", "r2"),
    ("construct", "prefamily"),
], ids=" ".join)
def test_table_commands_do_not_import_argparse(small_inputs, argv):
    added, _ = imports_of(small_inputs, *argv)
    assert "leibnizalg.cli" in added
    assert "argparse" not in added


def test_layer_names_are_defined_by_their_layer():
    for module, names in LAYER_NAMES.items():
        assert names <= set(vars(importlib.import_module(module))), module


@pytest.mark.parametrize(("argv", "skipped"), SKIPPED_LAYERS, ids=[" ".join(a) for a, _ in SKIPPED_LAYERS])
def test_command_compiles_only_its_layers(small_inputs, argv, skipped):
    added, defined = imports_of(small_inputs, *argv)
    for module in skipped:
        assert module not in added
        assert not LAYER_NAMES[module] & defined, module


def test_package_namespace_is_lazy_and_complete():
    script = """\
import json, sys
import leibnizalg
loaded = sorted(m for m in sys.modules if m.startswith("leibnizalg."))
listed = dir(leibnizalg)
names = {}
exec("from leibnizalg import *", names)
modules = [m for name, m in sys.modules.items() if name.startswith("leibnizalg.")]
print(json.dumps({
    "loaded_by_import": loaded,
    "all": leibnizalg.__all__,
    "star": sorted(n for n in names if n != "__builtins__"),
    "dir": listed,
    "from_a_submodule": all(
        any(vars(m).get(n) is names[n] for m in modules) for n in leibnizalg.__all__
    ),
    "has_unknown": hasattr(leibnizalg, "no_such_name"),
}))
"""
    proc = fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded_by_import"] == []
    assert got["all"] == ALL_NAMES
    assert got["star"] == ALL_NAMES
    assert set(ALL_NAMES) <= set(got["dir"])
    assert got["from_a_submodule"]
    assert not got["has_unknown"]


def test_no_typing_import_without_site():
    # `site` may import typing itself (a .pth file can), so look without it
    script = """\
import sys
before = "typing" in sys.modules
import leibnizalg.cli, leibnizalg.analysis, leibnizalg.basis, leibnizalg.constructions, leibnizalg.spaces
print(before, "typing" in sys.modules)
"""
    proc = fresh_python("-S", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]

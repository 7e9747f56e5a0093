import json
import os
import subprocess
import sys

import pytest

import leibnizalg as L
from leibnizalg import cli

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


def test_check_parametric_is_a_usage_error(capsys, tmp_path):
    path = construct(capsys, tmp_path, "prefamily")
    code, out, err = run(capsys, "check", path)
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
    t = L.parse_algebra(open(path).read())
    assert t == L.make_module_extension(0, L.Poly.const(7).constant_value() / 3)


def test_constraints_output(capsys, tmp_path):
    path = construct(capsys, tmp_path, "prefamily")
    code, out, _ = run(capsys, "constraints", path)
    assert code == 0
    assert out == "l - a*l\n"
    code, out, _ = run(capsys, "constraints", path, "--porcelain")
    assert out == "count\t1\nconstraint\tl - a*l\n"


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
    "Verdict", "ZERO", "apply_basis_change", "as_poly", "compare_profiles", "element_from",
    "extract_constraints", "format_element", "make_L_family", "make_L_prefamily", "make_abelian",
    "make_direct_sum", "make_dzhumadildaev", "make_generic_family", "make_module_extension",
    "make_r2", "make_sl2", "make_sl2_module", "normalize_primitive", "parse_algebra",
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


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_fresh_process_matches_in_process(capsys, small_inputs, monkeypatch, argv):
    monkeypatch.chdir(small_inputs)
    want = run(capsys, *argv)
    proc = fresh_python("-m", "leibnizalg", *argv, cwd=small_inputs)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


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
    "leibnizalg.basis": {"BasisChange", "det_and_adjugate", "inverse_constant", "mat_identity", "mat_mul"},
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

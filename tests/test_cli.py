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


def test_construct_unknown_lists_known(capsys):
    code = cli.main(["construct", "so8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown constructor" in captured.err
    assert "Lfamily" in captured.err and "prefamily" in captured.err


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

"""Command line interface.

Exit codes: 0 for success or PASS, 1 for a mathematical FAIL (an identity
or isomorphism check that ran fine and answered no), 2 for usage, parse,
parametric-input and admissibility errors. Reports are plain text; pass
--porcelain for stable tab-separated key/value lines.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import analysis, constructions
from .algfile import parse_algebra, parse_change, serialize_algebra
from .analysis import BasisChange
from .core import AlgebraTable, format_element
from .errors import AlgebraError


def _read_table(path: str) -> AlgebraTable:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AlgebraError(f"cannot read {path}: {exc}") from exc
    return parse_algebra(text)


def _read_change(path: str, t: AlgebraTable) -> BasisChange:
    if path == "identity":
        return BasisChange.identity(t.dim)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AlgebraError(f"cannot read {path}: {exc}") from exc
    doc = parse_change(text)
    return BasisChange(doc.matrix_for(t))


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _print_verdict(verdict, t: AlgebraTable, porcelain: bool, what: str) -> int:
    if porcelain:
        print(f"status\t{verdict.status}")
        if verdict.witness:
            print("witness\t" + ",".join(verdict.witness))
        if verdict.residual is not None:
            print("residual\t" + format_element(verdict.residual, t.basis))
        return 0 if verdict.passed else 1
    if verdict.passed:
        print(f"PASS: {t.name} satisfies {what} (dim {t.dim})")
        return 0
    witness = ", ".join(verdict.witness or ())
    print(f"FAIL: {t.name}: {verdict.detail} at ({witness})")
    if verdict.residual is not None:
        print(f"  residual: {format_element(verdict.residual, t.basis)}")
    return 1


def _cmd_check(args) -> int:
    t = _read_table(args.file)
    if args.mode == "lie":
        return _print_verdict(t.check_lie(), t, args.porcelain, "the Lie axioms")
    return _print_verdict(t.check_leibniz(), t, args.porcelain, "the Leibniz identity")


_CONSTRUCTORS = {
    "sl2": "the split simple Lie algebra on (e, h, f)",
    "r2": "the solvable Lie algebra on (y1, y2)",
    "abelian": "an abelian algebra (--dim N)",
    "direct-sum": "block sum of two named constant constructors",
    "dzhumadildaev": "sl2 with the weight-m module adjoined (--m M)",
    "module-ext": "the (m+6)-dim family with y2 scaling the module (--m M --a A)",
    "generic": "the symbolic ansatz family (--m M [--sl2-r-products] [--sl2-defects])",
    "prefamily": "the eight-dim four-parameter family over the weight-2 module",
    "Lfamily": "L(l, mu, a), admissible when l*(1-a) = 0 (--l --mu --a)",
}

_NULLARY = {
    "sl2": constructions.make_sl2,
    "r2": constructions.make_r2,
    "prefamily": constructions.make_L_prefamily,
}


def _cmd_construct(args) -> int:
    name = args.name
    rest = args.args
    sub = argparse.ArgumentParser(prog=f"leibnizalg construct {name}", add_help=True)
    if name in _NULLARY:
        sub.parse_args(rest)
        table = _NULLARY[name]()
    elif name == "abelian":
        sub.add_argument("--dim", type=int, required=True)
        ns = sub.parse_args(rest)
        table = constructions.make_abelian(ns.dim)
    elif name == "direct-sum":
        sub.add_argument("left", choices=sorted(_NULLARY))
        sub.add_argument("right", choices=sorted(_NULLARY))
        ns = sub.parse_args(rest)
        table = constructions.make_direct_sum(_NULLARY[ns.left](), _NULLARY[ns.right]())
    elif name == "dzhumadildaev":
        sub.add_argument("--m", type=int, required=True)
        ns = sub.parse_args(rest)
        names, e, f, h = constructions.make_sl2_module(ns.m)
        table = constructions.make_dzhumadildaev(
            constructions.make_sl2(), names, {"e": e, "f": f, "h": h}
        )
    elif name == "module-ext":
        sub.add_argument("--m", type=int, required=True)
        sub.add_argument("--a", type=_rational, default=Fraction(0))
        ns = sub.parse_args(rest)
        table = constructions.make_module_extension(ns.m, ns.a)
    elif name == "generic":
        sub.add_argument("--m", type=int, required=True)
        sub.add_argument("--sl2-r-products", action="store_true")
        sub.add_argument("--sl2-defects", action="store_true")
        ns = sub.parse_args(rest)
        table = constructions.make_generic_family(
            constructions.FamilySpec(
                ns.m,
                include_sl2_R_products=ns.sl2_r_products,
                include_sl2_defects=ns.sl2_defects,
            )
        )
    elif name == "Lfamily":
        sub.add_argument("--l", type=_rational, required=True)
        sub.add_argument("--mu", type=_rational, required=True)
        sub.add_argument("--a", type=_rational, required=True)
        ns = sub.parse_args(rest)
        table = constructions.make_L_family(ns.l, ns.mu, ns.a)
    else:
        known = "\n  ".join(f"{k}: {v}" for k, v in sorted(_CONSTRUCTORS.items()))
        print(f"error: unknown constructor {name!r}; known constructors:\n  {known}", file=sys.stderr)
        return 2
    sys.stdout.write(serialize_algebra(table))
    return 0


def _cmd_ideal(args) -> int:
    t = _read_table(args.file)
    ideal = t.squares_ideal()
    if args.porcelain:
        print(f"dim\t{ideal.dim}")
        for el in ideal.as_elements():
            print("row\t" + format_element(el, t.basis))
    else:
        print(f"squares ideal of {t.name}: dimension {ideal.dim}")
        for el in ideal.as_elements():
            print(f"  {format_element(el, t.basis)}")
    return 0


def _cmd_quotient(args) -> int:
    t = _read_table(args.file)
    ideal = t.squares_ideal()
    quotient, _ = t.quotient_by(ideal)
    for el in ideal.as_elements():
        print(f"# squares ideal row: {format_element(el, t.basis)}")
    sys.stdout.write(serialize_algebra(quotient))
    return 0


def _cmd_constraints(args) -> int:
    t = _read_table(args.file)
    constraints = analysis.extract_constraints(t)
    if args.porcelain:
        print(f"count\t{len(constraints)}")
        for p in constraints:
            print(f"constraint\t{p}")
    else:
        for p in constraints:
            print(p)
    return 0


def _cmd_change_basis(args) -> int:
    t = _read_table(args.file)
    change = _read_change(args.change, t)
    moved = analysis.apply_basis_change(t, change)
    sys.stdout.write(serialize_algebra(moved))
    return 0


def _cmd_verify_iso(args) -> int:
    t1 = _read_table(args.file1)
    t2 = _read_table(args.file2)
    change = _read_change(args.change, t1)
    verdict = analysis.verify_isomorphism(t1, t2, change)
    if args.porcelain:
        print(f"status\t{verdict.status}")
        if verdict.detail:
            print(f"detail\t{verdict.detail}")
        return 0 if verdict.passed else 1
    if verdict.passed:
        print(f"PASS: the change maps {t1.name} onto {t2.name}")
        return 0
    print(f"FAIL: {verdict.detail}")
    return 1


_PROFILE_FIELDS = (
    "dim",
    "derived_dim",
    "derived_series",
    "lower_central_series",
    "left_center_dim",
    "right_center_dim",
    "squares_ideal_dim",
)


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def _cmd_profile(args) -> int:
    tables = [(_path, _read_table(_path)) for _path in args.files]
    profiles = [(path, t, t.invariant_profile()) for path, t in tables]
    for path, t, profile in profiles:
        d = profile.as_dict()
        if args.porcelain:
            for field in _PROFILE_FIELDS:
                print(f"profile\t{t.name}\t{field}\t{_fmt_value(d[field])}")
        else:
            print(f"table {t.name} ({path})")
            for field in _PROFILE_FIELDS:
                print(f"  {field:<22}{_fmt_value(d[field])}")
    for i in range(len(profiles)):
        for j in range(i + 1, len(profiles)):
            _, t1, p1 = profiles[i]
            _, t2, p2 = profiles[j]
            report = analysis.ProfileReport.compare(p1, p2)
            if args.porcelain:
                fields = ",".join(report.separating)
                print(f"compare\t{t1.name}\t{t2.name}\t{report.status}\t{fields}")
            elif report.distinguished:
                print(
                    f"{t1.name} vs {t2.name}: DISTINGUISHED ({', '.join(report.separating)})"
                )
            else:
                print(
                    f"{t1.name} vs {t2.name}: INCONCLUSIVE (computed invariants agree; "
                    "this does not assert an isomorphism)"
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact structure-constant computations for Leibniz algebras.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check", help="verify the Leibniz or Lie identities")
    p.add_argument("file")
    p.add_argument("--mode", choices=("leibniz", "lie"), default="leibniz")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = commands.add_parser("construct", help="emit a named table as .alg text")
    p.add_argument("name")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_construct)

    p = commands.add_parser("ideal", help="print the squares ideal (echelon rows)")
    p.add_argument("file")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_ideal)

    p = commands.add_parser("quotient", help="print the quotient by the squares ideal")
    p.add_argument("file")
    p.set_defaults(func=_cmd_quotient)

    p = commands.add_parser("constraints", help="print the Leibniz constraint polynomials")
    p.add_argument("file")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_constraints)

    p = commands.add_parser("change-basis", help="rewrite a table on a new basis")
    p.add_argument("file")
    p.add_argument("change", help="change document path, or `identity`")
    p.set_defaults(func=_cmd_change_basis)

    p = commands.add_parser("verify-iso", help="check that a change maps one table onto another")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("change", help="change document path, or `identity`")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_verify_iso)

    p = commands.add_parser("profile", help="print invariant profiles and compare them")
    p.add_argument("files", nargs="+")
    p.add_argument("--porcelain", action="store_true")
    p.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())

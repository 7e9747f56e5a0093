"""Command line interface.

Exit codes: 0 for success or PASS, 1 for a mathematical FAIL (an identity
or isomorphism check that ran fine and answered no), 2 for usage, parse,
parametric-input and admissibility errors. Reports are plain text; pass
--porcelain for stable tab-separated key/value lines.

Every command parses or writes .alg text, so algfile and core load with this
module; every other module loads only in the commands that run it (README,
"Library layout"), which keeps each command's start-up small. argparse is
among them: only `construct` with a constructor's arguments and argv that
the command table does not fit load it.
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

from .algfile import check_exponents, parse_algebra, parse_change, parse_scalar, serialize_algebra
from .core import AlgebraTable, format_element
from .errors import AlgebraError, DimensionMismatchError, ParseError


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlgebraError(f"cannot read {path}: {exc}") from exc


def _read_table(path: str) -> AlgebraTable:
    return parse_algebra(_read(path))


def _read_change(path: str, t: AlgebraTable):
    from .basis import BasisChange

    if path == "identity":
        return BasisChange.identity(t.dim)
    doc = parse_change(_read(path))
    if doc.basis != t.basis:
        raise DimensionMismatchError(
            f"change document basis {list(doc.basis)} does not match table basis {list(t.basis)}"
        )
    return BasisChange.from_assignments(t, doc.assignments)


def _rational(text: str) -> Fraction:
    """A rational argument, read by the .alg scalar grammar: `p/q` with signs."""
    try:
        return parse_scalar(text, ()).constant_value()
    except ParseError:
        import argparse

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


def _dzhumadildaev(c, ns):
    names, e, f, h = c.make_sl2_module(ns.m)
    return c.make_dzhumadildaev(c.make_sl2(), names, {"e": e, "f": f, "h": h})


def _generic(c, ns):
    spec = c.FamilySpec(
        ns.m, include_sl2_R_products=ns.sl2_r_products, include_sl2_defects=ns.sl2_defects
    )
    return c.make_generic_family(spec)


_INT = {"type": int, "required": True}
_RATIONAL = {"type": _rational, "required": True}
_FLAG = {"action": "store_true"}

# name -> (help, arguments for add_argument, builder). A builder receives the
# constructions module and the parsed arguments, and looks up its make_*
# function when called, so only `construct` imports constructions.
_CONSTRUCTORS = {
    "sl2": ("the split simple Lie algebra on (e, h, f)", (), lambda c, ns: c.make_sl2()),
    "r2": ("the solvable Lie algebra on (y1, y2)", (), lambda c, ns: c.make_r2()),
    "abelian": ("an abelian algebra (--dim N)", (("--dim", _INT),), lambda c, ns: c.make_abelian(ns.dim)),
    "dzhumadildaev": ("sl2 with the weight-m module adjoined (--m M)", (("--m", _INT),), _dzhumadildaev),
    "module-ext": (
        "the (m+6)-dim family with y2 scaling the module (--m M --a A)",
        (("--m", _INT), ("--a", {"type": _rational, "default": Fraction(0)})),
        lambda c, ns: c.make_module_extension(ns.m, ns.a),
    ),
    "generic": (
        "the symbolic ansatz family (--m M [--sl2-r-products] [--sl2-defects])",
        (("--m", _INT), ("--sl2-r-products", _FLAG), ("--sl2-defects", _FLAG)),
        _generic,
    ),
    "prefamily": (
        "the eight-dim four-parameter family over the weight-2 module",
        (),
        lambda c, ns: c.make_L_prefamily(),
    ),
    "Lfamily": (
        "L(l, mu, a), admissible when l*(1-a) = 0 (--l --mu --a)",
        (("--l", _RATIONAL), ("--mu", _RATIONAL), ("--a", _RATIONAL)),
        lambda c, ns: c.make_L_family(ns.l, ns.mu, ns.a),
    ),
}
# the summands direct-sum accepts: the constructors that take no arguments
_NULLARY = sorted(name for name, (_, spec, _) in _CONSTRUCTORS.items() if not spec)
_CONSTRUCTORS["direct-sum"] = (
    "block sum of two named constant constructors",
    (("left", {"choices": _NULLARY}), ("right", {"choices": _NULLARY})),
    lambda c, ns: c.make_direct_sum(
        _CONSTRUCTORS[ns.left][2](c, ns), _CONSTRUCTORS[ns.right][2](c, ns)
    ),
)


def _cmd_construct(args) -> int:
    name = args.name
    if name not in _CONSTRUCTORS:
        known = "\n  ".join(f"{k}: {text}" for k, (text, _, _) in sorted(_CONSTRUCTORS.items()))
        print(f"error: unknown constructor {name!r}; known constructors:\n  {known}", file=sys.stderr)
        return 2
    from . import constructions

    _, spec, build = _CONSTRUCTORS[name]
    ns = None  # a constructor without arguments, given none, needs no parser
    if spec or args.args:
        import argparse

        sub = argparse.ArgumentParser(prog=f"leibnizalg construct {name}", add_help=True)
        for flag, options in spec:
            sub.add_argument(flag, **options)
        ns = sub.parse_args(args.args)
        for flag, _ in spec:  # argparse up to Python 3.12 reads `--flag=--` as [] and never calls its type
            if getattr(ns, flag.lstrip("-").replace("-", "_")) == []:
                sub.error(f"argument {flag}: expected one argument")
    table = build(constructions, ns)
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
    from .analysis import extract_constraints

    constraints = extract_constraints(_read_table(args.file))
    check_exponents(constraints)
    if args.porcelain:
        print(f"count\t{len(constraints)}")
        for line in constraints.lines():
            print(f"constraint\t{line}")
    else:
        for line in constraints.lines():
            print(line)
    return 0


def _cmd_change_basis(args) -> int:
    from .basis import apply_basis_change

    t = _read_table(args.file)
    moved = apply_basis_change(t, _read_change(args.change, t))
    sys.stdout.write(serialize_algebra(moved))
    return 0


def _cmd_verify_iso(args) -> int:
    from .basis import verify_isomorphism

    t1 = _read_table(args.file1)
    t2 = _read_table(args.file2)
    verdict = verify_isomorphism(t1, t2, _read_change(args.change, t1))
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


def _fmt_value(value) -> str:
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def _cmd_profile(args) -> int:
    tables = [(_path, _read_table(_path)) for _path in args.files]
    profiles = [(path, t, t.invariant_profile()) for path, t in tables]
    for path, t, profile in profiles:
        fields = profile.as_dict().items()
        if args.porcelain:
            for field, value in fields:
                print(f"profile\t{t.name}\t{field}\t{_fmt_value(value)}")
        else:
            print(f"table {t.name} ({path})")
            for field, value in fields:
                print(f"  {field:<22}{_fmt_value(value)}")
    pairs = [(a, b) for i, a in enumerate(profiles) for b in profiles[i + 1 :]]
    if pairs:
        from .spaces import ProfileReport
    for (_, t1, p1), (_, t2, p2) in pairs:
        report = ProfileReport.compare(p1, p2)
        if args.porcelain:
            fields = ",".join(report.separating)
            print(f"compare\t{t1.name}\t{t2.name}\t{report.status}\t{fields}")
        elif report.distinguished:
            print(f"{t1.name} vs {t2.name}: DISTINGUISHED ({', '.join(report.separating)})")
        else:
            print(
                f"{t1.name} vs {t2.name}: INCONCLUSIVE (computed invariants agree; "
                "this does not assert an isomorphism)"
            )
    return 0


_NARGS = {"files": "+", "args": "..."}  # "..." is argparse.REMAINDER
_CHOICES = {"--mode": ("leibniz", "lie")}  # an option with choices; the first is the default
_ARG_HELP = {"change": "change document path, or `identity`"}
# command -> (handler, help, positionals, options); an option not in _CHOICES is a flag
_COMMANDS = {
    "check": (_cmd_check, "verify the Leibniz or Lie identities", ("file",), ("--mode", "--porcelain")),
    "construct": (_cmd_construct, "emit a named table as .alg text", ("name", "args"), ()),
    "ideal": (_cmd_ideal, "print the squares ideal (echelon rows)", ("file",), ("--porcelain",)),
    "quotient": (_cmd_quotient, "print the quotient by the squares ideal", ("file",), ()),
    "constraints": (_cmd_constraints, "print the Leibniz constraint polynomials", ("file",), ("--porcelain",)),
    "change-basis": (_cmd_change_basis, "rewrite a table on a new basis", ("file", "change"), ()),
    "verify-iso": (_cmd_verify_iso, "check that a change maps one table onto another",
                   ("file1", "file2", "change"), ("--porcelain",)),
    "profile": (_cmd_profile, "print invariant profiles and compare them", ("files",), ("--porcelain",)),
}


def build_parser():
    """The argparse parser for the command table, for argv that
    _args_from_table leaves to it: its usage errors and help."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="leibnizalg",
        description="Exact structure-constant computations for Leibniz algebras.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, positionals, options) in _COMMANDS.items():
        p = commands.add_parser(command, help=text)
        for name in positionals:
            p.add_argument(name, nargs=_NARGS.get(name), help=_ARG_HELP.get(name))
        for option in options:
            if option in _CHOICES:
                p.add_argument(option, choices=_CHOICES[option], default=_CHOICES[option][0])
            else:
                p.add_argument(option, action="store_true")
        p.set_defaults(func=func)
    return parser


def _args_from_table(argv: list[str]) -> SimpleNamespace | None:
    """The arguments build_parser() would parse from argv, when argv fits
    the table exactly: options spelled out in full (a choice as the next
    word) and one run of positionals. Otherwise None (`--opt=value`, an
    abbreviation, `--`, `-h`, an error), and argparse parses argv."""
    if not argv or argv[0] not in _COMMANDS or "--" in argv:
        return None
    func, _, names, options = _COMMANDS[argv[0]]
    args = {"command": argv[0], "func": func}
    for option in options:
        args[option[2:]] = _CHOICES[option][0] if option in _CHOICES else False
    nfixed, nargs = len(names) - 1, _NARGS.get(names[-1])
    words: list = []
    ended = False
    tokens = iter(argv[1:])
    for token in tokens:
        if nargs == "..." and len(words) == nfixed:
            words.append([token, *tokens])
        elif token in options:
            ended = bool(words)
            value = next(tokens, None) if token in _CHOICES else True
            if token in _CHOICES and value not in _CHOICES[token]:
                return None
            args[token[2:]] = value
        elif token.startswith("-") or ended:
            return None
        else:
            words.append(token)
    if nargs == "..." and len(words) == nfixed:
        words.append([])
    elif nargs == "+" and len(words) > nfixed:
        words[nfixed:] = [words[nfixed:]]
    if len(words) != len(names):
        return None
    args.update(zip(names, words))
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _args_from_table(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    """Console entry point. The process ends after main(), so the collector
    stays off, and gc.freeze() spares the exit its collections over the
    heap; stdout is still flushed and atexit still runs."""
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)

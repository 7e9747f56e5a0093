"""Read and write the .alg text format for structure-constant tables.

Grammar (one statement per line, `#` starts a comment, blank lines are
ignored; whitespace is free between tokens but may not split a number or
a name, so `1 2*a` and `p q*a` are malformed terms, not `12*a` or `pq*a`):

    algebra NAME
    dim INT
    params NAME+            (optional)
    basis NAME+
    [NAME,NAME] = EXPR      (zero or more; unlisted products are zero)

EXPR is `0` or terms joined by `+` and `-`. A sign must be followed by a
term; a run of signs is negative when it holds an odd number of `-`. A
term is an optional rational coefficient (INT or INT/INT) and an optional
monomial (param factors `name` or `name^INT`, INT <= MAX_EXPONENT), each
followed by `*`, then a basis symbol: `2*e`, `x0`, `l*x0`, `-1/2*a*b^2*x1`.
Scalar expressions (constraint output, the CLI's rational arguments) are
the same minus the trailing basis symbol. Output keeps to the same
exponent cap (check_exponents), so it reads back.

A change-of-basis document uses the same header with `change` in place of
`algebra`, followed by `new NAME = EXPR` lines giving new basis vectors in
old coordinates; unlisted names default to identity rows.

Headers appear in the order shown; anything else is rejected with a
positioned error. Files are UTF-8, newline-terminated.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

from .core import AlgebraTable, Element, Record, format_coords
from .errors import AlgebraError, ParseError
from .scalars import ZERO, Poly, mono_mul

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"\d+(?:/\d+)?\Z")
_POWER_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?\Z")
_PRODUCT_RE = re.compile(r"\[\s*([^],\s]+)\s*,\s*([^],\s]+)\s*\]\s*=(.+)\Z")
_NEW_RE = re.compile(r"new\s+(\S+?)\s*=\s*(.+)\Z")
_TERM_RE = re.compile(r"([+-]*)([^+-]+)")

MAX_EXPONENT = 10_000  # of `name^INT`; one in the billions prints at once but never evaluates


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _int(digits: str, lineno: int) -> int:
    """int(digits), with a positioned ParseError where int() raises: a
    literal longer than the interpreter's integer-string digit limit
    (4,300 digits by default), or digits int() does not read."""
    try:
        return int(digits)
    except ValueError:
        shown = repr(digits) if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"
        raise ParseError(lineno, f"cannot read the integer {shown}") from None


def _split_terms(expr: str, lineno: int) -> list[tuple[int, str]]:
    """Split a nonempty expression, spaces left only inside bodies, into (sign, body) chunks.

    A chunk is a run of signs and the body after it; it is negative when the
    run holds an odd number of `-`. Every string not ending in a sign is a
    sequence of chunks, so a trailing sign is the one malformed case here.
    """
    if expr[-1] in "+-":
        raise ParseError(lineno, f"malformed expression {expr!r}")
    return [(-1 if signs.count("-") % 2 else 1, body) for signs, body in _TERM_RE.findall(expr)]


def _parse_term(
    body: str,
    sign: int,
    params: tuple[str, ...],
    lineno: int,
    basis: dict[str, int] | None,
) -> tuple[Poly, int | None]:
    """One term -> (scalar, coordinate index). basis maps symbols to indices; None parses a bare scalar."""
    factors = body.split("*")
    if any(not f for f in factors) or " " in body:
        raise ParseError(lineno, f"malformed term {body!r}")
    k: int | None = None
    if basis is not None:
        k = basis.get(factors[-1])
        if k is None:
            raise ParseError(lineno, f"term {body!r} must end in a basis symbol")
        factors = factors[:-1]
    coeff = Fraction(sign)
    mono: tuple[tuple[str, int], ...] = ()
    for pos, factor in enumerate(factors):
        if _RATIONAL_RE.match(factor):
            if pos != 0:
                raise ParseError(lineno, f"coefficient must lead the term in {body!r}")
            num, _, den = factor.partition("/")
            den = _int(den, lineno) if den else 1
            if den == 0:
                raise ParseError(lineno, f"zero denominator in {body!r}")
            coeff *= Fraction(_int(num, lineno), den)
            continue
        m = _POWER_RE.match(factor)
        if not m or m.group(1) not in params:
            raise ParseError(lineno, f"unknown symbol {factor!r}")
        exp = _int(m.group(2), lineno) if m.group(2) else 1
        if exp > MAX_EXPONENT:
            raise ParseError(lineno, f"exponent of {m.group(1)!r} is above {MAX_EXPONENT}")
        if exp == 0:
            continue
        mono = mono_mul(mono, ((m.group(1), exp),))
    return Poly({mono: coeff}) if coeff else ZERO, k


def _parse_expr(
    text: str, params: tuple[str, ...], lineno: int, index: dict[str, int] | None
) -> dict[int | None, Poly]:
    """{coordinate index: scalar} of an expression over the basis given as
    {symbol: index}; index None reads a bare scalar, kept under None."""
    # a space stays only between two word characters, where it fails the term in _parse_term
    expr = re.sub(r" (?!\w)|(?<!\w) ", "", re.sub(r"\s+", " ", text))
    if not expr:
        raise ParseError(lineno, "empty expression")
    coords: dict[int | None, Poly] = {}
    if expr == "0":
        return coords
    for sign, body in _split_terms(expr, lineno):
        poly, k = _parse_term(body, sign, params, lineno, index)
        coords[k] = coords[k] + poly if k in coords else poly
    return coords


def parse_scalar(text: str, params: tuple[str, ...], lineno: int = 1) -> Poly:
    """Parse a scalar expression such as `l - 1/2*a*l`."""
    return _parse_expr(text, params, lineno, None).get(None, ZERO)


def _parse_names(rest: list[str], what: str, lineno: int) -> tuple[str, ...]:
    if not rest:
        raise ParseError(lineno, f"{what} line lists no names")
    for name in rest:
        if not _NAME_RE.match(name):
            raise ParseError(lineno, f"invalid {what} name {name!r}")
    if len(set(rest)) != len(rest):
        raise ParseError(lineno, f"duplicate {what} name")
    return tuple(rest)


def _parse_header(
    lines: list[tuple[int, str]], kind: str
) -> tuple[tuple[str, int, tuple[str, ...], tuple[str, ...]], list[tuple[int, str]]]:
    """((name, dim, params, basis), the remaining lines) of a document."""
    it = iter(lines)

    def next_line(expect: str) -> tuple[int, list[str]]:
        for lineno, line in it:
            return lineno, line.split()
        raise ParseError(lines[-1][0] if lines else 1, f"missing {expect} line")

    lineno, fields = next_line(kind)
    if len(fields) != 2 or fields[0] != kind:
        raise ParseError(lineno, f"expected `{kind} NAME`")
    name = fields[1]

    lineno, fields = next_line("dim")
    if len(fields) != 2 or fields[0] != "dim" or not fields[1].isdigit():
        raise ParseError(lineno, "expected `dim INT` with a nonnegative integer")
    dim = _int(fields[1], lineno)

    lineno, fields = next_line("basis")
    params: tuple[str, ...] = ()
    if fields and fields[0] == "params":
        params = _parse_names(fields[1:], "parameter", lineno)
        lineno, fields = next_line("basis")
    if not fields or fields[0] != "basis":
        raise ParseError(lineno, "expected `basis NAME+`")
    # the zero algebra (dim 0, as a quotient by all of L) has an empty basis line
    basis = _parse_names(fields[1:], "basis", lineno) if dim or fields[1:] else ()
    if len(basis) != dim:
        raise ParseError(lineno, f"dim {dim} but {len(basis)} basis symbols")
    clash = set(params) & set(basis)
    if clash:
        raise ParseError(lineno, f"parameters clash with basis symbols: {sorted(clash)}")
    return (name, dim, params, basis), list(it)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if line:
            out.append((lineno, line))
    return out


def parse_algebra(text: str) -> AlgebraTable:
    """Parse an .alg document into a table."""
    (name, _, params, basis), body = _parse_header(_content_lines(text), "algebra")
    index = {b: i for i, b in enumerate(basis)}
    rows: list[dict[int, dict]] = [{} for _ in basis]
    seen: set[tuple[str, str]] = set()
    for lineno, line in body:
        m = _PRODUCT_RE.match(line)
        if not m:
            raise ParseError(lineno, f"expected `[NAME,NAME] = EXPR`, got {line!r}")
        left, right, expr = m.group(1), m.group(2), m.group(3)
        for symbol in (left, right):
            if symbol not in index:
                raise ParseError(lineno, f"unknown basis symbol {symbol!r}")
        if (left, right) in seen:
            raise ParseError(lineno, f"duplicate product [{left},{right}]")
        seen.add((left, right))
        rows[index[left]][index[right]] = _parse_expr(expr, params, lineno, index)
    return AlgebraTable(name, params, basis, rows)


def check_exponents(polys: Iterable[Poly]) -> None:
    """Raise AlgebraError at an exponent above MAX_EXPONENT, which the parsers
    refuse. Exponents add under products, so output can pass the cap."""
    for name, e in (pair for p in polys for mono in p.terms for pair in mono):
        if e > MAX_EXPONENT:
            raise AlgebraError(
                f"exponent {e} of {name!r} is above MAX_EXPONENT = {MAX_EXPONENT}; the output would not read back"
            )


def serialize_algebra(t: AlgebraTable) -> str:
    """Canonical .alg text: header, then nonzero products in basis order; check_exponents guards it."""
    lines = [f"algebra {t.name}", f"dim {t.dim}"]
    if t.params:  # else no entry has a monomial
        check_exponents(p for row in t.rows for entry in row.values() for _, p in entry)
        lines.append("params " + " ".join(t.params))
    lines.append("basis " + " ".join(t.basis))
    for left, row in zip(t.basis, t.rows):
        for j, entry in row.items():
            lines.append(f"[{left},{t.basis[j]}] = {format_coords(entry, t.basis)}")
    return "\n".join(lines) + "\n"


class ChangeDocument(Record):
    """A parsed change-of-basis file: the named new basis vectors in old
    coordinates (BasisChange.from_assignments builds the change)."""

    __slots__ = ("name", "params", "basis", "assignments")


def parse_change(text: str) -> ChangeDocument:
    """Parse a change-of-basis document (`change` header plus `new` lines)."""
    (name, dim, params, basis), body = _parse_header(_content_lines(text), "change")
    index = {b: i for i, b in enumerate(basis)}
    assignments: dict[str, Element] = {}
    for lineno, line in body:
        m = _NEW_RE.match(line)
        if not m:
            raise ParseError(lineno, f"expected `new NAME = EXPR`, got {line!r}")
        symbol, expr = m.group(1), m.group(2)
        if symbol not in basis:
            raise ParseError(lineno, f"unknown basis symbol {symbol!r}")
        if symbol in assignments:
            raise ParseError(lineno, f"duplicate `new {symbol}` line")
        assignments[symbol] = Element.of(dim, _parse_expr(expr, params, lineno, index))
    return ChangeDocument(name, params, basis, assignments)

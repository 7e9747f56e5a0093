"""Facts about leibnizalg output that are known without running leibnizalg.

Everything here is computed by the benchmark itself, from the formulas and
conventions stated in the README, with its own parser, its own sparse
arithmetic over Fraction and its own change-of-basis transform. Nothing in
this module imports the package under test, so a defect in the package
cannot make its own output look right.

A table is a `Table`: basis names plus a sparse product dictionary
{(left, right): {symbol: coefficient}}. Coefficients are Fraction for
constant tables and `Poly` dictionaries {monomial: Fraction} for parsed
parametric text.

Each `expect_*` function returns a check: a callable taking
(exit code, stdout, stderr) and returning None when the output is right, or
a one-line reason when it is wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

Check = Callable[[int, str, str], Optional[str]]

SL2_BASIS = ("e", "h", "f")
SL2 = {
    ("e", "h"): {"e": Fraction(2)},
    ("e", "f"): {"h": Fraction(1)},
    ("h", "e"): {"e": Fraction(-2)},
    ("h", "f"): {"f": Fraction(2)},
    ("f", "e"): {"h": Fraction(-1)},
    ("f", "h"): {"f": Fraction(-2)},
}
R2 = {("y1", "y2"): {"y1": Fraction(1)}, ("y2", "y1"): {"y1": Fraction(-1)}}
PROFILE_FIELDS = (
    "dim",
    "derived_dim",
    "derived_series",
    "lower_central_series",
    "left_center_dim",
    "right_center_dim",
    "squares_ideal_dim",
)
# README, "Profiles do not separate the L points".
L_POINT_PROFILE = {
    "dim": "8",
    "derived_dim": "7",
    "derived_series": "8 7 6",
    "lower_central_series": "8 7",
    "left_center_dim": "0",
    "right_center_dim": "3",
    "squares_ideal_dim": "3",
}
INCONCLUSIVE_TAIL = "INCONCLUSIVE (computed invariants agree; this does not assert an isomorphism)"


@dataclass
class Table:
    name: str
    basis: tuple[str, ...]
    products: dict = field(default_factory=dict)
    params: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# the tables of the README, from their formulas


def module_action(m: int) -> dict:
    """[x_k,h] = (m-2k)x_k, [x_k,f] = x_{k+1}, [x_k,e] = -k(m+1-k)x_{k-1}."""
    out = {}
    for k in range(m + 1):
        if m - 2 * k:
            out[(f"x{k}", "h")] = {f"x{k}": Fraction(m - 2 * k)}
        if k < m:
            out[(f"x{k}", "f")] = {f"x{k + 1}": Fraction(1)}
        if k > 0:
            out[(f"x{k}", "e")] = {f"x{k - 1}": Fraction(-k * (m + 1 - k))}
    return out


def module_basis(m: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(m + 1))


def sl2() -> Table:
    return Table("sl2", SL2_BASIS, dict(SL2))


def r2() -> Table:
    return Table("r2", ("y1", "y2"), dict(R2))


def module_ext(m: int, a: Fraction) -> Table:
    """sl2 + r2 with the weight-m module as a zero-square block, y2 scaling it by a."""
    products = {**SL2, **module_action(m), **R2}
    if a:
        for k in range(m + 1):
            products[(f"x{k}", "y2")] = {f"x{k}": Fraction(a)}
    return Table(f"module_ext_m{m}", SL2_BASIS + module_basis(m) + ("y1", "y2"), products)


def dzhumadildaev(m: int) -> Table:
    """sl2 with the weight-m module adjoined as a zero-square block."""
    return Table(f"sl2_plus_module{m}", SL2_BASIS + module_basis(m), {**SL2, **module_action(m)})


# ---------------------------------------------------------------------------
# sparse arithmetic


def _axpy(acc: dict, c, vec: dict) -> None:
    for k, v in vec.items():
        s = acc.get(k, 0) + c * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def bracket(t: Table, u: dict, v: dict) -> dict:
    acc: dict = {}
    for i, cu in u.items():
        for j, cv in v.items():
            entry = t.products.get((i, j))
            if entry:
                _axpy(acc, cu * cv, entry)
    return acc


def leibniz_witness(t: Table) -> Optional[tuple]:
    """First basis triple with a nonzero residual, or None.

    residual(x,y,z) = [x,[y,z]] - [[x,y],z] + [[x,z],y] (README conventions).
    """
    for x in t.basis:
        for y in t.basis:
            for z in t.basis:
                acc: dict = {}
                _axpy(acc, 1, bracket(t, {x: 1}, t.products.get((y, z), {})))
                _axpy(acc, -1, bracket(t, t.products.get((x, y), {}), {z: 1}))
                _axpy(acc, 1, bracket(t, t.products.get((x, z), {}), {y: 1}))
                if acc:
                    return (x, y, z)
    return None


def lie_residual(t: Table, witness: tuple) -> dict:
    """[u,v] + [v,u] for a pair, the Jacobi sum for a triple."""
    acc: dict = {}
    if len(witness) == 2:
        u, v = witness
        _axpy(acc, 1, t.products.get((u, v), {}))
        _axpy(acc, 1, t.products.get((v, u), {}))
        return acc
    x, y, z = witness
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        _axpy(acc, 1, bracket(t, t.products.get((a, b), {}), {c: 1}))
    return acc


def invert(rows: list[list[Fraction]]) -> Optional[list[list[Fraction]]]:
    """Gauss-Jordan inverse over Fraction; None when singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


def change_matrix(t: Table, rows: dict) -> list[list[Fraction]]:
    """Identity except the given rows {new symbol: {old symbol: coefficient}}."""
    idx = {b: i for i, b in enumerate(t.basis)}
    mat = [[Fraction(int(i == j)) for j in range(t.dim)] for i in range(t.dim)]
    for sym, row in rows.items():
        mat[idx[sym]] = [Fraction(0)] * t.dim
        for s, c in row.items():
            mat[idx[sym]][idx[s]] = Fraction(c)
    return mat


def transform(t: Table, mat: list[list[Fraction]], name: str) -> Table:
    """The table on new basis rows: new[p][q] = coords([c_p, c_q]) . C^-1."""
    inv = invert(mat)
    if inv is None:
        raise ValueError("singular change of basis")
    basis = t.basis
    vecs = [{basis[i]: c for i, c in enumerate(row) if c} for row in mat]
    products = {}
    for p, cp in enumerate(vecs):
        for q, cq in enumerate(vecs):
            w = bracket(t, cp, cq)
            out: dict = {}
            for sym, c in w.items():
                i = basis.index(sym)
                for r, ir in enumerate(inv[i]):
                    if ir:
                        _axpy(out, c * ir, {basis[r]: 1})
            if out:
                products[(basis[p], basis[q])] = out
    return Table(name, basis, products)


# ---------------------------------------------------------------------------
# text: the .alg format as the README states it


def fmt_vec(vec: dict, basis: tuple[str, ...]) -> str:
    parts = []
    for sym in basis:
        c = vec.get(sym)
        if not c:
            continue
        body = sym if abs(c) == 1 else f"{abs(c)}*{sym}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) or "0"


def write_alg(t: Table) -> str:
    lines = [f"algebra {t.name}", f"dim {t.dim}", "basis " + " ".join(t.basis)]
    for left in t.basis:
        for right in t.basis:
            vec = t.products.get((left, right))
            if vec:
                lines.append(f"[{left},{right}] = {fmt_vec(vec, t.basis)}")
    return "\n".join(lines) + "\n"


def write_change(name: str, basis: tuple[str, ...], rows: dict, params: tuple[str, ...] = ()) -> str:
    """A change document; row values are ready-made expression text or vectors."""
    lines = [f"change {name}", f"dim {len(basis)}"]
    if params:
        lines.append("params " + " ".join(params))
    lines.append("basis " + " ".join(basis))
    for sym in basis:
        if sym in rows:
            row = rows[sym]
            lines.append(f"new {sym} = {row if isinstance(row, str) else fmt_vec(row, basis)}")
    return "\n".join(lines) + "\n"


_TERM_SPLIT = re.compile(r"([+-])")
_RATIONAL = re.compile(r"\d+(?:/\d+)?\Z")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?\Z")


def parse_terms(expr: str) -> list[tuple[Fraction, tuple]]:
    """Terms of an expression as (coefficient, factors).

    Factors are (name, exponent) pairs in written order; in an element the
    last one is the basis symbol.
    """
    text = expr.replace(" ", "")
    if text == "0":
        return []
    out = []
    sign = 1
    for chunk in _TERM_SPLIT.split(text):
        if chunk in ("+", "-"):
            sign = -sign if chunk == "-" else sign
            continue
        if not chunk:
            continue
        factors = chunk.split("*")
        coeff = Fraction(1)
        if _RATIONAL.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        names = []
        for fac in factors:
            m = _FACTOR.match(fac)
            if not m:
                raise ValueError(f"bad factor {fac!r}")
            names.append((m.group(1), int(m.group(2) or 1)))
        out.append((sign * coeff, tuple(names)))
        sign = 1
    return out


def parse_element(expr: str, basis: tuple[str, ...], params: tuple[str, ...] = ()) -> dict:
    """{symbol: coefficient}; coefficient is a Fraction, or {monomial: Fraction}
    when the table has parameters."""
    vec: dict = {}
    for coeff, names in parse_terms(expr):
        if not names or names[-1][0] not in basis or names[-1][1] != 1:
            raise ValueError(f"term in {expr!r} does not end in a basis symbol")
        sym = names[-1][0]
        mono = tuple(sorted(names[:-1]))
        if any(n not in params for n, _ in mono):
            raise ValueError(f"undeclared parameter in {expr!r}")
        if params:
            poly = vec.setdefault(sym, {})
            _axpy(poly, coeff, {mono: 1})
            if not poly:
                del vec[sym]
        else:
            if mono:
                raise ValueError(f"parameter in a constant table: {expr!r}")
            _axpy(vec, coeff, {sym: 1})
    return vec


def parse_alg(text: str) -> Table:
    """Parse .alg text; comment lines (the quotient's ideal rows) are skipped."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 3 or not lines[0].startswith("algebra ") or not lines[1].startswith("dim "):
        raise ValueError("missing algebra/dim header")
    name = lines[0].split()[1]
    dim = int(lines[1].split()[1])
    rest = lines[2:]
    params: tuple[str, ...] = ()
    if rest[0].startswith("params "):
        params = tuple(rest.pop(0).split()[1:])
    if not rest or not rest[0].startswith("basis "):
        raise ValueError("missing basis line")
    basis = tuple(rest.pop(0).split()[1:])
    if len(basis) != dim:
        raise ValueError("dim does not match basis")
    t = Table(name, basis, {}, params)
    for ln in rest:
        m = re.fullmatch(r"\[(\w+),(\w+)\]\s*=\s*(.+)", ln)
        if not m or (m.group(1), m.group(2)) in t.products:
            raise ValueError(f"bad product line {ln!r}")
        vec = parse_element(m.group(3), basis, params)
        if vec:
            t.products[(m.group(1), m.group(2))] = vec
    return t


def at_zero(t: Table) -> Table:
    """A parametric table with every parameter set to 0."""
    products = {}
    for key, vec in t.products.items():
        out = {s: poly.get((), 0) for s, poly in vec.items()}
        out = {s: c for s, c in out.items() if c}
        if out:
            products[key] = out
    return Table(t.name, t.basis, products)


def evaluate(t: Table, point: dict) -> Table:
    """A parametric table at a rational point."""
    products = {}
    for key, vec in t.products.items():
        out = {}
        for s, poly in vec.items():
            val = Fraction(0)
            for mono, c in poly.items():
                term = c
                for name, e in mono:
                    term *= Fraction(point[name]) ** e
                val += term
            if val:
                out[s] = val
        if out:
            products[key] = out
    return Table(t.name, t.basis, products)


def same_table(got: Table, want: Table) -> Optional[str]:
    if got.basis != want.basis:
        return f"basis {' '.join(got.basis)} != {' '.join(want.basis)}"
    for key in sorted(set(got.products) | set(want.products)):
        if got.products.get(key, {}) != want.products.get(key, {}):
            return f"product [{key[0]},{key[1]}] differs"
    return None


# ---------------------------------------------------------------------------
# checks


def _exit(code: int, want: int) -> Optional[str]:
    return None if code == want else f"exit code {code}, expected {want}"


def _clean_stderr(stderr: str) -> Optional[str]:
    return "unexpected stderr" if stderr.strip() else None


def expect_text(want_code: int, want_stdout: str) -> Check:
    def check(code, out, err):
        if out != want_stdout:
            return f"stdout differs from the expected {want_stdout[:60]!r}"
        return _exit(code, want_code) or _clean_stderr(err)

    return check


def expect_table(want: Table) -> Check:
    """stdout is a constant .alg table equal to `want` (names aside)."""

    def check(code, out, err):
        try:
            got = parse_alg(out)
        except ValueError as exc:
            return f"unparseable table: {exc}"
        return _exit(code, 0) or _clean_stderr(err) or same_table(got, want)

    return check


def expect_lie_fail(t: Table) -> Check:
    """check --mode lie FAILs with a witness that really breaks the Lie axioms."""
    rx = re.compile(r"FAIL: (\S+): (antisymmetry|Jacobi identity) fails at \(([^)]*)\)\n  residual: (.+)\n\Z")

    def check(code, out, err):
        m = rx.match(out)
        if not m:
            return "no FAIL line with a witness and residual"
        witness = tuple(w.strip() for w in m.group(3).split(","))
        if any(w not in t.basis for w in witness) or len(witness) != (2 if m.group(2) == "antisymmetry" else 3):
            return f"malformed witness {witness}"
        want = lie_residual(t, witness)
        if not want:
            return f"witness {witness} does not break the Lie axioms"
        try:
            got = parse_element(m.group(4), t.basis)
        except ValueError as exc:
            return f"unparseable residual: {exc}"
        if got != want:
            return f"residual {m.group(4)} is not {fmt_vec(want, t.basis)}"
        return _exit(code, 1) or _clean_stderr(err)

    return check


def expect_pass(name: str, dim: int, what: str = "the Leibniz identity", porcelain: bool = False) -> Check:
    text = "status\tPASS\n" if porcelain else f"PASS: {name} satisfies {what} (dim {dim})\n"
    return expect_text(0, text)


def expect_iso_pass(name1: str, name2: str, porcelain: bool = False) -> Check:
    text = "status\tPASS\n" if porcelain else f"PASS: the change maps {name1} onto {name2}\n"
    return expect_text(0, text)


def expect_ideal(name: str, rows: tuple[str, ...], porcelain: bool = False) -> Check:
    """The squares ideal is spanned by the given basis symbols (echelon rows)."""
    if porcelain:
        text = f"dim\t{len(rows)}\n" + "".join(f"row\t{r}\n" for r in rows)
    else:
        text = f"squares ideal of {name}: dimension {len(rows)}\n" + "".join(f"  {r}\n" for r in rows)
    return expect_text(0, text)


def expect_quotient(ideal_rows: tuple[str, ...], want: Table) -> Check:
    """`# squares ideal row:` comments, then the quotient table."""
    header = "".join(f"# squares ideal row: {r}\n" for r in ideal_rows)
    table_check = expect_table(want)

    def check(code, out, err):
        if not out.startswith(header) or out[len(header):].startswith("#"):
            return "ideal row comments differ"
        return table_check(code, out[len(header):], err)

    return check


def parse_profile(out: str, porcelain: bool) -> tuple[list, list]:
    """([(name, {field: value})], [(name1, name2, status)]) from profile output."""
    tables: list = []
    pairs: list = []
    for ln in out.splitlines():
        if porcelain:
            parts = ln.split("\t")
            if parts[0] == "profile" and len(parts) == 4:
                if not tables or tables[-1][0] != parts[1] or parts[2] in tables[-1][1]:
                    tables.append((parts[1], {}))
                tables[-1][1][parts[2]] = parts[3]
            elif parts[0] == "compare" and len(parts) == 5:
                pairs.append((parts[1], parts[2], parts[3]))
            else:
                raise ValueError(f"bad porcelain line {ln!r}")
        elif ln.startswith("table "):
            tables.append((ln.split()[1], {}))
        elif ln.startswith("  ") and tables:
            key, _, value = ln.strip().partition(" ")
            tables[-1][1][key] = value.strip()
        else:
            m = re.fullmatch(r"(\S+) vs (\S+): (INCONCLUSIVE|DISTINGUISHED) \(.*\)", ln)
            if not m:
                raise ValueError(f"bad profile line {ln!r}")
            if m.group(3) == "INCONCLUSIVE" and not ln.endswith(INCONCLUSIVE_TAIL):
                raise ValueError("INCONCLUSIVE line without its disclaimer")
            pairs.append(m.groups())
    return tables, pairs


def expect_profile(names: list[str], facts: list[dict], all_equal: bool, porcelain: bool = False) -> Check:
    """One profile block per file, in order, holding the given fields.

    With all_equal, every table has the same seven fields and every pair is
    INCONCLUSIVE (basis-changed copies, the four L points).
    """

    def check(code, out, err):
        try:
            tables, pairs = parse_profile(out, porcelain)
        except ValueError as exc:
            return str(exc)
        if [n for n, _ in tables] != names:
            return f"profiled tables {[n for n, _ in tables]} != {names}"
        for (name, got), want in zip(tables, facts):
            if sorted(got) != sorted(PROFILE_FIELDS):
                return f"{name}: fields {sorted(got)}"
            for k, v in want.items():
                if got[k] != v:
                    return f"{name}: {k} = {got[k]}, expected {v}"
        want_pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
        if [(a, b) for a, b, _ in pairs] != want_pairs:
            return "comparison lines missing or out of order"
        if all_equal:
            first = tables[0][1]
            if any(t != first for _, t in tables):
                return "profiles differ"
            if any(s != "INCONCLUSIVE" for _, _, s in pairs):
                return "a pair is not INCONCLUSIVE"
        return _exit(code, 0) or _clean_stderr(err)

    return check


def expect_constraints(exact: Optional[str] = None) -> Check:
    """Either exactly the given text, or a nonempty list of constraint
    polynomials none of which has a constant term: the all-zero assignment
    gives module-ext(m, 0), which is Leibniz."""

    def check(code, out, err):
        if exact is not None:
            return expect_text(0, exact)(code, out, err)
        lines = out.splitlines()
        if not lines:
            return "no constraints printed"
        for ln in lines:
            try:
                terms = parse_terms(ln)
            except ValueError as exc:
                return f"unparseable constraint {ln!r}: {exc}"
            if not terms or any(not names for _, names in terms):
                return f"constraint {ln!r} has a constant term"
        return _exit(code, 0) or _clean_stderr(err)

    return check


def expect_parametric_change(params: tuple[str, ...], basis: tuple[str, ...], zero: Optional[Table],
                             absent: tuple[str, ...] = ()) -> Check:
    """change-basis of a parametric table: header, forbidden product lines,
    and (when given) the table at the all-zero assignment."""

    def check(code, out, err):
        try:
            got = parse_alg(out)
        except ValueError as exc:
            return f"unparseable table: {exc}"
        if got.params != params or got.basis != basis:
            return "params or basis line differs"
        for key in absent:
            if any(ln.startswith(key) for ln in out.splitlines()):
                return f"{key} line survives the change"
        if zero is not None:
            diff = same_table(at_zero(got), zero)
            if diff:
                return f"at parameters 0: {diff}"
        return _exit(code, 0) or _clean_stderr(err)

    return check


def expect_construct_family(point: dict) -> Check:
    """Lfamily output: the sl2 block, the weight-2 module, r2, and a table
    that satisfies the Leibniz identity (checked here, not by the program)."""
    blocks = {**SL2, **module_action(2), ("y1", "y2"): {"y1": Fraction(1)}}

    def check(code, out, err):
        try:
            got = parse_alg(out)
        except ValueError as exc:
            return f"unparseable table: {exc}"
        if got.basis != SL2_BASIS + module_basis(2) + ("y1", "y2"):
            return "wrong basis"
        for key, vec in blocks.items():
            if got.products.get(key) != vec:
                return f"product [{key[0]},{key[1]}] differs"
        if leibniz_witness(got):
            return f"the constructed L{tuple(point.values())} is not Leibniz"
        return _exit(code, 0) or _clean_stderr(err)

    return check


def expect_prefamily() -> Check:
    """prefamily: params l mu a b on the L basis; Leibniz exactly where
    l*(1-a) = 0, checked at a few points."""
    good = [{"l": 1, "mu": 2, "a": 1, "b": 3}, {"l": 0, "mu": 5, "a": 7, "b": -1}, {"l": 0, "mu": 0, "a": 0, "b": 0}]
    bad = [{"l": 1, "mu": 0, "a": 0, "b": 0}, {"l": 2, "mu": 1, "a": 3, "b": 1}]

    def check(code, out, err):
        try:
            got = parse_alg(out)
        except ValueError as exc:
            return f"unparseable table: {exc}"
        if got.params != ("l", "mu", "a", "b") or got.basis != SL2_BASIS + module_basis(2) + ("y1", "y2"):
            return "params or basis differ"
        for pt in good:
            if leibniz_witness(evaluate(got, pt)):
                return f"not Leibniz at admissible {pt}"
        for pt in bad:
            if not leibniz_witness(evaluate(got, pt)):
                return f"Leibniz at inadmissible {pt}"
        return _exit(code, 0) or _clean_stderr(err)

    return check


def expect_error(code_want: int, needle: str) -> Check:
    """A user error: the exit code, `error:` and the needle on stderr, no traceback."""

    def check(code, out, err):
        if "Traceback" in err:
            return "traceback on stderr"
        if not err.startswith("error:") or needle not in err:
            return f"stderr lacks {needle!r}"
        if out:
            return "unexpected stdout"
        return _exit(code, code_want)

    return check


def expect_forced_fail() -> Check:
    """README: the forced L(1,0,0) fails at (e, y1, y2) with residual x0."""
    rx = re.compile(r"FAIL: \S+: Leibniz identity fails at \(e, y1, y2\)\n  residual: x0\n\Z")

    def check(code, out, err):
        if not rx.match(out):
            return "FAIL line with witness (e, y1, y2) and residual x0 missing"
        return _exit(code, 1) or _clean_stderr(err)

    return check

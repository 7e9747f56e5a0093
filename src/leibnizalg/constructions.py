"""Constructors for the tables the package studies.

All tables share the basis spelling and conventions fixed in core:

* sl2 on (e, h, f): [e,h]=2e, [h,f]=2f, [e,f]=h and the negatives.
* r2 on (y1, y2): [y1,y2]=y1, [y2,y1]=-y1.
* The weight-m module on (x0..xm) acted on from the right:
  [x_k,h]=(m-2k)x_k, [x_k,f]=x_{k+1}, [x_k,e]=-k(m+1-k)x_{k-1}.

make_module_extension(m, a) is the (m+6)-dimensional algebra whose squares
ideal is the weight-m module and whose quotient is sl2 + r2, with y2 acting
on the module by the scalar a. Note the degenerate corner: at m=0 with a=0
the module action vanishes entirely, every square is zero and the table is
a plain Lie algebra, so its squares ideal is 0 rather than the module line.

make_L_family(l, mu, a) is the eight-dimensional three-parameter family
over the weight-2 module; it exists exactly when l*(1-a) = 0, and the
constructor enforces that. make_L_prefamily() is its four-parameter
ancestor with the removable b-products still present.

make_generic_family builds the symbolic ansatz used for constraint
extraction: every product not pinned by the conventions above carries free
coefficients named a_<left>_<right>_<j>.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .core import AlgebraTable, Element, Record, Row, pair_residual, scale_table, transpose
from .errors import AdmissibilityError, DimensionMismatchError, ParametricError
from .scalars import Poly, as_poly

Rat = Fraction | int

SL2_BASIS = ("e", "h", "f")

_SL2_PRODUCTS: dict[tuple[str, str], dict[str, int]] = {
    ("e", "h"): {"e": 2},
    ("h", "f"): {"f": 2},
    ("e", "f"): {"h": 1},
    ("h", "e"): {"e": -2},
    ("f", "h"): {"f": -2},
    ("f", "e"): {"h": -1},
}


def make_sl2() -> AlgebraTable:
    """The split three-dimensional simple Lie algebra on (e, h, f)."""
    return AlgebraTable.from_products("sl2", SL2_BASIS, _SL2_PRODUCTS)


def make_r2() -> AlgebraTable:
    """The two-dimensional solvable Lie algebra on (y1, y2)."""
    return AlgebraTable.from_products(
        "r2", ("y1", "y2"), {("y1", "y2"): {"y1": 1}, ("y2", "y1"): {"y1": -1}}
    )


def make_abelian(dim: int) -> AlgebraTable:
    """An abelian algebra on (z0, z1, ...) with all products zero."""
    if dim < 1:
        raise AdmissibilityError("abelian dimension must be a positive integer")
    return AlgebraTable.from_products(f"abelian{dim}", tuple(f"z{i}" for i in range(dim)), {})


def module_basis(m: int) -> tuple[str, ...]:
    return tuple(f"x{k}" for k in range(m + 1))


def _module_action(m: int) -> dict[str, dict[tuple[int, int], int]]:
    """The nonzero entries {(row, column): value} of right multiplication
    by e, f and h on the weight-m module; column k is the image of x_k."""
    return {
        "e": {(k - 1, k): -k * (m + 1 - k) for k in range(1, m + 1)},
        "f": {(k + 1, k): 1 for k in range(m)},
        "h": {(k, k): m - 2 * k for k in range(m + 1) if m - 2 * k},
    }


def make_sl2_module(m: int) -> tuple[tuple[str, ...], list[Row], list[Row], list[Row]]:
    """The irreducible weight-m right module for sl2.

    Returns (basis names, E, F, H): the matrices of right multiplication by
    e, f and h on coordinate columns of (x0..xm), as sparse rows (core.Row):
    row r maps column c to the coefficient of x_r in [x_c, g]. They satisfy
    H = F.E - E.F, H.E - E.H = 2E and H.F - F.H = -2F.
    """
    if m < 0:
        raise AdmissibilityError("module weight must be a nonnegative integer")
    mats: dict[str, list[dict[int, Poly]]] = {}
    for g, entries in _module_action(m).items():
        rows = mats[g] = [{} for _ in range(m + 1)]
        for (r, c), x in entries.items():
            rows[r][c] = Poly.const(x)
    return module_basis(m), mats["e"], mats["f"], mats["h"]


def _module_products(m: int) -> dict[tuple[str, str], dict[str, Rat]]:
    """Sparse right-action products of sl2 on the weight-m module block."""
    return {(f"x{c}", g): {f"x{r}": x} for g, xs in _module_action(m).items() for (r, c), x in xs.items()}


def make_dzhumadildaev(
    g: AlgebraTable, module: Sequence[str], action: Mapping[str, Sequence[Row]]
) -> AlgebraTable:
    """Adjoin a right module to a Lie algebra as a zero-square block.

    Products: [g, g'] from the Lie table, [m, g_i] = action[g_i] applied to
    m, and [g, m] = [m, m'] = 0; each action matrix is sparse rows, as
    make_sl2_module gives them. The result is a Leibniz algebra exactly
    when R_[gi,gj] = R_gj . R_gi - R_gi . R_gj for every pair, which is
    validated here: that is the Leibniz identity at (x, gi, gj) for every
    module vector x, and at every other triple the residual is zero, since
    [g, M] = [M, M] = 0 and g is Lie.
    """
    if g.is_parametric():
        raise ParametricError("the Lie factor must be a constant table")
    verdict = g.check_lie()
    if not verdict.passed:
        raise AdmissibilityError(
            f"the first factor is not a Lie table ({verdict.detail} at {verdict.witness})"
        )
    module = tuple(module)
    if set(module) & set(g.basis):
        raise DimensionMismatchError("module basis names clash with the Lie basis")
    if set(action) != set(g.basis):
        raise DimensionMismatchError("action must give one matrix per Lie basis symbol")
    mdim, n = len(module), g.dim
    dim = n + mdim
    # acted[c][i] holds the nonzero entries of column c of action[g_i]: [module[c], g_i]
    acted: list[list[dict[int, Poly]]] = [[{} for _ in range(n)] for _ in range(mdim)]
    columns = range(mdim)
    for i, gi in enumerate(g.basis):
        mat = action[gi]
        if len(mat) != mdim or any(c not in columns for row in mat for c in row):
            raise DimensionMismatchError("action matrix has the wrong shape")
        for r, row in enumerate(mat):
            for c, x in row.items():
                if x:
                    acted[c][i][n + r] = as_poly(x)
    rows = [{j: Element.of(dim, e.nonzero) for j, e in row.items()} for row in g.rows]
    rows += [{i: Element.of(dim, v) for i, v in enumerate(col) if v} for col in acted]
    # packed over the action's parameters, which AlgebraTable refuses only after the check
    params = set().union(*(p.parameters() for col in acted for v in col for p in v.values()))
    scaled = scale_table(rows, params)[1]
    module_cols = transpose([{}] * n + scaled[n:], dim)  # the action operators, on the module rows only
    for i, gi in enumerate(g.basis):
        for j, gj in enumerate(g.basis):
            if pair_residual(scaled, module_cols, i, j):
                raise AdmissibilityError(
                    f"action matrices are not a right module: fails at [{gi},{gj}]"
                )
    return AlgebraTable(f"{g.name}_plus_module", dim, (), g.basis + module, rows)


def make_direct_sum(a: AlgebraTable, b: AlgebraTable) -> AlgebraTable:
    """Block-diagonal sum; clashing basis names on the right get `_2`."""
    if a.is_parametric() or b.is_parametric():
        raise ParametricError("direct sums are built from constant tables")
    rename = {}
    taken = set(a.basis)
    for name in b.basis:
        new = name
        while new in taken:
            new = new + "_2"
        rename[name] = new
        taken.add(new)
    basis = a.basis + tuple(rename[n] for n in b.basis)
    products: dict[tuple[str, str], dict[str, Poly]] = {}
    for t, names in ((a, a.basis), (b, tuple(rename[n] for n in b.basis))):
        for bi, row in zip(names, t.rows):
            for j, entry in row.items():
                products[(bi, names[j])] = {names[k]: c for k, c in entry.nonzero.items()}
    return AlgebraTable.from_products(f"{a.name}_plus_{b.name}", basis, products)


# ---------------------------------------------------------------------------
# the (m+6)-dimensional families over sl2 + r2


def _family_basis(m: int) -> tuple[str, ...]:
    return SL2_BASIS + module_basis(m) + ("y1", "y2")


def _family_products(m: int, a: Poly | Rat) -> dict[tuple[str, str], dict[str, object]]:
    """The products every (m+6)-dim family shares: sl2, its right action on
    the weight-m module, r2, and y2 scaling the module by a (nothing when a
    is zero)."""
    products: dict[tuple[str, str], dict[str, object]] = dict(_SL2_PRODUCTS)
    products.update(_module_products(m))
    products[("y1", "y2")] = {"y1": 1}
    products[("y2", "y1")] = {"y1": -1}
    if a:
        for k in range(m + 1):
            products[(f"x{k}", "y2")] = {f"x{k}": a}
    return products


def make_module_extension(m: int, a: Rat = 0) -> AlgebraTable:
    """The canonical (m+6)-dim family: sl2 + r2 with the weight-m module as
    zero-square block and y2 acting on it by the scalar a."""
    if m < 0:
        raise AdmissibilityError("module weight must be a nonnegative integer")
    a = Fraction(a)
    name = f"module_ext_m{m}_a{str(a).replace('/', 'd')}"
    return AlgebraTable.from_products(name, _family_basis(m), _family_products(m, a))


class FamilySpec(Record):
    """Shape of a generic symbolic family over the weight-m module.

    include_sl2_R_products frees the products [e|f|h, y_i];
    include_sl2_defects adds module-valued defect terms to the six
    canonical sl2 products. Free coefficients are named a_<left>_<right>_<j>.
    """

    __slots__ = ("m", "include_sl2_R_products", "include_sl2_defects")
    _defaults = {"include_sl2_R_products": False, "include_sl2_defects": False}

    def param(self, left: str, right: str, j: int) -> str:
        return f"a_{left}_{right}_{j}"


def make_generic_family(spec: FamilySpec) -> AlgebraTable:
    """The symbolic ansatz over sl2 + module + (y1, y2).

    Fixed products: sl2, the module action, [y1,y2] = y1 + free module
    part, [y2,y1] = -y1. Free module-valued products: [y_i, e|f|h],
    [x_k, y_i], [y_1,y_1], [y_2,y_2], plus the optional flag blocks.
    Evaluating every parameter at 0 gives make_module_extension(m, 0).
    """
    m = spec.m
    if m < 0:
        raise AdmissibilityError("module weight must be a nonnegative integer")
    xs = module_basis(m)
    params: list[str] = []
    products = _family_products(m, 0)

    def free_module_part(left: str, right: str) -> dict[str, object]:
        coords = {}
        for j in range(m + 1):
            name = spec.param(left, right, j)
            params.append(name)
            coords[xs[j]] = Poly.param(name)
        return coords

    for yi in ("y1", "y2"):
        for g in ("e", "f", "h"):
            products[(yi, g)] = free_module_part(yi, g)
    for xk in xs:
        for yi in ("y1", "y2"):
            products[(xk, yi)] = free_module_part(xk, yi)
    products[("y1", "y2")] = {**free_module_part("y1", "y2"), "y1": 1}
    products[("y1", "y1")] = free_module_part("y1", "y1")
    products[("y2", "y2")] = free_module_part("y2", "y2")
    flags = ""
    if spec.include_sl2_R_products:
        flags += "_slr"
        for g in ("e", "f", "h"):
            for yi in ("y1", "y2"):
                products[(g, yi)] = free_module_part(g, yi)
    if spec.include_sl2_defects:
        flags += "_defects"
        for (left, right), coords in _SL2_PRODUCTS.items():
            products[(left, right)] = {**coords, **free_module_part(left, right)}
    return AlgebraTable.from_products(
        f"generic_m{m}{flags}", _family_basis(m), products, params=tuple(params)
    )


def _weight2_products(
    l: Poly | Rat, mu: Poly | Rat, a: Poly | Rat, b: Poly | Rat
) -> dict[tuple[str, str], dict[str, object]]:
    """The products of the eight-dim family over the weight-2 module at
    coefficients (l, mu, a, b), each a Poly or a rational; a zero
    coefficient adds no product."""
    half = Fraction(1, 2)
    products = _family_products(2, a)
    if l:
        products[("e", "y1")] = {"x0": l}
        products[("f", "y1")] = {"x2": half * l}
        products[("h", "y1")] = {"x1": l}
    if mu:
        products[("e", "y2")] = {"x0": mu}
        products[("f", "y2")] = {"x2": half * mu}
        products[("h", "y2")] = {"x1": mu}
    if b:
        products[("y2", "y2")] = {"x2": -half * a * b}
        products[("y2", "e")] = {"x1": b}
        products[("y2", "h")] = {"x2": b}
    return products


def make_L_prefamily() -> AlgebraTable:
    """The eight-dimensional four-parameter family over the weight-2 module.

    Parameters (l, mu, a, b). The b-products are removable by the change
    y2 -> y2 + (b/2) x2; the family satisfies the Leibniz identity exactly
    on the locus l*(1-a) = 0.
    """
    params = ("l", "mu", "a", "b")
    products = _weight2_products(*(Poly.param(n) for n in params))
    return AlgebraTable.from_products("L_prefamily", _family_basis(2), products, params=params)


def make_L_family(l: Rat, mu: Rat, a: Rat) -> AlgebraTable:
    """L(l, mu, a): the prefamily at b = 0 with concrete rational parameters.

    Admissible exactly when l*(1-a) = 0; otherwise the Leibniz identity
    fails (the residual at (e, y1, y2) is (l - l*a) x0) and the constructor
    refuses to build the table.
    """
    l, mu, a = Fraction(l), Fraction(mu), Fraction(a)
    if l * (1 - a) != 0:
        raise AdmissibilityError(
            f"L(l, mu, a) requires l*(1-a) = 0; got l={l}, a={a}"
        )
    name = "L_" + "_".join(str(v).replace("/", "d") for v in (l, mu, a))
    return AlgebraTable.from_products(name, _family_basis(2), _weight2_products(l, mu, a, 0))

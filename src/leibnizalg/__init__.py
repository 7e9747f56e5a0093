"""Exact arithmetic for finite-dimensional Leibniz algebras.

Tables of structure constants over the rationals, optionally with named
parameters; identity checking, squares ideals, quotients, constraint
extraction, basis changes, and isomorphism verification.

The public names below are imported from their submodules on first access
(a module-level __getattr__), so `import leibnizalg` loads no submodule and
the command line front end imports only what each command runs.
"""

from importlib import import_module

_EXPORTS = {
    "analysis": ("ConstraintSet", "extract_constraints"),
    "algfile": ("ChangeDocument", "parse_algebra", "parse_change", "serialize_algebra"),
    "basis": ("BasisChange", "apply_basis_change", "verify_isomorphism"),
    "constructions": (
        "FamilySpec", "make_abelian", "make_direct_sum", "make_dzhumadildaev",
        "make_generic_family", "make_L_family", "make_L_prefamily", "make_module_extension",
        "make_r2", "make_sl2", "make_sl2_module",
    ),
    "core": ("AlgebraTable", "Element", "Verdict", "element_from", "format_element", "zero_element"),
    "errors": (
        "AdmissibilityError", "AlgebraError", "BasisChangeError", "DimensionMismatchError",
        "MissingParameterError", "NotAnIdealError", "ParametricError", "ParseError",
    ),
    "scalars": ("ONE", "ZERO", "Poly", "as_poly"),
    "spaces": (
        "DISTINGUISHED", "INCONCLUSIVE", "InvariantProfile", "ProfileReport", "QuotientMap",
        "Subspace", "span",
    ),
}
# public name -> the submodule that defines it, imported on first access
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

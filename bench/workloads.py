"""Seeded inputs and job lists for the three benchmark workloads.

A workload is a list of CLI jobs plus the `.alg` and `.chg` files they read.
Tables are built with the package's own constructors and serializer.
Set-up time is that of `Workload.rebuild`, which repeats only those calls
and the file writes, so it moves when table construction does and not
when this benchmark's own code does. Everything a job is checked against comes from `oracle`,
which computes it independently: the README formulas, and this
benchmark's own change-of-basis transform for the changed copies. The
tables the package builds are themselves checked against those formulas
(`Workload.input_errors`), so a wrong constructor cannot hide behind
expectations derived from its own output.

The same seed gives the same files and the same jobs. Seeds change the
rational parameters, the small module weights of cli-small and the change
documents, never the number of jobs or the commands they run, so every
seed costs about the same.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle as O

WORKLOADS = ("cli-small", "constant-large", "parametric")


@dataclass
class Job:
    argv: tuple[str, ...]
    check: O.Check
    save_as: Optional[str] = None  # a later job reads this job's stdout from here


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    makers: dict[str, Callable[[], str]] = field(default_factory=dict)  # file -> package call making its text
    input_checks: int = 0
    input_errors: list[str] = field(default_factory=list)

    def job(self, check: O.Check, *argv: str, save_as: Optional[str] = None) -> None:
        self.jobs.append(Job(tuple(argv), check, save_as))

    def check_input(self, fname: str, reason: Optional[str]) -> None:
        """Record one check of a package-built input against the oracle."""
        self.input_checks += 1
        if reason is not None:
            self.input_errors.append(f"{fname}: {reason}")

    def rebuild(self, directory: Path) -> float:
        """Build every package-made input again and write all input files;
        returns the seconds this took. A file whose rebuilt text differs from
        the first build is recorded as an input error, once."""
        start = time.perf_counter()
        texts = {fname: make() for fname, make in self.makers.items()}
        for fname, text in self.files.items():
            (directory / fname).write_text(texts.get(fname, text), encoding="utf-8")
        took = time.perf_counter() - start
        for fname, text in texts.items():
            error = f"{fname}: rebuilt text differs from the first build"
            if text != self.files[fname] and error not in self.input_errors:
                self.input_errors.append(error)
        return took


def _rational(rng: random.Random) -> Fraction:
    """A small nonzero rational, such as 3, -1/2 or 5/3."""
    return Fraction(rng.choice((1, 2, 3, 5)) * rng.choice((1, -1)), rng.choice((1, 2, 3)))


def _sparse_change(rng: random.Random, t: O.Table, nrows: int) -> dict:
    """nrows rows differ from the identity: a scaled basis vector plus one other.

    Rows are drawn from the module block (x0, x1, ...) when it has room, so
    that every seed fills the changed table about equally: a change of h or
    f touches every module product and would make some seeds far slower.
    """
    pool = [b for b in t.basis if b.startswith("x")]
    if len(pool) <= nrows:
        pool = list(t.basis)
    while True:
        rows = {}
        for sym in rng.sample(pool, nrows):
            other = rng.choice([b for b in pool if b != sym])
            rows[sym] = {sym: _rational(rng), other: _rational(rng)}
        if O.invert(O.change_matrix(t, rows)) is not None:
            return rows


class _Inputs:
    """Adds table files and their basis-changed copies to a workload."""

    def __init__(self, w: Workload, lib):
        self.w = w
        self.lib = lib

    def text(self, fname: str, make: Callable) -> str:
        """Serialize the table make() builds to fname, and keep the call for
        rebuild(), which checks that it gives the same text again."""
        self.w.makers[fname] = lambda: self.lib.serialize_algebra(make())
        self.w.input_checks += 1
        text = self.w.files[fname] = self.w.makers[fname]()
        return text

    def table(self, fname: str, make: Callable, formula: Optional[O.Table] = None) -> O.Table:
        """As text(), parsed by the oracle and, given a formula, checked against it."""
        t = O.parse_alg(self.text(fname, make))
        if formula is not None:
            self.w.check_input(fname, O.same_table(t, formula))
        return t

    def changed(self, rng: random.Random, fname: str, t: O.Table, nrows: int) -> tuple[str, str, O.Table]:
        """(change file, changed-copy file, changed copy) for table t."""
        rows = _sparse_change(rng, t, nrows)
        stem = fname[: -len(".alg")]
        chg, copy = f"{stem}.chg", f"{stem}_chg.alg"
        tc = O.transform(t, O.change_matrix(t, rows), f"{t.name}_chg")
        self.w.files[chg] = O.write_change(f"{stem}_change", t.basis, rows)
        self.w.files[copy] = O.write_alg(tc)
        return chg, copy, tc


def _module_ext_facts(m: int, a: Fraction) -> dict:
    squares = 0 if (m, a) == (0, 0) else m + 1
    return {"dim": str(m + 6), "squares_ideal_dim": str(squares)}


def _dz_facts(m: int) -> dict:
    return {"dim": str(m + 4), "squares_ideal_dim": str(m + 1)}


def _dz_maker(lib, m: int) -> Callable:
    def make():
        names, e, f, h = lib.constructions.make_sl2_module(m)
        return lib.constructions.make_dzhumadildaev(lib.make_sl2(), names, {"e": e, "f": f, "h": h})

    return make


def _quotient_sl2_r2() -> O.Table:
    return O.Table("q", O.SL2_BASIS + ("y1", "y2"), {**O.SL2, **O.R2})


def _constant_table_jobs(w: Workload, b: _Inputs, rng: random.Random, fname: str, t: O.Table,
                         formula: O.Table, facts: dict, quotient: O.Table, nrows: int,
                         porcelain: bool = False) -> tuple[str, O.Table]:
    """check, check --mode lie, ideal, quotient, profile, change-basis,
    verify-iso and check of the changed copy, for one constant table."""
    module = tuple(s for s in t.basis if s.startswith("x"))
    w.job(O.expect_pass(t.name, t.dim), "check", fname)
    w.job(O.expect_lie_fail(formula), "check", fname, "--mode", "lie")
    ideal_argv = ("ideal", fname, "--porcelain") if porcelain else ("ideal", fname)
    w.job(O.expect_ideal(t.name, module, porcelain), *ideal_argv)
    w.job(O.expect_quotient(module, quotient), "quotient", fname)
    w.job(O.expect_profile([t.name], [facts], False), "profile", fname)
    chg, copy, tc = b.changed(rng, fname, t, nrows)
    w.job(O.expect_table(tc), "change-basis", fname, chg)
    w.job(O.expect_iso_pass(t.name, tc.name), "verify-iso", fname, copy, chg)
    w.job(O.expect_pass(tc.name, tc.dim), "check", copy)
    return copy, tc


def cli_small(seed: int, lib) -> Workload:
    """Every command on README-sized tables; process start dominates."""
    rng = random.Random(seed)
    w = Workload("cli-small", seed)
    b = _Inputs(w, lib)
    C = lib.constructions

    b.table("sl2.alg", lib.make_sl2, O.sl2())
    b.table("r2.alg", lib.make_r2, O.r2())
    w.job(O.expect_table(O.sl2()), "construct", "sl2")
    w.job(O.expect_table(O.r2()), "construct", "r2")
    w.job(O.expect_pass("sl2", 3, "the Lie axioms"), "check", "sl2.alg", "--mode", "lie")
    w.job(O.expect_pass("r2", 2, "the Lie axioms", porcelain=True), "check", "r2.alg", "--mode", "lie", "--porcelain")

    # the four L points of criterion 12, and the README collapse L(2,3,1) -> L(1,0,1)
    points = ((1, 0, 1), (0, 1, 1), (0, 0, 1), (0, 0, 2))
    lnames = []
    ltables = []
    for i, (l, mu, a) in enumerate(points):
        fname = f"L{l}{mu}{a}.alg"
        t = b.table(fname, partial(lib.make_L_family, l, mu, a))
        w.check_input(fname, O.expect_construct_family({"l": l, "mu": mu, "a": a})(0, w.files[fname], ""))
        lnames.append(fname)
        ltables.append(t)
        w.job(O.expect_pass(t.name, 8, porcelain=i == 3), "check", fname, *(("--porcelain",) if i == 3 else ()))
    rows3 = ("x0", "x1", "x2")
    w.job(O.expect_ideal(ltables[0].name, rows3), "ideal", lnames[0])
    w.job(O.expect_quotient(rows3, _quotient_sl2_r2()), "quotient", lnames[1])
    names = [t.name for t in ltables]
    w.job(O.expect_profile(names, [O.L_POINT_PROFILE] * 4, True), "profile", *lnames)
    w.job(O.expect_profile(names[2:], [O.L_POINT_PROFILE] * 2, True, porcelain=True),
          "profile", "--porcelain", *lnames[2:])
    l231 = b.table("L231.alg", partial(lib.make_L_family, 2, 3, 1))
    w.check_input("L231.alg", O.expect_construct_family({"l": 2, "mu": 3, "a": 1})(0, w.files["L231.alg"], ""))
    w.files["collapse.chg"] = (
        "change collapse\ndim 8\nbasis e h f x0 x1 x2 y1 y2\nnew y1 = 1/2*y1\nnew y2 = -3/2*y1 + y2\n"
    )
    w.job(O.expect_iso_pass(l231.name, ltables[0].name), "verify-iso", "L231.alg", lnames[0], "collapse.chg")

    # seeded admissible points of the family: l*(1-a) = 0
    for i in range(2):
        if rng.random() < 0.5:
            point = {"l": _rational(rng), "mu": _rational(rng), "a": Fraction(1)}
        else:
            point = {"l": Fraction(0), "mu": _rational(rng), "a": _rational(rng)}
        args = tuple(f"--{k}={v}" for k, v in point.items())
        if i == 0:
            w.job(O.expect_construct_family(point), "construct", "Lfamily", *args)
        else:
            t = b.table("Lseed.alg", partial(lib.make_L_family, point["l"], point["mu"], point["a"]))
            w.check_input("Lseed.alg", O.expect_construct_family(point)(0, w.files["Lseed.alg"], ""))
            w.job(O.expect_pass(t.name, 8), "check", "Lseed.alg")

    # module extensions with m <= 4 and a seeded a, and a small dzhumadildaev table
    for i, m in enumerate(rng.sample((1, 2, 3, 4), 2)):
        a = rng.choice((Fraction(0), _rational(rng)))
        fname = f"me{m}.alg"
        if i == 0:
            w.job(O.expect_table(O.module_ext(m, a)), "construct", "module-ext", "--m", str(m), f"--a={a}")
        t = b.table(fname, partial(C.make_module_extension, m, a), O.module_ext(m, a))
        module = O.module_basis(m)
        w.job(O.expect_pass(t.name, t.dim), "check", fname)
        w.job(O.expect_lie_fail(O.module_ext(m, a)), "check", fname, "--mode", "lie")
        w.job(O.expect_ideal(t.name, module, porcelain=i == 1), "ideal", fname, *(("--porcelain",) if i == 1 else ()))
        w.job(O.expect_quotient(module, _quotient_sl2_r2()), "quotient", fname)
        w.job(O.expect_profile([t.name], [_module_ext_facts(m, a)], False), "profile", fname)
    md = rng.choice((1, 2, 3))
    w.job(O.expect_table(O.dzhumadildaev(md)), "construct", "dzhumadildaev", "--m", str(md))
    dz = b.table("dz.alg", _dz_maker(lib, md), O.dzhumadildaev(md))
    w.job(O.expect_pass(dz.name, dz.dim), "check", "dz.alg")
    w.job(O.expect_ideal(dz.name, O.module_basis(md)), "ideal", "dz.alg")
    w.job(O.expect_quotient(O.module_basis(md), O.sl2()), "quotient", "dz.alg")

    # seeded sparse rational changes on tables of dim <= 8
    lpick = rng.randrange(4)
    targets = (
        (lnames[lpick], ltables[lpick], O.L_POINT_PROFILE, "the Leibniz identity"),
        ("dz.alg", dz, _dz_facts(md), "the Leibniz identity"),
        ("sl2.alg", O.parse_alg(w.files["sl2.alg"]), {"dim": "3", "squares_ideal_dim": "0"}, "the Lie axioms"),
    )
    for i, (fname, t, facts, what) in enumerate(targets):
        chg, copy, tc = b.changed(rng, fname, t, 2)
        mode = ("--mode", "lie") if what == "the Lie axioms" else ()
        w.job(O.expect_table(tc), "change-basis", fname, chg)
        w.job(O.expect_iso_pass(t.name, tc.name, porcelain=i == 1), "verify-iso", fname, copy, chg,
              *(("--porcelain",) if i == 1 else ()))
        w.job(O.expect_pass(tc.name, tc.dim, what), "check", copy, *mode)
        w.job(O.expect_profile([t.name, tc.name], [facts, facts], True), "profile", fname, copy)

    # the prefamily and the expected-error jobs
    pre = b.table("pre.alg", lib.make_L_prefamily)
    w.check_input("pre.alg", O.expect_prefamily()(0, w.files["pre.alg"], ""))
    w.job(O.expect_prefamily(), "construct", "prefamily")
    w.job(O.expect_constraints("l - a*l\n"), "constraints", "pre.alg")
    w.job(O.expect_error(2, "l*(1-a) = 0"), "construct", "Lfamily", "--l", "1", "--mu", "0", "--a", "0")
    forced = {"l": 1, "mu": 0, "a": 0, "b": 0}
    b.table("L100_forced.alg", lambda: lib.make_L_prefamily().evaluate(forced), O.evaluate(pre, forced))
    w.job(O.expect_forced_fail(), "check", "L100_forced.alg")
    malformed = (
        "algebra broken\ndim 3\nbasis e h f\n[e,h] = 2*q\n",
        "dim 3\nalgebra broken\nbasis e h f\n",
        "algebra broken\ndim 4\nbasis e h f\n",
        "algebra broken\ndim 3\nbasis e h f\n[e,h] = 2*e\n[e,h] = e\n",
        "algebra broken\ndim 3\nbasis e h f\n[e,h] 2*e\n",
    )
    for i, text in enumerate(rng.sample(malformed, 2)):
        w.files[f"malformed{i}.alg"] = text
        w.job(O.expect_error(2, "line "), ("check", "profile")[i], f"malformed{i}.alg")
    return w


def constant_large(seed: int, lib) -> Workload:
    """Constant tables of dim 18 to 36; core's constant kernels dominate."""
    rng = random.Random(seed)
    w = Workload("constant-large", seed)
    b = _Inputs(w, lib)
    C = lib.constructions
    quotient = _quotient_sl2_r2()
    copies = {}
    for m in (12, 20, 30):
        a = _rational(rng)
        fname = f"me{m}.alg"
        formula = O.module_ext(m, a)
        t = b.table(fname, partial(C.make_module_extension, m, a), formula)
        copies[fname] = _constant_table_jobs(w, b, rng, fname, t, formula, _module_ext_facts(m, a),
                                             quotient, 3, porcelain=m == 20)
    for m in (14, 20):
        fname = f"dz{m}.alg"
        formula = O.dzhumadildaev(m)
        t = b.table(fname, _dz_maker(lib, m), formula)
        copies[fname] = _constant_table_jobs(w, b, rng, fname, t, formula, _dz_facts(m), O.sl2(), 3)
    # profile on several files: a table with its changed copy, and three distinct tables
    me20 = O.parse_alg(w.files["me20.alg"])
    copy, tc = copies["me20.alg"]
    facts = {"dim": "26", "squares_ideal_dim": "21"}
    w.job(O.expect_profile([me20.name, tc.name], [facts, facts], True), "profile", "me20.alg", copy)
    three = ("dz14.alg", "dz20.alg", "me12.alg")
    w.job(O.expect_profile([O.parse_alg(w.files[f]).name for f in three],
                           [_dz_facts(14), _dz_facts(20), {"dim": "18", "squares_ideal_dim": "13"}], False),
          "profile", *three)
    return w


def _term(c: Fraction, body: str) -> str:
    mag = abs(c)
    text = body if mag == 1 else f"{mag}*{body}"
    return f" + {text}" if c > 0 else f" - {text}"


def parametric(seed: int, lib) -> Workload:
    """Parametric tables: the Poly path, constraint extraction."""
    rng = random.Random(seed)
    w = Workload("parametric", seed)
    b = _Inputs(w, lib)
    C = lib.constructions
    for m in (1, 2, 4, 6):
        for slr in (False, True):
            for defects in (False, True):
                fname = f"gen{m}{'_slr' if slr else ''}{'_def' if defects else ''}.alg"
                t = b.table(fname, partial(C.make_generic_family, C.FamilySpec(m, slr, defects)))
                # README: the all-zero assignment of the generic family is module-ext(m, 0)
                w.check_input(fname, O.same_table(O.at_zero(t), O.module_ext(m, Fraction(0))))
                w.job(O.expect_constraints(), "constraints", fname)
    b.table("pre.alg", lib.make_L_prefamily)
    w.check_input("pre.alg", O.expect_prefamily()(0, w.files["pre.alg"], ""))
    w.job(O.expect_constraints("l - a*l\n"), "constraints", "pre.alg")
    w.job(O.expect_text(0, "count\t1\nconstraint\tl - a*l\n"), "constraints", "pre.alg", "--porcelain")
    # criterion 5: y2' = y2 + (b/2)*x2 removes [y2,e], [y2,h] and [y2,y2]
    basis8 = O.SL2_BASIS + O.module_basis(2) + ("y1", "y2")
    w.files["bremoval.chg"] = O.write_change("bremoval", basis8, {"y2": "1/2*b*x2 + y2"}, ("l", "mu", "a", "b"))
    w.job(O.expect_parametric_change(("l", "mu", "a", "b"), basis8, O.module_ext(2, Fraction(0)),
                                     absent=("[y2,e]", "[y2,h]", "[y2,y2]")),
          "change-basis", "pre.alg", "bremoval.chg")
    # a seeded unipotent change with a fresh parameter s, then constraints on the result
    for m in (1, 2, 4, 6):
        fname = f"gen{m}_slr.alg"
        head = O.parse_alg(w.files[fname])
        k1, k2 = rng.randrange(m + 1), rng.randrange(m + 1)
        j, l = sorted(rng.sample(range(m + 1), 2))
        c1, c2, c3 = _rational(rng), _rational(rng), _rational(rng)
        rows = {
            "y1": "y1" + _term(c1, f"s*x{k1}"),
            "y2": "y2" + _term(c2, f"s*x{k2}"),
            f"x{j}": f"x{j}" + _term(c3, f"x{l}"),
        }
        chg, out = f"unipotent{m}.chg", f"gen{m}_unipotent.alg"
        w.files[chg] = O.write_change(f"unipotent{m}", head.basis, rows, ("s",))
        base = O.module_ext(m, Fraction(0))
        zero = O.transform(base, O.change_matrix(base, {f"x{j}": {f"x{j}": 1, f"x{l}": c3}}), "zero")
        w.job(O.expect_parametric_change(head.params + ("s",), head.basis, zero), "change-basis", fname, chg,
              save_as=out)
        w.job(O.expect_constraints(), "constraints", out)
    return w


GENERATORS = {"cli-small": cli_small, "constant-large": constant_large, "parametric": parametric}


def build(name: str, seed: int, lib) -> Workload:
    return GENERATORS[name](seed, lib)

"""Acceptance suite: twelve numbered criteria, one printed line each.

Lines go to the real stdout so they stay visible under pytest capture.
Criterion 2 expects the zero squares ideal at (m=0, a=0), where the table
is a Lie algebra; see "The degenerate grid point" in README.
"""

import random
import sys
import time
from fractions import Fraction

import leibnizalg as L
from leibnizalg.basis import BasisChange
from leibnizalg.scalars import Poly

from conftest import (
    CRITERION_LINES, bracket, constant_fixture_tables, dense, full_space, mat_mul, mat_sub, random_table,
    submodule_closure,
)


def report(num: int, ok: bool, note: str = "") -> None:
    tail = f" - {note}" if note else ""
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}"
    CRITERION_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def run_criterion(num, body):
    try:
        ok, note = body()
    except BaseException as exc:
        report(num, False, f"raised {type(exc).__name__}: {exc}")
        raise
    report(num, ok, note)
    assert ok, f"criterion {num:02d}: {note}"


def test_criterion_01_canonical_fixtures():
    def body():
        start = time.perf_counter()
        ok = (
            L.make_sl2().check_lie().passed
            and L.make_r2().check_lie().passed
            and L.make_direct_sum(L.make_sl2(), L.make_r2()).check_lie().passed
        )
        elapsed = time.perf_counter() - start
        return ok and elapsed < 1.0, f"sl2, r2 and their sum are Lie ({elapsed:.3f}s)"

    run_criterion(1, body)


def test_criterion_02_extension_grid():
    def body():
        start = time.perf_counter()
        failures = []
        expected_quotient = L.make_direct_sum(L.make_sl2(), L.make_r2())
        for m in (0, 1, 2, 4, 5, 6):
            for a in (0, 1, -2, Fraction(7, 3)):
                t = L.make_module_extension(m, a)
                tag = f"(m={m}, a={a})"
                if not t.check_leibniz().passed:
                    failures.append(f"{tag} fails the Leibniz identity")
                    continue
                ideal = t.squares_ideal()
                if m == 0 and a == 0:
                    # No product involves x0 and every other product is an
                    # antisymmetric sl2 or r2 pair: L is Lie and I = 0.
                    if not t.check_lie().passed:
                        failures.append(f"{tag} is not a Lie algebra")
                        continue
                    if ideal.dim != 0:
                        failures.append(
                            f"{tag} squares ideal is not 0 "
                            "(see 'The degenerate grid point' in README)"
                        )
                        continue
                    quotient, _ = t.quotient_by(ideal)
                    if quotient.basis != ("e", "h", "f", "x0", "y1", "y2") or quotient != t:
                        failures.append(f"{tag} quotient by 0 is not L on (e,h,f,x0,y1,y2)")
                    continue
                wanted = tuple(t.basis_element(f"x{k}") for k in range(m + 1))
                if ideal.as_elements() != wanted:
                    failures.append(f"{tag} squares ideal is not span(x0..x{m})")
                    continue
                quotient, _ = t.quotient_by(ideal)
                if quotient.basis != ("e", "h", "f", "y1", "y2") or quotient != expected_quotient:
                    failures.append(f"{tag} quotient is not sl2+r2 on (e,h,f,y1,y2)")
        elapsed = time.perf_counter() - start
        if failures:
            return False, f"{'; '.join(failures)} ({elapsed:.3f}s)"
        return elapsed < 5.0, f"24 grid points verified ({elapsed:.3f}s)"

    run_criterion(2, body)


def test_criterion_03_module_relations():
    def body():
        for m in range(11):
            e, f, h = (dense(x, m + 1) for x in L.make_sl2_module(m)[1:])
            if h != mat_sub(mat_mul(f, e), mat_mul(e, f)):
                return False, f"H != F.E - E.F at m={m}"
            if mat_sub(mat_mul(h, e), mat_mul(e, h)) != tuple(
                tuple(2 * x for x in row) for row in e
            ):
                return False, f"H.E - E.H != 2E at m={m}"
            if mat_sub(mat_mul(h, f), mat_mul(f, h)) != tuple(
                tuple(-2 * x for x in row) for row in f
            ):
                return False, f"H.F - F.H != -2F at m={m}"
            for k in range(m + 1):
                if h[k][k] != m - 2 * k or any(
                    h[k][j] != 0 for j in range(m + 1) if j != k
                ):
                    return False, f"H is not diag(m-2k) at m={m}"
        return True, "operator identities and H = diag(m-2k) for m <= 10"

    run_criterion(3, body)


def test_criterion_04_constraint_reproduction():
    def body():
        start = time.perf_counter()
        constraints = L.extract_constraints(L.make_L_prefamily())
        elapsed = time.perf_counter() - start
        lam, a = Poly.param("l"), Poly.param("a")
        if set(constraints) != {lam - lam * a}:
            return False, f"constraint set is {[str(p) for p in constraints]}"
        return elapsed < 2.0, f"constraint set is exactly {{l - a*l}} ({elapsed:.3f}s)"

    run_criterion(4, body)


def test_criterion_05_basis_change_removes_b():
    def body():
        pre = L.make_L_prefamily()
        b = Poly.param("b")
        change = BasisChange.from_assignments(
            pre, {"y2": {"y2": 1, "x2": Fraction(1, 2) * b}}
        )
        moved = L.apply_basis_change(pre, change)
        y2 = moved.index("y2")
        for other in ("e", "h", "y2"):
            entry = moved.entry(y2, moved.index(other))
            if not entry.is_zero():
                return False, f"[y2',{other}] = {moved.format_element(entry)}"
        return True, "[y2',e] = [y2',h] = [y2',y2'] = 0 as identities in b"

    run_criterion(5, body)


def test_criterion_06_family_admissibility():
    def body():
        good = [(1, 0, 1)] + [(0, 1, a) for a in (0, 1, -5)] + [(0, 0, a) for a in (0, 1, -5)]
        for l, mu, a in good:
            if not L.make_L_family(l, mu, a).check_leibniz().passed:
                return False, f"L({l},{mu},{a}) does not pass"
        try:
            L.make_L_family(1, 0, 0)
            return False, "L(1,0,0) was not rejected"
        except L.AdmissibilityError:
            pass
        raw = "\n".join(
            [
                "algebra L_1_0_0_forced",
                "dim 8",
                "basis e h f x0 x1 x2 y1 y2",
                "[e,h] = 2*e",
                "[e,f] = h",
                "[h,e] = -2*e",
                "[h,f] = 2*f",
                "[f,e] = -h",
                "[f,h] = -2*f",
                "[x0,h] = 2*x0",
                "[x0,f] = x1",
                "[x1,f] = x2",
                "[x1,e] = -2*x0",
                "[x2,e] = -2*x1",
                "[x2,h] = -2*x2",
                "[e,y1] = x0",
                "[h,y1] = x1",
                "[f,y1] = 1/2*x2",
                "[y1,y2] = y1",
                "[y2,y1] = -y1",
                "",
            ]
        )
        forced = L.parse_algebra(raw)
        verdict = forced.check_leibniz()
        if verdict.passed:
            return False, "forced L(1,0,0) unexpectedly passes"
        if verdict.witness != ("e", "y1", "y2"):
            return False, f"witness is {verdict.witness}"
        if forced.format_element(verdict.residual) != "x0":
            return False, f"residual is {forced.format_element(verdict.residual)}"
        return True, "admissible points pass; L(1,0,0) rejected and fails at (e,y1,y2) with residual x0"

    run_criterion(6, body)


def _sl2R_params(spec: L.FamilySpec) -> list[str]:
    return [
        spec.param(g, yi, j)
        for g in ("e", "f", "h")
        for yi in ("y1", "y2")
        for j in range(spec.m + 1)
    ]


def test_criterion_07_weight_two_exception():
    def body():
        rng = random.Random(20240825)
        for m in (1, 4):
            spec = L.FamilySpec(m, include_sl2_R_products=True)
            t = L.make_generic_family(spec)
            constraints = L.extract_constraints(t)
            slr = _sl2R_params(spec)
            # every single sl2->module coefficient alone is already fatal
            for name in slr:
                point = {p: 0 for p in t.params}
                point[name] = 1
                if constraints.violated_at(point) is None:
                    return False, f"m={m}: lone {name}=1 satisfies the constraints"
            for trial in range(100):
                point = {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for p in t.params}
                forced = rng.choice(slr)
                while point[forced] == 0:
                    point[forced] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if constraints.violated_at(point) is None:
                    return False, f"m={m}: random trial {trial} satisfies with {forced} != 0"
        spec = L.FamilySpec(2, include_sl2_R_products=True)
        t = L.make_generic_family(spec)
        constraints = L.extract_constraints(t)
        point = {p: 0 for p in t.params}
        point.update(
            {
                "a_e_y1_0": 1,
                "a_h_y1_1": 1,
                "a_f_y1_2": Fraction(1, 2),
                "a_x0_y2_0": 1,
                "a_x1_y2_1": 1,
                "a_x2_y2_2": 1,
            }
        )
        if not constraints.satisfied_by(point):
            return False, f"m=2: the L(1,0,1) assignment violates {constraints.violated_at(point)}"
        if t.evaluate(point) != L.make_L_family(1, 0, 1):
            return False, "m=2: the satisfying assignment is not the L(1,0,1) table"
        return True, "sl2->module products die at m=1 and m=4; at m=2 the L(1,0,1) point survives"

    run_criterion(7, body)


def test_criterion_08_adjoined_module_algebras():
    def body():
        for m in (1, 2, 3):
            names, e, f, h = L.make_sl2_module(m)
            q = L.make_dzhumadildaev(L.make_sl2(), names, {"e": e, "f": f, "h": h})
            if not q.check_leibniz().passed:
                return False, f"Q(sl2, V({m})) fails the Leibniz identity"
            ideal = q.squares_ideal()
            wanted = tuple(q.basis_element(f"x{k}") for k in range(m + 1))
            if ideal.as_elements() != wanted:
                return False, f"m={m}: squares ideal is not the module block"
            quotient, _ = q.quotient_by(ideal)
            if quotient != L.make_sl2() or quotient.basis != ("e", "h", "f"):
                return False, f"m={m}: quotient is not sl2"
            for k in range(m + 1):
                seed = L.element_from([1 if i == k else 0 for i in range(m + 1)])
                if submodule_closure((e, f, h), seed).dim != m + 1:
                    return False, f"m={m}: x{k} does not generate the module"
            derived = q.product_span(full_space(q.dim), full_space(q.dim))
            if derived.dim == ideal.dim:
                return False, f"m={m}: dim [Q,Q] equals dim I"
        return True, "Q(sl2, V(m)) for m in 1..3: Leibniz, module ideal, sl2 quotient, irreducible"

    run_criterion(8, body)


def test_criterion_09_isomorphism_maps():
    def body():
        t1 = L.make_L_family(2, 3, 1)
        t2 = L.make_L_family(1, 0, 1)
        collapse = BasisChange.from_assignments(
            t1, {"y1": {"y1": Fraction(1, 2)}, "y2": {"y1": Fraction(-3, 2), "y2": 1}}
        )
        if not L.verify_isomorphism(t1, t2, collapse).passed:
            return False, "L(2,3,1) -> L(1,0,1) map fails"
        for a in (0, 1, -5):
            s1 = L.make_L_family(0, 4, a)
            s2 = L.make_L_family(0, 1, a)
            scale = BasisChange.from_assignments(
                s1, {f"x{k}": {f"x{k}": 4} for k in range(3)}
            )
            if not L.verify_isomorphism(s1, s2, scale).passed:
                return False, f"L(0,4,{a}) -> L(0,1,{a}) scaling fails"
        return True, "L(2,3,1) = L(1,0,1) and L(0,4,a) = L(0,1,a) via explicit changes"

    run_criterion(9, body)


def test_criterion_10_squares_are_central():
    def body():
        count = 0
        for t in constant_fixture_tables():
            if not t.check_leibniz().passed:
                return False, f"fixture {t.name} is not Leibniz"
            ideal = t.squares_ideal()
            for v in ideal.as_elements():
                for i in range(t.dim):
                    if not bracket(t, t.basis_element(i), v).is_zero():
                        return False, f"{t.name}: [{t.basis[i]}, I] != 0"
            quotient, _ = t.quotient_by(ideal)
            if not quotient.check_lie().passed:
                return False, f"{t.name}: quotient is not Lie"
            count += 1
        return True, f"[L, I] = 0 and L/I is Lie across {count} constant fixtures"

    run_criterion(10, body)


def test_criterion_11_parser_round_trip():
    def body():
        fixtures = constant_fixture_tables() + [
            L.make_L_prefamily(),
            L.make_generic_family(L.FamilySpec(1)),
            L.make_generic_family(L.FamilySpec(2, include_sl2_R_products=True)),
            L.make_generic_family(L.FamilySpec(1, include_sl2_defects=True)),
        ]
        for t in fixtures:
            if L.parse_algebra(L.serialize_algebra(t)) != t:
                return False, f"fixture {t.name} does not round-trip"
        rng = random.Random(11)
        for i in range(200):
            t = random_table(rng)
            if L.parse_algebra(L.serialize_algebra(t)) != t:
                return False, f"random table {i} does not round-trip"
        return True, f"{len(fixtures)} fixtures and 200 random tables round-trip"

    run_criterion(11, body)


def test_criterion_12_profile_separation():
    def body():
        padded = L.make_direct_sum(L.make_r2(), L.make_abelian(1))
        report_ = L.ProfileReport.compare(L.make_sl2().invariant_profile(), padded.invariant_profile())
        if not report_.distinguished:
            return False, "sl2 vs r2+abelian is not distinguished"
        points = [(1, 0, 1), (0, 1, 1), (0, 0, 1), (0, 0, 2)]
        tables = [L.make_L_family(*p) for p in points]
        for i in range(len(tables)):
            for j in range(i + 1, len(tables)):
                r = L.ProfileReport.compare(tables[i].invariant_profile(), tables[j].invariant_profile())
                if r.status not in (L.DISTINGUISHED, L.INCONCLUSIVE):
                    return False, f"unexpected status {r.status}"
                if r.status != L.INCONCLUSIVE:
                    return False, (
                        f"{tables[i].name} vs {tables[j].name} unexpectedly "
                        f"separated by {r.separating}"
                    )
        return True, "sl2 distinguished from padded r2; all four L points honestly INCONCLUSIVE"

    run_criterion(12, body)

"""The sparse Element paths against the dense code they replaced.

Each reference below is the dense implementation as it stood before
Element held only its nonzero coordinates: the module-relation check of
make_dzhumadildaev, serialize_algebra, format_element and constants(). They
read an element through its dense coords view.
"""

import cProfile
import hashlib
import pstats
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import leibnizalg as L
from leibnizalg import cli, spaces
from leibnizalg.core import bilinear
from leibnizalg.basis import inverse_constant
from leibnizalg.scalars import Poly, _join_terms, format_term

from conftest import (
    dense, mat_from_rows, mat_mul, mat_sub, parametric_tables, random_table, rational_polys, sparse_constant_tables,
    sparse_matrix,
)


def ref_format_element(el, basis):
    parts = []
    for i, poly in enumerate(el.coords):
        for mono, coeff in poly.sorted_terms():
            parts.append(format_term(coeff, mono, basis[i]))
    return _join_terms(parts)


def ref_serialize_algebra(t):
    lines = [f"algebra {t.name}", f"dim {t.dim}"]
    if t.params:
        lines.append("params " + " ".join(t.params))
    lines.append("basis " + " ".join(t.basis))
    for i in range(t.dim):
        for j in range(t.dim):
            entry = t.entry(i, j)
            if any(entry.coords):
                lines.append(f"[{t.basis[i]},{t.basis[j]}] = {ref_format_element(entry, t.basis)}")
    return "\n".join(lines) + "\n"


def ref_constants(t):
    return [
        {
            j: [(k, c.constant_value()) for k, c in enumerate(t.entry(i, j).coords) if c]
            for j in range(t.dim)
            if any(t.entry(i, j).coords)
        }
        for i in range(t.dim)
    ]


def ref_module_failure(g, action):
    """The first [gi,gj] where R_[gi,gj] = R_gj.R_gi - R_gi.R_gj fails, by
    dense matrix arithmetic over every entry; None when the action is a
    right module."""
    mdim = len(action[g.basis[0]])
    for i, gi in enumerate(g.basis):
        for j, gj in enumerate(g.basis):
            expected = mat_sub(mat_mul(action[gj], action[gi]), mat_mul(action[gi], action[gj]))
            combo = None
            for c, gc in zip(g.entry(i, j).coords, g.basis):
                if c:
                    scaled = tuple(tuple(c * x for x in row) for row in action[gc])
                    combo = scaled if combo is None else tuple(
                        tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(combo, scaled)
                    )
            if combo is None:
                combo = tuple((Poly.const(0),) * mdim for _ in range(mdim))
            if any(any(a - b for a, b in zip(ra, rb)) for ra, rb in zip(combo, expected)):
                return f"[{gi},{gj}]"
    return None


def perturbed_action(rng: random.Random, m: int, changes: int = 1) -> dict:
    """The weight-m action, as dense matrices, with `changes` entries
    changed, each in a random matrix, sometimes by a multiple of a
    parameter, or (one time in six) left alone."""
    _, e, f, h = L.make_sl2_module(m)
    action = {"e": dense(e, m + 1), "f": dense(f, m + 1), "h": dense(h, m + 1)}
    for _ in range(changes if rng.randrange(6) else 0):
        sym = rng.choice("ehf")
        r, c = rng.randrange(m + 1), rng.randrange(m + 1)
        delta = Poly.const(Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3)))
        if rng.randrange(2):
            delta = delta * Poly.param("p") + Poly.const(rng.randint(-1, 1))
        rows = [list(row) for row in action[sym]]
        rows[r][c] = delta if rng.randrange(3) == 0 else rows[r][c] + delta
        action[sym] = tuple(tuple(row) for row in rows)
    return action


def sparse_action(action):
    """The dense action matrices as the sparse rows make_dzhumadildaev takes."""
    return {s: sparse_matrix(x) for s, x in action.items()}


def test_module_check_matches_dense_reference():
    sl2 = L.make_sl2()
    outcomes = set()
    # one changed entry on small modules, then two on modules up to m = 12
    cases = [(seed, 5, 1) for seed in range(300)] + [(seed, 12, 2) for seed in range(5000, 5300)]
    for seed, top, changes in cases:
        rng = random.Random(seed)
        m = rng.randint(0, top)
        action = perturbed_action(rng, m, changes)
        want = ref_module_failure(sl2, action)
        try:
            L.make_dzhumadildaev(sl2, L.make_sl2_module(m)[0], sparse_action(action))
            got = None
        except L.AdmissibilityError as exc:
            got = str(exc)
        except L.DimensionMismatchError as exc:
            # the check passed; a parameter left in the action is then undeclared
            assert "undeclared parameters" in str(exc)
            got = None
        expected = None if want is None else f"action matrices are not a right module: fails at {want}"
        assert got == expected, (seed, m)
        outcomes.add(want)
    # both verdicts, and failures first seen at several pairs
    assert None in outcomes and len(outcomes) >= 4


# sha256 of serialize_algebra of make_dzhumadildaev(sl2, V(m)) for m = 0..20,
# concatenated, as built by the Poly matrix check this kernel replaced
DZ_TABLES_SHA256 = "ec5dcdf09382b87f053a3c540f18a62319324cc0413f6bf9da5c75cae96ed88b"


def sl2_module_action(m):
    names, e, f, h = L.make_sl2_module(m)
    return names, {"e": e, "f": f, "h": h}


def test_module_tables_are_leibniz_and_unchanged():
    digest = hashlib.sha256()
    for m in range(21):
        t = L.make_dzhumadildaev(L.make_sl2(), *sl2_module_action(m))
        assert t.check_leibniz().passed, m
        digest.update(L.serialize_algebra(t).encode())
    assert digest.hexdigest() == DZ_TABLES_SHA256


def test_module_check_multiplies_no_poly(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setattr(Poly, "__rmul__", counted)
    L.make_dzhumadildaev(L.make_sl2(), *sl2_module_action(20))
    assert calls == []


def test_module_action_is_built_as_sparse_rows():
    # as three dense (m+1) x (m+1) Poly matrices, the action and its check peaked near 11 MB
    t, used = peak(lambda: L.make_dzhumadildaev(L.make_sl2(), *sl2_module_action(600)))
    assert t.dim == 604 and t.check_leibniz().passed
    assert used < 5_000_000, used


def test_module_check_is_exact_on_parametric_entries():
    sl2 = L.make_sl2()
    names, *mats = L.make_sl2_module(2)
    e, f, h = (dense(x, 3) for x in mats)
    p = Poly.param("p")
    # conjugating by the unipotent I + p*N, with N^2 = 0, keeps a right module
    u = mat_from_rows([[1, 0, p], [0, 1, 0], [0, 0, 1]])
    u_inv = mat_from_rows([[1, 0, -p], [0, 1, 0], [0, 0, 1]])
    conj = {s: mat_mul(mat_mul(u_inv, x), u) for s, x in zip("efh", (e, f, h))}
    assert conj["h"][0][2] == 4 * p
    assert ref_module_failure(sl2, conj) is None
    # the check passes; the table then holds the undeclared parameter p
    with pytest.raises(L.DimensionMismatchError, match="undeclared parameters"):
        L.make_dzhumadildaev(sl2, names, sparse_action(conj))
    # p^2 - p on the diagonal of H vanishes at p = 0 and p = 1 only
    bent = {"e": e, "f": f, "h": ((h[0][0] + p * p - p, *h[0][1:]), *h[1:])}
    want = ref_module_failure(sl2, bent)
    assert want is not None
    with pytest.raises(L.AdmissibilityError, match=re.escape(f"fails at {want}")):
        L.make_dzhumadildaev(sl2, names, sparse_action(bent))


def check_against_references(t):
    text = L.serialize_algebra(t)
    assert text == ref_serialize_algebra(t)
    assert L.parse_algebra(text) == t
    for i, row in enumerate(t.rows):
        # only the nonzero products are stored, in ascending column order, each
        # as the tuple of its nonzero (k, Poly) pairs in ascending k
        assert list(row) == sorted(row)
        for j, entry in row.items():
            assert type(entry) is tuple and entry and all(type(c) is L.Poly and c for _, c in entry)
            assert [k for k, _ in entry] == sorted({k for k, _ in entry})
            assert entry == tuple(t.entry(i, j).nonzero.items())
    for i in range(t.dim):
        for j in range(t.dim):
            entry = t.entry(i, j)
            assert L.format_element(entry, t.basis) == ref_format_element(entry, t.basis)
    if not t.is_parametric():
        assert t.constants() == ref_constants(t)


@settings(deadline=None, max_examples=80)
@given(st.one_of(sparse_constant_tables(), parametric_tables()))
def test_sparse_table_paths_match_dense_references(t):
    check_against_references(t)


def test_random_tables_match_dense_references():
    for seed in range(100):
        check_against_references(random_table(random.Random(seed)))
    for t in (L.make_module_extension(4, Fraction(-3, 2)), L.make_L_prefamily()):
        check_against_references(t)


coefficients = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(Fraction, st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4)),
    rational_polys(("p", "q")),
)


@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.integers(min_value=0, max_value=n - 1), coefficients, max_size=n)
)))
def test_sparse_and_dense_built_elements_agree(case):
    dim, values = case
    dense_coords = tuple(L.as_poly(values.get(i, 0)) for i in range(dim))
    dense = L.Element(dense_coords)
    # built from a dict in descending insertion order, zero values included
    sparse = L.Element.of(dim, {k: L.as_poly(values[k]) for k in sorted(values, reverse=True)})
    assert sparse == dense and hash(sparse) == hash(dense)
    assert sparse.coords == dense.coords == dense_coords
    assert sparse.is_zero() == dense.is_zero() == (not any(dense_coords))
    assert list(sparse.nonzero) == sorted(sparse.nonzero) == list(dense.nonzero)
    assert all(sparse.nonzero.values())
    assert L.element_from([values.get(i, 0) for i in range(dim)]) == sparse
    basis = tuple(f"b{i}" for i in range(dim))
    assert L.format_element(sparse, basis) == ref_format_element(dense, basis)
    assert sparse - dense == L.zero_element(dim) and (sparse + dense) == 2 * dense


def test_large_zero_table_costs_what_it_stores(capsys):
    # the dim x dim grid of zero products this table held before peaked near 160 MB here
    assert cli.main(["construct", "abelian", "--dim", "1500"]) == 0
    text = capsys.readouterr().out
    assert len(text.encode()) == 7925
    tracemalloc.start()
    try:
        t = L.parse_algebra(text)
        verdict = t.check_leibniz()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed and t.rows == ({},) * 1500
    assert peak < 5_000_000, peak


def peak(call):
    """(call(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_zero_table_profile_and_identity_change_follow_the_products(capsys, monkeypatch, tmp_path):
    # [L, L] is the span of the stored products, of which this table has none
    assert cli.main(["construct", "abelian", "--dim", "600"]) == 0
    text = capsys.readouterr().out
    t = L.parse_algebra(text)
    results = []

    def recorded(products, left, right_cols):
        results.append(bilinear(products, left, right_cols))
        return results[-1]

    monkeypatch.setattr(spaces, "bilinear", recorded)
    monkeypatch.setattr("leibnizalg.basis.bilinear", recorded)
    profile = t.invariant_profile()
    # no stored product meets any vector, so every bracket the kernel sums is empty
    assert all(result == {} for result in results), results
    assert profile.derived_series == profile.lower_central_series == (600, 0)
    assert profile.left_center_dim == profile.right_center_dim == 600
    assert L.apply_basis_change(t, L.BasisChange.identity(600)) == t
    assert all(result == {} for result in results), results
    # and none of these builds a dense 600 x 600 structure, which alone holds 2.9 MB of pointers
    path = tmp_path / "F.alg"
    path.write_text(text, encoding="utf-8")
    one_row = tmp_path / "one_row.chg"
    one_row.write_text(
        f"change one_row\ndim 600\nbasis {' '.join(t.basis)}\nnew z0 = z0 + z1\n", encoding="utf-8"
    )
    F = str(path)
    got, used = peak(t.invariant_profile)
    assert got == profile and used < 1_000_000, used
    code, used = peak(lambda: cli.main(["change-basis", F, str(one_row)]))
    assert code == 0 and used < 3_000_000, used
    assert L.parse_algebra(capsys.readouterr().out) == t
    code, used = peak(lambda: cli.main(["verify-iso", F, F, "identity"]))
    assert code == 0 and used < 3_000_000, used
    assert capsys.readouterr().out.startswith("PASS")


def diagonal_table(n, central=False):
    """[z_i, z_i] = z_i and no other product: the squares ideal is all of L, or
    all but the extra basis vector c, which is central, when central is set."""
    basis = [f"z{i}" for i in range(n)]
    return L.AlgebraTable.from_products(
        f"diag{n}" + "_c" * central, basis + ["c"] * central, {(b, b): {b: 1} for b in basis}
    )


def test_diagonal_ideal_and_profile_hold_sparse_rows():
    # held as dense dim x dim Fraction rows, the ideal and its elements peaked above 6 MB
    t = diagonal_table(600)
    elements, used = peak(lambda: t.squares_ideal().as_elements())
    assert elements == tuple(t.basis_element(i) for i in range(600))
    assert used < 2_000_000, used
    profile, used = peak(diagonal_table(600).invariant_profile)
    assert profile.squares_ideal_dim == 600 and profile.derived_series == (600,)
    assert used < 2_000_000, used


def test_quotient_reduces_only_nonzero_brackets(monkeypatch):
    n = 600
    calls = []
    reduce = spaces.Echelon.reduce

    def counted(self, vec):
        calls.append(1)
        return reduce(self, vec)

    for t, dim, reduced in ((diagonal_table(n), 0, 0), (diagonal_table(n, central=True), 1, 2 * n)):
        ideal = t.squares_ideal()
        calls.clear()
        monkeypatch.setattr(spaces.Echelon, "reduce", counted)
        quotient, _ = t.quotient_by(ideal)
        monkeypatch.undo()
        assert quotient.dim == dim
        # an ideal of full rank needs no bracket; otherwise [z_i, z_j] is zero unless j = i,
        # so each ideal row has one nonzero bracket per side, and the quotient's one product
        # [c, c] is not stored
        assert len(calls) == reduced


def test_ideal_check_brackets_only_stored_products():
    # every row used to be bracketed with all n basis vectors on both sides (2n^2 = 180,000
    # brackets here), and the left side was found by testing each of the n rows for a meet
    # (n^2 = 90,000 isdisjoint calls); now no function runs more than a few times per row.
    # An ideal of full rank is not bracketed at all, so the central variant is counted too.
    n = 300
    for t, dim in ((diagonal_table(n), 0), (diagonal_table(n, central=True), 1)):
        ideal = t.squares_ideal()
        profile = cProfile.Profile()
        quotient, _ = profile.runcall(t.quotient_by, ideal)
        assert quotient.dim == dim
        (_, _, name), (_, calls, *_) = max(pstats.Stats(profile).stats.items(), key=lambda item: item[1][1])
        assert calls <= 30 * n, (name, calls)


def test_identity_inverse_reduces_only_the_support():
    # reduce used to look up every pivot for each row it inserted: 179,700 dict.get calls here
    n = 600
    identity = [{i: Fraction(1)} for i in range(n)]
    profile = cProfile.Profile()
    inverse = profile.runcall(inverse_constant, identity)
    gets = sum(
        calls for (_, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if name == "<method 'get' of 'dict' objects>"
    )
    assert inverse == identity
    assert gets < n, gets

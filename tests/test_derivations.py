import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liequad import catalog, data_file, extensions
from liequad.algfile import parse
from liequad.core import BilinearForm, LieSuperalgebra, QuadraticAlgebra, StructureError, SuperSpace
from liequad.conditions import _add_row, _evaluate, _leibniz_rows, _parity_rows, _skew_rows
from liequad.derivations import (
    derivation_space,
    is_derivation,
    is_inner,
    skew_derivation_family_g2n2,
)
from liequad.linalg import Matrix, Subspace, _nullspace_rows, _rref_sparse, nullspace
from liequad.morphisms import fingerprint
from liequad.scalars import EXACT, BackendMismatch, complex_backend

from helpers import grams, tables, to_backend


def d_g4(x, y, z):
    # the solved 3-parameter skew family of the diamond, columns = images
    return Matrix.from_rows(
        EXACT,
        [[0, 0, 0, 0], [y, x, 0, 0], [z, 0, -x, 0], [0, -z, -y, 0]],
    )


def d_g5(x, y, z, t, b, c):
    return Matrix.from_rows(
        EXACT,
        [
            [-x, -z, 0, 0, 0],
            [-y, x, 0, 0, 0],
            [-b, -c, 0, 0, 0],
            [0, -t, b, x, y],
            [t, 0, c, z, -x],
        ],
    )


@pytest.fixture(scope="module")
def g4():
    return catalog.build("g4")


@pytest.fixture(scope="module")
def g5():
    return catalog.build("g5")


def test_g4_skew_space_matches_pattern(g4):
    ds = derivation_space(g4.algebra, "skew", g4.form)
    assert ds.dim == 3
    gens = [d_g4(1, 0, 0), d_g4(0, 1, 0), d_g4(0, 0, 1)]
    assert all(ds.contains(g) for g in gens)
    assert Subspace.span(
        EXACT, [tuple(x for r in g.entries for x in r) for g in gens], 16
    ) == ds.span()


def test_g5_skew_space_matches_pattern(g5):
    ds = derivation_space(g5.algebra, "skew", g5.form)
    assert ds.dim == 6
    gens = [d_g5(*[1 if i == k else 0 for i in range(6)]) for k in range(6)]
    assert all(ds.contains(g) for g in gens)
    assert Subspace.span(
        EXACT, [tuple(x for r in g.entries for x in r) for g in gens], 25
    ) == ds.span()


def test_abelian_spaces():
    alg = catalog.base("abelian", n=3)
    assert derivation_space(alg, "all").dim == 9
    # purely even abelian with a symmetric non-degenerate form: skew maps have dim n(n-1)/2
    from liequad.core import BilinearForm

    form = BilinearForm.build(alg.space, {("A1", "A1"): 1, ("A2", "A2"): 1, ("A3", "A3"): 1})
    assert derivation_space(alg, "skew", form).dim == 3


def test_skew_requires_form():
    alg = catalog.base("g2")
    with pytest.raises(ValueError):
        derivation_space(alg, "skew")


def test_skew_space_closed_under_commutator(g4, g5):
    for q in (g4, g5):
        ds = derivation_space(q.algebra, "skew", q.form)
        for a in ds.basis:
            for b in ds.basis:
                assert ds.contains(a * b - b * a)


def test_inner_subset_of_skew(g4):
    inner = derivation_space(g4.algebra, "inner")
    skew = derivation_space(g4.algebra, "skew", g4.form)
    for m in inner.basis:
        assert skew.contains(m)


def test_is_inner_diamond(g4):
    coeffs = is_inner(g4.algebra, d_g4(1, 0, 0))
    assert coeffs is not None
    # D(1,0,0) acts exactly like bracketing with X
    assert coeffs == (EXACT.one, EXACT.zero, EXACT.zero, EXACT.zero)
    # and the general (x,y,z) member is always inner
    assert is_inner(g4.algebra, d_g4(2, -1, 3)) is not None


def test_is_inner_zero(g4):
    z = Matrix.zeros(EXACT, 4, 4)
    assert is_inner(g4.algebra, z) == (EXACT.zero,) * 4


def test_is_inner_rejects_non_derivation(g4):
    bad = Matrix.from_rows(EXACT, [[0, 1, 0, 0]] + [[0] * 4] * 3)
    assert not is_derivation(g4.algebra, bad)
    with pytest.raises(StructureError):
        is_inner(g4.algebra, bad)


def test_g2n2_not_inner_member():
    q = catalog.build("g2n2", n=2)
    ix = q.algebra.space.index
    rows = [[0] * 6 for _ in range(6)]
    rows[ix("X1")][ix("X1")] = 1
    rows[ix("Y1")][ix("Y1")] = -1
    d = Matrix.from_rows(EXACT, rows)
    assert is_inner(q.algebra, d) is None


@pytest.mark.parametrize("n", range(1, 11))
def test_g2n2_family_matches_generic_solver(n):
    # dimension 2n+2 up to 22; the paper's skew dimension is n^2 + 2n
    q = catalog.build("g2n2", n=n)
    fam = skew_derivation_family_g2n2(q)
    generic = derivation_space(q.algebra, "skew", q.form)
    assert fam.dim == n * n + 2 * n == generic.dim
    assert fam.span() == generic.span()


def test_g2n2_family_kills_x0():
    fam = skew_derivation_family_g2n2(catalog.build("g2n2", n=2))
    ix = fam.algebra.space.index("X0")
    for m in fam.basis:
        assert all(EXACT.is_zero(x) for x in m.col(ix))


def test_g2n2_n1_matches_diamond_count():
    assert skew_derivation_family_g2n2(catalog.build("g2n2", n=1)).dim == 3


def test_super_even_derivations_only():
    q = catalog.build("gs4_1")
    ds = derivation_space(q.algebra, "all")
    ne = q.algebra.space.dim_even
    for m in ds.basis:
        for i in range(q.algebra.dim):
            for j in range(q.algebra.dim):
                if (i < ne) != (j < ne):
                    assert EXACT.is_zero(m.entries[i][j])


def test_inner_subset_of_all_derivations():
    for qid in ("g4", "g5", "gs4_2"):
        q = catalog.build(qid)
        alg = q.algebra
        inner = derivation_space(alg, "inner")
        full = derivation_space(alg, "all")
        assert inner.dim <= full.dim
        for m in inner.basis:
            assert full.contains(m), qid


def is_derivation_from_definition(alg, d):
    """D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j] on all basis pairs, from the dense
    structure constants (entries zero to the backend count as zero)."""
    bk, n = alg.backend, alg.dim
    if (d.rows, d.cols) != (n, n):
        return False
    z = lambda x: bk.zero if bk.is_zero(x) else x  # noqa: E731
    c, m = [[[z(x) for x in row] for row in block] for block in alg.c], [[z(x) for x in r] for r in d.entries]
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                lhs = sum((m[k][l] * c[i][j][l] for l in range(n)), bk.zero)
                rhs = sum((m[l][i] * c[l][j][k] + m[l][j] * c[i][l][k] for l in range(n)), bk.zero)
                if not bk.is_zero(lhs - rhs):
                    return False
    return True


CB = complex_backend(1e-9)
ENTRY = {
    "exact": st.one_of(
        st.just(0), st.just(0), st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
    ),
    "complex": st.one_of(
        st.just(0j),
        st.builds(complex, st.integers(-2, 2), st.integers(-1, 1)),
        st.builds(complex, st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9)),  # below the tolerance
    ),
}


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_is_derivation_matches_definition(backend, data):
    # a random map, some ad(e_i) (a derivation when the table is a Lie algebra)
    # and a map of the wrong shape, on random tables
    entry = ENTRY[backend.name].map(backend.coerce)
    n = data.draw(st.integers(1, 4))
    labels = [f"E{i}" for i in range(n)]
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    brackets = {p: dict(zip(labels, data.draw(st.tuples(*[entry] * n)))) for p in pairs if data.draw(st.booleans())}
    alg = LieSuperalgebra.build(labels, (), brackets, backend)
    rows = data.draw(st.tuples(*[st.tuples(*[entry] * n)] * n))
    for d in (Matrix(backend, rows), alg.ad(data.draw(st.integers(0, n - 1))), Matrix.zeros(backend, n + 1, n + 1)):
        assert is_derivation(alg, d) == is_derivation_from_definition(alg, d)


def test_skew_rejects_a_form_of_another_dimension(g4, g5):
    with pytest.raises(StructureError, match="form dimension does not match the algebra"):
        derivation_space(g5.algebra, "skew", g4.form)


def test_skew_rejects_a_form_of_a_larger_dimension(g4, g5):
    with pytest.raises(StructureError, match="form dimension does not match the algebra"):
        derivation_space(g4.algebra, "skew", g5.form)


def test_skew_rejects_a_complex_form_on_an_exact_algebra(g4):
    with pytest.raises(BackendMismatch):
        derivation_space(g4.algebra, "skew", to_backend(g4.form, CB))


def test_skew_rejects_an_exact_form_on_a_complex_algebra(g4):
    with pytest.raises(BackendMismatch):
        derivation_space(to_backend(g4.algebra, CB), "skew", g4.form)


def random_super_table(backend, data):
    """A graded-antisymmetric table and a supersymmetric form on even and odd
    labels, of the right parity pattern; Jacobi need not hold."""
    entry = ENTRY[backend.name].map(backend.coerce)
    ne = data.draw(st.integers(0, 3))
    no = data.draw(st.integers(0 if ne else 1, 4 - ne))
    even, odd = [f"E{i}" for i in range(ne)], [f"O{i}" for i in range(no)]
    labels, par = even + odd, [0] * ne + [1] * no
    n = ne + no
    brackets = {}
    for a in range(n):
        for b in range(a, n):
            if (a != b or par[a]) and data.draw(st.booleans()):
                out = [k for k in range(n) if par[k] == par[a] ^ par[b]]
                brackets[(labels[a], labels[b])] = {labels[k]: data.draw(entry) for k in out}
    alg = LieSuperalgebra.build(even, odd, brackets, backend)
    fpar = data.draw(st.sampled_from([0, 1]))
    pairs = [(a, b) for a in range(n) for b in range(a, n) if par[a] ^ par[b] == fpar and not (a == b and par[a])]
    entries = {(labels[a], labels[b]): data.draw(entry) for a, b in pairs}
    return alg, BilinearForm.build(alg.space, entries, ("even", "odd")[fpar], backend)


def derivations_from_definition(alg, form=None):
    """The even maps D with D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j] on all pairs,
    and B(D e_i, e_j) + B(e_i, D e_j) = 0 when a form is given: the kernel of a
    dense system over the entries D[k][j] (unknown k * n + j) of alg.c."""
    bk, n = alg.backend, alg.dim
    z = lambda x: bk.zero if bk.is_zero(x) else x  # noqa: E731
    c = [[[z(x) for x in row] for row in block] for block in alg.c]
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = [bk.zero] * (n * n)
                for m in range(n):
                    r[k * n + m] += c[i][j][m]
                    r[m * n + i] -= c[m][j][k]
                    r[m * n + j] -= c[i][m][k]
                rows.append(r)
    for k in range(n):
        for j in range(n):
            if alg.parity(k) != alg.parity(j):
                rows.append([bk.one if u == k * n + j else bk.zero for u in range(n * n)])
    if form is not None:
        g = [[z(x) for x in r] for r in form.gram.entries]
        for i in range(n):
            for j in range(n):
                r = [bk.zero] * (n * n)
                for k in range(n):
                    r[k * n + i] += g[k][j]
                    r[k * n + j] += g[i][k]
                rows.append(r)
    return Subspace.span(bk, nullspace(Matrix(bk, tuple(map(tuple, rows)))), n * n)


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_derivation_spaces_match_definition(backend, data):
    alg, form = random_super_table(backend, data)
    n = alg.dim
    assert derivation_space(alg, "all").span() == derivations_from_definition(alg)
    assert derivation_space(alg, "skew", form).span() == derivations_from_definition(alg, form)
    # the inner span: the reduced basis of the flattened ad(e_i) over even i, entry for entry
    ads = [tuple(x for r in alg.ad(i).entries for x in r) for i in range(n) if alg.parity(i) == 0]
    inner = derivation_space(alg, "inner").basis
    assert tuple(tuple(x for r in m.entries for x in r) for m in inner) == Subspace.span(backend, ads, n * n).basis


# -- even derivations are solved on the even blocks ----------------------------------


def full_system(alg, form=None):
    """The kernel rows of the system of an even derivation written out in full:
    every Leibniz row, the parity rows and, given a form, every skew row."""
    bk, n = alg.backend, alg.dim
    rows = _leibniz_rows(bk, alg._nz) + [row for _, row in _parity_rows(bk, n, alg.space.dim_even)]
    if form is not None:
        rows += _skew_rows(bk, form.gram)
    return _nullspace_rows(bk, rows, n * n)


def assert_full_system(alg, form):
    """Der(g), Der_a(g, B) and the fingerprint's skew dimension are those of the
    full system: the last is dim Der(g) minus the rank of every skew row at the
    rows of Der(g), as `fingerprint` takes it."""
    bk, n = alg.backend, alg.dim
    der = full_system(alg)
    assert list(derivation_space(alg, "all").rows) == der
    assert list(derivation_space(alg, "skew", form).rows) == full_system(alg, form)
    skew = _skew_rows(bk, form.gram)
    images = []
    for image in _evaluate(skew, n * n, der):
        _add_row(images, bk, image)
    rank = len(_rref_sparse(bk, images, len(skew))[0])
    assert fingerprint(QuadraticAlgebra(alg, form)).skew_der_dim == len(der) - rank


def assert_skipped_rows_are_odd(alg, form):
    """On the exact backend the rows the solver gets are rows of the full system
    on the even blocks D[a][b], |a| = |b|, and every row it skips lies wholly on
    the odd blocks; the float backend gets every row, in order."""
    bk, n, ne = alg.backend, alg.dim, alg.space.dim_even
    on_odd_block = lambda u: (u // n < ne) != (u % n < ne)  # noqa: E731
    for full, kept in (
        (_leibniz_rows(bk, alg._nz), _leibniz_rows(bk, alg._nz, ne)),
        (_skew_rows(bk, form.gram), _skew_rows(bk, form.gram, ne, form.parity == "odd")),
    ):
        if bk is not EXACT:
            assert kept == full
            continue
        full, kept = (Counter(frozenset(row.items()) for row in rows) for rows in (full, kept))
        assert not kept - full
        assert not any(on_odd_block(u) for row in kept for u, _ in row)
        assert all(on_odd_block(u) for row in full - kept for u, _ in row)


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_even_blocks_solve_the_full_system(backend, data):
    alg, form = random_super_table(backend, data)
    assert_skipped_rows_are_odd(alg, form)
    assert_full_system(alg, form)


GRID = [(f"{e.id}{params}", e.builder(EXACT, params)) for e in catalog.entries() for params in e.sample_grid(EXACT)]
GO6_FILES = [f"go6_{i}.alg" for i in range(8)]


@pytest.mark.parametrize("alg, form", [q for _, q in GRID], ids=[name for name, _ in GRID])
def test_even_blocks_solve_the_full_system_on_the_catalog_grid(alg, form):
    assert_skipped_rows_are_odd(alg, form)
    assert_full_system(alg, form)


@pytest.mark.parametrize("fname", GO6_FILES)
def test_even_blocks_solve_the_full_system_on_the_shipped_files(fname):
    af = parse(data_file(fname).read_text())
    assert af.algebra.space.dim_odd
    assert_skipped_rows_are_odd(af.algebra, af.form)
    assert_full_system(af.algebra, af.form)


def test_the_float_backend_solves_on_every_row():
    # a constant just above the tolerance makes kernel entries of size 1e9; an
    # elimination without the odd-block rows swaps the rows otherwise and rounds
    # them otherwise, so the float backend keeps every row
    x = 1e-9 + 1.0133415131312894e-10j
    alg = LieSuperalgebra.build(["E0"], ["O0", "O1"], {("E0", "O0"): {"O1": x}, ("E0", "O1"): {"O0": x, "O1": 1j}}, CB)
    assert_full_system(alg, BilinearForm.build(alg.space, {}, "even", CB))


def raw_table(backend, data):
    """A normal table and Gram matrix on even and odd labels, through the raw
    constructors, which refuse a table or form that breaks parity or the
    form's pattern."""
    entry = st.one_of(st.just(backend.zero), ENTRY[backend.name].map(backend.coerce))
    n = data.draw(st.integers(1, 4))
    ne = data.draw(st.integers(0, n))
    space = SuperSpace(ne, n - ne, tuple(f"E{i}" for i in range(n)))
    parity = data.draw(st.sampled_from(["even", "odd"]))
    nz = data.draw(tables(space, entry))
    gram = Matrix(backend, data.draw(grams(backend, space, parity, entry)))
    return LieSuperalgebra(space, backend, nz), BilinearForm(space, backend, parity, gram)


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_raw_tables_that_break_parity_solve_the_full_system(backend, data):
    alg, form = raw_table(backend, data)
    assert_full_system(alg, form)


def test_a_mixed_row_is_kept():
    # [E, O] = E breaks parity, as do B(E, O) = 1 for an even form and
    # B(E, E) = 1 for an odd one: the constructors of both backends refuse each
    space = SuperSpace(1, 1, ("E", "O"))
    for backend in (EXACT, CB):
        with pytest.raises(StructureError, match=r"^parity: \[E,O\] has a E-component of the wrong parity$"):
            LieSuperalgebra(space, backend, (((), ((0, backend.one),)), ((), ())))
        with pytest.raises(StructureError, match=r"^form entry \(E,O\) violates the even parity pattern$"):
            BilinearForm(space, backend, "even", Matrix.from_rows(backend, ((0, 1), (0, 0))))
        with pytest.raises(StructureError, match=r"^form entry \(E,E\) violates the odd parity pattern$"):
            BilinearForm(space, backend, "odd", Matrix.from_rows(backend, ((1, 0), (0, 0))))
    # below the tolerance such a term is kept in the stored table, and the
    # rows of the system, which read the tolerance view, are the full system's
    alg = LieSuperalgebra(space, CB, (((), ((0, 5e-10),)), (((0, -5e-10),), ())))
    assert alg.nz[0][1] == ((0, 5e-10),) and alg._nz[0][1] == ()
    gram = Matrix.from_rows(CB, ((1, 5e-10), (5e-10, 0)))
    assert_full_system(alg, BilinearForm(space, CB, "even", gram))
    assert derivation_space(alg, "all").dim == 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_rows_hold_no_zero(data):
    alg, form = random_super_table(EXACT, data)
    rows = _leibniz_rows(EXACT, alg._nz) + _skew_rows(EXACT, form.gram)
    if alg.space.dim_odd == 0:  # the pairing solver takes even algebras only
        captured = []

        def capture(bk, rows, ncols):
            captured.extend(dict(r) for r in rows)
            return _nullspace_rows(bk, rows, ncols)

        with mock.patch.object(extensions, "_nullspace_rows", capture):
            extensions.sym_pairing_space(alg, cyclic=False)
        rows += captured
    assert all(row and all(x for x in row.values()) for row in rows)


def test_add_row_is_the_zero_filter():
    rows = []
    _add_row(rows, EXACT, {})
    _add_row(rows, EXACT, {3: 0})
    _add_row(rows, EXACT, {1: 0, 2: Fraction(1, 2)})
    assert rows == [{2: Fraction(1, 2)}]
    rows = []
    _add_row(rows, CB, {0: 1e-12, 5: -3e-11j, 7: 0j})  # every entry below the tolerance
    _add_row(rows, CB, {0: 1e-12, 5: 0.5 + 0j, 7: 0j})  # one entry above it
    assert rows == [{0: 1e-12, 5: 0.5 + 0j}]
    row = {0: 1, 4: Fraction(-2, 3)}  # no exact zero: kept as given, not copied
    _add_row(rows, EXACT, row)
    assert rows[-1] is row


# -- the derive benchmark's inputs against the sympy answers -----------------------

ANSWERS = json.loads((Path(__file__).parents[1] / "perfbench" / "answers.json").read_text(encoding="utf-8"))["derive"]
# g2n2 at n = 1..6 and every other catalog entry at its defaults, as the derive
# workload builds them: with `entry.builder`, without the axiom check
DERIVE_INPUTS = {f"g2n2[n={n}]": ("g2n2", {"n": n}) for n in range(1, 7)}
DERIVE_INPUTS.update({e.id: (e.id, None) for e in catalog.entries() if e.id != "g2n2"})


def derive_input(name):
    id, params = DERIVE_INPUTS[name]
    entry = catalog.get(id)
    return entry.builder(EXACT, entry.default_params(EXACT) if params is None else params)


def test_derive_inputs_are_those_of_the_answers():
    assert sorted(DERIVE_INPUTS) == sorted(ANSWERS)


@pytest.mark.parametrize("name", list(DERIVE_INPUTS))
def test_derive_inputs_match_the_sympy_answers(name):
    # answers.json was computed offline with sympy from the same tables
    alg, form = derive_input(name)
    want = ANSWERS[name]
    dims = {kind: derivation_space(alg, kind, form if kind == "skew" else None).dim for kind in ("all", "skew", "inner")}
    assert dims == {"all": want["der_all"], "skew": want["der_skew"], "inner": want["der_inner"]}
    fp = fingerprint(QuadraticAlgebra(alg, form))
    got = {
        "dim": fp.dim,
        "center": fp.center_dim,
        "derived_dims": list(fp.derived_dims),
        "lower_central_dims": list(fp.lower_central_dims),
        "derived_center": fp.derived_center_dim,
        "solvable": fp.solvable,
        "nilpotent": fp.nilpotent,
        "der_all": fp.der_dim,
        "der_skew": fp.skew_der_dim,
    }
    assert got == {k: want[k] for k in got}


DERIVE_BASES_SHA256 = "1150bfb1fc37d9d7daa2c4cfa3e61ef39d468c5ef6331632770ef2c4e5e93ad7"


def test_derive_input_bases_are_pinned():
    # every basis of the three kinds, not just its dimension, formatted as the
    # JSON of `liequad derivations` formats it
    out = []
    for name in DERIVE_INPUTS:
        alg, form = derive_input(name)
        for kind in ("all", "skew", "inner"):
            ds = derivation_space(alg, kind, form if kind == "skew" else None)
            basis = [[[EXACT.format(x) for x in row] for row in m.entries] for m in ds.basis]
            payload = {"algebra": name, "kind": kind, "dimension": ds.dim, "basis": basis}
            out.append(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == DERIVE_BASES_SHA256

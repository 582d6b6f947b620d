import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from liequad import catalog, data_file
from liequad.algfile import parse
from liequad.core import (
    BilinearForm,
    LieSuperalgebra,
    QuadraticAlgebra,
    StructureError,
    SuperSpace,
    _combine,
    _descend,
    _fmt_residual,
    _graded_parts,
    _graded_sign,
    _invariance_failures,
    _series,
    center,
    derived_series,
    derived_subalgebra,
    format_vector,
    is_ideal,
    is_nilpotent,
    is_nondegenerate_on,
    is_orthogonal_complement,
    is_solvable,
    lower_central_series,
    orthogonal_complement,
    subspace_bracket,
    verify_form,
    verify_jacobi,
)
from liequad.conditions import _flat, _invariance_rows, failures
from liequad.linalg import EigenStructure, Matrix, Subspace, nullspace, rank, solve_linear
from liequad.morphisms import Fingerprint
from liequad.report import Report
from liequad.scalars import EXACT, BackendMismatch, Exact, ExactBackend, ScalarOverflow, complex_backend, residual_magnitude

from helpers import basis_vector, grams, restrict, sparse, tables, to_backend

CB = complex_backend(1e-9)


def diamond():
    alg = LieSuperalgebra.build(
        ["X", "P", "Q", "Z"],
        brackets={("X", "P"): {"P": 1}, ("X", "Q"): {"Q": -1}, ("P", "Q"): {"Z": 1}},
    )
    form = BilinearForm.build(alg.space, {("X", "Z"): 1, ("P", "Q"): 1})
    return alg, form


def span_of(alg, labels_coeffs):
    vecs = []
    for combo in labels_coeffs:
        v = [EXACT.zero] * alg.dim
        for label, coeff in combo.items():
            v[alg.space.index(label)] = EXACT.coerce(coeff)
        vecs.append(v)
    return Subspace.span(EXACT, vecs, alg.dim)


def test_diamond_jacobi_passes():
    alg, _ = diamond()
    assert verify_jacobi(alg).ok


def test_abelian_jacobi_passes():
    assert verify_jacobi(LieSuperalgebra.abelian(["a", "b", "c"], ["f"])).ok


def test_diamond_with_pq_to_x_is_sl2():
    # replacing [P,Q]=Z by [P,Q]=X still satisfies Jacobi: the result is a copy
    # of sl(2) (H=2X, E=P, F=2Q), so the checker must accept it
    alg = LieSuperalgebra.build(
        ["X", "P", "Q", "Z"],
        brackets={("X", "P"): {"P": 1}, ("X", "Q"): {"Q": -1}, ("P", "Q"): {"X": 1}},
    )
    assert verify_jacobi(alg).ok


def broken_diamond():
    # [P,Q]=P breaks Jacobi: [X,[P,Q]]+[P,[Q,X]]+[Q,[X,P]] = P + P - P = P
    alg = LieSuperalgebra.build(
        ["X", "P", "Q", "Z"],
        brackets={("X", "P"): {"P": 1}, ("X", "Q"): {"Q": -1}, ("P", "Q"): {"P": 1}},
    )
    return alg, diamond()[1]


def scaled_form_diamond():
    # B([X,P],Q) = 2 while B(X,[P,Q]) = 1: residual 1 on the (X,P,Q) triple
    alg, _ = diamond()
    return alg, BilinearForm.build(alg.space, {("X", "Z"): 1, ("P", "Q"): 2})


def test_broken_diamond_fails_on_xpq():
    alg, _ = broken_diamond()
    rep = verify_jacobi(alg)
    assert not rep.ok
    assert any("jacobi(X,P,Q)" == c.name for c in rep.failures)


def test_diamond_form_passes():
    alg, form = diamond()
    assert verify_form(alg, form).ok


def test_zero_form_fails_nondegeneracy():
    alg, _ = diamond()
    form = BilinearForm.build(alg.space, {})
    rep = verify_form(alg, form)
    assert any(c.name == "non-degeneracy" and not c.ok for c in rep.checks)


def test_scaled_form_fails_invariance():
    alg, form = scaled_form_diamond()
    rep = verify_form(alg, form)
    bad = [c for c in rep.failures if c.name.startswith("invariance")]
    assert bad and any(c.name == "invariance(X,P,Q)" for c in bad)
    assert any(c.residual == "1" for c in bad if c.name == "invariance(X,P,Q)")


def form_checks(backend, gram):
    """(name, ok) of the supersymmetry and parity-pattern checks of an even
    form with the given Gram matrix on span{X, Y | F}."""
    alg = LieSuperalgebra.abelian(["X", "Y"], ["F"], backend)
    form = BilinearForm(alg.space, backend, "even", Matrix.from_rows(backend, gram))
    return [(c.name, c.ok) for c in verify_form(alg, form).checks if c.name in ("supersymmetry", "parity-pattern")]


def test_asymmetric_gram_fails_supersymmetry():
    # B(Y,X) - B(X,Y) = 3 - 1, and B(F,F) must be antisymmetric on the odd
    # part: the constructor of each backend refuses the first it meets; a
    # supersymmetric form passes both checks without rows
    law = r" != \(-1\)\^\(\|i\|\|j\|\) "
    for backend in (EXACT, CB):
        with pytest.raises(StructureError, match=rf"^supersymmetry: B\(Y,X\){law}B\(X,Y\)$"):
            form_checks(backend, [[1, 1, 0], [3, 1, 0], [0, 0, 5]])
        with pytest.raises(StructureError, match=rf"^supersymmetry: B\(F,F\){law}B\(F,F\)$"):
            form_checks(backend, [[1, 1, 0], [1, 1, 0], [0, 0, 5]])
        assert form_checks(backend, [[1, 1, 0], [1, 1, 0], [0, 0, 0]]) == [("supersymmetry", True), ("parity-pattern", True)]


def test_mixed_entry_of_an_even_form_fails_the_parity_pattern():
    # supersymmetric, but B(X,F) = B(F,X) = 1/2 lies in the odd block
    gram = [[1, 0, Fraction(1, 2)], [0, 1, 0], [Fraction(1, 2), 0, 0]]
    for backend in (EXACT, CB):
        with pytest.raises(StructureError, match=r"^form entry \(X,F\) violates the even parity pattern$"):
            form_checks(backend, gram)


def test_the_mirror_of_a_complex_form_entry_is_held_to_the_pattern():
    # B(X,F) = 6e-10 is below the tolerance and B(F,X) = 1.2e-9 within it of
    # B(X,F), but above it: refused at (F,X)
    with pytest.raises(StructureError, match=r"^form entry \(F,X\) violates the even parity pattern$"):
        form_checks(CB, [[1, 0, 6e-10], [0, 1, 0], [1.2e-9, 0, 0]])
    # a mirror equal to its entry is not subtracted from it, so an inf passes;
    # 1e308 against -1e308 leaves the range of a double
    space, inf = SuperSpace.make(["X", "Y"]), float("inf")
    gram = Matrix.from_rows(CB, [[1e308, inf], [inf, 1]])
    assert BilinearForm(space, CB, "even", gram).gram == gram
    with pytest.raises(ScalarOverflow):
        BilinearForm(space, CB, "even", Matrix.from_rows(CB, [[1, 1e308], [-1e308, 1]]))


def axiom_failures_from_definitions(alg, form):
    """(name, residual) of every failing Jacobi and invariance triple, computed
    with the dense bracket and form.value straight from the definitions."""
    bk, n, lab = alg.backend, alg.dim, alg.labels
    e = [basis_vector(alg.space, bk, l) for l in lab]
    par = [alg.parity(i) for i in range(n)]
    out = set()
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                cyclic = [
                    ((-1) ** (par[i] * par[k]), alg.bracket(e[i], alg.bracket(e[j], e[k]))),
                    ((-1) ** (par[j] * par[i]), alg.bracket(e[j], alg.bracket(e[k], e[i]))),
                    ((-1) ** (par[k] * par[j]), alg.bracket(e[k], alg.bracket(e[i], e[j]))),
                ]
                total = [sum((s * v[l] for s, v in cyclic), bk.zero) for l in range(n)]
                if any(total):
                    worst = max(total, key=bk.abs2)
                    out.add((f"jacobi({lab[i]},{lab[j]},{lab[k]})", bk.format(worst)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = form.value(alg.bracket(e[i], e[j]), e[k])
                rhs = form.value(e[i], alg.bracket(e[j], e[k]))
                if lhs != rhs:
                    out.add((f"invariance({lab[i]},{lab[j]},{lab[k]})", bk.format(lhs - rhs)))
    return out


@pytest.mark.parametrize("tampered", [broken_diamond, scaled_form_diamond])
def test_axiom_failures_match_definitions(tampered):
    alg, form = tampered()
    want = axiom_failures_from_definitions(alg, form)
    assert want
    got = {
        (c.name, c.residual)
        for c in verify_jacobi(alg).failures + verify_form(alg, form).failures
        if c.name.startswith(("jacobi(", "invariance("))
    }
    assert got == want


def structure_violations_from_definitions(space, backend, c):
    """The messages of the table constructor's checks for the dense table c,
    from a dense loop over all entries.  A mirror also breaks where exactly one
    of c[i][j][k] and c[j][i][k] is zero to the backend."""
    sp, n, bk = space, space.dim, backend
    out = []
    for i in range(n):
        for j in range(n):
            pij = (sp.parity(i) + sp.parity(j)) % 2
            for k in range(n):
                if not bk.is_zero(c[i][j][k]) and sp.parity(k) != pij:
                    out.append(f"parity: [{sp.labels[i]},{sp.labels[j]}] has a {sp.labels[k]}-component of the wrong parity")
            sign = (-1) ** (sp.parity(i) * sp.parity(j) + 1)
            if any(
                not bk.is_zero(c[j][i][k] - sign * c[i][j][k]) or bk.is_zero(c[j][i][k]) != bk.is_zero(c[i][j][k])
                for k in range(n)
            ):
                out.append(f"antisymmetry: c[{sp.labels[j]},{sp.labels[i]}] != (-1)^(|i||j|+1) c[{sp.labels[i]},{sp.labels[j]}]")
    return out


def structure_violations_made(space, backend, c):
    """The structure violations of the dense table c as the library finds
    them: the constructor's refusal, its one message, or none."""
    try:
        LieSuperalgebra(space, backend, sparse(c))
    except StructureError as exc:
        return [str(exc)]
    return []


def raw_superalgebra(backend, entries):
    """(space, c): even X, Y and odd F, G, and the dense table with exactly
    the given (i, j, k): value structure constants, both orientations as written."""
    space = SuperSpace.make(["X", "Y"], ["F", "G"])
    ix = space.index
    c = [[[backend.zero] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b, k), v in entries.items():
        c[ix(a)][ix(b)][ix(k)] = backend.coerce(v)
    return space, c


@pytest.mark.parametrize(
    "backend, entries, expected",
    [
        # [X,Y] = F has the wrong parity; the mirror is antisymmetric
        (EXACT, {("X", "Y", "F"): 1, ("Y", "X", "F"): -1}, 2),
        # [F,X] should be -[X,F]; [F,G] is symmetric, as it should be
        (EXACT, {("X", "F", "G"): 1, ("F", "X", "G"): 1, ("F", "G", "X"): 2, ("G", "F", "X"): 2}, 2),
        # below the tolerance on both sides, but 1.8e-9 apart: still reported
        (complex_backend(1e-9), {("X", "Y", "X"): 0.9e-9, ("Y", "X", "X"): 0.9e-9}, 2),
        # 0.5e-9 from antisymmetric, but 1.2e-9 is nonzero to the tolerance and
        # its mirror -0.7e-9 is zero to it: the supports differ
        (complex_backend(1e-9), {("X", "Y", "Y"): 1.2e-9, ("Y", "X", "Y"): -0.7e-9}, 2),
        # below the tolerance and antisymmetric, or below it with a wrong parity
        (complex_backend(1e-9), {("X", "Y", "X"): 0.9e-9, ("Y", "X", "X"): -0.9e-9, ("X", "Y", "G"): 0.5e-9}, 0),
        (EXACT, {("X", "Y", "Y"): 1, ("Y", "X", "Y"): -1, ("F", "G", "Y"): 1, ("G", "F", "Y"): 1}, 0),
    ],
)
def test_structure_violations_match_definitions(backend, entries, expected):
    # the constructor of each backend refuses the table with the first violation
    space, c = raw_superalgebra(backend, entries)
    want = structure_violations_from_definitions(space, backend, c)
    assert len(want) == expected
    assert structure_violations_made(space, backend, c) == want[:1]


ENTRIES = {
    "exact": st.one_of(
        st.just(0),
        st.just(0),
        st.just(0),
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
        st.builds(Exact, st.integers(-2, 2), st.integers(-2, 2)),
    ),
    "complex": st.one_of(
        st.just(0j),
        st.just(0j),
        st.just(0j),
        st.builds(complex, st.integers(-3, 3), st.integers(-2, 2)),
        st.builds(complex, st.floats(-5, 5), st.floats(-1, 1)),
        st.builds(complex, st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9)),  # below the tolerance
    ),
}


def random_space(data):
    """A space of up to 3 even labels E0, E1, ... and 2 odd ones O0, O1, not empty."""
    ne = data.draw(st.integers(0, 3))
    no = data.draw(st.integers(0 if ne else 1, 2))
    return SuperSpace.make([f"E{i}" for i in range(ne)], [f"O{i}" for i in range(no)])


def dense(nz, n):
    """The dense c[i][j][k] of a sparse table, 0 where it holds no entry."""
    return [[[dict(row).get(k, 0) for k in range(n)] for row in block] for block in nz]


def tampered_entries(data, shape, entry):
    """Up to three (index, value) changes of a dense table or matrix of that shape."""
    index = st.tuples(*[st.integers(0, m - 1) for m in shape])
    return data.draw(st.lists(st.tuples(index, entry), max_size=3))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_exact_table_constructor_refuses_what_the_definitions_flag(data):
    # normal tables with up to three coefficients changed, zeros stored: the
    # constructor refuses exactly the tables the definitions flag, with their
    # first message, and drops the zeros of the others
    entry = ENTRIES["exact"].map(EXACT.coerce)
    space = random_space(data)
    n = space.dim
    c = dense(data.draw(tables(space, entry)), n)
    for (i, j, k), x in tampered_entries(data, (n, n, n), entry):
        c[i][j][k] = x
    want = structure_violations_from_definitions(space, EXACT, c)
    assert structure_violations_made(space, EXACT, c) == want[:1]
    if not want:
        with_zeros = tuple(tuple(tuple(enumerate(row)) for row in block) for block in c)
        alg = LieSuperalgebra(space, EXACT, with_zeros)
        assert alg == LieSuperalgebra(space, EXACT, sparse(c)) and alg.nz == alg._nz == sparse(c)


def form_violations_from_definitions(space, parity, g, backend=EXACT):
    """The messages of the form constructor, from a dense loop over the pairs
    i <= j: g[i][j] nonzero to the backend off the parity pattern, then the
    supersymmetry g[j][i] = (-1)^(|i||j|) g[i][j] up to the tolerance, then
    g[j][i] off the pattern."""
    sp, n, out, is_zero = space, space.dim, [], backend.is_zero
    for i in range(n):
        for j in range(i, n):
            off = (sp.parity(i) != sp.parity(j)) != (parity == "odd")
            if off and not is_zero(g[i][j]):
                out.append(f"form entry ({sp.labels[i]},{sp.labels[j]}) violates the {parity} parity pattern")
            if not is_zero(g[j][i] - (-1) ** (sp.parity(i) * sp.parity(j)) * g[i][j]):
                out.append(f"supersymmetry: B({sp.labels[j]},{sp.labels[i]}) != (-1)^(|i||j|) B({sp.labels[i]},{sp.labels[j]})")
            if off and j > i and not is_zero(g[j][i]):
                out.append(f"form entry ({sp.labels[j]},{sp.labels[i]}) violates the {parity} parity pattern")
    return out


@settings(max_examples=200, deadline=None)
@given(parity=st.sampled_from(["even", "odd"]), data=st.data())
def test_the_exact_form_constructor_refuses_what_the_definitions_flag(parity, data):
    # supersymmetric Gram matrices on the parity pattern with up to three
    # entries changed: the constructor refuses exactly those the definitions
    # flag, with their first message
    entry = ENTRIES["exact"].map(EXACT.coerce)
    space = random_space(data)
    n = space.dim
    g = [list(r) for r in data.draw(grams(EXACT, space, parity, entry))]
    for (i, j), x in tampered_entries(data, (n, n), entry):
        g[i][j] = x
    want = form_violations_from_definitions(space, parity, g)
    try:
        BilinearForm(space, EXACT, parity, Matrix.from_rows(EXACT, g))
        got = []
    except StructureError as exc:
        got = [str(exc)]
    assert got == want[:1]


NEAR_TOL = st.builds(complex, st.floats(-2e-9, 2e-9), st.floats(-2e-9, 2e-9))  # either side of the tolerance


@settings(max_examples=300, deadline=None)
@given(parity=st.sampled_from(["even", "odd"]), data=st.data())
def test_the_complex_constructors_refuse_what_the_tolerance_definitions_flag(parity, data):
    # normal tables and Gram matrices with coefficients near the tolerance and
    # up to three entries changed, some by less than it: each constructor
    # refuses exactly what the dense definitions under the tolerance flag, with
    # their first message; a kept table stores every exactly nonzero entry and
    # equals the one with its zeros stored
    entry = st.one_of(ENTRIES["complex"], NEAR_TOL).map(CB.coerce)
    space = random_space(data)
    n = space.dim
    c = dense(data.draw(tables(space, entry)), n)
    for (i, j, k), x in tampered_entries(data, (n, n, n), entry):
        c[i][j][k] = x
    want = structure_violations_from_definitions(space, CB, c)
    assert structure_violations_made(space, CB, c) == want[:1]
    if not want:
        with_zeros = tuple(tuple(tuple(enumerate(row)) for row in block) for block in c)
        alg = LieSuperalgebra(space, CB, with_zeros)
        assert alg == LieSuperalgebra(space, CB, sparse(c)) and alg.nz == sparse(c)
        assert alg._nz == tuple(tuple(tuple(p for p in row if not CB.is_zero(p[1])) for row in b) for b in alg.nz)
    g = [list(r) for r in data.draw(grams(CB, space, parity, entry))]
    for (i, j), x in tampered_entries(data, (n, n), entry):
        g[i][j] = x
    want = form_violations_from_definitions(space, parity, g, CB)
    try:
        BilinearForm(space, CB, parity, Matrix.from_rows(CB, g))
        got = []
    except StructureError as exc:
        got = [str(exc)]
    assert got == want[:1]


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_subspace_bracket_matches_definition(backend, data):
    # random sparse tables and raw bases (not reduced, entries below the
    # tolerance, zero rows): the sparse bracket spans what [a, b] spans
    entry = ENTRIES[backend.name]
    n = data.draw(st.integers(1, 5))
    vectors = st.lists(st.tuples(*[entry.map(backend.coerce)] * n), max_size=4)
    space = SuperSpace.make([f"E{i}" for i in range(n)])
    alg = LieSuperalgebra(space, backend, data.draw(tables(space, entry.map(backend.coerce))))
    raw = vectors.map(lambda b: Subspace(backend, n, tuple(tuple((j, x) for j, x in enumerate(v) if x) for v in b)))
    subspaces = st.one_of(st.just(Subspace.full(backend, n)), raw)
    u, v = data.draw(subspaces), data.draw(subspaces)
    want = Subspace.span(backend, [alg.bracket(a, b) for a in u.basis for b in v.basis], n)
    assert subspace_bracket(alg, u, v).basis == want.basis


def invariance_failures_from_definition(alg, gram):
    """(name, residual) of every (i, j, k) with B([e_i,e_j],e_k) != B(e_i,[e_j,e_k]),
    in the order of i, j, k, from the dense stored table and the Gram matrix."""
    bk, n, lab, c, g = alg.backend, alg.dim, alg.labels, alg.c, gram.entries
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = sum((c[i][j][l] * g[l][k] for l in range(n)), bk.zero)
                rhs = sum((c[j][k][l] * g[i][l] for l in range(n)), bk.zero)
                if not bk.is_zero(lhs - rhs):
                    out.append((f"invariance({lab[i]},{lab[j]},{lab[k]})", bk.format(lhs - rhs)))
    return out


EXACT_SUMS = {
    "exact": ENTRIES["exact"],
    # Gaussian integers: every float sum is exact, so the tolerance never enters
    "complex": st.one_of(st.just(0j), st.just(0j), st.just(0j), st.builds(complex, st.integers(-3, 3), st.integers(-2, 2))),
}


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_invariance_failures_match_definition(backend, data):
    # normal tables on even and odd labels and Gram matrices: the keyed
    # invariance rows fail exactly where the dense definition does, in its order
    entry = EXACT_SUMS[backend.name].map(backend.coerce)
    space = random_space(data)
    alg = LieSuperalgebra(space, backend, data.draw(tables(space, entry)))
    parity = data.draw(st.sampled_from(["even", "odd"]))
    gram = Matrix(backend, data.draw(grams(backend, space, parity, entry)))
    form = BilinearForm(space, backend, parity, gram)
    want = invariance_failures_from_definition(alg, gram)
    got = [(ch.name, ch.residual) for ch in verify_form(alg, form).checks if ch.name.startswith("invariance")]
    if not want:
        assert [name for name, _ in got] == ["invariance"]
    elif backend is EXACT:
        assert got == want
    else:
        assert [name for name, _ in got] == [name for name, _ in want]


def invariance_by_rows(alg, form):
    """(key, residual) of the keyed invariance rows at the Gram matrix through
    `failures`, the route the complex backend takes."""
    return failures(alg.backend, _invariance_rows(alg.nz, form.gram), _flat(form.gram))


def assert_direct_invariance_matches_the_rows(alg, form):
    got, want = _invariance_failures(alg._nz, form), invariance_by_rows(alg, form)
    assert got == want
    assert [(key, EXACT.format(x)) for key, x in got] == [(key, EXACT.format(x)) for key, x in want]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_direct_invariance_sums_match_the_rows_on_random_tables(data):
    # exact tables that build wrote, raw ones with and without their zero
    # entries stored, and Gram matrices as drawn or of an invariant form
    entry = ENTRIES["exact"].map(EXACT.coerce)
    space = random_space(data)
    even, odd = space.labels[: space.dim_even], space.labels[space.dim_even :]
    n, lab = space.dim, space.labels
    kind = data.draw(st.sampled_from(["built", "raw", "raw with zeros"]))
    if kind == "built":
        brackets = {}
        for i, j in space.pairs():
            p = (space.parity(i) + space.parity(j)) % 2
            brackets[(lab[i], lab[j])] = {lab[k]: data.draw(entry) for k in range(n) if space.parity(k) == p}
        alg = LieSuperalgebra.build(even, odd, brackets)
    else:
        nz = data.draw(tables(space, entry))
        zeros = tuple(tuple(tuple(enumerate(row)) for row in block) for block in dense(nz, n))
        alg = LieSuperalgebra(space, EXACT, nz if kind == "raw" else zeros)
    parity = data.draw(st.sampled_from(["even", "odd"]))
    if data.draw(st.booleans()):
        gram = Matrix(EXACT, data.draw(grams(EXACT, space, parity, entry)))
    else:  # the zero form is invariant for any table
        gram = Matrix.zeros(EXACT, n, n)
    form = BilinearForm(space, EXACT, parity, gram)
    assert_direct_invariance_matches_the_rows(alg, form)


def test_direct_invariance_sums_match_the_rows_on_the_catalog_grid():
    for entry in catalog.entries():
        for params in entry.sample_grid(EXACT):
            alg, form = entry.builder(EXACT, params)
            assert _invariance_failures(alg._nz, form) == [] == invariance_by_rows(alg, form), entry.id


@pytest.mark.parametrize("name", sorted(p.name for p in data_file("g4.alg").parent.glob("*.alg")))
def test_direct_invariance_sums_match_the_rows_on_the_shipped_files(name):
    # the shipped file, which is invariant, and each copy with the first
    # coefficient of one bracket line doubled, most of which are not
    text = data_file(name).read_text()
    good = parse(text)
    assert_direct_invariance_matches_the_rows(good.algebra, good.form)
    assert invariance_by_rows(good.algebra, good.form) == []
    for line in text.splitlines():
        if line.startswith("bracket "):
            bad = parse(text.replace(line, tampered(line).rstrip("\n"), 1))
            assert_direct_invariance_matches_the_rows(bad.algebra, bad.form)


def test_direct_invariance_sums_on_g4_with_pq_equal_to_2z():
    # the case CI runs: [P,Q] = 2Z breaks invariance at four triples, residual -1 or 1 each
    af = parse(data_file("g4.alg").read_text().replace("bracket P Q = 1 Z", "bracket P Q = 2 Z"))
    assert_direct_invariance_matches_the_rows(af.algebra, af.form)
    got = [(ch.name, ch.residual) for ch in verify_form(af.algebra, af.form).checks if not ch.ok]
    assert len(got) == 4 and {r for _, r in got} <= {"1", "-1"}


def invariance_rows_from_definition(nz):
    """((i, j, k), row) of every (i, j, k) where [e_i,e_j] or [e_j,e_k] has a term,
    in the order of i, j, k: c[i][j][l] at g[l][k], minus c[j][k][l] at g[i][l]."""
    n = len(nz)
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if nz[i][j] or nz[j][k]:
                    row = {}
                    for u, x in [(l * n + k, x) for l, x in nz[i][j]] + [(i * n + l, -x) for l, x in nz[j][k]]:
                        row[u] = row[u] + x if u in row else x
                    out.append(((i, j, k), row))
    return out


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_invariance_rows_at_a_gram_matrix_are_those_that_meet_it(backend, data):
    # raw tables and Gram matrices, sub-tolerance entries included: without a
    # Gram matrix every row; with one, the rows that meet an exactly nonzero entry
    entry = ENTRIES[backend.name].map(backend.coerce)
    n = data.draw(st.integers(1, 4))
    c = tuple(tuple(data.draw(st.tuples(*[entry] * n)) for _ in range(n)) for _ in range(n))
    gram = Matrix(backend, tuple(data.draw(st.tuples(*[entry] * n)) for _ in range(n)))
    nz, point = sparse(c), _flat(gram)
    every = invariance_rows_from_definition(nz)
    assert list(_invariance_rows(nz)) == every
    assert list(_invariance_rows(nz, gram)) == [(key, row) for key, row in every if any(point[u] for u in row)]


def jacobi_failures_from_definition(alg):
    """Labels of the triples i <= j <= k whose dense graded Jacobi sum is nonzero."""
    bk, sp, n, c = alg.backend, alg.space, alg.dim, alg.c
    sign = lambda a, b: -1 if sp.parity(a) and sp.parity(b) else 1  # noqa: E731
    out = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for l in range(n):
                    total = bk.zero
                    for m in range(n):
                        total = total + sign(i, k) * c[j][k][m] * c[i][m][l]
                        total = total + sign(j, i) * c[k][i][m] * c[j][m][l]
                        total = total + sign(k, j) * c[i][j][m] * c[k][m][l]
                    if not bk.is_zero(total):
                        out.append(f"jacobi({sp.labels[i]},{sp.labels[j]},{sp.labels[k]})")
                        break
    return out


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_jacobi_failures_match_definition(backend, data):
    # random sparse tables on even and odd elements, with integer entries so
    # that the float sums are exact: the triples skipped because all three
    # inner brackets vanish are exactly those the definition passes for free
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-2, 2)).map(backend.coerce)
    n, n_odd = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 2))
    space = SuperSpace.make([f"E{i}" for i in range(n)], [f"F{i}" for i in range(n_odd)])
    alg = LieSuperalgebra(space, backend, data.draw(tables(space, entry)))
    got = [ch.name for ch in verify_jacobi(alg).checks if ch.name.startswith("jacobi(")]
    assert got == jacobi_failures_from_definition(alg)


def jacobi_over_all_triples(alg):
    """verify_jacobi's report from the loop over every triple i <= j <= k that
    skips a triple only when all three inner brackets vanish."""
    bk, sp, n, nz = alg.backend, alg.space, alg.dim, alg._nz
    rep = Report()
    law = "graded Jacobi identity"
    fails = 0
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if not (nz[j][k] or nz[k][i] or nz[i][j]):
                    continue
                term = {}
                for a, inner, b in ((i, nz[j][k], k), (j, nz[k][i], i), (k, nz[i][j], j)):
                    negate = _graded_sign(sp, a, b) < 0
                    for l, x in _combine(inner, nz[a]).items():
                        if negate:
                            x = -x
                        term[l] = term[l] + x if l in term else x
                if not all(bk.is_zero(x) for x in term.values()):
                    fails += 1
                    full = tuple(term.get(l, bk.zero) for l in range(n))
                    worst = max(full, key=lambda x: residual_magnitude(bk, x))
                    rep.add(
                        f"jacobi({sp.labels[i]},{sp.labels[j]},{sp.labels[k]})",
                        law,
                        False,
                        residual=_fmt_residual(bk, worst),
                        witness=alg.format_vector(full),
                    )
    if fails == 0:
        rep.add("jacobi", law, True, residual="0" if bk.name == "exact" else "0.0")
    return rep


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_jacobi_triples_match_the_loop_over_all_triples(backend, data):
    # normal tables that fail Jacobi, sub-tolerance entries included: the
    # triples that meet a structurally nonzero term give the same checks, in
    # the same order, with the same residuals and witnesses
    entry = ENTRIES[backend.name].map(backend.coerce)
    space = random_space(data)
    alg = LieSuperalgebra(space, backend, data.draw(tables(space, entry)))
    want = jacobi_over_all_triples(alg)
    assume(any(ch.name.startswith("jacobi(") for ch in want.checks))
    got = verify_jacobi(alg)
    assert [(ch.name, ch.ok, ch.residual, ch.witness) for ch in got.checks] == [
        (ch.name, ch.ok, ch.residual, ch.witness) for ch in want.checks
    ]


def perp_by_complement(q, s, t):
    return orthogonal_complement(q, t) == s


def subspaces_of(alg):
    """The center, both series and the zero space of alg: pairs of them give
    both verdicts."""
    z, ds, lcs = _series(alg)
    return [z, Subspace.zero(alg.backend, alg.dim), *ds, *lcs]


def test_orthogonal_complement_test_matches_the_complement_on_the_catalog_grid():
    verdicts = set()
    for entry in catalog.entries():
        for params in entry.sample_grid(EXACT):
            q = QuadraticAlgebra(*entry.builder(EXACT, params))
            z, ds, _ = _series(q.algebra)
            d = ds[1] if len(ds) > 1 else ds[0]
            assert is_orthogonal_complement(q, z, d), entry.id
            for s in subspaces_of(q.algebra):
                for t in subspaces_of(q.algebra):
                    got = is_orthogonal_complement(q, s, t)
                    assert got == perp_by_complement(q, s, t), entry.id
                    verdicts.add(got)
    assert verdicts == {True, False}


def tampered(text):
    """The file with the first coefficient of every bracket doubled."""
    out = []
    for line in text.splitlines():
        if line.startswith("bracket "):
            head, terms = line.split(" = ", 1)
            coeff, rest = terms.split(" ", 1)
            line = f"{head} = {Fraction(coeff) * 2} {rest}"
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("name", sorted(p.name for p in data_file("g4.alg").parent.glob("*.alg")))
def test_orthogonal_complement_test_matches_the_complement_on_the_shipped_files(name):
    text = data_file(name).read_text()
    for af in (parse(text), parse(tampered(text))):
        q = QuadraticAlgebra(af.algebra, af.form)
        z, d = center(af.algebra), derived_subalgebra(af.algebra)
        assert is_orthogonal_complement(q, z, d) == perp_by_complement(q, z, d)
        for s in subspaces_of(af.algebra):
            for t in subspaces_of(af.algebra):
                assert is_orthogonal_complement(q, s, t) == perp_by_complement(q, s, t)


NONZERO = st.one_of(
    st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3)),
    st.builds(Exact, st.integers(-2, 2), st.sampled_from([-2, -1, 1, 2])),
).map(EXACT.coerce)


@st.composite
def invertible(draw, m, entry):
    """An m x m matrix P L U: P a permutation, L unit lower triangular and U
    upper triangular with a nonzero diagonal.  Every invertible matrix has
    this form."""
    one, zero = EXACT.one, EXACT.zero
    lower = [[one if i == j else draw(entry) if j < i else zero for j in range(m)] for i in range(m)]
    upper = [[draw(NONZERO) if i == j else draw(entry) if j > i else zero for j in range(m)] for i in range(m)]
    lu = [[sum((lower[i][k] * upper[k][j] for k in range(m)), zero) for j in range(m)] for i in range(m)]
    return [lu[i] for i in draw(st.permutations(range(m)))]


@st.composite
def nondegenerate_grams(draw, parity, entry):
    """(space, Gram rows) of a form of that parity, non-degenerate by
    construction, every such form reachable.  An even form is A G0 A^T on up to
    3 even vectors, A invertible and G0 a nonzero diagonal (over Q every
    non-degenerate symmetric form is congruent to one), whose first two
    entries may be the hyperbolic plane instead, so that isotropic basis
    vectors are drawn often; B(O0, O1) = -B(O1, O0) != 0 on 0 or 2 odd ones.  An odd form pairs 1 or 2
    even vectors with as many odd ones through an invertible A."""
    if parity == "odd":
        ne = no = draw(st.integers(1, 2))
    else:
        no = draw(st.sampled_from([0, 2]))
        ne = draw(st.integers(0 if no else 1, 3))
    space = SuperSpace.make([f"E{i}" for i in range(ne)], [f"O{i}" for i in range(no)])
    a = draw(invertible(ne, entry))
    g = [[EXACT.zero] * (ne + no) for _ in range(ne + no)]
    if parity == "odd":
        for i in range(ne):
            for j in range(ne):
                g[i][ne + j] = g[ne + j][i] = a[i][j]
    else:
        g0 = [[draw(NONZERO) if k == l else EXACT.zero for l in range(ne)] for k in range(ne)]
        if ne >= 2 and draw(st.booleans()):
            g0[0][0] = g0[1][1] = EXACT.zero
            g0[0][1] = g0[1][0] = draw(NONZERO)
        for i in range(ne):
            for j in range(ne):
                g[i][j] = sum((a[i][k] * g0[k][l] * a[j][l] for k in range(ne) for l in range(ne)), EXACT.zero)
        if no:
            x = draw(NONZERO)
            g[ne][ne + 1], g[ne + 1][ne] = x, -x
    return space, tuple(map(tuple, g))


@settings(max_examples=150, deadline=None)
@given(parity=st.sampled_from(["even", "odd"]), data=st.data())
def test_orthogonal_complement_test_matches_the_complement_on_random_forms(parity, data):
    # random tables and non-degenerate Gram matrices on the exact backend; s is
    # the complement of t, a part of it, or a span drawn at random
    entry = ENTRIES["exact"].map(EXACT.coerce)
    space, rows = data.draw(nondegenerate_grams(parity, entry))
    n = space.dim
    nz = data.draw(tables(space, entry))
    gram = Matrix(EXACT, rows)
    assert rank(gram) == n
    alg = LieSuperalgebra(space, EXACT, nz)
    q = QuadraticAlgebra(alg, BilinearForm(space, EXACT, parity, gram))
    vectors = st.lists(st.tuples(*[entry] * n), max_size=n)
    t = data.draw(st.one_of(st.sampled_from(subspaces_of(alg)), vectors.map(lambda b: Subspace.span(EXACT, b, n))))
    perp = orthogonal_complement(q, t)
    s = data.draw(
        st.one_of(
            st.sampled_from(subspaces_of(alg) + [perp]),
            st.integers(0, perp.dim).map(lambda k: Subspace(EXACT, n, perp.rows[:k])),
            vectors.map(lambda b: Subspace.span(EXACT, b, n)),
        )
    )
    assert is_orthogonal_complement(q, s, t) == perp_by_complement(q, s, t)


def graded_parts_by_span(alg, s):
    """(even, odd) spans of the parity components of the basis of s."""
    bk, ne, n = alg.backend, alg.space.dim_even, alg.dim
    even = [tuple(x if i < ne else bk.zero for i, x in enumerate(v)) for v in s.basis]
    odd = [tuple(x if i >= ne else bk.zero for i, x in enumerate(v)) for v in s.basis]
    return Subspace.span(bk, even, n), Subspace.span(bk, odd, n)


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), homogeneous=st.booleans(), data=st.data())
def test_graded_parts_match_the_spans_of_the_parity_components(backend, homogeneous, data):
    # reduced bases of homogeneous vectors, which split as they stand, and of
    # mixed ones, which take the spans; the complex backend always takes them
    entry = ENTRIES[backend.name].map(backend.coerce)
    ne = data.draw(st.integers(0, 3))
    no = data.draw(st.integers(0 if ne else 1, 3))
    n = ne + no
    alg = LieSuperalgebra.abelian([f"E{i}" for i in range(ne)], [f"O{i}" for i in range(no)], backend)
    vectors = data.draw(st.lists(st.tuples(*[entry] * n), max_size=n + 1))
    if homogeneous:
        vectors = [v[:ne] + (backend.zero,) * no if data.draw(st.booleans()) else (backend.zero,) * ne + v[ne:] for v in vectors]
    s = Subspace.span(backend, vectors, n)
    got, want = _graded_parts(alg, s), graded_parts_by_span(alg, s)
    assert [p.basis for p in got] == [p.basis for p in want]


def test_subspace_bracket_keeps_empty_rows():
    # the float elimination breaks pivot ties by row slot: with the empty
    # [X,X] row dropped, the pivot [Y,Z] of column X would move [X,Y] out of
    # the first slot, the tie in column Y would go to [X,Z], not [X,Y], and the
    # Y row of the basis would end in 0.33333333333299997
    z = (0j, 0j, 0j)
    xy, xz = (0j, 3 + 0j, 1 + 0j), (0j, -3 + 0j, -1 + 1e-12 + 0j)
    yz = (1 + 0j, 0j, 0j)
    neg = lambda v: tuple(-x for x in v)  # noqa: E731
    c = ((z, xy, xz), (neg(xy), z, yz), (neg(xz), neg(yz), z))
    alg = LieSuperalgebra(SuperSpace.make(["X", "Y", "Z"]), CB, sparse(c))
    full = Subspace.full(CB, 3)
    want = Subspace.span(CB, [alg.bracket(a, b) for a in full.basis for b in full.basis], 3)
    assert want.basis == ((1, 0, 0), (0, 1, 1 / 3))
    assert subspace_bracket(alg, full, full).basis == want.basis


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_stored_table_is_the_nonzero_entries(backend, data):
    # random parity-consistent brackets, one orientation per pair, entries
    # below the tolerance on the complex backend
    entry = ENTRIES[backend.name]
    ne, no = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    space = SuperSpace.make([f"E{i}" for i in range(ne)], [f"O{i}" for i in range(no)])
    n, labels, parity = space.dim, space.labels, space.parity
    want = [[[backend.zero] * n for _ in range(n)] for _ in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + (parity(i) == 0), n):
            if not data.draw(st.booleans()):
                continue
            a, b = (i, j) if data.draw(st.booleans()) else (j, i)
            p = (parity(a) + parity(b)) % 2
            value = {k: backend.coerce(data.draw(entry)) for k in range(n) if parity(k) == p}
            brackets[labels[a], labels[b]] = {labels[k]: x for k, x in value.items()}
            sign = 1 if parity(a) and parity(b) else -1
            for k, x in value.items():
                want[a][b][k], want[b][a][k] = x, sign * x
    alg = LieSuperalgebra.build(labels[:ne], labels[ne:], brackets, backend)
    for i in range(n):
        for j in range(n):
            assert alg.nz[i][j] == tuple((k, x) for k, x in enumerate(want[i][j]) if x)
            assert alg.bracket_basis(i, j) == tuple(want[i][j])
    assert alg.c == tuple(tuple(map(tuple, block)) for block in want)
    assert alg.relabel({l: l.lower() for l in labels}).nz == alg.nz
    assert to_backend(alg, backend).nz == alg.nz
    again = LieSuperalgebra.build(labels[:ne], labels[ne:], dict(reversed(brackets.items())), backend)
    assert again == alg and hash(again) == hash(alg)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_what_build_guarantees_on_the_exact_backend_holds(data):
    # random labels, parities and coefficients, zeros and Gaussian values among
    # them: on every exact route to a table and a form (build, the raw
    # constructors, to_backend, relabel, copy and pickle) each check that the
    # readers skip would pass, and the one-orientation [g,g] is the span of
    # all n^2 rows
    entry = ENTRIES["exact"]
    labels = data.draw(st.lists(st.text("ABFXYZ", min_size=1, max_size=2), min_size=1, max_size=6, unique=True))
    ne = data.draw(st.integers(0, len(labels)))
    space = SuperSpace.make(labels[:ne], labels[ne:])
    n, parity = space.dim, space.parity
    odd_form = data.draw(st.booleans())
    brackets, entries = {}, {}
    for i in range(n):
        for j in range(i, n):
            a, b = (i, j) if data.draw(st.booleans()) else (j, i)
            p = (parity(a) + parity(b)) % 2
            square = i == j and not parity(i)  # [x,x] = 0 on an even x, B(x,x) = 0 on an odd one
            if data.draw(st.booleans()):
                value = st.just(0) if square else entry
                brackets[labels[a], labels[b]] = {labels[k]: data.draw(value) for k in range(n) if parity(k) == p}
            if p == odd_form and data.draw(st.booleans()):
                entries[labels[a], labels[b]] = data.draw(st.just(0) if i == j and parity(i) else entry)
    alg = LieSuperalgebra.build(labels[:ne], labels[ne:], brackets)
    form = BilinearForm.build(space, entries, "odd" if odd_form else "even")
    lower = alg.relabel({l: l.lower() for l in labels})
    copies = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))
    routes = [
        (alg, form),
        (LieSuperalgebra(space, EXACT, alg.nz), BilinearForm(space, EXACT, form.parity, form.gram)),
        (to_backend(alg, EXACT), to_backend(form, EXACT)),
        (lower, form.relabel(lower.space)),
        *((cp(alg), cp(form)) for cp in copies),
    ]
    for a, f in routes:
        assert structure_violations_from_definitions(a.space, EXACT, a.c) == []
        assert a._nz == a.nz == alg.nz
        assert form_violations_from_definitions(f.space, f.parity, f.gram.entries) == []
        every = Subspace.span(EXACT, [a.bracket_basis(i, j) for i in range(n) for j in range(n)], n)
        assert derived_subalgebra(a).basis == every.basis


def test_the_raw_routes_keep_the_structure_checks():
    # each constructor refuses a broken table with the first of its 5
    # violations, the exact one and its complex copy alike
    space, c = raw_superalgebra(EXACT, {("X", "F", "G"): 1, ("F", "X", "G"): 1, ("X", "Y", "F"): 1})
    want = structure_violations_from_definitions(space, EXACT, c)
    assert len(want) == 5
    for backend in (EXACT, CB):
        with pytest.raises(StructureError) as refused:
            LieSuperalgebra(space, backend, sparse([[[backend.coerce(x) for x in r] for r in block] for block in c]))
        assert str(refused.value) == want[0]
    # to_backend, relabel, copy and pickle keep the exact table nz and Gram
    # matrix, and a raw table of the same entries is equal in ==, hash and repr
    built = LieSuperalgebra.build(["X", "Y"], ["F", "G"], {("X", "F"): {"G": 1}, ("F", "G"): {"X": 2}})
    same = LieSuperalgebra(built.space, EXACT, built.nz)
    assert same == built and hash(same) == hash(built) and repr(same) == repr(built)
    form = BilinearForm.build(built.space, {("X", "Y"): 1, ("F", "G"): 1})
    copies = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))
    for alg in (to_backend(built, EXACT), built.relabel({"X": "U"}), *(cp(built) for cp in copies)):
        assert alg.nz == alg._nz == built.nz
    for f in (to_backend(form, EXACT), form.relabel(form.space), *(cp(form) for cp in copies)):
        assert f.gram == form.gram
    # an even square or an odd diagonal B(x, x) below the tolerance is kept
    # by build, and refused when twice it is above it
    cb = complex_backend(1e-9)
    with pytest.raises(StructureError, match=r"^antisymmetry: c\[X,X\] != \(-1\)\^\(\|i\|\|j\|\+1\) c\[X,X\]$"):
        LieSuperalgebra.build(["X", "Y"], [], {("X", "X"): {"Y": 6e-10}}, cb)
    kept = LieSuperalgebra.build(["X", "Y"], [], {("X", "X"): {"Y": 4e-10}}, cb)
    assert kept.nz[0][0] == ((1, 4e-10),) and kept._nz[0][0] == ()
    odd = SuperSpace.make([], ["F"])
    with pytest.raises(StructureError, match=r"^supersymmetry: B\(F,F\) != \(-1\)\^\(\|i\|\|j\|\) B\(F,F\)$"):
        BilinearForm.build(odd, {("F", "F"): 6e-10}, "even", cb)
    assert BilinearForm.build(odd, {("F", "F"): 4e-10}, "even", cb).gram.entries == ((4e-10,),)


def test_parity_consistency_rejected():
    with pytest.raises(StructureError):
        LieSuperalgebra.build(["x"], ["f"], brackets={("f", "f"): {"f": 1}})


def test_double_orientation_rejected():
    with pytest.raises(StructureError):
        LieSuperalgebra.build(
            ["X", "P", "Z"],
            brackets={("X", "P"): {"P": 1}, ("P", "X"): {"P": 1}},
        )


def test_reversed_bracket_pair_names_both_orientations():
    with pytest.raises(StructureError, match=r"both orientations of the pair \(Y,X\) specified"):
        LieSuperalgebra.build(["X", "Y"], [], {("X", "Y"): {"Y": 1}, ("Y", "X"): {"Y": -1}})


def test_reversed_form_pair_names_both_orientations():
    space = SuperSpace.make(["X", "Y"])
    with pytest.raises(StructureError, match=r"both orientations of form pair \(Y,X\) specified"):
        BilinearForm.build(space, {("X", "Y"): 1, ("Y", "X"): 1})


def test_odd_square_bracket_allowed():
    alg = LieSuperalgebra.build(["x"], ["f"], brackets={("f", "f"): {"x": 1}})
    assert verify_jacobi(alg).ok
    assert alg.bracket_basis(1, 1) == (EXACT.one, EXACT.zero)


def test_pairs_are_one_orientation_per_pair_and_the_odd_squares():
    space = SuperSpace.make(["X", "Y"], ["F", "G"])
    assert space.pairs() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def test_tables_drop_what_is_zero_to_the_backend():
    # nz and the Gram matrix keep a coefficient below the tolerance; the tables
    # read back only what build would have to be given
    bk = complex_backend(1e-9)
    alg = LieSuperalgebra.build(["X", "Y", "Z"], [], {("X", "Y"): {"Y": 1, "Z": 1e-12}, ("X", "Z"): {"Z": 1e-12}}, bk)
    assert alg.nz[0][1] == ((1, 1), (2, 1e-12)) and alg.nz[0][2] == ((2, 1e-12),)
    assert alg.table() == {("X", "Y"): {"Y": 1}}
    form = BilinearForm.build(alg.space, {("X", "Z"): 1, ("Y", "Y"): 1, ("X", "Y"): 1e-12}, "even", bk)
    assert form.gram.entries[0][1] == 1e-12
    assert form.table() == {("X", "Z"): 1, ("Y", "Y"): 1}


def test_center_abelian():
    alg = LieSuperalgebra.abelian(["a", "b", "c"])
    assert center(alg).dim == 3


def test_center_diamond():
    alg, _ = diamond()
    assert center(alg) == span_of(alg, [{"Z": 1}])


def test_center_tstar_heisenberg():
    # oracle: the joint nullspace of the bracket table of the theta=0 extension
    alg = LieSuperalgebra.build(
        ["X", "Y", "Z", "X*", "Y*", "Z*"],
        brackets={
            ("X", "Y"): {"Z": 1},
            ("X", "Z*"): {"Y*": -1},
            ("Y", "Z*"): {"X*": 1},
        },
    )
    assert center(alg) == span_of(alg, [{"Z": 1}, {"X*": 1}, {"Y*": 1}])


def test_derived_and_series_diamond():
    alg, _ = diamond()
    assert derived_subalgebra(alg) == span_of(alg, [{"P": 1}, {"Q": 1}, {"Z": 1}])
    assert is_solvable(alg)
    assert not is_nilpotent(alg)
    dims = [s.dim for s in derived_series(alg)]
    assert dims == [4, 3, 1, 0]


def test_abelian_derived_trivial():
    alg = LieSuperalgebra.abelian(["a", "b"])
    assert derived_subalgebra(alg).dim == 0


def test_orthogonal_complement_diamond():
    alg, form = diamond()
    q = QuadraticAlgebra.build(alg, form)
    whole = Subspace.full(EXACT, 4)
    assert orthogonal_complement(q, whole).dim == 0
    zspan = span_of(alg, [{"Z": 1}])
    assert orthogonal_complement(q, zspan) == span_of(alg, [{"P": 1}, {"Q": 1}, {"Z": 1}])
    assert orthogonal_complement(q, derived_subalgebra(alg)) == center(alg)


def test_ideals_diamond():
    alg, form = diamond()
    z = span_of(alg, [{"Z": 1}])
    assert is_ideal(alg, z)
    assert not is_nondegenerate_on(form, z)
    assert is_ideal(alg, Subspace.full(EXACT, 4))
    p = span_of(alg, [{"P": 1}])
    assert not is_ideal(alg, p)


def test_lower_central_series_heisenberg():
    h3 = LieSuperalgebra.build(["X", "Y", "Z"], brackets={("X", "Y"): {"Z": 1}})
    assert [s.dim for s in lower_central_series(h3)] == [3, 1, 0]
    assert is_nilpotent(h3)


def assert_series_pass_matches(alg):
    z, ds, lcs = _series(alg)
    assert z.basis == center(alg).basis
    assert [s.basis for s in ds] == [s.basis for s in derived_series(alg)]
    assert [s.basis for s in lcs] == [s.basis for s in lower_central_series(alg)]


@pytest.mark.parametrize("id", [e.id for e in catalog.entries()])
def test_series_pass_matches_center_and_series(id):
    assert_series_pass_matches(catalog.build(id).algebra)


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_series_pass_matches_on_random_tables(backend, data):
    # random tables, entries below the tolerance included: both series of the
    # one pass are those of the separate functions, [g,g] = g and 0 included
    entry = ENTRIES[backend.name].map(backend.coerce)
    n = data.draw(st.integers(1, 5))
    space = SuperSpace.make([f"E{i}" for i in range(n)])
    assert_series_pass_matches(LieSuperalgebra(space, backend, data.draw(tables(space, entry))))
    assert_series_pass_matches(LieSuperalgebra.abelian([f"E{i}" for i in range(n)], backend=backend))


def test_a_series_stops_when_the_dimension_does_not_fall():
    # [E0,E2] = x E1 + (2-i) E2 with |x| just above the tolerance and
    # [E2,E2] = i E0: the reduced [g,g] holds an entry of about 1.8e9, and the
    # rounding of its bracket spans g again, so a series that stopped only at
    # an equal dimension would alternate 3, 2, 3, ... without end
    x = -7.417791856996642e-10 + 1e-09j
    nz = (((), (), ((1, x), (2, 2 - 1j))), ((), (), ()), (((1, -x), (2, -2 + 1j)), (), ((0, 1j),)))
    alg = LieSuperalgebra(SuperSpace(1, 2, ("E0", "E1", "E2")), CB, nz)
    gg = derived_subalgebra(alg)
    assert gg.dim == 2 and subspace_bracket(alg, gg, gg).dim == 3
    steps = []

    def step(s):  # [s, s], for at most a few steps
        steps.append(s)
        assert len(steps) < 5, "the series does not end"
        return subspace_bracket(alg, s, s)

    assert [s.dim for s in _descend([Subspace.full(CB, 3), gg], step)] == [3, 2]
    assert [s.dim for s in derived_series(alg)] == [s.dim for s in lower_central_series(alg)] == [3, 2]


RAW_ENTRIES = {
    "exact": ENTRIES["exact"],
    # Gaussian integers and entries far below the tolerance, which cannot tip
    # a pivot between the center and the definition
    "complex": st.one_of(
        st.just(0j),
        st.just(0j),
        st.builds(complex, st.integers(-3, 3), st.integers(-2, 2)),
        st.builds(complex, st.floats(-1e-13, 1e-13), st.floats(-1e-13, 1e-13)),
    ),
}


def descend_from_definition(backend, n, step, gg=None):
    """g, step(g), ... while the dimension falls and is not 0; gg, when
    given, in place of step(g)."""
    series = [Subspace.full(backend, n)]
    while series[-1].dim:
        nxt = gg if gg is not None and len(series) == 1 else step(series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_series_match_definition_on_random_tables(backend, data):
    # normal tables on even and odd labels: each subspace is the span its
    # definition builds from alg.bracket on basis vectors, reduced in the
    # same row order
    entry = RAW_ENTRIES[backend.name].map(backend.coerce)
    space = random_space(data)
    n = space.dim
    alg = LieSuperalgebra(space, backend, data.draw(tables(space, entry)))
    basis = Subspace.full(backend, n).basis

    def span(vectors):
        return Subspace.span(backend, list(vectors), n)

    # the center: v with [v, e_j] = 0 for every j, one equation per (j, k)
    rows = tuple(tuple(alg.bracket(e, f)[k] for e in basis) for f in basis for k in range(n))
    assert center(alg) == span(nullspace(Matrix(backend, rows)))
    # [g,g] spans [e_i, e_j] over one orientation per pair, since graded
    # antisymmetry makes the other +-1 times it; a float elimination of both
    # rounds otherwise
    gg = span(alg.bracket(basis[i], basis[j]) for i, j in space.pairs())
    assert derived_subalgebra(alg).basis == gg.basis
    derived = descend_from_definition(backend, n, lambda s: span(alg.bracket(a, b) for a in s.basis for b in s.basis), gg)
    lower = descend_from_definition(backend, n, lambda s: span(alg.bracket(e, b) for e in basis for b in s.basis), gg)
    assert [s.basis for s in derived_series(alg)] == [s.basis for s in derived]
    assert [s.basis for s in lower_central_series(alg)] == [s.basis for s in lower]
    z, ds, lcs = _series(alg)
    assert [s.basis for s in ds] == [s.basis for s in derived]
    assert [s.basis for s in lcs] == [s.basis for s in lower]


def dense_in_span(basis, v):
    """Whether v is a combination of the dense basis vectors: A x = v is
    consistent for the matrix A whose columns they are."""
    if not basis:
        return not any(v)
    return solve_linear(Matrix(EXACT, tuple(zip(*basis))), v) is not None


def dense_intersection(u, w, n):
    """The span of sum_i a_i u_i over the kernel vectors (a, b) of the matrix
    whose columns are the basis vectors u_i of u and the -w_j of w."""
    cols = list(u.basis) + [tuple(-x for x in v) for v in w.basis]
    if not u.dim or not w.dim:
        return Subspace.zero(EXACT, n)
    kernel = nullspace(Matrix(EXACT, tuple(zip(*cols))))
    return Subspace.span(EXACT, [[sum(k[i] * u.basis[i][m] for i in range(u.dim)) for m in range(n)] for k in kernel], n)


def dense_complement(form, s, n):
    """{v : B(v, b) = 0 for b in the basis of s}, one equation B(e_k, b) per b, by form.value."""
    if not s.dim:
        return Subspace.full(EXACT, n)
    units = Subspace.full(EXACT, n).basis
    return Subspace.span(EXACT, nullspace(Matrix(EXACT, tuple(tuple(form.value(e, b) for e in units) for b in s.basis))), n)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_subspace_operations_match_dense_definitions(data):
    # exact tables and Gram matrices: the operations that read the sparse
    # rows of a Subspace against definitions that read only its dense basis
    entry = ENTRIES["exact"].map(EXACT.coerce)
    n = data.draw(st.integers(1, 5))
    space = SuperSpace.make([f"E{i}" for i in range(n)])
    alg = LieSuperalgebra(space, EXACT, data.draw(tables(space, entry)))
    units = Subspace.full(EXACT, n).basis

    def span(vectors):
        return Subspace.span(EXACT, list(vectors), n)

    rows = tuple(tuple(alg.bracket(e, f)[k] for e in units) for f in units for k in range(n))
    z, ds, lcs = _series(alg)
    assert z == center(alg) == span(nullspace(Matrix(EXACT, rows)))
    assert ds == descend_from_definition(EXACT, n, lambda s: span(alg.bracket(a, b) for a in s.basis for b in s.basis))
    assert lcs == descend_from_definition(EXACT, n, lambda s: span(alg.bracket(e, b) for e in units for b in s.basis))
    vectors = st.lists(st.tuples(*[entry] * n), max_size=n + 1)
    drawn = [span(data.draw(vectors)) for _ in range(2)]
    subspaces = [z, Subspace.zero(EXACT, n), *ds, *lcs, *drawn]
    form = BilinearForm(space, EXACT, "even", Matrix(EXACT, data.draw(grams(EXACT, space, "even", entry))))
    q = QuadraticAlgebra(alg, form)
    for u in subspaces:
        # the rows are the exactly nonzero entries of the basis, and give it back
        assert u.rows == tuple(tuple((j, x) for j, x in enumerate(v) if x) for v in u.basis)
        assert span(u.basis).rows == u.rows
        assert is_ideal(alg, u) == all(dense_in_span(u.basis, alg.bracket(e, b)) for e in units for b in u.basis)
        v = data.draw(st.tuples(*[entry] * n))
        assert u.contains(v) == dense_in_span(u.basis, v)
        if form.is_nondegenerate():
            assert orthogonal_complement(q, u) == dense_complement(form, u, n)
        for w in drawn:
            assert u.sum_with(w) == span(u.basis + w.basis)
            assert u.intersect(w) == dense_intersection(u, w, n)


def test_center_reads_the_tolerance_view():
    # [E1,E0] = 2e-9 E0 is above the tolerance and [E2,E0] = 1e-10 E0 below
    # it: the center is the kernel of the brackets as alg.bracket computes
    # them, span{E2}, not the span of -0.05 E1 + E2 that the stored table gives
    nz = (
        ((), ((0, -2e-9),), ((0, -1e-10),)),
        (((0, 2e-9),), (), ()),
        (((0, 1e-10),), (), ()),
    )
    alg = LieSuperalgebra(SuperSpace.make(["E0", "E1", "E2"]), CB, nz)
    e0, e1, e2 = Subspace.full(CB, 3).basis
    assert alg.bracket(e2, e0) == (0j, 0j, 0j)
    assert center(alg) == Subspace.span(CB, [e2], 3)


def test_format_vector():
    alg, _ = diamond()
    v = [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(2)]
    v = tuple(EXACT.coerce(x) for x in v)
    assert format_vector(EXACT, alg.space, v) == "X - 1/2 P + 2 Z"


def test_quadratic_build_rejects_bad_form():
    alg, _ = diamond()
    bad = BilinearForm.build(alg.space, {("X", "Z"): 1, ("P", "Q"): 2})
    with pytest.raises(StructureError):
        QuadraticAlgebra.build(alg, bad)


def test_vector_arguments_are_coerced_to_the_backend():
    # a float reaches exact arithmetic only through an unchecked entry point
    alg, form = diamond()
    with pytest.raises(BackendMismatch):
        form.value((0.5, 0, 0, 0), (0, 0, 0, 1))
    with pytest.raises(BackendMismatch):
        alg.bracket((0.5, 0, 0, 0), (0, 1, 0, 0))
    assert form.value((2, 0, 0, 0), (0, 0, 0, "1/2")) == EXACT.one
    assert alg.bracket((1, 0, 0, 0), (0, 3, 0, 0)) == (0, 3, 0, 0)


def test_ad_vector_and_restrict_coerce_their_arguments():
    q = catalog.build("g4")
    with pytest.raises(BackendMismatch):
        q.algebra.ad_vector((0.5, 0, 0, 0))
    with pytest.raises(BackendMismatch):
        restrict(q.form, [(0.5, 0, 0, 0), (0, 0, 0, 1)])
    assert q.algebra.ad_vector(("1/2", 0, 0, 0)) == q.algebra.ad(0).scale(Fraction(1, 2))
    assert restrict(q.form, [("1/2", 0, 0, 0), (0, 0, 0, 1)]).entries == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))


def is_ideal_from_definition(alg, s):
    """[e_i, b] in s for every basis vector e_i and basis vector b of s, from the
    dense structure constants (entries zero to the backend count as zero)."""
    bk, n = alg.backend, alg.dim
    z = lambda x: bk.zero if bk.is_zero(x) else x  # noqa: E731
    for i in range(n):
        for b in s.basis:
            v = [sum((z(b[j]) * z(alg.c[i][j][k]) for j in range(n)), bk.zero) for k in range(n)]
            if not s.contains(v):
                return False
    return True


# (brackets on E0..E{n-1}, spanning vectors, verdict): each basis row has two or
# more nonzero coordinates, and the bracket with the first alone gives the
# other verdict
IDEAL_CASES = [
    # E0 + E1 is central, though [E2, E0] = -E2 is not in its span
    ({("E0", "E2"): {"E2": 1}, ("E1", "E2"): {"E2": -1}}, [(1, 1, 0)], True),
    # [E2, E0 + E1] = -E2, though E0 is central
    ({("E1", "E2"): {"E2": 1}}, [(1, 1, 0)], False),
    # ad E3 is the identity on span{E0, E1, E2}, so each of its subspaces is an ideal
    ({("E0", "E3"): {"E0": -1}, ("E1", "E3"): {"E1": -1}, ("E2", "E3"): {"E2": -1}}, [(1, 0, 2, 0), (0, 1, -1, 0)], True),
    # [E3, E0 + E2] = E2 lies outside the span, though E0 and E1 are central
    ({("E2", "E3"): {"E2": -1}}, [(1, 0, 1, 0), (0, 1, 1, 0)], False),
]


@settings(max_examples=120, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_is_ideal_matches_definition(backend, data):
    # the fixed cases, whose rows a reading of one coordinate would get
    # wrong, then normal tables and random spans
    for brackets, vectors, verdict in IDEAL_CASES:
        n = len(vectors[0])
        alg = LieSuperalgebra.build([f"E{i}" for i in range(n)], [], brackets, backend)
        s = Subspace.span(backend, vectors, n)
        assert all(len(r) >= 2 for r in s.rows)
        assert is_ideal(alg, s) == is_ideal_from_definition(alg, s) == verdict
    entry = ENTRIES[backend.name]
    n = data.draw(st.integers(1, 4))
    space = SuperSpace.make([f"E{i}" for i in range(n)])
    alg = LieSuperalgebra(space, backend, data.draw(tables(space, entry.map(backend.coerce))))
    vectors = data.draw(st.lists(st.tuples(*[entry.map(backend.coerce)] * n), max_size=n))
    s = Subspace.span(backend, vectors, n)
    assert is_ideal(alg, s) == is_ideal_from_definition(alg, s)


def test_the_complex_tables_that_broke_is_ideal_are_refused():
    # two raw tables on which is_ideal and its definition once disagreed;
    # each has a nonzero even square, which the constructor now refuses
    square = r"^antisymmetry: c\[E{0},E{0}\] != \(-1\)\^\(\|i\|\|j\|\+1\) c\[E{0},E{0}\]$"
    e = tuple(tuple(() for _ in range(4)) for _ in range(4))
    nz = e[:3] + ((*e[3][:3], ((2, 1j), (3, 1j))),)  # [E3,E3] = i E2 + i E3
    with pytest.raises(StructureError, match=square.format(3)):
        LieSuperalgebra(SuperSpace.make([f"E{i}" for i in range(4)]), CB, nz)
    # [E0,E0] = 2i E0 and [E1,E0] = 2i E0 + (1e-9 + 1.58e-10 i) E1, where
    # is_ideal(span{E0}) read False and the definition True
    nz = ((((0, 2j),), ()), (((0, 2j), (1, 1e-9 + 1.58e-10j)), ()))
    with pytest.raises(StructureError, match=square.format(0)):
        LieSuperalgebra(SuperSpace.make(["E0", "E1"]), CB, nz)


def _fingerprint(der_dim=5, skew_der_dim=3, center_dim=1):
    return Fingerprint(4, 4, 0, center_dim, (4, 1, 0), (4, 1, 0), 1, True, True, der_dim, skew_der_dim)


def _eigen(nilpotent=True):
    return EigenStructure(nilpotent, False)


def _h3(z=1):
    return LieSuperalgebra.build(["X", "Y", "Z"], brackets={("X", "Y"): {"Z": z}})


# (name, make, make_other): make() builds a fresh value each call, make_other()
# one that differs from it in a single compared field
VALUE_TYPES = [
    ("SuperSpace", lambda: SuperSpace.make(["X", "Y"], ["F"]), lambda: SuperSpace.make(["X", "Y"], ["G"])),
    ("Matrix", lambda: Matrix.from_rows(EXACT, [[1, "1/2"], [0, 3]]), lambda: Matrix.from_rows(EXACT, [[1, "1/2"], [0, 2]])),
    ("LieSuperalgebra", _h3, lambda: _h3(2)),
    ("ComplexBackend", lambda: complex_backend(1e-9), lambda: complex_backend(1e-12)),
    ("EigenStructure", _eigen, lambda: _eigen(False)),
    ("Fingerprint", _fingerprint, lambda: _fingerprint(center_dim=2)),
    ("Exact", lambda: Exact(1, 1), lambda: Exact(1, 2)),
]


@pytest.mark.parametrize("name, make, make_other", VALUE_TYPES, ids=[v[0] for v in VALUE_TYPES])
def test_value_types_compare_and_hash_by_fields(name, make, make_other):
    a, b, c = make(), make(), make_other()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != (a,) and len({a, b, c}) == 2
    # copy and pickle rebuild a value past the immutability guard
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_fingerprint_equality_ignores_the_derivation_dimensions():
    a, b = _fingerprint(der_dim=5, skew_der_dim=3), _fingerprint(der_dim=9, skew_der_dim=None)
    assert a == b and hash(a) == hash(b)
    assert (b.der_dim, b.skew_der_dim) == (9, None)


def _form():
    return diamond()[1]


# id: (make, a field); _nz and the Gram matrix feed cached data, so must not change
IMMUTABLE = {
    "SuperSpace": (lambda: SuperSpace.make(["X"]), "labels"),
    "Matrix": (lambda: Matrix.identity(EXACT, 2), "entries"),
    "LieSuperalgebra": (_h3, "nz"),
    "LieSuperalgebra-view": (_h3, "_nz"),
    "ExactBackend": (ExactBackend, "name"),
    "ComplexBackend": (complex_backend, "tol"),
    "EigenStructure": (_eigen, "is_nilpotent"),
    "Fingerprint": (_fingerprint, "der_dim"),
    "BilinearForm": (_form, "gram"),
    "Subspace": (lambda: Subspace.full(EXACT, 2), "rows"),
    "Exact": (lambda: Exact(1, 1), "imag"),
}


@pytest.mark.parametrize("make, field", IMMUTABLE.values(), ids=IMMUTABLE.keys())
def test_values_are_immutable(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before

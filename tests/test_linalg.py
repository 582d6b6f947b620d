from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liequad import catalog
from liequad.core import BilinearForm, LieSuperalgebra, QuadraticAlgebra, StructureError, SuperSpace, orthogonal_complement
from liequad.derivations import derivation_space
from liequad.linalg import (
    _dense_row,
    _nullspace_rows,
    _rref_sparse,
    _span_rows,
    _sparse_row,
    Matrix,
    Subspace,
    eigen_structure,
    minimal_polynomial,
    nullspace,
    rank,
    rref,
    solve_linear,
    vec,
    vec_is_zero,
)
from liequad.scalars import EXACT, BackendMismatch, Exact, ExactBackend, complex_backend

from helpers import grams, restrict, tables


def M(rows):
    return Matrix.from_rows(EXACT, rows)


def test_solve_identity():
    assert solve_linear(Matrix.identity(EXACT, 3), [1, 2, 3]) == vec(EXACT, [1, 2, 3])


def test_solve_inconsistent_rank1():
    assert solve_linear(M([[1, 1], [1, 1]]), [1, 2]) is None


def test_solve_diagonal_inverse():
    x = solve_linear(M([[2, 0], [0, 3]]), [1, 1])
    assert x == vec(EXACT, [Fraction(1, 2), Fraction(1, 3)])


def test_solve_backend_mismatch():
    a = Matrix.identity(EXACT, 2)
    with pytest.raises(BackendMismatch):
        solve_linear(a, [0.5 + 0j, 1j])


def test_nullspace_zero_map():
    assert len(nullspace(Matrix.zeros(EXACT, 3, 3))) == 3


def test_nullspace_injective():
    assert nullspace(Matrix.identity(EXACT, 3)) == []


def test_nullspace_row():
    # oracle: the returned vectors are independent and annihilated by A
    a = M([[1, 1, 0]])
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert vec_is_zero(EXACT, a.apply(v))
    assert Subspace.span(EXACT, basis, 3).dim == 2


small = st.integers(-5, 5)


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    data=st.data(),
)
def test_rank_nullity(n, m, data):
    rows = [[data.draw(small) for _ in range(m)] for _ in range(n)]
    a = M(rows)
    assert rank(a) + len(nullspace(a)) == a.cols


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_solve_then_substitute(n, data):
    rows = [[data.draw(small) for _ in range(n)] for _ in range(n)]
    b = [data.draw(small) for _ in range(n)]
    a = M(rows)
    x = solve_linear(a, b)
    if x is not None:
        assert all(r == v for r, v in zip(a.apply(x), vec(EXACT, b)))


def test_rref_is_canonical():
    a = M([[2, 4], [1, 2]])
    red, pivots = rref(a)
    assert pivots == (0,)
    assert red.entries[0] == vec(EXACT, [1, 2])


def test_subspace_equality_echelon():
    s1 = Subspace.span(EXACT, [[1, 1, 0], [0, 2, 0]], 3)
    s2 = Subspace.span(EXACT, [[3, 0, 0], [5, 7, 0]], 3)
    assert s1 == s2
    assert s1.contains([4, -9, 0])
    assert not s1.contains([0, 0, 1])


def test_exact_subspaces_of_equal_dimension_and_other_spans_differ():
    # reduced echelon bases that differ are different spans, so == says no; a
    # raw, unreduced basis compares by its span
    u, v = Subspace.span(EXACT, [[1, 1, 0], [0, 0, 1]], 3), Subspace.span(EXACT, [[1, 0, 0], [0, 1, 1]], 3)
    assert u.dim == v.dim == 2 and u.rows != v.rows
    assert u != v and v != u and not u == v
    raw = Subspace(EXACT, 3, (((0, 2), (1, 2)), ((2, Fraction(1, 3)),)))
    assert raw.rows != u.rows and raw == u and u == raw and raw != v


def test_subspace_intersection():
    s1 = Subspace.span(EXACT, [[1, 0, 0], [0, 1, 0]], 3)
    s2 = Subspace.span(EXACT, [[0, 1, 1], [1, 0, 0]], 3)
    inter = s1.intersect(s2)
    assert inter.dim == 1
    assert inter.contains([1, 0, 0])


def test_eigen_jordan_block():
    e = eigen_structure(M([[0, 1], [0, 0]]))
    assert e.is_nilpotent and not e.is_semisimple


def test_eigen_diagonal():
    e = eigen_structure(M([[1, 0], [0, -1]]))
    assert not e.is_nilpotent and e.is_semisimple


def test_eigen_unipotent():
    # oracle: minimal polynomial of [[1,1],[0,1]] is (x-1)^2 = x^2 - 2x + 1
    a = M([[1, 1], [0, 1]])
    assert minimal_polynomial(a) == list(vec(EXACT, [1, -2, 1]))
    e = eigen_structure(a)
    assert not e.is_nilpotent and not e.is_semisimple


@pytest.mark.parametrize(
    "id, params, semisimple",
    [("g6_3", {"mu": "1/2"}, True), ("go6_6", {"mu": "1/2"}, True), ("g6_2", {}, False), ("go6_4", {}, False)],
)
def test_eigen_six_by_six(id, params, semisimple):
    # no size cap: ad of the first even generator of a 6-dim catalog entry
    ad = catalog.build(id, **params).algebra.ad(0)
    assert ad.rows == 6
    e = eigen_structure(ad)
    assert not e.is_nilpotent and e.is_semisimple == semisimple


def test_eigen_float_backend():
    cb = complex_backend()
    a = Matrix.from_rows(cb, [[0.0, 1.0], [0.0, 0.0]])
    e = eigen_structure(a)
    assert e.is_nilpotent and not e.is_semisimple
    b = Matrix.from_rows(cb, [[1.0, 0.0], [0.0, -1.0]])
    e = eigen_structure(b)
    assert not e.is_nilpotent and e.is_semisimple


@pytest.mark.parametrize(
    "rows, nilpotent, semisimple",
    [
        ([[1, 1], [0, 1]], False, False),  # a Jordan block with a repeated eigenvalue
        ([[0, 0], [0, 0]], True, True),  # zero is diagonal
        ([[1, 0], [0, 1]], False, True),  # so is the identity
    ],
)
def test_eigen_float_repeated_eigenvalue(rows, nilpotent, semisimple):
    e = eigen_structure(Matrix.from_rows(complex_backend(), rows))
    assert (e.is_nilpotent, e.is_semisimple) == (nilpotent, semisimple)


small_square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0, 1, -1, 2]), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=300, deadline=None)
@given(small_square)
def test_eigen_float_matches_exact(rows):
    # on integer matrices the complex backend reaches the exact verdicts
    assert eigen_structure(Matrix.from_rows(complex_backend(), rows)) == eigen_structure(M(rows))


def test_solve_float_backend_within_tol():
    cb = complex_backend(1e-9)
    a = Matrix.from_rows(cb, [[3.0, 1.0], [1.0, 2.0]])
    b = [1.0, 7.0]
    x = solve_linear(a, b)
    assert x is not None
    res = [abs(r - v) for r, v in zip(a.apply(x), [complex(v) for v in b])]
    assert all(r <= 1e-9 for r in res)


def test_float_rank_respects_tolerance():
    cb = complex_backend(1e-9)
    a = Matrix.from_rows(cb, [[1.0, 0.0], [0.0, 1e-12]])
    assert rank(a) == 1


# -- the sparse elimination against dense Gauss-Jordan ---------------------------


def dense_rref(backend, rows):
    """Reference: dense Gauss-Jordan, first-nonzero pivoting on the exact backend
    and largest-magnitude pivoting (first on a tie) on the float backend."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots, r = [], 0
    for c in range(ncols):
        if r >= nrows:
            break
        best, weight = None, 0
        for i in range(r, nrows):
            w = backend.pivot_weight(rows[i][c])
            if w > weight:
                best, weight = i, w
                if backend.name == "exact":
                    break
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        inv = backend.div(backend.one, rows[r][c])
        rows[r] = [inv * v for v in rows[r]]
        for i in range(nrows):
            if i != r and not backend.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows], tuple(pivots)


def dense_nullspace(backend, rows, ncols):
    red, pivots = dense_rref(backend, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [backend.zero] * ncols
        v[fc] = backend.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def assert_kernel_rows_match_dense(backend, rows, ncols):
    """The kernel rows of `_nullspace_rows` hold no exact zero and densify to
    the dense kernel; so do they with no rows (the standard basis) and with
    two more columns that no row touches."""
    for entries, width in ((rows, ncols), ((), ncols), ([r + (backend.zero,) * 2 for r in rows], ncols + 2)):
        kernel = _nullspace_rows(backend, [_sparse_row(r) for r in entries], width)
        assert all(all(x for x in r.values()) for r in kernel)
        assert [_dense_row(backend, r.items(), width) for r in kernel] == dense_nullspace(backend, entries, width)


def dense_solve(backend, rows, b):
    ncols = len(rows[0])
    red, pivots = dense_rref(backend, [row + (bv,) for row, bv in zip(rows, b)])
    if ncols in pivots:
        return None
    x = [backend.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return tuple(x)


def dense_span(backend, rows):
    red, _ = dense_rref(backend, rows)
    return tuple(r for r in red if not vec_is_zero(backend, r))


CB = complex_backend(1e-9)
exact_entry = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Exact, st.integers(-3, 3), st.integers(-3, 3)),  # Gaussian rationals
)
complex_entry = st.one_of(
    st.just(0j),
    st.just(0j),
    st.builds(complex, st.integers(-3, 3), st.integers(-2, 2)),
    st.builds(complex, st.floats(-10, 10), st.floats(-1, 1)),
    st.builds(complex, st.floats(-1e-10, 1e-10)),  # below the tolerance
    st.builds(complex, st.floats(-1e9, 1e9)),
)


@st.composite
def sparse_matrices(draw, entry):
    """Mostly-zero matrices, wide and tall, some with zero and repeated rows."""
    nrows, ncols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    for r in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        rows[r] = [0] * ncols
    if draw(st.booleans()):
        a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        rows.append([x + 2 * y for x, y in zip(rows[a], rows[b])])
    return rows


@st.composite
def singleton_matrices(draw, entry):
    """Rows with at most three nonzeros: singletons, several of them in one
    column, zero rows, and a chain x_a, (x_a, x_b), (x_b, x_c), ... whose rows
    turn into singletons one after another as their columns are cleared."""
    ncols = draw(st.integers(1, 9))
    nonzero = entry.map(lambda x: x or 1)  # 1 often: the unit pivot
    chain = draw(st.permutations(range(ncols)))[: draw(st.integers(1, ncols))]
    rows = []
    for k, c in enumerate(chain):
        row = [0] * ncols
        row[c] = draw(nonzero)
        if k:
            row[chain[k - 1]] = draw(nonzero)
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):  # more singletons in the chain's first column
        rows.append([draw(nonzero) if x else 0 for x in rows[0]])
    for _ in range(draw(st.integers(0, 6))):
        row = [0] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
            row[c] = draw(nonzero)
        rows.append(row)
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rows=st.one_of(sparse_matrices(exact_entry), singleton_matrices(exact_entry)), data=st.data())
def test_sparse_elimination_matches_dense_exact(rows, data):
    a = M(rows)
    red, pivots = rref(a)
    assert (list(red.entries), pivots) == dense_rref(EXACT, a.entries)
    assert nullspace(a) == dense_nullspace(EXACT, a.entries, a.cols)
    assert_kernel_rows_match_dense(EXACT, a.entries, a.cols)
    b = vec(EXACT, [data.draw(exact_entry) for _ in range(a.rows)])
    assert solve_linear(a, b) == dense_solve(EXACT, a.entries, b)
    assert Subspace.span(EXACT, a.entries, a.cols).basis == dense_span(EXACT, a.entries)


@settings(max_examples=150, deadline=None)
@given(rows=singleton_matrices(exact_entry))
def test_presolved_pivots_are_unit_rows_in_column_order(rows):
    sparse_rows = [_sparse_row(r) for r in M(rows).entries]
    singles = {c for r in sparse_rows if len(r) == 1 for c in r}
    pivots, reduced, rest = _rref_sparse(EXACT, sparse_rows, len(rows[0]))
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert len(reduced) == len(pivots) and not any(rest)
    assert singles <= set(pivots)
    for c, row in zip(pivots, reduced):
        if c in singles:
            assert row == {c: 1} and type(row[c]) is int


def test_a_singleton_cascade_needs_no_division():
    # {2: 3} clears column 2, which leaves {0: 5}, which leaves {3: 7}, which
    # leaves {1: -2}; a second singleton in column 2 and a zero row are left over
    divisions = []

    class Counting(ExactBackend):
        def div(self, a, b):
            divisions.append((a, b))
            return super().div(a, b)

    rows = [{0: -4, 3: 7}, {2: -9}, {2: 2, 0: 5}, {}, {3: 6, 1: -2}, {2: 3}]
    pivots, reduced, rest = _rref_sparse(Counting(), rows, 4)
    assert pivots == (0, 1, 2, 3)
    assert reduced == [{0: 1}, {1: 1}, {2: 1}, {3: 1}] and rest == [{}, {}]
    assert divisions == []


@settings(max_examples=150, deadline=None)
@given(rows=sparse_matrices(complex_entry), data=st.data())
def test_sparse_elimination_matches_dense_complex(rows, data):
    a = Matrix.from_rows(CB, rows)
    red, pivots = rref(a)
    want, want_pivots = dense_rref(CB, a.entries)
    assert pivots == want_pivots
    assert list(red.entries) == want
    assert nullspace(a) == dense_nullspace(CB, a.entries, a.cols)
    assert_kernel_rows_match_dense(CB, a.entries, a.cols)
    b = vec(CB, [data.draw(complex_entry) for _ in range(a.rows)])
    assert solve_linear(a, b) == dense_solve(CB, a.entries, b)
    assert Subspace.span(CB, a.entries, a.cols).basis == dense_span(CB, a.entries)


@settings(max_examples=50, deadline=None)
@given(rows=sparse_matrices(exact_entry))
def test_rank_and_nullity_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    a = M(rows)
    s = sympy.Matrix([[sympy.Rational(x.real.numerator, x.real.denominator) + sympy.I * sympy.Rational(x.imag.numerator, x.imag.denominator) for x in r] for r in a.entries])
    assert rank(a) == s.rank()
    assert len(nullspace(a)) == len(s.nullspace())


def test_complex_span_drops_pivot_row_below_tolerance():
    # the first pivot row is reduced to entries below the tolerance by the
    # second pivot; the dense reference drops it, and so must the span
    rows = [[1e-09j, 1j], [3.0000000000000004e-09j, 3j]]
    want = dense_span(CB, Matrix.from_rows(CB, rows).entries)
    got = Subspace.span(CB, rows, 2)
    assert len(want) == 1
    assert got.basis == want


def in_span(basis, v):
    """Whether v is a combination of the basis rows: A x = v is consistent for
    the matrix A whose columns are the rows."""
    if not basis:
        return vec_is_zero(EXACT, vec(EXACT, v))
    return solve_linear(Matrix(EXACT, tuple(zip(*basis))), v) is not None


@settings(max_examples=150, deadline=None)
@given(rows=sparse_matrices(exact_entry), data=st.data())
def test_contains_and_intersect_match_definitions(rows, data):
    n = len(rows[0])
    u = Subspace.span(EXACT, rows, n)
    more = [[data.draw(exact_entry) for _ in range(n)] for _ in range(data.draw(st.integers(0, 4)))]
    w = Subspace.span(EXACT, more + rows[: data.draw(st.integers(0, len(rows)))], n)
    for v in more + [[data.draw(exact_entry) for _ in range(n)]]:
        assert u.contains(v) == in_span(u.basis, vec(EXACT, v))
    meet = u.intersect(w)
    assert meet.dim == u.dim + w.dim - u.sum_with(w).dim
    assert all(in_span(u.basis, b) and in_span(w.basis, b) for b in meet.basis)
    assert meet == w.intersect(u)


def test_contains_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(ValueError, match="ambient dimension"):
        Subspace.span(EXACT, [[1, 0, 0]], 3).contains([1, 0])


def test_complex_subspace_equality_is_mutual_containment():
    # the echelon bases differ in an entry below the tolerance
    a, b = Subspace.span(CB, [(1, 1e-12)], 2), Subspace.span(CB, [(1, 0)], 2)
    assert a.basis != b.basis
    assert a == b
    assert a != Subspace.span(CB, [(1, 1e-6)], 2)


def test_complex_contains_agrees_with_span():
    # v differs from 100 (1, 1) by 2e-8, above the tolerance in absolute terms
    # but 2e-10 relative to v; span pivots on v and leaves a remainder below
    # the tolerance, so v adds no dimension and contains says so
    u, v = Subspace.span(CB, [(1, 1)], 2), (100, 100 + 2e-8)
    assert Subspace.span(CB, [*u.basis, v], 2).dim == 1
    assert u.contains(v)
    assert not u.contains((100, 100 + 2e-6))


# -- no float leaks out of exact linear algebra ------------------------------------


def scalars_of(obj):
    """Every scalar inside nested tuples, lists, Matrices and Subspaces."""
    if isinstance(obj, Matrix):
        obj = obj.entries
    elif isinstance(obj, Subspace):
        obj = obj.basis
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from scalars_of(x)
    else:
        yield obj


def assert_no_float(*results):
    for r in results:
        for x in scalars_of(r):
            assert type(x) in (int, Fraction, Exact), repr(x)


@settings(max_examples=100, deadline=None)
@given(rows=sparse_matrices(exact_entry), data=st.data())
def test_exact_results_hold_no_float(rows, data):
    a = M(rows)
    red, _ = rref(a)
    b = vec(EXACT, [data.draw(exact_entry) for _ in range(a.rows)])
    x = solve_linear(a, b)
    s = Subspace.span(EXACT, a.entries, a.cols)
    v = vec(EXACT, [data.draw(exact_entry) for _ in range(a.cols)])
    s.contains(v)
    assert_no_float(red, nullspace(a), x or (), s, s.intersect(Subspace.span(EXACT, [v, *red.entries], a.cols)))
    n = data.draw(st.integers(1, 4))
    square = M([[data.draw(exact_entry) for _ in range(n)] for _ in range(n)])
    assert_no_float(minimal_polynomial(square))
    # derivations of a random antisymmetric product table on an even space,
    # skew for a random symmetric form as well
    space = SuperSpace.make([f"E{i}" for i in range(n)])
    alg = LieSuperalgebra(space, EXACT, data.draw(tables(space, exact_entry.map(EXACT.coerce))))
    form = BilinearForm(space, EXACT, "even", M(data.draw(grams(EXACT, space, "even", exact_entry))))
    for kind in ("all", "skew", "inner"):
        assert_no_float(derivation_space(alg, kind, form).basis)


def test_scaled_pivot_row_keeps_integral_values_as_int():
    # 1/2 X + 3/2 Y scaled by the inverse 2 is X + 3Y, held as ints, while a
    # non-integral result stays a Fraction
    pivots, reduced, _ = _rref_sparse(EXACT, [{0: Fraction(1, 2), 1: Fraction(3, 2), 2: Fraction(1, 3)}], 3)
    assert pivots == (0,) and reduced == [{0: 1, 1: 3, 2: Fraction(2, 3)}]
    assert [type(x) for x in reduced[0].values()] == [int, int, Fraction]



# -- products with a form or a matrix: dot skips exact zeros on the exact backend only


def reference_dot(u, v):
    """dot as it was before it skipped exact-zero factors: every product, in order."""
    acc = None
    for a, b in zip(u, v):
        acc = a * b if acc is None else acc + a * b
    return acc


def dense_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), 0)


EXACT_ENTRIES = [0, 0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-7, 2), Exact(1, 2), Exact(Fraction(1, 2), -1)]
COMPLEX_ENTRIES = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1.5 + 0j, 2.25j]
COMPLEX_ENTRIES += [complex(-0.0, 3.0), 1e-300 + 0j, complex(1e300, -1e300), complex(1e308, 0.0), -3.0 - 0.5j]


@st.composite
def form_products(draw, bk, entries):
    """(n x n Gram rows, up to three vectors of length n, n x m rows), entries
    drawn from entries; the Gram matrix is symmetric."""
    entry = st.sampled_from(entries)
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    gram = draw(grams(bk, SuperSpace.make([f"E{i}" for i in range(n)]), "even", entry))
    vectors = [tuple(draw(entry) for _ in range(n)) for _ in range(draw(st.integers(0, 3)))]
    other = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(n))
    return gram, vectors, other


def outcomes(**products):
    """{name: value, or (exception type, message)} of the given thunks."""
    out = {}
    for name, f in products.items():
        try:
            out[name] = f()
        except Exception as exc:
            out[name] = (type(exc), str(exc))
    return out


def library_products(bk, gram, vectors, other):
    """apply, the matrix product, value, restrict and the orthogonal complement
    of the span of the vectors, as the library computes them."""
    n = len(gram)
    g = Matrix(bk, gram)
    labels = [f"E{i}" for i in range(n)]
    form = BilinearForm(SuperSpace.make(labels), bk, "even", g)
    q = QuadraticAlgebra(LieSuperalgebra.abelian(labels, backend=bk), form)
    u, v = (vectors + [gram[0], gram[-1]])[:2]
    return outcomes(
        apply=lambda: [g.apply(w) for w in vectors],
        mul=lambda: (g * Matrix(bk, other)).entries,
        value=lambda: form.value(u, v),
        restrict=lambda: restrict(form, vectors).entries,
        complement=lambda: orthogonal_complement(q, Subspace.span(bk, vectors, n)).basis,
    )


def defined_products(bk, gram, vectors, other, dot):
    """The same products from their definitions, every sum taken by dot."""
    n = len(gram)

    def apply(w):
        return tuple(dot(r, w) for r in gram)

    def complement():
        s = Subspace.span(bk, vectors, n)
        if rank(Matrix(bk, gram)) < n:
            raise StructureError("orthogonal complement needs a non-degenerate form")
        if not s.dim:
            return Subspace.full(bk, n).basis
        return _span_rows(bk, _nullspace_rows(bk, [_sparse_row(apply(b)) for b in s.basis], n), n).basis

    u, v = (vectors + [gram[0], gram[-1]])[:2]
    return outcomes(
        apply=lambda: [apply(w) for w in vectors],
        mul=lambda: tuple(tuple(dot(r, c) for c in zip(*other)) for r in gram),
        value=lambda: dot(u, apply(v)),
        restrict=lambda: tuple(tuple(dot(a, apply(b)) for b in vectors) for a in vectors),
        complement=complement,
    )


@settings(max_examples=150, deadline=None)
@given(case=form_products(EXACT, EXACT_ENTRIES))
def test_exact_form_products_match_dense_sums(case):
    # skipping exact-zero products leaves every exact value as the dense sum has it
    assert library_products(EXACT, *case) == defined_products(EXACT, *case, dense_dot)


@settings(max_examples=150, deadline=None)
@given(case=form_products(complex_backend(), COMPLEX_ENTRIES))
def test_complex_form_products_keep_every_float_product(case):
    # on the complex backend each sum keeps its zero products: the same floats,
    # signed zeros, infs and nans as the sum over every product
    bk = complex_backend()
    got, want = library_products(bk, *case), defined_products(bk, *case, reference_dot)
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


def shear(n, i, j, c):
    """I + c E_ij (i != j): an integer unimodular matrix, inverse I - c E_ij."""
    rows = [[int(r == s) for s in range(n)] for r in range(n)]
    rows[i][j] = c
    return M(rows)


@st.composite
def exact_squares(draw):
    """An exact n x n matrix, n <= 5, of int, Fraction and Gaussian entries;
    in half of the draws its strictly upper triangular part, conjugated by a
    product of integer shears."""
    n = draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from(EXACT_ENTRIES)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        return M(rows)
    a = M([[x if j > i else 0 for j, x in enumerate(r)] for i, r in enumerate(rows)])
    # one shear per off-diagonal place, lower ones first: U = R L
    for i, j in sorted(((i, j) for i in range(n) for j in range(n) if i != j), key=lambda p: p[0] < p[1]):
        c = draw(st.integers(-2, 2))
        a = shear(n, i, j, c) * a * shear(n, i, j, -c)
    return a


@settings(max_examples=200, deadline=None)
@given(exact_squares())
def test_eigen_nilpotent_is_a_vanishing_power(a):
    # the verdict read off the minimal polynomial against A^n by repeated products
    power = Matrix.identity(EXACT, a.rows)
    for _ in range(a.rows):
        power = power * a
    assert eigen_structure(a).is_nilpotent == power.is_zero()

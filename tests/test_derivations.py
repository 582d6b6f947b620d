from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liequad import catalog
from liequad.core import LieSuperalgebra, StructureError
from liequad.derivations import (
    derivation_space,
    is_derivation,
    is_inner,
    skew_derivation_family_g2n2,
)
from liequad.linalg import Matrix, Subspace
from liequad.scalars import EXACT, complex_backend


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
    fam = skew_derivation_family_g2n2(n)
    q = catalog.build("g2n2", n=n)
    generic = derivation_space(q.algebra, "skew", q.form)
    assert fam.dim == n * n + 2 * n == generic.dim
    assert fam.span() == generic.span()


def test_g2n2_family_kills_x0():
    fam = skew_derivation_family_g2n2(2)
    ix = fam.algebra.space.index("X0")
    for m in fam.basis:
        assert all(EXACT.is_zero(x) for x in m.col(ix))


def test_g2n2_n1_matches_diamond_count():
    assert skew_derivation_family_g2n2(1).dim == 3


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

import pytest

from liequad import catalog
from liequad.core import StructureError
from liequad.derivations import (
    derivation_space,
    is_derivation,
    is_inner,
    skew_derivation_family_g2n2,
)
from liequad.linalg import Matrix, Subspace
from liequad.scalars import EXACT


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

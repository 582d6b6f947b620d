import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liequad import catalog, data_file
from liequad.algfile import parse
from liequad.core import (
    BilinearForm,
    LieSuperalgebra,
    QuadraticAlgebra,
    StructureError,
    _graded_parts,
    center,
    derived_subalgebra,
)
from liequad.derivations import derivation_space
from liequad.extensions import Cocycle2, direct_sum, double_extension_1d, t_star_extension
from liequad.linalg import Matrix, Subspace, vec_add
from liequad.morphisms import (
    GradedLinearMap,
    _central_core,
    check_sp2_lemma,
    decomposability_via_center,
    fingerprint,
    fingerprints_distinguish,
    verify_decomposition,
    verify_homomorphism,
    verify_i_isomorphism,
    verify_isomorphism,
)
from liequad.scalars import EXACT, complex_backend

from helpers import basis_vector, to_backend


def identity_map(q):
    return GradedLinearMap.build(
        q.algebra.space, q.algebra.space, Matrix.identity(q.backend, q.dim)
    )


def test_identity_is_isomorphism():
    g4 = catalog.build("g4")
    assert verify_isomorphism(identity_map(g4), g4.algebra, g4.algebra).ok


def test_swap_p_q_fails_on_xp():
    g4 = catalog.build("g4")
    images = {"X": {"X": 1}, "P": {"Q": 1}, "Q": {"P": 1}, "Z": {"Z": 1}}
    a = GradedLinearMap.from_images(g4.algebra.space, g4.algebra.space, images, EXACT)
    rep = verify_homomorphism(a, g4.algebra, g4.algebra)
    assert not rep.ok
    assert any(c.name == "homomorphism(X,P)" for c in rep.failures)


def test_graded_map_rejects_parity_mixing():
    gs = catalog.build("gs4_1")
    with pytest.raises(StructureError):
        GradedLinearMap.from_images(
            gs.algebra.space, gs.algebra.space, {"X0": {"X1": 1}}, EXACT
        )


def test_graded_map_rejects_an_unknown_label():
    # an unknown source label raises as an unknown target label does, instead
    # of being dropped
    sp = catalog.build("g4").algebra.space
    for images in ({"X": {"X": 1}, "W": {"Z": 5}}, {"X": {"W": 1}}):
        with pytest.raises(KeyError, match="^\"unknown basis label 'W'\"$"):
            GradedLinearMap.from_images(sp, sp, images, EXACT)


def test_isometry_failure_on_scaled_gram():
    g4 = catalog.build("g4")
    scaled_form = to_backend(g4.form, EXACT)
    from liequad.core import BilinearForm, QuadraticAlgebra

    doubled = BilinearForm(
        g4.algebra.space, EXACT, "even", g4.form.gram.scale(2)
    )
    tgt = QuadraticAlgebra.build(g4.algebra, doubled)
    rep = verify_i_isomorphism(identity_map(g4), g4, tgt)
    iso_checks = [c for c in rep.checks if c.name == "isometry"]
    assert iso_checks and not iso_checks[0].ok
    assert rep.checks[0].ok  # still a homomorphism


def test_noninvertible_map_fails():
    g4 = catalog.build("g4")
    a = GradedLinearMap.build(g4.algebra.space, g4.algebra.space, Matrix.zeros(EXACT, 4, 4))
    rep = verify_isomorphism(a, g4.algebra, g4.algebra)
    assert any(c.name == "invertibility" and not c.ok for c in rep.checks)


# -- decomposability ---------------------------------------------------------------


def test_diamond_has_no_central_witness():
    assert decomposability_via_center(catalog.build("g4")) is None


def test_inner_extension_witness():
    g4 = catalog.build("g4")
    # D(x,y,z) with (x,y,z) = (1, 2, -1) is ad(X - 2P - Q), an inner derivation
    d = Matrix.from_rows(
        EXACT, [[0, 0, 0, 0], [2, 1, 0, 0], [-1, 0, -1, 0], [0, 1, -2, 0]]
    )
    ext = double_extension_1d(g4, d)
    w = decomposability_via_center(ext)
    assert w is not None
    assert w.report.ok
    # u = -e + X - 2P - Q and f both lie in the witness's center
    u = [EXACT.coerce(v) for v in (-1, 1, -2, -1, 0, 0)]
    assert w.center.contains(u)
    assert w.center.contains(basis_vector(ext.algebra.space, EXACT, "f"))


def test_odd_symplectic_pair_is_a_central_witness():
    # the even center span{Z} of g4 + an abelian odd plane is isotropic, so
    # the witness is the odd pair F, G with B(F,G) = 1
    plane = LieSuperalgebra.abelian([], ["F", "G"])
    q = direct_sum(catalog.build("g4"), QuadraticAlgebra.build(plane, BilinearForm.build(plane.space, {("F", "G"): 1})))
    w = decomposability_via_center(q)
    assert w is not None and w.report.ok
    assert [q.algebra.format_vector(v) for v in w.core.basis] == ["F", "G"]
    assert [q.algebra.format_vector(v) for v in w.complement.basis] == ["X", "P", "Q", "Z"]


def test_tstar_heisenberg_witness_value():
    h3 = catalog.base("g3_1")
    th = Cocycle2.build(h3, {("X", "Y"): {"Z": 1}, ("Y", "Z"): {"X": 1}, ("Z", "X"): {"Y": 1}})
    q = t_star_extension(h3, th)
    w = decomposability_via_center(q)
    assert w is not None and w.core.dim == 1
    wv = w.core.basis[0]
    assert q.algebra.format_vector(wv) == "Z - Z*"
    assert q.form.value(wv, wv) == EXACT.coerce(-2)


def test_gram_rank_is_computed_once_per_form(monkeypatch):
    # verify_form, orthogonal_complement and the central-witness test each ask
    # whether the form is non-degenerate; its Gram matrix is ranked only once
    import liequad.core as core

    ranked = []  # the input rows of each elimination in core, as given
    rref = core._rref_sparse
    monkeypatch.setattr(core, "_rref_sparse", lambda bk, rows, n: ranked.append([dict(r) for r in rows]) or rref(bk, rows, n))
    h3 = catalog.base("g3_1")
    th = Cocycle2.build(h3, {("X", "Y"): {"Z": 1}, ("Y", "Z"): {"X": 1}, ("Z", "X"): {"Y": 1}})
    q = t_star_extension(h3, th)
    assert core.verify_form(q.algebra, q.form).ok
    core.orthogonal_complement(q, center(q.algebra))
    assert decomposability_via_center(q) is not None
    assert sum(rows == [dict(r) for r in q.form.rows] for rows in ranked) == 1


def test_verify_decomposition_trivial_split():
    g4 = catalog.build("g4")
    whole = Subspace.full(EXACT, 4)
    zero = Subspace.zero(EXACT, 4)
    assert verify_decomposition(g4, whole, zero).ok


def test_verify_decomposition_bad_split():
    g4 = catalog.build("g4")
    s1 = Subspace.span(
        EXACT,
        [basis_vector(g4.algebra.space, EXACT, "X"), basis_vector(g4.algebra.space, EXACT, "Z")],
        4,
    )
    s2 = Subspace.span(
        EXACT,
        [basis_vector(g4.algebra.space, EXACT, "P"), basis_vector(g4.algebra.space, EXACT, "Q")],
        4,
    )
    rep = verify_decomposition(g4, s1, s2)
    assert not rep.ok
    assert any(c.name == "ideal(s2)" and not c.ok for c in rep.checks)


def test_two_step_family_splitting():
    # the dimension-8 member splits as span{e,X1,Y1,X0+f} + span{e-Y0,X2,Y2,X0}
    q = catalog.build("g2n2", n=2)
    ix = q.algebra.space.index
    d = Matrix.zeros(EXACT, 6, 6).entries
    d = [list(r) for r in d]
    d[ix("X1")][ix("X1")] = EXACT.one
    d[ix("Y1")][ix("Y1")] = -EXACT.one
    ext = double_extension_1d(q, Matrix(EXACT, tuple(tuple(r) for r in d)))
    sp = ext.algebra.space
    bv = lambda l: basis_vector(sp, EXACT, l)

    def combo(**terms):
        v = [EXACT.zero] * ext.dim
        for l, coeff in terms.items():
            v[sp.index(l)] = EXACT.coerce(coeff)
        return tuple(v)

    s1 = Subspace.span(
        EXACT, [bv("e"), bv("X1"), bv("Y1"), combo(X0=1, f=1)], ext.dim
    )
    s2 = Subspace.span(
        EXACT, [combo(e=1, Y0=-1), bv("X2"), bv("Y2"), bv("X0")], ext.dim
    )
    assert verify_decomposition(ext, s1, s2).ok


# -- fingerprints -------------------------------------------------------------------


def test_fingerprint_odd4_pair_not_distinguished():
    a = catalog.build("go4_1").algebra
    b = catalog.build("go4_2").algebra
    fa, fb = fingerprint(a), fingerprint(b)
    assert fa.derived_dims == fb.derived_dims
    assert not fingerprints_distinguish(a, b)


def test_fingerprint_distinguishes_by_nilpotency():
    a = catalog.build("g6_1").algebra
    b = catalog.build("g6_2").algebra
    assert fingerprint(a).nilpotent and not fingerprint(b).nilpotent
    assert fingerprints_distinguish(a, b)


def test_fingerprint_self():
    a = catalog.build("gs6_3").algebra
    assert not fingerprints_distinguish(a, a)


def test_fingerprint_invariant_under_isomorphism():
    # scaled-cocycle extensions are isomorphic but not isometric
    h3 = catalog.base("g3_1")
    th = Cocycle2.build(h3, {("X", "Y"): {"Z": 1}, ("Y", "Z"): {"X": 1}, ("Z", "X"): {"Y": 1}})
    src = t_star_extension(h3, th)
    tgt = t_star_extension(h3, th.scaled(7))
    assert fingerprint(src) == fingerprint(tgt)


def test_fingerprint_carries_skew_dim_outside_comparison():
    q = catalog.build("g4")
    fp = fingerprint(q)
    assert fp.skew_der_dim == 3
    assert fingerprint(q.algebra).skew_der_dim is None
    assert fp == fingerprint(q.algebra)  # comparison field set stays bracket-defined


@pytest.mark.parametrize("id", ["g4", "osp12", "g6_2", "go6_7", "gs6_3"])
def test_fingerprint_derived_center_dim_is_that_of_g_g(id):
    # osp12 is perfect, so its derived series stops at g itself
    alg = catalog.build(id).algebra
    expected = derived_subalgebra(alg).intersect(center(alg)).dim
    assert fingerprint(alg, with_derivations=False).derived_center_dim == expected


def test_gs6_2_same_fingerprint_across_lambda():
    f1 = fingerprint(catalog.build("gs6_2", **{"lambda": 1}).algebra)
    f2 = fingerprint(catalog.build("gs6_2", **{"lambda": 2}).algebra)
    assert f1 == f2
    ident = identity_map(catalog.build("gs6_2", **{"lambda": 1}))
    q = catalog.build("gs6_2", **{"lambda": 1})
    assert verify_i_isomorphism(ident, q, q).ok


# -- the rank-two lemma ----------------------------------------------------------------


def sp2_of(a, b, c):
    return Matrix.from_rows(EXACT, [[a, b], [c, -a]])


def test_sp2_lemma_basic_pair():
    a = sp2_of(Fraction(1, 2), 0, 0)
    b = sp2_of(0, 1, 0)
    assert check_sp2_lemma(a, b).ok


def test_sp2_lemma_rejects_wrong_commutator():
    a = sp2_of(Fraction(1, 2), 0, 0)
    b = Matrix.from_rows(EXACT, [[0, 0], [1, 0]])  # [A,B] = -B
    with pytest.raises(StructureError):
        check_sp2_lemma(a, b)


def test_sp2_lemma_rejects_zero_b():
    with pytest.raises(StructureError):
        check_sp2_lemma(sp2_of(1, 0, 0), Matrix.zeros(EXACT, 2, 2))


def test_sp2_lemma_200_random_solutions():
    # sample B along random nilpotent directions, solve [A,B] = B for A
    rng = random.Random(11)
    from liequad.linalg import solve_linear

    count = 0
    while count < 200:
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if x == 0 and y == 0:
            continue
        b = sp2_of(x * y, -x * x, y * y)  # nonzero nilpotent direction
        rows = []
        rhs = []
        bb = b.entries
        # unknown A = [[p, q], [r, -p]]; [A,B] - B = 0 entrywise
        for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            coeff_p = {(0, 0): 0, (1, 1): 0, (0, 1): 2 * _f(bb[0][1]), (1, 0): -2 * _f(bb[1][0])}[(i, j)]
            coeff_q = {(0, 0): _f(bb[1][0]), (0, 1): -2 * _f(bb[0][0]), (1, 0): 0, (1, 1): -_f(bb[1][0])}[(i, j)]
            coeff_r = {(0, 0): -_f(bb[0][1]), (0, 1): 0, (1, 0): 2 * _f(bb[0][0]), (1, 1): _f(bb[0][1])}[(i, j)]
            rows.append([coeff_p, coeff_q, coeff_r])
            rhs.append(_f(bb[i][j]))
        sol = solve_linear(Matrix.from_rows(EXACT, rows), rhs)
        assert sol is not None
        p, qv, r = (s.real for s in sol)
        # [A + tB, B] = [A, B], so adding a random multiple of B sweeps solutions
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a = sp2_of(p + t * x * y, qv - t * x * x, r + t * y * y)
        rep = check_sp2_lemma(a, b)
        assert rep.ok
        count += 1


def _f(x):
    return x.real


def test_i_isomorphism_report_subsumes_isomorphism_report():
    q = catalog.build("g4")
    a = identity_map(q)
    iso_names = {c.name for c in verify_isomorphism(a, q.algebra, q.algebra).checks}
    i_iso_names = {c.name for c in verify_i_isomorphism(a, q, q).checks}
    assert iso_names <= i_iso_names
    assert "isometry" in i_iso_names


def test_whole_space_center_is_not_a_witness():
    # the 1+1 abelian odd-quadratic algebra is all center with a non-vanishing
    # form, but the only graded non-degenerate central subspace is everything:
    # the trivial splitting g = g + 0 must not count
    q = catalog.build("go2", **{"lambda": 0})
    assert decomposability_via_center(q) is None


def test_huge_exact_residuals_are_reported():
    # coefficients beyond any double: the worst residual is picked exactly,
    # not through a float conversion that overflows
    q = catalog.build("go2", **{"lambda": 1})
    s = 10**400
    a = GradedLinearMap.from_images(q.algebra.space, q.algebra.space, {"X0": {"X0": s}, "X1": {"X1": s}}, EXACT)
    rep = verify_i_isomorphism(a, q, q)
    assert {c.name: c.residual for c in rep.failures} == {
        "homomorphism(X1,X1)": str(s - s * s),
        "isometry": str(s * s - 1),
    }


# -- dim Der_a read off the Der basis ---------------------------------------------------


def assert_skew_dim_is_that_of_the_solver(q):
    fp = fingerprint(q)
    assert fp.der_dim == derivation_space(q.algebra, "all").dim
    assert fp.skew_der_dim == derivation_space(q.algebra, "skew", q.form).dim


@pytest.mark.parametrize("id", [e.id for e in catalog.entries()])
def test_fingerprint_skew_dim_matches_the_skew_solve(id):
    assert_skew_dim_is_that_of_the_solver(catalog.build(id))


@pytest.mark.parametrize("n", range(1, 7))
def test_fingerprint_skew_dim_of_the_g2n2_family(n):
    q = catalog.build("g2n2", n=n)
    assert_skew_dim_is_that_of_the_solver(q)
    assert fingerprint(q).skew_der_dim == n * n + 2 * n


CB = complex_backend(1e-9)
COEFF = {
    "exact": st.one_of(st.just(0), st.integers(-2, 2), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))),
    "complex": st.one_of(st.just(0j), st.builds(complex, st.integers(-2, 2), st.integers(-1, 1))),
}


@settings(max_examples=60, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_fingerprint_skew_dim_on_random_quadratic_algebras(backend, data):
    # a catalog entry at a sampled parameter, or the T*-extension of a random
    # two-step nilpotent algebra ([g,g] central, so Jacobi holds)
    if data.draw(st.booleans()):
        entry = catalog.get(data.draw(st.sampled_from([e.id for e in catalog.entries()])))
        q = catalog.build(entry.id, backend=backend, **data.draw(st.sampled_from(entry.sample_grid(backend))))
    else:
        xs = [f"X{i}" for i in range(data.draw(st.integers(1, 3)))]
        zs = [f"Z{i}" for i in range(data.draw(st.integers(0, 2)))]
        coeff = COEFF[backend.name].map(backend.coerce)
        brackets = {
            (a, b): dict(zip(zs, data.draw(st.tuples(*[coeff] * len(zs)))))
            for i, a in enumerate(xs)
            for b in xs[i + 1 :]
        }
        q = t_star_extension(LieSuperalgebra.build(xs + zs, (), brackets, backend))
    assert_skew_dim_is_that_of_the_solver(q)


def test_fingerprint_solves_leibniz_once(monkeypatch):
    from liequad import morphisms

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return derivation_space(*args, **kwargs)

    monkeypatch.setattr(morphisms, "derivation_space", counted)
    for id in ("g4", "gs6_3", "go6_7", "osp12"):
        calls.clear()
        fingerprint(catalog.build(id))
        assert calls == [("all",)], id
    calls.clear()
    fingerprint(catalog.build("g4"), with_derivations=False)
    assert calls == []


# -- the central core: one scan against the parity-split search ---------------


def _parity_split_core(q, z):
    """The parity-split search of a central core, kept as the reference for
    `_central_core`; it also names the branch that answered."""
    alg, form = q.algebra, q.form
    bk = alg.backend
    zev, zod = _graded_parts(alg, z)

    if form.parity == "even":
        ge = [[form.value(u, v) for v in zev.basis] for u in zev.basis]
        for i in range(len(zev.basis)):
            if not bk.is_zero(ge[i][i]):
                return [zev.basis[i]], "diagonal"
        for i in range(len(zev.basis)):
            for j in range(i + 1, len(zev.basis)):
                if not bk.is_zero(ge[i][j]):
                    return [vec_add(zev.basis[i], zev.basis[j])], "even pair"
        go = [[form.value(u, v) for v in zod.basis] for u in zod.basis]
        for i in range(len(zod.basis)):
            for j in range(i + 1, len(zod.basis)):
                if not bk.is_zero(go[i][j]):
                    return [zod.basis[i], zod.basis[j]], "odd pair"
        return None, None
    for u in zev.basis:
        for v in zod.basis:
            if not bk.is_zero(form.value(u, v)):
                return [u, v], "even/odd pair"
    return None, None


def _central_core_inputs():
    """(name, algebra) pairs: the catalog grids on both backends, the shipped
    files and their complex copies, twisted Heisenberg T*-extensions and one
    input per branch of the search."""
    for bk in (EXACT, complex_backend()):
        for entry in catalog.entries():
            for params in entry.sample_grid(bk):
                yield f"{entry.id}{params}/{bk.name}", QuadraticAlgebra.build(*entry.builder(bk, params))
    for line in ("backend exact\n", "backend complex\n"):
        for path in sorted(data_file(".").glob("*.alg")):
            af = parse(path.read_text().replace("backend exact\n", line))
            yield f"{path.name}/{af.algebra.backend.name}", QuadraticAlgebra.build(af.algebra, af.form)
    h3 = catalog.base("g3_1")
    for lam in (1, -1, 2, Fraction(1, 3), -7):
        th = Cocycle2.build(h3, {("X", "Y"): {"Z": lam}, ("Y", "Z"): {"X": lam}, ("Z", "X"): {"Y": lam}})
        yield f"tstar-heisenberg[{lam}]", t_star_extension(h3, th)
    plane = LieSuperalgebra.abelian([], ["X1", "Y1"])
    c02 = QuadraticAlgebra.build(plane, BilinearForm.build(plane.space, {("X1", "Y1"): 1}))
    yield "g4 + C^{0|2}", direct_sum(catalog.build("g4"), c02)
    yield "g6_3[mu=0]", catalog.build("g6_3", mu=0)
    yield "go6_0", catalog.build("go6_0")
    line = LieSuperalgebra.abelian(["e"])
    yield "C^{1|0}", QuadraticAlgebra.build(line, BilinearForm.build(line.space, {("e", "e"): 1}))


def test_central_core_scan_matches_the_parity_split_search():
    # one input per branch; C^{1|0} is spanned by its one central vector, so
    # the witness test turns the diagonal answer into a trivial splitting
    expected = {
        "tstar-heisenberg[1]": "diagonal",
        "g6_3[mu=0]": "even pair",
        "g4 + C^{0|2}": "odd pair",
        "go6_0": "even/odd pair",
        "C^{1|0}": "diagonal",
    }
    branch_of = {}
    for name, q in _central_core_inputs():
        z = center(q.algebra)
        want, branch_of[name] = _parity_split_core(q, z)
        assert _central_core(q, z) == want, name
        if name == "C^{1|0}":
            assert decomposability_via_center(q) is None
    assert {name: branch_of[name] for name in expected} == expected
    assert set(branch_of.values()) == {"diagonal", "even pair", "odd pair", "even/odd pair", None}

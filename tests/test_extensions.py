import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liequad import catalog
from liequad.core import (
    BilinearForm,
    LieSuperalgebra,
    QuadraticAlgebra,
    StructureError,
    center,
    is_ideal,
    verify_jacobi,
)
from liequad.derivations import derivation_space
from liequad.extensions import (
    Cocycle2,
    _pairing_condition_failures,
    ExtensionError,
    SymPairing,
    _check_action,
    direct_sum,
    double_extension_1d,
    double_extension_general,
    star,
    sym_pairing_space,
    super_double_extension,
    t_star_extension,
    ts_star_extension,
)
from liequad.linalg import Matrix, Subspace, nullspace
from liequad.morphisms import GradedLinearMap, verify_i_isomorphism, verify_isomorphism
from liequad.scalars import EXACT, BackendMismatch, Exact, complex_backend

from helpers import basis_vector


def heisenberg_cocycle(lam):
    h3 = catalog.base("g3_1")
    return h3, Cocycle2.build(
        h3, {("X", "Y"): {"Z": lam}, ("Y", "Z"): {"X": lam}, ("Z", "X"): {"Y": lam}}
    )


# -- one-dimensional double extension ------------------------------------------


def test_double_1d_of_abelian3_is_g5():
    # the nilpotent map X2 -> T -> -Z2 -> 0 on the 3-dim abelian hyperbolic space
    ab = LieSuperalgebra.abelian(["X2", "T", "Z2"])
    form = BilinearForm.build(ab.space, {("X2", "Z2"): 1, ("T", "T"): 1})
    q = QuadraticAlgebra.build(ab, form)
    c = Matrix.from_rows(EXACT, [[0, 0, 0], [1, 0, 0], [0, -1, 0]])
    ext = double_extension_1d(q, c, ext_labels=("X1", "Z1"))
    g5 = catalog.build("g5")
    a = GradedLinearMap.from_images(
        ext.algebra.space, g5.algebra.space, {l: {l: 1} for l in ext.algebra.labels}, EXACT
    )
    assert verify_i_isomorphism(a, ext, g5).ok


def test_double_1d_zero_map_grows_center():
    q = catalog.build("g4")
    before = center(q.algebra).dim
    ext = double_extension_1d(q, Matrix.zeros(EXACT, 4, 4))
    after = center(ext.algebra).dim
    assert after == before + 2
    e = basis_vector(ext.algebra.space, EXACT, "e")
    assert all(
        EXACT.is_zero(x)
        for x in ext.algebra.bracket(e, basis_vector(ext.algebra.space, EXACT, "X"))
    )


def test_double_1d_inner_adx_central_element():
    q = catalog.build("g4")
    adx = q.algebra.ad(0)  # bracketing with X
    ext = double_extension_1d(q, adx)
    # u = -e + X is central and pairs with f by -1
    u = [-1, 1, 0, 0, 0, 0]
    assert center(ext.algebra).contains([EXACT.coerce(v) for v in u])
    f = basis_vector(ext.algebra.space, EXACT, "f")
    assert ext.form.value(tuple(EXACT.coerce(v) for v in u), f) == EXACT.coerce(-1)


def test_double_1d_structure():
    q = catalog.build("g5")
    d = Matrix.zeros(EXACT, 5, 5)
    ext = double_extension_1d(q, d)
    assert ext.dim == q.dim + 2
    f = basis_vector(ext.algebra.space, EXACT, "f")
    e = basis_vector(ext.algebra.space, EXACT, "e")
    assert ext.form.value(e, f) == EXACT.one
    assert center(ext.algebra).contains(f)


def test_double_1d_rejects_non_skew():
    q = catalog.build("g4")
    not_skew = Matrix.identity(EXACT, 4)
    with pytest.raises(ExtensionError):
        double_extension_1d(q, not_skew)


def test_double_1d_names_the_failing_action_check():
    # the one-dimensional extension checks psi(e) = d like every other action
    q = catalog.build("g4")  # basis X P Q Z, [X,P] = P, [X,Q] = -Q, [P,Q] = Z
    only_p = Matrix.from_rows(EXACT, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ExtensionError, match=r"^psi\(e\) is not a derivation of the core$"):
        double_extension_1d(q, only_p)
    scale_p_z = Matrix.from_rows(EXACT, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ExtensionError, match=r"^psi\(e\) is not skew for the core form$"):
        double_extension_1d(q, scale_p_z)
    with pytest.raises(ExtensionError, match=r"^psi\(X1\) is not skew for the core form$"):
        double_extension_1d(q, scale_p_z, ext_labels=("X1", "Z1"))


def c22():
    """C^{2|2}: the abelian core on P, Q (even) and X1, Y1 (odd) with
    B(P, Q) = B(X1, Y1) = 1."""
    alg = LieSuperalgebra.abelian(["P", "Q"], ["X1", "Y1"])
    return QuadraticAlgebra.build(alg, BilinearForm.build(alg.space, {("P", "Q"): 1, ("X1", "Y1"): 1}))


def zero_core():
    """The zero-dimensional quadratic algebra."""
    alg = LieSuperalgebra.abelian(())
    return QuadraticAlgebra.build(alg, BilinearForm.build(alg.space, {}))


def test_double_1d_of_c22_rebuilds_gs6_1():
    # D: P -> P, Q -> -Q, Y1 -> X1 on the mixed core; the extension pair is (X, Z)
    d = Matrix.from_rows(EXACT, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    ref = catalog.build("gs6_1")
    for q in (
        double_extension_1d(c22(), d, ("X", "Z")),
        double_extension_general(LieSuperalgebra.abelian(["X"]), c22(), [d]),
    ):
        assert q.algebra.space.dim_even == 4 and q.algebra.space.dim_odd == 2
        assert q.algebra.nz == ref.algebra.nz and q.form.gram == ref.form.gram


def test_double_extensions_of_c22_rebuild_gs6_2():
    entry = catalog.get("gs6_2")
    for params in entry.sample_grid(EXACT):
        lam = params["lambda"]
        d = Matrix.from_rows(EXACT, [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, lam, 0], [0, 0, 0, -lam]])  # diag(1, -1, lam, -lam)
        ref = catalog.build("gs6_2", **params)
        one = double_extension_1d(c22(), d, ("X", "Z"))
        general = double_extension_general(LieSuperalgebra.abelian(["X"]), c22(), [d])
        assert one.algebra.labels == ref.algebra.labels
        for q in (one, general):
            assert q.algebra.nz == ref.algebra.nz and q.form.gram == ref.form.gram


EVEN_FORM_SUPER = [e.id for e in catalog.entries() if e.form_parity == "even" and e.id.startswith(("gs", "osp"))]


@pytest.mark.parametrize("id", EVEN_FORM_SUPER)
def test_double_extension_of_every_even_form_super_entry(id):
    # each skew derivation of a non-abelian mixed core, and seeded combinations
    # of them, extends to a verified quadratic superalgebra
    rng = random.Random(id)
    g = LieSuperalgebra.abelian(["E"])
    for params in catalog.get(id).sample_grid(EXACT)[:2]:
        core = catalog.build(id, **params)
        basis = list(derivation_space(core.algebra, "skew", core.form).basis)
        combos = []
        for _ in range(5):
            m = Matrix.zeros(EXACT, core.dim, core.dim)
            for b in basis:
                m = m + b.scale(EXACT.coerce(rng.randint(-3, 3)))
            combos.append(m)
        for d in basis + combos:
            q = double_extension_general(g, core, [d])
            assert isinstance(q, QuadraticAlgebra) and q.verified.ok
            assert q.algebra.space.dim_odd == core.algebra.space.dim_odd


def test_double_extension_rejects_an_action_that_breaks_parity():
    # P -> X1, Y1 -> -Q is skew and, on an abelian core, a derivation, but it
    # is not even: the output's parity check refuses it
    d = Matrix.from_rows(EXACT, [[0, 0, 0, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(StructureError, match=r"^parity: \[A,P\] has a X1-component of the wrong parity$"):
        double_extension_general(LieSuperalgebra.abelian(["A"]), c22(), [d])


def test_double_extension_rejects_an_odd_form_core():
    # go2's form pairs X0 with X1, which the even form of the result cannot hold;
    # the core's form is checked before its action, zero or not
    go2 = catalog.build("go2")
    for d in (Matrix.zeros(EXACT, 2, 2), Matrix.from_rows(EXACT, [[1, 0], [0, -1]])):
        with pytest.raises(ExtensionError, match="^a double extension needs a core with an even form$"):
            double_extension_1d(go2, d)


def test_extend_checks_the_base_and_its_twist_once_for_every_constructor():
    # g must be even and theta or phi must belong to g, whichever constructor runs
    sup = catalog.build("gs4_1").algebra
    with pytest.raises(ExtensionError, match="^an extension requires a purely even algebra$"):
        t_star_extension(sup)
    with pytest.raises(ExtensionError, match="^an extension requires a purely even algebra$"):
        double_extension_general(sup, c22(), [Matrix.zeros(EXACT, 4, 4)] * 4)
    h3, th = heisenberg_cocycle(1)
    g3 = catalog.base("g3_2")
    with pytest.raises(ExtensionError, match="^theta is a cocycle of a different algebra$"):
        t_star_extension(g3, th)
    with pytest.raises(ExtensionError, match="^theta is a cocycle of a different algebra$"):
        double_extension_general(g3, zero_core(), [Matrix.zeros(EXACT, 0, 0)] * 3, th)
    ab2 = catalog.base("abelian", n=2)
    phi = SymPairing.zero(catalog.base("g2"))
    with pytest.raises(ExtensionError, match="^phi pairs the dual of a different algebra$"):
        ts_star_extension(ab2, phi)


# -- general double extension ----------------------------------------------------


def test_general_double_with_trivial_core_is_coadjoint_semidirect():
    g = catalog.base("g3_1")
    ext = double_extension_general(g, zero_core(), [Matrix.zeros(EXACT, 0, 0)] * 3)
    ref = t_star_extension(g, None)
    assert ext.algebra.c == ref.algebra.c
    assert ext.form.gram == ref.form.gram


@pytest.mark.parametrize("psi", [[Matrix.identity(EXACT, 5)], [], [Matrix.zeros(EXACT, 0, 0)] * 3])
def test_general_double_without_a_core_is_refused(psi):
    # no core is not the zero core: psi would go unread and T*(g) come back
    with pytest.raises(ExtensionError, match="^a double extension needs a core$"):
        double_extension_general(catalog.base("g3_1"), None, psi)


def test_general_double_rank1_matches_1d():
    # base ruled by a single generator acting by a skew derivation
    core = catalog.build("g4")
    d = core.algebra.ad(0)
    g1 = catalog.base("abelian", n=1)
    ext = double_extension_general(g1, core, [d])
    ref = double_extension_1d(core, d, ext_labels=("A1", "A1*"))
    # ref order: (A1, core..., A1*); ext order: (A1, core..., A1*)
    assert ext.algebra.labels == ref.algebra.labels
    assert ext.algebra.c == ref.algebra.c
    assert ext.form.gram == ref.form.gram


def test_general_double_zero_action_dim4():
    g1 = catalog.base("abelian", n=1)
    core_alg = LieSuperalgebra.abelian(["U", "V"])
    core_form = BilinearForm.build(core_alg.space, {("U", "V"): 1})
    core = QuadraticAlgebra.build(core_alg, core_form)
    ext = double_extension_general(g1, core, [Matrix.zeros(EXACT, 2, 2)])
    assert ext.dim == 4
    assert center(ext.algebra).dim == 4
    from liequad.morphisms import decomposability_via_center

    assert decomposability_via_center(ext) is not None


def test_general_double_rejects_bad_homomorphism():
    g = catalog.base("g2")  # [X,Y] = Y
    core_alg = LieSuperalgebra.abelian(["U", "V"])
    core_form = BilinearForm.build(core_alg.space, {("U", "V"): 1})
    core = QuadraticAlgebra.build(core_alg, core_form)
    # psi(X) = 0 but psi(Y) != 0 cannot be a homomorphism since [psi X, psi Y] = 0
    psi_y = Matrix.from_rows(EXACT, [[1, 0], [0, -1]])
    with pytest.raises(ExtensionError):
        double_extension_general(g, core, [Matrix.zeros(EXACT, 2, 2), psi_y])


# -- T*-extension -----------------------------------------------------------------


def test_tstar_heisenberg_cyclic_cocycle_is_quadratic_and_decomposable():
    h3, th = heisenberg_cocycle(1)
    assert th.is_cyclic()
    q = t_star_extension(h3, th)
    assert isinstance(q, QuadraticAlgebra)
    from liequad.morphisms import decomposability_via_center

    w = decomposability_via_center(q)
    assert w is not None
    assert w.report.ok


def test_tstar_duals_form_isotropic_abelian_ideal():
    g = catalog.base("g3_2")
    q = t_star_extension(g, None)
    alg = q.algebra
    duals = Subspace.span(
        EXACT, [basis_vector(alg.space, EXACT, star(l)) for l in ("X", "Y", "Z")], 6
    )
    assert is_ideal(alg, duals)
    for u in duals.basis:
        for v in duals.basis:
            assert EXACT.is_zero(q.form.value(u, v))
            assert all(EXACT.is_zero(x) for x in alg.bracket(u, v))


def test_tstar_zero_cocycle_matches_catalog_tables():
    for base_id, cat_id, kw in [
        ("g3_1", "g6_1", {}),
        ("g3_2", "g6_2", {}),
        ("g3_3", "g6_3", {"mu": "1/2"}),
    ]:
        g = catalog.base(base_id, **({"mu": "1/2"} if base_id == "g3_3" else {}))
        ext = t_star_extension(g, None)
        ref = catalog.build(cat_id, **kw)
        assert ext.algebra.labels == ref.algebra.labels
        assert ext.algebra.c == ref.algebra.c
        assert ext.form.gram == ref.form.gram


def test_tstar_scaled_cocycles_isomorphic():
    lam = Fraction(5)
    h3, th = heisenberg_cocycle(1)
    src = t_star_extension(h3, th)
    tgt = t_star_extension(h3, th.scaled(lam))
    images = {l: {l: 1} for l in ("X", "Y", "Z")}
    images.update({star(l): {star(l): lam} for l in ("X", "Y", "Z")})
    a = GradedLinearMap.from_images(src.algebra.space, tgt.algebra.space, images, EXACT)
    assert verify_isomorphism(a, src.algebra, tgt.algebra).ok


def test_tstar_non_cyclic_downgrades_with_warning():
    # theta(X,Y) = X* on the Heisenberg algebra is a 2-cocycle but not cyclic
    h3 = catalog.base("g3_1")
    th = Cocycle2.build(h3, {("X", "Y"): {"X": 1}})
    assert not th.is_cyclic()
    with pytest.warns(UserWarning):
        out = t_star_extension(h3, th)
    assert isinstance(out, LieSuperalgebra)
    assert verify_jacobi(out).ok


def test_cocycle_validation_rejects_non_cocycle():
    g = catalog.base("g3_2")
    with pytest.raises(ExtensionError):
        Cocycle2.build(g, {("Y", "Z"): {"X": 1}})


def test_a_cocycle_diagonal_is_refused_by_validate():
    # the label reader keeps theta(X, X); the antisymmetry rows of validate refuse it
    with pytest.raises(ExtensionError, match=r"^theta is not skew on \(X,X\)$"):
        Cocycle2.build(catalog.base("g3_1"), {("X", "X"): {"Y": 1}})


# -- super double extension --------------------------------------------------------


def odd_core(labels=("F1", "F2"), backend=EXACT):
    """The purely odd quadratic core span{F, G} with B(F, G) = 1."""
    alg = LieSuperalgebra.abelian((), labels, backend)
    return QuadraticAlgebra.build(alg, BilinearForm.build(alg.space, {tuple(labels): 1}, "even", backend))


def sde_nilpotent():
    g1 = catalog.base("abelian", n=1)
    psi = Matrix.from_rows(EXACT, [[0, 1], [0, 0]])
    return super_double_extension(g1, odd_core(), [psi])


def test_symplectic_space_rejects_both_orientations():
    # the mirror of (F,G) on a purely odd space is fixed by antisymmetry;
    # giving it too is an error
    space = LieSuperalgebra.abelian((), ["F", "G"]).space
    with pytest.raises(StructureError, match=r"both orientations of form pair \(G,F\)"):
        BilinearForm.build(space, {("F", "G"): 1, ("G", "F"): 2})
    assert BilinearForm.build(space, {("G", "F"): 2}).gram.entries == ((0, -2), (2, 0))


def test_sde_nilpotent_matches_gs4_1():
    q = sde_nilpotent()
    tgt = catalog.build("gs4_1")
    a = GradedLinearMap.from_images(
        q.algebra.space,
        tgt.algebra.space,
        {"A1": {"Y0": "-1/2"}, "A1*": {"X0": -2}, "F1": {"X1": 1}, "F2": {"Y1": 1}},
        EXACT,
    )
    assert verify_i_isomorphism(a, q, tgt).ok


def test_sde_semisimple_matches_gs4_2():
    g1 = catalog.base("abelian", n=1)
    psi = Matrix.from_rows(EXACT, [[1, 0], [0, -1]])
    q = super_double_extension(g1, odd_core(), [psi])
    tgt = catalog.build("gs4_2")
    a = GradedLinearMap.from_images(
        q.algebra.space,
        tgt.algebra.space,
        {"A1": {"Y0": 1}, "A1*": {"X0": 1}, "F1": {"X1": 1}, "F2": {"Y1": 1}},
        EXACT,
    )
    assert verify_i_isomorphism(a, q, tgt).ok


def test_sde_trivial_action_is_abelian_with_hyperbolic_form():
    g1 = catalog.base("abelian", n=1)
    q = super_double_extension(g1, odd_core(), [Matrix.zeros(EXACT, 2, 2)])
    assert all(
        all(EXACT.is_zero(x) for x in row) for block in q.algebra.c for row in block
    )
    assert q.form.value(
        basis_vector(q.algebra.space, EXACT, "A1"),
        basis_vector(q.algebra.space, EXACT, "A1*"),
    ) == EXACT.one


def test_sde_internal_pairing_symmetric():
    q = sde_nilpotent()
    alg = q.algebra
    ne = alg.space.dim_even
    for a in range(ne, alg.dim):
        for b in range(ne, alg.dim):
            assert alg.bracket_basis(a, b) == alg.bracket_basis(b, a)


def test_sde_rejects_non_skew_action():
    g1 = catalog.base("abelian", n=1)
    with pytest.raises(ExtensionError):
        super_double_extension(g1, odd_core(), [Matrix.identity(EXACT, 2)])


def test_sde_is_the_double_extension():
    # one constructor under two names: an even core is accepted under either
    assert super_double_extension is double_extension_general
    g1 = catalog.base("abelian", n=1)
    plane = LieSuperalgebra.abelian(["U", "V"])
    even_core = QuadraticAlgebra.build(plane, BilinearForm.build(plane.space, {("U", "V"): 1}))
    q = super_double_extension(g1, even_core, [Matrix.zeros(EXACT, 2, 2)])
    assert q.algebra.space.dim_odd == 0 and q.verified.ok


def test_sde_input_errors():
    g1 = catalog.base("abelian", n=1)
    zero = Matrix.zeros(EXACT, 2, 2)
    with pytest.raises(ExtensionError, match="psi needs one matrix per base generator"):
        super_double_extension(g1, odd_core(), [zero, zero])
    with pytest.raises(ExtensionError, match=r"psi\(A1\) is not a derivation of the core"):
        super_double_extension(g1, odd_core(), [Matrix.zeros(EXACT, 3, 3)])
    # an odd label equal to a dual label is the distinct-label rule of the output
    with pytest.raises(StructureError, match="basis labels must be distinct"):
        super_double_extension(g1, odd_core(("A1*", "G")), [zero])


# -- odd T*-extension ---------------------------------------------------------------


def test_tsstar_nonabelian2_forces_zero_pairing():
    g = catalog.base("g2")
    assert sym_pairing_space(g, cyclic=False) == []
    q = ts_star_extension(g, SymPairing.zero(g))
    alg = q.algebra
    ix = alg.space.index
    assert alg.bracket_basis(ix("X"), ix("Y"))[ix("Y")] == EXACT.one
    assert alg.bracket_basis(ix("X"), ix("Y*"))[ix("Y*")] == -EXACT.one
    assert alg.bracket_basis(ix("Y"), ix("Y*"))[ix("X*")] == EXACT.one
    assert q.form.parity == "odd"


def test_tsstar_abelian2_pairing_family_is_4_dimensional():
    ab2 = catalog.base("abelian", n=2)
    sols = sym_pairing_space(ab2, cyclic=True)
    assert len(sols) == 4
    # the family (alpha, beta, gamma, lam):
    #   phi(A1*,A1*) = alpha A1 + beta A2, phi(A1*,A2*) = beta A1 + gamma A2,
    #   phi(A2*,A2*) = gamma A1 + lam A2
    vals = {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}
    got = set()
    for s in sols:
        alpha = s.phi[0][0][0]
        beta = s.phi[0][0][1]
        gamma = s.phi[0][1][1]
        lam = s.phi[1][1][1]
        assert s.phi[0][1][0] == beta
        assert s.phi[1][1][0] == gamma
        got.add(tuple(int(x.real) for x in (alpha, beta, gamma, lam)))
    assert got == vals


def test_tsstar_one_dim_gives_odd_family():
    g1 = catalog.base("abelian", n=1)
    phi = SymPairing.build(g1, {("A1", "A1"): {"A1": "1/2"}})
    q = ts_star_extension(g1, phi)
    ref = catalog.build("go2", **{"lambda": "1/2"})
    a = GradedLinearMap.from_images(
        q.algebra.space, ref.algebra.space, {"A1": {"X0": 1}, "A1*": {"X1": 1}}, EXACT
    )
    assert verify_i_isomorphism(a, q, ref).ok


def test_tsstar_pairing_validation():
    g = catalog.base("g2")
    with pytest.raises(ExtensionError):
        SymPairing.build(g, {("X", "X"): {"X": 1}})


def test_tsstar_isotropic_halves():
    ab2 = catalog.base("abelian", n=2)
    phi = SymPairing.build(ab2, {("A1", "A1"): {"A1": 1}})
    q = ts_star_extension(ab2, phi)
    alg = q.algebra
    assert alg.space.dim_even == alg.space.dim_odd == 2
    for i in range(2):
        for j in range(2):
            assert EXACT.is_zero(q.form.gram.entries[i][j])
            assert EXACT.is_zero(q.form.gram.entries[2 + i][2 + j])


# -- direct sums ---------------------------------------------------------------------


def test_direct_sum_with_zero_summand():
    q = catalog.build("g4")
    zero_alg = LieSuperalgebra.abelian([])
    zero_form = BilinearForm.build(zero_alg.space, {})
    z = QuadraticAlgebra.build(zero_alg, zero_form)
    s = direct_sum(q, z)
    assert s.algebra.c == q.algebra.c
    assert s.form.gram == q.form.gram


@pytest.mark.parametrize("gamma", [1, -2])
def test_direct_sum_reproduces_go6_5(gamma):
    s = direct_sum(
        catalog.build("go4_3"),
        catalog.build("go2", **{"lambda": gamma}),
        rename2={"X0": "Z0", "X1": "Z1"},
    )
    ref = catalog.build("go6_5", gamma=gamma)
    assert s.algebra.labels == ref.algebra.labels
    assert s.algebra.c == ref.algebra.c
    assert s.form.gram == ref.form.gram


def test_direct_sum_parity_mismatch_rejected():
    with pytest.raises(ExtensionError):
        direct_sum(catalog.build("g4"), catalog.build("go2"))


def test_direct_sum_mixed_backends_rejected():
    # an exact and a complex summand raise BackendMismatch, in either order
    exact, cplx = catalog.build("g4"), catalog.build("g5", complex_backend())
    for q1, q2 in ((exact, cplx), (cplx, exact)):
        with pytest.raises(BackendMismatch, match="mixed backends"):
            direct_sum(q1, q2)


def test_direct_sum_summands_are_nondegenerate_ideals():
    from liequad.core import is_nondegenerate_on

    s = direct_sum(catalog.build("g4"), catalog.build("g5"), rename2=None)
    alg = s.algebra
    first = Subspace.span(
        EXACT, [basis_vector(alg.space, EXACT, l) for l in ("X", "P", "Q", "Z")], alg.dim
    )
    assert is_ideal(alg, first)
    assert is_nondegenerate_on(s.form, first)


# -- randomized closure property ------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    lam=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    mu=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_tstar_of_scaled_heisenberg_cocycles_always_quadratic(lam, mu):
    h3 = catalog.base("g3_1")
    th = Cocycle2.build(
        h3,
        {("X", "Y"): {"Z": lam + mu}, ("Y", "Z"): {"X": lam + mu}, ("Z", "X"): {"Y": lam + mu}},
    )
    q = t_star_extension(h3, th)
    assert isinstance(q, QuadraticAlgebra)
    assert q.verified.ok


def test_sde_with_cocycle_twist():
    # Heisenberg base acting through a commuting rank-one family, twisted by
    # the cyclic cocycle: both extra terms must coexist and verify
    h3 = catalog.base("g3_1")
    th = Cocycle2.build(
        h3, {("X", "Y"): {"Z": 1}, ("Y", "Z"): {"X": 1}, ("Z", "X"): {"Y": 1}}
    )
    e_mat = Matrix.from_rows(EXACT, [[0, 1], [0, 0]])
    zero = Matrix.zeros(EXACT, 2, 2)
    q = super_double_extension(h3, odd_core(), [e_mat, zero, zero], th)
    assert isinstance(q, QuadraticAlgebra) and q.verified.ok
    alg = q.algebra
    ix = alg.space.index
    v = alg.bracket_basis(ix("X"), ix("Y"))
    assert v[ix("Z")] == EXACT.one and v[ix("Z*")] == EXACT.one
    assert alg.bracket_basis(ix("F2"), ix("F2"))[ix("X*")] == EXACT.one


def test_sde_non_cyclic_cocycle_downgrades():
    g2 = catalog.base("g2")
    th = Cocycle2.build(g2, {("X", "Y"): {"X": 1}})
    psi = [
        Matrix.from_rows(EXACT, [["1/2", 0], [0, "-1/2"]]),
        Matrix.from_rows(EXACT, [[0, 1], [0, 0]]),
    ]
    with pytest.warns(UserWarning):
        out = super_double_extension(g2, odd_core(), psi, th)
    assert isinstance(out, LieSuperalgebra)
    assert verify_jacobi(out).ok


def test_cyclic_pairing_family_over_abelian3_is_10_dimensional():
    # over an abelian base the two compatibility conditions are vacuous and the
    # cyclic constraint makes phi a fully symmetric 3-tensor: C(3+2,3) = 10
    ab3 = catalog.base("abelian", n=3)
    sols = sym_pairing_space(ab3, cyclic=True)
    assert len(sols) == 10
    for s in sols:
        n = 3
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert s.phi[i][j][k] == s.phi[j][k][i]
        q = ts_star_extension(ab3, s)
        assert isinstance(q, QuadraticAlgebra) and q.verified.ok
        # every odd-odd product lands in the even part, as in the odd family row
        alg = q.algebra
        for a in range(3, 6):
            for b in range(3, 6):
                assert all(EXACT.is_zero(x) for x in alg.bracket_basis(a, b)[3:])


# -- the validators against dense definitions ------------------------------------------
#
# Dense loops over every structure constant, as the validators were first
# written.  An entry that is zero to the backend counts as zero, as in `bracket`
# and the nonzero lists the validators sum over.


CB = complex_backend(1e-9)
ENTRY = {
    "exact": st.one_of(
        st.just(0),
        st.just(0),
        st.integers(-2, 2),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
        st.builds(Exact, st.integers(-1, 1), st.integers(-1, 1)),
    ),
    "complex": st.one_of(
        st.just(0j),
        st.just(0j),
        st.builds(complex, st.integers(-2, 2), st.integers(-1, 1)),
        st.builds(complex, st.floats(-2, 2), st.floats(-1, 1)),
        st.builds(complex, st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9)),  # below the tolerance
    ),
}


def structure_constants(alg):
    bk = alg.backend
    return [[[bk.zero if bk.is_zero(x) else x for x in row] for row in block] for block in alg.c]


def cocycle_failure_from_definition(base, th):
    bk, n, labels = base.backend, base.dim, base.labels
    c = structure_constants(base)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not bk.is_zero(th[j][i][k] + th[i][j][k]):
                    return f"theta is not skew on ({labels[i]},{labels[j]})"
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for m in range(n):
                    acc = bk.zero
                    for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(n):
                            acc = acc + c[z][m][l] * th[a][b][l] + c[a][b][l] * th[l][z][m]
                    if not bk.is_zero(acc):
                        return f"2-cocycle identity fails on triple ({labels[i]},{labels[j]},{labels[k]})"
    return None


def pairing_failures_from_definition(base, phi):
    bk, n, labels = base.backend, base.dim, base.labels
    c = structure_constants(base)
    out = []
    for i in range(n):
        for j in range(i, n):
            if any(not bk.is_zero(phi[i][j][k] - phi[j][i][k]) for k in range(n)):
                out.append(f"phi is not symmetric on ({labels[i]},{labels[j]})")
    # (1): [x, phi(f,g)] + phi(f, g o ad x) + phi(g, f o ad x) = 0
    for x in range(n):
        for i in range(n):
            for j in range(i, n):
                term = [
                    sum((c[x][l][k] * phi[i][j][l] for l in range(n)), bk.zero)
                    + sum((c[x][m][j] * phi[i][m][k] + c[x][m][i] * phi[j][m][k] for m in range(n)), bk.zero)
                    for k in range(n)
                ]
                if not all(bk.is_zero(v) for v in term):
                    out.append(f"pairing condition (1) fails at (x,f,g) = ({labels[x]},{labels[i]}*,{labels[j]}*)")
    # (2): f o ad(phi(g,h)) + cycle = 0, one message per triple
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                for m in range(n):
                    acc = bk.zero
                    for a, b, f in ((j, k, i), (k, i, j), (i, j, k)):
                        for l in range(n):
                            acc = acc + phi[a][b][l] * c[l][m][f]
                    if not bk.is_zero(acc):
                        out.append(f"pairing condition (2) fails at ({labels[i]}*,{labels[j]}*,{labels[k]}*)")
                        break
    return out


def is_cyclic_from_definition(bk, t):
    n = len(t)
    return all(bk.is_zero(t[i][j][k] - t[j][k][i]) for i in range(n) for j in range(n) for k in range(n))


def psi_failure_from_definition(g, psi, gram, core):
    """First failing psi condition of a double extension by the core, or None."""
    bk, nh, labels = g.backend, gram.rows, g.labels
    zero = Matrix.zeros(bk, nh, nh)
    for label, m in zip(labels, psi):
        if (m.rows, m.cols) != (nh, nh):
            return f"psi({label}) is not a derivation of the core"
        # D[a,b] = [Da,b] + [a,Db] on all basis pairs
        h, d = structure_constants(core), m.entries
        for a in range(nh):
            for b in range(a, nh):
                for k in range(nh):
                    lhs = sum((d[k][r] * core.c[a][b][r] for r in range(nh)), bk.zero)
                    rhs = sum((d[r][a] * h[r][b][k] + d[r][b] * h[a][r][k] for r in range(nh)), bk.zero)
                    if not bk.is_zero(lhs - rhs):
                        return f"psi({label}) is not a derivation of the core"
        if not (m.transpose() * gram + gram * m).is_zero():
            return f"psi({label}) is not skew for the core form"
    c = structure_constants(g)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            want = zero
            for k in range(g.dim):
                want = want + psi[k].scale(c[i][j][k])
            if not (want - (psi[i] * psi[j] - psi[j] * psi[i])).is_zero():
                return f"psi is not a homomorphism on ({labels[i]},{labels[j]})"
    return None


def pairing_rows_from_definition(base, cyclic):
    """Dense rows of the pairing system over the unknowns phi[i][j][k], i <= j."""
    bk, n = base.backend, base.dim
    c = structure_constants(base)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def u(i, j, k):
        return pairs.index((min(i, j), max(i, j))) * n + k

    rows = []

    def add(terms):
        row = [bk.zero] * (len(pairs) * n)
        for col, x in terms:
            row[col] = row[col] + x
        rows.append(tuple(row))

    for x in range(n):
        for i, j in pairs:
            for k in range(n):
                add(
                    [(u(i, j, l), c[x][l][k]) for l in range(n)]
                    + [(u(i, m, k), c[x][m][j]) for m in range(n)]
                    + [(u(j, m, k), c[x][m][i]) for m in range(n)]
                )
    for i, j in pairs:
        for k in range(j, n):
            for m in range(n):
                add([(u(a, b, l), c[l][m][f]) for a, b, f in ((j, k, i), (k, i, j), (i, j, k)) for l in range(n)])
    if cyclic:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    add([(u(i, j, k), bk.one), (u(j, k, i), -bk.one)])
    return pairs, rows


def random_algebra(data, backend, max_dim=4):
    """An even algebra on a random sparse table (not necessarily Lie)."""
    entry = ENTRY[backend.name].map(backend.coerce)
    n = data.draw(st.integers(1, max_dim))
    labels = [f"E{i}" for i in range(n)]
    brackets = {
        (labels[i], labels[j]): dict(zip(labels, data.draw(st.tuples(*[entry] * n))))
        for i in range(n)
        for j in range(i + 1, n)
        if data.draw(st.booleans())
    }
    return LieSuperalgebra.build(labels, (), brackets, backend)


def random_tensor(data, base, symmetric):
    """t[i][j] = a random vector (zero on the diagonal unless symmetric),
    mirrored on t[j][i], negated unless symmetric; one pair in forty breaks
    the mirror, and one tensor in four is zero."""
    bk, n = base.backend, base.dim
    entry = st.one_of(st.just(0), st.just(0), ENTRY[bk.name]).map(bk.coerce)
    vector = st.tuples(*[entry] * n)
    zero = data.draw(st.integers(0, 3)) == 0
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = (bk.zero,) * n if zero or (i == j and not symmetric) else data.draw(vector)
            t[i][j] = v
            t[j][i] = v if symmetric else tuple(-x for x in v)
            if data.draw(st.integers(0, 39)) == 0:
                t[j][i] = data.draw(vector)
    return tuple(tuple(r) for r in t)


def error_of(call):
    try:
        call()
    except ExtensionError as e:
        return str(e)
    return None


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_cocycle_validation_matches_definition(backend, data):
    base = random_algebra(data, backend)
    th = random_tensor(data, base, symmetric=False)
    cocycle = Cocycle2(base, th)
    assert error_of(cocycle.validate) == cocycle_failure_from_definition(base, th)
    assert cocycle.is_cyclic() == is_cyclic_from_definition(backend, th)


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_pairing_validation_matches_definition(backend, data):
    base = random_algebra(data, backend)
    phi = random_tensor(data, base, symmetric=True)
    want = pairing_failures_from_definition(base, phi)
    assert _pairing_condition_failures(base, phi) == want
    assert error_of(SymPairing(base, phi).validate) == (want[0] if want else None)
    assert SymPairing(base, phi).is_cyclic() == is_cyclic_from_definition(backend, phi)


def psi_pool(bk):
    m = lambda rows: Matrix.from_rows(bk, rows)  # noqa: E731
    return [
        Matrix.zeros(bk, 2, 2),
        m([[1, 0], [0, -1]]),
        m([[0, 1], [0, 0]]),
        m([[0, 0], [1, 0]]),
        m([[0, 1], [1, 0]]),
        Matrix.identity(bk, 2),
        Matrix.zeros(bk, 3, 3),
    ]


@settings(max_examples=150, deadline=None)
@given(backend=st.sampled_from([EXACT, CB]), data=st.data())
def test_psi_checks_match_definition(backend, data):
    g = random_algebra(data, backend, max_dim=3)
    pool = psi_pool(backend)
    psi = data.draw(st.lists(st.sampled_from(pool), min_size=g.dim, max_size=g.dim + (g.dim < 3)))
    # an action on the purely odd core F1, G1 with B(F1, G1) = 1
    target = odd_core(("F1", "G1"), backend)
    want = "psi needs one matrix per base generator" if len(psi) != g.dim else None
    want = want or psi_failure_from_definition(g, psi, target.form.gram, target.algebra)
    assert error_of(lambda: _check_action(g, tuple(psi), target)) == want
    # a double extension of the hyperbolic plane U, V, or of the diamond with a
    # random inner derivation in the pool
    core = data.draw(st.sampled_from(["plane", "g4"]))
    if core == "plane":
        alg = LieSuperalgebra.abelian(["U", "V"], backend=backend)
        q = QuadraticAlgebra.build(alg, BilinearForm.build(alg.space, {("U", "V"): 1}, "even", backend))
    else:
        q = catalog.build("g4", backend=backend)
        pool = [q.algebra.ad(i) for i in range(4)] + [Matrix.zeros(backend, 4, 4), Matrix.identity(backend, 4)]
        psi = data.draw(st.lists(st.sampled_from(pool), min_size=g.dim, max_size=g.dim + (g.dim < 3)))
    want = "psi needs one matrix per base generator" if len(psi) != g.dim else None
    want = want or psi_failure_from_definition(g, psi, q.form.gram, q.algebra)
    try:
        got = error_of(lambda: double_extension_general(g, q, psi))
    except StructureError:  # psi passes, but a random table need not be a Lie algebra
        got = None
    assert got == want


def assert_pairing_space_matches_dense_nullspace(base):
    n = base.dim
    for cyclic in (False, True):
        pairs, rows = pairing_rows_from_definition(base, cyclic)
        want = []
        for s in nullspace(Matrix(EXACT, tuple(rows))):
            phi = [[None] * n for _ in range(n)]
            for a, (i, j) in enumerate(pairs):
                phi[i][j] = phi[j][i] = s[a * n : a * n + n]
            want.append(tuple(x for block in phi for row in block for x in row))
        got = [tuple(x for block in p.phi for row in block for x in row) for p in sym_pairing_space(base, cyclic)]
        assert Subspace.span(EXACT, got, n**3) == Subspace.span(EXACT, want, n**3)
        assert len(got) == len(want)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pairing_space_matches_dense_nullspace(data):
    assert_pairing_space_matches_dense_nullspace(random_algebra(data, EXACT, max_dim=3))


def test_pairing_space_of_filiform4_matches_dense_nullspace():
    # [X,Y] = Z, [X,Z] = W: most small tables leave a term of either condition
    # redundant, this one does not (3 pairings, 2 of them cyclic)
    g = LieSuperalgebra.build(["X", "Y", "Z", "W"], (), {("X", "Y"): {"Z": 1}, ("X", "Z"): {"W": 1}})
    assert_pairing_space_matches_dense_nullspace(g)
    assert [len(sym_pairing_space(g, cyclic)) for cyclic in (False, True)] == [3, 2]

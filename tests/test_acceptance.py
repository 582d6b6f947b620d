"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything is exact (zero residual) except the two cube-root isometries by
the cube root of 2, which are checked on the complex backend within 1e-9.

Criterion 7 has two halves.  The second half takes the vector-space layout
q + span{X1,Z1} recorded for the two-step example as an orthogonal-ideal
splitting and asserts the proven verdict on it: it is not one ([X1,X2] = T
leaves span{X1,Z1}, [X2,T] = Z1 leaves q), and no splitting exists, since the
center span{Z1,f} is totally isotropic and carries no central witness.  The
test fails if the layout is ever accepted.  The companion test that follows it
verifies the structure the layout actually encodes: the algebra is the
one-dimensional double extension of the abelian core by the chain map, with
extension pair (X1, Z1).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from liequad import catalog, data_file
from liequad.algfile import parse
from liequad.core import (
    BilinearForm,
    LieSuperalgebra,
    QuadraticAlgebra,
    center,
    derived_series,
    derived_subalgebra,
    orthogonal_complement,
    verify_form,
    verify_jacobi,
)
from liequad.derivations import derivation_space, skew_derivation_family_g2n2
from liequad.extensions import (
    Cocycle2,
    SymPairing,
    direct_sum,
    double_extension_1d,
    sym_pairing_space,
    super_double_extension,
    t_star_extension,
    ts_star_extension,
)
from liequad.linalg import Matrix, Subspace, solve_linear
from liequad.morphisms import (
    GradedLinearMap,
    check_sp2_lemma,
    decomposability_via_center,
    fingerprint,
    verify_decomposition,
    verify_i_isomorphism,
    verify_isomorphism,
)
from liequad.scalars import EXACT, complex_backend

from helpers import basis_vector, restrict


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


def grid_builds():
    for entry in catalog.entries():
        for params in entry.sample_grid(EXACT):
            yield entry, params, catalog.build(entry.id, **params)


def test_c01_catalog_soundness():
    with criterion(1, "catalog axioms exact over the default grid, < 10 s"):
        t0 = time.monotonic()
        count = 0
        for entry, params, q in grid_builds():
            # the build ran verify_jacobi and verify_form; q.verified holds both reports
            assert q.verified.ok, f"{entry.id} {params}"
            for check in q.verified.checks:
                assert check.residual in (None, "0"), f"{entry.id}: {check.render()}"
            count += 1
        elapsed = time.monotonic() - t0
        assert count >= 25
        assert elapsed < 10.0, f"catalog run took {elapsed:.2f}s"


def test_c02_center_duality_even_entries():
    with criterion(2, "center/derived duality on every even-form entry"):
        seen = 0
        for entry, params, q in grid_builds():
            if entry.form_parity != "even":
                continue
            z = center(q.algebra)
            d = derived_subalgebra(q.algebra)
            assert z.dim + d.dim == q.dim, (entry.id, params)
            assert orthogonal_complement(q, d) == z, (entry.id, params)
            seen += 1
        assert seen >= 10


def d_g4(x, y, z):
    return Matrix.from_rows(
        EXACT, [[0, 0, 0, 0], [y, x, 0, 0], [z, 0, -x, 0], [0, -z, -y, 0]]
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


def test_c03_derivation_dimensions():
    with criterion(3, "skew-derivation dimensions: 3 (g4), 6 (g5), n^2+2n family"):
        q4 = catalog.build("g4")
        ds4 = derivation_space(q4.algebra, "skew", q4.form)
        assert ds4.dim == 3
        gens4 = [d_g4(1, 0, 0), d_g4(0, 1, 0), d_g4(0, 0, 1)]
        assert all(ds4.contains(g) for g in gens4)
        assert (
            Subspace.span(EXACT, [tuple(x for r in g.entries for x in r) for g in gens4], 16)
            == ds4.span()
        )
        q5 = catalog.build("g5")
        ds5 = derivation_space(q5.algebra, "skew", q5.form)
        assert ds5.dim == 6
        gens5 = [d_g5(*[1 if i == k else 0 for i in range(6)]) for k in range(6)]
        assert all(ds5.contains(g) for g in gens5)
        assert (
            Subspace.span(EXACT, [tuple(x for r in g.entries for x in r) for g in gens5], 25)
            == ds5.span()
        )
        for n in (1, 2, 3):
            q = catalog.build("g2n2", n=n)
            fam = skew_derivation_family_g2n2(q)
            generic = derivation_space(q.algebra, "skew", q.form)
            assert fam.dim == n * n + 2 * n == generic.dim
            assert fam.span() == generic.span()


def test_c04_inner_extension_decomposability():
    with criterion(4, "20 random inner extensions of g4 and g5 decompose; e - X0 central"):
        rng = random.Random(40)
        for qid in ("g4", "g5"):
            q = catalog.build(qid)
            n = q.dim
            done = 0
            while done < 20:
                v = tuple(
                    EXACT.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(n)
                )
                d = q.algebra.ad_vector(v)
                if d.is_zero():
                    continue
                ext = double_extension_1d(q, d)
                w = decomposability_via_center(ext)
                assert w is not None, (qid, v)
                assert verify_decomposition(ext, w.core, w.complement).ok
                # e - X0 is central and pairs with f by 1
                u = [EXACT.zero] * ext.dim
                u[0] = EXACT.one  # e sits first
                for k, x in enumerate(v):
                    u[1 + k] = -x
                assert w.center.contains(tuple(u))
                f = basis_vector(ext.algebra.space, EXACT, "f")
                assert ext.form.value(tuple(u), f) == EXACT.one
                done += 1


def heisenberg_theta(lam):
    h3 = catalog.base("g3_1")
    return h3, Cocycle2.build(
        h3, {("X", "Y"): {"Z": lam}, ("Y", "Z"): {"X": lam}, ("Z", "X"): {"Y": lam}}
    )


def test_c05_tstar_suite():
    with criterion(5, "T* suite: witness value -2*lambda and the three dim-6 tables"):
        for lam in (1, 3):
            h3, th = heisenberg_theta(lam)
            q = t_star_extension(h3, th)
            assert isinstance(q, QuadraticAlgebra) and q.verified.ok
            w = decomposability_via_center(q)
            assert w is not None and w.core.dim == 1
            wv = w.core.basis[0]
            assert q.form.value(wv, wv) == EXACT.coerce(-2 * lam)
        cases = [("g3_1", "g6_1", [{}]), ("g3_2", "g6_2", [{}])]
        cases.append(("g3_3", "g6_3", [{"mu": "1/2"}, {"mu": "-1/2"}, {"mu": "1"}]))
        for base_id, cat_id, samples in cases:
            for kw in samples:
                g = catalog.base(base_id, **({"mu": kw["mu"]} if "mu" in kw else {}))
                ext = t_star_extension(g, None)
                ref = catalog.build(cat_id, **kw)
                assert ext.algebra.labels == ref.algebra.labels
                assert ext.algebra.c == ref.algebra.c
                assert ext.form.gram == ref.form.gram


def test_c06_cocycle_scaling_isomorphism():
    with criterion(6, "X + lambda*f rescaling is an isomorphism onto the scaled twist"):
        for lam in (Fraction(2), Fraction(-1, 3)):
            h3, th = heisenberg_theta(1)
            src = t_star_extension(h3, th)
            tgt = t_star_extension(h3, th.scaled(lam))
            images = {l: {l: 1} for l in ("X", "Y", "Z")}
            images.update({l + "*": {l + "*": lam} for l in ("X", "Y", "Z")})
            a = GradedLinearMap.from_images(src.algebra.space, tgt.algebra.space, images, EXACT)
            assert verify_isomorphism(a, src.algebra, tgt.algebra).ok


def d_g5_reduced(x, y, z):
    return d_g5(x, y, z, 0, 0, 0)


def _extended_g5(x, y, z):
    q5 = catalog.build("g5")
    return double_extension_1d(q5, d_g5_reduced(x, y, z))


def test_c07a_second_derived_space():
    with criterion(7, "two-step checks: second derived space at (1,0,0)"):
        ext = _extended_g5(1, 0, 0)
        series = derived_series(ext.algebra)
        assert len(series) >= 3
        want = Subspace.span(
            EXACT,
            [basis_vector(ext.algebra.space, EXACT, l) for l in ("T", "Z1", "Z2", "f")],
            ext.dim,
        )
        assert series[2] == want and series[2].dim == 4


def test_c07b_claimed_splitting_as_stated():
    # The recorded layout q + span{X1,Z1} is the double-extension layout, not an
    # ideal splitting: [X1,X2] = T escapes span{X1,Z1} and [X2,T] = Z1 escapes q.
    # No splitting exists at all: the center span{Z1,f} is totally isotropic.
    # Asserting this proven verdict keeps the claim checked; the test fails if
    # verify_decomposition ever accepts the layout.
    with criterion(7, "two-step checks: recorded splitting at (0,1,0) refuted as orthogonal ideals"):
        ext = _extended_g5(0, 1, 0)
        alg = ext.algebra
        sp = alg.space
        bv = lambda l: basis_vector(sp, EXACT, l)
        span = lambda labels: Subspace.span(EXACT, [bv(l) for l in labels], ext.dim)
        q_half = span(("e", "X2", "T", "f", "Z2"))
        pair_half = span(("X1", "Z1"))
        rep = verify_decomposition(ext, q_half, pair_half)
        assert not rep.ok
        assert {c.name: c.ok for c in rep.checks} == {
            "ideal(s1)": False,
            "ideal(s2)": False,
            "orthogonality": True,
            "non-degeneracy(s1)": True,
            "non-degeneracy(s2)": True,
            "spanning": True,
        }
        assert alg.bracket(bv("X1"), bv("X2")) == bv("T") and not pair_half.contains(bv("T"))
        assert alg.bracket(bv("X2"), bv("T")) == bv("Z1") and not q_half.contains(bv("Z1"))
        z = center(alg)
        assert z == span(("Z1", "f"))
        assert all(EXACT.is_zero(x) for row in restrict(ext.form, z.basis).entries for x in row)
        assert decomposability_via_center(ext) is None


def test_c07_companion_double_extension_structure():
    # what the layout does encode: X1 acts on the 5-dim core exactly as the
    # chain map C, the core brackets return the dual direction Z1, and
    # B(X1, Z1) = 1, i.e. the algebra is a 1-step double extension
    ext = _extended_g5(0, 1, 0)
    alg = ext.algebra
    sp = alg.space
    bv = lambda l: basis_vector(sp, EXACT, l)
    core_labels = ("e", "X2", "T", "f", "Z2")
    chain = {"e": {"X2": 1}, "X2": {"T": 1}, "T": {"Z2": -1}, "Z2": {"f": -1}, "f": {}}
    for src, img in chain.items():
        got = alg.bracket(bv("X1"), bv(src))
        want = [EXACT.zero] * alg.dim
        for l, coeff in img.items():
            want[sp.index(l)] = EXACT.coerce(coeff)
        assert got == tuple(want), src
    for u in core_labels:
        for v in core_labels:
            br = alg.bracket(bv(u), bv(v))
            outside = [
                x
                for k, x in enumerate(br)
                if sp.labels[k] not in core_labels + ("Z1",) and not EXACT.is_zero(x)
            ]
            assert not outside
    assert ext.form.value(bv("X1"), bv("Z1")) == EXACT.one
    assert center(alg).contains(bv("Z1"))


def _random_sp_matrix(bk, rng, m, denom=2):
    # A = -J S with S symmetric lands in sp for the canonical pairing
    s = [[Fraction(rng.randint(-2, 2), denom) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i):
            s[i][j] = s[j][i]
    half = m // 2
    j_rows = [[0] * m for _ in range(m)]
    for i in range(half):
        j_rows[i][half + i] = 1
        j_rows[half + i][i] = -1
    jm = Matrix.from_rows(bk, j_rows)
    sm = Matrix.from_rows(bk, s)
    return -(jm * sm)


def _odd_core(bk, fs, gs):
    """The purely odd quadratic core on fs + gs with B(fs[i], gs[i]) = 1."""
    alg = LieSuperalgebra.abelian((), fs + gs, bk)
    return QuadraticAlgebra.build(alg, BilinearForm.build(alg.space, dict.fromkeys(zip(fs, gs), 1), "even", bk))


def _random_sde_input(rng):
    bk = EXACT
    kind = rng.choice(("abelian1-h2", "abelian1-h4", "abelian2-h2", "g2-h2"))
    if kind == "abelian1-h2":
        g = catalog.base("abelian", n=1)
        h = _odd_core(bk, ["F1"], ["G1"])
        psi = [_random_sp_matrix(bk, rng, 2)]
    elif kind == "abelian1-h4":
        g = catalog.base("abelian", n=1)
        h = _odd_core(bk, ["F1", "F2"], ["G1", "G2"])
        psi = [_random_sp_matrix(bk, rng, 4)]
    elif kind == "abelian2-h2":
        g = catalog.base("abelian", n=2)
        h = _odd_core(bk, ["F1"], ["G1"])
        m = _random_sp_matrix(bk, rng, 2)
        psi = [m, m.scale(Fraction(rng.randint(-3, 3), 2))]
    else:
        g = catalog.base("g2")
        h = _odd_core(bk, ["F1"], ["G1"])
        s = Fraction(rng.randint(-3, 3), 2)
        t = Fraction(rng.randint(-3, 3), 2)
        psi_x = Matrix.from_rows(bk, [[Fraction(1, 2), s], [0, Fraction(-1, 2)]])
        psi_y = Matrix.from_rows(bk, [[0, t], [0, 0]])
        psi = [psi_x, psi_y]
    return g, h, psi


def test_c08_super_double_extensions():
    with criterion(8, "50 random super double extensions pass; dim-4 normal forms"):
        rng = random.Random(80)
        for _ in range(50):
            g, h, psi = _random_sde_input(rng)
            q = super_double_extension(g, h, psi)
            assert isinstance(q, QuadraticAlgebra)
            assert q.verified.ok
            alg = q.algebra
            ne = alg.space.dim_even
            for a in range(ne, alg.dim):
                for b in range(ne, alg.dim):
                    assert alg.bracket_basis(a, b) == alg.bracket_basis(b, a)
        g1 = catalog.base("abelian", n=1)
        h2 = _odd_core(EXACT, ["F1"], ["F2"])
        nilp = super_double_extension(g1, h2, [Matrix.from_rows(EXACT, [[0, 1], [0, 0]])])
        a1 = GradedLinearMap.from_images(
            nilp.algebra.space,
            catalog.build("gs4_1").algebra.space,
            {"A1": {"Y0": "-1/2"}, "A1*": {"X0": -2}, "F1": {"X1": 1}, "F2": {"Y1": 1}},
            EXACT,
        )
        assert verify_i_isomorphism(a1, nilp, catalog.build("gs4_1")).ok
        semi = super_double_extension(g1, h2, [Matrix.from_rows(EXACT, [[1, 0], [0, -1]])])
        a2 = GradedLinearMap.from_images(
            semi.algebra.space,
            catalog.build("gs4_2").algebra.space,
            {"A1": {"Y0": 1}, "A1*": {"X0": 1}, "F1": {"X1": 1}, "F2": {"Y1": 1}},
            EXACT,
        )
        assert verify_i_isomorphism(a2, semi, catalog.build("gs4_2")).ok


def test_c09_odd_constructions():
    with criterion(9, "odd T*: forced-zero pairing and the 4-parameter abelian family"):
        g2 = catalog.base("g2")
        assert sym_pairing_space(g2, cyclic=False) == []
        assert sym_pairing_space(g2, cyclic=True) == []
        q = ts_star_extension(g2, SymPairing.zero(g2))
        alg = q.algebra
        ix = alg.space.index
        nonzero = {}
        for i in range(alg.dim):
            js = i + 1 if alg.parity(i) == 0 else i
            for j in range(js, alg.dim):
                v = alg.bracket_basis(i, j)
                if any(not EXACT.is_zero(x) for x in v):
                    nonzero[(alg.labels[i], alg.labels[j])] = alg.format_vector(v)
        assert nonzero == {
            ("X", "Y"): "Y",
            ("X", "Y*"): "- Y*".replace("- ", "-"),
            ("Y", "Y*"): "X*",
        }
        ab2 = catalog.base("abelian", n=2)
        sols = sym_pairing_space(ab2, cyclic=True)
        assert len(sols) == 4
        for s in sols:
            # the (alpha, beta, gamma, lambda) pattern: the off-diagonal values
            # are forced by shifting indices cyclically
            assert s.phi[0][1][0] == s.phi[0][0][1]
            assert s.phi[1][1][0] == s.phi[0][1][1]
        # the four generators span exactly the family built from unit choices
        target = set()
        for s in sols:
            target.add(
                tuple(
                    int(x.real)
                    for x in (s.phi[0][0][0], s.phi[0][0][1], s.phi[0][1][1], s.phi[1][1][1])
                )
            )
        assert target == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def go2_rescaling(src, tgt, a, bk):
    return GradedLinearMap.from_images(
        src.algebra.space, tgt.algebra.space, {"X0": {"X0": a}, "X1": {"X1": bk.div(bk.one, a)}}, bk
    )


def go6_3_rescaling(src, tgt, a, bk):
    inv = bk.div(bk.one, a)
    images = {
        "X0": {"X0": a, "Y0": 1},
        "Y0": {"X0": a, "Y0": 2},
        "Z0": {"Z0": a},
        "X1": {"X1": 2 * inv, "Y1": -1},
        "Y1": {"X1": -inv, "Y1": 1},
        "Z1": {"Z1": inv},
    }
    return GradedLinearMap.from_images(src.algebra.space, tgt.algebra.space, images, bk)


def test_c10_cube_root_isometries():
    text = "cube-root isometries: rational roots exact, the cube root of 2 on the float backend at 1e-9"
    with criterion(10, text):
        # lambda -> lambda * a^3 with a rational: exact, zero residual
        for entry, rescale, lam, lam2, a in (
            ("go2", go2_rescaling, 1, 8, 2),
            ("go2", go2_rescaling, 1, 27, 3),
            ("go6_3", go6_3_rescaling, 1, 8, 2),
        ):
            src = catalog.build(entry, **{"lambda": lam})
            tgt = catalog.build(entry, **{"lambda": lam2})
            rep = verify_i_isomorphism(rescale(src, tgt, EXACT.coerce(a), EXACT), src, tgt)
            assert rep.ok and all(c.residual in (None, "0") for c in rep.checks), (entry, lam2)
        # a = 2^(1/3) is irrational: the float backend within its tolerance
        cb = complex_backend(1e-9)
        a = 2.0 ** (1.0 / 3.0)
        for entry, rescale in (("go2", go2_rescaling), ("go6_3", go6_3_rescaling)):
            src = catalog.build(entry, backend=cb, **{"lambda": 1})
            tgt = catalog.build(entry, backend=cb, **{"lambda": 2})
            assert verify_i_isomorphism(rescale(src, tgt, a, cb), src, tgt).ok, entry


def test_c11_sp2_lemma_samples():
    with criterion(11, "200 exact samples of [A,B] = B: A semisimple, B nilpotent, < 1 s"):
        rng = random.Random(110)
        t0 = time.monotonic()
        done = 0
        while done < 200:
            x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if x == 0 and y == 0:
                continue
            b = Matrix.from_rows(EXACT, [[x * y, -x * x], [y * y, -x * y]])
            rows = [
                [0, y * y, x * x],
                [-2 * x * x, -2 * x * y, 0],
                [-2 * y * y, 0, 2 * x * y],
                [0, -y * y, -x * x],
            ]
            rhs = [x * y, -x * x, y * y, -x * y]
            sol = solve_linear(Matrix.from_rows(EXACT, rows), rhs)
            assert sol is not None
            p, qv, r = sol
            t = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            a = Matrix(
                EXACT,
                (
                    (p + EXACT.coerce(t * x * y), qv - EXACT.coerce(t * x * x)),
                    (r + EXACT.coerce(t * y * y), -p - EXACT.coerce(t * x * y)),
                ),
            )
            rep = check_sp2_lemma(a, b)
            assert rep.ok
            done += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"sampling took {elapsed:.2f}s"


GO6_FINGERPRINTS = {
    "go6_0": (6, 3, 3, 6, (6, 0), (6, 0), 0, True, True),
    "go6_1": (6, 3, 3, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    "go6_2": (6, 3, 3, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    "go6_3": (6, 3, 3, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    "go6_4": (6, 3, 3, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    "go6_5": (6, 3, 3, 2, (6, 4, 1, 0), (6, 4, 3), 2, True, False),
    "go6_6": (6, 3, 3, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    "go6_7": (6, 3, 3, 1, (6, 5, 3, 0), (6, 5), 1, True, False),
}


def test_c12_table_regression():
    with criterion(12, "eight shipped odd dim-6 files parse, verify, match fingerprints"):
        for i in range(8):
            name = f"go6_{i}"
            af = parse(data_file(f"{name}.alg").read_text())
            assert verify_jacobi(af.algebra).ok, name
            assert verify_form(af.algebra, af.form).ok, name
            fp = fingerprint(af.algebra)
            got = (
                fp.dim,
                fp.dim_even,
                fp.dim_odd,
                fp.center_dim,
                fp.derived_dims,
                fp.lower_central_dims,
                fp.derived_center_dim,
                fp.solvable,
                fp.nilpotent,
            )
            assert got == GO6_FINGERPRINTS[name], name
        for gamma in ("1", "-2"):
            s = direct_sum(
                catalog.build("go4_3"),
                catalog.build("go2", **{"lambda": gamma}),
                rename2={"X0": "Z0", "X1": "Z1"},
            )
            ref = catalog.build("go6_5", gamma=gamma)
            assert s.algebra.labels == ref.algebra.labels
            assert s.algebra.c == ref.algebra.c
            assert s.form.gram == ref.form.gram

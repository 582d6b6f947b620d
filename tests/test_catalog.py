import hashlib
import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from liequad import catalog
from liequad.algfile import emit
from liequad.catalog import CatalogEntry, InadmissibleParameter, UnknownEntry
from liequad.cli import main
from liequad.core import BilinearForm, LieSuperalgebra, center, derived_subalgebra, verify_form, verify_jacobi
from liequad.linalg import Subspace
from liequad.morphisms import (
    GradedLinearMap,
    decomposability_via_center,
    fingerprint,
    verify_i_isomorphism,
)
from liequad.scalars import EXACT, complex_backend

from helpers import basis_vector


def test_catalog_has_at_least_25_entries():
    assert len(catalog.entries()) >= 25


@pytest.fixture(scope="module")
def listed_dims():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["catalog", "list"]) == 0
    return {line.split()[0]: line.split()[2] for line in out.getvalue().splitlines()}


@pytest.mark.parametrize("entry", [e for e in catalog.entries() if e.id != "g2n2"], ids=lambda e: e.id)
def test_listed_dims_are_those_of_the_default_build(entry, listed_dims):
    # `catalog list` derives E|O from the entry's labels
    space = catalog.build(entry.id).algebra.space
    assert listed_dims[entry.id] == f"{space.dim_even}|{space.dim_odd}"


def test_listed_dims_of_g2n2_name_the_family(listed_dims):
    # g2n2's labels are a callable of n
    assert listed_dims["g2n2"] == "2n+2"


@pytest.mark.parametrize(
    "backend, digest",
    [
        (EXACT, "c6ea6b4a829dcfc055f2d95da31eff14360dcd202e180d2d423b6130a49d0df5"),
        (complex_backend(), "29048110e6026209aa7313dbc67e124f2eb98cb078d6c9d73fad956f8a005f85"),
    ],
    ids=["exact", "complex"],
)
def test_catalog_tables_are_pinned(backend, digest):
    # every entry's labels, brackets and form at every sample point, as `.alg` text
    h = hashlib.sha256()
    points = 0
    for e in catalog.entries():
        for p in e.sample_grid(backend):
            alg, form = e.builder(backend, p)
            h.update(emit(alg, form, e.id + catalog._param_str(p)).encode())
            points += 1
    assert points == 74
    assert h.hexdigest() == digest


@pytest.mark.parametrize("backend", [EXACT, complex_backend()], ids=["exact", "complex"])
def test_tables_are_what_build_reads(backend):
    # LieSuperalgebra.table and BilinearForm.table invert build at every sample point
    points = 0
    for e in catalog.entries():
        for p in e.sample_grid(backend):
            alg, form = e.builder(backend, p)
            ne = alg.space.dim_even
            assert LieSuperalgebra.build(alg.labels[:ne], alg.labels[ne:], alg.table(), backend) == alg
            assert BilinearForm.build(alg.space, form.table(), form.parity, backend).gram == form.gram
            points += 1
    assert points == 74


def test_verify_entry_reports_failing_axioms():
    # g4 with [X,Q] = +Q breaks Jacobi on (X,P,Q): one failing check, no exception
    g4 = catalog.get("g4")
    broken = CatalogEntry(
        "broken",
        "g4 with [X,Q] = +Q",
        even=g4.even,
        brackets={("X", "P"): {"P": 1}, ("X", "Q"): {"Q": 1}, ("P", "Q"): {"Z": 1}},
        form=g4.form,
        fingerprint=g4.fingerprint,
    )
    rep = catalog.verify_entry(broken, {})
    assert [(c.name, c.ok) for c in rep.checks] == [("broken:axioms", False)]
    assert "jacobi(X,P,Q)" in rep.checks[0].witness


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        catalog.build("nope")


def test_inadmissible_parameters_rejected():
    with pytest.raises(InadmissibleParameter):
        catalog.build("g6_3", mu=-1)
    with pytest.raises(InadmissibleParameter):
        catalog.build("g6_3", mu=2)
    with pytest.raises(InadmissibleParameter):
        catalog.build("gs6_2", **{"lambda": 0})
    with pytest.raises(InadmissibleParameter):
        catalog.build("go6_6", mu=0)
    with pytest.raises(InadmissibleParameter):
        catalog.build("g4", bogus=1)


def test_go2_zero_parameter_is_abelian():
    q = catalog.build("go2", **{"lambda": 0})
    assert derived_subalgebra(q.algebra).dim == 0


def test_g6_3_brackets_at_half():
    q = catalog.build("g6_3", mu="1/2")
    alg = q.algebra
    ix = alg.space.index
    half = EXACT.coerce("1/2")
    assert alg.bracket_basis(ix("X"), ix("Y"))[ix("Y")] == EXACT.one
    assert alg.bracket_basis(ix("X"), ix("Z"))[ix("Z")] == half
    assert alg.bracket_basis(ix("X"), ix("Y*"))[ix("Y*")] == -EXACT.one
    assert alg.bracket_basis(ix("X"), ix("Z*"))[ix("Z*")] == -half
    assert alg.bracket_basis(ix("Y"), ix("Y*"))[ix("X*")] == EXACT.one
    assert alg.bracket_basis(ix("Z"), ix("Z*"))[ix("X*")] == half


def test_gs6_5_bracket_table():
    q = catalog.build("gs6_5")
    alg = q.algebra
    ix = alg.space.index
    assert alg.bracket_basis(ix("Y0"), ix("X2"))[ix("X2")] == EXACT.one
    assert alg.bracket_basis(ix("Y0"), ix("Y1"))[ix("X1")] == EXACT.one
    assert alg.bracket_basis(ix("Y0"), ix("Y2"))[ix("Y2")] == -EXACT.one
    assert alg.bracket_basis(ix("Y1"), ix("Y1"))[ix("X0")] == EXACT.one
    assert alg.bracket_basis(ix("X2"), ix("Y2"))[ix("X0")] == EXACT.one


def test_verify_all_exact_clean():
    rep = catalog.verify_all()
    assert rep.ok
    assert len(rep.checks) > 400


def test_g2n2_n1_is_the_diamond():
    q = catalog.build("g2n2", n=1)
    g4 = catalog.build("g4")
    assert fingerprint(q.algebra) == fingerprint(g4.algebra)
    a = GradedLinearMap.from_images(
        q.algebra.space,
        g4.algebra.space,
        {"Y0": {"X": 1}, "X1": {"P": 1}, "Y1": {"Q": 1}, "X0": {"Z": 1}},
        EXACT,
    )
    assert verify_i_isomorphism(a, q, g4).ok


def test_go6_2_is_g6_1_relabelled():
    even = catalog.build("g6_1")
    odd = catalog.build("go6_2")
    # identical structure constants and gram under the order-preserving relabel
    assert even.algebra.c == odd.algebra.c
    assert even.form.gram == odd.form.gram


def test_osp12_odd_bracket_from_invariance_oracle():
    # oracle: [F_a, F_b] is the unique even vector with B0(c, X_i) = -B1(F_a, T_i F_b)
    q = catalog.build("osp12")
    alg = q.algebra
    bk = alg.backend
    odd = [3, 4]
    for a in odd:
        for b in odd:
            stored = alg.bracket_basis(a, b)
            for i in range(3):
                ti = alg.ad(i)
                tb = ti.col(b)  # action on e_b, odd block rows 3..4
                rhs = -(q.form.value(basis_vector(alg.space, bk, alg.labels[a]), tb))
                assert stored[i] == rhs, (a, b, i)
            assert all(bk.is_zero(x) for x in stored[3:])


def test_osp12_even_action_is_bijective_onto_sp2():
    q = catalog.build("osp12")
    alg = q.algebra
    flats = []
    for i in range(3):
        ad = alg.ad(i)
        flats.append(tuple(ad.entries[r][c] for r in (3, 4) for c in (3, 4)))
        # image lies in sp(2): trace zero on the odd block
        assert EXACT.is_zero(ad.entries[3][3] + ad.entries[4][4])
    assert Subspace.span(EXACT, flats, 4).dim == 3


def test_osp12_derived_is_whole():
    q = catalog.build("osp12")
    assert derived_subalgebra(q.algebra).dim == 5


# symplectic rank-4 representative matrices (action of the even generator on the
# odd part, images in columns) for three of the four dim-(2,4) entries; the
# fourth, gs6_6, acts as diag(1, lambda, -1, -lambda)
SP4_REPRESENTATIVES = {
    "gs6_4": ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, -1, 0)),
    "gs6_5": ((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, -1)),
    "gs6_7": ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, -1, -1)),
}


def test_sp4_representatives_match_catalog_actions():
    for id in SP4_REPRESENTATIVES:
        q = catalog.build(id)
        alg = q.algebra
        y0 = alg.space.index("Y0")
        ad = alg.ad(y0)
        got = tuple(tuple(ad.entries[2 + r][2 + c] for c in range(4)) for r in range(4))
        want = tuple(tuple(EXACT.coerce(v) for v in row) for row in SP4_REPRESENTATIVES[id])
        assert got == want, id
    lam = EXACT.coerce(3)
    q = catalog.build("gs6_6", **{"lambda": 3})
    ad = q.algebra.ad(q.algebra.space.index("Y0"))
    diag = [ad.entries[2 + i][2 + i] for i in range(4)]
    assert diag == [EXACT.one, lam, -EXACT.one, -lam]


def test_indecomposable_entries_have_no_central_witness():
    for id in ("g4", "g5", "g6_1", "gs6_3", "go4_1", "go6_7", "osp12"):
        assert decomposability_via_center(catalog.build(id)) is None, id


def test_float_backend_build():
    cb = complex_backend()
    q = catalog.build("g4", backend=cb)
    assert verify_jacobi(q.algebra).ok
    assert verify_form(q.algebra, q.form).ok
    q2 = catalog.build("go2", backend=cb, **{"lambda": 2.0})
    assert q2.verified.ok


def test_base_algebras():
    h3 = catalog.base("g3_1")
    assert verify_jacobi(h3).ok
    g32 = catalog.base("g3_2")
    ix = g32.space.index
    assert g32.bracket_basis(ix("X"), ix("Z")) == (
        EXACT.zero,
        EXACT.one,
        EXACT.one,
    )
    with pytest.raises(UnknownEntry):
        catalog.base("g9")
    with pytest.raises(InadmissibleParameter):
        catalog.base("g3_3", mu=5)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_catalog_sample_satisfies_duality(data):
    entry = data.draw(st.sampled_from([e.id for e in catalog.entries()]))
    e = catalog.get(entry)
    params = data.draw(st.sampled_from(e.sample_grid(EXACT)))
    q = catalog.build(entry, **params)
    z = center(q.algebra)
    d = derived_subalgebra(q.algebra)
    assert z.dim + d.dim == q.dim
    from liequad.core import orthogonal_complement

    assert orthogonal_complement(q, d) == z


def test_orthogonal_complement_of_ideal_is_ideal():
    from liequad.core import is_ideal, orthogonal_complement

    for id in ("g4", "g5", "g6_2", "gs6_1", "go6_4"):
        q = catalog.build(id)
        d = derived_subalgebra(q.algebra)
        assert is_ideal(q.algebra, d), id
        comp = orthogonal_complement(q, d)
        assert is_ideal(q.algebra, comp), id


def test_verify_entry_takes_the_center_once(monkeypatch):
    # the center feeds the duality, dimension, fingerprint and central-witness
    # checks, and is computed once per build
    from liequad import core, morphisms

    calls = []
    original = core.center

    def counted(alg):
        calls.append(alg)
        return original(alg)

    monkeypatch.setattr(core, "center", counted)
    monkeypatch.setattr(morphisms, "center", counted)
    for entry in catalog.entries():
        calls.clear()
        rep = catalog.verify_entry(entry, entry.default_params(EXACT))
        assert rep.ok and len(calls) == 1, entry.id

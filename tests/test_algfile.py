import importlib.util
import pathlib

import pytest

from liequad import catalog, data_file
from liequad.algfile import ParseError, emit, parse, parse_mapfile
from liequad.core import LieSuperalgebra, verify_form, verify_jacobi


def roundtrip(q, name, params=None):
    text = emit(q.algebra, q.form, name, params=params)
    af = parse(text)
    assert af.name == name
    assert af.algebra.c == q.algebra.c
    assert af.form is not None and af.form.gram == q.form.gram
    assert emit(af.algebra, af.form, af.name, params=af.params) == text
    return af


@pytest.mark.parametrize("id", ["g4", "g5", "g6_2", "gs6_3", "osp12", "go2", "go6_7"])
def test_roundtrip_catalog_entries(id):
    roundtrip(catalog.build(id), id)


def test_param_lines_roundtrip():
    q = catalog.build("g6_3", mu="1/2")
    af = roundtrip(q, "g6_3", params={"mu": "1/2"})
    assert af.params == {"mu": "1/2"}


def test_shipped_g4_file_parses_and_reemits_identically():
    text = data_file("g4.alg").read_text()
    af = parse(text)
    assert verify_jacobi(af.algebra).ok
    assert verify_form(af.algebra, af.form).ok
    assert emit(af.algebra, af.form, af.name, params=af.params) == text


def test_shipped_files_match_catalog():
    cases = [
        ("g4.alg", "g4", {}),
        ("g5.alg", "g5", {}),
        ("go6_3.alg", "go6_3", {"lambda": "1"}),
        ("go6_6.alg", "go6_6", {"mu": "1/2"}),
    ]
    for fname, cat_id, params in cases:
        af = parse(data_file(fname).read_text())
        q = catalog.build(cat_id, **params)
        assert af.algebra.c == q.algebra.c
        assert af.form.gram == q.form.gram


def test_shipped_files_are_those_of_the_regen_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "regen_data_files.py"
    spec = importlib.util.spec_from_file_location("regen_data_files", path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    texts = dict(regen.texts())
    assert sorted(texts) == sorted(p.name for p in data_file("").glob("*.alg"))
    for name, text in texts.items():
        assert data_file(name).read_bytes() == text.encode("utf-8"), name


def test_both_orientations_rejected():
    text = """
algebra bad
dim_even 3
dim_odd 0
basis X P Z
bracket P X = 1 P
bracket X P = 1 P
"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "antisymmetry" in str(err.value)
    assert err.value.line == 7


@pytest.mark.parametrize(
    "first, again, message",
    [
        ("bracket F F = 1 X", "bracket F F = 1 X", "bracket F F given twice (first at line 5)"),
        ("form X X = 1", "form X X = 1", "form X X given twice (first at line 5)"),
        ("bracket X Y = 1 Y", "bracket X Y = 1 Y", "bracket X Y given twice (first at line 5)"),
        ("form X Y = 1", "form Y X = 1", "both orientations of the form pair (Y,X) given (first at line 5); supersymmetry fixes the reverse"),
    ],
)
def test_a_pair_is_given_once(first, again, message):
    # a line repeated as written is a repeat, not the reverse orientation
    text = f"algebra bad\ndim_even 2\ndim_odd 1\nbasis X Y F\n{first}\n{again}\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line 6: {message}"
    assert err.value.line == 6


@pytest.mark.parametrize(
    "again, message",
    [
        ("algebra other", "algebra given twice (first at line 1)"),
        ("backend complex", "backend given twice (first at line 2)"),
        ("dim_even 2", "dim_even given twice (first at line 3)"),
        ("dim_odd 1", "dim_odd given twice (first at line 4)"),
        ("basis X Y F", "basis given twice (first at line 5)"),
        ("param mu = 2", "param mu given twice (first at line 6)"),
    ],
    ids=["algebra", "backend", "dim_even", "dim_odd", "basis", "param"],
)
def test_a_header_is_given_once(again, message):
    # a second header line would override the first; params of other names may follow
    header = "algebra p\nbackend exact\ndim_even 2\ndim_odd 1\nbasis X Y F\nparam mu = 1\nparam nu = 1\n"
    assert parse(header).params == {"mu": "1", "nu": "1"}
    with pytest.raises(ParseError) as err:
        parse(header + again + "\n")
    assert str(err.value) == f"line 8: {message}"
    assert err.value.line == 8


def test_unknown_label_rejected():
    text = """
algebra bad
dim_even 2
dim_odd 0
basis X Y
bracket X W = 1 Y
"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "unknown basis label" in str(err.value)


def test_parity_violation_rejected():
    text = """
algebra bad
dim_even 1
dim_odd 1
basis X F
bracket X F = 1 X
"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "parity" in str(err.value)


def test_parity_rule_is_the_one_of_build():
    # a wrong-parity label with coefficient 0 is dropped, as build drops it;
    # a nonzero one is rejected with the message of build, at its line
    header = "algebra p\ndim_even 2\ndim_odd 1\nbasis X Y F\n"
    af = parse(header + "bracket X Y = 0 F\n")
    assert af.algebra == LieSuperalgebra.build(["X", "Y"], ["F"], {("X", "Y"): {"F": 0}})
    assert af.algebra == LieSuperalgebra.abelian(["X", "Y"], ["F"])
    with pytest.raises(ParseError) as err:
        parse(header + "bracket X Y = 1/2 F\n")
    assert str(err.value) == "line 5: parity: [X,Y] has a F-component of the wrong parity"
    assert err.value.line == 5


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("bracket X Y = 1 Y\nbracket X X = 1 Y\n", 6, "antisymmetry: c[X,X] != (-1)^(|i||j|+1) c[X,X]"),
        ("bracket X Y = 1 Y\n\nbracket Y F = 1/0 F\n", 7, "bad exact scalar '1/0': Fraction(1, 0)"),
        ("form X Y = 1\nform F F = 1\n", 6, "supersymmetry: B(F,F) != (-1)^(|i||j|) B(F,F)"),
        ("form X Y = 1\nform X X = 1x\n", 6, "bad exact scalar '1x': Invalid literal for Fraction: '1x'"),
        # the constructor meets [X,Y] first in basis order, but line 5 fails on its own
        ("bracket Y Y = 1 X\nbracket X Y = 1 F\n", 5, "antisymmetry: c[Y,Y] != (-1)^(|i||j|+1) c[Y,Y]"),
        # a reversed entry is named in basis order
        ("bracket Y X = 1 F\n", 5, "parity: [X,Y] has a F-component of the wrong parity"),
    ],
    ids=["even-square", "bracket-scalar", "odd-diagonal", "form-scalar", "two-faults", "reversed-entry"],
)
def test_build_errors_carry_their_line(body, line, message):
    # the checks left to the LieSuperalgebra and BilinearForm constructors, and
    # the scalars, are reported at the first line that fails on its own, with
    # its own message
    header = "algebra p\ndim_even 2\ndim_odd 1\nbasis X Y F\n"
    with pytest.raises(ParseError) as err:
        parse(header + body)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_repeated_basis_label_rejected_at_its_line():
    with pytest.raises(ParseError) as err:
        parse("algebra p\ndim_even 2\ndim_odd 0\nbasis X X\nbracket X X = 0 X\n")
    assert str(err.value) == "line 4: basis labels must be distinct"


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        parse("algebra x\nbracket a b = 1 c\n")
    with pytest.raises(ParseError):
        parse("dim_even 1\ndim_odd 0\nbasis X\n")


def test_bad_scalar_rejected():
    text = """
algebra bad
dim_even 2
dim_odd 0
basis X Y
bracket X Y = 1/0 Y
"""
    with pytest.raises(ParseError):
        parse(text)


def test_odd_form_parity_inferred():
    af = parse(data_file("go6_7.alg").read_text())
    assert af.form.parity == "odd"
    af2 = parse(data_file("g4.alg").read_text())
    assert af2.form.parity == "even"


def test_mixed_form_pattern_rejected():
    text = """
algebra bad
dim_even 1
dim_odd 1
basis X F
form X X = 1
form X F = 1
"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "pattern" in str(err.value)


def test_complex_backend_file():
    text = """
algebra c
backend complex
dim_even 2
dim_odd 0
basis X Y
bracket X Y = 0.5 Y
form X X = 1.0
form Y Y = 1.0
"""
    af = parse(text)
    assert af.algebra.backend.name == "complex"
    assert verify_jacobi(af.algebra).ok


def test_handwritten_row_matches_catalog():
    # a hand-typed copy of the last odd dim-6 entry
    text = """
algebra go6_7_transcribed
dim_even 3
dim_odd 3
basis X0 Y0 Z0 X1 Y1 Z1
bracket X0 Y0 = 1 Y0
bracket X0 Z0 = -1/2 Z0
bracket X0 Y1 = -1 Y1
bracket Y0 Y1 = 1 X1
bracket X0 Z1 = 1/2 Z1
bracket Z0 Z1 = -1/2 X1
bracket Z1 Z1 = 1 Y0
bracket Z1 Y1 = 1 Z0
form X0 X1 = 1
form Y0 Y1 = 1
form Z0 Z1 = 1
"""
    af = parse(text)
    assert verify_jacobi(af.algebra).ok
    assert verify_form(af.algebra, af.form).ok
    ref = catalog.build("go6_7")
    assert af.algebra.c == ref.algebra.c


def test_mapfile_parsing():
    mf = parse_mapfile(
        """
map X = 1 X
map P = 1 P + 2 Q
psi X F1 = 1 F2
theta X Y = 1/2 Z
phi X Y = -1 X
""",
        ["X", "Y", "P", "Q", "Z", "F1", "F2"],
    )
    assert mf.images["P"] == {"P": "1", "Q": "2"}
    assert mf.psi["X"]["F1"] == {"F2": "1"}
    assert mf.theta[("X", "Y")] == {"Z": "1/2"}
    assert mf.phi[("X", "Y")] == {"X": "-1"}
    with pytest.raises(ParseError):
        parse_mapfile("map X = 1 W\n", ["X"])
    with pytest.raises(ParseError):
        parse_mapfile("momomap X = 1 X\n", ["X"])


from hypothesis import given, settings, strategies as st

coeff = st.fractions(min_value=-50, max_value=50, max_denominator=999983)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(coeff, min_size=3, max_size=3),
    diag=st.lists(coeff.filter(bool), min_size=2, max_size=2),
)
def test_roundtrip_random_odd_superalgebra(vals, diag):
    # abelian even part, odd squares landing in the even part, odd pairing form
    from liequad.core import BilinearForm, LieSuperalgebra

    a, b, c = vals
    alg = LieSuperalgebra.build(
        ["U", "V"],
        ["F", "G"],
        {
            ("F", "F"): {"U": a, "V": b},
            ("F", "G"): {"U": b, "V": c},
        },
    )
    form = BilinearForm.build(
        alg.space, {("U", "F"): diag[0], ("V", "G"): diag[1]}, "odd"
    )
    text = emit(alg, form, "rand")
    af = parse(text)
    assert af.algebra.c == alg.c
    assert af.form.gram == form.gram
    assert emit(af.algebra, af.form, "rand") == text

import ast
import copy
import pathlib
import pickle
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import liequad
from liequad.scalars import (
    EXACT,
    Exact,
    ScalarOverflow,
    ScalarParseError,
    complex_backend,
    format_bounded,
    _split_token,
    parse_complex,
    parse_exact,
)


def rand_fraction(rng, bound=10**6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def test_field_axioms_on_random_rational_triples():
    # associativity / commutativity / distributivity, 1000 seeded triples
    rng = random.Random(20240811)
    for _ in range(1000):
        a, b, c = (Exact(rand_fraction(rng), rand_fraction(rng)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_division_and_inverse():
    a = Exact(Fraction(3, 4), Fraction(-2, 5))
    assert a / a == Exact(1)
    assert a * (Exact(1) / a) == Exact(1)
    with pytest.raises(ZeroDivisionError):
        a / Exact(0)


def test_reduced_storage():
    x = Exact(Fraction(2, 4))
    assert x.real.numerator == 1 and x.real.denominator == 2


@given(
    n=st.integers(-10**6, 10**6),
    d=st.integers(1, 10**6),
    m=st.integers(-10**6, 10**6),
    e=st.integers(1, 10**6),
)
def test_exact_serialisation_round_trips(n, d, m, e):
    x = Exact(Fraction(n, d), Fraction(m, e))
    assert parse_exact(EXACT.format(x)) == x


@pytest.mark.parametrize(
    "token,expected",
    [
        ("3", Fraction(3)),
        ("-1/2", Exact(Fraction(-1, 2))),
        ("i", Exact(0, 1)),
        ("-i", Exact(0, -1)),
        ("2i", Exact(0, 2)),
        ("1/2+3/4i", Exact(Fraction(1, 2), Fraction(3, 4))),
        ("1-2i", Exact(1, -2)),
    ],
)
def test_parse_exact_forms(token, expected):
    assert parse_exact(token) == expected


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2e-3+1e-2i") == complex(2e-3, 1e-2)
    assert parse_complex("-0.5i") == complex(0, -0.5)
    cb = complex_backend()
    z = complex(0.1234567, -9.87e-5)
    assert cb.parse(cb.format(z)) == z


def test_parse_errors():
    with pytest.raises(ScalarParseError):
        parse_exact("abc")
    with pytest.raises(ScalarParseError):
        parse_exact("1/0")
    with pytest.raises(ScalarParseError):
        parse_complex("")


def bounded_fraction(part):
    """Fraction(part), after the exponent rule of parse_exact: the decimal
    digits before the last e or E plus the size of the integer after it may
    not exceed the int digit limit."""
    m = re.fullmatch(r"(.*)[eE]([^eE]*)", part, re.S)
    if m:
        try:
            exp = int(m[2])
        except ValueError:
            exp = 0
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if len(re.findall(r"\d", m[1])) + abs(exp) > limit:
            raise ValueError(f"exponent {exp} exceeds the limit of {limit} digits")
    return Fraction(part)


def reference_parse_exact(token):
    """parse_exact as it was before its integer fast path: every token through
    Fraction, with the exponent rule that keeps Fraction from writing out a
    huge power of ten."""
    re_s, im_s = _split_token(token)
    try:
        re_part = bounded_fraction(re_s) if re_s is not None else Fraction(0)
        im_part = bounded_fraction(im_s) if im_s is not None else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"bad exact scalar {token!r}: {exc}") from None
    return Exact(re_part, im_part)


def parse_outcome(parse, token):
    """(type, value) of a parsed token, or (error type, message)."""
    try:
        x = parse(token)
    except Exception as exc:
        return type(exc), str(exc)
    return type(x), (x.real, x.imag) if type(x) is Exact else x


PARSE_CASES = ["--3", "+-3", "1/-2", "1/0", "3/", "/3", "1_000", " 3", "\u0663", "-0/5", "+3/6", "9" * 5000]
PARSE_CASES += ["-0", "+0", "007", "6/3", "-12/8", "1 / 2", "1/2 ", "3\n", "\u00b2", "1/\u0663", "+", "-", "/", "", " "]
PARSE_CASES += ["1e5000", "0e9999999999", "1e4299", "1e4300", "-2.5E-4298", "1e-4300i", "1/2e9999", "\u00b2e4300", "1e_5"]


@pytest.mark.parametrize("token", PARSE_CASES, ids=lambda t: repr(t) if len(t) < 20 else f"{len(t)}-digit")
def test_parse_exact_matches_the_fraction_path(token):
    # the same value and type (int, Fraction or Exact), or the same error and message
    assert parse_outcome(parse_exact, token) == parse_outcome(reference_parse_exact, token)


@given(
    token=st.text("0123456789+-/.eEi_ ", max_size=12)
    | st.from_regex(r"\A[+-]?[0-9]{1,40}(/[+-]?[0-9]{0,40})?\Z")
)
def test_parse_exact_matches_the_fraction_path_on_random_tokens(token):
    assert parse_outcome(parse_exact, token) == parse_outcome(reference_parse_exact, token)


def test_exponents_past_the_digit_limit_are_refused_before_they_expand():
    # the power of ten is never written out: 0e9999999999 would take 10^10 digits
    for parse, kind in ((parse_exact, "exact"), (parse_complex, "complex")):
        for token in ("0e9999999999", "1e-5000", "1.5e4299", "2+1E5000i"):
            with pytest.raises(ScalarParseError, match=f"bad {kind} scalar .*exceeds the limit of 4300 digits"):
                parse(token)
    assert parse_exact("1e4299") == 10**4299 and parse_exact("15e-4298") == Fraction(15, 10**4298)
    assert parse_complex("1e-300") == 1e-300


@pytest.mark.parametrize("command", [["verify"], ["extend", "tstar"]])
def test_an_exponent_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    # before the bound, verify passed this file and extend tstar ended in a
    # ValueError traceback when it printed the 5001-digit coefficient
    from liequad.cli import main

    f = tmp_path / "big.alg"
    f.write_text("algebra big\ndim_even 2\ndim_odd 0\nbasis X Y\nbracket X Y = 1e5000 Y\n")
    assert main([*command, str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 5: bad exact scalar '1e5000': exponent 5000 exceeds the limit of 4300 digits\n"


def test_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    from liequad.cli import main

    f = tmp_path / "big.alg"
    f.write_text(f"algebra big\ndim_even 2\ndim_odd 0\nbasis X Y\nbracket X Y = {'9' * 5000} Y\n")
    assert main(["verify", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 5: bad exact scalar '999") and "Traceback" not in err


def test_complex_backend_zero_tolerance():
    cb = complex_backend(1e-9)
    assert cb.is_zero(5e-10)
    assert not cb.is_zero(5e-9)
    assert not EXACT.is_zero(Exact(Fraction(1, 10**12)))


# -- integral reals are ints, other reals Fractions, Gaussian ones Exact ----------

small_fraction = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
exact_value = st.one_of(
    small_fraction,
    st.integers(-50, 50),
    st.builds(Exact, small_fraction, small_fraction),
    st.builds(Exact, small_fraction, st.just(0)),
)
operand = st.one_of(st.integers(-50, 50), exact_value)


def ref_pair(x):
    """(re, im) of an int, Fraction or Exact value, as Fractions."""
    return Fraction(x.real), Fraction(x.imag)


def ref_op(op, x, y):
    (a, b), (c, d) = ref_pair(x), ref_pair(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": EXACT.div,
}


def canonical_type(pair):
    """int for an integral real, Fraction for another real, Exact otherwise."""
    if pair[1]:
        return Exact
    return int if pair[0].denominator == 1 else Fraction


def assert_result(z, pair, canonical):
    """z has the value of pair; in canonical form when an Exact or `div` made it,
    else int or Fraction as Python's arithmetic leaves it (not renormalized)."""
    assert ref_pair(z) == pair
    assert z == Exact(*pair) and hash(z) == hash(Exact(*pair))
    assert EXACT.format(z) == EXACT.format(Exact(*pair))
    if canonical:
        assert type(z) is canonical_type(pair)
    else:
        assert type(z) in (int, Fraction)


@given(x=exact_value, y=operand)
def test_mixed_arithmetic_matches_pair_reference(x, y):
    for u, v in ((x, y), (y, x)):
        for op, f in OPS.items():
            if op == "/" and not v:
                with pytest.raises(ZeroDivisionError):
                    f(u, v)
                continue
            assert_result(f(u, v), ref_op(op, u, v), op == "/" or Exact in (type(u), type(v)))
    assert_result(-x, tuple(-p for p in ref_pair(x)), type(x) is Exact)


@given(a=small_fraction)
def test_real_exact_is_a_fraction(a):
    real = canonical_type((a, 0))
    z = Exact(a, 0)
    assert type(z) is real and z == a and hash(z) == hash(a)
    assert type(EXACT.coerce(a)) is real and type(EXACT.coerce(int(a))) is int
    assert type(parse_exact(str(a))) is real
    assert type(EXACT.div(a.numerator, a.denominator)) is real
    assert EXACT.format(z) == str(a)
    assert EXACT.abs2(z) == a * a
    w = Exact(a, 1)
    assert w != a and EXACT.abs2(w) == a * a + 1
    assert (w.real, w.imag) == (a, 1)
    assert type(w.real) is Fraction and type(w.imag) is Fraction


# -- Exact against a reference on (Fraction, Fraction) pairs, at large heights ---------

HEIGHT = 10**30
big_fraction = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
big_part = st.one_of(st.just(0), st.integers(-HEIGHT, HEIGHT), big_fraction)
big_value = st.builds(Exact, big_part, big_part)  # a real one when the imaginary part is 0
big_operand = st.one_of(st.integers(-HEIGHT, HEIGHT), big_fraction, big_value)


def ref_format(pair) -> str:
    """The text of a value from its pair, as `parse_exact` reads it back."""
    a, b = pair
    if not b:
        return str(a)
    return f"{b}i" if not a else f"{a}{'+' * (b > 0)}{b}i"


def assert_matches_pair(z, pair):
    """z is the value of pair in canonical form, hashed and printed from the pair alone."""
    assert ref_pair(z) == pair and type(z) is canonical_type(pair)
    assert hash(z) == (hash(pair) if pair[1] else hash(pair[0]))
    assert EXACT.format(z) == ref_format(pair) and str(z) == ref_format(pair)


@given(x=big_value, y=big_operand)
def test_exact_matches_fraction_pairs_at_large_heights(x, y):
    for u, v in ((x, y), (y, x)):
        for op, f in OPS.items():
            if op == "/" and not v:
                with pytest.raises(ZeroDivisionError):
                    f(u, v)
                continue
            z, pair = f(u, v), ref_op(op, u, v)
            assert (z == Exact(*pair)) and (z == u) == (ref_pair(u) == pair)
            if op == "/" or Exact in (type(u), type(v)):
                assert_matches_pair(z, pair)
            else:
                assert ref_pair(z) == pair and type(z) in (int, Fraction)
    for z in (x, y):
        a, b = ref_pair(z)
        assert EXACT.abs2(z) == a * a + b * b and complex(z) == complex(float(a), float(b))
        if type(z) is Exact:  # a real operand negates and pickles as Python's own
            assert_matches_pair(-z, (-a, -b))
            for w in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
                assert_matches_pair(w, (a, b))


def test_exact_parts_past_the_digit_limit_print_bounded():
    # a real part of 4401 digits: str refuses it, format_bounded prints its head
    z = Exact(Fraction(10**4400 + 1, 3), 1)
    assert ref_pair(z * 2) == (Fraction(2 * 10**4400 + 2, 3), 2)
    with pytest.raises(ValueError):
        EXACT.format(z)
    assert format_bounded(EXACT, z) == "100000000000...(4401 digits)/3+1i"
    assert format_bounded(EXACT, z * 2) == "200000000000...(4401 digits)/3+2i"
    assert format_bounded(EXACT, -z) == "-100000000000...(4401 digits)/3-1i"


# -- exact scalars are divided only by backend.div ---------------------------------

# (module, enclosing function): number of `/` it holds
DIVISIONS_ALLOWED = {
    ("__init__.py", "data_file"): 2,  # pathlib join
    ("scalars.py", "ExactBackend.div"): 1,  # an Exact operand
    ("scalars.py", "ComplexBackend.div"): 1,
}


def divisions(path):
    """Counter of (module, enclosing function) for every `/` in the module."""
    found = Counter()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found[(path.name, scope)] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_every_division_is_on_the_allowlist():
    # `/` on two ints is a float, so an exact quotient must go through
    # backend.div; the allowlist names the few sites that use `/` directly, each
    # with its exact count, so an allowance the code no longer uses fails too
    found = Counter()
    for path in sorted(pathlib.Path(liequad.__file__).parent.glob("*.py")):
        found += divisions(path)
    assert dict(found) == DIVISIONS_ALLOWED


# -- the backends take routes of their own only in named functions -----------------

# (module, function) of each library function outside scalars.py that compares a
# backend's name: float term order or the tolerance gives the complex backend a
# route of its own there
BACKEND_BRANCHES = {
    ("catalog.py", "_mod_le_one"),
    ("catalog.py", "verify_entry"),  # the frozen fingerprints are exact
    ("conditions.py", "_leibniz_rows"),
    ("conditions.py", "_skew_rows"),
    ("core.py", "_fmt_residual"),
    ("core.py", "_graded_parts"),
    ("core.py", "is_orthogonal_complement"),
    ("core.py", "verify_form"),
    ("linalg.py", "_rref_sparse"),
}


def names_a_backend(node):
    """True for `bk.name`, `backend.name` and `<expression>.backend.name`."""
    if not (isinstance(node, ast.Attribute) and node.attr == "name"):
        return False
    owner = node.value
    return isinstance(owner, ast.Name) and owner.id in ("bk", "backend") or isinstance(owner, ast.Attribute) and owner.attr == "backend"


def backend_branches(path):
    """(module, innermost enclosing function) of every comparison on a backend's name."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Compare) and any(map(names_a_backend, [node.left, *node.comparators])):
            found.add((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_backend_name_branches_are_the_listed_ones():
    # a new branch on the backend's name must be listed here, and a listed one
    # that is gone must leave the list
    found = set()
    for path in sorted(pathlib.Path(liequad.__file__).parent.glob("*.py")):
        if path.name != "scalars.py":
            found |= backend_branches(path)
    assert found == BACKEND_BRANCHES


@pytest.mark.parametrize("x", [complex("inf"), complex("nan"), complex(1e200) * 1e200 - complex(1e200) * 1e200, complex(1.5e308, 1.5e308)])
def test_complex_non_finite_value_is_an_overflow_not_a_verdict(x):
    # inf, nan and a modulus beyond the double range are neither zero nor a
    # nonzero residual: the zero test and the pivot weight raise
    bk = complex_backend()
    with pytest.raises(ScalarOverflow):
        bk.is_zero(x)
    with pytest.raises(ScalarOverflow):
        bk.pivot_weight(x)
    assert bk.is_zero(complex(1e-10)) and not bk.is_zero(complex(1e300))

"""Scalar backends: exact Gaussian-rational numbers and tolerance-based complex floats.

All structural verification runs on the exact backend, where each value has one
canonical form: an integral real is a plain `int`, any other real a
`fractions.Fraction`, and only a value a + b*i with b != 0 is an `Exact` (with
Fraction components).  Constructors (`Exact(a, 0)`, `coerce`, `parse_exact`)
and `ExactBackend.div` return that form; sums and products of ints and
Fractions are left as Python computes them, and an integral Fraction compares,
hashes and prints like the int.  Since `/` on two ints is a float, exact
scalars are divided with `backend.div`, never with `/`.  Almost every scalar is
real; i is needed only by the orthonormal-basis presentation of the
five-dimensional simple entry.  The complex backend is ordinary `complex` plus a
zero tolerance; it serves `.alg` files with decimal coefficients and the
isometries by irrational cube roots.  A complex value that overflows to inf or
nan raises `ScalarOverflow` when it is tested, instead of deciding a check.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction

DEFAULT_TOL = 1e-9


class BackendMismatch(TypeError):
    """Raised when values from different scalar backends are combined."""


class ScalarParseError(ValueError):
    """Raised when a scalar token cannot be parsed."""


class ScalarOverflow(ArithmeticError):
    """Raised when a complex value leaves the range of a double: inf or nan is no verdict."""


_set = object.__setattr__  # sets a field of a `Frozen` value, in its __init__ only


class Frozen:
    """Base of the immutable value types: each sets its fields once, in its
    own __init__ through `_set`; assigning or deleting a field later raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the fields of a new value here; state is the
        # __dict__ or a (__dict__ or None, slot values) pair
        for fields in state if isinstance(state, tuple) else (state,):
            for name, value in (fields or {}).items():
                _set(self, name, value)


class Value(Frozen):
    """A `Frozen` value compared, hashed and printed by its fields: the names
    in the class's `_compared`, or all of its __slots__ when that is empty.
    Values of different classes are never equal."""

    __slots__ = ()
    _compared = ()

    def _fields(self) -> tuple:
        """The (name, value) pairs of the compared fields."""
        return tuple((name, getattr(self, name)) for name in self._compared or self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields())
        return f"{type(self).__name__}({fields})"


def _real(q):
    """The canonical form of an exact real: the int when q is integral."""
    return q.numerator if q.denominator == 1 else q


class Exact(Frozen):
    """Gaussian rational a + b*i with b != 0 and exact Fraction components.

    `Exact(a, 0)` and every operation with a real result return the real value
    (an int or a Fraction) instead, so an Exact is never zero (and always true)."""

    __slots__ = ("real", "imag")

    def __new__(cls, re=0, im=0):
        if not im:
            return _real(re if type(re) is Fraction else Fraction(re))
        return object.__new__(cls)

    def __init__(self, re=0, im=0):
        _set(self, "real", re if type(re) is Fraction else Fraction(re))
        _set(self, "imag", im if type(im) is Fraction else Fraction(im))

    def __getnewargs__(self):  # copy and pickle: __new__ without arguments would return 0
        return (self.real, self.imag)

    def __add__(self, other):
        a, b = _parts(other)
        return Exact(self.real + a, self.imag + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = _parts(other)
        return Exact(self.real - a, self.imag - b)

    def __rsub__(self, other):
        a, b = _parts(other)
        return Exact(a - self.real, b - self.imag)

    def __mul__(self, other):
        a, b = _parts(other)
        if not b:
            return Exact(self.real * a, self.imag * a)
        return Exact(self.real * a - self.imag * b, self.real * b + self.imag * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = _parts(other)
        if not a and not b:
            raise ZeroDivisionError("division by zero scalar")
        d = a * a + b * b
        return Exact((self.real * a + self.imag * b) / d, (self.imag * a - self.real * b) / d)

    def __rtruediv__(self, other):
        a, b = _parts(other)
        d = self.abs2()
        return Exact((a * self.real + b * self.imag) / d, (b * self.real - a * self.imag) / d)

    def __neg__(self):
        return Exact(-self.real, -self.imag)

    def __eq__(self, other):
        if isinstance(other, (Exact, int, Fraction)):
            return (self.real, self.imag) == _parts(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def abs2(self):
        """|z|^2 as a Fraction; exact, no square roots."""
        return self.real * self.real + self.imag * self.imag

    def __complex__(self):
        return complex(self.real) + 1j * complex(self.imag)

    def __repr__(self):
        return f"Exact({self})"

    def __str__(self):
        return format_exact(self)


def _parts(v):
    """(real, imaginary) parts of an exact operand."""
    if type(v) is Exact:
        return v.real, v.imag
    if isinstance(v, (int, Fraction)):
        return v, 0
    raise BackendMismatch(f"cannot mix {type(v).__name__} with exact scalars")


def format_exact(z, real=str) -> str:
    """z as `parse_exact` reads it back, each real part written by real."""
    if type(z) is not Exact:
        return real(z)
    if not z.real:
        return f"{real(z.imag)}i"
    sign = "+" if z.imag > 0 else ""
    return f"{real(z.real)}{sign}{real(z.imag)}i"


def _bounded(q) -> str:
    """str(q) for an exact real q, each int of it too long for `str` (see
    `sys.get_int_max_str_digits()`) as its sign, first 12 digits and digit count."""
    out = []
    for k in (q.numerator,) if q.denominator == 1 else (q.numerator, q.denominator):
        try:
            out.append(str(k))
        except ValueError:
            d = Decimal(k).adjusted() + 1  # Decimal converts an int of any length
            out.append(f"{'-' * (k < 0)}{abs(k) // 10 ** (d - 12)}...({d} digits)")
    return "/".join(out)


def format_bounded(backend, x) -> str:
    """backend.format(x) for a report: an exact value too long for `str` is
    written by `format_exact` with `_bounded` parts, so a verdict prints."""
    try:
        return backend.format(x)
    except ValueError:
        return format_exact(x, _bounded)


def format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    sign = "+" if z.imag >= 0 else ""
    return f"{z.real!r}{sign}{z.imag!r}i"


def _split_token(token: str):
    """Split 'a+bi' style tokens into (real_str, imag_str); either may be None."""
    token = token.strip()
    if not token:
        raise ScalarParseError("empty scalar token")
    if not token.endswith(("i", "I")):
        return token, None
    body = token[:-1]
    if body in ("", "+", "-"):
        return None, body + "1"
    # find the last top-level +/- separating real and imaginary parts
    for pos in range(len(body) - 1, 0, -1):
        ch = body[pos]
        if ch in "+-" and body[pos - 1] not in "eE+-/":
            return body[:pos], body[pos:]
    return None, body


def _fraction(s: str) -> Fraction:
    """Fraction(s), refused with ValueError before Fraction expands a decimal
    exponent: the digits before the last e or E plus the size of the exponent
    after it may not exceed the int digit limit, which bounds the integer that
    the exponent writes out (`0e9999999999` alone would take 10^10 digits)."""
    i = max(s.rfind("e"), s.rfind("E"))
    if i >= 0:
        try:
            exp = int(s[i + 1 :])
        except ValueError:
            exp = 0  # no exponent: Fraction reports the token
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if sum(c.isdecimal() for c in s[:i]) + abs(exp) > limit:
            raise ValueError(f"exponent {exp} exceeds the limit of {limit} digits")
    return Fraction(s)


def parse_exact(token: str) -> int | Fraction | Exact:
    # an ASCII integer or ratio of integers skips Fraction's regex; any other
    # token, or one that int or Fraction rejects, parses below
    num, slash, den = token.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        try:
            return _real(Fraction(int(num), int(den))) if slash else int(num)
        except (ValueError, ZeroDivisionError):
            pass
    re_s, im_s = _split_token(token)
    try:
        re = _fraction(re_s) if re_s is not None else Fraction(0)
        im = _fraction(im_s) if im_s is not None else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"bad exact scalar {token!r}: {exc}") from None
    return Exact(re, im)


def parse_complex(token: str) -> complex:
    re_s, im_s = _split_token(token)
    try:
        re = float(_fraction(re_s)) if re_s is not None else 0.0
        im = float(_fraction(im_s)) if im_s is not None else 0.0
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ScalarParseError(f"bad complex scalar {token!r}: {exc}") from None
    return complex(re, im)


class ExactBackend(Value):
    """Exact Gaussian-rational arithmetic: an integral real is a bare int, any
    other real a bare Fraction, and only values with a nonzero imaginary part
    are `Exact`.  Divide with `div`, which returns the canonical form; `/` on
    two ints would give a float.  Elimination pivots on the candidate row with
    the fewest nonzeros, and the reduced form it reaches is canonical."""

    __slots__ = ()

    name = "exact"
    zero = 0
    one = 1

    def coerce(self, v) -> int | Fraction | Exact:
        if isinstance(v, (int, Fraction)):
            return _real(v)
        if isinstance(v, Exact):
            return v
        if isinstance(v, str):
            return parse_exact(v)
        raise BackendMismatch(f"cannot coerce {type(v).__name__} to an exact scalar")

    def is_zero(self, x) -> bool:
        return not x

    def pivot_weight(self, x):
        # any nonzero entry can pivot; linalg prefers the sparsest row
        return 1 if x else 0

    def format(self, x) -> str:
        return format_exact(x)

    def parse(self, token: str) -> int | Fraction | Exact:
        return parse_exact(token)

    def div(self, a, b):
        if type(a) is Exact or type(b) is Exact:
            return a / b
        return _real(Fraction(a, b))

    def abs2(self, x):
        return x.abs2() if type(x) is Exact else x * x


class ComplexBackend(Value):
    """Double-precision complex arithmetic with a zero tolerance."""

    __slots__ = ("tol",)

    def __init__(self, tol: float = DEFAULT_TOL):
        _set(self, "tol", tol)

    name = "complex"
    zero = 0j
    one = 1 + 0j

    def coerce(self, v) -> complex:
        if isinstance(v, complex):
            return v
        if isinstance(v, (int, float, Fraction, Exact)):
            return complex(v)
        if isinstance(v, str):
            return parse_complex(v)
        raise BackendMismatch(f"cannot coerce {type(v).__name__} to a complex scalar")

    def is_zero(self, x) -> bool:
        return not self.pivot_weight(x)

    def pivot_weight(self, x):
        a = math.hypot(x.real, x.imag)
        if a < math.inf:
            return 0.0 if a <= self.tol else a
        raise ScalarOverflow(f"complex arithmetic overflowed to {format_complex(x)}: coefficients too large for a double")

    def format(self, x) -> str:
        return format_complex(x)

    def parse(self, token: str) -> complex:
        return parse_complex(token)

    def div(self, a, b):
        return a / b

    def abs2(self, x):
        return abs(x) ** 2


EXACT = ExactBackend()


def complex_backend(tol: float = DEFAULT_TOL) -> ComplexBackend:
    return ComplexBackend(tol=tol)


def same_backend(*objs):
    """Return the common backend of the given carriers, or raise BackendMismatch."""
    backends = {obj.backend.name for obj in objs}
    if len(backends) > 1:
        raise BackendMismatch(f"mixed backends: {sorted(backends)}")
    return objs[0].backend


def residual_magnitude(backend, x):
    """The key that picks the worst residual: the exact |x|^2 on the exact
    backend (no float, so no overflow), the float |x| on the complex one."""
    return backend.abs2(x) if backend.name == "exact" else abs(complex(x))

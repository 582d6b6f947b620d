"""Scalar backends: exact Gaussian-rational numbers and tolerance-based complex floats.

All structural verification runs on the exact backend, where a scalar is a + b*i
with arbitrary-precision `fractions.Fraction` components.  Almost every scalar in
the library has b = 0; the imaginary part exists because the orthonormal-basis
presentation of the five-dimensional simple entry cannot be realised inside the
plain rationals.  The complex backend is ordinary `complex` plus a zero tolerance
and is only used for isomorphisms that involve cube roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_TOL = 1e-9


class BackendMismatch(TypeError):
    """Raised when values from different scalar backends are combined."""


class ScalarParseError(ValueError):
    """Raised when a scalar token cannot be parsed."""


class Exact:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Exact scalars are immutable")

    def __add__(self, other):
        other = _as_exact(other)
        return Exact(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_exact(other)
        return Exact(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_exact(other).__sub__(self)

    def __mul__(self, other):
        other = _as_exact(other)
        if not self.im and not other.im:
            return Exact(self.re * other.re)
        return Exact(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_exact(other)
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero scalar")
        if not self.im and not other.im:
            return Exact(self.re / other.re)
        d = other.re * other.re + other.im * other.im
        return Exact(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return _as_exact(other).__truediv__(self)

    def __neg__(self):
        return Exact(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, (Exact, int, Fraction)):
            other = _as_exact(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return Exact(self.re, -self.im)

    def abs2(self):
        """|z|^2 as a Fraction; exact, no square roots."""
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"Exact({self})"

    def __str__(self):
        return format_exact(self)


def _as_exact(v):
    if isinstance(v, Exact):
        return v
    if isinstance(v, (int, Fraction)):
        return Exact(v)
    raise BackendMismatch(f"cannot mix {type(v).__name__} with exact scalars")


EXACT_ZERO = Exact(0)
EXACT_ONE = Exact(1)


def format_exact(z: Exact) -> str:
    if not z.im:
        return str(z.re)
    if not z.re:
        return f"{z.im}i"
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{z.im}i"


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


def parse_exact(token: str) -> Exact:
    re_s, im_s = _split_token(token)
    try:
        re = Fraction(re_s) if re_s is not None else Fraction(0)
        im = Fraction(im_s) if im_s is not None else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"bad exact scalar {token!r}: {exc}") from None
    return Exact(re, im)


def parse_complex(token: str) -> complex:
    re_s, im_s = _split_token(token)
    try:
        re = float(Fraction(re_s)) if re_s is not None else 0.0
        im = float(Fraction(im_s)) if im_s is not None else 0.0
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError(f"bad complex scalar {token!r}: {exc}") from None
    return complex(re, im)


@dataclass(frozen=True)
class ExactBackend:
    """Exact Gaussian-rational arithmetic; elimination pivots on the candidate
    row with the fewest nonzeros, and the reduced form it reaches is canonical."""

    name: str = "exact"

    @property
    def zero(self):
        return EXACT_ZERO

    @property
    def one(self):
        return EXACT_ONE

    def coerce(self, v) -> Exact:
        if isinstance(v, Exact):
            return v
        if isinstance(v, (int, Fraction)):
            return Exact(v)
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

    def parse(self, token: str) -> Exact:
        return parse_exact(token)

    def abs2(self, x):
        return x.abs2()


@dataclass(frozen=True)
class ComplexBackend:
    """Double-precision complex arithmetic with a zero tolerance."""

    tol: float = DEFAULT_TOL
    name: str = "complex"

    @property
    def zero(self):
        return 0j

    @property
    def one(self):
        return 1 + 0j

    def coerce(self, v) -> complex:
        if isinstance(v, complex):
            return v
        if isinstance(v, (int, float, Fraction)):
            return complex(v)
        if isinstance(v, Exact):
            return complex(v)
        if isinstance(v, str):
            return parse_complex(v)
        raise BackendMismatch(f"cannot coerce {type(v).__name__} to a complex scalar")

    def is_zero(self, x) -> bool:
        return abs(x) <= self.tol

    def pivot_weight(self, x):
        a = abs(x)
        return 0.0 if a <= self.tol else a

    def format(self, x) -> str:
        return format_complex(x)

    def parse(self, token: str) -> complex:
        return parse_complex(token)

    def abs2(self, x):
        return abs(x) ** 2


EXACT = ExactBackend()


def complex_backend(tol: float = DEFAULT_TOL) -> ComplexBackend:
    return ComplexBackend(tol=tol)


def backend_by_name(name: str, tol: float = DEFAULT_TOL):
    if name == "exact":
        return EXACT
    if name == "complex":
        return ComplexBackend(tol=tol)
    raise ValueError(f"unknown backend {name!r}")


def same_backend(*objs):
    """Return the common backend of the given carriers, or raise BackendMismatch."""
    backends = {obj.backend.name for obj in objs}
    if len(backends) > 1:
        raise BackendMismatch(f"mixed backends: {sorted(backends)}")
    return objs[0].backend


def residual_magnitude(backend, x) -> float:
    """A float magnitude for report output; exact values convert losslessly enough."""
    if isinstance(x, Exact):
        return abs(complex(x))
    return abs(x)

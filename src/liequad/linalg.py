"""Linear algebra over a scalar backend, with one sparse elimination routine.

Everything here is desk scale (dimensions below ~70).  Every elimination goes
through `_rref_sparse`, Gauss-Jordan on rows held as {column: value} dicts of
the exactly nonzero entries: derivation and cocycle systems have a handful of
nonzeros per row.  The exact backend pivots on the candidate row with the
fewest nonzeros (Markowitz's rule) to limit fill-in; the reduced form is
unique, so results do not depend on the choice.  The first consequence of
that rule is a presolve: a row with one entry is the sparsest candidate in its
column, so singleton rows pivot before the column loop, and a unit pivot skips
the division.  The float backend keeps largest-magnitude pivoting for
stability, with the row order of dense elimination.  A kernel is a list of
sparse rows, `_nullspace_rows`; the library reads these rows, and dense
vectors are built from them only by `nullspace` and `DerivationSpace.basis`.
A `Subspace` keeps its reduced-row-echelon basis as sparse rows too, each a
sorted tuple of (index, value) pairs; the library reads these rows, and its
dense `basis` is built from them on each read.  `contains` is the
span-dimension test, and `intersect` is Zassenhaus's algorithm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .scalars import Value, _real, _set, same_backend

Vector = tuple


def vec(backend, values) -> Vector:
    return tuple(backend.coerce(v) for v in values)

def zero_vec(backend, n: int) -> Vector:
    return (backend.zero,) * n

def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(c, u: Vector) -> Vector:
    return tuple(c * a for a in u)

def vec_is_zero(backend, u: Vector) -> bool:
    return all(backend.is_zero(a) for a in u)

def dot(u: Vector, v: Vector):
    """Sum of the products a * b of the coordinate pairs, in order.  On the
    exact backend a product with a zero factor is skipped, and the sum of none
    is 0.  A complex product stays in the sum, 0j included, so the float
    result keeps its signed zeros and an inf times 0 still gives nan."""
    acc = None
    for a, b in zip(u, v):
        if a and b or type(a) is complex or type(b) is complex:
            acc = a * b if acc is None else acc + a * b
    return 0 if acc is None else acc


class Matrix(Value):
    __slots__ = ("backend", "entries")  # entries: tuple of row tuples

    def __init__(self, backend, entries: tuple):
        _set(self, "backend", backend)
        _set(self, "entries", entries)

    @staticmethod
    def from_rows(backend, rows) -> "Matrix":
        ent = tuple(tuple(backend.coerce(v) for v in row) for row in rows)
        widths = {len(r) for r in ent}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        return Matrix(backend, ent)

    @staticmethod
    def identity(backend, n: int) -> "Matrix":
        z, o = backend.zero, backend.one
        return Matrix(backend, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(backend, rows: int, cols: int) -> "Matrix":
        z = backend.zero
        return Matrix(backend, tuple((z,) * cols for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        same_backend(self, other)
        return Matrix(self.backend, tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        same_backend(self, other)
        return Matrix(self.backend, tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.backend, tuple(tuple(-v for v in r) for r in self.entries))

    def scale(self, c) -> "Matrix":
        c = self.backend.coerce(c)
        return Matrix(self.backend, tuple(vec_scale(c, r) for r in self.entries))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            same_backend(self, other)
            if self.cols != other.rows:
                raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
            cols = [other.col(j) for j in range(other.cols)]
            return Matrix(self.backend, tuple(tuple(dot(r, c) for c in cols) for r in self.entries))
        return self.scale(other)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(dot(r, v) for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.backend, tuple(self.col(j) for j in range(self.cols)))

    def trace(self):
        acc = self.backend.zero
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        bk = self.backend
        return all(bk.is_zero(v) for r in self.entries for v in r)

    def __repr__(self):
        body = "; ".join(" ".join(self.backend.format(v) for v in r) for r in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


def _rref_sparse(backend, rows: list, ncols: int) -> tuple:
    """Gauss-Jordan elimination on sparse rows, reducing the given dicts in place.

    Rows are {column: value} dicts holding only exactly nonzero entries.  Returns
    (pivot columns, the reduced pivot rows in pivot order, the rows left over).
    Columns are taken in order, as in dense elimination.  A row is eliminated
    where its entry is nonzero to the backend, and an entry is dropped only when
    it is exactly zero.  The exact backend pivots on the candidate with the
    fewest nonzeros.  A row with one entry is such a candidate, so the exact
    backend first presolves singleton rows: each becomes {c: 1}, column c is
    deleted from every other row, and a row left with one entry follows in
    turn; no later pivot row holds c, so its pivot eliminates nothing.  A pivot equal to int 1 is not divided by.  The float backend takes
    the largest pivot weight, the first in row order on a tie, and moves the
    first pending row into the pivot's slot like a dense row swap, so its
    pivots and values are those of dense elimination.
    """
    exact = backend.name == "exact"
    is_zero, weight, one, zero = backend.is_zero, backend.pivot_weight, backend.one, backend.zero
    nrows = len(rows)
    where = [set() for _ in range(ncols)]  # where[c] = rows with an entry in column c
    for i, row in enumerate(rows):
        for c in row:
            where[c].add(i)
    presolved = {}  # column -> its singleton pivot row, already {column: 1}
    stack = [i for i, row in enumerate(rows) if len(row) == 1] if exact else []
    while stack:
        i = stack.pop()
        row = rows[i]
        if len(row) != 1:
            continue  # emptied by an earlier singleton in its column
        (c,) = row
        row[c], presolved[c] = 1, i
        for k in where[c]:
            if k != i:
                del rows[k][c]
                if len(rows[k]) == 1:
                    stack.append(k)
        where[c] = {i}
    order = list(range(nrows))  # order[s] = row in slot s; slots below r hold pivots
    slot = list(range(nrows))
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = presolved.get(c)
        if best is None:
            cands = [i for i in where[c] if slot[i] >= r and (exact or weight(rows[i][c]))]
            if not cands:
                continue
            if len(cands) == 1:
                best = cands[0]
            elif exact:  # the sparsest candidate limits fill-in
                best = min(cands, key=lambda i: (len(rows[i]), slot[i]))
            else:  # the largest weight, the first in row order on a tie
                best = min(cands, key=lambda i: (-weight(rows[i][c]), slot[i]))
        s, moved = slot[best], order[r]  # swap the rows in slots r and s
        order[r], order[s] = best, moved
        slot[best], slot[moved] = r, s
        pivots.append(c)
        r += 1
        if c in presolved:
            continue  # a presolved row is {c: 1}, and no other row holds column c
        prow = rows[best]
        p = prow[c]
        if type(p) is not int or p != 1:  # a unit pivot needs no scaling
            inv = backend.div(one, p)
            for j, v in list(prow.items()):
                v = inv * v
                if type(v) is Fraction:
                    v = _real(v)  # an integral result is kept as its int
                if v:
                    prow[j] = v
                else:
                    del prow[j]
                    where[j].discard(best)
        for i in list(where[c]):
            if i == best:
                continue
            row = rows[i]
            f = row[c]
            if is_zero(f):
                continue
            for j, b in prow.items():
                v = row.get(j, zero) - f * b
                if v:
                    if j not in row:
                        where[j].add(i)
                    row[j] = v
                elif j in row:
                    del row[j]
                    where[j].discard(i)
    return tuple(pivots), [rows[i] for i in order[:r]], [rows[i] for i in order[r:]]


def _sparse_row(values) -> dict:
    return {j: x for j, x in enumerate(values) if x}


def _dense_row(backend, pairs, ncols: int) -> Vector:
    """The vector with the (index, value) pairs as its entries, zero elsewhere."""
    out = [backend.zero] * ncols
    for j, x in pairs:
        out[j] = x
    return tuple(out)


def rref(m: Matrix):
    """Reduced row echelon form; returns (Matrix, pivot column indices)."""
    pivots, reduced, rest = _rref_sparse(m.backend, [_sparse_row(r) for r in m.entries], m.cols)
    return Matrix(m.backend, tuple(_dense_row(m.backend, r.items(), m.cols) for r in reduced + rest)), pivots


def rank(m: Matrix) -> int:
    return len(_rref_sparse(m.backend, [_sparse_row(r) for r in m.entries], m.cols)[0])


def solve_linear(a: Matrix, b: Sequence) -> Optional[Vector]:
    """One solution x of A x = b, or None if the system is inconsistent."""
    bk = a.backend
    b = vec(bk, b)
    if a.rows != len(b):
        raise ValueError(f"A has {a.rows} rows but b has {len(b)} entries")
    pivots, reduced, _ = _rref_sparse(bk, [_sparse_row(row + (bv,)) for row, bv in zip(a.entries, b)], a.cols + 1)
    if a.cols in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [bk.zero] * a.cols
    for c, row in zip(pivots, reduced):
        x[c] = row.get(a.cols, bk.zero)
    return tuple(x)


def _nullspace_rows(backend, rows: list, ncols: int) -> list:
    """Kernel basis of the sparse rows, one {column: value} row per free column
    fc: -x at each pivot column whose reduced row holds x at fc, then fc: 1."""
    pivots, reduced, _ = _rref_sparse(backend, rows, ncols)
    pivset = set(pivots)
    kernel = {fc: {} for fc in range(ncols) if fc not in pivset}
    for pc, row in zip(pivots, reduced):
        for j, x in row.items():
            if j in kernel:
                kernel[j][pc] = -x
    return [{**v, fc: backend.one} for fc, v in kernel.items()]


def nullspace(a: Matrix) -> list:
    """Basis of the kernel of A, one vector per free column."""
    kernel = _nullspace_rows(a.backend, [_sparse_row(r) for r in a.entries], a.cols)
    return [_dense_row(a.backend, r.items(), a.cols) for r in kernel]


def _span_basis(backend, rows: list, ambient_dim: int) -> list:
    """The reduced rows spanning the sparse rows, which it reduces in place."""
    _, reduced, rest = _rref_sparse(backend, rows, ambient_dim)
    # on the float backend a reduced row can end up below the tolerance, and a
    # left-over row can keep entries above it
    return [r for r in reduced + rest if r and not all(map(backend.is_zero, r.values()))]


def _span_rows(backend, rows: list, ambient_dim: int) -> "Subspace":
    """Span of the sparse rows, which it reduces in place."""
    basis = _span_basis(backend, rows, ambient_dim)
    return Subspace(backend, ambient_dim, tuple(tuple(sorted(r.items())) for r in basis))


class Subspace(Value):
    """Row span held as its reduced row echelon basis, one sparse row per
    basis vector: a tuple of the (index, value) pairs of its exactly nonzero
    entries, in increasing index.

    `basis`, the rows as dense vectors, is rebuilt on each read.  Equal rows
    span the same space; otherwise equality is containment of one basis in
    the other span, of equal dimension, within the backend tolerance.  An
    exact reduced echelon basis is canonical, so there rows that differ span
    different spaces and the containment test says so."""

    __slots__ = ("backend", "ambient_dim", "rows")

    def __init__(self, backend, ambient_dim: int, rows: tuple):
        _set(self, "backend", backend)
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "rows", rows)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return self.rows == other.rows or all(other.contains(v) for v in self.basis)

    __hash__ = None

    @staticmethod
    def span(backend, vectors, ambient_dim: int) -> "Subspace":
        vectors = [vec(backend, v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return _span_rows(backend, [_sparse_row(v) for v in vectors], ambient_dim)

    @staticmethod
    def full(backend, n: int) -> "Subspace":
        return Subspace(backend, n, tuple(((i, backend.one),) for i in range(n)))

    @staticmethod
    def zero(backend, n: int) -> "Subspace":
        return Subspace(backend, n, ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple:
        """The rows as dense vectors, rebuilt on each access."""
        return tuple(_dense_row(self.backend, r, self.ambient_dim) for r in self.rows)

    def contains(self, v: Sequence) -> bool:
        """True when adding v leaves the dimension of the span unchanged."""
        v = vec(self.backend, v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        rows = [dict(r) for r in self.rows] + [_sparse_row(v)]
        return len(_span_basis(self.backend, rows, self.ambient_dim)) == self.dim

    def sum_with(self, other: "Subspace") -> "Subspace":
        return _span_rows(self.backend, [dict(r) for r in self.rows + other.rows], self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the reduced rows of (u | u), u in self, and (w | 0), w in
        other, whose pivot lies in the second half span the intersection there."""
        n = self.ambient_dim
        rows = [dict(r + tuple((n + j, x) for j, x in r)) for r in self.rows]
        rows += [dict(w) for w in other.rows]
        pivots, reduced, _ = _rref_sparse(self.backend, rows, 2 * n)
        meet = [{j - n: x for j, x in r.items() if j >= n} for c, r in zip(pivots, reduced) if c >= n]
        return _span_rows(self.backend, meet, n)


# -- eigen-structure of a square matrix, read off its minimal polynomial ---------

class EigenStructure(Value):
    __slots__ = ("is_nilpotent", "is_semisimple")

    def __init__(self, is_nilpotent: bool, is_semisimple: bool):
        _set(self, "is_nilpotent", is_nilpotent)
        _set(self, "is_semisimple", is_semisimple)


def minimal_polynomial(a: Matrix) -> list:
    """Monic minimal polynomial, coefficients low to high: the first power A^k
    that is a combination of I, A, ..., A^(k-1), on either backend."""
    bk = a.backend
    n = a.rows
    powers = [Matrix.identity(bk, n)]
    while True:
        k = len(powers)
        cols = [tuple(p.entries[i][j] for i in range(n) for j in range(n)) for p in powers]
        target = powers[-1] * a
        tvec = tuple(target.entries[i][j] for i in range(n) for j in range(n))
        m = Matrix(bk, tuple(tuple(c[i] for c in cols) for i in range(n * n)))
        sol = solve_linear(m, tvec)
        if sol is not None:
            # A^k = sum sol_i A^i  ->  x^k - sum sol_i x^i
            return [-s for s in sol] + [bk.one]
        powers.append(target)
        if k > n:
            raise RuntimeError("minimal polynomial search exceeded matrix size")


def _poly_deriv(backend, p: list) -> list:
    return [backend.coerce(i) * p[i] for i in range(1, len(p))]


def _poly_mod(backend, a: list, b: list) -> list:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        if backend.is_zero(a[-1]):
            a.pop()
            continue
        f = backend.div(a[-1], lb)
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = a[shift + i] - f * bi
        a.pop()
    while a and backend.is_zero(a[-1]):
        a.pop()
    return a


def _poly_gcd_degree(backend, a: list, b: list) -> int:
    while b:
        a, b = b, _poly_mod(backend, a, b)
    return len(a) - 1


def eigen_structure(a: Matrix) -> EigenStructure:
    """Nilpotency and semisimplicity of a square matrix of any size, read off
    its minimal polynomial p: A is nilpotent exactly when p is a power of x,
    and semisimple exactly when p is squarefree, that is when gcd(p, p') is a
    constant.  Both backends take this one path; the complex backend decides
    each zero test within its tolerance.
    """
    if a.rows != a.cols:
        raise ValueError("eigen_structure needs a square matrix")
    bk = a.backend
    p = minimal_polynomial(a)
    nilpotent = all(bk.is_zero(c) for c in p[:-1])
    semisimple = _poly_gcd_degree(bk, p, _poly_deriv(bk, p)) == 0
    return EigenStructure(is_nilpotent=nilpotent, is_semisimple=semisimple)

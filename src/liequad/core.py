"""Graded vector spaces, structure-constant superalgebras and invariant forms.

Conventions, fixed project-wide:

* basis order is the even block first, then the odd block;
* the structure constants are stored sparse: nz[i][j] lists the nonzero
  (k, x) pairs of [e_i, e_j] = sum_k x e_k in increasing k, both
  orientations; `_nz` is the table without the entries zero to the backend
  tolerance, and the dense c[i][j][k] is a view rebuilt on each access;
* every table and form is normal: the raw constructors, which `build` and
  `relabel` call, are the one place that checks it.  They drop a table's
  exact zeros and refuse a term of the wrong parity, a broken graded mirror
  (a nonzero even square among them) and a Gram entry off its parity pattern
  or not supersymmetric, each judged by `backend.is_zero`.  On the exact
  backend `_nz` is `nz`; on the complex one an even square [x, x] or an odd
  diagonal B(x, x) is refused when twice it is above the tolerance, and so is
  a mirror zero to it where its entry is not, so `_nz` has one support per pair;
* ad(e_i) is the matrix whose j-th column holds the coordinates of [e_i, e_j]
  (matrices act on column coordinate vectors);
* supersymmetry of a form means B(y, x) = (-1)^{|x||y|} B(x, y); an even form
  vanishes between blocks of different parity, an odd form vanishes on blocks
  of equal parity.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence, Tuple

from .conditions import _flat, _invariance_rows, failures
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _dense_row,
    _nullspace_rows,
    _rref_sparse,
    _span_basis,
    _span_rows,
    _sparse_row,
    dot,
    rank,
    vec,
)
from .report import Report
from .scalars import EXACT, Frozen, Value, _set, format_bounded, residual_magnitude, same_backend


class StructureError(ValueError):
    """Structure constants or form entries violate a structural invariant."""


class SuperSpace(Value):
    __slots__ = ("dim_even", "dim_odd", "labels")

    def __init__(self, dim_even: int, dim_odd: int, labels: Tuple[str, ...]):
        if len(labels) != dim_even + dim_odd:
            raise StructureError("label count does not match dim_even + dim_odd")
        if len(set(labels)) != len(labels):
            raise StructureError("basis labels must be distinct")
        _set(self, "dim_even", dim_even)
        _set(self, "dim_odd", dim_odd)
        _set(self, "labels", labels)

    @staticmethod
    def make(even: Sequence[str], odd: Sequence[str] = ()) -> "SuperSpace":
        return SuperSpace(len(even), len(odd), tuple(even) + tuple(odd))

    @property
    def dim(self) -> int:
        return self.dim_even + self.dim_odd

    def parity(self, i: int) -> int:
        return 0 if i < self.dim_even else 1

    def pairs(self) -> list:
        """(i, j) of one orientation per unordered pair, as the bracket and form
        tables hold them: i < j, and i == j on an odd i."""
        n = self.dim
        return [(i, j) for i in range(n) for j in range(i + 1 - self.parity(i), n)]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown basis label {label!r}") from None


def _graded_sign(space: SuperSpace, i: int, j: int) -> int:
    """(-1)^{|e_i||e_j|}: -1 when both basis vectors are odd, else 1."""
    return -1 if space.parity(i) and space.parity(j) else 1


def format_vector(backend, space: SuperSpace, v: Vector) -> str:
    """Render coordinates as a signed combination of basis labels."""
    terms = []
    for x, label in zip(v, space.labels):
        if backend.is_zero(x):
            continue
        s = format_bounded(backend, x)
        if s == "1":
            terms.append(("+", label))
        elif s == "-1":
            terms.append(("-", label))
        elif s.startswith("-"):
            terms.append(("-", f"{s[1:]} {label}"))
        else:
            terms.append(("+", f"{s} {label}"))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, t in terms[1:]:
        out += f" {sign} {t}"
    return out


BracketTable = Mapping[Tuple[str, str], Mapping[str, object]]


class LieSuperalgebra(Value):
    # nz[i][j] = nonzero (k, x) pairs of [e_i, e_j]; _nz, the view without the
    # entries zero to the backend, is derived and left out of ==, hash and repr
    __slots__ = ("space", "backend", "nz", "_nz")
    _compared = ("space", "backend", "nz")

    def __init__(self, space: SuperSpace, backend, nz: tuple):
        is_zero = backend.is_zero
        view = nz
        if any(is_zero(x) for block in nz for row in block for _, x in row):
            # an exact zero is zero to the backend, so only then can nz hold one
            nz = tuple(tuple(tuple(p for p in row if p[1]) for row in block) for block in nz)
            view = tuple(tuple(tuple(p for p in row if not is_zero(p[1])) for row in block) for block in nz)
        for msg in _violations(space, backend, nz):  # normal: the first violation refused
            raise StructureError(msg)
        _set(self, "space", space)
        _set(self, "backend", backend)
        _set(self, "nz", nz)
        _set(self, "_nz", view)

    # -- construction ---------------------------------------------------------

    @staticmethod
    def build(
        even: Sequence[str],
        odd: Sequence[str] = (),
        brackets: BracketTable = (),
        backend=EXACT,
    ) -> "LieSuperalgebra":
        """Build from one orientation per unordered pair; the graded-antisymmetric
        counterpart is filled in automatically.  The constructor checks the rest
        and names the first faulty pair in basis order."""
        space = SuperSpace.make(even, odd)
        n = space.dim
        table = [[None] * n for _ in range(n)]
        brackets = dict(brackets or {})
        for (la, lb), value in brackets.items():
            i, j = space.index(la), space.index(lb)
            terms = {}  # {index: coefficient}; the pairs keep the exact nonzeros, by index
            for label, coeff in dict(value).items():
                x = backend.coerce(coeff)
                terms[space.index(label)] = x
            pairs = tuple((k, terms[k]) for k in sorted(terms) if terms[k])
            if table[i][j] is not None:  # set as the counterpart of (lb, la)
                raise StructureError(
                    f"both orientations of the pair ({la},{lb}) specified; "
                    "graded antisymmetry fixes the second one"
                )
            table[i][j] = pairs
            if i != j:
                sign = -_graded_sign(space, i, j)
                table[j][i] = tuple((k, sign * x) for k, x in pairs)
        return LieSuperalgebra(space, backend, tuple(tuple(row or () for row in block) for block in table))

    def table(self) -> dict:
        """The inverse of `build`: {(a, b): {label: coefficient}} over
        `space.pairs()`, the terms nonzero to the backend only; a pair whose
        bracket vanishes is left out."""
        labels, nz = self.labels, self._nz
        return {
            (labels[i], labels[j]): {labels[k]: x for k, x in nz[i][j]} for i, j in self.space.pairs() if nz[i][j]
        }

    @staticmethod
    def abelian(even: Sequence[str], odd: Sequence[str] = (), backend=EXACT) -> "LieSuperalgebra":
        return LieSuperalgebra.build(even, odd, {}, backend)

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.space.labels

    def parity(self, i: int) -> int:
        return self.space.parity(i)

    @property
    def c(self) -> tuple:
        """Dense view c[i][j] = coordinate tuple of [e_i, e_j], rebuilt on each access."""
        return tuple(tuple(_dense_row(self.backend, row, self.dim) for row in block) for block in self.nz)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return _dense_row(self.backend, self.nz[i][j], self.dim)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        bk = self.backend
        return _dense_row(bk, _bracket(self._nz, _pairs(bk, vec(bk, u)), _pairs(bk, vec(bk, v))).items(), self.dim)

    def ad(self, i: int) -> Matrix:
        """Matrix of [e_i, -], images in columns."""
        return Matrix(self.backend, tuple(zip(*(self.bracket_basis(i, j) for j in range(self.dim)))))

    def ad_vector(self, v: Vector) -> Matrix:
        """Matrix of [v, -], images in columns."""
        bk, n = self.backend, self.dim
        x = _pairs(bk, vec(bk, v))
        cols = (_dense_row(bk, _bracket(self._nz, x, ((j, bk.one),)).items(), n) for j in range(n))
        return Matrix(bk, tuple(zip(*cols)))

    def relabel(self, mapping: Mapping[str, str]) -> "LieSuperalgebra":
        labels = tuple(mapping.get(l, l) for l in self.labels)
        return LieSuperalgebra(SuperSpace(self.space.dim_even, self.space.dim_odd, labels), self.backend, self.nz)

    def format_vector(self, v: Vector) -> str:
        return format_vector(self.backend, self.space, v)

    def __repr__(self):
        return f"LieSuperalgebra(dim_even={self.space.dim_even}, dim_odd={self.space.dim_odd}, labels={self.labels})"


def _violations(space: SuperSpace, backend, nz):
    """Messages of the violations of nz over the pairs (i, j) in turn: each
    term of [e_i, e_j] of the wrong parity, then c[j][i] != (-1)^(|i||j|+1)
    c[i][j].  Every stored entry counts, also one below the tolerance: two of
    them can differ by more than it.  A coordinate zero to the backend in one
    orientation only breaks the mirror too, so `_nz` has one support per pair."""
    ne, labels, zero, is_zero = space.dim_even, space.labels, backend.zero, backend.is_zero
    for i, block in enumerate(nz):
        for j, row in enumerate(block):
            mirror = nz[j][i]
            if not (row or mirror):
                continue
            odd = (i >= ne) != (j >= ne)
            for k, x in row:
                if (k >= ne) != odd and not is_zero(x):
                    yield f"parity: [{labels[i]},{labels[j]}] has a {labels[k]}-component of the wrong parity"
            sign = 1 if i >= ne and j >= ne else -1
            if mirror == (row if sign == 1 else tuple([(k, -x) for k, x in row])):
                continue
            cij, cji = dict(row), dict(mirror)
            pairs = [(cij.get(k, zero), cji.get(k, zero)) for k in cij.keys() | cji.keys()]
            if any(not is_zero(y - sign * x) or is_zero(x) != is_zero(y) for x, y in pairs):
                yield f"antisymmetry: c[{labels[j]},{labels[i]}] != (-1)^(|i||j|+1) c[{labels[i]},{labels[j]}]"


class BilinearForm(Frozen):
    # no __slots__: the cached _rank and _sparse live in the instance __dict__

    def __init__(self, space: SuperSpace, backend, parity: str, gram: Matrix):
        for msg in _form_violations(space, backend, parity, gram.entries):  # normal: the first violation refused
            raise StructureError(msg)
        _set(self, "space", space)
        _set(self, "backend", backend)
        _set(self, "parity", parity)  # "even" | "odd"
        _set(self, "gram", gram)

    @staticmethod
    def build(space: SuperSpace, entries: Mapping[Tuple[str, str], object], parity: str = "even", backend=EXACT) -> "BilinearForm":
        if parity not in ("even", "odd"):
            raise StructureError("form parity must be 'even' or 'odd'")
        n = space.dim
        g = [[backend.zero] * n for _ in range(n)]
        seen = set()
        for (la, lb), coeff in dict(entries).items():
            i, j = space.index(la), space.index(lb)
            x = backend.coerce(coeff)
            if (j, i) in seen:
                raise StructureError(f"both orientations of form pair ({la},{lb}) specified")
            seen.add((i, j))
            g[i][j] = x
            if i != j:
                g[j][i] = _graded_sign(space, i, j) * x
        return BilinearForm(space, backend, parity, Matrix(backend, tuple(tuple(r) for r in g)))

    def table(self) -> dict:
        """The inverse of `build`: {(a, b): value} for a at or before b in the
        basis, the entries nonzero to the backend only."""
        g, labels, is_zero = self.gram.entries, self.space.labels, self.backend.is_zero
        n = len(labels)
        return {(labels[i], labels[j]): g[i][j] for i in range(n) for j in range(i, n) if not is_zero(g[i][j])}

    def value(self, u: Vector, v: Vector):
        return dot(vec(self.backend, u), self.gram.apply(vec(self.backend, v)))

    @cached_property
    def _rank(self) -> int:
        """Rank of the Gram matrix, computed once per form."""
        return rank(self.gram)

    @cached_property
    def _sparse(self) -> tuple:
        """(rows, cols) of the Gram matrix, computed once per form: rows[i] lists
        the (j, g[i][j]) and cols[j] the (i, g[i][j]) of its exactly nonzero
        entries, in increasing index.  The exact backend sums over these."""
        rows = tuple(tuple((j, x) for j, x in enumerate(r) if x) for r in self.gram.entries)
        cols = [[] for _ in rows]
        for i, r in enumerate(rows):
            for j, x in r:
                cols[j].append((i, x))
        return rows, tuple(map(tuple, cols))

    def is_nondegenerate(self) -> bool:
        return self._rank == self.space.dim

    def relabel(self, space: SuperSpace) -> "BilinearForm":
        return BilinearForm(space, self.backend, self.parity, self.gram)


def _form_violations(space: SuperSpace, backend, parity: str, g):
    """Messages of the Gram entries over the pairs i <= j in turn: g[i][j]
    nonzero to the backend off the form's parity pattern, then g[j][i] -
    (-1)^(|i||j|) g[i][j] nonzero to it, tested only when the two differ
    exactly (an exactly mirrored inf passes), then g[j][i] off the pattern,
    which only a tolerance lets through the first two."""
    ne, labels, odd, is_zero = space.dim_even, space.labels, parity == "odd", backend.is_zero
    for i, row in enumerate(g):
        for j in range(i, len(row)):
            x, y = row[j], g[j][i]
            off = ((i >= ne) != (j >= ne)) != odd
            if off and not is_zero(x):
                yield f"form entry ({labels[i]},{labels[j]}) violates the {parity} parity pattern"
            mirror = -x if i >= ne else x  # j >= i, so e_j is odd when e_i is
            if y != mirror and not is_zero(y - mirror):
                yield f"supersymmetry: B({labels[j]},{labels[i]}) != (-1)^(|i||j|) B({labels[i]},{labels[j]})"
            if off and j > i and not is_zero(y):
                yield f"form entry ({labels[j]},{labels[i]}) violates the {parity} parity pattern"


class QuadraticAlgebra(Frozen):
    __slots__ = ("algebra", "form", "verified")

    def __init__(self, algebra: LieSuperalgebra, form: BilinearForm, verified: Report = None):
        _set(self, "algebra", algebra)
        _set(self, "form", form)
        _set(self, "verified", verified)

    @staticmethod
    def build(algebra: LieSuperalgebra, form: BilinearForm) -> "QuadraticAlgebra":
        rep = Report()
        rep.extend(verify_jacobi(algebra))
        rep.extend(verify_form(algebra, form))
        rep.raise_if_failed(StructureError)
        return QuadraticAlgebra(algebra, form, rep)

    @property
    def backend(self):
        return self.algebra.backend

    @property
    def space(self) -> SuperSpace:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.dim


# -- axiom verification --------------------------------------------------------


def _fmt_residual(backend, value) -> str:
    return format_bounded(backend, value) if backend.name == "exact" else repr(residual_magnitude(backend, value))


def verify_jacobi(alg: LieSuperalgebra) -> Report:
    """Graded Jacobi identity on all unordered basis triples.

    Only the triples {a, b, c} with some e_m in the support of [e_b, e_c] and
    [e_a, e_m] != 0 are evaluated: on every other triple each of the three
    terms is an empty sum, so it cannot fail.  One orientation of [e_b, e_c]
    is read: the constructor gives both the same support in the tolerance
    view `_nz`.  The triples are evaluated in sorted (i, j, k)
    order, the order of the loop over all of them, so the report is the same.
    Every failing triple becomes its own report entry carrying the largest
    residual component; a clean run collapses to a single passing check.
    """
    bk, sp, n = alg.backend, alg.space, alg.dim
    rep = Report()
    law = "graded Jacobi identity"
    nz = alg._nz
    left = [[a for a in range(n) if nz[a][m]] for m in range(n)]  # left[m]: the a with [e_a, e_m] != 0
    triples = set()
    for x in range(n):
        for y in range(x, n):
            for m, _ in nz[x][y]:
                for a in left[m]:
                    triples.add((a, x, y) if a <= x else (x, a, y) if a <= y else (x, y, a))
    fails = 0
    for i, j, k in sorted(triples):
        # s1 [e_i,[e_j,e_k]] + s2 [e_j,[e_k,e_i]] + s3 [e_k,[e_i,e_j]] with
        # s1 = (-1)^{|i||k|} and so on, over the nonzero structure constants only
        term = {}
        for a, inner, b in ((i, nz[j][k], k), (j, nz[k][i], i), (k, nz[i][j], j)):
            negate = _graded_sign(sp, a, b) < 0
            for l, x in _combine(inner, nz[a]).items():
                if negate:
                    x = -x
                term[l] = term[l] + x if l in term else x
        if not all(bk.is_zero(x) for x in term.values()):
            fails += 1
            full = tuple(term.get(l, bk.zero) for l in range(n))
            worst = max(full, key=lambda x: residual_magnitude(bk, x))
            rep.add(
                f"jacobi({sp.labels[i]},{sp.labels[j]},{sp.labels[k]})",
                law,
                False,
                residual=_fmt_residual(bk, worst),
                witness=alg.format_vector(full),
            )
    if fails == 0:
        rep.add("jacobi", law, True, residual=_fmt_residual(bk, bk.zero))
    return rep


def _pairs(backend, v: Vector) -> list:
    """(index, value) pairs of the coordinates of v that are nonzero to the backend."""
    return [(i, a) for i, a in enumerate(v) if not backend.is_zero(a)]


def _bracket(nz, x, y) -> dict:
    """[x, y] = sum of a * b * c_ij over the (i, a) pairs of x and the (j, b)
    pairs of y, as {k: value}: each k adds up its products (a * b) * c in the
    order of i, then j.  nz is a sparse structure-constant table."""
    out = {}
    for i, a in x:
        row = nz[i]
        for j, b in y:
            ab = a * b
            for k, c in row[j]:
                p = ab * c
                out[k] = out[k] + p if k in out else p
    return out


def _combine(coeffs, rows) -> dict:
    """Sum of x * rows[m] over the (m, x) pairs of coeffs, as {index: value}.

    Rows are (index, value) pairs.  Each index adds up its terms in increasing
    m, the order of the dense sum, so float results agree with it bit for bit.
    """
    out = {}
    for m, x in coeffs:
        for l, y in rows[m]:
            p = x * y
            out[l] = out[l] + p if l in out else p
    return out


def _check_fits(alg: LieSuperalgebra, form: BilinearForm) -> None:
    """Raise unless the form shares the algebra's backend (`BackendMismatch`)
    and its dimension dim_even|dim_odd (`StructureError`)."""
    same_backend(alg, form)
    if (form.space.dim_even, form.space.dim_odd) != (alg.space.dim_even, alg.space.dim_odd):
        raise StructureError("form dimension does not match the algebra")


def verify_form(alg: LieSuperalgebra, form: BilinearForm) -> Report:
    """Supersymmetry, parity pattern, non-degeneracy and invariance of a form
    that fits the algebra (`_check_fits`).

    The constructor refused a form off the first two, so they pass.  The
    exact backend sums invariance straight from the nonzero structure
    constants and Gram entries (`_invariance_failures`); the complex backend
    evaluates the rows of `conditions` with `failures`, whose order of terms
    fixes its float bits."""
    _check_fits(alg, form)
    bk, n, labels = alg.backend, alg.dim, alg.labels
    rep = Report()
    rep.add("supersymmetry", "supersymmetry B(y,x) = (-1)^{|x||y|} B(x,y)", True)
    rep.add("parity-pattern", f"{form.parity} form parity block pattern", True)
    nondeg = form.is_nondegenerate()
    witness = None if nondeg else f"rank {form._rank} < dim {n}"
    rep.add("non-degeneracy", "non-degeneracy of the invariant form", nondeg, witness=witness)

    if bk.name == "exact":
        fails = _invariance_failures(alg.nz, form)
    else:
        # the rows read the stored table nz: a structure constant below the
        # tolerance still counts, since a large Gram entry can scale it above it
        fails = failures(bk, _invariance_rows(alg.nz, form.gram), _flat(form.gram))
    law = "invariance B([x,y],z) = B(x,[y,z])"
    for key, value in fails:
        rep.add(f"invariance({','.join(labels[i] for i in key)})", law, False, residual=_fmt_residual(bk, value))
    if not fails:
        rep.add("invariance", law, True)
    return rep


def _invariance_failures(nz, form: BilinearForm) -> list:
    """((i, j, k), r) of every r = B([e_i,e_j],e_k) - B(e_i,[e_j,e_k]) != 0, in
    increasing (i, j, k): the invariance check of the exact backend.

    Each structure constant x = c[i][j][l] of the table nz adds x g[l][k] at
    (i, j, k) over the nonzero g[l][k], and takes x g[h][l] away at (h, i, j)
    over the nonzero g[h][l]; no row is built.  An exact sum does not depend on
    the order of its terms, so the keys and residuals are those that `failures`
    finds on the rows of `conditions._invariance_rows`."""
    n = len(nz)
    nn = n * n
    rows, cols = form._sparse
    acc = {}  # key (i * n + j) * n + k of (i, j, k) -> its residual
    for i, block in enumerate(nz):
        for j, pairs in enumerate(block):
            m = i * n + j
            for l, x in pairs:
                for k, y in rows[l]:
                    key = m * n + k
                    acc[key] = acc[key] + x * y if key in acc else x * y
                for h, y in cols[l]:
                    key = h * nn + m
                    acc[key] = acc[key] - x * y if key in acc else -(x * y)
    return [((key // nn, key // n % n, key % n), acc[key]) for key in sorted(k for k, v in acc.items() if v)]


# -- structural subspaces --------------------------------------------------------


def center(alg: LieSuperalgebra) -> Subspace:
    """Joint kernel of all right-bracket maps v -> [v, e_j], read from the
    tolerance view `_nz` as `bracket` reads it."""
    bk, n = alg.backend, alg.dim
    rows = [{} for _ in range(n * n)]  # row j*n+k holds the (i, c[i][j][k])
    for i, block in enumerate(alg._nz):
        for j, pairs in enumerate(block):
            for k, x in pairs:
                rows[j * n + k][i] = x
    return _span_rows(bk, _nullspace_rows(bk, rows, n), n)


def graded_center_basis(alg: LieSuperalgebra):
    """Center basis split into (even, odd) parts; the center is a graded subspace."""
    return _graded_parts(alg, center(alg))


def _graded_parts(alg: LieSuperalgebra, s: Subspace):
    """(even, odd) spans of the parity components of the rows of a graded s.

    On the exact backend a basis whose rows are each homogeneous splits as it
    stands: rows of a reduced echelon basis are their own reduced echelon
    basis, which the two spans would give back.  Otherwise a component is
    spanned when some entry of it is nonzero to the backend."""
    bk, n, ne = alg.backend, alg.dim, alg.space.dim_even
    if bk.name == "exact":
        even = tuple(r for r in s.rows if all(j < ne for j, _ in r))
        odd = tuple(r for r in s.rows if all(j >= ne for j, _ in r))
        if len(even) + len(odd) == s.dim:
            return Subspace(bk, n, even), Subspace(bk, n, odd)
    even, odd = [], []
    for r in s.rows:
        ev, od = {j: x for j, x in r if j < ne}, {j: x for j, x in r if j >= ne}
        if not all(map(bk.is_zero, ev.values())):
            even.append(ev)
        if not all(map(bk.is_zero, od.values())):
            odd.append(od)
    return _span_rows(bk, even, n), _span_rows(bk, odd, n)


def _terms(bk, s: Subspace) -> tuple:
    """The rows of s without the entries zero to the backend, as `_pairs` reads a vector."""
    return tuple([p for p in r if not bk.is_zero(p[1])] for r in s.rows)


def subspace_bracket(alg: LieSuperalgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of [a, b] over the basis pairs, summed over the nonzero structure
    constants in the order of `bracket`, one row per pair."""
    bk, nz = alg.backend, alg._nz
    us, vs = _terms(bk, u), _terms(bk, v)
    rows = [{k: w for k, w in _bracket(nz, x, y).items() if w} for x in us for y in vs]
    return _span_rows(bk, rows, alg.dim)


def derived_subalgebra(alg: LieSuperalgebra) -> Subspace:
    """[g,g], read from the table: the span of the rows of the tolerance view
    over one orientation per pair, `space.pairs()`, since each mirror row is
    +-1 times its pair's row (on the complex backend up to the tolerance)."""
    nz = alg._nz
    return _span_rows(alg.backend, [dict(nz[i][j]) for i, j in alg.space.pairs()], alg.dim)


def _bracket_with_g(alg: LieSuperalgebra, s: Subspace) -> Subspace:
    """[g, s]: the span of [e_i, b] over i and the basis b of s, read from the rows nz[i]."""
    bk, nz = alg.backend, alg._nz
    bs = _terms(bk, s)
    rows = [{k: w for k, w in _combine(b, nz[i]).items() if w} for i in range(alg.dim) for b in bs]
    return _span_rows(bk, rows, alg.dim)


def _descend(series: list, step) -> list:
    """Append step(last) to series until the dimension stops falling or reaches 0."""
    while series[-1].dim:
        nxt = step(series[-1])
        if nxt.dim >= series[-1].dim:  # a float span can grow: 3, 2, 3, ... would never end
            break
        series.append(nxt)
    return series


def _derived_start(alg: LieSuperalgebra) -> list:
    """g, then [g,g] when it is smaller: the start both series share."""
    whole, gg = Subspace.full(alg.backend, alg.dim), derived_subalgebra(alg)
    return [whole, gg] if gg.dim < whole.dim else [whole]


def derived_series(alg: LieSuperalgebra) -> list:
    return _descend(_derived_start(alg), lambda s: subspace_bracket(alg, s, s))


def lower_central_series(alg: LieSuperalgebra) -> list:
    return _descend(_derived_start(alg), lambda s: _bracket_with_g(alg, s))


def _series(alg: LieSuperalgebra) -> tuple:
    """(center, derived series, lower central series) in one pass.

    Both series begin g, [g,g], [g,g] read from the table: the lower central
    one continues from the [g,g] of the derived one instead of taking it again."""
    ds = derived_series(alg)
    lcs = ds[:2]
    if len(lcs) > 1:
        _descend(lcs, lambda s: _bracket_with_g(alg, s))
    return center(alg), ds, lcs


def is_solvable(alg: LieSuperalgebra) -> bool:
    return derived_series(alg)[-1].dim == 0


def is_nilpotent(alg: LieSuperalgebra) -> bool:
    return lower_central_series(alg)[-1].dim == 0


def _form_block(form: BilinearForm, us, vs):
    """The rows [B(u, v) for v in vs], one per u in us, of two lists of sparse
    rows.  The exact backend sums the nonzero terms u_i g_ij v_j; the complex
    backend takes `BilinearForm.value` on the dense vectors, whose sums keep
    every product."""
    bk, n = form.backend, form.space.dim
    if bk.name != "exact":
        gv = [form.gram.apply(_dense_row(bk, v, n)) for v in vs]
        for u in us:
            u = _dense_row(bk, u, n)
            yield [dot(u, w) for w in gv]
        return
    rows = form._sparse[0]
    for u in us:
        ug = _combine(u, rows)  # {j: B(u, e_j)}
        yield [sum(ug[j] * b for j, b in v if j in ug) for v in vs]


def orthogonal_complement(q: QuadraticAlgebra, s: Subspace) -> Subspace:
    """{v : B(v, s) = 0}; requires a non-degenerate form.

    The kernel of the rows G b over the basis b of s: summed from the nonzero
    Gram columns on the exact backend, by the dense `Matrix.apply` on the
    complex one."""
    form = q.form
    if not form.is_nondegenerate():
        raise StructureError("orthogonal complement needs a non-degenerate form")
    bk, n = q.backend, q.dim
    if s.dim == 0:
        return Subspace.full(bk, n)
    if bk.name == "exact":
        cols = form._sparse[1]
        rows = [{k: x for k, x in _combine(b, cols).items() if x} for b in s.rows]
    else:
        rows = [_sparse_row(form.gram.apply(b)) for b in s.basis]
    return _span_rows(bk, _nullspace_rows(bk, rows, n), n)


def is_orthogonal_complement(q: QuadraticAlgebra, s: Subspace, t: Subspace) -> bool:
    """s == t^perp; requires a non-degenerate form.

    On the exact backend this is dim s + dim t = dim and B(s, t) = 0 over the
    nonzero coordinates: a non-degenerate form has dim t^perp = dim - dim t,
    so s lies in t^perp and has its dimension exactly when it equals it.  The
    complex backend compares with `orthogonal_complement` under its tolerance."""
    if q.backend.name != "exact":
        return orthogonal_complement(q, t) == s
    form = q.form
    if not form.is_nondegenerate():
        raise StructureError("orthogonal complement needs a non-degenerate form")
    if s.dim + t.dim != q.dim:
        return False
    return not any(any(r) for r in _form_block(form, s.rows, t.rows))


def is_ideal(alg: LieSuperalgebra, s: Subspace) -> bool:
    """[e_i, b] lies in s for every basis vector e_i and every b in the basis of
    s: one elimination finds that the brackets add nothing to the span of s."""
    bk, n = alg.backend, alg.dim
    rows = [dict(r) for r in s.rows]
    for b in _terms(bk, s):
        for i in range(n):
            rows.append({k: x for k, x in _combine(b, alg._nz[i]).items() if x})
    return len(_span_basis(bk, rows, n)) == s.dim


def is_nondegenerate_on(form: BilinearForm, s: Subspace) -> bool:
    """The Gram matrix of the form on the rows of s has full rank."""
    if s.dim == 0:
        return True
    rows = [{b: x for b, x in enumerate(r) if x} for r in _form_block(form, s.rows, s.rows)]
    return len(_rref_sparse(form.backend, rows, s.dim)[0]) == s.dim

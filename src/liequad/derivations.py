"""Derivation spaces by exact linear algebra.

Each linear condition is written once, as sparse rows over the entries of the
unknown map: a solver takes the kernel of the rows, and a validator evaluates
the same rows at a given map.  A derivation solves one system in the n^2
matrix entries: the Leibniz rule contributes a row per basis pair and
coordinate, the skew condition B(Dx, y) = -B(x, Dy) one per pair, and on
super inputs the parity-preservation rows pin the off-blocks to zero (only
even derivations are computed; the classification needs no odd ones).

The rows are assembled as {unknown: coefficient} dicts straight from the
nonzero structure constants and Gram entries, a handful of terms each, and go
to the sparse elimination of `linalg` without a dense matrix in between.  A
Leibniz row is built only for a coordinate that some term reaches.  One zero
rule holds for every row system: a row holds no exact zero, and it is dropped
when nothing is left or every entry is zero to the backend.  It is applied in
two places: `_add_row` filters the skew rows, the images of `_skew_rank` and
the pairing rows of `extensions`, and `_leibniz_rows` deletes an entry where a
term cancels it and keeps the row by the same test, without a second scan.
The inner span is reduced from one row per even e_i, ad(e_i) flattened and
read from `nz` as `ad` reads it.

A `DerivationSpace` keeps the sparse kernel rows; its matrices are built only
when `basis` is read.  `_evaluate` is the one evaluator, over sparse points:
`is_derivation` evaluates the Leibniz rows at D, and a caller that already has
Der(g) gets dim Der_a(g, B) from `_skew_rank`, which evaluates the skew rows at
the kernel rows of Der(g) instead of solving again; `fingerprint` does so.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Optional, Tuple

from .core import BilinearForm, LieSuperalgebra, StructureError
from .linalg import Matrix, Subspace, _dense_row, _nullspace_rows, _rref_sparse, _span_basis, _span_rows, solve_linear
from .scalars import Frozen, _set, same_backend


class DerivationSpace(Frozen):
    """Derivations held as sparse rows over the n^2 matrix entries, D[k][j]
    being entry k * n + j: the kernel rows of the solve, or the reduced rows of
    the inner span.  `basis`, the matrices, is built from the rows when read."""

    # no __slots__: the cached basis lives in the instance __dict__

    def __init__(self, algebra: LieSuperalgebra, kind: str, rows: tuple, form: Optional[BilinearForm] = None):
        _set(self, "algebra", algebra)
        _set(self, "kind", kind)  # "all" | "skew" | "inner"
        _set(self, "rows", rows)
        _set(self, "form", form)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Tuple[Matrix, ...]:
        bk, n = self.algebra.backend, self.algebra.dim
        flat = (_dense_row(bk, r, n * n) for r in self.rows)
        return tuple(Matrix(bk, tuple(s[k * n : k * n + n] for k in range(n))) for s in flat)

    def span(self) -> Subspace:
        return _span_rows(self.algebra.backend, [dict(r) for r in self.rows], self.algebra.dim**2)

    def contains(self, d: Matrix) -> bool:
        return self.span().contains(_flat(d))


def _output_index(alg: LieSuperalgebra):
    """(left, right): left[i][k] and right[j][k] list the (l, c[i][l][k]) and
    (l, c[l][j][k]) pairs of the nonzero structure constants, in increasing l."""
    n = alg.dim
    left = [[[] for _ in range(n)] for _ in range(n)]
    right = [[[] for _ in range(n)] for _ in range(n)]
    for a, block in enumerate(alg._nz):
        for b, pairs in enumerate(block):
            for k, x in pairs:
                left[a][k].append((b, x))
                right[b][k].append((a, x))
    return left, right


def _add_row(rows: list, bk, row: dict) -> None:
    """Append the exactly nonzero entries of row, unless none is left or every
    one is zero to bk: the zero rule of the module docstring, on both backends.
    The row is copied only when it holds an exact zero; otherwise it is kept as given."""
    if not all(row.values()):
        row = {u: x for u, x in row.items() if x}
    if row and not all(map(bk.is_zero, row.values())):
        rows.append(row)


def _leibniz_rows(alg: LieSuperalgebra):
    """Sparse rows of the Leibniz system over unknowns x[(k,j)] = D[k][j].

    The zero rule of `_add_row`, applied in place: an entry that a term cancels
    to an exact zero is deleted there, so the keep test needs no rescan."""
    bk, n = alg.backend, alg.dim
    exact = bk.name == "exact"
    left, right = _output_index(alg)
    left_ks = [{k for k, pairs in enumerate(ks) if pairs} for ks in left]
    right_ks = [{k for k, pairs in enumerate(ks) if pairs} for ks in right]
    rows = []
    for i in range(n):
        for j in range(i, n):
            cij = alg._nz[i][j]
            # the k whose row has a term: all of them when [e_i,e_j] != 0
            for k in range(n) if cij else sorted(left_ks[i] | right_ks[j]):
                # D([e_i,e_j])_k = sum_m c[i][j][m] D[k][m]
                row = {k * n + m: x for m, x in cij}
                # -[D e_i, e_j]_k - [e_i, D e_j]_k = -sum_l D[l][i] c[l][j][k] - sum_l D[l][j] c[i][l][k]
                for terms, col in ((right[j][k], i), (left[i][k], j)):
                    for l, x in terms:
                        u = l * n + col
                        if u not in row:
                            row[u] = -x
                        elif row[u] == x:
                            del row[u]
                        else:
                            row[u] -= x
                if row and (exact or not all(map(bk.is_zero, row.values()))):
                    rows.append(row)
    return rows


def _skew_rows(bk, gram: Matrix):
    """Sparse rows of B(D e_i, e_j) + B(e_i, D e_j) = 0, i <= j, for the
    (anti)symmetric Gram matrix of B, over unknowns x[(k,j)] = D[k][j]."""
    n = gram.rows
    g_rows = [[(k, x) for k, x in enumerate(r) if not bk.is_zero(x)] for r in gram.entries]
    g_cols = [[] for _ in range(n)]  # g_cols[j] = the (k, g[k][j]) of g_rows, in increasing k
    for k, r in enumerate(g_rows):
        for j, x in r:
            g_cols[j].append((k, x))
    rows = []
    for i in range(n):
        for j in range(i, n):
            # sum_k D[k][i] g[k][j] + D[k][j] g[i][k]
            row = {k * n + i: x for k, x in g_cols[j]}
            for k, x in g_rows[i]:
                u = k * n + j
                row[u] = row[u] + x if u in row else x
            _add_row(rows, bk, row)
    return rows


def _evaluate(rows, size: int, points) -> list:
    """{row index: value} of the rows at each point, one dict per point.

    A point is a sparse {unknown: value} row over the size unknowns.  The rows
    are indexed by unknown once, and each point walks only its entries, so a
    row that meets none of them is absent from its dict."""
    hits = [[] for _ in range(size)]  # hits[u] = (r, x) with x the coefficient of u in row r
    for r, row in enumerate(rows):
        for u, x in row.items():
            hits[u].append((r, x))
    images = []
    for point in points:
        image = {}
        for u, y in point.items():
            for r, x in hits[u]:
                image[r] = image[r] + x * y if r in image else x * y
        images.append(image)
    return images


def _vanishes(bk, rows, point) -> bool:
    """Whether every row is zero to bk at the flat point, read at its exactly nonzero entries."""
    image = _evaluate(rows, len(point), [{u: y for u, y in enumerate(point) if y}])[0]
    return all(bk.is_zero(v) for v in image.values())


def _flat(m: Matrix) -> list:
    """The entries of m in row-major order: D[k][j] is unknown k * n + j."""
    return list(chain.from_iterable(m.entries))


def _skew_rank(der: DerivationSpace, form: BilinearForm) -> int:
    """Rank of S(D) = (B(De_i,e_j) + B(e_i,De_j))_{i<=j} on the rows of der.

    S is evaluated through the rows of `_skew_rows` at the sparse rows of der,
    so der.dim minus this rank is the dimension of the skew derivations in der."""
    bk, n = der.algebra.backend, der.algebra.dim
    skew = _skew_rows(bk, form.gram)
    images = []
    for image in _evaluate(skew, n * n, der.rows):
        _add_row(images, bk, image)
    return len(_rref_sparse(bk, images, len(skew))[0])


def _parity_rows(alg: LieSuperalgebra):
    n, ne, one = alg.dim, alg.space.dim_even, alg.backend.one
    return [{k * n + j: one} for k in range(n) for j in range(n) if (k < ne) != (j < ne)]


def derivation_space(alg: LieSuperalgebra, kind: str = "all", form: Optional[BilinearForm] = None) -> DerivationSpace:
    """Basis of Der(g), of the skew derivations Der_a(g, B), or of the inner span.

    Only even (parity-preserving) derivations are in scope, so on super inputs
    the inner span ranges over the even basis elements: bracketing with an odd
    element reverses parity and obeys the signed Leibniz rule instead.  A form
    must share the algebra's backend (else `BackendMismatch`) and dimension
    (else `StructureError`)."""
    bk, n = alg.backend, alg.dim
    if form is not None:
        same_backend(alg, form)
        if form.space.dim != n:
            raise StructureError("form dimension does not match the algebra")
    elif kind == "skew":
        raise ValueError("skew derivations need a bilinear form")
    if kind == "inner":
        # ad(e_i) flattened: entry k * n + j is the e_k-coordinate of [e_i, e_j]
        even = alg.nz[: alg.space.dim_even]
        rows = [{k * n + j: x for j, pairs in enumerate(block) for k, x in pairs} for block in even]
        sols = _span_basis(bk, rows, n * n)
    elif kind in ("all", "skew"):
        rows = _leibniz_rows(alg) + _parity_rows(alg)
        if kind == "skew":
            rows += _skew_rows(bk, form.gram)
        # without rows the kernel is the standard basis: every matrix is a derivation
        sols = _nullspace_rows(bk, rows, n * n)
    else:
        raise ValueError(f"unknown derivation kind {kind!r}")
    return DerivationSpace(alg, kind, tuple(sols), form)


def is_derivation(alg: LieSuperalgebra, d: Matrix) -> bool:
    """D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j]: the Leibniz rows vanish at the
    entries of D that are nonzero to the backend."""
    bk, n = alg.backend, alg.dim
    if d.rows != n or d.cols != n:
        return False
    point = [bk.zero if bk.is_zero(y) else y for y in _flat(d)]
    return _vanishes(bk, _leibniz_rows(alg), point)


def is_inner(alg: LieSuperalgebra, d: Matrix) -> Optional[tuple]:
    """Coefficients lam with D = sum lam_i ad(e_i), or None; D must be a derivation.

    The combination runs over even basis elements (see derivation_space); the
    returned tuple still has one slot per basis element, zero on the odd ones."""
    if not is_derivation(alg, d):
        raise StructureError("is_inner expects a derivation")
    bk, n = alg.backend, alg.dim
    even_idx = [i for i in range(n) if alg.parity(i) == 0]
    cols = [_flat(alg.ad(i)) for i in even_idx]
    sol = solve_linear(Matrix(bk, tuple(tuple(col[u] for col in cols) for u in range(n * n))), _flat(d))
    if sol is None:
        return None
    full = [bk.zero] * n
    for i, lam in zip(even_idx, sol):
        full[i] = lam
    return tuple(full)


def skew_derivation_family_g2n2(n: int) -> DerivationSpace:
    """Closed-form skew-derivation basis of the 1-step family of dimension 2n+2.

    The solved general form has D(X_0) = 0 and is parameterised by an n x n
    block (a_ij) together with two n-vectors (alpha, beta), so the dimension is
    n^2 + 2n; cross-checked against the generic solver in the tests.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    from .catalog import build  # local import: catalog depends on this module

    q = build("g2n2", n=n)
    alg, one, idx = q.algebra, q.backend.one, range(1, n + 1)

    def entry(a: str, b: str) -> int:  # D[a][b], the a-coordinate of D(b)
        return alg.space.index(a) * alg.dim + alg.space.index(b)

    # a_ij generators: D(X_i)=X_j, D(Y_j)=-Y_i
    rows = [{entry(f"X{j}", f"X{i}"): one, entry(f"Y{i}", f"Y{j}"): -one} for i in idx for j in idx]
    # alpha_i: D(Y_0)=X_i, D(Y_i)=-X_0
    rows += [{entry(f"X{i}", "Y0"): one, entry("X0", f"Y{i}"): -one} for i in idx]
    # beta_i: D(Y_0)=Y_i, D(X_i)=-X_0
    rows += [{entry(f"Y{i}", "Y0"): one, entry("X0", f"X{i}"): -one} for i in idx]
    return DerivationSpace(alg, "skew", tuple(rows), q.form)

"""Derivation spaces by exact linear algebra.

A derivation solves one system in the n^2 matrix entries, the rows of
`conditions`: the Leibniz rows, the skew rows for Der_a(g, B), and on super
inputs the parity rows (only even derivations are computed; the classification
needs no odd ones).  The parity rows set the odd blocks to zero, so on the
exact backend the Leibniz and skew rows are built on the even blocks only: on
a super algebra about half of them lie wholly on the odd blocks and are never
built, and the kernel, row for row, is that of the full system (see
`conditions`).  The inner span is reduced from one row per even e_i,
ad(e_i) flattened and read from `nz` as `ad` reads it.

A `DerivationSpace` keeps the sparse kernel rows; its matrices are built only
when `basis` is read.  `is_derivation` evaluates the Leibniz rows at D, and a
caller that already has Der(g) gets dim Der_a(g, B) from `_skew_rank`, which
evaluates the skew rows at the kernel rows of Der(g) instead of solving again;
`fingerprint` does so, with the skew rows of the even blocks alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Tuple

from .conditions import _add_row, _evaluate, _flat, _leibniz_rows, _parity_rows, _skew_rows, failures
from .core import BilinearForm, LieSuperalgebra, StructureError, _check_fits
from .linalg import Matrix, Subspace, _dense_row, _nullspace_rows, _rref_sparse, _span_basis, _span_rows, solve_linear
from .scalars import Frozen, _set


class DerivationSpace(Frozen):
    """Derivations held as sparse rows over the n^2 matrix entries, D[k][j]
    being entry k * n + j: the kernel rows of the solve, or the reduced rows of
    the inner span.  `basis`, the matrices, is built from the rows when read."""

    # no __slots__: the cached basis lives in the instance __dict__

    def __init__(self, algebra: LieSuperalgebra, rows: tuple):
        _set(self, "algebra", algebra)
        _set(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> Tuple[Matrix, ...]:
        bk, n = self.algebra.backend, self.algebra.dim
        flat = (_dense_row(bk, r.items(), n * n) for r in self.rows)
        return tuple(Matrix(bk, tuple(s[k * n : k * n + n] for k in range(n))) for s in flat)

    def span(self) -> Subspace:
        return _span_rows(self.algebra.backend, [dict(r) for r in self.rows], self.algebra.dim**2)

    def contains(self, d: Matrix) -> bool:
        return self.span().contains(_flat(d))


def _skew_rank(der: DerivationSpace, form: BilinearForm) -> int:
    """Rank of S(D) = (B(De_i,e_j) + B(e_i,De_j))_{i<=j} on the rows of der.

    S is evaluated through the rows of `_skew_rows` at the sparse rows of der,
    so der.dim minus this rank is the dimension of the skew derivations in der.
    The rows on the odd blocks vanish at every even map and are not built."""
    bk, n = der.algebra.backend, der.algebra.dim
    _check_fits(der.algebra, form)
    skew = _skew_rows(bk, form.rows, der.algebra.space.dim_even, form.parity == "odd")
    images = []
    for image in _evaluate(skew, n * n, der.rows):
        _add_row(images, bk, image)
    return len(_rref_sparse(bk, images, len(skew))[0])


def derivation_space(alg: LieSuperalgebra, kind: str = "all", form: Optional[BilinearForm] = None) -> DerivationSpace:
    """Basis of Der(g), of the skew derivations Der_a(g, B), or of the inner span.

    Only even (parity-preserving) derivations are in scope, so on super inputs
    the inner span ranges over the even basis elements: bracketing with an odd
    element reverses parity and obeys the signed Leibniz rule instead.  A form
    must share the algebra's backend (else `BackendMismatch`), dimension and
    grading (else `StructureError`)."""
    bk, n = alg.backend, alg.dim
    if form is not None:
        _check_fits(alg, form)
    elif kind == "skew":
        raise ValueError("skew derivations need a bilinear form")
    if kind == "inner":
        # ad(e_i) flattened: entry k * n + j is the e_k-coordinate of [e_i, e_j]
        even = alg.nz[: alg.space.dim_even]
        rows = [{k * n + j: x for j, pairs in enumerate(block) for k, x in pairs} for block in even]
        sols = _span_basis(bk, rows, n * n)
    elif kind in ("all", "skew"):
        ne = alg.space.dim_even
        rows = _leibniz_rows(bk, alg._nz, ne) + [row for _, row in _parity_rows(bk, n, ne)]
        if kind == "skew":
            rows += _skew_rows(bk, form.rows, ne, form.parity == "odd")
        # without rows the kernel is the standard basis: every matrix is a derivation
        sols = _nullspace_rows(bk, rows, n * n)
    else:
        raise ValueError(f"unknown derivation kind {kind!r}")
    return DerivationSpace(alg, tuple(sols))


def is_derivation(alg: LieSuperalgebra, d: Matrix) -> bool:
    """D[e_i,e_j] = [D e_i, e_j] + [e_i, D e_j]: the Leibniz rows vanish at the
    entries of D that are nonzero to the backend."""
    bk, n = alg.backend, alg.dim
    if d.rows != n or d.cols != n:
        return False
    point = [bk.zero if bk.is_zero(y) else y for y in _flat(d)]
    return not failures(bk, enumerate(_leibniz_rows(bk, alg._nz)), point)


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


def skew_derivation_family_g2n2(q) -> DerivationSpace:
    """Closed-form skew-derivation basis of the 1-step family of dimension 2n+2.

    q is the catalog's g2n2, and n is read off its dimension.  The solved
    general form has D(X_0) = 0 and is parameterised by an n x n block (a_ij)
    together with two n-vectors (alpha, beta), so the dimension is n^2 + 2n;
    cross-checked against the generic solver in the tests.
    """
    alg, one = q.algebra, q.backend.one
    idx = range(1, alg.dim // 2)  # 1..n, as dim = 2n + 2

    def entry(a: str, b: str) -> int:  # D[a][b], the a-coordinate of D(b)
        return alg.space.index(a) * alg.dim + alg.space.index(b)

    # a_ij generators: D(X_i)=X_j, D(Y_j)=-Y_i
    rows = [{entry(f"X{j}", f"X{i}"): one, entry(f"Y{i}", f"Y{j}"): -one} for i in idx for j in idx]
    # alpha_i: D(Y_0)=X_i, D(Y_i)=-X_0
    rows += [{entry(f"X{i}", "Y0"): one, entry("X0", f"Y{i}"): -one} for i in idx]
    # beta_i: D(Y_0)=Y_i, D(X_i)=-X_0
    rows += [{entry(f"Y{i}", "Y0"): one, entry("X0", f"X{i}"): -one} for i in idx]
    return DerivationSpace(alg, tuple(rows))

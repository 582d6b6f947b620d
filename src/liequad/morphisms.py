"""Verified maps, decomposability witnesses and isomorphism fingerprints.

Nothing here searches for maps: a homomorphism or isometry is supplied and the
module certifies or refutes it.  Non-isomorphism can only be certified through
fingerprints, i.e. bracket-defined invariants; fingerprint equality certifies
nothing.  Decomposability is decided by the sufficient central-witness test
only, so a missing witness is reported as "no central witness", never as
indecomposability.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .core import (
    LieSuperalgebra,
    QuadraticAlgebra,
    StructureError,
    SuperSpace,
    _fmt_residual,
    _form_block,
    _graded_parts,
    _series,
    center,
    is_ideal,
    is_nondegenerate_on,
    orthogonal_complement,
)
from .derivations import _skew_rank, derivation_space
from .linalg import (
    Matrix,
    Subspace,
    eigen_structure,
    rank,
    vec_add,
    vec_is_zero,
)
from .report import Report
from .scalars import Frozen, Value, _set, residual_magnitude, same_backend


class GradedLinearMap(Frozen):
    """Parity-preserving linear map given by its matrix in the chosen bases."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: SuperSpace, target: SuperSpace, matrix: Matrix):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "matrix", matrix)

    @staticmethod
    def build(source: SuperSpace, target: SuperSpace, matrix: Matrix) -> "GradedLinearMap":
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise StructureError("map matrix shape does not match the spaces")
        bk = matrix.backend
        for i in range(target.dim):
            for j in range(source.dim):
                if target.parity(i) != source.parity(j) and not bk.is_zero(matrix.entries[i][j]):
                    raise StructureError(
                        f"map sends {source.labels[j]} across parities to {target.labels[i]}"
                    )
        return GradedLinearMap(source, target, matrix)

    @staticmethod
    def from_images(source: SuperSpace, target: SuperSpace, images, backend) -> "GradedLinearMap":
        """images: mapping source label -> {target label: coeff}; missing = 0.
        A label unknown to its space raises KeyError."""
        cols = [[backend.zero] * target.dim for _ in range(source.dim)]
        for l, image in images.items():
            v = cols[source.index(l)]
            for lt, coeff in dict(image).items():
                v[target.index(lt)] = backend.coerce(coeff)
        m = Matrix(backend, tuple(tuple(cols[j][i] for j in range(source.dim)) for i in range(target.dim)))
        return GradedLinearMap.build(source, target, m)

    def apply(self, v):
        return self.matrix.apply(v)


def verify_homomorphism(a: GradedLinearMap, src: LieSuperalgebra, tgt: LieSuperalgebra) -> Report:
    """A[x,y] = [Ax, Ay] on all basis pairs."""
    rep = Report()
    bk = same_backend(a.matrix, src, tgt)
    if a.source != src.space or a.target != tgt.space:
        raise StructureError("map spaces do not match the algebras")
    ok = True
    for i, j in src.space.pairs():
        lhs = a.apply(src.bracket_basis(i, j))
        rhs = tgt.bracket(a.matrix.col(i), a.matrix.col(j))
        diff = tuple(x - y for x, y in zip(lhs, rhs))
        if not vec_is_zero(bk, diff):
            ok = False
            worst = max(diff, key=lambda x: residual_magnitude(bk, x))
            rep.add(
                f"homomorphism({src.labels[i]},{src.labels[j]})",
                "compatibility A[x,y] = [Ax,Ay]",
                False,
                residual=_fmt_residual(bk, worst),
            )
    if ok:
        rep.add("homomorphism", "compatibility A[x,y] = [Ax,Ay]", True)
    return rep


def verify_isomorphism(a: GradedLinearMap, src: LieSuperalgebra, tgt: LieSuperalgebra) -> Report:
    rep = verify_homomorphism(a, src, tgt)
    inv = src.dim == tgt.dim and rank(a.matrix) == src.dim
    rep.add(
        "invertibility",
        "bijectivity of the map",
        inv,
        witness=None if inv else f"rank {rank(a.matrix)} of a {src.dim}-dim map",
    )
    return rep


def verify_i_isomorphism(a: GradedLinearMap, src: QuadraticAlgebra, tgt: QuadraticAlgebra) -> Report:
    """Isomorphism check plus the isometry condition A^T G' A = G."""
    rep = verify_isomorphism(a, src.algebra, tgt.algebra)
    bk = src.backend
    m = a.matrix
    pulled = m.transpose() * tgt.form.gram * m
    diff = pulled - src.form.gram
    if diff.is_zero():
        rep.add("isometry", "isometry A^T G' A = G", True)
    else:
        worst = max((x for r in diff.entries for x in r), key=lambda x: residual_magnitude(bk, x))
        rep.add("isometry", "isometry A^T G' A = G", False, residual=_fmt_residual(bk, worst))
    return rep


# -- decomposability --------------------------------------------------------------


class Witness(Frozen):
    """A non-degenerate central ideal with its orthogonal complement."""

    __slots__ = ("core", "complement", "center", "report")

    def __init__(self, core: Subspace, complement: Subspace, center: Subspace, report: Report):
        _set(self, "core", core)
        _set(self, "complement", complement)
        _set(self, "center", center)
        _set(self, "report", report)


def _central_core(q: QuadraticAlgebra, z: Subspace):
    """A minimal graded non-degenerate central subspace, or None; z is the center.

    A diagonal pass, then one pair scan: an even u with B(u,u) != 0, else the
    first pair u, v (i < j) of the even-then-odd central basis with B(u,v) !=
    0, giving [u + v] when both are even, as B(u+v,u+v) = 2B(u,v), else
    [u, v]: an odd pair of an even form or an even/odd pair of an odd form.
    The values B(u, v) are read off one `_form_block` of the central rows.
    """
    form, bk = q.form, q.backend
    zev, zod = _graded_parts(q.algebra, z)
    rows, ne = zev.rows + zod.rows, zev.dim
    b = list(_form_block(form, rows, rows))
    basis = zev.basis + zod.basis
    for i in range(ne):
        if not bk.is_zero(b[i][i]):
            return [basis[i]]
    for i, u in enumerate(basis):
        for j in range(i + 1, len(basis)):
            if not bk.is_zero(b[i][j]):
                return [vec_add(u, basis[j])] if j < ne else [u, basis[j]]
    return None


def decomposability_via_center(q: QuadraticAlgebra) -> Optional[Witness]:
    """Sufficient test: a central subspace on which the form does not vanish
    yields an orthogonal ideal splitting.  Returns a verified witness or None
    (None certifies nothing)."""
    return _central_witness(q, center(q.algebra))


def _central_witness(q: QuadraticAlgebra, z: Subspace) -> Optional[Witness]:
    """decomposability_via_center for a caller that has the center z at hand."""
    if not q.form.is_nondegenerate():
        raise StructureError("decomposability test needs a non-degenerate form")
    vectors = _central_core(q, z)
    if vectors is None:
        return None
    bk = q.backend
    core = Subspace.span(bk, vectors, q.dim)
    if core.dim == q.dim:
        return None  # the trivial splitting g = g + {0} is not a witness
    comp = orthogonal_complement(q, core)
    rep = verify_decomposition(q, core, comp)
    rep.raise_if_failed(StructureError)
    return Witness(core=core, complement=comp, center=z, report=rep)


def verify_decomposition(q: QuadraticAlgebra, s1: Subspace, s2: Subspace) -> Report:
    """s1, s2 ideals, mutually orthogonal, non-degenerate, spanning g."""
    rep = Report()
    alg, form = q.algebra, q.form
    bk = alg.backend
    rep.add("ideal(s1)", "ideal closure [g,s] in s", is_ideal(alg, s1))
    rep.add("ideal(s2)", "ideal closure [g,s] in s", is_ideal(alg, s2))
    orth = all(bk.is_zero(x) for r in _form_block(form, s1.rows, s2.rows) for x in r)
    rep.add("orthogonality", "B(s1, s2) = 0", orth)
    rep.add("non-degeneracy(s1)", "restricted form non-degenerate", is_nondegenerate_on(form, s1))
    rep.add("non-degeneracy(s2)", "restricted form non-degenerate", is_nondegenerate_on(form, s2))
    spanning = s1.sum_with(s2).dim == alg.dim and s1.dim + s2.dim == alg.dim
    rep.add("spanning", "s1 + s2 = g with trivial intersection", spanning)
    return rep


# -- fingerprints ------------------------------------------------------------------


class Fingerprint(Value):
    """Series-type invariants of the bracket, plus two annotation fields.

    The compared fields are exactly the dimension data of center, derived and
    lower central series together with the parity split and the two flags.
    der_dim and skew_der_dim are carried as informative data but excluded from
    comparisons: the skew dimension depends on the invariant form (it separates
    isometry classes, not isomorphism classes), and the full derivation
    dimension is kept out so that equality means equality of the series data
    the catalog freezes.
    """

    _compared = (
        "dim",
        "dim_even",
        "dim_odd",
        "center_dim",
        "derived_dims",
        "lower_central_dims",
        "derived_center_dim",
        "solvable",
        "nilpotent",
    )
    __slots__ = _compared + ("der_dim", "skew_der_dim")

    def __init__(
        self,
        dim: int,
        dim_even: int,
        dim_odd: int,
        center_dim: int,
        derived_dims: Tuple[int, ...],
        lower_central_dims: Tuple[int, ...],
        derived_center_dim: int,
        solvable: bool,
        nilpotent: bool,
        der_dim: int = 0,
        skew_der_dim: Optional[int] = None,
    ):
        _set(self, "dim", dim)
        _set(self, "dim_even", dim_even)
        _set(self, "dim_odd", dim_odd)
        _set(self, "center_dim", center_dim)
        _set(self, "derived_dims", derived_dims)
        _set(self, "lower_central_dims", lower_central_dims)
        _set(self, "derived_center_dim", derived_center_dim)
        _set(self, "solvable", solvable)
        _set(self, "nilpotent", nilpotent)
        _set(self, "der_dim", der_dim)
        _set(self, "skew_der_dim", skew_der_dim)

    def series(self) -> tuple:
        """The compared fields, in order: everything but der_dim and skew_der_dim."""
        return tuple(getattr(self, name) for name in self._compared)


def fingerprint(x: Union[LieSuperalgebra, QuadraticAlgebra], with_derivations: bool = True) -> Fingerprint:
    """Series-type invariants of x, read off one `_series` pass.

    With derivations, Der(g) is solved once.  A skew derivation is a
    derivation D with S(D) = 0, where S(D) = (B(De_i,e_j) + B(e_i,De_j))_{i<=j},
    so dim Der_a(g, B) = dim Der(g) - rank(S restricted to Der(g)), the rank
    taken on the kernel rows of Der(g): no matrix is built.  Without
    derivations the solve, which only feeds the annotation fields, is skipped."""
    if isinstance(x, QuadraticAlgebra):
        alg, form = x.algebra, x.form
    else:
        alg, form = x, None
    if with_derivations:
        der = derivation_space(alg, "all")
        der_dim = der.dim
        skew = der_dim - _skew_rank(der, form) if form is not None else None
    else:
        der_dim, skew = 0, None
    return _series_fingerprint(alg, _series(alg), der_dim, skew)


def _series_fingerprint(alg: LieSuperalgebra, series: tuple, der_dim: int = 0, skew: Optional[int] = None) -> Fingerprint:
    """The Fingerprint of alg from its (center, derived series, lower central series)."""
    z, ds, lcs = series
    derived = ds[1] if len(ds) > 1 else ds[0]  # the series stops at once when [g,g] = g
    return Fingerprint(
        dim=alg.dim,
        dim_even=alg.space.dim_even,
        dim_odd=alg.space.dim_odd,
        center_dim=z.dim,
        derived_dims=tuple(s.dim for s in ds),
        lower_central_dims=tuple(s.dim for s in lcs),
        derived_center_dim=derived.intersect(z).dim,
        solvable=ds[-1].dim == 0,
        nilpotent=lcs[-1].dim == 0,
        der_dim=der_dim,
        skew_der_dim=skew,
    )


def fingerprints_distinguish(a, b) -> bool:
    """True certifies non-isomorphism; False certifies nothing."""
    return fingerprint(a) != fingerprint(b)


# -- the rank-two symplectic lemma --------------------------------------------------


def check_sp2_lemma(a: Matrix, b: Matrix) -> Report:
    """For nonzero trace-free 2x2 A, B with [A,B] = B: A is semisimple and B is
    nilpotent (so B^2 = 0).  Preconditions are hard errors, the conclusions are
    report entries."""
    bk = a.backend
    if a.rows != 2 or a.cols != 2 or b.rows != 2 or b.cols != 2:
        raise StructureError("the lemma concerns 2x2 matrices")
    if not bk.is_zero(a.trace()) or not bk.is_zero(b.trace()):
        raise StructureError("A and B must be trace-free (symplectic rank two)")
    if b.is_zero():
        raise StructureError("B must be nonzero")
    comm = a * b - b * a
    if not (comm - b).is_zero():
        raise StructureError("[A,B] = B fails; the lemma does not apply")
    rep = Report()
    ea = eigen_structure(a)
    eb = eigen_structure(b)
    rep.add("A-semisimple", "A semisimple whenever [A,B]=B, B nonzero", ea.is_semisimple)
    rep.add("B-nilpotent", "B nilpotent whenever [A,B]=B, B nonzero", eb.is_nilpotent)
    rep.add("B-squared", "B^2 = 0 in rank two", (b * b).is_zero())
    return rep

"""Constructors: double extensions, T*-extensions and the odd T*-extension.

Every constructor except the direct sum builds g + h + g* through one routine,
`_extend`, with these conventions (the Jacobi checker exercises the signs):

* g is an even Lie algebra, g* its dual, and dual basis labels carry a
  trailing star;
* the coadjoint action is ad*(x)(f) = -f o ad(x), so on dual basis vectors
  [e_i, e_j*] = -sum_k c[i][k][j] e_k*;
* g acts on a quadratic core (h, B_h), B_h even, through psi by even skew
  derivations, and [a, b] = [a, b]_h + sum_k B_h(psi(e_k) a, b) e_k*;
* an optional cocycle theta adds theta(x, y) in g* to [x, y];
* the form pairs e_i with e_i* and restricts to B_h on h;
* the basis order is g, the even part of h, g*, the odd part of h.

The core of the one double extension may be even, purely odd or mixed; the
super double extension, by a purely odd core, is the same function under a
second name.  The T*-extension is the double extension with h = 0, and the
one-dimensional double extension has g = span{e} with dual label f; on the
core C^{2|2} it rebuilds the catalog's gs6_1 and gs6_2.  `_extend` alone
checks that g is even, that theta or phi belongs to g and, by
`_check_action`, the action psi.  The odd T*-extension makes g* odd, so g*
leads the odd block, and brackets g* x g* into g by a symmetric pairing phi.

Cocycles theta, pairings phi and actions psi are accepted only as explicit
tensors/matrices and are validated eagerly, by evaluating the rows of
`conditions` at them: a constructor never returns something that fails its own
axioms.  The only soft spot is the cyclic condition, whose failure downgrades
the output to a bare Lie superalgebra with a warning instead of a quadratic one.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Optional, Sequence, Tuple, Union

from .conditions import _add_row, _cocycle_rows, _cyclic_rows, _flat, _flat3, _folded, _pairing_rows, _skew_rows
from .conditions import _transpose_rows, _unfolded, failures, is_cyclic
from .core import BilinearForm, LieSuperalgebra, QuadraticAlgebra, StructureError
from .derivations import is_derivation
from .linalg import Matrix, _nullspace_rows, dot, zero_vec
from .scalars import Frozen, _set, same_backend


class ExtensionError(StructureError):
    """An extension input fails its structural preconditions."""


def star(label: str) -> str:
    return label + "*"


def _require_even(alg: LieSuperalgebra, what: str):
    if alg.space.dim_odd != 0:
        raise ExtensionError(f"{what} requires a purely even algebra")


def _tensor_from_labels(base: LieSuperalgebra, entries, what: str, symmetric: bool) -> tuple:
    """t[i][j] = coordinates of the value on the basis pair (e_i, e_j), from one
    orientation per pair; the other is mirrored, negated unless symmetric, and
    pairs not given are zero.  A diagonal value is kept as given: a cocycle's
    `validate` refuses a nonzero one."""
    bk, sp, n = base.backend, base.space, base.dim
    t = [[None] * n for _ in range(n)]
    for (la, lb), value in dict(entries).items():
        i, j = sp.index(la), sp.index(lb)
        v = [bk.zero] * n
        for label, coeff in dict(value).items():
            v[sp.index(label)] = bk.coerce(coeff)
        v = tuple(v)
        if t[i][j] is not None or (i != j and t[j][i] is not None):
            raise ExtensionError(f"{what} ({la},{lb}) specified twice")
        t[i][j] = v
        if i != j:
            t[j][i] = v if symmetric else tuple(-x for x in v)
    zero = zero_vec(bk, n)
    return tuple(tuple(row if row is not None else zero for row in block) for block in t)


def _named(bk, labels, v) -> dict:
    """{label: coordinate} for the coordinates of v that are nonzero to bk."""
    return {l: x for l, x in zip(labels, v) if not bk.is_zero(x)}


# -- cocycles -------------------------------------------------------------------


class Cocycle2(Frozen):
    """Skew 2-cocycle theta: g x g -> g*, stored as theta[i][j] = dual coordinates."""

    __slots__ = ("base", "theta")

    def __init__(self, base: LieSuperalgebra, theta: tuple):
        _set(self, "base", base)
        _set(self, "theta", theta)

    @staticmethod
    def build(base: LieSuperalgebra, entries: Mapping[Tuple[str, str], Mapping[str, object]]) -> "Cocycle2":
        _require_even(base, "a 2-cocycle")
        c = Cocycle2(base, _tensor_from_labels(base, entries, "cocycle pair", symmetric=False))
        c.validate()
        return c

    def scaled(self, factor) -> "Cocycle2":
        bk = self.base.backend
        f = bk.coerce(factor)
        theta = tuple(tuple(tuple(f * x for x in row) for row in block) for block in self.theta)
        return Cocycle2(self.base, theta)

    def validate(self) -> None:
        """Antisymmetry plus the 2-cocycle identity on all basis triples: the
        first failing key of `_cocycle_rows`, a pair or a triple, is raised."""
        bk, labels = self.base.backend, self.base.labels
        for key, _ in failures(bk, _cocycle_rows(bk, self.base._nz), _flat3(self.theta))[:1]:
            what = "theta is not skew on" if len(key) == 2 else "2-cocycle identity fails on triple"
            raise ExtensionError(f"{what} ({','.join(labels[i] for i in key)})")

    def is_cyclic(self) -> bool:
        return is_cyclic(self.base.backend, self.theta)


# -- symmetric pairings for the odd extension ------------------------------------


class SymPairing(Frozen):
    """Symmetric phi: g* x g* -> g, stored as phi[i][j] = coordinates in g."""

    __slots__ = ("base", "phi")

    def __init__(self, base: LieSuperalgebra, phi: tuple):
        _set(self, "base", base)
        _set(self, "phi", phi)

    @staticmethod
    def build(base: LieSuperalgebra, entries: Mapping[Tuple[str, str], Mapping[str, object]]) -> "SymPairing":
        _require_even(base, "a symmetric pairing")
        return SymPairing.from_tensor(base, _tensor_from_labels(base, entries, "pairing", symmetric=True))

    @staticmethod
    def from_tensor(base: LieSuperalgebra, phi: tuple) -> "SymPairing":
        p = SymPairing(base, phi)
        p.validate()
        return p

    @staticmethod
    def zero(base: LieSuperalgebra) -> "SymPairing":
        return SymPairing.build(base, {})

    def validate(self) -> None:
        rep = _pairing_condition_failures(self.base, self.phi)
        if rep:
            raise ExtensionError(rep[0])

    def is_cyclic(self) -> bool:
        return is_cyclic(self.base.backend, self.phi)


def _pairing_condition_failures(base: LieSuperalgebra, phi) -> list:
    """Symmetry plus the two compatibility conditions of the odd construction,
    one message per failing key of `_transpose_rows` and `_pairing_rows`."""
    bk, n, labels = base.backend, base.dim, base.labels
    point = _flat3(phi)
    asym = failures(bk, _transpose_rows(bk, n, n, n), point)
    out = [f"phi is not symmetric on ({labels[i]},{labels[j]})" for (i, j), _ in asym]
    for (cond, a, b, c), _ in failures(bk, _pairing_rows(base._nz, _unfolded(n)), point):
        at = f"(x,f,g) = ({labels[a]}," if cond == 1 else f"({labels[a]}*,"
        out.append(f"pairing condition ({cond}) fails at {at}{labels[b]}*,{labels[c]}*)")
    return out


def sym_pairing_space(base: LieSuperalgebra, cyclic: bool = True) -> list:
    """Basis of all pairings satisfying the two conditions (and optionally the
    cyclic identity), as SymPairing objects: the kernel of the rows of
    `_pairing_rows` and `_cyclic_rows` over the unknowns phi[i][j][k], i <= j."""
    _require_even(base, "the pairing solver")
    bk, n = base.backend, base.dim
    pairs, unknown = _folded(n)
    rows = []
    for _, row in _pairing_rows(base._nz, unknown):
        _add_row(rows, bk, row)
    if cyclic:
        rows += _cyclic_rows(bk, n, unknown)
    out = []
    for s in _nullspace_rows(bk, rows, len(pairs) * n):
        phi = [[None] * n for _ in range(n)]
        for a, (i, j) in enumerate(pairs):
            phi[i][j] = phi[j][i] = tuple(s.get(a * n + k, bk.zero) for k in range(n))
        out.append(SymPairing.from_tensor(base, tuple(tuple(r) for r in phi)))
    return out


# -- the action on the core -------------------------------------------------------


def _zero_core(bk) -> QuadraticAlgebra:
    """The zero-dimensional quadratic algebra, the core of an extension without one."""
    alg = LieSuperalgebra.abelian((), backend=bk)
    return QuadraticAlgebra(alg, BilinearForm.build(alg.space, {}, "even", bk))


def _check_action(g: LieSuperalgebra, psi, core: QuadraticAlgebra) -> None:
    """Raise unless psi has one matrix per generator of g, each psi(e_i) is a
    derivation of the core that is skew for its form, and psi is a
    homomorphism of g.  On an abelian core the Leibniz rows are empty, so
    every matrix of the right shape is a derivation."""
    bk, nh = g.backend, core.dim
    if len(psi) != g.dim:
        raise ExtensionError("psi needs one matrix per base generator")
    skew = _skew_rows(bk, core.form.rows)
    for label, m in zip(g.labels, psi):
        if not is_derivation(core.algebra, m):
            raise ExtensionError(f"psi({label}) is not a derivation of the core")
        if failures(bk, enumerate(skew), _flat(m)):
            raise ExtensionError(f"psi({label}) is not skew for the core form")
    for i, j in g.space.pairs():
        want = Matrix.zeros(bk, nh, nh)
        for k, x in g._nz[i][j]:
            want = want + psi[k].scale(x)
        if not (want - (psi[i] * psi[j] - psi[j] * psi[i])).is_zero():
            raise ExtensionError(f"psi is not a homomorphism on ({g.labels[i]},{g.labels[j]})")


# -- the constructors -------------------------------------------------------------


def _extend(
    g: LieSuperalgebra,
    core: Optional[QuadraticAlgebra] = None,
    psi: Sequence[Matrix] = (),
    theta: Optional[Cocycle2] = None,
    phi: Optional[SymPairing] = None,
    duals: Optional[Tuple[str, ...]] = None,
    warning: str = "",
) -> Union[QuadraticAlgebra, LieSuperalgebra]:
    """g + h + g* with the brackets and form of the module docstring.

    g must be even, and g* is odd exactly when the pairing phi is given; theta
    and phi must belong to g.  A given core must share the backend of g, have
    an even form and pass `_check_action` with its action psi.  If theta or
    phi is not cyclic, the bare algebra is returned with the warning."""
    bk, n = g.backend, g.dim
    _require_even(g, "an extension")
    for twist, what in ((theta, "theta is a cocycle"), (phi, "phi pairs the dual")):
        if twist is not None and twist.base != g:
            raise ExtensionError(f"{what} of a different algebra")
    if core is None:
        core = _zero_core(bk)
    else:
        same_backend(g, core.algebra)
        if core.form.parity != "even":
            raise ExtensionError("a double extension needs a core with an even form")
        _check_action(g, psi, core)
    h, hgram = core.algebra, core.form.gram
    gl, hl = g.labels, h.labels
    dl = duals or tuple(star(l) for l in gl)
    br = {**g.table(), **h.table()}  # one orientation per pair: {label: coefficient}
    if theta is not None:
        for i, j in g.space.pairs():
            br.setdefault((gl[i], gl[j]), {}).update(_named(bk, dl, theta.theta[i][j]))
    for i in range(n):
        for k, row in enumerate(g._nz[i]):
            for j, x in row:
                br.setdefault((gl[i], dl[j]), {})[dl[k]] = -x
        for a in range(h.dim):
            br[gl[i], hl[a]] = _named(bk, hl, psi[i].col(a))
    for a, b in h.space.pairs():
        br.setdefault((hl[a], hl[b]), {}).update(_named(bk, dl, [dot(m.col(a), hgram.col(b)) for m in psi]))
    if phi is not None:
        for i in range(n):
            for j in range(i, n):
                br[dl[i], dl[j]] = _named(bk, gl, phi.phi[i][j])
    he = hl[: h.space.dim_even]
    even, odd = (gl + he, dl + hl[len(he) :]) if phi is not None else (gl + he + dl, hl[len(he) :])
    out = LieSuperalgebra.build(even, odd, {pair: v for pair, v in br.items() if v}, bk)
    twist = phi if phi is not None else theta
    if twist is not None and not twist.is_cyclic():
        warnings.warn(warning, UserWarning, stacklevel=3)
        return out
    entries = {(gl[i], dl[i]): bk.one for i in range(n)}
    entries.update(core.form.table())
    form = BilinearForm.build(out.space, entries, "odd" if phi is not None else "even", bk)
    return QuadraticAlgebra.build(out, form)


def double_extension_1d(q: QuadraticAlgebra, d: Matrix, ext_labels: Tuple[str, str] = ("e", "f")) -> QuadraticAlgebra:
    """One-dimensional double extension of a quadratic algebra with an even form
    by an even skew derivation: new brackets [e,x] = Dx and [x,y] = [x,y] +
    B(Dx,y) f, with f central and the form extended by B(e,f) = 1."""
    alg = q.algebra
    le, lf = ext_labels
    if le in alg.labels or lf in alg.labels or le == lf:
        raise ExtensionError("extension labels collide with the base labels")
    return _extend(LieSuperalgebra.abelian([le], backend=alg.backend), q, [d], duals=(lf,))


def double_extension_general(
    galg: LieSuperalgebra, h: QuadraticAlgebra, psi: Sequence[Matrix], theta: Optional[Cocycle2] = None
) -> Union[QuadraticAlgebra, LieSuperalgebra]:
    """Double extension of a quadratic algebra h with an even form by a Lie
    algebra g acting through even skew derivations, twisted by an optional
    cyclic cocycle theta.  On odd a, b the new term of [a, b] is symmetric, as
    psi is skew and B_h is skew on the odd part.  The core h is required: for
    h = 0 pass the zero-dimensional quadratic algebra and one 0 x 0 matrix per
    generator, since None would leave psi unread."""
    if h is None:
        raise ExtensionError("a double extension needs a core")
    warning = "theta is not cyclic: the double extension is returned without a form"
    return _extend(galg, h, tuple(psi), theta, warning=warning)


super_double_extension = double_extension_general  # the double extension by a purely odd core


def t_star_extension(galg: LieSuperalgebra, theta: Optional[Cocycle2] = None) -> Union[QuadraticAlgebra, LieSuperalgebra]:
    """T*-extension on g + g*; quadratic via the canonical pairing when theta is
    cyclic, otherwise a bare Lie algebra is returned with a warning."""
    return _extend(
        galg, theta=theta, warning="theta is not cyclic: the T*-extension is returned as a plain Lie algebra"
    )


def ts_star_extension(galg: LieSuperalgebra, phi: SymPairing) -> Union[QuadraticAlgebra, LieSuperalgebra]:
    """Odd analogue of the T*-extension: g stays even, g* becomes odd, the
    odd-odd bracket is the symmetric pairing phi, and the canonical duality
    pairing supplies an odd invariant form when phi is cyclic."""
    return _extend(galg, phi=phi, warning="phi is not cyclic: the odd T*-extension is returned without a form")


def direct_sum(
    q1: QuadraticAlgebra,
    q2: QuadraticAlgebra,
    rename2: Optional[Mapping[str, str]] = None,
) -> QuadraticAlgebra:
    """Orthogonal direct sum: block brackets and block Gram, even blocks first.

    Labels of the second summand may be renamed to avoid collisions; each
    summand embeds as a non-degenerate ideal of the result.  The summands
    must share a backend (else `BackendMismatch`).
    """
    if q1.form.parity != q2.form.parity:
        raise ExtensionError("direct sum needs forms of matching parity")
    bk = same_backend(q1, q2)
    a2 = q2.algebra.relabel(rename2 or {})
    f2 = q2.form.relabel(a2.space)
    a1, f1 = q1.algebra, q1.form
    if set(a1.labels) & set(a2.labels):
        raise ExtensionError("label collision between summands; pass rename2")
    even = list(a1.labels[: a1.space.dim_even]) + list(a2.labels[: a2.space.dim_even])
    odd = list(a1.labels[a1.space.dim_even :]) + list(a2.labels[a2.space.dim_even :])
    out = LieSuperalgebra.build(even, odd, {**a1.table(), **a2.table()}, bk)
    entries = {**f1.table(), **f2.table()}
    new_form = BilinearForm.build(out.space, entries, q1.form.parity, bk)
    return QuadraticAlgebra.build(out, new_form)

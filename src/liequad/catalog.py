"""Named algebras and parameterised families, as machine-checkable tables.

Each entry is one CatalogEntry record and the only place its algebra is
written: the even and odd basis labels, the structure constants (one
orientation per pair), the invariant form and its parity, the admissible
parameter region, independently hand-derived structural facts (center and
derived dimensions, solvability, nilpotency, and whether the family is claimed
indecomposable) and the series fingerprint frozen at the default parameters.

Each of the four tables (even labels, odd labels, brackets, form) and of the
five facts is either a value or a `(backend, params) -> value` callable, read
through `_expect`.  `entry.builder(backend, params)` returns
the pair (LieSuperalgebra, BilinearForm) at coerced, admissible parameters
without checking any axiom; `build` adds the parameter checks and the eager
axiom check.  verify_all() rebuilds each entry over a default parameter grid
and machine-checks all of it: the axioms, the duality between center and
derived subalgebra, the expected dimensions, the frozen fingerprint, and
absence of central witnesses for the indecomposable entries.  It hands each
algebra that passes its axioms to the caller, in the dict `verified` keyed by
id, backend and coerced parameters; `verified_build` reads it back, so a
caller checks no grid point twice.

Notes on entries whose constants were derived here rather than copied:

* the five-dimensional simple entry (osp12) is stored in the orthonormal basis
  of its even part; the resulting constants need the exact imaginary unit and
  were derived once by brute force, frozen here, and regression-tested;
* gs6_7 carries the bracket set forced by its symplectic representative matrix
  together with form invariance (so [Y0,Y2] = -Y2; the index-swapped variant
  [Y0,Y2] = -Y1 fails invariance against [X2,Y2] = X0);
* gs6_3 is pinned by the generator actions plus two products; the remaining
  brackets complete uniquely by invariance and are frozen here.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Tuple, Union

from .core import (
    BilinearForm,
    LieSuperalgebra,
    QuadraticAlgebra,
    _series,
    is_orthogonal_complement,
    verify_form,
    verify_jacobi,
)
from .morphisms import _central_witness, _series_fingerprint
from .report import Report
from .scalars import EXACT, Frozen, ScalarParseError, _set


class UnknownEntry(KeyError):
    def __str__(self) -> str:
        # KeyError would quote the message
        return self.args[0]


class InadmissibleParameter(ValueError):
    pass


def _mod_le_one(bk, x) -> bool:
    if bk.name == "exact":
        return bk.abs2(x) <= 1
    return abs(x) <= 1 + bk.tol


def _nonzero(bk, x) -> bool:
    return not bk.is_zero(x)


GRID = ("-2", "-1", "-1/2", "0", "1/2", "1", "2")


class ParamSpec(Frozen):
    __slots__ = ("name", "default", "kind", "admissible", "samples")

    def __init__(
        self,
        name: str,
        default: object,
        kind: str = "scalar",  # "scalar" | "int"
        admissible: Optional[Callable] = None,  # (backend, value) -> bool
        samples: Tuple = GRID,
    ):
        _set(self, "name", name)
        _set(self, "default", default)
        _set(self, "kind", kind)
        _set(self, "admissible", admissible)
        _set(self, "samples", samples)

    def sample_values(self, backend):
        if self.kind == "int":
            vals = list(self.samples)
        else:
            vals = [backend.coerce(s) for s in self.samples]
        if self.admissible is None:
            return vals
        return [v for v in vals if self.admissible(backend, v)]


class CatalogEntry(Frozen):
    __slots__ = (
        "id", "description", "even", "odd", "brackets", "form", "form_parity", "params",
        "center_dim", "derived_dim", "solvable", "nilpotent", "indecomposable", "fingerprint",
    )

    def __init__(
        self,
        id: str,
        description: str,
        *,
        even: Union[Tuple[str, ...], Callable],
        odd: Union[Tuple[str, ...], Callable] = (),
        brackets: Union[Mapping, Callable],  # one orientation per pair
        form: Union[Mapping, Callable],
        form_parity: str = "even",
        params: Tuple[ParamSpec, ...] = (),
        center_dim: Union[int, Callable] = 0,
        derived_dim: Union[int, Callable] = 0,
        solvable: Union[bool, Callable] = True,
        nilpotent: Union[bool, Callable] = False,
        indecomposable: Union[bool, None, Callable] = None,  # None = not claimed
        # (dim, dim_even, dim_odd, center, derived series, lower central
        #  series, dim derived-cap-center, solvable, nilpotent) at the defaults
        fingerprint: tuple,
    ):
        _set(self, "id", id)
        _set(self, "description", description)
        _set(self, "even", even)
        _set(self, "odd", odd)
        _set(self, "brackets", brackets)
        _set(self, "form", form)
        _set(self, "form_parity", form_parity)
        _set(self, "params", params)
        _set(self, "center_dim", center_dim)
        _set(self, "derived_dim", derived_dim)
        _set(self, "solvable", solvable)
        _set(self, "nilpotent", nilpotent)
        _set(self, "indecomposable", indecomposable)
        _set(self, "fingerprint", fingerprint)

    def builder(self, backend, params) -> Tuple[LieSuperalgebra, BilinearForm]:
        """The algebra and its form at coerced, admissible `params`, with no
        axiom check (`build` adds the parameter and axiom checks)."""
        bk = backend
        even, odd = _expect(self.even, bk, params), _expect(self.odd, bk, params)
        alg = LieSuperalgebra.build(even, odd, _expect(self.brackets, bk, params), bk)
        form = BilinearForm.build(alg.space, _expect(self.form, bk, params), self.form_parity, bk)
        return alg, form

    def default_params(self, backend) -> dict:
        out = {}
        for p in self.params:
            out[p.name] = int(p.default) if p.kind == "int" else backend.coerce(p.default)
        return out

    def sample_grid(self, backend) -> list:
        if not self.params:
            return [{}]
        grids = [(p.name, p.sample_values(backend)) for p in self.params]
        combos = [{}]
        for name, vals in grids:
            combos = [dict(c, **{name: v}) for c in combos for v in vals]
        return combos


def _expect(value, backend, params):
    return value(backend, params) if callable(value) else value


# -- non-quadratic base algebras ---------------------------------------------------


def base(id: str, backend=EXACT, **params) -> LieSuperalgebra:
    """Building-block Lie algebras that carry no invariant form of their own:
    abelian(n), g2 ([X,Y]=Y), g3_1 (Heisenberg), g3_2, g3_3(mu)."""
    bk = backend
    if id == "abelian":
        n = int(params.get("n", 1))
        return LieSuperalgebra.abelian([f"A{i}" for i in range(1, n + 1)], backend=bk)
    if id == "g2":
        return LieSuperalgebra.build(["X", "Y"], brackets={("X", "Y"): {"Y": 1}}, backend=bk)
    if id == "g3_1":
        return LieSuperalgebra.build(["X", "Y", "Z"], brackets={("X", "Y"): {"Z": 1}}, backend=bk)
    if id == "g3_2":
        return LieSuperalgebra.build(
            ["X", "Y", "Z"],
            brackets={("X", "Y"): {"Y": 1}, ("X", "Z"): {"Y": 1, "Z": 1}},
            backend=bk,
        )
    if id == "g3_3":
        mu = bk.coerce(params.get("mu", 1))
        if not _mod_le_one(bk, mu):
            raise InadmissibleParameter("g3_3 needs |mu| <= 1")
        return LieSuperalgebra.build(
            ["X", "Y", "Z"],
            brackets={("X", "Y"): {"Y": 1}, ("X", "Z"): {"Z": mu}},
            backend=bk,
        )
    raise UnknownEntry(f"unknown base algebra {id!r}")


# -- shared tables -------------------------------------------------------------------


def _g2n2_brackets(bk, p):
    brackets = {}
    for i in range(1, p["n"] + 1):
        brackets[("Y0", f"X{i}")] = {f"X{i}": 1}
        brackets[("Y0", f"Y{i}")] = {f"Y{i}": -1}
        brackets[(f"X{i}", f"Y{i}")] = {"X0": 1}
    return brackets


_TSTAR_EVEN = ("X", "Y", "Z", "X*", "Y*", "Z*")
_TSTAR_FORM = {(l, l + "*"): 1 for l in ("X", "Y", "Z")}
_G4_EVEN = ("X", "P", "Q", "Z")
_G4_BRACKETS = {("X", "P"): {"P": 1}, ("X", "Q"): {"Q": -1}, ("P", "Q"): {"Z": 1}}
_G4_FORM = {("X", "Z"): 1, ("P", "Q"): 1}
_GS6_FORM = {**_G4_FORM, ("X1", "Y1"): 1}
_SP4_FORM = {("X0", "Y0"): 1, ("X1", "Y1"): 1, ("X2", "Y2"): 1}
_GO4_FORM = {("X0", "X1"): 1, ("Y0", "Y1"): 1}
_GO6_FORM = {("X0", "X1"): 1, ("Y0", "Y1"): 1, ("Z0", "Z1"): 1}
_GO6_EVEN = ("X0", "Y0", "Z0")
_GO6_ODD = ("X1", "Y1", "Z1")


# -- admissibility helpers -----------------------------------------------------------


def _adm_g6_3(bk, v):
    return _mod_le_one(bk, v) and not bk.is_zero(v + bk.one)


def _adm_go6_6(bk, v):
    return _mod_le_one(bk, v) and _nonzero(bk, v)


def _adm_pos_int(bk, v):
    return isinstance(v, int) and v >= 1


# -- the table -----------------------------------------------------------------------

_ENTRIES = (
    CatalogEntry(
        id="g4",
        description="diamond algebra: hyperbolic 4-dim solvable quadratic algebra",
        even=_G4_EVEN,
        brackets=_G4_BRACKETS,
        form=_G4_FORM,
        center_dim=1,
        derived_dim=3,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(4, 4, 0, 1, (4, 3, 1, 0), (4, 3), 1, True, False),
    ),
    CatalogEntry(
        id="g5",
        description="nilpotent 5-dim quadratic algebra (1-step double extension)",
        even=("X1", "X2", "T", "Z1", "Z2"),
        brackets={("X1", "X2"): {"T": 1}, ("X1", "T"): {"Z2": -1}, ("X2", "T"): {"Z1": 1}},
        form={("X1", "Z1"): 1, ("X2", "Z2"): 1, ("T", "T"): 1},
        center_dim=2,
        derived_dim=3,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(5, 5, 0, 2, (5, 3, 0), (5, 3, 2, 0), 2, True, True),
    ),
    CatalogEntry(
        id="g2n2",
        description="1-step family of dimension 2n+2 generalising the diamond",
        even=lambda bk, p: [f"X{i}" for i in range(p["n"] + 1)] + [f"Y{i}" for i in range(p["n"] + 1)],
        brackets=_g2n2_brackets,
        form=lambda bk, p: {(f"X{i}", f"Y{i}"): 1 for i in range(p["n"] + 1)},
        params=(ParamSpec("n", 2, kind="int", admissible=_adm_pos_int, samples=(1, 2, 3)),),
        center_dim=1,
        derived_dim=lambda bk, p: 2 * p["n"] + 1,
        nilpotent=False,
        indecomposable=lambda bk, p: True if p["n"] == 1 else None,
        fingerprint=(6, 6, 0, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="g6_1",
        description="T*-extension of the Heisenberg algebra with zero cocycle",
        even=_TSTAR_EVEN,
        brackets={("X", "Y"): {"Z": 1}, ("X", "Z*"): {"Y*": -1}, ("Y", "Z*"): {"X*": 1}},
        form=_TSTAR_FORM,
        center_dim=3,
        derived_dim=3,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(6, 6, 0, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    ),
    CatalogEntry(
        id="g6_2",
        description="T*-extension of the 3-dim solvable algebra with nilpotent twist",
        even=_TSTAR_EVEN,
        brackets={
            ("X", "Y"): {"Y": 1},
            ("X", "Z"): {"Y": 1, "Z": 1},
            ("X", "Y*"): {"Y*": -1, "Z*": -1},
            ("X", "Z*"): {"Z*": -1},
            ("Y", "Y*"): {"X*": 1},
            ("Z", "Y*"): {"X*": 1},
            ("Z", "Z*"): {"X*": 1},
        },
        form=_TSTAR_FORM,
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 6, 0, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="g6_3",
        description="T*-extension family over the diagonalisable 3-dim solvable algebra",
        even=_TSTAR_EVEN,
        brackets=lambda bk, p: {
            ("X", "Y"): {"Y": 1},
            ("X", "Z"): {"Z": p["mu"]},
            ("X", "Y*"): {"Y*": -1},
            ("X", "Z*"): {"Z*": -p["mu"]},
            ("Y", "Y*"): {"X*": 1},
            ("Z", "Z*"): {"X*": p["mu"]},
        },
        form=_TSTAR_FORM,
        params=(ParamSpec("mu", "1/2", admissible=_adm_g6_3),),
        center_dim=lambda bk, p: 1 if _nonzero(bk, p["mu"]) else 3,
        derived_dim=lambda bk, p: 5 if _nonzero(bk, p["mu"]) else 3,
        nilpotent=False,
        # mu = 0 splits off the hyperbolic plane (Z, Z*): only claim mu != 0
        indecomposable=lambda bk, p: True if _nonzero(bk, p["mu"]) else False,
        fingerprint=(6, 6, 0, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="gs4_1",
        description="4-dim quadratic superalgebra from a nilpotent rank-one action",
        even=("X0", "Y0"),
        odd=("X1", "Y1"),
        brackets={("Y1", "Y1"): {"X0": -2}, ("Y0", "Y1"): {"X1": -2}},
        form={("X0", "Y0"): 1, ("X1", "Y1"): 1},
        center_dim=2,
        derived_dim=2,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(4, 2, 2, 2, (4, 2, 0), (4, 2, 0), 2, True, True),
    ),
    CatalogEntry(
        id="gs4_2",
        description="4-dim quadratic superalgebra from a semisimple rank-one action",
        even=("X0", "Y0"),
        odd=("X1", "Y1"),
        brackets={("X1", "Y1"): {"X0": 1}, ("Y0", "X1"): {"X1": 1}, ("Y0", "Y1"): {"Y1": -1}},
        form={("X0", "Y0"): 1, ("X1", "Y1"): 1},
        center_dim=1,
        derived_dim=3,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(4, 2, 2, 1, (4, 3, 1, 0), (4, 3), 1, True, False),
    ),
    CatalogEntry(
        id="osp12",
        description="simple 5-dim quadratic superalgebra, orthonormal even basis",
        even=("X1", "X2", "X3"),
        odd=("F1", "F2"),
        # even part: the orthonormal-basis rotation algebra; the odd action and
        # the odd-odd pairing were solved once from skewness + invariance and frozen.
        brackets={
            ("X1", "X2"): {"X3": 1},
            ("X2", "X3"): {"X1": 1},
            ("X3", "X1"): {"X2": 1},
            ("X1", "F1"): {"F2": "-1/2"},
            ("X1", "F2"): {"F1": "1/2"},
            ("X2", "F1"): {"F2": "1/2i"},
            ("X2", "F2"): {"F1": "1/2i"},
            ("X3", "F1"): {"F1": "1/2i"},
            ("X3", "F2"): {"F2": "-1/2i"},
            ("F1", "F1"): {"X1": "1/2", "X2": "-1/2i"},
            ("F1", "F2"): {"X3": "1/2i"},
            ("F2", "F2"): {"X1": "1/2", "X2": "1/2i"},
        },
        form={("X1", "X1"): 1, ("X2", "X2"): 1, ("X3", "X3"): 1, ("F1", "F2"): 1},
        center_dim=0,
        derived_dim=5,
        solvable=False,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(5, 3, 2, 0, (5,), (5,), 0, False, False),
    ),
    CatalogEntry(
        id="gs6_1",
        description="6-dim super extension of the diamond, nilpotent odd action",
        even=_G4_EVEN,
        odd=("X1", "Y1"),
        brackets={**_G4_BRACKETS, ("X", "Y1"): {"X1": 1}, ("Y1", "Y1"): {"Z": 1}},
        form=_GS6_FORM,
        center_dim=2,
        derived_dim=4,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 4, 2, 2, (6, 4, 1, 0), (6, 4, 3), 2, True, False),
    ),
    CatalogEntry(
        id="gs6_2",
        description="6-dim super extension of the diamond, semisimple odd action",
        even=_G4_EVEN,
        odd=("X1", "Y1"),
        brackets=lambda bk, p: {
            **_G4_BRACKETS,
            ("X", "X1"): {"X1": p["lambda"]},
            ("X", "Y1"): {"Y1": -p["lambda"]},
            ("X1", "Y1"): {"Z": p["lambda"]},
        },
        form=_GS6_FORM,
        params=(ParamSpec("lambda", 1, admissible=_nonzero),),
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        # members with different parameters share every series invariant;
        # isometric isomorphy holds exactly for equal parameters (positive
        # direction: the identity map; separation needs more than fingerprints)
        fingerprint=(6, 4, 2, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="gs6_3",
        description="6-dim super extension of the diamond, two-dim odd action span",
        even=_G4_EVEN,
        odd=("X1", "Y1"),
        # generator data: the actions of X and P on the odd part plus two products;
        # [X1,X1] = 0 and the Q,Z actions complete uniquely by invariance.
        brackets={
            **_G4_BRACKETS,
            ("X", "X1"): {"X1": "1/2"},
            ("X", "Y1"): {"Y1": "-1/2"},
            ("P", "Y1"): {"X1": 1},
            ("X1", "Y1"): {"Z": "1/2"},
            ("Y1", "Y1"): {"Q": 1},
        },
        form=_GS6_FORM,
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 4, 2, 1, (6, 5, 3, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="gs6_4",
        description="6-dim superalgebra, nilpotent symplectic rank-4 action [2,2]",
        even=("X0", "Y0"),
        odd=("X1", "X2", "Y1", "Y2"),
        brackets={("Y0", "X2"): {"X1": 1}, ("Y0", "Y1"): {"Y2": -1}, ("X2", "Y1"): {"X0": 1}},
        form=_SP4_FORM,
        center_dim=3,
        derived_dim=3,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(6, 2, 4, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    ),
    CatalogEntry(
        id="gs6_5",
        description="6-dim superalgebra, mixed nilpotent/semisimple rank-4 action",
        even=("X0", "Y0"),
        odd=("X1", "X2", "Y1", "Y2"),
        brackets={
            ("Y0", "X2"): {"X2": 1},
            ("Y0", "Y1"): {"X1": 1},
            ("Y0", "Y2"): {"Y2": -1},
            ("Y1", "Y1"): {"X0": 1},
            ("X2", "Y2"): {"X0": 1},
        },
        form=_SP4_FORM,
        center_dim=2,
        derived_dim=4,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 2, 4, 2, (6, 4, 1, 0), (6, 4, 3), 2, True, False),
    ),
    CatalogEntry(
        id="gs6_6",
        description="6-dim superalgebra family, diagonal rank-4 action",
        even=("X0", "Y0"),
        odd=("X1", "X2", "Y1", "Y2"),
        brackets=lambda bk, p: {
            ("Y0", "X1"): {"X1": 1},
            ("Y0", "X2"): {"X2": p["lambda"]},
            ("Y0", "Y1"): {"Y1": -1},
            ("Y0", "Y2"): {"Y2": -p["lambda"]},
            ("X1", "Y1"): {"X0": 1},
            ("X2", "Y2"): {"X0": p["lambda"]},
        },
        form=_SP4_FORM,
        params=(ParamSpec("lambda", 1, admissible=_nonzero),),
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        # parameters lam1, lam2 are expected isometric exactly when lam1 = +/-lam2
        # or lam2 = +/-1/lam1; witnessing maps must be supplied to check-iso,
        # none are constructed here
        fingerprint=(6, 2, 4, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="gs6_7",
        description="6-dim superalgebra, Jordan-block rank-4 action",
        even=("X0", "Y0"),
        odd=("X1", "X2", "Y1", "Y2"),
        brackets={
            ("Y0", "X1"): {"X1": 1},
            ("Y0", "X2"): {"X1": 1, "X2": 1},
            ("Y0", "Y1"): {"Y1": -1, "Y2": -1},
            ("Y0", "Y2"): {"Y2": -1},
            ("X1", "Y1"): {"X0": 1},
            ("X2", "Y1"): {"X0": 1},
            ("X2", "Y2"): {"X0": 1},
        },
        form=_SP4_FORM,
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 2, 4, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="go2",
        description="2-dim odd-quadratic family [X1,X1] = lambda X0",
        even=("X0",),
        odd=("X1",),
        brackets=lambda bk, p: {("X1", "X1"): {"X0": p["lambda"]}},
        form={("X0", "X1"): 1},
        form_parity="odd",
        params=(ParamSpec("lambda", 1),),
        center_dim=lambda bk, p: 1 if _nonzero(bk, p["lambda"]) else 2,
        derived_dim=lambda bk, p: 1 if _nonzero(bk, p["lambda"]) else 0,
        nilpotent=True,
        indecomposable=lambda bk, p: True if _nonzero(bk, p["lambda"]) else None,
        fingerprint=(2, 1, 1, 1, (2, 1, 0), (2, 1, 0), 1, True, True),
    ),
    CatalogEntry(
        id="go4_1",
        description="4-dim odd-quadratic superalgebra, abelian even part, type 1",
        even=("X0", "Y0"),
        odd=("X1", "Y1"),
        brackets={("X1", "X1"): {"Y0": 1}, ("X1", "Y1"): {"X0": 1}},
        form=_GO4_FORM,
        form_parity="odd",
        center_dim=2,
        derived_dim=2,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(4, 2, 2, 2, (4, 2, 0), (4, 2, 0), 2, True, True),
    ),
    CatalogEntry(
        id="go4_2",
        description="4-dim odd-quadratic superalgebra, abelian even part, type 2",
        even=("X0", "Y0"),
        odd=("X1", "Y1"),
        brackets={("X1", "X1"): {"Y0": 1}, ("X1", "Y1"): {"X0": 1, "Y0": 1}, ("Y1", "Y1"): {"X0": 1}},
        form=_GO4_FORM,
        form_parity="odd",
        center_dim=2,
        derived_dim=2,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(4, 2, 2, 2, (4, 2, 0), (4, 2, 0), 2, True, True),
    ),
    CatalogEntry(
        id="go4_3",
        description="odd-quadratic presentation of the diamond algebra",
        even=("X0", "Y0"),
        odd=("X1", "Y1"),
        brackets={("X0", "Y0"): {"Y0": 1}, ("X0", "Y1"): {"Y1": -1}, ("Y0", "Y1"): {"X1": 1}},
        form=_GO4_FORM,
        form_parity="odd",
        center_dim=1,
        derived_dim=3,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(4, 2, 2, 1, (4, 3, 1, 0), (4, 3), 1, True, False),
    ),
    CatalogEntry(
        id="go6_0",
        description="abelian 6-dim odd-quadratic superalgebra",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets={},
        form=_GO6_FORM,
        form_parity="odd",
        center_dim=6,
        derived_dim=0,
        nilpotent=True,
        indecomposable=False,
        fingerprint=(6, 3, 3, 6, (6, 0), (6, 0), 0, True, True),
    ),
    CatalogEntry(
        id="go6_1",
        description="abelian even part with odd-odd products; diagonal slice of the odd T*-family",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        # the even part stays abelian; a cyclic symmetric pairing on the odd side
        # produces the whole family, of which this is the diagonal slice
        brackets=lambda bk, p: {
            ("X1", "X1"): {"X0": p["a"]},
            ("Y1", "Y1"): {"Y0": p["b"]},
            ("Z1", "Z1"): {"Z0": p["c"]},
        },
        form=_GO6_FORM,
        form_parity="odd",
        params=(
            ParamSpec("a", 1, samples=("0", "1")),
            ParamSpec("b", 1, samples=("0", "1")),
            ParamSpec("c", 1, samples=("0", "-2", "1")),
        ),
        center_dim=lambda bk, p: 6 - sum(1 for v in p.values() if _nonzero(bk, v)),
        derived_dim=lambda bk, p: sum(1 for v in p.values() if _nonzero(bk, v)),
        nilpotent=True,
        indecomposable=None,
        fingerprint=(6, 3, 3, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    ),
    CatalogEntry(
        id="go6_2",
        description="odd-quadratic relabelling of the zero-cocycle Heisenberg T*-extension",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets={("X0", "Y0"): {"Z0": 1}, ("Y0", "Z1"): {"X1": 1}, ("X0", "Z1"): {"Y1": -1}},
        form=_GO6_FORM,
        form_parity="odd",
        center_dim=3,
        derived_dim=3,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(6, 3, 3, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    ),
    CatalogEntry(
        id="go6_3",
        description="Heisenberg even part with odd square [Z1,Z1] = lambda Z0",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets=lambda bk, p: {
            ("X0", "Y0"): {"Z0": 1},
            ("Y0", "Z1"): {"X1": 1},
            ("X0", "Z1"): {"Y1": -1},
            ("Z1", "Z1"): {"Z0": p["lambda"]},
        },
        form=_GO6_FORM,
        form_parity="odd",
        params=(ParamSpec("lambda", 1, admissible=_nonzero),),
        center_dim=3,
        derived_dim=3,
        nilpotent=True,
        indecomposable=True,
        fingerprint=(6, 3, 3, 3, (6, 3, 0), (6, 3, 0), 3, True, True),
    ),
    CatalogEntry(
        id="go6_4",
        description="odd-quadratic superalgebra over the non-diagonalisable 3-dim solvable",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets={
            ("X0", "Y0"): {"Y0": 1},
            ("X0", "Z0"): {"Y0": 1, "Z0": 1},
            ("X0", "Y1"): {"Y1": -1, "Z1": -1},
            ("Y0", "Y1"): {"X1": 1},
            ("Z0", "Y1"): {"X1": 1},
            ("X0", "Z1"): {"Z1": -1},
            ("Z0", "Z1"): {"X1": 1},
        },
        form=_GO6_FORM,
        form_parity="odd",
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 3, 3, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="go6_5",
        description="orthogonal sum of the odd diamond and the 2-dim odd family",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets=lambda bk, p: {
            ("X0", "Y0"): {"Y0": 1},
            ("X0", "Y1"): {"Y1": -1},
            ("Y0", "Y1"): {"X1": 1},
            ("Z1", "Z1"): {"Z0": p["gamma"]},
        },
        form=_GO6_FORM,
        form_parity="odd",
        params=(ParamSpec("gamma", 1),),
        center_dim=lambda bk, p: 2 if _nonzero(bk, p["gamma"]) else 3,
        derived_dim=lambda bk, p: 4 if _nonzero(bk, p["gamma"]) else 3,
        nilpotent=False,
        indecomposable=False,
        fingerprint=(6, 3, 3, 2, (6, 4, 1, 0), (6, 4, 3), 2, True, False),
    ),
    CatalogEntry(
        id="go6_6",
        description="odd-quadratic family over the diagonalisable 3-dim solvable",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets=lambda bk, p: {
            ("X0", "Y0"): {"Y0": 1},
            ("X0", "Z0"): {"Z0": p["mu"]},
            ("X0", "Y1"): {"Y1": -1},
            ("Y0", "Y1"): {"X1": 1},
            ("X0", "Z1"): {"Z1": -p["mu"]},
            ("Z0", "Z1"): {"X1": p["mu"]},
        },
        form=_GO6_FORM,
        form_parity="odd",
        params=(ParamSpec("mu", "1/2", admissible=_adm_go6_6),),
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 3, 3, 1, (6, 5, 1, 0), (6, 5), 1, True, False),
    ),
    CatalogEntry(
        id="go6_7",
        description="odd-quadratic superalgebra with odd square landing in the even radical",
        even=_GO6_EVEN,
        odd=_GO6_ODD,
        brackets={
            ("X0", "Y0"): {"Y0": 1},
            ("X0", "Z0"): {"Z0": "-1/2"},
            ("X0", "Y1"): {"Y1": -1},
            ("Y0", "Y1"): {"X1": 1},
            ("X0", "Z1"): {"Z1": "1/2"},
            ("Z0", "Z1"): {"X1": "-1/2"},
            ("Z1", "Z1"): {"Y0": 1},
            ("Z1", "Y1"): {"Z0": 1},
        },
        form=_GO6_FORM,
        form_parity="odd",
        center_dim=1,
        derived_dim=5,
        nilpotent=False,
        indecomposable=True,
        fingerprint=(6, 3, 3, 1, (6, 5, 3, 0), (6, 5), 1, True, False),
    ),
)

_BY_ID = {e.id: e for e in _ENTRIES}

def entries() -> Tuple[CatalogEntry, ...]:
    return _ENTRIES


def get(id: str) -> CatalogEntry:
    try:
        return _BY_ID[id]
    except KeyError:
        raise UnknownEntry(f"unknown catalog entry {id!r}") from None


def _coerce_params(id: str, backend=EXACT, **params) -> dict:
    """The entry's default parameters overridden by `params`, coerced to the
    backend and checked admissible, in the entry's parameter order (the order
    of `sample_grid`)."""
    entry = get(id)
    bk = backend
    coerced = entry.default_params(bk)
    for name, value in params.items():
        spec = next((s for s in entry.params if s.name == name), None)
        if spec is None:
            raise InadmissibleParameter(f"{id} takes no parameter {name!r}")
        try:
            coerced[name] = int(value) if spec.kind == "int" else bk.coerce(value)
        except ValueError:
            raise ScalarParseError(f"{id}: bad value {value!r} for parameter {name}") from None
    for spec in entry.params:
        if spec.admissible is not None and not spec.admissible(bk, coerced[spec.name]):
            raise InadmissibleParameter(f"{id}: parameter {spec.name}={coerced[spec.name]} not admissible")
    return coerced


def build(id: str, backend=EXACT, **params) -> QuadraticAlgebra:
    alg, form = get(id).builder(backend, _coerce_params(id, backend, **params))
    return QuadraticAlgebra.build(alg, form)


def _grid_key(id: str, backend, params: Mapping) -> tuple:
    return id, backend.name, tuple(params.items())


def verified_build(verified: Mapping, id: str, backend=EXACT, **params) -> QuadraticAlgebra:
    """`build(id, backend, **params)`, read from `verified` when `verify_all`
    handed the algebra out there.  Any other point is built, so a grid point
    whose axioms failed raises the StructureError of `build`."""
    q = verified.get(_grid_key(id, backend, _coerce_params(id, backend, **params)))
    return q if q is not None else build(id, backend, **params)


def _param_str(params: Mapping) -> str:
    if not params:
        return ""
    return "[" + ",".join(f"{k}={v}" for k, v in params.items()) + "]"


def verify_entry(entry: CatalogEntry, params: Mapping, backend=EXACT, verified: Optional[dict] = None) -> Report:
    """Axioms, center/derived duality, expected dimensions and flags for one build.

    `params` are coerced and admissible, as `sample_grid` gives them.  A build
    that fails its axioms reports that one failing check and nothing more.
    Center and both series come from one `_series` pass, which every check
    below reads.  A build that passes its axioms is stored in `verified`, when
    given, for `verified_build` to read."""
    bk = backend
    rep = Report()
    tag = entry.id + _param_str(params)
    alg, form = entry.builder(bk, params)
    axioms = verify_jacobi(alg).extend(verify_form(alg, form))
    failed = ", ".join(c.name for c in axioms.failures[:3]) or None
    rep.add(f"{tag}:axioms", "graded Jacobi identity + invariant form axioms", axioms.ok, witness=failed)
    if not axioms.ok:
        return rep
    q = QuadraticAlgebra(alg, form, axioms)
    if verified is not None:
        verified[_grid_key(entry.id, bk, params)] = q
    series = _series(alg)
    z, ds, lcs = series
    d = ds[1] if len(ds) > 1 else ds[0]  # the series stops at once when [g,g] = g
    odd_note = " (odd-form instance)" if entry.form_parity == "odd" else ""
    rep.add(
        f"{tag}:center-derived-dim",
        "dim center + dim derived = dim" + odd_note,
        z.dim + d.dim == alg.dim,
        witness=f"center {z.dim}, derived {d.dim}, dim {alg.dim}",
    )
    rep.add(
        f"{tag}:center-is-derived-perp",
        "center equals orthogonal complement of the derived subalgebra" + odd_note,
        is_orthogonal_complement(q, z, d),
    )
    rep.add(
        f"{tag}:center-dim",
        "expected center dimension",
        z.dim == _expect(entry.center_dim, bk, params),
        witness=str(z.dim),
    )
    rep.add(
        f"{tag}:derived-dim",
        "expected derived dimension",
        d.dim == _expect(entry.derived_dim, bk, params),
        witness=str(d.dim),
    )
    solvable, nilpotent = ds[-1].dim == 0, lcs[-1].dim == 0
    rep.add(f"{tag}:solvable", "expected solvability", solvable == _expect(entry.solvable, bk, params))
    rep.add(f"{tag}:nilpotent", "expected nilpotency", nilpotent == _expect(entry.nilpotent, bk, params))
    if bk.name == "exact" and params == entry.default_params(bk):
        got = _series_fingerprint(alg, series).series()
        rep.add(
            f"{tag}:fingerprint",
            "frozen series fingerprint at default parameters",
            got == entry.fingerprint,
            witness=str(got),
        )
    claimed = _expect(entry.indecomposable, bk, params)
    if claimed is True:
        rep.add(
            f"{tag}:no-central-witness",
            "claimed-indecomposable entry has no central witness",
            _central_witness(q, z) is None,
        )
    return rep


def verify_all(backend=EXACT, only: Optional[str] = None, verified: Optional[dict] = None) -> Report:
    """verify_entry over the sample grid of every entry, or of `only`; the
    algebras that pass their axioms are stored in `verified`, when given."""
    if only is not None:
        get(only)
    rep = Report()
    for entry in _ENTRIES:
        if only is not None and entry.id != only:
            continue
        for params in entry.sample_grid(backend):
            rep.extend(verify_entry(entry, params, backend, verified))
    return rep

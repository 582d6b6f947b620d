"""Exact structure-constant toolkit for quadratic and odd quadratic Lie
superalgebras: axiom verification, extension constructors, derivation solvers,
decomposability witnesses and a machine-checked catalog of the low-dimensional
classification."""

from .core import (
    BilinearForm,
    LieSuperalgebra,
    QuadraticAlgebra,
    StructureError,
    SuperSpace,
    center,
    derived_series,
    derived_subalgebra,
    is_ideal,
    is_nilpotent,
    is_nondegenerate_on,
    is_solvable,
    lower_central_series,
    orthogonal_complement,
    verify_form,
    verify_jacobi,
)
from .derivations import DerivationSpace, derivation_space, is_inner, skew_derivation_family_g2n2
from .extensions import (
    Cocycle2,
    ExtensionError,
    SymPairing,
    direct_sum,
    double_extension_1d,
    double_extension_general,
    sym_pairing_space,
    super_double_extension,
    t_star_extension,
    ts_star_extension,
)
from .linalg import Matrix, Subspace, eigen_structure, nullspace, rank, solve_linear
from .morphisms import (
    Fingerprint,
    GradedLinearMap,
    Witness,
    check_sp2_lemma,
    decomposability_via_center,
    fingerprint,
    fingerprints_distinguish,
    verify_decomposition,
    verify_homomorphism,
    verify_i_isomorphism,
    verify_isomorphism,
)
from .report import Check, Report
from .scalars import DEFAULT_TOL, EXACT, Exact, complex_backend

__version__ = "0.1.0"


def data_file(name: str):
    """Path of a shipped .alg data file."""
    import pathlib

    return pathlib.Path(__file__).parent / "data" / name

"""Exact quantum and equivariant cohomology of semi-free circle actions.

A 2n-dimensional symplectic manifold with a semi-free circle action and
isolated fixed points has the quantum cohomology of a product of n projective
lines.  This package computes in that ring exactly: the fixed-point hypercube
and its Morse data, the localization model of equivariant cohomology, the
quantum product and its Seidel automorphism, the solver that re-derives the
product table from associativity alone, and the blow-up of the projective
plane as the contrasting example with higher-order Seidel terms.
"""

from .blowup import (
    BLOWUP_CLASS_JSON_SCHEMA,
    BlowupClass,
    derive_chern_numbers,
    gw_sign_solver,
    has_higher_order_terms,
    seidel_blowup,
)
from .errors import QhcubeError
from .gkm import (
    EQUIVARIANT_CLASS_JSON_SCHEMA,
    EquivariantClass,
    NotInSpanError,
    Y_RING,
    basis_a,
    basis_b,
    chern_series,
    gkm_check,
    y_poly,
)
from .hypercube import (
    EqualWeightsError,
    MomentAssignment,
    NonPositiveError,
    SphereClass,
    SubsetPoint,
    all_edges,
    all_points,
    betti_numbers,
    higher_order_infeasibility,
    invariant_sphere_chern,
    moment_value,
)
from .linsolve import InconsistentError, UnderdeterminedError
from .quantum import (
    GWQuery,
    QUANTUM_CLASS_JSON_SCHEMA,
    QuantumClass,
    QuantumRing,
    gw_coefficient,
    positivity_decomposition,
    quantum_ring,
    solve_structure_constants,
)
from .rings import (
    ANY_DEGREE,
    INHOMOGENEOUS,
    PolyRing,
    Polynomial,
    RewriteSystem,
    StructureAlgebra,
    UnknownVariableError,
    VariableMismatchError,
    degrees_match,
    elementary_symmetric,
)

__version__ = "0.1.0"

"""Dynamical Yang-Baxter maps on finite carriers.

Builds weight-indexed solutions of the set-theoretic dynamical
Yang-Baxter equation from triples (left quasigroup, ternary system,
bijection), verifies every relevant identity by exhaustive evaluation,
recovers the generating data back from a map, enumerates and classifies
small instances, and relates pairs of maps by explicit gauge
transformations.
"""

from .binary import (
    BINARY_CONDITIONS,
    BinaryTable,
    Bijection,
    LeftQuasigroup,
    StructureFlags,
    check_binary_condition,
    classify_structure,
    validate_left_quasigroup,
)
from .correspondence import (
    CorrespondenceInstance,
    build_correspondence,
    eq26_family,
    is_constant_in_lambda,
    vertex_counterpart,
    vertex_counterpart_from_map,
    verify_irf_irf,
)
from .engine import (
    A_CLASSES,
    D_CLASSES,
    DynamicalMap,
    Triple,
    build_dyb,
    build_theta_dyb,
    check_D_class,
    conjugation_selfcheck,
    eval_eta,
    eval_xi,
    extract_mu_L,
    is_D_morphism,
    reconstruct_G,
    verify_braiding,
    verify_invariance,
    verify_qdybe,
    verify_unitary,
)
from .errors import (
    AlgebraError,
    ClassViolation,
    IdempotenceRequired,
    IndexOutOfRange,
    InvarianceViolated,
    LQ1Violation,
    M1M2Violation,
    NotAGroup,
    NotALoop,
    NotAPermutation,
    NotLeftQuasigroup,
    NotQuasigroup,
    OrderMismatch,
    OrderTooLarge,
    PreconditionFailed,
    ShapeMismatch,
    UnitNotPreserved,
)
from .result import CheckResult
from .search import (
    CensusReport,
    SearchReport,
    canonicalize,
    census_theorem31,
    enumerate_left_quasigroups,
    enumerate_quasigroups,
    search_structures,
    search_ternary_M1M2,
)
from .ternary import (
    TERNARY_CONDITIONS,
    TernaryTable,
    braid_check,
    check_ternary_condition,
    direct_product,
    is_ternary_hom,
    make_constant_mu,
    make_mu_g,
    satisfies_m1m2,
)

__version__ = "0.1.0"

"""Exact 2-adic etale cohomology of anisotropic quadrics over the reals.

Closed-form tables for Rost motives and their quadrics, an independent
Bockstein/universal-coefficient computation route that re-derives every
table, cycle-map images and non-algebraic class inventories, graded-rank
checks of explicit ring presentations, and a deterministic CLI.
"""

__version__ = "0.1.0"

from .abelian import (
    CyclicSummand,
    FinAb2Group,
    GroupHom,
    cokernel,
    image,
    inverse_limit,
    kernel,
)
from .errors import (
    HigherTorsionAmbiguity,
    InvalidDimension,
    InvalidIndex,
    NonHomogeneousRelation,
    NotStabilized,
    UnknownFamily,
)
from .graded import Graded2Group, GradedSummand
from .mod2 import (
    BigradedF2Module,
    Monomial,
    bockstein,
    cycle_image_mod2,
    nonalgebraic_mod2_degrees,
    rost_etale_mod2,
)
from .presentations import (
    RingPresentation,
    builtin_presentation,
    compare_with_assembly,
    format_presentation,
    graded_ranks,
    parse_presentation,
)
from .quadrics import (
    MotiveDecomposition,
    MotiveTerm,
    alternating_expansion,
    assemble_cohomology,
    check_theorem_claims,
    decompose_motive,
    has_nonalgebraic,
    nonalgebraic_report,
    parse_coefficients,
    rost_table,
)
from .rost import (
    RostTable,
    chow_ring,
    complex_realization,
    cycle_image_2adic,
    nonalgebraic_quotient,
    rost_etale_table,
)
from .tower import (
    CoefficientTower,
    PairingResult,
    etale_2adic,
    integral_cohomology,
    mod_2s_group,
    pair_weight,
    transition_maps,
)

__all__ = [
    "BigradedF2Module",
    "CoefficientTower",
    "CyclicSummand",
    "FinAb2Group",
    "Graded2Group",
    "GradedSummand",
    "GroupHom",
    "HigherTorsionAmbiguity",
    "InvalidDimension",
    "InvalidIndex",
    "Monomial",
    "MotiveDecomposition",
    "MotiveTerm",
    "NonHomogeneousRelation",
    "NotStabilized",
    "PairingResult",
    "RingPresentation",
    "RostTable",
    "UnknownFamily",
    "alternating_expansion",
    "assemble_cohomology",
    "bockstein",
    "builtin_presentation",
    "check_theorem_claims",
    "chow_ring",
    "cokernel",
    "compare_with_assembly",
    "complex_realization",
    "cycle_image_2adic",
    "cycle_image_mod2",
    "decompose_motive",
    "etale_2adic",
    "format_presentation",
    "graded_ranks",
    "has_nonalgebraic",
    "image",
    "integral_cohomology",
    "inverse_limit",
    "kernel",
    "mod_2s_group",
    "nonalgebraic_mod2_degrees",
    "nonalgebraic_quotient",
    "nonalgebraic_report",
    "pair_weight",
    "parse_coefficients",
    "parse_presentation",
    "rost_etale_mod2",
    "rost_etale_table",
    "rost_table",
    "transition_maps",
]

"""Equivariant Poincare series of filtrations on plane curve germs.

Computes, in exact integer arithmetic, the multi-index Poincare series of
divisorial and curve-valuation filtrations on the ring of germs of
functions of two variables, equivariant with respect to a finite group
action, starting from a declarative description of an embedded
resolution.  A brute-force monomial oracle provides an independent
cross-check for cyclic diagonal actions.
"""

from .charring import CharacterRing, CharElement, cyclic_character_ring
from .engine import (
    augmented_series,
    curve_poincare,
    divisorial_poincare,
    quotient_extract,
    restrict_to_character,
)
from .jobs import Job, JobError, load_job, parse_job
from .oracle import (
    DimensionTable,
    MonomialModel,
    oracle_poincare,
    oracle_whole_series,
    poincare_from_dimensions,
)
from .powerseries import (
    Series,
    SubstitutionPlan,
    dump_machine,
    expand,
    factor_power,
    parse_machine,
    render_machine,
    render_text,
    series_eq_upto,
)
from .resolution import ResolutionGraph
from .strata import (
    Branch,
    OrbitDecl,
    RemovedPointOrbit,
    Stratum,
    StratumModel,
    curve_strata,
    validate_strata,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CharacterRing",
    "CharElement",
    "DimensionTable",
    "Job",
    "JobError",
    "MonomialModel",
    "OrbitDecl",
    "RemovedPointOrbit",
    "ResolutionGraph",
    "Series",
    "Stratum",
    "StratumModel",
    "SubstitutionPlan",
    "augmented_series",
    "curve_poincare",
    "curve_strata",
    "cyclic_character_ring",
    "divisorial_poincare",
    "dump_machine",
    "expand",
    "factor_power",
    "load_job",
    "oracle_poincare",
    "oracle_whole_series",
    "parse_job",
    "parse_machine",
    "poincare_from_dimensions",
    "quotient_extract",
    "render_machine",
    "render_text",
    "restrict_to_character",
    "series_eq_upto",
    "validate_strata",
    "__version__",
]

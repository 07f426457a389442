"""admlab: a desk-scale workbench for admissibility in finite decision problems.

Exact infinitesimal arithmetic, rational-simplex Bayes certificates,
witness sets, derived-game values, and Monte Carlo experiments for a
two-sample common-mean estimation family.
"""

from admlab.hyperreal import (
    LCNumber,
    approx_eq,
    approx_leq,
    compare,
    format_lc,
    parse_lc,
)
from admlab.simplex import LPResult, solve_lp
from admlab.decision import (
    DecisionProblem,
    Mixture,
    Prior,
    ProblemFormatError,
    bayes_risk,
    format_rational,
    load_problem,
    mixture_risk,
    random_problem,
    risk_at,
    save_problem,
)
from admlab.admissibility import (
    Certificate,
    DeterminingFamilyReport,
    HullDominanceReport,
    NoPositivePrior,
    NoWitness,
    NsBlythReport,
    NsSteinReport,
    SteinResult,
    WitnessSet,
    admissible_set,
    determining_family_check,
    dominated_in_hull,
    dominates,
    ns_blyth_check,
    ns_stein_check,
    positive_prior_certificate,
    stein_check,
    witness_set,
)
from admlab.game import GameValueReport, derived_game_value, shifted_risk

__version__ = "0.1.0"

__all__ = [
    "LCNumber",
    "approx_eq",
    "approx_leq",
    "compare",
    "format_lc",
    "parse_lc",
    "LPResult",
    "solve_lp",
    "DecisionProblem",
    "Mixture",
    "Prior",
    "ProblemFormatError",
    "bayes_risk",
    "format_rational",
    "load_problem",
    "mixture_risk",
    "random_problem",
    "risk_at",
    "save_problem",
    "Certificate",
    "DeterminingFamilyReport",
    "HullDominanceReport",
    "NoPositivePrior",
    "NoWitness",
    "NsBlythReport",
    "NsSteinReport",
    "SteinResult",
    "WitnessSet",
    "admissible_set",
    "determining_family_check",
    "dominated_in_hull",
    "dominates",
    "ns_blyth_check",
    "ns_stein_check",
    "positive_prior_certificate",
    "stein_check",
    "witness_set",
    "GameValueReport",
    "derived_game_value",
    "shifted_risk",
    "__version__",
]

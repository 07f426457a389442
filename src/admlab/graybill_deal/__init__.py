"""Two-sample common-mean estimators under unknown unequal variances.

The model layer carries the estimator algebra and exact samplers; the
mc layer carries the deterministic sharded Monte Carlo drivers; the
kernels layer carries the numpy reductions those drivers run per shard.
"""

from .mc import (
    GDBlythReport,
    GDExcessReport,
    GDMassReport,
    GDRiskReport,
    MCConfig,
    ReportCheckError,
    SHARD_SIZE,
    blyth_sequence_report,
    excess_bayes_risk,
    prior_mass_bound,
    risk_c1,
    risk_diff,
)
from .model import (
    DataDraw,
    GDParams,
    GDPriorParams,
    HierarchicalDraw,
    MCEstimate,
    RectangleO,
    gd_estimate,
    phi_bayes,
    phi_gd,
    sample_data,
    sample_hierarchical,
    summarize,
)

__all__ = [
    "DataDraw",
    "GDBlythReport",
    "GDExcessReport",
    "GDMassReport",
    "GDParams",
    "GDPriorParams",
    "GDRiskReport",
    "HierarchicalDraw",
    "MCConfig",
    "MCEstimate",
    "RectangleO",
    "ReportCheckError",
    "SHARD_SIZE",
    "blyth_sequence_report",
    "excess_bayes_risk",
    "gd_estimate",
    "phi_bayes",
    "phi_gd",
    "prior_mass_bound",
    "risk_c1",
    "risk_diff",
    "sample_data",
    "sample_hierarchical",
    "summarize",
]

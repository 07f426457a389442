"""Two-sample common-mean estimators under unknown unequal variances.

The model layer carries the estimator algebra and exact samplers; the
mc layer carries the deterministic sharded Monte Carlo drivers; the
kernels layer carries the numpy reductions those drivers run per shard.
Each module's ``__all__`` is its public list; the package re-exports
exactly those of ``mc`` and ``model``.
"""

from . import mc, model
from .mc import *
from .model import *

__all__ = [*mc.__all__, *model.__all__]

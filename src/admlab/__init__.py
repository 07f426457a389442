"""admlab: a desk-scale workbench for admissibility in finite decision problems.

Exact infinitesimal arithmetic, rational-simplex Bayes certificates,
witness sets, derived-game values, and Monte Carlo experiments for a
two-sample common-mean estimation family.

Each module's ``__all__`` is its public list; the package re-exports
exactly those names.
"""

from admlab import admissibility, decision, game, hyperreal, simplex
from admlab.hyperreal import *
from admlab.simplex import *
from admlab.decision import *
from admlab.admissibility import *
from admlab.game import *

__version__ = "0.1.0"

__all__ = [
    *hyperreal.__all__,
    *simplex.__all__,
    *decision.__all__,
    *admissibility.__all__,
    *game.__all__,
    "__version__",
]

"""Numerical toolkit for weighted function-space norms on an interval.

The package builds band-limited test functions on a periodic grid,
splits them with a smooth dyadic frequency decomposition, and computes
weighted Besov, Triebel-Lizorkin, Bessel-potential and Sobolev norms of
vector-valued data, where the vector components may themselves be
measured in operator-dependent interpolation norms.  On top of the norm
layer it implements higher-order reflection extension operators, trace
evaluation at the boundary, embedding and mixed-derivative estimates,
and an exact exponent classifier for a two-phase free-boundary model.
Every quantitative statement is packaged into deterministic verification
suites runnable from Python or the ``tracespaces-verify`` command.
"""

from . import (dyadic, embeddings, extension, grid, operators, report, spaces, stefan, suites,
               trace, weights)
from .dyadic import *  # noqa: F403
from .embeddings import *  # noqa: F403
from .extension import *  # noqa: F403
from .grid import *  # noqa: F403
from .operators import *  # noqa: F403
from .report import *  # noqa: F403
from .spaces import *  # noqa: F403
from .stefan import *  # noqa: F403
from .suites import *  # noqa: F403
from .trace import *  # noqa: F403
from .weights import *  # noqa: F403

# every public name of the modules above, each listed once, in its module's __all__
__all__ = [name for module in (dyadic, embeddings, extension, grid, operators, report, spaces,
                               stefan, suites, trace, weights)
           for name in module.__all__]

"""Error bounds for weighted endpoint and point quadrature rules under
generalized (alpha, m) convexity, verified against an adaptive oracle.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from .core import *
from .quadrature import *
from .convexity import *
from .bounds import *
from .harness import *

# importing a submodule binds its name here, so core, quadrature, ... resolve
__all__ = [*core.__all__, *quadrature.__all__, *convexity.__all__,
           *bounds.__all__, *harness.__all__]

__version__ = "0.1.0"

"""Elementary computational hyperbolic geometry.

A point of the n-dimensional hyperbolic space is any vector of R^n; the
metric, its isometries, geodesics, angles, and spheres all have closed forms
in these coordinates.  The package also carries the great-circle and
projective metrics on the sphere and the ω-gauge machinery for snowflaking
metrics, with numerically testable contracts throughout.

Each module's ``__all__`` lists its public names; the package re-exports
them all.
"""

from . import core, errors, geodesy, homogeneity, isometry
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .geodesy import *  # noqa: F401,F403
from .homogeneity import *  # noqa: F401,F403
from .isometry import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *errors.__all__, *geodesy.__all__,
           *homogeneity.__all__, *isometry.__all__]

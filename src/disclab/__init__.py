"""disclab: a numerical laboratory for analytic discs on flat hypersurfaces.

The package builds squeezed analytic discs whose boundaries concentrate
at a single point of an exponentially flat hypersurface in C^2, solves
Bishop's equation to attach them, and measures whether the attached disc
dips below the surface; the answer flips with the flatness exponent, and
the modules here exist to exhibit that dichotomy numerically.

Layers, bottom up: `circle` (spectral transforms on the unit circle),
`disc_family` (the squeezed first components), `profiles` (flat height
profiles and their bump deformations), `bishop` (the attachment solver),
`asymptotics` (the dichotomy integral), `propagation` (the full
experiment), `cli` (the command-line front end).
"""

from . import asymptotics, bishop, circle, disc_family, exceptions, profiles, propagation
from .asymptotics import *  # noqa: F401,F403
from .bishop import *  # noqa: F401,F403
from .circle import *  # noqa: F401,F403
from .disc_family import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .propagation import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is its one export list; the package re-exports them in layer order
__all__ = [
    "__version__",
    *(
        name
        for module in (circle, disc_family, profiles, bishop, asymptotics, propagation, exceptions)
        for name in module.__all__
    ),
]

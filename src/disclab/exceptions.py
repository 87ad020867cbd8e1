"""Exception types shared across the package.

Everything numerical that can fail at runtime raises a subclass of
DiscLabError so callers (and the CLI) can distinguish "your inputs are
malformed" (plain ValueError) from "the computation did not converge"
(DiscLabError).  GridUnresolved sits in both camps on purpose: it is a
validation failure, but one discovered from numerical resolution
requirements, and the CLI treats it as bad input.
"""

__all__ = [
    "DiscLabError",
    "NotConverged",
    "QuadratureNonConvergent",
    "GridUnresolved",
    "NoAdmissibleAlpha",
]


class DiscLabError(Exception):
    """Base class for numerical failures in this package."""


class NotConverged(DiscLabError):
    """A fixed-point iteration stopped making progress or hit its cap."""


class QuadratureNonConvergent(DiscLabError):
    """Adaptive quadrature could not reach the requested tolerance."""


class GridUnresolved(DiscLabError, ValueError):
    """The circle grid is too coarse to resolve a feature of the data.

    Carries a human-readable message naming the minimum grid size that
    would work, so callers can simply retry with a finer grid.
    """


class NoAdmissibleAlpha(DiscLabError):
    """A parameter search exhausted its grid without finding a hit."""

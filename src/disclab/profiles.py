"""Exponentially flat boundary profiles and the bump-deformed surface.

A FlatProfile is the graph function h = exp(-1/|y1|^s) over the
imaginary part y1 of the first coordinate of C^2 (kind "exp_abs_y", the
only kind).  It vanishes to infinite order at the origin.

A BumpDeformation dresses a profile for a specific disc parameter
alpha: inside the window |theta| <= w, w = exp(-eps_window/(2 alpha)),
the surface is the undisturbed profile; beyond 2w it sits at the
constant plateau -eta delta/2; in between the two closed forms are
blended in the coordinate x = log2(|theta|/w).

Neither surface reads the second coordinate y2, and both say so with
couples_to_y2 = False (a bump follows its base profile), which lets the
Bishop solver trace them once per solve.

Only the plateau depends on eta.  A bump's trace is therefore split
into its eta-free part, trace_parts() = (blend weight, base profile
values), and the affine combine_rows() with one or several plateaus;
boundary_trace is combine_rows(trace_parts, plateau), so one function
forms every height, and a sweep over eta computes the parts once and
combines them for all its etas in one block; nothing is kept here (the
grid owns its angles, mode ramp and ray rows).  The fold x = (theta +
pi) mod 2 pi is x - 2 pi where x >= 2 pi when every theta lies in
[0, 2 pi): then x <= 3 pi, so by Sterbenz's lemma the difference is
exact and has np.mod's bits.  Other angles go through np.mod.

Every parameter must be finite: an infinite s, delta or eps_window
would otherwise pass the positivity checks and yield -inf or NaN heights.

The blend weight is an exp(-1/x)-type smooth step, not a polynomial
one.  Every derivative of the weight vanishes at both junctions, so
one-sided divided differences of any order match across them to
rounding error.  A quintic step would be C^2 but its third derivative
jumps, and that jump is visible in second divided differences at any
usable step size; the smooth step keeps the junction checks clean at
1e-8 and below.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .disc_family import require_alpha

__all__ = [
    "KIND_IM",
    "FlatProfile",
    "BumpDeformation",
    "profile_eval",
    "flatness_order_check",
]

KIND_IM = "exp_abs_y"  # h = exp(-1/|y1|^s), y1 = Im z1

# Heights below e^-700 (about 9.9e-305, still a normal double; doubles
# underflow only below e^-745.1) are flushed to 0.
_EXP_FLOOR = -700.0


def require_positive_finite(name: str, value) -> None:
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def require_eta(eta) -> None:
    if not (-1.0 <= eta <= 1.0):
        raise ValueError(f"eta must lie in [-1, 1], got {eta}")


@dataclasses.dataclass(frozen=True)
class FlatProfile:
    kind: str
    s: float  # flatness exponent, > 0

    couples_to_y2 = False  # the height depends on z1 only

    def __post_init__(self) -> None:
        if self.kind != KIND_IM:
            raise ValueError(f"kind must be {KIND_IM!r}, got {self.kind!r}")
        require_positive_finite("s", self.s)

    def boundary_trace(self, theta, phi, y2):
        """Surface height over the disc boundary; y2 is accepted for
        signature compatibility and unused (the profile depends on z1 only)."""
        return profile_eval(self, np.asarray(phi).imag)


def profile_eval(p: FlatProfile, y1):
    """exp(-1/|y|^s) at y = y1.

    The exponent is formed in log space; where it drops below -700 the
    height is flushed to 0, as it is exactly 0 at y1 = 0.
    """
    y = np.asarray(y1, dtype=float)
    out = np.abs(np.atleast_1d(y))  # a fresh array, worked on in place
    with np.errstate(divide="ignore", over="ignore"):
        out **= -p.s
    np.negative(out, out=out)
    live = out >= _EXP_FLOOR
    np.exp(out, out=out)
    out[~live] = 0.0
    return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)


def _blend_weight(x: np.ndarray) -> np.ndarray:
    """Smooth step: 0 for x <= 0, 1 for x >= 1, exp(-1/x) transition between.

    S(x) = a(x) / (a(x) + a(1-x)) with a(x) = exp(-1/x); all derivatives
    vanish at 0 and 1.  Off the band 0 < x < 1 the weight is exactly 0 or
    1 by definition, and only band nodes evaluate a (a NaN x counts as one
    and gives NaN); there a(x) and a(1-x) never underflow together.
    """
    x = np.asarray(x, dtype=float)
    ones = x >= 1.0
    out = np.where(ones, 1.0, 0.0)
    band = ~(ones | (x <= 0.0))
    lo = np.exp(np.divide(-1.0, x[band]))
    hi = np.exp(np.divide(-1.0, 1.0 - x[band]))
    out[band] = lo / (hi + lo)
    return out if out.ndim else out[()]


@dataclasses.dataclass(frozen=True)
class BumpDeformation:
    """A flat profile pushed down to a plateau away from theta = 0."""

    base: FlatProfile
    delta: float  # bump depth; the far plateau sits at -eta*delta/2
    alpha: float  # squeeze parameter of the disc this surface dresses
    eps_window: float = None  # window exponent; defaults to delta
    eta: float = 1.0  # bump scale in [-1, 1]

    @property
    def couples_to_y2(self) -> bool:
        # the bump itself ignores y2; only the base profile can read it
        return getattr(self.base, "couples_to_y2", True)

    def __post_init__(self) -> None:
        require_positive_finite("delta", self.delta)
        require_alpha(self.alpha)
        if self.eps_window is None:
            object.__setattr__(self, "eps_window", float(self.delta))
        require_positive_finite("eps_window", self.eps_window)
        require_eta(self.eta)

    def log_window(self) -> float:
        """log of window(); finite where the window itself underflows to 0."""
        return -self.eps_window / (2.0 * self.alpha)

    def window(self) -> float:
        """Half-width of the undisturbed window: exp(-eps_window/(2 alpha))."""
        return math.exp(self.log_window())

    def plateau(self) -> float:
        return -0.5 * self.eta * self.delta

    def trace_parts(self, theta, phi, y2) -> tuple:
        """The eta-free part of boundary_trace: (blend weight, base profile values)."""
        th = np.asarray(theta, dtype=float)
        # fold to a distance from theta = 0 on the circle, in [0, pi], then
        # x = log2(dist / window), all in place on one fresh array
        th1 = np.atleast_1d(th)
        x = th1 + np.pi
        if np.all((th >= 0.0) & (th < 2.0 * np.pi)):  # exact (module doc)
            np.subtract(x, 2.0 * np.pi, out=x, where=x >= 2.0 * np.pi)
        else:
            np.mod(x, 2.0 * np.pi, out=x)
        x -= np.pi
        np.abs(x, out=x)
        # theta + pi rounds away most of a distance below 2^-40, which no grid
        # of up to 2^42 nodes has: such an angle near 0 is its own distance, one
        # near 2 pi has 2 pi - theta, exact by Sterbenz.  The fold leaves x within
        # 2^-50 of the distance, so only nodes with x < 2^-39 are read
        near = np.flatnonzero(x < 2.0**-39)
        th_near = th1[near]
        dist = np.abs(np.where(th_near > np.pi, 2.0 * np.pi - th_near, th_near))
        keep = dist < 2.0**-40
        x[near[keep]] = dist[keep]
        window = self.window()
        if window >= 1e-300:  # the floor keeps theta = 0 inside the window
            np.maximum(x, 1e-300, out=x)
            x /= window
            np.log2(x, out=x)
        else:  # dist / window would overflow; log2(0) = -inf keeps theta = 0 inside
            with np.errstate(divide="ignore"):
                np.log2(x, out=x)
            x -= self.log_window() / math.log(2.0)
        weight = _blend_weight(x if th.ndim else x[0])
        return weight, self.base.boundary_trace(theta, phi, y2)

    @staticmethod
    def combine_rows(weight, base_vals, plateaus):
        """The heights (1 - w) base + w plateau, one row per plateau (one height for a bare one)."""
        rows = np.multiply.outer(plateaus, weight)
        rows += (1.0 - weight) * base_vals  # + is commutative in IEEE-754: the same bits
        return rows

    def boundary_trace(self, theta, phi, y2):
        return self.combine_rows(*self.trace_parts(theta, phi, y2), self.plateau())


def flatness_order_check(log_g, k: int, theta_grid):
    """Log ratios log(g(theta)/theta^k) along a grid decreasing to 0, plus a verdict.

    log_g(theta) returns the natural log of the height, never the height
    itself: a flat height such as exp(-1/|y|^s) falls below the smallest
    double long before its ratio to theta^k starts to fall, and a height
    that has underflowed to 0 would read as perfect attenuation.  -inf is
    reserved for a height that is exactly zero; NaN and +inf are rejected.

    The verdict is the attenuation test on the log ratios: the last is at
    most log(1e-10) below the first.  A row that starts at -inf passes
    only if it stays at -inf (the height is identically zero).
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"order k must be a positive integer, got {k!r}")
    th = np.asarray(theta_grid, dtype=float)
    if th.ndim != 1 or len(th) < 2:
        raise ValueError("theta_grid must be a 1-d sequence with at least 2 entries")
    if np.any(th <= 0.0) or np.any(np.diff(th) >= 0.0):
        raise ValueError("theta_grid must be positive and strictly decreasing")
    logs = np.asarray([float(log_g(t)) for t in th])
    if np.any(np.isnan(logs)) or np.any(logs == np.inf):
        raise ValueError("log heights must be finite, or -inf for an exactly zero height")
    log_ratios = logs - k * np.log(th)
    if log_ratios[0] > -np.inf:
        verdict = bool(log_ratios[-1] - log_ratios[0] <= math.log(1e-10))
    else:
        verdict = bool(np.all(log_ratios == -np.inf))
    return [float(r) for r in log_ratios], verdict

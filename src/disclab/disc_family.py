"""The squeezed analytic disc family.

phi_alpha(tau) = -1/log((1/4) ((1-tau)/2)^alpha), taken with the
principal logarithm.  On the closed unit disc the inner argument
(1-tau)/2 has nonnegative real part, so the branch is continuous off
tau = 1; the log's real part stays at or below log(1/4) < 0, so the
reciprocal never blows up.  As alpha shrinks, the boundary image
concentrates on the real segment from 0 to 1/log 4, pinching the disc
onto a slit: phi(1) = 0, phi(-1) = 1/log 4 for every alpha, and the
imaginary part on the boundary vanishes to infinite order at tau = 1.
The module evaluates the family on the boundary circle only, which is
all that the Bishop solver and the asymptotic scans read.

Boundary evaluation never forms 1 - e^{i theta} directly.  With
w = (1 - e^{i theta})/2 one has |w| = sin(theta/2) and
arg w = theta/2 - pi/2 for theta in (0, 2pi), so

    log w = A' + i psi,   A' = log sin(theta/2),  psi = theta/2 - pi/2,

and with A = log(1/4) + alpha A', B = alpha psi,

    phi = (-A + iB) / (A^2 + B^2).

This form is stable down to theta values where sin(theta/2) underflows;
_logtheta_parts pushes it further by working from t = -log theta
directly, which the flat-integral quadratures need for t in the
hundreds.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "LOG4",
    "SQUEEZE_LIMIT",
    "DiscFamilyParams",
    "phi_boundary",
    "inv_abs_im_phi_logtheta",
    "im_phi_expansion_check",
    "concentration_bound_check",
]

LOG4 = math.log(4.0)

# phi_alpha(-1), independent of alpha: (1-tau)/2 = 1 kills the alpha term.
SQUEEZE_LIMIT = 1.0 / LOG4


def require_alpha(alpha) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def require_decreasing(alphas) -> None:
    if not all(b < a for a, b in zip(alphas, alphas[1:])):  # a NaN fails every b < a
        raise ValueError(f"alpha values must be strictly decreasing, got {alphas}")


@dataclasses.dataclass(frozen=True)
class DiscFamilyParams:
    alpha: float  # squeeze parameter in (0, 1]

    def __post_init__(self) -> None:
        require_alpha(self.alpha)


def _boundary_parts(alpha: float, theta: np.ndarray):
    """Stable (A, B, at_one) for the boundary formula at 1-d angles theta."""
    # the mod returns angles in [0, 2 pi), such as the grid's, bit for bit; -0.0
    # passes as the at_one node, whose phi is 0 either way, and NaN is folded
    in_range = np.all((theta >= 0.0) & (theta < 2.0 * np.pi))
    half = (theta if in_range else np.mod(theta, 2.0 * np.pi)) * 0.5
    a = np.sin(half)
    at_one = a == 0.0
    with np.errstate(divide="ignore"):  # log(0) = -inf at the at_one nodes
        np.log(a, out=a)
    a *= alpha
    a += -LOG4
    half -= 0.5 * np.pi
    half *= alpha
    return a, half, at_one


def phi_boundary(params: DiscFamilyParams, theta) -> np.ndarray:
    """phi_alpha(e^{i theta}), vectorized over angles."""
    th = np.asarray(theta, dtype=float)
    a, b, at_one = _boundary_parts(params.alpha, np.atleast_1d(th).ravel())
    denom = a * a
    denom += b * b
    with np.errstate(invalid="ignore"):
        np.negative(a, out=a)
        a /= denom
        b /= denom
    a[at_one] = 0.0
    b[at_one] = 0.0
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = a, b
    return complex(out[0]) if th.ndim == 0 else out.reshape(th.shape)


def _logtheta_parts(alpha, tt):
    """(A, |B|) of the boundary formula at theta = e^{-tt}, for 1-d tt > -log(pi).

    Beyond t = 40 the angle is so small that sin(theta/2) = theta/2 and
    theta/2 - pi/2 = -pi/2 hold to strictly better than double precision,
    so the parts continue in closed form long after e^{-t} itself
    underflows.  The closed form is taken everywhere, then overwritten at
    t <= 40 (and at a NaN t) by the exact one.
    """
    log_rho = -tt - math.log(2.0)
    psi_abs = np.full_like(tt, 0.5 * math.pi)
    wide = ~(tt > 40.0)
    half = 0.5 * np.exp(-tt[wide])
    log_rho[wide] = np.log(np.sin(half))
    psi_abs[wide] = 0.5 * math.pi - half
    return -LOG4 + alpha * log_rho, alpha * psi_abs


def inv_abs_im_phi_logtheta(alpha, t) -> np.ndarray:
    """1/|Im phi_alpha(e^{i theta})| with theta = e^{-t}, stable for huge t.

    Valid for e^{-t} < pi, and exact in closed form long after e^{-t}
    underflows (_logtheta_parts).  alpha is a scalar or an array that
    broadcasts against t; each value equals the call with its own scalar
    alpha.
    """
    tv = np.asarray(t, dtype=float)
    if np.ndim(alpha):
        tv, alpha = np.broadcast_arrays(tv, np.asarray(alpha, dtype=float))
        alpha = alpha.reshape(-1)
    tt = tv.reshape(-1)  # a view when t is contiguous
    if np.any(tt <= -math.log(math.pi)):
        raise ValueError("need e^{-t} < pi, i.e. t > -log(pi)")
    a, b = _logtheta_parts(alpha, tt)
    out = (a * a + b * b) / b
    return float(out[0]) if tv.ndim == 0 else out.reshape(tv.shape)


def im_phi_expansion_check(params: DiscFamilyParams, theta: float):
    """Exact 1/|Im phi| against its three-term quadratic approximation.

    With rho = sin(theta/2) and psi = theta/2 - pi/2, the exact value is

        1/|Im phi| = (A^2 + B^2) / (alpha |psi|),   A = log(1/4) + alpha log rho,
                                                    B = alpha psi.

    The approximation replaces A^2 + B^2 by A^2 alone, expanded into its
    three terms in alpha:

        log^2(1/4)/alpha + 2 log(1/4) log rho + alpha log^2 rho,

    and keeps the exact angular factor |psi| (bounded between pi/4 and
    pi/2 here, tending to pi/2 at theta = 0; dropping it would bake a
    spurious factor pi/2 into the comparison).  The relative error is
    then exactly B^2/(A^2 + B^2), which decays like 1/log^2 theta as
    theta -> 0 and like alpha^2 for small alpha.

    Returns (exact, expansion, rel_err).
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
    alpha = params.alpha
    log_rho = math.log(math.sin(0.5 * theta))
    psi = 0.5 * theta - 0.5 * math.pi
    a = -LOG4 + alpha * log_rho
    b = alpha * psi
    exact = (a * a + b * b) / (alpha * abs(psi))
    three_terms = (LOG4 * LOG4) / alpha - 2.0 * LOG4 * log_rho + alpha * log_rho * log_rho
    expansion = three_terms / abs(psi)
    rel_err = abs(exact - expansion) / exact
    return exact, expansion, rel_err


def concentration_bound_check(params: DiscFamilyParams, delta: float) -> bool:
    """Whether the boundary arc away from tau = 1 sits delta-close to 1/log 4.

    Samples 100000 theta log-spaced over [e^{-delta/alpha}, pi], evenly in
    t = -log theta, and tests |phi(e^{i theta}) - 1/log 4| <= delta at each.
    phi commutes with conjugation and the center is real, so deviations at
    2 pi - theta equal those at theta and one half-circle covers both.
    The samples go through _logtheta_parts, so an arc start e^{-delta/alpha}
    that underflows needs no theta.
    """
    if not (0.0 < delta < SQUEEZE_LIMIT):
        raise ValueError(f"delta must lie in (0, 1/log 4), got {delta}")
    alpha = params.alpha
    if not delta / alpha < math.inf:
        raise ValueError(f"delta / alpha must be finite, got {delta} / {alpha}")
    a, b = _logtheta_parts(alpha, np.linspace(-math.log(math.pi), delta / alpha, 100000))
    # phi = -(A + i|B|)/(A^2 + B^2), up to a conjugation that leaves the distance
    denom = a * a + b * b
    return bool(np.max(np.hypot(a / denom + SQUEEZE_LIMIT, b / denom)) <= delta)

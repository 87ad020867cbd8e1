"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the code paths they are
used to check: the midpoint rule below shares nothing with the
half-shifted trapezoid rule inside radial_derivative except the
folded-integrand identity itself; it sums the product form at every
point of a much finer mesh instead of reading values off an FFT.
"""

import os
import pathlib

import numpy as np
import pytest

import disclab
from disclab import (
    BishopProblem,
    CircleGrid,
    DiscFamilyParams,
    FlatProfile,
    KIND_IM,
    solve_bishop,
)


def package_env() -> dict:
    """Environment for a subprocess that must import the disclab under test.

    PYTHONPATH names the directory holding the package this session
    imported, so the child neither fails to find it nor picks up another
    installed copy.
    """
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(disclab.__file__).resolve().parents[1])}


@pytest.fixture(scope="session")
def grid14():
    return CircleGrid(n=1 << 14)


@pytest.fixture(scope="session")
def params01():
    return DiscFamilyParams(alpha=0.1)


@pytest.fixture(scope="session")
def flat_s1():
    return FlatProfile(kind=KIND_IM, s=1.0)


@pytest.fixture(scope="session")
def undeformed_disc(grid14, params01, flat_s1):
    """Converged attachment over the undeformed flat surface, s=1, alpha=0.1."""
    p = BishopProblem(grid=grid14, disc=params01, surface=flat_s1, tol=1e-12, max_iter=64)
    return solve_bishop(p)


def midpoint_radial_derivative(a, m: int = 1 << 18) -> float:
    """Uniform midpoint rule on [0, pi] for the folded radial-derivative integrand.

    `a` holds the cosine coefficients a_k of a trigonometric polynomial
    (a[0] is not used); the odd part does not enter the integrand.
    Independent cross-check for the library quadrature: same even-part
    identity, completely different mesh and rule, and the coefficients as
    drawn rather than read back off an FFT.
    """
    k = np.flatnonzero(a[1:]) + 1
    h = np.pi / m
    th = (np.arange(m) + 0.5) * h
    acc = np.zeros(m)
    for kk in k:
        acc += a[kk] * np.sin(0.5 * kk * th) ** 2
    total = float(np.sum(2.0 * acc / np.sin(0.5 * th) ** 2) * h)
    return total / (2.0 * np.pi)


def poisson_radial_per_call(f, radii):
    """poisson_radial with its own np.power.outer table on every call."""
    a = f.coeffs
    k = np.arange(1, f.grid.n // 2 + 1, dtype=float)
    return a[0] + np.power.outer(np.atleast_1d(np.asarray(radii, dtype=float)), k) @ a[1:]


class CoupledSurface:
    """Test-local surface with genuine second-component feedback.

    h(theta, y2) = c * (0.1 sin(theta) + 0.3 y2).  It vanishes at theta=0,
    so an attached disc can close up exactly, and the y2 term makes the
    Picard map an actual contraction instead of a one-step constant.
    """

    def __init__(self, c: float = 1.0):
        self.c = c

    def boundary_trace(self, theta, phi, y2):
        return self.c * (0.1 * np.sin(theta) + 0.3 * np.asarray(y2))

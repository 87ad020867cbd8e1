"""Fixed-point solver for the disc-attachment functional equation.

Given the first component phi_alpha and a surface graph x2 = h over it,
the second component's imaginary trace solves

    v = T_1(h(phi_alpha, v))

on the circle; the real trace is then u = -T_1 v.  Because T(T f) =
-f + mean(f) and T_1 renormalizes at theta = 0, the pair u + iv is the
boundary trace of a holomorphic function vanishing at tau = 1, and u
agrees with the surface height up to the constant that makes u(0) = 0.

The iteration is plain Picard from v = 0.  For the profiles here the
composed right-hand side is exponentially flat with tiny differential,
so the map is strongly contracting; the solver detects the opposite
regime (five consecutive growing increments) and refuses rather than
looping.

Surfaces are duck-typed: anything with a boundary_trace(theta,
phi_values, v_values) -> real array method works, including test
surfaces that genuinely couple to v.  A surface whose class sets
couples_to_y2 = False declares that its trace ignores v; the solver then
traces it and applies T_1 once, and reuses that iterate for the second
step, which recomputing would reproduce bit for bit (so such a solve
still reports 2 iterations and a final increment of 0).  A surface
without the attribute is taken to couple.

Only work whose result is read is done.  Solves that share a grid can
share phi: a problem may carry phi_on_grid(disc, grid), read-only, and,
for a surface that ignores v, its trace over that phi; the solver
computes whatever the problem leaves unset and memoizes nothing itself,
so shared arrays live exactly as long as the problems holding them.
The alpha match and the window resolution are still checked for every
problem, in the log domain, where an underflowed window is still
"unresolved".  The report's holomorphy defect and Hoelder seminorm are
computed on first read.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .circle import (
    BoundaryFunction,
    CircleGrid,
    hilbert_t1,
    holder_seminorm,
    holomorphy_defect,
)
from .disc_family import DiscFamilyParams, phi_boundary
from .exceptions import GridUnresolved, NotConverged, QuadratureNonConvergent
from .profiles import BumpDeformation

__all__ = [
    "BishopProblem",
    "SolveReport",
    "AttachedDisc",
    "phi_on_grid",
    "solve_bishop",
    "contraction_estimate",
    "attachment_residual",
    "cauchy_extend",
]


@dataclasses.dataclass(frozen=True, eq=False)
class BishopProblem:
    grid: CircleGrid
    disc: DiscFamilyParams
    surface: object  # FlatProfile, BumpDeformation, or any boundary_trace provider
    tol: float = 1e-12  # sup-norm stopping tolerance on iteration increments
    max_iter: int = 64
    # work a caller shares between solves; the solve computes what is left unset
    phi: BoundaryFunction | None = dataclasses.field(default=None, repr=False)  # phi_on_grid
    trace: np.ndarray | None = dataclasses.field(default=None, repr=False)  # height over phi

    def __post_init__(self) -> None:
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not hasattr(self.surface, "boundary_trace"):
            raise ValueError("surface must provide a boundary_trace method")
        if self.phi is not None and self.phi.grid is not self.grid:
            raise ValueError("phi must live on the problem's grid")
        if self.trace is not None and (
            self.phi is None or getattr(self.surface, "couples_to_y2", True)
        ):
            raise ValueError("a trace is given only with phi, for a surface that ignores y2")
        if isinstance(self.surface, BumpDeformation):
            if abs(self.surface.alpha - self.disc.alpha) > 0.0:
                raise ValueError(
                    f"surface was built for alpha={self.surface.alpha}, "
                    f"disc has alpha={self.disc.alpha}"
                )
            # spacing <= w/16 means n >= 32 pi / w; decided in log2, as w can underflow
            log_w = self.surface.log_window()
            log2_needed = math.log2(32.0 * math.pi) - log_w / math.log(2.0)
            if math.log2(self.grid.n) < log2_needed:
                w = math.exp(log_w)
                width = f"{w:.6e}" if w > 0.0 else f"exp({log_w:.6g})"
                k = math.ceil(log2_needed) if log2_needed < math.inf else math.inf
                needed = 1 << k if k < 64 else f"2^{k}"
                raise GridUnresolved(
                    f"grid of {self.grid.n} nodes cannot resolve the "
                    f"deformation window {width}; need n >= {needed}"
                )


@dataclasses.dataclass(frozen=True)
class SolveReport:
    """Convergence record of one solve; the diagnostics are computed on first read."""

    iterations: int
    residual: float  # final sup-norm increment
    contraction: float  # largest observed ratio of consecutive increments
    converged: bool
    u: BoundaryFunction = dataclasses.field(repr=False, compare=False)
    v: BoundaryFunction = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def holomorphy_defect(self) -> float:
        return holomorphy_defect(self.u, self.v)

    @functools.cached_property
    def holder_seminorm(self) -> float:
        return holder_seminorm(self.v)


@dataclasses.dataclass(frozen=True, eq=False)
class AttachedDisc:
    """First component phi and second component u + iv with diagnostics."""

    phi: BoundaryFunction
    u: BoundaryFunction
    v: BoundaryFunction
    report: SolveReport
    problem: BishopProblem


def phi_on_grid(disc: DiscFamilyParams, grid: CircleGrid) -> BoundaryFunction:
    """The first component phi on the grid's nodes, read-only."""
    return BoundaryFunction._adopt(grid, phi_boundary(disc, grid.theta))


def solve_bishop(p: BishopProblem, v0=None) -> AttachedDisc:
    """Picard iteration for v = T_1(h(phi, v)), then u = -T_1 v.

    v0 may be a BoundaryFunction or array to start from; default is 0.
    The problem's phi and trace are used when set.  Raises NotConverged
    when max_iter runs out or the increments grow for five consecutive
    steps.
    """
    grid = p.grid
    theta = grid.theta
    couples = getattr(p.surface, "couples_to_y2", True)
    phi = p.phi if p.phi is not None else phi_on_grid(p.disc, grid)
    phi_vals = phi.values
    if v0 is None:
        v = np.zeros(grid.n)
    else:
        v = np.array(getattr(v0, "values", v0), dtype=float)
        if v.shape != (grid.n,):
            raise ValueError(f"initial iterate must have {grid.n} samples")

    increments = []
    converged = False
    iterations = 0
    v_next = None
    for iterations in range(1, p.max_iter + 1):
        if couples or v_next is None:
            height = p.trace
            if height is None:
                height = np.asarray(p.surface.boundary_trace(theta, phi_vals, v), dtype=float)
            v_next = hilbert_t1(BoundaryFunction(grid, height)).values
        inc = float(np.max(np.abs(v_next - v)))
        increments.append(inc)
        v = v_next
        if inc <= p.tol:
            converged = True
            break
        if len(increments) >= 6 and all(
            increments[-5 + i] > increments[-6 + i] for i in range(5)
        ):
            raise NotConverged(
                "sup-norm increments grew for 5 consecutive iterations "
                f"(latest {inc:.3e}); outside the contraction regime"
            )
    if not converged:
        raise NotConverged(
            f"no convergence within {p.max_iter} iterations; "
            f"final increment {increments[-1]:.3e} vs tol {p.tol:.1e}"
        )

    ratios = [
        b / a for a, b in zip(increments, increments[1:]) if a > 0.0
    ]
    vb = BoundaryFunction._adopt(grid, v)  # v is the last T_1 result's read-only values
    u_vals = -hilbert_t1(vb).values
    u_vals[0] = 0.0  # avoid the negative zero
    ub = BoundaryFunction._adopt(grid, u_vals)
    report = SolveReport(
        iterations=iterations,
        residual=increments[-1],
        contraction=max(ratios) if ratios else 0.0,
        converged=True,
        u=ub,
        v=vb,
    )
    return AttachedDisc(phi=phi, u=ub, v=vb, report=report, problem=p)


def contraction_estimate(p: BishopProblem, directions: int = 8, seed: int = 0) -> float:
    """Sampled operator norm of the iteration map's differential at v = 0.

    Probes v -> T_1(h(phi, v)) along seeded random unit-sup-norm
    directions at step 1e-6 and returns the largest response ratio.
    Zero for any surface that ignores v.
    """
    if directions < 1:
        raise ValueError(f"directions must be >= 1, got {directions}")
    rng = np.random.default_rng(seed)
    grid = p.grid
    theta = grid.theta
    phi_vals = phi_boundary(p.disc, theta)

    def step(v):
        trace = np.asarray(p.surface.boundary_trace(theta, phi_vals, v), dtype=float)
        return hilbert_t1(BoundaryFunction(grid, trace)).values

    base = step(np.zeros(grid.n))
    t = 1e-6
    best = 0.0
    for _ in range(directions):
        w = rng.standard_normal(grid.n)
        w /= np.max(np.abs(w))
        best = max(best, float(np.max(np.abs(step(t * w) - base))) / t)
    return best


def attachment_residual(d: AttachedDisc, surface) -> float:
    """sup over nodes of |u - h(phi, v)| against the given surface."""
    theta = d.phi.grid.theta
    trace = np.asarray(surface.boundary_trace(theta, d.phi.values, d.v.values), dtype=float)
    return float(np.max(np.abs(d.u.values - trace)))


def cauchy_extend(d: AttachedDisc, f, tau: complex) -> complex:
    """Cauchy integral of f along the disc boundary, evaluated inside.

    Computes (1/2 pi i) * integral of f(A(sigma))/(sigma - tau) d sigma
    by the trapezoid rule on the grid, A = (phi, u + iv).  When f
    composed with A extends holomorphically this reproduces f(A(tau)).

    The same sum over every other node serves as a resolution check;
    a discrepancy above 1e-6 of scale raises QuadratureNonConvergent
    (tau too close to the boundary for this grid, or f not resolved).
    """
    tau = complex(tau)
    if abs(tau) >= 1.0:
        raise ValueError(f"tau must lie strictly inside the disc, |tau| = {abs(tau):.6g}")
    sigma = np.exp(1j * d.phi.grid.theta)
    z2 = d.u.values + 1j * d.v.values
    g = np.asarray(f(d.phi.values, z2), dtype=complex)
    if g.shape != sigma.shape:
        raise ValueError("f must map boundary arrays to a boundary array")
    terms = g * sigma / (sigma - tau)
    full = complex(np.mean(terms))
    coarse = complex(np.mean(terms[::2]))
    if abs(full - coarse) > 1e-6 * max(1.0, abs(full)):
        raise QuadratureNonConvergent(
            f"Cauchy integral at tau={tau} is not grid-resolved: "
            f"{full} vs {coarse} on the coarsened grid"
        )
    return full

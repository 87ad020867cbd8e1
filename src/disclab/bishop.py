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
couples_to_y2 = False declares that its trace ignores v; its solve is
then v = T_1 h, u = -T_1 v with h traced once, and solve_traces runs it
for a block of such traces on one grid, one row per trace, with one
transform pair per step for the whole block.  Its iterations are those
of the Picard loop: the first gives v, and the second would recompute
v bit for bit, so it reports 2 iterations and a final increment of 0,
or 1 iteration when the first increment is already within tol.
solve_bishop runs the one-row case for such a surface.  A surface
without the attribute is taken to couple.

Only work whose result is read is done.  solve_traces takes the phi
that its caller shares.  The alpha match and the window resolution are
still checked for every problem, in the log domain, where an
underflowed window is still "unresolved".  The report's holomorphy
defect and Hoelder seminorm are computed on first read.
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
    hilbert_t1_rows,
    holder_seminorm,
    holomorphy_defect,
)
from .disc_family import DiscFamilyParams, phi_boundary
from .exceptions import GridUnresolved, NotConverged, QuadratureNonConvergent
from .profiles import BumpDeformation, require_positive_finite

__all__ = [
    "BishopProblem",
    "SolveReport",
    "AttachedDisc",
    "phi_on_grid",
    "solve_bishop",
    "solve_traces",
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

    def __post_init__(self) -> None:
        require_positive_finite("tol", self.tol)
        m = self.max_iter
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {m!r}")
        if not hasattr(self.surface, "boundary_trace"):
            raise ValueError("surface must provide a boundary_trace method")
        if isinstance(self.surface, BumpDeformation):
            if abs(self.surface.alpha - self.disc.alpha) > 0.0:
                raise ValueError(
                    f"surface was built for alpha={self.surface.alpha}, "
                    f"disc has alpha={self.disc.alpha}"
                )
            # a grid step <= w/16 means n >= 32 pi / w; decided in log2, as w can underflow
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


def phi_on_grid(disc: DiscFamilyParams, grid: CircleGrid) -> BoundaryFunction:
    """The first component phi on the grid's nodes, read-only."""
    return BoundaryFunction._adopt(grid, phi_boundary(disc, grid.theta))


def solve_bishop(p: BishopProblem, v0=None) -> AttachedDisc:
    """Picard iteration for v = T_1(h(phi, v)), then u = -T_1 v.

    v0 may be a BoundaryFunction or array to start from; default is 0.
    Raises NotConverged when max_iter runs out or the increments grow
    for five consecutive steps.  A surface that ignores y2 is solved as
    the one-row case of solve_traces.
    """
    grid = p.grid
    theta = grid.theta
    phi = phi_on_grid(p.disc, grid)
    phi_vals = phi.values
    if v0 is None:
        v = np.zeros(grid.n)
    else:
        v = np.array(getattr(v0, "values", v0), dtype=float)
        if v.shape != (grid.n,):
            raise ValueError(f"initial iterate must have {grid.n} samples")
    if not getattr(p.surface, "couples_to_y2", True):
        height = p.surface.boundary_trace(theta, phi_vals, v)
        (disc,) = solve_traces(phi, np.asarray(height, dtype=float)[None], p.tol, p.max_iter, v0=v)
        if isinstance(disc, NotConverged):
            raise disc
        return disc

    increments = []
    for iterations in range(1, p.max_iter + 1):
        height = np.asarray(p.surface.boundary_trace(theta, phi_vals, v), dtype=float)
        v_next = hilbert_t1(BoundaryFunction(grid, height)).values
        inc = float(np.max(np.abs(v_next - v)))
        increments.append(inc)
        v = v_next
        if inc <= p.tol:
            break
        if len(increments) >= 6 and all(
            increments[-5 + i] > increments[-6 + i] for i in range(5)
        ):
            raise NotConverged(
                "sup-norm increments grew for 5 consecutive iterations "
                f"(latest {inc:.3e}); outside the contraction regime"
            )
    else:
        raise _not_converged(p.max_iter, increments[-1], p.tol)

    ratios = [
        b / a for a, b in zip(increments, increments[1:]) if a > 0.0
    ]
    vb = BoundaryFunction._adopt(grid, v)  # v is the last T_1 result's read-only values
    u_vals = -hilbert_t1(vb).values
    u_vals[0] = 0.0  # avoid the negative zero
    ub = BoundaryFunction._adopt(grid, u_vals)
    return _attached(phi, ub, vb, iterations, increments[-1], max(ratios) if ratios else 0.0)


def solve_traces(phi: BoundaryFunction, traces, tol: float, max_iter: int, v0=None) -> list:
    """The solve of each row of an (m, n) block of heights over phi, for a surface that ignores y2.

    Row i is solved as solve_bishop solves one trace, from v0 (an (n,)
    array, default 0): v = T_1 h, u = -T_1 v.  Returns, per row, its
    AttachedDisc, or the NotConverged that solve_bishop would raise for
    it; a failed row leaves the others as they are.  Every row's u and v
    are rows of one (m, n) block each, and the u share one coefficient
    transform of their block, taken when the first of them is read.
    """
    grid = phi.grid
    traces = np.asarray(traces, dtype=float)
    if traces.ndim != 2 or traces.shape[1] != grid.n:
        raise ValueError(f"expected rows of {grid.n} samples, got shape {traces.shape}")
    if not np.all(np.isfinite(traces)):
        raise ValueError("boundary samples must all be finite")
    v = hilbert_t1_rows(traces)
    v.flags.writeable = False
    first = np.max(np.abs(v if v0 is None else v - v0), axis=1)  # each row's first increment
    u = hilbert_t1_rows(v)
    np.negative(u, out=u)
    u[:, 0] = 0.0  # avoid the negative zero
    out = []
    for ub, v_row, inc in zip(BoundaryFunction._adopt_rows(grid, u), v, first.tolist()):
        if inc <= tol:
            iterations, residual = 1, inc
        elif max_iter >= 2:  # the second step recomputes v bit for bit: an increment of 0
            iterations, residual = 2, 0.0
        else:
            out.append(_not_converged(max_iter, inc, tol))
            continue
        vb = BoundaryFunction._adopt(grid, v_row)
        out.append(_attached(phi, ub, vb, iterations, residual, 0.0))
    return out


def _not_converged(max_iter: int, inc: float, tol: float) -> NotConverged:
    return NotConverged(
        f"no convergence within {max_iter} iterations; "
        f"final increment {inc:.3e} vs tol {tol:.1e}"
    )


def _attached(phi, ub, vb, iterations, residual, contraction) -> AttachedDisc:
    report = SolveReport(
        iterations=iterations,
        residual=residual,
        contraction=contraction,
        converged=True,
        u=ub,
        v=vb,
    )
    return AttachedDisc(phi=phi, u=ub, v=vb, report=report)


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

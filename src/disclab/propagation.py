"""Disc-propagation experiment: does the attached disc point into x2 < 0?

One experiment fixes a squeezed disc family (alpha), a flat profile
(exponent s), and a bump deformation of size delta.  It then

  1. solves the Bishop problem on the fully deformed surface (eta = 1)
     and evaluates the interior radial derivative of the height u at the
     contact point, by the spectral coefficient sum and independently by
     the trapezoid-rule quadrature of the boundary representation;
  2. classifies, along a grid of deformation strengths eta in [-1, 1],
     every boundary point of every disc as lying on the undeformed
     surface or inside the delta-ball around the squeeze limit,
     recording how far each disc dips below x2 = 0.

The sign question "does the disc point down" is answered by the primary
(quadrature) radial derivative being positive: u is harmonic with
u(0) = 0, so a positive inward-normal derivative at the boundary
contact pushes the interior below the surface along the x2 axis.

The sweep takes at most two Bishop solves, at eta = 1 and eta = 0, as
the two rows of one block solve (bishop.solve_traces).  Its surface
ignores y2, so a solve is v = T_1(trace), u = -T_1 v, linear in
the trace, and the trace (1 - w) base + w (-eta delta / 2) is affine in
eta.  Hence u, v, the spectral radial derivative and u along a ray are
affine in eta, and every other cell is derived as x0 + eta (x1 - x0)
from the two solves' values; it differs from its own solve only by
rounding.  The cells at eta = 0 and 1 take the solves' values as they
are.

A derived cell classifies the node whose u is x0 + eta (x1 - x0), and
most nodes answer the same for every derived eta: far inside the window
u stays at the base height, far outside it |u - base| grows with |eta|,
and the ball test depends on eta only through u^2 + v^2.  One pass over
the nodes settles every node that no derived eta can flip, by the
cell's own formula at the end etas of each run of one sign, which
rounding leaves monotone in eta (_Settled); only the rest are
classified per cell, by the same formula as a solved cell (_classify),
on short arrays gathered once.  Every count equals the one the formula
gives on the full arrays.  The radial derivative and the deepest x2 of
a derived cell are x0 + eta (x1 - x0).

phi on the grid, the bump's blend weight and base-profile values (which
also serve as the classification's undeformed heights) and
|phi - center|^2 are computed once per run.  Each u's Fourier
coefficients are computed once and read by both radial derivatives and
the ray evaluation.  All of it belongs to the run and is freed when it
returns.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bishop import AttachedDisc, BishopProblem, phi_on_grid, solve_traces
from .bishop import solve_bishop  # noqa: F401  (perfbench/tracing.py binds this name)
from .circle import CircleGrid, poisson_radial, radial_derivative
from .disc_family import SQUEEZE_LIMIT, DiscFamilyParams, require_decreasing
from .exceptions import NoAdmissibleAlpha, NotConverged
from .profiles import KIND_IM, BumpDeformation, FlatProfile, require_eta
from .profiles import profile_eval  # noqa: F401  (perfbench/tracing.py binds this name)

__all__ = [
    "ExperimentConfig",
    "EtaCell",
    "PropagationReport",
    "run_experiment",
    "alpha_search",
]


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    s: float
    alpha: float
    delta: float = 0.2  # ball radius and default bump window exponent
    eps_window: float | None = BumpDeformation.eps_window  # bump window exponent; None copies delta
    eta_grid: tuple = tuple(float(x) for x in np.linspace(-1.0, 1.0, 21))
    n: int = 1 << 14
    tol: float = BishopProblem.tol
    max_iter: int = BishopProblem.max_iter
    r_profile: tuple = (0.9, 0.99, 0.999, 0.9999)
    r_coverage: tuple = (0.99, 0.995, 0.999, 0.9995, 0.9999)

    def __post_init__(self) -> None:
        # the disc and the bump refuse their own bad parameters
        DiscFamilyParams(alpha=self.alpha)
        _surface(self, 1.0)
        object.__setattr__(self, "eta_grid", tuple(float(e) for e in self.eta_grid))
        if not self.eta_grid:
            raise ValueError("eta_grid must be nonempty")
        for eta in self.eta_grid:
            require_eta(eta)
        for name in ("r_profile", "r_coverage"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if any(not (0.0 < r < 1.0) for r in self.r_profile + self.r_coverage):
            raise ValueError("interior radii must lie in (0, 1)")


def _surface(cfg: ExperimentConfig, eta: float) -> BumpDeformation:
    return BumpDeformation(
        base=FlatProfile(kind=KIND_IM, s=cfg.s),
        delta=cfg.delta,
        alpha=cfg.alpha,
        eps_window=cfg.eps_window,
        eta=eta,
    )


@dataclasses.dataclass(frozen=True)
class EtaCell:
    eta: float
    converged: bool
    on_surface: int  # boundary nodes matching the undeformed profile height
    in_ball: int  # boundary nodes inside the delta-ball at the squeeze limit
    neither: int  # nodes in neither class; nonzero means bad geometry or an underresolved grid
    # spectral value at this eta (nan if unconverged): the solve's own at eta = 0
    # and 1, else derived from those two, as it is affine in eta (see module doc)
    radial_derivative: float
    min_x2: float  # deepest interior x2 along the coverage radii (nan if unconverged)


@dataclasses.dataclass(frozen=True)
class PropagationReport:
    alpha: float
    radial_derivative: float  # primary value: trapezoid-rule quadrature at eta = 1
    radial_derivative_spectral: float
    radial_derivative_quadrature: float
    # |spectral - quadrature|: the trapezoid rule is exact for the grid's
    # interpolant, so this is rounding only, never an error estimate
    radial_discrepancy: float
    points_down: bool
    transversal_profile: tuple  # (r, u(r)) pairs along the inward axis at eta = 1
    eta_classifications: tuple  # EtaCell per requested eta
    coverage_min_x2: float  # min over converged cells of each cell's min_x2
    config: ExperimentConfig


def _head_problem(cfg: ExperimentConfig) -> BishopProblem:
    """The eta = 1 problem: built without an array, it refuses a bad tol or window."""
    return BishopProblem(
        grid=CircleGrid(n=cfg.n),
        disc=DiscFamilyParams(alpha=cfg.alpha),
        surface=_surface(cfg, 1.0),
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )


class _Sweep:
    """The work of one experiment, shared by its two solves and all its cells.

    Premise: the surface ignores y2, so a solve is linear in the trace,
    and the trace is affine in eta; the values of every cell then lie
    on the line through the solves at eta = 0 and 1.  A surface that
    couples to y2 breaks it and is refused.  phi, the bump's blend
    weight and base-profile values, and |phi - center|^2 are computed
    once; a solve only combines the weight and base values with its own
    plateau, and the solves at eta = 1 and 0 are the rows of one block
    solve.  phi and the weight serve only the solves, and the run drops
    them before it takes the cells; the rest is freed when the
    experiment returns.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.head = _head_problem(cfg)
        self.grid, self.params = self.head.grid, self.head.disc
        if getattr(self.head.surface, "couples_to_y2", True):
            raise ValueError("an eta sweep needs a surface that ignores y2")
        self.phi = phi_on_grid(self.params, self.grid)
        self.weight, self.base_vals = self.head.surface.trace_parts(
            self.grid.theta, self.phi.values, None
        )
        self.center_dist2 = np.abs(self.phi.values - SQUEEZE_LIMIT) ** 2

    def solve(self, etas) -> list:
        """The solves at etas as the rows of one block: an AttachedDisc or a NotConverged each."""
        plateaus = [_surface(self.cfg, eta).plateau() for eta in etas]
        traces = BumpDeformation.combine_rows(self.weight, self.base_vals, plateaus)
        return solve_traces(self.phi, traces, self.cfg.tol, self.cfg.max_iter)

    def values(self, disc: AttachedDisc) -> tuple:
        """(u, v, spectral radial derivative, u along the coverage radii) of one solve."""
        rd = radial_derivative(disc.u, method="spectral")
        along_ray = poisson_radial(disc.u, np.asarray(self.cfg.r_coverage))
        return disc.u.values, disc.v.values, rd, along_ray

    def cell(self, eta: float, values: tuple) -> EtaCell:
        """The cell of one solve's (u, v, radial derivative, u along the ray)."""
        u, v, rd, along_ray = values
        cfg = self.cfg
        (counts,) = _classify(u, v, self.base_vals, self.center_dist2, cfg.tol, cfg.delta)
        return _cell(eta, len(u), counts, rd, along_ray)


# A cell's formulas, read by _classify and _Settled alike: a derived value, the
# residual (on the surface where |r| <= tol) and the ball radius (in where <= delta)
def _derived(x0, slope, eta: float):
    return x0 + eta * slope


def _residual(u, base_vals):
    return u - base_vals


def _ball_radius(center_dist2, u_sq, v_sq):
    return np.sqrt(center_dist2 + u_sq + v_sq)


def _classify(u, v, base_vals, center_dist2, tol: float, delta: float) -> list:
    """(on surface, in the ball, either) node counts for each row of heights u and v.

    The deformation vanishes outside its window, so nodes there still
    satisfy the undeformed height relation at the solver tolerance; the
    windowed nodes must instead fall inside the delta-ball around the
    squeeze limit point.  Classifying against the deformed surface would
    be vacuous (every node attaches to it by construction), so the
    residual here is taken against the base profile.
    """
    on_surface = np.abs(_residual(u, base_vals)) <= tol
    in_ball = _ball_radius(center_dist2, u**2, v**2) <= delta
    return [
        (np.count_nonzero(on), np.count_nonzero(inside), np.count_nonzero(on | inside))
        for on, inside in zip(np.atleast_2d(on_surface), np.atleast_2d(in_ball))
    ]


def _cell(eta: float, n: int, counts: tuple, rd: float, along_ray) -> EtaCell:
    """A converged cell; the deepest x2 is the least u along the ray toward the contact point."""
    on_surface, in_ball, either = (int(c) for c in counts)
    return EtaCell(
        eta=eta,
        converged=True,
        on_surface=on_surface,
        in_ball=in_ball,
        neither=n - either,
        radial_derivative=rd,
        min_x2=float(np.min(along_ray)),
    )


class _Settled:
    """The derived cells of one sweep: each node classified once if it can be.

    A derived cell (eta neither 0 nor 1) classifies _derived u and v by
    _classify.  IEEE-754 + - * sqrt are correctly rounded, hence
    monotone: the residual r = _residual(u, base) is monotone in eta,
    u^2 in |u|, and the ball radius in each of its terms.  So the cell's
    own expressions at the end etas bound every derived cell exactly.  r
    may cross tol near eta = 0, which is no derived eta, so each run of
    one sign is bounded apart.  A node is, for every derived eta,

      on the surface   when |r| <= tol at both ends of each run;
      off the surface  when in each run r > tol at both ends or < -tol at both;
      in the ball      when the radius of cd2 = |phi - center|^2 and the larger
                       u^2 and v^2 at the least and greatest eta is <= delta;
      out of the ball  when sqrt(cd2) > delta.

    The off and out tests are strict, as the complement of the cell's <=
    is, and a NaN settles nothing.  The nodes left are gathered once and
    go through _classify as one (etas x nodes) block per group of etas,
    each block of at most n elements.
    """

    def __init__(self, sweep: _Sweep, x0: tuple, slope: tuple, etas):
        (u0, v0, self.rd0, self.ray0), (du, dv, self.d_rd, self.d_ray) = x0, slope
        base, cd2, tol = sweep.base_vals, sweep.center_dist2, sweep.cfg.tol
        self.n, self.tol, self.delta = len(u0), tol, sweep.cfg.delta
        runs = [run for run in ([e for e in etas if e < 0.0], [e for e in etas if e > 0.0]) if run]
        u = {eta: _derived(u0, du, eta) for run in runs for eta in (min(run), max(run))}
        lo, hi = min(u), max(u)  # the least and greatest eta end runs too
        u_sq = np.maximum(u[lo] ** 2, u[hi] ** 2)
        v_sq = np.maximum(_derived(v0, dv, lo) ** 2, _derived(v0, dv, hi) ** 2)
        inside = _ball_radius(cd2, u_sq, v_sq) <= self.delta
        outside = np.sqrt(cd2) > self.delta
        on = off = True
        for run in runs:
            r_a, r_b = (_residual(u[eta], base) for eta in (min(run), max(run)))
            on = on & (np.abs(r_a) <= tol) & (np.abs(r_b) <= tol)
            off = off & ((np.minimum(r_a, r_b) > tol) | (np.maximum(r_a, r_b) < -tol))
        settled = (on | off) & (inside | outside)
        self.counts = tuple(
            int(np.count_nonzero(cls & settled)) for cls in (on, inside, on | inside)
        )
        rest = np.flatnonzero(~settled)
        self.u0, self.du, self.v0, self.dv, self.base, self.cd2 = (
            a[rest] for a in (u0, du, v0, dv, base, cd2)
        )

    def cells(self, etas) -> list:
        """The cell of each of the derived etas."""
        etas = np.asarray(etas, dtype=float)
        group = max(1, self.n // max(1, len(self.u0)))  # etas per block of <= n elements
        counts = []
        for i in range(0, len(etas), group):
            e = etas[i:i + group, None] if group > 1 else etas[i]  # a scalar broadcasts faster
            counts += _classify(
                _derived(self.u0, self.du, e), _derived(self.v0, self.dv, e),
                self.base, self.cd2, self.tol, self.delta,
            )
        return [
            _cell(
                eta,
                self.n,
                tuple(a + b for a, b in zip(self.counts, c)),
                _derived(self.rd0, self.d_rd, eta),
                _derived(self.ray0, self.d_ray, eta),
            )
            for eta, c in zip(etas.tolist(), counts)
        ]


def _head(sweep: _Sweep, head: AttachedDisc) -> tuple:
    """Quadrature radial derivative, transversal profile and cell values at eta = 1."""
    cfg = sweep.cfg
    rd_quad = radial_derivative(head.u, method="quadrature")
    along_ray = poisson_radial(head.u, np.asarray(cfg.r_profile))
    transversal = tuple(
        (float(r), float(val)) for r, val in zip(cfg.r_profile, along_ray)
    )
    return rd_quad, transversal, sweep.values(head)


def run_experiment(cfg: ExperimentConfig) -> PropagationReport:
    sweep = _Sweep(cfg)
    # eta = 1 and, when another cell needs it, eta = 0, solved as one block
    head, *flat = sweep.solve((1.0, 0.0) if any(eta != 1.0 for eta in cfg.eta_grid) else (1.0,))
    if isinstance(head, NotConverged):
        raise head
    rd_quad, transversal, x1 = _head(sweep, head)
    rd_spec = x1[2]
    head_cell = sweep.cell(1.0, x1) if 1.0 in cfg.eta_grid else None

    x0 = slope = None  # values at eta = 0 and x1 - x0; None when unneeded or unconverged
    if flat and not isinstance(flat[0], NotConverged):
        x0 = sweep.values(flat[0])
        slope = tuple(b - a for a, b in zip(x0, x1))
    # the cells read neither the head's arrays nor what only the solves need
    del head, flat, x1, sweep.phi, sweep.weight
    derived = list(dict.fromkeys(eta for eta in cfg.eta_grid if eta != 0.0 and eta != 1.0))
    settled = {}
    if x0 is not None and derived:
        settled = dict(zip(derived, _Settled(sweep, x0, slope, derived).cells(derived)))
    cells = []
    for eta in cfg.eta_grid:
        if eta == 1.0:
            cells.append(head_cell)
        elif x0 is None:
            cells.append(
                EtaCell(
                    eta=eta,
                    converged=False,
                    on_surface=0,
                    in_ball=0,
                    neither=0,
                    radial_derivative=math.nan,
                    min_x2=math.nan,
                )
            )
        elif eta == 0.0:
            cells.append(sweep.cell(eta, x0))
        else:
            cells.append(settled[eta])
    depths = [c.min_x2 for c in cells if c.converged]
    if not depths:
        raise NotConverged("no eta cell converged; experiment has no coverage data")

    return PropagationReport(
        alpha=cfg.alpha,
        radial_derivative=rd_quad,
        radial_derivative_spectral=rd_spec,
        radial_derivative_quadrature=rd_quad,
        radial_discrepancy=abs(rd_spec - rd_quad),
        points_down=bool(rd_quad > 0.0),
        transversal_profile=transversal,
        eta_classifications=tuple(cells),
        coverage_min_x2=min(depths),
        config=cfg,
    )


def alpha_search(cfg: ExperimentConfig, alpha_values) -> PropagationReport:
    """Run the experiment down a decreasing alpha grid; keep the first hit.

    Returns the report of the largest alpha whose disc points down.
    Raises NoAdmissibleAlpha when the whole grid fails, with the scanned
    values, and those whose run did not converge, recorded in the message.
    """
    alphas = [float(a) for a in alpha_values]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    require_decreasing(alphas)
    # every alpha's config and head problem refuse it before the first run
    trials = [dataclasses.replace(cfg, alpha=a) for a in alphas]
    for trial in trials:
        _head_problem(trial)
    failed = []
    for trial in trials:
        try:
            report = run_experiment(trial)
        except NotConverged:
            failed.append(trial.alpha)
            continue
        if report.points_down:
            return report
    message = f"no alpha in {alphas} produced a downward-pointing disc at s = {cfg.s}"
    if failed:
        message += f"; the run did not converge at alpha in {failed}"
    raise NoAdmissibleAlpha(message)

"""Disc-propagation experiment: does the attached disc point into x2 < 0?

One experiment fixes a squeezed disc family (alpha), a flat profile
(exponent s), and a bump deformation of size delta.  It then

  1. solves the Bishop problem on the fully deformed surface (eta = 1)
     and evaluates the interior radial derivative of the height u at the
     contact point, by the spectral coefficient sum and independently by
     the trapezoid-rule quadrature of the boundary representation;
  2. re-solves along a grid of deformation strengths eta in [-1, 1] and
     classifies every boundary point of every disc as lying on the
     undeformed surface or inside the delta-ball around the squeeze
     limit, recording how far each disc dips below x2 = 0.

The sign question "does the disc point down" is answered by the primary
(quadrature) radial derivative being positive: u is harmonic with
u(0) = 0, so a positive inward-normal derivative at the boundary
contact pushes the interior below the surface along the x2 axis.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .bishop import AttachedDisc, BishopProblem, attachment_residual, solve_bishop
from .circle import CircleGrid, poisson_radial, radial_derivative
from .disc_family import SQUEEZE_LIMIT, DiscFamilyParams
from .exceptions import NoAdmissibleAlpha, NotConverged
from .profiles import KIND_IM, BumpDeformation, FlatProfile, profile_eval

__all__ = [
    "ExperimentConfig",
    "EtaCell",
    "PropagationReport",
    "run_experiment",
    "alpha_search",
]


def _default_eta_grid() -> tuple:
    return tuple(float(x) for x in np.linspace(-1.0, 1.0, 21))


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    s: float
    alpha: float
    delta: float = 0.2  # ball radius and default bump window exponent
    eps_window: float | None = None  # bump window exponent; None copies delta
    eps_shift: float = 0.0
    eta_grid: tuple = dataclasses.field(default_factory=_default_eta_grid)
    n: int = 1 << 14
    tol: float = 1e-12
    max_iter: int = 64
    r_profile: tuple = (0.9, 0.99, 0.999, 0.9999)
    r_coverage: tuple = (0.99, 0.995, 0.999, 0.9995, 0.9999)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (self.s > 0.0):
            raise ValueError(f"s must be positive, got {self.s}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.eps_window is not None and not (self.eps_window > 0.0):
            raise ValueError(f"eps_window must be positive, got {self.eps_window}")
        if self.eps_shift < 0.0:
            raise ValueError(f"eps_shift must be nonnegative, got {self.eps_shift}")
        etas = tuple(float(e) for e in self.eta_grid)
        if not etas:
            raise ValueError("eta_grid must be nonempty")
        if any(abs(e) > 1.0 for e in etas):
            raise ValueError("every eta must lie in [-1, 1]")
        object.__setattr__(self, "eta_grid", etas)
        if any(not (0.0 < r < 1.0) for r in self.r_profile + self.r_coverage):
            raise ValueError("interior radii must lie in (0, 1)")

    def window_exponent(self) -> float:
        return self.delta if self.eps_window is None else self.eps_window


@dataclasses.dataclass(frozen=True)
class EtaCell:
    eta: float
    converged: bool
    on_surface: int  # boundary nodes matching the undeformed profile height
    in_ball: int  # boundary nodes inside the delta-ball at the squeeze limit
    neither: int  # nodes in neither class; nonzero means bad geometry or an underresolved grid
    radial_derivative: float  # spectral value at this eta (nan if unconverged)
    min_x2: float  # deepest interior x2 along the coverage radii (nan if unconverged)


@dataclasses.dataclass(frozen=True)
class PropagationReport:
    alpha: float
    radial_derivative: float  # primary value: trapezoid-rule quadrature at eta = 1
    radial_derivative_spectral: float
    radial_derivative_quadrature: float
    radial_discrepancy: float
    points_down: bool
    transversal_profile: tuple  # (r, u(r)) pairs along the inward axis at eta = 1
    eta_classifications: tuple  # EtaCell per requested eta
    coverage_min_x2: float  # min over converged cells of each cell's min_x2
    config: ExperimentConfig


def _solve_at_eta(cfg: ExperimentConfig, grid: CircleGrid, eta: float) -> AttachedDisc:
    params = DiscFamilyParams(alpha=cfg.alpha, eps_shift=cfg.eps_shift)
    base = FlatProfile(kind=KIND_IM, s=cfg.s)
    surface = BumpDeformation(
        base=base,
        delta=cfg.delta,
        alpha=cfg.alpha,
        eps_window=cfg.window_exponent(),
        eta=eta,
    )
    problem = BishopProblem(
        grid=grid,
        disc=params,
        surface=surface,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    return solve_bishop(problem)


def _classify(cfg: ExperimentConfig, disc: AttachedDisc) -> tuple:
    """Count boundary nodes on the undeformed surface vs inside the ball.

    The deformation vanishes outside its window, so nodes there still
    satisfy the undeformed height relation at the solver tolerance; the
    windowed nodes must instead fall inside the delta-ball around the
    squeeze limit point.  Classifying against the deformed surface would
    be vacuous (every node attaches to it by construction), so the
    residual here is taken against the base profile.
    """
    base = FlatProfile(kind=KIND_IM, s=cfg.s)
    phi = disc.phi.values
    u = disc.u.values
    v = disc.v.values
    base_height = profile_eval(base, np.imag(phi))
    on_surface = np.abs(u - base_height) <= cfg.tol

    center = SQUEEZE_LIMIT - cfg.eps_shift
    dist = np.sqrt(np.abs(phi - center) ** 2 + u**2 + v**2)
    in_ball = dist <= cfg.delta

    neither = ~(on_surface | in_ball)
    return int(np.sum(on_surface)), int(np.sum(in_ball)), int(np.sum(neither))


def _min_interior_x2(cfg: ExperimentConfig, disc: AttachedDisc) -> float:
    """Deepest x2 = u value along the ray toward the contact point."""
    vals = poisson_radial(disc.u, np.asarray(cfg.r_coverage), theta=0.0)
    return float(np.min(vals))


def run_experiment(cfg: ExperimentConfig) -> PropagationReport:
    grid = CircleGrid(n=cfg.n)

    head = _solve_at_eta(cfg, grid, 1.0)
    fu = head.u
    rd_spec = radial_derivative(fu, method="spectral")
    rd_quad = radial_derivative(fu, method="quadrature")
    discrepancy = abs(rd_spec - rd_quad)
    along_ray = poisson_radial(fu, np.asarray(cfg.r_profile), theta=0.0)
    transversal = tuple(
        (float(r), float(val)) for r, val in zip(cfg.r_profile, along_ray)
    )

    cells = []
    coverage = math.inf
    any_converged = False
    for eta in cfg.eta_grid:
        try:
            disc = head if eta == 1.0 else _solve_at_eta(cfg, grid, eta)
        except NotConverged:
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
            continue
        on_s, in_b, nei = _classify(cfg, disc)
        rd = radial_derivative(disc.u, method="spectral")
        mx2 = _min_interior_x2(cfg, disc)
        cells.append(
            EtaCell(
                eta=eta,
                converged=True,
                on_surface=on_s,
                in_ball=in_b,
                neither=nei,
                radial_derivative=rd,
                min_x2=mx2,
            )
        )
        coverage = min(coverage, mx2)
        any_converged = True
    if not any_converged:
        raise NotConverged("no eta cell converged; experiment has no coverage data")

    return PropagationReport(
        alpha=cfg.alpha,
        radial_derivative=rd_quad,
        radial_derivative_spectral=rd_spec,
        radial_derivative_quadrature=rd_quad,
        radial_discrepancy=discrepancy,
        points_down=bool(rd_quad > 0.0),
        transversal_profile=transversal,
        eta_classifications=tuple(cells),
        coverage_min_x2=coverage,
        config=cfg,
    )


def alpha_search(cfg: ExperimentConfig, alpha_values) -> PropagationReport:
    """Run the experiment down a decreasing alpha grid; keep the first hit.

    Returns the report of the largest alpha whose disc points down.
    Raises NoAdmissibleAlpha when the whole grid fails, with the scanned
    values recorded in the message.
    """
    alphas = [float(a) for a in alpha_values]
    if not alphas:
        raise ValueError("alpha grid must be nonempty")
    if any(b >= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be strictly decreasing")
    for a in alphas:
        trial = dataclasses.replace(cfg, alpha=a)
        try:
            report = run_experiment(trial)
        except NotConverged:
            continue
        if report.points_down:
            return report
    raise NoAdmissibleAlpha(
        f"no alpha in {alphas} produced a downward-pointing disc at s = {cfg.s}"
    )

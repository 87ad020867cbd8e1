"""Deformation experiment: classification, radial derivative sign, alpha search."""

import functools
import math
import re
import types
import weakref

import numpy as np
import pytest

from disclab import (
    BishopProblem,
    ExperimentConfig,
    NoAdmissibleAlpha,
    NotConverged,
    alpha_search,
    run_experiment,
)
from disclab import bishop, circle, profiles, propagation


@pytest.fixture(scope="module")
def report_s1():
    return run_experiment(ExperimentConfig(s=1.0, alpha=0.2))


def cell_at(report, eta):
    for cell in report.eta_classifications:
        if cell.eta == eta:
            return cell
    raise AssertionError(f"no cell at eta={eta}")


# ---- configuration


def test_config_defaults():
    cfg = ExperimentConfig(s=1.0, alpha=0.1)
    assert len(cfg.eta_grid) == 21
    assert cfg.eta_grid[0] == -1.0 and cfg.eta_grid[-1] == 1.0


def test_nan_grids_are_refused_before_any_run(monkeypatch):
    runs = []
    monkeypatch.setattr(propagation, "run_experiment", lambda cfg: runs.append(cfg))
    with pytest.raises(ValueError, match=re.escape("eta must lie in [-1, 1], got nan")):
        ExperimentConfig(s=1.0, alpha=0.2, eta_grid=(math.nan, 1.0))
    cfg = ExperimentConfig(s=1.0, alpha=0.2, n=4096)
    for grid in ([0.2, math.nan], [math.nan, 0.2], [0.2, 0.1, math.nan]):
        with pytest.raises(ValueError, match="alpha values must be strictly decreasing"):
            alpha_search(cfg, grid)
    # decreasing, but the last alpha is out of range: refused although 0.2 comes first
    for grid, bad in (([0.2, 0.1, -0.1], -0.1), ([0.2, 0.1, 0.0], 0.0)):
        with pytest.raises(ValueError, match=re.escape(f"alpha must lie in (0, 1], got {bad}")):
            alpha_search(cfg, grid)
    assert runs == []


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(s=0.0, alpha=0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(s=1.0, alpha=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(s=1.0, alpha=0.1, delta=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(s=1.0, alpha=0.1, eta_grid=())
    with pytest.raises(ValueError):
        ExperimentConfig(s=1.0, alpha=0.1, eta_grid=(0.0, 1.2))
    with pytest.raises(ValueError):
        ExperimentConfig(s=1.0, alpha=0.1, r_coverage=(0.5, 1.0))
    with pytest.raises(ValueError):
        ExperimentConfig(s=1.0, alpha=0.1, eps_shift=-0.1)
    for name in ("s", "delta", "eps_window"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                ExperimentConfig(**{"s": 1.0, "alpha": 0.1, name: bad})
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="eps_shift must be nonnegative and finite"):
            ExperimentConfig(s=1.0, alpha=0.1, eps_shift=bad)


# ---- the flagship run: s = 1, alpha = 0.2


def test_radial_derivative_positive_and_consistent(report_s1):
    r = report_s1
    assert r.points_down is True
    assert r.radial_derivative == pytest.approx(7.00042647e-02, rel=1e-6)
    assert r.radial_derivative == r.radial_derivative_quadrature
    assert r.radial_discrepancy <= 1e-10
    assert abs(r.radial_derivative_spectral - r.radial_derivative_quadrature) == (
        r.radial_discrepancy
    )


def test_disc_dips_below_along_the_inward_ray(report_s1):
    profile = dict(report_s1.transversal_profile)
    assert set(profile) == {0.9, 0.99, 0.999, 0.9999}
    for r, want in (
        (0.9, -7.3358e-03),
        (0.99, -7.0354e-04),
        (0.999, -7.0039e-05),
        (0.9999, -7.0008e-06),
    ):
        assert profile[r] == pytest.approx(want, rel=1e-3)
        assert profile[r] < 0.0
    assert report_s1.coverage_min_x2 == pytest.approx(-7.035357e-04, rel=1e-4)


def test_classification_is_exhaustive(report_s1):
    cells = report_s1.eta_classifications
    assert len(cells) == 21
    for cell in cells:
        assert cell.converged
        assert cell.neither == 0
        assert cell.on_surface > 0
        assert cell.in_ball > 0


def test_endpoint_cells(report_s1):
    lo, hi = cell_at(report_s1, -1.0), cell_at(report_s1, 1.0)
    # pushing the bump up instead of down flips the derivative sign and
    # lifts the disc off the surface side
    assert lo.radial_derivative == pytest.approx(-7.0114e-02, rel=1e-3)
    assert hi.radial_derivative == pytest.approx(7.0004e-02, rel=1e-3)
    assert lo.min_x2 > 0.0 > hi.min_x2
    assert (lo.on_surface, lo.in_ball) == (3247, 15049)
    assert (hi.on_surface, hi.in_ball) == (3247, 15049)


def test_flat_middle_cell(report_s1):
    # eta=0 is the undeformed surface; the tiny negative residual is the
    # plateau of the window itself, orders below the eta=+-1 endpoints
    mid = cell_at(report_s1, 0.0)
    assert mid.radial_derivative == pytest.approx(-5.4967e-05, rel=1e-3)
    assert (mid.on_surface, mid.in_ball) == (6992, 15073)


def test_min_x2_monotone_in_eta(report_s1):
    xs = [c.min_x2 for c in report_s1.eta_classifications]
    assert all(b <= a + 1e-15 for a, b in zip(xs, xs[1:]))


# ---- the other side of the dichotomy


def test_points_up_below_the_threshold():
    rep = run_experiment(
        ExperimentConfig(s=0.5, alpha=0.05, eta_grid=(-1.0, 0.0, 1.0))
    )
    assert rep.points_down is False
    assert rep.radial_derivative == pytest.approx(-6.394569, rel=1e-4)


def test_quadrature_matches_spectral_on_a_large_grid():
    # the trapezoid rule is exact for the interpolant, so the two methods
    # differ only by rounding even where the s = 0.5 spectrum is broad
    rep = run_experiment(
        ExperimentConfig(s=0.5, alpha=0.05, eta_grid=(1.0,), n=1 << 16)
    )
    assert rep.radial_discrepancy <= 1e-10


# ---- the sweep derived from two solves


def _solved_cells(cfg):
    """Every cell from its own full solve over the sweep's surface at that eta."""
    sweep = propagation._Sweep(cfg)
    cells = []
    for eta in cfg.eta_grid:
        problem = BishopProblem(
            grid=sweep.grid,
            disc=sweep.params,
            surface=propagation._surface(cfg, eta),
            tol=cfg.tol,
            max_iter=cfg.max_iter,
        )
        cells.append(sweep.cell(eta, sweep.values(bishop.solve_bishop(problem))))
    return cells


@pytest.mark.parametrize("s, alpha", [(1.0, 0.2), (1.0, 0.05), (0.75, 0.1), (0.5, 0.05)])
def test_derived_cells_match_a_solve_per_eta(s, alpha):
    cfg = ExperimentConfig(s=s, alpha=alpha, n=4096)
    derived = run_experiment(cfg).eta_classifications
    solved = _solved_cells(cfg)
    assert len(derived) == len(solved) == 21
    rd_scale = max(abs(c.radial_derivative) for c in solved)
    x2_scale = max(abs(c.min_x2) for c in solved)
    for got, want in zip(derived, solved):
        assert got.eta == want.eta
        assert (got.converged, got.on_surface, got.in_ball, got.neither) == (
            want.converged, want.on_surface, want.in_ball, want.neither
        )
        assert abs(got.radial_derivative - want.radial_derivative) <= 1e-10 * rd_scale
        assert abs(got.min_x2 - want.min_x2) <= 1e-10 * x2_scale
        if got.eta in (0.0, 1.0):
            assert got == want  # the solves' own values, bit for bit


@pytest.mark.parametrize("etas, solves", [((1.0,), 1), ((-1.0, 0.0, 1.0), 2), ((-0.5, 0.5), 2)])
def test_a_sweep_takes_at_most_two_solves(monkeypatch, etas, solves):
    solved_etas = []

    def recording_solve(problem):
        solved_etas.append(problem.surface.eta)
        return bishop.solve_bishop(problem)

    monkeypatch.setattr(propagation, "solve_bishop", recording_solve)
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096, eta_grid=etas))
    assert solved_etas == [1.0, 0.0][:solves]
    assert [c.eta for c in report.eta_classifications] == list(etas)
    assert all(c.converged for c in report.eta_classifications)


def test_a_failed_flat_solve_leaves_only_the_head_cell(monkeypatch):
    def failing_at_zero(problem):
        if problem.surface.eta == 0.0:
            raise NotConverged("refused for the test")
        return bishop.solve_bishop(problem)

    monkeypatch.setattr(propagation, "solve_bishop", failing_at_zero)
    cfg = ExperimentConfig(s=1.0, alpha=0.2, n=4096, eta_grid=(-1.0, 0.0, 0.5, 1.0))
    report = run_experiment(cfg)
    *lost, head = report.eta_classifications
    for cell in lost:
        assert not cell.converged
        assert (cell.on_surface, cell.in_ball, cell.neither) == (0, 0, 0)
        assert math.isnan(cell.radial_derivative) and math.isnan(cell.min_x2)
    assert head.converged and report.coverage_min_x2 == head.min_x2
    with pytest.raises(NotConverged, match="no eta cell converged"):
        run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096, eta_grid=(-1.0, 0.0)))


def test_a_sweep_refuses_a_surface_that_couples_to_y2(monkeypatch):
    monkeypatch.setattr(profiles.BumpDeformation, "couples_to_y2", True)
    with pytest.raises(ValueError, match="an eta sweep needs a surface that ignores y2"):
        run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096))


# ---- search over alpha


def test_alpha_search_picks_first_admissible():
    cfg = ExperimentConfig(s=1.0, alpha=0.2, eta_grid=(-1.0, 0.0, 1.0))
    rep = alpha_search(cfg, (0.2, 0.1, 0.05))
    assert rep.alpha == 0.2
    assert rep.points_down


def test_alpha_search_skips_an_alpha_whose_run_does_not_converge(monkeypatch):
    def run(cfg):
        if cfg.alpha == 0.2:
            raise NotConverged("refused for the test")
        return run_experiment(cfg)

    monkeypatch.setattr(propagation, "run_experiment", run)
    cfg = ExperimentConfig(s=1.0, alpha=0.2, n=4096, eta_grid=(1.0,))
    rep = alpha_search(cfg, (0.2, 0.1))
    assert rep.alpha == 0.1
    assert rep.points_down


def test_alpha_search_exhausts_honestly():
    # below the s=1 threshold every alpha points up; n stays at the default
    # because 4096 nodes misresolve the marginal alpha=0.05 cell (the sign
    # of the radial derivative flips), so the search would falsely admit it
    cfg = ExperimentConfig(s=0.6, alpha=0.2, eta_grid=(1.0,))
    with pytest.raises(NoAdmissibleAlpha) as exc:
        alpha_search(cfg, (0.2, 0.1))
    assert "0.1" in str(exc.value)


def test_alpha_search_validates_grid():
    cfg = ExperimentConfig(s=1.0, alpha=0.2)
    with pytest.raises(ValueError):
        alpha_search(cfg, ())
    with pytest.raises(ValueError):
        alpha_search(cfg, (0.1, 0.2))


def test_head_solve_failure_propagates():
    with pytest.raises(NotConverged):
        run_experiment(ExperimentConfig(s=1.0, alpha=0.2, max_iter=1))


# ---- work done per experiment


def test_diagnostics_are_computed_only_when_read(monkeypatch):
    def refuse(*args):
        raise AssertionError("diagnostic computed though nothing read it")

    discs = []

    def recording_solve(problem):
        discs.append(bishop.solve_bishop(problem))
        return discs[-1]

    monkeypatch.setattr(propagation, "solve_bishop", recording_solve)
    monkeypatch.setattr(bishop, "holder_seminorm", refuse)
    monkeypatch.setattr(bishop, "holomorphy_defect", refuse)
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096))
    monkeypatch.undo()
    assert len(report.eta_classifications) == 21 and len(discs) == 2
    disc = discs[0]  # the eta = 1 solve
    assert disc.report.holder_seminorm == circle.holder_seminorm(disc.v)
    assert disc.report.holomorphy_defect == circle.holomorphy_defect(disc.u, disc.v)


def test_one_phi_evaluation_per_experiment(monkeypatch):
    calls = []

    def counted(params, theta):
        calls.append(len(theta))
        return phi_boundary(params, theta)

    phi_boundary = bishop.phi_boundary
    monkeypatch.setattr(bishop, "phi_boundary", counted)
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096))
    assert len(report.eta_classifications) == 21
    assert calls == [4096]


def _calls(counts, name, fn):
    def call(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return call


def test_eta_free_work_is_done_once_per_experiment(monkeypatch):
    counts = {}
    for owner in (profiles, propagation):
        monkeypatch.setattr(
            owner, "profile_eval", _calls(counts, "base profile", profiles.profile_eval)
        )
    monkeypatch.setattr(
        profiles, "_blend_weight", _calls(counts, "blend weight", profiles._blend_weight)
    )
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096))
    assert len(report.eta_classifications) == 21
    assert counts == {"base profile": 1, "blend weight": 1}


def test_one_transform_per_function_and_one_power_table_per_ray(monkeypatch):
    transformed = []  # (kind, input array); the arrays are kept so no id is reused
    tables = []  # radii of each np.power.outer table
    rays = []  # radii of each poisson_radial call

    def recorded(kind, fn):
        def call(a, *args, **kwargs):
            transformed.append((kind, a))
            return fn(a, *args, **kwargs)

        return call

    class Numpy(types.ModuleType):
        def __getattr__(self, attr):
            return getattr(np, attr)

    def power_outer(radii, k):
        tables.append(tuple(radii.tolist()))
        return np.power.outer(radii, k)

    def recording_ray(f, radii):
        rays.append(tuple(radii.tolist()))
        return circle.poisson_radial(f, radii)

    proxy = Numpy("numpy")
    proxy.fft = types.SimpleNamespace(
        rfft=recorded("rfft", np.fft.rfft), irfft=recorded("irfft", np.fft.irfft)
    )
    proxy.power = types.SimpleNamespace(outer=power_outer)
    monkeypatch.setattr(circle, "np", proxy)
    discs = []

    def recording_solve(problem):
        discs.append(bishop.solve_bishop(problem))
        return discs[-1]

    monkeypatch.setattr(propagation, "solve_bishop", recording_solve)
    monkeypatch.setattr(propagation, "poisson_radial", recording_ray)
    cfg = ExperimentConfig(s=1.0, alpha=0.2, n=4096)
    run_experiment(cfg)
    assert len(discs) == 2
    # two T_1 per solve, one coefficient rfft per u, one irfft for the quadrature
    assert len(transformed) == 2 * 4 + 2 + 1 == 11
    inputs = [a for kind, a in transformed if kind == "rfft"]
    assert len({id(a) for a in inputs}) == len(inputs)
    for disc in discs:
        assert sum(a is disc.u.values for a in inputs) == 1
    # the profile and coverage rays of the head solve, the coverage ray at eta = 0
    assert rays == [cfg.r_profile, cfg.r_coverage, cfg.r_coverage]
    assert tables == rays


def test_shared_arrays_are_freed_when_the_experiment_returns(monkeypatch):
    refs = []

    def kept(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            for item in out if isinstance(out, tuple) else (out,):
                refs.append(weakref.ref(item))
            return out

        return call

    monkeypatch.setattr(propagation, "phi_on_grid", kept(bishop.phi_on_grid))
    monkeypatch.setattr(profiles.BumpDeformation, "trace_parts",
                        kept(profiles.BumpDeformation.trace_parts))
    coeffs = functools.cached_property(kept(circle.BoundaryFunction.coeffs.func))
    coeffs.__set_name__(circle.BoundaryFunction, "coeffs")
    monkeypatch.setattr(circle.BoundaryFunction, "coeffs", coeffs)
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096))
    assert report.points_down
    # phi, weight, base values and each u's coefficients
    assert len(refs) >= 1 + 2 + 2
    alive = [ref() for ref in refs if ref() is not None]
    assert alive == []

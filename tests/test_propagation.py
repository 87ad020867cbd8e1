"""Deformation experiment: classification, radial derivative sign, alpha search."""

import dataclasses
import functools
import math
import re
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disclab import (
    BishopProblem,
    BumpDeformation,
    CircleGrid,
    DiscFamilyParams,
    ExperimentConfig,
    FlatProfile,
    KIND_IM,
    NoAdmissibleAlpha,
    NotConverged,
    alpha_search,
    run_experiment,
)
from disclab import bishop, circle, profiles, propagation
from conftest import CoupledSurface, poisson_radial_per_call


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
    for name in ("s", "delta", "eps_window"):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                ExperimentConfig(**{"s": 1.0, "alpha": 0.1, name: bad})
    # empty radii would construct and then fail inside run_experiment
    for name in ("r_profile", "r_coverage"):
        with pytest.raises(ValueError, match=f"{name} must be nonempty"):
            ExperimentConfig(**{"s": 1.0, "alpha": 0.2, name: ()})


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


_BUMP = BumpDeformation(base=FlatProfile(kind=KIND_IM, s=1.0), delta=0.2, alpha=0.2)


@pytest.mark.parametrize(
    "trace",
    [_BUMP.boundary_trace, _BUMP.trace_parts, FlatProfile(kind=KIND_IM, s=0.75).boundary_trace,
     CoupledSurface().boundary_trace],
    ids=["bump", "bump-parts", "flat", "coupled"],
)
def test_no_surface_reads_re_phi(trace):
    # the heights depend on Im phi and y2 only, so a disc moved along x1 solves
    # the same problem: the sweep's premise that the ball centre is SQUEEZE_LIMIT
    grid = CircleGrid(n=1 << 12)
    phi = bishop.phi_on_grid(DiscFamilyParams(alpha=0.2), grid).values
    y2 = 0.01 * np.sin(grid.theta)
    want = np.asarray(trace(grid.theta, phi, y2)).tobytes()
    for c in (-0.3, 0.1, 5.0):
        assert np.asarray(trace(grid.theta, phi + c, y2)).tobytes() == want, c


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
    blocks = []

    def recording_solve(sweep, block_etas):
        blocks.append(tuple(block_etas))
        return solve(sweep, block_etas)

    solve = propagation._Sweep.solve
    monkeypatch.setattr(propagation._Sweep, "solve", recording_solve)
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096, eta_grid=etas))
    assert blocks == [(1.0, 0.0)[:solves]]  # both solves in one block
    assert [c.eta for c in report.eta_classifications] == list(etas)
    assert all(c.converged for c in report.eta_classifications)


def _failing_at_zero(monkeypatch):
    """Make the sweep's solve at eta = 0 fail, as a row of the block fails."""
    solve = propagation._Sweep.solve

    def failing_at_zero(sweep, etas):
        discs = solve(sweep, etas)
        return [NotConverged("refused for the test") if eta == 0.0 else d
                for eta, d in zip(etas, discs)]

    monkeypatch.setattr(propagation._Sweep, "solve", failing_at_zero)


def test_a_failed_flat_solve_leaves_only_the_head_cell(monkeypatch):
    _failing_at_zero(monkeypatch)
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


# ---- derived cells: nodes settled once, the rest by the per-cell formula


def _per_cell_reference(cfg):
    """The cells as the per-cell formula gives them on the full arrays of every eta.

    This is run_experiment's sweep before nodes were settled once: every
    derived cell forms u and v of all nodes and classifies them.
    """
    sweep = propagation._Sweep(cfg)
    x1, x0 = (sweep.values(disc) for disc in sweep.solve((1.0, 0.0)))
    slope = tuple(b - a for a, b in zip(x0, x1))

    def cell(eta, values):
        u, v, rd, along_ray = values
        on_surface = np.abs(u - sweep.base_vals) <= cfg.tol
        in_ball = np.sqrt(sweep.center_dist2 + u**2 + v**2) <= cfg.delta
        return propagation.EtaCell(
            eta=eta,
            converged=True,
            on_surface=int(np.count_nonzero(on_surface)),
            in_ball=int(np.count_nonzero(in_ball)),
            neither=len(u) - int(np.count_nonzero(on_surface | in_ball)),
            radial_derivative=rd,
            min_x2=float(np.min(along_ray)),
        )

    cells = []
    for eta in cfg.eta_grid:
        if eta == 1.0:
            cells.append(cell(eta, x1))
        elif eta == 0.0:
            cells.append(cell(eta, x0))
        else:
            cells.append(cell(eta, tuple(a + eta * d for a, d in zip(x0, slope))))
    return cells


def _bits(cell):
    """A cell's fields with every float spelled exactly, -0.0 apart from 0.0."""
    return tuple(repr(x) for x in dataclasses.astuple(cell))


REFERENCE_GRIDS = {
    "default": ExperimentConfig.eta_grid,
    "duplicates": (-0.5, 0.25, -0.5, 1.0, 0.25, 0.0, 1.0),
    "negative zero": (-1.0, -0.0, 0.3, 1.0, 0.0),
    "tiny eta": (-1e-300, 1e-300, 0.5, 1.0),
    "without 0": (-1.0, -0.4, 0.6, 1.0),
    "without 1": (-0.7, 0.0, 0.2, 0.9),
    "one derived eta": (0.0, -0.35, 1.0),
}


@pytest.mark.parametrize("tol", [1e-300, 1e-12, 1e-3])
@pytest.mark.parametrize("n", [1 << 10, 1 << 14])
@pytest.mark.parametrize("alpha", [0.1, 0.2])
@pytest.mark.parametrize("s", [0.5, 0.75, 1.0, 2.0])
def test_settled_cells_equal_the_per_cell_formula(monkeypatch, s, alpha, n, tol):
    solves = {}  # the two solves do not depend on the grid; take the block once

    def cached_solve(sweep, etas):
        if tuple(etas) not in solves:
            solves[tuple(etas)] = solve(sweep, etas)
        return solves[tuple(etas)]

    solve = propagation._Sweep.solve
    monkeypatch.setattr(propagation._Sweep, "solve", cached_solve)
    for name, grid in REFERENCE_GRIDS.items():
        cfg = ExperimentConfig(s=s, alpha=alpha, n=n, tol=tol, eta_grid=grid)
        got = [_bits(c) for c in run_experiment(cfg).eta_classifications]
        assert got == [_bits(c) for c in _per_cell_reference(cfg)], name
    assert list(solves) == [(1.0, 0.0)]


def _boundary_nodes(tol, delta, etas):
    """Nodes whose cell values sit within a few ulps of tol and of delta.

    Three families: |u - base| at tol for the largest |eta| (the
    on-surface bound is tight there), |u - base| at tol for the least
    |eta| (the off-surface bound), and |phi - center|^2 + u^2 + v^2 at
    delta^2 for eta = -1 (the in-ball bound); each is spread over ulp
    offsets on both sides.  A fourth family lies far from tol and delta,
    half on the surface and in the ball, half off and out.
    """
    rng = np.random.default_rng(20)
    k = 1500
    lo = min(abs(e) for e in etas)
    ulps = rng.integers(-6, 7, size=k)
    base = rng.uniform(0.5, 1.0, size=(3, k))
    sign = np.where(rng.random(size=(3, k)) < 0.5, -1.0, 1.0)
    # |u - base| = tol at eta = -1: u0 - du = base + sign tol
    du_on = rng.uniform(-0.9, 0.9, size=k) * tol
    u0_on = base[0] + sign[0] * tol + du_on
    # |u - base| = lo |du| - c = tol at eta = lo: u0 - base = -c sign(du)
    c = rng.uniform(0.0, 1.0, size=k) * tol
    du_off = sign[1] * (tol + c) / lo
    u0_off = base[1] - c * sign[1]
    # in the ball at eta = -1, where u^2 + v^2 = (|u0| + |du|)^2 + (|v0| + |dv|)^2
    u0_ball, v0_ball = rng.uniform(0.01, 0.05, size=(2, k))
    du_ball, dv_ball = -rng.uniform(0.001, 0.03, size=(2, k))
    cd2_ball = delta**2 - ((u0_ball - du_ball) ** 2 + (v0_ball - dv_ball) ** 2)
    u0_far = rng.uniform(0.0, 0.05, size=k)
    far_off = np.arange(k) % 2 == 1
    u0 = np.concatenate([u0_on, u0_off, u0_ball, u0_far])
    du = np.concatenate([du_on, du_off, du_ball, rng.uniform(-0.1, 0.1, size=k) * tol])
    u0[:3 * k] += np.tile(ulps, 3) * np.spacing(u0[:3 * k])
    v0 = np.concatenate([np.zeros(2 * k), v0_ball, u0_far])
    dv = np.concatenate([np.zeros(2 * k), dv_ball, np.zeros(k)])
    # the ball family sits far off the surface, the surface families far out of the ball
    base_vals = np.concatenate([base[0], base[1], u0_ball - 1.0, u0_far + far_off])
    cd2 = np.concatenate([
        np.full(2 * k, 4.0 * delta**2),
        cd2_ball + ulps * np.spacing(cd2_ball),
        np.where(far_off, 4.0 * delta**2, 0.01 * delta**2),
    ])
    return u0, du, v0, dv, base_vals, cd2


def _settle(u0, du, v0, dv, base_vals, cd2, tol, delta, etas):
    """_Settled over bare node arrays, with zero radial derivative and ray."""
    sweep = types.SimpleNamespace(
        cfg=types.SimpleNamespace(tol=tol, delta=delta), base_vals=base_vals, center_dist2=cd2
    )
    zeros = np.zeros(len(u0))
    return propagation._Settled(sweep, (u0, v0, 0.0, zeros), (du, dv, 0.0, zeros), etas)


def test_settling_is_exact_at_tol_and_delta():
    tol, delta = 2.0**-10, 0.2
    etas = (-1.0, -0.45, 0.3, 0.85)
    nodes = _boundary_nodes(tol, delta, etas)
    u0, du, v0, dv, base_vals, cd2 = nodes
    settled = _settle(*nodes, tol, delta, etas)
    bad = []
    for eta, cell in zip(etas, settled.cells(etas)):
        (counts,) = propagation._classify(
            u0 + eta * du, v0 + eta * dv, base_vals, cd2, tol, delta
        )
        if (cell.on_surface, cell.in_ball, len(u0) - cell.neither) != counts:
            bad.append(eta)
    assert bad == []
    for eta in etas:  # the families do straddle tol and delta at these etas
        u, v = u0 + eta * du, v0 + eta * dv
        assert 0 < np.count_nonzero(np.abs(u - base_vals) <= tol) < len(u0)
        assert 0 < np.count_nonzero(np.sqrt(cd2 + u**2 + v**2) <= delta) < len(u0)
    # the far family is settled whole; each family at tol or delta is settled
    # in part, up to its last ulp, and the rest left to _classify
    k = len(u0) // 4
    left = [len(_settle(*(a[i:i + k] for a in nodes), tol, delta, etas).u0)
            for i in range(0, len(u0), k)]
    assert left[3] == 0 and all(0 < n < k for n in left[:3])


def test_a_node_at_tol_or_delta_at_an_end_eta_is_settled():
    """The bounds have no margin: a node whose cell sits exactly at tol or at
    delta at an end eta is settled, and one a step beyond is left to _classify."""
    tol, delta, etas = 2.0**-10, 0.25, (-1.0, 0.3, 0.85)
    # |u - base| = tol at eta = -1 and less at 0.85; the ball radius is delta
    # at eta = -1 and less at 0.85; every value below is exact in binary
    u0 = np.array([0.75, np.nextafter(0.75, 1.0), 0.0, 0.0])
    du = np.array([-tol, -tol, -0.125, -0.125])
    cd2 = np.array([1.0, 1.0, 3.0 / 64.0, 3.0 / 64.0 + 2.0**-55])  # 4 ulps up
    base_vals = np.array([0.75, 0.75, -1.0, -1.0])
    zeros = np.zeros(4)
    u = u0 - du
    assert list(np.abs(u - base_vals) <= tol) == [True, False, False, False]
    assert list(np.sqrt(cd2 + u**2) <= delta) == [False, False, True, False]
    for i in range(4):
        settled = _settle(*(a[i:i + 1] for a in (u0, du, zeros, zeros, base_vals, cd2)),
                          tol, delta, etas)
        assert len(settled.u0) == i % 2
        assert settled.counts == ((1, 0, 1), (0, 0, 0), (0, 1, 1), (0, 0, 0))[i]


# Derived eta sets: either sign, 1e-300 and -1e-300, duplicates, one eta
_DERIVED_ETA = st.sampled_from([-1.0, -0.45, -1e-300, 1e-300, 0.3, 0.85]) | st.floats(
    -1.0, 1.0, allow_subnormal=True
)


@settings(max_examples=150, deadline=None)
@given(
    etas=st.lists(_DERIVED_ETA, min_size=1, max_size=6),
    sign=st.sampled_from([None, -1.0, 1.0]),
    tol=st.sampled_from([1e-300, 1e-12, 2.0**-10, 1e-3]),
    delta=st.sampled_from([0.2, 0.25, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_settled_cells_equal_the_per_cell_formula_near_tol_and_delta(etas, sign, tol, delta, seed):
    if sign is not None:  # one-signed sets
        etas = [sign * abs(e) for e in etas]
    etas = [e for e in etas if e != 0.0 and e != 1.0]
    assume(etas)
    rng = np.random.default_rng(seed)
    k = 64
    anchor = rng.choice(etas, size=(2, k))  # where a node's cell sits at tol or delta
    side = np.where(rng.random(size=(2, k)) < 0.5, -1.0, 1.0)
    # |u - base| = tol at the anchor, from bases up to 10^3 tol, slopes up to 3 tol
    # or up to 3 tol / |anchor| (at most 3), so the residual may cross tol between runs
    base_s = rng.uniform(-1.0, 1.0, size=k) * tol * 10.0 ** rng.uniform(0.0, 3.0, size=k)
    du_s = rng.uniform(-3.0, 3.0, size=k) * tol
    steep = du_s / np.maximum(np.abs(anchor[0]), tol)
    du_s = np.where(rng.random(size=k) < 0.5, du_s, steep)
    u0_s = base_s + side[0] * tol - anchor[0] * du_s
    # |phi - center|^2 + u^2 + v^2 = delta^2 at the anchor, on the surface or far off it
    u0_b, v0_b, du_b, dv_b = rng.uniform(-0.3, 0.3, size=(4, k)) * delta
    u_b, v_b = u0_b + anchor[1] * du_b, v0_b + anchor[1] * dv_b
    cd2_b = delta**2 - u_b**2 - v_b**2
    base_b = u_b + np.where(side[1] > 0.0, tol, 1.0)
    u0 = np.concatenate([u0_s, u0_b])
    u0 += rng.integers(-4, 5, size=2 * k) * np.spacing(u0)
    cd2 = np.concatenate([np.full(k, 4.0 * delta**2), cd2_b])
    cd2 += rng.integers(-4, 5, size=2 * k) * np.spacing(cd2)
    du = np.concatenate([du_s, du_b])
    v0, dv = np.concatenate([np.zeros(k), v0_b]), np.concatenate([np.zeros(k), dv_b])
    base_vals = np.concatenate([base_s, base_b])
    settled = _settle(u0, du, v0, dv, base_vals, cd2, tol, delta, etas)
    for eta, cell in zip(etas, settled.cells(etas)):
        u, v = u0 + eta * du, v0 + eta * dv
        on_surface = np.abs(u - base_vals) <= tol
        in_ball = np.sqrt(cd2 + u**2 + v**2) <= delta
        assert (cell.on_surface, cell.in_ball, cell.neither) == (
            int(np.count_nonzero(on_surface)),
            int(np.count_nonzero(in_ball)),
            2 * k - int(np.count_nonzero(on_surface | in_ball)),
        ), eta


def test_few_nodes_reach_the_per_cell_formula_for_a_derived_cell(monkeypatch):
    shapes = []

    def counted(u, *args):
        shapes.append(u.shape)
        return classify(u, *args)

    classify = propagation._classify
    monkeypatch.setattr(propagation, "_classify", counted)
    cfg = ExperimentConfig(s=1.0, alpha=0.2)
    run_experiment(cfg)
    # the solves at eta = 1 and 0 classify every node; the 19 derived cells,
    # one block of rows, only the nodes that the bounds leave undecided
    assert [shape for shape in shapes if len(shape) == 1] == [(cfg.n,), (cfg.n,)]
    ((rows, nodes),) = [shape for shape in shapes if len(shape) == 2]
    assert rows == 19
    assert nodes < cfg.n / 100


def test_derived_cell_blocks_stay_within_n_elements():
    # at s = 0.5 about half of the nodes stay undecided, so the 19 derived
    # etas go through _classify in groups whose blocks hold at most n values
    cfg = ExperimentConfig(s=0.5, alpha=0.2)
    sweep = propagation._Sweep(cfg)
    x1, x0 = (sweep.values(disc) for disc in sweep.solve((1.0, 0.0)))
    slope = tuple(b - a for a, b in zip(x0, x1))
    derived = [eta for eta in cfg.eta_grid if eta not in (0.0, 1.0)]
    settled = propagation._Settled(sweep, x0, slope, derived)
    assert len(settled.u0) > cfg.n / 4
    tracemalloc.start()
    try:
        settled.cells(derived)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few float temporaries of at most n values each; the 19 etas as one
    # block would take about 60
    assert peak <= 6 * 8 * cfg.n


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

    def recording_solve(sweep, etas):
        discs.extend(solve(sweep, etas))
        return discs[-len(etas):]

    solve = propagation._Sweep.solve
    monkeypatch.setattr(propagation._Sweep, "solve", recording_solve)
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


def test_one_transform_per_function_and_one_power_row_per_radius(monkeypatch):
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

    def recording_solve(sweep, etas):
        discs.extend(solve(sweep, etas))
        return discs[-len(etas):]

    solve = propagation._Sweep.solve
    monkeypatch.setattr(propagation._Sweep, "solve", recording_solve)
    monkeypatch.setattr(propagation, "poisson_radial", recording_ray)
    cfg = ExperimentConfig(s=1.0, alpha=0.2, n=4096)
    run_experiment(cfg)
    assert len(discs) == 2
    # the two solves are one block: one T_1 of the traces, one of v, one
    # coefficient rfft of both u, and one irfft for the quadrature
    assert len(transformed) == 2 * 2 + 1 + 1 == 6
    inputs = [a for kind, a in transformed if kind == "rfft"]
    assert len({id(a) for a in inputs}) == len(inputs)
    for disc in discs:
        rows = [np.atleast_2d(a) for a in inputs]
        assert sum(any(np.array_equal(r, disc.u.values) for r in a) for a in rows) == 1
    # the profile and coverage rays of the head solve, the coverage ray at eta = 0
    assert rays == [cfg.r_profile, cfg.r_coverage, cfg.r_coverage]
    # one power row per distinct radius of the run: 6, where the rays ask for 14
    rows = [r for table in tables for r in table]
    assert sorted(rows) == sorted(set(cfg.r_profile + cfg.r_coverage))
    assert len(rows) == 6


def test_shared_arrays_are_freed_when_the_experiment_returns(monkeypatch):
    refs = []

    def kept(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            for item in out if isinstance(out, tuple) else (out,):
                refs.append(weakref.ref(item))
            return out

        return call

    monkeypatch.setattr(propagation, "CircleGrid", kept(circle.CircleGrid))
    monkeypatch.setattr(propagation, "phi_on_grid", kept(bishop.phi_on_grid))
    monkeypatch.setattr(profiles.BumpDeformation, "trace_parts",
                        kept(profiles.BumpDeformation.trace_parts))
    coeffs = functools.cached_property(kept(circle.BoundaryFunction.coeffs.func))
    coeffs.__set_name__(circle.BoundaryFunction, "coeffs")
    monkeypatch.setattr(circle.BoundaryFunction, "coeffs", coeffs)
    report = run_experiment(ExperimentConfig(s=1.0, alpha=0.2, n=4096))
    assert report.points_down
    # the grid (which owns the ray rows), phi, weight, base values and each u's coefficients
    assert len(refs) >= 1 + 1 + 2 + 2
    alive = [ref() for ref in refs if ref() is not None]
    assert alive == []


@pytest.mark.parametrize("log2n", range(10, 17))
@pytest.mark.parametrize(
    "r_profile, r_coverage",
    [
        (ExperimentConfig.r_profile, ExperimentConfig.r_coverage),  # overlapping
        ((0.5, 0.6), (0.7, 0.8, 0.9)),  # disjoint
        ((0.9, 0.99, 0.9), (0.99, 0.99, 0.995)),  # repeated radii
        ((0.9999, 0.9, 0.99), (0.995, 0.99, 0.9995, 0.5)),  # unsorted
    ],
)
def test_rays_are_bitwise_the_per_call_power_tables(log2n, r_profile, r_coverage, monkeypatch):
    cfg = ExperimentConfig(
        s=1.0, alpha=0.2, n=1 << log2n, r_profile=r_profile, r_coverage=r_coverage
    )
    got = run_experiment(cfg)
    monkeypatch.setattr(propagation, "poisson_radial", poisson_radial_per_call)
    want = run_experiment(cfg)
    assert repr(got.transversal_profile) == repr(want.transversal_profile)
    assert [repr(c.min_x2) for c in got.eta_classifications] == [
        repr(c.min_x2) for c in want.eta_classifications
    ]
    assert repr(got) == repr(want)

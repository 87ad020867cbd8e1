"""Bishop-equation solves: convergence, attachment, uniqueness, Cauchy extension."""

import math

import numpy as np
import pytest

from disclab import (
    AttachedDisc,
    BishopProblem,
    BoundaryFunction,
    BumpDeformation,
    CircleGrid,
    DiscFamilyParams,
    FlatProfile,
    GridUnresolved,
    KIND_IM,
    NotConverged,
    QuadratureNonConvergent,
    attachment_residual,
    cauchy_extend,
    hilbert_t1,
    phi_on_grid,
    poisson_radial,
    solve_bishop,
    solve_traces,
)
from conftest import CoupledSurface


def make_problem(grid, surface, alpha=0.1, tol=1e-12, max_iter=64):
    return BishopProblem(
        grid=grid,
        disc=DiscFamilyParams(alpha=alpha),
        surface=surface,
        tol=tol,
        max_iter=max_iter,
    )


def deformed_surface(eta=1.0, alpha=0.1, delta=0.2, eps_window=0.2, s=1.0):
    return BumpDeformation(
        base=FlatProfile(kind=KIND_IM, s=s),
        delta=delta,
        alpha=alpha,
        eps_window=eps_window,
        eta=eta,
    )


# ---- flat, undeformed attachment


def test_undeformed_solve_diagnostics(undeformed_disc):
    r = undeformed_disc.report
    # the surface ignores v, so the Picard map is constant after one
    # application: two iterations, zero residual, zero contraction ratio
    assert r.converged
    assert r.iterations == 2
    assert r.residual == 0.0
    assert r.contraction == 0.0
    assert r.holomorphy_defect < 1e-20
    assert r.holder_seminorm < 1e-6
    sup_u = undeformed_disc.u.sup_norm()
    sup_v = undeformed_disc.v.sup_norm()
    assert abs(sup_u - 2.274194e-08) <= 1e-13
    assert abs(sup_v - 1.472907e-08) <= 1e-13


def test_undeformed_attachment_residual(undeformed_disc, flat_s1):
    scale = undeformed_disc.u.sup_norm()
    res = attachment_residual(undeformed_disc, flat_s1)
    assert res <= 1e-10 * scale


def test_grid_refinement_stability(params01, flat_s1):
    # u at theta = pi under n and 2n agree far below the requested 1e-6
    vals = {}
    for n in (1 << 14, 1 << 15):
        d = solve_bishop(make_problem(CircleGrid(n=n), flat_s1))
        vals[n] = d.u.values[n // 2]
    assert abs(vals[1 << 14] - vals[1 << 15]) <= 1e-9


def test_uniqueness_across_initial_iterates(grid14, flat_s1):
    p = make_problem(grid14, flat_s1)
    a = solve_bishop(p)
    b = solve_bishop(p, v0=BoundaryFunction(grid14, 0.01 * np.sin(grid14.theta)))
    dist = float(np.max(np.abs(a.v.values - b.v.values)))
    dist += float(np.max(np.abs(a.u.values - b.u.values)))
    assert dist <= 10.0 * p.tol


def test_solver_validates_inputs(grid14, flat_s1):
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}"):
            make_problem(grid14, flat_s1, tol=tol)
    with pytest.raises(ValueError):
        make_problem(grid14, flat_s1, max_iter=0)
    with pytest.raises(ValueError):
        make_problem(grid14, object())
    p = make_problem(grid14, flat_s1)
    with pytest.raises(ValueError):
        solve_bishop(p, v0=np.zeros(7))


def test_not_converged_when_starved(grid14, flat_s1):
    with pytest.raises(NotConverged):
        solve_bishop(make_problem(grid14, flat_s1, max_iter=1))


# ---- deformed attachment


def test_grid_must_resolve_window():
    surf = deformed_surface(eps_window=1.2)
    with pytest.raises(GridUnresolved) as exc:
        make_problem(CircleGrid(n=1 << 14), surf)
    assert "65536" in str(exc.value)


def test_underflowed_window_is_unresolved_not_a_division_by_zero():
    # exp(-2000 / 0.4) underflows to 0; the needed size comes from its log
    surf = deformed_surface(alpha=0.2, eps_window=2000.0)
    assert surf.window() == 0.0
    with pytest.raises(GridUnresolved, match=r"exp\(-5000\); need n >= 2\^7221"):
        make_problem(CircleGrid(n=4096), surf, alpha=0.2)


def test_window_alpha_must_match_disc():
    surf = deformed_surface(alpha=0.2)
    with pytest.raises(ValueError):
        make_problem(CircleGrid(n=1 << 14), surf, alpha=0.1)


def test_deformed_solve_and_eta_continuity(grid14):
    base = solve_bishop(make_problem(grid14, deformed_surface(eta=1.0)))
    assert base.report.converged
    assert base.u.sup_norm() == pytest.approx(0.1, rel=1e-6)

    # boundary data is affine in eta, so the solved disc moves linearly:
    # shrinking the eta step by 10 shrinks the sup distance by 10
    d_near1 = solve_bishop(make_problem(grid14, deformed_surface(eta=0.99)))
    d_near2 = solve_bishop(make_problem(grid14, deformed_surface(eta=0.999)))
    step1 = float(np.max(np.abs(d_near1.u.values - base.u.values)))
    step2 = float(np.max(np.abs(d_near2.u.values - base.u.values)))
    # the sup lands on the far plateau, where u shifts by exactly
    # delta_eta * delta / 2
    assert step1 == pytest.approx(1e-3, rel=1e-9)
    assert step1 / step2 == pytest.approx(10.0, abs=1e-6)


class _ForcedCoupling:
    """Wraps a surface and claims it reads y2, so the solver runs full Picard."""

    couples_to_y2 = True

    def __init__(self, surface):
        self.surface = surface

    def boundary_trace(self, theta, phi, y2):
        return self.surface.boundary_trace(theta, phi, y2)


@pytest.mark.parametrize("surface", [FlatProfile(kind=KIND_IM, s=1.0), deformed_surface(eta=0.5)])
def test_single_trace_matches_full_picard(surface):
    assert surface.couples_to_y2 is False
    grid = CircleGrid(n=1 << 12)
    once = solve_bishop(make_problem(grid, surface))
    full = solve_bishop(make_problem(grid, _ForcedCoupling(surface)))
    assert np.array_equal(once.u.values, full.u.values)
    assert np.array_equal(once.v.values, full.v.values)
    for field in ("iterations", "residual", "contraction", "converged"):
        assert getattr(once.report, field) == getattr(full.report, field)
    assert once.report.iterations == 2


def test_shared_phi_and_trace_give_the_same_solve():
    grid = CircleGrid(n=1 << 12)
    surface = deformed_surface(eta=-0.4)
    alone = solve_bishop(make_problem(grid, surface))
    phi = phi_on_grid(DiscFamilyParams(alpha=0.1), grid)
    trace = surface.boundary_trace(grid.theta, phi.values, None)
    shared = solve_bishop(
        BishopProblem(grid=grid, disc=DiscFamilyParams(alpha=0.1), surface=surface,
                      phi=phi, trace=trace)
    )
    assert shared.phi is phi
    assert np.array_equal(alone.phi.values, phi.values)
    assert np.array_equal(alone.u.values, shared.u.values)
    assert np.array_equal(alone.v.values, shared.v.values)
    assert alone.report.iterations == shared.report.iterations == 2


def test_shared_trace_is_refused_where_it_cannot_hold():
    grid = CircleGrid(n=1 << 12)
    params = DiscFamilyParams(alpha=0.1)
    phi = phi_on_grid(params, grid)
    trace = np.zeros(grid.n)
    # a coupling surface is traced at every iterate: full Picard stays
    with pytest.raises(ValueError, match="ignores y2"):
        BishopProblem(grid=grid, disc=params, surface=CoupledSurface(), phi=phi, trace=trace)
    with pytest.raises(ValueError, match="only with phi"):
        BishopProblem(grid=grid, disc=params, surface=deformed_surface(), trace=trace)
    with pytest.raises(ValueError, match="problem's grid"):
        BishopProblem(grid=CircleGrid(n=1 << 12), disc=params, surface=deformed_surface(),
                      phi=phi)


def test_shared_phi_is_read_only(grid14, params01):
    def scribble(theta, phi, y2):
        phi[0] = 1.0
        return np.zeros(len(theta))

    class Scribbler:
        boundary_trace = staticmethod(scribble)

    with pytest.raises(ValueError, match="read-only"):
        solve_bishop(BishopProblem(grid=grid14, disc=params01, surface=Scribbler()))


# ---- a surface that actually couples to v


def test_expanding_map_is_refused_before_max_iter():
    # h = 10 (0.1 sin theta + 0.3 y2) triples every iterate's increment
    p = make_problem(CircleGrid(n=1 << 10), CoupledSurface(10.0))
    with pytest.raises(NotConverged, match="grew for 5 consecutive"):
        solve_bishop(p)


def test_coupled_solve_is_a_real_fixed_point():
    grid = CircleGrid(n=1 << 12)
    p = make_problem(grid, CoupledSurface(1.0))
    d = solve_bishop(p)
    assert d.report.converged
    assert 3 <= d.report.iterations <= 40
    assert d.report.contraction < 0.7
    # plug the solution back through one Picard step
    trace = p.surface.boundary_trace(grid.theta, d.phi.values, d.v.values)
    again = hilbert_t1(BoundaryFunction(grid, np.asarray(trace, dtype=float)))
    assert float(np.max(np.abs(again.values - d.v.values))) <= 2.0 * p.tol
    # and the attachment identity u = h - h(0) holds on the nose
    assert attachment_residual(d, p.surface) <= 1e-9

    other = solve_bishop(p, v0=BoundaryFunction(grid, 0.05 * np.cos(grid.theta)))
    dist = float(np.max(np.abs(other.v.values - d.v.values)))
    assert dist <= 10.0 * p.tol


def test_attachment_residual_detects_conjugacy_consistent_perturbation(
    grid14, params01, flat_s1, undeformed_disc
):
    # the flat surface reads only the first component, so swapping v alone
    # cannot move the residual; push the perturbation through u = -T1 v and
    # the broken attachment shows up at the size of the perturbation
    bare = AttachedDisc(
        phi=undeformed_disc.phi,
        u=undeformed_disc.u,
        v=BoundaryFunction(grid14, undeformed_disc.v.values + 1e-3 * np.cos(grid14.theta)),
        report=undeformed_disc.report,
    )
    assert attachment_residual(bare, flat_s1) == attachment_residual(
        undeformed_disc, flat_s1
    )

    vp = bare.v
    up = BoundaryFunction(grid14, -hilbert_t1(vp).values)
    consistent = AttachedDisc(phi=undeformed_disc.phi, u=up, v=vp, report=undeformed_disc.report)
    res = attachment_residual(consistent, flat_s1)
    assert res > 1e-4
    assert res == pytest.approx(1e-3, rel=0.05)


# ---- Cauchy extension along the attached disc


@pytest.fixture(scope="module")
def wide_disc():
    grid = CircleGrid(n=1 << 16)
    surf = deformed_surface(eta=1.0)
    return solve_bishop(make_problem(CircleGrid(n=1 << 16), surf))


def test_cauchy_reproduces_holomorphic_data(wide_disc):
    n = wide_disc.phi.grid.n
    w = wide_disc.u.values + 1j * wide_disc.v.values
    coef = np.fft.fft(w) / n
    ks = np.arange(n // 2 + 1)
    for tau in (0.0, 0.5, 1.0 - 1e-3):
        spectral = complex(np.sum(coef[: n // 2 + 1] * tau**ks))
        one = cauchy_extend(wide_disc, lambda z1, z2: np.ones_like(z2), tau)
        z2v = cauchy_extend(wide_disc, lambda z1, z2: z2, tau)
        rat = cauchy_extend(wide_disc, lambda z1, z2: 1.0 / (z2 + 1.0), tau)
        assert abs(one - 1.0) <= 1e-12
        assert abs(z2v - spectral) <= 1e-8
        assert abs(rat - 1.0 / (spectral + 1.0)) <= 1e-8


def test_cauchy_agrees_with_poisson_ray(wide_disc):
    tau = 0.999
    z2v = cauchy_extend(wide_disc, lambda z1, z2: z2, tau)
    pu = poisson_radial(wide_disc.u, np.array([tau]))[0]
    pv = poisson_radial(wide_disc.v, np.array([tau]))[0]
    assert abs(z2v - complex(pu, pv)) <= 1e-6


def test_cauchy_flags_unresolved_grid(grid14):
    # at n = 2^14 and tau this close to the boundary, slowly decaying data
    # is legitimately unresolved: the coarsened-grid check must fire rather
    # than return a silently wrong value
    d = solve_bishop(make_problem(grid14, deformed_surface(eta=1.0)))
    with pytest.raises(QuadratureNonConvergent):
        cauchy_extend(d, lambda z1, z2: np.ones_like(z2), 0.999)
    with pytest.raises(QuadratureNonConvergent):
        cauchy_extend(d, lambda z1, z2: 1.0 / (z2 + 1.0), 0.999)


def test_cauchy_rejects_exterior_tau(undeformed_disc):
    with pytest.raises(ValueError):
        cauchy_extend(undeformed_disc, lambda z1, z2: z2, 1.0)
    with pytest.raises(ValueError):
        cauchy_extend(undeformed_disc, lambda z1, z2: z2[::2], 0.5)


# ---- block solves of surfaces that ignore y2


class _AsCoupled:
    """A y2-free surface presented as coupling, so solve_bishop runs its Picard loop."""

    def __init__(self, surface):
        self.surface = surface

    def boundary_trace(self, theta, phi, y2):
        return self.surface.boundary_trace(theta, phi, y2)


def _same_solve(got, want):
    assert got.u.values.tobytes() == want.u.values.tobytes()
    assert got.v.values.tobytes() == want.v.values.tobytes()
    assert (got.report.iterations, got.report.residual, got.report.contraction) == (
        want.report.iterations, want.report.residual, want.report.contraction
    )
    assert got.report.converged and want.report.converged


@pytest.mark.parametrize("n", [8, 1 << 10, 1 << 14, 1 << 16])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_rows_are_the_one_row_solves_bit_for_bit(m, n):
    grid = CircleGrid(n=n)
    disc = DiscFamilyParams(alpha=0.1)
    phi = phi_on_grid(disc, grid)
    surfaces = [FlatProfile(kind=KIND_IM, s=s) for s in (1.0, 2.0, 0.75)[:m]]
    traces = np.stack([sf.boundary_trace(grid.theta, phi.values, None) for sf in surfaces])
    rows = solve_traces(phi, traces, tol=1e-12, max_iter=64)
    assert len(rows) == m
    for row, surface in zip(rows, surfaces):
        assert row.phi is phi
        # the one-row case, and the Picard loop that the shortcut stands for
        _same_solve(row, solve_bishop(make_problem(grid, surface)))
        _same_solve(row, solve_bishop(make_problem(grid, _AsCoupled(surface))))


def test_a_row_that_fails_leaves_the_rows_that_converge():
    grid = CircleGrid(n=1 << 10)
    disc = DiscFamilyParams(alpha=0.1)
    phi = phi_on_grid(disc, grid)
    flat = FlatProfile(kind=KIND_IM, s=1.0)
    height = flat.boundary_trace(grid.theta, phi.values, None)
    # the zero trace converges in one step; the profile needs a second
    rows = solve_traces(phi, np.stack([height, np.zeros(grid.n)]), tol=1e-12, max_iter=1)
    failed, converged = rows
    with pytest.raises(NotConverged) as want:
        solve_bishop(make_problem(grid, flat, max_iter=1))
    assert isinstance(failed, NotConverged)
    assert str(failed) == str(want.value)
    assert (converged.report.iterations, converged.report.residual) == (1, 0.0)
    assert not np.any(converged.u.values) and not np.any(converged.v.values)
    # the same block with room for a second step converges in both rows
    rows = solve_traces(phi, np.stack([height, np.zeros(grid.n)]), tol=1e-12, max_iter=2)
    _same_solve(rows[0], solve_bishop(make_problem(grid, flat, max_iter=2)))
    assert rows[1].report.iterations == 1


def test_a_block_solve_refuses_malformed_traces():
    grid = CircleGrid(n=64)
    phi = phi_on_grid(DiscFamilyParams(alpha=0.1), grid)
    with pytest.raises(ValueError, match="rows of 64 samples"):
        solve_traces(phi, np.zeros(64), tol=1e-12, max_iter=64)
    with pytest.raises(ValueError, match="rows of 64 samples"):
        solve_traces(phi, np.zeros((2, 32)), tol=1e-12, max_iter=64)
    bad = np.zeros((2, 64))
    bad[1, 3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve_traces(phi, bad, tol=1e-12, max_iter=64)

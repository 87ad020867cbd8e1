"""Flat profiles, the bump-deformed surface, and vanishing-order checks."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    BumpDeformation,
    CircleGrid,
    DiscFamilyParams,
    FlatProfile,
    KIND_IM,
    flatness_order_check,
    phi_boundary,
    profile_eval,
    profiles,
)


# ---- base profile


def test_profile_trivial_values():
    p = FlatProfile(kind=KIND_IM, s=1.0)
    assert profile_eval(p, 0.0) == 0.0
    assert abs(profile_eval(p, 0.5) - math.exp(-2.0)) <= 1e-16


def test_profile_log_space_evaluation_deep():
    # e^{-100} via the log-space path, pinned by 50-digit arithmetic
    p = FlatProfile(kind=KIND_IM, s=2.0)
    with mpmath.workdps(50):
        want = float(mpmath.exp(-100))
    got = profile_eval(p, 0.1)
    assert abs(got - want) <= 1e-9 * want
    # underflow region returns an exact zero
    assert profile_eval(p, 1e-200) == 0.0


def test_profile_validation():
    with pytest.raises(ValueError):
        FlatProfile(kind="other", s=1.0)
    with pytest.raises(ValueError):
        FlatProfile(kind=KIND_IM, s=0.0)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.3, 3.0),
    y=st.floats(0.2, 5.0),  # away from the underflow clamp, where > degenerates to ==
    scale=st.floats(1.001, 3.0),
)
def test_profile_even_and_monotone(s, y, scale):
    p = FlatProfile(kind=KIND_IM, s=s)
    assert profile_eval(p, -y) == profile_eval(p, y)
    assert profile_eval(p, scale * y) > profile_eval(p, y)


def test_profile_underflow_region_is_flat_zero():
    p = FlatProfile(kind=KIND_IM, s=2.0)
    assert profile_eval(p, 0.01) == 0.0
    assert profile_eval(p, 0.02) == 0.0


# ---- deformed surface


def bump(eta=1.0, delta=0.2, eps_window=0.2, alpha=0.1, s=1.0):
    return BumpDeformation(
        base=FlatProfile(kind=KIND_IM, s=s),
        delta=delta,
        alpha=alpha,
        eps_window=eps_window,
        eta=eta,
    )


def trace_at(d, theta):
    """The bump's height at boundary angle(s) theta, over the disc it dresses."""
    phi = phi_boundary(DiscFamilyParams(d.alpha), np.mod(theta, 2.0 * math.pi))
    return d.boundary_trace(theta, phi, None)


def test_window_and_plateau_accessors():
    d = bump()
    assert abs(d.window() - math.exp(-1.0)) <= 1e-16
    assert d.plateau() == -0.1
    assert bump(eta=-0.5).plateau() == 0.05


def test_tilde_h_endpoint_values():
    d = bump()
    assert trace_at(d, 0.0) == 0.0
    assert abs(trace_at(d, math.pi) - (-0.1)) <= 1e-16
    assert abs(trace_at(d, -math.pi) - (-0.1)) <= 1e-16


def test_eta_zero_splits_cleanly():
    d = bump(eta=0.0)
    w = d.window()
    # undisturbed inside the window, zero on the far plateau
    base = FlatProfile(kind=KIND_IM, s=1.0)
    par = DiscFamilyParams(alpha=0.1)
    for th in (0.25 * w, 0.9 * w):
        y1 = float(phi_boundary(par, np.array([th]))[0].imag)
        assert abs(trace_at(d, th) - profile_eval(base, y1)) <= 1e-18
    assert trace_at(d, 3.0) == 0.0
    assert trace_at(d, 2.0 * w * 1.001) == 0.0


def test_surface_is_affine_in_eta():
    d_plus, d_zero, d_minus = bump(1.0), bump(0.0), bump(-1.0)
    th = np.linspace(-math.pi, math.pi, 2001)
    h1 = np.asarray(trace_at(d_plus, th))
    h0 = np.asarray(trace_at(d_zero, th))
    hm = np.asarray(trace_at(d_minus, th))
    assert np.max(np.abs(h1 + hm - 2.0 * h0)) <= 1e-15


def test_junction_smoothness():
    # one-sided values and first two divided differences across both
    # junction circles agree to 1e-8
    d = bump()
    w = d.window()
    u = 3e-4
    for edge in (w, 2.0 * w):
        rel = u * edge
        inner = [trace_at(d, edge - 2 * rel), trace_at(d, edge - rel)]
        at = trace_at(d, edge)
        outer = [trace_at(d, edge + rel), trace_at(d, edge + 2 * rel)]
        assert abs(inner[1] - outer[0]) <= 1e-8
        d1_in = (at - inner[1]) / rel
        d1_out = (outer[0] - at) / rel
        assert abs(d1_in - d1_out) <= 1e-8
        d2_in = (at - 2 * inner[1] + inner[0]) / rel**2
        d2_out = (outer[1] - 2 * outer[0] + at) / rel**2
        assert abs(d2_in - d2_out) <= 1e-8


def test_bump_validation():
    with pytest.raises(ValueError):
        bump(delta=-0.1)
    with pytest.raises(ValueError):
        bump(eta=1.5)
    with pytest.raises(ValueError):
        bump(eps_window=-1.0)
    with pytest.raises(ValueError):
        bump(alpha=0.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_parameters_are_refused(bad):
    with pytest.raises(ValueError, match="s must be positive and finite"):
        FlatProfile(kind=KIND_IM, s=bad)
    for name in ("delta", "eps_window"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            bump(**{name: bad})


def test_trace_parts_are_eta_free_and_combine_to_the_trace():
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    phi = phi_boundary(DiscFamilyParams(alpha=0.1), theta)
    weight, base_vals = bump(eta=1.0).trace_parts(theta, phi, None)
    assert np.array_equal(base_vals, profile_eval(FlatProfile(kind=KIND_IM, s=1.0), phi.imag))
    for eta in (-1.0, -0.35, 0.0, 0.5, 1.0):
        d = bump(eta=eta)
        w_eta, b_eta = d.trace_parts(theta, phi, None)
        assert np.array_equal(w_eta, weight) and np.array_equal(b_eta, base_vals)
        assert np.array_equal(d.combine(weight, base_vals), d.boundary_trace(theta, phi, None))


def _blend_weight_on_every_node(x):
    """The blend weight as both halves of the step over every node, clipped."""

    def step_half(x, live):
        out = np.where(live, x, 1.0)
        np.divide(-1.0, out, out=out)
        np.exp(out, out=out)
        out[~live] = 0.0
        return out

    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    lo, hi = step_half(x, x > 0.0), step_half(1.0 - x, x < 1.0)
    hi += lo
    lo /= hi
    return lo if lo.ndim else lo[()]


_BLEND_EDGES = (
    -math.inf, -1.0, -0.0, 0.0, 5e-324, 1e-3, 0.5, 1.0 - 1e-16, 1.0, 2.0, math.inf,
)


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_blend_weight_on_grids_is_bitwise_the_step_over_every_node(alpha, monkeypatch):
    xs = []  # the x of every trace_parts call, as the bump hands it on
    blend = profiles._blend_weight
    monkeypatch.setattr(profiles, "_blend_weight", lambda x: xs.append(x) or blend(x))
    d = bump(alpha=alpha)
    for k in range(6, 19):
        theta = CircleGrid(n=1 << k).theta
        d.trace_parts(theta, np.zeros(theta.shape, complex), None)
    assert len(xs) == 13
    for x in xs:
        assert 0 < np.count_nonzero((x > 0.0) & (x < 1.0)) < len(x)
        assert blend(x).tobytes() == _blend_weight_on_every_node(x).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # -1/5e-324
def test_blend_weight_edges_are_bitwise_the_step_over_every_node():
    edges = np.array(_BLEND_EDGES)
    got = profiles._blend_weight(edges)
    assert got.tobytes() == _blend_weight_on_every_node(edges).tobytes()
    assert got[2] == 0.0 and math.copysign(1.0, got[2]) == 1.0  # -0.0 gives +0.0
    for v in _BLEND_EDGES:
        for arg in (v, np.float64(v), np.array(v)):
            got = profiles._blend_weight(arg)
            want = _blend_weight_on_every_node(arg)
            assert type(got) is type(want) is np.float64
            assert got.tobytes() == want.tobytes(), v
    assert np.isnan(profiles._blend_weight(math.nan))
    assert np.isnan(profiles._blend_weight(np.array([0.5, math.nan]))[1])


def test_eps_window_defaults_to_delta():
    d = BumpDeformation(base=FlatProfile(kind=KIND_IM, s=1.0), delta=0.3, alpha=0.1)
    assert d.eps_window == 0.3


# ---- vanishing-order verification
#
# flatness_order_check takes log heights: the heights below fall under the
# smallest double long before their ratios to theta^k start to fall.


def composed_log_im(alpha, s):
    """theta -> log of exp(-1/|Im phi_alpha(e^{i theta})|^s)."""
    par = DiscFamilyParams(alpha=alpha)

    def log_g(theta):
        y1 = float(phi_boundary(par, np.array([theta]))[0].imag)
        return -(abs(y1) ** -s)

    return log_g


def test_flatness_composed_profile_s1():
    grid = [10.0**-e for e in range(1, 27)]
    log_ratios, verdict = flatness_order_check(composed_log_im(0.1, 1.0), 5, grid)
    assert verdict is True
    assert np.isfinite(log_ratios[0])


def test_flatness_composed_modulus_s2():
    # the modulus-based profile decays like exp(-(alpha log theta)^2): the
    # ratio crest sits near theta = 1e-102 for k=5, and the ratio is back
    # down by 1e-10 only near theta = 1e-207, so the grid runs to 1e-250
    par = DiscFamilyParams(alpha=0.1)

    def log_g(theta):
        z1 = phi_boundary(par, np.array([theta]))[0]
        return -(abs(z1) ** -2.0)

    grid = [10.0**-e for e in range(1, 251)]
    log_ratios, verdict = flatness_order_check(log_g, 5, grid)
    assert verdict is True
    assert all(np.isfinite(r) for r in log_ratios)
    assert max(log_ratios) > math.log(1e200)  # the interior crest is genuinely enormous

    # Stopping at 1e-130 ends past the point where the height underflows
    # (1e-109) but still 10^218 above the first ratio: no attenuation.
    short = [10.0**-e for e in range(1, 131)]
    _, verdict = flatness_order_check(log_g, 5, short)
    assert verdict is False


def test_flatness_fails_below_half():
    grid = [10.0**-e for e in range(1, 9)]
    log_ratios, verdict = flatness_order_check(composed_log_im(0.1, 0.4), 3, grid)
    assert verdict is False
    assert log_ratios[-1] > log_ratios[0]


def test_flatness_derivative_chain():
    # d/dtheta of the composed profile is itself rapidly vanishing: checked
    # with a relative central difference at each grid point, formed from the
    # log heights as g(theta-h) * |expm1(log g(theta+h) - log g(theta-h))| / 2h
    log_g = composed_log_im(0.1, 1.0)

    def log_dg(theta):
        h = 1e-6 * theta
        lo, hi = log_g(theta - h), log_g(theta + h)
        return lo + math.log(abs(math.expm1(hi - lo))) - math.log(2.0 * h)

    grid = [10.0**-e for e in range(1, 21)]
    log_ratios, verdict = flatness_order_check(log_dg, 3, grid)
    assert verdict is True


def test_flatness_validates_grid():
    log_g = composed_log_im(0.1, 1.0)
    with pytest.raises(ValueError):
        flatness_order_check(log_g, 0, [0.1, 0.01])
    with pytest.raises(ValueError):
        flatness_order_check(log_g, 2, [0.01, 0.1])
    with pytest.raises(ValueError):
        flatness_order_check(log_g, 2, [0.1, -0.01])
    with pytest.raises(ValueError):
        flatness_order_check(log_g, 2, [0.1])
    with pytest.raises(ValueError):
        flatness_order_check(lambda t: math.nan, 2, [0.1, 0.01])
    with pytest.raises(ValueError):
        flatness_order_check(lambda t: math.inf, 2, [0.1, 0.01])
    # -inf is the log of an exactly zero height, which is valid input
    assert flatness_order_check(lambda t: -math.inf, 2, [0.1, 0.01])[1] is True

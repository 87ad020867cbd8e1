"""Squeezed-disc family: boundary values, small-angle expansion, concentration."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    LOG4,
    SQUEEZE_LIMIT,
    CircleGrid,
    DiscFamilyParams,
    concentration_bound_check,
    im_phi_expansion_check,
    inv_abs_im_phi_logtheta,
    phi_boundary,
)


# ---- pointwise values


def test_boundary_at_minus_one_is_squeeze_limit():
    par = DiscFamilyParams(alpha=0.1)
    v = phi_boundary(par, np.array([np.pi]))[0]
    assert abs(v.real - SQUEEZE_LIMIT) <= 1e-15
    assert abs(v.imag) <= 1e-15
    assert abs(SQUEEZE_LIMIT - 1.0 / math.log(4.0)) <= 1e-16


def test_tau_one_is_removable_zero():
    par = DiscFamilyParams(alpha=0.1)
    assert phi_boundary(par, np.array([0.0]))[0] == 0.0


def test_boundary_matches_extended_precision():
    par = DiscFamilyParams(alpha=0.2)
    for theta in (1e-6, 0.01, 0.5, 1.0, 2.0, np.pi - 1e-3):
        got = phi_boundary(par, np.array([theta]))[0]
        # same closed form at 50 digits, alpha folded into the exponent
        with mpmath.workdps(50):
            tau = mpmath.exp(1j * mpmath.mpf(theta))
            w = mpmath.log(((1 - tau) / 2) ** mpmath.mpf(par.alpha) / 4)
            want = complex(-1 / w)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), theta


def test_params_validation():
    with pytest.raises(ValueError):
        DiscFamilyParams(alpha=0.0)
    with pytest.raises(ValueError):
        DiscFamilyParams(alpha=1.5)
    for bad in (-0.2, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps_shift must be nonnegative and finite"):
            DiscFamilyParams(alpha=0.1, eps_shift=bad)


# ---- folding the angle


def _phi_boundary_folding_every_angle(params, theta):
    """phi_boundary with np.mod folding every angle, whatever its range."""
    th = np.asarray(theta, dtype=float)
    half = np.mod(np.atleast_1d(th).ravel(), 2.0 * np.pi)
    half *= 0.5
    a = np.sin(half)
    at_one = a == 0.0
    a[at_one] = 1.0
    np.log(a, out=a)
    a[at_one] = -np.inf
    a *= params.alpha
    a += -LOG4
    half -= 0.5 * np.pi
    half *= params.alpha
    b = half
    denom = a * a
    denom += b * b
    with np.errstate(invalid="ignore"):
        np.negative(a, out=a)
        a /= denom
        b /= denom
    a[at_one] = 0.0
    b[at_one] = 0.0
    a -= params.eps_shift
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = a, b
    return complex(out[0]) if th.ndim == 0 else out.reshape(th.shape)


def _bits(z):
    return np.asarray(z, dtype=complex).tobytes()


@pytest.mark.parametrize("alpha, eps_shift", [(0.05, 0.0), (0.2, 0.0), (1.0, 0.03)])
def test_phi_boundary_is_bitwise_the_formula_folding_every_angle(alpha, eps_shift):
    par = DiscFamilyParams(alpha=alpha, eps_shift=eps_shift)
    edges = np.array([2.0 * np.pi, np.pi, -np.pi, -0.0, 0.0, 4.0 * np.pi, -2.0 * np.pi, np.nan])
    for k in range(6, 19):
        theta = CircleGrid(n=1 << k).theta
        for arg in (theta, -theta, 4.0 * np.pi + theta, edges, theta.reshape(-1, 4)):
            want = _phi_boundary_folding_every_angle(par, arg)
            assert _bits(phi_boundary(par, arg)) == _bits(want)
    for v in edges:
        got = phi_boundary(par, v)
        assert type(got) is complex
        assert _bits(got) == _bits(_phi_boundary_folding_every_angle(par, v)), v


def test_only_angles_outside_zero_to_two_pi_are_folded(monkeypatch):
    par = DiscFamilyParams(alpha=0.1)
    theta = CircleGrid(n=1024).theta
    folded_zeros = [_bits(_phi_boundary_folding_every_angle(par, v)) for v in (-0.0, 0.0)]
    assert folded_zeros == [_bits(0j)] * 2
    folds = []
    mod = np.mod
    monkeypatch.setattr(np, "mod", lambda *args: folds.append(args[0]) or mod(*args))
    # -0.0 lies in the range and is not folded, where np.mod would give +0.0;
    # it is the tau = 1 node, whose phi is 0 either way
    assert math.copysign(1.0, mod(-0.0, 2.0 * np.pi)) == 1.0
    for v in (-0.0, np.array([-0.0, 1.0])):
        got = phi_boundary(par, v)
        assert _bits(np.ravel(got)[0]) == _bits(0j)
    phi_boundary(par, theta)
    assert folds == []
    for outside in (-theta, theta + 2.0 * np.pi, np.array([1.0, np.nan]), np.array([-1e-300])):
        folds.clear()
        phi_boundary(par, outside)
        assert len(folds) == 1


# ---- squeezing geometry


def test_im_phi_peak_shrinks_with_alpha():
    g = CircleGrid(n=1 << 14)
    peaks = []
    for alpha in (0.2, 0.1, 0.05):
        par = DiscFamilyParams(alpha=alpha)
        peaks.append(float(np.max(np.abs(phi_boundary(par, g.theta).imag))))
    for got, want in zip(peaks, (0.0933882, 0.0568212, 0.0325412)):
        assert abs(got - want) <= 1e-6
    assert peaks[0] > peaks[1] > peaks[2]


def test_im_phi_is_odd():
    g = CircleGrid(n=4096)
    iv = phi_boundary(DiscFamilyParams(alpha=0.1), g.theta).imag
    assert np.max(np.abs(iv[1:] + iv[:0:-1])) <= 1e-14


def test_real_part_stays_right_of_shift():
    g = CircleGrid(n=4096)
    for shift in (0.0, 0.3):
        par = DiscFamilyParams(alpha=0.1, eps_shift=shift)
        re = np.real(phi_boundary(par, g.theta[1:]))
        assert np.min(re) > -shift - 1e-15


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.02, 1.0), theta=st.floats(1e-8, np.pi - 1e-8))
def test_symmetry_and_positivity_properties(alpha, theta):
    par = DiscFamilyParams(alpha=alpha)
    plus = phi_boundary(par, np.array([theta]))[0]
    minus = phi_boundary(par, np.array([-theta]))[0]
    # tolerance is relative: near theta = 0 the log(sin) evaluation loses
    # about 8 digits to cancellation before the symmetry can be compared
    slack = 1e-7 * abs(plus.imag) + 1e-13
    assert abs(plus.imag + minus.imag) <= slack
    assert abs(plus.real - minus.real) <= 1e-7 * abs(plus.real) + 1e-13
    assert plus.real > 0.0


def test_small_angle_expansion_error_decays():
    par = DiscFamilyParams(alpha=0.1)
    rels = []
    for theta, want in ((1e-2, 0.00663333), (1e-4, 0.00434902), (1e-8, 0.00226381)):
        exact, approx, rel = im_phi_expansion_check(par, theta)
        assert exact != 0.0 and approx != 0.0
        assert abs(rel - want) <= 1e-7
        rels.append(rel)
    assert rels[0] > rels[1] > rels[2]


def test_expansion_check_validates_input():
    par = DiscFamilyParams(alpha=0.1)
    with pytest.raises(ValueError):
        im_phi_expansion_check(par, 2.0)
    with pytest.raises(ValueError):
        im_phi_expansion_check(DiscFamilyParams(alpha=0.1, eps_shift=0.1), 1e-3)


def test_inverse_modulus_log_parametrization_roundtrip():
    # inv_abs_im_phi_logtheta(alpha, t) must equal 1/|Im phi| at theta = e^{-t}
    par = DiscFamilyParams(alpha=0.1)
    for t in (2.0, 5.0, 10.0, 39.9, 40.1, 120.0, 600.0):
        direct = inv_abs_im_phi_logtheta(0.1, t)
        if t <= 600.0 and math.exp(-t) > 0.0:
            theta = math.exp(-t)
            if theta > 1e-300:
                ref = 1.0 / abs(phi_boundary(par, np.array([theta]))[0].imag)
                assert abs(direct - ref) <= 1e-9 * ref, t


def test_inverse_modulus_requires_small_angle():
    with pytest.raises(ValueError):
        inv_abs_im_phi_logtheta(0.1, -2.0)
    with pytest.raises(ValueError):
        inv_abs_im_phi_logtheta(0.1, np.array([5.0, 50.0, -math.log(math.pi)]))


def _inv_abs_im_phi_logtheta_np_where(alpha, t):
    """The formula evaluating both branches everywhere and picking with np.where."""
    tv = np.asarray(t, dtype=float)
    tt = np.atleast_1d(tv).astype(float)
    theta = np.exp(-np.minimum(tt, 700.0))
    half = 0.5 * theta
    small = tt > 40.0
    with np.errstate(divide="ignore"):
        log_rho = np.where(small, -tt - math.log(2.0), np.log(np.sin(half)))
    psi_abs = np.where(small, 0.5 * math.pi, 0.5 * math.pi - half)
    a = -LOG4 + alpha * log_rho
    b = alpha * psi_abs
    out = (a * a + b * b) / (alpha * psi_abs)
    return float(out[0]) if tv.ndim == 0 else out.reshape(tv.shape)


# either side of the closed-form switch at t = 40 and the old clamp at t = 700
_SWITCH_TS = (
    -math.log(math.pi) + 1e-12, 0.0, 1.0, 39.5, math.nextafter(40.0, 0.0), 40.0,
    math.nextafter(40.0, math.inf), 40.5, 699.0, math.nextafter(700.0, 0.0), 700.0,
    math.nextafter(700.0, math.inf), 745.5, 1e4, 1e300, math.inf,
)


@pytest.mark.parametrize("alpha", [0.0125, 0.1, 1.0])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # t = 1e300 -> inf
def test_inverse_modulus_is_bitwise_the_np_where_formula(alpha):
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    for t in _SWITCH_TS:
        got = inv_abs_im_phi_logtheta(alpha, t)
        assert type(got) is float
        assert bits(got) == bits(_inv_abs_im_phi_logtheta_np_where(alpha, t)), t
        assert type(inv_abs_im_phi_logtheta(alpha, np.float64(t))) is float
    mixed = np.array(_SWITCH_TS)
    for arr in (
        mixed,
        mixed[::-1].copy(),
        mixed[mixed > 40.0],  # closed form only
        mixed[mixed <= 40.0],  # sine branch only
        mixed[:12].reshape(3, 4),
        np.array(45.0),
        list(_SWITCH_TS),
    ):
        before = np.array(arr, copy=True)
        got = inv_abs_im_phi_logtheta(alpha, arr)
        want = _inv_abs_im_phi_logtheta_np_where(alpha, arr)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert bits(got) == bits(want)
        assert np.array_equal(np.asarray(arr), before)  # the input is not written to


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # t = 1e300 -> inf
def test_inverse_modulus_takes_alpha_per_node():
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    alphas = np.array([0.0125, 0.1, 1.0, 0.002, 0.5])
    mixed = np.array(_SWITCH_TS)
    for t in (mixed, mixed[mixed > 40.0], mixed[mixed <= 40.0], mixed[4:8]):
        # one alpha per node, across the switch at t = 40 and on either side of it
        per_node = np.resize(alphas, t.size)
        want = [inv_abs_im_phi_logtheta(float(a), float(x)) for a, x in zip(per_node, t)]
        assert bits(inv_abs_im_phi_logtheta(per_node, t)) == bits(want)
        # every alpha against every node, by broadcasting
        grid = inv_abs_im_phi_logtheta(alphas[:, None], t)
        assert grid.shape == (alphas.size, t.size)
        for row, alpha in zip(grid, alphas.tolist()):
            assert bits(row) == bits(inv_abs_im_phi_logtheta(alpha, t))
    # a scalar t against an array of alphas
    assert bits(inv_abs_im_phi_logtheta(alphas, 45.0)) == bits(
        [inv_abs_im_phi_logtheta(a, 45.0) for a in alphas.tolist()]
    )


def test_modulus_growth_ratio_stabilizes():
    # 1/|phi(e^{i theta})| against -alpha log(theta/2): the ratio sequence over
    # theta = 10^{-2..-10} drifts down with strictly shrinking steps
    par = DiscFamilyParams(alpha=0.1)
    ratios = []
    for e in range(2, 11):
        theta = 10.0**-e
        val = phi_boundary(par, np.array([theta]))[0]
        ratios.append(1.0 / abs(val) / (-par.alpha * math.log(theta / 2.0)))
    assert abs(ratios[0] - 3.628536) <= 1e-5
    assert abs(ratios[-1] - 1.585849) <= 1e-5
    diffs = [a - b for a, b in zip(ratios, ratios[1:])]
    assert all(d > 0 for d in diffs)
    assert all(x > y for x, y in zip(diffs, diffs[1:]))


# ---- concentration near the squeeze limit


@pytest.mark.parametrize(
    "alpha,delta,want",
    [
        (0.2, 0.2, True),
        (0.1, 0.2, True),
        (0.05, 0.2, True),
        (0.05, 0.1, True),
        (0.1, 0.05, False),
    ],
)
def test_concentration_cases(alpha, delta, want):
    assert concentration_bound_check(DiscFamilyParams(alpha=alpha), delta) is want


def test_concentration_validates_input():
    with pytest.raises(ValueError):
        concentration_bound_check(DiscFamilyParams(alpha=0.1, eps_shift=0.1), 0.2)
    with pytest.raises(ValueError):
        concentration_bound_check(DiscFamilyParams(alpha=0.1), 0.8)

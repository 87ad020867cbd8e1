"""Circle-grid transforms: conjugate function, Poisson extension, radial derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    BoundaryFunction,
    CircleGrid,
    conjugate,
    evaluate_trig,
    fourier_coeffs,
    hilbert_t1,
    holder_seminorm,
    holomorphy_defect,
    poisson_extend,
    poisson_radial,
    radial_derivative,
    reconstruct,
)
from conftest import midpoint_radial_derivative


# ---- grid and boundary containers


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        CircleGrid(n=1000)
    with pytest.raises(ValueError):
        CircleGrid(n=4)
    with pytest.raises(ValueError):
        CircleGrid(n=8.0)


def test_grid_nodes_are_uniform():
    g = CircleGrid(n=16)
    assert g.theta[0] == 0.0
    assert np.allclose(np.diff(g.theta), 2.0 * np.pi / 16)


def test_boundary_function_requires_matching_length():
    g = CircleGrid(n=16)
    with pytest.raises(ValueError):
        BoundaryFunction(g, np.zeros(15))
    with pytest.raises(ValueError):
        BoundaryFunction(g, np.full(16, np.nan))


def test_boundary_function_copies_the_callers_array():
    g = CircleGrid(n=16)
    vals = np.cos(g.theta)
    f = BoundaryFunction(g, vals)
    vals[:] = 7.0
    assert np.array_equal(f.values, np.cos(g.theta))
    assert not f.values.flags.writeable
    ints = BoundaryFunction(g, np.arange(16))
    assert ints.values.dtype == float and not ints.values.flags.writeable


def test_adopted_arrays_are_checked_and_frozen_without_a_copy():
    g = CircleGrid(n=16)
    fresh = np.sin(g.theta)
    f = BoundaryFunction._adopt(g, fresh)
    assert f.values is fresh
    assert not fresh.flags.writeable
    assert BoundaryFunction._adopt(g, np.arange(16)).values.dtype == float
    with pytest.raises(ValueError, match="expected 16 samples"):
        BoundaryFunction._adopt(g, np.zeros(15))
    with pytest.raises(ValueError, match="finite"):
        BoundaryFunction._adopt(g, np.full(16, np.inf))
    # transforms hand out read-only results, and never the input's own array
    t = hilbert_t1(f)
    assert not t.values.flags.writeable
    assert t.values is not f.values


# ---- conjugate function


def band_limited(grid, rng, kmax):
    vals = np.zeros(grid.n)
    for k in range(1, kmax + 1):
        c, s = rng.normal(size=2)
        vals += c * np.cos(k * grid.theta) + s * np.sin(k * grid.theta)
    return BoundaryFunction(grid, vals + rng.normal())


def test_conjugate_on_pure_modes():
    g = CircleGrid(n=1024)
    worst = 0.0
    for k in range(1, g.n // 4 + 1):
        ck = conjugate(BoundaryFunction(g, np.cos(k * g.theta)))
        sk = conjugate(BoundaryFunction(g, np.sin(k * g.theta)))
        worst = max(
            worst,
            float(np.max(np.abs(ck.values - np.sin(k * g.theta)))),
            float(np.max(np.abs(sk.values + np.cos(k * g.theta)))),
        )
    assert worst <= 1e-12, f"mode map error {worst:.3e}"


def test_conjugate_kills_constants():
    g = CircleGrid(n=64)
    out = conjugate(BoundaryFunction(g, np.full(64, 3.7)))
    assert np.max(np.abs(out.values)) == 0.0


def test_t1_vanishes_at_node_zero_exactly():
    g = CircleGrid(n=256)
    rng = np.random.default_rng(3)
    f = band_limited(g, rng, 40)
    assert hilbert_t1(f).values[0] == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), kmax=st.integers(1, 60))
def test_double_conjugate_is_mean_minus_f(seed, kmax):
    g = CircleGrid(n=256)
    f = band_limited(g, np.random.default_rng(seed), kmax)
    tt = conjugate(conjugate(f))
    target = np.mean(f.values) - f.values
    assert np.max(np.abs(tt.values - target)) <= 1e-10 * max(1.0, f.sup_norm())


def test_holomorphy_defect_examples():
    g = CircleGrid(n=256)
    u = BoundaryFunction(g, np.cos(g.theta))
    # trace of tau itself: clean
    assert holomorphy_defect(u, BoundaryFunction(g, np.sin(g.theta))) <= 1e-14
    # trace of conj tau: u and v each put modulus 1/2 at the k=-1 bin and
    # the halves add, so the defect reads 1.0
    d = holomorphy_defect(u, BoundaryFunction(g, -np.sin(g.theta)))
    assert abs(d - 1.0) <= 1e-12


# ---- Poisson extension


def test_poisson_center_is_mean():
    g = CircleGrid(n=128)
    rng = np.random.default_rng(11)
    f = band_limited(g, rng, 30)
    assert abs(poisson_radial(f, np.array([0.0]))[0] - np.mean(f.values)) <= 1e-13


def test_poisson_matches_power_law_modes():
    g = CircleGrid(n=256)
    f = BoundaryFunction(g, np.cos(5 * g.theta) + 0.25 * np.sin(2 * g.theta))
    r = 0.7
    vals = poisson_extend(f, r, g.theta)
    target = r**5 * np.cos(5 * g.theta) + 0.25 * r**2 * np.sin(2 * g.theta)
    assert np.max(np.abs(vals - target)) <= 1e-13


def test_poisson_boundary_limit():
    # sup error against the boundary samples must shrink as r -> 1-
    g = CircleGrid(n=4096)
    f = BoundaryFunction(g, np.cos(3 * g.theta) + 0.5 * np.sin(7 * g.theta) + 0.2)
    errs = []
    for j in (4, 8, 12, 16):
        vals = poisson_extend(f, 1.0 - 2.0**-j, g.theta)
        errs.append(float(np.max(np.abs(vals - f.values))))
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 2e-4


def test_poisson_radial_consistent_with_dense_extension():
    g = CircleGrid(n=512)
    f = band_limited(g, np.random.default_rng(5), 50)
    for r in (0.3, 0.9, 0.99):
        ray = poisson_radial(f, np.array([r]), theta=0.0)[0]
        dense = poisson_extend(f, r, np.array([0.0]))[0]
        assert abs(ray - dense) <= 1e-12 * max(1.0, f.sup_norm())


def test_poisson_rejects_unit_radius():
    g = CircleGrid(n=64)
    f = BoundaryFunction(g, np.cos(g.theta))
    with pytest.raises(ValueError):
        poisson_extend(f, 1.0, g.theta)
    with pytest.raises(ValueError):
        poisson_radial(f, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        poisson_radial(f, np.array([0.5, np.nan]))


def test_coefficients_are_shared_and_read_only():
    g = CircleGrid(n=256)
    f = band_limited(g, np.random.default_rng(3), 60)
    c = fourier_coeffs(f)
    assert fourier_coeffs(f) is c
    with pytest.raises(ValueError, match="read-only"):
        c.a[1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        c.b[1] = 0.0


def test_poisson_radial_rays_give_the_same_bits_in_any_order():
    g = CircleGrid(n=512)
    f = band_limited(g, np.random.default_rng(7), 80)
    radii = np.array([0.5, 0.9, 0.99])
    first = poisson_radial(f, radii, theta=0.3)
    poisson_radial(f, radii[:2], theta=0.3)
    poisson_radial(f, radii, theta=1.1)
    again = poisson_radial(f, radii, theta=0.3)
    on_new_grid = poisson_radial(BoundaryFunction(CircleGrid(n=512), f.values), radii, 0.3)
    assert np.array_equal(first, again) and np.array_equal(first, on_new_grid)


# ---- radial derivative at the boundary


def test_radial_derivative_pure_modes_both_methods():
    g = CircleGrid(n=1024)
    # up to the last full mode and the half-weight Nyquist cosine
    for k in (1, 2, 7, 32, 511, 512):
        f = BoundaryFunction(g, np.cos(k * g.theta))
        assert abs(radial_derivative(f, method="spectral") - k) <= 1e-6 * k
        assert abs(radial_derivative(f, method="quadrature") - k) <= 1e-6 * k
    # sine modes contribute nothing along theta = 0
    f = BoundaryFunction(g, np.sin(9 * g.theta))
    assert abs(radial_derivative(f, method="spectral")) <= 1e-12
    assert abs(radial_derivative(f, method="quadrature")) <= 1e-12
    # at k = 511 the FFT's rounding in the cosine coefficients, weighted
    # by k, is what remains
    f = BoundaryFunction(g, np.sin(511 * g.theta))
    assert abs(radial_derivative(f, method="spectral")) <= 1e-11
    assert abs(radial_derivative(f, method="quadrature")) <= 1e-11


def test_radial_derivative_against_midpoint_rule():
    # independent uniform-midpoint evaluation of the same folded integrand
    g = CircleGrid(n=1024)
    f = band_limited(g, np.random.default_rng(7), 8)
    ref = midpoint_radial_derivative(f)
    quad = radial_derivative(f, method="quadrature")
    spec = radial_derivative(f, method="spectral")
    scale = max(1.0, abs(spec))
    assert abs(quad - ref) <= 1e-6 * scale, f"{quad} vs midpoint {ref}"
    assert abs(spec - ref) <= 1e-6 * scale


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_radial_derivative_methods_agree_band_limited(seed):
    g = CircleGrid(n=512)
    f = band_limited(g, np.random.default_rng(seed), g.n // 4)
    a = radial_derivative(f, method="spectral")
    b = radial_derivative(f, method="quadrature")
    assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_radial_derivative_validates_arguments():
    g = CircleGrid(n=64)
    f = BoundaryFunction(g, np.cos(g.theta))
    with pytest.raises(ValueError):
        radial_derivative(f, method="simpson")


# ---- interpolation, reconstruction, seminorm


def test_evaluate_trig_reproduces_nodes():
    g = CircleGrid(n=128)
    f = band_limited(g, np.random.default_rng(2), 20)
    out = evaluate_trig(f, g.theta)
    assert np.max(np.abs(out - f.values)) <= 1e-11 * max(1.0, f.sup_norm())


def test_fourier_roundtrip():
    g = CircleGrid(n=256)
    f = band_limited(g, np.random.default_rng(9), 100)
    back = reconstruct(fourier_coeffs(f), g)
    assert np.max(np.abs(back.values - f.values)) <= 1e-11 * max(1.0, f.sup_norm())


def test_holder_seminorm_scales_linearly():
    g = CircleGrid(n=256)
    f = BoundaryFunction(g, np.cos(3 * g.theta))
    one = holder_seminorm(f, beta=0.5)
    three = holder_seminorm(BoundaryFunction(g, 3.0 * f.values), beta=0.5)
    assert one > 0.0
    assert abs(three - 3.0 * one) <= 1e-9 * one


def test_complex_inputs_rejected_where_real_required():
    g = CircleGrid(n=64)
    f = BoundaryFunction(g, np.exp(1j * g.theta))
    assert not f.is_real
    with pytest.raises(ValueError):
        conjugate(f)
    with pytest.raises(ValueError):
        radial_derivative(f)

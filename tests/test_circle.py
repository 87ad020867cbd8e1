"""Circle-grid transforms: conjugate function, Poisson extension, radial derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    BoundaryFunction,
    CircleGrid,
    conjugate,
    hilbert_t1,
    holder_seminorm,
    holomorphy_defect,
    poisson_radial,
    radial_derivative,
)
from conftest import midpoint_radial_derivative, poisson_radial_per_call


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


def band_limited(grid, rng, top):
    """A random trigonometric polynomial of degree top < n/2, and its coefficients a, b."""
    a = np.zeros(grid.n // 2 + 1)
    b = np.zeros(grid.n // 2 + 1)
    vals = np.zeros(grid.n)
    for k in range(1, top + 1):
        a[k], b[k] = rng.normal(size=2)
        vals += a[k] * np.cos(k * grid.theta) + b[k] * np.sin(k * grid.theta)
    a[0] = rng.normal()
    return BoundaryFunction(grid, vals + a[0]), a, b


def mode_sum(a, b, r, theta):
    """The harmonic extension sum_k r^k (a_k cos k theta + b_k sin k theta), term by term."""
    k = np.arange(len(a))
    return float(np.sum(r**k * (a * np.cos(k * theta) + b * np.sin(k * theta))))


def at_node(f, j):
    """f with its samples rotated so that node j sits at the contact point theta = 0."""
    return BoundaryFunction(f.grid, np.roll(f.values, -j))


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
    f, _, _ = band_limited(g, rng, 40)
    assert hilbert_t1(f).values[0] == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), top=st.integers(1, 60))
def test_double_conjugate_is_mean_minus_f(seed, top):
    g = CircleGrid(n=256)
    f, _, _ = band_limited(g, np.random.default_rng(seed), top)
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


def holomorphy_defect_reference(u, v):
    # the three-copy form: u + iv, its spectrum, the spectrum over n
    spec = np.fft.fft(u.values + 1j * v.values) / u.grid.n
    return float(np.max(np.abs(spec[u.grid.n // 2 + 1 :])))


def test_holomorphy_defect_matches_its_three_copy_form_bit_for_bit():
    rng = np.random.default_rng(236)
    for k in range(3, 17):
        g = CircleGrid(n=2**k)
        for scale in 10.0 ** rng.uniform(-20, 4, 4):
            u = BoundaryFunction(g, scale * rng.standard_normal(g.n))
            pairs = [BoundaryFunction(g, scale * rng.standard_normal(g.n)), conjugate(u)]
            for v in pairs:
                assert holomorphy_defect(u, v) == holomorphy_defect_reference(u, v), (k, scale)


def test_holomorphy_defect_refuses_grids_of_different_sizes():
    g, h = CircleGrid(n=256), CircleGrid(n=512)
    u = BoundaryFunction(g, np.cos(g.theta))
    with pytest.raises(ValueError, match="grids of the same size"):
        holomorphy_defect(u, BoundaryFunction(h, np.sin(h.theta)))


# ---- Poisson extension


def test_poisson_center_is_mean():
    g = CircleGrid(n=128)
    rng = np.random.default_rng(11)
    f, _, _ = band_limited(g, rng, 30)
    assert abs(poisson_radial(f, np.array([0.0]))[0] - np.mean(f.values)) <= 1e-13


def test_poisson_matches_power_law_modes():
    g = CircleGrid(n=256)
    f = BoundaryFunction(g, np.cos(5 * g.theta) + 0.25 * np.sin(2 * g.theta))
    radii = np.array([0.3, 0.7, 0.95])
    for j, theta in enumerate(g.theta):  # every node in turn on the contact ray
        vals = poisson_radial(at_node(f, j), radii)
        target = radii**5 * np.cos(5 * theta) + 0.25 * radii**2 * np.sin(2 * theta)
        assert np.max(np.abs(vals - target)) <= 1e-13, theta


def test_poisson_boundary_limit():
    # sup error against the boundary samples must shrink as r -> 1-; one ray per node
    g = CircleGrid(n=4096)
    f = BoundaryFunction(g, np.cos(3 * g.theta) + 0.5 * np.sin(7 * g.theta) + 0.2)
    radii = 1.0 - 2.0 ** -np.array([4.0, 8.0, 12.0, 16.0])
    rays = np.array([poisson_radial(at_node(f, j), radii) for j in range(g.n)])
    errs = np.max(np.abs(rays - f.values[:, None]), axis=0).tolist()
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 2e-4


def test_poisson_radial_consistent_with_dense_extension():
    # against the mode sum of the coefficients f was drawn with
    g = CircleGrid(n=512)
    f, a, b = band_limited(g, np.random.default_rng(5), 50)
    radii = (0.3, 0.9, 0.99)
    for j in (0, 57, 163, 256, 416):  # theta = 0, ~0.7, ~2.0, pi, ~5.1
        ray = poisson_radial(at_node(f, j), np.array(radii))
        for r, got in zip(radii, ray):
            want = mode_sum(a, b, r, g.theta[j])
            assert abs(got - want) <= 1e-12 * max(1.0, f.sup_norm())


def test_poisson_rejects_unit_radius():
    g = CircleGrid(n=64)
    f = BoundaryFunction(g, np.cos(g.theta))
    for radii in ([1.0], [0.5, 1.0], [0.5, np.nan]):
        with pytest.raises(ValueError):
            poisson_radial(f, np.array(radii))


RADII_SETS = [
    (0.9, 0.99, 0.999, 0.9999),  # the transversal profile's radii
    (0.99, 0.995, 0.999, 0.9995, 0.9999),  # the coverage radii: overlap the profile's
    (0.3, 0.5),  # disjoint from both
    (0.7, 0.7, 0.99, 0.7),  # a repeated radius
    (0.9999, 0.2, 0.995, 0.0),  # unsorted, with r = 0
    (-0.0, 0.0, 0.5),  # -0.0 and 0.0 are distinct bit patterns
    (0.99,),
]


@pytest.mark.parametrize("log2n", range(10, 17))
def test_ray_rows_are_bitwise_the_per_call_power_table(log2n):
    g = CircleGrid(n=1 << log2n)
    rng = np.random.default_rng(log2n)
    spec = rng.standard_normal(g.n // 2 + 1) + 1j * rng.standard_normal(g.n // 2 + 1)
    f = BoundaryFunction(g, np.fft.irfft(spec, g.n))  # every mode, Nyquist included
    u = BoundaryFunction(g, np.fft.irfft(spec / np.arange(1, g.n // 2 + 2) ** 2, g.n))
    for _ in range(2):  # the second pass reads every row from the grid
        for radii in RADII_SETS:
            for fn in (f, u):
                got = poisson_radial(fn, np.array(radii))
                assert got.tobytes() == poisson_radial_per_call(fn, radii).tobytes(), radii
    block = np.array([[0.5, 0.9], [0.99, 0.5]])
    got = poisson_radial(u, block)
    assert got.shape == (2, 2)
    assert got.tobytes() == poisson_radial_per_call(u, block).tobytes()
    strided = np.array(RADII_SETS[1] * 2)[::2]
    assert poisson_radial(u, strided).tobytes() == poisson_radial_per_call(u, strided).tobytes()
    assert poisson_radial(u, 0.9).tobytes() == poisson_radial_per_call(u, 0.9).tobytes()


def test_one_power_row_per_distinct_radius_per_grid(monkeypatch):
    made = []
    outer = np.power.outer

    class Power:
        @staticmethod
        def outer(radii, k):
            made.extend(radii.tolist())
            return outer(radii, k)

    g = CircleGrid(n=1024)
    f = BoundaryFunction(g, np.cos(g.theta) + 0.5 * np.cos(3.0 * g.theta))
    with monkeypatch.context() as mp:
        mp.setattr(np, "power", Power)
        for radii in RADII_SETS:
            poisson_radial(f, np.array(radii))
        poisson_radial(BoundaryFunction(g, np.sin(g.theta)), np.array(RADII_SETS[0]))
        fresh = CircleGrid(n=1024)  # another grid owns rows of its own
        poisson_radial(BoundaryFunction(fresh, np.cos(fresh.theta)), np.array([0.9]))
    bits = [np.float64(r).tobytes() for radii in RADII_SETS for r in radii]
    assert len(made) == len(set(bits)) + 1
    assert sorted(np.float64(r).tobytes() for r in made[:-1]) == sorted(set(bits))
    assert made[-1] == 0.9


def test_ramp_is_built_once_and_read_only():
    g = CircleGrid(n=64)
    k = g.ramp
    assert g.ramp is k
    assert k.tobytes() == np.arange(1, 33, dtype=float).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        k[0] = 0.0


def test_coefficients_are_shared_and_read_only():
    g = CircleGrid(n=256)
    f, _, _ = band_limited(g, np.random.default_rng(3), 60)
    a = f.coeffs
    assert f.coeffs is a
    with pytest.raises(ValueError, match="read-only"):
        a[1] = 0.0


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
    f, a, _ = band_limited(g, np.random.default_rng(7), 8)
    ref = midpoint_radial_derivative(a)
    quad = radial_derivative(f, method="quadrature")
    spec = radial_derivative(f, method="spectral")
    scale = max(1.0, abs(spec))
    assert abs(quad - ref) <= 1e-6 * scale, f"{quad} vs midpoint {ref}"
    assert abs(spec - ref) <= 1e-6 * scale


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_radial_derivative_methods_agree_band_limited(seed):
    g = CircleGrid(n=512)
    f, _, _ = band_limited(g, np.random.default_rng(seed), g.n // 4)
    a = radial_derivative(f, method="spectral")
    b = radial_derivative(f, method="quadrature")
    assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_radial_derivative_validates_arguments():
    g = CircleGrid(n=64)
    f = BoundaryFunction(g, np.cos(g.theta))
    with pytest.raises(ValueError):
        radial_derivative(f, method="simpson")


# ---- coefficients, seminorm


def test_fourier_roundtrip():
    # f.coeffs are the cosine coefficients f was drawn with, and their
    # interpolant reproduces the even part (f(theta) + f(-theta))/2 at the nodes
    g = CircleGrid(n=256)
    f, a, _ = band_limited(g, np.random.default_rng(9), 100)
    c = f.coeffs
    scale = max(1.0, f.sup_norm())
    assert np.max(np.abs(c - a)) <= 1e-11 * scale
    back = np.array([mode_sum(c, np.zeros_like(c), 1.0, theta) for theta in g.theta])
    even = 0.5 * (f.values + np.roll(f.values[::-1], 1))
    assert np.max(np.abs(back - even)) <= 1e-11 * scale


def test_holder_seminorm_scales_linearly():
    g = CircleGrid(n=256)
    f = BoundaryFunction(g, np.cos(3 * g.theta))
    one = holder_seminorm(f)
    three = holder_seminorm(BoundaryFunction(g, 3.0 * f.values))
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
    with pytest.raises(ValueError, match="poisson_radial requires a real-valued"):
        poisson_radial(f, [0.5])

"""Spectral toolkit on the unit circle.

Uniform grids on [0, 2pi), FFT-based conjugate-function transforms,
Poisson extension, and the radial derivative of the harmonic extension
at the boundary point theta = 0 (tau = 1).

Conventions.  A real grid function f with samples f_j = f(theta_j),
theta_j = 2 pi j/n, is identified with its trigonometric interpolant

    f(theta) = a_0 + sum_{k=1}^{n/2-1} (a_k cos k theta + b_k sin k theta)
               + a_{n/2} cos((n/2) theta).

The conjugate operator T maps cos k theta -> sin k theta and
sin k theta -> -cos k theta and annihilates constants.  The Nyquist mode
is annihilated as well: its conjugate sin((n/2) theta) vanishes at every
node, so the grid carries no recoverable sign information for it.
T_1 f = T f - (T f)(theta=0) is the normalization vanishing at tau = 1.

Grids of any power-of-two size from 8 up are supported (2^22 works if
you have the memory).  Transforms and both radial-derivative methods are
O(n log n); poisson_extend and evaluate_trig are dense in angles times
modes.

A BoundaryFunction computes its Fourier coefficients once, on first
read, and shares them read-only with every coefficient reader; a
CircleGrid keeps the cos/sin/r^k tables of the last ray poisson_radial
walked on it.  Both are freed with their owner, never kept by the module.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

__all__ = [
    "CircleGrid",
    "BoundaryFunction",
    "FourierCoeffs",
    "conjugate",
    "hilbert_t1",
    "fourier_coeffs",
    "reconstruct",
    "poisson_extend",
    "poisson_radial",
    "evaluate_trig",
    "radial_derivative",
    "holomorphy_defect",
    "holder_seminorm",
    "spectral_identity_errors",
]

# Cap on the working-set size (points x modes) of one dense evaluation
# chunk; keeps the outer-product buffers around 64 MB.
_EVAL_BUDGET = 1 << 22

# Spectral magnitudes below this fraction of the largest are skipped in
# dense evaluation.
_DROP_TOL = 1e-14

# Quadrature nodes on each side of theta = 0 whose numerator is summed in
# product form rather than differenced.
_NEAR_NODES = 8


@dataclasses.dataclass(frozen=True, eq=False)
class CircleGrid:
    """Uniform angular grid theta_j = 2 pi j / n, j = 0..n-1."""

    n: int  # node count; must be a power of two, at least 8

    def __post_init__(self) -> None:
        n = self.n
        if not isinstance(n, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {type(n).__name__}")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        object.__setattr__(self, "n", int(n))

    @functools.cached_property
    def theta(self) -> np.ndarray:
        # theta[0] = 0 exactly; the normalization node tau = 1 lives there.
        th = 2.0 * np.pi * np.arange(self.n) / self.n
        th.flags.writeable = False
        return th

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    def _ray_tables(self, theta: float, radii: tuple) -> tuple:
        """cos(k theta), sin(k theta) and the rows r^k, k = 1..n/2, for poisson_radial.

        The grid keeps the last set it built, so a run that walks one ray
        for many functions builds it once, and it is freed with the grid.
        """
        key = (theta, radii)
        if self.__dict__.get("_ray", (None,))[0] != key:
            self.__dict__.pop("_ray", None)  # free the last set before building this one
            k = np.arange(1, self.n // 2 + 1, dtype=float)
            tables = (np.cos(k * theta), np.sin(k * theta), np.power.outer(radii, k))
            for table in tables:
                table.flags.writeable = False
            self.__dict__["_ray"] = (key, tables)
        return self.__dict__["_ray"][1]


@dataclasses.dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Samples of a real- or complex-valued function on a CircleGrid."""

    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        # the caller may keep and change its array, so the function holds a copy
        object.__setattr__(self, "values", _frozen_samples(self.grid, np.array(self.values)))

    @classmethod
    def _adopt(cls, grid: CircleGrid, values: np.ndarray) -> "BoundaryFunction":
        """Wrap an array the package has just made and keeps no other reference to.

        The constructor's checks, without its copy.
        """
        f = cls.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", _frozen_samples(grid, values))
        return f

    @classmethod
    def from_callable(cls, grid: CircleGrid, fn) -> "BoundaryFunction":
        return cls(grid, np.asarray(fn(grid.theta)))

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind != "c"

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @functools.cached_property
    def coeffs(self) -> "FourierCoeffs":
        """Read-only coefficients of the interpolant, from one rfft on first read.

        Every coefficient reader (fourier_coeffs, both radial_derivative
        methods, poisson_radial) shares them, and they are freed with
        the function.
        """
        _require_real(self, "fourier_coeffs")
        n = self.grid.n
        spec = np.fft.rfft(self.values)
        a = 2.0 * spec.real / n
        b = -2.0 * spec.imag / n
        a[0] = spec[0].real / n
        a[-1] = spec[-1].real / n
        b[0] = 0.0
        b[-1] = 0.0
        a.flags.writeable = False
        b.flags.writeable = False
        return FourierCoeffs(a, b)


def _frozen_samples(grid: CircleGrid, vals: np.ndarray) -> np.ndarray:
    """vals as n finite float or complex samples, made read-only in place."""
    if vals.dtype.kind not in "fc":
        vals = vals.astype(float)
    if vals.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("boundary samples must all be finite")
    vals.flags.writeable = False
    return vals


@dataclasses.dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Cosine/sine coefficients a[k], b[k] for k = 0..n/2.

    a[n/2] multiplies cos((n/2) theta) directly (no factor 2); b[0] and
    b[n/2] are identically zero.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def kmax(self) -> int:
        return len(self.a) - 1


def _require_real(f: BoundaryFunction, op: str) -> None:
    if not f.is_real:
        raise ValueError(f"{op} requires a real-valued boundary function")


def conjugate(f: BoundaryFunction) -> BoundaryFunction:
    """Trace of the harmonic conjugate, vanishing in mean.

    cos k theta -> sin k theta, sin k theta -> -cos k theta,
    constants -> 0.
    """
    _require_real(f, "conjugate")
    spec = np.fft.rfft(f.values)
    spec *= -1j
    spec[0] = 0.0
    spec[-1] = 0.0  # Nyquist: the conjugate mode samples to zero on the grid
    return BoundaryFunction._adopt(f.grid, np.fft.irfft(spec, f.grid.n))


def hilbert_t1(f: BoundaryFunction) -> BoundaryFunction:
    """Conjugate normalized to vanish at theta = 0: T_1 f = T f - (T f)(0)."""
    g = conjugate(f)
    vals = g.values - g.values[0]
    vals[0] = 0.0  # exact zero at the normalization node
    return BoundaryFunction._adopt(f.grid, vals)


def fourier_coeffs(f: BoundaryFunction) -> FourierCoeffs:
    """Coefficients of the trigonometric interpolant of the samples (read-only, shared)."""
    return f.coeffs


def reconstruct(coeffs: FourierCoeffs, grid: CircleGrid) -> BoundaryFunction:
    """Inverse of fourier_coeffs; round-trips node values to rounding error."""
    n = grid.n
    if len(coeffs.a) != n // 2 + 1 or len(coeffs.b) != n // 2 + 1:
        raise ValueError(
            f"coefficient arrays must have length {n // 2 + 1} for this grid"
        )
    spec = (0.5 * n) * (coeffs.a - 1j * coeffs.b)
    spec[0] = n * coeffs.a[0]
    spec[-1] = n * coeffs.a[-1]
    return BoundaryFunction._adopt(grid, np.fft.irfft(spec, n))


def poisson_extend(f: BoundaryFunction, r: float, theta):
    """Harmonic extension of f evaluated at radius r and angle(s) theta.

    Dense in the number of requested angles times n/2 modes; meant for
    moderate grids and verification work.  Use poisson_radial to walk a
    single ray on large grids.
    """
    if not (0.0 <= r < 1.0):
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    _require_real(f, "poisson_extend")
    spec = np.fft.rfft(f.values)
    spec *= r ** np.arange(len(spec), dtype=float)
    th = np.asarray(theta, dtype=float)
    out = _eval_halfspec(spec, f.grid.n, np.atleast_1d(th).ravel())
    return float(out[0]) if th.ndim == 0 else out.reshape(th.shape)


def poisson_radial(f: BoundaryFunction, radii, theta: float = 0.0) -> np.ndarray:
    """Harmonic extension along the ray at a fixed angle, vector over radii."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all((radii >= 0.0) & (radii < 1.0)):
        raise ValueError("all radii must lie in [0, 1)")
    c = fourier_coeffs(f)
    cos_k, sin_k, powers = f.grid._ray_tables(float(theta), tuple(radii.tolist()))
    profile = c.a[1:] * cos_k + c.b[1:] * sin_k
    return c.a[0] + powers @ profile


def _eval_halfspec(spec: np.ndarray, n: int, pts: np.ndarray) -> np.ndarray:
    """Evaluate the interpolant from its rfft half-spectrum at given angles.

    Modes whose magnitude falls below _DROP_TOL times the largest one are
    skipped: invisible next to double rounding, but nearly-sparse spectra
    then evaluate in microseconds.
    """
    half = spec[1:].copy()
    if len(half):
        half[-1] *= 0.5  # Nyquist enters the 2 Re(...) form at half weight
    mx = float(np.max(np.abs(half))) if len(half) else 0.0
    acc = np.zeros(len(pts), dtype=complex)
    if mx > 0.0:
        keep = np.nonzero(np.abs(half) > _DROP_TOL * mx)[0]
        ks = (keep + 1).astype(float)
        coefs = half[keep]
        chunk = max(1, _EVAL_BUDGET // max(1, len(ks)))
        for lo in range(0, len(pts), chunk):
            seg = pts[lo : lo + chunk]
            acc[lo : lo + chunk] = np.exp(1j * np.multiply.outer(seg, ks)) @ coefs
    return (spec[0].real + 2.0 * acc.real) / n


def evaluate_trig(f: BoundaryFunction, theta):
    """Evaluate the trigonometric interpolant of f at arbitrary angles."""
    _require_real(f, "evaluate_trig")
    th = np.asarray(theta, dtype=float)
    out = _eval_halfspec(np.fft.rfft(f.values), f.grid.n, np.atleast_1d(th).ravel())
    return float(out[0]) if th.ndim == 0 else out.reshape(th.shape)


def radial_derivative(f: BoundaryFunction, method: str = "spectral") -> float:
    """d/dr at r = 1 of the harmonic extension of f, along the ray theta = 0.

    method="spectral": the coefficient sum over k >= 1 of k a_k.

    method="quadrature": the singular-integral form

        (1/2pi) integral_0^{2pi} (f(0) - f(theta)) / (1 - cos theta) dtheta

    by the trapezoid rule at the n half-shifted nodes
    theta_m = 2pi (m + 1/2)/n.  The nodes are symmetric about 0, so the
    odd part of f (the sine modes) drops out and only the even part
    contributes, through the kernel

        (1 - cos k theta) / (1 - cos theta) = sum_{|j|<k} (k - |j|) e^{i j theta}.

    For k <= n/2 this is a trigonometric polynomial of degree < n, which
    the n-node rule integrates exactly; the rule is the spectral sum
    evaluated in physical space, not an approximation to it.  The
    even-part values come from one zero-padded irfft of length 2n.  On
    the nodes nearest theta = 0 the numerator is taken in the product
    form 2 sum a_k sin^2(k theta / 2) instead, so no difference of nearly
    equal values is divided by the small 1 - cos theta there.
    """
    _require_real(f, "radial_derivative")
    c = fourier_coeffs(f)
    k = np.arange(1, len(c.a), dtype=float)
    a = c.a[1:]
    if method == "spectral":
        return float(np.dot(k, a))
    if method != "quadrature":
        raise ValueError(f"unknown radial_derivative method: {method!r}")

    n = f.grid.n
    # Half-spectrum of the even part on 2n points.  a_{n/2} carries no
    # factor 2, so the Nyquist bin enters at half weight automatically.
    even = np.fft.irfft(np.concatenate(([0.0], n * a)), 2 * n)
    th = (np.arange(n // 2) + 0.5) * (2.0 * np.pi / n)  # nodes in (0, pi)
    num = even[0] - even[1:n:2]
    for m in range(min(_NEAR_NODES, n // 2)):
        num[m] = 2.0 * np.sum(a * np.sin((0.5 * th[m]) * k) ** 2)
    # 1 - cos theta = 2 sin^2(theta/2); each node pairs with 2pi - theta_m.
    return float(np.sum(num / np.sin(0.5 * th) ** 2) / n)


def holomorphy_defect(u: BoundaryFunction, v: BoundaryFunction) -> float:
    """Largest negative-frequency Fourier magnitude of u + iv.

    Vanishes exactly when u + iv is the boundary trace of a holomorphic
    function on the disc.  The Nyquist bin is ambiguous between +n/2 and
    -n/2 and is excluded.
    """
    if u.grid.n != v.grid.n:
        raise ValueError("u and v must live on grids of the same size")
    spec = np.fft.fft(u.values + 1j * v.values) / u.grid.n
    neg = spec[u.grid.n // 2 + 1 :]
    return float(np.max(np.abs(neg))) if len(neg) else 0.0


def holder_seminorm(f: BoundaryFunction, beta: float = 0.5, max_nodes: int = 512) -> float:
    """Diagnostic Hoelder seminorm of the spectral derivative f'.

    Max over sampled node pairs of |f'(th_i) - f'(th_j)| / d(th_i, th_j)^beta
    with d the arc distance.  A smoothness indicator only; nothing in the
    solvers asserts a bound on it.
    """
    _require_real(f, "holder_seminorm")
    if not (0.0 < beta <= 1.0):
        raise ValueError("beta must lie in (0, 1]")
    n = f.grid.n
    spec = np.fft.rfft(f.values)
    freq = 1j * np.arange(len(spec))
    freq[-1] = 0.0  # derivative of the Nyquist cosine samples to zero
    dvals = np.fft.irfft(spec * freq, n)
    idx = np.unique(np.linspace(0, n - 1, min(max_nodes, n)).astype(int))
    th = f.grid.theta[idx]
    dv = dvals[idx]
    dth = np.abs(th[:, None] - th[None, :])
    dth = np.minimum(dth, 2.0 * np.pi - dth)
    num = np.abs(dv[:, None] - dv[None, :])
    mask = dth > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / dth[mask] ** beta))


def spectral_identity_errors(n: int) -> list:
    """(name, max error) for each identity the transforms must satisfy on n nodes.

    Conjugation maps cos k theta to sin k theta and sin k theta to
    -cos k theta for k <= n/4 and annihilates constants; T(T f) =
    mean(f) - f on a band-limited random sample; T_1 f vanishes at
    tau = 1.  Every error is at rounding level on a working toolkit.
    """
    grid = CircleGrid(n=n)
    th = grid.theta
    rng = np.random.default_rng(0)
    checks = []

    for name, mode, image in (
        ("cos(k t) to sin(k t)", np.cos, np.sin),
        ("sin(k t) to -cos(k t)", np.sin, lambda x: -np.cos(x)),
    ):
        worst = 0.0
        for k in range(1, n // 4 + 1):
            got = conjugate(BoundaryFunction(grid, mode(k * th))).values
            worst = max(worst, float(np.max(np.abs(got - image(k * th)))))
        checks.append((f"conjugate maps {name}, k <= n/4", worst))

    zeros = conjugate(BoundaryFunction(grid, np.ones(n))).values
    checks.append(("conjugate annihilates constants", float(np.max(np.abs(zeros)))))

    # band-limit the random sample so the double-conjugate identity is
    # exact on the grid (the Nyquist mode is annihilated by design)
    spec = np.fft.rfft(rng.standard_normal(n))
    spec[n // 4 :] = 0.0
    f = BoundaryFunction(grid, np.fft.irfft(spec, n))
    twice = conjugate(conjugate(f)).values
    target = -f.values + float(np.mean(f.values))
    checks.append(("double conjugate is mean(f) - f", float(np.max(np.abs(twice - target)))))

    checks.append(
        ("normalized transform vanishes at tau = 1", abs(float(hilbert_t1(f).values[0])))
    )
    return checks

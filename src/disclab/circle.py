"""Spectral toolkit on the unit circle.

Uniform grids on [0, 2pi), FFT-based conjugate-function transforms,
and the Poisson extension and radial derivative of the harmonic
extension along the inward ray to the contact point theta = 0 (tau = 1).

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
O(n log n); poisson_radial is dense in radii times modes.

The conjugate, T_1 and the cosine coefficients also come in block
form, over the rows of an (m, n) array in one rfft/irfft along the last
axis; each row has the bits of its own 1-D transform, and hilbert_t1
and BoundaryFunction.coeffs are the one-row case.

A BoundaryFunction computes its cosine coefficients once, on first
read, and shares them read-only with every coefficient reader; they are
freed with the function, never kept by the module.  Functions adopted
as the rows of one block share one transform of the whole block, taken
on the first read of any row's.  Every reader walks
the ray to the contact point, where the sine modes vanish, so no sine
coefficient is kept.  Likewise the grid owns its read-only mode ramp
k = 1..n/2 and poisson_radial's rows r^k, one per distinct radius.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

__all__ = [
    "CircleGrid",
    "BoundaryFunction",
    "conjugate",
    "hilbert_t1",
    "conjugate_rows",
    "hilbert_t1_rows",
    "cosine_coeffs",
    "poisson_radial",
    "radial_derivative",
    "holomorphy_defect",
    "holder_seminorm",
    "spectral_identity_errors",
]

# Quadrature nodes on each side of theta = 0 whose numerator is summed in
# product form rather than differenced.
_NEAR_NODES = 8

# About the most samples per block of modes that spectral_identity_errors conjugates
# in one call; blocks of 2^20 run no faster and hold about 30 MB more at n = 2^14.
_SELFTEST_BLOCK = 1 << 18


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

    @functools.cached_property
    def ramp(self) -> np.ndarray:
        k = np.arange(1, self.n // 2 + 1, dtype=float)  # mode numbers k = 1..n/2
        k.flags.writeable = False
        return k

    _ray_rows = functools.cached_property(lambda self: {})  # r's bits -> row r^k, k = 1..n/2


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
    def _adopt_rows(cls, grid: CircleGrid, block: np.ndarray) -> list:
        """_adopt each row of a real (m, n) block; their coeffs come from one rfft of the block.

        The first coeffs read of any row transforms the whole block, and
        each row's function keeps its row of the result.
        """
        shared = [block]  # [block, its coefficients] once a row's are read
        fs = [cls._adopt(grid, row) for row in block]
        for i, f in enumerate(fs):
            f.__dict__["_block"] = (shared, i)
        return fs

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind != "c"

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @functools.cached_property
    def coeffs(self) -> np.ndarray:
        """Read-only cosine coefficients a[k], k = 0..n/2, from one rfft on first read.

        a[n/2] multiplies cos((n/2) theta) directly (no factor 2).  Every
        coefficient reader (both radial_derivative methods,
        poisson_radial) shares them, and they are freed with the function.
        A function made by _adopt_rows takes its row of its block's rfft,
        freed with the last function of the block.
        """
        _require_real(self, "coeffs")
        if "_block" not in self.__dict__:
            a = cosine_coeffs(self.values)
            a.flags.writeable = False
            return a
        shared, i = self.__dict__["_block"]
        if len(shared) == 1:
            shared.append(cosine_coeffs(shared[0]))
            shared[1].flags.writeable = False
        return shared[1][i]


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


def _require_real(f: BoundaryFunction, op: str) -> None:
    if not f.is_real:
        raise ValueError(f"{op} requires a real-valued boundary function")


def conjugate(f: BoundaryFunction) -> BoundaryFunction:
    """Trace of the harmonic conjugate, vanishing in mean.

    cos k theta -> sin k theta, sin k theta -> -cos k theta,
    constants -> 0.
    """
    _require_real(f, "conjugate")
    return BoundaryFunction._adopt(f.grid, conjugate_rows(f.values))


def hilbert_t1(f: BoundaryFunction) -> BoundaryFunction:
    """Conjugate normalized to vanish at theta = 0: T_1 f = T f - (T f)(0)."""
    _require_real(f, "conjugate")
    return BoundaryFunction._adopt(f.grid, hilbert_t1_rows(f.values))


# The block transforms below take the samples of m functions on one grid as
# the rows of a real (m, n) array, or of one function as an (n,) array, and
# transform along the last axis in one call.  pocketfft transforms each row
# on its own, so a row's result has the bits of that row transformed alone.


def conjugate_rows(values: np.ndarray) -> np.ndarray:
    """T of each row, by one rfft and one irfft; fresh and writable."""
    spec = np.fft.rfft(values)
    spec *= -1j
    spec[..., 0] = 0.0
    spec[..., -1] = 0.0  # Nyquist: the conjugate mode samples to zero on the grid
    return np.fft.irfft(spec, values.shape[-1])


def hilbert_t1_rows(values: np.ndarray) -> np.ndarray:
    """T_1 of each row, vanishing at theta = 0; fresh and writable."""
    vals = conjugate_rows(values)
    vals -= vals[..., :1]  # the overlapping column is read before it is written
    vals[..., 0] = 0.0  # exact zero at the normalization node
    return vals


def cosine_coeffs(values: np.ndarray) -> np.ndarray:
    """Cosine coefficients a[..., k], k = 0..n/2, of each row by one rfft; fresh and writable.

    a[..., n/2] multiplies cos((n/2) theta) directly (no factor 2).
    """
    n = values.shape[-1]
    spec = np.fft.rfft(values)
    a = 2.0 * spec.real / n
    a[..., 0] = spec[..., 0].real / n
    a[..., -1] = spec[..., -1].real / n
    return a


def poisson_radial(f: BoundaryFunction, radii) -> np.ndarray:
    """Harmonic extension along the inward ray to the contact point, vector over radii.

    On the ray theta = 0 every cos(k theta) is 1 and every sin(k theta)
    is 0, so the extension is sum_k r^k a_k.
    """
    _require_real(f, "poisson_radial")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all((radii >= 0.0) & (radii < 1.0)):
        raise ValueError("all radii must lie in [0, 1)")
    a, rows = f.coeffs, f.grid._ray_rows
    keys = radii.ravel().view(np.uint64).tolist()  # -0.0 keeps a row of its own
    new = list(dict.fromkeys(key for key in keys if key not in rows))  # each made once per grid
    rows.update(zip(new, np.power.outer(np.array(new, np.uint64).view(float), f.grid.ramp)))
    return a[0] + np.stack([rows[key] for key in keys]).reshape(*radii.shape, -1) @ a[1:]


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
    a = f.coeffs[1:]
    k = f.grid.ramp
    if method == "spectral":
        return float(np.dot(k, a))
    if method != "quadrature":
        raise ValueError(f"unknown radial_derivative method: {method!r}")

    n = f.grid.n
    # Half-spectrum of the even part on 2n points.  a_{n/2} carries no
    # factor 2, so the Nyquist bin enters at half weight automatically.
    # Built complex: irfft would convert a real array, which takes longer than the
    # transform's own copy; the bins are the same numbers.
    spec = np.empty(n // 2 + 1, complex)
    spec[0] = 0.0
    spec[1:] = n * a
    even = np.fft.irfft(spec, 2 * n)
    th = (np.arange(n // 2) + 0.5) * (2.0 * np.pi / n)  # nodes in (0, pi)
    num = even[0] - even[1:n:2]
    prod = np.empty(n // 2)  # a_k sin^2(k theta_m / 2) of one node at a time
    for m in range(min(_NEAR_NODES, n // 2)):
        np.multiply(k, 0.5 * th[m], out=prod)
        np.sin(prod, out=prod)
        np.square(prod, out=prod)
        prod *= a
        num[m] = 2.0 * np.sum(prod)
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
    n = u.grid.n
    z = np.empty(n, complex)
    z.real, z.imag = u.values, v.values
    spec = np.fft.fft(z, out=z)
    # n is a power of two, so one division after the max is exact
    return float(np.max(np.abs(spec[n // 2 + 1 :]))) / n


def holder_seminorm(f: BoundaryFunction) -> float:
    """Diagnostic 1/2-Hoelder seminorm of the spectral derivative f'.

    Max over pairs among up to 512 evenly spread nodes of
    |f'(th_i) - f'(th_j)| / d(th_i, th_j)^(1/2) with d the arc distance.
    A smoothness indicator only; nothing in the solvers asserts a bound
    on it.
    """
    _require_real(f, "holder_seminorm")
    n = f.grid.n
    spec = np.fft.rfft(f.values)
    freq = 1j * np.arange(len(spec))
    freq[-1] = 0.0  # derivative of the Nyquist cosine samples to zero
    dvals = np.fft.irfft(spec * freq, n)
    idx = np.unique(np.linspace(0, n - 1, min(512, n)).astype(int))
    th = f.grid.theta[idx]
    dv = dvals[idx]
    dth = np.abs(th[:, None] - th[None, :])
    dth = np.minimum(dth, 2.0 * np.pi - dth)
    num = np.abs(dv[:, None] - dv[None, :])
    mask = dth > 0.0  # a grid has at least 8 nodes, so some pair is apart
    return float(np.max(num[mask] / dth[mask] ** 0.5))


def spectral_identity_errors(n: int) -> list:
    """(name, max error) for each identity the transforms must satisfy on n nodes.

    Conjugation maps cos k theta to sin k theta and sin k theta to
    -cos k theta for k <= n/4 and annihilates constants; T(T f) =
    mean(f) - f on a band-limited random sample; T_1 f vanishes at
    tau = 1.  Every error is at rounding level on a working toolkit.
    """
    grid = CircleGrid(n=n)
    j = np.arange(n)
    rng = np.random.default_rng(0)
    checks = []

    # k theta_j reduced exactly mod 2 pi (the error of k * theta grows with k) is
    # theta[(k j) mod n], so each mode and its image are read from one table,
    # a block of modes at a time
    cos, sin = np.cos(grid.theta), np.sin(grid.theta)
    pairs = (("cos(k t) to sin(k t)", cos, sin), ("sin(k t) to -cos(k t)", sin, -cos))
    worst = [0.0 for _ in pairs]
    rows = max(1, _SELFTEST_BLOCK // n)
    for k in range(1, n // 4 + 1, rows):
        ks = np.arange(k, min(k + rows, n // 4 + 1))
        idx = np.multiply.outer(ks, j) & (n - 1)  # (k j) mod n, as n is a power of two
        for i, (_, mode, image) in enumerate(pairs):
            err = conjugate_rows(mode[idx])
            err -= image[idx]
            worst[i] = max(worst[i], float(np.max(np.abs(err, out=err))))
    for (name, _, _), w in zip(pairs, worst):
        checks.append((f"conjugate maps {name}, k <= n/4", w))

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

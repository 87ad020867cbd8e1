"""Machine-speed probe: fixed work, owned by the benchmark, timed between calls.

A shared machine's speed drifts by up to 2x over minutes, and process CPU
time drifts with it, so raw seconds from two sets of runs an hour apart
disagree by more than a regression bound.  The worker therefore times a
small fixed kernel after every CLI call (outside the timed region), and
run.py scales each call's times by (the workload's reference_s / the
kernel's median time right after the call): they read as seconds at the
reference speed.

Each workload's kernel is made of the kinds of work that dominate its
calls (see workloads.py), because the drift does not slow every kind of
work alike.  The kernel uses only numpy and Python, never disclab, so no
change to the package moves it.  It runs in the worker's process, so it
writes into buffers of its own and leaves the heap alone: a numpy
temporary above malloc's mmap threshold would be timed faster or slower
depending on what the package allocated before.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

_SIGNAL = np.sin(np.arange(1 << 13) * 0.7) ** 2
_FLOATS = [float(x) for x in _SIGNAL[:2000]]
_NODES = _SIGNAL[2000:2128] * 6.0
_MODES = np.arange(1, 1025) * 0.5
_QUAD_NODES = np.linspace(1e-3, 1.0, 512)
_QUAD_MODES = np.arange(1, 8193) * 0.5
_QUAD_WEIGHTS = 1.0 / _QUAD_MODES**2
# Work buffers, made on first use: the worker reads its peak memory after
# the first CLI call, before any probe, so they stay out of that figure.
_buffers: dict = {}


def _buffer(name: str, shape: tuple) -> np.ndarray:
    if name not in _buffers:
        _buffers[name] = np.empty(shape)
    return _buffers[name]


def _scalar() -> float:
    """Scalar complex arithmetic, as in the F_alpha Simpson sums."""
    z, acc = 0.3 + 0.1j, 0.0
    for i in range(2000):
        z = cmath.exp(1j * (i * 1e-3)) * 0.5 + z * 0.5
        acc += abs(z) * math.log(1.0 + i)
    return acc


def _trig() -> float:
    """Sines of a small outer product and a dot, as in the s >= 1 quadrature."""
    sk = np.multiply.outer(_NODES, _MODES, out=_buffer("trig", (len(_NODES), len(_MODES))))
    np.sin(sk, out=sk)
    return float(np.dot(sk.sum(0), _MODES))


def _quad() -> float:
    """One 2^22-entry chunk of the graded quadrature's integrand: sines of
    an outer product, squared, times a coefficient vector.  The 32 MB
    buffer leaves the caches, as the quadrature's arrays do.
    """
    shape = (len(_QUAD_NODES), len(_QUAD_MODES))
    sk = np.multiply.outer(_QUAD_NODES, _QUAD_MODES, out=_buffer("quad", shape))
    np.sin(sk, out=sk)
    np.multiply(sk, sk, out=sk)
    return float(np.sum(sk @ _QUAD_WEIGHTS))


def _fft() -> float:
    """rfft/irfft round trips at n = 2^13, as in the Bishop solves; at this
    size numpy's outputs stay below malloc's default mmap threshold.
    """
    y = _SIGNAL
    for _ in range(8):
        y = np.fft.irfft(np.fft.rfft(y), len(_SIGNAL))
    return float(y[0])


def _emit() -> int:
    """Per-float repr and join, as in the CLI's CSV output."""
    return len(",".join(repr(x * 1.1) for x in _FLOATS))


PARTS = {"scalar": _scalar, "trig": _trig, "quad": _quad, "fft": _fft, "emit": _emit}


def kernel_s(parts: tuple) -> float:
    """Wall seconds of one pass over the named parts."""
    t = time.perf_counter()
    for name in parts:
        PARTS[name]()
    return time.perf_counter() - t


def probe(parts: tuple, budget_s: float) -> list:
    """Kernel times, repeated for budget_s wall seconds (at least 3)."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < end:
        times.append(kernel_s(parts))
    return times

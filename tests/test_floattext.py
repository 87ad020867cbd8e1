"""The CSV float encoder against Python's own repr, byte for byte.

`repr` is the reference throughout: every row the encoder writes must
hold exactly the bytes of repr(float(x)), NUL-padded to the row width.
"""

import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab._floattext import WIDTH, encode
from conftest import package_env


def reference(x) -> np.ndarray:
    text = [repr(v) for v in np.asarray(x, dtype=np.float64).tolist()]
    return np.array(text, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def assert_repr_bytes(x):
    x = np.asarray(x, dtype=np.float64)
    got, want = encode(x), reference(x)
    assert got.shape == want.shape
    bad = np.flatnonzero((got != want).any(axis=1))
    assert not len(bad), [(repr(float(x[i])), got[i].tobytes()) for i in bad[:5]]


def _edges() -> list:
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += [1e16, 9999999999999998.0, 1e-4, 1e-5, 2.0**53 + 2, 1e22, 1e23]
    values += [np.nan, np.inf, -np.inf, 0.1, 1 / 3, -1.5, 123456.789]
    powers = [10.0**k for k in range(-323, 309)] + [2.0**k for k in range(-1074, 1024)]
    for p in powers:
        values += [p, np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    return values


def test_edge_values():
    edges = np.array(_edges())
    assert_repr_bytes(edges)
    assert_repr_bytes(-edges)


def test_seeded_bit_pattern_sweep():
    # half over all 2**64 patterns, half over the binary exponents -64..64
    # that CLI columns take (repr of a huge exponent is slow to compute)
    rng = np.random.default_rng(20181)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    near_one = rng.integers(1023 - 64, 1023 + 64, 100_000, dtype=np.uint64) << np.uint64(52)
    bits[100_000:] = (bits[100_000:] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | near_one
    assert_repr_bytes(bits.view(np.float64))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(patterns):
    assert_repr_bytes(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(values):
    assert_repr_bytes(values)


def test_empty_and_strided_input():
    assert encode(np.zeros(0)).shape == (0, WIDTH)
    grid = np.linspace(-2.0, 3.0, 4099 * 2).reshape(-1, 2)
    assert_repr_bytes(grid[:, 1])


def test_importing_the_cli_builds_no_table():
    code = (
        "import disclab.cli, disclab._floattext as f; "
        "print(f._tables.cache_info().currsize); f.encode([0.5]); "
        "print(f._tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]

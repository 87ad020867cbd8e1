"""The CSV float encoder against Python's own repr, byte for byte.

`repr` is the reference throughout: every CSV field the encoder writes
must hold exactly the text of repr(float(x)), every row its fields
joined by commas and ended by a newline.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import _floattext
from disclab._floattext import _bounds, _tables, csv_rows
from disclab.cli import _CSV_CHUNK_ROWS
from conftest import package_env


def assert_repr_bytes(x):
    # one column a chunk at a time, as the CLI writes it: a single pass
    # over 200,000 values would hold about 100 MB of temporaries
    x = np.asarray(x, dtype=np.float64)
    chunks = [csv_rows([x[lo : lo + _CSV_CHUNK_ROWS]]) for lo in range(0, len(x), _CSV_CHUNK_ROWS)]
    got = "".join(chunks).split("\n")
    assert got.pop() == ""
    want = [repr(v) for v in x.tolist()]
    assert len(got) == len(want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, [(want[i], got[i]) for i in bad[:5]]


def row_reference(columns) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))


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


def ryu_q(e2):
    """Ryu's q for e2 < 0, in Python integers."""
    return len(str(5**-e2)) - 1 - (-e2 > 1)


def ryu_multiplier(ieee_e):
    """Ryu's multiplier M and shift j for a biased exponent below 1077, in Python integers."""
    e2 = max(ieee_e, 1) - 1077
    q = ryu_q(e2)
    p = 5 ** (-e2 - q)
    return (p << 125) >> p.bit_length(), q - p.bit_length() + 125


def test_shared_product_bounds_match_python_integers():
    # vr, vp and vm come from one product m2 * M: check each against
    # ((4 m2 + d) * M) >> j for d = 0, 2 and -1 - mm_shift, at every biased
    # exponent of e2 < 0 (E >= 1077 goes to repr), with the extreme and a
    # seeded draw of mantissas
    mul_table, exp_table, _ = _tables()
    rng = np.random.default_rng(2020)
    ieee_e = np.repeat(np.arange(1077), 10)
    m2 = np.tile([1 << 52, (1 << 53) - 1, 1, 0, 0] * 2, 1077).astype(np.uint64)
    m2[m2 == 0] = rng.integers(1, 1 << 53, int((m2 == 0).sum()), dtype=np.uint64)
    mm_shift = np.tile(np.repeat([False, True], 5), 1077)
    col, shift = exp_table[:2].take(ieee_e, axis=1)
    got = _bounds(m2 << 2, mul_table.take(col, axis=1), shift.astype(np.uint64), mm_shift)
    words = mul_table[4:6].astype(object)
    for e in range(1077):
        mult, j = ryu_multiplier(e)
        assert int(words[0, col[10 * e]]) | int(words[1, col[10 * e]]) << 64 == mult, e
        assert int(shift[10 * e]) + 64 == j, e
        for r in range(10 * e, 10 * e + 10):
            mv = 4 * int(m2[r])
            want = [mv * mult >> j, (mv + 2) * mult >> j, (mv - 1 - int(mm_shift[r])) * mult >> j]
            assert [int(v[r]) for v in got] == want, (e, int(m2[r]), bool(mm_shift[r]))


@pytest.fixture
def repr_calls(monkeypatch):
    """The values the encoder hands to its per-value repr path, in order."""
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    monkeypatch.setattr(_floattext, "repr", counting_repr, raising=False)
    return calls


def test_few_values_fall_back_to_repr(repr_calls):
    # the per-value path is for Ryu's exact-trailing-zero rows and the
    # specials; a slide of ordinary values into it must fail here
    rng = np.random.default_rng(1618)
    x = rng.uniform(-1, 1, 100_000) * 10 ** rng.uniform(-8, 2, 100_000)
    assert_repr_bytes(x)
    assert len(repr_calls) < 100


def test_values_from_two_to_the_54_go_to_repr(repr_calls):
    # the encoder runs Ryu's e2 < 0 half alone: every |x| >= 2**54 is
    # written by repr, and the bytes around that boundary are repr's
    edge = 2.0**54
    values = [np.nextafter(edge, 0), edge, edge + 4, 1e16, 1.8e16, 1e22, 1e23]
    values += [5.0**q * 2.0**k for q in range(31) for k in range(-8, 80, 3)]
    rng = np.random.default_rng(54)
    values += list(edge * 2.0 ** rng.uniform(0, 970, 2000))
    x = np.array(values)
    x = np.concatenate([x, -x])
    assert_repr_bytes(x)
    big = np.abs(x) >= edge
    assert big.sum() > 2000
    assert sorted(v for v in repr_calls if abs(v) >= edge) == sorted(x[big].tolist())


def test_every_value_from_two_to_the_49_goes_to_repr(repr_calls):
    # from 2**49 up Ryu's q is at most 2, so 2**q divides every mv = 4 m2
    # and the exact-trailing-zero branch takes each value of each binade
    rng = np.random.default_rng(49)
    mantissas = rng.integers(0, 1 << 52, (5, 2000), dtype=np.uint64)
    mantissas[:, :2] = [0, (1 << 52) - 1]
    exponents = np.arange(1023 + 49, 1023 + 54, dtype=np.uint64)[:, None] << np.uint64(52)
    x = (exponents | mantissas).view(np.float64).ravel()
    x = np.concatenate([x, -x])
    assert np.all((2.0**49 <= np.abs(x)) & (np.abs(x) < 2.0**54))
    assert_repr_bytes(x)
    assert repr_calls == x.tolist()


def goes_to_repr(x) -> bool:
    """Whether Ryu's exact-trailing-zero rule sends x to repr: 2**q divides mv = 4 m2.

    Every value from 2**54 up, nan and inf read e2 = -1's row, whose q is 0;
    a zero has mv = 0, and a subnormal's q is far above mv's 55 bits.
    """
    bits = int(np.float64(x).view(np.uint64))
    ieee_e, ieee_m = bits >> 52 & 0x7FF, bits & ((1 << 52) - 1)
    mv = 4 * (ieee_m | (ieee_e > 0) << 52)
    return mv % 2 ** ryu_q(min(max(ieee_e, 1) - 1077, -1)) == 0


def test_repr_takes_exactly_the_values_of_the_trailing_zero_rule(repr_calls):
    # mantissas with 0..52 trailing zero bits in every binade 2**-40 .. 2**55
    rng = np.random.default_rng(5252)
    values = [0.5, 0.75, 1.0, 3.0, 1024.0]
    for k in range(-40, 56):
        for zeros in range(53):
            for _ in range(2):
                frac = (int(rng.integers(0, 1 << (52 - zeros))) | 1) << zeros if zeros < 52 else 0
                bits = (1023 + k) << 52 | frac
                values.append(float(np.uint64(bits).view(np.float64)))
    x = np.array(values)
    x = np.concatenate([x, -x])
    assert_repr_bytes(x)
    picked = [v for v in x.tolist() if goes_to_repr(v)]
    assert repr_calls == picked
    # the share picked falls as |x| grows: every value from 2**49 up, none under 2**-26
    assert all(goes_to_repr(v) for v in values[:5])
    share = {
        k: np.mean([goes_to_repr(v) for v in values if 2.0**k <= v < 2.0 ** (k + 1)])
        for k in (-27, -26, 46, 47, 48, 49, 55)
    }
    assert share[-27] == 0.0 < share[-26] and share[49] == share[55] == 1.0
    assert share[47] == share[48] > share[46] > 0.0


def layout_key(text) -> tuple:
    """(sign, significant digits, layout) of a repr: layouts 0..19 are fixed
    notation with decpt -3..16, 20 and 21 exponents of two and three digits."""
    body, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = body.partition(".")
    nd = len((whole + frac).strip("0"))
    if exp:
        return text[0] == "-", nd, 20 + (abs(int(exp)) >= 100)
    decpt = len(whole) if whole != "0" else len(frac.lstrip("0")) - len(frac)
    return text[0] == "-", nd, decpt + 3


def test_every_layout_key_against_repr(repr_calls):
    # one value per (sign, 1..17 digits, layout) from random digit strings; a
    # value the table lays out is taken where there is one
    rng = np.random.default_rng(748)
    values = {}
    for nd in range(1, 18):
        for layout in range(_floattext._LAYOUTS):
            decpt = layout - 3 if layout < 20 else (-9 - nd, -150 - nd)[layout - 20]
            found = []
            for _ in range(200):
                d = "".join(map(str, rng.integers(1, 10, nd)))
                x = float(f"0.{d}e{decpt}")
                if layout_key(repr(x))[1:] == (nd, layout):
                    found.append(x)
                    if not goes_to_repr(x):
                        break
            values[False, nd, layout] = found[-1]
            values[True, nd, layout] = -found[-1]
    assert len(values) == 2 * 17 * _floattext._LAYOUTS == len(_tables()[2])
    assert all(layout_key(repr(x)) == key for key, x in values.items())
    x = np.array(list(values.values()))
    assert_repr_bytes(x)
    # the table lays out every key but the integer ones and decpt 16 (|x| >= 1e15)
    by_repr = {layout_key(repr(v)) for v in repr_calls}
    dead = {(sign, nd, lay) for sign, nd, lay in values if lay < 20 and nd <= lay - 3 or lay == 19}
    assert by_repr == dead and len(dead) == 274
    assert all(values[key] == int(values[key]) or abs(values[key]) >= 1e15 for key in dead)


def test_empty_and_strided_input():
    assert csv_rows([np.zeros(0)]) == ""
    grid = np.linspace(-2.0, 3.0, 4099 * 2).reshape(-1, 2)
    assert_repr_bytes(grid[:, 1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(0, 2**64 - 1), min_size=width, max_size=width),
            min_size=1,
            max_size=40,
        )
    )
)
def test_any_block_of_columns(rows):
    columns = list(np.array(rows, dtype=np.uint64).view(np.float64).T)
    assert csv_rows(columns) == row_reference(columns)


def test_blocks_of_every_float_kind():
    # the CLI admits any float dtype: each converts exactly to float64
    rng = np.random.default_rng(32)
    x = rng.standard_normal(50) * 10.0 ** rng.integers(-30, 30, 50)
    half = rng.standard_normal(50) * 10.0 ** rng.integers(-6, 4, 50)
    blocks = [
        [x.astype(np.float32), (x[::-1] * 3).astype(np.float32)],
        [half.astype(np.float16), x],
        [x.astype(">f8"), x[::-1].astype(">f8"), x],
    ]
    for columns in blocks:
        assert csv_rows(columns) == row_reference(columns)


def test_specials_keep_their_separators_in_any_column():
    # nan, +-inf, +-0.0, 0.5 and 1.0 are formatted by repr, not by the gather
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, 1.0])
    plain = np.linspace(-3.7, 11.3, len(specials))
    for j in range(3):
        columns = [plain * (k + 1) for k in range(3)]
        columns[j] = specials
        assert csv_rows(columns) == row_reference(columns)


def test_importing_the_cli_builds_no_table():
    code = (
        "import disclab.cli, disclab._floattext as f; "
        "print(f._tables.cache_info().currsize); f.csv_rows([[0.5]]); "
        "print(f._tables.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=package_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]

"""The squeezing integral: log-domain quadrature, dichotomy scan."""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclab import (
    FAlphaSpec,
    QuadratureNonConvergent,
    dichotomy_scan,
    f_alpha,
)
from disclab import asymptotics
from disclab.asymptotics import _MAX_OPEN, _adaptive_simpson


# log values from independent mpmath runs at 50 digits (split at t0 +
# {0, 1/64, 1/16, 1/4, 1, 3, 8, 20, 50}; tanh-sinh and Gauss-Legendre
# agree to 1e-30 on every cell); each value is exp of its log, and 0.0
# where that is below the double floor
PINNED = {
    (1.0, 0.2): (6.959831947245132e-08, -16.4805254154083),
    (1.0, 0.1): (1.8348154333130285e-13, -29.3266623137755),
    (1.0, 0.05): (8.278842133236154e-25, -55.4509242052135),
    (2.0, 0.2): (7.253280188049207e-186, -426.299373490615),
    (2.0, 0.1): (0.0, -1481.26799080096),
    (2.0, 0.05): (0.0, -5566.69869391328),
    (0.75, 0.2): (0.03643654457739185, -3.3121830360758),
    (0.75, 0.1): (0.05861895598474521, -2.83669715373951),
    (0.75, 0.05): (2.9749755513410414, 1.0902358209272),
}


def spec(s, alpha, **kw):
    return FAlphaSpec(alpha=alpha, s=s, delta=kw.pop("delta", 1.0), **kw)


# ---- single-cell quadrature


@pytest.mark.parametrize("s,alpha", sorted(PINNED))
def test_pinned_integral_values(s, alpha):
    res = f_alpha(spec(s, alpha))
    value, log_value = PINNED[(s, alpha)]
    assert res.log_value == pytest.approx(log_value, abs=1e-5)
    if value > 0.0:
        assert res.value == pytest.approx(value, rel=1e-6)
    else:
        assert res.value == 0.0  # below the double floor; the log carries it
    assert not res.truncated
    assert res.rel_err < 1e-3


def test_error_estimate_tracks_value():
    res = f_alpha(spec(1.0, 0.1))
    assert 0.0 < res.abs_err < 1e-3 * res.value


def test_cap_doubling_is_invisible_when_not_truncated():
    a = f_alpha(spec(1.0, 0.1))
    b = f_alpha(spec(1.0, 0.1, t_max_cap=1200.0))
    assert abs(a.value - b.value) <= 1e-8 * a.value


def test_log_value_strictly_decreasing_in_s():
    # on the squeezed range 1/|Im phi| >= 1, raising s only shrinks the
    # integrand, and far below the double floor only log_value can order
    logs = [f_alpha(spec(s, 0.1)).log_value for s in (0.8, 1.0, 1.5, 2.0)]
    assert all(b < a for a, b in zip(logs, logs[1:]))


def test_deep_cells_report_truncation_honestly():
    shallow = f_alpha(spec(0.75, 0.025))
    assert not shallow.truncated
    assert shallow.log_value == pytest.approx(21.599158, abs=1e-4)
    deep = f_alpha(spec(0.75, 0.0125))
    assert deep.truncated  # the crest rides past the default cap
    assert deep.log_value == pytest.approx(101.572296, abs=1e-4)


def test_value_beyond_the_largest_double_is_infinite():
    # log F = 2001.3 here; exp() of it overflows, log_value still orders it
    res = f_alpha(spec(0.6, 0.05, t_max_cap=1e4))
    assert res.value == math.inf
    assert res.abs_err == math.inf
    assert math.isfinite(res.log_value)
    assert res.log_value > math.log(sys.float_info.max)
    assert 0.0 < res.rel_err < 1e-3


def test_simpson_depth_guard_names_the_panel():
    with pytest.raises(
        QuadratureNonConvergent,
        match=re.escape("Simpson bisection exceeded depth 40 on [100000, 100000]"),
    ):
        f_alpha(spec(0.55, 0.025, t_max_cap=1e5))


# ---- level-wise Simpson


def counted(f):
    """Vector integrand that records the size of each call."""
    sizes = []

    def g(t):
        sizes.append(len(t))
        return np.array([f(x) for x in t.tolist()])

    return g, sizes


def simpson(g, a, b, tol):
    """One cell of the batched Simpson core; raises that cell's failure."""
    (out,) = _adaptive_simpson(lambda cells, t: g(t), [a], [b], [tol])
    if isinstance(out, QuadratureNonConvergent):
        raise out
    return out


def depth_first_simpson(f, a, b, tol, max_depth=40):
    """The scalar, right-half-first stack bisection, as a reference.

    Returns (value, err, number of nodes, deepest level refined).
    """

    def simp(x0, f0, x1, f1, x2, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    span = b - a
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    stack = [(a, fa, m, fm, b, fb, simp(a, fa, m, fm, b, fb), 0)]
    total = err = 0.0
    nodes, deepest = 3, 0
    while stack:
        x0, f0, xm, fm_, x2, f2, whole, depth = stack.pop()
        if depth > max_depth:
            raise QuadratureNonConvergent(
                f"Simpson bisection exceeded depth {max_depth} on [{x0:.6g}, {x2:.6g}]"
            )
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = f(lm), f(rm)
        nodes, deepest = nodes + 2, max(deepest, depth)
        left = simp(x0, f0, lm, flm, xm, fm_)
        right = simp(xm, fm_, rm, frm, x2, f2)
        d = left + right - whole
        if abs(d) <= 15.0 * tol * max((x2 - x0) / span, 1e-12):
            total += left + right + d / 15.0
            err += abs(d) / 15.0
        else:
            stack.append((x0, f0, lm, flm, xm, fm_, left, depth + 1))
            stack.append((xm, fm_, rm, frm, x2, f2, right, depth + 1))
    return total, err, nodes, deepest


def test_simpson_integrates_a_cubic_exactly():
    g, sizes = counted(lambda t: 2.0 * t**3 - t**2 + 3.0)
    value, err = simpson(g, -1.0, 2.0, 1e-12)
    assert value == pytest.approx(13.5, rel=1e-15)
    assert err < 1e-14
    assert sizes == [3, 2]  # the root panel is accepted on its first level


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (lambda t: math.exp(-50.0 * (t - 0.3) ** 2), 0.0, 1.0, 1e-10),
        (lambda t: abs(t - 0.7) ** 1.5, 0.0, 2.0, 1e-9),
        (lambda t: math.sin(20.0 * t) * math.exp(t), -1.0, 2.5, 1e-8),
    ],
)
def test_simpson_levels_match_the_depth_first_bisection(f, a, b, tol):
    g, sizes = counted(f)
    value, err = simpson(g, a, b, tol)
    ref_value, ref_err, ref_nodes, ref_deepest = depth_first_simpson(f, a, b, tol)
    # same panels, summed in the same order: equal to the last bit
    assert (value, err) == (ref_value, ref_err)
    assert sum(sizes) == ref_nodes
    # one call for the three starting nodes, then one per level
    assert sizes[0] == 3
    assert len(sizes) == 1 + ref_deepest + 1
    assert all(size % 2 == 0 for size in sizes[1:])


def test_simpson_depth_guard_matches_the_depth_first_bisection(monkeypatch):
    # both kinks go too deep; the depth-first bisection reaches the right one first
    def f(t):
        return abs(t - 0.3) ** 0.5 + abs(t - 0.8) ** 0.5

    with pytest.raises(QuadratureNonConvergent) as ref:
        depth_first_simpson(f, 0.0, 1.0, 1e-6, max_depth=10)
    g, _ = counted(f)
    monkeypatch.setattr(asymptotics, "_MAX_DEPTH", 10)
    with pytest.raises(QuadratureNonConvergent) as new:
        simpson(g, 0.0, 1.0, 1e-6)
    assert str(new.value) == str(ref.value)
    assert str(new.value).endswith("on [0.800293, 0.800781]")


def test_simpson_wide_failure_stays_bounded():
    # NaN rejects every panel over three quarters of the interval; the
    # depth-first bisection runs down the right edge and fails at once,
    # and the batched one must neither double its levels to depth 40
    # nor name another panel
    def f(t):
        return math.nan if t > 0.25 else t

    with pytest.raises(QuadratureNonConvergent) as ref:
        depth_first_simpson(f, 0.0, 1.0, 1e-8)
    g, sizes = counted(f)
    with pytest.raises(QuadratureNonConvergent) as new:
        simpson(g, 0.0, 1.0, 1e-8)
    assert str(new.value) == str(ref.value)
    assert max(sizes) <= 2 * _MAX_OPEN
    assert sum(sizes) < 50 * 2 * _MAX_OPEN


def test_simpson_levels_split_like_the_depth_first_bisection(monkeypatch):
    # with room for one open panel per call, every level is split
    monkeypatch.setattr(asymptotics, "_MAX_OPEN", 1)

    def f(t):
        return abs(t - 0.7) ** 1.5 + math.exp(-50.0 * (t - 0.3) ** 2)

    g, sizes = counted(f)
    value, err = simpson(g, 0.0, 2.0, 1e-9)
    assert max(sizes[1:]) == 2
    assert (value, err) == depth_first_simpson(f, 0.0, 2.0, 1e-9)[:2]


def test_tiny_rel_tol_fails_at_the_depth_guard():
    # roundoff rejects every panel near the crest; the depth-first
    # bisection names this panel
    with pytest.raises(
        QuadratureNonConvergent,
        match=re.escape("Simpson bisection exceeded depth 40 on [9.74306, 9.74306]"),
    ):
        f_alpha(spec(1.0, 0.2, rel_tol=1e-20))


def test_empty_interval_is_refused():
    # delta/alpha = 120/0.2 equals the default cap, leaving nothing to integrate
    with pytest.raises(ValueError, match="not above the lower limit"):
        spec(1.0, 0.2, delta=120.0)
    with pytest.raises(ValueError, match="a < b"):
        simpson(counted(math.exp)[0], 1.0, 1.0, 1e-8)


def test_spec_validation_messages():
    with pytest.raises(ValueError):
        spec(1.0, 0.0)
    with pytest.raises(ValueError):
        spec(1.0, 0.1, delta=-1.0)
    with pytest.raises(ValueError):
        spec(1.0, 0.1, rel_tol=2.0)
    with pytest.raises(ValueError):
        spec(1.0, 0.001)  # delta/alpha exceeds the default cap
    # the crest scan steps t up to the cap, so an infinite one never ends
    with pytest.raises(ValueError, match=re.escape("t_max_cap must be finite, got inf")):
        spec(1.0, 0.2, t_max_cap=math.inf)
    with pytest.raises(ValueError, match="not above the lower limit"):
        spec(1.0, 0.2, t_max_cap=math.nan)
    with pytest.raises(ValueError) as exc:
        spec(0.5, 0.1)
    assert "not flat below" in str(exc.value)


@pytest.mark.parametrize(
    "s_values, alphas, message",
    [
        ([1.0], [0.2, 0.1, math.nan], "strictly decreasing, got [0.2, 0.1, nan]"),
        ([1.0], [0.2, 0.2, 0.1], "strictly decreasing, got [0.2, 0.2, 0.1]"),
        ([1.0, math.nan], [0.2, 0.1, 0.05], "s must be finite and exceed 1/2"),
        ([1.0, 0.5], [0.2, 0.1, 0.05], "s must be finite and exceed 1/2"),
    ],
    ids=["alpha-nan", "alpha-repeated", "s-nan", "s-half"],
)
def test_scan_refuses_a_bad_grid_before_integrating(monkeypatch, s_values, alphas, message):
    monkeypatch.setattr(asymptotics, "_f_alpha_cells", lambda specs: pytest.fail("integrated"))
    with pytest.raises(ValueError, match=re.escape(message)):
        dichotomy_scan(s_values, alphas, 1.0)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_s_or_delta_is_refused(bad):
    # s = inf passed the s > 1/2 check and integrated to NaN rows
    with pytest.raises(ValueError, match="s must be finite"):
        spec(bad, 0.1)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        spec(1.0, 0.1, delta=bad)


@settings(max_examples=20, deadline=None)
@given(s=st.floats(-2.0, 0.5), alpha=st.floats(0.05, 0.2))
def test_s_at_or_below_half_always_rejected(s, alpha):
    with pytest.raises(ValueError):
        spec(s, alpha)


# ---- grid scan and verdicts


def test_scan_verdicts_on_the_reference_grid():
    scan = dichotomy_scan([1.0, 2.0, 0.75], [0.2, 0.1, 0.05], delta=1.0)
    verdicts = dict(scan.verdicts)
    assert verdicts[1.0] == "vanishing"
    assert verdicts[2.0] == "vanishing"
    # at these alphas the s=0.75 row is still on its way up from below 1e-3
    assert verdicts[0.75] == "inconclusive"
    assert len(scan.cells) == 9
    assert all(cell[2] is not None for cell in scan.cells)


def test_scan_sees_divergence_deeper_in():
    scan = dichotomy_scan([0.75], [0.1, 0.05, 0.025, 0.0125], delta=1.0)
    assert dict(scan.verdicts)[0.75] == "diverging"


def test_scan_validation():
    with pytest.raises(ValueError):
        dichotomy_scan([1.0], [0.2, 0.1], delta=1.0)
    with pytest.raises(ValueError):
        dichotomy_scan([1.0], [0.1, 0.2, 0.05], delta=1.0)
    with pytest.raises(ValueError):
        dichotomy_scan([], [0.2, 0.1, 0.05], delta=1.0)
    with pytest.raises(ValueError):
        dichotomy_scan([0.5], [0.2, 0.1, 0.05], delta=1.0)


def same_bits(got, want):
    """QuadratureResults equal field by field to the last bit."""
    # repr round-trips every float and tells -0.0 and nan apart
    return all(
        repr(getattr(got, field.name)) == repr(getattr(want, field.name))
        for field in dataclasses.fields(want)
    )


def test_scan_cells_equal_their_single_cell_integrals():
    s_values = (0.55, 0.65, 0.85, 0.9, 0.95, 3.0)
    alphas = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002)
    scan = dichotomy_scan(s_values, alphas, delta=1.0)
    assert [cell[:2] for cell in scan.cells] == [(s, a) for s in s_values for a in alphas]
    failed = []
    for s, alpha, res in scan.cells:
        try:
            alone = f_alpha(spec(s, alpha))
        except QuadratureNonConvergent:
            assert res is None  # a cell that fails alone fails in the scan
            failed.append((s, alpha))
            continue
        assert res is not None
        assert same_bits(res, alone), (s, alpha)
    assert failed == [(3.0, 0.002)]
    assert dict(scan.verdicts)[3.0] == "inconclusive"


@pytest.mark.parametrize("max_open", [_MAX_OPEN, 1])
def test_a_failing_cell_fails_alone_in_a_batch(monkeypatch, max_open):
    # with one open panel per call the failing cell, last in the batch,
    # reaches the depth guard while the other cells still have open panels
    specs = [spec(1.0, 0.2), spec(0.75, 0.0125), spec(2.0, 0.1), spec(0.55, 0.025, t_max_cap=1e5)]
    alone = [f_alpha(sp) for sp in specs[:3]]
    monkeypatch.setattr(asymptotics, "_MAX_OPEN", max_open)
    results = asymptotics._f_alpha_cells(specs)
    assert isinstance(results[3], QuadratureNonConvergent)
    assert str(results[3]) == "Simpson bisection exceeded depth 40 on [100000, 100000]"
    with pytest.raises(QuadratureNonConvergent, match=re.escape(str(results[3]))):
        f_alpha(specs[3])
    for got, want in zip(results[:3], alone):
        assert same_bits(got, want)


def test_a_scan_evaluates_each_simpson_level_in_one_call(monkeypatch):
    sizes = []
    inv_abs_im_phi_logtheta = asymptotics.inv_abs_im_phi_logtheta

    def counted(alpha, t):
        sizes.append(np.size(t))
        return inv_abs_im_phi_logtheta(alpha, t)

    monkeypatch.setattr(asymptotics, "inv_abs_im_phi_logtheta", counted)
    scan = dichotomy_scan([0.6, 0.75, 1.0, 1.5, 2.0], [0.2, 0.1, 0.05, 0.025, 0.0125], delta=1.0)
    assert len(scan.cells) == 25
    # one crest scan per alpha, shared by its five s values (t0 = 5 .. 80
    # stepped by 0.25 up to the cap 600), which also holds every
    # truncation check; then the 3 starting nodes of each of the 25
    # cells, then at most one call per Simpson level up to the depth
    # guard, where one call per cell per level would take some 300
    assert sizes[:6] == [2381, 2361, 2321, 2241, 2081, 75]
    assert len(sizes) <= 5 + 1 + 41
    assert max(sizes[6:]) <= 2 * _MAX_OPEN
    assert 1 not in sizes


# ---- the crest scan


def reference_crest_scan(sp):
    """(t0, t_end, tol, crest, hit_cap) of one cell by a scan of its own.

    The per-cell scan that the shared scan replaced, kept as its
    reference; None where E overflows at every scan node.
    """
    t0 = sp.delta / sp.alpha
    count = max(2, int(math.ceil((sp.t_max_cap - t0) / 0.25)) + 1)
    ts = np.linspace(t0, sp.t_max_cap, count)
    with np.errstate(over="ignore"):
        etas = ts - asymptotics.inv_abs_im_phi_logtheta(sp.alpha, ts) ** sp.s
    i_max = int(np.argmax(etas))
    crest = float(etas[i_max])
    if not math.isfinite(crest):
        return None
    dropped = etas[i_max + 1 :] < crest - 40.0
    hit_cap = not dropped.any()
    t_end = sp.t_max_cap if hit_cap else float(ts[i_max + 1 + int(np.argmax(dropped))])
    sel = (ts >= t0) & (ts <= t_end)
    rough = float(np.trapezoid(np.exp(np.maximum(etas[sel] - crest, -745.0)), ts[sel]))
    return t0, t_end, sp.rel_tol * max(rough, 1e-12), crest, hit_cap


def test_shared_crest_scans_equal_the_per_cell_scan():
    s_values, alphas = (0.6, 0.75, 1.0, 1.5, 2.0), (0.2, 0.1, 0.05, 0.025, 0.0125)
    grids = [[spec(s, a, delta=d) for s in s_values for a in alphas] for d in (0.8, 1.2)]
    # repeated and unsorted alphas, duplicate s values
    pairs = [(1.0, 0.05), (0.75, 0.2), (1.0, 0.05), (2.0, 0.0125), (0.6, 0.2), (0.75, 0.05)]
    repeated = [spec(s, a) for s, a in pairs]
    mixed = [
        spec(0.6, 0.05, t_max_cap=1200.0),
        spec(1.0, 0.05, delta=0.8),
        spec(0.75, 0.05, t_max_cap=1e4, rel_tol=1e-6),
        spec(0.6, 0.05),
        spec(0.75, 0.05, t_max_cap=1e4),
        spec(1.5, 0.05, rel_tol=1e-10),
        spec(0.6, 0.05, t_max_cap=1200.0, rel_tol=1e-6),
    ]
    # an s = 300 row, whose E overflows at every node, inside a healthy group
    overflow = [spec(1.0, 0.2), spec(300.0, 0.2), spec(0.6, 0.2), spec(300.0, 0.1)]
    capped = 0
    for batch in (*grids, repeated, mixed, overflow):
        with np.errstate(over="ignore"):
            outcomes = asymptotics._crest_scans(batch)
        for sp, got in zip(batch, outcomes):
            want = reference_crest_scan(sp)
            if want is None:
                assert str(got) == (
                    "E(t) = inv**s overflows doubles at every crest-scan node of "
                    f"[{sp.delta / sp.alpha:.6g}, {sp.t_max_cap:.6g}]"
                )
                continue
            assert repr(got[:4]) == repr(want[:4]), sp
            eta_cap = None
            if want[4]:
                inv_cap = asymptotics.inv_abs_im_phi_logtheta(sp.alpha, sp.t_max_cap)
                eta_cap = sp.t_max_cap - inv_cap**sp.s
                capped += 1
            assert repr(got[4]) == repr(eta_cap), sp
    assert capped >= 10
    results = asymptotics._f_alpha_cells(overflow)
    assert [isinstance(r, QuadratureNonConvergent) for r in results] == [False, True, False, True]
    for c in (0, 2):
        assert same_bits(results[c], f_alpha(overflow[c]))


# ---- the integrand as array code


def test_float_power_rounds_like_python_pow():
    # the Simpson integrand computes E = inv**s with np.float_power, the C
    # library's pow, on the premise that it equals Python's ** bit for bit;
    # np.power's vector loops differ in the last place on a few percent
    rng = np.random.default_rng(20260419)
    inv = 10.0 ** rng.uniform(0.0, 8.0, 4000)
    s_values = [0.6, 0.75, 1.0, 1.5, 2.0, *rng.uniform(0.5, 5.0, 5)]
    for s in s_values:
        want = np.array([v**s for v in inv.tolist()])
        assert np.float_power(inv, s).tobytes() == want.tobytes(), s
    per_node = rng.choice(s_values, inv.size)
    want = np.array([v**w for v, w in zip(inv.tolist(), per_node.tolist())])
    assert np.float_power(inv, per_node).tobytes() == want.tobytes()


def test_simpson_integrand_equals_the_per_node_formula(monkeypatch):
    # every node of a scan, against exp(t - inv**s - crest) in Python floats
    levels = []
    adaptive_simpson = asymptotics._adaptive_simpson

    def recorded(g, a, b, tol):
        def g_recorded(cells, t):
            f = g(cells, t)
            levels.append((cells, t, f))
            return f

        return adaptive_simpson(g_recorded, a, b, tol)

    monkeypatch.setattr(asymptotics, "_adaptive_simpson", recorded)
    s_values, alphas = (0.6, 0.75, 1.0, 1.5, 2.0), (0.2, 0.1, 0.05, 0.025, 0.0125)
    dichotomy_scan(s_values, alphas, delta=1.0)
    specs = [spec(s, a) for s in s_values for a in alphas]
    crests = [reference_crest_scan(sp)[3] for sp in specs]
    for cells, t, f in levels:
        alpha = np.array([specs[c].alpha for c in cells.tolist()])
        inv = asymptotics.inv_abs_im_phi_logtheta(alpha, t)
        want = []
        for c, ti, vi in zip(cells.tolist(), t.tolist(), inv.tolist()):
            e = ti - vi ** specs[c].s - crests[c]
            want.append(math.exp(e) if e > -745.0 else 0.0)
        assert f.tobytes() == np.array(want).tobytes()
    assert sum(t.size for _, t, _ in levels) > 9000


def test_an_overflowed_node_contributes_zero(monkeypatch):
    # at t = 1e100, inv = 1.27e199 is finite and inv**2 overflows
    seen = []
    adaptive_simpson = asymptotics._adaptive_simpson

    def probe(g, a, b, tol):
        seen.append(g(np.zeros(2, dtype=int), np.array([a[0], 1e100])).tolist())
        return adaptive_simpson(g, a, b, tol)

    monkeypatch.setattr(asymptotics, "_adaptive_simpson", probe)
    f_alpha(spec(2.0, 0.2))
    assert seen == [[1.0, 0.0]]  # the crest lies at t0 = 5


def test_a_cell_whose_power_overflows_everywhere_fails_alone():
    with pytest.raises(QuadratureNonConvergent, match="overflows doubles at every crest-scan node"):
        f_alpha(FAlphaSpec(alpha=0.2, s=300))
    results = asymptotics._f_alpha_cells([spec(300.0, 0.2), spec(1.0, 0.2)])
    assert str(results[0]) == "E(t) = inv**s overflows doubles at every crest-scan node of [5, 600]"
    assert same_bits(results[1], f_alpha(spec(1.0, 0.2)))

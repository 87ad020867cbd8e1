"""Quadrature for the flat boundary integral and its small-alpha dichotomy.

The object of interest is

    F_alpha = integral_0^{exp(-delta/alpha)} exp(-1/|Im phi_alpha|^s) / theta^2 dtheta,

which decides the sign of the attached disc's radial derivative.  After
the substitution t = -log theta this is

    F_alpha = integral_{delta/alpha}^{infinity} exp(t - E(t)) dt,
    E(t) = (1/|Im phi_alpha(e^{i e^{-t}})|)^s,

with E evaluated from the exact boundary formula, not from any
asymptotic simplification of it.

The integrand spans hundreds of orders of magnitude across parameter
space, so everything runs in the log domain: the quadrature integrates
exp(eta(t) - M) with eta(t) = t - E(t) and M the crest value located by
a coarse scan, and reports log_value = M + log(integral) alongside the
(possibly underflowing) value itself.  For s well above 1, log_value in
the thousands of negative units is routine; value then rounds to an
exact 0.0 while log_value still orders results correctly, which is what
the dichotomy verdicts use.  A log_value above the double ceiling
(about 709.78) gives value = inf with a finite log_value and rel_err.

Adaptive Simpson bisects one level at a time over every cell of a scan
at once: all new nodes of a level (up to 2 * _MAX_OPEN), whatever their
cells, go through one vector call of inv_abs_im_phi_logtheta with alpha
per node, whose cost at a few nodes per call is almost all call
overhead.  f_alpha is the one-cell case.  The rest of the integrand is
array code over the same nodes, with each node's own s and crest: the
power E = inv**s is np.float_power, which calls the C library's pow and
so rounds as Python's ** does (np.power can differ in the last place),
and exp stays math.exp, mapped over the level, because np.exp can
differ too.  An E that overflows doubles makes its node contribute 0;
a cell whose E overflows at every crest-scan node fails before Simpson.
Each cell's panels, and the order in which their sums are added, are
those of a depth-first bisection of that cell alone, so batching
changes no digit of any result; a cell that fails does so alone.  The
crest scan, the Simpson budget and the truncation check stay per cell.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .disc_family import inv_abs_im_phi_logtheta, require_alpha, require_decreasing
from .exceptions import QuadratureNonConvergent
from .profiles import require_positive_finite

__all__ = [
    "FAlphaSpec",
    "QuadratureResult",
    "ScanResult",
    "f_alpha",
    "dichotomy_scan",
]

# exp() of anything below this underflows double precision
_LOG_TINY = -745.0

# the coarse crest scan steps t by this much
_SCAN_STEP = 0.25

# integration stops where the log-integrand has dropped this far below
# its crest; exp(-40) is invisible at the tolerances accepted here
_CREST_DROP = 40.0

# open Simpson panels bisected in one call of the integrand; a level of
# the 25-cell fa-scan grid (s 0.6..2, alpha 0.2..0.0125, delta 0.8..1.2)
# opens at most 908 over all its cells
_MAX_OPEN = 4096

# bisection levels a Simpson panel may go down before its cell fails
_MAX_DEPTH = 40


@dataclasses.dataclass(frozen=True)
class FAlphaSpec:
    alpha: float  # squeeze parameter in (0, 1]
    s: float  # flatness exponent; the integral needs s > 1/2
    delta: float = 1.0  # cutoff exponent: integrate theta < exp(-delta/alpha)
    t_max_cap: float = 600.0  # upper truncation in the t = -log theta variable
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        require_alpha(self.alpha)
        if not (0.5 < self.s < math.inf):
            raise ValueError(
                f"s must be finite and exceed 1/2 (the composed profile is not flat below), "
                f"got {self.s}"
            )
        require_positive_finite("delta", self.delta)
        if not (self.t_max_cap > self.delta / self.alpha):
            raise ValueError(
                f"t_max_cap {self.t_max_cap} is not above the lower limit "
                f"delta/alpha = {self.delta / self.alpha:.3f}"
            )
        if not (self.t_max_cap < math.inf):  # the crest scan steps up to the cap
            raise ValueError(f"t_max_cap must be finite, got {self.t_max_cap}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")


@dataclasses.dataclass(frozen=True)
class QuadratureResult:
    value: float  # F_alpha, 0.0 when it underflows doubles
    abs_err: float  # error estimate in the same units as value
    truncated: bool  # whether t_max_cap cut off a still-significant tail
    log_value: float  # log F_alpha, finite even when value underflows
    rel_err: float  # error estimate relative to the value


def _log_integrand(spec: FAlphaSpec, t):
    """eta(t) = t - E(t); the integrand of F_alpha is exp(eta)."""
    inv = inv_abs_im_phi_logtheta(spec.alpha, t)
    return t - inv ** spec.s


def _simpson(x0, f0, x1, f1, x2, f2):
    return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)


def _adaptive_simpson(g, a, b, tol) -> list:
    """Adaptive Simpson with Richardson correction over many cells at once.

    Cell c runs over [a[c], b[c]] to the absolute tolerance tol[c].  The
    result holds (value, err) per cell, or the QuadratureNonConvergent of
    a cell that passed _MAX_DEPTH while the others went on.  g(cells, t)
    evaluates nodes t, each of its own cell: the three starting nodes of
    every cell in one call, then the new midpoints of up to _MAX_OPEN
    open panels of one level per call, whatever their cells.  Each cell's
    panels are those of a depth-first bisection that refines the right
    half first, summed in that order (descending left end), so batching
    changes no cell's result.  A level wider than _MAX_OPEN is split and
    its right part finished first, so memory stays bounded when a wide
    region keeps failing, and the depth guard names the panel that the
    depth-first bisection would have reached first.
    """
    a, b, tol = (np.asarray(v, dtype=float) for v in (a, b, tol))
    for lo, hi in zip(a.tolist(), b.tolist()):
        if not hi > lo:
            raise ValueError(f"Simpson needs a < b, got [{lo}, {hi}]")
    span = b - a
    mid = 0.5 * (a + b)
    owner = np.arange(a.size)
    f0, fm, f2 = g(np.repeat(owner, 3), np.stack((a, mid, b), axis=1).ravel()).reshape(-1, 3).T
    # a batch holds open panels of one depth, ordered by cell and then
    # ascending in t, as the rows x0, xm, x2, f0, fm, f2 and the panel's
    # Simpson estimate, with the cell of each panel beside them; the
    # stack keeps batches left to right, so its top holds the rightmost
    whole = _simpson(a, f0, mid, fm, b, f2)
    stack = [(np.array([a, mid, b, f0, fm, f2, whole]), owner, 0)]
    outcomes = [None] * a.size  # a cell's QuadratureNonConvergent once it fails
    alive = np.ones(a.size, dtype=bool)
    accepted = [(owner[:0], a[:0], a[:0], a[:0])]  # (cells, left ends, sums, errors)
    while stack:
        panels, owner, depth = stack.pop()
        keep = alive[owner]
        if not keep.all():
            panels, owner = panels[:, keep], owner[keep]
            if not owner.size:
                continue
        if depth > _MAX_DEPTH:
            # name each cell's rightmost panel: depth first would have reached it first
            last = np.flatnonzero(np.append(owner[1:] != owner[:-1], True))
            for c, x0, x2 in zip(*(v[last].tolist() for v in (owner, panels[0], panels[2]))):
                alive[c] = False
                outcomes[c] = QuadratureNonConvergent(
                    f"Simpson bisection exceeded depth {_MAX_DEPTH} on [{x0:.6g}, {x2:.6g}]"
                )
            continue
        if owner.size > _MAX_OPEN:
            half = owner.size // 2
            stack += [
                (panels[:, :half], owner[:half], depth),
                (panels[:, half:], owner[half:], depth),
            ]
            continue
        x0, xm, x2, f0, fm, f2, whole = panels
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        f = g(np.concatenate((owner, owner)), np.concatenate((lm, rm)))
        flm, frm = f[: lm.size], f[lm.size :]
        left = _simpson(x0, f0, lm, flm, xm, fm)
        right = _simpson(xm, fm, rm, frm, x2, f2)
        d = left + right - whole
        ok = np.abs(d) <= 15.0 * tol[owner] * np.maximum((x2 - x0) / span[owner], 1e-12)
        accepted.append((owner[ok], x0[ok], (left + right + d / 15.0)[ok], (np.abs(d) / 15.0)[ok]))
        # each rejected panel is replaced by its left and right half
        halves = np.array(
            (
                (x0, lm, xm, f0, flm, fm, left),
                (xm, rm, x2, fm, frm, f2, right),
            )
        )[:, :, ~ok]
        if halves.size:
            halves = halves.transpose(1, 2, 0).reshape(7, -1)
            stack.append((halves, np.repeat(owner[~ok], 2), depth + 1))
    cells, ends, sums, errs = (np.concatenate(col) for col in zip(*accepted))
    order = np.lexsort((-ends, cells))
    totals = [0.0] * a.size
    errors = [0.0] * a.size
    for c, panel_sum, panel_err in zip(*(v[order].tolist() for v in (cells, sums, errs))):
        totals[c] += panel_sum
        errors[c] += panel_err
    return [(totals[c], errors[c]) if out is None else out for c, out in enumerate(outcomes)]


def _crest_scan(spec: FAlphaSpec):
    """(t0, t_end, Simpson tol, crest, hit_cap) of one cell from its coarse scan.

    A QuadratureNonConvergent instead when E overflows at every scan node.
    """
    t0 = spec.delta / spec.alpha
    cap = spec.t_max_cap

    count = max(2, int(math.ceil((cap - t0) / _SCAN_STEP)) + 1)
    ts = np.linspace(t0, cap, count)
    etas = _log_integrand(spec, ts)
    i_max = int(np.argmax(etas))
    crest = float(etas[i_max])
    if not math.isfinite(crest):
        return QuadratureNonConvergent(
            f"E(t) = inv**s overflows doubles at every crest-scan node of [{t0:.6g}, {cap:.6g}]"
        )

    # the first scan node past the crest that lies _CREST_DROP below it
    dropped = etas[i_max + 1 :] < crest - _CREST_DROP
    hit_cap = not dropped.any()
    t_end = cap if hit_cap else float(ts[i_max + 1 + int(np.argmax(dropped))])

    # rough mass in crest units, to set the absolute Simpson budget
    sel = (ts >= t0) & (ts <= t_end)
    rough = float(np.trapezoid(np.exp(np.maximum(etas[sel] - crest, _LOG_TINY)), ts[sel]))
    return t0, t_end, spec.rel_tol * max(rough, 1e-12), crest, hit_cap


def _f_alpha_cells(specs) -> list:
    """F_alpha of every spec, integrated together by one Simpson run.

    Returns a QuadratureResult per spec, or the QuadratureNonConvergent
    of a cell whose crest scan or bisection failed.  The nodes of each
    Simpson level, of all cells, go through one vector call of
    inv_abs_im_phi_logtheta with alpha per node, then through one
    np.float_power with the node's own s and one math.exp map.  Overflow
    of E is silent: an overflowed node is -inf in eta and 0 in the
    integrand.
    """
    with np.errstate(over="ignore"):
        outcomes = [_crest_scan(spec) for spec in specs]
        live = [c for c, out in enumerate(outcomes) if not isinstance(out, QuadratureNonConvergent)]
        if not live:
            return outcomes
        t0, t_end, tol, crests, hit_cap = zip(*(outcomes[c] for c in live))
        alpha = np.array([specs[c].alpha for c in live])
        s = np.array([specs[c].s for c in live])
        crest = np.array(crests)

        def g(cells: np.ndarray, t: np.ndarray) -> np.ndarray:
            inv = inv_abs_im_phi_logtheta(alpha[cells], t)
            e = t - np.float_power(inv, s[cells]) - crest[cells]
            f = np.fromiter(map(math.exp, np.maximum(e, _LOG_TINY).tolist()), float, e.size)
            f[~(e > _LOG_TINY)] = 0.0
            return f

        for c, m, h, out in zip(live, crests, hit_cap, _adaptive_simpson(g, t0, t_end, tol)):
            if not isinstance(out, QuadratureNonConvergent):
                out = _finish(specs[c], m, h, *out)
            outcomes[c] = out
    return outcomes


def _finish(spec: FAlphaSpec, crest: float, hit_cap: bool, integral: float, err: float):
    """The QuadratureResult of one cell from its crest-scaled integral."""
    if not (integral > 0.0):
        # the scan guarantees at least one crest-level sample, so a zero
        # here means the interval collapsed; treat as exact zero mass
        integral = 5e-324
        err = max(err, integral)

    log_value = crest + math.log(integral)
    rel_err = err / integral
    try:
        value = math.exp(log_value) if log_value > _LOG_TINY else 0.0
    except OverflowError:
        # F_alpha beyond the largest double; log_value still orders it
        value = abs_err = math.inf
    else:
        abs_err = value * rel_err
    truncated = bool(
        hit_cap
        and float(_log_integrand(spec, spec.t_max_cap)) > math.log(spec.rel_tol) + log_value
    )
    return QuadratureResult(
        value=value,
        abs_err=abs_err,
        truncated=truncated,
        log_value=log_value,
        rel_err=rel_err,
    )


def f_alpha(spec: FAlphaSpec) -> QuadratureResult:
    """Evaluate F_alpha by crest-scaled adaptive Simpson quadrature.

    The one-cell case of the batched quadrature that dichotomy_scan runs
    over a whole grid, with the same digits.  A value beyond the largest
    double is inf, as is abs_err; log_value and rel_err stay finite.
    """
    (res,) = _f_alpha_cells([spec])
    if isinstance(res, QuadratureNonConvergent):
        raise res
    return res


@dataclasses.dataclass(frozen=True)
class ScanResult:
    """Rows of (s, alpha, result-or-None) plus a verdict per s value."""

    cells: tuple  # (s, alpha, QuadratureResult | None) triples, scan order
    verdicts: tuple  # (s, verdict string) pairs, one per s


def dichotomy_scan(s_values, alpha_values, delta: float) -> ScanResult:
    """Tabulate F_alpha over a parameter grid and classify each s.

    Verdicts follow the log-domain values so that rows far below the
    double-precision floor still order: "vanishing" needs strictly
    decreasing log F_alpha along the alpha grid with the final value
    below 1e-3; "diverging" needs strictly increasing with the final
    value above 10; anything else, including any failed cell, is
    "inconclusive".
    """
    alphas = [float(a) for a in alpha_values]
    if len(alphas) < 3:
        raise ValueError("need at least 3 alpha values")
    require_decreasing(alphas)
    svals = [float(s) for s in s_values]
    if not svals:
        raise ValueError("need at least one s value")

    # every cell, s > 1/2 included, is validated before any is integrated
    specs = [FAlphaSpec(alpha=a, s=s, delta=delta) for s in svals for a in alphas]
    results = [
        None if isinstance(res, QuadratureNonConvergent) else res for res in _f_alpha_cells(specs)
    ]
    cells = [(spec.s, spec.alpha, res) for spec, res in zip(specs, results)]
    verdicts = []
    for i, s in enumerate(svals):
        row = results[i * len(alphas) : (i + 1) * len(alphas)]
        logs = [math.nan if res is None else res.log_value for res in row]
        if any(math.isnan(x) for x in logs):
            verdicts.append((s, "inconclusive"))
            continue
        decreasing = all(y < x for x, y in zip(logs, logs[1:]))
        increasing = all(y > x for x, y in zip(logs, logs[1:]))
        if decreasing and logs[-1] < math.log(1e-3):
            verdicts.append((s, "vanishing"))
        elif increasing and logs[-1] > math.log(10.0):
            verdicts.append((s, "diverging"))
        else:
            verdicts.append((s, "inconclusive"))
    return ScanResult(cells=tuple(cells), verdicts=tuple(verdicts))


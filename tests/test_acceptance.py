"""Release gate: the eight shipped acceptance checks, one test each.

Each test prints a single "[criterion N] PASS" or "[criterion N] FAIL:
<measured detail>" line (run with -s or read captured output) and then
asserts, so a red criterion fails loudly with its measured numbers
attached.  Runtime budgets are part of the criteria and are asserted
alongside the numerics.

Criteria 3 and 4 are about quantities far outside double precision, so
both are decided in the log domain, on grids long enough for the
asserted property to hold in exact arithmetic:

- Criterion 3: with L = -log theta, the log ratio of the composed height
  to theta^k is -(2 alpha/pi) L^2 + (k - (4/pi)(log 4 + alpha log 2)) L
  + O(1).  At alpha = 0.1 the ratio for order k crests near
  theta = 10^(-3.4 (k - 1.85)) and is 1e-10 below its start only from
  about theta = 1e-9 (k = 2) to 1e-42.6 (k = 8), so the grid runs to
  1e-60.  The height itself underflows from 1e-41 on, which is why the
  check takes log heights.
- Criterion 4: at s = 0.75, F_alpha = 2.97 at alpha = 0.05 is correct
  (pinned in tests/test_asymptotics.py); the divergence passes 10 only
  one halving later, at alpha = 0.025, so the grid ends there.  For s = 2
  the values underflow doubles from alpha = 0.1 on, so the ordering and
  thresholds are asserted on log F_alpha.
"""

import json
import math
import time

import numpy as np

from disclab import (
    BishopProblem,
    BoundaryFunction,
    BumpDeformation,
    CircleGrid,
    DiscFamilyParams,
    ExperimentConfig,
    FAlphaSpec,
    FlatProfile,
    KIND_IM,
    alpha_search,
    attachment_residual,
    cauchy_extend,
    f_alpha,
    flatness_order_check,
    phi_boundary,
    radial_derivative,
    run_experiment,
    solve_bishop,
    spectral_identity_errors,
)
from disclab.cli import main as cli_main


def _verdict(num: int, problems, elapsed: float, budget: float | None):
    if budget is not None and elapsed > budget:
        problems = list(problems) + [
            f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget"
        ]
    if problems:
        print(f"[criterion {num}] FAIL: " + "; ".join(problems))
    else:
        print(f"[criterion {num}] PASS")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


# ------------------------------------------------------------- criterion 1


def test_criterion_1_spectral_identities():
    t0 = time.perf_counter()
    checks = spectral_identity_errors(1024)
    elapsed = time.perf_counter() - t0

    problems = [
        f"{name}: max error {err:.3e} exceeds 1e-12" for name, err in checks if not err <= 1e-12
    ]
    _verdict(1, problems, elapsed, 1.0)


# ------------------------------------------------------------- criterion 2


def test_criterion_2_radial_derivative_calibration():
    t0 = time.perf_counter()
    grid = CircleGrid(n=1024)
    worst = 0.0
    for k in range(1, 33):
        f = BoundaryFunction(grid, np.cos(k * grid.theta))
        for method in ("spectral", "quadrature"):
            got = radial_derivative(f, method=method)
            worst = max(worst, abs(got - k) / k)
    elapsed = time.perf_counter() - t0

    problems = []
    if worst > 1e-6:
        problems.append(f"worst relative error {worst:.3e} exceeds 1e-6")
    _verdict(2, problems, elapsed, 1.0)


# ------------------------------------------------------------- criterion 3


def test_criterion_3_flatness_orders():
    t0 = time.perf_counter()
    params = DiscFamilyParams(alpha=0.1)
    thetas = [10.0 ** (-j) for j in range(1, 61)]

    def log_height(s):
        def log_g(theta):
            im = complex(phi_boundary(params, np.array([theta]))[0]).imag
            return -(abs(im) ** -s)

        return log_g

    zero_heights = [t for t in thetas if log_height(1.0)(t) == -math.inf]
    attenuations = {}  # log10 of last ratio over first
    for k in range(1, 9):
        log_ratios, _ = flatness_order_check(log_height(1.0), k, thetas)
        attenuations[k] = (log_ratios[-1] - log_ratios[0]) / math.log(10.0)
    _, verdict_04 = flatness_order_check(log_height(0.4), 3, thetas)
    elapsed = time.perf_counter() - t0

    problems = []
    if zero_heights:
        problems.append(f"s=1 log height is -inf at theta={zero_heights}")
    bad = {k: att for k, att in attenuations.items() if att > math.log10(1e-10)}
    if bad:
        listing = ", ".join(f"k={k}: 1e{att:+.1f}" for k, att in bad.items())
        problems.append(
            f"attenuation over theta=1e-1..1e-60 must reach 1e-10 for every "
            f"k <= 8 but measures {listing}"
        )
    if verdict_04:
        problems.append("s=0.4, k=3 must fail the attenuation test but passed")
    _verdict(3, problems, elapsed, 1.0)


# ------------------------------------------------------------- criterion 4


def test_criterion_4_integral_dichotomy():
    t0 = time.perf_counter()
    alphas = (0.2, 0.1, 0.05, 0.025)
    cells = {
        s: [f_alpha(FAlphaSpec(alpha=a, s=s, delta=1.0)) for a in alphas]
        for s in (1.0, 2.0, 0.75)
    }
    elapsed = time.perf_counter() - t0

    problems = []
    for s in (1.0, 2.0):
        logs = [c.log_value for c in cells[s]]
        if not all(b < a for a, b in zip(logs, logs[1:])):
            problems.append(f"s={s} log values {logs} are not strictly decreasing")
        if not logs[-1] < math.log(1e-3):
            problems.append(f"s={s} final value e^{logs[-1]:.2f} is not < 1e-3")
    logs = [c.log_value for c in cells[0.75]]
    if not all(b > a for a, b in zip(logs, logs[1:])):
        problems.append(f"s=0.75 log values {logs} are not strictly increasing")
    if not logs[-1] > math.log(10.0):
        problems.append(f"s=0.75 final value e^{logs[-1]:.4f} is not > 10")
    for s, row in cells.items():
        for a, c in zip(alphas, row):
            if not c.rel_err < 1e-3:
                problems.append(
                    f"cell s={s}, alpha={a}: rel_err {c.rel_err:.1e} is not < 1e-3"
                )
            if c.truncated:
                problems.append(f"cell s={s}, alpha={a} is truncated at t_max_cap")
    _verdict(4, problems, elapsed, 60.0)


# ------------------------------------------------------------- criterion 5


def test_criterion_5_bishop_solve():
    t0 = time.perf_counter()
    grid = CircleGrid(n=1 << 14)
    problem = BishopProblem(
        grid=grid,
        disc=DiscFamilyParams(alpha=0.1),
        surface=FlatProfile(kind=KIND_IM, s=1.0),
        tol=1e-12,
        max_iter=64,
    )
    disc = solve_bishop(problem)
    other = solve_bishop(
        problem, v0=BoundaryFunction(grid, 0.01 * np.sin(grid.theta))
    )
    scale = disc.u.sup_norm()
    defect = disc.report.holomorphy_defect
    attach = attachment_residual(disc, problem.surface)
    spread = max(
        float(np.max(np.abs(disc.u.values - other.u.values))),
        float(np.max(np.abs(disc.v.values - other.v.values))),
    )
    elapsed = time.perf_counter() - t0

    problems = []
    if not disc.report.converged:
        problems.append("solve did not converge")
    if not defect < 1e-8 * scale:
        problems.append(f"holomorphy defect {defect:.3e} not < 1e-8 * {scale:.3e}")
    if not attach < 1e-10 * scale:
        problems.append(f"attachment residual {attach:.3e} not < 1e-10 * {scale:.3e}")
    if not spread <= 1e-11:
        problems.append(f"two starts disagree by {spread:.3e} (> 1e-11)")
    _verdict(5, problems, elapsed, 10.0)


# ------------------------------------------------------------- criterion 6


def test_criterion_6_propagation_experiment():
    t0 = time.perf_counter()
    report = alpha_search(
        ExperimentConfig(s=1.0, alpha=0.2, delta=0.2), (0.2, 0.1, 0.05)
    )
    below = run_experiment(ExperimentConfig(s=0.5, alpha=0.05, delta=0.2))
    elapsed = time.perf_counter() - t0

    problems = []
    quad = report.radial_derivative_quadrature
    spec = report.radial_derivative_spectral
    if not (quad > 0.0 and spec > 0.0):
        problems.append(f"radial derivative not positive: {quad:.3e} / {spec:.3e}")
    if not abs(quad - spec) <= 1e-4 * abs(quad):
        problems.append(
            f"methods disagree: quadrature {quad:.6e} vs spectral {spec:.6e}"
        )
    inward = [(r, val) for r, val in report.transversal_profile if r >= 0.99]
    if not (inward and all(val < 0.0 for _, val in inward)):
        problems.append(f"transversal profile not negative on [0.99, 1): {inward}")
    cells = report.eta_classifications
    if len(cells) != 21:
        problems.append(f"expected a 21-point eta grid, got {len(cells)} cells")
    if not all(c.converged for c in cells):
        problems.append("some eta cells did not converge")
    if not all(c.neither == 0 for c in cells):
        leftovers = {c.eta: c.neither for c in cells if c.neither}
        problems.append(f"classification not exhaustive: {leftovers}")
    if below.points_down:
        problems.append("s=0.5 at the smallest alpha must report points_down=false")
    _verdict(6, problems, elapsed, 120.0)


# ------------------------------------------------------------- criterion 7


def test_criterion_7_cauchy_extension():
    t0 = time.perf_counter()
    n = 1 << 16
    grid = CircleGrid(n=n)
    problem = BishopProblem(
        grid=grid,
        disc=DiscFamilyParams(alpha=0.1),
        surface=BumpDeformation(
            base=FlatProfile(kind=KIND_IM, s=1.0), delta=0.2, alpha=0.1, eta=1.0
        ),
        tol=1e-12,
        max_iter=64,
    )
    disc = solve_bishop(problem)
    w = disc.u.values + 1j * disc.v.values
    coef = np.fft.fft(w) / n
    ks = np.arange(n // 2 + 1)

    def z2_at(tau: float) -> complex:
        return complex(np.sum(coef[: n // 2 + 1] * tau**ks))

    taus = (0.0, 0.5, 1.0 - 1e-3)
    worst_const = 0.0
    worst_z2 = 0.0
    worst_rational = 0.0
    for tau in taus:
        got = cauchy_extend(disc, lambda phi, z2: np.ones_like(z2), tau)
        worst_const = max(worst_const, abs(got - 1.0))
        got = cauchy_extend(disc, lambda phi, z2: z2, tau)
        worst_z2 = max(worst_z2, abs(got - z2_at(tau)))
        got = cauchy_extend(disc, lambda phi, z2: 1.0 / (z2 + 1.0), tau)
        worst_rational = max(worst_rational, abs(got - 1.0 / (z2_at(tau) + 1.0)))
    elapsed = time.perf_counter() - t0

    problems = []
    if worst_const > 1e-12:
        problems.append(f"constant data reproduced to {worst_const:.3e} only")
    if worst_z2 > 1e-8:
        problems.append(f"z2 extension off the spectral oracle by {worst_z2:.3e}")
    if worst_rational > 1e-8:
        problems.append(f"1/(z2+1) off the spectral oracle by {worst_rational:.3e}")
    _verdict(7, problems, elapsed, 5.0)


# ------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    pairs = []
    for stem, argv in (
        ("scan", ["fa-scan"]),
        (
            "prop",
            [
                "propagate",
                "--s",
                "1.0",
                "--alpha",
                "0.2",
                "--n",
                "4096",
                "--etas",
                "-1,0,1",
            ],
        ),
    ):
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{stem}{run}.csv"
            rc = cli_main(argv + ["--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        pairs.append((stem, blobs[0] == blobs[1], len(blobs[0])))
    capsys.readouterr()  # swallow CLI stderr notes; the verdict line follows
    elapsed = time.perf_counter() - t0

    problems = [
        f"{stem} runs differ ({size} bytes)"
        for stem, same, size in pairs
        if not same
    ]
    _verdict(8, problems, elapsed, None)

"""The four benchmark workloads: generated argv, pinned inputs, output checks.

Every workload is one `disclab` subcommand with one or two parameters
drawn from a range on which the expected answer (sign, verdict) holds
everywhere.  Draws follow a Kronecker sequence started at a seeded
offset: any prefix of it is spread evenly over the range, so a run's
median does not depend on which corner of the range a seed happens to
favour, and no two draws of one run coincide.

Reference values come from the tests (`tests/test_propagation.py`,
`tests/test_asymptotics.py`, `tests/test_cli.py`) at the tolerances the
tests use; the attach-trace `v_max` pin was read off the initial import
at 10 significant digits, since no test runs that grid size.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random

# Kronecker steps: the golden ratio for one parameter, the R2 sequence
# (plastic number g) for two
_G2 = 1.32471795724474602596
_STEPS = (((math.sqrt(5.0) - 1.0) / 2.0,), (1.0 / _G2, 1.0 / (_G2 * _G2)))


@dataclasses.dataclass(frozen=True)
class Ref:
    """One checked number against its pinned value."""

    label: str
    got: float
    want: float
    tol: float  # allowed deviation; 0 means exact
    absolute: bool = False  # tol is absolute (the test uses abs=) rather than relative

    def allowed(self) -> float:
        """The deviation the test allows; 0 means the value must match exactly."""
        return self.tol if self.absolute else self.tol * abs(self.want)

    def ok(self) -> bool:
        return abs(self.got - self.want) <= self.allowed()

    def err(self) -> float:
        """Deviation over the allowed deviation (1 is the test's limit).

        For refs with allowed() > 0; a deviation below one ulp of the pin
        counts as one ulp, so the value is never 0.
        """
        diff = max(abs(self.got - self.want), _ULP * abs(self.want), 1e-300)
        return diff / self.allowed()


_ULP = 2.0**-52


def ref_err(refs: list) -> float:
    """Geometric mean of err() over the refs that allow a deviation.

    Every pin weighs the same, so a tight pin that drifts by a factor k
    moves the result by k ** (1 / count) whatever the loose pins do.
    """
    errs = [r.err() for r in refs if r.allowed() > 0.0]
    return math.exp(sum(math.log(e) for e in errs) / len(errs))


def corrupted(refs: list, i: int) -> list:
    """The same table with pin i moved 10 allowed deviations (an exact pin: 1) away."""
    ref = refs[i]
    shift = 10.0 * ref.allowed() or 1.0
    return refs[:i] + [dataclasses.replace(ref, want=ref.want + shift)] + refs[i + 1:]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    out_ext: str
    ranges: tuple  # (lo, hi) per drawn parameter
    pinned: tuple  # parameter values of the pinned call
    make_argv: object  # (params, n, out_path) -> argv list
    check_output: object  # (params, n, out_path, stderr) -> list of problems
    pinned_refs: object  # (out_path, stderr) -> list of Ref
    # machine-speed kernel (speed.PARTS names) and its median wall seconds
    # at the reference speed, which call times are scaled to (speed.py);
    # the references were measured on a 2-vCPU Intel Xeon VM
    speed_parts: tuple
    reference_s: float
    # grid size (--n) of the pinned and of the timed calls; None leaves the
    # CLI default.  Timed calls may use a smaller grid than the pinned one
    # so that enough of them fit in a run (see README.md).
    pinned_n: int | None = None
    timed_n: int | None = None

    def argv(self, params, out_path) -> list:
        return self.make_argv(params, self._n(params), out_path)

    def check(self, params, out_path, stderr) -> list:
        return self.check_output(params, self._n(params), out_path, stderr)

    def _n(self, params):
        return self.pinned_n if params == self.pinned else self.timed_n

    def draws(self, seed: int):
        """Endless seeded parameter tuples, never equal to each other or to the pin."""
        rng = random.Random(f"{self.name}:{seed}")
        start = [rng.random() for _ in self.ranges]
        steps = _STEPS[len(self.ranges) - 1]
        seen = {self.pinned}
        i = 0
        while True:
            i += 1
            params = tuple(
                lo + (hi - lo) * ((x0 + i * g) % 1.0)
                for (lo, hi), x0, g in zip(self.ranges, start, steps)
            )
            if params not in seen:
                seen.add(params)
                yield params


def _num(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------------- propagate


def _propagate_argv(s: str, extra: list):
    def make(params, n, out_path):
        (alpha,) = params
        grid = [] if n is None else ["--n", str(n)]
        return ["propagate", "--s", s, "--alpha", _num(alpha), *extra, *grid,
                "--format", "json", "--out", out_path]

    return make


def _propagate_check(points_down: bool, cells: int):
    def check(params, n, out_path, stderr):
        with open(out_path) as fh:
            doc = json.load(fh)
        problems = []
        if doc["alpha"] != params[0]:
            problems.append(f"report alpha {doc['alpha']!r} != requested {params[0]!r}")
        if doc["points_down"] is not points_down:
            problems.append(f"points_down={doc['points_down']}, expected {points_down}")
        if not doc["radial_discrepancy"] <= 1e-10:
            problems.append(f"radial_discrepancy {doc['radial_discrepancy']!r} > 1e-10")
        got = doc["eta_classifications"]
        if len(got) != cells or not all(c["converged"] for c in got):
            problems.append(f"expected {cells} converged eta cells")
        return problems

    return check


def _s1_refs(out_path, stderr):
    # tests/test_propagation.py, report_s1 = run_experiment(s=1, alpha=0.2)
    with open(out_path) as fh:
        doc = json.load(fh)
    cells = {c["eta"]: c for c in doc["eta_classifications"]}
    profile = dict((r, u) for r, u in doc["transversal_profile"])
    refs = [
        Ref("radial_derivative", doc["radial_derivative"], 7.00042647e-02, 1e-6),
        Ref("coverage_min_x2", doc["coverage_min_x2"], -7.035357e-04, 1e-4),
        Ref("rd(eta=-1)", cells[-1.0]["radial_derivative"], -7.0114e-02, 1e-3),
        Ref("rd(eta=1)", cells[1.0]["radial_derivative"], 7.0004e-02, 1e-3),
        Ref("rd(eta=0)", cells[0.0]["radial_derivative"], -5.4967e-05, 1e-3),
    ]
    for r, want in ((0.9, -7.3358e-03), (0.99, -7.0354e-04),
                    (0.999, -7.0039e-05), (0.9999, -7.0008e-06)):
        refs.append(Ref(f"u(r={r})", profile[r], want, 1e-3))
    for eta, on_s, in_b in ((-1.0, 3247, 15049), (1.0, 3247, 15049), (0.0, 6992, 15073)):
        refs.append(Ref(f"on_surface(eta={eta})", cells[eta]["on_surface"], on_s, 0.0))
        refs.append(Ref(f"in_ball(eta={eta})", cells[eta]["in_ball"], in_b, 0.0))
    refs.append(Ref("max neither", max(c["neither"] for c in cells.values()), 0, 0.0))
    return refs


def _s05_refs(out_path, stderr):
    # tests/test_propagation.py::test_points_up_below_the_threshold
    with open(out_path) as fh:
        doc = json.load(fh)
    return [Ref("radial_derivative", doc["radial_derivative"], -6.394569, 1e-4)]


# --------------------------------------------------------------- fa-scan

_FA_S = (0.6, 0.75, 1.0, 1.5, 2.0)
_FA_ALPHAS = (0.2, 0.1, 0.05, 0.025, 0.0125)
_FA_VERDICTS = ("diverging", "diverging", "vanishing", "vanishing", "vanishing")
_FA_HEADER = "s,alpha,f_alpha,abs_err,truncated"

# tests/test_asymptotics.py PINNED: (s, alpha) -> F_alpha at delta = 1
_FA_PINNED = {
    (1.0, 0.2): 6.959832152071541e-08,
    (1.0, 0.1): 1.834815460075451e-13,
    (1.0, 0.05): 8.278842178185646e-25,
    (2.0, 0.2): 7.2532803735967255e-186,
    (2.0, 0.1): 0.0,
    (2.0, 0.05): 0.0,
    (0.75, 0.2): 0.03643654458165234,
    (0.75, 0.1): 0.058618955995496026,
    (0.75, 0.05): 2.974975551563458,
}


def _fa_argv(params, n, out_path):
    (delta,) = params
    return ["fa-scan", "--s", ",".join(map(str, _FA_S)),
            "--alphas", ",".join(map(str, _FA_ALPHAS)),
            "--delta", _num(delta), "--out", out_path]


def _fa_rows(out_path):
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != _FA_HEADER:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        s, a, val, err, trunc = line.split(",")
        rows[(float(s), float(a))] = (float(val), float(err), trunc == "true")
    return rows


def _fa_check(params, n, out_path, stderr):
    rows = _fa_rows(out_path)
    problems = []
    grid = [(s, a) for s in _FA_S for a in _FA_ALPHAS]
    if sorted(rows) != sorted(grid):
        problems.append(f"expected {len(grid)} (s, alpha) rows, got {len(rows)}")
    bad = [key for key, (val, err, _) in rows.items() if not (math.isfinite(val) and math.isfinite(err))]
    if bad:
        problems.append(f"non-finite cells {bad}")
    for s, want in zip(_FA_S, _FA_VERDICTS):
        if f"verdict s={s!r}: {want}" not in stderr:
            problems.append(f"verdict for s={s} is not {want}")
    return problems


def _fa_refs(out_path, stderr):
    rows = _fa_rows(out_path)
    # tests/test_cli.py::test_fa_scan_defaults pins the CLI digits of this cell
    refs = [Ref("F(1.0, 0.2) cli", rows[(1.0, 0.2)][0], 6.959832152071541e-08, 1e-10)]
    for (s, a), want in sorted(_FA_PINNED.items()):
        val, _, trunc = rows[(s, a)]
        refs.append(Ref(f"F({s}, {a})", val, want, 1e-6))
        refs.append(Ref(f"truncated({s}, {a})", float(trunc), 0.0, 0.0))
    # tests/test_asymptotics.py::test_deep_cells_report_truncation_honestly
    for a, log_want, trunc_want in ((0.025, 21.599158, 0.0), (0.0125, 101.572296, 1.0)):
        val, _, trunc = rows[(0.75, a)]
        refs.append(Ref(f"log F(0.75, {a})", math.log(val), log_want, 1e-4, absolute=True))
        refs.append(Ref(f"truncated(0.75, {a})", float(trunc), trunc_want, 0.0))
    return refs


# ---------------------------------------------------------------- attach

_ATTACH_S = 1.0
_ATTACH_DELTA = 0.2
_ATTACH_HEADER = "theta,re_phi,im_phi,u,v"


def _attach_argv(params, n, out_path):
    alpha, eta = params
    return ["attach", "--s", "1", "--delta", "0.2", "--n", str(n),
            "--alpha", _num(alpha), "--eta", _num(eta), "--out", out_path]


def _attach_table(out_path):
    import numpy as np

    with open(out_path) as fh:
        header = fh.readline().rstrip("\n")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, table


def _attach_check(params, n, out_path, stderr):
    from disclab.profiles import KIND_IM, BumpDeformation, FlatProfile
    import numpy as np

    alpha, eta = params
    header, table = _attach_table(out_path)
    if header != _ATTACH_HEADER or table.shape != (n, 5):
        return [f"expected {n} rows under {_ATTACH_HEADER!r}, got {table.shape}"]
    theta, re_phi, im_phi, u, v = table.T
    problems = []
    if theta[0] != 0.0 or u[0] != 0.0:
        problems.append(f"u(theta={theta[0]!r}) = {u[0]!r}, expected u(0) = 0")
    surface = BumpDeformation(
        base=FlatProfile(kind=KIND_IM, s=_ATTACH_S), delta=_ATTACH_DELTA, alpha=alpha, eta=eta
    )
    height = np.asarray(surface.boundary_trace(theta, re_phi + 1j * im_phi, v), dtype=float)
    residual = float(np.max(np.abs(u - height)))
    if not residual <= 1e-12:
        problems.append(f"attachment identity off by {residual!r} > 1e-12")
    return problems


def _attach_refs(out_path, stderr):
    import numpy as np

    _, table = _attach_table(out_path)
    u, v = table[:, 3], table[:, 4]
    return [
        # tests/test_cli.py::test_attach_deformed_csv: the extension tops out
        # at the plateau delta / 2
        Ref("max|u|", float(np.max(np.abs(u))), 0.1, 0.05),
        Ref("max v", float(np.max(v)), 0.1064403188, 1e-9),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="propagate-s1",
            out_ext="json",
            ranges=((0.1, 0.2),),
            pinned=(0.2,),
            make_argv=_propagate_argv("1", []),
            check_output=_propagate_check(points_down=True, cells=21),
            pinned_refs=_s1_refs,
            speed_parts=("fft", "trig"),
            reference_s=4.0e-3,
        ),
        Workload(
            name="propagate-s05",
            out_ext="json",
            ranges=((0.05, 0.1),),
            pinned=(0.05,),
            make_argv=_propagate_argv("0.5", ["--etas", "1"]),
            check_output=_propagate_check(points_down=False, cells=1),
            pinned_refs=_s05_refs,
            speed_parts=("quad",),
            reference_s=8.0e-2,
        ),
        Workload(
            name="fa-scan-deep",
            out_ext="csv",
            ranges=((0.8, 1.2),),
            pinned=(1.0,),
            make_argv=_fa_argv,
            check_output=_fa_check,
            pinned_refs=_fa_refs,
            speed_parts=("scalar",),
            reference_s=1.5e-3,
        ),
        Workload(
            name="attach-trace",
            out_ext="csv",
            ranges=((0.05, 0.2), (-1.0, 1.0)),
            pinned=(0.1, 1.0),
            make_argv=_attach_argv,
            check_output=_attach_check,
            pinned_refs=_attach_refs,
            speed_parts=("emit", "fft"),
            reference_s=4.2e-3,
            pinned_n=1 << 18,
            timed_n=1 << 16,
        ),
    )
}

# Exact per-call counts of the traced pinned call at the initial import;
# a change that moves one of them reports it, it does not fail the run.
BASELINE_COUNTS = {
    "propagate-s1": {
        "bishop.solve_bishop.calls": 21,
        "bishop.picard_iterations": 42,
        "circle.fft.calls": 234,
        "circle.fft.points": 3145812,
        "circle.radial_derivative.quadrature.calls": 1,
        "circle.radial_derivative.spectral.calls": 22,
    },
    "propagate-s05": {"bishop.solve_bishop.calls": 1, "circle.fft.calls": 14},
    "fa-scan-deep": {
        "asymptotics.f_alpha.calls": 25,
        "disc_family.inv_abs_im_phi_logtheta.calls": 9215,
    },
    "attach-trace": {"circle.fft.calls": 9, "circle.fft.points": 1835012},
}

"""Command-line front end for the disc laboratory.

Subcommands map one-to-one onto the library layers: `selftest` exercises
the spectral identities of the circle toolkit, `disc` tabulates the
squeezed-disc boundary and its concentration property, `flatness` prints
the vanishing-order ratio tables of the composed height profile,
`fa-scan` tabulates the dichotomy integral with verdicts, `attach` runs
a single Bishop solve and dumps the boundary trace, and `propagate` runs
the full deformation experiment.

Every subcommand resolves its parameters in three layers: built-in
defaults, then a JSON config file given with --config, then explicit
flags; one parameter spec per subcommand (`_SUBCOMMANDS`) drives all
three.  Data goes to --out (default standard output) as CSV or JSON,
or, for `flatness`, `fa-scan` and `propagate`, as a human-readable
table; progress and verdict messages go to standard error.  CSV is
formatted and written a block of rows at a time, so the whole text is
never held at once.  A block whose every column is a float array is
written by `_floattext.csv_rows`, any other block row by row through
`_fmt`, a float as its `repr` either way.  Outputs are deterministic:
the same resolved configuration produces byte-identical bytes.

Exit codes: 0 success, 1 validation error (bad flag or config values,
unresolvable grids) or an output target that cannot be written (one
`output error:` line on standard error), 2 numerical failure
(non-convergence, or a height exponent beyond the largest double), with
the failure serialized to the output target as a JSON error object.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from ._floattext import csv_rows
from .asymptotics import FAlphaSpec, dichotomy_scan
from .bishop import BishopProblem, attachment_residual, solve_bishop
from .circle import CircleGrid, spectral_identity_errors
from .disc_family import (
    DiscFamilyParams,
    concentration_bound_check,
    inv_abs_im_phi_logtheta,
    phi_boundary,
)
from .exceptions import DiscLabError
from .profiles import KIND_IM, BumpDeformation, FlatProfile, flatness_order_check
from .propagation import ExperimentConfig, alpha_search, run_experiment

__all__ = ["main", "dispatch"]

_LN10 = math.log(10.0)

# rows formatted and written per step: bounds the text held at once
_CSV_CHUNK_ROWS = 4096

# acceptance criterion 3's grid: order k = 8 attenuates by 1e-10 only near 1e-42.6
_FLAT_THETAS = [10.0 ** -j for j in range(1, 61)]
_FLAT_K_MAX = 8

# glibc's malloc maps each block of 128 kB or more (a threshold it raises
# only as such blocks are freed) and unmaps it on free, and trims the heap
# top beyond 128 kB: a warm `propagate --s 1` call then faulted in 500-700
# fresh pages for its FFT and solver temporaries, 0-3 with these thresholds,
# and took about 18 % less time.  32 MiB is glibc's 64-bit maximum
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


class _UsageError(ValueError):
    """Raised for argparse-level problems so main can exit 1, not 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # widened so comma lists with a leading negative entry ("-1,-0.5,0")
        # parse as values rather than unknown options
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message: str) -> None:  # argparse would exit(2)
        raise _UsageError(message)


def _floats(val) -> tuple:
    """A comma-separated flag value, or a config-file list, as a float tuple."""
    if isinstance(val, str):
        val = [tok for tok in val.split(",") if tok.strip()]
        if not val:
            raise argparse.ArgumentTypeError("expected a comma-separated number list")
    return tuple(float(x) for x in val)


def _from_config(kind, val):
    """A JSON config value as `kind`, refused where the same value as a flag would be.

    JSON booleans are numbers to int() and float(), and int() truncates
    300.9 to 300; neither a bool nor a fractional count passes as a flag.
    """
    items = val if isinstance(val, list) else [val]
    if any(isinstance(x, bool) for x in items):
        raise TypeError("a boolean is not a number")
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ValueError("not an integer")
    return kind(val)


def _resolve(sub: str, args: argparse.Namespace) -> dict:
    """defaults < --config JSON < explicit flags, with unknown keys rejected."""
    params = {p.name: p for p in _SUBCOMMANDS[sub].params}
    cfg = {name: p.default for name, p in params.items()}
    path = getattr(args, "config", None)
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        for key, val in data.items():
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r} for subcommand {sub!r}")
            try:
                cfg[key] = _from_config(params[key].kind, val)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(
                    f"config key {key!r} for subcommand {sub!r} has a bad value {val!r}"
                ) from exc
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _jsonable(x):
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: _jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        xf = float(x)
        return xf if math.isfinite(xf) else None
    return x


def _csv_chunks(header, columns):
    """The CSV text of `columns` under `header`, _CSV_CHUNK_ROWS rows at a time."""
    yield ",".join(header) + "\n"
    n = min(map(len, columns), default=0)
    floats = all(isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns)
    for lo in range(0, n, _CSV_CHUNK_ROWS):
        block = [col[lo : lo + _CSV_CHUNK_ROWS] for col in columns]
        if floats:
            yield csv_rows(block)
        else:
            yield "".join(",".join(map(_fmt, row)) + "\n" for row in zip(*block))


def _write_as(out_path, fmt, **payloads) -> None:
    """The payload of format `fmt`, built only now, written to out_path or stdout.

    Each payload is a function: csv returns (header, columns), json the
    document, any other format its lines; the others are never called.
    CSV is written as it is formatted.
    """
    build = payloads[fmt]
    if fmt == "csv":
        chunks = _csv_chunks(*build())
    elif fmt == "json":
        chunks = (json.dumps(_jsonable(build()), indent=2) + "\n",)
    else:
        chunks = ("".join(line + "\n" for line in build()),)
    if out_path is None or out_path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(chunks)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------- selftest


def _run_selftest(cfg, out_path, fmt) -> int:
    checks = spectral_identity_errors(cfg["n"])
    lines = [
        f"{'ok' if err <= 1e-12 else 'FAIL'} {name}: max err {err:.3e}" for name, err in checks
    ]
    _write_as(out_path, "table", table=lambda: lines)
    failures = sum(line.startswith("FAIL") for line in lines)
    if failures:
        _note(f"selftest: {failures} of {len(checks)} identities failed")
        return 2
    return 0


# -------------------------------------------------------------------- disc


def _run_disc(cfg, out_path, fmt) -> int:
    params = DiscFamilyParams(alpha=cfg["alpha"])
    concentrated = concentration_bound_check(params, cfg["delta"])
    grid = CircleGrid(n=cfg["n"])
    phi = phi_boundary(params, grid.theta)
    columns = (grid.theta, phi.real, phi.imag)
    header = ("theta", "re_phi", "im_phi")
    _write_as(
        out_path,
        fmt,
        csv=lambda: (header, columns),
        json=lambda: {
            "config": cfg,
            "concentrated_within_delta": concentrated,
            "columns": list(header),
            "rows": list(zip(*columns)),
        },
    )
    if fmt == "csv":
        _note(
            f"boundary concentrates within delta={_fmt(cfg['delta'])} "
            f"of the squeeze limit: {_fmt(concentrated)}"
        )
    return 0


# ---------------------------------------------------------------- flatness


def _run_flatness(cfg, out_path, fmt) -> int:
    alpha = cfg["alpha"]
    DiscFamilyParams(alpha=alpha)  # refuses an alpha outside (0, 1]
    rows = []
    orders = []  # (s, k, first and last log10 ratio, flat to order k)
    # one evaluation per grid point, shared by every s and every order k
    inv = inv_abs_im_phi_logtheta(alpha, np.array([-math.log(t) for t in _FLAT_THETAS]))
    for s in cfg["s"]:
        FlatProfile(kind=KIND_IM, s=s)  # refuses an s that is not positive and finite

        # float_power rounds as ** does; an E that overflows would read as a
        # log height of -inf, which stands for a zero height, so it is a failure
        with np.errstate(over="ignore"):
            log_g = dict(zip(_FLAT_THETAS, (-np.float_power(inv, s)).tolist()))
        over = [t for t, g in log_g.items() if g == -math.inf]
        if over:
            raise DiscLabError(
                f"E = (1/|Im phi|)**s overflows doubles at s={s:g}, first at theta={over[0]:g}"
            )
        for k in range(1, _FLAT_K_MAX + 1):
            log_ratios, flat = flatness_order_check(log_g.__getitem__, k, _FLAT_THETAS)
            log10s = [r / _LN10 for r in log_ratios]
            rows.extend((s, alpha, k, t, r) for t, r in zip(_FLAT_THETAS, log10s))
            orders.append((s, k, log10s[0], log10s[-1], flat))
    header = ("s", "alpha", "k", "theta", "log10_ratio")
    _write_as(
        out_path,
        fmt,
        csv=lambda: (header, list(zip(*rows))),
        json=lambda: {"config": cfg, "columns": list(header), "rows": rows},
        table=lambda: _flatness_table(alpha, orders),
    )
    return 0


def _flatness_table(alpha, orders) -> list:
    lines = [
        f"alpha={alpha:g}, grid theta=1e-1..1e-{len(_FLAT_THETAS)}",
        f"{'s':>5} {'k':>3} {'log10 first':>12} {'log10 last':>11} "
        f"{'attenuation':>12} {'flat to order k':>15}",
    ]
    lines.extend(
        f"{s:>5.3g} {k:>3} {first:>12.3f} {last:>11.3f} "
        f"{'1e' + format(last - first, '+.1f'):>12} {'yes' if flat else 'no':>15}"
        for s, k, first, last, flat in orders
    )
    return lines


# ----------------------------------------------------------------- fa-scan


def _run_fa_scan(cfg, out_path, fmt) -> int:
    result = dichotomy_scan(cfg["s"], cfg["alphas"], cfg["delta"])
    rows = [
        (s, a, math.nan, math.nan, None)  # a failed cell cannot tell if it was truncated
        if res is None
        else (s, a, res.value, res.abs_err, res.truncated)
        for s, a, res in result.cells
    ]
    header = ("s", "alpha", "f_alpha", "abs_err", "truncated")
    verdicts = [{"s": s, "verdict": v} for s, v in result.verdicts]
    _write_as(
        out_path,
        fmt,
        csv=lambda: (header, list(zip(*rows))),
        json=lambda: {"config": cfg, "columns": list(header), "rows": rows, "verdicts": verdicts},
        table=lambda: _fa_scan_table(result),
    )
    for entry in verdicts:
        _note(f"verdict s={_fmt(entry['s'])}: {entry['verdict']}")
    failures = sum(res is None for _, _, res in result.cells)
    if failures:
        _note(f"fa-scan: {failures} cell(s) failed numerically (nan rows)")
        return 2
    return 0


def _fa_scan_table(result) -> list:
    lines = [
        f"{'s':>6} {'alpha':>7} {'F_alpha':>14} {'log F_alpha':>13} {'rel_err':>9} {'trunc':>5}"
    ]
    for s, a, res in result.cells:
        if res is None:
            lines.append(f"{s:>6.3g} {a:>7.3g} {'failed':>14}")
        else:
            lines.append(
                f"{s:>6.3g} {a:>7.3g} {res.value:>14.6e} {res.log_value:>13.4f} "
                f"{res.rel_err:>9.1e} {_fmt(res.truncated):>5}"
            )
    lines.append("")
    lines.extend(f"s={s:g}: {v} as alpha decreases" for s, v in result.verdicts)
    return lines


# ------------------------------------------------------------------ attach


def _run_attach(cfg, out_path, fmt) -> int:
    params = DiscFamilyParams(alpha=cfg["alpha"])
    base = FlatProfile(kind=KIND_IM, s=cfg["s"])
    bump = {key: cfg[key] for key in ("delta", "eps_window", "eta") if cfg[key] is not None}
    wants_bump = bool(bump)
    if wants_bump:
        # an unset bump size is the experiment's ball radius, as in `propagate`
        bump.setdefault("delta", ExperimentConfig.delta)
        surface = BumpDeformation(base=base, alpha=cfg["alpha"], **bump)
    else:
        surface = base
    grid = CircleGrid(n=cfg["n"])
    problem = BishopProblem(
        grid=grid,
        disc=params,
        surface=surface,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
    )
    disc = solve_bishop(problem)
    residual = attachment_residual(disc, surface)
    rep = disc.report
    # the note, holomorphy defect included, is made before the output is
    # written: made after a large CSV, the defect's transforms find the heap
    # split by the writer and raised the peak RSS by 1 to 5 MB at n = 2^18
    note = (
        f"attached in {rep.iterations} iterations; residual {rep.residual:.3e}, "
        f"attachment {residual:.3e}, holomorphy defect {rep.holomorphy_defect:.3e}"
    )
    _write_as(
        out_path,
        fmt,
        csv=lambda: (
            ("theta", "re_phi", "im_phi", "u", "v"),
            (grid.theta, disc.phi.values.real, disc.phi.values.imag, disc.u.values, disc.v.values),
        ),
        json=lambda: {
            "config": cfg,
            "deformed": wants_bump,
            "iterations": rep.iterations,
            "residual": rep.residual,
            "contraction": rep.contraction,
            "converged": rep.converged,
            "holomorphy_defect": rep.holomorphy_defect,
            "holder_seminorm": rep.holder_seminorm,
            "attachment_residual": residual,
            "sup_u": disc.u.sup_norm(),
            "sup_v": disc.v.sup_norm(),
        },
    )
    _note(note)
    return 0


# --------------------------------------------------------------- propagate


def _run_propagate(cfg, out_path, fmt) -> int:
    kwargs = {key: cfg[key] for key in cfg if key not in ("alphas", "etas")}
    if cfg["etas"] is not None:
        kwargs["eta_grid"] = tuple(cfg["etas"])
    xcfg = ExperimentConfig(**kwargs)
    if cfg["alphas"] is not None:
        report = alpha_search(xcfg, cfg["alphas"])
    else:
        report = run_experiment(xcfg)
    _write_as(
        out_path,
        fmt,
        csv=lambda: _propagate_columns(report),
        json=lambda: report,
        table=lambda: _propagate_table(report),
    )
    _note(
        f"alpha={_fmt(report.alpha)}: radial derivative "
        f"{report.radial_derivative:.6e} (quadrature) vs "
        f"{report.radial_derivative_spectral:.6e} (spectral), points_down="
        f"{_fmt(report.points_down)}, coverage_min_x2={report.coverage_min_x2:.3e}"
    )
    return 0


def _propagate_columns(report) -> tuple:
    header = ("eta", "radial_derivative", "min_x2", "converged")
    rows = [
        (c.eta, c.radial_derivative, c.min_x2, c.converged) for c in report.eta_classifications
    ]
    return header, list(zip(*rows))


def _propagate_table(report) -> list:
    xcfg = report.config
    lines = [
        f"s={xcfg.s:g}  alpha={report.alpha:g}  delta={xcfg.delta:g}  n={xcfg.n}",
        f"radial derivative  quadrature {report.radial_derivative_quadrature:+.9e}",
        f"                   spectral   {report.radial_derivative_spectral:+.9e}",
        f"                   discrepancy {report.radial_discrepancy:.3e}",
        f"points_down={_fmt(report.points_down)}  "
        f"coverage_min_x2={report.coverage_min_x2:+.3e}",
        "",
        "transversal profile along the inward radius:",
    ]
    lines.extend(f"  r={r:<8g} u={val:+.6e}" for r, val in report.transversal_profile)
    lines.append("")
    lines.append(
        f"{'eta':>6} {'conv':>5} {'on_surface':>10} {'in_ball':>8} "
        f"{'neither':>7} {'rad_deriv':>13} {'min_x2':>13}"
    )
    lines.extend(
        f"{c.eta:>6.2f} {_fmt(c.converged):>5} {c.on_surface:>10} {c.in_ball:>8} "
        f"{c.neither:>7} {c.radial_derivative:>13.4e} {c.min_x2:>13.4e}"
        for c in report.eta_classifications
    )
    return lines


# ------------------------------------------------------- parameter spec


class _Param(NamedTuple):
    name: str  # config key; the flag is --name with "_" written as "-"
    kind: object  # float, int or _floats: coerces flag text and config values alike
    default: object = None
    help: str | None = None


class _Subcommand(NamedTuple):
    help: str
    run: object  # (cfg, out_path, fmt) -> exit code
    formats: tuple  # --format choices, the first being the default; () for no --format
    params: tuple


def _dataclass_param(cls, name: str) -> _Param:
    """Parameter `name` with the default (and so the kind) that dataclass `cls` gives it."""
    return _Param(name, type(getattr(cls, name)), getattr(cls, name))


_S = _Param("s", float, 1.0)
_S_LIST = _Param("s", _floats, (1.0,), "comma-separated list")
_ALPHA = _Param("alpha", float, 0.1)
_TABLE = ("csv", "json", "table")

_SUBCOMMANDS = {
    "selftest": _Subcommand(
        "spectral identity suite", _run_selftest, (), (_Param("n", int, 1024),)
    ),
    "disc": _Subcommand(
        "squeezed-disc boundary table",
        _run_disc,
        ("csv", "json"),
        (_ALPHA, _dataclass_param(ExperimentConfig, "delta"), _Param("n", int, 4096)),
    ),
    "flatness": _Subcommand(
        "vanishing-order ratio tables", _run_flatness, _TABLE, (_S_LIST, _ALPHA)
    ),
    "fa-scan": _Subcommand(
        "dichotomy integral scan",
        _run_fa_scan,
        _TABLE,
        (
            _S_LIST,
            _Param("alphas", _floats, (0.2, 0.1, 0.05), "strictly decreasing"),
            _dataclass_param(FAlphaSpec, "delta"),
        ),
    ),
    "attach": _Subcommand(
        "single Bishop solve, boundary trace",
        _run_attach,
        ("csv", "json"),
        (
            _S,
            _ALPHA,
            _Param("delta", float, None, "bump size; implies a deformed surface"),
            _Param("eps_window", float, None, "bump window exponent"),
            _Param("eta", float, None, "bump strength in [-1, 1]"),
            _dataclass_param(ExperimentConfig, "n"),
            _dataclass_param(BishopProblem, "tol"),
            _dataclass_param(BishopProblem, "max_iter"),
        ),
    ),
    "propagate": _Subcommand(
        "deformation experiment report",
        _run_propagate,
        _TABLE,
        (
            _S,
            _ALPHA,
            _Param("alphas", _floats, None, "search grid, decreasing"),
            _dataclass_param(ExperimentConfig, "delta"),
            _Param("eps_window", float),
            _Param("etas", _floats),
            _dataclass_param(ExperimentConfig, "n"),
            _dataclass_param(ExperimentConfig, "tol"),
            _dataclass_param(ExperimentConfig, "max_iter"),
        ),
    ),
}


@functools.cache
def build_parser() -> _Parser:
    """The `disclab` parser with every subcommand and flag, built once per process."""
    parser = _Parser(prog="disclab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, spec in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=spec.help)
        for param in spec.params:
            flag = "--" + param.name.replace("_", "-")
            subparser.add_argument(flag, type=param.kind, help=param.help)
        subparser.add_argument("--out", help="output path (default: stdout)")
        if spec.formats:
            subparser.add_argument("--format", default=spec.formats[0], choices=spec.formats)
        subparser.add_argument("--config", help="JSON file with parameter defaults")
    return parser


@functools.cache
def _keep_heap_pages() -> None:
    """Keep the blocks a command frees in glibc's heap for its next ones.

    Where the C library has no mallopt (it is not glibc) or refuses the
    mmap threshold, nothing is set.  Outputs do not depend on it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def dispatch(argv=None) -> int:
    """Run one command line in-process and return its exit code."""
    _keep_heap_pages()
    out_path = None
    try:
        try:
            args = build_parser().parse_args(argv)
            out_path = args.out
            cfg = _resolve(args.subcommand, args)
            run = _SUBCOMMANDS[args.subcommand].run
            return run(cfg, out_path, getattr(args, "format", None))
        except _UsageError as exc:
            _note(f"usage error: {exc}")
            return 1
        except ValueError as exc:
            _note(f"validation error: {exc}")
            return 1
        except DiscLabError as exc:
            _note(f"numerical failure: {exc}")
            payload = {"error": type(exc).__name__, "message": str(exc)}
            _write_as(out_path, "json", json=lambda: payload)
            return 2
    except OSError as exc:  # the output target, also when it takes a failure's error object
        _note(f"output error: {exc}")
        return 1


def main(argv=None) -> int:
    """dispatch for a whole process."""
    try:
        return dispatch(argv)
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: what stdout still buffers goes nowhere at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())

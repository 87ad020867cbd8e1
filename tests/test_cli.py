"""End-to-end checks of the command-line front end, and of the package's exports.

Everything runs in-process through main(argv) so exit codes, stdout,
stderr, and --out files can all be asserted cheaply.  Subprocess tests
at the bottom run the module entry point, once to completion and once
into a pipe that its reader closes, and count the page faults of a warm
call in a fresh process.
"""

import ast
import ctypes
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import disclab
from disclab import (
    KIND_IM,
    BishopProblem,
    BumpDeformation,
    CircleGrid,
    DiscFamilyParams,
    ExperimentConfig,
    FAlphaSpec,
    FlatProfile,
    NotConverged,
    _floattext,
    asymptotics,
    cli,
    propagation,
)
from disclab.cli import dispatch, main
from conftest import package_env

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---- selftest


def test_selftest_green(capsys):
    rc, out, err = run_cli(["selftest", "--n", "512"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok ") for line in lines)
    assert err == ""


def test_selftest_green_on_a_large_grid(capsys):
    # the reference samples at k theta reduced exactly mod 2 pi; at k * theta
    # their own rounding passed the 1e-12 threshold from n = 4096 on
    rc, out, err = run_cli(["selftest", "--n", "4096"], capsys)
    assert rc == 0 and err == ""
    errors = [float(line.rsplit(" ", 1)[1]) for line in out.splitlines()]
    assert len(errors) == 5 and max(errors) < 1e-14


def test_selftest_writes_to_out_and_has_no_format(tmp_path, capsys):
    out_file = tmp_path / "selftest.txt"
    rc, out, _ = run_cli(["selftest", "--n", "256", "--out", str(out_file)], capsys)
    assert rc == 0
    assert out == ""
    lines = out_file.read_text().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok ") for line in lines)
    rc, _, err = run_cli(["selftest", "--format", "csv"], capsys)
    assert rc == 1
    assert "usage error" in err


def test_selftest_failing_identity_exits_2(monkeypatch, capsys):
    checks = [("identity a", 1e-15), ("identity b", 3e-6), ("identity c", 0.0)]
    monkeypatch.setattr(cli, "spectral_identity_errors", lambda n: checks)
    rc, out, err = run_cli(["selftest", "--n", "64"], capsys)
    assert rc == 2
    assert out.splitlines() == [
        "ok identity a: max err 1.000e-15",
        "FAIL identity b: max err 3.000e-06",
        "ok identity c: max err 0.000e+00",
    ]
    assert err == "selftest: 1 of 3 identities failed\n"


# ---- disc


def test_disc_csv_and_concentration_note(tmp_path, capsys):
    out_file = tmp_path / "disc.csv"
    rc, _, err = run_cli(
        ["disc", "--n", "512", "--out", str(out_file)], capsys
    )
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "theta,re_phi,im_phi"
    assert len(lines) == 513
    assert (
        "boundary concentrates within delta=0.2 of the squeeze limit: true"
        in err
    )


def test_disc_json_schema(tmp_path, capsys):
    out_file = tmp_path / "disc.json"
    rc, _, _ = run_cli(
        ["disc", "--n", "256", "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"config", "concentrated_within_delta", "columns", "rows"}
    assert doc["concentrated_within_delta"] is True
    assert doc["columns"] == ["theta", "re_phi", "im_phi"]
    assert len(doc["rows"]) == 256
    assert doc["config"]["alpha"] == 0.1


def test_disc_concentration_where_the_arc_start_underflows(tmp_path, capsys):
    # exp(-delta/alpha) = exp(-1000) underflows; the check is answered in t = -log theta
    rc, _, err = run_cli(["disc", "--n", "16", "--alpha", "2e-4"], capsys)
    assert rc == 0
    assert err == "boundary concentrates within delta=0.2 of the squeeze limit: true\n"
    out_file = tmp_path / "disc.json"
    argv = ["disc", "--n", "16", "--alpha", "2e-4", "--format", "json", "--out", str(out_file)]
    assert run_cli(argv, capsys)[0] == 0
    assert json.loads(out_file.read_text())["concentrated_within_delta"] is True


# ---- flatness


def test_flatness_table_shape(tmp_path, capsys):
    out_file = tmp_path / "flat.csv"
    rc, _, _ = run_cli(["flatness", "--out", str(out_file)], capsys)
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "s,alpha,k,theta,log10_ratio"
    # 8 comparison exponents, 60 decades each
    assert len(lines) == 1 + 8 * 60
    assert lines[1].startswith("1.0,0.1,1,0.1,")
    log10_k1 = [float(line.split(",")[4]) for line in lines[1:61]]
    assert log10_k1[-1] - log10_k1[0] < -10


def test_flatness_table_format(capsys):
    rc, out, _ = run_cli(["flatness", "--s", "0.4,1", "--format", "table"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "alpha=0.1, grid theta=1e-1..1e-60"
    # columns: s, k, log10 first, log10 last, attenuation, flat to order k
    rows = {(row[0], row[1]): row[4:] for row in (line.split() for line in lines[2:])}
    assert len(rows) == 16
    assert rows[("1", "1")] == ["1e-577.7", "yes"]
    assert rows[("1", "8")] == ["1e-164.7", "yes"]
    assert rows[("0.4", "3")] == ["1e+170.3", "no"]


def test_flatness_evaluates_each_log_height_once(monkeypatch, capsys):
    ts = []  # the t = -log theta of each 1/|Im phi| evaluated

    def counted(alpha, t):
        ts.extend(np.ravel(t).tolist())
        return inv_abs_im_phi_logtheta(alpha, t)

    inv_abs_im_phi_logtheta = cli.inv_abs_im_phi_logtheta
    monkeypatch.setattr(cli, "inv_abs_im_phi_logtheta", counted)
    rc, _, _ = run_cli(["flatness", "--s", "0.4,1,2"], capsys)
    assert rc == 0
    # one 1/|Im phi| per grid point, shared by the 3 values of s and the 8 orders k
    assert ts == [-math.log(10.0**-j) for j in range(1, 61)]


@pytest.mark.parametrize("s,theta", [("98", "1e-59"), ("1e308", "0.1")])
def test_flatness_fails_numerically_where_the_height_exponent_overflows(tmp_path, capsys, s, theta):
    # at alpha 0.1, (1/|Im phi|)**98 passes the largest double near theta = 1e-59;
    # -inf would claim an exactly zero height, so the run fails instead
    out_file = tmp_path / "flat.json"
    rc, out, err = run_cli(["flatness", "--s", s, "--out", str(out_file)], capsys)
    assert rc == 2
    assert out == ""
    message = f"E = (1/|Im phi|)**s overflows doubles at s={float(s):g}, first at theta={theta}"
    assert err == f"numerical failure: {message}\n"
    assert json.loads(out_file.read_text()) == {"error": "DiscLabError", "message": message}


def test_flatness_below_the_overflow_keeps_its_bytes(capsys):
    rc, out, err = run_cli(["flatness", "--s", "90"], capsys)
    assert (rc, err) == (0, "")
    digest = "55ebddef7731a01cde64ed30ee3f1cee23b10cba27e42908757ffac7d7c957b8"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_s_never_ends_in_a_traceback_or_a_warning(capsys):
    # each subcommand that raises E = inv**s either answers or fails numerically
    for sub in ("flatness", "fa-scan"):
        for s in ("0.6", "1", "10", "50", "97", "98", "150", "300", "1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, _, err = run_cli([sub, "--s", s], capsys)
            assert rc in (0, 2), (sub, s)
            assert "Traceback" not in err and "Warning" not in err, (sub, s)


# ---- fa-scan


def test_fa_scan_defaults(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    rc, _, err = run_cli(["fa-scan", "--out", str(out_file)], capsys)
    assert rc == 0
    assert "verdict s=1.0: vanishing" in err
    lines = out_file.read_text().splitlines()
    assert lines[0] == "s,alpha,f_alpha,abs_err,truncated"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert (float(first[0]), float(first[1])) == (1.0, 0.2)
    assert float(first[2]) == pytest.approx(6.959832152071541e-08, rel=1e-10)
    assert first[4] == "false"


def test_fa_scan_json_verdicts(tmp_path, capsys):
    out_file = tmp_path / "scan.json"
    rc, _, _ = run_cli(
        ["fa-scan", "--format", "json", "--out", str(out_file)], capsys
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {"config", "columns", "rows", "verdicts"}
    assert doc["verdicts"] == [{"s": 1.0, "verdict": "vanishing"}]
    assert len(doc["rows"]) == 3


def test_fa_scan_table_format(capsys):
    rc, out, _ = run_cli(
        [
            "fa-scan",
            "--s",
            "0.75,1,2",
            "--alphas",
            "0.2,0.1,0.05,0.025,0.0125",
            "--format",
            "table",
        ],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["s", "alpha", "F_alpha", "log", "F_alpha", "rel_err", "trunc"]
    # (s, alpha) -> (log F_alpha, trunc)
    rows = {(r[0], r[1]): (r[3], r[5]) for r in (line.split() for line in lines[1:16])}
    assert rows[("0.75", "0.025")] == ("21.5992", "false")
    assert rows[("0.75", "0.0125")] == ("101.5723", "true")
    assert rows[("2", "0.025")][0] == "-21622.7640"
    assert lines[-3:] == [
        "s=0.75: diverging as alpha decreases",
        "s=1: vanishing as alpha decreases",
        "s=2: vanishing as alpha decreases",
    ]


# the CSV bytes of this scan, digit for digit; a change to the quadrature
# that moves any trailing digit of any cell shows up here
FA_SCAN_GOLDEN_CSV = """\
s,alpha,f_alpha,abs_err,truncated
0.6,0.2,4692349353135.344,16194.366198992888,false
0.6,0.1,4.747978425739268e+76,2.926571720376468e+67,true
0.6,0.05,6.075577056440745e+135,1.3441756854236968e+126,true
0.6,0.025,6.652472433320952e+173,1.5927562642227083e+164,true
0.6,0.0125,2.927459066041266e+197,8.349365585667582e+187,true
0.75,0.2,0.03643654458165234,7.959747277669702e-11,false
0.75,0.1,0.058618955995496026,1.2960005811680738e-10,false
0.75,0.05,2.974975551563458,5.390081103160319e-09,false
0.75,0.025,2401016942.605283,9.215241141163412,false
0.75,0.0125,1.2950528646389868e+44,2.1649265160387277e+35,true
1.0,0.2,6.959832152071541e-08,4.714479293294541e-16,false
1.0,0.1,1.834815460075451e-13,7.677003640256756e-22,false
1.0,0.05,8.278842178185646e-25,2.0166360658798224e-33,false
1.0,0.025,1.3931885150749028e-47,3.4108176636026147e-56,false
1.0,0.0125,3.583067647324479e-93,6.9975385825595075e-102,false
1.5,0.2,1.2553355921522868e-40,5.216747103038019e-49,false
1.5,0.1,9.123750345873248e-102,5.1572278884015953e-110,false
1.5,0.05,4.841742987676931e-274,2.1816114154358446e-282,false
1.5,0.025,0.0,0.0,false
1.5,0.0125,0.0,0.0,false
2.0,0.2,7.2532803735967255e-186,1.1758275089105564e-193,false
2.0,0.1,0.0,0.0,false
2.0,0.05,0.0,0.0,false
2.0,0.025,0.0,0.0,false
2.0,0.0125,0.0,0.0,false
"""


def test_fa_scan_csv_bytes_are_pinned(capsys):
    rc, out, err = run_cli(
        [
            "fa-scan",
            "--s",
            "0.6,0.75,1.0,1.5,2.0",
            "--alphas",
            "0.2,0.1,0.05,0.025,0.0125",
            "--delta",
            "1.0",
        ],
        capsys,
    )
    assert rc == 0
    assert out == FA_SCAN_GOLDEN_CSV
    assert err.splitlines() == [
        "verdict s=0.6: diverging",
        "verdict s=0.75: diverging",
        "verdict s=1.0: vanishing",
        "verdict s=1.5: vanishing",
        "verdict s=2.0: vanishing",
    ]


def test_fa_scan_reports_failed_cells_in_every_format(monkeypatch, capsys):
    # with Simpson's depth guard at 0 every cell fails numerically
    monkeypatch.setattr(asymptotics, "_MAX_DEPTH", 0)
    argv = ["fa-scan", "--s", "1", "--alphas", "0.2,0.1,0.05", "--format"]
    alphas = (0.2, 0.1, 0.05)
    note = "verdict s=1.0: inconclusive\nfa-scan: 3 cell(s) failed numerically (nan rows)\n"
    rc, out, err = run_cli(argv + ["csv"], capsys)
    assert (rc, err) == (2, note)
    assert out.splitlines()[1:] == [f"1.0,{a},nan,nan," for a in alphas]
    rc, out, err = run_cli(argv + ["json"], capsys)
    assert (rc, err) == (2, note)
    doc = json.loads(out)
    assert doc["rows"] == [[1.0, a, None, None, None] for a in alphas]
    assert doc["verdicts"] == [{"s": 1.0, "verdict": "inconclusive"}]
    rc, out, err = run_cli(argv + ["table"], capsys)
    assert (rc, err) == (2, note)
    lines = out.splitlines()
    assert [line.split() for line in lines[1:4]] == [["1", f"{a:g}", "failed"] for a in alphas]
    assert lines[4:] == ["", "s=1: inconclusive as alpha decreases"]


def test_fa_scan_with_nothing_to_integrate_is_a_validation_error(capsys):
    # delta/alpha = 120/0.2 is the default cap: the first cell is empty
    rc, out, err = run_cli(
        ["fa-scan", "--delta", "120", "--alphas", "0.2,0.1,0.05"], capsys
    )
    assert rc == 1
    assert out == ""
    assert err == (
        "validation error: t_max_cap 600.0 is not above the lower limit "
        "delta/alpha = 600.000\n"
    )


# sha256 of the CSV on stdout.  These pin this tree's Simpson digits, not
# true values (ROADMAP F3), and the tanh-sinh rule of ROADMAP item 3
# re-pins them; the last grid's "vanishing" at s = 0.85 is a known-wrong
# verdict (F4), so only stdout is pinned
FA_SCAN_GRID = ["--s", "0.6,0.75,1.0,1.5,2.0", "--alphas", "0.2,0.1,0.05,0.025,0.0125"]


@pytest.mark.parametrize(
    "argv,code,digest",
    [
        (
            FA_SCAN_GRID + ["--delta", "0.8"],
            0,
            "d3502350ae3666ae4060e515cd5ad1af8377ab9f34923fa55dd474031df838e5",
        ),
        (
            FA_SCAN_GRID + ["--delta", "1.2"],
            0,
            "de6278353869e3359a7232c9e47258532799e7900b48a43a3b0283d89043130c",
        ),
        (  # cell (3, 0.002) fails numerically
            ["--s", "0.55,0.85,3", "--alphas", "0.2,0.1,0.05,0.02,0.01,0.005,0.002"]
            + ["--delta", "1"],
            2,
            "9e6c99796746c4de4508e7a2282bddc91e6ef472c0942df46914e035dc609ced",
        ),
    ],
)
def test_fa_scan_stdout_hashes_are_pinned(argv, code, digest, capsys):
    rc, out, _ = run_cli(["fa-scan"] + argv, capsys)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fa_scan_at_large_s_fails_each_cell_without_a_warning(capsys):
    # inv**s overflows doubles at s = 300 on every crest-scan node, so each
    # cell fails before Simpson; at s = 90 only past the crest, and each
    # cell fails at Simpson's depth guard on the cliff at t0
    alphas = (0.2, 0.1, 0.05)
    for s in ("300", "90"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_cli(["fa-scan", "--s", s, "--alphas", "0.2,0.1,0.05"], capsys)
        assert rc == 2
        assert out.splitlines()[1:] == [f"{s}.0,{a},nan,nan," for a in alphas]
        assert err == (
            f"verdict s={s}.0: inconclusive\nfa-scan: 3 cell(s) failed numerically (nan rows)\n"
        )


# ---- attach


def test_attach_undeformed_json(tmp_path, capsys):
    out_file = tmp_path / "attach.json"
    rc, _, err = run_cli(
        ["attach", "--n", "4096", "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {
        "config",
        "deformed",
        "iterations",
        "residual",
        "contraction",
        "converged",
        "holomorphy_defect",
        "holder_seminorm",
        "attachment_residual",
        "sup_u",
        "sup_v",
    }
    assert doc["deformed"] is False
    assert doc["converged"] is True
    assert doc["iterations"] == 2
    assert doc["residual"] == 0.0
    assert 0.0 < doc["sup_u"] < 1e-6
    assert "attached in 2 iterations" in err


def test_attach_deformed_csv(tmp_path, capsys):
    out_file = tmp_path / "attach.csv"
    rc, _, _ = run_cli(
        [
            "attach",
            "--n",
            "4096",
            "--delta",
            "0.2",
            "--eta",
            "1.0",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "theta,re_phi,im_phi,u,v"
    assert len(lines) == 4097
    u_max = max(abs(float(line.split(",")[3])) for line in lines[1:])
    # the harmonic extension tops out at the bump plateau, delta / 2
    assert u_max == pytest.approx(0.1, rel=0.05)


def test_attach_unresolved_grid_is_a_usage_problem(capsys):
    rc, _, err = run_cli(
        ["attach", "--n", "16384", "--eps-window", "1.2"], capsys
    )
    assert rc == 1
    assert "validation error" in err
    assert "65536" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the window exp(-5000) underflows to 0; the needed size is still named
        (
            ["attach", "--n", "4096", "--alpha", "0.2", "--eps-window", "2000"],
            "grid of 4096 nodes cannot resolve the deformation window exp(-5000); "
            "need n >= 2^7221",
        ),
        (
            ["propagate", "--n", "4096", "--alpha", "0.2", "--eps-window", "2000"],
            "grid of 4096 nodes cannot resolve the deformation window exp(-5000); "
            "need n >= 2^7221",
        ),
        (
            ["attach", "--n", "4096", "--alpha", "0.2", "--delta", "inf"],
            "delta must be positive and finite, got inf",
        ),
        # every searched alpha's window is checked before the first run
        (
            ["propagate", "--n", "4096", "--alphas", "0.2,0.02"],
            "grid of 4096 nodes cannot resolve the deformation window 6.737947e-03; "
            "need n >= 16384",
        ),
        (["propagate", "--alphas", "0.2,0.1", "--alpha", "5"], "alpha must lie in (0, 1], got 5.0"),
        (
            ["propagate", "--n", "4096", "--alpha", "0.2", "--delta", "inf"],
            "delta must be positive and finite, got inf",
        ),
        (["attach", "--s", "inf", "--format", "json"], "s must be positive and finite, got inf"),
        (["attach", "--eps-window", "nan"], "eps_window must be positive and finite, got nan"),
        (["flatness", "--s", "1,inf"], "s must be positive and finite, got inf"),
        (["fa-scan", "--s", "inf"], "s must be finite and exceed 1/2"),
        (["fa-scan", "--delta", "inf"], "delta must be positive and finite, got inf"),
        (["propagate", "--s", "inf"], "s must be positive and finite, got inf"),
        (["disc", "--alpha", "1e-320"], "delta / alpha must be finite, got 0.2 / 1e-320"),
    ],
    ids=[
        "attach-window-underflow",
        "propagate-window-underflow",
        "propagate-search-window",
        "propagate-search-alpha",
        "attach-delta-inf",
        "propagate-delta-inf",
        "attach-s-inf",
        "attach-eps-window-nan",
        "flatness-s-inf",
        "fa-scan-s-inf",
        "fa-scan-delta-inf",
        "propagate-s-inf",
        "disc-alpha-subnormal",
    ],
)
def test_unusable_window_or_nonfinite_parameter_is_a_validation_error(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("validation error: " + message)
    assert "Traceback" not in err


def _bump(**kw):
    base = FlatProfile(kind=KIND_IM, s=1.0)
    return BumpDeformation(**{"base": base, "delta": 0.2, "alpha": 0.1, **kw})


# per parameter: the owner's message, then the owner and every class that
# calls its check, each building one object from the bad value, then the
# command lines that take the value as a flag
_OWNERS = {
    "alpha": (
        "alpha must lie in (0, 1], got {}",
        (
            lambda v: DiscFamilyParams(alpha=v),
            lambda v: _bump(alpha=v),
            lambda v: FAlphaSpec(alpha=v, s=1.0),
            lambda v: ExperimentConfig(s=1.0, alpha=v),
        ),
        ("disc --alpha", "flatness --alpha", "attach --alpha", "propagate --alpha"),
    ),
    "s": (
        "s must be positive and finite, got {}",
        (
            lambda v: FlatProfile(kind=KIND_IM, s=v),
            lambda v: ExperimentConfig(s=v, alpha=0.1),
        ),
        ("flatness --s", "attach --s", "propagate --s"),
    ),
    "delta": (
        "delta must be positive and finite, got {}",
        (
            lambda v: _bump(delta=v),
            lambda v: FAlphaSpec(alpha=0.1, s=1.0, delta=v),
            lambda v: ExperimentConfig(s=1.0, alpha=0.1, delta=v),
        ),
        ("fa-scan --delta", "attach --delta", "propagate --delta"),
    ),
    "eta": (
        "eta must lie in [-1, 1], got {}",
        (
            lambda v: _bump(eta=v),
            lambda v: ExperimentConfig(s=1.0, alpha=0.1, eta_grid=(v,)),
        ),
        ("attach --eta", "propagate --etas"),
    ),
    "tol": (
        "tol must be positive and finite, got {}",
        (
            lambda v: BishopProblem(
                grid=CircleGrid(n=8),
                disc=DiscFamilyParams(alpha=0.1),
                surface=FlatProfile(kind=KIND_IM, s=1.0),
                tol=v,
            ),
        ),
        ("attach --n 1024 --format json --tol", "propagate --n 4096 --alpha 0.2 --tol"),
    ),
}
_BAD_VALUES = [
    ("alpha", 0.0),
    ("alpha", 1.5),
    ("alpha", math.nan),
    ("s", math.inf),
    ("s", math.nan),
    ("delta", math.inf),
    ("delta", math.nan),
    ("eta", math.nan),
    ("eta", 1.5),
    ("tol", 0.0),
    ("tol", math.inf),
    ("tol", math.nan),
]


@pytest.mark.parametrize("name, bad", _BAD_VALUES, ids=[f"{n}-{v}" for n, v in _BAD_VALUES])
def test_one_owner_reports_each_bad_parameter(name, bad, capsys):
    template, builders, commands = _OWNERS[name]
    message = template.format(bad)
    for build in builders:
        with pytest.raises(ValueError) as exc:
            build(bad)
        assert str(exc.value) == message
    for command in commands:
        rc, out, err = run_cli(command.split() + [str(bad)], capsys)
        assert (rc, out, err) == (1, "", f"validation error: {message}\n"), command


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--etas", "nan,1"], None, "eta must lie in [-1, 1], got nan"),
        ([], '{"etas": [NaN, 1]}', "eta must lie in [-1, 1], got nan"),
        (["--alphas", "0.2,nan"], None, "alpha values must be strictly decreasing, got [0.2, nan]"),
        (["--alphas", "0.2,0.1,-0.1"], None, "alpha must lie in (0, 1], got -0.1"),
        (["--alphas", "0.2,0.1,0"], None, "alpha must lie in (0, 1], got 0.0"),
    ],
    ids=["etas-flag", "etas-config", "alphas-flag", "alphas-negative", "alphas-zero"],
)
def test_nan_in_a_propagate_grid_is_a_validation_error(argv, config, message, tmp_path, capsys):
    # these once wrote a row nan,nan,nan,true, or returned at alpha = 0.2 (whose disc points
    # down) before reaching the NaN or the out-of-range alpha
    if config is not None:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(config)
        argv = argv + ["--config", str(cfg_file)]
    rc = dispatch(["propagate", "--s", "1", "--alpha", "0.2", "--n", "4096"] + argv)
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (1, "", f"validation error: {message}\n")


@pytest.mark.parametrize("delta", ["nan", "0.8", "0"])
def test_disc_delta_is_checked_on_every_run(delta, capsys):
    argv = ["disc", "--n", "8", "--delta", delta, "--format", "json"]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == ""
    assert err == f"validation error: delta must lie in (0, 1/log 4), got {float(delta)}\n"


def test_attach_nonconvergence_exit_code_and_payload(tmp_path, capsys):
    out_file = tmp_path / "attach.json"
    rc, _, err = run_cli(
        [
            "attach",
            "--n",
            "4096",
            "--max-iter",
            "1",
            "--format",
            "json",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert rc == 2
    assert "numerical failure" in err
    doc = json.loads(out_file.read_text())
    assert doc["error"] == "NotConverged"
    assert "1 iterations" in doc["message"]


def test_unwritable_out_is_an_output_error(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(["attach", "--n", "1024", "--out", str(out_file)], capsys)
    assert (rc, out) == (1, "")
    (line,) = err.splitlines()
    assert line.startswith("output error: ") and str(out_file) in line
    assert not out_file.parent.exists()


def test_numerical_failure_with_unwritable_out(tmp_path, capsys):
    out_file = tmp_path / "missing" / "x.json"
    argv = ["propagate", "--n", "4096", "--alpha", "0.2", "--max-iter", "1"]
    rc, out, err = run_cli(argv + ["--out", str(out_file)], capsys)
    assert (rc, out) == (1, "")
    failure, output = err.splitlines()
    assert failure.startswith("numerical failure: ")
    assert output.startswith("output error: ") and str(out_file) in output


# ---- configuration layering


def test_config_file_then_flags(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 0.2, "n": 2048}))
    out_file = tmp_path / "disc.json"
    rc, _, _ = run_cli(
        [
            "disc",
            "--config",
            str(cfg_file),
            "--alpha",
            "0.05",
            "--format",
            "json",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    # flag beats config file; config file beats the built-in default
    assert doc["config"]["alpha"] == 0.05
    assert doc["config"]["n"] == 2048


def test_unknown_config_key_rejected(tmp_path, capsys):
    # a key that a subcommand has dropped is refused like any unknown one
    cfg_file = tmp_path / "cfg.json"
    for sub, cfg in (("disc", {"bogus": 3}), ("propagate", {"eps_shift": 0.0})):
        cfg_file.write_text(json.dumps(cfg))
        rc, _, err = run_cli([sub, "--config", str(cfg_file)], capsys)
        assert rc == 1
        assert f"unknown config key {next(iter(cfg))!r} for subcommand {sub!r}" in err


@pytest.mark.parametrize(
    "sub, cfg",
    [
        ("fa-scan", {"s": 1}),
        ("disc", {"n": [1]}),
        # int() and float() would take these; the matching flags are refused
        ("disc", {"alpha": True}),
        ("disc", {"n": 300.9}),
        ("disc", {"n": True}),
        ("fa-scan", {"s": [True, 1]}),
        ("fa-scan", {"alphas": [0.2, False]}),
    ],
)
def test_wrong_typed_config_value_rejected(tmp_path, capsys, sub, cfg):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    rc, _, err = run_cli([sub, "--config", str(cfg_file)], capsys)
    assert rc == 1
    (key,) = cfg
    assert f"validation error: config key {key!r} for subcommand {sub!r}" in err


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "validation error: cannot read config file {path}: [Errno 2] No such file"),
        ("{not json", "validation error: cannot read config file {path}: Expecting property"),
        ("[0.2]", "validation error: config file must hold a JSON object"),
    ],
    ids=["missing", "invalid-json", "not-an-object"],
)
def test_unreadable_config_file_rejected(text, message, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    if text is not None:
        cfg_file.write_text(text)
    rc, out, err = run_cli(["disc", "--config", str(cfg_file)], capsys)
    assert (rc, out) == (1, "")
    assert err.startswith(message.format(path=cfg_file))


def test_bad_flag_value_is_usage_error(capsys):
    rc, _, err = run_cli(["disc", "--n", "notanint"], capsys)
    assert rc == 1
    assert "usage error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, err = run_cli(["frobnicate"], capsys)
    assert rc == 1
    assert "usage error" in err


# ---- propagate


PROPAGATE_ARGS = [
    "propagate",
    "--s",
    "1.0",
    "--alpha",
    "0.2",
    "--n",
    "4096",
    "--etas",
    "-1,-0.5,0,0.5,1",
]


def test_propagate_csv_values_and_determinism(tmp_path, capsys):
    first = tmp_path / "prop1.csv"
    second = tmp_path / "prop2.csv"
    rc, _, err = run_cli(PROPAGATE_ARGS + ["--out", str(first)], capsys)
    assert rc == 0
    assert "points_down=true" in err
    rc, _, _ = run_cli(PROPAGATE_ARGS + ["--out", str(second)], capsys)
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == "eta,radial_derivative,min_x2,converged"
    assert len(lines) == 6
    # negative etas parse as list entries, not as stray option flags
    etas = [float(line.split(",")[0]) for line in lines[1:]]
    assert etas == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert lines[3] == "0.0,-5.4967538708868927e-05,5.4970135033978815e-09,true"
    rd = [float(line.split(",")[1]) for line in lines[1:]]
    assert rd[0] == pytest.approx(-7.011419948665346e-02, rel=1e-9)
    assert rd[-1] == pytest.approx(7.000426440926033e-02, rel=1e-9)


def test_propagate_json_schema(tmp_path, capsys):
    out_file = tmp_path / "prop.json"
    rc, _, _ = run_cli(
        PROPAGATE_ARGS + ["--format", "json", "--out", str(out_file)], capsys
    )
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert set(doc) == {
        "alpha",
        "radial_derivative",
        "radial_derivative_spectral",
        "radial_derivative_quadrature",
        "radial_discrepancy",
        "points_down",
        "transversal_profile",
        "eta_classifications",
        "coverage_min_x2",
        "config",
    }
    assert doc["points_down"] is True
    assert len(doc["eta_classifications"]) == 5
    cell = doc["eta_classifications"][0]
    assert set(cell) == {
        "eta",
        "converged",
        "on_surface",
        "in_ball",
        "neither",
        "radial_derivative",
        "min_x2",
    }
    assert cell["neither"] == 0
    assert doc["config"]["eta_grid"] == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_propagate_table_format(capsys):
    rc, out, _ = run_cli(
        ["propagate", "--s", "1", "--alpha", "0.2", "--n", "4096", "--format", "table"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "s=1  alpha=0.2  delta=0.2  n=4096"
    assert "points_down=true  coverage_min_x2=-7.035e-04" in lines
    assert "  r=0.99     u=-7.035357e-04" in lines
    # the eta table ends with the default grid's eta = 1 row
    assert lines[-1].split()[:2] == ["1.00", "true"]


def test_propagate_alpha_search_flag(tmp_path, capsys):
    out_file = tmp_path / "prop.json"
    rc, _, err = run_cli(
        PROPAGATE_ARGS
        + ["--alphas", "0.2,0.1", "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert rc == 0
    assert "alpha=0.2:" in err
    doc = json.loads(out_file.read_text())
    assert doc["alpha"] == 0.2
    assert doc["points_down"] is True


# the exact bytes of PROPAGATE_ARGS in each format and of an alpha search;
# a change that moves any trailing digit of any cell shows up here
_PROPAGATE_NOTE = (
    "alpha=0.2: radial derivative 7.000426e-02 (quadrature) vs 7.000426e-02 "
    "(spectral), points_down=true, coverage_min_x2=-7.035e-04\n"
)


@pytest.mark.parametrize(
    "extra, golden, note",
    [
        ([], "propagate.csv", _PROPAGATE_NOTE),
        (["--format", "json"], "propagate.json", _PROPAGATE_NOTE),
        (["--format", "table"], "propagate.table", _PROPAGATE_NOTE),
        (
            ["--alphas", "0.3,0.2,0.1"],
            "propagate_alphas.csv",
            "alpha=0.3: radial derivative 5.732856e-02 (quadrature) vs 5.732856e-02 "
            "(spectral), points_down=true, coverage_min_x2=-5.762e-04\n",
        ),
    ],
    ids=["csv", "json", "table", "alpha-search"],
)
def test_propagate_bytes_are_pinned(extra, golden, note, capsys):
    rc, out, err = run_cli(PROPAGATE_ARGS + extra, capsys)
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()
    assert err == note


def test_propagate_exhausted_alpha_search_bytes(capsys):
    rc, out, err = run_cli(
        ["propagate", "--s", "0.6", "--n", "4096", "--etas", "1", "--alphas", "0.2,0.1"],
        capsys,
    )
    message = "no alpha in [0.2, 0.1] produced a downward-pointing disc at s = 0.6"
    assert rc == 2
    assert out == (
        '{\n  "error": "NoAdmissibleAlpha",\n  "message": "' + message + '"\n}\n'
    )
    assert err == "numerical failure: " + message + "\n"


def test_propagate_alpha_search_names_the_runs_that_did_not_converge(capsys):
    # one Picard step attaches no disc at any alpha: the search must not
    # read that as every disc pointing up
    rc, out, err = run_cli(
        ["propagate", "--n", "4096", "--alphas", "0.2,0.1", "--max-iter", "1"], capsys
    )
    message = (
        "no alpha in [0.2, 0.1] produced a downward-pointing disc at s = 1.0; "
        "the run did not converge at alpha in [0.2, 0.1]"
    )
    assert rc == 2
    assert json.loads(out) == {"error": "NoAdmissibleAlpha", "message": message}
    assert err == "numerical failure: " + message + "\n"


def _jsonable_of_a_copy(x):
    """JSON-ready copy of a dict/list tree: the reference, on dataclasses.asdict of a
    report, for cli's own walk of the report's dataclasses."""
    if isinstance(x, dict):
        return {k: _jsonable_of_a_copy(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable_of_a_copy(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        xf = float(x)
        return xf if math.isfinite(xf) else None
    return x


@pytest.mark.parametrize("fail_flat_solve", [False, True], ids=["converged", "eta0-failed"])
def test_propagate_json_is_the_text_of_the_report_walked_by_asdict(
    fail_flat_solve, monkeypatch, capsys
):
    def failing_at_zero(sweep, etas):
        discs = solve(sweep, etas)
        return [NotConverged("refused for the test") if eta == 0.0 else d
                for eta, d in zip(etas, discs)]

    solve = propagation._Sweep.solve
    if fail_flat_solve:
        monkeypatch.setattr(propagation._Sweep, "solve", failing_at_zero)
    reports = []
    run = propagation.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: reports.append(run(cfg)) or reports[-1])
    argv = ["propagate", "--s", "1", "--alpha", "0.2", "--n", "4096", "--etas=-1,0,0.5,-0.0,1"]
    rc, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert rc == 0
    (report,) = reports
    assert out == json.dumps(_jsonable_of_a_copy(dataclasses.asdict(report)), indent=2) + "\n"
    # the NaN fields of the cells lost with the flat solve are written as null
    assert ('"radial_derivative": null' in out) is fail_flat_solve


# ---- CSV writer


# each CSV subcommand's bytes at a small size, with its stderr note
_CSV_GOLDEN = [
    (
        ["attach", "--n", "1024", "--delta", "0.2", "--eta", "1.0"],
        "attach_deformed.csv",
        "attached in 2 iterations; residual 0.000e+00, attachment 2.207e-13, "
        "holomorphy defect 4.070e-18\n",
    ),
    (
        ["attach", "--n", "1024"],
        "attach.csv",
        "attached in 2 iterations; residual 0.000e+00, attachment 6.705e-15, "
        "holomorphy defect 2.877e-25\n",
    ),
    (
        ["disc", "--n", "1024"],
        "disc.csv",
        "boundary concentrates within delta=0.2 of the squeeze limit: true\n",
    ),
    (["flatness", "--s", "0.4,1"], "flatness.csv", ""),
]
_CSV_IDS = ["attach-deformed", "attach", "disc", "flatness"]


@pytest.mark.parametrize("argv, golden, note", _CSV_GOLDEN, ids=_CSV_IDS)
def test_csv_bytes_are_pinned(argv, golden, note, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()
    assert err == note


@pytest.mark.parametrize("chunk_rows", [1, 7, 1024])
def test_csv_chunk_size_leaves_the_bytes(chunk_rows, monkeypatch, capsys):
    # 1024 rows (960 for flatness): one row per chunk, a ragged last chunk, one chunk
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    for argv, golden, _ in _CSV_GOLDEN:
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert out == (GOLDEN / golden).read_text(), golden


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
def test_csv_writer_mixed_and_special_columns(chunk_rows, tmp_path, monkeypatch):
    # no golden file holds these: nan, +-inf, -0.0, subnormals and both
    # notations, beside int, bool and tuple columns and a second float
    # column after them, and then as a block of float arrays only, which
    # alone goes through the encoder; the reference is the per-row
    # repr/str formula
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308]
    special += [1e-5, 1e-4, 0.1, -1.5, 1e16, 9999999999999998.0, 1e22, 2.0**53 + 2, -1.8e308]
    spread = np.random.default_rng(5).standard_normal(23) * 10.0 ** np.arange(-11, 12)
    floats = np.concatenate([special, spread])
    ints = np.arange(len(floats)) - 20
    flags = ints % 3 == 0
    backwards = tuple(floats[::-1].tolist())
    scaled = -floats[::-1] * 1e-3
    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk_rows)
    out_file = tmp_path / "mixed.csv"
    header = ("x", "k", "flag", "y", "z")
    columns = (floats, ints, flags, backwards, scaled)
    cli._write_as(str(out_file), "csv", csv=lambda: (header, columns))
    rows = [
        ",".join([repr(float(x)), str(k), "true" if f else "false", repr(y), repr(float(z))])
        for x, k, f, y, z in zip(floats, ints, flags, backwards, scaled)
    ]
    assert out_file.read_text() == "x,k,flag,y,z\n" + "".join(row + "\n" for row in rows)

    third = np.sqrt(np.abs(floats)) * np.where(ints % 2 == 0, 1.0, -1.0)
    columns = (floats, scaled, third)
    cli._write_as(str(out_file), "csv", csv=lambda: (("x", "z", "w"), columns))
    rows = [",".join(repr(float(x)) for x in row) for row in zip(*columns)]
    assert out_file.read_text() == "x,z,w\n" + "".join(row + "\n" for row in rows)


def test_csv_block_without_float_arrays_calls_no_encoder(monkeypatch, capsys):
    # fa-scan's columns are tuples, so its rows are joined through _fmt
    def refuse(*args):
        raise AssertionError("the encoder was called")

    monkeypatch.setattr(cli, "csv_rows", refuse)
    monkeypatch.setattr(_floattext, "_encode_block", refuse)
    argv = ["fa-scan", "--s", "0.6,0.75,1.0,1.5,2.0", "--alphas", "0.2,0.1,0.05,0.025,0.0125"]
    rc, out, _ = run_cli(argv + ["--delta", "1.0"], capsys)
    assert rc == 0
    assert out == FA_SCAN_GOLDEN_CSV


def test_attach_csv_on_stdout_is_the_out_file_written_in_row_chunks(tmp_path, monkeypatch):
    argv = ["attach", "--n", "16384", "--delta", "0.2", "--eta", "1.0"]
    out_file = tmp_path / "attach.csv"
    assert dispatch(argv + ["--out", str(out_file)]) == 0

    pieces = []

    class Stdout:
        def write(self, text):
            pieces.append(text)

        def writelines(self, texts):
            for text in texts:
                self.write(text)

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert dispatch(argv) == 0
    assert "".join(pieces).encode("ascii") == out_file.read_bytes()
    # the header, then the rows a chunk at a time: the whole text is never one string
    rows = cli._CSV_CHUNK_ROWS
    assert len(pieces) == 1 + 16384 // rows
    assert [piece.count("\n") for piece in pieces[1:]] == [rows] * (16384 // rows)


def test_attach_csv_takes_one_encoder_pass_per_chunk(tmp_path, monkeypatch):
    # a chunk's float columns are encoded together, not one pass per column
    widths = []
    encode_block = _floattext._encode_block

    def counting(x, width):
        widths.append(width)
        return encode_block(x, width)

    monkeypatch.setattr(_floattext, "_encode_block", counting)
    argv = ["attach", "--n", "16384", "--delta", "0.2", "--eta", "1.0"]
    assert dispatch(argv + ["--out", str(tmp_path / "attach.csv")]) == 0
    # theta, re_phi, im_phi, u and v in each of the 16384 / 4096 chunks
    assert widths == [5] * (16384 // cli._CSV_CHUNK_ROWS) == [5] * 4


# ---- parser


# argparse lays out help and error texts differently from one Python
# release to the next; these were taken from Python 3.11
_PYTHON_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse texts are pinned for Python 3.11"
)


@_PYTHON_311
@pytest.mark.parametrize("sub", [None, *cli._SUBCOMMANDS])
def test_help_texts_are_pinned(sub, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(([sub] if sub else []) + ["--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / (f"help_{sub}.txt" if sub else "help.txt")).read_text()
    assert captured.err == ""


@_PYTHON_311
@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["frobnicate"],
            "argument subcommand: invalid choice: 'frobnicate' (choose from 'selftest', "
            "'disc', 'flatness', 'fa-scan', 'attach', 'propagate')",
        ),
        ([], "the following arguments are required: subcommand"),
        (["disc", "--n", "notanint"], "argument --n: invalid int value: 'notanint'"),
        (["disc", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (
            ["attach", "--format", "table"],
            "argument --format: invalid choice: 'table' (choose from 'csv', 'json')",
        ),
        (["propagate", "--s"], "argument --s: expected one argument"),
        (["fa-scan", "--s", ","], "argument --s: expected a comma-separated number list"),
        (["propagate", "--eps-shift", "0.1"], "unrecognized arguments: --eps-shift 0.1"),
    ],
)
def test_usage_error_texts_are_pinned(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_a_second_dispatch_builds_no_parser(monkeypatch, capsys):
    cli.build_parser.cache_clear()
    rc, _, _ = run_cli(["disc", "--n", "64"], capsys)
    assert rc == 0
    built = []
    init = cli._Parser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recorded)
    rc, _, _ = run_cli(["attach", "--n", "64"], capsys)
    assert rc == 0
    assert built == []


@_PYTHON_311
def test_help_from_the_cached_parser_is_pinned(monkeypatch, capsys):
    # the parser that parsed `disc` prints the help of `propagate`
    monkeypatch.setenv("COLUMNS", "80")
    rc, _, _ = run_cli(["disc", "--n", "64"], capsys)
    assert rc == 0
    with pytest.raises(SystemExit) as exc:
        main(["propagate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / "help_propagate.txt").read_text()


_PAYLOAD_RUNS = [
    (["disc", "--n", "64"], ("csv", "json")),
    (["flatness", "--s", "1"], ("csv", "json", "table")),
    (["fa-scan", "--s", "1", "--alphas", "0.2,0.1,0.05"], ("csv", "json", "table")),
    (["attach", "--n", "1024"], ("csv", "json")),
    (PROPAGATE_ARGS, ("csv", "json", "table")),
]


@pytest.mark.parametrize(
    "argv, fmt",
    [(argv, fmt) for argv, formats in _PAYLOAD_RUNS for fmt in formats],
    ids=[f"{argv[0]}-{fmt}" for argv, formats in _PAYLOAD_RUNS for fmt in formats],
)
def test_only_the_written_payload_is_built(argv, fmt, monkeypatch, capsys):
    built = []
    write_as = cli._write_as

    def recording(out_path, fmt, **payloads):
        def traced(name, build):
            def call():
                built.append(name)
                return build()

            return call

        write_as(out_path, fmt, **{name: traced(name, fn) for name, fn in payloads.items()})

    monkeypatch.setattr(cli, "_write_as", recording)
    rc, out, _ = run_cli(argv + ["--format", fmt], capsys)
    assert rc == 0 and out
    assert built == [fmt]


@pytest.mark.parametrize("fmt", ["csv", "json", "table"])
def test_propagate_builds_no_other_format(fmt, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built a payload that is not written")

    builders = {
        "csv": (cli, "_propagate_columns"),
        "json": (cli.dataclasses, "asdict"),
        "table": (cli, "_propagate_table"),
    }
    for name, (owner, attr) in builders.items():
        if name != fmt:
            monkeypatch.setattr(owner, attr, refuse)
    rc, out, _ = run_cli(PROPAGATE_ARGS + ["--format", fmt], capsys)
    monkeypatch.undo()
    assert rc == 0
    assert out == (GOLDEN / f"propagate.{fmt}").read_text()


# ---- package exports


def test_package_reexports_each_module_export_list():
    # every library module's __all__ resolves on the package; the front end is not re-exported
    names = []
    for info in pkgutil.iter_modules(disclab.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"disclab.{info.name}")
        for name in module.__all__:
            assert getattr(disclab, name) is getattr(module, name), (info.name, name)
        names.extend(module.__all__)
    assert len(disclab.__all__) == len(set(disclab.__all__))
    assert sorted(disclab.__all__) == sorted(["__version__", *names])


# public functions that nothing in src/ calls, each with the reason it stays
_UNCALLED_PUBLIC = {
    "cauchy_extend": "acceptance criterion 7 reproduces holomorphic data with it",
    "im_phi_expansion_check": "checks the paper's expansion of Im phi_alpha",
    "f_alpha": "the one-cell F_alpha API, which perfbench traces",
}


def test_each_public_function_is_called_from_src_or_kept_for_a_reason():
    # a reference is a name or attribute in code, or an import, outside the function's
    # own body; docstrings and __all__ strings are not code, and __init__ re-exports all
    package = pathlib.Path(disclab.__file__).parent
    referenced = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            names.discard(getattr(stmt, "name", None))
            referenced |= names
    uncalled = set()
    for info in pkgutil.iter_modules(disclab.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"disclab.{info.name}")
        functions = {name for name in module.__all__ if inspect.isfunction(getattr(module, name))}
        uncalled |= functions - referenced
    assert uncalled == set(_UNCALLED_PUBLIC)


# defaulted dataclass fields that no code in src/ or perfbench/ sets, each with the reason it stays
_UNSET_FIELDS = {
    "FAlphaSpec.t_max_cap": "the truncation tests cut the tail with it",
    "FAlphaSpec.rel_tol": "the depth-guard test tightens it",
    "ExperimentConfig.r_profile": "propagate's JSON config echoes it; the golden pins it",
    "ExperimentConfig.r_coverage": "propagate's JSON config echoes it; the golden pins it",
}


def test_each_defaulted_field_is_set_from_src_or_kept_for_a_reason():
    # a field is set by a keyword of a call to its class or to dataclasses.replace; a class
    # built from **kwargs also takes the CLI's parameter names and the string keys of cli.py
    root = pathlib.Path(__file__).resolve().parents[1]
    package = pathlib.Path(disclab.__file__).parent
    calls = [
        node
        for path in [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
    ]
    keywords = {}  # callee name -> names it is passed by keyword
    for call in calls:
        callee = getattr(call.func, "id", getattr(call.func, "attr", None))
        keywords.setdefault(callee, set()).update(k.arg for k in call.keywords)
    cli_keys = {
        node.slice.value
        for node in ast.walk(ast.parse(pathlib.Path(cli.__file__).read_text()))
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
    }
    cli_keys |= {param.name for spec in cli._SUBCOMMANDS.values() for param in spec.params}
    unset = set()
    for name in ("circle", "disc_family", "profiles", "bishop", "asymptotics", "propagation"):
        module = importlib.import_module(f"disclab.{name}")
        for cls in (getattr(module, n) for n in module.__all__):
            if not dataclasses.is_dataclass(cls):
                continue
            setters = keywords.get(cls.__name__, set()) | keywords.get("replace", set())
            if None in setters:  # a ** argument
                setters |= cli_keys
            unset |= {
                f"{cls.__name__}.{field.name}"
                for field in dataclasses.fields(cls)
                if field.name not in setters
                and not (field.default is dataclasses.MISSING
                         and field.default_factory is dataclasses.MISSING)
            }
    assert unset == set(_UNSET_FIELDS)


# ---- documentation


def _readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("disclab ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert dispatch(argv) == 0, argv
        capsys.readouterr()


# ---- module entry point


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "disclab.cli", "selftest", "--n", "256"],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.count("ok ") == 5


_WARM_FAULTS = """
import resource, sys
from disclab import cli
if sys.argv[2] == "off":
    cli._keep_heap_pages = lambda: None
argv = ["propagate", "--s", "1", "--alpha", "0.2", "--etas", "0,1", "--format", "json",
        "--out", sys.argv[1]]
assert cli.dispatch(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.dispatch(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _warm_call_faults(tmp_path, heap: str) -> int:
    """Minor faults of a second `propagate` call in a fresh child, heap setting "on" or "off"."""
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_FAULTS, str(tmp_path / f"{heap}.json"), heap],
        capture_output=True,
        text=True,
        timeout=120,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_a_warm_propagate_call_reuses_the_heap(tmp_path):
    # glibc maps and unmaps each block of 128 kB or more by default, so a warm
    # call without the thresholds dispatch sets faults in fresh pages for its
    # temporaries: 1,121-1,184 with disclab imported from a valid .pyc, 352-912
    # compiled from source.  With them it took 19-23 and 0-1 (once 33 of 576).
    # The counts follow the heap's layout, which the import path and the install
    # path set, so the bound is a ratio to a child in the same layout with the
    # setting off, a quarter: about 4x from either side of what was seen
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        pytest.skip("the C library has no mallopt")
    kept = _warm_call_faults(tmp_path, "on")  # a .pyc it writes is read by the next child
    lost = _warm_call_faults(tmp_path, "off")
    assert lost >= 128, "the heap setting's loss no longer shows here"
    assert 4 * kept <= lost, (kept, lost)


class _RefusingMallopt:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append(param)
        return 0


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll", [_no_c_library, lambda name: object()], ids=["oserror", "no-mallopt"]
)
def test_heap_settings_are_skipped_without_mallopt(cdll, monkeypatch, capsys):
    opened = []
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: opened.append(name) or cdll(name))
    assert cli._keep_heap_pages.__wrapped__() is None
    cli._keep_heap_pages.cache_clear()  # dispatch runs the fallback too
    rc, out, _ = run_cli(PROPAGATE_ARGS + ["--format", "json"], capsys)
    assert opened == [None, None]
    assert rc == 0
    assert out == (GOLDEN / "propagate.json").read_text()


def test_a_refused_mmap_threshold_sets_nothing_else(monkeypatch):
    lib = _RefusingMallopt()
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: lib)
    cli._keep_heap_pages.__wrapped__()
    assert lib.calls == [cli._M_MMAP_THRESHOLD]


def test_stdout_closed_by_its_reader():
    # the CSV is about 3 MB, so the child is still writing when the pipe closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "disclab.cli", "attach", "--n", "65536"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=package_env(),
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert header == "theta,re_phi,im_phi,u,v\n"
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in err and "Exception ignored" not in err

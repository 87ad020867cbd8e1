"""End-to-end checks of the command-line front end.

Everything runs in-process through main(argv) so exit codes, stdout,
stderr, and --out files can all be asserted cheaply; one subprocess
smoke test at the bottom confirms the module entry point works.
"""

import json
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from disclab import cli
from disclab.cli import dispatch, main

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


def test_disc_shifted_family_skips_concentration(capsys):
    # the concentration statement is about the unshifted family only
    rc, _, err = run_cli(["disc", "--n", "256", "--eps-shift", "0.05"], capsys)
    assert rc == 0
    assert "concentration check skipped" in err


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
    calls = []

    def counted(alpha, t):
        calls.append(t)
        return inv_abs_im_phi_logtheta(alpha, t)

    inv_abs_im_phi_logtheta = cli.inv_abs_im_phi_logtheta
    monkeypatch.setattr(cli, "inv_abs_im_phi_logtheta", counted)
    rc, _, _ = run_cli(["flatness", "--s", "0.4,1,2"], capsys)
    assert rc == 0
    # 60 grid points per s, shared by the 8 orders k
    assert len(calls) == 3 * 60


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
    ],
    ids=[
        "attach-window-underflow",
        "propagate-window-underflow",
        "attach-delta-inf",
        "propagate-delta-inf",
        "attach-s-inf",
        "attach-eps-window-nan",
        "flatness-s-inf",
        "fa-scan-s-inf",
        "fa-scan-delta-inf",
        "propagate-s-inf",
    ],
)
def test_unusable_window_or_nonfinite_parameter_is_a_validation_error(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err.startswith("validation error: " + message)
    assert "Traceback" not in err


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
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"bogus": 3}))
    rc, _, err = run_cli(["disc", "--config", str(cfg_file)], capsys)
    assert rc == 1
    assert "unknown config key 'bogus' for subcommand 'disc'" in err


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
    ],
)
def test_usage_error_texts_are_pinned(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_only_the_chosen_subcommand_gets_its_flags(monkeypatch, capsys):
    added = []
    add_argument = cli._Parser.add_argument

    def recorded(self, *flags, **kwargs):
        added.append(flags[0])
        return add_argument(self, *flags, **kwargs)

    monkeypatch.setattr(cli._Parser, "add_argument", recorded)
    rc, _, _ = run_cli(["disc", "--n", "64"], capsys)
    assert rc == 0
    assert [flag for flag in added if flag != "-h"] == [
        "--alpha",
        "--eps-shift",
        "--delta",
        "--n",
        "--out",
        "--format",
        "--config",
    ]


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
    )
    assert proc.returncode == 0
    assert proc.stdout.count("ok ") == 5

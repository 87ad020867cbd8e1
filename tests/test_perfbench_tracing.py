"""perfbench's layer tracer against the package attributes it rebinds.

`perfbench/tracing.py` wraps `disclab` module attributes by name
(`cli.run_experiment`, `propagation.profile_eval`, `bishop.hilbert_t1`,
...).  A rename or a dropped import under `src/` leaves every other test
green but breaks a traced benchmark run (`perfbench/run.py --trace 1`);
this test builds the tracer's bindings, traces two CLI calls, checks
that the spans of each layer they run fire, and that every original
attribute is back afterwards.
"""

import importlib
import pathlib

from disclab import cli

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_attribute_traces_a_call_and_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert pathlib.Path(tracing.__file__).parent == PERFBENCH
    tracer = tracing.Tracer()
    bindings = tracer._bindings()
    targets = [(owner, attr) for owner, attr, _ in bindings]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr in targets]

    argv = ["fa-scan", "--s", "1", "--alphas", "0.2,0.1,0.05", "--out", str(tmp_path / "scan.csv")]
    with tracer.installed(0):
        traced = [getattr(owner, attr) for owner, attr in targets]
        assert cli.dispatch(argv) == 0
    assert not any(now is orig for now, orig in zip(traced, originals))
    assert "asymptotics.dichotomy_scan" in tracer.names
    assert tracer.call_metrics(0, 0)["disc_family.inv_abs_im_phi_logtheta.calls"] > 0
    restored = [getattr(owner, attr) for owner, attr in targets]
    assert all(now is orig for now, orig in zip(restored, originals))

    argv = ["propagate", "--s", "1", "--alpha", "0.2", "--n", "4096", "--etas", "0,0.5,1",
            "--out", str(tmp_path / "prop.json")]
    with tracer.installed(1):
        assert cli.dispatch(argv) == 0
    m = tracer.call_metrics(1, 0)
    assert m["propagation.eta_cells"] == 3
    assert m["disc_family.phi_boundary.calls"] > 0
    assert m["profiles.boundary_trace.calls"] > 0

    # propagate solves through the block solve, which the tracer does not bind;
    # attach goes through solve_bishop
    argv = ["attach", "--s", "1", "--delta", "0.2", "--n", "1024", "--alpha", "0.2",
            "--eta", "1.0", "--out", str(tmp_path / "attach.csv")]
    with tracer.installed(2):
        assert cli.dispatch(argv) == 0
    m = tracer.call_metrics(2, 0)
    assert m["bishop.solve_bishop.calls"] == 1
    assert m["bishop.picard_iterations"] == 2

"""Outside-in layer trace of one `disclab` process.

While installed, the tracer rebinds the module attributes through which
each layer calls the one below it (`disclab.cli.run_experiment`,
`disclab.bishop.hilbert_t1`, ...) to wrappers that record a span per
call: name, start, end, parent span and request (CLI invocation).  The
FFTs of `disclab.circle` are counted by handing that module a numpy
whose `fft` namespace counts calls, input points and the bytes of input
and output (computed from array sizes, not measured).  Uninstalling puts
the original attributes back, so untraced calls run the library as
shipped; nothing under `src/` changes.

Spans stay in memory in flat arrays and are written once, at the end.
"""

from __future__ import annotations

import array
import contextlib
import gzip
import json
import statistics
import time
import types

LAYERS = ("cli", "propagation", "bishop", "asymptotics", "circle", "disc_family", "profiles")

# (unit, better) of every per-layer metric, in report order
METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "propagation.run_experiment.s": ("s", "lower"),
    "propagation.self_s": ("s", "lower"),
    "propagation.eta_cells": ("count", "higher"),
    "propagation.solves_per_cell": ("ratio", "lower"),
    "bishop.solve_bishop.calls": ("count", "lower"),
    "bishop.solve_bishop.s": ("s", "lower"),
    "bishop.picard_iterations": ("count", "lower"),
    "bishop.diagnostics_s": ("s", "lower"),
    "bishop.attachment_residual.s": ("s", "lower"),
    "bishop.self_s": ("s", "lower"),
    "circle.radial_derivative.quadrature.calls": ("count", "lower"),
    "circle.radial_derivative.quadrature.s": ("s", "lower"),
    "circle.radial_derivative.spectral.calls": ("count", "lower"),
    "circle.radial_derivative.spectral.s": ("s", "lower"),
    "circle.hilbert_t1.calls": ("count", "lower"),
    "circle.hilbert_t1.s": ("s", "lower"),
    "circle.poisson_radial.s": ("s", "lower"),
    "circle.fft.calls": ("count", "lower"),
    "circle.fft.points": ("count", "lower"),
    "circle.fft.bytes": ("B-computed", "lower"),
    "circle.self_s": ("s", "lower"),
    "asymptotics.f_alpha.calls": ("count", "lower"),
    "asymptotics.f_alpha.s": ("s", "lower"),
    "asymptotics.evals_per_cell": ("count", "lower"),
    "asymptotics.truncated_cells": ("count", "lower"),
    "asymptotics.failed_cells": ("count", "lower"),
    "asymptotics.self_s": ("s", "lower"),
    "disc_family.inv_abs_im_phi_logtheta.calls": ("count", "lower"),
    "disc_family.inv_abs_im_phi_logtheta.s": ("s", "lower"),
    "disc_family.phi_boundary.s": ("s", "lower"),
    "disc_family.phi_boundary.points": ("count", "lower"),
    "disc_family.self_s": ("s", "lower"),
    "profiles.boundary_trace.calls": ("count", "lower"),
    "profiles.boundary_trace.s": ("s", "lower"),
    "profiles.self_s": ("s", "lower"),
    "trace.call_s_p50": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Span and counter recorder for one worker process."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        # one entry per span: name id, parent span (-1 for a root), request
        self.name_of = array.array("l")
        self.parent = array.array("l")
        self.request_of = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict = {}  # (request, counter) -> amount
        self.request = -1
        self._stack: list = []
        self._first_span: dict = {}  # request -> index of its first span

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_of.append(self.request)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self.name_of[self._stack[-1]]] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.request, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    # ---------------------------------------------------------- rebinding

    def _wrap(self, fn, name, after=None):
        """fn recorded as span `name` (or name(args, kwargs)); re-entry folds in."""
        tracer = self

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if tracer.current() == span:
                return fn(*args, **kwargs)
            idx = tracer.open(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.count(span + ".raised")
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counting_numpy(self, np):
        tracer = self

        def counted(fn):
            def call(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                tracer.count("circle.fft.calls")
                tracer.count("circle.fft.points", a.size)
                tracer.count("circle.fft.bytes", a.nbytes + out.nbytes)
                return out

            return call

        fft = types.SimpleNamespace(
            rfft=counted(np.fft.rfft), irfft=counted(np.fft.irfft), fft=counted(np.fft.fft)
        )

        class CountingNumpy(types.ModuleType):
            def __getattr__(self, attr):
                return getattr(np, attr)

        proxy = CountingNumpy("numpy")
        proxy.fft = fft
        return proxy

    def _bindings(self):
        """(owner, attribute, replacement) for every traced layer boundary."""
        import numpy as np

        from disclab import asymptotics, bishop, circle, cli, profiles, propagation

        def cells(tr, args, report):
            tr.count("propagation.eta_cells", len(report.eta_classifications))

        def picard(tr, args, disc):
            tr.count("bishop.picard_iterations", disc.report.iterations)

        def points(tr, args, out):
            tr.count("disc_family.phi_boundary.points", len(out))

        def truncated(tr, args, res):
            tr.count("asymptotics.truncated_cells", int(res.truncated))

        def rd_name(args, kwargs):
            method = kwargs.get("method", args[1] if len(args) > 1 else "spectral")
            return f"circle.radial_derivative.{method}"

        w = self._wrap
        out = [
            (circle, "np", self._counting_numpy(np)),
            (cli, "run_experiment", w(propagation.run_experiment, "propagation.run_experiment", cells)),
            (cli, "dichotomy_scan", w(asymptotics.dichotomy_scan, "asymptotics.dichotomy_scan")),
            (asymptotics, "f_alpha", w(asymptotics.f_alpha, "asymptotics.f_alpha", truncated)),
            (asymptotics, "inv_abs_im_phi_logtheta",
             w(asymptotics.inv_abs_im_phi_logtheta, "disc_family.inv_abs_im_phi_logtheta")),
            (bishop, "phi_boundary",
             w(bishop.phi_boundary, "disc_family.phi_boundary", points)),
            (propagation, "profile_eval", w(propagation.profile_eval, "profiles.profile_eval")),
            (propagation, "poisson_radial", w(propagation.poisson_radial, "circle.poisson_radial")),
            (propagation, "radial_derivative", w(propagation.radial_derivative, rd_name)),
        ]
        for owner in (cli, propagation):
            out.append((owner, "solve_bishop", w(bishop.solve_bishop, "bishop.solve_bishop", picard)))
        out.append((cli, "attachment_residual",
                    w(bishop.attachment_residual, "bishop.attachment_residual")))
        for fn in ("hilbert_t1", "holder_seminorm", "holomorphy_defect"):
            out.append((bishop, fn, w(getattr(bishop, fn), f"circle.{fn}")))
        for cls in (profiles.FlatProfile, profiles.BumpDeformation):
            out.append((cls, "boundary_trace", w(cls.boundary_trace, "profiles.boundary_trace")))
        return out

    @contextlib.contextmanager
    def installed(self, request: int):
        """Trace one CLI invocation; the library is restored on exit."""
        bindings = self._bindings()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
        self.request = request
        self._first_span[request] = len(self.start)
        try:
            for owner, attr, repl in bindings:
                setattr(owner, attr, repl)
            yield
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)
            self.request = -1

    # ---------------------------------------------------------- reduction

    def call_metrics(self, request: int, out_bytes: int) -> dict:
        """Per-layer metrics of the latest traced invocation.

        Holds every METRICS name except trace.call_s_p50 and
        trace.overhead_s, which compare several invocations and are left
        to the caller.
        """
        name_of, start, end = self.name_of, self.start, self.end
        spans = range(self._first_span[request], len(start))
        child = {i: 0.0 for i in spans}
        for i in spans:
            if self.parent[i] >= 0:
                child[self.parent[i]] += end[i] - start[i]
        total: dict = {}
        calls: dict = {}
        self_by_layer = dict.fromkeys(LAYERS, 0.0)
        for i in spans:
            name = self.names[name_of[i]]
            dur = end[i] - start[i]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_by_layer[name.split(".")[0]] += dur - child[i]
        counts = {name: amount for (req, name), amount in self.counts.items() if req == request}

        m = {f"{layer}.self_s": s for layer, s in self_by_layer.items()}
        for name in ("propagation.run_experiment", "bishop.solve_bishop",
                     "bishop.attachment_residual", "circle.radial_derivative.quadrature",
                     "circle.radial_derivative.spectral", "circle.hilbert_t1",
                     "circle.poisson_radial", "asymptotics.f_alpha",
                     "disc_family.inv_abs_im_phi_logtheta", "disc_family.phi_boundary",
                     "profiles.boundary_trace"):
            m[f"{name}.s"] = total.get(name, 0.0)
            m[f"{name}.calls"] = calls.get(name, 0)
        m["bishop.diagnostics_s"] = total.get("circle.holder_seminorm", 0.0) + total.get(
            "circle.holomorphy_defect", 0.0
        )
        for name in ("circle.fft.calls", "circle.fft.points", "circle.fft.bytes",
                     "bishop.picard_iterations", "propagation.eta_cells",
                     "asymptotics.truncated_cells", "disc_family.phi_boundary.points"):
            m[name] = counts.get(name, 0)
        m["asymptotics.failed_cells"] = counts.get("asymptotics.f_alpha.raised", 0)
        cells = m["propagation.eta_cells"]
        m["propagation.solves_per_cell"] = m["bishop.solve_bishop.calls"] / cells if cells else 0.0
        f_calls = m["asymptotics.f_alpha.calls"]
        inv_calls = m["disc_family.inv_abs_im_phi_logtheta.calls"]
        m["asymptotics.evals_per_cell"] = inv_calls / f_calls if f_calls else 0.0
        m["cli.out_bytes"] = out_bytes
        return m

    def dump(self, path) -> None:
        """Write every span (times in ns from the first one) as gzipped JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        rows = [
            [i, self.parent[i], self.request_of[i], self.name_of[i],
             round((self.start[i] - t0) * 1e9), round((self.end[i] - t0) * 1e9)]
            for i in range(len(self.start))
        ]
        counts = [[req, name, amount] for (req, name), amount in sorted(self.counts.items())]
        doc = {"names": self.names, "columns": ["span", "parent", "request", "name", "start_ns", "end_ns"],
               "spans": rows, "counts": counts}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def median_metrics(per_call: list) -> dict:
    """Per-metric median over traced invocations."""
    return {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}

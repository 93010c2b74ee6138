"""Layer spans recorded from outside the bethe_xxz package.

While a Tracer is installed, the module attributes through which one layer
calls the next are replaced by wrappers that record one span per call; they
are restored when it is removed.  Spans are kept in memory and written out
once, when the run ends.  The package itself carries no tracing code.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

from bethe_xxz import cli, dispatch
from bethe_xxz.model import BetheError, SolutionClass

_ROUTE_OF_CLASS = {
    SolutionClass.NARROW_PAIR_COMPLEX: "string_solver.narrow",
    SolutionClass.WIDE_PAIR_COMPLEX: "string_solver.wide",
    SolutionClass.EXTRA_TWO_STRING: "string_solver.extra",
}

# (module, attribute, span name or function of the call's arguments).
# dispatch.solve_complex is split by the solution class it is asked for.
_PATCHES = (
    (cli, "enumerate_all", "quantum_numbers.enumerate_all"),
    (cli, "solve_quantum_pair", "dispatch.solve_quantum_pair"),
    (dispatch, "solve_pair", "height_solver.solve_pair"),
    (dispatch, "solve_equal", "equal_solver.solve_equal"),
    (dispatch, "solve_complex", lambda q, *_a, **_k: _ROUTE_OF_CLASS[q.cls]),
    (dispatch, "solve_boundary_string", "string_solver.boundary"),
    (dispatch, "singular_solution", "string_solver.singular"),
)

STRING_ROUTES = ("narrow", "wide", "extra", "boundary")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "failed", "iterations")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.failed = False
        self.iterations = 0


class NullTracer:
    """Calls straight through; used for the untraced, end-to-end runs."""

    def call(self, _name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder.  `op` is the id of the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        span = Span(name, self.op, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BetheError:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        span.iterations = getattr(result, "iterations", 0)
        return result

    @contextmanager
    def installed(self):
        """Route the package's inter-layer calls through this tracer."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _PATCHES]
        for (mod, attr, name), (_, _, fn) in zip(_PATCHES, saved):
            setattr(mod, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, name, fn):
        if callable(name):
            return lambda *a, **k: self.call(name(*a, **k), fn, *a, **k)
        return lambda *a, **k: self.call(name, fn, *a, **k)

    def self_times(self):
        """{span name: [self seconds, calls, failed, iterations]}."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals = {}
        for span, child in zip(self.spans, covered):
            agg = totals.setdefault(span.name, [0.0, 0, 0, 0])
            agg[0] += span.end - span.start - child
            agg[1] += 1
            agg[2] += span.failed
            agg[3] += span.iterations
        return totals

    def write(self, path, header):
        """One JSON line of run facts, then one line per span."""
        columns = ["id", "name", "op", "parent", "start", "end", "failed"]
        with open(path, "w") as handle:
            handle.write(json.dumps(dict(header, columns=columns)) + "\n")
            for i, s in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        [i, s.name, s.op, s.parent, s.start, s.end, s.failed]
                    )
                    + "\n"
                )


def layer_metrics(tracer, ops, counters):
    """Per-layer metrics, each a mean per traced operation of the workload.

    `counters` holds what the workload counted itself (oracle.mismatched,
    oracle.dim, oracle.hamiltonian_mb, cli.output_bytes); the rest comes
    from the spans.  A layer a workload never calls reads 0.
    """
    totals = tracer.self_times()

    def agg(name):
        return totals.get(name, [0.0, 0, 0, 0])

    out = {}
    enum = agg("quantum_numbers.enumerate_all")
    out["quantum_numbers.enumerate_s"] = (enum[0] / ops, "s")
    out["quantum_numbers.calls"] = (enum[1] / ops, "count")
    disp = agg("dispatch.solve_quantum_pair")
    out["dispatch.self_s"] = (disp[0] / ops, "s")
    out["dispatch.calls"] = (disp[1] / ops, "count")
    for layer, span in (
        ("height_solver", "height_solver.solve_pair"),
        ("equal_solver", "equal_solver.solve_equal"),
    ):
        busy, calls, failed, iters = agg(span)
        out[f"{layer}.busy_s"] = (busy / ops, "s")
        out[f"{layer}.calls"] = (calls / ops, "count")
        out[f"{layer}.failed"] = (failed / ops, "count")
        out[f"{layer}.iterations"] = (iters / ops, "count")
    string_calls = string_failed = 0
    for route in STRING_ROUTES:
        busy, calls, failed, _ = agg(f"string_solver.{route}")
        out[f"string_solver.{route}.busy_s"] = (busy / ops, "s")
        out[f"string_solver.{route}.calls"] = (calls / ops, "count")
        out[f"string_solver.{route}.failed"] = (failed / ops, "count")
        string_calls += calls
        string_failed += failed
    ok_ratio = (string_calls - string_failed) / string_calls if string_calls else 0.0
    out["string_solver.ok_ratio"] = (ok_ratio, "ratio")
    for metric, span in (
        ("build_hamiltonian_s", "oracle.build_hamiltonian"),
        ("exact_spectrum_s", "oracle.exact_spectrum"),
        ("bethe_vector_s", "oracle.bethe_vector"),
        ("rayleigh_s", "oracle.rayleigh_energy"),
    ):
        out[f"oracle.{metric}"] = (agg(span)[0] / ops, "s")
    out["oracle.vectors"] = (agg("oracle.bethe_vector")[1] / ops, "count")
    out["oracle.mismatched"] = (counters.get("oracle.mismatched", 0) / ops, "count")
    out["oracle.dim"] = (counters.get("oracle.dim", 0), "count")
    out["oracle.hamiltonian_mb"] = (counters.get("oracle.hamiltonian_mb", 0.0), "MB")
    out["cli.self_s"] = (agg("cli.main")[0] / ops, "s")
    out["cli.output_bytes"] = (counters.get("cli.output_bytes", 0) / ops, "bytes")
    return out

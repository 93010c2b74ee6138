"""Benchmark of bethe-xxz: the solve-all, solve-one and verify workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload solve-all --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
runs every operation once untraced and once with layer spans, and reports
the per-layer metrics and the tracing overhead.  The report goes to stdout
as readable lines, then the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result (machine
facts, samples, failing pairs) is also written to bench/out/.  See
bench/README.md for what each workload and metric is for.

Exit status: 0 when every correctness check passed, 1 when one failed or
the package sources are missing, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7
SETUP_ARGV = ("-m", "bethe_xxz.cli", "enumerate", "--n", "4", "--zeta", "0.6")
SETUP_PAIRS = 6
# One BLAS thread: on a small shared machine, OpenBLAS threads spinning next
# to the pure-Python solvers make times swing by 2x.  Set before numpy loads;
# the count in effect is recorded with every result.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread():
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")


def require_sources():
    """Put the checkout's src/ first on the path, or stop with exit 1."""
    if not (SRC / "bethe_xxz" / "__init__.py").is_file():
        sys.exit(f"error: no bethe_xxz package under {SRC}")
    sys.path.insert(0, str(SRC))


def measure_setup(repeats=SETUP_REPEATS):
    """Wall times of fresh interpreters running a tiny `enumerate`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, problems = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or json.loads(proc.stdout)["summary"]["count"] != SETUP_PAIRS:
            problems.append(f"setup run: exit {proc.returncode}, {proc.stderr.strip()!r}")
    return times, problems


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


class Totals:
    """What the operations of one run did.

    `attempted` and `failed` count the pairs of each distinct input once:
    a repeat of an input is a timing sample, and must fail the same pairs
    as its first run.  So both counts depend on the seed only, not on how
    many operations fitted in the time.  `pairs` and the counters sum over
    every operation.
    """

    def __init__(self):
        self.attempted = self.failed = self.pairs = 0
        self.failures = {}  # ordered set of distinct failing pairs
        self.problems = []
        self.counters = {}
        self._first = {}  # input index -> (attempted, failed, failures)

    def add(self, index, outcome, counters=True):
        self.pairs += outcome.attempted
        seen = (outcome.attempted, outcome.failed, outcome.failures)
        if index not in self._first:
            self._first[index] = seen
            self.attempted += outcome.attempted
            self.failed += outcome.failed
            self.failures.update(dict.fromkeys(outcome.failures))
        elif self._first[index] != seen:
            self.problems.append(f"input {index}: failed pairs differ between repeats")
        self.problems += outcome.problems
        if counters:
            for key, value in outcome.counters.items():
                if key in ("oracle.dim", "oracle.hamiltonian_mb"):
                    self.counters[key] = max(self.counters.get(key, 0), value)
                else:
                    self.counters[key] = self.counters.get(key, 0) + value


def _timed(workload, inp, tracer):
    t0 = time.perf_counter()
    raw = workload.run(inp, tracer)
    return time.perf_counter() - t0, raw


def measure(workload, seconds, trace):
    """Closed loop over the workload's inputs for `seconds`, and at least
    min_ops operations and one of each input.

    Untraced: one timed run per operation.  Traced: each operation runs
    untraced and traced back to back, alternating which goes first, so the
    difference is the tracing overhead on the same input.
    """
    from spans import NullTracer, Tracer

    null, tracer = NullTracer(), Tracer()
    totals = Totals()
    times, traced_times = [], []
    deadline = time.perf_counter() + seconds
    min_ops = max(workload.min_ops, len(workload.inputs))
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        index = i % len(workload.inputs)
        inp = workload.inputs[index]
        order = ((True, False) if i % 2 else (False, True)) if trace else (False,)
        for traced in order:
            if traced:
                tracer.op = i
                with tracer.installed():
                    dt, raw = _timed(workload, inp, tracer)
                traced_times.append(dt)
            else:
                dt, raw = _timed(workload, inp, null)
                times.append(dt)
            totals.add(index, workload.account(inp, raw), counters=traced or not trace)
        i += 1
    return times, traced_times, tracer, totals


def end_to_end(workload, times, totals, setup_times):
    """Metrics a user sees, plus the report lines that name them."""
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10)[-1]
    beyond = sum(t > p90 for t in times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = statistics.median(setup_times)
    share = totals.failed / totals.attempted
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "pairs_per_s": (totals.pairs / sum(times), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    ops = f"{len(times)} {workload.unit}"
    named = {
        "solve-all": [("solve_all_s", p50, "s", f"median of {ops}")],
        "solve-one": [
            ("solve_one_p50_ms", p50 * 1e3, "ms", ops),
            ("solve_one_p90_ms", p90 * 1e3, "ms", f"{ops}, {beyond} beyond p90"),
        ],
        "verify": [("verify_s", p50, "s", f"median of {ops}")],
    }[workload.name]
    named += [
        ("failed_share", share, "share",
         f"{totals.failed} failed of {totals.attempted} distinct pairs"),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process, this workload only"),
        ("setup_s", setup, "s", f"median of {len(setup_times)} fresh interpreters"),
    ]
    lines = [f"{name:<18} {value:12.6g} {unit:<6} ({note})" for name, value, unit, note in named]
    return metrics, lines


def per_layer(tracer, times, traced_times, totals):
    """Per-layer metrics of the traced operations, plus tracing overhead."""
    from spans import layer_metrics

    ops = len(traced_times)
    metrics = layer_metrics(tracer, ops, totals.counters)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    overhead = (sum(traced_times) - sum(times)) / ops
    metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
    metrics["trace.covered_share"] = (roots / sum(traced_times), "share")
    lines = [f"{name:<36} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"(means per operation over {ops} traced operations; the overhead is "
        f"traced minus untraced time of the same operations, "
        f"{overhead * ops / sum(times):.2%} of the untraced time)"
    )
    return metrics, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve-all", "solve-one", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seconds, trace):
    """Measure one workload: (result JSON, report lines, full record)."""
    setup_times, problems = ([], []) if trace else measure_setup()
    times, traced_times, tracer, totals = measure(workload, seconds, trace)
    if trace:
        metrics, lines = per_layer(tracer, times, traced_times, totals)
    else:
        metrics, lines = end_to_end(workload, times, totals, setup_times)
    problems += totals.problems + workload.finish()
    lines.append(
        f"failing pairs ({len(totals.failures)} distinct): " + "; ".join(totals.failures)
    )
    lines += [f"CHECK FAILED: {problem}" for problem in problems]
    result = {
        "correct": not problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result, samples_s=times, traced_samples_s=traced_times,
        setup_samples_s=setup_times, failures=list(totals.failures), problems=problems,
    )
    return result, lines, record, tracer


def main(argv=None):
    args = parse_args(argv)
    single_blas_thread()
    require_sources()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    facts = machine_facts(args.seed)
    print(f"bethe-xxz benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine " + json.dumps(facts))
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        result, lines, record, tracer = run_workload(workload, args.seconds, args.trace)
    for line in lines:
        print(line)
    stem = f"{args.workload}.trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(dict(record, facts=facts), indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{args.workload}.spans.jsonl", facts)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at N = 8; takes a few seconds.

    python3 bench/selftest.py

Runs all three workloads on N = 8 inputs, untraced and traced, and checks
that every metric BENCHMARK.json names is emitted with its unit and that
the correctness checks pass.  Then corrupts solve-all output (an energy, a
defect, the failure count, the bytes of a later pass), feeds a repeat of
an input that fails other pairs, and checks that each fails the gate.
Exit status 0 when every check holds, else 1.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def _metric_problems(spec, workload, trace, result):
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    problems = []
    if set(got) != {m["name"] for m in want}:
        problems.append(f"{workload} trace {trace}: metrics {sorted(got)}")
    for m in want:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{workload} trace {trace}: unit of {m['name']}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{workload} trace {trace}: {result}")
    return problems


def _gate_problems(workdir):
    """Problems found when a corrupted record does NOT fail the gate."""
    from spans import NullTracer
    from workloads import Outcome, SolveAll, call_cli, check_payload

    code, stdout, _ = call_cli(["solve-all", "--n", "8", "--zeta", "0.6"], NullTracer())
    clean = json.loads(stdout)
    problems = [f"clean payload flagged: {p}" for p in check_payload(clean, code, 28)]
    ok = next(i for i, r in enumerate(clean["records"]) if r["status"] == "ok"
              and r["class"] != "singular")
    corruptions = {
        "energy": lambda r: r["records"][ok].update(energy=r["records"][ok]["energy"] * (1 + 1e-9)),
        "defect": lambda r: r["records"][ok].update(defect=1e-3),
        "failed count": lambda r: r["summary"].update(failed=1),
    }
    for what, corrupt in corruptions.items():
        payload = json.loads(stdout)
        corrupt(payload)
        if not check_payload(payload, code, 28):
            problems.append(f"corrupted {what} passed the gate")
    if not check_payload(clean, 4, 28):
        problems.append("exit 4 without failed records passed the gate")

    workload = SolveAll(0, workdir, points=((8, 0.6),))
    results = workload.run(None, NullTracer())
    workload.account(None, results)
    path = workload._path(8, 0.6)
    path.write_text(path.read_text().replace("standard_real", "standard_reel", 1))
    if not workload.account(None, results).problems:
        problems.append("a pass differing from the first passed the gate")

    totals = run.Totals()
    totals.add(0, Outcome(attempted=2, failed=1, failures=["a"]))
    totals.add(0, Outcome(attempted=2, failed=0))
    if not totals.problems or (totals.attempted, totals.failed) != (2, 1):
        problems.append("a repeat failing other pairs passed the gate")
    return problems


def main():
    run.single_blas_thread()
    run.require_sources()
    from workloads import SolveAll, SolveOne, Verify

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    small = {
        "solve-all": lambda seed, d: SolveAll(seed, d, points=((8, 0.6),)),
        "solve-one": lambda seed, d: SolveOne(seed, d, n_range=(4, 8), pool=50),
        "verify": lambda seed, d: Verify(seed, d, points=((8, 0.6),)),
    }
    problems = []
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, make in small.items():
            for trace in (0, 1):
                result, _, _, _ = run.run_workload(make(1, Path(tmp)), 0.2, trace)
                problems += _metric_problems(spec, name, trace, result)
        problems += _gate_problems(Path(tmp))
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

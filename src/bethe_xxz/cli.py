"""Command-line surface: enumerate, solve, verify, regime maps, traces.

Every command emits machine-readable JSON ({params, records, summary}) or
CSV with a fixed column order and 17-significant-digit floats, so repeated
runs are byte-identical.  Exit codes: 0 ok, 2 usage, 3 degenerate regime
boundary, 4 partial solve failure, 5 incomplete spectrum.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import re
import sys

from .dispatch import solve_quantum_pair
from .model import (
    BetheError,
    BoundaryDegenerate,
    ChainParams,
    DimensionOverflow,
    HalfInt,
    IncompleteSpectrum,
    QuantumPair,
    SolutionClass,
    magnon_energy,
)
from .oracle import completeness_check
from .quantum_numbers import (
    classify_regime,
    enumerate_all,
    regime_label_from_inequalities,
    regime_label_from_report,
)
from .xxx_limit import trace_divergence

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_PARTIAL = 4
EXIT_INCOMPLETE = 5

log = logging.getLogger("bethe_xxz")


def _fmt(value):
    """CSV cells: floats with 17 significant digits, metadata as JSON."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return json.dumps(value)
    return value


def _emit(payload, columns, args):
    """Write the {params, records, summary} payload as JSON or CSV."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for record in payload["records"]:
            writer.writerow({k: _fmt(record.get(k, "")) for k in columns})
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _params_dict(p: ChainParams):
    return {"n": p.n, "zeta": p.zeta}


def _chain_params(args):
    if args.n is None or args.zeta is None:
        raise SystemExit(EXIT_USAGE)
    try:
        return ChainParams(args.n, args.zeta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


PAIR_COLUMNS = ["n", "zeta", "j1", "j2", "class"]
SOLUTION_COLUMNS = [
    "n",
    "zeta",
    "j1",
    "j2",
    "class",
    "status",
    "lambda1_re",
    "lambda1_im",
    "lambda2_re",
    "lambda2_im",
    "defect",
    "energy",
    "solver_branch_meta",
]


def _pair_record(q: QuantumPair, p: ChainParams):
    return {
        "n": p.n,
        "zeta": p.zeta,
        "j1": str(q.j1),
        "j2": str(q.j2),
        "class": q.cls.value,
    }


def _solution_record(q: QuantumPair, p: ChainParams, tol):
    record = _pair_record(q, p)
    kwargs = {} if tol is None else {"defect_tol": tol}
    try:
        sol = solve_quantum_pair(q, p, **kwargs)
    except BetheError as exc:
        record.update(
            status=f"error:{type(exc).__name__}",
            lambda1_re="",
            lambda1_im="",
            lambda2_re="",
            lambda2_im="",
            defect="",
            energy="",
            solver_branch_meta=str(exc),
        )
        return record, False
    record.update(
        status="ok",
        lambda1_re=sol.lambda1.real,
        lambda1_im=sol.lambda1.imag,
        lambda2_re=sol.lambda2.real,
        lambda2_im=sol.lambda2.imag,
        defect=sol.residual if sol.residual is not None else "",
        energy=magnon_energy(sol.lambda1, sol.lambda2, p),
        solver_branch_meta=sol.branch_meta,
    )
    return record, True


def cmd_enumerate(args):
    p = _chain_params(args)
    try:
        pairs = enumerate_all(p)
    except BoundaryDegenerate as exc:
        print(f"degenerate boundary: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    payload = {
        "params": _params_dict(p),
        "records": [_pair_record(q, p) for q in pairs],
        "summary": {"count": len(pairs)},
    }
    _emit(payload, PAIR_COLUMNS, args)
    return EXIT_OK


def _matching_pairs(pairs, j1: HalfInt, j2: HalfInt):
    want = {j1.twice, j2.twice}
    return [q for q in pairs if {q.j1.twice, q.j2.twice} == want]


def cmd_solve(args):
    p = _chain_params(args)
    if args.j1 is None or args.j2 is None:
        print("error: solve requires --j1 and --j2", file=sys.stderr)
        return EXIT_USAGE
    try:
        pairs = enumerate_all(p)
    except BoundaryDegenerate as exc:
        print(f"degenerate boundary: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    matched = _matching_pairs(pairs, args.j1, args.j2)
    if not matched:
        print(
            f"error: ({args.j1}, {args.j2}) is not an enumerated pair",
            file=sys.stderr,
        )
        return EXIT_USAGE
    results = [_solution_record(q, p, args.tol_defect) for q in matched]
    records = [r for r, _ in results]
    all_ok = all(ok for _, ok in results)
    payload = {
        "params": _params_dict(p),
        "records": records,
        "summary": {
            "count": len(records),
            "failed": sum(1 for _, ok in results if not ok),
        },
    }
    _emit(payload, SOLUTION_COLUMNS, args)
    return EXIT_OK if all_ok else EXIT_PARTIAL


def cmd_solve_all(args):
    p = _chain_params(args)
    try:
        pairs = enumerate_all(p)
    except BoundaryDegenerate as exc:
        print(f"degenerate boundary: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    results = [_solution_record(q, p, args.tol_defect) for q in pairs]
    order = sorted(
        range(len(pairs)),
        key=lambda i: (pairs[i].j1.twice, pairs[i].j2.twice, pairs[i].cls.value),
    )
    records = [results[i][0] for i in order]
    failed = [
        f"({results[i][0]['j1']},{results[i][0]['j2']})"
        for i in order
        if not results[i][1]
    ]
    payload = {
        "params": _params_dict(p),
        "records": records,
        "summary": {"count": len(records), "failed": len(failed)},
    }
    _emit(payload, SOLUTION_COLUMNS, args)
    if failed:
        print("failed pairs: " + ", ".join(failed), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_verify(args):
    p = _chain_params(args)
    kwargs = {}
    if args.max_dim is not None:
        kwargs["max_dim"] = args.max_dim
    try:
        match = completeness_check(p, **kwargs)
    except DimensionOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundaryDegenerate as exc:
        print(f"degenerate boundary: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except IncompleteSpectrum as exc:
        matched = len(exc.match.entries) if exc.match else 0
        dim = exc.match.dimension if exc.match else "?"
        print(f"{matched}/{dim} matched; INCOMPLETE: {exc}")
        if exc.match is not None and exc.match.unsolved:
            return EXIT_PARTIAL
        return EXIT_INCOMPLETE
    print(
        f"{len(match.entries)}/{match.dimension} matched; "
        f"max energy error {match.max_energy_error:.3e}; "
        f"max vector residual {match.max_residual:.3e}"
    )
    return EXIT_OK


def _tolerance(text):
    """A defect tolerance: a finite, non-negative float."""
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative: {text!r}"
        )
    return value


def _parse_range(text):
    """'start:stop:step' inclusive integer range."""
    start, stop, step = (int(part) for part in text.split(":"))
    return list(range(start, stop + 1, step))


def _parse_grid(text):
    """'min:max:count' geometric-free linear grid of floats."""
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 2:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def cmd_regime_map(args):
    ns = _parse_range(args.n_range)
    zetas = _parse_grid(args.zeta_grid)
    records = []
    disagreements = 0
    for n in ns:
        for zeta in zetas:
            try:
                report = classify_regime(ChainParams(n, zeta))
                label = regime_label_from_report(report)
            except BoundaryDegenerate:
                label = "degenerate"
            check = regime_label_from_inequalities(n, zeta)
            agree = label == check or label == "degenerate"
            disagreements += 0 if agree else 1
            records.append(
                {
                    "n": n,
                    "zeta": zeta,
                    "tanh2": math.tanh(zeta / 2.0) ** 2,
                    "regime_label": label,
                    "inequality_label": check,
                    "agree": agree,
                }
            )
    payload = {
        "params": {"n_range": args.n_range, "zeta_grid": args.zeta_grid},
        "records": records,
        "summary": {"count": len(records), "disagreements": disagreements},
    }
    columns = ["n", "zeta", "tanh2", "regime_label", "inequality_label", "agree"]
    _emit(payload, columns, args)
    return EXIT_OK


def cmd_xxx_trace(args):
    if args.n is None or args.j1 is None or args.j2 is None:
        print("error: xxx-trace requires --n, --j1, --j2", file=sys.stderr)
        return EXIT_USAGE
    schedule = [float(part) for part in args.zeta_schedule.split(",")]
    edge = args.n - 1
    magnitudes = sorted((abs(args.j1).twice, abs(args.j2).twice))
    same_sign = (args.j1 < 0) == (args.j2 < 0)
    if magnitudes[1] != edge or not same_sign or magnitudes[0] % 2 == 0:
        print(
            f"error: ({args.j1}, {args.j2}) is not in the infinite family",
            file=sys.stderr,
        )
        return EXIT_USAGE
    q = QuantumPair(args.j1, args.j2, SolutionClass.INFINITE_FAMILY_REAL)
    p0 = ChainParams(args.n, schedule[0])
    trace = trace_divergence(q, p0, schedule)
    records = [
        {
            "zeta": s.zeta,
            "lambda1": s.lambda1,
            "lambda2": s.lambda2,
            "lambda1_over_zeta": s.reduced,
        }
        for s in trace.samples
    ]
    payload = {
        "params": {"n": args.n, "j1": str(args.j1), "j2": str(args.j2)},
        "records": records,
        "summary": {"count": len(records)},
    }
    _emit(payload, ["zeta", "lambda1", "lambda2", "lambda1_over_zeta"], args)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bethe-xxz",
        description=(
            "Enumerate and solve all two down-spin solutions of the "
            "periodic anisotropic spin chain, with an exact-diagonalization "
            "completeness check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, zeta=True):
        sp.add_argument("--n", type=int, default=None)
        if zeta:
            sp.add_argument("--zeta", type=float, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("enumerate", help="list all quantum-number pairs")
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    def labels(sp):
        sp.add_argument("--j1", type=HalfInt.parse, default=None)
        sp.add_argument("--j2", type=HalfInt.parse, default=None)
        # argparse reads `-7/2` as an option unless its negative-number
        # pattern matches; widened to fractions, `--j1 -7/2` parses too.
        sp._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    sp = sub.add_parser("solve", help="solve one labelled pair")
    common(sp)
    labels(sp)
    sp.add_argument("--tol-defect", type=_tolerance, default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("solve-all", help="solve every enumerated pair")
    common(sp)
    sp.add_argument("--tol-defect", type=_tolerance, default=None)
    sp.set_defaults(func=cmd_solve_all)

    sp = sub.add_parser("verify", help="completeness check against dense ED")
    common(sp)
    sp.add_argument("--max-dim", type=int, default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("regime-map", help="regime label over a grid")
    sp.add_argument("--n-range", required=True)
    sp.add_argument("--zeta-grid", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_regime_map)

    sp = sub.add_parser("xxx-trace", help="reduced-rapidity divergence trace")
    common(sp, zeta=False)
    labels(sp)
    sp.add_argument("--zeta-schedule", required=True)
    sp.set_defaults(func=cmd_xxx_trace)

    return parser


def main(argv=None):
    level = os.environ.get("BETHE_TWO_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

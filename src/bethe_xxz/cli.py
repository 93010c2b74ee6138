"""Command-line surface: enumerate, solve, verify, regime maps, traces.

Every command emits machine-readable JSON ({params, records, summary}, the
bytes of json.dumps with indent=2) or CSV with a fixed column order and
17-significant-digit floats, so repeated runs are byte-identical.  Exit
codes: 0 ok, 2 usage, 3 degenerate regime boundary, 4 partial solve
failure, 5 incomplete spectrum; main maps the exceptions of every command
to them.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import math
import os
import re
import sys

from .dispatch import solve_quantum_pair, solve_quantum_pairs
from .model import (
    BetheError,
    BoundaryDegenerate,
    ChainParams,
    HalfInt,
    IncompleteSpectrum,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    attempt,
    magnon_energy,
)
from .quantum_numbers import (
    classify_regime,
    enumerate_all,
    pairs_with_labels,
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


@functools.lru_cache(maxsize=None)
def _member_encoder(level):
    """C-encoder for a run of scalar members at this nesting level.

    It only ever sees scalars and empty containers, so it skips the
    circular-reference bookkeeping.
    """
    return json.JSONEncoder(
        separators=(",\n" + "  " * level, ": "), check_circular=False
    )


def _json_indent2(value, level=0):
    """json.dumps(value, indent=2), nested `level` deep; keys are str.

    With an indent, json uses its pure-Python encoder.  Here each run of
    scalar members goes to the C encoder in one call, as a flat container
    whose item separator carries the newline and the indent of its level.
    Every non-empty container member is written by a recursive call.
    """
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    enc = _member_encoder(level + 1)
    is_dict = isinstance(value, dict)
    parts, run = [], {} if is_dict else []
    for key, member in value.items() if is_dict else enumerate(value):
        if isinstance(member, (dict, list, tuple)) and member:
            if run:
                parts.append(enc.encode(run)[1:-1])
                run.clear()
            head = enc.encode(key) + ": " if is_dict else ""
            parts.append(head + _json_indent2(member, level + 1))
        elif is_dict:
            run[key] = member
        else:
            run.append(member)
    if run:
        parts.append(enc.encode(run)[1:-1])
    opening, closing = "{}" if is_dict else "[]"
    pad = "\n" + "  " * level
    body = enc.item_separator.join(parts)
    return opening + pad + "  " + body + pad + closing


def _emit(payload, columns, args):
    """Write the {params, records, summary} payload as JSON or CSV."""
    if args.format == "json":
        text = _json_indent2(payload) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        for record in payload["records"]:
            writer.writerow({k: _fmt(record.get(k, "")) for k in columns})
        text = buf.getvalue()
    _write(text, args)


def _write(text, args):
    """Write text to --output, or to stdout when none is given."""
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _params_dict(p: ChainParams):
    return {"n": p.n, "zeta": p.zeta}


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


def _solve_kwargs(tol):
    return {} if tol is None else {"defect_tol": tol}


def _solution_record(q: QuantumPair, p: ChainParams, sol):
    """The record of one pair from its RapidityPair or BetheError."""
    record = _pair_record(q, p)
    if isinstance(sol, BetheError):
        record.update(
            status=f"error:{type(sol).__name__}",
            lambda1_re="",
            lambda1_im="",
            lambda2_re="",
            lambda2_im="",
            defect="",
            energy="",
            solver_branch_meta=str(sol),
        )
        return record
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
    return record


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _solution_json(q: QuantumPair, p: ChainParams, sol, head):
    """The JSON text of one record, as json.dumps(indent=2) writes it as a
    member of the payload's record list; `head` is the sector's text of
    the record up to the value of j1.

    A solved pair with six finite floats and a non-empty dict of scalars
    for branch_meta fills a fixed template: labels and class are plain
    text, floats are their repr (which json writes for finite floats), and
    branch_meta goes through the member encoder of its level.  Any other
    record (an error, the singular pair's empty defect, a NaN or infinity,
    empty or nested metadata) is written from its _solution_record.
    """
    if isinstance(sol, RapidityPair):
        meta = sol.branch_meta
        l1, l2 = sol.lambda1, sol.lambda2
        floats = (
            l1.real, l1.imag, l2.real, l2.imag, sol.residual,
            magnon_energy(l1, l2, p),
        )
        if (
            set(map(type, floats)) == {float}
            # A sum of floats is finite only if each one is; one that
            # overflows sends the record down the general path.
            and math.isfinite(sum(floats))
            and isinstance(meta, dict)
            and meta
            and _SCALAR_TYPES.issuperset(map(type, meta.values()))
        ):
            re1, im1, re2, im2, defect, energy = floats
            members = _member_encoder(4).encode(meta)[1:-1]
            return (
                f'{head}{q.j1}",\n      "j2": "{q.j2}",\n'
                f'      "class": "{q.cls.value}",\n      "status": "ok",\n'
                f'      "lambda1_re": {re1!r},\n      "lambda1_im": {im1!r},\n'
                f'      "lambda2_re": {re2!r},\n      "lambda2_im": {im2!r},\n'
                f'      "defect": {defect!r},\n      "energy": {energy!r},\n'
                f'      "solver_branch_meta": {{\n        {members}\n      }}\n'
                f"    }}"
            )
    return _json_indent2(_solution_record(q, p, sol), 2)


def _solutions_json(p: ChainParams, pairs, outcomes, summary):
    """json.dumps({params, records, summary}, indent=2) plus a newline,
    with each record written in one pass from its pair and outcome."""
    head = (
        f'{{\n      "n": {json.dumps(p.n)},\n'
        f'      "zeta": {json.dumps(p.zeta)},\n      "j1": "'
    )
    records = [
        _solution_json(q, p, sol, head) for q, sol in zip(pairs, outcomes)
    ]
    body = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    return (
        f'{{\n  "params": {_json_indent2(_params_dict(p), 1)},\n'
        f'  "records": {body},\n'
        f'  "summary": {_json_indent2(summary, 1)}\n}}\n'
    )


def _emit_solutions(p, pairs, outcomes, args):
    """Emit one record per pair and outcome; return the failed labels."""
    failed = [
        f"({q.j1},{q.j2})"
        for q, sol in zip(pairs, outcomes)
        if isinstance(sol, BetheError)
    ]
    summary = {"count": len(outcomes), "failed": len(failed)}
    if args.format == "json":
        _write(_solutions_json(p, pairs, outcomes, summary), args)
    else:
        records = [
            _solution_record(q, p, sol) for q, sol in zip(pairs, outcomes)
        ]
        payload = {
            "params": _params_dict(p),
            "records": records,
            "summary": summary,
        }
        _emit(payload, SOLUTION_COLUMNS, args)
    return failed


def cmd_enumerate(args):
    p = ChainParams(args.n, args.zeta)
    pairs = enumerate_all(p)
    payload = {
        "params": _params_dict(p),
        "records": [_pair_record(q, p) for q in pairs],
        "summary": {"count": len(pairs)},
    }
    _emit(payload, PAIR_COLUMNS, args)
    return EXIT_OK


def cmd_solve(args):
    p = ChainParams(args.n, args.zeta)
    matched = pairs_with_labels(p, args.j1, args.j2)
    if not matched:
        print(
            f"error: ({args.j1}, {args.j2}) is not an enumerated pair",
            file=sys.stderr,
        )
        return EXIT_USAGE
    kwargs = _solve_kwargs(args.tol_defect)
    outcomes = [attempt(solve_quantum_pair, q, p, **kwargs) for q in matched]
    failed = _emit_solutions(p, matched, outcomes, args)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_solve_all(args):
    p = ChainParams(args.n, args.zeta)
    pairs = enumerate_all(p)
    outcomes = solve_quantum_pairs(pairs, p, **_solve_kwargs(args.tol_defect))
    failed = _emit_solutions(p, pairs, outcomes, args)
    if failed:
        print("failed pairs: " + ", ".join(failed), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_verify(args):
    # The oracle is the only module that needs numpy: import it here, so
    # no other command pays for it.
    from .oracle import completeness_check

    p = ChainParams(args.n, args.zeta)
    try:
        match = completeness_check(p)
    except IncompleteSpectrum as exc:
        match = exc.match
        print(
            f"{len(match.entries)}/{match.dimension} matched; "
            f"INCOMPLETE: {exc}"
        )
        code = EXIT_PARTIAL if match.unsolved else EXIT_INCOMPLETE
    else:
        print(
            f"{len(match.entries)}/{match.dimension} matched; "
            f"max energy error {match.max_energy_error:.3e}; "
            f"max vector residual {match.max_residual:.3e}"
        )
        code = EXIT_OK
    for note in match.unavailable:
        print(f"note: {note}", file=sys.stderr)
    return code


def _tolerance(text):
    """A defect tolerance: a finite, non-negative float."""
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"must be finite and non-negative: {text!r}"
        )
    return value


def _parse_range(text):
    """'start:stop:step' inclusive integer range; empty is an error."""
    start, stop, step = (int(part) for part in text.split(":"))
    values = list(range(start, stop + 1, step))
    if not values:
        raise ValueError(f"--n-range {text!r} is empty")
    return values


def _parse_grid(text):
    """'min:max:count' evenly spaced floats, min to max; count 1 is [min]."""
    lo, hi, count = text.split(":")
    lo, hi, count = float(lo), float(hi), int(count)
    if count < 1:
        raise ValueError(f"--zeta-grid count must be at least 1: {text!r}")
    if count == 1:
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
    schedule = [float(part) for part in args.zeta_schedule.split(",")]
    q = QuantumPair(args.j1, args.j2, SolutionClass.INFINITE_FAMILY_REAL)
    trace = trace_divergence(q, ChainParams(args.n, schedule[0]), schedule)
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


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built on first use and kept for the process.

    parse_args fills a fresh Namespace on every call, so nothing carries
    over from one call of main to the next.
    """
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
        sp.add_argument("--n", type=int, required=True)
        if zeta:
            sp.add_argument("--zeta", type=float, required=True)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("enumerate", help="list all quantum-number pairs")
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    def labels(sp):
        sp.add_argument("--j1", type=HalfInt.parse, required=True)
        sp.add_argument("--j2", type=HalfInt.parse, required=True)
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

    sp = sub.add_parser(
        "verify", help="completeness check against exact diagonalization"
    )
    common(sp)
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
    # The one place where an exception becomes an exit code; the order
    # matters, since BoundaryDegenerate is a BetheError.
    try:
        return args.func(args)
    except BoundaryDegenerate as exc:
        print(f"degenerate boundary: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BetheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: enumerate, solve, verify, regime maps, traces.

Every command but verify, which prints one result line, builds its
records as rows (tuples of cells in its column order) and emits them as
JSON ({params, records, summary}, the bytes of json.dumps with indent=2)
or CSV with 17-significant-digit floats, so repeated runs are
byte-identical.  One writer streams the records, in order, to --output or
stdout as they are made, so the document is never held whole; it opens
the destination only after the command's solving is done, so a solver
error writes nothing.
Exit codes: 0 ok, 2 usage, 3 degenerate regime boundary, 4 partial solve
failure, 5 incomplete spectrum; main maps the exceptions of every command
to them.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import logging
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

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


def _json_value(value, level):
    """json.dumps(value, indent=2) as it reads nested `level` deep.

    With an indent, json uses its pure-Python encoder; the common cells
    are written directly instead: a finite float or an int is its repr, a
    str is escaped by the C string encoder, and any other scalar needs no
    indent.  A non-empty flat dict of str keys and such cells or bools is
    its members joined at the level's indent.  Any other container is
    json.dumps with its newlines indented (JSON text holds no raw newline).
    """
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is dict and value:
        members = []
        for key, cell in value.items():
            if type(key) is not str:
                break
            cell_kind = type(cell)
            if cell_kind is str:
                text = encode_basestring_ascii(cell)
            elif cell_kind is bool:
                text = "true" if cell else "false"
            elif cell_kind is int or (
                cell_kind is float and math.isfinite(cell)
            ):
                text = repr(cell)
            else:
                break
            members.append(f"{encode_basestring_ascii(key)}: {text}")
        else:
            pad = "\n" + "  " * level
            return f"{{{pad}  " + f",{pad}  ".join(members) + f"{pad}}}"
    elif not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _json_record(columns, row):
    """The JSON text of one row as a member of the document's record list;
    column names are plain ASCII, so they need no escaping."""
    members = ",\n      ".join(
        f'"{column}": {_json_value(cell, 3)}'
        for column, cell in zip(columns, row)
    )
    return "{\n      " + members + "\n    }"


def _emit(params, columns, rows, summary, args, records=None):
    """Write the rows, tuples of cells in column order, as JSON or CSV to
    --output, or to stdout when none is given; `records`, if given, are
    the rows' JSON texts.

    Each record is written as it is made, so the document is never held
    whole.  JSON is the bytes of json.dumps({params, records, summary},
    indent=2) plus a newline.
    """
    destination = (
        open(args.output, "w") if args.output
        else contextlib.nullcontext(sys.stdout)
    )
    with destination as out:
        if args.format == "csv":
            writer = csv.writer(out)
            writer.writerow(columns)
            writer.writerows([_fmt(cell) for cell in row] for row in rows)
            return
        if records is None:
            records = (_json_record(columns, row) for row in rows)
        out.write(f'{{\n  "params": {_json_value(params, 1)},\n  "records": ')
        separator = "[\n    "
        for text in records:
            out.write(separator + text)
            separator = ",\n    "
        out.write("[]" if separator == "[\n    " else "\n  ]")
        out.write(f',\n  "summary": {_json_value(summary, 1)}\n}}\n')


def _params_dict(p: ChainParams):
    return {"n": p.n, "zeta": p.zeta}


PAIR_COLUMNS = ("n", "zeta", "j1", "j2", "class")
SOLUTION_COLUMNS = PAIR_COLUMNS + (
    "status",
    "lambda1_re",
    "lambda1_im",
    "lambda2_re",
    "lambda2_im",
    "defect",
    "energy",
    "solver_branch_meta",
)


def _solve_kwargs(tol):
    return {} if tol is None else {"defect_tol": tol}


def _solution_row(q: QuantumPair, p: ChainParams, sol):
    """The row of one pair from its RapidityPair or BetheError."""
    head = (p.n, p.zeta, str(q.j1), str(q.j2), q.cls.value)
    if isinstance(sol, BetheError):
        status = f"error:{type(sol).__name__}"
        return (*head, status, "", "", "", "", "", "", str(sol))
    l1, l2 = sol.lambda1, sol.lambda2
    return (
        *head, "ok", l1.real, l1.imag, l2.real, l2.imag,
        "" if sol.residual is None else sol.residual,
        magnon_energy(l1, l2, p), sol.branch_meta,
    )


def _solution_json(q: QuantumPair, p: ChainParams, sol, head):
    """The JSON text of one record, as _json_record writes its row; `head`
    is the sector's text of the record up to the value of j1.

    A solved pair with a defect and six finite floats fills a fixed
    template: labels and class are plain text, floats are their repr, and
    branch_meta is its _json_value.  Any other record (an error, the
    singular pair's empty defect, a NaN or infinity) is written from its
    row.
    """
    if isinstance(sol, RapidityPair) and sol.residual is not None:
        l1, l2 = sol.lambda1, sol.lambda2
        floats = (
            l1.real, l1.imag, l2.real, l2.imag, sol.residual,
            magnon_energy(l1, l2, p),
        )
        # A sum of floats is finite only if each one is; one that
        # overflows sends the record down the general path.
        if math.isfinite(sum(floats)):
            re1, im1, re2, im2, defect, energy = floats
            return (
                f'{head}{q.j1}",\n      "j2": "{q.j2}",\n'
                f'      "class": "{q.cls.value}",\n      "status": "ok",\n'
                f'      "lambda1_re": {re1!r},\n      "lambda1_im": {im1!r},\n'
                f'      "lambda2_re": {re2!r},\n      "lambda2_im": {im2!r},\n'
                f'      "defect": {defect!r},\n      "energy": {energy!r},\n'
                f'      "solver_branch_meta": '
                f"{_json_value(sol.branch_meta, 3)}\n    }}"
            )
    return _json_record(SOLUTION_COLUMNS, _solution_row(q, p, sol))


def _emit_solutions(p, pairs, outcomes, args):
    """Emit one record per pair and outcome; return the failed labels."""
    failed = [
        f"({q.j1},{q.j2})"
        for q, sol in zip(pairs, outcomes)
        if isinstance(sol, BetheError)
    ]
    params = _params_dict(p)
    summary = {"count": len(outcomes), "failed": len(failed)}
    rows = (_solution_row(q, p, sol) for q, sol in zip(pairs, outcomes))
    records = None
    if args.format == "json":
        head = (
            f'{{\n      "n": {_json_value(p.n, 3)},\n'
            f'      "zeta": {_json_value(p.zeta, 3)},\n      "j1": "'
        )
        records = (
            _solution_json(q, p, sol, head) for q, sol in zip(pairs, outcomes)
        )
    _emit(params, SOLUTION_COLUMNS, rows, summary, args, records)
    return failed


def cmd_enumerate(args):
    p = ChainParams(args.n, args.zeta)
    pairs = enumerate_all(p)
    rows = ((p.n, p.zeta, str(q.j1), str(q.j2), q.cls.value) for q in pairs)
    _emit(_params_dict(p), PAIR_COLUMNS, rows, {"count": len(pairs)}, args)
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
    rows = []
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
            tanh2 = math.tanh(zeta / 2.0) ** 2
            rows.append((n, zeta, tanh2, label, check, agree))
    params = {"n_range": args.n_range, "zeta_grid": args.zeta_grid}
    summary = {"count": len(rows), "disagreements": disagreements}
    columns = ("n", "zeta", "tanh2", "regime_label", "inequality_label", "agree")
    _emit(params, columns, rows, summary, args)
    return EXIT_OK


def cmd_xxx_trace(args):
    schedule = [float(part) for part in args.zeta_schedule.split(",")]
    q = QuantumPair(args.j1, args.j2, SolutionClass.INFINITE_FAMILY_REAL)
    trace = trace_divergence(q, ChainParams(args.n, schedule[0]), schedule)
    rows = [(s.zeta, s.lambda1, s.lambda2, s.reduced) for s in trace.samples]
    params = {"n": args.n, "j1": str(args.j1), "j2": str(args.j2)}
    columns = ("zeta", "lambda1", "lambda2", "lambda1_over_zeta")
    _emit(params, columns, rows, {"count": len(rows)}, args)
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

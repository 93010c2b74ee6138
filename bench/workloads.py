"""The three benchmark workloads: inputs, one timed operation, its checks.

Each workload is a closed loop with one client in one process.  `run` is
the timed operation; `account` (untimed) counts the pairs it attempted and
failed and checks its output; `finish` (untimed, after the timed loop) runs
the checks that need the whole run.  An operation fails a pair, never
hides one: every known solver defect counts in `failed`.
"""
from __future__ import annotations

import bisect
import hashlib
import io
import json
import math
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from bethe_xxz import cli, equal_solver, height_solver, oracle, string_solver
from bethe_xxz.dispatch import is_boundary_family_pair, solve_quantum_pair
from bethe_xxz.model import (
    BetheError,
    BoundaryDegenerate,
    ChainParams,
    HalfInt,
    QuantumPair,
    SolutionClass,
    magnon_energy,
)
from bethe_xxz.quantum_numbers import enumerate_all

from spans import NullTracer

# ROADMAP fixed points.  zeta = 2.0 is where every complex pair fails; N = 128
# weighs the ~N^2 standard real pairs against the ~N complex ones.
SOLVE_ALL_POINTS = ((64, 0.3), (64, 2.0), (128, 0.3))
# Largest N at which a dense verify pass stays near 5 s.
VERIFY_POINTS = ((48, 0.3), (48, 2.0))
# The ROADMAP envelope: even N in [4, 128] here, zeta in [1e-3, 5].
SOLVE_ONE_N = (4, 128)
SOLVE_ONE_ZETA = (1e-3, 5.0)
SOLVE_ONE_POOL = 16 * 63  # 16 blocks of the 63 even N in [4, 128]
# Relative tolerance of the energy field against magnon_energy recomputed
# from the record's 17-digit rapidities.
ENERGY_FIELD_RTOL = 1e-12


@dataclass
class Outcome:
    """What one operation did, counted outside the timed region."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def call_cli(argv, tracer):
    """cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tracer.call("cli.main", cli.main, argv)
    return code, out.getvalue(), err.getvalue()


def defect_tol(q: QuantumPair, p: ChainParams):
    """DEFAULT_DEFECT_TOL of the solver that dispatch routes the pair to."""
    if q.cls.is_complex or (is_boundary_family_pair(q, p) and q.j1 < 0):
        return string_solver.DEFAULT_DEFECT_TOL
    if q.j1 == q.j2:
        return equal_solver.DEFAULT_DEFECT_TOL
    return height_solver.DEFAULT_DEFECT_TOL


def check_payload(payload, code, expected_count=None):
    """Problems with one solve / solve-all JSON payload and its exit code."""
    problems = []
    records = payload["records"]
    params = payload["params"]
    p = ChainParams(params["n"], params["zeta"])
    errors = [r for r in records if r["status"].startswith("error:")]
    where = f"N={p.n} zeta={p.zeta!r}"
    if expected_count is not None and len(records) != expected_count:
        problems.append(f"{where}: {len(records)} records, expected {expected_count}")
    summary = payload["summary"]
    if summary["count"] != len(records) or summary["failed"] != len(errors):
        problems.append(f"{where}: summary {summary} disagrees with the records")
    if code != (cli.EXIT_PARTIAL if errors else cli.EXIT_OK):
        problems.append(f"{where}: exit {code} with {len(errors)} failed records")
    for r in records:
        if r["status"] != "ok":
            continue
        q = QuantumPair(
            HalfInt.parse(r["j1"]), HalfInt.parse(r["j2"]), SolutionClass(r["class"])
        )
        label = f"{where} ({r['j1']},{r['j2']}) {r['class']}"
        if q.cls is not SolutionClass.SINGULAR and not (
            isinstance(r["defect"], float) and r["defect"] <= defect_tol(q, p)
        ):
            problems.append(f"{label}: defect {r['defect']!r} above tolerance")
        energy = magnon_energy(
            complex(r["lambda1_re"], r["lambda1_im"]),
            complex(r["lambda2_re"], r["lambda2_im"]),
            p,
        )
        if not abs(energy - r["energy"]) <= ENERGY_FIELD_RTOL * max(1.0, abs(energy)):
            problems.append(f"{label}: energy {r['energy']!r}, rapidities give {energy!r}")
    return problems


class SolveAll:
    """`bethe-xxz solve-all` over SOLVE_ALL_POINTS; one operation is a pass."""

    name = "solve-all"
    unit = "passes"
    min_ops = 3

    def __init__(self, seed, workdir: Path, points=SOLVE_ALL_POINTS):
        self.inputs = [None]
        self.points = points
        self.workdir = workdir
        self._first = {}  # point -> (sha256 of the output, exit code)

    def _path(self, n, zeta, tag="out"):
        return self.workdir / f"solve-all-{n}-{zeta!r}.{tag}.json"

    def run(self, _inp, tracer):
        return [
            call_cli(
                ["solve-all", "--n", str(n), "--zeta", repr(zeta),
                 "--output", str(self._path(n, zeta))],
                tracer,
            )
            for n, zeta in self.points
        ]

    def account(self, _inp, results):
        out = Outcome(counters={"cli.output_bytes": 0})
        for (n, zeta), (code, _, err) in zip(self.points, results):
            path = self._path(n, zeta)
            data = path.read_bytes()
            out.counters["cli.output_bytes"] += len(data)
            failed = _failed_pairs(err)
            seen = (hashlib.sha256(data).hexdigest(), code, len(failed))
            if (n, zeta) not in self._first:
                self._first[(n, zeta)] = seen
                shutil.copyfile(path, self._path(n, zeta, "first"))
            elif self._first[(n, zeta)] != seen:
                out.problems.append(
                    f"N={n} zeta={zeta!r}: output or exit code differs between passes"
                )
            out.attempted += n * (n - 1) // 2
            out.failed += len(failed)
            out.failures += [f"N={n} zeta={zeta!r} {pair}" for pair in failed]
        return out

    def finish(self):
        """Full check of the first pass; later passes were byte-identical."""
        problems = []
        for (n, zeta), (_, code, failed) in self._first.items():
            with open(self._path(n, zeta, "first")) as handle:
                payload = json.load(handle)
            problems += check_payload(payload, code, n * (n - 1) // 2)
            if payload["summary"]["failed"] != failed:
                problems.append(
                    f"N={n} zeta={zeta!r}: {failed} pairs listed as failed on "
                    f"stderr, summary says {payload['summary']['failed']}"
                )
        return problems


def _failed_pairs(stderr_text):
    """Pairs listed on the `failed pairs:` line solve-all writes to stderr."""
    for line in stderr_text.splitlines():
        if line.startswith("failed pairs: "):
            return line[len("failed pairs: "):].split(", ")
    return []


def solve_one_inputs(seed, count, n_range=SOLVE_ONE_N, zeta_range=SOLVE_ONE_ZETA):
    """`count` (N, zeta, j1, j2) inputs drawn from `seed`.

    N is even and uniform in n_range, zeta log-uniform in zeta_range, the
    class uniform over the classes present at (N, zeta) and the pair uniform
    within its class.  The first three are stratified, so that the mix of
    cheap and costly calls, and with it p50, does not swing with the seed:
    each block of inputs takes every N once and one zeta from each of as
    many equal log strata, in seeded order, and each N steps through the
    classes present in turn from a seeded start.  A point on a regime
    boundary (BoundaryDegenerate, the documented exit 3) is redrawn.
    """
    rng = random.Random(seed)
    ns = list(range(n_range[0], n_range[1] + 1, 2))
    log_lo, log_hi = (math.log(z) for z in zeta_range)
    width = (log_hi - log_lo) / len(ns)
    turn = {n: rng.randrange(8) for n in ns}
    inputs = []
    while len(inputs) < count:
        strata = rng.sample(range(len(ns)), len(ns))
        for n, stratum in zip(rng.sample(ns, len(ns)), strata):
            pairs = None
            while pairs is None:
                zeta = math.exp(log_lo + (stratum + rng.random()) * width)
                try:
                    pairs = enumerate_all(ChainParams(n, zeta))
                except BoundaryDegenerate:
                    pass
            by_class = {}
            for q in pairs:
                by_class.setdefault(q.cls.value, []).append(q)
            classes = sorted(by_class)
            q = rng.choice(by_class[classes[turn[n] % len(classes)]])
            turn[n] += 1
            inputs.append((n, zeta, str(q.j1), str(q.j2)))
    return inputs[:count]


class SolveOne:
    """`bethe-xxz solve` for one seeded pair per call; an operation is a call."""

    name = "solve-one"
    unit = "calls"
    min_ops = 200  # so that at least 10 calls lie beyond p90

    def __init__(self, seed, workdir: Path, n_range=SOLVE_ONE_N, pool=SOLVE_ONE_POOL):
        self.inputs = solve_one_inputs(seed, pool, n_range)

    def run(self, inp, tracer):
        n, zeta, j1, j2 = inp
        # Labels go in as --j1=<a>: `--j1 -7/2` is taken for an option.
        return call_cli(
            ["solve", "--n", str(n), "--zeta", repr(zeta), f"--j1={j1}", f"--j2={j2}"],
            tracer,
        )

    def account(self, inp, result):
        code, stdout, _ = result
        out = Outcome(counters={"cli.output_bytes": len(stdout)})
        where = f"N={inp[0]} zeta={inp[1]!r} ({inp[2]},{inp[3]})"
        if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
            out.attempted = out.failed = 1
            out.failures.append(f"{where}: exit {code}")
            out.problems.append(f"{where}: exit {code}, expected 0 or 4")
            return out
        payload = json.loads(stdout)
        out.problems = check_payload(payload, code)
        for r in payload["records"]:
            out.attempted += 1
            if r["status"] != "ok":
                out.failed += 1
                out.failures.append(f"{where} {r['class']}: {r['status']}")
        return out

    def finish(self):
        return []


@dataclass
class SectorResult:
    dim: int
    hamiltonian_mb: float
    pairs: int
    unsolved: list
    mismatched: list
    unmatched: int


def _pair_energy(q, rap, p, ham, tracer):
    """Rayleigh energy, eigen-residual and a cross-check note for one pair."""
    if q.cls is not SolutionClass.SINGULAR:
        vec = tracer.call("oracle.bethe_vector", oracle.bethe_vector, rap, p)
        return (*tracer.call("oracle.rayleigh_energy", oracle.rayleigh_energy, vec, ham), "")
    vec = tracer.call("oracle.bethe_vector", oracle.singular_vector, ham)
    energy, residual = tracer.call("oracle.rayleigh_energy", oracle.rayleigh_energy, vec, ham)
    try:
        reg_pair = oracle.regularized_singular_pair(p)
    except OverflowError:
        # (sinh(zeta) / eps)^N overflows at large N zeta: a defect of the
        # cross-check, counted against the pair.
        return energy, residual, ", regularized pair raises OverflowError"
    reg = tracer.call("oracle.bethe_vector", oracle.bethe_vector, reg_pair, p)
    reg_energy, _ = tracer.call("oracle.rayleigh_energy", oracle.rayleigh_energy, reg, ham)
    if not abs(reg_energy - energy) <= oracle.SINGULAR_ENERGY_RTOL * max(1.0, abs(energy)):
        return energy, residual, f", regularized energy {reg_energy!r}"
    return energy, residual, ""


def verify_sector(p: ChainParams, tracer):
    """completeness_check staged through the oracle's public functions.

    Unlike completeness_check it goes on past a pair that does not solve,
    so that every failing pair is counted.  The match is the same greedy
    nearest-eigenvalue match, with the oracle's own tolerances.
    """
    ham = tracer.call("oracle.build_hamiltonian", oracle.build_hamiltonian, p)
    available = list(tracer.call("oracle.exact_spectrum", oracle.exact_spectrum, ham))
    pairs = tracer.call("quantum_numbers.enumerate_all", enumerate_all, p)
    unsolved, mismatched, solved = [], [], []
    for q in pairs:
        label = f"N={p.n} zeta={p.zeta!r} ({q.j1},{q.j2}) {q.cls.value}"
        try:
            rap = tracer.call("dispatch.solve_quantum_pair", solve_quantum_pair, q, p)
            energy, residual, note = _pair_energy(q, rap, p, ham, tracer)
        except BetheError as exc:
            unsolved.append(f"{label}: {type(exc).__name__}")
            continue
        solved.append((energy, residual, note, q, label))
    for energy, residual, note, q, label in sorted(solved, key=lambda s: s[0]):
        k = bisect.bisect_left(available, energy)
        candidates = [i for i in (k - 1, k) if 0 <= i < len(available)]
        if not candidates:
            mismatched.append(f"{label}: no eigenvalue left")
            continue
        best = min(candidates, key=lambda i: abs(available[i] - energy))
        ed_energy = available.pop(best)
        err = abs(energy - ed_energy) / max(1.0, abs(ed_energy))
        if q.cls is SolutionClass.SINGULAR:
            energy_rtol, residual_tol = oracle.SINGULAR_ENERGY_RTOL, oracle.SINGULAR_RESIDUAL_TOL
        else:
            energy_rtol, residual_tol = oracle.ENERGY_RTOL, oracle.RESIDUAL_TOL
        if not (err <= energy_rtol and residual <= residual_tol) or note:
            mismatched.append(
                f"{label}: energy error {err:.3g}, eigen-residual {residual:.3g}{note}"
            )
    return SectorResult(
        dim=ham.dimension,
        hamiltonian_mb=ham.matrix.nbytes / 2**20,
        pairs=len(pairs),
        unsolved=unsolved,
        mismatched=mismatched,
        unmatched=len(available),
    )


class Verify:
    """Dense-ED cross-check over VERIFY_POINTS; one operation is a pass."""

    name = "verify"
    unit = "passes"
    min_ops = 3

    def __init__(self, seed, workdir: Path, points=VERIFY_POINTS):
        self.inputs = [None]
        self.params = [ChainParams(n, zeta) for n, zeta in points]

    def run(self, _inp, tracer):
        return [verify_sector(p, tracer) for p in self.params]

    def account(self, _inp, sectors):
        out = Outcome(
            counters={
                "oracle.mismatched": sum(len(s.mismatched) for s in sectors),
                "oracle.dim": max(s.dim for s in sectors),
                "oracle.hamiltonian_mb": max(s.hamiltonian_mb for s in sectors),
            }
        )
        for p, s in zip(self.params, sectors):
            out.attempted += s.pairs
            out.failed += len(s.unsolved) + len(s.mismatched)
            out.failures += s.unsolved + s.mismatched
            if s.pairs != s.dim or s.unmatched != len(s.unsolved):
                out.problems.append(
                    f"N={p.n} zeta={p.zeta!r}: {s.pairs} pairs for dim {s.dim}, "
                    f"{s.unmatched} eigenvalues unmatched for {len(s.unsolved)} "
                    "unsolved pairs"
                )
        return out

    def finish(self):
        """The shipped `verify` command passes where every pair solves."""
        code, stdout, _ = call_cli(["verify", "--n", "12", "--zeta", "0.57"], NullTracer())
        if code != cli.EXIT_OK or not stdout.startswith("66/66 matched"):
            return [f"verify --n 12 --zeta 0.57: exit {code}, {stdout.strip()!r}"]
        return []


WORKLOADS = {w.name: w for w in (SolveAll, SolveOne, Verify)}

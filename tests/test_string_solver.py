"""Complex conjugate pairs, the edge-centered string, the singular pair."""
import cmath
import logging
import math

import mpmath
import numpy as np
import pytest

from bethe_xxz.dispatch import is_boundary_family_pair, solve_quantum_pair
from bethe_xxz.model import (
    ChainParams,
    HalfInt,
    NegativeDiscriminant,
    NegativeTanSquare,
    NoRootOnBranch,
    QuantumPair,
    SolutionClass,
    bisect_monotone,
    magnon_energy,
)
from bethe_xxz import string_solver
from bethe_xxz.oracle import build_hamiltonian, momentum_blocks
from bethe_xxz.quantum_numbers import (
    classify_regime,
    enumerate_all,
    threshold_f,
)
from bethe_xxz.string_solver import (
    delta_of_w,
    singular_solution,
    solve_boundary_string,
    solve_complex,
    tan2x_of_w,
    z1,
)
from reference import (
    BRANCH_OF_CLASS,
    NARROW,
    WIDE,
    special_pairs,
    tan2x_limit,
)

P86 = ChainParams(8, 0.6)


def _pair(tw1, tw2, cls):
    return QuantumPair(HalfInt(tw1), HalfInt(tw2), cls)


class TestFrozenSolutions:
    def test_narrow_pair(self):
        s = solve_complex(_pair(5, 5, SolutionClass.NARROW_PAIR_COMPLEX), P86)
        assert s.lambda1.real == pytest.approx(0.2191053942156725, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.29991028805495906, abs=1e-11)
        # Narrow: imaginary part below zeta/2.
        assert s.lambda1.imag < 0.5 * P86.zeta
        assert s.branch_meta["branch"] == "narrow"

    def test_wide_pair(self):
        s = solve_complex(_pair(5, 7, SolutionClass.WIDE_PAIR_COMPLEX), P86)
        assert s.lambda1.real == pytest.approx(0.48230201405622714, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.31014401085223187, abs=1e-11)
        assert s.lambda1.imag > 0.5 * P86.zeta
        assert s.branch_meta["branch"] == "wide"

    def test_extra_two_string_n12(self):
        s = solve_complex(
            _pair(11, 11, SolutionClass.EXTRA_TWO_STRING), ChainParams(12, 0.57)
        )
        assert s.lambda1.real == pytest.approx(1.1242896457627363, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.09082613335845899, abs=1e-11)

    def test_extra_two_string_n4(self):
        s = solve_complex(
            _pair(3, 3, SolutionClass.EXTRA_TWO_STRING), ChainParams(4, 1.0)
        )
        assert s.lambda1.real == pytest.approx(math.pi / 4.0, abs=1e-11)
        assert s.lambda1.imag == pytest.approx(0.2918146904662089, abs=1e-11)


class TestStructure:
    @pytest.mark.parametrize(
        "tw1,tw2,cls",
        [
            (5, 5, SolutionClass.NARROW_PAIR_COMPLEX),
            (5, 7, SolutionClass.WIDE_PAIR_COMPLEX),
        ],
    )
    def test_conjugate_pair(self, tw1, tw2, cls):
        s = solve_complex(_pair(tw1, tw2, cls), P86)
        assert s.lambda2 == s.lambda1.conjugate()
        assert s.residual < 1e-8

    def test_mirror_is_negated(self):
        s = solve_complex(_pair(5, 7, SolutionClass.WIDE_PAIR_COMPLEX), P86)
        m = solve_complex(_pair(-7, -5, SolutionClass.WIDE_PAIR_COMPLEX), P86)
        assert abs(m.lambda1 + s.lambda1) < 1e-12
        assert abs(m.lambda2 + s.lambda2) < 1e-12
        assert m.branch_meta.get("mirrored") is True
        assert m.momenta == (-s.momenta[0], -s.momenta[1])
        assert s.momenta[0] == s.momenta[1].conjugate()

    def test_rejects_real_class(self):
        with pytest.raises(ValueError):
            solve_complex(_pair(1, 3, SolutionClass.STANDARD_REAL), P86)

    def test_unattainable_target_raises(self):
        # (1/2, 1/2) sits in the odd block k = 7, whose link c = cos(pi/8)
        # leaves Delta/c below N/(N - 2): no bound state.  (3/2, 5/2) sits
        # in block N/2, whose top state is the singular pair.
        with pytest.raises(NoRootOnBranch, match="no bound state"):
            solve_complex(_pair(1, 1, SolutionClass.NARROW_PAIR_COMPLEX), P86)
        with pytest.raises(NoRootOnBranch, match="singular pair"):
            solve_complex(_pair(3, 5, SolutionClass.WIDE_PAIR_COMPLEX), P86)


class TestCountingFunction:
    def test_zero_deviation_parameterization(self):
        # w = 1 corresponds to delta = 0 exactly.
        assert delta_of_w(1.0, P86) == pytest.approx(0.0, abs=1e-15)
        # (1 - 1e-12)/t is where w ends: atanh(w t) stays finite below it.
        assert delta_of_w((1.0 - 1e-12) / P86.t, P86) > 10.0

    @pytest.mark.parametrize("n,zeta", [(8, 0.6), (12, 0.52), (12, 0.57)])
    def test_collapsed_string_limit_matches_threshold(self, n, zeta):
        # As w -> 0 the string collapses onto the real equal-label branch:
        # N*Z1 tends to the two-string threshold and the center tangent to
        # its small-deviation closed form.
        p = ChainParams(n, zeta)
        assert p.n * z1(1e-6, p) == pytest.approx(threshold_f(p), abs=1e-6)
        assert tan2x_of_w(1e-6, p) == pytest.approx(
            tan2x_limit(p), abs=1e-8
        )

    def test_narrow_branch_decreasing(self):
        runs = _branch_runs(NARROW, P86)
        assert sum(len(r) for r in runs) > 500
        for run in runs:
            assert all(a >= b - 1e-12 for a, b in zip(run, run[1:]))

    def test_wide_branch_increasing(self):
        # Part of the w-grid falls outside the physical wide region (the
        # closed form has no real center there); monotonicity is checked on
        # each contiguous valid run.
        runs = _branch_runs(WIDE, P86)
        assert sum(len(r) for r in runs) > 100
        for run in runs:
            assert all(a <= b + 1e-12 for a, b in zip(run, run[1:]))


def _branch_runs(branch, p, points=1000):
    if branch == NARROW:
        lo, hi = 1e-5, 1.0 - 1e-6
    else:
        lo, hi = 1.0 + 1e-6, (1.0 - 1e-12) / p.t * (1.0 - 1e-9)
    ratio = (hi / lo) ** (1.0 / (points - 1))
    runs, current = [], []
    w = lo
    for _ in range(points):
        try:
            current.append(z1(w, p))
        except Exception:
            if current:
                runs.append(current)
                current = []
        w = min(w * ratio, hi)
    if current:
        runs.append(current)
    return runs


# The w-scan that solve_complex ran before it solved in the momentum frame,
# kept as a reference: a 4096-point geometric grid per branch, bisected at
# the first sign change that really hits the target.
SCAN_POINTS = 4096


def _reference_bounds(branch, p):
    if branch == NARROW:
        lo, hi = 1e-6, 1.0 - 1e-9
    else:
        lo, hi = 1.0 + 1e-9, (1.0 - 1e-12) / p.t
    return lo, hi, (hi / lo) ** (1.0 / (SCAN_POINTS - 1))


def _reference_solve_on_branch(target_j, branch, p):
    """The scalar scan-and-bisect loop on one branch; w, or None."""

    def shifted(w):
        return p.n * string_solver.z1(w, p) - target_j

    lo, hi, ratio = _reference_bounds(branch, p)
    prev_w = prev_val = None
    w = lo
    for _ in range(SCAN_POINTS):
        try:
            val = shifted(w)
        except (NegativeDiscriminant, NegativeTanSquare):
            prev_w = prev_val = None
            w = min(w * ratio, hi)
            continue
        if prev_val is not None and prev_val * val <= 0.0:
            root, _ = bisect_monotone(
                shifted, prev_w, w, f_lo=prev_val, f_hi=val,
                xtol=1e-16, max_iter=200,
            )
            if abs(shifted(root)) < 1e-6:
                return root
        prev_w, prev_val = w, val
        w = min(w * ratio, hi)
    return None


EQUIVALENCE_POINTS = [
    (n, zeta)
    for n in range(4, 50, 2)
    for zeta in (1e-3, 0.05, 0.3, 0.6, 1.0, 2.0, 5.0)
] + [(64, 0.3), (64, 2.0), (128, 0.3)]

# Largest |lambda - scan lambda| over EQUIVALENCE_POINTS, measured before it
# was fixed (2.398e-9, at N = 38, zeta = 0.6, (27/2, 29/2)).  The scan is the
# inexact one: its roots near w = 1 sit at the ends of its grid, and there
# mpmath puts the momentum-frame lambda within 1e-16 of the exact root.
LAMBDA_BOUND = 2.4e-9


class TestVectorisedScan:
    """The momentum-frame solver against the w-scan it replaced."""

    @pytest.mark.parametrize("n,zeta", EQUIVALENCE_POINTS)
    def test_same_root_as_scalar_scan(self, n, zeta):
        # Every positive complex label solves; where the scan found its
        # root too, lambda agrees with the scan's to LAMBDA_BOUND.
        p = ChainParams(n, zeta)
        for q in enumerate_all(p):
            if not q.cls.is_complex or q.j1 < 0:
                continue
            sol = solve_complex(q, p)
            target = float(min(abs(q.j1), abs(q.j2)))
            w = _reference_solve_on_branch(target, BRANCH_OF_CLASS[q.cls], p)
            if w is None:
                continue
            scanned = complex(
                math.atan(math.sqrt(tan2x_of_w(w, p))),
                0.5 * p.zeta + delta_of_w(w, p),
            )
            assert abs(sol.lambda1 - scanned) <= LAMBDA_BOUND, (q.j1, q.j2)


def _bound_state_labels(p):
    """The complex labels and the negative boundary label of a sector."""
    return [
        q for q in special_pairs(p, classify_regime(p))
        if q.cls.is_complex or (is_boundary_family_pair(q, p) and q.j1 < 0)
    ]


def _link(k, n):
    return abs(math.cos(math.pi * k / n))


class TestBoundState:
    def test_excess_sign_follows_block_parity(self):
        # Odd blocks hold the narrow pairs and the extra two-string, with
        # v below v_inf = log(Delta / c); even blocks the wide pairs and
        # the edge string, with v above it.
        for n, zeta in [(8, 0.6), (12, 0.57), (22, 1e-3), (48, 0.3)]:
            p = ChainParams(n, zeta)
            for q in _bound_state_labels(p):
                meta = solve_quantum_pair(q, p).branch_meta
                k, v = meta["k"], meta["v"]
                v_inf = math.log(p.delta / _link(k, n))
                narrow = q.cls is not SolutionClass.WIDE_PAIR_COMPLEX and (
                    q.cls.is_complex
                )
                assert k % 2 == narrow, (n, zeta, q)
                assert meta["branch"] == ("narrow" if narrow else "wide")
                eps = math.copysign(math.exp(meta["log_eps"]), 0.5 - narrow)
                # cos(pi k / N) near pi/2 costs the test-side v_inf digits.
                assert v - v_inf == pytest.approx(eps, rel=1e-6, abs=1e-14), q

    @pytest.mark.parametrize(
        "n,zeta", [(8, 0.6), (22, 1e-3), (64, 2.0), (128, 0.3), (200, 5.0)]
    )
    def test_rapidity_is_the_atan_form(self, n, zeta):
        # tan(lambda) = tanh(zeta/2) cot(p/2) at p = a + i v, evaluated
        # directly; lambda is only defined mod pi.
        p = ChainParams(n, zeta)
        for q in _bound_state_labels(p):
            if q.j1 < 0 and q.cls.is_complex:
                continue
            sol = solve_quantum_pair(q, p)
            _, p2 = sol.momenta
            direct = cmath.atan(p.t / cmath.tan(0.5 * p2))
            gap = sol.lambda2 - direct
            gap -= math.pi * round(gap.real / math.pi)
            assert abs(gap) <= 1e-13, (n, zeta, q)
            assert -0.5 * math.pi < sol.lambda2.real <= 0.5 * math.pi

    def test_debug_log_names_block_and_root(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            solve_complex(_pair(5, 5, SolutionClass.NARROW_PAIR_COMPLEX), P86)
            solve_boundary_string(P86)
        narrow, edge = [r.getMessage() for r in caplog.records]
        assert narrow.startswith("narrow bound state, k=3: v=")
        assert edge.startswith("wide bound state, k=0: v=")
        assert "log|eps|=" in narrow and " steps, residual " in narrow


# Points of the product-form certificate: the strata of N and zeta, with
# the paper's (22, 1e-3) and the points where the w-scan failed.
CERTIFICATE_POINTS = [
    (8, 0.6), (22, 1e-3), (48, 0.3), (64, 2.0), (100, 1.0), (128, 2.0),
    (160, 3.0), (200, 5.0),
]


def _exact_rapidities(meta, p):
    """lambda1, lambda2 rebuilt from (k, log|eps|) in mpmath.

    Uses 30 + N v / 2.3 digits: the string deviation is about e^{-N v}.
    """
    n, k = p.n, meta["k"]
    mpmath.mp.dps = int(30 + n * meta["v"] / 2.3)
    zeta = mpmath.mpf(p.zeta)
    link = abs(mpmath.cos(mpmath.pi * k / n))
    sign = 1 if k % 2 == 0 else -1
    v = mpmath.log(mpmath.cosh(zeta) / link) + sign * mpmath.exp(
        meta["log_eps"]
    )
    a = mpmath.pi * k / n
    if mpmath.cos(a) < 0:
        a -= mpmath.pi
    lam2 = mpmath.atan(mpmath.tanh(zeta / 2) * mpmath.cot(mpmath.mpc(a, v) / 2))
    return mpmath.conj(lam2), lam2


def _product_form_defect(lam1, lam2, p):
    """bae_defect's relative defect, in mpmath."""
    hz = mpmath.mpc(0, p.zeta / 2)
    defect = 0
    for lam, other in ((lam1, lam2), (lam2, lam1)):
        lhs = (mpmath.sin(lam + hz) / mpmath.sin(lam - hz)) ** p.n
        rhs = mpmath.sin(lam - other + 2 * hz) / mpmath.sin(lam - other - 2 * hz)
        scale = max(1, abs(lhs), abs(rhs))
        defect = max(defect, abs(lhs - rhs) / scale)
    return defect


class TestCertificate:
    """Every bound state satisfies the product form, rebuilt in mpmath."""

    @pytest.mark.parametrize("n,zeta", CERTIFICATE_POINTS)
    def test_product_form_holds(self, n, zeta):
        p = ChainParams(n, zeta)
        labelled = 0
        try:
            for q in _bound_state_labels(p):
                if q.j1 < 0 and q.cls.is_complex:
                    continue  # the exact mirror of its positive partner
                sol = solve_quantum_pair(q, p)
                lam1, lam2 = _exact_rapidities(sol.branch_meta, p)
                assert _product_form_defect(lam1, lam2, p) <= 1e-12, q
                gap = complex(lam1) - sol.lambda1
                gap -= math.pi * round(gap.real / math.pi)
                assert abs(gap) <= 1e-14 * max(1.0, abs(sol.lambda1)), q
                if not q.cls.is_complex:
                    continue
                # The label: N Z1(w) = J wherever w is resolvable.
                w = float(mpmath.tanh(lam1.imag) / mpmath.tanh(zeta / 2))
                if abs(w - 1.0) > 1e-6:
                    target = float(min(abs(q.j1), abs(q.j2)))
                    assert abs(n * z1(w, p) - target) < 1e-6, q
                    labelled += 1
        finally:
            mpmath.mp.dps = 15
        assert labelled > 0 or n >= 64


ENVELOPE_ZETAS = [1e-3, 0.01, 0.05, 0.3, 0.6, 1.0, 2.0, 3.0, 4.5, 5.0]


class TestEnvelope:
    """Every complex and edge-string label over even N 4-200."""

    @pytest.mark.parametrize("zeta", ENVELOPE_ZETAS)
    def test_every_bound_state_solves(self, zeta):
        # Up to N = 64 the energy is the top eigenvalue of block k: from
        # the momentum, -2 Delta + 2 c cosh(v), to 1e-12 (5.8e-15 measured);
        # from the stored rapidities (magnon_energy, the CLI's energy
        # field), to 1.3e-11 (1.21e-11 measured, at N = 48, zeta = 1e-3: at
        # small zeta the momenta are ill-conditioned in lambda).
        for n in range(4, 202, 2):
            p = ChainParams(n, zeta)
            tops = None
            if n <= 64:
                blocks = momentum_blocks(build_hamiltonian(p))
                tops = [np.linalg.eigvalsh(block)[-1] for block in blocks]
            for q in _bound_state_labels(p):
                sol = solve_quantum_pair(q, p)
                assert sol.residual <= string_solver.DEFAULT_DEFECT_TOL
                assert abs(sol.lambda1.real) <= 0.5 * math.pi, (n, q)
                if tops is None:
                    continue
                meta = sol.branch_meta
                top = tops[meta["k"]]
                scale = max(1.0, abs(top))
                energy = -2.0 * p.delta + 2.0 * _link(meta["k"], n) * math.cosh(
                    meta["v"]
                )
                assert abs(energy - top) <= 1e-12 * scale, (n, q)
                rapidity_energy = magnon_energy(sol.lambda1, sol.lambda2, p)
                assert abs(rapidity_energy - top) <= 1.3e-11 * scale, (n, q)


class TestBoundaryString:
    def test_frozen_halfwidth(self):
        assert solve_boundary_string(P86).lambda1.imag == pytest.approx(
            0.44633123382263995, abs=1e-12
        )

    def test_centered_on_domain_edge(self):
        s = solve_boundary_string(P86)
        assert s.lambda1.real == math.pi / 2.0
        assert s.lambda1.imag == pytest.approx(0.44633123382263995, abs=1e-12)
        assert s.lambda2 == s.lambda1.conjugate()
        assert s.lambda1.imag > 0.5 * P86.zeta  # always a wide string
        assert s.branch_meta["method"] == "boundary_string"
        assert s.branch_meta["k"] == 0

    @pytest.mark.parametrize(
        "n,zeta",
        [(4, 0.001), (8, 0.6), (8, 5.0), (40, 2.0), (100, 1.0), (184, 4.5),
         (200, 5.0)],
    )
    def test_residual_tiny_across_scales(self, n, zeta):
        # At strong anisotropy the excess over zeta/2 is ~e^(-(N-2) zeta),
        # far below the rounding of the half-width itself (below 1e-300
        # from N = 164 at zeta = 5); the solver must still report a
        # machine-precision residual.
        s = solve_boundary_string(ChainParams(n, zeta))
        assert s.residual < 1e-12


class TestSingular:
    def test_exact_pair(self):
        s = singular_solution(P86)
        assert s.lambda1 == complex(0.0, 0.3)
        assert s.lambda2 == -s.lambda1
        assert s.residual is None
        assert s.branch_meta["method"] == "singular_exact"

    def test_labels_by_size_mod_4(self):
        expected = {
            8: (HalfInt(3), HalfInt(5)),
            6: (HalfInt(3), HalfInt(3)),
            12: (HalfInt(5), HalfInt(7)),
        }
        for n, labels in expected.items():
            singular = [
                q for q in enumerate_all(ChainParams(n, 0.6))
                if q.cls is SolutionClass.SINGULAR
            ]
            assert [(q.j1, q.j2) for q in singular] == [labels], n

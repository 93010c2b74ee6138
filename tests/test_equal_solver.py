"""Equal-label real pairs as the top states of odd momentum blocks."""
import logging
import math

import mpmath
import numpy as np
import pytest

from bethe_xxz import counting, equal_solver
from bethe_xxz.counting import counting_w, tan2x_of_phi
from bethe_xxz.equal_solver import DEFAULT_DEFECT_TOL, solve_equal
from bethe_xxz.model import (
    BetheError,
    BoundaryDegenerate,
    ChainParams,
    DenominatorVanishes,
    HalfInt,
    NegativeTanSquare,
    NoRealSolution,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
    magnon_energy,
)
from bethe_xxz.oracle import build_hamiltonian, momentum_blocks
from bethe_xxz.quantum_numbers import (
    classify_regime,
    collapse_count,
    enumerate_all,
    has_extra_two_string,
    threshold_f,
)
from reference import special_pairs, tan2x_complex_raw, tan2x_limit

P86 = ChainParams(8, 0.6)
# The grid of the counting-function scan that the block solver replaced,
# kept for the reference scan below.
PHI_MIN = 1e-9
GRID_POINTS = 2048


def _pair(tw):
    return QuantumPair(HalfInt(tw), HalfInt(tw), SolutionClass.EQUAL_QN_REAL)


class TestFrozenSolutions:
    def test_edge_pair_n8(self):
        s = solve_equal(_pair(7), P86)
        assert s.lambda1.real == pytest.approx(0.7810779836701285, abs=1e-11)
        assert s.lambda2.real == pytest.approx(1.2178480798759193, abs=1e-11)
        assert s.residual < 1e-10

    def test_collapsed_pair_n12(self):
        s = solve_equal(_pair(11), ChainParams(12, 0.52))
        assert s.lambda1.real == pytest.approx(0.9493167575160664, abs=1e-11)
        assert s.lambda2.real == pytest.approx(1.259423221717947, abs=1e-11)

    def test_collapsed_pair_near_isotropic_point(self):
        p = ChainParams(22, 1e-3)
        s = solve_equal(_pair(19), p)
        assert s.lambda1.real == pytest.approx(0.002228486567302891, abs=1e-12)
        assert s.lambda2.real == pytest.approx(0.0023727496657503905, abs=1e-12)

    def test_edge_pair_near_isotropic_point(self):
        # The root sits in a ~5e-4 sliver of phi just before a jump of the
        # counting function.  lambda2 is the 50-digit root: the old scan's
        # 1.5704485683993008 was 3.8e-12 off it.
        p = ChainParams(22, 1e-3)
        s = solve_equal(_pair(21), p)
        assert s.lambda1.real == pytest.approx(0.003477566369981977, abs=1e-12)
        assert s.lambda2.real == pytest.approx(1.5704485684030638, abs=1e-12)

    @pytest.mark.parametrize("zeta", [1e-3, 3e-3, 0.01])
    @pytest.mark.parametrize("tw", [3, -3])
    def test_four_site_family_pair_near_isotropic_point(self, zeta, tw):
        # At N = 4 the counting function's grid step across the tangent
        # wrap before the root is 0.98: a scan with a jump threshold of 1
        # missed it.
        p = ChainParams(4, zeta)
        q = QuantumPair(
            HalfInt(tw), HalfInt(tw), SolutionClass.INFINITE_FAMILY_REAL
        )
        s = solve_equal(q, p)
        assert s.residual <= 1e-12
        assert s.lambda1.real * tw > 0 and s.lambda2.real * tw > 0


class TestNoRealSolution:
    def test_edge_pair_gone_complex(self):
        with pytest.raises(NoRealSolution):
            solve_equal(_pair(11), ChainParams(12, 0.57))

    def test_narrow_pair_label_has_no_real_root(self):
        with pytest.raises(NoRealSolution):
            solve_equal(_pair(5), P86)

    @pytest.mark.parametrize("tw", [1, 13, 55, -1, -55])
    def test_label_outside_the_upper_quarter(self, tw):
        # At (28, 1e-3) the blocks of +-1/2 and +-55/2 have a real top state,
        # but it belongs to another label: only N/4 < |J| < N/2 carries one.
        with pytest.raises(NoRealSolution):
            solve_equal(_pair(tw), ChainParams(28, 1e-3))


class TestSymmetry:
    @pytest.mark.parametrize("n,zeta,tw", [(8, 0.6, 7), (12, 0.52, 11),
                                           (22, 1e-3, 19)])
    def test_mirror_is_negated_set(self, n, zeta, tw):
        p = ChainParams(n, zeta)
        s = solve_equal(_pair(tw), p)
        m = solve_equal(_pair(-tw), p)
        got = sorted((m.lambda1.real, m.lambda2.real))
        want = sorted((-s.lambda1.real, -s.lambda2.real))
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        # The mirror's rapidities are the negated ones, swapped, and each
        # keeps its momentum: exactly negated, as floats.
        assert (m.lambda1, m.lambda2) == (-s.lambda2, -s.lambda1)
        assert m.momenta == (-s.momenta[1], -s.momenta[0])
        assert all(isinstance(momentum, float) for momentum in m.momenta)

    @pytest.mark.parametrize("n,zeta,tw", [(8, 0.6, 7), (12, 0.3, 11),
                                           (22, 1e-3, 19)])
    def test_mirror_reports_the_partner_block(self, n, zeta, tw):
        # Like a mirrored scattering or bound state, the mirror reports its
        # partner's block k with mirrored set.
        p = ChainParams(n, zeta)
        s = solve_equal(_pair(tw), p)
        m = solve_equal(_pair(-tw), p)
        assert m.branch_meta == dict(
            s.branch_meta, center=-s.branch_meta["center"], mirrored=True
        )
        assert m.branch_meta["k"] == n - tw


class TestCountingFunction:
    @pytest.mark.parametrize("n,zeta", [(8, 0.6), (12, 0.52)])
    def test_small_deviation_limit_is_threshold(self, n, zeta):
        p = ChainParams(n, zeta)
        assert counting_w(1e-9, p, 1) == pytest.approx(
            threshold_f(p), abs=1e-6
        )

    def test_center_tangent_square_limit(self):
        for n, zeta in [(8, 0.6), (12, 0.52), (12, 0.57), (22, 1e-3)]:
            p = ChainParams(n, zeta)
            assert tan2x_of_phi(1e-7, 0, p) == pytest.approx(
                tan2x_limit(p), abs=1e-8
            )

    def test_factored_form_matches_complex_form(self):
        for phi in (1e-6, 1e-3, 0.1, 0.5, 1.0):
            raw = tan2x_complex_raw(phi, 0, P86)
            assert abs(raw.imag) < 1e-9
            assert tan2x_of_phi(phi, 0, P86) == pytest.approx(
                raw.real, rel=1e-9, abs=1e-12
            )

    def test_value_at_solution_hits_label(self):
        s = solve_equal(_pair(7), P86)
        phi = 0.5 * (s.lambda2.real - s.lambda1.real)
        assert counting_w(phi, P86, 1) == pytest.approx(3.5, abs=1e-10)

    def test_metadata_reports_center_and_deviation(self):
        s = solve_equal(_pair(7), P86)
        meta = s.branch_meta
        assert meta["method"] == "momentum_block"
        assert meta["branch"] == "real"
        assert meta["k"] == 1  # N - 2 J for J = 7/2
        assert 0.0 < meta["q"] <= 2.0 * math.pi / P86.n
        assert meta["center"] == pytest.approx(
            0.5 * (s.lambda1.real + s.lambda2.real), abs=1e-14
        )
        assert meta["phi"] > 0.0
        assert meta["gamma"] == pytest.approx(
            2.0 * meta["phi"] / P86.zeta, rel=1e-14
        )


class TestErrors:
    def test_rejects_distinct_labels(self):
        q = QuantumPair(HalfInt(1), HalfInt(3), SolutionClass.STANDARD_REAL)
        with pytest.raises(ValueError):
            solve_equal(q, P86)

    def test_nan_root_is_refused(self, monkeypatch):
        # A NaN root gives a NaN defect, which the gate refuses.
        monkeypatch.setattr(
            equal_solver, "_top_state_q", lambda k, p: (math.nan, 0)
        )
        q = QuantumPair(HalfInt(1), HalfInt(1), SolutionClass.EQUAL_QN_REAL)
        with pytest.raises(ToleranceNotReached, match="defect nan above"):
            solve_equal(q, P86)


def _reference_refine_jump(g, phi_l, val_l, phi_r, val_r):
    split = 0.5 * (val_l + val_r)
    ascending = val_r > val_l
    for _ in range(80):
        mid = 0.5 * (phi_l + phi_r)
        if mid <= phi_l or mid >= phi_r:
            break
        try:
            val = g(mid)
        except (NegativeTanSquare, DenominatorVanishes):
            phi_r = mid
            continue
        if (val > split) == ascending:
            phi_r = mid
        else:
            phi_l, val_l = mid, val
    return phi_l, val_l


def _reference_scan_brackets(target, p, sign_x):
    phi_max = math.pi / 2.0 - 1e-9
    ratio = (phi_max / PHI_MIN) ** (1.0 / (GRID_POINTS - 1))

    def g(phi):
        return counting.counting_w(phi, p, sign_x) - target

    prev_phi = prev_val = None
    phi = PHI_MIN
    for _ in range(GRID_POINTS):
        try:
            val = g(phi)
        except (NegativeTanSquare, DenominatorVanishes):
            prev_phi = prev_val = None
            phi *= ratio
            continue
        if prev_val is not None:
            if abs(val - prev_val) > min(1.0, p.n / 8.0):
                edge_phi, edge_val = _reference_refine_jump(
                    g, prev_phi, prev_val, phi, val
                )
                if prev_val * edge_val <= 0.0:
                    yield prev_phi, edge_phi
            elif prev_val * val <= 0.0:
                yield prev_phi, phi
        prev_phi, prev_val = phi, val
        phi = min(phi * ratio, phi_max)


def _reference_solve_equal(q, p, defect_tol=1e-10):
    """The scan, jump refinement and accept loop that first_grid_root
    replaced, with the rest of solve_equal unchanged."""
    sign_x = 1 if q.j1 > 0 else -1
    target = float(abs(q.j1))
    phi = iterations = None
    for bracket in _reference_scan_brackets(target, p, 1):
        cand, iters = bisect_monotone(
            lambda f: counting.counting_w(f, p, 1) - target,
            bracket[0],
            bracket[1],
            xtol=1e-15,
            max_iter=200,
        )
        if abs(counting.counting_w(cand, p, 1) - target) < 1e-8:
            phi, iterations = cand, iters
            break
    if phi is None:
        raise NoRealSolution(
            f"counting function never attains {q.j1} at N={p.n}, "
            f"zeta={p.zeta} (complex pair in this regime)"
        )
    x = sign_x * math.atan(math.sqrt(tan2x_of_phi(phi, 0, p)))
    l1, l2 = x - phi, x + phi
    residual = bae_defect(l1, l2, p)
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for ({q.j1}, {q.j2})"
        )
    return RapidityPair(
        lambda1=complex(l1),
        lambda2=complex(l2),
        residual=residual,
        iterations=iterations,
        branch_meta={
            "method": "equal_counting",
            "center": x,
            "phi": phi,
            "gamma": 2.0 * phi / p.zeta,
        },
    )


def _outcome(solve, q, p):
    """(lambda1, lambda2) of a solved pair, or the error's type and text."""
    try:
        s = solve(q, p)
    except BetheError as exc:
        return type(exc), str(exc)
    return s.lambda1.real, s.lambda2.real


def _memoized_counting_w(p):
    """counting_w at p alone, each value or exception kept per (phi, sign)."""
    memo = {}

    def lookup(phi, at, sign_x=1):
        assert at is p
        if (phi, sign_x) not in memo:
            try:
                memo[phi, sign_x] = counting_w(phi, p, sign_x), None
            except (NegativeTanSquare, DenominatorVanishes) as exc:
                memo[phi, sign_x] = None, exc
        value, exc = memo[phi, sign_x]
        if exc is not None:
            raise type(exc)(*exc.args)
        return value

    return lookup


# Largest |lambda - reference lambda| over the points of
# test_same_result_as_reference_scan, measured before it was fixed
# (1.2003e-10, at N = 4, zeta = 1e-3, -(3/2, 3/2)).  The scan is the
# inexact one: TestCertificate puts the block solver within 1e-13 of the
# 50-digit root there.
SCAN_LAMBDA_BOUND = 1.21e-10


class TestSharedRootFinder:
    @pytest.mark.parametrize("n", range(4, 50, 2))
    def test_same_result_as_reference_scan(self, n, monkeypatch):
        # Every equal label: the same ones raise NoRealSolution, with the
        # same message, and the rest agree in lambda.  counting_w does not
        # depend on the label, so the reference scans of a sector share
        # one memo of it: same floats, less time.
        for zeta in (1e-3, 0.01, 0.1, 0.5):
            p = ChainParams(n, zeta)
            monkeypatch.setattr(
                counting, "counting_w", _memoized_counting_w(p)
            )
            for q in enumerate_all(p):
                if q.j1 != q.j2:
                    continue
                got = _outcome(solve_equal, q, p)
                want = _outcome(_reference_solve_equal, q, p)
                if isinstance(want[0], float):
                    assert max(
                        abs(g - w) for g, w in zip(got, want)
                    ) <= SCAN_LAMBDA_BOUND, (n, zeta, q)
                else:
                    assert got == want, (n, zeta, q)

    def test_debug_log_names_brackets_and_outcome(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            s = solve_equal(_pair(7), P86)
            with pytest.raises(NoRealSolution):
                solve_equal(_pair(5), P86)
        found, missed = [r.getMessage() for r in caplog.records]
        assert found == (
            f"equal, J=3.5: block k=1, q={s.branch_meta['q']!r} "
            f"after {s.iterations} steps"
        )
        assert s.iterations > 0
        assert missed == "equal, J=2.5: block k=3 has no real top state"
        assert {r.name for r in caplog.records} == {"bethe_xxz.equal_solver"}

    def test_debug_log_of_a_mirror_names_the_partner_block(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            s = solve_equal(_pair(-7), P86)
            with pytest.raises(NoRealSolution):
                solve_equal(_pair(-5), P86)
        found, missed = [r.getMessage() for r in caplog.records]
        assert found == (
            f"equal, J=-3.5: block k=1, q={s.branch_meta['q']!r} "
            f"after {s.iterations} steps"
        )
        assert missed == "equal, J=-2.5: block k=3 has no real top state"


def _real_equal_labels(p):
    """The real equal-label pairs of a sector, both signs.

    Standard real pairs never have equal labels, so these are the equal
    real labels of the reference special pairs (TestInventory checks this
    against enumerate_all).
    """
    return [
        q for q in special_pairs(p, classify_regime(p))
        if q.j1 == q.j2 and q.cls.is_real
    ]


def _mp_pair(n, zeta, twice):
    """(lambda1, lambda2) of the positive label twice/2 from a 50-digit root.

    q is the root in (0, 2 pi / N) of Delta sin((N/2 - 1) q) = c sin(N q/2),
    with c = |cos(pi k / N)| and k = N - twice; the momenta are a -+ q,
    a = pi k / N, and tan(lambda) = tanh(zeta/2) cot(p/2), taken in
    (0, pi).
    """
    with mpmath.workdps(50):
        k = n - twice
        zeta = mpmath.mpf(zeta)
        link = abs(mpmath.cos(mpmath.pi * k / n))
        delta = mpmath.cosh(zeta)

        def gap(q):
            return delta * mpmath.sin((mpmath.mpf(n) / 2 - 1) * q) - (
                link * mpmath.sin(n * q / 2)
            )

        # Divided by sin((N/2 - 1) q) > 0, which takes out the root q = 0.
        q = mpmath.findroot(
            lambda q: gap(q) / mpmath.sin((mpmath.mpf(n) / 2 - 1) * q),
            (mpmath.mpf("1e-30"), 2 * mpmath.pi / n),
            solver="anderson",
        )
        assert 0 < q < 2 * mpmath.pi / n
        assert abs(gap(q)) < mpmath.mpf("1e-45")
        a = mpmath.pi * k / n
        t = mpmath.tanh(zeta / 2)
        return tuple(
            float(mpmath.atan(t * mpmath.cot(m / 2)) % mpmath.pi)
            for m in (a + q, a - q)
        )


ENVELOPE_ZETAS = [1e-3, 3e-3, 0.01, 0.03, 0.05, 0.1, 0.3, 0.6, 1.0]
# Largest |lambda - 50-digit lambda| over the certificate's points, measured
# before it was fixed (1.019e-13, at N = 64, zeta = 1e-3, (63/2, 63/2)).
MPMATH_LAMBDA_BOUND = 1.1e-13


class TestCertificate:
    """Each real equal label against its block equation solved in mpmath."""

    @pytest.mark.parametrize(
        "n", [4, 6, 8, 10, 12, 16, 22, 30, 40, 50, 64, 80, 96, 128, 160, 200]
    )
    def test_lambda_is_the_block_root(self, n):
        labels = [
            (ChainParams(n, zeta), q)
            for zeta in ENVELOPE_ZETAS + [0.52]
            for q in _real_equal_labels(ChainParams(n, zeta))
        ]
        assert labels
        for p, q in labels:
            s = solve_equal(q, p)
            if q.j1 < 0:
                m = solve_equal(q.negated(), p)
                assert (s.lambda1, s.lambda2) == (-m.lambda2, -m.lambda1)
                continue
            want = _mp_pair(n, p.zeta, q.j1.twice)
            got = (s.lambda1.real, s.lambda2.real)
            assert max(
                abs(g - w) for g, w in zip(got, want)
            ) <= MPMATH_LAMBDA_BOUND, (n, p.zeta, q)
            # The paper's label check, N W(phi) = J.
            assert counting_w(s.branch_meta["phi"], p, 1) == pytest.approx(
                float(q.j1), abs=1e-9
            )


class TestEnvelope:
    @pytest.mark.parametrize("zeta", ENVELOPE_ZETAS)
    def test_every_real_equal_label_solves(self, zeta):
        # Up to N = 64 the energy (magnon_energy of the stored rapidities,
        # the CLI's energy field) is the top eigenvalue of block k, to 1e-12
        # (6.1e-16 measured).
        for n in range(4, 202, 2):
            p = ChainParams(n, zeta)
            tops = None
            if n <= 64:
                blocks = momentum_blocks(build_hamiltonian(p))
                tops = [np.linalg.eigvalsh(block)[-1] for block in blocks]
            for q in _real_equal_labels(p):
                s = solve_equal(q, p)
                assert s.residual <= DEFAULT_DEFECT_TOL, (n, q)
                if tops is None:
                    continue
                top = tops[s.branch_meta["k"]]
                energy = magnon_energy(s.lambda1, s.lambda2, p)
                assert abs(energy - top) <= 1e-12 * max(1.0, abs(top)), (n, q)


INVENTORY_ZETAS = [1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 5.0]


class TestInventory:
    """Where the real equal labels sit, from the enumeration alone."""

    @pytest.mark.parametrize("zeta", INVENTORY_ZETAS)
    def test_one_label_per_block_above_threshold(self, zeta):
        # The real equal labels fill exactly the odd blocks k != N/2 with
        # c = |cos(pi k / N)| > Delta (N - 2) / N, one label per block: the
        # blocks whose top state is real.  Per sign, that is the m
        # collapsed labels plus the edge pair when it stays real, and the
        # half-odd labels above the threshold F.
        for n in range(4, 402, 2):
            p = ChainParams(n, zeta)
            try:
                labels = _real_equal_labels(p)
            except BoundaryDegenerate:
                continue
            blocks = [(-q.j1.twice) % n for q in labels]
            assert len(set(blocks)) == len(blocks), n
            bar = p.delta * (n - 2) / n
            want = [
                k for k in range(1, n, 2)
                if 2 * k != n and abs(math.cos(math.pi * k / n)) > bar
            ]
            assert sorted(blocks) == want, n
            per_sign = collapse_count(p) + (not has_extra_two_string(p))
            assert len(labels) == 2 * per_sign, n
            f = threshold_f(p)
            above = sum(
                1 for twice in range(1, n, 2) if f < twice / 2.0
            )
            assert per_sign == above, n

    @pytest.mark.parametrize("n,zeta", [(4, 1e-3), (22, 1e-3), (64, 0.01),
                                        (64, 3.0), (100, 0.3)])
    def test_special_pairs_hold_every_equal_label(self, n, zeta):
        p = ChainParams(n, zeta)
        equal = [q for q in enumerate_all(p) if q.j1 == q.j2]
        assert sorted(q.key() for q in equal if q.cls.is_real) == sorted(
            q.key() for q in _real_equal_labels(p)
        )

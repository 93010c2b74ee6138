"""Equal-label real pairs via the center/deviation counting function."""
import logging
import math

import pytest

from bethe_xxz import equal_solver
from bethe_xxz.equal_solver import (
    GRID_POINTS,
    PHI_MIN,
    counting_w,
    solve_equal,
    tan2x_complex_raw,
    tan2x_limit,
    tan2x_of_phi,
)
from bethe_xxz.model import (
    BetheError,
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
)
from bethe_xxz.quantum_numbers import enumerate_all, threshold_f

P86 = ChainParams(8, 0.6)


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
        # The root sits in a ~5e-4 sliver of phi just before a branch jump;
        # regression for the jump-edge bracketing of the scanner.
        p = ChainParams(22, 1e-3)
        s = solve_equal(_pair(21), p)
        assert s.lambda1.real == pytest.approx(0.003477566369981977, abs=1e-12)
        assert s.lambda2.real == pytest.approx(1.5704485683993008, abs=1e-12)

    @pytest.mark.parametrize("zeta", [1e-3, 3e-3, 0.01])
    @pytest.mark.parametrize("tw", [3, -3])
    def test_four_site_family_pair_near_isotropic_point(self, zeta, tw):
        # At N = 4 the grid step across the tangent wrap before the root is
        # 0.98, under a jump threshold of 1; the scan used to miss it.
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
        assert meta["method"] == "equal_counting"
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
        return equal_solver.counting_w(phi, p, sign_x) - target

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
            lambda f: equal_solver.counting_w(f, p, 1) - target,
            bracket[0],
            bracket[1],
            xtol=1e-15,
            max_iter=200,
        )
        if abs(equal_solver.counting_w(cand, p, 1) - target) < 1e-8:
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
    try:
        s = solve(q, p)
    except BetheError as exc:
        return type(exc), str(exc)
    return s, s.branch_meta


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


class TestSharedRootFinder:
    @pytest.mark.parametrize("n", range(4, 50, 2))
    def test_same_result_as_reference_scan(self, n, monkeypatch):
        # Every equal label, the complex ones (NoRealSolution) included.
        # counting_w does not depend on the label, so both scans of every
        # label in a sector share one memo of it: same floats, less time.
        for zeta in (1e-3, 0.01, 0.1, 0.5):
            p = ChainParams(n, zeta)
            monkeypatch.setattr(
                equal_solver, "counting_w", _memoized_counting_w(p)
            )
            for q in enumerate_all(p):
                if q.j1 == q.j2:
                    assert _outcome(solve_equal, q, p) == _outcome(
                        _reference_solve_equal, q, p
                    ), (n, zeta, q)

    def test_debug_log_names_brackets_and_outcome(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            solve_equal(_pair(7), P86)
            with pytest.raises(NoRealSolution):
                solve_equal(_pair(5), P86)
        found, missed = [r.getMessage() for r in caplog.records]
        assert found.startswith("equal, J=3.5: brackets [(")
        assert "jumps [], root phi=" in found
        assert missed.startswith("equal, J=2.5: brackets ")
        assert missed.endswith("no root")
        assert {r.name for r in caplog.records} == {"bethe_xxz.equal_solver"}

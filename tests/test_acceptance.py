"""End-to-end acceptance suite.

Each test exercises one headline capability at its stated tolerance and
prints a single pass line; run with -v (or -s) to see them.
"""
import json
import math
import random
import time

import pytest

from bethe_xxz.cli import main as cli_main
from bethe_xxz.counting import (
    contour_bracket,
    counting_w,
    height,
    lambda_star,
    tan2x_of_phi,
    z1,
)
from bethe_xxz.equal_solver import solve_equal
from bethe_xxz.height_solver import solve_pair
from bethe_xxz.model import (
    BoundaryDegenerate,
    ChainParams,
    HalfInt,
    NoRealSolution,
    QuantumPair,
    SolutionClass,
    bae_defect,
)
from bethe_xxz.oracle import completeness_check
from bethe_xxz.quantum_numbers import (
    classify_regime,
    collapse_count_value,
    enumerate_all,
    regime_label_from_inequalities,
    regime_label_from_report,
    threshold_value,
)
from bethe_xxz.string_solver import solve_complex
from bethe_xxz.xxx_limit import trace_divergence
from reference import NARROW, WIDE, diff_p, tan2x_limit


def _report(message):
    print(f"[PASS] {message}")


def test_01_enumeration_matches_reference_inventory(capsys):
    """N=8, zeta=0.6: the 28 emitted pairs equal the reference list exactly."""
    start = time.perf_counter()
    code = cli_main(["enumerate", "--n", "8", "--zeta", "0.6"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    got = {
        (r["j1"], r["j2"], r["class"])
        for r in json.loads(out)["records"]
    }

    interior = ["-5/2", "-3/2", "-1/2", "1/2", "3/2", "5/2"]
    expected = set()
    for i in range(len(interior)):
        for k in range(i + 1, len(interior)):
            expected.add((interior[i], interior[k], "standard_real"))
    for k in ("1/2", "3/2", "5/2"):
        expected.add((k, "7/2", "infinite_family_real"))
        expected.add((f"-{k}", "-7/2", "infinite_family_real"))
    expected |= {
        ("7/2", "7/2", "infinite_family_real"),
        ("-7/2", "-7/2", "infinite_family_real"),
        ("5/2", "5/2", "narrow_pair_complex"),
        ("-5/2", "-5/2", "narrow_pair_complex"),
        ("5/2", "7/2", "wide_pair_complex"),
        ("-7/2", "-5/2", "wide_pair_complex"),
        ("3/2", "5/2", "singular"),
    }
    assert len(expected) == 28
    assert got == expected
    assert elapsed < 1.0
    with capsys.disabled():
        _report(
            f"1. enumerate N=8 zeta=0.6 reproduces the 28-pair reference "
            f"inventory exactly ({elapsed:.2f}s < 1s)"
        )


def test_02_printed_scalars(capsys):
    """Two-string threshold and stability margin at the reference point."""
    f = threshold_value(8, 0.6)
    margin = math.tanh(0.3) ** 2 - 1.0 / 7.0
    assert f == pytest.approx(3.39467, abs=1e-4)
    assert margin == pytest.approx(-0.0579941, abs=1e-6)
    with capsys.disabled():
        _report(
            f"2. F(8,0.6)={f:.5f} (ref 3.39467 +- 1e-4), "
            f"tanh^2(0.3)-1/7={margin:.7f} (ref -0.0579941 +- 1e-6)"
        )


def test_03_completeness_against_exact_diagonalization(capsys):
    """Every Rayleigh energy matches the exact spectrum at four points."""
    start = time.perf_counter()
    worst_err = worst_res = 0.0
    for n, zeta in [(4, 1.0), (8, 0.6), (12, 0.52), (12, 0.57)]:
        match = completeness_check(ChainParams(n, zeta))
        assert len(match.entries) == n * (n - 1) // 2
        worst_err = max(worst_err, match.max_energy_error)
        worst_res = max(worst_res, match.max_residual)
    elapsed = time.perf_counter() - start
    assert worst_err < 1e-6
    assert worst_res < 1e-4  # singular states checked at 1e-4, rest at 1e-8
    assert elapsed < 30.0
    with capsys.disabled():
        _report(
            f"3. completeness verified at 4 parameter points: max energy "
            f"error {worst_err:.2e}, max residual {worst_res:.2e} "
            f"({elapsed:.2f}s < 30s)"
        )


def test_04_extra_string_transition(capsys):
    """N=12 edge pair: real at zeta=0.52, complex narrow at zeta=0.57."""
    start = time.perf_counter()
    j = HalfInt(11)
    real_q = QuantumPair(j, j, SolutionClass.INFINITE_FAMILY_REAL)
    s = solve_equal(real_q, ChainParams(12, 0.52))
    assert s.lambda1.imag == 0.0 and s.residual < 1e-10
    with pytest.raises(NoRealSolution):
        solve_equal(real_q, ChainParams(12, 0.57))
    cplx_q = QuantumPair(j, j, SolutionClass.EXTRA_TWO_STRING)
    c = solve_complex(cplx_q, ChainParams(12, 0.57))
    assert c.branch_meta["branch"] == "narrow"
    assert c.residual < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        _report(
            f"4. edge pair (11/2,11/2) at N=12: real at zeta=0.52, no real "
            f"root at 0.57, narrow complex root at 0.57 ({elapsed:.2f}s < 5s)"
        )


def test_05_collapse_critical_size(capsys):
    """First collapsed two-string appears between 21 and 22 sites.

    At N = 22 every state of the sector, the collapsed pairs included, is
    matched against exact diagonalization.
    """
    start = time.perf_counter()
    below = collapse_count_value(21, 1e-3)
    above = collapse_count_value(22, 1e-3)
    elapsed = time.perf_counter() - start
    assert below == 0
    assert above >= 1
    assert elapsed < 1.0
    start = time.perf_counter()
    code = cli_main(["verify", "--n", "22", "--zeta", "1e-3"])
    verify_elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("231/231 matched;")
    assert verify_elapsed < 5.0
    with capsys.disabled():
        _report(
            f"5. collapse count 0 at N=21 and {above} at N=22 for "
            f"zeta=1e-3 ({elapsed:.2f}s < 1s); verify N=22 matches "
            f"231/231 ({verify_elapsed:.2f}s < 5s)"
        )


def test_06_regime_map_cross_consistency(capsys):
    """Threshold-based and inequality-based labels agree on a 50x50 grid."""
    start = time.perf_counter()
    sizes = list(range(4, 201, 4))
    assert len(sizes) == 50
    lo, hi = 1e-4, 0.5
    points = [lo * (hi / lo) ** (k / 49.0) for k in range(50)]
    checked = boundary = 0
    for n in sizes:
        for t2 in points:
            zeta = 2.0 * math.atanh(math.sqrt(t2))
            try:
                label = regime_label_from_report(
                    classify_regime(ChainParams(n, zeta))
                )
            except BoundaryDegenerate:
                boundary += 1
                continue
            assert label == regime_label_from_inequalities(n, zeta), (n, zeta)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked + boundary == 2500
    assert checked > 2400
    assert elapsed < 5.0
    with capsys.disabled():
        _report(
            f"6. regime labels agree at {checked}/2500 grid points "
            f"({boundary} on boundaries skipped) ({elapsed:.2f}s < 5s)"
        )


def test_07_monotonicity_property_suite(capsys):
    """Height, pair distance, and counting functions are monotone in-branch."""
    start = time.perf_counter()
    rng = random.Random(20260823)
    grid_points = 1000
    for _ in range(20):
        n = rng.choice([6, 8, 10, 12, 14, 16])
        zeta = rng.uniform(0.05, 1.2)
        p = ChainParams(n, zeta)
        tw = rng.choice(range(1, n - 1, 2))
        j1 = HalfInt(tw)

        # Height and pair-distance strictly decrease on the contour.
        br = contour_bracket(j1, p)
        eps = 1e-8 * (br.k_right - br.k_left)
        grid = [
            br.k_left + eps
            + k * (br.k_right - br.k_left - 2 * eps) / (grid_points - 1)
            for k in range(grid_points)
        ]
        h_vals = [height(mu, j1, p) for mu in grid]
        p_vals = [diff_p(mu, j1, p) for mu in grid]
        assert all(a > b for a, b in zip(h_vals, h_vals[1:])), (n, zeta, tw)
        assert all(a > b for a, b in zip(p_vals, p_vals[1:])), (n, zeta, tw)

        # Complex counting function: decreasing on the narrow branch,
        # increasing on the wide branch.
        for branch in (NARROW, WIDE):
            if branch == NARROW:
                lo, hi = 1e-5, 1.0 - 1e-6
            else:
                # (1 - 1e-12)/t keeps atanh(w t) finite.
                lo, hi = 1.0 + 1e-6, (1.0 - 1e-12) / p.t * (1.0 - 1e-9)
            ratio = (hi / lo) ** (1.0 / (grid_points - 1))
            w, prev = lo, None
            for _ in range(grid_points):
                try:
                    val = z1(w, p)
                except Exception:
                    prev = None
                    w = min(w * ratio, hi)
                    continue
                if prev is not None:
                    if branch == NARROW:
                        assert val <= prev + 1e-12, (n, zeta, w)
                    else:
                        assert val >= prev - 1e-12, (n, zeta, w)
                prev = val
                w = min(w * ratio, hi)

        # Equal-label counting function: increasing and continuous within
        # each branch segment (jumps of ~N/2 only at segment ends).
        phi_lo, phi_hi = 1e-7, math.pi / 2.0 - 1e-7
        ratio = (phi_hi / phi_lo) ** (1.0 / (grid_points - 1))
        phi, prev = phi_lo, None
        for _ in range(grid_points):
            try:
                val = counting_w(phi, p, 1)
            except Exception:
                prev = None
                phi = min(phi * ratio, phi_hi)
                continue
            if prev is not None and abs(val - prev) <= 1.0:
                assert val >= prev - 1e-9, (n, zeta, phi)
            prev = val
            phi = min(phi * ratio, phi_hi)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        _report(
            f"7. zero monotonicity violations over 20 random parameter "
            f"points on {grid_points}-point grids ({elapsed:.2f}s < 10s)"
        )


def test_08_limit_checks(capsys):
    """Closed-form limits of the height, distance, and center functions."""
    worst_h = worst_p = worst_t = 0.0
    for n, zeta in [(8, 0.6), (12, 0.52), (12, 0.57), (10, 1.2)]:
        p = ChainParams(n, zeta)
        edge = HalfInt(n - 1)
        # Height on the edge contour tends to 1/2 at the domain edge
        # (linear approach; eliminate the linear term by extrapolation).
        h1 = height(math.pi / 2.0 - 1e-6, edge, p)
        h2 = height(math.pi / 2.0 - 5e-7, edge, p)
        extrapolated = 2.0 * h2 - h1
        worst_h = max(worst_h, abs(extrapolated - 0.5))
        # Pair distance at the first-domain window edge is -pi/2.
        for tw in range(1, n - 1, 2):
            ls = lambda_star(HalfInt(tw), p)
            if ls < math.pi / 2.0 - 1e-12:
                worst_p = max(
                    worst_p, abs(diff_p(ls, HalfInt(tw), p) + math.pi / 2.0)
                )
        # Small-deviation limit of the center tangent square.
        worst_t = max(
            worst_t, abs(tan2x_of_phi(1e-7, 0, p) - tan2x_limit(p))
        )
    assert worst_h < 1e-6
    assert worst_p < 1e-9
    assert worst_t < 1e-8
    with capsys.disabled():
        _report(
            f"8. limits: |h - 1/2| = {worst_h:.2e} < 1e-6, "
            f"|P(lambda*) + pi/2| = {worst_p:.2e} < 1e-9, "
            f"|tan^2 x - limit| = {worst_t:.2e} < 1e-8"
        )


def test_09_symmetry_suite(capsys):
    """Mirrored labels give negated rapidities; the defect is swap-symmetric."""
    worst = 0.0
    count = 0
    for n, zeta in [(8, 0.6), (12, 0.57)]:
        p = ChainParams(n, zeta)
        for q in enumerate_all(p):
            if not q.cls.is_real:
                continue
            if q.j1 != q.j2:
                s = solve_pair(q, p)
                m = solve_pair(q.negated(), p)
                worst = max(
                    worst,
                    abs(m.lambda1 + s.lambda1),
                    abs(m.lambda2 + s.lambda2),
                )
            else:
                s = solve_equal(q, p)
                m = solve_equal(q.negated(), p)
                got = sorted((m.lambda1.real, m.lambda2.real))
                want = sorted((-s.lambda1.real, -s.lambda2.real))
                worst = max(
                    worst, abs(got[0] - want[0]), abs(got[1] - want[1])
                )
            count += 1
            # The product-form defect cannot depend on the pair order.
            assert bae_defect(s.lambda1, s.lambda2, p) == bae_defect(
                s.lambda2, s.lambda1, p
            )
    assert worst < 1e-12
    with capsys.disabled():
        _report(
            f"9. {count} mirrored real pairs negate to {worst:.2e} < 1e-12; "
            f"defect symmetric under index swap"
        )


def test_10_divergence_trace(capsys):
    """Reduced rapidity of the boundary family member grows monotonically."""
    start = time.perf_counter()
    q = QuantumPair(
        HalfInt(7), HalfInt(1), SolutionClass.INFINITE_FAMILY_REAL
    )
    schedule = [0.3, 0.1, 0.03, 0.01]
    trace = trace_divergence(q, ChainParams(8, schedule[0]), schedule)
    elapsed = time.perf_counter() - start
    reduced = [s.reduced for s in trace.samples]
    assert all(a < b for a, b in zip(reduced, reduced[1:]))
    for s in trace.samples:
        if s.zeta <= 0.03:
            assert math.pi / 4.0 <= s.lambda1 < math.pi / 2.0
    assert elapsed < 2.0
    with capsys.disabled():
        _report(
            f"10. (7/2,1/2) trace at N=8: lambda1/zeta rises "
            f"{reduced[0]:.2f} -> {reduced[-1]:.2f}, lambda1 in "
            f"[pi/4, pi/2) at zeta <= 0.03 ({elapsed:.2f}s < 2s)"
        )

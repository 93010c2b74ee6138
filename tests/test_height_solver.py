"""Distinct-label real pairs via the monotone height function."""
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe_xxz import height_solver
from bethe_xxz.dispatch import (
    _goes_to_solve_pair,
    solve_quantum_pair,
    solve_quantum_pairs,
)
from bethe_xxz.height_solver import (
    DISCONTINUITY_TOL,
    ContourBracket,
    _height_guard,
    _polish_log_form,
    _sector_height,
    contour_bracket,
    discontinuity_k,
    height,
    lambda_star,
    solve_pair,
    solve_pairs,
)
from bethe_xxz.model import (
    AtDiscontinuity,
    BetheError,
    ChainParams,
    HalfInt,
    NoRootInBracket,
    NoRootInInterval,
    QuantumPair,
    RapidityPair,
    SolutionClass,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
)
from bethe_xxz.quantum_numbers import enumerate_all
from reference import diff_p

P86 = ChainParams(8, 0.6)


def _real_distinct_pairs(p):
    return [
        q
        for q in enumerate_all(p)
        if q.cls.is_real and q.j1 != q.j2
    ]


def _solve(j1_twice, j2_twice, p):
    q = QuantumPair(
        HalfInt(j1_twice), HalfInt(j2_twice), SolutionClass.STANDARD_REAL
    )
    return solve_pair(q, p)


class TestFrozenSolutions:
    def test_standard_pair(self):
        s = _solve(1, 3, P86)
        assert s.lambda1.real == pytest.approx(0.04690056085296905, abs=1e-12)
        assert s.lambda2.real == pytest.approx(0.2074403635366954, abs=1e-12)
        assert s.lambda1.imag == 0.0 and s.lambda2.imag == 0.0

    def test_infinite_family_pair(self):
        s = _solve(3, 7, P86)
        assert s.lambda1.real == pytest.approx(0.12376070383345561, abs=1e-12)
        assert s.lambda2.real == pytest.approx(1.533458069372903, abs=1e-12)

    def test_boundary_family_pair_pinned_at_edge(self):
        s = _solve(1, 7, P86)
        assert s.lambda1.real == 0.0
        assert s.lambda2.real == math.nextafter(math.pi / 2.0, 0.0)
        assert s.branch_meta["method"] == "boundary_limit"

    def test_label_order_controls_output_order(self):
        a = _solve(1, 3, P86)
        b = _solve(3, 1, P86)
        assert a.lambda1 == b.lambda2 and a.lambda2 == b.lambda1


class TestDefects:
    @pytest.mark.parametrize("n,zeta", [(8, 0.6), (12, 0.52), (12, 0.57),
                                        (8, 0.01), (10, 2.0)])
    def test_all_real_distinct_pairs_converge(self, n, zeta):
        p = ChainParams(n, zeta)
        for q in _real_distinct_pairs(p):
            s = solve_pair(q, p)
            assert s.residual < 1e-10, (q.j1, q.j2)


class TestSymmetry:
    @pytest.mark.parametrize("n,zeta", [(8, 0.6), (12, 0.57)])
    def test_negated_labels_give_negated_rapidities(self, n, zeta):
        p = ChainParams(n, zeta)
        for q in _real_distinct_pairs(p):
            s = solve_pair(q, p)
            m = solve_pair(q.negated(), p)
            assert abs(m.lambda1 + s.lambda1) < 1e-12, (q.j1, q.j2)
            assert abs(m.lambda2 + s.lambda2) < 1e-12, (q.j1, q.j2)


class TestContours:
    def test_lowest_contour_starts_at_zero(self):
        br = contour_bracket(HalfInt(1), P86)
        assert br.k_left == 0.0

    def test_no_left_discontinuity_for_lowest_label(self):
        with pytest.raises(NoRootInInterval):
            discontinuity_k(HalfInt(1), P86)

    def test_contours_tile_the_domain(self):
        labels = [HalfInt(tw) for tw in (1, 3, 5, 7)]
        brs = [contour_bracket(j, P86) for j in labels]
        assert brs[0].k_left == 0.0
        assert brs[-1].k_right == math.pi / 2.0
        for a, b in zip(brs, brs[1:]):
            assert a.k_right == pytest.approx(b.k_left, abs=1e-12)

    def test_height_decreases_on_contour(self):
        br = contour_bracket(HalfInt(5), P86)
        eps = 1e-9 * (br.k_right - br.k_left)
        grid = [
            br.k_left + eps + k * (br.k_right - br.k_left - 2 * eps) / 999
            for k in range(1000)
        ]
        values = [height(mu, HalfInt(5), P86) for mu in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_pair_distance_decreases_on_contour(self):
        br = contour_bracket(HalfInt(5), P86)
        eps = 1e-9 * (br.k_right - br.k_left)
        grid = [
            br.k_left + eps + k * (br.k_right - br.k_left - 2 * eps) / 999
            for k in range(1000)
        ]
        values = [diff_p(mu, HalfInt(5), P86) for mu in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_pair_distance_at_window_edge(self):
        # At the right edge of the first-domain window the distance between
        # the two rapidities is exactly a quarter turn.
        for tw in (1, 3, 5):
            ls = lambda_star(HalfInt(tw), P86)
            assert diff_p(ls, HalfInt(tw), P86) == pytest.approx(
                -math.pi / 2.0, abs=1e-9
            )


class TestErrors:
    def test_rejects_equal_labels(self):
        q = QuantumPair(HalfInt(3), HalfInt(3), SolutionClass.EQUAL_QN_REAL)
        with pytest.raises(ValueError):
            solve_pair(q, P86)


# Reference copy of the unmemoized per-pair contour path: every edge is
# bisected afresh for each pair, tan(mu1) is taken twice per height
# evaluation, each pair is polished in its own label orientation with a
# tangent taken afresh for every use, and the unpolished defect is
# evaluated twice.  The solver must give the same floats.
def _reference_pick_contour(j1, j2):
    if j1 > 0 and j2 > 0:
        return (j1, j2) if j1 > j2 else (j2, j1)
    if j1 > 0:
        return j1, j2
    if j2 > 0:
        return j2, j1
    raise NoRootInBracket(
        f"pair ({j1}, {j2}) has no positive member to host the contour"
    )


def _reference_atan_scaled_derivative(u, c):
    tu = math.tan(u)
    return c * (1.0 + tu * tu) / (c * c + tu * tu)


def _reference_polish_log_form(l1, l2, j1, j2, p):
    t = p.t
    th = math.tanh(p.zeta)

    def residuals(a, b):
        out = []
        for lam, other, j in ((a, b, j1), (b, a, j2)):
            diff = lam - other
            out.append(
                p.n * math.atan(math.tan(lam) / t)
                - math.pi * float(j)
                - math.atan(math.tan(diff) / th)
                - math.pi * math.floor((2.0 * diff + math.pi) / (2.0 * math.pi))
            )
        return out

    for _ in range(4):
        g1, g2 = residuals(l1, l2)
        d_self_1 = p.n * _reference_atan_scaled_derivative(l1, t)
        d_self_2 = p.n * _reference_atan_scaled_derivative(l2, t)
        d_diff = _reference_atan_scaled_derivative(l1 - l2, th)
        j11, j12 = d_self_1 - d_diff, d_diff
        j21, j22 = d_diff, d_self_2 - d_diff
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            break
        step1 = (g1 * j22 - g2 * j12) / det
        step2 = (g2 * j11 - g1 * j21) / det
        l1, l2 = l1 - step1, l2 - step2
        if max(abs(step1), abs(step2)) < 1e-15:
            break
    return l1, l2


def _reference_mu2_of_mu1(mu1, j1, p):
    a = math.tan(mu1)
    inner = p.n * math.atan(math.tan(mu1) / p.t)
    b = math.tanh(p.zeta) / math.tan(inner)
    if abs(b) <= 1.0:
        den = a * b - 1.0
        if abs(den) < DISCONTINUITY_TOL:
            raise AtDiscontinuity(
                f"mu1={mu1!r} sits at a discontinuity of the contour of {j1}"
            )
        value = -(b + a) / den
    else:
        inv = 1.0 / b
        den = a - inv
        if abs(den * b) < DISCONTINUITY_TOL:
            raise AtDiscontinuity(
                f"mu1={mu1!r} sits at a discontinuity of the contour of {j1}"
            )
        value = -(1.0 + a * inv) / den
    return math.atan(value)


def _reference_height(mu1, j1, p):
    mu2 = _reference_mu2_of_mu1(mu1, j1, p)
    diff = mu2 - mu1
    return (
        (p.n / math.pi) * math.atan(math.tan(mu2) / p.t)
        - (1.0 / math.pi) * math.atan(math.tan(diff) / math.tanh(p.zeta))
        - math.floor((2.0 * diff + math.pi) / (2.0 * math.pi))
    )


def _reference_discontinuity_k(j1, p):
    base = math.pi * (float(j1) - 0.5)
    th = math.tanh(p.zeta)

    def mu_of(theta):
        return math.atan(p.t * math.tan((base + theta) / p.n))

    def g(theta):
        return math.tan(mu_of(theta)) * th / math.tan(theta) - 1.0

    if float(j1) == 0.5:
        raise NoRootInInterval(
            f"the contour of j1={j1} has no left discontinuity (starts at 0)"
        )
    lo, hi = 1e-12, math.pi / 2.0 - 1e-12
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 > g_hi):
        raise NoRootInInterval(
            f"no discontinuity bracket for j1={j1} at N={p.n}, zeta={p.zeta}"
        )
    while mu_of(hi) - mu_of(lo) > 1e-14 and hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (mu_of(lo) + mu_of(hi))


def _reference_contour_bracket(j1, p):
    k_left = 0.0 if float(j1) == 0.5 else _reference_discontinuity_k(j1, p)
    if float(j1) + 1.0 > (p.n - 1) / 2.0:
        k_right = math.pi / 2.0
    else:
        k_right = _reference_discontinuity_k(j1 + 1, p)
    return ContourBracket(
        j1=j1, k_left=k_left, k_right=k_right, lambda_star=lambda_star(j1, p)
    )


def _reference_dominant(j1, j2):
    """The label of largest magnitude, or 0 when the magnitudes tie."""
    if abs(j1) == abs(j2):
        return 0
    return j1 if abs(j1) > abs(j2) else j2


def _reference_solve_pair(q, p, defect_tol=1e-10):
    j1, j2 = q.j1, q.j2
    if _reference_dominant(j1, j2) < 0:
        return _reference_solve_pair(q.negated(), p, defect_tol).negated()
    jc, jt = _reference_pick_contour(j1, j2)
    if jc.twice == p.n - 1 and jt.twice == 1:
        lam_edge = math.nextafter(math.pi / 2.0, 0.0)
        lam_by_label = {jc: lam_edge, jt: 0.0}
        l1, l2 = lam_by_label[j1], lam_by_label[j2]
        residual = bae_defect(l1, l2, p)
        if residual > defect_tol:
            raise ToleranceNotReached(
                f"defect {residual!r} above {defect_tol!r} for ({j1}, {j2})"
            )
        return RapidityPair(
            lambda1=complex(l1),
            lambda2=complex(l2),
            residual=residual,
            iterations=0,
            branch_meta={"method": "boundary_limit", "contour_j": str(jc)},
        )
    br = _reference_contour_bracket(jc, p)
    eps = max(1e-12, 1e-9 * (br.k_right - br.k_left))
    lo, hi = br.k_left + eps, br.k_right - eps
    target = float(jt)

    def shifted(mu1):
        return _reference_height(mu1, jc, p) - target

    f_lo, f_hi = shifted(lo), shifted(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NoRootInBracket(
            f"height on the contour of {jc} never attains {jt} "
            f"(N={p.n}, zeta={p.zeta})"
        )
    xtol = max(1e-15, 4.0 * math.ulp(hi))
    mu1, iterations = bisect_monotone(
        shifted, lo, hi, f_lo=f_lo, f_hi=f_hi, xtol=xtol, max_iter=200
    )
    mu2 = _reference_mu2_of_mu1(mu1, jc, p)
    lam_by_label = {jc: mu1, jt: mu2}
    l1, l2 = lam_by_label[j1], lam_by_label[j2]
    polished = _reference_polish_log_form(l1, l2, j1, j2, p)
    if bae_defect(*polished, p) < bae_defect(l1, l2, p):
        l1, l2 = polished
    residual = bae_defect(l1, l2, p)
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for ({j1}, {j2})"
        )
    return RapidityPair(
        lambda1=complex(l1),
        lambda2=complex(l2),
        residual=residual,
        iterations=iterations,
        branch_meta={
            "method": "height_contour",
            "contour_j": str(jc),
            "k_left": br.k_left,
            "k_right": br.k_right,
            "lambda_star": br.lambda_star,
        },
    )


def _outcome(solve, q, p):
    """The solution with its metadata, or the error type and message."""
    try:
        s = solve(q, p)
    except BetheError as exc:
        return type(exc), str(exc)
    return s, s.branch_meta


def _sector(p):
    """Solve every enumerated pair of one sector, as solve-all does."""
    return [_outcome(solve_quantum_pair, q, p) for q in enumerate_all(p)]


EQUIVALENCE_POINTS = [
    (n, zeta)
    for n in range(4, 34, 2)
    for zeta in (1e-3, 0.05, 0.3, 0.6, 1.0, 2.0, 5.0)
] + [(64, 0.3)]


class TestMemoizedContours:
    @pytest.mark.parametrize("n,zeta", EQUIVALENCE_POINTS)
    def test_same_floats_as_reference_path(self, n, zeta):
        p = ChainParams(n, zeta)
        discontinuity_k.cache_clear()
        for q in _real_distinct_pairs(p):
            expected = _outcome(_reference_solve_pair, q, p)
            assert _outcome(solve_pair, q, p) == expected, (q.j1, q.j2)

    def test_kernel_matches_reference_height(self):
        br = contour_bracket(HalfInt(5), P86)
        step = (br.k_right - br.k_left) / 500
        for k in range(1, 500):
            mu = br.k_left + k * step
            assert height(mu, HalfInt(5), P86) == _reference_height(
                mu, HalfInt(5), P86
            )

    @pytest.mark.parametrize("n,zeta", [(16, 0.3), (32, 2.0)])
    def test_one_miss_per_edge_of_a_sector(self, n, zeta):
        p = ChainParams(n, zeta)
        discontinuity_k.cache_clear()
        cold = _sector(p)
        info = discontinuity_k.cache_info()
        # Every contour is used, so every edge 3/2 .. (N-1)/2 is needed.
        assert info.misses == info.currsize == n // 2 - 1
        assert info.hits > info.misses
        assert _sector(p) == cold
        assert discontinuity_k.cache_info().misses == info.misses

    def test_memo_miss_logs_edge_and_steps(self, caplog):
        discontinuity_k.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            k = discontinuity_k(HalfInt(3), P86)
            assert discontinuity_k(HalfInt(3), P86) == k
        (record,) = caplog.records
        assert record.name == "bethe_xxz.height_solver"
        message = record.getMessage()
        assert message.startswith(f"contour edge j1=3/2 N=8 zeta=0.6: k={k!r}")
        assert message.endswith("bisection steps")


def _batched(p):
    """The pairs dispatch sends to solve_pair, in enumeration order."""
    return [q for q in enumerate_all(p) if _goes_to_solve_pair(q, p)]


def _as_outcomes(results):
    """Batch results in the form _outcome gives."""
    return [
        (type(out), str(out)) if isinstance(out, BetheError)
        else (out, out.branch_meta)
        for out in results
    ]


def _batch_outcomes(pairs, p):
    return _as_outcomes(solve_pairs(pairs, p))


def _rapidities():
    """Real rapidities in (-pi/2, pi/2), crowding 0 and both edges."""
    edge = math.pi / 2.0
    return st.one_of(
        st.floats(-edge, edge, exclude_min=True, exclude_max=True),
        st.floats(-1e-12, 1e-12),
        st.floats(edge - 1e-12, edge, exclude_max=True),
        st.floats(-edge, -edge + 1e-12, exclude_min=True),
    )


@st.composite
def _polish_inputs(draw):
    """(p, l1, l2, j1, j2): even N 4-200, zeta in [1e-3, 5], labels of N."""
    half_n = draw(st.integers(2, 100))
    p = ChainParams(2 * half_n, draw(st.floats(1e-3, 5.0)))
    j1, j2 = (
        HalfInt(2 * draw(st.integers(-half_n, half_n - 1)) + 1)
        for _ in range(2)
    )
    return p, draw(_rapidities()), draw(_rapidities()), j1, j2


def _bits(pair):
    """A float pair as exact bit patterns: signed zeros and NaNs compare."""
    return [x.hex() for x in pair]


BATCH_POINTS = [
    (n, zeta)
    for n in range(4, 50, 2)
    for zeta in (1e-3, 0.01, 0.05, 0.3, 0.6, 1.0, 2.0, 5.0)
] + [(64, 0.3), (64, 2.0), (128, 0.3)]


class TestSectorBatch:
    @pytest.mark.parametrize("n,zeta", BATCH_POINTS)
    def test_same_outcomes_as_solve_pair(self, n, zeta):
        p = ChainParams(n, zeta)
        pairs = _batched(p)
        expected = [_outcome(solve_pair, q, p) for q in pairs]
        assert _batch_outcomes(pairs, p) == expected

    @pytest.mark.parametrize("n,zeta", [(8, 0.6), (32, 0.01), (48, 5.0)])
    def test_every_lane_handed_off_at_once(self, n, zeta, monkeypatch):
        # With an infinite guard numpy decides no step: every lane is the
        # scalar bisection from the contour ends.
        p = ChainParams(n, zeta)
        pairs = _batched(p)
        expected = [_outcome(solve_pair, q, p) for q in pairs]
        monkeypatch.setattr(height_solver, "SIGN_GUARD", math.inf)
        assert _batch_outcomes(pairs, p) == expected

    @pytest.mark.parametrize(
        "n,zeta",
        BATCH_POINTS[::5] + [(128, 0.3), (200, 0.05), (400, 0.05), (600, 0.1)],
    )
    def test_numpy_height_within_a_tenth_of_the_guard(self, n, zeta):
        p = ChainParams(n, zeta)
        height_np = _sector_height(p)
        mu = np.linspace(1e-9, math.pi / 2.0 - 1e-9, 20001)
        h, clear = height_np(mu)
        assert clear.sum() > 0.9 * mu.size
        worst = 0.0
        for x, value in zip(mu[clear].tolist(), h[clear].tolist()):
            # The kernel is label-free; the label only names the contour.
            worst = max(worst, abs(value - height(x, HalfInt(1), p)))
        assert worst < _height_guard(n) / 10.0

    def test_floor_step_is_never_clear(self):
        # At lambda_star the floor argument of the first equation is an
        # integer: numpy and the scalar kernel may floor to either side.
        for tw in (1, 3, 5):
            mu = np.array([lambda_star(HalfInt(tw), P86)])
            _, clear = _sector_height(P86)(mu)
            assert not clear[0]

    def test_discontinuity_is_never_clear(self):
        k = discontinuity_k(HalfInt(5), P86)
        mu = np.array([math.nextafter(k, 0.0), k, math.nextafter(k, 2.0)])
        _, clear = _sector_height(P86)(mu)
        assert not clear.any()

    def test_mirrored_and_reversed_pairs_share_a_lane(self, caplog):
        pairs = [
            QuantumPair(HalfInt(a), HalfInt(b), SolutionClass.STANDARD_REAL)
            for a, b in ((3, 5), (5, 3), (-3, -5), (-5, -3), (1, 3))
        ]
        # Solving pair by pair first warms the contour memo, so the batch
        # logs no edge line.
        expected = [solve_pair(q, P86) for q in pairs]
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            out = solve_pairs(pairs, P86)
        assert out == expected
        assert [o.branch_meta.get("mirrored") for o in out] == [
            None, None, True, True, None,
        ]
        (record,) = caplog.records
        assert record.name == "bethe_xxz.height_solver"
        message = record.getMessage()
        assert message.startswith(
            "sector batch N=8 zeta=0.6: 5 pairs, 2 lanes, "
        )
        assert "lockstep steps, " in message
        assert re.search(
            r"scalar steps, 2 lanes finished, [0-2] kept the polished pair$",
            message,
        )

    @pytest.mark.parametrize("n,zeta", [(16, 0.3), (64, 2.0)])
    def test_one_finish_per_lane(self, n, zeta, monkeypatch, caplog):
        p = ChainParams(n, zeta)
        pairs = _batched(p)
        expected = [_outcome(solve_pair, q, p) for q in pairs]
        polish, defect = _polish_log_form, bae_defect
        calls = {"polish": 0, "defect": 0, "kept": 0}

        def counting_polish(l1, l2, j1, j2, p):
            calls["polish"] += 1
            out = polish(l1, l2, j1, j2, p)
            calls["kept"] += defect(*out, p) < defect(l1, l2, p)
            return out

        def counting_defect(l1, l2, p):
            calls["defect"] += 1
            return defect(l1, l2, p)

        monkeypatch.setattr(height_solver, "_polish_log_form", counting_polish)
        monkeypatch.setattr(height_solver, "bae_defect", counting_defect)
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz.height_solver"):
            assert _batch_outcomes(pairs, p) == expected
        # A lane is the pair's (contour, target) after mirroring; every
        # member of a lane whose bisection found a root is polished or fails
        # the defect tolerance.
        lanes = {}
        for q, (out, _) in zip(pairs, expected):
            if _reference_dominant(q.j1, q.j2) < 0:
                q = q.negated()
            lane = _reference_pick_contour(q.j1, q.j2)
            lanes.setdefault(lane, set()).add(
                out.branch_meta["method"] if isinstance(out, RapidityPair)
                else out
            )
        polished = [
            lane for lane, kinds in lanes.items()
            if kinds <= {"height_contour", ToleranceNotReached}
        ]
        boundary = [
            lane for lane, kinds in lanes.items() if kinds == {"boundary_limit"}
        ]
        assert len(polished) + len(boundary) == len(lanes) < len(pairs)
        assert calls["polish"] == len(polished)
        assert calls["defect"] == 2 * len(polished) + len(boundary)
        (record,) = caplog.records
        assert record.getMessage().endswith(
            f"{len(polished)} lanes finished, {calls['kept']} kept the "
            "polished pair"
        )

    @pytest.mark.parametrize("n,zeta", [(16, 0.3), (64, 2.0)])
    def test_one_bisection_finishes_each_lane(self, n, zeta, monkeypatch):
        # numpy only narrows brackets: each bisected lane ends in exactly
        # one bisect_monotone, resumed from its lockstep bracket with the
        # iterations it has left, and counts the steps of both.
        p = ChainParams(n, zeta)
        pairs = _batched(p)
        expected = [_outcome(solve_pair, q, p) for q in pairs]
        lockstep, finish = height_solver._lockstep, height_solver._finish_lane
        rows, narrowed, bisections, iterations = [], [], [], []

        def recording_lockstep(given, p):
            out = lockstep(given, p)
            rows.extend(given)
            narrowed.extend(out)
            return out

        def recording_bisect(f, lo, hi, **kwargs):
            root, more = bisect_monotone(f, lo, hi, **kwargs)
            bisections.append((lo, hi, kwargs["max_iter"], more))
            return root, more

        def recording_finish(tc, tt, mu1, steps, *rest):
            iterations.append(steps)
            return finish(tc, tt, mu1, steps, *rest)

        monkeypatch.setattr(height_solver, "_lockstep", recording_lockstep)
        monkeypatch.setattr(height_solver, "bisect_monotone", recording_bisect)
        monkeypatch.setattr(height_solver, "_finish_lane", recording_finish)
        assert _batch_outcomes(pairs, p) == expected
        assert len(bisections) == len(narrowed) == len(iterations) > 1
        assert sum(done for _, _, done in narrowed) > 0
        for (lo, hi, done), (b_lo, b_hi, budget, more), steps in zip(
            narrowed, bisections, iterations
        ):
            assert (b_lo, b_hi) == (lo, hi)
            assert budget == height_solver.MAX_ITER - done
            assert steps == done + more

        # Each narrowed bracket is the one the scalar bisection holds after
        # as many steps from the contour's bracket.
        for (lo0, hi0, xtol, target), (lo, hi, done) in zip(rows, narrowed):
            # The kernel is label-free; the label only names the contour.
            shifted = height_solver._contour_maps(HalfInt(1), p, target)[1]
            assert bisect_monotone(
                shifted, lo0, hi0, xtol=xtol, max_iter=done
            ) == (0.5 * (lo + hi), done)

    def test_lone_lane_skips_the_lockstep(self, monkeypatch, caplog):
        # A pair and its reverse share one lane; solve_pair and the batch
        # both bisect it from the contour's bracket, with no numpy step.
        pairs = [
            QuantumPair(HalfInt(a), HalfInt(b), SolutionClass.STANDARD_REAL)
            for a, b in ((3, 5), (5, 3))
        ]
        expected = [solve_pair(q, P86) for q in pairs]
        setup = height_solver._setup(HalfInt(5), P86)
        calls = []

        def recording_bisect(f, lo, hi, **kwargs):
            calls.append((lo, hi, kwargs["max_iter"]))
            return bisect_monotone(f, lo, hi, **kwargs)

        def no_lockstep(rows, p):
            raise AssertionError(f"lockstep over {len(rows)} lane(s)")

        monkeypatch.setattr(height_solver, "bisect_monotone", recording_bisect)
        monkeypatch.setattr(height_solver, "_lockstep", no_lockstep)
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz.height_solver"):
            assert solve_pair(pairs[0], P86) == expected[0]
            assert solve_pairs(pairs, P86) == expected
        full = (setup.lo, setup.hi, height_solver.MAX_ITER)
        assert calls == [full, full]
        (record,) = caplog.records
        assert record.getMessage().startswith(
            "sector batch N=8 zeta=0.6: 2 pairs, 1 lanes, 0 lockstep steps, "
            f"1 scalar hand-offs, {expected[0].iterations} scalar steps, "
            "1 lanes finished, "
        )

    @settings(max_examples=300, deadline=None)
    @given(_polish_inputs())
    def test_finish_swaps_exactly_with_the_members(self, drawn):
        p, l1, l2, j1, j2 = drawn
        # A reversed member takes the exact swap of its lane's finish; this
        # holds as long as the libm tan and atan are odd.
        forward = _bits(_polish_log_form(l1, l2, j1, j2, p))
        backward = _bits(_polish_log_form(l2, l1, j2, j1, p))
        assert backward == forward[::-1]
        assert bae_defect(l2, l1, p) == bae_defect(l1, l2, p)

    @settings(max_examples=300, deadline=None)
    @given(_polish_inputs())
    def test_polish_repeats_the_reference_steps(self, drawn):
        p, l1, l2, j1, j2 = drawn
        # Away from a root every Newton step counts, so a reordered
        # operation in the residuals or the Jacobian changes the bits.
        assert _bits(_polish_log_form(l1, l2, j1, j2, p)) == _bits(
            _reference_polish_log_form(l1, l2, j1, j2, p)
        )

    def test_rejects_equal_labels(self):
        q = QuantumPair(HalfInt(3), HalfInt(3), SolutionClass.EQUAL_QN_REAL)
        with pytest.raises(ValueError):
            solve_pairs([q], P86)

    def test_empty_batch(self):
        assert solve_pairs([], P86) == []

    @pytest.mark.parametrize("n,zeta", [(16, 0.6), (64, 2.0)])
    def test_dispatch_batch_matches_per_pair(self, n, zeta, fail_complex):
        # Every complex pair solves, so the narrow ones are made to fail.
        fail_complex(lambda q: q.cls is SolutionClass.NARROW_PAIR_COMPLEX)
        p = ChainParams(n, zeta)
        pairs = enumerate_all(p)
        results = solve_quantum_pairs(pairs, p)
        assert any(isinstance(out, BetheError) for out in results)
        expected = [_outcome(solve_quantum_pair, q, p) for q in pairs]
        assert _as_outcomes(results) == expected

"""Distinct-label real pairs as momentum-block scattering states, and the
paper's height function that labels them."""
import cmath
import logging
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe_xxz import height_solver
from bethe_xxz.dispatch import solve_quantum_pair, solve_quantum_pairs
from bethe_xxz.height_solver import (
    DEFAULT_DEFECT_TOL,
    DISCONTINUITY_TOL,
    ContourBracket,
    _polish_log_form,
    _scattering_root,
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
    BoundaryDegenerate,
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
    magnon_energy,
    newton_monotone,
)
from bethe_xxz.oracle import _momentum, build_hamiltonian, momentum_blocks
from bethe_xxz.quantum_numbers import (
    block_address,
    collapse_count,
    enumerate_all,
    has_extra_two_string,
    is_boundary_family_pair,
    threshold_f,
)
from reference import diff_p, height_guard, sector_height

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
        # It carries the exact momenta (pi, 0) of (0, pi/2), in label order.
        assert s.momenta == (math.pi, 0.0)
        assert _solve(7, 1, P86).momenta == (0.0, math.pi)

    def test_label_order_controls_output_order(self):
        a = _solve(1, 3, P86)
        b = _solve(3, 1, P86)
        assert a.lambda1 == b.lambda2 and a.lambda2 == b.lambda1
        # The momenta follow their rapidities: pi k / N -+ q of block k = 6.
        assert a.momenta == b.momenta[::-1]
        assert all(isinstance(momentum, float) for momentum in a.momenta)
        half_k = 0.5 * sum(a.momenta)
        assert half_k == pytest.approx(math.pi * 6 / 8, abs=1e-15)
        for momentum, lam in zip(a.momenta, (a.lambda1, a.lambda2)):
            off = cmath.exp(1j * momentum) - cmath.exp(
                1j * _momentum(lam, P86)
            )
            assert abs(off) <= 1e-12


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
            # Mirrored labels carry exactly the negated momenta; only the
            # boundary pair carries none.
            if s.momenta is None:
                assert m.momenta is None
                assert s.branch_meta["method"] == "boundary_limit"
            else:
                assert m.momenta == (-s.momenta[0], -s.momenta[1])


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


# The contour path that solved these pairs before the momentum blocks did:
# the height is bisected on the contour of one label, between two
# discontinuity points, for the other label.  It stays as the reference
# that the block roots are compared with (TestContourPath).
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


def _contour_solve_pair(q, p, defect_tol=1e-10):
    j1, j2 = q.j1, q.j2
    if _reference_dominant(j1, j2) < 0:
        return _contour_solve_pair(q.negated(), p, defect_tol).negated()
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


def _reference_block(j1, j2, n):
    """(k, m): the block and the level of the labels j1 + j2 >= 0."""
    total, gap = float(j1) + float(j2), abs(float(j1) - float(j2))
    k = round(-total) % n
    return k, round(gap) if total > 0 else n - 2 - round(gap)


def _reference_newton(f, n, k, m, p):
    """(root, steps): Newton on f = F - m pi, from the end of
    [m pi / N, (m + 2) pi / N] on Fourier's side, with F' taken afresh at
    every step.  It stops when f vanishes or a step turns back, and has no
    fallback: an iterate that leaves the bracket fails the test.
    """
    lo, hi = m * math.pi / n, min(math.pi, (m + 2) * math.pi / n)
    r = math.cos(math.pi * k / n) / p.delta
    rising = r < 0.0  # concave: start left and move right
    x, steps = (lo if rising else hi), 0
    while True:
        fx = f(x)
        steps += 1
        if fx == 0.0:
            return x, steps
        c = math.cos(x)
        nxt = x - fx / (n - 2.0 * (1.0 - r * c) / (1.0 + r * r - 2.0 * r * c))
        assert lo <= nxt <= hi, (n, k, m, p.zeta, x, nxt)
        if (nxt <= x) if rising else (nxt >= x):
            return x, steps
        x = nxt


def _reference_bisection(f, n, k, m, p):
    """(root, steps): the bisection the block path ran before Newton."""
    return bisect_monotone(
        f, m * math.pi / n, min(math.pi, (m + 2) * math.pi / n), xtol=0.0
    )


def _reference_solve_pair(q, p, defect_tol=1e-10, root_of=_reference_newton):
    """The block path for one pair, written out afresh.

    No lane is shared: the block and level come from the labels' floats,
    F takes its constants afresh at every step, the rapidities are ordered
    by hand and polished in the pair's own label order.  With the default
    root_of the solver must give the same floats.
    """
    j1, j2 = q.j1, q.j2
    if float(j1) + float(j2) < 0:
        return _reference_solve_pair(
            q.negated(), p, defect_tol, root_of
        ).negated()
    n = p.n
    k, m = _reference_block(j1, j2, n)
    lo_label, hi_label = sorted((j1, j2))
    if not 0 < m < n - 2:
        raise NoRootInBracket(
            f"labels ({lo_label}, {hi_label}) fall on level m={m} of "
            f"block k={k}, outside 0 < m < {n - 2} (N={n}, zeta={p.zeta})"
        )
    if {j1.twice, j2.twice} == {1, n - 1}:
        lam_edge = math.nextafter(math.pi / 2.0, 0.0)
        l1, l2, iterations = 0.0, lam_edge, 0
        residual = bae_defect(lam_edge, 0.0, p)
        meta = {"method": "boundary_limit", "contour_j": str(HalfInt(n - 1))}
        if j1 > j2:
            l1, l2 = l2, l1
    else:
        def f(x):
            return (
                n * x
                - 2.0 * math.atan2(
                    math.sin(x), math.cos(x) - math.cos(math.pi * k / n) / p.delta
                )
                - m * math.pi
            )

        root, iterations = root_of(f, n, k, m, p)
        lams = []
        for momentum in (math.pi * k / n - root, math.pi * k / n + root):
            lam = math.atan2(
                p.t * math.cos(0.5 * momentum), math.sin(0.5 * momentum)
            )
            if lam > math.pi / 2.0:
                lam -= math.pi
            elif lam <= -math.pi / 2.0:
                lam += math.pi
            lams.append(lam)
        small, large = min(lams), max(lams)
        l1, l2 = (large, small) if j1 > j2 else (small, large)
        polished = _polish_log_form(l1, l2, j1, j2, p)
        residual = bae_defect(l1, l2, p)
        if bae_defect(*polished, p) < residual:
            l1, l2 = polished
            residual = bae_defect(l1, l2, p)
        meta = {
            "method": "momentum_block", "branch": "scattering", "k": k,
            "q": root,
        }
    if residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {residual!r} above {defect_tol!r} for ({j1}, {j2})"
        )
    return RapidityPair(
        lambda1=complex(l1),
        lambda2=complex(l2),
        residual=residual,
        iterations=iterations,
        branch_meta=meta,
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
    # The name stays from when the contours were memoized; the reference is
    # now the block path written out afresh.
    @pytest.mark.parametrize("n,zeta", EQUIVALENCE_POINTS)
    def test_same_floats_as_reference_path(self, n, zeta):
        p = ChainParams(n, zeta)
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

    def test_edge_logs_label_and_steps(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            k = discontinuity_k(HalfInt(3), P86)
        (record,) = caplog.records
        assert record.name == "bethe_xxz.height_solver"
        message = record.getMessage()
        assert message.startswith(f"contour edge j1=3/2 N=8 zeta=0.6: k={k!r}")
        assert message.endswith("bisection steps")

    def test_sector_solve_bisects_no_edge(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz.height_solver"):
            _sector(ChainParams(16, 0.3))
        assert not [
            r for r in caplog.records if "contour edge" in r.getMessage()
        ]


def _batched(p):
    """The pairs dispatch sends to solve_pair, in enumeration order."""
    return [q for q in enumerate_all(p) if _is_scattering(q, p)]


def _is_scattering(q, p):
    return block_address(q, p)[1] == "scattering"


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

    @pytest.mark.parametrize(
        "n,zeta",
        BATCH_POINTS[::5] + [(128, 0.3), (200, 0.05), (400, 0.05), (600, 0.1)],
    )
    def test_numpy_height_within_a_tenth_of_the_guard(self, n, zeta):
        # An independent numpy evaluation of the paper's height (the label
        # check), against the package's scalar one.
        p = ChainParams(n, zeta)
        height_np = sector_height(p)
        mu = np.linspace(1e-9, math.pi / 2.0 - 1e-9, 20001)
        h, clear = height_np(mu)
        assert clear.sum() > 0.9 * mu.size
        worst = 0.0
        for x, value in zip(mu[clear].tolist(), h[clear].tolist()):
            # The kernel is label-free; the label only names the contour.
            worst = max(worst, abs(value - height(x, HalfInt(1), p)))
        assert worst < height_guard(n) / 10.0

    def test_floor_step_is_never_clear(self):
        # At lambda_star the floor argument of the first equation is an
        # integer: numpy and the scalar kernel may floor to either side.
        for tw in (1, 3, 5):
            mu = np.array([lambda_star(HalfInt(tw), P86)])
            _, clear = sector_height(P86)(mu)
            assert not clear[0]

    def test_discontinuity_is_never_clear(self):
        k = discontinuity_k(HalfInt(5), P86)
        mu = np.array([math.nextafter(k, 0.0), k, math.nextafter(k, 2.0)])
        _, clear = sector_height(P86)(mu)
        assert not clear.any()

    def test_mirrored_and_reversed_pairs_share_a_lane(self, caplog):
        pairs = [
            QuantumPair(HalfInt(a), HalfInt(b), SolutionClass.STANDARD_REAL)
            for a, b in ((3, 5), (5, 3), (-3, -5), (-5, -3), (1, 3))
        ]
        # (3/2, 5/2) and its kin are block 4, level 1; (1/2, 3/2) is block 6,
        # level 1.  The batch logs one line and bisects no contour edge.
        expected = [solve_pair(q, P86) for q in pairs]
        with caplog.at_level(logging.DEBUG, logger="bethe_xxz"):
            out = solve_pairs(pairs, P86)
        assert out == expected
        assert [o.branch_meta.get("mirrored") for o in out] == [
            None, None, True, True, None,
        ]
        assert [o.branch_meta["k"] for o in out] == [4, 4, 4, 4, 6]
        (record,) = caplog.records
        assert record.name == "bethe_xxz.height_solver"
        steps = expected[0].iterations, expected[4].iterations
        assert re.fullmatch(
            f"sector batch N=8 zeta=0.6: 5 pairs, 2 lanes, {sum(steps)} "
            f"root-finder steps \\(at most {max(steps)} per lane\\), "
            r"0 fallbacks to bisection, [0-2] kept the polished pair",
            record.getMessage(),
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
        # A lane is the pair's block and level (k, m) after mirroring; every
        # member of a lane whose bisection found a root is polished or fails
        # the defect tolerance.
        lanes = {}
        for q, (out, _) in zip(pairs, expected):
            if float(q.j1) + float(q.j2) < 0:
                q = q.negated()
            lane = _reference_block(q.j1, q.j2, n)
            lanes.setdefault(lane, set()).add(
                out.branch_meta["method"] if isinstance(out, RapidityPair)
                else out
            )
        polished = [
            lane for lane, kinds in lanes.items()
            if kinds <= {"momentum_block", ToleranceNotReached}
        ]
        boundary = [
            lane for lane, kinds in lanes.items() if kinds == {"boundary_limit"}
        ]
        assert len(polished) + len(boundary) == len(lanes) < len(pairs)
        assert calls["polish"] == len(polished)
        assert calls["defect"] == 2 * len(polished) + len(boundary)
        (record,) = caplog.records
        assert record.getMessage().endswith(
            f"0 fallbacks to bisection, {calls['kept']} kept the polished pair"
        )

    @pytest.mark.parametrize("n,zeta", [(16, 0.3), (64, 2.0)])
    def test_one_root_per_lane(self, n, zeta, monkeypatch):
        # Each lane is one newton_monotone on [m pi / N, (m + 2) pi / N],
        # started at its right end for C >= 0 and its left end for C < 0,
        # and its members report that root and its steps.
        p = ChainParams(n, zeta)
        pairs = _batched(p)
        expected = [_outcome(solve_pair, q, p) for q in pairs]
        calls = []

        def recording_newton(f, df, lo, hi, start):
            out = newton_monotone(f, df, lo, hi, start)
            calls.append((lo, hi, start, out))
            return out

        monkeypatch.setattr(height_solver, "newton_monotone", recording_newton)
        assert _batch_outcomes(pairs, p) == expected
        # The lanes in the order the batch meets them.
        lanes = {}
        for q, (out, meta) in zip(pairs, expected):
            if meta.get("method") == "momentum_block":
                if float(q.j1) + float(q.j2) < 0:
                    q = q.negated()
                _, m = _reference_block(q.j1, q.j2, n)
                lanes.setdefault((meta["k"], m), (meta["q"], out.iterations))
        assert len(calls) == len(lanes) > 1
        starts = set()
        for ((k, m), (root, steps)), (lo, hi, start, out) in zip(
            lanes.items(), calls
        ):
            assert out == (root, steps, False), (k, m)
            assert (lo, hi) == (m * math.pi / n, (m + 2) * math.pi / n)
            convex = math.cos(math.pi * k / n) >= 0.0
            assert start == (hi if convex else lo), (k, m)
            starts.add(convex)
        assert starts == {True, False}

    @pytest.mark.parametrize("n,zeta", [(16, 0.3), (64, 2.0)])
    def test_fallback_gives_the_bisection_root(self, n, zeta, monkeypatch):
        # A slope of the wrong sign sends the first Newton step out of the
        # bracket, so every lane falls back to the bisection it ran before
        # Newton: the same root, rapidities and defect as that reference.
        p = ChainParams(n, zeta)
        pairs = _batched(p)
        fallbacks = []

        def reversed_slope(f, df, lo, hi, start):
            out = newton_monotone(f, lambda x: -df(x), lo, hi, start)
            fallbacks.append(out[2])
            return out

        monkeypatch.setattr(height_solver, "newton_monotone", reversed_slope)
        solved = solve_pairs(pairs, p)
        assert len(fallbacks) > 1 and all(fallbacks)
        for q, s in zip(pairs, solved):
            old = _reference_solve_pair(q, p, root_of=_reference_bisection)
            assert s.branch_meta == old.branch_meta, (q.j1, q.j2)
            assert (s.lambda1, s.lambda2, s.residual) == (
                old.lambda1, old.lambda2, old.residual,
            ), (q.j1, q.j2)

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


# Largest |lambda - lambda of the contour path| over every distinct-label
# real pair of even N 4-64, 100, 128 and 200 x ENVELOPE_ZETAS: 9.68e-13, at
# (44, 1e-3), (-15/2, -43/2).  The contour path is the one that is off: the
# block roots are within 1.6e-13 of mpmath (TestCertificate).
LAMBDA_BOUND = 1e-12
CONTOUR_POINTS = [
    (n, zeta) for n in (4, 8, 16, 22, 32) for zeta in (1e-3, 0.3, 2.0)
] + [(44, 1e-3)]


class TestContourPath:
    @pytest.mark.parametrize("n,zeta", CONTOUR_POINTS)
    def test_lambda_near_the_contour_path(self, n, zeta):
        p = ChainParams(n, zeta)
        for q in _real_distinct_pairs(p):
            old, new = _contour_solve_pair(q, p), solve_pair(q, p)
            assert abs(new.lambda1 - old.lambda1) <= LAMBDA_BOUND, (q.j1, q.j2)
            assert abs(new.lambda2 - old.lambda2) <= LAMBDA_BOUND, (q.j1, q.j2)


def _mp_scattering(n, k, m, zeta):
    """mpmath root q of F(q) = m pi in block k, and the sorted rapidities."""
    with mpmath.workdps(60):
        zeta = mpmath.mpf(zeta)
        ratio = mpmath.cos(mpmath.pi * k / n) / mpmath.cosh(zeta)

        def f(x):
            return (
                n * x
                - 2 * mpmath.atan2(mpmath.sin(x), mpmath.cos(x) - ratio)
                - m * mpmath.pi
            )

        root = mpmath.findroot(
            f, (m * mpmath.pi / n, (m + 2) * mpmath.pi / n), solver="anderson"
        )
        t = mpmath.tanh(zeta / 2)
        lams = sorted(
            mpmath.atan(t * mpmath.cot((mpmath.pi * k / n + s * root) / 2))
            for s in (-1, 1)
        )
        return float(root), [float(lam) for lam in lams]


def _lane_sample(p, count):
    """About count pairs with J1 < J2 and J1 + J2 >= 0, one per lane."""
    lanes = [
        q for q in enumerate_all(p)
        if _is_scattering(q, p) and q.j1 < q.j2
        and q.j1.twice + q.j2.twice >= 0
    ]
    return lanes[:: max(1, len(lanes) // count)]


CERTIFICATE_POINTS = [
    (4, 1e-3), (8, 0.6), (16, 0.01), (22, 1e-3), (44, 1e-3), (48, 0.3),
    (64, 2.0), (100, 5.0), (128, 1e-3), (200, 0.1), (200, 1e-3),
]
# Measured over these points first: 8.9e-16 for q and 1.51e-13 for lambda
# (at (44, 1e-3); at small zeta lambda is ill-conditioned in the momentum).
MP_Q_BOUND = 1e-15
MP_LAMBDA_BOUND = 1.6e-13


class TestCertificate:
    @pytest.mark.parametrize("n,zeta", CERTIFICATE_POINTS)
    def test_root_and_rapidities_match_mpmath(self, n, zeta):
        p = ChainParams(n, zeta)
        for q in _lane_sample(p, 12):
            s = solve_pair(q, p)
            if s.branch_meta["method"] == "boundary_limit":
                continue
            k, _, m, _ = block_address(q, p)
            root, lams = _mp_scattering(n, k, m, zeta)
            assert s.branch_meta["k"] == k
            assert abs(s.branch_meta["q"] - root) <= MP_Q_BOUND, (q.j1, q.j2)
            # The larger rapidity belongs to the larger label.
            assert abs(s.lambda1.real - lams[0]) <= MP_LAMBDA_BOUND
            assert abs(s.lambda2.real - lams[1]) <= MP_LAMBDA_BOUND

    @pytest.mark.parametrize(
        "n,zeta",
        [(n, zeta) for n in (4, 8, 16, 22, 48, 100, 200)
         for zeta in (1e-3, 0.05, 0.6, 5.0)],
    )
    def test_height_returns_the_other_label(self, n, zeta):
        # The paper's result (iv): on the contour of its larger label jc,
        # the height at the rapidity of jc is the other label.  Measured
        # first: |height - J| <= 5.2e-6 (at (200, 1e-3), where the closed
        # form for the second rapidity is ill-conditioned).
        p = ChainParams(n, zeta)
        for q in _lane_sample(p, 40):
            s = solve_pair(q, p)
            jc, jt, mu = (
                (q.j2, q.j1, s.lambda2.real) if q.j2 > 0
                else (q.j1, q.j2, s.lambda1.real)
            )
            assert height(mu, jc, p) == pytest.approx(float(jt), abs=1e-5), (
                q.j1, q.j2,
            )


class TestBisectionBound:
    @pytest.mark.parametrize("n,zeta", EQUIVALENCE_POINTS)
    def test_near_the_bisection_root(self, n, zeta):
        # The bisection the block path ran before Newton, as an independent
        # bound.  Measured first over these points: q within 4.3e-16
        # (relative, at (24, 0.3)) and lambda within 3.5e-13 (at
        # (30, 1e-3)); with CERTIFICATE_POINTS too, 9.6e-16 and 4.0e-13.
        p = ChainParams(n, zeta)
        for q in _real_distinct_pairs(p):
            old = _reference_solve_pair(q, p, root_of=_reference_bisection)
            new = solve_pair(q, p)
            assert new.branch_meta.keys() == old.branch_meta.keys()
            if "q" in old.branch_meta:
                q_old = old.branch_meta["q"]
                assert abs(new.branch_meta["q"] - q_old) <= MP_Q_BOUND * q_old
            assert abs(new.lambda1 - old.lambda1) <= LAMBDA_BOUND, (q.j1, q.j2)
            assert abs(new.lambda2 - old.lambda2) <= LAMBDA_BOUND, (q.j1, q.j2)


ENVELOPE_ZETAS = [1e-3, 0.01, 0.05, 0.3, 0.6, 1.0, 2.0, 3.0, 4.5, 5.0]


@pytest.mark.parametrize("zeta", ENVELOPE_ZETAS)
def test_newton_needs_at_most_eight_steps(zeta):
    # Every level 0 < m < N - 2 of the parity of the block's lanes,
    # m = k + 1 (mod 2), a superset of the lanes the solver meets.
    # Measured first: 2-8 steps, mostly 3 or 4, and no fallback.
    for n in (8, 22, 64, 128, 200):
        p = ChainParams(n, zeta)
        for k in range(n):
            a = math.pi * k / n
            for m in range(1 + k % 2, n - 2, 2):
                _, steps, fell_back = _scattering_root(a, m, p)
                assert steps <= 8 and not fell_back, (n, k, m)


class TestEnvelope:
    @pytest.mark.parametrize("zeta", ENVELOPE_ZETAS)
    def test_every_scattering_pair_solves(self, zeta):
        # Measured first, over these points: defect <= 1.92e-13; for N <= 64
        # magnon_energy of the stored rapidities is an eigenvalue of block k
        # to 1.0e-15 relative; the pair's momenta equal those of its
        # rapidities to 1.8e-15 mod 2 pi.
        for n in list(range(4, 66, 2)) + [100, 128, 200]:
            p = ChainParams(n, zeta)
            pairs = _batched(p)
            blocks = None
            if n <= 64:
                blocks = [
                    np.linalg.eigvalsh(b)
                    for b in momentum_blocks(build_hamiltonian(p))
                ]
            for q, s in zip(pairs, solve_pairs(pairs, p)):
                assert isinstance(s, RapidityPair), (n, q.j1, q.j2, s)
                assert s.residual <= DEFAULT_DEFECT_TOL
                meta = s.branch_meta
                # The other members of a lane are its exact swap and mirror.
                if meta["method"] != "momentum_block" or not (
                    q.j1 < q.j2 and q.j1.twice + q.j2.twice >= 0
                ):
                    continue
                if blocks is not None:
                    energy = magnon_energy(s.lambda1, s.lambda2, p)
                    gap = np.min(np.abs(blocks[meta["k"]] - energy))
                    assert gap <= 1e-12 * max(1.0, abs(energy)), (n, q.j1, q.j2)
                for momentum, lam in zip(s.momenta, (s.lambda1, s.lambda2)):
                    off = cmath.exp(1j * momentum) - cmath.exp(
                        1j * _momentum(lam, p)
                    )
                    assert abs(off) <= 1e-12, (n, q.j1, q.j2)


INVENTORY_ZETAS = [1e-3, 0.01, 0.05, 0.3, 0.6, 1.0, 2.0, 3.0, 5.0]
# Every even N to 64, then a stride: enumerating every even N 4-200 takes
# 1.4 s per zeta.  The full grid is run outside tier-1 (CHANGES.md).
INVENTORY_NS = tuple(range(4, 66, 2)) + (66, 98, 100, 128, 150, 198, 200)


class TestBlockInventory:
    """Solve-free: the scattering labels of block k carry its levels."""

    @pytest.mark.parametrize(
        "ns,zeta",
        [(INVENTORY_NS, zeta) for zeta in INVENTORY_ZETAS]
        + [((256, 400), zeta) for zeta in (1e-3, 0.3, 5.0)],
    )
    def test_levels_fill_each_block(self, ns, zeta):
        # block_address sends the labels of kind scattering of each block k
        # onto {m = k + 1 (mod 2), 0 < m < N - 2}, each level once.  A
        # mirrored pair is solved in block k at level m, so in its own
        # block N - k it sits at q -> pi - q, level N - 2 - m.
        checked = 0
        for n in ns:
            p = ChainParams(n, zeta)
            try:
                pairs = enumerate_all(p)
            except BoundaryDegenerate:
                continue
            levels = {k: [] for k in range(n)}
            for q in pairs:
                k, kind, m, mirrored = block_address(q, p)
                if kind == "scattering":
                    if mirrored:
                        k, m = -k % n, n - 2 - m
                    levels[k].append(m)
            for k, found in levels.items():
                assert sorted(found) == list(range(1 + k % 2, n - 2, 2)), (n, k)
            checked += 1
        assert checked >= len(ns) - 1

    @pytest.mark.parametrize(
        "ns,zeta",
        [(INVENTORY_NS, zeta) for zeta in INVENTORY_ZETAS]
        + [((256, 400), zeta) for zeta in (1e-3, 0.3, 5.0)],
    )
    def test_one_other_label_per_block(self, ns, zeta):
        # Besides its scattering labels, each block holds exactly one label
        # of another kind: a bound state (a complex pair), the real top
        # state (an equal real label), the singular pair (in block N/2), or
        # the edge string, the bound state of block 0, whose labels sum to
        # N/2.  With the levels above that fills the block's dimension.
        # Each kind is checked against the label's class.
        # Real top states sit in odd blocks only: per sign, those of the
        # collapsed labels and of the edge pair while it stays real, as
        # many as the half-odd labels above the threshold F.
        checked = 0
        for n in ns:
            p = ChainParams(n, zeta)
            try:
                pairs = enumerate_all(p)
            except BoundaryDegenerate:
                continue
            others = {k: [] for k in range(n)}
            for q in pairs:
                k, kind, _, mirrored = block_address(q, p)
                if kind == "scattering":
                    assert q.cls.is_real and q.j1 != q.j2, (n, q.key())
                    continue
                if mirrored:
                    k = -k % n
                assert (kind == "singular") == (
                    q.cls is SolutionClass.SINGULAR
                ), (n, q.key())
                assert (kind == "bound") == q.cls.is_complex, (n, q.key())
                assert (kind == "edge") == (
                    is_boundary_family_pair(q, p) and q.j1 < 0
                ), (n, q.key())
                if kind == "singular":
                    assert k == n // 2, (n, q.key())
                elif kind == "edge":
                    assert k == n // 2, (n, q.key())
                    k = 0
                elif kind == "top":
                    assert q.cls.is_real and q.j1 == q.j2, (n, q.key())
                others[k].append(kind)
            assert all(len(kinds) == 1 for kinds in others.values()), n
            assert others[0] == ["edge"], n
            real_tops = sum(
                others[k] == ["top"] for k in range(1, n, 2)
            )
            per_sign = collapse_count(p) + (not has_extra_two_string(p))
            f = threshold_f(p)
            above = sum(1 for twice in range(1, n, 2) if f < twice / 2.0)
            assert real_tops == 2 * per_sign == 2 * above, n
            assert not any(others[k] == ["top"] for k in range(0, n, 2)), n
            checked += 1
        assert checked >= len(ns) - 1

"""Real solutions with distinct quantum numbers via the height function.

The second rapidity is eliminated in closed form, leaving a single monotone
height function of mu1 on each contour between consecutive discontinuity
points.  Solving height(mu1) = j2 by bisection yields the full pair.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

from .model import (
    AtDiscontinuity,
    ChainParams,
    HalfInt,
    NoRootInBracket,
    NoRootInInterval,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
)

DISCONTINUITY_TOL = 1e-13
DEFAULT_DEFECT_TOL = 1e-10

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ContourBracket:
    """One contour of the height function: (k_left, k_right) around j1.

    lambda_star is the interior point where mu2 - mu1 crosses -pi/2 and the
    floor term of the first equation flips.
    """

    j1: HalfInt
    k_left: float
    k_right: float
    lambda_star: float


def lambda_star(j1: HalfInt, p: ChainParams):
    """Right endpoint of the first-domain window for j1."""
    half_turns = (float(j1) + 0.5) / p.n  # (j1 + 1/2)/N, a fraction of pi
    if half_turns >= 0.5:
        return math.pi / 2.0
    return math.atan(p.t * math.tan(math.pi * half_turns))


def _contour_maps(j1: HalfInt, p: ChainParams, target=0.0):
    """mu2(mu1) and height(mu1) - target on the contour of j1.

    The constants are bound once, so a bisection pays for one tan(mu1) and
    no attribute lookups per step.  The closed form for mu2 is label-free;
    j1 only identifies the contour mu1 is expected to lie on (kept for error
    context).
    """
    n, t, th = p.n, p.t, math.tanh(p.zeta)
    pi, two_pi = math.pi, 2.0 * math.pi
    n_over_pi, inv_pi = n / math.pi, 1.0 / math.pi
    tan, atan, floor = math.tan, math.atan, math.floor

    def mu2_of(mu1):
        a = tan(mu1)
        # tanh(zeta) / tan(N atan(tan(mu1)/t)), the recurring building block.
        b = th / tan(n * atan(a / t))
        if abs(b) <= 1.0:
            den = a * b - 1.0
            if abs(den) < DISCONTINUITY_TOL:
                raise AtDiscontinuity(
                    f"mu1={mu1!r} sits at a discontinuity of the contour "
                    f"of {j1}"
                )
            return atan(-(b + a) / den)
        # Rescale by 1/b to keep the evaluation stable when the inner tangent
        # is close to zero (b large) near the domain-window endpoints.
        inv = 1.0 / b
        den = a - inv
        if abs(den * b) < DISCONTINUITY_TOL:
            raise AtDiscontinuity(
                f"mu1={mu1!r} sits at a discontinuity of the contour of {j1}"
            )
        return atan(-(1.0 + a * inv) / den)

    def shifted_height(mu1):
        mu2 = mu2_of(mu1)
        diff = mu2 - mu1
        return (
            n_over_pi * atan(tan(mu2) / t)
            - inv_pi * atan(tan(diff) / th)
            - floor((2.0 * diff + pi) / two_pi)
            - target
        )

    return mu2_of, shifted_height


def mu2_of_mu1(mu1, j1: HalfInt, p: ChainParams):
    """Second rapidity as a function of the first, on the branch of j1."""
    return _contour_maps(j1, p)[0](mu1)


def diff_p(mu1, j1: HalfInt, p: ChainParams):
    """P(mu1) = mu2(mu1) - mu1, strictly decreasing between discontinuities."""
    return mu2_of_mu1(mu1, j1, p) - mu1


@functools.lru_cache(maxsize=256)
def discontinuity_k(j1: HalfInt, p: ChainParams):
    """Discontinuity abscissa for j1: the root of tan(mu1) * ratio = 1.

    Parameterized through theta = N atan(tan(mu1)/t) - pi (j1 - 1/2), which
    maps the window ((j1-1/2) pi/N, (j1+1/2) pi/N) of the inner angle onto
    (0, pi); the sign change always lies in (0, pi/2).

    A pure function of (j1, N, zeta), memoized: a sector has at most
    N/2 - 1 edges and every contour shares its two with its neighbours.
    """
    base = math.pi * (float(j1) - 0.5)
    t = p.t
    th = math.tanh(p.zeta)

    def mu_of(theta):
        return math.atan(t * math.tan((base + theta) / p.n))

    def g(theta, mu):
        # tan(base + theta) == tan(theta) since base is an integer multiple
        # of pi for half-odd j1.
        return math.tan(mu) * th / math.tan(theta) - 1.0

    if float(j1) == 0.5:
        # In the lowest window tan(mu1) vanishes together with tan(theta),
        # so the ratio stays below 1 everywhere: no discontinuity exists and
        # the lowest contour starts at mu1 = 0 instead.
        raise NoRootInInterval(
            f"the contour of j1={j1} has no left discontinuity (starts at 0)"
        )
    lo, hi = 1e-12, math.pi / 2.0 - 1e-12
    mu_lo, mu_hi = mu_of(lo), mu_of(hi)
    if not (g(lo, mu_lo) > 0.0 > g(hi, mu_hi)):
        raise NoRootInInterval(
            f"no discontinuity bracket for j1={j1} at N={p.n}, zeta={p.zeta}"
        )
    steps = 0
    while mu_hi - mu_lo > 1e-14 and hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        mu_mid = mu_of(mid)
        steps += 1
        if g(mid, mu_mid) > 0.0:
            lo, mu_lo = mid, mu_mid
        else:
            hi, mu_hi = mid, mu_mid
    k = 0.5 * (mu_lo + mu_hi)
    log.debug(
        "contour edge j1=%s N=%d zeta=%r: k=%r after %d bisection steps",
        j1, p.n, p.zeta, k, steps,
    )
    return k


def contour_bracket(j1: HalfInt, p: ChainParams):
    """Contour of j1: between adjacent discontinuity points.

    The lowest contour (j1 = 1/2) starts at 0 and the highest
    (j1 = (N-1)/2) ends at pi/2; neither endpoint is a discontinuity.
    """
    k_left = 0.0 if float(j1) == 0.5 else discontinuity_k(j1, p)
    if float(j1) + 1.0 > (p.n - 1) / 2.0:
        k_right = math.pi / 2.0
    else:
        k_right = discontinuity_k(j1 + 1, p)
    return ContourBracket(
        j1=j1, k_left=k_left, k_right=k_right, lambda_star=lambda_star(j1, p)
    )


def height(mu1, j1: HalfInt, p: ChainParams):
    """Height function: equals j2 exactly when (mu1, mu2) solves both equations."""
    return _contour_maps(j1, p)[1](mu1)


def _atan_scaled_derivative(u, c):
    """d/du of atan(tan(u)/c)."""
    tu = math.tan(u)
    return c * (1.0 + tu * tu) / (c * c + tu * tu)


def _polish_log_form(l1, l2, j1: HalfInt, j2: HalfInt, p: ChainParams):
    """A few Newton steps on the logarithmic equations.

    Bisection is limited by the conditioning of the closed-form second
    rapidity (observed defect floor ~1e-10 near the domain edge at small
    anisotropy); Newton on the well-conditioned logarithmic residuals with
    an analytic Jacobian recovers full precision.  The Gauss floors are
    locally constant, so they enter the residual but not the Jacobian.
    """
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
        d_self_1 = p.n * _atan_scaled_derivative(l1, t)
        d_self_2 = p.n * _atan_scaled_derivative(l2, t)
        d_diff = _atan_scaled_derivative(l1 - l2, th)
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


def _pick_contour(j1: HalfInt, j2: HalfInt):
    """Choose which member carries the contour (must be positive).

    With both labels positive the larger one hosts the contour: interior
    contours overshoot past +-(N-1)/2 at their ends, so any smaller target is
    attainable, while the converse fails for the edge label.  A mixed-sign
    pair must use its positive member.
    """
    if j1 > 0 and j2 > 0:
        return (j1, j2) if j1 > j2 else (j2, j1)
    if j1 > 0:
        return j1, j2
    if j2 > 0:
        return j2, j1
    raise NoRootInBracket(
        f"pair ({j1}, {j2}) has no positive member to host the contour"
    )


def solve_pair(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve a real pair with distinct quantum numbers by contour bisection."""
    j1, j2 = q.j1, q.j2
    if j1 == j2:
        raise ValueError("solve_pair requires distinct quantum numbers")
    # Canonical orientation: the label of largest magnitude must be positive
    # (it hosts the contour).  Mirrored pairs are solved once and negated, so
    # (J1,J2) and (-J1,-J2) give exactly negated rapidities.
    dominant = j1 if abs(j1) > abs(j2) else j2
    if abs(j1) != abs(j2) and dominant < 0:
        mirror = solve_pair(q.negated(), p, defect_tol=defect_tol)
        return mirror.negated()

    jc, jt = _pick_contour(j1, j2)
    if jc.twice == p.n - 1 and jt.twice == 1:
        # Boundary member of the family with the edge label: the height on
        # the edge contour reaches 1/2 only in the limit mu1 -> pi/2, and the
        # exact solution is (pi/2, 0) (the product-form equations hold there
        # identically for even N).  Report the largest representable abscissa
        # strictly below pi/2.
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
            branch_meta={
                "method": "boundary_limit",
                "contour_j": str(jc),
            },
        )
    br = contour_bracket(jc, p)
    eps = max(1e-12, 1e-9 * (br.k_right - br.k_left))
    lo, hi = br.k_left + eps, br.k_right - eps
    mu2_of, shifted = _contour_maps(jc, p, float(jt))
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
    lam_by_label = {jc: mu1, jt: mu2_of(mu1)}
    l1, l2 = lam_by_label[j1], lam_by_label[j2]
    polished = _polish_log_form(l1, l2, j1, j2, p)
    polished_residual = bae_defect(*polished, p)
    residual = bae_defect(l1, l2, p)
    if polished_residual < residual:
        (l1, l2), residual = polished, polished_residual
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

"""Real solutions with distinct quantum numbers as momentum-block
scattering states.

The sector commutes with translations (string_solver).  A real pair with
distinct labels is a scattering state of the block k at the level m of its
block address (quantum_numbers.block_address; Karbach & Mueller,
arXiv:cond-mat/9809162): momenta pi k / N -+ q, 0 < q < pi, where q is the
root of

    F(q) = N q - 2 atan2(sin q, cos q - C / Delta) = m pi,  C = cos(pi k / N).

F rises from 0 at q = 0 to (N - 2) pi at q = pi and crosses each level
0 < m pi < (N - 2) pi once; since the atan2 lies in [0, pi], the root lies
in [m pi / N, (m + 2) pi / N].  Newton's method finds it in at most 8
steps, started on the side of the bracket from which it cannot overshoot
(F is convex for C >= 0 and concave for C < 0), with bisection on the
bracket as the safeguard.  tan(lambda) = tanh(zeta/2) cot(p/2) gives the
rapidities, and Newton steps on the logarithmic equations polish them.
Mirrored labels are solved as (-J1, -J2) and negated.

The paper's height function stays as the label check: on the contour of
the larger label jc, between consecutive discontinuity points, height(mu1)
equals the other label at a solution, with mu1 the rapidity of jc.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .equal_solver import _real_rapidity
from .model import (
    AtDiscontinuity,
    ChainParams,
    HalfInt,
    NoRootInBracket,
    NoRootInInterval,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    attempt,
    bae_defect,
    bisect_monotone,
    newton_monotone,
)
from .quantum_numbers import block_address

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


def _contour_maps(j1: HalfInt, p: ChainParams):
    """mu2(mu1) and height(mu1) on the contour of j1.

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

    def height_of(mu1):
        mu2 = mu2_of(mu1)
        diff = mu2 - mu1
        return (
            n_over_pi * atan(tan(mu2) / t)
            - inv_pi * atan(tan(diff) / th)
            - floor((2.0 * diff + pi) / two_pi)
        )

    return mu2_of, height_of


def discontinuity_k(j1: HalfInt, p: ChainParams):
    """Discontinuity abscissa for j1: the root of tan(mu1) * ratio = 1.

    Parameterized through theta = N atan(tan(mu1)/t) - pi (j1 - 1/2), which
    maps the window ((j1-1/2) pi/N, (j1+1/2) pi/N) of the inner angle onto
    (0, pi); the sign change always lies in (0, pi/2).
    """
    base = math.pi * (float(j1) - 0.5)
    t = p.t
    th = math.tanh(p.zeta)

    def mu_of(theta):
        return math.atan(t * math.tan((base + theta) / p.n))

    def g(theta):
        # tan(base + theta) == tan(theta) since base is an integer multiple
        # of pi for half-odd j1.
        return math.tan(mu_of(theta)) * th / math.tan(theta) - 1.0

    if float(j1) == 0.5:
        # In the lowest window tan(mu1) vanishes together with tan(theta),
        # so the ratio stays below 1 everywhere: no discontinuity exists and
        # the lowest contour starts at mu1 = 0 instead.
        raise NoRootInInterval(
            f"the contour of j1={j1} has no left discontinuity (starts at 0)"
        )
    lo, hi = 1e-12, math.pi / 2.0 - 1e-12
    f_lo, f_hi = g(lo), g(hi)
    if not f_lo > 0.0 > f_hi:
        raise NoRootInInterval(
            f"no discontinuity bracket for j1={j1} at N={p.n}, zeta={p.zeta}"
        )
    theta, steps = bisect_monotone(g, lo, hi, f_lo=f_lo, f_hi=f_hi, xtol=0.0)
    k = mu_of(theta)
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


def _polish_log_form(l1, l2, j1, j2, p: ChainParams):
    """A few Newton steps on the logarithmic equations.

    The rapidities of the block root are limited by the conditioning of
    lambda in the momentum (product-form defect up to about 3e-10 at small
    anisotropy); Newton on the well-conditioned logarithmic residuals with
    an analytic Jacobian recovers full precision.  The Gauss floors are
    locally constant, so they enter the residual but not the Jacobian.

    Each tangent is taken once per step and shared by the residuals and the
    Jacobian, where d/du atan(tan(u)/c) = c (1 + tan^2 u) / (c^2 + tan^2 u).
    Exchanging (l1, j1) with (l2, j2) exchanges the result exactly, since
    the libm tan and atan are odd.
    """
    n, t, th = p.n, p.t, math.tanh(p.zeta)
    tt, thth = t * t, th * th
    pi, two_pi = math.pi, 2.0 * math.pi
    pj1, pj2 = pi * float(j1), pi * float(j2)
    tan, atan, floor = math.tan, math.atan, math.floor
    for _ in range(4):
        a1, a2 = tan(l1), tan(l2)
        d12, d21 = l1 - l2, l2 - l1
        b12 = tan(d12)
        g1 = (
            n * atan(a1 / t)
            - pj1
            - atan(b12 / th)
            - pi * floor((2.0 * d12 + pi) / two_pi)
        )
        g2 = (
            n * atan(a2 / t)
            - pj2
            - atan(tan(d21) / th)
            - pi * floor((2.0 * d21 + pi) / two_pi)
        )
        d_self_1 = n * (t * (1.0 + a1 * a1) / (tt + a1 * a1))
        d_self_2 = n * (t * (1.0 + a2 * a2) / (tt + a2 * a2))
        d_diff = th * (1.0 + b12 * b12) / (thth + b12 * b12)
        j11, j22 = d_self_1 - d_diff, d_self_2 - d_diff
        det = j11 * j22 - d_diff * d_diff
        if det == 0.0:
            break
        step1 = (g1 * j22 - g2 * d_diff) / det
        step2 = (g2 * j11 - g1 * d_diff) / det
        l1, l2 = l1 - step1, l2 - step2
        if max(abs(step1), abs(step2)) < 1e-15:
            break
    return l1, l2


def _reduced(lam):
    """lam, given in (-pi, pi], shifted by pi into (-pi/2, pi/2]."""
    if lam > 0.5 * math.pi:
        return lam - math.pi
    if lam <= -0.5 * math.pi:
        return lam + math.pi
    return lam


def _scattering_root(a, m, p: ChainParams):
    """(q, steps, fell_back): the root of F(q) = m pi in the block of
    momentum a = pi k / N, by newton_monotone.

    F'(q) = N - 2 (1 - r cos q) / (1 - 2 r cos q + r^2) with r = C / Delta.
    F is convex for C >= 0 and concave for C < 0, so Newton starts at the
    bracket end where F and F'' share their sign: (m + 2) pi / N for C >= 0,
    m pi / N for C < 0.
    """
    n = p.n
    ratio = math.cos(a) / p.delta
    level = m * math.pi
    sin, cos, atan2 = math.sin, math.cos, math.atan2
    norm, twice = 1.0 + ratio * ratio, 2.0 * ratio

    def f(q):
        return n * q - 2.0 * atan2(sin(q), cos(q) - ratio) - level

    def slope(q):
        c = cos(q)
        return n - 2.0 * (1.0 - ratio * c) / (norm - twice * c)

    lo, hi = level / n, min(math.pi, (m + 2) * math.pi / n)
    return newton_monotone(f, slope, lo, hi, hi if ratio >= 0.0 else lo)


def _lane(k, m, labels, p: ChainParams):
    """(pair, polished, fell_back) for the lane (k, m) of the sorted labels
    (j_lo, j_hi).

    pair holds the rapidities in label order, each with its momentum
    pi k / N -+ q, its residual not yet gated; polished tells whether the
    Newton-polished pair was kept, and fell_back whether the root finder
    left Newton for bisection.
    """
    n = p.n
    if not 0 < m < n - 2:
        raise NoRootInBracket(
            f"labels ({labels[0]}, {labels[1]}) fall on level m={m} of "
            f"block k={k}, outside 0 < m < {n - 2} (N={n}, zeta={p.zeta})"
        )
    if (labels[0].twice, labels[1].twice) == (1, n - 1):
        # The boundary member of the family with the edge label: its exact
        # solution (0, pi/2) solves the product form identically for even
        # N.  Report the largest rapidity strictly below pi/2, and the
        # exact momenta (pi, 0) of (0, pi/2).
        edge = math.nextafter(math.pi / 2.0, 0.0)
        meta = {"method": "boundary_limit", "contour_j": str(labels[1])}
        return RapidityPair(
            0j, complex(edge), bae_defect(edge, 0.0, p), 0, meta,
            (math.pi, 0.0),
        ), False, False
    a = math.pi * k / n
    q, steps, fell_back = _scattering_root(a, m, p)
    # The larger rapidity belongs to the larger label; each keeps its
    # momentum.
    p1, p2 = a - q, a + q
    l1 = _reduced(_real_rapidity(p1, p.t))
    l2 = _reduced(_real_rapidity(p2, p.t))
    if l1 > l2:
        l1, l2, p1, p2 = l2, l1, p2, p1
    residual = bae_defect(l1, l2, p)
    polished = _polish_log_form(l1, l2, *labels, p)
    polished_residual = bae_defect(*polished, p)
    kept = polished_residual < residual
    if kept:
        (l1, l2), residual = polished, polished_residual
    meta = {"method": "momentum_block", "branch": "scattering", "k": k, "q": q}
    return RapidityPair(
        complex(l1), complex(l2), residual, steps, meta, (p1, p2)
    ), kept, fell_back


def _oriented(q: QuantumPair, p: ChainParams):
    """(mirrored, q, lane) for q after mirroring; lane is ((k, m), labels).

    k, m and the mirroring are q's block address, whatever its kind: a
    mirrored pair is solved as (-J1, -J2) and negated, which gives exactly
    negated rapidities.  labels are the sorted labels.
    """
    if q.j1.twice == q.j2.twice:
        raise ValueError("solve_pair requires distinct quantum numbers")
    k, _, m, mirrored = block_address(q, p)
    if mirrored:
        q = q.negated()
    labels = (q.j1, q.j2) if q.j1.twice < q.j2.twice else (q.j2, q.j1)
    return mirrored, q, ((k, m), labels)


def _member(pair: RapidityPair, q: QuantumPair, mirrored, defect_tol):
    """The lane's pair in q's label order, gated and mirrored back."""
    if pair.residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {pair.residual!r} above {defect_tol!r} for "
            f"({q.j1}, {q.j2})"
        )
    l1, l2, momenta = pair.lambda1, pair.lambda2, pair.momenta
    if q.j1.twice > q.j2.twice:
        l1, l2 = l2, l1
        if momenta is not None:
            momenta = momenta[::-1]
    meta = dict(pair.branch_meta)
    if mirrored:
        # What RapidityPair.negated gives, built once.
        l1, l2 = -l1, -l2
        if momenta is not None:
            momenta = (-momenta[0], -momenta[1])
        meta["mirrored"] = True
    return RapidityPair(l1, l2, pair.residual, pair.iterations, meta, momenta)


def solve_pair(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve a distinct-label real pair in its momentum block."""
    mirrored, q, ((k, m), labels) = _oriented(q, p)
    pair = _lane(k, m, labels, p)[0]
    return _member(pair, q, mirrored, defect_tol)


def solve_pairs(pairs, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """solve_pair for many pairs of one sector, one root per lane.

    Returns one RapidityPair or BetheError per pair, in input order: what
    solve_pair returns or raises for it.  A pair, its reverse and their
    mirrors share one lane (k, m), so they share one root and one polish.
    """
    members = [_oriented(q, p) for q in pairs]
    lanes = {}
    for _, _, (key, labels) in members:
        if key not in lanes:
            lanes[key] = attempt(_lane, *key, labels, p)
    solved = [out for out in lanes.values() if isinstance(out, tuple)]
    steps = [pair.iterations for pair, _, _ in solved]
    log.debug(
        "sector batch N=%d zeta=%r: %d pairs, %d lanes, %d root-finder "
        "steps (at most %d per lane), %d fallbacks to bisection, "
        "%d kept the polished pair",
        p.n, p.zeta, len(pairs), len(lanes), sum(steps), max(steps, default=0),
        sum(fell_back for _, _, fell_back in solved),
        sum(kept for _, kept, _ in solved),
    )
    outcomes = []
    for mirrored, q, (key, _) in members:
        out = lanes[key]
        if isinstance(out, tuple):
            out = attempt(_member, out[0], q, mirrored, defect_tol)
        outcomes.append(out)
    return outcomes

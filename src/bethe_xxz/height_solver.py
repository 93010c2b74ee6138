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
Mirrored labels are solved as (-J1, -J2) and negated.  The paper's
height function, the label check of these pairs, is in counting.
"""
from __future__ import annotations

import logging
import math

from .model import (
    ChainParams,
    NoRootInBracket,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    attempt,
    bae_defect,
    newton_monotone,
    real_rapidity,
)
from .quantum_numbers import block_address

DEFAULT_DEFECT_TOL = 1e-10

log = logging.getLogger(__name__)


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
    l1 = _reduced(real_rapidity(p1, p.t))
    l2 = _reduced(real_rapidity(p2, p.t))
    if l1 > l2:
        l1, l2, p1, p2 = l2, l1, p2, p1
    residual = bae_defect(l1, l2, p)
    # A NaN root has a NaN defect, which _member refuses; the polish would
    # fail on its floors.
    kept = False
    if not math.isnan(residual):
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
    if not pair.residual <= defect_tol:
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

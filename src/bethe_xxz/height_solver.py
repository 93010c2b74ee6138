"""Real solutions with distinct quantum numbers via the height function.

The second rapidity is eliminated in closed form, leaving a single monotone
height function of mu1 on each contour between consecutive discontinuity
points.  Solving height(mu1) = j2 by bisection yields the full pair.
Every root comes from bisect_monotone on the scalar height; solve_pairs
first narrows a whole sector's brackets in one numpy lockstep, which
changes no float.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    AtDiscontinuity,
    BetheError,
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
)

DISCONTINUITY_TOL = 1e-13
DEFAULT_DEFECT_TOL = 1e-10
MAX_ITER = 200
# The sector lockstep trusts the sign of its numpy height - target only
# where the distance of the floor argument from an integer and the
# discontinuity denominator exceed this guard, and |height - target|
# exceeds _height_guard(N).
SIGN_GUARD = 1e-9

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


def _polish_log_form(l1, l2, j1, j2, p: ChainParams):
    """A few Newton steps on the logarithmic equations.

    Bisection is limited by the conditioning of the closed-form second
    rapidity (observed defect floor ~1e-10 near the domain edge at small
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


def _canonical(t1, t2):
    """(mirrored, 2jc, 2jt) for the doubled labels t1 != t2 of a pair.

    A pair whose label of largest magnitude is negative is mirrored: that
    label would host the contour, which must be positive, so the pair is
    solved as (-J1, -J2) and negated, which gives exactly negated
    rapidities.  Of the (mirrored) labels, jc hosts the contour and jt is
    the target height.  With both labels positive the larger one hosts it:
    interior contours overshoot past +-(N-1)/2 at their ends, so any
    smaller target is attainable, while the converse fails for the edge
    label.  A mixed-sign pair uses its positive member.
    """
    mirrored = abs(t1) != abs(t2) and (t1 if abs(t1) > abs(t2) else t2) < 0
    if mirrored:
        t1, t2 = -t1, -t2
    if t1 > 0 and (t2 <= 0 or t1 > t2):
        return mirrored, t1, t2
    if t2 > 0:
        return mirrored, t2, t1
    raise NoRootInBracket(
        f"pair ({HalfInt(t1)}, {HalfInt(t2)}) has no positive member to "
        "host the contour"
    )


class _Lane(NamedTuple):
    """A lane's finished pair, in contour orientation (jc, jt)."""

    mu_c: float  # the rapidity of the contour label jc
    mu_t: float  # the rapidity of the target label jt
    residual: float
    iterations: int
    branch_meta: dict
    polished: bool  # the Newton-polished pair was kept


def _boundary_lane(p: ChainParams):
    """The boundary member of the family with the edge label.

    The height on the edge contour reaches 1/2 only in the limit
    mu1 -> pi/2, and the exact solution is (pi/2, 0) (the product-form
    equations hold there identically for even N).  Report the largest
    representable abscissa strictly below pi/2.
    """
    lam_edge = math.nextafter(math.pi / 2.0, 0.0)
    return _Lane(
        lam_edge, 0.0, bae_defect(lam_edge, 0.0, p), 0,
        {"method": "boundary_limit", "contour_j": str(HalfInt(p.n - 1))},
        False,
    )


def _finish_lane(tc, tt, mu1, iterations, mu2_of, branch_meta, p):
    """The lane's pair at the contour root mu1: mu2, polish, defect.

    Runs once per lane.  The Newton residuals and Jacobian and the
    product-form defect swap exactly with the two members, so a member
    labelled (jt, jc) gets the exact swap of this pair.
    """
    mu2 = mu2_of(mu1)
    polished = _polish_log_form(mu1, mu2, tc / 2.0, tt / 2.0, p)
    polished_residual = bae_defect(*polished, p)
    residual = bae_defect(mu1, mu2, p)
    if polished_residual < residual:
        return _Lane(*polished, polished_residual, iterations, branch_meta,
                     True)
    return _Lane(mu1, mu2, residual, iterations, branch_meta, False)


def _finish_member(lane: _Lane, t1, t2, tc, mirrored, defect_tol):
    """The RapidityPair of the member with doubled labels (t1, t2).

    (t1, t2) are the member's labels after mirroring; the pair is oriented
    by them, checked against defect_tol and negated back if mirrored.
    """
    if lane.residual > defect_tol:
        raise ToleranceNotReached(
            f"defect {lane.residual!r} above {defect_tol!r} for "
            f"({HalfInt(t1)}, {HalfInt(t2)})"
        )
    l1, l2 = (lane.mu_c, lane.mu_t) if t1 == tc else (lane.mu_t, lane.mu_c)
    out = RapidityPair(
        lambda1=complex(l1),
        lambda2=complex(l2),
        residual=lane.residual,
        iterations=lane.iterations,
        branch_meta=dict(lane.branch_meta),
    )
    return out.negated() if mirrored else out


class _ContourSetup(NamedTuple):
    """What every lane on one contour shares: done once per contour."""

    branch_meta: dict
    lo: float  # the bisection bracket, just inside the contour's edges
    hi: float
    xtol: float
    h_lo: float  # the label-free height at lo and hi
    h_hi: float


def _setup(jc: HalfInt, p: ChainParams):
    br = contour_bracket(jc, p)
    eps = max(1e-12, 1e-9 * (br.k_right - br.k_left))
    lo, hi = br.k_left + eps, br.k_right - eps
    height_of = _contour_maps(jc, p)[1]
    meta = {
        "method": "height_contour",
        "contour_j": str(jc),
        "k_left": br.k_left,
        "k_right": br.k_right,
        "lambda_star": br.lambda_star,
    }
    return _ContourSetup(
        meta, lo, hi, max(1e-15, 4.0 * math.ulp(hi)), height_of(lo),
        height_of(hi),
    )


def _solve_lane(tc, tt, setup, p: ChainParams, lo=None, hi=None, done=0):
    """Bisect and finish the lane of doubled labels (2jc, 2jt).

    setup is the contour's _ContourSetup, or the BetheError its set-up
    raised.  The bisection resumes from [lo, hi] (by default the contour's
    bracket) after `done` steps taken on it, so the lane gets the root and
    iteration count of one bisect_monotone from the contour's bracket.
    """
    if tc == p.n - 1 and tt == 1:
        return _boundary_lane(p)
    if isinstance(setup, BetheError):
        raise setup
    target = tt / 2.0
    f_lo, f_hi = setup.h_lo - target, setup.h_hi - target
    if not (f_lo > 0.0 > f_hi):
        raise NoRootInBracket(
            f"height on the contour of {HalfInt(tc)} never attains "
            f"{HalfInt(tt)} (N={p.n}, zeta={p.zeta})"
        )
    mu2_of, shifted = _contour_maps(HalfInt(tc), p, target)
    # f keeps the signs of the contour ends at the bracket's ends, and
    # bisect_monotone reads no more than those signs of them.
    mu1, more = bisect_monotone(
        shifted,
        setup.lo if lo is None else lo,
        setup.hi if hi is None else hi,
        f_lo=f_lo, f_hi=f_hi, xtol=setup.xtol, max_iter=MAX_ITER - done,
    )
    return _finish_lane(tc, tt, mu1, done + more, mu2_of, setup.branch_meta, p)


def solve_pair(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve a real pair with distinct quantum numbers by contour bisection."""
    t1, t2 = q.j1.twice, q.j2.twice
    if t1 == t2:
        raise ValueError("solve_pair requires distinct quantum numbers")
    mirrored, tc, tt = _canonical(t1, t2)
    if mirrored:
        t1, t2 = -t1, -t2
    setup = attempt(_setup, HalfInt(tc), p)
    return _finish_member(
        _solve_lane(tc, tt, setup, p), t1, t2, tc, mirrored, defect_tol
    )


def _sector_height(p: ChainParams):
    """numpy twin of the label-free height, and where its sign is clear.

    Returns height(mu1) for an array of mu1, with a mask of the points
    whose floor argument lies more than SIGN_GUARD from an integer and
    whose discontinuity denominator lies above SIGN_GUARD: elsewhere numpy
    and the scalar kernel may take different floors or branches.
    """
    n, t, th = p.n, p.t, math.tanh(p.zeta)
    n_over_pi, inv_pi, two_pi = n / math.pi, 1.0 / math.pi, 2.0 * math.pi

    def height_np(mu1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.tan(mu1)
            b = th / np.tan(n * np.arctan(a / t))
            inner = np.abs(b) <= 1.0
            inv = 1.0 / b
            den = np.where(inner, a * b - 1.0, a - inv)
            num = np.where(inner, -(b + a), -(1.0 + a * inv))
            mu2 = np.arctan(num / den)
            diff = mu2 - mu1
            turns = (2.0 * diff + math.pi) / two_pi
            h = (
                n_over_pi * np.arctan(np.tan(mu2) / t)
                - inv_pi * np.arctan(np.tan(diff) / th)
                - np.floor(turns)
            )
            clear = (
                np.abs(np.where(inner, den, den * b)) > SIGN_GUARD
            ) & (np.abs(turns - np.rint(turns)) > SIGN_GUARD)
        return h, clear

    return height_np


def _height_guard(n):
    """The guard on |height - target| for a sector of n sites.

    numpy's tan/arctan differ from math's by ulps, and the height carries
    them through N atan(tan(mu1)/t) and N/pi atan(tan(mu2)/t), so the gap
    between the two heights grows like N^2.  Its largest measured values
    (100 001 points per sector, zeta from 0.01 to 0.3) are 3.8e-11 at
    N = 128, 1.35e-10 at N = 200, 1.3e-9 at N = 400 and 2.3e-9 at N = 600:
    at least ten times under this guard.
    """
    return SIGN_GUARD * max(1.0, (n / 100.0) ** 2)


def _lockstep(rows, p: ChainParams):
    """Narrow every lane's bracket at once; rows are (lo, hi, xtol, target).

    Each step takes the midpoints bisect_monotone takes.  A lane leaves at
    the first step it cannot take: numpy is unsure of the sign of
    height - target, the bracket is exhausted, or MAX_ITER is reached.
    Returns each row's (lo, hi, steps taken).
    """
    height_np = _sector_height(p)
    guard = _height_guard(p.n)
    lo, hi, xtol, target = np.array(rows, dtype=float).T
    out_lo, out_hi = np.empty_like(lo), np.empty_like(hi)
    out_steps = np.empty(len(rows), dtype=int)
    live = np.arange(len(rows))
    step = 0
    while live.size:
        mid = 0.5 * (lo + hi)
        h, clear = height_np(mid)
        f = h - target
        go = (
            clear & np.isfinite(f) & (np.abs(f) > guard)
            & (mid > lo) & (mid < hi) & ((hi - lo) >= xtol)
            & (step < MAX_ITER)
        )
        leave = live[~go]
        out_lo[leave], out_hi[leave], out_steps[leave] = lo[~go], hi[~go], step
        up = f > 0.0
        lo, hi = np.where(up, mid, lo)[go], np.where(up, hi, mid)[go]
        live, xtol, target = live[go], xtol[go], target[go]
        step += 1
    return list(zip(out_lo.tolist(), out_hi.tolist(), out_steps.tolist()))


def solve_pairs(pairs, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """solve_pair for many pairs of one sector, narrowed in one lockstep.

    Returns one RapidityPair or BetheError per pair, in input order: what
    solve_pair returns or raises for it, the same floats, iteration counts
    and messages.  Every distinct (contour, target) is one lane, so a pair,
    its reverse and their mirrors share one bisection.  With two or more
    lanes to bisect, _lockstep narrows all their brackets together in
    numpy; each lane is then solved by _solve_lane from its bracket, and
    each pair takes its orientation of the lane's result (_finish_member).
    """
    lane_of = {}  # (2jc, 2jt) -> lane number
    members = []  # per pair: lane number, mirrored doubled labels, mirrored
    for q in pairs:
        t1, t2 = q.j1.twice, q.j2.twice
        if t1 == t2:
            raise ValueError("solve_pair requires distinct quantum numbers")
        mirrored, tc, tt = _canonical(t1, t2)
        if mirrored:
            t1, t2 = -t1, -t2
        lane = lane_of.setdefault((tc, tt), len(lane_of))
        members.append((lane, t1, t2, tc, mirrored))
    keys = list(lane_of)
    contours = {
        tc: attempt(_setup, HalfInt(tc), p)
        for tc in dict.fromkeys(tc for tc, _ in keys)
    }

    # The lanes _solve_lane bisects (the edge contour's height stays above
    # 1/2 on its bracket, so the boundary lane is not among them), each
    # with its (lo, hi, steps) to resume from.  A lone lane skips the
    # lockstep: a one-row numpy step costs about as much as a whole scalar
    # bisection.
    narrowed = {
        lane: (None, None, 0)
        for lane, (tc, tt) in enumerate(keys)
        if isinstance(contours[tc], _ContourSetup)
        and contours[tc].h_lo > tt / 2.0 > contours[tc].h_hi
    }
    steps = 0
    if len(narrowed) > 1:
        rows = []
        for lane in narrowed:
            tc, tt = keys[lane]
            setup = contours[tc]
            rows.append((setup.lo, setup.hi, setup.xtol, tt / 2.0))
        narrowed = dict(zip(narrowed, _lockstep(rows, p)))
        # numpy evaluations: the last lanes leave after one more.
        steps = 1 + max(done for _, _, done in narrowed.values())
    lanes = [
        attempt(_solve_lane, tc, tt, contours[tc], p, *narrowed.get(lane, ()))
        for lane, (tc, tt) in enumerate(keys)
    ]
    finished = kept = scalar_steps = 0
    for lane, (_, _, done) in narrowed.items():
        out = lanes[lane]
        if isinstance(out, _Lane):
            finished += 1
            kept += out.polished
            scalar_steps += out.iterations - done
    log.debug(
        "sector batch N=%d zeta=%r: %d pairs, %d lanes, %d lockstep steps, "
        "%d scalar hand-offs, %d scalar steps, %d lanes finished, "
        "%d kept the polished pair",
        p.n, p.zeta, len(pairs), len(keys), steps, len(narrowed),
        scalar_steps, finished, kept,
    )

    outcomes = []
    for lane, t1, t2, tc, mirrored in members:
        out = lanes[lane]
        if not isinstance(out, BetheError):
            out = attempt(_finish_member, out, t1, t2, tc, mirrored, defect_tol)
        outcomes.append(out)
    return outcomes

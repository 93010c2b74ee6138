"""The paper's label checks, each equal to a Bethe quantum number at a
solution; no solver calls them.  height(mu1), on the contour of the larger
label jc with mu1 its rapidity, equals the other label of a distinct real
pair; N W(phi) (counting_w) the label of an equal real pair (x -+ phi);
N Z1(w) (z1) the smaller label of a complex pair of string width w.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

from .model import (
    AtDiscontinuity,
    ChainParams,
    DenominatorVanishes,
    HalfInt,
    NegativeDiscriminant,
    NegativeTanSquare,
    NoRootInInterval,
    bisect_monotone,
)

DISCONTINUITY_TOL = 1e-13
DENOMINATOR_TOL = 1e-13

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


def _phase_parts(phi, n, p: ChainParams):
    """Angle theta and the two polar factors of the closed form for tan^2 x.

    The closed form is a ratio of two differences of conjugate complex
    numbers rotated by the N-th root phase; factoring the half-angle out of
    both turns each difference into a real sine, which removes the
    cancellation that plagues the naive complex evaluation at small phi.
    """
    t = p.t
    tf = math.tan(phi)
    z = complex(math.tanh(p.zeta) * (1.0 - tf * tf), 2.0 * tf)
    # L = conj(z)/z is unimodular, so (L^2)^(1/N) is a pure phase.  Im z > 0
    # for phi in (0, pi/2), so arg z runs continuously through (0, pi) and
    # -4 arg z is the continuous determination of the phase of L^2 (the
    # principal value would wrap twice across the phi range).
    phase_l2 = -4.0 * cmath.phase(z)
    theta = (2.0 * math.pi * n + phase_l2) / p.n
    e_plus = complex(t * t - tf * tf, 2.0 * t * tf)
    d_plus = complex(1.0 - t * t * tf * tf, 2.0 * t * tf)
    return theta, e_plus, d_plus


def tan2x_of_phi(phi, n, p: ChainParams):
    """Square of the tangent of the string center at half-deviation phi.

    Exactly real by construction; a negative value signals that no real
    center exists at this phi (exit from the real branch).
    """
    theta, e_plus, d_plus = _phase_parts(phi, n, p)
    num = abs(e_plus) * math.sin(theta / 2.0 + cmath.phase(e_plus))
    den = abs(d_plus) * math.sin(theta / 2.0 + cmath.phase(d_plus))
    if abs(den) < DENOMINATOR_TOL:
        raise DenominatorVanishes(
            f"tan^2 x denominator vanishes at phi={phi!r}"
        )
    return -num / den


def counting_w(phi, p: ChainParams, sign_x=1):
    """N*W(phi): the quantity equated to J1 for an equal-label real pair."""
    t2 = tan2x_of_phi(phi, 0, p)
    if t2 < 0.0:
        raise NegativeTanSquare(
            f"tan^2 x = {t2!r} < 0 at phi={phi!r}: no real center"
        )
    x = sign_x * math.atan(math.sqrt(t2))
    t = p.t
    total = math.atan(math.tan(x - phi) / t) + math.atan(math.tan(x + phi) / t)
    gauss = math.floor((-4.0 * phi + math.pi) / (2.0 * math.pi))
    return (p.n / (2.0 * math.pi)) * total - sign_x * gauss


def delta_of_w(w, p: ChainParams):
    """String deviation delta for a given w; requires w*t < 1."""
    return math.atanh(w * p.t) - 0.5 * p.zeta


def _quadratic_coeffs(w, p: ChainParams):
    """Coefficients (A, B, C) of the quadratic for tan^2 x at this w.

    Each coefficient is a difference P*r1 - Q*r2 with r1, r2 the N-th roots
    of near-unity products; evaluated literally this cancels catastrophically
    for small w.  Rewriting as r2*(P*expm1(d) + (P - Q)) with d = log(r1/r2)
    and the exact closed forms of P - Q keeps full relative accuracy.
    """
    t2 = p.t * p.t
    wt2 = w * t2
    w2t2 = w * w * t2
    if w < 1.0:
        log_r1_num = math.log1p(-w) + math.log1p(-wt2)
    else:
        log_r1_num = math.log(w - 1.0) + math.log1p(-wt2)
    log_r2_num = math.log1p(w) + math.log1p(wt2)
    d = (2.0 / p.n) * (log_r1_num - log_r2_num)
    r2 = math.exp((2.0 / p.n) * (log_r2_num - math.log1p(w2t2)))
    em = math.expm1(d)
    # P - Q identities: (1+wt2)^2-(1-wt2)^2 = 4w t^2,
    # [sq+2w(1+w)(1+wt2)]-[sq-2w(1-w)(1-wt2)] = 4w(1+w^2 t^2),
    # (1+w)^2-(1-w)^2 = 4w.
    a = w * w * r2 * ((1.0 + wt2) ** 2 * em + 4.0 * w * t2)
    p_b = (1.0 - w * wt2) ** 2 / t2 + 2.0 * w * (1.0 + w) * (1.0 + wt2)
    b = r2 * (p_b * em + 4.0 * w * (1.0 + w2t2))
    c = r2 * ((1.0 + w) ** 2 * em + 4.0 * w)
    return a, b, c


def tan2x_of_w(w, p: ChainParams):
    """Square of the tangent of the string center at this w.

    Takes the root (-B - sqrt(B^2 - 4AC)) / (2A) of the quadratic; a
    negative discriminant or a negative result signals an unphysical w.
    """
    a, b, c = _quadratic_coeffs(w, p)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NegativeDiscriminant(
            f"discriminant {disc!r} < 0 at w={w!r}: no real string center"
        )
    # The (-B - sqrt) root, taken in whichever of its two algebraic forms
    # avoids cancellation for the sign of B.
    root = math.sqrt(disc)
    if b > 0.0:
        value = (-b - root) / (2.0 * a)
    else:
        value = (2.0 * c) / (-b + root)
    if value < 0.0:
        raise NegativeTanSquare(
            f"tan^2 x = {value!r} < 0 at w={w!r}: w outside the branch"
        )
    return value


def _step(value):
    """Unit step H(value), with H(0) = 0 (never hit off boundaries)."""
    return 1.0 if value > 0.0 else 0.0


def z1(w, p: ChainParams):
    """Counting function of the complex pair; equals J1/N at a solution."""
    t = p.t
    t2 = t * t
    tan2 = tan2x_of_w(w, p)
    tanx = math.sqrt(tan2)
    den = 1.0 + tan2 * w * w * t2
    a = tanx * (1.0 - w * w * t2) / (t * den)
    b = (1.0 + tan2) * w / den
    delta = delta_of_w(w, p)
    return (
        (0.5 / math.pi) * math.atan(a / (1.0 - b))
        + (0.5 / math.pi) * math.atan(a / (1.0 + b))
        + 0.5 * (_step(b - 1.0) + 2.0 * _step(1.0 - b) * _step(-a))
        - 0.5 * _step(delta) / p.n
    )

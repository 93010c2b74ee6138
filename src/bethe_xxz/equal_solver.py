"""Real solutions with equal quantum numbers via the deviation counting
function.

A real pair with J1 = J2 is written as (x - phi, x + phi): a string center x
and a half-deviation phi > 0.  The center is eliminated in closed form,
leaving a scalar counting function of phi whose crossings with J1 are the
real solutions.  The same threshold controls which equal-label pairs are
real (collapsed strings) and whether the edge pair stays real.
"""
from __future__ import annotations

import cmath
import math

from .model import (
    ChainParams,
    DenominatorVanishes,
    HalfInt,
    NegativeTanSquare,
    NoRealSolution,
    QuantumPair,
    RapidityPair,
    ToleranceNotReached,
    bae_defect,
    bisect_monotone,
)

DEFAULT_DEFECT_TOL = 1e-10
DENOMINATOR_TOL = 1e-13
PHI_MIN = 1e-9
GRID_POINTS = 2048


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


def tan2x_complex_raw(phi, n, p: ChainParams):
    """Unfactored complex evaluation of the same closed form (cross-check).

    Returns the complex ratio before taking the real part; its imaginary
    part must vanish to rounding for the branch to be consistent.
    """
    theta, e_plus, d_plus = _phase_parts(phi, n, p)
    root = cmath.exp(1j * theta)
    num = root * e_plus - e_plus.conjugate()
    den = d_plus.conjugate() - root * d_plus
    if abs(den) < DENOMINATOR_TOL:
        raise DenominatorVanishes(
            f"tan^2 x denominator vanishes at phi={phi!r}"
        )
    return num / den


def tan2x_limit(p: ChainParams):
    """phi -> 0 limit of tan2x_of_phi at n=0, in closed form."""
    t = p.t
    coth = 1.0 / math.tanh(p.zeta)
    return (2.0 * coth * t * t - p.n * t) / (p.n * t - 2.0 * coth)


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


JUMP_THRESHOLD = 1.0


def _refine_jump(g, phi_l, val_l, phi_r, val_r):
    """Narrow a discontinuity of g to its left edge.

    Classifies the midpoint by which side's value it is closer to; the jump
    (size ~N/2) dwarfs the in-branch variation at these scales.
    """
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


def _scan_brackets(target, p: ChainParams, sign_x):
    """Yield sign-change brackets of N*W - target on a log-spaced phi grid.

    N*W is only piecewise continuous: the tangent wraps of x +- phi and the
    Gauss step jump by ~N/2, and a root can hide in the sliver between the
    last grid point and a jump.  Plain sign changes are yielded as-is (the
    caller validates them); every jump is refined to its left edge so that a
    crossing just before the branch ends is still bracketed.
    """
    phi_max = math.pi / 2.0 - 1e-9
    ratio = (phi_max / PHI_MIN) ** (1.0 / (GRID_POINTS - 1))

    def g(phi):
        return counting_w(phi, p, sign_x) - target

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
            if abs(val - prev_val) > JUMP_THRESHOLD:
                edge_phi, edge_val = _refine_jump(g, prev_phi, prev_val, phi, val)
                if prev_val * edge_val <= 0.0:
                    yield prev_phi, edge_phi
            elif prev_val * val <= 0.0:
                yield prev_phi, phi
        prev_phi, prev_val = phi, val
        phi = min(phi * ratio, phi_max)


def solve_equal(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve an equal-quantum-number real pair, or raise NoRealSolution."""
    if q.j1 != q.j2:
        raise ValueError("solve_equal requires equal quantum numbers")
    sign_x = 1 if q.j1 > 0 else -1
    target = float(abs(q.j1))
    phi = iterations = None
    for bracket in _scan_brackets(target, p, 1):
        cand, iters = bisect_monotone(
            lambda f: counting_w(f, p, 1) - target,
            bracket[0],
            bracket[1],
            xtol=1e-15,
            max_iter=200,
        )
        # A sign change across a jump of N*W bisects to the jump abscissa,
        # not a root; only accept candidates where N*W actually hits J1.
        if abs(counting_w(cand, p, 1) - target) < 1e-8:
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

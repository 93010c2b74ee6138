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
import logging
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
    first_grid_root,
    geometric_grid,
)

DEFAULT_DEFECT_TOL = 1e-10
DENOMINATOR_TOL = 1e-13
PHI_MIN = 1e-9
GRID_POINTS = 2048

log = logging.getLogger(__name__)


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


def _sample(f, phi):
    """f(phi), or NaN where no real center exists."""
    try:
        return f(phi)
    except (NegativeTanSquare, DenominatorVanishes):
        return math.nan


def solve_equal(q: QuantumPair, p: ChainParams, defect_tol=DEFAULT_DEFECT_TOL):
    """Solve an equal-quantum-number real pair, or raise NoRealSolution.

    N*W jumps by ~N/2 at the tangent wraps of x +- phi and at the Gauss
    step; a root can sit in the sliver just before a jump.
    """
    if q.j1 != q.j2:
        raise ValueError("solve_equal requires equal quantum numbers")
    sign_x = 1 if q.j1 > 0 else -1
    target = float(abs(q.j1))

    def shifted(phi):
        return counting_w(phi, p, 1) - target

    grid = geometric_grid(PHI_MIN, math.pi / 2.0 - 1e-9, GRID_POINTS).tolist()
    # N*W jumps by ~N/2, so at N = 4 a grid step across a tangent wrap can
    # stay under 1 (0.98 at zeta = 0.01) while hiding a root in its sliver.
    phi, iterations, brackets, jumps = first_grid_root(
        shifted, grid, [_sample(shifted, point) for point in grid],
        xtol=1e-15, accept=1e-8, jump=min(1.0, p.n / 8.0),
    )
    outcome = "no root" if phi is None else f"root phi={phi!r}"
    log.debug("equal, J=%r: brackets %s, jumps %s, %s",
              target, brackets, jumps, outcome)
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

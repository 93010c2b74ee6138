"""Reference evaluations that only the tests use.

Each is an independent form of a quantity the package computes another
way, kept here as a cross-check.
"""
import cmath
import math

from bethe_xxz.equal_solver import DENOMINATOR_TOL, _phase_parts
from bethe_xxz.height_solver import _contour_maps
from bethe_xxz.model import ChainParams, DenominatorVanishes, HalfInt


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


def mu2_of_mu1(mu1, j1: HalfInt, p: ChainParams):
    """Second rapidity as a function of the first, on the branch of j1."""
    return _contour_maps(j1, p)[0](mu1)


def diff_p(mu1, j1: HalfInt, p: ChainParams):
    """P(mu1) = mu2(mu1) - mu1, strictly decreasing between discontinuities."""
    return mu2_of_mu1(mu1, j1, p) - mu1


def log_bae_residual(lambda1, lambda2, j1, j2, p):
    """Residual of the logarithmic-form equations with explicit floor terms.

    Used as a cross-check that a solved pair really carries the quantum
    numbers it was solved for.  Valid for real rapidities in (-pi/2, pi/2).
    """
    t = p.t
    th = math.tanh(p.zeta)
    res = 0.0
    for lam, other, j in ((lambda1, lambda2, j1), (lambda2, lambda1, j2)):
        diff = lam - other
        lhs = 2.0 * math.atan(math.tan(lam) / t)
        rhs = (
            (2.0 * math.pi / p.n) * float(j)
            + (2.0 / p.n) * math.atan(math.tan(diff) / th)
            + (2.0 * math.pi / p.n)
            * math.floor((2.0 * diff + math.pi) / (2.0 * math.pi))
        )
        res = max(res, abs(lhs - rhs))
    return res

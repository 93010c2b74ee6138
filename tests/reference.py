"""Reference evaluations that only the tests use.

Each is an independent form of a quantity the package computes another
way, kept here as a cross-check.
"""
import cmath
import math

import numpy as np

from bethe_xxz.counting import DENOMINATOR_TOL, _contour_maps, _phase_parts
from bethe_xxz.model import (
    ChainParams,
    DenominatorVanishes,
    HalfInt,
    QuantumPair,
    RegimeReport,
    SolutionClass,
)
from bethe_xxz.quantum_numbers import classify_regime

# The two branches of the complex counting function Z1(w), narrow (w < 1)
# and wide (w > 1), and the branch each complex class takes its labels on.
NARROW, WIDE = "narrow", "wide"
BRANCH_OF_CLASS = {
    SolutionClass.NARROW_PAIR_COMPLEX: NARROW,
    SolutionClass.EXTRA_TWO_STRING: NARROW,
    SolutionClass.WIDE_PAIR_COMPLEX: WIDE,
}


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


# numpy's tan/arctan differ from math's by ulps, so sector_height trusts
# the sign of its floor and discontinuity terms only beyond this guard.
SIGN_GUARD = 1e-9


def sector_height(p: ChainParams):
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


def height_guard(n):
    """Bound on |numpy height - scalar height| for a sector of n sites.

    The height carries the ulps of tan/arctan through N atan(tan(mu1)/t)
    and N/pi atan(tan(mu2)/t), so the gap between the two heights grows
    like N^2.  Its largest measured values (100 001 points per sector,
    zeta from 0.01 to 0.3) are 3.8e-11 at N = 128, 1.35e-10 at N = 200,
    1.3e-9 at N = 400 and 2.3e-9 at N = 600: at least ten times under
    this guard.
    """
    return SIGN_GUARD * max(1.0, (n / 100.0) ** 2)


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


def sector_amplitudes(vec, n):
    """The amplitudes of a block vector over the sector basis, in basis order.

    Unfolds the unit block amplitudes b(r), r = 1 ... N/2 - (k mod 2), of
    block k: chi(r) = b(r) / sqrt(N) (sqrt(2) b(N/2) / sqrt(N) at r = N/2),
    chi(N - r) = (-1)^k chi(r), phi(r) = e^{i a r} chi(r) with a = pi k / N
    shifted by pi where needed for cos a >= 0, and
    A(x1, x2) = e^{2 i a x1} phi(x2 - x1).  The result has unit norm.
    """
    k, half = vec.k, n // 2
    a = math.pi * k / n
    if math.cos(a) < 0.0:
        a -= math.pi
    b = np.zeros(half + 1, dtype=complex)
    b[1:1 + len(vec.amplitudes)] = vec.amplitudes
    if k % 2 == 0:
        b[half] *= math.sqrt(2.0)
    x1, x2 = np.triu_indices(n, 1)
    r = x2 - x1
    chi = b[np.minimum(r, n - r)] / math.sqrt(n)
    chi[r > half] *= (-1.0) ** k
    return np.exp(1j * a * (2 * x1 + r)) * chi


def _half_odds_between(lo, hi):
    """Half-odd integers j with lo < j < hi (strict), ascending."""
    out = []
    tw = 2 * math.floor(lo) + 1
    if tw / 2.0 <= lo:
        tw += 2
    while tw / 2.0 < hi:
        out.append(HalfInt(tw))
        tw += 2
    return out


def special_pairs(p: ChainParams, report: RegimeReport):
    """Every enumerated pair that is not standard real: O(N) of them.

    The infinite family, the edge pairs, the remaining equal-label pairs, the
    wide pairs and the singular pair, in no particular order.
    """
    n = p.n
    f = report.threshold
    edge = HalfInt(n - 1)  # (N-1)/2
    pairs = []

    # Infinite family with distinct labels: (k, (N-1)/2) and (-k, -(N-1)/2).
    for k in _half_odds_between(0.0, (n - 1) / 2.0):
        pairs.append(QuantumPair(k, edge, SolutionClass.INFINITE_FAMILY_REAL))
        pairs.append(QuantumPair(-k, -edge, SolutionClass.INFINITE_FAMILY_REAL))

    # Edge pairs (+-(N-1)/2, +-(N-1)/2): real members of the infinite family
    # unless the extra two-string replaces them.
    edge_cls = (
        SolutionClass.EXTRA_TWO_STRING
        if report.extra_two_string
        else SolutionClass.INFINITE_FAMILY_REAL
    )
    pairs.append(QuantumPair(edge, edge, edge_cls))
    pairs.append(QuantumPair(-edge, -edge, edge_cls))

    # Remaining equal-label pairs in (N/4, N/2) excluding the edge:
    # complex narrow below F, collapsed real above F.
    for j in _half_odds_between(n / 4.0, n / 2.0):
        if j == edge:
            continue
        cls = (
            SolutionClass.NARROW_PAIR_COMPLEX
            if float(j) < f
            else SolutionClass.EQUAL_QN_REAL
        )
        pairs.append(QuantumPair(j, j, cls))
        pairs.append(QuantumPair(-j, -j, cls))

    # Wide pairs (j, j+1) for N/4 - 1/2 < j < (N-1)/2, with mirrors emitted
    # in ascending label order.
    for j in _half_odds_between(n / 4.0 - 0.5, (n - 1) / 2.0):
        pairs.append(QuantumPair(j, j + 1, SolutionClass.WIDE_PAIR_COMPLEX))
        pairs.append(
            QuantumPair(-(j + 1), -j, SolutionClass.WIDE_PAIR_COMPLEX)
        )

    # The singular pair, once; its two equivalent labels are deduplicated in
    # favour of the positive one.
    if n % 4 == 0:
        singular = QuantumPair(
            HalfInt(n // 2 - 1), HalfInt(n // 2 + 1), SolutionClass.SINGULAR
        )
    else:
        singular = QuantumPair(
            HalfInt(n // 2), HalfInt(n // 2), SolutionClass.SINGULAR
        )
    pairs.append(singular)
    return pairs


def enumerate_reference(p: ChainParams):
    """enumerate_all built constructively: standard pairs plus specials.

    Each class is generated from its own rule rather than by classifying
    label sets, so the two enumerations agree only if the rules do.
    """
    report = classify_regime(p)
    n = p.n

    # Standard real pairs: all -(N-1)/2 < j1 < j2 < (N-1)/2.
    interior = _half_odds_between(-(n - 1) / 2.0, (n - 1) / 2.0)
    pairs = [
        QuantumPair(interior[a], interior[b], SolutionClass.STANDARD_REAL)
        for a in range(len(interior))
        for b in range(a + 1, len(interior))
    ]
    pairs += special_pairs(p, report)

    pairs.sort(key=QuantumPair.key)
    return pairs
